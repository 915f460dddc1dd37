//! Pieces every workload shares: the serving configuration, timed server
//! set-up, the closed-loop load generator, per-request samples, the exact answer
//! reference, and host facts.

use crate::client::{self, Reply};
use crate::stats::{median, quantile, ratio};
use serde_json::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wqe_core::{
    Algorithm, EngineCtx, GraphStore, QueryService, ServiceConfig, Termination, WhyQuestion,
    WqeConfig, WqeEngine,
};
use wqe_graph::Graph;
use wqe_index::BoundedBfsOracle;
use wqe_serve::http::HttpServer;
use wqe_serve::ServeCtx;

/// Superseded epochs the server keeps pinned, as `wqe-cli serve --http`
/// does, so stateless clients can pin recent epochs by id.
const RETENTION: usize = 8;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine configuration every request runs with. Answers must not
/// depend on machine speed, so there is no wall-clock limit
/// (`time_limit_ms: None`; the default 10 s limit cuts slow questions at
/// a machine-dependent point) and the deterministic match-step cap
/// `step_cap` is the only cut-off.
fn wqe_config(parallelism: usize, step_cap: u64) -> WqeConfig {
    WqeConfig {
        time_limit_ms: None,
        max_match_steps: step_cap,
        parallelism,
        ..Default::default()
    }
}

/// A store-backed serving context, built the way `wqe-cli serve --http`
/// builds one, with `workers` service workers, per-query parallelism
/// `nproc` and the match-step cap `step_cap`.
pub fn store_ctx(store: Arc<GraphStore>, workers: usize, step_cap: u64) -> ServeCtx {
    store.set_retention(RETENTION);
    let config = ServiceConfig {
        max_inflight: workers,
        queue_cap: 64,
        base_config: wqe_config(nproc(), step_cap),
        ..Default::default()
    };
    let graph = Arc::clone(store.pin().ctx().graph());
    ServeCtx {
        service: Arc::new(QueryService::with_store(Arc::clone(&store), config)),
        graph,
        store: Some(store),
    }
}

/// A bound server and the context it serves.
pub struct Server {
    pub addr: SocketAddr,
    // Dropping the handle stops the accept loop and drains handlers.
    _http: HttpServer,
}

/// Binds `ctx` on an ephemeral loopback port and waits for the first
/// `200` from `/v1/healthz`.
pub fn serve(ctx: ServeCtx) -> Result<Server, String> {
    let http = HttpServer::bind(ctx, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = http.addr();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client::get_json(addr, "/v1/healthz") {
            Ok((200, _)) => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            other => {
                return Err(format!(
                    "healthz never answered 200: {:?}",
                    other.map(|r| r.0)
                ))
            }
        }
    }
    Ok(Server { addr, _http: http })
}

/// Builds and starts the server `reps` times, timing each from inputs in
/// hand to the first healthy `/v1/healthz`, and keeps the last. Returns
/// the server and the median set-up time in seconds.
pub fn timed_setups(
    reps: usize,
    mut build: impl FnMut() -> Result<ServeCtx, String>,
) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // The previous server (and its index) is torn down before the
        // next build starts, so set-ups do not overlap in memory.
        drop(last.take());
        let t = Instant::now();
        let server = serve(build()?)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(server);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// One `/v1/why` exchange as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the question asked.
    pub question: usize,
    /// The epoch the request pinned, when it pinned one.
    pub epoch: Option<u64>,
    /// Offset of the request start from the window start.
    pub start: Duration,
    pub wall_ms: f64,
    pub first_ms: f64,
    pub bytes: usize,
    pub events: u32,
    /// HTTP 200 with `"status": "done"`.
    pub ok: bool,
    pub queue_ms: f64,
    pub service_ms: f64,
    pub cache_hit: bool,
    pub engine_ms: f64,
    pub expansions: f64,
    pub match_steps: f64,
    /// The report's termination reason (`""` when there is no report).
    pub termination: &'static str,
    /// FNV-1a hash of the report fingerprint: a full fingerprint lists
    /// every matched node, and keeping thousands of them would put the
    /// harness's own memory into `peak_rss_mb`.
    pub fingerprint: u64,
}

impl Sample {
    pub fn new(
        question: usize,
        epoch: Option<u64>,
        start: Duration,
        reply: std::io::Result<Reply>,
    ) -> Sample {
        let mut s = Sample {
            question,
            epoch,
            start,
            wall_ms: 0.0,
            first_ms: 0.0,
            bytes: 0,
            events: 0,
            ok: false,
            queue_ms: 0.0,
            service_ms: 0.0,
            cache_hit: false,
            engine_ms: 0.0,
            expansions: 0.0,
            match_steps: 0.0,
            termination: "",
            fingerprint: 0,
        };
        let Ok(r) = reply else {
            return s;
        };
        s.wall_ms = r.wall.as_secs_f64() * 1e3;
        s.first_ms = r.first_answer.as_secs_f64() * 1e3;
        s.bytes = r.bytes;
        s.events = r.events;
        let b = &r.body;
        let status = b.get("status").and_then(Value::as_str).unwrap_or("");
        s.ok = r.status == 200 && status == "done";
        s.queue_ms = client::num(b, "queue_ms");
        s.service_ms = client::num(b, "service_ms");
        s.cache_hit = b.get("cache_hit").and_then(Value::as_bool).unwrap_or(false);
        if let Some(rep) = b.get("report") {
            s.engine_ms = client::num(rep, "elapsed_ms");
            s.expansions = client::num(rep, "expansions");
            s.match_steps = client::num(rep, "match_steps");
            let text = |k: &str| rep.get(k).and_then(Value::as_str).unwrap_or("");
            s.termination = match text("termination") {
                "complete" => "complete",
                "step_cap" => "step_cap",
                "" => "",
                _ => "other",
            };
            s.fingerprint = fnv1a(text("fingerprint").as_bytes());
        }
        s
    }
}

/// Runs `clients` closed-loop clients until `window` has passed: each
/// sends its next request (`op(client, k)`) only after the previous one
/// completed. `op` returns `None` when the client has nothing left to
/// send.
pub fn closed_loop(
    clients: usize,
    window: Duration,
    op: impl Fn(usize, usize, Instant) -> Option<Sample> + Sync,
) -> Window {
    let t0 = Instant::now();
    let deadline = t0 + window;
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let op = &op;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut k = 0;
                    while Instant::now() < deadline {
                        match op(c, k, t0) {
                            Some(sample) => out.push(sample),
                            None => break,
                        }
                        k += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.start);
    Window {
        samples,
        elapsed_s,
        t0,
    }
}

/// The samples of one timed window.
pub struct Window {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    pub t0: Instant,
}

/// The user-visible why-side metrics of a window.
pub struct WhySummary {
    pub qps: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub first_p50_ms: f64,
}

/// The why-side metrics of a window. The tail is the median of the
/// `tail_q` quantiles of `slices` equal time slices of the window, so one
/// burst of host noise moves one slice, not the result.
pub fn summarize(w: &Window, tail_q: f64, slices: usize) -> WhySummary {
    let ok: Vec<&Sample> = w.samples.iter().filter(|s| s.ok).collect();
    let wall: Vec<f64> = ok.iter().map(|s| s.wall_ms).collect();
    let first: Vec<f64> = ok.iter().map(|s| s.first_ms).collect();
    let slices = slices.max(1);
    let slice_s = w.elapsed_s / slices as f64;
    let mut tails = Vec::with_capacity(slices);
    for k in 0..slices {
        let slice: Vec<f64> = ok
            .iter()
            .filter(|s| ((s.start.as_secs_f64() / slice_s) as usize).min(slices - 1) == k)
            .map(|s| s.wall_ms)
            .collect();
        if crate::stats::beyond(slice.len(), tail_q) < 10 {
            eprintln!(
                "note: slice {k} has {} samples beyond p{}; the tail rule asks for 10",
                crate::stats::beyond(slice.len(), tail_q),
                tail_q * 100.0
            );
        }
        tails.push(quantile(&slice, tail_q));
    }
    WhySummary {
        qps: ratio(ok.len() as f64, w.elapsed_s),
        p50_ms: median(&wall),
        tail_ms: median(&tails),
        first_p50_ms: median(&first),
    }
}

/// Service counters from `/v1/stats`, for deltas across a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    pub answer_cache_hits: f64,
    pub answer_cache_misses: f64,
    pub answer_cache_evictions: f64,
    pub retries: f64,
    pub shed: f64,
    pub rejected: f64,
}

impl ServiceCounters {
    pub fn fetch(addr: SocketAddr) -> Result<ServiceCounters, String> {
        let (status, v) =
            client::get_json(addr, "/v1/stats").map_err(|e| format!("/v1/stats: {e}"))?;
        if status != 200 {
            return Err(format!("/v1/stats answered {status}"));
        }
        let c = v.get("counters").cloned().unwrap_or(Value::Null);
        Ok(ServiceCounters {
            answer_cache_hits: client::num(&c, "answer_cache_hits"),
            answer_cache_misses: client::num(&c, "answer_cache_misses"),
            answer_cache_evictions: client::num(&c, "answer_cache_evictions"),
            retries: client::num(&c, "retries"),
            shed: client::num(&c, "shed_requests") + client::num(&c, "rate_limited"),
            rejected: client::num(&v, "rejected"),
        })
    }

    pub fn minus(self, o: ServiceCounters) -> ServiceCounters {
        ServiceCounters {
            answer_cache_hits: self.answer_cache_hits - o.answer_cache_hits,
            answer_cache_misses: self.answer_cache_misses - o.answer_cache_misses,
            answer_cache_evictions: self.answer_cache_evictions - o.answer_cache_evictions,
            retries: self.retries - o.retries,
            shed: self.shed - o.shed,
            rejected: self.rejected - o.rejected,
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The exact answer to one question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Hash of the report fingerprint (see [`Sample::fingerprint`]).
    pub fingerprint: u64,
    /// The search stopped at a work cap instead of completing.
    pub capped: bool,
}

/// The answers to `questions` by AnsW on a fresh context over `graph`
/// with an exact bounded-BFS oracle (`horizon` at least every edge bound
/// the questions can reach), two questions at a time, under the same
/// match-step cap as the served answers.
pub fn references(
    graph: &Arc<Graph>,
    questions: &[&WhyQuestion],
    step_cap: u64,
) -> Result<Vec<Reference>, String> {
    let horizon = questions
        .iter()
        .map(|q| q.query.max_bound())
        .max()
        .unwrap_or(1);
    let oracle = Arc::new(BoundedBfsOracle::new(Arc::clone(graph), horizon));
    let ctx = EngineCtx::new(Arc::clone(graph), oracle);
    let threads = nproc().clamp(1, 2);
    let chunks: Vec<Vec<(usize, &WhyQuestion)>> = (0..threads)
        .map(|t| {
            questions
                .iter()
                .copied()
                .enumerate()
                .skip(t)
                .step_by(threads)
                .collect()
        })
        .collect();
    let results: Vec<Result<Vec<(usize, Reference)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let ctx = ctx.clone();
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(i, q)| Ok((i, answer(&ctx, q, step_cap)?)))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut out = vec![None; questions.len()];
    for r in results {
        for (i, reference) in r? {
            out[i] = Some(reference);
        }
    }
    Ok(out.into_iter().flatten().collect())
}

/// AnsW's answer to `q` on `ctx`, run serially.
fn answer(ctx: &EngineCtx, q: &WhyQuestion, step_cap: u64) -> Result<Reference, String> {
    let report = WqeEngine::try_new(ctx.clone(), q.clone(), wqe_config(1, step_cap))
        .and_then(|e| e.try_run(Algorithm::AnsW))
        .map_err(|e| format!("reference run: {e}"))?;
    Ok(Reference {
        fingerprint: fnv1a(report.fingerprint().as_bytes()),
        capped: report.termination != Termination::Complete,
    })
}

/// Checks the answer half of the spec round trip on the first few
/// questions: the question parsed back from its emitted `/v1/why` body
/// must answer with the original's fingerprint. Returns the number of
/// mismatches.
pub fn roundtrip_mismatches(
    graph: &Arc<Graph>,
    docs: &[Value],
    reference: &[Reference],
    step_cap: u64,
) -> Result<usize, String> {
    let parsed = docs
        .iter()
        .map(|d| wqe_core::spec::parse_question(graph, d).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let refs: Vec<&WhyQuestion> = parsed.iter().collect();
    let got = references(graph, &refs, step_cap)?;
    Ok(got.iter().zip(reference).filter(|(a, b)| a != b).count())
}

/// Peak resident set size of this process in MiB: the `VmHWM` line of
/// `/proc/self/status` (0 where there is none).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |r| r.trim().to_string())
}

/// The host facts every result depends on.
pub fn host_facts() -> Value {
    serde_json::json!({
        "nproc": nproc(),
        "kernel": kernel_release(),
        "distance_kernel": wqe_index::active_kernel().as_str(),
    })
}

/// Counts over every window: operations attempted, operations failed
/// (not `200 done`, or an answer that differs from its reference), and
/// the answer mismatches among them. `reference` gives the expected
/// fingerprint of a sample, or `None` when the sample is not checked.
pub fn check(windows: &[Window], reference: impl Fn(&Sample) -> Option<u64>) -> (u64, u64, u64) {
    let (mut attempted, mut failed, mut mismatches) = (0, 0, 0);
    for s in windows.iter().flat_map(|w| &w.samples) {
        attempted += 1;
        if !s.ok {
            failed += 1;
        } else if reference(s).is_some_and(|r| r != s.fingerprint) {
            failed += 1;
            mismatches += 1;
        }
    }
    (attempted, failed, mismatches)
}

/// The gated end-to-end metrics, as `BENCHMARK.json` declares them.
pub fn end_to_end(setup_s: f64, why: &WhySummary, peak_rss_mb: f64) -> crate::Metrics {
    let values = [
        ("setup_s", setup_s),
        ("why_qps", why.qps),
        ("why_p50_ms", why.p50_ms),
        ("why_tail_ms", why.tail_ms),
        ("first_update_p50_ms", why.first_p50_ms),
        ("peak_rss_mb", peak_rss_mb),
    ];
    crate::layers::declared("end_to_end", &values.into_iter().collect())
}
