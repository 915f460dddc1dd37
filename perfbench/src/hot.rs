//! `hot-why`: a streamed DBpedia-like snapshot past the PLL crossover
//! (so distances come from bounded BFS), opened in set-up. Two
//! closed-loop clients send blocking `/v1/why` requests, Zipf-skewed over
//! a hot set that fits the answer cache and is warmed before timing, so
//! nearly every request is a cache hit and accept, parse, cache-key and
//! serialize costs dominate.
//!
//! Only `complete` reports are cached (the `Termination::Complete` check
//! in `QueryService`), so step-capped questions would never hit: the hot
//! set is drawn from the candidates whose warm-up answer completed.

use crate::common::{self, closed_loop, store_ctx, timed_setups, Sample, Window};
use crate::inputs::{body, cached_suite, splitmix64, why_suite, work_path};
use crate::layers::Layers;
use crate::trace::{ns_of, OracleLog, Recorder, TimedOracle};
use crate::{client, Args, Outcome};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wqe_core::{EngineCtx, GraphStore};
use wqe_datagen::ScaleConfig;
use wqe_graph::Graph;

/// Nodes in the snapshot: past the 50k-node PLL crossover.
const NODES: u64 = 60_000;
/// Candidate questions; the hot set is those whose warm-up completed.
/// Far below the 256-entry answer cache.
const CANDIDATES: usize = 16;
/// The snapshot and the candidate questions are the same for every
/// `--seed`, which draws the request stream (which hot question each
/// request asks). Warming the candidates fills the BFS oracle's memo, and
/// whether a question set holds one hub-heavy question moved
/// `peak_rss_mb` by a third between seeds.
const DATA_SEED: u64 = 7;
const CLIENTS: usize = 2;
/// Zipf exponent of the request mix over the hot set.
const ZIPF_S: f64 = 1.0;
/// Deterministic match-step cap per question.
const STEP_CAP: u64 = 100_000;
/// Time slices for the tail (see `common::summarize`).
const TAIL_SLICES: usize = 5;
/// Set-ups per run (a snapshot open each); `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Tail percentile of this workload. Each time slice holds thousands of
/// samples, enough for p99, but a 2 ms cache hit's p99 on a shared 2-CPU
/// host moves with other tenants' load (runs of one seed spread by more
/// than any allowed bound), so the tail is p90 here as elsewhere.
const TAIL_Q: f64 = 0.9;

/// DBpedia-like shape (the `dbpedia_like` preset's parameters) for the
/// streaming generator.
fn scale_config() -> ScaleConfig {
    ScaleConfig {
        name: "dbpedia".into(),
        avg_out_degree: 3.1,
        labels: 120,
        attrs_per_node: 9,
        attr_pool: 60,
        numeric_ratio: 0.6,
        categorical_domain: 30,
        numeric_range: (0, 10_000),
        skew: 0.6,
        edge_labels: 24,
        ..ScaleConfig::new(NODES, DATA_SEED)
    }
}

fn open(path: &Path) -> Result<EngineCtx, String> {
    EngineCtx::builder()
        .snapshot_path(path)
        .build()
        .map_err(|e| format!("open snapshot: {e}"))
}

/// Asks every candidate once; returns the samples and the hot set (the
/// candidates that answered `complete`).
fn warm_up(addr: SocketAddr, bodies: &[String]) -> (Window, Vec<usize>, f64) {
    let t0 = Instant::now();
    let samples: Vec<Sample> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| {
            Sample::new(
                i,
                None,
                t0.elapsed(),
                client::exchange(addr, "POST", "/v1/why", b),
            )
        })
        .collect();
    let elapsed_s = t0.elapsed().as_secs_f64();
    let hot = samples
        .iter()
        .filter(|s| s.ok && s.termination == "complete")
        .map(|s| s.question)
        .collect();
    (
        Window {
            samples,
            elapsed_s,
            t0,
        },
        hot,
        elapsed_s,
    )
}

fn window(addr: SocketAddr, bodies: &[String], hot: &[usize], seed: u64, seconds: f64) -> Window {
    let weights: Vec<f64> = (1..=hot.len())
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    closed_loop(CLIENTS, Duration::from_secs_f64(seconds), |c, k, t0| {
        let r = splitmix64(seed ^ splitmix64(((c as u64) << 40) | k as u64));
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        let q = hot[cdf.partition_point(|&p| p < u).min(hot.len() - 1)];
        let start = t0.elapsed();
        Some(Sample::new(
            q,
            None,
            start,
            client::exchange(addr, "POST", "/v1/why", &bodies[q]),
        ))
    })
}

fn snapshot_path(a: &Args) -> Result<std::path::PathBuf, String> {
    work_path(&format!("hot-why-s{}.wqs", a.seed))
}

/// Writes the snapshot and generates and caches the candidate questions
/// over it (run in a child process, so that generation memory stays out
/// of the measured process's `peak_rss_mb`). The snapshot stays for
/// [`run`], which deletes it.
pub fn prepare(a: &Args) -> Result<(), String> {
    let path = snapshot_path(a)?;
    wqe_datagen::stream_snapshot(&scale_config(), &path).map_err(|e| format!("snapshot: {e}"))?;
    let ctx = open(&path)?;
    let oracle = || Arc::clone(ctx.oracle());
    why_suite("hot-why", ctx.graph(), oracle, DATA_SEED, CANDIDATES).map(drop)
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let path = snapshot_path(a)?;
    let result = run_on(a, &path);
    let _ = std::fs::remove_file(&path);
    result
}

fn run_on(a: &Args, path: &Path) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut open_s = Vec::new();
    // The served graph, which is also the answer check's reference graph:
    // the process holds no second copy.
    let mut graph: Option<Arc<Graph>> = None;
    let (server, setup_s) = timed_setups(SETUP_REPS, || {
        // The previous set-up's graph goes before the next one is opened.
        graph = None;
        let t = Instant::now();
        let ctx = open(path)?;
        open_s.push(t.elapsed().as_secs_f64());
        let mapped = ctx.snapshot_startup().map_or(0, |s| s.bytes_mapped);
        layers.set("store.bytes_mapped", mapped as f64);
        graph = Some(Arc::clone(ctx.graph()));
        Ok(store_ctx(
            Arc::new(GraphStore::from_ctx(ctx)),
            CLIENTS,
            STEP_CAP,
        ))
    })?;
    layers.set("store.open_s", crate::stats::median(&open_s));
    let graph = graph.expect("at least one set-up");
    let suite = cached_suite("hot-why", &graph, DATA_SEED, CANDIDATES)?;
    let bodies: Vec<String> = suite.docs.iter().map(|d| body(d, &[])).collect();
    let (warm, hot, warmup_s) = warm_up(server.addr, &bodies);
    if hot.is_empty() {
        return Err("no candidate question completed in warm-up".into());
    }
    eprintln!(
        "hot-why: hot set {} of {CANDIDATES} candidates ({} step-capped or failed, never cached)",
        hot.len(),
        CANDIDATES - hot.len()
    );
    let c0 = common::ServiceCounters::fetch(server.addr)?;
    let plain = window(server.addr, &bodies, &hot, a.seed, a.seconds);
    let c1 = common::ServiceCounters::fetch(server.addr)?;
    let peak_rss_mb = common::peak_rss_mb();
    drop(server);
    let why = common::summarize(&plain, TAIL_Q, TAIL_SLICES);
    layers.set("harness.warmup_s", warmup_s);

    let mut windows = vec![warm, plain];
    if a.trace {
        let snap = open(path)?;
        let log = Arc::new(OracleLog::default());
        let oracle = TimedOracle::new(Arc::clone(snap.oracle()), Arc::clone(&log));
        let ctx = EngineCtx::builder()
            .graph(Arc::clone(snap.graph()))
            .oracle(Arc::new(oracle))
            .build()
            .map_err(|e| e.to_string())?;
        let server = common::serve(store_ctx(
            Arc::new(GraphStore::from_ctx(ctx.clone())),
            CLIENTS,
            STEP_CAP,
        ))?;
        let (warm, hot, _) = warm_up(server.addr, &bodies);
        let stars0 = ctx.star_cache().stats();
        let since = log.mark();
        let c0 = common::ServiceCounters::fetch(server.addr)?;
        let traced = window(server.addr, &bodies, &hot, a.seed, a.seconds);
        layers.service(common::ServiceCounters::fetch(server.addr)?.minus(c0));
        layers.star_cache(stars0, ctx.star_cache().stats());
        drop(server);
        let mut rec = Recorder::default();
        layers.record_samples(
            &traced.samples,
            ns_of(traced.t0),
            TAIL_Q,
            Some(&log.union()),
            &mut rec,
        );
        // The warm-up computed every answer; the window itself should
        // probe the oracle not at all. Report only the window's work.
        layers.record_oracle(&log, since);
        let traced_qps = common::summarize(&traced, TAIL_Q, TAIL_SLICES).qps;
        layers.set(
            "harness.tracing_overhead_share",
            1.0 - crate::stats::ratio(traced_qps, why.qps),
        );
        rec.write(&work_path(&format!("trace-hot-why-s{}.jsonl", a.seed))?)
            .map_err(|e| format!("write trace: {e}"))?;
        windows.push(warm);
        windows.push(traced);
    } else {
        layers.service(c1.minus(c0));
    }

    // Every candidate was asked in warm-up, so every answer has a
    // reference; each timed response is compared with it.
    let refs: Vec<_> = suite.questions.iter().collect();
    let reference = common::references(&graph, &refs, STEP_CAP)?;
    let roundtrip_bad = common::roundtrip_mismatches(
        &graph,
        &suite.docs[..3.min(bodies.len())],
        &reference,
        STEP_CAP,
    )?;
    let (attempted, failed, mismatches) =
        common::check(&windows, |s| Some(reference[s.question].fingerprint));
    eprintln!("hot-why: {mismatches} answer mismatches, {roundtrip_bad} round-trip mismatches");
    Ok(Outcome {
        checks_passed: mismatches == 0 && roundtrip_bad == 0,
        attempted,
        failed,
        end_to_end: common::end_to_end(setup_s, &why, peak_rss_mb),
        extra: vec![],
        per_layer: layers.metrics(),
    })
}
