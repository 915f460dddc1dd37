//! `cold-why`: distinct generated why-questions over an IMDB-like graph,
//! each asked once over SSE by one closed-loop client. The answer cache
//! never hits, so the engine (AnsW chase), matcher, PLL oracle and
//! intra-query pool do nearly all the work.

use crate::common::{self, closed_loop, store_ctx, timed_setups, Reference, Window};
use crate::inputs::{body, why_suite, work_path, Suite};
use crate::layers::Layers;
use crate::trace::{ns_of, OracleLog, Recorder, TimedOracle};
use crate::{client, Args, Outcome};
use serde_json::json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wqe_core::{EngineCtx, GraphStore, WhyQuestion};
use wqe_graph::Graph;
use wqe_index::{BoundedBfsOracle, DistanceOracle, HybridOracle, PllIndex, ResilientOracle};

/// `imdb_like` at this scale has 2,500 nodes.
const SCALE: f64 = 0.1;
/// The graph is the same for every `--seed`, which draws the questions:
/// with the same questions, the graphs of two seeds differed by 20% in
/// question rate, more than the bound a run-to-run spread may reach.
const GRAPH_SEED: u64 = 7;
/// Questions generated per second of window. The observed rate is about
/// 30/s on a 2-core host; a run that exhausts its questions ends its
/// window early and says so.
const QUESTIONS_PER_SECOND: f64 = 50.0;
/// Deterministic match-step cap per question (about 17% of questions
/// reach it, and they take two thirds of the window).
const STEP_CAP: u64 = 100_000;
/// The heavy share (questions whose search stops at the cap) is
/// calibrated on this many questions of this fixed seed, once per build
/// of the program.
const CALIBRATION_SEED: u64 = 0;
const CALIBRATION_QUESTIONS: usize = 1000;
/// Time slices for the tail: one, since the tail moves with which heavy
/// questions a window draws, not with bursts of host noise.
const TAIL_SLICES: usize = 1;
/// Set-ups per run (a PLL build each); `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Tail percentile of this workload: the highest with at least 10
/// samples beyond it (a window holds about 30 questions a second).
const TAIL_Q: f64 = 0.9;
/// PLL build threads, as `GraphStore` uses them.
const BUILD_THREADS: usize = 4;

/// Asks `bodies` in `order`, one at a time, until the window ends.
fn window(addr: std::net::SocketAddr, bodies: &[String], order: &[usize], seconds: f64) -> Window {
    let w = closed_loop(1, Duration::from_secs_f64(seconds), |_, k, t0| {
        let q = *order.get(k)?;
        let start = t0.elapsed();
        let reply = client::exchange(addr, "POST", "/v1/why", &bodies[q]);
        Some(common::Sample::new(q, None, start, reply))
    });
    if w.samples.len() == order.len() {
        eprintln!(
            "note: cold-why ran out of questions after {:.1} s",
            w.elapsed_s
        );
    }
    w
}

/// The order in which the window asks the questions: suite order,
/// interleaved so that every prefix holds `heavy_share` of heavy
/// (capped) questions for as long as both kinds last. A window asks a few
/// hundred questions, and the heavy ones take most of its time, so a
/// random draw would move the question rate by how many heavy questions
/// the seed happened to put early.
fn asking_order(reference: &[Reference], heavy_share: f64) -> Vec<usize> {
    let (heavy, light): (Vec<usize>, Vec<usize>) =
        (0..reference.len()).partition(|&i| reference[i].capped);
    let (mut heavy, mut light) = (heavy.into_iter().peekable(), light.into_iter().peekable());
    let mut order = Vec::with_capacity(reference.len());
    let mut heavy_asked = 0;
    loop {
        let heavy_due = (heavy_asked as f64) < heavy_share * (order.len() + 1) as f64;
        let next = if heavy_due || light.peek().is_none() {
            heavy
                .next()
                .inspect(|_| heavy_asked += 1)
                .or_else(|| light.next())
        } else {
            light.next()
        };
        match next {
            Some(i) => order.push(i),
            None => return order,
        }
    }
}

fn graph() -> Arc<Graph> {
    Arc::new(wqe_datagen::imdb_like(SCALE, GRAPH_SEED))
}

fn pll_oracle(graph: &Arc<Graph>) -> Arc<dyn DistanceOracle> {
    Arc::new(HybridOracle::default_for(graph, 4))
}

/// The question suite of `--seed`.
fn suite(a: &Args, graph: &Arc<Graph>) -> Result<Suite, String> {
    let count = (a.seconds * QUESTIONS_PER_SECOND).ceil() as usize;
    why_suite("cold-why", graph, || pll_oracle(graph), a.seed, count)
}

fn references_path(a: &Args) -> Result<PathBuf, String> {
    work_path(&format!("cold-why-s{}.refs", a.seed))
}

/// Where the calibrated heavy share of this build of the program is
/// kept: keyed by a hash of the executable, since the share depends on
/// the engine's code.
fn heavy_share_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    work_path(&format!(
        "cold-why-heavy-share-{:016x}",
        common::fnv1a(&bytes)
    ))
}

/// Generates and caches the suite, computes every question's exact
/// reference answer, and calibrates the heavy share if this build has not
/// yet (run in a child process, so that generation memory stays out of
/// the measured process's `peak_rss_mb`). [`run`] reads the references
/// and deletes them.
pub fn prepare(a: &Args) -> Result<(), String> {
    let graph = graph();
    let suite = suite(a, &graph)?;
    let reference = common::references(
        &graph,
        &suite.questions.iter().collect::<Vec<_>>(),
        STEP_CAP,
    )?;
    let lines: String = reference
        .iter()
        .map(|r| format!("{:016x} {}\n", r.fingerprint, u8::from(r.capped)))
        .collect();
    std::fs::write(references_path(a)?, lines).map_err(|e| format!("write references: {e}"))?;
    let share_path = heavy_share_path()?;
    if !share_path.exists() {
        let calibration = why_suite(
            "cold-why-calibration",
            &graph,
            || pll_oracle(&graph),
            CALIBRATION_SEED,
            CALIBRATION_QUESTIONS,
        )?;
        let qs: Vec<&WhyQuestion> = calibration.questions.iter().collect();
        let reference = common::references(&graph, &qs, STEP_CAP)?;
        let share = reference.iter().filter(|r| r.capped).count() as f64 / qs.len() as f64;
        std::fs::write(&share_path, share.to_string())
            .map_err(|e| format!("write heavy share: {e}"))?;
    }
    Ok(())
}

/// The references and the heavy share [`prepare`] left.
fn prepared(a: &Args) -> Result<(Vec<Reference>, f64), String> {
    let path = references_path(a)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read references: {e}"));
    let _ = std::fs::remove_file(&path);
    let reference = text?
        .lines()
        .map(|l| {
            let (fp, capped) = l.split_once(' ')?;
            Some(Reference {
                fingerprint: u64::from_str_radix(fp, 16).ok()?,
                capped: capped == "1",
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed references")?;
    let share = std::fs::read_to_string(heavy_share_path()?)
        .map_err(|e| format!("read heavy share: {e}"))?
        .parse::<f64>()
        .map_err(|e| format!("heavy share: {e}"))?;
    Ok((reference, share))
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let graph = graph();
    let suite = suite(a, &graph)?;
    let (reference, heavy_share) = prepared(a)?;
    if reference.len() != suite.questions.len() {
        return Err("references do not match the suite".into());
    }
    let order = asking_order(&reference, heavy_share);
    let bodies: Vec<String> = suite
        .docs
        .iter()
        .map(|d| body(d, &[("stream", json!(true))]))
        .collect();

    let (server, setup_s) = timed_setups(SETUP_REPS, || {
        Ok(store_ctx(
            Arc::new(GraphStore::new(Arc::clone(&graph))),
            1,
            STEP_CAP,
        ))
    })?;
    let c0 = common::ServiceCounters::fetch(server.addr)?;
    let plain = window(server.addr, &bodies, &order, a.seconds);
    let c1 = common::ServiceCounters::fetch(server.addr)?;
    let peak_rss_mb = common::peak_rss_mb();
    drop(server);
    let why = common::summarize(&plain, TAIL_Q, TAIL_SLICES);

    let mut layers = Layers::default();
    let mut windows = vec![plain];
    if a.trace {
        // The same stack `GraphStore::new` builds (PLL primary, exact BFS
        // fallback behind the resilience ladder), with the timing delegate
        // on top.
        let t = Instant::now();
        let pll = Arc::new(PllIndex::build_with(&graph, BUILD_THREADS));
        layers.set("index.build_s", t.elapsed().as_secs_f64());
        layers.set("index.label_entries", pll.stats().total_entries as f64);
        let fallback = Arc::new(BoundedBfsOracle::new(Arc::clone(&graph), u32::MAX));
        let log = Arc::new(OracleLog::default());
        let oracle = TimedOracle::new(
            Arc::new(ResilientOracle::new(pll, fallback)),
            Arc::clone(&log),
        );
        let ctx = EngineCtx::builder()
            .graph(Arc::clone(&graph))
            .oracle(Arc::new(oracle))
            .build()
            .map_err(|e| e.to_string())?;
        let server = common::serve(store_ctx(
            Arc::new(GraphStore::from_ctx(ctx.clone())),
            1,
            STEP_CAP,
        ))?;
        let stars0 = ctx.star_cache().stats();
        let c0 = common::ServiceCounters::fetch(server.addr)?;
        let traced = window(server.addr, &bodies, &order, a.seconds);
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
        layers.record_oracle(&log, Default::default());
        let traced_qps = common::summarize(&traced, TAIL_Q, TAIL_SLICES).qps;
        layers.set(
            "harness.tracing_overhead_share",
            1.0 - crate::stats::ratio(traced_qps, why.qps),
        );
        rec.write(&work_path(&format!("trace-cold-why-s{}.jsonl", a.seed))?)
            .map_err(|e| format!("write trace: {e}"))?;
        windows.push(traced);
    } else {
        layers.service(c1.minus(c0));
    }

    // Answer check, against the exact references computed before set-up,
    // plus the spec round trip of the first questions.
    let roundtrip_bad = common::roundtrip_mismatches(
        &graph,
        &suite.docs[..3.min(suite.docs.len())],
        &reference[..3.min(reference.len())],
        STEP_CAP,
    )?;
    let (attempted, failed, mismatches) =
        common::check(&windows, |s| Some(reference[s.question].fingerprint));
    eprintln!(
        "cold-why: {} questions asked (heavy share {heavy_share:.3}), {mismatches} answer mismatches, {roundtrip_bad} round-trip mismatches",
        windows[0].samples.len()
    );
    Ok(Outcome {
        checks_passed: mismatches == 0 && roundtrip_bad == 0,
        attempted,
        failed,
        end_to_end: common::end_to_end(setup_s, &why, peak_rss_mb),
        extra: vec![],
        per_layer: layers.metrics(),
    })
}
