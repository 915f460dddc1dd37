//! Distance-kernel work-count harness plus the paper-scale streaming gate.
//!
//! ```text
//! bench_kernels [--out results/BENCH_kernels.json] [--scale F]
//!               [--scale-nodes N] [--pairs-per-source K]
//! ```
//!
//! **Phase A** measures the one claim the batched oracle path makes, in a
//! unit wall-clock cannot fake on a small shared host: answering a batch
//! of `(source, target)` distance queries through `dist_batch` (group by
//! source, load `L_out` once into the rank-indexed table, probe each
//! `L_in` with a `max_rank` cutoff) must scan **≥2× fewer label entries**
//! than the same pairs through pairwise `distance_within` merge-joins —
//! with bit-identical answers. Entry scans come from the
//! `oracle_label_entries_scanned` profiler counter both kernels feed, so
//! the gate holds for the scalar and the AVX2 dispatch alike (the active
//! kernel is recorded in the report; `WQE_FORCE_SCALAR=1` pins scalar).
//!
//! **Phase B** exercises the paper-scale streaming path end to end: stream
//! a million-node graph straight into a snapshot (`wqe_datagen::stream`,
//! never materialized), open it, build an [`EngineCtx`] from it, generate
//! a why-question on the loaded graph, and answer it under a governor
//! deadline. The gate is that the whole chain completes and returns a
//! report — the scale claim is "this machine can serve why-questions
//! against a graph it could never afford to re-parse", not a latency
//! number.

use std::time::Instant;
use wqe_core::obs::{enter, Counter, Profiler};
use wqe_core::{Algorithm, EngineCtx, WhyQuestion, WqeConfig, WqeEngine};
use wqe_datagen::{exemplar_from, generate_query, stream_snapshot, QueryGenConfig, ScaleConfig};
use wqe_graph::NodeId;
use wqe_index::kernel::{active_kernel, Kernel};
use wqe_index::{DistanceOracle, PllIndex};

#[derive(serde::Serialize)]
struct BenchKernels {
    /// The merge-join implementation this process dispatched to.
    kernel: &'static str,
    avx2_available: bool,
    // Phase A: label entries scanned, pairwise vs batched.
    nodes: usize,
    edges: usize,
    sources: usize,
    pairs: usize,
    bound: u32,
    point_entries_scanned: u64,
    batch_entries_scanned: u64,
    scan_reduction: f64,
    scan_reduction_target: f64,
    answers_match: bool,
    // Phase B: streamed paper-scale end-to-end.
    scale_nodes: u64,
    scale_edges: u64,
    stream_s: f64,
    snapshot_bytes: u64,
    load_s: f64,
    answer_termination: String,
    answer_s: f64,
    e2e_ok: bool,
    within_target: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "results/BENCH_kernels.json".to_string();
    let mut scale = 0.2f64;
    let mut scale_nodes = 1_000_000u64;
    let mut pairs_per_source = 64usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out = args[i + 1].clone();
                i += 1;
            }
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(0.2);
                i += 1;
            }
            "--scale-nodes" if i + 1 < args.len() => {
                scale_nodes = args[i + 1].parse().unwrap_or(1_000_000);
                i += 1;
            }
            "--pairs-per-source" if i + 1 < args.len() => {
                pairs_per_source = args[i + 1].parse().unwrap_or(64).max(1);
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_kernels [--out FILE] [--scale F] [--scale-nodes N] \
                     [--pairs-per-source K]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let kernel = active_kernel();
    eprintln!(
        "kernel: {} (avx2 available: {})",
        kernel.as_str(),
        Kernel::Avx2.available()
    );

    // ---- Phase A: entries scanned, pairwise vs batched. ----
    let graph = wqe_datagen::dbpedia_like(scale, 33);
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    let pll = PllIndex::build(&graph);
    eprintln!(
        "phase A: dbpedia-like at scale {scale} ({nodes} nodes, {edges} edges), \
         {} label entries",
        pll.label_entries()
    );

    // The batch shape the engine produces (opsgen's AddE witness scoring,
    // the matcher's candidate sweeps): many targets per source.
    let n = nodes as u32;
    let sources = (n / 13).clamp(1, 128);
    let bound = 6u32;
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for s in 0..sources {
        let src = NodeId((s * 13) % n);
        for t in 0..pairs_per_source as u32 {
            pairs.push((src, NodeId((s * 31 + t * 17 + 1) % n)));
        }
    }

    let point_profiler = std::sync::Arc::new(Profiler::new());
    let point_answers: Vec<Option<u32>> = {
        let _scope = enter(std::sync::Arc::clone(&point_profiler));
        pairs
            .iter()
            .map(|&(u, v)| pll.distance_within(u, v, bound))
            .collect()
    };
    let point_scanned = point_profiler.counter(Counter::OracleLabelEntries);

    let batch_profiler = std::sync::Arc::new(Profiler::new());
    let batch_answers: Vec<Option<u32>> = {
        let _scope = enter(std::sync::Arc::clone(&batch_profiler));
        pll.dist_batch(&pairs, bound)
    };
    let batch_scanned = batch_profiler.counter(Counter::OracleLabelEntries);

    let answers_match = point_answers == batch_answers;
    let scan_reduction = point_scanned as f64 / (batch_scanned.max(1)) as f64;
    let scan_reduction_target = 2.0;
    eprintln!(
        "phase A: {} pairs ({} sources x {}): pairwise scanned {} entries, \
         batched scanned {} => {:.2}x reduction (target >= {:.1}x, answers match: {})",
        pairs.len(),
        sources,
        pairs_per_source,
        point_scanned,
        batch_scanned,
        scan_reduction,
        scan_reduction_target,
        answers_match,
    );

    // ---- Phase B: streamed paper-scale end-to-end. ----
    let snap_path =
        std::env::temp_dir().join(format!("wqe-bench-kernels-{}.wqs", std::process::id()));
    let t0 = Instant::now();
    let report = stream_snapshot(&ScaleConfig::new(scale_nodes, 7), &snap_path)
        .expect("stream paper-scale snapshot");
    let stream_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "phase B: streamed {} nodes / {} edges ({} bytes) in {stream_s:.1} s",
        report.nodes, report.edges, report.bytes
    );

    let t0 = Instant::now();
    let ctx = EngineCtx::from_snapshot(&snap_path).expect("open streamed snapshot");
    let load_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "phase B: loaded into an EngineCtx in {load_s:.1} s ({} nodes)",
        ctx.graph().node_count()
    );

    let (answer_termination, answer_s, e2e_ok) = answer_at_scale(&ctx);
    eprintln!(
        "phase B: answered in {answer_s:.1} s (termination: {answer_termination}, ok: {e2e_ok})"
    );
    std::fs::remove_file(&snap_path).ok();

    let within_target = scan_reduction >= scan_reduction_target && answers_match && e2e_ok;
    eprintln!("overall: {}", if within_target { "PASS" } else { "FAIL" });

    let report = BenchKernels {
        kernel: kernel.as_str(),
        avx2_available: Kernel::Avx2.available(),
        nodes,
        edges,
        sources: sources as usize,
        pairs: pairs.len(),
        bound,
        point_entries_scanned: point_scanned,
        batch_entries_scanned: batch_scanned,
        scan_reduction,
        scan_reduction_target,
        answers_match,
        scale_nodes: report.nodes,
        scale_edges: report.edges,
        stream_s,
        snapshot_bytes: report.bytes,
        load_s,
        answer_termination,
        answer_s,
        e2e_ok,
        within_target,
    };
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("create output dir");
    }
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write report");
    eprintln!("wrote {out}");
    if !within_target {
        std::process::exit(1);
    }
}

/// Generates a why-question on the loaded scale graph and answers it under
/// a governor deadline. Returns `(termination, seconds, ok)` where `ok`
/// means the full chain produced a report — at this size any governed
/// termination (`complete`, `deadline`, step cap) counts; a panic or error
/// does not.
fn answer_at_scale(ctx: &EngineCtx) -> (String, f64, bool) {
    let graph = ctx.graph();
    let truth = (0..32u64)
        .find_map(|s| {
            generate_query(
                graph,
                &QueryGenConfig {
                    edges: 2,
                    seed: 100 + s,
                    ..Default::default()
                },
            )
        })
        .expect("a 2-edge query grows somewhere in a million nodes");
    let exemplar = exemplar_from(graph, &[truth.anchor], 3);
    let wq = WhyQuestion {
        query: truth.query,
        exemplar,
    };
    let cfg = WqeConfig {
        budget: 2.0,
        deadline_ms: 20_000.0,
        time_limit_ms: Some(20_000),
        relevance_sample: 16,
        ..Default::default()
    };
    let t0 = Instant::now();
    match WqeEngine::try_new(ctx.clone(), wq, cfg) {
        Ok(engine) => match engine.try_run(Algorithm::AnsHeu) {
            Ok(report) => (
                report.termination.to_string(),
                t0.elapsed().as_secs_f64(),
                true,
            ),
            Err(e) => (format!("error: {e}"), t0.elapsed().as_secs_f64(), false),
        },
        Err(e) => (format!("error: {e}"), t0.elapsed().as_secs_f64(), false),
    }
}
