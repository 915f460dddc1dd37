//! Intra-query parallel scaling harness.
//!
//! ```text
//! bench_parallel [--out BENCH_parallel.json] [--scale F] [--queries N]
//! ```
//!
//! Measures the two parallelized hot paths at 1/2/4/8 worker threads:
//!
//! * `answ_batch` — one `AnsW` session per generated why-question with
//!   batched frontier expansion fanned over `WqeConfig::parallelism`
//!   workers (questions themselves run sequentially, so all speedup is
//!   intra-query);
//! * `pll_build` — rank-windowed parallel PLL construction on a synthetic
//!   graph, beside one sequential (window-1) build of the same graph and
//!   the label-entry count of each, so the extra entries the windowed
//!   build keeps (intra-window landmarks cannot prune each other) are
//!   recorded next to the time it saves.
//!
//! Both paths are answer-invariant in the thread count; the harness
//! asserts that (fingerprinting reports / serialized labels) and records
//! the verdict in the JSON, alongside the host's available parallelism —
//! on a single-core host every speedup is necessarily ~1.0x.

use std::time::Instant;
use wqe_bench::runner::{run_algo_concurrent, AlgoSpec, QuestionKind, Workload};
use wqe_core::{AnswerReport, WqeConfig};
use wqe_datagen::{dbpedia_like, generate, QueryGenConfig, SynthConfig, WhyGenConfig};
use wqe_index::PllIndex;

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[derive(serde::Serialize)]
struct Sample {
    threads: usize,
    elapsed_ms: f64,
    speedup_vs_1: f64,
}

#[derive(serde::Serialize)]
struct PathResult {
    path: String,
    answers_identical: bool,
    samples: Vec<Sample>,
}

/// Sequential vs rank-windowed PLL construction on the `pll_build` graph.
#[derive(serde::Serialize)]
struct PllLabels {
    nodes: usize,
    sequential_build_ms: f64,
    sequential_label_entries: usize,
    windowed_label_entries: usize,
}

#[derive(serde::Serialize)]
struct BenchParallel {
    host_available_parallelism: usize,
    results: Vec<PathResult>,
    pll_labels: PllLabels,
}

fn fingerprint(reports: &[AnswerReport]) -> String {
    reports
        .iter()
        .map(|r| match &r.best {
            None => "none".to_string(),
            Some(b) => format!(
                "{:x}/{:x}/{:?}/{:?};",
                b.closeness.to_bits(),
                b.cost.to_bits(),
                b.ops,
                b.matches
            ),
        })
        .collect()
}

fn finish(path: &str, mut samples: Vec<(usize, f64, String)>) -> PathResult {
    let base = samples
        .first()
        .map(|&(_, ms, _)| ms)
        .unwrap_or(f64::NAN)
        .max(1e-9);
    let reference = samples
        .first()
        .map(|(_, _, f)| f.clone())
        .unwrap_or_default();
    let answers_identical = samples.iter().all(|(_, _, f)| *f == reference);
    PathResult {
        path: path.to_string(),
        answers_identical,
        samples: samples
            .drain(..)
            .map(|(threads, elapsed_ms, _)| Sample {
                threads,
                elapsed_ms,
                speedup_vs_1: base / elapsed_ms.max(1e-9),
            })
            .collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_parallel.json".to_string();
    let mut scale = 1.0f64;
    let mut queries = 6usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out = args[i + 1].clone();
                i += 1;
            }
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(1.0);
                i += 1;
            }
            "--queries" if i + 1 < args.len() => {
                queries = args[i + 1].parse().unwrap_or(6);
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_parallel [--out FILE] [--scale F] [--queries N]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("host available parallelism: {host}");

    // --- Hot path 1: batched AnsW frontier expansion. ---
    let wl = Workload::build(
        "parallel",
        dbpedia_like(0.02 * scale, 21),
        queries,
        &QueryGenConfig {
            edges: 2,
            seed: 21,
            ..Default::default()
        },
        &WhyGenConfig::default(),
        QuestionKind::Why,
    );
    let ctx = wl.ctx(4);
    let mut answ_samples = Vec::new();
    for &threads in &THREADS {
        let cfg = WqeConfig {
            budget: 3.0,
            max_expansions: 150,
            parallelism: threads,
            ..Default::default()
        };
        let t0 = Instant::now();
        let reports = run_algo_concurrent(&wl, &ctx, AlgoSpec::AnsW, &cfg, 1);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        eprintln!("answ_batch  threads={threads}: {ms:.1} ms");
        answ_samples.push((threads, ms, fingerprint(&reports)));
    }

    // --- Hot path 2: rank-windowed PLL construction. ---
    let g = generate(&SynthConfig {
        nodes: (4_000.0 * scale) as usize,
        avg_out_degree: 4.0,
        labels: 8,
        ..Default::default()
    });
    let mut pll_samples = Vec::new();
    let mut windowed_label_entries = 0;
    for &threads in &THREADS {
        let t0 = Instant::now();
        let index = PllIndex::build_with(&g, threads);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        eprintln!("pll_build   threads={threads}: {ms:.1} ms");
        windowed_label_entries = index.label_entries();
        let labels = serde_json::to_string(&index).unwrap_or_default();
        pll_samples.push((threads, ms, labels));
    }
    let t0 = Instant::now();
    let sequential = PllIndex::build(&g);
    let sequential_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let sequential_label_entries = sequential.label_entries();
    eprintln!(
        "pll_build   sequential: {sequential_build_ms:.1} ms, \
         {sequential_label_entries} entries (windowed: {windowed_label_entries})"
    );

    let report = BenchParallel {
        host_available_parallelism: host,
        results: vec![
            finish("answ_batch", answ_samples),
            finish("pll_build", pll_samples),
        ],
        pll_labels: PllLabels {
            nodes: g.node_count(),
            sequential_build_ms,
            sequential_label_entries,
            windowed_label_entries,
        },
    };
    for r in &report.results {
        assert!(
            r.answers_identical,
            "{}: thread count changed answers",
            r.path
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}
