//! Intra-query parallelism must never change answers: `answ` and `ans_heu`
//! at any thread count produce byte-identical reports, and the rank-windowed
//! parallel PLL build answers exactly like sequential construction. The PLL
//! label sets themselves (sequential, windowed, repaired) are pinned by
//! fingerprint, so a faster pruning test cannot silently change the index.
//!
//! The search trajectory is a function of `WqeConfig::frontier_batch` alone;
//! `parallelism` only decides how many workers evaluate each batch. These
//! tests pin that contract across paper and generated workloads.

use std::sync::Arc;
use wqe::core::{EngineCtx, Session, WhyQuestion, WqeConfig};
use wqe::datagen::{
    dbpedia_like, generate_query, generate_why, imdb_like, QueryGenConfig, TopologyKind,
    WhyGenConfig,
};
use wqe::graph::{GraphUpdate, NodeId};
use wqe::index::{repair_insertions, BoundedBfsOracle, DistanceOracle, HybridOracle, PllIndex};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A comparable summary of a full report: the best rewrite plus the whole
/// top-k list, with float fields compared bit-exactly.
fn fingerprint(report: &wqe::core::AnswerReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    fn push(out: &mut String, r: &wqe::core::RewriteResult) {
        let _ = write!(
            out,
            "[{:x}/{:x}/{:?}/{:?}/{}]",
            r.closeness.to_bits(),
            r.cost.to_bits(),
            r.ops,
            r.matches,
            r.satisfies
        );
    }
    match &report.best {
        None => out.push_str("none"),
        Some(b) => push(&mut out, b),
    }
    for r in &report.top_k {
        push(&mut out, r);
    }
    let _ = write!(out, "|opt={}", report.optimal_reached);
    out
}

fn generated_questions(
    graph: &Arc<wqe::graph::Graph>,
    oracle: &Arc<dyn DistanceOracle>,
    n: usize,
) -> Vec<WhyQuestion> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    while out.len() < n && seed < 200 {
        seed += 1;
        let qcfg = QueryGenConfig {
            edges: 2,
            seed,
            topology: TopologyKind::Star,
            ..Default::default()
        };
        if let Some(truth) = generate_query(graph, &qcfg) {
            let wcfg = WhyGenConfig {
                seed: seed * 13,
                ..Default::default()
            };
            if let Some(gw) = generate_why(graph, oracle, &truth, &wcfg) {
                out.push(gw.question);
            }
        }
    }
    out
}

fn config(parallelism: usize) -> WqeConfig {
    WqeConfig {
        budget: 3.0,
        max_expansions: 300,
        top_k: 3,
        parallelism,
        ..Default::default()
    }
}

#[test]
fn answ_identical_across_thread_counts_paper_scenario() {
    let graph = Arc::new(wqe::graph::product::product_graph().graph);
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let wq = wqe::core::paper::paper_question(&graph);
    let runs: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let session = Session::new(
                ctx.clone(),
                &wq,
                WqeConfig {
                    budget: 4.0,
                    top_k: 3,
                    parallelism: t,
                    ..Default::default()
                },
            );
            fingerprint(&wqe::core::answ(&session, &wq))
        })
        .collect();
    assert_eq!(runs[0], runs[1], "parallelism 1 vs 2 diverged");
    assert_eq!(runs[0], runs[2], "parallelism 1 vs 8 diverged");
}

#[test]
fn answ_identical_across_thread_counts_generated_workload() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(HybridOracle::default_for(&graph, 4));
    let qs = generated_questions(&graph, &oracle, 4);
    assert!(qs.len() >= 2, "suite too small");
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));

    for wq in &qs {
        let runs: Vec<String> = THREAD_COUNTS
            .iter()
            .map(|&t| {
                let session = Session::new(ctx.clone(), wq, config(t));
                fingerprint(&wqe::core::answ(&session, wq))
            })
            .collect();
        assert_eq!(runs[0], runs[1], "parallelism 1 vs 2 diverged");
        assert_eq!(runs[0], runs[2], "parallelism 1 vs 8 diverged");
    }
}

#[test]
fn ans_heu_identical_across_thread_counts() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(HybridOracle::default_for(&graph, 4));
    let qs = generated_questions(&graph, &oracle, 3);
    assert!(!qs.is_empty());
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));

    for wq in &qs {
        for selection in [wqe::core::Selection::Picky, wqe::core::Selection::Random(7)] {
            let runs: Vec<String> = THREAD_COUNTS
                .iter()
                .map(|&t| {
                    let session = Session::new(ctx.clone(), wq, config(t));
                    fingerprint(&wqe::core::ans_heu(&session, wq, Some(3), selection))
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{selection:?}: parallelism 1 vs 2");
            assert_eq!(runs[0], runs[2], "{selection:?}: parallelism 1 vs 8");
        }
    }
}

#[test]
fn parallel_pll_build_matches_bfs_and_is_thread_count_invariant() {
    let graph = dbpedia_like(0.03, 4);
    let arc = Arc::new(graph.clone());
    let bfs = BoundedBfsOracle::new(Arc::clone(&arc), u32::MAX);

    let builds: Vec<PllIndex> = THREAD_COUNTS
        .iter()
        .map(|&t| PllIndex::build_with(&graph, t))
        .collect();
    // Same window size => identical labels regardless of thread count.
    let serialized: Vec<String> = builds
        .iter()
        .map(|i| serde_json::to_string(i).expect("serializable"))
        .collect();
    assert_eq!(serialized[0], serialized[1]);
    assert_eq!(serialized[0], serialized[2]);

    // And the answers are exact (spot-check against an uncapped BFS).
    let nodes: Vec<_> = graph.node_ids().collect();
    for (i, &u) in nodes.iter().enumerate().step_by(7) {
        for &v in nodes.iter().skip(i % 3).step_by(11) {
            assert_eq!(
                builds[0].distance(u, v),
                bfs.distance_within(u, v, u32::MAX),
                "{u:?}->{v:?}"
            );
        }
    }
}

/// Entry counts plus an FNV-1a hash over the six flat label arrays (each
/// prefixed by its length): equal fingerprints mean equal labels, entry
/// for entry, not just equal answers.
fn label_fingerprint(index: &PllIndex) -> String {
    let p = index.to_parts();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for array in [
        &p.out_offsets,
        &p.out_ranks,
        &p.out_dists,
        &p.in_offsets,
        &p.in_ranks,
        &p.in_dists,
    ] {
        for word in std::iter::once(array.len() as u32).chain(array.iter().copied()) {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!(
        "out={} in={} fnv={h:016x}",
        p.out_ranks.len(),
        p.in_ranks.len()
    )
}

/// A fixed batch of new edges `i -> (7i + 3) mod n` for every 97th node,
/// skipping self-loops (idempotent inserts of existing edges are no-ops).
fn fixed_insert_batch(n: usize) -> Vec<GraphUpdate> {
    (0..n)
        .step_by(97)
        .filter(|&i| (7 * i + 3) % n != i)
        .map(|i| GraphUpdate::InsertEdge {
            from: NodeId(i as u32),
            to: NodeId(((7 * i + 3) % n) as u32),
            label: "pinned".to_string(),
        })
        .collect()
}

/// Pins the PLL label set itself — sequential build, windowed build at 1,
/// 2 and 4 threads, and incremental repair after a fixed insert batch —
/// to fingerprints recorded on fixed generated graphs. Any change to how
/// the pruned BFS certifies a visit that keeps or drops a single entry
/// fails here, even when every answered distance stays exact.
#[test]
fn pll_labels_pinned_across_build_and_repair() {
    let cases = [
        (
            "dbpedia_like(0.02, 4)",
            dbpedia_like(0.02, 4),
            [
                "out=29852 in=23346 fnv=4bae0534824ef28c",
                "out=43505 in=35436 fnv=026c5dd430cd36f1",
                "out=43505 in=36618 fnv=4b3d96474ff14fc6",
            ],
        ),
        (
            "imdb_like(0.03, 7)",
            imdb_like(0.03, 7),
            [
                "out=23323 in=17912 fnv=4af5adce254db2b9",
                "out=36638 in=31103 fnv=b5b9f75479128305",
                "out=36638 in=32167 fnv=f4f188f5243cb210",
            ],
        ),
    ];
    for (name, graph, [seq, windowed, repaired]) in cases {
        assert_eq!(
            label_fingerprint(&PllIndex::build(&graph)),
            seq,
            "{name}: build"
        );
        let base = PllIndex::build_with(&graph, 1);
        assert_eq!(label_fingerprint(&base), windowed, "{name}: build_with(1)");
        for threads in [2, 4] {
            let par = PllIndex::build_with(&graph, threads);
            assert_eq!(
                label_fingerprint(&par),
                windowed,
                "{name}: build_with({threads})"
            );
        }
        let (new_graph, delta) = graph
            .apply_updates(&fixed_insert_batch(graph.node_count()))
            .expect("valid batch");
        assert!(
            delta.pure_edge_insert(),
            "{name}: batch must only insert edges"
        );
        let fixed = repair_insertions(&base, &new_graph, &delta.inserted_edges, u64::MAX)
            .expect("unbounded budget always repairs");
        assert_eq!(
            label_fingerprint(&fixed),
            repaired,
            "{name}: repair_insertions"
        );
    }
}
