//! Seeded input generation: why-question suites and the on-disk cache
//! that keeps regenerating them out of repeated runs with the same seed.
//! Everything here runs before set-up and outside every timed window.

use crate::spec;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use wqe_core::WhyQuestion;
use wqe_datagen::{
    generate_query, generate_why, load_suite, save_suite, GeneratedWhy, QueryGenConfig,
    TopologyKind, WhyGenConfig,
};
use wqe_graph::Graph;
use wqe_index::DistanceOracle;

/// Working directory of the benchmark (suite cache, snapshots, traces),
/// relative to where it runs.
pub const WORK_DIR: &str = ".perfbench";

/// Bumped whenever the generator settings below change, so stale cached
/// suites are never reused.
const GENERATOR_VERSION: u32 = 1;

/// Questions a generator may try per question wanted before giving up.
const ATTEMPTS_PER_QUESTION: usize = 40;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Questions and their `/v1/why` bodies, index-aligned.
pub struct Suite {
    pub questions: Vec<WhyQuestion>,
    pub docs: Vec<Value>,
}

pub fn work_path(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    Ok(dir.join(name))
}

/// The why-question for candidate `i` of `seed`, if the generators
/// produce one the spec format can carry: star-shaped ground-truth
/// queries with 2 or 3 edges, disturbed by up to 3 operators.
fn candidate(
    graph: &Arc<Graph>,
    oracle: &Arc<dyn DistanceOracle>,
    seed: u64,
    i: usize,
) -> Option<GeneratedWhy> {
    let key = splitmix64(seed ^ splitmix64(i as u64));
    let qcfg = QueryGenConfig {
        edges: 2 + i % 2,
        seed: key,
        topology: TopologyKind::Star,
        ..Default::default()
    };
    let truth = generate_query(graph, &qcfg)?;
    let wcfg = WhyGenConfig {
        seed: splitmix64(key),
        ..Default::default()
    };
    let gw = generate_why(graph, oracle, &truth, &wcfg)?;
    spec::emit_checked(graph, &gw.question).ok()?;
    Some(gw)
}

fn generate(
    graph: &Arc<Graph>,
    oracle: &Arc<dyn DistanceOracle>,
    seed: u64,
    count: usize,
) -> Result<Vec<GeneratedWhy>, String> {
    let next = AtomicUsize::new(0);
    let found = AtomicUsize::new(0);
    let limit = count * ATTEMPTS_PER_QUESTION;
    let out: Mutex<Vec<(usize, GeneratedWhy)>> = Mutex::new(Vec::new());
    // Candidates are claimed in index order, so the claimed set is always
    // a prefix and the first `count` successes by index do not depend on
    // thread timing.
    std::thread::scope(|s| {
        for _ in 0..crate::common::nproc().clamp(1, 2) {
            s.spawn(|| loop {
                if found.load(Ordering::SeqCst) >= count {
                    break;
                }
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= limit {
                    break;
                }
                if let Some(gw) = candidate(graph, oracle, seed, i) {
                    found.fetch_add(1, Ordering::SeqCst);
                    out.lock().expect("generator thread panicked").push((i, gw));
                }
            });
        }
    });
    let mut out = out.into_inner().expect("generator thread panicked");
    out.sort_by_key(|(i, _)| *i);
    if out.len() < count {
        return Err(format!(
            "generated only {} of {count} questions in {limit} attempts",
            out.len()
        ));
    }
    Ok(out.into_iter().take(count).map(|(_, gw)| gw).collect())
}

fn suite_path(tag: &str, graph: &Graph, seed: u64, count: usize) -> Result<PathBuf, String> {
    work_path(&format!(
        "suite-v{GENERATOR_VERSION}-{tag}-s{seed}-n{count}-g{:016x}.jsonl",
        graph_fingerprint(graph)
    ))
}

fn load_cached(path: &Path, count: usize) -> Option<Vec<GeneratedWhy>> {
    let f = std::fs::File::open(path).ok()?;
    load_suite(std::io::BufReader::new(f))
        .ok()
        .filter(|s| s.len() == count)
}

/// `count` distinct why-questions for `seed` over `graph`, read from the
/// cache when an earlier run with the same seed wrote them; otherwise
/// generated (the generators evaluate candidate queries through the
/// oracle `make_oracle` builds) and cached.
pub fn why_suite(
    tag: &str,
    graph: &Arc<Graph>,
    make_oracle: impl FnOnce() -> Arc<dyn DistanceOracle>,
    seed: u64,
    count: usize,
) -> Result<Suite, String> {
    let path = suite_path(tag, graph, seed, count)?;
    let suite = match load_cached(&path, count) {
        Some(s) => s,
        None => {
            let s = generate(graph, &make_oracle(), seed, count)?;
            let tmp = path.with_extension("tmp");
            let written = std::fs::File::create(&tmp)
                .and_then(|f| {
                    let mut w = std::io::BufWriter::new(f);
                    save_suite(&s, &mut w)?;
                    std::io::Write::flush(&mut w)
                })
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!("note: suite cache not written ({e})");
                let _ = std::fs::remove_file(&tmp);
            }
            s
        }
    };
    into_suite(graph, suite)
}

/// The suite an earlier [`why_suite`] call cached; an error when there is
/// none (this never generates, so generator memory stays out of the
/// calling process).
pub fn cached_suite(tag: &str, graph: &Graph, seed: u64, count: usize) -> Result<Suite, String> {
    let path = suite_path(tag, graph, seed, count)?;
    let suite =
        load_cached(&path, count).ok_or_else(|| format!("no cached suite {}", path.display()))?;
    into_suite(graph, suite)
}

fn into_suite(graph: &Graph, suite: Vec<GeneratedWhy>) -> Result<Suite, String> {
    let mut questions = Vec::with_capacity(suite.len());
    let mut docs = Vec::with_capacity(suite.len());
    for gw in suite {
        docs.push(spec::emit_checked(graph, &gw.question)?);
        questions.push(gw.question);
    }
    Ok(Suite { questions, docs })
}

/// FNV-1a over the graph's labels and edges: a cached suite is only
/// reused for the very graph it was generated on.
fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut words = Vec::with_capacity(2 * graph.node_count() + graph.edge_count());
    for v in 0..graph.node_count() {
        let v = wqe_graph::NodeId(v as u32);
        words.push(u64::from(graph.label(v).0));
        words.push(graph.node(v).attrs.len() as u64);
        for &(t, l) in graph.out_neighbors(v) {
            words.push(u64::from(t.0) << 32 | u64::from(l.0));
        }
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    crate::common::fnv1a(&bytes)
}

/// `doc` with extra top-level keys, serialized as a request body.
pub fn body(doc: &Value, extra: &[(&str, Value)]) -> String {
    let mut v = doc.clone();
    if let Value::Object(m) = &mut v {
        for (k, x) in extra {
            m.insert((*k).to_string(), x.clone());
        }
    }
    v.to_string()
}
