//! `live-mix`: reads beside writes on a DBpedia-like graph of 4,000
//! nodes. One closed-loop reader streams `/v1/why` answers, alternating
//! fresh questions with repeats from a small hot pool, each pinned to the
//! newest epoch it knows of. One open-loop writer posts seeded
//! `/v1/graph/update` batches at a fixed rate: edge inserts (index
//! repaired in place), a delete and an attribute set (delta overlay), and
//! the overlays that follow until repair debt forces a full PLL rebuild.
//! A read-path gain that costs publishes or cache carry-over shows here.

use crate::common::{self, store_ctx, timed_setups, Sample, Window};
use crate::inputs::{body, splitmix64, why_suite, work_path, Suite};
use crate::layers::Layers;
use crate::stats::{median, quantile};
use crate::trace::{ns_of, Recorder};
use crate::{client, Args, Outcome};
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wqe_core::{GraphStore, WhyQuestion};
use wqe_graph::{AttrValue, Graph, GraphUpdate, NodeId};
use wqe_index::{DistanceOracle, HybridOracle, PllIndex};

/// `dbpedia_like` at this scale has 4,000 nodes.
const SCALE: f64 = 0.1;
/// The graph and the writer's batches are the same for every `--seed`,
/// which draws the questions: as on `cold-why`, graph structure moves the
/// rates more than a run-to-run spread may, and so did the batches (which
/// edges an insert adds decides how much repair grows the labels).
const GRAPH_SEED: u64 = 7;
/// Repeat questions, drawn uniformly; every other read is one of them.
/// They are the first candidates whose warm-up answer completed: a
/// step-capped answer is never cached, so repeating it would measure one
/// heavy question over and over.
const HOT: usize = 16;
/// Candidates tried for the repeat pool.
const HOT_CANDIDATES: usize = 48;
/// Fresh questions generated per second of window. The reader asks
/// about 270 questions a second on a 2-core host, half of them fresh, so
/// this leaves almost twice the headroom; a run that exhausts the fresh
/// questions ends its read window early and says so (fresh questions are
/// never asked twice).
const FRESH_PER_SECOND: f64 = 250.0;
/// Deterministic match-step cap per question. Lower than on `cold-why`:
/// here the subject is reads beside writes, and a rare heavy question
/// (a second or more under an overlay oracle) would otherwise decide a
/// window's read rate.
const STEP_CAP: u64 = 10_000;
/// Time slices for the tail (see `common::summarize`).
const TAIL_SLICES: usize = 5;
/// Set-ups per run (a PLL build of about a second each); `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;
/// Tail percentile of the reads: the highest with at least 10 samples
/// beyond it in each time slice (a slice holds several hundred reads).
const TAIL_Q: f64 = 0.9;
/// Publishes per second (open loop).
const PUBLISH_RATE: f64 = 6.0;
/// Tail percentile of the publishes (about 120 a run: 12 beyond p90).
const PUBLISH_TAIL_Q: f64 = 0.9;
/// Batches per writer cycle. Position `DELETE_AT` deletes an edge and the
/// next sets an attribute; both take the overlay tier, the two inserts
/// after them stay on it (no repairable index under an overlay), and the
/// fifth batch finds the repair debt at its limit and rebuilds. A rebuild
/// takes both cores for a second or more and slows every read beside it,
/// so a long cycle keeps it to one per window of 15 s: more would make
/// the read metrics swing with how long rebuilds take on a noisy host.
const CYCLE: usize = 120;
const DELETE_AT: usize = 20;
/// Reads whose answers are checked, spread evenly over the window.
const CHECKS: usize = 48;
/// PLL build threads, as `GraphStore` uses them.
const BUILD_THREADS: usize = 4;

/// The writer's batches, as wire JSON and as the updates the store
/// applies (built independently, so the answer check also catches a
/// wire-format mismatch).
struct Plan {
    bodies: Vec<String>,
    updates: Vec<Vec<GraphUpdate>>,
}

fn plan(graph: &Graph, seed: u64, n: usize) -> Plan {
    let nodes = graph.node_count() as u64;
    let mut state = splitmix64(seed ^ 0x5752_4954_4552); // "WRITER"
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let mut deleted = HashSet::new();
    let (mut bodies, mut updates) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for k in 0..n {
        let (ops, ups): (Vec<Value>, Vec<GraphUpdate>) = match k % CYCLE {
            DELETE_AT => loop {
                let u = NodeId((next() % nodes) as u32);
                let out = graph.out_neighbors(u);
                if out.is_empty() {
                    continue;
                }
                let v = out[(next() % out.len() as u64) as usize].0;
                if u != v && deleted.insert((u, v)) {
                    break (
                        vec![json!({ "op": "delete_edge", "from": u.0, "to": v.0 })],
                        vec![GraphUpdate::DeleteEdge { from: u, to: v }],
                    );
                }
            },
            p if p == DELETE_AT + 1 => loop {
                let u = NodeId((next() % nodes) as u32);
                let int_attr = graph.node(u).attrs.iter().find_map(|(a, v)| match v {
                    AttrValue::Int(i) => Some((*a, *i)),
                    _ => None,
                });
                if let Some((a, i)) = int_attr {
                    let name = graph.schema().attr_name(a).to_string();
                    let value = i + 1 + (next() % 100) as i64;
                    break (
                        vec![
                            json!({ "op": "set_attr", "node": u.0, "attr": name, "value": value }),
                        ],
                        vec![GraphUpdate::SetAttr {
                            node: u,
                            attr: name,
                            value: Some(AttrValue::Int(value)),
                        }],
                    );
                }
            },
            _ => (0..2)
                .map(|_| loop {
                    let u = NodeId((next() % nodes) as u32);
                    let v = NodeId((next() % nodes) as u32);
                    if u != v {
                        break (
                            json!({ "op": "insert_edge", "from": u.0, "to": v.0, "label": "live" }),
                            GraphUpdate::InsertEdge {
                                from: u,
                                to: v,
                                label: "live".into(),
                            },
                        );
                    }
                })
                .unzip(),
        };
        bodies.push(json!({ "updates": ops }).to_string());
        updates.push(ups);
    }
    Plan { bodies, updates }
}

/// One publish as the writer saw it.
struct Publish {
    /// Due time to response, milliseconds.
    latency_ms: f64,
    /// How late the request left relative to its due time.
    lag_ms: f64,
    ok: bool,
    no_op: bool,
    epoch: u64,
    tier: String,
    star_evicted: f64,
}

struct Run {
    reads: Window,
    publishes: Vec<Publish>,
    epochs_live_max: f64,
}

/// Asks the repeat candidates once, before any write, and returns the
/// first [`HOT`] whose answer completed.
fn warm_up(addr: SocketAddr, docs: &[Value]) -> Result<Vec<usize>, String> {
    let mut hot = Vec::with_capacity(HOT);
    for (i, doc) in docs.iter().enumerate().take(HOT_CANDIDATES) {
        let t = Instant::now();
        let reply = client::exchange(addr, "POST", "/v1/why", &body(doc, &[]));
        let s = Sample::new(i, None, t.elapsed(), reply);
        if s.ok && s.termination == "complete" {
            hot.push(i);
            if hot.len() == HOT {
                return Ok(hot);
            }
        }
    }
    Err(format!(
        "only {} of {HOT_CANDIDATES} repeat candidates completed",
        hot.len()
    ))
}

/// Runs the reader and the writer side by side for `seconds`. Even reads
/// ask the next fresh question (indices from [`HOT_CANDIDATES`] on), odd
/// reads a uniformly drawn repeat from `hot`. The reader stops early when
/// the fresh questions run out.
fn mixed_window(
    addr: SocketAddr,
    suite_docs: &[Value],
    hot: &[usize],
    plan: &Plan,
    seed: u64,
    seconds: f64,
) -> Run {
    let latest = AtomicU64::new(0);
    let window = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let period = Duration::from_secs_f64(1.0 / PUBLISH_RATE);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut publishes = Vec::new();
            let mut live_max = 0.0f64;
            for (k, batch) in plan.bodies.iter().enumerate() {
                let due = t0 + period * k as u32;
                if due >= t0 + window {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let lag_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                let reply = client::exchange(addr, "POST", "/v1/graph/update", batch);
                let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                let (ok, body) = match reply {
                    Ok(r) => (r.status == 200, r.body),
                    Err(_) => (false, Value::Null),
                };
                let epoch = body.get("epoch").and_then(Value::as_u64).unwrap_or(0);
                if ok {
                    latest.store(epoch, Ordering::SeqCst);
                }
                publishes.push(Publish {
                    latency_ms,
                    lag_ms,
                    ok,
                    no_op: body.get("no_op").and_then(Value::as_bool).unwrap_or(false),
                    epoch,
                    tier: body
                        .get("tier")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    star_evicted: client::num(&body, "star_evicted"),
                });
                if k % 10 == 9 {
                    if let Ok((200, v)) = client::get_json(addr, "/v1/epochs") {
                        let live = v.get("epochs").and_then(Value::as_array).map_or(0, |es| {
                            es.iter()
                                .filter(|e| e.get("live").and_then(Value::as_bool) == Some(true))
                                .count()
                        });
                        live_max = live_max.max(live as f64);
                    }
                }
            }
            (publishes, live_max)
        });
        let reads = common::closed_loop(1, window, |_, k, t0| {
            let q = if k % 2 == 0 {
                let q = HOT_CANDIDATES + k / 2;
                if q == suite_docs.len() {
                    eprintln!(
                        "note: live-mix ran out of fresh questions after {:.1} s",
                        t0.elapsed().as_secs_f64()
                    );
                    return None;
                }
                q
            } else {
                hot[(splitmix64(seed ^ splitmix64(k as u64)) % hot.len() as u64) as usize]
            };
            let epoch = latest.load(Ordering::SeqCst);
            let b = body(
                &suite_docs[q],
                &[("stream", json!(true)), ("epoch", json!(epoch))],
            );
            let start = t0.elapsed();
            Some(Sample::new(
                q,
                Some(epoch),
                start,
                client::exchange(addr, "POST", "/v1/why", &b),
            ))
        });
        let (publishes, epochs_live_max) = writer.join().expect("writer thread panicked");
        Run {
            reads,
            publishes,
            epochs_live_max,
        }
    })
}

/// Checks an even sample of the reads against exact references computed
/// on each read's epoch graph, rebuilt by replaying the accepted batches.
/// Returns `(checked, mismatches)`.
fn check_reads(
    base: &Arc<Graph>,
    questions: &[WhyQuestion],
    plan: &Plan,
    run: &Run,
) -> Result<(usize, usize), String> {
    let ok: Vec<&Sample> = run.reads.samples.iter().filter(|s| s.ok).collect();
    let step = ok.len().div_ceil(CHECKS).max(1);
    let mut by_epoch: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in ok.iter().step_by(step) {
        by_epoch.entry(s.epoch.unwrap_or(0)).or_default().push(s);
    }
    let mut graph = Arc::clone(base);
    let mut epoch = 0u64;
    let mut batches = plan.updates.iter().zip(&run.publishes);
    let (mut checked, mut mismatches) = (0, 0);
    for (&want, samples) in &by_epoch {
        while epoch < want {
            let (updates, p) = batches
                .next()
                .ok_or_else(|| format!("epoch {want} was never published"))?;
            if !p.ok {
                continue;
            }
            if !p.no_op {
                let (g, _) = graph.apply_updates(updates).map_err(|e| e.to_string())?;
                graph = Arc::new(g);
                epoch = p.epoch;
            }
        }
        let qs: Vec<&WhyQuestion> = samples.iter().map(|s| &questions[s.question]).collect();
        let reference = common::references(&graph, &qs, STEP_CAP)?;
        for (s, r) in samples.iter().zip(&reference) {
            checked += 1;
            if s.fingerprint != r.fingerprint {
                mismatches += 1;
            }
        }
    }
    Ok((checked, mismatches))
}

fn publish_summary(layers: &mut Layers, run: &Run) {
    let lat: Vec<f64> = run
        .publishes
        .iter()
        .filter(|p| p.ok)
        .map(|p| p.latency_ms)
        .collect();
    let tier = |name: &str| run.publishes.iter().filter(|p| p.tier == name).count() as f64;
    layers.set("live.tier.repaired-pll", tier("repaired-pll"));
    layers.set("live.tier.overlay", tier("overlay"));
    layers.set("live.tier.rebuilt-pll", tier("rebuilt-pll"));
    layers.set(
        "live.star_evicted_total",
        run.publishes.iter().map(|p| p.star_evicted).sum(),
    );
    layers.set("live.epochs_live_max", run.epochs_live_max);
    layers.set("live.publish_ms_p50", median(&lat));
    layers.set("live.publish_ms_tail", quantile(&lat, PUBLISH_TAIL_Q));
    layers.set(
        "harness.writer_lag_ms_max",
        run.publishes.iter().map(|p| p.lag_ms).fold(0.0, f64::max),
    );
}

/// The graph and the question suite of `--seed`.
fn inputs(a: &Args) -> Result<(Arc<Graph>, Suite), String> {
    let graph = Arc::new(wqe_datagen::dbpedia_like(SCALE, GRAPH_SEED));
    let count = HOT_CANDIDATES + (a.seconds * FRESH_PER_SECOND).ceil() as usize;
    let oracle = || -> Arc<dyn DistanceOracle> { Arc::new(HybridOracle::default_for(&graph, 4)) };
    let suite = why_suite("live-mix", &graph, oracle, a.seed, count)?;
    Ok((graph, suite))
}

/// Generates and caches the inputs (run in a child process, so that
/// generation memory stays out of the measured process's `peak_rss_mb`).
pub fn prepare(a: &Args) -> Result<(), String> {
    inputs(a).map(drop)
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let (graph, suite) = inputs(a)?;
    let plan = plan(
        &graph,
        GRAPH_SEED,
        (a.seconds * PUBLISH_RATE).ceil() as usize + 1,
    );

    let (server, setup_s) = timed_setups(SETUP_REPS, || {
        Ok(store_ctx(
            Arc::new(GraphStore::new(Arc::clone(&graph))),
            1,
            STEP_CAP,
        ))
    })?;
    let warm = Instant::now();
    let hot = warm_up(server.addr, &suite.docs)?;
    let warmup_s = warm.elapsed().as_secs_f64();
    let c0 = common::ServiceCounters::fetch(server.addr)?;
    let plain = mixed_window(server.addr, &suite.docs, &hot, &plan, a.seed, a.seconds);
    let c1 = common::ServiceCounters::fetch(server.addr)?;
    let peak_rss_mb = common::peak_rss_mb();
    drop(server);
    let why = common::summarize(&plain.reads, TAIL_Q, TAIL_SLICES);

    let mut layers = Layers::default();
    layers.set("harness.warmup_s", warmup_s);
    publish_summary(&mut layers, &plain);
    let extra = [
        ("publish_p50_ms", "live.publish_ms_p50"),
        ("publish_tail_ms", "live.publish_ms_tail"),
    ]
    .map(|(name, layer)| (name.to_string(), layers.get(layer), "ms".to_string()))
    .to_vec();
    let mut runs = vec![plain];
    if a.trace {
        let t = Instant::now();
        let pll = PllIndex::build_with(&graph, BUILD_THREADS);
        layers.set("index.build_s", t.elapsed().as_secs_f64());
        layers.set("index.label_entries", pll.stats().total_entries as f64);
        drop(pll);
        // The store builds its own oracles on every publish, so there is
        // no timing delegate here: the traced window records the client
        // and envelope spans, and reads the star cache's counters (which
        // each publish carries over to the next epoch's cache).
        let store = Arc::new(GraphStore::new(Arc::clone(&graph)));
        let server = common::serve(store_ctx(Arc::clone(&store), 1, STEP_CAP))?;
        let hot = warm_up(server.addr, &suite.docs)?;
        let stars0 = store.pin().ctx().star_cache().stats();
        let c0 = common::ServiceCounters::fetch(server.addr)?;
        let traced = mixed_window(server.addr, &suite.docs, &hot, &plan, a.seed, a.seconds);
        layers.service(common::ServiceCounters::fetch(server.addr)?.minus(c0));
        layers.star_cache(stars0, store.pin().ctx().star_cache().stats());
        drop(server);
        publish_summary(&mut layers, &traced);
        let mut rec = Recorder::default();
        layers.record_samples(
            &traced.reads.samples,
            ns_of(traced.reads.t0),
            TAIL_Q,
            None,
            &mut rec,
        );
        let traced_qps = common::summarize(&traced.reads, TAIL_Q, TAIL_SLICES).qps;
        layers.set(
            "harness.tracing_overhead_share",
            1.0 - crate::stats::ratio(traced_qps, why.qps),
        );
        rec.write(&work_path(&format!("trace-live-mix-s{}.jsonl", a.seed))?)
            .map_err(|e| format!("write trace: {e}"))?;
        runs.push(traced);
    } else {
        layers.service(c1.minus(c0));
    }

    let (mut attempted, mut failed, mut checked, mut mismatches) = (0u64, 0u64, 0, 0);
    for r in &runs {
        let (c, m) = check_reads(&graph, &suite.questions, &plan, r)?;
        checked += c;
        mismatches += m;
        attempted += (r.reads.samples.len() + r.publishes.len()) as u64;
        failed += r.reads.samples.iter().filter(|s| !s.ok).count() as u64;
        failed += r.publishes.iter().filter(|p| !p.ok).count() as u64;
    }
    failed += mismatches as u64;
    let roundtrip_bad = {
        let refs: Vec<&WhyQuestion> = suite.questions[..3].iter().collect();
        let reference = common::references(&graph, &refs, STEP_CAP)?;
        common::roundtrip_mismatches(&graph, &suite.docs[..3], &reference, STEP_CAP)?
    };
    eprintln!(
        "live-mix: {checked} reads checked, {mismatches} answer mismatches, {roundtrip_bad} round-trip mismatches; tiers repaired/overlay/rebuilt {}/{}/{}",
        layers.get("live.tier.repaired-pll"), layers.get("live.tier.overlay"), layers.get("live.tier.rebuilt-pll")
    );
    Ok(Outcome {
        checks_passed: mismatches == 0 && roundtrip_bad == 0,
        attempted,
        failed,
        end_to_end: common::end_to_end(setup_s, &why, peak_rss_mb),
        extra,
        per_layer: layers.metrics(),
    })
}
