//! The per-layer metrics of a traced run. Each value is recorded by name
//! where it is computed; names and units are declared once, in
//! `BENCHMARK.json`, which the benchmark reads at build time. Every
//! workload reports the full declared set; a layer a workload does not
//! exercise reads 0.

use crate::common::Sample;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{Coverage, Recorder};
use crate::Metrics;
use serde_json::Value;
use std::collections::BTreeMap;

/// The benchmark's declaration: its `end_to_end` and `per_layer` lists
/// name every metric a run reports, with its unit.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// `values` as the metrics `section` of `BENCHMARK.json` declares, in
/// declared order and with declared units; a declared name without a
/// value reads 0.
///
/// # Panics
///
/// When `values` holds a name the section does not declare: a metric
/// recorded under a misspelt name would otherwise read 0 silently.
pub fn declared(section: &str, values: &BTreeMap<&'static str, f64>) -> Metrics {
    let doc: Value = serde_json::from_str(DECLARED).expect("BENCHMARK.json parses");
    let list = doc
        .get(section)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json declares the section");
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let metrics: Metrics = list
        .iter()
        .map(|m| {
            let name = field(m, "name");
            let value = values.get(name.as_str()).copied().unwrap_or(0.0);
            (name, value, field(m, "unit"))
        })
        .collect();
    for name in values.keys() {
        assert!(
            metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} is not declared in BENCHMARK.json {section}"
        );
    }
    metrics
}

/// Per-layer metric values by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every declared per-layer metric.
    pub fn metrics(&self) -> Metrics {
        declared("per_layer", &self.0)
    }
}

impl Layers {
    /// Fills the client-, envelope- and report-derived layers from the
    /// traced window's samples and records one span tree per request:
    /// `client` (timed by the client) over `serve` (client wall minus the
    /// envelope's queue and service times), `queue`, and `service`, which
    /// holds the cache `probe` (service minus engine) and `engine` (the
    /// report's elapsed time), which holds `oracle` (the probes' covered
    /// time inside the client span). Self times are clamped at 0; the
    /// residual that leaves is the `unattributed` share.
    pub fn record_samples(
        &mut self,
        samples: &[Sample],
        window_start_ns: u64,
        tail_q: f64,
        oracle: Option<&Coverage>,
        rec: &mut Recorder,
    ) {
        let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
        let (mut serve, mut queue, mut probe, mut engine) = (vec![], vec![], vec![], vec![]);
        let (mut wall_total, mut attributed, mut serve_total, mut engine_total) =
            (0.0, 0.0, 0.0, 0.0);
        let mut engine_self_total = 0.0;
        for (id, s) in ok.iter().enumerate() {
            let a = window_start_ns + s.start.as_nanos() as u64;
            let b = a + (s.wall_ms * 1e6) as u64;
            rec.client(id, a, b);
            let serve_ms = (s.wall_ms - s.queue_ms - s.service_ms).max(0.0);
            let engine_ms = if s.cache_hit { 0.0 } else { s.engine_ms };
            let probe_ms = (s.service_ms - engine_ms).max(0.0);
            let oracle_ms = oracle.map_or(0.0, |c| c.covered(a, b) as f64 / 1e6);
            let engine_self = (engine_ms - oracle_ms).max(0.0);
            rec.derived("serve", id, "client", serve_ms);
            rec.derived("queue", id, "client", s.queue_ms);
            rec.derived("service", id, "client", s.service_ms);
            rec.derived("probe", id, "service", probe_ms);
            if !s.cache_hit {
                rec.derived("engine", id, "service", engine_ms);
                rec.derived("oracle", id, "engine", oracle_ms);
                engine.push(engine_ms);
            }
            serve.push(serve_ms);
            queue.push(s.queue_ms);
            probe.push(probe_ms);
            wall_total += s.wall_ms;
            serve_total += serve_ms;
            engine_total += engine_ms;
            engine_self_total += engine_self;
            attributed += serve_ms + s.queue_ms + probe_ms + engine_self + oracle_ms;
        }
        let computed: Vec<&&Sample> = ok.iter().filter(|s| !s.cache_hit).collect();
        let per_ok = |f: fn(&Sample) -> f64| mean(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
        self.set("serve.self_ms_p50", median(&serve));
        self.set("serve.self_ms_tail", quantile(&serve, tail_q));
        self.set("serve.resp_bytes_mean", per_ok(|s| s.bytes as f64));
        self.set("serve.sse_events_per_req", per_ok(|s| s.events as f64));
        self.set("serve.wall_share", ratio(serve_total, wall_total));
        self.set("service.queue_ms_p50", median(&queue));
        self.set("service.queue_ms_tail", quantile(&queue, tail_q));
        self.set("service.probe_ms_p50", median(&probe));
        self.set("engine.ms_total", engine_total);
        self.set("engine.ms_p50", median(&engine));
        self.set("engine.self_ms_total", engine_self_total);
        self.set(
            "engine.expansions_total",
            computed.iter().fold(0.0, |t, s| t + s.expansions),
        );
        let capped = computed.iter().filter(|s| s.termination == "step_cap");
        self.set(
            "engine.step_capped_share",
            ratio(capped.count() as f64, computed.len() as f64),
        );
        self.set("engine.wall_share", ratio(engine_total, wall_total));
        self.set(
            "matcher.match_steps_total",
            computed.iter().fold(0.0, |t, s| t + s.match_steps),
        );
        self.set("harness.client_ms_total", wall_total);
        self.set(
            "harness.unattributed_share",
            ratio(wall_total - attributed, wall_total),
        );
    }

    /// Fills the oracle and pool layers from the timing delegate's log:
    /// the work done since `since`.
    pub fn record_oracle(&mut self, log: &crate::trace::OracleLog, since: crate::trace::Mark) {
        let now = log.mark();
        let pairs = (now.pairs - since.pairs) as f64;
        let scanned = now.label_entries.saturating_sub(since.label_entries) as f64;
        let pool_runs = now.pool_runs.saturating_sub(since.pool_runs) as f64;
        let pool_tasks = now.pool_tasks.saturating_sub(since.pool_tasks) as f64;
        self.set("oracle.calls_total", (now.calls - since.calls) as f64);
        self.set("oracle.pairs_total", pairs);
        self.set(
            "oracle.ms_total",
            (now.busy_ns - since.busy_ns) as f64 / 1e6,
        );
        self.set("oracle.label_entries_scanned", scanned);
        self.set("oracle.entries_per_pair", ratio(scanned, pairs));
        self.set(
            "oracle.scratch_fallbacks",
            now.scratch_fallbacks
                .saturating_sub(since.scratch_fallbacks) as f64,
        );
        self.set("pool.runs_total", pool_runs);
        self.set("pool.tasks_per_run", ratio(pool_tasks, pool_runs));
    }

    /// Star-cache hit ratio between two readings of the cache's counters.
    pub fn star_cache(&mut self, before: wqe_query::CacheStats, after: wqe_query::CacheStats) {
        let hits = after.hits.saturating_sub(before.hits) as f64;
        let misses = after.misses.saturating_sub(before.misses) as f64;
        self.set("matcher.star_cache_hit_ratio", ratio(hits, hits + misses));
    }

    /// Answer-cache and failure counters from the service's own stats.
    pub fn service(&mut self, delta: crate::common::ServiceCounters) {
        let lookups = delta.answer_cache_hits + delta.answer_cache_misses;
        self.set(
            "service.answer_cache_hit_ratio",
            ratio(delta.answer_cache_hits, lookups),
        );
        self.set(
            "service.answer_cache_evictions",
            delta.answer_cache_evictions,
        );
        self.set("service.retries", delta.retries);
        self.set("service.shed_or_rejected", delta.shed + delta.rejected);
    }
}
