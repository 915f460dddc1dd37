//! Tracing for the per-layer run, all from outside the program: an
//! oracle delegate that times every distance probe, a span recorder kept
//! in memory and written out at the end, and the self-time arithmetic.
//!
//! [`TimedOracle`] wraps the oracle a context would use and implements
//! the same `DistanceOracle` trait, so answers are unchanged. Besides
//! timing, it notes the per-query profiler the engine has in scope when
//! it probes (`wqe_pool::obs::current`), which is how the run reads the
//! engine's own matcher, pool and label-scan counters: those live in
//! per-query profiles that the HTTP response does not carry.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use wqe_graph::NodeId;
use wqe_index::DistanceOracle;
use wqe_pool::obs::{self, Counter, Profiler};

/// Probes closer together than this on one thread are merged into one
/// interval, which bounds the memory of the interval log.
const MERGE_GAP_NS: u64 = 2_000;

fn clock() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace clock started.
pub fn now_ns() -> u64 {
    clock().elapsed().as_nanos() as u64
}

pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(clock()).as_nanos() as u64
}

/// What one probing thread logged. Each thread owns its log (the mutex
/// is only ever contended by [`OracleLog::mark`]), so the pool's threads
/// do not fight over shared counters on every probe.
#[derive(Default)]
struct ThreadLog {
    calls: u64,
    pairs: u64,
    busy_ns: u64,
    /// Probe intervals, sorted and disjoint.
    intervals: Vec<(u64, u64)>,
}

type SharedLog = Arc<Mutex<ThreadLog>>;

/// Everything the delegate records.
#[derive(Default)]
pub struct OracleLog {
    threads: Mutex<Vec<SharedLog>>,
    /// Per-query profilers seen in scope during probes.
    profilers: Mutex<Vec<Arc<Profiler>>>,
}

thread_local! {
    static THREAD_LOG: std::cell::RefCell<Option<SharedLog>> =
        const { std::cell::RefCell::new(None) };
    static LAST_PROFILER: Cell<usize> = const { Cell::new(0) };
}

impl OracleLog {
    fn record(&self, start: u64, end: u64, pairs: u64) {
        THREAD_LOG.with(|slot| {
            let mut slot = slot.borrow_mut();
            let log = slot.get_or_insert_with(|| {
                let log = SharedLog::default();
                self.threads
                    .lock()
                    .expect("trace lock poisoned")
                    .push(Arc::clone(&log));
                log
            });
            let mut log = log.lock().expect("trace lock poisoned");
            log.calls += 1;
            log.pairs += pairs;
            log.busy_ns += end - start;
            match log.intervals.last_mut() {
                Some(last) if start <= last.1 + MERGE_GAP_NS => last.1 = last.1.max(end),
                _ => log.intervals.push((start, end)),
            }
        });
        // Remember each per-query profiler once. Held profilers are never
        // freed, so a pointer seen before always means the same one.
        let mut current = 0usize;
        obs::with_current(|p| current = p as *const Profiler as usize);
        if current != 0 && LAST_PROFILER.with(Cell::get) != current {
            LAST_PROFILER.with(|c| c.set(current));
            if let Some(p) = obs::current() {
                let mut seen = self.profilers.lock().expect("trace lock poisoned");
                if !seen.iter().any(|q| Arc::ptr_eq(q, &p)) {
                    seen.push(p);
                }
            }
        }
    }

    /// The log's totals so far; the difference of two marks is the work
    /// between them.
    pub fn mark(&self) -> Mark {
        let mut mark = Mark::default();
        for t in self.threads.lock().expect("trace lock poisoned").iter() {
            let t = t.lock().expect("trace lock poisoned");
            mark.calls += t.calls;
            mark.pairs += t.pairs;
            mark.busy_ns += t.busy_ns;
        }
        let seen = self.profilers.lock().expect("trace lock poisoned");
        let sum = |c: Counter| seen.iter().map(|p| p.counter(c)).sum::<u64>();
        mark.label_entries = sum(Counter::OracleLabelEntries);
        mark.scratch_fallbacks = sum(Counter::ScratchFallback);
        mark.pool_runs = sum(Counter::PoolRun);
        mark.pool_tasks = sum(Counter::PoolTask);
        mark
    }

    /// The union of all probe intervals, sorted and disjoint.
    pub fn union(&self) -> Coverage {
        let mut all: Vec<(u64, u64)> = Vec::new();
        for t in self.threads.lock().expect("trace lock poisoned").iter() {
            all.extend_from_slice(&t.lock().expect("trace lock poisoned").intervals);
        }
        all.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(all.len());
        for (s, e) in all {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        let mut prefix = Vec::with_capacity(merged.len() + 1);
        prefix.push(0u64);
        for &(s, e) in &merged {
            prefix.push(prefix.last().copied().unwrap_or(0) + (e - s));
        }
        Coverage { merged, prefix }
    }
}

/// Cumulative oracle-side counts: the delegate's own, and the engine's
/// per-query profile counters summed over the profilers seen.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    pub calls: u64,
    pub pairs: u64,
    pub busy_ns: u64,
    pub label_entries: u64,
    pub scratch_fallbacks: u64,
    pub pool_runs: u64,
    pub pool_tasks: u64,
}

/// Sorted disjoint intervals with prefix sums, for "how much of this
/// window did the probes cover".
pub struct Coverage {
    merged: Vec<(u64, u64)>,
    prefix: Vec<u64>,
}

impl Coverage {
    /// Nanoseconds of `[a, b)` covered.
    pub fn covered(&self, a: u64, b: u64) -> u64 {
        if b <= a {
            return 0;
        }
        // First interval ending after `a`, last starting before `b`.
        let lo = self.merged.partition_point(|&(_, e)| e <= a);
        let hi = self.merged.partition_point(|&(s, _)| s < b);
        if lo >= hi {
            return 0;
        }
        let mut total = self.prefix[hi] - self.prefix[lo];
        let (s0, _) = self.merged[lo];
        if s0 < a {
            total -= a - s0;
        }
        let (_, e1) = self.merged[hi - 1];
        if e1 > b {
            total -= e1 - b;
        }
        total
    }
}

/// The timing delegate: same answers, every call logged.
pub struct TimedOracle {
    inner: Arc<dyn DistanceOracle>,
    log: Arc<OracleLog>,
}

impl TimedOracle {
    pub fn new(inner: Arc<dyn DistanceOracle>, log: Arc<OracleLog>) -> Self {
        clock();
        TimedOracle { inner, log }
    }
}

impl DistanceOracle for TimedOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        let start = now_ns();
        let d = self.inner.distance_within(u, v, bound);
        self.log.record(start, now_ns(), 1);
        d
    }

    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        let start = now_ns();
        let d = self.inner.dist_batch(pairs, bound);
        self.log.record(start, now_ns(), pairs.len() as u64);
        d
    }
}

/// One recorded span. Spans the client timed carry real start and end
/// times; spans whose length comes from the server's response envelope
/// (queue, service, engine) carry only their duration.
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<&'static str>,
    pub start_ns: Option<u64>,
    pub end_ns: Option<u64>,
    pub dur_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A request's root span, timed by the client.
    pub fn client(&mut self, request: usize, start: u64, end: u64) {
        self.spans.push(Span {
            name: "client",
            request,
            parent: None,
            start_ns: Some(start),
            end_ns: Some(end),
            dur_ns: end.saturating_sub(start),
        });
    }

    pub fn derived(
        &mut self,
        name: &'static str,
        request: usize,
        parent: &'static str,
        dur_ms: f64,
    ) {
        self.spans.push(Span {
            name,
            request,
            parent: Some(parent),
            start_ns: None,
            end_ns: None,
            dur_ns: (dur_ms.max(0.0) * 1e6) as u64,
        });
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = serde_json::json!({
                "name": s.name,
                "request": s.request,
                "parent": s.parent,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "dur_ns": s.dur_ns,
            });
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}
