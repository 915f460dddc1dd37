//! Deterministic fault injection and recovery for distance oracles.
//!
//! [`FaultOracle`] wraps any [`DistanceOracle`] and injects failures on a
//! seed-driven, reproducible schedule: worker panics (to exercise panic
//! containment), `u32::MAX`-style unreachable answers (to exercise
//! conservative degradation), and fixed per-call delays (to make deadlines
//! and cancellation testable without flaky timing assumptions). Used by
//! `tests/governor.rs`; useful in any chaos-style robustness harness.
//!
//! When no fault fires, the wrapper is a pure pass-through — answers are
//! bit-identical to the inner oracle's, so a fault-exhausted `FaultOracle`
//! behaves exactly like the oracle it wraps.
//!
//! [`ResilientOracle`] is the *recovery* side: it consults the calling
//! thread's [`wqe_pool::fault::FaultPlan`] (the `oracle` site) and runs the
//! degradation ladder — bounded retry with backoff, then a sticky
//! per-oracle circuit breaker that pins an exact fallback oracle.

use crate::oracle::DistanceOracle;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wqe_graph::NodeId;
use wqe_pool::fault::{self, CircuitBreaker, FaultSite};
use wqe_pool::obs;

/// What an injected fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the oracle call (simulates a crashed verifier thread).
    Panic,
    /// Report the pair unreachable (distance `u32::MAX`, i.e. `None`),
    /// regardless of the true distance.
    Unreachable,
    /// Sleep for the given duration, then answer normally. Turns any inner
    /// oracle into a deterministically slow one.
    Delay(Duration),
}

/// A fault-injecting [`DistanceOracle`] wrapper.
///
/// The schedule is a pure function of `(seed, period, call number)`: call
/// `n` faults iff `splitmix64(seed ^ n) % period == 0`. With `period == 1`
/// every call faults. An optional fault budget ([`FaultOracle::with_fault_limit`])
/// caps how many faults ever fire — `with_fault_limit(1)` yields a
/// fire-once oracle that behaves normally afterwards, which is exactly what
/// the "panic poisons nothing" sibling-session test needs.
///
/// Like every oracle, the wrapper is `Send + Sync`; the call counter and
/// fault budget are atomics.
pub struct FaultOracle {
    inner: Arc<dyn DistanceOracle>,
    kind: FaultKind,
    seed: u64,
    period: u64,
    /// Remaining faults; negative means unlimited.
    remaining: AtomicI64,
    calls: AtomicU64,
}

/// SplitMix64 finalizer: a strong deterministic bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FaultOracle {
    /// Wraps `inner`, faulting on the deterministic schedule
    /// `splitmix64(seed ^ n) % period == 0` (call numbers `n` start at 0).
    /// `period` is clamped to at least 1 (1 = fault every call).
    pub fn new(inner: Arc<dyn DistanceOracle>, kind: FaultKind, seed: u64, period: u64) -> Self {
        FaultOracle {
            inner,
            kind,
            seed,
            period: period.max(1),
            remaining: AtomicI64::new(-1),
            calls: AtomicU64::new(0),
        }
    }

    /// Caps the total number of faults that will ever fire; after the
    /// budget is spent the oracle is a pure pass-through.
    pub fn with_fault_limit(self, limit: u32) -> Self {
        self.remaining.store(limit as i64, Ordering::Relaxed);
        self
    }

    /// Convenience: a delay of `millis` on every call (deterministic slow
    /// oracle for deadline/cancellation tests).
    pub fn slow(inner: Arc<dyn DistanceOracle>, millis: u64) -> Self {
        FaultOracle::new(inner, FaultKind::Delay(Duration::from_millis(millis)), 0, 1)
    }

    /// Total oracle calls observed so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Whether the schedule (ignoring the fault budget) fires on call `n`.
    pub fn schedule_fires(&self, n: u64) -> bool {
        splitmix64(self.seed ^ n).is_multiple_of(self.period)
    }

    /// Accounts one call; panics or sleeps per the fault kind; returns
    /// `true` when the answer must be overridden with "unreachable".
    fn on_call(&self) -> bool {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if !self.schedule_fires(n) {
            return false;
        }
        // Spend from the fault budget (negative = unlimited). A stale
        // decrement past zero is restored so the budget never goes negative
        // through racing callers.
        let prior = self.remaining.load(Ordering::Relaxed);
        if prior >= 0 && self.remaining.fetch_sub(1, Ordering::Relaxed) <= 0 {
            self.remaining.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        match self.kind {
            FaultKind::Panic => panic!("injected oracle fault: panic at call {n}"),
            FaultKind::Unreachable => true,
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                false
            }
        }
    }
}

impl DistanceOracle for FaultOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        if self.on_call() {
            return None;
        }
        self.inner.distance_within(u, v, bound)
    }

    /// Delegates pair-by-pair through `distance_within` so the fault
    /// schedule counts batched and pointwise calls identically.
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        pairs
            .iter()
            .map(|&(u, v)| self.distance_within(u, v, bound))
            .collect()
    }
}

/// The degradation ladder for distance oracles: primary → bounded retry
/// (with backoff) → exact fallback, with a sticky circuit breaker that
/// pins the fallback once faults repeat.
///
/// The wrapper consults the calling thread's
/// [`FaultPlan`](wqe_pool::fault::FaultPlan) at the
/// [`FaultSite::Oracle`] site: a fired fault makes the primary call
/// "fail" (and, while a plan is active, a *real* panic inside the primary
/// is caught and treated the same way). Failed calls are retried up to
/// `max_retries` times with linear backoff, counting
/// [`Counter::Retry`](obs::Counter::Retry); when retries exhaust, the call
/// is served by the fallback and the breaker records a failure. Enough
/// consecutive failures trip the breaker open — sticky — pinning every
/// later call to the fallback (counted once as
/// [`Counter::DegradedServe`](obs::Counter::DegradedServe) at the trip).
///
/// **Never-wrong invariant:** the constructor requires a fallback that
/// answers *identically* to the primary at every bound the caller will
/// use (e.g. an unbounded [`BoundedBfsOracle`](crate::BoundedBfsOracle)
/// behind a PLL index — both exact). Degradation then changes latency,
/// never answers.
///
/// With no plan in scope and the breaker closed, a call is a relaxed
/// atomic load and a thread-local load plus the primary call — bit-identical answers, measured
/// against the <3% overhead gate by `bench_faults`.
pub struct ResilientOracle {
    primary: Arc<dyn DistanceOracle>,
    fallback: Arc<dyn DistanceOracle>,
    breaker: CircuitBreaker,
    max_retries: u32,
    backoff: Duration,
}

impl ResilientOracle {
    /// Wraps `primary` with `fallback` as the degraded-but-exact path.
    /// Defaults: 2 retries, 20µs linear backoff, breaker trips after 3
    /// consecutive exhausted calls.
    pub fn new(primary: Arc<dyn DistanceOracle>, fallback: Arc<dyn DistanceOracle>) -> Self {
        ResilientOracle {
            primary,
            fallback,
            breaker: CircuitBreaker::new(3),
            max_retries: 2,
            backoff: Duration::from_micros(20),
        }
    }

    /// Overrides the retry bound (0 = fail straight to the fallback).
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the per-attempt backoff base (linear: attempt `k` sleeps
    /// `k * backoff`).
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the breaker's consecutive-failure threshold.
    pub fn with_breaker_threshold(mut self, threshold: u32) -> Self {
        self.breaker = CircuitBreaker::new(threshold);
        self
    }

    /// Whether the breaker has tripped (every call now served by the
    /// fallback).
    pub fn fallback_pinned(&self) -> bool {
        self.breaker.is_open()
    }

    fn call<R>(&self, op: &dyn Fn(&dyn DistanceOracle) -> R) -> R {
        if self.breaker.is_open() {
            return op(&*self.fallback);
        }
        if !fault::active() {
            // Production path: no plan in scope, straight through.
            return op(&*self.primary);
        }
        let mut attempt: u32 = 0;
        loop {
            let injected = fault::fire(FaultSite::Oracle).is_some();
            if !injected {
                // A real panic in the primary (e.g. a FaultOracle below
                // us) is caught and ridden through the same ladder; the
                // catch only exists while a plan is active, so the
                // production path never pays for it.
                if let Ok(r) = catch_unwind(AssertUnwindSafe(|| op(&*self.primary))) {
                    self.breaker.record_success();
                    return r;
                }
            }
            if attempt >= self.max_retries {
                if self.breaker.record_failure() {
                    obs::with_current(|p| p.add(obs::Counter::DegradedServe, 1));
                }
                return op(&*self.fallback);
            }
            attempt += 1;
            obs::with_current(|p| p.add(obs::Counter::Retry, 1));
            if !self.backoff.is_zero() {
                std::thread::sleep(self.backoff * attempt);
            }
        }
    }
}

impl DistanceOracle for ResilientOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        self.call(&|o| o.distance_within(u, v, bound))
    }

    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        self.call(&|o| o.dist_batch(pairs, bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoundedBfsOracle;
    use wqe_graph::GraphBuilder;

    fn line_oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        Arc::new(BoundedBfsOracle::new(Arc::new(b.finalize()), u32::MAX))
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = FaultOracle::new(line_oracle(4), FaultKind::Unreachable, 42, 3);
        let b = FaultOracle::new(line_oracle(4), FaultKind::Unreachable, 42, 3);
        let fires_a: Vec<bool> = (0..200).map(|n| a.schedule_fires(n)).collect();
        let fires_b: Vec<bool> = (0..200).map(|n| b.schedule_fires(n)).collect();
        assert_eq!(fires_a, fires_b);
        let count = fires_a.iter().filter(|&&x| x).count();
        assert!(count > 20 && count < 150, "~1/3 of calls fire, got {count}");
    }

    #[test]
    fn unreachable_overrides_answers() {
        let o = FaultOracle::new(line_oracle(5), FaultKind::Unreachable, 7, 1);
        for _ in 0..10 {
            assert_eq!(o.distance_within(NodeId(0), NodeId(1), 9), None);
        }
        assert_eq!(o.calls(), 10);
    }

    #[test]
    fn fault_limit_restores_passthrough() {
        let o = FaultOracle::new(line_oracle(5), FaultKind::Unreachable, 7, 1).with_fault_limit(2);
        assert_eq!(o.distance_within(NodeId(0), NodeId(1), 9), None);
        assert_eq!(o.distance_within(NodeId(0), NodeId(1), 9), None);
        // Budget spent: exact answers from here on.
        for _ in 0..5 {
            assert_eq!(o.distance_within(NodeId(0), NodeId(1), 9), Some(1));
        }
    }

    #[test]
    fn panic_fires_once_then_passthrough() {
        let o =
            Arc::new(FaultOracle::new(line_oracle(5), FaultKind::Panic, 1, 1).with_fault_limit(1));
        let o2 = Arc::clone(&o);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            o2.distance_within(NodeId(0), NodeId(1), 9)
        }));
        assert!(r.is_err());
        assert_eq!(o.distance_within(NodeId(0), NodeId(1), 9), Some(1));
    }

    #[test]
    fn dist_batch_counts_like_pointwise() {
        let a = FaultOracle::new(line_oracle(6), FaultKind::Unreachable, 11, 2);
        let b = FaultOracle::new(line_oracle(6), FaultKind::Unreachable, 11, 2);
        let pairs: Vec<(NodeId, NodeId)> = (0..5).map(|i| (NodeId(0), NodeId(i))).collect();
        let batched = a.dist_batch(&pairs, 9);
        let pointwise: Vec<Option<u32>> = pairs
            .iter()
            .map(|&(u, v)| b.distance_within(u, v, 9))
            .collect();
        assert_eq!(batched, pointwise);
        assert_eq!(a.calls(), b.calls());
    }

    #[test]
    fn delay_slows_calls_down() {
        let o = FaultOracle::slow(line_oracle(4), 5);
        let t0 = std::time::Instant::now();
        assert_eq!(o.distance_within(NodeId(0), NodeId(2), 9), Some(2));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    fn resilient_line(n: usize) -> ResilientOracle {
        ResilientOracle::new(line_oracle(n), line_oracle(n)).with_backoff(Duration::ZERO)
    }

    #[test]
    fn resilient_passthrough_without_plan_is_bit_identical() {
        let plain = line_oracle(8);
        let r = resilient_line(8);
        for i in 0..8u32 {
            for j in 0..8u32 {
                assert_eq!(
                    r.distance_within(NodeId(i), NodeId(j), 9),
                    plain.distance_within(NodeId(i), NodeId(j), 9)
                );
            }
        }
        let pairs: Vec<(NodeId, NodeId)> = (0..8).map(|i| (NodeId(0), NodeId(i))).collect();
        assert_eq!(r.dist_batch(&pairs, 9), plain.dist_batch(&pairs, 9));
        assert!(!r.fallback_pinned());
    }

    #[test]
    fn resilient_transient_fault_retries_then_succeeds() {
        // One fault, then the schedule is spent: the first attempt fails,
        // the retry hits the primary and succeeds. Breaker stays closed.
        let plan = Arc::new(
            wqe_pool::fault::FaultPlan::new(7)
                .arm(FaultSite::Oracle, 1)
                .with_budget(FaultSite::Oracle, 1),
        );
        let r = resilient_line(6);
        let _g = wqe_pool::fault::enter(Arc::clone(&plan));
        assert_eq!(r.distance_within(NodeId(0), NodeId(4), 9), Some(4));
        assert_eq!(plan.fired(FaultSite::Oracle), 1);
        assert!(!r.fallback_pinned());
    }

    #[test]
    fn resilient_exhausted_retries_serve_exact_fallback_and_trip_breaker() {
        // Every attempt faults: each call burns its retries, serves from
        // the fallback (same answers), and after `threshold` such calls
        // the breaker pins the fallback permanently.
        let plan = Arc::new(wqe_pool::fault::FaultPlan::new(3).arm(FaultSite::Oracle, 1));
        let plain = line_oracle(6);
        let r = resilient_line(6).with_breaker_threshold(2);
        {
            let _g = wqe_pool::fault::enter(Arc::clone(&plan));
            for _ in 0..3 {
                assert_eq!(
                    r.distance_within(NodeId(0), NodeId(5), 9),
                    plain.distance_within(NodeId(0), NodeId(5), 9)
                );
            }
            assert!(r.fallback_pinned());
        }
        // Plan gone, breaker still open: calls stay on the exact fallback.
        assert!(r.fallback_pinned());
        assert_eq!(r.distance_within(NodeId(1), NodeId(3), 9), Some(2));
    }

    #[test]
    fn resilient_catches_real_primary_panics_under_a_plan() {
        // The plan arms an unrelated site, so fire(Oracle) never triggers —
        // but an active plan turns on panic containment, and the
        // always-panicking primary degrades to the exact fallback.
        let plan = Arc::new(wqe_pool::fault::FaultPlan::new(11).arm(FaultSite::Queue, 1));
        let panicky: Arc<dyn DistanceOracle> =
            Arc::new(FaultOracle::new(line_oracle(5), FaultKind::Panic, 1, 1));
        let r = ResilientOracle::new(panicky, line_oracle(5))
            .with_backoff(Duration::ZERO)
            .with_retries(0);
        let _g = wqe_pool::fault::enter(plan);
        assert_eq!(r.distance_within(NodeId(0), NodeId(3), 9), Some(3));
    }

    #[test]
    fn resilient_counts_retries_and_degraded_serves() {
        let plan = Arc::new(wqe_pool::fault::FaultPlan::new(5).arm(FaultSite::Oracle, 1));
        let r = resilient_line(4).with_retries(1).with_breaker_threshold(1);
        let profiler = Arc::new(obs::Profiler::new());
        let _g = wqe_pool::fault::enter(plan);
        {
            let _scope = obs::enter(Arc::clone(&profiler));
            assert_eq!(r.distance_within(NodeId(0), NodeId(2), 9), Some(2));
        }
        let snap = profiler.snapshot();
        assert_eq!(snap.counter(obs::Counter::Retry), 1);
        assert_eq!(snap.counter(obs::Counter::DegradedServe), 1);
        assert!(snap.counter(obs::Counter::FaultInjected) >= 2);
    }
}
