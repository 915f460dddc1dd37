//! The distance-oracle abstraction shared by the matcher and algorithms.

use std::sync::Arc;
use wqe_graph::{Graph, NodeId};

/// Answers bounded directed-distance queries.
///
/// `distance_within(u, v, b)` returns `Some(d)` with `d = dist(u, v) <= b`
/// when the shortest path from `u` to `v` is at most `b` hops, and `None`
/// otherwise. The matcher only ever queries with `b <= b_m` (the global edge
/// bound cap of §2.1), which lets truncated implementations answer exactly.
///
/// `Send + Sync` is a supertrait requirement: oracles are shared across
/// concurrent sessions behind `Arc<dyn DistanceOracle>`, so every
/// implementation must keep its query path safe to call from any thread
/// (immutable after build, or internally synchronized like the memoizing
/// BFS oracle).
pub trait DistanceOracle: Send + Sync {
    /// Bounded distance query; see trait docs.
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32>;

    /// Convenience predicate `dist(u, v) <= bound`.
    fn within(&self, u: NodeId, v: NodeId, bound: u32) -> bool {
        self.distance_within(u, v, bound).is_some()
    }

    /// Batched form of [`distance_within`](DistanceOracle::distance_within):
    /// one `Option<u32>` per `(u, v)` pair, in pair order. The default just
    /// loops; implementations with per-source state (e.g. the memoizing BFS
    /// oracle) override it to amortize source lookups across consecutive
    /// pairs sharing a source.
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        pairs
            .iter()
            .map(|&(u, v)| self.distance_within(u, v, bound))
            .collect()
    }

    /// The largest bound this oracle answers exactly. Queries with a larger
    /// bound are answered as if asked at the horizon, so a caller must not
    /// pose a pattern whose `b_m` exceeds it. Exact-at-any-distance
    /// oracles (PLL, overlays over them) keep the default `u32::MAX`.
    fn horizon(&self) -> u32 {
        u32::MAX
    }
}

impl<T: DistanceOracle + ?Sized> DistanceOracle for &T {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        (**self).distance_within(u, v, bound)
    }
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        (**self).dist_batch(pairs, bound)
    }
    fn horizon(&self) -> u32 {
        (**self).horizon()
    }
}

impl<T: DistanceOracle + ?Sized> DistanceOracle for Arc<T> {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        (**self).distance_within(u, v, bound)
    }
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        (**self).dist_batch(pairs, bound)
    }
    fn horizon(&self) -> u32 {
        (**self).horizon()
    }
}

impl<T: DistanceOracle + ?Sized> DistanceOracle for Box<T> {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        (**self).distance_within(u, v, bound)
    }
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        (**self).dist_batch(pairs, bound)
    }
    fn horizon(&self) -> u32 {
        (**self).horizon()
    }
}

/// Default PLL/BFS crossover: graphs with at most this many nodes get a
/// full pruned-landmark-labeling index (see [`wants_pll`]).
pub const PLL_NODE_LIMIT: usize = 50_000;

/// Horizon of the bounded-BFS oracle that serves graphs past the
/// crossover: the paper's default global edge bound `b_m`.
pub const BFS_HORIZON: u32 = 4;

/// The one oracle-tier decision: should a graph of `node_count` nodes be
/// served by a PLL index (exact at any distance) rather than a bounded BFS
/// at [`BFS_HORIZON`]? Every layer that builds or persists an oracle asks
/// this, so a fresh context, a snapshot-loaded one and a live store all
/// pick the same tier for the same graph.
pub fn wants_pll(node_count: usize) -> bool {
    node_count <= PLL_NODE_LIMIT
}

/// Chooses an index implementation appropriate for the graph size.
///
/// Pruned landmark labeling answers in microseconds but costs superlinear
/// build time; a memoized bounded BFS costs nothing up front. Graphs past
/// the crossover ([`wants_pll`]) fall back to BFS, mirroring how the paper
/// treats the index as a pluggable black box. Below it, construction is far
/// from free: `build_with` on `dbpedia_like(·, 7)` on a 2-CPU host takes
/// about 0.4 s for 1.0M label entries at 4k nodes, 3.7 s for 4.6M at 10k,
/// and 18 s for 15.6M at 20k.
pub enum HybridOracle {
    /// Full pruned-landmark-labeling index.
    Pll(crate::pll::PllIndex),
    /// Memoized bounded BFS (shares ownership of the graph, so the oracle
    /// is `'static` and can outlive the scope that built it).
    Bfs(crate::bfs::BoundedBfsOracle),
}

impl HybridOracle {
    /// Builds PLL when [`wants_pll`] says so, otherwise a bounded-BFS
    /// oracle with the given `horizon`. PLL construction uses the
    /// rank-windowed parallel build ([`crate::pll::PllIndex::build_with`]
    /// with auto thread count); the labels are thread-count-invariant.
    pub fn default_for(graph: &Arc<Graph>, horizon: u32) -> Self {
        if wants_pll(graph.node_count()) {
            HybridOracle::Pll(crate::pll::PllIndex::build_with(graph, 0))
        } else {
            HybridOracle::Bfs(crate::bfs::BoundedBfsOracle::new(
                Arc::clone(graph),
                horizon,
            ))
        }
    }

    /// True if backed by the PLL index.
    pub fn is_pll(&self) -> bool {
        matches!(self, HybridOracle::Pll(_))
    }
}

impl DistanceOracle for HybridOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        match self {
            HybridOracle::Pll(p) => p.distance_within(u, v, bound),
            HybridOracle::Bfs(b) => b.distance_within(u, v, bound),
        }
    }
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        match self {
            HybridOracle::Pll(p) => p.dist_batch(pairs, bound),
            HybridOracle::Bfs(b) => b.dist_batch(pairs, bound),
        }
    }
    fn horizon(&self) -> u32 {
        match self {
            HybridOracle::Pll(p) => p.horizon(),
            HybridOracle::Bfs(b) => b.horizon(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqe_graph::GraphBuilder;

    fn line(n: usize) -> Arc<Graph> {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        Arc::new(b.finalize())
    }

    #[test]
    fn hybrid_picks_pll_for_small() {
        let g = line(10);
        let o = HybridOracle::default_for(&g, 4);
        assert!(o.is_pll());
        assert_eq!(o.distance_within(NodeId(0), NodeId(3), 4), Some(3));
        assert_eq!(o.horizon(), u32::MAX);
    }

    #[test]
    fn policy_crossover_and_horizons() {
        assert!(wants_pll(PLL_NODE_LIMIT));
        assert!(!wants_pll(PLL_NODE_LIMIT + 1));
        let g = line(10);
        let bfs = HybridOracle::Bfs(crate::bfs::BoundedBfsOracle::new(g, BFS_HORIZON));
        assert_eq!(bfs.distance_within(NodeId(0), NodeId(3), 4), Some(3));
        assert!(!bfs.within(NodeId(0), NodeId(3), 2));
        // Wrappers report the horizon of the oracle they hold.
        let shared: Arc<dyn DistanceOracle> = Arc::new(bfs);
        assert_eq!(shared.horizon(), BFS_HORIZON);
        assert_eq!((&shared).horizon(), BFS_HORIZON);
    }

    #[test]
    fn trait_object_usable() {
        let g = line(4);
        let o = HybridOracle::default_for(&g, 4);
        let dyn_o: &dyn DistanceOracle = &o;
        assert!(dyn_o.within(NodeId(0), NodeId(1), 1));
    }

    #[test]
    fn shared_ownership_outlives_build_scope() {
        // The oracle must be usable as a `'static` Arc<dyn DistanceOracle>
        // after the original graph handle is gone.
        let shared: Arc<dyn DistanceOracle> = {
            let g = line(6);
            Arc::new(HybridOracle::default_for(&g, 4))
        };
        assert_eq!(shared.distance_within(NodeId(0), NodeId(2), 4), Some(2));
        let handle = std::thread::spawn(move || shared.within(NodeId(0), NodeId(1), 1));
        assert!(handle.join().unwrap());
    }
}
