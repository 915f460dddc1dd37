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
}

impl<T: DistanceOracle + ?Sized> DistanceOracle for &T {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        (**self).distance_within(u, v, bound)
    }
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        (**self).dist_batch(pairs, bound)
    }
}

impl<T: DistanceOracle + ?Sized> DistanceOracle for Arc<T> {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        (**self).distance_within(u, v, bound)
    }
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        (**self).dist_batch(pairs, bound)
    }
}

impl<T: DistanceOracle + ?Sized> DistanceOracle for Box<T> {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        (**self).distance_within(u, v, bound)
    }
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        (**self).dist_batch(pairs, bound)
    }
}

/// Default PLL/BFS crossover: graphs with at most this many nodes get a
/// full pruned-landmark-labeling index ([`HybridOracle::default_for`]).
/// Exported so other layers (the snapshot writer, the snapshot loader)
/// can make the *same* decision and keep answers bit-identical between a
/// freshly built context and a snapshot-loaded one.
pub const PLL_NODE_LIMIT: usize = 50_000;

/// Chooses an index implementation appropriate for the graph size.
///
/// Pruned landmark labeling answers in microseconds but costs superlinear
/// build time; a memoized bounded BFS costs nothing up front. Graphs above
/// the crossover (50k nodes) fall back to BFS, mirroring how the paper
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
    /// Builds PLL for graphs up to `pll_node_limit` nodes, otherwise a
    /// bounded-BFS oracle with the given `horizon`. PLL construction uses
    /// the rank-windowed parallel build ([`crate::pll::PllIndex::build_with`]
    /// with auto thread count); the resulting labels are deterministic and
    /// the answered distances identical to a sequential build.
    pub fn auto(graph: &Arc<Graph>, horizon: u32, pll_node_limit: usize) -> Self {
        if graph.node_count() <= pll_node_limit {
            HybridOracle::Pll(crate::pll::PllIndex::build_with(graph, 0))
        } else {
            HybridOracle::Bfs(crate::bfs::BoundedBfsOracle::new(
                Arc::clone(graph),
                horizon,
            ))
        }
    }

    /// Default policy: PLL up to [`PLL_NODE_LIMIT`] nodes.
    pub fn default_for(graph: &Arc<Graph>, horizon: u32) -> Self {
        Self::auto(graph, horizon, PLL_NODE_LIMIT)
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
        let o = HybridOracle::auto(&g, 4, 100);
        assert!(o.is_pll());
        assert_eq!(o.distance_within(NodeId(0), NodeId(3), 4), Some(3));
    }

    #[test]
    fn hybrid_picks_bfs_for_large() {
        let g = line(10);
        let o = HybridOracle::auto(&g, 4, 5);
        assert!(!o.is_pll());
        assert_eq!(o.distance_within(NodeId(0), NodeId(3), 4), Some(3));
        assert!(!o.within(NodeId(0), NodeId(3), 2));
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
            Arc::new(HybridOracle::auto(&g, 4, 3))
        };
        assert_eq!(shared.distance_within(NodeId(0), NodeId(2), 4), Some(2));
        let handle = std::thread::spawn(move || shared.within(NodeId(0), NodeId(1), 1));
        assert!(handle.join().unwrap());
    }
}
