//! Incremental index maintenance for live graphs.
//!
//! When an epoch publishes a graph delta, rebuilding the PLL index from
//! scratch costs the full `O(Σ label sizes · avg degree)` construction —
//! wasteful when a handful of edges changed. This module provides the two
//! cheaper tiers the epoch store picks from:
//!
//! * [`repair_insertions`] — incremental label repair for pure edge
//!   insertions (the resumed pruned-BFS scheme of Akiba et al., WWW 2014):
//!   for each inserted edge `(a, b)` and each hub covering `a`, the hub's
//!   pruned BFS is *resumed* through the new edge, patching only the labels
//!   the insertion can actually shorten. A visit budget bounds the work;
//!   repair past the budget returns `None` and the caller falls back.
//! * [`DeltaOracle`] — an exact overlay for arbitrary deltas (deletions,
//!   new nodes): answers from the old oracle when the delta provably cannot
//!   have changed the pair, and routes *affected* source/target pairs to an
//!   exact BFS on the new graph (the bounded-staleness fallback — answers
//!   are never stale, only slower for touched regions).
//!
//! Both tiers answer bit-identically to a fresh index on the new graph;
//! they only trade construction time against per-query time.

use crate::bfs::BoundedBfsOracle;
use crate::kernel::BatchScratch;
use crate::oracle::DistanceOracle;
use crate::pll::{PllIndex, PllParts};
use std::collections::VecDeque;
use std::sync::Arc;
use wqe_graph::{Graph, NodeId};

/// Per-node label vectors in repairable (unflattened) form.
struct RepairLabels {
    out_ranks: Vec<Vec<u32>>,
    out_dists: Vec<Vec<u32>>,
    in_ranks: Vec<Vec<u32>>,
    in_dists: Vec<Vec<u32>>,
    /// Inverse of the landmark order: `node_of_rank[r]` is the node whose
    /// pruned BFS committed entries at rank `r` (recovered from the
    /// self-entries `(rank(v), 0)` every labeled node carries).
    node_of_rank: Vec<u32>,
}

impl RepairLabels {
    fn unflatten(parts: &PllParts) -> RepairLabels {
        let n = parts.out_offsets.len() - 1;
        let cut = |offsets: &[u32], ranks: &[u32], dists: &[u32]| {
            let mut r = Vec::with_capacity(n);
            let mut d = Vec::with_capacity(n);
            for w in offsets.windows(2) {
                let (lo, hi) = (w[0] as usize, w[1] as usize);
                r.push(ranks[lo..hi].to_vec());
                d.push(dists[lo..hi].to_vec());
            }
            (r, d)
        };
        let (out_ranks, out_dists) = cut(&parts.out_offsets, &parts.out_ranks, &parts.out_dists);
        let (in_ranks, in_dists) = cut(&parts.in_offsets, &parts.in_ranks, &parts.in_dists);
        let mut node_of_rank = vec![u32::MAX; n];
        for v in 0..n {
            for (i, &d) in in_dists[v].iter().enumerate() {
                if d == 0 {
                    node_of_rank[in_ranks[v][i] as usize] = v as u32;
                }
            }
        }
        RepairLabels {
            out_ranks,
            out_dists,
            in_ranks,
            in_dists,
            node_of_rank,
        }
    }

    /// Inserts or min-updates entry `(rank, d)` in a label, keeping the
    /// rank order the merge kernels require.
    fn upsert(ranks: &mut Vec<u32>, dists: &mut Vec<u32>, rank: u32, d: u32) {
        match ranks.binary_search(&rank) {
            Ok(i) => dists[i] = dists[i].min(d),
            Err(i) => {
                ranks.insert(i, rank);
                dists.insert(i, d);
            }
        }
    }

    fn flatten(self) -> PllParts {
        let fold = |ranks: Vec<Vec<u32>>, dists: Vec<Vec<u32>>| {
            let total: usize = ranks.iter().map(Vec::len).sum();
            let mut offsets = Vec::with_capacity(ranks.len() + 1);
            let mut fr = Vec::with_capacity(total);
            let mut fd = Vec::with_capacity(total);
            offsets.push(0u32);
            for (r, d) in ranks.into_iter().zip(dists) {
                fr.extend_from_slice(&r);
                fd.extend_from_slice(&d);
                offsets.push(fr.len() as u32);
            }
            (offsets, fr, fd)
        };
        let (out_offsets, out_ranks, out_dists) = fold(self.out_ranks, self.out_dists);
        let (in_offsets, in_ranks, in_dists) = fold(self.in_ranks, self.in_dists);
        PllParts {
            out_offsets,
            out_ranks,
            out_dists,
            in_offsets,
            in_ranks,
            in_dists,
        }
    }
}

/// Incrementally repairs a PLL index after pure edge insertions.
///
/// `index` must have been built on the old graph; `graph` is the *new*
/// graph (old edges plus exactly `inserted`, same node set). For each
/// inserted edge `(a, b)`: every hub `w` covering `a` in the forward
/// direction resumes its pruned BFS from `b` at depth `d(w, a) + 1`, and
/// symmetrically every hub covering `b` backward resumes from `a` —
/// patching only labels the new edge can have shortened, with the same
/// certify-then-label pruning as the static build.
///
/// `budget` caps total BFS visits across all resumed searches; exceeding
/// it returns `None` with no partial effects (the caller keeps the old
/// index and uses a different tier). The repaired index answers exactly on
/// the new graph (labels may be non-minimal — entries are real path
/// lengths and the 2-hop cover is restored, which is all exactness needs).
pub fn repair_insertions(
    index: &PllIndex,
    graph: &Graph,
    inserted: &[(NodeId, NodeId)],
    budget: u64,
) -> Option<PllIndex> {
    let parts = index.to_parts();
    if parts.out_offsets.len() != graph.node_count() + 1 {
        return None; // node set changed: not a pure insertion delta
    }
    let mut labels = RepairLabels::unflatten(&parts);
    let mut visits = 0u64;
    let n = graph.node_count();
    let mut visited = vec![false; n];
    let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
    let mut root = BatchScratch::new();

    // One resumed pruned BFS: hub `wr` continues from `start` at depth
    // `d0`, patching the forward (`L_in`) or backward (`L_out`) labels.
    // A forward resume only writes `L_in` labels and a backward one only
    // `L_out`, so the hub's own side (`L_out(w)` forward, `L_in(w)`
    // backward) is fixed for the whole resume: it is loaded into the
    // `root` rank table once and each visit probes against it, certifying
    // exactly the minimum a merge-join would.
    let resume = |labels: &mut RepairLabels,
                  visited: &mut [bool],
                  queue: &mut VecDeque<(u32, u32)>,
                  root: &mut BatchScratch,
                  visits: &mut u64,
                  wr: u32,
                  start: u32,
                  d0: u32,
                  forward: bool|
     -> bool {
        let wnode = labels.node_of_rank[wr as usize] as usize;
        if forward {
            root.load_source(&labels.out_ranks[wnode], &labels.out_dists[wnode]);
        } else {
            root.load_source(&labels.in_ranks[wnode], &labels.in_dists[wnode]);
        }
        queue.clear();
        queue.push_back((start, d0));
        visited[start as usize] = true;
        let mut touched = vec![start];
        let mut ok = true;
        while let Some((x, d)) = queue.pop_front() {
            *visits += 1;
            if *visits > budget {
                ok = false;
                break;
            }
            let (certified, _) = if forward {
                root.probe(&labels.in_ranks[x as usize], &labels.in_dists[x as usize])
            } else {
                root.probe(&labels.out_ranks[x as usize], &labels.out_dists[x as usize])
            };
            if certified <= d {
                continue;
            }
            if forward {
                RepairLabels::upsert(
                    &mut labels.in_ranks[x as usize],
                    &mut labels.in_dists[x as usize],
                    wr,
                    d,
                );
            } else {
                RepairLabels::upsert(
                    &mut labels.out_ranks[x as usize],
                    &mut labels.out_dists[x as usize],
                    wr,
                    d,
                );
            }
            let neighbors = if forward {
                graph.out_neighbors(NodeId(x))
            } else {
                graph.in_neighbors(NodeId(x))
            };
            for &(y, _) in neighbors {
                if !visited[y.index()] {
                    visited[y.index()] = true;
                    touched.push(y.0);
                    queue.push_back((y.0, d + 1));
                }
            }
        }
        for t in touched {
            visited[t as usize] = false;
        }
        ok
    };

    for &(a, b) in inserted {
        // Forward: hubs that reach `a` now also reach through `a -> b`.
        let hubs: Vec<(u32, u32)> = labels.in_ranks[a.index()]
            .iter()
            .copied()
            .zip(labels.in_dists[a.index()].iter().copied())
            .collect();
        for (wr, delta) in hubs {
            if !resume(
                &mut labels,
                &mut visited,
                &mut queue,
                &mut root,
                &mut visits,
                wr,
                b.0,
                delta + 1,
                true,
            ) {
                return None;
            }
        }
        // Backward: hubs reachable from `b` are now reachable from `a`.
        let hubs: Vec<(u32, u32)> = labels.out_ranks[b.index()]
            .iter()
            .copied()
            .zip(labels.out_dists[b.index()].iter().copied())
            .collect();
        for (wr, delta) in hubs {
            if !resume(
                &mut labels,
                &mut visited,
                &mut queue,
                &mut root,
                &mut visits,
                wr,
                a.0,
                delta + 1,
                false,
            ) {
                return None;
            }
        }
    }

    PllIndex::from_parts(labels.flatten()).ok()
}

/// An exact distance overlay for arbitrary graph deltas.
///
/// Holds the *old* graph's oracle plus the delta (`inserted`/`deleted`
/// edge pairs, old node count) and the *new* graph. Queries decompose
/// along the first inserted edge on a candidate path:
///
/// `d_new(s, t) = min( d_mid(s, t), min over inserted (p, q) of
/// d_mid(s, p) + 1 + d_new(q, t) )`
///
/// where `d_mid` is the old graph minus deleted edges. `d_mid(s, x)`
/// equals the old answer unless some deleted edge `(a, b)` sat on an old
/// shortest path (`d_old(s, a) + 1 + d_old(b, x) == d_old(s, x)`); such
/// *suspect* pairs — and any pair touching a node added after the old
/// build — are routed to an exact memoized BFS on the new graph. The
/// `d_new(q, t)` tails come from one BFS per inserted edge head, run at
/// construction. Every branch is exact; "bounded staleness" bounds only
/// the latency of affected pairs, never the answer.
pub struct DeltaOracle {
    base: Arc<dyn DistanceOracle>,
    graph: Arc<Graph>,
    old_n: u32,
    inserted: Vec<(NodeId, NodeId)>,
    deleted: Vec<(NodeId, NodeId)>,
    /// `tails[i][t] = d_new(q_i, t)` for inserted edge `(p_i, q_i)`.
    tails: Vec<Vec<u32>>,
    fallback: BoundedBfsOracle,
}

impl DeltaOracle {
    /// Builds the overlay. `base` answers exact distances on the old graph
    /// (`old_n` nodes) up to its [`horizon`](DistanceOracle::horizon),
    /// usually unbounded, and the overlay is exact up to the same horizon.
    /// `graph` is the new graph; `inserted` and `deleted` are the delta's
    /// distinct edge pairs (endpoint pairs — parallel labels collapse,
    /// which is sound because distances ignore edge labels).
    pub fn new(
        base: Arc<dyn DistanceOracle>,
        graph: Arc<Graph>,
        old_n: u32,
        inserted: Vec<(NodeId, NodeId)>,
        deleted: Vec<(NodeId, NodeId)>,
    ) -> Self {
        let tails = inserted
            .iter()
            .map(|&(_, q)| {
                let mut dist = vec![u32::MAX; graph.node_count()];
                for (v, d) in graph.bounded_bfs(q, u32::MAX) {
                    dist[v.index()] = d;
                }
                dist
            })
            .collect();
        let fallback = BoundedBfsOracle::new(Arc::clone(&graph), u32::MAX);
        DeltaOracle {
            base,
            graph,
            old_n,
            inserted,
            deleted,
            tails,
            fallback,
        }
    }

    /// The new graph the overlay answers for.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// True when some deleted edge lay on an old shortest `s -> t` path,
    /// i.e. the old answer for the pair cannot be trusted.
    fn suspect(&self, s: NodeId, t: NodeId, d_old: Option<u32>) -> bool {
        let Some(d) = d_old else {
            // Unreachable pairs only get *more* unreachable under deletion.
            return false;
        };
        self.deleted.iter().any(|&(a, b)| {
            let front = self.base.distance_within(s, a, u32::MAX);
            let back = self.base.distance_within(b, t, u32::MAX);
            matches!((front, back), (Some(f), Some(k)) if f.saturating_add(1).saturating_add(k) == d)
        })
    }
}

impl DistanceOracle for DeltaOracle {
    fn distance_within(&self, s: NodeId, t: NodeId, bound: u32) -> Option<u32> {
        if s == t {
            return Some(0);
        }
        // Nodes added after the old build have no base labels at all.
        if s.0 >= self.old_n || t.0 >= self.old_n {
            return self.fallback.distance_within(s, t, bound);
        }
        let d_old = self.base.distance_within(s, t, u32::MAX);
        if !self.deleted.is_empty() && self.suspect(s, t, d_old) {
            return self.fallback.distance_within(s, t, bound);
        }
        let mut best = d_old;
        for (i, &(p, q)) in self.inserted.iter().enumerate() {
            let leg = if s == p {
                Some(0)
            } else if p.0 >= self.old_n {
                // Prefix to a brand-new node cannot avoid inserted edges;
                // covered by the decomposition through earlier insertions.
                None
            } else {
                let d_sp = self.base.distance_within(s, p, u32::MAX);
                if !self.deleted.is_empty() && self.suspect(s, p, d_sp) {
                    return self.fallback.distance_within(s, t, bound);
                }
                d_sp
            };
            let (Some(leg), tail) = (leg, self.tails[i][t.index()]) else {
                continue;
            };
            if tail != u32::MAX {
                let cand = leg.saturating_add(1).saturating_add(tail);
                best = Some(best.map_or(cand, |b| b.min(cand)));
            }
            let _ = q;
        }
        best.filter(|&d| d <= bound)
    }

    /// The base oracle's horizon: every term of the decomposition up to it
    /// is exact.
    fn horizon(&self) -> u32 {
        self.base.horizon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wqe_graph::GraphBuilder;

    fn build_graph(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for &(u, v) in edges {
            b.add_edge(ids[u as usize], ids[v as usize], "e");
        }
        b.finalize()
    }

    fn assert_exact(oracle: &dyn DistanceOracle, g: &Graph) {
        let truth = BoundedBfsOracle::new(Arc::new(g.clone()), u32::MAX);
        for u in g.node_ids() {
            for v in g.node_ids() {
                assert_eq!(
                    oracle.distance_within(u, v, u32::MAX),
                    truth.distance_within(u, v, u32::MAX),
                    "pair {u:?} -> {v:?}"
                );
            }
        }
    }

    #[test]
    fn repair_shortcut_edge() {
        // Path 0 -> 1 -> 2 -> 3 -> 4, then insert the shortcut 0 -> 4.
        let old = build_graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let new = build_graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let idx = PllIndex::build(&old);
        let repaired =
            repair_insertions(&idx, &new, &[(NodeId(0), NodeId(4))], u64::MAX).expect("repairs");
        assert_eq!(repaired.distance(NodeId(0), NodeId(4)), Some(1));
        assert_exact(&repaired, &new);
    }

    #[test]
    fn repair_budget_overrun_returns_none() {
        let old = build_graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let new = build_graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let idx = PllIndex::build(&old);
        assert!(repair_insertions(&idx, &new, &[(NodeId(0), NodeId(5))], 0).is_none());
    }

    #[test]
    fn repair_rejects_node_count_mismatch() {
        let old = build_graph(4, &[(0, 1)]);
        let new = build_graph(5, &[(0, 1), (1, 4)]);
        let idx = PllIndex::build(&old);
        assert!(repair_insertions(&idx, &new, &[(NodeId(1), NodeId(4))], u64::MAX).is_none());
    }

    #[test]
    fn delta_oracle_handles_deletion() {
        // Delete the only 1 -> 2 link: pairs through it must re-route.
        let old = build_graph(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let new = build_graph(4, &[(0, 1), (2, 3), (0, 3)]);
        let base: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(&old));
        let overlay = DeltaOracle::new(
            base,
            Arc::new(new.clone()),
            4,
            vec![],
            vec![(NodeId(1), NodeId(2))],
        );
        assert_exact(&overlay, &new);
        assert_eq!(
            overlay.distance_within(NodeId(1), NodeId(3), u32::MAX),
            None
        );
    }

    #[test]
    fn delta_oracle_handles_new_node() {
        let old = build_graph(3, &[(0, 1), (1, 2)]);
        let mut b = GraphBuilder::with_schema(old.schema().clone());
        for v in old.node_ids() {
            let d = old.node(v);
            b.add_node_raw(d.label, d.attrs.clone());
        }
        let fresh = b.add_node("N", []);
        for v in old.node_ids() {
            for &(t, l) in old.out_neighbors(v) {
                b.add_edge_raw(v, t, l);
            }
        }
        b.add_edge(NodeId(2), fresh, "e");
        b.add_edge(fresh, NodeId(0), "e");
        let new = b.finalize();
        let base: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(&old));
        let overlay = DeltaOracle::new(
            base,
            Arc::new(new.clone()),
            3,
            vec![(NodeId(2), fresh), (fresh, NodeId(0))],
            vec![],
        );
        assert_exact(&overlay, &new);
        assert_eq!(overlay.distance_within(NodeId(0), fresh, u32::MAX), Some(3));
        assert_eq!(overlay.distance_within(fresh, NodeId(1), u32::MAX), Some(2));
    }

    proptest! {
        /// Repaired labels answer exactly like a fresh build on the new
        /// graph, for random base graphs and random insertion batches.
        #[test]
        fn repair_matches_fresh_build(
            n in 3usize..14,
            base_edges in proptest::collection::vec((0u32..14, 0u32..14), 0..30),
            new_edges in proptest::collection::vec((0u32..14, 0u32..14), 1..5),
        ) {
            let base_edges: Vec<(u32, u32)> = base_edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .filter(|(u, v)| u != v)
                .collect();
            let mut all = base_edges.clone();
            let mut inserted = Vec::new();
            for (u, v) in new_edges {
                let e = (u % n as u32, v % n as u32);
                if e.0 != e.1 && !all.contains(&e) {
                    all.push(e);
                    inserted.push((NodeId(e.0), NodeId(e.1)));
                }
            }
            prop_assume!(!inserted.is_empty());
            let old = build_graph(n, &base_edges);
            let new = build_graph(n, &all);
            let idx = PllIndex::build(&old);
            let repaired = repair_insertions(&idx, &new, &inserted, u64::MAX)
                .expect("unbounded budget always repairs");
            let fresh = PllIndex::build(&new);
            for u in new.node_ids() {
                for v in new.node_ids() {
                    prop_assert_eq!(repaired.distance(u, v), fresh.distance(u, v));
                }
            }
        }

        /// The delta overlay is exact under mixed insert + delete batches.
        #[test]
        fn delta_oracle_matches_bfs(
            n in 3usize..12,
            base_edges in proptest::collection::vec((0u32..12, 0u32..12), 2..26),
            ins in proptest::collection::vec((0u32..12, 0u32..12), 0..4),
            del_picks in proptest::collection::vec(0usize..26, 0..4),
        ) {
            let base_edges: Vec<(u32, u32)> = base_edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .filter(|(u, v)| u != v)
                .collect();
            prop_assume!(!base_edges.is_empty());
            let mut survivors = base_edges.clone();
            let mut deleted = Vec::new();
            for p in del_picks {
                if survivors.is_empty() { break; }
                let e = survivors.remove(p % survivors.len());
                survivors.retain(|&x| x != e);
                deleted.push((NodeId(e.0), NodeId(e.1)));
            }
            let mut inserted = Vec::new();
            for (u, v) in ins {
                let e = (u % n as u32, v % n as u32);
                if e.0 != e.1 && !survivors.contains(&e) {
                    survivors.push(e);
                    inserted.push((NodeId(e.0), NodeId(e.1)));
                }
            }
            let old = build_graph(n, &base_edges);
            let new = build_graph(n, &survivors);
            let base: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(&old));
            let overlay = DeltaOracle::new(
                base, Arc::new(new.clone()), n as u32, inserted, deleted,
            );
            let truth = BoundedBfsOracle::new(Arc::new(new.clone()), u32::MAX);
            for u in new.node_ids() {
                for v in new.node_ids() {
                    prop_assert_eq!(
                        overlay.distance_within(u, v, u32::MAX),
                        truth.distance_within(u, v, u32::MAX)
                    );
                }
            }
        }
    }
}
