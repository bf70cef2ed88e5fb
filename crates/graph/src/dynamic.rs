//! Incremental repair of [`ShortestPathTree`]s under failures, in the
//! style of Ramalingam–Reps, on the [`CsrGraph`] the rest of the restore
//! path runs on.
//!
//! A full Dijkstra over a failed graph costs `O((n + m) log n)` even when a
//! failure detaches only a handful of nodes. [`repair_after_failures`]
//! updates an existing tree in place instead: only nodes whose tree path
//! crosses a masked edge or node can change (deletions never shorten
//! paths). The affected subtrees are detached, re-seeded from their best
//! live neighbors outside the region, and re-settled by a Dijkstra
//! restricted to the region. A failed source leaves every node
//! unreachable, as [`CsrGraph::full_tree_masked`] does. The repair reads
//! the precomputed perturbed and base weights of the packed half-edges and
//! tests [`FailureMask`] bits; it neither hashes nor mixes.
//!
//! Because the padded [`CostModel`](crate::CostModel) makes shortest paths
//! unique (distinct perturbed costs ⇒ a unique optimum per node — see the
//! crate-level discussion of infinitesimal padding), a repaired tree is
//! **bit-identical** to the tree a full rebuild under the same mask would
//! produce: same distances, same parents, same canonical base paths. This
//! is the same invariant Bodwin–Parter call *restorable tiebreaking* —
//! canonical shortest paths that survive edge deletions. The equivalence
//! is enforced by this module's tests and by the `spt_repair` property
//! suite.
//!
//! # Caller contract
//!
//! The `mask` passed to a repair is the **post-event** state, and the
//! tree was computed under a subset of the mask's failures (typically
//! none: the unfailed tree). Failed nodes are handled directly, and a
//! failed node never re-attaches. A recovery is handled the same way: the
//! base-path stores repair a clone of the unfailed tree under the smaller
//! failure set.
//!
//! ```
//! use rbpc_graph::{
//!     repair_after_failures, CostModel, CsrGraph, DijkstraScratch, FailureMask, Graph, Metric,
//!     RepairScratch,
//! };
//! # fn main() -> Result<(), rbpc_graph::GraphError> {
//! let mut g = Graph::new(4);
//! let ab = g.add_edge(0, 1, 1)?;
//! g.add_edge(1, 2, 1)?;
//! g.add_edge(0, 3, 1)?;
//! g.add_edge(3, 2, 1)?;
//! let csr = CsrGraph::new(&g, &CostModel::new(Metric::Weighted, 7));
//! let mut dijkstra = DijkstraScratch::new(csr.node_count());
//!
//! let mut tree = csr.full_tree(0.into(), &mut dijkstra);
//! let mut mask = FailureMask::new(csr.node_count(), csr.edge_count());
//! mask.fail_edge(ab);
//! let stats = repair_after_failures(&mut tree, &csr, &mask, &mut RepairScratch::new());
//! assert_eq!(tree, csr.full_tree_masked(0.into(), Some(&mask), &mut dijkstra));
//! assert!(stats.nodes_touched >= 1);
//! # Ok(())
//! # }
//! ```
//!
//! See `docs/PAPER_MAP.md` (repository root) for the full map from the
//! paper's results to modules and tests.

use crate::csr::{heap_key, NODE_MASK};
use crate::spt::NO_EDGE;
use crate::{CsrGraph, EdgeId, FailureMask, NodeId, ShortestPathTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What one incremental repair did to the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Nodes whose tree entry was recomputed: the detached-subtree size
    /// (every previously reachable node when the source fails). Zero means
    /// the failures did not intersect the tree at all.
    pub nodes_touched: usize,
}

/// Reusable working memory for the repair engine: the children-CSR
/// buffers, epoch-stamped affected/settled marks, and the priority queue.
///
/// A failure storm runs thousands of repairs; with a scratch
/// the per-event cost drops from six O(n) allocations to an epoch bump
/// (the children CSR is still refilled — it depends on the current tree —
/// but into retained capacity).
#[derive(Debug, Clone, Default)]
pub struct RepairScratch {
    epoch: u32,
    /// `affected[v] == epoch` ⇔ `v` is in the detached region this run.
    affected: Vec<u32>,
    /// `settled[v] == epoch` ⇔ `v` was settled by this run's Dijkstra.
    settled: Vec<u32>,
    offsets: Vec<u32>,
    kids: Vec<u32>,
    cursor: Vec<u32>,
    /// Subtree roots, then the DFS stack over the children CSR.
    stack: Vec<u32>,
    /// The detached region, in discovery order.
    region: Vec<u32>,
    /// Node-packed perturbed distances (see `csr::heap_key`).
    heap: BinaryHeap<Reverse<u128>>,
    runs: u64,
}

impl RepairScratch {
    /// An empty scratch; buffers grow to fit on first use.
    pub fn new() -> Self {
        RepairScratch::default()
    }

    /// Prepares for a repair over an `n`-node graph.
    fn begin(&mut self, n: usize) {
        if self.affected.len() < n {
            self.affected.resize(n, 0);
            self.settled.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.affected.iter_mut().for_each(|s| *s = 0);
            self.settled.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.heap.clear();
        self.region.clear();
        self.runs += 1;
    }

    /// Number of repairs served (reuses = `runs() - 1`).
    #[inline]
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

/// Repairs `tree` in place so it is the shortest-path tree under `mask`,
/// touching only the subtrees hanging below masked tree edges and nodes.
///
/// `tree` must be optimal under a subset of `mask`'s failures (see the
/// [module docs](self)). Masking elements the tree never used is a no-op,
/// because a deletion off the tree can neither shorten any path nor
/// invalidate a tree path. A failed source makes the whole tree
/// unreachable.
///
/// Returns the number of nodes in the detached (recomputed) region.
///
/// # Panics
///
/// Panics if `tree` or `mask` was built for a different node or edge
/// count than `csr`.
pub fn repair_after_failures(
    tree: &mut ShortestPathTree,
    csr: &CsrGraph,
    mask: &FailureMask,
    scratch: &mut RepairScratch,
) -> RepairStats {
    let n = csr.node_count();
    assert_eq!(tree.node_count(), n, "tree/graph size mismatch");
    mask.check_dims(n, csr.edge_count());
    let source = tree.source();
    if mask.node_failed(source) {
        let touched = tree.dist.iter().filter(|&&d| d != u128::MAX).count();
        *tree = ShortestPathTree::unreachable(source, n);
        return RepairStats {
            nodes_touched: touched,
        };
    }

    // Roots of the detached region: reachable nodes whose parent edge or
    // own router failed. A failed parent is a root itself (it cannot be
    // the live source), so its children fall inside its subtree.
    scratch.stack.clear();
    for e in mask.failed_edge_ids() {
        for x in csr.ends(EdgeId::new(e as usize)) {
            if tree.parent_edge[x as usize] == e {
                scratch.stack.push(x);
            }
        }
    }
    for v in mask.failed_node_ids() {
        if tree.parent_edge[v as usize] != NO_EDGE {
            scratch.stack.push(v);
        }
    }
    if scratch.stack.is_empty() {
        return RepairStats::default();
    }

    scratch.begin(n);
    let epoch = scratch.epoch;

    // Children as a CSR (counts → offsets → fill): O(n), flat buffers
    // retained across repairs, no Vec-per-node.
    tree.fill_children_csr(&mut scratch.offsets, &mut scratch.kids, &mut scratch.cursor);

    // Collect the affected subtrees; the `affected` stamps deduplicate
    // roots nested inside other roots' subtrees.
    while let Some(v) = scratch.stack.pop() {
        let vi = v as usize;
        if scratch.affected[vi] == epoch {
            continue;
        }
        scratch.affected[vi] = epoch;
        scratch.region.push(v);
        scratch.stack.extend_from_slice(
            &scratch.kids[scratch.offsets[vi] as usize..scratch.offsets[vi + 1] as usize],
        );
    }

    // Detach the region, then seed every live affected node with its best
    // entry point from the unaffected remainder (whose distances are
    // final: deletions only lengthen paths). Both endpoints are checked:
    // a failed affected node is never seeded, and a masked half-edge or
    // failed neighbor never offers an entry.
    for &v in &scratch.region {
        tree.clear_node(v as usize);
    }
    for &a in &scratch.region {
        if mask.node_failed(NodeId::new(a as usize)) {
            continue;
        }
        let ai = a as usize;
        for he in csr.adjacency(ai) {
            let bi = he.target as usize;
            if scratch.affected[bi] == epoch
                || tree.dist[bi] == u128::MAX
                || mask.half_edge_masked(he.edge, he.target)
            {
                continue;
            }
            let nd = tree.dist[bi] + he.weight;
            if nd < tree.dist[ai] {
                tree.settle(
                    NodeId::new(ai),
                    nd,
                    tree.base_dist[bi] + he.base,
                    tree.hops[bi] + 1,
                    Some((NodeId::new(bi), EdgeId::new(he.edge as usize))),
                );
            }
        }
        if tree.dist[ai] != u128::MAX {
            scratch.heap.push(Reverse(heap_key(tree.dist[ai], a)));
        }
    }

    // Dijkstra restricted to the affected region. Packed keys may pop
    // near-equal distances out of order, which is harmless for the same
    // reason as in the CSR kernel: every edge weighs at least 2^64.
    while let Some(Reverse(key)) = scratch.heap.pop() {
        let u = (key & NODE_MASK) as usize;
        if scratch.settled[u] == epoch {
            continue;
        }
        scratch.settled[u] = epoch;
        let d = tree.dist[u];
        for he in csr.adjacency(u) {
            let vi = he.target as usize;
            if scratch.affected[vi] != epoch
                || scratch.settled[vi] == epoch
                || mask.half_edge_masked(he.edge, he.target)
            {
                continue;
            }
            let nd = d + he.weight;
            if nd < tree.dist[vi] {
                tree.settle(
                    NodeId::new(vi),
                    nd,
                    tree.base_dist[u] + he.base,
                    tree.hops[u] + 1,
                    Some((NodeId::new(u), EdgeId::new(he.edge as usize))),
                );
                scratch.heap.push(Reverse(heap_key(nd, he.target)));
            }
        }
    }
    RepairStats {
        nodes_touched: scratch.region.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shortest_path_tree, CostModel, DetRng, FailureSet, Graph, Metric};

    fn model() -> CostModel {
        CostModel::new(Metric::Weighted, 17)
    }

    /// The same 5-node weighted graph the Dijkstra tests use.
    fn sample() -> Graph {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 10).unwrap();
        g.add_edge(0, 2, 3).unwrap();
        g.add_edge(2, 1, 4).unwrap();
        g.add_edge(1, 3, 2).unwrap();
        g.add_edge(2, 3, 8).unwrap();
        g.add_edge(3, 4, 7).unwrap();
        g.add_edge(2, 4, 20).unwrap();
        g
    }

    /// Deterministic pseudo-random multigraph (may be disconnected).
    fn random_graph(n: usize, edges: usize, seed: u64) -> Graph {
        let mut g = Graph::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        let mut added = 0usize;
        while added < edges {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                let w = rng.gen_range(1u32..=50);
                g.add_edge(a, b, w).unwrap();
                added += 1;
            }
        }
        g
    }

    /// Repairs a clone of `base` under `set`; returns it with the stats.
    fn repaired(
        csr: &CsrGraph,
        base: &ShortestPathTree,
        set: &FailureSet,
    ) -> (ShortestPathTree, RepairStats) {
        let mask = FailureMask::from_set(csr, set);
        let mut tree = base.clone();
        let stats = repair_after_failures(&mut tree, csr, &mask, &mut RepairScratch::new());
        assert_eq!(csr.validate_tree(&tree, Some(&mask)), Ok(()));
        (tree, stats)
    }

    #[test]
    fn single_failure_matches_rebuild_everywhere() {
        let g = sample();
        let m = model();
        let csr = CsrGraph::new(&g, &m);
        for s in g.nodes() {
            let base = shortest_path_tree(&g, &m, s);
            for e in g.edge_ids() {
                let failures = FailureSet::of_edge(e);
                let (tree, _) = repaired(&csr, &base, &failures);
                let rebuilt = shortest_path_tree(&failures.view(&g), &m, s);
                assert_eq!(tree, rebuilt, "source {s}, failed edge {e}");
            }
        }
    }

    #[test]
    fn non_tree_edge_failure_is_noop() {
        let g = sample();
        let m = model();
        let csr = CsrGraph::new(&g, &m);
        let tree = shortest_path_tree(&g, &m, 0.into());
        let non_tree: Vec<EdgeId> = g
            .edge_ids()
            .filter(|&e| {
                let (u, v) = g.endpoints(e);
                tree.parent_edge(u) != Some(e) && tree.parent_edge(v) != Some(e)
            })
            .collect();
        assert!(
            !non_tree.is_empty(),
            "sample graph must have non-tree edges"
        );
        for e in non_tree {
            let (repaired, stats) = repaired(&csr, &tree, &FailureSet::of_edge(e));
            assert_eq!(stats.nodes_touched, 0);
            assert_eq!(repaired, tree);
        }
    }

    #[test]
    fn bridge_failure_detaches_subtree() {
        let g = sample();
        let m = model();
        let csr = CsrGraph::new(&g, &m);
        // 3-4 is node 4's only cheap attachment; failing both its edges
        // makes 4 unreachable.
        let e34 = g.find_edge(3.into(), 4.into()).unwrap();
        let e24 = g.find_edge(2.into(), 4.into()).unwrap();
        let failures = FailureSet::of_edges([e34, e24]);
        let base = shortest_path_tree(&g, &m, 0.into());
        let (tree, stats) = repaired(&csr, &base, &failures);
        assert!(stats.nodes_touched >= 1);
        assert!(!tree.reachable(4.into()));
        assert_eq!(tree, shortest_path_tree(&failures.view(&g), &m, 0.into()));
    }

    #[test]
    fn parallel_edge_failure_falls_back_to_twin() {
        let mut g = Graph::new(2);
        let cheap = g.add_edge(0, 1, 1).unwrap();
        let pricey = g.add_edge(0, 1, 9).unwrap();
        let m = model();
        let csr = CsrGraph::new(&g, &m);
        let base = shortest_path_tree(&g, &m, 0.into());
        assert_eq!(base.parent_edge(1.into()), Some(cheap));
        let failures = FailureSet::of_edge(cheap);
        let (tree, stats) = repaired(&csr, &base, &failures);
        assert_eq!(stats.nodes_touched, 1);
        assert_eq!(tree.parent_edge(1.into()), Some(pricey));
        assert_eq!(tree, shortest_path_tree(&failures.view(&g), &m, 0.into()));
    }

    #[test]
    fn mixed_failures_match_rebuild_on_random_graphs() {
        for seed in 0..8u64 {
            let g = random_graph(40, 100, seed);
            let m = CostModel::new(Metric::Weighted, seed ^ 0xABCD);
            let csr = CsrGraph::new(&g, &m);
            let mut rng = DetRng::seed_from_u64(seed.wrapping_mul(77));
            let mut failures = FailureSet::new();
            for _ in 0..5 {
                failures.fail_edge(EdgeId::new(rng.gen_range(0..g.edge_count())));
            }
            failures.fail_node(NodeId::new(rng.gen_range(1..g.node_count())));
            let base = shortest_path_tree(&g, &m, 0.into());
            let (tree, _) = repaired(&csr, &base, &failures);
            let want = shortest_path_tree(&failures.view(&g), &m, 0.into());
            assert_eq!(tree, want, "seed {seed}");
        }
    }

    #[test]
    fn node_failure_matches_rebuild() {
        let g = sample();
        let m = model();
        let csr = CsrGraph::new(&g, &m);
        let base = shortest_path_tree(&g, &m, 0.into());
        for dead in 1..5usize {
            let failures = FailureSet::of_nodes([dead]);
            let (tree, _) = repaired(&csr, &base, &failures);
            assert_eq!(
                tree,
                shortest_path_tree(&failures.view(&g), &m, 0.into()),
                "failed node {dead}"
            );
            assert!(!tree.reachable(dead.into()));
        }
    }

    #[test]
    fn failed_node_never_reattaches() {
        // 0 -1- 1 -1- 2, plus a heavy 0-2. Failing router 1 detaches 1 and
        // 2; the live edge 0-1 must not re-seed the dead router.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let heavy = g.add_edge(0, 2, 10).unwrap();
        let m = model();
        let csr = CsrGraph::new(&g, &m);
        let base = shortest_path_tree(&g, &m, 0.into());
        let (tree, stats) = repaired(&csr, &base, &FailureSet::of_nodes([1usize]));
        assert_eq!(stats.nodes_touched, 2);
        assert!(!tree.reachable(1.into()));
        assert_eq!(tree.parent_edge(2.into()), Some(heavy));
    }

    #[test]
    fn failed_source_makes_every_node_unreachable() {
        let g = sample();
        let m = model();
        let csr = CsrGraph::new(&g, &m);
        let base = shortest_path_tree(&g, &m, 2.into());
        let (tree, stats) = repaired(&csr, &base, &FailureSet::of_nodes([2usize]));
        assert_eq!(stats.nodes_touched, g.node_count());
        assert!(g.nodes().all(|v| !tree.reachable(v)));
        assert_eq!(tree.source(), NodeId::new(2));
    }

    #[test]
    fn shared_scratch_matches_fresh_scratch() {
        // One scratch across many repairs (and across graphs of different
        // sizes) must behave exactly like fresh allocations each time.
        let mut scratch = RepairScratch::new();
        for seed in 0..4u64 {
            let g = random_graph(20 + 5 * seed as usize, 60, seed);
            let m = CostModel::new(Metric::Weighted, seed);
            let csr = CsrGraph::new(&g, &m);
            for e in g.edge_ids().step_by(7) {
                let failures = FailureSet::of_edge(e);
                let mask = FailureMask::from_set(&csr, &failures);
                let mut tree = shortest_path_tree(&g, &m, 0.into());
                repair_after_failures(&mut tree, &csr, &mask, &mut scratch);
                assert_eq!(tree, shortest_path_tree(&failures.view(&g), &m, 0.into()));
            }
        }
        assert!(scratch.runs() > 4);
    }
}
