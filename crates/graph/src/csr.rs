//! Compressed-sparse-row graph core and scratch-arena Dijkstra.
//!
//! The general-purpose [`Graph`] stores adjacency as `Vec<Vec<(NodeId,
//! EdgeId)>>` — one heap allocation per node — and every Dijkstra call
//! re-derives perturbed edge costs via `splitmix64` and allocates five
//! fresh working arrays. That is fine for one restoration, but the RBPC
//! provisioning phase runs *n* Dijkstras (one per source), and the eval
//! suites run thousands more. This module is the batch-friendly form of the
//! same computation:
//!
//! * [`CsrGraph`] — adjacency flattened into an `offsets` array plus one
//!   packed 32-byte record per half-edge (neighbor, edge id, and the
//!   perturbed `u128` cost of a fixed [`CostModel`] **precomputed**), so
//!   the relaxation inner loop streams one contiguous block per node with
//!   no hashing and no mixing;
//! * [`FailureMask`] — a bitset mirror of [`FailureSet`] so the masked
//!   traversal tests a bit instead of probing two ordered sets per half-edge;
//! * [`DijkstraScratch`] — a reusable arena holding one 48-byte working
//!   record per node (so a relaxation touches one cache line, not six
//!   parallel arrays) plus a heap of 16-byte node-packed keys, with
//!   epoch-stamped visited marks so resetting between runs is O(1);
//! * [`batch`] — the batched multi-source kernel ([`SptBatchScratch`],
//!   [`CsrGraph::full_tree_batch`]): structure-of-arrays scratch and an
//!   indexed 4-ary decrease-key heap for provisioning sweeps, where one
//!   scratch serves a whole batch of sources.
//!
//! The scalar searches — the full tree, [`CsrGraph::point_to_point`] and
//! greedy decomposition's probe [`CsrGraph::longest_tree_prefix`] — are
//! one Dijkstra built from three steps on the scratch (seed a source, pop
//! and settle the nearest node, relax its live half-edges) and differ only
//! in where they start and when they stop. The full tree and the probe's
//! fallback search from one end; `point_to_point` and the probe's first
//! check run the same steps from both ends at once and stop when the two
//! frontiers are farther apart than the cheapest meeting. Padded costs
//! make every shortest path unique, so a search cut short has settled each
//! node it reached with its full-tree parent, and a two-sided search finds
//! exactly the tree path.
//!
//! Determinism: the perturbed costs make shortest paths unique (see
//! [`CostModel`]), so the tree produced by [`CsrGraph::full_tree`] is
//! **bit-identical** to [`shortest_path_tree`](crate::shortest_path_tree)
//! over the same graph, model, and failures — regardless of traversal
//! order, scratch reuse, or which thread ran it. The property test
//! `tests/csr_parallel.rs` at the repository root enforces this.

use crate::spt::{NO_EDGE, NO_NODE};
use crate::{CostModel, EdgeId, FailureSet, Graph, NodeId, Path, ShortestPathTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub mod batch;

pub use batch::SptBatchScratch;

/// A [`Graph`] + [`CostModel`] frozen into flat CSR arrays for batch
/// shortest-path computation.
///
/// Built once with [`CsrGraph::new`]; all subsequent queries are
/// allocation-free when a [`DijkstraScratch`] is reused.
///
/// ```
/// use rbpc_graph::{csr::{CsrGraph, DijkstraScratch}, CostModel, Graph, Metric};
/// # fn main() -> Result<(), rbpc_graph::GraphError> {
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 2)?;
/// g.add_edge(1, 2, 2)?;
/// g.add_edge(0, 2, 10)?;
/// let model = CostModel::new(Metric::Weighted, 0);
/// let csr = CsrGraph::new(&g, &model);
/// let mut scratch = DijkstraScratch::new(csr.node_count());
/// let spt = csr.full_tree(0.into(), &mut scratch);
/// assert_eq!(spt.base_dist(2.into()), Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrGraph {
    n: usize,
    m: usize,
    /// `offsets[u] .. offsets[u + 1]` indexes the half-edges of node `u`.
    offsets: Vec<u32>,
    /// Packed half-edge records: one node's adjacency is one contiguous
    /// 32-bytes-per-edge block (rather than four parallel arrays), so
    /// scanning it streams a single cache-line run.
    half: Vec<HalfEdge>,
    /// `ends[e]` is edge `e`'s two endpoints, in the graph's order.
    ends: Vec<[u32; 2]>,
    model: CostModel,
}

/// One half-edge of the packed adjacency: precomputed perturbed and base
/// weights plus the neighbor and undirected edge id. Exactly 32 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HalfEdge {
    /// Precomputed perturbed weight under the frozen [`CostModel`].
    pub(crate) weight: u128,
    /// Precomputed base (original-metric) weight.
    pub(crate) base: u64,
    /// Neighbor node of this half-edge.
    pub(crate) target: u32,
    /// Undirected edge id of this half-edge.
    pub(crate) edge: u32,
}

/// Low-bit mask covering every legal node id (`MAX_NODES` is a power of
/// two, so ids fit in `MAX_NODES - 1`).
pub(crate) const NODE_MASK: u128 = (CostModel::MAX_NODES - 1) as u128;

/// Packs a node id into the low bits of its perturbed distance, making a
/// 16-byte heap entry instead of a 32-byte `(dist, node)` pair.
///
/// The packing overwrites the low 20 perturbation bits, so pop order can
/// differ from exact-distance order only between keys equal in the top
/// 108 bits — i.e. distances within `2^20` of each other. Every edge
/// weight is at least `1 << 64` (zero base weights are rejected at
/// construction), so no path through a node popped later can improve a
/// node popped earlier: the relaxation would add `>= 2^64`, dwarfing the
/// `< 2^21` key skew. Settle *order* may therefore differ from the
/// sequential implementation, but every settled distance — and hence the
/// tree — is bit-identical.
#[inline]
pub(crate) fn heap_key(dist: u128, node: u32) -> u128 {
    (dist & !NODE_MASK) | node as u128
}

impl CsrGraph {
    /// Flattens `graph` under `model`, precomputing perturbed costs.
    ///
    /// Half-edges keep the insertion order of [`Graph::neighbors`], so
    /// traversal order matches the `Vec<Vec>` path exactly (not that
    /// correctness needs it — perturbed costs are unique).
    ///
    /// # Panics
    ///
    /// Panics if the graph exceeds [`CostModel::MAX_NODES`] nodes.
    pub fn new(graph: &Graph, model: &CostModel) -> Self {
        let n = graph.node_count();
        let m = graph.edge_count();
        assert!(
            n <= CostModel::MAX_NODES,
            "graphs are limited to {} nodes (padding overflow)",
            CostModel::MAX_NODES
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut half = Vec::with_capacity(2 * m);
        offsets.push(0);
        for u in graph.nodes() {
            for h in graph.neighbors(u) {
                half.push(HalfEdge {
                    weight: model.perturbed_weight(graph, h.edge),
                    base: model.base_weight(graph, h.edge),
                    target: h.to.index() as u32,
                    edge: h.edge.index() as u32,
                });
            }
            offsets.push(half.len() as u32);
        }
        CsrGraph {
            n,
            m,
            offsets,
            half,
            ends: graph
                .edges()
                .map(|(_, rec)| [rec.u.index() as u32, rec.v.index() as u32])
                .collect(),
            model: *model,
        }
    }

    /// The half-edges stored at node `u` (crate-internal: the repair
    /// engine in [`dynamic`](crate::dynamic) walks them directly).
    #[inline]
    pub(crate) fn adjacency(&self, u: usize) -> &[HalfEdge] {
        &self.half[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Edge `e`'s two endpoints.
    #[inline]
    pub(crate) fn ends(&self, e: EdgeId) -> [u32; 2] {
        self.ends[e.index()]
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// The cost model the weights were precomputed under.
    #[inline]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Structural self-check of the CSR arrays: offsets are monotone and
    /// cover exactly `2m` half-edges, every half-edge is in range, every
    /// undirected edge id appears exactly twice with mirrored endpoints
    /// and identical weights between the recorded endpoints, and every
    /// perturbed weight carries its base
    /// weight in the high 64 bits (hence is at least `2^64` — the padding
    /// discipline Theorem 3's uniqueness argument and the packed
    /// packed heap keys both rely on).
    ///
    /// O(n + m); intended for `debug_assert!` and the validation
    /// harnesses (`rbpc-eval validate`, `tests/csr_parallel.rs`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let (n, m) = (self.n, self.m);
        if self.offsets.len() != n + 1 {
            return Err(format!(
                "offsets has length {}, expected {}",
                self.offsets.len(),
                n + 1
            ));
        }
        if self.offsets[0] != 0 {
            return Err("offsets must start at 0".to_string());
        }
        if let Some(u) = (0..n).find(|&u| self.offsets[u] > self.offsets[u + 1]) {
            return Err(format!("offsets decrease at node {u}"));
        }
        if self.offsets[n] as usize != self.half.len() || self.half.len() != 2 * m {
            return Err(format!(
                "half-edge count {} does not cover offsets end {} = 2m = {}",
                self.half.len(),
                self.offsets[n],
                2 * m
            ));
        }
        if self.ends.len() != m {
            return Err(format!(
                "{} edge endpoint pairs for {m} edges",
                self.ends.len()
            ));
        }
        // (from, to, weight, base) per appearance of each undirected edge.
        let mut twins: Vec<Vec<(u32, u32, u128, u64)>> = vec![Vec::new(); m];
        for u in 0..n {
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for he in &self.half[lo..hi] {
                if he.target as usize >= n {
                    return Err(format!(
                        "half-edge of {u} targets out-of-range {}",
                        he.target
                    ));
                }
                if he.edge as usize >= m {
                    return Err(format!(
                        "half-edge of {u} names out-of-range edge {}",
                        he.edge
                    ));
                }
                if he.base == 0 {
                    return Err(format!("edge {} has zero base weight", he.edge));
                }
                if he.weight >> 64 != he.base as u128 {
                    return Err(format!(
                        "edge {} perturbed weight does not carry its base weight \
                         in the high 64 bits (so it is not >= 2^64-padded)",
                        he.edge
                    ));
                }
                twins[he.edge as usize].push((u as u32, he.target, he.weight, he.base));
            }
        }
        for (e, t) in twins.iter().enumerate() {
            if t.len() != 2 {
                return Err(format!("edge {e} has {} half-edges, expected 2", t.len()));
            }
            let ((f1, t1, w1, b1), (f2, t2, w2, b2)) = (t[0], t[1]);
            if t1 != f2 || t2 != f1 {
                return Err(format!("edge {e} half-edges do not mirror each other"));
            }
            if [f1, t1] != self.ends[e] && [t1, f1] != self.ends[e] {
                return Err(format!("edge {e} endpoints disagree with its half-edges"));
            }
            if w1 != w2 || b1 != b2 {
                return Err(format!("edge {e} half-edges disagree on weight"));
            }
        }
        Ok(())
    }

    /// Full consistency check of a tree against this graph (and optional
    /// mask): structure (via
    /// [`ShortestPathTree::validate_structure`]), parent edges that really
    /// exist unmasked with exactly matching distance sums, failed nodes
    /// unreachable, no live edge left relaxable (optimality), and — the
    /// perturbation discipline's signature — **no ties**: any live edge
    /// that exactly achieves a node's distance must *be* that node's
    /// parent edge, otherwise two distinct shortest paths coexist and
    /// Theorem 3's uniqueness is broken.
    ///
    /// O(n + m); intended for `debug_assert!` and the validation
    /// harnesses.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_tree(
        &self,
        tree: &ShortestPathTree,
        mask: Option<&FailureMask>,
    ) -> Result<(), String> {
        tree.validate_structure()?;
        if tree.node_count() != self.n {
            return Err(format!(
                "tree covers {} nodes, graph has {}",
                tree.node_count(),
                self.n
            ));
        }
        if let Some(msk) = mask {
            if msk.n != self.n || msk.m != self.m {
                return Err("failure mask dimensions do not match the graph".to_string());
            }
        }
        let masked = |e: u32, v: u32| mask.is_some_and(|m| m.half_edge_masked(e, v));
        let node_dead = |v: usize| mask.is_some_and(|m| m.node_failed(NodeId::new(v)));
        let src = tree.source().index();
        if node_dead(src) {
            if let Some(v) = (0..self.n).find(|&v| tree.reachable(NodeId::new(v))) {
                return Err(format!("source {src} failed but node {v} is reachable"));
            }
            return Ok(());
        }
        if !tree.reachable(tree.source()) {
            return Err(format!("live source {src} is unreachable in its own tree"));
        }
        for u in 0..self.n {
            if node_dead(u) {
                if tree.reachable(NodeId::new(u)) {
                    return Err(format!("failed node {u} is reachable"));
                }
                continue;
            }
            if !tree.reachable(NodeId::new(u)) {
                continue;
            }
            let du = tree.dist[u];
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for he in &self.half[lo..hi] {
                let v = he.target as usize;
                if masked(he.edge, he.target) {
                    continue;
                }
                if !tree.reachable(NodeId::new(v)) {
                    return Err(format!(
                        "edge {} reaches node {v} from settled {u}, yet {v} is unreachable",
                        he.edge
                    ));
                }
                let nd = du + he.weight;
                let dv = tree.dist[v];
                if nd < dv {
                    return Err(format!(
                        "edge {} from {u} improves node {v}: tree is not optimal",
                        he.edge
                    ));
                }
                if nd == dv && (tree.parent_node[v] != u as u32 || tree.parent_edge[v] != he.edge) {
                    return Err(format!(
                        "edge {} from {u} ties node {v}'s distance without being its \
                         parent edge: perturbed shortest paths are not unique",
                        he.edge
                    ));
                }
            }
        }
        // Parent edges must exist in the adjacency, unmasked, with sums
        // that match exactly (not just non-improving).
        for v in 0..self.n {
            if !tree.reachable(NodeId::new(v)) || v == src {
                continue;
            }
            let (pe, pu) = (tree.parent_edge[v], tree.parent_node[v] as usize);
            if masked(pe, v as u32) {
                return Err(format!("node {v}'s parent edge {pe} is masked"));
            }
            let (lo, hi) = (self.offsets[pu] as usize, self.offsets[pu + 1] as usize);
            let Some(he) = self.half[lo..hi]
                .iter()
                .find(|he| he.edge == pe && he.target as usize == v)
            else {
                return Err(format!(
                    "node {v}'s parent edge {pe} does not exist from parent {pu}"
                ));
            };
            if tree.dist[v] != tree.dist[pu] + he.weight
                || tree.base_dist[v] != tree.base_dist[pu] + he.base
                || tree.hops[v] != tree.hops[pu] + 1
            {
                return Err(format!(
                    "node {v}'s distances are not parent {pu}'s plus edge {pe}"
                ));
            }
        }
        Ok(())
    }

    /// Computes the full shortest-path tree from `source`, reusing
    /// `scratch`. Bit-identical to
    /// [`shortest_path_tree`](crate::shortest_path_tree) on the source
    /// graph and model.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn full_tree(&self, source: NodeId, scratch: &mut DijkstraScratch) -> ShortestPathTree {
        self.full_tree_masked(source, None, scratch)
    }

    /// [`CsrGraph::full_tree`] with an optional failure mask applied —
    /// the CSR analogue of running over a
    /// [`FailureView`](crate::FailureView).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `mask` was built for
    /// different graph dimensions.
    pub fn full_tree_masked(
        &self,
        source: NodeId,
        mask: Option<&FailureMask>,
        scratch: &mut DijkstraScratch,
    ) -> ShortestPathTree {
        assert!(source.index() < self.n, "source {source} out of range");
        if let Some(m) = mask {
            m.check_dims(self.n, self.m);
        }
        if mask.is_some_and(|m| m.node_failed(source)) {
            return ShortestPathTree::unreachable(source, self.n);
        }
        // Monomorphize the search per mask-ness: the unmasked copy
        // compiles the predicate away entirely.
        match mask {
            Some(m) => self.tree_inner(source, scratch, |e, v| m.half_edge_masked(e, v)),
            None => self.tree_inner(source, scratch, |_, _| false),
        }
    }

    /// The full-tree search, generic over the half-edge mask predicate:
    /// settles until the heap runs dry, then harvests the tree with one
    /// sequential pass in which each output element is written exactly
    /// once (settled value or unreachable sentinel).
    fn tree_inner<F: Fn(u32, u32) -> bool>(
        &self,
        source: NodeId,
        scratch: &mut DijkstraScratch,
        masked: F,
    ) -> ShortestPathTree {
        let ep = scratch.begin(self.n);
        let DijkstraScratch {
            nodes,
            heap,
            settled_total,
            ..
        } = scratch;
        seed(nodes, heap, source.index(), ep);
        // lint:hot: the settle loop.
        while let Some(u) = pop(nodes, heap, ep, settled_total) {
            self.relax(nodes, heap, u, ep, &masked, |_, _| {});
        }

        // Every touched node is settled now, so the settled stamp alone
        // separates reached from unreachable.
        let n = self.n;
        let mut dist = Vec::with_capacity(n);
        let mut base_dist = Vec::with_capacity(n);
        let mut hops = Vec::with_capacity(n);
        let mut parent_edge = Vec::with_capacity(n);
        let mut parent_node = Vec::with_capacity(n);
        for rec in &nodes[..n] {
            if rec.stamp == ep + 1 {
                dist.push(rec.dist);
                base_dist.push(rec.base);
                hops.push(rec.hops);
                parent_edge.push(rec.parent_edge);
                parent_node.push(rec.parent_node);
            } else {
                dist.push(u128::MAX);
                base_dist.push(u64::MAX);
                hops.push(u32::MAX);
                parent_edge.push(NO_EDGE);
                parent_node.push(NO_NODE);
            }
        }
        ShortestPathTree::from_arrays(source, dist, base_dist, hops, parent_edge, parent_node)
    }

    /// Single-pair shortest path under an optional failure mask, reusing
    /// `scratch`: the same unique path as
    /// [`shortest_path`](crate::shortest_path), i.e. `t`'s path in `s`'s
    /// tree, or `None` if an endpoint failed or the pair is disconnected.
    ///
    /// One two-sided search answers it: Dijkstra from `s` and from `t` at
    /// once, stopped when the two frontiers are farther apart than the
    /// cheapest path between them found so far. That settles a ball of
    /// about half the radius around each end, rather than the ball around
    /// `s` that reaches `t`. Padded costs make the cheapest `s → t` path
    /// unique, so it is exactly the path the full tree would hold.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range, or `mask` was built for
    /// different graph dimensions.
    pub fn point_to_point(
        &self,
        s: NodeId,
        t: NodeId,
        mask: Option<&FailureMask>,
        scratch: &mut DijkstraScratch,
    ) -> Option<Path> {
        assert!(s.index() < self.n, "source {s} out of range");
        assert!(t.index() < self.n, "target {t} out of range");
        if let Some(m) = mask {
            m.check_dims(self.n, self.m);
            if m.node_failed(s) || m.node_failed(t) {
                return None;
            }
        }
        if s == t {
            return Some(Path::trivial(s));
        }
        let (a, b) = (s.index(), t.index());
        let meeting = match mask {
            Some(m) => self.two_sided(a, b, u128::MAX, scratch, |e, v| m.half_edge_masked(e, v)),
            None => self.two_sided(a, b, u128::MAX, scratch, |_, _| false),
        }?;
        Some(scratch.join(meeting))
    }

    /// The end of the longest prefix of the path `nodes`/`edges` starting
    /// at `from` that is a path of `nodes[from]`'s shortest-path tree: the
    /// largest `j ≥ from` such that, for every `k` in `from..j`, the tree
    /// parent of `nodes[k + 1]` is `nodes[k]` through `edges[k]`. Equal to
    /// the [`ShortestPathTree::is_tree_step`] walk over
    /// [`CsrGraph::full_tree`]`(nodes[from])`, without building the tree.
    ///
    /// An unmasked Dijkstra settles every node with its final tree parent,
    /// and a tree path settles in path order (a child is at least one
    /// padded edge weight, `≥ 2^64`, farther than its parent). So the
    /// search checks each path node as it settles and returns at the first
    /// mismatch or at the end of the path, touching only the ball out to
    /// that node. A later path node that settled before its predecessor
    /// cannot be that predecessor's child, so it ends the prefix too.
    ///
    /// The common answer is the whole rest of the path (the last segment
    /// of a greedy decomposition), so that is checked first: padded costs
    /// make shortest paths unique, so the rest is a tree path iff no path
    /// between its ends is cheaper. A two-sided search answers that from
    /// a ball of about half the radius around each end.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range, `edges` is not one shorter than
    /// `nodes`, or `nodes[from]` is out of range.
    pub fn longest_tree_prefix(
        &self,
        nodes: &[NodeId],
        edges: &[EdgeId],
        from: usize,
        scratch: &mut DijkstraScratch,
    ) -> usize {
        assert!(from < nodes.len(), "from out of range");
        assert_eq!(edges.len() + 1, nodes.len(), "a path has one edge per hop");
        let s = nodes[from].index();
        assert!(s < self.n, "source {s} out of range");
        let last = edges.len();
        if from == last {
            return from;
        }
        if let Some(cost) = self.walk_cost(nodes, edges, from) {
            if self.nothing_cheaper(s, nodes[last].index(), cost, scratch) {
                return last;
            }
        }
        let ep = scratch.begin(self.n);
        let DijkstraScratch {
            nodes: recs,
            heap,
            settled_total,
            ..
        } = scratch;
        seed(recs, heap, s, ep);

        // The prefix ends at `end`; `want` (path index `end + 1`) must
        // settle next, as the child of `want_parent` through `want_edge`.
        let mut end = from;
        let mut want = nodes[from + 1].index();
        let (mut want_parent, mut want_edge) = (s, edges[from].index());
        // lint:hot: the settle loop. Matching a path node is one compare
        // per settle; the check behind it runs once per path node.
        while let Some(u) = pop(recs, heap, ep, settled_total) {
            if u == want {
                if recs[u].parent_node as usize != want_parent
                    || recs[u].parent_edge as usize != want_edge
                {
                    break;
                }
                end += 1;
                if end == last {
                    break;
                }
                want_parent = u;
                want_edge = edges[end].index();
                // lint:allow(hot-path) — `end < last = nodes.len() - 1`, so `end + 1` is in bounds
                want = nodes[end + 1].index();
                if recs[want].stamp == ep + 1 {
                    break;
                }
            }
            self.relax(recs, heap, u, ep, |_, _| false, |_, _| {});
        }
        end
    }

    /// The padded cost of the walk `nodes[from..]` over `edges[from..]`,
    /// or `None` if some `edges[k]` does not join `nodes[k]` to
    /// `nodes[k + 1]`.
    fn walk_cost(&self, nodes: &[NodeId], edges: &[EdgeId], from: usize) -> Option<u128> {
        (from..edges.len()).try_fold(0u128, |cost, k| {
            let (e, to) = (edges[k].index(), nodes[k + 1].index());
            let he = self
                .adjacency(nodes[k].index())
                .iter()
                .find(|he| he.edge as usize == e && he.target as usize == to)?;
            Some(cost + he.weight)
        })
    }

    /// Whether no `a → b` path is cheaper than `cost`, the padded cost of
    /// a known one: the two-sided search bounded by `cost` finds no
    /// meeting below it.
    fn nothing_cheaper(
        &self,
        a: usize,
        b: usize,
        cost: u128,
        scratch: &mut DijkstraScratch,
    ) -> bool {
        // A path of one or more edges back to its start is never a
        // shortest path.
        a != b && self.two_sided(a, b, cost, scratch, |_, _| false).is_none()
    }

    /// The two-sided search: a Dijkstra from `s` on the scratch's forward
    /// side and one from `t` on its backward side (an undirected edge
    /// weighs the same both ways, so the backward side's distances are
    /// distances to `t`), always expanding the side whose frontier is
    /// nearer. Each live half-edge a side relaxes is checked against the
    /// other side's record: a node the other side has reached closes an
    /// `s → t` walk, and the cheapest one below `bound` is kept.
    ///
    /// The search stops once the two frontier keys, each lowered by
    /// `NODE_MASK`, add up to at least the cheapest meeting (or `bound`):
    /// `heap_key` moves a distance by less than `NODE_MASK`, so every node
    /// a side has not settled lies at least `key - NODE_MASK` from that
    /// side's end, and a path on which a node the forward side has not
    /// settled comes no later than one the backward side has not settled
    /// costs at least the sum. Any other path has a hop `x → y` with its
    /// whole prefix to `x` settled forward and `y` settled backward; when the
    /// later of the two settled, it relaxed that hop into a node its own
    /// side had not settled (each side settles the path's nodes in path
    /// order, a padded edge apart) and met the other's final distance. A
    /// side that runs dry has settled its end's whole component, the other
    /// end included, so the hop into that end was checked too.
    ///
    /// Returns the cheapest meeting below `bound`, or `None` if there is
    /// none. The meeting's two nodes hold the parent chains [`join`] walks:
    /// a meeting of cost `c` was closed by records at their final
    /// distances, and a relaxation replaces a parent only on a strictly
    /// smaller distance, so neither chain changes afterwards.
    ///
    /// [`join`]: DijkstraScratch::join
    fn two_sided<F: Fn(u32, u32) -> bool>(
        &self,
        s: usize,
        t: usize,
        bound: u128,
        scratch: &mut DijkstraScratch,
        masked: F,
    ) -> Option<Meeting> {
        let ep = scratch.begin(self.n);
        scratch.begin_back(self.n);
        let DijkstraScratch {
            nodes: fwd,
            heap: fwd_heap,
            back: bwd,
            back_heap: bwd_heap,
            settled_total,
            ..
        } = scratch;
        seed(fwd, fwd_heap, s, ep);
        seed(bwd, bwd_heap, t, ep);

        let mut best = bound;
        let mut meeting = None;
        // lint:hot: the two-sided settle loop.
        while let (Some(&Reverse(kf)), Some(&Reverse(kb))) = (fwd_heap.peek(), bwd_heap.peek()) {
            if kf.saturating_sub(NODE_MASK) + kb.saturating_sub(NODE_MASK) >= best {
                break;
            }
            let forward = kf <= kb;
            let (recs, heap, other) = if forward {
                (&mut *fwd, &mut *fwd_heap, &*bwd)
            } else {
                (&mut *bwd, &mut *bwd_heap, &*fwd)
            };
            let Some(u) = pop(recs, heap, ep, settled_total) else {
                break;
            };
            self.relax(recs, heap, u, ep, &masked, |he, nd| {
                let v = he.target as usize;
                let seen = &other[v];
                if (seen.stamp == ep || seen.stamp == ep + 1) && nd + seen.dist < best {
                    best = nd + seen.dist;
                    // lint:allow(hot-path) — node ids are < n ≤ u32::MAX by CsrGraph construction; `u as u32` cannot truncate
                    let (near, far) = (u as u32, he.target);
                    let (a, b) = if forward { (near, far) } else { (far, near) };
                    meeting = Some(Meeting {
                        fwd: a,
                        edge: he.edge,
                        back: b,
                    });
                }
            });
        }
        meeting
    }

    /// The relax step: relaxes every live half-edge out of the settled
    /// node `u` into the nodes not yet settled this run, recording `u` as
    /// the parent of each node it improves. `masked(edge, to)` marks a
    /// half-edge dead; `meet(half_edge, dist)` first sees each live
    /// half-edge into an unsettled node with the distance it offers that
    /// node (the two-sided search checks the other side there; the
    /// one-sided searches pass a no-op).
    // lint:hot
    #[inline]
    fn relax<F: Fn(u32, u32) -> bool, M: FnMut(&HalfEdge, u128)>(
        &self,
        recs: &mut [NodeRec],
        heap: &mut Heap,
        u: usize,
        ep: u32,
        masked: F,
        mut meet: M,
    ) {
        let NodeRec {
            dist: d,
            base: ub,
            hops: uh,
            ..
        } = recs[u];
        // lint:allow(hot-path) — `offsets` has n+1 entries, so `u + 1` is in bounds for every settled node id
        let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
        for he in &self.half[lo..hi] {
            let vt = he.target;
            let rec = &mut recs[vt as usize];
            if rec.stamp == ep + 1 || masked(he.edge, vt) {
                continue;
            }
            let nd = d + he.weight;
            meet(he, nd);
            if rec.stamp != ep || nd < rec.dist {
                *rec = NodeRec {
                    dist: nd,
                    base: ub + he.base,
                    stamp: ep,
                    hops: uh + 1,
                    // lint:allow(hot-path) — node ids are < n ≤ u32::MAX by CsrGraph construction; `u as u32` cannot truncate
                    parent_node: u as u32,
                    parent_edge: he.edge,
                };
                // lint:allow(hot-path) — the scratch heap keeps its capacity across runs; pushes are amortized alloc-free
                heap.push(Reverse(heap_key(nd, vt)));
            }
        }
    }
}

/// A scratch heap of node-packed keys (see [`heap_key`]), min-first.
type Heap = BinaryHeap<Reverse<u128>>;

/// The seed step: starts one side of the run stamped `ep` from `s`. The
/// heap is emptied, so entries an early exit left behind cannot leak into
/// this run; records left behind carry an older stamp and read as
/// untouched.
// lint:hot
#[inline]
fn seed(recs: &mut [NodeRec], heap: &mut Heap, s: usize, ep: u32) {
    heap.clear();
    recs[s] = NodeRec {
        dist: 0,
        base: 0,
        stamp: ep,
        hops: 0,
        parent_node: NO_NODE,
        parent_edge: NO_EDGE,
    };
    // lint:allow(hot-path) — `s < n ≤ u32::MAX` by CsrGraph construction, and the scratch heap keeps its capacity across runs
    heap.push(Reverse(heap_key(0, s as u32)));
}

/// The pop step: pops the nearest node not yet settled in the run
/// stamped `ep`, settles it (stamp `ep + 1`) and counts it in `settled`.
/// `None` once the heap runs dry.
// lint:hot
#[inline]
fn pop(recs: &mut [NodeRec], heap: &mut Heap, ep: u32, settled: &mut u64) -> Option<usize> {
    while let Some(Reverse(key)) = heap.pop() {
        let u = (key & NODE_MASK) as usize;
        if recs[u].stamp != ep + 1 {
            recs[u].stamp = ep + 1;
            *settled += 1;
            return Some(u);
        }
    }
    None
}

/// Bitset mirror of a [`FailureSet`] sized to one [`CsrGraph`]: the masked
/// traversal tests one bit per half-edge instead of probing hash sets.
///
/// A failed node masks itself and (by the endpoint check in the traversal)
/// every incident half-edge, matching [`FailureView`](crate::FailureView)
/// semantics.
#[derive(Debug, Clone)]
pub struct FailureMask {
    n: usize,
    m: usize,
    edges: Vec<u64>,
    nodes: Vec<u64>,
}

#[inline]
fn bit_get(words: &[u64], i: u32) -> bool {
    words[(i >> 6) as usize] & (1u64 << (i & 63)) != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] |= 1u64 << (i & 63);
}

/// The indices of the set bits of `words`, ascending: one word read per
/// 64 ids plus one step per set bit.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                (i as u32) << 6 | bit
            })
        })
    })
}

impl FailureMask {
    /// An all-clear mask for a graph with `nodes` nodes and `edges` edges.
    pub fn new(nodes: usize, edges: usize) -> Self {
        FailureMask {
            n: nodes,
            m: edges,
            edges: vec![0; edges.div_ceil(64)],
            nodes: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Builds the mask equivalent of `set` for `csr`'s dimensions.
    pub fn from_set(csr: &CsrGraph, set: &FailureSet) -> Self {
        let mut mask = FailureMask::new(csr.node_count(), csr.edge_count());
        for e in set.failed_edges() {
            mask.fail_edge(e);
        }
        for v in set.failed_nodes() {
            mask.fail_node(v);
        }
        mask
    }

    /// Marks an edge as failed.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn fail_edge(&mut self, e: EdgeId) {
        assert!(e.index() < self.m, "edge {e} out of range");
        bit_set(&mut self.edges, e.index() as u32);
    }

    /// Marks a node (and implicitly its incident edges) as failed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn fail_node(&mut self, v: NodeId) {
        assert!(v.index() < self.n, "node {v} out of range");
        bit_set(&mut self.nodes, v.index() as u32);
    }

    /// Whether this node is failed.
    #[inline]
    pub fn node_failed(&self, v: NodeId) -> bool {
        bit_get(&self.nodes, v.index() as u32)
    }

    /// Whether this edge is explicitly failed (node failures not considered).
    #[inline]
    pub fn edge_failed(&self, e: EdgeId) -> bool {
        bit_get(&self.edges, e.index() as u32)
    }

    /// Ids of the explicitly failed edges, ascending.
    pub(crate) fn failed_edge_ids(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.edges)
    }

    /// Ids of the failed nodes, ascending.
    pub(crate) fn failed_node_ids(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.nodes)
    }

    /// Traversal predicate: half-edge `edge → to` is unusable. The
    /// traversing endpoint is known alive (Dijkstra never enters a failed
    /// node), so checking `to` covers both endpoints.
    #[inline]
    pub(crate) fn half_edge_masked(&self, edge: u32, to: u32) -> bool {
        bit_get(&self.edges, edge) || bit_get(&self.nodes, to)
    }

    pub(crate) fn check_dims(&self, n: usize, m: usize) {
        assert!(
            self.n == n && self.m == m,
            "failure mask built for {}x{} applied to a {n}x{m} graph",
            self.n,
            self.m
        );
    }
}

/// Per-node Dijkstra working record. Everything a relaxation reads or
/// writes for node `v` lives in this one 48-byte struct, so visiting a
/// node costs roughly one cache line instead of six parallel-array
/// accesses (the array-of-structs layout is what makes the CSR engine
/// faster than the general path, which is memory-bound on exactly those
/// scattered accesses).
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    dist: u128,
    base: u64,
    /// Merged epoch stamp: `== epoch` ⇔ touched (`dist` valid this run),
    /// `== epoch + 1` ⇔ settled this run, anything else stale.
    stamp: u32,
    hops: u32,
    parent_node: u32,
    parent_edge: u32,
}

/// Where the cheapest path a two-sided search found crosses between its
/// sides: the half-edge `edge` from `fwd`, reached by the forward side, to
/// `back`, reached by the backward side.
#[derive(Clone, Copy)]
struct Meeting {
    fwd: u32,
    edge: u32,
    back: u32,
}

const EMPTY_REC: NodeRec = NodeRec {
    dist: 0,
    base: 0,
    stamp: 0,
    hops: 0,
    parent_node: 0,
    parent_edge: 0,
};

/// Reusable Dijkstra working memory: one record per node plus the heap,
/// with epoch-stamped visited marks, so a fresh run only clears the heap
/// and bumps an epoch — O(1) — instead of refilling O(n) arrays.
///
/// [`CsrGraph::point_to_point`] and [`CsrGraph::longest_tree_prefix`]
/// also search from the far end; that side gets a second record array and
/// heap, allocated on first use.
///
/// One scratch serves any number of runs over graphs up to its capacity
/// (it grows on demand), and any mix of [`CsrGraph::full_tree_masked`],
/// [`CsrGraph::point_to_point`] and [`CsrGraph::longest_tree_prefix`]
/// calls. Not `Sync`: use one per thread.
#[derive(Debug, Clone)]
pub struct DijkstraScratch {
    /// Current run stamp, always even; steps by 2 per run.
    epoch: u32,
    nodes: Vec<NodeRec>,
    heap: BinaryHeap<Reverse<u128>>,
    /// The backward side of a two-sided search, stamped with the same
    /// epoch as `nodes`; empty until the first such search.
    back: Vec<NodeRec>,
    back_heap: BinaryHeap<Reverse<u128>>,
    runs: u64,
    settled_total: u64,
}

impl DijkstraScratch {
    /// A scratch arena with capacity for `n`-node graphs (grows on demand).
    ///
    /// The heap is pre-reserved from the node count — the lazy-deletion
    /// heap holds one entry per relaxation (typically a small multiple of
    /// `n`), and starting from zero capacity used to force a reallocation
    /// cascade inside the first run of every fresh scratch.
    pub fn new(n: usize) -> Self {
        DijkstraScratch {
            epoch: 0,
            nodes: vec![EMPTY_REC; n],
            heap: BinaryHeap::with_capacity(n),
            back: Vec::new(),
            back_heap: BinaryHeap::new(),
            runs: 0,
            settled_total: 0,
        }
    }

    /// Prepares for a run over an `n`-node graph and returns its stamp:
    /// bumps the epoch (handling wrap-around), so every record of an
    /// earlier run reads as untouched, and grows the records if needed.
    /// The heap grows alongside them and keeps its capacity across runs,
    /// so a reused scratch never reallocates mid-sweep; [`seed`] empties
    /// it.
    fn begin(&mut self, n: usize) -> u32 {
        if self.nodes.len() < n {
            self.nodes.resize(n, EMPTY_REC);
            self.heap.reserve(n);
        }
        self.epoch = self.epoch.wrapping_add(2);
        if self.epoch == 0 {
            // u32 wrapped after ~2 billion runs: old stamps could collide.
            self.nodes
                .iter_mut()
                .chain(self.back.iter_mut())
                .for_each(|r| r.stamp = 0);
            self.epoch = 2;
        }
        self.runs += 1;
        self.epoch
    }

    /// Grows the backward side of a two-sided search to an `n`-node
    /// graph. It shares the stamp [`begin`](Self::begin) returned.
    fn begin_back(&mut self, n: usize) {
        if self.back.len() < n {
            self.back.resize(n, EMPTY_REC);
            self.back_heap.reserve(n);
        }
    }

    /// The path a two-sided search found through `m`: the forward
    /// parent chain from the source to `m.fwd`, the meeting edge, then
    /// the backward parent chain from `m.back` out to the target (cold:
    /// runs once per query).
    fn join(&self, m: Meeting) -> Path {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        let mut at = m.fwd as usize;
        nodes.push(NodeId::new(at));
        while self.nodes[at].parent_node != NO_NODE {
            edges.push(EdgeId::new(self.nodes[at].parent_edge as usize));
            at = self.nodes[at].parent_node as usize;
            nodes.push(NodeId::new(at));
        }
        nodes.reverse();
        edges.reverse();
        edges.push(EdgeId::new(m.edge as usize));
        let mut at = m.back as usize;
        nodes.push(NodeId::new(at));
        while self.back[at].parent_node != NO_NODE {
            edges.push(EdgeId::new(self.back[at].parent_edge as usize));
            at = self.back[at].parent_node as usize;
            nodes.push(NodeId::new(at));
        }
        Path::from_parts_unchecked(nodes, edges)
    }

    /// Number of runs served so far (reuses = `runs() - 1` for the first
    /// allocation).
    #[inline]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total nodes settled across all runs (perf accounting).
    #[inline]
    pub fn settled_total(&self) -> u64 {
        self.settled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shortest_path, shortest_path_tree, DetRng, Metric};

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

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut g = Graph::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        while g.edge_count() < m {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                let w = rng.gen_range(1..=50u32);
                g.add_edge(a, b, w).unwrap();
            }
        }
        g
    }

    #[test]
    fn full_tree_matches_sequential() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        for s in g.nodes() {
            let want = shortest_path_tree(&g, &model, s);
            let got = csr.full_tree(s, &mut scratch);
            assert_eq!(got, want, "tree from {s}");
        }
        assert_eq!(scratch.runs(), 5);
        assert!(scratch.settled_total() >= 25);
    }

    #[test]
    fn full_tree_matches_sequential_random_reused_scratch() {
        let model = CostModel::new(Metric::Unweighted, 3);
        let mut scratch = DijkstraScratch::new(0);
        for seed in 0..4u64 {
            let g = random_graph(40, 90, seed);
            let csr = CsrGraph::new(&g, &model);
            for s in g.nodes() {
                let want = shortest_path_tree(&g, &model, s);
                let got = csr.full_tree(s, &mut scratch);
                assert_eq!(got, want, "seed {seed} source {s}");
            }
        }
    }

    #[test]
    fn masked_tree_matches_failure_view() {
        let g = random_graph(30, 70, 9);
        let model = CostModel::new(Metric::Weighted, 5);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        let mut rng = DetRng::seed_from_u64(42);
        for _ in 0..10 {
            let mut set = FailureSet::new();
            for _ in 0..3 {
                set.fail_edge(EdgeId::new(rng.gen_range(0..g.edge_count())));
            }
            set.fail_node(NodeId::new(rng.gen_range(0..g.node_count())));
            let mask = FailureMask::from_set(&csr, &set);
            let view = set.view(&g);
            for s in g.nodes() {
                let want = shortest_path_tree(&view, &model, s);
                let got = csr.full_tree_masked(s, Some(&mask), &mut scratch);
                assert_eq!(got, want, "masked tree from {s}");
            }
        }
    }

    #[test]
    fn failed_source_is_all_unreachable() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 1);
        let csr = CsrGraph::new(&g, &model);
        let mut mask = FailureMask::new(csr.node_count(), csr.edge_count());
        mask.fail_node(0.into());
        let mut scratch = DijkstraScratch::new(csr.node_count());
        let t = csr.full_tree_masked(0.into(), Some(&mask), &mut scratch);
        for v in g.nodes() {
            assert!(!t.reachable(v));
        }
        assert_eq!(
            csr.point_to_point(0.into(), 4.into(), Some(&mask), &mut scratch),
            None
        );
        assert_eq!(
            csr.point_to_point(4.into(), 0.into(), Some(&mask), &mut scratch),
            None
        );
    }

    #[test]
    fn point_to_point_matches_sequential() {
        let g = random_graph(30, 70, 11);
        let model = CostModel::new(Metric::Weighted, 23);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        for s in g.nodes() {
            for t in g.nodes() {
                let want = shortest_path(&g, &model, s, t);
                let got = csr.point_to_point(s, t, None, &mut scratch);
                assert_eq!(got, want, "{s} -> {t}");
            }
        }
    }

    #[test]
    fn point_to_point_trivial_and_masked() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        let p = csr
            .point_to_point(2.into(), 2.into(), None, &mut scratch)
            .unwrap();
        assert!(p.is_trivial());
        // Fail 0-2; path to 2 must go 0-1-2 = 14, as in the dijkstra tests.
        let e = g.find_edge(0.into(), 2.into()).unwrap();
        let set = FailureSet::of_edge(e);
        let mask = FailureMask::from_set(&csr, &set);
        let p = csr
            .point_to_point(0.into(), 2.into(), Some(&mask), &mut scratch)
            .unwrap();
        assert_eq!(p.cost(&g, &model).base, 14);
        assert!(!p.contains_edge(e));
    }

    #[test]
    fn ends_name_both_endpoints() {
        let g = sample();
        let csr = CsrGraph::new(&g, &CostModel::new(Metric::Weighted, 17));
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            assert_eq!(csr.ends(e), [u.index() as u32, v.index() as u32]);
        }
    }

    #[test]
    fn mask_lists_failed_ids_in_order() {
        let mut mask = FailureMask::new(130, 200);
        for e in [199usize, 0, 63, 64, 127] {
            mask.fail_edge(EdgeId::new(e));
        }
        mask.fail_node(NodeId::new(129));
        assert_eq!(
            mask.failed_edge_ids().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 199]
        );
        assert_eq!(mask.failed_node_ids().collect::<Vec<_>>(), vec![129]);
    }

    #[test]
    fn mask_mirrors_failure_set() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut set = FailureSet::new();
        set.fail_edge(EdgeId::new(3));
        set.fail_node(NodeId::new(4));
        let mask = FailureMask::from_set(&csr, &set);
        for e in g.edge_ids() {
            assert_eq!(mask.edge_failed(e), set.edge_failed(e), "edge {e}");
        }
        for v in g.nodes() {
            assert_eq!(mask.node_failed(v), set.node_failed(v), "node {v}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = sample();
        let csr = CsrGraph::new(&g, &CostModel::new(Metric::Weighted, 0));
        let mut scratch = DijkstraScratch::new(csr.node_count());
        let _ = csr.full_tree(99.into(), &mut scratch);
    }

    #[test]
    #[should_panic(expected = "applied to a")]
    fn wrong_dims_mask_panics() {
        let g = sample();
        let csr = CsrGraph::new(&g, &CostModel::new(Metric::Weighted, 0));
        let mask = FailureMask::new(2, 1);
        let mut scratch = DijkstraScratch::new(csr.node_count());
        let _ = csr.full_tree_masked(0.into(), Some(&mask), &mut scratch);
    }

    #[test]
    fn validate_accepts_real_graphs_and_trees() {
        let g = random_graph(30, 70, 5);
        let model = CostModel::new(Metric::Weighted, 13);
        let csr = CsrGraph::new(&g, &model);
        assert_eq!(csr.validate(), Ok(()));
        let mut scratch = DijkstraScratch::new(g.node_count());
        let mut set = FailureSet::new();
        set.fail_edge(EdgeId::new(4));
        set.fail_node(NodeId::new(7));
        let mask = FailureMask::from_set(&csr, &set);
        for s in g.nodes() {
            let t = csr.full_tree(s, &mut scratch);
            assert_eq!(csr.validate_tree(&t, None), Ok(()), "unmasked from {s}");
            let tm = csr.full_tree_masked(s, Some(&mask), &mut scratch);
            assert_eq!(
                csr.validate_tree(&tm, Some(&mask)),
                Ok(()),
                "masked from {s}"
            );
        }
    }

    #[test]
    fn validate_rejects_corrupted_graph() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let mut csr = CsrGraph::new(&g, &model);
        // Strip the base weight out of one perturbed weight: no longer
        // 2^64-padded.
        csr.half[0].weight &= (1u128 << 64) - 1;
        assert!(csr.validate().unwrap_err().contains("high 64 bits"));
        let mut csr = CsrGraph::new(&g, &model);
        csr.half[0].target = 99;
        assert!(csr.validate().unwrap_err().contains("out-of-range"));
        let mut csr = CsrGraph::new(&g, &model);
        csr.offsets[1] = csr.offsets[2] + 1;
        assert!(csr.validate().is_err());
        let mut csr = CsrGraph::new(&g, &model);
        csr.ends.swap(0, 3);
        assert!(csr.validate().unwrap_err().contains("endpoints disagree"));
    }

    #[test]
    fn validate_tree_rejects_tampering() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(g.node_count());
        let good = csr.full_tree(0.into(), &mut scratch);

        // An inflated distance leaves a relaxable edge (not optimal).
        let mut t = good.clone();
        t.dist[4] += 1u128 << 64;
        t.base_dist[4] += 1;
        assert!(csr.validate_tree(&t, None).is_err());

        // Rerouting a node to a non-tree parent breaks the distance sum.
        let mut t = good.clone();
        t.parent_node[4] = 2;
        t.parent_edge[4] = 6; // edge 2-4 exists but is not on the tree path
        assert!(csr.validate_tree(&t, None).is_err());

        // A structural hole: reachable node whose parent link is cleared.
        let mut t = good.clone();
        t.parent_edge[3] = NO_EDGE;
        t.parent_node[3] = NO_NODE;
        assert!(t.validate_structure().is_err());
        assert!(csr.validate_tree(&t, None).is_err());

        // A masked tree must not use the masked edge.
        let mut set = FailureSet::new();
        set.fail_edge(EdgeId::new(1)); // 0-2
        let mask = FailureMask::from_set(&csr, &set);
        assert!(csr.validate_tree(&good, Some(&mask)).is_err());
        let masked = csr.full_tree_masked(0.into(), Some(&mask), &mut scratch);
        assert_eq!(csr.validate_tree(&masked, Some(&mask)), Ok(()));
    }

    #[test]
    fn scalar_heap_is_preallocated_and_capacity_is_stable() {
        let g = random_graph(80, 220, 13);
        let model = CostModel::new(Metric::Weighted, 11);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(csr.node_count());
        assert!(
            scratch.heap.capacity() >= csr.node_count(),
            "heap must be reserved from the node count, not empty"
        );
        // Warm one full sweep (the lazy heap can outgrow n via duplicate
        // entries), then assert an identical sweep reuses that capacity.
        for s in g.nodes() {
            let _ = csr.full_tree(s, &mut scratch);
        }
        let cap = scratch.heap.capacity();
        for s in g.nodes() {
            let _ = csr.full_tree(s, &mut scratch);
        }
        assert_eq!(
            scratch.heap.capacity(),
            cap,
            "reused scratch must not reallocate mid-sweep"
        );
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let g = sample();
        let model = CostModel::new(Metric::Weighted, 17);
        let csr = CsrGraph::new(&g, &model);
        let mut scratch = DijkstraScratch::new(csr.node_count());
        // Force the epoch to the wrap boundary and verify runs stay correct.
        scratch.epoch = u32::MAX - 1;
        let want = shortest_path_tree(&g, &model, 0.into());
        for _ in 0..4 {
            let got = csr.full_tree(0.into(), &mut scratch);
            assert_eq!(got, want);
        }
        assert!(scratch.epoch >= 1);
    }
}
