//! Base-path oracles: the provisioned set of canonical shortest paths.
//!
//! Theorem 3 of the paper shows a base set with **exactly one** shortest
//! path per ordered pair suffices, provided shortest paths are made unique
//! by infinitesimal padding. Our [`CostModel`] realizes the padding, so the
//! base set is simply "the shortest-path tree of every source", and a path
//! is a base path iff it is a tree path of its own source — an `O(len)`
//! check that never materializes the set.
//!
//! Two implementations trade memory for latency:
//!
//! * [`DenseBasePaths`] precomputes every source's tree — right for graphs
//!   up to a few thousand nodes (the paper's ISP);
//! * [`LazyBasePaths`] computes trees on demand behind a bounded FIFO
//!   cache — right for the 4 746-node AS graph, where the paper (and we)
//!   sample pairs rather than enumerate them.
//!
//! Each owns one [`CsrGraph`] of its graph, as the sharded store
//! ([`crate::store`]) does. Every tree comes from the batched CSR kernel
//! ([`par_all_sources_csr`]): the dense build, lazy misses, and lazy
//! prefetches alike. Trees under failures come from repairing a clone of
//! the resident unfailed tree on that same `CsrGraph`
//! ([`repair_after_failures`]), failed source routers included, so the
//! restore path has one graph representation.
//!
//! A restore needs only one path from the failed graph: the post-failure
//! shortest `s → t` path (`path_under`). The lazy and sharded stores
//! answer it with one two-sided search on their `CsrGraph`
//! ([`CsrGraph::point_to_point`] under a [`FailureMask`]), which settles
//! a ball of about half the radius around each end, needs no tree, and
//! never touches residency. Padded costs make that path unique, so it is
//! the path the repaired tree holds. Only the dense store still answers
//! `path_under` by repairing a cloned tree.
//!
//! Greedy decomposition asks one question per segment head `path[i]`:
//! how far does the path follow `path[i]`'s tree? The dense store walks
//! the resident tree (two array reads per hop). The lazy and sharded
//! stores walk it too when the head's tree is resident; otherwise they
//! run a bounded probe ([`CsrGraph::longest_tree_prefix`]): a two-sided
//! search that checks whether the whole rest of the path is the unique
//! shortest path, and failing that a Dijkstra from the head that stops
//! at the first hop leaving its tree. A cold head then costs a few
//! small balls, not a tree (lazy) or 32-tree shard (sharded) build, and
//! the probe never touches residency.
//!
//! All stores return bit-identical answers because the trees are
//! canonical for a given `(metric, seed)`.

use rbpc_graph::{
    par_all_sources_csr, repair_after_failures, CostModel, CsrGraph, DijkstraScratch, FailureMask,
    FailureSet, Graph, NodeId, ParStats, Path, PathCost, RepairScratch, ShortestPathTree,
};
use rbpc_obs::{obs_count, obs_record, obs_span, obs_trace};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// The caches guarded here are always left consistent between operations
/// (a panicked holder can at worst have skipped an insert), so continuing
/// past poison is safe and keeps one crashed experiment thread from
/// wedging every other one.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Default worker-thread count for batch provisioning: the machine's
/// available parallelism, or 1 if that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Records a provisioning batch's [`ParStats`] into the obs registry.
pub(crate) fn record_par_stats(stats: &ParStats) {
    obs_count!("core.provision.chunk_claims", stats.total_chunks_claimed());
    obs_count!(
        "core.provision.scratch_reuses",
        stats.total_scratch_reuses()
    );
    for &settled in &stats.settled {
        obs_record!("core.provision.settled_per_thread", settled);
    }
    // Frontier traffic of the batched SPT kernel: pops equal settles by
    // construction (decrease-key, no duplicate entries), so any gap
    // between pushes and decrease-keys in live telemetry is the
    // duplicate-pop work the batch kernel eliminated.
    obs_count!("core.provision.heap_pushes", stats.total_heap_pushes());
    obs_count!("core.provision.heap_pops", stats.total_heap_pops());
    obs_count!("core.provision.decrease_keys", stats.total_decrease_keys());
    // Silence unused-variable lint when the obs feature is off.
    let _ = stats;
}

/// The stores' `with_spt_under`: runs `f` with `source`'s tree under
/// `failures`, repaired from a clone of `oracle`'s resident unfailed tree
/// on `csr` (see [`repair_after_failures`]). The failed tree is transient
/// and never cached, so the store stays canonical.
pub(crate) fn with_repaired_spt<O: BasePathOracle, R>(
    oracle: &O,
    csr: &CsrGraph,
    source: NodeId,
    failures: &FailureSet,
    f: impl FnOnce(&ShortestPathTree) -> R,
) -> R {
    thread_local! {
        static SCRATCH: RefCell<RepairScratch> = RefCell::new(RepairScratch::new());
    }
    if failures.is_empty() {
        return oracle.with_spt(source, f);
    }
    let mask = FailureMask::from_set(csr, failures);
    oracle.with_spt(source, |base| {
        let _t = obs_trace!("spt.repair", cat: "lookup", source = source.index());
        let tree = {
            let _span = obs_span!("spt.repair.ns");
            let mut tree = base.clone();
            let stats =
                SCRATCH.with(|s| repair_after_failures(&mut tree, csr, &mask, &mut s.borrow_mut()));
            obs_record!("spt.repair.nodes_touched", stats.nodes_touched as u64);
            tree
        };
        f(&tree)
    })
}

thread_local! {
    /// One search scratch per thread, shared by the decompose probe and
    /// the searched `path_under`, so a thread holds one pair of search
    /// arenas however it mixes the two.
    static SEARCH: RefCell<DijkstraScratch> = RefCell::new(DijkstraScratch::new(0));
}

/// The lazy and sharded stores' `path_under`: one two-sided search on
/// `csr` under `failures` ([`CsrGraph::point_to_point`]) instead of a
/// repaired clone of `s`'s tree. It needs no tree, so it builds, caches
/// and evicts nothing and counts no hit or miss. Padded costs make the
/// cheapest path unique, so it is the path the repaired tree holds.
pub(crate) fn searched_path(
    csr: &CsrGraph,
    s: NodeId,
    t: NodeId,
    failures: &FailureSet,
) -> Option<Path> {
    let mask = (!failures.is_empty()).then(|| FailureMask::from_set(csr, failures));
    let _t = obs_trace!("spt.search", cat: "lookup", source = s.index());
    let _span = obs_span!("spt.search.ns");
    SEARCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let before = scratch.settled_total();
        let path = csr.point_to_point(s, t, mask.as_ref(), scratch);
        obs_record!("spt.search.settled", scratch.settled_total() - before);
        path
    })
}

/// The stores' `longest_base_prefix`: walks `resident`, the tree of
/// `path.nodes()[from]` when the store holds it, and otherwise answers
/// with one bounded probe on `csr` ([`CsrGraph::longest_tree_prefix`]),
/// which builds, caches and evicts nothing. Both give the tree-step walk's
/// answer: the probe stops at the first hop that leaves the head's tree,
/// which is all greedy decomposition asks.
pub(crate) fn resident_or_probed_prefix(
    csr: &CsrGraph,
    resident: Option<&ShortestPathTree>,
    path: &Path,
    from: usize,
) -> usize {
    if let Some(spt) = resident {
        return tree_prefix(spt, path, from);
    }
    obs_count!("core.decompose.bounded_probe");
    SEARCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let before = scratch.settled_total();
        let j = csr.longest_tree_prefix(path.nodes(), path.edges(), from, scratch);
        obs_record!(
            "core.decompose.probe_settled",
            scratch.settled_total() - before
        );
        j
    })
}

/// The tree-step walk: the largest `j ≥ from` such that `path[from..=j]`
/// is a path of `spt`, the tree of `path.nodes()[from]`.
fn tree_prefix(spt: &ShortestPathTree, path: &Path, from: usize) -> usize {
    let (nodes, edges) = (path.nodes(), path.edges());
    let mut j = from;
    while j + 1 < nodes.len() && spt.is_tree_step(nodes[j], edges[j], nodes[j + 1]) {
        j += 1;
    }
    j
}

/// The provisioned base set: one canonical shortest path per ordered pair.
///
/// All methods are derived from [`BasePathOracle::with_spt`]; implementors
/// only supply tree storage.
pub trait BasePathOracle {
    /// The graph the base set was computed over.
    fn graph(&self) -> &Graph;

    /// The cost model (metric + padding seed) defining canonical paths.
    fn cost_model(&self) -> &CostModel;

    /// Runs `f` with the shortest-path tree rooted at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R;

    /// Runs `f` with the shortest-path tree rooted at `source` over the
    /// graph with `failures` applied — the tree a router recomputes when
    /// links go down.
    ///
    /// The default implementation is the from-scratch reference: it
    /// freezes the graph into a fresh [`CsrGraph`] and runs one masked
    /// Dijkstra (recorded under the `spt.rebuild.ns` histogram). Every
    /// store overrides it to *repair* its resident unfailed tree
    /// (`spt.repair.ns` / `spt.repair.nodes_touched`), which yields a
    /// bit-identical tree because padded costs make shortest paths unique
    /// — see [`rbpc_graph::repair_after_failures`]. A caller that needs
    /// one path, not the whole tree, should ask
    /// [`path_under`](BasePathOracle::path_under), which the lazy and
    /// sharded stores answer without a tree.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        if failures.is_empty() {
            return self.with_spt(source, f);
        }
        let tree = {
            let _span = obs_span!("spt.rebuild.ns");
            let csr = CsrGraph::new(self.graph(), self.cost_model());
            let mask = FailureMask::from_set(&csr, failures);
            csr.full_tree_masked(
                source,
                Some(&mask),
                &mut DijkstraScratch::new(csr.node_count()),
            )
        };
        f(&tree)
    }

    /// The canonical shortest path from `s` to `t` over the failed view,
    /// or `None` if the failures disconnect the pair or take out an
    /// endpoint.
    ///
    /// The default walks `t`'s path in
    /// [`with_spt_under`](BasePathOracle::with_spt_under)'s tree, which
    /// the dense store repairs from a clone of its resident tree. The lazy
    /// and sharded stores override it with one two-sided search on their
    /// [`CsrGraph`] ([`CsrGraph::point_to_point`], span `spt.search.ns`,
    /// histogram `spt.search.settled`): it builds, caches and evicts no
    /// tree, and returns the same path because padded costs make it
    /// unique.
    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        self.with_spt_under(s, failures, |spt| spt.path_to(t))
    }

    /// The canonical base path from `s` to `t`, or `None` if disconnected.
    fn base_path(&self, s: NodeId, t: NodeId) -> Option<Path> {
        self.with_spt(s, |spt| spt.path_to(t))
    }

    /// Original-metric distance from `s` to `t`.
    fn base_dist(&self, s: NodeId, t: NodeId) -> Option<u64> {
        self.with_spt(s, |spt| spt.base_dist(t))
    }

    /// Full cost (base, perturbed, hops) from `s` to `t`.
    fn base_cost(&self, s: NodeId, t: NodeId) -> Option<PathCost> {
        self.with_spt(s, |spt| spt.cost_to(t))
    }

    /// Whether `path` is exactly the canonical base path between its
    /// endpoints. `O(len)` via tree-step checks; trivial paths qualify.
    fn is_base_path(&self, path: &Path) -> bool {
        self.longest_base_prefix(path, 0) == path.nodes().len() - 1
    }

    /// The largest node index `j ≥ from` such that `path[from..=j]` is a
    /// base path. Returns `from` itself when not even one hop matches the
    /// tree of `path.nodes()[from]`.
    ///
    /// The default walks the head's tree from
    /// [`with_spt`](BasePathOracle::with_spt), building it if need be.
    /// The lazy and sharded stores override it to walk a resident tree
    /// and otherwise run a bounded probe that leaves the store untouched.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range for the path.
    fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
        let nodes = path.nodes();
        assert!(from < nodes.len(), "from out of range");
        self.with_spt(nodes[from], |spt| tree_prefix(spt, path, from))
    }
}

/// Precomputed all-pairs base paths: one [`ShortestPathTree`] per source.
///
/// Memory is `O(n²)`; see [`LazyBasePaths`] for large graphs.
#[derive(Debug, Clone)]
pub struct DenseBasePaths {
    graph: Graph,
    csr: CsrGraph,
    trees: Vec<ShortestPathTree>,
}

impl DenseBasePaths {
    /// Computes every source's tree up front, on
    /// [`default_threads`] worker threads.
    ///
    /// The trees are bit-identical for every thread count (padded costs
    /// make them canonical), so parallel provisioning is an invisible
    /// speedup — see [`rbpc_graph::par_all_sources_csr`].
    pub fn build(graph: Graph, model: CostModel) -> Self {
        Self::build_with_threads(graph, model, default_threads())
    }

    /// [`DenseBasePaths::build`] on an explicit number of worker threads
    /// (the eval binary's `--threads` flag lands here). `0` means 1.
    pub fn build_with_threads(graph: Graph, model: CostModel, threads: usize) -> Self {
        let _span = obs_span!("core.provision.build.ns");
        let csr = CsrGraph::new(&graph, &model);
        let sources: Vec<NodeId> = graph.nodes().collect();
        let (trees, stats) = par_all_sources_csr(&csr, None, &sources, threads);
        record_par_stats(&stats);
        DenseBasePaths { graph, csr, trees }
    }

    /// Direct access to a source's tree.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn spt(&self, source: NodeId) -> &ShortestPathTree {
        &self.trees[source.index()]
    }
}

impl BasePathOracle for DenseBasePaths {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn cost_model(&self) -> &CostModel {
        self.csr.model()
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        f(&self.trees[source.index()])
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        with_repaired_spt(self, &self.csr, source, failures, f)
    }
}

/// On-demand base paths with a bounded FIFO tree cache.
///
/// Answers are identical to [`DenseBasePaths`] (trees are canonical); only
/// memory and latency differ. A miss builds its tree on the batched CSR
/// kernel over the store's own [`CsrGraph`]. Thread-safe: the cache is
/// lock-protected and trees are shared via [`Arc`], so parallel
/// experiment sampling can share one oracle.
#[derive(Debug)]
pub struct LazyBasePaths {
    graph: Graph,
    csr: CsrGraph,
    cache: Mutex<LazyCache>,
    capacity: usize,
    evicted: std::sync::atomic::AtomicU64,
}

#[derive(Debug, Default)]
struct LazyCache {
    map: BTreeMap<u32, Arc<ShortestPathTree>>,
    order: VecDeque<u32>,
}

impl LazyBasePaths {
    /// Default number of cached trees.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Creates a lazy oracle with the default cache capacity.
    pub fn new(graph: Graph, model: CostModel) -> Self {
        Self::with_capacity(graph, model, Self::DEFAULT_CAPACITY)
    }

    /// Creates a lazy oracle caching at most `capacity` trees.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the graph exceeds
    /// [`CostModel::MAX_NODES`] nodes.
    pub fn with_capacity(graph: Graph, model: CostModel, capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be positive");
        let csr = CsrGraph::new(&graph, &model);
        LazyBasePaths {
            graph,
            csr,
            cache: Mutex::new(LazyCache::default()),
            capacity,
            evicted: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of trees currently cached (for tests and monitoring).
    pub fn cached_trees(&self) -> usize {
        lock_unpoisoned(&self.cache).map.len()
    }

    /// The cache's capacity in trees.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Trees evicted from the cache so far.
    pub fn evictions(&self) -> u64 {
        self.evicted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Caches the tree of every source in `sources`, building the missing
    /// ones on the batched CSR kernel. Builds, evictions and FIFO order
    /// are exactly those of calling [`with_spt`](BasePathOracle::with_spt)
    /// on each source in turn; only the builds are batched. A batch is
    /// cut at one cache capacity, and before a source that is cached now
    /// but might not be once the pending batch lands. Returns how many
    /// trees were built.
    pub(crate) fn prefetch_batch(&self, sources: &[NodeId]) -> usize {
        let mut pending: Vec<NodeId> = Vec::new();
        let mut built = 0;
        for &s in sources {
            if pending.contains(&s) {
                continue;
            }
            if !pending.is_empty() && (pending.len() == self.capacity || self.is_cached(s)) {
                built += self.build_and_cache(&std::mem::take(&mut pending));
            }
            if !self.is_cached(s) {
                pending.push(s);
            }
        }
        built + self.build_and_cache(&pending)
    }

    fn is_cached(&self, source: NodeId) -> bool {
        let key = source.index() as u32;
        lock_unpoisoned(&self.cache).map.contains_key(&key)
    }

    /// Builds `sources` as one batch and caches them in order.
    fn build_and_cache(&self, sources: &[NodeId]) -> usize {
        if sources.is_empty() {
            return 0;
        }
        obs_count!("core.basepaths.cache_miss", sources.len() as u64);
        let _t = obs_trace!("spt.build", cat: "lookup", sources = sources.len());
        for (&s, tree) in sources.iter().zip(self.build(sources)) {
            self.cache_tree(s, tree);
        }
        sources.len()
    }

    /// The cached tree of `source`, counted as a hit, or `None` without
    /// building anything.
    fn cached(&self, source: NodeId) -> Option<Arc<ShortestPathTree>> {
        let key = source.index() as u32;
        let tree = lock_unpoisoned(&self.cache).map.get(&key).cloned();
        if tree.is_some() {
            obs_count!("core.basepaths.cache_hit");
        }
        tree
    }

    fn tree(&self, source: NodeId) -> Arc<ShortestPathTree> {
        if let Some(t) = self.cached(source) {
            return t;
        }
        obs_count!("core.basepaths.cache_miss");
        // Compute outside the lock; a racing thread may duplicate the work
        // but the result is identical either way.
        let _t = obs_trace!("spt.build", cat: "lookup", source = source.index());
        let built = self.build(&[source]).pop();
        self.cache_tree(source, built.expect("invariant: one tree per source"))
    }

    /// Builds the trees of `sources`, in order, as one batch on the
    /// calling thread: the store has no thread budget of its own, and
    /// trees allocated by short-lived workers would strand their freed
    /// memory in those workers' allocator arenas as the FIFO cycles.
    fn build(&self, sources: &[NodeId]) -> Vec<ShortestPathTree> {
        let (trees, stats) = par_all_sources_csr(&self.csr, None, sources, 1);
        record_par_stats(&stats);
        trees
    }

    /// Caches a freshly built tree at the FIFO tail, evicting from the
    /// head to stay within capacity, and returns the cached copy.
    fn cache_tree(&self, source: NodeId, tree: ShortestPathTree) -> Arc<ShortestPathTree> {
        let key = source.index() as u32;
        let mut cache = lock_unpoisoned(&self.cache);
        if let Some(t) = cache.map.get(&key) {
            // A racing thread built this tree while we were computing it:
            // our build was duplicated work. Keep theirs (identical
            // contents, and it is already in FIFO order) and count it.
            obs_count!("core.basepaths.duplicate_spt");
            return Arc::clone(t);
        }
        while cache.map.len() >= self.capacity {
            if let Some(old) = cache.order.pop_front() {
                if cache.map.remove(&old).is_some() {
                    self.evicted
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            } else {
                break;
            }
        }
        let tree = Arc::new(tree);
        cache.map.insert(key, Arc::clone(&tree));
        cache.order.push_back(key);
        tree
    }
}

impl BasePathOracle for LazyBasePaths {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn cost_model(&self) -> &CostModel {
        self.csr.model()
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        let tree = self.tree(source);
        f(&tree)
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        with_repaired_spt(self, &self.csr, source, failures, f)
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        searched_path(&self.csr, s, t, failures)
    }

    fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
        let head = self.cached(path.nodes()[from]);
        resident_or_probed_prefix(&self.csr, head.as_deref(), path, from)
    }
}

impl<O: BasePathOracle> BasePathOracle for &O {
    fn graph(&self) -> &Graph {
        (**self).graph()
    }

    fn cost_model(&self) -> &CostModel {
        (**self).cost_model()
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        (**self).with_spt(source, f)
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        (**self).with_spt_under(source, failures, f)
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        (**self).path_under(s, t, failures)
    }

    fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
        (**self).longest_base_prefix(path, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_graph::{shortest_path_tree, Metric};
    use rbpc_topo::gnm_connected;

    fn model() -> CostModel {
        CostModel::new(Metric::Weighted, 21)
    }

    #[test]
    fn dense_and_lazy_agree_exactly() {
        let g = gnm_connected(40, 90, 12, 5);
        let dense = DenseBasePaths::build(g.clone(), model());
        let lazy = LazyBasePaths::with_capacity(g.clone(), model(), 4);
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(dense.base_path(s, t), lazy.base_path(s, t));
                assert_eq!(dense.base_dist(s, t), lazy.base_dist(s, t));
            }
        }
    }

    #[test]
    fn lazy_cache_evicts_fifo() {
        let g = gnm_connected(20, 40, 5, 1);
        let lazy = LazyBasePaths::with_capacity(g, model(), 3);
        for s in 0..6usize {
            let _ = lazy.base_dist(s.into(), 0.into());
        }
        assert_eq!(lazy.cached_trees(), 3);
        // Re-query an evicted source: still correct.
        let d = lazy.base_dist(0.into(), 5.into());
        assert!(d.is_some());
    }

    #[test]
    fn base_paths_are_recognized() {
        let g = gnm_connected(30, 70, 9, 3);
        let oracle = DenseBasePaths::build(g.clone(), model());
        for t in [5usize, 17, 29] {
            let p = oracle.base_path(0.into(), t.into()).unwrap();
            assert!(oracle.is_base_path(&p));
            // Subpaths of base paths are base paths (padding uniqueness).
            if p.hop_count() >= 2 {
                assert!(oracle.is_base_path(&p.subpath(1, p.nodes().len() - 1)));
            }
        }
    }

    #[test]
    fn non_base_paths_are_rejected() {
        // A square with one heavy edge: the heavy detour is not a base path.
        let mut g = Graph::new(4);
        for (a, b, w) in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 10)] {
            g.add_edge(a, b, w).unwrap();
        }
        let oracle = DenseBasePaths::build(g.clone(), model());
        let heavy = Path::from_edges(&g, 0.into(), &[3.into()]).unwrap();
        assert!(!oracle.is_base_path(&heavy)); // 0-3 direct costs 10 vs 3
        assert_eq!(oracle.base_dist(0.into(), 3.into()), Some(3));
    }

    #[test]
    fn longest_base_prefix_walks_maximally() {
        let mut g = Graph::new(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            g.add_unit_edge(a, b).unwrap();
        }
        let oracle = DenseBasePaths::build(g.clone(), model());
        let p = oracle.base_path(0.into(), 3.into()).unwrap();
        assert_eq!(oracle.longest_base_prefix(&p, 0), 3);
        assert_eq!(oracle.longest_base_prefix(&p, 2), 3);
        assert_eq!(oracle.longest_base_prefix(&p, 3), 3);
    }

    #[test]
    fn trivial_path_is_base() {
        let g = gnm_connected(5, 6, 3, 0);
        let oracle = DenseBasePaths::build(g, model());
        assert!(oracle.is_base_path(&Path::trivial(2.into())));
    }

    #[test]
    fn disconnected_pairs_have_no_base_path() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        let oracle = DenseBasePaths::build(g, model());
        assert_eq!(oracle.base_path(0.into(), 2.into()), None);
        assert_eq!(oracle.base_dist(0.into(), 2.into()), None);
        assert_eq!(oracle.base_cost(0.into(), 2.into()), None);
    }

    #[test]
    // The double borrow deliberately exercises the `&O` blanket impl.
    #[allow(clippy::needless_borrows_for_generic_args)]
    fn oracle_by_reference_works() {
        fn takes_oracle<O: BasePathOracle>(o: O) -> usize {
            o.graph().node_count()
        }
        let g = gnm_connected(5, 6, 3, 0);
        let oracle = DenseBasePaths::build(g, model());
        assert_eq!(takes_oracle(&oracle), 5);
        assert_eq!(takes_oracle(&&oracle), 5);
    }

    #[test]
    fn with_spt_under_matches_rebuild_for_all_oracles() {
        let g = gnm_connected(40, 90, 12, 5);
        let dense = DenseBasePaths::build(g.clone(), model());
        let lazy = LazyBasePaths::with_capacity(g.clone(), model(), 4);
        let mut failures = FailureSet::new();
        // A couple of edge failures plus a node failure.
        failures.fail_edge(rbpc_graph::EdgeId::new(0));
        failures.fail_edge(rbpc_graph::EdgeId::new(17));
        failures.fail_node(7.into());
        // Generic so `O = &DenseBasePaths` goes through the `&O` blanket
        // impl, which must forward the override, not fall back to the
        // default rebuild.
        fn check<O: BasePathOracle>(
            oracle: O,
            failures: &FailureSet,
            s: NodeId,
            want: &ShortestPathTree,
        ) {
            oracle.with_spt_under(s, failures, |spt| assert_eq!(spt, want));
        }
        for s in g.nodes() {
            let want = shortest_path_tree(&failures.view(&g), &model(), s);
            dense.with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "dense, {s}"));
            lazy.with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "lazy, {s}"));
            check(&dense, &failures, s, &want);
        }
    }

    #[test]
    fn default_with_spt_under_is_the_from_scratch_reference() {
        /// Supplies only tree storage, so `with_spt_under` is the default.
        struct Plain(DenseBasePaths);
        impl BasePathOracle for Plain {
            fn graph(&self) -> &Graph {
                self.0.graph()
            }
            fn cost_model(&self) -> &CostModel {
                self.0.cost_model()
            }
            fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
                self.0.with_spt(source, f)
            }
        }
        let g = gnm_connected(30, 70, 9, 3);
        let plain = Plain(DenseBasePaths::build(g.clone(), model()));
        let failures = FailureSet::of_nodes([4usize]);
        for s in g.nodes() {
            let want = shortest_path_tree(&failures.view(&g), &model(), s);
            plain.with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "{s}"));
            plain
                .0
                .with_spt_under(s, &failures, |spt| assert_eq!(spt, &want, "{s}"));
        }
    }

    #[test]
    fn lazy_prefetch_caches_in_fifo_order() {
        let g = gnm_connected(20, 40, 5, 1);
        let dense = DenseBasePaths::build(g.clone(), model());
        let lazy = LazyBasePaths::with_capacity(g.clone(), model(), 3);
        let order: Vec<NodeId> = [5usize, 2, 5, 9, 11].map(NodeId::new).to_vec();
        assert_eq!(lazy.prefetch_batch(&order), 4);
        // 5, 2, 9, 11 were cached in that order: 5 was evicted first.
        assert_eq!((lazy.cached_trees(), lazy.evictions()), (3, 1));
        assert_eq!(lazy.prefetch_batch(&order[1..]), 1); // only 5 is missing
        assert_eq!(lazy.evictions(), 2); // ... and evicts 2, the oldest
        for s in [5usize, 9, 11] {
            lazy.with_spt(s.into(), |t| assert_eq!(t, dense.spt(s.into())));
        }
        assert_eq!(lazy.evictions(), 2, "9, 11 and 5 stay cached");
    }

    #[test]
    fn lazy_prefetch_matches_one_lookup_per_source() {
        let g = gnm_connected(20, 40, 5, 1);
        let order = |o: &LazyBasePaths| Vec::from(lock_unpoisoned(&o.cache).order.clone());
        let mut rng = rbpc_graph::DetRng::seed_from_u64(3);
        for capacity in [1usize, 3, 7] {
            let batched = LazyBasePaths::with_capacity(g.clone(), model(), capacity);
            let serial = LazyBasePaths::with_capacity(g.clone(), model(), capacity);
            for round in 0..8 {
                let len = rng.gen_range(0..14usize);
                let sources: Vec<NodeId> = (0..len)
                    .map(|_| NodeId::new(rng.gen_range(0..12usize)))
                    .collect();
                let mut built = 0;
                for &s in &sources {
                    built += usize::from(!serial.is_cached(s));
                    serial.with_spt(s, |_| ());
                }
                let what = format!("capacity {capacity}, round {round}, {sources:?}");
                assert_eq!(batched.prefetch_batch(&sources), built, "{what}");
                assert_eq!(batched.evictions(), serial.evictions(), "{what}");
                assert_eq!(order(&batched), order(&serial), "{what}");
            }
        }
    }

    #[test]
    fn with_spt_under_empty_failures_is_base_tree() {
        let g = gnm_connected(20, 40, 5, 1);
        let dense = DenseBasePaths::build(g.clone(), model());
        let none = FailureSet::new();
        for s in g.nodes() {
            dense.with_spt_under(s, &none, |spt| assert_eq!(spt, dense.spt(s)));
        }
    }

    #[test]
    fn path_under_avoids_failures() {
        let g = gnm_connected(30, 70, 9, 3);
        let oracle = DenseBasePaths::build(g.clone(), model());
        let p = oracle.base_path(0.into(), 20.into()).unwrap();
        let mut failures = FailureSet::new();
        failures.fail_edge(p.edges()[0]);
        if let Some(q) = oracle.path_under(0.into(), 20.into(), &failures) {
            assert!(!q.contains_edge(p.edges()[0]));
            assert_eq!(
                Some(&q),
                rbpc_graph::shortest_path(&failures.view(&g), &model(), 0.into(), 20.into())
                    .as_ref()
            );
        }
    }

    #[test]
    fn dense_build_is_thread_count_invariant() {
        let g = gnm_connected(30, 70, 9, 3);
        let seq = DenseBasePaths::build_with_threads(g.clone(), model(), 1);
        for threads in [2usize, 4, 8] {
            let par = DenseBasePaths::build_with_threads(g.clone(), model(), threads);
            for s in g.nodes() {
                assert_eq!(seq.spt(s), par.spt(s), "threads = {threads}, source {s}");
            }
        }
        // `build` (auto thread count) must agree too.
        let auto = DenseBasePaths::build(g.clone(), model());
        for s in g.nodes() {
            assert_eq!(seq.spt(s), auto.spt(s));
        }
    }

    #[test]
    fn lazy_stress_never_over_caches() {
        // Many threads hammer a few sources through an ample cache; racing
        // misses may duplicate Dijkstra work, but the cache must never hold
        // more than one tree per source (and never exceed its capacity).
        let g = gnm_connected(16, 40, 6, 8);
        let n = g.node_count();
        let lazy = LazyBasePaths::with_capacity(g.clone(), model(), 2 * n);
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let lazy = &lazy;
                scope.spawn(move || {
                    for round in 0..50usize {
                        let s = (worker + round) % 4; // heavy collision on 4 sources
                        let t = (worker * 5 + round) % 16;
                        let _ = lazy.base_dist(s.into(), t.into());
                    }
                });
            }
        });
        assert!(
            lazy.cached_trees() <= n,
            "cache holds {} trees for an {n}-node graph",
            lazy.cached_trees()
        );
    }

    #[test]
    fn lazy_is_shareable_across_threads() {
        let g = gnm_connected(25, 60, 7, 2);
        let lazy = LazyBasePaths::new(g.clone(), model());
        let dense = DenseBasePaths::build(g.clone(), model());
        std::thread::scope(|scope| {
            for chunk in 0..4usize {
                let lazy = &lazy;
                let dense = &dense;
                scope.spawn(move || {
                    for s in (0..25).filter(|s| s % 4 == chunk) {
                        for t in 0..25usize {
                            assert_eq!(
                                lazy.base_dist(s.into(), t.into()),
                                dense.base_dist(s.into(), t.into())
                            );
                        }
                    }
                });
            }
        });
    }
}
