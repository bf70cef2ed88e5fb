//! `path_under` on every store shape: the post-failure shortest path a
//! restore cuts into base LSPs.
//!
//! The dense store answers it from a repaired clone of the source's tree;
//! the lazy and sharded stores answer it with one two-sided search on
//! their `CsrGraph` and never touch residency. All must return exactly the
//! path of `t` in the reference tree rebuilt over the `FailureView`
//! (`None` when the failures disconnect the pair or take out an
//! endpoint), on both metrics, on multigraphs, under random failure sets
//! and under cut sets that separate the pair. Failure sets are drawn from
//! the in-tree [`DetRng`], so the suite runs in offline builds.

use rbpc_core::{BasePathOracle, BasePathStore, DenseBasePaths, LazyBasePaths, ShardedBasePaths};
use rbpc_graph::{
    shortest_path_tree, CostModel, DetRng, EdgeId, FailureSet, Graph, Metric, NodeId, Path,
};
use rbpc_topo::gnm_connected;

/// Queries per graph and metric.
const QUERIES: usize = 120;

/// A connected G(n, m) plus a few parallel edges, so the search must tell
/// twins apart by their padded costs.
fn multigraph(n: usize, m: usize, seed: u64) -> Graph {
    let mut g = gnm_connected(n, m, 9, seed);
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5eed);
    for _ in 0..n / 4 {
        let e = EdgeId::new(rng.gen_range(0..g.edge_count()));
        let (u, v) = g.endpoints(e);
        g.add_edge(u.index(), v.index(), rng.gen_range(1..=9u32))
            .expect("endpoints are in range");
    }
    g
}

/// A random query: a pair and a failure set of 0–3 edges (often on the
/// pair's base path), sometimes a node (possibly an endpoint), or every
/// edge across a random cut that separates the pair.
fn query(g: &Graph, dense: &DenseBasePaths, rng: &mut DetRng) -> (NodeId, NodeId, FailureSet) {
    let n = g.node_count();
    let (s, t) = (
        NodeId::new(rng.gen_range(0..n)),
        NodeId::new(rng.gen_range(0..n)),
    );
    let mut failures = FailureSet::new();
    if s != t && rng.gen_bool(0.15) {
        let mut side = vec![false; n];
        for (v, on_s_side) in side.iter_mut().enumerate() {
            *on_s_side = v == s.index() || (v != t.index() && rng.gen_bool(0.5));
        }
        for (e, rec) in g.edges() {
            if side[rec.u.index()] != side[rec.v.index()] {
                failures.fail_edge(e);
            }
        }
        return (s, t, failures);
    }
    let on_path = dense.base_path(s, t).map(|p| p.edges().to_vec());
    for _ in 0..rng.gen_range(0..=3usize) {
        let e = match &on_path {
            Some(es) if !es.is_empty() && rng.gen_bool(0.6) => es[rng.gen_range(0..es.len())],
            _ => EdgeId::new(rng.gen_range(0..g.edge_count())),
        };
        failures.fail_edge(e);
    }
    if rng.gen_bool(0.3) {
        let v = match rng.gen_range(0..4usize) {
            0 => s,
            1 => t,
            _ => NodeId::new(rng.gen_range(0..n)),
        };
        failures.fail_node(v);
    }
    (s, t, failures)
}

/// `path_under` through the `&O` blanket impl (a method call on `&store`
/// would resolve to the store's own impl).
fn through_ref<O: BasePathOracle>(oracle: O, s: NodeId, t: NodeId, f: &FailureSet) -> Option<Path> {
    oracle.path_under(s, t, f)
}

/// The reference: `t`'s path in `s`'s tree rebuilt over the failed view.
fn reference(g: &Graph, model: &CostModel, s: NodeId, t: NodeId, f: &FailureSet) -> Option<Path> {
    shortest_path_tree(&f.view(g), model, s).path_to(t)
}

#[test]
fn every_store_matches_the_rebuilt_tree() {
    for (seed, metric) in [(1u64, Metric::Weighted), (2, Metric::Unweighted)] {
        for (n, m) in [(12, 20), (40, 90)] {
            let g = multigraph(n, m, seed * 31 + n as u64);
            let model = CostModel::new(metric, seed);
            let dense = DenseBasePaths::build(g.clone(), model);
            let lazy = LazyBasePaths::with_capacity(g.clone(), model, 2);
            let sharded = ShardedBasePaths::with_budget(g.clone(), model, 4, 2, 1);
            let mut rng = DetRng::seed_from_u64(seed ^ n as u64);
            let (mut disconnected, mut found) = (0, 0);
            for _ in 0..QUERIES {
                let (s, t, f) = query(&g, &dense, &mut rng);
                let want = reference(&g, &model, s, t, &f);
                let at = format!("{metric:?} n={n} {s} -> {t} under {f:?}");
                assert_eq!(dense.path_under(s, t, &f), want, "dense, {at}");
                assert_eq!(lazy.path_under(s, t, &f), want, "lazy, {at}");
                assert_eq!(sharded.path_under(s, t, &f), want, "sharded, {at}");
                assert_eq!(through_ref(&dense, s, t, &f), want, "&dense, {at}");
                assert_eq!(through_ref(&lazy, s, t, &f), want, "&lazy, {at}");
                assert_eq!(through_ref(&sharded, s, t, &f), want, "&sharded, {at}");
                if want.is_some() {
                    found += 1;
                } else {
                    disconnected += 1;
                }
            }
            assert!(
                found > QUERIES / 2,
                "{found} of {QUERIES} queries connected"
            );
            assert!(disconnected > 5, "only {disconnected} disconnected queries");
        }
    }
}

#[test]
fn cold_stores_stay_cold_through_a_reference() {
    for metric in [Metric::Weighted, Metric::Unweighted] {
        let g = multigraph(40, 90, 7);
        let model = CostModel::new(metric, 3);
        let dense = DenseBasePaths::build(g.clone(), model);
        let lazy = LazyBasePaths::with_capacity(g.clone(), model, 2);
        let sharded = ShardedBasePaths::with_budget(g.clone(), model, 4, 2, 1);
        let mut rng = DetRng::seed_from_u64(11);
        for _ in 0..QUERIES {
            let (s, t, f) = query(&g, &dense, &mut rng);
            let want = reference(&g, &model, s, t, &f);
            assert_eq!(through_ref(&lazy, s, t, &f), want, "lazy {s} -> {t}");
            assert_eq!(through_ref(&sharded, s, t, &f), want, "sharded {s} -> {t}");
        }
        assert_eq!((lazy.cached_trees(), lazy.evictions()), (0, 0));
        assert_eq!(lazy.resident_trees(), 0);
        let stats = sharded.stats();
        assert_eq!(
            (
                stats.resident_trees,
                stats.hits,
                stats.misses,
                stats.shard_builds
            ),
            (0, 0, 0, 0),
            "the search neither reads nor builds a shard"
        );
        assert_eq!(sharded.evicted_trees(), 0);
    }
}
