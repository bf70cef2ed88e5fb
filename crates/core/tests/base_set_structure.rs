//! Direct checks of the base set's structural properties, which the
//! theorem suites otherwise exercise only indirectly (Bodwin–Parter,
//! *Restorable Shortest Path Tiebreaking*):
//!
//! * **consistency** — every subpath of a base path is itself a base path
//!   (`is_base_path` accepts it);
//! * **symmetry** — the base path from `v` to `u` is the base path from
//!   `u` to `v`, reversed.
//!
//! Both follow from the padded costs making every shortest path unique,
//! and both must hold on every store shape: the dense store, the lazy
//! store with fewer cache slots than sources, and the sharded store on a
//! budget that forces constant eviction. Pairs are drawn from the in-tree
//! [`DetRng`], so the suite runs in offline builds.

use rbpc_core::{BasePathOracle, DenseBasePaths, LazyBasePaths, ShardedBasePaths};
use rbpc_graph::{CostModel, DetRng, Graph, Metric, NodeId};
use rbpc_topo::{gnm_connected, isp_topology, IspParams};

/// Pairs checked per graph and store.
const PAIRS: usize = 40;

/// `PAIRS` random ordered pairs of distinct nodes.
fn sample_pairs(graph: &Graph, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = graph.node_count();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(PAIRS);
    while pairs.len() < PAIRS {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            pairs.push((NodeId::new(u), NodeId::new(v)));
        }
    }
    pairs
}

/// Asserts consistency and symmetry of `oracle`'s base set on `pairs`.
fn assert_structure<O: BasePathOracle>(store: &str, oracle: &O, pairs: &[(NodeId, NodeId)]) {
    for &(u, v) in pairs {
        let forward = oracle.base_path(u, v);
        let backward = oracle.base_path(v, u);
        assert_eq!(
            backward,
            forward.as_ref().map(|p| p.reversed()),
            "{store}: base_path({v}, {u}) is not base_path({u}, {v}) reversed"
        );
        let Some(path) = forward else { continue };
        let len = path.nodes().len();
        for i in 0..len {
            for j in i..len {
                assert!(
                    oracle.is_base_path(&path.subpath(i, j)),
                    "{store}: subpath [{i}..={j}] of base_path({u}, {v}) is not a base path"
                );
            }
        }
    }
}

/// Runs the structural checks on all three store shapes over `graph`.
fn assert_all_stores(graph: &Graph, metric: Metric, seed: u64) {
    let model = CostModel::new(metric, seed);
    let pairs = sample_pairs(graph, seed);
    let n = graph.node_count();

    assert_structure(
        "dense",
        &DenseBasePaths::build_with_threads(graph.clone(), model, 2),
        &pairs,
    );

    let lazy = LazyBasePaths::with_capacity(graph.clone(), model, 5);
    assert_structure("lazy", &lazy, &pairs);
    assert!(
        lazy.capacity() < n && lazy.evictions() > 0,
        "lazy must evict"
    );

    let sharded = ShardedBasePaths::with_budget(graph.clone(), model, 8, 4, 2);
    assert_structure("sharded", &sharded, &pairs);
    assert!(sharded.stats().evicted_trees > 0, "sharded must evict");
}

#[test]
fn base_set_is_consistent_and_symmetric_on_gnm() {
    let graph = gnm_connected(300, 900, 20, 7);
    assert_all_stores(&graph, Metric::Weighted, 3);
    assert_all_stores(&graph, Metric::Unweighted, 4);
}

#[test]
fn base_set_is_consistent_and_symmetric_on_isp() {
    let graph = isp_topology(IspParams::default(), 11).graph;
    assert_all_stores(&graph, Metric::Weighted, 5);
    assert_all_stores(&graph, Metric::Unweighted, 6);
}
