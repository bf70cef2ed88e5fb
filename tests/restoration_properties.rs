//! Cross-crate property tests: random topologies, random failures, and the
//! invariants RBPC must maintain end-to-end (including through the MPLS
//! data plane). Written as seeded [`DetRng`] loops, so they run in offline
//! builds; a failing case names its seed.
//!
//! The restoration invariants run on every store shape: the dense store,
//! the lazy store with a two-tree cache, and the sharded store with a
//! two-shard budget of two-tree shards. The small stores answer most
//! decompose probes on cold segment heads, so their bounded probes are
//! held to the same invariants as the dense store's tree walks.

use mpls_rbpc::core::{
    greedy_decompose, BasePathOracle, DenseBasePaths, LazyBasePaths, ProvisionedDomain, Restorer,
    SegmentKind, ShardedBasePaths,
};
use mpls_rbpc::graph::{CostModel, DetRng, EdgeId, FailureSet, Graph, Metric, NodeId};
use mpls_rbpc::topo::gnm_connected;

/// Seeded cases per property.
const CASES: u64 = 48;

/// Runs `check` on `CASES` cases, each with its own seeded generator.
fn for_cases(name: &str, mut check: impl FnMut(&mut DetRng)) {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(case ^ 0xA076_1D64_78BD_642F);
        eprintln!("{name}: case {case}");
        check(&mut rng);
    }
}

/// One random restoration scenario: a connected `G(n, 2n)` graph, its
/// metric, a few failed edges and an endpoint pair.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    max_w: u32,
    seed: u64,
    metric: Metric,
    kill: Vec<usize>,
    s: usize,
    t: usize,
}

impl Scenario {
    fn draw(rng: &mut DetRng) -> Self {
        let n = rng.gen_range(6..24usize);
        let unweighted = rng.gen_bool(0.5);
        let kills = rng.gen_range(0..4usize);
        Scenario {
            n,
            max_w: if unweighted { 1 } else { 12 },
            seed: rng.gen_range(0..5000u64),
            metric: if unweighted {
                Metric::Unweighted
            } else {
                Metric::Weighted
            },
            kill: (0..kills).map(|_| rng.gen_range(0..1000usize)).collect(),
            s: rng.gen_range(0..n),
            t: rng.gen_range(0..n),
        }
    }

    fn graph(&self) -> Graph {
        gnm_connected(self.n, 2 * self.n, self.max_w, self.seed)
    }
}

/// Restoration invariants on one store: the backup is a simple surviving
/// shortest path, the concatenation reassembles it, every base-path
/// segment is a canonical base path, every raw edge is not, and the
/// Theorem 3 bound holds. Returns the concatenation's segments.
fn check_restoration<O: BasePathOracle>(
    store: &str,
    oracle: &O,
    sc: &Scenario,
    failures: &FailureSet,
) -> Option<Vec<(SegmentKind, Vec<NodeId>)>> {
    let g = oracle.graph();
    let model = *oracle.cost_model();
    let (s, t) = (NodeId::new(sc.s), NodeId::new(sc.t));
    let k = failures.failed_edge_count();
    let what = format!("{store}, {sc:?}");
    let Ok(r) = Restorer::new(oracle).restore(s, t, failures) else {
        // Only edges fail, so an error means the failures disconnect the pair.
        let view = failures.view(g);
        assert!(
            mpls_rbpc::graph::shortest_path(&view, &model, s, t).is_none(),
            "{what}: restore failed on a connected pair"
        );
        return None;
    };
    assert!(r.backup.is_simple(), "{what}");
    assert_eq!((r.backup.source(), r.backup.target()), (s, t), "{what}");
    assert!(
        r.backup.edges().iter().all(|&e| !failures.edge_failed(e)),
        "{what}: the backup uses a failed edge"
    );
    // The backup is truly shortest in the failed network.
    let best = mpls_rbpc::graph::distance(&failures.view(g), &model, s, t).unwrap();
    assert_eq!(best.base, r.backup_cost.base, "{what}");
    if !r.backup.is_trivial() {
        assert_eq!(
            r.concatenation.full_path().unwrap(),
            r.backup,
            "{what}: the concatenation does not reassemble the backup"
        );
    }
    for seg in r.concatenation.segments() {
        match seg.kind {
            SegmentKind::BasePath => assert!(oracle.is_base_path(&seg.path), "{what}"),
            SegmentKind::RawEdge => {
                assert_eq!(seg.path.hop_count(), 1, "{what}");
                assert!(!oracle.is_base_path(&seg.path), "{what}");
            }
        }
    }
    // Theorem 3 bound: at most k + 1 base paths plus k raw edges.
    assert!(r.concatenation.len() <= 2 * k + 1, "{what}");
    assert!(r.concatenation.raw_edge_count() <= k, "{what}");
    assert!(r.backup_cost.base >= r.original_cost.base, "{what}");
    Some(
        r.concatenation
            .segments()
            .iter()
            .map(|seg| (seg.kind, seg.path.nodes().to_vec()))
            .collect(),
    )
}

/// The restoration invariants hold on all three store shapes, and the
/// small stores produce exactly the dense store's concatenation.
#[test]
fn restoration_invariants() {
    for_cases("restoration_invariants", |rng| {
        let sc = Scenario::draw(rng);
        if sc.s == sc.t {
            return;
        }
        let g = sc.graph();
        let model = CostModel::new(sc.metric, sc.seed);
        let failures: FailureSet = sc
            .kill
            .iter()
            .map(|&i| EdgeId::new(i % g.edge_count()))
            .collect();
        let dense = DenseBasePaths::build(g.clone(), model);
        let lazy = LazyBasePaths::with_capacity(g.clone(), model, 2);
        let sharded = ShardedBasePaths::with_budget(g, model, 4, 2, 1);
        let want = check_restoration("dense", &dense, &sc, &failures);
        assert_eq!(check_restoration("lazy", &lazy, &sc, &failures), want);
        assert_eq!(check_restoration("sharded", &sharded, &sc, &failures), want);
    });
}

/// Decomposing any base path yields one segment, on every store shape.
#[test]
fn intact_paths_decompose_trivially() {
    for_cases("intact_paths_decompose_trivially", |rng| {
        let n = rng.gen_range(6..20usize);
        let seed = rng.gen_range(0..3000u64);
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if s == t {
            return;
        }
        let g = gnm_connected(n, 2 * n, 9, seed);
        let model = CostModel::new(Metric::Weighted, seed);
        let dense = DenseBasePaths::build(g.clone(), model);
        let lazy = LazyBasePaths::with_capacity(g.clone(), model, 2);
        let sharded = ShardedBasePaths::with_budget(g, model, 4, 2, 1);
        let p = dense.base_path(s.into(), t.into()).unwrap();
        assert_eq!(greedy_decompose(&dense, &p).len(), 1, "seed {seed}");
        assert_eq!(greedy_decompose(&lazy, &p).len(), 1, "seed {seed}");
        assert_eq!(greedy_decompose(&sharded, &p).len(), 1, "seed {seed}");
    });
}

/// MPLS end-to-end: after applying a restoration, the packet delivers
/// along exactly the computed backup, and the label stack depth equals
/// the concatenation length at its deepest.
#[test]
fn mpls_delivery_matches_restoration() {
    for_cases("mpls_delivery_matches_restoration", |rng| {
        let n = rng.gen_range(8..16usize);
        let seed = rng.gen_range(0..1000u64);
        let which = rng.gen_range(0..1000usize);
        let g = gnm_connected(n, 2 * n, 7, seed);
        let model = CostModel::new(Metric::Weighted, seed);
        let oracle = DenseBasePaths::build(g, model);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        let base = oracle.base_path(s, t).unwrap();
        if base.is_trivial() {
            return;
        }
        let failures = FailureSet::of_edge(base.edges()[which % base.hop_count()]);
        let Ok(r) = Restorer::new(&oracle).restore(s, t, &failures) else {
            return;
        };
        let mut dom = ProvisionedDomain::new(&oracle);
        dom.provision_all_pairs(&oracle).unwrap();
        dom.apply_source_restoration(&r).unwrap();
        let trace = dom.forward(s, t, &failures).unwrap();
        assert_eq!(trace.route(), r.backup.nodes(), "seed {seed}");
        assert_eq!(
            trace.max_stack_depth() as usize,
            r.pc_length(),
            "seed {seed}"
        );
    });
}
