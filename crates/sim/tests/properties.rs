//! Property tests for the latency simulation: the scheme ordering and the
//! flood/flow invariants must hold on arbitrary random topologies. Written
//! as seeded [`DetRng`] loops, so they run in offline builds; a failing
//! case names its seed.

use rbpc_core::{BasePathOracle, DenseBasePaths};
use rbpc_graph::{bfs_distances, CostModel, DetRng, EdgeId, FailureSet, Metric, NodeId};
use rbpc_sim::{flood_timeline, outage, simulate_flow, FlowConfig, LatencyModel, Scheme};
use rbpc_topo::{gnm_connected, waxman, WaxmanParams};

/// Runs `check` on `cases` cases, each with its own seeded generator.
fn for_cases(name: &str, cases: u64, mut check: impl FnMut(&mut DetRng)) {
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(case ^ 0x2545_F491_4F6C_DD1D);
        eprintln!("{name}: case {case}");
        check(&mut rng);
    }
}

/// For any restorable single-link failure: local ≤ source < re-establish.
#[test]
fn scheme_ordering() {
    for_cases("scheme_ordering", 40, |rng| {
        let n = rng.gen_range(8..24usize);
        let seed = rng.gen_range(0..2000u64);
        let which = rng.gen_range(0..100usize);
        let g = gnm_connected(n, 2 * n, 8, seed);
        let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, seed));
        let m = LatencyModel::default();
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        let base = oracle.base_path(s, t).unwrap();
        if base.is_trivial() {
            return;
        }
        let e = base.edges()[which % base.hop_count()];
        let Ok(local) = outage(&oracle, &m, s, t, e, Scheme::LocalEndRoute) else {
            return;
        };
        let source = outage(&oracle, &m, s, t, e, Scheme::SourceRbpc).unwrap();
        let re = outage(&oracle, &m, s, t, e, Scheme::Reestablish).unwrap();
        assert!(local.restored_at_us <= source.restored_at_us);
        assert!(source.restored_at_us < re.restored_at_us);
        // Everyone's outage is at least the detection delay.
        assert!(local.restored_at_us >= m.detection_us);
    });
}

/// Flood awareness is detection-plus-hops and every connected router
/// eventually learns.
#[test]
fn flood_reaches_connected_routers() {
    for_cases("flood_reaches_connected_routers", 40, |rng| {
        let n = rng.gen_range(6..20usize);
        let seed = rng.gen_range(0..2000u64);
        let which = rng.gen_range(0..100usize);
        let g = gnm_connected(n, 2 * n, 5, seed);
        let e = EdgeId::new(which % g.edge_count());
        let m = LatencyModel::default();
        let failures = FailureSet::of_edge(e);
        let tl = flood_timeline(&g, &failures, &m);
        let view = failures.view(&g);
        let (u, _) = g.endpoints(e);
        let reach = bfs_distances(&view, u);
        for r in g.nodes() {
            if reach[r.index()].is_some() {
                let at = tl.at(r).expect("a connected router learns");
                assert!(at >= m.detection_us);
            }
        }
        // Detectors are the earliest-informed routers.
        let min = g.nodes().filter_map(|r| tl.at(r)).min().unwrap();
        assert_eq!(min, m.detection_us);
    });
}

/// Flow conservation: sent = delivered + dropped; faster schemes never
/// drop more; reordering only happens for the hybrid.
#[test]
fn flow_conservation() {
    for_cases("flow_conservation", 40, |rng| {
        let seed = rng.gen_range(0..500u64);
        let which = rng.gen_range(0..100usize);
        // Denser than the 100-node defaults, which leave 30 routers with
        // about 30 links: nearly every failed base edge would then cut
        // `s` from `t` and end the case before any flow is checked.
        let g = waxman(
            WaxmanParams {
                nodes: 30,
                alpha: 0.3,
                beta: 0.4,
                ..WaxmanParams::default()
            },
            seed,
        );
        let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, seed));
        let m = LatencyModel::default();
        let cfg = FlowConfig::default();
        let (s, t) = (NodeId::new(0), NodeId::new(29));
        let base = oracle.base_path(s, t).unwrap();
        if base.is_trivial() {
            return;
        }
        let e = base.edges()[which % base.hop_count()];
        let mut drops = Vec::new();
        for scheme in [Scheme::Hybrid, Scheme::SourceRbpc, Scheme::Reestablish] {
            let Ok(r) = simulate_flow(&oracle, &m, &cfg, s, t, e, scheme) else {
                return;
            };
            assert_eq!(r.sent, r.delivered + r.dropped);
            if scheme != Scheme::Hybrid {
                assert_eq!(r.reordered, 0);
            }
            drops.push(r.dropped);
        }
        assert!(drops[0] <= drops[1]);
        assert!(drops[1] <= drops[2]);
    });
}
