//! Property tests for the MPLS simulator: LSP lifecycle invariants,
//! forwarding correctness, and sink-tree equivalence — over random
//! topologies and random paths. Written as seeded [`DetRng`] loops, so
//! they run in offline builds; a failing case names its seed.

use rbpc_graph::{
    shortest_path, shortest_path_tree, CostModel, DetRng, FailureSet, Metric, NodeId,
};
use rbpc_mpls::{ForwardError, MplsNetwork};
use rbpc_topo::gnm_connected;

/// Seeded cases per property.
const CASES: u64 = 48;

fn model(seed: u64) -> CostModel {
    CostModel::new(Metric::Weighted, seed)
}

/// Runs `check` on `CASES` cases, each with its own seeded generator.
fn for_cases(name: &str, mut check: impl FnMut(&mut DetRng)) {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(case ^ 0x6A09_E667_F3BC_C908);
        eprintln!("{name}: case {case}");
        check(&mut rng);
    }
}

/// Establish + teardown leaves the ILM exactly as before, for any
/// random batch of LSPs (with or without PHP).
#[test]
fn establish_teardown_is_clean() {
    for_cases("establish_teardown_is_clean", |rng| {
        let n = rng.gen_range(5..20usize);
        let seed = rng.gen_range(0..2000u64);
        let g = gnm_connected(n, 2 * n, 9, seed);
        let m = model(seed);
        let mut net = MplsNetwork::new(g.clone());
        let mut ids = Vec::new();
        for _ in 0..rng.gen_range(1..8usize) {
            let s = NodeId::new(rng.gen_range(0..n));
            let t = NodeId::new(rng.gen_range(0..n));
            let php = rng.gen_bool(0.5);
            if s == t {
                continue;
            }
            let path = shortest_path(&g, &m, s, t).unwrap();
            if path.is_trivial() {
                continue;
            }
            let id = if php {
                net.establish_lsp_php(&path).unwrap()
            } else {
                net.establish_lsp(&path).unwrap()
            };
            assert_eq!(net.lsp(id).unwrap().path(), &path);
            ids.push(id);
        }
        for id in &ids {
            net.teardown_lsp(*id).unwrap();
        }
        assert_eq!(net.total_ilm_entries(), 0);
        let stats = net.stats();
        assert_eq!(stats.lsps_established, ids.len() as u64);
        assert_eq!(stats.lsps_torn_down, ids.len() as u64);
    });
}

/// A provisioned LSP forwards exactly along its path, and label ops
/// equal the path length plus the final pop (without PHP).
#[test]
fn forwarding_follows_the_lsp() {
    for_cases("forwarding_follows_the_lsp", |rng| {
        let n = rng.gen_range(5..18usize);
        let seed = rng.gen_range(0..2000u64);
        let php = rng.gen_bool(0.5);
        let g = gnm_connected(n, 2 * n, 7, seed);
        let m = model(seed);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        let path = shortest_path(&g, &m, s, t).unwrap();
        if path.is_trivial() {
            return;
        }
        let mut net = MplsNetwork::new(g);
        let id = if php {
            net.establish_lsp_php(&path).unwrap()
        } else {
            net.establish_lsp(&path).unwrap()
        };
        net.set_fec_via_lsps(s, t, &[id]).unwrap();
        let trace = net.forward(s, t).unwrap();
        assert_eq!(trace.route(), path.nodes());
        assert_eq!(trace.links(), path.edges());
        let expected_ops = if php {
            path.hop_count()
        } else {
            path.hop_count() + 1
        };
        assert_eq!(trace.label_ops() as usize, expected_ops);
        assert_eq!(trace.max_stack_depth(), 1);
    });
}

/// Any failed edge on the LSP makes forwarding fail with DeadLink at
/// exactly the upstream router.
#[test]
fn dead_links_are_reported_precisely() {
    for_cases("dead_links_are_reported_precisely", |rng| {
        let n = rng.gen_range(5..18usize);
        let seed = rng.gen_range(0..2000u64);
        let which = rng.gen_range(0..100usize);
        let g = gnm_connected(n, 2 * n, 7, seed);
        let m = model(seed);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        let path = shortest_path(&g, &m, s, t).unwrap();
        if path.is_trivial() {
            return;
        }
        let mut net = MplsNetwork::new(g);
        let id = net.establish_lsp(&path).unwrap();
        net.set_fec_via_lsps(s, t, &[id]).unwrap();
        let idx = which % path.hop_count();
        let failures = FailureSet::of_edge(path.edges()[idx]);
        match net.forward_with_failures(s, t, &failures) {
            Err(ForwardError::DeadLink { router, link }) => {
                assert_eq!(router, path.nodes()[idx]);
                assert_eq!(link, path.edges()[idx]);
            }
            other => panic!("expected DeadLink, got {other:?}"),
        }
    });
}

/// A sink tree built from a shortest-path tree delivers from every
/// router along the canonical path (same routes as per-pair LSPs).
#[test]
fn sink_tree_matches_canonical_paths() {
    for_cases("sink_tree_matches_canonical_paths", |rng| {
        let n = rng.gen_range(5..16usize);
        let seed = rng.gen_range(0..2000u64);
        let dest = NodeId::new(rng.gen_range(0..n));
        let g = gnm_connected(n, 2 * n, 6, seed);
        let m = model(seed);
        let spt = shortest_path_tree(&g, &m, dest);
        let next_hop: Vec<_> = (0..n).map(|r| spt.parent_edge(NodeId::new(r))).collect();
        let mut net = MplsNetwork::new(g.clone());
        let id = net.establish_sink_tree(dest, next_hop).unwrap();
        let tree = net.sink_tree(id).unwrap().clone();
        assert_eq!(net.total_ilm_entries(), tree.router_count());
        for s in (0..n).map(NodeId::new).filter(|&s| s != dest) {
            let label = tree.label_at(s).unwrap();
            net.set_fec_raw(s, dest, vec![label]).unwrap();
            let trace = net.forward(s, dest).unwrap();
            let canonical = shortest_path(&g, &m, s, dest).unwrap();
            assert_eq!(trace.route(), canonical.nodes(), "from {s}");
        }
    });
}

/// Concatenating two LSPs via the FEC stack visits both paths in
/// order, with stack depth 2.
#[test]
fn concatenation_traverses_both_lsps() {
    for_cases("concatenation_traverses_both_lsps", |rng| {
        let n = rng.gen_range(6..16usize);
        let seed = rng.gen_range(0..2000u64);
        let mid = NodeId::new(1 + rng.gen_range(0..n - 2));
        let g = gnm_connected(n, 2 * n, 6, seed);
        let m = model(seed);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        let p1 = shortest_path(&g, &m, s, mid).unwrap();
        let p2 = shortest_path(&g, &m, mid, t).unwrap();
        if p1.is_trivial() || p2.is_trivial() {
            return;
        }
        let mut net = MplsNetwork::new(g);
        let l1 = net.establish_lsp(&p1).unwrap();
        let l2 = net.establish_lsp(&p2).unwrap();
        net.set_fec_via_lsps(s, t, &[l1, l2]).unwrap();
        let trace = net.forward(s, t).unwrap();
        let expected = p1.concat(&p2).unwrap();
        assert_eq!(trace.route(), expected.nodes());
        assert_eq!(trace.max_stack_depth(), 2);
    });
}
