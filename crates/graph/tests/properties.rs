//! Property tests for the graph substrate, written as seeded [`DetRng`]
//! loops so they compile and run in offline builds: every property draws
//! its random multigraphs and parameters from a fixed seed per case, and a
//! failing case names that seed.

use rbpc_graph::{
    bfs_distances, count_shortest_paths, cut_elements, distance, k_shortest_paths,
    repair_after_failures, shortest_path, shortest_path_tree, CostModel, CsrGraph, DetRng,
    DijkstraScratch, EdgeId, FailureMask, FailureSet, Graph, Metric, NodeId, RepairScratch,
    ShortestPathTree,
};

/// Random multigraph with `nodes` nodes: a spine of `spine_weight` edges
/// keeps most graphs connected (so the reachability-dependent properties
/// bite), plus up to `extra_per_node · n` random edges weighted
/// `1..=max_weight`.
fn random_graph(
    rng: &mut DetRng,
    nodes: std::ops::RangeInclusive<usize>,
    spine_weight: u32,
    max_weight: u32,
    extra_per_node: usize,
) -> Graph {
    let n = rng.gen_range(nodes);
    let mut g = Graph::new(n);
    for i in 0..n - 1 {
        g.add_edge(i, i + 1, spine_weight).unwrap();
    }
    for _ in 0..rng.gen_range(1..=extra_per_node * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            g.add_edge(a, b, rng.gen_range(1..=max_weight)).unwrap();
        }
    }
    g
}

/// Runs `check` on `cases` seeded cases, each with a 2..=24-node graph,
/// a cost-model seed, and the case's own generator for further draws.
fn for_cases(name: &str, cases: u64, mut check: impl FnMut(&Graph, u64, &mut DetRng)) {
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(case ^ 0x9E37_79B9_7F4A_7C15);
        let g = random_graph(&mut rng, 2..=24, 7, 20, 3);
        let seed = rng.gen_range(0..1000u64);
        eprintln!("{name}: case {case}");
        check(&g, seed, &mut rng);
    }
}

/// Distances are symmetric in an undirected graph.
#[test]
fn distance_symmetry() {
    for_cases("distance_symmetry", 64, |g, seed, _| {
        let m = CostModel::new(Metric::Weighted, seed);
        let n = g.node_count();
        for s in 0..n.min(5) {
            for t in 0..n.min(5) {
                let st = distance(g, &m, s.into(), t.into()).map(|c| c.base);
                let ts = distance(g, &m, t.into(), s.into()).map(|c| c.base);
                assert_eq!(st, ts);
            }
        }
    });
}

/// Triangle inequality holds for base distances.
#[test]
fn triangle_inequality() {
    for_cases("triangle_inequality", 64, |g, seed, _| {
        let m = CostModel::new(Metric::Weighted, seed);
        let t0 = shortest_path_tree(g, &m, 0.into());
        let t1 = shortest_path_tree(g, &m, NodeId::new(g.node_count() - 1));
        for v in g.nodes() {
            if let (Some(a), Some(b), Some(direct)) =
                (t0.base_dist(v), t1.base_dist(v), t0.base_dist(t1.source()))
            {
                assert!(direct <= a + b);
            }
        }
    });
}

/// Under the unweighted metric, Dijkstra's hop distances equal BFS.
#[test]
fn unweighted_equals_bfs() {
    for_cases("unweighted_equals_bfs", 64, |g, seed, _| {
        let m = CostModel::new(Metric::Unweighted, seed);
        let t = shortest_path_tree(g, &m, 0.into());
        let bfs = bfs_distances(g, 0.into());
        for v in g.nodes() {
            assert_eq!(t.base_dist(v), bfs[v.index()].map(u64::from));
        }
    });
}

/// The tie-broken shortest path is unique: forward and reverse queries
/// return the same path (reversed), and the tree agrees with the
/// point-to-point query.
#[test]
fn canonical_paths_agree() {
    for_cases("canonical_paths_agree", 64, |g, seed, _| {
        let m = CostModel::new(Metric::Weighted, seed);
        let t = NodeId::new(g.node_count() - 1);
        let tree = shortest_path_tree(g, &m, 0.into());
        if let Some(p) = shortest_path(g, &m, 0.into(), t) {
            assert_eq!(&p, &tree.path_to(t).unwrap());
            let back = shortest_path(g, &m, t, 0.into()).unwrap();
            assert_eq!(p, back.reversed());
        }
    });
}

/// Subpath optimality under the perturbed metric: every subpath of a
/// canonical shortest path is itself the canonical shortest path of its
/// endpoints. (This is what greedy RBPC decomposition relies on.)
#[test]
fn subpath_optimality() {
    for_cases("subpath_optimality", 64, |g, seed, _| {
        let m = CostModel::new(Metric::Weighted, seed);
        let tree = shortest_path_tree(g, &m, 0.into());
        if let Some(p) = tree.path_to(NodeId::new(g.node_count() - 1)) {
            let len = p.nodes().len();
            for i in 0..len.min(4) {
                for j in i..len {
                    let sub = p.subpath(i, j);
                    let canonical = shortest_path(g, &m, sub.source(), sub.target()).unwrap();
                    assert_eq!(sub, canonical);
                }
            }
        }
    });
}

/// Failing elements never shortens any distance.
#[test]
fn failures_monotone() {
    for_cases("failures_monotone", 64, |g, seed, rng| {
        let m = CostModel::new(Metric::Weighted, seed);
        let t = NodeId::new(g.node_count() - 1);
        let before = distance(g, &m, 0.into(), t).map(|c| c.base);
        let f = FailureSet::of_edges(g.edge_ids().take(rng.gen_range(0..6usize)));
        let after = distance(&f.view(g), &m, 0.into(), t).map(|c| c.base);
        match (before, after) {
            (None, Some(_)) => panic!("failure created connectivity"),
            (Some(b), Some(a)) => assert!(a >= b),
            _ => {}
        }
    });
}

/// Shortest-path counts are positive exactly on reachable nodes.
#[test]
fn counts_match_reachability() {
    for_cases("counts_match_reachability", 64, |g, _, _| {
        let counts = count_shortest_paths(g, Metric::Weighted, 0.into());
        let bfs = bfs_distances(g, 0.into());
        for v in g.nodes() {
            assert_eq!(counts[v.index()] > 0, bfs[v.index()].is_some());
        }
    });
}

/// The returned path is a valid walk whose cost matches the reported
/// distance.
#[test]
fn path_cost_consistency() {
    for_cases("path_cost_consistency", 64, |g, seed, _| {
        let m = CostModel::new(Metric::Weighted, seed);
        let t = NodeId::new(g.node_count() / 2);
        if let Some(p) = shortest_path(g, &m, 0.into(), t) {
            assert!(p.is_simple());
            assert_eq!(p.source(), 0.into());
            assert_eq!(p.target(), t);
            let d = distance(g, &m, 0.into(), t).unwrap();
            assert_eq!(p.cost(g, &m), d);
            // Every hop must be a real edge joining consecutive nodes.
            for (i, &e) in p.edges().iter().enumerate() {
                let rec = g.edge(e);
                assert!(rec.touches(p.nodes()[i]));
                assert!(rec.touches(p.nodes()[i + 1]));
            }
        }
    });
}

/// Yen's paths are simple, distinct, sorted, and start with the canonical
/// shortest path.
#[test]
fn yen_invariants() {
    for case in 0..48u64 {
        let mut rng = DetRng::seed_from_u64(case ^ 0x5EED_0001);
        let g = random_graph(&mut rng, 4..=14, 5, 9, 2);
        let m = CostModel::new(Metric::Weighted, rng.gen_range(0..500u64));
        let k = rng.gen_range(1..6usize);
        let t = NodeId::new(g.node_count() - 1);
        let ps = k_shortest_paths(&g, &m, NodeId::new(0), t, k);
        assert!(!ps.is_empty() && ps.len() <= k, "case {case}");
        assert_eq!(
            ps[0].cost(&g, &m).base,
            distance(&g, &m, NodeId::new(0), t).unwrap().base,
            "case {case}"
        );
        for w in ps.windows(2) {
            assert!(w[0].cost(&g, &m).perturbed <= w[1].cost(&g, &m).perturbed);
            assert_ne!(&w[0], &w[1], "case {case}");
        }
        assert!(ps.iter().all(|p| p.is_simple()), "case {case}");
    }
}

/// An edge is a bridge iff failing it disconnects its endpoints.
#[test]
fn bridges_match_disconnection() {
    for case in 0..48u64 {
        let mut rng = DetRng::seed_from_u64(case ^ 0x5EED_0002);
        let g = random_graph(&mut rng, 4..=14, 5, 9, 2);
        let m = CostModel::new(Metric::Weighted, rng.gen_range(0..500u64));
        let cuts = cut_elements(&g);
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            let view_set = FailureSet::of_edge(e);
            let disconnected = distance(&view_set.view(&g), &m, u, v).is_none();
            assert_eq!(
                disconnected,
                cuts.bridges.contains(&e),
                "case {case}, edge {e}"
            );
        }
    }
}

/// Checks a CSR-repaired tree against the reference Dijkstra over the
/// `FailureView` of `set`, and against the CSR tree validator.
fn assert_repair_exact(g: &Graph, csr: &CsrGraph, tree: &ShortestPathTree, set: &FailureSet) {
    let m = csr.model();
    let want = shortest_path_tree(&set.view(g), m, tree.source());
    assert_eq!(tree, &want, "source {}, failures {set:?}", tree.source());
    let mask = FailureMask::from_set(csr, set);
    assert_eq!(csr.validate_tree(tree, Some(&mask)), Ok(()));
}

/// A tree node that is neither the source nor a leaf, if there is one.
fn interior_node(tree: &ShortestPathTree, rng: &mut DetRng) -> Option<NodeId> {
    let n = tree.node_count();
    let mut has_child = vec![false; n];
    for v in (0..n).map(NodeId::new) {
        if let Some(p) = tree.parent_node(v) {
            has_child[p.index()] = true;
        }
    }
    let interior: Vec<usize> = (0..n)
        .filter(|&v| has_child[v] && v != tree.source().index())
        .collect();
    (!interior.is_empty()).then(|| NodeId::new(interior[rng.gen_range(0..interior.len())]))
}

/// The CSR repair engine under random edge failures, interior-node
/// failures, and a failed source: every repaired tree equals the reference
/// rebuild over the failed view and passes `CsrGraph::validate_tree`. The
/// failures arrive in two steps (edges, then edges plus a node), so the
/// second repair starts from an already-repaired tree.
#[test]
fn csr_repair_matches_reference_rebuild() {
    let mut scratch = RepairScratch::new();
    for_cases(
        "csr_repair_matches_reference_rebuild",
        64,
        |g, seed, rng| {
            let csr = CsrGraph::new(g, &CostModel::new(Metric::Weighted, seed));
            let mut dijkstra = DijkstraScratch::new(csr.node_count());
            let n = g.node_count();
            for source in [0, n / 2, n - 1].map(NodeId::new) {
                let base = csr.full_tree(source, &mut dijkstra);
                let mut set = FailureSet::new();
                for _ in 0..rng.gen_range(1..=4usize) {
                    set.fail_edge(EdgeId::new(rng.gen_range(0..g.edge_count())));
                }
                let mut tree = base.clone();
                let mut mask = FailureMask::from_set(&csr, &set);
                repair_after_failures(&mut tree, &csr, &mask, &mut scratch);
                assert_repair_exact(g, &csr, &tree, &set);

                if let Some(v) = interior_node(&base, rng) {
                    set.fail_node(v);
                    mask.fail_node(v);
                    repair_after_failures(&mut tree, &csr, &mask, &mut scratch);
                    assert_repair_exact(g, &csr, &tree, &set);
                }

                let mut dead_source = FailureSet::of_nodes([source]);
                dead_source.fail_edge(EdgeId::new(rng.gen_range(0..g.edge_count())));
                let mut tree = base.clone();
                let mask = FailureMask::from_set(&csr, &dead_source);
                repair_after_failures(&mut tree, &csr, &mask, &mut scratch);
                assert_repair_exact(g, &csr, &tree, &dead_source);
            }
        },
    );
}

/// The tree-step walk: the largest `j ≥ from` such that `nodes[from..=j]`
/// is a path of `tree`.
fn tree_walk(tree: &ShortestPathTree, nodes: &[NodeId], edges: &[EdgeId], from: usize) -> usize {
    let mut j = from;
    while j + 1 < nodes.len() && tree.is_tree_step(nodes[j], edges[j], nodes[j + 1]) {
        j += 1;
    }
    j
}

/// A random walk of up to 12 hops from `start`, revisits allowed.
fn random_walk(g: &Graph, start: NodeId, rng: &mut DetRng) -> (Vec<NodeId>, Vec<EdgeId>) {
    let (mut nodes, mut edges) = (vec![start], Vec::new());
    for _ in 0..rng.gen_range(0..=12usize) {
        let at = *nodes.last().unwrap();
        let out: Vec<_> = g.neighbors(at).collect();
        if out.is_empty() {
            break;
        }
        let step = out[rng.gen_range(0..out.len())];
        nodes.push(step.to);
        edges.push(step.edge);
    }
    (nodes, edges)
}

/// The bounded probe equals the tree-step walk on the full tree of every
/// head, on both metrics over multigraphs: for base paths (whose every
/// suffix the two-sided check accepts), for backup paths from
/// `repair_after_failures` (which leave the base trees wherever a
/// failure detoured them), and for random walks (which revisit nodes).
#[test]
fn longest_tree_prefix_matches_tree_walk() {
    let mut repair = RepairScratch::new();
    for_cases(
        "longest_tree_prefix_matches_tree_walk",
        64,
        |g, seed, rng| {
            let n = g.node_count();
            for metric in [Metric::Weighted, Metric::Unweighted] {
                let csr = CsrGraph::new(g, &CostModel::new(metric, seed));
                let mut scratch = DijkstraScratch::new(0);
                let mut paths: Vec<(Vec<NodeId>, Vec<EdgeId>)> = Vec::new();
                for _ in 0..4 {
                    let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let base = csr.full_tree(NodeId::new(s), &mut scratch);
                    let mut set = FailureSet::new();
                    for _ in 0..rng.gen_range(1..=3usize) {
                        set.fail_edge(EdgeId::new(rng.gen_range(0..g.edge_count())));
                    }
                    let mut backup = base.clone();
                    let mask = FailureMask::from_set(&csr, &set);
                    repair_after_failures(&mut backup, &csr, &mask, &mut repair);
                    for tree in [&base, &backup] {
                        if let Some(p) = tree.path_to(NodeId::new(t)) {
                            paths.push((p.nodes().to_vec(), p.edges().to_vec()));
                        }
                    }
                    paths.push(random_walk(g, NodeId::new(s), rng));
                }
                for (nodes, edges) in &paths {
                    for from in 0..nodes.len() {
                        let want = tree_walk(
                            &csr.full_tree(nodes[from], &mut scratch),
                            nodes,
                            edges,
                            from,
                        );
                        let got = csr.longest_tree_prefix(nodes, edges, from, &mut scratch);
                        assert_eq!(
                            got, want,
                            "{metric:?}, from {from} on {nodes:?} / {edges:?}"
                        );
                    }
                }
            }
        },
    );
}

/// A random failure set for searches from `s`: up to three edges, and
/// half the time one node other than `s`.
fn random_failures(g: &Graph, s: NodeId, rng: &mut DetRng) -> FailureSet {
    let mut set = FailureSet::new();
    for _ in 0..rng.gen_range(0..=3usize) {
        set.fail_edge(EdgeId::new(rng.gen_range(0..g.edge_count())));
    }
    let v = NodeId::new(rng.gen_range(0..g.node_count()));
    if v != s && rng.gen_bool(0.5) {
        set.fail_node(v);
    }
    set
}

/// The three scalar searches share one seed/pop/relax loop and one
/// scratch: interleaved in random order on a single `DijkstraScratch`,
/// the full tree equals the reference tree over the `FailureView`,
/// point-to-point equals that tree's path (`None` included), and the
/// bounded probe equals the tree-step walk over the unmasked tree. The
/// point-to-point search and the probe stop early and leave heap entries
/// and touched records behind; none of them may leak into the next search.
#[test]
fn scalar_searches_interleave_on_one_scratch() {
    for_cases(
        "scalar_searches_interleave_on_one_scratch",
        64,
        |g, seed, rng| {
            let n = g.node_count();
            let mut scratch = DijkstraScratch::new(0);
            for metric in [Metric::Weighted, Metric::Unweighted] {
                let model = CostModel::new(metric, seed);
                let csr = CsrGraph::new(g, &model);
                for _ in 0..24 {
                    let s = NodeId::new(rng.gen_range(0..n));
                    let set = random_failures(g, s, rng);
                    let mask = FailureMask::from_set(&csr, &set);
                    // An empty set runs the unmasked searches.
                    let mask = (!set.is_empty()).then_some(&mask);
                    let tree = shortest_path_tree(&set.view(g), &model, s);
                    let t = NodeId::new(rng.gen_range(0..n));
                    match rng.gen_range(0..3usize) {
                        0 => assert_eq!(
                            csr.full_tree_masked(s, mask, &mut scratch),
                            tree,
                            "{metric:?}, full tree from {s} under {set:?}"
                        ),
                        1 => assert_eq!(
                            csr.point_to_point(s, t, mask, &mut scratch),
                            tree.path_to(t),
                            "{metric:?}, {s} -> {t} under {set:?}"
                        ),
                        _ => {
                            // A backup path (it leaves the base trees where
                            // a failure detoured it) or a random walk.
                            let (nodes, edges) = match tree.path_to(t) {
                                Some(p) if rng.gen_bool(0.5) => {
                                    (p.nodes().to_vec(), p.edges().to_vec())
                                }
                                _ => random_walk(g, s, rng),
                            };
                            let from = rng.gen_range(0..nodes.len());
                            let head = shortest_path_tree(g, &model, nodes[from]);
                            assert_eq!(
                                csr.longest_tree_prefix(&nodes, &edges, from, &mut scratch),
                                tree_walk(&head, &nodes, &edges, from),
                                "{metric:?}, from {from} on {nodes:?} / {edges:?}"
                            );
                        }
                    }
                }
            }
        },
    );
}

/// Every simple `s → t` path that avoids `set`, as (padded cost, nodes,
/// edges), by depth-first enumeration.
fn simple_paths(
    g: &Graph,
    model: &CostModel,
    s: NodeId,
    t: NodeId,
    set: &FailureSet,
) -> Vec<(u128, Vec<NodeId>, Vec<EdgeId>)> {
    fn extend(
        g: &Graph,
        model: &CostModel,
        t: NodeId,
        set: &FailureSet,
        walk: &mut (u128, Vec<NodeId>, Vec<EdgeId>),
        out: &mut Vec<(u128, Vec<NodeId>, Vec<EdgeId>)>,
    ) {
        let at = *walk.1.last().expect("a walk starts at s");
        if at == t {
            out.push(walk.clone());
            return;
        }
        for h in g.neighbors(at) {
            if set.edge_failed(h.edge) || set.node_failed(h.to) || walk.1.contains(&h.to) {
                continue;
            }
            let w = model.perturbed_weight(g, h.edge);
            walk.0 += w;
            walk.1.push(h.to);
            walk.2.push(h.edge);
            extend(g, model, t, set, walk, out);
            walk.0 -= w;
            walk.1.pop();
            walk.2.pop();
        }
    }
    let mut out = Vec::new();
    if !set.node_failed(s) {
        extend(g, model, t, set, &mut (0, vec![s], Vec::new()), &mut out);
    }
    out
}

/// Brute-force oracle for the two-sided search: on multigraphs of at most
/// nine nodes, masked `point_to_point` returns the cheapest (by padded
/// cost, which no other simple path ties) of every simple `s → t` path
/// that avoids the failures, and `None` exactly when there is none.
#[test]
fn point_to_point_is_the_cheapest_simple_path() {
    for case in 0..200u64 {
        let mut rng = DetRng::seed_from_u64(case ^ 0xB0_7E_F0_4C);
        let n = rng.gen_range(2..=9usize);
        let mut g = Graph::new(n);
        // Up to two edges per node, parallel edges allowed, no spine: some
        // graphs come out disconnected.
        for _ in 0..rng.gen_range(1..=2 * n) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                g.add_edge(a, b, rng.gen_range(1..=6u32)).unwrap();
            }
        }
        if g.edge_count() == 0 {
            continue;
        }
        let seed = rng.gen_range(0..1000u64);
        let mut scratch = DijkstraScratch::new(0);
        for metric in [Metric::Weighted, Metric::Unweighted] {
            let model = CostModel::new(metric, seed);
            let csr = CsrGraph::new(&g, &model);
            for _ in 0..8 {
                let (s, t) = (
                    NodeId::new(rng.gen_range(0..n)),
                    NodeId::new(rng.gen_range(0..n)),
                );
                let mut set = FailureSet::new();
                for _ in 0..rng.gen_range(0..=3usize) {
                    set.fail_edge(EdgeId::new(rng.gen_range(0..g.edge_count())));
                }
                if rng.gen_bool(0.25) {
                    set.fail_node(NodeId::new(rng.gen_range(0..n)));
                }
                let mut paths = simple_paths(&g, &model, s, t, &set);
                paths.sort_by_key(|p| p.0);
                if let [first, second, ..] = &paths[..] {
                    assert!(first.0 < second.0, "case {case}: padded costs tie");
                }
                let mask = FailureMask::from_set(&csr, &set);
                let mask = (!set.is_empty()).then_some(&mask);
                let got = csr.point_to_point(s, t, mask, &mut scratch);
                let want = paths
                    .first()
                    .map(|(_, nodes, edges)| (&nodes[..], &edges[..]));
                assert_eq!(
                    got.as_ref().map(|p| (p.nodes(), p.edges())),
                    want,
                    "case {case}, {metric:?}, {s} -> {t} under {set:?} on {g:?}"
                );
            }
        }
    }
}
