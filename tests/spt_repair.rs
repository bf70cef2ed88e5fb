//! Property test for the SPT repair engine as the base-path stores run it:
//! across random failure / recovery sequences on every suite topology
//! family, a clone of the unfailed base tree repaired under the current
//! failure set must stay **bit-identical** to a full Dijkstra rebuild
//! over the failed view — same perturbed distances, same parents, same
//! hop counts. A recovery is just a smaller failure set. Uses the in-tree
//! [`DetRng`], so it runs in offline builds.

use mpls_rbpc::graph::{
    repair_after_failures, shortest_path_tree, CostModel, CsrGraph, DetRng, DijkstraScratch,
    FailureMask, FailureSet, Graph, Metric, NodeId, RepairScratch, ShortestPathTree,
};
use mpls_rbpc::sim::{churn_sequence, ChurnEvent};
use mpls_rbpc::topo::{gnm_connected, internet_like_scaled, isp_topology, IspParams};

/// The unfailed base tree of one source, and the repair the stores run on
/// it for every failure set.
struct BaseTree<'g> {
    graph: &'g Graph,
    model: CostModel,
    csr: CsrGraph,
    base: ShortestPathTree,
    scratch: RepairScratch,
}

impl<'g> BaseTree<'g> {
    fn new(graph: &'g Graph, model: CostModel, source: NodeId) -> Self {
        let csr = CsrGraph::new(graph, &model);
        let base = csr.full_tree(source, &mut DijkstraScratch::new(csr.node_count()));
        BaseTree {
            graph,
            model,
            csr,
            base,
            scratch: RepairScratch::new(),
        }
    }

    /// Repairs a clone of the base tree under `failures` and asserts it
    /// equals the from-scratch rebuild over the failed view.
    fn assert_repair_matches_rebuild(&mut self, failures: &FailureSet, what: &str) {
        let mask = FailureMask::from_set(&self.csr, failures);
        let mut tree = self.base.clone();
        repair_after_failures(&mut tree, &self.csr, &mask, &mut self.scratch);
        let want = shortest_path_tree(&failures.view(self.graph), &self.model, tree.source());
        assert_eq!(tree, want, "repaired tree diverged from rebuild: {what}");
    }
}

/// Replays a churn sequence and checks the repair from the base tree
/// rooted at `source` after every single event.
fn assert_repair_tracks_rebuild(name: &str, graph: &Graph, seed: u64, source: usize) {
    let mut spt = BaseTree::new(
        graph,
        CostModel::new(Metric::Weighted, seed),
        NodeId::new(source),
    );
    let mut failures = FailureSet::new();
    for (i, ev) in churn_sequence(graph, 40, 4, seed).iter().enumerate() {
        match *ev {
            ChurnEvent::Fail(e) => {
                failures.fail_edge(e);
            }
            ChurnEvent::Recover(e) => {
                failures.restore_edge(e);
            }
        }
        spt.assert_repair_matches_rebuild(
            &failures,
            &format!("{name}, after event {i} ({ev:?}), seed {seed}, source {source}"),
        );
    }
}

#[test]
fn repair_equals_rebuild_on_isp() {
    let graph = isp_topology(IspParams::default(), 11).graph;
    let far = graph.node_count() - 1;
    for seed in [1, 2, 3] {
        assert_repair_tracks_rebuild("isp", &graph, seed, 0);
        assert_repair_tracks_rebuild("isp", &graph, seed, far);
    }
}

#[test]
fn repair_equals_rebuild_on_gnm_1000() {
    let graph = gnm_connected(1_000, 3_000, 20, 12);
    assert_repair_tracks_rebuild("gnm_1000", &graph, 4, 0);
    assert_repair_tracks_rebuild("gnm_1000", &graph, 5, 500);
}

#[test]
fn repair_equals_rebuild_on_power_law() {
    let graph = internet_like_scaled(1_200, 13);
    assert_repair_tracks_rebuild("powerlaw_1200", &graph, 6, 0);
    assert_repair_tracks_rebuild("powerlaw_1200", &graph, 7, 600);
}

/// Beyond the sim's churn generator: adversarial sequences that fail and
/// recover the *same* few edges repeatedly (the generator spreads events
/// over the whole edge set, so repeated flaps of one edge are rare there).
#[test]
fn repeated_flaps_of_tree_edges_stay_exact() {
    let graph = isp_topology(IspParams::default(), 21).graph;
    let mut spt = BaseTree::new(&graph, CostModel::new(Metric::Weighted, 21), NodeId::new(0));
    // Flap edges that are actually on the tree — the interesting case.
    let tree_edges: Vec<_> = (0..graph.node_count())
        .filter_map(|i| spt.base.parent_edge(NodeId::new(i)))
        .collect();
    let mut rng = DetRng::seed_from_u64(99);
    let mut failures = FailureSet::new();
    for step in 0..120 {
        let e = tree_edges[rng.gen_range(0..tree_edges.len())];
        if !failures.restore_edge(e) {
            failures.fail_edge(e);
        }
        spt.assert_repair_matches_rebuild(&failures, &format!("flap step {step} on edge {e:?}"));
    }
}
