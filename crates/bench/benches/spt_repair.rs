//! Micro-bench: incremental SPT repair (`rbpc_graph::dynamic`) vs a full
//! Dijkstra rebuild after a single edge failure, both on one `CsrGraph`.
//!
//! The failed edge is a tree edge whose detached subtree has the *median*
//! size among all tree edges, so the repair workload is neither a leaf
//! (trivially cheap) nor a root-adjacent cut (rebuild-sized).
//!
//! * `full_tree` — masked CSR Dijkstra from scratch (baseline).
//! * `repair_single_edge` — repair of a pre-cloned tree; the clone happens
//!   in the untimed batch setup, so this is the pure algorithmic cost the
//!   bench gate holds ≥ 5× faster than `full_tree` on `powerlaw_5000`.
//! * `clone_repair` — clone + repair in the timed routine: the honest
//!   end-to-end cost the base-path stores pay per `with_spt_under` call.

use rbpc_bench::{criterion_group, criterion_main, BatchSize, Criterion};
use rbpc_graph::{
    repair_after_failures, CostModel, CsrGraph, DijkstraScratch, EdgeId, FailureMask, Metric,
    NodeId, RepairScratch, ShortestPathTree,
};
use rbpc_topo::{gnm_connected, internet_like_scaled};
use std::hint::black_box;

/// Picks the tree edge whose subtree size is the median over all tree
/// edges of `tree` — a representative single-link failure.
fn median_subtree_edge(tree: &ShortestPathTree) -> EdgeId {
    let mut sized: Vec<(usize, EdgeId)> = (0..tree.node_count())
        .filter_map(|i| {
            let v = NodeId::new(i);
            let e = tree.parent_edge(v)?;
            Some((tree.subtree(v).len(), e))
        })
        .collect();
    sized.sort_unstable();
    sized[sized.len() / 2].1
}

fn bench_spt_repair(c: &mut Criterion) {
    let isp = rbpc_bench::isp_graph();
    let random = gnm_connected(1_000, 3_000, 20, rbpc_bench::SEED);
    let power = internet_like_scaled(5_000, rbpc_bench::SEED);
    let model = CostModel::new(Metric::Weighted, rbpc_bench::SEED);

    let mut g = c.benchmark_group("spt_repair");
    for (name, graph) in [
        ("isp_200", &isp),
        ("gnm_1000", &random),
        ("powerlaw_5000", &power),
    ] {
        let source = NodeId::new(0);
        let csr = CsrGraph::new(graph, &model);
        let mut dijkstra = DijkstraScratch::new(csr.node_count());
        let mut scratch = RepairScratch::new();
        let base = csr.full_tree(source, &mut dijkstra);
        let mut mask = FailureMask::new(csr.node_count(), csr.edge_count());
        mask.fail_edge(median_subtree_edge(&base));

        g.bench_function(format!("{name}/full_tree"), |b| {
            b.iter(|| csr.full_tree_masked(source, Some(black_box(&mask)), &mut dijkstra))
        });
        g.bench_function(format!("{name}/repair_single_edge"), |b| {
            b.iter_batched(
                || base.clone(),
                |mut tree| {
                    repair_after_failures(&mut tree, &csr, black_box(&mask), &mut scratch);
                    tree
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_function(format!("{name}/clone_repair"), |b| {
            b.iter(|| {
                let mut tree = base.clone();
                repair_after_failures(&mut tree, &csr, black_box(&mask), &mut scratch);
                tree
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_spt_repair);
criterion_main!(benches);
