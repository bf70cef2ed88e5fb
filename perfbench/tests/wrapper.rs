//! The timing wrapper must be invisible: through it, every store plans
//! exactly as it does bare, and its incremental repair still runs.

use rbpc_core::{BasePathOracle, DenseBasePaths, LazyBasePaths, Restorer, ShardedBasePaths};
use rbpc_graph::{CostModel, FailureSet, Graph, Metric, NodeId};
use rbpc_obs::{Counter, Registry};
use rbpc_perfbench::timed::{traced_restore, TimedOracle};
use rbpc_topo::gnm_connected;
use std::sync::Arc;

fn graph() -> Graph {
    gnm_connected(60, 150, 9, 4)
}

fn model() -> CostModel {
    CostModel::new(Metric::Weighted, 7)
}

/// Queries with edge failures on and off the base path, node failures,
/// and a failed endpoint.
fn queries<O: BasePathOracle>(oracle: &O) -> Vec<(NodeId, NodeId, FailureSet)> {
    let mut out = Vec::new();
    for (s, t) in [
        (0usize, 59usize),
        (3, 41),
        (17, 8),
        (30, 31),
        (55, 2),
        (12, 47),
    ] {
        let (s, t) = (NodeId::new(s), NodeId::new(t));
        let base = oracle.base_path(s, t).expect("connected");
        out.push((s, t, FailureSet::new()));
        for &e in base.edges() {
            out.push((s, t, FailureSet::of_edge(e)));
        }
        let es = base.edges();
        out.push((s, t, FailureSet::of_edges([es[0], es[es.len() - 1]])));
        for &v in &base.nodes()[1..base.nodes().len() - 1] {
            out.push((s, t, FailureSet::of_nodes([v.index()])));
        }
        out.push((s, t, FailureSet::of_nodes([t.index()])));
    }
    out
}

/// Plans through `Restorer` on the bare store, `Restorer` on the wrapper,
/// and the traced restore must hash alike; the traced stage times must
/// add up to the traced restore time.
fn assert_invisible<O: BasePathOracle>(bare: &O, misses: Option<Arc<Counter>>) {
    let timed = TimedOracle::new(bare, misses);
    let mut restores = 0;
    for (s, t, failures) in queries(bare) {
        let want = Restorer::new(bare).restore(s, t, &failures);
        let wrapped = Restorer::new(&timed).restore(s, t, &failures);
        let traced = traced_restore(&timed, s, t, &failures);
        restores += 1;
        match (&want, &wrapped, &traced) {
            (Ok(a), Ok(b), Ok(c)) => {
                assert_eq!(a.plan_hash(), b.plan_hash(), "{s} -> {t} {failures:?}");
                assert_eq!(a.plan_hash(), c.plan_hash(), "{s} -> {t} {failures:?}");
                assert_eq!(a, c);
            }
            (Err(a), Err(b), Err(c)) => {
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
            other => panic!("{s} -> {t} {failures:?}: modes disagree: {other:?}"),
        }
    }
    let trace = timed.take_trace();
    assert_eq!(trace.restore.calls(), restores);
    assert!(trace.probes > 0);
}

#[test]
fn dense_store_plans_alike_through_the_wrapper() {
    let dense = DenseBasePaths::build(graph(), model());
    assert_invisible(&dense, None);
}

#[test]
fn lazy_store_plans_alike_through_the_wrapper() {
    // A capacity well below the sources queried forces misses.
    let lazy = LazyBasePaths::with_capacity(graph(), model(), 3);
    assert_invisible(
        &lazy,
        Some(Registry::global().counter("core.basepaths.cache_miss")),
    );
}

#[test]
fn sharded_store_plans_alike_through_the_wrapper() {
    // Two resident shards of four sources: most segment heads miss.
    let sharded = ShardedBasePaths::with_budget(graph(), model(), 8, 4, 2);
    assert_invisible(
        &sharded,
        Some(Registry::global().counter("core.store.shard_miss")),
    );
}

#[test]
fn traced_stages_add_up_to_the_restore() {
    let dense = DenseBasePaths::build(graph(), model());
    let timed = TimedOracle::new(&dense, None);
    for (s, t, failures) in queries(&dense) {
        let _ = traced_restore(&timed, s, t, &failures);
    }
    let trace = timed.take_trace();
    let parts = trace.lookup.busy_ns()
        + trace.repair.busy_ns()
        + trace.decompose.busy_ns()
        + trace.other.total_ns();
    assert_eq!(parts, trace.restore.busy_ns());
    assert_eq!(trace.lookup.calls(), trace.restore.calls() - 6); // 6 failed endpoints
}

#[test]
fn wrapper_forwards_incremental_repair() {
    // The trait default would rebuild from scratch (`spt.rebuild.ns`);
    // the stores override it with a repair (`spt.repair.ns`).
    let registry = Registry::global();
    let dense = DenseBasePaths::build(graph(), model());
    let timed = TimedOracle::new(&dense, None);
    let base = dense.base_path(0.into(), 59.into()).expect("connected");
    let failures = FailureSet::of_edge(base.edges()[0]);
    let rebuilds = registry.histogram("spt.rebuild.ns").count();
    let repairs = registry.histogram("spt.repair.ns").count();
    let want = dense.with_spt_under(0.into(), &failures, |spt| spt.clone());
    let got = timed.with_spt_under(0.into(), &failures, |spt| spt.clone());
    assert_eq!(got, want);
    // Other tests repair concurrently; none rebuilds.
    assert!(registry.histogram("spt.repair.ns").count() >= repairs + 2);
    assert_eq!(registry.histogram("spt.rebuild.ns").count(), rebuilds);
}
