//! The traced run: a timing wrapper around the measured oracle, and a
//! restore that calls the layers one by one.
//!
//! Nothing inside the program is instrumented. [`TimedOracle`] forwards
//! every [`BasePathOracle`] method to the wrapped store and times, from
//! outside, the public calls that are the layers of one restore:
//!
//! * `base_path` — `core.basepaths.lookup`;
//! * `path_under` — `graph.dynamic.repair`;
//! * `longest_base_prefix` — one `core.decompose` probe.
//!
//! [`traced_restore`] replays `Restorer::restore`'s inner sequence
//! through the wrapper: lookup, then repair only when the route was
//! affected, then `greedy_decompose`. What is left of the restore's time
//! once the three stages are taken out is `core.restore.other`.
//!
//! A store miss shows up as a rise of the store's own miss counter across
//! a call. The time of a call that missed is booked as miss time, a child
//! of its stage: lookup and decompose probes are where misses happen.
//!
//! Records stay in memory (one sample per call and stage) and are
//! summarised when the run ends.

use crate::stats::Samples;
use rbpc_core::{greedy_decompose, BasePathOracle, Restoration, RestoreError};
use rbpc_eval::AnyOracle;
use rbpc_graph::{CostModel, FailureSet, Graph, NodeId, Path, PathCost, ShortestPathTree};
use rbpc_obs::{Counter, Registry};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// The obs counter that rises on every store miss of `oracle`, or `None`
/// for the dense store, which never misses.
pub fn miss_counter(oracle: &AnyOracle) -> Option<Arc<Counter>> {
    match oracle {
        AnyOracle::Dense(_) => None,
        AnyOracle::Lazy(_) => Some(Registry::global().counter("core.basepaths.cache_miss")),
        AnyOracle::Sharded(_) => Some(Registry::global().counter("core.store.shard_miss")),
    }
}

/// One stage's calls: a raw duration per call, plus the part of its time
/// spent in calls that missed the store.
#[derive(Debug, Default)]
pub struct Stage {
    /// Per-call durations.
    pub samples: Samples,
    /// Calls that saw the store miss.
    pub misses: u64,
    /// Nanoseconds spent in calls (or probes) that saw the store miss.
    pub miss_ns: u64,
}

impl Stage {
    fn record(&mut self, ns: u64, missed: bool) {
        self.samples.push(ns);
        if missed {
            self.misses += 1;
            self.miss_ns += ns;
        }
    }

    fn absorb(&mut self, other: Stage) {
        self.samples.extend(other.samples);
        self.misses += other.misses;
        self.miss_ns += other.miss_ns;
    }

    /// Number of calls.
    pub fn calls(&self) -> usize {
        self.samples.len()
    }

    /// Total busy time in nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.samples.total_ns()
    }
}

/// Everything the traced run records.
#[derive(Debug, Default)]
pub struct Trace {
    /// Whole restores.
    pub restore: Stage,
    /// `base_path` calls.
    pub lookup: Stage,
    /// `path_under` calls.
    pub repair: Stage,
    /// `greedy_decompose` calls; probe misses are booked here.
    pub decompose: Stage,
    /// Per restore: its time minus its three stages.
    pub other: Samples,
    /// `longest_base_prefix` probes.
    pub probes: u64,
    /// Segments over all decompositions.
    pub segments: u64,
    /// Raw-edge segments over all decompositions.
    pub raw_edges: u64,
    /// Stage time of the restore in flight.
    in_flight_ns: u64,
}

impl Trace {
    /// Adds the records of another trace (e.g. of a later segment).
    pub fn absorb(&mut self, other: Trace) {
        self.restore.absorb(other.restore);
        self.lookup.absorb(other.lookup);
        self.repair.absorb(other.repair);
        self.decompose.absorb(other.decompose);
        self.other.extend(other.other);
        self.probes += other.probes;
        self.segments += other.segments;
        self.raw_edges += other.raw_edges;
    }
}

/// A [`BasePathOracle`] that forwards every call to `inner` and times the
/// layer calls of a restore (see the module docs).
#[derive(Debug)]
pub struct TimedOracle<'a, O> {
    inner: &'a O,
    misses: Option<Arc<Counter>>,
    trace: RefCell<Trace>,
}

impl<'a, O: BasePathOracle> TimedOracle<'a, O> {
    /// Wraps `inner`; `misses` is its store-miss counter, if it has one.
    pub fn new(inner: &'a O, misses: Option<Arc<Counter>>) -> Self {
        TimedOracle {
            inner,
            misses,
            trace: RefCell::new(Trace::default()),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &'a O {
        self.inner
    }

    /// Takes the records so far, leaving an empty trace.
    pub fn take_trace(&self) -> Trace {
        std::mem::take(&mut *self.trace.borrow_mut())
    }

    fn miss_count(&self) -> u64 {
        self.misses.as_ref().map_or(0, |c| c.get())
    }

    /// Runs `f`, returning its result, its duration and whether the
    /// store missed meanwhile.
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, u64, bool) {
        let before = self.miss_count();
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        (out, ns, self.miss_count() > before)
    }

    fn stage_done(&self, pick: fn(&mut Trace) -> &mut Stage, ns: u64, missed: bool) {
        let mut trace = self.trace.borrow_mut();
        trace.in_flight_ns += ns;
        pick(&mut trace).record(ns, missed);
    }
}

impl<O: BasePathOracle> BasePathOracle for TimedOracle<'_, O> {
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        self.inner.with_spt(source, f)
    }

    // Forwarded explicitly: the trait's default would rebuild the tree
    // from scratch instead of running the store's incremental repair.
    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        self.inner.with_spt_under(source, failures, f)
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        let (out, ns, missed) = self.time(|| self.inner.path_under(s, t, failures));
        self.stage_done(|t| &mut t.repair, ns, missed);
        out
    }

    fn base_path(&self, s: NodeId, t: NodeId) -> Option<Path> {
        let (out, ns, missed) = self.time(|| self.inner.base_path(s, t));
        self.stage_done(|t| &mut t.lookup, ns, missed);
        out
    }

    fn base_dist(&self, s: NodeId, t: NodeId) -> Option<u64> {
        self.inner.base_dist(s, t)
    }

    fn base_cost(&self, s: NodeId, t: NodeId) -> Option<PathCost> {
        self.inner.base_cost(s, t)
    }

    fn is_base_path(&self, path: &Path) -> bool {
        self.inner.is_base_path(path)
    }

    fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
        let (out, ns, missed) = self.time(|| self.inner.longest_base_prefix(path, from));
        let mut trace = self.trace.borrow_mut();
        trace.probes += 1;
        if missed {
            // The probe's time stays inside the enclosing decompose call;
            // only its miss share is booked here.
            trace.decompose.misses += 1;
            trace.decompose.miss_ns += ns;
        }
        out
    }
}

/// Whether `path` avoids every failed element (`Restorer::restore`'s
/// "affected" test, negated).
fn survives(path: &Path, failures: &FailureSet) -> bool {
    path.edges().iter().all(|&e| !failures.edge_failed(e))
        && path.nodes().iter().all(|&v| !failures.node_failed(v))
}

/// Restores `s → t` under `failures` through the wrapper, timing each
/// layer: the same checks, calls and result as `Restorer::restore`.
///
/// # Errors
///
/// As `Restorer::restore`.
pub fn traced_restore<O: BasePathOracle>(
    timed: &TimedOracle<'_, O>,
    s: NodeId,
    t: NodeId,
    failures: &FailureSet,
) -> Result<Restoration, RestoreError> {
    timed.trace.borrow_mut().in_flight_ns = 0;
    let started = Instant::now();
    let result = restore_stages(timed, s, t, failures);
    let total = started.elapsed().as_nanos() as u64;
    let mut trace = timed.trace.borrow_mut();
    let stages = trace.in_flight_ns;
    trace.restore.record(total, false);
    trace.other.push(total.saturating_sub(stages));
    if let Ok(r) = &result {
        trace.segments += r.concatenation.len() as u64;
        trace.raw_edges += r.concatenation.raw_edge_count() as u64;
    }
    result
}

fn restore_stages<O: BasePathOracle>(
    timed: &TimedOracle<'_, O>,
    s: NodeId,
    t: NodeId,
    failures: &FailureSet,
) -> Result<Restoration, RestoreError> {
    let graph = timed.graph();
    let model = timed.cost_model();
    for node in [s, t] {
        if node.index() >= graph.node_count() {
            return Err(RestoreError::UnknownNode { node });
        }
        if failures.node_failed(node) {
            return Err(RestoreError::EndpointFailed { node });
        }
    }
    let disconnected = RestoreError::Disconnected {
        source: s,
        target: t,
    };
    let original = timed.base_path(s, t).ok_or(disconnected)?;
    let affected = !survives(&original, failures);
    let backup = if affected {
        timed.path_under(s, t, failures).ok_or(disconnected)?
    } else {
        original.clone()
    };
    let (concatenation, ns, _) = timed.time(|| greedy_decompose(timed, &backup));
    // Probe misses were booked as they happened; the call itself is not
    // booked as a miss a second time.
    timed.stage_done(|t| &mut t.decompose, ns, false);
    Ok(Restoration {
        source: s,
        target: t,
        original_cost: original.cost(graph, model),
        backup_cost: backup.cost(graph, model),
        original,
        backup,
        concatenation,
        affected,
    })
}
