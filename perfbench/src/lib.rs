//! End-to-end restore benchmark for the RBPC workspace.
//!
//! Three workloads drive the public `rbpc-core`/`rbpc-eval` API exactly
//! as a user builds it (default features, so `obs` is on), each on the
//! store the production selection [`AnyOracle::for_graph_threads`] picks:
//!
//! * `isp_storm` — the 200-node weighted ISP on the dense store: failure
//!   storms, each disrupted route restored, its FEC entry rewritten and a
//!   probe packet forwarded through the MPLS domain ([`storm`]);
//! * `as_lazy` — the 4 746-node AS map on the lazy FIFO store, the same
//!   storm driver without MPLS ([`storm`]);
//! * `internet_protocol` — the 40 377-node Internet map on the sharded
//!   store: one budget of sources prefetched, then the paper's Table 2
//!   protocol over a seeded stream of pairs ([`protocol`]).
//!
//! Untraced runs report the end-to-end metrics; traced runs replay the
//! same workload through [`timed::TimedOracle`] and report the per-layer
//! split. Every run checks its outputs ([`check`]).

pub mod check;
pub mod protocol;
pub mod report;
pub mod stats;
pub mod storm;
pub mod timed;

use rbpc_core::{BasePathOracle, BasePathStore, Restoration, RestoreError, Restorer};
use rbpc_eval::AnyOracle;
use rbpc_graph::{CostModel, FailureSet, Graph, NodeId};
use report::CsrWork;
use std::time::{Duration, Instant};
use timed::{miss_counter, traced_restore, TimedOracle};

/// The seed whose plan digests are pinned in [`check::expected_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Seed of the topologies and of the cost model's padding. The networks
/// are fixed, as an operator's network is; `--seed` draws the traffic,
/// the storms and the sampled pairs.
pub const NETWORK_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Storms on the weighted ISP, dense store, with MPLS.
    IspStorm,
    /// Storms on the AS map, lazy store, no MPLS.
    AsLazy,
    /// The Table 2 protocol on the Internet map, sharded store.
    InternetProtocol,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::IspStorm,
        Workload::AsLazy,
        Workload::InternetProtocol,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IspStorm => "isp_storm",
            Workload::AsLazy => "as_lazy",
            Workload::InternetProtocol => "internet_protocol",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the real networks, or small stand-ins for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-sized networks.
    Full,
    /// Small networks that exercise the same stores, for tests.
    Tiny,
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub measure: Duration,
    /// Traced (per-layer) rather than untraced (end-to-end) run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Store build threads.
    pub threads: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run produced: the metrics for its mode, extra report lines,
/// and its checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Metrics printed in the report but not part of the result object:
    /// layers a workload does not exercise read 0 there.
    pub extra: Vec<Metric>,
    /// Free-form report lines (quantiles with their sample counts).
    pub notes: Vec<String>,
    /// Output checks.
    pub checks: check::Checks,
}

/// How restores are issued: straight through [`Restorer::restore`], or
/// layer by layer through the timing wrapper.
pub enum Engine<'a> {
    /// The untraced run.
    Plain(Restorer<'a, AnyOracle>),
    /// The traced run.
    Traced(Box<TimedOracle<'a, AnyOracle>>),
}

impl<'a> Engine<'a> {
    /// The engine for `oracle` in the given mode.
    pub fn new(oracle: &'a AnyOracle, trace: bool) -> Self {
        if trace {
            Engine::Traced(Box::new(TimedOracle::new(oracle, miss_counter(oracle))))
        } else {
            Engine::Plain(Restorer::new(oracle))
        }
    }

    /// Restores `s → t` under `failures`.
    ///
    /// # Errors
    ///
    /// As [`Restorer::restore`].
    pub fn restore(
        &self,
        s: NodeId,
        t: NodeId,
        failures: &FailureSet,
    ) -> Result<Restoration, RestoreError> {
        match self {
            Engine::Plain(r) => r.restore(s, t, failures),
            Engine::Traced(timed) => traced_restore(timed, s, t, failures),
        }
    }

    /// Restores through the *other* mode, without recording anything —
    /// the cross-check that traced and untraced runs plan alike.
    ///
    /// # Errors
    ///
    /// As [`Restorer::restore`].
    pub fn restore_other_mode(
        &self,
        s: NodeId,
        t: NodeId,
        failures: &FailureSet,
    ) -> Result<Restoration, RestoreError> {
        match self {
            Engine::Plain(r) => {
                let timed = TimedOracle::new(r.oracle(), miss_counter(r.oracle()));
                traced_restore(&timed, s, t, failures)
            }
            Engine::Traced(timed) => Restorer::new(timed.inner()).restore(s, t, failures),
        }
    }

    /// The measured oracle.
    pub fn oracle(&self) -> &'a AnyOracle {
        match self {
            Engine::Plain(r) => r.oracle(),
            Engine::Traced(timed) => timed.inner(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::IspStorm | Workload::AsLazy => storm::run(cfg),
        Workload::InternetProtocol => protocol::run(cfg),
    }
}

/// Resident tree storage of `oracle`, in MiB.
pub fn resident_mib(oracle: &AnyOracle) -> f64 {
    oracle.resident_bytes() as f64 / f64::from(1u32 << 20)
}

/// The program after its set-up, and what the repeated set-ups measured.
pub struct SetUp<T> {
    /// The store of the last set-up.
    pub oracle: AnyOracle,
    /// The workload's own state from the last set-up.
    pub extra: T,
    /// Duration of every set-up.
    pub times: Vec<Duration>,
    /// Trees provisioned over all set-ups.
    pub provisioned: u64,
    /// Time spent provisioning them (the dense build; `prefetch`).
    pub provision_busy: Duration,
    /// Batched-CSR work of the last set-up's provisioning (none for the
    /// lazy store, whose trees come from the legacy Dijkstra).
    pub csr: CsrWork,
}

/// The sources of `visit_order` that one residency budget of `oracle`
/// holds, in order: a bounded store keeps whole shards (sharded) or
/// single trees (lazy), so sources are taken until one more unit would
/// exceed the budget.
pub fn budget_sources(oracle: &AnyOracle, visit_order: &[NodeId]) -> Vec<NodeId> {
    let Some(budget) = oracle.max_resident_trees() else {
        return Vec::new();
    };
    let unit = match oracle {
        AnyOracle::Sharded(o) => o.shard_size(),
        _ => 1,
    };
    let mut units: Vec<usize> = Vec::new();
    let mut sources = Vec::new();
    for &s in visit_order {
        let key = s.index() / unit;
        if !units.contains(&key) {
            if (units.len() + 1) * unit > budget {
                break;
            }
            units.push(key);
        }
        if !sources.contains(&s) {
            sources.push(s);
        }
    }
    sources
}

/// Sets the program up `repeats` times and keeps the last one: the store
/// by the production selection ([`AnyOracle::for_graph_threads`]), then
/// its provisioning — every tree for the dense store, one budget of the
/// sources the workload visits first (`visit_order`) via `prefetch` for
/// a bounded one — then `extra`, the workload's own set-up. Each set-up
/// is torn down, untimed, before the next starts.
pub fn set_up<T>(
    graph: &Graph,
    model: CostModel,
    threads: usize,
    visit_order: &[NodeId],
    repeats: usize,
    extra: impl Fn(&AnyOracle) -> T,
) -> SetUp<T> {
    let mut times = Vec::with_capacity(repeats);
    let mut provisioned = 0u64;
    let mut provision_busy = Duration::ZERO;
    let mut last: Option<(AnyOracle, T, CsrWork)> = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let graph = graph.clone();
        let pops = report::heap_pops();
        let started = Instant::now();
        let oracle = AnyOracle::for_graph_threads(graph, model, threads);
        let built = started.elapsed();
        let sources = budget_sources(&oracle, visit_order);
        let prefetched = oracle.prefetch(&sources);
        let filled = started.elapsed();
        let state = extra(&oracle);
        times.push(started.elapsed());
        let (trees, busy) = match &oracle {
            AnyOracle::Dense(_) => (oracle.graph().node_count(), built),
            _ => (prefetched, filled - built),
        };
        provisioned += trees as u64;
        provision_busy += busy;
        let csr = match &oracle {
            AnyOracle::Lazy(_) => CsrWork::default(),
            AnyOracle::Dense(_) | AnyOracle::Sharded(_) => CsrWork {
                calls: 1,
                busy_ns: busy.as_nanos() as u64,
                sources_built: trees as u64,
                heap_pops: report::heap_pops() - pops,
            },
        };
        last = Some((oracle, state, csr));
    }
    let (oracle, extra, csr) = last.expect("invariant: at least one set-up ran");
    SetUp {
        oracle,
        extra,
        times,
        provisioned,
        provision_busy,
        csr,
    }
}
