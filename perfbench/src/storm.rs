//! The storm workloads, `isp_storm` and `as_lazy`.
//!
//! Set-up samples flows and generates a failure storm over the links
//! those flows use. The timed loop takes the storm's windows in turn; for
//! every flow whose base path crosses a failed link it restores the
//! route and, with MPLS, rewrites the source's FEC entry
//! (`apply_source_restoration`) and forwards one probe packet. Rewrites
//! are reverted to the base LSP when the window changes, so a probe never
//! rides a stale stack over a link that has gone down since.
//!
//! Inputs (flows, their base paths, the storm, the disrupted set of each
//! window) are computed on the batched CSR kernel directly, never through
//! the measured store, so every run starts that store in the same state.

use crate::check::{self, Checks, Digest, Sampled};
use crate::report::{self, CsrWork, EndToEnd, EventWork, LayerInputs, MplsWork, StoreCounts};
use crate::stats::Samples;
use crate::timed::Trace;
use crate::{set_up, Engine, Outcome, RunConfig, Scale, SetUp, Workload, NETWORK_SEED};
use rbpc_core::{ProvisionedDomain, RestoreError};
use rbpc_eval::{sample_pairs, AnyOracle};
use rbpc_graph::{
    splitmix64, CostModel, CsrGraph, DijkstraScratch, EdgeId, FailureSet, Graph, Metric, NodeId,
};
use rbpc_mpls::LspId;
use rbpc_obs::Registry;
use rbpc_sim::{storm_schedule, StormParams};
use rbpc_topo::{as_graph_like, ba_graph_clustered, isp_topology, IspParams, INTERNET_TRIAD_PCT};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Salts separating the seed's uses.
const FLOW_SALT: u64 = 0xF10A_5EED;
const STORM_SALT: u64 = 0x5707_3EED;

/// Shape of one storm workload.
#[derive(Debug, Clone, Copy)]
pub struct StormSpec {
    /// Flows sampled.
    pub flows: usize,
    /// Storm windows generated (the loop cycles if it runs out).
    pub windows: usize,
    /// Leading windows whose plans make up the digest.
    pub digest_windows: usize,
    /// Drive the MPLS domain.
    pub mpls: bool,
    /// About one restore in this many joins the checked sample.
    pub check_stride: u64,
    /// Fresh programs per run, each set up and then driven for an equal
    /// share of the measured time.
    pub segments: usize,
}

/// The workload's network, metric and shape at `scale`. The networks are
/// `standard_suite` cases 0 (weighted ISP) and 3 (AS map), generated
/// directly so the 40 377-node map is not built alongside.
pub fn network(workload: Workload, scale: Scale) -> (Graph, Metric, StormSpec) {
    match (workload, scale) {
        (Workload::IspStorm, _) => (
            isp_topology(IspParams::default(), NETWORK_SEED).graph,
            Metric::Weighted,
            StormSpec {
                flows: if scale == Scale::Full { 2000 } else { 200 },
                windows: 20_000,
                digest_windows: if scale == Scale::Full { 200 } else { 4 },
                mpls: true,
                check_stride: 2048,
                segments: 30,
            },
        ),
        (_, Scale::Full) => (
            as_graph_like(NETWORK_SEED),
            Metric::Unweighted,
            StormSpec {
                flows: 400,
                windows: 20_000,
                digest_windows: 40,
                mpls: false,
                check_stride: 64,
                segments: 10,
            },
        ),
        (_, Scale::Tiny) => (
            ba_graph_clustered(1_000, 2_081, INTERNET_TRIAD_PCT, NETWORK_SEED),
            Metric::Unweighted,
            StormSpec {
                flows: 160,
                windows: 1_000,
                digest_windows: 4,
                mpls: false,
                check_stride: 16,
                segments: 2,
            },
        ),
    }
}

/// The generated inputs of a storm run.
#[derive(Debug)]
pub struct StormInput {
    /// Sampled flows.
    pub flows: Vec<(NodeId, NodeId)>,
    /// One failure set per window.
    pub windows: Vec<FailureSet>,
    /// Per window, the flows whose base path crosses a failed link.
    pub disrupted: Vec<Vec<u32>>,
}

impl StormInput {
    /// Samples flows, finds their base paths on the CSR kernel, and builds
    /// a storm over the links they use.
    pub fn generate(graph: &Graph, model: &CostModel, spec: &StormSpec, seed: u64) -> Self {
        let flows = sample_pairs(graph, spec.flows, splitmix64(seed ^ FLOW_SALT));
        let csr = CsrGraph::new(graph, model);
        let mut scratch = DijkstraScratch::new(graph.node_count());
        let mut by_source: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, &(s, _)) in flows.iter().enumerate() {
            by_source.entry(s).or_default().push(i);
        }
        let mut edge_flows: Vec<Vec<u32>> = vec![Vec::new(); graph.edge_count()];
        for (&s, idxs) in &by_source {
            let tree = csr.full_tree(s, &mut scratch);
            for &i in idxs {
                let path = tree
                    .path_to(flows[i].1)
                    .expect("invariant: sampled pairs are connected");
                for e in path.edges() {
                    edge_flows[e.index()].push(i as u32);
                }
            }
        }
        let pool: Vec<EdgeId> = (0..graph.edge_count())
            .filter(|&e| !edge_flows[e].is_empty())
            .map(EdgeId::new)
            .collect();
        let params = StormParams {
            seed: splitmix64(seed ^ STORM_SALT),
            ..StormParams::default()
        };
        let windows = storm_schedule(&pool, spec.windows as u64, &params);
        let disrupted = windows
            .iter()
            .map(|w| {
                let mut hit: Vec<u32> = w
                    .failed_edges()
                    .flat_map(|e| edge_flows[e.index()].iter().copied())
                    .collect();
                hit.sort_unstable();
                hit.dedup();
                hit
            })
            .collect();
        StormInput {
            flows,
            windows,
            disrupted,
        }
    }
}

/// Provisions every flow's base LSP and default FEC entry in a fresh
/// MPLS domain over `oracle`'s graph.
fn provision_domain(
    oracle: &AnyOracle,
    flows: &[(NodeId, NodeId)],
) -> (ProvisionedDomain, Vec<LspId>) {
    let mut domain = ProvisionedDomain::new(oracle);
    let lsps = flows
        .iter()
        .map(|&(s, t)| {
            domain
                .provision_pair(oracle, s, t)
                .expect("invariant: base paths of a fresh domain establish")
                .expect("invariant: sampled pairs are connected")
        })
        .collect();
    (domain, lsps)
}

/// What a run's segments add up to.
#[derive(Default)]
struct Totals {
    setups: Vec<Duration>,
    provisioned: u64,
    provision_busy: Duration,
    csr: CsrWork,
    latency: Samples,
    mpls: MplsWork,
    digest: Digest,
    events: EventWork,
    store: StoreCounts,
    trace: Trace,
    recovered: u64,
    restores: u64,
    windows: usize,
    sampled: usize,
    elapsed: Duration,
    dense: bool,
    resident_mib: f64,
}

/// Runs a storm workload.
///
/// A run is `spec.segments` fresh programs in a row. Each is set up
/// (timed, for `setup_s`) and then driven for its share of the measured
/// time, so the set-up samples spread over the whole run while only one
/// program is resident at a time. The storm's windows continue from one
/// segment to the next.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (graph, metric, spec) = network(cfg.workload, cfg.scale);
    let model = CostModel::new(metric, NETWORK_SEED);
    let input = StormInput::generate(&graph, &model, &spec, cfg.seed);
    let visit: Vec<NodeId> = input.flows.iter().map(|&(s, _)| s).collect();
    let mut out = Outcome::default();
    let mut totals = Totals::default();
    let segments = spec.segments.max(1) as u32;
    for seg in 0..segments {
        let program = set_up(&graph, model, cfg.threads, &visit, 1, |oracle| {
            spec.mpls.then(|| provision_domain(oracle, &input.flows))
        });
        let measure = cfg.measure * (seg + 1) / segments - cfg.measure * seg / segments;
        drive(
            cfg,
            &spec,
            &input,
            program,
            measure,
            &mut totals,
            &mut out.checks,
        );
    }

    let line = check::check_digest(
        &mut out.checks,
        cfg.workload,
        cfg.seed,
        cfg.scale == Scale::Full,
        &totals.digest,
        totals.windows >= spec.digest_windows,
    );
    out.notes.push(line);
    out.notes.push(format!(
        "{} windows in {segments} segments, {} flows, {} restores, {} checked after the run",
        totals.windows,
        input.flows.len(),
        totals.restores,
        totals.sampled,
    ));
    if out.checks.attempted == 0 {
        out.checks
            .fail(|| "no disrupted route was attempted".to_string());
    }
    if cfg.trace {
        let inputs = LayerInputs {
            dense: totals.dense,
            resident_mib: totals.resident_mib,
            trace: totals.trace,
            store: totals.store,
            csr: totals.csr,
            mpls: totals.mpls,
            events: totals.events,
            attempted: out.checks.attempted,
            recovered: totals.recovered,
            unrestorable: out.checks.unrestorable,
            elapsed: totals.elapsed,
        };
        report::layer_metrics(inputs, &mut out);
    } else {
        let end_to_end = EndToEnd {
            setups: totals.setups,
            restore: totals.latency,
            recovered: totals.recovered,
            elapsed: totals.elapsed,
            provision_sources_per_s: totals.provisioned as f64
                / totals.provision_busy.as_secs_f64(),
        };
        report::end_to_end(end_to_end, &mut out);
    }
    out
}

/// Drives one segment: the storm loop for `measure` on a freshly set-up
/// program, then the after-the-run checks of its sampled restores.
fn drive(
    cfg: &RunConfig,
    spec: &StormSpec,
    input: &StormInput,
    program: SetUp<Option<(ProvisionedDomain, Vec<LspId>)>>,
    measure: Duration,
    totals: &mut Totals,
    checks: &mut Checks,
) {
    let SetUp {
        oracle,
        extra: mut domain,
        times,
        provisioned,
        provision_busy,
        csr,
    } = program;
    totals.setups.extend(times);
    totals.provisioned += provisioned;
    totals.provision_busy += provision_busy;
    totals.csr.add(&csr);
    totals.dense = matches!(oracle, AnyOracle::Dense(_));

    let engine = Engine::new(&oracle, cfg.trace);
    let on_demand = Registry::global().counter("core.provision.on_demand_lsps");
    let on_demand_before = on_demand.get();
    let store_before = StoreCounts::of(&oracle);
    let mut sampled: Vec<Sampled> = Vec::new();
    let mut rewritten: Vec<u32> = Vec::new();
    let started = Instant::now();
    while started.elapsed() < measure {
        let w = totals.windows;
        let wi = w % input.windows.len();
        let failures = &input.windows[wi];
        if let Some((dom, lsps)) = domain.as_mut() {
            for fi in rewritten.drain(..) {
                let (s, t) = input.flows[fi as usize];
                if let Err(e) = dom.net_mut().set_fec_via_lsps(s, t, &[lsps[fi as usize]]) {
                    checks.fail(|| format!("{s} -> {t}: revert to the base LSP failed: {e}"));
                }
            }
        }
        totals.events.events += 1;
        totals.events.failed_elements += failures.failed_edge_count() as u64;
        for &fi in &input.disrupted[wi] {
            let (s, t) = input.flows[fi as usize];
            checks.attempted += 1;
            let t0 = Instant::now();
            let result = engine.restore(s, t, failures);
            totals.latency.push(t0.elapsed().as_nanos() as u64);
            if w < spec.digest_windows {
                totals.digest.add(&result);
            }
            if result.is_err() || check::in_sample(cfg.seed, totals.restores, spec.check_stride) {
                sampled.push(Sampled::of(s, t, failures, &result));
            }
            totals.restores += 1;
            let r = match result {
                Ok(r) => r,
                Err(RestoreError::Disconnected { .. }) => continue,
                Err(e) => {
                    checks.fail(|| format!("{s} -> {t}: {e}"));
                    continue;
                }
            };
            check::check_restoration(checks, &r, failures);
            if let Some((dom, _)) = domain.as_mut() {
                let t0 = Instant::now();
                let applied = dom.apply_source_restoration(&r);
                let t1 = Instant::now();
                let forwarded = dom.forward(s, t, failures);
                let t2 = Instant::now();
                if cfg.trace {
                    totals.mpls.apply.push((t1 - t0).as_nanos() as u64);
                    totals.mpls.forward.push((t2 - t1).as_nanos() as u64);
                    totals.mpls.stack_sum += r.concatenation.len() as u64;
                }
                rewritten.push(fi);
                match (applied, forwarded) {
                    (Ok(()), Ok(trace)) if trace.route() == r.backup.nodes() => {}
                    (applied, forwarded) => checks.fail(|| {
                        format!("{s} -> {t}: probe not delivered on the backup: {applied:?} / {forwarded:?}")
                    }),
                }
            }
            totals.recovered += 1;
        }
        totals.windows += 1;
    }
    totals.elapsed += started.elapsed();
    totals
        .store
        .add(&StoreCounts::of(&oracle).since(&store_before));
    totals.mpls.on_demand_lsps += on_demand.get() - on_demand_before;
    totals.resident_mib = crate::resident_mib(&oracle);

    check::check_sampled(checks, &engine, &sampled);
    totals.sampled += sampled.len();
    if let Engine::Traced(timed) = &engine {
        totals.trace.absorb(timed.take_trace());
    }
}
