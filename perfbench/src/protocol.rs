//! The `internet_protocol` workload: the paper's Table 2 protocol on the
//! 40 377-node Internet map, through the sharded store.
//!
//! The input is fixed like the map: the paper's 40 sampled pairs, drawn
//! once from the network seed. `--seed` sets the order in which the one
//! client visits them, and with it the store's residency history — which
//! shards phase 1 provisions, which later pairs hit and which miss. The
//! pair sample itself does not vary: per-pair restore cost spans two
//! orders of magnitude (a pair whose segment heads all miss the store
//! costs ~100× one that hits), so with a fresh 40-pair sample per seed
//! the run's median restore time ranged from 4.6 to 10.7 ms over ten
//! trial seeds, hiding any change smaller than that.
//!
//! Phase 1 (write) prefetches one budget of sources — those of the first
//! pairs in visit order. Phase 2 (read) replays Table 2: for each pair,
//! every event on its base path (each link, each link pair, each interior
//! router, each router pair), until all pairs are done or the measured
//! time is up.
//!
//! Pairs and events come from base paths computed on the batched CSR
//! kernel directly, never through the measured store, so every run
//! starts that store in the same state.

use crate::check::{self, Digest, Sampled};
use crate::report::{self, EndToEnd, EventWork, LayerInputs, MplsWork, StoreCounts};
use crate::stats::Samples;
use crate::{set_up, Engine, Outcome, RunConfig, Scale, SetUp, NETWORK_SEED};
use rbpc_core::RestoreError;
use rbpc_eval::{sample_pairs, AnyOracle};
use rbpc_graph::{
    splitmix64, CostModel, CsrGraph, DetRng, DijkstraScratch, FailureSet, Graph, Metric, NodeId,
    Path,
};
use rbpc_topo::{internet_like, internet_like_scaled};
use std::time::Instant;

/// Salts separating the seeds' uses.
const PAIR_SALT: u64 = 0x7AB1_E2ED;
const ORDER_SALT: u64 = 0x0ADE_12ED;

/// Shape of the protocol workload.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolSpec {
    /// Pairs sampled (the paper's 40 at full scale).
    pub pairs: usize,
    /// Leading pairs whose plans make up the digest.
    pub digest_pairs: usize,
    /// Leading pairs whose sources phase 1 may prefetch (the full run
    /// fills the store's whole budget).
    pub prefetch_pairs: usize,
    /// About one restore in this many joins the checked sample.
    pub check_stride: u64,
    /// Repeated set-ups per run.
    pub setups: usize,
}

/// The Internet map (`standard_suite` case 2) and the workload shape at
/// `scale`. The tiny stand-in keeps 10 000 nodes, the smallest size the
/// production selection puts on the sharded store.
pub fn network(scale: Scale) -> (Graph, ProtocolSpec) {
    match scale {
        Scale::Full => (
            internet_like(NETWORK_SEED),
            ProtocolSpec {
                pairs: 40,
                digest_pairs: 4,
                prefetch_pairs: usize::MAX,
                check_stride: 64,
                setups: 3,
            },
        ),
        Scale::Tiny => (
            internet_like_scaled(rbpc_eval::suite::SHARDED_ORACLE_MIN_NODES, NETWORK_SEED),
            ProtocolSpec {
                pairs: 6,
                digest_pairs: 1,
                prefetch_pairs: 2,
                check_stride: 8,
                setups: 2,
            },
        ),
    }
}

/// The failure events of the four Table 2 classes on `path`, in the
/// paper's class order.
pub fn table2_events(path: &Path) -> Vec<FailureSet> {
    let es = path.edges();
    let nodes = path.nodes();
    let inner: &[NodeId] = if nodes.len() > 2 {
        &nodes[1..nodes.len() - 1]
    } else {
        &[]
    };
    let mut out = Vec::new();
    out.extend(es.iter().map(|&e| FailureSet::of_edge(e)));
    for i in 0..es.len() {
        for j in i + 1..es.len() {
            out.push(FailureSet::of_edges([es[i], es[j]]));
        }
    }
    out.extend(inner.iter().map(|v| FailureSet::of_nodes([v.index()])));
    for i in 0..inner.len() {
        for j in i + 1..inner.len() {
            out.push(FailureSet::of_nodes([inner[i].index(), inner[j].index()]));
        }
    }
    out
}

/// One pair of the protocol with its events.
#[derive(Debug)]
pub struct PairEvents {
    /// Source.
    pub s: NodeId,
    /// Target.
    pub t: NodeId,
    /// The Table 2 events on its base path.
    pub events: Vec<FailureSet>,
}

/// The fixed pair sample in the visit order `seed` sets, with each
/// pair's events, computed on the CSR kernel.
pub fn generate(
    graph: &Graph,
    model: &CostModel,
    spec: &ProtocolSpec,
    seed: u64,
) -> Vec<PairEvents> {
    let mut pairs = sample_pairs(graph, spec.pairs, splitmix64(NETWORK_SEED ^ PAIR_SALT));
    let mut rng = DetRng::seed_from_u64(splitmix64(seed ^ ORDER_SALT));
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    let csr = CsrGraph::new(graph, model);
    let mut scratch = DijkstraScratch::new(graph.node_count());
    pairs
        .into_iter()
        .map(|(s, t)| {
            let path = csr
                .full_tree(s, &mut scratch)
                .path_to(t)
                .expect("invariant: sampled pairs are connected");
            PairEvents {
                s,
                t,
                events: table2_events(&path),
            }
        })
        .collect()
}

/// Runs the protocol workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (graph, spec) = network(cfg.scale);
    let model = CostModel::new(Metric::Unweighted, NETWORK_SEED);
    let pairs = generate(&graph, &model, &spec, cfg.seed);
    let mut out = Outcome::default();

    // Set-up, including phase 1 (write): the store, then one budget of
    // the sources visited first, provisioned by `prefetch`.
    let visit: Vec<NodeId> = pairs.iter().map(|p| p.s).collect();
    let visit = &visit[..visit.len().min(spec.prefetch_pairs)];
    // A second store would double the resident set, so the set-ups run
    // back to back before the timed phase; traced runs need only one.
    let repeats = if cfg.trace { 1 } else { spec.setups };
    let SetUp {
        oracle,
        times: setups,
        provisioned,
        provision_busy,
        mut csr,
        ..
    } = set_up(&graph, model, cfg.threads, visit, repeats, |_| ());
    let shard = match &oracle {
        AnyOracle::Sharded(o) => o.shard_size() as u64,
        _ => 1,
    };
    let pops = report::heap_pops();

    // Phase 2 (read): the Table 2 protocol over the pairs.
    let engine = Engine::new(&oracle, cfg.trace);
    let store_before = StoreCounts::of(&oracle);
    let mut latency = Samples::new();
    let mut digest = Digest::default();
    let mut sampled: Vec<Sampled> = Vec::new();
    let mut events = EventWork::default();
    let (mut recovered, mut index, mut pairs_done) = (0u64, 0u64, 0usize);
    let checks = &mut out.checks;
    let started = Instant::now();
    let deadline = started + cfg.measure;
    'pairs: for (pi, p) in pairs.iter().enumerate() {
        for failures in &p.events {
            if Instant::now() >= deadline {
                break 'pairs;
            }
            events.events += 1;
            events.failed_elements +=
                (failures.failed_edge_count() + failures.failed_node_count()) as u64;
            checks.attempted += 1;
            let t0 = Instant::now();
            let result = engine.restore(p.s, p.t, failures);
            latency.push(t0.elapsed().as_nanos() as u64);
            if pi < spec.digest_pairs {
                digest.add(&result);
            }
            if result.is_err() || check::in_sample(cfg.seed, index, spec.check_stride) {
                sampled.push(Sampled::of(p.s, p.t, failures, &result));
            }
            index += 1;
            match result {
                Ok(r) => {
                    check::check_restoration(checks, &r, failures);
                    recovered += 1;
                }
                Err(RestoreError::Disconnected { .. }) => {}
                Err(e) => checks.fail(|| format!("{} -> {}: {e}", p.s, p.t)),
            }
        }
        pairs_done = pi + 1;
    }
    let elapsed = started.elapsed();
    let store = StoreCounts::of(&oracle).since(&store_before);
    let phase2_pops = report::heap_pops() - pops;

    let line = check::check_digest(
        &mut out.checks,
        cfg.workload,
        cfg.seed,
        cfg.scale == Scale::Full,
        &digest,
        pairs_done >= spec.digest_pairs,
    );
    out.notes.push(line);
    out.notes.push(format!(
        "{pairs_done} pairs of {} completed, {index} restores, {} checked after the run",
        pairs.len(),
        sampled.len(),
    ));
    if let AnyOracle::Sharded(o) = &oracle {
        let s = o.stats();
        out.notes.push(format!(
            "store: {} hits / {} misses in phase 2, {} evicted trees, {} resident",
            store.hits, store.misses, store.evicted, s.resident_trees
        ));
    }
    check::check_sampled(&mut out.checks, &engine, &sampled);
    if out.checks.attempted == 0 {
        out.checks.fail(|| "no event was attempted".to_string());
    }

    match engine {
        Engine::Plain(_) => report::end_to_end(
            EndToEnd {
                setups,
                restore: latency,
                recovered,
                elapsed,
                provision_sources_per_s: provisioned as f64 / provision_busy.as_secs_f64(),
            },
            &mut out,
        ),
        Engine::Traced(timed) => {
            let trace = timed.take_trace();
            // Shard builds on a miss are batched-CSR work too; they sit
            // inside the store-miss time of lookup and decompose.
            csr.calls += store.builds;
            csr.busy_ns += trace.lookup.miss_ns + trace.repair.miss_ns + trace.decompose.miss_ns;
            csr.sources_built += store.builds * shard;
            csr.heap_pops += phase2_pops;
            let inputs = LayerInputs {
                dense: matches!(oracle, AnyOracle::Dense(_)),
                resident_mib: crate::resident_mib(&oracle),
                trace,
                store,
                csr,
                mpls: MplsWork::default(),
                events,
                attempted: out.checks.attempted,
                recovered,
                unrestorable: out.checks.unrestorable,
                elapsed,
            };
            report::layer_metrics(inputs, &mut out);
        }
    }
    out
}
