//! Metric assembly and output.
//!
//! Untraced runs report the end-to-end metrics; traced runs the
//! per-layer split. Either way the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it are a human-readable report (stamp, quantiles with their
//! sample counts, per-layer metrics of layers the workload does not
//! exercise, check notes).

use crate::stats::{median, Samples};
use crate::timed::Trace;
use crate::{Metric, Outcome};
use rbpc_eval::AnyOracle;
use rbpc_obs::Registry;
use std::time::Duration;

/// Store traffic counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounts {
    /// Lookups served from resident trees (0 for the dense store, whose
    /// hits are counted from the traced calls instead).
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Builds (lazy: one tree; sharded: one shard).
    pub builds: u64,
    /// Trees evicted.
    pub evicted: u64,
}

impl StoreCounts {
    /// The counters of `oracle` now.
    pub fn of(oracle: &AnyOracle) -> Self {
        let counter = |name: &str| Registry::global().counter(name).get();
        match oracle {
            AnyOracle::Dense(_) => StoreCounts::default(),
            AnyOracle::Lazy(o) => StoreCounts {
                hits: counter("core.basepaths.cache_hit"),
                misses: counter("core.basepaths.cache_miss"),
                builds: counter("core.basepaths.cache_miss"),
                evicted: o.evictions(),
            },
            AnyOracle::Sharded(o) => {
                let s = o.stats();
                StoreCounts {
                    hits: s.hits,
                    misses: s.misses,
                    builds: s.shard_builds,
                    evicted: s.evicted_trees,
                }
            }
        }
    }

    /// Adds another period's counts.
    pub fn add(&mut self, other: &StoreCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.builds += other.builds;
        self.evicted += other.evicted;
    }

    /// Counts accrued since `before`.
    pub fn since(&self, before: &StoreCounts) -> StoreCounts {
        StoreCounts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            builds: self.builds - before.builds,
            evicted: self.evicted - before.evicted,
        }
    }
}

/// Batched-CSR tree building seen by the run: store builds on the dense
/// store, `prefetch` and shard builds on the sharded one.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsrWork {
    /// Batch calls (builds and prefetches).
    pub calls: u64,
    /// Wall time of those calls.
    pub busy_ns: u64,
    /// Source trees built.
    pub sources_built: u64,
    /// Heap pops of the batched kernel (`core.provision.heap_pops`).
    pub heap_pops: u64,
}

impl CsrWork {
    /// Adds another period's work.
    pub fn add(&mut self, other: &CsrWork) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.sources_built += other.sources_built;
        self.heap_pops += other.heap_pops;
    }
}

/// The batched kernel's cumulative heap pops (an exact obs counter).
pub fn heap_pops() -> u64 {
    Registry::global().counter("core.provision.heap_pops").get()
}

/// MPLS work of the traced run.
#[derive(Debug, Default)]
pub struct MplsWork {
    /// `apply_source_restoration` calls.
    pub apply: Samples,
    /// `forward` calls.
    pub forward: Samples,
    /// Labels pushed over all applies.
    pub stack_sum: u64,
    /// LSPs established on demand during the timed phase.
    pub on_demand_lsps: u64,
}

/// The failure events a run worked through.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventWork {
    /// Failure events (storm windows or Table 2 events).
    pub events: u64,
    /// Failed links (node failures count their router) over all events.
    pub failed_elements: u64,
}

/// Everything the traced metrics are computed from.
pub struct LayerInputs {
    /// The measured store is the dense one.
    pub dense: bool,
    /// Resident tree storage of the measured store at the end, in MiB.
    pub resident_mib: f64,
    /// The wrapper's records.
    pub trace: Trace,
    /// Store traffic during the timed phase.
    pub store: StoreCounts,
    /// Batched tree building.
    pub csr: CsrWork,
    /// MPLS work.
    pub mpls: MplsWork,
    /// Failure events.
    pub events: EventWork,
    /// Recoveries attempted.
    pub attempted: u64,
    /// Recoveries completed.
    pub recovered: u64,
    /// Disrupted routes confirmed unrestorable.
    pub unrestorable: u64,
    /// Wall time of the timed phase.
    pub elapsed: Duration,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pushes `<layer>.calls`, `.busy_ms`, `.p50_us` and `.p99_us`.
fn timing(out: &mut Vec<Metric>, layer: &str, samples: &mut Samples) {
    out.push(Metric::new(
        format!("{layer}.calls"),
        samples.len() as f64,
        "count",
    ));
    out.push(Metric::new(
        format!("{layer}.busy_ms"),
        ms(samples.total_ns()),
        "ms",
    ));
    out.push(Metric::new(
        format!("{layer}.p50_us"),
        samples.quantile(0.5).us(),
        "us",
    ));
    out.push(Metric::new(
        format!("{layer}.p99_us"),
        samples.quantile(0.99).us(),
        "us",
    ));
}

/// The per-layer metrics of a traced run, plus report-only metrics and
/// the quantile notes. Shares are of traced `core.restore` busy time.
pub fn layer_metrics(mut x: LayerInputs, out: &mut Outcome) {
    let t = &mut x.trace;
    let restore_ns = t.restore.busy_ns();
    let share = |ns: u64| ratio(ns as f64, restore_ns as f64);
    let m = &mut out.metrics;
    let e = &mut out.extra;

    for (label, samples) in [
        ("core.restore", &mut t.restore.samples),
        ("core.basepaths.lookup", &mut t.lookup.samples),
        ("graph.dynamic.repair", &mut t.repair.samples),
        ("core.decompose", &mut t.decompose.samples),
        ("core.restore.other", &mut t.other),
    ] {
        out.notes
            .push(format!("{label}: {}", samples.tail().describe()));
    }

    timing(m, "core.restore", &mut t.restore.samples);

    let lookup_ns = t.lookup.busy_ns();
    timing(m, "core.basepaths.lookup", &mut t.lookup.samples);
    m.push(Metric::new(
        "core.basepaths.lookup.self_ms",
        ms(lookup_ns - t.lookup.miss_ns),
        "ms",
    ));
    m.push(Metric::new(
        "core.basepaths.lookup.share",
        share(lookup_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "core.basepaths.lookup.misses",
        t.lookup.misses as f64,
        "count",
    ));

    let repair_ns = t.repair.busy_ns();
    timing(m, "graph.dynamic.repair", &mut t.repair.samples);
    m.push(Metric::new(
        "graph.dynamic.repair.share",
        share(repair_ns),
        "ratio",
    ));

    let decompose_ns = t.decompose.busy_ns();
    let decompose_calls = t.decompose.calls() as f64;
    timing(m, "core.decompose", &mut t.decompose.samples);
    m.push(Metric::new(
        "core.decompose.self_ms",
        ms(decompose_ns.saturating_sub(t.decompose.miss_ns)),
        "ms",
    ));
    m.push(Metric::new(
        "core.decompose.share",
        share(decompose_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "core.decompose.probes",
        t.probes as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.decompose.segments_mean",
        ratio(t.segments as f64, decompose_calls),
        "count",
    ));
    m.push(Metric::new(
        "core.decompose.raw_edges",
        t.raw_edges as f64,
        "count",
    ));

    let other_ns = t.other.total_ns();
    m.push(Metric::new(
        "core.restore.other.busy_ms",
        ms(other_ns),
        "ms",
    ));
    m.push(Metric::new(
        "core.restore.other.p50_us",
        t.other.quantile(0.5).us(),
        "us",
    ));
    m.push(Metric::new(
        "core.restore.other.p99_us",
        t.other.quantile(0.99).us(),
        "us",
    ));
    m.push(Metric::new(
        "core.restore.other.share",
        share(other_ns),
        "ratio",
    ));

    // The dense store never misses; every store access is a hit.
    let mut store = x.store;
    if x.dense {
        store.hits = (t.lookup.calls() + t.repair.calls()) as u64 + t.probes;
    }
    m.push(Metric::new("core.store.hits", store.hits as f64, "count"));
    m.push(Metric::new(
        "core.store.misses",
        store.misses as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.store.hit_ratio",
        ratio(store.hits as f64, (store.hits + store.misses) as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "core.store.builds",
        store.builds as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.store.evicted_trees",
        store.evicted as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.store.resident_mib",
        x.resident_mib,
        "MiB",
    ));
    let miss_ns = t.lookup.miss_ns + t.repair.miss_ns + t.decompose.miss_ns;
    e.push(Metric::new("core.store.miss_busy_ms", ms(miss_ns), "ms"));

    m.push(Metric::new(
        "graph.csr.batch.sources_built",
        x.csr.sources_built as f64,
        "count",
    ));
    m.push(Metric::new(
        "graph.csr.batch.heap_pops_per_source",
        ratio(x.csr.heap_pops as f64, x.csr.sources_built as f64),
        "count",
    ));
    e.push(Metric::new(
        "graph.csr.batch.calls",
        x.csr.calls as f64,
        "count",
    ));
    e.push(Metric::new(
        "graph.csr.batch.busy_ms",
        ms(x.csr.busy_ns),
        "ms",
    ));
    e.push(Metric::new(
        "graph.csr.batch.sources_per_busy_s",
        ratio(x.csr.sources_built as f64, x.csr.busy_ns as f64 / 1e9),
        "1/s",
    ));

    let apply_calls = x.mpls.apply.len() as f64;
    m.push(Metric::new("mpls.apply.calls", apply_calls, "count"));
    m.push(Metric::new(
        "mpls.apply.on_demand_lsps",
        x.mpls.on_demand_lsps as f64,
        "count",
    ));
    m.push(Metric::new(
        "mpls.apply.stack_depth_mean",
        ratio(x.mpls.stack_sum as f64, apply_calls),
        "count",
    ));
    m.push(Metric::new(
        "mpls.forward.calls",
        x.mpls.forward.len() as f64,
        "count",
    ));
    let mpls_ns = x.mpls.apply.total_ns() + x.mpls.forward.total_ns();
    for (layer, samples) in [
        ("mpls.apply", &mut x.mpls.apply),
        ("mpls.forward", &mut x.mpls.forward),
    ] {
        let mut all = Vec::new();
        timing(&mut all, layer, samples);
        e.extend(all.into_iter().filter(|m| !m.name.ends_with(".calls")));
    }
    if mpls_ns > 0 {
        out.notes.push(format!(
            "mpls share of recovery time (restore + apply + forward): {:.3}",
            ratio(mpls_ns as f64, (mpls_ns + restore_ns) as f64)
        ));
    }

    let events = x.events.events as f64;
    m.push(Metric::new("sim.storm.events", events, "count"));
    m.push(Metric::new(
        "sim.storm.failed_links_per_event",
        ratio(x.events.failed_elements as f64, events),
        "count",
    ));
    m.push(Metric::new(
        "sim.storm.disrupted_per_event",
        ratio(x.attempted as f64, events),
        "count",
    ));
    m.push(Metric::new(
        "sim.storm.unrestorable",
        x.unrestorable as f64,
        "count",
    ));
    m.push(Metric::new(
        "trace.recoveries_per_s",
        x.recovered as f64 / x.elapsed.as_secs_f64(),
        "1/s",
    ));
    let parts = lookup_ns + repair_ns + decompose_ns + other_ns;
    out.notes.push(format!(
        "time adds up: lookup {:.3} + repair {:.3} + decompose {:.3} + other {:.3} = {:.3} ms; core.restore.busy_ms {:.3}",
        ms(lookup_ns),
        ms(repair_ns),
        ms(decompose_ns),
        ms(other_ns),
        ms(parts),
        ms(restore_ns)
    ));
    if parts != restore_ns {
        out.checks
            .fail(|| "traced stage times do not add up to core.restore".to_string());
    }
}

/// What the end-to-end metrics are computed from.
pub struct EndToEnd {
    /// Set-up times of the repeated set-ups.
    pub setups: Vec<Duration>,
    /// Restore latencies of the timed phase.
    pub restore: Samples,
    /// Recoveries completed.
    pub recovered: u64,
    /// Wall time of the timed phase.
    pub elapsed: Duration,
    /// Provisioning throughput over all set-ups: trees provisioned per
    /// second spent provisioning.
    pub provision_sources_per_s: f64,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(mut x: EndToEnd, out: &mut Outcome) {
    let setups: Vec<f64> = x.setups.iter().map(Duration::as_secs_f64).collect();
    let p50 = x.restore.quantile(0.5);
    let p99 = x.restore.quantile(0.99);
    out.notes.push(format!("restore {}", p50.describe()));
    out.notes.push(format!("restore {}", p99.describe()));
    out.notes
        .push(format!("restore tail {}", x.restore.tail().describe()));
    out.notes
        .push(format!("setup_s over {} set-ups: {setups:?}", setups.len()));
    let m = &mut out.metrics;
    m.push(Metric::new("setup_s", median(&setups), "s"));
    m.push(Metric::new("restore_p50_us", p50.us(), "us"));
    m.push(Metric::new("restore_p99_us", p99.us(), "us"));
    m.push(Metric::new(
        "recoveries_per_s",
        x.recovered as f64 / x.elapsed.as_secs_f64(),
        "1/s",
    ));
    m.push(Metric::new(
        "provision_sources_per_s",
        x.provision_sources_per_s,
        "1/s",
    ));
    m.push(Metric::new(
        "peak_rss_mib",
        crate::peak_rss_mib().unwrap_or(0.0),
        "MiB",
    ));
}

/// A JSON number: finite values as measured, anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Writes the report lines and, last, the result object.
pub fn print(out: &Outcome, stamp: &str) {
    println!("stamp {stamp}");
    for note in &out.notes {
        println!("{note}");
    }
    for m in out.metrics.iter().chain(&out.extra) {
        println!("metric {} = {} {}", m.name, num(m.value), m.unit);
    }
    let c = &out.checks;
    println!(
        "checks: attempted {}, failed {}, failed_ratio {}, unrestorable {}",
        c.attempted,
        c.failed,
        num(c.failed_ratio()),
        c.unrestorable
    );
    for note in &c.notes {
        println!("check failed: {note}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted.max(1),
        c.failed,
        metrics.join(", ")
    );
}
