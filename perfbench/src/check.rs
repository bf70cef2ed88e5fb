//! Output checks. Every failed check counts once against the run.
//!
//! * The plan digest of a fixed prefix of the run must match the pinned
//!   value at [`DEFAULT_SEED`](crate::DEFAULT_SEED).
//! * Every edge-only restore must satisfy `Concatenation::validate_bounds`.
//! * On a seeded sample, checked after the timed phase, the backup cost
//!   must equal a from-scratch shortest path on the failed view, and the
//!   other mode (traced vs untraced) must give the same plan hash.
//! * A pair the reference finds disconnected is `unrestorable`, never a
//!   failure; a restore error on a pair the reference can route is one.

use crate::{Engine, Workload, DEFAULT_SEED};
use rbpc_core::{BasePathOracle, Restoration, RestoreError};
use rbpc_graph::{shortest_path_tree, splitmix64, FailureSet, NodeId, PathCost};

/// Failure notes kept for the report.
const MAX_NOTES: usize = 8;

/// The pinned plan digest of `workload` at full scale and
/// [`DEFAULT_SEED`]: the storms' first windows, the protocol's first
/// pairs (see each workload's `digest_*` setting).
pub fn expected_digest(workload: Workload) -> u64 {
    match workload {
        Workload::IspStorm => 0x2fc8_0a51_7d0c_1387,
        Workload::AsLazy => 0x1849_af74_a988_cadf,
        Workload::InternetProtocol => 0x27de_13e7_6dc4_b894,
    }
}

/// Check tallies of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Recoveries attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Disrupted routes the reference confirms disconnected.
    pub unrestorable: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one failed check.
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note());
        }
    }

    /// Failed checks per attempted recovery.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A running digest over the plan hashes of a fixed prefix of the run.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    value: u64,
    /// Restores folded in.
    pub restores: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            value: 0xcbf2_9ce4_8422_2325,
            restores: 0,
        }
    }
}

impl Digest {
    /// Folds one restore's outcome in.
    pub fn add(&mut self, result: &Result<Restoration, RestoreError>) {
        let h = match result {
            Ok(r) => r.plan_hash(),
            // Errors carry no plan; fold a fixed marker per error kind.
            Err(RestoreError::Disconnected { .. }) => 1,
            Err(_) => 2,
        };
        self.value = splitmix64(self.value ^ h);
        self.restores += 1;
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// Compares a run's digest with the pinned one. Only full-scale runs at
/// the default seed have a pinned value; `complete` says whether the run
/// reached the end of the digested prefix.
pub fn check_digest(
    checks: &mut Checks,
    workload: Workload,
    seed: u64,
    full_scale: bool,
    digest: &Digest,
    complete: bool,
) -> String {
    let line = format!(
        "plan digest {:016x} over {} restores{}",
        digest.value(),
        digest.restores,
        if complete {
            ""
        } else {
            " (prefix not reached)"
        }
    );
    if !full_scale || seed != DEFAULT_SEED {
        return line;
    }
    let want = expected_digest(workload);
    if !complete {
        checks.fail(|| "the run ended before its digested prefix".to_string());
    } else if want != digest.value() {
        checks.fail(|| format!("plan digest {:016x}, want {want:016x}", digest.value()));
    }
    line
}

/// The check every restore gets inline: a disrupted route must come back
/// affected, and edge-only plans must meet the Theorem 2 stack bound.
pub fn check_restoration(checks: &mut Checks, r: &Restoration, failures: &FailureSet) {
    if !r.affected {
        checks.fail(|| {
            format!(
                "{} -> {}: disrupted route restored as unaffected",
                r.source, r.target
            )
        });
    }
    if failures.failed_node_count() == 0 {
        if let Err(e) = r
            .concatenation
            .validate_bounds(failures.failed_edge_count())
        {
            checks.fail(|| format!("{} -> {}: {e}", r.source, r.target));
        }
    }
}

/// One restore kept for the after-the-run checks.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// Route source.
    pub s: NodeId,
    /// Route target.
    pub t: NodeId,
    /// The failures it was restored under.
    pub failures: FailureSet,
    /// Its plan hash and backup cost, or `None` if the restore failed.
    pub outcome: Option<(u64, PathCost)>,
}

impl Sampled {
    /// Records `result` for later checking.
    pub fn of(
        s: NodeId,
        t: NodeId,
        failures: &FailureSet,
        result: &Result<Restoration, RestoreError>,
    ) -> Self {
        Sampled {
            s,
            t,
            failures: failures.clone(),
            outcome: result.as_ref().ok().map(|r| (r.plan_hash(), r.backup_cost)),
        }
    }
}

/// Whether restore number `index` of the run joins the seeded sample
/// (about one in `stride`).
pub fn in_sample(seed: u64, index: u64, stride: u64) -> bool {
    splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).is_multiple_of(stride.max(1))
}

/// The after-the-run checks over the sampled restores and every restore
/// error: reference cost on the failed view, and the other mode's plan.
pub fn check_sampled(checks: &mut Checks, engine: &Engine<'_>, sampled: &[Sampled]) {
    let oracle = engine.oracle();
    let graph = oracle.graph();
    let model = oracle.cost_model();
    for x in sampled {
        let reference = shortest_path_tree(&x.failures.view(graph), model, x.s).cost_to(x.t);
        match (x.outcome, reference) {
            (Some((hash, cost)), Some(want)) => {
                if cost != want {
                    checks.fail(|| {
                        format!(
                            "{} -> {}: backup cost {cost:?}, reference {want:?}",
                            x.s, x.t
                        )
                    });
                }
                match engine.restore_other_mode(x.s, x.t, &x.failures) {
                    Ok(r) if r.plan_hash() == hash => {}
                    other => checks
                        .fail(|| format!("{} -> {}: the other mode planned {other:?}", x.s, x.t)),
                }
            }
            (None, None) => checks.unrestorable += 1,
            (Some(_), None) => checks.fail(|| {
                format!(
                    "{} -> {}: restored a pair the reference finds cut",
                    x.s, x.t
                )
            }),
            (None, Some(_)) => {
                checks.fail(|| format!("{} -> {}: restore failed on a routable pair", x.s, x.t))
            }
        }
    }
}
