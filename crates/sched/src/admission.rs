//! Admission control: size the job's fleet from its volume and the
//! fitted model, and check it against the pool's capacity.
//!
//! Sizing happens once, at admission, against the job's *relative*
//! deadline `D` tightened to `D′ = D/(1+a)` (paper §5.2, `a = z_p·σ + μ`
//! over the fit's relative residuals). It inverts the fit and packs no
//! file. The dispatcher builds the plan later from the same inputs, so
//! the plan a job runs is still the plan admission priced: queueing delay
//! shows up as deadline misses, not as ever-growing fleets.

use crate::job::Job;
use perfmodel::Fit;
use provision::{ProvisionError, Sizing};
use serde::{Deserialize, Serialize};

/// Why a job can never run and was turned away at arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The job carries no files.
    EmptyJob,
    /// The fitted model has no positive-volume inverse at the adjusted
    /// deadline (e.g. a degenerate or non-increasing fit).
    ModelNotInvertible {
        /// The adjusted deadline that failed to invert, seconds.
        adjusted_deadline_secs: f64,
    },
    /// The adjusted deadline sits below the model's fixed costs — no
    /// fleet size can meet it.
    DeadlineBelowFixedCosts {
        /// The adjusted deadline, seconds.
        adjusted_deadline_secs: f64,
    },
    /// The required fleet exceeds the whole pool, even when empty.
    FleetTooLarge {
        /// Instances the plan needs.
        needed: usize,
        /// The pool's total capacity.
        capacity: usize,
    },
}

/// Why an admitted job is waiting rather than running (recoverable —
/// re-evaluated at every arrival/completion event).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeferReason {
    /// Not enough free pool slots for the job's fleet right now.
    PoolSaturated {
        /// Instances the plan needs.
        needed: usize,
        /// Slots free at the decision instant.
        free: usize,
    },
    /// The tenant is at its in-flight job quota.
    TenantBusy {
        /// The tenant's running jobs.
        inflight: usize,
        /// The quota.
        cap: usize,
    },
}

/// The admission verdict for one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Admission {
    /// Feasible: admitted with its sized fleet.
    Accepted {
        /// Instances the admitted plan uses.
        instances: usize,
        /// The adjusted deadline the fleet was sized against, seconds
        /// (relative to dispatch).
        adjusted_deadline_secs: f64,
    },
    /// Turned away with a permanent reason.
    Rejected(RejectReason),
}

/// Decide whether `job` can ever be served: size its fleet by inverting
/// `fit` at the adjusted deadline and check it against the pool's total
/// capacity.
pub fn admit(job: &Job, fit: &Fit, p_miss: f64, capacity: usize) -> Admission {
    admit_sized(job, fit, p_miss, capacity).0
}

/// [`admit`], plus the sizing an accepted job's plan is built from.
pub(crate) fn admit_sized(
    job: &Job,
    fit: &Fit,
    p_miss: f64,
    capacity: usize,
) -> (Admission, Option<Sizing>) {
    if job.files.is_empty() {
        return (Admission::Rejected(RejectReason::EmptyJob), None);
    }
    let d_adj = fit.adjusted_deadline(job.deadline_secs, p_miss);
    let sizing = match Sizing::adjusted(job.volume(), fit, job.deadline_secs, p_miss) {
        Ok(sizing) => sizing,
        Err(ProvisionError::NotInvertible { .. }) => {
            return (
                Admission::Rejected(RejectReason::ModelNotInvertible {
                    adjusted_deadline_secs: d_adj,
                }),
                None,
            );
        }
        Err(ProvisionError::DeadlineBelowFixedCosts { .. }) => {
            return (
                Admission::Rejected(RejectReason::DeadlineBelowFixedCosts {
                    adjusted_deadline_secs: d_adj,
                }),
                None,
            );
        }
    };
    let needed = sizing.instances(&job.files);
    if needed > capacity {
        return (
            Admission::Rejected(RejectReason::FleetTooLarge { needed, capacity }),
            None,
        );
    }
    (
        Admission::Accepted {
            instances: needed,
            adjusted_deadline_secs: d_adj,
        },
        Some(sizing),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{reference_fit, TenantId};
    use corpus::FileSpec;
    use provision::{make_plan, Strategy};
    use textapps::AppKind;

    fn job(files: Vec<FileSpec>, deadline: f64, app: AppKind) -> Job {
        Job {
            id: 0,
            tenant: TenantId(0),
            app,
            files,
            arrival_secs: 0.0,
            deadline_secs: deadline,
            priority: 0,
        }
    }

    #[test]
    fn empty_job_is_rejected() {
        let fit = reference_fit(AppKind::Grep);
        let verdict = admit(&job(vec![], 3_600.0, AppKind::Grep), &fit, 0.05, 64);
        assert_eq!(verdict, Admission::Rejected(RejectReason::EmptyJob));
    }

    #[test]
    fn feasible_grep_job_is_accepted_with_plan() {
        let fit = reference_fit(AppKind::Grep);
        let files: Vec<FileSpec> = (0..100).map(|i| FileSpec::new(i, 1_000_000)).collect();
        let verdict = admit(&job(files.clone(), 3_600.0, AppKind::Grep), &fit, 0.05, 64);
        let plan = make_plan(
            Strategy::AdjustedDeadline { p_miss: 0.05 },
            &files,
            &fit,
            3_600.0,
        )
        .ok();
        match verdict {
            Admission::Accepted {
                instances,
                adjusted_deadline_secs,
            } => {
                assert!(instances >= 1);
                assert!(adjusted_deadline_secs < 3_600.0, "D' must tighten D");
                assert_eq!(plan.map(|p| p.instance_count()), Some(instances));
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
    }

    #[test]
    fn impossible_deadline_is_rejected_below_fixed_costs() {
        let fit = reference_fit(AppKind::PosTag);
        let files: Vec<FileSpec> = (0..10).map(|i| FileSpec::new(i, 1_000_000)).collect();
        // Deadline far below the model's intercept.
        let verdict = admit(&job(files, 1e-6, AppKind::PosTag), &fit, 0.05, 64);
        assert!(
            matches!(
                verdict,
                Admission::Rejected(RejectReason::DeadlineBelowFixedCosts { .. })
                    | Admission::Rejected(RejectReason::ModelNotInvertible { .. })
            ),
            "got {verdict:?}"
        );
    }

    #[test]
    fn oversized_fleet_is_rejected_with_counts() {
        let fit = reference_fit(AppKind::PosTag);
        // 2 GB of POS against a tight deadline wants a large fleet.
        let files: Vec<FileSpec> = (0..2_000).map(|i| FileSpec::new(i, 1_000_000)).collect();
        let verdict = admit(&job(files, 1_800.0, AppKind::PosTag), &fit, 0.05, 4);
        match verdict {
            Admission::Rejected(RejectReason::FleetTooLarge { needed, capacity }) => {
                assert!(needed > capacity);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected FleetTooLarge, got {other:?}"),
        }
    }
}
