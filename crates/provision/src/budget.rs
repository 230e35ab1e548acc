//! Budget-constrained planning — the dual of the paper's problem.
//!
//! The paper minimizes cost subject to a deadline; the cited follow-on
//! work (Oprescu & Kielmann's bag-of-tasks scheduling under budget
//! constraints, ref \[14\]) flips it: minimize the makespan subject to a
//! dollar budget. Under flat-rate pricing both reduce to choosing the
//! fleet size `i`. Each `i` is judged by the plan it would run, whole files
//! packed into `i` uniform bins: its makespan is the slowest share's
//! prediction and its cost bills every share's started hours. The sweep
//! over `i` is exhaustive, but uniform bins are a heuristic packing, so the
//! best fleet found is not guaranteed optimal when files are lumpy.

use crate::plan::Plan;
use crate::pricing::{instance_hours, PricingModel};
use corpus::FileSpec;
use perfmodel::Fit;
use serde::{Deserialize, Serialize};

/// The outcome of a budget-constrained search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetPlan {
    /// The chosen plan (uniform bins over the chosen fleet).
    pub plan: Plan,
    /// Predicted makespan, seconds: the plan's slowest share.
    pub predicted_makespan_secs: f64,
    /// Predicted cost, dollars: every share's billed hours.
    pub predicted_cost: f64,
    /// The budget it was planned under.
    pub budget: f64,
}

/// Find the fleet size minimizing the predicted makespan while keeping the
/// predicted cost within `budget`. Returns `None` when no fleet size fits
/// the budget.
///
/// `max_instances` bounds the sweep (EC2 account caps; the paper notes
/// "limitations on the number of instances that can be requested").
pub fn plan_within_budget(
    files: &[FileSpec],
    fit: &Fit,
    budget: f64,
    pricing: &PricingModel,
    max_instances: usize,
) -> Option<BudgetPlan> {
    assert!(budget >= 0.0, "budget must be non-negative");
    assert!(max_instances >= 1, "need at least one instance allowed");
    let total: u64 = files.iter().map(|f| f.size).sum();
    let mut best: Option<BudgetPlan> = None;
    for i in 1..=max_instances {
        let packing = binpack::uniform_k_bins(files, i);
        let mut plan = Plan::from_packing(files, &packing, fit, 0.0, 0.0, total.div_ceil(i as u64));
        let makespan = plan.predicted_makespan();
        if makespan <= 0.0 || !makespan.is_finite() {
            continue;
        }
        let hours: u64 = plan
            .instances
            .iter()
            .map(|share| instance_hours(share.predicted_secs))
            .sum();
        let cost = hours as f64 * pricing.hourly_rate;
        if cost > budget + 1e-9 {
            continue;
        }
        let better = match &best {
            None => true,
            // Prefer lower makespan; tie-break on lower cost.
            Some(b) => {
                let m = b.predicted_makespan_secs;
                makespan < m - 1e-9 || (makespan < m + 1e-9 && cost < b.predicted_cost)
            }
        };
        if better {
            // The makespan is the effective deadline.
            plan.deadline_secs = makespan.max(1e-6);
            plan.planning_deadline_secs = plan.deadline_secs;
            best = Some(BudgetPlan {
                plan,
                predicted_makespan_secs: makespan,
                predicted_cost: cost,
                budget,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::{fit as fit_model, ModelKind};

    /// Just under 1 hour of work per GB (so a 1 GB share plus the
    /// intercept still fits one billed hour).
    fn model() -> Fit {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 1.0e9).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3500.0 * x / 1.0e9 + 1.0).collect();
        fit_model(ModelKind::Affine, &xs, &ys)
    }

    fn files(gb: u64) -> Vec<FileSpec> {
        (0..gb * 10)
            .map(|i| FileSpec::new(i, 100_000_000))
            .collect()
    }

    #[test]
    fn exact_budget_buys_exact_fleet() {
        let m = model();
        let p = PricingModel::default();
        // 8 GB = 8 work-hours. Budget for 8 instance-hours -> 8 instances
        // of 1 h each is optimal (makespan ~1 h).
        let plan = plan_within_budget(&files(8), &m, 8.0 * 0.085, &p, 64).unwrap();
        assert_eq!(plan.plan.instance_count(), 8);
        assert!(plan.predicted_makespan_secs <= 3700.0);
        assert!(plan.predicted_cost <= 8.0 * 0.085 + 1e-9);
    }

    #[test]
    fn bigger_budget_never_slower() {
        let m = model();
        let p = PricingModel::default();
        let mut last = f64::INFINITY;
        for budget_hours in [1.0, 2.0, 4.0, 8.0, 16.0] {
            if let Some(plan) = plan_within_budget(&files(8), &m, budget_hours * 0.085, &p, 64) {
                assert!(
                    plan.predicted_makespan_secs <= last + 1e-6,
                    "budget {budget_hours}h made things slower"
                );
                last = plan.predicted_makespan_secs;
            }
        }
        assert!(last < 3700.0);
    }

    #[test]
    fn impossible_budget_returns_none() {
        let m = model();
        let p = PricingModel::default();
        // ~8 work-hours on one instance costs 8 billed hours; half that
        // budget cannot buy any fleet.
        assert!(plan_within_budget(&files(8), &m, 3.0 * 0.085, &p, 64).is_none());
    }

    #[test]
    fn over_generous_budget_caps_at_max_instances() {
        let m = model();
        let p = PricingModel::default();
        let plan = plan_within_budget(&files(8), &m, 1_000.0, &p, 16).unwrap();
        assert!(plan.plan.instance_count() <= 16);
    }

    #[test]
    fn lumpy_files_report_the_returned_fleet() {
        // Three 1 GB files on at most two instances pack as 2 GB + 1 GB,
        // whose shares predict 7,001 s and 3,501 s: 3 billed hours.
        let gb: Vec<FileSpec> = (0..3).map(|i| FileSpec::new(i, 1_000_000_000)).collect();
        let p = PricingModel::default();
        let bp = plan_within_budget(&gb, &model(), 4.0 * 0.085, &p, 2).unwrap();
        let shares: Vec<f64> = bp.plan.instances.iter().map(|s| s.predicted_secs).collect();
        assert_eq!(shares.len(), 2);
        assert!((bp.predicted_makespan_secs - 7001.0).abs() < 1e-6, "{bp:?}");
        assert_eq!(bp.predicted_makespan_secs, bp.plan.predicted_makespan());
        assert!((bp.predicted_cost - 3.0 * 0.085).abs() < 1e-9, "{bp:?}");
    }
}
