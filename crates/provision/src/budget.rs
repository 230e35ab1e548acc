//! Budget-constrained planning — the dual of the paper's problem.
//!
//! The paper minimizes cost subject to a deadline; the cited follow-on
//! work (Oprescu & Kielmann's bag-of-tasks scheduling under budget
//! constraints, ref \[14\]) flips it: minimize the makespan subject to a
//! dollar budget. Under flat-rate pricing both reduce to choosing the
//! fleet size `i`: makespan is `f(V/i)` and cost is
//! `i · ⌈f(V/i)/3600⌉ · r`, so an exhaustive sweep over `i` is exact.

use crate::error::ProvisionError;
use crate::plan::{file_items, Plan};
use crate::pricing::{instance_hours, PricingModel};
use crate::strategy::{make_plan, Strategy};
use corpus::FileSpec;
use perfmodel::Fit;
use serde::{Deserialize, Serialize};

/// The outcome of a budget-constrained search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetPlan {
    /// The chosen plan (uniform bins over the chosen fleet).
    pub plan: Plan,
    /// Predicted makespan, seconds.
    pub predicted_makespan_secs: f64,
    /// Predicted cost, dollars.
    pub predicted_cost: f64,
    /// The budget it was planned under.
    pub budget: f64,
}

/// Find the fleet size minimizing the predicted makespan while keeping the
/// predicted cost within `budget`. Returns `None` when even a single
/// instance exceeds the budget (the cheapest possible fleet).
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
    let mut best: Option<(usize, f64, f64)> = None; // (i, makespan, cost)
    for i in 1..=max_instances {
        let share = (total as f64 / i as f64).ceil();
        let makespan = fit.predict(share);
        if makespan <= 0.0 || !makespan.is_finite() {
            continue;
        }
        let cost = i as f64 * instance_hours(makespan) as f64 * pricing.hourly_rate;
        if cost > budget + 1e-9 {
            continue;
        }
        let better = match best {
            None => true,
            // Prefer lower makespan; tie-break on lower cost.
            Some((_, m, c)) => makespan < m - 1e-9 || (makespan < m + 1e-9 && cost < c),
        };
        if better {
            best = Some((i, makespan, cost));
        }
    }
    let (i, makespan, cost) = best?;
    // Materialize the plan: uniform bins over i instances, with the
    // makespan as the effective deadline.
    let deadline = makespan.max(1e-6);
    let packing = binpack::uniform_k_bins(&file_items(files), i);
    Some(BudgetPlan {
        plan: Plan::from_packing(
            files,
            &packing,
            fit,
            deadline,
            deadline,
            total.div_ceil(i as u64),
        ),
        predicted_makespan_secs: makespan,
        predicted_cost: cost,
        budget,
    })
}

/// The cheapest possible plan regardless of makespan: a single instance
/// packing all hours (valid under any monotone model — the flat rate makes
/// splitting across instances never cheaper for linear models, per §5).
pub fn cheapest_plan(
    files: &[FileSpec],
    fit: &Fit,
    pricing: &PricingModel,
) -> Result<BudgetPlan, ProvisionError> {
    let total: u64 = files.iter().map(|f| f.size).sum();
    let makespan = fit.predict(total as f64);
    let cost = instance_hours(makespan) as f64 * pricing.hourly_rate;
    let plan = make_plan(Strategy::UniformBins, files, fit, makespan.max(1.0))?;
    Ok(BudgetPlan {
        predicted_makespan_secs: makespan,
        predicted_cost: cost,
        budget: cost,
        plan,
    })
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
    fn cheapest_plan_is_single_instance_cost() {
        let m = model();
        let p = PricingModel::default();
        let cheap = cheapest_plan(&files(8), &m, &p).unwrap();
        // ~7.8 work-hours => 8 billed hours.
        assert!(cheap.predicted_cost <= 8.0 * 0.085 + 1e-9);
        // And no budget below it is feasible.
        assert!(plan_within_budget(&files(8), &m, cheap.predicted_cost * 0.9, &p, 64).is_none());
    }
}
