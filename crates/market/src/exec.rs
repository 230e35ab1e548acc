//! Executing a portfolio plan on the simulated cloud, with the spot
//! market's bid crossings scripted as correlated preemption events.
//!
//! The fault plan and the fleet launch order are derived from the same
//! [`PortfolioPlan`], so ordinals line up by construction: lines execute
//! in order (on-demand first), [`FreshFleet`] assigns one instance per
//! share in share order, and every bid crossing of a spot line's price
//! path reclaims that line's whole ordinal range at one simulated
//! instant — the correlated whole-family event. Replacements launched
//! after a crossing take ordinals beyond the planned range, which models
//! re-entering the market once the price falls back under the bid.

use ec2sim::{Cloud, FaultEvent, FaultKind, FaultPlan};
use obs::Obs;
use provision::{
    execute_plan_resilient_sourced, DegradedReport, ExecutionConfig, FreshFleet, RetryPolicy,
};
use serde::Serialize;
use textapps::AppCostModel;

use crate::planner::{MarketConfig, PortfolioPlan, Tier};

/// Build the scripted [`FaultPlan`] a portfolio's spot lines imply: for
/// each spot line, every step where the family's price path crosses above
/// the bid reclaims the line's entire ordinal range at that instant (the
/// cloud keeps each ordinal's earliest death, so later crossings are
/// safe). On-demand lines contribute nothing (their ordinals are never
/// targeted). Pass the result to [`Cloud::with_faults`] before calling
/// [`execute_portfolio`] on the same plan.
pub fn reclaim_fault_plan(pplan: &PortfolioPlan, cfg: &MarketConfig) -> FaultPlan {
    let mut events = Vec::new();
    let mut base = 0u64;
    for line in &pplan.lines {
        let count = line.plan.instance_count() as u64;
        if let Tier::Spot { bid } = line.tier {
            let path = cfg.path_for(&line.family, pplan.deadline_secs);
            for at in path.window(bid, 0.0, path.horizon_secs()).reclaims {
                events.extend((base..base + count).map(|ord| FaultEvent {
                    at,
                    instance: Some(ord),
                    volume: None,
                    kind: FaultKind::SpotPreemption,
                }));
            }
        }
        base += count;
    }
    FaultPlan::scripted(events)
}

/// Fleet-level outcome of a portfolio execution, aggregated across lines.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MarketExecution {
    /// Per-line degraded reports, in plan (launch) order.
    pub reports: Vec<DegradedReport>,
    /// The user deadline every share raced, seconds.
    pub deadline_secs: f64,
    /// Max observed job time across all lines, seconds.
    pub makespan_secs: f64,
    /// Total billed instance-hours across lines.
    pub billed_hours: u64,
    /// Total dollars across lines, each line billed at its tier's rate.
    pub cost: f64,
    /// Shares that exceeded the **user** deadline or were never
    /// completed. (A spot line's internal plan deadline is tighter — the
    /// bid-eligible time — so its per-line miss count is not comparable.)
    pub misses: usize,
    /// Shares in the portfolio.
    pub shares: usize,
    /// Spot preemptions suffered.
    pub preemptions: usize,
    /// Replacement instances launched.
    pub replacements: usize,
}

impl MarketExecution {
    /// True when every share finished within the user deadline.
    pub fn met_deadline(&self) -> bool {
        self.misses == 0
    }

    /// Fraction of shares that missed the user deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.shares == 0 {
            return 0.0;
        }
        self.misses as f64 / self.shares as f64
    }
}

/// Execute every line of a portfolio on `cloud`, in plan order, through
/// the resilient executor. Each line launches through its family (the
/// family transform reshapes sampled instance quality) and is billed at
/// its tier's rate: list price for on-demand, the expected eligible spot
/// price for spot lines. Misses are re-judged against the **user**
/// deadline, since spot plans internally race their shorter bid-eligible
/// window.
pub fn execute_portfolio(
    cloud: &mut Cloud,
    pplan: &PortfolioPlan,
    model: &dyn AppCostModel,
    base_cfg: &ExecutionConfig,
    retry: &RetryPolicy,
    obs: &Obs,
) -> Result<MarketExecution, ec2sim::CloudError> {
    let mut reports = Vec::with_capacity(pplan.lines.len());
    let (mut hours, mut cost) = (0u64, 0.0);
    let (mut misses, mut shares) = (0usize, 0usize);
    let (mut preemptions, mut replacements) = (0usize, 0usize);
    let mut makespan: f64 = 0.0;
    for line in &pplan.lines {
        let cfg = ExecutionConfig {
            itype: line.family.itype,
            family: Some(line.family),
            rate_override: match line.tier {
                Tier::Spot { .. } => Some(line.hourly_rate),
                Tier::OnDemand => None,
            },
            ..*base_cfg
        };
        let report = execute_plan_resilient_sourced(
            cloud,
            &line.plan,
            model,
            &cfg,
            retry,
            &mut FreshFleet,
            obs,
        )?;
        hours += report.execution.instance_hours;
        cost += report.execution.cost;
        shares += report.total_shares();
        misses += report
            .execution
            .runs
            .iter()
            .filter(|r| r.job_secs > pplan.deadline_secs)
            .count()
            + report.failed_shares.len();
        preemptions += report.preemptions;
        replacements += report.replacements;
        makespan = makespan.max(report.execution.makespan_secs);
        obs.market(
            line.family.id.label(),
            if report.preemptions > 0 {
                "reclaim"
            } else {
                "settle"
            },
            line.tier.label(),
            report.finished_at,
            line.plan.instance_count() as u64,
            report.execution.cost,
        );
        reports.push(report);
    }
    Ok(MarketExecution {
        reports,
        deadline_secs: pplan.deadline_secs,
        makespan_secs: makespan,
        billed_hours: hours,
        cost,
        misses,
        shares,
        preemptions,
        replacements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_market, MarketStrategy};
    use corpus::FileSpec;
    use ec2sim::{CloudConfig, InstanceFamily};
    use perfmodel::{fit as fit_model, Fit, ModelKind};
    use textapps::GrepCostModel;

    fn base_fit() -> Fit {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| 1.0 + x / 75.0e6 * (1.0 + 0.01 * if k % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        fit_model(ModelKind::Affine, &xs, &ys)
    }

    fn corpus(n: u64, size: u64) -> Vec<FileSpec> {
        (0..n).map(|i| FileSpec::new(i, size)).collect()
    }

    fn exec_cfg() -> ExecutionConfig {
        ExecutionConfig {
            staging: provision::StagingTier::Local,
            stage_in_secs: 0.0,
            ..ExecutionConfig::default()
        }
    }

    #[test]
    fn fault_plan_targets_only_spot_ordinals() {
        let f = base_fit();
        let files = corpus(400, 1.0e8 as u64);
        let cfg = MarketConfig::default();
        let pplan = plan_market(&files, &f, 30.0, &cfg).unwrap();
        assert_eq!(pplan.lines.len(), 2, "expected a mixed fleet: {pplan:?}");
        let od_count = pplan.lines[0].plan.instance_count() as u64;
        let total = pplan.instance_count() as u64;
        let faults = reclaim_fault_plan(&pplan, &cfg);
        for ev in &faults.events {
            let ord = ev.instance.expect("reclaims target instances");
            assert!(
                (od_count..total).contains(&ord),
                "ordinal {ord} outside spot range {od_count}..{total}"
            );
        }
        // Every crossing reclaims the whole spot range at one instant.
        let spot: Vec<u64> = (od_count..total).collect();
        assert!(!faults.events.is_empty());
        for crossing in faults.events.chunks(spot.len()) {
            let ords: Vec<u64> = crossing.iter().filter_map(|e| e.instance).collect();
            assert_eq!(ords, spot);
            assert!(crossing.iter().all(|e| e.at == crossing[0].at));
        }
    }

    #[test]
    fn on_demand_portfolio_executes_cleanly() {
        let f = base_fit();
        let files = corpus(30, 1.0e8 as u64);
        let cfg = MarketConfig {
            catalog: vec![InstanceFamily::standard()],
            strategy: MarketStrategy::OnDemandOnly,
            ..MarketConfig::default()
        };
        let deadline = 60.0;
        let pplan = plan_market(&files, &f, deadline, &cfg).unwrap();
        let faults = reclaim_fault_plan(&pplan, &cfg);
        assert!(faults.is_empty(), "no spot lines, no reclaims");
        let mut cloud = Cloud::with_faults(CloudConfig::ideal(1), &faults);
        let out = execute_portfolio(
            &mut cloud,
            &pplan,
            &GrepCostModel::default(),
            &exec_cfg(),
            &RetryPolicy::default(),
            &Obs::default(),
        )
        .unwrap();
        assert!(out.met_deadline(), "{out:?}");
        assert!(out.cost > 0.0);
        assert_eq!(out.shares, pplan.instance_count());
    }

    #[test]
    fn same_seed_execution_is_identical() {
        let f = base_fit();
        let files = corpus(120, 1.0e8 as u64);
        let cfg = MarketConfig::default();
        let run = || {
            let pplan = plan_market(&files, &f, 40.0, &cfg).unwrap();
            let faults = reclaim_fault_plan(&pplan, &cfg);
            let mut cloud = Cloud::with_faults(CloudConfig::ideal(7), &faults);
            execute_portfolio(
                &mut cloud,
                &pplan,
                &GrepCostModel::default(),
                &exec_cfg(),
                &RetryPolicy::default(),
                &Obs::default(),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
