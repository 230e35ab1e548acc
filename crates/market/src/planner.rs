//! The portfolio planner: invert each family's performance model under
//! the residual-adjusted deadline and pick the cheapest feasible fleet.
//!
//! Per family the planner evaluates two purchase tiers:
//!
//! * **on-demand** — the family's list price, always available;
//! * **spot** — the family's seeded price path, bid at a configured
//!   multiple of the long-run mean. The usable deadline shrinks to the
//!   seconds the path stays at or below the bid (minus a resume penalty
//!   per bid crossing), and concurrent spot instances are capped per
//!   family — the capacity pressure that makes *mixed* fleets win.
//!
//! Every tier quote reuses the §5.2 machinery verbatim: the family's fit
//! is the base fit scaled by its perf multiplier (relative residuals are
//! scale-invariant, so the adjustment factor is shared), and the quote
//! plan is `provision::make_plan(Strategy::AdjustedDeadline, …)` on that
//! scaled fit. With the standard family (multiplier exactly 1.0) the
//! scaled fit is a clone, so an `OnDemandOnly` portfolio over a
//! single-family catalog reproduces the classic planner bit-for-bit —
//! the differential test in `tests/market.rs`.
//!
//! Infeasibility is typed, mirroring `sched`'s reject vocabulary
//! (`ModelNotInvertible`, `DeadlineBelowFixedCosts`, capacity).

use corpus::FileSpec;
use ec2sim::{FamilyId, InstanceFamily};
use obs::Obs;
use perfmodel::{Fit, ModelKind};
use provision::{instance_hours, make_plan, Plan, ProvisionError, Sizing, Strategy};
use serde::Serialize;
use std::borrow::Cow;

use crate::spot::{SpotPath, SPOT_STEP_SECS};

/// Which tiers the planner may buy from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MarketStrategy {
    /// Classic fleets: on-demand only, cheapest feasible family.
    OnDemandOnly,
    /// Spot only: cheapest feasible family within its spot capacity.
    SpotOnly,
    /// Anything goes: pure quotes plus mixed spot+on-demand fleets. The
    /// candidate set is a superset of both pure strategies, so the
    /// portfolio always costs no more than either.
    Portfolio,
}

impl MarketStrategy {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            MarketStrategy::OnDemandOnly => "on_demand_only",
            MarketStrategy::SpotOnly => "spot_only",
            MarketStrategy::Portfolio => "portfolio",
        }
    }
}

/// A purchase tier on one family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Tier {
    /// List price, always available.
    OnDemand,
    /// Spot at the given bid, dollars per hour.
    Spot {
        /// The bid level.
        bid: f64,
    },
}

impl Tier {
    /// Stable label, part of the NDJSON log schema.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::OnDemand => "on_demand",
            Tier::Spot { .. } => "spot",
        }
    }
}

/// Why a quote (or the whole request) is infeasible. Mirrors
/// `sched::RejectReason` so schedulers can surface market rejects through
/// the same vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum MarketReject {
    /// No files to process.
    EmptyJob,
    /// No families to quote.
    EmptyCatalog,
    /// The family's scaled model has no inverse at the (tier-effective)
    /// deadline.
    ModelNotInvertible {
        /// Family whose model failed to invert.
        family: FamilyId,
        /// The deadline that could not be inverted, seconds.
        deadline_secs: f64,
    },
    /// The tier-effective deadline sits below the family's fixed costs.
    DeadlineBelowFixedCosts {
        /// Family quoted.
        family: FamilyId,
        /// The offending effective deadline, seconds.
        deadline_secs: f64,
        /// Per-instance volume the inverse prescribed (< 1 byte).
        inverse_bytes: f64,
    },
    /// A pure-spot fleet needs more concurrent spot instances than the
    /// family's market will fill.
    SpotCapacityExhausted {
        /// Family quoted.
        family: FamilyId,
        /// Instances the plan needs.
        needed: usize,
        /// Spot instances the market will fill.
        capacity: usize,
    },
    /// No tier on any family produced a feasible fleet.
    NoFeasibleQuote {
        /// The user deadline, seconds.
        deadline_secs: f64,
    },
}

/// Planner knobs. `Clone` (not `Copy`) because the catalog is a vector.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MarketConfig {
    /// Families to quote, evaluated in order (ties break to the earlier
    /// family, so keep the catalog cheapest-first).
    pub catalog: Vec<InstanceFamily>,
    /// Which tiers may be bought.
    pub strategy: MarketStrategy,
    /// Target per-share miss probability fed to the §5.2 adjustment.
    pub p_miss: f64,
    /// Bid level as a multiple of each family's long-run spot mean.
    pub bid_factor: f64,
    /// Seed of every family's price path.
    pub seed: u64,
    /// Price-path resolution, seconds per step.
    pub step_secs: f64,
    /// Price-path horizon, seconds; 0 sizes it automatically from the
    /// deadline (at least a day, at least twice the deadline).
    pub horizon_secs: f64,
    /// Simulated seconds of progress lost per bid crossing (replacement
    /// boot + requeue), charged against the spot-effective deadline.
    pub resume_penalty_secs: f64,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            catalog: InstanceFamily::catalog(),
            strategy: MarketStrategy::Portfolio,
            p_miss: 0.05,
            bid_factor: 1.6,
            seed: 0,
            step_secs: SPOT_STEP_SECS,
            horizon_secs: 0.0,
            resume_penalty_secs: 240.0,
        }
    }
}

impl MarketConfig {
    /// The price-path horizon actually used for a given deadline.
    pub fn horizon_for(&self, deadline_secs: f64) -> f64 {
        if self.horizon_secs > 0.0 {
            self.horizon_secs
        } else {
            (2.0 * deadline_secs).max(86_400.0)
        }
    }

    /// The seeded price path of one family under this config.
    pub fn path_for(&self, family: &InstanceFamily, deadline_secs: f64) -> SpotPath {
        let steps = (self.horizon_for(deadline_secs) / self.step_secs)
            .ceil()
            .max(1.0) as usize;
        SpotPath::generate(self.seed, family, steps, self.step_secs)
    }

    /// The bid the planner places on one family's market.
    pub fn bid_for(&self, family: &InstanceFamily) -> f64 {
        self.bid_factor * family.spot_mean_rate
    }
}

/// One evaluated (family, tier) quote — kept even when infeasible so
/// reports show *why* a tier lost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FamilyQuote {
    /// Family quoted.
    pub family: FamilyId,
    /// Tier quoted.
    pub tier: Tier,
    /// Fleet size of the quote plan (0 when rejected).
    pub instances: usize,
    /// Dollars per started instance-hour the tier pays.
    pub hourly_rate: f64,
    /// Expected dollars for the whole fleet (`∞` when rejected).
    pub expected_cost: f64,
    /// Why the tier is infeasible, when it is.
    pub reject: Option<MarketReject>,
}

/// One line of the chosen fleet: a family, a tier, and the §5.2 plan its
/// instances execute.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetLine {
    /// Family the line buys.
    pub family: InstanceFamily,
    /// Tier the line buys.
    pub tier: Tier,
    /// The per-instance assignment.
    pub plan: Plan,
    /// Dollars per started instance-hour.
    pub hourly_rate: f64,
    /// Expected dollars for this line.
    pub expected_cost: f64,
}

/// The planner's answer: the evaluated quotes plus the chosen fleet.
/// On-demand lines come first — spot ordinals form the tail of the
/// launch order, so scripted reclaim events address them stably.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PortfolioPlan {
    /// Strategy the plan was built under.
    pub strategy: MarketStrategy,
    /// The user deadline, seconds.
    pub deadline_secs: f64,
    /// Every (family, tier) quote evaluated, catalog order, on-demand
    /// before spot per family.
    pub quotes: Vec<FamilyQuote>,
    /// The chosen fleet (one line for a pure strategy, two for a mixed
    /// spot + on-demand portfolio).
    pub lines: Vec<FleetLine>,
    /// Expected dollars across all lines.
    pub expected_cost: f64,
}

impl PortfolioPlan {
    /// Total fleet size across lines.
    pub fn instance_count(&self) -> usize {
        self.lines.iter().map(|l| l.plan.instance_count()).sum()
    }

    /// Fleet size bought on the spot tier.
    pub fn spot_instances(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| matches!(l.tier, Tier::Spot { .. }))
            .map(|l| l.plan.instance_count())
            .sum()
    }

    /// Total bytes across lines.
    pub fn total_volume(&self) -> u64 {
        self.lines.iter().map(|l| l.plan.total_volume()).sum()
    }
}

/// Scale a base fit by a family's runtime multiplier. Exact for every
/// model family whose output is proportional to a parameter (`Linear`,
/// `Affine`, `PowerLaw`, `Exponential`); `LogQuad` has no such parameter,
/// so it returns `None` and [`family_plan`] scales the deadline instead. A
/// multiplier of exactly 1.0 clones the fit — same bits, every kind.
///
/// Relative residuals are invariant under this scaling (`(m·y − m·f) /
/// (m·f)` cancels), so the §5.2 adjustment factor derived from them is
/// shared across families — one calibration covers the whole catalog.
pub fn family_fit(base: &Fit, multiplier: f64) -> Option<Fit> {
    // lint:allow(RL004, a unit multiplier must return an exact clone — the differential test depends on bit-for-bit equality, so the compare is deliberately exact)
    if multiplier == 1.0 {
        return Some(base.clone());
    }
    let (a, b) = match base.kind {
        ModelKind::Linear => (base.a * multiplier, base.b),
        ModelKind::Affine => (base.a * multiplier, base.b * multiplier),
        ModelKind::PowerLaw | ModelKind::Exponential => (base.a * multiplier, base.b),
        ModelKind::LogQuad => return None,
    };
    Some(Fit {
        kind: base.kind,
        a,
        b,
        r2: base.r2,
        residuals: base.residuals.iter().map(|r| r * multiplier).collect(),
        relative_residuals: base.relative_residuals.clone(),
    })
}

/// How one family runs a base fit. A fit that [`family_fit`] rescales is
/// planned on as it is. A `LogQuad` fit is planned on the base clock at
/// `D/m`, and every second such a plan predicts is multiplied by `m`.
struct FamilyClock<'a> {
    /// The fit plans are built on.
    fit: Cow<'a, Fit>,
    /// Family seconds per second of `fit`: 1 for a rescaled fit, `m`
    /// for the base fit.
    scale: f64,
}

impl<'a> FamilyClock<'a> {
    fn new(base: &'a Fit, family: &InstanceFamily) -> Self {
        let m = family.perf_multiplier;
        match family_fit(base, m) {
            Some(scaled) => FamilyClock {
                fit: Cow::Owned(scaled),
                scale: 1.0,
            },
            None => FamilyClock {
                fit: Cow::Borrowed(base),
                scale: m,
            },
        }
    }

    /// The deadline on `fit`'s clock that `deadline_secs` on the family's
    /// clock corresponds to.
    fn deadline(&self, deadline_secs: f64) -> f64 {
        deadline_secs / self.scale
    }

    /// The family's seconds for a share of `volume` bytes.
    fn predict(&self, volume: u64) -> f64 {
        self.fit.predict(volume as f64) * self.scale
    }

    /// `plan`, built on `fit` against [`FamilyClock::deadline`], in the
    /// family's seconds against `deadline_secs`.
    fn finish(&self, mut plan: Plan, deadline_secs: f64) -> Plan {
        plan.deadline_secs = deadline_secs;
        plan.planning_deadline_secs *= self.scale;
        for share in &mut plan.instances {
            share.predicted_secs *= self.scale;
        }
        plan
    }
}

/// The plan for `files` under `strategy` on one family, in the family's
/// seconds. A fit that [`family_fit`] scales is planned as it is. A
/// `LogQuad` fit is planned on the base clock at `D/m` and then converted
/// to the family's clock: the plan's deadline becomes `D`, and its
/// planning deadline and each share's predicted seconds are multiplied by
/// `m`. Either way the plan keeps the caller's deadline and predicts what
/// the family takes.
pub fn family_plan(
    strategy: Strategy,
    files: &[FileSpec],
    base: &Fit,
    family: &InstanceFamily,
    deadline_secs: f64,
) -> Result<Plan, ProvisionError> {
    let clock = FamilyClock::new(base, family);
    let plan = make_plan(strategy, files, &clock.fit, clock.deadline(deadline_secs))?;
    Ok(clock.finish(plan, deadline_secs))
}

/// The §5.2 adjusted-deadline [`family_plan`].
pub fn plan_on_family(
    files: &[FileSpec],
    base: &Fit,
    family: &InstanceFamily,
    deadline_secs: f64,
    p_miss: f64,
) -> Result<Plan, ProvisionError> {
    family_plan(
        Strategy::AdjustedDeadline { p_miss },
        files,
        base,
        family,
        deadline_secs,
    )
}

/// The cheapest [`plan_on_family`] among `catalog`'s families whose fleet
/// fits `free` instances, with its family: the plans are ranked by
/// [`expected_plan_cost`] at each family's on-demand rate, and the
/// earliest family wins a tie. `None` when no family's plan fits.
///
/// Every family is sized from the volume alone. Files are packed once
/// per distinct bin count, the costs come from the bins' loads, and only
/// the winner's per-share file lists are built.
pub fn cheapest_family_plan<'c>(
    files: &[FileSpec],
    base: &Fit,
    catalog: &'c [InstanceFamily],
    deadline_secs: f64,
    p_miss: f64,
    free: usize,
) -> Option<(&'c InstanceFamily, Plan)> {
    let total: u64 = files.iter().map(|f| f.size).sum();
    let mut packings = Vec::new();
    let (family, clock, sizing, at, _) = catalog
        .iter()
        .filter_map(|family| {
            let clock = FamilyClock::new(base, family);
            let sizing =
                Sizing::adjusted(total, &clock.fit, clock.deadline(deadline_secs), p_miss).ok()?;
            if sizing.instances(files) > free {
                return None;
            }
            let bins = sizing.bins(files.len());
            let at = match packings.iter().position(|(b, _)| *b == bins) {
                Some(at) => at,
                None => {
                    packings.push((bins, sizing.pack(files)));
                    packings.len() - 1
                }
            };
            let loads = packings[at].1.bins().filter(|b| !b.is_empty());
            let cost = expected_cost(
                loads.map(|b| clock.predict(b.used())),
                family.on_demand_rate,
            );
            Some((family, clock, sizing, at, cost))
        })
        .min_by(|a, b| a.4.total_cmp(&b.4))?;
    let plan = sizing.plan_packed(files, &packings[at].1, &clock.fit);
    Some((family, clock.finish(plan, deadline_secs)))
}

/// Expected dollars for a plan billed at `rate`: per-share started hours
/// of the predicted runtimes.
pub fn expected_plan_cost(plan: &Plan, rate: f64) -> f64 {
    expected_cost(plan.instances.iter().map(|s| s.predicted_secs), rate)
}

/// Dollars for shares predicted to take `secs` each, billed per started
/// hour at `rate`. The hours saturate: a share predicted to run forever
/// bills `u64::MAX` hours, and two of them must not wrap to a cheap plan.
fn expected_cost(secs: impl Iterator<Item = f64>, rate: f64) -> f64 {
    let hours = secs.fold(0u64, |hours, s| hours.saturating_add(instance_hours(s)));
    hours as f64 * rate
}

fn map_provision_err(family: FamilyId, e: ProvisionError) -> MarketReject {
    match e {
        ProvisionError::NotInvertible { deadline_secs } => MarketReject::ModelNotInvertible {
            family,
            deadline_secs,
        },
        ProvisionError::DeadlineBelowFixedCosts {
            deadline_secs,
            inverse_bytes,
        } => MarketReject::DeadlineBelowFixedCosts {
            family,
            deadline_secs,
            inverse_bytes,
        },
    }
}

/// A spot evaluation kept around for mixing even when pure spot is
/// capacity-exhausted.
struct SpotEval {
    family: InstanceFamily,
    bid: f64,
    effective_deadline: f64,
    rate: f64,
    plan: Plan,
}

/// Split `files` into a prefix of at most `budget` bytes (never fewer
/// than one file if any fit) and the remainder.
fn split_at_budget(files: &[FileSpec], budget: u64) -> (Vec<FileSpec>, Vec<FileSpec>) {
    let mut acc = 0u64;
    let mut cut = 0usize;
    for (i, f) in files.iter().enumerate() {
        if acc + f.size > budget {
            break;
        }
        acc += f.size;
        cut = i + 1;
    }
    (files[..cut].to_vec(), files[cut..].to_vec())
}

/// Plan the cheapest fleet for `files` under `deadline_secs`. See the
/// module docs for the candidate set per strategy.
pub fn plan_market(
    files: &[FileSpec],
    fit: &Fit,
    deadline_secs: f64,
    cfg: &MarketConfig,
) -> Result<PortfolioPlan, MarketReject> {
    plan_market_observed(files, fit, deadline_secs, cfg, &Obs::default())
}

/// [`plan_market`] with an observability sink: every quote emits a
/// `Market` event (`action: "quote"`) and every chosen line one with
/// `action: "allocate"`, all at planning time 0 on the simulated clock.
pub fn plan_market_observed(
    files: &[FileSpec],
    fit: &Fit,
    deadline_secs: f64,
    cfg: &MarketConfig,
    obs: &Obs,
) -> Result<PortfolioPlan, MarketReject> {
    if files.is_empty() {
        return Err(MarketReject::EmptyJob);
    }
    if cfg.catalog.is_empty() {
        return Err(MarketReject::EmptyCatalog);
    }

    let want_od = matches!(
        cfg.strategy,
        MarketStrategy::OnDemandOnly | MarketStrategy::Portfolio
    );
    let want_spot = matches!(
        cfg.strategy,
        MarketStrategy::SpotOnly | MarketStrategy::Portfolio
    );

    let mut quotes = Vec::new();
    let mut first_reject: Option<MarketReject> = None;
    let mut candidates: Vec<(Vec<FleetLine>, f64)> = Vec::new();
    let mut od_lines: Vec<FleetLine> = Vec::new();
    let mut spot_evals: Vec<SpotEval> = Vec::new();

    for family in &cfg.catalog {
        // --- On-demand tier. ---
        if want_od {
            match plan_on_family(files, fit, family, deadline_secs, cfg.p_miss) {
                Ok(plan) => {
                    let rate = family.on_demand_rate;
                    let cost = expected_plan_cost(&plan, rate);
                    quotes.push(FamilyQuote {
                        family: family.id,
                        tier: Tier::OnDemand,
                        instances: plan.instance_count(),
                        hourly_rate: rate,
                        expected_cost: cost,
                        reject: None,
                    });
                    let line = FleetLine {
                        family: *family,
                        tier: Tier::OnDemand,
                        plan,
                        hourly_rate: rate,
                        expected_cost: cost,
                    };
                    candidates.push((vec![line.clone()], cost));
                    od_lines.push(line);
                }
                Err(e) => {
                    let reject = map_provision_err(family.id, e);
                    first_reject.get_or_insert(reject);
                    quotes.push(FamilyQuote {
                        family: family.id,
                        tier: Tier::OnDemand,
                        instances: 0,
                        hourly_rate: family.on_demand_rate,
                        expected_cost: f64::INFINITY,
                        reject: Some(reject),
                    });
                }
            }
        }

        // --- Spot tier. ---
        if want_spot {
            let bid = cfg.bid_for(family);
            let window = cfg
                .path_for(family, deadline_secs)
                .window(bid, 0.0, deadline_secs);
            let effective =
                window.eligible_secs - window.reclaims.len() as f64 * cfg.resume_penalty_secs;
            let rate = window.mean_price;
            let outcome = if effective <= 0.0 {
                Err(ProvisionError::DeadlineBelowFixedCosts {
                    deadline_secs: effective.max(0.0),
                    inverse_bytes: 0.0,
                })
            } else {
                plan_on_family(files, fit, family, effective, cfg.p_miss)
            };
            match outcome {
                Ok(plan) => {
                    let needed = plan.instance_count();
                    let cost = expected_plan_cost(&plan, rate);
                    let capacity = family.spot_capacity;
                    let reject =
                        (needed > capacity).then_some(MarketReject::SpotCapacityExhausted {
                            family: family.id,
                            needed,
                            capacity,
                        });
                    if let Some(r) = reject {
                        first_reject.get_or_insert(r);
                    }
                    quotes.push(FamilyQuote {
                        family: family.id,
                        tier: Tier::Spot { bid },
                        instances: needed,
                        hourly_rate: rate,
                        expected_cost: if reject.is_none() {
                            cost
                        } else {
                            f64::INFINITY
                        },
                        reject,
                    });
                    if reject.is_none() {
                        candidates.push((
                            vec![FleetLine {
                                family: *family,
                                tier: Tier::Spot { bid },
                                plan: plan.clone(),
                                hourly_rate: rate,
                                expected_cost: cost,
                            }],
                            cost,
                        ));
                    }
                    spot_evals.push(SpotEval {
                        family: *family,
                        bid,
                        effective_deadline: effective,
                        rate,
                        plan,
                    });
                }
                Err(e) => {
                    let reject = map_provision_err(family.id, e);
                    first_reject.get_or_insert(reject);
                    quotes.push(FamilyQuote {
                        family: family.id,
                        tier: Tier::Spot { bid },
                        instances: 0,
                        hourly_rate: rate,
                        expected_cost: f64::INFINITY,
                        reject: Some(reject),
                    });
                }
            }
        }
    }

    // --- Mixed candidates (Portfolio only): cap the spot line at the
    // family's capacity and put the remainder on the cheapest feasible
    // on-demand family, both racing the same user deadline. ---
    if cfg.strategy == MarketStrategy::Portfolio {
        for eval in &spot_evals {
            let capacity = eval.family.spot_capacity;
            if eval.plan.instance_count() <= capacity {
                continue; // pure spot already covers it, and is cheaper
            }
            let mut budget = capacity as u64 * eval.plan.volume_per_instance.max(1);
            loop {
                let (prefix, rest) = split_at_budget(files, budget);
                if prefix.is_empty() || rest.is_empty() {
                    break;
                }
                let Ok(spot_plan) = plan_on_family(
                    &prefix,
                    fit,
                    &eval.family,
                    eval.effective_deadline,
                    cfg.p_miss,
                ) else {
                    break;
                };
                if spot_plan.instance_count() > capacity {
                    // Packing slack pushed the prefix over the cap; shave
                    // one instance's worth of bytes and retry.
                    budget = budget.saturating_sub(eval.plan.volume_per_instance.max(1));
                    if budget == 0 {
                        break;
                    }
                    continue;
                }
                let spot_cost = expected_plan_cost(&spot_plan, eval.rate);
                let best_od = od_lines
                    .iter()
                    .filter_map(|od| {
                        plan_on_family(&rest, fit, &od.family, deadline_secs, cfg.p_miss)
                            .ok()
                            .map(|p| {
                                let c = expected_plan_cost(&p, od.family.on_demand_rate);
                                (od.family, p, c)
                            })
                    })
                    .min_by(|a, b| a.2.total_cmp(&b.2));
                if let Some((od_family, od_plan, od_cost)) = best_od {
                    let lines = vec![
                        FleetLine {
                            family: od_family,
                            tier: Tier::OnDemand,
                            plan: od_plan,
                            hourly_rate: od_family.on_demand_rate,
                            expected_cost: od_cost,
                        },
                        FleetLine {
                            family: eval.family,
                            tier: Tier::Spot { bid: eval.bid },
                            plan: spot_plan,
                            hourly_rate: eval.rate,
                            expected_cost: spot_cost,
                        },
                    ];
                    candidates.push((lines, od_cost + spot_cost));
                }
                break;
            }
        }
    }

    for q in &quotes {
        obs.market(
            q.family.label(),
            "quote",
            q.tier.label(),
            0.0,
            q.instances as u64,
            if q.expected_cost.is_finite() {
                q.expected_cost
            } else {
                0.0
            },
        );
    }

    let best = candidates
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or_else(|| first_reject.unwrap_or(MarketReject::NoFeasibleQuote { deadline_secs }))?;
    for line in &best.0 {
        obs.market(
            line.family.id.label(),
            "allocate",
            line.tier.label(),
            0.0,
            line.plan.instance_count() as u64,
            line.expected_cost,
        );
    }
    Ok(PortfolioPlan {
        strategy: cfg.strategy,
        deadline_secs,
        quotes,
        lines: best.0,
        expected_cost: best.1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::fit as fit_model;

    /// ~75 MB/s with a 1 s fixed cost and ±1 % wobble, like the executor
    /// tests.
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

    #[test]
    fn family_fit_is_exact_clone_at_unit_multiplier() {
        let f = base_fit();
        let scaled = family_fit(&f, 1.0).unwrap();
        assert_eq!(f, scaled);
    }

    #[test]
    fn family_fit_scales_predictions_and_keeps_relative_residuals() {
        let f = base_fit();
        let scaled = family_fit(&f, 1.9).unwrap();
        for x in [1.0e8, 5.0e8, 2.0e9] {
            assert!((scaled.predict(x) - 1.9 * f.predict(x)).abs() < 1e-9 * f.predict(x));
        }
        assert_eq!(scaled.relative_residuals, f.relative_residuals);
    }

    #[test]
    fn single_family_on_demand_reproduces_classic_planner() {
        let f = base_fit();
        let files = corpus(40, 1.0e8 as u64);
        let cfg = MarketConfig {
            catalog: vec![InstanceFamily::standard()],
            strategy: MarketStrategy::OnDemandOnly,
            ..MarketConfig::default()
        };
        let classic = make_plan(
            Strategy::AdjustedDeadline { p_miss: cfg.p_miss },
            &files,
            &f,
            20.0,
        )
        .unwrap();
        let portfolio = plan_market(&files, &f, 20.0, &cfg).unwrap();
        assert_eq!(portfolio.lines.len(), 1);
        assert_eq!(portfolio.lines[0].plan, classic);
    }

    #[test]
    fn same_seed_plans_are_identical() {
        let f = base_fit();
        let files = corpus(60, 1.0e8 as u64);
        let cfg = MarketConfig::default();
        let a = plan_market(&files, &f, 40.0, &cfg).unwrap();
        let b = plan_market(&files, &f, 40.0, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn portfolio_never_costs_more_than_pure_strategies() {
        let f = base_fit();
        let files = corpus(80, 1.0e8 as u64);
        for deadline in [15.0, 30.0, 60.0, 240.0, 1800.0] {
            let mk = |strategy| MarketConfig {
                strategy,
                ..MarketConfig::default()
            };
            let port = plan_market(&files, &f, deadline, &mk(MarketStrategy::Portfolio))
                .expect("portfolio feasible");
            for pure in [MarketStrategy::OnDemandOnly, MarketStrategy::SpotOnly] {
                if let Ok(p) = plan_market(&files, &f, deadline, &mk(pure)) {
                    assert!(
                        port.expected_cost <= p.expected_cost + 1e-9,
                        "portfolio {} > {} {} at deadline {deadline}",
                        port.expected_cost,
                        pure.label(),
                        p.expected_cost
                    );
                }
            }
        }
    }

    #[test]
    fn empty_job_and_catalog_reject() {
        let f = base_fit();
        assert_eq!(
            plan_market(&[], &f, 10.0, &MarketConfig::default()).unwrap_err(),
            MarketReject::EmptyJob
        );
        let cfg = MarketConfig {
            catalog: Vec::new(),
            ..MarketConfig::default()
        };
        let files = corpus(4, 1000);
        assert_eq!(
            plan_market(&files, &f, 10.0, &cfg).unwrap_err(),
            MarketReject::EmptyCatalog
        );
    }

    #[test]
    fn impossible_deadline_maps_to_typed_reject() {
        let f = base_fit();
        let files = corpus(10, 1.0e8 as u64);
        let cfg = MarketConfig {
            catalog: vec![InstanceFamily::standard()],
            strategy: MarketStrategy::OnDemandOnly,
            ..MarketConfig::default()
        };
        // The fixed cost alone (~1 s) exceeds a 0.1 s deadline.
        let err = plan_market(&files, &f, 0.1, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                MarketReject::DeadlineBelowFixedCosts {
                    family: FamilyId::Standard,
                    ..
                } | MarketReject::ModelNotInvertible {
                    family: FamilyId::Standard,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn capacity_pressure_produces_a_mixed_fleet() {
        let f = base_fit();
        // A corpus big enough that a spot-effective deadline needs more
        // instances than any family's spot capacity.
        let files = corpus(400, 1.0e8 as u64);
        let cfg = MarketConfig::default();
        let deadline = 30.0;
        let port = plan_market(&files, &f, deadline, &cfg).unwrap();
        let spot_only = plan_market(
            &files,
            &f,
            deadline,
            &MarketConfig {
                strategy: MarketStrategy::SpotOnly,
                ..cfg.clone()
            },
        );
        let od_only = plan_market(
            &files,
            &f,
            deadline,
            &MarketConfig {
                strategy: MarketStrategy::OnDemandOnly,
                ..cfg.clone()
            },
        )
        .unwrap();
        // Pure spot is capacity-exhausted at this size…
        assert!(
            spot_only.is_err(),
            "expected capacity exhaustion, got {spot_only:?}"
        );
        // …and the mixed portfolio undercuts pure on-demand.
        assert_eq!(port.lines.len(), 2, "expected a mixed fleet: {port:?}");
        assert!(port.spot_instances() > 0);
        assert!(port.expected_cost < od_only.expected_cost);
        // Conservation: the two lines cover the whole corpus.
        let total: u64 = files.iter().map(|x| x.size).sum();
        assert_eq!(port.total_volume(), total);
    }

    #[test]
    fn quotes_record_rejects_with_reasons() {
        let f = base_fit();
        let files = corpus(400, 1.0e8 as u64);
        let port = plan_market(&files, &f, 30.0, &MarketConfig::default()).unwrap();
        let exhausted = port
            .quotes
            .iter()
            .any(|q| matches!(q.reject, Some(MarketReject::SpotCapacityExhausted { .. })));
        assert!(exhausted, "quotes: {:?}", port.quotes);
    }

    /// A LogQuad fit predicts a share of zero-byte files at its 1-byte
    /// runtime, so an adjusted fleet with more shares than nonempty files
    /// stays feasible and bills finite hours.
    #[test]
    fn logquad_zero_byte_share_is_finite() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x / 75.0e6).collect();
        let f = fit_model(ModelKind::LogQuad, &xs, &ys);
        assert!(f.a > 0.0, "{f:?}");
        assert!(f.predict(0.0).is_finite());
        assert_eq!(f.predict(0.0), f.predict(1.0));

        // Two 1 GB files meet the deadline one per instance, but the
        // adjusted deadline sizes three instances: the third runs the
        // zero-byte file alone.
        let mut files = corpus(2, 1_000_000_000);
        files.push(FileSpec::new(2, 0));
        let deadline = f.predict(1.0e9) * 1.001;
        let plan = make_plan(
            Strategy::AdjustedDeadline { p_miss: 0.05 },
            &files,
            &f,
            deadline,
        )
        .unwrap();
        assert_eq!(plan.instance_count(), 3, "{plan:?}");
        assert!(plan.instances.iter().any(|s| s.volume == 0));
        assert!(plan.predicted_feasible(), "{plan:?}");
        assert!(expected_plan_cost(&plan, 1.0) < u64::MAX as f64);
    }

    #[test]
    fn planner_emits_market_events() {
        let f = base_fit();
        let files = corpus(40, 1.0e8 as u64);
        let obs = Obs::recording(3);
        plan_market_observed(&files, &f, 60.0, &MarketConfig::default(), &obs).unwrap();
        let log = obs.to_ndjson();
        assert!(log.contains("\"Market\""));
        assert!(log.contains("\"action\":\"quote\""));
        assert!(log.contains("\"action\":\"allocate\""));
        assert!(log.contains("\"family\":\"low_power\""));
    }
}
