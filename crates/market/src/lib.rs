//! Heterogeneous fleet market: instance families, seeded spot pricing,
//! and a cost-optimal mixed-fleet portfolio planner.
//!
//! The paper's provisioning question — *how many instances meet the
//! deadline?* (§5) — assumes one instance type at one price. Real EC2
//! offers a catalog of families at different price/performance points and
//! a spot market whose price moves; the cheapest fleet that still meets
//! the deadline is usually a **mix**. This crate answers the extended
//! question on the simulated clock:
//!
//! * [`ec2sim::InstanceFamily`] describes a family's list price, perf
//!   multiplier and streaming cap; [`family_fit`] transports the §5
//!   calibrated model onto a family (relative residuals — and hence the
//!   §5.2 adjustment factor — are invariant under the scaling), and
//!   [`family_plan`] plans on a family in its own seconds.
//!   [`cheapest_family_plan`] is the scheduler's dispatch-time choice: the
//!   cheapest on-demand family whose fleet fits the free pool, with only
//!   the winner's plan built.
//! * [`SpotPath`] is a seeded, counter-hashed mean-reverting price
//!   process per family: same seed ⇒ byte-identical path. It is the only
//!   spot model. [`SpotPath::window`] answers what a bid buys in one pass:
//!   a [`BidWindow`] of eligible work time, correlated whole-family
//!   reclaim instants and the expected rate.
//! * [`plan_market`] quotes every (family, tier) pair by inverting the
//!   family-scaled model under the residual-adjusted deadline, and picks
//!   the cheapest feasible fleet under the chosen [`MarketStrategy`] —
//!   including mixed spot + on-demand fleets when spot capacity caps
//!   bind. Infeasibility is typed ([`MarketReject`]), mirroring `sched`'s
//!   reject vocabulary.
//! * [`execute_portfolio`] runs the chosen fleet through the resilient
//!   executor with the bid crossings scripted as a
//!   [`reclaim_fault_plan`], so the chaos machinery exercises exactly the
//!   preemptions the planner priced in.
//!
//! Everything is deterministic: no wall-clock reads, counter-based
//! randomness only, `same seed ⇒ byte-identical plan, price path and
//! event log`.

#![forbid(unsafe_code)]

mod exec;
mod planner;
mod spot;

pub use exec::{execute_portfolio, reclaim_fault_plan, MarketExecution};
pub use planner::{
    cheapest_family_plan, expected_plan_cost, family_fit, family_plan, plan_market,
    plan_market_observed, plan_on_family, FamilyQuote, FleetLine, MarketConfig, MarketReject,
    MarketStrategy, PortfolioPlan, Tier, RESUME_PENALTY_SECS,
};
pub use spot::{BidWindow, SpotPath, SPOT_STEP_SECS};
