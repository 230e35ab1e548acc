//! The paper's cost function (§5).
//!
//! With flat rate `r` per started hour and predicted total processing time
//! `P` (in hours, on one instance):
//!
//! * `D ≥ 1 h`: cost is `r·⌈P⌉` — pack whole hours of work into each
//!   instance; the constant slope means splitting across instances does
//!   not change the total billed hours;
//! * `D < 1 h`: cost is `r·⌈P/D⌉` — we must pay a *full hour* for every
//!   instance even though each runs only `D`.

use ec2sim::robust_ceil;
use serde::{Deserialize, Serialize};

/// Flat-rate pricing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingModel {
    /// Dollars per started instance-hour ($0.085 for small instances).
    pub hourly_rate: f64,
}

impl Default for PricingModel {
    fn default() -> Self {
        PricingModel { hourly_rate: 0.085 }
    }
}

/// Billed hours for one instance running `secs` seconds.
///
/// Delegates to the simulator's [`ec2sim::billed_hours`] so planner and
/// ledger share one [`robust_ceil`]-based rounding rule and cannot
/// disagree on hour-boundary durations.
pub fn instance_hours(secs: f64) -> u64 {
    ec2sim::billed_hours(secs)
}

/// The paper's piecewise cost `f(d)` for predicted work `p_hours` under
/// deadline `d_hours`, both in hours, for a linear (`y = ax`) performance
/// model.
///
/// Block counts are rounded with [`robust_ceil`]: work that is an exact
/// multiple of the deadline (`p_hours = k·d_hours`) bills exactly `k`
/// blocks even when the division lands a few ULPs above `k` — the naive
/// `(p_hours / d_hours).ceil()` overbilled such workloads by one block.
pub fn cost_for_deadline(pricing: &PricingModel, p_hours: f64, d_hours: f64) -> f64 {
    assert!(p_hours >= 0.0 && d_hours > 0.0, "invalid work or deadline");
    if d_hours >= 1.0 {
        pricing.hourly_rate * robust_ceil(p_hours)
    } else {
        pricing.hourly_rate * robust_ceil(p_hours / d_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_deadline_bills_ceiled_work() {
        let p = PricingModel::default();
        // 26.1 h of POS work, D = 1 h → the paper's 27 instances.
        let c = cost_for_deadline(&p, 26.1, 1.0);
        assert!((c - 27.0 * 0.085).abs() < 1e-9);
    }

    #[test]
    fn sub_hour_deadline_pays_full_hours() {
        let p = PricingModel::default();
        // 2 h of work in 30 min → 4 instances, each a full billed hour.
        let c = cost_for_deadline(&p, 2.0, 0.5);
        assert!((c - 4.0 * 0.085).abs() < 1e-9);
    }

    #[test]
    fn cost_monotone_in_work() {
        let p = PricingModel::default();
        assert!(cost_for_deadline(&p, 10.0, 2.0) <= cost_for_deadline(&p, 11.0, 2.0));
    }

    #[test]
    fn exact_multiple_of_deadline_not_overbilled() {
        let p = PricingModel::default();
        // 0.07 / 0.01 = 7.000000000000001 in f64: exactly k·d_hours of
        // work must bill k blocks, not k + 1.
        let c = cost_for_deadline(&p, 0.07, 0.01);
        assert!((c - 7.0 * 0.085).abs() < 1e-9, "billed {c}");
        // An exactly representable multiple stays exact too.
        let c = cost_for_deadline(&p, 1.75, 0.25);
        assert!((c - 7.0 * 0.085).abs() < 1e-9, "billed {c}");
        // The whole-hour branch gets the same forgiveness.
        let c = cost_for_deadline(&p, 27.000000000000004, 2.0);
        assert!((c - 27.0 * 0.085).abs() < 1e-9, "billed {c}");
        // Genuinely fractional work still rounds up.
        let c = cost_for_deadline(&p, 0.071, 0.01);
        assert!((c - 8.0 * 0.085).abs() < 1e-9, "billed {c}");
    }

    #[test]
    fn instance_hours_edges() {
        assert_eq!(instance_hours(0.0), 0);
        assert_eq!(instance_hours(1.0), 1);
        assert_eq!(instance_hours(3600.0), 1);
        assert_eq!(instance_hours(3600.001), 2);
        // Shared robust rounding: ULP drift above an exact boundary is
        // forgiven, matching ec2sim::billed_hours bit for bit.
        let stretched = 3600.0 / 49.0 * 49.0 * 2.0;
        assert_eq!(instance_hours(stretched), 2);
        assert_eq!(instance_hours(stretched), ec2sim::billed_hours(stretched));
    }

    #[test]
    #[should_panic(expected = "invalid work or deadline")]
    fn zero_deadline_rejected() {
        cost_for_deadline(&PricingModel::default(), 1.0, 0.0);
    }
}
