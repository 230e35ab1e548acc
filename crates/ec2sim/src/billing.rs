//! Flat-rate billing: `rate × ⌈running hours⌉` per instance.
//!
//! §1.1: "The pricing scheme for instances provides a flat rate for an hour
//! or partial hour of computation ($0.1 × ⌈h⌉)"; pending, shutting-down and
//! terminated time is free. This granularity is what drives the whole
//! provisioning strategy: once an instance is started, the rest of its hour
//! is already paid for.

use crate::instance::{Instance, InstanceId};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};

/// One instance's bill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceBill {
    /// Instance.
    pub id: InstanceId,
    /// Billable running seconds.
    pub running_seconds: f64,
    /// Whole started hours billed (`⌈seconds / 3600⌉`, minimum 1 once the
    /// instance has run at all).
    pub billed_hours: u64,
    /// Dollars.
    pub cost: f64,
}

/// The account ledger: one bill per instance, in first-record order.
#[derive(Debug, Clone, Default)]
pub struct BillingLedger {
    bills: Vec<InstanceBill>,
    /// Position of each instance's bill in `bills`, so a refresh does not
    /// search every instance the run has launched. A function of `bills`.
    index: BTreeMap<InstanceId, usize>,
}

impl PartialEq for BillingLedger {
    /// Equal when the bills are: `index` is derived from them.
    fn eq(&self, other: &Self) -> bool {
        self.bills == other.bills
    }
}

/// Started hours for a running duration in seconds.
///
/// Rounded with [`crate::robust_ceil`]: a run stretched by fault slowdowns
/// whose float arithmetic lands a few ULPs past an exact hour boundary
/// bills that hour, not the next one — the same double-rounding class
/// `provision::pricing` fixed for block counts.
pub fn billed_hours(running_seconds: f64) -> u64 {
    if running_seconds <= 0.0 {
        0
    } else {
        crate::numeric::robust_ceil(running_seconds / 3600.0).max(1.0) as u64
    }
}

/// The simulated time through which an instance whose billing anchor is
/// `anchor` has already paid, given the hours billed to it so far. The
/// interval `[anchor, paid_through)` is bought capacity: work finishing
/// inside it costs zero marginal dollars — the economic basis for keeping
/// released instances warm instead of terminating them (§1.1: "once an
/// instance is started, the rest of its hour is already paid for").
pub fn paid_through(anchor: f64, billed: u64) -> f64 {
    anchor + billed as f64 * 3600.0
}

impl BillingLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (or refresh) the bill of `instance` as of simulation time
    /// `now`.
    pub fn record(&mut self, instance: &Instance, now: f64) {
        let seconds = instance.running_seconds(now);
        let hours = billed_hours(seconds);
        let bill = InstanceBill {
            id: instance.id,
            running_seconds: seconds,
            billed_hours: hours,
            cost: hours as f64 * instance.hourly_rate,
        };
        match self.index.entry(instance.id) {
            Entry::Occupied(at) => self.bills[*at.get()] = bill,
            Entry::Vacant(slot) => {
                slot.insert(self.bills.len());
                self.bills.push(bill);
            }
        }
    }

    /// Total dollars across all instances.
    pub fn total_cost(&self) -> f64 {
        self.bills.iter().map(|b| b.cost).sum()
    }

    /// Total billed instance-hours.
    pub fn total_instance_hours(&self) -> u64 {
        self.bills.iter().map(|b| b.billed_hours).sum()
    }

    /// Per-instance bills.
    pub fn bills(&self) -> &[InstanceBill] {
        &self.bills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceQuality, InstanceState};
    use crate::types::{AvailabilityZone, InstanceType};

    fn instance(id: u64, running_at: f64, terminated_at: Option<f64>) -> Instance {
        Instance {
            id: InstanceId(id),
            itype: InstanceType::Small,
            zone: AvailabilityZone::us_east_1a(),
            state: InstanceState::Pending,
            requested_at: 0.0,
            running_at,
            terminated_at,
            quality: InstanceQuality {
                cpu_factor: 1.0,
                io_bps: 75e6,
                jitter_rel: 0.02,
            },
            hourly_rate: InstanceType::Small.hourly_rate(),
        }
    }

    #[test]
    fn partial_hour_bills_full_hour() {
        assert_eq!(billed_hours(1.0), 1);
        assert_eq!(billed_hours(3599.0), 1);
        assert_eq!(billed_hours(3600.0), 1);
        assert_eq!(billed_hours(3600.1), 2);
        assert_eq!(billed_hours(7200.0), 2);
        assert_eq!(billed_hours(0.0), 0);
    }

    #[test]
    fn hour_boundary_float_drift_does_not_bill_extra_hour() {
        // A fault-slowdown-stretched run: 49 files at 3600/49 s each, run
        // twice. The float product is 7200.000000000001 — exactly two
        // hours of work, a few ULPs adrift. The pre-fix raw
        // `(secs / 3600).ceil()` billed 3 hours here.
        let stretched = 3600.0 / 49.0 * 49.0 * 2.0;
        assert!(stretched > 7200.0, "drift premise: {stretched}");
        assert_eq!(billed_hours(stretched), 2);
        // Genuine overrun past the boundary still bills the next hour.
        assert_eq!(billed_hours(7200.1), 3);
    }

    #[test]
    fn paid_through_marks_the_end_of_the_bought_hour() {
        // One billed hour anchored at t=180 is paid through t=3780 …
        assert_eq!(paid_through(180.0, 1), 3_780.0);
        // … and the marginal cost of any release inside that window is 0:
        assert_eq!(billed_hours(3_780.0 - 180.0), 1);
        // Nothing billed yet means nothing is paid beyond the anchor.
        assert_eq!(paid_through(42.0, 0), 42.0);
        assert_eq!(paid_through(0.0, 3), 10_800.0);
    }

    #[test]
    fn pending_time_is_free() {
        let mut ledger = BillingLedger::new();
        let i = instance(1, 180.0, Some(3_780.0)); // ran exactly 1 h
        ledger.record(&i, 10_000.0);
        assert_eq!(ledger.total_instance_hours(), 1);
        assert!((ledger.total_cost() - 0.085).abs() < 1e-12);
    }

    #[test]
    fn rerecording_updates_not_duplicates() {
        let mut ledger = BillingLedger::new();
        let i = instance(1, 0.0, None);
        ledger.record(&i, 1_800.0);
        assert_eq!(ledger.total_instance_hours(), 1);
        ledger.record(&i, 4_000.0);
        assert_eq!(ledger.total_instance_hours(), 2);
        assert_eq!(ledger.bills().len(), 1);
    }

    #[test]
    fn multiple_instances_sum() {
        let mut ledger = BillingLedger::new();
        for id in 0..27 {
            let i = instance(id, 180.0, Some(180.0 + 3_500.0));
            ledger.record(&i, 10_000.0);
        }
        // The paper's Fig 8(a) plan: 27 instances × 1 hour.
        assert_eq!(ledger.total_instance_hours(), 27);
        assert!((ledger.total_cost() - 27.0 * 0.085).abs() < 1e-9);
    }

    #[test]
    fn never_ran_never_billed() {
        let mut ledger = BillingLedger::new();
        let i = instance(1, 500.0, Some(100.0)); // terminated while pending
        ledger.record(&i, 1_000.0);
        assert_eq!(ledger.total_instance_hours(), 0);
        assert_eq!(ledger.total_cost(), 0.0);
    }
}
