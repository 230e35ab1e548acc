//! Instance families: price/perf profiles layered on top of the simulated
//! fleet.
//!
//! The paper runs everything on one homogeneous instance type; real EC2
//! offers *families* with distinct hourly prices, per-stream bandwidth and
//! compute throughput (and *Hadoop in Low-Power Processors* shows
//! ARM-class nodes winning on cost-per-job for I/O-bound text workloads).
//! A family here is a **deterministic transform** applied to the quality
//! the simulator already samples per instance: the same RNG draws happen
//! in the same order whether an instance is launched plain or through a
//! family, so adding families changes no existing seed's behavior. The
//! `perf_multiplier` is the family's runtime scale against the calibrated
//! base performance model (2.0 ⇒ every job takes twice as long), which is
//! exactly how the portfolio planner in `crates/market` scales fitted
//! models per family.

use serde::{Deserialize, Serialize};

use crate::instance::InstanceQuality;
use crate::types::InstanceType;

/// Stable identity of an instance family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FamilyId {
    /// The paper's baseline: small standard instances.
    Standard,
    /// Compute-optimized: faster and pricier per hour.
    HiCpu,
    /// Low-power (ARM-class): slow but cheap per byte processed.
    LowPower,
}

impl FamilyId {
    /// Stable snake_case label; part of the NDJSON log schema.
    pub fn label(&self) -> &'static str {
        match self {
            FamilyId::Standard => "standard",
            FamilyId::HiCpu => "hi_cpu",
            FamilyId::LowPower => "low_power",
        }
    }
}

/// One family's price/perf profile. `Copy` so it rides inside
/// `provision::ExecutionConfig` without breaking that type's `Copy` bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceFamily {
    /// Identity.
    pub id: FamilyId,
    /// Underlying simulated type (capacity caps, memory, local disk).
    pub itype: InstanceType,
    /// On-demand dollars per started hour.
    pub on_demand_rate: f64,
    /// Runtime multiplier against the calibrated base model: predicted
    /// job time on this family is `perf_multiplier × base_fit(x)`.
    /// Below 1.0 is faster than the baseline, above is slower.
    pub perf_multiplier: f64,
    /// Per-stream bandwidth ceiling in bytes/second: sampled instance I/O
    /// is scaled by `1 / perf_multiplier` and then capped here.
    pub stream_bps_cap: f64,
    /// Long-run mean of the family's spot price, dollars per hour.
    pub spot_mean_rate: f64,
    /// Per-step Gaussian volatility of the spot process, dollars.
    pub spot_volatility: f64,
    /// Per-step probability of a demand-spike jump (the events that cross
    /// bids and reclaim the whole family's spot capacity at once).
    pub spot_jump_prob: f64,
    /// Mean magnitude of a jump, dollars.
    pub spot_jump_scale: f64,
    /// Maximum concurrent spot instances the market will fill for one
    /// request in this family — the capacity pressure that makes mixed
    /// portfolios beat pure spot fleets.
    pub spot_capacity: usize,
}

impl InstanceFamily {
    /// The baseline family: identity transform over the simulated fleet,
    /// billed at the small type's list price. `perf_multiplier` is exactly
    /// 1.0 and the bandwidth cap is above every sampleable instance I/O
    /// value, so launching through this family is bit-for-bit the same as
    /// launching plain small instances — the anchor of the planner
    /// differential tests.
    pub fn standard() -> InstanceFamily {
        InstanceFamily {
            id: FamilyId::Standard,
            itype: InstanceType::Small,
            on_demand_rate: InstanceType::Small.hourly_rate(),
            perf_multiplier: 1.0,
            stream_bps_cap: 200.0e6,
            spot_mean_rate: 0.034,
            spot_volatility: 0.004,
            spot_jump_prob: 0.02,
            spot_jump_scale: 0.09,
            spot_capacity: 12,
        }
    }

    /// Compute-optimized: ~1.8× the baseline throughput at ~2.2× the
    /// price — worse dollars-per-byte, but the only family that fits the
    /// tightest deadlines.
    pub fn hi_cpu() -> InstanceFamily {
        InstanceFamily {
            id: FamilyId::HiCpu,
            itype: InstanceType::Small,
            on_demand_rate: 0.19,
            perf_multiplier: 0.55,
            stream_bps_cap: 250.0e6,
            spot_mean_rate: 0.076,
            spot_volatility: 0.009,
            spot_jump_prob: 0.03,
            spot_jump_scale: 0.2,
            spot_capacity: 8,
        }
    }

    /// Low-power ARM-class: ~1.9× slower at ~0.35× the price — the best
    /// dollars-per-byte in the catalog whenever the deadline is loose
    /// enough to tolerate the longer runtime.
    pub fn low_power() -> InstanceFamily {
        InstanceFamily {
            id: FamilyId::LowPower,
            itype: InstanceType::Small,
            on_demand_rate: 0.03,
            perf_multiplier: 1.9,
            stream_bps_cap: 120.0e6,
            spot_mean_rate: 0.012,
            spot_volatility: 0.0015,
            spot_jump_prob: 0.015,
            spot_jump_scale: 0.035,
            spot_capacity: 16,
        }
    }

    /// The default catalog, cheapest-per-hour first.
    pub fn catalog() -> Vec<InstanceFamily> {
        vec![
            InstanceFamily::low_power(),
            InstanceFamily::standard(),
            InstanceFamily::hi_cpu(),
        ]
    }

    /// Deterministically reshape a sampled per-instance quality into this
    /// family: CPU and I/O scale with the family's speed (the inverse of
    /// the runtime multiplier), I/O saturates at the per-stream cap.
    /// Jitter is a relative quantity and carries over unchanged.
    pub fn apply(&self, q: InstanceQuality) -> InstanceQuality {
        InstanceQuality {
            cpu_factor: q.cpu_factor / self.perf_multiplier,
            io_bps: (q.io_bps / self.perf_multiplier).min(self.stream_bps_cap),
            jitter_rel: q.jitter_rel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_family_transform_is_identity() {
        let f = InstanceFamily::standard();
        assert_eq!(f.perf_multiplier, 1.0);
        assert_eq!(f.on_demand_rate, InstanceType::Small.hourly_rate());
        let q = InstanceQuality {
            cpu_factor: 1.02,
            io_bps: 83.0e6,
            jitter_rel: 0.02,
        };
        assert_eq!(f.apply(q), q);
    }

    #[test]
    fn catalog_orders_by_cost_per_hour_and_by_cost_per_work() {
        let cat = InstanceFamily::catalog();
        assert_eq!(cat.len(), 3);
        for w in cat.windows(2) {
            assert!(w[0].on_demand_rate < w[1].on_demand_rate);
        }
    }

    #[test]
    fn hi_cpu_is_faster_low_power_is_slower() {
        let q = InstanceQuality {
            cpu_factor: 1.0,
            io_bps: 75.0e6,
            jitter_rel: 0.02,
        };
        let fast = InstanceFamily::hi_cpu().apply(q);
        let slow = InstanceFamily::low_power().apply(q);
        assert!(fast.cpu_factor > q.cpu_factor);
        assert!(fast.io_bps > q.io_bps);
        assert!(slow.cpu_factor < q.cpu_factor);
        assert!(slow.io_bps < q.io_bps);
    }

    #[test]
    fn stream_cap_saturates_io() {
        let mut f = InstanceFamily::hi_cpu();
        f.stream_bps_cap = 100.0e6;
        let q = InstanceQuality {
            cpu_factor: 1.0,
            io_bps: 80.0e6,
            jitter_rel: 0.02,
        };
        assert_eq!(f.apply(q).io_bps, 100.0e6);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FamilyId::Standard.label(), "standard");
        assert_eq!(FamilyId::HiCpu.label(), "hi_cpu");
        assert_eq!(FamilyId::LowPower.label(), "low_power");
    }
}
