//! Data-transfer pricing — the other half of the bill.
//!
//! The paper notes "the per-byte transferred cost being constant, the main
//! benefit results from saved compute time" (§1): reshaping does not change
//! how many bytes cross the wire, so transfer cost is a constant offset —
//! but a provisioning tool still has to report it. 2010-era rates:
//! $0.10/GB in, $0.17/GB out (first tier), free within an availability
//! zone, $0.01/GB between zones of a region.

use crate::types::AvailabilityZone;
use serde::{Deserialize, Serialize};

/// What kind of movement a transfer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferKind {
    /// Internet → EC2 (staging data in).
    IngressFromInternet,
    /// EC2 → internet (retrieving results).
    EgressToInternet,
    /// Between instances/volumes in the same availability zone.
    IntraZone,
    /// Between availability zones of the same region.
    InterZone,
    /// Between regions (billed as egress).
    InterRegion,
}

/// Per-GB transfer rates in dollars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferPricing {
    /// Internet ingress per GB.
    pub ingress_per_gb: f64,
    /// Internet egress per GB (first tier).
    pub egress_per_gb: f64,
    /// Cross-zone per GB.
    pub inter_zone_per_gb: f64,
}

impl Default for TransferPricing {
    fn default() -> Self {
        TransferPricing {
            ingress_per_gb: 0.10,
            egress_per_gb: 0.17,
            inter_zone_per_gb: 0.01,
        }
    }
}

impl TransferPricing {
    /// Dollars for moving `bytes` as `kind`.
    pub fn cost(&self, kind: TransferKind, bytes: u64) -> f64 {
        let gb = bytes as f64 / 1.0e9;
        match kind {
            TransferKind::IngressFromInternet => gb * self.ingress_per_gb,
            TransferKind::EgressToInternet | TransferKind::InterRegion => gb * self.egress_per_gb,
            TransferKind::IntraZone => 0.0,
            TransferKind::InterZone => gb * self.inter_zone_per_gb,
        }
    }

    /// Classify a move between two placements.
    pub fn kind_between(a: AvailabilityZone, b: AvailabilityZone) -> TransferKind {
        if a == b {
            TransferKind::IntraZone
        } else if a.region == b.region {
            TransferKind::InterZone
        } else {
            TransferKind::InterRegion
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Region;

    #[test]
    fn rates_applied_per_gb() {
        let p = TransferPricing::default();
        assert!((p.cost(TransferKind::IngressFromInternet, 10_000_000_000) - 1.0).abs() < 1e-9);
        assert!((p.cost(TransferKind::EgressToInternet, 10_000_000_000) - 1.7).abs() < 1e-9);
        assert_eq!(p.cost(TransferKind::IntraZone, u64::MAX), 0.0);
    }

    #[test]
    fn zone_classification() {
        let a = AvailabilityZone {
            region: Region::UsEast,
            index: 0,
        };
        let b = AvailabilityZone {
            region: Region::UsEast,
            index: 1,
        };
        let c = AvailabilityZone {
            region: Region::EuWest,
            index: 0,
        };
        assert_eq!(TransferPricing::kind_between(a, a), TransferKind::IntraZone);
        assert_eq!(TransferPricing::kind_between(a, b), TransferKind::InterZone);
        assert_eq!(
            TransferPricing::kind_between(a, c),
            TransferKind::InterRegion
        );
    }
}
