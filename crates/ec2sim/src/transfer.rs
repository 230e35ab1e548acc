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

/// Internet ingress per GB, dollars.
const INGRESS_PER_GB: f64 = 0.10;

/// Internet egress per GB (first tier), dollars.
const EGRESS_PER_GB: f64 = 0.17;

/// Cross-zone per GB, dollars.
const INTER_ZONE_PER_GB: f64 = 0.01;

/// The 2010 per-GB transfer rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferPricing {}

impl TransferPricing {
    /// Dollars for moving `bytes` as `kind`.
    pub fn cost(&self, kind: TransferKind, bytes: u64) -> f64 {
        let gb = bytes as f64 / 1.0e9;
        match kind {
            TransferKind::IngressFromInternet => gb * INGRESS_PER_GB,
            TransferKind::EgressToInternet | TransferKind::InterRegion => gb * EGRESS_PER_GB,
            TransferKind::IntraZone => 0.0,
            TransferKind::InterZone => gb * INTER_ZONE_PER_GB,
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
