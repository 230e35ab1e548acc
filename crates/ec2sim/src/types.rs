//! Regions, availability zones and instance types.

use serde::{Deserialize, Serialize};

/// The three EC2 regions of 2010 (§1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// US East (N. Virginia) — four availability zones.
    UsEast,
    /// US West.
    UsWest,
    /// EU West (Ireland).
    EuWest,
}

impl Region {
    /// Number of availability zones in the region (US-east had four).
    pub fn zone_count(self) -> u8 {
        match self {
            Region::UsEast => 4,
            Region::UsWest => 2,
            Region::EuWest => 2,
        }
    }

    /// All availability zones of the region.
    pub fn zones(self) -> Vec<AvailabilityZone> {
        (0..self.zone_count())
            .map(|index| AvailabilityZone {
                region: self,
                index,
            })
            .collect()
    }
}

/// An availability zone: insulated from other zones' failures; EBS volumes
/// attach only within their zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AvailabilityZone {
    /// Owning region.
    pub region: Region,
    /// Zone index within the region (0 = "a").
    pub index: u8,
}

impl AvailabilityZone {
    /// The default zone used throughout the paper's experiments.
    pub fn us_east_1a() -> Self {
        AvailabilityZone {
            region: Region::UsEast,
            index: 0,
        }
    }
}

/// EC2 instance types with their 2010-era characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstanceType {
    /// 32-bit, 1.7 GB memory, 1 ECU, 160 GB local storage, $0.085/h —
    /// the paper's workhorse.
    Small,
    /// 64-bit, 7.5 GB memory, 4 ECU.
    Large,
    /// 64-bit, 15 GB memory, 8 ECU.
    ExtraLarge,
}

impl InstanceType {
    /// On-demand price per started hour in dollars (§5 uses $0.085 for
    /// small instances).
    pub fn hourly_rate(self) -> f64 {
        match self {
            InstanceType::Small => 0.085,
            InstanceType::Large => 0.34,
            InstanceType::ExtraLarge => 0.68,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_east_has_four_zones() {
        let zones = Region::UsEast.zones();
        assert_eq!(zones.len(), 4);
        assert_eq!(zones[0], AvailabilityZone::us_east_1a());
    }

    #[test]
    fn small_instance_matches_paper_config() {
        let t = InstanceType::Small;
        assert!((t.hourly_rate() - 0.085).abs() < 1e-12);
    }

    #[test]
    fn larger_types_scale_up() {
        assert!(InstanceType::ExtraLarge.hourly_rate() > InstanceType::Large.hourly_rate());
    }
}
