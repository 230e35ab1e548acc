//! Instances: identity, lifecycle state and per-instance quality.

use crate::types::{AvailabilityZone, InstanceType};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Opaque instance identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u64);

/// Lifecycle states (§1.1: only `Running` time is billed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceState {
    /// Requested, still booting — free.
    Pending,
    /// Up and billable.
    Running,
    /// Shutting down — free.
    ShuttingDown,
    /// Gone — free.
    TerminatedState,
}

/// The hidden per-instance quality the virtualization layer does not
/// advertise (§3.1: "our experience shows heterogeneity in instance
/// performance. We observe instances behaving consistently slow or fast").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceQuality {
    /// CPU speed multiplier; good instances ≈ 1.0, consistently slow ones
    /// down to ≈ 0.25 (Dejun et al. report up to 4× CPU variability).
    pub cpu_factor: f64,
    /// Sequential block I/O bandwidth in bytes/second.
    pub io_bps: f64,
    /// Per-run relative jitter; inconsistent instances have large values.
    pub jitter_rel: f64,
}

impl InstanceQuality {
    /// Sample a quality from the fleet mixture: `slow_fraction` are
    /// consistently slow, `inconsistent_fraction` are unstable, the rest
    /// are good (>60 MB/s, cpu ≈ 1).
    pub fn sample(
        rng: &mut impl Rng,
        slow_fraction: f64,
        inconsistent_fraction: f64,
    ) -> InstanceQuality {
        let u: f64 = rng.random();
        if u < slow_fraction {
            InstanceQuality {
                cpu_factor: rng.random_range(0.25..0.6),
                io_bps: rng.random_range(25.0e6..55.0e6),
                jitter_rel: rng.random_range(0.02..0.05),
            }
        } else if u < slow_fraction + inconsistent_fraction {
            InstanceQuality {
                cpu_factor: rng.random_range(0.6..1.0),
                io_bps: rng.random_range(45.0e6..80.0e6),
                jitter_rel: rng.random_range(0.15..0.4),
            }
        } else {
            InstanceQuality {
                cpu_factor: rng.random_range(0.95..1.05),
                io_bps: rng.random_range(62.0e6..85.0e6),
                jitter_rel: rng.random_range(0.01..0.03),
            }
        }
    }
}

/// One simulated instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Identifier.
    pub id: InstanceId,
    /// Type (small throughout the paper).
    pub itype: InstanceType,
    /// Placement.
    pub zone: AvailabilityZone,
    /// Lifecycle state.
    pub state: InstanceState,
    /// Simulation time of the launch request.
    pub requested_at: f64,
    /// Simulation time the instance entered `Running` (it finishes booting
    /// at this time even if the caller has not observed it yet).
    pub running_at: f64,
    /// Simulation time of termination, if any.
    pub terminated_at: Option<f64>,
    /// Hidden quality.
    pub quality: InstanceQuality,
    /// Dollars per started hour billed for this instance. Defaults to the
    /// type's on-demand list price; family launches and spot acquisitions
    /// override it, and the ledger bills whatever is recorded here.
    pub hourly_rate: f64,
}

impl Instance {
    /// Current state as of simulation time `now` (pending instances come up
    /// on their own once the boot latency elapses).
    pub fn state_at(&self, now: f64) -> InstanceState {
        if self.terminated_at.is_some_and(|t| now >= t) {
            InstanceState::TerminatedState
        } else if now >= self.running_at {
            InstanceState::Running
        } else {
            InstanceState::Pending
        }
    }

    /// Billable running seconds as of `now`.
    pub fn running_seconds(&self, now: f64) -> f64 {
        let end = self.terminated_at.unwrap_or(now).min(now);
        (end - self.running_at).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quality_mixture_fractions() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let qs: Vec<InstanceQuality> = (0..n)
            .map(|_| InstanceQuality::sample(&mut rng, 0.12, 0.08))
            .collect();
        let slow = qs.iter().filter(|q| q.cpu_factor < 0.6).count() as f64 / n as f64;
        assert!((0.08..0.16).contains(&slow), "slow fraction {slow}");
    }

    fn instance(running_at: f64, terminated_at: Option<f64>) -> Instance {
        Instance {
            id: InstanceId(0),
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
    fn state_transitions_by_time() {
        let i = instance(180.0, Some(1_000.0));
        assert_eq!(i.state_at(10.0), InstanceState::Pending);
        assert_eq!(i.state_at(180.0), InstanceState::Running);
        assert_eq!(i.state_at(999.0), InstanceState::Running);
        assert_eq!(i.state_at(1_000.0), InstanceState::TerminatedState);
    }

    #[test]
    fn running_seconds_clamped() {
        let i = instance(180.0, Some(1_000.0));
        assert_eq!(i.running_seconds(100.0), 0.0);
        assert!((i.running_seconds(280.0) - 100.0).abs() < 1e-9);
        assert!((i.running_seconds(5_000.0) - 820.0).abs() < 1e-9);
    }
}
