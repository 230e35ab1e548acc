//! bonnie++-style instance screening.
//!
//! The paper's §4 procedure: "we first request a small instance and measure
//! its performance using bonnie++ to ensure that it is of high quality
//! (over 60 MB/s block read/write performance). We repeat this performance
//! measurement to confirm that the instance is stable. We repeat this
//! procedure until we acquire an instance that performs well."

use crate::cloud::Cloud;
use crate::error::CloudError;
use crate::instance::InstanceId;
use crate::types::{AvailabilityZone, InstanceType};
use serde::{Deserialize, Serialize};

/// One bonnie measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BonnieReport {
    /// Measured block read bandwidth, MB/s.
    pub block_read_mbps: f64,
    /// Measured block write bandwidth, MB/s.
    pub block_write_mbps: f64,
    /// Wall-clock seconds the benchmark took.
    pub duration_s: f64,
}

/// Minimum acceptable block bandwidth, MB/s (the paper uses 60).
const MIN_MBPS: f64 = 60.0;

/// Maximum coefficient of variation across repeats.
const MAX_CV: f64 = 0.08;

/// Number of repeated measurements.
const REPEATS: usize = 2;

/// Acceptance policy for screening.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScreeningPolicy {
    /// Give up after this many candidate instances.
    pub max_attempts: usize,
}

/// The §4 verdict over the `REPEATS` block-read measurements, MB/s:
/// every read above `MIN_MBPS` and their coefficient of variation within
/// `MAX_CV`.
fn accepts(reads: &[f64]) -> bool {
    let mean = reads.iter().sum::<f64>() / reads.len() as f64;
    let var = reads.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (reads.len() - 1) as f64;
    let cv = var.sqrt() / mean;
    let min = reads.iter().cloned().fold(f64::INFINITY, f64::min);
    min > MIN_MBPS && cv <= MAX_CV
}

impl Default for ScreeningPolicy {
    fn default() -> Self {
        ScreeningPolicy { max_attempts: 16 }
    }
}

/// Run a bonnie++-style measurement: a ~1 GB block read/write against the
/// local store, observed through the usual noise model. Advances the clock.
pub fn run_bonnie(cloud: &mut Cloud, inst: InstanceId) -> Result<BonnieReport, CloudError> {
    let (report, _) = run_bonnie_at(cloud, inst, cloud.now())?;
    cloud.advance(report.duration_s);
    Ok(report)
}

/// bonnie on the **instance's own timeline** (for fleet screening during
/// parallel execution): measures at time `at` without touching the global
/// clock; returns the report and the time the measurement finishes.
pub fn run_bonnie_at(
    cloud: &mut Cloud,
    inst: InstanceId,
    at: f64,
) -> Result<(BonnieReport, f64), CloudError> {
    const PROBE_BYTES: f64 = 1.0e9;
    let q = cloud.quality(inst)?;
    let noise = cloud.config().noise;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
        at.to_bits() ^ inst.0.wrapping_mul(0xA24B_AED4_963E_E407),
    );
    let read_secs = noise.observe(&mut rng, PROBE_BYTES / q.io_bps, q.jitter_rel);
    let write_secs = noise.observe(&mut rng, PROBE_BYTES / (q.io_bps * 0.9), q.jitter_rel);
    Ok((
        BonnieReport {
            block_read_mbps: PROBE_BYTES / read_secs / 1.0e6,
            block_write_mbps: PROBE_BYTES / write_secs / 1.0e6,
            duration_s: read_secs + write_secs,
        },
        at + read_secs + write_secs,
    ))
}

/// A lightweight read-only disk probe on the instance's own timeline
/// (the §7 "lightweight tests": much cheaper than full bonnie). Returns
/// `(measured MB/s, end time)`.
pub fn run_disk_probe_at(
    cloud: &mut Cloud,
    inst: InstanceId,
    at: f64,
    probe_bytes: f64,
) -> Result<(f64, f64), CloudError> {
    let q = cloud.quality(inst)?;
    let noise = cloud.config().noise;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
        at.to_bits() ^ inst.0.wrapping_mul(0x517C_C1B7_2722_0A95),
    );
    let secs = noise.observe(&mut rng, probe_bytes / q.io_bps, q.jitter_rel);
    Ok((probe_bytes / secs / 1.0e6, at + secs))
}

/// Screen an instance for fleet duty on its own timeline: `REPEATS`
/// bonnie measurements starting when the instance boots. Returns
/// `(passed, ready_time)`. One instance spends none of the policy's
/// attempt budget, so the verdict does not read it.
pub fn screen_at(
    cloud: &mut Cloud,
    inst: InstanceId,
    _policy: &ScreeningPolicy,
) -> Result<(bool, f64), CloudError> {
    let mut t = cloud.running_at(inst)?;
    let mut reads = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let (report, end) = run_bonnie_at(cloud, inst, t)?;
        reads.push(report.block_read_mbps);
        t = end;
    }
    Ok((accepts(&reads), t))
}

/// Acquire an instance that passes `policy`: launch, measure `REPEATS`
/// times, keep if fast and stable, otherwise terminate and retry. Returns
/// the accepted instance and how many candidates were burned, or
/// [`CloudError::ScreeningExhausted`] when all `max_attempts` fail.
pub fn acquire_good_instance(
    cloud: &mut Cloud,
    itype: InstanceType,
    zone: AvailabilityZone,
    policy: &ScreeningPolicy,
) -> Result<(InstanceId, usize), CloudError> {
    for attempt in 1..=policy.max_attempts {
        let id = cloud.launch(itype, zone)?;
        cloud.wait_until_running(id)?;
        let reads: Vec<f64> = (0..REPEATS)
            .map(|_| run_bonnie(cloud, id).map(|r| r.block_read_mbps))
            .collect::<Result<_, _>>()?;
        if accepts(&reads) {
            return Ok((id, attempt));
        }
        cloud.terminate(id)?;
    }
    Err(CloudError::ScreeningExhausted {
        attempts: policy.max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudConfig;

    fn zone() -> AvailabilityZone {
        AvailabilityZone::us_east_1a()
    }

    #[test]
    fn bonnie_reflects_instance_quality() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let id = cloud.launch(InstanceType::Small, zone()).unwrap();
        cloud.wait_until_running(id).unwrap();
        let q = cloud.quality(id).unwrap();
        let r = run_bonnie(&mut cloud, id).unwrap();
        let expected = q.io_bps / 1.0e6;
        assert!(
            (r.block_read_mbps - expected).abs() / expected < 0.05,
            "measured {} expected {expected}",
            r.block_read_mbps
        );
    }

    #[test]
    fn screening_returns_a_good_instance() {
        let mut cloud = Cloud::new(CloudConfig {
            seed: 3,
            slow_fraction: 0.5, // hostile fleet to force retries sometimes
            ..CloudConfig::default()
        });
        let (id, attempts) =
            acquire_good_instance(&mut cloud, InstanceType::Small, zone(), &Default::default())
                .unwrap();
        let q = cloud.quality(id).unwrap();
        assert!(q.io_bps > 55.0e6, "accepted a slow instance: {q:?}");
        assert!(attempts >= 1);
    }

    #[test]
    fn screening_burns_rejected_instances() {
        // With an all-slow fleet, screening must keep terminating and
        // eventually give up.
        let mut cloud = Cloud::new(CloudConfig {
            seed: 4,
            slow_fraction: 1.0,
            inconsistent_fraction: 0.0,
            ..CloudConfig::default()
        });
        let policy = ScreeningPolicy { max_attempts: 3 };
        let err = acquire_good_instance(&mut cloud, InstanceType::Small, zone(), &policy);
        assert!(err.is_err());
    }

    #[test]
    fn screening_advances_clock() {
        let mut cloud = Cloud::new(CloudConfig::default());
        let before = cloud.now();
        let _ = acquire_good_instance(&mut cloud, InstanceType::Small, zone(), &Default::default())
            .unwrap();
        assert!(cloud.now() > before + 100.0); // boot + two bonnie runs
    }
}
