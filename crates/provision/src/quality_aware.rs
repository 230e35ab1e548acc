//! Quality-aware provisioning — the paper's §7 future-work item,
//! implemented: "we may decide to invest in lightweight tests to establish
//! the quality of the instances and then use different predictors for each
//! instance quality level to decide how much data to send to meet the
//! deadline."
//!
//! Instead of planning the data split up front (which assumes a uniform
//! fleet), this executor acquires instances one at a time, measures each
//! with a lightweight bonnie probe, scales the performance model by the
//! measured bandwidth, and carves off exactly the volume *that instance*
//! can finish by the deadline.

use crate::executor::{
    acquire_instance, ExecutionConfig, ExecutionReport, InstanceRun, StagingTier,
};
use crate::pricing::instance_hours;
use crate::strategy::invert_at;
use ec2sim::{run_disk_probe_at, Cloud, CloudError, DataLocation};
use perfmodel::Fit;
use serde::{Deserialize, Serialize};
use textapps::AppCostModel;

/// Configuration for the quality-aware executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityAwareConfig {
    /// Bandwidth (MB/s) the base performance model was calibrated on —
    /// the probe instance's measured speed.
    pub reference_mbps: f64,
    /// How strongly measured bandwidth scales the model's marginal cost:
    /// 1.0 for I/O-bound apps (grep), ~0 for CPU-bound apps whose
    /// bandwidth is uncorrelated with speed. (The §7 "lightweight test"
    /// is a disk probe, so it predicts I/O-bound behaviour best.)
    pub io_sensitivity: f64,
    /// Refuse to send work to instances measured below this speed
    /// (terminate and replace instead), MB/s.
    pub min_usable_mbps: f64,
    /// Candidate cap per share, to bound churn on hostile fleets.
    pub max_candidates: usize,
    /// Bytes read by the lightweight disk probe (small: the probe must
    /// not eat the deadline it protects).
    pub probe_bytes: f64,
    /// Plan each share against this fraction of the instance's remaining
    /// budget, leaving headroom for measurement noise.
    pub safety: f64,
}

impl Default for QualityAwareConfig {
    fn default() -> Self {
        QualityAwareConfig {
            reference_mbps: 75.0,
            io_sensitivity: 1.0,
            min_usable_mbps: 25.0,
            max_candidates: 48,
            probe_bytes: 200.0e6,
            safety: 0.85,
        }
    }
}

/// Outcome of a quality-aware execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityAwareReport {
    /// Fleet-level summary.
    pub execution: ExecutionReport,
    /// Measured bandwidth per used instance, MB/s.
    pub measured_mbps: Vec<f64>,
    /// Instances rejected by the lightweight test.
    pub rejected: usize,
}

/// Execute `files` before `deadline_secs`: per-instance volumes are sized
/// by the *measured* quality of each acquired instance.
pub fn execute_quality_aware(
    cloud: &mut Cloud,
    files: &[corpus::FileSpec],
    fit: &Fit,
    deadline_secs: f64,
    model: &dyn AppCostModel,
    cfg: &ExecutionConfig,
    qcfg: &QualityAwareConfig,
) -> Result<QualityAwareReport, CloudError> {
    let attach = cloud.config().attach_overhead_s;
    let mut remaining: &[corpus::FileSpec] = files;
    let mut runs = Vec::new();
    let mut measured_mbps = Vec::new();
    let mut rejected = 0usize;
    let mut candidates = 0usize;
    let mut hours = 0u64;

    while !remaining.is_empty() {
        if candidates >= qcfg.max_candidates {
            break; // hostile fleet; report what was scheduled
        }
        candidates += 1;
        let (inst, boot) = acquire_instance(cloud, cfg)?;
        let (mbps, probe_done) = run_disk_probe_at(cloud, inst, boot, qcfg.probe_bytes)?;

        // Scale the model: marginal cost grows as bandwidth falls.
        let speed = (mbps / qcfg.reference_mbps).powf(qcfg.io_sensitivity);
        let budget_secs = (deadline_secs - (probe_done - boot) - attach) * qcfg.safety;
        // Volume this instance finishes by its remaining budget: invert
        // the base model at the speed-scaled deadline.
        let volume = if mbps < qcfg.min_usable_mbps || budget_secs <= 0.0 {
            None
        } else {
            invert_at(fit, budget_secs * speed).ok()
        };
        let Some(volume) = volume else {
            // A rejected candidate is billed from boot to the end of its
            // probe.
            cloud.terminate_at(inst, probe_done)?;
            hours += instance_hours(probe_done - boot);
            rejected += 1;
            continue;
        };
        let volume = volume as u64;

        // Carve that many bytes off the front of the remaining work.
        let mut take = 0usize;
        let mut bytes = 0u64;
        while take < remaining.len() && bytes < volume {
            bytes += remaining[take].size;
            take += 1;
        }
        let (share, rest) = remaining.split_at(take);
        remaining = rest;

        let (data, setup) = match cfg.staging {
            StagingTier::Ebs => {
                let vol = cloud.create_volume(cfg.zone, bytes.max(1));
                cloud.attach_volume_at(vol, inst, probe_done)?;
                (
                    DataLocation::Ebs {
                        volume: vol,
                        offset: 0,
                    },
                    attach,
                )
            }
            StagingTier::Local => (DataLocation::Local, cfg.stage_in_secs),
        };
        let report = cloud.submit_job(inst, model, share, data, probe_done + setup)?;
        cloud.terminate_at(inst, report.finished_at)?;
        let job_secs = (probe_done - boot) + setup + report.observed_secs;
        hours += instance_hours(job_secs);
        measured_mbps.push(mbps);
        runs.push(InstanceRun {
            instance: inst,
            volume: bytes,
            files: share.len(),
            predicted_secs: fit.predict(bytes as f64) / speed,
            job_secs,
            met_deadline: job_secs <= deadline_secs,
        });
    }

    Ok(QualityAwareReport {
        execution: ExecutionReport::summarize(runs, deadline_secs, 0, hours, cfg),
        measured_mbps,
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{make_plan, Strategy};
    use corpus::FileSpec;
    use ec2sim::CloudConfig;
    use perfmodel::{fit as fit_model, ModelKind};
    use textapps::GrepCostModel;

    fn grep_fit() -> Fit {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x / 75.0e6).collect();
        fit_model(ModelKind::Affine, &xs, &ys)
    }

    fn corpus_files(n: u64, size: u64) -> Vec<FileSpec> {
        (0..n).map(|i| FileSpec::new(i, size)).collect()
    }

    fn hostile(seed: u64) -> CloudConfig {
        CloudConfig {
            seed,
            slow_fraction: 0.35,
            inconsistent_fraction: 0.0,
            startup_mean_s: 5.0,
            startup_jitter_s: 0.0,
            slow_segment_fraction: 0.0,
            ..CloudConfig::default()
        }
    }

    #[test]
    fn covers_all_work() {
        let mut cloud = Cloud::new(hostile(1));
        let files = corpus_files(60, 100_000_000);
        let report = execute_quality_aware(
            &mut cloud,
            &files,
            &grep_fit(),
            60.0,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
            &QualityAwareConfig::default(),
        )
        .unwrap();
        let total: u64 = report.execution.runs.iter().map(|r| r.volume).sum();
        assert_eq!(total, 6_000_000_000);
    }

    #[test]
    fn rejects_very_slow_instances() {
        let mut cloud = Cloud::new(CloudConfig {
            slow_fraction: 1.0,
            ..hostile(2)
        });
        let files = corpus_files(10, 100_000_000);
        let report = execute_quality_aware(
            &mut cloud,
            &files,
            &grep_fit(),
            60.0,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
            &QualityAwareConfig {
                min_usable_mbps: 56.0, // all slow instances are below this
                ..QualityAwareConfig::default()
            },
        )
        .unwrap();
        assert!(report.rejected > 0);
    }

    #[test]
    fn sends_less_data_to_slower_instances() {
        let mut cloud = Cloud::new(hostile(3));
        let files = corpus_files(200, 100_000_000); // 20 GB forces many instances
        let report = execute_quality_aware(
            &mut cloud,
            &files,
            &grep_fit(),
            45.0,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
            &QualityAwareConfig::default(),
        )
        .unwrap();
        // Correlation between measured bandwidth and assigned volume must
        // be positive (exclude the final remainder share).
        let n = report.execution.runs.len() - 1;
        assert!(n >= 3, "want several full shares, got {n}");
        let vols: Vec<f64> = report.execution.runs[..n]
            .iter()
            .map(|r| r.volume as f64)
            .collect();
        let mbps = &report.measured_mbps[..n];
        let mv = vols.iter().sum::<f64>() / n as f64;
        let mm = mbps.iter().sum::<f64>() / n as f64;
        let cov: f64 = vols
            .iter()
            .zip(mbps)
            .map(|(v, m)| (v - mv) * (m - mm))
            .sum();
        assert!(cov > 0.0, "volume not correlated with measured speed");
    }

    #[test]
    fn fewer_misses_than_naive_plan_on_hostile_fleet() {
        let files = corpus_files(120, 100_000_000); // 12 GB
        let deadline = 40.0;
        let f = grep_fit();
        let mut naive_misses = 0;
        let mut aware_misses = 0;
        for seed in 0..8 {
            let plan = make_plan(Strategy::UniformBins, &files, &f, deadline).unwrap();
            let mut cloud = Cloud::new(hostile(100 + seed));
            naive_misses += crate::executor::execute_plan(
                &mut cloud,
                &plan,
                &GrepCostModel::default(),
                &ExecutionConfig::default(),
            )
            .unwrap()
            .misses;
            let mut cloud = Cloud::new(hostile(100 + seed));
            aware_misses += execute_quality_aware(
                &mut cloud,
                &files,
                &f,
                deadline,
                &GrepCostModel::default(),
                &ExecutionConfig::default(),
                &QualityAwareConfig::default(),
            )
            .unwrap()
            .execution
            .misses;
        }
        assert!(
            aware_misses < naive_misses,
            "quality-aware {aware_misses} !< naive {naive_misses}"
        );
    }
}
