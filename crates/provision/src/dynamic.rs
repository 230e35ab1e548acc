//! Dynamic rescheduling — the paper's §7 future-work extension,
//! implemented: "monitor application performance during execution ... if
//! we find that the application performance is not satisfactory ... we can
//! decide to terminate poor instances right away ... and reassign the
//! remaining work to new or existing instances. Relying on the persistent
//! nature of EBS storage volumes ... replacing poorly performing instances
//! can be done easily without explicit data transfers."

use crate::executor::{acquire_instance, ExecutionConfig, ExecutionReport, InstanceRun};
use crate::plan::Plan;
use crate::pricing::instance_hours;
use ec2sim::{Cloud, CloudError, DataLocation};
use perfmodel::Fit;
use serde::{Deserialize, Serialize};
use textapps::AppCostModel;

/// Monitoring parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Split each instance's share into this many monitored batches.
    pub batches: usize,
    /// Replace an instance when its observed batch time exceeds
    /// `slowdown_threshold ×` the model's prediction.
    pub slowdown_threshold: f64,
    /// Give up replacing after this many replacements per share (avoids
    /// churning through an all-slow fleet).
    pub max_replacements: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            batches: 4,
            slowdown_threshold: 1.5,
            max_replacements: 2,
        }
    }
}

impl DynamicConfig {
    /// Check the monitor parameters make sense: a share must split into at
    /// least one batch (zero would divide the share into nothing and stall
    /// the run), and the slowdown threshold must be a positive multiplier
    /// (zero or negative would replace every instance on every batch, NaN
    /// would never replace any).
    pub fn validate(&self) -> Result<(), DynamicError> {
        if self.batches < 1 || self.slowdown_threshold.is_nan() || self.slowdown_threshold <= 0.0 {
            return Err(DynamicError::InvalidConfig {
                batches: self.batches,
                slowdown_threshold: self.slowdown_threshold,
            });
        }
        Ok(())
    }
}

/// Why a dynamic execution could not run (or died mid-run).
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicError {
    /// The monitor parameters were rejected by [`DynamicConfig::validate`].
    InvalidConfig {
        /// The offending batch count.
        batches: usize,
        /// The offending threshold.
        slowdown_threshold: f64,
    },
    /// The simulated cloud failed underneath the monitor.
    Cloud(CloudError),
}

impl From<CloudError> for DynamicError {
    fn from(e: CloudError) -> Self {
        DynamicError::Cloud(e)
    }
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::InvalidConfig {
                batches,
                slowdown_threshold,
            } => write!(
                f,
                "invalid DynamicConfig: batches = {batches} (need >= 1), \
                 slowdown_threshold = {slowdown_threshold} (need > 0)"
            ),
            DynamicError::Cloud(e) => write!(f, "cloud error during dynamic execution: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

/// Outcome of a dynamic execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicReport {
    /// The fleet-level summary (same shape as static execution).
    pub execution: ExecutionReport,
    /// Total instance replacements performed.
    pub replacements: usize,
}

/// Execute the plan with per-batch monitoring and EBS-reattach failover.
///
/// The incremental prediction for a batch is `fit.predict(done + batch) −
/// fit.predict(done)`, which cancels the model's fixed costs.
pub fn execute_dynamic(
    cloud: &mut Cloud,
    plan: &Plan,
    model: &dyn AppCostModel,
    fit: &Fit,
    cfg: &ExecutionConfig,
    dyn_cfg: &DynamicConfig,
) -> Result<DynamicReport, DynamicError> {
    dyn_cfg.validate()?;
    let attach = cloud.config().attach_overhead_s;
    let mut runs = Vec::with_capacity(plan.instance_count());
    let mut replacements_total = 0usize;
    // Every instance a share uses is billed over its own span, from ready
    // to termination, retired laggards included.
    let mut hours = 0u64;

    for share in &plan.instances {
        // Stage the whole share on one persistent volume.
        let vol = cloud.create_volume(cfg.zone, share.volume.max(1));
        let (mut inst, ready) = acquire_instance(cloud, cfg)?;
        let mut inst_ready = ready;
        let mut t = ready + attach;
        cloud.attach_volume_at(vol, inst, ready)?;
        let t_job_start = t;
        let mut replacements = 0usize;
        let mut done_bytes = 0u64;

        // Round batches: split the file list into `batches` contiguous
        // slices of near-equal byte volume.
        let batches = split_batches(&share.files, dyn_cfg.batches);
        for batch in &batches {
            let batch_bytes: u64 = batch.iter().map(|f| f.size).sum();
            let predicted = (fit.predict((done_bytes + batch_bytes) as f64)
                - fit.predict(done_bytes as f64))
            .max(1e-6);
            let report = cloud.submit_job(
                inst,
                model,
                batch,
                DataLocation::Ebs {
                    volume: vol,
                    offset: done_bytes,
                },
                t,
            )?;
            t = report.finished_at;
            done_bytes += batch_bytes;
            let slow = report.observed_secs > dyn_cfg.slowdown_threshold * predicted;
            let more_work = done_bytes < share.volume;
            if slow && more_work && replacements < dyn_cfg.max_replacements {
                // Terminate the laggard, bring up a replacement, reattach
                // the volume — no data transfer (the EBS persistence
                // argument of §7).
                cloud.terminate_at(inst, t)?;
                hours += instance_hours(t - inst_ready);
                let (next, boot) = acquire_instance(cloud, cfg)?;
                inst = next;
                inst_ready = boot;
                t = t.max(boot) + attach;
                cloud.attach_volume_at(vol, inst, t - attach)?;
                replacements += 1;
                replacements_total += 1;
            }
        }
        cloud.terminate_at(inst, t)?;
        hours += instance_hours(t - inst_ready);
        let job_secs = t - t_job_start + attach;
        runs.push(InstanceRun {
            instance: inst,
            volume: share.volume,
            files: share.files.len(),
            predicted_secs: share.predicted_secs,
            job_secs,
            met_deadline: job_secs <= plan.deadline_secs,
        });
    }

    Ok(DynamicReport {
        execution: ExecutionReport::summarize(runs, plan.deadline_secs, 0, hours, cfg),
        replacements: replacements_total,
    })
}

/// Split files into `n` contiguous groups of near-equal byte volume.
fn split_batches(files: &[corpus::FileSpec], n: usize) -> Vec<Vec<corpus::FileSpec>> {
    let total: u64 = files.iter().map(|f| f.size).sum();
    let target = total.div_ceil(n as u64).max(1);
    let mut out: Vec<Vec<corpus::FileSpec>> = Vec::with_capacity(n);
    let mut current = Vec::new();
    let mut acc = 0u64;
    for &f in files {
        current.push(f);
        acc += f.size;
        if acc >= target && out.len() + 1 < n {
            out.push(std::mem::take(&mut current));
            acc = 0;
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{make_plan, Strategy};
    use corpus::FileSpec;
    use ec2sim::CloudConfig;
    use perfmodel::{fit, ModelKind};
    use textapps::GrepCostModel;

    fn grep_fit() -> Fit {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x / 75.0e6).collect();
        fit(ModelKind::Affine, &xs, &ys)
    }

    fn corpus_files(n: u64, size: u64) -> Vec<FileSpec> {
        (0..n).map(|i| FileSpec::new(i, size)).collect()
    }

    #[test]
    fn split_batches_covers_everything() {
        let files = corpus_files(10, 7);
        let batches = split_batches(&files, 3);
        assert_eq!(batches.len(), 3);
        let total: u64 = batches.iter().flatten().map(|f| f.size).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn split_batches_more_groups_than_files() {
        let files = corpus_files(2, 5);
        let batches = split_batches(&files, 5);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 2);
    }

    /// Regression: `batches: 0` used to hit `assert!` (and, before that,
    /// `split_batches` would divide by zero) — it must now come back as a
    /// typed validation error without touching the cloud.
    #[test]
    fn zero_batches_is_rejected_not_a_panic() {
        let mut cloud = Cloud::new(CloudConfig::ideal(7));
        let m = grep_fit();
        let files = corpus_files(4, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 30.0).unwrap();
        let bad = DynamicConfig {
            batches: 0,
            ..DynamicConfig::default()
        };
        let err = execute_dynamic(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &m,
            &ExecutionConfig::default(),
            &bad,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DynamicError::InvalidConfig { batches: 0, .. }
        ));
        assert_eq!(cloud.now(), 0.0, "validation must run before any launch");
    }

    /// Regression: a non-positive (or NaN) slowdown threshold silently
    /// produced nonsense monitoring decisions; it is now rejected.
    #[test]
    fn non_positive_threshold_is_rejected() {
        for bad_threshold in [0.0, -1.5, f64::NAN] {
            let cfg = DynamicConfig {
                slowdown_threshold: bad_threshold,
                ..DynamicConfig::default()
            };
            assert!(
                matches!(cfg.validate(), Err(DynamicError::InvalidConfig { .. })),
                "threshold {bad_threshold} must fail validation"
            );
        }
        assert!(DynamicConfig::default().validate().is_ok());
    }

    #[test]
    fn ideal_cloud_never_replaces() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let m = grep_fit();
        let files = corpus_files(40, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 25.0).unwrap();
        let report = execute_dynamic(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &m,
            &ExecutionConfig::default(),
            &DynamicConfig::default(),
        )
        .unwrap();
        assert_eq!(report.replacements, 0);
        assert!(report.execution.met_deadline());
    }

    #[test]
    fn slow_fleet_triggers_replacements() {
        let mut cloud = Cloud::new(CloudConfig {
            seed: 11,
            slow_fraction: 0.95,
            inconsistent_fraction: 0.0,
            startup_mean_s: 10.0,
            startup_jitter_s: 0.0,
            ..CloudConfig::default()
        });
        let m = grep_fit();
        let files = corpus_files(60, 100_000_000); // 6 GB
        let plan = make_plan(Strategy::UniformBins, &files, &m, 40.0).unwrap();
        let report = execute_dynamic(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &m,
            &ExecutionConfig::default(),
            &DynamicConfig::default(),
        )
        .unwrap();
        assert!(report.replacements > 0, "no replacements happened");
    }

    #[test]
    fn dynamic_beats_static_on_hostile_fleet_on_average() {
        // Replacing laggards mid-run should lower the mean makespan over
        // many fleets, despite replacement boots — any single seed can go
        // either way (a replacement can be slow again), so average over
        // seeds.
        let m = grep_fit();
        let files = corpus_files(60, 100_000_000); // 6 GB
        let plan = make_plan(Strategy::UniformBins, &files, &m, 40.0).unwrap();
        let mut static_total = 0.0;
        let mut dynamic_total = 0.0;
        for seed in 0..12 {
            let config = CloudConfig {
                seed,
                slow_fraction: 0.45,
                inconsistent_fraction: 0.0,
                startup_mean_s: 5.0,
                startup_jitter_s: 0.0,
                // Clean volumes: placement spikes would masquerade as slow
                // instances and trigger useless replacements — churn the
                // monitor must tolerate in practice but which would blur
                // this comparison.
                slow_segment_fraction: 0.0,
                ..CloudConfig::default()
            };
            let mut cloud = Cloud::new(config);
            static_total += crate::executor::execute_plan(
                &mut cloud,
                &plan,
                &GrepCostModel::default(),
                &ExecutionConfig::default(),
            )
            .unwrap()
            .makespan_secs;
            let mut cloud = Cloud::new(config);
            dynamic_total += execute_dynamic(
                &mut cloud,
                &plan,
                &GrepCostModel::default(),
                &m,
                &ExecutionConfig::default(),
                &DynamicConfig {
                    batches: 6,
                    slowdown_threshold: 1.3,
                    max_replacements: 4,
                },
            )
            .unwrap()
            .execution
            .makespan_secs;
        }
        assert!(
            dynamic_total < static_total,
            "dynamic mean {} vs static mean {}",
            dynamic_total / 12.0,
            static_total / 12.0
        );
    }
}
