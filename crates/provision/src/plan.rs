//! Execution plans: which instance processes which files.

use binpack::Packing;
use corpus::FileSpec;
use perfmodel::Fit;
use serde::{Deserialize, Serialize};

/// One instance's share of the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstancePlan {
    /// Files assigned to this instance, in processing order.
    pub files: Vec<FileSpec>,
    /// Total bytes assigned.
    pub volume: u64,
    /// The model's predicted runtime for this share, seconds.
    pub predicted_secs: f64,
}

/// A full plan: per-instance assignments plus the planning inputs, kept for
/// reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Per-instance shares (one instance per entry).
    pub instances: Vec<InstancePlan>,
    /// The deadline the plan was built against, seconds.
    pub deadline_secs: f64,
    /// The (possibly adjusted) deadline actually used for sizing, seconds.
    pub planning_deadline_secs: f64,
    /// Volume one instance was assumed able to process by the planning
    /// deadline (`f⁻¹`), bytes.
    pub volume_per_instance: u64,
}

impl Plan {
    /// Assemble a plan from per-instance file lists.
    pub fn from_bins(
        bins: Vec<Vec<FileSpec>>,
        fit: &Fit,
        deadline_secs: f64,
        planning_deadline_secs: f64,
        volume_per_instance: u64,
    ) -> Self {
        let instances = bins
            .into_iter()
            .filter(|files| !files.is_empty())
            .map(|files| {
                let volume: u64 = files.iter().map(|f| f.size).sum();
                InstancePlan {
                    predicted_secs: fit.predict(volume as f64),
                    volume,
                    files,
                }
            })
            .collect();
        Plan {
            instances,
            deadline_secs,
            planning_deadline_secs,
            volume_per_instance,
        }
    }

    /// Assemble a plan that gives each bin of `packing`, a packing of
    /// `files`, to one instance.
    pub fn from_packing(
        files: &[FileSpec],
        packing: &Packing,
        fit: &Fit,
        deadline_secs: f64,
        planning_deadline_secs: f64,
        volume_per_instance: u64,
    ) -> Self {
        let bins = packing
            .bins()
            .map(|b| b.items(files).copied().collect())
            .collect();
        Plan::from_bins(
            bins,
            fit,
            deadline_secs,
            planning_deadline_secs,
            volume_per_instance,
        )
    }

    /// Number of instances the plan provisions.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Total bytes across all instances.
    pub fn total_volume(&self) -> u64 {
        self.instances.iter().map(|i| i.volume).sum()
    }

    /// The largest predicted per-instance runtime — the plan's predicted
    /// makespan (boot excluded, as in the paper's figures).
    pub fn predicted_makespan(&self) -> f64 {
        self.instances
            .iter()
            .map(|i| i.predicted_secs)
            .fold(0.0, f64::max)
    }

    /// True when the model predicts every instance meets the *user*
    /// deadline.
    pub fn predicted_feasible(&self) -> bool {
        self.predicted_makespan() <= self.deadline_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::{fit, ModelKind};

    fn linear_fit() -> Fit {
        // y = 1e-6 x (seconds per byte).
        let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 1.0e6).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0e-6 * x).collect();
        fit(ModelKind::Linear, &xs, &ys)
    }

    fn files(sizes: &[u64]) -> Vec<FileSpec> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| FileSpec::new(i as u64, s))
            .collect()
    }

    #[test]
    fn plan_aggregates_bins() {
        let f = linear_fit();
        let bins = vec![files(&[1_000_000, 2_000_000]), files(&[3_000_000])];
        let plan = Plan::from_bins(bins, &f, 10.0, 10.0, 3_000_000);
        assert_eq!(plan.instance_count(), 2);
        assert_eq!(plan.total_volume(), 6_000_000);
        assert!((plan.predicted_makespan() - 3.0).abs() < 1e-9);
        assert!(plan.predicted_feasible());
    }

    #[test]
    fn infeasible_plan_detected() {
        let f = linear_fit();
        let bins = vec![files(&[20_000_000])];
        let plan = Plan::from_bins(bins, &f, 10.0, 10.0, 10_000_000);
        assert!(!plan.predicted_feasible());
    }

    #[test]
    fn empty_bins_dropped() {
        let f = linear_fit();
        let bins = vec![files(&[1_000_000]), vec![], files(&[1_000_000])];
        let plan = Plan::from_bins(bins, &f, 10.0, 10.0, 1_000_000);
        assert_eq!(plan.instance_count(), 2);
    }
}
