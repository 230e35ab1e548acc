//! Workflow scheduling with full-hour subdeadlines — the paper's §7:
//! "A direction for our future research is also to devise good execution
//! plans for more complex workflows arising in text processing. We can
//! schedule such workflows while making sure we assign full hour
//! subdeadlines to groups of tasks \[22\]."
//!
//! A workflow is a linear chain of stages (e.g. tokenize → tag → grep the
//! tags); each stage has its own performance model and a volume factor
//! (bytes of output per byte of input). The scheduler divides the user
//! deadline into per-stage subdeadlines aligned to whole hours — under
//! flat hourly pricing, a stage that finishes mid-hour has already paid
//! for the rest of it, so hour-aligned subdeadlines waste nothing — then
//! plans each stage independently.

use crate::plan::Plan;
use crate::pricing::{instance_hours, PricingModel};
use crate::strategy::{make_plan, Strategy};
use corpus::FileSpec;
use perfmodel::Fit;
use serde::{Deserialize, Serialize};

/// One stage of a text-processing workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Display name.
    pub name: String,
    /// Runtime model `seconds = f(input bytes)` for this stage.
    pub fit: Fit,
    /// Output bytes per input byte (tagging inflates text with tags,
    /// grep deflates it to matches).
    pub volume_factor: f64,
}

/// A planned stage: its subdeadline and provisioning plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePlan {
    /// The stage name.
    pub name: String,
    /// Hour-aligned subdeadline for this stage, seconds.
    pub subdeadline_secs: f64,
    /// Input volume of the stage, bytes.
    pub input_volume: u64,
    /// The provisioning plan.
    pub plan: Plan,
}

/// The workflow schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSchedule {
    /// Per-stage plans, in execution order.
    pub stages: Vec<StagePlan>,
    /// Total predicted cost, dollars.
    pub predicted_cost: f64,
    /// Sum of subdeadlines, seconds (≤ the user deadline).
    pub total_deadline_secs: f64,
}

/// Errors from workflow scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// The deadline is shorter than one hour per stage — no hour-aligned
    /// split exists.
    DeadlineTooShort {
        /// Stages in the workflow.
        stages: usize,
        /// Hours available.
        hours: u64,
    },
    /// A stage cannot be planned at its subdeadline: its model has no
    /// inverse there, or the subdeadline is below the model's fixed costs.
    StagePlanFailed {
        /// The stage name.
        stage: String,
        /// The underlying provisioning error.
        source: crate::error::ProvisionError,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::DeadlineTooShort { stages, hours } => write!(
                f,
                "{stages} stages need at least {stages} whole hours; only {hours} available"
            ),
            WorkflowError::StagePlanFailed { stage, source } => {
                write!(f, "stage {stage} plan failed: {source}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Schedule a linear workflow over `input` to finish within
/// `deadline_secs`.
///
/// Subdeadlines: each stage gets whole hours proportional to its
/// single-instance work estimate, with every stage getting at least one
/// hour; leftovers go to the stage with the largest fractional share.
pub fn schedule_workflow(
    stages: &[Stage],
    input: &[FileSpec],
    deadline_secs: f64,
    pricing: &PricingModel,
) -> Result<WorkflowSchedule, WorkflowError> {
    assert!(!stages.is_empty(), "workflow needs at least one stage");
    let hours = (deadline_secs / 3600.0).floor() as u64;
    if hours < stages.len() as u64 {
        return Err(WorkflowError::DeadlineTooShort {
            stages: stages.len(),
            hours,
        });
    }

    // Stage input volumes chain through the volume factors.
    let mut volumes = Vec::with_capacity(stages.len());
    let mut v = input.iter().map(|f| f.size).sum::<u64>();
    for stage in stages {
        volumes.push(v);
        v = (v as f64 * stage.volume_factor).ceil() as u64;
    }

    // Work estimate per stage (single-instance seconds) drives the split.
    let works: Vec<f64> = stages
        .iter()
        .zip(&volumes)
        .map(|(s, &v)| s.fit.predict(v as f64).max(1.0))
        .collect();
    let total_work: f64 = works.iter().sum();

    // Hour allocation: floor of the proportional share, minimum 1; then
    // distribute the remaining hours by largest fractional remainder.
    let mut alloc: Vec<u64> = works
        .iter()
        .map(|w| ((hours as f64 * w / total_work).floor() as u64).max(1))
        .collect();
    let mut used: u64 = alloc.iter().sum();
    while used > hours {
        // Over-allocated due to the minimum-1 rule: shave the largest.
        let i = (0..alloc.len())
            .filter(|&i| alloc[i] > 1)
            .max_by(|&a, &b| alloc[a].cmp(&alloc[b]))
            // lint:allow(RL001, hours >= stages guarantees some stage holds more than its minimum hour)
            .expect("hours >= stages guarantees a shavable stage");
        alloc[i] -= 1;
        used -= 1;
    }
    let mut remainders: Vec<(usize, f64)> = works
        .iter()
        .enumerate()
        .map(|(i, w)| (i, hours as f64 * w / total_work - alloc[i] as f64))
        .collect();
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut spare = hours - used;
    for (i, _) in remainders {
        if spare == 0 {
            break;
        }
        alloc[i] += 1;
        spare -= 1;
    }

    // Plan each stage with uniform bins against its subdeadline. Stage
    // inputs after the first are synthesized unit files (the previous
    // stage's outputs, ~64 MB units).
    let mut plans = Vec::with_capacity(stages.len());
    let mut predicted_cost = 0.0;
    let mut current_files: Vec<FileSpec> = input.to_vec();
    for ((stage, &volume), &stage_hours) in stages.iter().zip(&volumes).zip(&alloc) {
        let sub = stage_hours as f64 * 3600.0;
        let plan = make_plan(Strategy::UniformBins, &current_files, &stage.fit, sub).map_err(
            |source| WorkflowError::StagePlanFailed {
                stage: stage.name.clone(),
                source,
            },
        )?;
        predicted_cost += plan
            .instances
            .iter()
            .map(|i| instance_hours(i.predicted_secs) as f64 * pricing.hourly_rate)
            .sum::<f64>();
        plans.push(StagePlan {
            name: stage.name.clone(),
            subdeadline_secs: sub,
            input_volume: volume,
            plan,
        });
        // Synthesize the next stage's input: outputs in ~64 MB units.
        let next_volume = (volume as f64 * stage.volume_factor).ceil() as u64;
        let unit = 64_000_000u64;
        let n_units = next_volume.div_ceil(unit).max(1);
        current_files = (0..n_units)
            .map(|i| {
                let size = if i + 1 == n_units && !next_volume.is_multiple_of(unit) {
                    next_volume % unit
                } else {
                    unit.min(next_volume)
                };
                FileSpec::new(i, size.max(1))
            })
            .collect();
    }

    Ok(WorkflowSchedule {
        total_deadline_secs: alloc.iter().sum::<u64>() as f64 * 3600.0,
        stages: plans,
        predicted_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::{fit as fit_model, ModelKind};

    fn linear_fit(secs_per_gb: f64) -> Fit {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 1.0e9).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| secs_per_gb * x / 1.0e9 + 1.0).collect();
        fit_model(ModelKind::Affine, &xs, &ys)
    }

    fn stages() -> Vec<Stage> {
        vec![
            Stage {
                name: "tokenize".into(),
                fit: linear_fit(120.0), // fast
                volume_factor: 0.9,
            },
            Stage {
                name: "pos-tag".into(),
                fit: linear_fit(3600.0), // slow: 1 h/GB
                volume_factor: 1.5,
            },
            Stage {
                name: "grep-tags".into(),
                fit: linear_fit(60.0),
                volume_factor: 0.01,
            },
        ]
    }

    fn input(gb: u64) -> Vec<FileSpec> {
        (0..gb * 10)
            .map(|i| FileSpec::new(i, 100_000_000))
            .collect()
    }

    #[test]
    fn subdeadlines_are_hour_aligned_and_fit() {
        let s = schedule_workflow(&stages(), &input(4), 6.0 * 3600.0, &Default::default()).unwrap();
        assert_eq!(s.stages.len(), 3);
        let total: f64 = s.stages.iter().map(|p| p.subdeadline_secs).sum();
        assert!(total <= 6.0 * 3600.0 + 1e-9);
        for p in &s.stages {
            assert!(
                (p.subdeadline_secs / 3600.0).fract().abs() < 1e-9,
                "{} subdeadline not hour-aligned",
                p.name
            );
            assert!(p.subdeadline_secs >= 3600.0);
        }
        assert!((s.total_deadline_secs - total).abs() < 1e-9);
    }

    #[test]
    fn heavy_stage_gets_most_hours() {
        let s = schedule_workflow(&stages(), &input(4), 6.0 * 3600.0, &Default::default()).unwrap();
        let tag_hours = s.stages[1].subdeadline_secs / 3600.0;
        assert!(
            tag_hours >= 3.0,
            "POS stage got only {tag_hours} of 6 hours"
        );
    }

    #[test]
    fn volume_chains_through_factors() {
        let s = schedule_workflow(&stages(), &input(4), 6.0 * 3600.0, &Default::default()).unwrap();
        assert_eq!(s.stages[0].input_volume, 4_000_000_000);
        assert_eq!(s.stages[1].input_volume, 3_600_000_000); // ×0.9
        assert_eq!(s.stages[2].input_volume, 5_400_000_000); // ×1.5
    }

    #[test]
    fn too_short_deadline_rejected() {
        let err =
            schedule_workflow(&stages(), &input(1), 2.0 * 3600.0, &Default::default()).unwrap_err();
        assert!(matches!(err, WorkflowError::DeadlineTooShort { .. }));
    }

    #[test]
    fn stage_below_its_fixed_costs_fails_to_plan() {
        // Two hours for two stages: each gets one, but the second stage's
        // fixed cost alone is 5,000 s.
        let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 1.0e9).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 5_000.0 + 60.0 * x / 1.0e9).collect();
        let slow_start = Stage {
            name: "slow-start".into(),
            fit: fit_model(ModelKind::Affine, &xs, &ys),
            volume_factor: 1.0,
        };
        let stages = vec![stages().remove(0), slow_start];
        let err =
            schedule_workflow(&stages, &input(1), 2.0 * 3600.0, &Default::default()).unwrap_err();
        assert!(
            matches!(
                &err,
                WorkflowError::StagePlanFailed {
                    stage,
                    source: crate::error::ProvisionError::DeadlineBelowFixedCosts { .. },
                } if stage == "slow-start"
            ),
            "{err:?}"
        );
    }

    #[test]
    fn every_stage_plan_predicted_feasible() {
        let s = schedule_workflow(&stages(), &input(2), 5.0 * 3600.0, &Default::default()).unwrap();
        for p in &s.stages {
            assert!(
                p.plan.predicted_makespan() <= p.subdeadline_secs + 1e-6,
                "{} predicted over its subdeadline",
                p.name
            );
        }
        assert!(s.predicted_cost > 0.0);
    }
}
