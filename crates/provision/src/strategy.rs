//! Planning strategies — the variants compared across Figs 8 and 9.

use crate::error::ProvisionError;
use crate::plan::{file_items, Plan};
use binpack::{first_fit, uniform_k_bins};
use corpus::FileSpec;
use perfmodel::Fit;
use serde::{Deserialize, Serialize};

/// How to turn (model, volume, deadline) into per-instance bins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// In-order first fit at capacity `⌊f⁻¹(D)⌋` (Fig 8(a)): instances are
    /// filled to the model's capacity; the last bin may be nearly empty.
    CapacityDriven,
    /// Uniform bins over `i = ⌈V / f⁻¹(D)⌉` instances (Fig 8(b)): same
    /// cost, every instance gets `V/i`, maximizing the deadline margin.
    UniformBins,
    /// The paper's §5.2 general strategy: size the fleet with `f⁻¹(D)`,
    /// then check the *adjusted* deadline `D/(1+a)` (miss probability
    /// `p_miss`). If uniform bins at `V/i` already finish within the
    /// adjusted deadline, keep them; otherwise re-size the fleet against
    /// the adjusted deadline (Fig 8(d), Fig 9(c)).
    AdjustedDeadline {
        /// Acceptable probability of missing the user deadline.
        p_miss: f64,
    },
}

/// Invert `fit` at deadline `d`, mapping the two failure modes (no inverse,
/// inverse below one byte) to typed errors. This is the one inversion check
/// of every planner: the inverse comes back unfloored, so a caller that
/// needs whole bytes floors it itself.
pub(crate) fn invert_at(fit: &Fit, d: f64) -> Result<f64, ProvisionError> {
    let x = fit
        .invert(d)
        .ok_or(ProvisionError::NotInvertible { deadline_secs: d })?;
    if x.is_nan() || x < 1.0 {
        return Err(ProvisionError::DeadlineBelowFixedCosts {
            deadline_secs: d,
            inverse_bytes: x,
        });
    }
    Ok(x)
}

/// Build a plan for processing `files` before `deadline_secs` under `fit`.
///
/// Errors if the model cannot be inverted at the deadline or prescribes a
/// non-positive per-instance volume (deadline shorter than the model's
/// fixed costs).
pub fn make_plan(
    strategy: Strategy,
    files: &[FileSpec],
    fit: &Fit,
    deadline_secs: f64,
) -> Result<Plan, ProvisionError> {
    let total: u64 = files.iter().map(|f| f.size).sum();
    // Instances that `x` bytes each need to cover the volume.
    let fleet = |x: u64| total.div_ceil(x).max(1);
    let (packing, planning_deadline, x0) = match strategy {
        Strategy::CapacityDriven => {
            let x0 = invert_at(fit, deadline_secs)? as u64;
            (first_fit(&file_items(files), x0), deadline_secs, x0)
        }
        Strategy::UniformBins => {
            let x0 = invert_at(fit, deadline_secs)? as u64;
            let bins = uniform_k_bins(&file_items(files), fleet(x0) as usize);
            (bins, deadline_secs, x0)
        }
        Strategy::AdjustedDeadline { p_miss } => {
            let d_adj = fit.adjusted_deadline(deadline_secs, p_miss);
            let x0 = invert_at(fit, deadline_secs)? as u64;
            let i = fleet(x0);
            // Uniform over i instances gives V/i per instance; if that
            // already meets the adjusted deadline, keep the cheaper fleet.
            let (i, planning_deadline) = if fit.predict(total.div_ceil(i) as f64) <= d_adj {
                (i, deadline_secs)
            } else {
                (fleet(invert_at(fit, d_adj)? as u64), d_adj)
            };
            let bins = uniform_k_bins(&file_items(files), i as usize);
            (bins, planning_deadline, x0)
        }
    };
    Ok(Plan::from_packing(
        files,
        &packing,
        fit,
        deadline_secs,
        planning_deadline,
        x0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::{fit as fit_model, ModelKind};

    /// A linear model: 1 second per MB (1e-6 s/B), tiny intercept.
    fn model() -> Fit {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e6).collect();
        // Add deterministic ±2 % wobble so residuals are non-degenerate
        // (the adjusted-deadline strategy needs a residual spread).
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| 1.0e-6 * x * (1.0 + 0.02 * if k % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        fit_model(ModelKind::Affine, &xs, &ys)
    }

    fn corpus_files(n: u64, size: u64) -> Vec<FileSpec> {
        (0..n).map(|i| FileSpec::new(i, size)).collect()
    }

    #[test]
    fn capacity_driven_fleet_size_matches_formula() {
        let m = model();
        // 100 MB of work, deadline 10 s → x0 ≈ 10 MB → 10 instances.
        let files = corpus_files(100, 1_000_000);
        let plan = make_plan(Strategy::CapacityDriven, &files, &m, 10.0).unwrap();
        assert!(
            (9..=11).contains(&plan.instance_count()),
            "{}",
            plan.instance_count()
        );
        assert_eq!(plan.total_volume(), 100_000_000);
    }

    #[test]
    fn uniform_bins_have_equal_volumes() {
        let m = model();
        let files = corpus_files(100, 1_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 10.0).unwrap();
        let vols: Vec<u64> = plan.instances.iter().map(|i| i.volume).collect();
        let max = *vols.iter().max().unwrap();
        let min = *vols.iter().min().unwrap();
        assert!(max - min <= 1_000_000, "{vols:?}");
    }

    #[test]
    fn uniform_beats_capacity_driven_on_makespan() {
        let m = model();
        let files = corpus_files(105, 1_000_000);
        let cap = make_plan(Strategy::CapacityDriven, &files, &m, 10.0).unwrap();
        let uni = make_plan(Strategy::UniformBins, &files, &m, 10.0).unwrap();
        assert!(uni.predicted_makespan() <= cap.predicted_makespan() + 1e-9);
    }

    #[test]
    fn adjusted_deadline_never_plans_later() {
        let m = model();
        let files = corpus_files(100, 1_000_000);
        let adj = make_plan(Strategy::AdjustedDeadline { p_miss: 0.1 }, &files, &m, 10.0).unwrap();
        assert!(adj.planning_deadline_secs <= adj.deadline_secs);
        // More conservative planning can only grow the fleet.
        let uni = make_plan(Strategy::UniformBins, &files, &m, 10.0).unwrap();
        assert!(adj.instance_count() >= uni.instance_count());
    }

    #[test]
    fn tight_margin_forces_adjusted_fleet_growth() {
        let m = model();
        // Deadline exactly at capacity: uniform bins sit at the deadline,
        // which cannot meet the adjusted deadline, so the fleet grows.
        let files = corpus_files(100, 1_000_000);
        let uni = make_plan(Strategy::UniformBins, &files, &m, 10.0).unwrap();
        let adj = make_plan(
            Strategy::AdjustedDeadline { p_miss: 0.01 },
            &files,
            &m,
            10.0,
        )
        .unwrap();
        assert!(
            adj.instance_count() > uni.instance_count()
                || adj.planning_deadline_secs < uni.planning_deadline_secs
        );
    }

    #[test]
    fn impossible_deadline_is_a_typed_error() {
        let m = model();
        let files = corpus_files(10, 1_000_000);
        let err = make_plan(Strategy::CapacityDriven, &files, &m, 1.0e-9).unwrap_err();
        assert!(matches!(
            err,
            ProvisionError::DeadlineBelowFixedCosts { .. }
        ));
        assert!(err.to_string().contains("fixed costs"), "{err}");
    }

    #[test]
    fn non_invertible_model_is_a_typed_error() {
        // A flat (zero-slope) affine model cannot be inverted anywhere
        // below its intercept.
        let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 1.0e6).collect();
        let ys: Vec<f64> = xs.iter().map(|_| 100.0).collect();
        let m = fit_model(ModelKind::Affine, &xs, &ys);
        let files = corpus_files(10, 1_000_000);
        let err = make_plan(Strategy::UniformBins, &files, &m, 1.0).unwrap_err();
        assert!(
            matches!(
                err,
                ProvisionError::NotInvertible { .. }
                    | ProvisionError::DeadlineBelowFixedCosts { .. }
            ),
            "{err}"
        );
    }
}
