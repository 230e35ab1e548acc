//! Planning strategies — the variants compared across Figs 8 and 9.

use crate::error::ProvisionError;
use crate::plan::Plan;
use binpack::{first_fit, uniform_k_bins, Packing};
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

/// A fleet sized from the volume alone, before any file is packed: the
/// §5.2 fleet size `i`, the deadline it was sized against and `x₀`.
/// [`make_plan`]'s uniform strategies pack files into it; admission and
/// the family chooser judge a fleet by it without packing anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Instances the volume needs, `i = ⌈V / x⌉` (at least 1), where `x`
    /// is the fit's inverse at the planning deadline, floored.
    pub fleet: u64,
    /// The deadline the fleet was sized for, seconds.
    pub deadline_secs: f64,
    /// The deadline the fleet was sized against, seconds: `D`, or the
    /// adjusted `D′` when uniform bins over `⌈V / x₀⌉` instances miss it.
    pub planning_deadline_secs: f64,
    /// Bytes one instance processes by the deadline, `x₀ = ⌊f⁻¹(D)⌋`.
    pub volume_per_instance: u64,
}

impl Sizing {
    /// [`Strategy::UniformBins`]: `i = ⌈V / x₀⌉` instances at `D`.
    fn uniform(total_bytes: u64, fit: &Fit, deadline_secs: f64) -> Result<Sizing, ProvisionError> {
        let x0 = invert_at(fit, deadline_secs)? as u64;
        Ok(Sizing {
            fleet: fleet(total_bytes, x0),
            deadline_secs,
            planning_deadline_secs: deadline_secs,
            volume_per_instance: x0,
        })
    }

    /// [`Strategy::AdjustedDeadline`], the paper's §5.2 rule: if uniform
    /// bins at `V/i` already finish within `D′ = D/(1+a)`, keep the
    /// cheaper fleet; otherwise re-size it against `D′`.
    pub fn adjusted(
        total_bytes: u64,
        fit: &Fit,
        deadline_secs: f64,
        p_miss: f64,
    ) -> Result<Sizing, ProvisionError> {
        let d_adj = fit.adjusted_deadline(deadline_secs, p_miss);
        let sizing = Sizing::uniform(total_bytes, fit, deadline_secs)?;
        if fit.predict(total_bytes.div_ceil(sizing.fleet) as f64) <= d_adj {
            return Ok(sizing);
        }
        Ok(Sizing {
            fleet: fleet(total_bytes, invert_at(fit, d_adj)? as u64),
            planning_deadline_secs: d_adj,
            ..sizing
        })
    }

    /// Bins a uniform packing of `n` files takes: `i`, but at most one per
    /// file. LPT greedy opens a bin only once every lower bin holds a
    /// positive load, so bins past the `n`-th stay empty and the clamp
    /// changes no plan; it stops a fleet of 10¹² from allocating 10¹² bins.
    pub fn bins(&self, n: usize) -> usize {
        self.fleet.min(n as u64).max(1) as usize
    }

    /// Instances a uniform plan of `files` at this sizing uses, without
    /// packing: each nonempty file opens a bin until all [`Sizing::bins`]
    /// are open, and zero-byte files then share the least-loaded bin, the
    /// lowest still-empty one if any.
    pub fn instances(&self, files: &[FileSpec]) -> usize {
        let bins = self.bins(files.len());
        let nonempty = files.iter().filter(|f| f.size > 0).count();
        if nonempty >= bins {
            bins
        } else {
            nonempty + usize::from(nonempty < files.len())
        }
    }

    /// The uniform packing of `files` into [`Sizing::bins`] bins. It
    /// depends on the sizing only through that bin count.
    pub fn pack(&self, files: &[FileSpec]) -> Packing {
        uniform_k_bins(files, self.bins(files.len()))
    }

    /// The uniform plan of `files` at this sizing under `fit`.
    pub fn plan(&self, files: &[FileSpec], fit: &Fit) -> Plan {
        self.plan_packed(files, &self.pack(files), fit)
    }

    /// The plan that runs each bin of `packing`, a packing of `files`, on
    /// one instance.
    pub fn plan_packed(&self, files: &[FileSpec], packing: &Packing, fit: &Fit) -> Plan {
        Plan::from_packing(
            files,
            packing,
            fit,
            self.deadline_secs,
            self.planning_deadline_secs,
            self.volume_per_instance,
        )
    }
}

/// Instances that `x` bytes each need to cover `total` bytes.
fn fleet(total: u64, x: u64) -> u64 {
    total.div_ceil(x).max(1)
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
    match strategy {
        Strategy::CapacityDriven => {
            // Fill instances to x₀ in input order; the fleet size is
            // whatever the packing needs.
            let sizing = Sizing::uniform(total, fit, deadline_secs)?;
            let packing = first_fit(files, sizing.volume_per_instance);
            Ok(sizing.plan_packed(files, &packing, fit))
        }
        Strategy::UniformBins => Ok(Sizing::uniform(total, fit, deadline_secs)?.plan(files, fit)),
        Strategy::AdjustedDeadline { p_miss } => {
            Ok(Sizing::adjusted(total, fit, deadline_secs, p_miss)?.plan(files, fit))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::hash::splitmix64;
    use perfmodel::{fit as fit_model, ModelKind};
    use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig};

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
    fn a_trillion_instance_fleet_packs_one_bin_per_file() {
        // 1 µs per byte after a 10 s fixed cost; zero residuals keep D′ = D.
        let fit = Fit {
            kind: ModelKind::Affine,
            a: 1.0e-6,
            b: 10.0,
            r2: 1.0,
            residuals: vec![0.0; 4],
            relative_residuals: vec![0.0; 4],
        };
        // Three 1 TB files against a deadline just above the fixed cost:
        // one instance covers about two bytes.
        let files = corpus_files(3, 1_000_000_000_000);
        let deadline = 10.0 + 2.0e-6;
        let sizing = Sizing::adjusted(3_000_000_000_000, &fit, deadline, 0.1).unwrap();
        assert!(sizing.fleet >= 1_000_000_000_000, "{sizing:?}");
        assert_eq!(sizing.bins(files.len()), 3);
        assert_eq!(sizing.instances(&files), 3);
        for strategy in [
            Strategy::UniformBins,
            Strategy::AdjustedDeadline { p_miss: 0.1 },
        ] {
            let plan = make_plan(strategy, &files, &fit, deadline).unwrap();
            assert_eq!(plan.instance_count(), 3, "{strategy:?}");
            assert_eq!(plan.total_volume(), 3_000_000_000_000, "{strategy:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Clamping the packing to one bin per file changes no plan, and
        /// `Sizing::instances` counts the instances the plan uses.
        #[test]
        fn clamped_plans_are_the_unclamped_plans(seed in any::<u64>()) {
            let m = model();
            // 1–40 files of 0–3 MB, a third of them empty.
            let n = 1 + splitmix64(seed) % 40;
            let files: Vec<FileSpec> = (0..n)
                .map(|i| {
                    let draw = splitmix64(seed ^ (i + 1));
                    let size = if draw.is_multiple_of(3) { 0 } else { draw % 3_000_000 };
                    FileSpec::new(i, size)
                })
                .collect();
            for fleet in 1..=8 * n {
                let sizing = Sizing {
                    fleet,
                    deadline_secs: 10.0,
                    planning_deadline_secs: 9.0,
                    volume_per_instance: 1_000_000,
                };
                let unclamped = uniform_k_bins(&files, fleet as usize);
                let want = sizing.plan_packed(&files, &unclamped, &m);
                let got = sizing.plan(&files, &m);
                prop_assert_eq!(&got, &want, "seed {}: fleet {} over {} files", seed, fleet, n);
                prop_assert_eq!(
                    sizing.instances(&files),
                    want.instance_count(),
                    "seed {}: fleet {} over {} files",
                    seed,
                    fleet,
                    n
                );
            }
        }
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
