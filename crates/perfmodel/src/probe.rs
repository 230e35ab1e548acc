//! Probe construction — the paper's §4 procedure.
//!
//! A *probe* is a test input of a given total volume, organized at a given
//! unit file size. For one volume `V` the probe set contains:
//!
//! * `P^V_orig` — the data in its original segmentation;
//! * `P^V_{s0}` — the data merged into unit files of size `s0` by
//!   subset-sum first fit (`s0` is chosen larger than the maximum original
//!   file size so nothing stays oversize);
//! * `P^V_{s1}, …, P^V_{sn}` — derived directly by merging bins of the
//!   `s0` packing, `s_i = m_i · s0`, up to `s_n = V`.
//!
//! A campaign starts at a small volume and keeps multiplying it by `k`
//! while measurements are unstable (large coefficient of variation), the
//! situation of Fig 3.

use crate::stats::Measurement;
use binpack::{derive_merged, subset_sum_first_fit, Packing, Parallelism};
use corpus::{FileSpec, Manifest};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Unit file size of a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnitSize {
    /// The corpus's original segmentation.
    Original,
    /// Merged unit files of (about) this many bytes.
    Bytes(u64),
}

impl UnitSize {}

/// One probe: a volume at a unit size, realized as a list of (possibly
/// merged) files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbePoint {
    /// Total bytes.
    pub volume: u64,
    /// Unit size.
    pub unit: UnitSize,
    /// The unit files an application run would consume. Merged unit files
    /// carry the size-weighted mean complexity of their members.
    pub files: Vec<FileSpec>,
}

/// The unit files of `packing`, a packing of `files`: one per nonempty
/// bin, in bin order, with the bin's index as id, its bytes as size, and
/// the size-weighted mean complexity of its members (summed in member
/// order; 1.0 for a bin of zero-byte files) — concatenating documents
/// preserves per-byte tagging cost. The batch reshape, the streaming
/// ingest sink and the probe chain all build unit files here. Bins are
/// independent, so `parallelism` fans them out; the result is the same
/// for every setting, and `Sequential` is a plain loop that starts no
/// thread pool.
pub fn unit_files(
    packing: &Packing,
    files: &[FileSpec],
    parallelism: Parallelism,
) -> Vec<FileSpec> {
    let unit = |i: usize| {
        let b = packing.bin(i);
        let size = b.used();
        let weighted = b
            .items(files)
            .fold(0.0f64, |w, f| w + f.complexity * f.size as f64);
        (!b.is_empty()).then(|| FileSpec {
            id: i as u64,
            size,
            complexity: if size > 0 {
                weighted / size as f64
            } else {
                1.0
            },
        })
    };
    match parallelism {
        Parallelism::Sequential => (0..packing.len()).filter_map(unit).collect(),
        Parallelism::Rayon(_) => {
            let units: Vec<Option<FileSpec>> =
                parallelism.install(|| (0..packing.len()).into_par_iter().map(unit).collect());
            units.into_iter().flatten().collect()
        }
    }
}

/// Build the full probe chain for one volume: original segmentation, the
/// `s0` packing, and derived multiples `factor · s0` for each factor.
/// [`build_probe_chain_par`] run sequentially.
pub fn build_probe_chain(subset: &Manifest, s0: u64, factors: &[usize]) -> Vec<ProbePoint> {
    build_probe_chain_par(subset, s0, factors, Parallelism::Sequential)
}

/// [`build_probe_chain`] with the derived unit sizes constructed
/// concurrently. The `s0` packing itself is a sequential greedy pass, but
/// every factor's merge-and-aggregate step depends only on that base
/// packing, so the chain fans out one task per factor. Results are gathered
/// in factor order and are identical to the sequential chain for any
/// [`Parallelism`] setting.
pub fn build_probe_chain_par(
    subset: &Manifest,
    s0: u64,
    factors: &[usize],
    parallelism: Parallelism,
) -> Vec<ProbePoint> {
    let volume = subset.total_volume();
    let base = subset_sum_first_fit(&subset.files, s0);

    let mut points = Vec::with_capacity(factors.len() + 2);
    points.push(ProbePoint {
        volume,
        unit: UnitSize::Original,
        files: subset.files.clone(),
    });
    points.push(ProbePoint {
        volume,
        unit: UnitSize::Bytes(s0),
        files: unit_files(&base, &subset.files, Parallelism::Sequential),
    });
    let merge_factors: Vec<usize> = factors.iter().copied().filter(|&m| m > 1).collect();
    let derived: Vec<ProbePoint> = parallelism.install(|| {
        merge_factors
            .par_iter()
            .map(|&m| {
                let merged = derive_merged(&base, m);
                ProbePoint {
                    volume,
                    unit: UnitSize::Bytes(s0 * m as u64),
                    files: unit_files(&merged, &subset.files, Parallelism::Sequential),
                }
            })
            .collect()
    });
    points.extend(derived);
    points
}

/// The measured outcome of one probe set (all unit sizes at one volume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeSetResult {
    /// Probe volume, bytes.
    pub volume: u64,
    /// Per-unit-size measurement: unit, files in the probe, runtimes.
    pub points: Vec<(UnitSize, usize, Measurement)>,
}

impl ProbeSetResult {
    /// True when every point's coefficient of variation is at most
    /// `max_cv` — the paper's criterion for trusting a probe set.
    pub fn is_stable(&self, max_cv: f64) -> bool {
        self.points.iter().all(|(_, _, m)| m.is_stable(max_cv))
    }
}

/// A probe campaign: volumes grow geometrically from `v0` until the
/// measurements stabilize (or `max_volume` is reached).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeCampaign {
    /// Starting volume, bytes (the paper starts grep at 1 MB).
    pub v0: u64,
    /// Volume multiplier `k` between probe sets.
    pub growth: u64,
    /// Stop growing past this volume.
    pub max_volume: u64,
    /// Repetitions per probe (the paper uses 5).
    pub repeats: usize,
    /// Base unit size `s0` (chosen above the max original file size).
    pub s0: u64,
    /// Multiples of `s0` to derive.
    pub factors: Vec<usize>,
    /// Stability threshold on the coefficient of variation.
    pub stability_cv: f64,
    /// Keep growing until at least this many probe sets exist (a model fit
    /// needs several distinct volumes), stability permitting.
    pub min_sets: usize,
}

impl Default for ProbeCampaign {
    fn default() -> Self {
        ProbeCampaign {
            v0: 1_000_000,
            growth: 5,
            max_volume: 5_000_000_000,
            repeats: 5,
            s0: 1_000_000,
            factors: vec![2, 5, 10, 50, 100],
            stability_cv: 0.10,
            min_sets: 3,
        }
    }
}

impl ProbeCampaign {
    /// Run the campaign: `measure(files)` performs one application run over
    /// the probe's unit files and returns observed seconds. Returns one
    /// result per probed volume (the last one is the first stable set, or
    /// the set at `max_volume` if none stabilized).
    pub fn run(
        &self,
        manifest: &Manifest,
        measure: impl FnMut(&[FileSpec]) -> f64,
    ) -> Vec<ProbeSetResult> {
        self.run_with(manifest, measure, Parallelism::default())
    }

    /// [`ProbeCampaign::run`] with an explicit [`Parallelism`] setting for
    /// probe construction. Probe files for the derived unit sizes are built
    /// concurrently; the measurement loop itself stays sequential (repeated
    /// timed runs must not contend with each other). Results are identical
    /// for every setting.
    pub fn run_with(
        &self,
        manifest: &Manifest,
        mut measure: impl FnMut(&[FileSpec]) -> f64,
        parallelism: Parallelism,
    ) -> Vec<ProbeSetResult> {
        assert!(self.growth >= 2, "growth factor must be at least 2");
        let mut results = Vec::new();
        let mut volume = self.v0;
        loop {
            let subset = manifest.prefix_by_volume(volume);
            if subset.is_empty() {
                break;
            }
            let chain = build_probe_chain_par(&subset, self.s0, &self.factors, parallelism);
            let points = chain
                .iter()
                .map(|p| {
                    let runs: Vec<f64> = (0..self.repeats).map(|_| measure(&p.files)).collect();
                    (p.unit, p.files.len(), Measurement::new(p.volume, runs))
                })
                .collect();
            let result = ProbeSetResult {
                volume: subset.total_volume(),
                points,
            };
            let stable = result.is_stable(self.stability_cv);
            results.push(result);
            let enough = results.len() >= self.min_sets.max(1);
            if (stable && enough) || volume >= self.max_volume || volume >= manifest.total_volume()
            {
                break;
            }
            volume = volume.saturating_mul(self.growth);
        }
        results
    }
}

/// Choose the preferred unit size from measured probe sets: take the
/// *latest* stable set (later sets are larger and more trustworthy — the
/// paper "gives preference to choosing the preferred unit file size as the
/// minimum from later probe sets"), then pick the unit minimizing
/// `mean + stddev` (the minimum of the plateau with the most reliable
/// spread). Falls back to the last set if none is stable.
pub fn choose_unit_size(results: &[ProbeSetResult], stability_cv: f64) -> Option<UnitSize> {
    let set = results
        .iter()
        .rev()
        .find(|r| r.is_stable(stability_cv))
        .or_else(|| results.last())?;
    set.points
        .iter()
        .min_by(|a, b| {
            let ka = a.2.mean() + a.2.stddev();
            let kb = b.2.mean() + b.2.stddev();
            ka.total_cmp(&kb)
        })
        .map(|(unit, _, _)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(n: u64, size: u64) -> Manifest {
        let files = (0..n).map(|i| FileSpec::new(i, size)).collect();
        Manifest::new("t", files, 0)
    }

    #[test]
    fn chain_conserves_volume_across_units() {
        let m = manifest(1_000, 1_000); // 1 MB of 1 kB files
        let chain = build_probe_chain(&m, 10_000, &[2, 10, 100]);
        assert_eq!(chain.len(), 5);
        for p in &chain {
            let total: u64 = p.files.iter().map(|f| f.size).sum();
            assert_eq!(total, 1_000_000, "unit {:?}", p.unit);
        }
        // Merging shrinks file counts monotonically along the chain.
        let counts: Vec<usize> = chain.iter().map(|p| p.files.len()).collect();
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
    }

    #[test]
    fn merged_units_near_target_size() {
        let m = manifest(1_000, 999);
        let chain = build_probe_chain(&m, 10_000, &[]);
        let packed = &chain[1];
        assert_eq!(packed.unit, UnitSize::Bytes(10_000));
        // All but the last unit file should be within one item of full.
        for f in &packed.files[..packed.files.len() - 1] {
            assert!(f.size > 9_000, "loose bin of {}", f.size);
        }
    }

    #[test]
    fn merged_complexity_is_weighted_mean() {
        let files = vec![
            FileSpec {
                id: 0,
                size: 300,
                complexity: 2.0,
            },
            FileSpec {
                id: 1,
                size: 700,
                complexity: 1.0,
            },
        ];
        let m = Manifest::new("t", files, 0);
        let chain = build_probe_chain(&m, 1_000, &[]);
        let merged = &chain[1].files[0];
        assert_eq!(merged.size, 1_000);
        assert!((merged.complexity - 1.3).abs() < 1e-12);
    }

    #[test]
    fn campaign_grows_until_stable() {
        let m = manifest(100_000, 1_000); // 100 MB corpus
        let campaign = ProbeCampaign {
            v0: 1_000_000,
            growth: 10,
            max_volume: 100_000_000,
            repeats: 3,
            s0: 10_000,
            factors: vec![10],
            stability_cv: 0.10,
            min_sets: 1,
        };
        // Synthetic measurement: noisy below 10 MB, clean above; the noise
        // varies per call so repeated runs of the same probe disagree.
        let mut call = 0u64;
        let results = campaign.run(&m, |files| {
            call += 1;
            let bytes: u64 = files.iter().map(|f| f.size).sum();
            let base = bytes as f64 * 1e-8 + files.len() as f64 * 1e-4;
            if bytes < 10_000_000 {
                base * (1.0 + 0.5 * ((call % 7) as f64 - 3.0) / 3.0)
            } else {
                base
            }
        });
        assert!(results.len() >= 2);
        assert!(results.last().unwrap().is_stable(0.10));
        assert!(!results[0].is_stable(0.10));
    }

    #[test]
    fn choose_unit_prefers_late_stable_minimum() {
        let early = ProbeSetResult {
            volume: 1_000,
            points: vec![(
                UnitSize::Original,
                10,
                Measurement::new(1_000, vec![0.1, 0.9]), // cv huge
            )],
        };
        let late = ProbeSetResult {
            volume: 100_000,
            points: vec![
                (
                    UnitSize::Original,
                    100,
                    Measurement::new(100_000, vec![10.0, 10.1]),
                ),
                (
                    UnitSize::Bytes(10_000),
                    10,
                    Measurement::new(100_000, vec![5.0, 5.1]),
                ),
                (
                    UnitSize::Bytes(100_000),
                    1,
                    Measurement::new(100_000, vec![5.2, 5.2]),
                ),
            ],
        };
        let unit = choose_unit_size(&[early, late], 0.1).unwrap();
        assert_eq!(unit, UnitSize::Bytes(10_000));
    }

    #[test]
    fn choose_unit_falls_back_to_last_unstable_set() {
        let only = ProbeSetResult {
            volume: 1_000,
            points: vec![
                (
                    UnitSize::Original,
                    5,
                    Measurement::new(1_000, vec![1.0, 3.0]),
                ),
                (
                    UnitSize::Bytes(500),
                    2,
                    Measurement::new(1_000, vec![0.5, 1.8]),
                ),
            ],
        };
        let unit = choose_unit_size(&[only], 0.05).unwrap();
        assert_eq!(unit, UnitSize::Bytes(500));
    }

    #[test]
    fn empty_results_give_none() {
        assert!(choose_unit_size(&[], 0.1).is_none());
    }
}
