//! Calibrated application cost models.
//!
//! The simulator does not execute 900 GB of text for real; it asks these
//! models how long an application run would take on a given instance. The
//! constants are calibrated against the paper's published measurements
//! (see DESIGN.md §5):
//!
//! * grep's fitted model, Eq (1): `f(x) = −0.974 + 1.324×10⁻⁸·x` seconds
//!   per byte — an effective ≈75 MB/s sequential scan on a good instance;
//! * POS tagging's fitted models: the paper's probes run on a corpus
//!   *prefix* whose language complexity sits ≈19 % above the corpus mean,
//!   yielding Eq (3) `f(x) = 0.327 + 0.865×10⁻⁴·x`; random-sample refits
//!   see the true mean and yield Eq (4) slope `0.725×10⁻⁴`. The base rate
//!   here is the complexity-1, penalty-free rate `6.78×10⁻⁵ s/B`, which
//!   after the ≈7 % memory penalty at the corpus-mean file size measures
//!   as Eq (4)'s slope;
//! * the ≈5.6× grep gap between original-size files and 100 MB unit files
//!   at 100 GB (Fig 6) pins the per-file overhead near 4.5 ms;
//! * POS degradation on large unit files (Fig 7) is a slowly growing
//!   memory-pressure penalty.

use corpus::FileSpec;
use serde::{Deserialize, Serialize};

/// Which application a model stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppKind {
    /// Fixed-string search, I/O-bound.
    Grep,
    /// Part-of-speech tagging, CPU/memory-bound.
    PosTag,
    /// Tokenization / word counting, moderately CPU-bound.
    Tokenize,
}

/// The execution environment an instance offers to an application run.
/// Produced by the simulator from instance quality, storage placement and
/// storage tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecEnv {
    /// Effective sequential read bandwidth, bytes/second.
    pub io_throughput_bps: f64,
    /// Fixed cost to open/locate each file, seconds.
    pub per_file_overhead_s: f64,
    /// CPU speed multiplier (1.0 = nominal EC2 compute unit; consistently
    /// slow instances sit near 0.25–0.5 per Dejun et al.).
    pub cpu_factor: f64,
    /// One-time process startup for the run, seconds (the JVM analog).
    pub startup_s: f64,
}

impl ExecEnv {
    /// A nominal, well-performing small instance reading from EBS.
    pub fn nominal() -> Self {
        ExecEnv {
            io_throughput_bps: 75.0e6,
            per_file_overhead_s: 4.5e-3,
            cpu_factor: 1.0,
            startup_s: 1.0,
        }
    }
}

/// A model mapping (file set, environment) to runtime seconds.
pub trait AppCostModel {
    /// Predicted wall-clock seconds to process `files` under `env`.
    fn runtime_secs(&self, files: &[FileSpec], env: &ExecEnv) -> f64;
    /// Which app this models.
    fn kind(&self) -> AppKind;
}

/// Grep's in-memory scan rate at `cpu_factor == 1`, bytes/second. High
/// enough that grep is I/O-bound on every realistic instance.
const GREP_SCAN_BPS: f64 = 900.0e6;

/// Grep: per-file open overhead plus a sequential scan at the slower of
/// storage bandwidth and CPU scan rate (`GREP_SCAN_BPS`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GrepCostModel {}

impl AppCostModel for GrepCostModel {
    fn runtime_secs(&self, files: &[FileSpec], env: &ExecEnv) -> f64 {
        let bytes: u64 = files.iter().map(|f| f.size).sum();
        let effective = env.io_throughput_bps.min(GREP_SCAN_BPS * env.cpu_factor);
        env.startup_s
            + files.len() as f64 * env.per_file_overhead_s
            + bytes as f64 / effective.max(1.0)
    }

    fn kind(&self) -> AppKind {
        AppKind::Grep
    }
}

/// POS seconds per byte of text at `cpu_factor == 1`, complexity 1.
const POS_SECS_PER_BYTE: f64 = 6.78e-5;

/// POS per-file fixed cost inside the wrapper (document setup), seconds.
const POS_PER_FILE_S: f64 = 5.0e-4;

/// File size where POS memory pressure starts to bite, bytes.
const POS_MEM_REF_BYTES: f64 = 500.0;

/// Strength of POS's logarithmic memory-pressure penalty.
const POS_MEM_ALPHA: f64 = 0.045;

/// POS tagging: per-file overhead plus a per-byte tagging cost scaled by
/// language complexity and a memory-pressure penalty that grows
/// logarithmically once files exceed a reference size — large unit files
/// hurt, which is why the original segmentation wins in Fig 7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PosCostModel {}

impl PosCostModel {
    /// The memory-pressure multiplier for a file of `size` bytes (≥ 1).
    pub fn mem_penalty(&self, size: u64) -> f64 {
        let ratio = size as f64 / POS_MEM_REF_BYTES;
        1.0 + POS_MEM_ALPHA * ratio.ln().max(0.0)
    }
}

impl AppCostModel for PosCostModel {
    fn runtime_secs(&self, files: &[FileSpec], env: &ExecEnv) -> f64 {
        let mut cpu = 0.0;
        for f in files {
            cpu += POS_PER_FILE_S
                + f.size as f64 * POS_SECS_PER_BYTE * f.complexity * self.mem_penalty(f.size);
        }
        // Tagging reads each byte once too, but at ~11.5 kB/s of CPU the
        // storage never limits; still modelled for completeness.
        let bytes: u64 = files.iter().map(|f| f.size).sum();
        let io = bytes as f64 / env.io_throughput_bps.max(1.0);
        env.startup_s + (cpu / env.cpu_factor.max(1e-9)).max(io)
    }

    fn kind(&self) -> AppKind {
        AppKind::PosTag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(sizes: &[u64]) -> Vec<FileSpec> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| FileSpec::new(i as u64, s))
            .collect()
    }

    #[test]
    fn grep_is_io_bound_on_nominal_instance() {
        let m = GrepCostModel::default();
        let env = ExecEnv::nominal();
        let t = m.runtime_secs(&files(&[1_000_000_000]), &env);
        // 1 GB / 75 MB/s ≈ 13.3 s (+ startup + one open)
        assert!((t - (1.0 + 0.0045 + 13.33)).abs() < 0.2, "t = {t}");
    }

    #[test]
    fn grep_small_files_dominated_by_overhead() {
        let m = GrepCostModel::default();
        let env = ExecEnv::nominal();
        let small = files(&vec![10_000; 10_000]); // 100 MB as 10k files
        let merged = files(&[100_000_000]); // same bytes, one file
        let t_small = m.runtime_secs(&small, &env);
        let t_merged = m.runtime_secs(&merged, &env);
        assert!(
            t_small > 3.0 * t_merged,
            "small {t_small}, merged {t_merged}"
        );
    }

    #[test]
    fn grep_five_point_six_factor_at_100gb_scale() {
        // Fig 6: original few-kB files vs 100 MB units at 100 GB — the
        // paper reports a 5.6× improvement. Check our constants land in
        // that neighbourhood (±40 %).
        let m = GrepCostModel::default();
        let env = ExecEnv {
            startup_s: 0.0,
            ..ExecEnv::nominal()
        };
        let n_orig = 2_000_000usize; // 100 GB / ~50 kB
        let orig: Vec<FileSpec> = (0..n_orig as u64)
            .map(|i| FileSpec::new(i, 50_000))
            .collect();
        let units: Vec<FileSpec> = (0..1_000u64)
            .map(|i| FileSpec::new(i, 100_000_000))
            .collect();
        let ratio = m.runtime_secs(&orig, &env) / m.runtime_secs(&units, &env);
        assert!((3.4..7.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn slow_instance_slows_grep_via_io() {
        let m = GrepCostModel::default();
        let fast = ExecEnv::nominal();
        let slow = ExecEnv {
            io_throughput_bps: 20.0e6,
            ..fast
        };
        let f = files(&[1_000_000_000]);
        assert!(m.runtime_secs(&f, &slow) > 3.0 * (m.runtime_secs(&f, &fast) - 1.0));
    }

    #[test]
    fn pos_rate_matches_paper_slopes() {
        let m = PosCostModel::default();
        let env = ExecEnv {
            startup_s: 0.327,
            ..ExecEnv::nominal()
        };
        // 1000 files of 1 kB ≈ the paper's 1000 kB probe at unit 1 kB.
        // At the corpus-mean complexity 1.0 the slope is Eq (4)'s
        // 0.725×10⁻⁴ (72.5 s + intercept)...
        let f = files(&vec![1_000; 1_000]);
        let t = m.runtime_secs(&f, &env);
        assert!((68.0..84.0).contains(&t), "t = {t}");
        // ...and at the probe-prefix complexity ≈1.19 it is Eq (3)'s
        // 0.865×10⁻⁴ (86.5 s + intercept).
        let mut f119 = f;
        for file in &mut f119 {
            file.complexity = 1.19;
        }
        let t = m.runtime_secs(&f119, &env);
        assert!((80.0..100.0).contains(&t), "t = {t}");
    }

    #[test]
    fn pos_original_segmentation_beats_large_units() {
        let m = PosCostModel::default();
        let env = ExecEnv::nominal();
        // ~1 MB as 2183 tiny files (the paper's original probe) vs one file.
        let orig: Vec<FileSpec> = (0..2_183u64).map(|i| FileSpec::new(i, 458)).collect();
        let one = files(&[1_000_000]);
        let t_orig = m.runtime_secs(&orig, &env);
        let t_one = m.runtime_secs(&one, &env);
        assert!(t_orig < t_one, "orig {t_orig} !< one {t_one}");
    }

    #[test]
    fn pos_penalty_monotone_in_size() {
        let m = PosCostModel::default();
        assert!((m.mem_penalty(100) - 1.0).abs() < 1e-12);
        assert!(m.mem_penalty(10_000) > m.mem_penalty(1_000));
        assert!(m.mem_penalty(100_000_000) < 1.7); // stays mild
    }

    #[test]
    fn pos_complexity_scales_runtime() {
        let m = PosCostModel::default();
        let env = ExecEnv::nominal();
        let mut complex = files(&[100_000]);
        complex[0].complexity = 1.62;
        let mut simple = files(&[100_000]);
        simple[0].complexity = 0.94;
        let t_c = m.runtime_secs(&complex, &env) - env.startup_s;
        let t_s = m.runtime_secs(&simple, &env) - env.startup_s;
        let ratio = t_c / t_s;
        assert!((1.6..1.85).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn slow_cpu_slows_pos_linearly() {
        let m = PosCostModel::default();
        let env = ExecEnv::nominal();
        let slow = ExecEnv {
            cpu_factor: 0.5,
            ..env
        };
        let f = files(&[1_000_000]);
        let t_fast = m.runtime_secs(&f, &env) - env.startup_s;
        let t_slow = m.runtime_secs(&f, &slow) - env.startup_s;
        assert!((t_slow / t_fast - 2.0).abs() < 0.05);
    }

    #[test]
    fn empty_file_set_costs_only_startup() {
        let g = GrepCostModel::default();
        let p = PosCostModel::default();
        let env = ExecEnv::nominal();
        assert!((g.runtime_secs(&[], &env) - env.startup_s).abs() < 1e-12);
        assert!((p.runtime_secs(&[], &env) - env.startup_s).abs() < 1e-12);
    }
}
