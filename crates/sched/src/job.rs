//! Jobs, tenants and seeded arrival traces.

use corpus::FileSpec;
use perfmodel::{fit, Fit, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use textapps::{AppCostModel, AppKind, ExecEnv, GrepCostModel, PosCostModel, TokenizeCostModel};

/// A tenant of the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub u32);

/// One deadline-bound processing request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Position in the trace; also the tie-breaker of last resort in the
    /// dispatch order.
    pub id: u64,
    /// Who submitted it (drives quota checks and cost attribution).
    pub tenant: TenantId,
    /// Which application processes the corpus.
    pub app: AppKind,
    /// The (already reshaped) corpus: unit-sized files summing to the
    /// job's volume.
    pub files: Vec<FileSpec>,
    /// Simulated arrival time, seconds.
    pub arrival_secs: f64,
    /// Deadline relative to arrival, seconds.
    pub deadline_secs: f64,
    /// Dispatch priority class; higher dispatches first.
    pub priority: u8,
}

impl Job {
    /// Total corpus bytes.
    pub fn volume(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// The absolute simulated time the job must finish by.
    pub fn absolute_deadline(&self) -> f64 {
        self.arrival_secs + self.deadline_secs
    }

    /// The cost model of this job's application.
    pub fn cost_model(&self) -> Box<dyn AppCostModel> {
        match self.app {
            AppKind::Grep => Box::new(GrepCostModel::default()),
            AppKind::PosTag => Box::new(PosCostModel::default()),
            AppKind::Tokenize => Box::new(TokenizeCostModel::default()),
        }
    }
}

/// A seeded multi-tenant arrival trace: jobs in nondecreasing arrival
/// order. Same config ⇒ byte-identical trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalTrace {
    /// Jobs sorted by `arrival_secs`.
    pub jobs: Vec<Job>,
    /// The seed the trace was generated from.
    pub seed: u64,
}

/// Unit file size the corpus was reshaped to, bytes.
const UNIT_FILE_SIZE: u64 = 1_000_000;

/// Priority classes `0..PRIORITY_LEVELS` are drawn uniformly.
const PRIORITY_LEVELS: u8 = 3;

/// Parameters of the synthetic arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Jobs in the trace.
    pub jobs: usize,
    /// Distinct tenants drawn uniformly.
    pub tenants: u32,
    /// Mean of the exponential inter-arrival gap, seconds (Poisson
    /// arrivals).
    pub mean_interarrival_secs: f64,
    /// Per-job corpus volume, bytes, drawn uniformly inclusive.
    pub volume_range: (u64, u64),
    /// Relative deadline, seconds, drawn uniformly inclusive.
    pub deadline_range: (f64, f64),
    /// Fraction of jobs running POS tagging; the rest run grep.
    pub pos_fraction: f64,
    /// Trace seed (independent of the cloud seed).
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            jobs: 40,
            tenants: 4,
            mean_interarrival_secs: 120.0,
            volume_range: (50_000_000, 800_000_000),
            deadline_range: (1_800.0, 7_200.0),
            pos_fraction: 0.25,
            seed: 0,
        }
    }
}

/// Split `volume` bytes into `UNIT_FILE_SIZE` files (the last one takes
/// the remainder), ids starting at 0.
fn unit_files(volume: u64) -> Vec<FileSpec> {
    let unit = UNIT_FILE_SIZE;
    let volume = volume.max(1);
    let n = volume.div_ceil(unit);
    (0..n)
        .map(|i| {
            let size = if i + 1 == n { volume - i * unit } else { unit };
            FileSpec::new(i, size)
        })
        .collect()
}

impl TraceConfig {
    /// Generate the trace. Poisson arrivals, uniform volumes/deadlines/
    /// priorities/tenants, app mix by `pos_fraction` — all from one seeded
    /// RNG, so the trace is a pure function of this config.
    pub fn generate(&self) -> ArrivalTrace {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5CED_7ACE);
        let mut t = 0.0f64;
        let tenants = self.tenants.max(1);
        let (vol_lo, vol_hi) = self.volume_range;
        let (dl_lo, dl_hi) = self.deadline_range;
        let jobs = (0..self.jobs as u64)
            .map(|id| {
                let u: f64 = rng.random();
                t += -self.mean_interarrival_secs * (1.0 - u).ln();
                let tenant = TenantId(rng.random_range(0..tenants));
                let volume = rng.random_range(vol_lo..=vol_hi.max(vol_lo));
                let deadline = rng.random_range(dl_lo..=dl_hi.max(dl_lo));
                let priority = rng.random_range(0..PRIORITY_LEVELS);
                let app = if rng.random::<f64>() < self.pos_fraction {
                    AppKind::PosTag
                } else {
                    AppKind::Grep
                };
                Job {
                    id,
                    tenant,
                    app,
                    files: unit_files(volume),
                    arrival_secs: t,
                    deadline_secs: deadline,
                    priority,
                }
            })
            .collect();
        ArrivalTrace {
            jobs,
            seed: self.seed,
        }
    }
}

/// One fitted performance model per application, used by admission and
/// planning. The scheduler does not probe at admission time; tenants are
/// assumed to run the catalog applications whose models were fitted
/// offline (paper §5: "the model of the application is derived once").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppFits {
    /// Model for [`AppKind::Grep`].
    pub grep: Fit,
    /// Model for [`AppKind::PosTag`].
    pub pos: Fit,
    /// Model for [`AppKind::Tokenize`].
    pub tokenize: Fit,
}

impl AppFits {
    /// The fit for a given application.
    pub fn for_kind(&self, kind: AppKind) -> &Fit {
        match kind {
            AppKind::Grep => &self.grep,
            AppKind::PosTag => &self.pos,
            AppKind::Tokenize => &self.tokenize,
        }
    }
}

impl Default for AppFits {
    fn default() -> Self {
        AppFits {
            grep: reference_fit(AppKind::Grep),
            pos: reference_fit(AppKind::PosTag),
            tokenize: reference_fit(AppKind::Tokenize),
        }
    }
}

/// A deterministic affine fit of `kind`'s cost model on a nominal
/// instance, probed over 25–600 MB of unit-sized (1 MB) files with a ±2 %
/// alternating wobble so the relative residuals — and therefore the
/// adjusted deadline `D′` — are non-degenerate.
pub fn reference_fit(kind: AppKind) -> Fit {
    let model: Box<dyn AppCostModel> = match kind {
        AppKind::Grep => Box::new(GrepCostModel::default()),
        AppKind::PosTag => Box::new(PosCostModel::default()),
        AppKind::Tokenize => Box::new(TokenizeCostModel::default()),
    };
    let env = ExecEnv::nominal();
    let xs: Vec<f64> = (1..=24).map(|i| i as f64 * 25.0e6).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| {
            let files = unit_files(x as u64);
            let wobble = 1.0 + 0.02 * if k % 2 == 0 { 1.0 } else { -1.0 };
            model.runtime_secs(&files, &env) * wobble
        })
        .collect();
    fit(ModelKind::Affine, &xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let cfg = TraceConfig::default();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        assert_eq!(a.jobs.len(), cfg.jobs);
        for w in a.jobs.windows(2) {
            assert!(w[0].arrival_secs <= w[1].arrival_secs);
        }
        for j in &a.jobs {
            assert!(j.tenant.0 < cfg.tenants);
            assert!(j.priority < PRIORITY_LEVELS);
            assert!(j.volume() >= cfg.volume_range.0 && j.volume() <= cfg.volume_range.1);
            assert!(
                j.deadline_secs >= cfg.deadline_range.0 && j.deadline_secs <= cfg.deadline_range.1
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceConfig::default().generate();
        let b = TraceConfig {
            seed: 1,
            ..TraceConfig::default()
        }
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn unit_files_conserve_bytes() {
        for volume in [1u64, 999_999, 1_000_000, 1_000_001, 53_123_457] {
            let files = unit_files(volume);
            let total: u64 = files.iter().map(|f| f.size).sum();
            assert_eq!(total, volume);
            assert!(files.iter().all(|f| f.size >= 1));
        }
    }

    #[test]
    fn reference_fits_invert() {
        for kind in [AppKind::Grep, AppKind::PosTag, AppKind::Tokenize] {
            let f = reference_fit(kind);
            assert!(f.invert(3_600.0).is_some(), "{kind:?} must invert");
            assert!(
                f.relative_residuals.iter().any(|r| r.abs() > 1e-6),
                "{kind:?} residuals must be non-degenerate"
            );
        }
    }
}
