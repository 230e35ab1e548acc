//! Pins the multi-tenant scheduler's decisions to fixed fingerprints.
//!
//! Each case runs `sched::run_trace` on the repository benchmark's
//! `multitenant_trace` configuration (homogeneous cloud, local staging, a
//! warm pool, Poisson arrivals 400 s apart on average) at 400 jobs with a
//! recording sink, and folds the NDJSON log and the report's `Debug` form
//! (shortest round-trip floats, so equal strings mean equal bits) into
//! FNV-1a fingerprints compared against committed constants. Four
//! variants cover every way a job reaches an executor:
//!
//! * **catalog** — the three-family catalog on the 48-instance pool;
//! * **fallback** — a catalog without a unit-multiplier family on a pool
//!   small enough that some jobs fit no family and run their base plan,
//!   and some are turned away;
//! * **classic** — no catalog, every job on its base plan;
//! * **logquad** — the catalog with `LogQuad` fits, which families cannot
//!   rescale and plan at `D/m` on the base clock.
//!
//! A change to admission, family choice or dispatch must leave every
//! fingerprint unchanged.

use corpus::hash::fnv1a;
use ec2sim::{CloudConfig, FamilyId, InstanceFamily};
use obs::Obs;
use perfmodel::{fit, Fit, ModelKind};
use provision::{ExecutionConfig, StagingTier};
use sched::{
    reference_fit, run_trace, AppFits, JobStatus, PoolConfig, SchedConfig, SchedReport, TraceConfig,
};
use textapps::AppKind;

/// Jobs per trace: 2 % of the benchmark's 20,000.
const JOBS: usize = 400;

/// The benchmark's scheduler configuration with `catalog`, `capacity`
/// and `fits` swapped in.
fn config(catalog: Option<Vec<InstanceFamily>>, capacity: usize, fits: AppFits) -> SchedConfig {
    SchedConfig {
        cloud: CloudConfig {
            homogeneous: true,
            ..CloudConfig::default()
        },
        pool: PoolConfig {
            capacity,
            warm_reuse: true,
        },
        exec: ExecutionConfig {
            staging: StagingTier::Local,
            ..ExecutionConfig::default()
        },
        fits,
        catalog,
        ..SchedConfig::default()
    }
}

/// A `LogQuad` fit of each application's reference model, sampled where
/// the reference fit was probed, with the same ±2 % alternating wobble.
fn logquad_fits() -> AppFits {
    let logquad = |kind: AppKind| -> Fit {
        let reference = reference_fit(kind);
        let xs: Vec<f64> = (1..=24).map(|i| i as f64 * 25.0e6).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| {
                reference.predict(x) * (1.0 + 0.02 * if k % 2 == 0 { 1.0 } else { -1.0 })
            })
            .collect();
        fit(ModelKind::LogQuad, &xs, &ys)
    };
    AppFits {
        grep: logquad(AppKind::Grep),
        pos: logquad(AppKind::PosTag),
        tokenize: logquad(AppKind::Tokenize),
    }
}

/// Run `cfg` on the trace of `seed`; returns the report and its log.
fn run(cfg: &SchedConfig, seed: u64) -> (SchedReport, String) {
    let trace = TraceConfig {
        jobs: JOBS,
        mean_interarrival_secs: 400.0,
        seed,
        ..TraceConfig::default()
    }
    .generate();
    let obs = Obs::recording(seed);
    let cfg = SchedConfig {
        obs: obs.clone(),
        ..cfg.clone()
    };
    let report = run_trace(&cfg, &trace).expect("scheduling run");
    (report, obs.to_ndjson())
}

/// Jobs that ran on `family` (`None`: on their base plan).
fn ran_on(report: &SchedReport, family: Option<FamilyId>) -> usize {
    report
        .jobs
        .iter()
        .filter(|j| j.status != JobStatus::Rejected && j.family == family)
        .count()
}

/// Run seeds 1, 2 and 3 of `cfg` and compare each run's `(log FNV-1a, log
/// bytes, report FNV-1a)` with `pinned`. Returns the reports.
fn check(name: &str, cfg: &SchedConfig, pinned: [(u64, usize, u64); 3]) -> Vec<SchedReport> {
    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for (seed, want) in (1u64..=3).zip(pinned) {
        let (report, log) = run(cfg, seed);
        let got = (
            fnv1a(log.as_bytes()),
            log.len(),
            fnv1a(format!("{report:?}").as_bytes()),
        );
        if got != want {
            failures.push(format!(
                "{name} seed {seed}: (0x{:016x}, {}, 0x{:016x}), pinned (0x{:016x}, {}, 0x{:016x})",
                got.0, got.1, got.2, want.0, want.1, want.2
            ));
        }
        reports.push(report);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    reports
}

/// Jobs over `reports` that ran on `family`.
fn total_on(reports: &[SchedReport], family: Option<FamilyId>) -> usize {
    reports.iter().map(|r| ran_on(r, family)).sum()
}

#[test]
fn catalog_runs_keep_their_fingerprints() {
    let cfg = config(Some(InstanceFamily::catalog()), 48, AppFits::default());
    let reports = check(
        "catalog",
        &cfg,
        [
            (0x129d_4dcd_18a0_2e00, 1_421_752, 0x0c82_ef54_7491_589a),
            (0xc67a_520b_ecfd_2975, 1_302_014, 0x3b53_f751_bec8_0fe9),
            (0xe04f_f598_f963_9f3a, 1_546_393, 0xcc48_9e91_719e_e7ce),
        ],
    );
    for family in InstanceFamily::catalog() {
        assert!(
            total_on(&reports, Some(family.id)) > 0,
            "no job ran on {:?}",
            family.id
        );
    }
}

#[test]
fn fallback_runs_keep_their_fingerprints() {
    // Low-power fleets are ~1.9x the base fleet, so on six instances some
    // admitted jobs fit no family and run the plan of the base fit.
    let cfg = config(
        Some(vec![InstanceFamily::low_power()]),
        6,
        AppFits::default(),
    );
    let reports = check(
        "fallback",
        &cfg,
        [
            (0x1bcc_ccf7_325a_ac43, 613_267, 0x29d4_cc93_9563_ea5b),
            (0x7b22_eec0_f485_49df, 654_833, 0xb768_31ea_246f_a1db),
            (0x0ecc_1a33_f783_0235, 660_258, 0xe0fa_347d_88a8_b567),
        ],
    );
    assert!(
        total_on(&reports, Some(FamilyId::LowPower)) > 0,
        "no family plan ran"
    );
    assert!(
        total_on(&reports, None) > 0,
        "no job fell back to its base plan"
    );
    assert!(
        reports.iter().map(|r| r.rejected).sum::<usize>() > 0,
        "no job was rejected"
    );
}

#[test]
fn classic_runs_keep_their_fingerprints() {
    let cfg = config(None, 48, AppFits::default());
    let reports = check(
        "classic",
        &cfg,
        [
            (0x4651_2c12_c584_0720, 1_180_308, 0x4864_c3b8_0787_517e),
            (0x30c2_5f89_1b95_7201, 1_053_043, 0x4f43_41be_3c1c_2ac6),
            (0x38f7_1aba_a875_962c, 1_275_977, 0x9b93_d3fd_2efa_2eaa),
        ],
    );
    assert_eq!(
        total_on(&reports, None),
        3 * JOBS,
        "a classic job was rejected"
    );
}

#[test]
fn logquad_runs_keep_their_fingerprints() {
    let cfg = config(Some(InstanceFamily::catalog()), 48, logquad_fits());
    let reports = check(
        "logquad",
        &cfg,
        [
            (0x8ada_e0e1_b429_ebad, 1_484_417, 0x83ae_0905_5e6c_2944),
            (0x42c7_7c35_4ea9_aaa2, 1_322_660, 0x712e_d5a5_a7eb_00a4),
            (0x4116_5387_c205_1d97, 1_598_112, 0xb216_160c_5243_e515),
        ],
    );
    for family in InstanceFamily::catalog() {
        assert!(
            total_on(&reports, Some(family.id)) > 0,
            "no LogQuad job ran on {:?}",
            family.id
        );
    }
}
