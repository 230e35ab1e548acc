//! Differential harness for the distributed aggregation pipeline: the
//! shuffle's reduce output must equal the sequential in-memory oracle
//! bit-for-bit on every sharing backend, and the whole run — plan,
//! report, NDJSON event log — must be byte-identical across `Parallelism`
//! settings and replays, including under a non-empty `FaultPlan`.

use binpack::Parallelism;
use corpus::FileSpec;
use ec2sim::{
    Cloud, CloudConfig, FaultEvent, FaultKind, FaultPlan, InstanceFamily, SharingBackend,
};
use obs::Obs;
use perfmodel::{fit as fit_model, Fit, ModelKind};
use provision::{
    execute_aggregation_observed, execute_shuffle_observed, make_plan, plan_aggregation,
    AggregationReport, ShuffleConfig, Strategy,
};
use textapps::aggregate::{oracle, render};
use textapps::AggKind;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The strategy-test compute model: ~1 s per MB with ±2 % wobble.
fn compute_fit() -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e6).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| 1.0e-6 * x * (1.0 + 0.02 * if k % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    fit_model(ModelKind::Affine, &xs, &ys)
}

fn corpus(n: u64) -> Vec<FileSpec> {
    (0..n).map(|i| FileSpec::new(i, 2_000 + 137 * i)).collect()
}

fn scripted_s3_faults() -> FaultPlan {
    FaultPlan::scripted(vec![
        FaultEvent {
            at: 0.0,
            instance: None,
            volume: None,
            kind: FaultKind::S3TransientPut,
        },
        FaultEvent {
            at: 0.0,
            instance: None,
            volume: None,
            kind: FaultKind::S3TransientGet,
        },
    ])
}

/// One full forced-backend run under a given worker count: returns the
/// canonical reduce output and the NDJSON event log.
fn run_forced(
    backend: SharingBackend,
    workers: usize,
    kind: AggKind,
    faults: &FaultPlan,
) -> (Vec<u8>, String) {
    Parallelism::Rayon(workers).install(|| {
        let files = corpus(9);
        let fit = compute_fit();
        let cfg = ShuffleConfig {
            kind,
            ..ShuffleConfig::default()
        };
        let plan = make_plan(Strategy::UniformBins, &files, &fit, 12.0).unwrap();
        let obs = Obs::recording(cfg.seed);
        let mut cloud = Cloud::with_faults(CloudConfig::default(), faults);
        let report = execute_shuffle_observed(&mut cloud, &cfg, &plan, backend, &obs).unwrap();
        (report.output(), obs.to_ndjson())
    })
}

/// Every backend, every worker count: the reduce output equals the
/// sequential oracle bit-for-bit, and the NDJSON log never varies with
/// the worker count (the log is a pure function of seed + config).
#[test]
fn all_backends_match_the_sequential_oracle_across_worker_counts() {
    let files = corpus(9);
    for kind in [AggKind::TermCount, AggKind::Dedup] {
        let expected = render(&oracle(kind, ShuffleConfig::default().corpus_seed, &files));
        for backend in SharingBackend::ALL {
            let (base_out, base_log) = run_forced(backend, WORKERS[0], kind, &FaultPlan::none());
            assert_eq!(
                base_out, expected,
                "{backend:?}/{kind:?} output must equal the sequential oracle"
            );
            assert!(
                !base_log.is_empty(),
                "the observed run must emit an event log"
            );
            for &w in &WORKERS[1..] {
                let (out, log) = run_forced(backend, w, kind, &FaultPlan::none());
                assert_eq!(out, expected, "{backend:?}/{kind:?} with {w} workers");
                assert_eq!(
                    log, base_log,
                    "{backend:?}/{kind:?} NDJSON log must be byte-identical at {w} workers"
                );
            }
        }
    }
}

/// Replaying the same seed and config under an armed (non-empty) fault
/// plan reproduces the identical log and output at every worker count —
/// retries are scheduled on the simulated clock, not the host's.
#[test]
fn fault_plan_replay_is_byte_identical_across_worker_counts() {
    let faults = scripted_s3_faults();
    let (base_out, base_log) =
        run_forced(SharingBackend::S3, WORKERS[0], AggKind::TermCount, &faults);
    let files = corpus(9);
    let expected = render(&oracle(
        AggKind::TermCount,
        ShuffleConfig::default().corpus_seed,
        &files,
    ));
    assert_eq!(base_out, expected, "faults must not corrupt the output");
    assert!(
        base_log.contains("transient_retries"),
        "the injected transients must be visible in the log:\n{base_log}"
    );
    for &w in &WORKERS[1..] {
        let (out, log) = run_forced(SharingBackend::S3, w, AggKind::TermCount, &faults);
        assert_eq!(out, base_out, "fault replay output at {w} workers");
        assert_eq!(log, base_log, "fault replay NDJSON at {w} workers");
    }
}

/// The planner-chosen end-to-end pipeline is also invariant: same seed,
/// same config, any worker count → identical report (plan, backend choice,
/// costs, outputs) and identical event log.
#[test]
fn planned_pipeline_is_deterministic_across_worker_counts() {
    let run = |workers: usize| {
        Parallelism::Rayon(workers).install(|| {
            let files = corpus(11);
            let fit = compute_fit();
            let cfg = ShuffleConfig::default();
            let obs = Obs::recording(cfg.seed);
            let mut cloud = Cloud::new(CloudConfig::default());
            let agg =
                execute_aggregation_observed(&mut cloud, &cfg, &files, &fit, 45.0, &obs).unwrap();
            (
                serde_json::to_string(&agg.plan).unwrap(),
                agg.exec.output(),
                agg.exec.total_cost().to_bits(),
                obs.to_ndjson(),
            )
        })
    };
    let base = run(WORKERS[0]);
    for &w in &WORKERS[1..] {
        assert_eq!(run(w), base, "planned pipeline differs at {w} workers");
    }
}

/// The one-call pipeline hands the planner's map partials to the executor
/// instead of mapping again. That must change nothing: its report and
/// NDJSON log equal planning and executing as two calls, for both kinds,
/// with and without injected S3 transients.
#[test]
fn one_map_pass_pipeline_equals_plan_then_execute() {
    // Files large enough that the planner picks S3, so the scripted
    // transients hit real transfers, under a deadline that needs several
    // map bins, so the hand-off carries more than one bin's partials.
    let files: Vec<FileSpec> = (0..11)
        .map(|i| FileSpec::new(i, 100_000 + 137 * i))
        .collect();
    let fit = compute_fit();
    let deadline = 0.5;
    for kind in [AggKind::TermCount, AggKind::Dedup] {
        for (faults, faulted) in [(FaultPlan::none(), false), (scripted_s3_faults(), true)] {
            let cfg = ShuffleConfig {
                kind,
                ..ShuffleConfig::default()
            };
            let obs = Obs::recording(cfg.seed);
            let mut cloud = Cloud::with_faults(CloudConfig::default(), &faults);
            let fused =
                execute_aggregation_observed(&mut cloud, &cfg, &files, &fit, deadline, &obs)
                    .unwrap();
            let fused_log = obs.to_ndjson();

            let obs = Obs::recording(cfg.seed);
            let mut cloud = Cloud::with_faults(CloudConfig::default(), &faults);
            let (plan, shuffle_plan) = plan_aggregation(&cfg, &files, &fit, deadline).unwrap();
            let exec =
                execute_shuffle_observed(&mut cloud, &cfg, &plan, shuffle_plan.backend, &obs)
                    .unwrap();
            let split = AggregationReport {
                plan: shuffle_plan,
                exec,
            };
            assert_eq!(split.plan.backend, SharingBackend::S3);
            assert!(split.exec.map_shares > 1, "{kind:?}: one map bin");
            assert_eq!(split.exec.transient_retries > 0, faulted, "{kind:?}");
            assert_eq!(fused, split, "{kind:?}: reports differ");
            assert_eq!(fused_log, obs.to_ndjson(), "{kind:?}: logs differ");
        }
    }
}

/// With an instance family set, the map and reduce instances launch at
/// the family's rate, so the report's fleet dollars must be what the
/// cloud's ledger billed, not the flat pricing-model rate.
#[test]
fn compute_cost_bills_the_family_rate() {
    let files = corpus::text_400k(0.001, 5).files;
    // About 150 s fixed plus 1e-4 s per byte, ±2 %: spreads the map phase
    // over several instances against the 300 s deadline.
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 100_000.0).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| (150.0 + 1.0e-4 * x) * if k % 2 == 0 { 1.02 } else { 0.98 })
        .collect();
    let fit = fit_model(ModelKind::Affine, &xs, &ys);
    let mut cfg = ShuffleConfig::default();
    cfg.exec.family = Some(InstanceFamily::hi_cpu());
    let mut cloud = Cloud::new(CloudConfig::default());
    let agg = execute_aggregation_observed(&mut cloud, &cfg, &files, &fit, 300.0, &Obs::default())
        .unwrap();
    let billed = cloud.ledger().total_cost();
    assert!(billed > 0.0);
    assert!(
        (agg.exec.compute_cost - billed).abs() < 1e-9,
        "report bills ${:.4}, the ledger ${billed:.4}",
        agg.exec.compute_cost
    );
}
