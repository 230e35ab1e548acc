//! Chaos harness: drive the provisioning executor through seeded fault
//! schedules and prove the three headline properties end to end.
//!
//! 1. **Determinism** — the same seed yields a bitwise-identical fault
//!    schedule and a bitwise-identical `DegradedReport` (checked down to
//!    the serialized JSON string).
//! 2. **Conservation** — no fault sequence can lose or double-process
//!    bytes: the surviving + requeued + abandoned shares always
//!    reconstruct a valid packing of the input corpus
//!    (`binpack::check_packing_with`).
//! 3. **Deadline calibration** — over ≥100 seeded trials on a noisy,
//!    faulty cloud, the paper's adjusted deadline (§5.2) plus retries
//!    keeps the empirical miss rate at or below 10 % while naive
//!    capacity-driven planning blows far past it.
//!
//! The trial base seed honours `CHAOS_SEED` so CI can sweep a seed matrix
//! without recompiling.

use binpack::{check_packing_with, CheckOptions, Packing};
use corpus::FileSpec;
use ec2sim::{Cloud, CloudConfig, DataLocation, FaultConfig, FaultPlan, InstanceType, NoiseModel};
use perfmodel::{fit, Fit, ModelKind};
use proptest::prelude::*;
use provision::{
    execute_plan_resilient, make_plan, DegradedReport, ExecutionConfig, Plan, RetryPolicy,
    StagingTier, Strategy,
};
use std::collections::BTreeMap;
use textapps::GrepCostModel;

/// Base seed for the trial sweep; CI sets `CHAOS_SEED` to walk a matrix.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The noisy homogeneous cloud the trials run on: identical hardware so
/// the model is exact, full measurement noise so deadlines can miss.
fn trial_cloud(seed: u64) -> CloudConfig {
    CloudConfig {
        seed,
        homogeneous: true,
        noise: NoiseModel::default(),
        ..CloudConfig::default()
    }
}

/// Fit the performance model by probing the simulated cloud itself —
/// the residuals the adjusted deadline consumes are real observation
/// noise, not synthetic.
fn probe_fit() -> Fit {
    let mut cloud = Cloud::new(trial_cloud(0x5EED));
    let inst = cloud
        .launch(InstanceType::Small, ec2sim::AvailabilityZone::us_east_1a())
        .unwrap();
    cloud.wait_until_running(inst).unwrap();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for step in 1..=12u64 {
        let bytes = step * 150_000_000;
        for _ in 0..4 {
            let r = cloud
                .submit_job(
                    inst,
                    &GrepCostModel::default(),
                    &[FileSpec::new(0, bytes)],
                    DataLocation::Local,
                    0.0,
                )
                .unwrap();
            xs.push(bytes as f64);
            ys.push(r.observed_secs);
        }
    }
    fit(ModelKind::Affine, &xs, &ys)
}

fn corpus_files(n: u64, size: u64) -> Vec<FileSpec> {
    (0..n).map(|i| FileSpec::new(i, size)).collect()
}

/// A deliberately hostile schedule: most instances suffer something.
fn harsh_faults() -> FaultConfig {
    FaultConfig {
        horizon_secs: 900.0,
        crash_prob: 0.30,
        preemption_prob: 0.15,
        slowdown_prob: 0.25,
        boot_delay_prob: 0.25,
        attach_failure_prob: 0.30,
        s3_get_errors: 2,
        s3_put_errors: 2,
        ..FaultConfig::default()
    }
}

/// Moderate background failure rates for the calibration trials.
fn trial_faults() -> FaultConfig {
    FaultConfig {
        horizon_secs: 600.0,
        crash_prob: 0.05,
        preemption_prob: 0.02,
        slowdown_prob: 0.05,
        slowdown_factor: (1.02, 1.35),
        boot_delay_prob: 0.05,
        attach_failure_prob: 0.05,
        ..FaultConfig::default()
    }
}

fn run_trial(seed: u64, faults: &FaultConfig, plan: &Plan, staging: StagingTier) -> DegradedReport {
    let schedule = FaultPlan::generate(seed, faults);
    let mut cloud = Cloud::with_faults(trial_cloud(seed), &schedule);
    // Data is pre-staged in the trials: job time is the application run
    // the fitted model predicts, which is what the deadline governs.
    let cfg = ExecutionConfig {
        staging,
        stage_in_secs: 0.0,
        ..ExecutionConfig::default()
    };
    execute_plan_resilient(
        &mut cloud,
        plan,
        &GrepCostModel::default(),
        &cfg,
        &RetryPolicy::default(),
    )
    .unwrap()
}

/// Rebuild a `Packing` of `files` from the degraded report: completed
/// shares carry the files they actually processed, abandoned shares carry
/// the files the plan assigned them (they are lost, not vanished). Members
/// are positions in `files`, found by id and size; a file the corpus lacks,
/// or holds at another size, maps past its end, which the checker reports
/// as foreign. Every `(id, size)` must land in exactly one bin.
fn reconstruct_packing(files: &[FileSpec], plan: &Plan, report: &DegradedReport) -> Packing {
    let position: BTreeMap<(u64, u64), u32> = files
        .iter()
        .enumerate()
        .map(|(i, f)| ((f.id, f.size), i as u32))
        .collect();
    let mut packing = Packing::new(u64::MAX);
    for (idx, share) in plan.instances.iter().enumerate() {
        let source = if report.failed_shares.contains(&idx) {
            &share.files
        } else {
            &report.share_files[idx]
        };
        let used = source.iter().map(|f| f.size).sum();
        let members = source
            .iter()
            .map(|f| position.get(&(f.id, f.size)).copied().unwrap_or(u32::MAX));
        packing.push_bin(members, used);
    }
    packing
}

#[test]
fn same_seed_produces_bitwise_identical_schedule_and_report() {
    let model = probe_fit();
    let files = corpus_files(120, 50_000_000); // 6 GB
    let plan = make_plan(Strategy::UniformBins, &files, &model, 20.0).unwrap();
    let seed = chaos_seed().wrapping_mul(1_000_003).wrapping_add(17);

    let schedule_a = FaultPlan::generate(seed, &harsh_faults());
    let schedule_b = FaultPlan::generate(seed, &harsh_faults());
    assert_eq!(schedule_a, schedule_b);
    assert!(!schedule_a.is_empty());

    let a = run_trial(seed, &harsh_faults(), &plan, StagingTier::Ebs);
    let b = run_trial(seed, &harsh_faults(), &plan, StagingTier::Ebs);
    assert_eq!(a, b);
    // Down to the serialized artifact CI uploads.
    let ja = serde_json::to_string(&a).unwrap();
    let jb = serde_json::to_string(&b).unwrap();
    assert_eq!(ja, jb);
    // A different seed really does produce a different world.
    let c = run_trial(seed ^ 0xFFFF, &harsh_faults(), &plan, StagingTier::Ebs);
    assert_ne!(serde_json::to_string(&c).unwrap(), ja);
}

#[test]
fn every_fault_sequence_conserves_bytes_exactly_once() {
    let model = probe_fit();
    let files = corpus_files(120, 50_000_000);
    let total: u64 = files.iter().map(|f| f.size).sum();
    let plan = make_plan(Strategy::UniformBins, &files, &model, 20.0).unwrap();
    let base = chaos_seed() * 10_000;
    for trial in 0..40u64 {
        for staging in [StagingTier::Ebs, StagingTier::Local] {
            let report = run_trial(base + trial, &harsh_faults(), &plan, staging);
            // Bytes on completed runs + bytes on abandoned shares = corpus.
            let done: u64 = report.execution.runs.iter().map(|r| r.volume).sum();
            assert_eq!(done + report.lost_bytes, total, "trial {trial}");
            // Structural exactly-once check through the packing sanitizer:
            // every input file lands in exactly one share, none invented,
            // none dropped, none duplicated.
            let packing = reconstruct_packing(&files, &plan, &report);
            check_packing_with(
                &files,
                &packing,
                CheckOptions {
                    allow_empty_bins: true,
                    require_input_order: false,
                    enforce_capacity: false,
                },
            )
            .unwrap_or_else(|v| panic!("trial {trial}: {v:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized fault-rate sweep of the conservation property: whatever
    /// the failure mix, the resilient executor neither loses nor
    /// double-processes a byte.
    #[test]
    fn conservation_holds_for_arbitrary_fault_rates(
        seed in 0u64..500,
        crash in 0.0f64..0.5,
        preempt in 0.0f64..0.3,
        attach in 0.0f64..0.5,
        boot in 0.0f64..0.5,
    ) {
        let model = probe_fit();
        let files = corpus_files(60, 50_000_000);
        let total: u64 = files.iter().map(|f| f.size).sum();
        let plan = make_plan(Strategy::UniformBins, &files, &model, 20.0).unwrap();
        let faults = FaultConfig {
            horizon_secs: 900.0,
            crash_prob: crash,
            preemption_prob: preempt,
            attach_failure_prob: attach,
            boot_delay_prob: boot,
            ..FaultConfig::default()
        };
        let report = run_trial(seed, &faults, &plan, StagingTier::Ebs);
        let done: u64 = report.execution.runs.iter().map(|r| r.volume).sum();
        prop_assert_eq!(done + report.lost_bytes, total);
        let packing = reconstruct_packing(&files, &plan, &report);
        let check = check_packing_with(
            &files,
            &packing,
            CheckOptions {
                allow_empty_bins: true,
                require_input_order: false,
                enforce_capacity: false,
            },
        );
        prop_assert!(check.is_ok(), "{:?}", check);
    }
}

/// The paper's calibration claim under chaos: §5.2's adjusted deadline
/// plus bounded retries holds the empirical miss rate at ≤10 % where the
/// naive capacity-driven plan — bins packed right up to the deadline —
/// misses wildly on a noisy, faulty cloud.
#[test]
fn adjusted_deadline_with_retries_beats_naive_under_chaos() {
    const TRIALS: u64 = 120;
    let model = probe_fit();
    let files = corpus_files(200, 50_000_000); // 10 GB → ~8 shares at 20 s
    let deadline = 20.0;
    let naive_plan = make_plan(Strategy::CapacityDriven, &files, &model, deadline).unwrap();
    let adjusted_plan = make_plan(
        Strategy::AdjustedDeadline { p_miss: 0.02 },
        &files,
        &model,
        deadline,
    )
    .unwrap();
    // The adjustment buys headroom: never a smaller fleet, never a later
    // planning deadline than the user's.
    assert!(adjusted_plan.instance_count() >= naive_plan.instance_count());
    assert!(adjusted_plan.planning_deadline_secs <= deadline);

    let base = chaos_seed() * 100_000;
    let mut naive_misses = 0usize;
    let mut naive_shares = 0usize;
    let mut adjusted_misses = 0usize;
    let mut adjusted_shares = 0usize;
    let mut faults_seen = 0usize;
    for trial in 0..TRIALS {
        let seed = base + trial;
        let naive = run_trial(seed, &trial_faults(), &naive_plan, StagingTier::Local);
        naive_misses += naive.execution.misses;
        naive_shares += naive.total_shares();
        let adjusted = run_trial(seed, &trial_faults(), &adjusted_plan, StagingTier::Local);
        adjusted_misses += adjusted.execution.misses;
        adjusted_shares += adjusted.total_shares();
        faults_seen += adjusted.faults_fired + naive.faults_fired;
    }
    let naive_rate = naive_misses as f64 / naive_shares as f64;
    let adjusted_rate = adjusted_misses as f64 / adjusted_shares as f64;
    // The chaos schedule actually did something across the sweep.
    assert!(faults_seen > 0, "no faults fired in {TRIALS} trials");
    assert!(
        naive_rate > 0.10,
        "naive plan should miss often: rate {naive_rate:.3}"
    );
    assert!(
        adjusted_rate <= 0.10,
        "adjusted plan must hold the 10% target: rate {adjusted_rate:.3} \
         (naive {naive_rate:.3})"
    );
    assert!(
        adjusted_rate < naive_rate,
        "adjusted {adjusted_rate:.3} vs naive {naive_rate:.3}"
    );
}
