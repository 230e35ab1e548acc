//! Dedicated executor coverage: table-driven happy paths across strategies
//! and staging tiers, the `ProvisionError` branches, and fault-recovery
//! properties of the resilient path (replanning after a crash costs at
//! most one extra instance-hour).

use corpus::FileSpec;
use ec2sim::{
    Cloud, CloudConfig, CloudError, FaultEvent, FaultKind, FaultPlan, InstanceFamily, InstanceId,
    InstanceType, SharingBackend, VolumeId,
};
use obs::Obs;
use perfmodel::{fit, Fit, ModelKind};
use proptest::prelude::*;
use provision::{
    execute_dynamic, execute_plan, execute_plan_resilient, execute_quality_aware,
    execute_shuffle_observed, make_plan, DynamicConfig, ExecutionConfig, ProvisionError,
    QualityAwareConfig, RetryPolicy, ShuffleConfig, ShuffleError, StagingTier, Strategy,
};
use textapps::GrepCostModel;

/// Model matched to the ideal cloud: 75 MB/s plus a 1 s fixed cost, with a
/// small alternating residual so the adjusted-deadline machinery has a
/// spread to work from.
fn grep_fit() -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| 1.0 + x / 75.0e6 * (1.0 + 0.01 * if k % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    fit(ModelKind::Affine, &xs, &ys)
}

fn corpus_files(n: u64, size: u64) -> Vec<FileSpec> {
    (0..n).map(|i| FileSpec::new(i, size)).collect()
}

/// Deterministic-boot homogeneous cloud for scripted-crash tests.
fn steady_config(seed: u64) -> CloudConfig {
    CloudConfig {
        seed,
        homogeneous: true,
        startup_mean_s: 120.0,
        startup_jitter_s: 0.0,
        slow_fraction: 0.0,
        inconsistent_fraction: 0.0,
        slow_segment_fraction: 0.0,
        ..CloudConfig::default()
    }
}

fn crash_first_fleet_instance(at: f64) -> FaultPlan {
    FaultPlan::scripted(vec![FaultEvent {
        at,
        instance: Some(0),
        volume: None,
        kind: FaultKind::InstanceCrash,
    }])
}

/// `n` transient attach failures on the first fleet volume.
fn attach_failures_on_first_volume(n: u32) -> FaultPlan {
    FaultPlan::scripted(
        (0..n)
            .map(|_| FaultEvent {
                at: 0.0,
                instance: None,
                volume: Some(0),
                kind: FaultKind::EbsAttachFailure,
            })
            .collect(),
    )
}

#[test]
fn happy_path_invariants_across_strategies_and_staging() {
    let m = grep_fit();
    let cases = [
        (Strategy::CapacityDriven, StagingTier::Ebs, 20.0),
        (Strategy::CapacityDriven, StagingTier::Local, 40.0),
        (Strategy::UniformBins, StagingTier::Ebs, 20.0),
        (Strategy::UniformBins, StagingTier::Local, 40.0),
        (
            Strategy::AdjustedDeadline { p_miss: 0.1 },
            StagingTier::Ebs,
            20.0,
        ),
        (
            Strategy::AdjustedDeadline { p_miss: 0.1 },
            StagingTier::Local,
            40.0,
        ),
    ];
    for (i, (strategy, staging, deadline)) in cases.into_iter().enumerate() {
        let files = corpus_files(40, 100_000_000); // 4 GB
        let plan = make_plan(strategy, &files, &m, deadline).unwrap();
        let cfg = ExecutionConfig {
            staging,
            ..ExecutionConfig::default()
        };
        let mut cloud = Cloud::new(CloudConfig::ideal(i as u64));
        let report = execute_plan(&mut cloud, &plan, &GrepCostModel::default(), &cfg).unwrap();
        assert_eq!(report.runs.len(), plan.instance_count(), "case {i}");
        assert_eq!(report.deadline_secs, plan.deadline_secs, "case {i}");
        let max = report.runs.iter().map(|r| r.job_secs).fold(0.0, f64::max);
        assert!((report.makespan_secs - max).abs() < 1e-12, "case {i}");
        let misses = report.runs.iter().filter(|r| !r.met_deadline).count();
        assert_eq!(report.misses, misses, "case {i}");
        assert!(
            (report.cost - report.instance_hours as f64 * 0.085).abs() < 1e-9,
            "case {i}"
        );
        // Every share's bytes are accounted on exactly the planned run.
        for (run, share) in report.runs.iter().zip(&plan.instances) {
            assert_eq!(run.volume, share.volume, "case {i}");
            assert_eq!(run.files, share.files.len(), "case {i}");
        }
    }
}

#[test]
fn provision_error_branches_are_typed_and_printable() {
    let files = corpus_files(10, 1_000_000);
    // Deadline below the model's fixed cost (~1 s intercept).
    let err = make_plan(Strategy::CapacityDriven, &files, &grep_fit(), 1.0e-9).unwrap_err();
    assert!(matches!(
        err,
        ProvisionError::DeadlineBelowFixedCosts { .. }
    ));
    assert!(err.to_string().contains("fixed costs"), "{err}");
    // A flat (zero-slope) model has no inverse at any deadline above its
    // plateau.
    let xs = [1.0e6, 2.0e6, 3.0e6, 4.0e6];
    let ys = [5.0, 5.0, 5.0, 5.0];
    let flat = fit(ModelKind::Affine, &xs, &ys);
    let err = make_plan(Strategy::UniformBins, &files, &flat, 60.0).unwrap_err();
    assert!(
        matches!(
            err,
            ProvisionError::NotInvertible { .. } | ProvisionError::DeadlineBelowFixedCosts { .. }
        ),
        "{err}"
    );
    assert!(!err.to_string().is_empty());
}

#[test]
fn resilient_path_is_identical_to_static_on_a_fault_free_cloud() {
    let m = grep_fit();
    for (seed, staging) in [(1u64, StagingTier::Ebs), (2, StagingTier::Local)] {
        let files = corpus_files(30, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
        let cfg = ExecutionConfig {
            staging,
            ..ExecutionConfig::default()
        };
        let static_report = {
            let mut cloud = Cloud::new(CloudConfig::ideal(seed));
            execute_plan(&mut cloud, &plan, &GrepCostModel::default(), &cfg).unwrap()
        };
        let degraded = {
            let mut cloud = Cloud::with_faults(CloudConfig::ideal(seed), &FaultPlan::none());
            execute_plan_resilient(
                &mut cloud,
                &plan,
                &GrepCostModel::default(),
                &cfg,
                &RetryPolicy::default(),
            )
            .unwrap()
        };
        assert_eq!(degraded.execution, static_report);
        assert_eq!(degraded.crashes + degraded.preemptions, 0);
        assert_eq!(degraded.transient_retries, 0);
        assert_eq!(degraded.replacements, 0);
        assert_eq!(degraded.lost_bytes, 0);
        assert!(degraded.failed_shares.is_empty());
    }
}

#[test]
fn crashed_share_is_requeued_on_a_replacement_and_completes() {
    let m = grep_fit();
    let files = corpus_files(40, 100_000_000); // 4 GB → a few shares
    let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
    assert!(plan.instance_count() >= 2);
    // Kill the first fleet instance 5 s after its boot completes (boot is
    // a deterministic 120 s).
    let mut cloud = Cloud::with_faults(steady_config(3), &crash_first_fleet_instance(125.0));
    let report = execute_plan_resilient(
        &mut cloud,
        &plan,
        &GrepCostModel::default(),
        &ExecutionConfig::default(),
        &RetryPolicy::default(),
    )
    .unwrap();
    assert_eq!(report.crashes, 1);
    assert_eq!(report.replacements, 1);
    assert_eq!(report.requeued_shares, 1);
    assert!(report.failed_shares.is_empty());
    assert_eq!(report.lost_bytes, 0);
    assert_eq!(report.recovered_bytes, plan.instances[0].volume);
    assert_eq!(report.execution.runs.len(), plan.instance_count());
    // Recovery time counts against the share's deadline clock.
    let clean = {
        let mut cloud = Cloud::new(steady_config(3));
        execute_plan_resilient(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
            &RetryPolicy::default(),
        )
        .unwrap()
    };
    assert!(report.execution.runs[0].job_secs > clean.execution.runs[0].job_secs);
}

#[test]
fn exhausted_replacements_account_the_share_as_lost() {
    let m = grep_fit();
    let files = corpus_files(10, 100_000_000); // 1 GB → one share
    let plan = make_plan(Strategy::UniformBins, &files, &m, 60.0).unwrap();
    assert_eq!(plan.instance_count(), 1);
    let mut cloud = Cloud::with_faults(steady_config(4), &crash_first_fleet_instance(125.0));
    let retry = RetryPolicy {
        max_replacements: 0,
        ..RetryPolicy::default()
    };
    let report = execute_plan_resilient(
        &mut cloud,
        &plan,
        &GrepCostModel::default(),
        &ExecutionConfig::default(),
        &retry,
    )
    .unwrap();
    assert_eq!(report.failed_shares, vec![0]);
    assert_eq!(report.lost_bytes, 1_000_000_000);
    assert_eq!(report.execution.misses, 1);
    assert!(report.execution.runs.is_empty());
    assert!(report.share_files[0].is_empty());
}

#[test]
fn transient_attach_failures_are_absorbed_by_backoff() {
    let m = grep_fit();
    let files = corpus_files(10, 100_000_000);
    let plan = make_plan(Strategy::UniformBins, &files, &m, 60.0).unwrap();
    // Two transient failures on the first fleet volume.
    let plan_faults = FaultPlan::scripted(vec![
        FaultEvent {
            at: 0.0,
            instance: None,
            volume: Some(0),
            kind: FaultKind::EbsAttachFailure,
        },
        FaultEvent {
            at: 0.0,
            instance: None,
            volume: Some(0),
            kind: FaultKind::EbsAttachFailure,
        },
    ]);
    let mut cloud = Cloud::with_faults(steady_config(5), &plan_faults);
    let report = execute_plan_resilient(
        &mut cloud,
        &plan,
        &GrepCostModel::default(),
        &ExecutionConfig::default(),
        &RetryPolicy::default(),
    )
    .unwrap();
    assert_eq!(report.transient_retries, 2);
    assert!(report.failed_shares.is_empty());
    assert_eq!(report.crashes + report.preemptions + report.replacements, 0);
}

#[test]
fn exhausted_attach_retries_fail_the_share_and_release_its_instance() {
    let m = grep_fit();
    let files = corpus_files(10, 100_000_000); // 1 GB → one share
    let plan = make_plan(Strategy::UniformBins, &files, &m, 60.0).unwrap();
    assert_eq!(plan.instance_count(), 1);
    let retry = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    let faults = attach_failures_on_first_volume(retry.max_attempts + 1);
    let mut cloud = Cloud::with_faults(steady_config(6), &faults);
    let report = execute_plan_resilient(
        &mut cloud,
        &plan,
        &GrepCostModel::default(),
        &ExecutionConfig::default(),
        &retry,
    )
    .unwrap();
    // Every attempt but the last backs off; the last gives up.
    assert_eq!(report.transient_retries, retry.max_attempts as usize - 1);
    assert_eq!(report.failed_shares, vec![0]);
    assert_eq!(report.lost_bytes, 1_000_000_000);
    assert_eq!(report.execution.misses, 1);
    assert!(report.execution.runs.is_empty());
    assert!(report.share_files[0].is_empty());
    assert_eq!(report.crashes + report.preemptions + report.replacements, 0);
    // The stuck instance was released: terminated at the give-up time and
    // billed its started hour, on the report and on the ledger alike.
    assert!(report.finished_at > 120.0, "{}", report.finished_at);
    assert_eq!(report.execution.instance_hours, 1);
    assert_eq!(cloud.ledger().total_instance_hours(), 1);
    assert!((report.execution.cost - cloud.ledger().total_cost()).abs() < 1e-12);
}

#[test]
fn exhausted_attach_retries_stop_the_shuffle_in_its_map_phase() {
    // ~1 s per MB: the shuffle tests' compute model.
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e6).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 1.0e-6 * x).collect();
    let files: Vec<FileSpec> = (0..6).map(|i| FileSpec::new(i, 2_000 + 137 * i)).collect();
    let plan = make_plan(
        Strategy::UniformBins,
        &files,
        &fit(ModelKind::Affine, &xs, &ys),
        10.0,
    )
    .unwrap();
    let cfg = ShuffleConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..ShuffleConfig::default()
    };
    assert_eq!(cfg.exec.staging, StagingTier::Ebs);
    let faults = attach_failures_on_first_volume(cfg.retry.max_attempts);
    let mut cloud = Cloud::with_faults(CloudConfig::default(), &faults);
    let obs = Obs::recording(0);
    let err =
        execute_shuffle_observed(&mut cloud, &cfg, &plan, SharingBackend::S3, &obs).unwrap_err();
    assert_eq!(
        err,
        ShuffleError::Cloud(CloudError::AttachFailed(VolumeId(0)))
    );
    let log = obs.to_ndjson();
    assert_eq!(log.matches("shuffle.transient_retries").count(), 1);
    assert!(!log.contains("shuffle.xfer"), "no transfer may start");
}

/// `execute_plan` runs every share through the resilient share attempt, so
/// an instance crash after boot is recovered on a replacement instead of
/// aborting the run.
#[test]
fn execute_plan_finishes_a_crashed_share_on_a_replacement() {
    let m = grep_fit();
    let files = corpus_files(40, 100_000_000);
    let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
    assert!(plan.instance_count() >= 2);
    let mut cloud = Cloud::with_faults(steady_config(3), &crash_first_fleet_instance(125.0));
    let report = execute_plan(
        &mut cloud,
        &plan,
        &GrepCostModel::default(),
        &ExecutionConfig::default(),
    )
    .unwrap();
    assert_eq!(cloud.fault_log().len(), 1);
    assert_eq!(report.runs.len(), plan.instance_count());
    for (run, share) in report.runs.iter().zip(&plan.instances) {
        assert_eq!(run.volume, share.volume);
        assert_eq!(run.files, share.files.len());
    }
    assert_ne!(
        report.runs[0].instance,
        InstanceId(0),
        "ran on the crashed instance"
    );
}

/// Every executor bills the family's rate on instances launched through the
/// family, so each report's cost is its hours at that rate and matches the
/// simulated cloud's ledger.
#[test]
fn every_executor_bills_the_configured_family() {
    let family = InstanceFamily::hi_cpu();
    let cfg = ExecutionConfig {
        itype: family.itype,
        family: Some(family),
        ..ExecutionConfig::default()
    };
    let m = grep_fit();
    let files = corpus_files(40, 100_000_000);
    let plan = make_plan(Strategy::UniformBins, &files, &m, 30.0).unwrap();
    let model = GrepCostModel::default();
    let check = |name: &str, cloud: &Cloud, report: &provision::ExecutionReport| {
        assert!(report.instance_hours > 0, "{name}");
        let billed = report.instance_hours as f64 * family.on_demand_rate;
        assert!((report.cost - billed).abs() < 1e-9, "{name}: {report:?}");
        assert!(
            (report.cost - cloud.ledger().total_cost()).abs() < 1e-9,
            "{name}: report ${} vs ledger ${}",
            report.cost,
            cloud.ledger().total_cost()
        );
    };

    let mut cloud = Cloud::new(CloudConfig::ideal(3));
    let report = execute_plan(&mut cloud, &plan, &model, &cfg).unwrap();
    check("static", &cloud, &report);

    let mut cloud = Cloud::new(CloudConfig::ideal(3));
    let report = execute_dynamic(
        &mut cloud,
        &plan,
        &model,
        &m,
        &cfg,
        &DynamicConfig::default(),
    )
    .unwrap();
    check("dynamic", &cloud, &report.execution);

    let mut cloud = Cloud::new(CloudConfig::ideal(3));
    let report = execute_quality_aware(
        &mut cloud,
        &files,
        &m,
        30.0,
        &model,
        &cfg,
        &QualityAwareConfig::default(),
    )
    .unwrap();
    check("quality-aware", &cloud, &report.execution);

    // On a hostile fleet the monitor retires laggards and the probe
    // rejects candidates; those instances are billed too.
    let hostile = CloudConfig {
        seed: 9000,
        slow_fraction: 1.0,
        inconsistent_fraction: 0.0,
        startup_mean_s: 5.0,
        startup_jitter_s: 0.0,
        slow_segment_fraction: 0.0,
        ..CloudConfig::default()
    };
    let mut cloud = Cloud::new(hostile);
    let retiring = DynamicConfig {
        batches: 6,
        slowdown_threshold: 1.0,
        max_replacements: 3,
    };
    let report = execute_dynamic(&mut cloud, &plan, &model, &m, &cfg, &retiring).unwrap();
    assert!(report.replacements > 0, "no laggard retired: {report:?}");
    check("dynamic on a hostile fleet", &cloud, &report.execution);

    let mut cloud = Cloud::new(hostile);
    let rejecting = QualityAwareConfig {
        min_usable_mbps: 75.0,
        ..QualityAwareConfig::default()
    };
    let report =
        execute_quality_aware(&mut cloud, &files, &m, 30.0, &model, &cfg, &rejecting).unwrap();
    assert!(report.rejected > 0, "no candidate rejected: {report:?}");
    check(
        "quality-aware on a hostile fleet",
        &cloud,
        &report.execution,
    );
}

#[test]
fn a_family_less_fleet_reports_what_the_ledger_bills() {
    let cfg = ExecutionConfig {
        itype: InstanceType::Large,
        ..ExecutionConfig::default()
    };
    let files = corpus_files(30, 100_000_000);
    let plan = make_plan(Strategy::UniformBins, &files, &grep_fit(), 15.0).unwrap();
    let mut cloud = Cloud::new(CloudConfig::ideal(3));
    let report = execute_plan(&mut cloud, &plan, &GrepCostModel::default(), &cfg).unwrap();
    assert!(report.instance_hours > 0, "{report:?}");
    let billed = report.instance_hours as f64 * InstanceType::Large.hourly_rate();
    assert!((report.cost - billed).abs() < 1e-9, "{report:?}");
    let ledger = cloud.ledger().total_cost();
    assert!(
        (report.cost - ledger).abs() < 1e-9,
        "{report:?} vs ledger ${ledger}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replanning after a single crash never costs more than one extra
    /// instance-hour: the dead attempt's partial hour plus the
    /// replacement's hour can exceed the clean bill by at most one for
    /// sub-hour bins.
    #[test]
    fn replanning_after_a_crash_adds_at_most_one_instance_hour(
        seed in 0u64..64,
        crash_offset in 0.0f64..400.0,
    ) {
        let m = grep_fit();
        let files = corpus_files(40, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
        let cfg = ExecutionConfig::default();
        let retry = RetryPolicy::default();
        let clean = {
            let mut cloud = Cloud::new(steady_config(seed));
            execute_plan_resilient(&mut cloud, &plan, &GrepCostModel::default(), &cfg, &retry)
                .unwrap()
        };
        let faulty = {
            let mut cloud = Cloud::with_faults(
                steady_config(seed),
                &crash_first_fleet_instance(crash_offset),
            );
            execute_plan_resilient(&mut cloud, &plan, &GrepCostModel::default(), &cfg, &retry)
                .unwrap()
        };
        prop_assert!(faulty.crashes <= 1);
        prop_assert!(faulty.failed_shares.is_empty());
        prop_assert!(
            faulty.execution.instance_hours <= clean.execution.instance_hours + 1,
            "clean {} faulty {}",
            clean.execution.instance_hours,
            faulty.execution.instance_hours
        );
    }
}
