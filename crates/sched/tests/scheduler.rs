//! End-to-end scheduler behaviour: admission, EDF ordering, warm-pool
//! economics, and the billed-hours bound vs isolated provisioning.

use ec2sim::CloudConfig;
use proptest::prelude::*;
use provision::{
    execute_plan_resilient, make_plan, ExecutionConfig, FreshFleet, RetryPolicy, StagingTier,
    Strategy,
};
use sched::{run_trace, Admission, JobStatus, PoolConfig, SchedConfig, TraceConfig};

/// A deterministic cloud (homogeneous, noiseless, jitter-free) so pooled
/// and isolated worlds observe identical share durations.
fn clean_cloud(seed: u64) -> CloudConfig {
    CloudConfig {
        startup_mean_s: 60.0,
        ..CloudConfig::ideal(seed)
    }
}

fn base_config(seed: u64) -> SchedConfig {
    SchedConfig {
        cloud: clean_cloud(seed),
        exec: ExecutionConfig {
            staging: StagingTier::Local,
            stage_in_secs: 10.0,
            ..ExecutionConfig::default()
        },
        ..SchedConfig::default()
    }
}

#[test]
fn default_trace_completes_with_accounting_that_adds_up() {
    let trace = TraceConfig::default().generate();
    let report = run_trace(&base_config(7), &trace).expect("run");
    assert_eq!(report.jobs.len(), trace.jobs.len());
    assert_eq!(report.completed + report.rejected, trace.jobs.len());
    assert!(report.completed > 0, "nothing ran");
    // Tenant accounts partition the job set and the billed hours.
    let tenant_jobs: u64 = report.tenants.iter().map(|t| t.submitted).sum();
    assert_eq!(tenant_jobs as usize, trace.jobs.len());
    let tenant_hours: u64 = report.tenants.iter().map(|t| t.billed_hours).sum();
    assert_eq!(tenant_hours, report.total_billed_hours);
    // Pool attribution and job attribution agree.
    assert_eq!(report.pool.billed_hours, report.total_billed_hours);
    assert!((report.total_cost - report.total_billed_hours as f64 * 0.085).abs() < 1e-9);
    // Every completed job carries a plausible record.
    for (outcome, job) in report.jobs.iter().zip(&trace.jobs) {
        assert_eq!(outcome.job_id, job.id);
        match outcome.status {
            JobStatus::Rejected => assert!(matches!(outcome.admission, Admission::Rejected(_))),
            _ => {
                assert!(matches!(outcome.admission, Admission::Accepted { .. }));
                assert!(outcome.finished_at >= job.arrival_secs);
                assert!(outcome.wait_secs >= 0.0);
            }
        }
    }
}

#[test]
fn same_seed_same_report() {
    let trace = TraceConfig::default().generate();
    let a = run_trace(&base_config(3), &trace).expect("a");
    let b = run_trace(&base_config(3), &trace).expect("b");
    assert_eq!(a, b);
}

#[test]
fn warm_reuse_never_costs_more_and_usually_saves() {
    // Short jobs arriving close together are the warm pool's best case:
    // most shares fit inside hours someone already bought.
    let trace = TraceConfig {
        jobs: 30,
        mean_interarrival_secs: 90.0,
        pos_fraction: 0.0,
        ..TraceConfig::default()
    }
    .generate();
    let pooled = run_trace(&base_config(11), &trace).expect("pooled");
    let isolated = run_trace(
        &SchedConfig {
            pool: PoolConfig {
                warm_reuse: false,
                ..PoolConfig::default()
            },
            ..base_config(11)
        },
        &trace,
    )
    .expect("isolated");
    assert!(pooled.total_billed_hours <= isolated.total_billed_hours);
    assert!(
        pooled.pool.warm_hits > 0,
        "dense short-job trace must produce warm hits"
    );
    assert!(
        pooled.total_billed_hours < isolated.total_billed_hours,
        "pooled {} vs isolated {}: reuse must save on this trace",
        pooled.total_billed_hours,
        isolated.total_billed_hours
    );
}

#[test]
fn higher_priority_dispatches_first_at_contention() {
    // Two jobs arrive together; the pool only fits one at a time. The
    // higher-priority job must go first even with a later deadline.
    let mut trace = TraceConfig {
        jobs: 2,
        tenants: 2,
        mean_interarrival_secs: 0.001,
        volume_range: (400_000_000, 400_000_000),
        deadline_range: (3_000.0, 3_000.0),
        pos_fraction: 1.0,
        ..TraceConfig::default()
    }
    .generate();
    trace.jobs[0].priority = 0;
    trace.jobs[1].priority = 2;
    // Same instant, so both sit in the queue at one dispatch decision.
    trace.jobs[1].arrival_secs = trace.jobs[0].arrival_secs;
    let needed = {
        let probe = run_trace(&base_config(1), &trace).expect("probe");
        match probe.jobs[0].admission {
            Admission::Accepted { instances, .. } => instances,
            ref other => panic!("job not accepted: {other:?}"),
        }
    };
    let report = run_trace(
        &SchedConfig {
            pool: PoolConfig {
                capacity: needed, // exactly one job at a time
                ..PoolConfig::default()
            },
            ..base_config(1)
        },
        &trace,
    )
    .expect("run");
    let low = &report.jobs[0];
    let high = &report.jobs[1];
    assert!(
        high.wait_secs <= low.wait_secs,
        "high priority waited {} vs low {}",
        high.wait_secs,
        low.wait_secs
    );
    assert!(low.deferrals > 0, "the low-priority job must have queued");
}

#[test]
fn edf_orders_equal_priority_jobs_by_deadline() {
    let mut trace = TraceConfig {
        jobs: 2,
        tenants: 2,
        mean_interarrival_secs: 0.001,
        volume_range: (400_000_000, 400_000_000),
        pos_fraction: 1.0,
        ..TraceConfig::default()
    }
    .generate();
    for j in &mut trace.jobs {
        j.priority = 1;
    }
    // Job 1 has the tighter deadline; it must dispatch first.
    trace.jobs[0].deadline_secs = 6_000.0;
    trace.jobs[1].deadline_secs = 3_000.0;
    trace.jobs[1].arrival_secs = trace.jobs[0].arrival_secs;
    let needed = {
        let probe = run_trace(&base_config(2), &trace).expect("probe");
        match probe.jobs[1].admission {
            Admission::Accepted { instances, .. } => instances,
            ref other => panic!("job not accepted: {other:?}"),
        }
    };
    let report = run_trace(
        &SchedConfig {
            pool: PoolConfig {
                capacity: needed,
                ..PoolConfig::default()
            },
            ..base_config(2)
        },
        &trace,
    )
    .expect("run");
    assert!(
        report.jobs[1].wait_secs <= report.jobs[0].wait_secs,
        "EDF: tighter deadline {} waited longer than looser {}",
        report.jobs[1].wait_secs,
        report.jobs[0].wait_secs
    );
}

#[test]
fn tenant_quota_defers_with_typed_reason() {
    let trace = TraceConfig {
        jobs: 12,
        tenants: 1, // one tenant hammering the pool
        mean_interarrival_secs: 1.0,
        volume_range: (300_000_000, 600_000_000),
        deadline_range: (2_000.0, 4_000.0),
        pos_fraction: 1.0,
        ..TraceConfig::default()
    }
    .generate();
    let report = run_trace(
        &SchedConfig {
            tenant_inflight_cap: 1,
            ..base_config(4)
        },
        &trace,
    )
    .expect("run");
    assert!(
        report.jobs.iter().any(|o| matches!(
            o.last_defer,
            Some(sched::DeferReason::TenantBusy { cap: 1, .. })
        )),
        "quota of 1 with 12 back-to-back jobs must defer someone"
    );
}

/// Satellite property: pooled scheduling never bills more instance-hours
/// than running every job through its own isolated static provisioning
/// (FreshFleet) on an identical clean cloud. Per share the pool charges
/// only marginal hours, which are bounded by the fresh bill for the same
/// span; summed over a whole trace the inequality survives any mix of
/// volumes, deadlines and arrival densities.
fn pooled_leq_isolated(jobs: usize, seed: u64, mean_gap: f64, dl_lo: f64, vol_hi: u64) {
    let trace = TraceConfig {
        jobs,
        mean_interarrival_secs: mean_gap,
        volume_range: (20_000_000, vol_hi.max(20_000_000)),
        deadline_range: (dl_lo, dl_lo + 3_600.0),
        seed,
        ..TraceConfig::default()
    }
    .generate();
    let cfg = base_config(seed ^ 0xF1EE7);
    let pooled = run_trace(&cfg, &trace).expect("pooled run");

    // Isolated world: each accepted job executes its own plan on a fresh
    // cloud through the classic per-job executor.
    let mut isolated_hours = 0u64;
    for (outcome, job) in pooled.jobs.iter().zip(&trace.jobs) {
        if matches!(outcome.status, JobStatus::Rejected) {
            continue;
        }
        let fit = cfg.fits.for_kind(job.app);
        let plan = make_plan(
            Strategy::AdjustedDeadline { p_miss: cfg.p_miss },
            &job.files,
            fit,
            job.deadline_secs,
        )
        .expect("accepted jobs re-admit");
        let mut cloud = ec2sim::Cloud::new(cfg.cloud);
        let report = execute_plan_resilient(
            &mut cloud,
            &plan,
            job.cost_model().as_ref(),
            &cfg.exec,
            &RetryPolicy::default(),
        )
        .expect("isolated run");
        isolated_hours += report.execution.instance_hours;
        // Sanity: FreshFleet is the executor's default source.
        let _ = FreshFleet;
    }
    assert!(
        pooled.total_billed_hours <= isolated_hours,
        "pooled {} > isolated {} (jobs={jobs}, seed={seed})",
        pooled.total_billed_hours,
        isolated_hours
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_pooled_billed_hours_never_exceed_isolated(
        jobs in 4usize..28,
        seed in 0u64..1_000,
        mean_gap in 30.0f64..600.0,
        dl_lo in 1_200.0f64..7_200.0,
        vol_hi in 50_000_000u64..900_000_000,
    ) {
        pooled_leq_isolated(jobs, seed, mean_gap, dl_lo, vol_hi);
    }
}
