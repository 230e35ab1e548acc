//! Chaos ablation — replay the chaos-harness calibration experiment at a
//! chosen seed and persist the aggregate `DegradedReport` statistics.
//!
//! For each strategy (naive capacity-driven vs. the paper's adjusted
//! deadline, §5.2) the run executes a seeded fleet under a moderate
//! fault schedule many times and reports empirical miss rates, fault
//! counts and recovery accounting. The seed comes from `CHAOS_SEED` (or
//! the first CLI argument), so CI can sweep a matrix; the JSON artifact
//! lands at `results/CHAOS_seed<N>.json`. `--smoke` / `SMOKE=1` shrinks
//! the trial count.

use bench::{probe_fit, smoke, trial_cloud, write_json, Table};
use corpus::FileSpec;
use ec2sim::{Cloud, FaultConfig, FaultPlan};
use provision::{
    execute_plan_resilient, make_plan, DegradedReport, ExecutionConfig, Plan, RetryPolicy,
    StagingTier, Strategy,
};
use serde::Serialize;
use textapps::GrepCostModel;

fn chaos_seed() -> u64 {
    if let Some(s) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        return s;
    }
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

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

fn run_trial(seed: u64, plan: &Plan) -> DegradedReport {
    let schedule = FaultPlan::generate(seed, &trial_faults());
    let mut cloud = Cloud::with_faults(trial_cloud(seed), &schedule);
    let cfg = ExecutionConfig {
        staging: StagingTier::Local,
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
    .expect("resilient execution")
}

/// Aggregated outcome of one strategy's trial sweep.
#[derive(Debug, Default, Serialize)]
struct StrategySummary {
    strategy: String,
    instances: usize,
    trials: u64,
    shares: usize,
    misses: usize,
    miss_rate: f64,
    crashes: usize,
    preemptions: usize,
    transient_retries: usize,
    replacements: usize,
    requeued_shares: usize,
    failed_shares: usize,
    recovered_bytes: u64,
    lost_bytes: u64,
    faults_fired: usize,
    instance_hours: u64,
    cost: f64,
}

fn sweep(name: &str, plan: &Plan, base: u64, trials: u64) -> StrategySummary {
    let mut s = StrategySummary {
        strategy: name.to_string(),
        instances: plan.instance_count(),
        trials,
        ..StrategySummary::default()
    };
    for t in 0..trials {
        let r = run_trial(base + t, plan);
        s.shares += r.total_shares();
        s.misses += r.execution.misses;
        s.crashes += r.crashes;
        s.preemptions += r.preemptions;
        s.transient_retries += r.transient_retries;
        s.replacements += r.replacements;
        s.requeued_shares += r.requeued_shares;
        s.failed_shares += r.failed_shares.len();
        s.recovered_bytes += r.recovered_bytes;
        s.lost_bytes += r.lost_bytes;
        s.faults_fired += r.faults_fired;
        s.instance_hours += r.execution.instance_hours;
        s.cost += r.execution.cost;
    }
    s.miss_rate = if s.shares == 0 {
        0.0
    } else {
        s.misses as f64 / s.shares as f64
    };
    s
}

#[derive(Debug, Serialize)]
struct ChaosReport {
    seed: u64,
    deadline_secs: f64,
    fault_config: FaultConfig,
    retry: RetryPolicy,
    strategies: Vec<StrategySummary>,
}

fn main() {
    let seed = chaos_seed();
    let trials: u64 = if smoke() { 20 } else { 120 };
    let deadline = 20.0;
    let model = probe_fit();
    let files: Vec<FileSpec> = (0..200).map(|i| FileSpec::new(i, 50_000_000)).collect();
    let naive = make_plan(Strategy::CapacityDriven, &files, &model, deadline).expect("naive plan");
    let adjusted = make_plan(
        Strategy::AdjustedDeadline { p_miss: 0.02 },
        &files,
        &model,
        deadline,
    )
    .expect("adjusted plan");

    let base = seed * 100_000;
    let summaries = vec![
        sweep("capacity-driven (naive)", &naive, base, trials),
        sweep("adjusted-deadline p=0.02", &adjusted, base, trials),
    ];

    let mut t = Table::new(
        &format!("Chaos ablation — seed {seed}, {trials} trials, deadline {deadline:.0}s"),
        &[
            "strategy",
            "instances",
            "miss rate%",
            "crashes",
            "preempts",
            "retries",
            "replaced",
            "lost GB",
            "inst-h",
        ],
    );
    for s in &summaries {
        t.row(vec![
            s.strategy.clone(),
            format!("{}", s.instances),
            format!("{:.1}", 100.0 * s.miss_rate),
            format!("{}", s.crashes),
            format!("{}", s.preemptions),
            format!("{}", s.transient_retries),
            format!("{}", s.replacements),
            format!("{:.2}", s.lost_bytes as f64 / 1e9),
            format!("{}", s.instance_hours),
        ]);
    }
    t.emit(&format!("CHAOS_seed{seed}"));

    let report = ChaosReport {
        seed,
        deadline_secs: deadline,
        fault_config: trial_faults(),
        retry: RetryPolicy::default(),
        strategies: summaries,
    };
    write_json(&format!("CHAOS_seed{seed}"), &report);
}
