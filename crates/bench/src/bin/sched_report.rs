//! Multi-tenant scheduler throughput report — runs the seeded arrival
//! trace through the EDF dispatcher at several seeds and writes
//! `results/SCHED_throughput.json`: jobs/hour, deadline miss rate, and
//! the billed-hour savings the warm-instance pool extracts from flat
//! hourly billing (same trace re-run with `warm_reuse: false`).
//!
//! Before writing anything the report re-runs the pooled configuration
//! at the first seed with a recording sink and asserts the two NDJSON
//! logs are byte-identical — the scheduler is deterministic or the
//! numbers are meaningless.
//!
//! `--smoke` / `SMOKE=1` shrinks the trace for CI-speed runs.

use bench::{smoke, write_json, Table};
use ec2sim::CloudConfig;
use obs::Obs;
use sched::{run_trace, PoolConfig, SchedConfig, SchedReport, TraceConfig};
use serde::Serialize;

const SEEDS: [u64; 3] = [11, 42, 1009];

#[derive(Debug, Serialize)]
struct SeedRow {
    seed: u64,
    jobs: usize,
    completed: usize,
    rejected: usize,
    missed: usize,
    jobs_per_hour: f64,
    miss_rate: f64,
    makespan_secs: f64,
    pooled_billed_hours: u64,
    isolated_billed_hours: u64,
    savings_hours: u64,
    savings_fraction: f64,
    warm_hits: u64,
    cold_launches: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    trace_jobs: usize,
    tenants: u32,
    pool_capacity: usize,
    log_byte_identical_across_runs: bool,
    seeds: Vec<SeedRow>,
}

fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        jobs: if smoke() { 16 } else { 48 },
        seed,
        ..TraceConfig::default()
    }
}

fn sched_config(seed: u64, warm_reuse: bool) -> SchedConfig {
    let mut cfg = SchedConfig {
        cloud: CloudConfig {
            homogeneous: true,
            ..CloudConfig::default()
        },
        pool: PoolConfig {
            warm_reuse,
            ..PoolConfig::default()
        },
        exec: provision::ExecutionConfig {
            staging: provision::StagingTier::Local,
            stage_in_secs: 30.0,
            ..provision::ExecutionConfig::default()
        },
        ..SchedConfig::default()
    };
    cfg.cloud.seed = seed;
    cfg
}

fn run(seed: u64, warm_reuse: bool, obs: Option<Obs>) -> SchedReport {
    let mut cfg = sched_config(seed, warm_reuse);
    if let Some(sink) = obs {
        cfg.obs = sink;
    }
    let trace = trace_config(seed).generate();
    run_trace(&cfg, &trace).expect("scheduling run failed")
}

fn main() {
    // Determinism gate: same seed, same trace ⇒ byte-identical event log.
    let sink_a = Obs::recording(SEEDS[0]);
    let sink_b = Obs::recording(SEEDS[0]);
    run(SEEDS[0], true, Some(sink_a.clone()));
    run(SEEDS[0], true, Some(sink_b.clone()));
    let identical = sink_a.to_ndjson() == sink_b.to_ndjson();
    assert!(
        identical,
        "same-seed scheduler runs must emit byte-identical NDJSON logs"
    );

    let mut rows = Vec::new();
    for seed in SEEDS {
        let pooled = run(seed, true, None);
        let isolated = run(seed, false, None);
        assert_eq!(
            pooled.jobs.len(),
            isolated.jobs.len(),
            "pool policy must not change the set of jobs"
        );
        let savings = isolated.total_billed_hours - pooled.total_billed_hours;
        rows.push(SeedRow {
            seed,
            jobs: pooled.jobs.len(),
            completed: pooled.completed,
            rejected: pooled.rejected,
            missed: pooled.missed,
            jobs_per_hour: pooled.jobs_per_hour(),
            miss_rate: pooled.miss_rate(),
            makespan_secs: pooled.makespan_secs,
            pooled_billed_hours: pooled.total_billed_hours,
            isolated_billed_hours: isolated.total_billed_hours,
            savings_hours: savings,
            savings_fraction: if isolated.total_billed_hours > 0 {
                savings as f64 / isolated.total_billed_hours as f64
            } else {
                0.0
            },
            warm_hits: pooled.pool.warm_hits,
            cold_launches: pooled.pool.cold_launches,
        });
    }

    let trace = trace_config(SEEDS[0]);
    let mut table = Table::new(
        &format!(
            "multi-tenant scheduler throughput, {} jobs x {} tenants, pool capacity {}",
            trace.jobs,
            trace.tenants,
            PoolConfig::default().capacity
        ),
        &[
            "seed",
            "jobs/h",
            "miss%",
            "pooled(h)",
            "isolated(h)",
            "saved",
            "warm hits",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.seed.to_string(),
            format!("{:.2}", r.jobs_per_hour),
            format!("{:.1}", r.miss_rate * 100.0),
            r.pooled_billed_hours.to_string(),
            r.isolated_billed_hours.to_string(),
            format!("{} ({:.0}%)", r.savings_hours, r.savings_fraction * 100.0),
            r.warm_hits.to_string(),
        ]);
    }
    table.print();

    let report = Report {
        trace_jobs: trace.jobs,
        tenants: trace.tenants,
        pool_capacity: PoolConfig::default().capacity,
        log_byte_identical_across_runs: identical,
        seeds: rows,
    };
    write_json("SCHED_throughput", &report);
}
