//! Distributed-shuffle backend sweep — runs the shuffle planner over a
//! grid of movement regimes, executes each backend end-to-end on a real
//! aggregation corpus, and writes `results/BENCH_shuffle.json`.
//!
//! The sweep is the economics argument of the backend chooser made
//! concrete: every sharing backend must win at least one regime —
//! EBS hand-off when the budget is loose (it is free), S3 when the
//! budget is tight (unbounded parallel streams), the shared filesystem
//! when the movement set is many small objects (S3 request dollars
//! exceed the flat server hour). The report **asserts** that coverage;
//! CI runs this binary, so a regression in the planner's economics
//! fails the build, not just a chart.
//!
//! `--smoke` / `SMOKE=1` shrinks the end-to-end corpus; the planner
//! sweep is pure arithmetic and runs at full size everywhere.

use bench::{fmt_bytes, smoke, write_json, Provenance, Table};
use corpus::FileSpec;
use ec2sim::{AvailabilityZone, Cloud, CloudConfig, SharingBackend};
use obs::Obs;
use perfmodel::{fit as fit_model, Fit, ModelKind};
use provision::{
    execute_aggregation_observed, execute_shuffle_observed, make_plan, plan_shuffle, ShuffleConfig,
    ShuffleMovement, Strategy,
};
use serde::Serialize;
use textapps::aggregate::{oracle, render};
use textapps::AggKind;

const SEED: u64 = 7;
const P_MISS: f64 = 0.1;

#[derive(Debug, Serialize)]
struct BackendRow {
    backend: String,
    feasible: bool,
    predicted_secs: f64,
    streams_needed: u64,
    transfer_cost: f64,
}

#[derive(Debug, Serialize)]
struct SweepRow {
    scenario: String,
    movements: usize,
    movement_bytes: u64,
    budget_secs: f64,
    winner: String,
    backends: Vec<BackendRow>,
}

#[derive(Debug, Serialize)]
struct ExecRow {
    backend: String,
    makespan_secs: f64,
    bytes_shuffled: u64,
    transfers: usize,
    instance_hours: u64,
    compute_cost: f64,
    transfer_cost: f64,
    total_cost: f64,
    matches_oracle: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    provenance: Provenance,
    seed: u64,
    p_miss: f64,
    backends_that_win: Vec<String>,
    sweep: Vec<SweepRow>,
    planned_backend: String,
    planned_total_cost: f64,
    executions: Vec<ExecRow>,
}

fn label(b: SharingBackend) -> String {
    format!("{b:?}")
}

fn movements(count: usize, bytes: u64) -> Vec<ShuffleMovement> {
    let zone = AvailabilityZone::us_east_1a();
    (0..count)
        .map(|i| ShuffleMovement {
            key: format!("sweep/m{i}"),
            bytes,
            producer: i % 8,
            reducer: i / 8,
            src_zone: zone,
            dst_zone: zone,
        })
        .collect()
}

/// The movement-regime grid. Budgets are seconds of shuffle headroom.
fn scenarios() -> Vec<(&'static str, Vec<ShuffleMovement>, f64)> {
    vec![
        ("bulk, loose budget", movements(20, 5_000_000), 100_000.0),
        ("bulk, tight budget", movements(20, 5_000_000), 1.0),
        ("many small objects", movements(10_000, 2_048), 60.0),
        ("bulk, no headroom", movements(100, 50_000_000), 0.0),
    ]
}

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

fn main() {
    // --- Planner sweep: who wins each movement regime. ---
    let mut sweep = Vec::new();
    let mut winners: Vec<String> = Vec::new();
    for (name, mv, budget) in scenarios() {
        let plan = plan_shuffle(&mv, budget, P_MISS, SEED);
        let winner = label(plan.backend);
        if !winners.contains(&winner) {
            winners.push(winner.clone());
        }
        sweep.push(SweepRow {
            scenario: name.to_string(),
            movements: plan.movements,
            movement_bytes: plan.movement_bytes,
            budget_secs: plan.budget_secs,
            winner,
            backends: plan
                .evaluations
                .iter()
                .map(|e| BackendRow {
                    backend: label(e.backend),
                    feasible: e.feasible,
                    predicted_secs: e.predicted_secs,
                    streams_needed: e.streams_needed,
                    transfer_cost: e.transfer_cost,
                })
                .collect(),
        });
    }
    winners.sort();
    for b in SharingBackend::ALL {
        assert!(
            winners.contains(&label(b)),
            "{b:?} never wins a sweep scenario — the backend economics regressed: {winners:?}"
        );
    }

    // --- End-to-end: every backend executes a real aggregation and must
    // reproduce the sequential oracle; the planner-chosen pipeline runs on
    // the same corpus for the headline cost. ---
    let n_files = if smoke() { 8 } else { 24 };
    let files: Vec<FileSpec> = (0..n_files)
        .map(|i| FileSpec::new(i, 2_000 + 137 * i))
        .collect();
    let fit = compute_fit();
    let cfg = ShuffleConfig {
        kind: AggKind::TermCount,
        ..ShuffleConfig::default()
    };
    let expected = render(&oracle(cfg.kind, cfg.corpus_seed, &files));
    let corpus_bytes: u64 = files.iter().map(|f| f.size).sum();

    let mut executions = Vec::new();
    for backend in SharingBackend::ALL {
        let plan = make_plan(Strategy::UniformBins, &files, &fit, 30.0).expect("plan");
        let mut cloud = Cloud::new(CloudConfig::default());
        let report = execute_shuffle_observed(&mut cloud, &cfg, &plan, backend, &Obs::default())
            .expect("execute");
        let matches = report.output() == expected;
        assert!(matches, "{backend:?} diverged from the sequential oracle");
        executions.push(ExecRow {
            backend: label(backend),
            makespan_secs: report.makespan_secs,
            bytes_shuffled: report.bytes_shuffled,
            transfers: report.transfers,
            instance_hours: report.instance_hours,
            compute_cost: report.compute_cost,
            transfer_cost: report.transfer_cost,
            total_cost: report.total_cost(),
            matches_oracle: matches,
        });
    }

    let mut cloud = Cloud::new(CloudConfig::default());
    let agg = execute_aggregation_observed(&mut cloud, &cfg, &files, &fit, 60.0, &Obs::default())
        .expect("planned pipeline");
    assert_eq!(
        agg.exec.output(),
        expected,
        "planner-chosen pipeline diverged from the sequential oracle"
    );

    // --- Human-readable tables. ---
    let mut sweep_table = Table::new(
        "shuffle planner sweep (winner per movement regime)",
        &["scenario", "movements", "bytes", "budget", "winner"],
    );
    for r in &sweep {
        sweep_table.row(vec![
            r.scenario.clone(),
            r.movements.to_string(),
            fmt_bytes(r.movement_bytes),
            format!("{:.0}s", r.budget_secs),
            r.winner.clone(),
        ]);
    }
    sweep_table.print();

    let mut exec_table = Table::new(
        &format!(
            "end-to-end aggregation, {} files / {}",
            files.len(),
            fmt_bytes(corpus_bytes)
        ),
        &[
            "backend", "makespan", "shuffled", "xfer $", "total $", "oracle?",
        ],
    );
    for r in &executions {
        exec_table.row(vec![
            r.backend.clone(),
            format!("{:.2}s", r.makespan_secs),
            fmt_bytes(r.bytes_shuffled),
            format!("{:.4}", r.transfer_cost),
            format!("{:.4}", r.total_cost),
            if r.matches_oracle { "=" } else { "≠" }.to_string(),
        ]);
    }
    exec_table.print();

    let report = Report {
        provenance: Provenance::of_run(files.len(), corpus_bytes),
        seed: SEED,
        p_miss: P_MISS,
        backends_that_win: winners,
        sweep,
        planned_backend: label(agg.plan.backend),
        planned_total_cost: agg.exec.total_cost(),
        executions,
    };
    write_json("BENCH_shuffle", &report);
}
