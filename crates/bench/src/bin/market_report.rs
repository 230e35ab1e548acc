//! Fleet-market frontier report — sweeps the user deadline and quotes
//! the same job under the three purchase strategies (`OnDemandOnly`,
//! `SpotOnly`, `Portfolio`), then writes `results/BENCH_market.json`
//! with the cost-vs-deadline frontier per strategy.
//!
//! Two gates run before anything is written:
//!
//! 1. **Determinism** — the same seed plans twice through a recording
//!    sink and the NDJSON logs must be byte-identical.
//! 2. **Dominance** — at every swept deadline the portfolio's expected
//!    cost is at or below both pure strategies (an infeasible pure
//!    strategy counts as infinitely expensive). The portfolio's
//!    candidate set is a superset of both pure sets, so a violation is
//!    a planner bug, not a market outcome.
//!
//! One mid-sweep deadline is also executed end to end under the reclaim
//! schedule its own price paths imply, reporting the realised cost and
//! user-deadline miss rate next to the planner's expectation.
//!
//! `--smoke` / `SMOKE=1` shrinks the sweep for CI-speed runs.

use bench::{smoke, write_json, Provenance, Table};
use corpus::FileSpec;
use ec2sim::{AvailabilityZone, Cloud, CloudConfig, DataLocation, InstanceType, NoiseModel};
use market::{
    execute_portfolio, plan_market, plan_market_observed, reclaim_fault_plan, MarketConfig,
    MarketStrategy,
};
use obs::Obs;
use perfmodel::{fit, Fit, ModelKind};
use provision::{ExecutionConfig, RetryPolicy, StagingTier};
use serde::Serialize;
use textapps::GrepCostModel;

/// Spot price seed for the whole report.
const SEED: u64 = 2010;

#[derive(Debug, Serialize)]
struct StrategyPoint {
    feasible: bool,
    expected_cost: f64,
    instances: usize,
    spot_instances: usize,
}

#[derive(Debug, Serialize)]
struct FrontierRow {
    deadline_secs: f64,
    on_demand: StrategyPoint,
    spot: StrategyPoint,
    portfolio: StrategyPoint,
    portfolio_saves_fraction: f64,
}

#[derive(Debug, Serialize)]
struct ExecutionRow {
    deadline_secs: f64,
    expected_cost: f64,
    realised_cost: f64,
    billed_hours: u64,
    shares: usize,
    misses: usize,
    miss_rate: f64,
    preemptions: usize,
    replacements: usize,
    met_deadline: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    provenance: Provenance,
    file_bytes: u64,
    price_seed: u64,
    catalog: Vec<String>,
    log_byte_identical_across_runs: bool,
    portfolio_dominates_everywhere: bool,
    frontier: Vec<FrontierRow>,
    execution: ExecutionRow,
}

/// Noisy homogeneous cloud, as in `tests/chaos.rs`: identical hardware
/// so the fitted model is exact, real measurement noise in the probes.
fn trial_cloud(seed: u64) -> CloudConfig {
    CloudConfig {
        seed,
        homogeneous: true,
        noise: NoiseModel::default(),
        ..CloudConfig::default()
    }
}

fn probe_fit() -> Fit {
    let mut cloud = Cloud::new(trial_cloud(0x5EED));
    let inst = cloud
        .launch(InstanceType::Small, AvailabilityZone::us_east_1a())
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

fn market_cfg(strategy: MarketStrategy) -> MarketConfig {
    MarketConfig {
        strategy,
        seed: SEED,
        ..MarketConfig::default()
    }
}

fn point(files: &[FileSpec], f: &Fit, deadline: f64, strategy: MarketStrategy) -> StrategyPoint {
    match plan_market(files, f, deadline, &market_cfg(strategy)) {
        Ok(p) => StrategyPoint {
            feasible: true,
            expected_cost: p.expected_cost,
            instances: p.instance_count(),
            spot_instances: p.spot_instances(),
        },
        Err(_) => StrategyPoint {
            feasible: false,
            expected_cost: f64::INFINITY,
            instances: 0,
            spot_instances: 0,
        },
    }
}

fn cost_cell(p: &StrategyPoint) -> String {
    if p.feasible {
        format!("{:.3}", p.expected_cost)
    } else {
        "-".to_string()
    }
}

fn main() {
    let f = probe_fit();
    let (n_files, file_bytes): (u64, u64) = if smoke() {
        (12, 100_000_000_000)
    } else {
        (35, 100_000_000_000)
    };
    let files: Vec<FileSpec> = (0..n_files).map(|i| FileSpec::new(i, file_bytes)).collect();
    let deadlines: Vec<f64> = if smoke() {
        vec![1_800.0, 7_200.0]
    } else {
        vec![900.0, 1_800.0, 3_600.0, 7_200.0, 14_400.0, 28_800.0]
    };

    // Determinism gate: one planning pass, twice, byte-identical NDJSON.
    let gate_deadline = deadlines[deadlines.len() / 2];
    let sink_a = Obs::recording(SEED);
    let sink_b = Obs::recording(SEED);
    let cfg = market_cfg(MarketStrategy::Portfolio);
    plan_market_observed(&files, &f, gate_deadline, &cfg, &sink_a).expect("gate plan");
    plan_market_observed(&files, &f, gate_deadline, &cfg, &sink_b).expect("gate plan");
    let identical = sink_a.to_ndjson() == sink_b.to_ndjson();
    assert!(
        identical,
        "same-seed market planning must emit byte-identical NDJSON logs"
    );

    let mut frontier = Vec::new();
    let mut dominates = true;
    for &d in &deadlines {
        let od = point(&files, &f, d, MarketStrategy::OnDemandOnly);
        let spot = point(&files, &f, d, MarketStrategy::SpotOnly);
        let port = point(&files, &f, d, MarketStrategy::Portfolio);
        let best_pure = od.expected_cost.min(spot.expected_cost);
        assert!(
            port.feasible || !od.feasible && !spot.feasible,
            "portfolio infeasible at deadline {d} while a pure strategy is not"
        );
        let ok = port.expected_cost <= best_pure + 1e-9;
        assert!(
            ok,
            "portfolio (${:.4}) beaten by a pure strategy (${best_pure:.4}) at deadline {d}",
            port.expected_cost
        );
        dominates &= ok;
        let saves = if best_pure.is_finite() && best_pure > 0.0 {
            (best_pure - port.expected_cost) / best_pure
        } else {
            0.0
        };
        frontier.push(FrontierRow {
            deadline_secs: d,
            on_demand: od,
            spot,
            portfolio: port,
            portfolio_saves_fraction: saves,
        });
    }

    // Execute the portfolio at the gate deadline under its own reclaim
    // schedule: correlated whole-family preemptions at each bid crossing.
    let pplan = plan_market(&files, &f, gate_deadline, &cfg).expect("executable plan");
    let faults = reclaim_fault_plan(&pplan, &cfg);
    let mut cloud = Cloud::with_faults(trial_cloud(SEED), &faults);
    let exec_cfg = ExecutionConfig {
        staging: StagingTier::Local,
        stage_in_secs: 0.0,
        ..ExecutionConfig::default()
    };
    let out = execute_portfolio(
        &mut cloud,
        &pplan,
        &GrepCostModel::default(),
        &exec_cfg,
        &RetryPolicy::default(),
        &Obs::default(),
    )
    .expect("portfolio execution");
    let execution = ExecutionRow {
        deadline_secs: gate_deadline,
        expected_cost: pplan.expected_cost,
        realised_cost: out.cost,
        billed_hours: out.billed_hours,
        shares: out.shares,
        misses: out.misses,
        miss_rate: out.miss_rate(),
        preemptions: out.preemptions,
        replacements: out.replacements,
        met_deadline: out.met_deadline(),
    };

    let mut table = Table::new(
        &format!(
            "fleet-market cost frontier, {n_files} x {:.0} GB files, seed {SEED}",
            file_bytes as f64 / 1e9
        ),
        &[
            "deadline(s)",
            "on-demand($)",
            "spot($)",
            "portfolio($)",
            "fleet",
            "spot n",
            "saved%",
        ],
    );
    for r in &frontier {
        table.row(vec![
            format!("{:.0}", r.deadline_secs),
            cost_cell(&r.on_demand),
            cost_cell(&r.spot),
            cost_cell(&r.portfolio),
            r.portfolio.instances.to_string(),
            r.portfolio.spot_instances.to_string(),
            format!("{:.1}", r.portfolio_saves_fraction * 100.0),
        ]);
    }
    table.print();
    println!(
        "[exec] deadline {:.0}s: ${:.3} expected -> ${:.3} realised, {} preemptions, miss rate {:.3}",
        execution.deadline_secs,
        execution.expected_cost,
        execution.realised_cost,
        execution.preemptions,
        execution.miss_rate,
    );

    let report = Report {
        provenance: Provenance::of_run(files.len(), file_bytes * n_files),
        file_bytes,
        price_seed: SEED,
        catalog: cfg
            .catalog
            .iter()
            .map(|f| f.id.label().to_string())
            .collect(),
        log_byte_identical_across_runs: identical,
        portfolio_dominates_everywhere: dominates,
        frontier,
        execution,
    };
    write_json("BENCH_market", &report);
}
