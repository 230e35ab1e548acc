//! Observability phase-breakdown report — runs the end-to-end grep pipeline
//! with a recording sink and writes `results/OBS_phase_breakdown.json`:
//! per-phase simulated seconds (from the span aggregates), counter and
//! gauge totals, and the total host wall time of the run.
//!
//! Per-phase *wall* time is deliberately not reported: the simulation runs
//! all phases in one host-side burst, so sub-phase wall clocks would mostly
//! measure allocator noise. The simulated clock is the meaningful axis and
//! is byte-reproducible; the report re-runs the pipeline and asserts the
//! two NDJSON logs are identical before writing anything.
//!
//! `--smoke` / `SMOKE=1` shrinks the corpus for CI-speed runs.

use bench::{smoke, write_json, Table};
use obs::{MetricsSnapshot, Obs};
use reshape::{App, Pipeline, PipelineConfig, ProbeCampaign, Workload};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Phase {
    phase: String,
    spans: u64,
    simulated_secs: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    seed: u64,
    run_id: String,
    corpus_files: usize,
    wall_secs: f64,
    log_lines: usize,
    log_byte_identical_across_runs: bool,
    phases: Vec<Phase>,
    snapshot: MetricsSnapshot,
}

fn config() -> PipelineConfig {
    PipelineConfig {
        deadline_secs: 10.0,
        probe: ProbeCampaign {
            v0: 5_000_000,
            growth: 5,
            max_volume: 400_000_000,
            repeats: 3,
            s0: 1_000_000,
            factors: vec![10, 100],
            stability_cv: 0.25,
            min_sets: 3,
        },
        ..PipelineConfig::default()
    }
}

fn run_once(workload: &Workload) -> (Obs, f64) {
    let mut cfg = config();
    let sink = Obs::recording(cfg.cloud.seed);
    cfg.obs = sink.clone();
    let start = Instant::now();
    Pipeline::new(cfg)
        .run(workload)
        .expect("pipeline run succeeds");
    (sink, start.elapsed().as_secs_f64())
}

fn main() {
    let fraction = if smoke() { 0.0005 } else { 0.002 };
    let manifest = corpus::html_18mil(fraction, 41);
    let corpus_files = manifest.len();
    let workload = Workload::new(manifest, App::grep("zxqv"));

    let (first, wall_secs) = run_once(&workload);
    let (second, _) = run_once(&workload);
    let log = first.to_ndjson();
    let identical = log == second.to_ndjson();
    assert!(
        identical,
        "same-seed runs must emit byte-identical NDJSON logs"
    );

    let snapshot = first.snapshot().expect("recording sink has a snapshot");
    let phases: Vec<Phase> = snapshot
        .spans
        .iter()
        .filter(|(name, _)| name.starts_with("pipeline."))
        .map(|(name, stat)| Phase {
            phase: name.clone(),
            spans: stat.count,
            simulated_secs: stat.secs,
        })
        .collect();

    let mut table = Table::new(
        &format!(
            "pipeline phase breakdown, {corpus_files} files, run {} ({} events)",
            snapshot.run_id, snapshot.events
        ),
        &["phase", "spans", "simulated(s)"],
    );
    for p in &phases {
        table.row(vec![
            p.phase.clone(),
            p.spans.to_string(),
            format!("{:.3}", p.simulated_secs),
        ]);
    }
    table.print();

    let report = Report {
        seed: config().cloud.seed,
        run_id: snapshot.run_id.clone(),
        corpus_files,
        wall_secs,
        log_lines: log.lines().count(),
        log_byte_identical_across_runs: identical,
        phases,
        snapshot,
    };
    write_json("OBS_phase_breakdown", &report);
}
