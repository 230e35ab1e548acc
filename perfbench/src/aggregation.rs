//! `shuffle_termcount`: a TermCount aggregation through
//! `provision::execute_aggregation_observed` — map over materialised text,
//! shuffle through the planner-chosen `ec2sim::netxfer` backend, reduce.

use crate::{Layers, Outcome, Tracer, Workload};
use corpus::FileSpec;
use ec2sim::{Cloud, CloudConfig};
use obs::Obs;
use perfmodel::{fit, Fit, ModelKind};
use provision::{
    execute_aggregation_observed, execute_shuffle_observed, make_plan, map_partials,
    plan_aggregation, plan_shuffle, shuffle_movements, AggregationReport, ShuffleConfig, Strategy,
};
use textapps::aggregate::{oracle, render};

/// The aggregation's user deadline, seconds.
const DEADLINE_SECS: f64 = 300.0;

pub struct ShuffleBench {
    cfg: ShuffleConfig,
    cloud: CloudConfig,
    files: Vec<FileSpec>,
    fit: Fit,
    /// The sequential oracle's rendering, computed at the first check.
    expected: Option<Vec<u8>>,
    /// The last checked report, for the same-seed comparison.
    last: Option<AggregationReport>,
}

pub fn shuffle_termcount(seed: u64, scale: f64) -> ShuffleBench {
    let manifest = corpus::text_400k(0.01 * scale, seed);
    ShuffleBench {
        cfg: ShuffleConfig {
            corpus_seed: seed,
            ..ShuffleConfig::default()
        },
        cloud: CloudConfig::default(),
        files: manifest.files,
        fit: compute_fit(),
        expected: None,
        last: None,
    }
}

/// About 150 s fixed plus 1e-4 s per byte, with a ±2 % wobble so the
/// adjusted deadline has residuals to work from. Against the 300 s
/// deadline this spreads the map phase over several instances.
fn compute_fit() -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 100_000.0).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| (150.0 + 1.0e-4 * x) * if k % 2 == 0 { 1.02 } else { 0.98 })
        .collect();
    fit(ModelKind::Affine, &xs, &ys)
}

impl Workload for ShuffleBench {
    type Output = AggregationReport;

    fn run(&self) -> Result<AggregationReport, String> {
        let mut cloud = Cloud::new(self.cloud);
        execute_aggregation_observed(
            &mut cloud,
            &self.cfg,
            &self.files,
            &self.fit,
            DEADLINE_SECS,
            &Obs::default(),
        )
        .map_err(|e| e.to_string())
    }

    fn check(&mut self, report: AggregationReport) -> Result<Outcome, String> {
        let (kind, seed, files) = (self.cfg.kind, self.cfg.corpus_seed, &self.files);
        let expected = self
            .expected
            .get_or_insert_with(|| render(&oracle(kind, seed, files)));
        if report.exec.output() != *expected {
            return Err("the aggregation differs from the sequential oracle".into());
        }
        if self.last.as_ref().is_some_and(|prev| *prev != report) {
            return Err("same-seed iterations produced different reports".into());
        }
        let outcome = Outcome {
            sim_cost_usd: report.exec.total_cost(),
            sim_makespan_s: report.exec.makespan_secs,
            sim_miss_rate: if report.exec.met_deadline() { 0.0 } else { 1.0 },
        };
        self.last = Some(report);
        Ok(outcome)
    }

    fn traced(&mut self, t: &mut Tracer) -> Result<Layers, String> {
        let cfg = &self.cfg;
        let root = t.open("shuffle", None);
        let (plan, shuffle_plan) = t
            .call("shuffle.plan", root, || {
                plan_aggregation(cfg, &self.files, &self.fit, DEADLINE_SECS)
            })
            .map_err(|e| e.to_string())?;
        let mut cloud = Cloud::new(self.cloud);
        let exec = t
            .call("shuffle.exec", root, || {
                execute_shuffle_observed(
                    &mut cloud,
                    cfg,
                    &plan,
                    shuffle_plan.backend,
                    &Obs::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        t.close(root);
        let traced = AggregationReport {
            plan: shuffle_plan,
            exec,
        };
        if self.last.as_ref() != Some(&traced) {
            return Err("the traced run diverged from the untraced aggregation".into());
        }

        // The compute plan, the map pass and the backend choice run inside
        // `plan_aggregation` (the executor repeats the map pass); replay
        // each over the same inputs.
        let strategy = Strategy::AdjustedDeadline { p_miss: cfg.p_miss };
        let replanned = t
            .replay("plan", || {
                make_plan(strategy, &self.files, &self.fit, DEADLINE_SECS)
            })
            .map_err(|e| e.to_string())?;
        if replanned != plan {
            return Err("the replayed compute plan differs from the planner's".into());
        }
        let bins: Vec<Vec<FileSpec>> = plan.instances.iter().map(|i| i.files.clone()).collect();
        t.replay("aggregate.map", || {
            map_partials(cfg.kind, cfg.corpus_seed, &bins)
        });
        let movements = shuffle_movements(cfg, &bins);
        let budget = (DEADLINE_SECS - plan.predicted_makespan()).max(0.0);
        let replanned = t.replay("netxfer.plan", || {
            plan_shuffle(&movements, budget, cfg.p_miss, cfg.seed)
        });
        if replanned != traced.plan {
            return Err("the replayed shuffle plan differs from the planner's".into());
        }

        let exec = &traced.exec;
        let mut layers = Layers::new();
        for (name, value) in [
            ("plan.instances", plan.instance_count() as f64),
            ("shuffle.movements", traced.plan.movements as f64),
            ("shuffle.transfers", exec.transfers as f64),
            ("shuffle.bytes_shuffled", exec.bytes_shuffled as f64),
            ("shuffle.transient_retries", exec.transient_retries as f64),
        ] {
            layers.insert(name.into(), value);
        }
        Ok(layers)
    }

    fn corpus(&self) -> (u64, u64) {
        (
            self.files.len() as u64,
            self.files.iter().map(|f| f.size).sum(),
        )
    }
}
