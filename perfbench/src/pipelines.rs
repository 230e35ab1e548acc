//! `html18m_grep` and `text400k_pos`: the paper's two corpora through
//! `reshape::Pipeline::run` (screen → probe → reshape → fit → plan →
//! execute).

use crate::{Layers, Outcome, Tracer, Workload};
use binpack::{Item, Parallelism};
use corpus::{sample_by_volume, Manifest};
use ec2sim::{
    acquire_good_instance, AvailabilityZone, Cloud, CloudConfig, DataLocation, InstanceType,
};
use perfmodel::{choose_unit_size, fit, ModelKind, ProbeCampaign, ProbeSetResult, UnitSize};
use provision::{execute_plan_observed, make_plan, ExecutionConfig, StagingTier, Strategy};
use reshape::{
    pack_for_reshape, reshape_manifest_par, App, ModelSelection, Pipeline, PipelineConfig,
    PipelineReport, RefitConfig,
};

/// The user deadline of both pipelines, seconds.
const DEADLINE_SECS: f64 = 3_600.0;

pub struct PipelineBench {
    pipeline: Pipeline,
    config: PipelineConfig,
    workload: reshape::Workload,
    /// The last checked untraced report, for the same-seed comparison.
    last: Option<PipelineReport>,
}

/// HTML_18mil with grep staged on EBS: the sharded reshape pack of 18M
/// files is nearly all of the host time.
pub fn html18m_grep(seed: u64, scale: f64) -> PipelineBench {
    let config = PipelineConfig {
        probe: ProbeCampaign {
            v0: 50_000_000,
            growth: 5,
            max_volume: 5_000_000_000,
            // The next power of two above the 43 MB largest file.
            s0: 64 << 20,
            ..ProbeCampaign::default()
        },
        deadline_secs: DEADLINE_SECS,
        strategy: Strategy::AdjustedDeadline { p_miss: 0.1 },
        staging: StagingTier::Ebs,
        ..PipelineConfig::default()
    };
    let manifest = corpus::html_18mil(scale, seed);
    new_bench(config, reshape::Workload::new(manifest, App::grep("zxqv")))
}

/// Text_400K with POS tagging on local disk and the §5.2 random-sample
/// refit: POS keeps the original segmentation, so the pack never runs and
/// the planner and executor carry the host time.
pub fn text400k_pos(seed: u64, scale: f64) -> PipelineBench {
    let config = PipelineConfig {
        probe: ProbeCampaign {
            v0: 1_000_000,
            growth: 4,
            max_volume: 64_000_000,
            s0: 1 << 20,
            factors: vec![10, 50],
            ..ProbeCampaign::default()
        },
        deadline_secs: DEADLINE_SECS,
        strategy: Strategy::AdjustedDeadline { p_miss: 0.1 },
        staging: StagingTier::Local,
        refit: Some(RefitConfig {
            sample_volume: 5_000_000,
            samples: 3,
        }),
        ..PipelineConfig::default()
    };
    let manifest = corpus::text_400k(scale, seed);
    new_bench(config, reshape::Workload::new(manifest, App::pos()))
}

fn new_bench(config: PipelineConfig, workload: reshape::Workload) -> PipelineBench {
    // Identical simulated instances: with per-instance quality drawn from
    // the cloud seed, whether a share overruns the deadline (and bills a
    // second hour) depends on which corpus lands on which instance, and
    // the simulated cost and makespan jump from seed to seed.
    let config = PipelineConfig {
        cloud: CloudConfig {
            homogeneous: true,
            ..config.cloud
        },
        ..config
    };
    // The traced run re-does the pipeline for exactly this configuration.
    assert!(config.ingest.is_none() && config.family.is_none() && config.faults.is_none());
    assert_eq!(config.selection, ModelSelection::Fixed(ModelKind::Affine));
    PipelineBench {
        pipeline: Pipeline::new(config.clone()),
        config,
        workload,
        last: None,
    }
}

impl Workload for PipelineBench {
    type Output = PipelineReport;

    fn run(&self) -> Result<PipelineReport, String> {
        self.pipeline.run(&self.workload).map_err(|e| e.to_string())
    }

    fn check(&mut self, report: PipelineReport) -> Result<Outcome, String> {
        let manifest_bytes = self.workload.manifest.total_volume();
        let reshaped_bytes: u64 = report.reshape.files.iter().map(|f| f.size).sum();
        if reshaped_bytes != manifest_bytes {
            return Err(format!(
                "reshape changed the volume: {manifest_bytes} B in, {reshaped_bytes} B out"
            ));
        }
        let exec = &report.execution;
        let instance_bytes: u64 = exec.runs.iter().map(|r| r.volume).sum();
        if instance_bytes != reshaped_bytes {
            return Err(format!(
                "instance volumes sum to {instance_bytes} B, the reshaped corpus holds {reshaped_bytes} B"
            ));
        }
        if exec.runs.is_empty() {
            return Err("the plan provisioned no instance".into());
        }
        if self.last.as_ref().is_some_and(|prev| *prev != report) {
            return Err("same-seed iterations produced different reports".into());
        }
        let late = exec
            .runs
            .iter()
            .filter(|r| r.job_secs > exec.deadline_secs)
            .count();
        let outcome = Outcome {
            sim_cost_usd: exec.cost,
            sim_makespan_s: exec.makespan_secs,
            sim_miss_rate: late as f64 / exec.runs.len() as f64,
        };
        self.last = Some(report);
        Ok(outcome)
    }

    fn traced(&mut self, t: &mut Tracer) -> Result<Layers, String> {
        let cfg = &self.config;
        let manifest = &self.workload.manifest;
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let mut layers = Layers::new();

        let root = t.open("pipeline", None);
        let mut cloud = Cloud::new(cfg.cloud);
        cloud.set_obs(cfg.obs.clone());
        let zone = AvailabilityZone::us_east_1a();

        let (probe_inst, attempts) = t
            .call("screen", root, || {
                acquire_good_instance(&mut cloud, InstanceType::Small, zone, &cfg.screening)
            })
            .map_err(|e| err(&e))?;
        layers.insert("screen.attempts".into(), attempts as f64);
        layers.insert("screen.sim_s".into(), cloud.now());

        let probe_volume = cfg.probe.max_volume.min(manifest.total_volume()).max(1);
        let probe_data = match cfg.staging {
            StagingTier::Ebs => {
                let vol = cloud.create_volume(zone, probe_volume.saturating_mul(2).max(1));
                cloud.attach_volume(vol, probe_inst).map_err(|e| err(&e))?;
                DataLocation::Ebs {
                    volume: vol,
                    offset: 0,
                }
            }
            StagingTier::Local => DataLocation::Local,
        };
        let model = self.workload.app.cost_model();
        let probe_start = cloud.now();
        let mut app_runs = 0u64;
        let mut measure_err = None;
        let probe_sets = t.call("probe", root, || {
            cfg.probe.run_with(
                manifest,
                |files| {
                    app_runs += 1;
                    match cloud.run_app(probe_inst, model, files, probe_data) {
                        Ok(r) => r.observed_secs,
                        Err(e) => {
                            measure_err = Some(e);
                            f64::NAN
                        }
                    }
                },
                cfg.parallelism,
            )
        });
        if let Some(e) = measure_err {
            return Err(err(&e));
        }
        layers.insert("probe.sets".into(), probe_sets.len() as f64);
        layers.insert("probe.app_runs".into(), app_runs as f64);
        layers.insert("probe.sim_s".into(), cloud.now() - probe_start);
        let unit = choose_unit_size(&probe_sets, cfg.probe.stability_cv)
            .ok_or("the probe campaign produced no measurements")?;

        let reshaped = t.call("reshape", root, || {
            reshape_manifest_par(manifest, unit, cfg.parallelism)
        });
        layers.insert("reshape.files_in".into(), manifest.len() as f64);
        layers.insert("reshape.files_out".into(), reshaped.files.len() as f64);
        layers.insert("reshape.fill".into(), reshaped.stats.mean_fill);

        let fit_id = t.open("fit", Some(root));
        let (xs, ys) = observations_at_unit(&probe_sets, unit);
        let base_fit = fit(ModelKind::Affine, &xs, &ys);
        let final_fit = match cfg.refit {
            None => base_fit,
            Some(refit) => {
                let reshaped_manifest = Manifest::new(
                    format!("{}[reshaped]", manifest.name),
                    reshaped.files.clone(),
                    manifest.seed,
                );
                let samples = sample_by_volume(
                    &reshaped_manifest,
                    refit.sample_volume,
                    refit.samples,
                    manifest.seed ^ 0x5A5A,
                );
                let (mut xs2, mut ys2) = (xs.clone(), ys.clone());
                for sample in &samples {
                    let half = &sample.files[..sample.files.len() / 2];
                    for part in [&sample.files[..], half] {
                        if part.is_empty() {
                            continue;
                        }
                        let run = cloud
                            .run_app(probe_inst, model, part, probe_data)
                            .map_err(|e| err(&e))?;
                        xs2.push(part.iter().map(|f| f.size).sum::<u64>() as f64);
                        ys2.push(run.observed_secs);
                    }
                }
                fit(ModelKind::Affine, &xs2, &ys2)
            }
        };
        cloud.terminate(probe_inst).map_err(|e| err(&e))?;
        t.close(fit_id);
        layers.insert("fit.observations".into(), xs.len() as f64);

        let plan = t
            .call("plan", root, || {
                make_plan(cfg.strategy, &reshaped.files, &final_fit, cfg.deadline_secs)
            })
            .map_err(|e| err(&e))?;
        layers.insert("plan.instances".into(), plan.instance_count() as f64);

        let exec_cfg = ExecutionConfig {
            staging: cfg.staging,
            screen: cfg.screen_fleet,
            ..ExecutionConfig::default()
        };
        let execution = t
            .call("execute", root, || {
                execute_plan_observed(&mut cloud, &plan, model, &exec_cfg, &cfg.obs)
            })
            .map_err(|e| err(&e))?;
        t.close(root);
        layers.insert("execute.shares".into(), execution.runs.len() as f64);
        layers.insert(
            "execute.instance_hours".into(),
            execution.instance_hours as f64,
        );

        // The per-layer split must describe the program the untimed
        // iterations ran.
        let last = self.last.as_ref().ok_or("no untraced report to compare")?;
        if last.unit != unit
            || last.reshape != reshaped
            || last.fit != final_fit
            || last.planned_instances != plan.instance_count()
            || last.execution != execution
        {
            return Err("the traced run diverged from the untraced pipeline".into());
        }

        // Replays of calls made inside library loops, over the same inputs.
        let mut volume = cfg.probe.v0;
        for _ in &probe_sets {
            let subset = manifest.prefix_by_volume(volume);
            t.replay("probe.build", || {
                perfmodel::build_probe_chain_par(
                    &subset,
                    cfg.probe.s0,
                    &cfg.probe.factors,
                    cfg.parallelism,
                )
            });
            volume = volume.saturating_mul(cfg.probe.growth);
        }
        if let UnitSize::Bytes(target) = unit {
            let items: Vec<Item> = manifest
                .files
                .iter()
                .enumerate()
                .map(|(i, f)| Item::new(i as u64, f.size))
                .collect();
            t.replay("reshape.pack", || {
                pack_for_reshape(&items, target, cfg.parallelism)
            });
            // Single-thread baseline for the thread-count decision.
            t.replay("reshape.pack_1t", || {
                pack_for_reshape(&items, target, Parallelism::Sequential)
            });
        }
        Ok(layers)
    }

    fn corpus(&self) -> (u64, u64) {
        let m = &self.workload.manifest;
        (m.len() as u64, m.total_volume())
    }
}

/// (volume, runtime) pairs at the chosen unit, every repeated run its own
/// observation, as the pipeline fits them.
fn observations_at_unit(sets: &[ProbeSetResult], unit: UnitSize) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for set in sets {
        for (u, _, m) in &set.points {
            if *u == unit {
                for &run in &m.runs {
                    xs.push(m.volume as f64);
                    ys.push(run);
                }
            }
        }
    }
    (xs, ys)
}
