//! The end-to-end pipeline: screen → probe → choose unit → reshape → fit →
//! (refit) → plan → execute.

use crate::reshape_step::{reshape_manifest_par, ReshapeOutcome};
use crate::workload::Workload;
use binpack::Parallelism;
use corpus::{sample_by_volume, FileSpec, Manifest};
use ec2sim::{
    acquire_good_instance, Cloud, CloudConfig, CloudError, DataLocation, FaultConfig, FaultPlan,
    InstanceId, ScreeningPolicy,
};
use obs::Obs;
use perfmodel::{
    choose_unit_size, fit, fit_all, fit_weighted, inverse_variance_weights, select_best,
    select_by_cross_validation, volume_weights, Fit, ModelKind, ProbeCampaign, ProbeSetResult,
    UnitSize,
};
use provision::{
    execute_plan_resilient_sourced, make_plan, DegradedReport, ExecutionConfig, ExecutionReport,
    FreshFleet, RetryPolicy, StagingTier, Strategy,
};
use serde::{Deserialize, Serialize};

/// Fixed shard count for per-shard reshape accounting. A constant (rather
/// than the machine's worker count) keeps the event log byte-identical on
/// every host; see [`binpack::shard_ranges`].
const RESHAPE_SHARDS: usize = 8;

/// Random-sample refit parameters (§5.1: 10×2 GB for grep; §5.2: 3×5 MB
/// for POS).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefitConfig {
    /// Bytes per sample.
    pub sample_volume: u64,
    /// Number of disjoint samples.
    pub samples: usize,
}

/// How the pipeline picks the performance-model family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelSelection {
    /// Always fit this family (the paper fixes linear/affine).
    Fixed(ModelKind),
    /// Fit all five families, keep the best original-scale R².
    BestR2,
    /// Leave-one-volume-out cross-validation, scored on the largest
    /// held-out volume (the honest criterion for §5's extrapolation).
    CrossValidated,
}

/// Observation weighting for the fit (§7 future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitWeighting {
    /// Plain least squares.
    Uniform,
    /// Weight observations by probe volume.
    Volume,
    /// Inverse-variance weights from the run-length-dependent noise model.
    InverseVariance,
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Simulated-cloud characteristics.
    pub cloud: CloudConfig,
    /// Probe campaign parameters.
    pub probe: ProbeCampaign,
    /// The user deadline, seconds.
    pub deadline_secs: f64,
    /// Provisioning strategy.
    pub strategy: Strategy,
    /// Data staging tier for the fleet run.
    pub staging: StagingTier,
    /// How to choose the model family.
    pub selection: ModelSelection,
    /// How to weight the observations when fitting.
    pub weighting: FitWeighting,
    /// Optional random-sample refit.
    pub refit: Option<RefitConfig>,
    /// Instance screening policy for the probe instance.
    pub screening: ScreeningPolicy,
    /// Also screen every fleet instance before use (bonnie gate applied
    /// fleet-wide).
    pub screen_fleet: bool,
    /// How the probe-construction and reshape stages execute their
    /// data-parallel sweeps. Results are identical for every setting.
    pub parallelism: Parallelism,
    /// Run the packing-invariant sanitizer over the reshape outcome and
    /// the provisioning plan (byte conservation, exactly-once assignment,
    /// per-instance volume accounting). Defaults to on in debug builds,
    /// off in release; violations surface as
    /// [`PipelineError::InvariantViolation`].
    pub validate: bool,
    /// Run the reshape step through the streaming-ingest sink (seeded
    /// arrival trace → online packer → seal/merge/compact) instead of the
    /// batch pack. `None` (the default) keeps the batch path. Same
    /// invariants either way: bytes conserved, deterministic in the seeds,
    /// byte-identical logs across [`Parallelism`] settings.
    pub ingest: Option<crate::ingest::IngestConfig>,
    /// Launch the fleet through this instance family: sampled instance
    /// quality goes through the family transform and billing uses the
    /// family's on-demand rate. `None` (the default) keeps the classic
    /// single-type fleet bit-for-bit.
    pub family: Option<ec2sim::InstanceFamily>,
    /// Inject a seeded fault schedule (generated from the cloud seed) into
    /// the simulated cloud. `None` (the default) runs fault-free.
    pub faults: Option<FaultConfig>,
    /// How execution reacts to injected faults (backoff, retries,
    /// replacements). Only consulted when `faults` is set.
    pub retry: RetryPolicy,
    /// Observability sink. Defaults to the no-op sink; pass
    /// [`Obs::recording`] to collect per-phase spans, counters and an
    /// NDJSON event log keyed on the simulation clock. The sink never
    /// participates in config equality or serialization.
    pub obs: Obs,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            cloud: CloudConfig::default(),
            probe: ProbeCampaign::default(),
            deadline_secs: 3600.0,
            strategy: Strategy::UniformBins,
            staging: StagingTier::Ebs,
            selection: ModelSelection::Fixed(ModelKind::Affine),
            weighting: FitWeighting::Uniform,
            refit: None,
            screening: ScreeningPolicy::default(),
            screen_fleet: true,
            parallelism: Parallelism::default(),
            validate: cfg!(debug_assertions),
            ingest: None,
            family: None,
            faults: None,
            retry: RetryPolicy::default(),
            obs: Obs::default(),
        }
    }
}

/// Pipeline failure modes.
#[derive(Debug)]
pub enum PipelineError {
    /// The simulated cloud refused an operation.
    Cloud(CloudError),
    /// The probe campaign produced nothing (empty corpus).
    NoProbes,
    /// Too few distinct volumes to fit a model.
    NotEnoughData,
    /// The model says the deadline is unreachable (shorter than fixed
    /// costs, or not invertible).
    InfeasibleDeadline {
        /// The offending deadline, seconds.
        deadline_secs: f64,
    },
    /// The packing-invariant sanitizer rejected an intermediate result
    /// (bytes not conserved, a file lost or duplicated, volume accounting
    /// off). Always a bug in the pipeline, never a user error.
    InvariantViolation(String),
}

impl From<CloudError> for PipelineError {
    fn from(e: CloudError) -> Self {
        PipelineError::Cloud(e)
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Cloud(e) => write!(f, "cloud error: {e}"),
            PipelineError::NoProbes => write!(f, "probe campaign produced no measurements"),
            PipelineError::NotEnoughData => {
                write!(f, "not enough distinct volumes to fit a model")
            }
            PipelineError::InfeasibleDeadline { deadline_secs } => {
                write!(
                    f,
                    "deadline of {deadline_secs}s is unreachable under the model"
                )
            }
            PipelineError::InvariantViolation(what) => {
                write!(f, "packing invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Everything the pipeline learned and did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// The chosen unit file size.
    pub unit: UnitSize,
    /// Raw probe measurements.
    pub probe_sets: Vec<ProbeSetResult>,
    /// The reshape outcome (merge ratio, packing stats).
    pub reshape: ReshapeOutcome,
    /// The model used for planning (refit if requested, else base fit).
    pub fit: Fit,
    /// The base fit before the random-sample refit, when a refit ran.
    pub base_fit: Option<Fit>,
    /// Instances the plan provisioned.
    pub planned_instances: usize,
    /// The model's predicted makespan, seconds.
    pub predicted_makespan_secs: f64,
    /// The fleet execution outcome.
    pub execution: ExecutionReport,
    /// Instances burned before one passed screening.
    pub screening_attempts: usize,
    /// Fault-injection accounting, when the pipeline ran with faults.
    pub degraded: Option<DegradedReport>,
}

/// The pipeline runner.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Build a pipeline with `config`.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// Run the full pipeline for `workload`.
    pub fn run(&self, workload: &Workload) -> Result<PipelineReport, PipelineError> {
        let mut cloud = match &self.config.faults {
            Some(fault_cfg) => Cloud::with_faults(
                self.config.cloud,
                &FaultPlan::generate(self.config.cloud.seed, fault_cfg),
            ),
            None => Cloud::new(self.config.cloud),
        };
        cloud.set_obs(self.config.obs.clone());
        let obs = &self.config.obs;
        let zone = ec2sim::AvailabilityZone::us_east_1a();

        // 1. Screened probe instance (§4).
        let span = obs.span_start("pipeline.screen", cloud.now());
        let (probe_inst, attempts) = acquire_good_instance(
            &mut cloud,
            ec2sim::InstanceType::Small,
            zone,
            &self.config.screening,
        )?;
        obs.span_end(span, cloud.now());
        obs.count("screen.attempts", attempts as u64);

        // 2. Probe campaign.
        let probe_volume = self
            .config
            .probe
            .max_volume
            .min(workload.manifest.total_volume())
            .max(1);
        let probe_data = self.probe_location(&mut cloud, probe_inst, probe_volume)?;
        let model = workload.app.cost_model();
        let mut measure_err: Option<CloudError> = None;
        let span = obs.span_start("pipeline.probe", cloud.now());
        let probe_sets = {
            let cloud_ref = &mut cloud;
            let err_ref = &mut measure_err;
            self.config.probe.run_with(
                &workload.manifest,
                |files| match cloud_ref.run_app(probe_inst, model, files, probe_data) {
                    Ok(r) => r.observed_secs,
                    Err(e) => {
                        *err_ref = Some(e);
                        f64::NAN
                    }
                },
                self.config.parallelism,
            )
        };
        if let Some(e) = measure_err {
            return Err(e.into());
        }
        obs.span_end(span, cloud.now());
        obs.count("probe.sets", probe_sets.len() as u64);
        let unit = choose_unit_size(&probe_sets, self.config.probe.stability_cv)
            .ok_or(PipelineError::NoProbes)?;

        // 3. Reshape the corpus to the chosen unit. Reshaping is host-side
        // planning work, so the span opens and closes at the same simulated
        // instant; shard events carry the per-range accounting instead.
        let span = obs.span_start("pipeline.reshape", cloud.now());
        let reshape = match &self.config.ingest {
            // Streaming sink: replay the seeded arrival trace through the
            // online packer. Inherently sequential (arrivals are a serial
            // stream), so `parallelism` is not consulted — which also
            // keeps the log byte-identical across settings for free.
            Some(ingest) => crate::ingest::reshape_streaming(&workload.manifest, unit, ingest, obs),
            None => reshape_manifest_par(&workload.manifest, unit, self.config.parallelism),
        };
        if self.config.validate {
            validate_reshape(&workload.manifest, &reshape)?;
        }
        obs.span_end(span, cloud.now());
        obs.count("reshape.files_in", workload.manifest.len() as u64);
        obs.count("reshape.files_out", reshape.files.len() as u64);
        obs.gauge("reshape.merge_ratio", reshape.merge_ratio());
        if obs.is_recording() {
            // Shard accounting is a pure function of the reshaped file
            // list, never of the machine's worker count, so the event log
            // stays byte-identical across hosts and parallelism settings.
            for (i, (lo, hi)) in binpack::shard_ranges(reshape.files.len(), RESHAPE_SHARDS)
                .into_iter()
                .enumerate()
            {
                let bytes: u64 = reshape.files[lo..hi].iter().map(|f| f.size).sum();
                obs.shard("reshape", i as u64, (hi - lo) as u64, bytes);
            }
            // Pack-route accounting: which shards the reshape pack fanned
            // out over (empty below the sharded-pack threshold, and not
            // applicable to the streaming sink, whose segment accounting is
            // the Seal events). Also a pure function of the input manifest.
            if self.config.ingest.is_none()
                && workload.manifest.len() >= crate::reshape_step::PAR_PACK_MIN_ITEMS
            {
                for (i, (lo, hi)) in binpack::shard_ranges(
                    workload.manifest.len(),
                    crate::reshape_step::RESHAPE_PACK_SHARDS,
                )
                .into_iter()
                .enumerate()
                {
                    let bytes: u64 = workload.manifest.files[lo..hi].iter().map(|f| f.size).sum();
                    obs.shard("reshape.pack", i as u64, (hi - lo) as u64, bytes);
                }
            }
        }

        // 4. Fit runtime = f(volume) from the chosen unit's measurements.
        let span = obs.span_start("pipeline.fit", cloud.now());
        let (xs, ys) = observations_at_unit(&probe_sets, unit);
        if xs.len() < 2 || !has_two_distinct(&xs) {
            return Err(PipelineError::NotEnoughData);
        }
        let base_fit = self.fit_model(&xs, &ys);

        // 5. Optional random-sample refit (§5.1/§5.2).
        let (final_fit, base_for_report) = if let Some(refit) = self.config.refit {
            let reshaped_manifest = Manifest::new(
                format!("{}[reshaped]", workload.manifest.name),
                reshape.files.clone(),
                workload.manifest.seed,
            );
            let samples = sample_by_volume(
                &reshaped_manifest,
                refit.sample_volume,
                refit.samples,
                workload.manifest.seed ^ 0x5A5A,
            );
            let mut xs2 = xs.clone();
            let mut ys2 = ys.clone();
            for sample in &samples {
                // Measure the sample and a half-volume subset of it, like
                // the paper's "samples, and a few of their smaller
                // subsets".
                for part in [sample.files.clone(), half_of(&sample.files)] {
                    if part.is_empty() {
                        continue;
                    }
                    let vol: u64 = part.iter().map(|f| f.size).sum();
                    let t = cloud
                        .run_app(probe_inst, model, &part, probe_data)
                        .map(|r| r.observed_secs)?;
                    xs2.push(vol as f64);
                    ys2.push(t);
                }
            }
            (self.fit_model(&xs2, &ys2), Some(base_fit.clone()))
        } else {
            (base_fit, None)
        };
        cloud.terminate(probe_inst)?;
        obs.span_end(span, cloud.now());
        obs.count("fit.observations", xs.len() as u64);
        obs.gauge("fit.r2", final_fit.r2);

        // 6. Plan. Provisioning reports infeasible deadlines as typed
        // errors (ProvisionError), which the pipeline surfaces as
        // InfeasibleDeadline.
        let span = obs.span_start("pipeline.plan", cloud.now());
        // A family fleet plans in the family's seconds (the §5
        // calibration transported by the perf multiplier). Without a
        // family this is exactly the classic plan.
        let (strategy, files, deadline) = (
            self.config.strategy,
            &reshape.files,
            self.config.deadline_secs,
        );
        let plan = match &self.config.family {
            Some(fam) => market::family_plan(strategy, files, &final_fit, fam, deadline),
            None => make_plan(strategy, files, &final_fit, deadline),
        }
        .map_err(|_| PipelineError::InfeasibleDeadline {
            deadline_secs: self.config.deadline_secs,
        })?;
        if self.config.validate {
            validate_plan(&reshape.files, &plan)?;
        }
        obs.span_end(span, cloud.now());
        obs.count("plan.instances", plan.instance_count() as u64);
        obs.gauge("plan.predicted_makespan_secs", plan.predicted_makespan());

        // 7. Execute on a fresh fleet.
        let exec_cfg = ExecutionConfig {
            staging: self.config.staging,
            screen: self.config.screen_fleet,
            itype: self
                .config
                .family
                .map(|f| f.itype)
                .unwrap_or(ExecutionConfig::default().itype),
            family: self.config.family,
            ..ExecutionConfig::default()
        };
        // The executor emits the `pipeline.execute` span itself: the fleet
        // runs on per-instance event timelines, and only the executor knows
        // the last simulated finish time.
        let report = execute_plan_resilient_sourced(
            &mut cloud,
            &plan,
            model,
            &exec_cfg,
            &self.config.retry,
            &mut FreshFleet,
            obs,
        )?;
        let execution = report.execution.clone();
        let degraded = self.config.faults.is_some().then_some(report);

        Ok(PipelineReport {
            unit,
            probe_sets,
            reshape,
            fit: final_fit,
            base_fit: base_for_report,
            planned_instances: plan.instance_count(),
            predicted_makespan_secs: plan.predicted_makespan(),
            execution,
            screening_attempts: attempts,
            degraded,
        })
    }

    fn fit_model(&self, xs: &[f64], ys: &[f64]) -> Fit {
        let weights = match self.config.weighting {
            FitWeighting::Uniform => None,
            FitWeighting::Volume => Some(volume_weights(xs)),
            FitWeighting::InverseVariance => {
                let noise = self.config.cloud.noise;
                Some(inverse_variance_weights(
                    ys,
                    noise.base_rel,
                    noise.short_rel,
                ))
            }
        };
        match (self.config.selection, weights) {
            (ModelSelection::Fixed(kind), None) => fit(kind, xs, ys),
            (ModelSelection::Fixed(kind), Some(w)) => fit_weighted(kind, xs, ys, &w),
            (ModelSelection::BestR2, None) => select_best(&fit_all(xs, ys)).clone(),
            (ModelSelection::BestR2, Some(w)) => {
                let fits: Vec<Fit> = ModelKind::ALL
                    .iter()
                    .map(|&k| fit_weighted(k, xs, ys, &w))
                    .collect();
                select_best(&fits).clone()
            }
            // Cross-validation selects the family on unweighted holdout
            // error; the final fit then honors the weighting.
            (ModelSelection::CrossValidated, w) => {
                let (winner, _) = select_by_cross_validation(xs, ys);
                match w {
                    None => winner,
                    Some(w) => fit_weighted(winner.kind, xs, ys, &w),
                }
            }
        }
    }

    fn probe_location(
        &self,
        cloud: &mut Cloud,
        inst: InstanceId,
        probe_volume: u64,
    ) -> Result<DataLocation, PipelineError> {
        Ok(match self.config.staging {
            StagingTier::Ebs => {
                let vol = cloud.create_volume(
                    ec2sim::AvailabilityZone::us_east_1a(),
                    probe_volume.saturating_mul(2).max(1),
                );
                cloud.attach_volume(vol, inst)?;
                DataLocation::Ebs {
                    volume: vol,
                    offset: 0,
                }
            }
            StagingTier::Local => DataLocation::Local,
        })
    }
}

/// Sanitizer: the reshape must conserve bytes and never increase the file
/// count (merging only ever concatenates).
fn validate_reshape(manifest: &Manifest, reshape: &ReshapeOutcome) -> Result<(), PipelineError> {
    let in_bytes = manifest.total_volume();
    let out_bytes: u64 = reshape.files.iter().map(|f| f.size).sum();
    if in_bytes != out_bytes {
        return Err(PipelineError::InvariantViolation(format!(
            "reshape changed the corpus volume: {in_bytes} bytes in, {out_bytes} bytes out"
        )));
    }
    if reshape.files.len() > manifest.len() {
        return Err(PipelineError::InvariantViolation(format!(
            "reshape grew the file count: {} in, {} out",
            manifest.len(),
            reshape.files.len()
        )));
    }
    Ok(())
}

/// Sanitizer: the plan must assign every reshaped file to exactly one
/// instance, keep per-instance volume accounting honest, and conserve the
/// total volume.
fn validate_plan(files: &[FileSpec], plan: &provision::Plan) -> Result<(), PipelineError> {
    let mut pending: std::collections::BTreeMap<(u64, u64), usize> =
        std::collections::BTreeMap::new();
    for f in files {
        *pending.entry((f.id, f.size)).or_insert(0) += 1;
    }
    for (i, inst) in plan.instances.iter().enumerate() {
        let actual: u64 = inst.files.iter().map(|f| f.size).sum();
        if actual != inst.volume {
            return Err(PipelineError::InvariantViolation(format!(
                "instance {i} records {} bytes but its files sum to {actual}",
                inst.volume
            )));
        }
        for f in &inst.files {
            match pending.get_mut(&(f.id, f.size)) {
                Some(n) if *n > 0 => *n -= 1,
                _ => {
                    return Err(PipelineError::InvariantViolation(format!(
                        "file {} ({} bytes) assigned twice or unknown to the reshape",
                        f.id, f.size
                    )))
                }
            }
        }
    }
    if let Some((&(id, size), _)) = pending.iter().find(|(_, &n)| n > 0) {
        return Err(PipelineError::InvariantViolation(format!(
            "file {id} ({size} bytes) never assigned to an instance"
        )));
    }
    let in_bytes: u64 = files.iter().map(|f| f.size).sum();
    if plan.total_volume() != in_bytes {
        return Err(PipelineError::InvariantViolation(format!(
            "plan volume {} differs from reshaped corpus volume {in_bytes}",
            plan.total_volume()
        )));
    }
    Ok(())
}

/// Collect (volume, runtime) pairs at the chosen unit across all probe
/// sets; every repeated run is a separate observation so residual spread
/// is preserved.
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

fn has_two_distinct(xs: &[f64]) -> bool {
    xs.iter().any(|&x| x != xs[0])
}

fn half_of(files: &[FileSpec]) -> Vec<FileSpec> {
    files[..files.len() / 2].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::App;

    fn quick_probe() -> ProbeCampaign {
        ProbeCampaign {
            v0: 5_000_000,
            growth: 5,
            max_volume: 500_000_000,
            repeats: 3,
            s0: 1_000_000,
            factors: vec![10, 100],
            stability_cv: 0.25,
            min_sets: 3,
        }
    }

    fn grep_config(deadline: f64) -> PipelineConfig {
        PipelineConfig {
            probe: quick_probe(),
            deadline_secs: deadline,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn grep_pipeline_end_to_end() {
        let manifest = corpus::html_18mil(0.001, 3); // 18 000 files, ~0.9 GB
        let workload = Workload::new(manifest, App::grep("zxqv"));
        let report = Pipeline::new(grep_config(10.0)).run(&workload).unwrap();
        // Grep prefers merged units — never the original tiny files.
        assert_ne!(report.unit, UnitSize::Original, "unit {:?}", report.unit);
        assert!(report.reshape.merge_ratio() > 2.0);
        assert!(report.planned_instances >= 1);
        assert_eq!(report.execution.runs.len(), report.planned_instances);
        assert!(report.fit.r2 > 0.8, "poor fit r2 = {}", report.fit.r2);
    }

    #[test]
    fn pos_pipeline_prefers_original_segmentation() {
        let manifest = corpus::text_400k(0.002, 4); // 800 files ~2 MB
        let workload = Workload::new(manifest, App::pos());
        let config = PipelineConfig {
            probe: ProbeCampaign {
                v0: 500_000,
                growth: 4,
                max_volume: 2_000_000,
                repeats: 3,
                s0: 20_000,
                factors: vec![10, 50],
                stability_cv: 0.25,
                min_sets: 2,
            },
            staging: StagingTier::Local,
            deadline_secs: 120.0,
            ..PipelineConfig::default()
        };
        let report = Pipeline::new(config).run(&workload).unwrap();
        assert_eq!(report.unit, UnitSize::Original);
        assert!((report.reshape.merge_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_deadline_is_an_error_not_a_panic() {
        let manifest = corpus::html_18mil(0.0005, 5);
        let workload = Workload::new(manifest, App::grep("zxqv"));
        let err = Pipeline::new(grep_config(1.0e-6)).run(&workload);
        assert!(matches!(err, Err(PipelineError::InfeasibleDeadline { .. })));
    }

    #[test]
    fn refit_changes_the_model() {
        let manifest = corpus::html_18mil(0.001, 6);
        let workload = Workload::new(manifest, App::grep("zxqv"));
        let mut config = grep_config(10.0);
        config.refit = Some(RefitConfig {
            sample_volume: 50_000_000,
            samples: 3,
        });
        let report = Pipeline::new(config).run(&workload).unwrap();
        let base = report.base_fit.expect("base fit recorded");
        assert_ne!(base.a, report.fit.a);
    }

    #[test]
    fn pipeline_report_identical_across_parallelism_settings() {
        let manifest = corpus::html_18mil(0.0005, 9);
        let workload = Workload::new(manifest, App::grep("zxqv"));
        let baseline = {
            let mut c = grep_config(10.0);
            c.parallelism = Parallelism::Sequential;
            Pipeline::new(c).run(&workload).unwrap()
        };
        for par in [Parallelism::Rayon(0), Parallelism::Rayon(4)] {
            let mut c = grep_config(10.0);
            c.parallelism = par;
            let report = Pipeline::new(c).run(&workload).unwrap();
            assert_eq!(baseline, report, "pipeline diverged under {par:?}");
        }
    }

    #[test]
    fn faulty_pipeline_reports_degradation_and_conserves_bytes() {
        let manifest = corpus::html_18mil(0.001, 8);
        let workload = Workload::new(manifest, App::grep("zxqv"));
        let mut config = grep_config(10.0);
        // Homogeneous fleet: the screened probe instance is ordinal 0 and
        // the fault schedule below spares it (and its volume).
        config.cloud.homogeneous = true;
        config.screen_fleet = false;
        config.faults = Some(FaultConfig {
            horizon_secs: 300.0,
            first_instance: 1,
            first_volume: 1,
            crash_prob: 0.3,
            preemption_prob: 0.1,
            boot_delay_prob: 0.5,
            attach_failure_prob: 0.3,
            ..FaultConfig::default()
        });
        let report = Pipeline::new(config.clone()).run(&workload).unwrap();
        let degraded = report.degraded.clone().expect("degraded report present");
        assert_eq!(degraded.execution, report.execution);
        // Every reshaped byte either completed or is accounted as lost.
        let done: u64 = degraded.share_files.iter().flatten().map(|f| f.size).sum();
        let total: u64 = report.reshape.files.iter().map(|f| f.size).sum();
        assert_eq!(done + degraded.lost_bytes, total);
        // Same config ⇒ identical faulty run, degradation included.
        let again = Pipeline::new(config).run(&workload).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let manifest = corpus::html_18mil(0.0005, 7);
        let workload = Workload::new(manifest, App::grep("zxqv"));
        let a = Pipeline::new(grep_config(10.0)).run(&workload).unwrap();
        let b = Pipeline::new(grep_config(10.0)).run(&workload).unwrap();
        assert_eq!(a.execution.makespan_secs, b.execution.makespan_secs);
        assert_eq!(a.unit, b.unit);
    }
}
