//! Execute a [`Plan`] on the simulated cloud: one instance per bin, all in
//! parallel, with data staged on EBS (the grep setup: "the data is already
//! staged onto EBS storage volumes") or local storage (the POS setup:
//! "staged onto local storage in a constant time per run").
//!
//! Every share of every fleet run — each executor entry point here and the
//! map phase of [`crate::shuffle`] — runs through one share attempt: it
//! stages the data, backs off transient errors, submits the job and, when
//! the cloud kills the instance, bills the dead attempt and requeues the
//! whole bin on a replacement, all bounded by a [`RetryPolicy`]. On a
//! fault-free cloud none of the recovery fires, so the static entry points
//! ([`execute_plan`], [`execute_plan_observed`]) are the resilient executor
//! with a fresh fleet and the default policy.

use crate::plan::{InstancePlan, Plan};
use crate::pricing::instance_hours;
use corpus::FileSpec;
use ec2sim::{screen_at, Cloud, CloudError, DataLocation, InstanceId, RunReport, ScreeningPolicy};
use obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use textapps::AppCostModel;

/// Where each instance's input is staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StagingTier {
    /// One EBS volume per instance, attached before the run.
    Ebs,
    /// Ephemeral local storage, populated in constant time per run.
    Local,
}

/// Execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Instance type for the fleet.
    pub itype: ec2sim::InstanceType,
    /// Zone for instances and volumes.
    pub zone: ec2sim::AvailabilityZone,
    /// Where the data sits.
    pub staging: StagingTier,
    /// Constant stage-in time for `Local` staging, seconds.
    pub stage_in_secs: f64,
    /// Screen every fleet instance with bonnie before use (§4 applied
    /// fleet-wide); rejected instances are terminated once screened, which
    /// bills each a started hour, and replaced, delaying that share's
    /// start.
    pub screen: bool,
    /// When set, the fleet launches through this instance family: sampled
    /// quality is reshaped by the family transform and the billed rate is
    /// the family's on-demand price. `None` keeps the classic
    /// single-family behavior bit-for-bit.
    pub family: Option<ec2sim::InstanceFamily>,
    /// When set, overrides the billed hourly rate (spot acquisitions
    /// record the expected market price here).
    pub rate_override: Option<f64>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            itype: ec2sim::InstanceType::Small,
            zone: ec2sim::AvailabilityZone::us_east_1a(),
            staging: StagingTier::Ebs,
            stage_in_secs: 30.0,
            screen: false,
            family: None,
            rate_override: None,
        }
    }
}

impl ExecutionConfig {
    /// Dollars billed per started instance-hour under this configuration:
    /// the explicit override, else the family's on-demand rate, else the
    /// instance type's list rate — what [`Cloud::launch`] bills.
    pub fn hourly_rate(&self) -> f64 {
        self.rate_override
            .or(self.family.map(|f| f.on_demand_rate))
            .unwrap_or(self.itype.hourly_rate())
    }
}

/// One instance's measured execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceRun {
    /// Which instance ran this share.
    pub instance: InstanceId,
    /// Bytes processed.
    pub volume: u64,
    /// Files processed.
    pub files: usize,
    /// The plan's predicted runtime, seconds.
    pub predicted_secs: f64,
    /// Observed job time (staging/attach + application run), seconds —
    /// the quantity the paper plots against the deadline line.
    pub job_secs: f64,
    /// Whether the job finished within the user deadline.
    pub met_deadline: bool,
}

/// The fleet-level outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Per-instance outcomes, in plan order.
    pub runs: Vec<InstanceRun>,
    /// The user deadline, seconds.
    pub deadline_secs: f64,
    /// Max observed job time, seconds.
    pub makespan_secs: f64,
    /// Instances that missed the deadline.
    pub misses: usize,
    /// Total billed instance-hours.
    pub instance_hours: u64,
    /// Total dollars.
    pub cost: f64,
}

impl ExecutionReport {
    /// True when no instance missed.
    pub fn met_deadline(&self) -> bool {
        self.misses == 0
    }

    /// The fleet summary of `runs` billed `hours` instance-hours at `cfg`'s
    /// rate; `failed` shares that never completed also count as misses.
    pub(crate) fn summarize(
        runs: Vec<InstanceRun>,
        deadline_secs: f64,
        failed: usize,
        hours: u64,
        cfg: &ExecutionConfig,
    ) -> Self {
        ExecutionReport {
            deadline_secs,
            makespan_secs: runs.iter().map(|r| r.job_secs).fold(0.0, f64::max),
            misses: runs.iter().filter(|r| !r.met_deadline).count() + failed,
            instance_hours: hours,
            cost: hours as f64 * cfg.hourly_rate(),
            runs,
        }
    }
}

/// Where the resilient executor gets its instances from and how billed
/// hours are attributed to the share that used them.
///
/// [`FreshFleet`] reproduces the classic single-tenant behaviour (launch a
/// fresh instance per share, terminate it when the share ends, bill every
/// started hour of its span). A warm-instance pool — `sched::InstancePool`
/// — keeps released instances alive through the hour they have already
/// paid for and hands them to later shares at zero marginal cost.
pub trait FleetSource {
    /// Acquire an instance for one share. Returns the instance and the
    /// simulated time at which it is ready to start work.
    fn acquire(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
    ) -> Result<(InstanceId, f64), CloudError>;

    /// Hand a live instance back after its share ended at `at` (`ready`
    /// is the time the instance picked the share up). The source decides
    /// whether to terminate or keep it warm; it returns the billed
    /// instance-hours attributed to this share.
    fn release(
        &mut self,
        cloud: &mut Cloud,
        inst: InstanceId,
        ready: f64,
        at: f64,
    ) -> Result<u64, CloudError>;

    /// The cloud killed `inst` (crash or preemption) at `at`; it is
    /// already terminated on the cloud side. Returns the billed hours
    /// attributed to the doomed attempt.
    fn lost(&mut self, cloud: &mut Cloud, inst: InstanceId, ready: f64, at: f64) -> u64;
}

/// The classic fleet source: a fresh (optionally screened) instance per
/// share, terminated as soon as the share ends, billed for every started
/// hour between ready and release.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreshFleet;

impl FleetSource for FreshFleet {
    fn acquire(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
    ) -> Result<(InstanceId, f64), CloudError> {
        acquire_instance(cloud, cfg)
    }

    fn release(
        &mut self,
        cloud: &mut Cloud,
        inst: InstanceId,
        ready: f64,
        at: f64,
    ) -> Result<u64, CloudError> {
        cloud.terminate_at(inst, at)?;
        Ok(instance_hours((at - ready).max(0.0)))
    }

    fn lost(&mut self, _cloud: &mut Cloud, _inst: InstanceId, ready: f64, at: f64) -> u64 {
        instance_hours((at - ready).max(0.0))
    }
}

/// Launch one fleet instance, optionally screening it with bonnie first
/// (up to 16 candidates; each reject is terminated after its screen, so
/// the ledger bills it a started hour, and when all of them fail the
/// result is `CloudError::ScreeningExhausted`). This is the cold path
/// used by [`FreshFleet`] and by warm pools on a pool miss.
pub fn acquire_instance(
    cloud: &mut Cloud,
    cfg: &ExecutionConfig,
) -> Result<(InstanceId, f64), CloudError> {
    let launch = |cloud: &mut Cloud| match (cfg.family, cfg.rate_override) {
        (Some(f), Some(rate)) => cloud.launch_family_priced(&f, cfg.zone, rate),
        (Some(f), None) => cloud.launch_family(&f, cfg.zone),
        (None, _) => cloud.launch(cfg.itype, cfg.zone),
    };
    if !cfg.screen {
        let inst = launch(cloud)?;
        let ready = cloud.running_at(inst)?;
        return Ok((inst, ready));
    }
    let policy = ScreeningPolicy::default();
    let mut not_before = 0.0f64;
    for _ in 0..policy.max_attempts {
        let inst = launch(cloud)?;
        let (passed, ready) = screen_at(cloud, inst, &policy)?;
        let ready = ready.max(not_before);
        if passed {
            return Ok((inst, ready));
        }
        cloud.terminate_at(inst, ready)?;
        // The replacement boots while we finish rejecting this one.
        not_before = ready;
    }
    Err(CloudError::ScreeningExhausted {
        attempts: policy.max_attempts,
    })
}

/// Run every share of the plan on its own fresh instance, all in parallel
/// on per-instance timelines, and summarize.
///
/// This is [`execute_plan_resilient`] with the default [`RetryPolicy`],
/// keeping only the fleet summary. On a faulty cloud a share whose
/// instance crashes therefore finishes on a replacement instead of
/// returning the crash error; a share that exhausts the policy is missing
/// from `runs` and counts as a miss.
pub fn execute_plan(
    cloud: &mut Cloud,
    plan: &Plan,
    model: &dyn AppCostModel,
    cfg: &ExecutionConfig,
) -> Result<ExecutionReport, CloudError> {
    execute_plan_observed(cloud, plan, model, cfg, &Obs::default())
}

/// [`execute_plan`] with an observability sink: emits a per-bin
/// `execute.share` span (on the instance's simulated timeline), byte and
/// job-time metrics, fleet-level gauges and, on a faulty cloud, the
/// recovery counters of [`execute_plan_resilient_sourced`].
pub fn execute_plan_observed(
    cloud: &mut Cloud,
    plan: &Plan,
    model: &dyn AppCostModel,
    cfg: &ExecutionConfig,
    obs: &Obs,
) -> Result<ExecutionReport, CloudError> {
    execute_plan_resilient_sourced(
        cloud,
        plan,
        model,
        cfg,
        &RetryPolicy::default(),
        &mut FreshFleet,
        obs,
    )
    .map(|report| report.execution)
}

/// Backoff before the first retry, simulated seconds.
const BASE_BACKOFF_SECS: f64 = 2.0;

/// Multiplier between consecutive backoffs.
const BACKOFF_FACTOR: f64 = 2.0;

/// Cap on a single backoff, simulated seconds.
const MAX_BACKOFF_SECS: f64 = 60.0;

/// Uniform jitter applied to each backoff, as a ± fraction.
const JITTER_FRAC: f64 = 0.1;

/// How the resilient executor reacts to injected faults. All delays are
/// **simulated** seconds folded into instance timelines — this crate is
/// clock-free (RL005), so backoff never reads the wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per operation for transient errors (first try included).
    pub max_attempts: u32,
    /// Replacement instances allowed per share after instance loss.
    pub max_replacements: u32,
    /// Seed of the jitter RNG (independent of the cloud seed, so the same
    /// policy replays identically on any cloud).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            max_replacements: 3,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): bounded
    /// exponential with uniform jitter, in simulated seconds.
    pub fn backoff_secs(&self, attempt: u32, rng: &mut StdRng) -> f64 {
        let exp = attempt.saturating_sub(1).min(24);
        let capped = (BASE_BACKOFF_SECS * BACKOFF_FACTOR.powi(exp as i32)).min(MAX_BACKOFF_SECS);
        capped * (1.0 + JITTER_FRAC * (rng.random::<f64>() * 2.0 - 1.0))
    }
}

/// Outcome of a resilient execution: injected faults vs. recovered work
/// vs. deadline outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedReport {
    /// Fleet summary over completed shares; `misses` also counts
    /// unrecovered shares.
    pub execution: ExecutionReport,
    /// Plan indices of shares whose data was never processed (retries or
    /// replacements exhausted).
    pub failed_shares: Vec<usize>,
    /// Files actually processed per share, in plan order (empty for a
    /// failed share) — lets callers audit byte conservation with
    /// `binpack::check`.
    pub share_files: Vec<Vec<FileSpec>>,
    /// Instance crashes suffered.
    pub crashes: usize,
    /// Spot preemptions suffered.
    pub preemptions: usize,
    /// Transient errors absorbed by in-place backoff retries.
    pub transient_retries: usize,
    /// Replacement instances launched after instance loss.
    pub replacements: usize,
    /// Shares requeued onto a replacement at least once.
    pub requeued_shares: usize,
    /// Bytes completed on a replacement after an instance loss.
    pub recovered_bytes: u64,
    /// Bytes never processed (failed shares).
    pub lost_bytes: u64,
    /// Fault events that actually fired in the cloud.
    pub faults_fired: usize,
    /// Simulated time the last share finished or gave up; equal to the
    /// phase start when the plan is empty. Schedulers use this as the
    /// job's completion instant on the shared clock.
    pub finished_at: f64,
}

impl DegradedReport {
    /// Shares in the plan (completed + failed).
    pub fn total_shares(&self) -> usize {
        self.execution.runs.len() + self.failed_shares.len()
    }

    /// Fraction of shares that missed the deadline (failed shares count
    /// as misses).
    pub fn miss_rate(&self) -> f64 {
        if self.total_shares() == 0 {
            return 0.0;
        }
        self.execution.misses as f64 / self.total_shares() as f64
    }
}

/// The counters one kind of fleet run reports its recovery actions under,
/// and the salt of its jitter RNG. They are constants, so every event log
/// keeps its bytes.
pub(crate) struct RunKind {
    pub(crate) salt: u64,
    pub(crate) transient_retries: &'static str,
    pub(crate) crashes: &'static str,
    pub(crate) preemptions: &'static str,
    pub(crate) replacements: &'static str,
}

/// The executors' recovery counters.
const EXECUTE: RunKind = RunKind {
    salt: 0xBACC_0FF5,
    transient_retries: "execute.transient_retries",
    crashes: "execute.crashes",
    preemptions: "execute.preemptions",
    replacements: "execute.replacements",
};

/// How one share's attempts ended.
pub(crate) enum ShareEnd {
    /// The share completed on `report.instance`, which picked it up at
    /// `ready` and is still live; `requeued` when it is a replacement.
    Done {
        report: RunReport,
        ready: f64,
        requeued: bool,
    },
    /// The share gave up at `at` and holds no instance: `err` is the
    /// transient error that used up the policy's attempts, `None` when
    /// instance loss used up its replacements.
    GaveUp { at: f64, err: Option<CloudError> },
}

/// The recovery state of one fleet run: where its instances come from,
/// the retry policy and its jitter RNG, the counters it reports under, and
/// the tallies its report is built from.
pub(crate) struct Fleet<'a> {
    source: &'a mut dyn FleetSource,
    retry: &'a RetryPolicy,
    rng: StdRng,
    kind: &'static RunKind,
    obs: &'a Obs,
    /// Billed instance-hours, doomed attempts included.
    pub(crate) hours: u64,
    pub(crate) crashes: usize,
    pub(crate) preemptions: usize,
    pub(crate) transient_retries: usize,
    pub(crate) replacements: usize,
}

impl<'a> Fleet<'a> {
    pub(crate) fn new(
        kind: &'static RunKind,
        retry: &'a RetryPolicy,
        source: &'a mut dyn FleetSource,
        obs: &'a Obs,
    ) -> Self {
        Fleet {
            source,
            retry,
            rng: StdRng::seed_from_u64(retry.seed ^ kind.salt),
            kind,
            obs,
            hours: 0,
            crashes: 0,
            preemptions: 0,
            transient_retries: 0,
            replacements: 0,
        }
    }

    /// Acquire an instance from the source. One lost while booting or
    /// during its bonnie screen is simply replaced (bounded, so a plan
    /// that crashes every ordinal still terminates).
    pub(crate) fn acquire(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
    ) -> Result<(InstanceId, f64), CloudError> {
        let mut outcome = self.source.acquire(cloud, cfg);
        for _ in 0..16 {
            match outcome {
                Ok(ok) => return Ok(ok),
                Err(ref e) if e.is_instance_loss() => {}
                Err(e) => return Err(e),
            }
            outcome = self.source.acquire(cloud, cfg);
        }
        outcome
    }

    /// Hand a live instance back to the source once its work ended at `at`
    /// and bill the hours the source attributes to it.
    pub(crate) fn release(
        &mut self,
        cloud: &mut Cloud,
        inst: InstanceId,
        ready: f64,
        at: f64,
    ) -> Result<(), CloudError> {
        self.hours += self.source.release(cloud, inst, ready, at)?;
        Ok(())
    }

    /// The backoff step after another transient error in a row (`attempt`
    /// counts them): the simulated delay before the next try, or `None`
    /// once the policy's attempts are used up.
    pub(crate) fn backoff(&mut self, attempt: &mut u32) -> Option<f64> {
        *attempt += 1;
        if *attempt >= self.retry.max_attempts {
            return None;
        }
        self.transient_retries += 1;
        self.obs.count(self.kind.transient_retries, 1);
        Some(self.retry.backoff_secs(*attempt, &mut self.rng))
    }

    /// The replacement step after `err` killed `inst` (ready at `ready`),
    /// noticed at `t`: tally the loss, bill the doomed attempt and, while
    /// the share has replacements left (`used` counts them), acquire a
    /// replacement that cannot pick the work up before the loss. Returns
    /// the time of death and the replacement, `None` once the budget is
    /// used up.
    pub(crate) fn replace(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
        (inst, ready): (InstanceId, f64),
        err: &CloudError,
        t: f64,
        used: &mut u32,
    ) -> Result<(f64, Option<(InstanceId, f64)>), CloudError> {
        if matches!(err, CloudError::SpotPreempted(_)) {
            self.preemptions += 1;
            self.obs.count(self.kind.preemptions, 1);
        } else {
            self.crashes += 1;
            self.obs.count(self.kind.crashes, 1);
        }
        // The cloud already terminated the instance and detached its
        // volumes.
        let t_dead = cloud.crash_time(inst).unwrap_or(t).max(ready);
        self.hours += self.source.lost(cloud, inst, ready, t_dead);
        if *used >= self.retry.max_replacements {
            return Ok((t_dead, None));
        }
        *used += 1;
        self.replacements += 1;
        self.obs.count(self.kind.replacements, 1);
        let (next, next_ready) = self.acquire(cloud, cfg)?;
        Ok((t_dead, Some((next, next_ready.max(t_dead)))))
    }

    /// Run one share to its end, starting on `first` (an instance and the
    /// time it is ready). Each attempt stages the data, backing off
    /// transient attach errors, and submits the job. When the cloud kills
    /// the instance, the whole bin is requeued on a replacement: a
    /// persistent EBS volume survives the loss and re-attaches, local
    /// staging re-stages from scratch. A share stuck on transient errors
    /// releases its live instance; a completed one leaves it to the caller.
    pub(crate) fn run_share(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
        model: &dyn AppCostModel,
        share: &InstancePlan,
        first: (InstanceId, f64),
    ) -> Result<ShareEnd, CloudError> {
        let attach = cloud.config().attach_overhead_s;
        let vol = (cfg.staging == StagingTier::Ebs)
            .then(|| cloud.create_volume(cfg.zone, share.volume.max(1)));
        let ((mut inst, mut ready), mut used) = (first, 0u32);
        loop {
            // One attempt on `inst`, working no earlier than `ready`.
            let (mut t, mut attempt) = (ready, 0u32);
            let data = match vol {
                None => {
                    t += cfg.stage_in_secs;
                    Ok(DataLocation::Local)
                }
                Some(volume) => loop {
                    match cloud.attach_volume_at(volume, inst, t) {
                        Ok(()) => {
                            t += attach;
                            break Ok(DataLocation::Ebs { volume, offset: 0 });
                        }
                        Err(err) if err.is_transient() => match self.backoff(&mut attempt) {
                            Some(delay) => t += delay,
                            None => {
                                self.release(cloud, inst, ready, t)?;
                                let err = Some(err);
                                return Ok(ShareEnd::GaveUp { at: t, err });
                            }
                        },
                        Err(err) => break Err(err),
                    }
                },
            };
            let run = data.and_then(|data| cloud.submit_job(inst, model, &share.files, data, t));
            let err = match run {
                Ok(report) => {
                    return Ok(ShareEnd::Done {
                        report,
                        ready,
                        requeued: used > 0,
                    })
                }
                Err(err) if err.is_instance_loss() => err,
                Err(err) => return Err(err),
            };
            match self.replace(cloud, cfg, (inst, ready), &err, t, &mut used)? {
                (_, Some(next)) => (inst, ready) = next,
                (at, None) => return Ok(ShareEnd::GaveUp { at, err: None }),
            }
        }
    }
}

/// Execute a plan on a possibly faulty cloud: transient errors back off
/// and retry in place, lost instances are replaced and their whole bin
/// requeued on the replacement, and everything is accounted in a
/// [`DegradedReport`].
///
/// Recovery time counts against the deadline: a share's `job_secs` runs
/// from the moment its *first* instance was ready to the final finish.
pub fn execute_plan_resilient(
    cloud: &mut Cloud,
    plan: &Plan,
    model: &dyn AppCostModel,
    cfg: &ExecutionConfig,
    retry: &RetryPolicy,
) -> Result<DegradedReport, CloudError> {
    execute_plan_resilient_sourced(
        cloud,
        plan,
        model,
        cfg,
        retry,
        &mut FreshFleet,
        &Obs::default(),
    )
}

/// [`execute_plan_resilient`] generalized over where instances come from
/// and with an observability sink. Every acquisition, release, and loss
/// goes through the given [`FleetSource`], which also attributes billed
/// hours; with a warm pool, shares land on instances whose current billed
/// hour is already paid whenever one is free. Besides the
/// [`execute_plan_observed`] metrics, the sink counts retries, crashes,
/// preemptions, replacements, requeued bins and recovered/lost bytes as
/// they happen, so the event log shows *when* in simulated time each
/// recovery action fired.
pub fn execute_plan_resilient_sourced(
    cloud: &mut Cloud,
    plan: &Plan,
    model: &dyn AppCostModel,
    cfg: &ExecutionConfig,
    retry: &RetryPolicy,
    source: &mut dyn FleetSource,
    obs: &Obs,
) -> Result<DegradedReport, CloudError> {
    let mut fleet = Fleet::new(&EXECUTE, retry, source, obs);
    let mut runs = Vec::with_capacity(plan.instance_count());
    let mut share_files: Vec<Vec<FileSpec>> = Vec::with_capacity(plan.instance_count());
    let mut failed_shares = Vec::new();
    let (mut requeued_shares, mut recovered_bytes, mut lost_bytes) = (0usize, 0u64, 0u64);
    // The fleet runs on per-instance event timelines without advancing the
    // cloud's global clock, so the phase span closes at the last simulated
    // finish (or give-up) time, not at `cloud.now()`.
    let phase_start = cloud.now();
    let mut last_finish = phase_start;
    let phase = obs.span_start("pipeline.execute", phase_start);

    for (idx, share) in plan.instances.iter().enumerate() {
        let first = fleet.acquire(cloud, cfg)?;
        let span = obs.span_start("execute.share", first.1);
        let gave_up_at = match fleet.run_share(cloud, cfg, model, share, first)? {
            ShareEnd::GaveUp { at, .. } => at,
            ShareEnd::Done {
                report,
                ready,
                requeued,
            } => {
                fleet.release(cloud, report.instance, ready, report.finished_at)?;
                let job_secs = report.finished_at - first.1;
                last_finish = last_finish.max(report.finished_at);
                obs.span_end(span, report.finished_at);
                obs.count("execute.bytes_moved", share.volume);
                obs.observe("execute.job_secs", job_secs);
                runs.push(InstanceRun {
                    instance: report.instance,
                    volume: share.volume,
                    files: share.files.len(),
                    predicted_secs: share.predicted_secs,
                    job_secs,
                    met_deadline: job_secs <= plan.deadline_secs,
                });
                share_files.push(share.files.clone());
                if requeued {
                    requeued_shares += 1;
                    recovered_bytes += share.volume;
                    obs.count("execute.requeued_shares", 1);
                    obs.count("execute.recovered_bytes", share.volume);
                }
                continue;
            }
        };
        last_finish = last_finish.max(gave_up_at);
        obs.span_end(span, gave_up_at);
        obs.count("execute.failed_shares", 1);
        obs.count("execute.lost_bytes", share.volume);
        failed_shares.push(idx);
        share_files.push(Vec::new());
        lost_bytes += share.volume;
    }

    let execution = ExecutionReport::summarize(
        runs,
        plan.deadline_secs,
        failed_shares.len(),
        fleet.hours,
        cfg,
    );
    obs.count("execute.shares", execution.runs.len() as u64);
    obs.count("execute.instance_hours", execution.instance_hours);
    obs.gauge("execute.makespan_secs", execution.makespan_secs);
    obs.span_end(phase, last_finish);
    Ok(DegradedReport {
        execution,
        failed_shares,
        share_files,
        crashes: fleet.crashes,
        preemptions: fleet.preemptions,
        transient_retries: fleet.transient_retries,
        replacements: fleet.replacements,
        requeued_shares,
        recovered_bytes,
        lost_bytes,
        faults_fired: cloud.fault_log().len(),
        finished_at: last_finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{make_plan, Strategy};
    use corpus::FileSpec;
    use ec2sim::CloudConfig;
    use perfmodel::{fit, Fit, ModelKind};
    use textapps::GrepCostModel;

    /// Model matched to the ideal cloud: 75 MB/s + per-file overhead folded
    /// into the slope for ~1 MB files.
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

    #[test]
    fn ideal_cloud_meets_uniform_plan() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let m = grep_fit();
        // 4 GB, deadline 20 s per instance -> ~ 1.4 GB per instance.
        let files = corpus_files(40, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
        let report = execute_plan(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(report.runs.len(), plan.instance_count());
        assert!(report.met_deadline(), "misses: {}", report.misses);
        assert!(report.makespan_secs <= 20.0);
        assert_eq!(report.instance_hours, plan.instance_count() as u64);
    }

    #[test]
    fn fleet_runs_in_parallel_not_serially() {
        let mut cloud = Cloud::new(CloudConfig::ideal(2));
        let m = grep_fit();
        let files = corpus_files(100, 100_000_000); // 10 GB
        let plan = make_plan(Strategy::UniformBins, &files, &m, 30.0).unwrap();
        assert!(plan.instance_count() >= 4);
        let report = execute_plan(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
        )
        .unwrap();
        // Makespan ≈ one share's time, nowhere near the serial sum.
        let serial: f64 = report.runs.iter().map(|r| r.job_secs).sum();
        assert!(report.makespan_secs < serial / 2.0);
    }

    #[test]
    fn heterogeneous_cloud_can_miss() {
        // With a hostile fleet (many slow instances) and a deadline sized
        // for good instances, some instances must miss.
        let mut cloud = Cloud::new(CloudConfig {
            seed: 3,
            slow_fraction: 0.9,
            startup_mean_s: 0.0,
            startup_jitter_s: 0.0,
            ..CloudConfig::default()
        });
        let m = grep_fit();
        let files = corpus_files(100, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 30.0).unwrap();
        let report = execute_plan(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
        )
        .unwrap();
        assert!(report.misses > 0);
        assert!(report.makespan_secs > 30.0);
    }

    #[test]
    fn local_staging_adds_constant_stage_in() {
        let mut cloud = Cloud::new(CloudConfig::ideal(4));
        let m = grep_fit();
        let files = corpus_files(10, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 60.0).unwrap();
        let cfg = ExecutionConfig {
            staging: StagingTier::Local,
            stage_in_secs: 25.0,
            ..ExecutionConfig::default()
        };
        let report = execute_plan(&mut cloud, &plan, &GrepCostModel::default(), &cfg).unwrap();
        for r in &report.runs {
            assert!(r.job_secs >= 25.0);
        }
    }

    #[test]
    fn cost_equals_hours_times_rate() {
        let mut cloud = Cloud::new(CloudConfig::ideal(5));
        let m = grep_fit();
        let files = corpus_files(30, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 15.0).unwrap();
        let report = execute_plan(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
        )
        .unwrap();
        assert!((report.cost - report.instance_hours as f64 * 0.085).abs() < 1e-9);
    }
}
