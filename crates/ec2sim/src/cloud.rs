//! The cloud facade: launch instances, manage volumes, run application
//! jobs, collect bills — all against a deterministic simulated clock.

use crate::billing::BillingLedger;
use crate::error::CloudError;
use crate::family::InstanceFamily;
use crate::faults::{FaultEvent, FaultPlan, FaultState};
use crate::instance::{Instance, InstanceId, InstanceQuality, InstanceState};
use crate::noise::NoiseModel;
use crate::storage::{EbsVolume, ObjectStore, VolumeId};
use crate::types::{AvailabilityZone, InstanceType};
use corpus::FileSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use textapps::{AppCostModel, ExecEnv};

/// Tunable characteristics of the simulated cloud.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CloudConfig {
    /// Master seed: fleet qualities, placements and noise all derive from
    /// it.
    pub seed: u64,
    /// Mean instance boot latency, seconds (§3.1 budgets ≈3 minutes).
    pub startup_mean_s: f64,
    /// Boot latency jitter (uniform ±).
    pub startup_jitter_s: f64,
    /// Fraction of consistently slow instances.
    pub slow_fraction: f64,
    /// Fraction of inconsistent instances.
    pub inconsistent_fraction: f64,
    /// EBS placement segment width in bytes.
    pub segment_bytes: u64,
    /// Fraction of slow EBS segments.
    pub slow_segment_fraction: f64,
    /// Multiplier range for slow segments (the paper verified up to ×3
    /// degradation, i.e. multipliers down to ≈0.33).
    pub slow_segment_multiplier: (f64, f64),
    /// EBS volume attach/detach latency, seconds.
    pub attach_overhead_s: f64,
    /// Measurement noise model.
    pub noise: NoiseModel,
    /// Account cap on concurrently existing (non-terminated) instances.
    pub instance_cap: usize,
    /// When true, every instance is identical (cpu 1.0, 75 MB/s, no
    /// jitter) — the heterogeneity-off ablation and the `ideal` baseline.
    pub homogeneous: bool,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            seed: 0,
            startup_mean_s: 180.0,
            startup_jitter_s: 40.0,
            slow_fraction: 0.12,
            inconsistent_fraction: 0.08,
            segment_bytes: 1_000_000_000,
            slow_segment_fraction: 0.10,
            slow_segment_multiplier: (0.33, 0.60),
            attach_overhead_s: 3.0,
            noise: NoiseModel::default(),
            instance_cap: 128,
            homogeneous: false,
        }
    }
}

impl CloudConfig {
    /// A perfectly homogeneous, noise-free cloud — the ablation baseline
    /// (every instance good, every segment clean, boots instantaneous).
    pub fn ideal(seed: u64) -> Self {
        CloudConfig {
            seed,
            startup_mean_s: 0.0,
            startup_jitter_s: 0.0,
            slow_fraction: 0.0,
            inconsistent_fraction: 0.0,
            slow_segment_fraction: 0.0,
            attach_overhead_s: 0.0,
            noise: NoiseModel {
                base_rel: 0.0,
                short_rel: 0.0,
            },
            homogeneous: true,
            ..CloudConfig::default()
        }
    }
}

/// Where a job's input data lives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DataLocation {
    /// On an EBS volume, reading an extent starting at `offset` bytes.
    Ebs {
        /// The volume (must be attached to the executing instance).
        volume: VolumeId,
        /// Placement offset of the data within the volume.
        offset: u64,
    },
    /// On the instance's ephemeral store.
    Local,
    /// In the object store.
    S3,
}

/// The outcome of one application run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Executing instance.
    pub instance: InstanceId,
    /// Model-truth runtime before noise, seconds.
    pub true_secs: f64,
    /// Observed (billed, clock-advancing) runtime, seconds.
    pub observed_secs: f64,
    /// Simulation time the run started.
    pub started_at: f64,
    /// Simulation time the run finished.
    pub finished_at: f64,
    /// Bytes processed.
    pub bytes: u64,
    /// Files processed.
    pub files: usize,
}

/// The simulated cloud.
#[derive(Debug)]
pub struct Cloud {
    config: CloudConfig,
    now: f64,
    instances: Vec<Instance>,
    /// Instances that may still count against `instance_cap`: every
    /// instance not yet seen terminated at a launch. Pruning by
    /// `state_at(now)` is exact because the clock never moves back and a
    /// termination is never undone.
    live: Vec<InstanceId>,
    volumes: Vec<EbsVolume>,
    /// The volumes each instance holds (the inverse of `attached_to`), so
    /// releasing an instance's volumes touches only those.
    attached: std::collections::BTreeMap<InstanceId, Vec<VolumeId>>,
    /// S3-like object store (shared, region-wide).
    pub s3: ObjectStore,
    ledger: BillingLedger,
    rng: StdRng,
    busy: std::collections::BTreeMap<InstanceId, f64>,
    faults: FaultState,
    /// Observability sink (no-op by default). Fired fault events are
    /// forwarded to it as they take effect.
    obs: obs::Obs,
    /// How many entries of `faults.fired()` have been forwarded to `obs`.
    faults_emitted: usize,
}

impl Cloud {
    /// Bring up a fresh cloud.
    pub fn new(config: CloudConfig) -> Self {
        Cloud {
            rng: StdRng::seed_from_u64(config.seed ^ 0xC10D),
            config,
            now: 0.0,
            instances: Vec::new(),
            live: Vec::new(),
            volumes: Vec::new(),
            attached: std::collections::BTreeMap::new(),
            s3: ObjectStore::new(),
            ledger: BillingLedger::new(),
            busy: std::collections::BTreeMap::new(),
            faults: FaultState::default(),
            obs: obs::Obs::default(),
            faults_emitted: 0,
        }
    }

    /// Attach an observability sink. Fault events that fire from here on
    /// are forwarded to it; recording changes nothing about the simulation
    /// itself (the sink only ever reads the simulated clock).
    pub fn set_obs(&mut self, obs: obs::Obs) {
        self.obs = obs;
    }

    /// Forward any newly fired fault events to the observability sink, in
    /// the order they took effect.
    fn flush_fault_events(&mut self) {
        let fired = self.faults.fired();
        while self.faults_emitted < fired.len() {
            let e = fired[self.faults_emitted];
            self.obs.fault(e.kind.label(), e.at, e.instance, e.volume);
            self.faults_emitted += 1;
        }
    }

    /// Bring up a cloud that injects the scheduled faults. With
    /// [`FaultPlan::none`] this behaves exactly like [`Cloud::new`]:
    /// injection consumes no randomness of its own.
    pub fn with_faults(config: CloudConfig, plan: &FaultPlan) -> Self {
        let mut cloud = Cloud::new(config);
        cloud.faults = FaultState::from_plan(plan);
        cloud
    }

    /// Fault events that actually took effect so far, with the times they
    /// fired (a subset of the plan: events targeting resources that were
    /// never created, or scheduled after their target died, never fire).
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.fired()
    }

    /// The scheduled death time of an instance, if its fault plan has one.
    pub fn crash_time(&self, id: InstanceId) -> Option<f64> {
        self.faults.crash_schedule(id.0).map(|(t, _)| t)
    }

    /// Kill an instance at `at`: detach its volumes, bill its running
    /// interval (flat per-started-hour, §1.1 — preemption never prorates)
    /// and return the error the caller must propagate.
    fn apply_crash(&mut self, id: InstanceId, at: f64, preempt: bool) -> CloudError {
        if self.terminate_at(id, at).is_ok() {
            self.faults.log_crash(id.0, at, preempt);
        }
        self.flush_fault_events();
        if preempt {
            CloudError::SpotPreempted(id)
        } else {
            CloudError::InstanceCrashed(id)
        }
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The active configuration.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// Advance the clock by `dt` seconds.
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "time cannot move backwards");
        self.now += dt;
    }

    fn instance(&self, id: InstanceId) -> Result<&Instance, CloudError> {
        self.instances
            .get(id.0 as usize)
            .ok_or(CloudError::NoSuchInstance(id))
    }

    fn volume(&self, id: VolumeId) -> Result<&EbsVolume, CloudError> {
        self.volumes
            .get(id.0 as usize)
            .ok_or(CloudError::NoSuchVolume(id))
    }

    /// Request an instance. It enters `Pending` and comes up after the
    /// boot latency; boot time is free.
    pub fn launch(
        &mut self,
        itype: InstanceType,
        zone: AvailabilityZone,
    ) -> Result<InstanceId, CloudError> {
        let (now, instances) = (self.now, &self.instances);
        self.live
            .retain(|id| instances[id.0 as usize].state_at(now) != InstanceState::TerminatedState);
        if self.live.len() >= self.config.instance_cap {
            return Err(CloudError::InstanceCapReached(self.config.instance_cap));
        }
        let id = InstanceId(self.instances.len() as u64);
        let jitter = self
            .rng
            .random_range(-self.config.startup_jitter_s..=self.config.startup_jitter_s);
        let boot = (self.config.startup_mean_s + jitter).max(0.0)
            + self.faults.take_boot_delay(id.0, self.now);
        let quality = if self.config.homogeneous {
            InstanceQuality {
                cpu_factor: 1.0,
                io_bps: 75.0e6,
                jitter_rel: 0.0,
            }
        } else {
            InstanceQuality::sample(
                &mut self.rng,
                self.config.slow_fraction,
                self.config.inconsistent_fraction,
            )
        };
        self.instances.push(Instance {
            id,
            itype,
            zone,
            state: InstanceState::Pending,
            requested_at: self.now,
            running_at: self.now + boot,
            terminated_at: None,
            quality,
            hourly_rate: itype.hourly_rate(),
        });
        self.live.push(id);
        self.flush_fault_events();
        Ok(id)
    }

    /// Request an instance from a specific [`InstanceFamily`]. Identical to
    /// [`Cloud::launch`] — same RNG draws, same boot latency, same fault
    /// hooks — followed by a *deterministic* reshaping of the sampled
    /// quality: CPU and I/O scale by the family's perf multiplier, I/O is
    /// capped at the family's per-stream bandwidth, and the billed rate
    /// becomes the family's on-demand price. The standard family's
    /// transform is the identity, so `launch_family(&standard(), z)` is
    /// bit-for-bit equivalent to `launch(Small, z)`.
    pub fn launch_family(
        &mut self,
        family: &InstanceFamily,
        zone: AvailabilityZone,
    ) -> Result<InstanceId, CloudError> {
        let id = self.launch(family.itype, zone)?;
        let inst = &mut self.instances[id.0 as usize];
        inst.quality = family.apply(inst.quality);
        inst.hourly_rate = family.on_demand_rate;
        Ok(id)
    }

    /// [`Cloud::launch_family`] with the billed rate overridden — how spot
    /// acquisitions record the (deterministic) expected market price
    /// instead of the on-demand list price.
    pub fn launch_family_priced(
        &mut self,
        family: &InstanceFamily,
        zone: AvailabilityZone,
        hourly_rate: f64,
    ) -> Result<InstanceId, CloudError> {
        let id = self.launch_family(family, zone)?;
        self.instances[id.0 as usize].hourly_rate = hourly_rate;
        Ok(id)
    }

    /// Block (advance the clock) until the instance is running.
    pub fn wait_until_running(&mut self, id: InstanceId) -> Result<(), CloudError> {
        let inst = self.instance(id)?;
        if inst.terminated_at.is_some() {
            return Err(CloudError::Terminated(id));
        }
        let at = inst.running_at;
        if self.now < at {
            self.now = at;
        }
        Ok(())
    }

    /// State of an instance as of now.
    pub fn state(&self, id: InstanceId) -> Result<InstanceState, CloudError> {
        Ok(self.instance(id)?.state_at(self.now))
    }

    /// Hidden quality — exposed for tests and ablations only; planner code
    /// must not peek (the paper's whole point is that quality is opaque).
    pub fn quality(&self, id: InstanceId) -> Result<InstanceQuality, CloudError> {
        Ok(self.instance(id)?.quality)
    }

    /// Terminate an instance. Bills its running time; an instance that
    /// never reached `Running` is free.
    pub fn terminate(&mut self, id: InstanceId) -> Result<(), CloudError> {
        self.terminate_at(id, self.now)
    }

    /// Create an EBS volume in `zone`.
    pub fn create_volume(&mut self, zone: AvailabilityZone, size: u64) -> VolumeId {
        self.create_volume_custom(zone, size, self.config.slow_segment_fraction)
    }

    /// Create an EBS volume with an explicit slow-segment fraction,
    /// overriding the config — controlled-placement experiments (a volume
    /// known to be well-placed, or known to be pathological) need this.
    pub fn create_volume_custom(
        &mut self,
        zone: AvailabilityZone,
        size: u64,
        slow_segment_fraction: f64,
    ) -> VolumeId {
        let id = VolumeId(self.volumes.len() as u64);
        let (lo, hi) = self.config.slow_segment_multiplier;
        self.volumes.push(EbsVolume::new(
            id,
            zone,
            size,
            self.config.segment_bytes,
            slow_segment_fraction,
            lo,
            hi,
            self.config.seed,
        ));
        id
    }

    /// Shared attach validation and fault injection as of time `at`.
    /// Returns true when a new attachment was made (false: idempotent
    /// re-attach by the holder). An instance whose termination is
    /// recorded, even one dated after `at`, is refused: its release has
    /// already run, so nothing would ever detach the volume again.
    fn attach_inner(
        &mut self,
        vol: VolumeId,
        inst: InstanceId,
        at: f64,
    ) -> Result<bool, CloudError> {
        if let Some((t_crash, preempt)) = self.faults.crash_schedule(inst.0) {
            if at >= t_crash {
                return Err(self.apply_crash(inst, t_crash, preempt));
            }
        }
        let instance = self.instance(inst)?;
        if instance.terminated_at.is_some() {
            return Err(CloudError::Terminated(inst));
        }
        if instance.state_at(at) != InstanceState::Running {
            return Err(CloudError::NotRunning(inst));
        }
        let zone = instance.zone;
        let v = self.volume(vol)?;
        if let Some(holder) = v.attached_to {
            if holder != inst {
                return Err(CloudError::VolumeBusy(vol, holder));
            }
            return Ok(false);
        }
        if v.zone != zone {
            return Err(CloudError::ZoneMismatch);
        }
        if self.faults.take_attach_failure(vol.0, at) {
            return Err(CloudError::AttachFailed(vol));
        }
        if let Some(v) = self.volumes.get_mut(vol.0 as usize) {
            v.attached_to = Some(inst);
            self.attached.entry(inst).or_default().push(vol);
        }
        Ok(true)
    }

    /// Attach a volume to a running instance (same zone, not attached
    /// elsewhere). Costs `attach_overhead_s` of wall clock.
    pub fn attach_volume(&mut self, vol: VolumeId, inst: InstanceId) -> Result<(), CloudError> {
        let at = self.now;
        let attached = self.attach_inner(vol, inst, at);
        self.flush_fault_events();
        if attached? {
            self.now += self.config.attach_overhead_s;
        }
        Ok(())
    }

    /// Attach a volume on the **instance's own timeline** (companion to
    /// [`Cloud::submit_job`]): validates the attachment as of time `at`
    /// without touching the global clock. The caller accounts the attach
    /// overhead into the job's `not_before`.
    pub fn attach_volume_at(
        &mut self,
        vol: VolumeId,
        inst: InstanceId,
        at: f64,
    ) -> Result<(), CloudError> {
        let attached = self.attach_inner(vol, inst, at).map(|_| ());
        self.flush_fault_events();
        attached
    }

    /// Detach a volume from whatever holds it, without advancing the
    /// global clock (timeline-style companion to
    /// [`Cloud::detach_volume`]).
    pub fn detach_volume_at(&mut self, vol: VolumeId) -> Result<(), CloudError> {
        let v = self
            .volumes
            .get_mut(vol.0 as usize)
            .ok_or(CloudError::NoSuchVolume(vol))?;
        let holder = v
            .attached_to
            .take()
            .ok_or(CloudError::VolumeNotAttached(vol))?;
        if let Some(held) = self.attached.get_mut(&holder) {
            held.retain(|&h| h != vol);
        }
        Ok(())
    }

    /// Detach a volume from whatever holds it. Costs `attach_overhead_s`
    /// of wall clock.
    pub fn detach_volume(&mut self, vol: VolumeId) -> Result<(), CloudError> {
        self.detach_volume_at(vol)?;
        self.now += self.config.attach_overhead_s;
        Ok(())
    }

    /// The simulation time at which an instance finishes booting.
    pub fn running_at(&self, id: InstanceId) -> Result<f64, CloudError> {
        Ok(self.instance(id)?.running_at)
    }

    /// The time until which an instance is occupied by submitted jobs
    /// (its boot time if it has none).
    pub fn busy_until(&self, id: InstanceId) -> Result<f64, CloudError> {
        let inst = self.instance(id)?;
        Ok(self.busy.get(&id).copied().unwrap_or(inst.running_at))
    }

    /// Schedule a job on the **instance's own timeline** — the parallel-
    /// fleet primitive. The job starts at
    /// `max(not_before, boot time, previous jobs' end)`, runs for its
    /// observed duration, and pushes the instance's busy horizon; the
    /// global clock is untouched, so independent instances overlap in
    /// time like a real fleet.
    pub fn submit_job(
        &mut self,
        inst: InstanceId,
        model: &dyn AppCostModel,
        files: &[FileSpec],
        data: DataLocation,
        not_before: f64,
    ) -> Result<RunReport, CloudError> {
        let instance = self.instance(inst)?;
        if instance.terminated_at.is_some() {
            return Err(CloudError::Terminated(inst));
        }
        let start = not_before
            .max(instance.running_at)
            .max(self.busy.get(&inst).copied().unwrap_or(instance.running_at));
        let report = self.run_from(inst, model, files, data, start)?;
        self.busy.insert(inst, report.finished_at);
        Ok(report)
    }

    /// The run step both clocks share: run `files` on `inst` from `start`,
    /// killing (and billing) the instance if its scheduled death falls at
    /// the start or during the run. The global clock, the busy horizon and
    /// a surviving instance's bill are the caller's.
    fn run_from(
        &mut self,
        inst: InstanceId,
        model: &dyn AppCostModel,
        files: &[FileSpec],
        data: DataLocation,
        start: f64,
    ) -> Result<RunReport, CloudError> {
        let jitter = self.instance(inst)?.quality.jitter_rel;
        let bytes: u64 = files.iter().map(|f| f.size).sum();
        let crash = self.faults.crash_schedule(inst.0);
        if let Some((t_crash, preempt)) = crash {
            if start >= t_crash {
                return Err(self.apply_crash(inst, t_crash, preempt));
            }
        }
        let env = self.exec_env(inst, &data, bytes)?;
        let true_secs = model.runtime_secs(files, &env);
        let observed = self.config.noise.observe(&mut self.rng, true_secs, jitter)
            * self.faults.slowdown_factor(inst.0, start);
        let end = start + observed;
        if let Some((t_crash, preempt)) = crash {
            if end > t_crash {
                return Err(self.apply_crash(inst, t_crash, preempt));
            }
        }
        self.flush_fault_events();
        Ok(RunReport {
            instance: inst,
            true_secs,
            observed_secs: observed,
            started_at: start,
            finished_at: end,
            bytes,
            files: files.len(),
        })
    }

    /// Terminate an instance at a specific time on its own timeline
    /// (companion to [`Cloud::submit_job`]); detaches its volumes and
    /// bills its running interval.
    pub fn terminate_at(&mut self, id: InstanceId, at: f64) -> Result<(), CloudError> {
        let inst = self
            .instances
            .get_mut(id.0 as usize)
            .ok_or(CloudError::NoSuchInstance(id))?;
        if inst.terminated_at.is_some() {
            return Err(CloudError::Terminated(id));
        }
        inst.terminated_at = Some(at);
        self.ledger.record(inst, at);
        for vol in self.attached.remove(&id).unwrap_or_default() {
            self.volumes[vol.0 as usize].attached_to = None;
        }
        Ok(())
    }

    /// The execution environment a run would see — quality × placement ×
    /// storage tier.
    pub fn exec_env(
        &self,
        inst: InstanceId,
        data: &DataLocation,
        bytes: u64,
    ) -> Result<ExecEnv, CloudError> {
        let instance = self.instance(inst)?;
        let q = instance.quality;
        let env = match data {
            DataLocation::Ebs { volume, offset } => {
                let v = self.volume(*volume)?;
                if v.attached_to != Some(inst) {
                    return Err(CloudError::VolumeNotAttached(*volume));
                }
                let mult = v.throughput_multiplier(*offset, bytes);
                ExecEnv {
                    io_throughput_bps: q.io_bps * mult,
                    per_file_overhead_s: 4.5e-3,
                    cpu_factor: q.cpu_factor,
                    startup_s: 1.0,
                }
            }
            DataLocation::Local => ExecEnv {
                io_throughput_bps: q.io_bps * 1.1,
                per_file_overhead_s: 2.0e-3,
                cpu_factor: q.cpu_factor,
                startup_s: 1.0,
            },
            DataLocation::S3 => ExecEnv {
                io_throughput_bps: q.io_bps * 0.7,
                per_file_overhead_s: 30.0e-3,
                cpu_factor: q.cpu_factor,
                startup_s: 1.0,
            },
        };
        Ok(env)
    }

    /// Run an application over `files` on `inst`, with input at `data`.
    /// Advances the clock by the observed runtime and refreshes the bill;
    /// an instance that dies mid-run stops the clock at its death. An
    /// instance whose termination is recorded, even one dated after `now`,
    /// is refused: it keeps the bill its termination recorded.
    pub fn run_app(
        &mut self,
        inst: InstanceId,
        model: &dyn AppCostModel,
        files: &[FileSpec],
        data: DataLocation,
    ) -> Result<RunReport, CloudError> {
        let instance = self.instance(inst)?;
        if instance.state_at(self.now) != InstanceState::Running {
            return Err(CloudError::NotRunning(inst));
        }
        if instance.terminated_at.is_some() {
            return Err(CloudError::Terminated(inst));
        }
        let run = self.run_from(inst, model, files, data, self.now);
        match &run {
            Ok(report) => {
                self.now = report.finished_at;
                self.ledger
                    .record(&self.instances[inst.0 as usize], self.now);
            }
            Err(e) if e.is_instance_loss() => {
                if let Some(t_crash) = self.crash_time(inst) {
                    self.now = self.now.max(t_crash);
                }
            }
            Err(_) => {}
        }
        run
    }

    /// Store an object, subject to injected transient S3 failures (the
    /// fault-free path is identical to `cloud.s3.put`). A failed put
    /// consumes the scheduled event, so an immediate retry succeeds.
    pub fn s3_put(&mut self, key: &str, size: u64) -> Result<(), CloudError> {
        if self.faults.take_s3(false, self.now) {
            self.flush_fault_events();
            return Err(CloudError::S3Transient(key.to_string()));
        }
        self.s3.put(key, size)
    }

    /// Fetch an object's size, subject to injected transient S3 failures.
    pub fn s3_get(&mut self, key: &str) -> Result<u64, CloudError> {
        if self.faults.take_s3(true, self.now) {
            self.flush_fault_events();
            return Err(CloudError::S3Transient(key.to_string()));
        }
        self.s3.get(key)
    }

    /// The account ledger.
    pub fn ledger(&self) -> &BillingLedger {
        &self.ledger
    }

    /// Refresh bills of all non-terminated instances to `now` and return
    /// the total cost. A terminated instance keeps the bill its
    /// termination recorded, even one dated after `now`.
    pub fn settle(&mut self) -> f64 {
        let now = self.now;
        for inst in &self.instances {
            if inst.terminated_at.is_none() && inst.running_seconds(now) > 0.0 {
                self.ledger.record(inst, now);
            }
        }
        self.ledger.total_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textapps::GrepCostModel;

    fn zone() -> AvailabilityZone {
        AvailabilityZone::us_east_1a()
    }

    fn running_instance(cloud: &mut Cloud) -> InstanceId {
        let id = cloud.launch(InstanceType::Small, zone()).unwrap();
        cloud.wait_until_running(id).unwrap();
        id
    }

    #[test]
    fn boot_latency_applies() {
        let mut cloud = Cloud::new(CloudConfig::default());
        let id = cloud.launch(InstanceType::Small, zone()).unwrap();
        assert_eq!(cloud.state(id).unwrap(), InstanceState::Pending);
        cloud.wait_until_running(id).unwrap();
        assert_eq!(cloud.state(id).unwrap(), InstanceState::Running);
        assert!(
            cloud.now() >= 140.0 && cloud.now() <= 220.0,
            "{}",
            cloud.now()
        );
    }

    #[test]
    fn run_requires_running_instance() {
        let mut cloud = Cloud::new(CloudConfig::default());
        let id = cloud.launch(InstanceType::Small, zone()).unwrap();
        let files = [FileSpec::new(0, 1000)];
        let err = cloud
            .run_app(id, &GrepCostModel::default(), &files, DataLocation::Local)
            .unwrap_err();
        assert!(matches!(err, CloudError::NotRunning(_)));
    }

    #[test]
    fn run_advances_clock_and_bills() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let id = running_instance(&mut cloud);
        let files: Vec<FileSpec> = vec![FileSpec::new(0, 1_000_000_000)];
        let before = cloud.now();
        let report = cloud
            .run_app(id, &GrepCostModel::default(), &files, DataLocation::Local)
            .unwrap();
        assert!(report.observed_secs > 5.0);
        assert!((cloud.now() - before - report.observed_secs).abs() < 1e-9);
        cloud.terminate(id).unwrap();
        assert_eq!(cloud.ledger().total_instance_hours(), 1);
    }

    #[test]
    fn ideal_cloud_observation_is_truth() {
        let mut cloud = Cloud::new(CloudConfig::ideal(2));
        let id = running_instance(&mut cloud);
        let files = [FileSpec::new(0, 500_000_000)];
        let r = cloud
            .run_app(id, &GrepCostModel::default(), &files, DataLocation::Local)
            .unwrap();
        assert!((r.true_secs - r.observed_secs).abs() < 1e-9);
    }

    #[test]
    fn volume_attach_rules_enforced() {
        let mut cloud = Cloud::new(CloudConfig::default());
        let a = running_instance(&mut cloud);
        let b = running_instance(&mut cloud);
        let v = cloud.create_volume(zone(), 10_000_000_000);
        cloud.attach_volume(v, a).unwrap();
        // Second attachment by another instance fails.
        let err = cloud.attach_volume(v, b).unwrap_err();
        assert!(matches!(err, CloudError::VolumeBusy(_, holder) if holder == a));
        // Re-attach by the holder is idempotent.
        cloud.attach_volume(v, a).unwrap();
        cloud.detach_volume(v).unwrap();
        cloud.attach_volume(v, b).unwrap();
    }

    #[test]
    fn zone_mismatch_rejected() {
        let mut cloud = Cloud::new(CloudConfig::default());
        let id = running_instance(&mut cloud);
        let other_zone = AvailabilityZone {
            region: Region::UsEast,
            index: 1,
        };
        let v = cloud.create_volume(other_zone, 1_000_000_000);
        assert!(matches!(
            cloud.attach_volume(v, id),
            Err(CloudError::ZoneMismatch)
        ));
    }

    use crate::types::Region;

    #[test]
    fn ebs_read_requires_attachment() {
        let mut cloud = Cloud::new(CloudConfig::default());
        let id = running_instance(&mut cloud);
        let v = cloud.create_volume(zone(), 1_000_000_000);
        let files = [FileSpec::new(0, 1_000)];
        let err = cloud
            .run_app(
                id,
                &GrepCostModel::default(),
                &files,
                DataLocation::Ebs {
                    volume: v,
                    offset: 0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, CloudError::VolumeNotAttached(_)));
    }

    #[test]
    fn instance_cap_enforced() {
        let config = CloudConfig {
            instance_cap: 2,
            ..CloudConfig::default()
        };
        let mut cloud = Cloud::new(config);
        cloud.launch(InstanceType::Small, zone()).unwrap();
        cloud.launch(InstanceType::Small, zone()).unwrap();
        assert!(matches!(
            cloud.launch(InstanceType::Small, zone()),
            Err(CloudError::InstanceCapReached(2))
        ));
    }

    #[test]
    fn terminating_frees_cap_and_volumes() {
        let config = CloudConfig {
            instance_cap: 1,
            ..CloudConfig::default()
        };
        let mut cloud = Cloud::new(config);
        let a = running_instance(&mut cloud);
        let v = cloud.create_volume(zone(), 1_000_000_000);
        cloud.attach_volume(v, a).unwrap();
        cloud.terminate(a).unwrap();
        // Cap freed and the volume detached.
        let b = cloud.launch(InstanceType::Small, zone()).unwrap();
        cloud.wait_until_running(b).unwrap();
        cloud.attach_volume(v, b).unwrap();
    }

    #[test]
    fn double_terminate_is_an_error() {
        let mut cloud = Cloud::new(CloudConfig::default());
        let a = running_instance(&mut cloud);
        cloud.terminate(a).unwrap();
        assert!(matches!(cloud.terminate(a), Err(CloudError::Terminated(_))));
    }

    #[test]
    fn attach_to_an_instance_terminated_later_is_refused() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let a = running_instance(&mut cloud);
        let b = running_instance(&mut cloud);
        let v = cloud.create_volume(zone(), 1_000_000_000);
        let now = cloud.now();
        cloud.terminate_at(a, now + 5_000.0).unwrap();
        // `a` still runs at +100, but its release has already happened:
        // a volume attached now would stay with it for ever.
        assert_eq!(
            cloud.attach_volume_at(v, a, now + 100.0),
            Err(CloudError::Terminated(a))
        );
        assert_eq!(cloud.attach_volume(v, a), Err(CloudError::Terminated(a)));
        cloud.advance(10_000.0);
        assert_eq!(cloud.attach_volume_at(v, b, cloud.now()), Ok(()));
    }

    #[test]
    fn a_repeated_terminate_releases_no_volume() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let a = running_instance(&mut cloud);
        let b = running_instance(&mut cloud);
        let v = cloud.create_volume(zone(), 1_000_000_000);
        let now = cloud.now();
        cloud.terminate_at(a, now + 5_000.0).unwrap();
        let _ = cloud.attach_volume_at(v, a, now + 100.0);
        assert_eq!(cloud.attach_volume_at(v, b, now + 100.0), Ok(()));
        assert_eq!(
            cloud.terminate_at(a, now + 200.0),
            Err(CloudError::Terminated(a))
        );
        let ebs = DataLocation::Ebs {
            volume: v,
            offset: 0,
        };
        assert!(cloud.exec_env(b, &ebs, 0).is_ok(), "the volume left b");
    }

    #[test]
    fn settle_totals_running_instances() {
        let mut cloud = Cloud::new(CloudConfig::ideal(3));
        let _a = running_instance(&mut cloud);
        let _b = running_instance(&mut cloud);
        cloud.advance(4_000.0); // both into their second hour
        let total = cloud.settle();
        assert!((total - 2.0 * 2.0 * 0.085).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn settle_keeps_the_bill_of_a_future_dated_termination() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let id = cloud.launch(InstanceType::Small, zone()).unwrap();
        let files: Vec<FileSpec> = (0..1_000)
            .map(|i| FileSpec::new(i, 1_000_000_000))
            .collect();
        let job = cloud
            .submit_job(
                id,
                &GrepCostModel::default(),
                &files,
                DataLocation::Local,
                0.0,
            )
            .unwrap();
        cloud.terminate_at(id, job.finished_at).unwrap();
        assert_eq!(cloud.ledger().total_instance_hours(), 4);
        cloud.advance(100.0);
        let total = cloud.settle();
        assert_eq!(cloud.ledger().total_instance_hours(), 4, "re-billed at now");
        assert!((total - 4.0 * 0.085).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn run_app_keeps_the_bill_of_a_future_dated_termination() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let id = running_instance(&mut cloud);
        let start = cloud.now();
        cloud.terminate_at(id, start + 4.0 * 3600.0 - 1.0).unwrap();
        assert_eq!(cloud.ledger().total_instance_hours(), 4);
        let files = vec![FileSpec::new(0, 1_000_000)];
        let run = cloud.run_app(id, &GrepCostModel::default(), &files, DataLocation::Local);
        assert!(
            matches!(run, Err(CloudError::Terminated(i)) if i == id),
            "{run:?}"
        );
        assert_eq!(cloud.now(), start, "the refused run moved the clock");
        assert_eq!(
            cloud.ledger().total_instance_hours(),
            4,
            "re-billed at the finish"
        );
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = |seed: u64| {
            let mut cloud = Cloud::new(CloudConfig {
                seed,
                ..CloudConfig::default()
            });
            let id = running_instance(&mut cloud);
            let files: Vec<FileSpec> = (0..50).map(|i| FileSpec::new(i, 2_000_000)).collect();
            let r = cloud
                .run_app(id, &GrepCostModel::default(), &files, DataLocation::Local)
                .unwrap();
            (r.true_secs, r.observed_secs)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
