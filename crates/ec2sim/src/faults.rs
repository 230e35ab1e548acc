//! Seeded, deterministic fault injection for the simulated cloud.
//!
//! The paper's static provisioning (§5) assumes instances run to
//! completion, yet its own adjusted-deadline machinery (`D' = D/(1+a)`)
//! exists because real EC2 runs miss deadlines: stragglers, transient I/O
//! errors and instance loss are first-order effects on EC2 (Juve et al.;
//! Dejun et al. as cited in §3.1). This module turns those effects into a
//! [`FaultPlan`]: a schedule of events — instance crash, spot preemption,
//! transient S3 get/put errors, EBS attach failures, I/O slowdowns
//! (straggler factors) and boot delays — that [`crate::Cloud`] consults at
//! planned simulation times.
//!
//! Determinism contract: a plan is either scripted explicitly or generated
//! from a seed, and the same `(seed, FaultConfig)` pair always yields a
//! bitwise-identical event list. Injection itself consumes no extra
//! randomness inside the cloud, so a faulty run is exactly as repeatable
//! as a fault-free one.

use crate::error::CloudError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What kind of failure or degradation an event injects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The target instance dies at the scheduled time (hardware loss):
    /// running jobs are killed, attached volumes detach, the partial hour
    /// is billed.
    InstanceCrash,
    /// Same mechanics as a crash, but reported as a spot-market
    /// preemption; billing still follows the flat `r·⌈hours⌉` rule.
    SpotPreemption,
    /// The next `Cloud::s3_get` at or after the scheduled time fails once.
    S3TransientGet,
    /// The next `Cloud::s3_put` at or after the scheduled time fails once.
    S3TransientPut,
    /// The next attach attempt of the target volume at or after the
    /// scheduled time fails once (transient; a retry succeeds).
    EbsAttachFailure,
    /// From the scheduled time on, the target instance's observed runtimes
    /// are stretched by `factor` (a straggler).
    IoSlowdown {
        /// Multiplier applied to observed runtimes (> 1 is slower).
        factor: f64,
    },
    /// The target instance's boot takes `extra_secs` longer than the
    /// config's startup latency.
    BootDelay {
        /// Extra boot latency, seconds.
        extra_secs: f64,
    },
}

impl FaultKind {
    /// Stable snake_case label for event logs and reports. Part of the
    /// observability log schema — renaming a label is a breaking change
    /// for downstream log readers.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::InstanceCrash => "instance_crash",
            FaultKind::SpotPreemption => "spot_preemption",
            FaultKind::S3TransientGet => "s3_transient_get",
            FaultKind::S3TransientPut => "s3_transient_put",
            FaultKind::EbsAttachFailure => "ebs_attach_failure",
            FaultKind::IoSlowdown { .. } => "io_slowdown",
            FaultKind::BootDelay { .. } => "boot_delay",
        }
    }

    /// Stable ordering rank, used to sort simultaneous events
    /// deterministically.
    fn rank(&self) -> u8 {
        match self {
            FaultKind::InstanceCrash => 0,
            FaultKind::SpotPreemption => 1,
            FaultKind::S3TransientGet => 2,
            FaultKind::S3TransientPut => 3,
            FaultKind::EbsAttachFailure => 4,
            FaultKind::IoSlowdown { .. } => 5,
            FaultKind::BootDelay { .. } => 6,
        }
    }
}

/// One scheduled fault. Instances and volumes are addressed by their
/// creation ordinal (the order `launch` / `create_volume` assigns ids), so
/// a plan can be written before the cloud exists.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulation time the event arms, seconds. Boot delays arm at launch
    /// regardless of `at`.
    pub at: f64,
    /// Target instance ordinal, if the kind targets an instance.
    pub instance: Option<u64>,
    /// Target volume ordinal, if the kind targets a volume.
    pub volume: Option<u64>,
    /// What happens.
    pub kind: FaultKind,
}

/// Extra boot latency range of a delayed boot (low, high), seconds.
const BOOT_DELAY_SECS: (f64, f64) = (5.0, 90.0);

/// Probabilities and ranges for seeded fault generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Events are scheduled uniformly in `[0, horizon_secs)`.
    pub horizon_secs: f64,
    /// First instance ordinal eligible for faults (set to 1 to spare a
    /// probe instance launched first).
    pub first_instance: u64,
    /// Number of instance ordinals considered, starting at
    /// `first_instance`.
    pub instances: u64,
    /// First volume ordinal eligible for attach failures.
    pub first_volume: u64,
    /// Number of volume ordinals considered, starting at `first_volume`.
    pub volumes: u64,
    /// Per-instance probability of a crash.
    pub crash_prob: f64,
    /// Per-instance probability of a spot preemption (mutually exclusive
    /// with a crash; a single uniform draw decides).
    pub preemption_prob: f64,
    /// Per-instance probability of an I/O slowdown.
    pub slowdown_prob: f64,
    /// Straggler factor range (low, high), each > 1 slows the instance.
    pub slowdown_factor: (f64, f64),
    /// Per-instance probability of a delayed boot.
    pub boot_delay_prob: f64,
    /// Per-volume probability of one transient attach failure.
    pub attach_failure_prob: f64,
    /// Count of transient S3 GET errors scheduled in the horizon.
    pub s3_get_errors: u32,
    /// Count of transient S3 PUT errors scheduled in the horizon.
    pub s3_put_errors: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            horizon_secs: 3_600.0,
            first_instance: 0,
            instances: 32,
            first_volume: 0,
            volumes: 32,
            crash_prob: 0.02,
            preemption_prob: 0.01,
            slowdown_prob: 0.05,
            slowdown_factor: (1.05, 1.5),
            boot_delay_prob: 0.05,
            attach_failure_prob: 0.05,
            s3_get_errors: 1,
            s3_put_errors: 1,
        }
    }
}

/// A schedule of fault events, sorted by time (ties broken by target and
/// kind so equal plans compare equal element-wise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// The events, in deterministic order.
    pub events: Vec<FaultEvent>,
}

fn sort_events(events: &mut [FaultEvent]) {
    events.sort_by(|a, b| {
        a.at.total_cmp(&b.at)
            .then(a.instance.cmp(&b.instance))
            .then(a.volume.cmp(&b.volume))
            .then(a.kind.rank().cmp(&b.kind.rank()))
    });
}

impl FaultPlan {
    /// The empty plan: a cloud with this plan behaves exactly like one
    /// built with [`crate::Cloud::new`].
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// An explicit script of events (sorted into canonical order).
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        sort_events(&mut events);
        FaultPlan { events }
    }

    /// Draw a plan from a seed. Same `(seed, cfg)` ⇒ identical plan.
    pub fn generate(seed: u64, cfg: &FaultConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA01_7500);
        let mut events = Vec::new();
        let horizon = cfg.horizon_secs.max(1e-9);
        for ord in cfg.first_instance..cfg.first_instance.saturating_add(cfg.instances) {
            if rng.random::<f64>() < cfg.boot_delay_prob {
                let (lo, hi) = BOOT_DELAY_SECS;
                events.push(FaultEvent {
                    at: 0.0,
                    instance: Some(ord),
                    volume: None,
                    kind: FaultKind::BootDelay {
                        extra_secs: rng.random_range(lo..=hi),
                    },
                });
            }
            if rng.random::<f64>() < cfg.slowdown_prob {
                let (lo, hi) = cfg.slowdown_factor;
                events.push(FaultEvent {
                    at: rng.random_range(0.0..horizon),
                    instance: Some(ord),
                    volume: None,
                    kind: FaultKind::IoSlowdown {
                        factor: rng.random_range(lo..=hi),
                    },
                });
            }
            let u: f64 = rng.random();
            if u < cfg.crash_prob {
                events.push(FaultEvent {
                    at: rng.random_range(0.0..horizon),
                    instance: Some(ord),
                    volume: None,
                    kind: FaultKind::InstanceCrash,
                });
            } else if u < cfg.crash_prob + cfg.preemption_prob {
                events.push(FaultEvent {
                    at: rng.random_range(0.0..horizon),
                    instance: Some(ord),
                    volume: None,
                    kind: FaultKind::SpotPreemption,
                });
            }
        }
        for ord in cfg.first_volume..cfg.first_volume.saturating_add(cfg.volumes) {
            if rng.random::<f64>() < cfg.attach_failure_prob {
                events.push(FaultEvent {
                    at: rng.random_range(0.0..horizon),
                    instance: None,
                    volume: Some(ord),
                    kind: FaultKind::EbsAttachFailure,
                });
            }
        }
        for _ in 0..cfg.s3_get_errors {
            events.push(FaultEvent {
                at: rng.random_range(0.0..horizon),
                instance: None,
                volume: None,
                kind: FaultKind::S3TransientGet,
            });
        }
        for _ in 0..cfg.s3_put_errors {
            events.push(FaultEvent {
                at: rng.random_range(0.0..horizon),
                instance: None,
                volume: None,
                kind: FaultKind::S3TransientPut,
            });
        }
        sort_events(&mut events);
        FaultPlan { events }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Mutable injection state the cloud keeps while executing a plan.
///
/// Internals are ordinal-keyed [`BTreeMap`]s so iteration (and therefore
/// behaviour) is deterministic.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Pending extra boot latency per instance ordinal (consumed at
    /// launch).
    boot_delays: BTreeMap<u64, f64>,
    /// Earliest scheduled death per instance ordinal:
    /// `(time, is_preemption)`.
    crashes: BTreeMap<u64, (f64, bool)>,
    /// Slowdown activations per instance ordinal: `(from, factor, logged)`.
    slowdowns: BTreeMap<u64, Vec<(f64, f64, bool)>>,
    /// Pending transient attach failures per volume ordinal:
    /// `(from, consumed)`.
    attach_failures: BTreeMap<u64, Vec<(f64, bool)>>,
    /// Pending transient S3 GET errors: `(from, consumed)`.
    s3_get: Vec<(f64, bool)>,
    /// Pending transient S3 PUT errors: `(from, consumed)`.
    s3_put: Vec<(f64, bool)>,
    /// Events that actually fired, with the time they took effect.
    fired: Vec<FaultEvent>,
}

impl FaultState {
    pub(crate) fn from_plan(plan: &FaultPlan) -> Self {
        let mut state = FaultState::default();
        for ev in &plan.events {
            match ev.kind {
                FaultKind::BootDelay { extra_secs } => {
                    if let Some(ord) = ev.instance {
                        *state.boot_delays.entry(ord).or_insert(0.0) += extra_secs.max(0.0);
                    }
                }
                FaultKind::InstanceCrash | FaultKind::SpotPreemption => {
                    if let Some(ord) = ev.instance {
                        let preempt = matches!(ev.kind, FaultKind::SpotPreemption);
                        let entry = state.crashes.entry(ord).or_insert((ev.at, preempt));
                        if ev.at < entry.0 {
                            *entry = (ev.at, preempt);
                        }
                    }
                }
                FaultKind::IoSlowdown { factor } => {
                    if let Some(ord) = ev.instance {
                        state.slowdowns.entry(ord).or_default().push((
                            ev.at,
                            factor.max(0.0),
                            false,
                        ));
                    }
                }
                FaultKind::EbsAttachFailure => {
                    if let Some(ord) = ev.volume {
                        state
                            .attach_failures
                            .entry(ord)
                            .or_default()
                            .push((ev.at, false));
                    }
                }
                FaultKind::S3TransientGet => state.s3_get.push((ev.at, false)),
                FaultKind::S3TransientPut => state.s3_put.push((ev.at, false)),
            }
        }
        state
    }

    /// Total extra boot latency for `ordinal`, consumed once at launch.
    pub(crate) fn take_boot_delay(&mut self, ordinal: u64, launched_at: f64) -> f64 {
        match self.boot_delays.remove(&ordinal) {
            Some(extra) if extra > 0.0 => {
                self.fired.push(FaultEvent {
                    at: launched_at,
                    instance: Some(ordinal),
                    volume: None,
                    kind: FaultKind::BootDelay { extra_secs: extra },
                });
                extra
            }
            _ => 0.0,
        }
    }

    /// The scheduled death of `ordinal`, if any: `(time, is_preemption)`.
    pub(crate) fn crash_schedule(&self, ordinal: u64) -> Option<(f64, bool)> {
        self.crashes.get(&ordinal).copied()
    }

    /// Product of straggler factors active on `ordinal` at time `t`;
    /// activations are logged the first time they bite.
    pub(crate) fn slowdown_factor(&mut self, ordinal: u64, t: f64) -> f64 {
        let mut factor = 1.0;
        if let Some(events) = self.slowdowns.get_mut(&ordinal) {
            for (from, f, logged) in events.iter_mut() {
                if *from <= t {
                    factor *= *f;
                    if !*logged {
                        *logged = true;
                        self.fired.push(FaultEvent {
                            at: t,
                            instance: Some(ordinal),
                            volume: None,
                            kind: FaultKind::IoSlowdown { factor: *f },
                        });
                    }
                }
            }
        }
        factor
    }

    /// Consume one pending attach failure for volume `ordinal` armed at or
    /// before `t`. Returns true when the attempt must fail.
    pub(crate) fn take_attach_failure(&mut self, ordinal: u64, t: f64) -> bool {
        if let Some(events) = self.attach_failures.get_mut(&ordinal) {
            for (from, consumed) in events.iter_mut() {
                if !*consumed && *from <= t {
                    *consumed = true;
                    self.fired.push(FaultEvent {
                        at: t,
                        instance: None,
                        volume: Some(ordinal),
                        kind: FaultKind::EbsAttachFailure,
                    });
                    return true;
                }
            }
        }
        false
    }

    /// Consume one pending transient S3 error armed at or before `t`.
    pub(crate) fn take_s3(&mut self, is_get: bool, t: f64) -> bool {
        let queue = if is_get {
            &mut self.s3_get
        } else {
            &mut self.s3_put
        };
        for (from, consumed) in queue.iter_mut() {
            if !*consumed && *from <= t {
                *consumed = true;
                self.fired.push(FaultEvent {
                    at: t,
                    instance: None,
                    volume: None,
                    kind: if is_get {
                        FaultKind::S3TransientGet
                    } else {
                        FaultKind::S3TransientPut
                    },
                });
                return true;
            }
        }
        false
    }

    /// Record a death that took effect.
    pub(crate) fn log_crash(&mut self, ordinal: u64, at: f64, preempt: bool) {
        self.fired.push(FaultEvent {
            at,
            instance: Some(ordinal),
            volume: None,
            kind: if preempt {
                FaultKind::SpotPreemption
            } else {
                FaultKind::InstanceCrash
            },
        });
    }

    /// Events that actually took effect so far.
    pub(crate) fn fired(&self) -> &[FaultEvent] {
        &self.fired
    }
}

/// Classification helpers the retry machinery keys on.
impl CloudError {
    /// Worth retrying in place after a backoff (the resource survives).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CloudError::AttachFailed(_) | CloudError::S3Transient(_)
        )
    }

    /// The instance is gone; recovery needs a replacement.
    pub fn is_instance_loss(&self) -> bool {
        matches!(
            self,
            CloudError::InstanceCrashed(_) | CloudError::SpotPreempted(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn certain_cfg() -> FaultConfig {
        FaultConfig {
            instances: 8,
            volumes: 8,
            crash_prob: 0.5,
            preemption_prob: 0.5,
            slowdown_prob: 1.0,
            boot_delay_prob: 1.0,
            attach_failure_prob: 1.0,
            s3_get_errors: 2,
            s3_put_errors: 2,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = certain_cfg();
        let a = FaultPlan::generate(7, &cfg);
        let b = FaultPlan::generate(7, &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seed_different_plan() {
        let cfg = certain_cfg();
        assert_ne!(FaultPlan::generate(7, &cfg), FaultPlan::generate(8, &cfg));
    }

    #[test]
    fn events_sorted_by_time() {
        let plan = FaultPlan::generate(3, &certain_cfg());
        for w in plan.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn scripted_plan_is_canonicalized() {
        let a = FaultPlan::scripted(vec![
            FaultEvent {
                at: 10.0,
                instance: Some(1),
                volume: None,
                kind: FaultKind::InstanceCrash,
            },
            FaultEvent {
                at: 5.0,
                instance: Some(0),
                volume: None,
                kind: FaultKind::SpotPreemption,
            },
        ]);
        assert!(a.events[0].at <= a.events[1].at);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn earliest_death_wins() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at: 100.0,
                instance: Some(0),
                volume: None,
                kind: FaultKind::InstanceCrash,
            },
            FaultEvent {
                at: 40.0,
                instance: Some(0),
                volume: None,
                kind: FaultKind::SpotPreemption,
            },
        ]);
        let state = FaultState::from_plan(&plan);
        assert_eq!(state.crash_schedule(0), Some((40.0, true)));
    }

    #[test]
    fn attach_failure_consumed_once() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at: 0.0,
            instance: None,
            volume: Some(2),
            kind: FaultKind::EbsAttachFailure,
        }]);
        let mut state = FaultState::from_plan(&plan);
        assert!(state.take_attach_failure(2, 1.0));
        assert!(!state.take_attach_failure(2, 2.0));
        assert!(!state.take_attach_failure(3, 2.0));
        assert_eq!(state.fired().len(), 1);
    }

    #[test]
    fn first_instance_offset_spares_earlier_ordinals() {
        let cfg = FaultConfig {
            first_instance: 2,
            instances: 4,
            first_volume: 1,
            volumes: 2,
            crash_prob: 1.0,
            preemption_prob: 0.0,
            slowdown_prob: 1.0,
            boot_delay_prob: 1.0,
            attach_failure_prob: 1.0,
            s3_get_errors: 0,
            s3_put_errors: 0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(11, &cfg);
        for ev in &plan.events {
            if let Some(ord) = ev.instance {
                assert!((2..6).contains(&ord), "instance ordinal {ord}");
            }
            if let Some(ord) = ev.volume {
                assert!((1..3).contains(&ord), "volume ordinal {ord}");
            }
        }
    }
}
