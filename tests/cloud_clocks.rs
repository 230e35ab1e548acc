//! Pins the simulated cloud's global-clock and per-instance-timeline
//! operations to fixed fingerprints.
//!
//! Each case drives one fixed script through `ec2sim::Cloud` — screening,
//! volumes, application runs, detach and terminate, first on the global
//! clock and then on instance timelines — with and without a seeded fault
//! plan. Every result and error, the clock after each step, the ledger's
//! bills, the fault log and the recorded NDJSON log fold into one FNV-1a
//! fingerprint per case (floats by `to_bits`), compared against committed
//! constants. A refactor of either clock's operations must leave every
//! fingerprint unchanged.

use corpus::hash::fnv1a;
use corpus::FileSpec;
use ec2sim::{
    acquire_good_instance, run_bonnie, screen_at, AvailabilityZone, BonnieReport, Cloud,
    CloudConfig, CloudError, DataLocation, FaultConfig, FaultKind, FaultPlan, InstanceId,
    InstanceState, InstanceType, RunReport, ScreeningPolicy,
};
use obs::Obs;
use textapps::GrepCostModel;

/// Everything the script observes, serialised in call order.
#[derive(Default)]
struct Trace {
    bytes: Vec<u8>,
    mid_run_crashes: usize,
}

impl Trace {
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    fn err(&mut self, e: &CloudError) {
        self.str(&format!("{e:?}"));
    }

    /// A unit result plus the clock after the call.
    fn unit(&mut self, cloud: &Cloud, r: &Result<(), CloudError>) {
        match r {
            Ok(()) => self.str("ok"),
            Err(e) => self.err(e),
        }
        self.f64(cloud.now());
    }

    fn run(&mut self, cloud: &Cloud, r: &Result<RunReport, CloudError>) {
        match r {
            Ok(r) => {
                self.u64(r.instance.0);
                for v in [r.true_secs, r.observed_secs, r.started_at, r.finished_at] {
                    self.f64(v);
                }
                self.u64(r.bytes);
                self.u64(r.files as u64);
            }
            Err(e) => self.err(e),
        }
        self.f64(cloud.now());
    }

    fn bonnie(&mut self, cloud: &Cloud, r: &Result<BonnieReport, CloudError>) {
        match r {
            Ok(b) => {
                for v in [b.block_read_mbps, b.block_write_mbps, b.duration_s] {
                    self.f64(v);
                }
            }
            Err(e) => self.err(e),
        }
        self.f64(cloud.now());
    }

    /// The ledger, the fault log and the NDJSON log, then the fingerprint.
    fn finish(mut self, cloud: &Cloud, sink: &Obs) -> (u64, usize) {
        for b in cloud.ledger().bills() {
            self.u64(b.id.0);
            self.f64(b.running_seconds);
            self.u64(b.billed_hours);
            self.f64(b.cost);
        }
        for e in cloud.fault_log() {
            self.f64(e.at);
            self.u64(e.instance.map_or(u64::MAX, |i| i));
            self.u64(e.volume.map_or(u64::MAX, |v| v));
            self.str(e.kind.label());
            match e.kind {
                FaultKind::IoSlowdown { factor } => self.f64(factor),
                FaultKind::BootDelay { extra_secs } => self.f64(extra_secs),
                _ => {}
            }
        }
        self.str(&sink.to_ndjson());
        (fnv1a(&self.bytes), self.mid_run_crashes)
    }
}

fn zone() -> AvailabilityZone {
    AvailabilityZone::us_east_1a()
}

fn faults() -> FaultConfig {
    FaultConfig {
        horizon_secs: 1_500.0,
        instances: 16,
        volumes: 8,
        crash_prob: 0.55,
        preemption_prob: 0.15,
        slowdown_prob: 0.3,
        boot_delay_prob: 0.3,
        attach_failure_prob: 0.3,
        s3_get_errors: 0,
        s3_put_errors: 0,
        ..FaultConfig::default()
    }
}

/// Four gigabytes of input in 40 files.
fn files(round: u64) -> Vec<FileSpec> {
    (0..40)
        .map(|i| FileSpec::new(round * 100 + i, 100_000_000))
        .collect()
}

fn is_loss(e: &CloudError) -> bool {
    matches!(
        e,
        CloudError::InstanceCrashed(_) | CloudError::SpotPreempted(_)
    )
}

/// Screen a fresh instance on the global clock and attach `vol` to it,
/// retrying one transient attach failure.
fn acquire_with_volume(cloud: &mut Cloud, t: &mut Trace, vol: ec2sim::VolumeId) -> InstanceId {
    let policy = ScreeningPolicy::default();
    let inst = match acquire_good_instance(cloud, InstanceType::Small, zone(), &policy) {
        Ok((id, attempts)) => {
            t.u64(id.0);
            t.u64(attempts as u64);
            id
        }
        Err(e) => {
            t.err(&e);
            cloud
                .launch(InstanceType::Small, zone())
                .expect("the cap leaves room for a fallback instance")
        }
    };
    t.f64(cloud.now());
    let r = cloud.wait_until_running(inst);
    t.unit(cloud, &r);
    let r = run_bonnie(cloud, inst);
    t.bonnie(cloud, &r);
    for _ in 0..2 {
        let r = cloud.attach_volume(vol, inst);
        t.unit(cloud, &r);
        if !matches!(r, Err(CloudError::AttachFailed(_))) {
            break;
        }
    }
    inst
}

/// The fixed script for one case; returns its fingerprint and how many
/// `run_app` calls the instance died in the middle of.
fn script(seed: u64, faulty: bool) -> (u64, usize) {
    let plan = if faulty {
        FaultPlan::generate(seed, &faults())
    } else {
        FaultPlan::none()
    };
    let mut cloud = Cloud::with_faults(
        CloudConfig {
            seed,
            ..CloudConfig::default()
        },
        &plan,
    );
    let sink = Obs::recording(seed);
    cloud.set_obs(sink.clone());
    let mut t = Trace::default();
    let model = GrepCostModel::default();

    // Global clock: one screened instance at a time runs EBS and local
    // rounds; an instance lost mid-script is replaced and the volume
    // re-attached.
    let vol = cloud.create_volume(zone(), 20_000_000_000);
    t.u64(vol.0);
    let mut inst = acquire_with_volume(&mut cloud, &mut t, vol);
    for round in 0..10u64 {
        let input = files(round);
        let ebs = DataLocation::Ebs {
            volume: vol,
            offset: round * 2_000_000_000,
        };
        for data in [ebs, DataLocation::Local] {
            let before = cloud.now();
            let r = cloud.run_app(inst, &model, &input, data);
            t.run(&cloud, &r);
            if matches!(&r, Err(e) if is_loss(e)) && cloud.now() > before {
                t.mid_run_crashes += 1;
            }
            if cloud.state(inst) == Ok(InstanceState::TerminatedState) {
                inst = acquire_with_volume(&mut cloud, &mut t, vol);
            }
        }
    }
    let r = cloud.detach_volume(vol);
    t.unit(&cloud, &r);
    let r = cloud.terminate(inst);
    t.unit(&cloud, &r);

    // Instance timelines: a small fleet screened at boot, each with its
    // own volume, two EBS jobs and one local job, terminated when its
    // busy horizon ends.
    let policy = ScreeningPolicy::default();
    let overhead = cloud.config().attach_overhead_s;
    for k in 0..4u64 {
        let id = match cloud.launch(InstanceType::Small, zone()) {
            Ok(id) => id,
            Err(e) => {
                t.err(&e);
                continue;
            }
        };
        let ready = match screen_at(&mut cloud, id, &policy) {
            Ok((passed, ready)) => {
                t.u64(passed as u64);
                t.f64(ready);
                ready
            }
            Err(e) => {
                t.err(&e);
                continue;
            }
        };
        let v = cloud.create_volume_custom(zone(), 10_000_000_000, 0.25 * k as f64);
        t.u64(v.0);
        let mut not_before = ready;
        for _ in 0..2 {
            let r = cloud.attach_volume_at(v, id, not_before);
            t.unit(&cloud, &r);
            not_before += overhead;
            if !matches!(r, Err(CloudError::AttachFailed(_))) {
                break;
            }
        }
        for (j, data) in [
            DataLocation::Ebs {
                volume: v,
                offset: 0,
            },
            DataLocation::Ebs {
                volume: v,
                offset: 4_000_000_000,
            },
            DataLocation::Local,
        ]
        .into_iter()
        .enumerate()
        {
            // The first two jobs queue on the busy horizon; the third asks
            // to start later.
            let after = not_before + if j == 2 { 900.0 } else { 0.0 };
            let r = cloud.submit_job(id, &model, &files(10 + k * 3 + j as u64), data, after);
            t.run(&cloud, &r);
        }
        let end = cloud.busy_until(id).expect("the instance exists");
        t.f64(end);
        let r = cloud.terminate_at(id, end);
        t.unit(&cloud, &r);
    }
    t.f64(cloud.settle());
    t.f64(cloud.now());
    t.finish(&cloud, &sink)
}

/// `(seed, fault-free fingerprint, faulty fingerprint)`.
const EXPECTED: [(u64, u64, u64); 6] = [
    (0, 0x8b41_a384_a2da_6b97, 0x8f86_faa0_1d89_33f9),
    (1, 0x0400_c914_aa4c_c4e0, 0xa58b_6d9d_8a4c_65c8),
    (2, 0x2a8c_b442_a4eb_29e7, 0xf25c_41b9_eca1_2e6a),
    (3, 0x3fc0_b18c_f316_f49e, 0xac82_9b1e_6814_fa20),
    (4, 0xd149_c638_fbaa_66a2, 0x0ad3_f90e_a868_7b64),
    (5, 0x0108_be92_2d77_d2ea, 0xda0c_cb35_b0b0_382b),
];

#[test]
fn cloud_scripts_keep_their_fingerprints() {
    let mut mid_run_crashes = 0;
    let mut got = Vec::new();
    for (seed, _, _) in EXPECTED {
        let (clean, none) = script(seed, false);
        assert_eq!(
            none, 0,
            "seed {seed}: an instance died without a fault plan"
        );
        let (faulty, crashes) = script(seed, true);
        mid_run_crashes += crashes;
        println!("({seed}, {clean:#018x}, {faulty:#018x}),");
        got.push((seed, clean, faulty));
    }
    assert_eq!(got, EXPECTED);
    assert!(
        mid_run_crashes > 0,
        "no faulty case lost an instance in the middle of run_app"
    );
}
