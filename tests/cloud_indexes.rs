//! Differential tests for the simulated cloud's three indexes: the list of
//! possibly live instances behind the instance cap, the ledger's map from
//! instance to bill, and the volumes each instance holds.
//!
//! Seeded random sequences of launches (under a small cap), clock moves,
//! terminations dated in the past, the present and the future, volume
//! creation, attach, detach and settle run against `ec2sim::Cloud` and
//! against brute-force references kept by this test from the public API
//! alone. Vendored proptest does not shrink, so every failure names its
//! seed and step.

use ec2sim::{
    AvailabilityZone, BillingLedger, Cloud, CloudConfig, CloudError, DataLocation, Instance,
    InstanceBill, InstanceId, InstanceState, InstanceType, VolumeId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 200;
const STEPS: usize = 150;
const MAX_VOLUMES: usize = 6;

fn zone() -> AvailabilityZone {
    AvailabilityZone::us_east_1a()
}

/// The ledger with a linear search per record in place of the index.
#[derive(Default)]
struct LinearLedger {
    bills: Vec<InstanceBill>,
}

impl LinearLedger {
    fn record(&mut self, inst: &Instance, now: f64) {
        let mut one = BillingLedger::new();
        one.record(inst, now);
        let bill = one.bills()[0].clone();
        match self.bills.iter_mut().find(|b| b.id == bill.id) {
            Some(existing) => *existing = bill,
            None => self.bills.push(bill),
        }
    }
}

/// What the reference side knows: every launched instance, each volume's
/// holder and past holders, and the linear ledger.
#[derive(Default)]
struct Reference {
    instances: Vec<Instance>,
    holders: Vec<Option<InstanceId>>,
    held_before: Vec<Vec<InstanceId>>,
    ledger: LinearLedger,
}

/// How often each case the indexes must get right came up.
#[derive(Default, Debug)]
struct Seen {
    /// Launches refused while an instance with a future-dated termination
    /// still counted against the cap.
    cap_with_future_termination: usize,
    /// Terminations of an instance that held volumes.
    released: usize,
    /// Terminations of a volume's former holder while another instance
    /// holds it.
    moved_survived: usize,
}

fn pick_time(rng: &mut StdRng, now: f64) -> f64 {
    match rng.random_range(0..3) {
        0 => (now - rng.random_range(0.0f64..2_000.0)).max(0.0),
        1 => now,
        _ => now + rng.random_range(0.0..5_000.0),
    }
}

fn run(seed: u64, seen: &mut Seen) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cap = rng.random_range(2..=5);
    let mut cloud = Cloud::new(CloudConfig {
        seed,
        instance_cap: cap,
        ..CloudConfig::default()
    });
    let mut r = Reference::default();
    for step in 0..STEPS {
        let at = |what: &str| format!("seed {seed}, step {step}: {what}");
        let now = cloud.now();
        match rng.random_range(0..100) {
            0..=19 => {
                // The cap: refused exactly when the brute-force count
                // of instances not terminated at `now` reaches it.
                let live: Vec<&Instance> = r
                    .instances
                    .iter()
                    .filter(|i| i.state_at(now) != InstanceState::TerminatedState)
                    .collect();
                match cloud.launch(InstanceType::Small, zone()) {
                    Err(CloudError::InstanceCapReached(c)) => {
                        assert!(c == cap && live.len() >= cap, "{}", at("refused"));
                        if live.iter().any(|i| i.terminated_at.is_some()) {
                            seen.cap_with_future_termination += 1;
                        }
                    }
                    Ok(id) => {
                        assert!(live.len() < cap, "{}", at("launched over the cap"));
                        assert_eq!(id.0, r.instances.len() as u64, "{}", at("id"));
                        r.instances.push(Instance {
                            id,
                            itype: InstanceType::Small,
                            zone: zone(),
                            state: InstanceState::Pending,
                            requested_at: now,
                            running_at: cloud.running_at(id).expect("launched"),
                            terminated_at: None,
                            quality: cloud.quality(id).expect("launched"),
                            hourly_rate: InstanceType::Small.hourly_rate(),
                        });
                    }
                    Err(e) => panic!("{}", at(&format!("launch failed: {e:?}"))),
                }
            }
            20..=34 => cloud.advance(rng.random_range(0.0..1_200.0)),
            35..=49 => {
                // Now and then an id the cloud never issued.
                let id = InstanceId(rng.random_range(0..=r.instances.len() as u64));
                let when = pick_time(&mut rng, now);
                let got = cloud.terminate_at(id, when);
                let Some(inst) = r.instances.get_mut(id.0 as usize) else {
                    assert_eq!(got, Err(CloudError::NoSuchInstance(id)), "{}", at("ghost"));
                    continue;
                };
                if inst.terminated_at.is_some() {
                    // A repeated terminate releases nothing.
                    assert_eq!(got, Err(CloudError::Terminated(id)), "{}", at("twice"));
                } else {
                    // Every volume `id` holds is released, and none other.
                    let mut held = 0;
                    for (v, holder) in r.holders.iter_mut().enumerate() {
                        if *holder == Some(id) {
                            *holder = None;
                            held += 1;
                        } else if holder.is_some() && r.held_before[v].contains(&id) {
                            seen.moved_survived += 1;
                        }
                    }
                    if held > 0 {
                        seen.released += 1;
                    }
                    assert_eq!(got, Ok(()), "{}", at("terminate"));
                    inst.terminated_at = Some(when);
                    r.ledger.record(inst, when);
                }
            }
            50..=54 if r.holders.len() < MAX_VOLUMES => {
                let v = cloud.create_volume(zone(), 10_000_000_000);
                assert_eq!(v.0, r.holders.len() as u64, "{}", at("volume id"));
                r.holders.push(None);
                r.held_before.push(Vec::new());
            }
            55..=79 if !r.holders.is_empty() && !r.instances.is_empty() => {
                let v = VolumeId(rng.random_range(0..r.holders.len() as u64));
                let id = InstanceId(rng.random_range(0..r.instances.len() as u64));
                let when = pick_time(&mut rng, now);
                let want = match r.holders[v.0 as usize] {
                    _ if r.instances[id.0 as usize].terminated_at.is_some() => {
                        Err(CloudError::Terminated(id))
                    }
                    _ if r.instances[id.0 as usize].state_at(when) != InstanceState::Running => {
                        Err(CloudError::NotRunning(id))
                    }
                    Some(h) if h != id => Err(CloudError::VolumeBusy(v, h)),
                    _ => Ok(()),
                };
                assert_eq!(
                    cloud.attach_volume_at(v, id, when),
                    want,
                    "{}",
                    at("attach")
                );
                if want.is_ok() {
                    r.holders[v.0 as usize] = Some(id);
                    r.held_before[v.0 as usize].push(id);
                }
            }
            80..=91 if !r.holders.is_empty() => {
                let v = VolumeId(rng.random_range(0..r.holders.len() as u64));
                let want = match r.holders[v.0 as usize].take() {
                    Some(_) => Ok(()),
                    None => Err(CloudError::VolumeNotAttached(v)),
                };
                assert_eq!(cloud.detach_volume_at(v), want, "{}", at("detach"));
            }
            92..=99 => {
                cloud.settle();
                for inst in &r.instances {
                    if inst.terminated_at.is_none() && inst.running_seconds(now) > 0.0 {
                        r.ledger.record(inst, now);
                    }
                }
            }
            _ => {}
        }
        // The ledger: the same bills as the linear reference, in
        // first-record order.
        assert_eq!(
            cloud.ledger().bills(),
            &r.ledger.bills[..],
            "{}",
            at("bills")
        );
        // Each volume is attached to its holder, and a volume with no
        // holder is attached to nothing.
        for (v, holder) in r.holders.iter().enumerate() {
            let vol = VolumeId(v as u64);
            match holder {
                Some(h) => {
                    let ebs = DataLocation::Ebs {
                        volume: vol,
                        offset: 0,
                    };
                    assert!(
                        cloud.exec_env(*h, &ebs, 0).is_ok(),
                        "{}",
                        at(&format!("volume {v} left instance {}", h.0))
                    );
                }
                None => assert_eq!(
                    cloud.detach_volume_at(vol),
                    Err(CloudError::VolumeNotAttached(vol)),
                    "{}",
                    at(&format!("volume {v} still attached"))
                ),
            }
        }
    }
}

#[test]
fn cap_ledger_and_volume_indexes_match_brute_force() {
    let mut seen = Seen::default();
    for seed in 0..SEEDS {
        run(seed, &mut seen);
    }
    println!("{seen:?}");
    // Each case the indexes could get wrong was exercised.
    assert!(seen.cap_with_future_termination > 0, "{seen:?}");
    assert!(seen.released > 0, "{seen:?}");
    assert!(seen.moved_survived > 0, "{seen:?}");
}
