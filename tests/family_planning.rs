//! One family plan: `market::family_plan` (and `plan_on_family`, its §5.2
//! adjusted-deadline form) against the classic planner.
//!
//! * On the standard family (multiplier exactly 1.0) it is `make_plan` bit
//!   for bit, for every model kind, strategy and deadline.
//! * On every catalog family a plan keeps the requested deadline and
//!   predicts what the family takes: each share's `predicted_secs` is the
//!   family's multiplier times the base fit's prediction. That includes
//!   `LogQuad`, whose fit cannot be rescaled and is planned at `D/m`.
//! * End to end, `Pipeline::run` judges a family fleet against the user's
//!   deadline, and a family that cannot pass the §4 screen fails with a
//!   typed error.
//! * The dispatcher's chooser, `market::cheapest_family_plan`, picks the
//!   family and plan that ranking every `plan_on_family` by expected cost
//!   picks, and `sched::admit`'s sizing-only verdict is the verdict of
//!   the plan `make_plan` builds.
//!
//! Vendored proptest does not shrink, so every failure names its seed.

use corpus::hash::splitmix64;
use corpus::FileSpec;
use ec2sim::{CloudError, FamilyId, InstanceFamily};
use market::{cheapest_family_plan, expected_plan_cost};
use market::{family_plan, plan_on_family};
use perfmodel::{fit, Fit, ModelKind};
use proptest::prelude::*;
use provision::{make_plan, Plan, Strategy};
use provision::{ProvisionError, Sizing};
use reshape::{
    App, ModelSelection, Pipeline, PipelineConfig, PipelineError, ProbeCampaign, Workload,
};
use sched::{admit, Admission, Job, RejectReason, TenantId};
use textapps::AppKind;

/// A uniform draw from `[0, 1)` keyed by `seed`.
fn unit(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// A fit of `kind` to ~75 MB/s with a 1 s fixed cost and an alternating
/// relative wobble, so the §5.2 adjustment has residuals to work from.
fn base_fit(kind: ModelKind, wobble: f64) -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| (1.0 + x / 75.0e6) * (1.0 + wobble * if k % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    fit(kind, &xs, &ys)
}

/// 20–200 files of 1–100 MB, drawn from `seed`.
fn corpus(seed: u64) -> Vec<FileSpec> {
    let n = 20 + splitmix64(seed) % 181;
    (0..n)
        .map(|i| FileSpec::new(i, 1_000_000 + splitmix64(seed ^ (i + 1)) % 99_000_000))
        .collect()
}

/// The three strategies, the adjusted one at a miss probability drawn
/// from `seed`.
fn strategies(seed: u64) -> [Strategy; 3] {
    [
        Strategy::CapacityDriven,
        Strategy::UniformBins,
        Strategy::AdjustedDeadline {
            p_miss: 0.01 + 0.3 * unit(seed),
        },
    ]
}

/// A deadline drawn log-uniformly from 0.1 s to 1,000 s, so some plans
/// fall below the fits' fixed costs and fail.
fn deadline(seed: u64) -> f64 {
    10f64.powf(-1.0 + 4.0 * unit(seed))
}

/// Check that `plan` keeps `deadline` and predicts `m × base` per share.
fn assert_family_clock(plan: &Plan, base: &Fit, m: f64, deadline: f64, what: &str) {
    assert_eq!(
        plan.deadline_secs.to_bits(),
        deadline.to_bits(),
        "{what}: deadline {} for {deadline}",
        plan.deadline_secs
    );
    assert!(
        plan.planning_deadline_secs <= deadline * (1.0 + 1e-12),
        "{what}: planning deadline {} after {deadline}",
        plan.planning_deadline_secs
    );
    for share in &plan.instances {
        let want = m * base.predict(share.volume as f64);
        assert!(
            (share.predicted_secs - want).abs() <= 1e-12 * want.abs(),
            "{what}: share of {} B predicted {} s, the family takes {want} s",
            share.volume,
            share.predicted_secs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn standard_family_plans_are_the_classic_plans(seed in any::<u64>()) {
        let files = corpus(seed);
        let d = deadline(seed ^ 1);
        let standard = InstanceFamily::standard();
        for kind in ModelKind::ALL {
            let base = base_fit(kind, 0.005 + 0.04 * unit(seed ^ 2));
            for strategy in strategies(seed ^ 3) {
                let family = family_plan(strategy, &files, &base, &standard, d);
                let classic = make_plan(strategy, &files, &base, d);
                // Debug prints each float's shortest round-trip form, so
                // equal strings mean equal bits.
                prop_assert_eq!(
                    format!("{family:?}"),
                    format!("{classic:?}"),
                    "seed {}: {:?} {:?} at {} s",
                    seed,
                    kind,
                    strategy,
                    d
                );
            }
        }
    }
}

#[test]
fn catalog_family_plans_keep_the_deadline_and_predict_the_family() {
    let mut logquad_on_scaled_families = 0;
    for seed in 0..24u64 {
        let files = corpus(seed);
        let d = deadline(seed ^ 1);
        for family in InstanceFamily::catalog() {
            let m = family.perf_multiplier;
            for kind in ModelKind::ALL {
                let base = base_fit(kind, 0.005 + 0.04 * unit(seed ^ 2));
                for strategy in strategies(seed ^ 3) {
                    let what = format!(
                        "seed {seed}: {:?} {kind:?} {strategy:?} at {d} s",
                        family.id
                    );
                    let Ok(plan) = family_plan(strategy, &files, &base, &family, d) else {
                        continue;
                    };
                    assert_family_clock(&plan, &base, m, d, &what);
                    if kind == ModelKind::LogQuad && family.id != FamilyId::Standard {
                        logquad_on_scaled_families += 1;
                    }
                }
            }
        }
    }
    assert!(
        logquad_on_scaled_families > 0,
        "no LogQuad plan on a rescaled family was feasible"
    );
}

#[test]
fn logquad_family_plans_keep_the_user_deadline() {
    let base = base_fit(ModelKind::LogQuad, 0.01);
    let files: Vec<FileSpec> = (0..40).map(|i| FileSpec::new(i, 100_000_000)).collect();
    for family in [InstanceFamily::low_power(), InstanceFamily::hi_cpu()] {
        let what = format!("{:?}", family.id);
        let plan = plan_on_family(&files, &base, &family, 60.0, 0.1).unwrap();
        assert_family_clock(&plan, &base, family.perf_multiplier, 60.0, &what);
        assert!(plan.predicted_feasible(), "{what}: {plan:?}");
    }
}

/// The grep pipeline of `tests/pipeline_end_to_end.rs`: a 10 s deadline
/// over a small HTML corpus.
fn grep_config() -> PipelineConfig {
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
        validate: true,
        ..PipelineConfig::default()
    }
}

fn grep_workload() -> Workload {
    Workload::new(corpus::html_18mil(0.001, 21), App::grep("zxqv"))
}

#[test]
fn logquad_pipeline_on_hi_cpu_judges_misses_against_the_user_deadline() {
    let config = PipelineConfig {
        family: Some(InstanceFamily::hi_cpu()),
        selection: ModelSelection::Fixed(ModelKind::LogQuad),
        ..grep_config()
    };
    let report = Pipeline::new(config.clone()).run(&grep_workload()).unwrap();
    assert_eq!(report.execution.deadline_secs, config.deadline_secs);
}

#[test]
fn a_low_power_fleet_cannot_pass_the_screen() {
    // Low-power I/O is at most 85 / 1.9 ≈ 45 MB/s, under the 60 MB/s bar.
    let config = PipelineConfig {
        family: Some(InstanceFamily::low_power()),
        ..grep_config()
    };
    assert!(config.screen_fleet);
    match Pipeline::new(config).run(&grep_workload()) {
        Err(PipelineError::Cloud(CloudError::ScreeningExhausted { attempts: 16 })) => {}
        other => panic!("expected an exhausted screen, got {other:?}"),
    }
}

/// 0–60 files of 0–100 MB, drawn from `seed`; about one in four is empty.
fn lumpy_corpus(seed: u64) -> Vec<FileSpec> {
    let n = splitmix64(seed) % 61;
    (0..n)
        .map(|i| {
            let draw = splitmix64(seed ^ (i + 1));
            let size = if draw.is_multiple_of(4) {
                0
            } else {
                draw % 100_000_000
            };
            FileSpec::new(i, size)
        })
        .collect()
}

/// Catalogs to choose from: the default one, one without the standard
/// family, and two whose families share a multiplier, at the same rate
/// (a tie) or a rate drawn from `seed`.
fn catalogs(seed: u64) -> [Vec<InstanceFamily>; 4] {
    let low = InstanceFamily::low_power();
    let standard = InstanceFamily::standard();
    let low_twin = InstanceFamily {
        id: FamilyId::Standard,
        ..low
    };
    let standard_twin = InstanceFamily {
        id: FamilyId::HiCpu,
        on_demand_rate: 0.05 + 0.1 * unit(seed),
        ..standard
    };
    [
        InstanceFamily::catalog(),
        vec![InstanceFamily::hi_cpu(), low],
        vec![low, low_twin, InstanceFamily::hi_cpu()],
        vec![standard, standard_twin],
    ]
}

/// The dispatcher's choice before the chooser existed: plan on every
/// family, keep the plans that fit `free`, and take the cheapest; the
/// first family wins a tie.
fn reference_choice(
    files: &[FileSpec],
    base: &Fit,
    catalog: &[InstanceFamily],
    deadline: f64,
    p_miss: f64,
    free: usize,
) -> Option<(InstanceFamily, Plan, f64)> {
    catalog
        .iter()
        .filter_map(|fam| {
            plan_on_family(files, base, fam, deadline, p_miss)
                .ok()
                .filter(|p| p.instance_count() <= free)
                .map(|p| {
                    let cost = expected_plan_cost(&p, fam.on_demand_rate);
                    (*fam, p, cost)
                })
        })
        .min_by(|a, b| a.2.total_cmp(&b.2))
}

/// Admission before it stopped planning: the verdict of the plan
/// `make_plan` builds.
fn reference_admit(job: &Job, fit: &Fit, p_miss: f64, capacity: usize) -> Admission {
    if job.files.is_empty() {
        return Admission::Rejected(RejectReason::EmptyJob);
    }
    let adjusted_deadline_secs = fit.adjusted_deadline(job.deadline_secs, p_miss);
    match make_plan(
        Strategy::AdjustedDeadline { p_miss },
        &job.files,
        fit,
        job.deadline_secs,
    ) {
        Err(ProvisionError::NotInvertible { .. }) => {
            Admission::Rejected(RejectReason::ModelNotInvertible {
                adjusted_deadline_secs,
            })
        }
        Err(ProvisionError::DeadlineBelowFixedCosts { .. }) => {
            Admission::Rejected(RejectReason::DeadlineBelowFixedCosts {
                adjusted_deadline_secs,
            })
        }
        Ok(plan) if plan.instance_count() > capacity => {
            Admission::Rejected(RejectReason::FleetTooLarge {
                needed: plan.instance_count(),
                capacity,
            })
        }
        Ok(plan) => Admission::Accepted {
            instances: plan.instance_count(),
            adjusted_deadline_secs,
        },
    }
}

/// What one draw exercised.
#[derive(Default)]
struct Coverage {
    zero_byte_files: usize,
    fleets_above_files: usize,
    nothing_fits: usize,
    ties: usize,
    accepted: usize,
    too_large: usize,
    below_fixed_costs: usize,
}

impl Coverage {
    fn add(&mut self, other: Coverage) {
        self.zero_byte_files += other.zero_byte_files;
        self.fleets_above_files += other.fleets_above_files;
        self.nothing_fits += other.nothing_fits;
        self.ties += other.ties;
        self.accepted += other.accepted;
        self.too_large += other.too_large;
        self.below_fixed_costs += other.below_fixed_costs;
    }
}

/// Check the chooser and `admit` against their references on the draws
/// of `seed`, for every model kind and catalog.
fn chooser_and_admission_match(seed: u64) -> Coverage {
    let files = lumpy_corpus(seed);
    let d = deadline(seed ^ 1);
    let p_miss = 0.01 + 0.3 * unit(seed ^ 4);
    let free = 1 + (splitmix64(seed ^ 5) % 64) as usize;
    let mut seen = Coverage {
        zero_byte_files: usize::from(files.iter().any(|f| f.size == 0)),
        ..Coverage::default()
    };
    let total: u64 = files.iter().map(|f| f.size).sum();
    for kind in ModelKind::ALL {
        let base = base_fit(kind, 0.005 + 0.04 * unit(seed ^ 2));
        let what = format!(
            "seed {seed}: {kind:?}, {} files, {d} s, free {free}",
            files.len()
        );
        if Sizing::adjusted(total, &base, d, p_miss).is_ok_and(|s| s.fleet > files.len() as u64) {
            seen.fleets_above_files += 1;
        }
        for catalog in catalogs(seed ^ 6) {
            let want = reference_choice(&files, &base, &catalog, d, p_miss, free);
            let got = cheapest_family_plan(&files, &base, &catalog, d, p_miss, free);
            // Debug prints each float's shortest round-trip form, so equal
            // strings mean equal bits.
            assert_eq!(
                format!("{:?}", got.as_ref().map(|(fam, plan)| (**fam, plan))),
                format!("{:?}", want.as_ref().map(|(fam, plan, _)| (*fam, plan))),
                "{what}: {:?}",
                catalog.iter().map(|f| f.id).collect::<Vec<_>>()
            );
            match want {
                None => seen.nothing_fits += 1,
                Some((_, _, cost)) => {
                    let cheapest = catalog
                        .iter()
                        .filter_map(|fam| {
                            plan_on_family(&files, &base, fam, d, p_miss)
                                .ok()
                                .filter(|p| p.instance_count() <= free)
                                .map(|p| expected_plan_cost(&p, fam.on_demand_rate))
                        })
                        .filter(|c| c.to_bits() == cost.to_bits())
                        .count();
                    if cheapest > 1 {
                        seen.ties += 1;
                    }
                }
            }
        }
        let job = Job {
            id: seed,
            tenant: TenantId(0),
            app: AppKind::Grep,
            files: files.clone(),
            arrival_secs: 0.0,
            deadline_secs: d,
            priority: 0,
        };
        let want = reference_admit(&job, &base, p_miss, free);
        let got = admit(&job, &base, p_miss, free);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        match want {
            Admission::Accepted { .. } => seen.accepted += 1,
            Admission::Rejected(RejectReason::FleetTooLarge { .. }) => seen.too_large += 1,
            Admission::Rejected(RejectReason::DeadlineBelowFixedCosts { .. }) => {
                seen.below_fixed_costs += 1
            }
            Admission::Rejected(_) => {}
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_chooser_and_admission_match_their_references(seed in any::<u64>()) {
        chooser_and_admission_match(seed);
    }
}

#[test]
fn chooser_draws_cover_the_hard_cases() {
    let mut seen = Coverage::default();
    for seed in 0..48u64 {
        seen.add(chooser_and_admission_match(seed));
    }
    for (case, count) in [
        ("zero-byte files", seen.zero_byte_files),
        ("a fleet above the file count", seen.fleets_above_files),
        ("no family fitting", seen.nothing_fits),
        ("a cost tie", seen.ties),
        ("an accepted job", seen.accepted),
        ("a fleet too large", seen.too_large),
        ("a deadline below fixed costs", seen.below_fixed_costs),
    ] {
        assert!(count > 0, "no draw had {case}");
    }
}
