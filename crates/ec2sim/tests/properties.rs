//! Property-based tests for the cloud substrate: billing laws, placement
//! arithmetic, noise statistics.

use ec2sim::{billed_hours, Cloud, CloudConfig, EbsVolume, InstanceType, NoiseModel, VolumeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn billed_hours_laws(a in 0.0f64..100_000.0, b in 0.0f64..100_000.0) {
        // Monotone...
        if a <= b {
            prop_assert!(billed_hours(a) <= billed_hours(b));
        }
        // ...subadditive in the sense that splitting a run across two
        // instances never bills fewer hours than the larger single run...
        prop_assert!(billed_hours(a + b) <= billed_hours(a) + billed_hours(b));
        // ...and bounded by the true duration plus one hour.
        prop_assert!((billed_hours(a) as f64) * 3600.0 < a + 3600.0 + 1e-6);
    }

    #[test]
    fn placement_multiplier_bounded(
        seed in 0u64..500,
        slow_fraction in 0.0f64..1.0,
        offset in 0u64..40_000_000_000,
        bytes in 1u64..10_000_000_000,
    ) {
        let v = EbsVolume::new(
            VolumeId(1),
            ec2sim::AvailabilityZone::us_east_1a(),
            40_000_000_000,
            slow_fraction,
            seed,
        );
        let m = v.throughput_multiplier(offset, bytes);
        prop_assert!(m > 0.32 && m <= 1.0, "multiplier {m}");
        // Repeatable.
        prop_assert_eq!(m, v.throughput_multiplier(offset, bytes));
    }

    #[test]
    fn noise_is_positive_and_mean_preserving(
        seed in 0u64..200,
        true_secs in 0.01f64..10_000.0,
    ) {
        let model = NoiseModel::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sum = 0.0;
        for _ in 0..200 {
            let o = model.observe(&mut rng, true_secs, 0.02);
            prop_assert!(o > 0.0);
            sum += o;
        }
        let mean = sum / 200.0;
        let sigma = model.sigma_rel(true_secs);
        // Sample mean within 5 standard errors of the truth.
        prop_assert!(
            (mean - true_secs).abs() < 5.0 * sigma * true_secs / (200.0f64).sqrt() + 1e-9,
            "mean {mean} vs truth {true_secs}"
        );
    }

    #[test]
    fn ledger_total_equals_sum_of_bills(n in 1usize..12) {
        let mut cloud = Cloud::new(CloudConfig::ideal(7));
        let zone = ec2sim::AvailabilityZone::us_east_1a();
        for k in 0..n {
            let id = cloud.launch(InstanceType::Small, zone).unwrap();
            cloud.wait_until_running(id).unwrap();
            cloud.advance(100.0 * (k + 1) as f64);
            cloud.terminate(id).unwrap();
        }
        let total = cloud.ledger().total_cost();
        let sum: f64 = cloud.ledger().bills().iter().map(|b| b.cost).sum();
        prop_assert!((total - sum).abs() < 1e-9);
        prop_assert_eq!(cloud.ledger().bills().len(), n);
    }

    #[test]
    fn submit_job_timelines_never_overlap_per_instance(
        n_jobs in 1usize..8,
        size_mb in 1u64..100,
    ) {
        use corpus::FileSpec;
        use textapps::GrepCostModel;
        let mut cloud = Cloud::new(CloudConfig::default());
        let zone = ec2sim::AvailabilityZone::us_east_1a();
        let id = cloud.launch(InstanceType::Small, zone).unwrap();
        let files = [FileSpec::new(0, size_mb * 1_000_000)];
        let mut last_end = 0.0f64;
        for _ in 0..n_jobs {
            let r = cloud
                .submit_job(id, &GrepCostModel::default(), &files, ec2sim::DataLocation::Local, 0.0)
                .unwrap();
            prop_assert!(r.started_at + 1e-9 >= last_end);
            prop_assert!(r.finished_at > r.started_at);
            last_end = r.finished_at;
        }
    }
}
