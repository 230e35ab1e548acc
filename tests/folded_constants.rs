//! Pins outputs that read the simulator's calibrated constants: retry
//! backoff, transfer and retrieval pricing, spot-market planning and its
//! reclaim script, the shuffle, the quality-aware executor, generated text,
//! fault schedules and the application cost models.
//!
//! Each test folds its outputs into one FNV-1a fingerprint (floats by
//! `to_bits`, structured reports by their `Debug` rendering) and compares
//! it with a committed constant. A change to any calibrated value these
//! outputs read moves a fingerprint; a refactor that keeps the values must
//! leave every fingerprint unchanged.

use corpus::hash::fnv1a;
use corpus::FileSpec;
use ec2sim::{
    AvailabilityZone, Cloud, CloudConfig, FaultConfig, FaultPlan, Region, RetrievalModel,
    SharingBackend, TransferEngine, TransferKind, TransferPricing, TransferRequest,
};
use market::{plan_market, reclaim_fault_plan, MarketConfig, MarketStrategy};
use obs::Obs;
use perfmodel::{fit, Fit, ModelKind};
use provision::{
    execute_aggregation_observed, execute_quality_aware, execute_shuffle_observed,
    plan_aggregation, ExecutionConfig, QualityAwareConfig, QualityAwareReport, RetryPolicy,
    ShuffleConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use textapps::{AppCostModel, ExecEnv, GrepCostModel, PosCostModel, TokenizeCostModel};

/// Everything one test observes, serialised in order.
#[derive(Default)]
struct Pin(Vec<u8>);

impl Pin {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// Compare the fingerprint with the pinned one, printing it first so
    /// a deliberate recalibration can read the new value.
    fn check(&self, name: &str, pinned: u64) {
        let got = fnv1a(&self.0);
        println!("{name}: {got:#018x}");
        assert_eq!(got, pinned, "{name}: got {got:#018x}");
    }
}

fn zone(region: Region, index: u8) -> AvailabilityZone {
    AvailabilityZone { region, index }
}

/// An affine `1 + x / 75 MB/s` grep fit with a ±2 % alternating wobble,
/// so the §5.2 adjustment has residuals to work from.
fn grep_fit() -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| (1.0 + x / 75.0e6) * if k % 2 == 0 { 1.02 } else { 0.98 })
        .collect();
    fit(ModelKind::Affine, &xs, &ys)
}

fn uniform_files(n: u64, size: u64) -> Vec<FileSpec> {
    (0..n).map(|i| FileSpec::new(i, size)).collect()
}

#[test]
fn retry_backoff_keeps_its_fingerprint() {
    let policy = RetryPolicy::default();
    let mut pin = Pin::default();
    for seed in [0u64, 1, 0xBAC0FF] {
        let mut rng = StdRng::seed_from_u64(seed);
        for attempt in 1..=8 {
            pin.f64(policy.backoff_secs(attempt, &mut rng));
        }
    }
    pin.check("backoff", 0xf197_1dec_4c71_5e0d);
}

#[test]
fn transfer_costs_keep_their_fingerprint() {
    let east_a = zone(Region::UsEast, 0);
    let east_b = zone(Region::UsEast, 1);
    let west = zone(Region::EuWest, 0);
    let mut pin = Pin::default();
    for backend in SharingBackend::ALL {
        let mut engine = TransferEngine::new(backend, 7);
        let requests = [
            ("a", 40_000_000, east_a, east_a, 0.0, false),
            ("a", 40_000_000, east_a, east_a, 5.0, true),
            ("cross", 2_500_000_000, east_a, east_b, 10.0, false),
            ("cross", 2_500_000_000, east_b, east_b, 200.0, true),
            ("region", 700_000_000, east_a, west, 30.0, false),
            ("tiny", 1, east_b, east_a, 4_000.0, true),
        ];
        for (key, bytes, src_zone, dst_zone, not_before, is_get) in requests {
            let receipt = engine.transfer(&TransferRequest {
                key: key.to_string(),
                bytes,
                src_zone,
                dst_zone,
                not_before,
                is_get,
            });
            pin.f64(receipt.started_at);
            pin.f64(receipt.finished_at);
            pin.f64(receipt.cost);
        }
        pin.f64(engine.transfer_cost());
        pin.f64(engine.fixed_cost());
        pin.f64(engine.total_cost());
    }
    let pricing = TransferPricing::default();
    for kind in [
        TransferKind::IngressFromInternet,
        TransferKind::EgressToInternet,
        TransferKind::IntraZone,
        TransferKind::InterZone,
        TransferKind::InterRegion,
    ] {
        pin.f64(pricing.cost(kind, 123_456_789_012));
    }
    pin.check("transfer", 0x8cae_aa86_a391_174d);
}

#[test]
fn retrieval_times_keep_their_fingerprint() {
    let model = RetrievalModel::default();
    let mut pin = Pin::default();
    for objects in [0usize, 1, 7, 8, 9, 1_000, 100_000] {
        for bytes in [0u64, 1_000, 2_000_000_000] {
            pin.f64(model.retrieval_secs(objects, bytes));
        }
    }
    pin.check("retrieval", 0x2ed3_8fa1_823a_bd9e);
}

#[test]
fn market_plans_keep_their_fingerprints() {
    let files = uniform_files(1_500, 1_000_000_000);
    let fit = grep_fit();
    let mut pin = Pin::default();
    for strategy in [MarketStrategy::SpotOnly, MarketStrategy::Portfolio] {
        for seed in [1u64, 2] {
            for deadline in [14_400.0, 36_000.0] {
                let cfg = MarketConfig {
                    strategy,
                    seed,
                    ..MarketConfig::default()
                };
                let plan = plan_market(&files, &fit, deadline, &cfg);
                pin.debug(&plan);
                // The reclaim script reads the whole price path, past the
                // deadline the plan looks at.
                if let Ok(plan) = &plan {
                    pin.debug(&reclaim_fault_plan(plan, &cfg));
                }
            }
        }
    }
    pin.check("market", 0x2d46_1ddc_124e_c6eb);
}

/// About 150 s fixed plus 1e-4 s per byte, with a ±2 % wobble: against a
/// 300 s deadline the map phase spreads over several instances.
fn map_fit() -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 100_000.0).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| (150.0 + 1.0e-4 * x) * if k % 2 == 0 { 1.02 } else { 0.98 })
        .collect();
    fit(ModelKind::Affine, &xs, &ys)
}

#[test]
fn aggregations_keep_their_fingerprints() {
    let deadline = 300.0;
    let fit = map_fit();
    let mut pin = Pin::default();
    for seed in [1u64, 2] {
        let files = corpus::text_400k(0.002, seed).files;
        let cfg = ShuffleConfig {
            corpus_seed: seed,
            seed,
            ..ShuffleConfig::default()
        };
        let cloud_cfg = CloudConfig {
            seed,
            ..CloudConfig::default()
        };
        let obs = Obs::recording(seed);
        let mut cloud = Cloud::new(cloud_cfg);
        pin.debug(&execute_aggregation_observed(
            &mut cloud, &cfg, &files, &fit, deadline, &obs,
        ));
        pin.bytes(obs.to_ndjson().as_bytes());
        let (plan, _) = plan_aggregation(&cfg, &files, &fit, deadline).expect("plannable");
        for backend in SharingBackend::ALL {
            let obs = Obs::recording(seed);
            let mut cloud = Cloud::new(cloud_cfg);
            pin.debug(&execute_shuffle_observed(
                &mut cloud, &cfg, &plan, backend, &obs,
            ));
            pin.bytes(obs.to_ndjson().as_bytes());
        }
    }
    pin.check("aggregation", 0x77d1_b5c9_3253_822c);
}

/// A fleet where a third of the instances are slow and boots are quick.
fn hostile(seed: u64) -> CloudConfig {
    CloudConfig {
        seed,
        slow_fraction: 0.35,
        inconsistent_fraction: 0.0,
        startup_mean_s: 5.0,
        startup_jitter_s: 0.0,
        slow_segment_fraction: 0.0,
        ..CloudConfig::default()
    }
}

fn quality_aware(seed: u64, files: &[FileSpec], deadline_secs: f64) -> QualityAwareReport {
    let mut cloud = Cloud::new(hostile(seed));
    execute_quality_aware(
        &mut cloud,
        files,
        &grep_fit(),
        deadline_secs,
        &GrepCostModel::default(),
        &ExecutionConfig::default(),
        &QualityAwareConfig::default(),
    )
    .expect("quality-aware execution")
}

#[test]
fn quality_aware_reports_keep_their_fingerprints() {
    let mut pin = Pin::default();
    let files = uniform_files(60, 100_000_000);
    for seed in [1u64, 3, 7] {
        pin.debug(&quality_aware(seed, &files, 60.0));
    }
    // A deadline shorter than the probe leaves no candidate any budget, so
    // every candidate is used up. What it billed and measured is pinned;
    // whether the unprocessed files count as a miss is left to the
    // executor's own tests.
    let report = quality_aware(2, &uniform_files(10, 100_000_000), 1.0);
    pin.u64(report.rejected as u64);
    pin.debug(&report.measured_mbps);
    pin.debug(&report.execution.runs);
    pin.u64(report.execution.instance_hours);
    pin.f64(report.execution.cost);
    pin.check("quality_aware", 0xdad3_39b7_0101_c799);
}

#[test]
fn generated_text_keeps_its_fingerprint() {
    let mut pin = Pin::default();
    for (seed, id, size, complexity) in [
        (0u64, 0u64, 2_000u64, 1.0),
        (7, 123, 5_000, 1.6),
        (42, 99, 20_000, 0.5),
    ] {
        let file = FileSpec {
            id,
            size,
            complexity,
        };
        pin.bytes(&corpus::text_bytes(seed, &file));
    }
    pin.check("text", 0xd3a4_1b45_7ab2_7245);
}

#[test]
fn fault_plans_keep_their_fingerprint() {
    let mut pin = Pin::default();
    for seed in 0..4u64 {
        pin.debug(&FaultPlan::generate(seed, &FaultConfig::default()));
    }
    pin.check("faults", 0x1221_5c51_2b2a_7c6c);
}

#[test]
fn cost_models_keep_their_fingerprint() {
    let nominal = ExecEnv::nominal();
    let envs = [
        nominal,
        ExecEnv {
            io_throughput_bps: 20.0e6,
            ..nominal
        },
        // CPU-starved: grep's scan rate, not storage, sets its speed.
        ExecEnv {
            cpu_factor: 0.05,
            ..nominal
        },
    ];
    let sets: [&[FileSpec]; 3] = [
        &[FileSpec::new(0, 300)],
        &[
            FileSpec {
                id: 1,
                size: 5_000,
                complexity: 1.3,
            },
            FileSpec::new(2, 2_000_000),
        ],
        &[FileSpec::new(3, 100_000_000)],
    ];
    let models: [&dyn AppCostModel; 3] = [
        &GrepCostModel::default(),
        &PosCostModel::default(),
        &TokenizeCostModel::default(),
    ];
    let mut pin = Pin::default();
    for model in models {
        for env in &envs {
            for files in sets {
                pin.f64(model.runtime_secs(files, env));
            }
        }
    }
    for size in [100u64, 500, 501, 10_000, 100_000_000] {
        pin.f64(PosCostModel::default().mem_penalty(size));
    }
    pin.check("cost_models", 0x973b_649d_a3b5_2e56);
}
