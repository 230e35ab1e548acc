//! Integration tests of the cloud-economics layer: billing against the
//! paper's pricing scheme, the switching analysis and a screened fleet's
//! execution report — all through public APIs only.

use ec2sim::{Cloud, CloudConfig, InstanceType};
use provision::{
    cost_for_deadline, execute_plan, make_plan, switch_analysis, ExecutionConfig, PricingModel,
    Strategy,
};

#[test]
fn paper_pricing_examples() {
    let p = PricingModel::default();
    // §5: D >= 1h -> r*ceil(P); D < 1h -> r*ceil(P/D).
    assert!((cost_for_deadline(&p, 26.1, 1.0) - 27.0 * 0.085).abs() < 1e-9);
    assert!((cost_for_deadline(&p, 26.1, 2.0) - 27.0 * 0.085).abs() < 1e-9);
    assert!((cost_for_deadline(&p, 1.0, 0.25) - 4.0 * 0.085).abs() < 1e-9);
}

#[test]
fn fleet_bills_partial_hours_as_full() {
    let mut cloud = Cloud::new(CloudConfig::ideal(41));
    let zone = ec2sim::AvailabilityZone::us_east_1a();
    let ids: Vec<_> = (0..3)
        .map(|_| cloud.launch(InstanceType::Small, zone).unwrap())
        .collect();
    for id in &ids {
        cloud.wait_until_running(*id).unwrap();
    }
    cloud.advance(10.0); // three instances, ten seconds of work
    for id in &ids {
        cloud.terminate(*id).unwrap();
    }
    assert_eq!(cloud.ledger().total_instance_hours(), 3);
    assert!((cloud.ledger().total_cost() - 3.0 * 0.085).abs() < 1e-9);
}

#[test]
fn switching_reproduces_section_3_1() {
    let a = switch_analysis(60.0e6, 80.0e6, 3600.0, 180.0, 0.88);
    assert!((a.keep_bytes / 1e9 - 216.0).abs() < 1.0);
    assert!(a.gain_if_fast > 50.0e9 && a.gain_if_fast < 65.0e9);
    assert!(a.loss_if_slow > 8.0e9 && a.loss_if_slow < 13.0e9);
    assert!(a.expected_gain > 0.0);
}

#[test]
fn execution_report_is_internally_consistent() {
    let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 1.0e8).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x / 75.0e6).collect();
    let fit = perfmodel::fit(perfmodel::ModelKind::Affine, &xs, &ys);
    let files: Vec<corpus::FileSpec> = (0..30)
        .map(|i| corpus::FileSpec::new(i, 100_000_000))
        .collect();
    let plan = make_plan(Strategy::UniformBins, &files, &fit, 15.0).unwrap();
    let mut cloud = Cloud::new(CloudConfig::default());
    let report = execute_plan(
        &mut cloud,
        &plan,
        &textapps::GrepCostModel::default(),
        &ExecutionConfig {
            screen: true,
            ..ExecutionConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.runs.len(), plan.instance_count());
    let max = report
        .runs
        .iter()
        .map(|r| r.job_secs)
        .fold(0.0f64, f64::max);
    assert_eq!(report.makespan_secs, max);
    assert_eq!(
        report.misses,
        report.runs.iter().filter(|r| !r.met_deadline).count()
    );
    let hours: u64 = report
        .runs
        .iter()
        .map(|r| provision::instance_hours(r.job_secs))
        .sum();
    assert_eq!(report.instance_hours, hours);
    // Screened fleets keep slow instances out: with good instances and
    // clean volumes, effective throughput stays above 55 MB/s per share.
    for run in &report.runs {
        let bps = run.volume as f64 / run.job_secs;
        assert!(bps > 25.0e6, "share at {bps} B/s looks unscreened");
    }
}
