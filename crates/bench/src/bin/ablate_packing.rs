//! Ablation A1 — why the paper packs POS bins with *in-order* first fit
//! rather than first fit decreasing (§5.2): FFD clusters the large files
//! into the early bins, and POS degradation on large files is pronounced,
//! so those bins blow past the deadline. Subset-sum first fit is also
//! compared, plus the rest of the family for completeness.

use bench::{execute_pos_plan, pos_calibration, screened_cloud, smoke, Table};
use binpack::Algorithm;
use ec2sim::CloudConfig;
use provision::Plan;

fn main() {
    let scale = if smoke() { 0.1 } else { 1.0 };
    let deadline = 3600.0;
    let (mut cloud, inst) = screened_cloud(CloudConfig {
        seed: 101,
        ..CloudConfig::default()
    });
    let manifest = corpus::text_400k(scale, 2008);
    let (eq3, _) = pos_calibration(&mut cloud, inst, &manifest);
    cloud.terminate(inst).unwrap();

    let x0 = eq3.invert(deadline).expect("invertible") as u64;

    let mut t = Table::new(
        &format!("A1 — packing algorithm vs schedule quality (capacity {x0} B)"),
        &[
            "algorithm",
            "bins",
            "mean fill",
            "instances",
            "inst-h",
            "misses",
            "makespan(s)",
        ],
    );
    for alg in Algorithm::ALL {
        let packing = alg.pack(&manifest.files, x0);
        let stats = binpack::PackingStats::of(&packing);
        let plan = Plan::from_packing(&manifest.files, &packing, &eq3, deadline, deadline, x0);
        let report = execute_pos_plan(1010, &plan);
        t.row(vec![
            format!("{alg:?}"),
            stats.bins.to_string(),
            format!("{:.3}", stats.mean_fill),
            report.runs.len().to_string(),
            report.instance_hours.to_string(),
            report.misses.to_string(),
            format!("{:.0}", report.makespan_secs),
        ]);
    }
    t.emit("ablate_packing");
    println!(
        "finding: the paper prefers in-order FirstFit, arguing FFD's few-large-file bins hit\n\
         POS's large-file degradation. On this corpus the *complexity drift* dominates instead:\n\
         in-order FF concentrates the complex prefix in the first bins (they miss), while\n\
         size-sorting algorithms shuffle it away. The paper's advice holds only when file-size\n\
         degradation outweighs corpus-order complexity correlation — see EXPERIMENTS.md A1."
    );
}
