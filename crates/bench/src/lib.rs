//! Shared plumbing for the figure/table regenerators.
//!
//! Every binary in `src/bin/` regenerates one figure or analysis of the
//! paper: it prints an aligned ASCII table of the same series the paper
//! plots and writes a CSV under `results/`. Pass `--smoke` (or set
//! `SMOKE=1`) to shrink scales for CI-speed runs; the shapes survive, the
//! resolution drops, and every artifact goes to a `<stem>_smoke.*` sibling
//! so a smoke run never overwrites a committed full-size result. Every
//! `BENCH_*.json` report opens with the same [`Provenance`] header.

#![forbid(unsafe_code)]

use corpus::FileSpec;
use ec2sim::{
    acquire_good_instance, Cloud, CloudConfig, DataLocation, InstanceId, ScreeningPolicy,
};
use perfmodel::{Measurement, UnitSize};
use std::io::Write as _;
use std::path::PathBuf;
use textapps::AppCostModel;

/// Where CSV artifacts land (relative to the workspace root).
pub const RESULTS_DIR: &str = "results";

/// True when the run should shrink itself (`--smoke` argument or `SMOKE`
/// environment variable).
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke") || std::env::var("SMOKE").is_ok()
}

/// `results/<stem>.<ext>`, or `results/<stem>_smoke.<ext>` under
/// [`smoke`]; creates the directory.
fn result_path(stem: &str, ext: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(RESULTS_DIR);
    std::fs::create_dir_all(&dir)?;
    let suffix = if smoke() { "_smoke" } else { "" };
    Ok(dir.join(format!("{stem}{suffix}.{ext}")))
}

/// Write `value` as pretty-printed JSON to `results/<stem>.json` (the
/// `_smoke` sibling under [`smoke`]) and print the path.
pub fn write_json<T: serde::Serialize>(stem: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("report serializes");
    let path = result_path(stem, "json").expect("results dir");
    std::fs::write(&path, json + "\n").expect("write result json");
    println!("[json] {}", path.display());
}

/// The header every `results/BENCH_*.json` report carries as its
/// `provenance` field: what produced the numbers below it.
#[derive(Debug, serde::Serialize)]
pub struct Provenance {
    /// The commit the checkout was at, from `.git/HEAD`; `"unknown"`
    /// outside a git checkout.
    pub git_rev: String,
    /// Worker count the default `Parallelism` resolves to on this host.
    pub host_threads: usize,
    /// True for a shrunken [`smoke`] run.
    pub smoke: bool,
    /// Files in the report's input corpus.
    pub corpus_files: usize,
    /// Bytes in the report's input corpus.
    pub corpus_bytes: u64,
}

impl Provenance {
    /// The provenance of this process's run over a corpus of
    /// `corpus_files` files totalling `corpus_bytes` bytes.
    pub fn of_run(corpus_files: usize, corpus_bytes: u64) -> Self {
        Provenance {
            git_rev: git_rev(),
            host_threads: binpack::Parallelism::default().effective_workers(),
            smoke: smoke(),
            corpus_files,
            corpus_bytes,
        }
    }
}

/// The commit the working directory's checkout is at: `.git/HEAD`, through
/// one `ref:` indirection. Reads the files as the benchmark does, so the
/// reports need no git binary.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// An ASCII table that can also persist itself as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("\n== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Write `results/<name>.csv` (the `_smoke` sibling under [`smoke`]).
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = result_path(name, "csv")?;
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// Print and persist in one call.
    pub fn emit(&self, name: &str) {
        self.print();
        match self.write_csv(name) {
            Ok(path) => println!("[csv] {}", path.display()),
            Err(e) => eprintln!("[csv] failed to write {name}: {e}"),
        }
    }
}

/// Human label for a unit size.
pub fn unit_label(unit: UnitSize) -> String {
    match unit {
        UnitSize::Original => "original".to_string(),
        UnitSize::Bytes(b) => fmt_bytes(b),
    }
}

/// Compact byte formatting (1.5MB, 10kB, 2GB).
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [(u64, &str); 3] = [(1_000_000_000, "GB"), (1_000_000, "MB"), (1_000, "kB")];
    for (scale, suffix) in UNITS {
        if b >= scale {
            let v = b as f64 / scale as f64;
            return if (v - v.round()).abs() < 0.05 {
                format!("{:.0}{suffix}", v.round())
            } else {
                format!("{v:.1}{suffix}")
            };
        }
    }
    format!("{b}B")
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Bring up a cloud and acquire a screened probe instance (§4 procedure).
pub fn screened_cloud(config: CloudConfig) -> (Cloud, InstanceId) {
    let mut cloud = Cloud::new(config);
    let (inst, attempts) = acquire_good_instance(
        &mut cloud,
        ec2sim::InstanceType::Small,
        ec2sim::AvailabilityZone::us_east_1a(),
        &ScreeningPolicy::default(),
    )
    .expect("screening exhausted the fleet");
    if attempts > 1 {
        println!("[screening] accepted an instance after {attempts} attempts");
    }
    (cloud, inst)
}

/// Noisy homogeneous cloud, as in `tests/chaos.rs`: identical hardware
/// so the fitted model is exact, real measurement noise in the probes.
pub fn trial_cloud(seed: u64) -> CloudConfig {
    CloudConfig {
        seed,
        homogeneous: true,
        noise: ec2sim::NoiseModel::default(),
        ..CloudConfig::default()
    }
}

/// Fit the grep model by probing a [`trial_cloud`], as the pipeline would:
/// twelve volumes from 150 MB to 1.8 GB, four local runs each, one affine
/// fit.
pub fn probe_fit() -> perfmodel::Fit {
    let mut cloud = Cloud::new(trial_cloud(0x5EED));
    let inst = cloud
        .launch(
            ec2sim::InstanceType::Small,
            ec2sim::AvailabilityZone::us_east_1a(),
        )
        .expect("probe launch");
    cloud.wait_until_running(inst).expect("probe boot");
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for step in 1..=12u64 {
        let bytes = step * 150_000_000;
        for _ in 0..4 {
            let r = cloud
                .submit_job(
                    inst,
                    &textapps::GrepCostModel::default(),
                    &[FileSpec::new(0, bytes)],
                    DataLocation::Local,
                    0.0,
                )
                .expect("probe job");
            xs.push(bytes as f64);
            ys.push(r.observed_secs);
        }
    }
    perfmodel::fit(perfmodel::ModelKind::Affine, &xs, &ys)
}

/// Measure one probe `repeats` times on `inst` (the paper repeats 5×).
pub fn measure(
    cloud: &mut Cloud,
    inst: InstanceId,
    model: &dyn AppCostModel,
    files: &[FileSpec],
    data: DataLocation,
    repeats: usize,
) -> Measurement {
    let volume: u64 = files.iter().map(|f| f.size).sum();
    let runs: Vec<f64> = (0..repeats)
        .map(|_| {
            cloud
                .run_app(inst, model, files, data)
                .expect("probe run failed")
                .observed_secs
        })
        .collect();
    Measurement::new(volume, runs)
}

/// POS-tagging model calibration, shared by `eqfits`, `fig8` and `fig9`:
///
/// * **Eq (3) analog** — probes carved from the corpus *prefix* at the
///   original segmentation, volumes 1→50 MB, 5 runs each;
/// * **Eq (4) analog** — refit from 3 random 5 MB samples (plus half-size
///   subsets), which see the corpus-mean language complexity.
///
/// Returns `(eq3, eq4)` affine fits.
pub fn pos_calibration(
    cloud: &mut Cloud,
    inst: InstanceId,
    manifest: &corpus::Manifest,
) -> (perfmodel::Fit, perfmodel::Fit) {
    use perfmodel::{fit, ModelKind};
    let model = textapps::PosCostModel::default();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for mb in [1u64, 2, 5, 10, 20, 50] {
        let subset = manifest.prefix_by_volume(mb * 1_000_000);
        let m = measure(cloud, inst, &model, &subset.files, DataLocation::Local, 5);
        for &run in &m.runs {
            xs.push(m.volume as f64);
            ys.push(run);
        }
    }
    let eq3 = fit(ModelKind::Affine, &xs, &ys);

    let samples = corpus::sample_by_volume(manifest, 5_000_000, 3, manifest.seed ^ 0xE44);
    let mut xs2 = Vec::new();
    let mut ys2 = Vec::new();
    for sample in &samples {
        for part in [&sample.files[..], &sample.files[..sample.files.len() / 2]] {
            if part.is_empty() {
                continue;
            }
            let m = measure(cloud, inst, &model, part, DataLocation::Local, 3);
            for &run in &m.runs {
                xs2.push(m.volume as f64);
                ys2.push(run);
            }
        }
    }
    let eq4 = fit(ModelKind::Affine, &xs2, &ys2);
    (eq3, eq4)
}

/// Execute a POS provisioning plan on a fresh fleet (screened-quality
/// instances — the §4 screening applied fleet-wide — with measurement
/// noise on) and local staging at a constant 30 s per run, as §5 assumes.
pub fn execute_pos_plan(seed: u64, plan: &provision::Plan) -> provision::ExecutionReport {
    let mut cloud = Cloud::new(CloudConfig {
        seed,
        homogeneous: true,
        ..CloudConfig::default()
    });
    provision::execute_plan(
        &mut cloud,
        plan,
        &textapps::PosCostModel::default(),
        &provision::ExecutionConfig {
            staging: provision::StagingTier::Local,
            stage_in_secs: 30.0,
            ..provision::ExecutionConfig::default()
        },
    )
    .expect("plan execution failed")
}

/// Emit one scheduling panel (Fig 8/9 style): the per-instance execution
/// times against the deadline, plus a one-line summary.
pub fn emit_pos_panel(
    name: &str,
    label: &str,
    plan: &provision::Plan,
    seed: u64,
) -> (usize, u64, usize) {
    let report = execute_pos_plan(seed, plan);
    let mut t = Table::new(
        &format!(
            "{label} (deadline {:.0}s, planned for {:.0}s)",
            plan.deadline_secs, plan.planning_deadline_secs
        ),
        &["instance", "volume", "predicted(s)", "observed(s)", "met"],
    );
    for (i, run) in report.runs.iter().enumerate() {
        t.row(vec![
            format!("i{i:02}"),
            fmt_bytes(run.volume),
            fmt_secs(run.predicted_secs),
            fmt_secs(run.job_secs),
            if run.met_deadline { "yes" } else { "MISS" }.to_string(),
        ]);
    }
    t.emit(name);
    println!(
        "{label}: {} instances, {} instance-hours, {} misses, makespan {:.0}s",
        report.runs.len(),
        report.instance_hours,
        report.misses,
        report.makespan_secs
    );
    (report.runs.len(), report.instance_hours, report.misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("bbbb"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(500), "500B");
        assert_eq!(fmt_bytes(10_000), "10kB");
        assert_eq!(fmt_bytes(1_500_000), "1.5MB");
        assert_eq!(fmt_bytes(2_000_000_000), "2GB");
    }

    #[test]
    fn unit_labels() {
        assert_eq!(unit_label(UnitSize::Original), "original");
        assert_eq!(unit_label(UnitSize::Bytes(100_000_000)), "100MB");
    }
}
