//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! Each workload builds its inputs from `--seed` (the set-up, timed several
//! times), then repeats its unit of work through the public entry point
//! for `--seconds` seconds and checks every output outside the timed
//! region. `--trace 0` prints the end-to-end metrics; `--trace 1` also runs
//! the workload once more with every layer called and timed from this
//! crate, and prints the per-layer metrics instead. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. The line before it records the run's provenance.
//! Per-iteration times, and the traced run's spans, go to standard error.
//!
//! `--scale` below 1 shrinks every input (a smoke run, flagged as such in
//! the provenance); the default is the full paper-scale workload.

mod aggregation;
mod multitenant;
mod pipelines;
mod tracer;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
pub use tracer::Tracer;

/// Metrics the per-workload code fills in, by name.
pub type Layers = BTreeMap<String, f64>;

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cost_usd", "usd"),
    ("sim_makespan_s", "s"),
];

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// workload that never calls a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("screen.s", "s"),
    ("screen.attempts", "count"),
    ("screen.sim_s", "s"),
    ("probe.s", "s"),
    ("probe.build_s", "s"),
    ("probe.sets", "count"),
    ("probe.app_runs", "count"),
    ("probe.sim_s", "s"),
    ("reshape.s", "s"),
    ("reshape.pack_s", "s"),
    ("reshape.pack_1t_s", "s"),
    ("reshape.files_in", "count"),
    ("reshape.files_out", "count"),
    ("reshape.fill", "ratio"),
    ("fit.s", "s"),
    ("fit.observations", "count"),
    ("plan.s", "s"),
    ("plan.instances", "count"),
    ("execute.s", "s"),
    ("execute.shares", "count"),
    ("execute.instance_hours", "h"),
    ("sched.run_s", "s"),
    ("sched.admit_s", "s"),
    ("sched.jobs", "count"),
    ("sched.rejected", "count"),
    ("sched.deferrals", "count"),
    ("sched.warm_hit_ratio", "ratio"),
    ("sched.wait_p90_s", "s"),
    ("market.plan_s", "s"),
    ("obs.ndjson_s", "s"),
    ("obs.events", "count"),
    ("obs.log_bytes", "B"),
    ("aggregate.map_s", "s"),
    ("shuffle.plan_s", "s"),
    ("netxfer.plan_s", "s"),
    ("shuffle.exec_s", "s"),
    ("shuffle.movements", "count"),
    ("shuffle.transfers", "count"),
    ("shuffle.bytes_shuffled", "B"),
    ("shuffle.transient_retries", "count"),
    ("sim.miss_rate", "ratio"),
    ("trace.total_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
];

const WORKLOADS: &[&str] = &[
    "html18m_grep",
    "text400k_pos",
    "multitenant_trace",
    "shuffle_termcount",
];

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Set-up is repeated at least this many times, and until it has taken
/// [`SETUP_MIN_SECS`], so that its median is steady even when one set-up
/// takes well under a millisecond.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 3.0;
const SETUP_MAX_REPS: usize = 20_000;

/// Fewest timed iterations per run, whatever `--seconds` says: a median
/// needs three, and the same-seed output comparison needs two.
const MIN_ITERS: u64 = 3;

/// The simulated outcome of one iteration, produced by a workload's
/// output check. Identical for every iteration of one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Simulated dollars billed.
    pub sim_cost_usd: f64,
    /// Simulated seconds until the last result.
    pub sim_makespan_s: f64,
    /// Share of shares, jobs or aggregations finishing after the user
    /// deadline (refused jobs count as late).
    pub sim_miss_rate: f64,
}

/// One benchmark workload: inputs built by its constructor (the set-up),
/// a unit of work, and the checks on its output.
pub trait Workload {
    /// What one unit of work returns, checked outside the timed region.
    type Output;
    /// One unit of work through the workload's public entry point.
    fn run(&self) -> Result<Self::Output, String>;
    /// Check one output (and that it equals the previous iteration's).
    fn check(&mut self, out: Self::Output) -> Result<Outcome, String>;
    /// Call each layer in the entry point's order, timing every call, and
    /// check the result equals the last checked untraced output.
    fn traced(&mut self, tracer: &mut Tracer) -> Result<Layers, String>;
    /// Files and bytes of the generated corpus (or trace).
    fn corpus(&self) -> (u64, u64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <f>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(bad("must be in (0, 1]"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (seed, scale) = (args.seed, args.scale);
    match args.workload.as_str() {
        "html18m_grep" => bench(&args, || pipelines::html18m_grep(seed, scale)),
        "text400k_pos" => bench(&args, || pipelines::text400k_pos(seed, scale)),
        "multitenant_trace" => bench(&args, || multitenant::multitenant_trace(seed, scale)),
        "shuffle_termcount" => bench(&args, || aggregation::shuffle_termcount(seed, scale)),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// Run one workload and print its provenance line and result line.
fn bench<W: Workload>(args: &Args, setup: impl Fn() -> W) {
    // Set-up: generate the inputs several times and keep the last. The
    // previous inputs are dropped first so peak memory holds one copy.
    let mut setups = Vec::new();
    let mut workload: Option<W> = None;
    let started = Instant::now();
    while setups.len() < SETUP_MAX_REPS
        && (setups.len() < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_SECS)
    {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(black_box(setup()));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set-up ran at least once");

    // Timed iterations: only `run` is inside the timed region.
    let mut walls = Vec::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    while attempted < MIN_ITERS || started.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        let t0 = Instant::now();
        let out = black_box(workload.run());
        let wall = t0.elapsed().as_secs_f64();
        eprintln!("perfbench: iteration {attempted}: {wall:.6} s");
        match out.and_then(|o| workload.check(o)) {
            Ok(outcome) => {
                if outcomes.first().is_some_and(|first| *first != outcome) {
                    failed += 1;
                    eprintln!("perfbench: iteration {attempted}: simulated outcome changed within one seed: {outcome:?} vs {:?}", outcomes[0]);
                } else {
                    walls.push(wall);
                    outcomes.push(outcome);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: iteration {attempted} failed: {e}");
            }
        }
    }
    let wall_s = median(&walls);

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        attempted += 1;
        let mut tracer = Tracer::default();
        match workload.traced(&mut tracer) {
            Ok(mut layers) => {
                tracer.add_layers(&mut layers);
                let total = layers.get("trace.total_s").copied().unwrap_or(f64::NAN);
                layers.insert("trace.overhead_s".into(), total - wall_s);
                if let Some(o) = outcomes.first() {
                    layers.insert("sim.miss_rate".into(), o.sim_miss_rate);
                }
                tracer.write_spans();
                for &(name, unit) in PER_LAYER {
                    metrics.push((name, unit, layers.get(name).copied().unwrap_or(0.0)));
                }
                if let Some(extra) = layers
                    .keys()
                    .find(|k| !PER_LAYER.iter().any(|(n, _)| *n == k.as_str()))
                {
                    failed += 1;
                    eprintln!("perfbench: traced run produced undeclared metric {extra}");
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: traced run failed: {e}");
            }
        }
    } else if let Some(o) = outcomes.first() {
        let values = [
            median(&setups),
            wall_s,
            peak_rss_mb(),
            o.sim_cost_usd,
            o.sim_makespan_s,
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
    }
    if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        failed += 1;
        eprintln!("perfbench: metric {name} is not a finite number ({v})");
        metrics.clear();
    }
    let correct = failed == 0 && !metrics.is_empty();

    let (files, bytes) = workload.corpus();
    println!(
        concat!(
            "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"git_rev\": \"{}\", ",
            "\"nproc\": {}, \"workers\": {}, \"profile\": \"{}\", \"corpus_files\": {}, ",
            "\"corpus_bytes\": {}, \"setup_reps\": {}, \"iterations\": {}, \"traced\": {}, ",
            "\"scale\": {}, \"smoke\": {}}}}}"
        ),
        args.workload,
        args.seed,
        git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        binpack::Parallelism::default().effective_workers(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        files,
        bytes,
        setups.len(),
        walls.len(),
        args.trace,
        args.scale,
        args.scale < 1.0,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Median of `xs` (NaN when empty, which the finiteness check rejects).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident memory of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git checkout.
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

/// FNV-1a over `bytes`: a cheap fingerprint for comparing large outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
