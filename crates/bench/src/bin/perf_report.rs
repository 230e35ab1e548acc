//! Packing-kernel performance report: the index-structure kernels against
//! their quadratic `naive_*` references.
//!
//! Sweeps the fast and naive implementations of subset-sum first fit, first
//! fit and best fit over corpus-shaped inputs from 10⁴ up to the paper's
//! full 18M-file HTML corpus and writes `results/BENCH_packing.json`. On top
//! of the sequential sweep it:
//!
//! * times the **sharded parallel pack** (`pack_sharded`, fixed 64 shards)
//!   at 10⁶ and 1.8·10⁷ items across several worker counts, asserting the
//!   packing is byte-identical at every thread count, and records per-shard
//!   timing as `obs` spans (written to `results/OBS_pack_shards.ndjson`);
//! * acts as the **CI perf regression gate** (`--gate`): exits non-zero if
//!   any fast kernel is more than 1.5× slower than its naive reference at
//!   [`GATE_MIN_ITEMS`] items or more.
//!
//! Small sizes are timed as the best of several interleaved rounds (the
//! naive and fast variants alternate within a round, so cache state and CPU
//! frequency drift hit both equally); the 18M point runs once — the
//! quadratic references are skipped above `NAIVE_MAX_ITEMS` (default 10⁶).
//! Every JSON entry records the parallelism actually used: `threads` is 1
//! for the sequential kernel entries and the real worker count for the
//! sharded entries.

use bench::{smoke, write_json, Provenance, Table, RESULTS_DIR};
use binpack::{
    best_fit, first_fit, merge_shard_packings, naive_best_fit, naive_first_fit,
    naive_subset_sum_first_fit, pack_sharded, subset_sum_first_fit, Algorithm, Item, MergePolicy,
    Packing, Parallelism, ShardedConfig,
};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Unit-file capacity, matching `binpack_scaling`: 10 MB over ~37 kB mean
/// HTML files, a few hundred items per bin.
const CAPACITY: u64 = 10_000_000;

/// The paper's headline corpus size (HTML_18mil).
const PAPER_SCALE_ITEMS: usize = 18_000_000;

/// Shard count for the parallel-pack entries. Fixed so the packing under
/// test is identical across thread counts by construction.
const BENCH_SHARDS: usize = 64;

/// Gate tolerance: fail when a kernel that should win is more than this
/// factor slower than the naive reference.
const GATE_MAX_RATIO: f64 = 1.5;

/// Smallest input the gate judges: the largest measured naive→fast
/// crossover on the HTML_18mil size distribution (best fit; subset-sum and
/// first fit cross at 16,384). Below it the cache-resident naive scans may
/// win, by under half a millisecond per call at 10⁴ items.
const GATE_MIN_ITEMS: usize = 32_768;

type PackFn = fn(&[Item], u64) -> Packing;

/// A named timing variant: a label plus a closure producing one packing.
type Variant<'a> = (&'a str, Box<dyn FnMut() -> Packing + 'a>);

const KERNELS: [(&str, PackFn, PackFn); 3] = [
    (
        "subset_sum_first_fit",
        subset_sum_first_fit,
        naive_subset_sum_first_fit,
    ),
    ("first_fit", first_fit, naive_first_fit),
    ("best_fit", best_fit, naive_best_fit),
];

#[derive(Debug, Serialize)]
struct Entry {
    kernel: String,
    items: usize,
    capacity: u64,
    /// Parallelism actually used for this entry (sequential kernels: 1).
    threads: usize,
    fast_secs: f64,
    fast_items_per_sec: f64,
    naive_secs: Option<f64>,
    speedup_vs_naive: Option<f64>,
}

#[derive(Debug, Serialize)]
struct ParallelEntry {
    algorithm: String,
    items: usize,
    capacity: u64,
    shards: usize,
    merge: String,
    /// Worker count this row ran with.
    threads: usize,
    secs: f64,
    items_per_sec: f64,
    /// Single-shot sequential pack of the same input, for the speedup.
    sequential_secs: f64,
    speedup_vs_sequential: f64,
    /// Whether this thread count produced the same bytes as every other.
    identical_across_threads: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    /// The largest input swept is the report's corpus.
    provenance: Provenance,
    capacity: u64,
    corpus: &'static str,
    entries: Vec<Entry>,
    parallel: Vec<ParallelEntry>,
}

fn corpus(n: usize) -> corpus::Manifest {
    corpus::html_18mil(n as f64 / PAPER_SCALE_ITEMS as f64, 77)
}

fn corpus_items(n: usize) -> Vec<Item> {
    corpus(n)
        .files
        .iter()
        .map(|f| Item::new(f.id, f.size))
        .collect()
}

fn time_once(f: impl FnOnce() -> Packing) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Interleaved best-of-`rounds`: each round times every variant `inner`
/// consecutive times (one sample = the mean of the burst, which flattens
/// sub-millisecond timer jitter) and the minimum sample per variant
/// survives. The variant order rotates every round so cache state and CPU
/// frequency drift hit all variants equally.
fn time_interleaved(variants: &mut [Variant<'_>], rounds: usize, inner: usize) -> Vec<f64> {
    let k = variants.len();
    let mut mins = vec![f64::INFINITY; k];
    for round in 0..rounds.max(1) {
        for offset in 0..k {
            let i = (round + offset) % k;
            let f = &mut variants[i].1;
            let start = Instant::now();
            for _ in 0..inner.max(1) {
                black_box(f());
            }
            let sample = start.elapsed().as_secs_f64() / inner.max(1) as f64;
            mins[i] = mins[i].min(sample);
        }
    }
    mins
}

/// `(rounds, inner)` per input size: many short bursts for cache-sized
/// inputs, a single run at paper scale.
fn rounds_for(n: usize) -> (usize, usize) {
    if n <= 10_000 {
        (25, 20)
    } else if n <= 100_000 {
        (9, 1)
    } else if n <= 1_000_000 {
        (3, 1)
    } else {
        (1, 1)
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Sequential kernel sweep: naive vs fast per size.
fn kernel_sweep(sizes: &[usize], naive_max: usize) -> Vec<Entry> {
    let mut entries = Vec::new();
    let mut table = Table::new(
        &format!("packing kernels, corpus-shaped items, capacity {CAPACITY} B"),
        &["kernel", "items", "naive(s)", "fast(s)", "speedup"],
    );
    for &n in sizes {
        let items = corpus_items(n);
        for (name, fast, naive) in KERNELS {
            let (rounds, inner) = rounds_for(n);
            let run_naive = n <= naive_max;
            let items_ref = &items;
            let mut variants: Vec<Variant<'_>> =
                vec![("fast", Box::new(move || fast(items_ref, CAPACITY)))];
            if run_naive {
                variants.push(("naive", Box::new(move || naive(items_ref, CAPACITY))));
            }
            let mins = time_interleaved(&mut variants, rounds, inner);
            let fast_secs = mins[0];
            let naive_secs = run_naive.then(|| mins[1]);
            let speedup = naive_secs.map(|ns| round2(ns / fast_secs));
            table.row(vec![
                name.to_string(),
                n.to_string(),
                naive_secs.map_or("-".into(), |s| format!("{s:.3}")),
                format!("{fast_secs:.4}"),
                speedup.map_or("-".into(), |s| format!("{s:.2}x")),
            ]);
            entries.push(Entry {
                kernel: name.to_string(),
                items: n,
                capacity: CAPACITY,
                threads: 1,
                fast_secs,
                fast_items_per_sec: n as f64 / fast_secs,
                naive_secs,
                speedup_vs_naive: speedup,
            });
        }
    }
    table.print();
    entries
}

/// Sharded parallel pack: time across worker counts, assert byte-identical
/// output, and (for the largest size) emit per-shard timing spans to obs.
fn parallel_sweep(
    sizes: &[usize],
    thread_counts: &[usize],
    emit_obs_for: Option<usize>,
) -> Vec<ParallelEntry> {
    let alg = Algorithm::SubsetSumFirstFit;
    let config = ShardedConfig {
        shards: BENCH_SHARDS,
        merge: MergePolicy::RepackTails,
    };
    let mut out = Vec::new();
    let mut table = Table::new(
        &format!("sharded parallel pack, subset_sum_first_fit, {BENCH_SHARDS} shards"),
        &["items", "threads", "secs", "items/s", "vs seq", "identical"],
    );
    for &n in sizes {
        let items = corpus_items(n);
        let sequential_secs = time_once(|| alg.pack(&items, CAPACITY));
        let mut reference: Option<Packing> = None;
        let mut rows: Vec<(usize, f64, Packing)> = Vec::new();
        for &threads in thread_counts {
            let par = Parallelism::Rayon(threads);
            let start = Instant::now();
            let packing = pack_sharded(alg, &items, CAPACITY, config, par);
            let secs = start.elapsed().as_secs_f64();
            rows.push((threads, secs, packing));
        }
        for (threads, secs, packing) in rows {
            let identical = match &reference {
                None => {
                    reference = Some(packing);
                    true
                }
                Some(r) => *r == packing,
            };
            assert!(
                identical,
                "sharded pack diverged at {threads} threads on {n} items"
            );
            table.row(vec![
                n.to_string(),
                threads.to_string(),
                format!("{secs:.3}"),
                format!("{:.0}", n as f64 / secs),
                format!("{:.2}x", sequential_secs / secs),
                identical.to_string(),
            ]);
            out.push(ParallelEntry {
                algorithm: "subset_sum_first_fit".into(),
                items: n,
                capacity: CAPACITY,
                shards: BENCH_SHARDS,
                merge: "repack_tails".into(),
                threads: threads.max(1),
                secs,
                items_per_sec: n as f64 / secs,
                sequential_secs,
                speedup_vs_sequential: round2(sequential_secs / secs),
                identical_across_threads: identical,
            });
        }
        if emit_obs_for == Some(n) {
            let reference = reference.expect("at least one thread count ran");
            emit_shard_spans(alg, &items, config, &reference);
        }
    }
    table.print();
    out
}

/// Re-run the shard fan-out with per-shard instrumentation, record each
/// shard as an obs span + shard event, verify the deterministic merge
/// reproduces `expected`, and write the event log NDJSON.
fn emit_shard_spans(alg: Algorithm, items: &[Item], config: ShardedConfig, expected: &Packing) {
    use rayon::prelude::*;
    let obs = obs::Obs::recording(77);
    let ranges = binpack::shard_ranges(items.len(), config.shards);
    let t0 = Instant::now();
    let timed: Vec<(f64, f64, usize, u64, Packing)> = Parallelism::default().install(|| {
        ranges
            .par_iter()
            .map(|&(lo, hi)| {
                let start = t0.elapsed().as_secs_f64();
                let p = alg.pack(&items[lo..hi], CAPACITY);
                let end = t0.elapsed().as_secs_f64();
                let bytes: u64 = items[lo..hi].iter().map(|i| i.size).sum();
                (start, end, hi - lo, bytes, p)
            })
            .collect()
    });
    let mut partials = Vec::with_capacity(timed.len());
    for (i, (start, end, n_items, bytes, p)) in timed.into_iter().enumerate() {
        let span = obs.span_start("pack.shard", start);
        obs.span_end(span, end);
        obs.shard("pack", i as u64, n_items as u64, bytes);
        partials.push(p);
    }
    let merge_start = Instant::now();
    let merged = merge_shard_packings(alg, CAPACITY, partials, config.merge);
    let merge_secs = merge_start.elapsed().as_secs_f64();
    obs.gauge("pack.merge_secs", merge_secs);
    assert_eq!(
        &merged, expected,
        "instrumented fan-out + merge deviated from pack_sharded"
    );
    obs.count("pack.items", items.len() as u64);
    obs.count("pack.bins", merged.len() as u64);
    let dir = std::path::PathBuf::from(RESULTS_DIR);
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("OBS_pack_shards.ndjson");
    std::fs::write(&path, obs.to_ndjson()).expect("write obs ndjson");
    println!(
        "[obs] {} ({} shards, merge {:.3}s)",
        path.display(),
        ranges.len(),
        merge_secs
    );
}

/// The CI regression gate: from [`GATE_MIN_ITEMS`] up, every fast kernel
/// must stay within `GATE_MAX_RATIO` of its naive reference.
fn run_gate(entries: &[Entry]) -> Result<(), Vec<String>> {
    let violations: Vec<String> = entries
        .iter()
        .filter(|e| e.items >= GATE_MIN_ITEMS)
        .filter_map(|e| {
            let naive = e.naive_secs?;
            (e.fast_secs > GATE_MAX_RATIO * naive).then(|| {
                format!(
                    "{} at {} items: fast {:.4}s is {:.2}x naive {:.4}s (limit {GATE_MAX_RATIO}x)",
                    e.kernel,
                    e.items,
                    e.fast_secs,
                    e.fast_secs / naive,
                    naive
                )
            })
        })
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let gate = args.iter().any(|a| a == "--gate");

    let sizes: &[usize] = if smoke() {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000, PAPER_SCALE_ITEMS]
    };
    let parallel_sizes: &[usize] = if smoke() {
        &[200_000]
    } else {
        &[1_000_000, PAPER_SCALE_ITEMS]
    };
    let thread_counts: &[usize] = if smoke() { &[1, 2] } else { &[1, 2, 4, 8] };
    // Beyond this the quadratic references take minutes; override with
    // NAIVE_MAX_ITEMS to push further (or cut down) as the machine allows.
    let naive_max: usize = std::env::var("NAIVE_MAX_ITEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);

    println!(
        "host parallelism: {} worker(s)",
        Parallelism::default().effective_workers()
    );

    let entries = kernel_sweep(sizes, naive_max);
    let emit_obs_for = (!smoke()).then_some(PAPER_SCALE_ITEMS);
    let parallel = parallel_sweep(parallel_sizes, thread_counts, emit_obs_for);

    let largest_n = sizes.iter().chain(parallel_sizes).max();
    let largest = corpus(*largest_n.expect("the sweep sizes are not empty"));
    let report = Report {
        provenance: Provenance::of_run(largest.len(), largest.total_volume()),
        capacity: CAPACITY,
        corpus: "html_18mil",
        entries,
        parallel,
    };
    // Smoke runs (the verify/CI gate) write `BENCH_packing_smoke.json`.
    write_json("BENCH_packing", &report);

    if gate {
        match run_gate(&report.entries) {
            Ok(()) => println!("[gate] all kernels within {GATE_MAX_RATIO}x of naive"),
            Err(violations) => {
                for v in &violations {
                    eprintln!("[gate] FAIL: {v}");
                }
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kernel: &str, items: usize, fast_secs: f64, naive_secs: Option<f64>) -> Entry {
        Entry {
            kernel: kernel.to_string(),
            items,
            capacity: CAPACITY,
            threads: 1,
            fast_secs,
            fast_items_per_sec: items as f64 / fast_secs,
            naive_secs,
            speedup_vs_naive: naive_secs.map(|ns| round2(ns / fast_secs)),
        }
    }

    #[test]
    fn gate_judges_every_kernel_where_the_sweeps_time_naive() {
        for (name, ..) in KERNELS {
            // Below the floor the naive scan may win.
            assert!(run_gate(&[entry(name, 10_000, 2.0, Some(1.0))]).is_ok());
            // The smoke (10^5) and full (10^5, 10^6) sizes are judged.
            for items in [100_000, 1_000_000] {
                assert!(run_gate(&[entry(name, items, 1.6, Some(1.0))]).is_err());
                assert!(run_gate(&[entry(name, items, 1.4, Some(1.0))]).is_ok());
            }
            // No naive reference above NAIVE_MAX_ITEMS, nothing to judge.
            assert!(run_gate(&[entry(name, PAPER_SCALE_ITEMS, 9.0, None)]).is_ok());
        }
    }
}
