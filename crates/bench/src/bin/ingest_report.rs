//! Streaming-ingest report — replays a seeded arrival trace through the
//! online packer under each documented sealing policy and writes
//! `results/BENCH_ingest.json`: admission throughput, segment counts,
//! bin counts and fill, compaction effect, and how far each policy's
//! output drifts from the batch pack (flush-only must not drift at all).
//!
//! Before writing anything the report re-runs the first policy with a
//! recording sink and asserts both the NDJSON log and the reshaped file
//! list are byte-identical across runs — the ingest path is deterministic
//! or the numbers are meaningless.
//!
//! `--smoke` / `SMOKE=1` shrinks the corpus for CI-speed runs.

use bench::{fmt_bytes, smoke, write_json, Table};
use binpack::{MergePolicy, SealPolicy};
use corpus::{ArrivalConfig, ArrivalOrder};
use obs::Obs;
use perfmodel::UnitSize;
use reshape::{reshape_manifest, reshape_streaming, IngestConfig};
use serde::Serialize;
use std::time::Instant;

const ARRIVAL_SEED: u64 = 41;
const UNIT: u64 = 256 * 1024;

#[derive(Debug, Serialize)]
struct PolicyRow {
    policy: String,
    files_in: usize,
    files_out: usize,
    merge_ratio: f64,
    segments: u64,
    seals_full: u64,
    seals_aged: u64,
    seals_flush: u64,
    bins: usize,
    mean_fill: f64,
    compacted_bins: u64,
    matches_batch: bool,
    elapsed_secs: f64,
    mb_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    corpus_files: usize,
    corpus_bytes: u64,
    unit_bytes: u64,
    arrival_seed: u64,
    replay_byte_identical: bool,
    policies: Vec<PolicyRow>,
}

fn policies() -> Vec<(&'static str, IngestConfig)> {
    // As-provided arrival order keeps the flush-only row inside the
    // streaming≡batch theorem; the shuffled row shows the order
    // sensitivity the theorem does not cover.
    let base = IngestConfig {
        arrival: ArrivalConfig {
            mean_interarrival_secs: 0.2,
            order: ArrivalOrder::AsProvided,
        },
        arrival_seed: ARRIVAL_SEED,
        seal: SealPolicy::flush_only(),
        merge: MergePolicy::RepackTails,
        compact_min_fill: None,
    };
    vec![
        ("flush-only", base),
        (
            "flush-only(shuffled)",
            IngestConfig {
                arrival: ArrivalConfig {
                    mean_interarrival_secs: 0.2,
                    order: ArrivalOrder::Shuffled,
                },
                ..base
            },
        ),
        (
            "bin-full(4MB)",
            IngestConfig {
                seal: SealPolicy::bin_full(4 * 1024 * 1024),
                ..base
            },
        ),
        (
            "aged(30s)",
            IngestConfig {
                seal: SealPolicy::aged(30.0),
                ..base
            },
        ),
        (
            "full+aged",
            IngestConfig {
                seal: SealPolicy {
                    max_pending_bytes: Some(4 * 1024 * 1024),
                    max_age_secs: Some(30.0),
                },
                ..base
            },
        ),
        (
            "full+compact(0.7)",
            IngestConfig {
                seal: SealPolicy::bin_full(4 * 1024 * 1024),
                compact_min_fill: Some(0.7),
                ..base
            },
        ),
    ]
}

fn main() {
    let fraction = if smoke() { 0.0003 } else { 0.003 };
    let manifest = corpus::html_18mil(fraction, 7);
    let unit = UnitSize::Bytes(UNIT);
    let batch = reshape_manifest(&manifest, unit);

    // Determinism gate: same trace + policy ⇒ byte-identical log and files.
    let gate_cfg = policies()[1].1;
    let run_gate = || {
        let sink = Obs::recording(ARRIVAL_SEED);
        let out = reshape_streaming(&manifest, unit, &gate_cfg, &sink);
        (sink.to_ndjson(), out)
    };
    let (log_a, out_a) = run_gate();
    let (log_b, out_b) = run_gate();
    let identical = log_a == log_b && out_a == out_b;
    assert!(
        identical,
        "same-trace ingest runs must emit byte-identical logs and files"
    );

    let mut rows = Vec::new();
    for (name, cfg) in policies() {
        let sink = Obs::recording(ARRIVAL_SEED);
        let started = Instant::now();
        let out = reshape_streaming(&manifest, unit, &cfg, &sink);
        let elapsed = started.elapsed().as_secs_f64();
        let snap = sink.snapshot().expect("recording sink");
        let counter = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
        let log = sink.to_ndjson();
        let seals_by = |cause: &str| log.matches(&format!("\"cause\":\"{cause}\"")).count() as u64;
        let total: u64 = out.files.iter().map(|f| f.size).sum();
        assert_eq!(total, manifest.total_volume(), "{name}: bytes lost");
        let mean_fill = if out.stats.bins > 0 {
            out.stats.mean_fill
        } else {
            0.0
        };
        rows.push(PolicyRow {
            policy: name.to_string(),
            files_in: manifest.len(),
            files_out: out.files.len(),
            merge_ratio: out.merge_ratio(),
            segments: counter("ingest.sealed_segments"),
            seals_full: seals_by("full"),
            seals_aged: seals_by("aged"),
            seals_flush: seals_by("flush"),
            bins: out.stats.bins,
            mean_fill,
            compacted_bins: counter("ingest.compacted_bins"),
            matches_batch: out == batch,
            elapsed_secs: elapsed,
            mb_per_sec: manifest.total_volume() as f64 / 1e6 / elapsed.max(1e-9),
        });
    }

    // Flush-only is the theorem case: it must reproduce the batch reshape.
    assert!(
        rows[0].matches_batch,
        "flush-only streaming drifted from the batch reshape"
    );

    let mut table = Table::new(
        &format!(
            "streaming ingest, {} files / {}, unit {}",
            manifest.len(),
            fmt_bytes(manifest.total_volume()),
            fmt_bytes(UNIT),
        ),
        &[
            "policy",
            "files out",
            "ratio",
            "segments",
            "bins",
            "fill",
            "compacted",
            "batch?",
            "MB/s",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.policy.clone(),
            r.files_out.to_string(),
            format!("{:.1}", r.merge_ratio),
            r.segments.to_string(),
            r.bins.to_string(),
            format!("{:.2}", r.mean_fill),
            r.compacted_bins.to_string(),
            if r.matches_batch { "=" } else { "≠" }.to_string(),
            format!("{:.1}", r.mb_per_sec),
        ]);
    }
    table.print();

    let report = Report {
        corpus_files: manifest.len(),
        corpus_bytes: manifest.total_volume(),
        unit_bytes: UNIT,
        arrival_seed: ARRIVAL_SEED,
        replay_byte_identical: identical,
        policies: rows,
    };
    write_json("BENCH_ingest", &report);
}
