//! Streaming-ingest reshape: the alternate reshape sink that replays a
//! seeded arrival trace through the online packer instead of batch-packing
//! the manifest.
//!
//! The batch path ([`crate::reshape_manifest_par`]) assumes the whole
//! corpus is on disk before reshaping starts; this path models the
//! reshape-as-a-service scenario where files arrive continuously. The
//! arrival process is synthesized deterministically from the manifest and
//! a seed ([`corpus::IngestTrace`]), each arrival is admitted into a
//! [`binpack::StreamPacker`], segments seal under the configured
//! [`SealPolicy`], and an optional compaction pass rewrites under-full
//! sealed bins. The outcome plugs into the rest of the pipeline exactly
//! like the batch reshape: same [`ReshapeOutcome`], same invariants (bytes
//! conserved, never more output files than input files), same
//! byte-identical-log guarantees.

use binpack::{
    compact_underfull, Item, MergePolicy, PackingStats, Parallelism, SealPolicy, StreamConfig,
    StreamOutcome, StreamPacker,
};
use corpus::{ArrivalConfig, FileSpec, IngestTrace, Manifest};
use obs::Obs;
use perfmodel::{unit_files, UnitSize};
use serde::{Deserialize, Serialize};

use crate::reshape_step::ReshapeOutcome;

/// Configuration of the streaming-ingest reshape sink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Synthetic arrival process over the manifest.
    pub arrival: ArrivalConfig,
    /// Seed of the arrival trace. Independent of the corpus seed so the
    /// same corpus can be replayed under different arrival schedules.
    pub arrival_seed: u64,
    /// When the open segment seals.
    pub seal: SealPolicy,
    /// How sealed segments merge at flush.
    pub merge: MergePolicy,
    /// When set, sealed non-oversize bins with `fill < min_fill` are
    /// dissolved and repacked in one compaction pass after the flush.
    pub compact_min_fill: Option<f64>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            arrival: ArrivalConfig::default(),
            arrival_seed: 0,
            seal: SealPolicy::flush_only(),
            merge: MergePolicy::RepackTails,
            compact_min_fill: None,
        }
    }
}

/// Run the streaming reshape: generate the arrival trace, admit every
/// arrival into the online packer, seal/merge/compact, and emit
/// per-segment [`Obs`] seal events plus ingest counters. The packer keeps
/// the admitted items in arrival order and its packing indexes them, so
/// the unit files are built from the trace's files in that order. Returns
/// the same [`ReshapeOutcome`] shape as the batch path.
///
/// Everything here is a pure function of `(manifest, unit, config)` — the
/// trace is seeded, the packer reads no wall clock, and observability
/// events carry only simulated times — so same-seed runs produce
/// byte-identical unit files and byte-identical logs at any
/// [`binpack::Parallelism`] setting (the ingest loop itself is sequential
/// by nature: arrivals are a serial stream).
pub fn reshape_streaming(
    manifest: &Manifest,
    unit: UnitSize,
    config: &IngestConfig,
    obs: &Obs,
) -> ReshapeOutcome {
    let target = match unit {
        // Original segmentation means "don't merge": the ingest path has
        // nothing to do and defers to the batch identity reshape.
        UnitSize::Original => return crate::reshape_step::reshape_manifest(manifest, unit),
        UnitSize::Bytes(target) => target.max(1),
    };
    let trace = IngestTrace::generate(manifest, &config.arrival, config.arrival_seed);
    let mut packer = StreamPacker::new(StreamConfig {
        seal: config.seal,
        merge: config.merge,
        ..StreamConfig::new(target)
    });
    for event in &trace.events {
        packer.admit(Item::new(event.file.id, event.file.size), event.at_secs);
    }
    let StreamOutcome {
        items,
        packing,
        segments,
        stats,
    } = packer.finish(trace.duration_secs());
    for (i, seg) in segments.iter().enumerate() {
        obs.seal(
            i as u64,
            seg.cause.label(),
            seg.sealed_at,
            seg.items,
            seg.bytes,
            seg.bins,
        );
    }
    obs.count("ingest.admitted_files", stats.admitted_items);
    obs.count("ingest.admitted_bytes", stats.admitted_bytes);
    obs.count("ingest.sealed_segments", stats.sealed_segments);
    obs.count("ingest.sealed_bins", stats.sealed_bins);
    obs.count("ingest.sealed_bytes", stats.sealed_bytes);
    let packing = match config.compact_min_fill {
        None => packing,
        Some(min_fill) => {
            let algorithm = StreamConfig::new(target).algorithm;
            let (compacted, cstats) = compact_underfull(algorithm, &items, packing, min_fill);
            obs.count("ingest.compacted_bins", cstats.rewritten_bins);
            obs.count("ingest.compacted_bytes", cstats.rewritten_bytes);
            compacted
        }
    };
    // The packed items are the trace's files in arrival order.
    let arrived: Vec<FileSpec> = trace.events.iter().map(|e| e.file).collect();
    ReshapeOutcome {
        unit,
        files: unit_files(&packing, &arrived, Parallelism::Sequential),
        stats: PackingStats::of(&packing),
        original_files: manifest.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::ArrivalOrder;

    fn manifest(n: u64) -> Manifest {
        let files = (0..n)
            .map(|i| corpus::FileSpec::new(i, (i * 131) % 900 + 1))
            .collect();
        Manifest::new("t", files, 0)
    }

    #[test]
    fn flush_only_as_provided_equals_batch_reshape() {
        let m = manifest(500);
        let unit = UnitSize::Bytes(4_000);
        let batch = crate::reshape_step::reshape_manifest(&m, unit);
        let streamed = reshape_streaming(&m, unit, &IngestConfig::default(), &Obs::noop());
        assert_eq!(streamed, batch);
    }

    #[test]
    fn streaming_conserves_bytes_under_every_policy() {
        let m = manifest(400);
        let unit = UnitSize::Bytes(2_500);
        for seal in [
            SealPolicy::flush_only(),
            SealPolicy::bin_full(10_000),
            SealPolicy::aged(3.0),
        ] {
            for compact in [None, Some(0.5)] {
                let cfg = IngestConfig {
                    arrival: ArrivalConfig {
                        mean_interarrival_secs: 1.0,
                        order: ArrivalOrder::Shuffled,
                    },
                    arrival_seed: 9,
                    seal,
                    merge: MergePolicy::RepackTails,
                    compact_min_fill: compact,
                };
                let out = reshape_streaming(&m, unit, &cfg, &Obs::noop());
                let total: u64 = out.files.iter().map(|f| f.size).sum();
                assert_eq!(total, m.total_volume(), "{seal:?} compact={compact:?}");
                assert!(out.files.len() <= m.len());
            }
        }
    }

    #[test]
    fn original_unit_is_identity() {
        let m = manifest(50);
        let out = reshape_streaming(
            &m,
            UnitSize::Original,
            &IngestConfig::default(),
            &Obs::noop(),
        );
        assert_eq!(out.files, m.files);
    }

    #[test]
    fn streaming_replay_is_deterministic() {
        let m = manifest(300);
        let cfg = IngestConfig {
            arrival: ArrivalConfig {
                mean_interarrival_secs: 0.5,
                order: ArrivalOrder::Shuffled,
            },
            arrival_seed: 4,
            seal: SealPolicy::bin_full(8_000),
            merge: MergePolicy::Concat,
            compact_min_fill: Some(0.7),
        };
        let a = reshape_streaming(&m, UnitSize::Bytes(3_000), &cfg, &Obs::noop());
        let b = reshape_streaming(&m, UnitSize::Bytes(3_000), &cfg, &Obs::noop());
        assert_eq!(a, b);
    }

    #[test]
    fn seal_events_and_counters_are_recorded() {
        let m = manifest(200);
        let obs = Obs::recording(1);
        let cfg = IngestConfig {
            seal: SealPolicy::bin_full(5_000),
            ..IngestConfig::default()
        };
        let out = reshape_streaming(&m, UnitSize::Bytes(2_000), &cfg, &obs);
        assert!(!out.files.is_empty());
        let log = obs.to_ndjson();
        assert!(log.contains("\"Seal\""));
        assert!(log.contains("\"cause\":\"full\""));
        assert!(log.contains("\"cause\":\"flush\""));
        assert!(log.contains("ingest.admitted_files"));
        let snap = obs.snapshot().expect("recording");
        assert_eq!(snap.counters["ingest.admitted_files"], 200);
        assert_eq!(snap.counters["ingest.admitted_bytes"], m.total_volume());
    }

    #[test]
    fn compaction_reduces_or_keeps_bin_count() {
        let m = manifest(300);
        let base = IngestConfig {
            seal: SealPolicy::bin_full(3_000),
            merge: MergePolicy::Concat,
            ..IngestConfig::default()
        };
        let loose = reshape_streaming(&m, UnitSize::Bytes(2_000), &base, &Obs::noop());
        let compacted = reshape_streaming(
            &m,
            UnitSize::Bytes(2_000),
            &IngestConfig {
                compact_min_fill: Some(0.8),
                ..base
            },
            &Obs::noop(),
        );
        assert!(compacted.files.len() <= loose.files.len());
        let a: u64 = loose.files.iter().map(|f| f.size).sum();
        let b: u64 = compacted.files.iter().map(|f| f.size).sum();
        assert_eq!(a, b);
    }
}
