//! Streaming (online) packing: admit a trace of file arrivals into open
//! bins, seal under explicit policies, and merge the sealed segments into
//! one final packing.
//!
//! The batch planner ([`Algorithm::pack`]) sees the whole corpus at once;
//! real corpora arrive continuously. [`StreamPacker`] keeps every admitted
//! item in arrival order; the latest arrivals form a *pending segment*
//! and, when a [`SealPolicy`] trigger fires, the packer batch-packs the
//! segment with the configured algorithm and seals the resulting bins into
//! its one flat packing, whose members are positions into the admitted
//! items. Sealed bins are immutable — exactly the property the container
//! format (see [`crate::container`]) needs to write unit files as they
//! close instead of at corpus end.
//!
//! # Streaming ≡ batch, by construction
//!
//! Each sealed segment is a **contiguous run of the arrival sequence**,
//! packed by the same [`Algorithm::pack`] the batch path uses, and
//! [`StreamPacker::finish`] merges segments with the same tail merge
//! [`pack_sharded`] uses — segments play the role of shards. Two exact equivalences follow (pinned by the
//! differential proptests in `tests/stream_vs_batch.rs`):
//!
//! 1. **Flush-only**: with no seal triggers, the whole trace is one
//!    segment, so the output *is* the batch [`Algorithm::pack`] output —
//!    same bins, same order, for every algorithm and merge policy.
//! 2. **Sealing at [`shard_ranges`] boundaries** reproduces
//!    [`pack_sharded`] with the matching `ShardedConfig` bit-for-bit.
//!
//! Any other sealing schedule differs from batch only at segment
//! boundaries, bounded by the merge policy — the same contract
//! `pack_sharded` already documents for shard cuts.
//!
//! The packer reads no wall clock: callers pass the simulated time into
//! [`admit`](StreamPacker::admit)/[`tick`](StreamPacker::tick), so replaying
//! a seeded arrival trace reproduces every seal decision (and therefore
//! every container byte) exactly.
//!
//! [`shard_ranges`]: crate::parallel::shard_ranges
//! [`pack_sharded`]: crate::parallel::pack_sharded

use serde::{Deserialize, Serialize};

use crate::item::{Item, Size};
use crate::pack::Packing;
use crate::parallel::{merge_tails, repack_bins, MergePolicy};
use crate::Algorithm;

/// When to seal the pending segment. Both triggers are optional; with both
/// unset only [`StreamPacker::seal_now`] / [`StreamPacker::finish`] seal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SealPolicy {
    /// Seal once the pending segment holds at least this many bytes
    /// (checked after every admit).
    pub max_pending_bytes: Option<u64>,
    /// Seal once the oldest pending arrival is at least this many simulated
    /// seconds old (checked on every admit and [`StreamPacker::tick`]).
    pub max_age_secs: Option<f64>,
}

impl SealPolicy {
    /// Never seal early: the whole trace becomes one segment, making the
    /// stream output identical to the batch pack (equivalence 1 above).
    pub fn flush_only() -> Self {
        SealPolicy {
            max_pending_bytes: None,
            max_age_secs: None,
        }
    }

    /// Seal whenever the pending segment reaches `bytes`.
    pub fn bin_full(bytes: u64) -> Self {
        SealPolicy {
            max_pending_bytes: Some(bytes),
            max_age_secs: None,
        }
    }

    /// Seal whenever the oldest pending arrival is `secs` old.
    pub fn aged(secs: f64) -> Self {
        SealPolicy {
            max_pending_bytes: None,
            max_age_secs: Some(secs),
        }
    }
}

impl Default for SealPolicy {
    fn default() -> Self {
        SealPolicy::flush_only()
    }
}

/// Why a segment was sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SealCause {
    /// [`SealPolicy::max_pending_bytes`] reached.
    Full,
    /// [`SealPolicy::max_age_secs`] exceeded.
    Aged,
    /// Caller invoked [`StreamPacker::seal_now`].
    Explicit,
    /// Corpus-end flush from [`StreamPacker::finish`].
    Flush,
}

impl SealCause {
    /// Stable lowercase label, used in observability events.
    pub fn label(self) -> &'static str {
        match self {
            SealCause::Full => "full",
            SealCause::Aged => "aged",
            SealCause::Explicit => "explicit",
            SealCause::Flush => "flush",
        }
    }
}

/// Configuration for a [`StreamPacker`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Bin capacity (the unit-file size), must be positive.
    pub capacity: u64,
    /// Packing algorithm applied to each sealed segment.
    pub algorithm: Algorithm,
    /// When to seal the pending segment.
    pub seal: SealPolicy,
    /// How sealed segments merge at [`StreamPacker::finish`] (same
    /// semantics as shard merging in [`pack_sharded`](crate::pack_sharded)).
    pub merge: MergePolicy,
}

impl StreamConfig {
    /// Paper defaults at the given capacity: subset-sum first fit,
    /// flush-only sealing, tail repack on merge.
    pub fn new(capacity: u64) -> Self {
        StreamConfig {
            capacity,
            algorithm: Algorithm::SubsetSumFirstFit,
            seal: SealPolicy::flush_only(),
            merge: MergePolicy::RepackTails,
        }
    }
}

/// Running totals for a stream, suitable for observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StreamStats {
    /// Items admitted.
    pub admitted_items: u64,
    /// Bytes admitted.
    pub admitted_bytes: u64,
    /// Segments sealed, total.
    pub sealed_segments: u64,
    /// Seals triggered by [`SealPolicy::max_pending_bytes`].
    pub seals_full: u64,
    /// Seals triggered by [`SealPolicy::max_age_secs`].
    pub seals_aged: u64,
    /// Seals triggered by [`StreamPacker::seal_now`].
    pub seals_explicit: u64,
    /// Seals triggered by [`StreamPacker::finish`].
    pub seals_flush: u64,
    /// Bins across all sealed segments (before merging).
    pub sealed_bins: u64,
    /// Bytes across all sealed segments.
    pub sealed_bytes: u64,
}

/// Final result of a stream: the admitted items, their merged packing and
/// the per-segment history.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamOutcome {
    /// Every admitted item, in arrival order: the slice `packing` indexes.
    pub items: Vec<Item>,
    /// The merged packing over every admitted item.
    pub packing: Packing,
    /// Seal history: cause, time, item/byte/bin counts per segment.
    pub segments: Vec<SegmentSummary>,
    /// Stream totals.
    pub stats: StreamStats,
}

/// One sealed segment: a packed, immutable run of the arrival sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SegmentSummary {
    /// What triggered the seal.
    pub cause: SealCause,
    /// Simulated time of the seal.
    pub sealed_at: f64,
    /// Items in the segment.
    pub items: u64,
    /// Payload bytes in the segment.
    pub bytes: u64,
    /// Bins the segment packed into.
    pub bins: u64,
}

/// The online packer: admits items, seals segments under the policy, and
/// merges everything at [`finish`](Self::finish). See the module docs for
/// the streaming≡batch equivalences.
#[derive(Debug, Clone)]
pub struct StreamPacker {
    config: StreamConfig,
    /// Every admitted item; the pending segment is `items[pending_from..]`.
    items: Vec<Item>,
    pending_from: usize,
    pending_bytes: u64,
    oldest_pending_at: f64,
    /// The sealed segments' bins, back to back.
    packing: Packing,
    segments: Vec<SegmentSummary>,
    stats: StreamStats,
}

impl StreamPacker {
    /// A packer with no pending items. `config.capacity` must be positive
    /// (same contract as the batch packers).
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.capacity > 0, "stream capacity must be positive");
        StreamPacker {
            config,
            items: Vec::new(),
            pending_from: 0,
            pending_bytes: 0,
            oldest_pending_at: 0.0,
            packing: Packing::new(config.capacity),
            segments: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// The configuration this packer was built with.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Bytes buffered in the open segment.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Segments sealed so far.
    pub fn sealed_segments(&self) -> &[SegmentSummary] {
        &self.segments
    }

    /// Running totals.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Admit one arrival at simulated time `now_secs`. Checks the age
    /// trigger first (an over-age pending segment seals *before* the new
    /// item joins, so the new arrival starts a fresh segment), then admits,
    /// then checks the byte trigger.
    pub fn admit(&mut self, item: Item, now_secs: f64) {
        self.seal_if_aged(now_secs);
        if self.pending_from == self.items.len() {
            self.oldest_pending_at = now_secs;
        }
        self.pending_bytes += item.size;
        self.items.push(item);
        self.stats.admitted_items += 1;
        self.stats.admitted_bytes += item.size;
        if let Some(max) = self.config.seal.max_pending_bytes {
            if self.pending_bytes >= max {
                self.seal(SealCause::Full, now_secs);
            }
        }
    }

    /// Advance the simulated clock without admitting anything; seals the
    /// pending segment if it has aged out. Call this from timer events in
    /// an event-driven ingest loop.
    pub fn tick(&mut self, now_secs: f64) {
        self.seal_if_aged(now_secs);
    }

    /// Seal the pending segment right now (no-op when empty). The
    /// sharded-equivalence tests use this to cut segments at exact
    /// [`crate::shard_ranges`] boundaries.
    pub fn seal_now(&mut self, now_secs: f64) {
        self.seal(SealCause::Explicit, now_secs);
    }

    /// Flush the last pending segment and merge all segments into the final
    /// packing. A single segment is returned as-is (mirroring the
    /// single-shard short-circuit of [`pack_sharded`](crate::pack_sharded),
    /// which is what makes flush-only streaming *exactly* equal to the batch
    /// pack); multiple segments merge under the configured [`MergePolicy`].
    pub fn finish(mut self, now_secs: f64) -> StreamOutcome {
        self.seal(SealCause::Flush, now_secs);
        let packing = if self.segments.len() <= 1 {
            self.packing
        } else {
            let segment_ends: Vec<usize> = self
                .segments
                .iter()
                .scan(0, |end, s| {
                    *end += s.bins as usize;
                    Some(*end)
                })
                .collect();
            merge_tails(
                self.config.algorithm,
                &self.items,
                self.packing,
                &segment_ends,
                self.config.merge,
            )
        };
        StreamOutcome {
            items: self.items,
            packing,
            segments: self.segments,
            stats: self.stats,
        }
    }

    fn seal_if_aged(&mut self, now_secs: f64) {
        if self.pending_from == self.items.len() {
            return;
        }
        if let Some(max_age) = self.config.seal.max_age_secs {
            if now_secs - self.oldest_pending_at >= max_age {
                self.seal(SealCause::Aged, now_secs);
            }
        }
    }

    fn seal(&mut self, cause: SealCause, now_secs: f64) {
        let pending = &self.items[self.pending_from..];
        if pending.is_empty() {
            return;
        }
        let bytes = self.pending_bytes;
        self.pending_bytes = 0;
        let a = self.config.algorithm.assign(pending, self.config.capacity);
        let bins = a.bins() as u64;
        self.packing.append(&a);
        self.stats.sealed_segments += 1;
        self.stats.sealed_bins += bins;
        self.stats.sealed_bytes += bytes;
        match cause {
            SealCause::Full => self.stats.seals_full += 1,
            SealCause::Aged => self.stats.seals_aged += 1,
            SealCause::Explicit => self.stats.seals_explicit += 1,
            SealCause::Flush => self.stats.seals_flush += 1,
        }
        self.segments.push(SegmentSummary {
            cause,
            sealed_at: now_secs,
            items: pending.len() as u64,
            bytes,
            bins,
        });
        self.pending_from = self.items.len();
    }
}

/// Compaction totals from [`compact_underfull`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompactionStats {
    /// Bins before compaction.
    pub bins_before: u64,
    /// Bins after compaction.
    pub bins_after: u64,
    /// Under-full bins dissolved and repacked.
    pub rewritten_bins: u64,
    /// Bytes moved through the rewrite.
    pub rewritten_bytes: u64,
}

/// Rewrite under-full sealed bins of a packing of `items`: every
/// non-oversize bin with `fill() < min_fill` is dissolved and its items
/// repacked together (in bin order, which is arrival order) with the given
/// algorithm; bins at or above the threshold — and oversize singletons —
/// pass through untouched, keeping their byte-identical container
/// representation. Single pass: the repack may itself leave one trailing
/// bin below the threshold.
pub fn compact_underfull<T: Size>(
    alg: Algorithm,
    items: &[T],
    packing: Packing,
    min_fill: f64,
) -> (Packing, CompactionStats) {
    let dissolved: Vec<usize> = packing
        .bins()
        .enumerate()
        .filter(|(_, b)| !b.is_oversize() && b.fill() < min_fill)
        .map(|(i, _)| i)
        .collect();
    let mut stats = CompactionStats {
        bins_before: packing.len() as u64,
        rewritten_bins: dissolved.len() as u64,
        rewritten_bytes: dissolved.iter().map(|&b| packing.bin(b).used()).sum(),
        ..CompactionStats::default()
    };
    let packing = repack_bins(alg, items, packing, &dissolved, false);
    stats.bins_after = packing.len() as u64;
    (packing, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_packing_with, CheckOptions};

    fn items(n: u64) -> Vec<Item> {
        Item::from_sizes(&(0..n).map(|i| (i * 97) % 800 + 1).collect::<Vec<_>>())
    }

    #[test]
    fn flush_only_equals_batch() {
        let its = items(300);
        for alg in Algorithm::ALL {
            let mut p = StreamPacker::new(StreamConfig {
                algorithm: alg,
                ..StreamConfig::new(1000)
            });
            for (i, it) in its.iter().enumerate() {
                p.admit(*it, i as f64);
            }
            let out = p.finish(300.0);
            assert_eq!(out.packing, alg.pack(&its, 1000), "{alg:?}");
            assert_eq!(out.stats.seals_flush, 1);
            assert_eq!(out.stats.sealed_segments, 1);
        }
    }

    #[test]
    fn empty_stream_finishes_empty() {
        let out = StreamPacker::new(StreamConfig::new(1000)).finish(0.0);
        assert!(out.packing.is_empty());
        assert_eq!(out.stats.admitted_items, 0);
        assert!(out.segments.is_empty());
    }

    #[test]
    fn byte_trigger_seals_mid_stream() {
        let mut cfg = StreamConfig::new(100);
        cfg.seal = SealPolicy::bin_full(250);
        let mut p = StreamPacker::new(cfg);
        for i in 0..10u64 {
            p.admit(Item::new(i, 60), i as f64);
        }
        // 60*5 = 300 >= 250 → seals at items 5 and 10 (trigger is >=).
        assert!(p.stats().seals_full >= 1);
        let out = p.finish(10.0);
        assert_eq!(out.stats.admitted_items, 10);
        assert_eq!(out.stats.admitted_bytes, 600);
        assert_eq!(out.packing.total_size(), 600);
    }

    #[test]
    fn age_trigger_seals_before_new_arrival_joins() {
        let mut cfg = StreamConfig::new(1000);
        cfg.seal = SealPolicy::aged(5.0);
        let mut p = StreamPacker::new(cfg);
        p.admit(Item::new(0, 10), 0.0);
        p.admit(Item::new(1, 10), 1.0);
        // Arrives at t=6: the t=0 segment is 6s old, seals first.
        p.admit(Item::new(2, 10), 6.0);
        assert_eq!(p.stats().seals_aged, 1);
        let out = p.finish(7.0);
        assert_eq!(out.segments.len(), 2);
        assert_eq!(out.segments[0].items, 2);
        assert_eq!(out.segments[0].cause, SealCause::Aged);
    }

    #[test]
    fn tick_seals_without_admitting() {
        let mut cfg = StreamConfig::new(1000);
        cfg.seal = SealPolicy::aged(2.0);
        let mut p = StreamPacker::new(cfg);
        p.admit(Item::new(0, 10), 0.0);
        p.tick(1.0);
        assert_eq!(p.stats().sealed_segments, 0);
        p.tick(2.0);
        assert_eq!(p.stats().seals_aged, 1);
    }

    #[test]
    fn tick_then_admit_at_same_timestamp_seals_once() {
        // A timer tick and an arrival landing on the same simulated
        // timestamp must produce exactly one aged seal: the tick seals the
        // over-age segment, and the admit's own age check then sees an
        // empty pending buffer (which never seals). A second seal here
        // would emit a phantom empty segment into the event log.
        let mut cfg = StreamConfig::new(1000);
        cfg.seal = SealPolicy::aged(2.0);
        let mut p = StreamPacker::new(cfg);
        p.admit(Item::new(0, 10), 0.0);
        p.tick(2.0);
        assert_eq!(p.stats().seals_aged, 1);
        p.admit(Item::new(1, 20), 2.0);
        assert_eq!(p.stats().seals_aged, 1, "same-timestamp double seal");
        // The new arrival starts a fresh age window at t = 2.
        p.tick(3.9);
        assert_eq!(p.stats().seals_aged, 1);
        p.tick(4.0);
        assert_eq!(p.stats().seals_aged, 2);
        let out = p.finish(5.0);
        assert!(
            out.segments.iter().all(|s| s.items > 0),
            "{:?}",
            out.segments
        );
    }

    #[test]
    fn empty_pending_never_seals() {
        let mut cfg = StreamConfig::new(1000);
        cfg.seal = SealPolicy {
            max_pending_bytes: Some(1),
            max_age_secs: Some(0.0),
        };
        let mut p = StreamPacker::new(cfg);
        p.tick(10.0);
        p.tick(20.0);
        p.seal_now(30.0);
        assert_eq!(p.stats().sealed_segments, 0);
        let out = p.finish(40.0);
        assert!(
            out.segments.is_empty(),
            "empty stream sealed {:?}",
            out.segments
        );
        assert!(out.packing.is_empty());
    }

    #[test]
    fn sealed_stream_is_valid_and_conserves_bytes() {
        let its = items(400);
        let mut cfg = StreamConfig::new(1000);
        cfg.seal = SealPolicy::bin_full(3_000);
        let mut p = StreamPacker::new(cfg);
        for (i, it) in its.iter().enumerate() {
            p.admit(*it, i as f64);
        }
        let out = p.finish(400.0);
        check_packing_with(
            &its,
            &out.packing,
            CheckOptions {
                allow_empty_bins: false,
                require_input_order: false,
                enforce_capacity: true,
            },
        )
        .expect("stream packing invalid");
        assert!(out.stats.sealed_segments > 1);
    }

    #[test]
    fn replay_is_deterministic() {
        let its = items(200);
        let run = || {
            let mut cfg = StreamConfig::new(500);
            cfg.seal = SealPolicy {
                max_pending_bytes: Some(2_000),
                max_age_secs: Some(13.0),
            };
            let mut p = StreamPacker::new(cfg);
            for (i, it) in its.iter().enumerate() {
                p.admit(*it, (i as f64) * 0.7);
            }
            p.finish(200.0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn compaction_dissolves_only_underfull_bins() {
        // Three bins: full-ish, under-full, oversize.
        let its = Item::from_sizes(&[900, 100, 10, 2000]);
        let p = Algorithm::FirstFit.pack(&its, 1000);
        assert_eq!(p.len(), 3); // [900,100] | [10] | [2000]
        let (compacted, stats) = compact_underfull(Algorithm::FirstFit, &its, p, 0.5);
        assert_eq!(stats.bins_before, 3);
        assert_eq!(stats.rewritten_bins, 1);
        assert_eq!(stats.rewritten_bytes, 10);
        assert_eq!(compacted.total_size(), 3010);
        // Oversize bin survives untouched.
        assert!(compacted.bins().any(|b| b.is_oversize()));
    }

    #[test]
    fn compaction_on_all_full_bins_is_identity() {
        let its = Item::from_sizes(&[500, 500, 500, 500]);
        let p = Algorithm::FirstFit.pack(&its, 1000);
        let before = p.clone();
        let (after, stats) = compact_underfull(Algorithm::FirstFit, &its, p, 0.9);
        assert_eq!(after, before);
        assert_eq!(stats.rewritten_bins, 0);
        assert_eq!(stats.bins_before, stats.bins_after);
    }
}
