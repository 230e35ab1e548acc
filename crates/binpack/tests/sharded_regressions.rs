//! Regression pins for `pack_sharded` degenerate shard counts: more shards
//! than items, huge shard counts, zero/one shards, and the empty input.
//! `shard_ranges` clamps the shard count to the item count, so none of
//! these may panic, drop items, or produce empty shards — and the clamped
//! cases must be bit-identical to the same pack at the clamped count.

use binpack::{
    check_packing_with, pack_sharded, shard_ranges, Algorithm, CheckOptions, Item, MergePolicy,
    Packing, Parallelism, ShardedConfig, StreamConfig, StreamPacker,
};
use proptest::prelude::*;

const MERGES: [MergePolicy; 2] = [MergePolicy::Concat, MergePolicy::RepackTails];

fn check(items: &[Item], packing: &Packing, what: &str) {
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

#[test]
fn shard_ranges_clamps_to_item_count() {
    for n in [0usize, 1, 2, 5, 100] {
        for shards in [1usize, 2, 16, n.max(1), n + 1, n + 1000, usize::MAX] {
            let ranges = shard_ranges(n, shards);
            assert_eq!(ranges.len(), shards.min(n), "n={n} shards={shards}");
            // Contiguous cover of 0..n with no empty shard.
            let mut cursor = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, cursor, "gap at n={n} shards={shards}");
                assert!(hi > lo, "empty shard at n={n} shards={shards}");
                cursor = hi;
            }
            assert_eq!(cursor, n, "ranges do not cover 0..{n}");
        }
    }
    assert!(
        shard_ranges(7, 0).is_empty(),
        "zero shards yields no ranges"
    );
}

#[test]
fn more_shards_than_items_equals_clamped_shard_count() {
    let items = Item::from_sizes(&[700, 300, 150, 950, 20, 20, 400]);
    for alg in Algorithm::ALL {
        for merge in MERGES {
            let clamped = pack_sharded(
                alg,
                &items,
                1_000,
                ShardedConfig {
                    shards: items.len(),
                    merge,
                },
                Parallelism::Sequential,
            );
            for shards in [items.len() + 1, items.len() * 10, usize::MAX] {
                let p = pack_sharded(
                    alg,
                    &items,
                    1_000,
                    ShardedConfig { shards, merge },
                    Parallelism::Sequential,
                );
                assert_eq!(
                    p, clamped,
                    "{alg:?}/{merge:?} shards={shards} diverged from the clamped pack"
                );
                check(&items, &p, "over-sharded");
            }
        }
    }
}

#[test]
fn zero_shards_is_treated_as_one() {
    let items = Item::from_sizes(&[10, 20, 30]);
    for merge in MERGES {
        let p = pack_sharded(
            Algorithm::FirstFit,
            &items,
            100,
            ShardedConfig { shards: 0, merge },
            Parallelism::Sequential,
        );
        assert_eq!(p, Algorithm::FirstFit.pack(&items, 100));
    }
}

#[test]
fn single_item_and_empty_inputs_short_circuit() {
    for merge in MERGES {
        let empty = pack_sharded::<Item>(
            Algorithm::BestFit,
            &[],
            50,
            ShardedConfig { shards: 16, merge },
            Parallelism::Sequential,
        );
        assert!(empty.is_empty(), "empty input must pack to no bins");

        let one = [Item::new(0, 42)];
        let p = pack_sharded(
            Algorithm::BestFit,
            &one,
            50,
            ShardedConfig { shards: 16, merge },
            Parallelism::Sequential,
        );
        assert_eq!(p, Algorithm::BestFit.pack(&one, 50));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Over-sharding is always safe: valid packing, every item conserved,
    /// identical across `Parallelism` settings.
    #[test]
    fn over_sharding_conserves_and_is_parallelism_independent(
        sizes in prop::collection::vec(0u64..3_000, 1..40),
        cap in 1u64..1_500,
        extra in 1usize..50,
    ) {
        let items = Item::from_sizes(&sizes);
        let shards = items.len() + extra;
        for alg in [Algorithm::SubsetSumFirstFit, Algorithm::FirstFit, Algorithm::WorstFit] {
            for merge in MERGES {
                let config = ShardedConfig { shards, merge };
                let seq = pack_sharded(alg, &items, cap, config, Parallelism::Sequential);
                check(&items, &seq, "over-sharded prop");
                let par = pack_sharded(alg, &items, cap, config, Parallelism::Rayon(3));
                prop_assert_eq!(&seq, &par, "{:?}/{:?} diverged under Rayon", alg, merge);
                let total: u64 = seq.bins().map(|b| b.used()).sum();
                prop_assert_eq!(total, sizes.iter().sum::<u64>());
            }
        }
    }
}

/// `RepackTails` must never use more bins than `Concat`. Here each shard
/// packs into one full bin, and repacking the two pulled bins largest-first
/// (subset-sum first fit, first fit decreasing) needs three: 4+4, 3+3+2, 2.
#[test]
fn repack_tails_never_adds_a_bin() {
    let items = Item::from_sizes(&[2, 4, 3, 3, 4, 2]);
    for alg in Algorithm::ALL {
        let pack = |merge| {
            pack_sharded(
                alg,
                &items,
                9,
                ShardedConfig { shards: 2, merge },
                Parallelism::Sequential,
            )
        };
        let concat = pack(MergePolicy::Concat);
        let repack = pack(MergePolicy::RepackTails);
        assert_eq!(concat.bin_sizes(), vec![9, 9], "{alg:?}");
        assert!(
            repack.len() <= concat.len(),
            "{alg:?}: RepackTails {:?} against Concat {:?}",
            repack.bin_sizes(),
            concat.bin_sizes()
        );
        check(&items, &repack, "repack tails");
    }

    // The stream packer merges its segments the same way.
    let mut stream = StreamPacker::new(StreamConfig::new(9));
    for (i, item) in items.iter().enumerate() {
        stream.admit(*item, i as f64);
        if i == 2 {
            stream.seal_now(i as f64);
        }
    }
    let out = stream.finish(items.len() as f64);
    assert_eq!(out.packing.bin_sizes(), vec![9, 9]);
    check(&items, &out.packing, "stream");
}
