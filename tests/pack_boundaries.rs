//! Boundary pins for the size-adaptive reshape pack route: manifests of
//! `PAR_PACK_MIN_ITEMS - 1`, exactly `PAR_PACK_MIN_ITEMS`, and
//! `PAR_PACK_MIN_ITEMS + 1` items must take the documented route (single-
//! shot pack below the threshold, fixed-shard parallel pack at
//! or above it), conserve every byte, and stay independent of the
//! `Parallelism` setting on both sides of the switch.

use binpack::{pack_sharded, Algorithm, Item, MergePolicy, Parallelism, ShardedConfig};
use reshape::{pack_for_reshape, PAR_PACK_MIN_ITEMS, RESHAPE_PACK_SHARDS};

const TARGET: u64 = 10_000;

fn items(n: usize) -> Vec<Item> {
    (0..n as u64)
        .map(|i| Item::new(i, (i * 131) % 900 + 1))
        .collect()
}

#[test]
fn below_threshold_takes_the_single_shot_route() {
    let items = items(PAR_PACK_MIN_ITEMS - 1);
    let got = pack_for_reshape(&items, TARGET, Parallelism::Sequential);
    let single = Algorithm::SubsetSumFirstFit.pack(&items, TARGET);
    assert_eq!(got, single, "65 535 items must take the single-shot kernel");
}

#[test]
fn at_threshold_switches_to_the_sharded_route() {
    let items = items(PAR_PACK_MIN_ITEMS);
    let got = pack_for_reshape(&items, TARGET, Parallelism::Sequential);
    let sharded = pack_sharded(
        Algorithm::SubsetSumFirstFit,
        &items,
        TARGET,
        ShardedConfig {
            shards: RESHAPE_PACK_SHARDS,
            merge: MergePolicy::RepackTails,
        },
        Parallelism::Sequential,
    );
    assert_eq!(got, sharded, "65 536 items must take the sharded pack");
}

#[test]
fn boundary_counts_conserve_bytes_and_ignore_parallelism() {
    for n in [
        PAR_PACK_MIN_ITEMS - 1,
        PAR_PACK_MIN_ITEMS,
        PAR_PACK_MIN_ITEMS + 1,
    ] {
        let items = items(n);
        let expect: u64 = items.iter().map(|i| i.size).sum();
        let seq = pack_for_reshape(&items, TARGET, Parallelism::Sequential);
        let total: u64 = seq.bins().map(|b| b.used()).sum();
        assert_eq!(total, expect, "bytes lost at n={n}");
        let count: usize = seq.bins().map(|b| b.len()).sum();
        assert_eq!(count, n, "items lost at n={n}");
        for par in [Parallelism::Rayon(0), Parallelism::Rayon(5)] {
            assert_eq!(
                seq,
                pack_for_reshape(&items, TARGET, par),
                "route at n={n} diverged under {par:?}"
            );
        }
    }
}
