//! The parallelism knob shared by every sweep in the workspace, and the
//! sharded parallel pack built on it.
//!
//! Packing a single probe is an inherently sequential greedy loop, but the
//! pipeline around it is embarrassingly parallel: a probe set packs many
//! unit sizes independently, a derived chain merges many factors
//! independently, and the reshape step builds many unit files
//! independently. [`Parallelism`] selects how those loops run; results are
//! **identical** either way because all parallel paths gather their outputs
//! in input order.
//!
//! [`pack_sharded`] extends that to the pack itself: the item stream is cut
//! into a **fixed** number of contiguous shards ([`shard_ranges`]), each
//! shard packs independently on a Rayon worker, and the partial packings
//! merge deterministically. A shard's bins hold exactly its input range, so
//! each worker lays its members straight into that shard's range of the one
//! member array; the merge then only moves the shards' tail bins. The
//! output is a pure function of `(algorithm, items, capacity, config)` —
//! never of the worker count, scheduling order, or host — because the shard
//! split is fixed by config, the workers' per-bin arrays are gathered in
//! shard order, and the merge is a sequential pass over them.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::fast::index_u32;
use crate::item::Size;
use crate::pack::Packing;
use crate::Algorithm;

/// How to execute data-parallel sweeps (probe construction, chain
/// derivation, the shards of a sharded pack, unit-file construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Plain sequential loops. Useful for debugging and as the baseline in
    /// differential tests.
    Sequential,
    /// Rayon-style fork-join with the given worker count; `0` means one
    /// worker per available CPU. This is the default (`Rayon(0)`).
    Rayon(usize),
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::Rayon(0)
    }
}

impl Parallelism {
    /// Run `f` under this parallelism setting: any parallel iterator used
    /// inside is bounded to the selected worker count.
    ///
    /// Cheap to call per sweep: the vendored `rayon` builds no pool and
    /// starts no thread here. Its `ThreadPool` only stores the worker
    /// count, `install` sets it in a thread-local for the duration of `f`,
    /// and each parallel call inside starts and joins its own scoped
    /// threads.
    pub fn install<R>(self, f: impl FnOnce() -> R) -> R {
        let workers = match self {
            Parallelism::Sequential => 1,
            Parallelism::Rayon(n) => n,
        };
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            // lint:allow(RL001, pool construction is infallible for any worker count here)
            .expect("thread pool construction cannot fail")
            .install(f)
    }

    /// The worker count this setting resolves to on the current machine.
    pub fn effective_workers(self) -> usize {
        self.install(rayon::current_num_threads)
    }
}

/// Split `n` items into at most `shards` contiguous `[start, end)` ranges,
/// as evenly as possible (the first `n % shards` ranges get one extra
/// item). The split is a pure function of `(n, shards)` — never of the
/// machine's worker count — so per-shard accounting emitted from parallel
/// sweeps is identical on every host (the observability layer relies on
/// this for byte-identical event logs).
pub fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    if n == 0 || shards == 0 {
        return Vec::new();
    }
    let shards = shards.min(n);
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// How [`pack_sharded`] merges its shards' partial packings.
///
/// Both policies are deterministic and keep every shard's bins in shard
/// order (shard order == global input order, since shards are contiguous
/// input ranges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MergePolicy {
    /// Concatenate the shards' bins as-is. Zero merge cost; up to one
    /// under-filled bin per shard survives (the shard's last bin, cut off by
    /// the shard boundary).
    Concat,
    /// Concatenate, but pull each shard's **last non-oversize bin** out and
    /// repack those boundary items together with the shard algorithm. The
    /// boundary bins are the only ones a shard cut can leave short, so this
    /// recovers almost all of the sequential pack's fill at
    /// O(shards · items-per-bin) extra work. When the repack would need
    /// more bins than it pulled (largest-first algorithms can), the pulled
    /// bins stay as they were, so this never uses more bins than
    /// [`Concat`](Self::Concat). The default.
    #[default]
    RepackTails,
}

/// Configuration for [`pack_sharded`].
///
/// `shards` is part of the *output contract*, not a performance hint: the
/// packing depends on it, so callers that need reproducible bins across
/// machines must fix it (the reshape pipeline pins its own constant). The
/// worker count, by contrast, never affects the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedConfig {
    /// Number of contiguous input shards (clamped to ≥ 1). More shards
    /// expose more parallelism and cost at most one boundary bin each.
    pub shards: usize,
    /// How partial packings are merged.
    pub merge: MergePolicy,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 16,
            merge: MergePolicy::RepackTails,
        }
    }
}

/// Pack `items` by sharding the input, packing every shard independently in
/// parallel, and deterministically merging the partial packings.
///
/// With a single shard (or few enough items that [`shard_ranges`] yields
/// one range) this is exactly `alg.pack(items, capacity)`. With more, the
/// output differs from the single-shot pack only at shard boundaries —
/// bounded by the merge policy — and is byte-identical across worker
/// counts, including [`Parallelism::Sequential`] (pinned by proptests in
/// `tests/properties.rs`).
pub fn pack_sharded<T: Size + Sync>(
    alg: Algorithm,
    items: &[T],
    capacity: u64,
    config: ShardedConfig,
    parallelism: Parallelism,
) -> Packing {
    let ranges = shard_ranges(items.len(), config.shards.max(1));
    if ranges.len() <= 1 {
        // One shard: merge policies are all identity, skip the fan-out.
        return alg.pack(items, capacity);
    }
    crate::fast::assert_indexable(items.len());
    // Shard s's members fill exactly members[lo..hi], so every worker
    // writes its own disjoint range of the one array.
    let mut members = vec![0u32; items.len()];
    let mut slots = Vec::with_capacity(ranges.len());
    let mut rest = members.as_mut_slice();
    for &(lo, hi) in &ranges {
        let (shard, tail) = rest.split_at_mut(hi - lo);
        slots.push((lo, shard));
        rest = tail;
    }
    let shards: Vec<(Vec<u32>, Vec<u64>)> = parallelism.install(|| {
        slots
            .into_par_iter()
            .map(|(lo, shard)| {
                let a = alg.assign(&items[lo..lo + shard.len()], capacity);
                (a.scatter(shard, index_u32(lo)), a.used)
            })
            .collect()
    });
    let (mut ends, mut used, mut shard_ends) = (Vec::new(), Vec::new(), Vec::new());
    for (shard_ends_of, shard_used) in shards {
        ends.extend(shard_ends_of);
        used.extend(shard_used);
        shard_ends.push(ends.len());
    }
    let packing = Packing::from_parts(members, ends, used, capacity);
    let packing = merge_tails(alg, items, packing, &shard_ends, config.merge);
    crate::check::debug_check(items, &packing);
    packing
}

/// The merge step: `packing` holds the shards' bins back to back, shard
/// `s` ending at bin `shard_ends[s]`. Under [`MergePolicy::RepackTails`]
/// each shard's last non-oversize bin — the only one the shard boundary
/// can leave short; oversize singletons are boundary-immune — is pulled
/// and the pulled bins are repacked together, unless that needs more bins.
pub(crate) fn merge_tails<T: Size>(
    alg: Algorithm,
    items: &[T],
    packing: Packing,
    shard_ends: &[usize],
    policy: MergePolicy,
) -> Packing {
    if policy == MergePolicy::Concat {
        return packing;
    }
    let mut tails = Vec::with_capacity(shard_ends.len());
    let mut start = 0;
    for &end in shard_ends {
        if let Some(b) = (start..end).rev().find(|&b| !packing.bin(b).is_oversize()) {
            tails.push(b);
        }
        start = end;
    }
    // Only in-order first fit is sure to fit s pulled bins into at most s
    // bins; a largest-first repack can need more, and then the pulled bins
    // stay as they were.
    repack_bins(alg, items, packing, &tails, true)
}

/// Pull the bins at the ascending indices `pulled` out of `packing` and
/// repack their members together with `alg`, in bin order; the new bins
/// go to the back. With `never_more`, a repack that needs more bins than
/// it pulled is dropped and the pulled bins go to the back as they were.
///
/// The pulled members' sizes are gathered into one contiguous slice first,
/// so the repack reads no size through the position list.
pub(crate) fn repack_bins<T: Size>(
    alg: Algorithm,
    items: &[T],
    mut packing: Packing,
    pulled: &[usize],
    never_more: bool,
) -> Packing {
    if pulled.is_empty() {
        return packing;
    }
    // Bin order is input order, so the repack sees the pulled items as a
    // sequential pass would.
    let loose: Vec<u32> = pulled
        .iter()
        .flat_map(|&b| packing.bin(b).members().iter().copied())
        .collect();
    let sizes: Vec<u64> = loose.iter().map(|&p| items[p as usize].size()).collect();
    let mut repacked = alg.pack(&sizes, packing.capacity());
    if never_more && repacked.len() > pulled.len() {
        repacked = Packing::new(packing.capacity());
        let mut from = 0u32;
        for &b in pulled {
            let bin = packing.bin(b);
            let to = from + index_u32(bin.len());
            repacked.push_bin(from..to, bin.used());
            from = to;
        }
    }
    packing.remove_bins(pulled);
    packing.extend_through(&repacked, &loose);
    packing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    #[test]
    fn sequential_means_one_worker() {
        assert_eq!(Parallelism::Sequential.effective_workers(), 1);
    }

    #[test]
    fn explicit_worker_count_is_respected() {
        assert_eq!(Parallelism::Rayon(3).effective_workers(), 3);
    }

    #[test]
    fn auto_uses_at_least_one_worker() {
        assert!(Parallelism::Rayon(0).effective_workers() >= 1);
        assert!(Parallelism::default().effective_workers() >= 1);
    }

    #[test]
    fn install_returns_closure_result() {
        let v = Parallelism::Sequential.install(|| 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 8, 9, 100, 1023] {
            for shards in [1usize, 2, 8, 16] {
                let ranges = shard_ranges(n, shards);
                let total: usize = ranges.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, n, "n={n} shards={shards}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                }
                if n > 0 {
                    assert_eq!(ranges[0].0, 0);
                    assert_eq!(ranges[ranges.len() - 1].1, n);
                    assert!(ranges.len() <= shards.min(n));
                    // Balanced: sizes differ by at most one.
                    let sizes: Vec<usize> = ranges.iter().map(|(a, b)| b - a).collect();
                    let min = sizes.iter().min().copied().unwrap_or(0);
                    let max = sizes.iter().max().copied().unwrap_or(0);
                    assert!(max - min <= 1, "unbalanced: {sizes:?}");
                }
            }
        }
        assert!(shard_ranges(5, 0).is_empty());
    }

    #[test]
    fn shard_ranges_ignore_machine_parallelism() {
        // Pure function of (n, shards): pin a few exact splits.
        assert_eq!(shard_ranges(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(shard_ranges(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
    }

    fn mixed_items(n: usize) -> Vec<Item> {
        // Deterministic mix incl. zero-size and oversize-for-capacity-1000.
        let sizes: Vec<u64> = (0..n as u64)
            .map(|i| match i % 13 {
                0 => 0,
                1 => 1500,
                _ => (i * 97) % 1000,
            })
            .collect();
        Item::from_sizes(&sizes)
    }

    #[test]
    fn single_shard_equals_single_shot() {
        let items = mixed_items(200);
        for alg in Algorithm::ALL {
            for merge in [MergePolicy::Concat, MergePolicy::RepackTails] {
                let cfg = ShardedConfig { shards: 1, merge };
                let sharded = pack_sharded(alg, &items, 1000, cfg, Parallelism::Sequential);
                assert_eq!(sharded, alg.pack(&items, 1000), "{alg:?}/{merge:?}");
            }
        }
    }

    #[test]
    fn sharded_output_independent_of_worker_count() {
        let items = mixed_items(500);
        let cfg = ShardedConfig::default();
        for alg in Algorithm::ALL {
            let seq = pack_sharded(alg, &items, 1000, cfg, Parallelism::Sequential);
            for workers in [0, 2, 3, 8] {
                let par = pack_sharded(alg, &items, 1000, cfg, Parallelism::Rayon(workers));
                assert_eq!(seq, par, "{alg:?} diverged at {workers} workers");
            }
        }
    }

    #[test]
    fn sharded_pack_is_valid_and_conserves_bytes() {
        use crate::check::{check_packing_with, CheckOptions};
        let items = mixed_items(500);
        for alg in [
            Algorithm::SubsetSumFirstFit,
            Algorithm::FirstFit,
            Algorithm::BestFit,
        ] {
            for merge in [MergePolicy::Concat, MergePolicy::RepackTails] {
                let cfg = ShardedConfig { shards: 7, merge };
                let p = pack_sharded(alg, &items, 1000, cfg, Parallelism::Rayon(4));
                check_packing_with(
                    &items,
                    &p,
                    CheckOptions {
                        allow_empty_bins: false,
                        require_input_order: false,
                        enforce_capacity: true,
                    },
                )
                .expect("sharded packing invalid");
            }
        }
    }

    #[test]
    fn repack_tails_never_uses_more_bins_than_concat() {
        let items = mixed_items(1000);
        for alg in [Algorithm::SubsetSumFirstFit, Algorithm::FirstFit] {
            let concat = pack_sharded(
                alg,
                &items,
                1000,
                ShardedConfig {
                    shards: 8,
                    merge: MergePolicy::Concat,
                },
                Parallelism::Sequential,
            );
            let repack = pack_sharded(
                alg,
                &items,
                1000,
                ShardedConfig {
                    shards: 8,
                    merge: MergePolicy::RepackTails,
                },
                Parallelism::Sequential,
            );
            assert!(repack.len() <= concat.len(), "{alg:?}");
            assert_eq!(repack.total_size(), concat.total_size());
        }
    }

    #[test]
    fn all_oversize_input_merges_cleanly() {
        // Every bin oversize: RepackTails finds no tail to pull.
        let items = Item::from_sizes(&[2000, 3000, 4000, 5000]);
        let cfg = ShardedConfig {
            shards: 2,
            merge: MergePolicy::RepackTails,
        };
        let p = pack_sharded(
            Algorithm::FirstFit,
            &items,
            1000,
            cfg,
            Parallelism::Sequential,
        );
        assert_eq!(p.len(), 4);
        assert!(p.bins().all(|b| b.is_oversize()));
    }

    #[test]
    fn empty_input_sharded() {
        let p = pack_sharded::<Item>(
            Algorithm::SubsetSumFirstFit,
            &[],
            1000,
            ShardedConfig::default(),
            Parallelism::default(),
        );
        assert!(p.is_empty());
    }
}
