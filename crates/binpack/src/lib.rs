//! Bin-packing heuristics for reshaping small-file corpora.
//!
//! The paper reshapes a corpus of many small files into larger *unit files*
//! of a preferred size by concatenation. The grouping step is the classic
//! bin-packing problem: given items (file sizes) and a bin capacity (the
//! desired unit file size), assign every item to a bin so that bins are as
//! full as possible.
//!
//! A [`Packing`] is read in place: one flat array of member positions into
//! the packed slice, grouped by bin, plus per-bin end offsets and used
//! bytes; a [`Bin`] is a borrowed view of it. Every kernel takes `&[T]` for
//! any `T: `[`Size`] and reads the sizes where they lie, so a caller packs
//! its own records without copying them into items first.
//!
//! This crate provides:
//!
//! * the **subset-sum first fit** heuristic the paper uses (§4, §5.2),
//! * the standard first-fit family (in input order and decreasing),
//!   best-fit, next-fit and worst-fit for comparison/ablation,
//! * **one O(n log n) kernel per algorithm**: [`subset_sum_first_fit`],
//!   [`first_fit`], [`best_fit`] and [`uniform_k_bins`] are backed by a
//!   radix-sorted array searched by galloping with a next-untaken
//!   union-find, a segment tree, an ordered set and a min-heap
//!   respectively, and produce bitwise identical packings to the quadratic
//!   `naive_*` scans — which stay public only as the reference for the
//!   differential tests and the baseline of the perf gate,
//! * a deterministic sharded pack ([`pack_sharded`]) whose output is
//!   independent of its [`Parallelism`] worker count,
//! * **derived probes**: given a packing at unit size `s0`, directly derive
//!   packings at unit sizes `m·s0` by merging consecutive bins
//!   ([`derive_merged`]) — the trick the paper uses to avoid re-running
//!   first fit for every probe size,
//! * **k-bin packing** with optional uniform balancing, used when a
//!   provisioning plan prescribes exactly `i` instances (Fig 8(b)),
//! * packing statistics (fill factor, waste, bin count).
//!
//! All algorithms are deterministic and preserve the relative input order of
//! items *within* each bin, so concatenated unit files have reproducible
//! content.

#![forbid(unsafe_code)]

pub mod check;
pub mod container;
mod derive;
mod fast;
mod item;
mod kbins;
mod pack;
mod parallel;
mod segtree;
mod stats;
pub mod stream;
mod subset_sum;

pub use check::{
    check_k_packing, check_packing, check_packing_with, replay_deterministic, CheckOptions,
    CheckViolation,
};
pub use container::{
    container_from_bin, crc32, member_name_hash, Container, ContainerError, ContainerWriter,
    MemberEntry, FORMAT_VERSION, MAGIC,
};
pub use derive::derive_merged;
pub use fast::{best_fit, first_fit, subset_sum_first_fit, uniform_k_bins};
pub use item::{Bin, Item, ItemId, Size};
pub use kbins::{naive_uniform_k_bins, rebalance_uniform};
pub use pack::{
    first_fit_decreasing, naive_best_fit, naive_first_fit, next_fit, worst_fit, Packing,
};
pub use parallel::{pack_sharded, shard_ranges, MergePolicy, Parallelism, ShardedConfig};
pub use stats::PackingStats;
pub use stream::{
    compact_underfull, CompactionStats, SealCause, SealPolicy, SegmentSummary, StreamConfig,
    StreamOutcome, StreamPacker, StreamStats,
};
pub use subset_sum::naive_subset_sum_first_fit;

/// Strategy selector for packing algorithms, useful for ablation benches and
/// configuration files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// First fit over items in their input order (the paper's default for
    /// POS bins, §5.2: avoids clustering large files in early bins).
    FirstFit,
    /// First fit decreasing: sort by size descending first. Fuller bins, but
    /// front-loads large files.
    FirstFitDecreasing,
    /// Best fit: place each item in the fullest bin it fits in.
    BestFit,
    /// Next fit: only ever consider the most recent bin.
    NextFit,
    /// Worst fit: place each item in the emptiest open bin.
    WorstFit,
    /// Subset-sum first fit: greedily top up each bin with the largest
    /// remaining items that still fit (the paper's merging heuristic).
    SubsetSumFirstFit,
}

impl Algorithm {
    /// Run the selected algorithm over `items` with bin `capacity`. The
    /// packing's members are positions into `items`.
    pub fn pack<T: Size>(self, items: &[T], capacity: u64) -> Packing {
        let packing = self.assign(items, capacity).into_packing(capacity);
        check::debug_check(items, &packing);
        packing
    }

    /// The selected algorithm's placements, before they are laid out.
    pub(crate) fn assign<T: Size>(self, items: &[T], capacity: u64) -> pack::Assignment {
        match self {
            Algorithm::FirstFit => fast::first_fit_assign(items, capacity),
            Algorithm::FirstFitDecreasing => fast::first_fit_decreasing_assign(items, capacity),
            Algorithm::BestFit => fast::best_fit_assign(items, capacity),
            Algorithm::NextFit => pack::next_fit_assign(items, capacity),
            Algorithm::WorstFit => pack::worst_fit_assign(items, capacity),
            Algorithm::SubsetSumFirstFit => fast::subset_sum_assign(items, capacity),
        }
    }

    /// All algorithm variants, for sweeps.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::FirstFit,
        Algorithm::FirstFitDecreasing,
        Algorithm::BestFit,
        Algorithm::NextFit,
        Algorithm::WorstFit,
        Algorithm::SubsetSumFirstFit,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_dispatch_preserves_bytes() {
        let items: Vec<Item> = [5u64, 3, 7, 2, 8, 1]
            .iter()
            .enumerate()
            .map(|(i, &s)| Item::new(i as u64, s))
            .collect();
        for alg in Algorithm::ALL {
            let p = alg.pack(&items, 10);
            assert_eq!(p.total_size(), 26, "{alg:?} lost bytes");
        }
    }
}
