//! Index-structure packing kernels: the O(n log n) replacements for the
//! quadratic reference algorithms.
//!
//! Each function here is a drop-in for its `naive_*` counterpart and
//! produces a **bitwise identical** [`Packing`] — same bins, same order,
//! same members — it only changes how the next placement is found:
//!
//! * [`subset_sum_first_fit`][]: one word per fitting item,
//!   `(top − size) << b | position`, and one stable LSD radix sort of those
//!   words put the items in the reference's scan order (size descending,
//!   then position); each "largest remaining item that still fits" draw is
//!   a galloping search forward over the sorted words plus a next-untaken
//!   union-find lookup, instead of a rescan of the whole list per bin.
//!   O(n²) → O(n log n) worst case, over flat arrays only (timings in
//!   `results/BENCH_packing.json`).
//! * [`first_fit`][]: "first open bin with room" runs against a max
//!   segment tree over per-bin free space ([`crate::segtree`]) instead of a
//!   linear bin scan. O(n·bins) → O(n log n).
//! * [`best_fit`][]: "tightest bin that fits" runs against a `BTreeSet` keyed
//!   by `(free, bin index)` — the successor of `(size, 0)` is exactly the
//!   minimum-slack, earliest-index bin. O(n·bins) → O(n log n).
//! * [`uniform_k_bins`][]: "least-loaded bin" pops from a min-heap keyed by
//!   `(load, bin index)`. O(n·k) → O(n log k).
//!
//! # Memory discipline (the 18M-item hot loop)
//!
//! Every kernel reads sizes in place from the slice it packs (`&[T]` for
//! any [`Size`]) and runs in **two passes over an index arena**:
//!
//! 1. the search pass records only which bin each placed item joins (one
//!    `u32` per item) and a per-bin item count and byte total — no bin is
//!    materialized, so the hot loop never reallocates;
//! 2. a layout pass writes every member position, as a `u32`, into one
//!    flat array grouped by bin: each bin's slot range is known from the
//!    counts, and a single in-order scan fills it.
//!
//! That array, the per-bin end offsets and the per-bin bytes *are* the
//! [`Packing`]: four bytes per item, twelve per bin, no heap block per
//! bin. The in-order scan reproduces the within-bin input ordering the
//! naive kernels guarantee, with no per-bin sort. Together with the
//! on-demand-grown segment tree (sized to *bins*, not items) this keeps
//! the transient footprint at paper scale (18M items) to one `u32` per
//! item plus the index structures. Subset-sum's index structure is one
//! array of 8-byte words, each a sort key above its item's position, that
//! the radix sort and the greedy draws both read. A fitting item costs 20
//! bytes at most: its word, its slot in the radix sort's second buffer and
//! its bin slot while the sort runs; the buffer is freed before the draws
//! allocate the `u32` union-find link. Keys whose bits, with the
//! position's, exceed 64 take 16-byte words. The sharded pack
//! ([`crate::pack_sharded`]) lays each shard's members straight into that
//! shard's range of the one output array.
//!
//! Equivalence is pinned by differential property tests in
//! `tests/properties.rs`, which compare against the retained naive
//! implementations on randomized inputs including zero-size and oversize
//! items.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crate::check;
use crate::item::Size;
use crate::pack::{Assignment, Packing};
use crate::segtree::MaxSegTree;
use crate::Algorithm;

/// The arenas index items with `u32`, which comfortably covers the paper's
/// 18M-file corpus while halving the assignment-table footprint.
pub(crate) fn assert_indexable(n: usize) {
    assert!(
        n < u32::MAX as usize,
        "packing arena supports at most {} items, got {n}",
        u32::MAX
    );
}

/// Narrowing index cast, sound because [`assert_indexable`] bounds every
/// kernel's item and bin counts below `u32::MAX` on entry.
#[inline]
pub(crate) fn index_u32(i: usize) -> u32 {
    i as u32 // lint:allow(RL006, bounded by assert_indexable at kernel entry or in checked_u32)
}

/// `n` as a `u32` after [`assert_indexable`]: for the running totals no
/// kernel entry bounds, such as a packing's member count as bins are
/// appended to it.
pub(crate) fn checked_u32(n: usize) -> u32 {
    assert_indexable(n);
    index_u32(n)
}

/// Pack `items` into bins of `capacity` using greedy subset-sum first fit.
///
/// Semantics are identical to [`crate::naive_subset_sum_first_fit`]; see
/// that function for the full contract (oversize handling, tie-breaking,
/// within-bin ordering). The reference rescans its size-descending list for
/// every bin; this version finds each "largest item that still fits" with a
/// galloping search over the same list and skips taken items with a
/// next-untaken union-find, and records draws into the assignment arena —
/// the final in-order layout replaces the per-bin position sort of the
/// reference.
pub fn subset_sum_first_fit<T: Size>(items: &[T], capacity: u64) -> Packing {
    Algorithm::SubsetSumFirstFit.pack(items, capacity)
}

pub(crate) fn subset_sum_assign<T: Size>(items: &[T], capacity: u64) -> Assignment {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut a = Assignment::by_position(items.len());

    // Oversize items pass through untouched, in input order, ahead of every
    // merged bin. The fitting ones give the largest and smallest fitting
    // size and their count.
    let (mut top, mut low, mut fitting) = (0, u64::MAX, 0);
    for (pos, item) in items.iter().enumerate() {
        let size = item.size();
        if size > capacity {
            let bin = a.open();
            a.set(pos, bin, size);
        } else {
            top = top.max(size);
            low = low.min(size);
            fitting += 1;
        }
    }
    if fitting == 0 {
        return a;
    }
    let span = top - low;
    if bit_width(span) + position_bits(items.len()) <= u64::BITS {
        draw::<u64, T>(items, capacity, top, span, fitting, a)
    } else {
        draw::<u128, T>(items, capacity, top, span, fitting, a)
    }
}

/// The greedy draws over the sorted words: bin after bin, the first
/// untaken word whose item fits what is left of the bin.
fn draw<W: Word, T: Size>(
    items: &[T],
    capacity: u64,
    top: u64,
    span: u64,
    fitting: usize,
    mut a: Assignment,
) -> Assignment {
    let b = position_bits(items.len());
    let position_mask = (1 << b) - 1;
    let words: Vec<W> = sorted_words(items, capacity, top, span, fitting, b);
    let m = words.len();
    // next[k] is k while the k-th word is untaken; taking it links k to
    // k + 1. Slot m is the sentinel "none left".
    let mut next: Vec<u32> = (0..=index_u32(m)).collect();
    let mut left = m;
    while left > 0 {
        let bin = a.open();
        let mut free = capacity;
        let mut from = 0;
        loop {
            // An item fits when its key is at least top − free. Above the
            // span none does, and shifting that threshold into a word could
            // drop its high bits.
            let least = top.saturating_sub(free);
            if least > span {
                break;
            }
            // Every untaken word before `from` was too large for this bin
            // at an earlier draw, and `free` only shrinks, so the first
            // untaken word from the first fitting index on is the one the
            // descending scan takes.
            let fits = gallop(&words, from, W::new(least, 0, b));
            let pick = next_untaken(&mut next, fits);
            if pick == m {
                break;
            }
            next[pick] = index_u32(pick + 1);
            let word = words[pick];
            let size = top - word.bits_from(b);
            free -= size;
            a.set((word.bits_from(0) & position_mask) as usize, bin, size);
            left -= 1;
            if free == 0 || left == 0 {
                break;
            }
            from = pick + 1;
        }
    }
    a
}

/// Significant bits of `x`: 0 for 0, else one past the highest set bit.
fn bit_width(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// The bits a position into `n > 0` items takes in a word.
fn position_bits(n: usize) -> u32 {
    bit_width(n as u64 - 1)
}

/// A sort word `key << b | position`, `b` = [`position_bits`]: comparing
/// words compares keys first and positions second. A `u64` holds it when
/// the key span's bits and `b` fit in 64; a `u128` always does.
trait Word: Copy + Ord + Default {
    /// The word of `key` at position `pos`, which must fit `b` bits.
    fn new(key: u64, pos: usize, b: u32) -> Self;
    /// The low 64 bits of the word shifted right by `shift`: the key when
    /// `shift` is `b`, the position (under a mask) when it is 0.
    fn bits_from(self, shift: u32) -> u64;
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            #[inline]
            fn new(key: u64, pos: usize, b: u32) -> Self {
                (<$t>::from(key) << b) | pos as $t
            }
            #[inline]
            fn bits_from(self, shift: u32) -> u64 {
                (self >> shift) as u64
            }
        }
    )*};
}
word!(u64, u128);

/// Bits per radix digit: 2¹³ `u32` counters (32 KB) fit in L1, and
/// HTML_18mil's 26-bit key span sorts in two passes.
const DIGIT_BITS: u32 = 13;

/// The words `(top − size) << b | position` of the `fitting` items of at
/// most `capacity` bytes, in the reference's scan order: key ascending
/// (size descending), then position.
///
/// A stable LSD radix sort over the key bits only: as many digit passes
/// as the key span needs, each over one array and its buffer. The pass that
/// builds the words, in position order, counts every digit's histogram.
fn sorted_words<T: Size, W: Word>(
    items: &[T],
    capacity: u64,
    top: u64,
    span: u64,
    fitting: usize,
    b: u32,
) -> Vec<W> {
    const MASK: u64 = (1 << DIGIT_BITS) - 1;
    let passes = bit_width(span).div_ceil(DIGIT_BITS) as usize;
    let mut counts = vec![[0u32; 1 << DIGIT_BITS]; passes];
    let mut words = Vec::with_capacity(fitting);
    for (pos, item) in items.iter().enumerate() {
        let size = item.size();
        if size <= capacity {
            let key = top - size;
            let mut digits = key;
            for count in &mut counts {
                count[(digits & MASK) as usize] += 1;
                digits >>= DIGIT_BITS;
            }
            words.push(W::new(key, pos, b));
        }
    }
    let mut buffer = vec![W::default(); words.len()];
    let mut shift = b;
    for mut start in counts {
        let mut sum = 0;
        for slot in start.iter_mut() {
            let count = *slot;
            *slot = sum;
            sum += count;
        }
        for &word in &words {
            let d = (word.bits_from(shift) & MASK) as usize;
            buffer[start[d] as usize] = word;
            start[d] += 1;
        }
        std::mem::swap(&mut words, &mut buffer);
        shift += DIGIT_BITS;
    }
    words
}

/// The first index at or after `from` (at most `words.len()`) whose word is
/// at least `threshold`, or `words.len()` when none is: an exponential probe
/// forward from `from`, then a binary search inside the last step. Costs
/// O(log distance).
fn gallop<W: Word>(words: &[W], from: usize, threshold: W) -> usize {
    if from == words.len() || words[from] >= threshold {
        return from;
    }
    // words[lo] < threshold throughout; the answer lies in (lo, hi].
    let mut lo = from;
    let mut step = 1;
    let hi = loop {
        let probe = lo + step;
        if probe >= words.len() {
            break words.len();
        }
        if words[probe] >= threshold {
            break probe;
        }
        lo = probe;
        step *= 2;
    };
    lo + 1 + words[lo + 1..hi].partition_point(|&w| w < threshold)
}

/// The first untaken index at or after `k`, halving the path it walks.
fn next_untaken(next: &mut [u32], mut k: usize) -> usize {
    while next[k] as usize != k {
        let up = next[next[k] as usize];
        next[k] = up;
        k = up as usize;
    }
    k
}

/// First fit over items in their input order, backed by a segment tree.
///
/// Semantics are identical to [`crate::naive_first_fit`]: each item goes to
/// the lowest-numbered open non-oversize bin with room, else a new bin
/// opens; items larger than `capacity` get dedicated oversize bins at their
/// arrival position. The segment tree keeps one slot per opened bin —
/// key = free space, or a sentinel below every size for oversize slots — so
/// the bin search is a single leftmost-at-least descent.
pub fn first_fit<T: Size>(items: &[T], capacity: u64) -> Packing {
    Algorithm::FirstFit.pack(items, capacity)
}

pub(crate) fn first_fit_assign<T: Size>(items: &[T], capacity: u64) -> Assignment {
    first_fit_placing(items, 0..items.len(), capacity)
}

/// First fit decreasing's placements: first fit over a size-sorted index
/// slice, without materializing the reordered items. Within-bin order is
/// placement order.
pub(crate) fn first_fit_decreasing_assign<T: Size>(items: &[T], capacity: u64) -> Assignment {
    assert_indexable(items.len());
    // The std sort, not subset-sum's radix sort. No benchmark workload
    // calls this (only the packing ablation and the algorithm sweeps do),
    // and the one other sort tried on the radix path, `uniform_k_bins`'s,
    // made `multitenant_trace` slower: `market.plan_s` 0.56–0.87 s →
    // 1.07–1.35 s (`--trace 1`, seeds 1–2).
    let mut order: Vec<u32> = (0..index_u32(items.len())).collect();
    order.sort_by_key(|&i| Reverse(items[i as usize].size()));
    let mut a = first_fit_placing(items, order.iter().map(|&o| o as usize), capacity);
    a.order = Some(order);
    a
}

/// First fit placing the items at `positions`, in that order.
fn first_fit_placing<T: Size>(
    items: &[T],
    positions: impl Iterator<Item = usize>,
    capacity: u64,
) -> Assignment {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut a = Assignment::in_order(items.len());
    let mut tree = MaxSegTree::new(1);
    for pos in positions {
        let size = items[pos].size();
        if size > capacity {
            // Oversize singleton at its arrival position. Its tree slot is
            // never activated: oversize bins accept nothing.
            let bin = a.open();
            a.push(bin, size);
            continue;
        }
        let bin = match tree.first_at_least(size as i128) {
            Some(idx) => idx,
            None => a.open(),
        };
        a.push(bin, size);
        tree.set(bin, (capacity - a.used[bin]) as i128);
    }
    a
}

/// Best fit backed by a sorted set of `(free, bin index)` pairs.
///
/// Semantics are identical to [`crate::naive_best_fit`]: each item goes to
/// the open bin where it leaves the least free space, ties broken by the
/// earliest bin — which is exactly the in-order successor of `(size, 0)` in
/// the set, since keys sort by free space first and bin index second.
pub fn best_fit<T: Size>(items: &[T], capacity: u64) -> Packing {
    Algorithm::BestFit.pack(items, capacity)
}

pub(crate) fn best_fit_assign<T: Size>(items: &[T], capacity: u64) -> Assignment {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut a = Assignment::in_order(items.len());
    let mut by_free: BTreeSet<(u64, usize)> = BTreeSet::new();
    for item in items {
        let size = item.size();
        if size > capacity {
            // Oversize bins are never candidates, so never enter the set.
            let bin = a.open();
            a.push(bin, size);
            continue;
        }
        let bin = match by_free.range((size, 0)..).next().copied() {
            Some(key) => {
                by_free.remove(&key);
                key.1
            }
            None => a.open(),
        };
        a.push(bin, size);
        by_free.insert((capacity - a.used[bin], bin));
    }
    a
}

/// Uniform split into exactly `k` bins via LPT greedy, backed by a min-heap.
///
/// Semantics are identical to [`crate::naive_uniform_k_bins`]: items are
/// considered largest-first (ties by input position) and each goes to the
/// currently least-loaded bin, ties broken by lowest bin index — the exact
/// ordering of `Reverse<(load, index)>` in a max-heap.
pub fn uniform_k_bins<T: Size>(items: &[T], k: usize) -> Packing {
    assert!(k >= 1, "need at least one bin");
    assert_indexable(items.len());
    let total: u64 = items.iter().map(Size::size).sum();
    let target = total.div_ceil(k as u64).max(1);

    // The std sort, not subset-sum's radix sort: a planner's job is ~430
    // unit files that are all 1 MB but the last, which the std sort orders
    // in one linear pass and a radix sort in several. Routed through the
    // radix sort, `multitenant_trace` (`--trace 1`, seeds 1–2) spent
    // 1.07–1.35 s in `market.plan_s` instead of 0.56–0.87 s, and
    // 0.38–0.47 s in `sched.admit_s` instead of 0.19–0.29 s.
    let mut order: Vec<u32> = (0..index_u32(items.len())).collect();
    order.sort_by(|&a, &b| {
        items[b as usize]
            .size()
            .cmp(&items[a as usize].size())
            .then(a.cmp(&b))
    });

    let mut a = Assignment::by_position(items.len());
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..k).map(|_| Reverse((0u64, a.open()))).collect();
    for &pos in &order {
        // lint:allow(RL001, the heap is seeded with k >= 1 bins and every pop is paired with a push)
        let Reverse((load, idx)) = heap.pop().expect("heap holds k bins");
        let size = items[pos as usize].size();
        a.set(pos as usize, idx, size);
        heap.push(Reverse((load + size, idx)));
    }

    // The input-order layout reproduces the per-bin position sort of the
    // reference.
    let packing = a.into_packing(target);
    check::debug_check_k(items, &packing, k);
    packing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::kbins::naive_uniform_k_bins;
    use crate::pack::{naive_best_fit, naive_first_fit};
    use crate::subset_sum::naive_subset_sum_first_fit;
    use crate::Algorithm;

    /// A deterministic pseudo-random size mix with zeros, duplicates and
    /// oversize values — the awkward cases for index-structure rewrites.
    fn awkward_sizes(n: usize, cap: u64) -> Vec<u64> {
        let mut state = 0x9E37_79B9u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match state % 17 {
                    0 => 0,                     // zero-size items
                    1 => cap,                   // exact-capacity items
                    2 => cap + 1 + state % 100, // oversize items
                    _ => state % (cap + 1),
                }
            })
            .collect()
    }

    /// Input sizes for the fast ≡ naive pins: the small mix, and one well
    /// above the proptests' 200-item ceiling, because production runs the
    /// fast kernel at every input size.
    const AWKWARD_NS: [usize; 2] = [500, 4_096];

    #[test]
    fn subset_sum_matches_naive_on_awkward_mix() {
        for n in AWKWARD_NS {
            let items = Item::from_sizes(&awkward_sizes(n, 1000));
            assert_eq!(
                subset_sum_first_fit(&items, 1000),
                naive_subset_sum_first_fit(&items, 1000),
                "n = {n}"
            );
        }
    }

    #[test]
    fn first_fit_matches_naive_on_awkward_mix() {
        for n in AWKWARD_NS {
            let items = Item::from_sizes(&awkward_sizes(n, 1000));
            assert_eq!(
                first_fit(&items, 1000),
                naive_first_fit(&items, 1000),
                "n = {n}"
            );
        }
    }

    #[test]
    fn best_fit_matches_naive_on_awkward_mix() {
        for n in AWKWARD_NS {
            let items = Item::from_sizes(&awkward_sizes(n, 1000));
            assert_eq!(
                best_fit(&items, 1000),
                naive_best_fit(&items, 1000),
                "n = {n}"
            );
        }
    }

    #[test]
    fn uniform_k_bins_matches_naive_on_awkward_mix() {
        let items = Item::from_sizes(&awkward_sizes(500, 1000));
        for k in [1, 2, 7, 64, 501] {
            assert_eq!(uniform_k_bins(&items, k), naive_uniform_k_bins(&items, k));
        }
    }

    #[test]
    fn ffd_index_order_matches_clone_and_sort() {
        // first_fit_decreasing places through a sorted index slice; its
        // bins must hold the items first fit puts in each bin of a
        // materialized stably-sorted clone (the previous implementation).
        let items = Item::from_sizes(&awkward_sizes(500, 1000));
        let mut sorted = items.clone();
        sorted.sort_by_key(|item| std::cmp::Reverse(item.size));
        let ids = |p: &Packing, packed: &[Item]| -> Vec<Vec<u64>> {
            p.bins()
                .map(|b| b.items(packed).map(|it| it.id).collect())
                .collect()
        };
        assert_eq!(
            ids(&Algorithm::FirstFitDecreasing.pack(&items, 1000), &items),
            ids(&first_fit(&sorted, 1000), &sorted)
        );
    }

    #[test]
    fn all_zero_items_share_one_bin() {
        let items = Item::from_sizes(&[0, 0, 0]);
        let p = subset_sum_first_fit(&items, 10);
        assert_eq!(p.len(), 1);
        assert_eq!(p.total_items(), 3);
        assert_eq!(p, naive_subset_sum_first_fit(&items, 10));
    }

    #[test]
    fn zero_after_exact_fill_opens_new_bin() {
        // The naive scan breaks out of a bin the moment free hits zero, so a
        // zero-size item must NOT ride along in a perfectly filled bin.
        let items = Item::from_sizes(&[10, 0]);
        let p = subset_sum_first_fit(&items, 10);
        assert_eq!(p.len(), 2);
        assert_eq!(p, naive_subset_sum_first_fit(&items, 10));
    }

    #[test]
    fn empty_input_all_kernels() {
        let none: &[Item] = &[];
        assert!(subset_sum_first_fit(none, 5).is_empty());
        assert!(first_fit(none, 5).is_empty());
        assert!(best_fit(none, 5).is_empty());
        assert_eq!(uniform_k_bins(none, 3).len(), 3);
    }

    #[test]
    fn packing_holds_one_member_slot_per_item() {
        // The layout pass writes every member once into one flat array.
        let items = Item::from_sizes(&awkward_sizes(200, 1000));
        for p in [
            subset_sum_first_fit(&items, 1000),
            first_fit(&items, 1000),
            best_fit(&items, 1000),
        ] {
            assert_eq!(p.members().len(), items.len());
            let mut seen = p.members().to_vec();
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..items.len() as u32));
        }
    }

    #[test]
    fn checked_u32_passes_indexable_totals() {
        assert_eq!(checked_u32(0), 0);
        assert_eq!(checked_u32(u32::MAX as usize - 1), u32::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "packing arena supports at most")]
    fn checked_u32_refuses_a_total_that_would_wrap() {
        // A plain cast would turn this member count into end offset 0.
        checked_u32(u32::MAX as usize + 1);
    }
}
