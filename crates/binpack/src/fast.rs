//! Index-structure packing kernels: the O(n log n) replacements for the
//! quadratic reference algorithms.
//!
//! Each function here is a drop-in for its `naive_*` counterpart and
//! produces a **bitwise identical** [`Packing`] — same bins, same order,
//! same members — it only changes how the next placement is found:
//!
//! * [`subset_sum_first_fit`][]: the "largest remaining item that still fits"
//!   lookup runs against a sorted multiset (`BTreeSet` keyed by
//!   `(size, Reverse(position))`) instead of rescanning the descending item
//!   list per bin. O(n²) → O(n log n).
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
//! Every kernel runs in **two passes over an index arena** instead of
//! growing per-bin `Vec`s inside the search loop:
//!
//! 1. the search pass records only `bin_of[position] -> bin index` (one
//!    `u32` per item) and a per-bin item count — no `Bin` is materialized,
//!    so the hot loop never reallocates;
//! 2. a reconstruction pass allocates every bin's member vector at its
//!    exact final length and fills it with a single in-order scan.
//!
//! The in-order scan reproduces the within-bin input ordering the naive
//! kernels guarantee, which also removes the per-bin `sort` the previous
//! subset-sum implementation needed. Together with the on-demand-grown
//! segment tree (sized to *bins*, not items) this keeps the transient
//! footprint at paper scale (18M items) to one `u32` per item plus the
//! index structures, instead of ~1 GB of pre-sized tree and doubling bin
//! vectors.
//!
//! Equivalence is pinned by differential property tests in
//! `tests/properties.rs`, which compare against the retained naive
//! implementations on randomized inputs including zero-size and oversize
//! items.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crate::check;
use crate::item::{Bin, Item};
use crate::pack::Packing;
use crate::segtree::MaxSegTree;

/// The arenas index items with `u32`, which comfortably covers the paper's
/// 18M-file corpus while halving the assignment-table footprint.
fn assert_indexable(n: usize) {
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
    i as u32 // lint:allow(RL006, bounded by assert_indexable at kernel entry)
}

/// Reconstruction pass: turn an assignment arena into bins. `counts[b]` is
/// the final member count of bin `b`, so every member vector is allocated
/// exactly once. Items are delivered in `placement` order, which callers
/// choose as input order (first-fit family, subset-sum) or a sort order
/// (first-fit decreasing).
fn bins_from_assignment<'a>(
    placement: impl Iterator<Item = (&'a Item, u32)>,
    counts: &[u32],
    capacity: u64,
) -> Vec<Bin> {
    let mut bins: Vec<Bin> = counts
        .iter()
        .map(|&c| Bin {
            items: Vec::with_capacity(c as usize),
            used: 0,
            capacity,
        })
        .collect();
    for (item, bin) in placement {
        bins[bin as usize].push(*item);
    }
    bins
}

/// Pack `items` into bins of `capacity` using greedy subset-sum first fit.
///
/// Semantics are identical to [`crate::naive_subset_sum_first_fit`]; see
/// that function for the full contract (oversize handling, tie-breaking,
/// within-bin ordering). This version indexes the open items in a sorted
/// multiset so each "largest item that still fits" draw is one range lookup,
/// and records draws into the assignment arena — the final in-order
/// reconstruction replaces the per-bin position sort of the reference.
pub fn subset_sum_first_fit(items: &[Item], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    assert_indexable(items.len());
    let mut bin_of: Vec<u32> = vec![0; items.len()];
    let mut counts: Vec<u32> = Vec::new();

    // Oversize items pass through untouched, in input order, ahead of every
    // merged bin.
    for (pos, _) in items.iter().enumerate().filter(|(_, i)| i.size > capacity) {
        bin_of[pos] = index_u32(counts.len());
        counts.push(1);
    }

    // Open items keyed by (size, Reverse(position)): the maximum key at or
    // below (free, Reverse(0)) is the largest fitting item, earliest input
    // position among equals — the same item the descending scan would take.
    let mut open: BTreeSet<(u64, Reverse<usize>)> = items
        .iter()
        .enumerate()
        .filter(|(_, i)| i.size <= capacity)
        .map(|(pos, i)| (i.size, Reverse(pos)))
        .collect();

    while !open.is_empty() {
        let bin = counts.len();
        counts.push(0);
        let mut free = capacity;
        while free > 0 {
            let Some(&key) = open.range(..=(free, Reverse(0usize))).next_back() else {
                break;
            };
            open.remove(&key);
            let (size, Reverse(pos)) = key;
            free -= size;
            bin_of[pos] = index_u32(bin);
            counts[bin] += 1;
            if open.is_empty() {
                break;
            }
        }
    }

    let bins = bins_from_assignment(items.iter().zip(bin_of.iter().copied()), &counts, capacity);
    let packing = Packing { bins, capacity };
    check::debug_check(items, &packing);
    packing
}

/// First fit over items in their input order, backed by a segment tree.
///
/// Semantics are identical to [`crate::naive_first_fit`]: each item goes to
/// the lowest-numbered open non-oversize bin with room, else a new bin
/// opens; items larger than `capacity` get dedicated oversize bins at their
/// arrival position. The segment tree keeps one slot per opened bin —
/// key = free space, or a sentinel below every size for oversize slots — so
/// the bin search is a single leftmost-at-least descent.
pub fn first_fit(items: &[Item], capacity: u64) -> Packing {
    assert_indexable(items.len());
    let order: Vec<u32> = (0..index_u32(items.len())).collect();
    first_fit_order(items, &order, capacity)
}

/// First fit with the placement order given as an index slice: equivalent
/// to running [`first_fit`] over `order.map(|i| items[i])` without
/// materializing the reordered item vector. Within-bin order is placement
/// order. Used by [`crate::first_fit_decreasing`], which passes a
/// size-sorted index slice instead of cloning and sorting the items.
pub(crate) fn first_fit_order(items: &[Item], order: &[u32], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    assert_indexable(items.len());
    // seq[k] = the bin receiving the k-th placed item (order[k]).
    let mut seq: Vec<u32> = Vec::with_capacity(order.len());
    let mut free: Vec<u64> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut tree = MaxSegTree::new(1);
    for &o in order {
        let item = items[o as usize];
        if item.size > capacity {
            // Oversize singleton at its arrival position. Its tree slot is
            // never activated: oversize bins accept nothing.
            seq.push(index_u32(counts.len()));
            counts.push(1);
            free.push(0);
            continue;
        }
        match tree.first_at_least(item.size as i128) {
            Some(idx) => {
                seq.push(index_u32(idx));
                counts[idx] += 1;
                free[idx] -= item.size;
                tree.set(idx, free[idx] as i128);
            }
            None => {
                let idx = counts.len();
                seq.push(index_u32(idx));
                counts.push(1);
                free.push(capacity - item.size);
                tree.set(idx, free[idx] as i128);
            }
        }
    }
    let bins = bins_from_assignment(
        order
            .iter()
            .map(|&o| &items[o as usize])
            .zip(seq.iter().copied()),
        &counts,
        capacity,
    );
    let packing = Packing { bins, capacity };
    check::debug_check(items, &packing);
    packing
}

/// Best fit backed by a sorted set of `(free, bin index)` pairs.
///
/// Semantics are identical to [`crate::naive_best_fit`]: each item goes to
/// the open bin where it leaves the least free space, ties broken by the
/// earliest bin — which is exactly the in-order successor of `(size, 0)` in
/// the set, since keys sort by free space first and bin index second.
pub fn best_fit(items: &[Item], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    assert_indexable(items.len());
    let mut bin_of: Vec<u32> = Vec::with_capacity(items.len());
    let mut free: Vec<u64> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut by_free: BTreeSet<(u64, usize)> = BTreeSet::new();
    for &item in items {
        if item.size > capacity {
            // Oversize bins are never candidates, so never enter the set.
            bin_of.push(index_u32(counts.len()));
            counts.push(1);
            free.push(0);
            continue;
        }
        match by_free.range((item.size, 0)..).next().copied() {
            Some(key) => {
                let (_, idx) = key;
                by_free.remove(&key);
                bin_of.push(index_u32(idx));
                counts[idx] += 1;
                free[idx] -= item.size;
                by_free.insert((free[idx], idx));
            }
            None => {
                let idx = counts.len();
                bin_of.push(index_u32(idx));
                counts.push(1);
                free.push(capacity - item.size);
                by_free.insert((free[idx], idx));
            }
        }
    }
    let bins = bins_from_assignment(items.iter().zip(bin_of.iter().copied()), &counts, capacity);
    let packing = Packing { bins, capacity };
    check::debug_check(items, &packing);
    packing
}

/// Uniform split into exactly `k` bins via LPT greedy, backed by a min-heap.
///
/// Semantics are identical to [`crate::naive_uniform_k_bins`]: items are
/// considered largest-first (ties by input position) and each goes to the
/// currently least-loaded bin, ties broken by lowest bin index — the exact
/// ordering of `Reverse<(load, index)>` in a max-heap.
pub fn uniform_k_bins(items: &[Item], k: usize) -> Packing {
    assert!(k >= 1, "need at least one bin");
    assert_indexable(items.len());
    let total: u64 = items.iter().map(|i| i.size).sum();
    let target = total.div_ceil(k as u64).max(1);

    let mut order: Vec<u32> = (0..index_u32(items.len())).collect();
    order.sort_by(|&a, &b| {
        items[b as usize]
            .size
            .cmp(&items[a as usize].size)
            .then(a.cmp(&b))
    });

    let mut bin_of: Vec<u32> = vec![0; items.len()];
    let mut counts: Vec<u32> = vec![0; k];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..k).map(|i| Reverse((0u64, i))).collect();
    for &pos in &order {
        // lint:allow(RL001, the heap is seeded with k >= 1 bins and every pop is paired with a push)
        let Reverse((load, idx)) = heap.pop().expect("heap holds k bins");
        bin_of[pos as usize] = index_u32(idx);
        counts[idx] += 1;
        heap.push(Reverse((load + items[pos as usize].size, idx)));
    }

    // The input-order reconstruction reproduces the per-bin position sort
    // of the reference.
    let bins = bins_from_assignment(items.iter().zip(bin_of.iter().copied()), &counts, target);
    let packing = Packing {
        bins,
        capacity: target,
    };
    check::debug_check_k(items, &packing, k);
    packing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kbins::naive_uniform_k_bins;
    use crate::pack::{first_fit_decreasing, naive_best_fit, naive_first_fit};
    use crate::subset_sum::naive_subset_sum_first_fit;

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
        // first_fit_decreasing routes through first_fit_order with a sorted
        // index slice; it must equal first fit over a materialized
        // stably-sorted clone (the previous implementation).
        let items = Item::from_sizes(&awkward_sizes(500, 1000));
        let mut sorted = items.clone();
        sorted.sort_by_key(|item| std::cmp::Reverse(item.size));
        assert_eq!(first_fit_decreasing(&items, 1000), first_fit(&sorted, 1000));
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
        assert!(subset_sum_first_fit(&[], 5).is_empty());
        assert!(first_fit(&[], 5).is_empty());
        assert!(best_fit(&[], 5).is_empty());
        assert_eq!(uniform_k_bins(&[], 3).len(), 3);
    }

    #[test]
    fn bin_member_vectors_are_exact_capacity() {
        // The reconstruction pass allocates each member vector at its final
        // length — no doubling slack survives into the output.
        let items = Item::from_sizes(&awkward_sizes(200, 1000));
        for p in [
            subset_sum_first_fit(&items, 1000),
            first_fit(&items, 1000),
            best_fit(&items, 1000),
        ] {
            for b in &p.bins {
                assert_eq!(b.items.capacity(), b.items.len());
            }
        }
    }
}
