//! The classic online bin-packing family: first fit (in order and
//! decreasing), best fit, next fit and worst fit.
//!
//! First fit and best fit appear twice in this crate: the linear-scan
//! reference versions here (`naive_first_fit`, `naive_best_fit`, both
//! O(n·bins)) and the index-structure versions in [`crate::fast`] that the
//! public `first_fit` / `best_fit` names resolve to (O(n log n), bitwise
//! identical output). The naive versions stay as differential-test oracles.

use crate::item::{Bin, Item};
use serde::{Deserialize, Serialize};

/// The result of a packing run: bins plus the capacity they were packed
/// against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packing {
    /// Bins in creation order. Items keep their relative input order within
    /// a bin for first-fit style algorithms.
    pub bins: Vec<Bin>,
    /// Capacity used for every bin.
    pub capacity: u64,
}

impl Packing {
    /// Total bytes across all bins (equals the sum of the input sizes).
    pub fn total_size(&self) -> u64 {
        self.bins.iter().map(|b| b.used).sum()
    }

    /// Total number of items across all bins.
    pub fn total_items(&self) -> usize {
        self.bins.iter().map(|b| b.len()).sum()
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when no bins were produced (empty input).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Sizes of the bins, in bin order. These are the unit-file sizes the
    /// reshaped corpus will have.
    pub fn bin_sizes(&self) -> Vec<u64> {
        self.bins.iter().map(|b| b.used).collect()
    }
}

fn place_oversize(bins: &mut Vec<Bin>, capacity: u64, item: Item) {
    let mut b = Bin::new(capacity);
    b.push(item);
    bins.push(b);
}

/// First fit over items in their **input order**: each item goes into the
/// first open bin with room, else a new bin opens.
///
/// This is the variant the paper applies to the POS workload (§5.2): keeping
/// input order avoids sorting large files to the front, which that
/// application punishes.
///
/// Reference implementation — the production kernel is
/// [`crate::first_fit`], which produces the identical packing in O(n log n).
pub fn naive_first_fit(items: &[Item], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut bins: Vec<Bin> = Vec::new();
    for &item in items {
        if item.size > capacity {
            place_oversize(&mut bins, capacity, item);
            continue;
        }
        match bins.iter_mut().find(|b| !b.is_oversize() && b.fits(&item)) {
            Some(b) => b.push(item),
            None => {
                let mut b = Bin::new(capacity);
                b.push(item);
                bins.push(b);
            }
        }
    }
    Packing { bins, capacity }
}

/// First fit decreasing: sort sizes descending (stable by input position for
/// ties), then run first fit. Produces fuller bins than in-order first fit
/// but front-loads the large files.
///
/// Sorts an index slice rather than a cloned item vector: at paper scale the
/// clone is 16 bytes/item of pure churn, the index slice is 4.
pub fn first_fit_decreasing(items: &[Item], capacity: u64) -> Packing {
    assert!(
        items.len() < u32::MAX as usize,
        "packing arena supports at most {} items",
        u32::MAX
    );
    // The std sort, not subset-sum's radix sort. No benchmark workload
    // calls this (only the packing ablation and the algorithm sweeps do),
    // and the one other sort tried on the radix path, `uniform_k_bins`'s,
    // made `multitenant_trace` slower: `market.plan_s` 0.56–0.87 s →
    // 1.07–1.35 s (`--trace 1`, seeds 1–2).
    let mut order: Vec<u32> = (0..crate::fast::index_u32(items.len())).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(items[i as usize].size));
    crate::fast::first_fit_order(items, &order, capacity)
}

/// Best fit: each item goes to the open bin where it leaves the least free
/// space; ties broken by earliest bin.
///
/// Reference implementation — the production kernel is
/// [`crate::best_fit`], which produces the identical packing in O(n log n).
pub fn naive_best_fit(items: &[Item], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut bins: Vec<Bin> = Vec::new();
    for &item in items {
        if item.size > capacity {
            place_oversize(&mut bins, capacity, item);
            continue;
        }
        let best = bins
            .iter_mut()
            .filter(|b| !b.is_oversize() && b.fits(&item))
            .min_by_key(|b| b.free() - item.size);
        match best {
            Some(b) => b.push(item),
            None => {
                let mut b = Bin::new(capacity);
                b.push(item);
                bins.push(b);
            }
        }
    }
    Packing { bins, capacity }
}

/// Next fit: only the most recently opened bin is ever considered.
pub fn next_fit(items: &[Item], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut bins: Vec<Bin> = Vec::new();
    for &item in items {
        if item.size > capacity {
            place_oversize(&mut bins, capacity, item);
            continue;
        }
        let fits_last = bins
            .last()
            .map(|b| !b.is_oversize() && b.fits(&item))
            .unwrap_or(false);
        if fits_last {
            // lint:allow(RL001, fits_last is only true when a last bin exists)
            bins.last_mut().unwrap().push(item);
        } else {
            let mut b = Bin::new(capacity);
            b.push(item);
            bins.push(b);
        }
    }
    Packing { bins, capacity }
}

/// Worst fit: each item goes to the open bin with the **most** free space
/// that still fits it; ties broken by earliest bin. Spreads load evenly.
pub fn worst_fit(items: &[Item], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut bins: Vec<Bin> = Vec::new();
    for &item in items {
        if item.size > capacity {
            place_oversize(&mut bins, capacity, item);
            continue;
        }
        let worst = bins
            .iter_mut()
            .filter(|b| !b.is_oversize() && b.fits(&item))
            .max_by_key(|b| b.free());
        match worst {
            Some(b) => b.push(item),
            None => {
                let mut b = Bin::new(capacity);
                b.push(item);
                bins.push(b);
            }
        }
    }
    Packing { bins, capacity }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(sizes: &[u64]) -> Vec<Item> {
        Item::from_sizes(sizes)
    }

    #[test]
    fn first_fit_textbook_example() {
        // Classic example: capacity 10, sizes 5,7,5,2,4,2,5,1,6
        let p = naive_first_fit(&items(&[5, 7, 5, 2, 4, 2, 5, 1, 6]), 10);
        // FF: [5,5] [7,2,1] [4,2] [5] [6] -> 5 bins
        assert_eq!(p.len(), 5);
        assert_eq!(
            p.bins[0].items.iter().map(|i| i.size).collect::<Vec<_>>(),
            vec![5, 5]
        );
        assert_eq!(
            p.bins[1].items.iter().map(|i| i.size).collect::<Vec<_>>(),
            vec![7, 2, 1]
        );
        assert_eq!(p.total_size(), 37);
    }

    #[test]
    fn ffd_uses_fewer_or_equal_bins_here() {
        let sizes = [5, 7, 5, 2, 4, 2, 5, 1, 6];
        let ff = naive_first_fit(&items(&sizes), 10);
        let ffd = first_fit_decreasing(&items(&sizes), 10);
        assert!(ffd.len() <= ff.len());
        assert_eq!(ffd.total_size(), ff.total_size());
    }

    #[test]
    fn ffd_front_loads_large_items() {
        let p = first_fit_decreasing(&items(&[1, 9, 2, 8]), 10);
        assert_eq!(p.bins[0].items[0].size, 9);
    }

    #[test]
    fn best_fit_prefers_tightest_bin() {
        // Bins after 6 and 8: free 4 and 2. Item 2 must land in the 8-bin.
        let p = naive_best_fit(&items(&[6, 8, 2]), 10);
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.bins[1].items.iter().map(|i| i.size).collect::<Vec<_>>(),
            vec![8, 2]
        );
    }

    #[test]
    fn worst_fit_prefers_emptiest_bin() {
        let p = worst_fit(&items(&[6, 8, 2]), 10);
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.bins[0].items.iter().map(|i| i.size).collect::<Vec<_>>(),
            vec![6, 2]
        );
    }

    #[test]
    fn next_fit_never_looks_back() {
        let p = next_fit(&items(&[6, 8, 2]), 10);
        // 6 -> bin0; 8 -> bin1; 2 -> fits bin1
        assert_eq!(p.len(), 2);
        assert_eq!(p.bins[1].used, 10);
    }

    #[test]
    fn oversize_items_get_dedicated_bins() {
        let p = naive_first_fit(&items(&[4, 25, 4]), 10);
        assert_eq!(p.len(), 2);
        let over: Vec<&Bin> = p.bins.iter().filter(|b| b.is_oversize()).collect();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].len(), 1);
        assert_eq!(over[0].used, 25);
        // the two 4s share a bin, nothing joined the oversize bin
        assert_eq!(p.bins[0].items.len(), 2);
    }

    #[test]
    fn empty_input_gives_empty_packing() {
        let p = naive_first_fit(&[], 10);
        assert!(p.is_empty());
        assert_eq!(p.total_size(), 0);
    }

    #[test]
    fn zero_sized_items_do_not_open_bins_needlessly() {
        let p = naive_first_fit(&items(&[0, 0, 5]), 10);
        assert_eq!(p.len(), 1);
        assert_eq!(p.total_items(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        naive_first_fit(&items(&[1]), 0);
    }
}
