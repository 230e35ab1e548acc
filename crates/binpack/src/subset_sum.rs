//! The subset-sum first fit heuristic (Vazirani, as cited by the paper) —
//! reference implementation.
//!
//! Plain first fit fills a bin with whatever happens to arrive while it has
//! room. The subset-sum variant instead closes bins one at a time: for the
//! current bin it repeatedly takes the **largest remaining item that still
//! fits**, approximating the subset of remaining items whose sizes sum
//! closest to the capacity. The result is bins that match the desired unit
//! file size much more tightly, which is exactly what the paper wants when
//! reshaping a probe to a target unit size.
//!
//! This module holds the O(n²) reference version; the production kernel with
//! identical output lives in [`crate::fast`] and is what
//! [`crate::subset_sum_first_fit`] resolves to.

use crate::fast::{assert_indexable, index_u32};
use crate::item::Size;
use crate::pack::Packing;

/// Pack `items` into bins of `capacity` using greedy subset-sum first fit —
/// the quadratic reference implementation.
///
/// For each bin, items are drawn largest-first among those that fit the
/// remaining space; ties are broken by input position (earlier first), and
/// the items inside a bin are finally re-ordered by input position so
/// concatenation order remains stable. All items larger than `capacity` are
/// emitted as dedicated oversize bins **first**, in input order, ahead of
/// every merged bin — an oversize item is never interleaved between merged
/// bins, even when it arrives late in the input.
///
/// [`crate::subset_sum_first_fit`] produces the identical packing in
/// O(n log n); this version is retained as the differential-testing oracle
/// and for line-by-line correspondence with the paper's description.
pub fn naive_subset_sum_first_fit<T: Size>(items: &[T], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    assert_indexable(items.len());
    let mut packing = Packing::new(capacity);

    // Oversize items pass through untouched.
    for (pos, item) in items.iter().enumerate() {
        if item.size() > capacity {
            packing.push_bin([index_u32(pos)], item.size());
        }
    }

    // Remaining items, sorted by size descending (stable on input order).
    let mut pos: Vec<(u32, u64)> = (0..index_u32(items.len()))
        .map(|p| (p, items[p as usize].size()))
        .filter(|&(_, size)| size <= capacity)
        .collect();
    pos.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut taken = vec![false; pos.len()];
    let mut remaining = pos.len();
    while remaining > 0 {
        let mut members: Vec<u32> = Vec::new();
        let mut free = capacity;
        // Greedy: scan the descending list, take everything that fits.
        for (k, &(orig, size)) in pos.iter().enumerate() {
            if taken[k] || size > free {
                continue;
            }
            taken[k] = true;
            remaining -= 1;
            free -= size;
            members.push(orig);
            if free == 0 {
                break;
            }
        }
        // Restore input order within the bin for stable concatenation.
        members.sort_unstable();
        packing.push_bin(members, capacity - free);
    }

    packing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::pack::naive_first_fit;

    fn items(sizes: &[u64]) -> Vec<Item> {
        Item::from_sizes(sizes)
    }

    #[test]
    fn fills_bins_tighter_than_first_fit() {
        // FF on this input wastes space; subset-sum finds exact fits.
        let sizes = [6, 6, 6, 4, 4, 4];
        let ss = naive_subset_sum_first_fit(&items(&sizes), 10);
        let ff = naive_first_fit(&items(&sizes), 10);
        assert_eq!(ss.len(), 3); // three perfect 6+4 bins
        assert!(ss.len() <= ff.len());
        for b in ss.bins() {
            assert_eq!(b.used(), 10);
        }
    }

    #[test]
    fn conserves_items_and_bytes() {
        let sizes = [9, 1, 8, 2, 7, 3, 6, 4, 5, 5];
        let p = naive_subset_sum_first_fit(&items(&sizes), 10);
        assert_eq!(p.total_items(), sizes.len());
        assert_eq!(p.total_size(), sizes.iter().sum::<u64>());
    }

    #[test]
    fn bin_contents_keep_input_order() {
        let p = naive_subset_sum_first_fit(&items(&[4, 6]), 10);
        assert_eq!(p.len(), 1);
        assert_eq!(p.bin(0).members(), &[0, 1]);
    }

    #[test]
    fn oversize_handled_separately() {
        let p = naive_subset_sum_first_fit(&items(&[30, 6, 4]), 10);
        assert_eq!(p.len(), 2);
        assert!(p.bin(0).is_oversize());
        assert_eq!(p.bin(1).used(), 10);
    }

    #[test]
    fn all_oversize_bins_precede_all_merged_bins() {
        // Pins the documented contract: every oversize bin comes first, in
        // input order, even when regular items arrive before the oversize
        // ones — there is no interleaving by arrival position.
        let p = naive_subset_sum_first_fit(&items(&[5, 30, 5, 40]), 10);
        assert_eq!(p.len(), 3);
        assert!(p.bin(0).is_oversize());
        assert!(p.bin(1).is_oversize());
        assert_eq!(p.bin(0).used(), 30); // input order among oversize
        assert_eq!(p.bin(1).used(), 40);
        assert!(!p.bin(2).is_oversize());
        assert_eq!(p.bin(2).used(), 10); // the two 5s merged at the back
    }

    #[test]
    fn never_overflows_regular_bins() {
        let sizes: Vec<u64> = (1..=50).map(|i| (i * 7) % 13 + 1).collect();
        let p = naive_subset_sum_first_fit(&sizes, 20);
        for b in p.bins() {
            assert!(b.is_oversize() || b.used() <= 20);
        }
    }

    #[test]
    fn empty_input() {
        let p = naive_subset_sum_first_fit::<u64>(&[], 10);
        assert!(p.is_empty());
    }
}
