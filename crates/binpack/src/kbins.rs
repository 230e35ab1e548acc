//! Packing into exactly `k` bins — the provisioning step.
//!
//! Once the planner decides on `i` instances, the data set must be split
//! into `i` bins. The paper does this two ways (§5.2):
//!
//! * **capacity-driven**: first fit in input order against the capacity
//!   `x₀ = f⁻¹(D)` prescribed by the performance model (Fig 8(a)), which can
//!   leave the last bin nearly empty;
//! * **uniform**: distribute the volume evenly, `V/i` per bin (Fig 8(b)),
//!   which lowers every instance's finishing time below the deadline at the
//!   same cost `r·i`.

use crate::item::Size;
use crate::pack::{Assignment, Packing};

/// Uniform split into exactly `k` bins using longest-processing-time
/// greedy: items are considered largest-first and each goes to the
/// currently least-loaded bin; afterwards the items inside every bin are
/// restored to input order so concatenation stays stable.
///
/// Guarantees exactly `k` bins (some possibly empty when there are fewer
/// items than bins) and a max−min load spread bounded by the largest item
/// size — for corpora of many small files the loads are near-identical.
///
/// Reference implementation (O(n·k) bin selection) — the production kernel
/// is [`crate::uniform_k_bins`], which produces the identical packing in
/// O(n log k) via a min-heap.
pub fn naive_uniform_k_bins<T: Size>(items: &[T], k: usize) -> Packing {
    assert!(k >= 1, "need at least one bin");
    let total: u64 = items.iter().map(Size::size).sum();
    let target = total.div_ceil(k as u64).max(1);

    let mut order: Vec<(usize, u64)> = items.iter().map(Size::size).enumerate().collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut a = Assignment::by_position(items.len());
    for _ in 0..k {
        a.open();
    }
    for (pos, size) in order {
        // lint:allow(RL001, the range 0..k is non-empty because k >= 1 is asserted on entry)
        let idx = (0..k).min_by_key(|&i| (a.used[i], i)).unwrap();
        a.set(pos, idx, size);
    }
    // The input-order layout restores input order within every bin.
    a.into_packing(target)
}

/// Rebalance an existing capacity-driven packing of `items` into the same
/// number of bins but with uniform loads. This is the move from Fig 8(a) to
/// Fig 8(b): same instance count (same cost `r·i`), lower per-instance
/// volume, better deadline margin. The members are taken in bin order, as
/// the capacity-driven bins would be concatenated.
pub fn rebalance_uniform<T: Size>(items: &[T], packing: &Packing) -> Packing {
    let members = packing.members();
    let sizes: Vec<u64> = members.iter().map(|&p| items[p as usize].size()).collect();
    let balanced = crate::fast::uniform_k_bins(&sizes, packing.len().max(1));
    let mut out = Packing::new(balanced.capacity());
    out.extend_through(&balanced, members);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    #[test]
    fn uniform_split_balances_loads() {
        let items = Item::from_sizes(&[1; 1000]);
        let p = naive_uniform_k_bins(&items, 7);
        assert_eq!(p.len(), 7);
        let sizes = p.bin_sizes();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "loads {sizes:?} not balanced");
        assert_eq!(p.total_size(), 1000);
    }

    #[test]
    fn uniform_split_with_fewer_items_than_bins() {
        let items = Item::from_sizes(&[5, 5]);
        let p = naive_uniform_k_bins(&items, 4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.total_items(), 2);
        assert_eq!(p.bins().filter(|b| b.is_empty()).count(), 2);
    }

    #[test]
    fn uniform_split_keeps_input_order_within_bins() {
        let items = Item::from_sizes(&[3, 9, 1, 7, 5, 2]);
        let p = naive_uniform_k_bins(&items, 2);
        for b in p.bins() {
            assert!(b.members().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn rebalance_keeps_bin_count_and_bytes() {
        let items = Item::from_sizes(&[9, 9, 9, 1, 1, 1, 1, 1, 1]);
        let cap_driven = crate::first_fit(&items, 10);
        let balanced = rebalance_uniform(&items, &cap_driven);
        assert_eq!(balanced.len(), cap_driven.len());
        assert_eq!(balanced.total_size(), cap_driven.total_size());
        let spread = |s: &[u64]| s.iter().max().unwrap() - s.iter().min().unwrap();
        assert!(spread(balanced.bin_sizes()) <= spread(cap_driven.bin_sizes()));
        crate::check::check_k_packing(&items, &balanced, cap_driven.len()).unwrap();
    }

    #[test]
    fn rebalance_handles_skewed_input_with_lpt() {
        // capacity-driven FF gives [8,2] [8,2] [8]; LPT rebalances to
        // 8,8,8 then the 2s top up the first two -> 10/10/8, max load 10.
        let items = Item::from_sizes(&[8, 2, 8, 2, 8]);
        let cap_driven = crate::first_fit(&items, 10);
        let balanced = rebalance_uniform(&items, &cap_driven);
        let mut loads = balanced.bin_sizes().to_vec();
        loads.sort_unstable();
        assert_eq!(loads, vec![8, 10, 10]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        naive_uniform_k_bins(&Item::from_sizes(&[1]), 0);
    }
}
