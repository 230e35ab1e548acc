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

use crate::item::{Bin, Item};
use crate::pack::Packing;

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
pub fn naive_uniform_k_bins(items: &[Item], k: usize) -> Packing {
    assert!(k >= 1, "need at least one bin");
    let total: u64 = items.iter().map(|i| i.size).sum();
    let target = total.div_ceil(k as u64).max(1);

    let mut order: Vec<(usize, Item)> = items.iter().copied().enumerate().collect();
    order.sort_by(|a, b| b.1.size.cmp(&a.1.size).then(a.0.cmp(&b.0)));

    let mut assigned: Vec<Vec<(usize, Item)>> = vec![Vec::new(); k];
    let mut loads = vec![0u64; k];
    for (pos, item) in order {
        // lint:allow(RL001, the range 0..k is non-empty because k >= 1 is asserted on entry)
        let idx = (0..k).min_by_key(|&i| (loads[i], i)).unwrap();
        loads[idx] += item.size;
        assigned[idx].push((pos, item));
    }

    let bins = assigned
        .into_iter()
        .map(|mut members| {
            members.sort_by_key(|&(pos, _)| pos);
            let mut b = Bin::new(target);
            for (_, item) in members {
                b.push(item);
            }
            b
        })
        .collect();
    Packing {
        bins,
        capacity: target,
    }
}

/// Rebalance an existing capacity-driven packing into the same number of
/// bins but with uniform loads. This is the move from Fig 8(a) to Fig 8(b):
/// same instance count (same cost `r·i`), lower per-instance volume,
/// better deadline margin.
pub fn rebalance_uniform(packing: &Packing) -> Packing {
    let items: Vec<Item> = packing
        .bins
        .iter()
        .flat_map(|b| b.items.iter().copied())
        .collect();
    crate::fast::uniform_k_bins(&items, packing.len().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(p.bins.iter().filter(|b| b.is_empty()).count(), 2);
    }

    #[test]
    fn uniform_split_keeps_input_order_within_bins() {
        let items = Item::from_sizes(&[3, 9, 1, 7, 5, 2]);
        let p = naive_uniform_k_bins(&items, 2);
        for b in &p.bins {
            let ids: Vec<u64> = b.items.iter().map(|i| i.id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted);
        }
    }

    #[test]
    fn rebalance_keeps_bin_count_and_bytes() {
        let items = Item::from_sizes(&[9, 9, 9, 1, 1, 1, 1, 1, 1]);
        let cap_driven = crate::first_fit(&items, 10);
        let balanced = rebalance_uniform(&cap_driven);
        assert_eq!(balanced.len(), cap_driven.len());
        assert_eq!(balanced.total_size(), cap_driven.total_size());
        let spread_before = {
            let s = cap_driven.bin_sizes();
            s.iter().max().unwrap() - s.iter().min().unwrap()
        };
        let spread_after = {
            let s = balanced.bin_sizes();
            s.iter().max().unwrap() - s.iter().min().unwrap()
        };
        assert!(spread_after <= spread_before);
    }

    #[test]
    fn rebalance_handles_skewed_input_with_lpt() {
        // capacity-driven FF gives [8,2] [8,2] [8]; LPT rebalances to
        // 8,8,8 then the 2s top up the first two -> 10/10/8, max load 10.
        let items = Item::from_sizes(&[8, 2, 8, 2, 8]);
        let cap_driven = crate::first_fit(&items, 10);
        let balanced = rebalance_uniform(&cap_driven);
        let mut loads = balanced.bin_sizes();
        loads.sort_unstable();
        assert_eq!(loads, vec![8, 10, 10]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        naive_uniform_k_bins(&Item::from_sizes(&[1]), 0);
    }
}
