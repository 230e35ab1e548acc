//! Derived probes: packings at multiples of a base unit size.
//!
//! The paper packs a probe once at unit size `s0` and then derives the
//! probes at `s1, …, sn` (chosen as multiples of `s0`) by merging the
//! existing bins, "since we avoid rerunning the first fit bin packing
//! algorithm, but can be sensitive to the quality of the original bins of
//! size s0" (§4). We reproduce that: `derive_merged` merges `m` consecutive
//! bins into one.

use crate::pack::Packing;

/// Merge every `factor` consecutive bins of `base` into one bin of capacity
/// `factor · base.capacity()`. The final merged bin may cover fewer than
/// `factor` source bins. Oversize source bins merge like any other —
/// after merging their content typically fits the larger unit. Members
/// keep their order, so the merged packing has the base's member array and
/// only its per-bin arrays are new.
pub fn derive_merged(base: &Packing, factor: usize) -> Packing {
    assert!(factor >= 1, "merge factor must be at least 1");
    let ends = base.ends().chunks(factor).filter_map(|c| c.last().copied());
    let used = base.bin_sizes().chunks(factor).map(|c| c.iter().sum());
    Packing::from_parts(
        base.members().to_vec(),
        ends.collect(),
        used.collect(),
        base.capacity() * factor as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::subset_sum_first_fit;
    use crate::item::Item;

    #[test]
    fn merging_halves_bin_count() {
        let items = Item::from_sizes(&[10; 8]);
        let base = subset_sum_first_fit(&items, 10);
        assert_eq!(base.len(), 8);
        let merged = derive_merged(&base, 2);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.capacity(), 20);
        assert_eq!(merged.total_size(), base.total_size());
        assert_eq!(merged.total_items(), base.total_items());
        assert_eq!(merged.bin(1).members(), &[2, 3]);
    }

    #[test]
    fn ragged_tail_bin_allowed() {
        let items = Item::from_sizes(&[10; 5]);
        let base = subset_sum_first_fit(&items, 10);
        let merged = derive_merged(&base, 2);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.bin(2).used(), 10); // lone tail bin
    }

    #[test]
    fn factor_one_is_identity_on_content() {
        let items = Item::from_sizes(&[3, 7, 5, 5]);
        let base = subset_sum_first_fit(&items, 10);
        assert_eq!(derive_merged(&base, 1), base);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_factor_rejected() {
        let base = subset_sum_first_fit(&Item::from_sizes(&[1]), 10);
        derive_merged(&base, 0);
    }
}
