//! Summary statistics for a packing — used by probe reports and ablations.

use crate::item::fill;
use crate::pack::Packing;
use serde::{Deserialize, Serialize};

/// Aggregate quality metrics of a packing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackingStats {
    /// Number of bins produced.
    pub bins: usize,
    /// Number of oversize bins (single item above capacity).
    pub oversize_bins: usize,
    /// Total bytes packed.
    pub total_bytes: u64,
    /// Total items packed.
    pub total_items: usize,
    /// Mean fill factor over non-oversize bins (1.0 if there are none).
    pub mean_fill: f64,
    /// Minimum fill factor over non-oversize bins.
    pub min_fill: f64,
    /// Wasted capacity in bytes over non-oversize bins.
    pub waste_bytes: u64,
    /// Largest bin (bytes).
    pub max_bin_bytes: u64,
    /// Smallest bin (bytes).
    pub min_bin_bytes: u64,
}

impl PackingStats {
    /// Compute statistics for `p`.
    pub fn of(p: &Packing) -> Self {
        PackingStats::of_bins(p.capacity(), p.bins().map(|b| (b.used(), b.len())))
    }

    /// Statistics of bins packed at `capacity`, given in bin order as
    /// `(used bytes, member count)`. A caller whose bins are implicit (one
    /// file per bin, say) computes the stats without building a packing.
    pub fn of_bins(capacity: u64, bins: impl Iterator<Item = (u64, usize)> + Clone) -> Self {
        let regular = || bins.clone().filter(|&(used, _)| used <= capacity);
        let fills = || regular().map(|(used, _)| fill(used, capacity));
        let count = regular().count();
        let (mean_fill, min_fill, waste_bytes) = if count == 0 {
            (1.0, 1.0, 0)
        } else {
            let mean = fills().sum::<f64>() / count as f64;
            let min = fills().fold(f64::INFINITY, f64::min);
            (mean, min, regular().map(|(used, _)| capacity - used).sum())
        };
        let sizes = || bins.clone().map(|(used, _)| used);
        let total = bins.clone().count();
        PackingStats {
            bins: total,
            oversize_bins: total - count,
            total_bytes: sizes().sum(),
            total_items: bins.clone().map(|(_, len)| len).sum(),
            mean_fill,
            min_fill,
            waste_bytes,
            max_bin_bytes: sizes().max().unwrap_or(0),
            min_bin_bytes: sizes().min().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::first_fit;
    use crate::fast::subset_sum_first_fit;
    use crate::item::Item;

    #[test]
    fn stats_on_perfect_packing() {
        let p = subset_sum_first_fit(&Item::from_sizes(&[6, 4, 6, 4]), 10);
        let s = PackingStats::of(&p);
        assert_eq!(s.bins, 2);
        assert_eq!(s.oversize_bins, 0);
        assert!((s.mean_fill - 1.0).abs() < 1e-12);
        assert_eq!(s.waste_bytes, 0);
        assert_eq!(s.max_bin_bytes, 10);
    }

    #[test]
    fn stats_count_oversize_separately() {
        let p = first_fit(&Item::from_sizes(&[25, 5]), 10);
        let s = PackingStats::of(&p);
        assert_eq!(s.bins, 2);
        assert_eq!(s.oversize_bins, 1);
        assert_eq!(s.waste_bytes, 5); // only the regular bin's free space
        assert_eq!(s.total_bytes, 30);
    }

    #[test]
    fn stats_on_empty_packing() {
        let p = first_fit::<u64>(&[], 10);
        let s = PackingStats::of(&p);
        assert_eq!(s.bins, 0);
        assert_eq!(s.total_bytes, 0);
        assert!((s.mean_fill - 1.0).abs() < 1e-12);
    }

    #[test]
    fn implicit_bins_match_a_built_packing() {
        // One item per bin at the largest size, as the `Original` reshape
        // reports it.
        let sizes = [7u64, 0, 3, 9, 9];
        let mut p = Packing::new(9);
        for (i, &s) in sizes.iter().enumerate() {
            p.push_bin([i as u32], s);
        }
        let implicit = PackingStats::of_bins(9, sizes.iter().map(|&s| (s, 1)));
        assert_eq!(implicit, PackingStats::of(&p));
        assert_eq!(implicit.min_bin_bytes, 0);
        assert_eq!(implicit.waste_bytes, 2 + 9 + 6);
    }
}
