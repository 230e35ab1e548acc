//! Deterministic fast ≡ naive pins for subset-sum first fit on inputs the
//! randomized tests do not reach. The proptests draw fewer than 200 items
//! below 5,000 bytes and the awkward-mix unit tests stop at 4,096 items, so
//! these cases cover what lies beyond both:
//!
//! * sizes up to 2⁴⁴ at capacity 2⁴³, so a sort on the size needs four or
//!   more 11-bit digits, some items are oversize, and the total still fits
//!   a `u64`;
//! * key spans just below and at each 11-bit digit boundary;
//! * runs of equal sizes, where only input position breaks ties;
//! * zero-size items around exact-capacity items;
//! * 65,536 HTML_18mil-shaped items at two unit sizes.

use binpack::{naive_subset_sum_first_fit, subset_sum_first_fit, Item};
use corpus::hash::splitmix64;

/// Compare the kernel with the reference without printing two whole
/// packings on failure.
fn assert_fast_matches_naive(items: &[Item], capacity: u64, what: &str) {
    let fast = subset_sum_first_fit(items, capacity);
    let naive = naive_subset_sum_first_fit(items, capacity);
    let first_diff = fast.bins.iter().zip(&naive.bins).position(|(f, n)| f != n);
    assert!(
        fast == naive,
        "{what}: fast {} bins, naive {} bins, first differing bin {first_diff:?}",
        fast.len(),
        naive.len()
    );
}

/// `n` sizes drawn uniformly from `lo..=hi` (`hi < u64::MAX`) by a seeded
/// splitmix64 stream.
fn uniform_sizes(n: usize, lo: u64, hi: u64, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| lo + splitmix64(seed ^ i) % (hi - lo + 1))
        .collect()
}

#[test]
fn wide_sizes_with_oversize_items_match_naive() {
    const CAP: u64 = 1 << 43;
    for (n, seed) in [(1_000, 1), (4_096, 2)] {
        let sizes = uniform_sizes(n, 0, 1 << 44, seed);
        assert!(sizes.iter().any(|&s| s > CAP), "no oversize item drawn");
        assert!(
            sizes
                .iter()
                .try_fold(0u64, |t, &s| t.checked_add(s))
                .is_some(),
            "total overflows u64"
        );
        let items = Item::from_sizes(&sizes);
        assert_fast_matches_naive(&items, CAP, &format!("n={n} sizes≤2^44 cap=2^43"));
    }
}

#[test]
fn key_spans_at_digit_boundaries_match_naive() {
    // A fitting size span of 2^k - 1 needs exactly ⌈k/11⌉ digits; 2^k needs
    // one more bit. Both sides of each boundary, with a floor above zero so
    // the span, not the largest size, sets the digit count.
    for bits in [11u32, 22, 33, 44] {
        for span in [(1u64 << bits) - 1, 1u64 << bits] {
            let floor = 1u64 << 12;
            let cap = floor + span;
            let mut sizes = uniform_sizes(2_000, floor, cap, u64::from(bits) ^ span);
            // Pin both ends of the span so it is exact.
            sizes[0] = floor;
            sizes[1] = cap;
            let items = Item::from_sizes(&sizes);
            assert_fast_matches_naive(&items, cap, &format!("span={span}"));
        }
    }
}

#[test]
fn equal_sizes_keep_input_order_and_match_naive() {
    for (n, size, cap) in [(1_000, 7, 50), (3_000, 1 << 40, 5 << 40), (2_048, 0, 9)] {
        let items = Item::from_sizes(&vec![size; n]);
        let fast = subset_sum_first_fit(&items, cap);
        // Among equal sizes the scan takes the earliest position first, so
        // bins hold consecutive runs of the input.
        let ids: Vec<u64> = fast
            .bins
            .iter()
            .flat_map(|b| b.items.iter().map(|i| i.id))
            .collect();
        assert_eq!(
            ids,
            (0..n as u64).collect::<Vec<_>>(),
            "size={size} cap={cap}"
        );
        assert_fast_matches_naive(&items, cap, &format!("{n} items of size {size}"));
    }
    // Equal runs interleaved with other sizes.
    let sizes: Vec<u64> = (0..4_000u64)
        .map(|i| [300, 300, 700, 300, 1_000, 0][(splitmix64(i) % 6) as usize])
        .collect();
    assert_fast_matches_naive(&Item::from_sizes(&sizes), 1_000, "interleaved runs");
}

#[test]
fn zero_size_items_around_exact_capacity_items_match_naive() {
    const CAP: u64 = 1_000;
    let cases: [&[u64]; 5] = [
        &[0, CAP, 0],
        &[0, 0, CAP, 0, 0, CAP, 0],
        &[CAP, 0, 400, 0, 600, 0, CAP],
        &[0, 600, 0, 400, 0, CAP, 0, 0],
        &[CAP + 1, 0, CAP, 0, CAP - 1, 1, 0],
    ];
    for sizes in cases {
        assert_fast_matches_naive(&Item::from_sizes(sizes), CAP, &format!("{sizes:?}"));
    }
    // A longer mix: zeros, exact fits and complements that fill a bin to
    // exactly zero free space.
    let sizes: Vec<u64> = (0..5_000u64)
        .map(|i| match splitmix64(i ^ 0x5eed) % 5 {
            0 | 1 => 0,
            2 => CAP,
            3 => 250,
            _ => 750,
        })
        .collect();
    assert_fast_matches_naive(&Item::from_sizes(&sizes), CAP, "zero/exact mix");
}

#[test]
fn html_18mil_shaped_items_match_naive() {
    // 65,536 files at two unit sizes: 10 MB (a few hundred files per bin)
    // and 2 MB (tens of files per bin, with the largest files oversize).
    let manifest = corpus::html_18mil(65_536.0 / 18_000_000.0, 11);
    assert!(manifest.len() >= 65_536);
    let items: Vec<Item> = manifest
        .files
        .iter()
        .map(|f| Item::new(f.id, f.size))
        .collect();
    assert!(items.iter().any(|i| i.size > 2_000_000), "no oversize file");
    for cap in [10_000_000, 2_000_000] {
        assert_fast_matches_naive(&items, cap, &format!("HTML_18mil-shaped, cap={cap}"));
    }
}
