//! Runtime packing-invariant sanitizer.
//!
//! Every packing the pipeline trusts — probe-set construction, reshape,
//! provisioning bins — must conserve bytes, assign every item exactly once,
//! respect capacities (with documented oversize-singleton exceptions) and be
//! reproducible. This module checks those invariants at runtime: cheap
//! enough to run in tests and debug builds over millions of items, explicit
//! enough that a violation names the exact bin and item at fault.
//!
//! Three entry points:
//!
//! * [`check_packing`] / [`check_packing_with`] — validate one packing
//!   against the items it was built from (its members are positions into
//!   them),
//! * [`check_k_packing`] — the fixed-`k` variant (`uniform_k_bins`), where
//!   empty bins are legal and the bin count must equal `k`,
//! * [`replay_deterministic`] — run a packing closure twice and demand
//!   bitwise identical output (catches iteration-order leaks, e.g. a
//!   `HashMap` sneaking into a kernel).
//!
//! [`debug_check`] wires the default check into the packing kernels behind
//! `debug_assertions`; release builds pay nothing.

use crate::item::Size;
use crate::pack::Packing;

/// A violated packing invariant. Each variant names the offender so test
/// failures point at the bug, not just at "packing invalid". Items are
/// named by their position in the packed slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckViolation {
    /// An input item never appeared in any bin.
    ItemLost {
        /// The missing item's position.
        position: usize,
        /// Its size.
        size: u64,
    },
    /// An input item appeared in more than one bin (or twice in one).
    ItemDuplicated {
        /// The duplicated item's position.
        position: usize,
        /// Its size.
        size: u64,
    },
    /// A member position lies outside the packed slice.
    ItemForeign {
        /// The out-of-range position.
        position: usize,
    },
    /// A bin exceeds its capacity and is not a legal oversize singleton
    /// (the only documented exception: one item that alone is larger than
    /// the capacity travels in its own bin).
    BinOverCapacity {
        /// Bin index within the packing.
        bin: usize,
        /// Bytes in the bin.
        used: u64,
        /// The capacity it was packed against.
        capacity: u64,
        /// Number of items in the offending bin.
        len: usize,
    },
    /// A bin's recorded `used` disagrees with the sum of its item sizes.
    UsedMismatch {
        /// Bin index within the packing.
        bin: usize,
        /// The recorded value.
        recorded: u64,
        /// The recomputed sum.
        actual: u64,
    },
    /// Total bytes across bins differ from the input total.
    BytesNotConserved {
        /// Input total.
        expected: u64,
        /// Output total.
        actual: u64,
    },
    /// An empty bin where the algorithm family forbids them.
    EmptyBin {
        /// Bin index within the packing.
        bin: usize,
    },
    /// Items within a bin are not in input (position) order although the
    /// algorithm promises order preservation.
    OrderNotPreserved {
        /// Bin index within the packing.
        bin: usize,
    },
    /// A fixed-`k` packing produced the wrong number of bins.
    WrongBinCount {
        /// Expected bin count.
        expected: usize,
        /// Actual bin count.
        actual: usize,
    },
    /// Two runs of the same packing closure disagreed.
    NondeterministicReplay,
}

impl std::fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckViolation::ItemLost { position, size } => {
                write!(f, "item {position} ({size} bytes) lost by the packing")
            }
            CheckViolation::ItemDuplicated { position, size } => {
                write!(f, "item {position} ({size} bytes) assigned more than once")
            }
            CheckViolation::ItemForeign { position } => {
                write!(f, "member position {position} lies outside the input")
            }
            CheckViolation::BinOverCapacity {
                bin,
                used,
                capacity,
                len,
            } => write!(
                f,
                "bin {bin} holds {used} bytes across {len} items over capacity {capacity} \
                 (only single-item oversize bins may exceed it)"
            ),
            CheckViolation::UsedMismatch {
                bin,
                recorded,
                actual,
            } => {
                write!(
                    f,
                    "bin {bin} records {recorded} used bytes but holds {actual}"
                )
            }
            CheckViolation::BytesNotConserved { expected, actual } => {
                write!(f, "packing holds {actual} bytes, input had {expected}")
            }
            CheckViolation::EmptyBin { bin } => write!(f, "bin {bin} is empty"),
            CheckViolation::OrderNotPreserved { bin } => {
                write!(f, "bin {bin} items are not in input order")
            }
            CheckViolation::WrongBinCount { expected, actual } => {
                write!(f, "packing has {actual} bins, expected exactly {expected}")
            }
            CheckViolation::NondeterministicReplay => {
                write!(f, "two runs of the same packing produced different output")
            }
        }
    }
}

impl std::error::Error for CheckViolation {}

/// What the checker should demand beyond the universal invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// Permit empty bins (only fixed-`k` packers legitimately produce
    /// them).
    pub allow_empty_bins: bool,
    /// Demand ascending item ids within each bin (first-fit-family and
    /// subset-sum kernels preserve relative input order; sorting packers
    /// like first-fit-decreasing do not).
    pub require_input_order: bool,
    /// Treat the capacity as a hard cap (capacity-driven packers). Fixed-`k`
    /// packers treat it as a balancing target the largest bin may exceed,
    /// so they disable this.
    pub enforce_capacity: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            allow_empty_bins: false,
            require_input_order: false,
            enforce_capacity: true,
        }
    }
}

/// Validate `packing` against the `items` it was built from, with default
/// options (no empty bins, no ordering demand).
pub fn check_packing<T: Size>(items: &[T], packing: &Packing) -> Result<(), CheckViolation> {
    check_packing_with(items, packing, CheckOptions::default())
}

/// Validate `packing` against `items` under `options`.
///
/// Invariants checked, in order:
/// 1. per-bin accounting: every member position lies in `items`, and the
///    recorded `used` equals the members' size sum;
/// 2. capacity: regular bins fit within capacity; oversize bins are
///    singletons whose item really exceeds the capacity;
/// 3. assignment: every input position appears in exactly one bin;
/// 4. conservation: total output bytes equal total input bytes;
/// 5. optional: no empty bins / ascending positions within each bin.
pub fn check_packing_with<T: Size>(
    items: &[T],
    packing: &Packing,
    options: CheckOptions,
) -> Result<(), CheckViolation> {
    // 1 + 2 + 5: per-bin structure.
    for (i, bin) in packing.bins().enumerate() {
        if let Some(&p) = bin.members().iter().find(|&&p| p as usize >= items.len()) {
            return Err(CheckViolation::ItemForeign {
                position: p as usize,
            });
        }
        let actual: u64 = bin.items(items).map(Size::size).sum();
        if actual != bin.used() {
            return Err(CheckViolation::UsedMismatch {
                bin: i,
                recorded: bin.used(),
                actual,
            });
        }
        if bin.is_empty() && !options.allow_empty_bins {
            return Err(CheckViolation::EmptyBin { bin: i });
        }
        // Capacity: the only legal overflow is the documented oversize
        // exception — a single item that alone exceeds the capacity.
        if options.enforce_capacity && bin.used() > bin.capacity() && bin.len() != 1 {
            return Err(CheckViolation::BinOverCapacity {
                bin: i,
                used: bin.used(),
                capacity: bin.capacity(),
                len: bin.len(),
            });
        }
        if options.require_input_order && !bin.members().windows(2).all(|w| w[0] <= w[1]) {
            return Err(CheckViolation::OrderNotPreserved { bin: i });
        }
    }

    // 3: every position exactly once, scanned in bin order so repeated
    // failures report the same offender.
    let mut seen = vec![false; items.len()];
    for &p in packing.members() {
        let p = p as usize;
        if std::mem::replace(&mut seen[p], true) {
            return Err(CheckViolation::ItemDuplicated {
                position: p,
                size: items[p].size(),
            });
        }
    }
    if let Some(p) = seen.iter().position(|&s| !s) {
        return Err(CheckViolation::ItemLost {
            position: p,
            size: items[p].size(),
        });
    }

    // 4: byte conservation (redundant with 1+3, but this is the invariant
    // the paper's accounting depends on, so state it directly).
    let expected: u64 = items.iter().map(Size::size).sum();
    let actual: u64 = packing.total_size();
    if expected != actual {
        return Err(CheckViolation::BytesNotConserved { expected, actual });
    }
    Ok(())
}

/// Validate a fixed-`k` packing (`uniform_k_bins` and friends): exactly `k`
/// bins, empty bins legal, everything else as [`check_packing`].
pub fn check_k_packing<T: Size>(
    items: &[T],
    packing: &Packing,
    k: usize,
) -> Result<(), CheckViolation> {
    if packing.len() != k {
        return Err(CheckViolation::WrongBinCount {
            expected: k,
            actual: packing.len(),
        });
    }
    check_packing_with(
        items,
        packing,
        CheckOptions {
            allow_empty_bins: true,
            require_input_order: false,
            enforce_capacity: false,
        },
    )
}

/// Run `pack` twice and demand bitwise identical packings — the cheap
/// runtime probe for nondeterminism (unseeded randomness, hash-map
/// iteration order, racy parallel reductions).
pub fn replay_deterministic<F>(pack: F) -> Result<Packing, CheckViolation>
where
    F: Fn() -> Packing,
{
    let first = pack();
    let second = pack();
    if first != second {
        return Err(CheckViolation::NondeterministicReplay);
    }
    Ok(first)
}

/// Debug-build hook for the packing kernels: validates and aborts on
/// violation, compiles to nothing in release builds.
#[inline]
pub fn debug_check<T: Size>(items: &[T], packing: &Packing) {
    #[cfg(debug_assertions)]
    {
        if let Err(e) = check_packing(items, packing) {
            // lint:allow(RL002, sanitizer abort on invariant violation is the whole point)
            panic!("packing invariant violated: {e}");
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (items, packing);
    }
}

/// Debug-build hook for fixed-`k` kernels.
#[inline]
pub fn debug_check_k<T: Size>(items: &[T], packing: &Packing, k: usize) {
    #[cfg(debug_assertions)]
    {
        if let Err(e) = check_k_packing(items, packing, k) {
            // lint:allow(RL002, sanitizer abort on invariant violation is the whole point)
            panic!("packing invariant violated: {e}");
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (items, packing, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::pack::naive_first_fit;

    fn items(sizes: &[u64]) -> Vec<Item> {
        Item::from_sizes(sizes)
    }

    /// A packing of `bins` `(members, used)` at `capacity`.
    fn packing(capacity: u64, bins: &[(&[u32], u64)]) -> Packing {
        let mut p = Packing::new(capacity);
        for &(members, used) in bins {
            p.push_bin(members.iter().copied(), used);
        }
        p
    }

    #[test]
    fn valid_packing_passes() {
        let its = items(&[5, 3, 7, 2, 8, 1, 25]);
        let p = naive_first_fit(&its, 10);
        assert_eq!(check_packing(&its, &p), Ok(()));
        assert_eq!(
            check_packing_with(
                &its,
                &p,
                CheckOptions {
                    require_input_order: true,
                    ..CheckOptions::default()
                }
            ),
            Ok(())
        );
    }

    #[test]
    fn lost_item_detected() {
        let its = items(&[5, 3]);
        let p = packing(10, &[(&[0], 5)]);
        assert_eq!(
            check_packing(&its, &p),
            Err(CheckViolation::ItemLost {
                position: 1,
                size: 3
            })
        );
    }

    #[test]
    fn duplicated_item_detected() {
        let its = items(&[5, 3]);
        let p = packing(20, &[(&[0, 1, 0], 13)]);
        assert!(matches!(
            check_packing(&its, &p),
            Err(CheckViolation::ItemDuplicated { position: 0, .. })
        ));
    }

    #[test]
    fn foreign_item_detected() {
        let its = items(&[5, 3]);
        let p = packing(20, &[(&[0, 1, 99], 8)]);
        assert_eq!(
            check_packing(&its, &p),
            Err(CheckViolation::ItemForeign { position: 99 })
        );
    }

    #[test]
    fn over_capacity_detected() {
        // Both items in one bin: 12 > 10 but two items, so not a legal
        // oversize singleton.
        let its = items(&[6, 6]);
        let p = packing(10, &[(&[0, 1], 12)]);
        assert!(matches!(
            check_packing(&its, &p),
            Err(CheckViolation::BinOverCapacity { len: 2, .. })
        ));
    }

    #[test]
    fn used_cache_mismatch_detected() {
        let its = items(&[5, 3]);
        let p = packing(20, &[(&[0, 1], 9)]);
        assert!(matches!(
            check_packing(&its, &p),
            Err(CheckViolation::UsedMismatch { .. })
        ));
    }

    #[test]
    fn empty_bin_policy() {
        let its = items(&[5]);
        let p = packing(10, &[(&[0], 5), (&[], 0)]);
        assert!(matches!(
            check_packing(&its, &p),
            Err(CheckViolation::EmptyBin { .. })
        ));
        assert_eq!(check_k_packing(&its, &p, 2), Ok(()));
        assert!(matches!(
            check_k_packing(&its, &p, 3),
            Err(CheckViolation::WrongBinCount { .. })
        ));
    }

    #[test]
    fn order_violation_detected_when_demanded() {
        let its = items(&[5, 3]);
        let p = packing(20, &[(&[1, 0], 8)]);
        let opts = CheckOptions {
            require_input_order: true,
            ..CheckOptions::default()
        };
        assert!(matches!(
            check_packing_with(&its, &p, opts),
            Err(CheckViolation::OrderNotPreserved { .. })
        ));
        // Without the demand every item is still placed once, so it passes.
        assert_eq!(check_packing(&its, &p), Ok(()));
    }

    #[test]
    fn oversize_singleton_is_legal() {
        let its = items(&[25, 5]);
        let p = naive_first_fit(&its, 10);
        assert_eq!(check_packing(&its, &p), Ok(()));
    }

    #[test]
    fn replay_passes_for_deterministic_packers() {
        let its = items(&[5, 3, 7, 2, 8, 1]);
        let p = replay_deterministic(|| naive_first_fit(&its, 10)).unwrap();
        assert_eq!(p, naive_first_fit(&its, 10));
    }

    #[test]
    fn replay_catches_divergence() {
        let its = items(&[5, 3, 7]);
        let flip = std::cell::Cell::new(false);
        let err = replay_deterministic(|| {
            let cap = if flip.replace(true) { 11 } else { 10 };
            naive_first_fit(&its, cap)
        })
        .unwrap_err();
        assert_eq!(err, CheckViolation::NondeterministicReplay);
    }
}
