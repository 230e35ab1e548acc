//! Items (files), the size every kernel reads from them, and the borrowed
//! view of one bin of a packing.

use serde::{Deserialize, Serialize};

/// Identifier of an item. Packing never inspects it; it exists so callers can
/// map bins back to the original files they were built from.
pub type ItemId = u64;

/// What the packing kernels read from an item: its size in bytes. The
/// kernels take `&[T]` for any `T: Size` and read sizes in place, so a
/// caller packs its own records (`u64` sizes, [`Item`]s, a corpus
/// manifest's file specs) without building a copy of them.
pub trait Size {
    /// Size in bytes. Zero-sized items are legal and occupy no capacity.
    fn size(&self) -> u64;
}

impl Size for u64 {
    fn size(&self) -> u64 {
        *self
    }
}

/// A single file to pack: an opaque id plus its size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Item {
    /// Caller-provided identifier (e.g. index into a corpus manifest).
    pub id: ItemId,
    /// Size in bytes. Zero-sized items are legal and occupy no capacity.
    pub size: u64,
}

impl Size for Item {
    fn size(&self) -> u64 {
        self.size
    }
}

impl Item {
    /// Create an item with the given id and size.
    pub fn new(id: ItemId, size: u64) -> Self {
        Item { id, size }
    }

    /// Build items from bare sizes, ids assigned by position.
    pub fn from_sizes(sizes: &[u64]) -> Vec<Item> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| Item::new(i as u64, s))
            .collect()
    }
}

/// One bin of a [`crate::Packing`]: a unit file assembled from a group of
/// items, borrowed from the packing's flat arrays.
///
/// Its members are positions into the slice that was packed, in the order
/// they will be concatenated; [`Bin::items`] resolves them. An item larger
/// than the capacity is placed alone in an *oversize* bin — the paper's
/// corpora contain such files (HTML_18mil max is 43 MB) and they cannot be
/// split, so they travel as-is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bin<'a> {
    members: &'a [u32],
    used: u64,
    capacity: u64,
}

impl<'a> Bin<'a> {
    pub(crate) fn new(members: &'a [u32], used: u64, capacity: u64) -> Self {
        Bin {
            members,
            used,
            capacity,
        }
    }

    /// Positions of the members in the packed slice, in concatenation
    /// order.
    pub fn members(&self) -> &'a [u32] {
        self.members
    }

    /// The members themselves, looked up in `packed`, the slice the
    /// packing was built from.
    pub fn items<T>(&self, packed: &'a [T]) -> impl Iterator<Item = &'a T> + 'a {
        self.members.iter().map(move |&p| &packed[p as usize])
    }

    /// Sum of the member sizes.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Capacity this bin was packed against.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Remaining free space; zero when the bin is at or over capacity
    /// (oversize bins report zero, never underflow).
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    /// Number of items in the bin.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the bin contains no items.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True when the single item inside exceeds the capacity.
    pub fn is_oversize(&self) -> bool {
        self.used > self.capacity
    }

    /// Fill factor in `[0, 1]` for regular bins; oversize bins report 1.
    pub fn fill(&self) -> f64 {
        fill(self.used, self.capacity)
    }
}

/// Fill factor of `used` bytes at `capacity`: in `[0, 1]`, 1 when oversize
/// or when the capacity is zero.
pub(crate) fn fill(used: u64, capacity: u64) -> f64 {
    if capacity == 0 {
        return 1.0;
    }
    (used.min(capacity)) as f64 / capacity as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_accounting() {
        let b = Bin::new(&[0, 1], 100, 100);
        assert_eq!(b.free(), 0);
        assert_eq!(b.len(), 2);
        assert!((b.fill() - 1.0).abs() < 1e-12);
        assert!(!b.is_oversize());
        let half = Bin::new(&[0], 60, 100);
        assert_eq!(half.free(), 40);
        assert!((half.fill() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn oversize_bin_reports_zero_free() {
        let b = Bin::new(&[0], 25, 10);
        assert!(b.is_oversize());
        assert_eq!(b.free(), 0);
        assert!((b.fill() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_bin_fill_defined() {
        let b = Bin::new(&[], 0, 0);
        assert!(b.is_empty());
        assert!((b.fill() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn items_resolve_member_positions() {
        let items = Item::from_sizes(&[3, 1, 4]);
        let b = Bin::new(&[2, 0], 7, 10);
        let ids: Vec<u64> = b.items(&items).map(|it| it.id).collect();
        assert_eq!(ids, vec![2, 0]);
    }

    #[test]
    fn from_sizes_assigns_positional_ids() {
        let items = Item::from_sizes(&[3, 1, 4]);
        assert_eq!(items[2], Item::new(2, 4));
        assert_eq!(items[2].size(), 4);
        assert_eq!(4u64.size(), 4);
    }
}
