//! The flat [`Packing`] every kernel returns, the assignment the kernels
//! fill before it is laid out, and the classic online bin-packing family:
//! first fit (in order and decreasing), best fit, next fit and worst fit.
//!
//! First fit and best fit appear twice in this crate: the linear-scan
//! reference versions here (`naive_first_fit`, `naive_best_fit`, both
//! O(n·bins)) and the index-structure versions in [`crate::fast`] that the
//! public `first_fit` / `best_fit` names resolve to (O(n log n), bitwise
//! identical output). The naive versions stay as differential-test oracles.

use crate::fast::{assert_indexable, checked_u32, index_u32};
use crate::item::{Bin, Size};
use serde::Serialize;

/// The result of a packing run, read in place: the members of every bin as
/// `u32` positions into the packed slice, grouped by bin, plus each bin's
/// end offset into that array and its used bytes. [`Packing::bin`] and
/// [`Packing::bins`] lend out [`Bin`] views; no bin owns a heap block, so a
/// packing costs four bytes per item and twelve per bin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Packing {
    /// Member positions, bin after bin, each bin's in concatenation order.
    members: Vec<u32>,
    /// `ends[b]`: one past bin `b`'s last member in `members`.
    ends: Vec<u32>,
    /// `used[b]`: the bytes in bin `b`.
    used: Vec<u64>,
    /// Capacity used for every bin.
    capacity: u64,
}

impl Packing {
    /// A packing with no bins, at `capacity`.
    pub fn new(capacity: u64) -> Self {
        Packing::from_parts(Vec::new(), Vec::new(), Vec::new(), capacity)
    }

    pub(crate) fn from_parts(
        members: Vec<u32>,
        ends: Vec<u32>,
        used: Vec<u64>,
        capacity: u64,
    ) -> Self {
        debug_assert_eq!(ends.len(), used.len());
        debug_assert_eq!(ends.last().map_or(0, |&e| e as usize), members.len());
        Packing {
            members,
            ends,
            used,
            capacity,
        }
    }

    /// Append a bin of `members` (positions into the packed slice) holding
    /// `used` bytes. Nothing checks `used` here; [`crate::check_packing`]
    /// compares it with the members' sizes. Panics when the packing would
    /// hold `u32::MAX` members or more.
    pub fn push_bin(&mut self, members: impl IntoIterator<Item = u32>, used: u64) {
        self.members.extend(members);
        self.ends.push(checked_u32(self.members.len()));
        self.used.push(used);
    }

    /// Capacity used for every bin.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bin `b`. Panics when `b` is out of range.
    pub fn bin(&self, b: usize) -> Bin<'_> {
        let start = if b == 0 { 0 } else { self.ends[b - 1] as usize };
        let end = self.ends[b] as usize;
        Bin::new(&self.members[start..end], self.used[b], self.capacity)
    }

    /// Bins in creation order. Items keep their relative input order
    /// within a bin for first-fit style algorithms.
    pub fn bins(
        &self,
    ) -> impl DoubleEndedIterator<Item = Bin<'_>> + ExactSizeIterator + Clone + '_ {
        (0..self.len()).map(move |b| self.bin(b))
    }

    /// Every member position, bin after bin.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Each bin's end offset into [`Packing::members`].
    pub(crate) fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// Total bytes across all bins (equals the sum of the input sizes).
    pub fn total_size(&self) -> u64 {
        self.used.iter().sum()
    }

    /// Total number of items across all bins.
    pub fn total_items(&self) -> usize {
        self.members.len()
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no bins were produced (empty input).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Sizes of the bins, in bin order. These are the unit-file sizes the
    /// reshaped corpus will have.
    pub fn bin_sizes(&self) -> &[u64] {
        &self.used
    }

    /// Append the bins of `a`, an assignment of the items that follow the
    /// ones this packing already holds: its positions start at
    /// [`Packing::total_items`].
    pub(crate) fn append(&mut self, a: &Assignment) {
        let base = self.members.len();
        assert_indexable(base + a.bin_of.len());
        self.members.resize(base + a.bin_of.len(), 0);
        let ends = a.scatter(&mut self.members[base..], index_u32(base));
        self.ends.extend(ends);
        self.used.extend_from_slice(&a.used);
    }

    /// Drop the bins at the ascending indices `drop`, keeping the order of
    /// the rest: their members move down over the gaps in one pass.
    pub(crate) fn remove_bins(&mut self, drop: &[usize]) {
        let mut drop = drop.iter().copied().peekable();
        let (mut write, mut start, mut kept) = (0, 0, 0);
        for b in 0..self.len() {
            let end = self.ends[b] as usize;
            if drop.peek() == Some(&b) {
                drop.next();
            } else {
                self.members.copy_within(start..end, write);
                write += end - start;
                self.ends[kept] = index_u32(write);
                self.used[kept] = self.used[b];
                kept += 1;
            }
            start = end;
        }
        self.members.truncate(write);
        self.ends.truncate(kept);
        self.used.truncate(kept);
    }

    /// Append the bins of `other`, a packing of a slice gathered at the
    /// positions `through`, with its members mapped back through them.
    pub(crate) fn extend_through(&mut self, other: &Packing, through: &[u32]) {
        let base = self.members.len();
        assert_indexable(base + other.members.len());
        self.members
            .extend(other.members.iter().map(|&p| through[p as usize]));
        self.ends
            .extend(other.ends.iter().map(|&e| index_u32(base + e as usize)));
        self.used.extend_from_slice(&other.used);
    }
}

/// A kernel's placements before its members are laid out: the `k`-th
/// placed item, at position `order[k]` (position `k` when there is no
/// `order`), joins bin `bin_of[k]`. Every kernel fills one and
/// [`Assignment::into_packing`] or [`Assignment::scatter`] lays it out.
pub(crate) struct Assignment {
    pub(crate) order: Option<Vec<u32>>,
    pub(crate) bin_of: Vec<u32>,
    pub(crate) counts: Vec<u32>,
    pub(crate) used: Vec<u64>,
}

impl Assignment {
    /// An assignment whose items will be pushed in input order.
    pub(crate) fn in_order(n: usize) -> Self {
        assert_indexable(n);
        Assignment {
            order: None,
            bin_of: Vec::with_capacity(n),
            counts: Vec::new(),
            used: Vec::new(),
        }
    }

    /// An assignment of `n` items set by position in any order.
    pub(crate) fn by_position(n: usize) -> Self {
        Assignment {
            bin_of: vec![0; n],
            ..Assignment::in_order(n)
        }
    }

    /// Number of bins opened so far.
    pub(crate) fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Open an empty bin and return its index.
    pub(crate) fn open(&mut self) -> usize {
        self.counts.push(0);
        self.used.push(0);
        self.counts.len() - 1
    }

    /// The next placed item, `size` bytes, joins `bin`.
    pub(crate) fn push(&mut self, bin: usize, size: u64) {
        self.bin_of.push(index_u32(bin));
        self.counts[bin] += 1;
        self.used[bin] += size;
    }

    /// The item at `pos`, `size` bytes, joins `bin`.
    pub(crate) fn set(&mut self, pos: usize, bin: usize, size: u64) {
        self.bin_of[pos] = index_u32(bin);
        self.counts[bin] += 1;
        self.used[bin] += size;
    }

    /// Whether `size` bytes fit in `bin`: a regular bin with room.
    pub(crate) fn fits(&self, bin: usize, size: u64, capacity: u64) -> bool {
        self.used[bin] <= capacity && size <= capacity - self.used[bin]
    }

    /// Lay the members out in `members` (one slot per placed item), bin
    /// after bin and in placement order within a bin, as positions offset
    /// by `base`. Returns the bins' end offsets, also offset by `base`:
    /// `members` is the range of the packing's array that starts at
    /// `base`.
    pub(crate) fn scatter(&self, members: &mut [u32], base: u32) -> Vec<u32> {
        let mut ends = Vec::with_capacity(self.counts.len());
        let mut end = base;
        for &c in &self.counts {
            end += c;
            ends.push(end);
        }
        // next[b]: the slot bin b's next member goes to.
        let mut next: Vec<u32> = ends
            .iter()
            .zip(&self.counts)
            .map(|(&e, &c)| e - c - base)
            .collect();
        let mut put = |pos: u32, bin: u32| {
            let slot = &mut next[bin as usize];
            members[*slot as usize] = base + pos;
            *slot += 1;
        };
        match &self.order {
            None => {
                for (pos, &bin) in self.bin_of.iter().enumerate() {
                    put(index_u32(pos), bin);
                }
            }
            Some(order) => {
                for (&pos, &bin) in order.iter().zip(&self.bin_of) {
                    put(pos, bin);
                }
            }
        }
        ends
    }

    /// The packing this assignment describes, at `capacity`.
    pub(crate) fn into_packing(self, capacity: u64) -> Packing {
        let mut packing = Packing::new(capacity);
        packing.append(&self);
        packing
    }
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
pub fn naive_first_fit<T: Size>(items: &[T], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut a = Assignment::in_order(items.len());
    for item in items {
        let size = item.size();
        // An oversize item fits no bin, so it opens its own.
        let found = (0..a.bins()).find(|&b| a.fits(b, size, capacity));
        let bin = found.unwrap_or_else(|| a.open());
        a.push(bin, size);
    }
    a.into_packing(capacity)
}

/// Best fit: each item goes to the open bin where it leaves the least free
/// space; ties broken by earliest bin.
///
/// Reference implementation — the production kernel is
/// [`crate::best_fit`], which produces the identical packing in O(n log n).
pub fn naive_best_fit<T: Size>(items: &[T], capacity: u64) -> Packing {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut a = Assignment::in_order(items.len());
    for item in items {
        let size = item.size();
        let best = (0..a.bins())
            .filter(|&b| a.fits(b, size, capacity))
            .min_by_key(|&b| capacity - a.used[b] - size);
        let bin = best.unwrap_or_else(|| a.open());
        a.push(bin, size);
    }
    a.into_packing(capacity)
}

/// Next fit: only the most recently opened bin is ever considered.
pub(crate) fn next_fit_assign<T: Size>(items: &[T], capacity: u64) -> Assignment {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut a = Assignment::in_order(items.len());
    for item in items {
        let size = item.size();
        let last = a.bins().checked_sub(1);
        let bin = match last {
            Some(b) if a.fits(b, size, capacity) => b,
            _ => a.open(),
        };
        a.push(bin, size);
    }
    a
}

/// Worst fit: each item goes to the open bin with the **most** free space
/// that still fits it; among equally empty bins the latest wins. Spreads
/// load evenly.
pub(crate) fn worst_fit_assign<T: Size>(items: &[T], capacity: u64) -> Assignment {
    assert!(capacity > 0, "bin capacity must be positive");
    let mut a = Assignment::in_order(items.len());
    for item in items {
        let size = item.size();
        let worst = (0..a.bins())
            .filter(|&b| a.fits(b, size, capacity))
            .max_by_key(|&b| capacity - a.used[b]);
        let bin = worst.unwrap_or_else(|| a.open());
        a.push(bin, size);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::Algorithm;

    fn items(sizes: &[u64]) -> Vec<Item> {
        Item::from_sizes(sizes)
    }

    /// The member sizes of bin `b`.
    fn sizes_of(p: &Packing, items: &[Item], b: usize) -> Vec<u64> {
        p.bin(b).items(items).map(|i| i.size).collect()
    }

    #[test]
    fn first_fit_textbook_example() {
        // Classic example: capacity 10, sizes 5,7,5,2,4,2,5,1,6
        let its = items(&[5, 7, 5, 2, 4, 2, 5, 1, 6]);
        let p = naive_first_fit(&its, 10);
        // FF: [5,5] [7,2,1] [4,2] [5] [6] -> 5 bins
        assert_eq!(p.len(), 5);
        assert_eq!(sizes_of(&p, &its, 0), vec![5, 5]);
        assert_eq!(sizes_of(&p, &its, 1), vec![7, 2, 1]);
        assert_eq!(p.total_size(), 37);
    }

    #[test]
    fn ffd_uses_fewer_or_equal_bins_here() {
        let sizes = [5, 7, 5, 2, 4, 2, 5, 1, 6];
        let ff = naive_first_fit(&items(&sizes), 10);
        let ffd = Algorithm::FirstFitDecreasing.pack(&items(&sizes), 10);
        assert!(ffd.len() <= ff.len());
        assert_eq!(ffd.total_size(), ff.total_size());
    }

    #[test]
    fn ffd_front_loads_large_items() {
        let its = items(&[1, 9, 2, 8]);
        let p = Algorithm::FirstFitDecreasing.pack(&its, 10);
        assert_eq!(sizes_of(&p, &its, 0)[0], 9);
    }

    #[test]
    fn best_fit_prefers_tightest_bin() {
        // Bins after 6 and 8: free 4 and 2. Item 2 must land in the 8-bin.
        let its = items(&[6, 8, 2]);
        let p = naive_best_fit(&its, 10);
        assert_eq!(p.len(), 2);
        assert_eq!(sizes_of(&p, &its, 1), vec![8, 2]);
    }

    #[test]
    fn worst_fit_prefers_emptiest_bin() {
        let its = items(&[6, 8, 2]);
        let p = Algorithm::WorstFit.pack(&its, 10);
        assert_eq!(p.len(), 2);
        assert_eq!(sizes_of(&p, &its, 0), vec![6, 2]);
    }

    #[test]
    fn worst_fit_breaks_ties_toward_the_latest_bin() {
        // Bins of 6 and 6 have equal room; the 2 joins the second.
        let its = items(&[6, 6, 2]);
        let p = Algorithm::WorstFit.pack(&its, 10);
        assert_eq!(sizes_of(&p, &its, 1), vec![6, 2]);
    }

    #[test]
    fn next_fit_never_looks_back() {
        let p = Algorithm::NextFit.pack(&items(&[6, 8, 2]), 10);
        // 6 -> bin0; 8 -> bin1; 2 -> fits bin1
        assert_eq!(p.len(), 2);
        assert_eq!(p.bin(1).used(), 10);
    }

    #[test]
    fn oversize_items_get_dedicated_bins() {
        let p = naive_first_fit(&items(&[4, 25, 4]), 10);
        assert_eq!(p.len(), 2);
        let over: Vec<Bin> = p.bins().filter(|b| b.is_oversize()).collect();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].len(), 1);
        assert_eq!(over[0].used(), 25);
        // the two 4s share a bin, nothing joined the oversize bin
        assert_eq!(p.bin(0).len(), 2);
    }

    #[test]
    fn empty_input_gives_empty_packing() {
        let p = naive_first_fit::<Item>(&[], 10);
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
    fn sizes_pack_in_place_like_items() {
        let sizes = [5u64, 7, 5, 2, 4, 2, 5, 1, 6];
        assert_eq!(
            naive_first_fit(&sizes, 10),
            naive_first_fit(&items(&sizes), 10)
        );
    }

    #[test]
    fn removing_bins_keeps_the_rest_in_order() {
        let its = items(&[5, 7, 5, 2, 4, 2, 5, 1, 6]);
        let mut p = naive_first_fit(&its, 10);
        p.remove_bins(&[0, 2]);
        assert_eq!(p.len(), 3);
        assert_eq!(sizes_of(&p, &its, 0), vec![7, 2, 1]);
        assert_eq!(sizes_of(&p, &its, 1), vec![5]);
        assert_eq!(p.bin_sizes(), &[10, 5, 6]);
        assert_eq!(p.total_items(), 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        naive_first_fit(&items(&[1]), 0);
    }
}
