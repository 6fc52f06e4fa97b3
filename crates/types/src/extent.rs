//! Extent lists: normalized sets of disjoint byte ranges.
//!
//! An [`ExtentList`] models the file-space footprint of a non-contiguous
//! I/O request. It maintains the invariant that its ranges are **sorted,
//! non-empty, disjoint, and non-adjacent** (adjacent ranges are coalesced),
//! so two extent lists describing the same byte set are structurally equal.
//!
//! The set algebra here is the workhorse of the whole system:
//! * the MPI-I/O layer flattens derived datatypes into extent lists;
//! * the versioning backend commits one extent list per atomic write;
//! * the lock-based baseline computes covering ranges and conflicts;
//! * the conflict-detection ADIO driver intersects extent lists to decide
//!   whether locking is needed;
//! * the verifier subtracts and intersects them to attribute bytes.

use crate::range::ByteRange;
use serde::{DeError, Decode, Deserialize, Encode, Reader, Serialize, Value};
use std::fmt;

/// A normalized (sorted, coalesced, disjoint) set of byte ranges.
///
/// ```
/// use atomio_types::{ByteRange, ExtentList};
///
/// // Construction normalizes: sorts, merges overlaps, coalesces
/// // adjacency.
/// let a = ExtentList::from_pairs([(10u64, 10u64), (0, 10), (30, 5)]);
/// assert_eq!(a.ranges(), &[ByteRange::new(0, 20), ByteRange::new(30, 5)]);
///
/// // Set algebra drives conflict detection and the verifier.
/// let b = ExtentList::from_pairs([(15u64, 20u64)]);
/// assert!(a.overlaps(&b));
/// assert_eq!(a.intersection(&b).total_len(), 5 + 5); // [15,20) and [30,35)
/// assert_eq!(a.subtract(&b).total_len(), 15);         // [0,15)
///
/// // The covering range is what a locking baseline must lock —
/// // including the gap it never touches.
/// assert_eq!(a.covering_range(), ByteRange::new(0, 35));
/// assert_eq!(a.gap_len(), 10);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Encode)]
pub struct ExtentList {
    ranges: Vec<ByteRange>,
}

// By hand: the derives would take the ranges as they come, and every set
// operation here assumes the invariant the constructors establish — so
// a list from a peer must already be what `from_ranges` of it would be.
impl ExtentList {
    fn checked(ranges: Vec<ByteRange>) -> Result<Self, DeError> {
        let normalized = ranges.iter().all(|r| !r.is_empty())
            && ranges.windows(2).all(|w| w[0].end() < w[1].offset);
        if !normalized {
            return Err(DeError::new(
                "extent list is not normalized: ranges must be non-empty, sorted, disjoint \
                 and non-adjacent",
            ));
        }
        Ok(ExtentList { ranges })
    }
}

impl Deserialize for ExtentList {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        ExtentList::checked(Vec::from_value(v.get_or_null("ranges"))?)
    }
}

impl Decode for ExtentList {
    const MIN_BYTES: usize = <Vec<ByteRange>>::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self, DeError> {
        ExtentList::checked(Vec::decode(r)?)
    }
}

impl ExtentList {
    /// The empty set.
    #[inline]
    pub const fn new() -> Self {
        Self { ranges: Vec::new() }
    }

    /// A set holding a single range (empty input yields the empty set),
    /// allocated to hold exactly that range.
    pub fn single(range: ByteRange) -> Self {
        let ranges = if range.is_empty() {
            Vec::new()
        } else {
            vec![range]
        };
        Self { ranges }
    }

    /// Builds a normalized set from arbitrary (possibly overlapping,
    /// unsorted, empty) ranges.
    pub fn from_ranges<I: IntoIterator<Item = ByteRange>>(ranges: I) -> Self {
        let mut raw: Vec<ByteRange> = ranges.into_iter().filter(|r| !r.is_empty()).collect();
        raw.sort();
        let mut list = Self::new();
        for r in raw {
            match list.ranges.last_mut() {
                Some(last) if r.offset <= last.end() => {
                    // Overlapping or adjacent: extend the tail range.
                    if r.end() > last.end() {
                        *last = ByteRange::from_bounds(last.offset, r.end());
                    }
                }
                _ => list.ranges.push(r),
            }
        }
        list
    }

    /// Builds a set from `(offset, len)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (u64, u64)>>(pairs: I) -> Self {
        Self::from_ranges(pairs.into_iter().map(|(o, l)| ByteRange::new(o, l)))
    }

    /// The normalized ranges in ascending order.
    #[inline]
    pub fn ranges(&self) -> &[ByteRange] {
        &self.ranges
    }

    /// Number of disjoint ranges after normalization.
    #[inline]
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// True if no bytes are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of bytes covered.
    #[inline]
    pub fn total_len(&self) -> u64 {
        self.ranges.iter().map(|r| r.len).sum()
    }

    /// The smallest contiguous range covering every extent — the byte range
    /// a covering-lock baseline must lock (including unaccessed gaps).
    pub fn covering_range(&self) -> ByteRange {
        match (self.ranges.first(), self.ranges.last()) {
            (Some(first), Some(last)) => ByteRange::from_bounds(first.offset, last.end()),
            _ => ByteRange::empty(),
        }
    }

    /// Bytes inside the covering range but not covered by any extent —
    /// the "unnecessarily locked" bytes of the covering-lock baseline.
    pub fn gap_len(&self) -> u64 {
        self.covering_range().len - self.total_len()
    }

    /// True if `pos` is covered by some extent.
    pub fn contains(&self, pos: u64) -> bool {
        // Binary search on range offsets; candidate is the last range
        // starting at or before pos.
        match self.ranges.binary_search_by(|r| r.offset.cmp(&pos)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.ranges[i - 1].contains(pos),
        }
    }

    /// Inserts one range, merging as needed. `O(n)` worst case.
    pub fn insert(&mut self, range: ByteRange) {
        if range.is_empty() {
            return;
        }
        // Find insertion window: all existing ranges that overlap or are
        // adjacent to `range` get merged into it.
        let start = self.ranges.partition_point(|r| r.end() < range.offset);
        let end = self.ranges.partition_point(|r| r.offset <= range.end());
        let mut merged = range;
        for r in &self.ranges[start..end] {
            merged = merged.hull(*r);
        }
        self.ranges.splice(start..end, std::iter::once(merged));
    }

    /// Set union.
    pub fn union(&self, other: &ExtentList) -> ExtentList {
        // Merge two sorted lists, coalescing as we go.
        let mut out = ExtentList::new();
        let (mut i, mut j) = (0, 0);
        let push = |out: &mut ExtentList, r: ByteRange| match out.ranges.last_mut() {
            Some(last) if r.offset <= last.end() => {
                if r.end() > last.end() {
                    *last = ByteRange::from_bounds(last.offset, r.end());
                }
            }
            _ => out.ranges.push(r),
        };
        while i < self.ranges.len() && j < other.ranges.len() {
            if self.ranges[i] <= other.ranges[j] {
                push(&mut out, self.ranges[i]);
                i += 1;
            } else {
                push(&mut out, other.ranges[j]);
                j += 1;
            }
        }
        for &r in &self.ranges[i..] {
            push(&mut out, r);
        }
        for &r in &other.ranges[j..] {
            push(&mut out, r);
        }
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ExtentList) -> ExtentList {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            if let Some(cut) = self.ranges[i].intersect(other.ranges[j]) {
                out.push(cut);
            }
            // Advance whichever range ends first.
            if self.ranges[i].end() <= other.ranges[j].end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Pieces are already sorted, disjoint and non-adjacent because they
        // come from two normalized lists; build directly.
        ExtentList { ranges: out }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &ExtentList) -> ExtentList {
        let mut out = Vec::new();
        let mut j = 0;
        for &r in &self.ranges {
            let mut remaining = r;
            // Skip other-ranges entirely before `remaining`.
            while j < other.ranges.len() && other.ranges[j].end() <= remaining.offset {
                j += 1;
            }
            let mut k = j;
            loop {
                if remaining.is_empty() {
                    break;
                }
                match other.ranges.get(k) {
                    Some(&cut) if cut.offset < remaining.end() => {
                        if cut.offset > remaining.offset {
                            out.push(ByteRange::from_bounds(remaining.offset, cut.offset));
                        }
                        let new_start = cut.end().max(remaining.offset);
                        if new_start >= remaining.end() {
                            remaining = ByteRange::empty();
                        } else {
                            remaining = ByteRange::from_bounds(new_start, remaining.end());
                        }
                        k += 1;
                    }
                    _ => {
                        out.push(remaining);
                        break;
                    }
                }
            }
        }
        // Already normalized: sorted & disjoint, and no two pieces can be
        // adjacent unless the source was (source is normalized).
        ExtentList { ranges: out }
    }

    /// True if the two sets share at least one byte.
    pub fn overlaps(&self, other: &ExtentList) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            if self.ranges[i].overlaps(other.ranges[j]) {
                return true;
            }
            if self.ranges[i].end() <= other.ranges[j].end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// True if the set shares at least one byte with `range`. `O(log n)`,
    /// allocation-free: only the first extent ending after `range.offset`
    /// can be the one that starts before `range.end()`.
    pub fn overlaps_range(&self, range: ByteRange) -> bool {
        if range.is_empty() {
            return false;
        }
        let i = self.ranges.partition_point(|r| r.end() <= range.offset);
        self.ranges.get(i).is_some_and(|r| r.offset < range.end())
    }

    /// True if every byte of `other` is covered by `self`.
    pub fn contains_all(&self, other: &ExtentList) -> bool {
        other.subtract(self).is_empty()
    }

    /// Restricts the set to a window. `O(log n + k)`: two binary searches
    /// bound the `k` extents the window meets.
    pub fn clip(&self, window: ByteRange) -> ExtentList {
        let lo = self.ranges.partition_point(|r| r.end() <= window.offset);
        let hi = self.ranges.partition_point(|r| r.offset < window.end());
        ExtentList {
            ranges: self.ranges[lo..hi]
                .iter()
                .filter_map(|r| r.intersect(window))
                .collect(),
        }
    }

    /// Shifts every extent right by `delta`.
    pub fn shifted(&self, delta: u64) -> ExtentList {
        ExtentList {
            ranges: self.ranges.iter().map(|r| r.shifted(delta)).collect(),
        }
    }

    /// Iterates over `(file_range, buffer_offset)` pairs: the buffer offset
    /// is the number of payload bytes preceding each extent. This is how a
    /// packed client buffer maps onto a non-contiguous file footprint.
    pub fn with_buffer_offsets(&self) -> impl Iterator<Item = (ByteRange, u64)> + '_ {
        self.ranges.iter().scan(0u64, |acc, &r| {
            let off = *acc;
            *acc += r.len;
            Some((r, off))
        })
    }

    /// Splits the set into at most `n` contiguous subsets of roughly equal
    /// byte count, preserving order. Used by collective-I/O aggregation.
    pub fn partition(&self, n: usize) -> Vec<ExtentList> {
        if n == 0 || self.is_empty() {
            return Vec::new();
        }
        let total = self.total_len();
        let target = total.div_ceil(n as u64);
        let mut out = Vec::with_capacity(n);
        let mut current = Vec::new();
        let mut acc = 0u64;
        for &r in &self.ranges {
            let mut rest = r;
            while !rest.is_empty() {
                let room = target.saturating_sub(acc);
                if room == 0 {
                    out.push(ExtentList {
                        ranges: std::mem::take(&mut current),
                    });
                    acc = 0;
                    continue;
                }
                let take = rest.len.min(room);
                let (head, tail) = rest.split_at(rest.offset + take);
                current.push(head);
                acc += head.len;
                rest = tail;
            }
        }
        if !current.is_empty() {
            out.push(ExtentList { ranges: current });
        }
        out
    }
}

impl fmt::Debug for ExtentList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ranges.iter()).finish()
    }
}

impl fmt::Display for ExtentList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ByteRange> for ExtentList {
    fn from_iter<I: IntoIterator<Item = ByteRange>>(iter: I) -> Self {
        Self::from_ranges(iter)
    }
}

impl<'a> IntoIterator for &'a ExtentList {
    type Item = &'a ByteRange;
    type IntoIter = std::slice::Iter<'a, ByteRange>;
    fn into_iter(self) -> Self::IntoIter {
        self.ranges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::from_bounds(s, e)
    }

    fn el(pairs: &[(u64, u64)]) -> ExtentList {
        ExtentList::from_ranges(pairs.iter().map(|&(s, e)| r(s, e)))
    }

    #[test]
    fn normalization_sorts_merges_coalesces() {
        let list = el(&[(10, 20), (0, 5), (4, 8), (20, 25), (30, 30)]);
        assert_eq!(list.ranges(), &[r(0, 8), r(10, 25)]);
        assert_eq!(list.range_count(), 2);
        assert_eq!(list.total_len(), 8 + 15);
    }

    #[test]
    fn deserialize_refuses_a_list_no_constructor_builds() {
        let list_of_two = || el(&[(0, 8), (10, 25)]);
        let list = list_of_two();
        assert_eq!(ExtentList::from_value(&list.to_value()), Ok(list));
        assert_eq!(
            ExtentList::from_value(&ExtentList::new().to_value()),
            Ok(ExtentList::new())
        );
        // Built past the constructors, as a peer's frame can: unsorted,
        // overlapping, adjacent, holding an empty range.
        for ranges in [
            vec![r(10, 25), r(0, 8)],
            vec![r(0, 8), r(4, 12)],
            vec![r(0, 8), r(8, 12)],
            vec![r(0, 8), r(9, 9)],
            vec![r(3, 3)],
        ] {
            let raw = ExtentList { ranges };
            assert_ne!(ExtentList::from_ranges(raw.ranges.iter().copied()), raw);
            let refusal = ExtentList::from_value(&raw.to_value()).unwrap_err();
            assert!(refusal.to_string().contains("not normalized"), "{raw:?}");
            let mut bytes = Vec::new();
            raw.encode(&mut bytes);
            let refusal = serde::decode_exact::<ExtentList>(&bytes).unwrap_err();
            assert!(refusal.to_string().contains("not normalized"), "{raw:?}");
        }
        let mut bytes = Vec::new();
        list_of_two().encode(&mut bytes);
        assert_eq!(serde::decode_exact(&bytes), Ok(list_of_two()));
    }

    #[test]
    fn equal_sets_are_structurally_equal() {
        let a = el(&[(0, 10), (10, 20)]);
        let b = el(&[(0, 20)]);
        let c = el(&[(0, 7), (3, 20)]);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn covering_range_and_gaps() {
        let list = el(&[(10, 20), (40, 50)]);
        assert_eq!(list.covering_range(), r(10, 50));
        assert_eq!(list.gap_len(), 20);
        assert_eq!(ExtentList::new().covering_range(), ByteRange::empty());
        assert_eq!(el(&[(5, 9)]).gap_len(), 0);
    }

    #[test]
    fn contains_uses_binary_search() {
        let list = el(&[(10, 20), (40, 50), (70, 80)]);
        for p in [10, 19, 40, 49, 70, 79] {
            assert!(list.contains(p), "{p}");
        }
        for p in [0, 9, 20, 39, 50, 69, 80, 1000] {
            assert!(!list.contains(p), "{p}");
        }
    }

    #[test]
    fn single_holds_exactly_its_range() {
        let one = ExtentList::single(r(3, 9));
        assert_eq!(one.ranges(), &[r(3, 9)]);
        assert_eq!(one.ranges.capacity(), 1);
        let none = ExtentList::single(ByteRange::empty());
        assert!(none.is_empty());
        assert_eq!(none.ranges.capacity(), 0);
    }

    #[test]
    fn insert_merges_window() {
        let mut list = el(&[(0, 5), (10, 15), (20, 25), (40, 45)]);
        list.insert(r(5, 22)); // touches first three
        assert_eq!(list.ranges(), &[r(0, 25), r(40, 45)]);
        list.insert(r(50, 60));
        assert_eq!(list.ranges(), &[r(0, 25), r(40, 45), r(50, 60)]);
        list.insert(ByteRange::empty());
        assert_eq!(list.range_count(), 3);
    }

    #[test]
    fn union_matches_from_ranges() {
        let a = el(&[(0, 10), (20, 30)]);
        let b = el(&[(5, 25), (40, 50)]);
        let u = a.union(&b);
        assert_eq!(u, el(&[(0, 30), (40, 50)]));
        // Union with empty is identity.
        assert_eq!(a.union(&ExtentList::new()), a);
        assert_eq!(ExtentList::new().union(&b), b);
    }

    #[test]
    fn intersection_cases() {
        let a = el(&[(0, 10), (20, 30), (40, 50)]);
        let b = el(&[(5, 25), (45, 60)]);
        assert_eq!(a.intersection(&b), el(&[(5, 10), (20, 25), (45, 50)]));
        assert!(a.intersection(&ExtentList::new()).is_empty());
        let disjoint = el(&[(10, 20), (30, 40)]);
        assert!(a.intersection(&disjoint).is_empty());
    }

    #[test]
    fn subtract_cases() {
        let a = el(&[(0, 10), (20, 30)]);
        assert_eq!(a.subtract(&el(&[(5, 25)])), el(&[(0, 5), (25, 30)]));
        assert_eq!(a.subtract(&a), ExtentList::new());
        assert_eq!(a.subtract(&ExtentList::new()), a);
        // Hole punch.
        assert_eq!(
            el(&[(0, 30)]).subtract(&el(&[(5, 10), (15, 20)])),
            el(&[(0, 5), (10, 15), (20, 30)])
        );
        // Subtrahend covers everything.
        assert_eq!(a.subtract(&el(&[(0, 100)])), ExtentList::new());
    }

    #[test]
    fn overlaps_and_containment() {
        let a = el(&[(0, 10), (20, 30)]);
        assert!(a.overlaps(&el(&[(9, 12)])));
        assert!(!a.overlaps(&el(&[(10, 20)])));
        assert!(a.contains_all(&el(&[(2, 5), (25, 28)])));
        assert!(!a.contains_all(&el(&[(2, 12)])));
        assert!(a.contains_all(&ExtentList::new()));
    }

    #[test]
    fn overlaps_range_edges() {
        let a = el(&[(0, 10), (20, 30)]);
        for hit in [r(9, 12), r(15, 21), r(0, 100), r(29, 30)] {
            assert!(a.overlaps_range(hit), "{hit}");
        }
        // Adjacent, in a hole, past the end, empty (even inside an extent).
        for miss in [r(10, 20), r(12, 18), r(30, 40), r(5, 5)] {
            assert!(!a.overlaps_range(miss), "{miss}");
        }
        assert!(!ExtentList::new().overlaps_range(r(0, 10)));
    }

    #[test]
    fn clip_window() {
        let a = el(&[(0, 10), (20, 30)]);
        assert_eq!(a.clip(r(5, 25)), el(&[(5, 10), (20, 25)]));
        assert_eq!(a.clip(r(0, 30)), a);
        assert!(a.clip(r(12, 18)).is_empty());
        assert!(a.clip(r(5, 5)).is_empty());
    }

    #[test]
    fn shifted_preserves_shape() {
        let a = el(&[(0, 10), (20, 30)]);
        assert_eq!(a.shifted(100), el(&[(100, 110), (120, 130)]));
    }

    #[test]
    fn buffer_offsets_are_prefix_sums() {
        let a = el(&[(10, 14), (20, 26), (40, 42)]);
        let got: Vec<_> = a.with_buffer_offsets().collect();
        assert_eq!(got, vec![(r(10, 14), 0), (r(20, 26), 4), (r(40, 42), 10)]);
    }

    #[test]
    fn partition_balances_bytes() {
        let a = el(&[(0, 100)]);
        let parts = a.partition(4);
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p.total_len(), 25);
        }
        // Parts tile the original set.
        let mut acc = ExtentList::new();
        for p in &parts {
            assert!(acc.intersection(p).is_empty(), "parts must be disjoint");
            acc = acc.union(p);
        }
        assert_eq!(acc, a);
    }

    #[test]
    fn partition_non_contiguous() {
        let a = el(&[(0, 10), (20, 30), (40, 50)]);
        let parts = a.partition(2);
        assert!(parts.len() <= 2);
        let mut acc = ExtentList::new();
        for p in &parts {
            acc = acc.union(p);
        }
        assert_eq!(acc, a);
        assert_eq!(a.partition(0), Vec::<ExtentList>::new());
    }

    #[test]
    fn from_pairs_and_iterators() {
        let a = ExtentList::from_pairs([(0u64, 5u64), (10, 5)]);
        assert_eq!(a.ranges(), &[r(0, 5), r(10, 15)]);
        let b: ExtentList = a.into_iter().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn display_formats() {
        let a = el(&[(0, 5), (10, 15)]);
        assert_eq!(a.to_string(), "{[0, 5), [10, 15)}");
        assert_eq!(format!("{a:?}"), "[[0, 5), [10, 15)]");
    }
}
