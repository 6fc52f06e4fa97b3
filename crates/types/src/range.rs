//! Contiguous byte ranges within a blob / file.
//!
//! [`ByteRange`] is a half-open interval `[offset, offset + len)`. It is the
//! unit of the extent algebra in [`crate::extent`], of lock requests in the
//! baseline file system's distributed lock manager, and of chunk-relative
//! addressing in the data providers.

use serde::{DeError, Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;

/// A half-open byte interval `[offset, offset + len)` within a blob.
///
/// Empty ranges (`len == 0`) are permitted as values but are normalized
/// away by [`crate::ExtentList`]. `end()` is guaranteed not to overflow for
/// ranges constructed through [`ByteRange::new`], which panics on overflow
/// (offsets and lengths come from file geometry, so overflow is a logic
/// error, not an I/O error).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ByteRange {
    /// First byte covered by the range.
    pub offset: u64,
    /// Number of bytes covered.
    pub len: u64,
}

// By hand: the derive would take any two numbers, and a range from a
// peer must hold what `ByteRange::new` guarantees — an `end()` that fits.
impl Deserialize for ByteRange {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let offset = u64::from_value(v.get_or_null("offset"))?;
        let len = u64::from_value(v.get_or_null("len"))?;
        if offset.checked_add(len).is_none() {
            return Err(DeError::new(format!(
                "byte range [{offset}, +{len}) overflows u64"
            )));
        }
        Ok(ByteRange { offset, len })
    }
}

impl ByteRange {
    /// Creates a range from an offset and a length.
    ///
    /// # Panics
    /// Panics if `offset + len` overflows `u64`.
    #[inline]
    pub fn new(offset: u64, len: u64) -> Self {
        assert!(
            offset.checked_add(len).is_some(),
            "byte range [{offset}, +{len}) overflows u64"
        );
        Self { offset, len }
    }

    /// Creates a range from half-open bounds `[start, end)`.
    ///
    /// # Panics
    /// Panics if `end < start`.
    #[inline]
    pub fn from_bounds(start: u64, end: u64) -> Self {
        assert!(end >= start, "byte range end {end} precedes start {start}");
        Self {
            offset: start,
            len: end - start,
        }
    }

    /// The empty range at offset zero.
    #[inline]
    pub const fn empty() -> Self {
        Self { offset: 0, len: 0 }
    }

    /// One-past-the-last byte covered by the range.
    #[inline]
    pub fn end(self) -> u64 {
        self.offset + self.len
    }

    /// True if the range covers no bytes.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// True if `pos` lies inside the range.
    #[inline]
    pub fn contains(self, pos: u64) -> bool {
        pos >= self.offset && pos < self.end()
    }

    /// True if `other` is entirely inside `self`.
    ///
    /// The empty range is contained in every range (including the empty
    /// range itself), matching set semantics.
    #[inline]
    pub fn contains_range(self, other: ByteRange) -> bool {
        other.is_empty() || (other.offset >= self.offset && other.end() <= self.end())
    }

    /// True if the two ranges share at least one byte.
    #[inline]
    pub fn overlaps(self, other: ByteRange) -> bool {
        self.offset < other.end()
            && other.offset < self.end()
            && !self.is_empty()
            && !other.is_empty()
    }

    /// True if the ranges are adjacent (share a boundary but no bytes).
    #[inline]
    pub fn is_adjacent(self, other: ByteRange) -> bool {
        self.end() == other.offset || other.end() == self.offset
    }

    /// The overlapping part of the two ranges, or `None` when disjoint.
    #[inline]
    pub fn intersect(self, other: ByteRange) -> Option<ByteRange> {
        let start = self.offset.max(other.offset);
        let end = self.end().min(other.end());
        if start < end {
            Some(ByteRange::from_bounds(start, end))
        } else {
            None
        }
    }

    /// The smallest range covering both inputs (including any gap between
    /// them). Empty inputs are ignored.
    #[inline]
    pub fn hull(self, other: ByteRange) -> ByteRange {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        ByteRange::from_bounds(self.offset.min(other.offset), self.end().max(other.end()))
    }

    /// Removes `other` from `self`, returning the (0, 1, or 2) leftover
    /// pieces in ascending order.
    pub fn subtract(self, other: ByteRange) -> SubtractResult {
        match self.intersect(other) {
            None => SubtractResult::One(self),
            Some(cut) => {
                let left = ByteRange::from_bounds(self.offset, cut.offset);
                let right = ByteRange::from_bounds(cut.end(), self.end());
                match (left.is_empty(), right.is_empty()) {
                    (true, true) => SubtractResult::Empty,
                    (false, true) => SubtractResult::One(left),
                    (true, false) => SubtractResult::One(right),
                    (false, false) => SubtractResult::Two(left, right),
                }
            }
        }
    }

    /// Splits the range at an absolute position, returning the part before
    /// `pos` and the part at/after `pos`. `pos` is clamped to the range.
    #[inline]
    pub fn split_at(self, pos: u64) -> (ByteRange, ByteRange) {
        let pos = pos.clamp(self.offset, self.end());
        (
            ByteRange::from_bounds(self.offset, pos),
            ByteRange::from_bounds(pos, self.end()),
        )
    }

    /// Shifts the range right by `delta` bytes.
    ///
    /// # Panics
    /// Panics on overflow.
    #[inline]
    pub fn shifted(self, delta: u64) -> ByteRange {
        ByteRange::new(self.offset + delta, self.len)
    }

    /// Reinterprets the range relative to a containing `base` range
    /// (e.g. blob-absolute to chunk-relative addressing).
    ///
    /// # Panics
    /// Panics if `self` is not contained in `base`.
    #[inline]
    pub fn relative_to(self, base: ByteRange) -> ByteRange {
        assert!(
            base.contains_range(self),
            "{self} is not contained in {base}"
        );
        ByteRange::new(self.offset - base.offset, self.len)
    }
}

impl fmt::Debug for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

impl PartialOrd for ByteRange {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByteRange {
    /// Orders by offset, then by length — the order used by sorted extent
    /// lists.
    fn cmp(&self, other: &Self) -> Ordering {
        self.offset
            .cmp(&other.offset)
            .then(self.len.cmp(&other.len))
    }
}

impl From<std::ops::Range<u64>> for ByteRange {
    fn from(r: std::ops::Range<u64>) -> Self {
        ByteRange::from_bounds(r.start, r.end)
    }
}

/// Result of subtracting one range from another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubtractResult {
    /// The subtrahend covered the whole range.
    Empty,
    /// One piece survives.
    One(ByteRange),
    /// The subtrahend punched a hole: two pieces survive.
    Two(ByteRange, ByteRange),
}

impl SubtractResult {
    /// Iterates over the surviving pieces in ascending order.
    pub fn iter(self) -> impl Iterator<Item = ByteRange> {
        let (a, b) = match self {
            SubtractResult::Empty => (None, None),
            SubtractResult::One(x) => (Some(x), None),
            SubtractResult::Two(x, y) => (Some(x), Some(y)),
        };
        a.into_iter().chain(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::from_bounds(s, e)
    }

    #[test]
    fn basic_accessors() {
        let x = ByteRange::new(10, 5);
        assert_eq!(x.end(), 15);
        assert!(!x.is_empty());
        assert!(x.contains(10));
        assert!(x.contains(14));
        assert!(!x.contains(15));
        assert!(!x.contains(9));
        assert!(ByteRange::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn new_rejects_overflow() {
        let _ = ByteRange::new(u64::MAX, 1);
    }

    #[test]
    fn deserialize_refuses_what_new_refuses() {
        let whole = ByteRange::new(u64::MAX - 8, 8);
        assert_eq!(ByteRange::from_value(&whole.to_value()), Ok(whole));
        // One byte longer has no `end()`: built past the constructor, as
        // a peer's frame can.
        let overflowing = ByteRange {
            offset: u64::MAX - 8,
            len: 9,
        };
        let refusal = ByteRange::from_value(&overflowing.to_value()).unwrap_err();
        assert!(refusal.to_string().contains("overflows u64"), "{refusal}");
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn from_bounds_rejects_inverted() {
        let _ = ByteRange::from_bounds(5, 4);
    }

    #[test]
    fn overlap_rules() {
        assert!(r(0, 10).overlaps(r(5, 15)));
        assert!(r(5, 15).overlaps(r(0, 10)));
        assert!(!r(0, 10).overlaps(r(10, 20)), "adjacency is not overlap");
        assert!(!r(0, 10).overlaps(r(20, 30)));
        assert!(!r(0, 0).overlaps(r(0, 10)), "empty never overlaps");
        assert!(r(0, 10).is_adjacent(r(10, 20)));
        assert!(r(10, 20).is_adjacent(r(0, 10)));
        assert!(!r(0, 10).is_adjacent(r(11, 20)));
    }

    #[test]
    fn contains_range_rules() {
        assert!(r(0, 10).contains_range(r(2, 8)));
        assert!(r(0, 10).contains_range(r(0, 10)));
        assert!(!r(0, 10).contains_range(r(2, 11)));
        assert!(
            r(0, 10).contains_range(ByteRange::empty()),
            "empty set is subset"
        );
    }

    #[test]
    fn intersect_cases() {
        assert_eq!(r(0, 10).intersect(r(5, 15)), Some(r(5, 10)));
        assert_eq!(r(0, 10).intersect(r(10, 20)), None);
        assert_eq!(r(0, 10).intersect(r(2, 8)), Some(r(2, 8)));
        assert_eq!(r(2, 8).intersect(r(0, 10)), Some(r(2, 8)));
        assert_eq!(r(0, 0).intersect(r(0, 10)), None);
    }

    #[test]
    fn hull_covers_gap() {
        assert_eq!(r(0, 5).hull(r(10, 20)), r(0, 20));
        assert_eq!(r(10, 20).hull(r(0, 5)), r(0, 20));
        assert_eq!(r(0, 5).hull(ByteRange::empty()), r(0, 5));
        assert_eq!(ByteRange::empty().hull(r(3, 4)), r(3, 4));
    }

    #[test]
    fn subtract_cases() {
        // disjoint: untouched
        assert_eq!(r(0, 10).subtract(r(20, 30)), SubtractResult::One(r(0, 10)));
        // covered: empty
        assert_eq!(r(5, 8).subtract(r(0, 10)), SubtractResult::Empty);
        // left trim
        assert_eq!(r(0, 10).subtract(r(0, 4)), SubtractResult::One(r(4, 10)));
        // right trim
        assert_eq!(r(0, 10).subtract(r(6, 12)), SubtractResult::One(r(0, 6)));
        // hole
        assert_eq!(
            r(0, 10).subtract(r(3, 7)),
            SubtractResult::Two(r(0, 3), r(7, 10))
        );
        let pieces: Vec<_> = r(0, 10).subtract(r(3, 7)).iter().collect();
        assert_eq!(pieces, vec![r(0, 3), r(7, 10)]);
    }

    #[test]
    fn split_at_clamps() {
        assert_eq!(r(0, 10).split_at(4), (r(0, 4), r(4, 10)));
        assert_eq!(r(5, 10).split_at(2), (r(5, 5), r(5, 10)));
        assert_eq!(r(5, 10).split_at(20), (r(5, 10), r(10, 10)));
    }

    #[test]
    fn relative_addressing() {
        let chunk = r(100, 200);
        let sub = r(150, 175);
        assert_eq!(sub.relative_to(chunk), r(50, 75));
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn relative_to_requires_containment() {
        let _ = r(0, 10).relative_to(r(5, 20));
    }

    #[test]
    fn ordering_by_offset_then_len() {
        let mut v = vec![r(5, 9), r(0, 3), r(5, 7), r(2, 4)];
        v.sort();
        assert_eq!(v, vec![r(0, 3), r(2, 4), r(5, 7), r(5, 9)]);
    }

    #[test]
    fn from_std_range() {
        let x: ByteRange = (3..9).into();
        assert_eq!(x, r(3, 9));
    }
}
