//! Property-based tests for the byte-range / extent-list algebra.
//!
//! The extent algebra underpins every atomicity argument in the workspace,
//! so we check its set-theoretic laws against a naive bitmap model.

use atomio_types::{ByteRange, ChunkGeometry, ExtentList};
use proptest::prelude::*;

const UNIVERSE: u64 = 512;

/// Arbitrary range within a small universe so overlaps are common.
fn arb_range() -> impl Strategy<Value = ByteRange> {
    (0..UNIVERSE, 0..64u64).prop_map(|(off, len)| ByteRange::new(off, len.min(UNIVERSE - off)))
}

fn arb_extents() -> impl Strategy<Value = ExtentList> {
    proptest::collection::vec(arb_range(), 0..12).prop_map(ExtentList::from_ranges)
}

/// Reference model: a byte-presence bitmap.
fn to_bitmap(e: &ExtentList) -> Vec<bool> {
    let mut bits = vec![false; UNIVERSE as usize];
    for r in e {
        for p in r.offset..r.end() {
            bits[p as usize] = true;
        }
    }
    bits
}

fn from_bitmap(bits: &[bool]) -> ExtentList {
    let ranges = bits
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| ByteRange::new(i as u64, 1));
    ExtentList::from_ranges(ranges)
}

proptest! {
    #[test]
    fn normalization_invariants(e in arb_extents()) {
        let ranges = e.ranges();
        for w in ranges.windows(2) {
            // Sorted, disjoint, non-adjacent.
            prop_assert!(w[0].end() < w[1].offset, "{:?} then {:?}", w[0], w[1]);
        }
        for r in ranges {
            prop_assert!(!r.is_empty());
        }
    }

    #[test]
    fn roundtrip_through_bitmap(e in arb_extents()) {
        prop_assert_eq!(from_bitmap(&to_bitmap(&e)), e);
    }

    #[test]
    fn union_matches_model(a in arb_extents(), b in arb_extents()) {
        let got = a.union(&b);
        let want: Vec<bool> = to_bitmap(&a)
            .iter()
            .zip(to_bitmap(&b).iter())
            .map(|(&x, &y)| x || y)
            .collect();
        prop_assert_eq!(got, from_bitmap(&want));
    }

    #[test]
    fn intersection_matches_model(a in arb_extents(), b in arb_extents()) {
        let got = a.intersection(&b);
        let want: Vec<bool> = to_bitmap(&a)
            .iter()
            .zip(to_bitmap(&b).iter())
            .map(|(&x, &y)| x && y)
            .collect();
        prop_assert_eq!(got, from_bitmap(&want));
    }

    #[test]
    fn subtract_matches_model(a in arb_extents(), b in arb_extents()) {
        let got = a.subtract(&b);
        let want: Vec<bool> = to_bitmap(&a)
            .iter()
            .zip(to_bitmap(&b).iter())
            .map(|(&x, &y)| x && !y)
            .collect();
        prop_assert_eq!(got, from_bitmap(&want));
    }

    #[test]
    fn union_is_commutative_and_idempotent(a in arb_extents(), b in arb_extents()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a);
    }

    #[test]
    fn demorgan_style_identity(a in arb_extents(), b in arb_extents()) {
        // a = (a \ b) ∪ (a ∩ b), and the two parts are disjoint.
        let diff = a.subtract(&b);
        let inter = a.intersection(&b);
        prop_assert!(diff.intersection(&inter).is_empty());
        prop_assert_eq!(diff.union(&inter), a);
    }

    #[test]
    fn overlaps_agrees_with_intersection(a in arb_extents(), b in arb_extents()) {
        prop_assert_eq!(a.overlaps(&b), !a.intersection(&b).is_empty());
    }

    #[test]
    fn contains_agrees_with_bitmap(e in arb_extents(), p in 0..UNIVERSE) {
        prop_assert_eq!(e.contains(p), to_bitmap(&e)[p as usize]);
    }

    #[test]
    fn insert_equals_union_with_single(e in arb_extents(), r in arb_range()) {
        let mut inserted = e.clone();
        inserted.insert(r);
        prop_assert_eq!(inserted, e.union(&ExtentList::single(r)));
    }

    #[test]
    fn clip_is_intersection_with_window(e in arb_extents(), w in arb_range()) {
        prop_assert_eq!(e.clip(w), e.intersection(&ExtentList::single(w)));
    }

    #[test]
    fn overlaps_range_is_overlaps_with_single(
        e in arb_extents(),
        r in arb_range(),
        len in 0..32u64,
    ) {
        // Besides the random range: ranges ending or starting exactly on
        // an extent boundary, and empty ranges inside an extent.
        let mut probes = vec![r];
        for x in &e {
            probes.push(ByteRange::new(x.end(), len));
            probes.push(ByteRange::from_bounds(x.offset.saturating_sub(len), x.offset));
            probes.push(ByteRange::new(x.offset + x.len / 2, 0));
        }
        for p in probes {
            prop_assert_eq!(e.overlaps_range(p), e.overlaps(&ExtentList::single(p)), "{}", p);
        }
    }

    #[test]
    fn covering_range_contains_everything(e in arb_extents()) {
        let cover = e.covering_range();
        for r in &e {
            prop_assert!(cover.contains_range(*r));
        }
        prop_assert_eq!(cover.len, e.total_len() + e.gap_len());
    }

    #[test]
    fn partition_tiles_set(e in arb_extents(), n in 1usize..6) {
        let parts = e.partition(n);
        prop_assert!(parts.len() <= n);
        let mut acc = ExtentList::new();
        for p in &parts {
            prop_assert!(acc.intersection(p).is_empty());
            acc = acc.union(p);
        }
        prop_assert_eq!(acc, e);
    }

    #[test]
    fn chunk_spans_tile_extents(e in arb_extents(), chunk_size in 1u64..128) {
        let geo = ChunkGeometry::new(chunk_size);
        let spans = geo.split_extents(&e);
        // Spans reassemble exactly to the extent list.
        let reassembled = ExtentList::from_ranges(spans.iter().map(|s| s.absolute));
        prop_assert_eq!(reassembled, e.clone());
        for s in &spans {
            // Each span stays within its chunk.
            prop_assert!(geo.chunk_range(s.index).contains_range(s.absolute));
            prop_assert_eq!(s.relative.len, s.absolute.len);
            prop_assert!(s.relative.end() <= chunk_size);
        }
        let total: u64 = spans.iter().map(|s| s.absolute.len).sum();
        prop_assert_eq!(total, e.total_len());
    }

    #[test]
    fn buffer_offsets_cover_payload(e in arb_extents()) {
        let mut expected = 0u64;
        for (r, off) in e.with_buffer_offsets() {
            prop_assert_eq!(off, expected);
            expected += r.len;
        }
        prop_assert_eq!(expected, e.total_len());
    }
}
