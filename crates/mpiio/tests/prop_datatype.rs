//! Property tests for datatype flattening and file views, checked
//! against naive reference expansions.

use atomio_mpiio::{Datatype, FileView};
use atomio_types::ExtentList;
use proptest::prelude::*;

/// Naive reference: expand a vector type element by element.
fn naive_vector(elem_size: u64, count: u64, blocklen: u64, stride: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for i in 0..count {
        for j in 0..blocklen {
            out.push(((i * stride + j) * elem_size, elem_size));
        }
    }
    out
}

fn naive_subarray_2d(
    elem: u64,
    sizes: (u64, u64),
    subsizes: (u64, u64),
    starts: (u64, u64),
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for y in starts.0..starts.0 + subsizes.0 {
        for x in starts.1..starts.1 + subsizes.1 {
            out.push(((y * sizes.1 + x) * elem, elem));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vector_flatten_matches_naive(
        elem_size in 1u64..16,
        count in 1u64..20,
        blocklen in 1u64..8,
        extra_stride in 0u64..8,
    ) {
        let stride = blocklen + extra_stride;
        let t = Datatype::bytes(elem_size).unwrap()
            .vector(count, blocklen, stride).unwrap();
        let want = ExtentList::from_pairs(naive_vector(elem_size, count, blocklen, stride));
        prop_assert_eq!(t.flatten(), want);
        prop_assert_eq!(t.size(), count * blocklen * elem_size);
    }

    #[test]
    fn subarray_flatten_matches_naive(
        elem in 1u64..8,
        rows in 1u64..12,
        cols in 1u64..12,
        sub in (1u64..6, 1u64..6),
        start in (0u64..6, 0u64..6),
    ) {
        let sizes = (rows + sub.0 + start.0, cols + sub.1 + start.1);
        let t = Datatype::bytes(elem).unwrap()
            .subarray(&[sizes.0, sizes.1], &[sub.0, sub.1], &[start.0, start.1])
            .unwrap();
        let want = ExtentList::from_pairs(naive_subarray_2d(elem, sizes, sub, start));
        prop_assert_eq!(t.flatten(), want);
        prop_assert_eq!(t.size(), sub.0 * sub.1 * elem);
    }

    #[test]
    fn flatten_total_always_equals_size(
        elem in 1u64..8,
        count in 1u64..10,
        displs in proptest::collection::vec(0u64..4, 1..6),
    ) {
        // Build an indexed type with strictly increasing displacements.
        let mut blocks = Vec::new();
        let mut at = 0u64;
        for d in &displs {
            blocks.push((at, 1 + d % 3));
            at += 1 + d % 3 + d;
        }
        let base = Datatype::bytes(elem).unwrap().vector(count, 1, 1).unwrap();
        let t = base.indexed(&blocks).unwrap();
        prop_assert_eq!(t.flatten().total_len(), t.size());
        // Extent covers every flattened byte.
        prop_assert!(t.flatten().covering_range().end() <= t.extent());
    }

    #[test]
    fn view_extents_tile_correctly(
        block in 1u64..64,
        pad in 0u64..64,
        tiles in 1u64..12,
        start_tile in 0u64..4,
    ) {
        // Block-cyclic view: `block` bytes of mine, `pad` of others.
        let ft = Datatype::bytes(block).unwrap().resized(block + pad).unwrap();
        let view = FileView::new(0, 1, ft).unwrap();
        let e = view.extents_for(start_tile * block, tiles * block).unwrap();
        prop_assert_eq!(e.total_len(), tiles * block);
        // The naive tiling.
        let want = ExtentList::from_pairs(
            (start_tile..start_tile + tiles).map(|t| (t * (block + pad), block)),
        );
        prop_assert_eq!(e, want);
    }

    #[test]
    fn view_data_order_is_monotonic(
        block in 1u64..32,
        pad in 1u64..32,
        len in 1u64..200,
        off in 0u64..50,
    ) {
        let ft = Datatype::bytes(block).unwrap().resized(block + pad).unwrap();
        let view = FileView::new(128, 1, ft).unwrap();
        let e = view.extents_for(off, len).unwrap();
        prop_assert_eq!(e.total_len(), len);
        // Extents are in file order and disjoint (ExtentList invariant),
        // and they start at/after the displacement.
        if let Some(first) = e.ranges().first() {
            prop_assert!(first.offset >= 128);
        }
    }
}
