//! Property test for the link-target lookup of the version history.
//!
//! Reference model: the plain reverse scan — every row below `below`,
//! newest first, each tested against a one-range list. The history's
//! binary-searched row test and its early exit past the highest written
//! byte must agree with it everywhere, whether the history was built by
//! `append` (a version manager) or by `absorb`ing overlapping deltas (a
//! remote writer's mirror).

use atomio_meta::history::WriteSummary;
use atomio_meta::{TreeConfig, VersionHistory};
use atomio_types::{ByteRange, ExtentList, VersionId};
use proptest::prelude::*;
use std::sync::Arc;

const LEAF: u64 = 32;
const UNIVERSE: u64 = 1024;

/// One row's extents: a few ranges, normalized, so rows carry several
/// extents with holes between them.
fn arb_extents() -> impl Strategy<Value = ExtentList> {
    proptest::collection::vec((0..UNIVERSE, 1..100u64), 1..6).prop_map(|raw| {
        ExtentList::from_pairs(
            raw.into_iter()
                .map(|(off, len)| (off, len.min(UNIVERSE - off))),
        )
    })
}

/// Rows with dense versions and the capacities a version manager would
/// grant: the smallest covering the write, never below the previous one.
fn rows_of(extents: Vec<ExtentList>) -> Vec<WriteSummary> {
    let config = TreeConfig::new(LEAF);
    let mut capacity = 0;
    extents
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let end = e.covering_range().end();
            capacity = config.capacity_for(end).expect("small sizes").max(capacity);
            WriteSummary {
                version: VersionId::new(i as u64 + 1),
                extents: Arc::new(e),
                capacity,
            }
        })
        .collect()
}

fn reverse_scan(
    rows: &[WriteSummary],
    below: VersionId,
    range: ByteRange,
) -> Option<(VersionId, u64)> {
    let upper = (below.raw() as usize).saturating_sub(1).min(rows.len());
    rows[..upper]
        .iter()
        .rev()
        .find(|s| s.extents.overlaps(&ExtentList::single(range)))
        .map(|s| (s.version, s.capacity))
}

/// Every leaf-aligned dyadic range up to twice the universe: ranges in
/// holes, straddling rows, and at or past the highest written byte.
fn dyadic_ranges() -> Vec<ByteRange> {
    let mut out = Vec::new();
    let mut len = LEAF;
    while len <= 2 * UNIVERSE {
        out.extend((0..2 * UNIVERSE / len).map(|k| ByteRange::new(k * len, len)));
        len *= 2;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn latest_toucher_equals_the_reverse_scan(
        extents in proptest::collection::vec(arb_extents(), 1..12),
        cuts in proptest::collection::vec((0..4usize, 1..5usize), 1..12),
    ) {
        let rows = rows_of(extents);
        let appended = VersionHistory::new();
        for row in rows.iter().cloned() {
            appended.append(row);
        }
        // The same rows reach the mirror as deltas that may repeat rows
        // it already holds, as ticket replies do.
        let mirror = VersionHistory::new();
        for &(back, step) in cuts.iter().cycle() {
            if mirror.len() == rows.len() {
                break;
            }
            let known = mirror.len().saturating_sub(back);
            mirror
                .absorb(appended.summaries_between(known, mirror.len() + step))
                .unwrap();
        }
        prop_assert_eq!(mirror.len(), rows.len());

        for below in 0..=rows.len() as u64 + 1 {
            let below = VersionId::new(below);
            for range in dyadic_ranges() {
                let want = reverse_scan(&rows, below, range);
                prop_assert_eq!(appended.latest_toucher(below, range), want, "{} {}", below, range);
                prop_assert_eq!(mirror.latest_toucher(below, range), want, "{} {}", below, range);
            }
        }
    }
}
