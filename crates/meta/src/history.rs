//! The append-only history of write summaries.
//!
//! The version manager appends one [`WriteSummary`] per issued ticket —
//! *before* the writer starts building metadata. Writers consult the
//! history to compute deterministic links to the trees of earlier
//! versions, including versions that are still in flight. This shared
//! summary table is the simulation analogue of BlobSeer's version manager
//! handing each writer the descriptors of concurrent in-flight updates.

use atomio_types::{ByteRange, Error, ExtentList, Result, TransportErrorKind, VersionId};
use parking_lot::RwLock;
use serde::{Decode, Encode};
use std::sync::Arc;

/// Summary of one write: which bytes it touched and the tree capacity its
/// version was published with. Summaries ride ticket grants over the wire.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct WriteSummary {
    /// The write's assigned version.
    pub version: VersionId,
    /// The set of bytes the write covers.
    pub extents: Arc<ExtentList>,
    /// Tree capacity (root range length) of this version: a power-of-two
    /// multiple of the leaf size, monotonically non-decreasing across
    /// versions.
    pub capacity: u64,
}

/// Append-only, shared history of write summaries for one blob.
///
/// Version `k` (k ≥ 1) lives at index `k - 1`; version 0 is the implicit
/// empty snapshot.
#[derive(Debug, Default)]
pub struct VersionHistory {
    rows: RwLock<Vec<WriteSummary>>,
}

impl VersionHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the summary for the next version.
    ///
    /// # Panics
    /// Panics if `summary.version` is not exactly one past the last
    /// recorded version — tickets are issued densely and in order.
    pub fn append(&self, summary: WriteSummary) {
        let mut rows = self.rows.write();
        let expected = VersionId::new(rows.len() as u64 + 1);
        assert_eq!(
            summary.version, expected,
            "history rows must be appended densely"
        );
        if let Some(prev) = rows.last() {
            assert!(
                summary.capacity >= prev.capacity,
                "capacity must be monotonic"
            );
        }
        rows.push(summary);
    }

    /// The summaries of versions strictly greater than `known` (a row
    /// count from a previous call) and at most `upto`. Used by remote
    /// clients to mirror the server-side history incrementally: a ticket
    /// response carries the delta from the client's last known row up to
    /// its own — never a row appended by a later grant meanwhile.
    pub fn summaries_between(&self, known: usize, upto: usize) -> Vec<WriteSummary> {
        let rows = self.rows.read();
        let upto = upto.min(rows.len());
        rows[known.min(upto)..upto].to_vec()
    }

    /// Merges a delta obtained from [`Self::summaries_between`] — on a
    /// client, a server's reply — into this history: already-known
    /// versions are skipped, new ones appended in order.
    ///
    /// # Errors
    /// A typed [`TransportErrorKind::Protocol`] error when the new rows
    /// are not dense or their capacity shrinks — what [`Self::append`]
    /// would panic on. The delta is checked whole first, so a refused one
    /// leaves the history unchanged.
    pub fn absorb(&self, delta: Vec<WriteSummary>) -> Result<()> {
        let mut rows = self.rows.write();
        let known = rows.len() as u64;
        let fresh = delta.into_iter().filter(|s| s.version.raw() > known);
        let mut last = rows.last().map_or(0, |s| s.capacity);
        let mut accepted = Vec::new();
        let refused = |detail: String| Error::Transport {
            kind: TransportErrorKind::Protocol,
            detail: format!("history delta refused: {detail}"),
        };
        for (i, summary) in fresh.enumerate() {
            let due = known + 1 + i as u64;
            if summary.version.raw() != due {
                return Err(refused(format!("{} where v{due} was due", summary.version)));
            }
            if summary.capacity < last {
                return Err(refused(format!(
                    "capacity {} below {last}",
                    summary.capacity
                )));
            }
            last = summary.capacity;
            accepted.push(summary);
        }
        rows.extend(accepted);
        Ok(())
    }

    /// Number of versions recorded (excluding the implicit version 0).
    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// True when no write has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.read().is_empty()
    }

    /// The summary of `v`, if recorded.
    pub fn summary(&self, v: VersionId) -> Option<WriteSummary> {
        if v.is_initial() {
            return None;
        }
        self.rows.read().get(v.raw() as usize - 1).cloned()
    }

    /// Tree capacity of version `v` (0 for the initial empty version).
    pub fn capacity_of(&self, v: VersionId) -> u64 {
        self.summary(v).map_or(0, |s| s.capacity)
    }

    /// The latest version **strictly below** `below` whose write touched
    /// `range`, together with that version's capacity.
    ///
    /// This is the deterministic link-target computation: the returned
    /// version's tree contains (or will contain) a node for every dyadic
    /// range it touched.
    pub fn latest_toucher(&self, below: VersionId, range: ByteRange) -> Option<(VersionId, u64)> {
        if range.is_empty() {
            return None;
        }
        let rows = self.rows.read();
        let upper = (below.raw() as usize).saturating_sub(1).min(rows.len());
        rows[..upper]
            .iter()
            .rev()
            .find(|s| s.extents.overlaps(&ExtentList::single(range)))
            .map(|s| (s.version, s.capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(v: u64, pairs: &[(u64, u64)], cap: u64) -> WriteSummary {
        WriteSummary {
            version: VersionId::new(v),
            extents: Arc::new(ExtentList::from_pairs(pairs.iter().copied())),
            capacity: cap,
        }
    }

    #[test]
    fn append_and_lookup() {
        let h = VersionHistory::new();
        assert!(h.is_empty());
        h.append(summary(1, &[(0, 10)], 64));
        h.append(summary(2, &[(100, 10)], 128));
        assert_eq!(h.len(), 2);
        assert_eq!(h.capacity_of(VersionId::new(1)), 64);
        assert_eq!(h.capacity_of(VersionId::new(2)), 128);
        assert_eq!(h.capacity_of(VersionId::INITIAL), 0);
        assert!(h.summary(VersionId::new(3)).is_none());
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn sparse_append_rejected() {
        let h = VersionHistory::new();
        h.append(summary(2, &[(0, 1)], 64));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn shrinking_capacity_rejected() {
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 1)], 128));
        h.append(summary(2, &[(0, 1)], 64));
    }

    #[test]
    fn latest_toucher_scans_down() {
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 100)], 128)); // v1 touches [0,100)
        h.append(summary(2, &[(50, 100)], 256)); // v2 touches [50,150)
        h.append(summary(3, &[(200, 10)], 256)); // v3 touches [200,210)

        // Below v4 (i.e. among v1..v3):
        let below = VersionId::new(4);
        assert_eq!(
            h.latest_toucher(below, ByteRange::new(0, 10)),
            Some((VersionId::new(1), 128))
        );
        assert_eq!(
            h.latest_toucher(below, ByteRange::new(60, 10)),
            Some((VersionId::new(2), 256))
        );
        assert_eq!(
            h.latest_toucher(below, ByteRange::new(205, 1)),
            Some((VersionId::new(3), 256))
        );
        assert_eq!(h.latest_toucher(below, ByteRange::new(300, 10)), None);

        // Below v2 only v1 is visible.
        assert_eq!(
            h.latest_toucher(VersionId::new(2), ByteRange::new(60, 10)),
            Some((VersionId::new(1), 128))
        );
        // Below v1 nothing is visible.
        assert_eq!(
            h.latest_toucher(VersionId::new(1), ByteRange::new(0, 10)),
            None
        );
    }

    #[test]
    fn summaries_roundtrip_and_mirror() {
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 10)], 64));
        h.append(summary(2, &[(100, 10), (200, 4)], 128));
        h.append(summary(3, &[(50, 10)], 128));

        // Wire roundtrip preserves every field.
        for s in h.summaries_between(0, 3) {
            let mut bytes = Vec::new();
            s.encode(&mut bytes);
            assert_eq!(serde::decode_exact(&bytes), Ok(s));
        }

        // A mirror absorbing overlapping deltas converges without gaps.
        let mirror = VersionHistory::new();
        mirror.absorb(h.summaries_between(0, 2)).unwrap();
        mirror.absorb(h.summaries_between(1, 99)).unwrap(); // overlap: v2 already known
        assert_eq!(mirror.len(), 3);
        assert_eq!(
            mirror.latest_toucher(VersionId::new(4), ByteRange::new(55, 1)),
            Some((VersionId::new(3), 128))
        );
        assert!(h.summaries_between(3, 99).is_empty());
        assert!(h.summaries_between(99, 99).is_empty());
        assert!(h.summaries_between(99, 1).is_empty());
    }

    #[test]
    fn a_delta_stops_at_its_upper_row_whatever_was_appended_after() {
        // v3 lands after v2's grant but before v2's delta is read: the
        // delta still ends with v2.
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 10)], 64));
        h.append(summary(2, &[(10, 10)], 64));
        h.append(summary(3, &[(20, 10)], 64));
        let delta = h.summaries_between(0, 2);
        let versions: Vec<u64> = delta.iter().map(|s| s.version.raw()).collect();
        assert_eq!(versions, [1, 2]);
        assert_eq!(h.summaries_between(1, 2).len(), 1);
    }

    #[test]
    fn absorb_refuses_a_gap_or_a_shrinking_capacity_whole() {
        let mirror = VersionHistory::new();
        mirror.absorb(vec![summary(1, &[(0, 10)], 128)]).unwrap();
        for delta in [
            // v2 is missing.
            vec![summary(2, &[(0, 1)], 128), summary(4, &[(0, 1)], 128)],
            vec![summary(3, &[(0, 1)], 128)],
            // v3's capacity regresses below v2's (and v2's below v1's).
            vec![summary(2, &[(0, 1)], 256), summary(3, &[(0, 1)], 128)],
            vec![summary(2, &[(0, 1)], 64)],
        ] {
            let err = mirror.absorb(delta).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Transport {
                        kind: TransportErrorKind::Protocol,
                        ..
                    }
                ),
                "{err:?}"
            );
            assert_eq!(mirror.len(), 1, "a refused delta left rows behind");
        }
    }

    #[test]
    fn latest_toucher_boundary_semantics() {
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 100)], 128));
        // Adjacent (not overlapping) range does not count as touching.
        assert_eq!(
            h.latest_toucher(VersionId::new(2), ByteRange::new(100, 10)),
            None
        );
        // Empty range touches nothing.
        assert_eq!(
            h.latest_toucher(VersionId::new(2), ByteRange::empty()),
            None
        );
    }
}
