//! Chunk geometry: how blob byte space maps onto fixed-size striped chunks.
//!
//! The versioning backend stripes every blob into fixed-size chunks that
//! are distributed over data providers (the paper's *data striping*
//! principle). [`ChunkGeometry`] is the pure arithmetic of that mapping:
//! which chunk indices a byte range touches, and the chunk-relative
//! sub-ranges involved.

use crate::extent::ExtentList;
use crate::ids::{BlobId, ChunkId, VersionId};
use crate::range::ByteRange;

/// Fixed-size striping geometry of a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkGeometry {
    chunk_size: u64,
}

impl ChunkGeometry {
    /// Creates a geometry with the given chunk size in bytes.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: u64) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self { chunk_size }
    }

    /// Chunk size in bytes.
    #[inline]
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Index of the chunk containing byte `pos`.
    #[inline]
    pub fn chunk_index(&self, pos: u64) -> u64 {
        pos / self.chunk_size
    }

    /// Blob-absolute byte range covered by chunk `index`.
    #[inline]
    pub fn chunk_range(&self, index: u64) -> ByteRange {
        ByteRange::new(index * self.chunk_size, self.chunk_size)
    }

    /// Number of chunks needed to cover `len` bytes.
    #[inline]
    pub fn chunks_for_len(&self, len: u64) -> u64 {
        len.div_ceil(self.chunk_size)
    }

    /// Splits a blob-absolute range into per-chunk spans, in ascending
    /// order. Each span records the chunk index, the blob-absolute
    /// sub-range, and the chunk-relative sub-range.
    pub fn split_range(&self, range: ByteRange) -> Vec<ChunkSpan> {
        if range.is_empty() {
            return Vec::new();
        }
        let first = self.chunk_index(range.offset);
        let last = self.chunk_index(range.end() - 1);
        let mut spans = Vec::with_capacity((last - first + 1) as usize);
        for index in first..=last {
            let chunk = self.chunk_range(index);
            let abs = range
                .intersect(chunk)
                .expect("chunk in [first,last] must intersect range");
            spans.push(ChunkSpan {
                index,
                absolute: abs,
                relative: abs.relative_to(chunk),
            });
        }
        spans
    }

    /// Splits every extent of a list into per-chunk spans, in file order.
    pub fn split_extents(&self, extents: &ExtentList) -> Vec<ChunkSpan> {
        let mut out = Vec::new();
        for &r in extents {
            out.extend(self.split_range(r));
        }
        out
    }

    /// The set of distinct chunk indices an extent list touches.
    pub fn touched_chunks(&self, extents: &ExtentList) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for &r in extents {
            if r.is_empty() {
                continue;
            }
            let first = self.chunk_index(r.offset);
            let last = self.chunk_index(r.end() - 1);
            for i in first..=last {
                if out.last() != Some(&i) {
                    out.push(i);
                }
            }
        }
        out.dedup();
        out
    }
}

/// The part of a byte range that falls inside a single chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Index of the chunk within the blob.
    pub index: u64,
    /// Blob-absolute byte range of this span.
    pub absolute: ByteRange,
    /// The same span in chunk-relative coordinates.
    pub relative: ByteRange,
}

/// Globally unique key of one stored chunk instance.
///
/// Because data is immutable, a `(blob, version, index)` triple written by
/// one writer is never overwritten; the `chunk` id is the provider-level
/// storage handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// Owning blob.
    pub blob: BlobId,
    /// Version whose write created the chunk.
    pub version: VersionId,
    /// Chunk index within the blob.
    pub index: u64,
    /// Provider-level storage handle.
    pub chunk: ChunkId,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> ChunkGeometry {
        ChunkGeometry::new(100)
    }

    #[test]
    fn index_and_range_roundtrip() {
        let g = geo();
        assert_eq!(g.chunk_index(0), 0);
        assert_eq!(g.chunk_index(99), 0);
        assert_eq!(g.chunk_index(100), 1);
        assert_eq!(g.chunk_range(2), ByteRange::new(200, 100));
        assert_eq!(g.chunks_for_len(0), 0);
        assert_eq!(g.chunks_for_len(1), 1);
        assert_eq!(g.chunks_for_len(100), 1);
        assert_eq!(g.chunks_for_len(101), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_size_rejected() {
        let _ = ChunkGeometry::new(0);
    }

    #[test]
    fn split_range_within_one_chunk() {
        let g = geo();
        let spans = g.split_range(ByteRange::new(110, 50));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].index, 1);
        assert_eq!(spans[0].absolute, ByteRange::new(110, 50));
        assert_eq!(spans[0].relative, ByteRange::new(10, 50));
    }

    #[test]
    fn split_range_across_chunks() {
        let g = geo();
        let spans = g.split_range(ByteRange::new(50, 200)); // [50, 250)
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.index, s.absolute, s.relative))
                .collect::<Vec<_>>(),
            vec![
                (0, ByteRange::new(50, 50), ByteRange::new(50, 50)),
                (1, ByteRange::new(100, 100), ByteRange::new(0, 100)),
                (2, ByteRange::new(200, 50), ByteRange::new(0, 50)),
            ]
        );
        // Spans tile the input exactly.
        let total: u64 = spans.iter().map(|s| s.absolute.len).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn split_range_chunk_aligned() {
        let g = geo();
        let spans = g.split_range(ByteRange::new(100, 100));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].relative, ByteRange::new(0, 100));
        assert!(g.split_range(ByteRange::empty()).is_empty());
    }

    #[test]
    fn split_extents_flattens_in_order() {
        let g = geo();
        let ext = ExtentList::from_pairs([(50u64, 100u64), (250, 10)]);
        let spans = g.split_extents(&ext);
        assert_eq!(
            spans.iter().map(|s| s.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn touched_chunks_dedups() {
        let g = geo();
        let ext = ExtentList::from_pairs([(0u64, 50u64), (60, 30), (150, 100)]);
        assert_eq!(g.touched_chunks(&ext), vec![0, 1, 2]);
        assert!(g.touched_chunks(&ExtentList::new()).is_empty());
    }
}
