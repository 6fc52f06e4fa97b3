//! Segment-tree node representation.

use atomio_types::{BlobId, ByteRange, ChunkId, ProviderId, VersionId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Deterministic address of a tree node: the version that created it and
/// the dyadic byte range it covers.
///
/// Determinism is what allows concurrent writers to link to each other's
/// nodes *before those nodes exist*: a writer computes the key of the
/// latest toucher of a range from write summaries alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeKey {
    /// Owning blob (trees of different blobs share one node store, as
    /// BlobSeer's DHT does, so the blob id is part of the key).
    pub blob: BlobId,
    /// Version that created the node.
    pub version: VersionId,
    /// Dyadic byte range the node covers.
    pub range: ByteRange,
}

impl NodeKey {
    /// Creates a key.
    pub fn new(blob: BlobId, version: VersionId, range: ByteRange) -> Self {
        NodeKey {
            blob,
            version,
            range,
        }
    }
}

impl fmt::Display for NodeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.blob, self.version, self.range)
    }
}

/// One leaf descriptor: a sub-range of the leaf's file space whose bytes
/// live in a stored chunk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeafEntry {
    /// Absolute file range the entry covers (contained in the leaf range).
    pub file_range: ByteRange,
    /// Chunk holding the bytes.
    pub chunk: ChunkId,
    /// Offset of `file_range`'s first byte within the chunk.
    pub chunk_offset: u64,
    /// Providers holding replicas of the chunk, primary first.
    pub homes: Vec<ProviderId>,
}

impl LeafEntry {
    /// Restricts the entry to `window`, adjusting the chunk offset.
    /// Returns `None` when the entry misses the window.
    pub fn clip(&self, window: ByteRange) -> Option<LeafEntry> {
        let cut = self.file_range.intersect(window)?;
        Some(LeafEntry {
            file_range: cut,
            chunk: self.chunk,
            chunk_offset: self.chunk_offset + (cut.offset - self.file_range.offset),
            homes: self.homes.clone(),
        })
    }
}

/// Node payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeBody {
    /// Interior node: links to the subtrees covering each half of the
    /// range. `None` means the half has never been written (reads as
    /// zeros).
    Inner {
        /// Subtree covering the lower half.
        left: Option<NodeKey>,
        /// Subtree covering the upper half.
        right: Option<NodeKey>,
    },
    /// Leaf node: the creating version's own descriptors, plus a link to
    /// the leaf of the previous toucher for bytes this version did not
    /// write.
    Leaf {
        /// This version's descriptors, sorted and disjoint.
        entries: Vec<LeafEntry>,
        /// Leaf of the latest earlier toucher of this leaf range, if any.
        backlink: Option<NodeKey>,
    },
}

/// An immutable segment-tree node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// The node's deterministic address.
    pub key: NodeKey,
    /// Interior links or leaf descriptors.
    pub body: NodeBody,
}

impl NodeKey {
    /// Serialized size of a key on the wire: blob id (8) + version (8) +
    /// range offset and length (8 + 8).
    pub const WIRE_SIZE: u64 = 32;
}

impl Node {
    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self.body, NodeBody::Leaf { .. })
    }

    /// Approximate serialized size of the node in bytes — what crosses
    /// the simulated network when the node is shipped to or from a
    /// metadata shard. Inner nodes carry their key plus two optional
    /// child keys; leaves carry their key, an optional backlink key, and
    /// per-entry descriptors (file range 16, chunk id 8, chunk offset 8,
    /// home count 8, 8 per home).
    pub fn wire_size(&self) -> u64 {
        NodeKey::WIRE_SIZE
            + match &self.body {
                NodeBody::Inner { .. } => 2 * (1 + NodeKey::WIRE_SIZE),
                NodeBody::Leaf { entries, .. } => {
                    1 + NodeKey::WIRE_SIZE
                        + entries
                            .iter()
                            .map(|e| 40 + 8 * e.homes.len() as u64)
                            .sum::<u64>()
                }
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(off: u64, len: u64, chunk: u64, chunk_off: u64) -> LeafEntry {
        LeafEntry {
            file_range: ByteRange::new(off, len),
            chunk: ChunkId::new(chunk),
            chunk_offset: chunk_off,
            homes: vec![ProviderId::new(0)],
        }
    }

    #[test]
    fn clip_inside() {
        let e = entry(100, 50, 7, 0);
        let c = e.clip(ByteRange::new(110, 20)).unwrap();
        assert_eq!(c.file_range, ByteRange::new(110, 20));
        assert_eq!(c.chunk_offset, 10);
        assert_eq!(c.chunk, ChunkId::new(7));
    }

    #[test]
    fn clip_partial_overlap() {
        let e = entry(100, 50, 7, 5);
        let c = e.clip(ByteRange::new(140, 100)).unwrap();
        assert_eq!(c.file_range, ByteRange::new(140, 10));
        assert_eq!(c.chunk_offset, 5 + 40);
    }

    #[test]
    fn clip_miss() {
        let e = entry(100, 50, 7, 0);
        assert!(e.clip(ByteRange::new(200, 10)).is_none());
        assert!(e.clip(ByteRange::empty()).is_none());
    }

    #[test]
    fn node_kind_predicates() {
        let leaf = Node {
            key: NodeKey::new(BlobId::new(0), VersionId::new(1), ByteRange::new(0, 64)),
            body: NodeBody::Leaf {
                entries: vec![],
                backlink: None,
            },
        };
        assert!(leaf.is_leaf());
        let inner = Node {
            key: NodeKey::new(BlobId::new(0), VersionId::new(1), ByteRange::new(0, 128)),
            body: NodeBody::Inner {
                left: None,
                right: None,
            },
        };
        assert!(!inner.is_leaf());
    }

    #[test]
    fn wire_size_tracks_shape() {
        let key = NodeKey::new(BlobId::new(0), VersionId::new(1), ByteRange::new(0, 128));
        let inner = Node {
            key,
            body: NodeBody::Inner {
                left: None,
                right: None,
            },
        };
        assert_eq!(inner.wire_size(), 32 + 2 * 33);
        let leaf = Node {
            key,
            body: NodeBody::Leaf {
                entries: vec![entry(0, 64, 1, 0), entry(64, 64, 2, 0)],
                backlink: None,
            },
        };
        // Key + backlink slot + 2 entries with one home each.
        assert_eq!(leaf.wire_size(), 32 + 33 + 2 * 48);
        let empty = Node {
            key,
            body: NodeBody::Leaf {
                entries: vec![],
                backlink: None,
            },
        };
        assert!(empty.wire_size() < leaf.wire_size());
    }

    #[test]
    fn nodes_roundtrip_through_wire_encoding() {
        let key = NodeKey::new(BlobId::new(7), VersionId::new(3), ByteRange::new(0, 128));
        let inner = Node {
            key,
            body: NodeBody::Inner {
                left: Some(NodeKey::new(
                    BlobId::new(7),
                    VersionId::new(2),
                    ByteRange::new(0, 64),
                )),
                right: None,
            },
        };
        assert_eq!(Node::from_value(&inner.to_value()).unwrap(), inner);
        let leaf = Node {
            key,
            body: NodeBody::Leaf {
                entries: vec![entry(0, 64, 9, 16)],
                backlink: Some(key),
            },
        };
        assert_eq!(Node::from_value(&leaf.to_value()).unwrap(), leaf);
    }

    #[test]
    fn key_display() {
        let k = NodeKey::new(BlobId::new(7), VersionId::new(3), ByteRange::new(0, 64));
        assert_eq!(k.to_string(), "(blob-7, v3, [0, 64))");
    }
}
