//! Strongly-typed identifiers for the entities of the storage system.
//!
//! All ids are small `Copy` newtypes over integers so they are free to pass
//! around, hash fast (they feed hash-partitioned metadata stores), and keep
//! function signatures self-documenting.

use serde::{Decode, Deserialize, Encode, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize, Encode, Decode,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Wraps a raw integer id.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw integer value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

id_newtype!(
    /// Identifies a BLOB (one shared file's backing object).
    BlobId,
    "blob-"
);
id_newtype!(
    /// Identifies an immutable data chunk stored on a data provider.
    ///
    /// Chunk ids are globally unique and never reused: versioning relies on
    /// data immutability, so an overwrite allocates a *new* chunk id rather
    /// than mutating an existing chunk.
    ChunkId,
    "chunk-"
);
id_newtype!(
    /// Identifies a data or metadata provider (a storage server).
    ProviderId,
    "prov-"
);
id_newtype!(
    /// Identifies a node of a copy-on-write metadata segment tree.
    NodeId,
    "mnode-"
);
id_newtype!(
    /// Identifies a client of the storage service (an MPI rank).
    ClientId,
    "client-"
);

/// A snapshot version of a BLOB.
///
/// Versions are dense and totally ordered: version `v` is the state of the
/// blob after the first `v` writes in publication order have been applied.
/// Version 0 is the empty initial snapshot created by `blob create`.
#[derive(
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    Serialize,
    Deserialize,
    Encode,
    Decode,
)]
pub struct VersionId(pub u64);

impl VersionId {
    /// The initial (empty) snapshot of every blob.
    pub const INITIAL: VersionId = VersionId(0);

    /// Wraps a raw version number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw version number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The version published immediately before this one.
    ///
    /// Returns `None` for the initial version.
    #[inline]
    pub fn predecessor(self) -> Option<VersionId> {
        self.0.checked_sub(1).map(VersionId)
    }

    /// The version published immediately after this one.
    #[inline]
    pub fn successor(self) -> VersionId {
        VersionId(self.0 + 1)
    }

    /// True for the initial (empty) snapshot.
    #[inline]
    pub fn is_initial(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for VersionId {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

/// A process-wide monotonic id allocator.
///
/// Services that mint fresh [`ChunkId`]s or [`NodeId`]s share one of these;
/// ids are unique across all threads for the life of the process.
#[derive(Debug, Default)]
pub struct IdAllocator {
    next: AtomicU64,
}

impl IdAllocator {
    /// Creates an allocator that starts at zero.
    pub const fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
        }
    }

    /// Creates an allocator that starts at `first`.
    pub const fn starting_at(first: u64) -> Self {
        Self {
            next: AtomicU64::new(first),
        }
    }

    /// Returns the next raw id. Never returns the same value twice.
    #[inline]
    pub fn next_raw(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns a fresh chunk id.
    #[inline]
    pub fn next_chunk(&self) -> ChunkId {
        ChunkId(self.next_raw())
    }

    /// Returns a fresh metadata node id.
    #[inline]
    pub fn next_node(&self) -> NodeId {
        NodeId(self.next_raw())
    }

    /// Returns a fresh blob id.
    #[inline]
    pub fn next_blob(&self) -> BlobId {
        BlobId(self.next_raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn version_ordering_is_publication_order() {
        let v1 = VersionId::new(1);
        let v2 = VersionId::new(2);
        assert!(v1 < v2);
        assert_eq!(v1.successor(), v2);
        assert_eq!(v2.predecessor(), Some(v1));
        assert_eq!(VersionId::INITIAL.predecessor(), None);
        assert!(VersionId::INITIAL.is_initial());
        assert!(!v1.is_initial());
    }

    #[test]
    fn id_display_includes_prefix() {
        assert_eq!(BlobId::new(7).to_string(), "blob-7");
        assert_eq!(ChunkId::new(3).to_string(), "chunk-3");
        assert_eq!(VersionId::new(9).to_string(), "v9");
        assert_eq!(format!("{:?}", NodeId::new(4)), "mnode-4");
    }

    #[test]
    fn id_roundtrips_raw() {
        let id = ProviderId::from(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(ProviderId::new(42), id);
    }

    #[test]
    fn allocator_is_monotonic() {
        let alloc = IdAllocator::new();
        let a = alloc.next_raw();
        let b = alloc.next_raw();
        let c = alloc.next_raw();
        assert!(a < b && b < c);
    }

    #[test]
    fn allocator_starting_at_offsets_ids() {
        let alloc = IdAllocator::starting_at(100);
        assert_eq!(alloc.next_raw(), 100);
        assert_eq!(alloc.next_chunk(), ChunkId::new(101));
    }

    #[test]
    fn allocator_unique_across_threads() {
        let alloc = Arc::new(IdAllocator::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let alloc = Arc::clone(&alloc);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| alloc.next_raw()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(seen.len(), 8000);
    }
}
