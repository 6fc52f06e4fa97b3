//! # atomio-meta
//!
//! Versioning metadata: the copy-on-write (shadowed) segment tree that
//! maps every published snapshot of a blob onto the immutable chunks that
//! hold its bytes. This is the mechanism behind the paper's third design
//! principle — *versioning as a key to enhance data access under
//! concurrency* — and the place where "the ordering is done and the
//! overlappings are resolved" (paper, §IV).
//!
//! ## Structure
//!
//! The byte space of a blob is covered by a binary segment tree over
//! **dyadic ranges**: leaves span `leaf_size` bytes, an inner node spans
//! the union of its two halves. Nodes are immutable and addressed by a
//! **deterministic key** `(version, range)` ([`NodeKey`]); they live in a
//! hash-partitioned [`MetaStore`] (BlobSeer keeps tree nodes in a DHT in
//! exactly this way).
//!
//! ## Shadowing without waiting
//!
//! A writer that was issued ticket `v` builds its tree **without reading
//! any other version's nodes and without waiting for concurrent writers**:
//!
//! * For subtrees it touches, it creates fresh nodes keyed `(v, range)`.
//! * For subtrees it does not touch, it *computes* the link target from
//!   the [`VersionHistory`] of write summaries: the child pointer is
//!   `(u, range)` where `u` is the latest version `< v` whose extents
//!   intersect `range` — whether or not `u` has published yet. Because
//!   keys are deterministic, `u`'s node is guaranteed to exist (or come
//!   into existence) under exactly that key.
//! * A leaf written only partially by `v` carries a `backlink` to the
//!   previous toucher's leaf; readers overlay the chain, so no
//!   read-modify-write of data ever happens.
//!
//! Consequently the only serialized step in the whole write path is the
//! version manager's O(1) publication flip — data transfers *and*
//! metadata builds of concurrent writers fully overlap, which is what
//! gives versioning its throughput advantage over locking.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod disk;
pub mod history;
pub mod node;
pub mod store;
pub mod tree;

pub use cache::NodeCache;
pub use disk::{node_store_for, DiskNodeStore};
pub use history::{VersionHistory, WriteSummary};
pub use node::{LeafEntry, Node, NodeBody, NodeKey};
pub use store::{LocalNodeStore, MetaStore, NodeStore};
pub use tree::{
    reach, resolve_with, PieceSource, Reached, ResolvedPiece, TreeBuilder, TreeConfig, TreeReader,
};
