//! # atomio-types
//!
//! Foundation types shared by every crate in the `atomio` workspace: stable
//! identifiers, the byte-range / extent-list algebra that models
//! non-contiguous file accesses, chunk geometry helpers, error types, and
//! the writer-stamp encoding used by the atomicity verifier.
//!
//! The central abstraction is [`ExtentList`]: a sorted, coalesced set of
//! disjoint [`ByteRange`]s. An MPI-I/O request with a non-contiguous file
//! view flattens to an `ExtentList`; the versioning storage backend accepts
//! whole extent lists as single atomic operations, which is the paper's key
//! API extension (List-I/O-style vectored access, Ching et al. CLUSTER'02).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod chunk;
pub mod error;
pub mod extent;
pub mod ids;
pub mod range;
pub mod record;
pub mod retention;
pub mod stamp;
pub mod tempdir;

pub use backend::{BackendConfig, FsyncPolicy};
pub use chunk::{ChunkGeometry, ChunkKey, ChunkSpan};
pub use error::{Error, Result, TransportErrorKind};
pub use extent::ExtentList;
pub use ids::{BlobId, ChunkId, ClientId, ProviderId, VersionId};
pub use range::ByteRange;
pub use retention::RetentionPolicy;

/// Upper bound on an encoded message header: the largest request or
/// reply one wire frame carries. `atomio-rpc`'s frame codec enforces it,
/// and the version manager refuses a grant whose reply would pass it.
pub const MAX_HEADER_BYTES: u32 = 16 << 20;
