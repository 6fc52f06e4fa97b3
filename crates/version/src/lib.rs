//! # atomio-version
//!
//! The version manager: the single tiny serialized point of the
//! versioning write path.
//!
//! Responsibilities (mirroring BlobSeer's version manager):
//!
//! 1. **Ticket issue** — assign each write a dense version number and
//!    record its write summary (extents + tree capacity) in the shared
//!    [`atomio_meta::VersionHistory`] *before* the writer moves any data,
//!    so concurrent writers can link to its future tree deterministically.
//! 2. **Ordered publication** — a snapshot becomes visible only when all
//!    its predecessors are visible. Publication is an O(1) bookkeeping
//!    flip; completed-but-early publications park in a pending set.
//! 3. **Snapshot registry** — readers resolve "latest" (or any historic
//!    version) to a root key + blob size without taking any lock that
//!    writers contend on.
//!
//! MPI atomicity falls out of this design: one `write_list` = one ticket
//! = one snapshot, and every reader sees a prefix of the publication
//! order — never a torn interleaving.
//!
//! Each of those steps is spelled once. [`VersionManager`]'s own methods
//! are the state machine, participant-free: network servers call them
//! directly. [`VersionOracle`] is the participant-taking surface the
//! blob path is written against; the manager's impl of it adds the
//! simulated cost of an in-process call, in one place. A published
//! version is one record type, [`PublishRecord`], on the publish log.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lease;
pub mod log;
pub mod manager;
pub mod oracle;

pub use lease::{LeaseGrant, LeaseManager};
pub use log::{LogReplay, LogStats, PublishLog, PublishRecord};
pub use manager::{
    version_manager_for, GcFloor, PublicationStats, SnapshotRecord, Ticket, TicketMode,
    VersionManager,
};
pub use oracle::VersionOracle;
