//! # atomio-pfs
//!
//! The locking-based baseline: a Lustre/GPFS-style parallel file system
//! with in-place striped objects and a distributed lock manager, plus a
//! PVFS-style mode with no locking (and no atomicity) at all.
//!
//! This is the system the paper compares against: POSIX atomicity is
//! provided by **byte-range extent locks** held for the duration of the
//! transfer. For a non-contiguous request the client must lock the
//! *smallest contiguous range covering all regions* — including the gaps
//! it never touches — which is precisely the "unnecessary
//! synchronization" the paper's §III calls out.
//!
//! Components:
//! * [`Ost`] — an object storage target: a mutable, striped byte store
//!   behind serialized NIC/disk resources (same cost model as the
//!   versioning backend's providers, so comparisons are fair).
//! * [`LockManager`] — fair (no-overtake FIFO) extent locks with shared /
//!   exclusive modes, granted concurrently when compatible; a request's
//!   conflicts are found by scanning the grant table.
//! * [`PfsFile`] / [`ParallelFs`] — files striped round-robin over OSTs,
//!   with raw (unlocked) `pwrite`/`pread` and POSIX-atomic variants that
//!   take the proper extent lock.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dlm;
pub mod file;
pub mod ost;

pub use dlm::{LockHandle, LockKind, LockManager};
pub use file::{ParallelFs, PfsFile};
pub use ost::Ost;
