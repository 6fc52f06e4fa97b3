//! # atomio-mpiio
//!
//! The MPI-I/O layer: a ROMIO-style implementation of the parts of
//! MPI-2 I/O that the paper's evaluation exercises — derived datatypes
//! (vector, indexed, subarray, resized), file views, explicit-offset
//! reads and writes, the collective write [`File::write_at_all`]
//! (independent or two-phase), **atomic mode**, and the ADIO driver
//! abstraction through which different storage backends plug in.
//!
//! Nothing else of MPI-2 I/O is here: no individual or shared file
//! pointers, no typed memory buffers, no collective read.
//!
//! Three ADIO drivers implement the concurrency-control strategies the
//! paper compares (a whole-file lock, the fourth it discusses, equalled
//! the covering byte-range lock in every measured row and was deleted):
//!
//! | driver | strategy | paper reference |
//! |---|---|---|
//! | [`drivers::VersioningDriver`] | native non-contiguous atomic writes on the versioning store | the proposal (§IV–V) |
//! | [`drivers::LockingDriver`] | covering byte-range lock on a POSIX-like PFS | Lustre/GPFS baseline (§III) |
//! | [`drivers::ConflictDetectDriver`] | overlap detection, lock only on conflict | Sehrish et al., EuroPVM/MPI'09 \[9\] |
//!
//! "MPI processes" are simulated ranks: OS threads registered on the
//! virtual clock, grouped by a [`Communicator`] that provides barriers
//! and small collectives with simulated message costs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adio;
pub mod collective;
pub mod comm;
pub mod datatype;
pub mod drivers;
pub mod file;
pub mod view;

pub use adio::AdioDriver;
pub use collective::CollectiveStrategy;
pub use comm::Communicator;
pub use datatype::Datatype;
pub use file::{File, OpenMode};
pub use view::FileView;
