//! # atomio-workloads
//!
//! Workload generators reproducing the paper's access patterns, plus the
//! **atomicity verifier** that decides whether a final file state could
//! have been produced by *some* serial order of the concurrent writes —
//! the MPI atomic-mode guarantee.
//!
//! Workloads:
//! * [`overlap::OverlapWorkload`] — the §VI series-1 stress pattern:
//!   every client writes many non-contiguous regions deliberately
//!   overlapping its neighbours'.
//! * [`tile::TileWorkload`] — a faithful re-implementation of the
//!   mpi-tile-io benchmark's access pattern (2-D tiles with ghost-cell
//!   overlap), the §VI series-2 benchmark.
//! * [`checkpoint::CheckpointWorkload`] — iterative slab dumps with halo
//!   overlap, the "simulation dumps its state each iteration" pattern
//!   from the paper's introduction.
//! * [`pc`] — producer/consumer pipelines over snapshots (the §VII
//!   future-work scenario).
//!
//! [`harness`] drives any workload against any ADIO driver under the
//! virtual clock and reports throughput — shared by the integration
//! tests and the experiment binaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod harness;
pub mod overlap;
pub mod pc;
pub mod tile;
pub mod verify;

pub use checkpoint::CheckpointWorkload;
pub use harness::{run_checkpoint_with_gc, run_write_round, GcLoadOutcome, GcMode, RoundOutcome};
pub use overlap::OverlapWorkload;
pub use tile::TileWorkload;
pub use verify::{check_serializable, check_serializable_from, Violation, WriteRecord};
