//! # atomio-core
//!
//! The paper's primary contribution, assembled: a **versioning storage
//! backend with native support for non-contiguous, MPI-atomic accesses**.
//!
//! A [`Store`] wires together the substrates:
//!
//! * data providers + provider manager ([`atomio_provider`]) — striping;
//! * metadata store + copy-on-write segment trees ([`atomio_meta`]) —
//!   shadowing;
//! * version manager ([`atomio_version`]) — ticketing and ordered,
//!   O(1) publication.
//!
//! A [`Blob`] is one shared file. Its write API is *vectored and atomic*:
//! [`Blob::write_list`] takes a whole extent list (the flattened footprint
//! of a non-contiguous MPI-I/O request) and applies it as **one snapshot**.
//! Concurrent `write_list` calls never wait for each other during data
//! transfer or metadata construction; the version manager orders the
//! resulting snapshots, so every read observes a state equal to replaying
//! complete writes in version order — exactly the MPI atomic-mode
//! guarantee, with no locks anywhere on the I/O path.
//!
//! ```
//! use atomio_core::{Store, StoreConfig};
//! use atomio_simgrid::clock::run_actors;
//! use atomio_types::ExtentList;
//!
//! let store = Store::new(StoreConfig::default().with_zero_cost());
//! let blob = store.create_blob();
//! let (results, _time) = run_actors(1, |_, p| {
//!     // A non-contiguous atomic write of two regions.
//!     let extents = ExtentList::from_pairs([(0u64, 4u64), (8, 4)]);
//!     let payload = bytes::Bytes::from_static(b"aaaabbbb");
//!     let v = blob.write_list(p, &extents, payload).unwrap();
//!     blob.read_at(p, v, &extents).unwrap()
//! });
//! assert_eq!(&results[0][..], b"aaaabbbb");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blob;
pub mod config;
pub mod gc;
pub mod namespace;
pub mod routing;
pub mod store;

pub use blob::{Blob, ReadVersion};
pub use config::{StoreConfig, TransportMode};
pub use gc::{collect_below, GcCoordinator, GcPassReport, GcReport};
pub use routing::{shard_of, slot_for_blob, slot_for_name, SLOT_COUNT};
pub use store::{Store, VersionOracleFactory};
