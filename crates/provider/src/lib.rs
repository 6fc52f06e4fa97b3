//! # atomio-provider
//!
//! Data providers: the storage servers that hold immutable chunks of blob
//! data, plus the provider manager that implements the paper's **data
//! striping** principle (chunks spread over many providers so aggregate
//! bandwidth scales with provider count).
//!
//! Key property: chunks are **immutable**. A write never modifies a stored
//! chunk; it allocates fresh chunk ids and adds new chunk objects. That is
//! the data half of the versioning design — readers of old snapshots can
//! never observe a torn write, because the bytes they reference are never
//! touched again.
//!
//! [`Provider`] models one storage server: a NIC and a disk (both
//! serialized virtual-time resources from `atomio-simgrid`), a fault
//! gate and the booking of every request, in front of a [`ChunkTable`].
//! [`DataProvider`] is that front over an in-memory table;
//! [`DiskProvider`] is the same front over one append-only part file
//! with crash recovery.
//! Pick between them with [`chunk_store_for`] and a
//! [`BackendConfig`](atomio_types::BackendConfig). [`ProviderManager`]
//! places chunks round-robin and handles replication; it moves a whole `write_list` / `read_list` as
//! one batch per provider ([`ChunkStore::put_batch_at`] /
//! [`ChunkStore::get_range_batch_at`]), which a store may serve in one
//! frame or one append — with per-item results either way.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
pub mod integrity;
pub mod manager;
pub mod store;

pub use disk::{chunk_store_for, DiskProvider};
pub use integrity::{chunk_checksum, ScrubReport};
pub use manager::{AllocationStrategy, GetRequest, ProviderManager};
pub use store::{ChunkStore, ChunkTable, DataProvider, Provider};
