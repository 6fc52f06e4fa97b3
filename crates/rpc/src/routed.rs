//! Slot-routed fan-out over a sharded version service.
//!
//! [`SlotRoutedTransport`] implements [`Transport`] over a fleet of
//! per-shard transports: every version-manager request carries a blob id
//! ([`Request::vm_blob`]), the blob hashes to a slot
//! ([`slot_for_blob`]), and [`shard_of`] names the shard that owns it —
//! the same function each `--shard i/N` server checks ownership with.
//! Because the routing lives *under* the [`Transport`] seam,
//! [`crate::client::RemoteVersionManager`] — and everything above it —
//! runs unchanged against 1 shard or 16.
//!
//! The shard map is fixed at deploy time, so there is nothing to
//! refresh: an [`Error::WrongShard`](atomio_types::Error::WrongShard)
//! reply means this router's shard list disagrees with the servers'
//! `--shard` flags, and it reaches the caller as it came.

use crate::proto::{Request, Response};
use crate::transport::Transport;
use atomio_core::{shard_of, slot_for_blob};
use atomio_types::Result;
use bytes::Bytes;
use std::sync::Arc;

/// A [`Transport`] that routes each version-manager call to the shard
/// owning the blob's hash slot.
///
/// Requests without a routing key (metadata ops, `Ping`) go to shard 0 —
/// callers wanting a specific shard should hold that shard's transport
/// directly.
#[derive(Debug)]
pub struct SlotRoutedTransport {
    shards: Vec<Arc<dyn Transport>>,
}

impl SlotRoutedTransport {
    /// Builds a router over one transport per shard, in shard order:
    /// `shards[i]` must reach the server started with `--shard i/N`,
    /// where `N` is `shards.len()`.
    pub fn new(shards: Vec<Arc<dyn Transport>>) -> Self {
        assert!(!shards.is_empty(), "a routed transport needs shards");
        SlotRoutedTransport { shards }
    }
}

impl Transport for SlotRoutedTransport {
    fn call(&self, request: &Request, payload: &[u8]) -> Result<(Response, Bytes)> {
        let shard = request
            .vm_blob()
            .map_or(0, |blob| shard_of(slot_for_blob(blob), self.shards.len()));
        self.shards[shard].call(request, payload)
    }
}
