//! A single data provider: one storage server holding immutable chunks.

use crate::integrity::ScrubReport;
use atomio_simgrid::{CostModel, FaultInjector, Participant, Resource, SimTime};
use atomio_types::{ByteRange, ChunkId, Error, ProviderId, Result};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The chunk-storage surface the provider manager routes against.
///
/// [`DataProvider`] is the in-process implementation (the `Loopback`
/// transport); `atomio-rpc`'s `RemoteProvider` speaks the same interface
/// over a socket. Keeping the manager generic over this trait is what
/// lets one placement/replication/failover policy drive both deployments.
pub trait ChunkStore: Send + Sync + std::fmt::Debug {
    /// This store's provider id (its slot in the manager's fleet).
    fn id(&self) -> ProviderId;

    /// Stores an immutable chunk, blocking the participant for the
    /// transfer. See [`DataProvider::put_chunk`].
    fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()>;

    /// Reservation-based put for the pipelined transfer engine. See
    /// [`DataProvider::put_chunk_at`].
    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime>;

    /// Fetches a whole chunk. See [`DataProvider::get_chunk`].
    fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes>;

    /// Fetches a sub-range of a chunk. See
    /// [`DataProvider::get_chunk_range`].
    fn get_chunk_range(&self, p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes>;

    /// Reservation-based ranged get. See
    /// [`DataProvider::get_chunk_range_at`].
    fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)>;

    /// Reservation-based put of a whole batch — the unit the provider
    /// manager hands a store. One `(arrival, chunk, data)` per item, one
    /// outcome per item in the same order: an item that fails (a reused
    /// chunk id, say) never fails its neighbours. The default books the
    /// items one by one through [`Self::put_chunk_at`], which *is* the
    /// semantics; stores override it only to do the same work cheaper
    /// (remote proxies: one frame; the disk backend: one append per
    /// touched slot).
    fn put_batch_at(&self, items: &[(SimTime, ChunkId, Bytes)]) -> Vec<Result<SimTime>> {
        items
            .iter()
            .map(|(arrival, chunk, data)| self.put_chunk_at(*arrival, *chunk, data.clone()))
            .collect()
    }

    /// Reservation-based ranged get of a whole batch: one `(arrival,
    /// chunk, range)` per item, one `(payload, sent)` outcome per item in
    /// the same order. The default loops over
    /// [`Self::get_chunk_range_at`]; overrides keep its per-item results.
    fn get_range_batch_at(
        &self,
        items: &[(SimTime, ChunkId, ByteRange)],
    ) -> Vec<Result<(Bytes, SimTime)>> {
        items
            .iter()
            .map(|&(arrival, chunk, range)| self.get_chunk_range_at(arrival, chunk, range))
            .collect()
    }

    /// True if the chunk is present (no cost charged).
    fn has_chunk(&self, chunk: ChunkId) -> bool;

    /// Number of chunks held.
    fn chunk_count(&self) -> usize;

    /// Total payload bytes held (drives the `LeastLoaded` strategy).
    fn bytes_stored(&self) -> u64;

    /// Deletes a chunk, returning the payload bytes reclaimed.
    fn evict_chunk(&self, chunk: ChunkId) -> u64;

    /// Deletes a batch of chunks, returning the total payload bytes
    /// reclaimed — the GC sweep's unit of work. The default loops over
    /// [`Self::evict_chunk`]; remote proxies override it with a single
    /// batched RPC.
    fn evict_chunk_batch(&self, chunks: &[ChunkId]) -> u64 {
        chunks.iter().map(|&c| self.evict_chunk(c)).sum()
    }

    /// The ingest-time checksum of a chunk, if present.
    fn checksum_of(&self, chunk: ChunkId) -> Option<u64>;

    /// Bit-rot injection hook for integrity tests.
    fn corrupt_chunk(&self, chunk: ChunkId, byte: usize);

    /// Re-reads every chunk and verifies checksums. Backends that cannot
    /// scan in place (e.g. remote proxies) may report an empty pass.
    fn scrub(&self, _p: &Participant) -> ScrubReport {
        ScrubReport::default()
    }

    /// Stored payload length of a chunk, if this store can answer
    /// locally (no cost charged). Remote proxies return `None`.
    fn chunk_len(&self, _chunk: ChunkId) -> Option<u64> {
        None
    }

    /// Highest chunk id this store has ever held, if it tracks one.
    /// Durable backends answer from their recovery scan so a reopening
    /// deployment can resume its id allocator past every id already on
    /// disk; ephemeral and proxy stores return `None`.
    fn max_chunk_id(&self) -> Option<ChunkId> {
        None
    }

    /// The store's disk resource, for utilization accounting. Proxy
    /// stores expose an idle resource (zero requests) so reports skip it.
    fn disk(&self) -> &Resource;

    /// The store's NIC resource, for utilization accounting.
    fn nic(&self) -> &Resource;

    /// The cost model callers of the reservation API book their own side
    /// of a transfer against.
    fn cost(&self) -> &CostModel;
}

/// One simulated storage server.
///
/// Every request pays: one RPC round trip, the NIC transfer of the bytes
/// moved, and the disk transfer of the bytes moved. NIC and disk are
/// serialized virtual-time resources, so a provider saturates under load —
/// which is exactly why striping across providers raises aggregate
/// throughput.
#[derive(Debug)]
pub struct DataProvider {
    id: ProviderId,
    cost: CostModel,
    nic: Resource,
    disk: Resource,
    /// Chunk payloads with their ingest-time checksums.
    chunks: RwLock<HashMap<ChunkId, (Bytes, u64)>>,
    bytes_stored: AtomicU64,
    faults: Arc<FaultInjector>,
}

impl DataProvider {
    /// Creates a provider with the given id, cost model, and fault plane.
    pub fn new(id: ProviderId, cost: CostModel, faults: Arc<FaultInjector>) -> Self {
        DataProvider {
            id,
            cost,
            nic: Resource::new(format!("{id}/nic")),
            disk: Resource::new(format!("{id}/disk")),
            chunks: RwLock::new(HashMap::new()),
            bytes_stored: AtomicU64::new(0),
            faults: Arc::clone(&faults),
        }
    }

    /// This provider's id.
    pub fn id(&self) -> ProviderId {
        self.id
    }

    fn check_alive(&self) -> Result<()> {
        if self.faults.is_failed(self.id) {
            Err(Error::ProviderFailed(self.id))
        } else {
            Ok(())
        }
    }

    /// Stores an immutable chunk.
    ///
    /// # Errors
    /// * [`Error::ProviderFailed`] if the provider is failed.
    /// * [`Error::Internal`] if the chunk id already exists — chunk ids
    ///   are never reused, so a duplicate indicates a caller bug.
    pub fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        self.check_alive()?;
        p.sleep(self.cost.rpc_round_trip());
        let len = data.len() as u64;
        self.nic.serve(p, self.cost.net_transfer(len));
        self.disk.serve(p, self.cost.disk_transfer(len));
        self.check_alive()?; // may have failed during the transfer
        let checksum = crate::integrity::chunk_checksum(&data);
        let mut chunks = self.chunks.write();
        if chunks.contains_key(&chunk) {
            return Err(Error::Internal(format!(
                "chunk id {chunk} reused on {}",
                self.id
            )));
        }
        chunks.insert(chunk, (data, checksum));
        self.bytes_stored.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    /// Reservation-based variant of [`Self::put_chunk`] for the pipelined
    /// transfer engine.
    ///
    /// `arrival` is the absolute virtual instant the first payload byte
    /// reaches this provider (the caller has already accounted the RPC
    /// offset and its own injection NIC). The provider books its NIC and
    /// then its disk from there and returns the completion instant
    /// **without blocking** — the caller sleeps once, to the max
    /// completion over its whole batch. Booked this way, replica copies
    /// on distinct providers overlap while each provider's own devices
    /// still serialize.
    ///
    /// The chunk is recorded at booking time: a provider that fails
    /// mid-transfer keeps the payload but refuses all subsequent access,
    /// which is indistinguishable to clients from the serial path's
    /// abort-on-failure.
    ///
    /// # Errors
    /// Same as [`Self::put_chunk`].
    pub fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        self.check_alive()?;
        let len = data.len() as u64;
        let nic_done = self.nic.reserve(arrival, self.cost.net_transfer(len));
        let disk_done = self.disk.reserve(nic_done, self.cost.disk_transfer(len));
        let checksum = crate::integrity::chunk_checksum(&data);
        let mut chunks = self.chunks.write();
        if chunks.contains_key(&chunk) {
            return Err(Error::Internal(format!(
                "chunk id {chunk} reused on {}",
                self.id
            )));
        }
        chunks.insert(chunk, (data, checksum));
        self.bytes_stored.fetch_add(len, Ordering::Relaxed);
        Ok(disk_done)
    }

    /// Reservation-based variant of [`Self::get_chunk_range`]: books the
    /// disk read and then the NIC send-out starting at `arrival` and
    /// returns `(payload, instant the last byte leaves this provider's
    /// NIC)` without blocking. The caller books its own reception NIC
    /// against that instant and sleeps to the batch max.
    ///
    /// # Errors
    /// Same as [`Self::get_chunk_range`]. All error paths cost nothing:
    /// nothing is booked before the payload is known to be servable.
    pub fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        self.check_alive()?;
        let data = self
            .chunks
            .read()
            .get(&chunk)
            .map(|(d, _)| d.clone())
            .ok_or(Error::ChunkNotFound {
                provider: self.id,
                chunk,
            })?;
        if range.end() > data.len() as u64 {
            return Err(Error::OutOfBounds {
                requested_end: range.end(),
                snapshot_size: data.len() as u64,
            });
        }
        let disk_done = self
            .disk
            .reserve(arrival, self.cost.disk_transfer(range.len));
        let nic_done = self
            .nic
            .reserve(disk_done, self.cost.net_transfer(range.len));
        Ok((
            data.slice(range.offset as usize..range.end() as usize),
            nic_done,
        ))
    }

    /// Fetches a whole chunk.
    pub fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        self.check_alive()?;
        p.sleep(self.cost.rpc_round_trip());
        let data = self
            .chunks
            .read()
            .get(&chunk)
            .map(|(d, _)| d.clone())
            .ok_or(Error::ChunkNotFound {
                provider: self.id,
                chunk,
            })?;
        let len = data.len() as u64;
        self.disk.serve(p, self.cost.disk_transfer(len));
        self.nic.serve(p, self.cost.net_transfer(len));
        Ok(data)
    }

    /// Fetches a sub-range of a chunk (fine-grain access: only the
    /// requested bytes cross the disk and network).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] if the range exceeds the stored chunk.
    pub fn get_chunk_range(
        &self,
        p: &Participant,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<Bytes> {
        self.check_alive()?;
        p.sleep(self.cost.rpc_round_trip());
        let data = self
            .chunks
            .read()
            .get(&chunk)
            .map(|(d, _)| d.clone())
            .ok_or(Error::ChunkNotFound {
                provider: self.id,
                chunk,
            })?;
        if range.end() > data.len() as u64 {
            return Err(Error::OutOfBounds {
                requested_end: range.end(),
                snapshot_size: data.len() as u64,
            });
        }
        self.disk.serve(p, self.cost.disk_transfer(range.len));
        self.nic.serve(p, self.cost.net_transfer(range.len));
        Ok(data.slice(range.offset as usize..range.end() as usize))
    }

    /// True if the chunk is present (no cost charged; used by tests and
    /// repair logic).
    pub fn has_chunk(&self, chunk: ChunkId) -> bool {
        self.chunks.read().contains_key(&chunk)
    }

    /// Number of chunks held.
    pub fn chunk_count(&self) -> usize {
        self.chunks.read().len()
    }

    /// Total payload bytes held.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored.load(Ordering::Relaxed)
    }

    /// Deletes a chunk (used by version garbage collection), returning
    /// the number of payload bytes reclaimed. Missing chunks are ignored.
    pub fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        match self.chunks.write().remove(&chunk) {
            Some((data, _)) => {
                self.bytes_stored
                    .fetch_sub(data.len() as u64, Ordering::Relaxed);
                data.len() as u64
            }
            None => 0,
        }
    }

    /// The stored payload length of a chunk, if present (no cost
    /// charged; lets whole-chunk reads go through the range-read path).
    pub fn chunk_len(&self, chunk: ChunkId) -> Option<u64> {
        self.chunks.read().get(&chunk).map(|(d, _)| d.len() as u64)
    }

    /// The ingest-time checksum of a chunk, if present.
    pub fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        self.chunks.read().get(&chunk).map(|&(_, sum)| sum)
    }

    /// Flips one byte of a stored chunk in place — the bit-rot injection
    /// hook for integrity tests. No-op when the chunk or offset is
    /// missing. (Stored checksum is deliberately left stale.)
    pub fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
        let mut chunks = self.chunks.write();
        if let Some((data, _)) = chunks.get_mut(&chunk) {
            if byte < data.len() {
                let mut owned = data.to_vec();
                owned[byte] ^= 0xFF;
                *data = Bytes::from(owned);
            }
        }
    }

    /// Snapshot of `(chunk, payload, stored checksum)` for scrubbing.
    pub(crate) fn chunk_snapshot(&self) -> Vec<(ChunkId, Bytes, u64)> {
        self.chunks
            .read()
            .iter()
            .map(|(&id, (data, sum))| (id, data.clone(), *sum))
            .collect()
    }

    /// Charges disk time for scanning `len` bytes (scrub accounting).
    pub(crate) fn charge_disk_scan(&self, p: &Participant, len: u64) {
        self.disk.serve(p, self.cost.disk_transfer(len));
    }

    /// The provider's disk resource (for utilization accounting).
    pub fn disk(&self) -> &Resource {
        &self.disk
    }

    /// The provider's NIC resource (for utilization accounting).
    pub fn nic(&self) -> &Resource {
        &self.nic
    }

    /// The cost model this provider charges (callers of the reservation
    /// API need it to book their own side of a transfer).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

impl ChunkStore for DataProvider {
    fn id(&self) -> ProviderId {
        DataProvider::id(self)
    }

    fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        DataProvider::put_chunk(self, p, chunk, data)
    }

    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        DataProvider::put_chunk_at(self, arrival, chunk, data)
    }

    fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        DataProvider::get_chunk(self, p, chunk)
    }

    fn get_chunk_range(&self, p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes> {
        DataProvider::get_chunk_range(self, p, chunk, range)
    }

    fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        DataProvider::get_chunk_range_at(self, arrival, chunk, range)
    }

    fn has_chunk(&self, chunk: ChunkId) -> bool {
        DataProvider::has_chunk(self, chunk)
    }

    fn chunk_count(&self) -> usize {
        DataProvider::chunk_count(self)
    }

    fn bytes_stored(&self) -> u64 {
        DataProvider::bytes_stored(self)
    }

    fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        DataProvider::evict_chunk(self, chunk)
    }

    fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        DataProvider::checksum_of(self, chunk)
    }

    fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
        DataProvider::corrupt_chunk(self, chunk, byte)
    }

    fn scrub(&self, p: &Participant) -> ScrubReport {
        DataProvider::scrub(self, p)
    }

    fn chunk_len(&self, chunk: ChunkId) -> Option<u64> {
        DataProvider::chunk_len(self, chunk)
    }

    fn max_chunk_id(&self) -> Option<ChunkId> {
        self.chunks.read().keys().max().copied()
    }

    fn disk(&self) -> &Resource {
        DataProvider::disk(self)
    }

    fn nic(&self) -> &Resource {
        DataProvider::nic(self)
    }

    fn cost(&self) -> &CostModel {
        DataProvider::cost(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::clock::run_actors;

    fn provider(cost: CostModel) -> Arc<DataProvider> {
        Arc::new(DataProvider::new(
            ProviderId::new(0),
            cost,
            Arc::new(FaultInjector::default()),
        ))
    }

    #[test]
    fn put_get_roundtrip() {
        let prov = provider(CostModel::zero());
        let (res, _) = run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![1, 2, 3]))?;
            prov.get_chunk(p, ChunkId::new(1))
        });
        assert_eq!(res[0].as_ref().unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(prov.chunk_count(), 1);
        assert_eq!(prov.bytes_stored(), 3);
    }

    #[test]
    fn get_range_slices() {
        let prov = provider(CostModel::zero());
        let (res, _) = run_actors(1, |_, p| {
            prov.put_chunk(
                p,
                ChunkId::new(1),
                Bytes::from((0u8..100).collect::<Vec<_>>()),
            )?;
            prov.get_chunk_range(p, ChunkId::new(1), ByteRange::new(10, 5))
        });
        assert_eq!(res[0].as_ref().unwrap().as_ref(), &[10, 11, 12, 13, 14]);
    }

    #[test]
    fn get_range_out_of_bounds() {
        let prov = provider(CostModel::zero());
        let (res, _) = run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![0; 8]))?;
            prov.get_chunk_range(p, ChunkId::new(1), ByteRange::new(4, 8))
        });
        assert!(matches!(res[0], Err(Error::OutOfBounds { .. })));
    }

    #[test]
    fn missing_chunk_reports_provider() {
        let prov = provider(CostModel::zero());
        let (res, _) = run_actors(1, |_, p| prov.get_chunk(p, ChunkId::new(9)));
        assert_eq!(
            res[0],
            Err(Error::ChunkNotFound {
                provider: ProviderId::new(0),
                chunk: ChunkId::new(9)
            })
        );
    }

    #[test]
    fn duplicate_chunk_id_rejected() {
        let prov = provider(CostModel::zero());
        let (res, _) = run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![1]))?;
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![2]))
        });
        assert!(matches!(res[0], Err(Error::Internal(_))));
    }

    #[test]
    fn failed_provider_refuses() {
        let faults = Arc::new(FaultInjector::default());
        let prov = Arc::new(DataProvider::new(
            ProviderId::new(3),
            CostModel::zero(),
            Arc::clone(&faults),
        ));
        faults.fail_provider(ProviderId::new(3));
        let (res, _) = run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![1]))
        });
        assert_eq!(res[0], Err(Error::ProviderFailed(ProviderId::new(3))));
        faults.heal_provider(ProviderId::new(3));
        let (res, _) = run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![1]))
        });
        assert!(res[0].is_ok());
    }

    #[test]
    fn concurrent_puts_to_one_provider_serialize_on_disk() {
        // With the grid5000 cost model, 4 concurrent 1 MiB puts to one
        // provider must take ~4× the single-put disk time (disk is the
        // bottleneck): the provider serializes.
        let cost = CostModel::grid5000();
        let prov = provider(cost);
        let pr = Arc::clone(&prov);
        let (_, total) = run_actors(4, move |i, p| {
            pr.put_chunk(p, ChunkId::new(i as u64), Bytes::from(vec![0u8; 1 << 20]))
                .unwrap();
        });
        let disk_time = cost.disk_transfer(1 << 20);
        assert!(
            total >= disk_time * 4,
            "total {total:?} vs 4x disk {:?}",
            disk_time * 4
        );
        // ... but not pathologically more (NIC overlaps with disk).
        assert!(total < disk_time * 6, "total {total:?}");
    }

    #[test]
    fn reserved_put_matches_serial_timing() {
        // A single reserved put, slept to completion, costs exactly what
        // the blocking path does: rpc + net + disk.
        let cost = CostModel::grid5000();
        let serial = provider(cost);
        let (_, t_serial) = run_actors(1, |_, p| {
            serial
                .put_chunk(p, ChunkId::new(1), Bytes::from(vec![0u8; 4096]))
                .unwrap();
        });
        let reserved = provider(cost);
        let (_, t_reserved) = run_actors(1, |_, p| {
            let arrival = p.now_ns() + cost.rpc_round_trip().as_nanos() as u64;
            let done = reserved
                .put_chunk_at(arrival, ChunkId::new(1), Bytes::from(vec![0u8; 4096]))
                .unwrap();
            p.sleep_until_ns(done);
        });
        assert_eq!(t_serial, t_reserved);
        assert_eq!(serial.disk().busy_time(), reserved.disk().busy_time());
        assert_eq!(serial.nic().busy_time(), reserved.nic().busy_time());
    }

    #[test]
    fn reserved_get_matches_serial_timing() {
        let cost = CostModel::grid5000();
        let setup = |prov: &Arc<DataProvider>| {
            let pr = Arc::clone(prov);
            run_actors(1, move |_, p| {
                pr.put_chunk(p, ChunkId::new(1), Bytes::from(vec![7u8; 4096]))
                    .unwrap();
            });
        };
        let serial = provider(cost);
        setup(&serial);
        let (_, t_serial) = run_actors(1, |_, p| {
            serial
                .get_chunk_range(p, ChunkId::new(1), ByteRange::new(0, 4096))
                .unwrap();
        });
        let reserved = provider(cost);
        setup(&reserved);
        let (res, t_reserved) = run_actors(1, |_, p| {
            let arrival = p.now_ns() + cost.rpc_round_trip().as_nanos() as u64;
            let (data, done) = reserved
                .get_chunk_range_at(arrival, ChunkId::new(1), ByteRange::new(0, 4096))
                .unwrap();
            p.sleep_until_ns(done);
            data
        });
        assert_eq!(t_serial, t_reserved);
        assert_eq!(res[0].as_ref(), &[7u8; 4096][..]);
    }

    #[test]
    fn reserved_get_error_paths_book_nothing() {
        let prov = provider(CostModel::grid5000());
        let missing = prov.get_chunk_range_at(0, ChunkId::new(9), ByteRange::new(0, 4));
        assert!(matches!(missing, Err(Error::ChunkNotFound { .. })));
        assert_eq!(prov.disk().request_count(), 0);
        assert_eq!(prov.nic().request_count(), 0);
    }

    #[test]
    fn eviction_reclaims_bytes() {
        let prov = provider(CostModel::zero());
        let (_, _) = run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![0; 10]))
                .unwrap();
            prov.put_chunk(p, ChunkId::new(2), Bytes::from(vec![0; 20]))
                .unwrap();
        });
        assert_eq!(prov.bytes_stored(), 30);
        assert_eq!(prov.evict_chunk(ChunkId::new(1)), 10);
        assert_eq!(prov.bytes_stored(), 20);
        assert!(!prov.has_chunk(ChunkId::new(1)));
        assert_eq!(prov.evict_chunk(ChunkId::new(99)), 0); // no-op
        assert_eq!(prov.bytes_stored(), 20);
    }
}
