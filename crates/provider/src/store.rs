//! A single data provider: one storage server holding immutable chunks.
//!
//! There is one provider, [`Provider`]: the front that owns everything a
//! request costs and everything that can refuse it — id, cost model,
//! fault gate, the NIC and disk [`Resource`]s, byte accounting, the
//! booking of every data method and the scrub loop. What it *holds* sits
//! behind the zero-time [`ChunkTable`] interface, which has two
//! implementations: [`MemTable`] (a `HashMap`; [`DataProvider`]) and the
//! part file of [`crate::disk`] ([`DiskProvider`](crate::DiskProvider)).
//! Virtual time is therefore backend-invariant by construction.

use crate::integrity::{chunk_checksum, ScrubReport};
use atomio_simgrid::{CostModel, FaultInjector, Participant, Resource, SimTime};
use atomio_types::{ByteRange, ChunkId, Error, ProviderId, Result};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The chunk-storage surface the provider manager routes against.
///
/// [`Provider`] is the in-process implementation (the `Loopback`
/// transport); `atomio-rpc`'s `RemoteProvider` speaks the same interface
/// over a socket. Keeping the manager generic over this trait is what
/// lets one placement/replication/failover policy drive both deployments.
///
/// Every data request pays the NIC transfer and the disk transfer of the
/// bytes moved (the blocking variants also one RPC round trip). NIC and
/// disk are serialized virtual-time resources, so a provider saturates
/// under load — which is exactly why striping across providers raises
/// aggregate throughput.
pub trait ChunkStore: Send + Sync + std::fmt::Debug {
    /// This store's provider id (its slot in the manager's fleet).
    fn id(&self) -> ProviderId;

    /// Stores an immutable chunk, blocking the participant for the RPC
    /// round trip, the NIC transfer and the disk transfer.
    ///
    /// # Errors
    /// * [`Error::ProviderFailed`] if the provider is failed (checked
    ///   again after the transfer: it may fail while the bytes move).
    /// * [`Error::Internal`] if the chunk id already exists — chunk ids
    ///   are never reused, so a duplicate indicates a caller bug — or on
    ///   a media failure.
    fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()>;

    /// Reservation-based put for the pipelined transfer engine.
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
    /// which is indistinguishable to clients from the blocking path's
    /// abort-on-failure. A refused duplicate id has booked its transfer
    /// all the same — the bytes did cross the wire.
    ///
    /// # Errors
    /// Same as [`Self::put_chunk`].
    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime>;

    /// Fetches a whole chunk, blocking the participant for the RPC round
    /// trip, the disk read and the NIC send-out.
    fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes>;

    /// Fetches a sub-range of a chunk (fine-grain access: only the
    /// requested bytes cross the disk and network).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] if the range exceeds the stored chunk.
    fn get_chunk_range(&self, p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes>;

    /// Reservation-based ranged get: books the disk read and then the
    /// NIC send-out starting at `arrival` and returns `(payload, instant
    /// the last byte leaves this provider's NIC)` without blocking. The
    /// caller books its own reception NIC against that instant and
    /// sleeps to the batch max.
    ///
    /// # Errors
    /// Same as [`Self::get_chunk_range`]. All error paths cost nothing:
    /// nothing is booked before the payload is known to be servable.
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
    /// (remote proxies: one frame; [`Provider`]: one table update — on
    /// disk, one append).
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

    /// True if the chunk is present (no cost charged): whether it has an
    /// ingest checksum.
    fn has_chunk(&self, chunk: ChunkId) -> bool {
        self.checksum_of(chunk).is_some()
    }

    /// Number of chunks held.
    fn chunk_count(&self) -> usize;

    /// Total payload bytes held.
    fn bytes_stored(&self) -> u64;

    /// Deletes a chunk (version garbage collection), returning the
    /// payload bytes reclaimed. Missing chunks are ignored.
    fn evict_chunk(&self, chunk: ChunkId) -> u64;

    /// Deletes a batch of chunks, returning the total payload bytes
    /// reclaimed — the GC sweep's unit of work. The default loops over
    /// [`Self::evict_chunk`]; remote proxies override it with a single
    /// batched RPC, [`Provider`] with one table update after which the
    /// table sheds what the sweep left dead.
    fn evict_chunk_batch(&self, chunks: &[ChunkId]) -> u64 {
        chunks.iter().map(|&c| self.evict_chunk(c)).sum()
    }

    /// The ingest-time checksum of a chunk, if present.
    fn checksum_of(&self, chunk: ChunkId) -> Option<u64>;

    /// Flips one byte of a stored chunk in place, leaving the stored
    /// checksum stale — the bit-rot injection hook for integrity tests.
    /// No-op when the chunk or offset is missing, and on remote proxies,
    /// which hold no bytes (no request rewrites a stored chunk).
    fn corrupt_chunk(&self, chunk: ChunkId, byte: usize);

    /// Re-reads every chunk and verifies checksums, charging disk time
    /// for the full scan (scrubbing is not free). Backends that cannot
    /// scan in place (e.g. remote proxies) may report an empty pass.
    fn scrub(&self, _p: &Participant) -> ScrubReport {
        ScrubReport::default()
    }

    /// Stored payload length of a chunk, if this store can answer
    /// locally (no cost charged; lets whole-chunk reads go through the
    /// range-read path). Remote proxies return `None`.
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

/// What a [`Provider`] holds: a table of immutable chunks with their
/// ingest checksums. Every method is zero-time — cost, faults and typed
/// request errors are the front's — and a batch is the unit, so a table
/// can take its lock (and reach its media) once per batch.
pub trait ChunkTable: Send + Sync + std::fmt::Debug {
    /// Installs `(chunk, payload, ingest checksum)` items under one
    /// exclusive lock. One outcome per item, in order: `Ok(false)`
    /// refuses an id the table already holds or the batch repeats,
    /// `Err` is a media failure of that item alone.
    fn install_batch(&self, items: &[(ChunkId, &Bytes, u64)]) -> Vec<Result<bool>>;

    /// `(payload length, ingest checksum)` of a held chunk.
    fn lookup(&self, chunk: ChunkId) -> Option<(u64, u64)>;

    /// Reads one range of each of `chunks` under one shared lock, so no
    /// eviction or compaction can come between an item's lookup and its
    /// read. Per item, in order: `admit(item, stored length)` — `None`
    /// for a chunk not held — decides the range to read or refuses the
    /// item with the error to report; every admitted range is then read.
    fn read_batch(
        &self,
        chunks: impl Iterator<Item = ChunkId>,
        admit: impl FnMut(usize, Option<u64>) -> Result<ByteRange>,
    ) -> Vec<Result<Bytes>>;

    /// Drops the held chunks among `chunks`, returning the payload bytes
    /// reclaimed. A chunk whose eviction cannot be made durable stays.
    fn evict_batch(&self, chunks: &[ChunkId]) -> u64;

    /// Called after a sweep's eviction batch: give back whatever storage
    /// the evicted chunks still occupy, where that pays off.
    fn shed_dead(&self) {}

    /// Flips byte `byte` of a held chunk's payload where it is stored.
    fn flip_byte(&self, chunk: ChunkId, byte: usize);

    /// `(chunk, payload length, ingest checksum)` of every held chunk.
    fn entries(&self) -> Vec<(ChunkId, u64, u64)>;

    /// Number of chunks held.
    fn count(&self) -> usize;

    /// See [`ChunkStore::max_chunk_id`].
    fn max_chunk_id(&self) -> Option<ChunkId>;
}

/// The in-memory chunk table: payloads held (and handed out) by
/// reference count, never copied.
#[derive(Debug, Default)]
pub struct MemTable(RwLock<HashMap<ChunkId, (Bytes, u64)>>);

impl ChunkTable for MemTable {
    fn install_batch(&self, items: &[(ChunkId, &Bytes, u64)]) -> Vec<Result<bool>> {
        let mut chunks = self.0.write();
        items
            .iter()
            .map(|&(chunk, data, checksum)| match chunks.entry(chunk) {
                Entry::Occupied(_) => Ok(false),
                Entry::Vacant(slot) => {
                    slot.insert((data.clone(), checksum));
                    Ok(true)
                }
            })
            .collect()
    }

    fn lookup(&self, chunk: ChunkId) -> Option<(u64, u64)> {
        let chunks = self.0.read();
        chunks.get(&chunk).map(|(d, sum)| (d.len() as u64, *sum))
    }

    fn read_batch(
        &self,
        chunks: impl Iterator<Item = ChunkId>,
        mut admit: impl FnMut(usize, Option<u64>) -> Result<ByteRange>,
    ) -> Vec<Result<Bytes>> {
        let held = self.0.read();
        chunks
            .enumerate()
            .map(|(item, chunk)| {
                let data = held.get(&chunk).map(|(d, _)| d);
                let range = admit(item, data.map(|d| d.len() as u64))?;
                let data = data.expect("admitted, so held");
                Ok(data.slice(range.offset as usize..range.end() as usize))
            })
            .collect()
    }

    fn evict_batch(&self, chunks: &[ChunkId]) -> u64 {
        let mut held = self.0.write();
        chunks
            .iter()
            .filter_map(|chunk| held.remove(chunk))
            .map(|(data, _)| data.len() as u64)
            .sum()
    }

    fn flip_byte(&self, chunk: ChunkId, byte: usize) {
        if let Some((data, _)) = self.0.write().get_mut(&chunk) {
            if byte < data.len() {
                let mut owned = data.to_vec();
                owned[byte] ^= 0xFF;
                *data = Bytes::from(owned);
            }
        }
    }

    fn entries(&self) -> Vec<(ChunkId, u64, u64)> {
        let held = self.0.read();
        held.iter()
            .map(|(&chunk, (data, sum))| (chunk, data.len() as u64, *sum))
            .collect()
    }

    fn count(&self) -> usize {
        self.0.read().len()
    }

    fn max_chunk_id(&self) -> Option<ChunkId> {
        self.0.read().keys().max().copied()
    }
}

/// One storage server: the front every request goes through, over the
/// [`ChunkTable`] that holds the chunks.
#[derive(Debug)]
pub struct Provider<T> {
    id: ProviderId,
    cost: CostModel,
    nic: Resource,
    disk: Resource,
    faults: Arc<FaultInjector>,
    bytes_stored: AtomicU64,
    pub(crate) table: T,
}

/// One simulated storage server holding its chunks in memory.
pub type DataProvider = Provider<MemTable>;

impl DataProvider {
    /// Creates a provider with the given id, cost model, and fault plane.
    pub fn new(id: ProviderId, cost: CostModel, faults: Arc<FaultInjector>) -> Self {
        Provider::over(MemTable::default(), id, cost, faults)
    }
}

impl<T: ChunkTable> Provider<T> {
    /// Puts the front over `table`, accounting what it already holds.
    pub(crate) fn over(
        table: T,
        id: ProviderId,
        cost: CostModel,
        faults: Arc<FaultInjector>,
    ) -> Self {
        Provider {
            id,
            cost,
            nic: Resource::new(format!("{id}/nic")),
            disk: Resource::new(format!("{id}/disk")),
            faults,
            bytes_stored: AtomicU64::new(table.entries().iter().map(|e| e.1).sum()),
            table,
        }
    }

    /// This provider's id.
    pub fn id(&self) -> ProviderId {
        self.id
    }

    /// [`ChunkStore::put_chunk_at`], callable without the trait in scope.
    pub fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        ChunkStore::put_chunk_at(self, arrival, chunk, data)
    }

    /// [`ChunkStore::get_chunk_range_at`], callable without the trait in
    /// scope.
    pub fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        ChunkStore::get_chunk_range_at(self, arrival, chunk, range)
    }

    fn check_alive(&self) -> Result<()> {
        if self.faults.is_failed(self.id) {
            Err(Error::ProviderFailed(self.id))
        } else {
            Ok(())
        }
    }

    /// Checksums and installs a batch — the zero-time half of every put
    /// (the callers have booked its cost) — and accounts what landed.
    fn install<'a>(&self, items: impl Iterator<Item = (ChunkId, &'a Bytes)>) -> Vec<Result<()>> {
        let items: Vec<(ChunkId, &Bytes, u64)> = items
            .map(|(chunk, data)| (chunk, data, chunk_checksum(data)))
            .collect();
        let installed = self.table.install_batch(&items);
        installed
            .into_iter()
            .zip(items)
            .map(|(installed, (chunk, data, _))| {
                if !installed? {
                    let id = self.id;
                    return Err(Error::Internal(format!("chunk id {chunk} reused on {id}")));
                }
                self.bytes_stored
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                Ok(())
            })
            .collect()
    }

    /// Decides a get against the chunk's stored length (`None`: not
    /// held): the range to read — the whole chunk when none is asked for
    /// — or the typed refusal.
    fn admit(
        &self,
        chunk: ChunkId,
        len: Option<u64>,
        range: Option<ByteRange>,
    ) -> Result<ByteRange> {
        let len = len.ok_or(Error::ChunkNotFound {
            provider: self.id,
            chunk,
        })?;
        let range = range.unwrap_or(ByteRange::new(0, len));
        if range.end() > len {
            return Err(Error::OutOfBounds {
                requested_end: range.end(),
                snapshot_size: len,
            });
        }
        Ok(range)
    }

    /// Reads `range` of one chunk (the whole chunk when `None`), booking
    /// nothing.
    fn read(&self, chunk: ChunkId, range: Option<ByteRange>) -> Result<Bytes> {
        self.table
            .read_batch(std::iter::once(chunk), |_, len| {
                self.admit(chunk, len, range)
            })
            .pop()
            .expect("one item in, one outcome out")
    }

    /// The blocking get: RPC round trip, then the disk read and the NIC
    /// send-out of exactly the bytes asked for. Error paths serve
    /// nothing. The table is not locked while the participant sleeps, so
    /// the read looks the chunk up afresh.
    fn get_blocking(
        &self,
        p: &Participant,
        chunk: ChunkId,
        range: Option<ByteRange>,
    ) -> Result<Bytes> {
        self.check_alive()?;
        p.sleep(self.cost.rpc_round_trip());
        let len = self.table.lookup(chunk).map(|(len, _)| len);
        let range = self.admit(chunk, len, range)?;
        self.disk.serve(p, self.cost.disk_transfer(range.len));
        self.nic.serve(p, self.cost.net_transfer(range.len));
        self.read(chunk, Some(range))
    }

    fn evict(&self, chunks: &[ChunkId]) -> u64 {
        let reclaimed = self.table.evict_batch(chunks);
        self.bytes_stored.fetch_sub(reclaimed, Ordering::Relaxed);
        reclaimed
    }
}

impl<T: ChunkTable> ChunkStore for Provider<T> {
    fn id(&self) -> ProviderId {
        self.id
    }

    fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        self.check_alive()?;
        p.sleep(self.cost.rpc_round_trip());
        let len = data.len() as u64;
        self.nic.serve(p, self.cost.net_transfer(len));
        self.disk.serve(p, self.cost.disk_transfer(len));
        self.check_alive()?; // may have failed during the transfer
        self.install(std::iter::once((chunk, &data)))
            .pop()
            .expect("one item in, one outcome out")
    }

    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        self.put_batch_at(&[(arrival, chunk, data)])
            .pop()
            .expect("one item in, one outcome out")
    }

    fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        self.get_blocking(p, chunk, None)
    }

    fn get_chunk_range(&self, p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes> {
        self.get_blocking(p, chunk, Some(range))
    }

    fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        self.get_range_batch_at(&[(arrival, chunk, range)])
            .pop()
            .expect("one item in, one outcome out")
    }

    /// Every item books its NIC and then its disk transfer from its
    /// `arrival`, in item order, before anything is installed — so a
    /// refused duplicate has booked, as on the wire it would have.
    fn put_batch_at(&self, items: &[(SimTime, ChunkId, Bytes)]) -> Vec<Result<SimTime>> {
        if let Err(e) = self.check_alive() {
            return vec![Err(e); items.len()];
        }
        let booked: Vec<SimTime> = items
            .iter()
            .map(|(arrival, _, data)| {
                let len = data.len() as u64;
                let nic_done = self.nic.reserve(*arrival, self.cost.net_transfer(len));
                self.disk.reserve(nic_done, self.cost.disk_transfer(len))
            })
            .collect();
        self.install(items.iter().map(|(_, chunk, data)| (*chunk, data)))
            .into_iter()
            .zip(booked)
            .map(|(installed, done)| installed.map(|()| done))
            .collect()
    }

    /// Item by item, in order: lookup, bounds check, then the disk read
    /// and the NIC send-out booked from the item's `arrival` — a refused
    /// item books nothing — and only then the reads, all under the
    /// table's one shared lock.
    fn get_range_batch_at(
        &self,
        items: &[(SimTime, ChunkId, ByteRange)],
    ) -> Vec<Result<(Bytes, SimTime)>> {
        if let Err(e) = self.check_alive() {
            return vec![Err(e); items.len()];
        }
        let mut sent: Vec<SimTime> = vec![0; items.len()];
        let payloads = self
            .table
            .read_batch(items.iter().map(|item| item.1), |i, len| {
                let (arrival, chunk, range) = items[i];
                let range = self.admit(chunk, len, Some(range))?;
                let disk_done = self
                    .disk
                    .reserve(arrival, self.cost.disk_transfer(range.len));
                sent[i] = self
                    .nic
                    .reserve(disk_done, self.cost.net_transfer(range.len));
                Ok(range)
            });
        payloads
            .into_iter()
            .zip(sent)
            .map(|(payload, sent)| payload.map(|data| (data, sent)))
            .collect()
    }

    fn chunk_count(&self) -> usize {
        self.table.count()
    }

    fn bytes_stored(&self) -> u64 {
        self.bytes_stored.load(Ordering::Relaxed)
    }

    fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        self.evict(&[chunk])
    }

    fn evict_chunk_batch(&self, chunks: &[ChunkId]) -> u64 {
        let reclaimed = self.evict(chunks);
        self.table.shed_dead();
        reclaimed
    }

    fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        self.table.lookup(chunk).map(|(_, sum)| sum)
    }

    fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
        self.table.flip_byte(chunk, byte)
    }

    fn scrub(&self, p: &Participant) -> ScrubReport {
        let mut entries = self.table.entries();
        entries.sort_unstable_by_key(|&(chunk, ..)| chunk);
        let mut report = ScrubReport::default();
        for (chunk, len, checksum) in entries {
            self.disk.serve(p, self.cost.disk_transfer(len));
            match self.read(chunk, None) {
                Ok(data) if chunk_checksum(&data) == checksum => report.healthy += 1,
                // Evicted since the listing: nothing left to verify.
                Err(Error::ChunkNotFound { .. }) => {}
                _ => report.corrupted.push(chunk),
            }
        }
        report
    }

    fn chunk_len(&self, chunk: ChunkId) -> Option<u64> {
        self.table.lookup(chunk).map(|(len, _)| len)
    }

    fn max_chunk_id(&self) -> Option<ChunkId> {
        self.table.max_chunk_id()
    }

    fn disk(&self) -> &Resource {
        &self.disk
    }

    fn nic(&self) -> &Resource {
        &self.nic
    }

    fn cost(&self) -> &CostModel {
        &self.cost
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
