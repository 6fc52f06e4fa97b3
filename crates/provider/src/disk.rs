//! The on-disk data provider: slot-sharded append-only part files.
//!
//! `DiskProvider` implements the same [`ChunkStore`] surface as the
//! in-memory [`DataProvider`] — **identical virtual-time cost booking**,
//! so the simulation's timing is backend-invariant — but keeps every
//! chunk payload on disk:
//!
//! ```text
//! <dir>/superblock            one framed record: format version,
//!                             slot count, provider id
//! <dir>/slots/000/000.part    append-only record log of slot 0
//! <dir>/slots/001/000.part    …
//! ```
//!
//! Chunks are hash-routed to a slot (`mix64(chunk) % slots`, the
//! AmberBlob pre-sharded layout) and appended to that slot's part file
//! as a framed `PUT` record (chunk id, ingest checksum, payload length)
//! followed by the raw payload bytes **outside** the record frame;
//! [`ChunkStore::evict_chunk`] appends a `TOMBSTONE` record — payloads
//! are immutable and never rewritten, so crash atomicity needs no
//! in-place updates at all. A RAM index (chunk → slot, offset, length,
//! checksum) makes lookups O(1); reads seek straight to the payload.
//!
//! On open the provider replays every slot log to rebuild the index. A
//! torn tail — the crash landed mid-append, leaving a broken record or
//! a short payload — is truncated away instead of failing the open,
//! which is the whole recovery story: everything before the tear is
//! whole, everything after was never acknowledged durable. Keeping the
//! payload out of the record frame keeps the two integrity layers
//! separate: frame checksums catch *torn appends* at recovery time,
//! while payload *bit-rot* is deliberately left to [`scrub`]'s ingest
//! checksums — mid-file rot must not masquerade as a torn tail and
//! truncate away good chunks logged after it.
//!
//! [`scrub`]: DiskProvider::scrub

use crate::integrity::{chunk_checksum, ScrubReport};
use crate::store::ChunkStore;
use atomio_simgrid::{CostModel, FaultInjector, Participant, Resource, SimTime};
use atomio_types::record::{
    append_record, load_or_init_superblock, read_record_at, ByteReader, RECORD_HEADER_BYTES,
};
use atomio_types::stamp::mix64;
use atomio_types::{BackendConfig, ByteRange, ChunkId, Error, FsyncPolicy, ProviderId, Result};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default slot (shard directory) count for new provider directories;
/// reopened directories always use the count in their superblock.
pub const DEFAULT_SLOTS: u32 = 8;

/// Part-file record: a stored chunk (`chunk id | checksum |
/// payload_len`), with the payload bytes following the record raw.
const REC_PUT: u8 = 1;
/// Part-file record: an eviction tombstone (`chunk id`).
const REC_TOMBSTONE: u8 = 2;

/// Framed bytes of a PUT record excluding its payload: header plus the
/// 24-byte body (chunk id, checksum, payload length).
const PUT_FRAME_BYTES: u64 = (RECORD_HEADER_BYTES + 24) as u64;

/// Dead fraction at which [`DiskProvider::evict_chunk_batch`] compacts
/// a slot's part file (see [`DiskProvider::compact`]).
pub const COMPACT_DEAD_FRACTION: f64 = 0.5;

/// Live-record bytes vs total file bytes of one slot — the accounting
/// compaction decisions are made from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotUsage {
    /// Total part-file bytes.
    pub file_bytes: u64,
    /// Bytes belonging to live PUT records (frame + payload).
    pub live_bytes: u64,
}

impl SlotUsage {
    /// Bytes occupied by dead records: tombstoned puts, the tombstones
    /// themselves, and superseded duplicates.
    pub fn dead_bytes(&self) -> u64 {
        self.file_bytes - self.live_bytes
    }
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    slot: u32,
    /// Absolute offset of the payload bytes inside the slot's part file.
    payload_offset: u64,
    len: u64,
    checksum: u64,
}

/// Per-slot eviction batch: concatenated tombstone frames plus the
/// removed index entries (kept for resurrection if the append fails).
type SlotEvictBatch = (Vec<u8>, Vec<(ChunkId, IndexEntry)>);

#[derive(Debug)]
struct Slot {
    file: File,
    /// Current end of the part file (all appends land here).
    len: u64,
    /// Appends since the last fsync (the group-commit counter).
    unsynced: u32,
    /// File bytes occupied by live PUT records (frame + payload); the
    /// rest of `len` is dead weight reclaimable by compaction.
    live_bytes: u64,
}

impl Slot {
    fn append(&mut self, bytes: &[u8], policy: FsyncPolicy, context: &str) -> Result<u64> {
        let at = self.len;
        self.file
            .seek(SeekFrom::Start(at))
            .and_then(|_| self.file.write_all(bytes))
            .map_err(|e| Error::io(context, e))?;
        self.len += bytes.len() as u64;
        self.unsynced += 1;
        if policy.due(self.unsynced) {
            self.file.sync_data().map_err(|e| Error::io(context, e))?;
            self.unsynced = 0;
        }
        Ok(at)
    }

    /// One `pread`: no seek, and the append position is left alone.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8], context: &str) -> Result<()> {
        self.file
            .read_exact_at(buf, offset)
            .map_err(|e| Error::io(context, e))
    }
}

/// One durable storage server: same cost model and request semantics as
/// [`DataProvider`], payloads in slot-sharded append-only part files.
///
/// [`DataProvider`]: crate::store::DataProvider
#[derive(Debug)]
pub struct DiskProvider {
    id: ProviderId,
    dir: PathBuf,
    cost: CostModel,
    nic: Resource,
    disk: Resource,
    faults: Arc<FaultInjector>,
    fsync: FsyncPolicy,
    slots: Vec<Mutex<Slot>>,
    index: RwLock<HashMap<ChunkId, IndexEntry>>,
    bytes_stored: AtomicU64,
    /// `raw + 1` of the highest chunk id ever logged (0 = none), counting
    /// tombstoned chunks too: ids are never reused, even across restarts.
    max_chunk_seen: AtomicU64,
}

impl DiskProvider {
    /// Opens (creating or recovering) a provider rooted at `dir` with the
    /// default slot count.
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure or when `dir` holds another
    /// provider's (or another format version's) state.
    pub fn open(
        dir: impl Into<PathBuf>,
        id: ProviderId,
        cost: CostModel,
        faults: Arc<FaultInjector>,
        fsync: FsyncPolicy,
    ) -> Result<Self> {
        Self::open_with_slots(dir, id, cost, faults, fsync, DEFAULT_SLOTS)
    }

    /// [`Self::open`] with an explicit slot count for new directories.
    /// Reopened directories keep the slot count in their superblock —
    /// routing must not change under existing part files.
    pub fn open_with_slots(
        dir: impl Into<PathBuf>,
        id: ProviderId,
        cost: CostModel,
        faults: Arc<FaultInjector>,
        fsync: FsyncPolicy,
        slot_count: u32,
    ) -> Result<Self> {
        assert!(slot_count > 0, "need at least one slot");
        let dir = dir.into();
        let shown = dir.display().to_string();
        let ctx = move |what: &str| format!("provider {id} {what} under {shown}");
        std::fs::create_dir_all(&dir).map_err(|e| Error::io(ctx("create dir"), e))?;
        let slot_count = load_or_init_superblock(
            &dir.join("superblock"),
            slot_count,
            id.raw(),
            &format!("provider {id}"),
        )?;

        let mut provider = DiskProvider {
            id,
            cost,
            nic: Resource::new(format!("{id}/nic")),
            disk: Resource::new(format!("{id}/disk")),
            faults,
            fsync,
            slots: Vec::with_capacity(slot_count as usize),
            index: RwLock::new(HashMap::new()),
            bytes_stored: AtomicU64::new(0),
            max_chunk_seen: AtomicU64::new(0),
            dir,
        };

        let mut index = HashMap::new();
        let mut bytes = 0u64;
        let mut max_seen = 0u64;
        for s in 0..slot_count {
            let slot_dir = provider.dir.join("slots").join(format!("{s:03}"));
            std::fs::create_dir_all(&slot_dir).map_err(|e| Error::io(ctx("create slot"), e))?;
            let path = slot_dir.join("000.part");
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
                .map_err(|e| Error::io(ctx("open part file"), e))?;
            let mut contents = Vec::new();
            file.read_to_end(&mut contents)
                .map_err(|e| Error::io(ctx("scan part file"), e))?;

            // Walk records by hand: PUT records are followed by their
            // out-of-frame payload, which a generic record scan cannot
            // step over.
            let mut pos = 0usize;
            let mut valid = 0u64;
            let mut live = 0u64;
            let mut torn = false;
            while pos < contents.len() {
                let Some((rec, next)) = read_record_at(&contents, pos) else {
                    torn = true;
                    break;
                };
                let mut r = ByteReader::new(&rec.body);
                match rec.kind {
                    REC_PUT => {
                        let (Some(raw), Some(checksum), Some(len)) = (r.u64(), r.u64(), r.u64())
                        else {
                            return Err(Error::Internal(ctx("malformed put record")));
                        };
                        if contents.len() < next + len as usize {
                            // Crash landed inside the payload bytes.
                            torn = true;
                            break;
                        }
                        let chunk = ChunkId::new(raw);
                        max_seen = max_seen.max(raw + 1);
                        // First write wins, matching the live path's
                        // duplicate-id rejection.
                        if let std::collections::hash_map::Entry::Vacant(e) = index.entry(chunk) {
                            e.insert(IndexEntry {
                                slot: s,
                                payload_offset: next as u64,
                                len,
                                checksum,
                            });
                            bytes += len;
                            live += (next - pos) as u64 + len;
                        }
                        pos = next + len as usize;
                    }
                    REC_TOMBSTONE => {
                        let Some(raw) = r.u64() else {
                            return Err(Error::Internal(ctx("malformed tombstone")));
                        };
                        max_seen = max_seen.max(raw + 1);
                        if let Some(old) = index.remove(&ChunkId::new(raw)) {
                            bytes -= old.len;
                            live -= PUT_FRAME_BYTES + old.len;
                        }
                        pos = next;
                    }
                    other => {
                        return Err(Error::Internal(ctx(&format!(
                            "unknown record kind {other}"
                        ))));
                    }
                }
                valid = pos as u64;
            }
            if torn {
                file.set_len(valid)
                    .map_err(|e| Error::io(ctx("truncate torn tail"), e))?;
                file.sync_data()
                    .map_err(|e| Error::io(ctx("sync truncation"), e))?;
            }
            provider.slots.push(Mutex::new(Slot {
                file,
                len: valid,
                unsynced: 0,
                live_bytes: live,
            }));
        }
        provider.index = RwLock::new(index);
        provider.bytes_stored = AtomicU64::new(bytes);
        provider.max_chunk_seen = AtomicU64::new(max_seen);
        Ok(provider)
    }

    /// This provider's id.
    pub fn id(&self) -> ProviderId {
        self.id
    }

    /// Root directory of this provider's state.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn check_alive(&self) -> Result<()> {
        if self.faults.is_failed(self.id) {
            Err(Error::ProviderFailed(self.id))
        } else {
            Ok(())
        }
    }

    fn slot_of(&self, chunk: ChunkId) -> usize {
        (mix64(chunk.raw() ^ 0xD15C_51A7) % self.slots.len() as u64) as usize
    }

    /// Appends the PUT records of a batch and indexes them — the shared
    /// zero-time half of every put path (cost is booked by the callers).
    /// All records bound for one slot are framed into one buffer and
    /// appended with one write (and, when the fsync policy says so, one
    /// sync): a batch costs one append per touched slot however many
    /// chunks it carries. One outcome per item, in order: a reused chunk
    /// id — chunk ids are never reused, so a caller bug — is refused
    /// alone, and a failed append fails the records of that slot only.
    fn install_batch<'a>(
        &self,
        items: impl Iterator<Item = (ChunkId, &'a Bytes)> + Clone,
    ) -> Vec<Result<()>> {
        /// One framed record awaiting its slot's append.
        struct Framed {
            item: usize,
            chunk: ChunkId,
            /// Offset of the payload inside the slot's buffer.
            payload_at: u64,
            len: u64,
            checksum: u64,
        }
        // Each slot's buffer is sized once, for exactly its records.
        let mut sizes = vec![0usize; self.slots.len()];
        for (chunk, data) in items.clone() {
            sizes[self.slot_of(chunk)] += PUT_FRAME_BYTES as usize + data.len();
        }
        let mut buffers: Vec<Vec<u8>> = sizes.into_iter().map(Vec::with_capacity).collect();
        let mut framed: Vec<Vec<Framed>> = (0..self.slots.len()).map(|_| Vec::new()).collect();
        let mut outcomes = Vec::new();
        let mut batch_ids = HashSet::new();

        let mut index = self.index.write();
        for (item, (chunk, data)) in items.enumerate() {
            if index.contains_key(&chunk) || !batch_ids.insert(chunk) {
                outcomes.push(Err(Error::Internal(format!(
                    "chunk id {chunk} reused on {}",
                    self.id
                ))));
                continue;
            }
            outcomes.push(Ok(()));
            let checksum = chunk_checksum(data);
            let mut body = [0u8; 24];
            body[..8].copy_from_slice(&chunk.raw().to_be_bytes());
            body[8..16].copy_from_slice(&checksum.to_be_bytes());
            body[16..].copy_from_slice(&(data.len() as u64).to_be_bytes());
            // Framed metadata record, then the raw payload out-of-frame
            // (see the module docs for why).
            let s = self.slot_of(chunk);
            append_record(&mut buffers[s], REC_PUT, &body);
            framed[s].push(Framed {
                item,
                chunk,
                payload_at: buffers[s].len() as u64,
                len: data.len() as u64,
                checksum,
            });
            buffers[s].extend_from_slice(data);
        }
        for (s, (buffer, framed)) in buffers.iter().zip(framed).enumerate() {
            if framed.is_empty() {
                continue;
            }
            let appended = {
                let mut slot = self.slots[s].lock();
                let appended = slot.append(buffer, self.fsync, "part append");
                if appended.is_ok() {
                    slot.live_bytes += buffer.len() as u64;
                }
                appended
            };
            match appended {
                Ok(at) => {
                    for record in framed {
                        index.insert(
                            record.chunk,
                            IndexEntry {
                                slot: s as u32,
                                payload_offset: at + record.payload_at,
                                len: record.len,
                                checksum: record.checksum,
                            },
                        );
                        self.bytes_stored.fetch_add(record.len, Ordering::Relaxed);
                        self.max_chunk_seen
                            .fetch_max(record.chunk.raw() + 1, Ordering::Relaxed);
                    }
                }
                Err(e) => {
                    for record in framed {
                        outcomes[record.item] = Err(e.clone());
                    }
                }
            }
        }
        outcomes
    }

    /// [`Self::install_batch`] of one chunk.
    fn install(&self, chunk: ChunkId, data: &Bytes) -> Result<()> {
        self.install_batch(std::iter::once((chunk, data)))
            .pop()
            .expect("one item in, one outcome out")
    }

    fn lookup(&self, chunk: ChunkId) -> Result<IndexEntry> {
        self.index
            .read()
            .get(&chunk)
            .copied()
            .ok_or(Error::ChunkNotFound {
                provider: self.id,
                chunk,
            })
    }

    /// Reads `range` of the chunk's payload straight off the part file.
    fn read_payload(&self, entry: IndexEntry, range: ByteRange) -> Result<Bytes> {
        let mut buf = vec![0u8; range.len as usize];
        self.slots[entry.slot as usize].lock().read_exact_at(
            entry.payload_offset + range.offset,
            &mut buf,
            "part read",
        )?;
        Ok(Bytes::from(buf))
    }

    /// Stores an immutable chunk. Cost booking is byte-for-byte the
    /// in-memory provider's: RPC round trip, NIC transfer, disk transfer.
    ///
    /// # Errors
    /// As `DataProvider::put_chunk`, plus [`Error::Internal`] on I/O
    /// failure.
    pub fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        self.check_alive()?;
        p.sleep(self.cost.rpc_round_trip());
        let len = data.len() as u64;
        self.nic.serve(p, self.cost.net_transfer(len));
        self.disk.serve(p, self.cost.disk_transfer(len));
        self.check_alive()?; // may have failed during the transfer
        self.install(chunk, &data)
    }

    /// Reservation-based put (see `DataProvider::put_chunk_at`).
    pub fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        self.check_alive()?;
        let len = data.len() as u64;
        let nic_done = self.nic.reserve(arrival, self.cost.net_transfer(len));
        let disk_done = self.disk.reserve(nic_done, self.cost.disk_transfer(len));
        self.install(chunk, &data)?;
        Ok(disk_done)
    }

    /// Reservation-based ranged get (see
    /// `DataProvider::get_chunk_range_at`). Error paths book nothing.
    pub fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        self.check_alive()?;
        let entry = self.lookup(chunk)?;
        let sent = self.book_get(entry, arrival, range)?;
        Ok((self.read_payload(entry, range)?, sent))
    }

    /// Bounds-checks a ranged get against its chunk and books the disk
    /// read, then the NIC send-out, from `arrival`; returns the instant
    /// the last byte leaves. An out-of-bounds range books nothing.
    fn book_get(&self, entry: IndexEntry, arrival: SimTime, range: ByteRange) -> Result<SimTime> {
        if range.end() > entry.len {
            return Err(Error::OutOfBounds {
                requested_end: range.end(),
                snapshot_size: entry.len,
            });
        }
        let disk_done = self
            .disk
            .reserve(arrival, self.cost.disk_transfer(range.len));
        Ok(self
            .nic
            .reserve(disk_done, self.cost.net_transfer(range.len)))
    }

    /// Reservation-based put of a batch: every item is booked exactly as
    /// [`Self::put_chunk_at`] books it, in order, and the records reach
    /// the part files with one append — and at most one sync — per
    /// touched slot, however many chunks the batch carries.
    pub fn put_batch_at(&self, items: &[(SimTime, ChunkId, Bytes)]) -> Vec<Result<SimTime>> {
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
        self.install_batch(items.iter().map(|(_, chunk, data)| (*chunk, data)))
            .into_iter()
            .zip(booked)
            .map(|(installed, done)| installed.map(|()| done))
            .collect()
    }

    /// Reservation-based ranged get of a batch: lookups, bounds checks
    /// and bookings are those of [`Self::get_chunk_range_at`], item by
    /// item in order; the payloads are then `pread` straight into one
    /// buffer the returned slices share. The index is held (shared) for
    /// the whole batch, so a compaction cannot move a payload between
    /// its lookup and its read.
    pub fn get_range_batch_at(
        &self,
        items: &[(SimTime, ChunkId, ByteRange)],
    ) -> Vec<Result<(Bytes, SimTime)>> {
        if let Err(e) = self.check_alive() {
            return vec![Err(e); items.len()];
        }
        let index = self.index.read();
        // Per item: where its payload sits on disk, where it goes in the
        // shared buffer, and when its last byte leaves.
        let mut total = 0usize;
        let mut planned: Vec<Result<(IndexEntry, usize, SimTime)>> = items
            .iter()
            .map(|&(arrival, chunk, range)| {
                let entry = index.get(&chunk).copied().ok_or(Error::ChunkNotFound {
                    provider: self.id,
                    chunk,
                })?;
                let sent = self.book_get(entry, arrival, range)?;
                let at = total;
                total += range.len as usize;
                Ok((entry, at, sent))
            })
            .collect();
        let mut buf = vec![0u8; total];
        for (plan, &(_, _, range)) in planned.iter_mut().zip(items) {
            if let Ok((entry, at, _)) = *plan {
                let read = self.slots[entry.slot as usize].lock().read_exact_at(
                    entry.payload_offset + range.offset,
                    &mut buf[at..at + range.len as usize],
                    "part read",
                );
                if let Err(e) = read {
                    *plan = Err(e);
                }
            }
        }
        drop(index);
        let buf = Bytes::from(buf);
        planned
            .into_iter()
            .zip(items)
            .map(|(plan, &(_, _, range))| {
                plan.map(|(_, at, sent)| (buf.slice(at..at + range.len as usize), sent))
            })
            .collect()
    }

    /// Fetches a whole chunk.
    pub fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        self.check_alive()?;
        p.sleep(self.cost.rpc_round_trip());
        let entry = self.lookup(chunk)?;
        self.disk.serve(p, self.cost.disk_transfer(entry.len));
        self.nic.serve(p, self.cost.net_transfer(entry.len));
        self.read_payload(entry, ByteRange::new(0, entry.len))
    }

    /// Fetches a sub-range of a chunk.
    pub fn get_chunk_range(
        &self,
        p: &Participant,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<Bytes> {
        self.check_alive()?;
        p.sleep(self.cost.rpc_round_trip());
        let entry = self.lookup(chunk)?;
        if range.end() > entry.len {
            return Err(Error::OutOfBounds {
                requested_end: range.end(),
                snapshot_size: entry.len,
            });
        }
        self.disk.serve(p, self.cost.disk_transfer(range.len));
        self.nic.serve(p, self.cost.net_transfer(range.len));
        self.read_payload(entry, range)
    }

    /// True if the chunk is live (present and not tombstoned).
    pub fn has_chunk(&self, chunk: ChunkId) -> bool {
        self.index.read().contains_key(&chunk)
    }

    /// Number of live chunks.
    pub fn chunk_count(&self) -> usize {
        self.index.read().len()
    }

    /// Total live payload bytes.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored.load(Ordering::Relaxed)
    }

    /// The stored payload length of a live chunk.
    pub fn chunk_len(&self, chunk: ChunkId) -> Option<u64> {
        self.index.read().get(&chunk).map(|e| e.len)
    }

    /// The ingest-time checksum of a live chunk.
    pub fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        self.index.read().get(&chunk).map(|e| e.checksum)
    }

    /// Appends a tombstone and drops the chunk from the index, returning
    /// the payload bytes logically reclaimed. The part-file bytes stay
    /// behind as *dead* (recovery replays the tombstone too) until
    /// [`DiskProvider::compact`] — or a batch eviction — rewrites the
    /// slot.
    pub fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        let mut index = self.index.write();
        let Some(entry) = index.remove(&chunk) else {
            return 0;
        };
        let mut framed = Vec::with_capacity(32 + 8);
        append_record(&mut framed, REC_TOMBSTONE, &chunk.raw().to_be_bytes());
        // An eviction that cannot reach disk must not pretend the chunk
        // is gone — put it back and report nothing reclaimed.
        {
            let mut slot = self.slots[entry.slot as usize].lock();
            if slot
                .append(&framed, self.fsync, "tombstone append")
                .is_err()
            {
                index.insert(chunk, entry);
                return 0;
            }
            slot.live_bytes -= PUT_FRAME_BYTES + entry.len;
        }
        drop(index);
        self.bytes_stored.fetch_sub(entry.len, Ordering::Relaxed);
        entry.len
    }

    /// Batched eviction — the collector's sweep path. Tombstones are
    /// grouped per slot, so the whole batch costs one append (and at
    /// most one fsync) per touched slot instead of one per chunk; any
    /// slot the batch leaves more than [`COMPACT_DEAD_FRACTION`] dead is
    /// then compacted. Returns the payload bytes logically reclaimed.
    pub fn evict_chunk_batch(&self, chunks: &[ChunkId]) -> u64 {
        let mut reclaimed = 0u64;
        {
            let mut index = self.index.write();
            let mut per_slot: HashMap<usize, SlotEvictBatch> = HashMap::new();
            for &chunk in chunks {
                let Some(entry) = index.remove(&chunk) else {
                    continue;
                };
                let (framed, removed) = per_slot.entry(entry.slot as usize).or_default();
                append_record(framed, REC_TOMBSTONE, &chunk.raw().to_be_bytes());
                removed.push((chunk, entry));
            }
            for (s, (framed, removed)) in per_slot {
                let mut slot = self.slots[s].lock();
                if slot
                    .append(&framed, self.fsync, "tombstone append")
                    .is_err()
                {
                    // Media unreachable: resurrect this slot's entries
                    // and report nothing reclaimed for them.
                    for (chunk, entry) in removed {
                        index.insert(chunk, entry);
                    }
                    continue;
                }
                for (_, entry) in &removed {
                    slot.live_bytes -= PUT_FRAME_BYTES + entry.len;
                    reclaimed += entry.len;
                    self.bytes_stored.fetch_sub(entry.len, Ordering::Relaxed);
                }
            }
        }
        // Shed the newly dead part-file bytes where it pays off. A
        // compaction failure leaves the slot valid, just uncompacted.
        let _ = self.compact(COMPACT_DEAD_FRACTION);
        reclaimed
    }

    /// Per-slot live-vs-file byte accounting.
    pub fn slot_usage(&self) -> Vec<SlotUsage> {
        self.slots
            .iter()
            .map(|s| {
                let s = s.lock();
                SlotUsage {
                    file_bytes: s.len,
                    live_bytes: s.live_bytes,
                }
            })
            .collect()
    }

    /// Total dead part-file bytes across all slots (reclaimable by
    /// [`DiskProvider::compact`]).
    pub fn dead_bytes(&self) -> u64 {
        self.slot_usage().iter().map(|u| u.dead_bytes()).sum()
    }

    /// Rewrites every slot whose dead fraction is at least `threshold`
    /// (`0.0..=1.0`), dropping tombstoned and superseded records from
    /// the part file. The replacement is written aside, synced, and
    /// atomically renamed over the old file, so a crash at any point
    /// leaves one complete, replayable log. Returns file bytes shed.
    pub fn compact(&self, threshold: f64) -> Result<u64> {
        let mut shed = 0u64;
        for s in 0..self.slots.len() {
            shed += self.compact_slot(s, threshold)?;
        }
        Ok(shed)
    }

    fn compact_slot(&self, s: usize, threshold: f64) -> Result<u64> {
        let mut index = self.index.write();
        let mut slot = self.slots[s].lock();
        let dead = slot.len - slot.live_bytes;
        if dead == 0 || (dead as f64) < threshold * (slot.len as f64) {
            return Ok(0);
        }
        // Rebuild the slot's log from its live chunks, in file order.
        let mut live: Vec<(ChunkId, IndexEntry)> = index
            .iter()
            .filter(|(_, e)| e.slot as usize == s)
            .map(|(&c, &e)| (c, e))
            .collect();
        live.sort_unstable_by_key(|(_, e)| e.payload_offset);
        let mut contents = Vec::with_capacity(slot.live_bytes as usize);
        let mut moved: Vec<(ChunkId, u64)> = Vec::with_capacity(live.len());
        for (chunk, entry) in &live {
            let mut payload = vec![0u8; entry.len as usize];
            slot.read_exact_at(entry.payload_offset, &mut payload, "compact read")?;
            let mut body = Vec::with_capacity(24);
            body.extend_from_slice(&chunk.raw().to_be_bytes());
            body.extend_from_slice(&entry.checksum.to_be_bytes());
            body.extend_from_slice(&entry.len.to_be_bytes());
            append_record(&mut contents, REC_PUT, &body);
            moved.push((*chunk, contents.len() as u64));
            contents.extend_from_slice(&payload);
        }
        let slot_dir = self.dir.join("slots").join(format!("{s:03}"));
        let part = slot_dir.join("000.part");
        let staged = slot_dir.join("000.part.compact");
        let mut f = File::create(&staged).map_err(|e| Error::io("compact create", e))?;
        f.write_all(&contents)
            .and_then(|_| f.sync_data())
            .map_err(|e| Error::io("compact write", e))?;
        std::fs::rename(&staged, &part).map_err(|e| Error::io("compact rename", e))?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&part)
            .map_err(|e| Error::io("compact reopen", e))?;
        let old_len = slot.len;
        slot.file = file;
        slot.len = contents.len() as u64;
        slot.live_bytes = contents.len() as u64;
        slot.unsynced = 0;
        for (chunk, offset) in moved {
            if let Some(e) = index.get_mut(&chunk) {
                e.payload_offset = offset;
            }
        }
        Ok(old_len - contents.len() as u64)
    }

    /// Flips one payload byte **on disk**, leaving the logged checksum
    /// stale — the bit-rot injection hook, now exercising real media
    /// instead of a `HashMap`.
    pub fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
        let Some(entry) = self.index.read().get(&chunk).copied() else {
            return;
        };
        if byte as u64 >= entry.len {
            return;
        }
        let mut slot = self.slots[entry.slot as usize].lock();
        let mut b = [0u8; 1];
        if slot
            .read_exact_at(entry.payload_offset + byte as u64, &mut b, "corrupt read")
            .is_err()
        {
            return;
        }
        b[0] ^= 0xFF;
        let _ = slot
            .file
            .seek(SeekFrom::Start(entry.payload_offset + byte as u64))
            .and_then(|_| slot.file.write_all(&b));
    }

    /// Re-reads every live chunk **from its part file** and verifies the
    /// ingest checksums, charging disk time for the full scan — the real
    /// bit-rot detector the in-memory provider only models.
    pub fn scrub(&self, p: &Participant) -> ScrubReport {
        let mut entries: Vec<(ChunkId, IndexEntry)> =
            self.index.read().iter().map(|(&c, &e)| (c, e)).collect();
        entries.sort_unstable_by_key(|(c, _)| *c);
        let mut report = ScrubReport::default();
        for (chunk, entry) in entries {
            self.disk.serve(p, self.cost.disk_transfer(entry.len));
            let healthy = self
                .read_payload(entry, ByteRange::new(0, entry.len))
                .map(|data| chunk_checksum(&data) == entry.checksum)
                .unwrap_or(false);
            if healthy {
                report.healthy += 1;
            } else {
                report.corrupted.push(chunk);
            }
        }
        report.corrupted.sort_unstable();
        report
    }

    /// Forces every slot's outstanding appends to stable storage
    /// (graceful shutdown under `Group`/`Deferred` fsync policies).
    pub fn flush(&self) -> Result<()> {
        for slot in &self.slots {
            let mut slot = slot.lock();
            if slot.unsynced > 0 {
                slot.file
                    .sync_data()
                    .map_err(|e| Error::io("part flush", e))?;
                slot.unsynced = 0;
            }
        }
        Ok(())
    }

    /// Highest chunk id ever logged here (live or tombstoned). A
    /// reopening deployment resumes its id allocator past this so ids
    /// are never reused across restarts.
    pub fn max_chunk_id(&self) -> Option<ChunkId> {
        match self.max_chunk_seen.load(Ordering::Relaxed) {
            0 => None,
            n => Some(ChunkId::new(n - 1)),
        }
    }

    /// The provider's disk resource.
    pub fn disk(&self) -> &Resource {
        &self.disk
    }

    /// The provider's NIC resource.
    pub fn nic(&self) -> &Resource {
        &self.nic
    }

    /// The cost model this provider charges.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

impl ChunkStore for DiskProvider {
    fn id(&self) -> ProviderId {
        DiskProvider::id(self)
    }

    fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        DiskProvider::put_chunk(self, p, chunk, data)
    }

    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        DiskProvider::put_chunk_at(self, arrival, chunk, data)
    }

    fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        DiskProvider::get_chunk(self, p, chunk)
    }

    fn get_chunk_range(&self, p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes> {
        DiskProvider::get_chunk_range(self, p, chunk, range)
    }

    fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        DiskProvider::get_chunk_range_at(self, arrival, chunk, range)
    }

    fn put_batch_at(&self, items: &[(SimTime, ChunkId, Bytes)]) -> Vec<Result<SimTime>> {
        DiskProvider::put_batch_at(self, items)
    }

    fn get_range_batch_at(
        &self,
        items: &[(SimTime, ChunkId, ByteRange)],
    ) -> Vec<Result<(Bytes, SimTime)>> {
        DiskProvider::get_range_batch_at(self, items)
    }

    fn has_chunk(&self, chunk: ChunkId) -> bool {
        DiskProvider::has_chunk(self, chunk)
    }

    fn chunk_count(&self) -> usize {
        DiskProvider::chunk_count(self)
    }

    fn bytes_stored(&self) -> u64 {
        DiskProvider::bytes_stored(self)
    }

    fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        DiskProvider::evict_chunk(self, chunk)
    }

    fn evict_chunk_batch(&self, chunks: &[ChunkId]) -> u64 {
        DiskProvider::evict_chunk_batch(self, chunks)
    }

    fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        DiskProvider::checksum_of(self, chunk)
    }

    fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
        DiskProvider::corrupt_chunk(self, chunk, byte)
    }

    fn scrub(&self, p: &Participant) -> ScrubReport {
        DiskProvider::scrub(self, p)
    }

    fn chunk_len(&self, chunk: ChunkId) -> Option<u64> {
        DiskProvider::chunk_len(self, chunk)
    }

    fn max_chunk_id(&self) -> Option<ChunkId> {
        DiskProvider::max_chunk_id(self)
    }

    fn disk(&self) -> &Resource {
        DiskProvider::disk(self)
    }

    fn nic(&self) -> &Resource {
        DiskProvider::nic(self)
    }

    fn cost(&self) -> &CostModel {
        DiskProvider::cost(self)
    }
}

/// Builds one chunk store for `backend`: the in-memory [`DataProvider`]
/// for [`BackendConfig::Memory`], a recovered [`DiskProvider`] under
/// `<dir>/provider-<id>` for [`BackendConfig::Disk`] — **the** factory
/// harnesses and server binaries select backends through, replacing
/// scattered direct `DataProvider::new` calls.
///
/// [`DataProvider`]: crate::store::DataProvider
pub fn chunk_store_for(
    backend: &BackendConfig,
    id: ProviderId,
    cost: CostModel,
    faults: &Arc<FaultInjector>,
) -> Result<Arc<dyn ChunkStore>> {
    Ok(match backend {
        BackendConfig::Memory => Arc::new(crate::store::DataProvider::new(
            id,
            cost,
            Arc::clone(faults),
        )),
        BackendConfig::Disk { dir, fsync } => Arc::new(DiskProvider::open(
            dir.join(format!("provider-{}", id.raw())),
            id,
            cost,
            Arc::clone(faults),
            *fsync,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::clock::run_actors;
    use atomio_types::tempdir::TempDir;

    fn open(dir: &Path) -> Arc<DiskProvider> {
        Arc::new(
            DiskProvider::open(
                dir,
                ProviderId::new(0),
                CostModel::zero(),
                Arc::new(FaultInjector::default()),
                FsyncPolicy::PerPublish,
            )
            .unwrap(),
        )
    }

    #[test]
    fn put_get_roundtrip_on_disk() {
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open(tmp.path());
        let (res, _) = run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![1, 2, 3]))?;
            prov.get_chunk(p, ChunkId::new(1))
        });
        assert_eq!(res[0].as_ref().unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(prov.chunk_count(), 1);
        assert_eq!(prov.bytes_stored(), 3);
        let (range, _) = run_actors(1, |_, p| {
            prov.get_chunk_range(p, ChunkId::new(1), ByteRange::new(1, 2))
        });
        assert_eq!(range[0].as_ref().unwrap().as_ref(), &[2, 3]);
    }

    #[test]
    fn duplicate_chunk_id_rejected() {
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open(tmp.path());
        let (res, _) = run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![1]))?;
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![2]))
        });
        assert!(matches!(res[0], Err(Error::Internal(_))));
    }

    #[test]
    fn reopen_recovers_index_and_bytes() {
        let tmp = TempDir::new("atomio-diskprov");
        {
            let prov = open(tmp.path());
            run_actors(1, |_, p| {
                for i in 0..20u64 {
                    prov.put_chunk(p, ChunkId::new(i), Bytes::from(vec![i as u8; 100]))
                        .unwrap();
                }
            });
            prov.evict_chunk(ChunkId::new(3));
            // Hard drop: no flush, no close protocol.
        }
        let prov = open(tmp.path());
        assert_eq!(prov.chunk_count(), 19);
        assert_eq!(prov.bytes_stored(), 1900);
        assert!(!prov.has_chunk(ChunkId::new(3)));
        assert_eq!(prov.max_chunk_id(), Some(ChunkId::new(19)));
        let (res, _) = run_actors(1, |_, p| prov.get_chunk(p, ChunkId::new(7)));
        assert_eq!(res[0].as_ref().unwrap().as_ref(), &[7u8; 100][..]);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let tmp = TempDir::new("atomio-diskprov");
        let chunk_slot_path = {
            let prov = open(tmp.path());
            run_actors(1, |_, p| {
                prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![9u8; 64]))
                    .unwrap();
            });
            let s = prov.slot_of(ChunkId::new(2));
            tmp.path()
                .join("slots")
                .join(format!("{s:03}"))
                .join("000.part")
        };
        // Simulate a crash mid-append: garbage tail on chunk 2's slot.
        use std::io::Write as _;
        let mut f = OpenOptions::new()
            .append(true)
            .open(&chunk_slot_path)
            .unwrap();
        f.write_all(&atomio_types::record::RECORD_MAGIC.to_be_bytes())
            .unwrap();
        f.write_all(&[REC_PUT, 0, 0, 1, 0]).unwrap(); // truncated header/body
        drop(f);

        let prov = open(tmp.path());
        assert_eq!(prov.chunk_count(), 1);
        let (res, _) = run_actors(1, |_, p| prov.get_chunk(p, ChunkId::new(1)));
        assert_eq!(res[0].as_ref().unwrap().as_ref(), &[9u8; 64][..]);
        // The tail is gone: a fresh append lands cleanly and survives
        // another reopen.
        run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(2), Bytes::from(vec![5u8; 32]))
                .unwrap();
        });
        drop(prov);
        let prov = open(tmp.path());
        assert_eq!(prov.chunk_count(), 2);
    }

    #[test]
    fn scrub_detects_on_disk_corruption() {
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open(tmp.path());
        run_actors(1, |_, p| {
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![1u8; 256]))
                .unwrap();
            prov.put_chunk(p, ChunkId::new(2), Bytes::from(vec![2u8; 256]))
                .unwrap();
        });
        prov.corrupt_chunk(ChunkId::new(2), 17);
        let (reports, _) = run_actors(1, |_, p| prov.scrub(p));
        assert_eq!(reports[0].healthy, 1);
        assert_eq!(reports[0].corrupted, vec![ChunkId::new(2)]);
        // Corruption is on media: a reopen sees it too.
        drop(prov);
        let prov = open(tmp.path());
        let (reports, _) = run_actors(1, |_, p| prov.scrub(p));
        assert_eq!(reports[0].corrupted, vec![ChunkId::new(2)]);
    }

    #[test]
    fn wrong_instance_directory_rejected() {
        let tmp = TempDir::new("atomio-diskprov");
        drop(open(tmp.path())); // provider 0 claims the dir
        let err = DiskProvider::open(
            tmp.path(),
            ProviderId::new(5),
            CostModel::zero(),
            Arc::new(FaultInjector::default()),
            FsyncPolicy::PerPublish,
        );
        assert!(matches!(err, Err(Error::Internal(_))));
    }

    #[test]
    fn timing_matches_memory_provider() {
        // The whole point of mirroring the cost booking: identical
        // virtual-time totals and device busy-times for the same ops.
        let cost = CostModel::grid5000();
        let tmp = TempDir::new("atomio-diskprov");
        let disk = Arc::new(
            DiskProvider::open(
                tmp.path(),
                ProviderId::new(0),
                cost,
                Arc::new(FaultInjector::default()),
                FsyncPolicy::PerPublish,
            )
            .unwrap(),
        );
        let mem = Arc::new(crate::store::DataProvider::new(
            ProviderId::new(0),
            cost,
            Arc::new(FaultInjector::default()),
        ));
        let drive = |prov: Arc<dyn ChunkStore>| {
            let (_, total) = run_actors(2, move |i, p| {
                let c = ChunkId::new(i as u64);
                prov.put_chunk(p, c, Bytes::from(vec![0u8; 4096])).unwrap();
                prov.get_chunk_range(p, c, ByteRange::new(64, 512)).unwrap();
                let arrival = p.now_ns() + prov.cost().rpc_round_trip().as_nanos() as u64;
                let (_, done) = prov
                    .get_chunk_range_at(arrival, c, ByteRange::new(0, 1024))
                    .unwrap();
                p.sleep_until_ns(done);
            });
            total
        };
        assert_eq!(drive(disk), drive(mem));
    }

    #[test]
    fn chunk_store_factory_selects_backend() {
        let faults = Arc::new(FaultInjector::default());
        let mem = chunk_store_for(
            &BackendConfig::Memory,
            ProviderId::new(0),
            CostModel::zero(),
            &faults,
        )
        .unwrap();
        assert_eq!(mem.max_chunk_id(), None);
        let tmp = TempDir::new("atomio-diskprov");
        let disk = chunk_store_for(
            &BackendConfig::disk(tmp.path()),
            ProviderId::new(3),
            CostModel::zero(),
            &faults,
        )
        .unwrap();
        assert_eq!(disk.id(), ProviderId::new(3));
        assert!(tmp.path().join("provider-3").join("superblock").exists());
    }

    #[test]
    fn batch_evict_reclaims_and_survives_reopen() {
        let tmp = TempDir::new("atomio-diskprov");
        {
            let prov = open(tmp.path());
            run_actors(1, |_, p| {
                for i in 0..12u64 {
                    prov.put_chunk(p, ChunkId::new(i), Bytes::from(vec![i as u8; 128]))
                        .unwrap();
                }
            });
            let victims: Vec<ChunkId> = (0..8).map(ChunkId::new).collect();
            assert_eq!(prov.evict_chunk_batch(&victims), 8 * 128);
            // Unknown ids are ignored, not double-counted.
            assert_eq!(prov.evict_chunk_batch(&victims), 0);
            assert_eq!(prov.chunk_count(), 4);
            assert_eq!(prov.bytes_stored(), 4 * 128);
        }
        let prov = open(tmp.path());
        assert_eq!(prov.chunk_count(), 4);
        assert_eq!(prov.bytes_stored(), 4 * 128);
        for i in 0..8u64 {
            assert!(!prov.has_chunk(ChunkId::new(i)));
        }
        let (res, _) = run_actors(1, |_, p| prov.get_chunk(p, ChunkId::new(10)));
        assert_eq!(res[0].as_ref().unwrap().as_ref(), &[10u8; 128][..]);
    }

    #[test]
    fn compaction_sheds_dead_bytes_and_preserves_reads() {
        let tmp = TempDir::new("atomio-diskprov");
        {
            let prov = open(tmp.path());
            run_actors(1, |_, p| {
                for i in 0..16u64 {
                    prov.put_chunk(p, ChunkId::new(i), Bytes::from(vec![i as u8; 256]))
                        .unwrap();
                }
            });
            let before: u64 = prov.slot_usage().iter().map(|u| u.file_bytes).sum();
            let victims: Vec<ChunkId> = (0..12).map(ChunkId::new).collect();
            // The batch path auto-compacts slots past the dead-fraction
            // threshold; force the rest with an explicit full pass.
            prov.evict_chunk_batch(&victims);
            prov.compact(0.0).unwrap();
            assert_eq!(prov.dead_bytes(), 0);
            let after: u64 = prov.slot_usage().iter().map(|u| u.file_bytes).sum();
            assert!(
                after < before,
                "compaction must shrink part files ({before} -> {after})"
            );
            let (res, _) = run_actors(1, |_, p| prov.get_chunk(p, ChunkId::new(14)));
            assert_eq!(res[0].as_ref().unwrap().as_ref(), &[14u8; 256][..]);
        }
        // The compacted layout is itself a valid, replayable log.
        let prov = open(tmp.path());
        assert_eq!(prov.chunk_count(), 4);
        assert_eq!(prov.dead_bytes(), 0);
        let (res, _) = run_actors(1, |_, p| prov.get_chunk(p, ChunkId::new(15)));
        assert_eq!(res[0].as_ref().unwrap().as_ref(), &[15u8; 256][..]);
    }

    /// `n` chunks of `len` bytes, ids from `first`, chunk `i` filled with `i`.
    fn batch(first: u64, n: u64, len: usize) -> Vec<(SimTime, ChunkId, Bytes)> {
        (first..first + n)
            .map(|i| (0, ChunkId::new(i), Bytes::from(vec![i as u8; len])))
            .collect()
    }

    fn open_with(dir: &Path, cost: CostModel, fsync: FsyncPolicy) -> DiskProvider {
        DiskProvider::open(
            dir,
            ProviderId::new(0),
            cost,
            Arc::new(FaultInjector::default()),
            fsync,
        )
        .unwrap()
    }

    #[test]
    fn batch_put_reports_per_item_and_survives_reopen() {
        let tmp = TempDir::new("atomio-diskprov");
        {
            let prov = open(tmp.path());
            assert!(prov
                .put_batch_at(&batch(0, 66, 2048))
                .iter()
                .all(|r| r.is_ok()));
            // A reused id — already stored, or repeated inside the batch
            // — is refused alone; its neighbours land.
            let mut second = batch(64, 4, 2048); // 64, 65 exist; 66, 67 new
            second.push(second[3].clone()); // 67 again
            let outcomes = prov.put_batch_at(&second);
            assert!(matches!(outcomes[0], Err(Error::Internal(_))));
            assert!(matches!(outcomes[1], Err(Error::Internal(_))));
            assert_eq!(outcomes[2], Ok(0));
            assert_eq!(outcomes[3], Ok(0));
            assert!(matches!(outcomes[4], Err(Error::Internal(_))));
            assert_eq!(prov.chunk_count(), 68);
            assert_eq!(prov.bytes_stored(), 68 * 2048);
            // Hard drop: no flush, no close protocol.
        }
        let prov = open(tmp.path());
        assert_eq!(prov.chunk_count(), 68);
        assert_eq!(prov.bytes_stored(), 68 * 2048);
        assert_eq!(prov.max_chunk_id(), Some(ChunkId::new(67)));
        assert_eq!(prov.dead_bytes(), 0, "refused items wrote nothing");
        // First write won: the stored 64 is the first batch's.
        let gets = prov.get_range_batch_at(&[
            (0, ChunkId::new(64), ByteRange::new(0, 2048)),
            (0, ChunkId::new(67), ByteRange::new(2040, 8)),
        ]);
        assert_eq!(gets[0].as_ref().unwrap().0.as_ref(), &[64u8; 2048][..]);
        assert_eq!(gets[1].as_ref().unwrap().0.as_ref(), &[67u8; 8][..]);
    }

    #[test]
    fn batch_get_matches_per_item_gets() {
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open(tmp.path());
        prov.put_batch_at(&batch(0, 8, 100));
        let items = [
            (0, ChunkId::new(3), ByteRange::new(10, 50)),
            (0, ChunkId::new(99), ByteRange::new(0, 1)), // missing
            (0, ChunkId::new(5), ByteRange::new(90, 20)), // out of bounds
            (0, ChunkId::new(7), ByteRange::new(0, 100)),
            (0, ChunkId::new(3), ByteRange::new(0, 0)), // empty
        ];
        let batched = prov.get_range_batch_at(&items);
        let single: Vec<_> = items
            .iter()
            .map(|&(arrival, chunk, range)| prov.get_chunk_range_at(arrival, chunk, range))
            .collect();
        assert_eq!(batched, single);
        assert!(matches!(batched[1], Err(Error::ChunkNotFound { .. })));
        assert!(matches!(batched[2], Err(Error::OutOfBounds { .. })));
    }

    #[test]
    fn batch_booking_matches_per_item_booking() {
        // The override must book exactly what the default per-item loop
        // books: same completion instants, same device busy times.
        let (tmp_a, tmp_b) = (
            TempDir::new("atomio-diskprov"),
            TempDir::new("atomio-diskprov"),
        );
        let open_costed = |dir: &Path| open_with(dir, CostModel::grid5000(), FsyncPolicy::Deferred);
        let (batched, looped) = (open_costed(tmp_a.path()), open_costed(tmp_b.path()));
        let puts: Vec<_> = (0..20u64)
            .map(|i| {
                let data = Bytes::from(vec![i as u8; 1000 + 300 * i as usize]);
                (i * 7_000, ChunkId::new(i % 18), data) // two reused ids
            })
            .collect();
        let gets: Vec<_> = (0..20u64)
            .map(|i| (1_000_000 + i * 500, ChunkId::new(i), ByteRange::new(i, 900)))
            .collect();
        let put_a = batched.put_batch_at(&puts);
        let put_b: Vec<_> = puts
            .iter()
            .map(|(arrival, chunk, data)| looped.put_chunk_at(*arrival, *chunk, data.clone()))
            .collect();
        assert_eq!(put_a, put_b);
        let get_a = batched.get_range_batch_at(&gets);
        let get_b: Vec<_> = gets
            .iter()
            .map(|&(arrival, chunk, range)| looped.get_chunk_range_at(arrival, chunk, range))
            .collect();
        assert_eq!(get_a, get_b);
        assert_eq!(batched.disk().busy_time(), looped.disk().busy_time());
        assert_eq!(batched.nic().busy_time(), looped.nic().busy_time());
        assert_eq!(batched.slot_usage(), looped.slot_usage());
    }

    #[test]
    fn batch_put_appends_and_syncs_once_per_touched_slot() {
        let unsynced = |prov: &DiskProvider| -> Vec<u32> {
            prov.slots.iter().map(|s| s.lock().unsynced).collect()
        };
        // Deferred never syncs, so the counter counts appends: a
        // 66-chunk batch is one append per touched slot, where the same
        // chunks put one by one are 66.
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open_with(tmp.path(), CostModel::zero(), FsyncPolicy::Deferred);
        prov.put_batch_at(&batch(0, 66, 2048));
        let appends = unsynced(&prov);
        assert!(appends.iter().all(|&n| n <= 1), "{appends:?}");
        assert!(appends.iter().sum::<u32>() <= DEFAULT_SLOTS);
        for (arrival, chunk, data) in batch(100, 66, 2048) {
            prov.put_chunk_at(arrival, chunk, data).unwrap();
        }
        assert_eq!(
            unsynced(&prov).iter().sum::<u32>() - appends.iter().sum::<u32>(),
            66
        );
        // PerPublish syncs every append — so at most one sync per
        // touched slot per batch — and leaves nothing unsynced behind.
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open_with(tmp.path(), CostModel::zero(), FsyncPolicy::PerPublish);
        prov.put_batch_at(&batch(0, 66, 2048));
        assert!(unsynced(&prov).iter().all(|&n| n == 0));
    }

    #[test]
    fn torn_batch_append_truncates_to_the_last_whole_record() {
        let tmp = TempDir::new("atomio-diskprov");
        let acked = batch(0, 24, 512);
        let torn = batch(100, 48, 512);
        let (slot, keep, part) = {
            let prov = open_with(tmp.path(), CostModel::zero(), FsyncPolicy::Deferred);
            assert!(prov.put_batch_at(&acked).iter().all(|r| r.is_ok()));
            let before = prov.slot_usage();
            assert!(prov.put_batch_at(&torn).iter().all(|r| r.is_ok()));
            // Tear the slot that got the most records of the second
            // batch, in the middle of that batch's single write: one
            // whole record survives, the second loses its last byte.
            let slot = (0..prov.slots.len())
                .max_by_key(|&s| prov.slot_usage()[s].file_bytes - before[s].file_bytes)
                .unwrap();
            let record = PUT_FRAME_BYTES + 512;
            assert!(prov.slot_usage()[slot].file_bytes - before[slot].file_bytes >= 2 * record);
            let keep = before[slot].file_bytes + 2 * record - 1;
            let part = tmp
                .path()
                .join("slots")
                .join(format!("{slot:03}"))
                .join("000.part");
            (slot, keep, part)
        };
        OpenOptions::new()
            .write(true)
            .open(&part)
            .unwrap()
            .set_len(keep)
            .unwrap();

        let prov = open(tmp.path());
        // Every chunk of the acknowledged batch is back, whole.
        for (_, chunk, data) in &acked {
            let (got, _) = prov
                .get_chunk_range_at(0, *chunk, ByteRange::new(0, 512))
                .unwrap();
            assert_eq!(&got, data);
        }
        // Of the torn batch the torn slot keeps exactly its first
        // record; the other slots' writes were whole and keep theirs.
        let survivors: Vec<ChunkId> = torn
            .iter()
            .map(|(_, chunk, _)| *chunk)
            .filter(|chunk| prov.has_chunk(*chunk))
            .collect();
        let in_torn_slot = |chunk: &&ChunkId| prov.slot_of(**chunk) == slot;
        assert_eq!(survivors.iter().filter(in_torn_slot).count(), 1);
        let lost = torn.len() - survivors.len();
        assert_eq!(
            lost,
            torn.iter()
                .filter(|(_, c, _)| prov.slot_of(*c) == slot)
                .count()
                - 1
        );
        // The accounting is what a rescan of the truncated files finds:
        // no dead bytes, and a second reopen changes nothing.
        let live = (acked.len() + survivors.len()) as u64;
        assert_eq!(prov.chunk_count() as u64, live);
        assert_eq!(prov.bytes_stored(), live * 512);
        assert_eq!(prov.dead_bytes(), 0);
        assert_eq!(
            prov.slot_usage()[slot].file_bytes,
            keep - (PUT_FRAME_BYTES + 512 - 1),
            "the torn record is truncated away"
        );
        let usage = prov.slot_usage();
        drop(prov);
        assert_eq!(open(tmp.path()).slot_usage(), usage);
    }

    #[test]
    fn live_byte_accounting_matches_across_install_evict_recovery() {
        let tmp = TempDir::new("atomio-diskprov");
        let expect_live = |prov: &DiskProvider, chunks: u64, payload: u64| {
            let live: u64 = prov.slot_usage().iter().map(|u| u.live_bytes).sum();
            assert_eq!(live, chunks * PUT_FRAME_BYTES + payload);
        };
        {
            let prov = open(tmp.path());
            run_actors(1, |_, p| {
                for i in 0..10u64 {
                    prov.put_chunk(p, ChunkId::new(i), Bytes::from(vec![i as u8; 64]))
                        .unwrap();
                }
            });
            expect_live(&prov, 10, 10 * 64);
            prov.evict_chunk(ChunkId::new(0));
            expect_live(&prov, 9, 9 * 64);
        }
        let prov = open(tmp.path());
        expect_live(&prov, 9, 9 * 64);
        assert_eq!(
            prov.dead_bytes(),
            PUT_FRAME_BYTES + 64 + (RECORD_HEADER_BYTES as u64 + 8),
            "one dead PUT frame+payload plus its tombstone record"
        );
    }
}
