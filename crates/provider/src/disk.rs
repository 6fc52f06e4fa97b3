//! The on-disk chunk table: slot-sharded append-only part files.
//!
//! [`DiskProvider`] is the one provider front ([`Provider`]) over a
//! [`SlotTable`], which keeps every chunk payload on disk:
//!
//! ```text
//! <dir>/superblock            one framed record: format version,
//!                             slot count, provider id
//! <dir>/slots/000/000.part    append-only record log of slot 0
//! <dir>/slots/001/000.part    …
//! ```
//!
//! Each part file is a [`RecordLog`] — create, recovery, append, sync,
//! flush and the compaction rewrite are its. What is the table's own:
//! chunks are hash-routed to a slot (`mix64(chunk) % slots`, the
//! AmberBlob pre-sharded layout) and logged as a framed `PUT` record —
//! its body the positional encoding of `(chunk id, ingest checksum,
//! payload length)`, a `(ChunkId, u64, u64)` — followed by the raw
//! payload bytes **outside** the record frame; an eviction appends a
//! `TOMBSTONE` record whose body is the encoded `ChunkId` — payloads
//! are immutable and never rewritten. A
//! RAM index (chunk → slot, offset, length, checksum), rebuilt on open by
//! replaying every slot, makes lookups O(1); reads `pread` straight at
//! the payload. A crash inside a payload is a torn tail like any other.
//!
//! Keeping the payload out of the record frame keeps the two integrity
//! layers separate: frame checksums catch *torn appends* at recovery
//! time, while payload *bit-rot* is deliberately left to
//! [`scrub`](ChunkStore::scrub)'s ingest checksums — mid-file rot must
//! not masquerade as a torn tail and truncate away good chunks logged
//! after it.

use crate::store::{ChunkStore, ChunkTable, DataProvider, Provider};
use atomio_simgrid::{CostModel, FaultInjector};
use atomio_types::record::{
    encode_record, load_or_init_superblock, read_record_at, RecordLog, RECORD_HEADER_BYTES,
};
use atomio_types::stamp::mix64;
use atomio_types::{BackendConfig, ByteRange, ChunkId, Error, FsyncPolicy, ProviderId, Result};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use serde::decode_exact;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default slot (shard directory) count for new provider directories;
/// reopened directories always use the count in their superblock.
pub const DEFAULT_SLOTS: u32 = 8;

/// Part-file record: a stored chunk, `(chunk id, checksum,
/// payload_len)`, with the payload bytes following the record raw.
const REC_PUT: u8 = 1;
/// Part-file record: an eviction tombstone, the chunk id.
const REC_TOMBSTONE: u8 = 2;

/// Framed bytes of a PUT record excluding its payload: header plus the
/// 24-byte body (chunk id, checksum, payload length).
const PUT_FRAME_BYTES: u64 = (RECORD_HEADER_BYTES + 24) as u64;

/// Dead fraction at which a sweep's eviction batch compacts a slot's
/// part file (see [`DiskProvider::compact`]).
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    slot: u32,
    /// Absolute offset of the payload bytes inside the slot's part file.
    payload_offset: u64,
    len: u64,
    checksum: u64,
}

/// Per-slot eviction batch: concatenated tombstone records plus the
/// removed index entries (kept for resurrection if the append fails).
type SlotEvictBatch = (Vec<u8>, Vec<(ChunkId, IndexEntry)>);

#[derive(Debug)]
struct Slot {
    log: RecordLog,
    /// File bytes occupied by live PUT records (frame + payload); the
    /// rest of the log is dead weight reclaimable by compaction.
    live_bytes: u64,
}

/// What replaying one part file finds.
#[derive(Debug, Default, PartialEq)]
struct PartReplay {
    /// The slot's live chunks.
    index: HashMap<ChunkId, IndexEntry>,
    /// Length of the whole-record prefix (a PUT counts with its payload).
    valid: u64,
    /// Bytes of `valid` belonging to live PUT records.
    live: u64,
    /// `raw + 1` of the highest chunk id logged, tombstoned ones too.
    max_seen: u64,
}

/// Replays the part file of slot `slot`. Records are walked by hand: a
/// PUT is followed by its out-of-frame payload, which a generic record
/// scan cannot step over. The walk stops at the first torn record — or
/// payload the file ends inside — and fails only on a whole,
/// checksum-valid record it cannot read.
fn replay_part(bytes: &[u8], slot: u32) -> Result<PartReplay> {
    let malformed = |what: String| Error::Internal(format!("part file of slot {slot}: {what}"));
    // `raw + 1` of a logged id; an id without a successor cannot be tracked.
    let seen = |chunk: ChunkId| {
        let seen = chunk.raw().checked_add(1);
        seen.ok_or_else(|| malformed("chunk id out of range".into()))
    };
    let mut replay = PartReplay::default();
    let mut pos = 0usize;
    while let Some((rec, next)) = read_record_at(bytes, pos) {
        let seen = match rec.kind {
            REC_PUT => {
                let (chunk, checksum, len): (ChunkId, u64, u64) = decode_exact(&rec.body)
                    .map_err(|e| malformed(format!("malformed put record: {e}")))?;
                let seen = seen(chunk)?;
                // The declared length is input: a payload the file does
                // not hold whole is where the crash landed.
                let end = usize::try_from(len).ok().and_then(|l| next.checked_add(l));
                let Some(end) = end.filter(|&end| end <= bytes.len()) else {
                    break;
                };
                // First write wins, matching the live path's
                // duplicate-id rejection.
                if let Entry::Vacant(e) = replay.index.entry(chunk) {
                    e.insert(IndexEntry {
                        slot,
                        payload_offset: next as u64,
                        len,
                        checksum,
                    });
                    replay.live += PUT_FRAME_BYTES + len;
                }
                pos = end;
                seen
            }
            REC_TOMBSTONE => {
                let chunk: ChunkId = decode_exact(&rec.body)
                    .map_err(|e| malformed(format!("malformed tombstone: {e}")))?;
                if let Some(old) = replay.index.remove(&chunk) {
                    replay.live -= PUT_FRAME_BYTES + old.len;
                }
                pos = next;
                seen(chunk)?
            }
            other => return Err(malformed(format!("unknown record kind {other}"))),
        };
        replay.max_seen = replay.max_seen.max(seen);
        replay.valid = pos as u64;
    }
    Ok(replay)
}

/// The durable chunk table: one [`RecordLog`] part file per slot and the
/// RAM index over them.
#[derive(Debug)]
pub struct SlotTable {
    dir: PathBuf,
    slots: Vec<Mutex<Slot>>,
    index: RwLock<HashMap<ChunkId, IndexEntry>>,
    /// `raw + 1` of the highest chunk id ever logged (0 = none), counting
    /// tombstoned chunks too: ids are never reused, even across restarts.
    max_chunk_seen: AtomicU64,
}

impl SlotTable {
    /// Opens (creating or recovering) the table of provider `id` under
    /// `dir`; `slot_count` applies to a new directory only.
    fn open(dir: PathBuf, id: ProviderId, fsync: FsyncPolicy, slot_count: u32) -> Result<Self> {
        assert!(slot_count > 0, "need at least one slot");
        let slot_count = load_or_init_superblock(
            &dir.join("superblock"),
            slot_count,
            id.raw(),
            &format!("provider {id}"),
        )?;
        let mut slots = Vec::with_capacity(slot_count as usize);
        let mut index = HashMap::new();
        let mut max_seen = 0u64;
        for s in 0..slot_count {
            let part = dir.join("slots").join(format!("{s:03}")).join("000.part");
            let mut replay = PartReplay::default();
            let log = RecordLog::open(part, fsync, |bytes| {
                replay = replay_part(bytes, s)?;
                Ok(replay.valid)
            })?;
            index.extend(replay.index);
            max_seen = max_seen.max(replay.max_seen);
            slots.push(Mutex::new(Slot {
                log,
                live_bytes: replay.live,
            }));
        }
        Ok(SlotTable {
            dir,
            slots,
            index: RwLock::new(index),
            max_chunk_seen: AtomicU64::new(max_seen),
        })
    }

    fn slot_of(&self, chunk: ChunkId) -> usize {
        (mix64(chunk.raw() ^ 0xD15C_51A7) % self.slots.len() as u64) as usize
    }

    fn compact(&self, threshold: f64) -> Result<u64> {
        let mut shed = 0u64;
        for s in 0..self.slots.len() {
            shed += self.compact_slot(s, threshold)?;
        }
        Ok(shed)
    }

    fn compact_slot(&self, s: usize, threshold: f64) -> Result<u64> {
        let mut index = self.index.write();
        let mut slot = self.slots[s].lock();
        let old_len = slot.log.len();
        let dead = old_len - slot.live_bytes;
        if dead == 0 || (dead as f64) < threshold * (old_len as f64) {
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
            encode_record(&mut contents, REC_PUT, &(*chunk, entry.checksum, entry.len));
            let at = contents.len();
            moved.push((*chunk, at as u64));
            contents.resize(at + entry.len as usize, 0);
            slot.log
                .read_exact_at(entry.payload_offset, &mut contents[at..])?;
        }
        slot.log.replace(&contents)?;
        slot.live_bytes = contents.len() as u64;
        for (chunk, offset) in moved {
            if let Some(e) = index.get_mut(&chunk) {
                e.payload_offset = offset;
            }
        }
        Ok(old_len - contents.len() as u64)
    }
}

impl ChunkTable for SlotTable {
    /// All records bound for one slot are framed into one buffer and
    /// appended with one write (and, when the fsync policy says so, one
    /// sync): a batch costs one append per touched slot however many
    /// chunks it carries, and a failed append fails the records of that
    /// slot only.
    fn install_batch(&self, items: &[(ChunkId, &Bytes, u64)]) -> Vec<Result<bool>> {
        // Each slot's buffer is sized once, for exactly its records.
        let mut sizes = vec![0usize; self.slots.len()];
        for (chunk, data, _) in items {
            sizes[self.slot_of(*chunk)] += PUT_FRAME_BYTES as usize + data.len();
        }
        let mut buffers: Vec<Vec<u8>> = sizes.into_iter().map(Vec::with_capacity).collect();
        // Per slot: (item, index entry with its offset still relative to
        // the slot's buffer).
        let mut framed: Vec<Vec<(usize, ChunkId, IndexEntry)>> = vec![Vec::new(); self.slots.len()];
        let mut outcomes = Vec::with_capacity(items.len());
        let mut batch_ids = HashSet::new();

        let mut index = self.index.write();
        for (item, &(chunk, data, checksum)) in items.iter().enumerate() {
            let fresh = !index.contains_key(&chunk) && batch_ids.insert(chunk);
            outcomes.push(Ok(fresh));
            if !fresh {
                continue;
            }
            // Framed metadata record, then the raw payload out-of-frame
            // (see the module docs for why).
            let s = self.slot_of(chunk);
            let body = (chunk, checksum, data.len() as u64);
            encode_record(&mut buffers[s], REC_PUT, &body);
            let entry = IndexEntry {
                slot: s as u32,
                payload_offset: buffers[s].len() as u64,
                len: data.len() as u64,
                checksum,
            };
            framed[s].push((item, chunk, entry));
            buffers[s].extend_from_slice(data);
        }
        for (s, (buffer, framed)) in buffers.iter().zip(framed).enumerate() {
            if framed.is_empty() {
                continue;
            }
            let appended = {
                let mut slot = self.slots[s].lock();
                let appended = slot.log.append(buffer);
                if appended.is_ok() {
                    slot.live_bytes += buffer.len() as u64;
                }
                appended
            };
            match appended {
                Ok(at) => {
                    for (_, chunk, mut entry) in framed {
                        entry.payload_offset += at;
                        index.insert(chunk, entry);
                        self.max_chunk_seen
                            .fetch_max(chunk.raw() + 1, Ordering::Relaxed);
                    }
                }
                Err(e) => {
                    for (item, ..) in framed {
                        outcomes[item] = Err(e.clone());
                    }
                }
            }
        }
        outcomes
    }

    fn lookup(&self, chunk: ChunkId) -> Option<(u64, u64)> {
        let index = self.index.read();
        index.get(&chunk).map(|e| (e.len, e.checksum))
    }

    /// The admitted payloads are `pread` straight into one buffer the
    /// returned slices share. The index is held (shared) for the whole
    /// batch, so a compaction cannot move a payload between its lookup
    /// and its read.
    fn read_batch(
        &self,
        chunks: impl Iterator<Item = ChunkId>,
        mut admit: impl FnMut(usize, Option<u64>) -> Result<ByteRange>,
    ) -> Vec<Result<Bytes>> {
        let index = self.index.read();
        // Per item: the slot and file offset to read at, and where the
        // bytes go in the shared buffer.
        let mut total = 0usize;
        let mut planned: Vec<Result<(u32, u64, std::ops::Range<usize>)>> = chunks
            .enumerate()
            .map(|(item, chunk)| {
                let entry = index.get(&chunk);
                let range = admit(item, entry.map(|e| e.len))?;
                let entry = entry.expect("admitted, so held");
                let at = total;
                total += range.len as usize;
                Ok((entry.slot, entry.payload_offset + range.offset, at..total))
            })
            .collect();
        let mut buf = vec![0u8; total];
        for plan in &mut planned {
            let Ok((slot, offset, at)) = plan else {
                continue;
            };
            let slot = self.slots[*slot as usize].lock();
            let read = slot.log.read_exact_at(*offset, &mut buf[at.clone()]);
            if let Err(e) = read {
                *plan = Err(e);
            }
        }
        drop(index);
        let buf = Bytes::from(buf);
        planned
            .into_iter()
            .map(|plan| plan.map(|(_, _, at)| buf.slice(at)))
            .collect()
    }

    /// Tombstones are grouped per slot, so the whole batch costs one
    /// append (and at most one fsync) per touched slot instead of one per
    /// chunk. The part-file bytes stay behind as *dead* (recovery replays
    /// the tombstones too) until a compaction rewrites the slot.
    fn evict_batch(&self, chunks: &[ChunkId]) -> u64 {
        let mut index = self.index.write();
        let mut per_slot: HashMap<u32, SlotEvictBatch> = HashMap::new();
        for &chunk in chunks {
            let Some(entry) = index.remove(&chunk) else {
                continue;
            };
            let (framed, removed) = per_slot.entry(entry.slot).or_default();
            encode_record(framed, REC_TOMBSTONE, &chunk);
            removed.push((chunk, entry));
        }
        let mut reclaimed = 0u64;
        for (s, (framed, removed)) in per_slot {
            let mut slot = self.slots[s as usize].lock();
            if slot.log.append(&framed).is_err() {
                // An eviction that cannot reach disk must not pretend
                // the chunks are gone: put this slot's entries back and
                // report nothing reclaimed for them.
                index.extend(removed);
                continue;
            }
            for (_, entry) in &removed {
                slot.live_bytes -= PUT_FRAME_BYTES + entry.len;
                reclaimed += entry.len;
            }
        }
        reclaimed
    }

    /// A compaction failure leaves the slot valid, just uncompacted.
    fn shed_dead(&self) {
        let _ = self.compact(COMPACT_DEAD_FRACTION);
    }

    /// Flips the byte **on disk**: the bit-rot injection exercises real
    /// media.
    fn flip_byte(&self, chunk: ChunkId, byte: usize) {
        let index = self.index.read();
        let Some(entry) = index.get(&chunk).filter(|e| (byte as u64) < e.len) else {
            return;
        };
        let slot = self.slots[entry.slot as usize].lock();
        let at = entry.payload_offset + byte as u64;
        let mut b = [0u8; 1];
        if slot.log.read_exact_at(at, &mut b).is_ok() {
            let _ = slot.log.overwrite_at(at, &[b[0] ^ 0xFF]);
        }
    }

    fn entries(&self) -> Vec<(ChunkId, u64, u64)> {
        let index = self.index.read();
        index.iter().map(|(&c, e)| (c, e.len, e.checksum)).collect()
    }

    fn count(&self) -> usize {
        self.index.read().len()
    }

    fn max_chunk_id(&self) -> Option<ChunkId> {
        match self.max_chunk_seen.load(Ordering::Relaxed) {
            0 => None,
            n => Some(ChunkId::new(n - 1)),
        }
    }
}

/// One durable storage server: the same front, cost model and request
/// semantics as [`DataProvider`], payloads in slot-sharded append-only
/// part files.
pub type DiskProvider = Provider<SlotTable>;

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
        let table = SlotTable::open(dir.into(), id, fsync, slot_count)?;
        Ok(Provider::over(table, id, cost, faults))
    }

    /// Root directory of this provider's state.
    pub fn dir(&self) -> &Path {
        &self.table.dir
    }

    /// Per-slot live-vs-file byte accounting.
    pub fn slot_usage(&self) -> Vec<SlotUsage> {
        let slots = self.table.slots.iter().map(|s| s.lock());
        slots
            .map(|s| SlotUsage {
                file_bytes: s.log.len(),
                live_bytes: s.live_bytes,
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
    /// the part file ([`RecordLog::replace`]: a crash at any point leaves
    /// one complete, replayable log). Returns file bytes shed.
    pub fn compact(&self, threshold: f64) -> Result<u64> {
        self.table.compact(threshold)
    }

    /// Forces every slot's outstanding appends to stable storage
    /// (graceful shutdown under `Group`/`Deferred` fsync policies).
    pub fn flush(&self) -> Result<()> {
        let mut slots = self.table.slots.iter();
        slots.try_for_each(|s| s.lock().log.flush())
    }
}

/// Builds one chunk store for `backend`: the in-memory [`DataProvider`]
/// for [`BackendConfig::Memory`], a recovered [`DiskProvider`] under
/// `<dir>/provider-<id>` for [`BackendConfig::Disk`] — **the** factory
/// harnesses and server binaries select backends through, replacing
/// scattered direct `DataProvider::new` calls.
pub fn chunk_store_for(
    backend: &BackendConfig,
    id: ProviderId,
    cost: CostModel,
    faults: &Arc<FaultInjector>,
) -> Result<Arc<dyn ChunkStore>> {
    let faults = Arc::clone(faults);
    Ok(match backend {
        BackendConfig::Memory => Arc::new(DataProvider::new(id, cost, faults)),
        BackendConfig::Disk { dir, fsync } => Arc::new(DiskProvider::open(
            dir.join(format!("provider-{}", id.raw())),
            id,
            cost,
            faults,
            *fsync,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::chunk_checksum;
    use atomio_simgrid::clock::run_actors;
    use atomio_simgrid::SimTime;
    use atomio_types::record::LogStats;
    use atomio_types::tempdir::TempDir;
    use std::fs::OpenOptions;

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
            let s = prov.table.slot_of(ChunkId::new(2));
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
        let stats = |prov: &DiskProvider| -> Vec<LogStats> {
            let slots = prov.table.slots.iter();
            slots.map(|s| s.lock().log.stats()).collect()
        };
        // Deferred never syncs: a 66-chunk batch is one append per
        // touched slot, where the same chunks put one by one are 66.
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open_with(tmp.path(), CostModel::zero(), FsyncPolicy::Deferred);
        prov.put_batch_at(&batch(0, 66, 2048));
        let batched = stats(&prov);
        assert!(batched.iter().all(|s| s.appends <= 1), "{batched:?}");
        assert!(batched.iter().all(|s| s.syncs == 0), "{batched:?}");
        for (arrival, chunk, data) in batch(100, 66, 2048) {
            prov.put_chunk_at(arrival, chunk, data).unwrap();
        }
        let appends = |stats: &[LogStats]| stats.iter().map(|s| s.appends).sum::<u64>();
        assert_eq!(appends(&stats(&prov)) - appends(&batched), 66);
        // PerPublish syncs every append — so at most one sync per
        // touched slot per batch — and leaves nothing unsynced behind.
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open_with(tmp.path(), CostModel::zero(), FsyncPolicy::PerPublish);
        prov.put_batch_at(&batch(0, 66, 2048));
        let synced = stats(&prov);
        assert!(synced.iter().all(|s| s.syncs <= 1), "{synced:?}");
        assert!(synced.iter().all(|s| s.unsynced == 0), "{synced:?}");
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
            let slot = (0..prov.table.slots.len())
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
        let in_torn_slot = |chunk: &&ChunkId| prov.table.slot_of(**chunk) == slot;
        assert_eq!(survivors.iter().filter(in_torn_slot).count(), 1);
        let lost = torn.len() - survivors.len();
        assert_eq!(
            lost,
            torn.iter()
                .filter(|(_, c, _)| prov.table.slot_of(*c) == slot)
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

    #[test]
    fn truncated_staged_compaction_file_leaves_the_part_file_unchanged() {
        let tmp = TempDir::new("atomio-diskprov");
        let open_one_slot = || {
            let faults = Arc::new(FaultInjector::default());
            let (id, cost) = (ProviderId::new(0), CostModel::zero());
            DiskProvider::open_with_slots(tmp.path(), id, cost, faults, FsyncPolicy::PerPublish, 1)
                .unwrap()
        };
        let part = tmp.path().join("slots").join("000").join("000.part");
        {
            let prov = open_one_slot();
            prov.put_batch_at(&batch(0, 6, 100));
            prov.evict_chunk(ChunkId::new(2));
        }
        // A compaction killed between staging and rename: half a
        // compacted log sits beside the live part file.
        let before = std::fs::read(&part).unwrap();
        let staged = part.with_extension("part.staged");
        std::fs::write(&staged, &before[..before.len() / 3]).unwrap();

        let prov = open_one_slot();
        assert_eq!(std::fs::read(&part).unwrap(), before);
        assert_eq!(prov.chunk_count(), 5);
        assert!(prov.dead_bytes() > 0);
        let (got, _) = prov
            .get_chunk_range_at(0, ChunkId::new(5), ByteRange::new(0, 100))
            .unwrap();
        assert_eq!(got.as_ref(), &[5u8; 100][..]);
        // The next compaction overwrites the leftover and completes.
        assert!(prov.compact(0.0).unwrap() > 0);
        assert!(!staged.exists());
        drop(prov);
        assert_eq!(open_one_slot().chunk_count(), 5);
    }

    #[test]
    fn huge_declared_payload_length_is_a_torn_tail_not_an_overflow() {
        let mut part = Vec::new();
        encode_record(&mut part, REC_PUT, &(ChunkId::new(1), 0u64, 4u64));
        part.extend_from_slice(b"data");
        let whole = part.len() as u64;
        for len in [u64::MAX, u64::MAX - whole, 1 << 40, 5] {
            let mut torn = part.clone();
            encode_record(&mut torn, REC_PUT, &(ChunkId::new(2), 0u64, len));
            torn.extend_from_slice(b"data");
            let replay = replay_part(&torn, 0).unwrap();
            assert_eq!(replay.valid, whole, "declared {len}");
            assert_eq!(replay.index.len(), 1);
        }
        // An id whose successor does not exist cannot be tracked.
        let mut bad = Vec::new();
        encode_record(&mut bad, REC_PUT, &(ChunkId::new(u64::MAX), 0u64, 0u64));
        assert!(matches!(replay_part(&bad, 0), Err(Error::Internal(_))));
    }

    mod replay_props {
        use super::*;
        use atomio_types::record::append_record;
        use proptest::prelude::*;
        use serde::Encode;

        fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(any::<u8>(), 0..max)
        }

        /// A `u64` that is often small or within a few dozen of a power
        /// of two's edge, where length arithmetic overflows.
        fn edgy_u64() -> impl Strategy<Value = u64> {
            (any::<u64>(), 0u64..32).prop_map(|(x, k)| match x % 4 {
                0 => k,
                1 => u64::MAX - k,
                2 => (1 << 63) + k,
                _ => x,
            })
        }

        /// A part file as the live path writes it: puts with payloads
        /// (ids may repeat: first wins) and tombstones.
        fn arb_part() -> impl Strategy<Value = Vec<u8>> {
            let op = (0u64..6, any::<bool>(), arb_bytes(24));
            proptest::collection::vec(op, 1..8).prop_map(|ops| {
                let mut part = Vec::new();
                for (id, put, payload) in ops {
                    let chunk = ChunkId::new(id);
                    if put {
                        let body = (chunk, chunk_checksum(&payload), payload.len() as u64);
                        encode_record(&mut part, REC_PUT, &body);
                        part.extend_from_slice(&payload);
                    } else {
                        encode_record(&mut part, REC_TOMBSTONE, &chunk);
                    }
                }
                part
            })
        }

        /// Whatever the bytes: a typed error, or a replay whose prefix,
        /// accounting and index all lie inside the file.
        fn check(bytes: &[u8]) -> std::result::Result<Option<PartReplay>, TestCaseError> {
            let Ok(replay) = replay_part(bytes, 0) else {
                return Ok(None);
            };
            prop_assert!(replay.valid as usize <= bytes.len());
            prop_assert!(replay.live <= replay.valid);
            let mut live = 0;
            for entry in replay.index.values() {
                prop_assert!(entry.payload_offset + entry.len <= replay.valid);
                live += PUT_FRAME_BYTES + entry.len;
            }
            prop_assert_eq!(live, replay.live);
            // The prefix is whole: replaying it alone changes nothing.
            let again = replay_part(&bytes[..replay.valid as usize], 0);
            prop_assert_eq!(again.as_ref(), Ok(&replay));
            Ok(Some(replay))
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_replay_without_panicking(bytes in arb_bytes(256)) {
                check(&bytes)?;
            }

            #[test]
            fn checksum_valid_garbage_reaches_the_body_decoders(
                records in proptest::collection::vec((0u8..4, arb_bytes(40), arb_bytes(16)), 1..6),
                puts in proptest::collection::vec((edgy_u64(), edgy_u64(), arb_bytes(16)), 0..4),
                tail in arb_bytes(8),
            ) {
                // Well-formed PUT bodies declaring whatever they like,
                // then records of any kind and body.
                let mut part = Vec::new();
                for (id, len, payload) in &puts {
                    encode_record(&mut part, REC_PUT, &(ChunkId::new(*id), 0u64, *len));
                    part.extend_from_slice(payload);
                }
                for (kind, body, payload) in &records {
                    append_record(&mut part, *kind, body);
                    part.extend_from_slice(payload);
                }
                check(&part)?;
                // A whole body with bytes after it is refused: the body
                // decoders read every byte they are given.
                let (mut put, mut tombstone) = (Vec::new(), Vec::new());
                (ChunkId::new(1), 0u64, 0u64).encode(&mut put);
                ChunkId::new(1).encode(&mut tombstone);
                for (kind, body) in [(REC_PUT, put), (REC_TOMBSTONE, tombstone)] {
                    let mut part = Vec::new();
                    append_record(&mut part, kind, &[body, tail.clone()].concat());
                    prop_assert_eq!(replay_part(&part, 0).is_ok(), tail.is_empty());
                }
            }

            #[test]
            fn cut_or_mutated_part_files_replay_to_a_whole_prefix(
                part in arb_part(),
                flip in (any::<usize>(), 1u16..256),
            ) {
                let whole = check(&part)?.expect("a live-path log replays");
                prop_assert_eq!(whole.valid as usize, part.len());
                for cut in 0..part.len() {
                    let torn = check(&part[..cut])?.expect("a cut is a torn tail, never an error");
                    prop_assert!(torn.valid as usize <= cut);
                }
                let mut mutated = part.clone();
                mutated[flip.0 % part.len()] ^= flip.1 as u8;
                check(&mutated)?;
            }
        }
    }
}
