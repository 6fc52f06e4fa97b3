//! The on-disk chunk table: one append-only part file.
//!
//! [`DiskProvider`] is the one provider front ([`Provider`]) over a
//! [`PartTable`], which keeps every chunk payload on disk:
//!
//! ```text
//! <dir>/superblock            one framed record: format version,
//!                             slot count (always 1), provider id
//! <dir>/slots/000/000.part    the append-only record log
//! ```
//!
//! The part file is a [`RecordLog`] — create, recovery, append, sync,
//! flush and the compaction rewrite are its. What is the table's own:
//! a chunk is logged as a framed `PUT` record — its body the positional
//! encoding of `(chunk id, ingest checksum, payload length)`, a
//! `(ChunkId, u64, u64)` — followed by the raw payload bytes **outside**
//! the record frame; an eviction appends a `TOMBSTONE` record whose body
//! is the encoded `ChunkId` — payloads are immutable and never
//! rewritten. A RAM index (chunk → offset, length, checksum), rebuilt on
//! open by replaying the part file, makes lookups O(1); reads `pread`
//! straight at the payload. A crash inside a payload is a torn tail like
//! any other.
//!
//! The log, the index and the accounting sit under one `RwLock`: puts,
//! evictions, compaction and flushes take it exclusively — so a batch is
//! one append and at most one sync — and reads share it.
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
use atomio_types::{BackendConfig, ByteRange, ChunkId, Error, FsyncPolicy, ProviderId, Result};
use bytes::Bytes;
use parking_lot::RwLock;
use serde::decode_exact;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Part-file record: a stored chunk, `(chunk id, checksum,
/// payload_len)`, with the payload bytes following the record raw.
const REC_PUT: u8 = 1;
/// Part-file record: an eviction tombstone, the chunk id.
const REC_TOMBSTONE: u8 = 2;

/// Framed bytes of a PUT record excluding its payload: header plus the
/// 24-byte body (chunk id, checksum, payload length).
const PUT_FRAME_BYTES: u64 = (RECORD_HEADER_BYTES + 24) as u64;

/// Dead fraction at which a sweep's eviction batch compacts the part
/// file (see [`DiskProvider::compact`]).
pub const COMPACT_DEAD_FRACTION: f64 = 0.5;

/// Live-record bytes vs total bytes of the part file — the accounting
/// compaction decisions are made from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartUsage {
    /// Total part-file bytes.
    pub file_bytes: u64,
    /// Bytes belonging to live PUT records (frame + payload).
    pub live_bytes: u64,
}

impl PartUsage {
    /// Bytes occupied by dead records: tombstoned puts, the tombstones
    /// themselves, and superseded duplicates.
    pub fn dead_bytes(&self) -> u64 {
        self.file_bytes - self.live_bytes
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    /// Absolute offset of the payload bytes inside the part file.
    payload_offset: u64,
    len: u64,
    checksum: u64,
}

/// What replaying the part file finds.
#[derive(Debug, Default, PartialEq)]
struct PartReplay {
    /// The live chunks.
    index: HashMap<ChunkId, IndexEntry>,
    /// Length of the whole-record prefix (a PUT counts with its payload).
    valid: u64,
    /// Bytes of `valid` belonging to live PUT records.
    live: u64,
    /// `raw + 1` of the highest chunk id logged, tombstoned ones too.
    max_seen: u64,
}

/// Replays the part file. Records are walked by hand: a PUT is followed
/// by its out-of-frame payload, which a generic record scan cannot step
/// over. The walk stops at the first torn record — or payload the file
/// ends inside — and fails only on a whole, checksum-valid record it
/// cannot read.
fn replay_part(bytes: &[u8]) -> Result<PartReplay> {
    let malformed = |what: String| Error::Internal(format!("part file: {what}"));
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

/// Everything [`PartTable`]'s one lock guards.
#[derive(Debug)]
struct Part {
    log: RecordLog,
    index: HashMap<ChunkId, IndexEntry>,
    /// File bytes occupied by live PUT records (frame + payload); the
    /// rest of the log is dead weight reclaimable by compaction.
    live_bytes: u64,
    /// `raw + 1` of the highest chunk id ever logged (0 = none), counting
    /// tombstoned chunks too: ids are never reused, even across restarts.
    max_seen: u64,
}

/// The durable chunk table: one [`RecordLog`] part file and the RAM
/// index over it.
#[derive(Debug)]
pub struct PartTable {
    part: RwLock<Part>,
}

impl PartTable {
    /// Opens (creating or recovering) the table of provider `id` under
    /// `dir`. A directory laid out in several slots is refused before
    /// anything under it is touched.
    fn open(dir: PathBuf, id: ProviderId, fsync: FsyncPolicy) -> Result<Self> {
        let role = format!("provider {id}");
        let slots = load_or_init_superblock(&dir.join("superblock"), 1, id.raw(), &role)?;
        if slots != 1 {
            return Err(Error::Internal(format!(
                "{role}: directory holds {slots} slots, this build reads one part file"
            )));
        }
        let mut replay = PartReplay::default();
        let path = dir.join("slots").join("000").join("000.part");
        let log = RecordLog::open(path, fsync, |bytes| {
            replay = replay_part(bytes)?;
            Ok(replay.valid)
        })?;
        let part = Part {
            log,
            index: replay.index,
            live_bytes: replay.live,
            max_seen: replay.max_seen,
        };
        Ok(PartTable {
            part: RwLock::new(part),
        })
    }

    fn compact(&self, threshold: f64) -> Result<u64> {
        let mut part = self.part.write();
        let Part {
            log,
            index,
            live_bytes,
            ..
        } = &mut *part;
        let old_len = log.len();
        let dead = old_len - *live_bytes;
        if dead == 0 || (dead as f64) < threshold * (old_len as f64) {
            return Ok(0);
        }
        // Rebuild the log from the live chunks, in file order.
        let mut live: Vec<(&ChunkId, &mut IndexEntry)> = index.iter_mut().collect();
        live.sort_unstable_by_key(|(_, e)| e.payload_offset);
        let mut contents = Vec::with_capacity(*live_bytes as usize);
        let mut moved = Vec::with_capacity(live.len());
        for (chunk, entry) in &live {
            encode_record(
                &mut contents,
                REC_PUT,
                &(**chunk, entry.checksum, entry.len),
            );
            let at = contents.len();
            moved.push(at as u64);
            contents.resize(at + entry.len as usize, 0);
            log.read_exact_at(entry.payload_offset, &mut contents[at..])?;
        }
        let replaced = log.replace(&contents);
        // The handle moves to the new file also when only the directory
        // sync after the rename fails: the index follows the handle.
        if log.len() != old_len {
            *live_bytes = log.len();
            for ((_, entry), at) in live.into_iter().zip(moved) {
                entry.payload_offset = at;
            }
        }
        replaced.map(|()| old_len - log.len())
    }
}

impl ChunkTable for PartTable {
    /// Only the PUT frames of the batch are encoded, into one small
    /// buffer; the log appends them with the payloads between them in one
    /// gathered write (and, when the fsync policy says so, one sync), so
    /// no payload is copied. A batch costs one append however many
    /// chunks it carries, and a failed append fails every record it
    /// carried.
    fn install_batch(&self, items: &[(ChunkId, &Bytes, u64)]) -> Vec<Result<bool>> {
        let mut frames = Vec::with_capacity(items.len() * PUT_FRAME_BYTES as usize);
        // Index entries with their payloads, offsets still relative to
        // the start of the append.
        let mut framed = Vec::with_capacity(items.len());
        let mut size = 0u64;
        let mut outcomes = Vec::with_capacity(items.len());
        let mut batch_ids = HashSet::new();

        let mut part = self.part.write();
        for &(chunk, data, checksum) in items {
            // Replay refuses an id without a successor: logging one would
            // leave a directory that no longer opens.
            if chunk.raw() == u64::MAX {
                let refused = format!("chunk id {chunk} out of range");
                outcomes.push(Err(Error::Internal(refused)));
                continue;
            }
            let fresh = !part.index.contains_key(&chunk) && batch_ids.insert(chunk);
            outcomes.push(Ok(fresh));
            if !fresh {
                continue;
            }
            // Framed metadata record, then the raw payload out-of-frame
            // (see the module docs for why).
            let len = data.len() as u64;
            encode_record(&mut frames, REC_PUT, &(chunk, checksum, len));
            size += PUT_FRAME_BYTES;
            let entry = IndexEntry {
                payload_offset: size,
                len,
                checksum,
            };
            framed.push((chunk, entry, data));
            size += len;
        }
        if framed.is_empty() {
            return outcomes;
        }
        debug_assert_eq!(frames.len(), framed.len() * PUT_FRAME_BYTES as usize);
        let frames = frames.chunks_exact(PUT_FRAME_BYTES as usize);
        let parts: Vec<&[u8]> = frames
            .zip(&framed)
            .flat_map(|(frame, (_, _, data))| [frame, data.as_ref()])
            .collect();
        match part.log.append(&parts) {
            Ok(at) => {
                part.live_bytes += size;
                for (chunk, mut entry, _) in framed {
                    entry.payload_offset += at;
                    part.max_seen = part.max_seen.max(chunk.raw() + 1);
                    part.index.insert(chunk, entry);
                }
            }
            Err(e) => {
                for outcome in outcomes.iter_mut().filter(|o| matches!(o, Ok(true))) {
                    *outcome = Err(e.clone());
                }
            }
        }
        outcomes
    }

    fn lookup(&self, chunk: ChunkId) -> Option<(u64, u64)> {
        let part = self.part.read();
        part.index.get(&chunk).map(|e| (e.len, e.checksum))
    }

    /// The admitted payloads are `pread` straight into one buffer the
    /// returned slices share. The lock is held (shared) for the whole
    /// batch, so a compaction cannot move a payload between its lookup
    /// and its read.
    fn read_batch(
        &self,
        chunks: impl Iterator<Item = ChunkId>,
        mut admit: impl FnMut(usize, Option<u64>) -> Result<ByteRange>,
    ) -> Vec<Result<Bytes>> {
        let part = self.part.read();
        // Per item: the file offset to read at, and where the bytes go in
        // the shared buffer.
        let mut total = 0usize;
        let mut planned: Vec<Result<(u64, std::ops::Range<usize>)>> = chunks
            .enumerate()
            .map(|(item, chunk)| {
                let entry = part.index.get(&chunk);
                let range = admit(item, entry.map(|e| e.len))?;
                let entry = entry.expect("admitted, so held");
                let at = total;
                total += range.len as usize;
                Ok((entry.payload_offset + range.offset, at..total))
            })
            .collect();
        let mut buf = vec![0u8; total];
        for plan in &mut planned {
            let Ok((offset, at)) = plan else {
                continue;
            };
            if let Err(e) = part.log.read_exact_at(*offset, &mut buf[at.clone()]) {
                *plan = Err(e);
            }
        }
        drop(part);
        let buf = Bytes::from(buf);
        planned
            .into_iter()
            .map(|plan| plan.map(|(_, at)| buf.slice(at)))
            .collect()
    }

    /// The tombstones of the whole batch cost one append (and at most one
    /// fsync) instead of one per chunk. The part-file bytes stay behind
    /// as *dead* (recovery replays the tombstones too) until a compaction
    /// rewrites the file.
    fn evict_batch(&self, chunks: &[ChunkId]) -> u64 {
        let mut part = self.part.write();
        let mut framed = Vec::new();
        let mut removed = Vec::new();
        for &chunk in chunks {
            if let Some(entry) = part.index.remove(&chunk) {
                encode_record(&mut framed, REC_TOMBSTONE, &chunk);
                removed.push((chunk, entry));
            }
        }
        if removed.is_empty() {
            return 0;
        }
        if part.log.append(&[&framed]).is_err() {
            // An eviction that cannot reach disk must not pretend the
            // chunks are gone: put the entries back and report nothing
            // reclaimed.
            part.index.extend(removed);
            return 0;
        }
        let reclaimed: u64 = removed.iter().map(|(_, entry)| entry.len).sum();
        part.live_bytes -= removed.len() as u64 * PUT_FRAME_BYTES + reclaimed;
        reclaimed
    }

    /// A compaction failure leaves the part file valid, just uncompacted.
    fn shed_dead(&self) {
        let _ = self.compact(COMPACT_DEAD_FRACTION);
    }

    /// Flips the byte **on disk**: the bit-rot injection exercises real
    /// media.
    fn flip_byte(&self, chunk: ChunkId, byte: usize) {
        let part = self.part.write();
        let Some(entry) = part.index.get(&chunk).filter(|e| (byte as u64) < e.len) else {
            return;
        };
        let at = entry.payload_offset + byte as u64;
        let mut b = [0u8; 1];
        if part.log.read_exact_at(at, &mut b).is_ok() {
            let _ = part.log.overwrite_at(at, &[b[0] ^ 0xFF]);
        }
    }

    fn entries(&self) -> Vec<(ChunkId, u64, u64)> {
        let part = self.part.read();
        part.index
            .iter()
            .map(|(&c, e)| (c, e.len, e.checksum))
            .collect()
    }

    fn count(&self) -> usize {
        self.part.read().index.len()
    }

    fn max_chunk_id(&self) -> Option<ChunkId> {
        match self.part.read().max_seen {
            0 => None,
            n => Some(ChunkId::new(n - 1)),
        }
    }
}

/// One durable storage server: the same front, cost model and request
/// semantics as [`DataProvider`], payloads in one append-only part file.
pub type DiskProvider = Provider<PartTable>;

impl DiskProvider {
    /// Opens (creating or recovering) a provider rooted at `dir`.
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure or when `dir` holds another
    /// provider's state, another format version's, or a layout of
    /// several slots.
    pub fn open(
        dir: impl Into<PathBuf>,
        id: ProviderId,
        cost: CostModel,
        faults: Arc<FaultInjector>,
        fsync: FsyncPolicy,
    ) -> Result<Self> {
        let table = PartTable::open(dir.into(), id, fsync)?;
        Ok(Provider::over(table, id, cost, faults))
    }

    /// Live-vs-file byte accounting of the part file.
    pub fn usage(&self) -> PartUsage {
        let part = self.table.part.read();
        PartUsage {
            file_bytes: part.log.len(),
            live_bytes: part.live_bytes,
        }
    }

    /// Rewrites the part file when its dead fraction is at least
    /// `threshold` (`0.0..=1.0`), dropping tombstoned and superseded
    /// records ([`RecordLog::replace`]: a crash at any point leaves one
    /// complete, replayable log). Returns file bytes shed.
    pub fn compact(&self, threshold: f64) -> Result<u64> {
        self.table.compact(threshold)
    }

    /// Forces outstanding appends to stable storage (graceful shutdown
    /// under `Group`/`Deferred` fsync policies).
    pub fn flush(&self) -> Result<()> {
        self.table.part.write().log.flush()
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
    use atomio_types::tempdir::TempDir;
    use std::fs::OpenOptions;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn part_path(dir: &Path) -> PathBuf {
        dir.join("slots").join("000").join("000.part")
    }

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
        {
            let prov = open(tmp.path());
            run_actors(1, |_, p| {
                prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![9u8; 64]))
                    .unwrap();
            });
        }
        // Simulate a crash mid-append: garbage tail on the part file.
        use std::io::Write as _;
        let mut f = OpenOptions::new()
            .append(true)
            .open(part_path(tmp.path()))
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
            let before = prov.usage().file_bytes;
            let victims: Vec<ChunkId> = (0..12).map(ChunkId::new).collect();
            // The batch path auto-compacts past the dead-fraction
            // threshold; an explicit full pass then finds nothing left.
            prov.evict_chunk_batch(&victims);
            prov.compact(0.0).unwrap();
            assert_eq!(prov.usage().dead_bytes(), 0);
            let after = prov.usage().file_bytes;
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
        assert_eq!(prov.usage().dead_bytes(), 0);
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
        assert_eq!(prov.usage().dead_bytes(), 0, "refused items wrote nothing");
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
        assert_eq!(batched.usage(), looped.usage());
    }

    #[test]
    fn batch_put_appends_and_syncs_once() {
        let stats = |prov: &DiskProvider| prov.table.part.read().log.stats();
        // Deferred never syncs: a 64-chunk batch is one append, where the
        // same chunks put one by one are 64.
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open_with(tmp.path(), CostModel::zero(), FsyncPolicy::Deferred);
        assert!(prov
            .put_batch_at(&batch(0, 64, 2048))
            .iter()
            .all(|r| r.is_ok()));
        let batched = stats(&prov);
        assert_eq!((batched.appends, batched.syncs), (1, 0), "{batched:?}");
        for (arrival, chunk, data) in batch(100, 64, 2048) {
            prov.put_chunk_at(arrival, chunk, data).unwrap();
        }
        assert_eq!(stats(&prov).appends - batched.appends, 64);
        // PerPublish syncs every append — so one sync per batch — and
        // leaves nothing unsynced behind.
        let tmp = TempDir::new("atomio-diskprov");
        let prov = open_with(tmp.path(), CostModel::zero(), FsyncPolicy::PerPublish);
        prov.put_batch_at(&batch(0, 64, 2048));
        let synced = stats(&prov);
        let counts = (synced.appends, synced.syncs, synced.unsynced);
        assert_eq!(counts, (1, 1, 0), "{synced:?}");
    }

    #[test]
    fn torn_batch_append_truncates_to_the_last_whole_record() {
        let tmp = TempDir::new("atomio-diskprov");
        let acked = batch(0, 24, 512);
        let torn = batch(100, 48, 512);
        let record = PUT_FRAME_BYTES + 512;
        let keep = {
            let prov = open_with(tmp.path(), CostModel::zero(), FsyncPolicy::Deferred);
            assert!(prov.put_batch_at(&acked).iter().all(|r| r.is_ok()));
            let before = prov.usage().file_bytes;
            assert!(prov.put_batch_at(&torn).iter().all(|r| r.is_ok()));
            assert_eq!(prov.usage().file_bytes - before, 48 * record);
            // Tear the second batch's single write in its second record:
            // one whole record survives, the second loses its last byte.
            before + 2 * record - 1
        };
        OpenOptions::new()
            .write(true)
            .open(part_path(tmp.path()))
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
        // Of the torn batch exactly its first record survives.
        let survivors: Vec<ChunkId> = torn
            .iter()
            .map(|(_, chunk, _)| *chunk)
            .filter(|chunk| prov.has_chunk(*chunk))
            .collect();
        assert_eq!(survivors, vec![torn[0].1]);
        // The accounting is what a rescan of the truncated file finds:
        // no dead bytes, and a second reopen changes nothing.
        let live = (acked.len() + survivors.len()) as u64;
        assert_eq!(prov.chunk_count() as u64, live);
        assert_eq!(prov.bytes_stored(), live * 512);
        assert_eq!(prov.usage().dead_bytes(), 0);
        assert_eq!(
            prov.usage().file_bytes,
            keep - (record - 1),
            "the torn record is truncated away"
        );
        let usage = prov.usage();
        drop(prov);
        assert_eq!(open(tmp.path()).usage(), usage);
    }

    #[test]
    fn live_byte_accounting_matches_across_install_evict_recovery() {
        let tmp = TempDir::new("atomio-diskprov");
        let expect_live = |prov: &DiskProvider, chunks: u64, payload: u64| {
            let live = prov.usage().live_bytes;
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
            prov.usage().dead_bytes(),
            PUT_FRAME_BYTES + 64 + (RECORD_HEADER_BYTES as u64 + 8),
            "one dead PUT frame+payload plus its tombstone record"
        );
    }

    #[test]
    fn truncated_staged_compaction_file_leaves_the_part_file_unchanged() {
        let tmp = TempDir::new("atomio-diskprov");
        let part = part_path(tmp.path());
        {
            let prov = open(tmp.path());
            prov.put_batch_at(&batch(0, 6, 100));
            prov.evict_chunk(ChunkId::new(2));
        }
        // A compaction killed between staging and rename: half a
        // compacted log sits beside the live part file.
        let before = std::fs::read(&part).unwrap();
        let staged = part.with_extension("part.staged");
        std::fs::write(&staged, &before[..before.len() / 3]).unwrap();

        let prov = open(tmp.path());
        assert_eq!(std::fs::read(&part).unwrap(), before);
        assert_eq!(prov.chunk_count(), 5);
        assert!(prov.usage().dead_bytes() > 0);
        let (got, _) = prov
            .get_chunk_range_at(0, ChunkId::new(5), ByteRange::new(0, 100))
            .unwrap();
        assert_eq!(got.as_ref(), &[5u8; 100][..]);
        // The next compaction overwrites the leftover and completes.
        assert!(prov.compact(0.0).unwrap() > 0);
        assert!(!staged.exists());
        drop(prov);
        assert_eq!(open(tmp.path()).chunk_count(), 5);
    }

    /// A payload no other chunk id has: its id's bytes, repeated to a
    /// length that varies with the id.
    fn payload(i: u64) -> Bytes {
        let len = 64 + (i % 5) as usize * 48;
        Bytes::from(
            i.to_le_bytes()
                .iter()
                .copied()
                .cycle()
                .take(len)
                .collect::<Vec<u8>>(),
        )
    }

    /// Raises its flag when dropped — by a panic too, so no reader
    /// outlives a failed writer.
    struct RaiseOnDrop<'a>(&'a AtomicBool);

    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    #[test]
    fn reads_racing_puts_evictions_and_compaction_see_whole_chunks_or_typed_misses() {
        const ROUNDS: u64 = 30;
        const PER_ROUND: u64 = 16;
        for fsync in [FsyncPolicy::PerPublish, FsyncPolicy::Deferred] {
            let tmp = TempDir::new("atomio-diskprov");
            let prov = open_with(tmp.path(), CostModel::zero(), fsync);
            let put = |ids: std::ops::Range<u64>| {
                let items: Vec<_> = ids.map(|i| (0, ChunkId::new(i), payload(i))).collect();
                assert!(prov.put_batch_at(&items).iter().all(|r| r.is_ok()));
            };
            put(0..PER_ROUND);
            // Chunks below `written` are stored; the writer evicts even
            // ids only, so an odd one must always be read whole.
            let written = AtomicU64::new(PER_ROUND);
            let done = AtomicBool::new(false);
            let (mut shed, mut reads) = (0, AtomicU64::new(0));
            std::thread::scope(|scope| {
                for reader in 0..3u64 {
                    let (written, done, reads) = (&written, &done, &reads);
                    let prov = &prov;
                    scope.spawn(move || {
                        let mut turn = reader;
                        while !done.load(Ordering::Acquire) {
                            let upto = written.load(Ordering::Acquire);
                            let items: Vec<_> = (0..8)
                                .map(|k| {
                                    let i = (turn * 37 + k * 11) % upto;
                                    let len = payload(i).len() as u64;
                                    let range = ByteRange::new(k % 3, len - k % 3 - k % 2);
                                    (0, ChunkId::new(i), range)
                                })
                                .collect();
                            let got = prov.get_range_batch_at(&items);
                            for ((_, chunk, range), got) in items.iter().zip(got) {
                                let i = chunk.raw();
                                match got {
                                    Ok((bytes, _)) => {
                                        let at = range.offset as usize;
                                        let want = payload(i).slice(at..at + range.len as usize);
                                        assert_eq!(bytes, want, "chunk {i} under {fsync:?}");
                                    }
                                    Err(Error::ChunkNotFound { .. }) if i % 2 == 0 => {}
                                    Err(e) => panic!("chunk {i} under {fsync:?}: {e}"),
                                }
                            }
                            reads.fetch_add(items.len() as u64, Ordering::Relaxed);
                            turn += 3;
                        }
                    });
                }
                let _stop_readers = RaiseOnDrop(&done);
                for round in 1..ROUNDS {
                    put(round * PER_ROUND..(round + 1) * PER_ROUND);
                    written.store((round + 1) * PER_ROUND, Ordering::Release);
                    let start = (round - 1) * PER_ROUND;
                    let evens: Vec<_> = (start..start + PER_ROUND)
                        .filter(|i| i % 2 == 0)
                        .map(ChunkId::new)
                        .collect();
                    assert_eq!(prov.evict_chunk_batch(&evens), {
                        evens
                            .iter()
                            .map(|c| payload(c.raw()).len() as u64)
                            .sum::<u64>()
                    });
                    if round % 4 == 0 {
                        shed += prov.compact(0.0).unwrap();
                    }
                }
            });
            assert!(shed > 0, "the writer compacted");
            assert!(*reads.get_mut() > 0, "the readers read");
            // What survives is exactly the live state, and a reopen
            // recovers it.
            let last = (ROUNDS - 1) * PER_ROUND;
            let live: Vec<u64> = (0..ROUNDS * PER_ROUND)
                .filter(|i| i % 2 == 1 || *i >= last)
                .collect();
            let mut entries = prov.table.entries();
            entries.sort_unstable();
            let usage = prov.usage();
            drop(prov);
            let prov = open_with(tmp.path(), CostModel::zero(), fsync);
            let mut reopened = prov.table.entries();
            reopened.sort_unstable();
            assert_eq!(reopened, entries);
            assert_eq!(prov.usage(), usage);
            let ids: Vec<u64> = entries.iter().map(|e| e.0.raw()).collect();
            assert_eq!(ids, live);
            for i in live {
                let whole = ByteRange::new(0, payload(i).len() as u64);
                let (got, _) = prov.get_chunk_range_at(0, ChunkId::new(i), whole).unwrap();
                assert_eq!(got, payload(i));
            }
        }
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
            let replay = replay_part(&torn).unwrap();
            assert_eq!(replay.valid, whole, "declared {len}");
            assert_eq!(replay.index.len(), 1);
        }
        // An id whose successor does not exist cannot be tracked, so the
        // live path refuses to log one and the directory still opens.
        let mut bad = Vec::new();
        encode_record(&mut bad, REC_PUT, &(ChunkId::new(u64::MAX), 0u64, 0u64));
        assert!(matches!(replay_part(&bad), Err(Error::Internal(_))));
        let tmp = TempDir::new("atomio-diskprov");
        let put = open(tmp.path()).put_chunk_at(0, ChunkId::new(u64::MAX), Bytes::from("x"));
        assert!(matches!(put, Err(Error::Internal(_))));
        assert_eq!(open(tmp.path()).chunk_count(), 0);
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
            let Ok(replay) = replay_part(bytes) else {
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
            let again = replay_part(&bytes[..replay.valid as usize]);
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
                    prop_assert_eq!(replay_part(&part).is_ok(), tail.is_empty());
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
