//! Record framing for the durable append-only logs.
//!
//! Every on-disk file of the disk backends — provider part files, meta
//! node logs, the version manager's publish log, and the per-directory
//! superblocks — is a sequence of self-delimiting records:
//!
//! ```text
//! magic:u32 | kind:u8 | body_len:u32 | checksum:u64 | body bytes
//! ```
//!
//! The header and the superblock body (see [`encode_superblock`]) are
//! fixed big-endian framing; every other record body is the positional
//! [`Encode`] of the type it carries, read back with
//! [`decode_exact`](serde::decode_exact) — the codec the wire frames use.
//! The checksum covers `kind`, `body_len`, and the body. A **torn tail**
//! (the crash landed mid-append) shows up as a record whose magic,
//! length, or checksum does not hold: [`scan_records`] stops there and
//! reports the valid prefix length, so recovery truncates the file back
//! to the last whole record instead of failing — the SPDK-BlobStore-style
//! load path.
//!
//! [`RecordLog`] is the one place such a file is created, recovered,
//! appended to, synced and rewritten; [`load_or_init_superblock`] sits
//! beside it. No other module opens, truncates, syncs or renames
//! durable state, so the crash-safety argument (DESIGN §4, "Durable
//! substrate") is made here once.

use crate::backend::FsyncPolicy;
use crate::stamp::checksum;
use crate::{Error, Result};
use serde::Encode;
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Bytes of the fixed record header (`magic + kind + body_len + checksum`).
pub const RECORD_HEADER_BYTES: usize = 4 + 1 + 4 + 8;

/// Frame magic leading every record ("aior").
pub const RECORD_MAGIC: u32 = 0x6169_6F72;

/// Largest body any log record may carry (a corrupted length field must
/// not trigger a huge allocation during a recovery scan).
pub const MAX_RECORD_BODY: usize = 64 * 1024 * 1024;

/// Seed of the checksum of a record of `kind`: a frame's checksum is
/// [`checksum`] of its body under this seed, which folds in the body's
/// length too.
fn frame_seed(kind: u8) -> u64 {
    0x5EED_1065 ^ ((kind as u64) << 32)
}

/// The frame header of a record of `kind` carrying `body`.
fn header(kind: u8, body: &[u8]) -> [u8; RECORD_HEADER_BYTES] {
    let mut head = [0u8; RECORD_HEADER_BYTES];
    head[0..4].copy_from_slice(&RECORD_MAGIC.to_be_bytes());
    head[4] = kind;
    head[5..9].copy_from_slice(&(body.len() as u32).to_be_bytes());
    head[9..17].copy_from_slice(&checksum(frame_seed(kind), body).to_be_bytes());
    head
}

/// Appends one framed record carrying the raw bytes `body` to `buf`.
pub fn append_record(buf: &mut Vec<u8>, kind: u8, body: &[u8]) {
    buf.extend_from_slice(&header(kind, body));
    buf.extend_from_slice(body);
}

/// Appends one framed record whose body is the positional encoding of
/// `body`, encoded straight into `buf` (the header is filled in once the
/// body's length and checksum are known).
pub fn encode_record<T: Encode + ?Sized>(buf: &mut Vec<u8>, kind: u8, body: &T) {
    let start = buf.len();
    buf.resize(start + RECORD_HEADER_BYTES, 0);
    body.encode(buf);
    let (head, body) = buf[start..].split_at_mut(RECORD_HEADER_BYTES);
    head.copy_from_slice(&header(kind, body));
}

/// One record recovered by [`scan_records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedRecord {
    /// The record's kind tag.
    pub kind: u8,
    /// Absolute offset of the record's body within the scanned file.
    pub body_offset: u64,
    /// The record body.
    pub body: Vec<u8>,
}

/// Result of scanning one log file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordScan {
    /// Whole, checksum-valid records, in file order.
    pub records: Vec<ScannedRecord>,
    /// Length of the valid prefix: truncate the file here when
    /// `truncated` is set.
    pub valid_len: u64,
    /// True when bytes past `valid_len` exist but do not form a whole
    /// valid record (a torn tail).
    pub truncated: bool,
}

/// Parses the one record starting at byte `pos`, returning it and the
/// offset just past it — `None` when the bytes there are torn or
/// corrupt. Logs that interleave out-of-frame payloads with their
/// records (the provider part files) drive this directly instead of
/// [`scan_records`].
pub fn read_record_at(bytes: &[u8], pos: usize) -> Option<(ScannedRecord, usize)> {
    let rest = bytes.get(pos..)?;
    if rest.len() < RECORD_HEADER_BYTES {
        return None;
    }
    let magic = u32::from_be_bytes(rest[0..4].try_into().unwrap());
    if magic != RECORD_MAGIC {
        return None;
    }
    let kind = rest[4];
    let body_len = u32::from_be_bytes(rest[5..9].try_into().unwrap()) as usize;
    let stored = u64::from_be_bytes(rest[9..17].try_into().unwrap());
    if body_len > MAX_RECORD_BODY || rest.len() < RECORD_HEADER_BYTES + body_len {
        return None;
    }
    let body = &rest[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + body_len];
    if checksum(frame_seed(kind), body) != stored {
        return None;
    }
    Some((
        ScannedRecord {
            kind,
            body_offset: (pos + RECORD_HEADER_BYTES) as u64,
            body: body.to_vec(),
        },
        pos + RECORD_HEADER_BYTES + body_len,
    ))
}

/// Walks `bytes` record by record, stopping at the first torn or
/// corrupt one. Never fails: damage is reported as a shorter
/// `valid_len` plus the `truncated` flag.
pub fn scan_records(bytes: &[u8]) -> RecordScan {
    let mut scan = RecordScan::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some((record, next)) = read_record_at(bytes, pos) else {
            scan.truncated = true;
            return scan;
        };
        scan.records.push(record);
        pos = next;
        scan.valid_len = pos as u64;
    }
    scan
}

/// Record kind of a superblock (the first record of every backend
/// directory's `superblock` file).
pub const SUPERBLOCK_KIND: u8 = 0;

/// Encodes a superblock body: on-disk format version, slot count, and a
/// role-specific tag (provider id, shard count, …) that guards against
/// pointing the wrong role — or the wrong instance — at a directory.
pub fn encode_superblock(format_version: u32, slot_count: u32, tag: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    body.extend_from_slice(&format_version.to_be_bytes());
    body.extend_from_slice(&slot_count.to_be_bytes());
    body.extend_from_slice(&tag.to_be_bytes());
    body
}

/// Decodes a superblock body encoded by [`encode_superblock`].
pub fn decode_superblock(body: &[u8]) -> Option<(u32, u32, u64)> {
    if body.len() != 16 {
        return None;
    }
    Some((
        u32::from_be_bytes(body[0..4].try_into().unwrap()),
        u32::from_be_bytes(body[4..8].try_into().unwrap()),
        u64::from_be_bytes(body[8..16].try_into().unwrap()),
    ))
}

/// On-disk format version every disk backend stamps into its superblock.
/// v2 writes record bodies with the positional codec; v3 keeps v2's
/// layout but computes frame and ingest checksums with the striped
/// [`checksum`]. A v1 or v2 directory is refused, not migrated.
pub const FORMAT_VERSION: u32 = 3;

/// Reads (validating) or writes the superblock of a backend directory,
/// returning the directory's slot count. Shared by every disk backend —
/// the provider stamps its provider id into `tag`, the meta store its
/// shard count, the publish log its blob id — so pointing the wrong
/// role, or the wrong instance, at a directory fails loudly instead of
/// interleaving foreign logs.
///
/// # Errors
/// [`Error::Internal`] on I/O failure, a corrupt or
/// foreign superblock, or a format-version mismatch.
pub fn load_or_init_superblock(path: &Path, slot_count: u32, tag: u64, role: &str) -> Result<u32> {
    if !path.exists() {
        let mut framed = Vec::new();
        let body = encode_superblock(FORMAT_VERSION, slot_count, tag);
        append_record(&mut framed, SUPERBLOCK_KIND, &body);
        install(path, &framed)?.1?;
        return Ok(slot_count);
    }
    let contents =
        std::fs::read(path).map_err(|e| Error::io(format!("{role} read superblock"), e))?;
    let scan = scan_records(&contents);
    let rec = scan
        .records
        .first()
        .filter(|r| r.kind == SUPERBLOCK_KIND && !scan.truncated)
        .ok_or_else(|| Error::Internal(format!("{role}: corrupt superblock")))?;
    let (format, slots, disk_tag) = decode_superblock(&rec.body)
        .ok_or_else(|| Error::Internal(format!("{role}: malformed superblock")))?;
    if format != FORMAT_VERSION {
        return Err(Error::Internal(format!(
            "{role}: on-disk format v{format}, this build speaks v{FORMAT_VERSION}"
        )));
    }
    if disk_tag != tag {
        return Err(Error::Internal(format!(
            "{role}: directory belongs to a different instance (tag {disk_tag}, expected {tag})"
        )));
    }
    Ok(slots)
}

/// Makes `path` hold exactly `contents`, atomically and durably: the
/// bytes are written aside (in `path`'s directory, created if need be)
/// and synced, renamed over `path`, and the directory is synced so the
/// new name survives a power loss — and so is the parent of each level
/// of it this call created, so a fresh `slots/NNN/` cannot vanish with
/// its log. A crash at any step leaves either the
/// old file (or none) or the new one, never a partial one; a leftover
/// staged file is ignored by every reader and overwritten by the next
/// call.
///
/// Returns the new file, opened read-write before the rename so that no
/// open can fail after it, beside the outcome of the directory sync:
/// once the rename is done, the returned file is the one `path` names,
/// whatever that sync says. An `Err` means `path` was left as it was.
fn install(path: &Path, contents: &[u8]) -> Result<(File, Result<()>)> {
    let ctx = |what: &str| format!("{what} {}", path.display());
    let dir = parent_dir(path);
    let created =
        create_missing_levels(dir).map_err(|e| Error::io(ctx("create directory of"), e))?;
    let mut staged = path.as_os_str().to_owned();
    staged.push(".staged");
    let staged = PathBuf::from(staged);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&staged)
        .map_err(|e| Error::io(ctx("stage"), e))?;
    file.write_all(contents)
        .and_then(|_| file.sync_data())
        .map_err(|e| Error::io(ctx("write staged"), e))?;
    std::fs::rename(&staged, path).map_err(|e| Error::io(ctx("rename staged over"), e))?;
    // Innermost first, after the rename: on a journaling file system the
    // first sync commits every entry created above and the rest are cheap.
    let synced = std::iter::once(dir)
        .chain(created.iter().map(|level| parent_dir(level)))
        .try_for_each(|dir| File::open(dir)?.sync_all())
        .map_err(|e| Error::io(ctx("sync directory of"), e));
    Ok((file, synced))
}

/// The directory `path` sits in (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    dir.unwrap_or(Path::new("."))
}

/// Creates the missing levels of `dir` one at a time, outermost first,
/// and returns them innermost first. Each new entry is durable only once
/// its parent is synced, which is the caller's to do.
fn create_missing_levels(dir: &Path) -> std::io::Result<Vec<&Path>> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|level| !level.as_os_str().is_empty() && !level.is_dir())
        .collect();
    for level in missing.iter().rev() {
        if let Err(e) = std::fs::create_dir(level) {
            // A concurrent creator may have won the race.
            if !level.is_dir() {
                return Err(e);
            }
        }
    }
    Ok(missing)
}

/// Writes every byte of `slices` to `file` from offset `at` on: one
/// seek, then gathered writes, looping on short ones.
fn write_all_vectored_at(
    mut file: &File,
    at: u64,
    mut slices: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(at))?;
    // Drops the leading empty slices: an append of no bytes writes none.
    IoSlice::advance_slices(&mut slices, 0);
    while !slices.is_empty() {
        match file.write_vectored(slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn open_rw(path: &Path) -> Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| Error::io(format!("open {}", path.display()), e))
}

/// Append and sync counters of one [`RecordLog`] since it was opened —
/// the E9d ablation reads the publish log's to relate ack latency to
/// the durability window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Appends issued (one per [`RecordLog::append`] call, however many
    /// records or parts it carried).
    pub appends: u64,
    /// `fdatasync` calls issued by appends and flushes.
    pub syncs: u64,
    /// Appends not yet synced.
    pub unsynced: u32,
    /// Largest number of appended-but-unsynced appends ever outstanding
    /// — the worst-case count of acknowledged appends a crash at the
    /// wrong moment would roll back.
    pub unsynced_peak: u32,
}

/// One crash-safe append-only file of records: the durable substrate
/// under the provider part files, the meta node logs and the publish
/// log. The log owns the file's whole lifecycle — create, read, replay,
/// truncate the torn tail, append at the end, sync per
/// [`FsyncPolicy`], flush, rewrite — and knows nothing of what the
/// records mean: kinds, body codecs and replay rules stay with the
/// backend, which sees the bytes once, in [`RecordLog::open`].
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    file: File,
    /// Current end of the file (every append lands here).
    len: u64,
    policy: FsyncPolicy,
    stats: LogStats,
}

impl RecordLog {
    /// Opens the log at `path`, creating it (staged, and its directory
    /// with it) when absent. `replay` is handed the file's bytes and returns the
    /// length of the prefix made of whole records; anything past it is a
    /// torn tail — an append the crash cut short, never acknowledged as
    /// durable — and is truncated away and the truncation synced.
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure; whatever `replay` returns
    /// (a malformed but checksum-valid record is corruption, not a torn
    /// tail, and fails the open).
    pub fn open(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        replay: impl FnOnce(&[u8]) -> Result<u64>,
    ) -> Result<Self> {
        let path = path.into();
        if !path.exists() {
            install(&path, &[])?.1?;
        }
        let mut log = RecordLog {
            file: open_rw(&path)?,
            path,
            len: 0,
            policy,
            stats: LogStats::default(),
        };
        let mut contents = Vec::new();
        let read = log.file.read_to_end(&mut contents);
        read.map_err(|e| log.io("read", e))?;
        log.len = replay(&contents)?;
        assert!(
            log.len <= contents.len() as u64,
            "replay claimed more bytes than the log holds"
        );
        if log.len < contents.len() as u64 {
            log.file
                .set_len(log.len)
                .and_then(|_| log.file.sync_data())
                .map_err(|e| log.io("truncate torn tail of", e))?;
        }
        Ok(log)
    }

    fn io(&self, what: &str, err: std::io::Error) -> Error {
        Error::io(format!("{what} {}", self.path.display()), err)
    }

    /// Appends `parts`, in order — one framed record, a whole batch of
    /// them, or a batch's frames with their payloads between — with one
    /// gathered write at the end of the log, then at most one
    /// `fdatasync`, when the policy says one is due. Returns the offset
    /// the first part landed at. A failed append leaves the log's length
    /// where it was, so the next one lands on the same record boundary.
    pub fn append(&mut self, parts: &[&[u8]]) -> Result<u64> {
        let at = self.len;
        let mut slices: Vec<IoSlice<'_>> = parts.iter().map(|part| IoSlice::new(part)).collect();
        write_all_vectored_at(&self.file, at, &mut slices).map_err(|e| self.io("append to", e))?;
        self.len += parts.iter().map(|part| part.len() as u64).sum::<u64>();
        self.stats.appends += 1;
        self.stats.unsynced += 1;
        self.stats.unsynced_peak = self.stats.unsynced_peak.max(self.stats.unsynced);
        if self.policy.due(self.stats.unsynced) {
            self.sync()?;
        }
        Ok(at)
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| self.io("sync", e))?;
        self.stats.unsynced = 0;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Forces outstanding appends to stable storage (graceful shutdown
    /// under `Group`/`Deferred` policies); free when there are none.
    pub fn flush(&mut self) -> Result<()> {
        if self.stats.unsynced > 0 {
            self.sync()?;
        }
        Ok(())
    }

    /// One `pread`: the append position is left alone.
    pub fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.file
            .read_exact_at(buf, offset)
            .map_err(|e| self.io("read", e))
    }

    /// Overwrites bytes in place — the one breach of append-only, and
    /// only for the bit-rot injection hooks: nothing is synced and no
    /// checksum is touched, which is the point.
    pub fn overwrite_at(&self, offset: u64, bytes: &[u8]) -> Result<()> {
        assert!(
            offset + bytes.len() as u64 <= self.len,
            "overwrite past the end of the log"
        );
        self.file
            .write_all_at(bytes, offset)
            .map_err(|e| self.io("overwrite", e))
    }

    /// Replaces the whole log with `contents` (compaction), durably and
    /// atomically: a crash at any step leaves one complete log, the old
    /// or the new. The handle moves to the new file as soon as it has
    /// replaced the old one — also when only the directory sync after the
    /// rename fails, which is then the error returned — so appends never
    /// go to a file no name points to.
    pub fn replace(&mut self, contents: &[u8]) -> Result<()> {
        let (file, synced) = install(&self.path, contents)?;
        self.file = file;
        self.len = contents.len() as u64;
        self.stats.unsynced = 0;
        synced
    }

    /// Bytes in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append/sync counters since open.
    pub fn stats(&self) -> LogStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip() {
        let mut buf = Vec::new();
        append_record(&mut buf, 1, b"hello");
        append_record(&mut buf, 2, b"");
        append_record(&mut buf, 1, &[7u8; 1000]);
        let scan = scan_records(&buf);
        assert!(!scan.truncated);
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0].kind, 1);
        assert_eq!(scan.records[0].body, b"hello");
        assert_eq!(scan.records[0].body_offset, RECORD_HEADER_BYTES as u64);
        assert_eq!(scan.records[1].body, b"");
        assert_eq!(scan.records[2].body, vec![7u8; 1000]);
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let mut buf = Vec::new();
        append_record(&mut buf, 1, b"whole");
        let keep = buf.len() as u64;
        let mut torn = buf.clone();
        append_record(&mut torn, 1, b"torn record");
        torn.truncate(buf.len() + RECORD_HEADER_BYTES + 3); // mid-body
        let scan = scan_records(&torn);
        assert!(scan.truncated);
        assert_eq!(scan.valid_len, keep);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn flipped_body_byte_stops_the_scan() {
        let mut buf = Vec::new();
        append_record(&mut buf, 1, b"aaaa");
        append_record(&mut buf, 1, b"bbbb");
        let second_body = buf.len() - 4;
        buf[second_body] ^= 0xFF;
        let scan = scan_records(&buf);
        assert!(scan.truncated);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].body, b"aaaa");
    }

    #[test]
    fn garbage_magic_yields_empty_scan() {
        let scan = scan_records(&[
            0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert!(scan.truncated);
        assert_eq!(scan.valid_len, 0);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn oversized_declared_body_is_a_torn_tail() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&RECORD_MAGIC.to_be_bytes());
        buf.push(1);
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(&0u64.to_be_bytes());
        let scan = scan_records(&buf);
        assert!(scan.truncated);
        assert_eq!(scan.valid_len, 0);
    }

    /// One framed record of raw `body` bytes, as an owned buffer.
    fn framed(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        append_record(&mut buf, kind, body);
        buf
    }

    #[test]
    fn superblock_roundtrip() {
        let body = encode_superblock(1, 8, 42);
        assert_eq!(decode_superblock(&body), Some((1, 8, 42)));
        assert_eq!(decode_superblock(&body[..15]), None);
    }

    use crate::tempdir::TempDir;

    /// The replay of a log of plain framed records.
    fn whole_records(bytes: &[u8]) -> Result<u64> {
        Ok(scan_records(bytes).valid_len)
    }

    #[test]
    fn record_log_appends_at_the_end_and_recovers_the_whole_prefix() {
        let tmp = TempDir::new("atomio-recordlog");
        let path = tmp.path().join("x.log");
        let (first, second) = (framed(1, b"first"), framed(2, b"second"));
        {
            let mut log = RecordLog::open(&path, FsyncPolicy::PerPublish, whole_records).unwrap();
            assert!(log.is_empty());
            assert_eq!(log.append(&[&first]).unwrap(), 0);
            assert_eq!(log.append(&[&second]).unwrap(), first.len() as u64);
            let mut back = vec![0u8; second.len()];
            log.read_exact_at(first.len() as u64, &mut back).unwrap();
            assert_eq!(back, second);
            // Hard drop, then a crash mid-append: half a record.
        }
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend_from_slice(&framed(1, b"torn")[..9]);
        std::fs::write(&path, &torn).unwrap();

        let mut seen = 0;
        let mut log = RecordLog::open(&path, FsyncPolicy::PerPublish, |bytes| {
            seen = bytes.len();
            whole_records(bytes)
        })
        .unwrap();
        assert_eq!(seen, torn.len(), "replay sees the torn bytes too");
        assert_eq!(log.len(), (first.len() + second.len()) as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), log.len());
        // The tail is gone: the next append lands on a record boundary.
        log.append(&[&first]).unwrap();
        drop(log);
        assert_eq!(
            scan_records(&std::fs::read(&path).unwrap()).records.len(),
            3
        );
    }

    #[test]
    fn record_log_syncs_by_policy_and_counts_it() {
        let tmp = TempDir::new("atomio-recordlog");
        let record = framed(1, b"r");
        let open = |name: &str, policy| {
            RecordLog::open(tmp.path().join(name), policy, whole_records).unwrap()
        };
        let mut group = open("group", FsyncPolicy::Group(4));
        for _ in 0..10 {
            group.append(&[&record]).unwrap();
        }
        let expect = LogStats {
            appends: 10,
            syncs: 2,
            unsynced: 2,
            unsynced_peak: 4,
        };
        assert_eq!(group.stats(), expect, "4 + 4 synced, 2 pending");
        group.flush().unwrap();
        group.flush().unwrap(); // free when clean
        assert_eq!((group.stats().syncs, group.stats().unsynced), (3, 0));

        let mut deferred = open("deferred", FsyncPolicy::Deferred);
        let mut per_append = open("per-append", FsyncPolicy::PerPublish);
        for _ in 0..10 {
            deferred.append(&[&record]).unwrap();
            per_append.append(&[&record]).unwrap();
        }
        assert_eq!(
            (deferred.stats().syncs, deferred.stats().unsynced_peak),
            (0, 10)
        );
        assert_eq!(
            (per_append.stats().syncs, per_append.stats().unsynced_peak),
            (10, 1)
        );
    }

    #[test]
    fn a_gathered_append_writes_what_its_concatenation_writes() {
        let tmp = TempDir::new("atomio-recordlog");
        // 64 chunks as a provider batch lays them out (a frame, then the
        // payload out of frame), and 600 to pass the kernel's cap on
        // slices per write (1024), which leaves a short write to finish.
        for chunks in [64usize, 600] {
            let frames: Vec<Vec<u8>> = (0..chunks).map(|i| framed(1, &i.to_be_bytes())).collect();
            let payloads: Vec<Vec<u8>> = (0..chunks).map(|i| vec![i as u8; i * 37 % 700]).collect();
            let parts: Vec<&[u8]> = frames
                .iter()
                .zip(&payloads)
                .flat_map(|(frame, payload)| [&frame[..], &payload[..]])
                .collect();
            let open = |name: String| {
                RecordLog::open(
                    tmp.path().join(name),
                    FsyncPolicy::PerPublish,
                    whole_records,
                )
                .unwrap()
            };
            let mut gathered = open(format!("gathered-{chunks}"));
            let mut concatenated = open(format!("concatenated-{chunks}"));
            for log in [&mut gathered, &mut concatenated] {
                log.append(&[b"lead"]).unwrap();
            }
            assert_eq!(gathered.append(&parts).unwrap(), 4);
            assert_eq!(concatenated.append(&[&parts.concat()]).unwrap(), 4);
            assert_eq!(gathered.len(), concatenated.len());
            assert_eq!(
                gathered.stats(),
                concatenated.stats(),
                "one append, one sync"
            );
            let on_disk = |log: &RecordLog| std::fs::read(&log.path).unwrap();
            assert_eq!(on_disk(&gathered), on_disk(&concatenated));
            assert_eq!(on_disk(&gathered).len() as u64, gathered.len());
        }
    }

    #[test]
    fn replace_swaps_the_whole_log_and_a_leftover_staged_file_is_ignored() {
        let tmp = TempDir::new("atomio-recordlog");
        let path = tmp.path().join("x.log");
        let (old, new) = (framed(1, &[7; 100]), framed(1, b"compacted"));
        let mut log = RecordLog::open(&path, FsyncPolicy::Deferred, whole_records).unwrap();
        log.append(&[&old]).unwrap();
        log.append(&[&old]).unwrap();
        log.replace(&new).unwrap();
        assert_eq!((log.len(), log.stats().unsynced), (new.len() as u64, 0));
        assert_eq!(log.append(&[&old]).unwrap(), new.len() as u64);
        drop(log);
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(rewritten, [new.clone(), old].concat());

        // A crash between staging and rename: a truncated staged file
        // beside the live log. The log opens unchanged; the next
        // replacement overwrites the leftover.
        let staged = tmp.path().join("x.log.staged");
        std::fs::write(&staged, &new[..5]).unwrap();
        let mut log = RecordLog::open(&path, FsyncPolicy::Deferred, whole_records).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), rewritten);
        log.replace(&new).unwrap();
        assert!(!staged.exists());
        assert_eq!(std::fs::read(&path).unwrap(), new);
    }

    #[test]
    fn after_replace_the_handle_is_the_file_the_path_names() {
        use std::os::unix::fs::MetadataExt;
        let tmp = TempDir::new("atomio-recordlog");
        let path = tmp.path().join("x.log");
        let mut log = RecordLog::open(&path, FsyncPolicy::Deferred, whole_records).unwrap();
        let inode = |log: &RecordLog| log.file.metadata().unwrap().ino();
        let named = || std::fs::metadata(&path).unwrap().ino();
        assert_eq!(inode(&log), named());
        let before = inode(&log);
        log.append(&[&framed(1, b"old")]).unwrap();
        log.replace(&framed(1, b"new")).unwrap();
        assert_ne!(inode(&log), before, "the rename put a new file in place");
        assert_eq!(inode(&log), named(), "the handle follows the name");
        // And the handle reads and appends as the log's own.
        log.append(&[&framed(1, b"after")]).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [framed(1, b"new"), framed(1, b"after")].concat()
        );
    }

    #[test]
    fn a_log_in_a_fresh_three_level_directory_reopens() {
        let tmp = TempDir::new("atomio-recordlog");
        let path = tmp.path().join("version/blob-7/slot/x.log");
        let mut log = RecordLog::open(&path, FsyncPolicy::PerPublish, whole_records).unwrap();
        log.append(&[&framed(1, b"kept")]).unwrap();
        drop(log);
        let reopened = RecordLog::open(&path, FsyncPolicy::PerPublish, |bytes| {
            assert_eq!(bytes, framed(1, b"kept"));
            whole_records(bytes)
        })
        .unwrap();
        assert_eq!(reopened.len(), framed(1, b"kept").len() as u64);
    }

    #[test]
    fn torn_staged_superblock_opens_as_a_new_store() {
        // A kill during the very first open: the superblock was being
        // staged and never renamed into place.
        let tmp = TempDir::new("atomio-recordlog");
        let path = tmp.path().join("superblock");
        let framed = framed(SUPERBLOCK_KIND, &encode_superblock(FORMAT_VERSION, 8, 42));
        for torn in [&framed[..0], &framed[..framed.len() / 2]] {
            std::fs::write(tmp.path().join("superblock.staged"), torn).unwrap();
            assert_eq!(load_or_init_superblock(&path, 8, 42, "test"), Ok(8));
            assert_eq!(std::fs::read(&path).unwrap(), framed);
            // Reopened: validated, not rewritten; the stored count wins.
            assert_eq!(load_or_init_superblock(&path, 4, 42, "test"), Ok(8));
            assert!(load_or_init_superblock(&path, 8, 43, "test").is_err());
            std::fs::remove_file(&path).unwrap();
        }
    }

    use proptest::prelude::*;

    /// A valid log of `bodies`, one record each (kinds cycle 0..4).
    fn log_of(bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut log = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            append_record(&mut log, (i % 4) as u8, body);
        }
        log
    }

    fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..max)
    }

    /// What every scan must satisfy whatever the bytes: the valid prefix
    /// is a prefix, it is exactly the records found, and scanning it
    /// alone finds the same records and no tear.
    fn check_scan(bytes: &[u8]) -> std::result::Result<(), TestCaseError> {
        let scan = scan_records(bytes);
        prop_assert!(scan.valid_len as usize <= bytes.len());
        prop_assert_eq!(scan.truncated, (scan.valid_len as usize) < bytes.len());
        let framed: usize = scan
            .records
            .iter()
            .map(|r| RECORD_HEADER_BYTES + r.body.len())
            .sum();
        prop_assert_eq!(framed as u64, scan.valid_len);
        let again = scan_records(&bytes[..scan.valid_len as usize]);
        prop_assert!(!again.truncated);
        prop_assert_eq!(again.records, scan.records);
        Ok(())
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(bytes in arb_bytes(512), pos in any::<usize>()) {
            check_scan(&bytes)?;
            let _ = read_record_at(&bytes, pos);
            let _ = read_record_at(&bytes, pos % (bytes.len() + 1));
            if let Some((format, slots, tag)) = decode_superblock(&bytes) {
                prop_assert_eq!(encode_superblock(format, slots, tag), bytes.clone());
            }
        }

        #[test]
        fn truncated_and_mutated_logs_scan_to_a_whole_record_prefix(
            bodies in proptest::collection::vec(arb_bytes(40), 1..6),
            flip in (any::<usize>(), 1u16..256),
        ) {
            let log = log_of(&bodies);
            // How many records end at or before byte `at`.
            let whole_before = |at: usize| (0..=bodies.len())
                .take_while(|&n| log_of(&bodies[..n]).len() <= at)
                .count() - 1;
            for cut in 0..=log.len() {
                check_scan(&log[..cut])?;
                // A cut loses exactly the records it reaches into.
                let found: Vec<Vec<u8>> =
                    scan_records(&log[..cut]).records.into_iter().map(|r| r.body).collect();
                prop_assert_eq!(&found[..], &bodies[..whole_before(cut)]);
            }
            let at = flip.0 % log.len();
            let mut mutated = log.clone();
            mutated[at] ^= flip.1 as u8;
            check_scan(&mutated)?;
            // Damage never reaches back past the record it hit.
            let found: Vec<Vec<u8>> =
                scan_records(&mutated).records.into_iter().map(|r| r.body).collect();
            let intact = whole_before(at);
            prop_assert!(found.len() >= intact);
            prop_assert_eq!(&found[..intact], &bodies[..intact]);
        }

        #[test]
        fn record_log_opens_any_file_as_its_whole_record_prefix(
            bodies in proptest::collection::vec(arb_bytes(40), 0..4),
            garbage in arb_bytes(64),
        ) {
            let tmp = TempDir::new("atomio-recordlog-prop");
            let path = tmp.path().join("x.log");
            let valid = log_of(&bodies);
            std::fs::write(&path, [valid.clone(), garbage].concat()).unwrap();
            let mut log = RecordLog::open(&path, FsyncPolicy::Deferred, whole_records).unwrap();
            // Garbage can, rarely, begin with whole records of its own.
            prop_assert!(log.len() >= valid.len() as u64);
            let kept = std::fs::read(&path).unwrap();
            prop_assert_eq!(kept.len() as u64, log.len());
            prop_assert!(!scan_records(&kept).truncated);
            log.append(&[&framed(9, b"next")]).unwrap();
            drop(log);
            let scan = scan_records(&std::fs::read(&path).unwrap());
            prop_assert!(!scan.truncated);
            prop_assert_eq!(scan.records.last().map(|r| r.kind), Some(9));
        }
    }
}
