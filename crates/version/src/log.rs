//! The durable publish log: what makes "published" mean *durable*.
//!
//! Chunks and tree nodes are immutable — the disk backends below this
//! layer never rewrite them — so the entire crash-atomicity question
//! collapses to a single bit per version: **is its publish record on
//! stable storage?** The version manager appends one framed record per
//! snapshot the moment it enters the dense published prefix, fsyncing
//! per the deployment's [`FsyncPolicy`]. After a crash, recovery replays
//! the log: every record on disk is a readable snapshot, every version
//! past the last record — including granted-but-unpublished tickets —
//! never happened, and its number is simply re-issued.
//!
//! Each record carries everything a fresh manager needs to resume:
//! version, tree root, blob size, tree capacity, and the write's extent
//! list (rebuilding the [`VersionHistory`](atomio_meta::VersionHistory)
//! that later writers link their shadow trees against). The file itself
//! — create, recovery, append, fsync, flush — is a [`RecordLog`].

use crate::lease::LeaseGrant;
use atomio_meta::disk::{decode_opt_key, push_opt_key};
use atomio_meta::NodeKey;
pub use atomio_types::record::LogStats;
use atomio_types::record::{
    encode_record, load_or_init_superblock, scan_records, ByteReader, RecordLog,
};
use atomio_types::{Error, ExtentList, FsyncPolicy, Result, RetentionPolicy, VersionId};
use parking_lot::Mutex;
use serde::{Decode, Deserialize, Encode, Serialize};
use std::path::PathBuf;

/// Log record: one published snapshot.
const REC_PUBLISH: u8 = 1;

/// Log record: the blob's retention policy changed (last one wins).
const REC_RETENTION: u8 = 2;

/// Log record: a snapshot lease was granted or renewed (last grant per
/// lease id wins — a renewal is re-logged with the extended expiry).
const REC_LEASE: u8 = 3;

/// Log record: a lease was released before its TTL lapsed.
const REC_LEASE_RELEASE: u8 = 4;

/// Superblock tag marking a directory as a publish log ("vers").
const VERSION_TAG: u64 = 0x7665_7273;

/// One published version, whole: its snapshot plus the extents of its
/// history row — everything a manager needs to resume serving it. *The*
/// record of a published version: the publish log stores it (in the
/// binary form below) and a slot handoff carries it on the wire (through
/// the derived positional codec, so the field order is wire format).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Encode, Decode)]
pub struct PublishRecord {
    /// The snapshot's version.
    pub version: VersionId,
    /// Root of its tree (`None` when the snapshot has no tree — never
    /// produced by current writers, but the encoding is total).
    pub root: Option<NodeKey>,
    /// Blob size at this version.
    pub size: u64,
    /// Tree capacity of this version.
    pub capacity: u64,
    /// The write's extents (rebuilds the write-summary history).
    pub extents: ExtentList,
}

fn encode_publish(rec: &PublishRecord) -> Vec<u8> {
    let ranges = rec.extents.ranges();
    let mut body = Vec::with_capacity(8 + 33 + 8 + 8 + 4 + 16 * ranges.len());
    body.extend_from_slice(&rec.version.raw().to_be_bytes());
    push_opt_key(&mut body, rec.root);
    body.extend_from_slice(&rec.size.to_be_bytes());
    body.extend_from_slice(&rec.capacity.to_be_bytes());
    body.extend_from_slice(&(ranges.len() as u32).to_be_bytes());
    for r in ranges {
        body.extend_from_slice(&r.offset.to_be_bytes());
        body.extend_from_slice(&r.len.to_be_bytes());
    }
    body
}

fn decode_publish(body: &[u8]) -> Option<PublishRecord> {
    let mut r = ByteReader::new(body);
    let version = VersionId::new(r.u64()?);
    let root = decode_opt_key(&mut r)?;
    let size = r.u64()?;
    let capacity = r.u64()?;
    let count = r.count(16)?;
    let mut ranges = Vec::with_capacity(count);
    for _ in 0..count {
        ranges.push(r.range()?);
    }
    if !r.done() {
        return None;
    }
    Some(PublishRecord {
        version,
        root,
        size,
        capacity,
        extents: ExtentList::from_ranges(ranges),
    })
}

fn encode_retention(policy: RetentionPolicy) -> Vec<u8> {
    let (tag, value): (u8, u64) = match policy {
        RetentionPolicy::KeepAll => (1, 0),
        RetentionPolicy::KeepLast(n) => (2, n),
        RetentionPolicy::KeepAbove(v) => (3, v.raw()),
    };
    let mut body = Vec::with_capacity(9);
    body.push(tag);
    body.extend_from_slice(&value.to_be_bytes());
    body
}

fn decode_retention(body: &[u8]) -> Option<RetentionPolicy> {
    let mut r = ByteReader::new(body);
    let tag = r.u8()?;
    let value = r.u64()?;
    if !r.done() {
        return None;
    }
    match tag {
        1 => Some(RetentionPolicy::KeepAll),
        2 if value > 0 => Some(RetentionPolicy::KeepLast(value)),
        3 => Some(RetentionPolicy::KeepAbove(VersionId::new(value))),
        _ => None,
    }
}

fn encode_lease(grant: &LeaseGrant) -> Vec<u8> {
    let mut body = Vec::with_capacity(24);
    body.extend_from_slice(&grant.lease.to_be_bytes());
    body.extend_from_slice(&grant.version.raw().to_be_bytes());
    body.extend_from_slice(&grant.expires_at_ms.to_be_bytes());
    body
}

fn decode_lease(body: &[u8]) -> Option<LeaseGrant> {
    let mut r = ByteReader::new(body);
    let grant = LeaseGrant {
        lease: r.u64()?,
        version: VersionId::new(r.u64()?),
        expires_at_ms: r.u64()?,
    };
    if !r.done() {
        return None;
    }
    Some(grant)
}

/// Everything a recovering version manager reads back out of the log:
/// the dense published prefix plus the reclamation state riding in it.
#[derive(Debug, Default)]
pub struct LogReplay {
    /// Published snapshots, in log order (= version order, in a log a
    /// manager wrote; a recovering manager refuses any other).
    pub publishes: Vec<PublishRecord>,
    /// The blob's retention policy, if one was ever logged.
    pub retention: Option<RetentionPolicy>,
    /// Leases granted and never released as of the crash, in id order.
    /// Expiry is *not* applied here — the recovering manager restores
    /// them and lets its own clock lapse any that are stale.
    pub leases: Vec<LeaseGrant>,
    /// The largest lease id ever logged (released or not), so the
    /// allocator never reissues an id.
    pub max_lease_id: u64,
}

/// Replays the log's bytes, returning what they hold and the length of
/// their whole-record prefix. Fails only on a whole, checksum-valid
/// record it cannot read; whether the publish records form a history
/// (dense versions, capacity that never shrinks) is checked where they
/// are installed into a manager.
fn replay_log(bytes: &[u8]) -> Result<(LogReplay, u64)> {
    let scan = scan_records(bytes);
    let mut replay = LogReplay::default();
    let malformed = || Error::Internal("publish log: malformed record".into());
    let mut live: std::collections::BTreeMap<u64, LeaseGrant> = Default::default();
    for rec in &scan.records {
        match rec.kind {
            REC_PUBLISH => {
                replay
                    .publishes
                    .push(decode_publish(&rec.body).ok_or_else(malformed)?);
            }
            REC_RETENTION => {
                replay.retention = Some(decode_retention(&rec.body).ok_or_else(malformed)?);
            }
            REC_LEASE => {
                let grant = decode_lease(&rec.body).ok_or_else(malformed)?;
                replay.max_lease_id = replay.max_lease_id.max(grant.lease);
                live.insert(grant.lease, grant);
            }
            REC_LEASE_RELEASE => {
                let mut r = ByteReader::new(&rec.body);
                let lease = r.u64().filter(|_| r.done()).ok_or_else(malformed)?;
                replay.max_lease_id = replay.max_lease_id.max(lease);
                live.remove(&lease);
            }
            other => {
                return Err(Error::Internal(format!(
                    "publish log: unknown record kind {other}"
                )));
            }
        }
    }
    replay.leases = live.into_values().collect();
    Ok((replay, scan.valid_len))
}

/// An append-only log of publish records with policy-driven fsync.
#[derive(Debug)]
pub struct PublishLog {
    log: Mutex<RecordLog>,
}

impl PublishLog {
    /// Opens (creating or recovering) the publish log under `dir`,
    /// returning the log plus the replayed state: every whole publish
    /// record in publish order, the last retention policy logged, and
    /// the leases still outstanding. A torn tail record is truncated
    /// away: the operation it described was never acknowledged as
    /// durable.
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure, a foreign or corrupt
    /// superblock, or a malformed (non-torn) record.
    pub fn open(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<(Self, LogReplay)> {
        let dir = dir.into();
        load_or_init_superblock(&dir.join("superblock"), 1, VERSION_TAG, "publish log")?;
        let mut replay = LogReplay::default();
        let log = RecordLog::open(dir.join("publish.log"), policy, |bytes| {
            let (state, valid_len) = replay_log(bytes)?;
            replay = state;
            Ok(valid_len)
        })?;
        Ok((
            PublishLog {
                log: Mutex::new(log),
            },
            replay,
        ))
    }

    /// Appends one publish record, fsyncing per the log's policy.
    pub fn append(&self, rec: &PublishRecord) -> Result<()> {
        self.append_framed(REC_PUBLISH, &encode_publish(rec))
    }

    /// Logs a retention-policy change (last one wins on replay).
    pub fn append_retention(&self, policy: RetentionPolicy) -> Result<()> {
        self.append_framed(REC_RETENTION, &encode_retention(policy))
    }

    /// Logs a lease grant or renewal (the latest record per id wins).
    pub fn append_lease(&self, grant: &LeaseGrant) -> Result<()> {
        self.append_framed(REC_LEASE, &encode_lease(grant))
    }

    /// Logs an explicit lease release.
    pub fn append_lease_release(&self, lease: u64) -> Result<()> {
        self.append_framed(REC_LEASE_RELEASE, &lease.to_be_bytes())
    }

    fn append_framed(&self, kind: u8, body: &[u8]) -> Result<()> {
        let framed = encode_record(kind, body);
        self.log.lock().append(&framed).map(|_| ())
    }

    /// Forces outstanding appends to stable storage (graceful shutdown
    /// under `Group`/`Deferred` policies).
    pub fn flush(&self) -> Result<()> {
        self.log.lock().flush()
    }

    /// Append/sync counters since open.
    pub fn stats(&self) -> LogStats {
        self.log.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TicketMode, VersionManager};
    use atomio_meta::{TreeConfig, VersionHistory};
    use atomio_simgrid::CostModel;
    use atomio_types::record::append_record;
    use atomio_types::tempdir::TempDir;
    use atomio_types::{BlobId, ByteRange};
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::sync::Arc;

    /// A manager recovered from the publish log under `dir`.
    fn recover(dir: &std::path::Path) -> Result<VersionManager> {
        VersionManager::durable(
            dir,
            Arc::new(VersionHistory::new()),
            TreeConfig::new(64),
            CostModel::zero(),
            TicketMode::Pipelined,
            FsyncPolicy::Deferred,
        )
    }

    fn rec(v: u64) -> PublishRecord {
        PublishRecord {
            version: VersionId::new(v),
            root: Some(NodeKey::new(
                BlobId::new(0),
                VersionId::new(v),
                ByteRange::new(0, 1024),
            )),
            size: v * 100,
            capacity: 1024,
            extents: ExtentList::from_pairs([(0, 64), (128, v * 8)]),
        }
    }

    #[test]
    fn publish_records_roundtrip() {
        for v in 1..=3 {
            assert_eq!(decode_publish(&encode_publish(&rec(v))), Some(rec(v)));
        }
        let rootless = PublishRecord {
            root: None,
            ..rec(1)
        };
        assert_eq!(
            decode_publish(&encode_publish(&rootless)),
            Some(rootless.clone())
        );
        let mut garbage = encode_publish(&rec(1));
        garbage.push(0);
        assert_eq!(decode_publish(&garbage), None);
    }

    #[test]
    fn log_replays_in_order_after_hard_drop() {
        let tmp = TempDir::new("atomio-publog");
        {
            let (log, replay) = PublishLog::open(tmp.path(), FsyncPolicy::PerPublish).unwrap();
            assert!(replay.publishes.is_empty());
            for v in 1..=5 {
                log.append(&rec(v)).unwrap();
            }
            assert_eq!(log.stats().appends, 5);
            assert_eq!(log.stats().syncs, 5);
        }
        let (_, replay) = PublishLog::open(tmp.path(), FsyncPolicy::PerPublish).unwrap();
        assert_eq!(replay.publishes.len(), 5);
        assert_eq!(replay.publishes[2], rec(3));
    }

    #[test]
    fn torn_tail_rolls_back_the_unacknowledged_publish() {
        let tmp = TempDir::new("atomio-publog");
        {
            let (log, _) = PublishLog::open(tmp.path(), FsyncPolicy::PerPublish).unwrap();
            log.append(&rec(1)).unwrap();
            log.append(&rec(2)).unwrap();
        }
        // Crash mid-append of v3: half a record at the tail.
        let mut framed = Vec::new();
        append_record(&mut framed, REC_PUBLISH, &encode_publish(&rec(3)));
        framed.truncate(framed.len() - 7);
        let mut f = OpenOptions::new()
            .append(true)
            .open(tmp.path().join("publish.log"))
            .unwrap();
        f.write_all(&framed).unwrap();
        drop(f);

        let (log, replay) = PublishLog::open(tmp.path(), FsyncPolicy::PerPublish).unwrap();
        assert_eq!(replay.publishes.len(), 2);
        // v3's number is free again: a re-publish appends cleanly.
        log.append(&rec(3)).unwrap();
        drop(log);
        let (_, replay) = PublishLog::open(tmp.path(), FsyncPolicy::PerPublish).unwrap();
        assert_eq!(replay.publishes.len(), 3);
    }

    #[test]
    fn retention_and_lease_records_replay_interleaved_with_publishes() {
        let tmp = TempDir::new("atomio-publog");
        {
            let (log, _) = PublishLog::open(tmp.path(), FsyncPolicy::PerPublish).unwrap();
            log.append(&rec(1)).unwrap();
            log.append_retention(RetentionPolicy::KeepLast(4)).unwrap();
            log.append_lease(&LeaseGrant {
                lease: 1,
                version: VersionId::new(1),
                expires_at_ms: 5_000,
            })
            .unwrap();
            log.append(&rec(2)).unwrap();
            log.append_lease(&LeaseGrant {
                lease: 2,
                version: VersionId::new(2),
                expires_at_ms: 6_000,
            })
            .unwrap();
            // Renewal re-logs lease 1 with a later expiry; lease 2 is
            // released cleanly.
            log.append_lease(&LeaseGrant {
                lease: 1,
                version: VersionId::new(1),
                expires_at_ms: 9_000,
            })
            .unwrap();
            log.append_lease_release(2).unwrap();
            log.append_retention(RetentionPolicy::KeepLast(2)).unwrap();
        }
        let (_, replay) = PublishLog::open(tmp.path(), FsyncPolicy::PerPublish).unwrap();
        assert_eq!(replay.publishes.len(), 2, "dense publish prefix intact");
        assert_eq!(replay.retention, Some(RetentionPolicy::KeepLast(2)));
        assert_eq!(
            replay.leases,
            vec![LeaseGrant {
                lease: 1,
                version: VersionId::new(1),
                expires_at_ms: 9_000,
            }],
            "renewal superseded the first grant; release dropped lease 2"
        );
        assert_eq!(replay.max_lease_id, 2);
    }

    #[test]
    fn group_policy_batches_syncs() {
        let tmp = TempDir::new("atomio-publog");
        let (log, _) = PublishLog::open(tmp.path(), FsyncPolicy::Group(4)).unwrap();
        for v in 1..=10 {
            log.append(&rec(v)).unwrap();
        }
        let stats = log.stats();
        assert_eq!(stats.appends, 10);
        assert_eq!(stats.syncs, 2, "4 + 4 synced, 2 pending");
        assert_eq!(stats.unsynced_peak, 4);
        log.flush().unwrap();
        assert_eq!(log.stats().syncs, 3);
        log.flush().unwrap(); // idempotent when clean
        assert_eq!(log.stats().syncs, 3);
    }

    #[test]
    fn deferred_policy_never_syncs_on_append() {
        let tmp = TempDir::new("atomio-publog");
        let (log, _) = PublishLog::open(tmp.path(), FsyncPolicy::Deferred).unwrap();
        for v in 1..=10 {
            log.append(&rec(v)).unwrap();
        }
        let stats = log.stats();
        assert_eq!(stats.syncs, 0);
        assert_eq!(stats.unsynced_peak, 10);
    }

    #[test]
    fn out_of_order_log_rejected() {
        let tmp = TempDir::new("atomio-publog");
        {
            let (log, _) = PublishLog::open(tmp.path(), FsyncPolicy::PerPublish).unwrap();
            log.append(&rec(2)).unwrap(); // corrupt writer: skips v1
        }
        // Whole records, so the log opens; no manager recovers from it.
        assert!(matches!(recover(tmp.path()), Err(Error::Internal(_))));
    }

    mod replay_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(any::<u8>(), 0..max)
        }

        fn edgy_u64() -> impl Strategy<Value = u64> {
            (any::<u64>(), 0u64..4).prop_map(|(x, k)| match x % 4 {
                0 => k,
                1 => u64::MAX - k,
                2 => u32::MAX as u64 - k,
                _ => x,
            })
        }

        /// A typed error, or a whole-record prefix that replays to the
        /// same state again — and that a manager either recovers from or
        /// refuses typed (records that decode but are no history: a gap
        /// in the versions, a capacity that shrinks).
        fn check(bytes: &[u8]) -> std::result::Result<(), TestCaseError> {
            let Ok((replay, valid)) = replay_log(bytes) else {
                return Ok(());
            };
            prop_assert!(valid as usize <= bytes.len());
            let (again, valid_again) = replay_log(&bytes[..valid as usize]).unwrap();
            prop_assert_eq!(valid_again, valid);
            prop_assert_eq!(&again.publishes, &replay.publishes);
            prop_assert_eq!(
                (again.retention, &again.leases),
                (replay.retention, &replay.leases)
            );

            let tmp = TempDir::new("atomio-publog-prop");
            drop(PublishLog::open(tmp.path(), FsyncPolicy::Deferred).unwrap());
            std::fs::write(tmp.path().join("publish.log"), bytes).unwrap();
            match recover(tmp.path()) {
                Ok(vm) => prop_assert_eq!(
                    vm.latest_local().version.raw(),
                    replay.publishes.len() as u64
                ),
                Err(e) => prop_assert!(matches!(e, Error::Internal(_)), "got {e:?}"),
            }
            Ok(())
        }

        /// A PUBLISH body of version `version` whose key, sizes, extent
        /// count and extents are whatever `fields` say.
        fn publish_like(version: u64, fields: &[u64]) -> Vec<u8> {
            let mut body = version.to_be_bytes().to_vec();
            body.push(1);
            for field in &fields[..6] {
                body.extend_from_slice(&field.to_be_bytes());
            }
            body.extend_from_slice(&(fields[6] as u32).to_be_bytes());
            for field in &fields[7..] {
                body.extend_from_slice(&field.to_be_bytes());
            }
            body
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_replay_without_panicking(bytes in arb_bytes(256)) {
                check(&bytes)?;
            }

            #[test]
            fn checksum_valid_garbage_reaches_the_body_decoders(
                publishes in proptest::collection::vec(
                    (any::<bool>(), proptest::collection::vec(edgy_u64(), 7..12)), 1..4),
                records in proptest::collection::vec((0u8..6, arb_bytes(40)), 0..4),
                lease in (edgy_u64(), edgy_u64(), edgy_u64()),
            ) {
                let mut log = Vec::new();
                for (i, (well_formed, fields)) in publishes.iter().enumerate() {
                    // Either a record that decodes, with sizes the live
                    // path would never log, or one that may not decode.
                    let body = if *well_formed {
                        let (size, capacity) = (fields[4], fields[5]);
                        encode_publish(&PublishRecord { size, capacity, ..rec(i as u64 + 1) })
                    } else {
                        publish_like(i as u64 + 1, fields)
                    };
                    append_record(&mut log, REC_PUBLISH, &body);
                    check(&log)?;
                }
                let grant = LeaseGrant {
                    lease: lease.0,
                    version: VersionId::new(lease.1),
                    expires_at_ms: lease.2,
                };
                append_record(&mut log, REC_LEASE, &encode_lease(&grant));
                check(&log)?;
                for (kind, body) in &records {
                    append_record(&mut log, *kind, body);
                }
                check(&log)?;
            }

            #[test]
            fn cut_or_mutated_publish_logs_replay_to_a_whole_prefix(
                ops in proptest::collection::vec(0u8..4, 1..8),
                flip in (any::<usize>(), 1u16..256),
            ) {
                let (mut log, mut version) = (Vec::new(), 0);
                for (i, op) in ops.into_iter().enumerate() {
                    let grant = LeaseGrant {
                        lease: i as u64 % 3,
                        version: VersionId::new(version),
                        expires_at_ms: 1_000 * i as u64,
                    };
                    match op {
                        0 => {
                            version += 1;
                            append_record(&mut log, REC_PUBLISH, &encode_publish(&rec(version)))
                        }
                        1 => append_record(
                            &mut log,
                            REC_RETENTION,
                            &encode_retention(RetentionPolicy::KeepLast(i as u64 + 1)),
                        ),
                        2 => append_record(&mut log, REC_LEASE, &encode_lease(&grant)),
                        _ => append_record(&mut log, REC_LEASE_RELEASE, &grant.lease.to_be_bytes()),
                    }
                }
                let whole = replay_log(&log).map(|(_, valid)| valid);
                prop_assert_eq!(whole, Ok(log.len() as u64));
                for cut in 0..log.len() {
                    let torn = replay_log(&log[..cut]).map(|(_, valid)| valid);
                    prop_assert!(torn.is_ok_and(|valid| valid as usize <= cut));
                }
                let at = flip.0 % log.len();
                log[at] ^= flip.1 as u8;
                check(&log)?;
            }
        }
    }
}
