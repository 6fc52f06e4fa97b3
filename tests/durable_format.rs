//! The on-disk format, pinned: the bytes below were written by the tree
//! that introduced format v2 — record bodies in the positional codec the
//! wire uses — by exactly the operations `write_*` perform. They must
//! open under this tree to the state those operations built, and the
//! same operations must write the same bytes on a fresh directory.
//! `FORMAT_VERSION` moves if and only if this file has to.
//!
//! The `*_V1` bytes are what the same operations wrote in format v1
//! (hand-packed big-endian bodies, written at ed000f2): each role refuses
//! them, typed, and leaves them as they were.
//!
//! Plus the torn-tail test the per-backend ones (one cut point each)
//! never were: the last record of each log cut at *every* byte offset.

use atomio::meta::{
    disk::meta_log_path, DiskNodeStore, LeafEntry, Node, NodeBody, NodeKey, NodeStore, TreeConfig,
    VersionHistory,
};
use atomio::provider::{ChunkStore, DiskProvider};
use atomio::simgrid::{CostModel, FaultInjector};
use atomio::types::record::FORMAT_VERSION;
use atomio::types::tempdir::TempDir;
use atomio::types::{
    BlobId, ByteRange, ChunkId, Error, ExtentList, FsyncPolicy, ProviderId, Result,
    RetentionPolicy, VersionId,
};
use atomio::version::{LeaseGrant, LogReplay, PublishLog, TicketMode, VersionManager};
use bytes::Bytes;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const PROVIDER_SUPERBLOCK: &str = concat!(
    "61696f720000000010b68753fc79797867000000020000000100000000000000",
    "03",
);
/// Two puts and a tombstone in a one-slot provider.
const PART: &str = concat!(
    "61696f7201000000183d12dad640cea86e07000000000000007375bca4c171d5",
    "62050000000000000068656c6c6f61696f720100000018839dfe3a5bf1ddda09",
    "0000000000000088a4b2902caebf8b080000000000000061746f6d696f212161",
    "696f7202000000086e298db0131c5d880700000000000000",
);
const META_SUPERBLOCK: &str = concat!(
    "61696f720000000010698db30fb025a4620000000200000001000000006d6574",
    "61",
);
/// A leaf, an inner node and an evict in a one-shard store.
const META_LOG: &str = concat!(
    "61696f72010000007a66c62ae22e710024020000000000000002000000000000",
    "0000000000000000004000000000000000010100000008000000000000001000",
    "0000000000000900000000000000040000000000000002000000030000000000",
    "0000010000000000000001020000000000000001000000000000000000000000",
    "000000400000000000000061696f72010000004316b4948899bd627702000000",
    "0000000002000000000000000000000000000000800000000000000000010200",
    "0000000000000200000000000000000000000000000040000000000000000061",
    "696f7202000000208e0381b18448f5a502000000000000000200000000000000",
    "00000000000000004000000000000000",
);
const VERSION_SUPERBLOCK: &str = concat!(
    "61696f72000000001000d587f05b4ed720000000020000000100000000766572",
    "73",
);
/// Two publishes, a retention change, a lease and its release.
const PUBLISH_LOG: &str = concat!(
    "61696f72010000005dbf17bba9391fd4eb010000000000000001020000000000",
    "0000010000000000000000000000000000000001000000000000880000000000",
    "0000000100000000000002000000000000000000000040000000000000008000",
    "000000000000080000000000000061696f72010000004dae77c8ca126cc12002",
    "0000000000000001020000000000000002000000000000000000000000000000",
    "0001000000000000ec0000000000000000010000000000000100000088000000",
    "00000000640000000000000061696f720200000009db9f76494e17cf55010300",
    "00000000000061696f720300000018524822ea960eb856010000000000000002",
    "00000000000000701700000000000061696f720400000008b3725f06175a9dd3",
    "0100000000000000",
);

// The same operations in format v1, as the tree at ed000f2 wrote them.
const PROVIDER_SUPERBLOCK_V1: &str = concat!(
    "61696f7200000000103d93203b8d495564000000010000000100000000000000",
    "03",
);
const PART_V1: &str = concat!(
    "61696f720100000018934de2398d12d68a000000000000000762d571c1a4bc75",
    "73000000000000000568656c6c6f61696f72010000001828d713ef2709461400",
    "000000000000098bbfae2c90b2a488000000000000000861746f6d696f212161",
    "696f72020000000814213bc8056756c80000000000000007",
);
const META_SUPERBLOCK_V1: &str = concat!(
    "61696f7200000000101711f2be8f7d4ebf0000000100000001000000006d6574",
    "61",
);
const META_LOG_V1: &str = concat!(
    "61696f72010000007a0fbd77dff16963a4000000000000000200000000000000",
    "0200000000000000000000000000000040010100000000000000020000000000",
    "0000010000000000000000000000000000004000000001000000000000000800",
    "0000000000001000000000000000090000000000000004000000020000000000",
    "000003000000000000000161696f72010000004305b175188c0515ad00000000",
    "0000000200000000000000020000000000000000000000000000008000010000",
    "0000000000020000000000000002000000000000000000000000000000400061",
    "696f7202000000207f2184010960ce5d00000000000000020000000000000002",
    "00000000000000000000000000000040",
);
const VERSION_SUPERBLOCK_V1: &str = concat!(
    "61696f72000000001082508c7faff77df9000000010000000100000000766572",
    "73",
);
const PUBLISH_LOG_V1: &str = concat!(
    "61696f72010000005d5fc6ab84b17de41d000000000000000101000000000000",
    "0002000000000000000100000000000000000000000000000100000000000000",
    "0088000000000000010000000002000000000000000000000000000000400000",
    "000000000080000000000000000861696f72010000004d0ffa557284ad18a600",
    "0000000000000201000000000000000200000000000000020000000000000000",
    "000000000000010000000000000000ec00000000000001000000000100000000",
    "00000088000000000000006461696f72020000000929cbcb2ccb269b38020000",
    "00000000000361696f7203000000185663baadd24b1802000000000000000100",
    "00000000000002000000000000177061696f7204000000088258b98713f8770b",
    "0000000000000001",
);

fn unhex(hex: &str) -> Vec<u8> {
    let digit = |c: u8| (c as char).to_digit(16).expect("hex digit") as u8;
    let pairs = hex.as_bytes().chunks_exact(2);
    pairs.map(|p| digit(p[0]) << 4 | digit(p[1])).collect()
}

fn part_path(dir: &Path) -> PathBuf {
    dir.join("slots").join("000").join("000.part")
}

fn try_open_provider(dir: &Path) -> Result<DiskProvider> {
    let faults = Arc::new(FaultInjector::default());
    let (id, cost) = (ProviderId::new(3), CostModel::zero());
    DiskProvider::open_with_slots(dir, id, cost, faults, FsyncPolicy::PerPublish, 1)
}

fn open_provider(dir: &Path) -> DiskProvider {
    try_open_provider(dir).expect("open provider")
}

fn write_provider(dir: &Path) {
    let prov = open_provider(dir);
    let put = |id, data: &'static [u8]| prov.put_chunk_at(0, ChunkId::new(id), Bytes::from(data));
    put(7, b"hello").unwrap();
    put(9, b"atomio!!").unwrap();
    assert_eq!(prov.evict_chunk(ChunkId::new(7)), 5);
}

fn check_provider(dir: &Path) {
    let prov = open_provider(dir);
    assert_eq!((prov.chunk_count(), prov.bytes_stored()), (1, 8));
    assert!(!prov.has_chunk(ChunkId::new(7)));
    assert_eq!(prov.max_chunk_id(), Some(ChunkId::new(9)));
    let whole = ByteRange::new(0, 8);
    let (data, _) = prov.get_chunk_range_at(0, ChunkId::new(9), whole).unwrap();
    assert_eq!(data.as_ref(), b"atomio!!");
    let scrubbed = atomio::simgrid::clock::run_actors(1, |_, p| prov.scrub(p)).0;
    assert_eq!((scrubbed[0].healthy, scrubbed[0].corrupted.len()), (1, 0));
}

fn key(v: u64, off: u64, len: u64) -> NodeKey {
    NodeKey::new(BlobId::new(2), VersionId::new(v), ByteRange::new(off, len))
}

fn leaf() -> Node {
    let entry = LeafEntry {
        file_range: ByteRange::new(8, 16),
        chunk: ChunkId::new(9),
        chunk_offset: 4,
        homes: vec![ProviderId::new(3), ProviderId::new(1)],
    };
    let body = NodeBody::Leaf {
        entries: vec![entry],
        backlink: Some(key(1, 0, 64)),
    };
    Node {
        key: key(2, 0, 64),
        body,
    }
}

fn inner() -> Node {
    let body = NodeBody::Inner {
        left: Some(key(2, 0, 64)),
        right: None,
    };
    Node {
        key: key(2, 0, 128),
        body,
    }
}

fn try_open_meta(dir: &Path) -> Result<DiskNodeStore> {
    DiskNodeStore::open(dir, 1, CostModel::zero(), FsyncPolicy::PerPublish)
}

fn open_meta(dir: &Path) -> DiskNodeStore {
    try_open_meta(dir).expect("open meta")
}

fn write_meta(dir: &Path) {
    let store = open_meta(dir);
    let outcomes = store.put_batch_local(vec![leaf(), inner()]);
    assert!(outcomes.iter().all(|o| o.is_ok()));
    store.evict(leaf().key);
}

fn check_meta(dir: &Path) {
    let store = open_meta(dir);
    assert_eq!(store.list_keys(), vec![inner().key]);
    let got = store.get_batch_local(&[inner().key]).pop().unwrap();
    assert_eq!(*got.unwrap(), inner());
}

fn open_version(dir: &Path) -> VersionManager {
    VersionManager::durable(
        dir,
        Arc::new(VersionHistory::new()),
        TreeConfig::new(64),
        CostModel::zero(),
        TicketMode::Pipelined,
        FsyncPolicy::PerPublish,
    )
    .expect("open version manager")
}

fn try_open_publish_log(dir: &Path) -> Result<(PublishLog, LogReplay)> {
    PublishLog::open(dir, FsyncPolicy::PerPublish)
}

fn open_publish_log(dir: &Path) -> (PublishLog, LogReplay) {
    try_open_publish_log(dir).expect("open publish log")
}

fn write_version(dir: &Path) {
    let vm = open_version(dir);
    let extents = ExtentList::from_pairs([(0, 64), (128, 8)]);
    let (t1, _, _) = vm.ticket_local(&extents, 0).unwrap();
    let (t2, _, _) = vm.ticket_append_local(100, 0).unwrap();
    vm.publish_local(t1, key(1, 0, t1.capacity)).unwrap();
    vm.publish_local(t2, key(2, 0, t2.capacity)).unwrap();
    vm.set_retention_local(RetentionPolicy::KeepLast(3))
        .unwrap();
    let grant = vm.lease_acquire_local(VersionId::new(2), 5_000, 1_000);
    vm.lease_release_local(grant.unwrap().lease, 2_000).unwrap();
}

fn check_version(dir: &Path) {
    let vm = open_version(dir);
    let latest = vm.latest_local();
    assert_eq!((latest.version.raw(), latest.size), (2, 236));
    assert_eq!(latest.root, Some(key(2, 0, latest.capacity)));
    let first = vm.snapshot_local(VersionId::new(1)).unwrap();
    assert_eq!((first.size, first.root), (136, Some(key(1, 0, 256))));
    assert_eq!(vm.history().len(), 2);
    assert_eq!(vm.retention(), RetentionPolicy::KeepLast(3));
    drop(vm);
    // The released lease is gone, and its id is not handed out again.
    let (_, replay) = open_publish_log(dir);
    assert_eq!((replay.leases.len(), replay.max_lease_id), (0, 1));
}

/// One backend's fixture: its two files as written at the parent commit
/// (and in format v1), the operations that wrote them, and the state
/// they must recover to.
struct Fixture {
    superblock: &'static str,
    log: &'static str,
    superblock_v1: &'static str,
    log_v1: &'static str,
    log_path: fn(&Path) -> PathBuf,
    write: fn(&Path),
    check: fn(&Path),
    /// Opens and drops the backend: recovery, nothing else.
    open: fn(&Path) -> Result<()>,
    /// Appends one more record through the backend's live path.
    append: fn(&Path),
}

const FIXTURES: [Fixture; 3] = [
    Fixture {
        superblock: PROVIDER_SUPERBLOCK,
        log: PART,
        superblock_v1: PROVIDER_SUPERBLOCK_V1,
        log_v1: PART_V1,
        log_path: part_path,
        write: write_provider,
        check: check_provider,
        open: |dir| try_open_provider(dir).map(drop),
        append: |dir| {
            let put = open_provider(dir).put_chunk_at(0, ChunkId::new(100), Bytes::from("next"));
            put.unwrap();
        },
    },
    Fixture {
        superblock: META_SUPERBLOCK,
        log: META_LOG,
        superblock_v1: META_SUPERBLOCK_V1,
        log_v1: META_LOG_V1,
        log_path: |dir| meta_log_path(dir, 0),
        write: write_meta,
        check: check_meta,
        open: |dir| try_open_meta(dir).map(drop),
        append: |dir| {
            let key = key(100, 0, 64);
            let outcome = open_meta(dir).put_batch_local(vec![Node { key, ..leaf() }]);
            assert!(outcome[0].is_ok());
        },
    },
    Fixture {
        superblock: VERSION_SUPERBLOCK,
        log: PUBLISH_LOG,
        superblock_v1: VERSION_SUPERBLOCK_V1,
        log_v1: PUBLISH_LOG_V1,
        log_path: |dir| dir.join("publish.log"),
        write: write_version,
        check: check_version,
        open: |dir| try_open_publish_log(dir).map(drop),
        append: |dir| {
            let grant = LeaseGrant {
                lease: 100,
                version: VersionId::new(1),
                expires_at_ms: 1,
            };
            open_publish_log(dir).0.append_lease(&grant).unwrap();
        },
    },
];

/// Lays `superblock` and `log` out under `dir` as `fixture`'s files.
fn plant_bytes(fixture: &Fixture, dir: &Path, superblock: &str, log: &str) {
    let path = (fixture.log_path)(dir);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(dir.join("superblock"), unhex(superblock)).unwrap();
    std::fs::write(path, unhex(log)).unwrap();
}

/// Lays the parent-written bytes out under `dir`.
fn plant(fixture: &Fixture, dir: &Path) {
    plant_bytes(fixture, dir, fixture.superblock, fixture.log);
}

/// Opens and drops `fixture`'s backend over `dir`.
fn reopen(fixture: &Fixture, dir: &Path) {
    (fixture.open)(dir).expect("reopen");
}

#[test]
fn bytes_written_at_the_parent_commit_open_to_the_state_they_recorded() {
    assert_eq!(FORMAT_VERSION, 2);
    for fixture in &FIXTURES {
        let tmp = TempDir::new("atomio-format");
        plant(fixture, tmp.path());
        (fixture.check)(tmp.path());
        // Opening changed nothing on disk.
        let log = std::fs::read((fixture.log_path)(tmp.path())).unwrap();
        assert_eq!(log, unhex(fixture.log));
    }
}

#[test]
fn format_v1_directories_are_refused_typed_and_left_as_they_were() {
    for fixture in &FIXTURES {
        // v2 moved no record boundary: only the byte order inside bodies
        // changed (and a `KeepAll` retention record would shrink, but the
        // fixture logs `KeepLast`).
        assert_eq!(
            unhex(fixture.superblock_v1).len(),
            unhex(fixture.superblock).len()
        );
        assert_eq!(unhex(fixture.log_v1).len(), unhex(fixture.log).len());
        let tmp = TempDir::new("atomio-format");
        plant_bytes(fixture, tmp.path(), fixture.superblock_v1, fixture.log_v1);
        match (fixture.open)(tmp.path()) {
            Err(Error::Internal(msg)) => assert!(
                msg.ends_with("on-disk format v1, this build speaks v2"),
                "{msg}"
            ),
            other => panic!("a v1 directory opened: {other:?}"),
        }
        let superblock = std::fs::read(tmp.path().join("superblock")).unwrap();
        assert_eq!(superblock, unhex(fixture.superblock_v1));
        let log = std::fs::read((fixture.log_path)(tmp.path())).unwrap();
        assert_eq!(log, unhex(fixture.log_v1));
    }
}

#[test]
fn the_same_operations_write_the_same_bytes() {
    for fixture in &FIXTURES {
        let tmp = TempDir::new("atomio-format");
        (fixture.write)(tmp.path());
        let superblock = std::fs::read(tmp.path().join("superblock")).unwrap();
        assert_eq!(superblock, unhex(fixture.superblock));
        let log = std::fs::read((fixture.log_path)(tmp.path())).unwrap();
        assert_eq!(log, unhex(fixture.log));
        (fixture.check)(tmp.path());
    }
}

/// Byte offsets at which the records of a fixture log end, found by
/// reopening ever longer prefixes: a prefix is whole exactly when an
/// open leaves it untruncated. (The logs are tens of bytes long.)
fn record_ends(fixture: &Fixture) -> Vec<usize> {
    let bytes = unhex(fixture.log);
    let mut ends = vec![0];
    for cut in 1..=bytes.len() {
        let tmp = TempDir::new("atomio-format");
        plant(fixture, tmp.path());
        let log = (fixture.log_path)(tmp.path());
        std::fs::write(&log, &bytes[..cut]).unwrap();
        reopen(fixture, tmp.path());
        if std::fs::metadata(&log).unwrap().len() == cut as u64 {
            ends.push(cut);
        }
    }
    ends
}

#[test]
fn a_last_record_cut_at_every_offset_recovers_exactly_the_whole_prefix() {
    for fixture in &FIXTURES {
        let bytes = unhex(fixture.log);
        let ends = record_ends(fixture);
        assert_eq!(
            *ends.last().unwrap(),
            bytes.len(),
            "the fixture log is whole"
        );
        assert!(ends.len() >= 4, "three records or more: {ends:?}");
        let last = ends[ends.len() - 2];
        for cut in last..bytes.len() {
            let tmp = TempDir::new("atomio-format");
            plant(fixture, tmp.path());
            let log = (fixture.log_path)(tmp.path());
            std::fs::write(&log, &bytes[..cut]).unwrap();
            // Torn anywhere inside the last record: exactly the records
            // before it survive, byte for byte.
            reopen(fixture, tmp.path());
            assert_eq!(std::fs::read(&log).unwrap(), &bytes[..last], "cut at {cut}");
            // The log is appendable again, and what is appended stays.
            (fixture.append)(tmp.path());
            let grown = std::fs::read(&log).unwrap();
            assert!(grown.len() > last && grown[..last] == bytes[..last]);
            reopen(fixture, tmp.path());
            assert_eq!(std::fs::read(&log).unwrap(), grown, "cut at {cut}");
        }
    }
}
