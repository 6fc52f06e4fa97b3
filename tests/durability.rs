//! Crash durability of the disk backend, end to end through the store:
//! a deployment whose `StoreConfig` selects [`BackendConfig::Disk`]
//! must bring every **published** version back bit for bit after a hard
//! drop — no flush, no shutdown hook — while granted-but-unpublished
//! tickets and torn log tails roll back cleanly.
//!
//! The Memory backend is the reference: the same writes through a
//! default (in-memory Loopback) store must produce identical bytes,
//! version chains, and metadata node sets, because the disk backend is
//! a substrate swap behind `BackendConfig`, not a semantics change.

use atomio::core::{ReadVersion, Store, StoreConfig};
use atomio::meta::NodeKey;
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::tempdir::TempDir;
use atomio::types::{BackendConfig, ByteRange, Error, ExtentList, VersionId};
use bytes::Bytes;
use std::path::{Path, PathBuf};

const CHUNK: u64 = 4096;

fn config_on(backend: BackendConfig) -> StoreConfig {
    StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(CHUNK)
        .with_data_providers(4)
        .with_meta_shards(2)
        .with_backend(backend)
        .with_seed(0xD0_0D)
}

fn sorted_keys(mut keys: Vec<NodeKey>) -> Vec<NodeKey> {
    keys.sort_by_key(|k| (k.blob, k.version, k.range.offset, k.range.len));
    keys
}

/// Three committed versions: v1 spans three chunks, v2 overwrites the
/// middle, v3 writes a non-contiguous extent list across all three.
fn apply_writes(store: &Store, clock: &SimClock) -> atomio::core::Blob {
    let blob = store.create_blob();
    let blob_ref = &blob;
    run_actors_on(clock, 1, move |_, p| {
        blob_ref
            .write(p, 0, Bytes::from(vec![0xA1; 3 * CHUNK as usize]))
            .unwrap();
        blob_ref
            .write(p, CHUNK, Bytes::from(vec![0xB2; CHUNK as usize]))
            .unwrap();
        let ext = ExtentList::from_pairs([(512, 1024), (2 * CHUNK + 100, 300)]);
        blob_ref
            .write_list(p, &ext, Bytes::from(vec![0xC3; 1324]))
            .unwrap();
    });
    blob
}

fn read_all(blob: &atomio::core::Blob, clock: &SimClock, at: ReadVersion) -> Vec<u8> {
    let blob_ref = &blob;
    run_actors_on(clock, 1, move |_, p| {
        let ext = ExtentList::single(ByteRange::new(0, 3 * CHUNK));
        blob_ref.read_list(p, at, &ext).unwrap()
    })
    .pop()
    .unwrap()
}

#[test]
fn published_state_survives_hard_drop_and_reopen_bit_identical() {
    let tmp = TempDir::new("atomio-durability");
    let clock = SimClock::new();

    // Reference run on the default in-memory backend.
    let mem_store = Store::new(config_on(BackendConfig::Memory));
    let mem_blob = apply_writes(&mem_store, &clock);
    let mem_state = read_all(&mem_blob, &clock, ReadVersion::Latest);
    let mem_keys = sorted_keys(mem_store.meta().list_keys());

    // Same writes on disk: equivalence while the first deployment runs.
    let disk_store = Store::new(config_on(BackendConfig::disk(tmp.path())));
    let disk_blob = apply_writes(&disk_store, &clock);
    let pre_drop = read_all(&disk_blob, &clock, ReadVersion::Latest);
    let pre_v2 = read_all(&disk_blob, &clock, ReadVersion::At(VersionId::new(2)));
    let pre_keys = sorted_keys(disk_store.meta().list_keys());
    assert_eq!(pre_drop, mem_state, "disk backend changes no bytes");
    assert_eq!(pre_keys, mem_keys, "disk backend changes no metadata");

    // Hard drop: no flush, no shutdown hook. The default per-publish
    // fsync policy means everything published is already durable.
    drop(disk_blob);
    drop(disk_store);

    // A fresh deployment over the same directory recovers everything.
    // Blob ids are allocated deterministically in creation order, so
    // re-creating the blob re-binds the recovered state.
    let reopened = Store::new(config_on(BackendConfig::disk(tmp.path())));
    let blob = reopened.create_blob();
    let blob_ref = &blob;
    run_actors_on(&clock, 1, move |_, p| {
        assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(3));
    });
    assert_eq!(
        read_all(&blob, &clock, ReadVersion::Latest),
        pre_drop,
        "latest reads back bit-identical after crash recovery"
    );
    assert_eq!(
        read_all(&blob, &clock, ReadVersion::At(VersionId::new(2))),
        pre_v2,
        "historic snapshots survive too"
    );
    assert_eq!(
        sorted_keys(reopened.meta().list_keys()),
        pre_keys,
        "every metadata tree node recovered from the shard logs"
    );

    // The pipeline keeps serving: the next commit is v4 and does not
    // disturb recovered state (chunk ids resume past everything on
    // disk, so nothing gets overwritten).
    run_actors_on(&clock, 1, move |_, p| {
        blob_ref
            .write(p, 0, Bytes::from(vec![0xD4; CHUNK as usize]))
            .unwrap();
        assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(4));
    });
    assert_eq!(
        read_all(&blob, &clock, ReadVersion::At(VersionId::new(3))),
        pre_drop,
        "the old tip is untouched by the post-recovery write"
    );
}

#[test]
fn granted_but_unpublished_ticket_rolls_back_on_reopen() {
    let tmp = TempDir::new("atomio-durability-grant");
    let clock = SimClock::new();

    let store = Store::new(config_on(BackendConfig::disk(tmp.path())));
    let blob = apply_writes(&store, &clock);
    let tip = read_all(&blob, &clock, ReadVersion::Latest);

    // Grab a ticket for v4 and crash before publishing. Nothing hits
    // the publish log until publication, so the grant must vanish.
    let blob_ref = &blob;
    run_actors_on(&clock, 1, move |_, p| {
        let (t, _) = blob_ref.version_manager().ticket_append(p, CHUNK).unwrap();
        assert_eq!(t.version, VersionId::new(4));
    });
    drop(blob);
    drop(store);

    let reopened = Store::new(config_on(BackendConfig::disk(tmp.path())));
    let blob = reopened.create_blob();
    let blob_ref = &blob;
    run_actors_on(&clock, 1, move |_, p| {
        assert_eq!(
            blob_ref.latest(p).unwrap().version,
            VersionId::new(3),
            "latest never advances into the torn grant"
        );
        assert!(matches!(
            blob_ref
                .read_list(
                    p,
                    ReadVersion::At(VersionId::new(4)),
                    &ExtentList::single(ByteRange::new(0, CHUNK)),
                )
                .unwrap_err(),
            Error::VersionNotFound { .. }
        ));
    });
    assert_eq!(read_all(&blob, &clock, ReadVersion::Latest), tip);

    // The rolled-back number is reissued: the next commit lands as v4.
    run_actors_on(&clock, 1, move |_, p| {
        blob_ref
            .write(p, 0, Bytes::from(vec![0xE5; CHUNK as usize]))
            .unwrap();
        assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(4));
    });
}

#[test]
fn torn_publish_log_tail_rolls_back_to_the_last_complete_version() {
    let tmp = TempDir::new("atomio-durability-torn");
    let clock = SimClock::new();

    let store = Store::new(config_on(BackendConfig::disk(tmp.path())));
    let blob = apply_writes(&store, &clock);
    let v2_state = read_all(&blob, &clock, ReadVersion::At(VersionId::new(2)));
    drop(blob);
    drop(store);

    // Tear the publish log's tail: chop one byte off v3's record, as a
    // crash mid-append would. Recovery must truncate the torn record
    // and resume from the last complete one.
    let log = tmp
        .path()
        .join("version")
        .join("blob-0")
        .join("publish.log");
    tear_one_byte(&log);

    let reopened = Store::new(config_on(BackendConfig::disk(tmp.path())));
    let blob = reopened.create_blob();
    let blob_ref = &blob;
    run_actors_on(&clock, 1, move |_, p| {
        assert_eq!(
            blob_ref.latest(p).unwrap().version,
            VersionId::new(2),
            "the torn v3 record rolls back; the complete prefix survives"
        );
    });
    assert_eq!(
        read_all(&blob, &clock, ReadVersion::Latest),
        v2_state,
        "the store serves exactly the pre-tear v2 bytes"
    );
}

#[test]
fn torn_batch_appends_lose_only_the_unacknowledged_write() {
    let tmp = TempDir::new("atomio-durability-batch");
    let clock = SimClock::new();

    let store = Store::new(config_on(BackendConfig::disk(tmp.path())));
    let blob = apply_writes(&store, &clock);
    let v3_state = read_all(&blob, &clock, ReadVersion::Latest);
    let accounting = |store: &Store| -> Vec<(usize, u64)> {
        let fleet = store.providers().providers();
        fleet
            .iter()
            .map(|s| (s.chunk_count(), s.bytes_stored()))
            .collect()
    };
    let chunks = |accounting: &[(usize, u64)]| accounting.iter().map(|a| a.0).sum::<usize>();
    let acknowledged = chunks(&accounting(&store));
    let parts = part_files(tmp.path());
    let len_of = |path: &PathBuf| std::fs::metadata(path).expect("part file").len();
    let before: Vec<u64> = parts.iter().map(len_of).collect();

    // v4 is one 24-chunk write: each provider takes its share as one
    // batch and appends it with one write to its part file.
    let blob_ref = &blob;
    run_actors_on(&clock, 1, move |_, p| {
        blob_ref
            .write(p, 0, Bytes::from(vec![0xD4; 24 * CHUNK as usize]))
            .unwrap();
    });
    drop(blob);
    drop(store);

    // The crash caught v4 in flight: its publish record is torn, and
    // every part-file append of its batches stopped half way through.
    tear_one_byte(
        &tmp.path()
            .join("version")
            .join("blob-0")
            .join("publish.log"),
    );
    let mut torn = 0;
    for (path, before) in parts.iter().zip(before) {
        let after = len_of(path);
        if after > before {
            let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            file.set_len(before + (after - before) / 2).unwrap();
            torn += 1;
        }
    }
    assert!(torn >= 4, "every provider appended for v4");

    // Recovery truncates each torn append to its last whole record and
    // serves exactly the acknowledged state.
    let reopened = Store::new(config_on(BackendConfig::disk(tmp.path())));
    let blob = reopened.create_blob();
    let blob_ref = &blob;
    run_actors_on(&clock, 1, move |_, p| {
        assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(3));
    });
    assert_eq!(read_all(&blob, &clock, ReadVersion::Latest), v3_state);
    // What the providers account is what a rescan of the truncated
    // files finds: a second recovery agrees with the first.
    let recovered = accounting(&reopened);
    assert!(
        (acknowledged..acknowledged + 24).contains(&chunks(&recovered)),
        "all of v1..v3 and only whole records of v4: {recovered:?}"
    );
    drop(blob);
    drop(reopened);
    let again = Store::new(config_on(BackendConfig::disk(tmp.path())));
    assert_eq!(accounting(&again), recovered);
}

/// The part file of every data provider under `dir`.
fn part_files(dir: &Path) -> Vec<PathBuf> {
    let part = |provider| {
        let dir = dir.join(format!("provider-{provider}"));
        dir.join("slots").join("000").join("000.part")
    };
    (0..4).map(part).collect()
}

fn tear_one_byte(path: &Path) {
    let len = std::fs::metadata(path).expect("publish log exists").len();
    assert!(len > 1, "publish log should hold records");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open publish log");
    file.set_len(len - 1).expect("tear the log tail");
}
