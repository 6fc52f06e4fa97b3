//! The durable half of [`MetaStore`]: per-shard node logs.
//!
//! [`MetaStore::open`] gives each shard its own [`RecordLog`], next to
//! its node table and under its write lock (see [`crate::store`]):
//!
//! ```text
//! <dir>/superblock            format version, shard count, role tag
//! <dir>/shards/000/000.log    framed NODE / EVICT records of shard 0
//! <dir>/shards/001/000.log    …
//! ```
//!
//! A node's log is its shard's, chosen by the same hash, so every
//! record affecting one key lands in one file in operation order. A put
//! frames the batch's new nodes bound for one shard into one buffer and
//! appends it once, before any of them is inserted; an evict appends its
//! tombstones before it removes anything. A NODE body is the positional
//! encoding of the [`Node`], an EVICT body that of its [`NodeKey`] — the
//! bytes the wire carries them in. Nodes are immutable and what is new
//! is read off the shard's table (idempotent re-puts and conflicts never
//! reach the log), so recovery is a pure replay: surviving `NODE`
//! records go back through [`MetaStore::put_batch_local`] and `EVICT`s
//! are applied in order, all before any shard has its log, so replay
//! appends nothing.

use crate::node::{Node, NodeKey};
use crate::store::{MetaStore, NodeStore};
use atomio_simgrid::{ClientNics, CostModel};
use atomio_types::record::{encode_record, load_or_init_superblock, scan_records, RecordLog};
use atomio_types::{Error, FsyncPolicy, Result};
use serde::{decode_exact, Encode};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Log record: a stored node (key + body, self-contained).
const REC_NODE: u8 = 1;
/// Log record: an eviction (key only).
const REC_EVICT: u8 = 2;

/// Superblock tag marking a directory as a metadata node log. The shard
/// count is carried in the superblock's slot-count field.
const META_TAG: u64 = 0x6D65_7461; // "meta"

/// The durable metadata store is a [`MetaStore`] opened over a
/// directory; the name stays only because the frozen benchmark sources
/// (`wallbench/src/probes.rs`) call `DiskNodeStore::open`.
pub type DiskNodeStore = MetaStore;

/// Replays one shard log into `store`, returning the length of its
/// whole-record prefix. Fails only on a whole, checksum-valid record it
/// cannot read or apply.
fn replay_shard(bytes: &[u8], store: &MetaStore) -> Result<u64> {
    let malformed = |what: &str| Error::Internal(format!("meta store: {what}"));
    let scan = scan_records(bytes);
    for rec in &scan.records {
        match rec.kind {
            REC_NODE => {
                let node: Node = decode_exact(&rec.body)
                    .map_err(|e| malformed(&format!("malformed node record: {e}")))?;
                store
                    .put_batch_local(vec![node])
                    .pop()
                    .expect("one outcome per node")?;
            }
            REC_EVICT => {
                let key: NodeKey = decode_exact(&rec.body)
                    .map_err(|e| malformed(&format!("malformed evict record: {e}")))?;
                store.evict(key);
            }
            other => return Err(malformed(&format!("unknown record kind {other}"))),
        }
    }
    Ok(scan.valid_len)
}

/// Frames one `kind` record per body into one buffer and appends it to
/// `log`: one write, and at most one sync, however many records. Appends
/// nothing when there are none.
fn append_records<'a, T: Encode + 'a>(
    log: &mut RecordLog,
    kind: u8,
    bodies: impl IntoIterator<Item = &'a T>,
) -> Result<()> {
    let mut buffer = Vec::new();
    for body in bodies {
        encode_record(&mut buffer, kind, body);
    }
    if !buffer.is_empty() {
        log.append(&buffer)?;
    }
    Ok(())
}

/// Logs a put's new nodes for one shard.
pub(crate) fn log_nodes<'a>(
    log: &mut RecordLog,
    nodes: impl IntoIterator<Item = &'a Node>,
) -> Result<()> {
    append_records(log, REC_NODE, nodes)
}

/// Logs an evict's tombstones for one shard.
pub(crate) fn log_evictions(log: &mut RecordLog, keys: &[NodeKey]) -> Result<()> {
    append_records(log, REC_EVICT, keys)
}

impl MetaStore {
    /// Opens (creating or recovering) a durable store under `dir` with
    /// its own client-NIC registry.
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure, a foreign or corrupt
    /// superblock, a format mismatch, or a `shards` count that differs
    /// from the one the directory was created with (hash routing must
    /// not change under existing logs).
    pub fn open(
        dir: impl Into<PathBuf>,
        shards: usize,
        cost: CostModel,
        fsync: FsyncPolicy,
    ) -> Result<Self> {
        Self::open_with_client_nics(dir, shards, cost, Arc::new(ClientNics::new()), fsync)
    }

    /// [`Self::open`] booking client traffic on an existing NIC registry
    /// (shared with the data path, as [`Self::with_client_nics`]).
    pub fn open_with_client_nics(
        dir: impl Into<PathBuf>,
        shards: usize,
        cost: CostModel,
        nics: Arc<ClientNics>,
        fsync: FsyncPolicy,
    ) -> Result<Self> {
        assert!(shards > 0, "need at least one metadata shard");
        let dir = dir.into();
        let disk_shards = load_or_init_superblock(
            &dir.join("superblock"),
            shards as u32,
            META_TAG,
            "meta store",
        )?;
        if disk_shards as usize != shards {
            return Err(Error::Internal(format!(
                "meta store: directory was created with {disk_shards} shards, asked for {shards}"
            )));
        }

        let mut store = MetaStore::with_client_nics(shards, cost, nics);
        let logs = (0..shards)
            .map(|s| RecordLog::open(meta_log_path(&dir, s), fsync, |b| replay_shard(b, &store)))
            .collect::<Result<Vec<_>>>()?;
        for (shard, log) in store.shards.iter_mut().zip(logs) {
            *shard.log.get_mut() = Some(log);
        }
        Ok(store)
    }

    /// Forces every shard log's outstanding appends to stable storage
    /// (graceful shutdown under `Group`/`Deferred` fsync policies). A
    /// store in memory has nothing to flush.
    pub fn flush(&self) -> Result<()> {
        (self.shards.iter())
            .try_for_each(|shard| shard.log.lock().as_mut().map_or(Ok(()), RecordLog::flush))
    }
}

/// Builds the node store for `backend`: in memory for `Memory`, opened
/// (and recovered) under `<dir>/meta` for `Disk`.
pub fn node_store_for(
    backend: &atomio_types::BackendConfig,
    shards: usize,
    cost: CostModel,
    nics: Arc<ClientNics>,
) -> Result<MetaStore> {
    match backend {
        atomio_types::BackendConfig::Memory => Ok(MetaStore::with_client_nics(shards, cost, nics)),
        atomio_types::BackendConfig::Disk { dir, fsync } => {
            MetaStore::open_with_client_nics(dir.join("meta"), shards, cost, nics, *fsync)
        }
    }
}

/// Path of shard `shard`'s node log under a store rooted at `dir`
/// (tests tear tails through this).
pub fn meta_log_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join("shards")
        .join(format!("{shard:03}"))
        .join("000.log")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{LeafEntry, NodeBody};
    use atomio_simgrid::clock::run_actors;
    use atomio_types::record::append_record;
    use atomio_types::tempdir::TempDir;
    use atomio_types::{BlobId, ByteRange, ChunkId, ProviderId, VersionId};
    use std::collections::HashSet;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn leaf(v: u64, off: u64) -> Node {
        Node {
            key: NodeKey::new(BlobId::new(0), VersionId::new(v), ByteRange::new(off, 64)),
            body: NodeBody::Leaf {
                entries: vec![LeafEntry {
                    file_range: ByteRange::new(off, 64),
                    chunk: ChunkId::new(v * 100 + off),
                    chunk_offset: 3,
                    homes: vec![ProviderId::new(0), ProviderId::new(2)],
                }],
                backlink: (v > 1).then(|| {
                    NodeKey::new(
                        BlobId::new(0),
                        VersionId::new(v - 1),
                        ByteRange::new(off, 64),
                    )
                }),
            },
        }
    }

    fn inner_node(v: u64) -> Node {
        Node {
            key: NodeKey::new(BlobId::new(0), VersionId::new(v), ByteRange::new(0, 128)),
            body: NodeBody::Inner {
                left: Some(NodeKey::new(
                    BlobId::new(0),
                    VersionId::new(v),
                    ByteRange::new(0, 64),
                )),
                right: None,
            },
        }
    }

    /// The kinds of the records `key`'s shard log holds for `key`, in
    /// log order.
    fn records_of(dir: &Path, store: &MetaStore, key: NodeKey) -> Vec<u8> {
        let bytes = std::fs::read(meta_log_path(dir, store.shard_index(key))).unwrap();
        let scan = scan_records(&bytes);
        (scan.records.iter())
            .filter(|rec| match rec.kind {
                REC_NODE => decode_exact::<Node>(&rec.body).unwrap().key == key,
                _ => decode_exact::<NodeKey>(&rec.body).unwrap() == key,
            })
            .map(|rec| rec.kind)
            .collect()
    }

    #[test]
    fn reopen_recovers_nodes_and_evictions() {
        let tmp = TempDir::new("atomio-diskmeta");
        let twice = leaf(7, 128);
        {
            let store =
                DiskNodeStore::open(tmp.path(), 4, CostModel::zero(), FsyncPolicy::PerPublish)
                    .unwrap();
            run_actors(1, |_, p| {
                for v in 1..=5u64 {
                    store.put(p, leaf(v, 0)).unwrap();
                    store.put(p, leaf(v, 64)).unwrap();
                    store.put(p, leaf(v, 0)).unwrap(); // idempotent re-put
                }
                // One key twice in a batch, re-put, evicted, put again:
                // logged once per change to the table, no more.
                let outcomes = store.put_batch(p, vec![twice.clone(), twice.clone()]);
                assert!(outcomes.iter().all(|o| o.is_ok()));
                store.put(p, twice.clone()).unwrap();
                store.evict(twice.key);
                store.put(p, twice.clone()).unwrap();
            });
            store.evict(leaf(2, 0).key);
            assert_eq!(
                records_of(tmp.path(), &store, twice.key),
                [REC_NODE, REC_EVICT, REC_NODE]
            );
            // Hard drop, no flush.
        }
        let store =
            DiskNodeStore::open(tmp.path(), 4, CostModel::zero(), FsyncPolicy::PerPublish).unwrap();
        // Replay appended nothing.
        assert_eq!(
            records_of(tmp.path(), &store, twice.key),
            [REC_NODE, REC_EVICT, REC_NODE]
        );
        assert_eq!(store.node_count(), 10);
        assert!(!store.contains(leaf(2, 0).key));
        let (res, _) = run_actors(1, |_, p| {
            (store.get(p, leaf(3, 64).key), store.get(p, twice.key))
        });
        let (got, again) = &res[0];
        assert_eq!(*got.as_ref().unwrap().as_ref(), leaf(3, 64));
        assert_eq!(*again.as_ref().unwrap().as_ref(), twice);
        // The recovered store keeps accepting and stays idempotent.
        run_actors(1, |_, p| {
            store.put(p, leaf(3, 64)).unwrap();
            store.put(p, leaf(9, 0)).unwrap();
        });
        assert_eq!(store.node_count(), 11);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let tmp = TempDir::new("atomio-diskmeta");
        {
            let store =
                DiskNodeStore::open(tmp.path(), 1, CostModel::zero(), FsyncPolicy::PerPublish)
                    .unwrap();
            run_actors(1, |_, p| {
                store.put(p, leaf(1, 0)).unwrap();
            });
        }
        let log = meta_log_path(tmp.path(), 0);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&atomio_types::record::RECORD_MAGIC.to_be_bytes())
            .unwrap();
        f.write_all(&[REC_NODE, 0, 0]).unwrap();
        drop(f);
        let store =
            DiskNodeStore::open(tmp.path(), 1, CostModel::zero(), FsyncPolicy::PerPublish).unwrap();
        assert_eq!(store.node_count(), 1);
        run_actors(1, |_, p| {
            store.put(p, leaf(2, 0)).unwrap();
        });
        drop(store);
        let store =
            DiskNodeStore::open(tmp.path(), 1, CostModel::zero(), FsyncPolicy::PerPublish).unwrap();
        assert_eq!(store.node_count(), 2);
    }

    #[test]
    fn batch_appends_and_syncs_once_per_touched_shard() {
        // One tile write's worth of nodes: 54 in one batch, two shards.
        let nodes: Vec<Node> = (1..=54).map(|v| leaf(v, 0)).collect();
        let keys: Vec<NodeKey> = nodes.iter().map(|n| n.key).collect();
        let tmp = TempDir::new("atomio-diskmeta");
        let open =
            || DiskNodeStore::open(tmp.path(), 2, CostModel::zero(), FsyncPolicy::PerPublish);
        let totals = |store: &DiskNodeStore| {
            let stats =
                (store.shards.iter()).filter_map(|s| s.log.lock().as_ref().map(RecordLog::stats));
            stats.fold((0, 0), |(a, s), st| (a + st.appends, s + st.syncs))
        };
        {
            let store = open().unwrap();
            let outcomes = store.put_batch_local(nodes.clone());
            assert!(outcomes.iter().all(|o| o.is_ok()));
            let (appends, syncs) = totals(&store);
            assert!(
                appends <= 2 && syncs <= 2,
                "{appends} appends, {syncs} syncs"
            );
            // An idempotent re-put appends nothing.
            store.put_batch_local(nodes.clone());
            assert_eq!(totals(&store), (appends, syncs));
            // Hard drop, no flush.
        }
        let store = open().unwrap();
        assert_eq!(store.node_count(), 54);
        for (got, want) in store.get_batch_local(&keys).into_iter().zip(&nodes) {
            assert_eq!(*got.unwrap(), *want);
        }
        // Evictions batch the same way, count what was present once, and
        // survive a reopen.
        let mut victims = keys[..30].to_vec();
        victims.push(keys[0]);
        victims.push(leaf(99, 0).key);
        assert_eq!(store.evict_batch(&victims), 30);
        let (appends, syncs) = totals(&store);
        assert!(
            appends <= 2 && syncs <= 2,
            "{appends} appends, {syncs} syncs"
        );
        drop(store);
        let store = open().unwrap();
        assert_eq!(store.node_count(), 24);
        assert!(!store.contains(keys[29]) && store.contains(keys[30]));
    }

    #[test]
    fn shard_count_is_pinned_by_the_superblock() {
        let tmp = TempDir::new("atomio-diskmeta");
        drop(DiskNodeStore::open(
            tmp.path(),
            4,
            CostModel::zero(),
            FsyncPolicy::PerPublish,
        ));
        let err = DiskNodeStore::open(tmp.path(), 8, CostModel::zero(), FsyncPolicy::PerPublish);
        assert!(matches!(err, Err(Error::Internal(_))));
    }

    #[test]
    fn timing_matches_memory_store() {
        let cost = CostModel::grid5000();
        let tmp = TempDir::new("atomio-diskmeta");
        let disk = DiskNodeStore::open(tmp.path(), 4, cost, FsyncPolicy::PerPublish).unwrap();
        let mem = MetaStore::new(4, cost);
        let drive = |store: &dyn NodeStore| {
            let (_, total) = run_actors(2, |i, p| {
                let base = i as u64 * 10 + 1;
                store
                    .put_batch(p, vec![leaf(base, 0), leaf(base, 64), inner_node(base)])
                    .into_iter()
                    .for_each(|r| r.unwrap());
                store.get(p, leaf(base, 0).key).unwrap();
            });
            total
        };
        assert_eq!(drive(&disk), drive(&mem));
    }

    #[test]
    fn node_store_factory_selects_backend() {
        let nics = Arc::new(ClientNics::new());
        let mem = node_store_for(
            &atomio_types::BackendConfig::Memory,
            2,
            CostModel::zero(),
            Arc::clone(&nics),
        )
        .unwrap();
        assert_eq!(mem.node_count(), 0);
        let tmp = TempDir::new("atomio-diskmeta");
        let disk = node_store_for(
            &atomio_types::BackendConfig::disk(tmp.path()),
            2,
            CostModel::zero(),
            nics,
        )
        .unwrap();
        disk.put_batch_local(vec![leaf(1, 0)])
            .into_iter()
            .for_each(|r| r.unwrap());
        assert!(tmp.path().join("meta").join("superblock").exists());
        assert_eq!(disk.node_count(), 1);
    }

    mod replay_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(any::<u8>(), 0..max)
        }

        /// Replays `bytes` into a fresh store: a typed error, or a
        /// whole-record prefix that replays to the same store again.
        fn check(bytes: &[u8]) -> std::result::Result<(), TestCaseError> {
            let replay = |bytes: &[u8]| {
                let store = MetaStore::new(2, CostModel::zero());
                let valid = replay_shard(bytes, &store)?;
                let keys: HashSet<NodeKey> = store.list_keys().into_iter().collect();
                Ok::<_, Error>((valid, keys))
            };
            let Ok((valid, keys)) = replay(bytes) else {
                return Ok(());
            };
            prop_assert!(valid as usize <= bytes.len());
            prop_assert_eq!(replay(&bytes[..valid as usize]), Ok((valid, keys)));
            Ok(())
        }

        /// A NODE body laid out like a leaf, its lengths and counts
        /// whatever `fields` say: ranges that overflow, counts no file
        /// could hold. The key (blob, version, range) is its first 32
        /// bytes; the tail stands where the entry's homes and the
        /// backlink go.
        fn leaf_like(fields: &[u64], tail: &[u8]) -> Vec<u8> {
            let mut body = Vec::new();
            (fields[0], fields[1], (fields[2], fields[3])).encode(&mut body);
            (1u8, fields[4] as u32).encode(&mut body); // leaf, entry count
            ((fields[5], fields[6]), fields[7], fields[8]).encode(&mut body);
            body.extend_from_slice(tail);
            body
        }

        fn edgy_u64() -> impl Strategy<Value = u64> {
            (any::<u64>(), 0u64..4).prop_map(|(x, k)| match x % 4 {
                0 => k,
                1 => u64::MAX - k,
                2 => u32::MAX as u64 - k,
                _ => x,
            })
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_replay_without_panicking(bytes in arb_bytes(256)) {
                check(&bytes)?;
            }

            #[test]
            fn checksum_valid_garbage_reaches_the_body_decoders(
                fields in proptest::collection::vec(edgy_u64(), 9..10),
                tail in arb_bytes(24),
                records in proptest::collection::vec((0u8..4, arb_bytes(80)), 0..4),
            ) {
                let mut log = Vec::new();
                append_record(&mut log, REC_NODE, &leaf_like(&fields, &tail));
                check(&log)?;
                append_record(&mut log, REC_EVICT, &leaf_like(&fields, &[])[..32]);
                check(&log)?;
                for (kind, body) in &records {
                    append_record(&mut log, *kind, body);
                }
                check(&log)?;
                // A whole node or key with bytes after it is refused:
                // the body decoders read every byte they are given.
                let node = leaf(fields[0] % 8 + 1, 0);
                let (mut node_body, mut key_body) = (Vec::new(), Vec::new());
                node.encode(&mut node_body);
                node.key.encode(&mut key_body);
                for (kind, body) in [(REC_NODE, node_body), (REC_EVICT, key_body)] {
                    let mut log = Vec::new();
                    append_record(&mut log, kind, &[body, tail.clone()].concat());
                    let store = MetaStore::new(2, CostModel::zero());
                    let replayed = replay_shard(&log, &store);
                    prop_assert_eq!(replayed.is_ok(), tail.is_empty());
                }
            }

            #[test]
            fn cut_or_mutated_shard_logs_replay_to_a_whole_prefix(
                ops in proptest::collection::vec((1u64..5, 0u64..3, any::<bool>()), 1..8),
                flip in (any::<usize>(), 1u16..256),
            ) {
                let mut log = Vec::new();
                for (v, slot, put) in ops {
                    let node = if slot == 2 { inner_node(v) } else { leaf(v, slot * 64) };
                    if put {
                        encode_record(&mut log, REC_NODE, &node);
                    } else {
                        encode_record(&mut log, REC_EVICT, &node.key);
                    }
                }
                let store = MetaStore::new(2, CostModel::zero());
                let whole = replay_shard(&log, &store);
                prop_assert_eq!(whole, Ok(log.len() as u64));
                for cut in 0..log.len() {
                    let store = MetaStore::new(2, CostModel::zero());
                    let valid = replay_shard(&log[..cut], &store);
                    prop_assert!(valid.is_ok_and(|valid| valid as usize <= cut));
                }
                let at = flip.0 % log.len();
                log[at] ^= flip.1 as u8;
                check(&log)?;
            }
        }
    }
}
