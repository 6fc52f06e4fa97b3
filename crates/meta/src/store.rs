//! The distributed metadata store: hash-partitioned node shards.
//!
//! BlobSeer keeps segment-tree nodes in a DHT spread over metadata
//! providers; here each shard is a virtual-time CPU resource in front of a
//! node table. Hash partitioning spreads one writer's node puts over all
//! shards, so concurrent writers' metadata work overlaps instead of
//! queueing on a single server.
//!
//! **The API is batch-first**, mirroring the provider side
//! (`ProviderManager::put_batch_replicated` / `get_batch_with_failover`):
//! [`NodeStore::put_batch`] and [`NodeStore::get_batch`] are the canonical
//! entry points; single-node [`NodeStore::put`] / [`NodeStore::get`] are
//! the trait's one-element wrappers. [`MetaStore`] spells each of them
//! once, in its trait impls. A batch pays **one** overlapped RPC offset,
//! serializes node payloads through the calling client's NIC, and lands
//! on each shard as a **single list-request booking** via
//! [`Resource::reserve_ns`] — the List-I/O lesson applied to metadata.
//!
//! **One store, either backend.** A shard owns its node table and, when
//! the store was opened over a directory ([`MetaStore::open`], in
//! [`crate::disk`]), its own node log. A put appends the batch's new
//! nodes to each touched shard's log once and only then inserts them; an
//! evict appends its tombstones before it removes anything. What is new
//! is read off the shard's table, so the log never needs a second index.
//! In memory the same path runs with no log. Virtual-time booking does
//! not look at the backend, so lookup and commit latency are
//! backend-invariant.

use crate::node::{Node, NodeKey};
use crate::tree::{resolve_with, ResolvedPiece};
use atomio_simgrid::{ClientNics, CostModel, Participant, Resource};
use atomio_types::record::RecordLog;
use atomio_types::{stamp::mix64, Error, ExtentList, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The interface tree builders and readers consume to store and fetch
/// nodes. [`MetaStore`] is the in-process implementation; an RPC client
/// talking to a remote metadata server implements the same trait, so the
/// whole metadata path is transport-agnostic.
///
/// Batch operations are canonical (mirroring [`MetaStore`]); `put`/`get`
/// are provided one-element wrappers.
pub trait NodeStore: Send + Sync + std::fmt::Debug {
    /// Stores a batch of nodes; one outcome per node, in order.
    fn put_batch(&self, p: &Participant, nodes: Vec<Node>) -> Vec<Result<()>>;

    /// Fetches a batch of nodes; one outcome per key, in order.
    fn get_batch(&self, p: &Participant, keys: &[NodeKey]) -> Vec<Result<Arc<Node>>>;

    /// Stores one node.
    fn put(&self, p: &Participant, node: Node) -> Result<()> {
        self.put_batch(p, vec![node])
            .pop()
            .expect("one outcome per node")
    }

    /// Fetches one node.
    fn get(&self, p: &Participant, key: NodeKey) -> Result<Arc<Node>> {
        self.get_batch(p, &[key])
            .pop()
            .expect("one outcome per key")
    }

    /// Maps `extents` of the snapshot rooted at `root` onto stored
    /// chunks and holes, sorted by file offset (see [`resolve_with`]).
    ///
    /// The default walks the tree on the client, one
    /// [`Self::get_batch`] per level — BlobSeer's client-walked
    /// metadata. A remote proxy overrides it with one request that the
    /// metadata server answers by running the same walk where the nodes
    /// are.
    fn resolve(
        &self,
        p: &Participant,
        root: Option<NodeKey>,
        extents: &ExtentList,
    ) -> Result<Vec<ResolvedPiece>> {
        resolve_with(
            |keys| self.get_batch(p, keys).into_iter().collect(),
            root,
            extents,
        )
    }

    /// True if the node exists (free of simulated cost; for tests/GC).
    fn contains(&self, key: NodeKey) -> bool;

    /// Total nodes stored: by default, the length of [`Self::list_keys`].
    fn node_count(&self) -> usize {
        self.list_keys().len()
    }

    /// Removes a node (version GC): a batch of one. Missing keys are
    /// ignored.
    fn evict(&self, key: NodeKey) {
        self.evict_batch(&[key]);
    }

    /// Removes a batch of nodes, returning how many were present — the
    /// GC sweep's unit of work (remote proxies: one request).
    fn evict_batch(&self, keys: &[NodeKey]) -> u64;

    /// Every stored key, in unspecified order (for equivalence checks
    /// and GC sweeps).
    fn list_keys(&self) -> Vec<NodeKey>;
}

/// A hash-partitioned store of immutable tree nodes, in memory or, when
/// opened over a directory, with one node log per shard.
#[derive(Debug)]
pub struct MetaStore {
    pub(crate) shards: Vec<Shard>,
    cost: CostModel,
    /// Per-client NICs serializing batch injections/receptions — shared
    /// with the data path when the deployment wires it so (one client,
    /// one link).
    nics: Arc<ClientNics>,
}

#[derive(Debug)]
pub(crate) struct Shard {
    cpu: Resource,
    nodes: RwLock<HashMap<NodeKey, Arc<Node>>>,
    /// The shard's write lock, holding its node log on a disk backend
    /// (`None` in memory). A put or an evict holds it across its look at
    /// `nodes`, its append and its change to `nodes`, so every change is
    /// logged once and in the order the table saw it. Lookups take only
    /// `nodes`' read lock and never wait on the disk.
    pub(crate) log: Mutex<Option<RecordLog>>,
}

impl Shard {
    /// Removes those of `keys` (distinct, all routed here) this shard
    /// holds, returning how many. Their tombstones are logged first, in
    /// one append; if it fails, every node stays.
    fn evict(&self, mut keys: Vec<NodeKey>) -> u64 {
        if keys.is_empty() {
            return 0;
        }
        let mut log = self.log.lock();
        keys.retain(|key| self.nodes.read().contains_key(key));
        if let Some(log) = log.as_mut() {
            if crate::disk::log_evictions(log, &keys).is_err() {
                return 0;
            }
        }
        let mut nodes = self.nodes.write();
        for key in &keys {
            nodes.remove(key);
        }
        keys.len() as u64
    }
}

impl MetaStore {
    /// Creates a store with `shards` metadata providers and its own
    /// client-NIC registry.
    pub fn new(shards: usize, cost: CostModel) -> Self {
        Self::with_client_nics(shards, cost, Arc::new(ClientNics::new()))
    }

    /// Creates a store that books client traffic on an existing NIC
    /// registry (shared with the data path, so one client's chunk and
    /// node streams contend for the same link).
    pub fn with_client_nics(shards: usize, cost: CostModel, nics: Arc<ClientNics>) -> Self {
        assert!(shards > 0, "need at least one metadata shard");
        MetaStore {
            shards: (0..shards)
                .map(|i| Shard {
                    cpu: Resource::new(format!("meta-shard-{i}/cpu")),
                    nodes: RwLock::new(HashMap::new()),
                    log: Mutex::new(None),
                })
                .collect(),
            cost,
            nics,
        }
    }

    /// The per-client NIC registry this store books traffic on.
    pub fn client_nics(&self) -> &Arc<ClientNics> {
        &self.nics
    }

    pub(crate) fn shard_index(&self, key: NodeKey) -> usize {
        let h = mix64(
            key.version.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ key.blob.raw().wrapping_mul(0x94D0_49BB_1331_11EB)
                ^ key.range.offset.rotate_left(17)
                ^ key.range.len,
        );
        (h % self.shards.len() as u64) as usize
    }

    fn shard_for(&self, key: NodeKey) -> &Shard {
        &self.shards[self.shard_index(key)]
    }

    /// Stores a batch without booking any simulated cost, one outcome
    /// per node — the zero-time half of [`NodeStore::put_batch`], and what
    /// a network server dispatches into (it has no simulated clock; the
    /// wire itself is the cost model).
    ///
    /// The batch locks every shard it touches, in index order, for its
    /// whole length. A node is new if neither its shard's table nor an
    /// earlier node of the batch holds its key; a node equal to a held
    /// one is an idempotent `Ok`, a different one a conflict. Each
    /// touched shard with a log appends its new nodes in one write, and
    /// the new nodes are inserted only once every append has returned:
    /// if one fails, none of them becomes visible and each reports the
    /// error.
    pub fn put_batch_local(&self, nodes: Vec<Node>) -> Vec<Result<()>> {
        let routes: Vec<usize> = nodes.iter().map(|n| self.shard_index(n.key)).collect();
        let mut writers: Vec<_> = (self.shards.iter().enumerate())
            .map(|(s, shard)| routes.contains(&s).then(|| shard.log.lock()))
            .collect();
        let mut outcomes = Vec::with_capacity(nodes.len());
        // (outcome index, shard, node) of each new node, in batch order.
        let mut fresh: Vec<(usize, usize, Node)> = Vec::new();
        let mut staged: HashMap<NodeKey, usize> = HashMap::new();
        for (node, s) in nodes.into_iter().zip(routes) {
            let held = match staged.get(&node.key) {
                Some(&j) => Some(fresh[j].2 == node),
                None => (self.shards[s].nodes.read())
                    .get(&node.key)
                    .map(|held| **held == node),
            };
            outcomes.push(match held {
                Some(true) => Ok(()),
                Some(false) => Err(Error::Internal(format!(
                    "conflicting node published under {}",
                    node.key
                ))),
                None => {
                    staged.insert(node.key, fresh.len());
                    fresh.push((outcomes.len(), s, node));
                    Ok(())
                }
            });
        }
        let logged = writers.iter_mut().enumerate().try_for_each(|(s, writer)| {
            match writer.as_deref_mut() {
                Some(Some(log)) => {
                    crate::disk::log_nodes(log, fresh.iter().filter(|f| f.1 == s).map(|f| &f.2))
                }
                _ => Ok(()),
            }
        });
        if let Err(e) = logged {
            let msg = format!("node log write failed: {e}");
            for (i, _, _) in &fresh {
                outcomes[*i] = Err(Error::Internal(msg.clone()));
            }
            return outcomes;
        }
        for (_, s, node) in fresh {
            self.shards[s]
                .nodes
                .write()
                .insert(node.key, Arc::new(node));
        }
        outcomes
    }

    /// Fetches a batch without booking any simulated cost.
    pub fn get_batch_local(&self, keys: &[NodeKey]) -> Vec<Result<Arc<Node>>> {
        keys.iter()
            .map(|&key| {
                self.shard_for(key).nodes.read().get(&key).cloned().ok_or(
                    Error::MetadataNodeMissing(key.range.offset ^ key.version.raw()),
                )
            })
            .collect()
    }

    /// Per-shard node counts (for distribution tests).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.nodes.read().len()).collect()
    }
}

impl NodeStore for MetaStore {
    /// Stores a batch of nodes, shard-parallel — **the canonical node
    /// write path** (single-node [`NodeStore::put`] delegates here).
    ///
    /// Cost model, mirroring `ProviderManager::put_batch_replicated`: the
    /// RPC round trips of the whole batch overlap (one latency offset for
    /// all requests); each node's payload then serializes through the
    /// calling client's NIC in batch order; nodes bound for the same
    /// shard form **one list-request** — a single
    /// [`Resource::reserve_ns`] booking of `group_len × meta_op` that
    /// starts when the group's first payload has arrived (cut-through)
    /// — and the client sleeps exactly once, to the latest completion
    /// across shards and injections.
    ///
    /// Returns one outcome per node, in order. Publishing the same node
    /// twice is idempotent; publishing a *different* node under an
    /// existing key indicates a broken determinism invariant and fails
    /// for that slot.
    fn put_batch(&self, p: &Participant, nodes: Vec<Node>) -> Vec<Result<()>> {
        if nodes.is_empty() {
            return Vec::new();
        }
        let nic = self.nics.nic_for(p);
        let now = p.now_ns();
        let arrival = now + self.cost.rpc_round_trip().as_nanos() as u64;
        let meta_ns = self.cost.meta_op.as_nanos() as u64;

        // Injection: node payloads leave the client back to back.
        let inj_done: Vec<u64> = nodes
            .iter()
            .map(|n| {
                nic.reserve_ns(
                    arrival,
                    self.cost.net_transfer(n.wire_size()).as_nanos() as u64,
                )
            })
            .collect();

        // One booking per shard for its whole group.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, node) in nodes.iter().enumerate() {
            groups[self.shard_index(node.key)].push(i);
        }
        let mut latest = *inj_done.last().expect("non-empty batch");
        for (s, group) in groups.iter().enumerate() {
            let (Some(&first), Some(&last)) = (group.first(), group.last()) else {
                continue;
            };
            let done = self.shards[s]
                .cpu
                .reserve_ns(inj_done[first], meta_ns * group.len() as u64);
            // The list-op cannot complete before its last member arrived.
            latest = latest.max(done).max(inj_done[last]);
        }
        p.sleep_until_ns(latest);

        self.put_batch_local(nodes)
    }

    /// Fetches a batch of nodes, shard-parallel — the canonical node
    /// read path (single-node [`NodeStore::get`] delegates here).
    ///
    /// The mirror image of [`Self::put_batch`]: all requests share one
    /// overlapped RPC offset, each shard serves its group as a single
    /// list-request booking, and found nodes' payloads serialize back
    /// through the client's NIC. The caller sleeps once, to the latest
    /// reception. Returns one outcome per key, in order; missing keys
    /// yield [`Error::MetadataNodeMissing`] and ship no payload.
    fn get_batch(&self, p: &Participant, keys: &[NodeKey]) -> Vec<Result<Arc<Node>>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let nic = self.nics.nic_for(p);
        let now = p.now_ns();
        let arrival = now + self.cost.rpc_round_trip().as_nanos() as u64;
        let meta_ns = self.cost.meta_op.as_nanos() as u64;

        // One lookup booking per shard; requests are control-sized and
        // are covered by the overlapped RPC offset.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &key) in keys.iter().enumerate() {
            groups[self.shard_index(key)].push(i);
        }
        let mut shard_done = vec![arrival; self.shards.len()];
        for (s, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            shard_done[s] = self.shards[s]
                .cpu
                .reserve_ns(arrival, meta_ns * group.len() as u64);
        }

        // Reception: found nodes stream back through the client NIC in
        // batch order.
        let mut latest = now;
        let outcomes: Vec<Result<Arc<Node>>> = keys
            .iter()
            .map(|&key| {
                let s = self.shard_index(key);
                latest = latest.max(shard_done[s]);
                let found = self.shards[s].nodes.read().get(&key).cloned();
                match found {
                    Some(node) => {
                        let net_ns = self.cost.net_transfer(node.wire_size()).as_nanos() as u64;
                        latest = latest.max(nic.reserve_ns(shard_done[s], net_ns));
                        Ok(node)
                    }
                    None => Err(Error::MetadataNodeMissing(
                        key.range.offset ^ key.version.raw(),
                    )),
                }
            })
            .collect();
        p.sleep_until_ns(latest);
        outcomes
    }

    fn contains(&self, key: NodeKey) -> bool {
        self.shard_for(key).nodes.read().contains_key(&key)
    }

    fn evict_batch(&self, keys: &[NodeKey]) -> u64 {
        let mut groups: Vec<Vec<NodeKey>> = vec![Vec::new(); self.shards.len()];
        let mut seen = HashSet::new();
        for &key in keys {
            if seen.insert(key) {
                groups[self.shard_index(key)].push(key);
            }
        }
        (groups.into_iter().zip(&self.shards))
            .map(|(keys, shard)| shard.evict(keys))
            .sum()
    }

    fn list_keys(&self) -> Vec<NodeKey> {
        self.shards
            .iter()
            .flat_map(|s| s.nodes.read().keys().copied().collect::<Vec<_>>())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeBody;
    use atomio_simgrid::clock::run_actors;
    use atomio_types::{ByteRange, VersionId};

    fn node(v: u64, off: u64, len: u64) -> Node {
        Node {
            key: NodeKey::new(
                atomio_types::BlobId::new(0),
                VersionId::new(v),
                ByteRange::new(off, len),
            ),
            body: NodeBody::Inner {
                left: None,
                right: None,
            },
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let store = MetaStore::new(4, CostModel::zero());
        let (res, _) = run_actors(1, |_, p| {
            store.put(p, node(1, 0, 64))?;
            store.get(
                p,
                NodeKey::new(
                    atomio_types::BlobId::new(0),
                    VersionId::new(1),
                    ByteRange::new(0, 64),
                ),
            )
        });
        assert_eq!(*res[0].as_ref().unwrap().as_ref(), node(1, 0, 64));
        assert_eq!(store.node_count(), 1);
    }

    #[test]
    fn idempotent_put_allowed_conflict_rejected() {
        let store = MetaStore::new(2, CostModel::zero());
        let (res, _) = run_actors(1, |_, p| {
            store.put(p, node(1, 0, 64))?;
            store.put(p, node(1, 0, 64))?; // same node again: fine
            let mut different = node(1, 0, 64);
            different.body = NodeBody::Leaf {
                entries: vec![],
                backlink: None,
            };
            store.put(p, different)
        });
        assert!(matches!(res[0], Err(Error::Internal(_))));
        assert_eq!(store.node_count(), 1);
    }

    #[test]
    fn missing_node_errors() {
        let store = MetaStore::new(2, CostModel::zero());
        let (res, _) = run_actors(1, |_, p| {
            store.get(
                p,
                NodeKey::new(
                    atomio_types::BlobId::new(0),
                    VersionId::new(9),
                    ByteRange::new(0, 64),
                ),
            )
        });
        assert!(matches!(res[0], Err(Error::MetadataNodeMissing(_))));
    }

    #[test]
    fn eviction_removes() {
        let store = MetaStore::new(2, CostModel::zero());
        let (_, _) = run_actors(1, |_, p| {
            store.put(p, node(1, 0, 64)).unwrap();
        });
        let key = NodeKey::new(
            atomio_types::BlobId::new(0),
            VersionId::new(1),
            ByteRange::new(0, 64),
        );
        assert!(store.contains(key));
        store.evict(key);
        assert!(!store.contains(key));
        store.evict(key); // idempotent
    }

    #[test]
    fn keys_spread_over_shards() {
        let store = MetaStore::new(8, CostModel::zero());
        let (_, _) = run_actors(1, |_, p| {
            for v in 1..=16u64 {
                for i in 0..16u64 {
                    store.put(p, node(v, i * 64, 64)).unwrap();
                }
            }
        });
        let loads = store.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), 256);
        // No shard should be empty or hold more than half the nodes.
        for &l in &loads {
            assert!(l > 0, "empty shard: {loads:?}");
            assert!(l < 128, "hot shard: {loads:?}");
        }
    }

    #[test]
    fn meta_ops_cost_time() {
        let cost = CostModel::grid5000();
        let store = MetaStore::new(1, cost);
        let (_, total) = run_actors(1, |_, p| {
            for i in 0..10 {
                store.put(p, node(1, i * 64, 64)).unwrap();
            }
        });
        // 10 one-element batches × (RPC + node wire transfer + meta_op).
        let wire = cost.net_transfer(node(1, 0, 64).wire_size());
        let expect = (cost.rpc_round_trip() + wire + cost.meta_op) * 10;
        assert_eq!(total, expect);
    }

    #[test]
    fn batched_put_is_shard_parallel() {
        let cost = CostModel::grid5000();
        let store = MetaStore::new(4, cost);
        let nodes: Vec<Node> = (0..32).map(|i| node(1, i * 64, 64)).collect();
        let wire = cost.net_transfer(nodes[0].wire_size());
        // Expected: one overlapped RPC, injections back to back, one
        // list-op per shard starting at its first member's arrival.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); 4];
        for (i, n) in nodes.iter().enumerate() {
            groups[store.shard_index(n.key)].push(i);
        }
        let mut expect = cost.rpc_round_trip() + wire * 32;
        for g in &groups {
            if let Some(&first) = g.first() {
                expect = expect.max(
                    cost.rpc_round_trip()
                        + wire * (first as u32 + 1)
                        + cost.meta_op * g.len() as u32,
                );
            }
        }
        let batch = nodes.clone();
        let (res, total) = run_actors(1, move |_, p| {
            store
                .put_batch(p, batch.clone())
                .into_iter()
                .collect::<Result<Vec<_>>>()
        });
        assert!(res[0].is_ok());
        assert_eq!(total, expect);
        // Far below the serial cost of 32 × (RPC + wire + meta_op).
        assert!(total < (cost.rpc_round_trip() + wire + cost.meta_op) * 32);
    }

    #[test]
    fn get_batch_reports_misses_per_slot() {
        let store = MetaStore::new(2, CostModel::zero());
        let (res, _) = run_actors(1, |_, p| {
            store.put(p, node(1, 0, 64)).unwrap();
            let keys = [
                NodeKey::new(
                    atomio_types::BlobId::new(0),
                    VersionId::new(1),
                    ByteRange::new(0, 64),
                ),
                NodeKey::new(
                    atomio_types::BlobId::new(0),
                    VersionId::new(9),
                    ByteRange::new(0, 64),
                ),
            ];
            store.get_batch(p, &keys)
        });
        assert!(res[0][0].is_ok());
        assert!(matches!(res[0][1], Err(Error::MetadataNodeMissing(_))));
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let store = MetaStore::new(2, CostModel::grid5000());
        let (_, total) = run_actors(1, |_, p| {
            assert!(store.put_batch(p, Vec::new()).is_empty());
            assert!(store.get_batch(p, &[]).is_empty());
        });
        assert_eq!(total, std::time::Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_shards_rejected() {
        let _ = MetaStore::new(0, CostModel::zero());
    }
}
