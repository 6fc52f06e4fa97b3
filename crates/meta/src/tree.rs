//! Building and querying copy-on-write segment trees.
//!
//! [`TreeBuilder::build_update`] turns one atomic (possibly
//! non-contiguous) write into a complete new tree for its version — with
//! **no reads of other versions' nodes and no waiting**: every link to
//! older content is computed from the shared [`VersionHistory`] thanks to
//! deterministic [`NodeKey`]s. [`resolve_with`] maps a snapshot +
//! extent list onto the stored chunks (or zero-fill holes), and
//! [`reach`] lists every node and chunk a set of snapshots reaches, for
//! version GC and repair.
//!
//! Construction is pure (zero virtual time): the builder stages the new
//! version's nodes children-before-parents, then **commits them in one
//! flush**, shard-parallel through [`NodeStore::put_batch`]. Reads are
//! the mirror image: a level-order walk, which asks for each tree level
//! at once — one [`NodeStore::get_batch`] per level on the client
//! ([`NodeStore::resolve`]'s default, and [`reach`]), or one
//! `get_batch_local` per level inside a metadata server that runs the
//! walk for a remote client.

use crate::cache::NodeCache;
use crate::history::VersionHistory;
use crate::node::{LeafEntry, Node, NodeBody, NodeKey};
use crate::store::NodeStore;
use atomio_simgrid::{Metrics, Participant};
use atomio_types::{BlobId, ByteRange, ChunkId, Error, ExtentList, ProviderId, Result, VersionId};
use serde::{Decode, Encode};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Static geometry of a blob's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Bytes covered by one leaf (equals the striping chunk size).
    pub leaf_size: u64,
}

impl TreeConfig {
    /// Creates a config.
    ///
    /// # Panics
    /// Panics unless `leaf_size` is a positive power of two (dyadic
    /// ranges require it).
    pub fn new(leaf_size: u64) -> Self {
        assert!(
            leaf_size.is_power_of_two(),
            "leaf size must be a power of two, got {leaf_size}"
        );
        TreeConfig { leaf_size }
    }

    /// Smallest valid tree capacity covering byte `end`: a power-of-two
    /// multiple of the leaf size, at least one leaf. `None` when no
    /// `u64` capacity covers `end` (it lies past `2^63`) — `end` can be
    /// a size a peer sent, so this must not wrap.
    pub fn capacity_for(&self, end: u64) -> Option<u64> {
        let leaves = end.div_ceil(self.leaf_size).max(1);
        leaves
            .checked_next_power_of_two()?
            .checked_mul(self.leaf_size)
    }
}

/// Writer-side tree construction.
#[derive(Debug)]
pub struct TreeBuilder<'a> {
    blob: BlobId,
    store: &'a dyn NodeStore,
    history: &'a VersionHistory,
    config: TreeConfig,
    metrics: Option<Metrics>,
}

impl<'a> TreeBuilder<'a> {
    /// Creates a builder for one blob over a store and that blob's
    /// write history.
    pub fn new(
        blob: BlobId,
        store: &'a dyn NodeStore,
        history: &'a VersionHistory,
        config: TreeConfig,
    ) -> Self {
        TreeBuilder {
            blob,
            store,
            history,
            config,
            metrics: None,
        }
    }

    /// Attaches a metrics registry; each flush then records
    /// `core.meta_commit_time` (virtual time spent committing) and
    /// `core.meta_commit_depth` (nodes per commit).
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Commits the staged node set through one [`NodeStore::put_batch`]
    /// (one overlapped RPC, one list-request booking per shard, one
    /// wait): the only place tree construction spends virtual time.
    fn flush(&self, p: &Participant, staged: Vec<Node>) -> Result<()> {
        let depth = staged.len() as u64;
        let start = p.now_ns();
        let outcomes = self.store.put_batch(p, staged);
        if let Some(m) = &self.metrics {
            m.value_stat("core.meta_commit_depth").record(depth);
            m.time_stat("core.meta_commit_time")
                .record(Duration::from_nanos(p.now_ns() - start));
        }
        for outcome in outcomes {
            outcome?;
        }
        Ok(())
    }

    /// Builds and stores the complete tree of version `v`.
    ///
    /// * `capacity` — the tree capacity recorded for `v` in the history
    ///   (monotonic across versions, covers all of `v`'s extents).
    /// * `entries` — the write's leaf descriptors: sorted, disjoint, and
    ///   each contained in a single leaf range.
    ///
    /// Returns the new root key `(v, [0, capacity))`.
    pub fn build_update(
        &self,
        p: &Participant,
        v: VersionId,
        capacity: u64,
        entries: &[LeafEntry],
    ) -> Result<NodeKey> {
        if entries.is_empty() {
            return Err(Error::EmptyAccess);
        }
        let root_range = ByteRange::new(0, capacity);
        for (i, e) in entries.iter().enumerate() {
            let leaf = self.leaf_range_of(e.file_range.offset);
            if !leaf.contains_range(e.file_range) {
                return Err(Error::Internal(format!(
                    "entry {} {} crosses leaf boundary {leaf}",
                    i, e.file_range
                )));
            }
            if i > 0 && entries[i - 1].file_range.end() > e.file_range.offset {
                return Err(Error::Internal(
                    "leaf entries must be sorted and disjoint".into(),
                ));
            }
            if !root_range.contains_range(e.file_range) {
                return Err(Error::OutOfBounds {
                    requested_end: e.file_range.end(),
                    snapshot_size: capacity,
                });
            }
        }
        let mut staged = Vec::new();
        let root = self.build_node(v, root_range, entries, &mut staged);
        self.flush(p, staged)?;
        Ok(root)
    }

    /// Builds a **tombstone** tree for a write that was ticketed but then
    /// failed (e.g. quorum loss during the data transfer).
    ///
    /// The write's summary is already visible in the history, so
    /// concurrent writers may have linked to `(v, range)` node keys for
    /// every range the summary advertises — those nodes must exist. A
    /// tombstone creates exactly that node set, but with **empty leaf
    /// entries backlinked to the previous toucher**, making the failed
    /// write a semantic no-op: readers resolve straight through it.
    pub fn build_tombstone(
        &self,
        p: &Participant,
        v: VersionId,
        capacity: u64,
        extents: &ExtentList,
    ) -> Result<NodeKey> {
        if extents.is_empty() {
            return Err(Error::EmptyAccess);
        }
        let root_range = ByteRange::new(0, capacity);
        let mut staged = Vec::new();
        let root = self.build_tombstone_node(v, root_range, extents, &mut staged);
        self.flush(p, staged)?;
        Ok(root)
    }

    fn build_tombstone_node(
        &self,
        v: VersionId,
        range: ByteRange,
        extents: &ExtentList,
        staged: &mut Vec<Node>,
    ) -> NodeKey {
        let key = NodeKey::new(self.blob, v, range);
        let body = if range.len == self.config.leaf_size {
            NodeBody::Leaf {
                entries: Vec::new(),
                backlink: self
                    .history
                    .latest_toucher(v, range)
                    .map(|(u, _)| NodeKey::new(self.blob, u, range)),
            }
        } else {
            let (lo, hi) = range.split_at(range.offset + range.len / 2);
            let link = |half: ByteRange, staged: &mut Vec<Node>| -> Option<NodeKey> {
                if !extents.overlaps_range(half) {
                    self.link_for(v, half, staged)
                } else {
                    Some(self.build_tombstone_node(v, half, extents, staged))
                }
            };
            NodeBody::Inner {
                left: link(lo, staged),
                right: link(hi, staged),
            }
        };
        staged.push(Node { key, body });
        key
    }

    fn leaf_range_of(&self, pos: u64) -> ByteRange {
        let start = pos / self.config.leaf_size * self.config.leaf_size;
        ByteRange::new(start, self.config.leaf_size)
    }

    fn build_node(
        &self,
        v: VersionId,
        range: ByteRange,
        entries: &[LeafEntry],
        staged: &mut Vec<Node>,
    ) -> NodeKey {
        debug_assert!(!entries.is_empty());
        let key = NodeKey::new(self.blob, v, range);
        let body = if range.len == self.config.leaf_size {
            // `build_update` checked the entries sorted and disjoint, so
            // they cover the leaf iff each starts where the last ended.
            let covered_to = entries.iter().try_fold(range.offset, |end, e| {
                (e.file_range.offset == end).then(|| e.file_range.end())
            });
            // A fully-overwritten leaf cuts the backlink chain: readers
            // never need older content for this range.
            let backlink = if covered_to == Some(range.end()) {
                None
            } else {
                self.history
                    .latest_toucher(v, range)
                    .map(|(u, _)| NodeKey::new(self.blob, u, range))
            };
            NodeBody::Leaf {
                entries: entries.to_vec(),
                backlink,
            }
        } else {
            let (lo, hi) = range.split_at(range.offset + range.len / 2);
            NodeBody::Inner {
                left: self.child_link(v, lo, entries, staged),
                right: self.child_link(v, hi, entries, staged),
            }
        };
        staged.push(Node { key, body });
        key
    }

    fn child_link(
        &self,
        v: VersionId,
        range: ByteRange,
        entries: &[LeafEntry],
        staged: &mut Vec<Node>,
    ) -> Option<NodeKey> {
        let lo = entries.partition_point(|e| e.file_range.end() <= range.offset);
        let hi = entries.partition_point(|e| e.file_range.offset < range.end());
        if lo < hi {
            Some(self.build_node(v, range, &entries[lo..hi], staged))
        } else {
            self.link_for(v, range, staged)
        }
    }

    /// Computes the link target for a range this write does not touch:
    /// the latest earlier toucher's node — materializing *filler* inner
    /// nodes when the target version's tree was smaller than `range`
    /// (capacity expansion).
    fn link_for(&self, v: VersionId, range: ByteRange, staged: &mut Vec<Node>) -> Option<NodeKey> {
        match self.history.latest_toucher(v, range) {
            None => None,
            Some((u, cap_u)) if cap_u >= range.end() => Some(NodeKey::new(self.blob, u, range)),
            Some((_, _)) => {
                // The latest toucher's tree is smaller than this range.
                // Capacity monotonicity guarantees the range starts at 0
                // (see history tests) and that nothing was ever written in
                // the upper half.
                debug_assert_eq!(range.offset, 0, "undersized link off origin");
                let (lo, hi) = range.split_at(range.offset + range.len / 2);
                let left = self.link_for(v, lo, staged);
                let right = self.link_for(v, hi, staged);
                debug_assert!(right.is_none(), "toucher beyond its capacity");
                let key = NodeKey::new(self.blob, v, range);
                staged.push(Node {
                    key,
                    body: NodeBody::Inner { left, right },
                });
                Some(key)
            }
        }
    }
}

/// Where one resolved byte range's data lives.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct PieceSource {
    /// Chunk holding the bytes.
    pub chunk: ChunkId,
    /// Offset of the piece's first byte within the chunk.
    pub chunk_offset: u64,
    /// Replica homes, primary first.
    pub homes: Vec<ProviderId>,
}

/// One contiguous resolved piece of a read: either stored bytes or a hole
/// (never-written bytes that read as zeros).
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct ResolvedPiece {
    /// Absolute file range.
    pub file_range: ByteRange,
    /// Backing chunk, or `None` for a hole.
    pub source: Option<PieceSource>,
}

/// Maps `extents` of the snapshot rooted at `root` onto stored chunks:
/// the one tree walk, which [`NodeStore::resolve`]'s default runs on the
/// client and a metadata server runs where the nodes are. Bytes outside
/// the tree's capacity and never-written gaps come back as holes.
/// Pieces are returned sorted by file offset, and tile `extents`
/// exactly.
///
/// The walk is level-order: every pending node of a level — tree
/// children *and* backlink hops alike — is asked of `fetch_level` at
/// once, which answers one node per key, in order. The store's nodes
/// may have come off the network, so the walk checks that it makes
/// progress — each child covers exactly its half of a range at least two
/// bytes long, each backlink the same leaf range at an older version —
/// and fails typed on a tree that breaks the rule instead of walking it
/// forever: it visits each stored node at most once.
pub fn resolve_with(
    mut fetch_level: impl FnMut(&[NodeKey]) -> Result<Vec<Arc<Node>>>,
    root: Option<NodeKey>,
    extents: &ExtentList,
) -> Result<Vec<ResolvedPiece>> {
    let mut out = Vec::new();
    let inside = root.map_or_else(ExtentList::new, |root| extents.clip(root.range));
    push_holes(&mut out, &extents.subtract(&inside));
    let mut frontier: Vec<(NodeKey, ExtentList)> = match root {
        Some(root) if !inside.is_empty() => vec![(root, inside)],
        _ => Vec::new(),
    };
    while !frontier.is_empty() {
        let keys: Vec<NodeKey> = frontier.iter().map(|(key, _)| *key).collect();
        let nodes = fetch_level(&keys)?;
        let mut next = Vec::new();
        for (node, (key, want)) in nodes.iter().zip(frontier) {
            visit(node, key, &want, &mut out, &mut next)?;
        }
        frontier = next;
    }
    out.sort_by_key(|piece| piece.file_range.offset);
    Ok(out)
}

/// Fetches one traversal level through `store`: `cache` hits are free,
/// all misses ship as **one** [`NodeStore::get_batch`] list-request and
/// are cached.
pub(crate) fn fetch_level(
    store: &(impl NodeStore + ?Sized),
    p: &Participant,
    keys: &[NodeKey],
    cache: Option<&NodeCache>,
) -> Result<Vec<Arc<Node>>> {
    let mut out: Vec<Option<Arc<Node>>> = vec![None; keys.len()];
    let mut miss_idx = Vec::new();
    let mut miss_keys = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        match cache.and_then(|c| c.get(key)) {
            Some(node) => out[i] = Some(node),
            None => {
                miss_idx.push(i);
                miss_keys.push(key);
            }
        }
    }
    if !miss_keys.is_empty() {
        for (i, fetched) in miss_idx.into_iter().zip(store.get_batch(p, &miss_keys)) {
            let node = fetched?;
            if let Some(cache) = cache {
                cache.insert(Arc::clone(&node));
            }
            out[i] = Some(node);
        }
    }
    Ok(out.into_iter().map(|n| n.expect("slot filled")).collect())
}

/// The error for a stored tree the walk refuses to follow.
fn malformed(key: NodeKey, why: &str) -> Error {
    Error::Internal(format!("malformed tree at {key}: {why}"))
}

/// Resolves one fetched node against its wanted extents, emitting
/// pieces/holes and queueing children or backlinks for the next level.
fn visit(
    node: &Node,
    key: NodeKey,
    want: &ExtentList,
    out: &mut Vec<ResolvedPiece>,
    next: &mut Vec<(NodeKey, ExtentList)>,
) -> Result<()> {
    debug_assert!(!want.is_empty());
    match &node.body {
        NodeBody::Inner { left, right } => {
            if key.range.len < 2 {
                return Err(malformed(key, "an inner node too small to split"));
            }
            let mid = key.range.offset + key.range.len / 2;
            let (lo, hi) = key.range.split_at(mid);
            for (half, link) in [(lo, left), (hi, right)] {
                let sub = want.clip(half);
                if sub.is_empty() {
                    continue;
                }
                match link {
                    Some(child) if child.range == half => next.push((*child, sub)),
                    Some(_) => return Err(malformed(key, "a child off its half")),
                    None => push_holes(out, &sub),
                }
            }
        }
        NodeBody::Leaf { entries, backlink } => {
            let remaining = resolve_leaf(key, entries, want, out)?;
            if !remaining.is_empty() {
                match backlink {
                    Some(older) if older.range == key.range && older.version < key.version => {
                        next.push((*older, remaining))
                    }
                    Some(_) => return Err(malformed(key, "a backlink that is not older")),
                    None => push_holes(out, &remaining),
                }
            }
        }
    }
    Ok(())
}

/// Everything a [`reach`] walk visited.
#[derive(Debug, Default)]
pub struct Reached {
    /// Every node key reached.
    pub nodes: HashSet<NodeKey>,
    /// Every chunk named by a reached leaf, with its replica homes.
    pub chunks: HashMap<ChunkId, Vec<ProviderId>>,
}

/// Every node and chunk reachable from `roots` through child links and
/// backlinks, not descending into a key in `skip`: the walk of version
/// GC's mark and sweep and of store-wide repair. Everything below a
/// node is reachable from it, so skipping a key the caller has already
/// accounted for (a live node, one an earlier walk swept) loses nothing.
///
/// Like [`resolve_with`] the walk is level-order, and each level is one
/// [`NodeStore::get_batch`]. Each key is fetched at most once. A key the
/// store lacks fails the walk with the store's error.
pub fn reach(
    store: &(impl NodeStore + ?Sized),
    p: &Participant,
    roots: &[NodeKey],
    skip: &HashSet<NodeKey>,
) -> Result<Reached> {
    let mut reached = Reached::default();
    let mut level = roots.to_vec();
    loop {
        level.retain(|key| !skip.contains(key) && reached.nodes.insert(*key));
        if level.is_empty() {
            return Ok(reached);
        }
        let mut next = Vec::new();
        for node in fetch_level(store, p, &level, None)? {
            match &node.body {
                NodeBody::Inner { left, right } => next.extend(left.iter().chain(right)),
                NodeBody::Leaf { entries, backlink } => {
                    for e in entries {
                        reached
                            .chunks
                            .entry(e.chunk)
                            .or_insert_with(|| e.homes.clone());
                    }
                    next.extend(backlink);
                }
            }
        }
        level = next;
    }
}

/// [`NodeStore::resolve`] without a cache, behind a handle. Kept because
/// `wallbench/src/probes.rs` builds one and times its `resolve`.
#[derive(Debug)]
pub struct TreeReader<'a> {
    store: &'a dyn NodeStore,
}

impl<'a> TreeReader<'a> {
    /// Creates a reader over a store. Kept for `wallbench/src/probes.rs`.
    pub fn new(store: &'a dyn NodeStore) -> Self {
        TreeReader { store }
    }

    /// [`NodeStore::resolve`] without a cache. Kept because
    /// `wallbench/src/probes.rs` times it; new code calls the store.
    pub fn resolve(
        &self,
        p: &Participant,
        root: Option<NodeKey>,
        extents: &ExtentList,
    ) -> Result<Vec<ResolvedPiece>> {
        self.store.resolve(p, root, extents, None)
    }
}

/// Overlays one leaf's entries onto `want`, emitting resolved pieces;
/// returns the extents the leaf did not cover (to be satisfied by the
/// backlink chain or read as holes).
fn resolve_leaf(
    key: NodeKey,
    entries: &[LeafEntry],
    want: &ExtentList,
    out: &mut Vec<ResolvedPiece>,
) -> Result<ExtentList> {
    let mut remaining = want.clone();
    for e in entries {
        let hit = remaining.clip(e.file_range);
        for &r in &hit {
            // The piece's bytes must lie inside the `u64` range a chunk
            // read can name.
            let chunk_offset = e
                .chunk_offset
                .checked_add(r.offset - e.file_range.offset)
                .filter(|start| start.checked_add(r.len).is_some())
                .ok_or_else(|| malformed(key, "an entry past the end of its chunk"))?;
            out.push(ResolvedPiece {
                file_range: r,
                source: Some(PieceSource {
                    chunk: e.chunk,
                    chunk_offset,
                    homes: e.homes.clone(),
                }),
            });
        }
        remaining = remaining.subtract(&hit);
        if remaining.is_empty() {
            break;
        }
    }
    Ok(remaining)
}

fn push_holes(out: &mut Vec<ResolvedPiece>, holes: &ExtentList) {
    for &r in holes {
        out.push(ResolvedPiece {
            file_range: r,
            source: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::WriteSummary;
    use crate::store::MetaStore;
    use atomio_simgrid::clock::run_actors;
    use atomio_simgrid::CostModel;
    use std::sync::Arc;

    const LEAF: u64 = 64;

    struct Fixture {
        store: MetaStore,
        history: VersionHistory,
        config: TreeConfig,
        next_chunk: std::sync::atomic::AtomicU64,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                store: MetaStore::new(4, CostModel::zero()),
                history: VersionHistory::new(),
                config: TreeConfig::new(LEAF),
                next_chunk: std::sync::atomic::AtomicU64::new(0),
            }
        }

        /// Registers a write at the next version and builds its tree;
        /// returns (version, root, entry chunk ids in order).
        fn write(&self, p: &Participant, pairs: &[(u64, u64)]) -> (VersionId, NodeKey) {
            let v = VersionId::new(self.history.len() as u64 + 1);
            let extents = ExtentList::from_pairs(pairs.iter().copied());
            let end = extents.covering_range().end();
            let capacity = self
                .config
                .capacity_for(end)
                .expect("test sizes have a capacity")
                .max(self.history.capacity_of(VersionId::new(v.raw() - 1)));
            self.history.append(WriteSummary {
                version: v,
                extents: Arc::new(extents.clone()),
                capacity,
            });
            let entries = self.entries_for(v, &extents);
            let builder = TreeBuilder::new(BlobId::new(0), &self.store, &self.history, self.config);
            let root = builder.build_update(p, v, capacity, &entries).unwrap();
            (v, root)
        }

        /// Splits extents into leaf-aligned entries with fresh chunk ids.
        fn entries_for(&self, _v: VersionId, extents: &ExtentList) -> Vec<LeafEntry> {
            let geo = atomio_types::ChunkGeometry::new(LEAF);
            geo.split_extents(extents)
                .into_iter()
                .map(|span| LeafEntry {
                    file_range: span.absolute,
                    chunk: ChunkId::new(
                        self.next_chunk
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                    ),
                    chunk_offset: 0,
                    homes: vec![ProviderId::new(0)],
                })
                .collect()
        }

        fn resolve(
            &self,
            p: &Participant,
            root: NodeKey,
            pairs: &[(u64, u64)],
        ) -> Vec<ResolvedPiece> {
            self.store
                .resolve(
                    p,
                    Some(root),
                    &ExtentList::from_pairs(pairs.iter().copied()),
                    None,
                )
                .unwrap()
        }
    }

    #[test]
    fn a_tree_commits_in_one_flush() {
        let store = MetaStore::new(4, CostModel::grid5000());
        let history = VersionHistory::new();
        let config = TreeConfig::new(LEAF);
        let extents = ExtentList::from_pairs([(0u64, LEAF * 8)]);
        history.append(WriteSummary {
            version: VersionId::new(1),
            extents: Arc::new(extents.clone()),
            capacity: LEAF * 8,
        });
        let geo = atomio_types::ChunkGeometry::new(LEAF);
        let entries: Vec<LeafEntry> = geo
            .split_extents(&extents)
            .into_iter()
            .enumerate()
            .map(|(i, span)| LeafEntry {
                file_range: span.absolute,
                chunk: ChunkId::new(i as u64),
                chunk_offset: 0,
                homes: vec![ProviderId::new(0)],
            })
            .collect();
        let metrics = Metrics::new();
        let (_, total) = run_actors(1, |_, p| {
            TreeBuilder::new(BlobId::new(0), &store, &history, config)
                .with_metrics(metrics.clone())
                .build_update(p, VersionId::new(1), LEAF * 8, &entries)
                .unwrap();
        });
        // 8 leaves + 7 inners, all in the one flush — which is where
        // every nanosecond of the build went.
        assert_eq!(store.node_count(), 15);
        let depth = metrics.value_stat("core.meta_commit_depth");
        assert_eq!((depth.count(), depth.sum()), (1, 15));
        let commit = metrics.time_stat("core.meta_commit_time");
        assert!(commit.sum() > Duration::ZERO);
        assert_eq!(commit.sum(), total);
    }

    #[test]
    fn capacity_for_rounds_to_pow2_leaves() {
        let c = TreeConfig::new(64);
        assert_eq!(c.capacity_for(0), Some(64));
        assert_eq!(c.capacity_for(1), Some(64));
        assert_eq!(c.capacity_for(64), Some(64));
        assert_eq!(c.capacity_for(65), Some(128));
        assert_eq!(c.capacity_for(129), Some(256));
        assert_eq!(c.capacity_for(64 * 5), Some(64 * 8));
        // 2^63 is the largest capacity there is; past it nothing covers
        // `end`, whichever of the two steps would have wrapped.
        assert_eq!(c.capacity_for(1 << 63), Some(1 << 63));
        assert_eq!(c.capacity_for((1 << 63) + 1), None);
        assert_eq!(c.capacity_for(u64::MAX), None);
        assert_eq!(TreeConfig::new(1).capacity_for(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_leaf_rejected() {
        let _ = TreeConfig::new(48);
    }

    #[test]
    fn single_write_resolves_back() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, root) = fx.write(p, &[(0, 64), (128, 64)]);
            let pieces = fx.resolve(p, root, &[(0, 256)]);
            // [0,64) chunk0, [64,128) hole, [128,192) chunk1, [192,256) hole.
            assert_eq!(pieces.len(), 4);
            assert_eq!(pieces[0].file_range, ByteRange::new(0, 64));
            assert_eq!(pieces[0].source.as_ref().unwrap().chunk, ChunkId::new(0));
            assert_eq!(pieces[1].file_range, ByteRange::new(64, 64));
            assert!(pieces[1].source.is_none());
            assert_eq!(pieces[2].source.as_ref().unwrap().chunk, ChunkId::new(1));
            assert!(pieces[3].source.is_none());
        });
    }

    #[test]
    fn unaligned_write_keeps_offsets() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            // Write [10, 20): one partial-leaf entry.
            let (_, root) = fx.write(p, &[(10, 10)]);
            let pieces = fx.resolve(p, root, &[(12, 5)]);
            assert_eq!(pieces.len(), 1);
            let src = pieces[0].source.as_ref().unwrap();
            assert_eq!(pieces[0].file_range, ByteRange::new(12, 5));
            // Chunk holds bytes for [10,20); piece starts 2 bytes in.
            assert_eq!(src.chunk_offset, 2);
        });
    }

    #[test]
    fn overwrite_shadows_older_version() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, root1) = fx.write(p, &[(0, 64)]); // chunk 0
            let (_, root2) = fx.write(p, &[(0, 64)]); // chunk 1
            let p1 = fx.resolve(p, root1, &[(0, 64)]);
            let p2 = fx.resolve(p, root2, &[(0, 64)]);
            assert_eq!(p1[0].source.as_ref().unwrap().chunk, ChunkId::new(0));
            assert_eq!(p2[0].source.as_ref().unwrap().chunk, ChunkId::new(1));
        });
    }

    #[test]
    fn partial_overwrite_follows_backlink() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, _r1) = fx.write(p, &[(0, 64)]); // v1: whole leaf, chunk 0
            let (_, root2) = fx.write(p, &[(16, 16)]); // v2: middle, chunk 1
            let pieces = fx.resolve(p, root2, &[(0, 64)]);
            assert_eq!(pieces.len(), 3);
            assert_eq!(pieces[0].file_range, ByteRange::new(0, 16));
            assert_eq!(pieces[0].source.as_ref().unwrap().chunk, ChunkId::new(0));
            assert_eq!(pieces[0].source.as_ref().unwrap().chunk_offset, 0);
            assert_eq!(pieces[1].file_range, ByteRange::new(16, 16));
            assert_eq!(pieces[1].source.as_ref().unwrap().chunk, ChunkId::new(1));
            assert_eq!(pieces[2].file_range, ByteRange::new(32, 32));
            assert_eq!(pieces[2].source.as_ref().unwrap().chunk, ChunkId::new(0));
            assert_eq!(pieces[2].source.as_ref().unwrap().chunk_offset, 32);
        });
    }

    #[test]
    fn untouched_subtrees_are_shared() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, _) = fx.write(p, &[(0, 256)]); // v1: 4 leaves
            let before = fx.store.node_count();
            let (_, _) = fx.write(p, &[(0, 64)]); // v2: 1 leaf
            let added = fx.store.node_count() - before;
            // v2 adds: 1 leaf + path to root (depth 2 inners) = 3 nodes.
            assert_eq!(added, 3, "sharing broken: {added} nodes added");
        });
    }

    #[test]
    fn capacity_expansion_wraps_old_root() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, root1) = fx.write(p, &[(0, 64)]); // cap 64
            assert_eq!(root1.range, ByteRange::new(0, 64));
            let (_, root2) = fx.write(p, &[(64 * 7, 64)]); // cap 512
            assert_eq!(root2.range, ByteRange::new(0, 512));
            // Old data still visible through the expanded tree.
            let pieces = fx.resolve(p, root2, &[(0, 64), (64 * 7, 64)]);
            assert_eq!(pieces.len(), 2);
            assert_eq!(pieces[0].source.as_ref().unwrap().chunk, ChunkId::new(0));
            assert_eq!(pieces[1].source.as_ref().unwrap().chunk, ChunkId::new(1));
        });
    }

    #[test]
    fn expansion_filler_spans_multiple_levels() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, _) = fx.write(p, &[(0, 32)]); // cap 64
                                                  // Jump far: cap 64 -> 1024 (4 doublings).
            let (_, root2) = fx.write(p, &[(64 * 15, 32)]);
            assert_eq!(root2.range.len, 1024);
            let pieces = fx.resolve(p, root2, &[(0, 32), (64 * 15, 32)]);
            assert_eq!(pieces[0].source.as_ref().unwrap().chunk, ChunkId::new(0));
            assert_eq!(pieces[1].source.as_ref().unwrap().chunk, ChunkId::new(1));
            // Gap in between is holes.
            let holes = fx.resolve(p, root2, &[(100, 800)]);
            assert!(holes.iter().all(|piece| piece.source.is_none()));
        });
    }

    #[test]
    fn read_beyond_capacity_is_holes() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, root) = fx.write(p, &[(0, 64)]);
            let pieces = fx.resolve(p, root, &[(0, 64), (1000, 24)]);
            assert_eq!(pieces.len(), 2);
            assert!(pieces[0].source.is_some());
            assert_eq!(pieces[1].file_range, ByteRange::new(1000, 24));
            assert!(pieces[1].source.is_none());
        });
    }

    #[test]
    fn resolve_with_no_root_is_all_holes() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let pieces = fx
                .store
                .resolve(p, None, &ExtentList::from_pairs([(0u64, 128u64)]), None)
                .unwrap();
            assert_eq!(pieces.len(), 1);
            assert!(pieces[0].source.is_none());
        });
    }

    #[test]
    fn empty_update_rejected() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let builder = TreeBuilder::new(BlobId::new(0), &fx.store, &fx.history, fx.config);
            let err = builder
                .build_update(p, VersionId::new(1), 64, &[])
                .unwrap_err();
            assert_eq!(err, Error::EmptyAccess);
        });
    }

    #[test]
    fn entry_crossing_leaf_rejected() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            fx.history.append(WriteSummary {
                version: VersionId::new(1),
                extents: Arc::new(ExtentList::from_pairs([(32u64, 64u64)])),
                capacity: 128,
            });
            let builder = TreeBuilder::new(BlobId::new(0), &fx.store, &fx.history, fx.config);
            let bad = LeafEntry {
                file_range: ByteRange::new(32, 64), // crosses 64-boundary
                chunk: ChunkId::new(0),
                chunk_offset: 0,
                homes: vec![],
            };
            let err = builder
                .build_update(p, VersionId::new(1), 128, &[bad])
                .unwrap_err();
            assert!(matches!(err, Error::Internal(_)));
        });
    }

    #[test]
    fn out_of_order_build_still_resolves() {
        // The forward-reference property: v2's tree can be built BEFORE
        // v1's tree exists, as long as both summaries are in the history.
        // Reads of v2 performed after both builds complete see v1's data
        // where v2 did not write.
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            // Register both writes in ticket order.
            let v1 = VersionId::new(1);
            let v2 = VersionId::new(2);
            let e1 = ExtentList::from_pairs([(0u64, 64u64), (64, 64)]);
            let e2 = ExtentList::from_pairs([(64u64, 64u64)]);
            fx.history.append(WriteSummary {
                version: v1,
                extents: Arc::new(e1.clone()),
                capacity: 128,
            });
            fx.history.append(WriteSummary {
                version: v2,
                extents: Arc::new(e2.clone()),
                capacity: 128,
            });
            let entries1 = fx.entries_for(v1, &e1); // chunks 0,1
            let entries2 = fx.entries_for(v2, &e2); // chunk 2
            let builder = TreeBuilder::new(BlobId::new(0), &fx.store, &fx.history, fx.config);
            // Build v2 FIRST.
            let root2 = builder.build_update(p, v2, 128, &entries2).unwrap();
            let root1 = builder.build_update(p, v1, 128, &entries1).unwrap();
            // v2 sees chunk0 at [0,64) (v1's) and chunk2 at [64,128).
            let pieces = fx.resolve(p, root2, &[(0, 128)]);
            assert_eq!(pieces[0].source.as_ref().unwrap().chunk, ChunkId::new(0));
            assert_eq!(pieces[1].source.as_ref().unwrap().chunk, ChunkId::new(2));
            // v1 sees its own chunks only.
            let pieces1 = fx.resolve(p, root1, &[(0, 128)]);
            assert_eq!(pieces1[0].source.as_ref().unwrap().chunk, ChunkId::new(0));
            assert_eq!(pieces1[1].source.as_ref().unwrap().chunk, ChunkId::new(1));
        });
    }

    #[test]
    fn full_leaf_overwrite_cuts_backlink() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, _) = fx.write(p, &[(0, 64)]);
            let (v2, root2) = fx.write(p, &[(0, 64)]);
            // Fetch v2's leaf node directly and check there is no
            // backlink (readers never walk to v1).
            let leaf = fx
                .store
                .get(p, NodeKey::new(BlobId::new(0), v2, ByteRange::new(0, 64)))
                .unwrap();
            match &leaf.body {
                NodeBody::Leaf { backlink, .. } => assert!(backlink.is_none()),
                _ => panic!("expected leaf"),
            }
            let pieces = fx.resolve(p, root2, &[(0, 64)]);
            assert_eq!(pieces.len(), 1);
        });
    }

    #[test]
    fn tombstone_resolves_through_to_older_data() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, _) = fx.write(p, &[(0, 64), (64, 64)]); // v1: chunks 0,1
                                                            // v2 is ticketed over [32, 96) but fails: tombstone.
            let v2 = VersionId::new(2);
            let ext = ExtentList::from_pairs([(32u64, 64u64)]);
            fx.history.append(WriteSummary {
                version: v2,
                extents: Arc::new(ext.clone()),
                capacity: 128,
            });
            let builder = TreeBuilder::new(BlobId::new(0), &fx.store, &fx.history, fx.config);
            let root2 = builder.build_tombstone(p, v2, 128, &ext).unwrap();
            // Reading v2 shows v1's data everywhere, including inside the
            // failed write's extents.
            let pieces = fx.resolve(p, root2, &[(0, 128)]);
            let chunks: Vec<u64> = pieces
                .iter()
                .map(|pc| pc.source.as_ref().unwrap().chunk.raw())
                .collect();
            assert_eq!(chunks, vec![0, 1], "one piece per backlinked leaf");
            let covered: u64 = pieces.iter().map(|pc| pc.file_range.len).sum();
            assert_eq!(covered, 128);
            // A later writer linking to (v2, ...) keys finds real nodes.
            let (_, root3) = fx.write(p, &[(0, 16)]); // chunk 2
            let pieces = fx.resolve(p, root3, &[(0, 128)]);
            assert_eq!(pieces[0].source.as_ref().unwrap().chunk, ChunkId::new(2));
        });
    }

    #[test]
    fn tombstone_of_never_written_region_is_holes() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let v1 = VersionId::new(1);
            let ext = ExtentList::from_pairs([(0u64, 64u64)]);
            fx.history.append(WriteSummary {
                version: v1,
                extents: Arc::new(ext.clone()),
                capacity: 64,
            });
            let builder = TreeBuilder::new(BlobId::new(0), &fx.store, &fx.history, fx.config);
            let root = builder.build_tombstone(p, v1, 64, &ext).unwrap();
            let pieces = fx.resolve(p, root, &[(0, 64)]);
            assert!(pieces.iter().all(|pc| pc.source.is_none()));
        });
    }

    /// Resolves `[0, 128)` under `root` over exactly `nodes`.
    fn walk_over(nodes: Vec<Node>, root: NodeKey) -> Result<Vec<ResolvedPiece>> {
        let table: HashMap<NodeKey, Arc<Node>> =
            nodes.into_iter().map(|n| (n.key, Arc::new(n))).collect();
        resolve_with(
            |keys| {
                keys.iter()
                    .map(|k| table.get(k).cloned().ok_or(Error::MetadataNodeMissing(0)))
                    .collect()
            },
            Some(root),
            &ExtentList::from_pairs([(0u64, 128u64)]),
        )
    }

    #[test]
    fn a_tree_that_would_not_end_is_refused_typed() {
        let blob = BlobId::new(0);
        let key = |v: u64, offset: u64, len: u64| {
            NodeKey::new(blob, VersionId::new(v), ByteRange::new(offset, len))
        };
        let leaf = |k: NodeKey, backlink: Option<NodeKey>| Node {
            key: k,
            body: NodeBody::Leaf {
                entries: Vec::new(),
                backlink,
            },
        };
        let malformed = |result: Result<Vec<ResolvedPiece>>| matches!(result, Err(Error::Internal(msg)) if msg.starts_with("malformed tree"));
        // An inner node that names itself as its own child.
        let root = key(2, 0, 128);
        let selfish = Node {
            key: root,
            body: NodeBody::Inner {
                left: Some(root),
                right: None,
            },
        };
        assert!(malformed(walk_over(vec![selfish], root)));
        // Two empty leaves backlinked to each other, and one backlinked
        // to itself.
        let (a, b) = (key(2, 0, 128), key(1, 0, 128));
        assert!(malformed(walk_over(
            vec![leaf(a, Some(b)), leaf(b, Some(a))],
            a
        )));
        assert!(malformed(walk_over(vec![leaf(a, Some(a))], a)));
        // An inner node too small to split.
        let tiny = key(1, 0, 1);
        let inner = Node {
            key: tiny,
            body: NodeBody::Inner {
                left: None,
                right: Some(tiny),
            },
        };
        assert!(malformed(walk_over(vec![inner], tiny)));
        // An entry whose chunk range would wrap.
        let wraps = Node {
            key: a,
            body: NodeBody::Leaf {
                entries: vec![LeafEntry {
                    file_range: ByteRange::new(0, 128),
                    chunk: ChunkId::new(1),
                    chunk_offset: u64::MAX - 10,
                    homes: vec![],
                }],
                backlink: None,
            },
        };
        assert!(malformed(walk_over(vec![wraps], a)));
        // A key the store lacks is the store's own typed error.
        assert_eq!(
            walk_over(vec![leaf(a, Some(b))], a),
            Err(Error::MetadataNodeMissing(0))
        );
    }

    #[test]
    fn reach_walks_shared_subtrees_and_backlinks_and_stops_at_skipped_keys() {
        let fx = Fixture::new();
        run_actors(1, |_, p| {
            let (_, root1) = fx.write(p, &[(0, 64), (128, 64)]); // chunks 0,1
            let (_, root2) = fx.write(p, &[(16, 16)]); // chunk 2, partial leaf 0
            let chunk_ids = |reached: &Reached| {
                let mut ids: Vec<u64> = reached.chunks.keys().map(|c| c.raw()).collect();
                ids.sort_unstable();
                ids
            };
            let none = HashSet::new();
            // v2 reaches its root, inner node and leaf, v1's leaf behind
            // the backlink, and v1's shared right subtree (inner + leaf):
            // its own chunk 2, backlinked chunk 0, shared chunk 1.
            let v2 = reach(&fx.store, p, &[root2], &none).unwrap();
            assert_eq!(v2.nodes.len(), 6);
            assert_eq!(chunk_ids(&v2), vec![0, 1, 2]);
            // Both roots at once: v1's five nodes plus v2's own three.
            let both = reach(&fx.store, p, &[root1, root2, root1], &none).unwrap();
            assert_eq!(both.nodes.len(), 8);
            // With v1's nodes skipped, v2 reaches only what is its own.
            let v1 = reach(&fx.store, p, &[root1], &none).unwrap();
            let own = reach(&fx.store, p, &[root2], &v1.nodes).unwrap();
            assert_eq!(own.nodes.len(), 3);
            assert!(own.nodes.iter().all(|key| key.version == root2.version));
            assert_eq!(chunk_ids(&own), vec![2]);
            assert!(reach(&fx.store, p, &[root1], &v1.nodes)
                .unwrap()
                .nodes
                .is_empty());
        });
    }
}
