//! Bench-owned tracing: spans recorded **from outside** the program, at
//! the four client seams it already exposes.
//!
//! A traced run wraps the transport, each chunk store, the node store and
//! each version oracle in the decorators below. Each decorator opens a
//! span around the call it forwards; spans nest through a per-thread
//! stack, so a span's parent is whatever span the same client thread had
//! open when it started. One client op is sequential on its thread, which
//! is what makes "self time = span minus children" sum to the root.
//!
//! Spans stay in memory until the run ends ([`take`]), then
//! [`write_json`] dumps them and [`summarize`] folds them into per-name
//! totals. On a thread with no collector installed the decorators only
//! pay one thread-local check.

use crate::recorder::Recorder;
use atomio_meta::{Node, NodeKey, NodeStore, VersionHistory};
use atomio_provider::{ChunkStore, ScrubReport};
use atomio_rpc::{Request, Response, Transport};
use atomio_simgrid::{CostModel, Participant, Resource, SimTime};
use atomio_types::{
    ByteRange, ChunkId, ExtentList, ProviderId, Result, RetentionPolicy, VersionId,
};
use atomio_version::{GcFloor, LeaseGrant, SnapshotRecord, Ticket, VersionOracle};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The client op this span belongs to (set by [`root`]).
    pub op: u32,
    /// Work items crossing the boundary (nodes in a metadata batch).
    pub items: u32,
}

struct Collector {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// False while the thread runs an op it does not record (see
    /// [`set_recording`]).
    recording: bool,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts collecting spans on the calling thread.
pub fn install(capacity: usize) {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op: 0,
            recording: true,
        })
    });
}

/// Switches recording on the calling thread on or off between ops. A
/// traced run records half its ops, so the ops it does not record —
/// same deployment, same minute — are the base its overhead is measured
/// against.
pub fn set_recording(on: bool) {
    COLLECTOR.with(|c| {
        if let Some(c) = c.borrow_mut().as_mut() {
            c.recording = on;
        }
    });
}

/// Stops collecting and returns the calling thread's spans.
pub fn take() -> Vec<Span> {
    COLLECTOR
        .with(|c| c.borrow_mut().take())
        .map(|c| c.spans)
        .unwrap_or_default()
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let end = now_ns();
            COLLECTOR.with(|c| {
                if let Some(c) = c.borrow_mut().as_mut() {
                    c.spans[index as usize].end_ns = end;
                    c.open.pop();
                }
            });
        }
    }
}

fn open(name: &'static str, items: u32, op: Option<u32>) -> SpanGuard {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let Some(c) = c.as_mut().filter(|c| c.recording) else {
            return SpanGuard(None);
        };
        if let Some(op) = op {
            c.op = op;
        }
        let index = c.spans.len() as u32;
        c.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: c.open.last().copied(),
            op: c.op,
            items,
        });
        c.open.push(index);
        // Stamp the start last, so the collector's own bookkeeping sits
        // in the parent's self time and not in this span.
        c.spans[index as usize].start_ns = now_ns();
        SpanGuard(Some(index))
    })
}

/// Opens a span under whatever span this thread has open.
pub fn span(name: &'static str) -> SpanGuard {
    open(name, 0, None)
}

/// Opens the root span of client op `op`.
pub fn root(name: &'static str, op: u32) -> SpanGuard {
    open(name, 0, Some(op))
}

// ---------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------

/// The span name of one request: `rpc.call.<variant>`. Variants no
/// workload issues in its timed window share one name.
fn rpc_span_name(request: &Request) -> &'static str {
    match request {
        Request::Ping => "rpc.call.Ping",
        Request::PutChunk { .. } => "rpc.call.PutChunk",
        Request::GetChunkRange { .. } => "rpc.call.GetChunkRange",
        Request::MetaPutBatch { .. } => "rpc.call.MetaPutBatch",
        Request::MetaGetBatch { .. } => "rpc.call.MetaGetBatch",
        Request::VmTicket { .. } => "rpc.call.VmTicket",
        Request::VmTicketAppend { .. } => "rpc.call.VmTicketAppend",
        Request::VmPublish { .. } => "rpc.call.VmPublish",
        Request::VmIsPublished { .. } => "rpc.call.VmIsPublished",
        Request::VmLatest { .. } => "rpc.call.VmLatest",
        Request::VmSnapshot { .. } => "rpc.call.VmSnapshot",
        _ => "rpc.call.Other",
    }
}

/// Spans every round trip of the wrapped transport.
#[derive(Debug)]
pub struct TracedTransport(pub Arc<dyn Transport>);

impl Transport for TracedTransport {
    fn call(&self, request: &Request, payload: &[u8]) -> Result<(Response, Bytes)> {
        let _span = span(rpc_span_name(request));
        self.0.call(request, payload)
    }
}

/// Spans the data-path calls of the wrapped chunk store as
/// `provider.put` / `provider.get`.
#[derive(Debug)]
pub struct TracedChunkStore(pub Arc<dyn ChunkStore>);

impl ChunkStore for TracedChunkStore {
    fn id(&self) -> ProviderId {
        self.0.id()
    }
    fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        let _span = span("provider.put");
        self.0.put_chunk(p, chunk, data)
    }
    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        let _span = span("provider.put");
        self.0.put_chunk_at(arrival, chunk, data)
    }
    fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        let _span = span("provider.get");
        self.0.get_chunk(p, chunk)
    }
    fn get_chunk_range(&self, p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes> {
        let _span = span("provider.get");
        self.0.get_chunk_range(p, chunk, range)
    }
    fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        let _span = span("provider.get");
        self.0.get_chunk_range_at(arrival, chunk, range)
    }
    fn has_chunk(&self, chunk: ChunkId) -> bool {
        self.0.has_chunk(chunk)
    }
    fn chunk_count(&self) -> usize {
        self.0.chunk_count()
    }
    fn bytes_stored(&self) -> u64 {
        self.0.bytes_stored()
    }
    fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        self.0.evict_chunk(chunk)
    }
    fn evict_chunk_batch(&self, chunks: &[ChunkId]) -> u64 {
        self.0.evict_chunk_batch(chunks)
    }
    fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        self.0.checksum_of(chunk)
    }
    fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
        self.0.corrupt_chunk(chunk, byte)
    }
    fn scrub(&self, p: &Participant) -> ScrubReport {
        self.0.scrub(p)
    }
    fn chunk_len(&self, chunk: ChunkId) -> Option<u64> {
        self.0.chunk_len(chunk)
    }
    fn max_chunk_id(&self) -> Option<ChunkId> {
        self.0.max_chunk_id()
    }
    fn disk(&self) -> &Resource {
        self.0.disk()
    }
    fn nic(&self) -> &Resource {
        self.0.nic()
    }
    fn cost(&self) -> &CostModel {
        self.0.cost()
    }
}

/// Spans the batch calls of the wrapped node store as `meta.put_batch` /
/// `meta.get_batch`, with the batch size as the span's item count.
#[derive(Debug)]
pub struct TracedNodeStore(pub Arc<dyn NodeStore>);

impl NodeStore for TracedNodeStore {
    fn put_batch(&self, p: &Participant, nodes: Vec<Node>) -> Vec<Result<()>> {
        let _span = open("meta.put_batch", nodes.len() as u32, None);
        self.0.put_batch(p, nodes)
    }
    fn get_batch(&self, p: &Participant, keys: &[NodeKey]) -> Vec<Result<Arc<Node>>> {
        let _span = open("meta.get_batch", keys.len() as u32, None);
        self.0.get_batch(p, keys)
    }
    fn contains(&self, key: NodeKey) -> bool {
        self.0.contains(key)
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn evict(&self, key: NodeKey) {
        self.0.evict(key)
    }
    fn evict_batch(&self, keys: &[NodeKey]) -> u64 {
        self.0.evict_batch(keys)
    }
    fn list_keys(&self) -> Vec<NodeKey> {
        self.0.list_keys()
    }
}

/// Spans the write- and read-path calls of the wrapped version oracle as
/// `version.<call>`.
#[derive(Debug)]
pub struct TracedOracle(pub Arc<dyn VersionOracle>);

impl VersionOracle for TracedOracle {
    fn history(&self) -> &Arc<VersionHistory> {
        self.0.history()
    }
    fn ticket(&self, p: &Participant, extents: &ExtentList) -> Result<Ticket> {
        let _span = span("version.ticket");
        self.0.ticket(p, extents)
    }
    fn ticket_append(&self, p: &Participant, len: u64) -> Result<(Ticket, ExtentList)> {
        let _span = span("version.ticket");
        self.0.ticket_append(p, len)
    }
    fn publish(&self, p: &Participant, ticket: Ticket, root: NodeKey) -> Result<()> {
        let _span = span("version.publish");
        self.0.publish(p, ticket, root)
    }
    fn is_published(&self, version: VersionId) -> Result<bool> {
        self.0.is_published(version)
    }
    fn wait_published(&self, p: &Participant, version: VersionId) -> Result<()> {
        let _span = span("version.wait_published");
        self.0.wait_published(p, version)
    }
    fn latest(&self, p: &Participant) -> Result<SnapshotRecord> {
        let _span = span("version.snapshot");
        self.0.latest(p)
    }
    fn snapshot(&self, p: &Participant, version: VersionId) -> Result<SnapshotRecord> {
        let _span = span("version.snapshot");
        self.0.snapshot(p, version)
    }
    fn set_retention(&self, p: &Participant, policy: RetentionPolicy) -> Result<()> {
        self.0.set_retention(p, policy)
    }
    fn lease_acquire(
        &self,
        p: &Participant,
        version: VersionId,
        ttl_ms: u64,
    ) -> Result<LeaseGrant> {
        self.0.lease_acquire(p, version, ttl_ms)
    }
    fn lease_renew(&self, p: &Participant, lease: u64, ttl_ms: u64) -> Result<LeaseGrant> {
        self.0.lease_renew(p, lease, ttl_ms)
    }
    fn lease_release(&self, p: &Participant, lease: u64) -> Result<()> {
        self.0.lease_release(p, lease)
    }
    fn gc_floor(&self, p: &Participant) -> Result<GcFloor> {
        self.0.gc_floor(p)
    }
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

/// Everything the per-layer metrics need about one span name.
#[derive(Default, Clone)]
pub struct NameStats {
    pub calls: u64,
    pub items: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Recorder,
}

/// Per-name totals over the spans of every client thread.
#[derive(Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Root spans (one per client op) and the time they cover.
    pub roots: u64,
    pub root_ns: u64,
}

impl Summary {
    pub fn get(&self, name: &str) -> NameStats {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Self time of every span whose name starts with `prefix`.
    pub fn self_ns_under(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// |Σ self − Σ root| ÷ Σ root: 0 when every span nests inside its
    /// parent and siblings do not overlap, as a sequential op guarantees.
    pub fn self_sum_error_share(&self) -> f64 {
        let all_self: u64 = self.by_name.values().map(|s| s.self_ns).sum();
        if self.root_ns == 0 {
            return 0.0;
        }
        (all_self as f64 - self.root_ns as f64).abs() / self.root_ns as f64
    }
}

/// A span's self time: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Folds the spans of each client thread into per-name totals.
pub fn summarize(threads: &[Vec<Span>]) -> Summary {
    let mut summary = Summary::default();
    for spans in threads {
        let own = self_times(spans);
        for (s, own) in spans.iter().zip(own) {
            let duration = s.end_ns - s.start_ns;
            let stats = summary.by_name.entry(s.name).or_default();
            stats.calls += 1;
            stats.items += s.items as u64;
            stats.total_ns += duration;
            stats.self_ns += own;
            stats.durations.record(duration);
            if s.parent.is_none() {
                summary.roots += 1;
                summary.root_ns += duration;
            }
        }
    }
    summary
}

/// Dumps every span as one JSON document: `spans` rows are
/// `[thread, index, name, start_ns, end_ns, parent_index_or_null, op,
/// items]`, `parent` indexing the same thread's rows.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    threads: &[Vec<Span>],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"columns\":[\"thread\",\"index\",\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\",\"items\"],\"spans\":["
    )?;
    let mut first = true;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n[{t},{i},\"{}\",{},{},{parent},{},{}]",
                if first { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.items
            )?;
            first = false;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root [0,100): a [10,40) holding a1 [15,25); b [40,70) adjacent
        // to a; c [80,90).
        let spans = vec![
            s("root", 0, 100, None),
            s("a", 10, 40, Some(0)),
            s("a1", 15, 25, Some(1)),
            s("b", 40, 70, Some(0)),
            s("c", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 30, 10]);
        let summary = summarize(&[spans]);
        assert_eq!(summary.roots, 1);
        assert_eq!(summary.root_ns, 100);
        assert_eq!(summary.self_sum_error_share(), 0.0);
        assert_eq!(summary.get("a").total_ns, 30);
        assert_eq!(summary.get("a").self_ns, 20);
    }

    #[test]
    fn overlapping_siblings_show_up_as_self_sum_error() {
        // Two children that together exceed the parent: not a sequential
        // op, and the budget check must say so.
        let spans = vec![
            s("root", 0, 100, None),
            s("x", 0, 80, Some(0)),
            s("y", 20, 100, Some(0)),
        ];
        let summary = summarize(&[spans]);
        assert!(summary.self_sum_error_share() > 0.5);
    }

    #[test]
    fn guards_nest_through_the_thread_stack() {
        install(16);
        {
            let _root = root("core.write_list", 7);
            {
                let _put = span("provider.put");
                let _call = span("rpc.call.PutChunk");
            }
            let _meta = open("meta.put_batch", 511, None);
        }
        let spans = take();
        let names: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.op, s.items))
            .collect();
        assert_eq!(
            names,
            vec![
                ("core.write_list", None, 7, 0),
                ("provider.put", Some(0), 7, 0),
                ("rpc.call.PutChunk", Some(1), 7, 0),
                ("meta.put_batch", Some(0), 7, 511),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        // A paused collector and a missing one both make the guards inert.
        install(4);
        set_recording(false);
        drop(span("provider.put"));
        set_recording(true);
        drop(span("provider.get"));
        assert_eq!(
            take().iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["provider.get"]
        );
        let _nothing = span("provider.put");
        assert!(take().is_empty());
    }
}
