//! The four workloads, their closed-loop drivers and their correctness
//! gates.
//!
//! Every workload runs against a fresh [`Deployment`] of the three real
//! servers. Load is closed loop from this one process: each client is a
//! thread that issues its next op when the previous one returned. **Each
//! client registers on its own [`SimClock`]**: the sequenced clock runs
//! one actor of a shared clock at a time and a poller sleeps until every
//! other actor sleeps, which over real sockets starves a writer for
//! seconds; one clock per client is also what a deployment is (one rank,
//! one process).
//!
//! Op counts are a fixed function of the workload and `--seconds`, not a
//! deadline, so sample counts, RPC counts, stored bytes and recovery work
//! repeat exactly from run to run.

use crate::deploy::{connect, cpu_ticks, peak_rss_kib, Backend, Client, Deployment, Env};
use crate::mem::WarmStock;
use crate::recorder::Recorder;
use crate::trace::{self, Span, TracedOracle};
use atomio_core::{Blob, ReadVersion};
use atomio_meta::NodeKey;
use atomio_provider::chunk_checksum;
use atomio_rpc::RemoteVersionManager;
use atomio_simgrid::{DetRng, Participant, SimClock};
use atomio_types::stamp::WriteStamp;
use atomio_types::{BlobId, ByteRange, ClientId, ExtentList, VersionId};
use atomio_version::VersionOracle;
use atomio_workloads::verify::{check_serializable_from, replay, WriteRecord};
use atomio_workloads::{CheckpointWorkload, TileWorkload};
use bytes::Bytes;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The paper's §VI series-2 pattern: a 3×3 grid of 256×256-element tiles
/// of 8-byte elements with an 8-element ghost border. One tile is 256
/// extents of 2 KiB (512 KiB) overlapping its neighbours.
pub fn tile_shape() -> TileWorkload {
    TileWorkload::new(3, 3, 256, 256, 8, 8, 8)
}

/// Nine 2 MiB slabs of 16-byte cells with a 32-cell halo: one contiguous
/// extent per rank, 32 full 64 KiB chunks plus the halo's two partial ones.
pub fn slab_shape() -> CheckpointWorkload {
    CheckpointWorkload::new(9, 131_072, 16, 32)
}

const RANKS: usize = 9;
/// Distinct payloads per (client, rank) in the write pools: consecutive
/// writes of one rank always differ, so read-back identifies the last.
const POOL_SEQS: usize = 2;
/// `tile_read` set-up writes this many rounds of nine tiles…
const PREFILL_ROUNDS: usize = 4;
/// …and reads cover this many of the newest snapshots (every round but
/// the first, during which the dataset is still growing): their ~1950
/// tree nodes are twice what the client cache is set to hold.
const READ_WINDOW: u64 = 27;
/// One `tile_read` op in this many is checked against a local replay.
const READ_SAMPLE_EVERY: usize = 16;
/// An untraced pass keeps setting up (and measures on the last) until
/// this much time or [`MAX_SETUPS`] is spent: a 10 ms set-up needs more
/// than a few samples for its median to hold still.
const SETUP_BUDGET: Duration = Duration::from_millis(1000);
const MAX_SETUPS: usize = 15;
/// Each client first issues 1/`WARMUP_SHARE` of its ops untimed, so the
/// window starts on busy CPUs, dialed sockets and grown tables.
const WARMUP_SHARE: usize = 10;
/// A traced pass records the spans of alternate blocks of this many ops:
/// a multiple of every period in an op sequence (`grant_publish` adds a
/// `latest()` to every 8th op), so both halves see the same mix.
const SPAN_BLOCK: usize = 8;
/// Windows a pass's completions are cut into (see [`windows`]): at least
/// 100 ops each at the run length `BENCHMARK.json` fixes, so at least five
/// beyond a window's 95th percentile.
const WINDOWS: usize = 4;
const GRANT_BLOBS_PER_CLIENT: usize = 64;
const GRANT_LEN: u64 = 65_536;
/// Every this-many-th `grant_publish` op also asks for `latest()`.
const GRANT_LATEST_EVERY: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TileWrite,
    TileRead,
    SlabWrite,
    GrantPublish,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TileWrite,
        Workload::TileRead,
        Workload::SlabWrite,
        Workload::GrantPublish,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TileWrite => "tile_write",
            Workload::TileRead => "tile_read",
            Workload::SlabWrite => "slab_write",
            Workload::GrantPublish => "grant_publish",
        }
    }

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload {name:?} (tile_write|tile_read|slab_write|grant_publish)")
            })
    }

    fn backend(self) -> Backend {
        match self {
            Workload::TileWrite | Workload::TileRead => Backend::Disk,
            Workload::SlabWrite | Workload::GrantPublish => Backend::Memory,
        }
    }

    /// Client threads. `slab_write` has one: client and provider server
    /// already fill this box's two cores, and two clients measured lower.
    pub fn clients(self) -> usize {
        match self {
            Workload::SlabWrite => 1,
            _ => 2,
        }
    }

    /// Ops each client issues for a run sized to `seconds`. The rates are
    /// what the seed commit sustains per client on the 2-core box the
    /// benchmark was defined on; they size the run and are not a target.
    pub fn ops_per_client(self, seconds: f64) -> usize {
        let (per_second, at_least) = match self {
            Workload::TileWrite => (45.0, 5),
            // One pass over the 234 (snapshot, rank) pairs read per 5 s round.
            Workload::TileRead => (46.8, 16),
            // Kept to ~60 % of the window: every slab stays resident in
            // the provider server (2 MiB per op).
            Workload::SlabWrite => (80.0, 9),
            Workload::GrantPublish => (8000.0, 512),
        };
        ((per_second * seconds).round() as usize).max(at_least)
    }

    /// The stock of host-backed pages a pass sized to `seconds` needs (see
    /// [`crate::mem`]): what its writes, warm-up included, leave resident
    /// in the servers or their page cache, and a margin. `None` for
    /// workloads that write nothing.
    pub fn warm_stock(self, seconds: f64) -> Result<Option<WarmStock>, String> {
        let per_op = match self {
            Workload::TileWrite => tile_shape().bytes_per_process(),
            Workload::SlabWrite => slab_shape().bytes_for(1),
            Workload::TileRead | Workload::GrantPublish => return Ok(None),
        };
        let n = self.ops_per_client(seconds);
        let issued = (self.clients() * (n + n / WARMUP_SHARE)) as u64;
        let bytes = issued * per_op * 9 / 8 + (32 << 20);
        WarmStock::new(bytes as usize)
            .map(Some)
            .map_err(|e| format!("map {bytes} bytes of warm stock: {e}"))
    }

    /// Upper estimate of spans one traced op records (sizes the
    /// collector so it never reallocates inside the timed window).
    fn spans_per_op(self) -> usize {
        match self {
            Workload::TileWrite | Workload::TileRead => 640,
            Workload::SlabWrite => 96,
            Workload::GrantPublish => 8,
        }
    }

    fn root_span(self) -> &'static str {
        match self {
            Workload::TileWrite | Workload::SlabWrite => "core.write_list",
            Workload::TileRead => "core.read_list",
            Workload::GrantPublish => "version.grant_publish",
        }
    }
}

/// One client's closed loop: `warmup` untimed ops, then `n` timed ones.
struct Loop {
    warmup: usize,
    n: usize,
    /// Name of the root span of a traced op.
    root: &'static str,
    /// Op id of this client's first op (ids are unique across clients).
    first_op_id: usize,
    /// Record the spans of every other [`SPAN_BLOCK`] of timed ops.
    traced: bool,
}

/// What one client thread measured.
struct Timeline {
    /// Latencies of the ops whose spans were recorded and of the ops run
    /// with recording off. An untraced run records nothing: all of its
    /// ops are in the second.
    latency_spanned: Recorder,
    latency_plain: Recorder,
    failed: u64,
    first_start: Instant,
    /// When each timed op returned and the nanoseconds it took, in issue
    /// order.
    completions: Vec<(Instant, u64)>,
    spans: Vec<Span>,
}

impl Loop {
    /// Issues the ops back to back on the calling thread. `op` is the timed
    /// call; `after` runs outside the op timer with the op's result;
    /// `open_window` runs between the warm-up and the first timed op.
    fn drive<R>(
        &self,
        mut op: impl FnMut(usize) -> atomio_types::Result<R>,
        mut after: impl FnMut(usize, R),
        open_window: impl FnOnce(),
    ) -> Timeline {
        let (mut latency_spanned, mut latency_plain) = (Recorder::default(), Recorder::default());
        let mut failed = 0;
        let mut settle = |i: usize, outcome: atomio_types::Result<R>| match outcome {
            Ok(result) => after(i, result),
            Err(e) => {
                failed += 1;
                eprintln!("op {} failed: {e}", self.first_op_id + i);
            }
        };
        for i in 0..self.warmup {
            let outcome = op(i);
            settle(i, outcome);
        }
        let mut completions = Vec::with_capacity(self.n);
        open_window();
        let first_start = Instant::now();
        for i in self.warmup..self.warmup + self.n {
            let spanned = self.traced && (i / SPAN_BLOCK).is_multiple_of(2);
            trace::set_recording(spanned);
            let span = trace::root(self.root, (self.first_op_id + i) as u32);
            let start = Instant::now();
            let outcome = op(i);
            let end = Instant::now();
            drop(span);
            let latency = if spanned {
                &mut latency_spanned
            } else {
                &mut latency_plain
            };
            let took = (end - start).as_nanos() as u64;
            latency.record(took);
            completions.push((end, took));
            settle(i, outcome);
        }
        Timeline {
            latency_spanned,
            latency_plain,
            failed,
            first_start,
            completions,
            spans: trace::take(),
        }
    }
}

/// What one of a pass's [`WINDOWS`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Completions ÷ the time from the previous window's last completion
    /// (the first op's start) to this window's last.
    pub ops_per_s: f64,
    /// The value at rank ⌈0.5 n⌉ and ⌈0.95 n⌉ of the window's n sorted
    /// op latencies, nanoseconds.
    pub p50_ns: f64,
    pub p95_ns: f64,
}

/// Cuts a pass's completions (all clients merged, in completion order)
/// into [`WINDOWS`] equal runs of consecutive ops and measures each alone.
/// The shared host this runs on only ever adds time, and adds it in bursts
/// of tens of ops up to a few seconds: a burst lands in some windows, and
/// the quieter windows still say what the deployment does (see
/// `metrics::end_to_end`).
fn windows(first_start: Instant, completions: &[(Instant, u64)]) -> Vec<Window> {
    let mut from = first_start;
    completions
        .chunks(completions.len().div_ceil(WINDOWS).max(1))
        .map(|window| {
            let to = window.last().expect("chunks are never empty").0;
            let ops_per_s = window.len() as f64 / (to - from).as_secs_f64().max(1e-9);
            from = to;
            let mut took: Vec<u64> = window.iter().map(|&(_, ns)| ns).collect();
            took.sort_unstable();
            let at = |percent: usize| took[(took.len() * percent).div_ceil(100) - 1] as f64;
            Window {
                ops_per_s,
                p50_ns: at(50),
                p95_ns: at(95),
            }
        })
        .collect()
}

/// Everything one pass over a workload measured.
pub struct Pass {
    pub ops: u64,
    pub failed: u64,
    /// Rate and per-op latency (around the one `write_list` / `read_list`
    /// / ticket+publish call) of every timed op, by window.
    pub windows: Vec<Window>,
    /// In a traced pass, the latency split by whether the op's spans were
    /// recorded (half are).
    pub latency_spanned: Recorder,
    pub latency_plain: Recorder,
    /// User payload bytes of the ops attempted (granted bytes on
    /// `grant_publish`, where no payload moves).
    pub user_bytes: u64,
    /// One entry per set-up performed before the timed window.
    pub setup_s: Vec<f64>,
    /// From starting the client threads (after the last set-up and the
    /// page stock's refill) to every client's last warm-up op: a tenth as
    /// many ops as the window times, on the deployment the window uses.
    pub warmup_s: f64,
    /// Clock ticks of bench, provider, meta and version server over the
    /// timed window.
    pub cpu_ticks: [u64; 4],
    /// Σ `VmHWM` of the three servers at the end of the timed window.
    pub server_rss_kib: u64,
    pub rpc_calls: u64,
    pub rpc_tx_bytes: u64,
    pub rpc_rx_bytes: u64,
    /// Mean chunks per `write_list`/`read_list`, from the store's own
    /// `core.transfer_depth` statistic.
    pub chunks_per_op: f64,
    /// Client node-cache hits ÷ lookups over the timed window.
    pub cache_hit_share: f64,
    /// `tile_write` only: SIGKILL to serving again, and bytes under the
    /// data dirs per user byte written.
    pub recover_s: f64,
    pub stored_bytes_per_user_byte: f64,
    /// Empty when every correctness gate held.
    pub problems: Vec<String>,
    /// One span list per client thread (empty unless traced).
    pub spans: Vec<Vec<Span>>,
}

/// Parameters of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// The state set-up leaves behind for the timed window.
struct Prepared {
    deployment: Deployment,
    client: Client,
    /// The blob of the data workloads.
    blob: Option<Blob>,
    /// The per-client oracles of `grant_publish`.
    oracles: Vec<Vec<Arc<dyn VersionOracle>>>,
}

fn stamp_payload(writer: usize, seq: usize, extents: &ExtentList) -> (WriteStamp, Bytes) {
    let stamp = WriteStamp::new(ClientId::new(writer as u64), seq as u64);
    (stamp, Bytes::from(stamp.payload_for(extents)))
}

/// Payloads generated before any timer starts, indexed `[writer][seq]`.
struct Pool {
    extents: Vec<ExtentList>,
    payloads: Vec<Vec<(WriteStamp, Bytes)>>,
}

impl Pool {
    /// `writers` payload sets per rank (`writer = rank * writers + w`),
    /// `seqs` payloads each.
    fn new(extents: Vec<ExtentList>, writers: usize, seqs: usize) -> Self {
        let payloads = (0..extents.len() * writers)
            .map(|writer| {
                (0..seqs)
                    .map(|seq| stamp_payload(writer, seq, &extents[writer / writers]))
                    .collect()
            })
            .collect();
        Pool { extents, payloads }
    }
}

fn own_participant() -> Participant {
    SimClock::new().register()
}

/// Spawns + dials + creates blobs (+ prefills `tile_read`): everything
/// before the first timed op can start.
fn prepare(
    env: &Env,
    spec: &PassSpec,
    tag: &str,
    prefill: Option<&Pool>,
) -> Result<Prepared, String> {
    let deployment = Deployment::start(env, spec.workload.backend(), tag)?;
    let client = connect(&deployment, spec.seed, spec.traced)?;
    let mut prepared = Prepared {
        deployment,
        client,
        blob: None,
        oracles: Vec::new(),
    };
    let p = own_participant();
    if spec.workload == Workload::GrantPublish {
        for c in 0..spec.workload.clients() {
            let mut mine: Vec<Arc<dyn VersionOracle>> = Vec::new();
            for b in 0..GRANT_BLOBS_PER_CLIENT {
                let blob = (c * GRANT_BLOBS_PER_CLIENT + b + 1) as u64;
                let remote: Arc<dyn VersionOracle> = Arc::new(RemoteVersionManager::new(
                    blob,
                    Arc::clone(&prepared.client.version_transport),
                ));
                // One round trip makes the server host the blob before
                // the timed window.
                remote
                    .latest(&p)
                    .map_err(|e| format!("create blob {blob}: {e}"))?;
                mine.push(if spec.traced {
                    Arc::new(TracedOracle(remote))
                } else {
                    remote
                });
            }
            prepared.oracles.push(mine);
        }
        return Ok(prepared);
    }
    let blob = prepared.client.store.create_blob();
    if let Some(pool) = prefill {
        for round in 0..PREFILL_ROUNDS {
            for rank in 0..RANKS {
                let (_, payload) = &pool.payloads[rank][round];
                blob.write_list(&p, &pool.extents[rank], payload.clone())
                    .map_err(|e| format!("prefill round {round} rank {rank}: {e}"))?;
            }
        }
    }
    prepared.blob = Some(blob);
    Ok(prepared)
}

/// Counters sampled immediately before and after the timed window.
struct Counters {
    cpu_ticks: [u64; 4],
    rpc: [u64; 3],
    transfer_depth: (u64, u64),
    cache: (u64, u64),
}

fn sample(prepared: &Prepared) -> Counters {
    let [provider, meta, version] = prepared.deployment.servers().map(|s| s.pid());
    let rpc = &prepared.client.rpc;
    let depth = prepared
        .client
        .store
        .metrics()
        .value_stat("core.transfer_depth");
    Counters {
        cpu_ticks: [std::process::id(), provider, meta, version].map(cpu_ticks),
        rpc: ["rpc.messages", "rpc.bytes_tx", "rpc.bytes_rx"].map(|name| rpc.counter(name).get()),
        transfer_depth: (depth.sum(), depth.count()),
        cache: prepared
            .blob
            .as_ref()
            .and_then(|b| b.node_cache())
            .map_or((0, 0), |c| c.stats()),
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A write a client issued, for the replay gates.
struct Written {
    version: VersionId,
    stamp: WriteStamp,
    rank: usize,
}

/// A sampled `tile_read` result.
struct ReadSample {
    version: u64,
    rank: usize,
    checksum: u64,
}

/// Checks sampled read checksums against a local replay of the prefill:
/// the model applies the prefill writes in version order and each sample
/// is compared when the model reaches its version.
fn check_read_samples(pool: &Pool, dataset_bytes: usize, samples: &[ReadSample]) -> Vec<String> {
    let mut model = vec![0u8; dataset_bytes];
    let mut problems = Vec::new();
    for version in 1..=(PREFILL_ROUNDS * RANKS) as u64 {
        let (round, rank) = (
            (version as usize - 1) / RANKS,
            (version as usize - 1) % RANKS,
        );
        let (_, payload) = &pool.payloads[rank][round];
        for (range, at) in pool.extents[rank].with_buffer_offsets() {
            model[range.offset as usize..range.end() as usize]
                .copy_from_slice(&payload[at as usize..(at + range.len) as usize]);
        }
        for s in samples.iter().filter(|s| s.version == version) {
            let mut expected = Vec::with_capacity(payload.len());
            for range in &pool.extents[s.rank] {
                expected.extend_from_slice(&model[range.offset as usize..range.end() as usize]);
            }
            problems.extend(mismatch(
                &format!("tile_read v{version} rank {}", s.rank),
                chunk_checksum(&expected),
                s.checksum,
            ));
        }
    }
    problems
}

fn mismatch(what: &str, expected: u64, got: u64) -> Option<String> {
    (expected != got)
        .then(|| format!("{what}: checksum {got:#018x}, local replay says {expected:#018x}"))
}

/// Read-back must equal the replay of every write in version order, bit
/// for bit; the last `RANKS` writes must also pass the serializability
/// verifier over the state before them.
fn check_replay(
    what: &str,
    readback: &[u8],
    extents: &[ExtentList],
    mut written: Vec<Written>,
    witness_last_round: bool,
) -> Vec<String> {
    written.sort_by_key(|w| w.version);
    let mut problems = Vec::new();
    for (i, w) in written.iter().enumerate() {
        if w.version.raw() != i as u64 + 1 {
            problems.push(format!(
                "{what}: versions not dense at {} (got {})",
                i + 1,
                w.version
            ));
            return problems;
        }
    }
    let records: Vec<WriteRecord> = written
        .iter()
        .map(|w| WriteRecord::new(w.stamp, extents[w.rank].clone()))
        .collect();
    let order: Vec<usize> = (0..records.len()).collect();
    if replay(readback.len(), &records, &order) != readback {
        problems.push(format!(
            "{what}: read-back differs from the replay of {} writes in version order",
            records.len()
        ));
    }
    if witness_last_round && records.len() >= RANKS {
        let split = records.len() - RANKS;
        let base = replay(readback.len(), &records[..split], &order[..split]);
        if let Err(violation) = check_serializable_from(Some(&base), readback, &records[split..]) {
            problems.push(format!(
                "{what}: final round is not serializable: {violation:?}"
            ));
        }
    }
    problems
}

/// What one client thread hands back.
struct ClientOutput {
    timeline: Timeline,
    /// The write workloads: every acknowledged write.
    written: Vec<Written>,
    /// `tile_read`: the sampled reads.
    samples: Vec<ReadSample>,
    /// `grant_publish`: publishes per blob slot.
    granted: Vec<u64>,
}

/// Client `c`'s closed loop over the workload's op.
fn run_client(
    spec: &PassSpec,
    c: usize,
    lp: &Loop,
    pool: Option<&Pool>,
    prepared: &Prepared,
    open_window: impl FnOnce(),
) -> ClientOutput {
    let w = spec.workload;
    let clients = w.clients();
    let p = own_participant();
    let (mut written, mut samples) = (Vec::new(), Vec::new());
    let mut granted = vec![0u64; GRANT_BLOBS_PER_CLIENT];
    let timeline = match w {
        Workload::TileWrite | Workload::SlabWrite => {
            let pool = pool.expect("write pool");
            let blob = prepared.blob.as_ref().expect("blob");
            // (rank, payload) of op `i`: two tile writers walk the grid
            // interleaved, the slab writer round-robin.
            let pick = |i: usize| {
                let rank = match w {
                    Workload::TileWrite => (2 * i + c) % RANKS,
                    _ => i % RANKS,
                };
                (
                    rank,
                    &pool.payloads[rank * clients + c][(i / RANKS) % POOL_SEQS],
                )
            };
            lp.drive(
                |i| {
                    let (rank, (_, payload)) = pick(i);
                    blob.write_list(&p, &pool.extents[rank], payload.clone())
                },
                |i, version| {
                    let (rank, &(stamp, _)) = pick(i);
                    written.push(Written {
                        version,
                        stamp,
                        rank,
                    });
                },
                open_window,
            )
        }
        Workload::TileRead => {
            let pool = pool.expect("prefill pool");
            let blob = prepared.blob.as_ref().expect("blob");
            // What a read costs depends on what it reads: a row of a tile
            // resolves to one chunk piece, or to two where the right
            // neighbour's ghost columns were written since. So every client
            // reads every (snapshot, rank) pair of the window once, and the
            // seed only orders them. Left out are the pairs whose rows
            // resolve to three pieces — a centre-column tile just after
            // its left neighbour was written — because they are 3.7 % of
            // the pairs: with them the 95th percentile sits on the edge
            // between two cost classes and flips from run to run.
            let newest = (PREFILL_ROUNDS * RANKS) as u64;
            let three_pieces = |version: u64, rank: usize| {
                rank % 3 == 1 && (version as usize - 1) % RANKS + 1 == rank
            };
            let mut pairs: Vec<(u64, usize)> = (0..READ_WINDOW)
                .flat_map(|back| (0..RANKS).map(move |rank| (newest - back, rank)))
                .filter(|&(version, rank)| !three_pieces(version, rank))
                .collect();
            DetRng::new(spec.seed)
                .substream(c as u64)
                .shuffle(&mut pairs);
            let picks: Vec<(u64, usize)> = (0..lp.warmup + lp.n)
                .map(|i| pairs[i % pairs.len()])
                .collect();
            lp.drive(
                |i| {
                    let (version, rank) = picks[i];
                    let at = ReadVersion::At(VersionId::new(version));
                    blob.read_list(&p, at, &pool.extents[rank])
                },
                |i, data| {
                    if i % READ_SAMPLE_EVERY == 0 {
                        let (version, rank) = picks[i];
                        samples.push(ReadSample {
                            version,
                            rank,
                            checksum: chunk_checksum(&data),
                        });
                    }
                },
                open_window,
            )
        }
        Workload::GrantPublish => {
            let oracles = &prepared.oracles[c];
            let granted = &mut granted;
            lp.drive(
                |i| {
                    let b = i % GRANT_BLOBS_PER_CLIENT;
                    let (ticket, _) = oracles[b].ticket_append(&p, GRANT_LEN)?;
                    granted[b] += 1;
                    if ticket.version.raw() != granted[b] {
                        return Err(atomio_types::Error::Internal(format!(
                            "blob slot {b}: grant {} is version {}",
                            granted[b], ticket.version
                        )));
                    }
                    let blob = BlobId::new((c * GRANT_BLOBS_PER_CLIENT + b + 1) as u64);
                    let range = ByteRange::new(0, ticket.capacity);
                    let root = NodeKey::new(blob, ticket.version, range);
                    oracles[b].publish(&p, ticket, root)?;
                    if i % GRANT_LATEST_EVERY == 0 {
                        oracles[b].latest(&p)?;
                    }
                    Ok(())
                },
                |_, ()| {},
                open_window,
            )
        }
    };
    ClientOutput {
        timeline,
        written,
        samples,
        granted,
    }
}

/// Runs one pass: set-up, the timed window, then the workload's
/// correctness gates. `stock` is what [`Workload::warm_stock`] returned for
/// a pass of this size; one stock serves every pass of a run.
pub fn run_pass(env: &Env, spec: &PassSpec, stock: Option<&WarmStock>) -> Result<Pass, String> {
    let w = spec.workload;
    let clients = w.clients();
    let n = w.ops_per_client(spec.seconds);
    let tile = tile_shape();
    let slab = slab_shape();

    // Inputs, generated before any timer starts.
    let tile_extents = || (0..RANKS).map(|r| tile.extents_for(r)).collect::<Vec<_>>();
    let pool = match w {
        Workload::TileWrite => Some(Pool::new(tile_extents(), clients, POOL_SEQS)),
        Workload::TileRead => Some(Pool::new(tile_extents(), 1, PREFILL_ROUNDS)),
        Workload::SlabWrite => Some(Pool::new(
            (0..RANKS).map(|r| slab.extents_for(r)).collect(),
            1,
            POOL_SEQS,
        )),
        Workload::GrantPublish => None,
    };

    let mut setup_s = Vec::new();
    let mut prepared = None;
    let setups_started = Instant::now();
    for round in 0..MAX_SETUPS {
        // Only an untraced pass reports set-up time.
        if round > 0 && (spec.traced || setups_started.elapsed() >= SETUP_BUDGET) {
            break;
        }
        drop(prepared.take());
        let started = Instant::now();
        let tag = format!("{}-{round}", w.name());
        let prefill = pool.as_ref().filter(|_| w == Workload::TileRead);
        prepared = Some(prepare(env, spec, &tag, prefill)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");
    if let Some(stock) = stock {
        // Whatever an earlier pass's servers held is free again.
        stock.refill();
        stock.release();
    }

    // Warm-up, then the timed window. The counters are sampled between
    // the two, while every client waits at the second barrier.
    let warmup = n / WARMUP_SHARE;
    let per_client = warmup + n;
    let (warmed_up, window_open) = (Barrier::new(clients + 1), Barrier::new(clients + 1));
    let (mut before, mut warmup_s) = (None, 0.0);
    let warmup_started = Instant::now();
    let outputs: Vec<ClientOutput> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (warmed_up, window_open) = (&warmed_up, &window_open);
                let (pool, prepared) = (pool.as_ref(), &prepared);
                s.spawn(move || {
                    let lp = Loop {
                        warmup,
                        n,
                        root: w.root_span(),
                        first_op_id: c * per_client,
                        traced: spec.traced,
                    };
                    run_client(spec, c, &lp, pool, prepared, || {
                        warmed_up.wait();
                        window_open.wait();
                        if spec.traced {
                            trace::install(n * w.spans_per_op());
                        }
                    })
                })
            })
            .collect();
        warmed_up.wait();
        warmup_s = warmup_started.elapsed().as_secs_f64();
        before = Some(sample(&prepared));
        window_open.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let before = before.expect("sampled at the window start");
    let after = sample(&prepared);
    let server_rss_kib = prepared
        .deployment
        .servers()
        .iter()
        .map(|s| peak_rss_kib(s.pid()))
        .sum();

    let (mut latency_spanned, mut latency_plain) = (Recorder::default(), Recorder::default());
    let (mut failed, mut spans, mut written, mut samples) = (0, Vec::new(), Vec::new(), Vec::new());
    let (mut completions, mut granted) = (Vec::new(), Vec::new());
    let first_start = outputs
        .iter()
        .map(|o| o.timeline.first_start)
        .min()
        .expect("a client");
    for output in outputs {
        latency_spanned.merge(&output.timeline.latency_spanned);
        latency_plain.merge(&output.timeline.latency_plain);
        failed += output.timeline.failed;
        completions.extend(output.timeline.completions);
        spans.push(output.timeline.spans);
        written.extend(output.written);
        samples.extend(output.samples);
        granted.push(output.granted);
    }
    completions.sort_unstable();
    let ops = (clients * n) as u64;
    // Writes the servers must hold: warm-up writes count too.
    let issued = (clients * per_client) as u64;
    let delta = |a: u64, b: u64| a.saturating_sub(b);
    let depth_ops = delta(after.transfer_depth.1, before.transfer_depth.1);
    let (hits, misses) = (
        delta(after.cache.0, before.cache.0),
        delta(after.cache.1, before.cache.1),
    );
    let mut pass = Pass {
        ops,
        failed,
        windows: windows(first_start, &completions),
        latency_spanned,
        latency_plain,
        user_bytes: match w {
            Workload::TileWrite | Workload::TileRead => ops * tile.bytes_per_process(),
            Workload::SlabWrite => (warmup..per_client)
                .map(|i| slab.bytes_for(i % RANKS))
                .sum(),
            Workload::GrantPublish => ops * GRANT_LEN,
        },
        setup_s,
        warmup_s,
        cpu_ticks: std::array::from_fn(|i| delta(after.cpu_ticks[i], before.cpu_ticks[i])),
        server_rss_kib,
        rpc_calls: delta(after.rpc[0], before.rpc[0]),
        rpc_tx_bytes: delta(after.rpc[1], before.rpc[1]),
        rpc_rx_bytes: delta(after.rpc[2], before.rpc[2]),
        chunks_per_op: share(
            delta(after.transfer_depth.0, before.transfer_depth.0),
            depth_ops,
        ),
        cache_hit_share: share(hits, hits + misses),
        recover_s: 0.0,
        stored_bytes_per_user_byte: 0.0,
        problems: Vec::new(),
        spans,
    };
    if failed > 0 {
        pass.problems.push(format!("{failed} of {ops} ops failed"));
    }

    // Correctness gates, outside every timer but recover_s's own.
    let p = own_participant();
    match w {
        Workload::TileWrite => {
            let blob = prepared.blob.clone().expect("blob");
            let pool = pool.as_ref().expect("write pool");
            pass.stored_bytes_per_user_byte = share(
                prepared.deployment.stored_bytes(),
                issued * tile.bytes_per_process(),
            );
            // Every acknowledged write must be readable from what the
            // servers recover after SIGKILL. (The OS page cache survives
            // a process kill, so this checks the recovery path, not the
            // device's flush.)
            let crashed = Instant::now();
            prepared.deployment.crash_and_restart()?;
            let deadline = crashed + Duration::from_secs(60);
            loop {
                match blob.latest(&p) {
                    Ok(snapshot) if snapshot.version.raw() == issued - failed => break,
                    Ok(snapshot) if Instant::now() > deadline => {
                        pass.problems.push(format!(
                            "after restart latest() is {} but {} writes were acknowledged",
                            snapshot.version,
                            issued - failed
                        ));
                        break;
                    }
                    Err(e) if Instant::now() > deadline => {
                        pass.problems
                            .push(format!("after restart latest() fails: {e}"));
                        break;
                    }
                    _ => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            let one_tile = blob.read_list(&p, ReadVersion::Latest, &pool.extents[0]);
            pass.recover_s = crashed.elapsed().as_secs_f64();
            if let Err(e) = one_tile {
                pass.problems
                    .push(format!("after restart one tile does not read back: {e}"));
            }
            let full = ExtentList::single(ByteRange::new(0, tile.dataset_bytes()));
            match blob.read_list(&p, ReadVersion::Latest, &full) {
                Ok(readback) => pass.problems.extend(check_replay(
                    w.name(),
                    &readback,
                    &pool.extents,
                    written,
                    true,
                )),
                Err(e) => pass
                    .problems
                    .push(format!("read-back after restart failed: {e}")),
            }
        }
        Workload::SlabWrite => {
            let blob = prepared.blob.clone().expect("blob");
            let pool = pool.as_ref().expect("write pool");
            let full = ExtentList::single(ByteRange::new(0, slab.file_bytes()));
            match blob.read_list(&p, ReadVersion::Latest, &full) {
                Ok(readback) => pass.problems.extend(check_replay(
                    w.name(),
                    &readback,
                    &pool.extents,
                    written,
                    false,
                )),
                Err(e) => pass.problems.push(format!("read-back failed: {e}")),
            }
        }
        Workload::TileRead => {
            let pool = pool.as_ref().expect("prefill pool");
            pass.problems.extend(check_read_samples(
                pool,
                tile.dataset_bytes() as usize,
                &samples,
            ));
        }
        Workload::GrantPublish => {
            for (c, counts) in granted.iter().enumerate() {
                for (b, &count) in counts.iter().enumerate() {
                    match prepared.oracles[c][b].latest(&p) {
                        Ok(snapshot) if snapshot.version.raw() == count => {}
                        Ok(snapshot) => pass.problems.push(format!(
                            "client {c} blob slot {b}: {count} publishes but latest() is {}",
                            snapshot.version
                        )),
                        Err(e) => pass
                            .problems
                            .push(format!("client {c} blob slot {b}: latest() fails: {e}")),
                    }
                }
            }
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TracedChunkStore, TracedNodeStore};
    use atomio_core::{Store, StoreConfig};
    use atomio_meta::{MetaStore, NodeStore, TreeConfig, VersionHistory};
    use atomio_provider::{ChunkStore, DataProvider, ProviderManager};
    use atomio_simgrid::{CostModel, FaultInjector};
    use atomio_types::ProviderId;
    use atomio_version::{TicketMode, VersionManager};

    /// A small tile grid with the same structure as [`tile_shape`].
    fn small_tiles() -> TileWorkload {
        TileWorkload::new(3, 3, 8, 8, 16, 2, 2)
    }

    fn in_process_store(traced: bool) -> Store {
        let config = StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(256)
            .with_data_providers(4)
            .with_meta_shards(2)
            .with_seed(11);
        let faults = Arc::new(FaultInjector::new(0));
        let stores = (0..4)
            .map(|i| {
                let plain: Arc<dyn ChunkStore> = Arc::new(DataProvider::new(
                    ProviderId::new(i),
                    CostModel::zero(),
                    Arc::clone(&faults),
                ));
                if traced {
                    Arc::new(TracedChunkStore(plain)) as Arc<dyn ChunkStore>
                } else {
                    plain
                }
            })
            .collect();
        let manager = Arc::new(ProviderManager::from_stores(
            stores,
            config.allocation,
            faults,
            config.seed,
        ));
        let plain: Arc<dyn NodeStore> = Arc::new(MetaStore::new(2, CostModel::zero()));
        let meta = if traced {
            Arc::new(TracedNodeStore(plain)) as Arc<dyn NodeStore>
        } else {
            plain
        };
        let store = Store::with_substrates(config, manager, meta);
        if !traced {
            return store;
        }
        // Wrap in-process oracles the way a traced run wraps remote ones.
        store.with_version_oracles(|_| {
            Arc::new(TracedOracle(Arc::new(VersionManager::new(
                Arc::new(VersionHistory::new()),
                TreeConfig::new(256),
                CostModel::zero(),
                TicketMode::Pipelined,
            ))))
        })
    }

    /// Two rounds of nine overlapping tile writes, then the observables.
    fn tile_rounds(store: &Store) -> (Vec<u64>, Vec<u8>, Vec<Written>) {
        let tiles = small_tiles();
        let pool = Pool::new((0..RANKS).map(|r| tiles.extents_for(r)).collect(), 1, 2);
        let blob = store.create_blob();
        let p = own_participant();
        trace::install(4096);
        let mut written = Vec::new();
        for seq in 0..2 {
            for rank in 0..RANKS {
                let _root = trace::root("core.write_list", (seq * RANKS + rank) as u32);
                let (stamp, payload) = &pool.payloads[rank][seq];
                let version = blob
                    .write_list(&p, &pool.extents[rank], payload.clone())
                    .unwrap();
                written.push(Written {
                    version,
                    stamp: *stamp,
                    rank,
                });
            }
        }
        // The read-back belongs to no op: keep its spans out.
        trace::set_recording(false);
        let full = ExtentList::single(ByteRange::new(0, tiles.dataset_bytes()));
        let readback = blob.read_list(&p, ReadVersion::Latest, &full).unwrap();
        let chain = written.iter().map(|w| w.version.raw()).collect();
        (chain, readback, written)
    }

    #[test]
    fn decorated_store_reads_back_the_same_bytes_and_version_chain() {
        let (plain_chain, plain_bytes, _) = tile_rounds(&in_process_store(false));
        assert!(trace::take().iter().all(|s| s.name == "core.write_list"));
        let (traced_chain, traced_bytes, written) = tile_rounds(&in_process_store(true));
        let spans = trace::take();
        assert_eq!(plain_chain, traced_chain);
        assert_eq!(plain_bytes, traced_bytes);
        assert_eq!(plain_chain, (1..=18).collect::<Vec<u64>>());

        // The decorators saw the work and the budget adds up.
        let summary = trace::summarize(&[spans]);
        assert_eq!(summary.roots, 18);
        assert!(summary.get("provider.put").calls >= 18);
        assert_eq!(summary.get("meta.put_batch").calls, 18);
        assert!(summary.get("meta.put_batch").items > 18);
        assert_eq!(summary.get("version.ticket").calls, 18);
        assert_eq!(summary.get("version.publish").calls, 18);
        assert!(summary.self_sum_error_share() < 1e-9);

        // And the replay gate accepts it.
        let tiles = small_tiles();
        let extents: Vec<_> = (0..RANKS).map(|r| tiles.extents_for(r)).collect();
        assert_eq!(
            check_replay("test", &traced_bytes, &extents, written, true),
            Vec::<String>::new()
        );
    }

    #[test]
    fn replay_gate_rejects_a_flipped_byte_and_a_version_gap() {
        let (_, mut bytes, written) = tile_rounds(&in_process_store(false));
        trace::take();
        let tiles = small_tiles();
        let extents: Vec<_> = (0..RANKS).map(|r| tiles.extents_for(r)).collect();
        bytes[100] ^= 1;
        let problems = check_replay("test", &bytes, &extents, written, true);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("differs from the replay")),
            "{problems:?}"
        );

        let gap = vec![Written {
            version: VersionId::new(2),
            stamp: WriteStamp::new(ClientId::new(0), 0),
            rank: 0,
        }];
        let problems = check_replay("test", &bytes, &extents, gap, false);
        assert!(problems[0].contains("not dense"), "{problems:?}");
    }

    #[test]
    fn read_sample_gate_fails_when_one_expected_checksum_byte_is_flipped() {
        let tiles = small_tiles();
        let pool = Pool::new(
            (0..RANKS).map(|r| tiles.extents_for(r)).collect(),
            1,
            PREFILL_ROUNDS,
        );
        // What a correct read of (version 14, rank 2) returns: the local
        // model itself, taken from a second replay.
        let honest = |version: u64, rank: usize| {
            let mut model = vec![0u8; tiles.dataset_bytes() as usize];
            for v in 1..=version as usize {
                let (round, r) = ((v - 1) / RANKS, (v - 1) % RANKS);
                let (_, payload) = &pool.payloads[r][round];
                for (range, at) in pool.extents[r].with_buffer_offsets() {
                    model[range.offset as usize..range.end() as usize]
                        .copy_from_slice(&payload[at as usize..(at + range.len) as usize]);
                }
            }
            let mut out = Vec::new();
            for range in &pool.extents[rank] {
                out.extend_from_slice(&model[range.offset as usize..range.end() as usize]);
            }
            chunk_checksum(&out)
        };
        let good = ReadSample {
            version: 14,
            rank: 2,
            checksum: honest(14, 2),
        };
        let bad = ReadSample {
            version: 14,
            rank: 2,
            checksum: honest(14, 2) ^ 0x100,
        };
        let dataset = tiles.dataset_bytes() as usize;
        assert!(check_read_samples(&pool, dataset, &[good]).is_empty());
        let problems = check_read_samples(&pool, dataset, &[bad]);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("local replay says"), "{problems:?}");
    }

    #[test]
    fn a_burst_lands_in_its_window_and_nowhere_else() {
        let t0 = Instant::now();
        // 400 ops of 4 ms back to back, but for one burst of 30 at 6 ms.
        let mut end = t0;
        let completions: Vec<(Instant, u64)> = (0..400u64)
            .map(|i| {
                let took = match i {
                    210..=239 => 6_000_000,
                    _ => 4_000_000 + i,
                };
                end += Duration::from_nanos(took);
                (end, took)
            })
            .collect();
        let measured = windows(t0, &completions);
        assert_eq!(measured.len(), WINDOWS);
        // Ranks ⌈0.5 n⌉ and ⌈0.95 n⌉ of a window of 100: the 50th and the
        // 95th smallest.
        assert_eq!(measured[0].p50_ns, 4_000_049.0);
        assert_eq!(measured[0].p95_ns, 4_000_094.0);
        assert!((measured[0].ops_per_s - 250.0).abs() < 0.01);
        // The burst's window reads the burst in its tail and its rate;
        // its median and the other windows do not.
        assert_eq!(measured[2].p95_ns, 6_000_000.0);
        assert!(measured[2].p50_ns < 4_001_000.0);
        assert!((measured[2].ops_per_s - 100.0 / 0.46).abs() < 0.1);
        for quiet in [0, 1, 3] {
            assert!(measured[quiet].p95_ns < 4_001_000.0);
            assert!(measured[quiet].ops_per_s > 249.9);
        }
        // Fewer ops than windows: one window per op, never an empty one.
        assert_eq!(windows(t0, &completions[..3]).len(), 3);
        assert_eq!(windows(t0, &[]), Vec::new());
    }

    #[test]
    fn op_counts_scale_with_seconds_and_never_reach_zero() {
        for w in Workload::ALL {
            assert!(w.ops_per_client(0.0) >= 5);
            assert_eq!(w.ops_per_client(10.0) * 2, w.ops_per_client(20.0));
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("tile").is_err());
    }
}
