//! Pluggable client-side transports.
//!
//! A [`Transport`] moves one encoded request to a service and brings the
//! response back — its payload one buffer ([`Transport::call`]) or a
//! batch of them written straight out, never joined
//! ([`Transport::call_vectored`]). Two implementations, one in process
//! and one over sockets:
//!
//! * [`Loopback`] — in-process: the frame is encoded and decoded through
//!   the full wire codec, then handed to the [`Service`] directly. No
//!   sockets, no real latency — the default deployment, and the one every
//!   committed benchmark result was produced on.
//! * [`MuxTransport`] — *the* socket transport: one persistent
//!   `std::net` connection per server. Writers enqueue encoded frames on
//!   it; its reader thread demultiplexes responses by request id into
//!   per-call wakeups, so any number of concurrent callers share it with
//!   no head-of-line blocking. A frame too large to be worth copying
//!   into the queue is gathered onto the socket by its caller instead.
//!
//! Mid-call failures are **not** silently retried (the ops are not all
//! idempotent); they surface as typed [`Error::Transport`] values so the
//! provider manager's failover policy decides. A connection failure
//! fails every call in flight on it; the next call redials.

use crate::proto::{Request, Response};
use crate::services::Service;
use crate::wire::{self, as_slices, Frame};
use atomio_simgrid::metrics::Counter;
use atomio_simgrid::Metrics;
use atomio_types::{Error, Result, TransportErrorKind};
use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Decode, Encode};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Moves one request/payload pair to a service, returns its response.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Performs one RPC round trip.
    fn call(&self, request: &Request, payload: &[u8]) -> Result<(Response, Bytes)>;

    /// One round trip whose payload is the concatenation of `parts` — a
    /// batch of chunks, each still in its own buffer. The default joins
    /// them and calls [`Self::call`]; the transports of this crate write
    /// header and parts straight out instead, so batching chunks into
    /// one frame copies no payload byte that a frame per chunk did not.
    fn call_vectored(&self, request: &Request, parts: &[Bytes]) -> Result<(Response, Bytes)> {
        self.call(request, &parts.concat())
    }
}

/// Counter names the transports publish into a [`Metrics`] registry.
pub mod counters {
    /// Round trips performed.
    pub const MESSAGES: &str = "rpc.messages";
    /// Bytes put on the wire (request frames, payloads included).
    pub const BYTES_TX: &str = "rpc.bytes_tx";
    /// Bytes read off the wire (response frames, payloads included).
    pub const BYTES_RX: &str = "rpc.bytes_rx";
    /// Connect attempts beyond the first.
    pub const RETRIES: &str = "rpc.retries";
    /// Peak concurrent in-flight calls on one mux transport
    /// (high-watermark, not a running sum).
    pub const INFLIGHT_PEAK: &str = "rpc.inflight_peak";
    /// Connections dialed by mux transports (redials after a severed
    /// connection count again).
    pub const POOL_CONNS: &str = "rpc.pool_conns";
    /// Nanoseconds callers spent queued behind a mux connection's writer
    /// before their frame hit the socket.
    pub const MUX_QUEUE_TIME: &str = "rpc.mux_queue_time";
    /// Connections the server currently holds open (a gauge: rises on
    /// accept, falls on reap).
    pub const CONNS_OPEN: &str = "rpc.conns_open";
    /// Most connections the server ever held open at once
    /// (high-watermark).
    pub const CONNS_PEAK: &str = "rpc.conns_peak";
    /// Connections the server accepted (admission-rejected ones
    /// included).
    pub const ACCEPTS: &str = "rpc.accepts";
    /// Connections refused at admission with a typed
    /// [`Busy`](crate::proto::Response::Busy) because `max_conns` were
    /// already open.
    pub const ADMISSION_REJECTS: &str = "rpc.admission_rejects";
    /// Times the reactor thread returned from `epoll_wait`.
    pub const REACTOR_WAKEUPS: &str = "rpc.reactor_wakeups";
}

/// The counters every round trip bumps, resolved from the registry once
/// per transport: a lookup by name is a map search under a lock plus an
/// `Arc` clone, too dear to pay per call.
#[derive(Debug, Clone)]
struct CallCounters {
    messages: Arc<Counter>,
    bytes_tx: Arc<Counter>,
    bytes_rx: Arc<Counter>,
}

impl CallCounters {
    fn new(metrics: &Metrics) -> Self {
        CallCounters {
            messages: metrics.counter(counters::MESSAGES),
            bytes_tx: metrics.counter(counters::BYTES_TX),
            bytes_rx: metrics.counter(counters::BYTES_RX),
        }
    }

    /// Counts one round trip. Every transport funnels through this with
    /// the byte totals returned by the frame codec — request and response
    /// frames both include their out-of-band payload bytes — so
    /// [`Loopback`] and [`MuxTransport`] report identical totals for
    /// identical workloads (pinned by `tests/transport_equivalence.rs`).
    fn record(&self, tx: u64, rx: u64) {
        self.messages.inc();
        self.bytes_tx.add(tx);
        self.bytes_rx.add(rx);
    }
}

/// Tuning knobs for the socket transport ([`MuxTransport`] reads the
/// dial and timeout fields) and the server-side dispatcher
/// (`server_workers`, `max_conns` and `max_inflight_per_conn`, which the
/// server binaries' CLI flags set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcConfig {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Per-call response deadline: how long a call waits for the
    /// connection's reader thread to deliver its response (the socket
    /// itself carries no read timeout).
    pub read_timeout: Duration,
    /// Socket write timeout of the connection.
    pub write_timeout: Duration,
    /// Connect attempts beyond the first before giving up.
    pub connect_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff: Duration,
    /// Read by nothing: a [`MuxTransport`] holds one connection. Kept
    /// only because the frozen benchmark sources (`wallbench/src`) set it.
    pub pool_conns: usize,
    /// Size of the server's shared dispatch worker pool.
    pub server_workers: usize,
    /// Admission cap: connections beyond this are accepted, answered
    /// with a typed [`crate::proto::Response::Busy`], and closed —
    /// instead of hanging in the backlog or resetting.
    pub max_conns: usize,
    /// Backpressure cap: requests one connection may have in dispatch
    /// at once. A connection at the cap has its reads parked (`EPOLLIN`
    /// unregistered) until responses drain.
    pub max_inflight_per_conn: usize,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            connect_retries: 3,
            backoff: Duration::from_millis(10),
            pool_conns: 1,
            server_workers: 4,
            max_conns: 1024,
            max_inflight_per_conn: 64,
        }
    }
}

/// The socket transport [`dial`] builds. One variant, and no choice: it
/// exists only because the frozen benchmark sources
/// (`wallbench/src/{deploy,probes}.rs`) call
/// `dial(addr, RpcMode::Mux, cfg, metrics)`; the next benchmark PR
/// deletes the enum and the parameter together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcMode {
    /// [`MuxTransport`].
    Mux,
}

/// Builds the socket transport for `addr` — a [`MuxTransport`] —
/// publishing per-RPC counters into `metrics` when provided. `_mode` is
/// the frozen benchmark's argument (see [`RpcMode`]) and selects nothing.
pub fn dial(
    addr: SocketAddr,
    _mode: RpcMode,
    cfg: RpcConfig,
    metrics: Option<Metrics>,
) -> Arc<dyn Transport> {
    let transport = MuxTransport::with_config(addr, cfg);
    Arc::new(match metrics {
        Some(metrics) => transport.with_metrics(metrics),
        None => transport,
    })
}

/// In-process transport that still exercises the full wire codec: every
/// call encodes the request to bytes, decodes it back, dispatches to the
/// service, and round-trips the response the same way. Anything that
/// works over [`Loopback`] is wire-representable by construction, and
/// the byte counters it publishes match the socket transport's exactly
/// (request ids are fixed-width, so the totals are id-independent).
#[derive(Debug)]
pub struct Loopback {
    service: Arc<dyn Service>,
    counters: Option<CallCounters>,
    next_id: AtomicU64,
}

impl Clone for Loopback {
    fn clone(&self) -> Self {
        Loopback {
            service: Arc::clone(&self.service),
            counters: self.counters.clone(),
            next_id: AtomicU64::new(self.next_id.load(Ordering::Relaxed)),
        }
    }
}

impl Loopback {
    /// Wraps a service.
    pub fn new(service: Arc<dyn Service>) -> Self {
        Loopback {
            service,
            counters: None,
            next_id: AtomicU64::new(0),
        }
    }

    /// Publishes per-RPC counters into `metrics`.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.counters = Some(CallCounters::new(&metrics));
        self
    }

    fn round_trip(&self, request: &Request, parts: &[&[u8]]) -> Result<(Response, Bytes)> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (request, body, tx) =
            through_a_frame(id, request, parts).map_err(|e| protocol_error("request", &e))?;
        let (response, out) = self.service.handle_vectored(request, body);
        let (response, body, rx) = through_a_frame(id, &response, &as_slices(&out))
            .map_err(|e| protocol_error("response", &e))?;
        if let Some(counters) = &self.counters {
            counters.record(tx, rx);
        }
        Ok((response, body))
    }
}

/// Encodes `message` and `parts` into one frame tagged `id`, then reads
/// the frame back as its receiver would. Returns the decoded message,
/// the payload and the frame's wire size.
fn through_a_frame<T: Encode + Decode>(
    id: u64,
    message: &T,
    parts: &[&[u8]],
) -> io::Result<(T, Bytes, u64)> {
    let mut frame = Vec::new();
    let wire_bytes = wire::append_frame(&mut frame, id, message, parts)?;
    let frame = wire::split_frame(Bytes::from(frame))?;
    Ok((
        wire::decode_header(&frame.header)?,
        frame.payload,
        wire_bytes,
    ))
}

impl Transport for Loopback {
    fn call(&self, request: &Request, payload: &[u8]) -> Result<(Response, Bytes)> {
        self.round_trip(request, &[payload])
    }

    fn call_vectored(&self, request: &Request, parts: &[Bytes]) -> Result<(Response, Bytes)> {
        self.round_trip(request, &as_slices(parts))
    }
}

/// Dials `addr` with bounded retry and doubling backoff; on success the
/// stream has `TCP_NODELAY` set. Connect attempts beyond the first are
/// counted on [`counters::RETRIES`].
fn dial_socket(addr: SocketAddr, cfg: &RpcConfig, metrics: &Option<Metrics>) -> Result<TcpStream> {
    let mut backoff = cfg.backoff;
    let mut last = None;
    for attempt in 0..=cfg.connect_retries {
        if attempt > 0 {
            if let Some(m) = metrics {
                m.counter(counters::RETRIES).inc();
            }
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        match TcpStream::connect_timeout(&addr, cfg.connect_timeout) {
            Ok(stream) => {
                stream
                    .set_nodelay(true)
                    .map_err(|e| transport_error("configure socket", &e))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    let e = last.expect("at least one connect attempt");
    Err(transport_error(
        &format!(
            "connect to {addr} failed after {} attempts",
            cfg.connect_retries + 1
        ),
        &e,
    ))
}

/// The slot one in-flight mux call waits on. `std` primitives rather
/// than `parking_lot` because the waiter needs a timed wait.
#[derive(Debug, Default)]
struct CallSlot {
    /// The response frame — decoded by the caller, off the reader
    /// thread — or the typed failure.
    outcome: std::sync::Mutex<Option<Result<Frame>>>,
    ready: std::sync::Condvar,
}

impl CallSlot {
    fn fill(&self, outcome: Result<Frame>) {
        let mut guard = self.outcome.lock().expect("call slot poisoned");
        *guard = Some(outcome);
        self.ready.notify_all();
    }
}

/// One connection: a socket with a group-commit write queue and a
/// reader thread that routes response frames to [`CallSlot`]s by id.
#[derive(Debug)]
struct MuxConn {
    /// Shutdown handle (severs both halves; reader and writers wake).
    stream: TcpStream,
    /// Write half, held by the current flush leader.
    writer: Mutex<TcpStream>,
    /// Encoded frames awaiting flush (each append is one whole frame).
    wqueue: Mutex<Vec<u8>>,
    /// In-flight calls by request id.
    pending: Mutex<HashMap<u64, Arc<CallSlot>>>,
    /// Set once the connection failed; the next call redials.
    dead: AtomicBool,
}

impl MuxConn {
    /// Whether the peer has closed or reset the socket: its FIN or RST
    /// has arrived, though the reader thread may not have read the EOF
    /// yet. One zero-timeout `poll`; a call written to such a socket
    /// could only fail.
    fn peer_closed(&self) -> bool {
        use crate::reactor::sys;
        let mut fd = sys::PollFd {
            fd: self.stream.as_raw_fd(),
            events: sys::POLLRDHUP,
            revents: 0,
        };
        // SAFETY: `fd` is one initialized `pollfd` that outlives the
        // call, and its descriptor is this connection's open socket.
        let ready = unsafe { sys::poll(&mut fd, 1, 0) };
        ready > 0 && fd.revents & (sys::POLLRDHUP | sys::POLLHUP | sys::POLLERR) != 0
    }

    /// Marks the connection dead and fails every in-flight call with
    /// `error`.
    fn poison(&self, error: &Error) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        for (_, slot) in self.pending.lock().drain() {
            slot.fill(Err(error.clone()));
        }
    }

    /// Group-commit transmit: appends one encoded frame to the queue,
    /// then whoever wins the writer lock flushes the whole queue in a
    /// single write. Under concurrency most callers only enqueue —
    /// one leader's syscall carries a burst of frames.
    ///
    /// `Ok(())` means the frame is flushed or a current leader is
    /// obligated to flush it: a leader drains until the queue is empty,
    /// and after bouncing off `try_lock` the releaser re-checks, so a
    /// frame enqueued in the race window is never stranded.
    fn enqueue_and_flush(&self, frame: &[u8]) -> io::Result<()> {
        self.wqueue.lock().extend_from_slice(frame);
        self.flush_queue()
    }

    /// Flushes the write queue unless a current leader will (see
    /// [`Self::enqueue_and_flush`]).
    fn flush_queue(&self) -> io::Result<()> {
        loop {
            let Some(mut w) = self.writer.try_lock() else {
                return Ok(());
            };
            let batch = std::mem::take(&mut *self.wqueue.lock());
            if batch.is_empty() {
                return Ok(());
            }
            let result = io::Write::write_all(&mut *w, &batch);
            drop(w);
            result?;
            // Loop: a frame may have been enqueued while we held the
            // lock, and its caller bounced off try_lock relying on us.
        }
    }

    /// Transmits one large frame without copying it into the write
    /// queue: waits for the socket, sends whatever small frames queued
    /// up first, then gathers `head` and `parts` straight off the
    /// caller's buffers. Holding the writer lock makes this caller the
    /// leader, with a leader's duty to re-check the queue on release.
    fn write_through(&self, head: &[u8], parts: &[&[u8]]) -> io::Result<()> {
        let mut w = self.writer.lock();
        let queued = std::mem::take(&mut *self.wqueue.lock());
        let result = io::Write::write_all(&mut *w, &queued)
            .and_then(|()| wire::write_all_gathered(&mut *w, head, parts));
        drop(w);
        result?;
        self.flush_queue()
    }
}

/// Demultiplexes response frames into the pending calls' slots until the
/// connection dies; a connection failure fails exactly the calls in
/// flight on this socket.
fn mux_reader_loop(stream: TcpStream, conn: Arc<MuxConn>, addr: SocketAddr) {
    // Buffered: with several calls in flight, response frames arrive
    // back-to-back and one read syscall drains many of them.
    let mut stream = std::io::BufReader::with_capacity(128 * 1024, stream);
    loop {
        match wire::read_frame_bytes(&mut stream) {
            Ok(frame) => {
                // A missing entry is a call that timed out and left; the
                // late response is dropped on the floor.
                if let Some(slot) = conn.pending.lock().remove(&frame.id) {
                    slot.fill(Ok(frame));
                }
            }
            Err(e) => {
                conn.poison(&transport_error(&format!("rpc to {addr}"), &e));
                return;
            }
        }
    }
}

/// [`CallCounters`] plus the mux transport's own per-call counters.
#[derive(Debug)]
struct MuxCounters {
    call: CallCounters,
    inflight_peak: Arc<Counter>,
    queue_time: Arc<Counter>,
}

/// A multiplexed transport: one persistent connection to one server,
/// shared by any number of concurrent callers.
///
/// Each call registers a wakeup slot under a fresh request id, enqueues
/// its frame on the connection's write queue, and sleeps until the
/// reader thread delivers the response matching its id: M callers keep
/// up to M requests in flight over one socket with no head-of-line
/// blocking. Responses are matched by id, never by arrival order:
/// ordering is guaranteed **per id only**.
///
/// A connection failure fails every call in flight on it (typed
/// [`Error::Transport`], feeding the provider manager's failover); the
/// next call redials.
#[derive(Debug)]
pub struct MuxTransport {
    addr: SocketAddr,
    cfg: RpcConfig,
    /// For the dial path's counters ([`counters::RETRIES`],
    /// [`counters::POOL_CONNS`]).
    metrics: Option<Metrics>,
    /// The per-call counters, resolved once.
    counters: Option<MuxCounters>,
    /// The connection, dialed on first use and again after it died.
    conn: Mutex<Option<Arc<MuxConn>>>,
    next_id: AtomicU64,
    inflight: AtomicU64,
}

impl MuxTransport {
    /// Creates a lazy transport for `addr` (it dials on first use).
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_config(addr, RpcConfig::default())
    }

    /// Creates a lazy transport with explicit tuning.
    pub fn with_config(addr: SocketAddr, cfg: RpcConfig) -> Self {
        MuxTransport {
            addr,
            cfg,
            metrics: None,
            counters: None,
            conn: Mutex::new(None),
            next_id: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        }
    }

    /// Publishes per-RPC counters into `metrics`.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.counters = Some(MuxCounters {
            call: CallCounters::new(&metrics),
            inflight_peak: metrics.counter(counters::INFLIGHT_PEAK),
            queue_time: metrics.counter(counters::MUX_QUEUE_TIME),
        });
        self.metrics = Some(metrics);
        self
    }

    /// The server address this transport dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Test hook: severs the connection's socket if it is dialed. Calls
    /// in flight on it fail with a typed transport error; the next call
    /// redials.
    pub fn sever(&self) {
        if let Some(conn) = self.conn.lock().as_ref() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Returns the live connection, dialing if there is none, the
    /// previous one died, or its peer has closed it (a restarted server:
    /// the reader may not have seen the EOF yet). A connection dropped
    /// for a peer close is only marked dead: its reader still delivers
    /// any response that arrived before the close, then fails the rest.
    fn conn(&self) -> Result<Arc<MuxConn>> {
        let mut slot = self.conn.lock();
        if let Some(conn) = slot.as_ref() {
            if !conn.dead.load(Ordering::Acquire) {
                if !conn.peer_closed() {
                    return Ok(Arc::clone(conn));
                }
                conn.dead.store(true, Ordering::Release);
            }
        }
        let stream = dial_socket(self.addr, &self.cfg, &self.metrics)?;
        // No socket read timeout: the reader blocks on the shared stream
        // indefinitely (per-call deadlines live in the waiters), but
        // writes must not wedge the connection.
        stream
            .set_write_timeout(Some(self.cfg.write_timeout))
            .map_err(|e| transport_error("configure socket", &e))?;
        let writer = stream
            .try_clone()
            .map_err(|e| transport_error("clone socket", &e))?;
        let reader = stream
            .try_clone()
            .map_err(|e| transport_error("clone socket", &e))?;
        let conn = Arc::new(MuxConn {
            stream,
            writer: Mutex::new(writer),
            wqueue: Mutex::new(Vec::new()),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
        });
        let addr = self.addr;
        let reader_conn = Arc::clone(&conn);
        std::thread::spawn(move || mux_reader_loop(reader, reader_conn, addr));
        if let Some(m) = &self.metrics {
            m.counter(counters::POOL_CONNS).inc();
        }
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn round_trip(&self, request: &Request, parts: &[&[u8]]) -> Result<(Response, Bytes)> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let conn = self.conn()?;

        let call = Arc::new(CallSlot::default());
        conn.pending.lock().insert(id, Arc::clone(&call));
        let depth = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(counters) = &self.counters {
            counters.inflight_peak.record_peak(depth);
        }
        // Every exit below must release the in-flight count exactly once.
        let release = |this: &Self| {
            this.inflight.fetch_sub(1, Ordering::Relaxed);
        };

        // Encode off-lock. A small frame is enqueued whole on the
        // connection's write queue (the flush leader puts a burst of them on
        // the wire at once); a large one goes out as a gathered write of
        // the caller's buffers, its payload never copied.
        let enqueued = Instant::now();
        let payload_len: usize = parts.iter().map(|part| part.len()).sum();
        let mut frame = Vec::new();
        let wrote = if payload_len <= wire::COALESCE_PAYLOAD_BYTES {
            wire::append_frame(&mut frame, id, request, parts)
                .and_then(|tx| conn.enqueue_and_flush(&frame).map(|()| tx))
        } else {
            wire::append_frame_head(&mut frame, id, request, payload_len).and_then(|head| {
                conn.write_through(&frame, parts)
                    .map(|()| head + payload_len as u64)
            })
        };
        if let Some(counters) = &self.counters {
            counters
                .queue_time
                .add(enqueued.elapsed().as_nanos() as u64);
        }
        let tx = match wrote {
            Ok(tx) => tx,
            Err(e) => {
                // The reader may have poisoned the connection first (its
                // shutdown is what interrupted this write) and already
                // failed this call with the root cause — e.g. a version
                // mismatch. Prefer that over the secondary write error.
                if let Some(result) = call.outcome.lock().expect("call slot poisoned").take() {
                    release(self);
                    return result
                        .and_then(|frame| self.response_of(&frame).map(|r| (r, frame.payload)));
                }
                conn.pending.lock().remove(&id);
                let error = transport_error(&format!("rpc to {}", self.addr), &e);
                // A half-written frame poisons the stream for everyone
                // behind it: fail the whole connection, not just us.
                conn.poison(&error);
                release(self);
                return Err(error);
            }
        };

        // Sleep until the reader delivers our id (or the deadline hits).
        let deadline = Instant::now() + self.cfg.read_timeout;
        let mut outcome = call.outcome.lock().expect("call slot poisoned");
        loop {
            if let Some(result) = outcome.take() {
                drop(outcome);
                release(self);
                let frame = result?;
                let response = self.response_of(&frame)?;
                if let Some(counters) = &self.counters {
                    counters.call.record(tx, frame.wire_bytes);
                }
                return Ok((response, frame.payload));
            }
            let now = Instant::now();
            if now >= deadline {
                conn.pending.lock().remove(&id);
                release(self);
                return Err(Error::Transport {
                    kind: TransportErrorKind::Timeout,
                    detail: format!(
                        "rpc to {} timed out after {:?} (request {id})",
                        self.addr, self.cfg.read_timeout
                    ),
                });
            }
            let (guard, _) = call
                .ready
                .wait_timeout(outcome, deadline - now)
                .expect("call slot poisoned");
            outcome = guard;
        }
    }

    /// Decodes a response frame. A header that does not decode fails
    /// this call only: the framing around it was intact, so the
    /// connection lives on.
    fn response_of(&self, frame: &Frame) -> Result<Response> {
        wire::decode_header(&frame.header).map_err(|e| Error::Transport {
            kind: TransportErrorKind::Protocol,
            detail: format!("rpc to {}: undecodable response: {e}", self.addr),
        })
    }
}

impl Drop for MuxTransport {
    /// Closes the connection. Its reader thread holds its own handle on
    /// the socket, so without the shutdown a dropped transport would
    /// leave the connection open and its reader parked for good.
    fn drop(&mut self) {
        self.sever();
    }
}

impl Transport for MuxTransport {
    fn call(&self, request: &Request, payload: &[u8]) -> Result<(Response, Bytes)> {
        self.round_trip(request, &[payload])
    }

    fn call_vectored(&self, request: &Request, parts: &[Bytes]) -> Result<(Response, Bytes)> {
        self.round_trip(request, &as_slices(parts))
    }
}

fn kind_of(e: &io::Error) -> TransportErrorKind {
    use io::ErrorKind::*;
    match e.kind() {
        TimedOut | WouldBlock => TransportErrorKind::Timeout,
        ConnectionRefused => TransportErrorKind::ConnectionRefused,
        ConnectionReset | ConnectionAborted | BrokenPipe | UnexpectedEof | NotConnected => {
            TransportErrorKind::ConnectionReset
        }
        // The frame reader flags a peer speaking another protocol
        // version with Unsupported (see `wire`).
        Unsupported => TransportErrorKind::VersionMismatch,
        _ => TransportErrorKind::Protocol,
    }
}

fn transport_error(context: &str, e: &io::Error) -> Error {
    Error::Transport {
        kind: kind_of(e),
        detail: format!("{context}: {e}"),
    }
}

fn protocol_error(context: &str, e: &io::Error) -> Error {
    Error::Transport {
        kind: TransportErrorKind::Protocol,
        detail: format!("{context}: {e}"),
    }
}

/// Unwraps a [`Response::Fail`] into the carried error; a
/// [`Response::Busy`] becomes the typed admission error; any other
/// unexpected variant becomes a protocol error naming `wanted`.
pub(crate) fn unexpected(wanted: &str, response: Response) -> Error {
    match response {
        Response::Fail { error } => error,
        Response::Busy { active, max_conns } => Error::AdmissionRejected { active, max_conns },
        other => Error::Transport {
            kind: TransportErrorKind::Protocol,
            detail: format!("expected {wanted}, got {other:?}"),
        },
    }
}
