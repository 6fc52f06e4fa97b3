//! Readiness-driven server front-end: how an
//! [`RpcServer`](crate::RpcServer) turns sockets into dispatch jobs.
//!
//! One reactor thread owns the nonblocking listener and reads every
//! accepted socket through a thin, std-only epoll binding: direct
//! `extern "C"` declarations of `epoll_create1`/`epoll_ctl`/`epoll_wait`/
//! `eventfd`/`read` over `std::os::fd` — no external crates, no async
//! runtime. Per connection the reactor runs a small state machine:
//!
//! ```text
//!  EPOLLIN ─► read() into rbuf ─► complete frames? ─► job queue
//!     ▲                                                   │ one wake
//!     │                                                   ▼
//!  parked ◄── in-flight cap hit          dispatch worker: handle, then
//!     │                                  writev() the replies itself
//!     └── un-park ◄── eventfd ring ◄──── (rings only for: un-park, a
//!                        │                remainder, EOF drained, sever)
//!                        ▼
//!         EPOLLOUT ─► writev() the queued remainder
//! ```
//!
//! The reactor only frames: it checks each prefix and hands workers the
//! whole frames, whose headers they decode themselves — so decoding
//! spreads over the pool instead of queueing on this one thread.
//!
//! Each connection's write side is a [`ConnOut`] shared by the reactor
//! and the workers: the socket, its write queue under one mutex, the
//! in-flight count and two flags. A worker takes the lock and, if
//! nothing is queued, writes its batch of response frames at once —
//! nonblocking — queueing only what the socket did not take; behind a
//! queue it appends. Every write happens under that lock, so response
//! frames never interleave. The reactor hears from a worker (a token in
//! its mailbox and an eventfd write) only when there is something only
//! it can do: arm `EPOLLOUT` for a remainder, resume a parked
//! connection, close an EOF'd one that has drained, or sever one whose
//! response failed to encode. The same eventfd wakes the reactor for
//! shutdown.
//!
//! Backpressure is explicit at two levels. A connection with
//! `max_inflight_per_conn` requests in dispatch has its reads *parked*
//! (`EPOLLIN` unregistered) until responses drain — the kernel socket
//! buffer then pushes back on the client instead of the server queueing
//! unboundedly. And past `max_conns` open connections, a new connection
//! is still accepted and read, but its first complete frame is answered
//! with a typed `Response::Busy` (tagged with that frame's request id,
//! so the client's demultiplexer routes it to the call) and the socket is
//! closed once the answer is on the wire — a typed error, not a hang or
//! a reset.
//!
//! Closing is the reactor's alone: it deregisters the socket, shuts it
//! down both ways (a worker may still hold the write side) and marks the
//! write side closed, so a later delivery is dropped.

use crate::proto::Response;
use crate::server::JobFeed;
use crate::transport::{counters, RpcConfig};
use crate::wire;
use atomio_simgrid::metrics::Counter;
use atomio_simgrid::Metrics;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Raw Linux epoll/eventfd/poll bindings — just the entry points the
/// reactor (and [`MuxTransport`](crate::MuxTransport)'s liveness check)
/// needs, declared over `std::os::fd` instead of pulling a bindings crate
/// into the vendored dependency set.
pub(crate) mod sys {
    // Interest/event bits (include/uapi/linux/eventpoll.h).
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EFD_CLOEXEC: i32 = 0x80000;
    pub const EFD_NONBLOCK: i32 = 0x800;
    // poll(2) event bits (include/uapi/asm-generic/poll.h).
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLRDHUP: i16 = 0x2000;

    /// Mirror of the kernel's `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// Mirror of the kernel's `struct epoll_event`. On x86-64 the ABI
    /// packs the 32-bit event mask against the 64-bit data word (12
    /// bytes total); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    }
}

/// An owned epoll instance; the epoll fd closes on drop.
#[derive(Debug)]
struct Epoll(OwnedFd);

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll(unsafe { OwnedFd::from_raw_fd(fd) }))
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, mask: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: mask,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.0.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, token: u64, mask: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, mask)
    }

    fn modify(&self, fd: RawFd, token: u64, mask: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, mask)
    }

    /// Deregisters `fd`. Closing the fd would not do it while a worker
    /// still holds the connection's write side open.
    fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready; retries EINTR.
    fn wait(&self, events: &mut [sys::EpollEvent]) -> io::Result<usize> {
        loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.0.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    -1,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

/// One `read(2)` from `fd` into the spare capacity of `buf`, which grows
/// by the bytes read: no bounce buffer, no copy.
fn read_into_spare(fd: RawFd, buf: &mut Vec<u8>) -> io::Result<usize> {
    let spare = buf.spare_capacity_mut();
    // SAFETY: the pointer and length describe `buf`'s spare capacity,
    // writable memory the kernel fills with at most that many bytes.
    let n = unsafe { sys::read(fd, spare.as_mut_ptr().cast(), spare.len()) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    let n = n as usize;
    // SAFETY: the kernel initialized the first `n` spare bytes.
    unsafe { buf.set_len(buf.len() + n) };
    Ok(n)
}

/// The reactor's cross-thread mailbox: dispatch workers leave connection
/// tokens here and ring the eventfd; `RpcServer::stop` rings the same
/// eventfd after raising the shutdown flag.
#[derive(Debug)]
pub(crate) struct ReactorShared {
    rings: Mutex<Vec<Ring>>,
    wake: std::fs::File,
}

#[derive(Debug)]
struct Ring {
    token: u64,
    /// A response failed to encode or the socket failed under a worker:
    /// close the connection.
    sever: bool,
}

impl ReactorShared {
    pub(crate) fn new() -> io::Result<Arc<Self>> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Arc::new(ReactorShared {
            rings: Mutex::new(Vec::new()),
            wake: unsafe { std::fs::File::from_raw_fd(fd) },
        }))
    }

    /// Asks the reactor to look at connection `token`. Only the ring
    /// that finds the mailbox empty writes the eventfd: the reactor
    /// takes the whole mailbox per wake-up.
    fn ring(&self, token: u64, sever: bool) {
        let first = {
            let mut rings = self.rings.lock();
            rings.push(Ring { token, sever });
            rings.len() == 1
        };
        if first {
            self.wake();
        }
    }

    /// Wakes the reactor thread out of `epoll_wait`.
    pub(crate) fn wake(&self) {
        // WouldBlock means the counter is saturated — a wakeup is
        // already guaranteed pending, so dropping the error is safe.
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }

    fn drain_wake(&self) {
        // One read resets the eventfd counter (non-semaphore mode).
        let mut buf = [0u8; 8];
        let _ = (&self.wake).read(&mut buf);
    }
}

/// One connection's write side, shared by the reactor (which also reads
/// the socket and alone closes it) and the dispatch workers (which write
/// their responses straight to it).
#[derive(Debug)]
pub(crate) struct ConnOut {
    /// The reactor's key for the connection.
    token: u64,
    stream: TcpStream,
    reactor: Arc<ReactorShared>,
    write: Mutex<WriteQueue>,
    /// Requests in dispatch whose responses are not yet written or
    /// queued. Raised by the reactor before it hands frames over, cut by
    /// the worker after it wrote their responses.
    inflight: AtomicUsize,
    /// The reactor stopped reading at the in-flight cap. Park protocol:
    /// the reactor stores this, then re-reads `inflight`; a worker cuts
    /// `inflight`, then takes this — all `SeqCst`, so at least one of
    /// them sees the other and the connection cannot stay parked with
    /// nothing in dispatch.
    parked: AtomicBool,
    /// The peer sent EOF: close once the in-flight responses drain
    /// (the same store-then-load handshake as `parked`).
    read_closed: AtomicBool,
}

/// Encoded response bytes not yet on the wire, in order: whole small
/// frames coalesced into one buffer, and the head and payload buffers of
/// large ones (queued by reference, never copied).
#[derive(Debug, Default)]
struct WriteQueue {
    wq: VecDeque<Bytes>,
    /// How far the front of `wq` has been written.
    wpos: usize,
    /// The reactor closed the connection: deliveries are dropped.
    closed: bool,
}

/// Buffers of the write queue handed to one `writev` (Linux's
/// `IOV_MAX`): a batch answer is one slice per item.
const MAX_WRITE_SLICES: usize = 1024;

impl WriteQueue {
    /// Writes as much of the queue as the nonblocking socket accepts.
    /// An error means the connection is dead.
    fn flush(&mut self, stream: &TcpStream) -> io::Result<()> {
        while !self.wq.is_empty() {
            // One gathered write over the head of the queue; the front
            // buffer resumes where the last write stopped.
            let front = &self.wq[0][self.wpos..];
            let wrote = if self.wq.len() == 1 {
                (&*stream).write(front)
            } else {
                let slices: Vec<io::IoSlice<'_>> = std::iter::once(front)
                    .chain(self.wq.iter().skip(1).map(|chunk| chunk.as_ref()))
                    .take(MAX_WRITE_SLICES)
                    .map(io::IoSlice::new)
                    .collect();
                (&*stream).write_vectored(&slices)
            };
            match wrote {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    while let Some(front) = self.wq.front() {
                        let left = front.len() - self.wpos;
                        if n < left {
                            self.wpos += n;
                            break;
                        }
                        n -= left;
                        self.wpos = 0;
                        self.wq.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Appends `frames`, skipping empty buffers (one at the front would
    /// read as "wrote 0").
    fn push(&mut self, frames: impl IntoIterator<Item = Bytes>) {
        self.wq
            .extend(frames.into_iter().filter(|chunk| !chunk.is_empty()));
    }
}

impl ConnOut {
    /// Delivers one dispatched batch: `frames` are the encoded responses
    /// of its `responses` requests, or `sever` says one failed to encode.
    /// Writes them now if nothing is queued ahead, else queues them
    /// behind the rest; then rings the reactor if — and only if — it has
    /// something to do (see the module docs).
    pub(crate) fn deliver(&self, frames: Vec<Bytes>, responses: usize, sever: bool) {
        if sever {
            self.reactor.ring(self.token, true);
            return;
        }
        let mut ring = false;
        {
            let mut queue = self.write.lock();
            if queue.closed {
                return;
            }
            let idle = queue.wq.is_empty();
            queue.push(frames);
            if idle {
                if queue.flush(&self.stream).is_err() {
                    drop(queue);
                    self.reactor.ring(self.token, true);
                    return;
                }
                // A remainder needs `EPOLLOUT`.
                ring = !queue.wq.is_empty();
            }
        }
        let left = self.inflight.fetch_sub(responses, Ordering::SeqCst) - responses;
        if self.parked.swap(false, Ordering::SeqCst)
            || (left == 0 && self.read_closed.load(Ordering::SeqCst))
        {
            ring = true;
        }
        if ring {
            self.reactor.ring(self.token, false);
        }
    }

    fn flushed(&self) -> bool {
        self.write.lock().wq.is_empty()
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// What a full read buffer grows by at least, and so what an empty one
/// first reserves: a few requests' worth. Once a frame's prefix is in,
/// `reserve_for_head_frame` sizes the buffer for all of it, and the
/// buffer doubles past that.
const READ_RESERVE: usize = 4 * 1024;
/// Largest read buffer a connection keeps between frames.
const KEPT_READ_BYTES: usize = 64 * 1024;
/// Largest announced frame the read buffer is sized for up front: twice
/// the client's batch frame budget, so every batch frame qualifies.
const EXACT_RESERVE_BYTES: usize = 2 * crate::client::BATCH_FRAME_BYTES;

/// One accepted connection's read side and bookkeeping.
#[derive(Debug)]
struct Conn {
    out: Arc<ConnOut>,
    /// Inbound bytes not yet parsed into frames.
    rbuf: Vec<u8>,
    /// Current epoll interest mask.
    interest: u32,
    /// Admission-rejected at accept: answer the first frame with a
    /// typed Busy, then close. Never counts toward the open gauge.
    rejecting: bool,
    /// Close once the write queue drains (set by the Busy answer).
    closing: bool,
}

impl Conn {
    /// Once the prefix of the frame at the head of `rbuf` is in, sizes
    /// the buffer for that whole frame in one step: a batch frame is far
    /// larger than one read, and doubling towards it overshoots by up to
    /// the frame's own size. Only up to [`EXACT_RESERVE_BYTES`] — a peer
    /// must not make the server reserve what it merely announces — and
    /// only for a prefix `pump` will accept.
    fn reserve_for_head_frame(&mut self) {
        if let Some(Ok(total)) = self.head_frame_len() {
            if total <= EXACT_RESERVE_BYTES && total > self.rbuf.capacity() {
                self.rbuf.reserve_exact(total - self.rbuf.len());
            }
        }
    }

    /// Whether `pump` can act on `rbuf` as it is: the frame at its head
    /// is whole, or its prefix is one `pump` refuses.
    fn head_frame_decidable(&self) -> bool {
        self.head_frame_len()
            .is_some_and(|len| len.map_or(true, |total| total <= self.rbuf.len()))
    }

    /// The whole length the frame at the head of `rbuf` announces:
    /// `None` until its prefix is in, an error for a prefix `pump`
    /// refuses.
    fn head_frame_len(&self) -> Option<io::Result<usize>> {
        let prefix = wire::FRAME_PREFIX_BYTES as usize;
        let head = self.rbuf.get(..prefix)?;
        Some(
            wire::parse_prefix(head)
                .map(|(_, head_len, payload_len)| prefix + head_len + payload_len),
        )
    }
}

/// What a parse pass decided beyond dispatching frames.
enum PumpAction {
    None,
    /// Framing is broken (bad version byte, oversized declared lengths):
    /// nothing on the stream can be trusted. A header that does not
    /// decode is not this: its worker answers it with a typed failure.
    Close,
    /// First frame of an over-cap connection was answered with Busy.
    Reject,
}

/// Runs the reactor event loop until shutdown. Owns the listener, reads
/// every accepted socket, and owns the epoll instance; feeds the shared
/// dispatch pool through `jobs` (whose drop, on any return, closes the
/// queue) and maintains the `open` connection gauge that
/// `RpcServer::open_conns` and the `rpc.conns_open` counter report.
pub(crate) fn run_reactor(
    listener: TcpListener,
    jobs: JobFeed,
    shared: Arc<ReactorShared>,
    shutdown: Arc<AtomicBool>,
    open: Arc<AtomicUsize>,
    cfg: RpcConfig,
    metrics: Option<Metrics>,
) {
    let Ok(epoll) = Epoll::new() else { return };
    if epoll
        .add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EPOLLIN)
        .is_err()
        || epoll
            .add(shared.wake.as_raw_fd(), TOKEN_WAKE, sys::EPOLLIN)
            .is_err()
    {
        return;
    }
    Reactor {
        epoll,
        listener,
        jobs,
        shared,
        shutdown,
        open,
        cfg,
        wakeups: metrics
            .as_ref()
            .map(|m| m.counter(counters::REACTOR_WAKEUPS)),
        metrics,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        spans: Vec::new(),
    }
    .event_loop();
}

/// Where one complete frame sits in a connection's `rbuf`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: usize,
    id: u64,
    head_len: usize,
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    jobs: JobFeed,
    shared: Arc<ReactorShared>,
    shutdown: Arc<AtomicBool>,
    open: Arc<AtomicUsize>,
    cfg: RpcConfig,
    /// `rpc.reactor_wakeups`, resolved once: it counts every wake-up.
    wakeups: Option<Arc<Counter>>,
    metrics: Option<Metrics>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// `pump`'s scratch list of the frames one parse pass found.
    spans: Vec<Span>,
}

impl Reactor {
    fn event_loop(&mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            let n = match self.epoll.wait(&mut events) {
                Ok(n) => n,
                Err(_) => return,
            };
            if let Some(wakeups) = &self.wakeups {
                wakeups.inc();
            }
            if self.shutdown.load(Ordering::Relaxed) {
                // Severing the sockets fails every in-flight client call
                // with a connection reset; workers drop what they answer.
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.close(token);
                }
                return;
            }
            for ev in &events[..n] {
                let (token, mask) = (ev.data, ev.events);
                match token {
                    TOKEN_WAKE => self.shared.drain_wake(),
                    TOKEN_LISTENER => self.accept_ready(),
                    _ => self.conn_event(token, mask),
                }
            }
            self.apply_rings();
        }
    }

    /// Drains the accept backlog. Over-`max_conns` connections are
    /// still accepted and registered, but flagged `rejecting`: their
    /// first frame gets a typed Busy answer instead of service.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(m) = &self.metrics {
                        m.counter(counters::ACCEPTS).inc();
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let rejecting = self.open.load(Ordering::Relaxed) >= self.cfg.max_conns;
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
                    if self.epoll.add(stream.as_raw_fd(), token, interest).is_err() {
                        continue;
                    }
                    if !rejecting {
                        let n = self.open.fetch_add(1, Ordering::Relaxed) + 1;
                        if let Some(m) = &self.metrics {
                            m.counter(counters::CONNS_OPEN).set(n as u64);
                            m.counter(counters::CONNS_PEAK).record_peak(n as u64);
                        }
                    }
                    let out = Arc::new(ConnOut {
                        token,
                        stream,
                        reactor: Arc::clone(&self.shared),
                        write: Mutex::new(WriteQueue::default()),
                        inflight: AtomicUsize::new(0),
                        parked: AtomicBool::new(false),
                        read_closed: AtomicBool::new(false),
                    });
                    self.conns.insert(
                        token,
                        Conn {
                            out,
                            rbuf: Vec::new(),
                            interest,
                            rejecting,
                            closing: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, mask: u32) {
        if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            // Reap on hangup/error: dead clients must not pin fds.
            self.close(token);
            return;
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            self.readable(token);
        }
        if mask & sys::EPOLLOUT != 0 {
            self.flush(token);
        }
    }

    /// Reads socket bytes straight into the connection's read buffer,
    /// then parses and dispatches whatever complete frames arrived. A
    /// full buffer that already holds a whole frame stops the reads: the
    /// frames go first, and level-triggered `EPOLLIN` brings the reactor
    /// back for the rest.
    fn readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let fd = conn.out.stream.as_raw_fd();
        loop {
            if conn.rbuf.len() == conn.rbuf.capacity() {
                if conn.head_frame_decidable() {
                    break;
                }
                conn.rbuf.reserve(READ_RESERVE);
            }
            match read_into_spare(fd, &mut conn.rbuf) {
                Ok(0) => {
                    conn.out.read_closed.store(true, Ordering::SeqCst);
                    break;
                }
                Ok(_) => conn.reserve_for_head_frame(),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.pump(token);
    }

    /// Parses complete frames out of `rbuf` (up to the in-flight cap)
    /// and hands them to the dispatch pool; answers a rejecting
    /// connection's first frame with Busy. Called on readability and
    /// again whenever a worker un-parks the connection (its buffered
    /// frames must dispatch without waiting for new socket readiness).
    fn pump(&mut self, token: u64) {
        let cap = self.cfg.max_inflight_per_conn.max(1);
        let max_conns = self.cfg.max_conns as u64;
        let active = self.open.load(Ordering::Relaxed) as u64;
        let prefix = wire::FRAME_PREFIX_BYTES as usize;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            let inflight = conn.out.inflight.load(Ordering::SeqCst);
            let spans = &mut self.spans;
            spans.clear();
            let mut consumed = 0usize;
            let mut action = PumpAction::None;
            let mut at_cap = false;
            while !conn.closing {
                if !conn.rejecting && inflight + spans.len() >= cap {
                    at_cap = true;
                    break;
                }
                let b = &conn.rbuf[consumed..];
                if b.len() < prefix {
                    break;
                }
                // Validate the prefix before waiting for the body, so a
                // garbage prefix cannot demand gigabytes of buffering.
                let Ok((id, head_len, payload_len)) = wire::parse_prefix(&b[..prefix]) else {
                    action = PumpAction::Close;
                    break;
                };
                let len = prefix + head_len + payload_len;
                if b.len() < len {
                    break;
                }
                if conn.rejecting {
                    consumed += len;
                    let busy = Response::Busy { active, max_conns };
                    let mut reply = Vec::new();
                    if wire::append_frame(&mut reply, id, &busy, &[]).is_err() {
                        action = PumpAction::Close;
                    } else {
                        conn.out.write.lock().push([Bytes::from(reply)]);
                        conn.closing = true;
                        action = PumpAction::Reject;
                    }
                    break;
                }
                spans.push(Span {
                    start: consumed,
                    len,
                    id,
                    head_len,
                });
                consumed += len;
            }

            // Complete frames of 64 KiB or more leave as slices of the
            // buffer they were read into, and only the incomplete tail is
            // copied to a fresh one; below that, copying the frames out
            // is the cheaper move.
            let burst: Vec<wire::Frame> = if consumed >= wire::COALESCE_PAYLOAD_BYTES {
                let tail = conn.rbuf[consumed..].to_vec();
                let read = Bytes::from(std::mem::replace(&mut conn.rbuf, tail));
                conn.reserve_for_head_frame();
                spans
                    .iter()
                    .map(|s| {
                        let frame = read.slice(s.start..s.start + s.len);
                        wire::Frame::from_parts(frame, s.id, s.head_len)
                    })
                    .collect()
            } else {
                let burst = spans
                    .iter()
                    .map(|s| {
                        let frame = Bytes::copy_from_slice(&conn.rbuf[s.start..s.start + s.len]);
                        wire::Frame::from_parts(frame, s.id, s.head_len)
                    })
                    .collect();
                conn.rbuf.drain(..consumed);
                // A batch frame is far larger than a read: do not keep
                // its buffer around between frames.
                if conn.rbuf.is_empty() && conn.rbuf.capacity() > KEPT_READ_BYTES {
                    conn.rbuf = Vec::new();
                }
                burst
            };

            match action {
                PumpAction::Close => {
                    self.close(token);
                    return;
                }
                PumpAction::Reject => {
                    if let Some(m) = &self.metrics {
                        m.counter(counters::ADMISSION_REJECTS).inc();
                    }
                    self.flush(token);
                    return;
                }
                PumpAction::None => {}
            }
            if !burst.is_empty() {
                conn.out.inflight.fetch_add(burst.len(), Ordering::SeqCst);
                self.jobs.dispatch_burst(&conn.out, burst);
            }
            // Park, then look again: a worker that cut the count before
            // `parked` was up did not see it, and will not ring.
            if at_cap {
                conn.out.parked.store(true, Ordering::SeqCst);
                if conn.out.inflight.load(Ordering::SeqCst) < cap
                    && conn.out.parked.swap(false, Ordering::SeqCst)
                {
                    continue;
                }
            }
            break;
        }
        self.settle(token);
    }

    /// Writes as much of the write queue as the socket accepts (on
    /// `EPOLLOUT`, or for a Busy answer), then settles the connection.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let dead = conn.out.write.lock().flush(&conn.out.stream).is_err();
        if dead {
            self.close(token);
            return;
        }
        self.settle(token);
    }

    /// Re-registers the connection's epoll interest where it changed —
    /// `EPOLLIN` unless parked, closing or EOF'd, `EPOLLRDHUP` until EOF
    /// (level-triggered, it would fire on every wait after), `EPOLLOUT`
    /// only while response bytes are queued — and closes the connection
    /// if it has nothing left to do: a Busy answer fully on the wire, or
    /// an EOF'd peer whose responses all drained.
    fn settle(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let flushed = conn.out.flushed();
        let read_closed = conn.out.read_closed.load(Ordering::SeqCst);
        let mut want = 0;
        if !read_closed {
            want |= sys::EPOLLRDHUP;
            if !conn.out.parked.load(Ordering::SeqCst) && !conn.closing {
                want |= sys::EPOLLIN;
            }
        }
        if !flushed {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.out.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
        let done = flushed
            && (conn.closing || (read_closed && conn.out.inflight.load(Ordering::SeqCst) == 0));
        if done {
            self.close(token);
        }
    }

    /// Serves the workers' rings: severs what they could not answer, and
    /// re-pumps (un-parked connections dispatch their buffered frames),
    /// re-arms (`EPOLLOUT` for a remainder) or closes (an EOF'd
    /// connection that drained) the rest.
    fn apply_rings(&mut self) {
        let rings = std::mem::take(&mut *self.shared.rings.lock());
        for Ring { token, sever } in rings {
            if sever {
                self.close(token);
            } else {
                self.pump(token);
            }
        }
    }

    /// Removes a connection: marks its write side closed so workers
    /// drop their deliveries, deregisters it, shuts the socket down
    /// (a worker may still hold it open) and settles the
    /// open-connections gauge.
    fn close(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        {
            let mut queue = conn.out.write.lock();
            queue.closed = true;
            queue.wq.clear();
        }
        let _ = self.epoll.delete(conn.out.stream.as_raw_fd());
        let _ = conn.out.stream.shutdown(Shutdown::Both);
        if !conn.rejecting {
            let n = self.open.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
            if let Some(m) = &self.metrics {
                m.counter(counters::CONNS_OPEN).set(n as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_layout_matches_the_kernel_abi() {
        // x86-64 packs the struct to 12 bytes; elsewhere natural
        // alignment yields 16. Either way `data` must sit right after
        // the 4-byte mask the kernel writes.
        let size = std::mem::size_of::<sys::EpollEvent>();
        if cfg!(target_arch = "x86_64") {
            assert_eq!(size, 12);
        } else {
            assert_eq!(size, 16);
        }
    }

    #[test]
    fn eventfd_wake_and_drain_round_trip() {
        let shared = ReactorShared::new().unwrap();
        shared.wake();
        shared.wake();
        let mut buf = [0u8; 8];
        let mut r: &std::fs::File = &shared.wake;
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 8);
        // Non-semaphore eventfd: one read drains the whole counter.
        assert_eq!(u64::from_ne_bytes(buf), 2);
    }
}
