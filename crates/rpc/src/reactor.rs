//! Readiness-driven server front-end: how an
//! [`RpcServer`](crate::RpcServer) turns sockets into dispatch jobs.
//!
//! One reactor thread owns the nonblocking listener and every accepted
//! socket through a thin, std-only epoll binding: direct `extern "C"`
//! declarations of `epoll_create1`/`epoll_ctl`/`epoll_wait`/`eventfd`
//! over `std::os::fd` — no external crates, no async runtime. Per
//! connection the reactor runs a small state machine:
//!
//! ```text
//!  EPOLLIN ─► read() to WouldBlock ─► rbuf ─► complete frames?
//!     ▲                                         │  batched handoff
//!     │ unpark when responses drain             ▼
//!  parked ◄─── in-flight cap hit ───── shared dispatch pool (workers)
//!                                               │  encoded frames
//!              eventfd wake ◄───────────────────┘
//!                   │
//!                   ▼
//!  wq ─► writev() to WouldBlock ─► EPOLLOUT drains the rest
//! ```
//!
//! Workers never touch reactor sockets: each batch's encoded response
//! frames go through [`ReactorShared::complete`] and an eventfd write;
//! the reactor is the **single writer** of every socket it owns, so
//! response frames can never interleave. The same eventfd wakes the
//! reactor for shutdown.
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

use crate::proto::{Response, PROTOCOL_VERSION};
use crate::server::{dispatch_burst, DispatchJob, ResponseSink, MAX_DISPATCH_BATCH};
use crate::transport::{counters, RpcConfig};
use crate::wire;
use atomio_simgrid::Metrics;
use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Raw Linux epoll/eventfd bindings — just the five entry points the
/// reactor needs, declared over `std::os::fd` instead of pulling a
/// bindings crate into the vendored dependency set.
mod sys {
    // Interest/event bits (include/uapi/linux/eventpoll.h).
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EFD_CLOEXEC: i32 = 0x80000;
    pub const EFD_NONBLOCK: i32 = 0x800;

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
    }
}

/// An owned epoll instance. Registered fds deregister themselves when
/// their sockets close, and the epoll fd itself closes on drop.
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

/// The reactor's cross-thread mailbox: dispatch workers park encoded
/// response frames here and ring the eventfd; `RpcServer::stop` rings
/// the same eventfd after raising the shutdown flag.
#[derive(Debug)]
pub(crate) struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    wake: std::fs::File,
}

#[derive(Debug)]
struct Completion {
    token: u64,
    frames: Vec<Bytes>,
    responses: usize,
    /// A response failed to encode: nothing sane to send, close the
    /// connection instead.
    sever: bool,
}

impl ReactorShared {
    pub(crate) fn new() -> io::Result<Arc<Self>> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Arc::new(ReactorShared {
            completions: Mutex::new(Vec::new()),
            wake: unsafe { std::fs::File::from_raw_fd(fd) },
        }))
    }

    /// Queues one batch's encoded responses for connection `token` and
    /// wakes the reactor.
    pub(crate) fn complete(&self, token: u64, frames: Vec<Bytes>, responses: usize, sever: bool) {
        self.completions.lock().push(Completion {
            token,
            frames,
            responses,
            sever,
        });
        self.wake();
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

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// Buffers of the write queue handed to one `writev` (Linux's
/// `IOV_MAX`): a batch answer is one slice per item.
const MAX_WRITE_SLICES: usize = 1024;
/// Per-readiness read granularity (a stack buffer, appended to `rbuf`).
const READ_CHUNK: usize = 64 * 1024;
/// Largest announced frame the read buffer is sized for up front: twice
/// the client's batch frame budget, so every batch frame qualifies.
const EXACT_RESERVE_BYTES: usize = 2 * crate::client::BATCH_FRAME_BYTES;

/// One accepted connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet parsed into frames.
    rbuf: Vec<u8>,
    /// Encoded response bytes not yet fully on the wire, in order: whole
    /// small frames coalesced into one buffer, and the head and payload
    /// buffers of large ones (queued by reference, never copied).
    wq: VecDeque<Bytes>,
    /// How far the front of `wq` has been written.
    wpos: usize,
    /// Requests in dispatch whose responses have not been queued yet.
    inflight: usize,
    /// Current epoll interest mask.
    interest: u32,
    /// Admission-rejected at accept: answer the first frame with a
    /// typed Busy, then close. Never counts toward the open gauge.
    rejecting: bool,
    /// Close once `wq` drains (set by the Busy answer).
    closing: bool,
    /// Peer sent EOF / RDHUP: no more requests are coming, close once
    /// the in-flight responses drain.
    read_closed: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wq.is_empty()
    }

    /// Once the prefix of the frame at the head of `rbuf` is in, sizes
    /// the buffer for that whole frame in one step: a batch frame is far
    /// larger than one read, and doubling towards it overshoots by up to
    /// the frame's own size. Only up to [`EXACT_RESERVE_BYTES`] — a peer
    /// must not make the server reserve what it merely announces — and
    /// only for a prefix `pump` will accept.
    fn reserve_for_head_frame(&mut self) {
        let Some(prefix) = self.rbuf.get(..wire::FRAME_PREFIX_BYTES as usize) else {
            return;
        };
        let head_len = u32::from_be_bytes(prefix[9..13].try_into().unwrap()) as usize;
        let payload_len = u32::from_be_bytes(prefix[13..17].try_into().unwrap()) as usize;
        let total = prefix.len() + head_len + payload_len;
        if prefix[0] == PROTOCOL_VERSION
            && total <= EXACT_RESERVE_BYTES
            && total > self.rbuf.capacity()
        {
            self.rbuf.reserve_exact(total - self.rbuf.len());
        }
    }
}

/// What a parse pass decided beyond dispatching frames.
enum PumpAction {
    None,
    /// Framing is broken (bad version byte, oversized declared lengths,
    /// undecodable frame): nothing on the stream can be trusted.
    Close,
    /// First frame of an over-cap connection was answered with Busy.
    Reject,
}

/// Runs the reactor event loop until shutdown. Owns the listener, every
/// accepted socket, and the epoll instance; feeds the shared dispatch
/// pool through `jobs` and maintains the `open` connection gauge that
/// `RpcServer::open_conns` and the `rpc.conns_open` counter report.
pub(crate) fn run_reactor(
    listener: TcpListener,
    jobs: mpsc::SyncSender<DispatchJob>,
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
        metrics,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
    }
    .event_loop();
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    jobs: mpsc::SyncSender<DispatchJob>,
    shared: Arc<ReactorShared>,
    shutdown: Arc<AtomicBool>,
    open: Arc<AtomicUsize>,
    cfg: RpcConfig,
    metrics: Option<Metrics>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl Reactor {
    fn event_loop(&mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            let n = match self.epoll.wait(&mut events) {
                Ok(n) => n,
                Err(_) => return,
            };
            if let Some(m) = &self.metrics {
                m.counter(counters::REACTOR_WAKEUPS).inc();
            }
            if self.shutdown.load(Ordering::Relaxed) {
                // Dropping the sockets severs them: in-flight client
                // calls surface connection-reset transport errors.
                self.conns.clear();
                self.open.store(0, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.counter(counters::CONNS_OPEN).set(0);
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
            self.apply_completions();
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
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            rbuf: Vec::new(),
                            wq: VecDeque::new(),
                            wpos: 0,
                            inflight: 0,
                            interest,
                            rejecting,
                            closing: false,
                            read_closed: false,
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

    /// Moves socket bytes into the connection's read buffer, then
    /// parses and dispatches whatever complete frames arrived.
    fn readable(&mut self, token: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match (&conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        conn.reserve_for_head_frame();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close(token);
            return;
        }
        self.pump(token);
    }

    /// Parses complete frames out of `rbuf` (up to the in-flight cap)
    /// and hands them to the dispatch pool; answers a rejecting
    /// connection's first frame with Busy. Called on readability and
    /// again whenever responses drain (unparking must re-parse frames
    /// that were already buffered, not wait for new readiness).
    fn pump(&mut self, token: u64) {
        let cap = self.cfg.max_inflight_per_conn.max(1);
        let max_conns = self.cfg.max_conns as u64;
        let active = self.open.load(Ordering::Relaxed) as u64;
        let prefix = wire::FRAME_PREFIX_BYTES as usize;

        let (burst, action) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut burst: Vec<(u64, Value, Bytes)> = Vec::new();
            let mut consumed = 0usize;
            let mut action = PumpAction::None;
            while !conn.closing {
                if !conn.rejecting && conn.inflight + burst.len() >= cap {
                    break; // parked: interest update below drops EPOLLIN
                }
                let b = &conn.rbuf[consumed..];
                if b.len() < prefix {
                    break;
                }
                // Validate the prefix before waiting for the body, so a
                // garbage prefix cannot demand gigabytes of buffering.
                if b[0] != PROTOCOL_VERSION {
                    action = PumpAction::Close;
                    break;
                }
                let head_len = u32::from_be_bytes(b[9..13].try_into().unwrap());
                let payload_len = u32::from_be_bytes(b[13..17].try_into().unwrap());
                if head_len > wire::MAX_HEADER_BYTES || payload_len > wire::MAX_PAYLOAD_BYTES {
                    action = PumpAction::Close;
                    break;
                }
                let total = prefix + head_len as usize + payload_len as usize;
                if b.len() < total {
                    break;
                }
                match wire::read_frame(&mut &b[..total]) {
                    Ok((id, header, payload, _)) => {
                        consumed += total;
                        if conn.rejecting {
                            let busy = Response::Busy { active, max_conns };
                            let mut frame = Vec::new();
                            if wire::append_frame(&mut frame, id, &busy.to_value(), &[]).is_err() {
                                action = PumpAction::Close;
                            } else {
                                conn.wq.push_back(Bytes::from(frame));
                                conn.closing = true;
                                action = PumpAction::Reject;
                            }
                            break;
                        }
                        burst.push((id, header, payload));
                    }
                    Err(_) => {
                        action = PumpAction::Close;
                        break;
                    }
                }
            }
            conn.rbuf.drain(..consumed);
            // A batch frame is far larger than a read: do not keep its
            // buffer around between frames.
            if conn.rbuf.is_empty() && conn.rbuf.capacity() > READ_CHUNK {
                conn.rbuf = Vec::new();
            }
            conn.inflight += burst.len();
            (burst, action)
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
            }
            PumpAction::None => {}
        }

        // Hand off in batches of at most `MAX_DISPATCH_BATCH`: one
        // worker wakeup and one response write per burst, not per
        // request.
        let mut iter = burst.into_iter();
        loop {
            let chunk: Vec<_> = iter.by_ref().take(MAX_DISPATCH_BATCH).collect();
            if chunk.is_empty() {
                break;
            }
            let sink = ResponseSink {
                token,
                shared: Arc::clone(&self.shared),
            };
            if dispatch_burst(&self.jobs, &sink, chunk).is_err() {
                self.close(token);
                return;
            }
        }
        self.flush(token);
    }

    /// Writes as much of `wbuf` as the socket accepts, then settles the
    /// interest mask and closes the connection if it is finished.
    fn flush(&mut self, token: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while !conn.wq.is_empty() {
                // One gathered write over the head of the queue; the
                // front buffer resumes where the last write stopped.
                let front = &conn.wq[0][conn.wpos..];
                let wrote = if conn.wq.len() == 1 {
                    (&conn.stream).write(front)
                } else {
                    let slices: Vec<io::IoSlice<'_>> = std::iter::once(front)
                        .chain(conn.wq.iter().skip(1).map(|chunk| chunk.as_ref()))
                        .take(MAX_WRITE_SLICES)
                        .map(io::IoSlice::new)
                        .collect();
                    (&conn.stream).write_vectored(&slices)
                };
                match wrote {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(mut n) => {
                        while let Some(front) = conn.wq.front() {
                            let left = front.len() - conn.wpos;
                            if n < left {
                                conn.wpos += n;
                                break;
                            }
                            n -= left;
                            conn.wpos = 0;
                            conn.wq.pop_front();
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close(token);
            return;
        }
        self.update_interest(token);
        self.maybe_close_finished(token);
    }

    /// Re-registers the connection's epoll interest when it changed:
    /// `EPOLLIN` unless parked/closing/EOF, `EPOLLOUT` only while
    /// response bytes are queued.
    fn update_interest(&mut self, token: u64) {
        let cap = self.cfg.max_inflight_per_conn.max(1);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let parked = !conn.rejecting && conn.inflight >= cap;
        let mut want = sys::EPOLLRDHUP;
        if !parked && !conn.closing && !conn.read_closed {
            want |= sys::EPOLLIN;
        }
        if !conn.flushed() {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Closes a connection that has nothing left to do: a Busy answer
    /// fully on the wire, or an EOF'd peer whose responses all drained.
    fn maybe_close_finished(&mut self, token: u64) {
        let done = match self.conns.get(&token) {
            Some(conn) => {
                (conn.closing && conn.flushed())
                    || (conn.read_closed && conn.flushed() && conn.inflight == 0)
            }
            None => return,
        };
        if done {
            self.close(token);
        }
    }

    /// Applies queued worker completions: response bytes join their
    /// connection's write buffer, in-flight counts drop, and previously
    /// parked connections get re-pumped (their buffered frames dispatch
    /// without waiting for new socket readiness).
    fn apply_completions(&mut self) {
        let batch = std::mem::take(&mut *self.shared.completions.lock());
        for c in batch {
            if c.sever {
                self.close(c.token);
                continue;
            }
            let Some(conn) = self.conns.get_mut(&c.token) else {
                // The connection died while its batch was in dispatch;
                // the response has nowhere to go.
                continue;
            };
            conn.inflight = conn.inflight.saturating_sub(c.responses);
            // An empty buffer at the front would read as "wrote 0".
            conn.wq
                .extend(c.frames.into_iter().filter(|chunk| !chunk.is_empty()));
            self.flush(c.token);
            self.pump(c.token);
        }
    }

    /// Removes and drops a connection (closing the socket deregisters
    /// it from epoll) and settles the open-connections gauge.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if !conn.rejecting {
                let n = self.open.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
                if let Some(m) = &self.metrics {
                    m.counter(counters::CONNS_OPEN).set(n as u64);
                }
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
