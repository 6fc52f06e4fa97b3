//! The hosting shell: [`RpcServer`] binds a listener, runs the reactor
//! front-end on it and feeds one dispatch pool.
//!
//! A single epoll reactor thread owns the nonblocking listener and reads
//! every accepted socket, so server thread count stays constant no
//! matter how many clients connect (see `reactor.rs`).
//! [`RpcServer::stop`] also severs accepted connections so failover
//! tests can kill a live server deterministically, and the reactor
//! enforces admission control: past [`crate::RpcConfig::max_conns`]
//! open connections a newcomer is accepted, answered with a typed
//! [`Response::Busy`], and closed.
//!
//! The reactor feeds one dispatch pool shared by all connections
//! ([`crate::RpcConfig::server_workers`], default 4) through a
//! [`JobQueue`]: pushing a job never blocks the reactor and wakes exactly
//! one idle worker. Requests from one multiplexed client dispatch
//! concurrently, and the worker that ran a batch writes its responses to
//! the connection itself, in **completion** order, tagged with the
//! request id the client sent — the id, not arrival order, is what routes
//! a response to its caller. A request therefore costs the server one
//! thread wake-up: the worker's. The reactor hands workers whole
//! *batches* of buffered frames once the queue backs up, so a backlogged
//! connection pays one handoff and one response write per burst rather
//! than per request.

use crate::proto::{Request, Response};
use crate::reactor::{run_reactor, ConnOut, ReactorShared};
use crate::services::Service;
use crate::transport::RpcConfig;
use crate::wire::{self, as_slices, Frame};
use atomio_simgrid::Metrics;
use atomio_types::{Error, TransportErrorKind};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running TCP server hosting one [`Service`].
#[derive(Debug)]
pub struct RpcServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    front_end: Option<JoinHandle<()>>,
    reactor: Arc<ReactorShared>,
    open: Arc<AtomicUsize>,
}

impl RpcServer {
    /// Binds `addr` with default tuning; see [`RpcServer::start_with_config`].
    pub fn start(addr: impl ToSocketAddrs, service: Arc<dyn Service>) -> io::Result<Self> {
        Self::start_with_config(addr, service, RpcConfig::default())
    }

    /// Binds `addr` without a metrics registry; see
    /// [`RpcServer::start_with_metrics`].
    pub fn start_with_config(
        addr: impl ToSocketAddrs,
        service: Arc<dyn Service>,
        cfg: RpcConfig,
    ) -> io::Result<Self> {
        Self::start_with_metrics(addr, service, cfg, None)
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor front-end on it. A single pool of `cfg.server_workers`
    /// dispatch workers is shared by every connection, so requests
    /// multiplexed over one socket execute concurrently without a thread
    /// explosion per connection.
    ///
    /// A `metrics` registry (server-side — distinct from any client
    /// transport registry) receives the connection counters:
    /// `rpc.accepts`, `rpc.conns_open`, `rpc.conns_peak`,
    /// `rpc.admission_rejects`, and `rpc.reactor_wakeups`.
    pub fn start_with_metrics(
        addr: impl ToSocketAddrs,
        service: Arc<dyn Service>,
        cfg: RpcConfig,
        metrics: Option<Metrics>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let open = Arc::new(AtomicUsize::new(0));
        let reactor = ReactorShared::new()?;

        // One dispatch pool shared by every connection: the reactor
        // pushes request batches onto the queue, workers execute them and
        // write the responses to the batch's own connection. The pool
        // exits once the reactor (whose feed closes the queue) is gone.
        let workers = cfg.server_workers.max(1);
        let jobs = JobQueue::new(workers);
        for _ in 0..workers {
            let jobs = Arc::clone(&jobs);
            let service = Arc::clone(&service);
            std::thread::spawn(move || dispatch_worker(&jobs, service.as_ref()));
        }

        let front_end = {
            let feed = JobFeed(jobs);
            let shared = Arc::clone(&reactor);
            let shutdown = Arc::clone(&shutdown);
            let open = Arc::clone(&open);
            std::thread::spawn(move || {
                run_reactor(listener, feed, shared, shutdown, open, cfg, metrics)
            })
        };

        Ok(RpcServer {
            addr,
            shutdown,
            front_end: Some(front_end),
            reactor,
            open,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections the server currently holds open. Admission-rejected
    /// connections never count; a closed connection leaves the gauge as
    /// soon as the reactor reaps it (hangup/EOF handling).
    pub fn open_conns(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }

    /// Stops accepting, severs every accepted connection, and joins the
    /// front-end. In-flight and queued calls on severed connections
    /// surface connection-reset transport errors at their clients —
    /// exactly the failure the provider manager's failover policy
    /// handles. (The eventfd wake below makes the reactor observe
    /// shutdown and shut every socket down; the workers then drain the
    /// closed queue, drop what they answer, and exit.)
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.reactor.wake();
        if let Some(handle) = self.front_end.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Largest number of request frames handed to one dispatch worker at a
/// time. Batches only form when the queue has backed up behind a
/// pipelining client; a client with one call in flight always produces
/// batches of one.
const MAX_DISPATCH_BATCH: usize = 16;

/// One unit of dispatch work: the connection the responses go to, plus
/// a batch of request frames read back-to-back from it. Their headers
/// are decoded by the worker, off the one reactor thread.
type DispatchJob = (Arc<ConnOut>, Vec<Frame>);

/// The dispatch pool's queue: a FIFO of jobs under one mutex, plus one
/// condvar the idle workers wait on, holding no lock while they wait.
/// The reactor pushes without ever blocking. It has no bound of its own
/// and needs none: a connection stops being read at
/// [`RpcConfig::max_inflight_per_conn`] requests in dispatch, and at most
/// [`RpcConfig::max_conns`] connections are served, so their product
/// bounds what is ever queued.
#[derive(Debug)]
pub(crate) struct JobQueue {
    state: Mutex<Queued>,
    ready: Condvar,
    /// Queue depth below which every request becomes its own job: twice
    /// the workers.
    fan_out: usize,
}

#[derive(Debug, Default)]
struct Queued {
    jobs: VecDeque<DispatchJob>,
    /// Workers waiting on `ready` that no push has claimed yet — the
    /// wake-ups a push may spend. Never fewer than the actual waiters.
    idle: usize,
    /// The reactor is gone: the workers drain what is left and exit.
    closed: bool,
}

impl JobQueue {
    fn new(workers: usize) -> Arc<Self> {
        Arc::new(JobQueue {
            state: Mutex::new(Queued::default()),
            ready: Condvar::new(),
            fan_out: 2 * workers,
        })
    }

    /// Hands one burst of requests from `out` to the pool. While fewer
    /// than twice the workers' jobs are queued, each request becomes its
    /// own job, so independent requests overlap across workers — what
    /// matters when service time (device waits) dominates. Past that the
    /// rest of the burst goes down in batches of [`MAX_DISPATCH_BATCH`]:
    /// under CPU saturation the work serializes anyway, and one handoff
    /// per batch beats one per request. Wakes one idle worker per new
    /// job, as far as there are idle workers.
    fn dispatch_burst(&self, out: &Arc<ConnOut>, burst: Vec<Frame>) {
        let mut frames = burst.into_iter();
        let mut state = self.state.lock();
        let before = state.jobs.len();
        while state.jobs.len() < self.fan_out {
            let Some(frame) = frames.next() else { break };
            state.jobs.push_back((Arc::clone(out), vec![frame]));
        }
        loop {
            let batch: Vec<Frame> = frames.by_ref().take(MAX_DISPATCH_BATCH).collect();
            if batch.is_empty() {
                break;
            }
            state.jobs.push_back((Arc::clone(out), batch));
        }
        let wake = (state.jobs.len() - before).min(state.idle);
        state.idle -= wake;
        drop(state);
        for _ in 0..wake {
            self.ready.notify_one();
        }
    }

    /// The next job, waiting for one; `None` once the queue is closed
    /// and drained.
    fn pop(&self) -> Option<DispatchJob> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            self.ready.wait(&mut state);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }
}

/// The reactor's end of the [`JobQueue`]. Dropping it — on whatever path
/// the reactor thread leaves by — closes the queue, so the workers drain
/// it and exit.
#[derive(Debug)]
pub(crate) struct JobFeed(Arc<JobQueue>);

impl JobFeed {
    /// See [`JobQueue::dispatch_burst`].
    pub(crate) fn dispatch_burst(&self, out: &Arc<ConnOut>, burst: Vec<Frame>) {
        self.0.dispatch_burst(out, burst);
    }
}

impl Drop for JobFeed {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A member of the server's shared dispatch pool: executes request
/// batches from any connection and writes each batch's responses —
/// tagged with the request ids — to the batch's connection in a single
/// delivery ([`ConnOut::deliver`]). Responses leave in completion order;
/// clients match them by id. A dead connection only gets severed, and a
/// handler that panics fails its one request ([`handle_contained`]);
/// either way the worker lives on to serve the other connections.
fn dispatch_worker(jobs: &JobQueue, service: &dyn Service) {
    while let Some((out, batch)) = jobs.pop() {
        // Encode the responses of the batch into one run of wire bytes.
        // Small frames are coalesced into one buffer; a large payload is
        // written by reference — the buffers the service returned go to
        // the socket uncopied.
        let responses = batch.len();
        let mut wire_bytes: Vec<Bytes> = Vec::new();
        let mut coalesced = Vec::new();
        let mut poisoned = false;
        for Frame {
            id,
            header,
            payload,
            ..
        } in batch
        {
            let (response, parts) = match wire::decode_header::<Request>(&header) {
                Ok(request) => handle_contained(service, id, request, payload),
                Err(e) => (
                    Response::Fail {
                        error: Error::Transport {
                            kind: TransportErrorKind::Protocol,
                            detail: format!("undecodable request: {e}"),
                        },
                    },
                    Vec::new(),
                ),
            };
            let payload_len: usize = parts.iter().map(|part| part.len()).sum();
            let encoded = if payload_len <= wire::COALESCE_PAYLOAD_BYTES {
                wire::append_frame(&mut coalesced, id, &response, &as_slices(&parts)).map(drop)
            } else {
                wire::append_frame_head(&mut coalesced, id, &response, payload_len).map(|_| {
                    wire_bytes.push(Bytes::from(std::mem::take(&mut coalesced)));
                    wire_bytes.extend(parts);
                })
            };
            if encoded.is_err() {
                // Oversized response — nothing sane to send back.
                poisoned = true;
                break;
            }
        }
        if !coalesced.is_empty() {
            wire_bytes.push(Bytes::from(coalesced));
        }
        out.deliver(wire_bytes, responses, poisoned);
    }
}

/// [`Service::handle_vectored`] with a panic contained to the request
/// that caused it: the caller gets a typed failure, stderr gets one
/// `key=value` line (beside the panic hook's own message and location),
/// and the worker lives on — a pool of `server_workers` threads must not
/// be something `server_workers` bad requests can use up. Nothing is
/// poisoned by the unwind (the services' locks are `parking_lot`), which
/// is what `AssertUnwindSafe` asserts here.
fn handle_contained(
    service: &dyn Service,
    id: u64,
    request: Request,
    payload: Bytes,
) -> (Response, Vec<Bytes>) {
    let handler = AssertUnwindSafe(|| service.handle_vectored(request, payload));
    catch_unwind(handler).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        eprintln!("atomio-rpc: event=handler_panic request_id={id} message={message:?}");
        let error = Error::Internal(format!("request handler panicked: {message}"));
        (Response::Fail { error }, Vec::new())
    })
}
