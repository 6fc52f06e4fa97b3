//! The hosting shell: [`RpcServer`] binds a listener, runs the reactor
//! front-end on it and feeds one dispatch pool.
//!
//! A single epoll reactor thread owns the nonblocking listener and
//! every accepted socket, so server thread count stays constant no
//! matter how many clients connect (see `reactor.rs`).
//! [`RpcServer::stop`] also severs accepted connections so failover
//! tests can kill a live server deterministically, and the reactor
//! enforces admission control: past [`crate::RpcConfig::max_conns`]
//! open connections a newcomer is accepted, answered with a typed
//! [`Response::Busy`], and closed.
//!
//! The reactor feeds one bounded dispatch pool shared by all
//! connections ([`crate::RpcConfig::server_workers`], default 4):
//! requests from one multiplexed client dispatch concurrently, and
//! responses are written back in **completion** order, tagged with the
//! request id the client sent — the id, not arrival order, is what
//! routes a response to its caller. The reactor hands workers whole
//! *batches* of buffered frames, so a backlogged connection pays one
//! dispatch handoff and one response write per burst rather than per
//! request.

use crate::proto::{Request, Response};
use crate::reactor::{run_reactor, ReactorShared};
use crate::services::Service;
use crate::transport::RpcConfig;
use crate::wire::{self, as_slices};
use atomio_simgrid::Metrics;
use atomio_types::{Error, TransportErrorKind};
use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
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
    /// reactor front-end on it. A single bounded pool of
    /// `cfg.server_workers` dispatch workers is shared by every
    /// connection, so requests multiplexed over one socket execute
    /// concurrently without a thread explosion per connection.
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

        // One bounded dispatch pool shared by every connection: the
        // reactor feeds request batches through this channel, workers
        // execute and route responses back to the batch's own
        // connection. The pool exits when the reactor (the only sender)
        // is gone.
        let workers = cfg.server_workers.max(1);
        let (job_tx, job_rx) = mpsc::sync_channel::<DispatchJob>(workers * 2);
        let job_rx = Arc::new(Mutex::new(job_rx));
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let service = Arc::clone(&service);
            std::thread::spawn(move || dispatch_worker(job_rx, service));
        }

        let reactor = ReactorShared::new()?;
        let front_end = {
            let shared = Arc::clone(&reactor);
            let shutdown = Arc::clone(&shutdown);
            let open = Arc::clone(&open);
            std::thread::spawn(move || {
                run_reactor(listener, job_tx, shared, shutdown, open, cfg, metrics)
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
    /// front-end. In-flight calls on severed connections surface
    /// connection-reset transport errors at their clients — exactly the
    /// failure the provider manager's failover policy handles. (The
    /// reactor owns its sockets outright: the eventfd wake below makes
    /// it observe shutdown and drop them all.)
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
/// time. Batches only form when a pipelining client has a backlog of
/// fully-buffered frames; a client with one call in flight always
/// produces batches of one.
pub(crate) const MAX_DISPATCH_BATCH: usize = 16;

/// Where a dispatch worker delivers one batch's encoded response
/// frames. The reactor thread is every socket's *single writer*, so
/// workers queue frames through [`ReactorShared`] and ring its eventfd
/// instead of writing.
#[derive(Debug, Clone)]
pub(crate) struct ResponseSink {
    /// The reactor's key for the batch's connection.
    pub(crate) token: u64,
    /// The reactor's completion mailbox + eventfd.
    pub(crate) shared: Arc<ReactorShared>,
}

/// One unit of dispatch work: where the responses go, plus a batch of
/// decoded request frames read back-to-back from one connection.
pub(crate) type DispatchJob = (ResponseSink, Vec<(u64, Value, Bytes)>);

/// A member of the server's shared dispatch pool: executes request
/// batches from any connection and routes each batch's responses —
/// tagged with the request ids — back through the batch's sink in a
/// single delivery. Responses leave in completion order; clients match
/// them by id. A dead connection only gets severed, and a handler that
/// panics fails its one request ([`handle_contained`]); either way the
/// worker lives on to serve the other connections.
fn dispatch_worker(rx: Arc<Mutex<mpsc::Receiver<DispatchJob>>>, service: Arc<dyn Service>) {
    loop {
        // Take the receiver lock only to pull one job; holding it
        // across `handle` would serialize the pool.
        let job = rx.lock().recv();
        let Ok((sink, batch)) = job else {
            // Every sender hung up: the server stopped, drain is done.
            return;
        };
        // Encode the responses of the batch into one run of wire bytes
        // and deliver it with one completion handoff. Small frames are
        // coalesced into one buffer; a large payload is queued by
        // reference — the buffers the service returned go to the socket
        // uncopied.
        let responses = batch.len();
        let mut wire_bytes: Vec<Bytes> = Vec::new();
        let mut coalesced = Vec::new();
        let mut poisoned = false;
        for (id, header, payload) in batch {
            let (response, out) = match Request::from_value(&header) {
                Ok(request) => handle_contained(service.as_ref(), id, request, payload),
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
            let payload_len: usize = out.iter().map(|part| part.len()).sum();
            let encoded = if payload_len <= RESPONSE_COALESCE_BYTES {
                wire::append_frame(&mut coalesced, id, &response.to_value(), &as_slices(&out))
                    .map(drop)
            } else {
                wire::append_frame_head(&mut coalesced, id, &response.to_value(), payload_len).map(
                    |_| {
                        wire_bytes.push(Bytes::from(std::mem::take(&mut coalesced)));
                        wire_bytes.extend(out);
                    },
                )
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
        sink.shared
            .complete(sink.token, wire_bytes, responses, poisoned);
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

/// Response payloads up to this size are copied into the burst's one
/// write buffer; larger ones are written from where they are. Lower than
/// the request side's threshold: a large response payload is a buffer
/// the store has just filled, and a second copy of it per in-flight
/// batch is what a small server's resident set is made of.
const RESPONSE_COALESCE_BYTES: usize = 64 * 1024;

/// Hands one burst of requests to the dispatch pool. While the pool has
/// room each request becomes its own job, so independent requests
/// overlap across workers — what matters when service time (device
/// waits) dominates. Once the channel is full the remainder goes down
/// as a single batched job: under CPU saturation the work serializes
/// anyway, and one handoff per burst beats one per request.
pub(crate) fn dispatch_burst(
    jobs: &mpsc::SyncSender<DispatchJob>,
    sink: &ResponseSink,
    burst: Vec<(u64, Value, Bytes)>,
) -> std::result::Result<(), ()> {
    let mut overflow = Vec::new();
    for request in burst {
        if !overflow.is_empty() {
            overflow.push(request);
            continue;
        }
        match jobs.try_send((sink.clone(), vec![request])) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full((_, batch))) => overflow = batch,
            Err(mpsc::TrySendError::Disconnected(_)) => return Err(()),
        }
    }
    if !overflow.is_empty() && jobs.send((sink.clone(), overflow)).is_err() {
        return Err(());
    }
    Ok(())
}
