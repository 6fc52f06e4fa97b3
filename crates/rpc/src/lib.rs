//! atomio-rpc: wire protocol and pluggable transports for the
//! versioning backend.
//!
//! The rest of the workspace talks to its substrates through traits —
//! [`ChunkStore`](atomio_provider::ChunkStore) for chunk data,
//! [`NodeStore`](atomio_meta::NodeStore) for tree metadata. This crate
//! supplies the other side of those seams:
//!
//! * [`proto`] — the request/response vocabulary, one enum each whose
//!   derived positional `Encode`/`Decode` impls *are* the message
//!   encoding, plus the negotiated [`proto::PROTOCOL_VERSION`].
//! * [`wire`] — versioned, request-id-tagged, length-prefixed framing
//!   around that header encoding; chunk payloads travel out of band. The
//!   reader bounds what bytes from a peer can cost: lengths, declared
//!   counts and pre-allocation.
//! * [`transport`] — how frames move: [`Loopback`] runs the full codec
//!   in process (the default deployment; zero behavioral drift from the
//!   pre-RPC stack); [`MuxTransport`], the socket transport, multiplexes
//!   concurrent callers over one persistent `std::net` connection per
//!   server, demultiplexing responses by request id. Both report
//!   identical byte counters for identical workloads; [`RpcConfig`]
//!   holds the socket side's tuning knobs.
//! * [`services`] — what a hosted role does with one request: the
//!   [`Service`] trait and [`ProviderService`], [`MetaService`],
//!   [`VersionService`].
//! * [`server`] — [`RpcServer`], hosting a service behind a single
//!   epoll reactor thread that reads every socket, feeds one worker pool
//!   whose members write their own replies, and enforces `max_conns`
//!   admission control.
//! * [`cli`] — [`ServerArgs`] and [`run_server_binary`]: the flag
//!   parser and `main` the `atomio-provider-server`,
//!   `atomio-meta-server` and `atomio-version-server` binaries share.
//! * [`client`] — [`RemoteProvider`], [`RemoteMetaStore`], and
//!   [`RemoteVersionManager`]: drop-in proxies implementing the
//!   workspace seams over any [`Transport`]. `RemoteProvider` carries a
//!   provider's share of a `write_list` / `read_list` as one
//!   `PutChunkBatch` / `GetChunkRangeBatch` frame (per
//!   [`client::BATCH_FRAME_BYTES`] of payload), not one per chunk.
//! * [`routed`] — [`SlotRoutedTransport`], a [`Transport`] that fans
//!   version-manager calls out across `--shard i/N` version servers by
//!   hash slot, with the slot-to-shard split fixed at deploy time.
//!
//! Assembling a socket-backed store is three lines per substrate:
//! [`dial`] the server addresses, wrap the transports in the remote
//! proxies, and hand those to `ProviderManager::from_stores` and
//! `Store::with_substrates`. Everything above the seams — atomic write
//! pipelines, versioned reads, failover, scrub — runs unchanged.

#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod proto;
mod reactor;
pub mod routed;
pub mod server;
pub mod services;
pub mod transport;
pub mod wire;

pub use cli::{run_server_binary, serve_forever, server_usage, ServerArgs};
pub use client::{RemoteMetaStore, RemoteProvider, RemoteVersionManager};
pub use proto::{Request, Response, PROTOCOL_VERSION};
pub use routed::SlotRoutedTransport;
pub use server::RpcServer;
pub use services::{MetaService, ProviderService, Service, VersionService};
pub use transport::{counters, dial, Loopback, MuxTransport, RpcConfig, RpcMode, Transport};

#[cfg(test)]
mod fuzz;
#[cfg(test)]
mod samples;

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_provider::ChunkStore;
    use atomio_types::{ByteRange, ChunkId, Error, ProviderId, TransportErrorKind, VersionId};
    use atomio_version::VersionOracle;
    use bytes::Bytes;
    use std::sync::Arc;

    fn loopback(service: impl Service + 'static) -> Arc<dyn Transport> {
        Arc::new(Loopback::new(Arc::new(service)))
    }

    fn remote_fleet(transport: &Arc<dyn Transport>, count: usize) -> Vec<RemoteProvider> {
        (0..count)
            .map(|i| RemoteProvider::new(ProviderId::new(i as u64), Arc::clone(transport)))
            .collect()
    }

    #[test]
    fn loopback_serves_chunk_ops_through_the_codec() {
        let transport: Arc<dyn Transport> =
            Arc::new(Loopback::new(Arc::new(ProviderService::new(2))));
        let fleet = remote_fleet(&transport, 2);

        let chunk = ChunkId::new(7);
        let done = fleet[0]
            .put_chunk_at(5, chunk, Bytes::from_static(b"hello rpc"))
            .unwrap();
        assert_eq!(done, 5, "zero-cost server echoes the arrival instant");
        assert!(fleet[0].has_chunk(chunk));
        assert!(!fleet[1].has_chunk(chunk));
        assert_eq!(fleet[0].bytes_stored(), 9);
        assert_eq!(fleet[0].chunk_count(), 1);

        let (data, sent) = fleet[0]
            .get_chunk_range_at(9, chunk, ByteRange::new(6, 3))
            .unwrap();
        assert_eq!(data.as_ref(), b"rpc");
        assert_eq!(sent, 9);

        // Missing chunks surface the same typed error as in-process.
        let miss = fleet[1].get_chunk_range_at(0, chunk, ByteRange::new(0, 1));
        assert!(matches!(miss, Err(Error::ChunkNotFound { .. })));

        assert_eq!(fleet[0].evict_chunk(chunk), 9);
        assert_eq!(fleet[0].bytes_stored(), 0);
    }

    #[test]
    fn loopback_serves_chunk_batches() {
        let transport: Arc<dyn Transport> =
            Arc::new(Loopback::new(Arc::new(ProviderService::new(1))));
        let provider = RemoteProvider::new(ProviderId::new(0), Arc::clone(&transport));

        let items = vec![
            (3, ChunkId::new(1), Bytes::from_static(b"aaaa")),
            (5, ChunkId::new(2), Bytes::from_static(b"bb")),
        ];
        // Zero-cost server: every item echoes its own arrival instant.
        assert_eq!(provider.put_batch_at(&items), vec![Ok(3), Ok(5)]);

        let gets = provider.get_range_batch_at(&[
            (7, ChunkId::new(2), ByteRange::new(0, 2)),
            (8, ChunkId::new(9), ByteRange::new(0, 1)), // missing
            (9, ChunkId::new(1), ByteRange::new(1, 2)),
        ]);
        assert_eq!(gets[0], Ok((Bytes::from_static(b"bb"), 7)));
        assert!(matches!(gets[1], Err(Error::ChunkNotFound { .. })));
        assert_eq!(gets[2], Ok((Bytes::from_static(b"aa"), 9)));
    }

    fn is_protocol_error(response: &Response) -> bool {
        matches!(
            response,
            Response::Fail {
                error: Error::Transport {
                    kind: TransportErrorKind::Protocol,
                    ..
                }
            }
        )
    }

    #[test]
    fn put_batch_lengths_that_overflow_are_refused_not_sliced() {
        // Declared lengths whose sum wraps to the 1-byte payload: an
        // unchecked sum passes the total check and slices out of bounds.
        let service = ProviderService::new(1);
        let request = Request::PutChunkBatch {
            provider: ProviderId::new(0),
            items: vec![(0, ChunkId::new(1), u64::MAX), (0, ChunkId::new(2), 2)],
        };
        let (response, out) = service.handle(request, Bytes::from_static(b"x"));
        assert!(is_protocol_error(&response), "got {response:?}");
        assert!(out.is_empty());
        // Lengths that leave payload bytes unclaimed are refused too,
        // and nothing of a refused batch is stored.
        let request = Request::PutChunkBatch {
            provider: ProviderId::new(0),
            items: vec![(0, ChunkId::new(1), 1)],
        };
        let (response, _) = service.handle(request, Bytes::from_static(b"xy"));
        assert!(is_protocol_error(&response), "got {response:?}");
        assert_eq!(service.providers()[0].chunk_count(), 0);
    }

    #[test]
    fn get_batch_over_the_frame_payload_limit_is_refused_up_front() {
        let service = ProviderService::new(1);
        let chunk = ChunkId::new(1);
        const LEN: u64 = 4 << 20;
        service.providers()[0]
            .put_chunk_at(0, chunk, Bytes::from(vec![7u8; LEN as usize]))
            .unwrap();
        // 65 × 4 MiB = 260 MiB of answers, past the 256 MiB frame limit:
        // a typed refusal, not an ever-growing response buffer.
        let request = Request::GetChunkRangeBatch {
            provider: ProviderId::new(0),
            items: vec![(0, chunk, ByteRange::new(0, LEN)); 65],
        };
        let (response, out) = service.handle(request, Bytes::new());
        assert!(is_protocol_error(&response), "got {response:?}");
        assert!(out.is_empty());
        // So is a batch whose declared lengths overflow the sum.
        let request = Request::GetChunkRangeBatch {
            provider: ProviderId::new(0),
            items: vec![(0, chunk, ByteRange::new(0, u64::MAX)); 2],
        };
        let (response, _) = service.handle(request, Bytes::new());
        assert!(is_protocol_error(&response), "got {response:?}");
    }

    /// A transport that answers every call with one canned reply.
    #[derive(Debug)]
    struct Canned(Response, Bytes);

    impl Transport for Canned {
        fn call(&self, _request: &Request, _payload: &[u8]) -> Result<(Response, Bytes), Error> {
            Ok((self.0.clone(), self.1.clone()))
        }
    }

    #[test]
    fn chunk_batch_reply_lengths_are_checked_by_the_client() {
        let items = [
            (0, ChunkId::new(1), ByteRange::new(0, 1)),
            (0, ChunkId::new(2), ByteRange::new(0, 1)),
        ];
        // Lengths that wrap to the payload size, lengths that overrun
        // it, and lengths that leave bytes unclaimed: each is a typed
        // per-item protocol error, never a slice panic.
        for lens in [[u64::MAX, 2], [1, 5], [0, 0]] {
            let reply = Response::ChunkBatch {
                results: lens.iter().map(|&len| Ok((len, 0))).collect(),
            };
            let provider = RemoteProvider::new(
                ProviderId::new(0),
                Arc::new(Canned(reply, Bytes::from_static(b"x"))),
            );
            let outcomes = provider.get_range_batch_at(&items);
            assert_eq!(outcomes.len(), 2);
            for outcome in outcomes {
                assert!(
                    matches!(
                        outcome,
                        Err(Error::Transport {
                            kind: TransportErrorKind::Protocol,
                            ..
                        })
                    ),
                    "lens {lens:?}: got {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn loopback_serves_meta_and_version_ops() {
        // Each half dials the one service that answers it.
        let meta = RemoteMetaStore::new(loopback(MetaService::new(2)));
        let vm = RemoteVersionManager::new(1, loopback(VersionService::new(64)));
        let p = atomio_simgrid::SimClock::new().register();

        // Ticket for a 2-chunk write; grant carries the history delta.
        let extents = atomio_types::ExtentList::single(ByteRange::new(0, 128));
        let ticket = vm.ticket(&p, &extents).unwrap();
        assert_eq!(ticket.version, VersionId::new(1));
        assert_eq!(vm.history().len(), 1, "mirror absorbed the grant delta");
        assert_eq!(
            *vm.history().summary(ticket.version).unwrap().extents,
            extents
        );

        // Build the write's tree against the remote store, from the
        // mirrored history — the client-side flow of a remote deployment.
        let blob = atomio_types::BlobId::new(1);
        let builder = atomio_meta::TreeBuilder::new(
            blob,
            &meta,
            vm.history(),
            atomio_meta::TreeConfig::new(64),
        );
        let entries: Vec<atomio_meta::LeafEntry> = vec![
            atomio_meta::LeafEntry {
                file_range: ByteRange::new(0, 64),
                chunk: ChunkId::new(10),
                chunk_offset: 0,
                homes: vec![ProviderId::new(0)],
            },
            atomio_meta::LeafEntry {
                file_range: ByteRange::new(64, 64),
                chunk: ChunkId::new(11),
                chunk_offset: 0,
                homes: vec![ProviderId::new(0)],
            },
        ];
        atomio_simgrid::clock::run_actors(1, |_, p| {
            let root = builder
                .build_update(p, ticket.version, ticket.capacity, &entries)
                .unwrap();
            vm.publish(p, ticket, root).unwrap();
            assert!(vm.is_published(ticket.version).unwrap());
            assert_eq!(vm.latest(p).unwrap().version, ticket.version);
            assert_eq!(vm.snapshot(p, ticket.version).unwrap().root, Some(root));

            // The published tree resolves back through the same store,
            // walked on the server.
            let pieces =
                atomio_meta::NodeStore::resolve(&meta, p, Some(root), &extents, None).unwrap();
            assert_eq!(pieces.len(), 2);
        });
    }

    /// `Error::Unsupported` carries a `&'static str`, so through the
    /// codec it arrives as the `Internal` its decoder maps it to.
    fn is_unsupported(response: &Response) -> bool {
        matches!(
            response,
            Response::Fail { error: Error::Internal(msg) } if msg.starts_with("remote Unsupported")
        )
    }

    #[test]
    fn every_request_has_exactly_one_home() {
        // What the services' hand-kept lists of each other's variants
        // used to hold at compile time: a request is answered (with
        // anything but `Unsupported` — a refusal of *this* request by
        // its own role counts) by exactly the role its name says, and
        // draws the typed `Unsupported` from the other two.
        let roles: [(&str, Arc<dyn Transport>); 3] = [
            ("provider", loopback(ProviderService::new(4))),
            ("meta", loopback(MetaService::new(2))),
            ("version", loopback(VersionService::new(64))),
        ];
        for request in samples::requests() {
            let homes: Vec<&str> = roles
                .iter()
                .filter(|(_, role)| !is_unsupported(&role.call(&request, b"payload").unwrap().0))
                .map(|(name, _)| *name)
                .collect();
            let expected: &[&str] = match format!("{request:?}").as_str() {
                "Ping" => &["provider", "meta", "version"],
                tag if tag.starts_with("Meta") => &["meta"],
                tag if tag.starts_with("Vm") => &["version"],
                _ => &["provider"],
            };
            assert_eq!(homes, expected, "{request:?}");
        }
    }

    #[test]
    fn a_grant_no_tree_can_hold_is_refused_and_the_server_keeps_serving() {
        // Three well-formed requests that used to leave a version server
        // listening and dead: the first was *granted* (capacity wrapped
        // to 0, size u64::MAX), the next two each panicked a dispatch
        // worker on the append tail, and two workers were all it had.
        let service = Arc::new(VersionService::new(64 * 1024));
        let cfg = RpcConfig {
            server_workers: 2,
            ..RpcConfig::default()
        };
        let mut server = RpcServer::start_with_config(
            "127.0.0.1:0",
            Arc::clone(&service) as Arc<dyn Service>,
            cfg,
        )
        .unwrap();
        let client = MuxTransport::new(server.local_addr());
        let append = Request::VmTicketAppend {
            blob: 7,
            len: u64::MAX,
            known: 0,
        };
        // The same wrap through the explicit-extents door.
        let explicit = Request::VmTicket {
            blob: 7,
            extents: atomio_types::ExtentList::single(ByteRange::new(u64::MAX - 8, 8)),
            known: 0,
        };
        for request in [&append, &append, &append, &explicit] {
            let (response, _) = client.call(request, &[]).unwrap();
            assert!(
                matches!(response, Response::Fail { .. }),
                "got {response:?}"
            );
        }
        let vm = service.vm(7).unwrap();
        assert_eq!((vm.stats().issued, vm.history().len()), (0, 0));
        let fresh = MuxTransport::new(server.local_addr());
        let (response, _) = fresh.call(&Request::Ping, &[]).unwrap();
        assert!(matches!(response, Response::Pong));
        server.stop();
    }

    /// Serves a `Ping`, unless it carries a payload: then it panics.
    #[derive(Debug)]
    struct PanicsOnPayload;

    impl Service for PanicsOnPayload {
        fn handle(&self, _request: Request, payload: Bytes) -> (Response, Bytes) {
            assert!(payload.is_empty(), "a ping with a payload");
            (Response::Pong, Bytes::new())
        }
    }

    #[test]
    fn a_panicking_handler_costs_one_request_not_one_worker() {
        let workers = 2;
        let cfg = RpcConfig {
            server_workers: workers,
            ..RpcConfig::default()
        };
        let mut server =
            RpcServer::start_with_config("127.0.0.1:0", Arc::new(PanicsOnPayload), cfg).unwrap();
        let client = MuxTransport::new(server.local_addr());
        // One more than there are workers: were a panic to take its
        // worker with it, the last of these would never be answered.
        for _ in 0..workers + 1 {
            let (response, _) = client.call(&Request::Ping, b"boom").unwrap();
            assert!(
                matches!(
                    &response,
                    Response::Fail { error: Error::Internal(msg) } if msg.contains("a ping with a payload")
                ),
                "got {response:?}"
            );
        }
        let (response, _) = client.call(&Request::Ping, &[]).unwrap();
        assert!(matches!(response, Response::Pong));
        server.stop();
    }

    #[test]
    fn connect_refused_is_typed_and_counts_retries() {
        // Bind-then-drop guarantees a dead port.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let metrics = atomio_simgrid::Metrics::new();
        let cfg = RpcConfig {
            connect_retries: 2,
            backoff: std::time::Duration::from_millis(1),
            ..RpcConfig::default()
        };
        let transport = MuxTransport::with_config(dead, cfg).with_metrics(metrics.clone());
        let err = transport.call(&Request::Ping, &[]).unwrap_err();
        assert!(matches!(
            err,
            Error::Transport {
                kind: TransportErrorKind::ConnectionRefused,
                ..
            }
        ));
        let counters: std::collections::HashMap<_, _> =
            metrics.counter_snapshot().into_iter().collect();
        assert_eq!(counters["rpc.retries"], 2);
    }

    #[test]
    fn mux_transport_round_trips_and_counts() {
        let mut server =
            RpcServer::start("127.0.0.1:0", Arc::new(ProviderService::new(1))).unwrap();
        let metrics = atomio_simgrid::Metrics::new();
        let mux = MuxTransport::new(server.local_addr()).with_metrics(metrics.clone());
        let transport: Arc<dyn Transport> = Arc::new(mux);
        let provider = RemoteProvider::new(ProviderId::new(0), Arc::clone(&transport));

        let chunk = ChunkId::new(1);
        provider
            .put_chunk_at(0, chunk, Bytes::from_static(b"over the mux"))
            .unwrap();
        let (data, _) = provider
            .get_chunk_range_at(0, chunk, ByteRange::new(9, 3))
            .unwrap();
        assert_eq!(data.as_ref(), b"mux");

        let counters: std::collections::HashMap<_, _> =
            metrics.counter_snapshot().into_iter().collect();
        assert_eq!(counters["rpc.messages"], 2);
        assert!(counters["rpc.bytes_tx"] > 0);
        assert!(counters["rpc.bytes_rx"] > 0);
        // One connection per server: one dial.
        assert_eq!(counters["rpc.pool_conns"], 1);
        assert!(counters["rpc.inflight_peak"] >= 1);

        server.stop();
        // A severed server surfaces a typed transport error, not a hang.
        let err = provider
            .put_chunk_at(0, ChunkId::new(2), Bytes::from_static(b"x"))
            .unwrap_err();
        match err {
            Error::Transport { kind, .. } => assert!(matches!(
                kind,
                TransportErrorKind::ConnectionReset
                    | TransportErrorKind::ConnectionRefused
                    | TransportErrorKind::Timeout
            )),
            other => panic!("expected transport error, got {other:?}"),
        }
    }

    #[test]
    fn mux_concurrent_callers_share_one_transport() {
        let mut server =
            RpcServer::start("127.0.0.1:0", Arc::new(ProviderService::new(1))).unwrap();
        let metrics = atomio_simgrid::Metrics::new();
        let transport: Arc<dyn Transport> =
            Arc::new(MuxTransport::new(server.local_addr()).with_metrics(metrics.clone()));

        std::thread::scope(|s| {
            for t in 0u64..16 {
                let transport = Arc::clone(&transport);
                s.spawn(move || {
                    let provider = RemoteProvider::new(ProviderId::new(0), transport);
                    for i in 0..8 {
                        let chunk = ChunkId::new(t * 100 + i);
                        let body = format!("thread {t} chunk {i}");
                        provider
                            .put_chunk_at(0, chunk, Bytes::from(body.clone().into_bytes()))
                            .unwrap();
                        let (data, _) = provider
                            .get_chunk_range_at(0, chunk, ByteRange::new(0, body.len() as u64))
                            .unwrap();
                        assert_eq!(data.as_ref(), body.as_bytes());
                    }
                });
            }
        });

        let counters: std::collections::HashMap<_, _> =
            metrics.counter_snapshot().into_iter().collect();
        assert_eq!(counters["rpc.messages"], 16 * 8 * 2);
        // Sixteen callers, one connection: exactly one dial.
        assert_eq!(counters["rpc.pool_conns"], 1);
        server.stop();
    }

    #[test]
    fn the_first_call_after_a_server_restart_is_served() {
        let _sockets = holding_sockets();
        let service: Arc<dyn Service> = Arc::new(ProviderService::new(1));
        let mut server = RpcServer::start("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let addr = server.local_addr();
        let mux = MuxTransport::new(addr);
        mux.call(&Request::Ping, &[]).unwrap();
        // Each stop closes the client's connection from the server side;
        // the call right after the rebind must notice the close and
        // redial, not send on the dead socket.
        for restart in 0..50 {
            server.stop();
            server = RpcServer::start(addr, Arc::clone(&service)).unwrap();
            let result = mux.call(&Request::Ping, &[]);
            assert!(
                matches!(result, Ok((Response::Pong, _))),
                "restart {restart}: {result:?}"
            );
        }
        server.stop();
    }

    #[test]
    fn mux_version_mismatch_is_typed() {
        use std::io::{Read as _, Write as _};
        // A fake peer that answers any frame with the prefix of a v8
        // frame — the protocol before this one.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Consume the whole request frame (prefix declares the rest)
            // so the client's write completes before the bogus reply.
            let mut prefix = [0u8; 17];
            s.read_exact(&mut prefix).unwrap();
            let head = u32::from_be_bytes(prefix[9..13].try_into().unwrap()) as usize;
            let body = u32::from_be_bytes(prefix[13..17].try_into().unwrap()) as usize;
            let mut rest = vec![0u8; head + body];
            s.read_exact(&mut rest).unwrap();
            let mut junk = [0u8; 17];
            junk[0] = 8;
            s.write_all(&junk).unwrap();
            // Hold the socket open until the client has seen the frame.
            std::thread::sleep(std::time::Duration::from_millis(200));
        });

        let transport = MuxTransport::new(addr);
        let err = transport.call(&Request::Ping, &[]).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Transport {
                    kind: TransportErrorKind::VersionMismatch,
                    ..
                }
            ),
            "got {err:?}"
        );
        peer.join().unwrap();
    }

    #[test]
    fn server_args_parse_rpc_config_flags() {
        let args = ServerArgs::parse(
            [
                "127.0.0.1:7420",
                "--providers",
                "4",
                "--workers",
                "8",
                "--server-mode",
                "reactor",
                "--max-conns",
                "64",
                "--max-inflight-per-conn",
                "16",
                "--data-dir",
                "/tmp/atomio-data",
                "--fsync",
                "group:8",
            ]
            .map(String::from),
            "--providers",
            1,
            false,
            false,
        )
        .unwrap();
        assert_eq!(args.count, 4);
        assert_eq!(
            args.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/atomio-data"))
        );
        assert_eq!(args.fsync, atomio_types::FsyncPolicy::Group(8));
        assert_eq!(
            args.backend(),
            atomio_types::BackendConfig::disk("/tmp/atomio-data")
                .with_fsync(atomio_types::FsyncPolicy::Group(8))
        );
        // `--server-mode reactor` is a no-op: nothing but the three
        // server-side fields moves off the defaults.
        assert_eq!(
            args.cfg,
            RpcConfig {
                server_workers: 8,
                max_conns: 64,
                max_inflight_per_conn: 16,
                ..RpcConfig::default()
            }
        );
        assert!(parse_as(PROVIDER, "--bogus", "1").is_err());
        // The deleted front-end is refused by name, not silently mapped.
        let err = parse_as(PROVIDER, "--server-mode", "threads").unwrap_err();
        assert!(err.contains("PR 17"), "got {err}");
    }

    /// Binary name, fleet-size flag with its default, whether
    /// `--chunk-size` parses, and whether the role hosts version
    /// managers: the three deployed roles, exactly as their binaries
    /// configure them.
    type Role = (&'static str, Option<(&'static str, usize)>, bool, bool);
    const PROVIDER: Role = (
        "atomio-provider-server",
        Some(("--providers", 1)),
        false,
        false,
    );
    const META: Role = ("atomio-meta-server", Some(("--shards", 1)), true, false);
    const VERSION: Role = ("atomio-version-server", None, true, true);

    fn parse_as(role: Role, flag: &str, value: &str) -> Result<ServerArgs, String> {
        let (_, count_flag, chunk, versions) = role;
        let (count_flag, default_count) = count_flag.unwrap_or(("", 0));
        ServerArgs::parse(
            ["127.0.0.1:0", flag, value].map(String::from),
            count_flag,
            default_count,
            chunk,
            versions,
        )
    }

    #[test]
    fn server_args_parse_shard_flag() {
        let shard = |value: &str| parse_as(VERSION, "--shard", value).map(|args| args.shard);
        assert_eq!(shard("2/4"), Ok((2, 4)));
        assert_eq!(shard("0/1"), Ok((0, 1)));
        // Without the flag the server is the one shard of an unsharded
        // fleet.
        let unflagged = parse_as(VERSION, "--chunk-size", "4096").unwrap();
        assert_eq!(unflagged.shard, (0, 1));
        // Index must be in range, and the spelling is strictly I/N.
        assert!(shard("4/4").is_err());
        assert!(shard("2").is_err());
        assert!(shard("a/b").is_err());
        // Only the version server hosts version managers.
        for role in [PROVIDER, META] {
            let err = parse_as(role, "--shard", "0/4").unwrap_err();
            assert!(
                err.contains("hosts no version managers"),
                "{}: {err}",
                role.0
            );
        }
    }

    #[test]
    fn usage_strings_cannot_drift_from_the_parser() {
        // For every flag the codebase has ever known, the parser accepts
        // it if and only if the role's usage line advertises it — so a
        // flag added to one without the other fails here.
        //
        // Each flag with a value its parser accepts — "1" fits the
        // numeric flags, but `--fsync` needs a policy spelling and
        // `--data-dir` takes a path.
        let all_flags = [
            ("--providers", "1"),
            ("--shards", "1"),
            ("--chunk-size", "1"),
            ("--retention", "keep-last:2"),
            ("--lease-ttl-ms", "60000"),
            ("--shard", "0/4"),
            ("--data-dir", "/tmp/atomio-data"),
            ("--fsync", "per-publish"),
            ("--workers", "1"),
            ("--server-mode", "reactor"),
            ("--max-conns", "1"),
            ("--max-inflight-per-conn", "1"),
            // Deleted in PR 17 (client-dial fields and timeouts no
            // server reads): neither accepted nor advertised, by any role.
            ("--pool-conns", "1"),
            ("--mux-streams-per-conn", "1"),
            ("--connect-retries", "1"),
            ("--connect-timeout-ms", "1"),
            ("--read-timeout-ms", "1"),
            ("--write-timeout-ms", "1"),
            ("--backoff-ms", "1"),
        ];
        let accepted_by = |role: Role| -> Vec<&str> {
            let (name, count_flag, chunk, versions) = role;
            let usage = server_usage(name, count_flag.map(|(f, _)| f), chunk, versions);
            let mut accepted = Vec::new();
            for (flag, sample) in all_flags {
                let parses = parse_as(role, flag, sample).is_ok();
                let advertised = usage.contains(&format!("[{flag} "));
                assert_eq!(
                    parses, advertised,
                    "{name}: {flag} accepted={parses} but advertised={advertised}\n{usage}"
                );
                if parses {
                    accepted.push(flag);
                }
            }
            accepted
        };
        // And each role's flag set is the one its service can use. The
        // provider server has no chunk geometry and the meta server no
        // version managers: both reject the flags instead of silently
        // ignoring them — save `--chunk-size` on the meta server, which
        // the frozen benchmark passes (see `ServerArgs::parse`).
        let shared = [
            "--data-dir",
            "--fsync",
            "--workers",
            "--server-mode",
            "--max-conns",
            "--max-inflight-per-conn",
        ];
        let with_shared = |own: &[&'static str]| [own, &shared[..]].concat();
        assert_eq!(accepted_by(PROVIDER), with_shared(&["--providers"]));
        assert_eq!(
            accepted_by(META),
            with_shared(&["--shards", "--chunk-size"])
        );
        assert_eq!(
            accepted_by(VERSION),
            with_shared(&["--chunk-size", "--retention", "--lease-ttl-ms", "--shard"])
        );
    }

    #[test]
    fn over_max_conns_clients_get_a_typed_busy() {
        // max_conns = 0: every connection is over the cap.
        let cfg = RpcConfig {
            max_conns: 0,
            ..RpcConfig::default()
        };
        let mut server =
            RpcServer::start_with_config("127.0.0.1:0", Arc::new(ProviderService::new(1)), cfg)
                .unwrap();

        // The proxies funnel the Busy response into the typed
        // admission error.
        let transport = Arc::new(MuxTransport::new(server.local_addr()));
        let provider = RemoteProvider::new(ProviderId::new(0), transport);
        let err = provider
            .put_chunk_at(0, ChunkId::new(1), Bytes::from_static(b"x"))
            .unwrap_err();
        assert!(
            matches!(err, Error::AdmissionRejected { max_conns: 0, .. }),
            "client got {err:?}"
        );
        server.stop();
    }

    #[test]
    fn admitted_conns_survive_a_rejected_newcomer() {
        let cfg = RpcConfig {
            max_conns: 1,
            ..RpcConfig::default()
        };
        let mut server =
            RpcServer::start_with_config("127.0.0.1:0", Arc::new(ProviderService::new(1)), cfg)
                .unwrap();

        // One admitted long-lived connection…
        let admitted = MuxTransport::new(server.local_addr());
        let (r, _) = admitted.call(&Request::Ping, &[]).unwrap();
        assert!(matches!(r, Response::Pong));

        // …pushes the newcomer over the cap: typed Busy for it,
        // uninterrupted service for the admitted one.
        let newcomer = MuxTransport::new(server.local_addr());
        let (r, _) = newcomer.call(&Request::Ping, &[]).unwrap();
        assert!(
            matches!(r, Response::Busy { max_conns: 1, .. }),
            "got {r:?}"
        );
        let (r, _) = admitted.call(&Request::Ping, &[]).unwrap();
        assert!(matches!(r, Response::Pong), "admitted conn died");
        server.stop();
    }

    /// A service whose handlers block on a shared gate, counting how
    /// many requests ever reached dispatch — the observable for the
    /// reactor's in-flight parking.
    #[derive(Debug)]
    struct GatedService {
        entered: std::sync::atomic::AtomicUsize,
        gate: std::sync::Mutex<bool>,
        cv: std::sync::Condvar,
    }

    impl GatedService {
        fn new() -> Arc<Self> {
            Arc::new(GatedService {
                entered: std::sync::atomic::AtomicUsize::new(0),
                gate: std::sync::Mutex::new(false),
                cv: std::sync::Condvar::new(),
            })
        }

        fn open(&self) {
            *self.gate.lock().unwrap() = true;
            self.cv.notify_all();
        }
    }

    impl Service for GatedService {
        fn handle(&self, _request: Request, _payload: bytes::Bytes) -> (Response, bytes::Bytes) {
            self.entered
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
            (Response::Pong, bytes::Bytes::new())
        }
    }

    #[test]
    fn reactor_parks_a_conn_at_its_inflight_cap() {
        let service = GatedService::new();
        let cap = 2;
        let cfg = RpcConfig {
            max_inflight_per_conn: cap,
            server_workers: 8,
            read_timeout: std::time::Duration::from_secs(10),
            ..RpcConfig::default()
        };
        let mut server = RpcServer::start_with_config(
            "127.0.0.1:0",
            Arc::clone(&service) as Arc<dyn Service>,
            cfg,
        )
        .unwrap();

        // 8 concurrent callers multiplexed over ONE connection; only
        // `cap` of their requests may reach dispatch while the gate is
        // shut — the rest sit parked in the reactor's read buffer.
        let transport: Arc<dyn Transport> = Arc::new(MuxTransport::with_config(
            server.local_addr(),
            RpcConfig {
                read_timeout: std::time::Duration::from_secs(10),
                ..RpcConfig::default()
            },
        ));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let transport = Arc::clone(&transport);
                s.spawn(move || {
                    let (r, _) = transport.call(&Request::Ping, &[]).unwrap();
                    assert!(matches!(r, Response::Pong));
                });
            }
            // Wait for the cap to fill, then give stragglers every
            // chance to (incorrectly) slip past it.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while service.entered.load(std::sync::atomic::Ordering::SeqCst) < cap
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
            let while_gated = service.entered.load(std::sync::atomic::Ordering::SeqCst);
            assert_eq!(
                while_gated, cap,
                "parking must cap dispatched requests at max_inflight_per_conn"
            );
            service.open();
        });
        assert_eq!(service.entered.load(std::sync::atomic::Ordering::SeqCst), 8);
        server.stop();
    }

    /// The two tests that count this process's open fds hold this
    /// exclusively ([`counting_fds`]); the tests that keep many sockets
    /// open for a while hold it shared ([`holding_sockets`]), so their
    /// sockets cannot read as a leak in another test's count.
    static FD_COUNT: std::sync::RwLock<()> = std::sync::RwLock::new(());

    fn counting_fds() -> std::sync::RwLockWriteGuard<'static, ()> {
        FD_COUNT
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn holding_sockets() -> std::sync::RwLockReadGuard<'static, ()> {
        FD_COUNT
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens the gate when dropped, so a failing assertion cannot leave
    /// workers stuck behind it (and the test joining them forever).
    struct OpensOnDrop<'a>(&'a GatedService);

    impl Drop for OpensOnDrop<'_> {
        fn drop(&mut self) {
            self.0.open();
        }
    }

    /// One mux connection carrying many concurrent callers, with room
    /// for slow answers.
    fn one_mux_conn(addr: std::net::SocketAddr) -> Arc<dyn Transport> {
        Arc::new(MuxTransport::with_config(
            addr,
            RpcConfig {
                read_timeout: std::time::Duration::from_secs(10),
                ..RpcConfig::default()
            },
        ))
    }

    /// Waits for `want` requests to have entered the gated service.
    fn await_entered(service: &GatedService, want: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while service.entered.load(std::sync::atomic::Ordering::SeqCst) < want
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(
            service.entered.load(std::sync::atomic::Ordering::SeqCst),
            want
        );
    }

    #[test]
    fn the_reactor_keeps_accepting_while_every_worker_is_stuck() {
        let _sockets = holding_sockets();
        let service = GatedService::new();
        let cfg = RpcConfig {
            server_workers: 1,
            ..RpcConfig::default()
        };
        let mut server = RpcServer::start_with_config(
            "127.0.0.1:0",
            Arc::clone(&service) as Arc<dyn Service>,
            cfg,
        )
        .unwrap();
        let transport = one_mux_conn(server.local_addr());
        std::thread::scope(|s| {
            let _gate = OpensOnDrop(&service);
            for _ in 0..8 {
                let transport = Arc::clone(&transport);
                s.spawn(move || {
                    let (r, _) = transport.call(&Request::Ping, &[]).unwrap();
                    assert!(matches!(r, Response::Pong));
                });
            }
            // The one worker is stuck in the gate; give the other seven
            // pings time to reach the reactor and queue up behind it.
            await_entered(&service, 1);
            std::thread::sleep(std::time::Duration::from_millis(100));
            let started = std::time::Instant::now();
            let _second = std::net::TcpStream::connect(server.local_addr()).unwrap();
            await_open_conns(&server, 2);
            assert!(
                started.elapsed() < std::time::Duration::from_secs(1),
                "accepting took {:?} behind a stuck pool",
                started.elapsed()
            );
        });
        assert_eq!(service.entered.load(std::sync::atomic::Ordering::SeqCst), 8);
        server.stop();
    }

    #[test]
    fn a_parked_connection_is_always_resumed() {
        let _sockets = holding_sockets();
        let cfg = RpcConfig {
            max_inflight_per_conn: 1,
            ..RpcConfig::default()
        };
        let mut server =
            RpcServer::start_with_config("127.0.0.1:0", Arc::new(ProviderService::new(1)), cfg)
                .unwrap();
        let transport = one_mux_conn(server.local_addr());
        // Every answer races the reactor's parking of the next request:
        // a lost un-park leaves the connection parked with nothing in
        // dispatch, and its callers time out.
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let transport = Arc::clone(&transport);
                s.spawn(move || {
                    for _ in 0..2_000 {
                        let (r, _) = transport.call(&Request::Ping, &[]).unwrap();
                        assert!(matches!(r, Response::Pong));
                    }
                });
            }
        });
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "16 000 pings took {:?}",
            started.elapsed()
        );
        server.stop();
    }

    #[test]
    fn a_reply_larger_than_the_send_buffer_arrives_whole_between_pings() {
        let _sockets = holding_sockets();
        use std::io::Write as _;
        let mut server =
            RpcServer::start("127.0.0.1:0", Arc::new(ProviderService::new(1))).unwrap();
        let provider = RemoteProvider::new(
            ProviderId::new(0),
            Arc::new(MuxTransport::new(server.local_addr())),
        );
        // 8 MiB of answer in one frame, each MiB its own pattern, so a
        // ping reply cut into it (or a slice of it lost) shows.
        const MIB: u64 = 1 << 20;
        let chunks: Vec<Bytes> = (0..8u8)
            .map(|i| {
                Bytes::from(
                    (0..MIB)
                        .map(|b| (b as u8) ^ i.wrapping_mul(37))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        for (i, data) in chunks.iter().enumerate() {
            provider
                .put_chunk_at(0, ChunkId::new(i as u64), data.clone())
                .unwrap();
        }
        let batch = Request::GetChunkRangeBatch {
            provider: ProviderId::new(0),
            items: (0..8)
                .map(|i| (0, ChunkId::new(i), ByteRange::new(0, MIB)))
                .collect(),
        };
        // A peer that does not read: the batch reply fills the socket and
        // its remainder waits in the write queue while the pings sent
        // next are answered by other workers.
        let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut frames = Vec::new();
        wire::append_frame(&mut frames, 1, &batch, &[]).unwrap();
        conn.write_all(&frames).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let pings = 2..34u64;
        for id in pings.clone() {
            let mut ping = Vec::new();
            wire::append_frame(&mut ping, id, &Request::Ping, &[]).unwrap();
            conn.write_all(&ping).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        let first = wire::read_frame_bytes(&mut conn).unwrap();
        let response: Response = wire::decode_header(&first.header).unwrap();
        assert_eq!(first.id, 1);
        assert!(
            matches!(&response, Response::ChunkBatch { results } if results.len() == 8),
            "got {response:?}"
        );
        assert!(
            first.payload.as_ref() == chunks.concat().as_slice(),
            "the batch reply came back mangled"
        );
        let mut ids = Vec::new();
        for _ in pings.clone() {
            let frame = wire::read_frame_bytes(&mut conn).unwrap();
            let response: Response = wire::decode_header(&frame.header).unwrap();
            assert!(matches!(response, Response::Pong), "got {response:?}");
            ids.push(frame.id);
        }
        ids.sort_unstable();
        assert_eq!(ids, pings.collect::<Vec<_>>());
        server.stop();
    }

    #[test]
    fn stop_fails_queued_and_inflight_calls_and_the_workers_exit() {
        let _sockets = holding_sockets();
        let service = GatedService::new();
        let cfg = RpcConfig {
            server_workers: 2,
            ..RpcConfig::default()
        };
        let mut server = RpcServer::start_with_config(
            "127.0.0.1:0",
            Arc::clone(&service) as Arc<dyn Service>,
            cfg,
        )
        .unwrap();
        let transport = one_mux_conn(server.local_addr());
        let (outcomes, outcome) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let _gate = OpensOnDrop(&service);
            for _ in 0..8 {
                let (transport, outcomes) = (Arc::clone(&transport), outcomes.clone());
                s.spawn(move || outcomes.send(transport.call(&Request::Ping, &[])));
            }
            // Two calls in flight (both workers in the gate), six queued.
            await_entered(&service, 2);
            std::thread::sleep(std::time::Duration::from_millis(100));
            let server = &mut server;
            s.spawn(move || server.stop());
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            for call in 0..8 {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                let result = outcome
                    .recv_timeout(left)
                    .unwrap_or_else(|_| panic!("call {call} still pending after stop"));
                assert!(
                    matches!(
                        result,
                        Err(Error::Transport {
                            kind: TransportErrorKind::ConnectionReset,
                            ..
                        })
                    ),
                    "got {result:?}"
                );
            }
        });
        // The gate is open: the workers finish, drain the closed queue
        // and exit, each dropping its handle on the service.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while Arc::strong_count(&service) > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(Arc::strong_count(&service), 1, "a worker outlived stop");
    }

    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
    }

    /// Reaping is asynchronous (hangup/EOF handling on the reactor
    /// thread): polls the open-connections gauge down to `want`.
    fn await_open_conns(server: &RpcServer, want: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.open_conns() != want && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(server.open_conns(), want, "conns not reaped");
    }

    #[test]
    fn finished_conns_are_reaped_not_pinned_until_stop() {
        let _fds = counting_fds();
        let mut server =
            RpcServer::start("127.0.0.1:0", Arc::new(ProviderService::new(1))).unwrap();
        let baseline = open_fds();
        // 200 connect/dispatch/disconnect churn cycles: each transport
        // dials one connection and closes it when dropped.
        for _ in 0..200 {
            let t = MuxTransport::new(server.local_addr());
            let (r, _) = t.call(&Request::Ping, &[]).unwrap();
            assert!(matches!(r, Response::Pong));
        }
        await_open_conns(&server, 0);
        let after = open_fds();
        assert!(
            after <= baseline + 20,
            "fd usage grew from {baseline} to {after} over 200 churn cycles"
        );
        server.stop();
    }

    #[test]
    fn malformed_frames_close_only_the_offending_connection() {
        let _fds = counting_fds();
        use std::io::{Read as _, Write as _};
        let mut server =
            RpcServer::start("127.0.0.1:0", Arc::new(ProviderService::new(1))).unwrap();
        // The bystander: one connection that must keep serving.
        let bystander = MuxTransport::new(server.local_addr());
        let ping = || {
            let (r, _) = bystander.call(&Request::Ping, &[]).unwrap();
            assert!(matches!(r, Response::Pong));
        };
        ping();
        await_open_conns(&server, 1);
        let baseline = open_fds();

        // A well-formed frame, cut up three ways.
        let mut good = Vec::new();
        wire::append_frame(&mut good, 1, &Request::Ping, &[]).unwrap();
        let prefix = wire::FRAME_PREFIX_BYTES as usize;
        let mut bad_version = good.clone();
        bad_version[0] = PROTOCOL_VERSION + 1;
        let mut over_limit = good[..prefix].to_vec();
        over_limit[13..17].copy_from_slice(&(wire::MAX_PAYLOAD_BYTES + 1).to_be_bytes());
        let truncated = good[..good.len() - 1].to_vec();

        // Enough rounds that a leaked socket per bad frame would show
        // through the fd slack below.
        for _ in 0..20 {
            for (what, bytes, then_eof) in [
                ("bad version byte", &bad_version, false),
                ("over-limit declared length", &over_limit, false),
                ("truncated frame then EOF", &truncated, true),
            ] {
                let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
                conn.write_all(bytes).unwrap();
                if then_eof {
                    conn.shutdown(std::net::Shutdown::Write).unwrap();
                }
                // No answer, just a close: EOF (or a reset), never bytes
                // and never a hang.
                conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                    .unwrap();
                match conn.read(&mut [0u8; 64]) {
                    Ok(0) => {}
                    Ok(n) => panic!("{what}: server answered {n} bytes"),
                    Err(e) => assert!(
                        !matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ),
                        "{what}: server kept the connection open"
                    ),
                }
                ping();
                await_open_conns(&server, 1);
            }
        }
        let after = open_fds();
        assert!(
            after <= baseline + 20,
            "fd usage grew from {baseline} to {after} over 60 malformed connections"
        );
        server.stop();
    }

    #[test]
    fn an_undecodable_header_fails_its_call_not_its_connection() {
        use std::io::Write as _;
        let mut server =
            RpcServer::start("127.0.0.1:0", Arc::new(ProviderService::new(1))).unwrap();
        let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        // Well framed, but the header names no request (tag 200), then a
        // ping on the same connection.
        let mut frames = Vec::new();
        wire::append_frame(&mut frames, 1, &200u8, &[]).unwrap();
        wire::append_frame(&mut frames, 2, &Request::Ping, &[]).unwrap();
        conn.write_all(&frames).unwrap();
        let mut answers = Vec::new();
        for _ in 0..2 {
            let frame = wire::read_frame_bytes(&mut conn).unwrap();
            let response: Response = wire::decode_header(&frame.header).unwrap();
            answers.push((frame.id, response));
        }
        answers.sort_by_key(|(id, _)| *id);
        assert!(is_protocol_error(&answers[0].1), "got {:?}", answers[0]);
        assert!(matches!(answers[1], (2, Response::Pong)), "{answers:?}");
        server.stop();
    }

    /// A version service that answers every grant with one canned delta.
    #[derive(Debug)]
    struct GrantsWith(Vec<atomio_meta::WriteSummary>);

    impl Service for GrantsWith {
        fn handle(&self, _request: Request, _payload: Bytes) -> (Response, Bytes) {
            let ticket = atomio_version::Ticket {
                version: self.0.last().map_or(VersionId::new(1), |row| row.version),
                capacity: 256,
                size: 64,
            };
            let delta = self.0.clone();
            (Response::TicketGrant { ticket, delta }, Bytes::new())
        }
    }

    #[test]
    fn a_malformed_grant_fails_typed_and_leaves_the_mirror_alone() {
        let row = |version: u64, capacity: u64| atomio_meta::WriteSummary {
            version: VersionId::new(version),
            extents: Arc::new(atomio_types::ExtentList::single(ByteRange::new(0, 64))),
            capacity,
        };
        let p = atomio_simgrid::SimClock::new().register();
        let extents = atomio_types::ExtentList::single(ByteRange::new(0, 64));
        for (what, delta) in [
            ("a gap: v2 is missing", vec![row(1, 128), row(3, 128)]),
            ("a capacity that regresses", vec![row(1, 256), row(2, 128)]),
            ("no row for the grantee", vec![]),
        ] {
            let vm = RemoteVersionManager::new(1, loopback(GrantsWith(delta)));
            let outcomes = [
                vm.ticket(&p, &extents).map(drop),
                vm.ticket_append(&p, 64).map(drop),
            ];
            for outcome in outcomes {
                assert!(
                    matches!(
                        outcome,
                        Err(Error::Transport {
                            kind: TransportErrorKind::Protocol,
                            ..
                        })
                    ),
                    "{what}: got {outcome:?}"
                );
            }
            assert_eq!(vm.history().len(), 0, "{what}: the mirror moved");
        }
    }

    #[test]
    fn a_grant_whose_reply_would_pass_the_frame_limit_is_refused_and_never_issued() {
        // A row encodes to 20 bytes plus 16 per range, and a grant's reply
        // adds 29: three rows of 349 000 ranges and a grantee's own 1 569
        // come to 3 bytes under the header limit, one range more to 13 over.
        let spread = |n: u64| atomio_types::ExtentList::from_pairs((0..n).map(|i| (2 * i, 1)));
        let transport = loopback(VersionService::new(64));
        let p = atomio_simgrid::SimClock::new().register();
        let publish = |vm: &RemoteVersionManager, ticket: atomio_version::Ticket| {
            let blob = atomio_types::BlobId::new(1);
            let root =
                atomio_meta::NodeKey::new(blob, ticket.version, ByteRange::new(0, ticket.capacity));
            vm.publish(&p, ticket, root).unwrap();
        };
        let writer = RemoteVersionManager::new(1, Arc::clone(&transport));
        for _ in 0..3 {
            let ticket = writer.ticket(&p, &spread(349_000)).unwrap();
            publish(&writer, ticket);
        }

        // A fresh mirror asks for every row: the reply could not be
        // framed, so the grant is refused, typed, and nothing is issued.
        let late = RemoteVersionManager::new(1, Arc::clone(&transport));
        let refused = late.ticket(&p, &spread(1_570));
        assert!(
            matches!(
                refused,
                Err(Error::Transport {
                    kind: TransportErrorKind::Protocol,
                    ..
                })
            ),
            "got {refused:?}"
        );
        assert_eq!(late.history().len(), 0);

        // The next version is still v4: a grant one range smaller fits
        // to the byte, and its publish is visible at once.
        let fits = RemoteVersionManager::new(1, Arc::clone(&transport));
        let ticket = fits.ticket(&p, &spread(1_569)).unwrap();
        assert_eq!(ticket.version, VersionId::new(4));
        assert_eq!(fits.history().len(), 4);
        publish(&fits, ticket);
        assert!(writer.is_published(ticket.version).unwrap());
        let ticket = writer.ticket(&p, &spread(1)).unwrap();
        assert_eq!(ticket.version, VersionId::new(5));
        publish(&writer, ticket);
        assert!(fits.is_published(ticket.version).unwrap());
    }

    #[test]
    fn server_metrics_report_connection_counters() {
        let metrics = atomio_simgrid::Metrics::new();
        let mut server = RpcServer::start_with_metrics(
            "127.0.0.1:0",
            Arc::new(ProviderService::new(1)),
            RpcConfig {
                max_conns: 1,
                ..RpcConfig::default()
            },
            Some(metrics.clone()),
        )
        .unwrap();
        // One admitted connection fills the cap…
        let admitted = MuxTransport::new(server.local_addr());
        admitted.call(&Request::Ping, &[]).unwrap();
        // …so the newcomer is admission-rejected.
        let newcomer = MuxTransport::new(server.local_addr());
        let _ = newcomer.call(&Request::Ping, &[]);
        drop(admitted);
        // Reaping (and its gauge update) is asynchronous: poll.
        let gauge = metrics.counter(counters::CONNS_OPEN);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while gauge.get() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        server.stop();
        let snapshot: std::collections::HashMap<_, _> =
            metrics.counter_snapshot().into_iter().collect();
        assert!(snapshot["rpc.accepts"] >= 2);
        assert!(snapshot["rpc.admission_rejects"] >= 1);
        assert!(snapshot["rpc.conns_peak"] >= 1);
        assert_eq!(snapshot["rpc.conns_open"], 0);
        assert!(snapshot["rpc.reactor_wakeups"] >= 1);
    }
}
