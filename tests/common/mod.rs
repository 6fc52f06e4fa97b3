//! One in-process deployment of BlobSeer's three services — data
//! providers, metadata shards, the version manager — for the suites that
//! test them behind a transport.
//!
//! [`Deployment::start`] hosts the roles a [`Layout`] names, each behind
//! its own service, over `Loopback` or localhost TCP (one `RpcServer` per
//! role, dialed as a `MuxTransport`). The version manager is N
//! `VersionService` shards behind one `SlotRoutedTransport`. Every role
//! stores on one [`Backend`] in the deployment's temp dir; a role that is
//! not hosted runs in process, inside the store, on that same backend.
//! Suites that wrap a transport take it from [`Deployment::transport`]
//! and assemble their store themselves ([`Deployment::assemble`]).

// Each suite uses its own part of the harness.
#![allow(dead_code)]

use atomio::core::{Blob, Store, StoreConfig};
use atomio::meta::{disk::meta_log_path, node_store_for, NodeKey, NodeStore};
use atomio::provider::{chunk_store_for, ChunkStore, ProviderManager};
use atomio::rpc::{
    counters, dial, Loopback, MetaService, ProviderService, RemoteMetaStore, RemoteProvider,
    RemoteVersionManager, Request, Response, RpcConfig, RpcMode, RpcServer, Service,
    SlotRoutedTransport, Transport, VersionService,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::{FaultInjector, Metrics, SimClock};
use atomio::types::tempdir::TempDir;
use atomio::types::{BackendConfig, FsyncPolicy, ProviderId};
use bytes::Bytes;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// How the client reaches a hosted role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// In process, through the full wire codec.
    Loopback,
    /// Localhost TCP, one server per role.
    Tcp,
}

/// What every role of a deployment stores its state on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    /// Durable files, synced per publish.
    Disk,
    /// The same files, never synced on the commit path: for suites that
    /// do not restart and need not pay the fsyncs' wall time.
    DiskDeferred,
}

/// Both backends, for suites that run each test on each.
pub const BACKENDS: [Backend; 2] = [Backend::Memory, Backend::Disk];

/// `backend` rooted in `dir`.
pub fn backend_config(backend: Backend, dir: &Path) -> BackendConfig {
    match backend {
        Backend::Memory => BackendConfig::Memory,
        Backend::Disk => BackendConfig::disk(dir),
        Backend::DiskDeferred => BackendConfig::disk(dir).with_fsync(FsyncPolicy::Deferred),
    }
}

/// Which roles a deployment hosts as services, and how they are reached.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub wire: Wire,
    pub backend: Backend,
    /// One provider service per data provider of the store's config.
    pub providers: bool,
    /// One metadata service holding all of the config's shards.
    pub meta: bool,
    /// Version-service shards; 0 keeps the version managers in process.
    pub version_shards: usize,
}

impl Layout {
    /// Nothing hosted yet: every role in process.
    pub fn new(wire: Wire, backend: Backend) -> Self {
        Layout {
            wire,
            backend,
            providers: false,
            meta: false,
            version_shards: 0,
        }
    }

    /// All three roles hosted over TCP: the deployment the paper's
    /// architecture describes.
    pub fn three_services(backend: Backend, version_shards: usize) -> Self {
        Layout {
            providers: true,
            meta: true,
            version_shards,
            ..Layout::new(Wire::Tcp, backend)
        }
    }
}

/// One hosted service of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Provider(usize),
    Meta,
    Version(usize),
}

struct Hosted {
    role: Role,
    /// The TCP listen address, kept across restarts.
    addr: Option<SocketAddr>,
    transport: Arc<dyn Transport>,
    /// The service and its server (TCP only; `None` while killed).
    live: Mutex<(Arc<dyn Service>, Option<RpcServer>)>,
}

/// A running deployment. Its servers stop, and its temp dir goes, when
/// it drops.
pub struct Deployment {
    hosted: Vec<Hosted>,
    /// The store config, with the layout's backend.
    config: StoreConfig,
    layout: Layout,
    /// The data providers when they are not hosted.
    local_providers: Vec<Arc<dyn ChunkStore>>,
    /// The version fleet's slot-routed transport, when hosted.
    versions: Option<Arc<dyn Transport>>,
    /// Counters of every client transport the deployment built.
    pub rpc: Metrics,
    /// The fault plane of the chunk stores themselves (server side),
    /// which the client's provider manager cannot see.
    pub hosted_faults: Arc<FaultInjector>,
    tmp: TempDir,
}

impl Deployment {
    /// Starts the roles `layout` hosts for a store configured by
    /// `config`, whose backend becomes `layout.backend`.
    pub fn start(config: StoreConfig, layout: Layout) -> Self {
        let tmp = TempDir::new("atomio-deployment");
        let mut d = Deployment {
            hosted: Vec::new(),
            config: config.with_backend(backend_config(layout.backend, tmp.path())),
            layout,
            local_providers: Vec::new(),
            versions: None,
            rpc: Metrics::new(),
            hosted_faults: Arc::new(FaultInjector::new(0)),
            tmp,
        };
        let providers = d.config.data_providers;
        let mut roles = Vec::new();
        if layout.providers {
            roles.extend((0..providers).map(Role::Provider));
        } else {
            d.local_providers = (0..providers).map(|i| d.chunk_store(i)).collect();
        }
        if layout.meta {
            roles.push(Role::Meta);
        }
        roles.extend((0..layout.version_shards).map(Role::Version));
        d.hosted = roles.into_iter().map(|role| d.host(role)).collect();
        if layout.version_shards > 0 {
            let shards = (0..layout.version_shards)
                .map(|i| d.transport(Role::Version(i)))
                .collect();
            d.versions = Some(Arc::new(SlotRoutedTransport::new(shards)));
        }
        d
    }

    fn chunk_store(&self, i: usize) -> Arc<dyn ChunkStore> {
        let id = ProviderId::new(i as u64);
        chunk_store_for(
            &self.config.backend,
            id,
            self.config.cost,
            &self.hosted_faults,
        )
        .expect("open chunk store")
    }

    /// A new service for `role` over whatever state the backend holds.
    fn service_for(&self, role: Role) -> Arc<dyn Service> {
        let config = &self.config;
        match role {
            Role::Provider(i) => Arc::new(ProviderService::from_stores(vec![self.chunk_store(i)])),
            Role::Meta => Arc::new(
                MetaService::with_backend(config.meta_shards, &config.backend)
                    .expect("open meta service"),
            ),
            Role::Version(i) => Arc::new(
                VersionService::with_backend(config.chunk_size, config.backend.clone())
                    .with_retention(config.retention)
                    .with_shard(i, self.layout.version_shards),
            ),
        }
    }

    fn host(&self, role: Role) -> Hosted {
        let service = self.service_for(role);
        let (addr, transport, server): (_, Arc<dyn Transport>, _) = match self.layout.wire {
            Wire::Loopback => {
                let transport = Loopback::new(Arc::clone(&service)).with_metrics(self.rpc.clone());
                (None, Arc::new(transport), None)
            }
            Wire::Tcp => {
                let server = RpcServer::start("127.0.0.1:0", Arc::clone(&service))
                    .unwrap_or_else(|e| panic!("bind {role:?}: {e}"));
                let addr = server.local_addr();
                // No connect retry: every restart binds its port before
                // the next call, so a refusal means a killed server.
                let cfg = RpcConfig {
                    connect_retries: 0,
                    ..RpcConfig::default()
                };
                let transport = dial(addr, RpcMode::Mux, cfg, Some(self.rpc.clone()));
                (Some(addr), transport, Some(server))
            }
        };
        Hosted {
            role,
            addr,
            transport,
            live: Mutex::new((service, server)),
        }
    }

    fn hosted(&self, role: Role) -> &Hosted {
        let hosted = self.hosted.iter().find(|h| h.role == role);
        hosted.unwrap_or_else(|| panic!("{role:?} is not hosted"))
    }

    /// Every hosted role: providers, metadata, version shards.
    pub fn roles(&self) -> Vec<Role> {
        self.hosted.iter().map(|h| h.role).collect()
    }

    /// The client transport to `role`.
    pub fn transport(&self, role: Role) -> Arc<dyn Transport> {
        Arc::clone(&self.hosted(role).transport)
    }

    /// The service `role` runs now (a fresh restart replaces it).
    pub fn service(&self, role: Role) -> Arc<dyn Service> {
        Arc::clone(&self.hosted(role).live.lock().unwrap().0)
    }

    /// Round trips made so far over the deployment's client transports.
    pub fn round_trips(&self) -> u64 {
        self.rpc.counter(counters::MESSAGES).get()
    }

    /// The version fleet's slot-routed client transport.
    pub fn version_transport(&self) -> Arc<dyn Transport> {
        Arc::clone(self.versions.as_ref().expect("no hosted version fleet"))
    }

    /// The data providers as a store sees them: proxies over the
    /// provider transports, or the in-process stores.
    pub fn provider_stores(&self) -> Vec<Arc<dyn ChunkStore>> {
        if !self.layout.providers {
            return self.local_providers.clone();
        }
        let proxy = |i: usize| -> Arc<dyn ChunkStore> {
            let id = ProviderId::new(i as u64);
            Arc::new(RemoteProvider::new(id, self.transport(Role::Provider(i))))
        };
        (0..self.config.data_providers).map(proxy).collect()
    }

    /// The deployment's store. Assemble one store per deployment: the
    /// in-process roles of a second would open the same files.
    pub fn store(&self) -> Store {
        let meta = self.layout.meta.then(|| self.transport(Role::Meta));
        self.assemble(self.provider_stores(), meta)
    }

    /// A store over the caller's providers and metadata transport
    /// (metadata in process when `None`), and the deployment's version
    /// fleet.
    pub fn assemble(
        &self,
        providers: Vec<Arc<dyn ChunkStore>>,
        meta: Option<Arc<dyn Transport>>,
    ) -> Store {
        let config = self.config.clone();
        let faults = Arc::new(FaultInjector::new(config.seed ^ 0xFA17));
        let manager =
            ProviderManager::from_stores(providers, config.allocation, faults, config.seed);
        let meta: Arc<dyn NodeStore> = match meta {
            Some(transport) => Arc::new(RemoteMetaStore::new(transport)),
            None => {
                let nics = Arc::clone(manager.client_nic_registry());
                let store = node_store_for(&config.backend, config.meta_shards, config.cost, nics);
                Arc::new(store.expect("open metadata store"))
            }
        };
        let store = Store::with_substrates(config, Arc::new(manager), meta);
        match self.versions.clone() {
            Some(versions) => store.with_version_oracles(move |blob| {
                Arc::new(RemoteVersionManager::new(blob.raw(), Arc::clone(&versions)))
            }),
            None => store,
        }
    }

    /// Hard-stops `role`'s server: its sockets close and calls in flight
    /// on them fail typed. A provider without a server (in process, or on
    /// Loopback) fails on [`Self::hosted_faults`] instead.
    pub fn kill(&self, role: Role) {
        let server = self.hosted.iter().find(|h| h.role == role);
        match (server.and_then(|h| h.live.lock().unwrap().1.take()), role) {
            (Some(mut server), _) => server.stop(),
            (None, Role::Provider(i)) => {
                self.hosted_faults.fail_provider(ProviderId::new(i as u64))
            }
            (None, _) => panic!("{role:?} has no server to kill"),
        }
    }

    /// Serves `role` on its port again, around the service that survived
    /// the kill.
    pub fn rebind(&self, role: Role) {
        self.serve(role, None);
    }

    /// Rebuilds `role`'s service from the backend's files — crash
    /// recovery, not a warm restart — and serves it on the same port, so
    /// clients reconnect to it.
    pub fn restart_fresh(&self, role: Role) {
        self.serve(role, Some(self.service_for(role)));
    }

    fn serve(&self, role: Role, fresh: Option<Arc<dyn Service>>) {
        let hosted = self.hosted(role);
        let addr = hosted.addr.expect("only a TCP role restarts");
        let mut live = hosted.live.lock().unwrap();
        if let Some(mut running) = live.1.take() {
            running.stop();
        }
        let service = fresh.unwrap_or_else(|| Arc::clone(&live.0));
        // std listeners set SO_REUSEADDR: the rebind does not race the
        // old connections' TIME_WAIT.
        let server = RpcServer::start(addr, Arc::clone(&service))
            .unwrap_or_else(|e| panic!("rebind {role:?}: {e}"));
        *live = (service, Some(server));
    }

    /// Proves the run used the arm it claims. Writes a byte to each of
    /// eight new blobs of `store` (assembled from this deployment), then
    /// checks that a Memory arm wrote no file, that a Disk arm holds each
    /// provider's part file, a metadata shard log and those blobs'
    /// publish logs, and that a fleet of several version shards split
    /// the blobs between two or more of them.
    pub fn prove_arm(&self, store: &Store) {
        let blobs: Vec<Blob> = (0..8).map(|_| store.create_blob()).collect();
        run_actors_on(&SimClock::new(), 1, |_, p| {
            for blob in &blobs {
                blob.write(p, 0, Bytes::from_static(b"!")).unwrap();
            }
        });

        let tmp = self.tmp.path();
        if self.layout.backend == Backend::Memory {
            let files: Vec<_> = std::fs::read_dir(tmp).unwrap().collect();
            assert!(files.is_empty(), "a Memory arm wrote {files:?}");
        } else {
            let mut logs = vec![meta_log_path(&tmp.join("meta"), 0)];
            logs.extend(
                (0..self.config.data_providers)
                    .map(|p| tmp.join(format!("provider-{p}/slots/000/000.part"))),
            );
            logs.extend(
                blobs
                    .iter()
                    .map(|b| tmp.join(format!("version/blob-{}", b.id().raw()))),
            );
            for log in logs {
                assert!(log.exists(), "a Disk arm has no {}", log.display());
            }
        }

        // Each blob is published on exactly one shard, its owner (the
        // others answer WrongShard), and the owners are not all one.
        let shards = self.layout.version_shards;
        let published = |i: usize, blob: u64| {
            let request = Request::VmLatest { blob };
            let (response, _) = self.service(Role::Version(i)).handle(request, Bytes::new());
            matches!(response, Response::Snapshot { record } if record.version.raw() > 0)
        };
        let mut owners = Vec::new();
        for blob in blobs.iter().map(|b| b.id().raw()).filter(|_| shards > 0) {
            let on: Vec<usize> = (0..shards).filter(|&i| published(i, blob)).collect();
            assert_eq!(on.len(), 1, "blob {blob} is published on shards {on:?}");
            owners.extend(on);
        }
        owners.sort_unstable();
        owners.dedup();
        assert!(
            owners.len() >= shards.min(2),
            "{shards} version shards, but only {owners:?} published"
        );
    }
}

/// `keys` in (blob, version, offset, length) order.
pub fn sorted_keys(mut keys: Vec<NodeKey>) -> Vec<NodeKey> {
    keys.sort_by_key(|k| (k.blob, k.version, k.range.offset, k.range.len));
    keys
}
