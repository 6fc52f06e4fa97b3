//! The provider manager: chunk placement and replication.
//!
//! BlobSeer's provider manager tracks participating data providers and
//! assigns each new chunk a home. The paper's striping principle ("a
//! load-balancing allocation strategy that redirects write operations
//! to different storage elements in a round robin fashion") is the one
//! placement: each chunk's primary is the next provider in rotation, its
//! replicas the providers after it. E7c measured least-loaded and random
//! placement against it; both lost or tied and are deleted (EXPERIMENTS,
//! "Frozen verdicts"). Chunks move in batches only
//! ([`ProviderManager::put_batch_replicated`] /
//! [`ProviderManager::get_batch_with_failover`]).

use crate::store::ChunkStore;
use atomio_simgrid::{ClientNics, CostModel, FaultInjector, Participant, Resource};
use atomio_types::{ByteRange, ChunkId, Error, ProviderId, Result};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How new chunks are spread over providers: round-robin, the only
/// placement. Kept because `wallbench/src` passes `StoreConfig::allocation`
/// to [`ProviderManager::from_stores`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Strict rotation over providers (the paper's choice).
    RoundRobin,
}

/// One chunk read in a [`ProviderManager::get_batch_with_failover`]
/// batch: the replica homes are tried in order.
#[derive(Debug, Clone)]
pub struct GetRequest {
    /// The chunk to read.
    pub chunk: ChunkId,
    /// Replica homes in failover order (primary first).
    pub homes: Vec<ProviderId>,
    /// The sub-range of the chunk to fetch.
    pub range: ByteRange,
}

/// Routes chunk operations to a fleet of data providers.
#[derive(Debug)]
pub struct ProviderManager {
    providers: Vec<Arc<dyn ChunkStore>>,
    rr_cursor: AtomicU64,
    faults: Arc<FaultInjector>,
    /// Per-client injection/reception NICs. Shared with the metadata
    /// store (see `Store::new_heterogeneous`) so a client's data and
    /// metadata traffic contend for the same link. See
    /// [`Self::client_nic`].
    client_nics: Arc<ClientNics>,
}

impl ProviderManager {
    /// Builds a fleet of `n` providers sharing one cost model and fault
    /// plane.
    pub fn new(n: usize, cost: CostModel, faults: Arc<FaultInjector>) -> Self {
        assert!(n > 0, "need at least one data provider");
        Self::heterogeneous(vec![cost; n], faults)
    }

    /// Builds a fleet with **per-provider hardware** (straggler studies,
    /// mixed HDD/SSD deployments): provider `i` gets `costs[i]`.
    pub fn heterogeneous(costs: Vec<CostModel>, faults: Arc<FaultInjector>) -> Self {
        Self::with_backend(&atomio_types::BackendConfig::Memory, costs, faults)
            .expect("the memory backend opens nothing that can fail")
    }

    /// Builds a fleet whose storage substrate is chosen by `backend`:
    /// in-memory [`DataProvider`](crate::DataProvider)s for `Memory`, recovered
    /// [`DiskProvider`](crate::disk::DiskProvider)s under
    /// `<dir>/provider-<i>` for `Disk` — one `with_backend` call per
    /// deployment replaces per-provider constructor scatter.
    ///
    /// # Errors
    /// [`Error::Internal`] when a disk backend cannot open its
    /// directories (I/O failure, foreign superblock, format mismatch).
    pub fn with_backend(
        backend: &atomio_types::BackendConfig,
        costs: Vec<CostModel>,
        faults: Arc<FaultInjector>,
    ) -> Result<Self> {
        assert!(!costs.is_empty(), "need at least one data provider");
        let stores = costs
            .into_iter()
            .enumerate()
            .map(|(i, cost)| {
                crate::disk::chunk_store_for(backend, ProviderId::new(i as u64), cost, &faults)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::over(stores, faults))
    }

    /// Builds a manager over an arbitrary fleet of chunk stores — the
    /// seam the TCP transport plugs into: pass `RemoteProvider` handles
    /// here and every placement, replication, and failover decision runs
    /// unchanged over the wire. `_strategy` and `_seed` select nothing;
    /// they are kept because `wallbench/src` passes them.
    ///
    /// # Panics
    /// Panics when `stores` is empty or when store `i` does not report
    /// id `i` (the manager addresses the fleet by vector slot).
    pub fn from_stores(
        stores: Vec<Arc<dyn ChunkStore>>,
        _strategy: AllocationStrategy,
        faults: Arc<FaultInjector>,
        _seed: u64,
    ) -> Self {
        Self::over(stores, faults)
    }

    fn over(stores: Vec<Arc<dyn ChunkStore>>, faults: Arc<FaultInjector>) -> Self {
        assert!(!stores.is_empty(), "need at least one data provider");
        for (i, store) in stores.iter().enumerate() {
            assert_eq!(
                store.id().raw(),
                i as u64,
                "store {i} must report id {i} (the fleet is slot-addressed)"
            );
        }
        ProviderManager {
            providers: stores,
            rr_cursor: AtomicU64::new(0),
            faults,
            client_nics: Arc::new(ClientNics::new()),
        }
    }

    /// Number of providers in the fleet.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Looks up a provider by id.
    pub fn provider(&self, id: ProviderId) -> Result<&Arc<dyn ChunkStore>> {
        self.providers
            .get(id.raw() as usize)
            .ok_or(Error::ProviderNotFound(id))
    }

    /// All providers (for accounting).
    pub fn providers(&self) -> &[Arc<dyn ChunkStore>] {
        &self.providers
    }

    /// Chooses `replicas` distinct homes for one new chunk, primary
    /// first: the next provider in rotation, then the providers after
    /// it. Fewer when the fleet is smaller than `replicas`; at least one.
    fn plan_homes(&self, replicas: usize) -> Vec<ProviderId> {
        let n = self.providers.len() as u64;
        let want = replicas.clamp(1, n as usize) as u64;
        let primary = self.rr_cursor.fetch_add(1, Ordering::Relaxed);
        (0..want)
            .map(|k| ProviderId::new((primary + k) % n))
            .collect()
    }

    /// The injection/reception NIC of the calling client, created on
    /// first use.
    ///
    /// Giving each client its own serialized NIC keeps the pipelined
    /// path honest: a client cannot start injecting chunk `i + 1` before
    /// chunk `i`'s bytes have left its NIC, so per-client bandwidth caps
    /// at the client link while provider disks drain in parallel —
    /// exactly the striping behavior the paper measures.
    pub fn client_nic(&self, p: &Participant) -> Arc<Resource> {
        self.client_nics.nic_for(p)
    }

    /// Snapshot of every client NIC created so far, in client-id order
    /// (for utilization accounting).
    pub fn client_nics(&self) -> Vec<Arc<Resource>> {
        self.client_nics.all()
    }

    /// The per-client NIC registry, for sharing with other services
    /// (the metadata store wires into this so one client's data and
    /// metadata streams serialize through the same link).
    pub fn client_nic_registry(&self) -> &Arc<ClientNics> {
        &self.client_nics
    }

    /// Stores a batch of chunks with replication, pipelined.
    ///
    /// The batch is the unit of the data plane, end to end:
    ///
    /// 1. **Plan** — every chunk is allocated its homes and every replica
    ///    copy is *booked* on the calling client's NIC, in batch order.
    ///    The cost model: the RPC round trips of the whole batch overlap
    ///    (the List-I/O effect — requests are issued back to back, so one
    ///    round-trip latency offsets them all); each copy then serializes
    ///    through the client's own NIC and cuts through to the target
    ///    provider's NIC and disk. Homes that are already failed when the
    ///    batch is issued book nothing.
    /// 2. **Group** — the copies are grouped by target provider, keeping
    ///    batch order inside each group (a provider books its devices in
    ///    the order a per-chunk loop would).
    /// 3. **Batch** — one [`ChunkStore::put_batch_at`] per provider: one
    ///    frame per remote provider, not one round trip per chunk.
    /// 4. **Scatter** — the per-copy outcomes go back to their chunks.
    ///    Quorum is judged independently per chunk, and the primary is
    ///    not special: a dead or unreachable home costs that copy only,
    ///    so a chunk whose primary is down but whose secondary took the
    ///    data still meets a quorum of 1.
    ///
    /// The caller sleeps exactly once, to the latest completion in the
    /// batch. Returns one outcome per input chunk, in order: the
    /// surviving homes (allocation order, primary first) on success,
    /// [`Error::InsufficientReplicas`] when fewer than `max(min_ok, 1)`
    /// copies landed.
    pub fn put_batch_replicated(
        &self,
        p: &Participant,
        items: &[(ChunkId, Bytes)],
        replicas: usize,
        min_ok: usize,
    ) -> Vec<Result<Vec<ProviderId>>> {
        let client_nic = self.client_nic(p);
        let now = p.now_ns();
        let fleet = self.providers.len();

        /// One replica copy on its way to a provider: which chunk of the
        /// batch, which of that chunk's homes, and when its last byte
        /// leaves the client.
        struct Copy {
            item: usize,
            rank: usize,
            inj_done: u64,
        }
        // Per chunk: its homes in allocation order, each with whether
        // its copy landed.
        let mut homes: Vec<Vec<(ProviderId, bool)>> = Vec::with_capacity(items.len());
        let mut groups: Vec<Vec<(u64, ChunkId, Bytes)>> = vec![Vec::new(); fleet];
        let mut copies: Vec<Vec<Copy>> = (0..fleet).map(|_| Vec::new()).collect();
        for (item, (chunk, data)) in items.iter().enumerate() {
            let chunk_homes = self.plan_homes(replicas);
            for (rank, &home) in chunk_homes.iter().enumerate() {
                // A home that is already down books nothing.
                if self.faults.is_failed(home) {
                    continue;
                }
                let h = home.raw() as usize;
                let cost = self.providers[h].cost();
                let net_ns = cost.net_transfer(data.len() as u64).as_nanos() as u64;
                let arrival = now + cost.rpc_round_trip().as_nanos() as u64;
                let inj_done = client_nic.reserve_ns(arrival, net_ns);
                // Cut-through: the provider starts receiving when the
                // first byte leaves the client, not when the last does.
                groups[h].push((inj_done - net_ns, *chunk, data.clone()));
                copies[h].push(Copy {
                    item,
                    rank,
                    inj_done,
                });
            }
            homes.push(chunk_homes.into_iter().map(|home| (home, false)).collect());
        }

        let mut latest = now;
        let mut fatal: Vec<Option<Error>> = vec![None; items.len()];
        for ((store, group), copies) in self.providers.iter().zip(&groups).zip(&copies) {
            if group.is_empty() {
                continue;
            }
            for (copy, result) in copies.iter().zip(store.put_batch_at(group)) {
                match result {
                    Ok(done) => {
                        homes[copy.item][copy.rank].1 = true;
                        latest = latest.max(done).max(copy.inj_done);
                    }
                    // A dead home or an unreachable one (transport failure
                    // on the remote path) costs this copy only — the
                    // chunk's other homes may still make quorum.
                    Err(Error::ProviderFailed(_) | Error::Transport { .. }) => {}
                    Err(e) => {
                        fatal[copy.item].get_or_insert(e);
                    }
                }
            }
        }
        p.sleep_until_ns(latest);

        let wanted = min_ok.max(1);
        homes
            .into_iter()
            .zip(fatal)
            .map(|(homes, fatal)| {
                if let Some(e) = fatal {
                    return Err(e);
                }
                let placed: Vec<ProviderId> = homes
                    .into_iter()
                    .filter_map(|(home, landed)| landed.then_some(home))
                    .collect();
                if placed.len() < wanted {
                    return Err(Error::InsufficientReplicas {
                        wanted,
                        placed: placed.len(),
                    });
                }
                Ok(placed)
            })
            .collect()
    }

    /// Reads a batch of chunk ranges, pipelined, failing over across each
    /// request's replica homes in order.
    ///
    /// The mirror image of [`Self::put_batch_replicated`]: every request
    /// is planned onto its first home, the requests are grouped by
    /// provider (request order kept inside a group) and each provider
    /// serves its group in one [`ChunkStore::get_range_batch_at`]. All
    /// requests share one overlapped RPC offset; each provider books its
    /// disk and NIC through the reservation API. Requests whose home
    /// turned out down, unreachable or without the chunk regroup onto
    /// their next home in a further round — one more batch call per
    /// provider still involved, never one per request. Once every request
    /// is settled the payloads cut through to the client's reception NIC,
    /// which serializes arrivals in request order, and the caller sleeps
    /// once, to the latest reception. Returns one outcome per request, in
    /// order: the bytes, or the last home's retriable error (the replica
    /// is down, lost the chunk, or is unreachable) when every home failed.
    /// Other errors end a request at once, and failed lookups book
    /// nothing.
    pub fn get_batch_with_failover(
        &self,
        p: &Participant,
        requests: &[GetRequest],
    ) -> Vec<Result<Bytes>> {
        let now = p.now_ns();
        let fleet = self.providers.len();
        // Settled requests: the payload, when its last byte left the
        // provider, and which provider's link it crosses.
        let mut verdicts: Vec<Option<Result<(Bytes, u64, usize)>>> = vec![None; requests.len()];
        let mut last_err: Vec<Option<Error>> = vec![None; requests.len()];
        let mut open: Vec<usize> = (0..requests.len()).collect();
        let mut round = 0;
        while !open.is_empty() {
            let mut groups: Vec<Vec<(u64, ChunkId, ByteRange)>> = vec![Vec::new(); fleet];
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); fleet];
            for &i in &open {
                let req = &requests[i];
                let Some(&home) = req.homes.get(round) else {
                    let e = last_err[i].take().unwrap_or_else(|| {
                        Error::Internal(format!("no homes recorded for {}", req.chunk))
                    });
                    verdicts[i] = Some(Err(e));
                    continue;
                };
                match self.provider(home) {
                    Ok(store) => {
                        let h = home.raw() as usize;
                        let arrival = now + store.cost().rpc_round_trip().as_nanos() as u64;
                        groups[h].push((arrival, req.chunk, req.range));
                        members[h].push(i);
                    }
                    Err(e) => verdicts[i] = Some(Err(e)),
                }
            }
            open.clear();
            for (h, (group, members)) in groups.iter().zip(&members).enumerate() {
                if group.is_empty() {
                    continue;
                }
                let results = self.providers[h].get_range_batch_at(group);
                for (&i, result) in members.iter().zip(results) {
                    match result {
                        Ok((data, sent)) => verdicts[i] = Some(Ok((data, sent, h))),
                        // Retriable per-home outcomes: the replica is
                        // down, lost the chunk, or is unreachable over the
                        // transport (the typed kind — timeout vs refused
                        // vs injected loss — is preserved for the caller's
                        // retry policy if no later home answers).
                        Err(
                            e @ (Error::ProviderFailed(_)
                            | Error::ChunkNotFound { .. }
                            | Error::Transport { .. }),
                        ) => {
                            last_err[i] = Some(e);
                            open.push(i);
                        }
                        Err(e) => verdicts[i] = Some(Err(e)),
                    }
                }
            }
            // Groups were served provider by provider; the next round
            // plans in request order again.
            open.sort_unstable();
            round += 1;
        }

        let client_nic = self.client_nic(p);
        let mut latest = now;
        let outcomes = verdicts
            .into_iter()
            .zip(requests)
            .map(|(verdict, req)| {
                let (data, sent, h) =
                    verdict.expect("every request settles before the loop ends")?;
                let net_ns = self.providers[h]
                    .cost()
                    .net_transfer(req.range.len)
                    .as_nanos() as u64;
                // Reception occupies the client NIC for the transfer
                // time, ending no earlier than the last byte leaves the
                // provider.
                let recv_done = client_nic.reserve_ns(sent.saturating_sub(net_ns), net_ns);
                latest = latest.max(recv_done);
                Ok(data)
            })
            .collect();
        p.sleep_until_ns(latest);
        outcomes
    }

    /// The shared fault plane.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DataProvider;
    use atomio_simgrid::clock::run_actors;

    fn mgr(n: usize) -> ProviderManager {
        ProviderManager::new(n, CostModel::zero(), Arc::new(FaultInjector::default()))
    }

    fn mgr_with_faults(n: usize) -> (ProviderManager, Arc<FaultInjector>) {
        let faults = Arc::new(FaultInjector::default());
        let m = ProviderManager::new(n, CostModel::zero(), Arc::clone(&faults));
        (m, faults)
    }

    /// Puts one chunk through a batch of one.
    fn put_one(
        m: &ProviderManager,
        p: &Participant,
        chunk: u64,
        data: Vec<u8>,
        replicas: usize,
        min_ok: usize,
    ) -> Result<Vec<ProviderId>> {
        let items = [(ChunkId::new(chunk), Bytes::from(data))];
        m.put_batch_replicated(p, &items, replicas, min_ok)
            .pop()
            .expect("one outcome per chunk")
    }

    /// Reads `[0, len)` of one chunk through a batch of one.
    fn get_one(
        m: &ProviderManager,
        p: &Participant,
        chunk: u64,
        homes: &[ProviderId],
        len: u64,
    ) -> Result<Bytes> {
        let request = GetRequest {
            chunk: ChunkId::new(chunk),
            homes: homes.to_vec(),
            range: ByteRange::new(0, len),
        };
        m.get_batch_with_failover(p, &[request])
            .pop()
            .expect("one outcome per request")
    }

    #[test]
    fn round_robin_rotates() {
        let m = mgr(4);
        let items: Vec<(ChunkId, Bytes)> = (0..8)
            .map(|i| (ChunkId::new(i), Bytes::from(vec![0u8; 4])))
            .collect();
        let (res, _) = run_actors(1, |_, p| m.put_batch_replicated(p, &items, 1, 1));
        let homes: Vec<u64> = res[0]
            .iter()
            .map(|o| o.as_ref().unwrap()[0].raw())
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn replicas_are_distinct() {
        let m = mgr(4);
        let (res, _) = run_actors(1, |_, p| put_one(&m, p, 1, vec![0; 4], 3, 3));
        let homes = res[0].clone().unwrap();
        assert_eq!(homes.len(), 3);
        let mut dedup = homes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn replication_clamps_to_fleet_size() {
        let m = mgr(2);
        let (res, _) = run_actors(1, |_, p| {
            [
                put_one(&m, p, 1, vec![0; 4], 5, 1),
                put_one(&m, p, 2, vec![0; 4], 0, 1),
            ]
        });
        let [five, zero] = &res[0];
        assert_eq!(five.as_ref().unwrap().len(), 2);
        assert_eq!(zero.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn replicated_read_fails_over() {
        let (m, faults) = mgr_with_faults(3);
        let (res, _) = run_actors(1, |_, p| {
            let homes = put_one(&m, p, 1, vec![9; 8], 2, 2).unwrap();
            // Kill the primary; the read must come from the secondary.
            faults.fail_provider(homes[0]);
            get_one(&m, p, 1, &homes, 8)
        });
        assert_eq!(res[0].as_ref().unwrap().as_ref(), &[9u8; 8]);
    }

    #[test]
    fn unreplicated_read_fails_when_home_dies() {
        let (m, faults) = mgr_with_faults(2);
        let (res, _) = run_actors(1, |_, p| {
            let homes = put_one(&m, p, 1, vec![9; 8], 1, 1).unwrap();
            faults.fail_provider(homes[0]);
            get_one(&m, p, 1, &homes, 8)
        });
        assert!(matches!(res[0], Err(Error::ProviderFailed(_))));
    }

    #[test]
    fn insufficient_replicas_detected() {
        let (m, faults) = mgr_with_faults(2);
        faults.fail_provider(ProviderId::new(0));
        faults.fail_provider(ProviderId::new(1));
        let (res, _) = run_actors(1, |_, p| put_one(&m, p, 1, vec![1], 2, 1));
        assert_eq!(
            res[0],
            Err(Error::InsufficientReplicas {
                wanted: 1,
                placed: 0
            })
        );
    }

    #[test]
    fn a_chunk_meets_quorum_without_its_primary() {
        // Pins the documented quorum rule: the primary is not special. A
        // dead primary with a live secondary still satisfies min_ok = 1.
        let (m, faults) = mgr_with_faults(2);
        // Round-robin allocates provider 0 as the first primary.
        faults.fail_provider(ProviderId::new(0));
        let (res, _) = run_actors(1, |_, p| put_one(&m, p, 1, vec![3; 4], 2, 1));
        assert_eq!(res[0], Ok(vec![ProviderId::new(1)]));
        assert!(m
            .provider(ProviderId::new(1))
            .unwrap()
            .has_chunk(ChunkId::new(1)));
        // The same write under min_ok = 2 is under quorum.
        let (res, _) = run_actors(1, |_, p| put_one(&m, p, 2, vec![3; 4], 2, 2));
        assert_eq!(
            res[0],
            Err(Error::InsufficientReplicas {
                wanted: 2,
                placed: 1
            })
        );
    }

    #[test]
    fn batch_put_places_and_reports_per_chunk() {
        let m = mgr(4);
        let items: Vec<(ChunkId, Bytes)> = (0..8)
            .map(|i| (ChunkId::new(i), Bytes::from(vec![i as u8; 16])))
            .collect();
        let (res, _) = run_actors(1, |_, p| m.put_batch_replicated(p, &items, 2, 2));
        let outcomes = &res[0];
        assert_eq!(outcomes.len(), 8);
        for (i, outcome) in outcomes.iter().enumerate() {
            let homes = outcome.as_ref().unwrap();
            assert_eq!(homes.len(), 2);
            for h in homes {
                assert!(m.provider(*h).unwrap().has_chunk(ChunkId::new(i as u64)));
            }
        }
    }

    #[test]
    fn batch_put_quorum_failures_are_per_chunk() {
        let (m, faults) = mgr_with_faults(2);
        // Provider 1 down: chunks whose only home is 1 fail, others land.
        faults.fail_provider(ProviderId::new(1));
        let items: Vec<(ChunkId, Bytes)> = (0..4)
            .map(|i| (ChunkId::new(i), Bytes::from(vec![0u8; 8])))
            .collect();
        let (res, _) = run_actors(1, |_, p| m.put_batch_replicated(p, &items, 1, 1));
        let outcomes = &res[0];
        // Round-robin: chunks 0 and 2 land on provider 0; 1 and 3 on 1.
        assert_eq!(outcomes[0], Ok(vec![ProviderId::new(0)]));
        assert!(matches!(
            outcomes[1],
            Err(Error::InsufficientReplicas { .. })
        ));
        assert_eq!(outcomes[2], Ok(vec![ProviderId::new(0)]));
        assert!(matches!(
            outcomes[3],
            Err(Error::InsufficientReplicas { .. })
        ));
    }

    #[test]
    fn batch_get_fails_over_per_request() {
        let (m, faults) = mgr_with_faults(3);
        let (res, _) = run_actors(1, |_, p| {
            let items: Vec<(ChunkId, Bytes)> = (0..3)
                .map(|i| (ChunkId::new(i), Bytes::from(vec![i as u8 + 1; 8])))
                .collect();
            let homes: Vec<Vec<ProviderId>> = m
                .put_batch_replicated(p, &items, 2, 2)
                .into_iter()
                .map(|o| o.unwrap())
                .collect();
            // Kill chunk 0's primary: its read must come from the
            // secondary while the other chunks read from their primaries.
            faults.fail_provider(homes[0][0]);
            let requests: Vec<GetRequest> = homes
                .iter()
                .enumerate()
                .map(|(i, h)| GetRequest {
                    chunk: ChunkId::new(i as u64),
                    homes: h.clone(),
                    range: ByteRange::new(0, 8),
                })
                .collect();
            m.get_batch_with_failover(p, &requests)
        });
        for (i, outcome) in res[0].iter().enumerate() {
            assert_eq!(outcome.as_ref().unwrap().as_ref(), &[i as u8 + 1; 8][..]);
        }
    }

    #[test]
    fn batch_put_reports_homes_in_allocation_order() {
        // Chunk 3's primary is the last provider and its replica wraps
        // to provider 0: the outcome lists primary first (reads fail
        // over in that order), not fleet order.
        let m = mgr(4);
        let items: Vec<(ChunkId, Bytes)> = (0..4)
            .map(|i| (ChunkId::new(i), Bytes::from(vec![0u8; 8])))
            .collect();
        let (res, _) = run_actors(1, |_, p| m.put_batch_replicated(p, &items, 2, 2));
        assert_eq!(res[0][3], Ok(vec![ProviderId::new(3), ProviderId::new(0)]));
    }

    /// Forwards to a [`DataProvider`], counting the batch calls.
    #[derive(Debug)]
    struct CountingStore {
        inner: DataProvider,
        get_batches: AtomicU64,
    }

    impl ChunkStore for CountingStore {
        fn get_range_batch_at(
            &self,
            items: &[(u64, ChunkId, ByteRange)],
        ) -> Vec<Result<(Bytes, u64)>> {
            self.get_batches.fetch_add(1, Ordering::Relaxed);
            self.inner.get_range_batch_at(items)
        }
        fn id(&self) -> ProviderId {
            self.inner.id()
        }
        fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
            self.inner.put_chunk(p, chunk, data)
        }
        fn put_chunk_at(&self, arrival: u64, chunk: ChunkId, data: Bytes) -> Result<u64> {
            self.inner.put_chunk_at(arrival, chunk, data)
        }
        fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
            self.inner.get_chunk(p, chunk)
        }
        fn get_chunk_range(&self, p: &Participant, c: ChunkId, r: ByteRange) -> Result<Bytes> {
            self.inner.get_chunk_range(p, c, r)
        }
        fn get_chunk_range_at(&self, a: u64, c: ChunkId, r: ByteRange) -> Result<(Bytes, u64)> {
            self.inner.get_chunk_range_at(a, c, r)
        }
        fn chunk_count(&self) -> usize {
            self.inner.chunk_count()
        }
        fn bytes_stored(&self) -> u64 {
            self.inner.bytes_stored()
        }
        fn evict_chunk(&self, chunk: ChunkId) -> u64 {
            self.inner.evict_chunk(chunk)
        }
        fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
            self.inner.checksum_of(chunk)
        }
        fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
            self.inner.corrupt_chunk(chunk, byte)
        }
        fn disk(&self) -> &Resource {
            self.inner.disk()
        }
        fn nic(&self) -> &Resource {
            self.inner.nic()
        }
        fn cost(&self) -> &CostModel {
            self.inner.cost()
        }
    }

    #[test]
    fn batch_get_fails_over_in_rounds_not_per_request() {
        let faults = Arc::new(FaultInjector::default());
        let stores: Vec<Arc<CountingStore>> = (0..3)
            .map(|i| {
                Arc::new(CountingStore {
                    inner: DataProvider::new(
                        ProviderId::new(i),
                        CostModel::zero(),
                        Arc::clone(&faults),
                    ),
                    get_batches: AtomicU64::new(0),
                })
            })
            .collect();
        let m = ProviderManager::from_stores(
            stores
                .iter()
                .map(|s| Arc::clone(s) as Arc<dyn ChunkStore>)
                .collect(),
            AllocationStrategy::RoundRobin,
            faults,
            1,
        );
        let (res, _) = run_actors(1, |_, p| {
            let items: Vec<(ChunkId, Bytes)> = (0..30)
                .map(|i| (ChunkId::new(i), Bytes::from(vec![i as u8; 8])))
                .collect();
            let requests: Vec<GetRequest> = m
                .put_batch_replicated(p, &items, 2, 2)
                .into_iter()
                .zip(&items)
                .map(|(homes, (chunk, _))| GetRequest {
                    chunk: *chunk,
                    homes: homes.unwrap(),
                    range: ByteRange::new(0, 8),
                })
                .collect();
            // Provider 1 loses every chunk it is primary for: those ten
            // reads settle on provider 2 in a second round.
            for req in requests.iter().filter(|r| r.homes[0] == ProviderId::new(1)) {
                stores[1].evict_chunk(req.chunk);
            }
            m.get_batch_with_failover(p, &requests)
        });
        for (i, outcome) in res[0].iter().enumerate() {
            assert_eq!(outcome.as_ref().unwrap().as_ref(), &[i as u8; 8][..]);
        }
        let calls: Vec<u64> = stores
            .iter()
            .map(|s| s.get_batches.load(Ordering::Relaxed))
            .collect();
        assert_eq!(calls, vec![1, 1, 2], "one call per provider per round");
    }

    #[test]
    fn batch_put_timing_is_pipelined() {
        // One client, 8 chunks striped over 8 providers, grid5000 costs.
        // One at a time would cost 8 * (rpc + net + disk). Pipelined:
        // injections serialize on the client NIC while disks drain in
        // parallel, so the batch finishes at rpc + 8*net + disk exactly
        // (no provider queues).
        let cost = CostModel::grid5000();
        const LEN: u64 = 64 * 1024;
        let m = ProviderManager::new(8, cost, Arc::new(FaultInjector::default()));
        let items: Vec<(ChunkId, Bytes)> = (0..8)
            .map(|i| (ChunkId::new(i), Bytes::from(vec![0u8; LEN as usize])))
            .collect();
        let (_, total) = run_actors(1, |_, p| {
            let outcomes = m.put_batch_replicated(p, &items, 1, 1);
            assert!(outcomes.iter().all(|o| o.is_ok()));
        });
        let expected = cost.rpc_round_trip() + cost.net_transfer(LEN) * 8 + cost.disk_transfer(LEN);
        assert_eq!(total, expected);
        let one_at_a_time =
            (cost.rpc_round_trip() + cost.net_transfer(LEN) + cost.disk_transfer(LEN)) * 8;
        assert!(
            total.as_secs_f64() * 2.0 < one_at_a_time.as_secs_f64(),
            "pipelined {total:?} not ahead of one at a time {one_at_a_time:?}"
        );
    }

    #[test]
    fn a_batch_of_one_costs_one_round_trip_transfer_and_disk_each_way() {
        // Nothing overlaps in a batch of one: the put pays rpc + net +
        // disk, and the read of it back the same again.
        let cost = CostModel::grid5000();
        const LEN: u64 = 64 * 1024;
        let m = ProviderManager::new(4, cost, Arc::new(FaultInjector::default()));
        let (_, total) = run_actors(1, |_, p| {
            let homes = put_one(&m, p, 0, vec![0u8; LEN as usize], 1, 1).unwrap();
            get_one(&m, p, 0, &homes, LEN).unwrap();
        });
        let one_way = cost.rpc_round_trip() + cost.net_transfer(LEN) + cost.disk_transfer(LEN);
        assert_eq!(total, one_way * 2);
    }

    #[test]
    fn heterogeneous_fleet_uses_per_provider_costs() {
        use std::time::Duration;
        // Provider 0 is 10x slower than provider 1; one put to each.
        let slow = CostModel {
            disk_bandwidth: 7 * 1024 * 1024,
            ..CostModel::grid5000()
        };
        let fast = CostModel::grid5000();
        let m =
            ProviderManager::heterogeneous(vec![slow, fast], Arc::new(FaultInjector::default()));
        let durations: Vec<Duration> = atomio_simgrid::clock::run_actors(1, |_, p| {
            let mut out = Vec::new();
            for i in 0..2u64 {
                let t0 = p.now();
                m.provider(ProviderId::new(i))
                    .unwrap()
                    .put_chunk(p, ChunkId::new(i), Bytes::from(vec![0u8; 1 << 20]))
                    .unwrap();
                out.push(p.now() - t0);
            }
            out
        })
        .0
        .pop()
        .unwrap();
        assert!(
            durations[0].as_secs_f64() > durations[1].as_secs_f64() * 5.0,
            "slow {:?} vs fast {:?}",
            durations[0],
            durations[1]
        );
    }

    #[test]
    fn striping_scales_aggregate_bandwidth() {
        // 8 clients each writing 1 MiB: with 8 providers round-robin the
        // transfers overlap; with 1 provider they serialize. The ratio of
        // total times must be close to 8.
        let cost = CostModel::grid5000();
        let time_for = |nprov: usize| {
            let m = ProviderManager::new(nprov, cost, Arc::new(FaultInjector::default()));
            let (_, total) = run_actors(8, |i, p| {
                put_one(&m, p, i as u64, vec![0u8; 1 << 20], 1, 1).unwrap();
            });
            total
        };
        let t1 = time_for(1);
        let t8 = time_for(8);
        let ratio = t1.as_secs_f64() / t8.as_secs_f64();
        assert!(ratio > 5.0, "striping speedup only {ratio:.2}x");
    }
}
