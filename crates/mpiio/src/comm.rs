//! A simulated MPI communicator: barriers and small collectives for a
//! fixed group of ranks (threads registered on the virtual clock).

use atomio_simgrid::{CostModel, Event, Participant};
use parking_lot::Mutex;
use std::sync::Arc;

/// A communicator over `size` ranks.
///
/// Every rank must participate in every collective, in the same order —
/// exactly MPI's contract. Mismatched participation trips an assertion
/// rather than deadlocking silently.
#[derive(Debug, Clone)]
pub struct Communicator {
    inner: Arc<CommInner>,
}

#[derive(Debug)]
struct CommInner {
    size: usize,
    cost: CostModel,
    barrier: Mutex<BarrierState>,
    gather: Mutex<GatherState>,
    exchange: Mutex<ExchangeState>,
    /// Notified when the last rank arrives at any collective round.
    round_done: Event,
}

/// One payload per peer.
type PerPeer = Vec<Vec<u8>>;
/// A finished round's data plus how many ranks have copied it out.
type RoundResult<T> = std::collections::HashMap<u64, (Arc<T>, usize)>;

#[derive(Debug, Default)]
struct ExchangeState {
    generation: u64,
    arrived: usize,
    /// `slots[src][dst]` = payload src sends to dst this round.
    slots: Vec<Option<PerPeer>>,
    /// Completed rounds: generation → (per-destination inboxes, copied).
    results: RoundResult<Vec<PerPeer>>,
}

#[derive(Debug, Default)]
struct BarrierState {
    generation: u64,
    arrived: usize,
}

#[derive(Debug, Default)]
struct GatherState {
    generation: u64,
    arrived: usize,
    slots: Vec<Option<Vec<u8>>>,
    /// Completed rounds' data, keyed by generation and dropped once every
    /// rank has copied it — so a slow rank can never observe a later
    /// round's result.
    results: RoundResult<PerPeer>,
}

impl Communicator {
    /// Creates a communicator for `size` ranks.
    pub fn new(size: usize, cost: CostModel) -> Self {
        assert!(size > 0, "communicator needs at least one rank");
        Communicator {
            inner: Arc::new(CommInner {
                size,
                cost,
                barrier: Mutex::new(BarrierState::default()),
                gather: Mutex::new(GatherState {
                    slots: vec![None; size],
                    ..GatherState::default()
                }),
                exchange: Mutex::new(ExchangeState {
                    slots: vec![None; size],
                    ..ExchangeState::default()
                }),
                round_done: Event::new(),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Synchronizes all ranks (costs one message latency per rank, the
    /// usual tree-barrier approximation: O(log n) rounds charged as a
    /// logarithmic multiple of the link latency).
    pub fn barrier(&self, p: &Participant) {
        let rounds = (self.inner.size as f64).log2().ceil().max(1.0) as u32;
        p.sleep(self.inner.cost.msg_latency * 2 * rounds);
        let my_gen = {
            let mut st = self.inner.barrier.lock();
            let gen = st.generation;
            st.arrived += 1;
            if st.arrived == self.inner.size {
                st.arrived = 0;
                st.generation += 1;
                self.inner.round_done.notify_all();
            }
            gen
        };
        p.wait_until(&self.inner.round_done, || {
            (self.inner.barrier.lock().generation > my_gen).then_some(())
        });
    }

    /// Gathers one byte payload from every rank onto every rank
    /// (MPI_Allgatherv of small metadata, e.g. extent summaries).
    pub fn allgather(&self, p: &Participant, rank: usize, payload: Vec<u8>) -> Vec<Vec<u8>> {
        assert!(rank < self.inner.size, "rank {rank} out of range");
        let bytes: u64 = payload.len() as u64 * self.inner.size as u64;
        p.sleep(self.inner.cost.msg_latency * 2);
        p.sleep(self.inner.cost.net_transfer(bytes));
        let my_gen = {
            let mut st = self.inner.gather.lock();
            // A rank cannot enter round g+1 before its round-g slot was
            // drained (draining happens when round g completes), so a
            // non-empty slot means a collective-order violation.
            assert!(
                st.slots[rank].is_none(),
                "rank {rank} gathered twice in one round (collective order violation)"
            );
            st.slots[rank] = Some(payload);
            st.arrived += 1;
            let gen = st.generation;
            if st.arrived == self.inner.size {
                let gathered: Vec<Vec<u8>> = st
                    .slots
                    .iter_mut()
                    .map(|s| s.take().expect("all ranks arrived"))
                    .collect();
                st.results.insert(gen, (Arc::new(gathered), 0));
                st.arrived = 0;
                st.generation += 1;
                self.inner.round_done.notify_all();
            }
            gen
        };
        let shared = p.wait_until(&self.inner.round_done, || {
            self.inner
                .gather
                .lock()
                .results
                .get(&my_gen)
                .map(|(data, _)| Arc::clone(data))
        });
        // Mark our copy; the last rank out drops the round's storage.
        {
            let mut st = self.inner.gather.lock();
            let done = {
                let entry = st.results.get_mut(&my_gen).expect("result still live");
                entry.1 += 1;
                entry.1 == self.inner.size
            };
            if done {
                st.results.remove(&my_gen);
            }
        }
        shared.to_vec()
    }

    /// Personalized all-to-all exchange (MPI_Alltoallv): rank `rank`
    /// contributes `outgoing[d]` for every destination `d` and receives
    /// the payloads every rank addressed to it, indexed by source.
    ///
    /// Costs: one message latency round plus the NIC time of everything
    /// this rank sends and receives.
    pub fn alltoallv(&self, p: &Participant, rank: usize, outgoing: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert!(rank < self.inner.size, "rank {rank} out of range");
        assert_eq!(
            outgoing.len(),
            self.inner.size,
            "alltoallv needs one payload per destination"
        );
        let sent: u64 = outgoing.iter().map(|b| b.len() as u64).sum();
        p.sleep(self.inner.cost.msg_latency * 2);
        p.sleep(self.inner.cost.net_transfer(sent));
        let my_gen = {
            let mut st = self.inner.exchange.lock();
            assert!(
                st.slots[rank].is_none(),
                "rank {rank} exchanged twice in one round (collective order violation)"
            );
            st.slots[rank] = Some(outgoing);
            st.arrived += 1;
            let gen = st.generation;
            if st.arrived == self.inner.size {
                let contributions: Vec<PerPeer> = st
                    .slots
                    .iter_mut()
                    .map(|s| s.take().expect("all ranks arrived"))
                    .collect();
                // Transpose: inbox[dst][src].
                let n = self.inner.size;
                let mut inboxes: Vec<PerPeer> = (0..n).map(|_| Vec::with_capacity(n)).collect();
                for contribution in contributions {
                    for (dst, payload) in contribution.into_iter().enumerate() {
                        inboxes[dst].push(payload);
                    }
                }
                st.results.insert(gen, (Arc::new(inboxes), 0));
                st.arrived = 0;
                st.generation += 1;
                self.inner.round_done.notify_all();
            }
            gen
        };
        let shared = p.wait_until(&self.inner.round_done, || {
            self.inner
                .exchange
                .lock()
                .results
                .get(&my_gen)
                .map(|(data, _)| Arc::clone(data))
        });
        // Charge receive-side NIC time, then release the round storage.
        let received: u64 = shared[rank].iter().map(|b| b.len() as u64).sum();
        p.sleep(self.inner.cost.net_transfer(received));
        let inbox = shared[rank].clone();
        {
            let mut st = self.inner.exchange.lock();
            let done = {
                let entry = st.results.get_mut(&my_gen).expect("result still live");
                entry.1 += 1;
                entry.1 == self.inner.size
            };
            if done {
                st.results.remove(&my_gen);
            }
        }
        inbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::clock::run_actors;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn barrier_synchronizes() {
        let comm = Communicator::new(4, CostModel::zero());
        let before = AtomicU64::new(0);
        run_actors(4, |i, p| {
            // Stagger arrivals.
            p.sleep(Duration::from_millis(i as u64));
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier(p);
            // After the barrier, everyone must have arrived.
            assert_eq!(before.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn repeated_barriers_do_not_mix_generations() {
        let comm = Communicator::new(3, CostModel::zero());
        let counter = AtomicU64::new(0);
        run_actors(3, |_, p| {
            for round in 0..10u64 {
                comm.barrier(p);
                let c = counter.fetch_add(1, Ordering::SeqCst);
                assert!(c / 3 == round, "round {round} saw counter {c}");
                comm.barrier(p);
            }
        });
    }

    #[test]
    fn allgather_collects_all_ranks() {
        let comm = Communicator::new(4, CostModel::zero());
        let (results, _) = run_actors(4, |i, p| comm.allgather(p, i, vec![i as u8; i + 1]));
        for r in &results {
            assert_eq!(r.len(), 4);
            for (rank, payload) in r.iter().enumerate() {
                assert_eq!(payload, &vec![rank as u8; rank + 1]);
            }
        }
    }

    #[test]
    fn repeated_allgathers_do_not_mix_rounds() {
        let comm = Communicator::new(3, CostModel::zero());
        run_actors(3, |i, p| {
            for round in 0..20u8 {
                // Stagger ranks so a slow rank coexists with fast ones.
                p.sleep(Duration::from_micros(i as u64 * 7));
                let got = comm.allgather(p, i, vec![round, i as u8]);
                for (rank, payload) in got.iter().enumerate() {
                    assert_eq!(payload, &vec![round, rank as u8], "round {round}");
                }
            }
        });
    }

    #[test]
    fn barrier_costs_time() {
        let comm = Communicator::new(8, CostModel::grid5000());
        let (_, total) = run_actors(8, |_, p| comm.barrier(p));
        // 3 rounds × 200µs: the ranks already waiting resume at the
        // instant the last one arrives.
        assert_eq!(total, Duration::from_micros(600));
    }

    #[test]
    fn alltoallv_routes_personalized_payloads() {
        let comm = Communicator::new(3, CostModel::zero());
        let (results, _) = run_actors(3, |i, p| {
            // Rank i sends "i*10 + dst" to each destination.
            let outgoing: Vec<Vec<u8>> = (0..3).map(|dst| vec![(i * 10 + dst) as u8]).collect();
            comm.alltoallv(p, i, outgoing)
        });
        for (dst, inbox) in results.iter().enumerate() {
            assert_eq!(inbox.len(), 3);
            for (src, payload) in inbox.iter().enumerate() {
                assert_eq!(
                    payload,
                    &vec![(src * 10 + dst) as u8],
                    "src {src} dst {dst}"
                );
            }
        }
    }

    #[test]
    fn repeated_alltoallv_rounds_do_not_mix() {
        let comm = Communicator::new(2, CostModel::zero());
        run_actors(2, |i, p| {
            for round in 0..10u8 {
                p.sleep(Duration::from_micros(i as u64 * 3));
                let outgoing: Vec<Vec<u8>> =
                    (0..2).map(|d| vec![round, i as u8, d as u8]).collect();
                let inbox = comm.alltoallv(p, i, outgoing);
                for (src, payload) in inbox.iter().enumerate() {
                    assert_eq!(payload, &vec![round, src as u8, i as u8]);
                }
            }
        });
    }

    #[test]
    fn alltoallv_charges_transfer_time() {
        let comm = Communicator::new(2, CostModel::grid5000());
        let (_, total) = run_actors(2, |i, p| {
            let outgoing: Vec<Vec<u8>> = (0..2).map(|_| vec![0u8; 1 << 20]).collect();
            comm.alltoallv(p, i, outgoing);
        });
        // Each rank sends and receives 2 MiB over a ~110 MiB/s NIC.
        assert!(total > Duration::from_millis(30), "{total:?}");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_size_rejected() {
        let _ = Communicator::new(0, CostModel::zero());
    }
}
