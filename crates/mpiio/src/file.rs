//! The MPI file handle: views, atomic mode, independent and collective
//! data access.

use crate::adio::AdioDriver;
use crate::collective::{two_phase_write, CollectiveStrategy};
use crate::comm::Communicator;
use crate::view::FileView;
use atomio_simgrid::Participant;
use atomio_types::{ClientId, Error, ExtentList, Result};
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Open mode (subset of MPI_MODE_*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only access.
    ReadOnly,
    /// Read-write access.
    ReadWrite,
}

/// One rank's handle on a shared file (MPI_File).
///
/// All ranks of the communicator share the driver (the file); each rank
/// holds its own view and atomic-mode flag (MPI specifies atomic mode per
/// file handle; calling [`File::set_atomic`] on every rank, as
/// applications do, gives the collective behaviour).
#[derive(Debug)]
pub struct File {
    driver: Arc<dyn AdioDriver>,
    comm: Communicator,
    rank: usize,
    client: ClientId,
    mode: OpenMode,
    view: RwLock<FileView>,
    atomic: AtomicBool,
    collective: RwLock<CollectiveStrategy>,
}

impl File {
    /// Opens the shared file on this rank.
    pub fn open(
        comm: Communicator,
        rank: usize,
        driver: Arc<dyn AdioDriver>,
        mode: OpenMode,
    ) -> Self {
        assert!(rank < comm.size(), "rank {rank} outside communicator");
        File {
            driver,
            comm,
            rank,
            client: ClientId::new(rank as u64),
            mode,
            view: RwLock::new(FileView::contiguous_bytes()),
            atomic: AtomicBool::new(false),
            collective: RwLock::new(CollectiveStrategy::Independent),
        }
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The backing driver.
    pub fn driver(&self) -> &Arc<dyn AdioDriver> {
        &self.driver
    }

    /// Sets the file view (MPI_File_set_view).
    pub fn set_view(&self, view: FileView) {
        *self.view.write() = view;
    }

    /// The current view.
    pub fn view(&self) -> FileView {
        self.view.read().clone()
    }

    /// Enables/disables MPI atomic mode (MPI_File_set_atomicity).
    pub fn set_atomic(&self, on: bool) {
        self.atomic.store(on, Ordering::Relaxed);
    }

    /// Current atomic-mode flag.
    pub fn is_atomic(&self) -> bool {
        self.atomic.load(Ordering::Relaxed)
    }

    /// Selects the collective-I/O strategy (ROMIO's `romio_cb_write`
    /// hint). Every rank must choose the same strategy.
    pub fn set_collective(&self, strategy: CollectiveStrategy) {
        *self.collective.write() = strategy;
    }

    /// Current collective strategy.
    pub fn collective_strategy(&self) -> CollectiveStrategy {
        *self.collective.read()
    }

    /// Current file size in bytes.
    pub fn size(&self, p: &Participant) -> u64 {
        self.driver.file_size(p)
    }

    fn check_writable(&self) -> Result<()> {
        match self.mode {
            OpenMode::ReadWrite => Ok(()),
            OpenMode::ReadOnly => Err(Error::InvalidMode("writing")),
        }
    }

    /// MPI_File_write_at: writes `buf` through the view at an explicit
    /// view offset (in etypes).
    pub fn write_at(&self, p: &Participant, offset_etypes: u64, buf: &[u8]) -> Result<()> {
        self.check_writable()?;
        if buf.is_empty() {
            return Ok(());
        }
        let extents = self
            .view
            .read()
            .extents_for(offset_etypes, buf.len() as u64)?;
        self.driver.write_extents(
            p,
            self.client,
            &extents,
            Bytes::copy_from_slice(buf),
            self.is_atomic(),
        )
    }

    /// MPI_File_read_at.
    pub fn read_at(&self, p: &Participant, offset_etypes: u64, len: u64) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let extents = self.view.read().extents_for(offset_etypes, len)?;
        self.driver
            .read_extents(p, self.client, &extents, self.is_atomic())
    }

    /// MPI_File_write_at_all: collective write. Every rank of the
    /// communicator must call it; ranks with nothing to write pass an
    /// empty buffer. Whatever fails on the way, no rank returns before
    /// every rank has taken part, and each rank gets only its own error.
    pub fn write_at_all(&self, p: &Participant, offset_etypes: u64, buf: &[u8]) -> Result<()> {
        match self.collective_strategy() {
            CollectiveStrategy::Independent => {
                self.comm.barrier(p);
                let result = if buf.is_empty() {
                    Ok(())
                } else {
                    self.write_at(p, offset_etypes, buf)
                };
                self.comm.barrier(p);
                result
            }
            CollectiveStrategy::TwoPhase { aggregators } => {
                // A rank whose own access is refused still takes part,
                // with nothing to write, so no other rank waits for it.
                let refused = self.check_writable().and_then(|()| {
                    self.view
                        .read()
                        .extents_for(offset_etypes, buf.len() as u64)
                });
                let nothing = ExtentList::new();
                let (extents, buf) = match &refused {
                    Ok(extents) => (extents, buf),
                    Err(_) => (&nothing, &[][..]),
                };
                let written = two_phase_write(
                    p,
                    &self.comm,
                    self.rank,
                    &self.driver,
                    extents,
                    buf,
                    aggregators,
                    self.is_atomic(),
                );
                refused.and(written)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::VersioningDriver;
    use crate::Datatype;
    use atomio_core::{Store, StoreConfig};
    use atomio_simgrid::clock::run_actors;
    use atomio_simgrid::CostModel;

    fn shared_file(ranks: usize) -> (Arc<dyn AdioDriver>, Communicator) {
        let store = Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(64)
                .with_data_providers(4),
        );
        let driver: Arc<dyn AdioDriver> = Arc::new(VersioningDriver::new(store.create_blob()));
        (driver, Communicator::new(ranks, CostModel::zero()))
    }

    #[test]
    fn write_read_through_default_view() {
        let (driver, comm) = shared_file(1);
        let f = File::open(comm, 0, driver, OpenMode::ReadWrite);
        run_actors(1, |_, p| {
            f.write_at(p, 100, b"payload").unwrap();
            assert_eq!(f.read_at(p, 100, 7).unwrap(), b"payload");
            assert_eq!(f.size(p), 107);
        });
    }

    #[test]
    fn read_only_mode_rejects_writes() {
        let (driver, comm) = shared_file(1);
        let f = File::open(comm, 0, driver, OpenMode::ReadOnly);
        run_actors(1, |_, p| {
            assert_eq!(
                f.write_at(p, 0, b"x").unwrap_err(),
                Error::InvalidMode("writing")
            );
        });
    }

    #[test]
    fn strided_views_partition_the_file() {
        // Two ranks with complementary block-cyclic views write
        // interleaved 4-byte blocks; the file ends up fully covered.
        let (driver, comm) = shared_file(2);
        let files: Vec<File> = (0..2)
            .map(|r| File::open(comm.clone(), r, Arc::clone(&driver), OpenMode::ReadWrite))
            .collect();
        for (r, f) in files.iter().enumerate() {
            let ft = Datatype::bytes(4).unwrap().resized(8).unwrap();
            f.set_view(FileView::new(r as u64 * 4, 4, ft).unwrap());
        }
        let fref = &files;
        run_actors(2, move |i, p| {
            let fill = if i == 0 { b'A' } else { b'B' };
            fref[i].write_at(p, 0, &[fill; 8]).unwrap();
        });
        run_actors(1, |_, p| {
            let whole = File::open(comm.clone(), 0, Arc::clone(&driver), OpenMode::ReadWrite);
            let got = whole.read_at(p, 0, 16).unwrap();
            assert_eq!(&got, b"AAAABBBBAAAABBBB");
        });
    }

    #[test]
    fn atomicity_flag_reaches_driver() {
        let (driver, comm) = shared_file(1);
        let f = File::open(comm, 0, driver, OpenMode::ReadWrite);
        assert!(!f.is_atomic());
        f.set_atomic(true);
        assert!(f.is_atomic());
        f.set_atomic(false);
        assert!(!f.is_atomic());
    }

    #[test]
    fn collective_write_synchronizes() {
        let (driver, comm) = shared_file(4);
        let files: Vec<File> = (0..4)
            .map(|r| File::open(comm.clone(), r, Arc::clone(&driver), OpenMode::ReadWrite))
            .collect();
        let fref = &files;
        run_actors(4, move |i, p| {
            // Each rank writes its own 4-byte block collectively; rank 3
            // writes nothing (allowed: empty participation).
            if i < 3 {
                fref[i]
                    .write_at_all(p, i as u64 * 4, &[b'0' + i as u8; 4])
                    .unwrap();
            } else {
                fref[i].write_at_all(p, 0, b"").unwrap();
            }
            // write_at_all's closing barrier: every block has landed.
            let got = fref[i].read_at(p, 0, 12).unwrap();
            assert_eq!(&got, b"000011112222");
        });
    }

    #[test]
    fn two_phase_collective_matches_rank_order_replay() {
        use atomio_types::stamp::WriteStamp;
        // 4 ranks with heavily overlapping strided views; two-phase must
        // produce exactly the serial schedule rank0, rank1, rank2, rank3,
        // whatever the number of aggregators (5 is clamped to the 4 ranks).
        let extents: Vec<ExtentList> = (0..4u64)
            .map(|r| ExtentList::from_pairs((0..6u64).map(|k| (k * 256 + r * 96, 128u64))))
            .collect();
        let stamps: Vec<WriteStamp> = (0..4)
            .map(|r| WriteStamp::new(ClientId::new(r), 5))
            .collect();
        // Model: apply in rank order.
        let end = extents
            .iter()
            .map(|e| e.covering_range().end())
            .max()
            .unwrap();
        let mut model = vec![0u8; end as usize];
        for (i, e) in extents.iter().enumerate() {
            for r in e {
                stamps[i].fill_range(r.offset, &mut model[r.offset as usize..r.end() as usize]);
            }
        }
        for aggregators in 1..=5 {
            let (driver, comm) = shared_file(4);
            let files: Vec<File> = (0..4)
                .map(|r| File::open(comm.clone(), r, Arc::clone(&driver), OpenMode::ReadWrite))
                .collect();
            let fref = &files;
            let eref = &extents;
            let sref = &stamps;
            run_actors(4, move |i, p| {
                fref[i].set_atomic(true);
                fref[i].set_collective(CollectiveStrategy::TwoPhase { aggregators });
                // Each rank's view is an indexed filetype matching its
                // extent list.
                let pairs: Vec<(u64, u64)> =
                    eref[i].ranges().iter().map(|r| (r.offset, r.len)).collect();
                let ft = Datatype::bytes(1).unwrap().indexed(&pairs).unwrap();
                fref[i].set_view(FileView::new(0, 1, ft).unwrap());
                let payload = sref[i].payload_for(&eref[i]);
                fref[i].write_at_all(p, 0, &payload).unwrap();
            });
            run_actors(1, |_, p| {
                let whole = File::open(comm.clone(), 0, Arc::clone(&driver), OpenMode::ReadWrite);
                let got = whole.read_at(p, 0, end).unwrap();
                assert_eq!(
                    got, model,
                    "{aggregators} aggregators: not the rank-order replay"
                );
            });
        }
    }

    #[test]
    fn two_phase_with_idle_ranks_and_empty_union() {
        use crate::collective::CollectiveStrategy;
        let (driver, comm) = shared_file(3);
        let files: Vec<File> = (0..3)
            .map(|r| File::open(comm.clone(), r, Arc::clone(&driver), OpenMode::ReadWrite))
            .collect();
        let fref = &files;
        // Round 1: only rank 1 writes; others participate empty-handed.
        run_actors(3, move |i, p| {
            fref[i].set_collective(CollectiveStrategy::TwoPhase { aggregators: 3 });
            if i == 1 {
                fref[i].write_at_all(p, 10, b"solo").unwrap();
            } else {
                fref[i].write_at_all(p, 0, b"").unwrap();
            }
            // Round 2: nobody writes at all.
            fref[i].write_at_all(p, 0, b"").unwrap();
        });
        run_actors(1, |_, p| {
            assert_eq!(files[0].read_at(p, 10, 4).unwrap(), b"solo");
        });
    }

    /// Fails every write from one client; passes everything else through.
    #[derive(Debug)]
    struct FailingWrites {
        inner: Arc<dyn AdioDriver>,
        fail: ClientId,
    }

    impl AdioDriver for FailingWrites {
        fn write_extents(
            &self,
            p: &Participant,
            client: ClientId,
            extents: &ExtentList,
            payload: Bytes,
            atomic: bool,
        ) -> Result<()> {
            if client == self.fail {
                return Err(Error::Internal("injected write failure".into()));
            }
            self.inner
                .write_extents(p, client, extents, payload, atomic)
        }

        fn read_extents(
            &self,
            p: &Participant,
            client: ClientId,
            extents: &ExtentList,
            atomic: bool,
        ) -> Result<Vec<u8>> {
            self.inner.read_extents(p, client, extents, atomic)
        }

        fn file_size(&self, p: &Participant) -> u64 {
            self.inner.file_size(p)
        }

        fn name(&self) -> &'static str {
            "failing-writes"
        }
    }

    /// One `TwoPhase { aggregators: 3 }` `write_at_all` on three ranks:
    /// rank `i` owns every third 4-byte etype of the file and writes
    /// `bufs[i]`. The ranks run on their own thread, so a rank that never
    /// returns fails the test instead of hanging it.
    fn two_phase_round(driver: Arc<dyn AdioDriver>, bufs: [&'static [u8]; 3]) -> Vec<Result<()>> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let comm = Communicator::new(3, CostModel::zero());
            let files: Vec<File> = (0..3)
                .map(|r| File::open(comm.clone(), r, Arc::clone(&driver), OpenMode::ReadWrite))
                .collect();
            let (results, _) = run_actors(3, |i, p| {
                let ft = Datatype::bytes(4).unwrap().resized(12).unwrap();
                files[i].set_view(FileView::new(i as u64 * 4, 4, ft).unwrap());
                files[i].set_collective(CollectiveStrategy::TwoPhase { aggregators: 3 });
                files[i].write_at_all(p, 0, bufs[i])
            });
            let _ = tx.send(results);
        });
        rx.recv_timeout(std::time::Duration::from_secs(20))
            .expect("a rank never left write_at_all")
    }

    #[test]
    fn no_rank_leaves_a_two_phase_write_before_the_others() {
        let read = |driver: &Arc<dyn AdioDriver>, at: u64, len: u64| {
            let whole = File::open(
                Communicator::new(1, CostModel::zero()),
                0,
                Arc::clone(driver),
                OpenMode::ReadWrite,
            );
            run_actors(1, |_, p| whole.read_at(p, at, len).unwrap())
                .0
                .remove(0)
        };

        // The aggregator of the first file domain fails its write: only
        // rank 0 sees the error, and the other domains are written.
        let (store, _) = shared_file(3);
        let failing: Arc<dyn AdioDriver> = Arc::new(FailingWrites {
            inner: Arc::clone(&store),
            fail: ClientId::new(0),
        });
        let results = two_phase_round(failing, [b"aaaa", b"bbbb", b"cccc"]);
        assert!(matches!(results[0], Err(Error::Internal(_))), "{results:?}");
        assert_eq!(results[1..], [Ok(()), Ok(())]);
        assert_eq!(read(&store, 4, 8), b"bbbbcccc");

        // Rank 1's buffer is not a whole number of etypes: it is refused,
        // still aggregates the others' bytes, and they land.
        let (store, _) = shared_file(3);
        let results = two_phase_round(Arc::clone(&store), [b"aaaa", b"bbbbbb", b"cccc"]);
        assert!(
            matches!(results[1], Err(Error::InvalidDatatype(_))),
            "{results:?}"
        );
        assert_eq!((&results[0], &results[2]), (&Ok(()), &Ok(())));
        assert_eq!(read(&store, 0, 4), b"aaaa");
        assert_eq!(read(&store, 8, 4), b"cccc");
    }

    #[test]
    fn two_phase_zero_aggregators_rejected() {
        use crate::collective::CollectiveStrategy;
        let (driver, comm) = shared_file(1);
        let f = File::open(comm, 0, driver, OpenMode::ReadWrite);
        f.set_collective(CollectiveStrategy::TwoPhase { aggregators: 0 });
        run_actors(1, |_, p| {
            assert!(matches!(
                f.write_at_all(p, 0, b"data"),
                Err(Error::CollectiveMismatch(_))
            ));
        });
    }

    #[test]
    fn empty_accesses_are_noops() {
        let (driver, comm) = shared_file(1);
        let f = File::open(comm, 0, driver, OpenMode::ReadWrite);
        run_actors(1, |_, p| {
            f.write_at(p, 0, b"").unwrap();
            assert_eq!(f.read_at(p, 0, 0).unwrap(), Vec::<u8>::new());
            assert_eq!(f.size(p), 0);
        });
    }
}
