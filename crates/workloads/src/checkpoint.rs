//! Iterative checkpoint dumps: the "simulation writes its state every
//! iteration" pattern from the paper's introduction.
//!
//! The simulated domain is a 1-D chain of cells split into slabs, one
//! per rank, extended by `halo` ghost cells on each side (clipped at the
//! domain boundary). Every iteration, every rank dumps its extended slab
//! to the shared checkpoint file — neighbouring slabs overlap in the
//! halo regions, so every dump is a concurrent overlapping write.

use atomio_types::{ByteRange, ExtentList};

/// Generator for halo-extended slab checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointWorkload {
    /// Number of ranks.
    pub ranks: usize,
    /// Cells per rank (excluding halo).
    pub cells_per_rank: u64,
    /// Bytes per cell.
    pub cell_size: u64,
    /// Ghost cells on each side of a slab.
    pub halo: u64,
}

impl CheckpointWorkload {
    /// Validates and builds a workload.
    pub fn new(ranks: usize, cells_per_rank: u64, cell_size: u64, halo: u64) -> Self {
        assert!(ranks > 0 && cells_per_rank > 0 && cell_size > 0);
        assert!(
            halo <= cells_per_rank,
            "halo larger than a slab makes no physical sense"
        );
        CheckpointWorkload {
            ranks,
            cells_per_rank,
            cell_size,
            halo,
        }
    }

    /// Total domain cells.
    pub fn domain_cells(&self) -> u64 {
        self.ranks as u64 * self.cells_per_rank
    }

    /// Checkpoint file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.domain_cells() * self.cell_size
    }

    /// The (single, contiguous) extent rank `r` dumps: its slab plus
    /// halos, clipped to the domain.
    pub fn extents_for(&self, rank: usize) -> ExtentList {
        assert!(rank < self.ranks);
        let r = rank as u64;
        let lo_cell = (r * self.cells_per_rank).saturating_sub(self.halo);
        let hi_cell = ((r + 1) * self.cells_per_rank + self.halo).min(self.domain_cells());
        ExtentList::single(ByteRange::from_bounds(
            lo_cell * self.cell_size,
            hi_cell * self.cell_size,
        ))
    }

    /// Bytes rank `r` transfers per iteration.
    pub fn bytes_for(&self, rank: usize) -> u64 {
        self.extents_for(rank).total_len()
    }

    /// True when halos make neighbouring dumps overlap.
    pub fn has_overlap(&self) -> bool {
        self.halo > 0 && self.ranks > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slabs_without_halo_tile_exactly() {
        let w = CheckpointWorkload::new(4, 100, 8, 0);
        let mut union = ExtentList::new();
        for r in 0..4 {
            let e = w.extents_for(r);
            assert_eq!(e.total_len(), 800);
            assert!(union.intersection(&e).is_empty());
            union = union.union(&e);
        }
        assert_eq!(union.total_len(), w.file_bytes());
        assert!(!w.has_overlap());
    }

    #[test]
    fn halos_overlap_neighbours_only() {
        let w = CheckpointWorkload::new(4, 100, 8, 10);
        let e1 = w.extents_for(1);
        let e2 = w.extents_for(2);
        let e3 = w.extents_for(3);
        // Adjacent slabs share 2·halo cells (each extends `halo` into the
        // other's territory).
        assert_eq!(e1.intersection(&e2).total_len(), 2 * 10 * 8);
        // Non-adjacent slabs stay disjoint.
        assert!(e1.intersection(&e3).is_empty());
        assert!(w.has_overlap());
    }

    #[test]
    fn boundary_slabs_clip_at_domain_edges() {
        let w = CheckpointWorkload::new(3, 100, 4, 20);
        let first = w.extents_for(0);
        let last = w.extents_for(2);
        assert_eq!(first.covering_range().offset, 0, "no halo below zero");
        assert_eq!(
            last.covering_range().end(),
            w.file_bytes(),
            "no halo past the domain"
        );
        // Interior slab has both halos.
        assert_eq!(w.bytes_for(1), (100 + 40) * 4);
        // Edge slabs have one halo.
        assert_eq!(w.bytes_for(0), (100 + 20) * 4);
        assert_eq!(w.bytes_for(2), (100 + 20) * 4);
    }

    #[test]
    #[should_panic(expected = "halo larger")]
    fn oversized_halo_rejected() {
        let _ = CheckpointWorkload::new(2, 10, 4, 11);
    }
}
