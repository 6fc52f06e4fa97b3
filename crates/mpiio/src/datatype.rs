//! MPI derived datatypes and their flattening into byte maps.
//!
//! A datatype describes *which bytes, at which relative displacements* an
//! operation touches. The MPI-I/O layer flattens the datatype of a file
//! view into an [`ExtentList`] — the representation the rest of the stack
//! (and the paper's List-I/O-style backend API) consumes.
//!
//! Supported constructors are the MPI type-construction calls the
//! workloads build their file views from: vector, indexed, 2-D/N-D
//! subarray (the mpi-tile-io pattern), and resized.

use atomio_types::{ByteRange, Error, ExtentList, Result};
use std::sync::Arc;

/// An MPI derived datatype.
///
/// Cheap to clone (internally reference-counted); construction validates
/// shape, so flattening cannot fail.
///
/// ```
/// use atomio_mpiio::Datatype;
///
/// // A 4x4-element tile at (1, 1) of an 8x8 array of doubles
/// // (MPI_Type_create_subarray), as mpi-tile-io builds it.
/// let tile = Datatype::double()
///     .subarray(&[8, 8], &[4, 4], &[1, 1])
///     .unwrap();
/// assert_eq!(tile.size(), 4 * 4 * 8);      // data bytes
/// assert_eq!(tile.extent(), 8 * 8 * 8);    // file-space footprint
/// // Flattening yields one contiguous run per tile row.
/// let map = tile.flatten();
/// assert_eq!(map.range_count(), 4);
/// assert_eq!(map.total_len(), tile.size());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datatype {
    inner: Arc<Kind>,
}

#[derive(Debug, PartialEq, Eq)]
enum Kind {
    /// `size` raw bytes (models MPI_BYTE, MPI_DOUBLE, ... by width).
    Elementary { size: u64 },
    /// `count` blocks of `blocklen` elements, block starts `stride`
    /// **elements** apart.
    Vector {
        count: u64,
        blocklen: u64,
        stride: u64,
        elem: Datatype,
    },
    /// Blocks of `(displacement, length)` in element units.
    Indexed {
        blocks: Vec<(u64, u64)>,
        elem: Datatype,
    },
    /// An N-dimensional C-order (row-major) subarray of a larger array.
    Subarray {
        sizes: Vec<u64>,
        subsizes: Vec<u64>,
        starts: Vec<u64>,
        elem: Datatype,
    },
    /// Same data as `elem`, different extent (MPI_Type_create_resized).
    Resized { extent: u64, elem: Datatype },
}

impl Datatype {
    fn wrap(kind: Kind) -> Self {
        Datatype {
            inner: Arc::new(kind),
        }
    }

    /// An elementary type of `size` bytes.
    ///
    /// # Errors
    /// Rejects zero-size elements.
    pub fn bytes(size: u64) -> Result<Self> {
        if size == 0 {
            return Err(Error::InvalidDatatype("zero-size elementary type".into()));
        }
        Ok(Self::wrap(Kind::Elementary { size }))
    }

    /// A double-precision float (8 bytes) — common convenience.
    pub fn double() -> Self {
        Self::bytes(8).expect("8 > 0")
    }

    /// MPI_Type_vector: `count` blocks of `blocklen` elements with block
    /// starts `stride` elements apart.
    pub fn vector(&self, count: u64, blocklen: u64, stride: u64) -> Result<Self> {
        if count == 0 || blocklen == 0 {
            return Err(Error::InvalidDatatype("zero-size vector".into()));
        }
        if stride < blocklen {
            return Err(Error::InvalidDatatype(format!(
                "vector stride {stride} smaller than blocklen {blocklen} (blocks would overlap)"
            )));
        }
        Ok(Self::wrap(Kind::Vector {
            count,
            blocklen,
            stride,
            elem: self.clone(),
        }))
    }

    /// MPI_Type_indexed: `(displacement, blocklen)` pairs in element
    /// units; displacements must be non-decreasing and non-overlapping.
    pub fn indexed(&self, blocks: &[(u64, u64)]) -> Result<Self> {
        if blocks.is_empty() {
            return Err(Error::InvalidDatatype("empty indexed type".into()));
        }
        let mut prev_end = 0u64;
        for &(disp, len) in blocks {
            if len == 0 {
                return Err(Error::InvalidDatatype("zero-length indexed block".into()));
            }
            if disp < prev_end {
                return Err(Error::InvalidDatatype(
                    "indexed blocks must be sorted and disjoint".into(),
                ));
            }
            prev_end = disp + len;
        }
        Ok(Self::wrap(Kind::Indexed {
            blocks: blocks.to_vec(),
            elem: self.clone(),
        }))
    }

    /// MPI_Type_create_subarray (C order): an `subsizes` window at
    /// `starts` within an array of `sizes` elements.
    pub fn subarray(&self, sizes: &[u64], subsizes: &[u64], starts: &[u64]) -> Result<Self> {
        if sizes.is_empty() || sizes.len() != subsizes.len() || sizes.len() != starts.len() {
            return Err(Error::InvalidDatatype("subarray dimension mismatch".into()));
        }
        for i in 0..sizes.len() {
            if subsizes[i] == 0 || starts[i] + subsizes[i] > sizes[i] {
                return Err(Error::InvalidDatatype(format!(
                    "subarray dim {i}: window [{}, {}) outside array of {}",
                    starts[i],
                    starts[i] + subsizes[i],
                    sizes[i]
                )));
            }
        }
        Ok(Self::wrap(Kind::Subarray {
            sizes: sizes.to_vec(),
            subsizes: subsizes.to_vec(),
            starts: starts.to_vec(),
            elem: self.clone(),
        }))
    }

    /// MPI_Type_create_resized: same data, new extent (for tiling with
    /// padding).
    pub fn resized(&self, extent: u64) -> Result<Self> {
        if extent < self.span() {
            return Err(Error::InvalidDatatype(
                "resized extent smaller than the type's data span".into(),
            ));
        }
        Ok(Self::wrap(Kind::Resized {
            extent,
            elem: self.clone(),
        }))
    }

    /// Number of data bytes one instance carries.
    pub fn size(&self) -> u64 {
        match &*self.inner {
            Kind::Elementary { size } => *size,
            Kind::Vector {
                count,
                blocklen,
                elem,
                ..
            } => count * blocklen * elem.size(),
            Kind::Indexed { blocks, elem } => {
                blocks.iter().map(|&(_, len)| len).sum::<u64>() * elem.size()
            }
            Kind::Subarray { subsizes, elem, .. } => subsizes.iter().product::<u64>() * elem.size(),
            Kind::Resized { elem, .. } => elem.size(),
        }
    }

    /// Distance from the first byte to one past the last byte the type
    /// can touch (its natural span, before any resize).
    fn span(&self) -> u64 {
        match &*self.inner {
            Kind::Elementary { size } => *size,
            Kind::Vector {
                count,
                blocklen,
                stride,
                elem,
            } => ((count - 1) * stride + (blocklen - 1)) * elem.extent() + elem.span(),
            Kind::Indexed { blocks, elem } => {
                let &(disp, len) = blocks.last().expect("validated non-empty");
                (disp + len - 1) * elem.extent() + elem.span()
            }
            Kind::Subarray { sizes, elem, .. } => sizes.iter().product::<u64>() * elem.extent(),
            Kind::Resized { elem, .. } => elem.span(),
        }
    }

    /// The type's extent: the tiling period when the type repeats (file
    /// views tile the filetype at its extent).
    pub fn extent(&self) -> u64 {
        match &*self.inner {
            Kind::Resized { extent, .. } => *extent,
            Kind::Subarray { sizes, elem, .. } => sizes.iter().product::<u64>() * elem.extent(),
            _ => self.span(),
        }
    }

    /// Flattens one instance into its relative byte map.
    pub fn flatten(&self) -> ExtentList {
        let mut ranges = Vec::new();
        self.emit(0, &mut ranges);
        ExtentList::from_ranges(ranges)
    }

    /// True when one instance is a single gapless run whose extent equals
    /// its size — the common case (elementary types),
    /// which lets flattening emit whole blocks instead of per-element
    /// ranges.
    fn is_dense(&self) -> bool {
        match &*self.inner {
            Kind::Elementary { .. } => true,
            Kind::Resized { extent, elem } => elem.is_dense() && *extent == elem.size(),
            _ => false,
        }
    }

    fn emit(&self, base: u64, out: &mut Vec<ByteRange>) {
        match &*self.inner {
            Kind::Elementary { size } => out.push(ByteRange::new(base, *size)),
            Kind::Vector {
                count,
                blocklen,
                stride,
                elem,
            } => {
                let dense = elem.is_dense();
                for i in 0..*count {
                    if dense {
                        out.push(ByteRange::new(
                            base + i * stride * elem.extent(),
                            blocklen * elem.size(),
                        ));
                        continue;
                    }
                    for j in 0..*blocklen {
                        elem.emit(base + (i * stride + j) * elem.extent(), out);
                    }
                }
            }
            Kind::Indexed { blocks, elem } => {
                let dense = elem.is_dense();
                for &(disp, len) in blocks {
                    if dense {
                        out.push(ByteRange::new(
                            base + disp * elem.extent(),
                            len * elem.size(),
                        ));
                        continue;
                    }
                    for j in 0..len {
                        elem.emit(base + (disp + j) * elem.extent(), out);
                    }
                }
            }
            Kind::Subarray {
                sizes,
                subsizes,
                starts,
                elem,
            } => {
                // Row-major: iterate all outer-dim positions; the
                // innermost dimension is one contiguous run of elements.
                let dims = sizes.len();
                let elem_extent = elem.extent();
                let row_len = subsizes[dims - 1];
                // Strides (in elements) of each dimension.
                let mut strides = vec![1u64; dims];
                for d in (0..dims - 1).rev() {
                    strides[d] = strides[d + 1] * sizes[d + 1];
                }
                let mut idx = vec![0u64; dims - 1];
                let dense = elem.is_dense();
                loop {
                    let mut elem_off = starts[dims - 1];
                    for d in 0..dims - 1 {
                        elem_off += (starts[d] + idx[d]) * strides[d];
                    }
                    // One contiguous row of `row_len` elements.
                    if dense {
                        out.push(ByteRange::new(
                            base + elem_off * elem_extent,
                            row_len * elem.size(),
                        ));
                    } else {
                        for j in 0..row_len {
                            elem.emit(base + (elem_off + j) * elem_extent, out);
                        }
                    }
                    // Advance the outer index vector (odometer).
                    let mut d = dims - 1;
                    loop {
                        if d == 0 {
                            return;
                        }
                        d -= 1;
                        idx[d] += 1;
                        if idx[d] < subsizes[d] {
                            break;
                        }
                        idx[d] = 0;
                    }
                }
            }
            Kind::Resized { elem, .. } => elem.emit(base, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(t: &Datatype) -> Vec<(u64, u64)> {
        t.flatten()
            .ranges()
            .iter()
            .map(|r| (r.offset, r.len))
            .collect()
    }

    #[test]
    fn elementary_and_contiguous() {
        let d = Datatype::double();
        assert_eq!(d.size(), 8);
        assert_eq!(d.extent(), 8);
        assert_eq!(ranges(&d), vec![(0, 8)]);
        // One block of 4 doubles: MPI_Type_contiguous as a vector.
        let c = d.vector(1, 4, 4).unwrap();
        assert_eq!(c.size(), 32);
        assert_eq!(c.extent(), 32);
        assert_eq!(ranges(&c), vec![(0, 32)], "contiguous runs coalesce");
    }

    #[test]
    fn zero_sizes_rejected() {
        assert!(Datatype::bytes(0).is_err());
        let d = Datatype::double();
        assert!(d.vector(0, 1, 1).is_err());
        assert!(d.vector(1, 0, 1).is_err());
        assert!(d.indexed(&[]).is_err());
        assert!(d.indexed(&[(0, 0)]).is_err());
    }

    #[test]
    fn vector_strides() {
        // 3 blocks of 2 doubles every 4 doubles: the classic row-of-a-
        // matrix-column pattern.
        let v = Datatype::double().vector(3, 2, 4).unwrap();
        assert_eq!(v.size(), 48);
        assert_eq!(ranges(&v), vec![(0, 16), (32, 16), (64, 16)]);
        assert_eq!(v.extent(), (2 * 4 + 1) * 8 + 8);
        // Overlapping stride is rejected.
        assert!(Datatype::double().vector(2, 4, 2).is_err());
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::bytes(2)
            .unwrap()
            .indexed(&[(0, 2), (5, 1), (10, 3)])
            .unwrap();
        assert_eq!(t.size(), 12);
        assert_eq!(ranges(&t), vec![(0, 4), (10, 2), (20, 6)]);
        // Unsorted/overlapping rejected.
        assert!(Datatype::bytes(1)
            .unwrap()
            .indexed(&[(5, 2), (0, 2)])
            .is_err());
        assert!(Datatype::bytes(1)
            .unwrap()
            .indexed(&[(0, 3), (2, 2)])
            .is_err());
    }

    #[test]
    fn subarray_2d_matches_manual() {
        // 4×6 array of 1-byte elements, 2×3 window at (1, 2):
        // rows 1..3, cols 2..5 → offsets 8..11 and 14..17.
        let t = Datatype::bytes(1)
            .unwrap()
            .subarray(&[4, 6], &[2, 3], &[1, 2])
            .unwrap();
        assert_eq!(t.size(), 6);
        assert_eq!(t.extent(), 24);
        assert_eq!(ranges(&t), vec![(8, 3), (14, 3)]);
    }

    #[test]
    fn subarray_3d() {
        // 2×3×4 of 1-byte elems; 1×2×2 window at (1,1,1).
        let t = Datatype::bytes(1)
            .unwrap()
            .subarray(&[2, 3, 4], &[1, 2, 2], &[1, 1, 1])
            .unwrap();
        // plane 1 (offset 12), rows 1..3, cols 1..3:
        // 12 + 4 + 1 = 17..19, 12 + 8 + 1 = 21..23.
        assert_eq!(ranges(&t), vec![(17, 2), (21, 2)]);
    }

    #[test]
    fn subarray_full_window_is_contiguous() {
        let t = Datatype::bytes(4)
            .unwrap()
            .subarray(&[8, 8], &[8, 8], &[0, 0])
            .unwrap();
        assert_eq!(ranges(&t), vec![(0, 256)]);
    }

    #[test]
    fn subarray_validation() {
        let e = Datatype::bytes(1).unwrap();
        assert!(e.subarray(&[4, 4], &[2], &[0, 0]).is_err());
        assert!(e.subarray(&[4], &[5], &[0]).is_err());
        assert!(e.subarray(&[4], &[2], &[3]).is_err());
        assert!(e.subarray(&[], &[], &[]).is_err());
    }

    #[test]
    fn resized_changes_extent_only() {
        let t = Datatype::bytes(4).unwrap();
        let r = t.resized(16).unwrap();
        assert_eq!(r.size(), 4);
        assert_eq!(r.extent(), 16);
        assert_eq!(ranges(&r), vec![(0, 4)]);
        // Tiling via a vector uses the new extent: gaps appear.
        let tiled = r.vector(3, 1, 1).unwrap();
        assert_eq!(ranges(&tiled), vec![(0, 4), (16, 4), (32, 4)]);
        assert!(t.resized(2).is_err());
    }

    #[test]
    fn nested_vector_of_subarray() {
        // A vector of 2 subarray tiles — exercise nesting with extents.
        let tile = Datatype::bytes(1)
            .unwrap()
            .subarray(&[4, 4], &[2, 2], &[0, 0])
            .unwrap(); // extent 16, data at (0,2),(4,2)
        let two = tile.vector(2, 1, 6).unwrap(); // tiles 6 extents apart
        assert_eq!(ranges(&two), vec![(0, 2), (4, 2), (96, 2), (100, 2)]);
    }

    #[test]
    fn flatten_size_invariant() {
        // For a few representative types, flatten().total_len() == size().
        let types = [
            Datatype::double().vector(5, 3, 9).unwrap(),
            Datatype::bytes(3)
                .unwrap()
                .indexed(&[(0, 1), (4, 2), (9, 5)])
                .unwrap(),
            Datatype::bytes(2)
                .unwrap()
                .subarray(&[6, 6, 6], &[2, 3, 4], &[1, 0, 2])
                .unwrap(),
        ];
        for t in &types {
            assert_eq!(t.flatten().total_len(), t.size());
        }
    }
}
