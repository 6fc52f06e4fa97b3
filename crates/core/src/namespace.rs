//! A flat, slash-separated namespace mapping paths to blobs.
//!
//! BlobSeer itself is a blob store; file-system deployments put a thin
//! namespace in front of it (as BlobSeer's HDFS/file-system bindings
//! do). This module provides that layer so MPI applications can open
//! shared files by path: `create` / `open` / `rename` / `unlink` /
//! `list`.
//!
//! Unlinking removes the name only — snapshots stay readable through
//! live handles and reclaimable via [`crate::gc`], consistent with POSIX
//! unlink semantics.

use crate::blob::Blob;
use crate::store::Store;
use atomio_types::{Error, Result};
use parking_lot::RwLock;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Path → blob directory. One per store; thread-safe: one map under one
/// lock, so every operation decides on the map as it is.
#[derive(Debug, Default)]
pub struct Namespace(RwLock<BTreeMap<String, Blob>>);

/// Normalizes a path: requires a leading `/`, collapses repeated
/// slashes, rejects empty and trailing-slash paths.
fn normalize(path: &str) -> Result<String> {
    if !path.starts_with('/') {
        return Err(Error::Internal(format!(
            "namespace paths are absolute, got {path:?}"
        )));
    }
    let mut out = String::with_capacity(path.len());
    for segment in path.split('/') {
        if segment.is_empty() {
            continue;
        }
        out.push('/');
        out.push_str(segment);
    }
    if out.is_empty() {
        return Err(Error::Internal("the root is not a file".into()));
    }
    Ok(out)
}

fn missing(path: &str) -> Error {
    Error::Internal(format!("{path} does not exist"))
}

fn taken(path: &str) -> Error {
    Error::Internal(format!("{path} already exists"))
}

impl Store {
    /// Creates a new named file; fails if the path exists, allocating
    /// no blob then.
    pub fn create_file(&self, path: &str) -> Result<Blob> {
        let path = normalize(path)?;
        match self.namespace().0.write().entry(path) {
            Entry::Occupied(e) => Err(taken(e.key())),
            Entry::Vacant(e) => Ok(e.insert(self.create_blob()).clone()),
        }
    }

    /// Opens an existing named file.
    pub fn open_file(&self, path: &str) -> Result<Blob> {
        let path = normalize(path)?;
        let entries = self.namespace().0.read();
        entries.get(&path).cloned().ok_or_else(|| missing(&path))
    }

    /// Opens the file, creating it first if absent (MPI_MODE_CREATE):
    /// concurrent callers on one new path all get the one blob.
    pub fn open_or_create_file(&self, path: &str) -> Result<Blob> {
        let path = normalize(path)?;
        let mut entries = self.namespace().0.write();
        Ok(entries
            .entry(path)
            .or_insert_with(|| self.create_blob())
            .clone())
    }

    /// Removes a name. Live handles keep working; data is reclaimed by
    /// GC, not by unlink.
    pub fn unlink(&self, path: &str) -> Result<()> {
        let path = normalize(path)?;
        let removed = self.namespace().0.write().remove(&path);
        removed.map(drop).ok_or_else(|| missing(&path))
    }

    /// Renames a file; fails if the source is missing or the target
    /// exists.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let from = normalize(from)?;
        let to = normalize(to)?;
        let mut entries = self.namespace().0.write();
        if entries.contains_key(&to) {
            return Err(taken(&to));
        }
        let blob = entries.remove(&from).ok_or_else(|| missing(&from))?;
        entries.insert(to, blob);
        Ok(())
    }

    /// Lists paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let entries = self.namespace().0.read();
        match normalize(prefix) {
            // "/" lists everything.
            Err(_) => entries.keys().cloned().collect(),
            Ok(p) => entries
                .range(p.clone()..)
                .take_while(|(k, _)| k.starts_with(&p))
                .map(|(k, _)| k.clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Store, StoreConfig};
    use atomio_simgrid::clock::run_actors;
    use bytes::Bytes;
    use std::sync::Barrier;

    fn store() -> Store {
        Store::new(StoreConfig::default().with_zero_cost().with_chunk_size(64))
    }

    #[test]
    fn create_open_roundtrip() {
        let s = store();
        let created = s.create_file("/runs/exp1/output.dat").unwrap();
        let opened = s.open_file("/runs/exp1/output.dat").unwrap();
        assert_eq!(created.id(), opened.id());
        // Paths normalize: repeated slashes collapse.
        let opened2 = s.open_file("//runs//exp1/output.dat").unwrap();
        assert_eq!(created.id(), opened2.id());
    }

    #[test]
    fn duplicate_create_fails_open_or_create_does_not() {
        let s = store();
        let f = s.create_file("/f").unwrap();
        assert!(s.create_file("/f").is_err());
        // The refused create allocated no blob: the next one is f's
        // successor.
        let g = s.create_file("/g").unwrap();
        assert_eq!(g.id().raw(), f.id().raw() + 1);
        let a = s.open_or_create_file("/f").unwrap();
        let b = s.open_or_create_file("/h").unwrap();
        assert_eq!(a.id(), f.id());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn concurrent_open_or_create_of_one_new_path_yields_one_blob() {
        let s = store();
        let start = Barrier::new(4);
        for round in 0..300 {
            let path = format!("/race/{round}");
            let opened: Vec<_> = std::thread::scope(|scope| {
                let open = || {
                    start.wait();
                    s.open_or_create_file(&path).map(|blob| blob.id())
                };
                let threads: Vec<_> = (0..4).map(|_| scope.spawn(open)).collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            // Every call succeeds, and all four get the same blob.
            assert!(opened[0].is_ok(), "round {round}: {opened:?}");
            assert!(
                opened.iter().all(|got| *got == opened[0]),
                "round {round}: {opened:?}"
            );
        }
    }

    #[test]
    fn invalid_paths_rejected() {
        let s = store();
        assert!(s.create_file("relative/path").is_err());
        assert!(s.create_file("/").is_err());
        assert!(s.open_file("/missing").is_err());
    }

    #[test]
    fn unlink_keeps_live_handles_working() {
        let s = store();
        let blob = s.create_file("/data").unwrap();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from_static(b"still here")).unwrap();
        });
        s.unlink("/data").unwrap();
        assert!(s.open_file("/data").is_err());
        assert!(s.unlink("/data").is_err(), "double unlink");
        run_actors(1, |_, p| {
            assert_eq!(blob.read(p, 0, 10).unwrap(), b"still here");
        });
        // The name is free for reuse, backed by a fresh blob.
        let fresh = s.create_file("/data").unwrap();
        assert_ne!(fresh.id(), blob.id());
    }

    #[test]
    fn rename_moves_the_binding() {
        let s = store();
        let blob = s.create_file("/old").unwrap();
        s.create_file("/taken").unwrap();
        assert!(s.rename("/old", "/taken").is_err());
        s.rename("/old", "/new").unwrap();
        assert!(s.open_file("/old").is_err());
        assert_eq!(s.open_file("/new").unwrap().id(), blob.id());
        assert!(s.rename("/missing", "/x").is_err());
    }

    #[test]
    fn list_by_prefix() {
        let s = store();
        for path in ["/a/1", "/a/2", "/b/1", "/a/sub/3"] {
            s.create_file(path).unwrap();
        }
        assert_eq!(s.list("/a"), vec!["/a/1", "/a/2", "/a/sub/3"]);
        assert_eq!(s.list("/b"), vec!["/b/1"]);
        assert_eq!(s.list("/").len(), 4);
        assert!(s.list("/zzz").is_empty());
    }
}
