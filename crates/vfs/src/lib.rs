//! The filesystem boundary of the workspace.
//!
//! Every byte SBM persists — script snapshots and the job store —
//! flows through the [`Vfs`] trait defined here. Production code
//! uses [`RealVfs`], a thin passthrough to `std::fs`; tests and chaos
//! runs use [`ChaosVfs`], which injects *deterministic, seed-keyed* I/O
//! faults (torn writes, failed fsyncs, ENOSPC, read corruption, rename
//! failure, latency) so every durability path in the workspace can be
//! exercised against the failures production disks actually produce.
//!
//! The crate is dependency-free and deliberately small: a trait, the
//! real impl, the chaos impl, and the [`splitmix64`] mixer shared by
//! every seeded-injection site in the workspace. The sbm-lint rule P002
//! pins all raw mutating `std::fs` use to this crate, so the chaos layer
//! provably covers the whole write surface.

pub mod chaos;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

pub use chaos::{ChaosVfs, InjectedIoFault, IoFaultKind, IoFaultPlan, IoOp};

/// An open file handle behind the [`Vfs`] boundary.
///
/// Only the operations the journal and store actually need are exposed;
/// keeping the surface minimal keeps [`ChaosVfs`] honest — there is no
/// side door around the fault injector.
pub trait VfsFile: Send {
    /// Writes the whole buffer (or fails).
    ///
    /// # Errors
    /// I/O failure; a chaos impl may fail after writing a prefix.
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()>;

    /// Durably flushes content and metadata (`fsync` class).
    ///
    /// # Errors
    /// I/O failure; a chaos impl may report a failed fsync.
    fn sync_all(&mut self) -> std::io::Result<()>;
}

/// The filesystem operations SBM's durability layer is built from.
///
/// All paths are owned by the caller; implementations must be safe to
/// share across threads (the job store is hit from every worker).
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Creates (or truncates) `path` for writing.
    ///
    /// # Errors
    /// I/O failure.
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;

    /// Reads the whole file.
    ///
    /// # Errors
    /// I/O failure (including not-found). A chaos impl may return
    /// corrupted bytes instead of an error — callers validate CRCs.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;

    /// Renames `from` to `to` (atomic on the same filesystem).
    ///
    /// # Errors
    /// I/O failure.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Fsyncs a directory so a preceding rename is durable.
    ///
    /// # Errors
    /// I/O failure; callers on the best-effort path may ignore it.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;

    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    /// I/O failure.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;

    /// Lists the entries of `dir`, sorted by path for determinism.
    ///
    /// # Errors
    /// I/O failure.
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>>;

    /// Removes a file.
    ///
    /// # Errors
    /// I/O failure.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;

    /// Whether `path` exists (any kind).
    fn exists(&self, path: &Path) -> bool;

    /// Atomically replaces `path` with `bytes` via the workspace's
    /// standard tmp → write → fsync → rename → dir-fsync discipline.
    /// The trailing directory fsync is best-effort (matching the
    /// long-standing snapshot semantics); everything before it is not.
    ///
    /// # Errors
    /// I/O failure at any non-best-effort step. On error the
    /// destination is untouched; a `.tmp` sibling may linger for the
    /// scrubber to quarantine.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = tmp_path(path);
        let mut f = self.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        self.rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            let _ = self.sync_dir(dir);
        }
        Ok(())
    }
}

/// The conventional sibling a [`Vfs::write_atomic`] stages into:
/// `path` with `.tmp` appended to the extension.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The passthrough [`Vfs`]: plain `std::fs`, no behavior changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl VfsFile for fs::File {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        Write::write_all(self, buf)
    }

    fn sync_all(&mut self) -> std::io::Result<()> {
        fs::File::sync_all(self)
    }
}

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let f = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(f))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The workspace's standard 64-bit finalizer/mixer (same constants as
/// `sbm-check`'s engine `FaultPlan`): every seeded-injection site keys
/// its rolls with chains of this function so ledgers are replayable.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used)]

    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbm-vfs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn real_vfs_round_trip() {
        let dir = tmp_dir("real");
        let vfs = RealVfs;
        let path = dir.join("a.bin");

        let mut f = vfs.create(&path).expect("create");
        f.write_all(b"hello").expect("write");
        f.sync_all().expect("sync");
        drop(f);
        assert_eq!(vfs.read(&path).expect("read"), b"hello");
        assert!(vfs.exists(&path));

        let renamed = dir.join("b.bin");
        vfs.rename(&path, &renamed).expect("rename");
        assert!(!vfs.exists(&path));
        assert_eq!(vfs.read(&renamed).expect("read"), b"hello");

        let listed = vfs.list_dir(&dir).expect("list");
        assert_eq!(listed, vec![renamed.clone()]);

        vfs.remove_file(&renamed).expect("remove");
        assert!(vfs.list_dir(&dir).expect("list").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = tmp_dir("atomic");
        let vfs = RealVfs;
        let path = dir.join("snap.bin");
        vfs.write_atomic(&path, b"v1").expect("write v1");
        vfs.write_atomic(&path, b"v2").expect("write v2");
        assert_eq!(vfs.read(&path).expect("read"), b"v2");
        assert!(!vfs.exists(&tmp_path(&path)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_path_appends_suffix() {
        assert_eq!(
            tmp_path(Path::new("/x/y.snap")),
            PathBuf::from("/x/y.snap.tmp")
        );
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values from the splitmix64 test vectors (seed 0).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
