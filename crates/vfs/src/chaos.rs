//! Deterministic, seed-keyed I/O fault injection.
//!
//! [`ChaosVfs`] wraps the real filesystem and injects faults decided by
//! a pure hash of `(seed, path, op, attempt)` — the same discipline as
//! `sbm-check`'s engine `FaultPlan`: no global state, no clock, so a
//! run injects the *same* faults per file-operation sequence no matter
//! how many threads drive it, and tests can replay the ledger exactly.
//!
//! Fault taxonomy (see DESIGN.md "I/O chaos"):
//! - **torn write** — a prefix of the buffer reaches the file, then the
//!   write errors (what a crash mid-`write(2)` leaves behind);
//! - **ENOSPC** — a prefix is written, then the disk reports full;
//! - **fsync failure** — the durability barrier itself errors;
//! - **read corruption** — `read` succeeds but one byte is flipped
//!   (callers must catch it via CRCs, never trust raw bytes);
//! - **rename failure** — the atomic-replace step errors, destination
//!   untouched;
//! - **latency** — the op sleeps briefly, then succeeds (exercises
//!   timeout paths without failing anything).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::{splitmix64, Vfs, VfsFile};

/// The operation class a roll is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoOp {
    /// Create-or-truncate for writing.
    Create,
    /// A `write_all` on an open handle.
    Write,
    /// An `fsync`/`fdatasync` on an open handle.
    Fsync,
    /// A rename (atomic replace).
    Rename,
    /// A whole-file read.
    Read,
    /// A directory listing.
    ListDir,
    /// A file removal.
    Remove,
    /// A `create_dir_all`.
    MkDir,
}

impl IoOp {
    fn tag(self) -> u8 {
        match self {
            IoOp::Create => 1,
            IoOp::Write => 2,
            IoOp::Fsync => 3,
            IoOp::Rename => 4,
            IoOp::Read => 5,
            IoOp::ListDir => 6,
            IoOp::Remove => 7,
            IoOp::MkDir => 8,
        }
    }

    /// Stable lower-case name (used in ledger dumps and error text).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            IoOp::Create => "create",
            IoOp::Write => "write",
            IoOp::Fsync => "fsync",
            IoOp::Rename => "rename",
            IoOp::Read => "read",
            IoOp::ListDir => "list",
            IoOp::Remove => "remove",
            IoOp::MkDir => "mkdir",
        }
    }
}

/// The kind of fault a roll produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoFaultKind {
    /// A prefix of the buffer was written, then the write errored.
    TornWrite,
    /// The disk reported full after a prefix was written.
    Enospc,
    /// The fsync barrier errored.
    FsyncFail,
    /// One byte of the returned read buffer is flipped.
    ReadCorrupt,
    /// The rename errored; the destination is untouched.
    RenameFail,
    /// The op slept briefly, then succeeded.
    Latency,
}

impl IoFaultKind {
    /// Stable lower-case name (used in ledger dumps and error text).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            IoFaultKind::TornWrite => "torn-write",
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::FsyncFail => "fsync-fail",
            IoFaultKind::ReadCorrupt => "read-corrupt",
            IoFaultKind::RenameFail => "rename-fail",
            IoFaultKind::Latency => "latency",
        }
    }
}

/// One injected fault, as recorded in the ledger.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct InjectedIoFault {
    /// The path the faulted op targeted.
    pub path: PathBuf,
    /// The operation class.
    pub op: IoOp,
    /// Which attempt on `(path, op)` faulted (0-based).
    pub attempt: u32,
    /// What was injected.
    pub kind: IoFaultKind,
}

/// A deterministic schedule of injected I/O faults.
///
/// Each rate is an independent probability in `[0, 1]`, applied as
/// cumulative bands per applicable op (e.g. a write rolls torn-write,
/// then ENOSPC, then latency). Rolls are a pure function of
/// `(seed, path, op, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultPlan {
    /// Seed mixed into every roll.
    pub seed: u64,
    /// Probability a write tears (prefix written, then error).
    pub torn_write_rate: f64,
    /// Probability a write hits ENOSPC (prefix written, then error).
    pub enospc_rate: f64,
    /// Probability an fsync fails.
    pub fsync_fail_rate: f64,
    /// Probability a read returns one flipped byte.
    pub read_corrupt_rate: f64,
    /// Probability a rename fails.
    pub rename_fail_rate: f64,
    /// Probability any op sleeps [`IoFaultPlan::latency`] first.
    pub latency_rate: f64,
    /// How long an injected latency sleeps. Kept small so chaos runs
    /// at high rates stay fast.
    pub latency: Duration,
}

impl IoFaultPlan {
    /// A plan where each applicable op *fails* with probability `rate`
    /// (split across the kinds that apply to it) and additionally
    /// stalls with probability `rate / 4`. `rate` is clamped to
    /// `[0, 0.5]` so the cumulative bands always fit.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> IoFaultPlan {
        let rate = rate.clamp(0.0, 0.5);
        IoFaultPlan {
            seed,
            torn_write_rate: rate / 2.0,
            enospc_rate: rate / 2.0,
            fsync_fail_rate: rate,
            read_corrupt_rate: rate,
            rename_fail_rate: rate,
            latency_rate: rate / 4.0,
            latency: Duration::from_micros(200),
        }
    }

    /// The raw 64-bit hash for `(seed, path, op, attempt)` — the single
    /// source of both the fault decision and any derived parameter
    /// (torn offset, flipped byte index).
    fn hash(&self, path: &Path, op: IoOp, attempt: u32) -> u64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        h = splitmix64(h ^ u64::from(op.tag()));
        for &b in path.to_string_lossy().as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        splitmix64(h ^ u64::from(attempt))
    }

    /// Rolls for one operation. Deterministic: equal arguments on an
    /// equal plan always produce the same outcome, independent of
    /// threads or timing.
    #[must_use]
    pub fn roll(&self, path: &Path, op: IoOp, attempt: u32) -> Option<IoFaultKind> {
        let h = self.hash(path, op, attempt);
        // 53 uniform bits → r ∈ [0, 1).
        #[allow(clippy::cast_precision_loss)]
        let r = (h >> 11) as f64 / (1u64 << 53) as f64;
        let bands: &[(f64, IoFaultKind)] = match op {
            IoOp::Write => &[
                (self.torn_write_rate, IoFaultKind::TornWrite),
                (self.enospc_rate, IoFaultKind::Enospc),
                (self.latency_rate, IoFaultKind::Latency),
            ],
            IoOp::Fsync => &[
                (self.fsync_fail_rate, IoFaultKind::FsyncFail),
                (self.latency_rate, IoFaultKind::Latency),
            ],
            IoOp::Read => &[
                (self.read_corrupt_rate, IoFaultKind::ReadCorrupt),
                (self.latency_rate, IoFaultKind::Latency),
            ],
            IoOp::Rename => &[
                (self.rename_fail_rate, IoFaultKind::RenameFail),
                (self.latency_rate, IoFaultKind::Latency),
            ],
            _ => &[(self.latency_rate, IoFaultKind::Latency)],
        };
        let mut lo = 0.0;
        for &(rate, kind) in bands {
            if r < lo + rate {
                return Some(kind);
            }
            lo += rate;
        }
        None
    }

    /// A derived parameter (torn offset, flip index) for the same roll:
    /// one extra mix over the decision hash, so it is equally pure.
    fn derive(&self, path: &Path, op: IoOp, attempt: u32, modulus: u64) -> u64 {
        if modulus == 0 {
            return 0;
        }
        splitmix64(self.hash(path, op, attempt)) % modulus
    }
}

/// A one-shot fault armed by tests via [`ChaosVfs::force_write_fault`]:
/// fires on the next applicable op regardless of the seeded plan.
#[derive(Debug, Clone, Copy)]
struct ForcedFault {
    kind: IoFaultKind,
    /// Bytes allowed through before a torn/ENOSPC write errors.
    offset: u64,
}

#[derive(Debug, Default)]
struct ChaosState {
    /// Per-`(path, op)` attempt counters — the replay key.
    attempts: BTreeMap<(PathBuf, IoOp), u32>,
    /// Every injected fault, in arrival order.
    ledger: Vec<InjectedIoFault>,
    forced: Option<ForcedFault>,
}

/// A [`Vfs`] that injects deterministic faults in front of the real
/// filesystem. See the module docs for the taxonomy and keying.
#[derive(Debug, Clone)]
pub struct ChaosVfs {
    inner: crate::RealVfs,
    plan: IoFaultPlan,
    state: Arc<Mutex<ChaosState>>,
}

/// The chaos mutex guards tiny counter maps; a poisoning panic inside
/// it is impossible in practice, and chaos bookkeeping must never take
/// the process down, so we shrug the poison off.
fn lock(state: &Mutex<ChaosState>) -> std::sync::MutexGuard<'_, ChaosState> {
    match state.lock() {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}

fn injected_err(kind: IoFaultKind, path: &Path, detail: &str) -> std::io::Error {
    std::io::Error::other(format!(
        "injected {}: {} ({detail})",
        kind.as_str(),
        path.display()
    ))
}

impl ChaosVfs {
    /// A chaos layer over the real filesystem.
    #[must_use]
    pub fn new(plan: IoFaultPlan) -> ChaosVfs {
        ChaosVfs {
            inner: crate::RealVfs,
            plan,
            state: Arc::new(Mutex::new(ChaosState::default())),
        }
    }

    /// The plan this layer rolls against.
    #[must_use]
    pub fn plan(&self) -> IoFaultPlan {
        self.plan
    }

    /// Arms a one-shot fault that fires on the next applicable op
    /// regardless of the seeded rates: torn-write/ENOSPC fire on the
    /// next `write_all` after exactly `offset` bytes, fsync-fail on the
    /// next fsync, rename-fail on the next rename. Tests use this to
    /// probe *every* byte offset of a write path.
    pub fn force_write_fault(&self, kind: IoFaultKind, offset: u64) {
        lock(&self.state).forced = Some(ForcedFault { kind, offset });
    }

    /// The injected-fault ledger, sorted by `(path, op, attempt)` so it
    /// is identical across thread counts for the same per-path
    /// operation sequences.
    #[must_use]
    pub fn ledger(&self) -> Vec<InjectedIoFault> {
        let mut v = lock(&self.state).ledger.clone();
        v.sort();
        v
    }

    /// Total number of injected faults so far.
    #[must_use]
    pub fn fault_count(&self) -> u64 {
        lock(&self.state).ledger.len() as u64
    }

    /// Rolls for the next attempt of `(path, op)`, records any fault in
    /// the ledger, applies latency inline, and returns a fault the
    /// caller must act on (never [`IoFaultKind::Latency`]).
    fn roll_op(&self, path: &Path, op: IoOp) -> Option<(IoFaultKind, u32)> {
        let (fault, attempt) = {
            let mut st = lock(&self.state);
            let attempt = {
                let n = st.attempts.entry((path.to_path_buf(), op)).or_insert(0);
                let a = *n;
                *n += 1;
                a
            };
            if let Some(forced) = st.forced.take() {
                if forced_applies(forced.kind, op) {
                    // Forced faults are test plumbing, not part of the
                    // seeded ledger.
                    return Some((forced.kind, forced_offset_as_attempt(forced)));
                }
                st.forced = Some(forced);
            }
            let fault = self.plan.roll(path, op, attempt);
            if let Some(kind) = fault {
                st.ledger.push(InjectedIoFault {
                    path: path.to_path_buf(),
                    op,
                    attempt,
                    kind,
                });
            }
            (fault, attempt)
        };
        match fault {
            Some(IoFaultKind::Latency) => {
                std::thread::sleep(self.plan.latency);
                None
            }
            Some(kind) => Some((kind, attempt)),
            None => None,
        }
    }

    /// The hash-derived prefix length for a seeded torn/ENOSPC write.
    fn torn_offset(&self, path: &Path, attempt: u32, len: usize) -> usize {
        usize::try_from(self.plan.derive(path, IoOp::Write, attempt, len as u64 + 1)).unwrap_or(len)
    }
}

/// Forced faults smuggle their byte offset through the attempt slot of
/// [`ChaosVfs::roll_op`]'s return value; [`FORCED_ATTEMPT_BIT`] marks
/// them apart from seeded attempts.
const FORCED_ATTEMPT_BIT: u32 = 1 << 31;

fn forced_offset_as_attempt(forced: ForcedFault) -> u32 {
    u32::try_from(forced.offset)
        .unwrap_or(FORCED_ATTEMPT_BIT - 1)
        .min(FORCED_ATTEMPT_BIT - 1)
        | FORCED_ATTEMPT_BIT
}

fn forced_applies(kind: IoFaultKind, op: IoOp) -> bool {
    match kind {
        IoFaultKind::TornWrite | IoFaultKind::Enospc => op == IoOp::Write,
        IoFaultKind::FsyncFail => op == IoOp::Fsync,
        IoFaultKind::RenameFail => op == IoOp::Rename,
        IoFaultKind::ReadCorrupt => op == IoOp::Read,
        IoFaultKind::Latency => false,
    }
}

struct ChaosFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    vfs: ChaosVfs,
}

impl VfsFile for ChaosFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match self.vfs.roll_op(&self.path, IoOp::Write) {
            Some((kind @ (IoFaultKind::TornWrite | IoFaultKind::Enospc), attempt)) => {
                let prefix = if attempt & FORCED_ATTEMPT_BIT != 0 {
                    (attempt & !FORCED_ATTEMPT_BIT) as usize
                } else {
                    self.vfs.torn_offset(&self.path, attempt, buf.len())
                }
                .min(buf.len());
                self.inner.write_all(&buf[..prefix])?;
                Err(injected_err(
                    kind,
                    &self.path,
                    &format!("{prefix} of {} bytes written", buf.len()),
                ))
            }
            _ => self.inner.write_all(buf),
        }
    }

    fn sync_all(&mut self) -> std::io::Result<()> {
        match self.vfs.roll_op(&self.path, IoOp::Fsync) {
            Some((IoFaultKind::FsyncFail, _)) => Err(injected_err(
                IoFaultKind::FsyncFail,
                &self.path,
                "fsync refused",
            )),
            _ => self.inner.sync_all(),
        }
    }
}

impl Vfs for ChaosVfs {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        self.roll_op(path, IoOp::Create);
        let inner = self.inner.create(path)?;
        Ok(Box::new(ChaosFile {
            inner,
            path: path.to_path_buf(),
            vfs: self.clone(),
        }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        if let Some((IoFaultKind::ReadCorrupt, attempt)) = self.roll_op(path, IoOp::Read) {
            if !bytes.is_empty() {
                let idx = usize::try_from(self.plan.derive(
                    path,
                    IoOp::Read,
                    attempt,
                    bytes.len() as u64,
                ))
                .unwrap_or(0);
                bytes[idx] ^= 0x5A;
            }
        }
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        match self.roll_op(from, IoOp::Rename) {
            Some((IoFaultKind::RenameFail, _)) => Err(injected_err(
                IoFaultKind::RenameFail,
                from,
                &format!("→ {}", to.display()),
            )),
            _ => self.inner.rename(from, to),
        }
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        // Left clean deliberately: directory fsyncs are best-effort at
        // every call site (a fault would change nothing), and parent
        // directories are shared across files — rolling here would make
        // the per-path attempt counters interleaving-dependent, breaking
        // the thread-count-invariant ledger.
        self.inner.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.roll_op(dir, IoOp::MkDir);
        self.inner.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.roll_op(dir, IoOp::ListDir);
        self.inner.list_dir(dir)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.roll_op(path, IoOp::Remove);
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used)]

    use super::*;
    use crate::{tmp_path, RealVfs};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbm-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// A fixed per-path op sequence used by the determinism tests. The
    /// starting filesystem state is reset so the sequence of ops that
    /// actually execute (failures skip later steps of `write_atomic`)
    /// depends only on the rolls, never on a previous drive's leftovers.
    fn drive(vfs: &ChaosVfs, path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(tmp_path(path));
        for _ in 0..20 {
            let _ = vfs.write_atomic(path, b"0123456789abcdef");
            let _ = vfs.read(path);
        }
    }

    #[test]
    fn rolls_are_deterministic_and_replayable() {
        let dir = tmp_dir("det");
        let a = ChaosVfs::new(IoFaultPlan::uniform(7, 0.3));
        let b = ChaosVfs::new(IoFaultPlan::uniform(7, 0.3));
        let path = dir.join("x.bin");
        drive(&a, &path);
        drive(&b, &path);
        let ledger = a.ledger();
        assert!(!ledger.is_empty(), "0.3 over 40+ ops must inject");
        assert_eq!(ledger, b.ledger(), "same seed, same ops → same ledger");
        // Replay: every ledger entry re-rolls to the same kind.
        for f in &ledger {
            assert_eq!(a.plan().roll(&f.path, f.op, f.attempt), Some(f.kind));
        }
        // A different seed diverges.
        let c = ChaosVfs::new(IoFaultPlan::uniform(8, 0.3));
        drive(&c, &path);
        assert_ne!(ledger, c.ledger());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_is_thread_count_invariant() {
        let dir = tmp_dir("threads");
        let serial = ChaosVfs::new(IoFaultPlan::uniform(11, 0.25));
        let paths: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("t{i}.bin"))).collect();
        for p in &paths {
            drive(&serial, p);
        }

        let threaded = ChaosVfs::new(IoFaultPlan::uniform(11, 0.25));
        std::thread::scope(|scope| {
            for p in &paths {
                let vfs = threaded.clone();
                scope.spawn(move || drive(&vfs, p));
            }
        });
        assert_eq!(
            serial.ledger(),
            threaded.ledger(),
            "the sorted ledger must not depend on thread interleaving"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_leaves_exact_prefix() {
        let dir = tmp_dir("torn");
        let vfs = ChaosVfs::new(IoFaultPlan::uniform(1, 0.0));
        let path = dir.join("t.bin");
        for offset in 0..=8u64 {
            vfs.force_write_fault(IoFaultKind::TornWrite, offset);
            let mut f = vfs.create(&path).expect("create");
            let err = f.write_all(b"ABCDEFGH").expect_err("torn");
            assert!(err.to_string().contains("torn-write"), "{err}");
            drop(f);
            let bytes = RealVfs.read(&path).expect("read prefix");
            assert_eq!(bytes.len() as u64, offset, "prefix length at {offset}");
            assert_eq!(&bytes[..], &b"ABCDEFGH"[..offset as usize]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forced_fsync_and_rename_failures_fire_once() {
        let dir = tmp_dir("forced");
        let vfs = ChaosVfs::new(IoFaultPlan::uniform(1, 0.0));
        let path = dir.join("f.bin");

        vfs.force_write_fault(IoFaultKind::FsyncFail, 0);
        let mut f = vfs.create(&path).expect("create");
        f.write_all(b"data").expect("write is clean");
        assert!(f.sync_all().is_err(), "forced fsync failure");
        assert!(f.sync_all().is_ok(), "one-shot: second fsync is clean");
        drop(f);

        vfs.force_write_fault(IoFaultKind::RenameFail, 0);
        let to = dir.join("g.bin");
        assert!(vfs.rename(&path, &to).is_err(), "forced rename failure");
        assert!(!vfs.exists(&to), "destination untouched");
        assert!(vfs.rename(&path, &to).is_ok(), "one-shot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_corruption_flips_exactly_one_byte() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("c.bin");
        RealVfs
            .write_atomic(&path, b"payload-payload")
            .expect("seed");
        // Rate 0 plus a plan whose read band is certain: craft directly.
        let mut plan = IoFaultPlan::uniform(3, 0.0);
        plan.read_corrupt_rate = 1.0;
        let vfs = ChaosVfs::new(plan);
        let corrupted = vfs.read(&path).expect("read");
        let clean = RealVfs.read(&path).expect("read");
        let diffs: Vec<usize> = (0..clean.len())
            .filter(|&i| clean[i] != corrupted[i])
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one byte flipped");
        assert_eq!(vfs.fault_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_failure_preserves_previous_contents() {
        let dir = tmp_dir("atomic");
        let vfs = ChaosVfs::new(IoFaultPlan::uniform(5, 0.0));
        let path = dir.join("snap.bin");
        vfs.write_atomic(&path, b"generation-1")
            .expect("clean write");
        for kind in [
            IoFaultKind::TornWrite,
            IoFaultKind::Enospc,
            IoFaultKind::FsyncFail,
            IoFaultKind::RenameFail,
        ] {
            vfs.force_write_fault(kind, 3);
            assert!(
                vfs.write_atomic(&path, b"generation-2").is_err(),
                "{kind:?}"
            );
            assert_eq!(
                RealVfs.read(&path).expect("read"),
                b"generation-1",
                "{kind:?} must not touch the committed file"
            );
            let _ = RealVfs.remove_file(&tmp_path(&path));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
