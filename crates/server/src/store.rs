//! The durable job store: one directory per job under a common root,
//! written with the same tmp → fsync → rename → dir-fsync discipline as
//! `sbm-journal`, so a SIGKILL at any instant leaves every job either
//! fully recorded or invisible — never torn.
//!
//! Layout of `<root>/<fnv64(key) as 16 hex digits>/`:
//!
//! | file             | contents                                                |
//! |------------------|---------------------------------------------------------|
//! | `input.snap`     | the submitted network, as an `sbm-journal` AIG snapshot |
//! | `job.meta`       | client, key, wire options, persisted lifecycle counters |
//! | `ckpt/`          | the script's snapshot of the job's last park            |
//! | `report.partial` | the running report total, rewritten at each park        |
//! | `result.bin`     | report JSON + optimized AIGER, once the job finishes    |
//! | `cancelled`      | empty marker: the job was cancelled                     |
//!
//! `job.meta` is written **last** on admission: its presence is the
//! commit point that makes a job durable, and the server replies
//! `ACCEPTED` only after it lands. [`Store::classify`] reads one job's
//! state from its files alone — the server answers every finished job
//! this way, holding none in memory — and on restart [`Store::scan`]
//! walks the root and classifies every committed job.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sbm_aig::Aig;
use sbm_journal::{crc32, read_aig_snapshot_with, write_aig_snapshot_with, Fnv64, JournalError};
use sbm_vfs::{RealVfs, Vfs};

use crate::protocol::{get_options, put_options, put_str, put_u64, Cur, JobOptions};

/// How many times a store operation is attempted before its error is
/// surfaced. Fault rolls are keyed by `(seed, path, op, attempt)`, so
/// under an injected-fault `Vfs` a retry deterministically re-rolls:
/// with per-op fault rate `p` the chance of a hard failure is ~`p^8`,
/// which keeps 10% chaos rates survivable while genuine persistent
/// failures (missing files, real corruption) still error out fast.
const IO_ATTEMPTS: u32 = 8;

/// Magic prefix of `job.meta` records.
pub(crate) const META_MAGIC: &[u8; 4] = b"SBMJ";
/// Magic prefix of `result.bin` records.
pub(crate) const RESULT_MAGIC: &[u8; 4] = b"SBMR";
/// Magic prefix of `report.partial` records.
pub(crate) const PARTIAL_MAGIC: &[u8; 4] = b"SBMP";

/// Lifecycle counters that survive restarts, persisted inside
/// `job.meta` and projected into the final report's `server` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistedCounters {
    /// Worker slices this job has consumed.
    pub slices: u64,
    /// Times the job was preempted and parked.
    pub parks: u64,
    /// Times the job resumed from a parked checkpoint.
    pub resumes: u64,
    /// Times a server restart re-admitted the job from disk.
    pub recoveries: u64,
    /// Microseconds spent queued (admission → first slice, plus
    /// park → next slice).
    pub queue_us: u64,
}

/// The durable identity and configuration of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMeta {
    /// Submitting tenant (fair-scheduling identity).
    pub client: String,
    /// Idempotency key.
    pub key: String,
    /// Wire options the job runs under.
    pub options: JobOptions,
    /// Restart-surviving lifecycle counters.
    pub counters: PersistedCounters,
}

/// A finished job's durable payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Strict-decoding `RunReport` JSON.
    pub report_json: String,
    /// The optimized network, in ASCII AIGER.
    pub aiger: String,
}

/// Disk-derived classification of a committed job ([`Store::classify`],
/// [`Store::scan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanState {
    /// `result.bin` present and intact: the job is finished and RESULT
    /// streams it from disk.
    Done,
    /// `cancelled` marker present.
    Cancelled,
    /// Neither: the job was queued/running/parked when the server
    /// died — re-admit it.
    InFlight,
}

/// One job found by [`Store::scan`].
#[derive(Debug, Clone)]
pub struct ScannedJob {
    /// The job's durable metadata.
    pub meta: JobMeta,
    /// Its disk-derived state.
    pub state: ScanState,
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A record failed its magic/length/CRC validation.
    Corrupt(&'static str),
    /// Snapshot read/write failure.
    Journal(JournalError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store record: {what}"),
            StoreError::Journal(e) => write!(f, "store snapshot error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<JournalError> for StoreError {
    fn from(e: JournalError) -> Self {
        StoreError::Journal(e)
    }
}

/// Hashes a job key to its directory name.
#[must_use]
pub fn key_hash(key: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(key.as_bytes());
    h.finish()
}

/// Writes `payload` to `path` atomically: tmp file in the same
/// directory, fsync, rename over the target, fsync the directory.
fn write_record(
    vfs: &dyn Vfs,
    path: &Path,
    magic: &[u8; 4],
    payload: &[u8],
) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(payload.len() + 16);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(
        &u64::try_from(payload.len())
            .unwrap_or(u64::MAX)
            .to_le_bytes(),
    );
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    vfs.write_atomic(path, &bytes)?;
    Ok(())
}

/// Reads and validates a record written by [`write_record`].
pub(crate) fn read_record(
    vfs: &dyn Vfs,
    path: &Path,
    magic: &[u8; 4],
) -> Result<Vec<u8>, StoreError> {
    let bytes = vfs.read(path)?;
    if bytes.len() < 16 || &bytes[..4] != magic {
        return Err(StoreError::Corrupt("bad magic or short record"));
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[4..12]);
    let len = usize::try_from(u64::from_le_bytes(len8))
        .map_err(|_| StoreError::Corrupt("record length overflows"))?;
    let end = 12usize
        .checked_add(len)
        .ok_or(StoreError::Corrupt("record length overflows"))?;
    if bytes.len() != end + 4 {
        return Err(StoreError::Corrupt("record length mismatch"));
    }
    let payload = &bytes[12..end];
    let mut crc4 = [0u8; 4];
    crc4.copy_from_slice(&bytes[end..]);
    if crc32(payload) != u32::from_le_bytes(crc4) {
        return Err(StoreError::Corrupt("record CRC mismatch"));
    }
    Ok(payload.to_vec())
}

fn encode_meta(meta: &JobMeta) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, &meta.client);
    put_str(&mut buf, &meta.key);
    put_options(&mut buf, &meta.options);
    put_u64(&mut buf, meta.counters.slices);
    put_u64(&mut buf, meta.counters.parks);
    put_u64(&mut buf, meta.counters.resumes);
    put_u64(&mut buf, meta.counters.recoveries);
    put_u64(&mut buf, meta.counters.queue_us);
    buf
}

pub(crate) fn decode_meta(payload: &[u8]) -> Result<JobMeta, StoreError> {
    let corrupt = |_| StoreError::Corrupt("job.meta payload");
    let mut cur = Cur::new(payload);
    let meta = JobMeta {
        client: cur.str("client").map_err(corrupt)?,
        key: cur.str("key").map_err(corrupt)?,
        options: get_options(&mut cur).map_err(corrupt)?,
        counters: PersistedCounters {
            slices: cur.u64().map_err(corrupt)?,
            parks: cur.u64().map_err(corrupt)?,
            resumes: cur.u64().map_err(corrupt)?,
            recoveries: cur.u64().map_err(corrupt)?,
            queue_us: cur.u64().map_err(corrupt)?,
        },
    };
    cur.finish().map_err(corrupt)?;
    Ok(meta)
}

fn encode_result(result: &JobResult) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, &result.report_json);
    put_str(&mut buf, &result.aiger);
    buf
}

pub(crate) fn decode_result(payload: &[u8]) -> Result<JobResult, StoreError> {
    let corrupt = |_| StoreError::Corrupt("result.bin payload");
    let mut cur = Cur::new(payload);
    let result = JobResult {
        report_json: cur.str("report json").map_err(corrupt)?,
        aiger: cur.str("aiger").map_err(corrupt)?,
    };
    cur.finish().map_err(corrupt)?;
    Ok(result)
}

/// The on-disk job store rooted at one directory.
///
/// All I/O flows through the store's [`Vfs`]; every operation retries
/// up to 8 times (attempt-keyed, so injected faults re-roll) before surfacing an error. Retries consumed are counted
/// for the report's `server.retries` field.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    retries: Arc<AtomicU64>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`, on the real
    /// filesystem.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the root cannot be created.
    pub fn open(root: &Path) -> Result<Store, StoreError> {
        Store::open_with(root, Arc::new(RealVfs))
    }

    /// Opens a store whose I/O flows through an explicit [`Vfs`] —
    /// chaos runs inject faults here.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the root cannot be created.
    pub fn open_with(root: &Path, vfs: Arc<dyn Vfs>) -> Result<Store, StoreError> {
        vfs.create_dir_all(root)?;
        Ok(Store {
            root: root.to_path_buf(),
            vfs,
            retries: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The [`Vfs`] this store's I/O flows through.
    #[must_use]
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Total store-level I/O retries consumed so far (attempts beyond
    /// the first, across all operations on this store and its clones).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Runs `op` up to [`IO_ATTEMPTS`] times. Not-found errors surface
    /// immediately (they are answers, not faults); anything else —
    /// I/O failures, CRC mismatches from corrupted reads — re-rolls.
    pub(crate) fn with_retries<T>(
        &self,
        mut op: impl FnMut(&dyn Vfs) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut last = None;
        for attempt in 0..IO_ATTEMPTS {
            match op(self.vfs.as_ref()) {
                Ok(v) => return Ok(v),
                Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(StoreError::Io(e));
                }
                Err(e) => {
                    if attempt + 1 < IO_ATTEMPTS {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or(StoreError::Corrupt("retry loop exhausted")))
    }

    /// The directory holding `key`'s files.
    #[must_use]
    pub fn job_dir(&self, key: &str) -> PathBuf {
        self.root.join(format!("{:016x}", key_hash(key)))
    }

    /// The job's script-checkpoint directory.
    #[must_use]
    pub fn ckpt_dir(&self, key: &str) -> PathBuf {
        self.job_dir(key).join("ckpt")
    }

    /// Durably admits a job: input snapshot and checkpoint directory
    /// first, `job.meta` last as the commit point.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when any write fails; a partial directory without
    /// `job.meta` is invisible to [`Store::scan`] and harmless.
    pub fn create_job(&self, meta: &JobMeta, input: &Aig) -> Result<(), StoreError> {
        let dir = self.job_dir(&meta.key);
        self.with_retries(|vfs| Ok(vfs.create_dir_all(&dir.join("ckpt"))?))?;
        self.with_retries(|vfs| {
            write_aig_snapshot_with(vfs, &dir.join("input.snap"), input, key_hash(&meta.key), 0)?;
            Ok(())
        })?;
        self.write_meta(meta)
    }

    /// Rewrites `job.meta` (counter updates on park/recovery).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on write failure.
    pub fn write_meta(&self, meta: &JobMeta) -> Result<(), StoreError> {
        let path = self.job_dir(&meta.key).join("job.meta");
        let payload = encode_meta(meta);
        self.with_retries(|vfs| write_record(vfs, &path, META_MAGIC, &payload))
    }

    /// Reads a job's durable metadata.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when absent or corrupt.
    pub fn read_meta(&self, key: &str) -> Result<JobMeta, StoreError> {
        let path = self.job_dir(key).join("job.meta");
        self.with_retries(|vfs| decode_meta(&read_record(vfs, &path, META_MAGIC)?))
    }

    /// Reads the submitted network back.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the snapshot is absent or corrupt.
    pub fn read_input(&self, key: &str) -> Result<Aig, StoreError> {
        let path = self.job_dir(key).join("input.snap");
        self.with_retries(|vfs| {
            let (aig, _) = read_aig_snapshot_with(vfs, &path)?;
            Ok(aig)
        })
    }

    /// Durably records a finished job's result.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on write failure.
    pub fn write_result(&self, key: &str, result: &JobResult) -> Result<(), StoreError> {
        let path = self.job_dir(key).join("result.bin");
        let payload = encode_result(result);
        self.with_retries(|vfs| write_record(vfs, &path, RESULT_MAGIC, &payload))
    }

    /// Reads a finished job's result; `Ok(None)` when not finished.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a result file exists but fails
    /// validation, [`StoreError::Io`] on other filesystem failures.
    pub fn read_result(&self, key: &str) -> Result<Option<JobResult>, StoreError> {
        let path = self.job_dir(key).join("result.bin");
        match self.with_retries(|vfs| decode_result(&read_record(vfs, &path, RESULT_MAGIC)?)) {
            Ok(result) => Ok(Some(result)),
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Durably records the running total of a parked job's slice
    /// reports (a `RunReport` JSON string).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on write failure.
    pub fn write_partial_report(&self, key: &str, json: &str) -> Result<(), StoreError> {
        let path = self.job_dir(key).join("report.partial");
        self.with_retries(|vfs| write_record(vfs, &path, PARTIAL_MAGIC, json.as_bytes()))
    }

    /// Reads the parked running-total report; `Ok(None)` when the job
    /// has never parked.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when present but damaged,
    /// [`StoreError::Io`] on other filesystem failures.
    pub fn read_partial_report(&self, key: &str) -> Result<Option<String>, StoreError> {
        let path = self.job_dir(key).join("report.partial");
        let read = self.with_retries(|vfs| {
            let payload = read_record(vfs, &path, PARTIAL_MAGIC)?;
            String::from_utf8(payload)
                .map_err(|_| StoreError::Corrupt("report.partial is not UTF-8"))
        });
        match read {
            Ok(json) => Ok(Some(json)),
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Durably marks a job cancelled.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on write failure.
    pub fn mark_cancelled(&self, key: &str) -> Result<(), StoreError> {
        let path = self.job_dir(key).join("cancelled");
        self.with_retries(|vfs| write_record(vfs, &path, META_MAGIC, &[]))
    }

    /// Classifies the job stored under `key` from its files alone:
    /// [`ScanState::Done`] when `result.bin` is intact,
    /// [`ScanState::Cancelled`] when the cancel marker is present,
    /// [`ScanState::InFlight`] otherwise. `None` when no valid
    /// `job.meta` for `key` is there: never admitted, a torn admission,
    /// or a directory whose meta carries another key (directory names
    /// are 64-bit hashes, which can collide).
    #[must_use]
    pub fn classify(&self, key: &str) -> Option<ScanState> {
        self.classify_dir(&self.job_dir(key))
            .filter(|job| job.meta.key == key)
            .map(|job| job.state)
    }

    /// Classifies one job directory (see [`Store::classify`]); `None`
    /// when its `job.meta` is missing or torn.
    fn classify_dir(&self, dir: &Path) -> Option<ScannedJob> {
        let meta = self
            .with_retries(|vfs| decode_meta(&read_record(vfs, &dir.join("job.meta"), META_MAGIC)?))
            .ok()?;
        let state = if self
            .with_retries(|vfs| {
                decode_result(&read_record(vfs, &dir.join("result.bin"), RESULT_MAGIC)?)
            })
            .is_ok()
        {
            ScanState::Done
        } else if self.vfs.exists(&dir.join("cancelled")) {
            ScanState::Cancelled
        } else {
            ScanState::InFlight
        };
        Some(ScannedJob { meta, state })
    }

    /// Walks the root and classifies every durably admitted job the way
    /// [`Store::classify`] does, in deterministic (directory-name)
    /// order. Directories without a valid `job.meta` — torn admissions,
    /// never `ACCEPTED` — are skipped.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the root itself cannot be read.
    pub fn scan(&self) -> Result<Vec<ScannedJob>, StoreError> {
        let dirs: Vec<PathBuf> = self
            .with_retries(|vfs| Ok(vfs.list_dir(&self.root)?))?
            .into_iter()
            .filter(|p| p.is_dir())
            .collect();
        Ok(dirs
            .iter()
            .filter_map(|dir| self.classify_dir(dir))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used)]

    use super::*;
    use std::fs;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbm-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_meta(key: &str) -> JobMeta {
        JobMeta {
            client: "tenant".to_string(),
            key: key.to_string(),
            options: JobOptions::default(),
            counters: PersistedCounters {
                slices: 4,
                parks: 2,
                resumes: 2,
                recoveries: 1,
                queue_us: 1234,
            },
        }
    }

    fn tiny_aig() -> Aig {
        sbm_aig::aiger::parse("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").expect("parse")
    }

    #[test]
    fn job_lifecycle_round_trips() {
        let root = tmp_root("lifecycle");
        let store = Store::open(&root).expect("open");
        let meta = sample_meta("job-a");
        store.create_job(&meta, &tiny_aig()).expect("create");
        assert_eq!(store.classify("job-a"), Some(ScanState::InFlight));
        assert_eq!(store.classify("job-b"), None);
        assert_eq!(store.read_meta("job-a").expect("meta"), meta);
        let input = store.read_input("job-a").expect("input");
        assert_eq!(input.num_inputs(), 2);

        assert_eq!(store.read_result("job-a").expect("none"), None);
        let result = JobResult {
            report_json: "{\"x\":1}".to_string(),
            aiger: "aag 0 0 0 0 0\n".to_string(),
        };
        store.write_result("job-a", &result).expect("result");
        assert_eq!(store.read_result("job-a").expect("some"), Some(result));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_classifies_jobs_and_skips_torn_admissions() {
        let root = tmp_root("scan");
        let store = Store::open(&root).expect("open");
        let aig = tiny_aig();

        store
            .create_job(&sample_meta("done"), &aig)
            .expect("create");
        store
            .write_result(
                "done",
                &JobResult {
                    report_json: "{}".to_string(),
                    aiger: "aag 0 0 0 0 0\n".to_string(),
                },
            )
            .expect("result");

        store
            .create_job(&sample_meta("cancelled"), &aig)
            .expect("create");
        store.mark_cancelled("cancelled").expect("cancel");

        store
            .create_job(&sample_meta("inflight"), &aig)
            .expect("create");

        // A torn admission: directory + snapshot but no job.meta.
        let torn = store.job_dir("torn");
        fs::create_dir_all(torn.join("ckpt")).expect("mkdir");

        let jobs = store.scan().expect("scan");
        assert_eq!(jobs.len(), 3);
        let state_of = |key: &str| {
            jobs.iter()
                .find(|j| j.meta.key == key)
                .map(|j| j.state)
                .expect("scanned")
        };
        assert_eq!(state_of("done"), ScanState::Done);
        assert_eq!(state_of("cancelled"), ScanState::Cancelled);
        assert_eq!(state_of("inflight"), ScanState::InFlight);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn classify_reads_one_job_and_refuses_a_foreign_meta() {
        let root = tmp_root("classify");
        let store = Store::open(&root).expect("open");
        let aig = tiny_aig();
        assert_eq!(store.classify("absent"), None);

        store.create_job(&sample_meta("job"), &aig).expect("create");
        assert_eq!(store.classify("job"), Some(ScanState::InFlight));
        store.mark_cancelled("job").expect("cancel");
        assert_eq!(store.classify("job"), Some(ScanState::Cancelled));
        let result = JobResult {
            report_json: "{}".to_string(),
            aiger: "aag 0 0 0 0 0\n".to_string(),
        };
        store.write_result("job", &result).expect("result");
        assert_eq!(store.classify("job"), Some(ScanState::Done));

        // A directory whose job.meta carries another key, as a hash
        // collision would leave it: the job is not `other`'s.
        let other = store.job_dir("other");
        fs::create_dir_all(&other).expect("mkdir");
        fs::copy(
            store.job_dir("job").join("job.meta"),
            other.join("job.meta"),
        )
        .expect("copy");
        fs::copy(
            store.job_dir("job").join("result.bin"),
            other.join("result.bin"),
        )
        .expect("copy");
        assert_eq!(store.classify("other"), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_records_are_reported_not_trusted() {
        let root = tmp_root("corrupt");
        let store = Store::open(&root).expect("open");
        store
            .create_job(&sample_meta("job"), &tiny_aig())
            .expect("create");

        // Flip one payload byte of job.meta: CRC must catch it.
        let meta_path = store.job_dir("job").join("job.meta");
        let mut bytes = fs::read(&meta_path).expect("read");
        bytes[13] ^= 0xFF;
        fs::write(&meta_path, &bytes).expect("write");
        assert!(matches!(
            store.read_meta("job"),
            Err(StoreError::Corrupt(_))
        ));
        // And scan treats the job as torn rather than recovering garbage.
        assert!(store.scan().expect("scan").is_empty());
        let _ = fs::remove_dir_all(&root);
    }
}
