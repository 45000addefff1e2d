//! The startup store scrubber.
//!
//! [`scrub_store`] walks every job directory under the store root,
//! re-validates each durable artifact — record CRCs and magics,
//! snapshot CRCs and fingerprints — and moves
//! anything that fails into `<root>/quarantine/` with a typed reason
//! encoded in the file name. Nothing is ever deleted: quarantine
//! preserves the corrupt bytes for post-mortem while making the damage
//! invisible to [`Store::scan`], so the server's recovery logic sees a
//! consistent store.
//!
//! Quarantine policy per artifact (the table the tests pin):
//!
//! | artifact         | on corruption                                    |
//! |------------------|--------------------------------------------------|
//! | `job.meta`       | quarantine it — the job is forgotten; the client's idempotent resubmission re-admits it |
//! | `input.snap`     | quarantine it *and* `job.meta` — the job cannot run without its input |
//! | `result.bin`     | quarantine it — the job re-runs and rewrites a byte-identical result |
//! | `report.partial` | quarantine it — resume proceeds, counters restart from the checkpoint |
//! | `cancelled`      | quarantine it — the cancellation is lost, the job re-runs |
//! | any `ckpt/*` file | quarantine it unless it is a valid snapshot — resume falls back to a fresh run |
//! | any `*.tmp`      | quarantine it — an interrupted atomic write, never referenced |
//!
//! Every validating read goes through the store's retry wrapper, so an
//! *injected* read fault (which re-rolls per attempt) never quarantines
//! a healthy file — only persistent corruption does.

use std::path::{Path, PathBuf};

use sbm_journal::read_aig_snapshot_with;

use crate::store::{
    decode_meta, decode_result, key_hash, read_record, Store, StoreError, META_MAGIC,
    PARTIAL_MAGIC, RESULT_MAGIC,
};

/// Name of the quarantine directory under the store root.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Why a file was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScrubReason {
    /// `job.meta` failed CRC/decode, or its directory name does not
    /// match its key's hash.
    BadMeta,
    /// `input.snap` failed CRC/decode/fingerprint validation.
    BadInput,
    /// `result.bin` failed CRC/decode validation.
    BadResult,
    /// `report.partial` failed CRC/decode validation.
    BadPartial,
    /// The `cancelled` marker record failed validation.
    BadCancelled,
    /// A checkpoint snapshot failed CRC/decode validation.
    BadCheckpoint,
    /// A leftover `.tmp` from an interrupted atomic write.
    OrphanTmp,
}

impl ScrubReason {
    /// Stable kebab-case name, used as the quarantine file suffix.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ScrubReason::BadMeta => "bad-meta",
            ScrubReason::BadInput => "bad-input",
            ScrubReason::BadResult => "bad-result",
            ScrubReason::BadPartial => "bad-partial",
            ScrubReason::BadCancelled => "bad-cancelled",
            ScrubReason::BadCheckpoint => "bad-checkpoint",
            ScrubReason::OrphanTmp => "orphan-tmp",
        }
    }
}

/// One quarantined file.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// The file's original path.
    pub file: PathBuf,
    /// Where it was moved to.
    pub quarantined_as: PathBuf,
    /// Why.
    pub reason: ScrubReason,
}

/// The outcome of one scrub pass.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Files examined (validated or matched as orphan tmp).
    pub scanned: u64,
    /// Files moved to quarantine, with reasons.
    pub quarantined: Vec<QuarantineEntry>,
}

impl ScrubReport {
    /// Number of files quarantined.
    #[must_use]
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.len() as u64
    }
}

/// Walks the store and quarantines every corrupt or orphaned file.
/// See the module docs for the per-artifact policy.
///
/// # Errors
///
/// [`StoreError`] when the root cannot be listed or a quarantine move
/// persistently fails.
pub fn scrub_store(store: &Store) -> Result<ScrubReport, StoreError> {
    let mut report = ScrubReport::default();
    let quarantine = store.root().join(QUARANTINE_DIR);
    store.with_retries(|vfs| Ok(vfs.create_dir_all(&quarantine)?))?;

    let dirs: Vec<PathBuf> = store
        .with_retries(|vfs| Ok(vfs.list_dir(store.root())?))?
        .into_iter()
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != QUARANTINE_DIR))
        .collect();

    for dir in dirs {
        scrub_job_dir(store, &dir, &quarantine, &mut report)?;
    }
    Ok(report)
}

fn scrub_job_dir(
    store: &Store,
    dir: &Path,
    quarantine: &Path,
    report: &mut ScrubReport,
) -> Result<(), StoreError> {
    let files = store.with_retries(|vfs| Ok(vfs.list_dir(dir)?))?;
    let dir_name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();

    // Pass 1: orphaned tmp files anywhere in the job dir (and ckpt/).
    let mut regular: Vec<PathBuf> = Vec::new();
    let mut ckpt_files: Vec<PathBuf> = Vec::new();
    for path in files {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "ckpt") {
                ckpt_files = store.with_retries(|vfs| Ok(vfs.list_dir(&path)?))?;
            }
            continue;
        }
        regular.push(path);
    }
    for path in regular.clone().into_iter().chain(ckpt_files.clone()) {
        if path.extension().is_some_and(|x| x == "tmp") {
            report.scanned += 1;
            move_to_quarantine(store, &path, quarantine, ScrubReason::OrphanTmp, report)?;
        }
    }

    // Pass 2: the job's record files.
    let meta_path = dir.join("job.meta");
    let mut meta_ok = false;
    if store.vfs().exists(&meta_path) {
        report.scanned += 1;
        let meta =
            store.with_retries(|vfs| decode_meta(&read_record(vfs, &meta_path, META_MAGIC)?));
        match meta {
            Ok(meta) if format!("{:016x}", key_hash(&meta.key)) == dir_name => meta_ok = true,
            _ => {
                move_to_quarantine(store, &meta_path, quarantine, ScrubReason::BadMeta, report)?;
            }
        }
    }

    let input_path = dir.join("input.snap");
    if store.vfs().exists(&input_path) {
        report.scanned += 1;
        let input_ok = store
            .with_retries(|vfs| {
                let (_, meta) = read_aig_snapshot_with(vfs, &input_path)?;
                Ok(meta.fingerprint)
            })
            .map(|fp| format!("{fp:016x}") == dir_name)
            .unwrap_or(false);
        if !input_ok {
            move_to_quarantine(
                store,
                &input_path,
                quarantine,
                ScrubReason::BadInput,
                report,
            )?;
            if meta_ok {
                // A job without its input cannot run: forget it so the
                // client's idempotent resubmission re-admits it whole.
                move_to_quarantine(store, &meta_path, quarantine, ScrubReason::BadInput, report)?;
            }
        }
    }

    for (name, magic, reason) in [
        ("result.bin", RESULT_MAGIC, ScrubReason::BadResult),
        ("report.partial", PARTIAL_MAGIC, ScrubReason::BadPartial),
        ("cancelled", META_MAGIC, ScrubReason::BadCancelled),
    ] {
        let path = dir.join(name);
        if !store.vfs().exists(&path) {
            continue;
        }
        report.scanned += 1;
        let ok = match name {
            "result.bin" => store
                .with_retries(|vfs| decode_result(&read_record(vfs, &path, magic)?))
                .is_ok(),
            _ => store
                .with_retries(|vfs| read_record(vfs, &path, magic))
                .is_ok(),
        };
        if !ok {
            move_to_quarantine(store, &path, quarantine, reason, report)?;
        }
    }

    // Pass 3: checkpoint artifacts. Every file must be a structurally
    // valid snapshot (its fingerprint is the script's, not derivable
    // here); anything else — a damaged snapshot or a stray file the
    // script never writes — is quarantined.
    for path in ckpt_files {
        if path.is_dir() || path.extension().is_some_and(|x| x == "tmp") {
            continue;
        }
        report.scanned += 1;
        if store
            .with_retries(|vfs| Ok(read_aig_snapshot_with(vfs, &path)?))
            .is_err()
        {
            move_to_quarantine(store, &path, quarantine, ScrubReason::BadCheckpoint, report)?;
        }
    }
    Ok(())
}

/// Moves `path` into the quarantine directory as
/// `<jobdir>.<file>.<reason>`, preserving provenance in the name.
fn move_to_quarantine(
    store: &Store,
    path: &Path,
    quarantine: &Path,
    reason: ScrubReason,
    report: &mut ScrubReport,
) -> Result<(), StoreError> {
    let mut flat = String::new();
    for comp in path.strip_prefix(store.root()).unwrap_or(path).components() {
        if !flat.is_empty() {
            flat.push('.');
        }
        flat.push_str(&comp.as_os_str().to_string_lossy());
    }
    let target = quarantine.join(format!("{flat}.{}", reason.as_str()));
    store.with_retries(|vfs| Ok(vfs.rename(path, &target)?))?;
    report.quarantined.push(QuarantineEntry {
        file: path.to_path_buf(),
        quarantined_as: target,
        reason,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used)]

    use super::*;
    use crate::protocol::JobOptions;
    use crate::store::{JobMeta, JobResult, PersistedCounters, ScanState};
    use std::fs;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbm-scrub-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(key: &str) -> JobMeta {
        JobMeta {
            client: "tenant".to_string(),
            key: key.to_string(),
            options: JobOptions::default(),
            counters: PersistedCounters::default(),
        }
    }

    fn tiny_aig() -> sbm_aig::Aig {
        sbm_aig::aiger::parse("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").expect("parse")
    }

    fn seed_done_job(store: &Store, key: &str) {
        store.create_job(&meta(key), &tiny_aig()).expect("create");
        store
            .write_result(
                key,
                &JobResult {
                    report_json: "{}".to_string(),
                    aiger: "aag 0 0 0 0 0\n".to_string(),
                },
            )
            .expect("result");
    }

    #[test]
    fn clean_store_scrubs_to_zero_quarantined() {
        let root = tmp_root("clean");
        let store = Store::open(&root).expect("open");
        seed_done_job(&store, "a");
        seed_done_job(&store, "b");
        let report = scrub_store(&store).expect("scrub");
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        // job.meta + input.snap + result.bin per job.
        assert_eq!(report.scanned, 6);
        assert_eq!(store.scan().expect("scan").len(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_result_is_quarantined_job_reruns() {
        let root = tmp_root("result");
        let store = Store::open(&root).expect("open");
        seed_done_job(&store, "a");
        let result_path = store.job_dir("a").join("result.bin");
        let mut bytes = fs::read(&result_path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&result_path, &bytes).expect("corrupt");

        let report = scrub_store(&store).expect("scrub");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, ScrubReason::BadResult);
        assert_eq!(report.quarantined[0].file, result_path);
        assert!(!result_path.exists(), "moved, not copied");
        assert!(report.quarantined[0].quarantined_as.exists());

        // The job survives as in-flight: it re-runs, nothing is lost.
        let jobs = store.scan().expect("scan");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, ScanState::InFlight);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_input_forgets_the_job_for_resubmission() {
        let root = tmp_root("input");
        let store = Store::open(&root).expect("open");
        seed_done_job(&store, "a");
        seed_done_job(&store, "b");
        let input_path = store.job_dir("a").join("input.snap");
        let mut bytes = fs::read(&input_path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&input_path, &bytes).expect("corrupt");

        let report = scrub_store(&store).expect("scrub");
        let reasons: Vec<ScrubReason> = report.quarantined.iter().map(|q| q.reason).collect();
        assert_eq!(reasons, vec![ScrubReason::BadInput, ScrubReason::BadInput]);
        assert!(!store.exists("a"), "job.meta quarantined with its input");
        // Only the healthy job remains visible.
        let jobs = store.scan().expect("scan");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].meta.key, "b");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn orphan_tmp_and_foreign_meta_are_quarantined() {
        let root = tmp_root("tmp");
        let store = Store::open(&root).expect("open");
        seed_done_job(&store, "a");
        // An interrupted atomic write.
        let stray = store.job_dir("a").join("result.bin.tmp");
        fs::write(&stray, b"half a record").expect("stray");
        // A meta whose directory does not match its key hash: rename
        // the whole job dir of a second job.
        seed_done_job(&store, "b");
        let wrong = root.join("00000000deadbeef");
        fs::rename(store.job_dir("b"), &wrong).expect("misplace");

        let report = scrub_store(&store).expect("scrub");
        let mut reasons: Vec<ScrubReason> = report.quarantined.iter().map(|q| q.reason).collect();
        reasons.sort();
        // Misplaced dir: meta fails the hash check; its input fingerprint
        // also mismatches the new dir name, so both are quarantined.
        assert_eq!(
            reasons,
            vec![
                ScrubReason::BadMeta,
                ScrubReason::BadInput,
                ScrubReason::OrphanTmp
            ]
        );
        assert!(!stray.exists());
        let jobs = store.scan().expect("scan");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].meta.key, "a");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_checkpoint_snapshot_is_quarantined_alone() {
        let root = tmp_root("ckpt");
        let store = Store::open(&root).expect("open");
        seed_done_job(&store, "a");
        let ck = store.ckpt_dir("a").join("script.state");
        sbm_journal::write_aig_snapshot(&ck, &tiny_aig(), 42, 1).expect("ckpt");
        let mut bytes = fs::read(&ck).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&ck, &bytes).expect("corrupt");

        let report = scrub_store(&store).expect("scrub");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, ScrubReason::BadCheckpoint);
        // The job itself is untouched and still Done.
        let jobs = store.scan().expect("scan");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, ScanState::Done);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stray_wal_in_checkpoint_dir_is_quarantined_not_deleted() {
        let root = tmp_root("wal");
        let store = Store::open(&root).expect("open");
        seed_done_job(&store, "a");
        let ckpt = store.ckpt_dir("a");
        fs::create_dir_all(&ckpt).expect("ckpt dir");
        let wal = ckpt.join("windows.wal");
        let bytes = b"SBMJWAL\0 left behind by an older build".to_vec();
        fs::write(&wal, &bytes).expect("stray wal");

        let report = scrub_store(&store).expect("scrub");
        assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
        let q = &report.quarantined[0];
        assert_eq!(q.reason, ScrubReason::BadCheckpoint);
        assert_eq!(q.file, wal);
        assert!(!wal.exists(), "moved out of the checkpoint directory");
        assert_eq!(fs::read(&q.quarantined_as).expect("kept"), bytes);
        let jobs = store.scan().expect("scan");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, ScanState::Done);
        let _ = fs::remove_dir_all(&root);
    }
}
