//! # sbm-journal — crash-safe snapshots for script runs
//!
//! The SBM flow runs for hours inside ASIC flows; a process crash, OOM
//! kill or operator Ctrl-C must not lose every completed script step.
//! The script is a fixed sequence of network-to-network steps, so the one
//! durable unit is "the cleaned network after step N". This crate
//! provides it:
//!
//! * a **versioned, CRC32-checked binary snapshot** format for [`Aig`]
//!   networks with atomic write-temp-then-rename semantics
//!   ([`snapshot`]); `sbm-core`'s script writes one to
//!   [`SCRIPT_STATE_FILE`] after each step and resumes from it,
//! * the **resume bookkeeping** type [`ResumeSummary`] surfaced on
//!   `sbm-core`'s `PipelineReport`.
//!
//! The snapshot codec is *id-exact*: a cleaned AIG has a deterministic
//! layout (constant node 0, inputs `1..=I`, ANDs appended in creation
//! order), so decoding replays the same `add_input()`/`and()` calls and
//! asserts that every node receives the id it had when encoded. A
//! payload that does not round-trip exactly is rejected with
//! [`JournalError::NotCanonical`] — the codec doubles as a structural
//! validator, on top of the `sbm-check` validation the snapshot readers
//! run. Because ids survive the round trip, a resumed script continues
//! from exactly the network the interrupted run had.
//!
//! Nothing here panics on malformed input: truncated files, flipped
//! bytes and crafted payloads all surface as typed [`JournalError`]s,
//! and decoders never allocate based on unvalidated claimed sizes.
//!
//! [`Aig`]: sbm_aig::Aig

pub mod codec;
pub mod snapshot;

use std::fmt;
use std::path::PathBuf;

use sbm_check::CheckError;

pub use codec::{aig_fingerprint, decode_aig, encode_aig, Fnv64};
pub use snapshot::{
    read_aig_snapshot, read_aig_snapshot_with, write_aig_snapshot, write_aig_snapshot_with,
    SnapshotMeta,
};

/// Creates `dir` (and missing parents) through the [`sbm_vfs`]
/// boundary — the journal-flavoured replacement for raw
/// `std::fs::create_dir_all` at checkpoint call sites.
///
/// # Errors
///
/// [`JournalError::Io`] with op `"create_dir"` on failure.
pub fn ensure_dir(dir: &std::path::Path) -> Result<(), JournalError> {
    use sbm_vfs::Vfs;
    sbm_vfs::RealVfs
        .create_dir_all(dir)
        .map_err(|e| JournalError::Io {
            op: "create_dir",
            path: dir.to_path_buf(),
            detail: e.to_string(),
        })
}

/// On-disk format version stamped into every snapshot header. Readers reject other versions with
/// [`JournalError::VersionMismatch`].
pub const FORMAT_VERSION: u16 = 1;

/// Default file name for the script-level state snapshot inside a
/// checkpoint directory.
pub const SCRIPT_STATE_FILE: &str = "script.state";

/// Typed failure of any journal/snapshot operation.
///
/// Corruption is always reported, never panicked on: a flipped byte in
/// a snapshot body or CRC field surfaces as [`Self::BadCrc`], a flipped
/// version field as [`Self::VersionMismatch`], a truncated tail as
/// [`Self::TornTail`], and a snapshot produced by a different script
/// configuration as [`Self::ConfigMismatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// An I/O operation failed; `op` names the operation, `path` the
    /// file involved.
    Io {
        /// The failed operation, e.g. `"open"`, `"rename"`, `"fsync"`.
        op: &'static str,
        /// The path the operation targeted.
        path: PathBuf,
        /// The OS error text.
        detail: String,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file claims a format version this build cannot read.
    VersionMismatch {
        /// Version found in the file.
        found: u16,
        /// Version this build writes ([`FORMAT_VERSION`]).
        expected: u16,
    },
    /// A CRC32 check failed; `context` names the protected region.
    BadCrc {
        /// What failed the check, e.g. `"snapshot"`.
        context: &'static str,
    },
    /// The file ends mid-header or mid-payload.
    TornTail,
    /// The snapshot was written under a different script configuration
    /// fingerprint and cannot be resumed by this one.
    ConfigMismatch {
        /// Fingerprint the resuming configuration computed.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// A CRC-valid payload is structurally malformed (internal
    /// inconsistency, out-of-range reference, or oversized claim).
    BadPayload {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// An encoded network did not round-trip id-exactly — the payload
    /// does not describe a canonical (cleaned) network.
    NotCanonical {
        /// The node index at which replay diverged.
        node: u64,
    },
    /// The decoded network failed `sbm-check` structural or simulation
    /// validation.
    SnapshotInvalid(CheckError),
    /// A resume entry point was called without checkpointing configured.
    NotConfigured,
}

impl JournalError {
    pub(crate) fn io(op: &'static str, path: &std::path::Path, err: &std::io::Error) -> Self {
        JournalError::Io {
            op,
            path: path.to_path_buf(),
            detail: err.to_string(),
        }
    }

    pub(crate) fn payload(detail: impl Into<String>) -> Self {
        JournalError::BadPayload {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, path, detail } => {
                write!(f, "journal I/O failure: {op} {}: {detail}", path.display())
            }
            JournalError::BadMagic => write!(f, "not an SBM journal/snapshot file (bad magic)"),
            JournalError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "format version {found} unsupported (expected {expected})"
                )
            }
            JournalError::BadCrc { context } => write!(f, "CRC mismatch in {context}"),
            JournalError::TornTail => write!(f, "file ends early (torn tail)"),
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint written under configuration {found:#018x}, \
                 cannot resume under {expected:#018x}"
            ),
            JournalError::BadPayload { detail } => write!(f, "malformed payload: {detail}"),
            JournalError::NotCanonical { node } => {
                write!(
                    f,
                    "payload is not a canonical network (diverged at node {node})"
                )
            }
            JournalError::SnapshotInvalid(e) => write!(f, "snapshot failed validation: {e}"),
            JournalError::NotConfigured => {
                write!(
                    f,
                    "resume requested but no checkpoint directory is configured"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Bookkeeping of a resumed script run, surfaced on `PipelineReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Script steps skipped because the loaded state snapshot already
    /// covered them.
    pub steps_skipped: usize,
}

impl ResumeSummary {
    /// Accumulates another summary into this one (used when reports
    /// from several runs are merged).
    pub fn merge(&mut self, other: &ResumeSummary) {
        self.steps_skipped += other.steps_skipped;
    }
}

impl fmt::Display for ResumeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resume: {} steps skipped", self.steps_skipped)
    }
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
/// This is the checksum every snapshot carries.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"script state snapshot payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn resume_summary_merges_and_displays() {
        let mut a = ResumeSummary { steps_skipped: 3 };
        a.merge(&ResumeSummary { steps_skipped: 5 });
        assert_eq!(a.steps_skipped, 8);
        assert_eq!(a.to_string(), "resume: 8 steps skipped");
    }

    #[test]
    fn errors_display_their_diagnostics() {
        let e = JournalError::ConfigMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("cannot resume"));
        assert!(JournalError::TornTail.to_string().contains("torn"));
        assert!(JournalError::BadCrc {
            context: "snapshot"
        }
        .to_string()
        .contains("snapshot"));
    }
}
