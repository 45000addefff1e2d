//! Versioned, CRC32-checked snapshot files with atomic
//! write-temp-then-rename semantics.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"SBMJSNAP"
//!      8     2  format version
//!     10     1  kind (always 1 = AIG)
//!     11     1  reserved (0)
//!     12     8  configuration fingerprint
//!     20     8  sequence number (resume point for script states)
//!     28     8  payload length
//!     36     n  payload (see `codec`)
//!   36+n     4  CRC32 over bytes [0, 36+n)
//! ```
//!
//! Field-level checks (magic, version, kind, length) run before the
//! checksum so that a flipped version byte reports
//! [`JournalError::VersionMismatch`] rather than a bare CRC failure;
//! any other corruption of header or body is caught by the CRC.
//!
//! Durability: the snapshot is written to `<path>.tmp`, fsync'd,
//! renamed over `<path>`, and the parent directory is fsync'd, so a
//! crash at any point leaves either the old snapshot or the new one —
//! never a torn file at the final path.

use std::path::Path;

use sbm_aig::Aig;
use sbm_check::check_aig;
use sbm_vfs::{RealVfs, Vfs};

use crate::codec::{decode_aig, encode_aig, push_u64, Reader};
use crate::{crc32, JournalError, FORMAT_VERSION};

const SNAP_MAGIC: [u8; 8] = *b"SBMJSNAP";
const HEADER_LEN: usize = 36;
/// The header's kind byte. Only AIG payloads are written; the byte stays
/// so that files written by earlier versions keep their layout.
const KIND_AIG: u8 = 1;

/// Header metadata of a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Configuration fingerprint the writer ran under.
    pub fingerprint: u64,
    /// Writer-defined sequence number (e.g. script steps completed).
    pub seq: u64,
}

/// Atomically writes an AIG snapshot. The network must be canonical
/// (cleaned); pass the output of [`Aig::cleanup`].
pub fn write_aig_snapshot(
    path: &Path,
    aig: &Aig,
    fingerprint: u64,
    seq: u64,
) -> Result<(), JournalError> {
    write_aig_snapshot_with(&RealVfs, path, aig, fingerprint, seq)
}

/// [`write_aig_snapshot`] through an explicit [`Vfs`] (chaos tests, the
/// server store).
pub fn write_aig_snapshot_with(
    vfs: &dyn Vfs,
    path: &Path,
    aig: &Aig,
    fingerprint: u64,
    seq: u64,
) -> Result<(), JournalError> {
    let payload = encode_aig(aig)?;
    write_snapshot_raw(vfs, path, &payload, fingerprint, seq)
}

/// Reads and fully validates an AIG snapshot: CRC, id-exact decode,
/// then `sbm-check` structural validation. Never returns a
/// structurally invalid network.
pub fn read_aig_snapshot(path: &Path) -> Result<(Aig, SnapshotMeta), JournalError> {
    read_aig_snapshot_with(&RealVfs, path)
}

/// [`read_aig_snapshot`] through an explicit [`Vfs`].
pub fn read_aig_snapshot_with(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<(Aig, SnapshotMeta), JournalError> {
    let (meta, payload) = read_snapshot_raw(vfs, path)?;
    let aig = decode_aig(&payload)?;
    check_aig(&aig).map_err(JournalError::SnapshotInvalid)?;
    Ok((aig, meta))
}

fn write_snapshot_raw(
    vfs: &dyn Vfs,
    path: &Path,
    payload: &[u8],
    fingerprint: u64,
    seq: u64,
) -> Result<(), JournalError> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    bytes.extend_from_slice(&SNAP_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(KIND_AIG);
    bytes.push(0);
    push_u64(&mut bytes, fingerprint);
    push_u64(&mut bytes, seq);
    push_u64(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let tmp = tmp_path(path);
    {
        let mut f = vfs
            .create(&tmp)
            .map_err(|e| JournalError::io("open", &tmp, &e))?;
        f.write_all(&bytes)
            .map_err(|e| JournalError::io("write", &tmp, &e))?;
        f.sync_all()
            .map_err(|e| JournalError::io("fsync", &tmp, &e))?;
    }
    vfs.rename(&tmp, path)
        .map_err(|e| JournalError::io("rename", path, &e))?;
    // Make the rename itself durable. Directory fsync is best-effort:
    // not every platform/filesystem supports opening a directory.
    if let Some(dir) = path.parent() {
        let _ = vfs.sync_dir(dir);
    }
    Ok(())
}

fn read_snapshot_raw(vfs: &dyn Vfs, path: &Path) -> Result<(SnapshotMeta, Vec<u8>), JournalError> {
    let bytes = vfs
        .read(path)
        .map_err(|e| JournalError::io("read", path, &e))?;
    if bytes.len() < HEADER_LEN + 4 {
        return Err(JournalError::TornTail);
    }
    let mut r = Reader::new(&bytes);
    let magic = r.bytes(8).map_err(|_| JournalError::TornTail)?;
    if magic != SNAP_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = r.u16().map_err(|_| JournalError::TornTail)?;
    if version != FORMAT_VERSION {
        return Err(JournalError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    if r.u8().map_err(|_| JournalError::TornTail)? != KIND_AIG {
        return Err(JournalError::payload("snapshot does not contain an AIG"));
    }
    let _reserved = r.u8().map_err(|_| JournalError::TornTail)?;
    let fingerprint = r.u64().map_err(|_| JournalError::TornTail)?;
    let seq = r.u64().map_err(|_| JournalError::TornTail)?;
    let payload_len = r.u64().map_err(|_| JournalError::TornTail)?;
    let expected_total = (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|v| v.checked_add(4))
        .ok_or(JournalError::TornTail)?;
    match (bytes.len() as u64).cmp(&expected_total) {
        std::cmp::Ordering::Less => return Err(JournalError::TornTail),
        std::cmp::Ordering::Greater => {
            return Err(JournalError::payload("trailing bytes after snapshot"))
        }
        std::cmp::Ordering::Equal => {}
    }
    let body_end = HEADER_LEN + payload_len as usize;
    let stored_crc = u32::from_le_bytes([
        bytes[body_end],
        bytes[body_end + 1],
        bytes[body_end + 2],
        bytes[body_end + 3],
    ]);
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(JournalError::BadCrc {
            context: "snapshot",
        });
    }
    let payload = bytes[HEADER_LEN..body_end].to_vec();
    Ok((SnapshotMeta { fingerprint, seq }, payload))
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbm_aig::Lit;
    use std::fs;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sbm-journal-snap-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let f = aig.or(ab, !c);
        aig.add_output(f);
        aig.add_output(Lit::TRUE);
        aig.cleanup()
    }

    #[test]
    fn aig_snapshot_round_trips_with_meta() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("net.sbmj");
        let aig = sample_aig();
        write_aig_snapshot(&path, &aig, 0xDEAD_BEEF, 7).expect("write");
        let (back, meta) = read_aig_snapshot(&path).expect("read");
        assert_eq!(meta.fingerprint, 0xDEAD_BEEF);
        assert_eq!(meta.seq, 7);
        assert_eq!(back.num_ands(), aig.num_ands());
        assert_eq!(back.outputs(), aig.outputs());
        // No temp file left behind.
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_replaces_previous_snapshot() {
        let dir = temp_dir("rewrite");
        let path = dir.join("net.sbmj");
        let aig = sample_aig();
        write_aig_snapshot(&path, &aig, 1, 1).expect("write");
        write_aig_snapshot(&path, &aig, 2, 9).expect("rewrite");
        let (_, meta) = read_aig_snapshot(&path).expect("read");
        assert_eq!(meta.fingerprint, 2);
        assert_eq!(meta.seq, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = temp_dir("missing");
        let err = read_aig_snapshot(&dir.join("nope.sbmj")).expect_err("missing");
        assert!(matches!(err, JournalError::Io { op: "read", .. }));
        let _ = fs::remove_dir_all(&dir);
    }
}
