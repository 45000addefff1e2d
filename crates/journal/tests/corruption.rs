// Test code: a panic IS the failure report (clippy.toml only relaxes
// unwrap/expect inside #[test] fns, not test-file helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Byte-level corruption tests: every way a checkpoint file can be
//! damaged on disk must surface as the *specific* typed
//! [`JournalError`] the format documentation promises — never a panic,
//! never a silently wrong network.

use std::fs;
use std::path::PathBuf;

use sbm_aig::Aig;
use sbm_journal::{read_aig_snapshot, write_aig_snapshot, JournalError};

/// Snapshot header layout constants (see `snapshot.rs` docs): the
/// version field starts at byte 8, the payload at byte 36.
const SNAP_VERSION_OFFSET: usize = 8;
const SNAP_PAYLOAD_OFFSET: usize = 36;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbm-corruption-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_aig() -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_input();
    let b = aig.add_input();
    let c = aig.add_input();
    let ab = aig.or(a, b);
    let f = aig.and(ab, c);
    aig.add_output(f);
    aig.cleanup()
}

fn flip_byte(path: &std::path::Path, offset: usize) {
    let mut bytes = fs::read(path).unwrap();
    bytes[offset] ^= 0xFF;
    fs::write(path, bytes).unwrap();
}

#[test]
fn snapshot_body_flip_is_bad_crc() {
    let dir = temp_dir("snap-body");
    let path = dir.join("snapshot.sbmj");
    write_aig_snapshot(&path, &small_aig(), 1, 0).unwrap();
    flip_byte(&path, SNAP_PAYLOAD_OFFSET + 2);
    assert_eq!(
        read_aig_snapshot(&path).unwrap_err(),
        JournalError::BadCrc {
            context: "snapshot"
        }
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_crc_field_flip_is_bad_crc() {
    let dir = temp_dir("snap-crc");
    let path = dir.join("snapshot.sbmj");
    write_aig_snapshot(&path, &small_aig(), 1, 0).unwrap();
    let len = fs::metadata(&path).unwrap().len() as usize;
    flip_byte(&path, len - 1); // last byte of the trailing CRC32
    assert_eq!(
        read_aig_snapshot(&path).unwrap_err(),
        JournalError::BadCrc {
            context: "snapshot"
        }
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_version_flip_is_version_mismatch_not_crc() {
    let dir = temp_dir("snap-version");
    let path = dir.join("snapshot.sbmj");
    write_aig_snapshot(&path, &small_aig(), 1, 0).unwrap();
    flip_byte(&path, SNAP_VERSION_OFFSET);
    // Field checks run before the checksum, so the report names the
    // actual problem.
    assert!(matches!(
        read_aig_snapshot(&path).unwrap_err(),
        JournalError::VersionMismatch { expected: 1, .. }
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_magic_flip_is_bad_magic() {
    let dir = temp_dir("snap-magic");
    let path = dir.join("snapshot.sbmj");
    write_aig_snapshot(&path, &small_aig(), 1, 0).unwrap();
    flip_byte(&path, 0);
    assert_eq!(
        read_aig_snapshot(&path).unwrap_err(),
        JournalError::BadMagic
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_truncation_is_torn_tail_at_every_length() {
    let dir = temp_dir("snap-trunc");
    let path = dir.join("snapshot.sbmj");
    write_aig_snapshot(&path, &small_aig(), 1, 0).unwrap();
    let full = fs::read(&path).unwrap();
    // Mid-header, end-of-header, and mid-payload cuts all tear.
    for cut in [0, 7, SNAP_PAYLOAD_OFFSET, full.len() - 1] {
        fs::write(&path, &full[..cut]).unwrap();
        assert_eq!(
            read_aig_snapshot(&path).unwrap_err(),
            JournalError::TornTail,
            "cut at {cut}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
