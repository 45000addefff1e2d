//! Binary codec for [`Aig`] payloads.
//!
//! The AIG codec is *id-exact*: encoding walks the canonical (cleaned)
//! layout — constant node `0`, inputs `1..=I`, ANDs in creation order —
//! and decoding replays the same `add_input()`/`and()` sequence,
//! asserting every node lands on the id it was encoded with. Structural
//! hashing and the one-level rewrite rules are deterministic, so replay
//! on an identical prefix graph reproduces identical decisions; any
//! divergence means the payload does not describe a canonical network
//! and is rejected with [`JournalError::NotCanonical`].
//!
//! Decoders never trust claimed sizes: counts are validated against the
//! actual payload length before any element is read, and element data
//! is read incrementally, so a crafted header cannot trigger an
//! unbounded allocation.

use sbm_aig::{Aig, Lit};

use crate::JournalError;

/// Hard cap on the input count a decoded AIG snapshot may claim.
/// Inputs occupy no payload bytes, so without a cap a crafted header
/// could drive an arbitrarily large `add_input()` loop.
pub const MAX_SNAPSHOT_INPUTS: usize = 1 << 24;

/// FNV-1a 64-bit hasher — the cheap content fingerprint used for
/// snapshot contents and configuration fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Mixes a byte slice into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mixes a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes a string (bytes plus a terminator so concatenations cannot
    /// collide) into the hash.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xFF]);
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a fingerprint of a canonical AIG's encoded payload. Two AIGs
/// share a fingerprint iff they encode byte-identically, i.e. they are
/// the same graph node-for-node.
pub fn aig_fingerprint(aig: &Aig) -> Result<u64, JournalError> {
    let bytes = encode_aig(aig)?;
    let mut h = Fnv64::new();
    h.write(&bytes);
    Ok(h.finish())
}

/// Encodes a canonical (cleaned) AIG.
///
/// Layout: `u32` input/AND/output counts, then per AND the two fanin
/// literal codes (`u32` each) in id order, then the output literal
/// codes. Returns [`JournalError::NotCanonical`] if the network is not
/// in the cleaned layout (inputs not at ids `1..=I`, pending
/// replacements, or non-AND interior nodes).
pub fn encode_aig(aig: &Aig) -> Result<Vec<u8>, JournalError> {
    let num_inputs = aig.num_inputs();
    let num_nodes = aig.num_nodes();
    let num_ands = num_nodes - 1 - num_inputs;
    for (i, &id) in aig.inputs().iter().enumerate() {
        if id.index() != i + 1 {
            return Err(JournalError::NotCanonical {
                node: id.index() as u64,
            });
        }
    }
    if let Some((id, _)) = aig.replacements().next() {
        return Err(JournalError::NotCanonical {
            node: id.index() as u64,
        });
    }
    let mut out = Vec::with_capacity(12 + 8 * num_ands + 4 * aig.num_outputs());
    push_u32(&mut out, to_u32(num_inputs, "input count")?);
    push_u32(&mut out, to_u32(num_ands, "AND count")?);
    push_u32(&mut out, to_u32(aig.num_outputs(), "output count")?);
    for idx in (1 + num_inputs)..num_nodes {
        let id = node_at(idx);
        if !aig.is_and(id) {
            return Err(JournalError::NotCanonical { node: idx as u64 });
        }
        let (a, b) = aig.fanins(id);
        push_u32(&mut out, a.code());
        push_u32(&mut out, b.code());
    }
    for l in aig.outputs() {
        push_u32(&mut out, l.code());
    }
    Ok(out)
}

/// Decodes an AIG payload produced by [`encode_aig`], verifying the
/// id-exact round trip. The result is always a structurally valid,
/// canonical AIG; malformed payloads return typed errors and never
/// panic or over-allocate.
pub fn decode_aig(bytes: &[u8]) -> Result<Aig, JournalError> {
    let mut r = Reader::new(bytes);
    let num_inputs = r.u32()? as usize;
    let num_ands = r.u32()? as usize;
    let num_outputs = r.u32()? as usize;
    let expected = 12u64 + 8 * num_ands as u64 + 4 * num_outputs as u64;
    if expected != bytes.len() as u64 {
        return Err(JournalError::payload(format!(
            "AIG payload length {} does not match declared counts (expected {expected})",
            bytes.len()
        )));
    }
    if num_inputs > MAX_SNAPSHOT_INPUTS {
        return Err(JournalError::payload(format!(
            "declared input count {num_inputs} exceeds cap {MAX_SNAPSHOT_INPUTS}"
        )));
    }
    let total_nodes = 1 + num_inputs + num_ands;
    if total_nodes as u64 >= u64::from(u32::MAX >> 1) {
        return Err(JournalError::payload(format!(
            "declared node count {total_nodes} exceeds the literal space"
        )));
    }
    let mut aig = Aig::new();
    for _ in 0..num_inputs {
        aig.add_input();
    }
    for k in 0..num_ands {
        let idx = 1 + num_inputs + k;
        let la = read_lit(&mut r, idx)?;
        let lb = read_lit(&mut r, idx)?;
        let got = aig.and(la, lb);
        if got.code() != (idx as u32) << 1 {
            return Err(JournalError::NotCanonical { node: idx as u64 });
        }
    }
    for _ in 0..num_outputs {
        let code = r.u32()?;
        if (code >> 1) as usize >= total_nodes {
            return Err(JournalError::payload(format!(
                "output literal {code} references a node outside the graph"
            )));
        }
        aig.add_output(Lit::from_code(code));
    }
    Ok(aig)
}

fn read_lit(r: &mut Reader<'_>, defining_idx: usize) -> Result<Lit, JournalError> {
    let code = r.u32()?;
    if (code >> 1) as usize >= defining_idx {
        return Err(JournalError::payload(format!(
            "AND node {defining_idx} references literal {code} at or above itself"
        )));
    }
    Ok(Lit::from_code(code))
}

/// Constructs the [`sbm_aig::NodeId`] at `idx` through the public
/// literal API (node ids are not directly constructible).
fn node_at(idx: usize) -> sbm_aig::NodeId {
    Lit::from_code((idx as u32) << 1).node()
}

fn to_u32(v: usize, what: &str) -> Result<u32, JournalError> {
    u32::try_from(v).map_err(|_| JournalError::payload(format!("{what} {v} exceeds u32")))
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian payload reader. Every read returns a
/// typed error on exhaustion instead of panicking.
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| JournalError::payload("payload ends mid-field"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, JournalError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, JournalError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, JournalError> {
        let b = self.bytes(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let bc = aig.and(b, !c);
        let f = aig.or(ab, bc);
        let g = aig.xor(a, c);
        aig.add_output(f);
        aig.add_output(!g);
        aig.add_output(Lit::TRUE);
        aig.cleanup()
    }

    #[test]
    fn aig_round_trip_is_id_exact() {
        let aig = sample_aig();
        let bytes = encode_aig(&aig).expect("canonical");
        let back = decode_aig(&bytes).expect("round trip");
        assert_eq!(back.num_nodes(), aig.num_nodes());
        assert_eq!(back.num_ands(), aig.num_ands());
        assert_eq!(back.outputs(), aig.outputs());
        assert_eq!(encode_aig(&back).expect("canonical"), bytes);
        // Functional identity on a few patterns.
        for pattern in 0..8u32 {
            let assignment: Vec<bool> = (0..3).map(|i| pattern >> i & 1 != 0).collect();
            assert_eq!(aig.eval(&assignment), back.eval(&assignment));
        }
    }

    #[test]
    fn empty_and_const_networks_round_trip() {
        let aig = Aig::new().cleanup();
        let bytes = encode_aig(&aig).expect("canonical");
        let back = decode_aig(&bytes).expect("round trip");
        assert_eq!(back.num_nodes(), 1);

        let mut konst = Aig::new();
        konst.add_output(Lit::TRUE);
        konst.add_output(Lit::FALSE);
        let konst = konst.cleanup();
        let bytes = encode_aig(&konst).expect("canonical");
        let back = decode_aig(&bytes).expect("round trip");
        assert_eq!(back.outputs(), konst.outputs());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let aig = sample_aig();
        let fp = aig_fingerprint(&aig).expect("canonical");
        assert_eq!(fp, aig_fingerprint(&aig).expect("canonical"));
        let mut other = sample_aig();
        other.add_output(Lit::FALSE);
        let other = other.cleanup();
        assert_ne!(fp, aig_fingerprint(&other).expect("canonical"));
    }

    #[test]
    fn non_canonical_aig_is_rejected_by_encode() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.and(a, b);
        aig.add_output(ab);
        // A pending replacement makes the graph non-canonical.
        aig.corrupt_force_replace(ab.node(), a);
        assert!(matches!(
            encode_aig(&aig),
            Err(JournalError::NotCanonical { .. })
        ));
    }

    #[test]
    fn decode_rejects_malformed_aig_payloads() {
        let aig = sample_aig();
        let good = encode_aig(&aig).expect("canonical");

        // Truncated payload.
        assert!(decode_aig(&good[..good.len() - 2]).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(decode_aig(&long).is_err());
        // Oversized input claim (no matching payload bytes needed).
        let mut huge = good.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_aig(&huge).is_err());
        // Forward reference: point the first AND's fanin at itself.
        let mut fwd = good.clone();
        let self_code = ((1u32 + 3) << 1).to_le_bytes();
        fwd[12..16].copy_from_slice(&self_code);
        assert!(decode_aig(&fwd).is_err());
    }

    #[test]
    fn decode_rejects_non_canonical_duplicate_and() {
        // Payload declaring two identical ANDs: the second replays onto
        // the first via strashing, so its id check fails.
        let mut bytes = Vec::new();
        push_u32(&mut bytes, 2); // inputs
        push_u32(&mut bytes, 2); // ands
        push_u32(&mut bytes, 1); // outputs
        let a = Lit::from_code(2);
        let b = Lit::from_code(4);
        for _ in 0..2 {
            push_u32(&mut bytes, a.code());
            push_u32(&mut bytes, b.code());
        }
        push_u32(&mut bytes, (4u32) << 1);
        assert!(matches!(
            decode_aig(&bytes),
            Err(JournalError::NotCanonical { node: 4 })
        ));
    }

    #[test]
    fn fnv_write_str_is_concatenation_safe() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
