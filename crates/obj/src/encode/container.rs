//! The versioned, checksummed container frame for persisted artifacts.
//!
//! Everything the durable server writes to "disk" — objects, blueprints,
//! linked images, the checkpoint manifest, journal records — travels
//! inside one of these frames:
//!
//! ```text
//! magic "OMCF" | version u16 | kind u8 | payload_len u64 | payload | fnv64
//! ```
//!
//! The trailing FNV-1a checksum covers every byte before it, so a torn
//! write, a flipped bit, or a frame from a different build generation is
//! detected at [`open`] time and reported as a typed error. Restore
//! treats any such failure as "this artifact does not exist" and falls
//! back to relinking — corruption degrades, it never propagates.
//!
//! Frames are self-delimiting, so a file may hold a back-to-back
//! sequence of them (the binding journal does); [`scan_frames`] walks
//! such a sequence and stops cleanly at a torn tail.

use crate::error::{ObjError, Result};
use crate::hash::fnv1a;

use super::wire::Reader;

/// Magic prefix of every container frame.
pub const MAGIC: &[u8; 4] = b"OMCF";

/// Current container version. Bumped on any layout change; frames from
/// other versions are rejected (version skew ⇒ relink, never reuse).
pub const VERSION: u16 = 1;

/// What kind of payload a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// A serialized [`crate::ObjectFile`] (in some [`super::Format`]).
    Object,
    /// A serialized blueprint (m-graph).
    Blueprint,
    /// A serialized linked image.
    Image,
    /// A checkpoint manifest.
    Manifest,
    /// One binding-journal record.
    JournalRecord,
    /// A canonical resolution manifest (symbol → provider bindings).
    Resolution,
}

impl ContainerKind {
    const ALL: [ContainerKind; 6] = [
        ContainerKind::Object,
        ContainerKind::Blueprint,
        ContainerKind::Image,
        ContainerKind::Manifest,
        ContainerKind::JournalRecord,
        ContainerKind::Resolution,
    ];

    fn tag(self) -> u8 {
        match self {
            ContainerKind::Object => 1,
            ContainerKind::Blueprint => 2,
            ContainerKind::Image => 3,
            ContainerKind::Manifest => 4,
            ContainerKind::JournalRecord => 5,
            ContainerKind::Resolution => 6,
        }
    }

    fn from_tag(tag: u8) -> Option<ContainerKind> {
        ContainerKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Human-readable kind name (used in error messages and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ContainerKind::Object => "object",
            ContainerKind::Blueprint => "blueprint",
            ContainerKind::Image => "image",
            ContainerKind::Manifest => "manifest",
            ContainerKind::JournalRecord => "journal-record",
            ContainerKind::Resolution => "resolution",
        }
    }
}

/// Wraps `payload` in a sealed frame: header, payload, checksum.
#[must_use]
pub fn seal(kind: ContainerKind, payload: &[u8]) -> Vec<u8> {
    // Sized exactly: sealed frames are kept (reply manifests, spill
    // files), so growth slack would be retained with them.
    let mut body = Vec::with_capacity(MAGIC.len() + 2 + 1 + 8 + payload.len() + 8);
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&VERSION.to_le_bytes());
    body.push(kind.tag());
    body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    body.extend_from_slice(payload);
    // Checksum covers header + payload, i.e. everything so far.
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.0.to_le_bytes());
    body
}

/// Parses one frame from the front of `bytes`, verifying magic, version,
/// kind tag, length, and checksum. Returns the payload and the total
/// frame length consumed.
fn open_frame(bytes: &[u8]) -> Result<(ContainerKind, &[u8], usize)> {
    let mut r = Reader::new(bytes);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(ObjError::Malformed("container: bad magic".into()));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(ObjError::Malformed(format!(
            "container: version skew (found {version}, want {VERSION})"
        )));
    }
    let tag = r.u8()?;
    let kind = ContainerKind::from_tag(tag)
        .ok_or_else(|| ObjError::Malformed(format!("container: unknown kind tag {tag}")))?;
    let len = r.u64()? as usize;
    if len > r.remaining() {
        return Err(ObjError::Malformed(format!(
            "container: truncated payload (claims {len} bytes, {} remain)",
            r.remaining()
        )));
    }
    let payload = r.bytes(len)?;
    let body_end = r.position();
    let sum = r.u64()?;
    if fnv1a(&bytes[..body_end]).0 != sum {
        return Err(ObjError::Malformed("container: checksum mismatch".into()));
    }
    Ok((kind, payload, r.position()))
}

/// Unwraps a sealed frame, checking it carries the expected `kind` and
/// that nothing trails it. Any malformation — bad magic, version skew,
/// truncation, checksum mismatch, wrong kind — is a typed error.
pub fn open(kind: ContainerKind, bytes: &[u8]) -> Result<&[u8]> {
    let (found, payload, consumed) = open_frame(bytes)?;
    if found != kind {
        return Err(ObjError::Malformed(format!(
            "container: kind mismatch (found {}, want {})",
            found.name(),
            kind.name()
        )));
    }
    if consumed != bytes.len() {
        return Err(ObjError::Malformed(format!(
            "container: {} trailing bytes after frame",
            bytes.len() - consumed
        )));
    }
    Ok(payload)
}

/// Walks a back-to-back sequence of frames (the journal layout),
/// returning every verifiable frame. A malformed stretch — a torn tail
/// after a crash mid-append, or a corrupt record — is skipped by
/// resynchronizing at the next frame header, so one damaged record
/// cannot hide everything behind it. The second element is true when
/// any damage was skipped.
#[must_use]
pub fn scan_frames(bytes: &[u8]) -> (Vec<(ContainerKind, &[u8])>, bool) {
    let mut out = Vec::new();
    let mut pos = 0;
    let mut damaged = false;
    while pos < bytes.len() {
        match open_frame(&bytes[pos..]) {
            Ok((kind, payload, consumed)) => {
                out.push((kind, payload));
                pos += consumed;
            }
            Err(_) => {
                damaged = true;
                match bytes[pos + 1..]
                    .windows(MAGIC.len())
                    .position(|w| w == MAGIC)
                {
                    Some(i) => pos += 1 + i,
                    None => break,
                }
            }
        }
    }
    (out, damaged)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        for kind in ContainerKind::ALL {
            let framed = seal(kind, b"payload bytes");
            assert_eq!(open(kind, &framed).unwrap(), b"payload bytes");
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let framed = seal(ContainerKind::Manifest, b"");
        assert_eq!(open(ContainerKind::Manifest, &framed).unwrap(), b"");
    }

    #[test]
    fn kind_mismatch_rejected() {
        let framed = seal(ContainerKind::Object, b"x");
        assert!(open(ContainerKind::Image, &framed).is_err());
    }

    #[test]
    fn every_single_byte_corruption_detected() {
        let framed = seal(ContainerKind::Image, b"some image payload");
        for i in 0..framed.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = framed.clone();
                bad[i] ^= flip;
                assert!(
                    open(ContainerKind::Image, &bad).is_err(),
                    "flipping bit {flip:#x} of byte {i} must not decode"
                );
            }
        }
    }

    #[test]
    fn every_truncation_detected() {
        let framed = seal(ContainerKind::Blueprint, b"graph");
        for cut in 0..framed.len() {
            assert!(open(ContainerKind::Blueprint, &framed[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut framed = seal(ContainerKind::Object, b"x");
        framed.push(0);
        assert!(open(ContainerKind::Object, &framed).is_err());
    }

    #[test]
    fn version_skew_rejected() {
        let mut framed = seal(ContainerKind::Object, b"x");
        framed[4] ^= 0xff; // version field low byte
        let err = open(ContainerKind::Object, &framed).unwrap_err();
        assert!(err.to_string().contains("version skew") || err.to_string().contains("checksum"));
    }

    #[test]
    fn scan_frames_walks_sequence_and_tolerates_torn_tail() {
        let mut file = Vec::new();
        file.extend_from_slice(&seal(ContainerKind::JournalRecord, b"one"));
        file.extend_from_slice(&seal(ContainerKind::JournalRecord, b"two"));
        let (frames, torn) = scan_frames(&file);
        assert!(!torn);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].1, b"two");

        // Append a torn third record: every prefix of it must scan to
        // exactly the two good records plus a torn flag.
        let third = seal(ContainerKind::JournalRecord, b"three");
        for cut in 1..third.len() {
            let mut torn_file = file.clone();
            torn_file.extend_from_slice(&third[..cut]);
            let (frames, torn) = scan_frames(&torn_file);
            assert_eq!(
                frames.len(),
                2,
                "torn tail at {cut} must not yield a record"
            );
            assert!(torn);
        }

        // The full third record scans clean.
        file.extend_from_slice(&third);
        let (frames, torn) = scan_frames(&file);
        assert_eq!(frames.len(), 3);
        assert!(!torn);
    }

    #[test]
    fn scan_frames_resyncs_past_a_corrupt_record() {
        let one = seal(ContainerKind::JournalRecord, b"one");
        let two = seal(ContainerKind::JournalRecord, b"two");
        // Corrupt any single byte of the first record: the second must
        // still be recovered by resynchronizing at its header.
        for i in 0..one.len() {
            let mut file = one.clone();
            file[i] ^= 0x01;
            file.extend_from_slice(&two);
            let (frames, damaged) = scan_frames(&file);
            assert!(damaged, "corruption at byte {i} must be flagged");
            assert_eq!(
                frames.iter().filter(|(_, p)| *p == b"two").count(),
                1,
                "record after corruption at byte {i} must survive"
            );
        }
    }

    #[test]
    fn empty_input_scans_clean() {
        let (frames, torn) = scan_frames(&[]);
        assert!(frames.is_empty());
        assert!(!torn);
    }
}
