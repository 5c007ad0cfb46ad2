//! On-"disk" encoding of [`LinkedImage`]s.
//!
//! The durability layer persists cached link results so a restarted
//! server can serve them without relinking (the paper banks on "disk
//! space for caching multiple versions of large libraries"). An image
//! travels inside a versioned, checksummed container frame
//! ([`omos_obj::encode::container`]); the records below declare the
//! image body's layout once, for both directions.
//!
//! The encoding is canonical: symbols are written in sorted order, so
//! `encode` is a pure function of the image's content and two images
//! that compare equal encode identically.

use omos_obj::encode::container::{self, ContainerKind};
use omos_obj::encode::{from_bytes, to_bytes};

use crate::error::LinkResult;
use crate::image::{LinkedImage, Segment};
use crate::linker::LinkStats;

omos_obj::wire_record! { LinkedImage { name, segments, symbols, entry } }
omos_obj::wire_record! { Segment { name, kind, vaddr, zero, bytes } }
omos_obj::wire_record! { LinkStats {
    objects, symbols_resolved, relocs_applied, bytes_copied, externs_bound, left_unresolved
} }

/// Serializes an image into a sealed container frame.
#[must_use]
pub fn encode_image(img: &LinkedImage) -> Vec<u8> {
    container::seal(ContainerKind::Image, &to_bytes(img))
}

/// Decodes a sealed container frame back into an image. Any
/// malformation — torn frame, flipped bit, version skew, trailing
/// garbage — is an error; the caller treats it as a cache miss.
pub fn decode_image(bytes: &[u8]) -> LinkResult<LinkedImage> {
    Ok(from_bytes(container::open(ContainerKind::Image, bytes)?)?)
}
