//! Linked, mappable images.

use std::collections::HashMap;
use std::sync::Arc;

use omos_obj::hash::{ContentHash, Fnv64};
use omos_obj::SectionKind;

/// One mappable segment of a linked image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Display name (`.text`, `.data`, ...).
    pub name: String,
    /// Page-permission class.
    pub kind: SectionKind,
    /// Virtual base address.
    pub vaddr: u32,
    /// Initialized contents: fixed once the link has relocated them, and
    /// shared with every page frame cut from this segment.
    pub bytes: Arc<[u8]>,
    /// Additional zero-fill after `bytes` (BSS).
    pub zero: u64,
}

impl Segment {
    /// Total size including zero fill.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64 + self.zero
    }

    /// One-past-the-end virtual address.
    #[must_use]
    pub fn end(&self) -> u64 {
        u64::from(self.vaddr) + self.size()
    }

    /// True if `addr` falls inside this segment.
    #[must_use]
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.vaddr && u64::from(addr) < self.end()
    }
}

/// A fully laid-out image: segments at fixed virtual addresses, a symbol
/// map, and an optional entry point.
///
/// This is what the OMOS cache stores and what gets mapped into tasks; in
/// the paper's words, "the resultant mappable image is cached and returned
/// to be mapped into the user's address space".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkedImage {
    /// Image name (for diagnostics and the cache).
    pub name: String,
    /// Mappable segments, sorted by `vaddr`.
    pub segments: Vec<Segment>,
    /// Resolved global symbols and their virtual addresses.
    pub symbols: HashMap<String, u32>,
    /// Entry point, if this image is a program.
    pub entry: Option<u32>,
}

impl LinkedImage {
    /// Looks up a symbol's virtual address.
    #[must_use]
    pub fn find(&self, symbol: &str) -> Option<u32> {
        self.symbols.get(symbol).copied()
    }

    /// The segment containing `addr`, if any.
    #[must_use]
    pub fn segment_at(&self, addr: u32) -> Option<&Segment> {
        self.segments.iter().find(|s| s.contains(addr))
    }

    /// Total bytes of initialized content.
    #[must_use]
    pub fn loaded_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes.len() as u64).sum()
    }

    /// Total mapped size including zero fill.
    #[must_use]
    pub fn mapped_bytes(&self) -> u64 {
        self.segments.iter().map(Segment::size).sum()
    }

    /// Size of shareable (text + read-only) content in bytes.
    #[must_use]
    pub fn shareable_bytes(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.kind.is_shareable())
            .map(Segment::size)
            .sum()
    }

    /// Deterministic content hash (cache key component).
    #[must_use]
    pub fn content_hash(&self) -> ContentHash {
        let mut h = Fnv64::new();
        for s in &self.segments {
            h.write(s.name.as_bytes());
            h.write(&[s.kind.code()]);
            h.write(&s.vaddr.to_le_bytes());
            h.write(&s.zero.to_le_bytes());
            h.write(&s.bytes);
        }
        let mut syms: Vec<(&String, &u32)> = self.symbols.iter().collect();
        syms.sort();
        for (name, addr) in syms {
            h.write(name.as_bytes());
            h.write(&addr.to_le_bytes());
        }
        if let Some(e) = self.entry {
            h.write(&e.to_le_bytes());
        }
        ContentHash(h.finish())
    }

    /// Verifies that no two segments overlap.
    #[must_use]
    pub fn no_overlap(&self) -> bool {
        let mut spans: Vec<(u64, u64)> = self
            .segments
            .iter()
            .map(|s| (u64::from(s.vaddr), s.end()))
            .collect();
        spans.sort_unstable();
        spans.windows(2).all(|w| w[0].1 <= w[1].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(vaddr: u32, len: usize, zero: u64) -> Segment {
        Segment {
            name: ".t".into(),
            kind: SectionKind::Text,
            vaddr,
            bytes: vec![0; len].into(),
            zero,
        }
    }

    #[test]
    fn segment_geometry() {
        let s = seg(0x1000, 16, 16);
        assert_eq!(s.size(), 32);
        assert_eq!(s.end(), 0x1020);
        assert!(s.contains(0x1000));
        assert!(s.contains(0x101f));
        assert!(!s.contains(0x1020));
        assert!(!s.contains(0xfff));
    }

    #[test]
    fn overlap_detection() {
        let mut img = LinkedImage::default();
        img.segments.push(seg(0x1000, 32, 0));
        img.segments.push(seg(0x1020, 32, 0));
        assert!(img.no_overlap());
        img.segments.push(seg(0x1030, 8, 0));
        assert!(!img.no_overlap());
    }

    #[test]
    fn lookups() {
        let mut img = LinkedImage::default();
        img.segments.push(seg(0x1000, 16, 0));
        img.symbols.insert("_main".into(), 0x1000);
        assert_eq!(img.find("_main"), Some(0x1000));
        assert_eq!(img.find("_x"), None);
        assert!(img.segment_at(0x1008).is_some());
        assert!(img.segment_at(0x2000).is_none());
    }

    #[test]
    fn byte_accounting() {
        let mut img = LinkedImage::default();
        img.segments.push(seg(0x1000, 100, 0));
        let mut data = seg(0x2000, 50, 30);
        data.kind = SectionKind::Data;
        img.segments.push(data);
        assert_eq!(img.loaded_bytes(), 150);
        assert_eq!(img.mapped_bytes(), 180);
        assert_eq!(img.shareable_bytes(), 100);
    }

    #[test]
    fn hash_changes_with_layout() {
        let mut a = LinkedImage::default();
        a.segments.push(seg(0x1000, 8, 0));
        let mut b = a.clone();
        b.segments[0].vaddr = 0x2000;
        assert_ne!(a.content_hash(), b.content_hash());
    }
}
