//! Wire encodings for object files, behind a BFD-like backend switch.
//!
//! The paper's OMOS understood HP SOM and `a.out`, and was being retargeted
//! to the GNU BFD library — "an array of object-format specific backends".
//! We model that portability layer with a [`Backend`] trait and two concrete
//! encodings with deliberately different layouts:
//!
//! * [`aout`] — a flat, header-plus-tables layout in the spirit of BSD
//!   `a.out`;
//! * [`som`] — a chunked, tag-length-value layout in the spirit of HP SOM
//!   "spaces".
//!
//! [`read_any`] sniffs the magic number and dispatches, exactly as the
//! object-file switch in the paper does.

pub mod aout;
pub mod container;
pub mod som;
mod wire;

pub use container::ContainerKind;
pub use wire::{from_bytes, to_bytes, Reader, Trailing, Wire, Writer};

use crate::error::{ObjError, Result};
use crate::object::ObjectFile;

/// The encodings this build understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Flat header-plus-tables encoding.
    Aout,
    /// Chunked tag-length-value encoding.
    Som,
}

impl Format {
    /// Parses a format name (`"aout"` / `"som"`).
    pub fn parse(name: &str) -> Result<Format> {
        match name {
            "aout" | "a.out" => Ok(Format::Aout),
            "som" => Ok(Format::Som),
            other => Err(ObjError::UnknownFormat(other.to_string())),
        }
    }

    /// Canonical name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Format::Aout => "aout",
            Format::Som => "som",
        }
    }
}

/// An object-format backend: serialize, deserialize, and sniff.
pub trait Backend {
    /// The format this backend implements.
    fn format(&self) -> Format;
    /// Serializes an object file.
    fn write(&self, obj: &ObjectFile) -> Vec<u8>;
    /// Deserializes an object file.
    fn read(&self, bytes: &[u8]) -> Result<ObjectFile>;
    /// Returns true if `bytes` begin with this backend's magic.
    fn sniff(&self, bytes: &[u8]) -> bool;
}

/// All registered backends.
#[must_use]
pub fn backends() -> Vec<Box<dyn Backend>> {
    vec![Box::new(aout::AoutBackend), Box::new(som::SomBackend)]
}

/// Serializes `obj` in the given format.
#[must_use]
pub fn write(format: Format, obj: &ObjectFile) -> Vec<u8> {
    match format {
        Format::Aout => aout::AoutBackend.write(obj),
        Format::Som => som::SomBackend.write(obj),
    }
}

/// Deserializes `bytes` in the given format.
pub fn read(format: Format, bytes: &[u8]) -> Result<ObjectFile> {
    match format {
        Format::Aout => aout::AoutBackend.read(bytes),
        Format::Som => som::SomBackend.read(bytes),
    }
}

/// Sniffs the magic number and dispatches to the right backend.
pub fn read_any(bytes: &[u8]) -> Result<ObjectFile> {
    for b in backends() {
        if b.sniff(bytes) {
            return b.read(bytes);
        }
    }
    Err(ObjError::Malformed(
        "no backend recognizes this image".into(),
    ))
}

/// Identifies the format of an image without decoding it.
#[must_use]
pub fn sniff(bytes: &[u8]) -> Option<Format> {
    backends()
        .into_iter()
        .find(|b| b.sniff(bytes))
        .map(|b| b.format())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reloc::{RelocKind, Relocation};
    use crate::section::{Section, SectionKind};
    use crate::symbol::Symbol;

    pub(crate) fn sample() -> ObjectFile {
        let mut o = ObjectFile::new("sample.o");
        let t = o.add_section(Section::with_bytes(
            ".text",
            SectionKind::Text,
            vec![1, 2, 3, 4, 0, 0, 0, 0],
            8,
        ));
        let d = o.add_section(Section::with_bytes(
            ".data",
            SectionKind::Data,
            vec![9; 12],
            4,
        ));
        o.add_section(Section::bss(".bss", 256, 16));
        o.define(Symbol::defined("_main", t, 0)).unwrap();
        o.define(Symbol::defined("_var", d, 4)).unwrap();
        o.define(Symbol::common("_buf", 64)).unwrap();
        o.define(Symbol::absolute("_magic", 0xdead)).unwrap();
        o.define(Symbol::defined("_local_helper", t, 4).local())
            .unwrap();
        o.define(Symbol::defined("_weak_thing", t, 4).weak())
            .unwrap();
        o.relocate(Relocation::new(t, 0, RelocKind::Abs32, "_printf").with_addend(-3));
        o.relocate(Relocation::new(t, 4, RelocKind::Pcrel32, "_main"));
        o.relocate(Relocation::new(d, 0, RelocKind::Abs64, "_var").with_addend(8));
        o
    }

    #[test]
    fn roundtrip_both_formats() {
        let obj = sample();
        for fmt in [Format::Aout, Format::Som] {
            let bytes = write(fmt, &obj);
            let back = read(fmt, &bytes).unwrap();
            assert_eq!(back, obj, "round-trip through {}", fmt.name());
        }
    }

    #[test]
    fn read_any_dispatches_by_magic() {
        let obj = sample();
        for fmt in [Format::Aout, Format::Som] {
            let bytes = write(fmt, &obj);
            assert_eq!(sniff(&bytes), Some(fmt));
            assert_eq!(read_any(&bytes).unwrap(), obj);
        }
    }

    #[test]
    fn formats_are_actually_different() {
        let obj = sample();
        assert_ne!(write(Format::Aout, &obj), write(Format::Som, &obj));
    }

    #[test]
    fn unknown_magic_rejected() {
        assert!(read_any(b"#!/bin/omos\n").is_err());
        assert!(read_any(&[]).is_err());
        assert!(sniff(b"ELF?").is_none());
    }

    #[test]
    fn cross_reading_fails_cleanly() {
        let obj = sample();
        let aout_bytes = write(Format::Aout, &obj);
        assert!(read(Format::Som, &aout_bytes).is_err());
        let som_bytes = write(Format::Som, &obj);
        assert!(read(Format::Aout, &som_bytes).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let obj = sample();
        for fmt in [Format::Aout, Format::Som] {
            let bytes = write(fmt, &obj);
            for cut in [1, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    read(fmt, &bytes[..cut]).is_err(),
                    "truncated-at-{cut} {} image must not decode",
                    fmt.name()
                );
            }
        }
    }

    #[test]
    fn format_parse() {
        assert_eq!(Format::parse("aout").unwrap(), Format::Aout);
        assert_eq!(Format::parse("a.out").unwrap(), Format::Aout);
        assert_eq!(Format::parse("som").unwrap(), Format::Som);
        assert!(Format::parse("elf").is_err());
    }
}
