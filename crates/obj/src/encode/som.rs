//! The `som` backend: a chunked, tag-length-value encoding.
//!
//! Layout:
//!
//! ```text
//! magic "XSM1"
//! chunk*  where chunk = tag(4 bytes) length(u32) payload(length bytes)
//! "END!" chunk terminates
//! ```
//!
//! Chunks: `NAME` (object name), `SPCE` (one section — SOM calls them
//! "spaces"), `SYMB` (entire symbol table), `FIXU` (all relocations — SOM
//! calls them "fixups"). Unknown chunk tags are skipped, which lets newer
//! writers add chunks without breaking older readers — the kind of format
//! evolution the paper's BFD discussion is about.

use super::aout::{read_symbol, write_symbol};
use super::wire::{Reader, Writer};
use super::{Backend, Format};
use crate::error::{ObjError, Result};
use crate::object::ObjectFile;
use crate::reloc::{RelocKind, Relocation};
use crate::section::{Section, SectionKind};

const MAGIC: &[u8; 4] = b"XSM1";

/// The `som` encoding backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct SomBackend;

fn chunk(w: &mut Writer, tag: &[u8; 4], payload: Writer) {
    w.bytes(tag);
    let bytes = payload.into_bytes();
    w.u32(bytes.len() as u32);
    w.bytes(&bytes);
}

impl Backend for SomBackend {
    fn format(&self) -> Format {
        Format::Som
    }

    fn write(&self, obj: &ObjectFile) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);

        let mut name = Writer::new();
        name.str(&obj.name);
        chunk(&mut w, b"NAME", name);

        for s in &obj.sections {
            let mut p = Writer::new();
            p.str(&s.name);
            p.u8(s.kind.code());
            p.u64(s.size);
            p.u64(s.align);
            p.u32(s.bytes.len() as u32);
            p.bytes(&s.bytes);
            chunk(&mut w, b"SPCE", p);
        }

        let mut symb = Writer::new();
        symb.u32(obj.symbols.len() as u32);
        for sym in obj.symbols.iter() {
            write_symbol(&mut symb, sym);
        }
        chunk(&mut w, b"SYMB", symb);

        let mut fixu = Writer::new();
        fixu.u32(obj.relocs.len() as u32);
        for r in &obj.relocs {
            fixu.u32(r.section as u32);
            fixu.u64(r.offset);
            fixu.u8(r.kind.code());
            fixu.str(&r.symbol);
            fixu.i64(r.addend);
        }
        chunk(&mut w, b"FIXU", fixu);

        chunk(&mut w, b"END!", Writer::new());
        w.into_bytes()
    }

    fn read(&self, bytes: &[u8]) -> Result<ObjectFile> {
        let mut r = Reader::new(bytes);
        if r.bytes(4)? != MAGIC {
            return Err(ObjError::Malformed("bad som magic".into()));
        }
        let mut obj = ObjectFile::new("");
        let mut saw_end = false;
        while r.remaining() > 0 {
            let tag: [u8; 4] = r.array()?;
            let len = r.u32()? as usize;
            let payload = r.bytes(len)?;
            let mut p = Reader::new(payload);
            match &tag {
                b"NAME" => obj.name = p.str()?,
                b"SPCE" => {
                    let name = p.str()?;
                    let kind = SectionKind::from_code(p.u8()?)
                        .ok_or_else(|| ObjError::Malformed("bad space kind".into()))?;
                    let size = p.u64()?;
                    let align = p.u64()?;
                    if !align.is_power_of_two() {
                        return Err(ObjError::Malformed(format!("bad alignment {align}")));
                    }
                    let nbytes = p.u32()? as usize;
                    let data = p.bytes(nbytes)?.to_vec();
                    if kind != SectionKind::Bss && size != nbytes as u64 {
                        return Err(ObjError::Malformed("space size/bytes mismatch".into()));
                    }
                    obj.sections.push(Section {
                        name,
                        kind,
                        bytes: data,
                        size,
                        align,
                    });
                }
                b"SYMB" => {
                    let n = p.u32()? as usize;
                    for _ in 0..n {
                        let sym = read_symbol(&mut p)?;
                        obj.symbols
                            .insert(sym)
                            .map_err(|e| ObjError::Malformed(format!("symbol table: {e}")))?;
                    }
                }
                b"FIXU" => {
                    let n = p.u32()? as usize;
                    for _ in 0..n {
                        let section = p.u32()? as usize;
                        let offset = p.u64()?;
                        let kind = RelocKind::from_code(p.u8()?)
                            .ok_or_else(|| ObjError::Malformed("bad fixup kind".into()))?;
                        let symbol = p.str()?;
                        let addend = p.i64()?;
                        obj.relocs.push(Relocation {
                            section,
                            offset,
                            kind,
                            symbol,
                            addend,
                        });
                    }
                }
                b"END!" => {
                    saw_end = true;
                    break;
                }
                _ => {
                    // Unknown chunk: skip (forward compatibility).
                }
            }
        }
        if !saw_end {
            return Err(ObjError::Malformed("missing END! chunk".into()));
        }
        Ok(obj)
    }

    fn sniff(&self, bytes: &[u8]) -> bool {
        bytes.len() >= 4 && &bytes[..4] == MAGIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_chunks_are_skipped() {
        let obj = super::super::tests::sample();
        let bytes = SomBackend.write(&obj);
        // Splice an unknown chunk right after the magic.
        let mut spliced = bytes[..4].to_vec();
        spliced.extend_from_slice(b"WEIRD"[..4].try_into().unwrap_or(b"WEIR"));
        spliced.extend_from_slice(&(3u32).to_le_bytes());
        spliced.extend_from_slice(&[1, 2, 3]);
        spliced.extend_from_slice(&bytes[4..]);
        assert_eq!(SomBackend.read(&spliced).unwrap(), obj);
    }

    #[test]
    fn missing_end_chunk_rejected() {
        let obj = ObjectFile::new("t.o");
        let bytes = SomBackend.write(&obj);
        // Drop the END! chunk (last 8 bytes: tag + zero length).
        assert!(SomBackend.read(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn empty_object_roundtrips() {
        let obj = ObjectFile::new("");
        let bytes = SomBackend.write(&obj);
        assert_eq!(SomBackend.read(&bytes).unwrap(), obj);
    }
}
