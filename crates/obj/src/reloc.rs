//! Relocations: deferred address fixups recorded against symbols.

use crate::hash::Fnv64;

/// How a relocation site is patched once the target address is known.
///
/// U32 instructions are 8 bytes with a 32-bit immediate in their last four
/// bytes; `Abs32`/`Pcrel32` patch exactly that immediate field (or a bare
/// 32-bit data word). `Hi16`/`Lo16` exist to model PA-RISC-style split
/// immediates used by the `som` backend, and `Abs64` covers pointer-sized
/// data words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelocKind {
    /// 32-bit absolute address.
    Abs32,
    /// 32-bit PC-relative displacement. The displacement is computed from
    /// the *start of the instruction containing the site* minus 8 bytes
    /// (i.e. relative to the next instruction), matching the VM's branch
    /// semantics.
    Pcrel32,
    /// 64-bit absolute address (data words only).
    Abs64,
    /// High 16 bits of a 32-bit absolute address.
    Hi16,
    /// Low 16 bits of a 32-bit absolute address.
    Lo16,
}

impl RelocKind {
    /// Number of bytes patched at the site.
    #[must_use]
    pub fn width(self) -> u64 {
        match self {
            RelocKind::Abs32 | RelocKind::Pcrel32 => 4,
            RelocKind::Abs64 => 8,
            RelocKind::Hi16 | RelocKind::Lo16 => 2,
        }
    }

    /// Stable small integer for serialization.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            RelocKind::Abs32 => 0,
            RelocKind::Pcrel32 => 1,
            RelocKind::Abs64 => 2,
            RelocKind::Hi16 => 3,
            RelocKind::Lo16 => 4,
        }
    }

    /// Inverse of [`RelocKind::code`].
    #[must_use]
    pub fn from_code(c: u8) -> Option<RelocKind> {
        match c {
            0 => Some(RelocKind::Abs32),
            1 => Some(RelocKind::Pcrel32),
            2 => Some(RelocKind::Abs64),
            3 => Some(RelocKind::Hi16),
            4 => Some(RelocKind::Lo16),
            _ => None,
        }
    }
}

/// A relocation record: "patch `section`+`offset` with the address of
/// `symbol` (+`addend`), encoded per `kind`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relocation {
    /// Index of the section containing the site.
    pub section: usize,
    /// Byte offset of the site within that section.
    pub offset: u64,
    /// Patch encoding.
    pub kind: RelocKind,
    /// Name of the target symbol.
    pub symbol: String,
    /// Constant added to the symbol's address.
    pub addend: i64,
}

impl Relocation {
    /// Creates a relocation with no addend.
    #[must_use]
    pub fn new(section: usize, offset: u64, kind: RelocKind, symbol: &str) -> Relocation {
        Relocation {
            section,
            offset,
            kind,
            symbol: symbol.to_string(),
            addend: 0,
        }
    }

    /// Sets the addend.
    #[must_use]
    pub fn with_addend(mut self, addend: i64) -> Relocation {
        self.addend = addend;
        self
    }

    /// Feeds this relocation into a hasher.
    pub fn hash_into(&self, h: &mut Fnv64) {
        h.write(&(self.section as u64).to_le_bytes());
        h.write(&self.offset.to_le_bytes());
        h.write(&[self.kind.code()]);
        h.write(self.symbol.as_bytes());
        h.write(&[0xfe]);
        h.write(&self.addend.to_le_bytes());
    }
}

/// Patches `value` into `bytes` at `offset` according to `kind`.
///
/// `value` is the already-computed quantity (absolute address or relative
/// displacement). Returns `false` if the site does not fit in the buffer.
#[must_use]
pub fn apply_patch(bytes: &mut [u8], offset: u64, kind: RelocKind, value: i64) -> bool {
    let off = offset as usize;
    let w = kind.width() as usize;
    if off + w > bytes.len() {
        return false;
    }
    match kind {
        RelocKind::Abs32 | RelocKind::Pcrel32 => {
            bytes[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes());
        }
        RelocKind::Abs64 => {
            bytes[off..off + 8].copy_from_slice(&(value as u64).to_le_bytes());
        }
        RelocKind::Hi16 => {
            let hi = ((value as u32) >> 16) as u16;
            bytes[off..off + 2].copy_from_slice(&hi.to_le_bytes());
        }
        RelocKind::Lo16 => {
            let lo = (value as u32 & 0xffff) as u16;
            bytes[off..off + 2].copy_from_slice(&lo.to_le_bytes());
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(RelocKind::Abs32.width(), 4);
        assert_eq!(RelocKind::Pcrel32.width(), 4);
        assert_eq!(RelocKind::Abs64.width(), 8);
        assert_eq!(RelocKind::Hi16.width(), 2);
        assert_eq!(RelocKind::Lo16.width(), 2);
    }

    #[test]
    fn codes_roundtrip() {
        for k in [
            RelocKind::Abs32,
            RelocKind::Pcrel32,
            RelocKind::Abs64,
            RelocKind::Hi16,
            RelocKind::Lo16,
        ] {
            assert_eq!(RelocKind::from_code(k.code()), Some(k));
        }
        assert_eq!(RelocKind::from_code(99), None);
    }

    #[test]
    fn patch_abs32() {
        let mut b = vec![0u8; 8];
        assert!(apply_patch(&mut b, 4, RelocKind::Abs32, 0x1234_5678));
        assert_eq!(&b[4..8], &0x1234_5678u32.to_le_bytes());
    }

    #[test]
    fn patch_pcrel_negative() {
        let mut b = vec![0u8; 4];
        assert!(apply_patch(&mut b, 0, RelocKind::Pcrel32, -16));
        assert_eq!(
            u32::from_le_bytes(b[0..4].try_into().unwrap()),
            (-16i32) as u32
        );
    }

    #[test]
    fn patch_hi_lo_pair_reconstructs() {
        let addr: u32 = 0xdead_beef;
        let mut b = vec![0u8; 4];
        assert!(apply_patch(&mut b, 0, RelocKind::Hi16, i64::from(addr)));
        assert!(apply_patch(&mut b, 2, RelocKind::Lo16, i64::from(addr)));
        let hi = u16::from_le_bytes(b[0..2].try_into().unwrap());
        let lo = u16::from_le_bytes(b[2..4].try_into().unwrap());
        assert_eq!((u32::from(hi) << 16) | u32::from(lo), addr);
    }

    #[test]
    fn patch_out_of_range_is_rejected() {
        let mut b = vec![0u8; 4];
        assert!(!apply_patch(&mut b, 2, RelocKind::Abs32, 0));
        assert!(!apply_patch(&mut b, 0, RelocKind::Abs64, 0));
    }

    #[test]
    fn addend_builder() {
        let r = Relocation::new(0, 8, RelocKind::Abs32, "_x").with_addend(4);
        assert_eq!(r.addend, 4);
        assert_eq!(r.symbol, "_x");
    }
}
