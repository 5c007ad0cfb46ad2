//! XOF — the relocatable object format underlying the OMOS reproduction.
//!
//! The paper manipulates HP SOM and BSD `a.out` object files through "an
//! idealized interface for symbol manipulation". This crate provides that
//! idealized interface from scratch:
//!
//! * [`ObjectFile`] — sections, a symbol table, and relocations;
//! * [`View`] — a cheap, immutable overlay over a shared object file that
//!   renames, hides, virtualizes, or copies symbols without touching the
//!   section bytes (the paper's "views" which allow "fast, efficient,
//!   incremental modification of a symbol namespace");
//! * [`encode`] — two wire encodings (`aout`-style and `som`-style) behind a
//!   BFD-like backend switch, mirroring the paper's portability layer;
//! * [`regex`] — a small self-contained regular-expression engine, because
//!   "module operations typically take a regular expression as a
//!   specification of the symbols to select".
//!
//! Nothing in this crate knows about the U32 instruction set or the simulated
//! operating system; it is pure data structures and serialization.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod encode;
pub mod error;
pub mod hash;
pub mod object;
pub mod regex;
pub mod reloc;
pub mod section;
pub mod symbol;
pub mod view;

pub use error::{ObjError, Result};
pub use hash::{fnv1a, ContentHash};
pub use object::ObjectFile;
pub use regex::Regex;
pub use reloc::{RelocKind, Relocation};
pub use section::{Section, SectionKind};
pub use symbol::{upgrade, Symbol, SymbolBinding, SymbolDef, SymbolTable, Upgrade};
pub use view::View;
