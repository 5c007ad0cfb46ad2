//! The linker core.
//!
//! OMOS subsumes the system linker: m-graph execution "may result in OMOS
//! ... combining and relocating fragments". This crate is that combining
//! and relocating machinery, plus the two *competitor* mechanisms the paper
//! benchmarks against and the stub generator its partial-image scheme needs:
//!
//! * [`linker`] — static linking: layout, symbol resolution, relocation.
//!   With a pre-bound `externs` map this directly implements the
//!   *self-contained* shared library scheme (client bound to a library at
//!   its constraint-chosen fixed address — zero run-time relocations);
//! * [`dynamic`] — the *native* baseline: executables with PLT stubs and a
//!   GOT, libraries with load-time relocation lists, lazy procedure
//!   binding — the work that HP-UX/SunOS-style schemes redo on every
//!   invocation;
//! * [`stubs`] — generated client stubs for the *partial-image* scheme
//!   (first call contacts OMOS, looks the routine up in a hash table, and
//!   caches the address in an indirect branch table);
//! * [`image`] — the linked, mappable result.
//!
//! All functions return work statistics ([`LinkStats`]) so the simulated
//! OS can convert linking work into simulated time.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod dynamic;
pub mod error;
pub mod image;
pub mod linker;
pub mod stubs;
pub mod wire;

pub use dynamic::{build_dyn_executable, build_dyn_library, DynExecutable, DynLibrary, PltEntry};
pub use error::{LinkError, LinkResult};
pub use image::{LinkedImage, Segment};
pub use linker::{
    layout_symbols, link, link_program, resolve_only, undefined_after, LinkOptions, LinkOutput,
    LinkStats, UnresolvedRef,
};

pub use stubs::{
    make_partial_stubs, make_policy_stubs, scan_audit_stubs, scan_stub_sites, AuditStubSite,
    FunctionHashTable, StubSite, AUDIT_STUB_INSTS, AUDIT_STUB_TEXT_BYTES, STUB_INSTS,
    STUB_TEXT_BYTES, TRAMPOLINE_INSTS,
};
pub use wire::{decode_image, encode_image};
