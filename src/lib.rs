//! OMOS — a reproduction of "Fast and Flexible Shared Libraries"
//! (Orr, Bonn, Lepreau, Mecklenburg; USENIX Winter 1993).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`obj`] — the XOF relocatable object format, symbol views, encodings;
//! * [`isa`] — the U32 synthetic RISC ISA, assembler, and VM;
//! * [`link`] — the linker core (layout, resolution, relocation, PIC/PLT);
//! * [`module`] — the Jigsaw module operators;
//! * [`blueprint`] — the blueprint language and m-graph evaluator;
//! * [`analysis`] — the pre-link static analyzer behind `ofe lint`;
//! * [`constraint`] — address placement;
//! * [`os`] — the simulated operating system (clock, fs, vm, ipc, exec);
//! * [`core`] — the OMOS server itself;
//! * [`mod@bench`] — workload generators and the paper's experiment harnesses.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index.

pub use omos_analysis as analysis;
pub use omos_bench as bench;
pub use omos_blueprint as blueprint;
pub use omos_constraint as constraint;
pub use omos_core as core;
pub use omos_isa as isa;
pub use omos_link as link;
pub use omos_module as module;
pub use omos_obj as obj;
pub use omos_os as os;
