//! Address-space constraint solving.
//!
//! §3.5: "OMOS describes an address space in terms of prioritized
//! constraints. A *required* constraint is that no two objects may overlap.
//! A *highly desired* constraint is that existing implementations be
//! reused. Other weaker constraints, optionally provided by the user, may
//! specify desired placement of the object (e.g., library) within the
//! address space. When no existing implementation meets all the given
//! constraints, OMOS will generate (and cache) a new one."
//!
//! * [`PlacementSolver`] — the production solver: first-fit placement under
//!   the three priority levels, a reuse table keyed by content, and a
//!   conflict log for the "system manager feedback" loop of §4.1.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod solver;

pub use solver::{
    Allocation, ConflictRecord, PlaceError, Placement, PlacementRequest, PlacementSolver, Priority,
    RegionClass, SegmentRequest, SolverState,
};
