//! The OMOS object/meta-object server.
//!
//! This crate is the paper's primary contribution: "a shared library
//! implementation based on OMOS, an Object/Meta-Object Server, which
//! provides program linking and loading facilities as a special case of
//! generic object instantiation."
//!
//! * [`json`] — the workspace's one JSON reader and writer: every
//!   report and export renders through [`json::Json::render`];
//! * [`namespace`] — the "hierarchical namespace, whose names represent
//!   meta-objects, executable code fragments, or directories";
//! * [`cache`] — the multi-level cache: OMOS "treats executable images as
//!   a cache, translating from more expressive forms as necessary";
//! * [`server`] — the [`server::Omos`] server: blueprint instantiation,
//!   constraint-driven library placement, the self-contained and
//!   partial-image schemes, and dynamic loading into running programs;
//! * [`client`] — the client side: the bootstrap loader (`#!/bin/omos`),
//!   integrated exec, and the per-process [`client::OmosBinder`];
//! * [`monitor`] — monitoring-driven procedure reordering (§4.1/§6);
//! * [`persist`] — crash-safe durability: checkpoint/restore of the
//!   namespace, image cache, and placement state, plus the write-ahead
//!   binding journal;
//! * [`spill`] — the tier-2 image store: budget-evicted images sealed
//!   in the persist layer's content-addressed format, faulted back in
//!   through the restore verification chain instead of a relink;
//! * [`sync`] — the concurrency primitives behind the `&self` request
//!   paths: the dependency-checked caches and per-key single-flight
//!   coalescing;
//! * [`trace`] — request-level structured tracing and metrics: per-stage
//!   span trees in a bounded ring, latency histograms, cache/flight
//!   counter families.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod cache;
pub mod client;
pub mod error;
pub mod json;
pub mod monitor;
pub mod namespace;
pub mod persist;
pub mod server;
pub mod spill;
pub mod sync;
pub mod trace;

pub use cache::{CacheStats, CachedImage, EvictionPolicy, ImageCache};
pub use client::{
    exec_bootstrap, exec_file, exec_integrated, lint_request, live_update, run_under_omos,
    OmosBinder,
};
pub use error::OmosError;
pub use namespace::{Entry, Namespace};
pub use persist::{stored_manifests, CheckpointReport, RestoreReport};
pub use server::{DynamicLoadReply, InstantiateReply, Omos, ServerStats};
pub use spill::{SpillStats, SpillTier};
pub use sync::SingleFlight;
pub use trace::{RestoreDrops, TraceSnapshot, Tracer};
