//! The OMOS blueprint language and m-graph evaluator.
//!
//! §3.2–3.4: "Meta-objects contain a specification, known as a blueprint,
//! which describes how to combine objects and other meta-objects to
//! produce an instance of the class. These rules map into a graph of
//! operations, the m-graph. ... Before executing the m-graph, OMOS
//! applies any user-specified specializations to it."
//!
//! * [`sexpr`] — the "simple Lisp-like syntax" parser;
//! * [`ast`] — the m-graph ([`ast::MNode`]) and blueprint representation,
//!   with structural hashing for the server caches;
//! * [`source`] — the `source` operator: assembles U32 assembly or
//!   compiles the mini-C subset the paper's Figure 3 uses;
//! * [`eval`] — the evaluation's interface: a pluggable
//!   [`eval::EvalContext`] (namespace resolution, sub-result caching,
//!   dynamic-library registration), its errors and output, and
//!   [`eval::eval_blueprint`], producing a link-ready
//!   [`omos_module::Module`];
//! * [`plan`] — the evaluation itself: a planning pass lowers the
//!   m-graph into a DAG of work units, and an execution pass runs them
//!   in ordinal order on the calling thread.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod ast;
pub mod eval;
pub mod plan;
pub mod sexpr;
pub mod source;

pub use ast::{
    Blueprint, BlueprintError, LinkPolicy, MNode, NodePath, PolicyKind, SpanMap, SpecKind,
};
pub use eval::{
    eval_blueprint, CachedEval, EvalContext, EvalError, EvalOutput, EvalStats, LibraryUse,
    ResolvedNode,
};
pub use plan::{eval_blueprint_with_units, EvalWithUnits, UnitReport};
pub use sexpr::{parse_sexprs, Sexpr, SexprKind, Span, MAX_NODE_DEPTH};
pub use source::{compile_source, SourceError};
