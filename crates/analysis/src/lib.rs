//! Pre-link static analysis of blueprints and m-graphs.
//!
//! The m-graph evaluator (and the linker behind it) reports problems one
//! at a time, at instantiation time, after paying for section-byte
//! merges. This crate answers the same questions *symbolically*: it
//! folds per-node symbol-flow summaries (definitions, references,
//! hidden and frozen names) through every blueprint operator without
//! ever materializing a view or touching section bytes, and emits
//! structured [`Diagnostic`]s with severities and blueprint source
//! spans.
//!
//! The summaries are not a re-implementation of the operator semantics:
//! each view operation is applied via
//! [`omos_obj::view::apply_view_op`] to a *skeleton* object file (the
//! real symbol table and relocations over zero-byte sections), and
//! merges replay [`omos_obj::SymbolTable::insert`]'s upgrade rules — so
//! the verdicts cannot drift from what evaluation would do. The
//! no-materialize guarantee is checkable:
//! [`omos_obj::view::materialize_count`] does not move across an
//! [`analyze_blueprint`] call.
//!
//! Detectors:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | OM001 | error | a namespace path no operand resolves |
//! | OM002 | error | an external reference nothing defines or exports |
//! | OM003 | error | a duplicate definition `merge` would reject |
//! | OM004 | error | meta-objects referencing each other in a cycle |
//! | OM005 | warning | a pattern matching zero symbols (dead operation) |
//! | OM006 | warning | an `override` whose replacement is never referenced |
//! | OM007 | warning | an operation whose pattern hits only frozen names |
//! | OM008 | warning | address-constraint regions that overlap |
//! | OM009 | error | a merge of only shared libraries (empty client) |
//! | OM010 | error | an unparseable symbol-selector regex |
//! | OM011 | error | a `source` operand that does not compile |
//! | OM012 | warning | a symbol exported by more than one library (ambiguous provider) |
//! | OM013 | warning | an interposition whose effect depends on operator order |
//! | OM014 | warning | a namespace path resolved at several sites (generation race window) |
//! | OM015 | warning | a library without a pinned base (history-dependent placement) |
//! | OM016 | error | the static manifest disagrees with what the linker did |
//! | OM017 | error | a deny policy matches a symbol the program references |
//!
//! OM016 is not produced by the blueprint walk: it is emitted by
//! [`manifest::divergence`] when a statically derived
//! [`manifest::ResolutionManifest`] is compared against one built from
//! real link artifacts — the analyzer/linker contract the differential
//! tests enforce.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt;
use std::sync::Arc;

use omos_blueprint::{Blueprint, Span};
use omos_obj::ObjectFile;

mod analyzer;
pub mod manifest;
pub mod policy;
pub mod relink;

pub use analyzer::{analyze_blueprint, analyze_blueprint_report, AnalysisReport};
pub use policy::{apply_link_policies, PolicyError, PolicyOutcome};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but evaluable: the blueprint will instantiate, but an
    /// operation does nothing or placement will degrade.
    Warning,
    /// Evaluation or linking of this blueprint will fail.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, tied to the blueprint source when the location is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable detector code (`OM001`...).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Byte span of the offending form in the blueprint source. `None`
    /// for programmatically-built blueprints and for findings that
    /// originate inside a referenced meta-object's own source.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Renders as `error[OM003]: message` with the span appended.
    #[must_use]
    pub fn render(&self) -> String {
        match self.span {
            Some(s) => format!(
                "{}[{}]: {} (at {s})",
                self.severity, self.code, self.message
            ),
            None => format!("{}[{}]: {}", self.severity, self.code, self.message),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// What a namespace path resolves to, for analysis purposes.
///
/// Unlike [`omos_blueprint::ResolvedNode`] this has an explicit
/// `Missing` arm: a failed lookup is a *finding*, not an abort — the
/// analyzer keeps going and reports everything else too.
#[derive(Debug, Clone)]
pub enum LintResolved {
    /// A relocatable object file.
    Object(Arc<ObjectFile>),
    /// Another meta-object.
    Meta(Blueprint),
    /// The path does not resolve.
    Missing,
}

/// Name resolution the analyzer needs; implemented over the server
/// namespace, over the Unix filesystem (`ofe lint`), and over test maps.
pub trait LintContext {
    /// Resolves a namespace path.
    fn resolve(&mut self, path: &str) -> LintResolved;
}
