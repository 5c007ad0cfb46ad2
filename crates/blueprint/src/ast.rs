//! The m-graph: blueprints parsed into executable operation graphs.

use std::collections::HashMap;
use std::fmt;

use omos_constraint::RegionClass;
use omos_obj::encode::{Reader, Wire, Writer};
use omos_obj::view::ViewKind;
use omos_obj::{ContentHash, ObjError, Regex};

use crate::sexpr::{parse_sexprs, Sexpr, Span};

/// A blueprint syntax/shape error, pointing at the offending form when
/// the source location is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlueprintError {
    /// Description.
    pub msg: String,
    /// Byte span of the offending form in the blueprint source.
    pub span: Option<Span>,
}

impl BlueprintError {
    /// An error without location information.
    pub fn new(msg: impl Into<String>) -> BlueprintError {
        BlueprintError {
            msg: msg.into(),
            span: None,
        }
    }

    /// Attaches a source span.
    #[must_use]
    pub fn at(mut self, span: Span) -> BlueprintError {
        self.span = Some(span);
        self
    }
}

impl fmt::Display for BlueprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "blueprint error at {span}: {}", self.msg),
            None => write!(f, "blueprint error: {}", self.msg),
        }
    }
}

impl std::error::Error for BlueprintError {}

fn berr<T>(msg: impl Into<String>) -> Result<T, BlueprintError> {
    Err(BlueprintError::new(msg))
}

fn berr_at<T>(msg: impl Into<String>, span: Span) -> Result<T, BlueprintError> {
    Err(BlueprintError::new(msg).at(span))
}

/// The path of one m-graph node from the root: the sequence of operand
/// indices taken to reach it. The root is the empty path; `merge`'s
/// operands are children `0..n`; `override`'s are `0` and `1`; every
/// unary operator's operand is child `0`.
pub type NodePath = Vec<u32>;

/// Source spans for m-graph nodes, keyed by [`NodePath`].
///
/// This is *location metadata*, deliberately excluded from equality (two
/// structurally identical blueprints compare equal regardless of
/// layout) and from [`Blueprint::hash`] (cache keys must not depend on
/// whitespace).
#[derive(Debug, Clone, Default, Eq)]
pub struct SpanMap {
    map: HashMap<NodePath, Span>,
}

impl PartialEq for SpanMap {
    fn eq(&self, _other: &SpanMap) -> bool {
        true // metadata: never participates in structural equality
    }
}

impl SpanMap {
    /// Records the span of the node at `path`.
    pub fn insert(&mut self, path: NodePath, span: Span) {
        self.map.insert(path, span);
    }

    /// The span of the node at `path`, if recorded.
    #[must_use]
    pub fn get(&self, path: &[u32]) -> Option<Span> {
        self.map.get(path).copied()
    }

    /// Number of nodes with recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether any spans are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Specialization kinds (§3.4, §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecKind {
    /// `lib-static`: link the operand directly into the client.
    Static,
    /// `lib-constrained`: a self-contained shared library whose segments
    /// prefer the given addresses.
    Constrained(Vec<(RegionClass, u64)>),
    /// `lib-dynamic`: replace the operand with generated partial-image
    /// stubs; the implementation loads on first call.
    Dynamic,
    /// `lib-dynamic-impl`: the loadable implementation of a dynamic
    /// library (what the stubs fetch).
    DynamicImpl,
}

/// One node of the m-graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MNode {
    /// A namespace path: an object file or another meta-object.
    Leaf(String),
    /// `merge`: n-ary strict merge.
    Merge(Vec<MNode>),
    /// `override`: conflicts resolve in favor of the second operand.
    Override(Box<MNode>, Box<MNode>),
    /// A view operator — `rename` (and its ref/def-only variants),
    /// `hide`, `show`, `restrict`, `project`, `copy_as` or `freeze` —
    /// applied to its operand. The [`ViewKind`] table holds the
    /// operators' names, arities and hash tags.
    View {
        /// Which operator.
        kind: ViewKind,
        /// Symbol selector.
        pattern: String,
        /// Replacement for the matched span; empty unless
        /// [`ViewKind::takes_replacement`].
        replacement: String,
        /// Operand.
        operand: Box<MNode>,
    },
    /// `initializers`.
    Initializers(Box<MNode>),
    /// `source`: compile source text into a fragment.
    Source {
        /// Language: `"c"` or `"asm"`.
        lang: String,
        /// Source text.
        code: String,
    },
    /// `specialize`.
    Specialize {
        /// The specialization to apply.
        kind: SpecKind,
        /// Operand.
        operand: Box<MNode>,
    },
}

impl MNode {
    /// Structural hash — the cache key for evaluated sub-graphs.
    #[must_use]
    pub fn hash(&self) -> ContentHash {
        self.hash_into(ContentHash::EMPTY)
    }

    /// The name a library use of this node carries: the namespace path
    /// of a leaf, else a synthetic name from the structural hash.
    #[must_use]
    pub fn library_name(&self) -> String {
        match self {
            MNode::Leaf(p) => p.clone(),
            other => format!("<inline:{}>", other.hash()),
        }
    }

    /// The node's direct operands, in source order (a `merge`'s items,
    /// `override`'s two sides, every other operator's single operand).
    pub fn operands(&self) -> impl Iterator<Item = &MNode> {
        let (items, sides): (&[MNode], [Option<&MNode>; 2]) = match self {
            MNode::Leaf(_) | MNode::Source { .. } => (&[], [None, None]),
            MNode::Merge(items) => (items, [None, None]),
            MNode::Override(a, b) => (&[], [Some(a), Some(b)]),
            MNode::View { operand, .. }
            | MNode::Initializers(operand)
            | MNode::Specialize { operand, .. } => (&[], [Some(operand), None]),
        };
        items.iter().chain(sides.into_iter().flatten())
    }

    fn hash_into(&self, h: ContentHash) -> ContentHash {
        match self {
            MNode::Leaf(p) => h.with_str("leaf").with_str(p),
            MNode::Merge(items) => {
                let mut h = h.with_str("merge").with_u64(items.len() as u64);
                for i in items {
                    h = i.hash_into(h);
                }
                h
            }
            MNode::Override(a, b) => b.hash_into(a.hash_into(h.with_str("override"))),
            MNode::View {
                kind,
                pattern,
                replacement,
                operand,
            } => operand.hash_into(kind.hash_into(h, pattern, replacement)),
            MNode::Initializers(o) => o.hash_into(h.with_str("initializers")),
            MNode::Source { lang, code } => h.with_str("source").with_str(lang).with_str(code),
            MNode::Specialize { kind, operand } => {
                let h = match kind {
                    SpecKind::Static => h.with_str("spec-static"),
                    SpecKind::Dynamic => h.with_str("spec-dynamic"),
                    SpecKind::DynamicImpl => h.with_str("spec-dynamic-impl"),
                    SpecKind::Constrained(cs) => {
                        let mut h = h.with_str("spec-constrained");
                        for (c, a) in cs {
                            h = h.with_str(c.tag()).with_u64(*a);
                        }
                        h
                    }
                };
                operand.hash_into(h)
            }
        }
    }

    /// Parses one m-graph expression from an s-expression.
    pub fn from_sexpr(s: &Sexpr) -> Result<MNode, BlueprintError> {
        let mut spans = SpanMap::default();
        MNode::from_sexpr_spanned(s, Vec::new(), &mut spans)
    }

    /// Parses one m-graph expression, recording each node's source span
    /// into `spans` under its [`NodePath`] (`path` is this node's path).
    pub fn from_sexpr_spanned(
        s: &Sexpr,
        path: NodePath,
        spans: &mut SpanMap,
    ) -> Result<MNode, BlueprintError> {
        spans.insert(path.clone(), s.span);
        let child = |i: u32| -> NodePath {
            let mut p = path.clone();
            p.push(i);
            p
        };
        if let Some(p) = s.as_sym() {
            return Ok(MNode::Leaf(p.to_string()));
        }
        let Some(items) = s.as_list() else {
            return berr_at(
                format!("expected an m-graph expression, found `{s}`"),
                s.span,
            );
        };
        let Some(op) = items.first().and_then(Sexpr::as_sym) else {
            return berr_at("operation list must start with an operator symbol", s.span);
        };
        let args = &items[1..];
        if let Some(kind) = ViewKind::from_name(op) {
            return parse_view(op, kind, s, args, &path, spans);
        }
        match op {
            "merge" => {
                if args.is_empty() {
                    return berr_at("merge needs at least one operand", s.span);
                }
                Ok(MNode::Merge(
                    args.iter()
                        .enumerate()
                        .map(|(i, a)| MNode::from_sexpr_spanned(a, child(i as u32), spans))
                        .collect::<Result<_, _>>()?,
                ))
            }
            "override" => {
                if args.len() != 2 {
                    return berr_at("override needs exactly two operands", s.span);
                }
                Ok(MNode::Override(
                    Box::new(MNode::from_sexpr_spanned(&args[0], child(0), spans)?),
                    Box::new(MNode::from_sexpr_spanned(&args[1], child(1), spans)?),
                ))
            }
            "initializers" => {
                if args.len() != 1 {
                    return berr_at("initializers needs exactly one operand", s.span);
                }
                Ok(MNode::Initializers(Box::new(MNode::from_sexpr_spanned(
                    &args[0],
                    child(0),
                    spans,
                )?)))
            }
            "source" => {
                let lang = args.first().and_then(Sexpr::as_str).ok_or_else(|| {
                    BlueprintError::new("source needs a language string").at(s.span)
                })?;
                let code = args
                    .get(1)
                    .and_then(Sexpr::as_str)
                    .ok_or_else(|| BlueprintError::new("source needs a code string").at(s.span))?;
                Ok(MNode::Source {
                    lang: lang.to_string(),
                    code: code.to_string(),
                })
            }
            "specialize" => parse_specialize(s, args, &path, spans),
            "constrain" => {
                // (constrain "T" 0x1000000 m): sugar for a
                // single-region constrained specialization.
                if args.len() != 3 {
                    return berr_at("constrain needs TAG ADDR OPERAND", s.span);
                }
                let cs = parse_constraint_pairs(&args[..2])?;
                Ok(MNode::Specialize {
                    kind: SpecKind::Constrained(cs),
                    operand: Box::new(MNode::from_sexpr_spanned(&args[2], child(0), spans)?),
                })
            }
            other => berr_at(format!("unknown operator `{other}`"), s.span),
        }
    }
}

/// Parses `(OP PATTERN [REPLACEMENT] OPERAND)` for a view operator.
fn parse_view(
    op: &str,
    kind: ViewKind,
    form: &Sexpr,
    args: &[Sexpr],
    path: &[u32],
    spans: &mut SpanMap,
) -> Result<MNode, BlueprintError> {
    let takes_replacement = kind.takes_replacement();
    let arity = if takes_replacement { 3 } else { 2 };
    if args.len() != arity {
        let shape = if takes_replacement {
            "PATTERN REPLACEMENT OPERAND"
        } else {
            "PATTERN OPERAND"
        };
        return berr_at(format!("{op} needs {shape}"), form.span);
    }
    let string = |arg: &Sexpr, what: &str| {
        arg.as_str().map(str::to_string).ok_or_else(|| {
            BlueprintError::new(format!("{op}: {what} must be a string")).at(form.span)
        })
    };
    let pattern = string(&args[0], "pattern")?;
    let replacement = if takes_replacement {
        string(&args[1], "replacement")?
    } else {
        String::new()
    };
    let mut child = path.to_vec();
    child.push(0);
    Ok(MNode::View {
        kind,
        pattern,
        replacement,
        operand: Box::new(MNode::from_sexpr_spanned(&args[arity - 1], child, spans)?),
    })
}

fn parse_specialize(
    form: &Sexpr,
    args: &[Sexpr],
    path: &[u32],
    spans: &mut SpanMap,
) -> Result<MNode, BlueprintError> {
    let kind_name = args
        .first()
        .and_then(Sexpr::as_str)
        .ok_or_else(|| BlueprintError::new("specialize needs a kind string").at(form.span))?;
    let (kind, operand) = match kind_name {
        "lib-static" | "lib-dynamic" | "lib-dynamic-impl" => {
            if args.len() != 2 {
                return berr_at(
                    format!("specialize {kind_name} needs one operand"),
                    form.span,
                );
            }
            let kind = match kind_name {
                "lib-static" => SpecKind::Static,
                "lib-dynamic" => SpecKind::Dynamic,
                _ => SpecKind::DynamicImpl,
            };
            (kind, &args[1])
        }
        "lib-constrained" => {
            // (specialize "lib-constrained" (list "T" 0x1000000) /lib/libc)
            if args.len() != 3 {
                return berr_at(
                    "specialize lib-constrained needs (list ...) and an operand",
                    form.span,
                );
            }
            let list = args[1]
                .as_list()
                .filter(|l| l.first().and_then(Sexpr::as_sym) == Some("list"))
                .ok_or_else(|| {
                    BlueprintError::new("lib-constrained constraints must be a (list ...)")
                        .at(args[1].span)
                })?;
            (
                SpecKind::Constrained(parse_constraint_pairs(&list[1..])?),
                &args[2],
            )
        }
        other => return berr_at(format!("unknown specialization `{other}`"), form.span),
    };
    let mut child = path.to_vec();
    child.push(0);
    Ok(MNode::Specialize {
        kind,
        operand: Box::new(MNode::from_sexpr_spanned(operand, child, spans)?),
    })
}

fn parse_constraint_pairs(items: &[Sexpr]) -> Result<Vec<(RegionClass, u64)>, BlueprintError> {
    if !items.len().is_multiple_of(2) {
        let span = items.first().map(|s| s.span);
        let mut e = BlueprintError::new("constraints must be TAG ADDR pairs");
        if let Some(span) = span {
            e = e.at(span);
        }
        return Err(e);
    }
    let mut out = Vec::new();
    for pair in items.chunks(2) {
        let tag = pair[0].as_str().ok_or_else(|| {
            BlueprintError::new("constraint tag must be a string").at(pair[0].span)
        })?;
        let class = RegionClass::from_tag(tag).ok_or_else(|| {
            BlueprintError::new(format!("unknown constraint tag `{tag}`")).at(pair[0].span)
        })?;
        let addr = pair[1].as_num().ok_or_else(|| {
            BlueprintError::new("constraint address must be a number").at(pair[1].span)
        })?;
        out.push((class, addr as u64));
    }
    Ok(out)
}

/// The kinds of per-link policy a blueprint can attach (`policy` forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Linking fails (hard error) when the program can reach a matching
    /// symbol.
    Deny,
    /// Matching program-defined symbols are wrapped behind interposition
    /// trampolines (the generalized §6 figure).
    Trampoline,
    /// Like `Trampoline`, but the stub also counts the entry in a
    /// per-process counter slot and logs it through the monitor.
    Audit,
}

impl PolicyKind {
    /// The blueprint-syntax tag for this kind.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            PolicyKind::Deny => "deny",
            PolicyKind::Trampoline => "trampoline",
            PolicyKind::Audit => "audit",
        }
    }

    /// Parses a blueprint-syntax tag.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<PolicyKind> {
        match tag {
            "deny" => Some(PolicyKind::Deny),
            "trampoline" => Some(PolicyKind::Trampoline),
            "audit" => Some(PolicyKind::Audit),
            _ => None,
        }
    }
}

/// One per-link policy: a kind plus the symbol-selecting regex it
/// applies to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LinkPolicy {
    /// What the policy does to matching symbols.
    pub kind: PolicyKind,
    /// Symbol selector (same regex dialect as the module operations).
    pub pattern: String,
}

/// A policy kind's wire form in resolution frames: its blueprint-syntax
/// tag. (Blueprint frames predate it and store a one-byte code.)
impl Wire for PolicyKind {
    fn put(&self, w: &mut Writer) {
        w.str(self.tag());
    }

    fn get(r: &mut Reader<'_>) -> omos_obj::Result<Self> {
        let tag = r.str()?;
        PolicyKind::from_tag(&tag)
            .ok_or_else(|| ObjError::Malformed(format!("bad policy kind `{tag}`")))
    }
}

omos_obj::wire_record! { LinkPolicy { kind, pattern } }

/// A parsed blueprint: optional default constraints plus the root m-graph.
///
/// # Examples
///
/// Figure 1's library meta-object shape:
///
/// ```
/// use omos_blueprint::{Blueprint, MNode};
///
/// let bp = Blueprint::parse(
///     "(constraint-list \"T\" 0x100000)\n(merge /libc/gen /libc/stdio)",
/// )?;
/// assert_eq!(bp.constraints.len(), 1);
/// assert!(matches!(bp.root, MNode::Merge(ref items) if items.len() == 2));
/// # Ok::<(), omos_blueprint::ast::BlueprintError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blueprint {
    /// Default placement constraints (`constraint-list` forms).
    pub constraints: Vec<(RegionClass, u64)>,
    /// The root operation.
    pub root: MNode,
    /// Source spans of the m-graph nodes, keyed by [`NodePath`]
    /// (metadata: excluded from equality and [`Blueprint::hash`]).
    pub spans: SpanMap,
    /// Source spans of each `constraints` entry, parallel to it (empty
    /// when the blueprint was built programmatically).
    pub constraint_spans: Vec<Span>,
    /// Per-link policies (`policy` forms), in source order.
    pub policies: Vec<LinkPolicy>,
    /// Source spans of each `policies` entry, parallel to it (empty when
    /// the blueprint was built programmatically).
    pub policy_spans: Vec<Span>,
}

impl Blueprint {
    /// Parses blueprint text: any number of `constraint-list` forms and
    /// exactly one m-graph expression.
    pub fn parse(src: &str) -> Result<Blueprint, BlueprintError> {
        let forms = parse_sexprs(src)
            .map_err(|e| BlueprintError::new(e.msg).at(Span::new(e.offset, e.offset)))?;
        let mut constraints = Vec::new();
        let mut constraint_spans = Vec::new();
        let mut policies = Vec::new();
        let mut policy_spans = Vec::new();
        let mut spans = SpanMap::default();
        let mut root = None;
        for f in &forms {
            if let Some(l) = f.as_list() {
                if l.first().and_then(Sexpr::as_sym) == Some("constraint-list") {
                    let pairs = parse_constraint_pairs(&l[1..])?;
                    for (i, _) in pairs.iter().enumerate() {
                        // Span of the TAG ADDR pair itself.
                        let tag = &l[1 + 2 * i];
                        let addr = &l[2 + 2 * i];
                        constraint_spans.push(Span::new(tag.span.start, addr.span.end));
                    }
                    constraints.extend(pairs);
                    continue;
                }
                if l.first().and_then(Sexpr::as_sym) == Some("policy") {
                    policies.push(parse_policy(f, &l[1..])?);
                    policy_spans.push(f.span);
                    continue;
                }
            }
            if root.is_some() {
                return berr_at("blueprint has more than one root expression", f.span);
            }
            root = Some(MNode::from_sexpr_spanned(f, Vec::new(), &mut spans)?);
        }
        match root {
            Some(root) => Ok(Blueprint {
                constraints,
                root,
                spans,
                constraint_spans,
                policies,
                policy_spans,
            }),
            None => berr("blueprint has no root expression"),
        }
    }

    /// Wraps a programmatically-built m-graph (no source spans).
    #[must_use]
    pub fn from_root(root: MNode) -> Blueprint {
        Blueprint {
            constraints: Vec::new(),
            root,
            spans: SpanMap::default(),
            constraint_spans: Vec::new(),
            policies: Vec::new(),
            policy_spans: Vec::new(),
        }
    }

    /// The policy set in canonical form: sorted and deduplicated. This
    /// is what the resolution manifest records and what every consumer
    /// (hashing, linking, diffing) iterates, so source order and
    /// duplicate `policy` forms never change behavior.
    #[must_use]
    pub fn canonical_policies(&self) -> Vec<LinkPolicy> {
        let mut ps = self.policies.clone();
        ps.sort();
        ps.dedup();
        ps
    }

    /// Structural hash including constraints and policies.
    #[must_use]
    pub fn hash(&self) -> ContentHash {
        let mut h = ContentHash::EMPTY.with_str("blueprint");
        for (c, a) in &self.constraints {
            h = h.with_str(c.tag()).with_u64(*a);
        }
        // Gated on non-empty so policy-free blueprints hash exactly as
        // they always have (cache keys, manifests, and replies for the
        // existing corpus are untouched by the policy layer's existence).
        for p in self.canonical_policies() {
            h = h
                .with_str("policy")
                .with_str(p.kind.tag())
                .with_str(&p.pattern);
        }
        self.root.hash_into(h)
    }
}

/// Parses one `(policy KIND "PATTERN")` form. The pattern is compiled
/// eagerly so a bad regex is a parse error with a span, not a link-time
/// surprise.
fn parse_policy(form: &Sexpr, args: &[Sexpr]) -> Result<LinkPolicy, BlueprintError> {
    if args.len() != 2 {
        return berr_at("policy needs KIND \"PATTERN\"", form.span);
    }
    let tag = args[0]
        .as_str()
        .or_else(|| args[0].as_sym())
        .ok_or_else(|| BlueprintError::new("policy kind must be a string").at(args[0].span))?;
    let kind = PolicyKind::from_tag(tag).ok_or_else(|| {
        BlueprintError::new(format!(
            "unknown policy kind `{tag}` (expected deny, trampoline, or audit)"
        ))
        .at(args[0].span)
    })?;
    let pattern = args[1]
        .as_str()
        .ok_or_else(|| BlueprintError::new("policy pattern must be a string").at(args[1].span))?;
    Regex::new(pattern)
        .map_err(|e| BlueprintError::new(format!("policy pattern: {e}")).at(args[1].span))?;
    Ok(LinkPolicy {
        kind,
        pattern: pattern.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_obj::view::RenameTarget;

    #[test]
    fn figure1_blueprint_parses() {
        let bp = Blueprint::parse(
            r#"
            (constraint-list "T" 0x100000 "D" 0x40200000)
            (merge /libc/gen /libc/stdio /libc/string /libc/stdlib
                   /libc/hppa /libc/net /libc/quad /libc/rpc)
            "#,
        )
        .unwrap();
        assert_eq!(
            bp.constraints,
            vec![
                (RegionClass::Text, 0x10_0000),
                (RegionClass::Data, 0x4020_0000)
            ]
        );
        match &bp.root {
            MNode::Merge(items) => assert_eq!(items.len(), 8),
            other => panic!("expected merge, got {other:?}"),
        }
        assert_eq!(bp.constraint_spans.len(), 2);
    }

    #[test]
    fn figure2_blueprint_parses() {
        let bp = Blueprint::parse(
            r#"
            (hide "_REAL_malloc"
              (merge
                (restrict "^_malloc$"
                  (copy_as "^_malloc$" "_REAL_malloc"
                    (merge /bin/ls.o /lib/libc.o)))
                /lib/test_malloc.o))
            "#,
        )
        .unwrap();
        let MNode::View {
            kind: ViewKind::Hide,
            pattern,
            operand,
            ..
        } = &bp.root
        else {
            panic!("expected hide at root");
        };
        assert_eq!(pattern, "_REAL_malloc");
        let MNode::Merge(items) = operand.as_ref() else {
            panic!("expected merge under hide");
        };
        assert!(matches!(items[1], MNode::Leaf(ref p) if p == "/lib/test_malloc.o"));
    }

    #[test]
    fn figure3_blueprint_parses() {
        let bp = Blueprint::parse(
            r#"
            (merge
              (source "c" "int undef_var = 0;\n")
              (rename "^_undefined_routine$" "_abort"
                /lib/lib-with-problems))
            "#,
        )
        .unwrap();
        let MNode::Merge(items) = &bp.root else {
            panic!("root should be merge")
        };
        assert!(matches!(items[0], MNode::Source { ref lang, .. } if lang == "c"));
        assert!(
            matches!(items[1], MNode::View { kind, .. } if kind == ViewKind::Rename(RenameTarget::Both))
        );
    }

    #[test]
    fn specializations_parse() {
        let d = Blueprint::parse(r#"(specialize "lib-dynamic" /lib/libc)"#).unwrap();
        assert!(matches!(
            d.root,
            MNode::Specialize {
                kind: SpecKind::Dynamic,
                ..
            }
        ));

        let c =
            Blueprint::parse(r#"(specialize "lib-constrained" (list "T" 0x1000000) /lib/libc)"#)
                .unwrap();
        match c.root {
            MNode::Specialize {
                kind: SpecKind::Constrained(cs),
                ..
            } => {
                assert_eq!(cs, vec![(RegionClass::Text, 0x100_0000)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constrain_sugar() {
        let b = Blueprint::parse(r#"(constrain "T" 0x2000000 /lib/libm)"#).unwrap();
        assert!(matches!(
            b.root,
            MNode::Specialize {
                kind: SpecKind::Constrained(_),
                ..
            }
        ));
    }

    #[test]
    fn policy_forms_parse() {
        let bp = Blueprint::parse(
            r#"
            (policy deny "^_exec")
            (policy trampoline "^_malloc$")
            (policy audit "^_free$")
            (merge /bin/ls.o /lib/libc)
            "#,
        )
        .unwrap();
        assert_eq!(
            bp.policies,
            vec![
                LinkPolicy {
                    kind: PolicyKind::Deny,
                    pattern: "^_exec".into()
                },
                LinkPolicy {
                    kind: PolicyKind::Trampoline,
                    pattern: "^_malloc$".into()
                },
                LinkPolicy {
                    kind: PolicyKind::Audit,
                    pattern: "^_free$".into()
                },
            ]
        );
        assert_eq!(bp.policy_spans.len(), 3);
        // String kinds work too, and the canonical set dedups.
        let bp2 =
            Blueprint::parse("(policy \"audit\" \"^_free$\")\n(policy \"audit\" \"^_free$\")\n/a")
                .unwrap();
        assert_eq!(bp2.canonical_policies().len(), 1);
    }

    #[test]
    fn policy_shape_errors() {
        assert!(Blueprint::parse("(policy deny)\n/a").is_err(), "no pattern");
        assert!(
            Blueprint::parse("(policy sandbox \"x\")\n/a").is_err(),
            "unknown kind"
        );
        assert!(
            Blueprint::parse("(policy deny \"(unclosed\")\n/a").is_err(),
            "bad regex is a parse error"
        );
    }

    #[test]
    fn policy_free_hash_is_unchanged_and_policies_distinguish() {
        let plain = Blueprint::parse("(merge /a /b)").unwrap();
        assert!(plain.policies.is_empty());
        let denied = Blueprint::parse("(policy deny \"^_x$\")\n(merge /a /b)").unwrap();
        assert_ne!(plain.hash(), denied.hash());
        let audited = Blueprint::parse("(policy audit \"^_x$\")\n(merge /a /b)").unwrap();
        assert_ne!(denied.hash(), audited.hash());
        // Source order of policy forms does not matter: the hash runs
        // over the canonical set.
        let ab =
            Blueprint::parse("(policy deny \"^a\")\n(policy audit \"^b\")\n(merge /a /b)").unwrap();
        let ba =
            Blueprint::parse("(policy audit \"^b\")\n(policy deny \"^a\")\n(merge /a /b)").unwrap();
        assert_eq!(ab.hash(), ba.hash());
    }

    #[test]
    fn hash_distinguishes_structure() {
        let a = Blueprint::parse("(merge /a /b)").unwrap();
        let b = Blueprint::parse("(merge /b /a)").unwrap();
        let a2 = Blueprint::parse("(merge /a /b)").unwrap();
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.hash(), a2.hash());
        let c = Blueprint::parse("(constraint-list \"T\" 0x1000)\n(merge /a /b)").unwrap();
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn hash_and_equality_ignore_layout() {
        let a = Blueprint::parse("(merge /a /b)").unwrap();
        let b = Blueprint::parse("(merge\n    /a\n    /b)").unwrap();
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a, b);
    }

    #[test]
    fn rename_variants() {
        let refs = Blueprint::parse(r#"(rename-refs "a" "b" /x)"#).unwrap();
        assert!(matches!(
            refs.root,
            MNode::View {
                kind: ViewKind::Rename(RenameTarget::Refs),
                ..
            }
        ));
        let defs = Blueprint::parse(r#"(rename-defs "a" "b" /x)"#).unwrap();
        assert!(matches!(
            defs.root,
            MNode::View {
                kind: ViewKind::Rename(RenameTarget::Defs),
                ..
            }
        ));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn one_view_node_keeps_mnode_small() {
        // The largest variant is a view node: two strings, a box and a
        // one-byte kind whose spare values hold the discriminant.
        assert!(std::mem::size_of::<MNode>() <= 64);
    }

    #[test]
    fn view_shape_errors_name_the_operator() {
        for (src, msg) in [
            ("(hide /x)", "hide needs PATTERN OPERAND"),
            (
                "(copy-as \"a\" /x)",
                "copy-as needs PATTERN REPLACEMENT OPERAND",
            ),
            (
                "(rename-defs /a \"b\" /x)",
                "rename-defs: pattern must be a string",
            ),
            (
                "(copy_as \"a\" /b /x)",
                "copy_as: replacement must be a string",
            ),
            (
                "(specialize \"lib-dynamic\")",
                "specialize lib-dynamic needs one operand",
            ),
        ] {
            assert_eq!(Blueprint::parse(src).unwrap_err().msg, msg, "{src}");
        }
    }

    #[test]
    fn node_paths_map_to_source_spans() {
        let src = r#"(hide "x" (merge /a (rename "p" "q" /b)))"#;
        let bp = Blueprint::parse(src).unwrap();
        let span_text = |path: &[u32]| {
            let s = bp.spans.get(path).expect("span recorded");
            &src[s.start..s.end]
        };
        assert_eq!(span_text(&[]), src);
        assert_eq!(span_text(&[0]), r#"(merge /a (rename "p" "q" /b))"#);
        assert_eq!(span_text(&[0, 0]), "/a");
        assert_eq!(span_text(&[0, 1]), r#"(rename "p" "q" /b)"#);
        assert_eq!(span_text(&[0, 1, 0]), "/b");
    }

    #[test]
    fn shape_errors_carry_spans() {
        let err = Blueprint::parse("(merge /a (bogus /x))").unwrap_err();
        let span = err.span.expect("shape error is located");
        assert_eq!(span.start, 10);
        let err = Blueprint::parse("(override /a)").unwrap_err();
        assert!(err.span.is_some());
    }

    #[test]
    fn shape_errors() {
        assert!(Blueprint::parse("(merge)").is_err());
        assert!(Blueprint::parse("(override /a)").is_err());
        assert!(Blueprint::parse("(hide /x /y)").is_err());
        assert!(Blueprint::parse("(bogus /x)").is_err());
        assert!(Blueprint::parse("(specialize \"wat\" /x)").is_err());
        assert!(Blueprint::parse("/a /b").is_err(), "two roots");
        assert!(Blueprint::parse("").is_err(), "no root");
        assert!(
            Blueprint::parse("(constraint-list \"T\")\n/a").is_err(),
            "odd pairs"
        );
        assert!(
            Blueprint::parse("(constraint-list \"Q\" 1)\n/a").is_err(),
            "bad tag"
        );
    }
}
