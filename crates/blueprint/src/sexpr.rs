//! The blueprint surface syntax: "a simple Lisp-like syntax".
//!
//! Atoms are symbols (`/lib/libc`, `merge`), double-quoted strings, or
//! integers (decimal or `0x` hex); `;` comments run to end of line.
//!
//! Every parsed node carries the byte [`Span`] it was read from, so
//! diagnostics (parse errors, evaluator errors, and the static
//! analyzer's lints) can point at the offending operator in the
//! blueprint source.

use std::fmt;

/// A half-open byte range `[start, end)` in the blueprint source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// First byte of the spanned text.
    pub start: usize,
    /// One past the last byte of the spanned text.
    pub end: usize,
}

impl Span {
    /// Builds a span.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The 1-based line and column of the span's start within `src`.
    #[must_use]
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = &src[..self.start.min(src.len())];
        let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = upto
            .rfind('\n')
            .map_or(self.start + 1, |nl| self.start - nl);
        (line, col)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytes {}..{}", self.start, self.end)
    }
}

/// A parsed s-expression with its source span.
///
/// Equality and hashing compare *structure only* (the [`SexprKind`]
/// tree), never spans: two parses of the same text laid out differently
/// are equal, which the server's structural blueprint hashing relies
/// on.
#[derive(Debug, Clone, Eq)]
pub struct Sexpr {
    /// What was parsed.
    pub kind: SexprKind,
    /// Where it was parsed from.
    pub span: Span,
}

/// The shape of one s-expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SexprKind {
    /// A bare symbol (operator names, namespace paths).
    Sym(String),
    /// A quoted string (regular expressions, source text).
    Str(String),
    /// An integer (addresses, sizes).
    Num(i64),
    /// A parenthesized list.
    List(Vec<Sexpr>),
}

impl PartialEq for Sexpr {
    fn eq(&self, other: &Sexpr) -> bool {
        self.kind == other.kind
    }
}

impl Sexpr {
    /// The symbol text, if this is a symbol.
    #[must_use]
    pub fn as_sym(&self) -> Option<&str> {
        match &self.kind {
            SexprKind::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// The string text, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match &self.kind {
            SexprKind::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<i64> {
        match &self.kind {
            SexprKind::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is a list.
    #[must_use]
    pub fn as_list(&self) -> Option<&[Sexpr]> {
        match &self.kind {
            SexprKind::List(l) => Some(l),
            _ => None,
        }
    }
}

impl fmt::Display for Sexpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SexprKind::Sym(s) => write!(f, "{s}"),
            SexprKind::Str(s) => write!(f, "{s:?}"),
            SexprKind::Num(n) => write!(f, "{n}"),
            SexprKind::List(items) => {
                write!(f, "(")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub offset: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest an m-graph node may sit below its blueprint's root (the
/// root is depth 0). [`parse_sexprs`] rejects deeper nesting and the
/// persisted-blueprint decoder enforces the same bound, so every
/// blueprint the parser accepts survives checkpoint, restore and
/// journal replay, and no input can exhaust the recursive walkers' stack.
pub const MAX_NODE_DEPTH: usize = 200;

/// Parses a whole input into its top-level s-expressions.
///
/// Nesting is bounded: an element may sit at most [`MAX_NODE_DEPTH`]
/// lists deep, so a list opened at that depth is an error.
pub fn parse_sexprs(input: &str) -> Result<Vec<Sexpr>, ParseError> {
    let mut p = Parser {
        chars: input.char_indices().collect(),
        pos: 0,
        depth: 0,
    };
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.eof() {
            return Ok(out);
        }
        out.push(p.expr()?);
    }
}

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    /// Lists open around the current position.
    depth: usize,
}

impl Parser {
    fn eof(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn offset(&self) -> usize {
        self.chars.get(self.pos).map_or_else(
            || self.chars.last().map_or(0, |&(o, c)| o + c.len_utf8()),
            |&(o, _)| o,
        )
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.offset(),
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some(';') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn expr(&mut self) -> Result<Sexpr, ParseError> {
        self.skip_ws();
        let start = self.offset();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some('(') => {
                if self.depth == MAX_NODE_DEPTH {
                    return Err(
                        self.err(&format!("lists nest deeper than {MAX_NODE_DEPTH} levels"))
                    );
                }
                self.bump();
                self.depth += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        None => return Err(self.err("unterminated `(`")),
                        Some(')') => {
                            self.bump();
                            self.depth -= 1;
                            return Ok(Sexpr {
                                kind: SexprKind::List(items),
                                span: Span::new(start, self.offset()),
                            });
                        }
                        _ => items.push(self.expr()?),
                    }
                }
            }
            Some(')') => Err(self.err("unexpected `)`")),
            Some('"') => self.string(start),
            _ => self.atom(start),
        }
    }

    fn string(&mut self, start: usize) -> Result<Sexpr, ParseError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => {
                    return Ok(Sexpr {
                        kind: SexprKind::Str(out),
                        span: Span::new(start, self.offset()),
                    })
                }
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some(other) => {
                        return Err(self.err(&format!("bad escape `\\{other}`")));
                    }
                    None => return Err(self.err("dangling escape")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn atom(&mut self, start: usize) -> Result<Sexpr, ParseError> {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_whitespace() || c == '(' || c == ')' || c == ';' || c == '"' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if text.is_empty() {
            return Err(self.err("empty atom"));
        }
        let span = Span::new(start, self.offset());
        // Numbers: decimal or hex, optionally negative.
        let body = text.strip_prefix('-').unwrap_or(&text);
        let parsed = if let Some(h) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            i64::from_str_radix(h, 16).ok()
        } else if body.chars().all(|c| c.is_ascii_digit()) && !body.is_empty() {
            body.parse::<i64>().ok()
        } else {
            None
        };
        let kind = match parsed {
            Some(n) if text.starts_with('-') => SexprKind::Num(-n),
            Some(n) => SexprKind::Num(n),
            None => SexprKind::Sym(text),
        };
        Ok(Sexpr { kind, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_meta_object() {
        let src = r#"
            (constraint-list "T" 0x100000 "D" 0x40200000) ; default address constraint
            (merge
              /libc/gen /libc/stdio /libc/string /libc/stdlib
              /libc/hppa /libc/net /libc/quad /libc/rpc)
        "#;
        let forms = parse_sexprs(src).unwrap();
        assert_eq!(forms.len(), 2);
        let cl = forms[0].as_list().unwrap();
        assert_eq!(cl[0].as_sym(), Some("constraint-list"));
        assert_eq!(cl[2].as_num(), Some(0x100000));
        let merge = forms[1].as_list().unwrap();
        assert_eq!(merge.len(), 9);
        assert_eq!(merge[1].as_sym(), Some("/libc/gen"));
    }

    #[test]
    fn parses_figure2_interposition() {
        let src = r#"
            ;; malloc() -> malloc'()
            (hide "_REAL_malloc"
              (merge
                (restrict "^_malloc$"
                  (copy_as "^_malloc$" "_REAL_malloc"
                    (merge /bin/ls.o /lib/libc.o)))
                /lib/test_malloc.o))
        "#;
        let forms = parse_sexprs(src).unwrap();
        assert_eq!(forms.len(), 1);
        let hide = forms[0].as_list().unwrap();
        assert_eq!(hide[0].as_sym(), Some("hide"));
        assert_eq!(hide[1].as_str(), Some("_REAL_malloc"));
    }

    #[test]
    fn string_escapes_match_source_operator_usage() {
        // Figure 3: (source "c" "int undef_var = 0;\n")
        let forms = parse_sexprs(r#"(source "c" "int undef_var = 0;\n")"#).unwrap();
        let l = forms[0].as_list().unwrap();
        assert_eq!(l[2].as_str(), Some("int undef_var = 0;\n"));
    }

    #[test]
    fn numbers_hex_decimal_negative() {
        let forms = parse_sexprs("(x 10 0x10 -5 -0x20)").unwrap();
        let l = forms[0].as_list().unwrap();
        assert_eq!(l[1].as_num(), Some(10));
        assert_eq!(l[2].as_num(), Some(16));
        assert_eq!(l[3].as_num(), Some(-5));
        assert_eq!(l[4].as_num(), Some(-32));
    }

    #[test]
    fn errors() {
        assert!(parse_sexprs("(unclosed").is_err());
        assert!(parse_sexprs(")").is_err());
        assert!(parse_sexprs("\"unterminated").is_err());
        assert!(parse_sexprs(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn display_round_trips_structure() {
        let src = r#"(merge /a (hide "x" /b) 7)"#;
        let forms = parse_sexprs(src).unwrap();
        let printed = forms[0].to_string();
        assert_eq!(parse_sexprs(&printed).unwrap(), forms);
    }

    #[test]
    fn empty_input_ok() {
        assert!(parse_sexprs("  ; just a comment\n").unwrap().is_empty());
    }

    #[test]
    fn spans_cover_their_source_text() {
        let src = r#"(merge /a (hide "x" /b) 0x10)"#;
        let forms = parse_sexprs(src).unwrap();
        let top = &forms[0];
        assert_eq!(&src[top.span.start..top.span.end], src);
        let items = top.as_list().unwrap();
        assert_eq!(&src[items[1].span.start..items[1].span.end], "/a");
        let hide = &items[2];
        assert_eq!(&src[hide.span.start..hide.span.end], r#"(hide "x" /b)"#);
        let pat = &hide.as_list().unwrap()[1];
        assert_eq!(&src[pat.span.start..pat.span.end], r#""x""#);
        assert_eq!(&src[items[3].span.start..items[3].span.end], "0x10");
    }

    #[test]
    fn line_col_is_one_based() {
        let src = "(a\n  (b))";
        let forms = parse_sexprs(src).unwrap();
        let inner = &forms[0].as_list().unwrap()[1];
        assert_eq!(inner.span.line_col(src), (2, 3));
        assert_eq!(forms[0].span.line_col(src), (1, 1));
    }
}
