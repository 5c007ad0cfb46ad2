//! A small, self-contained regular-expression engine.
//!
//! The paper says "module operations typically take a regular expression as a
//! specification of the symbols to select" — e.g. `^_malloc$` in the
//! interposition example of Figure 2. Symbol names are short, so a
//! backtracking matcher over a compiled instruction stream is more than fast
//! enough, and avoids pulling a full regex dependency into the workspace.
//!
//! Supported syntax: literals, `\`-escapes, `.`, character classes
//! `[a-z]`/`[^a-z]`, anchors `^` and `$`, greedy quantifiers `*`, `+`, `?`,
//! counted repetition `{n}`/`{n,}`/`{n,m}`, alternation `|`, and grouping
//! `(...)` (non-capturing; the engine reports the whole-match span only,
//! which is all symbol renaming needs). A `{` that does not open a valid
//! counted repetition is an ordinary literal — symbol names legally
//! contain braces.

use crate::error::{ObjError, Result};

/// A compiled regular expression.
///
/// # Examples
///
/// ```
/// use omos_obj::Regex;
///
/// let re = Regex::new("^_malloc$").unwrap();
/// assert!(re.is_match("_malloc"));
/// assert!(!re.is_match("_xmalloc"));
/// assert_eq!(Regex::new("^_")?.replace("_puts", "_PKG_"), "_PKG_puts");
/// # Ok::<(), omos_obj::ObjError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    prog: Vec<Inst>,
}

#[derive(Debug, Clone)]
enum Inst {
    Char(char),
    Any,
    Class {
        neg: bool,
        ranges: Vec<(char, char)>,
    },
    Start,
    End,
    /// Try `a` first, then `b` (both are absolute program counters).
    Split(usize, usize),
    Jmp(usize),
    Match,
}

impl Regex {
    /// Compiles a pattern.
    ///
    /// Returns [`ObjError::BadRegex`] on syntax errors (unbalanced parens,
    /// dangling quantifiers, unterminated classes or escapes).
    pub fn new(pattern: &str) -> Result<Regex> {
        let ast = Parser {
            chars: pattern.chars().collect(),
            pos: 0,
            pattern,
        }
        .parse()?;
        let mut prog = Vec::new();
        compile(&ast, &mut prog);
        prog.push(Inst::Match);
        Ok(Regex {
            pattern: pattern.to_string(),
            prog,
        })
    }

    /// The original pattern text.
    #[must_use]
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Returns true if the pattern matches anywhere in `text`.
    #[must_use]
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Returns the leftmost match as a `(start, end)` byte range.
    #[must_use]
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        let chars: Vec<char> = text.chars().collect();
        // Byte offset of each char index (plus one-past-end).
        let mut offs = Vec::with_capacity(chars.len() + 1);
        let mut o = 0;
        for c in &chars {
            offs.push(o);
            o += c.len_utf8();
        }
        offs.push(o);
        for start in 0..=chars.len() {
            if let Some(end) = self.run(&chars, start) {
                return Some((offs[start], offs[end]));
            }
        }
        None
    }

    /// Replaces the leftmost match in `text` with `replacement` (literal; no
    /// capture references). Returns the original string when nothing matches.
    #[must_use]
    pub fn replace(&self, text: &str, replacement: &str) -> String {
        match self.find(text) {
            Some((s, e)) => {
                let mut out = String::with_capacity(text.len() + replacement.len());
                out.push_str(&text[..s]);
                out.push_str(replacement);
                out.push_str(&text[e..]);
                out
            }
            None => text.to_string(),
        }
    }

    /// Runs the program from char index `start`; returns the end index of a
    /// match if one begins exactly at `start`.
    fn run(&self, chars: &[char], start: usize) -> Option<usize> {
        self.exec(0, chars, start)
    }

    fn exec(&self, mut pc: usize, chars: &[char], mut pos: usize) -> Option<usize> {
        loop {
            match &self.prog[pc] {
                Inst::Char(c) => {
                    if pos < chars.len() && chars[pos] == *c {
                        pc += 1;
                        pos += 1;
                    } else {
                        return None;
                    }
                }
                Inst::Any => {
                    if pos < chars.len() {
                        pc += 1;
                        pos += 1;
                    } else {
                        return None;
                    }
                }
                Inst::Class { neg, ranges } => {
                    if pos >= chars.len() {
                        return None;
                    }
                    let c = chars[pos];
                    let inside = ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
                    if inside != *neg {
                        pc += 1;
                        pos += 1;
                    } else {
                        return None;
                    }
                }
                Inst::Start => {
                    if pos == 0 {
                        pc += 1;
                    } else {
                        return None;
                    }
                }
                Inst::End => {
                    if pos == chars.len() {
                        pc += 1;
                    } else {
                        return None;
                    }
                }
                Inst::Split(a, b) => {
                    if let Some(end) = self.exec(*a, chars, pos) {
                        return Some(end);
                    }
                    pc = *b;
                }
                Inst::Jmp(t) => pc = *t,
                Inst::Match => return Some(pos),
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Char(char),
    Any,
    Class {
        neg: bool,
        ranges: Vec<(char, char)>,
    },
    Start,
    End,
    Concat(Vec<Ast>),
    Alt(Box<Ast>, Box<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Quest(Box<Ast>),
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    pattern: &'a str,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ObjError {
        ObjError::BadRegex(format!("{msg} in `{}`", self.pattern))
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn parse(&mut self) -> Result<Ast> {
        let ast = self.alt()?;
        if self.pos != self.chars.len() {
            return Err(self.err("unexpected `)`"));
        }
        Ok(ast)
    }

    fn alt(&mut self) -> Result<Ast> {
        let mut lhs = self.concat()?;
        while self.peek() == Some('|') {
            self.bump();
            let rhs = self.concat()?;
            lhs = Ast::Alt(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn concat(&mut self) -> Result<Ast> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(concat(items))
    }

    fn repeat(&mut self) -> Result<Ast> {
        let atom = self.atom()?;
        match self.peek() {
            Some('*') => {
                self.bump();
                Ok(Ast::Star(Box::new(atom)))
            }
            Some('+') => {
                self.bump();
                Ok(Ast::Plus(Box::new(atom)))
            }
            Some('?') => {
                self.bump();
                Ok(Ast::Quest(Box::new(atom)))
            }
            Some('{') => match self.counted()? {
                Some((min, max)) => Ok(expand_counted(&atom, min, max)),
                // Not a counted repetition: leave the `{` for the next
                // atom to consume as a literal.
                None => Ok(atom),
            },
            _ => Ok(atom),
        }
    }

    /// Tries to read `{n}`, `{n,}`, or `{n,m}` at the cursor. Returns
    /// `Ok(None)` without consuming anything when the braces are not a
    /// well-formed counted repetition.
    fn counted(&mut self) -> Result<Option<(u32, Option<u32>)>> {
        /// Repetition counts are expanded by cloning; cap them so a
        /// pathological pattern cannot balloon the program.
        const MAX_COUNT: u32 = 1000;
        let save = self.pos;
        self.bump(); // `{`
        let min = match self.digits() {
            Some(n) => n,
            None => {
                self.pos = save;
                return Ok(None);
            }
        };
        let max = match self.peek() {
            Some('}') => Some(min),
            Some(',') => {
                self.bump();
                match self.peek() {
                    Some('}') => None,
                    _ => match self.digits() {
                        Some(n) => Some(n),
                        None => {
                            self.pos = save;
                            return Ok(None);
                        }
                    },
                }
            }
            _ => {
                self.pos = save;
                return Ok(None);
            }
        };
        if self.peek() != Some('}') {
            self.pos = save;
            return Ok(None);
        }
        self.bump(); // `}`
        if max.is_some_and(|m| m < min) {
            return Err(self.err("inverted repetition"));
        }
        if min > MAX_COUNT || max.is_some_and(|m| m > MAX_COUNT) {
            return Err(self.err("counted repetition too large"));
        }
        Ok(Some((min, max)))
    }

    /// A run of ASCII digits at the cursor, if any.
    fn digits(&mut self) -> Option<u32> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return None;
        }
        let s: String = self.chars[start..self.pos].iter().collect();
        match s.parse() {
            Ok(n) => Some(n),
            Err(_) => Some(u32::MAX), // overflow; rejected by the cap
        }
    }

    fn atom(&mut self) -> Result<Ast> {
        match self.bump() {
            None => Err(self.err("unexpected end of pattern")),
            Some('(') => {
                let inner = self.alt()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unbalanced `(`"));
                }
                Ok(inner)
            }
            Some('[') => self.class(),
            Some('.') => Ok(Ast::Any),
            Some('^') => Ok(Ast::Start),
            Some('$') => Ok(Ast::End),
            Some('*') | Some('+') | Some('?') => Err(self.err("dangling quantifier")),
            Some('\\') => match self.bump() {
                None => Err(self.err("dangling escape")),
                Some('d') => Ok(Ast::Class {
                    neg: false,
                    ranges: vec![('0', '9')],
                }),
                Some('w') => Ok(Ast::Class {
                    neg: false,
                    ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                }),
                Some('s') => Ok(Ast::Class {
                    neg: false,
                    ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                }),
                Some(c) => Ok(Ast::Char(c)),
            },
            Some(c) => Ok(Ast::Char(c)),
        }
    }

    fn class(&mut self) -> Result<Ast> {
        let neg = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated `[`")),
                Some(']') if !first => break,
                Some(c) => {
                    let lo = if c == '\\' {
                        self.bump()
                            .ok_or_else(|| self.err("dangling escape in class"))?
                    } else {
                        c
                    };
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).is_some_and(|&c| c != ']')
                    {
                        self.bump(); // `-`
                        let hi = match self.bump() {
                            Some('\\') => self
                                .bump()
                                .ok_or_else(|| self.err("dangling escape in class"))?,
                            Some(h) => h,
                            None => return Err(self.err("unterminated range")),
                        };
                        if hi < lo {
                            return Err(self.err("inverted range"));
                        }
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
            }
            first = false;
        }
        Ok(Ast::Class { neg, ranges })
    }
}

/// Expands a counted repetition by cloning: `min` mandatory copies, then
/// either a trailing `Star` (`{n,}`) or `max - min` optional copies.
fn expand_counted(atom: &Ast, min: u32, max: Option<u32>) -> Ast {
    let mut items = Vec::new();
    for _ in 0..min {
        items.push(atom.clone());
    }
    match max {
        None => items.push(Ast::Star(Box::new(atom.clone()))),
        Some(max) => {
            for _ in min..max {
                items.push(Ast::Quest(Box::new(atom.clone())));
            }
        }
    }
    concat(items)
}

/// The sequence of `items`: nothing, the one item, or their concatenation.
fn concat(mut items: Vec<Ast>) -> Ast {
    match items.len() {
        0 | 1 => items.pop().unwrap_or(Ast::Empty),
        _ => Ast::Concat(items),
    }
}

fn compile(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(c) => prog.push(Inst::Char(*c)),
        Ast::Any => prog.push(Inst::Any),
        Ast::Class { neg, ranges } => {
            prog.push(Inst::Class {
                neg: *neg,
                ranges: ranges.clone(),
            });
        }
        Ast::Start => prog.push(Inst::Start),
        Ast::End => prog.push(Inst::End),
        Ast::Concat(items) => {
            for it in items {
                compile(it, prog);
            }
        }
        Ast::Alt(a, b) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0)); // placeholder for Split
            compile(a, prog);
            let jmp = prog.len();
            prog.push(Inst::Jmp(0)); // placeholder
            let b_start = prog.len();
            compile(b, prog);
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, b_start);
            prog[jmp] = Inst::Jmp(end);
        }
        Ast::Star(inner) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0));
            compile(inner, prog);
            prog.push(Inst::Jmp(split));
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, end);
        }
        Ast::Plus(inner) => {
            let start = prog.len();
            compile(inner, prog);
            let split = prog.len();
            prog.push(Inst::Split(start, split + 1));
        }
        Ast::Quest(inner) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0));
            compile(inner, prog);
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).expect("pattern compiles")
    }

    #[test]
    fn literal_match() {
        assert!(re("malloc").is_match("_malloc_impl"));
        assert!(!re("malloc").is_match("calloc"));
    }

    #[test]
    fn anchors() {
        let r = re("^_malloc$");
        assert!(r.is_match("_malloc"));
        assert!(!r.is_match("__malloc"));
        assert!(!r.is_match("_mallocx"));
    }

    #[test]
    fn dot_and_star() {
        assert!(re("^a.*b$").is_match("ab"));
        assert!(re("^a.*b$").is_match("a123b"));
        assert!(!re("^a.+b$").is_match("ab"));
        assert!(re("^a.+b$").is_match("axb"));
    }

    #[test]
    fn question() {
        let r = re("^colou?r$");
        assert!(r.is_match("color"));
        assert!(r.is_match("colour"));
        assert!(!r.is_match("colouur"));
    }

    #[test]
    fn alternation() {
        let r = re("^(_malloc|_free|_realloc)$");
        assert!(r.is_match("_malloc"));
        assert!(r.is_match("_free"));
        assert!(!r.is_match("_calloc"));
    }

    #[test]
    fn classes() {
        assert!(re("^[a-z]+$").is_match("hello"));
        assert!(!re("^[a-z]+$").is_match("Hello"));
        assert!(re("^[^0-9]+$").is_match("abc"));
        assert!(!re("^[^0-9]+$").is_match("ab3"));
        assert!(re("^[-a-z]+$").is_match("a-b")); // literal `-` at class edge
    }

    #[test]
    fn escapes() {
        assert!(re(r"^\$start$").is_match("$start"));
        assert!(re(r"^\d+$").is_match("12345"));
        assert!(re(r"^\w+$").is_match("sym_9"));
        assert!(!re(r"^\w+$").is_match("a b"));
    }

    #[test]
    fn find_leftmost() {
        assert_eq!(re("l+").find("hello world"), Some((2, 4)));
        assert_eq!(re("z").find("hello"), None);
    }

    #[test]
    fn replace_prefix() {
        // A systematic rename: prepend a package name (the paper's example
        // scheme for interposition).
        let r = re("^_");
        assert_eq!(r.replace("_malloc", "_PKG_"), "_PKG_malloc");
        assert_eq!(r.replace("main", "_PKG_"), "main");
    }

    #[test]
    fn replace_whole() {
        let r = re("^_undefined_routine$");
        assert_eq!(r.replace("_undefined_routine", "_abort"), "_abort");
    }

    #[test]
    fn syntax_errors() {
        assert!(Regex::new("(unclosed").is_err());
        assert!(Regex::new("unopened)").is_err());
        assert!(Regex::new("*dangling").is_err());
        assert!(Regex::new("[unterminated").is_err());
        assert!(Regex::new("[z-a]").is_err());
        assert!(Regex::new("trailing\\").is_err());
        assert!(Regex::new("a{3,1}").is_err(), "inverted repetition");
        assert!(Regex::new("a{2000}").is_err(), "count above the cap");
    }

    #[test]
    fn counted_repetition() {
        let r = re("^a{3}$");
        assert!(r.is_match("aaa"));
        assert!(!r.is_match("aa"));
        assert!(!r.is_match("aaaa"));
        let r = re("^a{2,}$");
        assert!(!r.is_match("a"));
        assert!(r.is_match("aa"));
        assert!(r.is_match("aaaaa"));
        let r = re("^a{1,3}$");
        assert!(r.is_match("a"));
        assert!(r.is_match("aaa"));
        assert!(!r.is_match("aaaa"));
        assert!(re("^(ab){2}c$").is_match("ababc"));
        assert!(re("^x{0}y$").is_match("y"));
        assert!(re("^[0-9]{2}$").is_match("42"));
    }

    #[test]
    fn malformed_braces_are_literals() {
        // Symbol names legally contain braces; only a well-formed
        // counted repetition is a quantifier.
        assert!(re("^_f\\{1\\}$").is_match("_f{1}"));
        assert!(re("^a{b}$").is_match("a{b}"));
        assert!(re("^a{1x}$").is_match("a{1x}"));
        assert!(re("^a{,2}$").is_match("a{,2}"));
        assert!(re("^{2$").is_match("{2"));
        assert!(re("^a{$").is_match("a{"));
        // ...and a well-formed one is NOT a literal.
        assert!(!re("^a{2}$").is_match("a{2}"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(re("").is_match(""));
        assert!(re("").is_match("anything"));
    }

    #[test]
    fn nested_groups() {
        let r = re("^_(REAL_)?(malloc|free)$");
        assert!(r.is_match("_malloc"));
        assert!(r.is_match("_REAL_malloc"));
        assert!(r.is_match("_REAL_free"));
        assert!(!r.is_match("_REAL_"));
    }

    #[test]
    fn unicode_offsets_are_byte_ranges() {
        let r = re("b+");
        assert_eq!(r.find("äbb"), Some((2, 4)));
    }
}
