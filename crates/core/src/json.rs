//! The workspace's one JSON module: a value type, its reader and its
//! writer, without serde.
//!
//! [`parse`] reads the benchmark reports (`ofe stats`) and trace exports;
//! [`Json::render`] writes every JSON document the workspace emits: the
//! `BENCH_*.json` reports, their smoke goldens, `ofe lint --format json`
//! and the Chrome trace export. A [`Number`] keeps its literal text, so
//! a report prints the decimals it was built with (`0.80`, `685.0`).

use std::fmt;

/// The deepest arrays and objects may nest; [`parse`] rejects deeper
/// input, so no document can exhaust the recursive reader's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

/// A number held as its literal text, which is always a valid RFC 8259
/// number: built from an integer or by [`Json::fixed`], or accepted by
/// [`parse`]. Numbers compare by text, so `1.0` and `1.00` differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Number(String);

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    u64 => |n| Json::Num(Number(n.to_string())),
    usize => |n| Json::Num(Number(n.to_string())),
    i64 => |n| Json::Num(Number(n.to_string())),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// `value` with exactly `places` decimals; `null` when it is not
    /// finite, which JSON cannot express.
    #[must_use]
    pub fn fixed(value: f64, places: usize) -> Json {
        if value.is_finite() {
            Json::Num(Number(format!("{value:.places$}")))
        } else {
            Json::Null
        }
    }

    /// An object from `(key, value)` members, in order.
    #[must_use]
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number (infinite when it overflows `f64`), if it
    /// is one.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a JSON document ending in a newline. One layout rule,
    /// so a value always prints the same bytes: a container whose members
    /// are all scalars prints on one line; any other prints one member
    /// per line, two spaces deeper than its brackets.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (members, open, close): (Vec<_>, _, _) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(&n.0),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => (items.iter().map(|v| (None, v)).collect(), '[', ']'),
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k), v)).collect();
                (members, '{', '}')
            }
        };
        let one_line = members
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let (sep, pad) = if one_line {
            (", ", String::new())
        } else {
            (",", format!("\n{}", " ".repeat(indent + 2)))
        };
        out.push(open);
        for (i, (key, v)) in members.into_iter().enumerate() {
            out.push_str(if i > 0 { sep } else { "" });
            out.push_str(&pad);
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            v.write(out, indent + 2);
        }
        if !one_line {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push(close);
    }
}

/// Writes `s` as a string literal, escaped per RFC 8259.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a document failed to parse, at a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A container opening here would nest deeper than [`MAX_DEPTH`].
    TooDeep(usize),
    /// Malformed input here.
    Syntax(usize, &'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::TooDeep(at) => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
            ParseError::Syntax(at, msg) => write!(f, "{msg} at byte {at}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (RFC 8259) nesting at most
/// [`MAX_DEPTH`] containers deep.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.err("trailing data")),
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError::Syntax(self.i, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        self.i += usize::from(b.is_some());
        b
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), ParseError> {
        if !self.s[self.i..].starts_with(lit.as_bytes()) {
            return Err(self.err("unexpected character"));
        }
        self.i += lit.len();
        Ok(())
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let items = self.container(b']')?;
                Ok(Json::Arr(items.into_iter().map(|(_, v)| v).collect()))
            }
            Some(b'{') => self.container(b'}').map(Json::Obj),
            Some(_) => self.number(),
        }
    }

    /// The members of the array or object opening here, up to `close`;
    /// array members get empty keys.
    fn container(&mut self, close: u8) -> Result<Vec<(String, Json)>, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep(self.i));
        }
        self.depth += 1;
        self.i += 1;
        let mut members = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            self.depth -= 1;
            return Ok(members);
        }
        loop {
            let key = match close {
                b'}' => {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    key
                }
                _ => String::new(),
            };
            members.push((key, self.value()?));
            self.ws();
            match self.bump() {
                Some(b',') => {}
                Some(b) if b == close => break,
                _ => return Err(self.err("expected `,` or a closing bracket")),
            }
        }
        self.depth -= 1;
        Ok(members)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    let c = match self.bump() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(b) if b < b' ' => return Err(self.err("control character in string")),
                Some(b) => out.push(b),
            }
        }
        // Raw bytes were copied between ASCII delimiters of valid UTF-8.
        Ok(String::from_utf8(out).expect("a string of valid UTF-8"))
    }

    /// The character a `\u` escape names, `\u` already consumed; a
    /// UTF-16 surrogate pair spans two escapes.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let code = match self.hex4()? {
            hi @ 0xd800..=0xdbff => {
                let lo = match self.eat("\\u") {
                    Ok(()) => self.hex4()?,
                    Err(_) => 0,
                };
                if !(0xdc00..=0xdfff).contains(&lo) {
                    return Err(self.err("unpaired surrogate"));
                }
                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .s
            .get(self.i..self.i + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(hex
            .iter()
            .fold(0, |n, &h| n * 16 + (h as char).to_digit(16).unwrap_or(0)))
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        self.i += usize::from(self.peek() == Some(b'-'));
        let int = if self.peek() == Some(b'0') {
            self.i += 1;
            1
        } else {
            self.digits()
        };
        let frac = if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()
        } else {
            1
        };
        let exp = match self.peek() {
            Some(b'e' | b'E') => {
                self.i += 1;
                self.i += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
                self.digits()
            }
            _ => 1,
        };
        if int == 0 || frac == 0 || exp == 0 {
            return Err(self.err("bad number"));
        }
        let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        Ok(Json::Num(Number(text)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_rfc_8259_and_nothing_else() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[2].as_num(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        let s = parse(r#""\b\f\/\"\\\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(s.as_str(), Some("\u{8}\u{c}/\"\\é😀"));
        let bad = r#"{|[1,]|{} x|01|1.|+1|.5|-|"\x"|"\ud83d"|"\ude00"|"\ud83dA"|"\u+123""#;
        for bad in bad.split('|').chain(["\"\u{1}\""]) {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(200_000);
        assert_eq!(parse(&deep), Err(ParseError::TooDeep(MAX_DEPTH)));
    }

    #[test]
    fn render_puts_scalar_only_containers_on_one_line() {
        let doc = Json::obj([
            ("name", Json::from("a\"b")),
            ("ratio", Json::fixed(0.8, 2)),
            ("none", Json::from(None::<u64>)),
            ("list", Json::Arr(vec![1u64.into(), 2u64.into()])),
            (
                "rows",
                Json::Arr(vec![Json::obj([("k", Json::from(true))])]),
            ),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let want = "{\n  \"name\": \"a\\\"b\",\n  \"ratio\": 0.80,\n  \"none\": null,\n  \
                    \"list\": [1, 2],\n  \"rows\": [\n    {\"k\": true}\n  ],\n  \"empty\": []\n}\n";
        assert_eq!(doc.render(), want);
        assert_eq!(parse(&doc.render()), Ok(doc));
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
    }
}
