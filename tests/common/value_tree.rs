//! The JSON reader the vendored serde shim used before it read typed
//! values directly: parse the whole text into a [`Tree`], then convert the
//! tree field by field. Kept as a test oracle for the direct reader: every
//! document must be accepted or rejected alike, with the same value and
//! the same message. It imports nothing from `serde`/`serde_json`.

use cahd::core::checkpoint::StreamingCheckpoint;
use cahd::core::{AnonymizedGroup, FlatRows, PublishedDataset};

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Tree {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// JSON numbers, as `f64`.
    Num(f64),
    /// JSON strings.
    Str(String),
    /// JSON arrays.
    Array(Vec<Tree>),
    /// JSON objects, in document order (duplicate keys kept).
    Object(Vec<(String, Tree)>),
}

impl Tree {
    fn get(&self, key: &str) -> Option<&Tree> {
        match self {
            Tree::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn err(msg: impl Into<String>) -> String {
    msg.into()
}

/// Parses a whole document: one value, surrounded only by whitespace.
pub fn parse(text: &str) -> Result<Tree, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// Parses `text` and converts it to `T`: all syntax errors first, then
/// type errors.
pub fn from_str<T: FromTree>(text: &str) -> Result<T, String> {
    T::from_tree(&parse(text)?)
}

/// Types the oracle can rebuild from a [`Tree`].
pub trait FromTree: Sized {
    /// Converts a tree into `Self`.
    fn from_tree(v: &Tree) -> Result<Self, String>;
}

fn kind_of(v: &Tree) -> &'static str {
    match v {
        Tree::Null => "null",
        Tree::Bool(_) => "bool",
        Tree::Num(_) => "number",
        Tree::Str(_) => "string",
        Tree::Array(_) => "array",
        Tree::Object(_) => "object",
    }
}

fn field<T: FromTree>(v: &Tree, name: &str) -> Result<T, String> {
    match v.get(name) {
        Some(f) => T::from_tree(f).map_err(|e| format!("field `{name}`: {e}")),
        None => match v {
            Tree::Object(_) => Err(format!("missing field `{name}`")),
            other => Err(format!(
                "expected object with field `{name}`, found {}",
                kind_of(other)
            )),
        },
    }
}

macro_rules! int_from_tree {
    ($($t:ty),*) => {$(
        impl FromTree for $t {
            fn from_tree(v: &Tree) -> Result<Self, String> {
                match v {
                    Tree::Num(n) if n.fract() == 0.0 => {
                        let lo = <$t>::MIN as f64;
                        let hi = <$t>::MAX as f64;
                        if *n >= lo && *n <= hi {
                            Ok(*n as $t)
                        } else {
                            Err(format!("number {n} out of range for {}", stringify!($t)))
                        }
                    }
                    other => Err(format!("expected integer, found {}", kind_of(other))),
                }
            }
        }
    )*};
}

int_from_tree!(u32, u64, usize);

impl FromTree for bool {
    fn from_tree(v: &Tree) -> Result<Self, String> {
        match v {
            Tree::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, found {}", kind_of(other))),
        }
    }
}

impl<T: FromTree> FromTree for Vec<T> {
    fn from_tree(v: &Tree) -> Result<Self, String> {
        match v {
            Tree::Array(items) => items.iter().map(T::from_tree).collect(),
            other => Err(format!("expected array, found {}", kind_of(other))),
        }
    }
}

impl<A: FromTree, B: FromTree> FromTree for (A, B) {
    fn from_tree(v: &Tree) -> Result<Self, String> {
        match v {
            Tree::Array(items) if items.len() == 2 => {
                Ok((A::from_tree(&items[0])?, B::from_tree(&items[1])?))
            }
            Tree::Array(items) => Err(format!(
                "expected array of length 2, found length {}",
                items.len()
            )),
            other => Err(format!("expected array, found {}", kind_of(other))),
        }
    }
}

impl FromTree for AnonymizedGroup {
    fn from_tree(v: &Tree) -> Result<Self, String> {
        Ok(AnonymizedGroup {
            members: field(v, "members")?,
            qid_rows: FlatRows::from_rows(&field::<Vec<Vec<u32>>>(v, "qid_rows")?),
            sensitive_counts: field(v, "sensitive_counts")?,
        })
    }
}

impl FromTree for PublishedDataset {
    fn from_tree(v: &Tree) -> Result<Self, String> {
        Ok(PublishedDataset {
            n_items: field(v, "n_items")?,
            sensitive_items: field(v, "sensitive_items")?,
            groups: field(v, "groups")?,
        })
    }
}

impl FromTree for StreamingCheckpoint {
    fn from_tree(v: &Tree) -> Result<Self, String> {
        Ok(StreamingCheckpoint {
            version: field(v, "version")?,
            p: field(v, "p")?,
            batch_size: field(v, "batch_size")?,
            n_items: field(v, "n_items")?,
            next_id: field(v, "next_id")?,
            carried_over: field(v, "carried_over")?,
            finished: field(v, "finished")?,
            buffer: field(v, "buffer")?,
            stash: field(v, "stash")?,
            sensitive_items: field(v, "sensitive_items")?,
            remaining_counts: field(v, "remaining_counts")?,
            digest: field(v, "digest")?,
        })
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Always on a `char` boundary of `text`: it only advances past ASCII
    /// bytes and past whole runs of string content.
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Tree, String> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Tree::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Tree::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Tree::Bool(false)),
            Some(b'"') => self.parse_string().map(Tree::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Tree::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Tree::Array(items));
                        }
                        _ => return Err(err(format!("expected `,` or `]` at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Tree::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Tree::Object(entries));
                        }
                        _ => return Err(err(format!("expected `,` or `}}` at byte {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(err(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(err("unexpected end of input")),
        }
    }

    fn parse_number(&mut self) -> Result<Tree, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Tree::Num)
            .map_err(|_| err(format!("invalid number `{text}` at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| err("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| err("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` in one step. Both
                    // are ASCII, so they never sit inside a multibyte sequence
                    // and the run ends on a `char` boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or_else(|| err("unterminated string"))?;
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }
}
