//! The workspace's one JSON reader: a strict RFC 8259 tokenizer over a
//! byte cursor.
//!
//! `serde_json::from_str::<T>` hands a [`Reader`] to
//! [`Deserialize::read_json`](crate::Deserialize::read_json). Types with
//! a direct decoder (derived named-field and newtype structs, `Vec`,
//! `Option` and `Box`) walk their containers straight off the bytes.
//! Every other type reads its value with [`Reader::parse_value`] and
//! converts the [`Value`] with `from_value`; for a scalar such as an
//! `f64` field that is one token and no tree. Both paths run on this
//! tokenizer and share one nesting count, so they accept exactly the
//! same documents.
//!
//! The grammar is strict: no trailing bytes, comments or NaN literals,
//! numbers only in the RFC 8259 §6 form and finite as `f64`, exactly
//! four hex digits after `\u`. More than 128 open containers around a
//! value are rejected, so untrusted request bodies cannot overflow the
//! stack.

use crate::{Error, Value};
use std::borrow::Cow;

/// Maximum number of containers open around any value.
const MAX_DEPTH: usize = 128;

/// A cursor over one JSON document.
///
/// Objects are read as `begin_object`, then `next_key` until it returns
/// `None`, reading one value after each key; arrays as
/// `begin_array`, then `next_element` until it returns `false`, reading
/// one value after each `true`.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// Whether the innermost open container has produced no entry yet.
    first: bool,
}

/// The start of one value. Opening a container consumes its bracket.
enum Token<'a> {
    /// `null`, a boolean or a number.
    Scalar(Value),
    Str(Cow<'a, str>),
    Object,
    Array,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Accepts the end of the document: only whitespace may follow.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(Error::msg(format!(
                "trailing characters at byte {}",
                self.pos
            )))
        }
    }

    /// Reads one whole value into a [`Value`] tree.
    pub fn parse_value(&mut self) -> Result<Value, Error> {
        Ok(match self.token()? {
            Token::Scalar(v) => v,
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::Object => {
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.parse_value()?;
                    entries.push((key.into_owned(), value));
                }
                Value::Map(entries)
            }
            Token::Array => {
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.parse_value()?);
                }
                Value::Seq(items)
            }
        })
    }

    /// Consumes the next value if it is `null`.
    #[inline]
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek()? == b'n' {
            self.token()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Enters the object that must start here.
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), Error> {
        let at = self.pos;
        match self.token()? {
            Token::Object => Ok(()),
            _ => Err(Error::msg(format!("expected an object at byte {at}"))),
        }
    }

    /// Reads the next key of the open object and its `:`; `None` once
    /// the object's `}` is consumed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if self.byte() != Some(b':') {
            return Err(Error::msg(format!("expected ':' at byte {}", self.pos)));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Enters the array that must start here.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), Error> {
        let at = self.pos;
        match self.token()? {
            Token::Array => Ok(()),
            _ => Err(Error::msg(format!("expected an array at byte {at}"))),
        }
    }

    /// Whether the open array has another element; `false` once its `]`
    /// is consumed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next_entry(b']')
    }

    // ------------------------------------------------------------ tokens

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while pos < bytes.len() && matches!(bytes[pos], b' ' | b'\t' | b'\n' | b'\r') {
            pos += 1;
        }
        self.pos = pos;
    }

    /// The first byte of the value that starts here, after whitespace.
    /// Every value, scalar or container, passes the depth check here.
    #[inline]
    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(Error::msg("JSON nesting too deep"));
        }
        self.byte()
            .ok_or_else(|| Error::msg("unexpected end of input"))
    }

    #[inline]
    fn token(&mut self) -> Result<Token<'a>, Error> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                self.pos += 1;
                self.depth += 1;
                self.first = true;
                Ok(if open == b'{' {
                    Token::Object
                } else {
                    Token::Array
                })
            }
            b'"' => self.string().map(Token::Str),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number().map(Token::Scalar),
            c => Err(Error::msg(format!(
                "unexpected character {:?} at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Token<'a>, Error> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(Token::Scalar(value))
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Steps to the next entry of the open container: past the `,` that
    /// must separate it from the previous one, or out through `close`.
    #[inline]
    fn next_entry(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(Error::msg(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            ))),
        }
    }

    /// A string token, borrowed from the text unless it holds escapes.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.byte() != Some(b'"') {
            return Err(Error::msg(format!("expected string at byte {}", self.pos)));
        }
        self.pos += 1;
        let text = self.text;
        let mut owned: Option<String> = None;
        // Start of the unescaped run being scanned. Runs end at ASCII
        // bytes, so they are always whole UTF-8 sequences of `text`.
        let mut run = self.pos;
        loop {
            match self.byte() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(Error::msg("unescaped control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a `\uXXXX` low half must follow.
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(Error::msg("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(Error::msg("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| Error::msg("invalid unicode escape"));
            }
            _ => return Err(Error::msg("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("truncated unicode escape"))?;
        let mut code = 0;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| Error::msg("invalid unicode escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// A number in the RFC 8259 §6 form
    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    /// Integer tokens become `Int`, else `UInt`, else `Float`; the rest
    /// are `str::parse::<f64>` of the token, which must be finite.
    #[inline]
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let invalid = || Error::msg(format!("invalid number at byte {start}"));
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid()),
        }
        let mut integer = true;
        if self.byte() == Some(b'.') {
            self.pos += 1;
            integer = false;
            if !self.digits() {
                return Err(invalid());
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            integer = false;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(invalid());
            }
        }
        let text = &self.text[start..self.pos];
        if integer {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            Ok(_) => Err(Error::msg(format!("number out of range at byte {start}"))),
            Err(_) => Err(invalid()),
        }
    }

    /// Consumes a run of ASCII digits; whether there was one.
    #[inline]
    fn digits(&mut self) -> bool {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut pos = start;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
        self.pos = pos;
        pos > start
    }
}
