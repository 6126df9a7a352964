//! Offline drop-in replacement for the subset of `serde_json` this
//! workspace uses: [`to_string`], [`to_string_pretty`], [`from_str`] and
//! [`parse_value`].
//!
//! The writer renders the `serde` shim's [`Value`] tree. Reading is the
//! shim's one byte reader, `serde::json::Reader`: [`from_str`] lets the
//! target type decode straight from the bytes through
//! `Deserialize::read_json` (types without a direct decoder parse a
//! [`Value`] subtree there and convert it), and [`parse_value`] builds the
//! whole tree. Both reject trailing input.
//!
//! Floating-point round-trips are bit-exact: the writer uses Rust's
//! shortest-round-trip float formatting and the reader is `str::parse`,
//! which is correctly rounding — the pair the real crate's
//! `float_roundtrip` feature guarantees (`tests/model_persistence.rs`
//! relies on this). The reader is strict (RFC 8259 numbers and escapes,
//! no comments, no NaN literals) and depth-limited so untrusted request
//! bodies — the serving stack parses those — cannot overflow the stack.

#![forbid(unsafe_code)]

use serde::json::Reader;
use serde::{Deserialize, Serialize, Value};

/// Parse/serialise error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.to_string())
    }
}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialises `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialises `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses `text` into a `T`, rejecting malformed JSON and trailing input.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut reader = Reader::new(text);
    let value = T::read_json(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Parses `text` into the shim's [`Value`] tree.
pub fn parse_value(text: &str) -> Result<Value> {
    from_str(text)
}

// ------------------------------------------------------------------ writer

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// Rust's float `Display` emits the shortest decimal that parses back to
/// the same bits, so `write → parse` is the identity on finite values.
/// JSON has no non-finite literals; mirror serde_json and emit `null`.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&x.to_string());
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(to_string(&3u32).unwrap(), "3");
        assert_eq!(from_str::<i64>("-17").unwrap(), -17);
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
        assert_eq!(from_str::<String>(r#""a\"b\n""#).unwrap(), "a\"b\n");
        assert_eq!(from_str::<String>(r#""é😀""#).unwrap(), "é😀");
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.5e-8,
            123_456_789.123_456_79,
            std::f64::consts::PI,
            -0.0,
        ] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert!(back.to_bits() == x.to_bits() || back == x, "{x} vs {back}");
        }
        // Typical values round-trip to identical bits.
        for &x in &[0.1, std::f64::consts::PI, 1e300] {
            let back: f64 = from_str(&to_string(&x).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<u8>> = vec![Some(1), None, Some(3)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u8>>>(&json).unwrap(), v);

        let t: (u8, f64, String) = (1, 2.5, "x".into());
        let back: (u8, f64, String) = from_str(&to_string(&t).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u8>>("[1,2").is_err());
        assert!(from_str::<Vec<u8>>("[1,2] trailing").is_err());
        assert!(from_str::<f64>("\"nope\"").is_err());
        assert!(parse_value("{\"a\" 1}").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse_value(&deep).is_err());
    }

    #[test]
    fn numbers_and_escapes_follow_rfc_8259() {
        // (input, what both `parse_value` and the direct decoders read).
        let cases: &[(&str, Option<Value>)] = &[
            ("0", Some(Value::Int(0))),
            ("10", Some(Value::Int(10))),
            ("-7", Some(Value::Int(-7))),
            ("18446744073709551615", Some(Value::UInt(u64::MAX))),
            ("99999999999999999999", Some(Value::Float(1e20))),
            ("1.5", Some(Value::Float(1.5))),
            ("-0.25", Some(Value::Float(-0.25))),
            ("0.0", Some(Value::Float(0.0))),
            ("1e5", Some(Value::Float(1e5))),
            ("1E+5", Some(Value::Float(1e5))),
            ("2.5e-3", Some(Value::Float(2.5e-3))),
            ("1e-400", Some(Value::Float(0.0))),
            ("01", None),
            ("-01", None),
            ("00", None),
            ("1.", None),
            (".5", None),
            ("-.5", None),
            ("1.e5", None),
            ("1e", None),
            ("1e+", None),
            ("+1", None),
            ("-", None),
            ("--1", None),
            ("0x10", None),
            ("1e400", None),
            ("-1e400", None),
            (&"9".repeat(400), None),
            ("NaN", None),
            ("Infinity", None),
            (r#""\u0041""#, Some(Value::Str("A".into()))),
            (r#""\u00e9\u00E9""#, Some(Value::Str("éé".into()))),
            (r#""\ud83d\ude00""#, Some(Value::Str("😀".into()))),
            (r#""\u+041""#, None),
            (r#""\u-041""#, None),
            (r#""\u 041""#, None),
            (r#""\u004""#, None),
            (r#""\u004g""#, None),
            (r#""\ud83d""#, None),
            (r#""\x41""#, None),
        ];
        for (input, want) in cases {
            let got = parse_value(input).ok();
            assert_eq!(&got, want, "parse_value({input})");
            match want {
                Some(Value::Str(s)) => assert_eq!(from_str::<String>(input).ok().as_ref(), Some(s)),
                Some(v) => {
                    let want = f64::from_value(v).unwrap();
                    let got = from_str::<f64>(input).expect(input);
                    assert_eq!(got.to_bits(), want.to_bits(), "from_str::<f64>({input})");
                }
                None if input.starts_with('"') => {
                    assert!(
                        from_str::<String>(input).is_err(),
                        "from_str::<String>({input})"
                    );
                }
                None => {
                    assert!(from_str::<f64>(input).is_err(), "from_str::<f64>({input})");
                    assert!(
                        from_str::<Vec<f64>>(&format!("[{input}]")).is_err(),
                        "[{input}]"
                    );
                }
            }
        }
        let err = parse_value("1e400").unwrap_err().to_string();
        assert!(err.contains("number out of range"), "{err}");
    }

    #[test]
    fn pretty_output_is_indented_and_parses_back() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct P {
            a: u32,
            b: Vec<f64>,
        }
        let p = P {
            a: 1,
            b: vec![0.5, 2.0],
        };
        let pretty = to_string_pretty(&p).unwrap();
        assert!(pretty.contains("\n  \"a\": 1"));
        assert_eq!(from_str::<P>(&pretty).unwrap(), p);
    }
}
