//! Offline drop-in replacement for the subset of `serde` this workspace
//! uses.
//!
//! The build environment has no crates.io access, so the workspace ships
//! its own serialisation stack. [`Serialize`] renders a type into the
//! [`Value`] tree, which the `serde_json` shim writes as text.
//! [`Deserialize`] has two ways back from JSON, both over the one byte
//! reader in [`json`]: derived structs, `Vec`, `Option` and `Box`
//! override `read_json` to walk their containers straight off the bytes,
//! and its default parses a [`Value`] and calls `from_value` (scalars,
//! enums, maps, tuples and hand-written impls). The derive macros
//! (re-exported from `serde_derive`) generate the same externally-tagged
//! representation real serde produces for the shapes this repo declares,
//! so existing JSON artifacts keep their format.

#![forbid(unsafe_code)]

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model every type serialises through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON numbers without fraction/exponent).
    Int(i64),
    /// Unsigned integer beyond `i64`'s range.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object, as ordered key–value pairs (preserves field order).
    Map(Vec<(String, Value)>),
}

/// Serialisation/deserialisation error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error carrying `msg`.
    pub fn msg(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types renderable into a [`Value`].
pub trait Serialize {
    /// Renders `self` into the data model.
    fn to_value(&self) -> Value;
}

/// Types restorable from a [`Value`] or straight from JSON.
pub trait Deserialize: Sized {
    /// Reads an instance back from the data model.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Decodes the JSON value at the reader's cursor. The default parses
    /// it into a [`Value`] and calls [`Deserialize::from_value`]; a direct
    /// decoder must accept exactly what that path accepts, with the same
    /// result.
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        Self::from_value(&r.parse_value()?)
    }
}

/// Compatibility alias module mirroring `serde::de`.
pub mod de {
    /// Real serde distinguishes borrowing deserialisers; the shim has no
    /// borrowed variant, so `DeserializeOwned` is the trait.
    pub use crate::Deserialize as DeserializeOwned;
}

/// Compatibility alias module mirroring `serde::ser`.
pub mod ser {
    pub use crate::Serialize;
}

// ----------------------------------------------------------- derive support

/// Ordered-map key lookup used by generated `Deserialize` impls.
pub fn map_get<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Missing-field recovery used by generated `Deserialize` impls: types
/// that deserialise from `null` (e.g. `Option`) absorb the absence, every
/// other type reports the field. Mirrors serde's `missing_field`.
pub fn missing_field<T: Deserialize>(name: &str) -> Result<T, Error> {
    T::from_value(&Value::Null).map_err(|_| Error::msg(format!("missing field `{name}`")))
}

// ------------------------------------------------------------- primitives

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        r.parse_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::msg("expected a boolean")),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n: i64 = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| Error::msg("integer out of range"))?,
                    _ => return Err(Error::msg("expected an integer")),
                };
                <$t>::try_from(n).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n: u64 = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) => u64::try_from(*n)
                        .map_err(|_| Error::msg("expected a non-negative integer"))?,
                    _ => return Err(Error::msg("expected an integer")),
                };
                <$t>::try_from(n).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            _ => Err(Error::msg("expected a number")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::msg("expected a string")),
        }
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        match r.parse_value()? {
            Value::Str(s) => Ok(s),
            other => Self::from_value(&other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::msg("expected a one-character string")),
        }
    }
}

// -------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        T::read_json(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        if r.null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::msg("expected an array")),
        }
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::read_json(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) if items.len() == N => {
                let mut out = [T::default(); N];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = T::from_value(item)?;
                }
                Ok(out)
            }
            _ => Err(Error::msg("expected a fixed-length array")),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match v {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    _ => Err(Error::msg("expected a tuple array")),
                }
            }
        }
    )+};
}

impl_tuple!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
);

impl<K: Serialize + ToString, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize
    for std::collections::HashMap<String, V, S>
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(Error::msg("expected an object")),
        }
    }
}

impl<K: Serialize + ToString, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(Error::msg("expected an object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_absorbs_null_and_missing() {
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_value(&Value::UInt(3)).unwrap(), Some(3));
        assert_eq!(missing_field::<Option<u32>>("x").unwrap(), None);
        assert!(missing_field::<f64>("x").is_err());
    }

    #[test]
    fn integers_check_range() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(usize::from_value(&Value::Int(-1)).is_err());
        assert_eq!(i64::from_value(&Value::UInt(5)).unwrap(), 5);
        assert!(i64::from_value(&Value::UInt(u64::MAX)).is_err());
    }

    #[test]
    fn floats_accept_integer_tokens() {
        assert_eq!(f64::from_value(&Value::Int(3)).unwrap(), 3.0);
        assert!(f64::from_value(&Value::Null).is_err());
    }
}
