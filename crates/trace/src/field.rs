//! The per-type codec of trace payload fields.
//!
//! Every [`TraceEvent`] payload field is one of six primitive types. The
//! [`Field`] trait says, once per type, which JSON shape the field has,
//! how it encodes and how it decodes; the `trace_events!` declaration in
//! [`crate::event`] applies it field by field to build the encoder, the
//! schema table and the decoder.
//!
//! Integer fields decode from their raw number token (`300` is not a `u8`,
//! `-3` is not a `u64`, `1.5` is not an integer at all), so 64-bit values
//! never round-trip through `f64`. Float fields must be finite on both
//! sides: JSON has no NaN or infinity.
//!
//! [`TraceEvent`]: crate::event::TraceEvent

use crate::event::EncodeError;
use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::str::FromStr;

/// A field-attributable decode failure, before line attribution:
/// `(offending field, message)`.
pub(crate) type Fail = (Option<String>, String);

/// The JSON shape a payload field must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldKind {
    /// Unsigned integer fitting in `u8`.
    U8,
    /// Unsigned integer fitting in `u32`.
    U32,
    /// Unsigned integer fitting in `u64`.
    U64,
    /// Any finite JSON number.
    F64,
    /// A JSON string.
    Str,
    /// A JSON boolean.
    Bool,
}

impl FieldKind {
    fn describe(self) -> &'static str {
        match self {
            FieldKind::U8 => "an unsigned integer ≤ 255",
            FieldKind::U32 => "an unsigned 32-bit integer",
            FieldKind::U64 => "an unsigned 64-bit integer",
            FieldKind::F64 => "a finite number",
            FieldKind::Str => "a string",
            FieldKind::Bool => "a boolean",
        }
    }
}

/// A primitive payload field type.
pub(crate) trait Field: Sized {
    /// The JSON shape the reader requires of this type.
    const KIND: FieldKind;

    /// The field's JSON value; `None` when it has no JSON representation
    /// (a non-finite float).
    fn to_value(&self) -> Option<Value>;

    /// The field read back from a JSON value; `None` when the value does
    /// not have [`Field::KIND`]'s shape.
    fn from_value(value: &Value) -> Option<Self>;
}

/// A number whose raw token parses as `T` — no `f64` round trip.
fn parse_number<T: FromStr>(value: &Value) -> Option<T> {
    value.as_number().and_then(|raw| raw.parse().ok())
}

impl Field for u8 {
    const KIND: FieldKind = FieldKind::U8;

    fn to_value(&self) -> Option<Value> {
        Some(Value::from_u64(u64::from(*self)))
    }

    fn from_value(value: &Value) -> Option<Self> {
        parse_number(value)
    }
}

impl Field for u32 {
    const KIND: FieldKind = FieldKind::U32;

    fn to_value(&self) -> Option<Value> {
        Some(Value::from_u64(u64::from(*self)))
    }

    fn from_value(value: &Value) -> Option<Self> {
        parse_number(value)
    }
}

impl Field for u64 {
    const KIND: FieldKind = FieldKind::U64;

    fn to_value(&self) -> Option<Value> {
        Some(Value::from_u64(*self))
    }

    fn from_value(value: &Value) -> Option<Self> {
        parse_number(value)
    }
}

impl Field for f64 {
    const KIND: FieldKind = FieldKind::F64;

    fn to_value(&self) -> Option<Value> {
        self.is_finite().then(|| Value::from_f64(*self))
    }

    fn from_value(value: &Value) -> Option<Self> {
        parse_number::<f64>(value).filter(|v| v.is_finite())
    }
}

impl Field for String {
    const KIND: FieldKind = FieldKind::Str;

    fn to_value(&self) -> Option<Value> {
        Some(Value::String(self.clone()))
    }

    fn from_value(value: &Value) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl Field for bool {
    const KIND: FieldKind = FieldKind::Bool;

    fn to_value(&self) -> Option<Value> {
        Some(Value::Bool(*self))
    }

    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Inserts `value` into an encoded record under `name`.
///
/// # Errors
///
/// Fails when the value has no JSON representation (a non-finite float).
pub(crate) fn put<T: Field>(
    map: &mut BTreeMap<String, Value>,
    name: &'static str,
    value: &T,
) -> Result<(), EncodeError> {
    let encoded = value.to_value().ok_or(EncodeError { field: name })?;
    map.insert(name.to_owned(), encoded);
    Ok(())
}

/// Reads field `name` of a record as a `T`; `Ok(None)` when it is absent.
///
/// # Errors
///
/// Fails, naming the field and the offending value, when the field is
/// present with the wrong shape.
pub(crate) fn take<T: Field>(map: &BTreeMap<String, Value>, name: &str) -> Result<Option<T>, Fail> {
    let Some(value) = map.get(name) else {
        return Ok(None);
    };
    match T::from_value(value) {
        Some(field) => Ok(Some(field)),
        None => Err((
            Some(name.to_owned()),
            format!(
                "expected {}, got {}",
                T::KIND.describe(),
                json::render(value)
            ),
        )),
    }
}

/// Reads payload field `name` of an `event` record.
///
/// # Errors
///
/// Fails when the field is absent or has the wrong shape.
pub(crate) fn required<T: Field>(
    map: &BTreeMap<String, Value>,
    event: &str,
    name: &str,
) -> Result<T, Fail> {
    take(map, name)?.ok_or_else(|| {
        (
            Some(name.to_owned()),
            format!("missing (required by {event})"),
        )
    })
}

/// The failure for an event tag the schema does not know.
pub(crate) fn unknown_event(event: &str) -> Fail {
    (Some("event".to_owned()), format!("unknown event '{event}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_errors_keep_their_exact_messages() {
        let map = json::parse(r#"{"core":300,"frac":1.5,"hit":"yes","neg":-3}"#)
            .ok()
            .and_then(|v| v.as_object().cloned())
            .expect("test object");
        let message = |r: Result<Option<u64>, Fail>| r.expect_err("rejected").1;
        assert_eq!(
            take::<u8>(&map, "core").expect_err("300 > u8"),
            (
                Some("core".to_owned()),
                "expected an unsigned integer ≤ 255, got 300".to_owned()
            )
        );
        assert_eq!(
            message(take(&map, "neg")),
            "expected an unsigned 64-bit integer, got -3"
        );
        assert_eq!(
            message(take(&map, "frac")),
            "expected an unsigned 64-bit integer, got 1.5"
        );
        assert_eq!(
            required::<bool>(&map, "CacheLookup", "hit").expect_err("mistyped"),
            (
                Some("hit".to_owned()),
                "expected a boolean, got \"yes\"".to_owned()
            )
        );
        assert_eq!(
            required::<u32>(&map, "RailSet", "mv").expect_err("missing"),
            (
                Some("mv".to_owned()),
                "missing (required by RailSet)".to_owned()
            )
        );
        let mut out = BTreeMap::new();
        let err = put(&mut out, "energy_j", &f64::NEG_INFINITY).expect_err("non-finite");
        assert_eq!(err.field, "energy_j");
        assert!(out.is_empty());
    }
}
