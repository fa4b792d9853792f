//! Atomic values of the built-in `xs:*` types.
//!
//! The engine supports the subset of the XML Schema atomic types that
//! XQuery 1.0 arithmetic, comparison, and the ALDSP data-service layer
//! exercise: `xs:string`, `xs:boolean`, `xs:integer`, `xs:decimal`,
//! `xs:double`, `xs:QName`, `xs:anyURI`, `xs:date`, `xs:dateTime`, and
//! `xs:untypedAtomic` (the type of data extracted from schemaless
//! nodes). Casting follows XQuery 1.0 §17; comparison follows the `eq`
//! family of value comparisons with numeric promotion and
//! untypedAtomic-to-string coercion.

use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;

use crate::datetime::{Date, DateTime};
use crate::decimal::Decimal;
use crate::error::{ErrorCode, XdmError, XdmResult};
use crate::qname::QName;

/// The dynamic type tag of an atomic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicType {
    /// `xs:untypedAtomic`
    UntypedAtomic,
    /// `xs:string`
    String,
    /// `xs:boolean`
    Boolean,
    /// `xs:integer`
    Integer,
    /// `xs:decimal`
    Decimal,
    /// `xs:double`
    Double,
    /// `xs:QName`
    QName,
    /// `xs:anyURI`
    AnyUri,
    /// `xs:date`
    Date,
    /// `xs:dateTime`
    DateTime,
}

impl AtomicType {
    /// Resolve an `xs:` local name to a type tag.
    pub fn from_local(local: &str) -> Option<AtomicType> {
        Some(match local {
            "untypedAtomic" => AtomicType::UntypedAtomic,
            "string" => AtomicType::String,
            "boolean" => AtomicType::Boolean,
            "integer" | "int" | "long" | "short" | "byte" | "nonNegativeInteger"
            | "positiveInteger" | "negativeInteger" | "nonPositiveInteger"
            | "unsignedInt" | "unsignedLong" | "unsignedShort" | "unsignedByte" => {
                AtomicType::Integer
            }
            "decimal" => AtomicType::Decimal,
            "double" | "float" => AtomicType::Double,
            "QName" => AtomicType::QName,
            "anyURI" => AtomicType::AnyUri,
            "date" => AtomicType::Date,
            "dateTime" => AtomicType::DateTime,
            _ => return None,
        })
    }

    /// The canonical `xs:` local name of the type.
    pub fn local(&self) -> &'static str {
        match self {
            AtomicType::UntypedAtomic => "untypedAtomic",
            AtomicType::String => "string",
            AtomicType::Boolean => "boolean",
            AtomicType::Integer => "integer",
            AtomicType::Decimal => "decimal",
            AtomicType::Double => "double",
            AtomicType::QName => "QName",
            AtomicType::AnyUri => "anyURI",
            AtomicType::Date => "date",
            AtomicType::DateTime => "dateTime",
        }
    }

    /// Whether the type is one of the numeric types.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            AtomicType::Integer | AtomicType::Decimal | AtomicType::Double
        )
    }

    /// Type-hierarchy subsumption: is `self` derived from (or equal to)
    /// `base`? `xs:integer` is derived from `xs:decimal`.
    pub fn derives_from(&self, base: AtomicType) -> bool {
        *self == base
            || (*self == AtomicType::Integer && base == AtomicType::Decimal)
    }
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xs:{}", self.local())
    }
}

/// An atomic value: the leaf of the XDM item hierarchy.
///
/// The text-valued types hold an `Rc<str>`, as text nodes do, so the
/// typed value of a text-only element shares its text node's string,
/// and cloning a string value is a reference-count bump.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicValue {
    /// `xs:untypedAtomic` — raw text from schemaless nodes.
    Untyped(Rc<str>),
    /// `xs:string`
    String(Rc<str>),
    /// `xs:boolean`
    Boolean(bool),
    /// `xs:integer`
    Integer(i64),
    /// `xs:decimal`
    Decimal(Decimal),
    /// `xs:double`
    Double(f64),
    /// `xs:QName`
    QName(QName),
    /// `xs:anyURI`
    AnyUri(Rc<str>),
    /// `xs:date`
    Date(Date),
    /// `xs:dateTime`
    DateTime(DateTime),
}

impl AtomicValue {
    /// The dynamic type of the value.
    pub fn type_of(&self) -> AtomicType {
        match self {
            AtomicValue::Untyped(_) => AtomicType::UntypedAtomic,
            AtomicValue::String(_) => AtomicType::String,
            AtomicValue::Boolean(_) => AtomicType::Boolean,
            AtomicValue::Integer(_) => AtomicType::Integer,
            AtomicValue::Decimal(_) => AtomicType::Decimal,
            AtomicValue::Double(_) => AtomicType::Double,
            AtomicValue::QName(_) => AtomicType::QName,
            AtomicValue::AnyUri(_) => AtomicType::AnyUri,
            AtomicValue::Date(_) => AtomicType::Date,
            AtomicValue::DateTime(_) => AtomicType::DateTime,
        }
    }

    /// The lexical (string) form of the value, per `fn:string`.
    pub fn string_value(&self) -> String {
        match self {
            AtomicValue::Untyped(s)
            | AtomicValue::String(s)
            | AtomicValue::AnyUri(s) => s.to_string(),
            AtomicValue::Boolean(b) => b.to_string(),
            AtomicValue::Integer(i) => i.to_string(),
            AtomicValue::Decimal(d) => d.to_string(),
            AtomicValue::Double(d) => format_double(*d),
            AtomicValue::QName(q) => q.lexical(),
            AtomicValue::Date(d) => d.to_string(),
            AtomicValue::DateTime(d) => d.to_string(),
        }
    }

    /// The lexical form as a shared string: the text of a string-valued
    /// value (`xs:string`, `xs:untypedAtomic`, `xs:anyURI`) without a
    /// copy, any other value's lexical form newly made.
    pub fn string_shared(&self) -> Rc<str> {
        match self {
            AtomicValue::Untyped(s) | AtomicValue::String(s) | AtomicValue::AnyUri(s) => s.clone(),
            _ => self.string_value().into(),
        }
    }

    /// Cast to the target type per XQuery 1.0 §17 (subset).
    pub fn cast_to(&self, target: AtomicType) -> XdmResult<AtomicValue> {
        use AtomicType as T;
        use AtomicValue as V;
        if self.type_of() == target {
            return Ok(self.clone());
        }
        let from_lexical = |raw: &Rc<str>| -> XdmResult<AtomicValue> {
            // xs:string and xs:untypedAtomic keep the text as it is
            // (whitespace facet `preserve`), so they share it; the other
            // targets collapse it.
            let s = raw.trim();
            Ok(match target {
                T::UntypedAtomic => V::Untyped(raw.clone()),
                T::String => V::String(raw.clone()),
                T::AnyUri if s.len() == raw.len() => V::AnyUri(raw.clone()),
                T::AnyUri => V::AnyUri(s.into()),
                T::Boolean => match s {
                    "true" | "1" => V::Boolean(true),
                    "false" | "0" => V::Boolean(false),
                    _ => {
                        return Err(XdmError::new(
                            ErrorCode::FORG0001,
                            format!("cannot cast {s:?} to xs:boolean"),
                        ))
                    }
                },
                T::Integer => V::Integer(parse_integer(s)?),
                T::Decimal => V::Decimal(Decimal::parse(s)?),
                T::Double => V::Double(parse_double(s)?),
                T::Date => V::Date(Date::parse(s)?),
                T::DateTime => V::DateTime(DateTime::parse(s)?),
                T::QName => V::QName(QName::parse_lexical(s).ok_or_else(|| {
                    XdmError::new(
                        ErrorCode::FORG0001,
                        format!("cannot cast {s:?} to xs:QName"),
                    )
                })?),
            })
        };
        match self {
            V::Untyped(s) | V::String(s) | V::AnyUri(s) => from_lexical(s),
            V::Boolean(b) => Ok(match target {
                T::String => V::String(b.to_string().into()),
                T::UntypedAtomic => V::Untyped(b.to_string().into()),
                T::Integer => V::Integer(*b as i64),
                T::Decimal => V::Decimal(Decimal::from_i64(*b as i64)),
                T::Double => V::Double(*b as i64 as f64),
                _ => return Err(self.cast_err(target)),
            }),
            V::Integer(i) => Ok(match target {
                T::String => V::String(i.to_string().into()),
                T::UntypedAtomic => V::Untyped(i.to_string().into()),
                T::Boolean => V::Boolean(*i != 0),
                T::Decimal => V::Decimal(Decimal::from_i64(*i)),
                T::Double => V::Double(*i as f64),
                _ => return Err(self.cast_err(target)),
            }),
            V::Decimal(d) => Ok(match target {
                T::String => V::String(d.to_string().into()),
                T::UntypedAtomic => V::Untyped(d.to_string().into()),
                T::Boolean => V::Boolean(!d.is_zero()),
                T::Integer => V::Integer(d.trunc_i64()?),
                T::Double => V::Double(d.to_f64()),
                _ => return Err(self.cast_err(target)),
            }),
            V::Double(d) => Ok(match target {
                T::String => V::String(format_double(*d).into()),
                T::UntypedAtomic => V::Untyped(format_double(*d).into()),
                T::Boolean => V::Boolean(*d != 0.0 && !d.is_nan()),
                T::Integer => {
                    if d.is_nan() || d.is_infinite() {
                        return Err(XdmError::new(
                            ErrorCode::FORG0001,
                            "cannot cast NaN/INF to xs:integer",
                        ));
                    }
                    V::Integer(d.trunc() as i64)
                }
                T::Decimal => {
                    if d.is_nan() || d.is_infinite() {
                        return Err(XdmError::new(
                            ErrorCode::FORG0001,
                            "cannot cast NaN/INF to xs:decimal",
                        ));
                    }
                    V::Decimal(Decimal::parse(&format!("{d:.10}"))?)
                }
                _ => return Err(self.cast_err(target)),
            }),
            V::QName(q) => Ok(match target {
                T::String => V::String(q.lexical().into()),
                T::UntypedAtomic => V::Untyped(q.lexical().into()),
                _ => return Err(self.cast_err(target)),
            }),
            V::Date(d) => Ok(match target {
                T::String => V::String(d.to_string().into()),
                T::UntypedAtomic => V::Untyped(d.to_string().into()),
                T::DateTime => V::DateTime(DateTime::new(d.year, d.month, d.day, 0, 0, 0)?),
                _ => return Err(self.cast_err(target)),
            }),
            V::DateTime(dt) => Ok(match target {
                T::String => V::String(dt.to_string().into()),
                T::UntypedAtomic => V::Untyped(dt.to_string().into()),
                T::Date => V::Date(dt.date),
                _ => return Err(self.cast_err(target)),
            }),
        }
    }

    fn cast_err(&self, target: AtomicType) -> XdmError {
        XdmError::new(
            ErrorCode::XPTY0004,
            format!("cannot cast {} to {}", self.type_of(), target),
        )
    }

    /// Value comparison per the XQuery `eq`/`lt` family.
    ///
    /// Numeric operands are promoted to a common type; untypedAtomic is
    /// compared as string against strings and cast to the other
    /// operand's type otherwise. Returns `None` for incomparable types
    /// (the caller raises `XPTY0004`) and for NaN comparisons.
    pub fn value_compare(&self, other: &AtomicValue) -> XdmResult<Option<Ordering>> {
        use AtomicValue as V;
        // untypedAtomic coercion.
        match (self, other) {
            (V::Untyped(a), V::Untyped(b)) => return Ok(Some(a.cmp(b))),
            (V::Untyped(_), _) => {
                let coerced = self.coerce_untyped_like(other)?;
                return coerced.value_compare(other);
            }
            (_, V::Untyped(_)) => {
                let coerced = other.coerce_untyped_like(self)?;
                return self.value_compare(&coerced);
            }
            _ => {}
        }
        let (a, b) = (self, other);
        Ok(match (a, b) {
            (V::String(x), V::String(y)) => Some(x.cmp(y)),
            (V::AnyUri(x), V::AnyUri(y)) => Some(x.cmp(y)),
            (V::String(x), V::AnyUri(y)) | (V::AnyUri(y), V::String(x)) => {
                Some(x.cmp(y))
            }
            (V::Boolean(x), V::Boolean(y)) => Some(x.cmp(y)),
            (V::QName(x), V::QName(y)) => {
                // QNames support only eq/ne.
                if x == y {
                    Some(Ordering::Equal)
                } else {
                    Some(Ordering::Less).filter(|_| false).or(Some(Ordering::Greater))
                }
            }
            (V::Date(x), V::Date(y)) => Some(x.cmp(y)),
            (V::DateTime(x), V::DateTime(y)) => Some(x.cmp(y)),
            _ if a.type_of().is_numeric() && b.type_of().is_numeric() => {
                numeric_compare(a, b)?
            }
            _ => {
                return Err(XdmError::new(
                    ErrorCode::XPTY0004,
                    format!(
                        "cannot compare {} with {}",
                        a.type_of(),
                        b.type_of()
                    ),
                ))
            }
        })
    }

    /// Coerce an untypedAtomic like the other operand's type (string
    /// for strings, double for numerics, target type otherwise).
    fn coerce_untyped_like(&self, other: &AtomicValue) -> XdmResult<AtomicValue> {
        let target = match other.type_of() {
            t if t.is_numeric() => AtomicType::Double,
            AtomicType::UntypedAtomic => AtomicType::String,
            t => t,
        };
        self.cast_to(target)
    }

    /// Effective boolean value of a single atomic item.
    pub fn effective_boolean(&self) -> XdmResult<bool> {
        Ok(match self {
            AtomicValue::Boolean(b) => *b,
            AtomicValue::String(s)
            | AtomicValue::Untyped(s)
            | AtomicValue::AnyUri(s) => !s.is_empty(),
            AtomicValue::Integer(i) => *i != 0,
            AtomicValue::Decimal(d) => !d.is_zero(),
            AtomicValue::Double(d) => *d != 0.0 && !d.is_nan(),
            _ => {
                return Err(XdmError::new(
                    ErrorCode::FORG0006,
                    format!("no effective boolean value for {}", self.type_of()),
                ))
            }
        })
    }
}

/// Parse an `xs:integer` lexical form.
pub fn parse_integer(s: &str) -> XdmResult<i64> {
    let t = s.trim();
    let t2 = t.strip_prefix('+').unwrap_or(t);
    t2.parse::<i64>().map_err(|_| {
        XdmError::new(
            ErrorCode::FORG0001,
            format!("invalid xs:integer literal: {s:?}"),
        )
    })
}

/// Parse an `xs:double` lexical form (accepts `INF`, `-INF`, `NaN`).
pub fn parse_double(s: &str) -> XdmResult<f64> {
    let t = s.trim();
    match t {
        "INF" | "+INF" => return Ok(f64::INFINITY),
        "-INF" => return Ok(f64::NEG_INFINITY),
        "NaN" => return Ok(f64::NAN),
        _ => {}
    }
    t.parse::<f64>().map_err(|_| {
        XdmError::new(
            ErrorCode::FORG0001,
            format!("invalid xs:double literal: {s:?}"),
        )
    })
}

/// Canonical-ish `xs:double` serialization (integral doubles print
/// without an exponent or trailing `.0`, matching common engine
/// behaviour for readability).
pub fn format_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".to_string()
    } else if d.is_infinite() {
        if d > 0.0 { "INF".to_string() } else { "-INF".to_string() }
    } else if d == d.trunc() && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d}")
    }
}

fn numeric_compare(a: &AtomicValue, b: &AtomicValue) -> XdmResult<Option<Ordering>> {
    use AtomicValue as V;
    Ok(match (a, b) {
        (V::Integer(x), V::Integer(y)) => Some(x.cmp(y)),
        (V::Decimal(x), V::Decimal(y)) => Some(x.cmp(y)),
        (V::Integer(x), V::Decimal(y)) => Some(Decimal::from_i64(*x).cmp(y)),
        (V::Decimal(x), V::Integer(y)) => Some(x.cmp(&Decimal::from_i64(*y))),
        _ => {
            // At least one side is a double: promote both.
            let xf = to_f64(a)?;
            let yf = to_f64(b)?;
            xf.partial_cmp(&yf)
        }
    })
}

/// Numeric promotion to `f64`.
pub fn to_f64(v: &AtomicValue) -> XdmResult<f64> {
    match v {
        AtomicValue::Integer(i) => Ok(*i as f64),
        AtomicValue::Decimal(d) => Ok(d.to_f64()),
        AtomicValue::Double(d) => Ok(*d),
        AtomicValue::Untyped(s) => parse_double(s),
        _ => Err(XdmError::new(
            ErrorCode::XPTY0004,
            format!("{} is not numeric", v.type_of()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags() {
        assert_eq!(AtomicValue::Integer(1).type_of(), AtomicType::Integer);
        assert_eq!(AtomicType::from_local("int"), Some(AtomicType::Integer));
        assert_eq!(AtomicType::from_local("nosuch"), None);
        assert!(AtomicType::Integer.derives_from(AtomicType::Decimal));
        assert!(!AtomicType::Decimal.derives_from(AtomicType::Integer));
    }

    #[test]
    fn string_values() {
        assert_eq!(AtomicValue::Integer(-5).string_value(), "-5");
        assert_eq!(AtomicValue::Boolean(true).string_value(), "true");
        assert_eq!(AtomicValue::Double(2.0).string_value(), "2");
        assert_eq!(AtomicValue::Double(2.5).string_value(), "2.5");
        assert_eq!(AtomicValue::Double(f64::NAN).string_value(), "NaN");
        assert_eq!(AtomicValue::Double(f64::INFINITY).string_value(), "INF");
    }

    #[test]
    fn casts_from_string() {
        let s = AtomicValue::String("42".into());
        assert_eq!(
            s.cast_to(AtomicType::Integer).unwrap(),
            AtomicValue::Integer(42)
        );
        let s = AtomicValue::String("true".into());
        assert_eq!(
            s.cast_to(AtomicType::Boolean).unwrap(),
            AtomicValue::Boolean(true)
        );
        let s = AtomicValue::String("1".into());
        assert_eq!(
            s.cast_to(AtomicType::Boolean).unwrap(),
            AtomicValue::Boolean(true)
        );
        assert!(AtomicValue::String("maybe".into())
            .cast_to(AtomicType::Boolean)
            .is_err());
        assert_eq!(
            AtomicValue::Untyped(" a b ".into()).cast_to(AtomicType::String).unwrap(),
            AtomicValue::String(" a b ".into())
        );
        assert_eq!(
            AtomicValue::String(" a ".into()).cast_to(AtomicType::UntypedAtomic).unwrap(),
            AtomicValue::Untyped(" a ".into())
        );
    }

    #[test]
    fn casts_between_numerics() {
        let i = AtomicValue::Integer(7);
        assert_eq!(
            i.cast_to(AtomicType::Double).unwrap(),
            AtomicValue::Double(7.0)
        );
        let d = AtomicValue::Double(7.9);
        assert_eq!(
            d.cast_to(AtomicType::Integer).unwrap(),
            AtomicValue::Integer(7)
        );
        assert!(AtomicValue::Double(f64::NAN)
            .cast_to(AtomicType::Integer)
            .is_err());
    }

    #[test]
    fn invalid_casts_are_type_errors() {
        let b = AtomicValue::Boolean(true);
        let e = b.cast_to(AtomicType::Date).unwrap_err();
        assert!(e.is(ErrorCode::XPTY0004));
    }

    #[test]
    fn untyped_comparison_coerces() {
        let u = AtomicValue::Untyped("10".into());
        let i = AtomicValue::Integer(9);
        assert_eq!(u.value_compare(&i).unwrap(), Some(Ordering::Greater));
        // Against a string, untyped compares as string: "10" < "9".
        let s = AtomicValue::String("9".into());
        assert_eq!(u.value_compare(&s).unwrap(), Some(Ordering::Less));
        // ...codepoint by codepoint: whitespace is not trimmed away.
        let padded = AtomicValue::Untyped(" D1".into());
        let key = AtomicValue::String("D1".into());
        assert_eq!(padded.value_compare(&key).unwrap(), Some(Ordering::Less));
        assert_eq!(
            AtomicValue::Untyped(" 7".into()).value_compare(&i).unwrap(),
            Some(Ordering::Less),
            "numeric targets still collapse whitespace"
        );
    }

    #[test]
    fn numeric_promotion_in_comparison() {
        let i = AtomicValue::Integer(1);
        let d = AtomicValue::Double(1.0);
        assert_eq!(i.value_compare(&d).unwrap(), Some(Ordering::Equal));
        let dec = AtomicValue::Decimal(Decimal::parse("1.5").unwrap());
        assert_eq!(i.value_compare(&dec).unwrap(), Some(Ordering::Less));
    }

    #[test]
    fn nan_compares_as_none() {
        let n = AtomicValue::Double(f64::NAN);
        assert_eq!(n.value_compare(&AtomicValue::Integer(1)).unwrap(), None);
    }

    #[test]
    fn incomparable_types_raise() {
        let d = AtomicValue::Date(Date::new(2007, 1, 1).unwrap());
        let i = AtomicValue::Integer(1);
        assert!(d.value_compare(&i).is_err());
    }

    #[test]
    fn effective_boolean_values() {
        assert!(AtomicValue::String("x".into()).effective_boolean().unwrap());
        assert!(!AtomicValue::String("".into()).effective_boolean().unwrap());
        assert!(!AtomicValue::Integer(0).effective_boolean().unwrap());
        assert!(!AtomicValue::Double(f64::NAN).effective_boolean().unwrap());
        assert!(AtomicValue::Date(Date::new(2007, 1, 1).unwrap())
            .effective_boolean()
            .is_err());
    }

    #[test]
    fn qname_compare_eq_only() {
        let a = AtomicValue::QName(QName::new("x"));
        let b = AtomicValue::QName(QName::new("x"));
        let c = AtomicValue::QName(QName::new("y"));
        assert_eq!(a.value_compare(&b).unwrap(), Some(Ordering::Equal));
        assert_ne!(a.value_compare(&c).unwrap(), Some(Ordering::Equal));
    }
}
