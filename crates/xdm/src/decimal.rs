//! `xs:decimal` — exact fixed-point decimal arithmetic.
//!
//! XQuery arithmetic on `xs:decimal` (and `xs:integer`, which is derived
//! from it) must be exact, so `f64` is not an option. [`Decimal`] stores
//! an `i128` mantissa and a decimal scale (number of fractional digits),
//! normalizing trailing zeros away so that equality and hashing agree
//! with numeric equality.
//!
//! Division is carried out to [`DIV_SCALE`] fractional digits and then
//! normalized, matching the "implementation-defined precision" latitude
//! of the F&O spec.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{ErrorCode, XdmError, XdmResult};

/// Number of fractional digits carried by division before normalizing.
pub const DIV_SCALE: u32 = 18;

/// An exact decimal number: `mantissa * 10^-scale`.
///
/// ```
/// use xdm::decimal::Decimal;
/// let a = Decimal::parse("0.1").unwrap();
/// let b = Decimal::parse("0.2").unwrap();
/// assert_eq!(a.checked_add(b).unwrap(), Decimal::parse("0.3").unwrap());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    mantissa: i128,
    scale: u32,
}

impl Decimal {
    /// Zero.
    pub const ZERO: Decimal = Decimal { mantissa: 0, scale: 0 };
    /// One.
    pub const ONE: Decimal = Decimal { mantissa: 1, scale: 0 };

    /// Build from a raw mantissa and scale, normalizing.
    pub fn from_parts(mantissa: i128, scale: u32) -> Decimal {
        Decimal { mantissa, scale }.normalize()
    }

    /// The integer `n` as a decimal.
    pub fn from_i64(n: i64) -> Decimal {
        Decimal { mantissa: n as i128, scale: 0 }
    }

    /// Mantissa accessor (after normalization).
    pub fn mantissa(&self) -> i128 {
        self.mantissa
    }

    /// Scale accessor (after normalization).
    pub fn scale(&self) -> u32 {
        self.scale
    }

    fn normalize(mut self) -> Decimal {
        if self.mantissa == 0 {
            self.scale = 0;
            return self;
        }
        while self.scale > 0 && self.mantissa % 10 == 0 {
            self.mantissa /= 10;
            self.scale -= 1;
        }
        self
    }

    /// Parse the lexical form of `xs:decimal`: optional sign, digits,
    /// optional fraction (`[+-]?\d*\.?\d*` with at least one digit).
    pub fn parse(s: &str) -> XdmResult<Decimal> {
        let s = s.trim();
        let err = || {
            XdmError::new(
                ErrorCode::FORG0001,
                format!("invalid xs:decimal literal: {s:?}"),
            )
        };
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() {
            return Err(err());
        }
        let (int_part, frac_part) = match body.split_once('.') {
            Some((i, f)) => (i, f),
            None => (body, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(err());
        }
        if !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(err());
        }
        let mut mantissa: i128 = 0;
        for b in int_part.bytes().chain(frac_part.bytes()) {
            mantissa = mantissa
                .checked_mul(10)
                .and_then(|m| m.checked_add((b - b'0') as i128))
                .ok_or_else(|| {
                    XdmError::new(ErrorCode::FOAR0002, "xs:decimal overflow")
                })?;
        }
        if neg {
            mantissa = -mantissa;
        }
        Ok(Decimal { mantissa, scale: frac_part.len() as u32 }.normalize())
    }

    fn overflow() -> XdmError {
        XdmError::new(ErrorCode::FOAR0002, "xs:decimal overflow")
    }

    /// Rescale both operands to a common scale.
    fn align(a: Decimal, b: Decimal) -> XdmResult<(i128, i128, u32)> {
        let scale = a.scale.max(b.scale);
        let am = a
            .mantissa
            .checked_mul(pow10(scale - a.scale)?)
            .ok_or_else(Self::overflow)?;
        let bm = b
            .mantissa
            .checked_mul(pow10(scale - b.scale)?)
            .ok_or_else(Self::overflow)?;
        Ok((am, bm, scale))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Decimal) -> XdmResult<Decimal> {
        let (a, b, s) = Self::align(self, rhs)?;
        let m = a.checked_add(b).ok_or_else(Self::overflow)?;
        Ok(Decimal { mantissa: m, scale: s }.normalize())
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Decimal) -> XdmResult<Decimal> {
        self.checked_add(rhs.checked_neg()?)
    }

    /// Checked negation.
    pub fn checked_neg(self) -> XdmResult<Decimal> {
        let m = self.mantissa.checked_neg().ok_or_else(Self::overflow)?;
        Ok(Decimal { mantissa: m, scale: self.scale })
    }

    /// Checked multiplication.
    pub fn checked_mul(self, rhs: Decimal) -> XdmResult<Decimal> {
        let m = self
            .mantissa
            .checked_mul(rhs.mantissa)
            .ok_or_else(Self::overflow)?;
        Ok(Decimal { mantissa: m, scale: self.scale + rhs.scale }.normalize())
    }

    /// Checked division, carried to [`DIV_SCALE`] fractional digits.
    pub fn checked_div(self, rhs: Decimal) -> XdmResult<Decimal> {
        if rhs.mantissa == 0 {
            return Err(XdmError::new(ErrorCode::FOAR0001, "division by zero"));
        }
        // (a*10^-as) / (b*10^-bs) = (a/b) * 10^(bs-as); compute a*10^k/b
        // with k chosen so the result has DIV_SCALE fractional digits.
        let target = DIV_SCALE;
        let k = target + rhs.scale;
        let scaled = self
            .mantissa
            .checked_mul(pow10(k)?)
            .ok_or_else(Self::overflow)?;
        let q = scaled / rhs.mantissa;
        Ok(Decimal { mantissa: q, scale: target + self.scale }.normalize())
    }

    /// Integer division (`idiv`): truncation toward zero.
    pub fn checked_idiv(self, rhs: Decimal) -> XdmResult<i64> {
        if rhs.mantissa == 0 {
            return Err(XdmError::new(ErrorCode::FOAR0001, "division by zero"));
        }
        let (a, b, _) = Self::align(self, rhs)?;
        let q = a / b;
        i64::try_from(q).map_err(|_| Self::overflow())
    }

    /// Modulus with the sign of the dividend, per F&O `mod`.
    pub fn checked_mod(self, rhs: Decimal) -> XdmResult<Decimal> {
        if rhs.mantissa == 0 {
            return Err(XdmError::new(ErrorCode::FOAR0001, "division by zero"));
        }
        let (a, b, s) = Self::align(self, rhs)?;
        Ok(Decimal { mantissa: a % b, scale: s }.normalize())
    }

    /// Truncate to an `i64` (toward zero).
    pub fn trunc_i64(self) -> XdmResult<i64> {
        let div = pow10(self.scale)?;
        i64::try_from(self.mantissa / div).map_err(|_| Self::overflow())
    }

    /// Round half-up ("round half to even away from zero" per fn:round)
    /// to an integer-valued decimal.
    pub fn round(self) -> Decimal {
        if self.scale == 0 {
            return self;
        }
        let div = pow10(self.scale).expect("scale bounded by parse");
        let (q, r) = (self.mantissa / div, self.mantissa % div);
        let half = div / 2;
        let m = if r >= half {
            q + 1
        } else if -r > half {
            // fn:round(-2.5) is -2: negative halves round toward +inf.
            q - 1
        } else {
            q
        };
        Decimal { mantissa: m, scale: 0 }
    }

    /// Largest integer not greater than the value.
    pub fn floor(self) -> Decimal {
        if self.scale == 0 {
            return self;
        }
        let div = pow10(self.scale).expect("scale bounded by parse");
        let q = self.mantissa.div_euclid(div);
        Decimal { mantissa: q, scale: 0 }
    }

    /// Smallest integer not less than the value.
    pub fn ceiling(self) -> Decimal {
        if self.scale == 0 {
            return self;
        }
        let div = pow10(self.scale).expect("scale bounded by parse");
        let q = -((-self.mantissa).div_euclid(div));
        Decimal { mantissa: q, scale: 0 }
    }

    /// Absolute value.
    pub fn abs(self) -> Decimal {
        Decimal { mantissa: self.mantissa.abs(), scale: self.scale }
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.mantissa == 0
    }

    /// Lossy conversion to `f64` (for promotion to `xs:double`).
    pub fn to_f64(&self) -> f64 {
        self.mantissa as f64 / 10f64.powi(self.scale as i32)
    }
}

fn pow10(n: u32) -> XdmResult<i128> {
    10i128
        .checked_pow(n)
        .ok_or_else(|| XdmError::new(ErrorCode::FOAR0002, "xs:decimal overflow"))
}

impl PartialEq for Decimal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Decimal {}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        match Decimal::align(*self, *other) {
            Ok((a, b, _)) => a.cmp(&b),
            // Alignment can only overflow for astronomically scaled
            // values; fall back to float comparison rather than panic.
            Err(_) => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl Hash for Decimal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Normalized representation is canonical, so field hashing is
        // consistent with Eq.
        self.mantissa.hash(state);
        self.scale.hash(state);
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.mantissa);
        }
        let neg = self.mantissa < 0;
        let abs = self.mantissa.unsigned_abs();
        let div = 10u128.pow(self.scale);
        let (int, frac) = (abs / div, abs % div);
        let frac_str = format!("{:0width$}", frac, width = self.scale as usize);
        let frac_str = frac_str.trim_end_matches('0');
        if frac_str.is_empty() {
            write!(f, "{}{}", if neg { "-" } else { "" }, int)
        } else {
            write!(f, "{}{}.{}", if neg { "-" } else { "" }, int, frac_str)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        Decimal::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "1", "-1", "3.14", "-2.50", "007", "0.001", "+5"] {
            let v = d(s);
            let back = d(&v.to_string());
            assert_eq!(v, back, "round trip failed for {s}");
        }
        assert_eq!(d("-2.50").to_string(), "-2.5");
        assert_eq!(d("007").to_string(), "7");
        assert_eq!(d("0.001").to_string(), "0.001");
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", ".", "-", "1.2.3", "1e5", "abc", "1,5"] {
            assert!(Decimal::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn parse_accepts_dot_edge_forms() {
        assert_eq!(d(".5"), d("0.5"));
        assert_eq!(d("5."), d("5"));
    }

    #[test]
    fn arithmetic_is_exact() {
        assert_eq!(d("0.1").checked_add(d("0.2")).unwrap(), d("0.3"));
        assert_eq!(d("1").checked_sub(d("0.9")).unwrap(), d("0.1"));
        assert_eq!(d("1.5").checked_mul(d("2")).unwrap(), d("3"));
        assert_eq!(d("1").checked_div(d("8")).unwrap(), d("0.125"));
    }

    #[test]
    fn division_by_zero_raises_foar0001() {
        let e = d("1").checked_div(Decimal::ZERO).unwrap_err();
        assert!(e.is(ErrorCode::FOAR0001));
        let e = d("1").checked_mod(Decimal::ZERO).unwrap_err();
        assert!(e.is(ErrorCode::FOAR0001));
    }

    #[test]
    fn idiv_truncates_toward_zero() {
        assert_eq!(d("7").checked_idiv(d("2")).unwrap(), 3);
        assert_eq!(d("-7").checked_idiv(d("2")).unwrap(), -3);
        assert_eq!(d("7.5").checked_idiv(d("2.5")).unwrap(), 3);
    }

    #[test]
    fn mod_takes_dividend_sign() {
        assert_eq!(d("7").checked_mod(d("3")).unwrap(), d("1"));
        assert_eq!(d("-7").checked_mod(d("3")).unwrap(), d("-1"));
        assert_eq!(d("7.5").checked_mod(d("2")).unwrap(), d("1.5"));
    }

    #[test]
    fn rounding_family() {
        assert_eq!(d("2.5").round(), d("3"));
        assert_eq!(d("-2.5").round(), d("-2"));
        assert_eq!(d("2.4").round(), d("2"));
        assert_eq!(d("-2.6").round(), d("-3"));
        assert_eq!(d("2.5").floor(), d("2"));
        assert_eq!(d("-2.5").floor(), d("-3"));
        assert_eq!(d("2.5").ceiling(), d("3"));
        assert_eq!(d("-2.5").ceiling(), d("-2"));
    }

    #[test]
    fn comparison_is_scale_independent() {
        assert_eq!(d("1.0"), d("1"));
        assert!(d("1.01") > d("1.001"));
        assert!(d("-3") < d("2.5"));
    }

    #[test]
    fn trunc_i64_works() {
        assert_eq!(d("3.99").trunc_i64().unwrap(), 3);
        assert_eq!(d("-3.99").trunc_i64().unwrap(), -3);
    }
}
