//! The builtin function library (`fn:` and `xs:` namespaces).
//!
//! [`dispatch`] resolves a call by expanded name and arity and either
//! executes it (`Some(result)`) or reports that the name is not a
//! builtin (`None`), in which case the evaluator consults the user /
//! external registries.

use std::cmp::Ordering;
use std::ops::Range;

use xdm::atomic::{to_f64, AtomicType, AtomicValue};
use xdm::decimal::Decimal;
use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::NodeKind;
use xdm::qname::{QName, FN_NS, XS_NS};
use xdm::sequence::{Item, Sequence};

use crate::context::Env;
use crate::engine::Engine;
use crate::regex_lite::Regex;

/// Try to execute a builtin. `None` means "not a builtin".
pub fn dispatch(
    engine: &Engine,
    env: &mut Env,
    name: &QName,
    args: Vec<Sequence>,
) -> Option<XdmResult<Sequence>> {
    match name.ns.as_deref() {
        Some(FN_NS) => dispatch_fn(engine, env, &name.local, args),
        Some(XS_NS) => Some(xs_constructor(&name.local, args)),
        _ => None,
    }
}

fn err(code: ErrorCode, msg: impl Into<String>) -> XdmError {
    XdmError::new(code, msg)
}

fn one_string(seq: &Sequence, what: &str) -> XdmResult<String> {
    match seq.atomized().as_slice() {
        [] => Ok(String::new()),
        [a] => Ok(a.string_value()),
        _ => Err(err(ErrorCode::XPTY0004, format!("{what}: expected a single string"))),
    }
}

fn one_atomic(seq: &Sequence, what: &str) -> XdmResult<AtomicValue> {
    let atoms = seq.atomized();
    match atoms.as_slice() {
        [a] => Ok(a.clone()),
        other => Err(err(
            ErrorCode::XPTY0004,
            format!("{what}: expected exactly one atomic value, got {}", other.len()),
        )),
    }
}

fn opt_atomic(seq: &Sequence, what: &str) -> XdmResult<Option<AtomicValue>> {
    let atoms = seq.atomized();
    match atoms.as_slice() {
        [] => Ok(None),
        [a] => Ok(Some(a.clone())),
        other => Err(err(
            ErrorCode::XPTY0004,
            format!("{what}: expected at most one atomic value, got {}", other.len()),
        )),
    }
}

fn one_integer(seq: &Sequence, what: &str) -> XdmResult<i64> {
    match one_atomic(seq, what)?.cast_to(AtomicType::Integer)? {
        AtomicValue::Integer(i) => Ok(i),
        _ => unreachable!(),
    }
}

// Shared with the evaluator's streaming `fn:subsequence` interceptor,
// which must replicate the builtin's window arithmetic exactly.
pub(crate) fn one_double(seq: &Sequence, what: &str) -> XdmResult<f64> {
    to_f64(&one_atomic(seq, what)?)
}

/// `fn:round` on a double: the nearest integer, ties toward +∞.
/// `f64::round` breaks ties away from zero, so only a negative tie
/// moves (`d - r` is exact there); `-0.5` rounds to `-0`.
pub(crate) fn round_half_up(d: f64) -> f64 {
    let r = d.round();
    if d - r == 0.5 {
        (r + 1.0).copysign(d)
    } else {
        r
    }
}

/// The 0-based slice holding the 1-based positions `p` with
/// `first <= p < end`. A NaN bound selects nothing.
pub(crate) fn position_window(first: f64, end: f64) -> Range<usize> {
    // Float-to-int casts saturate: -∞ and negatives give 0, +∞ gives
    // usize::MAX. `first < end` is false for a NaN bound.
    let lo = (first.ceil() - 1.0) as usize;
    let hi = (end.ceil() - 1.0) as usize;
    if first < end && lo < hi {
        lo..hi
    } else {
        0..0
    }
}

/// The window of `fn:subsequence` and `fn:substring`: positions
/// `round(start) <= p < round(start) + round(len)`, no length meaning
/// to the end.
pub(crate) fn rounded_window(start: f64, len: Option<f64>) -> Range<usize> {
    let first = round_half_up(start);
    position_window(first, first + len.map_or(f64::INFINITY, round_half_up))
}

/// The items of `seq` inside `win`.
pub(crate) fn slice(seq: Sequence, win: Range<usize>) -> Sequence {
    let n = seq.len();
    if win.start == 0 && win.end >= n {
        return seq;
    }
    Sequence::from_items(seq.items()[win.start.min(n)..win.end.min(n)].to_vec())
}

fn str_seq(s: String) -> Sequence {
    Sequence::one(Item::string(s))
}

fn bool_seq(b: bool) -> Sequence {
    Sequence::one(Item::boolean(b))
}

fn int_seq(i: i64) -> Sequence {
    Sequence::one(Item::integer(i))
}

fn context_item(env: &Env, what: &str) -> XdmResult<Item> {
    env.focus
        .as_ref()
        .map(|f| f.item.clone())
        .ok_or_else(|| err(ErrorCode::XPDY0002, format!("{what}: no context item")))
}

fn atomic_total_cmp(a: &AtomicValue, b: &AtomicValue) -> XdmResult<Ordering> {
    match a.value_compare(b)? {
        Some(o) => Ok(o),
        None => Ok(Ordering::Equal), // NaN handling in min/max below
    }
}

#[allow(clippy::too_many_lines)]
fn dispatch_fn(
    engine: &Engine,
    env: &mut Env,
    local: &str,
    mut args: Vec<Sequence>,
) -> Option<XdmResult<Sequence>> {
    let arity = args.len();
    let result: XdmResult<Sequence> = match (local, arity) {
        // ---------------------------------------------------- accessors
        ("data", 1) => Ok(args[0]
            .atomized()
            .into_iter()
            .map(Item::Atomic)
            .collect()),
        ("string", 0) => (|| {
            let it = context_item(env, "fn:string")?;
            Ok(str_seq(it.string_value()))
        })(),
        ("string", 1) => args[0].string_value().map(str_seq),
        ("string-length", 0) => (|| {
            let it = context_item(env, "fn:string-length")?;
            Ok(int_seq(it.string_value().chars().count() as i64))
        })(),
        ("string-length", 1) => {
            one_string(&args[0], "fn:string-length")
                .map(|s| int_seq(s.chars().count() as i64))
        }
        ("node-name", 1) => (|| {
            match args[0].zero_or_one()? {
                None => Ok(Sequence::empty()),
                Some(Item::Node(n)) => Ok(match n.name() {
                    Some(q) => Sequence::one(Item::Atomic(AtomicValue::QName(q))),
                    None => Sequence::empty(),
                }),
                Some(_) => Err(err(ErrorCode::XPTY0004, "fn:node-name expects a node")),
            }
        })(),
        ("local-name", 1) | ("name", 1) => (|| {
            match args[0].zero_or_one()? {
                None => Ok(str_seq(String::new())),
                Some(Item::Node(n)) => Ok(str_seq(match n.name() {
                    Some(q) => {
                        if local == "name" {
                            q.lexical()
                        } else {
                            q.local.to_string()
                        }
                    }
                    None => String::new(),
                })),
                Some(_) => Err(err(ErrorCode::XPTY0004, "expected a node")),
            }
        })(),
        ("namespace-uri", 1) => (|| {
            match args[0].zero_or_one()? {
                None => Ok(str_seq(String::new())),
                Some(Item::Node(n)) => Ok(str_seq(
                    n.name().and_then(|q| q.ns).map(String::from).unwrap_or_default(),
                )),
                Some(_) => Err(err(ErrorCode::XPTY0004, "expected a node")),
            }
        })(),
        ("root", 1) => (|| {
            match args[0].zero_or_one()? {
                None => Ok(Sequence::empty()),
                Some(Item::Node(n)) => Ok(Sequence::one(Item::Node(n.root()))),
                Some(_) => Err(err(ErrorCode::XPTY0004, "fn:root expects a node")),
            }
        })(),
        // ---------------------------------------------------- sequences
        ("empty", 1) => Ok(bool_seq(args[0].is_empty())),
        ("exists", 1) => Ok(bool_seq(!args[0].is_empty())),
        ("count", 1) => Ok(int_seq(args[0].len() as i64)),
        ("position", 0) => (|| {
            let f = env.focus.as_ref().ok_or_else(|| {
                err(ErrorCode::XPDY0002, "fn:position: no context")
            })?;
            Ok(int_seq(f.position as i64))
        })(),
        ("last", 0) => (|| {
            let f = env
                .focus
                .as_ref()
                .ok_or_else(|| err(ErrorCode::XPDY0002, "fn:last: no context"))?;
            Ok(int_seq(f.size as i64))
        })(),
        ("distinct-values", 1) => {
            let mut seen: Vec<AtomicValue> = Vec::new();
            for a in args[0].atomized() {
                let dup = seen.iter().any(|s| {
                    matches!(s.value_compare(&a), Ok(Some(Ordering::Equal)))
                });
                if !dup {
                    seen.push(a);
                }
            }
            Ok(seen.into_iter().map(Item::Atomic).collect())
        },
        ("insert-before", 3) => (|| {
            let pos = one_integer(&args[1], "fn:insert-before")?.max(1) as usize;
            let mut items: Vec<Item> = args[0].items().to_vec();
            let at = (pos - 1).min(items.len());
            let ins: Vec<Item> = args[2].items().to_vec();
            items.splice(at..at, ins);
            Ok(Sequence::from_items(items))
        })(),
        ("remove", 2) => (|| {
            let pos = one_integer(&args[1], "fn:remove")?;
            let items: Vec<Item> = args[0]
                .items()
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as i64 + 1) != pos)
                .map(|(_, it)| it.clone())
                .collect();
            Ok(Sequence::from_items(items))
        })(),
        ("reverse", 1) => {
            let mut items: Vec<Item> = args[0].items().to_vec();
            items.reverse();
            Ok(Sequence::from_items(items))
        }
        ("subsequence", 2) | ("subsequence", 3) => (|| {
            let start = one_double(&args[1], "fn:subsequence")?;
            let len = match args.get(2) {
                Some(l) => Some(one_double(l, "fn:subsequence")?),
                None => None,
            };
            let win = rounded_window(start, len);
            Ok(slice(args.swap_remove(0), win))
        })(),
        ("index-of", 2) => (|| {
            let needle = one_atomic(&args[1], "fn:index-of")?;
            let mut out = Vec::new();
            for (i, a) in args[0].atomized().into_iter().enumerate() {
                if matches!(a.value_compare(&needle), Ok(Some(Ordering::Equal))) {
                    out.push(Item::integer(i as i64 + 1));
                }
            }
            Ok(Sequence::from_items(out))
        })(),
        ("zero-or-one", 1) => match args[0].len() {
            0 | 1 => Ok(args.remove(0)),
            _ => Err(err(ErrorCode::FORG0003, "fn:zero-or-one: more than one item")),
        },
        ("one-or-more", 1) => match args[0].len() {
            0 => Err(err(ErrorCode::FORG0004, "fn:one-or-more: empty sequence")),
            _ => Ok(args.remove(0)),
        },
        ("exactly-one", 1) => match args[0].len() {
            1 => Ok(args.remove(0)),
            n => Err(err(
                ErrorCode::FORG0005,
                format!("fn:exactly-one: got {n} items"),
            )),
        },
        ("unordered", 1) => Ok(args.remove(0)),
        ("deep-equal", 2) => (|| {
            let (a, b) = (&args[0], &args[1]);
            if a.len() != b.len() {
                return Ok(bool_seq(false));
            }
            for (x, y) in a.iter().zip(b.iter()) {
                let eq = match (x, y) {
                    (Item::Node(nx), Item::Node(ny)) => nx.deep_equal(ny),
                    (Item::Atomic(ax), Item::Atomic(ay)) => {
                        matches!(ax.value_compare(ay), Ok(Some(Ordering::Equal)))
                    }
                    _ => false,
                };
                if !eq {
                    return Ok(bool_seq(false));
                }
            }
            Ok(bool_seq(true))
        })(),
        // --------------------------------------------------- aggregates
        ("sum", 1) | ("sum", 2) => (|| {
            let atoms = args[0].atomized();
            if atoms.is_empty() {
                return if arity == 2 {
                    Ok(args[1]
                        .atomized()
                        .into_iter()
                        .map(Item::Atomic)
                        .collect())
                } else {
                    Ok(int_seq(0))
                };
            }
            numeric_fold(&atoms, "fn:sum", |acc, v| acc.checked_add(v))
        })(),
        ("avg", 1) => (|| {
            let atoms = args[0].atomized();
            if atoms.is_empty() {
                return Ok(Sequence::empty());
            }
            let n = atoms.len() as i64;
            let total = numeric_fold(&atoms, "fn:avg", |acc, v| acc.checked_add(v))?;
            let total = one_atomic(&total, "fn:avg")?;
            match total {
                AtomicValue::Double(d) => {
                    Ok(Sequence::one(Item::double(d / n as f64)))
                }
                AtomicValue::Integer(i) => Ok(Sequence::one(Item::Atomic(
                    AtomicValue::Decimal(
                        Decimal::from_i64(i).checked_div(Decimal::from_i64(n))?,
                    ),
                ))),
                AtomicValue::Decimal(d) => Ok(Sequence::one(Item::Atomic(
                    AtomicValue::Decimal(d.checked_div(Decimal::from_i64(n))?),
                ))),
                other => Err(err(
                    ErrorCode::FORG0006,
                    format!("fn:avg over non-numeric {}", other.type_of()),
                )),
            }
        })(),
        ("min", 1) | ("max", 1) => (|| {
            let atoms = coerce_comparable(args[0].atomized())?;
            if atoms.is_empty() {
                return Ok(Sequence::empty());
            }
            let want = if local == "min" { Ordering::Less } else { Ordering::Greater };
            let mut best = atoms[0].clone();
            for a in &atoms[1..] {
                // NaN poisons min/max.
                if matches!(a, AtomicValue::Double(d) if d.is_nan()) {
                    return Ok(Sequence::one(Item::double(f64::NAN)));
                }
                if atomic_total_cmp(a, &best)? == want {
                    best = a.clone();
                }
            }
            Ok(Sequence::one(Item::Atomic(best)))
        })(),
        // ------------------------------------------------------ numeric
        ("abs", 1) => (|| {
            match opt_atomic(&args[0], "fn:abs")? {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::Integer(i)) => Ok(int_seq(i.abs())),
                Some(AtomicValue::Decimal(d)) => {
                    Ok(Sequence::one(Item::Atomic(AtomicValue::Decimal(d.abs()))))
                }
                Some(v) => Ok(Sequence::one(Item::double(to_f64(&v)?.abs()))),
            }
        })(),
        ("floor", 1) | ("ceiling", 1) | ("round", 1) => (|| {
            match opt_atomic(&args[0], local)? {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::Integer(i)) => Ok(int_seq(i)),
                Some(AtomicValue::Decimal(d)) => {
                    let r = match local {
                        "floor" => d.floor(),
                        "ceiling" => d.ceiling(),
                        _ => d.round(),
                    };
                    Ok(Sequence::one(Item::Atomic(AtomicValue::Decimal(r))))
                }
                Some(v) => {
                    let d = to_f64(&v)?;
                    let r = match local {
                        "floor" => d.floor(),
                        "ceiling" => d.ceil(),
                        _ => round_half_up(d),
                    };
                    Ok(Sequence::one(Item::double(r)))
                }
            }
        })(),
        ("number", 0) | ("number", 1) => (|| {
            let v = if arity == 0 {
                Some(context_item(env, "fn:number")?.atomize())
            } else {
                opt_atomic(&args[0], "fn:number")?
            };
            let d = match v {
                None => f64::NAN,
                Some(a) => match a.cast_to(AtomicType::Double) {
                    Ok(AtomicValue::Double(d)) => d,
                    _ => f64::NAN,
                },
            };
            Ok(Sequence::one(Item::double(d)))
        })(),
        // ------------------------------------------------------ strings
        ("concat", n) if n >= 2 => (|| {
            let mut out = String::new();
            for a in &args {
                out.push_str(&one_string(a, "fn:concat")?);
            }
            Ok(str_seq(out))
        })(),
        ("string-join", 2) => (|| {
            let sep = one_string(&args[1], "fn:string-join")?;
            let parts: Vec<String> =
                args[0].atomized().iter().map(|a| a.string_value()).collect();
            Ok(str_seq(parts.join(&sep)))
        })(),
        ("substring", 2) | ("substring", 3) => (|| {
            let s = one_string(&args[0], "fn:substring")?;
            let chars: Vec<char> = s.chars().collect();
            let start = one_double(&args[1], "fn:substring")?;
            let len = match args.get(2) {
                Some(l) => Some(one_double(l, "fn:substring")?),
                None => None,
            };
            let win = rounded_window(start, len);
            let n = chars.len();
            Ok(str_seq(chars[win.start.min(n)..win.end.min(n)].iter().collect()))
        })(),
        ("upper-case", 1) => one_string(&args[0], local).map(|s| str_seq(s.to_uppercase())),
        ("lower-case", 1) => one_string(&args[0], local).map(|s| str_seq(s.to_lowercase())),
        ("contains", 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(bool_seq(s.contains(&t)))
        })(),
        ("starts-with", 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(bool_seq(s.starts_with(&t)))
        })(),
        ("ends-with", 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(bool_seq(s.ends_with(&t)))
        })(),
        ("substring-before", 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(str_seq(s.find(&t).map(|i| s[..i].to_string()).unwrap_or_default()))
        })(),
        ("substring-after", 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(str_seq(
                s.find(&t)
                    .map(|i| s[i + t.len()..].to_string())
                    .unwrap_or_default(),
            ))
        })(),
        ("normalize-space", 0) | ("normalize-space", 1) => (|| {
            let s = if arity == 0 {
                context_item(env, local)?.string_value()
            } else {
                one_string(&args[0], local)?
            };
            Ok(str_seq(s.split_whitespace().collect::<Vec<_>>().join(" ")))
        })(),
        ("translate", 3) => (|| {
            let s = one_string(&args[0], local)?;
            let from: Vec<char> = one_string(&args[1], local)?.chars().collect();
            let to: Vec<char> = one_string(&args[2], local)?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|f| *f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(str_seq(out))
        })(),
        ("tokenize", 2) => (|| {
            let s = one_string(&args[0], local)?;
            let p = one_string(&args[1], local)?;
            let rx = Regex::compile(&p)?;
            if s.is_empty() {
                return Ok(Sequence::empty());
            }
            Ok(rx.tokenize(&s)?.into_iter().map(Item::string).collect())
        })(),
        ("matches", 2) => (|| {
            let s = one_string(&args[0], local)?;
            let p = one_string(&args[1], local)?;
            Ok(bool_seq(Regex::compile(&p)?.is_match(&s)))
        })(),
        ("replace", 3) => (|| {
            let s = one_string(&args[0], local)?;
            let p = one_string(&args[1], local)?;
            let r = one_string(&args[2], local)?;
            Ok(str_seq(Regex::compile(&p)?.replace(&s, &r)?))
        })(),
        ("string-to-codepoints", 1) => (|| {
            let s = one_string(&args[0], local)?;
            Ok(s.chars().map(|c| Item::integer(c as i64)).collect())
        })(),
        ("codepoints-to-string", 1) => (|| {
            let mut out = String::new();
            for a in args[0].atomized() {
                let cp = match a.cast_to(AtomicType::Integer)? {
                    AtomicValue::Integer(i) => i,
                    _ => unreachable!(),
                };
                let c = u32::try_from(cp)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| {
                        err(ErrorCode::FORG0001, format!("bad codepoint {cp}"))
                    })?;
                out.push(c);
            }
            Ok(str_seq(out))
        })(),
        // ------------------------------------------------------ boolean
        ("not", 1) => args[0].effective_boolean().map(|b| bool_seq(!b)),
        ("boolean", 1) => args[0].effective_boolean().map(bool_seq),
        ("true", 0) => Ok(bool_seq(true)),
        ("false", 0) => Ok(bool_seq(false)),
        // -------------------------------------------------- error/trace
        ("error", 0) => Err(XdmError::new(ErrorCode::FOER0000, "fn:error()")),
        ("error", 1) | ("error", 2) | ("error", 3) => (|| {
            let code = match opt_atomic(&args[0], "fn:error")? {
                Some(AtomicValue::QName(q)) => q,
                None => ErrorCode::FOER0000.qname(),
                Some(other) => {
                    return Err(err(
                        ErrorCode::XPTY0004,
                        format!("fn:error: code must be xs:QName, got {}", other.type_of()),
                    ))
                }
            };
            let msg = if arity >= 2 {
                one_string(&args[1], "fn:error")?
            } else {
                String::new()
            };
            let diagnostics = if arity == 3 {
                args[2].iter().map(|i| i.string_value()).collect()
            } else {
                Vec::new()
            };
            Err(XdmError::with_code(code, msg).diagnostics(diagnostics))
        })(),
        ("trace", 1) | ("trace", 2) => (|| {
            let rendered: Vec<String> =
                args[0].iter().map(|i| i.string_value()).collect();
            let label = if arity == 2 {
                one_string(&args[1], "fn:trace")?
            } else {
                String::new()
            };
            if label.is_empty() {
                env.emit_trace(rendered.join(" "));
            } else {
                env.emit_trace(format!("{label}: {}", rendered.join(" ")));
            }
            Ok(args[0].clone())
        })(),
        // ------------------------------------------------------- QNames
        ("QName", 2) => (|| {
            let ns = one_string(&args[0], "fn:QName")?;
            let lex = one_string(&args[1], "fn:QName")?;
            let q = QName::parse_lexical(&lex)
                .ok_or_else(|| err(ErrorCode::FORG0001, format!("bad QName {lex:?}")))?;
            Ok(Sequence::one(Item::Atomic(AtomicValue::QName(QName {
                prefix: q.prefix,
                ns: if ns.is_empty() { None } else { Some(ns.into()) },
                local: q.local,
            }))))
        })(),
        ("local-name-from-QName", 1) => (|| {
            match opt_atomic(&args[0], local)? {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::QName(q)) => Ok(str_seq(q.local.to_string())),
                Some(_) => Err(err(ErrorCode::XPTY0004, "expected xs:QName")),
            }
        })(),
        ("namespace-uri-from-QName", 1) => (|| {
            match opt_atomic(&args[0], local)? {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::QName(q)) => {
                    Ok(str_seq(q.ns.map(String::from).unwrap_or_default()))
                }
                Some(_) => Err(err(ErrorCode::XPTY0004, "expected xs:QName")),
            }
        })(),
        // ---------------------------------------------------- documents
        ("doc", 1) => (|| {
            let uri = one_string(&args[0], "fn:doc")?;
            match engine.document(&uri) {
                Some(d) => Ok(Sequence::one(Item::Node(d))),
                None => Err(err(
                    ErrorCode::FORG0001,
                    format!("fn:doc: no document registered at {uri:?}"),
                )),
            }
        })(),
        ("doc-available", 1) => (|| {
            let uri = one_string(&args[0], "fn:doc-available")?;
            Ok(bool_seq(engine.document(&uri).is_some()))
        })(),
        // -------------------------------------------------------- dates
        ("current-dateTime", 0) => Ok(Sequence::one(Item::Atomic(
            AtomicValue::DateTime(engine.now()),
        ))),
        ("current-date", 0) => Ok(Sequence::one(Item::Atomic(AtomicValue::Date(
            engine.now().date,
        )))),
        ("year-from-date", 1) | ("month-from-date", 1) | ("day-from-date", 1) => {
            (|| {
                let d = match opt_atomic(&args[0], local)? {
                    None => return Ok(Sequence::empty()),
                    Some(AtomicValue::Date(d)) => d,
                    Some(other) => match other.cast_to(AtomicType::Date) {
                        Ok(AtomicValue::Date(d)) => d,
                        _ => {
                            return Err(err(
                                ErrorCode::XPTY0004,
                                format!("{local} expects xs:date"),
                            ))
                        }
                    },
                };
                Ok(int_seq(match local {
                    "year-from-date" => d.year as i64,
                    "month-from-date" => d.month as i64,
                    _ => d.day as i64,
                }))
            })()
        }
        ("year-from-dateTime", 1)
        | ("month-from-dateTime", 1)
        | ("day-from-dateTime", 1)
        | ("hours-from-dateTime", 1)
        | ("minutes-from-dateTime", 1)
        | ("seconds-from-dateTime", 1) => (|| {
            let dt = match opt_atomic(&args[0], local)? {
                None => return Ok(Sequence::empty()),
                Some(AtomicValue::DateTime(dt)) => dt,
                Some(other) => match other.cast_to(AtomicType::DateTime) {
                    Ok(AtomicValue::DateTime(dt)) => dt,
                    _ => {
                        return Err(err(
                            ErrorCode::XPTY0004,
                            format!("{local} expects xs:dateTime"),
                        ))
                    }
                },
            };
            Ok(int_seq(match local {
                "year-from-dateTime" => dt.date.year as i64,
                "month-from-dateTime" => dt.date.month as i64,
                "day-from-dateTime" => dt.date.day as i64,
                "hours-from-dateTime" => dt.hour as i64,
                "minutes-from-dateTime" => dt.minute as i64,
                _ => dt.second as i64,
            }))
        })(),
        ("compare", 2) => (|| {
            let (a, b) = (
                opt_atomic(&args[0], "fn:compare")?,
                opt_atomic(&args[1], "fn:compare")?,
            );
            match (a, b) {
                (Some(x), Some(y)) => Ok(int_seq(
                    match x.string_value().cmp(&y.string_value()) {
                        Ordering::Less => -1,
                        Ordering::Equal => 0,
                        Ordering::Greater => 1,
                    },
                )),
                _ => Ok(Sequence::empty()),
            }
        })(),
        _ => return None,
    };
    Some(result)
}

/// Coerce untyped atomics to double for aggregation order (per F&O).
fn coerce_comparable(atoms: Vec<AtomicValue>) -> XdmResult<Vec<AtomicValue>> {
    atoms
        .into_iter()
        .map(|a| match a {
            AtomicValue::Untyped(_) => a.cast_to(AtomicType::Double),
            other => Ok(other),
        })
        .collect()
}

/// Numeric fold with decimal exactness and double contagion.
fn numeric_fold(
    atoms: &[AtomicValue],
    what: &str,
    f: impl Fn(Decimal, Decimal) -> XdmResult<Decimal>,
) -> XdmResult<Sequence> {
    let any_double = atoms.iter().any(|a| {
        matches!(a, AtomicValue::Double(_)) || matches!(a, AtomicValue::Untyped(_))
    });
    if any_double {
        let mut acc = 0.0f64;
        for a in atoms {
            acc += to_f64(a)?;
        }
        return Ok(Sequence::one(Item::double(acc)));
    }
    let all_integer = atoms.iter().all(|a| matches!(a, AtomicValue::Integer(_)));
    let mut acc = Decimal::ZERO;
    for a in atoms {
        let d = match a {
            AtomicValue::Integer(i) => Decimal::from_i64(*i),
            AtomicValue::Decimal(d) => *d,
            other => {
                return Err(err(
                    ErrorCode::FORG0006,
                    format!("{what} over non-numeric {}", other.type_of()),
                ))
            }
        };
        acc = f(acc, d)?;
    }
    if all_integer {
        Ok(int_seq(acc.trunc_i64()?))
    } else {
        Ok(Sequence::one(Item::Atomic(AtomicValue::Decimal(acc))))
    }
}

/// `xs:TYPE(value)` constructor functions: cast with empty-sequence
/// propagation.
fn xs_constructor(local: &str, args: Vec<Sequence>) -> XdmResult<Sequence> {
    if args.len() != 1 {
        return Err(err(
            ErrorCode::XPST0017,
            format!("xs:{local} takes exactly one argument"),
        ));
    }
    let target = AtomicType::from_local(local).ok_or_else(|| {
        err(ErrorCode::XPST0017, format!("unknown constructor xs:{local}"))
    })?;
    match opt_atomic(&args[0], &format!("xs:{local}"))? {
        None => Ok(Sequence::empty()),
        Some(a) => Ok(Sequence::one(Item::Atomic(a.cast_to(target)?))),
    }
}

/// Check whether a node matches a kind test from a sequence-type-ish
/// position. Shared by evaluator path steps and `instance of`.
pub fn node_kind_name(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::Document => "document-node()",
        NodeKind::Element => "element()",
        NodeKind::Attribute => "attribute()",
        NodeKind::Text => "text()",
        NodeKind::Comment => "comment()",
        NodeKind::Pi => "processing-instruction()",
    }
}
