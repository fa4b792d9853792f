//! The builtin function library (`fn:` and `xs:` namespaces).
//!
//! A call site names its builtin (`xqparser::ast::Builtin`, resolved
//! from its name and arity when it is parsed), and [`call`] executes
//! it. A call made by name goes through [`dispatch`], which looks the
//! builtin up first and leaves the arguments untouched when the name is
//! not one (`None`), in which case the evaluator consults the user /
//! external registries with them. A call's arguments arrive as
//! [`Args`], which holds up to three inline and is what every kind of
//! callee takes.

use std::cmp::Ordering;
use std::ops::{Deref, DerefMut, Range};
use std::rc::Rc;

use xdm::atomic::{to_f64, AtomicType, AtomicValue};
use xdm::decimal::Decimal;
use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::qname::QName;
use xqparser::ast::Builtin;
use xdm::sequence::{Item, Sequence};

use crate::context::Env;
use crate::engine::Engine;
use crate::regex_lite::Regex;

/// The arguments a function call evaluated. Up to [`Args::INLINE`]
/// are held inline, so a call passes its arguments without a heap
/// vector, whether it reaches a builtin, a user function, or a
/// registered external function or procedure; a longer list
/// (`fn:concat` of many parts) is a `Vec`. Indexing, `get`, `len`,
/// `remove`, `swap_remove` and `into_iter` mean what they mean on a
/// `Vec`.
///
/// A call in statement position, whose value is discarded, says so
/// ([`Args::result_unused`]): an external procedure may then skip
/// building a value nobody reads.
pub struct Args {
    held: Held,
    unused: bool,
}

enum Held {
    /// The first `len` slots hold the arguments; the rest are empty.
    Inline { slots: [Sequence; Args::INLINE], len: usize },
    /// More arguments than fit inline.
    Heap(Vec<Sequence>),
}

impl Args {
    /// The most arguments held inline.
    pub const INLINE: usize = 3;

    /// Room for exactly `n` arguments: inline up to [`Args::INLINE`].
    pub fn with_capacity(n: usize) -> Args {
        let held = if n <= Args::INLINE {
            Held::Inline { slots: Default::default(), len: 0 }
        } else {
            Held::Heap(Vec::with_capacity(n))
        };
        Args { held, unused: false }
    }

    /// Append one of the arguments room was made for.
    pub fn push(&mut self, arg: Sequence) {
        match &mut self.held {
            Held::Inline { slots, len } => {
                slots[*len] = arg;
                *len += 1;
            }
            Held::Heap(v) => v.push(arg),
        }
    }

    /// Remove and return the argument at `i`, shifting the later ones
    /// down.
    pub fn remove(&mut self, i: usize) -> Sequence {
        match &mut self.held {
            Held::Inline { slots, len } => {
                assert!(i < *len, "argument {i} of {len}");
                let out = std::mem::take(&mut slots[i]);
                slots[i..*len].rotate_left(1);
                *len -= 1;
                out
            }
            Held::Heap(v) => v.remove(i),
        }
    }

    /// Remove and return the argument at `i`, moving the last one into
    /// its place.
    pub fn swap_remove(&mut self, i: usize) -> Sequence {
        match &mut self.held {
            Held::Inline { slots, len } => {
                assert!(i < *len, "argument {i} of {len}");
                *len -= 1;
                slots.swap(i, *len);
                std::mem::take(&mut slots[*len])
            }
            Held::Heap(v) => v.swap_remove(i),
        }
    }

    /// Mark the call's value as discarded: the call is a statement.
    pub fn discard_result(&mut self) {
        self.unused = true;
    }

    /// Is the call's value discarded? Then the callee need not build
    /// it; what it does otherwise, and the errors it raises, stay the
    /// same.
    pub fn result_unused(&self) -> bool {
        self.unused
    }
}

/// The arguments of an [`Args`], by value, in order.
pub enum ArgsIntoIter {
    /// Inline arguments.
    Inline(std::iter::Take<std::array::IntoIter<Sequence, { Args::INLINE }>>),
    /// Heap arguments.
    Heap(std::vec::IntoIter<Sequence>),
}

impl Iterator for ArgsIntoIter {
    type Item = Sequence;

    fn next(&mut self) -> Option<Sequence> {
        match self {
            ArgsIntoIter::Inline(it) => it.next(),
            ArgsIntoIter::Heap(it) => it.next(),
        }
    }
}

impl IntoIterator for Args {
    type Item = Sequence;
    type IntoIter = ArgsIntoIter;

    fn into_iter(self) -> ArgsIntoIter {
        match self.held {
            Held::Inline { slots, len } => ArgsIntoIter::Inline(slots.into_iter().take(len)),
            Held::Heap(v) => ArgsIntoIter::Heap(v.into_iter()),
        }
    }
}

impl From<Vec<Sequence>> for Args {
    fn from(v: Vec<Sequence>) -> Args {
        Args { held: Held::Heap(v), unused: false }
    }
}

impl Deref for Args {
    type Target = [Sequence];

    fn deref(&self) -> &[Sequence] {
        match &self.held {
            Held::Inline { slots, len } => &slots[..*len],
            Held::Heap(v) => v,
        }
    }
}

impl DerefMut for Args {
    fn deref_mut(&mut self) -> &mut [Sequence] {
        match &mut self.held {
            Held::Inline { slots, len } => &mut slots[..*len],
            Held::Heap(v) => v,
        }
    }
}

/// Try to execute a builtin, which may take its arguments out of
/// `args`. `None` means "not a builtin": `args` is left as it was, so
/// the caller never clones them.
pub(crate) fn dispatch(
    engine: &Engine,
    env: &mut Env,
    name: &QName,
    args: &mut Args,
) -> Option<XdmResult<Sequence>> {
    let b = Builtin::lookup(name, args.len())?;
    Some(call(engine, env, b, &name.local, args))
}

/// Execute the builtin `b`, which a call of `local` with `args`
/// resolved to ([`Builtin::lookup`]); it may take its arguments out of
/// `args`.
pub(crate) fn call(
    engine: &Engine,
    env: &mut Env,
    b: Builtin,
    local: &str,
    args: &mut Args,
) -> XdmResult<Sequence> {
    match b {
        Builtin::Xs => xs_constructor(local, args),
        b => call_fn(engine, env, b, local, args),
    }
}

fn err(code: ErrorCode, msg: impl Into<String>) -> XdmError {
    XdmError::new(code, msg)
}

fn one_string(seq: &Sequence, what: &str) -> XdmResult<String> {
    Ok(opt_text(seq, what)?.map_or_else(String::new, |t| t.to_string()))
}

/// The text of an optional single item, shared with the item when it is
/// string-valued or a text-only node; `None` for the empty sequence.
/// Each item atomizes to exactly one value, so the item count is the
/// atom count.
fn opt_text(seq: &Sequence, what: &str) -> XdmResult<Option<Rc<str>>> {
    match seq.items() {
        [] => Ok(None),
        [it] => Ok(Some(it.atomize().string_shared())),
        _ => Err(err(ErrorCode::XPTY0004, format!("{what}: expected a single string"))),
    }
}

/// The tokens of `fn:tokenize(s, p)` at the 0-based positions inside
/// `window`. Both arguments are checked and the pattern compiled before
/// the window applies, so a bad argument raises its error even when the
/// window is empty. A literal pattern shares its text and makes only
/// the tokens inside the window ([`Regex::tokenize_each`]).
pub(crate) fn tokenize(s: &Sequence, p: &Sequence, window: Range<usize>) -> XdmResult<Sequence> {
    let s = opt_text(s, "tokenize")?;
    let rx = match opt_text(p, "tokenize")? {
        Some(p) => Regex::compile_shared(&p)?,
        None => Regex::compile("")?,
    };
    let mut out = Sequence::empty();
    if let Some(s) = s.filter(|s| !s.is_empty()) {
        rx.tokenize_each(&s, window, |t| out.push(Item::string(t)))?;
    }
    Ok(out)
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
    seq.items()[win.start.min(n)..win.end.min(n)].iter().cloned().collect()
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
fn call_fn(
    engine: &Engine,
    env: &mut Env,
    b: Builtin,
    local: &str,
    args: &mut Args,
) -> XdmResult<Sequence> {
    use Builtin as B;
    let arity = args.len();
    match (b, arity) {
        // ---------------------------------------------------- accessors
        (B::Data, 1) => Ok(args[0].iter().map(|it| Item::Atomic(it.atomize())).collect()),
        (B::String, 0) => (|| {
            let it = context_item(env, "fn:string")?;
            Ok(str_seq(it.string_value()))
        })(),
        (B::String, 1) => args[0].string_value().map(str_seq),
        (B::StringLength, 0) => (|| {
            let it = context_item(env, "fn:string-length")?;
            Ok(int_seq(it.string_value().chars().count() as i64))
        })(),
        (B::StringLength, 1) => {
            one_string(&args[0], "fn:string-length")
                .map(|s| int_seq(s.chars().count() as i64))
        }
        (B::NodeName, 1) => (|| {
            match args[0].zero_or_one()? {
                None => Ok(Sequence::empty()),
                Some(Item::Node(n)) => Ok(match n.name() {
                    Some(q) => Sequence::one(Item::Atomic(AtomicValue::QName(q))),
                    None => Sequence::empty(),
                }),
                Some(_) => Err(err(ErrorCode::XPTY0004, "fn:node-name expects a node")),
            }
        })(),
        (B::LocalName, 1) | (B::Name, 1) => (|| {
            match args[0].zero_or_one()? {
                None => Ok(str_seq(String::new())),
                Some(Item::Node(n)) => Ok(str_seq(match n.name() {
                    Some(q) => {
                        if b == B::Name {
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
        (B::NamespaceUri, 1) => (|| {
            match args[0].zero_or_one()? {
                None => Ok(str_seq(String::new())),
                Some(Item::Node(n)) => Ok(str_seq(
                    n.name().and_then(|q| q.ns).map(String::from).unwrap_or_default(),
                )),
                Some(_) => Err(err(ErrorCode::XPTY0004, "expected a node")),
            }
        })(),
        (B::Root, 1) => (|| {
            match args[0].zero_or_one()? {
                None => Ok(Sequence::empty()),
                Some(Item::Node(n)) => Ok(Sequence::one(Item::Node(n.root()))),
                Some(_) => Err(err(ErrorCode::XPTY0004, "fn:root expects a node")),
            }
        })(),
        // ---------------------------------------------------- sequences
        (B::Empty, 1) => Ok(bool_seq(args[0].is_empty())),
        (B::Exists, 1) => Ok(bool_seq(!args[0].is_empty())),
        (B::Count, 1) => Ok(int_seq(args[0].len() as i64)),
        (B::Position, 0) => (|| {
            let f = env.focus.as_ref().ok_or_else(|| {
                err(ErrorCode::XPDY0002, "fn:position: no context")
            })?;
            Ok(int_seq(f.position as i64))
        })(),
        (B::Last, 0) => (|| {
            let f = env
                .focus
                .as_ref()
                .ok_or_else(|| err(ErrorCode::XPDY0002, "fn:last: no context"))?;
            Ok(int_seq(f.size as i64))
        })(),
        (B::DistinctValues, 1) => {
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
        (B::InsertBefore, 3) => (|| {
            let pos = one_integer(&args[1], "fn:insert-before")?.max(1) as usize;
            let mut items: Vec<Item> = args[0].items().to_vec();
            let at = (pos - 1).min(items.len());
            let ins: Vec<Item> = args[2].items().to_vec();
            items.splice(at..at, ins);
            Ok(Sequence::from_items(items))
        })(),
        (B::Remove, 2) => (|| {
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
        (B::Reverse, 1) => {
            let mut items: Vec<Item> = args[0].items().to_vec();
            items.reverse();
            Ok(Sequence::from_items(items))
        }
        (B::Subsequence, 2) | (B::Subsequence, 3) => (|| {
            let start = one_double(&args[1], "fn:subsequence")?;
            let len = match args.get(2) {
                Some(l) => Some(one_double(l, "fn:subsequence")?),
                None => None,
            };
            let win = rounded_window(start, len);
            Ok(slice(args.swap_remove(0), win))
        })(),
        (B::IndexOf, 2) => (|| {
            let needle = one_atomic(&args[1], "fn:index-of")?;
            let mut out = Vec::new();
            for (i, a) in args[0].atomized().into_iter().enumerate() {
                if matches!(a.value_compare(&needle), Ok(Some(Ordering::Equal))) {
                    out.push(Item::integer(i as i64 + 1));
                }
            }
            Ok(Sequence::from_items(out))
        })(),
        (B::ZeroOrOne, 1) => match args[0].len() {
            0 | 1 => Ok(args.remove(0)),
            _ => Err(err(ErrorCode::FORG0003, "fn:zero-or-one: more than one item")),
        },
        (B::OneOrMore, 1) => match args[0].len() {
            0 => Err(err(ErrorCode::FORG0004, "fn:one-or-more: empty sequence")),
            _ => Ok(args.remove(0)),
        },
        (B::ExactlyOne, 1) => match args[0].len() {
            1 => Ok(args.remove(0)),
            n => Err(err(
                ErrorCode::FORG0005,
                format!("fn:exactly-one: got {n} items"),
            )),
        },
        (B::Unordered, 1) => Ok(args.remove(0)),
        (B::DeepEqual, 2) => (|| {
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
        (B::Sum, 1) | (B::Sum, 2) => (|| {
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
        (B::Avg, 1) => (|| {
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
        (B::Min, 1) | (B::Max, 1) => (|| {
            let atoms = coerce_comparable(args[0].atomized())?;
            if atoms.is_empty() {
                return Ok(Sequence::empty());
            }
            let want = if b == B::Min { Ordering::Less } else { Ordering::Greater };
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
        (B::Abs, 1) => (|| {
            match opt_atomic(&args[0], "fn:abs")? {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::Integer(i)) => Ok(int_seq(i.abs())),
                Some(AtomicValue::Decimal(d)) => {
                    Ok(Sequence::one(Item::Atomic(AtomicValue::Decimal(d.abs()))))
                }
                Some(v) => Ok(Sequence::one(Item::double(to_f64(&v)?.abs()))),
            }
        })(),
        (B::Floor, 1) | (B::Ceiling, 1) | (B::Round, 1) => (|| {
            match opt_atomic(&args[0], local)? {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::Integer(i)) => Ok(int_seq(i)),
                Some(AtomicValue::Decimal(d)) => {
                    let r = match b {
                        B::Floor => d.floor(),
                        B::Ceiling => d.ceiling(),
                        _ => d.round(),
                    };
                    Ok(Sequence::one(Item::Atomic(AtomicValue::Decimal(r))))
                }
                Some(v) => {
                    let d = to_f64(&v)?;
                    let r = match b {
                        B::Floor => d.floor(),
                        B::Ceiling => d.ceil(),
                        _ => round_half_up(d),
                    };
                    Ok(Sequence::one(Item::double(r)))
                }
            }
        })(),
        (B::Number, 0) | (B::Number, 1) => (|| {
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
        (B::Concat, n) if n >= 2 => (|| {
            let mut out = String::new();
            for a in args.iter() {
                out.push_str(&one_string(a, "fn:concat")?);
            }
            Ok(str_seq(out))
        })(),
        (B::StringJoin, 2) => (|| {
            let sep = one_string(&args[1], "fn:string-join")?;
            let parts: Vec<String> =
                args[0].atomized().iter().map(|a| a.string_value()).collect();
            Ok(str_seq(parts.join(&sep)))
        })(),
        (B::Substring, 2) | (B::Substring, 3) => (|| {
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
        (B::UpperCase, 1) => one_string(&args[0], local).map(|s| str_seq(s.to_uppercase())),
        (B::LowerCase, 1) => one_string(&args[0], local).map(|s| str_seq(s.to_lowercase())),
        (B::Contains, 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(bool_seq(s.contains(&t)))
        })(),
        (B::StartsWith, 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(bool_seq(s.starts_with(&t)))
        })(),
        (B::EndsWith, 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(bool_seq(s.ends_with(&t)))
        })(),
        (B::SubstringBefore, 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(str_seq(s.find(&t).map(|i| s[..i].to_string()).unwrap_or_default()))
        })(),
        (B::SubstringAfter, 2) => (|| {
            let s = one_string(&args[0], local)?;
            let t = one_string(&args[1], local)?;
            Ok(str_seq(
                s.find(&t)
                    .map(|i| s[i + t.len()..].to_string())
                    .unwrap_or_default(),
            ))
        })(),
        (B::NormalizeSpace, 0) | (B::NormalizeSpace, 1) => (|| {
            let s = if arity == 0 {
                context_item(env, local)?.string_value()
            } else {
                one_string(&args[0], local)?
            };
            Ok(str_seq(s.split_whitespace().collect::<Vec<_>>().join(" ")))
        })(),
        (B::Translate, 3) => (|| {
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
        (B::Tokenize, 2) => tokenize(&args[0], &args[1], 0..usize::MAX),
        (B::Matches, 2) => (|| {
            let s = one_string(&args[0], local)?;
            let p = one_string(&args[1], local)?;
            Ok(bool_seq(Regex::compile(&p)?.is_match(&s)))
        })(),
        (B::Replace, 3) => (|| {
            let s = one_string(&args[0], local)?;
            let p = one_string(&args[1], local)?;
            let r = one_string(&args[2], local)?;
            Ok(str_seq(Regex::compile(&p)?.replace(&s, &r)?))
        })(),
        (B::StringToCodepoints, 1) => (|| {
            let s = one_string(&args[0], local)?;
            Ok(s.chars().map(|c| Item::integer(c as i64)).collect())
        })(),
        (B::CodepointsToString, 1) => (|| {
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
        (B::Not, 1) => args[0].effective_boolean().map(|b| bool_seq(!b)),
        (B::Boolean, 1) => args[0].effective_boolean().map(bool_seq),
        (B::True, 0) => Ok(bool_seq(true)),
        (B::False, 0) => Ok(bool_seq(false)),
        // -------------------------------------------------- error/trace
        (B::Error, 0) => Err(XdmError::new(ErrorCode::FOER0000, "fn:error()")),
        (B::Error, 1) | (B::Error, 2) | (B::Error, 3) => (|| {
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
        (B::Trace, 1) | (B::Trace, 2) => (|| {
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
        (B::QName, 2) => (|| {
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
        (B::LocalNameFromQName, 1) => (|| {
            match opt_atomic(&args[0], local)? {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::QName(q)) => Ok(str_seq(q.local.to_string())),
                Some(_) => Err(err(ErrorCode::XPTY0004, "expected xs:QName")),
            }
        })(),
        (B::NamespaceUriFromQName, 1) => (|| {
            match opt_atomic(&args[0], local)? {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::QName(q)) => {
                    Ok(str_seq(q.ns.map(String::from).unwrap_or_default()))
                }
                Some(_) => Err(err(ErrorCode::XPTY0004, "expected xs:QName")),
            }
        })(),
        // ---------------------------------------------------- documents
        (B::Doc, 1) => (|| {
            let uri = one_string(&args[0], "fn:doc")?;
            match engine.document(&uri) {
                Some(d) => Ok(Sequence::one(Item::Node(d))),
                None => Err(err(
                    ErrorCode::FORG0001,
                    format!("fn:doc: no document registered at {uri:?}"),
                )),
            }
        })(),
        (B::DocAvailable, 1) => (|| {
            let uri = one_string(&args[0], "fn:doc-available")?;
            Ok(bool_seq(engine.document(&uri).is_some()))
        })(),
        // -------------------------------------------------------- dates
        (B::CurrentDateTime, 0) => Ok(Sequence::one(Item::Atomic(
            AtomicValue::DateTime(engine.now()),
        ))),
        (B::CurrentDate, 0) => Ok(Sequence::one(Item::Atomic(AtomicValue::Date(
            engine.now().date,
        )))),
        (B::YearFromDate, 1) | (B::MonthFromDate, 1) | (B::DayFromDate, 1) => {
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
                Ok(int_seq(match b {
                    B::YearFromDate => d.year as i64,
                    B::MonthFromDate => d.month as i64,
                    _ => d.day as i64,
                }))
            })()
        }
        (B::YearFromDateTime, 1)
        | (B::MonthFromDateTime, 1)
        | (B::DayFromDateTime, 1)
        | (B::HoursFromDateTime, 1)
        | (B::MinutesFromDateTime, 1)
        | (B::SecondsFromDateTime, 1) => (|| {
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
            Ok(int_seq(match b {
                B::YearFromDateTime => dt.date.year as i64,
                B::MonthFromDateTime => dt.date.month as i64,
                B::DayFromDateTime => dt.date.day as i64,
                B::HoursFromDateTime => dt.hour as i64,
                B::MinutesFromDateTime => dt.minute as i64,
                _ => dt.second as i64,
            }))
        })(),
        (B::Compare, 2) => (|| {
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
        (b, n) => unreachable!("{b:?} resolved at arity {n}, which it does not take"),
    }
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
fn xs_constructor(local: &str, args: &[Sequence]) -> XdmResult<Sequence> {
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

