//! Expression evaluation.
//!
//! One method per AST form, with the two cross-cutting rules the paper
//! cares about wired through everything:
//!
//! 1. **No side effects in expressions** — updating expressions
//!    require an open pending-update list (`env.pul`), which only the
//!    XQSE update statement (or ALDSP's update machinery) provides;
//!    procedure calls resolve only if the procedure is `readonly`.
//! 2. **Declarative cores stay optimizable** — FLWOR join patterns are
//!    rewritten to hash probes with memoized indexes when the engine's
//!    optimizer flag is on (§IV: statements-vs-expressions separation
//!    "allowed us to easily preserve and apply existing query
//!    optimizations within the declarative parts of an XQSE program").

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use xdm::atomic::{to_f64, AtomicType, AtomicValue};
use xdm::decimal::Decimal;
use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::{NodeArena, NodeHandle, NodeKind, SharedArena};
use xdm::qname::{QName, FN_NS, XS_NS};
use xdm::sequence::{Item, Sequence};


use xqparser::ast::*;

use crate::context::{Env, Focus};
use crate::engine::{Engine, FunctionKind, ProcKind};
use crate::flwor;
use crate::functions;
use crate::update::{Pul, Update};

/// The expression evaluator. Stateless besides the engine reference;
/// all dynamic state lives in [`Env`].
pub struct Evaluator<'e> {
    pub(crate) engine: &'e Engine,
}

/// A memoized join index: the materialized source sequence plus hash
/// maps honoring XQuery's typed equality semantics. Numeric keys live
/// in `by_num` (untyped values are indexed there too, flagged, because
/// untyped-vs-numeric comparison is numeric); string-ish keys live in
/// `by_str` (untyped values are indexed there as well, because
/// untyped-vs-string and untyped-vs-untyped comparison is stringy).
#[derive(Debug, Default)]
pub struct JoinIdx {
    by_num: HashMap<u64, Vec<(usize, bool)>>,
    by_str: HashMap<String, Vec<usize>>,
}

impl JoinIdx {
    fn num_key(d: f64) -> u64 {
        // Normalize -0.0 so 0 and -0 collide.
        (if d == 0.0 { 0.0f64 } else { d }).to_bits()
    }

    /// Index one value at offset `i`.
    pub(crate) fn insert(&mut self, v: &AtomicValue, i: usize) {
        match v {
            _ if v.type_of().is_numeric() => {
                if let Ok(d) = to_f64(v) {
                    if !d.is_nan() {
                        self.by_num.entry(Self::num_key(d)).or_default().push((i, true));
                    }
                }
            }
            AtomicValue::Untyped(s) => {
                self.by_str.entry(s.clone()).or_default().push(i);
                if let Ok(d) = s.trim().parse::<f64>() {
                    if !d.is_nan() {
                        self.by_num
                            .entry(Self::num_key(d))
                            .or_default()
                            .push((i, false));
                    }
                }
            }
            other => {
                self.by_str.entry(other.string_value()).or_default().push(i);
            }
        }
    }

    /// Offsets whose indexed value equals `p` under general-comparison
    /// semantics.
    pub(crate) fn probe(&self, p: &AtomicValue) -> Vec<usize> {
        match p {
            _ if p.type_of().is_numeric() => match to_f64(p) {
                Ok(d) if !d.is_nan() => self
                    .by_num
                    .get(&Self::num_key(d))
                    .map(|v| v.iter().map(|(i, _)| *i).collect())
                    .unwrap_or_default(),
                _ => Vec::new(),
            },
            AtomicValue::Untyped(s) => {
                let mut out: Vec<usize> =
                    self.by_str.get(s.as_str()).cloned().unwrap_or_default();
                if let Ok(d) = s.trim().parse::<f64>() {
                    if let Some(v) = self.by_num.get(&Self::num_key(d)) {
                        // Untyped vs *typed numeric* compares
                        // numerically; untyped vs untyped was already
                        // covered by the string probe.
                        out.extend(v.iter().filter(|(_, num)| *num).map(|(i, _)| *i));
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            other => self
                .by_str
                .get(&other.string_value())
                .cloned()
                .unwrap_or_default(),
        }
    }
}

/// How a memoized join-cache entry proves it is still current
/// (tentpole part 3: precise cross-statement cache retention).
pub enum CacheStamp {
    /// The source expression is opaque: the entry is valid only while
    /// the environment's write epoch is unchanged (any side-effecting
    /// statement kills it — the seed behavior, made lazy).
    Epoch(u64),
    /// The source is a capability-bearing read function: the entry is
    /// valid while the *live* table version still equals the version
    /// of the snapshot the index was built over. Statements that write
    /// other sources leave it untouched; a write to this source (or a
    /// stale snapshot served during an outage) fails revalidation.
    Source {
        /// Live-version probe (catalog metadata; cheap, never faulted).
        version_fn: Rc<dyn Fn() -> u64>,
        /// Version of the materialized snapshot.
        version: u64,
    },
}

impl CacheStamp {
    pub(crate) fn is_current(&self, env: &Env) -> bool {
        match self {
            CacheStamp::Epoch(e) => *e == env.write_epoch,
            CacheStamp::Source { version_fn, version } => version_fn() == *version,
        }
    }
}

/// The cache entry: materialized source + index + validity stamp.
pub struct JoinCacheEntry {
    /// The materialized source sequence.
    pub seq: Sequence,
    /// The hash index over the key path; `None` when some row's key
    /// is beyond it, and the clause then runs plainly.
    pub idx: Option<JoinIdx>,
    /// Revalidation stamp.
    pub stamp: CacheStamp,
    /// The clause list holding the source expression whose address is
    /// the entry's key, held so that no other AST can reuse the
    /// address while the entry lives.
    pub clauses: Rc<[FlworClause]>,
}

impl<'e> Evaluator<'e> {
    /// Create an evaluator over an engine.
    pub fn new(engine: &'e Engine) -> Evaluator<'e> {
        Evaluator { engine }
    }

    /// Evaluate an expression to a sequence.
    pub fn eval(&self, expr: &Expr, env: &mut Env) -> XdmResult<Sequence> {
        // Per-request budget: one fuel unit per evaluation step. The
        // no-budget path is a single `Cell<bool>` read (see the
        // `budget_overhead_guard` in tests/chaos.rs).
        self.engine.budget_step()?;
        match expr {
            Expr::Literal(a) => Ok(Sequence::one(Item::Atomic(a.clone()))),
            Expr::VarRef(name) => match env.lookup(name) {
                Ok(v) => Ok(v),
                Err(e) if e.is(ErrorCode::XPST0008) => self
                    .engine
                    .global(name)
                    .ok_or(e),
                Err(e) => Err(e),
            },
            Expr::ContextItem => env
                .focus
                .as_ref()
                .map(|f| Sequence::one(f.item.clone()))
                .ok_or_else(|| {
                    XdmError::new(ErrorCode::XPDY0002, "context item is absent")
                }),
            Expr::Comma(items) => {
                let mut out = Sequence::empty();
                for e in items {
                    out.extend(self.eval(e, env)?);
                }
                Ok(out)
            }
            Expr::Range(lo, hi) => {
                let lo = self.eval_opt_integer(lo, env)?;
                let hi = self.eval_opt_integer(hi, env)?;
                match (lo, hi) {
                    (Some(a), Some(b)) if a <= b => {
                        Ok((a..=b).map(Item::integer).collect())
                    }
                    _ => Ok(Sequence::empty()),
                }
            }
            Expr::Binary(op, l, r) => self.eval_arith(*op, l, r, env),
            Expr::Unary(neg, e) => {
                let v = self.eval(e, env)?;
                let Some(a) = opt_one_atomic(&v, "unary")? else {
                    return Ok(Sequence::empty());
                };
                let a = coerce_numeric(a)?;
                if !neg {
                    return Ok(Sequence::one(Item::Atomic(a)));
                }
                Ok(Sequence::one(Item::Atomic(match a {
                    AtomicValue::Integer(i) => AtomicValue::Integer(
                        i.checked_neg().ok_or_else(overflow)?,
                    ),
                    AtomicValue::Decimal(d) => AtomicValue::Decimal(d.checked_neg()?),
                    AtomicValue::Double(d) => AtomicValue::Double(-d),
                    other => {
                        return Err(XdmError::new(
                            ErrorCode::XPTY0004,
                            format!("unary minus on {}", other.type_of()),
                        ))
                    }
                })))
            }
            Expr::And(l, r) => {
                let lb = self.eval(l, env)?.effective_boolean()?;
                if !lb {
                    return Ok(Sequence::one(Item::boolean(false)));
                }
                let rb = self.eval(r, env)?.effective_boolean()?;
                Ok(Sequence::one(Item::boolean(rb)))
            }
            Expr::Or(l, r) => {
                let lb = self.eval(l, env)?.effective_boolean()?;
                if lb {
                    return Ok(Sequence::one(Item::boolean(true)));
                }
                let rb = self.eval(r, env)?.effective_boolean()?;
                Ok(Sequence::one(Item::boolean(rb)))
            }
            Expr::General(op, l, r) => {
                if let Some(res) =
                    self.streaming_count_cmp(CountCmp::General(*op), l, r, env)
                {
                    return res;
                }
                let lv = self.eval(l, env)?.atomized();
                let rv = self.eval(r, env)?.atomized();
                let mut hit = false;
                'outer: for a in &lv {
                    for b in &rv {
                        if general_pair_matches(*op, a, b)? {
                            hit = true;
                            break 'outer;
                        }
                    }
                }
                Ok(Sequence::one(Item::boolean(hit)))
            }
            Expr::Value(op, l, r) => {
                if let Some(res) =
                    self.streaming_count_cmp(CountCmp::Value(*op), l, r, env)
                {
                    return res;
                }
                let lv = self.eval(l, env)?;
                let rv = self.eval(r, env)?;
                let (Some(a), Some(b)) = (
                    opt_one_atomic(&lv, "value comparison")?,
                    opt_one_atomic(&rv, "value comparison")?,
                ) else {
                    return Ok(Sequence::empty());
                };
                let ord = a.value_compare(&b)?;
                let res = match ord {
                    None => false, // NaN
                    Some(o) => value_comp_holds(*op, o),
                };
                Ok(Sequence::one(Item::boolean(res)))
            }
            Expr::Node(op, l, r) => {
                let lv = self.eval(l, env)?;
                let rv = self.eval(r, env)?;
                let (a, b) = match (lv.zero_or_one()?, rv.zero_or_one()?) {
                    (Some(a), Some(b)) => (a.clone(), b.clone()),
                    _ => return Ok(Sequence::empty()),
                };
                let (Item::Node(na), Item::Node(nb)) = (&a, &b) else {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "node comparison requires nodes",
                    ));
                };
                let res = match op {
                    NodeComp::Is => na == nb,
                    NodeComp::Precedes => na.document_order(nb) == Ordering::Less,
                    NodeComp::Follows => na.document_order(nb) == Ordering::Greater,
                };
                Ok(Sequence::one(Item::boolean(res)))
            }
            Expr::Set(op, l, r) => {
                let lv = self.eval(l, env)?.document_order_dedup()?;
                let rv = self.eval(r, env)?.document_order_dedup()?;
                let out: Vec<Item> = match op {
                    SetOp::Union => {
                        let mut v: Vec<Item> = lv.into_items();
                        v.extend(rv.into_items());
                        return Sequence::from_items(v).document_order_dedup();
                    }
                    SetOp::Intersect => lv
                        .items()
                        .iter()
                        .filter(|i| rv.items().contains(i))
                        .cloned()
                        .collect(),
                    SetOp::Except => lv
                        .items()
                        .iter()
                        .filter(|i| !rv.items().contains(i))
                        .cloned()
                        .collect(),
                };
                Ok(Sequence::from_items(out))
            }
            Expr::If(c, t, e) => {
                if self.eval(c, env)?.effective_boolean()? {
                    self.eval(t, env)
                } else {
                    self.eval(e, env)
                }
            }
            Expr::Flwor { clauses, ret } => flwor::drain(self, clauses, ret, env),
            Expr::Quantified { quantifier, bindings, satisfies } => {
                self.eval_quantified(*quantifier, bindings, satisfies, env)
            }
            Expr::Typeswitch { operand, cases } => {
                let v = self.eval(operand, env)?;
                for case in cases {
                    let matches = match &case.ty {
                        Some(ty) => ty.matches(&v),
                        None => true, // default
                    };
                    if matches {
                        env.push_scope();
                        if let Some(var) = &case.var {
                            env.bind(var.clone(), v.clone());
                        }
                        let out = self.eval(&case.body, env);
                        env.pop_scope();
                        return out;
                    }
                }
                Ok(Sequence::empty())
            }
            Expr::Path { start, steps } => self.eval_path(start, steps, env),
            Expr::Filter { base, predicates } => {
                // A positional first predicate (`[k]`, `[position() lt
                // N]`, …) takes its window directly, pulling a FLWOR no
                // further than the window's edge.
                let window = match predicates.split_first() {
                    Some((first, rest)) if self.engine.features().lazy => {
                        positional_window(first).map(|win| (win, rest))
                    }
                    _ => None,
                };
                let (mut seq, rest) = match window {
                    Some((win, rest)) => (flwor::window(self, base, env, win)?, rest),
                    None => (self.eval(base, env)?, &predicates[..]),
                };
                for p in rest {
                    seq = self.apply_predicate(seq, p, env)?;
                }
                Ok(seq)
            }
            Expr::FunctionCall { name, args } => {
                if let Some(r) = self.try_streaming_call(name, args, env) {
                    return r;
                }
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, env)?);
                }
                self.call_function(name, argv, env)
            }
            Expr::DirectElement(de) => {
                // XDM allocation ceiling: one admission unit up front,
                // then the built tree settles at its real cost — one
                // unit per node record allocated in the constructor's
                // arena plus one pointer unit per grafted subtree
                // (zero-copy adoption charges no per-node units; the
                // nodes it shares were charged when first built).
                self.engine.budget_charge_memory(1)?;
                let before = xdm::xdm_stats();
                let arena = NodeArena::new();
                let node = self.build_direct_element(de, &arena, env)?;
                self.settle_construction_memory(&arena, &before)?;
                Ok(Sequence::one(Item::Node(node)))
            }
            Expr::ComputedElement(name, content) => {
                self.engine.budget_charge_memory(1)?;
                let before = xdm::xdm_stats();
                let q = self.eval_name_expr(name, env, "element")?;
                let arena = NodeArena::new();
                let elem = NodeHandle::new_element(&arena, q);
                if let Some(c) = content {
                    let seq = self.eval(c, env)?;
                    assemble_content(&elem, &seq, self.engine.features().graft)?;
                }
                self.settle_construction_memory(&arena, &before)?;
                Ok(Sequence::one(Item::Node(elem)))
            }
            Expr::ComputedAttribute(name, content) => {
                self.engine.budget_charge_memory(1)?;
                let q = self.eval_name_expr(name, env, "attribute")?;
                let value = match content {
                    Some(c) => space_joined(&self.eval(c, env)?),
                    None => String::new(),
                };
                let arena = NodeArena::new();
                Ok(Sequence::one(Item::Node(NodeHandle::new_attribute(
                    &arena, q, value,
                ))))
            }
            Expr::ComputedText(c) => {
                self.engine.budget_charge_memory(1)?;
                let seq = self.eval(c, env)?;
                if seq.is_empty() {
                    return Ok(Sequence::empty());
                }
                let arena = NodeArena::new();
                Ok(Sequence::one(Item::Node(NodeHandle::new_text(
                    &arena,
                    space_joined(&seq),
                ))))
            }
            Expr::ComputedComment(c) => {
                let seq = self.eval(c, env)?;
                let arena = NodeArena::new();
                Ok(Sequence::one(Item::Node(NodeHandle::new_comment(
                    &arena,
                    space_joined(&seq),
                ))))
            }
            Expr::ComputedPi(name, content) => {
                let q = self.eval_name_expr(name, env, "processing-instruction")?;
                let value = match content {
                    Some(c) => space_joined(&self.eval(c, env)?),
                    None => String::new(),
                };
                let arena = NodeArena::new();
                Ok(Sequence::one(Item::Node(NodeHandle::new_pi(
                    &arena, q.local, value,
                ))))
            }
            Expr::ComputedDocument(c) => {
                let before = xdm::xdm_stats();
                let seq = self.eval(c, env)?;
                let doc = NodeHandle::new_document();
                assemble_content(&doc, &seq, self.engine.features().graft)?;
                self.settle_construction_memory(doc.arena(), &before)?;
                Ok(Sequence::one(Item::Node(doc)))
            }
            Expr::InstanceOf(e, ty) => {
                let v = self.eval(e, env)?;
                Ok(Sequence::one(Item::boolean(ty.matches(&v))))
            }
            Expr::TreatAs(e, ty) => {
                let v = self.eval(e, env)?;
                if ty.matches(&v) {
                    Ok(v)
                } else {
                    Err(XdmError::new(
                        ErrorCode::XPDY0050,
                        format!("treat as {ty}: dynamic type mismatch"),
                    ))
                }
            }
            Expr::CastAs(e, ty, optional) => {
                let v = self.eval(e, env)?;
                let target = resolve_atomic_type(ty)?;
                match opt_one_atomic(&v, "cast as")? {
                    None if *optional => Ok(Sequence::empty()),
                    None => Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "cast as: empty sequence without '?'",
                    )),
                    Some(a) => Ok(Sequence::one(Item::Atomic(a.cast_to(target)?))),
                }
            }
            Expr::CastableAs(e, ty, optional) => {
                let v = self.eval(e, env)?;
                let Ok(target) = resolve_atomic_type(ty) else {
                    return Ok(Sequence::one(Item::boolean(false)));
                };
                let ok = match opt_one_atomic(&v, "castable as") {
                    Ok(None) => *optional,
                    Ok(Some(a)) => a.cast_to(target).is_ok(),
                    Err(_) => false,
                };
                Ok(Sequence::one(Item::boolean(ok)))
            }
            Expr::Insert { source, pos, target } => {
                self.eval_insert(source, *pos, target, env)
            }
            Expr::Delete(target) => {
                let targets = self.eval(target, env)?;
                let pul = require_pul(env)?;
                for it in targets.iter() {
                    let Item::Node(n) = it else {
                        return Err(XdmError::new(
                            ErrorCode::XUTY0008,
                            "delete target must be nodes",
                        ));
                    };
                    let u = Update::Delete { target: n.clone() };
                    Pul::validate_target(&u)?;
                    pul.add(u)?;
                }
                Ok(Sequence::empty())
            }
            Expr::Replace { value_of, target, with } => {
                let t = self.eval(target, env)?;
                let w = self.eval(with, env)?;
                let Item::Node(node) = t.exactly_one()?.clone() else {
                    return Err(XdmError::new(
                        ErrorCode::XUTY0008,
                        "replace target must be a node",
                    ));
                };
                let u = if *value_of {
                    Update::ReplaceValue { target: node, value: space_joined(&w) }
                } else {
                    let (content, attrs) = content_nodes(&w, node.arena())?;
                    if !attrs.is_empty() {
                        if node.kind() != NodeKind::Attribute {
                            return Err(XdmError::new(
                                ErrorCode::XUTY0008,
                                "attribute replacement for non-attribute target",
                            ));
                        }
                        Update::ReplaceNode { target: node, with: attrs }
                    } else {
                        Update::ReplaceNode { target: node, with: content }
                    }
                };
                Pul::validate_target(&u)?;
                require_pul(env)?.add(u)?;
                Ok(Sequence::empty())
            }
            Expr::Rename { target, new_name } => {
                let t = self.eval(target, env)?;
                let n = self.eval(new_name, env)?;
                let Item::Node(node) = t.exactly_one()?.clone() else {
                    return Err(XdmError::new(
                        ErrorCode::XUTY0008,
                        "rename target must be a node",
                    ));
                };
                let name = match one_atomic(&n, "rename")? {
                    AtomicValue::QName(q) => q,
                    other => QName::parse_lexical(&other.string_value()).ok_or_else(
                        || {
                            XdmError::new(
                                ErrorCode::FORG0001,
                                format!("bad QName {:?}", other.string_value()),
                            )
                        },
                    )?,
                };
                let u = Update::Rename { target: node, name };
                Pul::validate_target(&u)?;
                require_pul(env)?.add(u)?;
                Ok(Sequence::empty())
            }
            Expr::Transform { copies, modify, ret } => {
                env.push_scope();
                let result = (|| {
                    for (var, src) in copies {
                        let v = self.eval(src, env)?;
                        let Item::Node(n) = v.exactly_one()? else {
                            return Err(XdmError::new(
                                ErrorCode::XUTY0008,
                                "copy binding must be a single node",
                            ));
                        };
                        let copy = n.deep_copy();
                        env.bind(var.clone(), Sequence::one(Item::Node(copy)));
                    }
                    // Open a nested PUL for the modify clause, apply at
                    // the end of the clause (transform snapshot).
                    let saved = env.pul.take();
                    env.pul = Some(Pul::new());
                    let modify_result = self.eval(modify, env);
                    let pul = env.pul.take().expect("pul still open");
                    env.pul = saved;
                    modify_result?;
                    pul.apply()?;
                    self.eval(ret, env)
                })();
                env.pop_scope();
                result
            }
        }
    }

    fn eval_insert(
        &self,
        source: &Expr,
        pos: InsertPos,
        target: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let src = self.eval(source, env)?;
        let tgt = self.eval(target, env)?;
        let Item::Node(node) = tgt.exactly_one()?.clone() else {
            return Err(XdmError::new(
                ErrorCode::XUTY0008,
                "insert target must be a node",
            ));
        };
        let (content, attrs) = content_nodes(&src, node.arena())?;
        let pul = require_pul(env)?;
        if !attrs.is_empty() {
            let elem_target = match pos {
                InsertPos::Into | InsertPos::FirstInto | InsertPos::LastInto => {
                    node.clone()
                }
                InsertPos::Before | InsertPos::After => {
                    node.parent().ok_or_else(|| {
                        XdmError::new(ErrorCode::XUTY0008, "target has no parent")
                    })?
                }
            };
            let u = Update::InsertAttributes { target: elem_target, attrs };
            Pul::validate_target(&u)?;
            pul.add(u)?;
        }
        if !content.is_empty() {
            let u = match pos {
                InsertPos::Into | InsertPos::LastInto => {
                    Update::InsertInto { target: node, content }
                }
                InsertPos::FirstInto => Update::InsertFirst { target: node, content },
                InsertPos::Before => Update::InsertBefore { target: node, content },
                InsertPos::After => Update::InsertAfter { target: node, content },
            };
            Pul::validate_target(&u)?;
            pul.add(u)?;
        }
        Ok(Sequence::empty())
    }

    fn eval_quantified(
        &self,
        quantifier: Quantifier,
        bindings: &[(QName, Expr)],
        satisfies: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        fn walk(
            this: &Evaluator<'_>,
            bindings: &[(QName, Expr)],
            satisfies: &Expr,
            env: &mut Env,
            every: bool,
        ) -> XdmResult<bool> {
            match bindings.split_first() {
                None => this.eval(satisfies, env)?.effective_boolean(),
                Some(((var, src), rest)) => {
                    // Bindings are pulled one item at a time, so the
                    // quantifier's short-circuit stops a FLWOR source
                    // at the deciding item.
                    let mut items = flwor::items(this, src, env)?;
                    while let Some(item) = items.next(this, env)? {
                        env.push_scope();
                        env.bind(var.clone(), Sequence::one(item));
                        let r = walk(this, rest, satisfies, env, every);
                        env.pop_scope();
                        let r = r?;
                        if r != every {
                            // some: found true → short-circuit true;
                            // every: found false → short-circuit false.
                            return Ok(!every);
                        }
                    }
                    Ok(every)
                }
            }
        }
        let every = quantifier == Quantifier::Every;
        let out = walk(self, bindings, satisfies, env, every)?;
        Ok(Sequence::one(Item::boolean(out)))
    }

    // ------------------------------------------------------------- paths

    fn eval_path(
        &self,
        start: &PathStart,
        steps: &[Step],
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let input = match start {
            PathStart::Root | PathStart::RootDescendant => {
                let f = env.focus.as_ref().ok_or_else(|| {
                    XdmError::new(ErrorCode::XPDY0002, "no context item for '/'")
                })?;
                let Item::Node(n) = &f.item else {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "context item for '/' is not a node",
                    ));
                };
                Sequence::one(Item::Node(n.root()))
            }
            PathStart::Expr(e) => self.eval(e, env)?,
        };
        if steps.is_empty() {
            return input.document_order_dedup();
        }
        let mut current = input;
        for step in steps {
            let mut out: Vec<Item> = Vec::new();
            for item in current.iter() {
                let Item::Node(node) = item else {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "path step applied to an atomic value",
                    ));
                };
                let candidates = axis_nodes(node, step.axis);
                let mut matched: Vec<NodeHandle> = candidates
                    .into_iter()
                    .filter(|n| node_test_matches(&step.test, n, step.axis))
                    .collect();
                for pred in &step.predicates {
                    matched = self.filter_nodes(matched, pred, env)?;
                }
                out.extend(matched.into_iter().map(Item::Node));
            }
            current = Sequence::from_items(out).document_order_dedup()?;
        }
        Ok(current)
    }

    /// Evaluate a pre-parsed step list from a single origin item (used
    /// by the join-index builder).
    pub(crate) fn eval_steps_from(
        &self,
        origin: Item,
        steps: &[Step],
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let start = PathStart::Expr(Box::new(Expr::ContextItem));
        env.with_focus(Focus { item: origin, position: 1, size: 1 }, |env| {
            self.eval_path(&start, steps, env)
        })
    }

    fn filter_nodes(
        &self,
        nodes: Vec<NodeHandle>,
        pred: &Expr,
        env: &mut Env,
    ) -> XdmResult<Vec<NodeHandle>> {
        let size = nodes.len();
        let mut out = Vec::new();
        for (i, n) in nodes.into_iter().enumerate() {
            let keep = env.with_focus(
                Focus { item: Item::Node(n.clone()), position: i + 1, size },
                |env| {
                    let v = self.eval(pred, env)?;
                    predicate_truth(&v, i + 1)
                },
            )?;
            if keep {
                out.push(n);
            }
        }
        Ok(out)
    }

    fn apply_predicate(
        &self,
        seq: Sequence,
        pred: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let size = seq.len();
        let mut out = Vec::new();
        for (i, item) in seq.into_iter().enumerate() {
            let keep = env.with_focus(
                Focus { item: item.clone(), position: i + 1, size },
                |env| {
                    let v = self.eval(pred, env)?;
                    predicate_truth(&v, i + 1)
                },
            )?;
            if keep {
                out.push(item);
            }
        }
        Ok(Sequence::from_items(out))
    }

    // ------------------------------------------- early-exit consumers
    //
    // The interceptors below (and `eval`'s positional filter)
    // recognize consumers whose answer is decided by a bounded prefix
    // of their sequence argument, pull a FLWOR argument through a
    // cursor (`crate::flwor`) and stop as soon as the answer is known.
    // Any other argument is evaluated, so the rewrites are
    // value-equivalent with `lazy` on or off; they are still gated on
    // the `lazy` feature so `-lazy` restores the strict evaluation
    // order exactly.
    // Documented deviations (DESIGN §11): work past the early exit, and
    // the element `return` of a tuple before a window — including
    // error-raising expressions — is never performed, and window/bound
    // operands are evaluated before the sequence operand.

    /// Intercept `fn:exists`/`fn:empty` (one pull decides) and
    /// `fn:subsequence` (pulls stop at the window's end). `None` means
    /// "not intercepted — evaluate the call normally".
    fn try_streaming_call(
        &self,
        name: &QName,
        args: &[Expr],
        env: &mut Env,
    ) -> Option<XdmResult<Sequence>> {
        if !self.engine.features().lazy || name.ns.as_deref() != Some(FN_NS) {
            return None;
        }
        // `call_function` consults builtins before user registries, so
        // a `fn:`-namespace match here can never shadow a user function.
        match (&*name.local, args.len()) {
            (f @ ("exists" | "empty"), 1) => Some((|| {
                let found = flwor::items(self, &args[0], env)?.next(self, env)?.is_some();
                Ok(Sequence::one(Item::boolean(found == (f == "exists"))))
            })()),
            ("subsequence", 2) | ("subsequence", 3) => {
                Some(self.streaming_subsequence(args, env))
            }
            _ => None,
        }
    }

    /// `fn:subsequence` as a window: a FLWOR operand is pulled no
    /// further than the window's end.
    fn streaming_subsequence(&self, args: &[Expr], env: &mut Env) -> XdmResult<Sequence> {
        let start = functions::one_double(&self.eval(&args[1], env)?, "fn:subsequence")?;
        let len = match args.get(2) {
            Some(l) => Some(functions::one_double(&self.eval(l, env)?, "fn:subsequence")?),
            None => None,
        };
        flwor::window(self, &args[0], env, functions::rounded_window(start, len))
    }

    /// Intercept `count($x) <op> N` (numeric literal on either side):
    /// pulling `floor(N) + 2` items decides every comparison against
    /// `N`, so the chain is never drained past that cutoff.
    fn streaming_count_cmp(
        &self,
        cmp: CountCmp,
        l: &Expr,
        r: &Expr,
        env: &mut Env,
    ) -> Option<XdmResult<Sequence>> {
        if !self.engine.features().lazy {
            return None;
        }
        fn counted_arg(e: &Expr) -> Option<&Expr> {
            let Expr::FunctionCall { name, args } = e else { return None };
            if name.ns.as_deref() == Some(FN_NS)
                && name.local == "count"
                && args.len() == 1
            {
                Some(&args[0])
            } else {
                None
            }
        }
        let (counted, bound, count_on_left) = match (counted_arg(l), counted_arg(r)) {
            (Some(x), _) => (x, numeric_literal(r)?, true),
            (_, Some(x)) => (x, numeric_literal(l)?, false),
            _ => return None,
        };
        let b = to_f64(&bound).ok()?;
        if !b.is_finite() {
            return None;
        }
        Some((|| {
            let mut items = flwor::items(self, counted, env)?;
            // Saturating: a bound past `usize::MAX` counts every item.
            let cutoff = (b.max(0.0).floor() as usize).saturating_add(2);
            let mut n = 0usize;
            let exact = loop {
                if n == cutoff {
                    break false; // at least `cutoff` items: count > b
                }
                if items.next(self, env)?.is_none() {
                    break true;
                }
                n += 1;
            };
            let res = if exact {
                let count = AtomicValue::Integer(n as i64);
                let (a, bv) =
                    if count_on_left { (&count, &bound) } else { (&bound, &count) };
                match cmp {
                    CountCmp::General(op) => general_pair_matches(op, a, bv)?,
                    CountCmp::Value(op) => match a.value_compare(bv)? {
                        None => false,
                        Some(o) => value_comp_holds(op, o),
                    },
                }
            } else {
                // Cutoff reached: the count exceeds the bound, which
                // fixes the operand ordering without knowing the count.
                let o = if count_on_left {
                    Ordering::Greater
                } else {
                    Ordering::Less
                };
                match cmp {
                    CountCmp::General(op) => general_comp_holds(op, o),
                    CountCmp::Value(op) => value_comp_holds(op, o),
                }
            };
            Ok(Sequence::one(Item::boolean(res)))
        })())
    }

    // -------------------------------------------------------- functions

    /// Call a function/procedure with pre-evaluated arguments.
    pub fn call_function(
        &self,
        name: &QName,
        args: Vec<Sequence>,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        // 1. Builtins.
        if let Some(r) = functions::dispatch(self.engine, env, name, args.clone()) {
            return r;
        }
        // 2. Registered functions.
        if let Some(f) = self.engine.function(name, args.len()) {
            return match f {
                FunctionKind::User(decl) => self.call_user_function(&decl, args, env),
                FunctionKind::External { f, updating } => {
                    if updating && env.pul.is_none() {
                        return Err(XdmError::new(
                            ErrorCode::XUST0001,
                            format!("updating function {name} called outside an update statement"),
                        ));
                    }
                    f(env, args)
                }
            };
        }
        // 3. Procedures — only readonly ones may be called from
        //    expression context (§III.A: "Procedure calls cannot be
        //    used in place of function calls in an XQuery expression
        //    unless the called procedure is annotated as having no
        //    side effects").
        if let Some(p) = self.engine.procedure(name, args.len()) {
            return match p {
                ProcKind::External { f, readonly } => {
                    if !readonly {
                        Err(XdmError::new(
                            ErrorCode::XQSE0004,
                            format!(
                                "procedure {name} has side effects and cannot be \
                                 called from an expression"
                            ),
                        ))
                    } else {
                        f(env, args)
                    }
                }
                ProcKind::User(decl) => {
                    if !decl.readonly {
                        Err(XdmError::new(
                            ErrorCode::XQSE0004,
                            format!(
                                "procedure {name} has side effects and cannot be \
                                 called from an expression"
                            ),
                        ))
                    } else {
                        let runner = self.engine.proc_runner().ok_or_else(|| {
                            XdmError::new(
                                ErrorCode::XPST0017,
                                "no statement engine installed for procedure calls",
                            )
                        })?;
                        runner(self.engine, &decl, args, env)
                    }
                }
            };
        }
        Err(XdmError::new(
            ErrorCode::XPST0017,
            format!("unknown function {name}#{}", args.len()),
        ))
    }

    fn call_user_function(
        &self,
        decl: &FunctionDecl,
        args: Vec<Sequence>,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        env.push_scope();
        let result = (|| {
            for (name, a) in convert_params(decl, args)? {
                env.bind(name, a);
            }
            // Function bodies see no outer focus.
            let saved_focus = env.focus.take();
            let body = decl.body.as_ref().expect("user function has body");
            let out = self.eval(body, env);
            env.focus = saved_focus;
            let out = out?;
            if let Some(ty) = &decl.return_type {
                ty.check(&out, &format!("result of {}", decl.name))?;
            }
            Ok(out)
        })();
        env.pop_scope();
        result
    }

    /// Settle a constructor's memory charge after the tree is built:
    /// every node record allocated in the constructor's own arena
    /// beyond the root (the admission unit covered that), plus one
    /// pointer unit per subtree grafted during the construction.
    /// Coarse by design — nested constructors settle themselves and a
    /// graft they perform may be counted once more here; the ceiling
    /// is a guard rail, not an allocator.
    fn settle_construction_memory(
        &self,
        arena: &SharedArena,
        before: &xdm::XdmStats,
    ) -> XdmResult<()> {
        let grafts = xdm::xdm_stats().since(before).subtrees_grafted;
        let local = (arena.borrow().len().saturating_sub(1)) as u64;
        let units = local + grafts;
        if units > 0 {
            self.engine.budget_charge_memory(units)?;
        }
        Ok(())
    }

    fn eval_name_expr(
        &self,
        name: &NameExpr,
        env: &mut Env,
        what: &str,
    ) -> XdmResult<QName> {
        match name {
            NameExpr::Fixed(q) => Ok(q.clone()),
            NameExpr::Computed(e) => {
                let v = self.eval(e, env)?;
                match one_atomic(&v, what)? {
                    AtomicValue::QName(q) => Ok(q),
                    other => QName::parse_lexical(&other.string_value()).ok_or_else(
                        || {
                            XdmError::new(
                                ErrorCode::FORG0001,
                                format!("computed {what} name {:?} is not a QName", other.string_value()),
                            )
                        },
                    ),
                }
            }
        }
    }

    // ----------------------------------------------------- constructors

    fn build_direct_element(
        &self,
        de: &DirectElement,
        arena: &SharedArena,
        env: &mut Env,
    ) -> XdmResult<NodeHandle> {
        let elem = NodeHandle::new_element(arena, de.name.clone());
        for (p, u) in &de.ns_decls {
            elem.add_ns_decl(p.clone(), u.clone());
        }
        for (name, parts) in &de.attributes {
            let mut value = String::new();
            for part in parts {
                match part {
                    AttrContent::Text(t) => value.push_str(t),
                    AttrContent::Expr(e) => {
                        let v = self.eval(e, env)?;
                        value.push_str(&space_joined(&v));
                    }
                }
            }
            elem.set_attribute(&NodeHandle::new_attribute(arena, name.clone(), value))?;
        }
        for c in &de.content {
            match c {
                DirectContent::Text(t) => {
                    elem.append_child(&NodeHandle::new_text(arena, t.clone()))?;
                }
                DirectContent::Comment(t) => {
                    elem.append_child(&NodeHandle::new_comment(arena, t.clone()))?;
                }
                DirectContent::Pi(target, data) => {
                    elem.append_child(&NodeHandle::new_pi(
                        arena,
                        target.clone(),
                        data.clone(),
                    ))?;
                }
                DirectContent::Element(child) => {
                    let c = self.build_direct_element(child, arena, env)?;
                    elem.append_child(&c)?;
                }
                DirectContent::Expr(e) => {
                    let v = self.eval(e, env)?;
                    assemble_content(&elem, &v, self.engine.features().graft)?;
                }
            }
        }
        Ok(elem)
    }

    fn eval_arith(
        &self,
        op: BinaryOp,
        l: &Expr,
        r: &Expr,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        let lv = self.eval(l, env)?;
        let rv = self.eval(r, env)?;
        let (Some(a), Some(b)) = (
            opt_one_atomic(&lv, "arithmetic")?,
            opt_one_atomic(&rv, "arithmetic")?,
        ) else {
            return Ok(Sequence::empty());
        };
        let a = coerce_numeric(a)?;
        let b = coerce_numeric(b)?;
        arith(op, a, b).map(|v| Sequence::one(Item::Atomic(v)))
    }

    fn eval_opt_integer(&self, e: &Expr, env: &mut Env) -> XdmResult<Option<i64>> {
        let v = self.eval(e, env)?;
        match opt_one_atomic(&v, "range")? {
            None => Ok(None),
            Some(a) => match a.cast_to(AtomicType::Integer)? {
                AtomicValue::Integer(i) => Ok(Some(i)),
                _ => unreachable!(),
            },
        }
    }
}

// ---------------------------------------------------------------- utils

fn overflow() -> XdmError {
    XdmError::new(ErrorCode::FOAR0002, "integer overflow")
}

fn one_atomic(seq: &Sequence, what: &str) -> XdmResult<AtomicValue> {
    opt_one_atomic(seq, what)?.ok_or_else(|| {
        XdmError::new(ErrorCode::XPTY0004, format!("{what}: empty sequence"))
    })
}

/// A user function's parameters bound to its arguments, each converted
/// to its declared type by the function conversion rules, in order.
pub(crate) fn convert_params(
    decl: &FunctionDecl,
    args: Vec<Sequence>,
) -> XdmResult<Vec<(QName, Sequence)>> {
    let mut params = Vec::with_capacity(args.len());
    for (p, a) in decl.params.iter().zip(args) {
        let a = match &p.ty {
            Some(ty) => ty.convert(a, &format!("parameter ${} of {}", p.name, decl.name))?,
            None => a,
        };
        params.push((p.name.clone(), a));
    }
    Ok(params)
}

pub(crate) fn opt_one_atomic(seq: &Sequence, what: &str) -> XdmResult<Option<AtomicValue>> {
    let atoms = seq.atomized();
    match atoms.len() {
        0 => Ok(None),
        1 => Ok(Some(atoms.into_iter().next().expect("one"))),
        n => Err(XdmError::new(
            ErrorCode::XPTY0004,
            format!("{what}: expected at most one item, got {n}"),
        )),
    }
}

/// Untyped operands in arithmetic become doubles (XQuery 1.0 §3.4).
fn coerce_numeric(a: AtomicValue) -> XdmResult<AtomicValue> {
    match a {
        AtomicValue::Untyped(_) => a.cast_to(AtomicType::Double),
        other => Ok(other),
    }
}

fn arith(op: BinaryOp, a: AtomicValue, b: AtomicValue) -> XdmResult<AtomicValue> {
    use AtomicValue as V;
    // Promote: double > decimal > integer.
    let pair = (&a, &b);
    let any_double = matches!(pair.0, V::Double(_)) || matches!(pair.1, V::Double(_));
    if !a.type_of().is_numeric() || !b.type_of().is_numeric() {
        return Err(XdmError::new(
            ErrorCode::XPTY0004,
            format!("arithmetic on {} and {}", a.type_of(), b.type_of()),
        ));
    }
    if any_double {
        let (x, y) = (to_f64(&a)?, to_f64(&b)?);
        let r = match op {
            BinaryOp::Add => x + y,
            BinaryOp::Sub => x - y,
            BinaryOp::Mul => x * y,
            BinaryOp::Div => x / y,
            BinaryOp::IDiv => {
                if y == 0.0 {
                    return Err(XdmError::new(ErrorCode::FOAR0001, "idiv by zero"));
                }
                return Ok(V::Integer((x / y).trunc() as i64));
            }
            BinaryOp::Mod => x % y,
        };
        return Ok(V::Double(r));
    }
    let any_decimal = matches!(pair.0, V::Decimal(_)) || matches!(pair.1, V::Decimal(_));
    let dec = |v: &AtomicValue| -> Decimal {
        match v {
            V::Integer(i) => Decimal::from_i64(*i),
            V::Decimal(d) => *d,
            _ => unreachable!("numeric"),
        }
    };
    if any_decimal || op == BinaryOp::Div {
        let (x, y) = (dec(&a), dec(&b));
        return Ok(match op {
            BinaryOp::Add => V::Decimal(x.checked_add(y)?),
            BinaryOp::Sub => V::Decimal(x.checked_sub(y)?),
            BinaryOp::Mul => V::Decimal(x.checked_mul(y)?),
            BinaryOp::Div => V::Decimal(x.checked_div(y)?),
            BinaryOp::IDiv => V::Integer(x.checked_idiv(y)?),
            BinaryOp::Mod => V::Decimal(x.checked_mod(y)?),
        }
        .normalize_decimal_to_int(any_decimal));
    }
    // Pure integer.
    let (V::Integer(x), V::Integer(y)) = (&a, &b) else { unreachable!() };
    let (x, y) = (*x, *y);
    Ok(match op {
        BinaryOp::Add => V::Integer(x.checked_add(y).ok_or_else(overflow)?),
        BinaryOp::Sub => V::Integer(x.checked_sub(y).ok_or_else(overflow)?),
        BinaryOp::Mul => V::Integer(x.checked_mul(y).ok_or_else(overflow)?),
        BinaryOp::Div => unreachable!("handled above"),
        BinaryOp::IDiv => {
            if y == 0 {
                return Err(XdmError::new(ErrorCode::FOAR0001, "idiv by zero"));
            }
            V::Integer(x.checked_div(y).ok_or_else(overflow)?)
        }
        BinaryOp::Mod => {
            if y == 0 {
                return Err(XdmError::new(ErrorCode::FOAR0001, "mod by zero"));
            }
            V::Integer(x % y)
        }
    })
}

trait NormalizeNum {
    fn normalize_decimal_to_int(self, keep_decimal: bool) -> AtomicValue;
}

impl NormalizeNum for AtomicValue {
    /// `integer op integer` that routed through decimals (div) keeps
    /// decimal type; otherwise collapse integral decimals back to
    /// integers when both inputs were integers.
    fn normalize_decimal_to_int(self, keep_decimal: bool) -> AtomicValue {
        if keep_decimal {
            return self;
        }
        match self {
            AtomicValue::Decimal(d) if d.scale() == 0 => match d.trunc_i64() {
                Ok(i) => AtomicValue::Integer(i),
                Err(_) => AtomicValue::Decimal(d),
            },
            other => other,
        }
    }
}

fn general_pair_matches(
    op: GeneralComp,
    a: &AtomicValue,
    b: &AtomicValue,
) -> XdmResult<bool> {
    let ord = a.value_compare(b)?;
    Ok(match ord {
        None => false,
        Some(o) => match op {
            GeneralComp::Eq => o == Ordering::Equal,
            GeneralComp::Ne => o != Ordering::Equal,
            GeneralComp::Lt => o == Ordering::Less,
            GeneralComp::Le => o != Ordering::Greater,
            GeneralComp::Gt => o == Ordering::Greater,
            GeneralComp::Ge => o != Ordering::Less,
        },
    })
}

/// Stable-sort rows by their precomputed `order by` keys. Comparator
/// errors (incomparable key pairs) cannot unwind out of `sort_by`, so
/// the first one is captured and re-raised after the sort finishes —
/// this is the single shared implementation of the clause's
/// error-capture contract for every order-by evaluation site.
pub(crate) fn order_by_sort<T>(
    mut keyed: Vec<(Vec<Option<AtomicValue>>, T)>,
    specs: &[OrderSpec],
) -> XdmResult<Vec<T>> {
    let mut sort_err: Option<XdmError> = None;
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, spec) in specs.iter().enumerate() {
            match order_keys(&ka[i], &kb[i], spec) {
                Ok(Ordering::Equal) => continue,
                Ok(o) => return o,
                Err(e) => {
                    if sort_err.is_none() {
                        sort_err = Some(e);
                    }
                    return Ordering::Equal;
                }
            }
        }
        Ordering::Equal
    });
    match sort_err {
        Some(e) => Err(e),
        None => Ok(keyed.into_iter().map(|(_, t)| t).collect()),
    }
}

fn order_keys(
    a: &Option<AtomicValue>,
    b: &Option<AtomicValue>,
    spec: &OrderSpec,
) -> XdmResult<Ordering> {
    let o = match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => {
            if spec.empty_least {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (Some(_), None) => {
            if spec.empty_least {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        (Some(x), Some(y)) => {
            // Untyped sorts as string against strings, numeric vs
            // numerics — value_compare handles the coercion.
            x.value_compare(y)?.unwrap_or(Ordering::Equal)
        }
    };
    Ok(if spec.descending { o.reverse() } else { o })
}

/// Which comparison family a `count(...) <op> N` interception came
/// from — the two families agree on singleton numerics, but each is
/// decided through its own machinery to keep promotions identical.
enum CountCmp {
    General(GeneralComp),
    Value(ValueComp),
}

fn numeric_literal(e: &Expr) -> Option<AtomicValue> {
    if let Expr::Literal(a) = e {
        if a.type_of().is_numeric() {
            return Some(a.clone());
        }
    }
    None
}

fn value_comp_holds(op: ValueComp, o: Ordering) -> bool {
    match op {
        ValueComp::Eq => o == Ordering::Equal,
        ValueComp::Ne => o != Ordering::Equal,
        ValueComp::Lt => o == Ordering::Less,
        ValueComp::Le => o != Ordering::Greater,
        ValueComp::Gt => o == Ordering::Greater,
        ValueComp::Ge => o != Ordering::Less,
    }
}

fn general_comp_holds(op: GeneralComp, o: Ordering) -> bool {
    match op {
        GeneralComp::Eq => o == Ordering::Equal,
        GeneralComp::Ne => o != Ordering::Equal,
        GeneralComp::Lt => o == Ordering::Less,
        GeneralComp::Le => o != Ordering::Greater,
        GeneralComp::Gt => o == Ordering::Greater,
        GeneralComp::Ge => o != Ordering::Less,
    }
}

/// Recognize a first predicate that selects by position alone, and
/// the 0-based window it selects: a numeric literal, or `position()`
/// compared against a numeric literal with an operator that bounds a
/// prefix. `ge`/`gt`/`ne` shapes keep the whole tail and gain nothing
/// from streaming, so they are not recognized.
fn positional_window(pred: &Expr) -> Option<Range<usize>> {
    // `[k]`: only an integral position matches; any other numeric
    // selects nothing from any sequence.
    let exact = |k: f64| {
        if k.fract() == 0.0 {
            functions::position_window(k, k + 1.0)
        } else {
            0..0
        }
    };
    // `position() le N` keeps `p < floor(N) + 1`.
    let up_to = |bound: f64, inclusive: bool| {
        functions::position_window(1.0, if inclusive { bound.floor() + 1.0 } else { bound })
    };
    if let Some(a) = numeric_literal(pred) {
        return to_f64(&a).ok().map(exact);
    }
    #[derive(Clone, Copy)]
    enum Rel {
        Eq,
        Lt,
        Le,
        Gt,
        Ge,
    }
    let (rel, l, r) = match pred {
        Expr::General(op, l, r) => {
            let rel = match op {
                GeneralComp::Eq => Rel::Eq,
                GeneralComp::Lt => Rel::Lt,
                GeneralComp::Le => Rel::Le,
                GeneralComp::Gt => Rel::Gt,
                GeneralComp::Ge => Rel::Ge,
                GeneralComp::Ne => return None,
            };
            (rel, &**l, &**r)
        }
        Expr::Value(op, l, r) => {
            let rel = match op {
                ValueComp::Eq => Rel::Eq,
                ValueComp::Lt => Rel::Lt,
                ValueComp::Le => Rel::Le,
                ValueComp::Gt => Rel::Gt,
                ValueComp::Ge => Rel::Ge,
                ValueComp::Ne => return None,
            };
            (rel, &**l, &**r)
        }
        _ => return None,
    };
    let is_position = |e: &Expr| -> bool {
        matches!(e, Expr::FunctionCall { name, args }
            if args.is_empty()
                && name.ns.as_deref() == Some(FN_NS)
                && name.local == "position")
    };
    let bound_of = |e: &Expr| numeric_literal(e).and_then(|a| to_f64(&a).ok());
    if is_position(l) {
        let bound = bound_of(r)?;
        return match rel {
            Rel::Eq => Some(exact(bound)),
            Rel::Lt => Some(up_to(bound, false)),
            Rel::Le => Some(up_to(bound, true)),
            Rel::Gt | Rel::Ge => None,
        };
    }
    if is_position(r) {
        let bound = bound_of(l)?;
        // Flipped operand order: `N gt position()` keeps a prefix.
        return match rel {
            Rel::Eq => Some(exact(bound)),
            Rel::Gt => Some(up_to(bound, false)),
            Rel::Ge => Some(up_to(bound, true)),
            Rel::Lt | Rel::Le => None,
        };
    }
    None
}

fn predicate_truth(v: &Sequence, position: usize) -> XdmResult<bool> {
    // A singleton numeric predicate is a position test.
    if let [Item::Atomic(a)] = v.items() {
        if a.type_of().is_numeric() {
            let p = to_f64(a)?;
            return Ok(p == position as f64);
        }
    }
    v.effective_boolean()
}

fn axis_nodes(node: &NodeHandle, axis: Axis) -> Vec<NodeHandle> {
    match axis {
        Axis::Child => node.children(),
        Axis::Attribute => node.attributes(),
        Axis::Descendant => node.descendants(),
        Axis::DescendantOrSelf => {
            let mut v = vec![node.clone()];
            v.extend(node.descendants());
            v
        }
        Axis::SelfAxis => vec![node.clone()],
        Axis::Parent => node.parent().into_iter().collect(),
        Axis::Ancestor => node.ancestors(),
        Axis::AncestorOrSelf => {
            let mut v = vec![node.clone()];
            v.extend(node.ancestors());
            v
        }
        Axis::FollowingSibling => node.following_siblings(),
        Axis::PrecedingSibling => node.preceding_siblings(),
    }
}

/// The principal node kind of an axis (name tests match it).
fn principal_kind(axis: Axis) -> NodeKind {
    if axis == Axis::Attribute {
        NodeKind::Attribute
    } else {
        NodeKind::Element
    }
}

fn node_test_matches(test: &NodeTest, node: &NodeHandle, axis: Axis) -> bool {
    match test {
        NodeTest::Kind(k) => kind_test_matches(k, node),
        name_test => {
            node.kind() == principal_kind(axis)
                && name_test.matches_name(node.name().as_ref())
        }
    }
}

fn kind_test_matches(k: &KindTest, node: &NodeHandle) -> bool {
    match k {
        KindTest::AnyKind => true,
        KindTest::Document => node.kind() == NodeKind::Document,
        KindTest::Element(name) => {
            node.kind() == NodeKind::Element
                && name.as_ref().is_none_or(|q| node.name().as_ref() == Some(q))
        }
        KindTest::Attribute(name) => {
            node.kind() == NodeKind::Attribute
                && name.as_ref().is_none_or(|q| node.name().as_ref() == Some(q))
        }
        KindTest::Text => node.kind() == NodeKind::Text,
        KindTest::Comment => node.kind() == NodeKind::Comment,
        KindTest::Pi(target) => {
            node.kind() == NodeKind::Pi
                && target
                    .as_ref()
                    .is_none_or(|t| node.name().is_some_and(|q| q.local == *t))
        }
    }
}

fn resolve_atomic_type(q: &QName) -> XdmResult<AtomicType> {
    let is_xs = q.ns.as_deref() == Some(XS_NS) || q.ns.is_none();
    if is_xs {
        if let Some(t) = AtomicType::from_local(&q.local) {
            return Ok(t);
        }
    }
    Err(XdmError::new(
        ErrorCode::XPST0003,
        format!("unknown atomic type {q}"),
    ))
}

fn require_pul(env: &mut Env) -> XdmResult<&mut Pul> {
    env.pul.as_mut().ok_or_else(|| {
        XdmError::new(
            ErrorCode::XUST0001,
            "updating expression evaluated outside an update statement",
        )
    })
}

/// Space-joined string of an atomized sequence (attribute/text
/// content rules).
fn space_joined(seq: &Sequence) -> String {
    seq.atomized()
        .iter()
        .map(|a| a.string_value())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Element-content assembly: adjacent atomics become one text node
/// (space-separated); nodes are copied; attribute nodes attach to the
/// element (only before other content); document nodes contribute
/// their children.
///
/// With `graft` on, already-materialized element subtrees from other
/// arenas are adopted **by reference** (zero-copy) when immutability
/// can be guaranteed — the source is sealed on first share and any
/// later mutation through the host copies on write. Observable
/// semantics (serialization, axes, node identity of the constructed
/// tree) are identical to the deep-copy path.
fn assemble_content(parent: &NodeHandle, seq: &Sequence, graft: bool) -> XdmResult<()> {
    let arena = parent.arena().clone();
    let mut pending_text: Option<String> = None;
    let mut seen_non_attr = !parent.children().is_empty();
    for item in seq.iter() {
        match item {
            Item::Atomic(a) => {
                let s = a.string_value();
                pending_text = Some(match pending_text.take() {
                    Some(prev) => format!("{prev} {s}"),
                    None => s,
                });
            }
            Item::Node(n) => {
                if let Some(t) = pending_text.take() {
                    parent.append_child(&NodeHandle::new_text(&arena, t))?;
                    seen_non_attr = true;
                }
                match n.kind() {
                    NodeKind::Attribute => {
                        if seen_non_attr {
                            return Err(XdmError::new(
                                ErrorCode::XPTY0004,
                                "attribute node after non-attribute content",
                            ));
                        }
                        let a = copy_for_content(n, &arena);
                        parent.set_attribute(&a)?;
                    }
                    NodeKind::Document => {
                        for c in n.children() {
                            if graft && c.graftable_into(&arena) {
                                parent.graft_child(&c)?;
                            } else {
                                let cc = copy_for_content(&c, &arena);
                                parent.append_child(&cc)?;
                            }
                        }
                        seen_non_attr = true;
                    }
                    _ => {
                        if graft && n.graftable_into(&arena) {
                            parent.graft_child(n)?;
                        } else {
                            let c = copy_for_content(n, &arena);
                            parent.append_child(&c)?;
                        }
                        seen_non_attr = true;
                    }
                }
            }
        }
    }
    if let Some(t) = pending_text {
        parent.append_child(&NodeHandle::new_text(&arena, t))?;
    }
    Ok(())
}

/// Constructor content is copied — except freshly constructed,
/// parentless nodes already in the target arena, which can be moved
/// (they are unobservable elsewhere).
fn copy_for_content(n: &NodeHandle, arena: &SharedArena) -> NodeHandle {
    if n.parent().is_none() && Rc::ptr_eq(n.arena(), arena) {
        n.clone()
    } else {
        n.deep_copy_into(arena)
    }
}

/// Split a sequence into (content nodes, attribute nodes) copied into
/// the target arena — the XUF insert/replace source normalization.
fn content_nodes(
    seq: &Sequence,
    arena: &SharedArena,
) -> XdmResult<(Vec<NodeHandle>, Vec<NodeHandle>)> {
    let mut content = Vec::new();
    let mut attrs = Vec::new();
    let mut pending_text: Option<String> = None;
    for item in seq.iter() {
        match item {
            Item::Atomic(a) => {
                let s = a.string_value();
                pending_text = Some(match pending_text.take() {
                    Some(prev) => format!("{prev} {s}"),
                    None => s,
                });
            }
            Item::Node(n) => {
                if let Some(t) = pending_text.take() {
                    content.push(NodeHandle::new_text(arena, t));
                }
                match n.kind() {
                    NodeKind::Attribute => attrs.push(n.deep_copy_into(arena)),
                    NodeKind::Document => {
                        for c in n.children() {
                            content.push(c.deep_copy_into(arena));
                        }
                    }
                    _ => content.push(n.deep_copy_into(arena)),
                }
            }
        }
    }
    if let Some(t) = pending_text {
        content.push(NodeHandle::new_text(arena, t));
    }
    Ok((content, attrs))
}
