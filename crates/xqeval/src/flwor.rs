//! FLWOR evaluation: one pull pipeline of clause operators.
//!
//! A FLWOR expression is planned into a chain of operators, each
//! pulling binding tuples from the one before it: `for`, `let` and
//! `where`, plus `order by`, a barrier that drains its input, sorts it
//! through [`order_by_sort`], then emits. The source of a `for` is one
//! of four interchangeable operators, chosen when the FLWOR is entered:
//!
//! - **plain** — evaluate the source expression per input tuple;
//! - **pushdown** — `for $v in src() where $v/COL eq K` over a
//!   capability-bearing source becomes one indexed point-select per
//!   input tuple (§II.B "push computation to the sources");
//! - **hash-join probe** — `for $v in E where P($v) eq K` with `E`
//!   closed probes a memoized index over `E`;
//! - **batched flight** — a source calling a batchable (web-service)
//!   function drains its input and issues one `call_many` flight for
//!   every tuple: a barrier, like `order by`.
//!
//! The pushdown and join operators consume the `where` clause after
//! them. Whatever the index does not decide is checked against that
//! clause: every pushed-down candidate as it is pulled, and a tuple
//! whose key is beyond the index takes the plain path for that tuple
//! only, so a rewrite only narrows what plain evaluation examines
//! (DESIGN §11 notes the one exception: join keys that plain comparison
//! rejects as incomparable simply do not match).
//!
//! Two drivers run the same pipeline. [`drain`] (what `eval` does)
//! pulls every tuple on the caller's `Env` and borrows the AST, so the
//! join cache, keyed by source-expression address, stays warm across
//! statements. [`stream`] (what `eval_lazy` does) wraps the pipeline
//! as a lazy [`Sequence`] that owns a clone of the AST, a forked `Env`
//! and an engine handle, and evaluates `for` sources, `where`
//! conditions and `return` lazily. Only that driver charges a budget
//! step per tuple and keeps the streaming counters.

use std::rc::Rc;

use xdm::error::XdmResult;
use xdm::qname::QName;
use xdm::sequence::{Item, ItemSource, Sequence};
use xqparser::ast::*;

use crate::context::Env;
use crate::engine::{BatchFn, ColClass, Engine, OptCounters, SourceCapability};
use crate::eval::{
    opt_one_atomic, order_by_sort, CacheStamp, Evaluator, JoinCacheEntry, JoinIdx,
};

/// A binding tuple: the variables bound by the clauses so far.
type Tuple = Vec<(QName, Sequence)>;

/// Evaluate a FLWOR expression to completion on the caller's `Env`.
pub(crate) fn drain(
    ev: &Evaluator<'_>,
    clauses: &[FlworClause],
    ret: &Expr,
    env: &mut Env,
) -> XdmResult<Sequence> {
    let mut stages = plan(ev.engine, clauses);
    let mut cx = Cx { ev, env, clauses, lazy: false };
    let mut out = Sequence::empty();
    while let Some(t) = pull(&mut stages, &mut cx)? {
        out.extend(cx.eval(&t, ret)?);
    }
    Ok(out)
}

/// The same pipeline as a lazy sequence that outlives the caller.
pub(crate) fn stream(
    engine: &Engine,
    clauses: &[FlworClause],
    ret: &Expr,
    env: &Env,
) -> Sequence {
    Sequence::lazy(Box::new(Stream {
        engine: engine.clone(),
        env: env.fork_for_stream(),
        stages: plan(engine, clauses),
        clauses: clauses.to_vec(),
        ret: ret.clone(),
        pending: None,
        done: false,
    }))
}

/// The lazy driver.
struct Stream {
    engine: Engine,
    env: Env,
    stages: Vec<Stage>,
    clauses: Vec<FlworClause>,
    ret: Expr,
    /// The current tuple's `return` items, and how many were handed out.
    pending: Option<(Sequence, usize)>,
    /// True once the consumer has seen the end (or a terminal error):
    /// a fully drained stream is not an early exit.
    done: bool,
}

impl Stream {
    fn advance(&mut self) -> XdmResult<Option<Item>> {
        let ev = Evaluator::new(&self.engine);
        let clauses = &self.clauses;
        let mut cx = Cx { ev: &ev, env: &mut self.env, clauses, lazy: true };
        loop {
            if let Some((seq, i)) = &mut self.pending {
                if let Some(item) = seq.try_item(*i)? {
                    *i += 1;
                    return Ok(Some(item));
                }
                self.pending = None;
            }
            let Some(t) = pull(&mut self.stages, &mut cx)? else { return Ok(None) };
            // One fuel/deadline step per pulled tuple, so early-exit
            // consumers are charged for exactly the work they caused.
            self.engine.budget_step()?;
            OptCounters::bump(&self.engine.opt_counters().tuples_pulled);
            self.pending = Some((cx.eval(&t, &self.ret)?, 0));
        }
    }
}

impl ItemSource for Stream {
    fn next_item(&mut self) -> XdmResult<Option<Item>> {
        if self.done {
            return Ok(None);
        }
        let r = self.advance();
        if !matches!(r, Ok(Some(_))) {
            self.done = true;
        }
        r
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let opt = self.engine.opt_counters();
        OptCounters::bump(&opt.early_exits);
        // Count what the early exit verifiably skipped: items whose
        // existence is already known but that were never consumed.
        // Live lazy sources of unknown length are not guessed at, so
        // this is a lower bound.
        let mut skipped: usize = self.stages.iter().map(Stage::unbuilt).sum();
        if let Some((p, i)) = &self.pending {
            skipped += p.known_len().map_or(0, |n| n.saturating_sub(*i));
        }
        OptCounters::add(&opt.items_never_built, skipped as u64);
    }
}

/// What the operators evaluate with.
struct Cx<'a, 'e> {
    ev: &'a Evaluator<'e>,
    env: &'a mut Env,
    clauses: &'a [FlworClause],
    /// Evaluate `for` sources, `where` conditions and `return` lazily.
    lazy: bool,
}

impl Cx<'_, '_> {
    /// Evaluate `e` with `tuple` bound, lazily under the lazy driver.
    fn eval(&mut self, tuple: &Tuple, e: &Expr) -> XdmResult<Sequence> {
        self.bound(tuple, e, self.lazy)
    }

    /// Evaluate `e` with `tuple` bound, always to a materialized value.
    fn force(&mut self, tuple: &Tuple, e: &Expr) -> XdmResult<Sequence> {
        self.bound(tuple, e, false)
    }

    fn bound(&mut self, tuple: &Tuple, e: &Expr, lazy: bool) -> XdmResult<Sequence> {
        self.env.push_scope();
        for (n, v) in tuple {
            self.env.bind(n.clone(), v.clone());
        }
        let out =
            if lazy { self.ev.eval_lazy(e, self.env) } else { self.ev.eval(e, self.env) };
        self.env.pop_scope();
        out
    }

    /// Does `tuple` pass the `where` clause at `i`? A lazy condition
    /// pulls at most two items.
    fn passes(&mut self, tuple: &Tuple, i: usize) -> XdmResult<bool> {
        let clauses = self.clauses;
        let FlworClause::Where(cond) = &clauses[i] else {
            unreachable!("planned from a where clause")
        };
        self.eval(tuple, cond)?.effective_boolean()
    }
}

/// One operator of the pipeline.
enum Stage {
    /// The pipeline's input: a single empty tuple.
    Unit {
        done: bool,
    },
    For(ForOp),
    Let(usize),
    Where(usize),
    /// The sorted tuples, once the input has been drained.
    OrderBy(usize, Option<std::vec::IntoIter<Tuple>>),
}

impl Stage {
    /// Items known to exist that this stage never turned into tuples.
    fn unbuilt(&self) -> usize {
        match self {
            Stage::For(ForOp { cursor: Some(c), .. }) => {
                c.items.known_len().map_or(0, |n| n.saturating_sub(c.next))
            }
            Stage::OrderBy(_, Some(sorted)) => sorted.len(),
            _ => 0,
        }
    }
}

/// Plan a clause list into its operator chain.
fn plan(engine: &Engine, clauses: &[FlworClause]) -> Vec<Stage> {
    let mut stages = Vec::with_capacity(clauses.len() + 1);
    stages.push(Stage::Unit { done: false });
    let mut i = 0;
    while i < clauses.len() {
        stages.push(match &clauses[i] {
            FlworClause::For { var, pos, source } => {
                // A positional variable numbers the plain source's
                // items, so it rules every rewrite out.
                let source = match pos {
                    None => choose_source(engine, var, source, clauses.get(i + 1)),
                    Some(_) => Source::Plain,
                };
                let owns_where =
                    matches!(source, Source::Pushdown(_) | Source::Join { .. });
                let op = ForOp { clause: i, source, owns_where, cursor: None };
                if owns_where {
                    i += 1;
                }
                Stage::For(op)
            }
            FlworClause::Let { .. } => Stage::Let(i),
            FlworClause::Where(_) => Stage::Where(i),
            FlworClause::OrderBy(_) => Stage::OrderBy(i, None),
        });
        i += 1;
    }
    stages
}

/// Pull the next tuple out of the last of `stages`.
fn pull(stages: &mut [Stage], cx: &mut Cx<'_, '_>) -> XdmResult<Option<Tuple>> {
    let Some((stage, input)) = stages.split_last_mut() else { return Ok(None) };
    let clauses = cx.clauses;
    match stage {
        Stage::Unit { done } => {
            let first = !*done;
            *done = true;
            Ok(first.then(Vec::new))
        }
        Stage::For(op) => op.next(input, cx),
        Stage::Let(i) => {
            let FlworClause::Let { var, ty, value } = &clauses[*i] else {
                unreachable!("planned from a let clause")
            };
            let Some(mut t) = pull(input, cx)? else { return Ok(None) };
            // Let values are always materialized: a bound variable can
            // flow into any expression, and only the pipeline's own
            // operators may hold unforced lazy sequences (DESIGN §11).
            let v = cx.force(&t, value)?;
            if let Some(ty) = ty {
                ty.check(&v, &format!("let ${var}"))?;
            }
            t.push((var.clone(), v));
            Ok(Some(t))
        }
        Stage::Where(i) => {
            while let Some(t) = pull(input, cx)? {
                if cx.passes(&t, *i)? {
                    return Ok(Some(t));
                }
            }
            Ok(None)
        }
        Stage::OrderBy(i, sorted) => {
            if sorted.is_none() {
                let FlworClause::OrderBy(specs) = &clauses[*i] else {
                    unreachable!("planned from an order by clause")
                };
                let mut keyed = Vec::new();
                while let Some(t) = pull(input, cx)? {
                    let mut keys = Vec::with_capacity(specs.len());
                    for spec in specs {
                        keys.push(opt_one_atomic(&cx.force(&t, &spec.key)?, "order by")?);
                    }
                    keyed.push((keys, t));
                }
                *sorted = Some(order_by_sort(keyed, specs)?.into_iter());
            }
            Ok(sorted.as_mut().and_then(Iterator::next))
        }
    }
}

/// A `for` clause: binds, for each input tuple, each item its source
/// yields.
struct ForOp {
    /// Index of the `for` clause.
    clause: usize,
    source: Source,
    /// The operator consumed the `where` clause after it.
    owns_where: bool,
    /// The input tuple being expanded.
    cursor: Option<Cursor>,
}

/// An input tuple and the items it is being expanded with.
struct Cursor {
    tuple: Tuple,
    items: Sequence,
    /// Index of the next item to bind.
    next: usize,
    /// Each binding must still pass the consumed `where` clause.
    check: bool,
}

/// The interchangeable sources of a `for` clause.
enum Source {
    /// Evaluate the source expression for each input tuple.
    Plain,
    /// One indexed point-select per input tuple.
    Pushdown(Pushdown),
    /// Probes into a memoized index over a closed source, keyed by the
    /// path `steps`; `key` is the outer key's side of the `where`.
    Join { steps: Vec<Step>, key: usize, index: Option<Rc<JoinCacheEntry>> },
    /// One `call_many` flight for all input tuples, paired with their
    /// responses once issued.
    Batch { batch: BatchFn, flight: Option<std::vec::IntoIter<(Tuple, Sequence)>> },
}

impl ForOp {
    fn next(
        &mut self,
        input: &mut [Stage],
        cx: &mut Cx<'_, '_>,
    ) -> XdmResult<Option<Tuple>> {
        let clauses = cx.clauses;
        let FlworClause::For { var, pos, .. } = &clauses[self.clause] else {
            unreachable!("planned from a for clause")
        };
        loop {
            if let Some(c) = &mut self.cursor {
                while let Some(item) = c.items.try_item(c.next)? {
                    c.next += 1;
                    let mut t = c.tuple.clone();
                    t.push((var.clone(), Sequence::one(item)));
                    if let Some(p) = pos {
                        t.push((p.clone(), Sequence::one(Item::integer(c.next as i64))));
                    }
                    if !c.check || cx.passes(&t, self.clause + 1)? {
                        return Ok(Some(t));
                    }
                }
            }
            self.cursor = self.open(input, cx)?;
            if self.cursor.is_none() {
                return Ok(None);
            }
        }
    }

    /// Start expanding the next input tuple; `None` once the input is
    /// exhausted.
    fn open(
        &mut self,
        input: &mut [Stage],
        cx: &mut Cx<'_, '_>,
    ) -> XdmResult<Option<Cursor>> {
        let clauses = cx.clauses;
        let FlworClause::For { source, .. } = &clauses[self.clause] else {
            unreachable!("planned from a for clause")
        };
        let cursor = |tuple, items, check| Some(Cursor { tuple, items, next: 0, check });
        if let Source::Batch { batch, flight } = &mut self.source {
            if flight.is_none() {
                let mut tuples = Vec::new();
                while let Some(t) = pull(input, cx)? {
                    tuples.push(t);
                }
                *flight = Some(issue_flight(cx, batch, source, tuples)?.into_iter());
            }
            let next = flight.as_mut().and_then(Iterator::next);
            return Ok(next.and_then(|(t, resp)| cursor(t, resp, false)));
        }
        let Some(tuple) = pull(input, cx)? else { return Ok(None) };
        match &mut self.source {
            Source::Pushdown(pd) => {
                let key_expr = key_operand(clauses, self.clause, pd.key);
                let key = cx.force(&tuple, key_expr)?.atomized();
                let lex = match &key[..] {
                    [a] => pushdown_key(pd.class, a),
                    _ => None,
                };
                let items = match lex {
                    Some(lex) => {
                        if !pd.fired {
                            pd.fired = true;
                            let opt = cx.ev.engine.opt_counters();
                            OptCounters::bump(&opt.pushdown_rewrites);
                        }
                        (pd.cap.select)(cx.env, &pd.col, &lex)?
                    }
                    // Not exactly one pushable atom: the plain path,
                    // for this tuple only.
                    None => cx.eval(&tuple, source)?,
                };
                Ok(cursor(tuple, items, true))
            }
            Source::Join { steps, key, index } => {
                let entry = match index.clone() {
                    Some(entry) => entry,
                    None => index.insert(join_index(cx, source, steps)?).clone(),
                };
                let Some(idx) = &entry.idx else {
                    // Some row's key is beyond the index: the whole
                    // clause runs plainly.
                    self.source = Source::Plain;
                    let items = cx.eval(&tuple, source)?;
                    return Ok(cursor(tuple, items, true));
                };
                let key_expr = key_operand(clauses, self.clause, *key);
                let k = cx.force(&tuple, key_expr)?.atomized();
                Ok(match &k[..] {
                    // An empty key matches no row under `=` or `eq`.
                    [] => cursor(tuple, Sequence::empty(), false),
                    [a] => {
                        let rows = entry.seq.items();
                        let hits = idx.probe(a).into_iter().map(|i| rows[i].clone());
                        cursor(tuple, hits.collect(), false)
                    }
                    // Several atoms: the plain path, for this tuple only.
                    _ => cursor(tuple, entry.seq.clone(), true),
                })
            }
            _ => {
                let items = cx.eval(&tuple, source)?;
                Ok(cursor(tuple, items, self.owns_where))
            }
        }
    }
}

/// Choose the source operator of a `for` clause without a positional
/// variable.
fn choose_source(
    engine: &Engine,
    var: &QName,
    source: &Expr,
    next: Option<&FlworClause>,
) -> Source {
    if engine.optimize_enabled() {
        if let Some(pd) = detect_pushdown(engine, var, source, next) {
            return Source::Pushdown(pd);
        }
    }
    // The hash join is gated on `join_rewrite_enabled`, NOT on
    // `optimize_enabled`: it predates the pushdown/versioning layer,
    // and the optimizer kill switch must restore exactly that baseline
    // (with the optimizer off its cache entries are epoch-stamped, the
    // baseline's blanket any-write policy). Sequential XQueryP runs
    // and the E11 ablation turn it off with
    // `Engine::set_join_rewrite(false)`.
    if engine.join_rewrite_enabled() {
        if let Some((steps, key)) = detect_join(var, source, next) {
            return Source::Join { steps, key, index: None };
        }
    }
    if engine.optimize_enabled() && engine.batch_enabled() {
        if let Expr::FunctionCall { name, args } = source {
            if args.len() == 1 {
                if let Some(batch) = engine.batchable(name, 1) {
                    return Source::Batch { batch, flight: None };
                }
            }
        }
    }
    Source::Plain
}

/// Issue one `call_many` flight for every input tuple of a batched
/// `for` and pair each tuple with its response. A loop-invariant
/// request (one referencing no variable) is hoisted and issued once.
/// Requests are flushed in tuple order, so the first failing request
/// raises exactly the error sequential evaluation would. Because every
/// request expression is evaluated before any call is issued, a late
/// request expression that raises aborts the flight before the first
/// source call, where sequential evaluation would have issued (and
/// counted, and breaker/injector-accounted) the earlier tuples' calls
/// first. Values and errors are identical either way.
fn issue_flight(
    cx: &mut Cx<'_, '_>,
    batch: &BatchFn,
    source: &Expr,
    tuples: Vec<Tuple>,
) -> XdmResult<Vec<(Tuple, Sequence)>> {
    let Expr::FunctionCall { args, .. } = source else {
        unreachable!("planned from a batchable call")
    };
    if tuples.is_empty() {
        return Ok(Vec::new());
    }
    if tuples.len() > 1 && !expr_refs_any_var(&args[0]) {
        let req = cx.ev.eval(&args[0], cx.env)?;
        let resp = batch(cx.env, &[req])?.into_iter().next();
        let resp = resp.unwrap_or_else(Sequence::empty);
        return Ok(tuples.into_iter().map(|t| (t, resp.clone())).collect());
    }
    let mut requests = Vec::with_capacity(tuples.len());
    for t in &tuples {
        requests.push(cx.force(t, &args[0])?);
    }
    let responses = batch(cx.env, &requests)?;
    Ok(tuples.into_iter().zip(responses).collect())
}

/// The operands of an `eq`/`=` `where` clause, the only shape the
/// pushdown and join rewrites recognize.
fn eq_operands(next: Option<&FlworClause>) -> Option<[&Expr; 2]> {
    match next? {
        FlworClause::Where(Expr::Value(ValueComp::Eq, l, r))
        | FlworClause::Where(Expr::General(GeneralComp::Eq, l, r)) => Some([l, r]),
        _ => None,
    }
}

/// Operand `side` of the `where` clause consumed by the `for` at `i`.
fn key_operand(clauses: &[FlworClause], i: usize, side: usize) -> &Expr {
    match eq_operands(clauses.get(i + 1)) {
        Some(ops) => ops[side],
        None => unreachable!("planned from an equality where clause"),
    }
}

/// Detect the equi-join pattern `for $v in E where P($v) eq K` where
/// `E` references no variable (so its index can be memoized across
/// input tuples), `K` does not reference `$v`, and `P` is a
/// predicate-free child/attribute path on `$v`. Returns the key steps
/// and the side of `K`.
fn detect_join(
    var: &QName,
    source: &Expr,
    next: Option<&FlworClause>,
) -> Option<(Vec<Step>, usize)> {
    let ops = eq_operands(next)?;
    if expr_refs_any_var(source) {
        return None;
    }
    let key_of = |e: &Expr| -> Option<Vec<Step>> {
        let Expr::Path { start: PathStart::Expr(base), steps } = e else { return None };
        let is_key = matches!(&**base, Expr::VarRef(v) if v == var)
            && steps.iter().all(|s| {
                matches!(s.axis, Axis::Child | Axis::Attribute) && s.predicates.is_empty()
            });
        is_key.then(|| steps.clone())
    };
    (0..2).find_map(|side| {
        let steps = key_of(ops[side])?;
        (!expr_refs_var(ops[1 - side], var)).then_some((steps, 1 - side))
    })
}

/// A detected pushdown opportunity.
struct Pushdown {
    cap: SourceCapability,
    col: String,
    class: ColClass,
    /// The key's side of the `where` clause.
    key: usize,
    /// `pushdown_rewrites` has been counted for this operator.
    fired: bool,
}

/// Detect the *pushdown* pattern `for $v in src() where $v/COL (eq|=)
/// K` where `src` is an arity-0 read function with an advertised
/// [`SourceCapability`], `COL` is one of its filterable columns (single
/// child step, no predicates, unqualified name — the shape of
/// relational row XML), and `K` does not reference `$v`.
fn detect_pushdown(
    engine: &Engine,
    var: &QName,
    source: &Expr,
    next: Option<&FlworClause>,
) -> Option<Pushdown> {
    let Expr::FunctionCall { name, args } = source else { return None };
    if !args.is_empty() {
        return None;
    }
    let ops = eq_operands(next)?;
    let cap = engine.source_capability(name)?;
    let col_of = |e: &Expr| -> Option<String> {
        let Expr::Path { start: PathStart::Expr(base), steps } = e else { return None };
        let [st] = &steps[..] else { return None };
        if !matches!(&**base, Expr::VarRef(v) if v == var)
            || st.axis != Axis::Child
            || !st.predicates.is_empty()
        {
            return None;
        }
        let NodeTest::Name(q) = &st.test else { return None };
        q.ns.is_none().then(|| q.local.to_string())
    };
    (0..2).find_map(|side| {
        let col = col_of(ops[side])?;
        if expr_refs_var(ops[1 - side], var) {
            return None;
        }
        let class = cap.columns.iter().find(|(c, _)| *c == col).map(|(_, cl)| *cl)?;
        Some(Pushdown { cap: cap.clone(), col, class, key: 1 - side, fired: false })
    })
}

/// Canonicalize a comparison key for a source column class, or `None`
/// when the key cannot be pushed without risking *false negatives*
/// (the source answers by canonical-lexical hash equality; candidates
/// are re-checked against the `where` clause, so false positives are
/// harmless but missed rows are not):
///
/// - `Integer` columns store canonical `i64` lexicals. Numeric keys
///   compare numerically (push the integral value; non-integral or
///   out-of-range values fall back). Untyped keys compare *stringly*
///   against untyped column values, and only canonical lexicals can
///   ever match — parsing and re-rendering is safe because a
///   non-canonical key matches nothing either way.
/// - `String` columns: string/untyped keys push verbatim; numeric keys
///   would compare numerically against e.g. `"007"` and must fall back.
/// - `Boolean` columns store `true`/`false`. Boolean keys push their
///   canonical lexical; untyped keys are normalized (`1` → `true`),
///   with the re-check discarding the lexical mismatches.
fn pushdown_key(class: ColClass, a: &xdm::atomic::AtomicValue) -> Option<String> {
    use xdm::atomic::{to_f64, AtomicValue};
    match class {
        ColClass::Integer => {
            let d = match a {
                v if v.type_of().is_numeric() => to_f64(v).ok()?,
                AtomicValue::Untyped(s) => s.trim().parse::<f64>().ok()?,
                _ => return None,
            };
            if !d.is_finite() || d.fract() != 0.0 || d.abs() >= 9.007_199_254_740_992e15 {
                return None;
            }
            Some(format!("{}", d as i64))
        }
        ColClass::String => match a {
            AtomicValue::String(s) | AtomicValue::Untyped(s) => Some(s.clone()),
            _ => None,
        },
        ColClass::Boolean => match a {
            AtomicValue::Boolean(b) => Some(b.to_string()),
            AtomicValue::Untyped(s) => match s.trim() {
                "true" | "1" => Some("true".to_string()),
                "false" | "0" => Some("false".to_string()),
                _ => None,
            },
            _ => None,
        },
    }
}

/// Build (or fetch from the `Env`'s join cache) the hash index over a
/// join source keyed by the key path. Cached entries are revalidated
/// against their [`CacheStamp`]; stale entries are discarded and
/// rebuilt.
fn join_index(
    cx: &mut Cx<'_, '_>,
    source: &Expr,
    key_steps: &[Step],
) -> XdmResult<Rc<JoinCacheEntry>> {
    let engine = cx.ev.engine;
    let opt = engine.opt_counters();
    let cache_key = (source as *const Expr as usize, steps_fingerprint(key_steps));
    if let Some(hit) = cx.env.join_cache.get(&cache_key).cloned() {
        if hit.stamp.is_current(cx.env) {
            OptCounters::bump(&opt.join_hits);
            return Ok(hit);
        }
        OptCounters::bump(&opt.join_invalidations);
        cx.env.join_cache.remove(&cache_key);
    }
    OptCounters::bump(&opt.join_misses);
    // Capability-bearing arity-0 read functions get a precise
    // source-version stamp; anything else falls back to the
    // write-epoch stamp. With the optimizer off, *everything* is
    // epoch-stamped — any write then invalidates, which is the
    // baseline's blanket policy.
    let cap = match source {
        Expr::FunctionCall { name, args } if args.is_empty() => {
            engine.optimize_enabled().then(|| engine.source_capability(name)).flatten()
        }
        _ => None,
    };
    let seq = cx.ev.eval(source, cx.env)?;
    let stamp = match cap {
        // Stamp with the version of the snapshot actually served
        // (under stale-read degradation this is older than the live
        // version, so the entry immediately fails revalidation —
        // stale data is never retained).
        Some(c) => CacheStamp::Source {
            version: (c.served_version)(),
            version_fn: c.version.clone(),
        },
        None => CacheStamp::Epoch(cx.env.write_epoch),
    };
    let idx = index_rows(cx, &seq, key_steps)?;
    let entry = Rc::new(JoinCacheEntry { seq, idx, stamp });
    // Cached entries must be fully materialized: `eval` never returns
    // a lazy sequence (the §11 choke-point invariant), so a stream can
    // never be stored — and later replayed with its pull state
    // half-consumed — through this cache.
    debug_assert!(!entry.seq.is_lazy(), "join cache must not hold lazy sequences");
    cx.env.join_cache.insert(cache_key, entry.clone());
    Ok(entry)
}

/// Index `rows` by their key, or `None` when some row is beyond the
/// index: not a node, or with a key of several atoms. A row whose key
/// is empty can match no atom under `=` or `eq` and raises nothing, so
/// it is simply left out.
fn index_rows(
    cx: &mut Cx<'_, '_>,
    rows: &Sequence,
    key_steps: &[Step],
) -> XdmResult<Option<JoinIdx>> {
    let mut idx = JoinIdx::default();
    for (i, item) in rows.iter().enumerate() {
        if !item.is_node() {
            return Ok(None);
        }
        let keyed = cx.ev.eval_steps_from(item.clone(), key_steps, cx.env)?;
        match &keyed.atomized()[..] {
            [] => {}
            [a] => idx.insert(a, i),
            _ => return Ok(None),
        }
    }
    Ok(Some(idx))
}

fn steps_fingerprint(steps: &[Step]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    for s in steps {
        format!("{:?}|{:?}", s.axis, s.test).hash(&mut h);
    }
    h.finish()
}

/// Does the expression reference any variable at all?
fn expr_refs_any_var(e: &Expr) -> bool {
    refs_var(e, &|_| true)
}

/// Does the expression reference the given variable?
fn expr_refs_var(e: &Expr, var: &QName) -> bool {
    refs_var(e, &|v| v == var)
}

fn refs_var(e: &Expr, hit: &impl Fn(&QName) -> bool) -> bool {
    if let Expr::VarRef(v) = e {
        return hit(v);
    }
    let mut found = false;
    e.for_each_child(&mut |c| found = found || refs_var(c, hit));
    found
}
