//! FLWOR evaluation: one pull pipeline of clause operators.
//!
//! A FLWOR expression is planned into a chain of operators, each
//! pulling binding tuples from the one before it: `for`, `let` and
//! `where`, plus `order by`, a barrier that drains its input, sorts it
//! through [`order_by_sort`], then emits. The source of a `for` is one
//! of five interchangeable operators, chosen when the FLWOR is entered:
//!
//! - **plain** — evaluate the source expression per input tuple;
//! - **pushdown** — `for $v in src() where $v/COL eq K` over a
//!   capability-bearing source becomes one indexed point-select per
//!   input tuple (§II.B "push computation to the sources");
//! - **view unfold** — `for $v in f(args) where P` over a user function
//!   whose body is a FLWOR returning `<E>…</E>` runs `f`'s own pipeline,
//!   tests `P` on a skeleton `<E>` holding only the children `P` reads,
//!   and constructs the full `<E>` only for the rows that pass (§II.A's
//!   layered logical services, filtered before they are built);
//! - **hash-join probe** — `for $v in E where P($v) eq K` with `E`
//!   closed probes a memoized index over `E`;
//! - **batched flight** — a source calling a batchable (web-service)
//!   function drains its input and issues one `call_many` flight for
//!   every tuple: a barrier, like `order by`.
//!
//! The pushdown, view-unfold and join operators consume the `where`
//! clause after them. Whatever the index does not decide is checked
//! against that clause: every pushed-down candidate as it is pulled,
//! and a tuple whose key is beyond the index takes the plain path for
//! that tuple only, so a rewrite only narrows what plain evaluation
//! examines (DESIGN §11 notes the exceptions: join keys that plain
//! comparison rejects as incomparable simply do not match, and a view
//! row the `where` rejects is never constructed).
//!
//! The pipeline is run in one of two ways, both on the caller's
//! `Env`, so the join cache and the web-service memo serve them alike.
//! [`drain`] (what `eval` does) pulls every tuple and evaluates each
//! `return` in full. A [`Cursor`] hands out one result item at a time,
//! inside the call that opened it, to the consumers that can stop
//! early: `fn:exists` and `fn:empty`, `count(…) <op> N`, quantifier
//! bindings, `fn:subsequence` and `[k]` ([`window`]), and the top-level
//! sink entry. A cursor charges a budget step per tuple, keeps the
//! streaming counters, and pulls a `for` source, `where` condition or
//! `return` that is itself a FLWOR through a nested cursor, which binds
//! its enclosing tuple around each pull. Dropping a cursor before its
//! end books an early exit.

use std::ops::Range;
use std::rc::Rc;

use xdm::error::XdmResult;
use xdm::qname::{QName, FN_NS, XS_NS};
use xdm::sequence::{Item, Sequence};
use xdm::types::{Occurrence, SequenceType};
use xqparser::ast::*;

use crate::context::Env;
use crate::engine::{BatchFn, ColClass, Engine, FunctionKind, OptCounters, SourceCapability};
use crate::eval::{
    convert_params, opt_one_atomic, order_by_sort, CacheStamp, Evaluator, JoinCacheEntry, JoinIdx,
};
use crate::functions;

/// A binding tuple: the variables bound by the clauses so far.
type Tuple = Vec<(QName, Sequence)>;

/// Evaluate a FLWOR expression to completion on the caller's `Env`.
pub(crate) fn drain(
    ev: &Evaluator<'_>,
    clauses: &Rc<[FlworClause]>,
    ret: &Expr,
    env: &mut Env,
) -> XdmResult<Sequence> {
    let mut stages = plan(ev.engine, clauses);
    let mut cx = Cx { ev, env, clauses, lazy: false };
    let mut out = Sequence::empty();
    while let Some(t) = pull(&mut stages, &mut cx)? {
        out.extend(cx.force(&t, ret)?);
    }
    Ok(out)
}

/// `e`'s value item by item: pulled through a [`Cursor`] when `e` is a
/// FLWOR and may be pulled lazily, evaluated otherwise.
pub(crate) fn items(ev: &Evaluator<'_>, e: &Expr, env: &mut Env) -> XdmResult<Items> {
    Ok(match Cursor::open(ev, e, env, &[])? {
        Some(c) => Items::Flwor(Box::new(c)),
        None => ev.eval(e, env)?.into(),
    })
}

/// The items at 0-based positions `win` of `e`'s value: what
/// `fn:subsequence` and `[k]` make of their operand. A FLWOR is pulled
/// no further than the window's end, and a tuple before its start whose
/// `return` is an element constructor (exactly one item per tuple, or
/// an error) is passed over without evaluating that `return`; any
/// other operand is evaluated and sliced.
pub(crate) fn window(
    ev: &Evaluator<'_>,
    e: &Expr,
    env: &mut Env,
    win: Range<usize>,
) -> XdmResult<Sequence> {
    let Some(mut cursor) = Cursor::open(ev, e, env, &[])? else {
        return Ok(functions::slice(ev.eval(e, env)?, win));
    };
    let mut out = Vec::new();
    for pos in 0..win.end {
        match cursor.step(ev, env, pos >= win.start)? {
            Pulled::Item(item) if pos >= win.start => out.push(item),
            Pulled::End => break,
            _ => {}
        }
    }
    Ok(Sequence::from_items(out))
}

/// A value handed out one item at a time.
pub(crate) enum Items {
    /// An evaluated value and the index of its next item.
    Seq(Sequence, usize),
    /// A FLWOR pulled through its cursor.
    Flwor(Box<Cursor>),
}

impl From<Sequence> for Items {
    fn from(v: Sequence) -> Items {
        Items::Seq(v, 0)
    }
}

impl Items {
    /// The next item, `None` at the end.
    pub(crate) fn next(&mut self, ev: &Evaluator<'_>, env: &mut Env) -> XdmResult<Option<Item>> {
        match self {
            Items::Seq(v, i) => {
                let item = v.items().get(*i).cloned();
                *i += 1;
                Ok(item)
            }
            Items::Flwor(c) => match c.step(ev, env, true)? {
                Pulled::Item(item) => Ok(Some(item)),
                _ => Ok(None),
            },
        }
    }

    /// The effective boolean value. A cursor pulls at most two items: a
    /// node first decides alone.
    fn truth(mut self, ev: &Evaluator<'_>, env: &mut Env) -> XdmResult<bool> {
        if let Items::Seq(v, _) = &self {
            return v.effective_boolean();
        }
        let mut head = Vec::with_capacity(2);
        while head.len() < 2 && !matches!(head.first(), Some(Item::Node(_))) {
            match self.next(ev, env)? {
                Some(item) => head.push(item),
                None => break,
            }
        }
        Sequence::from_items(head).effective_boolean()
    }

    /// Items known to remain. A cursor's remainder is not guessed at.
    fn left(&self) -> usize {
        match self {
            Items::Seq(v, i) => v.len().saturating_sub(*i),
            Items::Flwor(_) => 0,
        }
    }
}

/// A FLWOR's pipeline, pulled one result item at a time on the caller's
/// `Env`. It shares its clauses and `return` with the AST, so it can
/// outlive the borrow it was opened from without copying them.
pub(crate) struct Cursor {
    clauses: Rc<[FlworClause]>,
    ret: Rc<Expr>,
    /// A nested cursor's enclosing tuple, bound around every pull.
    outer: Tuple,
    stages: Vec<Stage>,
    /// The current tuple's `return` items.
    pending: Option<Items>,
    /// The consumer has seen the end or an error: a cursor run to its
    /// end is not an early exit.
    done: bool,
    opt: Rc<OptCounters>,
}

/// What one step of a [`Cursor`] found.
enum Pulled {
    Item(Item),
    /// A tuple whose element `return` was not evaluated.
    Passed,
    End,
}

impl Cursor {
    /// A cursor over `e` when it is a FLWOR and may be pulled lazily:
    /// the `lazy` feature is on and no pending-update list is open.
    /// Opening charges `eval`'s step for the FLWOR node; each pulled
    /// tuple charges its own.
    fn open(
        ev: &Evaluator<'_>,
        e: &Expr,
        env: &Env,
        outer: &[(QName, Sequence)],
    ) -> XdmResult<Option<Cursor>> {
        let Expr::Flwor { clauses, ret } = e else { return Ok(None) };
        if !ev.engine.features().lazy || env.pul.is_some() {
            return Ok(None);
        }
        ev.engine.budget_step()?;
        Ok(Some(Cursor {
            clauses: clauses.clone(),
            ret: ret.clone(),
            outer: outer.to_vec(),
            stages: plan(ev.engine, clauses),
            pending: None,
            done: false,
            opt: ev.engine.opt_counters(),
        }))
    }

    /// Advance by one result item. With `build` false, a tuple whose
    /// `return` is an element constructor is passed over unevaluated.
    fn step(&mut self, ev: &Evaluator<'_>, env: &mut Env, build: bool) -> XdmResult<Pulled> {
        if self.done {
            return Ok(Pulled::End);
        }
        let Cursor { clauses, ret, outer, stages, pending, .. } = self;
        let skip = !build && matches!(**ret, Expr::DirectElement(_) | Expr::ComputedElement(..));
        let r = scoped(env, outer, |env| {
            let mut cx = Cx { ev, env, clauses, lazy: true };
            loop {
                if let Some(items) = pending {
                    if let Some(item) = items.next(ev, cx.env)? {
                        return Ok(Pulled::Item(item));
                    }
                    *pending = None;
                }
                let Some(t) = pull(stages, &mut cx)? else { return Ok(Pulled::End) };
                count_pull(ev.engine)?;
                if skip {
                    return Ok(Pulled::Passed);
                }
                *pending = Some(cx.items(&t, ret)?);
            }
        });
        self.done = !matches!(r, Ok(Pulled::Item(_) | Pulled::Passed));
        r
    }
}

impl Drop for Cursor {
    /// Book a pipeline abandoned before its end: one early exit, and
    /// what it verifiably skipped, items known to exist that were never
    /// consumed (a lower bound: a nested cursor's remainder is not
    /// guessed at).
    fn drop(&mut self) {
        if self.done {
            return;
        }
        OptCounters::bump(&self.opt.early_exits);
        let unbuilt: usize = self.stages.iter().map(Stage::unbuilt).sum();
        let skipped = unbuilt + self.pending.as_ref().map_or(0, Items::left);
        OptCounters::add(&self.opt.items_never_built, skipped as u64);
    }
}

/// Charge one fuel/deadline step for a pulled tuple and count it, so
/// early-exit consumers are charged for exactly the work they caused.
fn count_pull(engine: &Engine) -> XdmResult<()> {
    engine.budget_step()?;
    OptCounters::bump(&engine.opt_counters().tuples_pulled);
    Ok(())
}

/// Run `f` with `tuple` bound in a scope of its own.
fn scoped<R>(env: &mut Env, tuple: &[(QName, Sequence)], f: impl FnOnce(&mut Env) -> R) -> R {
    env.push_scope();
    for (n, v) in tuple {
        env.bind(n.clone(), v.clone());
    }
    let out = f(env);
    env.pop_scope();
    out
}

/// What the operators evaluate with.
struct Cx<'a, 'e> {
    ev: &'a Evaluator<'e>,
    env: &'a mut Env,
    clauses: &'a Rc<[FlworClause]>,
    /// Under a cursor: a `for` source, `where` condition or `return`
    /// that is a FLWOR is pulled through a nested cursor.
    lazy: bool,
}

impl Cx<'_, '_> {
    /// Evaluate `e` with `tuple` bound, to a materialized value.
    fn force(&mut self, tuple: &Tuple, e: &Expr) -> XdmResult<Sequence> {
        let ev = self.ev;
        scoped(self.env, tuple, |env| ev.eval(e, env))
    }

    /// `e`'s value with `tuple` bound, item by item.
    fn items(&mut self, tuple: &Tuple, e: &Expr) -> XdmResult<Items> {
        if self.lazy {
            if let Some(c) = Cursor::open(self.ev, e, self.env, tuple)? {
                return Ok(Items::Flwor(Box::new(c)));
            }
        }
        Ok(self.force(tuple, e)?.into())
    }

    /// Does `tuple` pass the `where` clause at `i`?
    fn passes(&mut self, tuple: &Tuple, i: usize) -> XdmResult<bool> {
        let clauses = self.clauses;
        let FlworClause::Where(cond) = &clauses[i] else {
            unreachable!("planned from a where clause")
        };
        self.items(tuple, cond)?.truth(self.ev, self.env)
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
            Stage::For(ForOp { expansion: Some(x), .. }) => x.items.left(),
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
                let owns_where = matches!(
                    source,
                    Source::Pushdown(_) | Source::Unfold(_) | Source::Join { .. }
                );
                let op = ForOp { clause: i, source, owns_where, expansion: None };
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
    expansion: Option<Expansion>,
}

/// An input tuple and the items it is being expanded with.
struct Expansion {
    tuple: Tuple,
    items: Items,
    /// How many items have been bound: the positional variable.
    bound: usize,
    /// Each binding must still pass the consumed `where` clause.
    check: bool,
}

/// The interchangeable sources of a `for` clause.
enum Source {
    /// Evaluate the source expression for each input tuple.
    Plain,
    /// One indexed point-select per input tuple.
    Pushdown(Pushdown),
    /// The view function's own pipeline, constructing only the rows
    /// that pass the consumed `where`.
    Unfold(Box<Unfold>),
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
        if let Source::Unfold(view) = &mut self.source {
            return view.next(self.clause, input, cx);
        }
        let clauses = cx.clauses;
        let FlworClause::For { var, pos, .. } = &clauses[self.clause] else {
            unreachable!("planned from a for clause")
        };
        loop {
            if let Some(x) = &mut self.expansion {
                while let Some(item) = x.items.next(cx.ev, cx.env)? {
                    x.bound += 1;
                    let mut t = x.tuple.clone();
                    t.push((var.clone(), Sequence::one(item)));
                    if let Some(p) = pos {
                        t.push((p.clone(), Sequence::one(Item::integer(x.bound as i64))));
                    }
                    if !x.check || cx.passes(&t, self.clause + 1)? {
                        return Ok(Some(t));
                    }
                }
            }
            self.expansion = self.open(input, cx)?;
            if self.expansion.is_none() {
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
    ) -> XdmResult<Option<Expansion>> {
        let clauses = cx.clauses;
        let FlworClause::For { source, .. } = &clauses[self.clause] else {
            unreachable!("planned from a for clause")
        };
        let expand = |tuple, items, check| Some(Expansion { tuple, items, bound: 0, check });
        if let Source::Batch { batch, flight } = &mut self.source {
            if flight.is_none() {
                let mut tuples = Vec::new();
                while let Some(t) = pull(input, cx)? {
                    tuples.push(t);
                }
                *flight = Some(issue_flight(cx, batch, source, tuples)?.into_iter());
            }
            let next = flight.as_mut().and_then(Iterator::next);
            return Ok(next.and_then(|(t, resp)| expand(t, resp.into(), false)));
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
                        (pd.cap.select)(cx.env, &pd.col, &lex)?.into()
                    }
                    // Not exactly one pushable atom: the plain path,
                    // for this tuple only.
                    None => cx.items(&tuple, source)?,
                };
                Ok(expand(tuple, items, true))
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
                    let items = cx.items(&tuple, source)?;
                    return Ok(expand(tuple, items, true));
                };
                let key_expr = key_operand(clauses, self.clause, *key);
                let k = cx.force(&tuple, key_expr)?.atomized();
                Ok(match &k[..] {
                    // An empty key matches no row under `=` or `eq`.
                    [] => expand(tuple, Sequence::empty().into(), false),
                    [a] => {
                        let rows = entry.seq.items();
                        let hits = idx.probe(a).into_iter().map(|i| rows[i].clone());
                        expand(tuple, hits.collect::<Sequence>().into(), false)
                    }
                    // Several atoms: the plain path, for this tuple only.
                    _ => expand(tuple, entry.seq.clone().into(), true),
                })
            }
            _ => {
                let items = cx.items(&tuple, source)?;
                Ok(expand(tuple, items, self.owns_where))
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
    let features = engine.features();
    if features.opt {
        if let Some(pd) = detect_pushdown(engine, var, source, next) {
            return Source::Pushdown(pd);
        }
        if let Some(view) = detect_unfold(engine, var, source, next) {
            return Source::Unfold(Box::new(view));
        }
    }
    // The hash join has its own feature, not `opt`: it predates the
    // pushdown/versioning layer, so `-opt` keeps it (with `opt` off its
    // cache entries are epoch-stamped, the baseline's blanket
    // any-write policy). Sequential XQueryP runs and the E11 ablation
    // turn it off.
    if features.join {
        if let Some((steps, key)) = detect_join(var, source, next) {
            return Source::Join { steps, key, index: None };
        }
    }
    if features.batching() {
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
    (0..2).find_map(|side| {
        let col = child_step(ops[side], var).filter(|q| q.ns.is_none())?.local.to_string();
        if expr_refs_var(ops[1 - side], var) {
            return None;
        }
        let class = cap.columns.iter().find(|(c, _)| *c == col).map(|(_, cl)| *cl)?;
        Some(Pushdown { cap: cap.clone(), col, class, key: 1 - side, fired: false })
    })
}

/// The name `N` when `e` is `$var/N`: one predicate-free child step
/// with a name test.
fn child_step<'e>(e: &'e Expr, var: &QName) -> Option<&'e QName> {
    let Expr::Path { start: PathStart::Expr(base), steps } = e else { return None };
    let [st] = &steps[..] else { return None };
    if !matches!(&**base, Expr::VarRef(v) if v == var)
        || st.axis != Axis::Child
        || !st.predicates.is_empty()
    {
        return None;
    }
    match &st.test {
        NodeTest::Name(q) => Some(q),
        _ => None,
    }
}

/// A view function unfolded into the `for` clause that reads it.
struct Unfold {
    decl: Rc<FunctionDecl>,
    /// The view's `<E>` with only the children the `where` reads.
    skeleton: Expr,
    /// The view's pipeline for the current input tuple.
    run: Option<ViewRun>,
    /// `view_unfolds` has been counted for this operator.
    fired: bool,
}

/// One call of an unfolded view.
struct ViewRun {
    /// The caller's tuple.
    tuple: Tuple,
    /// The parameters, bound to the converted arguments.
    params: Tuple,
    stages: Vec<Stage>,
}

impl Unfold {
    fn next(
        &mut self,
        clause: usize,
        input: &mut [Stage],
        cx: &mut Cx<'_, '_>,
    ) -> XdmResult<Option<Tuple>> {
        let clauses = cx.clauses;
        let FlworClause::For { var, source, .. } = &clauses[clause] else {
            unreachable!("planned from a for clause")
        };
        let decl = self.decl.clone();
        let Some(Expr::Flwor { clauses: body, ret }) = &decl.body else {
            unreachable!("planned from a FLWOR view")
        };
        loop {
            if let Some(ViewRun { tuple, params, stages }) = &mut self.run {
                let skeleton = &self.skeleton;
                while let Some((row, skel)) = in_view(cx, body, tuple, params, |vx| {
                    let Some(row) = pull(stages, vx)? else { return Ok(None) };
                    let skel = vx.force(&row, skeleton)?;
                    Ok(Some((row, skel)))
                })? {
                    let mut t = tuple.clone();
                    t.push((var.clone(), skel));
                    if !cx.passes(&t, clause + 1)? {
                        continue;
                    }
                    let full = in_view(cx, body, tuple, params, |vx| vx.force(&row, ret))?;
                    if let Some(ty) = &decl.return_type {
                        ty.check(&full, &format!("result of {}", decl.name))?;
                    }
                    t.pop();
                    t.push((var.clone(), full));
                    return Ok(Some(t));
                }
                self.run = None;
            }
            let Some(tuple) = pull(input, cx)? else { return Ok(None) };
            let params = call_params(cx, &decl, source, &tuple)?;
            if !self.fired {
                self.fired = true;
                OptCounters::bump(&cx.ev.engine.opt_counters().view_unfolds);
            }
            let stages = plan(cx.ev.engine, body);
            self.run = Some(ViewRun { tuple, params, stages });
        }
    }
}

/// Evaluate a view call's arguments with `tuple` bound and convert them
/// to its parameter types, in `call_user_function`'s order: every
/// argument first, then every conversion.
fn call_params(
    cx: &mut Cx<'_, '_>,
    decl: &FunctionDecl,
    source: &Expr,
    tuple: &Tuple,
) -> XdmResult<Tuple> {
    let Expr::FunctionCall { args, .. } = source else {
        unreachable!("planned from a function call")
    };
    // The call's own evaluation step, and its body's.
    cx.ev.engine.budget_step()?;
    let mut values = Vec::with_capacity(args.len());
    for a in args {
        values.push(cx.force(tuple, a)?);
    }
    cx.ev.engine.budget_step()?;
    convert_params(decl, values)
}

/// Run `f` over the view's `body` in the scope `call_user_function`
/// gives it: the caller's tuple, then the parameters, bound, and no
/// focus.
fn in_view<R>(
    cx: &mut Cx<'_, '_>,
    body: &Rc<[FlworClause]>,
    tuple: &Tuple,
    params: &Tuple,
    f: impl FnOnce(&mut Cx<'_, '_>) -> XdmResult<R>,
) -> XdmResult<R> {
    cx.env.push_scope();
    for (n, v) in tuple.iter().chain(params) {
        cx.env.bind(n.clone(), v.clone());
    }
    let focus = cx.env.focus.take();
    let out = f(&mut Cx { ev: cx.ev, env: &mut *cx.env, clauses: body, lazy: false });
    cx.env.focus = focus;
    cx.env.pop_scope();
    out
}

/// Detect the *view unfold* pattern `for $v in f(args) where P`, where
/// `f` is a user function whose body is a FLWOR returning a direct
/// constructor `<E>…</E>` and whose declared result, if any, has
/// occurrence `*`. The skeleton `<E>` answers `P` exactly as the full
/// one does when:
///
/// - every use of `$v` in `P` is `$v/N`, one predicate-free child step,
///   directly an operand of a value or general comparison, which
///   atomizes it, so node identity and parents cannot leak;
/// - `P` calls builtin functions only: a user function sees its
///   caller's variables, so one called from `P` could read `$v`;
/// - each such `N` names exactly one direct-constructor child of `<E>`,
///   and no enclosed expression in `<E>`'s content can yield an
///   element named `N` (see [`may_yield`]);
/// - those children call builtin functions only, so building them
///   again for the full `<E>` gives the value `P` was tested on.
fn detect_unfold(
    engine: &Engine,
    var: &QName,
    source: &Expr,
    next: Option<&FlworClause>,
) -> Option<Unfold> {
    let Expr::FunctionCall { name, args } = source else { return None };
    let Some(FlworClause::Where(cond)) = next else { return None };
    // Builtins are dispatched before user functions.
    if matches!(name.ns.as_deref(), Some(FN_NS | XS_NS)) {
        return None;
    }
    let Some(FunctionKind::User(decl)) = engine.function(name, args.len()) else {
        return None;
    };
    if decl.updating
        || !matches!(decl.return_type, None | Some(SequenceType::Of(_, Occurrence::ZeroOrMore)))
    {
        return None;
    }
    let Some(Expr::Flwor { ret, .. }) = &decl.body else { return None };
    let Expr::DirectElement(elem) = &**ret else { return None };
    let mut names = Vec::new();
    if !compared_children(cond, var, &mut names) || !calls_only_builtins(cond) {
        return None;
    }
    if elem.content.iter().any(|c| matches!(c, DirectContent::Expr(e) if may_yield(e, &names))) {
        return None;
    }
    // The skeleton holds, for each name, its one direct-constructor child.
    let mut content = Vec::with_capacity(names.len());
    for n in &names {
        let mut children = elem
            .content
            .iter()
            .filter(|c| matches!(c, DirectContent::Element(child) if child.name == *n));
        match (children.next(), children.next()) {
            (Some(child), None) => content.push(child.clone()),
            _ => return None,
        }
    }
    let skeleton = Expr::DirectElement(Box::new(DirectElement {
        name: elem.name.clone(),
        attributes: Vec::new(),
        ns_decls: elem.ns_decls.clone(),
        content,
    }));
    // The compared children are built twice for a row that passes, in
    // the skeleton and in the full `<E>`: both must have one value.
    if !calls_only_builtins(&skeleton) {
        return None;
    }
    Some(Unfold { decl, skeleton, run: None, fired: false })
}

/// Collect into `names` the children `$var/N` that `e` compares, or
/// return false when `e` uses `$var` in any other way.
fn compared_children(e: &Expr, var: &QName, names: &mut Vec<QName>) -> bool {
    match e {
        Expr::Value(_, l, r) | Expr::General(_, l, r) => [l, r].into_iter().all(|o| {
            match child_step(o, var) {
                Some(q) => {
                    if !names.contains(q) {
                        names.push(q.clone());
                    }
                    true
                }
                None => compared_children(o, var, names),
            }
        }),
        Expr::VarRef(v) => v != var,
        _ => {
            let mut ok = true;
            e.for_each_child(&mut |c| ok = ok && compared_children(c, var, names));
            ok
        }
    }
}

/// Does `e` call builtin functions only? Then evaluating it twice with
/// the same bindings gives the same value: only a source or procedure
/// call could answer differently the second time.
fn calls_only_builtins(e: &Expr) -> bool {
    if let Expr::FunctionCall { name, .. } = e {
        if !matches!(name.ns.as_deref(), Some(FN_NS | XS_NS)) {
            return false;
        }
    }
    let mut ok = true;
    e.for_each_child(&mut |c| ok = ok && calls_only_builtins(c));
    ok
}

/// Might the enclosed expression `e` yield an element named one of
/// `names`? Conservative: literals, atomizing builtin calls, direct
/// constructors of other names, and FLWOR or `if` expressions whose
/// every return is one of those cannot; anything else might.
fn may_yield(e: &Expr, names: &[QName]) -> bool {
    match e {
        Expr::Literal(_) => false,
        Expr::DirectElement(d) => names.contains(&d.name),
        Expr::Flwor { ret, .. } => may_yield(ret, names),
        Expr::If(_, then, els) => may_yield(then, names) || may_yield(els, names),
        Expr::FunctionCall { name, args } => {
            name.ns.as_deref() != Some(FN_NS)
                || !matches!(
                    (&*name.local, args.len()),
                    ("data" | "string" | "count" | "number", 1) | ("string-join", 2)
                )
        }
        _ => true,
    }
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
    // The key is the source expression's address. The entry holds the
    // clause list that expression lives in, so no other program's AST
    // can take the address while the entry is cached.
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
            engine.features().opt.then(|| engine.source_capability(name)).flatten()
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
    let entry = Rc::new(JoinCacheEntry { seq, idx, stamp, clauses: cx.clauses.clone() });
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
