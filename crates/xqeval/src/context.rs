//! The dynamic context: variable scopes, focus, pending updates, trace.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};
use xdm::types::SequenceType;

use crate::update::Pul;

/// The focus: context item, position, and size (`.`, `fn:position()`,
/// `fn:last()`).
#[derive(Debug, Clone)]
pub struct Focus {
    /// The context item.
    pub item: Item,
    /// 1-based position.
    pub position: usize,
    /// The size of the focus sequence.
    pub size: usize,
}

/// The dynamic evaluation context.
///
/// Variable bindings live in one flat stack, innermost last, cut into
/// scopes by start marks: a lookup scans from the top, so an inner
/// binding shadows an outer one, and popping a scope truncates the
/// stack to its mark. A user function's call opens a *frame*, a scope
/// that lookups and assignments do not cross: its body sees its
/// parameters and the prolog's variables, never its caller's (XQuery
/// 1.0 §4.15). XQSE block variables are *assignable* and marked
/// as such, while XQuery `for`/`let` bindings are read-only (the
/// paper, §III.B.5: "Block variables differ from let variables in that
/// they can be assigned").
pub struct Env {
    vars: Vec<(QName, Binding)>,
    /// Where each pushed scope starts in `vars`; the root scope starts
    /// at 0 and has no mark.
    scopes: Vec<usize>,
    /// Where the innermost call frame starts in `vars`: no binding
    /// below it is visible.
    frame: usize,
    /// The current focus, if any.
    pub focus: Option<Focus>,
    /// Open pending-update list: present only inside an XQSE update
    /// statement (or an ALDSP-managed update operation). Updating
    /// expressions fail with `XUST0001` when this is `None`.
    pub pul: Option<Pul>,
    /// The `fn:trace` sink, shared so callers can inspect it.
    pub trace: Rc<RefCell<Vec<String>>>,
    /// Memoized hash-join indexes, keyed by (source-expression
    /// address, key-path fingerprint); each entry holds the clause list
    /// the address points into, so the address cannot be reused while
    /// the entry lives. Entries are *version-stamped*
    /// (see [`crate::eval::CacheStamp`]): an entry over a
    /// capability-bearing source revalidates against the source's
    /// table version, and an entry over an opaque source against
    /// [`Env::write_epoch`] — so statements that did not write the
    /// underlying source keep their indexes across statement
    /// boundaries.
    pub join_cache: HashMap<(usize, u64), Rc<crate::eval::JoinCacheEntry>>,
    /// Per-evaluation web-service memo: responses keyed by
    /// `service\u{2}operation\u{1}request…` fingerprint. Identical
    /// requests inside one evaluation (a FLWOR or an `iterate` body)
    /// hit this memo instead of the resilience/breaker path. Cleared
    /// whenever a statement may have produced side effects (same
    /// policy as the epoch-stamped join cache).
    pub ws_memo: HashMap<String, Sequence>,
    /// Bumped by the XQSE engine whenever a statement *may* have
    /// produced side effects whose extent it cannot attribute to a
    /// specific source (procedure calls, web-service submissions).
    /// Epoch-stamped join-cache entries from earlier statements then
    /// fail revalidation.
    pub write_epoch: u64,
}

#[derive(Debug)]
struct Binding {
    value: Option<Sequence>,
    assignable: bool,
    /// Declared type of a block variable; assignments are checked
    /// against it (paper §III.B.6).
    ty: Option<SequenceType>,
}

impl Default for Env {
    fn default() -> Self {
        Env::new()
    }
}

impl Env {
    /// An empty context.
    pub fn new() -> Env {
        Env {
            vars: Vec::new(),
            scopes: Vec::new(),
            frame: 0,
            focus: None,
            pul: None,
            trace: Rc::new(RefCell::new(Vec::new())),
            join_cache: HashMap::new(),
            ws_memo: HashMap::new(),
            write_epoch: 0,
        }
    }

    /// Drop every memoized join index *and* advance the write epoch —
    /// the heavy hammer for statements whose effects the engine cannot
    /// attribute (node-level updates may have mutated trees the cached
    /// indexes share).
    pub fn invalidate_caches(&mut self) {
        self.join_cache.clear();
        self.ws_memo.clear();
        self.write_epoch += 1;
    }

    /// Record that a statement may have written *some* source without
    /// mutating already-materialized trees (external procedure calls).
    /// Epoch-stamped cache entries stop revalidating; version-stamped
    /// entries over sources the statement did not touch survive — this
    /// is the precise cross-statement retention of ISSUE 2. The WS
    /// memo is cleared too: a procedure may have changed what a
    /// service would answer.
    pub fn note_write(&mut self) {
        self.ws_memo.clear();
        self.write_epoch += 1;
    }

    /// Push a scope: a FLWOR tuple's, a function call's, or an XQSE
    /// block's. Assignability belongs to each binding, not the frame.
    pub fn push_scope(&mut self) {
        self.scopes.push(self.vars.len());
    }

    /// Open a function call's frame: a scope whose bindings are the
    /// only ones visible until [`Env::pop_frame`] closes it with the
    /// returned mark.
    pub fn push_frame(&mut self) -> usize {
        self.push_scope();
        std::mem::replace(&mut self.frame, self.vars.len())
    }

    /// Close the frame [`Env::push_frame`] opened, dropping its
    /// bindings.
    pub fn pop_frame(&mut self, outer: usize) {
        self.pop_scope();
        self.frame = outer;
    }

    /// Pop the innermost scope, dropping its bindings.
    pub fn pop_scope(&mut self) {
        debug_assert!(!self.scopes.is_empty(), "cannot pop the root scope");
        if let Some(start) = self.scopes.pop() {
            self.vars.truncate(start);
        }
    }

    /// Add a binding to the innermost scope, replacing one of the same
    /// name already in that scope.
    fn insert(&mut self, name: QName, binding: Binding) {
        let start = self.scopes.last().copied().unwrap_or(0);
        match self.vars[start..].iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = binding,
            None => self.vars.push((name, binding)),
        }
    }

    /// Bind a read-only variable (for/let/function parameters).
    pub fn bind(&mut self, name: QName, value: Sequence) {
        self.insert(name, Binding { value: Some(value), assignable: false, ty: None });
    }

    /// Declare an XQSE block variable, optionally initialized and
    /// optionally typed (implicitly `item()*` when untyped).
    pub fn declare_block_var(
        &mut self,
        name: QName,
        value: Option<Sequence>,
        ty: Option<SequenceType>,
    ) {
        self.insert(name, Binding { value, assignable: true, ty });
    }

    /// Look up a variable: `Ok(None)` when no scope binds it (the
    /// caller tries the prolog's globals before raising `XPST0008`, so
    /// an unbound name builds no error). An uninitialized block
    /// variable raises `XQSE0002` ("Any reference to such a variable …
    /// is an error until it has been initially assigned to", §III.B.5).
    pub fn lookup(&self, name: &QName) -> XdmResult<Option<Sequence>> {
        match self.vars[self.frame..].iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, b)) => match &b.value {
                Some(v) => Ok(Some(v.clone())),
                None => Err(XdmError::new(
                    ErrorCode::XQSE0002,
                    format!("block variable ${name} referenced before assignment"),
                )),
            },
        }
    }

    /// Assign to a block variable (`set $x := …`). Only variables
    /// declared by a block variable declaration may be assigned
    /// (`XQSE0001` otherwise).
    pub fn assign(&mut self, name: &QName, value: Sequence) -> XdmResult<()> {
        if let Some((_, b)) = self.vars[self.frame..].iter_mut().rev().find(|(n, _)| n == name) {
            if !b.assignable {
                return Err(XdmError::new(
                    ErrorCode::XQSE0001,
                    format!("${name} is not a block variable and cannot be assigned"),
                ));
            }
            if let Some(ty) = &b.ty {
                ty.check(&value, || format!("set ${name}"))?;
            }
            b.value = Some(value);
            return Ok(());
        }
        Err(XdmError::new(
            ErrorCode::XQSE0001,
            format!("assignment to undeclared variable ${name}"),
        ))
    }

    /// Emit a trace message (fn:trace and the XQSE engine's own
    /// diagnostics).
    pub fn emit_trace(&self, msg: impl Into<String>) {
        self.trace.borrow_mut().push(msg.into());
    }

    /// Snapshot of the trace buffer.
    pub fn trace_messages(&self) -> Vec<String> {
        self.trace.borrow().clone()
    }

    /// Run `f` with a fresh focus, restoring the previous one after.
    pub fn with_focus<R>(
        &mut self,
        focus: Focus,
        f: impl FnOnce(&mut Env) -> XdmResult<R>,
    ) -> XdmResult<R> {
        let saved = self.focus.take();
        self.focus = Some(focus);
        let out = f(self);
        self.focus = saved;
        out
    }

    /// The number of live scopes, the root scope included (used by
    /// tests to verify balanced push/pop even across errors).
    pub fn depth(&self) -> usize {
        self.scopes.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: &str) -> QName {
        QName::new(n)
    }

    #[test]
    fn bind_and_lookup() {
        let mut env = Env::new();
        env.bind(q("x"), Sequence::one(Item::integer(1)));
        assert_eq!(env.lookup(&q("x")).unwrap().unwrap().len(), 1);
        assert!(matches!(env.lookup(&q("y")), Ok(None)), "unbound, and no error built");
    }

    #[test]
    fn shadowing_and_scope_pop() {
        let mut env = Env::new();
        env.bind(q("x"), Sequence::one(Item::integer(1)));
        env.push_scope();
        env.bind(q("x"), Sequence::one(Item::integer(2)));
        assert_eq!(
            env.lookup(&q("x")).unwrap().unwrap().items()[0],
            Item::integer(2)
        );
        env.pop_scope();
        assert_eq!(
            env.lookup(&q("x")).unwrap().unwrap().items()[0],
            Item::integer(1)
        );
    }

    #[test]
    fn let_variables_are_not_assignable() {
        let mut env = Env::new();
        env.bind(q("x"), Sequence::one(Item::integer(1)));
        let err = env.assign(&q("x"), Sequence::empty()).unwrap_err();
        assert!(err.is(ErrorCode::XQSE0001));
    }

    #[test]
    fn block_variables_are_assignable() {
        let mut env = Env::new();
        env.push_scope();
        env.declare_block_var(q("x"), None, None);
        // Reference before assignment is XQSE0002.
        let err = env.lookup(&q("x")).unwrap_err();
        assert!(err.is(ErrorCode::XQSE0002));
        env.assign(&q("x"), Sequence::one(Item::integer(5))).unwrap();
        assert_eq!(env.lookup(&q("x")).unwrap().unwrap().items()[0], Item::integer(5));
    }

    #[test]
    fn assignment_to_undeclared_fails() {
        let mut env = Env::new();
        let err = env.assign(&q("nope"), Sequence::empty()).unwrap_err();
        assert!(err.is(ErrorCode::XQSE0001));
    }

    #[test]
    fn assignment_crosses_expression_scopes() {
        // A `set` inside a while body assigns the block variable of
        // the enclosing block.
        let mut env = Env::new();
        env.push_scope();
        env.declare_block_var(q("acc"), Some(Sequence::empty()), None);
        env.push_scope(); // e.g. loop-internal expression scope
        env.assign(&q("acc"), Sequence::one(Item::integer(1))).unwrap();
        env.pop_scope();
        assert_eq!(env.lookup(&q("acc")).unwrap().unwrap().len(), 1);
    }

    #[test]
    fn a_call_frame_hides_the_callers_bindings() {
        let mut env = Env::new();
        env.push_scope();
        env.declare_block_var(q("b"), Some(Sequence::one(Item::integer(7))), None);
        let outer = env.push_frame();
        assert!(matches!(env.lookup(&q("b")), Ok(None)));
        assert!(env.assign(&q("b"), Sequence::empty()).is_err());
        env.bind(q("p"), Sequence::one(Item::integer(1)));
        assert_eq!(env.lookup(&q("p")).unwrap().unwrap().len(), 1);
        env.pop_frame(outer);
        assert!(matches!(env.lookup(&q("p")), Ok(None)));
        assert_eq!(env.lookup(&q("b")).unwrap().unwrap().items()[0], Item::integer(7));
    }

    #[test]
    fn focus_restoration() {
        let mut env = Env::new();
        assert!(env.focus.is_none());
        env.with_focus(
            Focus { item: Item::integer(1), position: 1, size: 1 },
            |env| {
                assert!(env.focus.is_some());
                Ok(())
            },
        )
        .unwrap();
        assert!(env.focus.is_none());
    }

    #[test]
    fn trace_collects() {
        let env = Env::new();
        env.emit_trace("one");
        env.emit_trace("two");
        assert_eq!(env.trace_messages(), vec!["one", "two"]);
    }
}
