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
/// Variable bindings live in a stack of frames; XQSE block variables
/// are *assignable* and marked as such, while XQuery `for`/`let`
/// bindings are read-only (the paper, §III.B.5: "Block variables
/// differ from let variables in that they can be assigned").
pub struct Env {
    frames: Vec<Frame>,
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

struct Frame {
    vars: HashMap<QName, Binding>,
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
            frames: vec![Frame { vars: HashMap::new() }],
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
        self.frames.push(Frame { vars: HashMap::new() });
    }

    /// Pop the innermost scope.
    pub fn pop_scope(&mut self) {
        debug_assert!(self.frames.len() > 1, "cannot pop the root scope");
        self.frames.pop();
    }

    /// Bind a read-only variable (for/let/function parameters).
    pub fn bind(&mut self, name: QName, value: Sequence) {
        self.frames
            .last_mut()
            .expect("at least one frame")
            .vars
            .insert(name, Binding { value: Some(value), assignable: false, ty: None });
    }

    /// Declare an XQSE block variable, optionally initialized and
    /// optionally typed (implicitly `item()*` when untyped).
    pub fn declare_block_var(
        &mut self,
        name: QName,
        value: Option<Sequence>,
        ty: Option<SequenceType>,
    ) {
        self.frames
            .last_mut()
            .expect("at least one frame")
            .vars
            .insert(name, Binding { value, assignable: true, ty });
    }

    /// Look up a variable; uninitialized block variables raise
    /// `XQSE0002` ("Any reference to such a variable … is an error
    /// until it has been initially assigned to", §III.B.5).
    pub fn lookup(&self, name: &QName) -> XdmResult<Sequence> {
        for frame in self.frames.iter().rev() {
            if let Some(b) = frame.vars.get(name) {
                return match &b.value {
                    Some(v) => Ok(v.clone()),
                    None => Err(XdmError::new(
                        ErrorCode::XQSE0002,
                        format!("block variable ${name} referenced before assignment"),
                    )),
                };
            }
        }
        Err(XdmError::new(
            ErrorCode::XPST0008,
            format!("undefined variable ${name}"),
        ))
    }

    /// Is the variable bound at all (used by `set` validation)?
    pub fn is_declared(&self, name: &QName) -> bool {
        self.frames.iter().rev().any(|f| f.vars.contains_key(name))
    }

    /// Assign to a block variable (`set $x := …`). Only variables
    /// declared by a block variable declaration may be assigned
    /// (`XQSE0001` otherwise).
    pub fn assign(&mut self, name: &QName, value: Sequence) -> XdmResult<()> {
        for frame in self.frames.iter_mut().rev() {
            if let Some(b) = frame.vars.get_mut(name) {
                if !b.assignable {
                    return Err(XdmError::new(
                        ErrorCode::XQSE0001,
                        format!(
                            "${name} is not a block variable and cannot be assigned"
                        ),
                    ));
                }
                if let Some(ty) = &b.ty {
                    ty.check(&value, &format!("set ${name}"))?;
                }
                b.value = Some(value);
                return Ok(());
            }
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

    /// The number of live frames (used by tests to verify balanced
    /// push/pop even across errors).
    pub fn depth(&self) -> usize {
        self.frames.len()
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
        assert_eq!(env.lookup(&q("x")).unwrap().len(), 1);
        assert!(env.lookup(&q("y")).is_err());
    }

    #[test]
    fn shadowing_and_scope_pop() {
        let mut env = Env::new();
        env.bind(q("x"), Sequence::one(Item::integer(1)));
        env.push_scope();
        env.bind(q("x"), Sequence::one(Item::integer(2)));
        assert_eq!(
            env.lookup(&q("x")).unwrap().items()[0],
            Item::integer(2)
        );
        env.pop_scope();
        assert_eq!(
            env.lookup(&q("x")).unwrap().items()[0],
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
        assert_eq!(env.lookup(&q("x")).unwrap().items()[0], Item::integer(5));
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
        assert_eq!(env.lookup(&q("acc")).unwrap().len(), 1);
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
