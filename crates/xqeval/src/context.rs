//! The dynamic context: variable slots in call frames, focus, pending
//! updates, trace.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use xdm::atomic::AtomicValue;
use xdm::error::XdmResult;
use xdm::sequence::{Item, Sequence};
use xqparser::ast::LiteralSlot;

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
/// Variables live in one vector of slots, cut into *frames*: a
/// function, procedure, global initializer or query body owns the
/// slots of every variable declared in it, whose indexes the resolver
/// ([`crate::resolve`]) gave them when the module was loaded or
/// prepared. A call pushes its callee's frame onto the vector and pops
/// it afterwards, so a body sees its own slots and never its caller's
/// (XQuery 1.0 §4.15). Nothing is looked up by name: a slot index is
/// relative to the innermost frame's base. An empty slot is an XQSE
/// block variable not yet assigned ("Any reference to such a variable
/// … is an error until it has been initially assigned to", §III.B.5);
/// whether a variable may be assigned at all is settled before
/// anything runs.
pub struct Env {
    slots: Vec<Option<Sequence>>,
    /// Where the innermost frame starts in `slots`.
    base: usize,
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
    /// The values of the literal slots of the text whose body is
    /// running ([`crate::engine::PreparedQuery::run_body`]): the plan a
    /// text shares with the other texts of its shape reads its own
    /// values from here. Set for one execution and restored after it.
    pub(crate) literals: Option<Rc<[AtomicValue]>>,
}

/// What a procedure's frame set aside of its caller's context: a
/// procedure body runs as in a fresh context that shares only the
/// trace sink ([`Env::enter_procedure`]).
pub struct CallerContext {
    base: usize,
    focus: Option<Focus>,
    pul: Option<Pul>,
    join_cache: HashMap<(usize, u64), Rc<crate::eval::JoinCacheEntry>>,
    ws_memo: HashMap<String, Sequence>,
    write_epoch: u64,
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
            slots: Vec::new(),
            base: 0,
            focus: None,
            pul: None,
            trace: Rc::new(RefCell::new(Vec::new())),
            join_cache: HashMap::new(),
            ws_memo: HashMap::new(),
            write_epoch: 0,
            literals: None,
        }
    }

    /// The value of a literal slot: the running text's, or the parsed
    /// one when a body is evaluated on its own.
    #[inline]
    pub(crate) fn literal<'s>(&'s self, slot: &'s LiteralSlot) -> &'s AtomicValue {
        self.literals.as_ref().and_then(|l| l.get(slot.index as usize)).unwrap_or(&slot.value)
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

    /// Push a frame of `size` empty slots, which slot indexes address
    /// until [`Env::pop_frame`] closes it with the returned mark. Once
    /// the vector has grown to the deepest call, this allocates
    /// nothing.
    pub fn push_frame(&mut self, size: usize) -> usize {
        let caller = self.base;
        self.base = self.slots.len();
        self.slots.resize(self.base + size, None);
        caller
    }

    /// Close the frame [`Env::push_frame`] opened, dropping its values.
    pub fn pop_frame(&mut self, caller: usize) {
        self.slots.truncate(self.base);
        self.base = caller;
    }

    /// Push a procedure's frame: [`Env::push_frame`], with the focus,
    /// the pending-update list, the memos and the write epoch set aside
    /// for the call, so its body runs as in a fresh context sharing
    /// only the trace sink.
    pub fn enter_procedure(&mut self, size: usize) -> CallerContext {
        CallerContext {
            base: self.push_frame(size),
            focus: self.focus.take(),
            pul: self.pul.take(),
            join_cache: std::mem::take(&mut self.join_cache),
            ws_memo: std::mem::take(&mut self.ws_memo),
            write_epoch: std::mem::take(&mut self.write_epoch),
        }
    }

    /// Close the frame [`Env::enter_procedure`] opened and give the
    /// caller its context back.
    pub fn leave_procedure(&mut self, caller: CallerContext) {
        self.pop_frame(caller.base);
        self.focus = caller.focus;
        self.pul = caller.pul;
        self.join_cache = caller.join_cache;
        self.ws_memo = caller.ws_memo;
        self.write_epoch = caller.write_epoch;
    }

    /// The value in `slot` of the innermost frame: `None` for a block
    /// variable not yet assigned.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&Sequence> {
        self.slots[self.base + slot as usize].as_ref()
    }

    /// Bind or assign `slot` of the innermost frame.
    #[inline]
    pub fn set(&mut self, slot: u32, value: Sequence) {
        self.slots[self.base + slot as usize] = Some(value);
    }

    /// Empty `slot` of the innermost frame, dropping its value: its
    /// scope has ended, or it is a block variable declared without a
    /// value.
    #[inline]
    pub fn clear(&mut self, slot: u32) {
        self.slots[self.base + slot as usize] = None;
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

    /// The slots of every frame on the stack (tests check that calls
    /// pop what they push, errors included).
    pub fn slots_in_use(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use xdm::error::ErrorCode;
    use xdm::qname::QName;
    use xqparser::ast::{QueryBody, Statement};

    fn int(i: i64) -> Sequence {
        Sequence::one(Item::integer(i))
    }

    fn load_err(src: &str) -> QName {
        Engine::new().load(src).map(|_| ()).unwrap_err().code.clone()
    }

    #[test]
    fn bind_and_lookup() {
        let mut env = Env::new();
        let caller = env.push_frame(2);
        env.set(0, int(1));
        assert_eq!(env.get(0).unwrap().len(), 1);
        assert!(env.get(1).is_none(), "an empty slot, and no error built");
        env.clear(0);
        assert!(env.get(0).is_none());
        env.pop_frame(caller);
        assert_eq!(env.slots_in_use(), 0);
    }

    #[test]
    fn shadowing_and_scope_pop() {
        // An inner binding of the same name gets a slot of its own, so
        // the outer one reads its own value again after the inner
        // scope ends.
        let out = Engine::new()
            .eval_expr_str("let $x := 1 return ((let $x := 2 return $x), $x)", &[])
            .unwrap();
        assert_eq!(out.items(), &[Item::integer(2), Item::integer(1)]);
    }

    #[test]
    fn let_variables_are_not_assignable() {
        assert_eq!(
            load_err("{ iterate $x over (1, 2) { set $x := 3; } }"),
            ErrorCode::XQSE0001.qname()
        );
        assert_eq!(
            load_err("declare procedure local:p($x) { set $x := 2; }; 1"),
            ErrorCode::XQSE0001.qname()
        );
    }

    #[test]
    fn block_variables_are_assignable() {
        Engine::new().load("{ declare $x; set $x := 5; return value $x; }").unwrap();
        // An unassigned block variable is an empty slot, which the
        // evaluator reports as XQSE0002 when it is read.
        let mut env = Env::new();
        let caller = env.push_frame(1);
        assert!(env.get(0).is_none());
        env.set(0, int(5));
        assert_eq!(env.get(0).unwrap().items()[0], Item::integer(5));
        env.pop_frame(caller);
    }

    #[test]
    fn assignment_to_undeclared_fails() {
        assert_eq!(load_err("{ set $nope := 1; }"), ErrorCode::XQSE0001.qname());
    }

    #[test]
    fn assignment_crosses_expression_scopes() {
        // A `set` inside a while body assigns the block variable of
        // the enclosing block: both resolve to the same slot.
        let m = Engine::new()
            .load("{ declare $acc := (); while (fn:false()) { set $acc := 1; } }")
            .unwrap();
        let QueryBody::Block(b) = &m.body else { panic!("block body") };
        let Statement::While { body, .. } = &b.statements[0] else { panic!("while") };
        let Statement::Set { var, .. } = &body.statements[0] else { panic!("set") };
        assert_eq!(
            var.target.get(),
            xqparser::ast::VarTarget::Local(b.decls[0].var.slot.get())
        );
    }

    #[test]
    fn a_call_frame_hides_the_callers_bindings() {
        let mut env = Env::new();
        let outer = env.push_frame(1);
        env.set(0, int(7));
        let caller = env.push_frame(1);
        assert!(env.get(0).is_none(), "the callee's slot 0 is its own");
        env.set(0, int(1));
        env.pop_frame(caller);
        assert_eq!(env.get(0).unwrap().items()[0], Item::integer(7));
        env.pop_frame(outer);
        assert_eq!(env.slots_in_use(), 0);
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
