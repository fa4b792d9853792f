//! Name resolution: every name in a module resolved once, when the
//! module is loaded or prepared, and the result kept on its nodes.
//!
//! One walk over the module's scopes gives each variable a slot in its
//! frame (the function, procedure, global initializer or query body it
//! is declared in) and each reference the slot it reads
//! ([`xqparser::ast::VarTarget`]). A reference that no enclosing scope
//! binds names a global: one the module's prolog declares, or one the
//! engine already holds. A call site that names no builtin is bound to
//! its entry in the engine's registry, so a function registered later
//! is what the next call runs.
//!
//! The same walk checks the constraints the paper makes statically
//! decidable, and [`diagnose_module`] returns every violation it finds:
//!
//! - a reference to a variable nothing binds — `XPST0008`;
//! - `set $v` of anything but a block variable (§III.B.6) — `XQSE0001`;
//! - a block variable read where no assignment can precede the read
//!   (§III.B.5) — `XQSE0002`, the definite-assignment approximation;
//! - `break()`/`continue()` outside a `while` or `iterate` body
//!   (§III.C.15) — `XQSE0003`;
//! - a call, in an expression, of a procedure the module declares
//!   without `readonly` (§III.A) — `XQSE0004`.
//!
//! Loading or preparing fails on the first `XPST0008` or `XQSE0001`,
//! before anything runs. The other three stay run-time errors, as the
//! paper words them; static validation reports them all.

use std::collections::{HashMap, HashSet};
use std::fmt;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::qname::QName;
use xdm::types::SequenceType;
use xqparser::ast::*;

use crate::engine::Engine;

/// A static diagnostic.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The error this is, or would raise at run time.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Convert into a runtime-style error.
    pub fn into_error(self) -> XdmError {
        XdmError::new(self.code, self.message)
    }

    /// Does loading or preparing fail on it?
    pub fn is_static_error(&self) -> bool {
        self.code == ErrorCode::XPST0008 || self.code == ErrorCode::XQSE0001
    }
}

/// Resolve `module` against `engine`, failing on its first static
/// error.
pub fn resolve_module(module: &Module, engine: &Engine) -> XdmResult<()> {
    first_error(Resolver::new(module, Some(engine)).module(module))
}

/// Resolve a lone expression against `engine`, as a body of its own
/// whose free variables are globals; the size of its frame.
pub fn resolve_expr(expr: &Expr, engine: &Engine) -> XdmResult<u32> {
    let mut r = Resolver::new_bare(Some(engine));
    r.expr(expr);
    first_error(r.diagnostics)?;
    Ok(r.next_slot)
}

/// Every diagnostic in `module`, with no engine: only the prolog's
/// globals are defined, and no call site is bound.
pub fn diagnose_module(module: &Module) -> Vec<Diagnostic> {
    Resolver::new(module, None).module(module)
}

fn first_error(diagnostics: Vec<Diagnostic>) -> XdmResult<()> {
    match diagnostics.into_iter().find(Diagnostic::is_static_error) {
        Some(d) => Err(d.into_error()),
        None => Ok(()),
    }
}

/// What a frame belongs to, for messages.
#[derive(Clone, Copy)]
enum FrameOf<'m> {
    Function(&'m QName),
    Procedure(&'m QName),
    Initializer(&'m QName),
    Body,
}

impl fmt::Display for FrameOf<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameOf::Function(n) => write!(f, "function {n}"),
            FrameOf::Procedure(n) => write!(f, "procedure {n}"),
            FrameOf::Initializer(n) => write!(f, "the initializer of ${n}"),
            FrameOf::Body => f.write_str("the query body"),
        }
    }
}

/// A variable in scope.
struct Var<'m> {
    name: &'m QName,
    slot: u32,
    kind: VarKind<'m>,
}

#[derive(Clone, Copy)]
enum VarKind<'m> {
    /// Parameters, `for`/`let`/`at`, quantifier, `typeswitch`, `copy`,
    /// `catch … into` and `iterate` variables.
    ReadOnly,
    /// A block variable: its declared type, and whether some
    /// assignment may precede a read.
    Block { ty: Option<&'m SequenceType>, assigned: bool },
}

struct Resolver<'m, 'e> {
    engine: Option<&'e Engine>,
    /// Globals the module's prolog declares.
    prolog_globals: HashSet<&'m QName>,
    /// Procedures the module declares, by name and arity: readonly?
    procedures: HashMap<(&'m QName, usize), bool>,
    /// Functions the module declares, by name and arity.
    functions: HashSet<(&'m QName, usize)>,
    /// Variables in scope, innermost last.
    scope: Vec<Var<'m>>,
    /// Slots handed out in the current frame.
    next_slot: u32,
    frame: FrameOf<'m>,
    diagnostics: Vec<Diagnostic>,
}

impl<'m, 'e> Resolver<'m, 'e> {
    fn new_bare(engine: Option<&'e Engine>) -> Resolver<'m, 'e> {
        Resolver {
            engine,
            prolog_globals: HashSet::new(),
            procedures: HashMap::new(),
            functions: HashSet::new(),
            scope: Vec::new(),
            next_slot: 0,
            frame: FrameOf::Body,
            diagnostics: Vec::new(),
        }
    }

    fn new(module: &'m Module, engine: Option<&'e Engine>) -> Resolver<'m, 'e> {
        let prolog = &module.prolog;
        let mut r = Resolver::new_bare(engine);
        r.prolog_globals = prolog.variables.iter().map(|v| &v.name).collect();
        r.procedures =
            prolog.procedures.iter().map(|p| ((&p.name, p.params.len()), p.readonly)).collect();
        r.functions = prolog.functions.iter().map(|f| (&f.name, f.params.len())).collect();
        r
    }

    fn module(mut self, module: &'m Module) -> Vec<Diagnostic> {
        let prolog = &module.prolog;
        for v in &prolog.variables {
            if let Some(init) = &v.value {
                self.enter(FrameOf::Initializer(&v.name), &[]);
                self.expr(init);
                v.frame.set(self.next_slot);
            }
        }
        for f in &prolog.functions {
            if let Some(body) = &f.body {
                self.enter(FrameOf::Function(&f.name), &f.params);
                self.expr(body);
                f.frame.set(self.next_slot);
            }
        }
        for p in &prolog.procedures {
            if let Some(body) = &p.body {
                self.enter(FrameOf::Procedure(&p.name), &p.params);
                self.block(body, 0);
                p.frame.set(self.next_slot);
            }
        }
        self.enter(FrameOf::Body, &[]);
        match &module.body {
            QueryBody::Expr(e) => self.expr(e),
            QueryBody::Block(b) => self.block(b, 0),
            QueryBody::None => {}
        }
        module.frame.set(self.next_slot);
        self.diagnostics
    }

    /// Start a frame whose first slots are `params`.
    fn enter(&mut self, frame: FrameOf<'m>, params: &'m [Param]) {
        self.frame = frame;
        self.scope.clear();
        self.next_slot = 0;
        for p in params {
            let slot = self.slot();
            self.scope.push(Var { name: &p.name, slot, kind: VarKind::ReadOnly });
        }
    }

    fn slot(&mut self) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    /// Bring a read-only variable into scope.
    fn bind(&mut self, b: &'m Binder) {
        let slot = self.slot();
        b.slot.set(slot);
        self.scope.push(Var { name: &b.name, slot, kind: VarKind::ReadOnly });
    }

    fn lookup(&self, name: &QName) -> Option<usize> {
        self.scope.iter().rposition(|v| v.name == name)
    }

    /// Does `name` name a global: one the prolog declares, or one the
    /// engine holds?
    fn is_global(&self, name: &QName) -> bool {
        self.prolog_globals.contains(name) || self.engine.is_some_and(|e| e.global(name).is_some())
    }

    fn report(&mut self, code: ErrorCode, message: String) {
        self.diagnostics.push(Diagnostic { code, message });
    }

    // ------------------------------------------------------ expressions

    fn expr(&mut self, e: &'m Expr) {
        let mark = self.scope.len();
        match e {
            Expr::VarRef(u) => self.var_ref(u),
            Expr::FunctionCall { .. } => self.call(e, false),
            Expr::Flwor { clauses, ret } => {
                for c in clauses.iter() {
                    match c {
                        FlworClause::For { var, pos, source } => {
                            self.expr(source);
                            self.bind(var);
                            if let Some(p) = pos {
                                self.bind(p);
                            }
                        }
                        FlworClause::Let { var, value, .. } => {
                            self.expr(value);
                            self.bind(var);
                        }
                        FlworClause::Where(w) => self.expr(w),
                        FlworClause::OrderBy(specs) => {
                            specs.iter().for_each(|s| self.expr(&s.key));
                        }
                    }
                }
                self.expr(ret);
            }
            Expr::Quantified { bindings, satisfies, .. } => {
                for (var, source) in bindings {
                    self.expr(source);
                    self.bind(var);
                }
                self.expr(satisfies);
            }
            Expr::Typeswitch { operand, cases } => {
                self.expr(operand);
                for case in cases {
                    let mark = self.scope.len();
                    if let Some(var) = &case.var {
                        self.bind(var);
                    }
                    self.expr(&case.body);
                    self.scope.truncate(mark);
                }
            }
            Expr::Transform { copies, modify, ret } => {
                for (var, source) in copies {
                    self.expr(source);
                    self.bind(var);
                }
                self.expr(modify);
                self.expr(ret);
            }
            _ => e.for_each_child(&mut |c| self.expr(c)),
        }
        self.scope.truncate(mark);
    }

    fn var_ref(&mut self, u: &'m VarUse) {
        if let Some(i) = self.lookup(&u.name) {
            let v = &self.scope[i];
            u.target.set(VarTarget::Local(v.slot));
            if let VarKind::Block { assigned: false, .. } = v.kind {
                let message = format!("block variable ${} referenced before assignment", u.name);
                self.report(ErrorCode::XQSE0002, message);
            }
            return;
        }
        if !self.is_global(&u.name) {
            let message = format!("undefined variable ${} in {}", u.name, self.frame);
            self.report(ErrorCode::XPST0008, message);
            return;
        }
        match self.engine {
            Some(engine) => u.target.set(VarTarget::Global(engine.global_entry(&u.name))),
            // Without an engine a global stays bound to none, and is
            // found by name where it runs.
            None if u.target.get() == VarTarget::Unresolved => {
                u.target.set(VarTarget::Global(Bound::default()));
            }
            None => {}
        }
    }

    /// A function call. One in statement position (an expression
    /// statement, or a whole value statement) may call any procedure;
    /// anywhere else, a procedure the module declares must be
    /// `readonly`.
    fn call(&mut self, e: &'m Expr, statement: bool) {
        let Expr::FunctionCall { name, args, call } = e else { return self.expr(e) };
        let arity = args.len();
        if call.builtin.is_none() {
            if let Some(engine) = self.engine {
                call.entry.set(engine.callee_entry(name, arity));
            }
            let impure = !statement
                && self.procedures.get(&(name, arity)) == Some(&false)
                && !self.functions.contains(&(name, arity));
            if impure {
                let message = format!(
                    "procedure {name} has side effects and cannot be called from an expression"
                );
                self.report(ErrorCode::XQSE0004, message);
            }
        }
        args.iter().for_each(|a| self.expr(a));
    }

    // ------------------------------------------------------- statements

    fn block(&mut self, block: &'m Block, loop_depth: usize) {
        let mark = self.scope.len();
        for d in &block.decls {
            if let Some(init) = &d.init {
                self.value_statement(init);
            }
            let slot = self.slot();
            d.var.slot.set(slot);
            let kind = VarKind::Block { ty: d.ty.as_ref(), assigned: d.init.is_some() };
            self.scope.push(Var { name: &d.var.name, slot, kind });
        }
        for s in &block.statements {
            self.statement(s, loop_depth);
        }
        self.scope.truncate(mark);
    }

    fn statement(&mut self, s: &'m Statement, loop_depth: usize) {
        match s {
            Statement::Block(b) => self.block(b, loop_depth),
            Statement::Set { var, ty, value } => {
                self.value_statement(value);
                self.set_target(var, ty);
            }
            Statement::Return(v) => self.value_statement(v),
            Statement::If { cond, then, els } => {
                self.expr(cond);
                // A branch's assignments count for what follows: only
                // definite errors are reported.
                self.statement(then, loop_depth);
                if let Some(e) = els {
                    self.statement(e, loop_depth);
                }
            }
            Statement::While { cond, body } => {
                self.expr(cond);
                self.block(body, loop_depth + 1);
            }
            Statement::Iterate { var, pos, over, body } => {
                self.value_statement(over);
                let mark = self.scope.len();
                self.bind(var);
                if let Some(p) = pos {
                    self.bind(p);
                }
                self.block(body, loop_depth + 1);
                self.scope.truncate(mark);
            }
            Statement::Try { body, catches } => {
                self.block(body, loop_depth);
                for c in catches {
                    let mark = self.scope.len();
                    c.into_vars.iter().for_each(|v| self.bind(v));
                    self.block(&c.body, loop_depth);
                    self.scope.truncate(mark);
                }
            }
            Statement::Continue | Statement::Break if loop_depth == 0 => {
                let what = if matches!(s, Statement::Break) { "break" } else { "continue" };
                let message = format!("{what}() outside a while/iterate body");
                self.report(ErrorCode::XQSE0003, message);
            }
            Statement::Continue | Statement::Break => {}
            Statement::Update(e) => self.expr(e),
            Statement::ExprStatement(e) => self.call(e, true),
            Statement::ProcedureBlock(b) => self.block(b, 0),
        }
    }

    fn value_statement(&mut self, v: &'m ValueStatement) {
        match v {
            ValueStatement::ProcedureBlock(b) => self.block(b, 0),
            ValueStatement::Expr(e) => self.call(e, true),
        }
    }

    /// The target of `set $var`: a block variable in scope.
    fn set_target(&mut self, var: &'m VarUse, ty: &FactOnce<SequenceType>) {
        let found = self.lookup(&var.name);
        if let Some(i) = found {
            let slot = self.scope[i].slot;
            if let VarKind::Block { ty: declared, assigned } = &mut self.scope[i].kind {
                *assigned = true;
                var.target.set(VarTarget::Local(slot));
                if let Some(t) = declared {
                    ty.set((*t).clone());
                }
                return;
            }
        }
        let message = if found.is_some() || self.is_global(&var.name) {
            format!("${} is not a block variable and cannot be assigned, in {}", var.name, self.frame)
        } else {
            format!("assignment to undeclared variable ${} in {}", var.name, self.frame)
        };
        self.report(ErrorCode::XQSE0001, message);
    }
}
