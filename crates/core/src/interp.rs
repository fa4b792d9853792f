//! The XQSE statement interpreter.

use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};
use xdm::types::SequenceType;

use xqparser::ast::{
    Binder, Block, CallSite, CatchClause, Expr, Module, ProcedureDecl, QueryBody, Statement,
    ValueStatement, VarTarget,
};

use xqeval::context::Env;
use xqeval::engine::{Engine, PreparedQuery, ProcKind};
use xqeval::update::Pul;
use xqeval::{Args, Evaluator};

/// Control flow out of a statement.
#[derive(Debug, Clone)]
pub enum Flow {
    /// Fall through to the next statement.
    Normal,
    /// A `return value` was executed.
    Return(Sequence),
    /// A `break()` was executed.
    Break,
    /// A `continue()` was executed.
    Continue,
}

/// The XQSE engine façade: an [`Engine`] plus the statement
/// interpreter, with the procedure-runner hook installed so that
/// readonly procedures ("XQSE functions") are callable from XQuery
/// expressions.
pub struct Xqse {
    engine: Rc<Engine>,
}

impl Default for Xqse {
    fn default() -> Self {
        Xqse::new()
    }
}

impl Xqse {
    /// Create a fresh engine with the statement layer installed.
    pub fn new() -> Xqse {
        Xqse::with_engine(Rc::new(Engine::new()))
    }

    /// Wrap an existing engine (e.g. one with ALDSP sources already
    /// registered).
    pub fn with_engine(engine: Rc<Engine>) -> Xqse {
        engine.install_proc_runner(Rc::new(
            |eng: &Engine, decl: &ProcedureDecl, args: Args, env: &mut Env| {
                exec_procedure(eng, decl, args, env)
            },
        ));
        Xqse { engine }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Clone the shared engine handle.
    pub fn engine_rc(&self) -> Rc<Engine> {
        self.engine.clone()
    }

    /// Load a module's prolog (functions, procedures, variables).
    pub fn load(&self, src: &str) -> XdmResult<Module> {
        self.engine.load(src)
    }

    /// Load a module and run its query body. An expression body is
    /// evaluated; a block body is executed ("the entry point into the
    /// XQSE world", §III.B.3) and yields the value of the first
    /// `return value` executed, or the empty sequence.
    pub fn run(&self, src: &str) -> XdmResult<Sequence> {
        let mut env = Env::new();
        self.run_with_env(src, &mut env)
    }

    /// [`Xqse::run`] against a caller-provided context (lets callers
    /// inspect `fn:trace` output or pre-bind state).
    pub fn run_with_env(&self, src: &str, env: &mut Env) -> XdmResult<Sequence> {
        // Route through the prepared-plan cache: the texts of one
        // shape (REPL lines, benchmark reps, per-item `iterate` bodies,
        // pages that differ in their offset) parse and prolog-load
        // once, then re-execute the cached plan with their own literal
        // values. With plan caching disabled (`-batch` or `-opt`)
        // `prepare` degenerates to the old load-then-run path.
        let pq = self.engine.prepare(src)?;
        self.run_prepared(&pq, env)
    }

    /// [`Xqse::run_with_env`], handing each result item to `sink` as it
    /// is produced: an expression body goes through
    /// [`Engine::execute_prepared_to_sink`], so a FLWOR body is pulled
    /// item by item and a mid-stream error arrives after the items
    /// before it. A block body is a statement sequence; its value is
    /// handed over once it has run. An error from `sink` stops the run
    /// and is returned.
    pub fn run_to_sink(
        &self,
        src: &str,
        env: &mut Env,
        sink: &mut dyn FnMut(Item) -> XdmResult<()>,
    ) -> XdmResult<()> {
        let pq = self.engine.prepare(src)?;
        if let QueryBody::Expr(_) = &pq.module().body {
            return self.engine.execute_prepared_to_sink(&pq, env, sink);
        }
        for item in self.run_prepared(&pq, env)? {
            sink(item)?;
        }
        Ok(())
    }

    fn run_prepared(&self, pq: &PreparedQuery, env: &mut Env) -> XdmResult<Sequence> {
        match &pq.module().body {
            QueryBody::None | QueryBody::Expr(_) => self.engine.execute_prepared_in(pq, env),
            QueryBody::Block(b) => {
                let flow = pq.run_body(env, |_, env| exec_block(&self.engine, b, env));
                match flow? {
                    Flow::Return(v) => Ok(v),
                    Flow::Normal => Ok(Sequence::empty()),
                    Flow::Break | Flow::Continue => Err(XdmError::new(
                        ErrorCode::XQSE0003,
                        "break()/continue() outside a loop",
                    )),
                }
            }
        }
    }

    /// Call a procedure by name from *statement context* — side
    /// effects allowed. This is the entry ALDSP uses to invoke data
    /// service methods.
    pub fn call_procedure(
        &self,
        name: &QName,
        args: Vec<Sequence>,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        call_procedure_stmt(&self.engine, name, Args::from(args), env)
    }
}

/// Execute a user-defined procedure in a frame of its own (procedures
/// do not see the caller's local variables), as in a fresh context
/// that shares only the trace sink: parameters in their slots, body
/// block executed, `return value` or empty sequence.
pub fn exec_procedure(
    engine: &Engine,
    decl: &ProcedureDecl,
    mut args: Args,
    env: &mut Env,
) -> XdmResult<Sequence> {
    xqeval::depth::check_call_depth()?;
    if args.len() != decl.params.len() {
        return Err(XdmError::new(
            ErrorCode::XPST0017,
            format!(
                "procedure {} expects {} arguments, got {}",
                decl.name,
                decl.params.len(),
                args.len()
            ),
        ));
    }
    let body = decl.body.as_ref().ok_or_else(|| {
        XdmError::new(
            ErrorCode::XPST0017,
            format!("external procedure {} has no body", decl.name),
        )
    })?;
    let caller = env.enter_procedure(decl.frame.get() as usize);
    let flow = (|| {
        for (slot, (p, a)) in decl.params.iter().zip(args.iter_mut()).enumerate() {
            let a = std::mem::take(a);
            let a = match &p.ty {
                Some(ty) => {
                    ty.convert(a, || format!("parameter ${} of {}", p.name, decl.name))?
                }
                None => a,
            };
            env.set(slot as u32, a);
        }
        exec_block(engine, body, env)
    })();
    env.leave_procedure(caller);
    let out = match flow? {
        Flow::Return(v) => v,
        Flow::Normal => Sequence::empty(),
        Flow::Break | Flow::Continue => {
            return Err(XdmError::new(
                ErrorCode::XQSE0003,
                "break()/continue() escaped the procedure body",
            ))
        }
    };
    if let Some(ty) = &decl.return_type {
        if !ty.matches(&out) {
            return Err(XdmError::new(
                ErrorCode::XQSE0005,
                format!(
                    "result of procedure {} does not match declared type {ty}",
                    decl.name
                ),
            ));
        }
    }
    Ok(out)
}

/// Execute a block: declarations in order, then statements in order
/// (§III.B.5). Its variables' slots are emptied when it ends.
pub fn exec_block(engine: &Engine, block: &Block, env: &mut Env) -> XdmResult<Flow> {
    let flow = exec_block_inner(engine, block, env);
    block.decls.iter().for_each(|d| env.clear(d.var.slot.get()));
    flow
}

fn exec_block_inner(engine: &Engine, block: &Block, env: &mut Env) -> XdmResult<Flow> {
    for decl in &block.decls {
        let slot = decl.var.slot.get();
        match &decl.init {
            Some(vs) => {
                let v = eval_value_statement(engine, vs, env)?;
                if let Some(ty) = &decl.ty {
                    ty.check(&v, || format!("declare ${}", decl.var))?;
                }
                env.set(slot, v);
            }
            None => env.clear(slot),
        }
    }
    for stmt in &block.statements {
        match exec_statement(engine, stmt, env)? {
            Flow::Normal => {}
            other => return Ok(other),
        }
    }
    Ok(Flow::Normal)
}

/// Execute one statement.
pub fn exec_statement(
    engine: &Engine,
    stmt: &Statement,
    env: &mut Env,
) -> XdmResult<Flow> {
    match stmt {
        Statement::Block(b) => exec_block(engine, b, env),
        Statement::Set { var, ty, value } => {
            let v = eval_value_statement(engine, value, env)?;
            // "If the value statement raises an error, the variable is
            // left in its previous state" — guaranteed because we only
            // assign after successful evaluation.
            assign(var, ty.get(), v, env)?;
            Ok(Flow::Normal)
        }
        Statement::Return(value) => {
            let v = eval_value_statement(engine, value, env)?;
            Ok(Flow::Return(v))
        }
        Statement::If { cond, then, els } => {
            let b = Evaluator::new(engine).eval(cond, env)?.effective_boolean()?;
            if b {
                exec_statement(engine, then, env)
            } else if let Some(e) = els {
                exec_statement(engine, e, env)
            } else {
                Ok(Flow::Normal)
            }
        }
        Statement::While { cond, body } => {
            loop {
                // Cooperative budget point: `while` is what makes XQSE
                // Turing-complete, so every trip checks cancellation
                // (deadline strided — the clock read is the expensive
                // part) before re-evaluating the condition. Fuel is
                // charged inside the evaluator.
                engine.budget_loop_check()?;
                let b = Evaluator::new(engine)
                    .eval(cond, env)?
                    .effective_boolean()?;
                if !b {
                    break;
                }
                match exec_block(engine, body, env)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => break,
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            }
            // "The While statement does not return a value."
            Ok(Flow::Normal)
        }
        Statement::Iterate { var, pos, over, body } => {
            exec_iterate(engine, var, pos.as_ref(), over, body, env)
        }
        Statement::Try { body, catches } => {
            match exec_block(engine, body, env) {
                Ok(flow) => Ok(flow),
                Err(e) => {
                    // "Note that executing the Try statement may have
                    // caused permanent side effects before the error
                    // was raised. Such side effects are not rolled
                    // back." — nothing to do; effects already landed.
                    for clause in catches {
                        if catch_matches(clause, &e) {
                            return exec_catch(engine, clause, &e, env);
                        }
                    }
                    Err(e)
                }
            }
        }
        Statement::Continue => Ok(Flow::Continue),
        Statement::Break => Ok(Flow::Break),
        Statement::Update(expr) => {
            exec_update_like(engine, expr, env)?;
            Ok(Flow::Normal)
        }
        Statement::ExprStatement(expr) => {
            // Per the EBNF this position holds procedure calls; the
            // paper's examples also use effectful function calls like
            // fn:trace here. A top-level procedure call executes in
            // statement context (side effects allowed); anything else
            // evaluates like an update statement so that updating
            // function calls also work, and the value is discarded.
            // Its value is discarded, and an external procedure is told
            // so.
            if let Some((p, args)) = statement_procedure(engine, expr, false) {
                call_proc_with(engine, p, args, true, env)?;
                return Ok(Flow::Normal);
            }
            exec_update_like(engine, expr, env)?;
            Ok(Flow::Normal)
        }
        Statement::ProcedureBlock(b) => {
            // In statement position the procedure block runs and its
            // return value (if any) is discarded.
            exec_procedure_block(engine, b, env)?;
            Ok(Flow::Normal)
        }
    }
}

/// `iterate $var at $pos over … { … }` (§III.B.10).
#[inline(never)]
fn exec_iterate(
    engine: &Engine,
    var: &Binder,
    pos: Option<&Binder>,
    over: &ValueStatement,
    body: &Block,
    env: &mut Env,
) -> XdmResult<Flow> {
    // "First, the Value statement is executed once. It returns a
    // sequence of items called a binding sequence."
    let binding = eval_value_statement(engine, over, env)?;
    let (slot, pos) = (var.slot.get(), pos.map(|p| p.slot.get()));
    for (i, item) in binding.into_iter().enumerate() {
        // Same cooperative point as `while`: iterate bodies run
        // updates/source calls per item.
        engine.budget_loop_check()?;
        env.set(slot, Sequence::one(item));
        if let Some(p) = pos {
            env.set(p, Sequence::one(Item::integer(i as i64 + 1)));
        }
        let flow = exec_block(engine, body, env);
        env.clear(slot);
        if let Some(p) = pos {
            env.clear(p);
        }
        match flow? {
            Flow::Normal | Flow::Continue => {}
            Flow::Break => break,
            ret @ Flow::Return(_) => return Ok(ret),
        }
    }
    Ok(Flow::Normal)
}

/// Evaluate an expression with a fresh pending-update list open, then
/// apply the list — the snapshot semantics of the update statement
/// (§III.C.14): "Execution of the update statement therefore
/// constitutes a snapshot, and all applied changes are visible to
/// subsequent statements and expressions." Returns the expression's
/// value, which XQSE discards and XQueryP's sequential mode keeps.
pub(crate) fn exec_update_like(
    engine: &Engine,
    expr: &Expr,
    env: &mut Env,
) -> XdmResult<Sequence> {
    let saved = env.pul.take();
    env.pul = Some(Pul::new());
    let result = Evaluator::new(engine).eval(expr, env);
    let pul = env.pul.take().expect("pul still open");
    env.pul = saved;
    let value = result?;
    let had_updates = !pul.is_empty();
    pul.apply()?;
    if had_updates {
        // Node-level updates may have mutated trees that memoized join
        // indexes share: drop them and advance the write epoch. The
        // source caches check themselves: an in-place write to a
        // sealed arena moves the count their entries were built under
        // (`xdm::sealed_writes`).
        env.invalidate_caches();
    }
    Ok(value)
}

/// Execute a value statement (§III.B.8): a non-updating ExprSingle, a
/// procedure call (side effects permitted — the paper's own example is
/// `set $z := ns:myprocedure($y);`), or a procedure block.
pub fn eval_value_statement(
    engine: &Engine,
    vs: &ValueStatement,
    env: &mut Env,
) -> XdmResult<Sequence> {
    match vs {
        ValueStatement::ProcedureBlock(b) => exec_procedure_block(engine, b, env),
        ValueStatement::Expr(expr) => {
            // A *top-level* procedure call in a value statement runs in
            // statement context.
            if let Some((p, args)) = statement_procedure(engine, expr, true) {
                return call_proc_with(engine, p, args, false, env);
            }
            // Otherwise: ordinary expression evaluation — "the
            // expression must return an empty pending update list",
            // which the evaluator enforces (XUST0001) because no PUL
            // is open here.
            Evaluator::new(engine).eval(expr, env)
        }
    }
}

/// Execute an in-place `procedure { … }` block (§III.C.16): the block
/// runs once; a `return value` inside yields the block's value,
/// otherwise the value is the empty sequence.
pub fn exec_procedure_block(
    engine: &Engine,
    block: &Block,
    env: &mut Env,
) -> XdmResult<Sequence> {
    match exec_block(engine, block, env)? {
        Flow::Return(v) => Ok(v),
        Flow::Normal => Ok(Sequence::empty()),
        Flow::Break | Flow::Continue => Err(XdmError::new(
            ErrorCode::XQSE0003,
            "break()/continue() escaped a procedure block",
        )),
    }
}

/// The procedure `expr` calls in statement position, with the call's
/// argument expressions: a call of a name that is no builtin, whose
/// registry entry holds a procedure — and, when `unless_function`,
/// no function, which a value statement would call instead.
pub(crate) fn statement_procedure<'x>(
    engine: &Engine,
    expr: &'x Expr,
    unless_function: bool,
) -> Option<(ProcKind, &'x [Expr])> {
    let Expr::FunctionCall { name, args, call: CallSite { builtin: None, entry } } = expr else {
        return None;
    };
    let (entry, arity) = (entry.get(), args.len());
    let p = engine.procedure_at(entry, name, arity)?;
    if unless_function && engine.has_function_at(entry, name, arity) {
        return None;
    }
    Some((p, args))
}

/// `set $var := v`: the block variable's slot, checked against its
/// declared type `ty` (paper §III.B.6).
pub(crate) fn assign(
    var: &xqparser::ast::VarUse,
    ty: Option<&SequenceType>,
    v: Sequence,
    env: &mut Env,
) -> XdmResult<()> {
    let VarTarget::Local(slot) = var.target.get() else {
        return Err(XdmError::new(
            ErrorCode::XQSE0001,
            format!("assignment to undeclared variable ${}", var.name),
        ));
    };
    if let Some(ty) = ty {
        ty.check(&v, || format!("set ${}", var.name))?;
    }
    env.set(slot, v);
    Ok(())
}

/// Call a procedure in statement context: user-defined or external,
/// readonly or not.
pub fn call_procedure_stmt(
    engine: &Engine,
    name: &QName,
    args: Args,
    env: &mut Env,
) -> XdmResult<Sequence> {
    match engine.procedure(name, args.len()) {
        Some(p) => call_proc(engine, p, args, env),
        None => Err(XdmError::new(
            ErrorCode::XPST0017,
            format!("unknown procedure {name}#{}", args.len()),
        )),
    }
}

/// Call the procedure `p`, already looked up, on the arguments `args`
/// evaluate to, in statement context; `discarded` when the call is an
/// expression statement, whose value nobody reads. Out of line, so the
/// statement frames a call recurses through do not hold its arguments.
#[inline(never)]
pub(crate) fn call_proc_with(
    engine: &Engine,
    p: ProcKind,
    args: &[Expr],
    discarded: bool,
    env: &mut Env,
) -> XdmResult<Sequence> {
    let mut argv = Evaluator::new(engine).eval_args(args, env)?;
    if discarded {
        argv.discard_result();
    }
    call_proc(engine, p, argv, env)
}

/// Call the procedure `p`, already looked up, in statement context.
pub(crate) fn call_proc(
    engine: &Engine,
    p: ProcKind,
    args: Args,
    env: &mut Env,
) -> XdmResult<Sequence> {
    match p {
        ProcKind::User(decl) => {
            let out = exec_procedure(engine, &decl, args, env);
            if !decl.readonly {
                // The procedure may have written *some* source, but it
                // cannot have mutated already-materialized trees (its
                // effects land through source procedures, not PUL node
                // edits). Bump the write epoch only: version-stamped
                // cache entries over sources it did not touch survive.
                // The engine's source-write count moves too: web-service
                // read-through caches read it as their epoch (the
                // per-Env ws_memo clear alone does not reach them).
                env.note_write();
                engine.note_source_write();
            }
            out
        }
        ProcKind::External { f, readonly } => {
            let out = f(env, args);
            if !readonly {
                env.note_write();
                engine.note_source_write();
            }
            out
        }
    }
}

/// Does a catch clause's NameTest match the error code QName
/// (§III.B.13)?
fn catch_matches(clause: &CatchClause, e: &XdmError) -> bool {
    clause.test.matches_name(Some(&e.code))
}

#[inline(never)]
fn exec_catch(
    engine: &Engine,
    clause: &CatchClause,
    e: &XdmError,
    env: &mut Env,
) -> XdmResult<Flow> {
    // "up to three optional variables … will be assigned the QName
    // identifying the error, its message, and any diagnostic items".
    let provided: [Sequence; 3] = [
        Sequence::one(xdm::sequence::Item::Atomic(
            xdm::atomic::AtomicValue::QName(e.code.clone()),
        )),
        Sequence::one(xdm::sequence::Item::string(e.message.clone())),
        e.diagnostics
            .iter()
            .map(|d| xdm::sequence::Item::string(d.clone()))
            .collect(),
    ];
    for (var, value) in clause.into_vars.iter().zip(provided) {
        env.set(var.slot.get(), value);
    }
    let flow = exec_block(engine, &clause.body, env);
    clause.into_vars.iter().for_each(|var| env.clear(var.slot.get()));
    flow
}
