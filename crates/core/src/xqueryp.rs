//! XQueryP "sequential mode" — the related-work baseline of §IV.
//!
//! XQueryP (Chamberlin et al., XIME-P 2006) took the opposite design
//! position from XQSE: procedural constructs *are* expressions,
//! freely composable inside any expression evaluated in *sequential
//! mode*, and every construct returns a value — "Even a While loop
//! returns a value in XQueryP — it returns the concatenation of the
//! results from the repeated sequential evaluation of its body
//! expression."
//!
//! We implement that semantics over the same statement AST so the
//! reproduction can measure the paper's two §IV claims:
//!
//! 1. **Composability changes meaning**: the same program text yields
//!    concatenated loop values under XQueryP where XQSE discards them
//!    (see the `while` tests);
//! 2. **Sequential mode blocks optimization**: in sequential mode the
//!    engine must preserve strict evaluation order, so the hash-join
//!    memoization that XQSE applies inside declarative cores is
//!    switched off for the whole program — the E7 experiment measures
//!    the resulting gap.

use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::sequence::Sequence;
use xdm::types::SequenceType;

use xqparser::ast::{Block, Expr, QueryBody, Statement, ValueStatement};

use xqeval::context::Env;
use xqeval::engine::Engine;
use xqeval::update::Pul;
use xqeval::{Evaluator, Features};

/// The XQueryP-style sequential-mode interpreter.
pub struct XqueryP {
    engine: Rc<Engine>,
}

/// Result of sequentially executing one construct: the value it
/// contributes plus whether execution was cut by an explicit return.
struct SeqOut {
    value: Sequence,
    returned: bool,
}

impl XqueryP {
    /// Wrap an engine in sequential mode.
    pub fn with_engine(engine: Rc<Engine>) -> XqueryP {
        XqueryP { engine }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Load and run a module in sequential mode. Declarative
    /// optimizations are disabled for the duration — sequential mode
    /// pins the evaluation order.
    pub fn run(&self, src: &str) -> XdmResult<Sequence> {
        let mut env = Env::new();
        self.run_with_env(src, &mut env)
    }

    /// [`XqueryP::run`] with a caller-provided context.
    pub fn run_with_env(&self, src: &str, env: &mut Env) -> XdmResult<Sequence> {
        // Sequential mode pins the evaluation order: both the
        // pushdown/caching layer AND the hash-join memoization that
        // XQSE applies inside declarative cores are switched off for
        // the whole program — the E7 experiment measures the
        // resulting gap.
        let callers = self.engine.features();
        self.engine.set_features(Features { opt: false, join: false, ..callers });
        let result = (|| {
            let module = self.engine.load(src)?;
            match &module.body {
                QueryBody::None => Ok(Sequence::empty()),
                QueryBody::Expr(e) => Evaluator::new(&self.engine).eval(e, env),
                QueryBody::Block(b) => {
                    Ok(self.exec_block_value(b, env)?.value)
                }
            }
        })();
        self.engine.set_features(callers);
        result
    }

    /// Execute a block, concatenating the values of its statements
    /// (the composability semantics of XQueryP).
    fn exec_block_value(&self, block: &Block, env: &mut Env) -> XdmResult<SeqOut> {
        env.push_scope();
        let out = self.exec_block_inner(block, env);
        env.pop_scope();
        out
    }

    fn exec_block_inner(&self, block: &Block, env: &mut Env) -> XdmResult<SeqOut> {
        for decl in &block.decls {
            let init = match &decl.init {
                Some(vs) => {
                    let v = self.eval_value(vs, env)?;
                    let ty = decl.ty.clone().unwrap_or_else(SequenceType::any);
                    ty.check(&v, &format!("declare ${}", decl.var))?;
                    Some(v)
                }
                None => None,
            };
            env.declare_block_var(decl.var.clone(), init, decl.ty.clone());
        }
        let mut value = Sequence::empty();
        for stmt in &block.statements {
            let out = self.exec_statement_value(stmt, env)?;
            value.extend(out.value);
            if out.returned {
                return Ok(SeqOut { value, returned: true });
            }
        }
        Ok(SeqOut { value, returned: false })
    }

    fn exec_statement_value(&self, stmt: &Statement, env: &mut Env) -> XdmResult<SeqOut> {
        let normal = |value: Sequence| SeqOut { value, returned: false };
        match stmt {
            Statement::Block(b) => self.exec_block_value(b, env),
            Statement::Set { var, value } => {
                let v = self.eval_value(value, env)?;
                env.assign(var, v)?;
                Ok(normal(Sequence::empty()))
            }
            Statement::Return(value) => {
                let v = self.eval_value(value, env)?;
                Ok(SeqOut { value: v, returned: true })
            }
            Statement::If { cond, then, els } => {
                let b = Evaluator::new(&self.engine)
                    .eval(cond, env)?
                    .effective_boolean()?;
                if b {
                    self.exec_statement_value(then, env)
                } else if let Some(e) = els {
                    self.exec_statement_value(e, env)
                } else {
                    Ok(normal(Sequence::empty()))
                }
            }
            Statement::While { cond, body } => {
                // The XQueryP semantics: the while loop *returns the
                // concatenation* of its body's values.
                let mut acc = Sequence::empty();
                loop {
                    // Cooperative budget point (see interp.rs): the
                    // sequential mode is just as Turing-complete.
                    self.engine.budget_loop_check()?;
                    let b = Evaluator::new(&self.engine)
                        .eval(cond, env)?
                        .effective_boolean()?;
                    if !b {
                        break;
                    }
                    let out = self.exec_block_value(body, env)?;
                    acc.extend(out.value);
                    if out.returned {
                        return Ok(SeqOut { value: acc, returned: true });
                    }
                }
                Ok(normal(acc))
            }
            Statement::Iterate { var, pos, over, body } => {
                let binding = self.eval_value(over, env)?;
                let mut acc = Sequence::empty();
                for (i, item) in binding.into_iter().enumerate() {
                    self.engine.budget_loop_check()?;
                    env.push_scope();
                    env.bind(var.clone(), Sequence::one(item));
                    if let Some(p) = pos {
                        env.bind(
                            p.clone(),
                            Sequence::one(xdm::sequence::Item::integer(i as i64 + 1)),
                        );
                    }
                    let out = self.exec_block_value(body, env);
                    env.pop_scope();
                    let out = out?;
                    acc.extend(out.value);
                    if out.returned {
                        return Ok(SeqOut { value: acc, returned: true });
                    }
                }
                Ok(normal(acc))
            }
            Statement::Try { body, catches } => match self.exec_block_value(body, env) {
                Ok(out) => Ok(out),
                Err(e) => {
                    for clause in catches {
                        if clause.test.matches_name(Some(&e.code)) {
                            env.push_scope();
                            let vals: [Sequence; 2] = [
                                Sequence::one(xdm::sequence::Item::Atomic(
                                    xdm::atomic::AtomicValue::QName(e.code.clone()),
                                )),
                                Sequence::one(xdm::sequence::Item::string(
                                    e.message.clone(),
                                )),
                            ];
                            for (var, value) in
                                clause.into_vars.iter().zip(vals)
                            {
                                env.bind(var.clone(), value);
                            }
                            let out = self.exec_block_value(&clause.body, env);
                            env.pop_scope();
                            return out;
                        }
                    }
                    Err(e)
                }
            },
            Statement::Continue | Statement::Break => Err(XdmError::new(
                ErrorCode::XQSE0003,
                "XQueryP sequential mode has no break()/continue()",
            )),
            Statement::Update(expr) | Statement::ExprStatement(expr) => {
                // Sequential mode applies atomic updates immediately
                // after each expression.
                let saved = env.pul.take();
                env.pul = Some(Pul::new());
                let result = Evaluator::new(&self.engine).eval(expr, env);
                let pul = env.pul.take().expect("pul open");
                env.pul = saved;
                let value = result?;
                pul.apply()?;
                env.invalidate_caches();
                Ok(normal(value))
            }
            Statement::ProcedureBlock(b) => self.exec_block_value(b, env),
        }
    }

    fn eval_value(&self, vs: &ValueStatement, env: &mut Env) -> XdmResult<Sequence> {
        match vs {
            ValueStatement::ProcedureBlock(b) => Ok(self.exec_block_value(b, env)?.value),
            ValueStatement::Expr(e) => self.eval_seq_expr(e, env),
        }
    }

    /// In sequential mode even "procedure" calls compose in
    /// expressions; we delegate to the statement-context call path so
    /// side-effecting calls are allowed anywhere.
    fn eval_seq_expr(&self, expr: &Expr, env: &mut Env) -> XdmResult<Sequence> {
        if let Expr::FunctionCall { name, args } = expr {
            if self.engine.procedure(name, args.len()).is_some()
                && self.engine.function(name, args.len()).is_none()
            {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(Evaluator::new(&self.engine).eval(a, env)?);
                }
                return crate::interp::call_procedure_stmt(
                    &self.engine,
                    name,
                    argv,
                    env,
                );
            }
        }
        Evaluator::new(&self.engine).eval(expr, env)
    }
}
