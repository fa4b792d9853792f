//! Static validation of XQSE programs.
//!
//! The paper defines several constraints that are statically decidable
//! but which a naive interpreter only discovers at runtime (possibly
//! *after* earlier statements have caused side effects):
//!
//! - `break()`/`continue()` must appear inside a `while` or `iterate`
//!   body (§III.C.15) — `XQSE0003`;
//! - `set $v` may only target a variable introduced by a block
//!   variable declaration (§III.B.6) — `XQSE0001`;
//! - a block variable may not be referenced before its first
//!   assignment on *every* path (§III.B.5) — `XQSE0002` (we check the
//!   definite-assignment approximation: flag only uses where no
//!   assignment can possibly precede them);
//! - procedure calls inside expressions must target `readonly`
//!   procedures (§III.A) — `XQSE0004` (checkable for procedures
//!   declared in the same module).
//!
//! [`validate_module`] returns *all* violations, so IDE-style callers
//! (the paper's Figure 1 design view) can surface them together.

use std::collections::{HashMap, HashSet};

use xdm::error::{ErrorCode, XdmError};
use xdm::qname::QName;

use xqparser::ast::*;

/// A static diagnostic.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The error family this would raise at runtime.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    fn new(code: ErrorCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, message: message.into() }
    }

    /// Convert into a runtime-style error.
    pub fn into_error(self) -> XdmError {
        XdmError::new(self.code, self.message)
    }
}

/// Validate a whole module; returns every violation found.
pub fn validate_module(module: &Module) -> Vec<Diagnostic> {
    let mut v = Validator::new(module);
    for p in &module.prolog.procedures {
        if let Some(body) = &p.body {
            let mut scope = Scope::new();
            for param in &p.params {
                scope.declare_readonly(param.name.clone());
            }
            v.check_block(body, &mut scope, 0);
        }
    }
    for f in &module.prolog.functions {
        if let Some(body) = &f.body {
            let mut bound: HashSet<QName> =
                f.params.iter().map(|p| p.name.clone()).collect();
            v.check_expr(body, &mut bound);
        }
    }
    if let QueryBody::Block(b) = &module.body {
        let mut scope = Scope::new();
        v.check_block(b, &mut scope, 0);
    }
    if let QueryBody::Expr(e) = &module.body {
        let mut bound = HashSet::new();
        v.check_expr(e, &mut bound);
    }
    v.diagnostics
}

/// Validate and fail on the first violation (library convenience).
pub fn validate_module_strict(module: &Module) -> Result<(), XdmError> {
    match validate_module(module).into_iter().next() {
        None => Ok(()),
        Some(d) => Err(d.into_error()),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarState {
    /// Read-only binding (param, for/let, iterate var).
    ReadOnly,
    /// Block variable, definitely assigned.
    Assigned,
    /// Block variable declared without initializer, not yet assigned
    /// on any path.
    Unassigned,
}

struct Scope {
    frames: Vec<HashMap<QName, VarState>>,
}

impl Scope {
    fn new() -> Scope {
        Scope { frames: vec![HashMap::new()] }
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare_readonly(&mut self, name: QName) {
        self.frames.last_mut().expect("frame").insert(name, VarState::ReadOnly);
    }

    fn declare_block(&mut self, name: QName, initialized: bool) {
        self.frames.last_mut().expect("frame").insert(
            name,
            if initialized { VarState::Assigned } else { VarState::Unassigned },
        );
    }

    fn get(&self, name: &QName) -> Option<VarState> {
        self.frames.iter().rev().find_map(|f| f.get(name).copied())
    }

    /// Mark a block variable as assigned (innermost match).
    fn mark_assigned(&mut self, name: &QName) {
        for f in self.frames.iter_mut().rev() {
            if let Some(s) = f.get_mut(name) {
                if *s == VarState::Unassigned {
                    *s = VarState::Assigned;
                }
                return;
            }
        }
    }

    fn visible(&self) -> HashSet<QName> {
        self.frames.iter().flat_map(|f| f.keys().cloned()).collect()
    }
}

struct Validator<'m> {
    diagnostics: Vec<Diagnostic>,
    /// Procedures declared in this module: name/arity → readonly.
    procedures: HashMap<(QName, usize), bool>,
    /// Functions declared in this module (to avoid false procedure
    /// hits when a function shadows nothing).
    functions: HashSet<(QName, usize)>,
    _module: &'m Module,
}

impl<'m> Validator<'m> {
    fn new(module: &'m Module) -> Validator<'m> {
        Validator {
            diagnostics: Vec::new(),
            procedures: module
                .prolog
                .procedures
                .iter()
                .map(|p| ((p.name.clone(), p.params.len()), p.readonly))
                .collect(),
            functions: module
                .prolog
                .functions
                .iter()
                .map(|f| (f.name.clone(), f.params.len()))
                .collect(),
            _module: module,
        }
    }

    fn check_block(&mut self, block: &Block, scope: &mut Scope, loop_depth: usize) {
        scope.push();
        for d in &block.decls {
            if let Some(init) = &d.init {
                self.check_value_statement(init, scope);
            }
            scope.declare_block(d.var.clone(), d.init.is_some());
        }
        for s in &block.statements {
            self.check_statement(s, scope, loop_depth);
        }
        scope.pop();
    }

    fn check_statement(&mut self, s: &Statement, scope: &mut Scope, loop_depth: usize) {
        match s {
            Statement::Block(b) => self.check_block(b, scope, loop_depth),
            Statement::Set { var, value } => {
                self.check_value_statement(value, scope);
                match scope.get(var) {
                    Some(VarState::ReadOnly) => self.diagnostics.push(Diagnostic::new(
                        ErrorCode::XQSE0001,
                        format!("${var} is not a block variable and cannot be assigned"),
                    )),
                    Some(_) => scope.mark_assigned(var),
                    None => self.diagnostics.push(Diagnostic::new(
                        ErrorCode::XQSE0001,
                        format!("assignment to undeclared variable ${var}"),
                    )),
                }
            }
            Statement::Return(v) => self.check_value_statement(v, scope),
            Statement::If { cond, then, els } => {
                self.check_scoped_expr(cond, scope);
                // Branches may assign; conservatively treat post-state
                // as the meet — we only *report* definite errors, so
                // checking each branch against the pre-state is sound.
                self.check_statement(then, scope, loop_depth);
                if let Some(e) = els {
                    self.check_statement(e, scope, loop_depth);
                }
            }
            Statement::While { cond, body } => {
                self.check_scoped_expr(cond, scope);
                self.check_block(body, scope, loop_depth + 1);
            }
            Statement::Iterate { var, pos, over, body } => {
                self.check_value_statement(over, scope);
                scope.push();
                scope.declare_readonly(var.clone());
                if let Some(p) = pos {
                    scope.declare_readonly(p.clone());
                }
                self.check_block(body, scope, loop_depth + 1);
                scope.pop();
            }
            Statement::Try { body, catches } => {
                self.check_block(body, scope, loop_depth);
                for c in catches {
                    scope.push();
                    for v in &c.into_vars {
                        scope.declare_readonly(v.clone());
                    }
                    self.check_block(&c.body, scope, loop_depth);
                    scope.pop();
                }
            }
            Statement::Continue => {
                if loop_depth == 0 {
                    self.diagnostics.push(Diagnostic::new(
                        ErrorCode::XQSE0003,
                        "continue() outside a while/iterate body",
                    ));
                }
            }
            Statement::Break => {
                if loop_depth == 0 {
                    self.diagnostics.push(Diagnostic::new(
                        ErrorCode::XQSE0003,
                        "break() outside a while/iterate body",
                    ));
                }
            }
            Statement::Update(e) => self.check_scoped_expr(e, scope),
            Statement::ExprStatement(e) => {
                // Top-level procedure calls are fine in statement
                // position; check nested expressions.
                if let Expr::FunctionCall { args, .. } = e {
                    for a in args {
                        self.check_scoped_expr(a, scope);
                    }
                } else {
                    self.check_scoped_expr(e, scope);
                }
            }
            Statement::ProcedureBlock(b) => self.check_block(b, scope, 0),
        }
    }

    fn check_value_statement(&mut self, v: &ValueStatement, scope: &mut Scope) {
        match v {
            ValueStatement::ProcedureBlock(b) => self.check_block(b, scope, 0),
            ValueStatement::Expr(e) => {
                // Top-level procedure call allowed (§III.B.8 example).
                if let Expr::FunctionCall { args, .. } = e {
                    for a in args {
                        self.check_scoped_expr(a, scope);
                    }
                } else {
                    self.check_scoped_expr(e, scope);
                }
            }
        }
    }

    fn check_scoped_expr(&mut self, e: &Expr, scope: &Scope) {
        // Uninitialized-use check against the current scope state.
        let mut bound = scope.visible();
        // Variables that are declared-but-unassigned are *not* usable.
        for q in scope.visible() {
            if scope.get(&q) == Some(VarState::Unassigned) {
                bound.remove(&q);
                self.flag_use(e, &q);
            }
        }
        let mut b = bound;
        self.check_expr(e, &mut b);
    }

    fn flag_use(&mut self, e: &Expr, var: &QName) {
        let mut used = false;
        walk(e, &mut |x| {
            if matches!(x, Expr::VarRef(v) if v == var) {
                used = true;
            }
        });
        if used {
            self.diagnostics.push(Diagnostic::new(
                ErrorCode::XQSE0002,
                format!("block variable ${var} referenced before assignment"),
            ));
        }
    }

    /// Expression checks: side-effecting module-local procedures may
    /// not be called from (nested) expression positions.
    fn check_expr(&mut self, e: &Expr, _bound: &mut HashSet<QName>) {
        walk(e, &mut |x| {
            if let Expr::FunctionCall { name, args } = x {
                let key = (name.clone(), args.len());
                if !self.functions.contains(&key) {
                    if let Some(readonly) = self.procedures.get(&key) {
                        if !readonly {
                            self.diagnostics.push(Diagnostic::new(
                                ErrorCode::XQSE0004,
                                format!(
                                    "procedure {name} has side effects and cannot be \
                                     called from an expression"
                                ),
                            ));
                        }
                    }
                }
            }
        });
    }
}

/// Generic expression walker (pre-order).
fn walk(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    e.for_each_child(&mut |c| walk(c, f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqparser::parse_module;

    fn diag_codes(src: &str) -> Vec<ErrorCode> {
        let m = parse_module(src).unwrap();
        validate_module(&m)
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_programs_have_no_diagnostics() {
        for src in [
            "{ return value 1; }",
            "{ declare $x := 1; set $x := $x + 1; return value $x; }",
            "{ while (1 = 2) { break(); continue(); } }",
            "{ iterate $v over (1,2) { if ($v = 1) then break(); } }",
            "declare namespace t = \"urn:t\"; \
             declare readonly procedure t:p() { return value 1; }; \
             fn:sum(for $i in 1 to 3 return t:p())",
            "{ declare $x; set $x := 1; return value $x; }",
        ] {
            assert!(diag_codes(src).is_empty(), "spurious diagnostics for {src:?}");
        }
    }

    #[test]
    fn break_outside_loop_flagged() {
        assert_eq!(diag_codes("{ break(); }"), vec![ErrorCode::XQSE0003]);
        assert_eq!(diag_codes("{ continue(); }"), vec![ErrorCode::XQSE0003]);
        // Inside an if that is not inside a loop: still flagged.
        assert_eq!(
            diag_codes("{ if (1) then break(); }"),
            vec![ErrorCode::XQSE0003]
        );
        // A procedure block resets loop context (order of diagnostics
        // is discovery order: the break is found while evaluating the
        // value statement, before the set-target check).
        let mut codes =
            diag_codes("{ while (1=2) { set $x := procedure { break(); }; } }");
        codes.sort_by_key(|c| c.local());
        assert_eq!(codes, vec![ErrorCode::XQSE0001, ErrorCode::XQSE0003]);
    }

    #[test]
    fn assignment_violations_flagged() {
        // Undeclared target.
        assert_eq!(diag_codes("{ set $nope := 1; }"), vec![ErrorCode::XQSE0001]);
        // Iteration variables are read-only.
        assert_eq!(
            diag_codes("{ iterate $v over (1,2) { set $v := 3; } }"),
            vec![ErrorCode::XQSE0001]
        );
        // Procedure parameters are read-only.
        let src = "declare namespace t = \"urn:t\"; \
                   declare procedure t:p($a) { set $a := 1; };";
        assert_eq!(diag_codes(src), vec![ErrorCode::XQSE0001]);
    }

    #[test]
    fn use_before_assignment_flagged() {
        assert_eq!(
            diag_codes("{ declare $x; return value $x; }"),
            vec![ErrorCode::XQSE0002]
        );
        // Assignment on the LHS is not a use; a following use is fine.
        assert!(diag_codes("{ declare $x; set $x := 5; return value $x; }").is_empty());
        // Using the variable inside its own first assignment's RHS.
        assert_eq!(
            diag_codes("{ declare $x; set $x := $x + 1; }"),
            vec![ErrorCode::XQSE0002]
        );
    }

    #[test]
    fn impure_procedure_call_in_expression_flagged() {
        let src = "declare namespace t = \"urn:t\"; \
                   declare procedure t:mut() { return value 1; }; \
                   fn:sum(for $i in 1 to 3 return t:mut())";
        assert_eq!(diag_codes(src), vec![ErrorCode::XQSE0004]);
        // The same call at statement level is fine.
        let src = "declare namespace t = \"urn:t\"; \
                   declare procedure t:mut() { return value 1; }; \
                   { t:mut(); }";
        assert!(diag_codes(src).is_empty());
        // And as a top-level value statement (the §III.B.8 example).
        let src = "declare namespace t = \"urn:t\"; \
                   declare procedure t:mut() { return value 1; }; \
                   { declare $z; set $z := t:mut(); }";
        assert!(diag_codes(src).is_empty());
    }

    #[test]
    fn multiple_diagnostics_collected() {
        let src = "{ break(); set $a := 1; declare $b; }";
        // Note: decls syntactically precede statements, so write it
        // the grammar's way:
        let src2 = "{ declare $b; break(); set $a := $b; }";
        let _ = src;
        let codes = diag_codes(src2);
        assert!(codes.contains(&ErrorCode::XQSE0003));
        assert!(codes.contains(&ErrorCode::XQSE0001));
        assert!(codes.contains(&ErrorCode::XQSE0002));
    }

    #[test]
    fn strict_mode_fails_fast() {
        let m = parse_module("{ break(); }").unwrap();
        assert!(validate_module_strict(&m).is_err());
        let m = parse_module("{ return value 1; }").unwrap();
        assert!(validate_module_strict(&m).is_ok());
    }

    #[test]
    fn paper_use_cases_validate_cleanly() {
        let src = r#"
declare namespace tns = "ld:Employees";
declare namespace ens1 = "ld:emp1";
declare xqse function tns:getManagementChain($id as xs:string)
  as element(Employee)*
{
  declare $mgrs as element(Employee)* := ();
  declare $emp as element(Employee)? := ens1:getByEmployeeID($id);
  while (fn:not(fn:empty($emp))) {
    set $emp := ens1:getByEmployeeID($emp/ManagerID);
    set $mgrs := ($mgrs, $emp);
  }
  return value ($mgrs);
};
"#;
        assert!(diag_codes(src).is_empty());
    }
}
