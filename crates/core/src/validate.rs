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
//!   declared in the same module);
//! - every variable reference must name a variable in scope or a
//!   global the prolog declares — `XPST0008`.
//!
//! These are the diagnostics of the one walk that resolves a module's
//! names ([`xqeval::resolve`]): loading or preparing a module runs it
//! and fails on the first `XPST0008` or `XQSE0001`; [`validate_module`]
//! runs it with no engine and returns *all* violations, so IDE-style
//! callers (the paper's Figure 1 design view) can surface them
//! together.

use xdm::error::XdmError;

use xqparser::ast::Module;

pub use xqeval::resolve::Diagnostic;

/// Validate a whole module; returns every violation found.
pub fn validate_module(module: &Module) -> Vec<Diagnostic> {
    xqeval::resolve::diagnose_module(module)
}

/// Validate and fail on the first violation (library convenience).
pub fn validate_module_strict(module: &Module) -> Result<(), XdmError> {
    match validate_module(module).into_iter().next() {
        None => Ok(()),
        Some(d) => Err(d.into_error()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::error::ErrorCode;
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
