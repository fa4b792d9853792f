//! Statement-engine tests: one or more tests per normative sentence of
//! §III.B/§III.C, plus the paper's verbatim programs.

use std::cell::RefCell;
use std::rc::Rc;

use xdm::atomic::AtomicValue;
use xdm::error::ErrorCode;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use xqeval::context::Env;
use xqeval::Features;

use crate::interp::Xqse;
use crate::xqueryp::XqueryP;

fn run(src: &str) -> Sequence {
    Xqse::new().run(src).unwrap()
}

fn run_err(src: &str) -> xdm::error::XdmError {
    Xqse::new().run(src).unwrap_err()
}

fn ints(seq: &Sequence) -> Vec<i64> {
    seq.atomized()
        .iter()
        .map(|a| match a {
            AtomicValue::Integer(i) => *i,
            AtomicValue::Untyped(s) => s.parse().unwrap(),
            other => panic!("not an integer: {other:?}"),
        })
        .collect()
}

fn s(seq: &Sequence) -> String {
    xmlparse::serialize_sequence(seq)
}

// ------------------------------------------------------------ block

#[test]
fn hello_world() {
    // §III.B.7, verbatim (lowercased keywords).
    let out = run("{ return value \"Hello, World\"; }");
    assert_eq!(s(&out), "Hello, World");
}

#[test]
fn block_without_return_is_empty_sequence() {
    // "If the block statement constitutes the Query Body, and no
    // return statement is executed, then the result of the query is an
    // empty sequence."
    assert!(run("{ declare $x := 1; set $x := 2; }").is_empty());
}

#[test]
fn block_decls_execute_in_order() {
    // "each block variable declaration (if any) is executed once in
    // the order written" — $y can use $x.
    let out = run("{ declare $x := 10, $y := $x + 5; return value $y; }");
    assert_eq!(ints(&out), vec![15]);
}

#[test]
fn decl_scope_excludes_its_initializer() {
    // "The scope of the variable is the remainder of the Block, not
    // including its initializing statement."
    let e = run_err("{ declare $x := $x; return value $x; }");
    assert!(e.is(ErrorCode::XPST0008));
}

#[test]
fn untyped_decl_is_item_star() {
    let out = run("{ declare $x := (1, 'two', <three/>); return value fn:count($x); }");
    assert_eq!(ints(&out), vec![3]);
}

#[test]
fn typed_decl_checks_initializer() {
    let e = run_err("{ declare $x as xs:integer := 'nope'; }");
    assert!(e.is(ErrorCode::XPTY0004));
}

#[test]
fn uninitialized_variable_reference_is_error() {
    // "Any reference to such a variable, other than on the
    // left-hand-side of an assignment statement, is an error until it
    // has been initially assigned to."
    let e = run_err("{ declare $x; return value $x; }");
    assert!(e.is(ErrorCode::XQSE0002));
    // But assigning first is fine.
    let out = run("{ declare $x; set $x := 7; return value $x; }");
    assert_eq!(ints(&out), vec![7]);
}

#[test]
fn nested_blocks_scope() {
    let out = run(
        "{ declare $x := 1; \
           { declare $x := 2; set $x := 3; } \
           return value $x; }",
    );
    assert_eq!(ints(&out), vec![1]);
}

#[test]
fn inner_block_can_assign_outer_variable() {
    let out = run("{ declare $x := 1; { set $x := 2; } return value $x; }");
    assert_eq!(ints(&out), vec![2]);
}

// -------------------------------------------------------------- set

#[test]
fn set_replaces_value() {
    let out = run("{ declare $x := 1; set $x := $x + 1; set $x := $x * 10; return value $x; }");
    assert_eq!(ints(&out), vec![20]);
}

#[test]
fn set_type_mismatch_is_error_and_keeps_old_value() {
    // "The typed value returned by the value statement must match the
    // declared type of the variable … if not, an error is raised."
    let e = run_err("{ declare $x as xs:integer := 1; set $x := 'no'; }");
    assert!(e.is(ErrorCode::XPTY0004));
    // "If the value statement raises an error, the variable is left in
    // its previous state and the error is propagated."
    let out = run(
        "{ declare $x as xs:integer := 1; \
           try { set $x := fn:error(xs:QName('B'), 'boom'); } \
           catch (*) { } \
           return value $x; }",
    );
    assert_eq!(ints(&out), vec![1]);
}

#[test]
fn set_undeclared_is_xqse0001() {
    assert!(run_err("{ set $nope := 1; }").is(ErrorCode::XQSE0001));
}

// ------------------------------------------------------------ while

#[test]
fn while_loop_from_paper() {
    // §III.B.10 example, observable through $y.
    let out = run(
        "{ declare $y, $x := 3; \
           set $y := (); \
           while ($x lt 100) { \
             set $y := ($y, $x); \
             set $x := $x * 2; \
           } \
           return value $y; }",
    );
    assert_eq!(ints(&out), vec![3, 6, 12, 24, 48, 96]);
}

#[test]
fn while_false_never_executes() {
    let out = run(
        "{ declare $n := 0; while (1 = 2) { set $n := 99; } return value $n; }",
    );
    assert_eq!(ints(&out), vec![0]);
}

#[test]
fn while_statement_returns_no_value() {
    // XQSE: loop body values are discarded (vs XQueryP, below).
    let out = run("{ declare $x := 0; while ($x lt 3) { set $x := $x + 1; } }");
    assert!(out.is_empty());
}

#[test]
fn break_stops_loop() {
    let out = run(
        "{ declare $x := 0; \
           while (fn:true()) { \
             set $x := $x + 1; \
             if ($x ge 5) then break(); \
           } \
           return value $x; }",
    );
    assert_eq!(ints(&out), vec![5]);
}

#[test]
fn continue_skips_rest_of_body() {
    let out = run(
        "{ declare $x := 0, $sum := 0; \
           while ($x lt 6) { \
             set $x := $x + 1; \
             if ($x mod 2 = 1) then continue(); \
             set $sum := $sum + $x; \
           } \
           return value $sum; }",
    );
    assert_eq!(ints(&out), vec![12]); // 2 + 4 + 6
}

#[test]
fn break_outside_loop_is_error() {
    assert!(run_err("{ break(); }").is(ErrorCode::XQSE0003));
    assert!(run_err("{ continue(); }").is(ErrorCode::XQSE0003));
}

#[test]
fn return_inside_loop_exits_everything() {
    let out = run(
        "{ declare $x := 0; \
           while (fn:true()) { \
             set $x := $x + 1; \
             if ($x eq 3) then return value $x; \
           } \
           return value -1; }",
    );
    assert_eq!(ints(&out), vec![3]);
}

// ---------------------------------------------------------- iterate

#[test]
fn iterate_with_positional_variable() {
    let out = run(
        "{ declare $acc := (); \
           iterate $v at $i over ('a', 'b', 'c') { \
             set $acc := ($acc, fn:concat($i, ':', $v)); \
           } \
           return value $acc; }",
    );
    assert_eq!(s(&out), "1:a 2:b 3:c");
}

#[test]
fn iterate_binding_sequence_evaluated_once() {
    // Mutating $src inside the loop does not change the iteration.
    let out = run(
        "{ declare $src := (1, 2, 3), $n := 0; \
           iterate $v over $src { \
             set $src := (); \
             set $n := $n + 1; \
           } \
           return value $n; }",
    );
    assert_eq!(ints(&out), vec![3]);
}

#[test]
fn iterate_break_and_continue() {
    let out = run(
        "{ declare $acc := (); \
           iterate $v over (1, 2, 3, 4, 5) { \
             if ($v eq 2) then continue(); \
             if ($v eq 4) then break(); \
             set $acc := ($acc, $v); \
           } \
           return value $acc; }",
    );
    assert_eq!(ints(&out), vec![1, 3]);
}

#[test]
fn iterate_over_empty_is_noop() {
    let out = run("{ declare $n := 0; iterate $v over () { set $n := 1; } return value $n; }");
    assert_eq!(ints(&out), vec![0]);
}

#[test]
fn iteration_variable_is_not_assignable() {
    let e = run_err("{ iterate $v over (1, 2) { set $v := 9; } }");
    assert!(e.is(ErrorCode::XQSE0001));
}

// --------------------------------------------------------------- if

#[test]
fn if_statement_branches() {
    let out = run(
        "{ declare $r := ''; \
           if (1 lt 2) then set $r := 'yes'; else set $r := 'no'; \
           return value $r; }",
    );
    assert_eq!(s(&out), "yes");
    let out = run(
        "{ declare $r := 'unset'; \
           if (2 lt 1) then set $r := 'yes'; \
           return value $r; }",
    );
    assert_eq!(s(&out), "unset");
}

// -------------------------------------------------------- try/catch

#[test]
fn try_catch_from_paper_semantics() {
    // §III.B.13 example shape: error caught, vars bound, value
    // returned from the handler.
    let out = run(
        "{ declare $y := 0, $x := 0; \
           try { \
             set $x := $y div 0; \
             return value $x; \
           } catch (*:* into $e, $m) { \
             fn:trace($e, $m); \
             return value \"Error\"; \
           } \
         }",
    );
    assert_eq!(s(&out), "Error");
}

#[test]
fn catch_matches_specific_code_first() {
    let out = run(
        "{ try { fn:error(xs:QName('MINE'), 'mine!'); } \
           catch (OTHER) { return value 'other'; } \
           catch (MINE into $c, $m) { return value $m; } \
           catch (*) { return value 'wild'; } \
         }",
    );
    assert_eq!(s(&out), "mine!");
}

#[test]
fn catch_wildcard_families() {
    // *:local matches any-namespace code with that local name.
    let out = run(
        "{ try { fn:error(xs:QName('X'), 'm'); } \
           catch (*:X) { return value 'bylocal'; } }",
    );
    assert_eq!(s(&out), "bylocal");
    // err:* matches the err namespace (div by zero → err:FOAR0001).
    let out = run(
        "{ try { return value 1 div 0; } \
           catch (err:*) { return value 'errns'; } }",
    );
    assert_eq!(s(&out), "errns");
}

#[test]
fn unmatched_error_propagates() {
    let e = run_err(
        "{ try { fn:error(xs:QName('A'), 'nope'); } \
           catch (B) { return value 'no'; } }",
    );
    assert_eq!(e.code, QName::new("A"));
}

#[test]
fn try_side_effects_are_not_rolled_back() {
    // "Such side effects are not 'rolled back'."
    let out = run(
        "{ declare $x := 0; \
           try { set $x := 1; fn:error(xs:QName('E'), 'e'); set $x := 2; } \
           catch (*) { } \
           return value $x; }",
    );
    assert_eq!(ints(&out), vec![1]);
}

#[test]
fn catch_into_three_variables() {
    let out = run(
        "{ try { fn:error(xs:QName('C'), 'msg', ('d1', 'd2')); } \
           catch (* into $code, $msg, $diag) { \
             return value (fn:string($code), $msg, fn:count($diag)); \
           } }",
    );
    assert_eq!(s(&out), "C msg 2");
}

// ------------------------------------------------------- procedures

#[test]
fn procedure_declaration_and_call() {
    let xqse = Xqse::new();
    let out = xqse
        .run(
            "declare namespace t = \"urn:t\"; \
             declare procedure t:add($a as xs:integer, $b as xs:integer) as xs:integer { \
               return value $a + $b; \
             }; \
             { return value t:add(19, 23); }",
        )
        .unwrap();
    assert_eq!(ints(&out), vec![42]);
}

#[test]
fn procedure_without_return_yields_empty() {
    // "If no Return statement is executed when the last statement in
    // the Block is reached, the return value will instead be an empty
    // sequence."
    let out = run(
        "declare namespace t = \"urn:t\"; \
         declare procedure t:noop() { declare $x := 1; set $x := 2; }; \
         { declare $r; set $r := t:noop(); return value fn:count($r); }",
    );
    assert_eq!(ints(&out), vec![0]);
}

#[test]
fn procedure_return_type_checked() {
    let e = run_err(
        "declare namespace t = \"urn:t\"; \
         declare procedure t:bad() as xs:integer { return value 'str'; }; \
         { return value t:bad(); }",
    );
    assert!(e.is(ErrorCode::XQSE0005));
}

#[test]
fn procedures_do_not_see_caller_locals() {
    let e = run_err(
        "declare namespace t = \"urn:t\"; \
         declare procedure t:peek() { return value $secret; }; \
         { declare $secret := 42; return value t:peek(); }",
    );
    assert!(e.is(ErrorCode::XPST0008));
}

#[test]
fn readonly_procedure_callable_from_expression() {
    // An "XQSE function": readonly, so usable inside XQuery exprs.
    let out = run(
        "declare namespace t = \"urn:t\"; \
         declare readonly procedure t:sq($n as xs:integer) as xs:integer { \
           return value $n * $n; \
         }; \
         fn:sum(for $i in 1 to 3 return t:sq($i))",
    );
    assert_eq!(ints(&out), vec![14]);
}

#[test]
fn xqse_function_syntax_is_readonly_procedure() {
    let out = run(
        "declare namespace t = \"urn:t\"; \
         declare xqse function t:twice($n) { return value ($n, $n) ; }; \
         fn:count(t:twice('a'))",
    );
    assert_eq!(ints(&out), vec![2]);
}

#[test]
fn side_effecting_procedure_rejected_in_expression_context() {
    // §III.A: "Procedure calls cannot be used in place of function
    // calls in an XQuery expression unless the called procedure is
    // annotated as having no side effects."
    let e = run_err(
        "declare namespace t = \"urn:t\"; \
         declare procedure t:impure() { return value 1; }; \
         fn:sum(for $i in 1 to 3 return t:impure())",
    );
    assert!(e.is(ErrorCode::XQSE0004));
}

#[test]
fn side_effecting_procedure_ok_as_value_statement() {
    // But the §III.B.8 example does exactly this at statement level:
    // `set $z := ns:myprocedure($y);`.
    let out = run(
        "declare namespace t = \"urn:t\"; \
         declare procedure t:impure($y) { return value $y * 2; }; \
         { declare $z; set $z := t:impure(21); return value $z; }",
    );
    assert_eq!(ints(&out), vec![42]);
}

#[test]
fn procedure_call_as_statement() {
    let xqse = Xqse::new();
    let count = Rc::new(RefCell::new(0));
    let c2 = count.clone();
    xqse.engine().register_external_procedure(
        QName::with_ns("urn:x", "tick"),
        0,
        false,
        Rc::new(move |_env, _args| {
            *c2.borrow_mut() += 1;
            Ok(Sequence::empty())
        }),
    );
    xqse.run(
        "declare namespace x = \"urn:x\"; \
         { x:tick(); x:tick(); x:tick(); }",
    )
    .unwrap();
    assert_eq!(*count.borrow(), 3);
}

#[test]
fn procedure_arity_checked() {
    let e = run_err(
        "declare namespace t = \"urn:t\"; \
         declare procedure t:one($a) { return value $a; }; \
         { t:one(1, 2); }",
    );
    assert!(e.is(ErrorCode::XPST0017));
}

#[test]
fn recursive_procedure() {
    let out = run(
        "declare namespace t = \"urn:t\"; \
         declare readonly procedure t:fib($n as xs:integer) as xs:integer { \
           if ($n le 1) then return value $n; \
           return value t:fib($n - 1) + t:fib($n - 2); \
         }; \
         { return value t:fib(12); }",
    );
    assert_eq!(ints(&out), vec![144]);
}

// -------------------------------------------------- procedure blocks

#[test]
fn procedure_block_as_value_statement() {
    let out = run(
        "{ declare $x := procedure { \
             declare $t := 20; \
             return value $t + 1; \
           }; \
           return value $x * 2; }",
    );
    assert_eq!(ints(&out), vec![42]);
}

#[test]
fn procedure_block_without_return_is_empty() {
    // §III.C.16: "If the last statement in the body is executed, and
    // it is not a return statement, then the value of the Procedure
    // Block is an empty sequence."
    let out = run("{ declare $x := procedure { declare $t := 1; }; return value fn:count($x); }");
    assert_eq!(ints(&out), vec![0]);
}

#[test]
fn return_in_procedure_block_does_not_exit_outer() {
    // "If a return statement is executed within a Procedure Block
    // statement, then further execution of the sequence of statements
    // in the procedure block is interrupted" — only the block.
    let out = run(
        "{ declare $x := procedure { return value 1; return value 2; }; \
           return value ($x, 'after'); }",
    );
    assert_eq!(s(&out), "1 after");
}

// ---------------------------------------------------- update statement

#[test]
fn update_statement_snapshot_semantics() {
    // §III.C.14: all changes applied at statement end, visible to
    // subsequent statements.
    let out = run(
        "{ declare $d := <r><a>1</a><b>2</b></r>; \
           delete node $d/a; \
           return value fn:count($d/*); }",
    );
    assert_eq!(ints(&out), vec![1]);
}

#[test]
fn update_statement_multiple_primitives() {
    let out = run(
        "{ declare $d := <r><a>1</a></r>; \
           (insert node <b>2</b> into $d, replace value of node $d/a with '9'); \
           return value ($d/a, $d/b); }",
    );
    assert_eq!(s(&out), "<a>9</a><b>2</b>");
}

#[test]
fn updates_inside_value_statement_are_rejected() {
    // A value statement "must return an empty pending update list".
    let e = run_err("{ declare $d := <r><a/></r>; set $d := delete node $d/a; }");
    assert!(e.is(ErrorCode::XUST0001));
}

#[test]
fn update_visible_to_following_while_condition() {
    let out = run(
        "{ declare $d := <r><item/><item/><item/></r>, $n := 0; \
           while (fn:exists($d/item)) { \
             delete node ($d/item)[1]; \
             set $n := $n + 1; \
           } \
           return value $n; }",
    );
    assert_eq!(ints(&out), vec![3]);
}

// --------------------------------------------------------- use cases

/// Use case 2 (§III.D.2): the management chain, with an in-memory org
/// source registered as an external function.
fn org_xqse(depth: usize) -> Xqse {
    let xqse = Xqse::new();
    // Employee i is managed by i+1; the top employee has no manager.
    let employees: Vec<Item> = (0..=depth)
        .map(|i| {
            let mgr = if i == depth {
                String::new()
            } else {
                format!("<ManagerID>{}</ManagerID>", i + 1)
            };
            let xml = format!(
                "<Employee><EmployeeID>{i}</EmployeeID><Name>emp{i}</Name>{mgr}</Employee>"
            );
            Item::Node(xmlparse::parse(&xml).unwrap().children()[0].clone())
        })
        .collect();
    let all = Sequence::from_items(employees);
    xqse.engine().register_external_function(
        QName::with_ns("ld:emp1", "getByEmployeeID"),
        1,
        Rc::new(move |_env, args| {
            let id = args[0].string_value()?;
            Ok(all
                .iter()
                .find(|e| match e {
                    Item::Node(n) => {
                        n.children()
                            .iter()
                            .any(|c| {
                                c.name().map(|q| q.local) == Some("EmployeeID".into())
                                    && c.string_value() == id
                            })
                    }
                    _ => false,
                })
                .cloned()
                .map(Sequence::one)
                .unwrap_or_default())
        }),
    );
    xqse
}

const MGMT_CHAIN: &str = r#"
declare namespace tns = "ld:Employees";
declare namespace ens1 = "ld:emp1";
declare xqse function tns:getManagementChain($id as xs:string)
  as element(Employee)*
{
  declare $mgrs as element(Employee)*;
  declare $emp as element(Employee)? := ens1:getByEmployeeID($id);
  set $mgrs := ();
  while (fn:not(fn:empty($emp))) {
    set $emp := ens1:getByEmployeeID($emp/ManagerID);
    set $mgrs := ($mgrs, $emp);
  }
  return value ($mgrs);
};
{ return value tns:getManagementChain('0'); }
"#;

#[test]
fn use_case_2_management_chain() {
    let xqse = org_xqse(4);
    let out = xqse.run(MGMT_CHAIN).unwrap();
    // Managers of employee 0 are employees 1..=4.
    assert_eq!(out.len(), 4);
    let names: Vec<String> = out
        .iter()
        .map(|e| match e {
            Item::Node(n) => n
                .children()
                .iter()
                .find(|c| c.name().map(|q| q.local) == Some("Name".into()))
                .unwrap()
                .string_value(),
            _ => panic!(),
        })
        .collect();
    assert_eq!(names, vec!["emp1", "emp2", "emp3", "emp4"]);
}

#[test]
fn use_case_2_chain_is_callable_from_xquery() {
    // Readonly, so callable as a plain function from XQuery.
    let xqse = org_xqse(3);
    let src = MGMT_CHAIN.replace(
        "{ return value tns:getManagementChain('0'); }",
        "fn:count(tns:getManagementChain('0'))",
    );
    let out = xqse.run(&src).unwrap();
    assert_eq!(ints(&out), vec![3]);
}

/// Use case 3 (§III.D.3): ETL lite — iterate + transform + per-row
/// create against a sink procedure.
#[test]
fn use_case_3_etl_lite() {
    let xqse = Xqse::new();
    let rows: Vec<Item> = (0..5)
        .map(|i| {
            let xml = format!(
                "<Employee><EmployeeID>{i}</EmployeeID>\
                 <Name>First{i} Last{i}</Name><DeptNo>D{i}</DeptNo>\
                 <ManagerID>0</ManagerID></Employee>"
            );
            Item::Node(xmlparse::parse(&xml).unwrap().children()[0].clone())
        })
        .collect();
    let all = Sequence::from_items(rows);
    xqse.engine().register_external_function(
        QName::with_ns("ld:emp1", "getAll"),
        0,
        Rc::new(move |_e, _a| Ok(all.clone())),
    );
    xqse.engine().register_external_function(
        QName::with_ns("ld:emp1", "getByEmployeeID"),
        1,
        Rc::new(|_e, _a| {
            let xml = "<Employee><Name>The Boss</Name></Employee>";
            Ok(Sequence::one(Item::Node(
                xmlparse::parse(xml).unwrap().children()[0].clone(),
            )))
        }),
    );
    let sink: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let sink2 = sink.clone();
    xqse.engine().register_external_procedure(
        QName::with_ns("ld:emp2", "createEMP2"),
        1,
        false,
        Rc::new(move |_env, args| {
            for it in args[0].iter() {
                if let Item::Node(n) = it {
                    sink2.borrow_mut().push(xmlparse::serialize(n));
                }
            }
            Ok(Sequence::empty())
        }),
    );
    let src = r#"
declare namespace tns = "ld:Employees";
declare namespace ens1 = "ld:emp1";
declare namespace emp2 = "ld:emp2";
declare function tns:transformToEMP2($emp as element(Employee)?)
  as element(EMP2)?
{
  for $emp1 in $emp return <EMP2>
    <EmpId>{fn:data($emp1/EmployeeID)}</EmpId>
    <FirstName>{fn:tokenize(fn:data($emp1/Name),' ')[1]}</FirstName>
    <LastName>{fn:tokenize(fn:data($emp1/Name),' ')[2]}</LastName>
    <MgrName>{fn:data(ens1:getByEmployeeID($emp1/ManagerID)/Name)}</MgrName>
    <Dept>{fn:data($emp1/DeptNo)}</Dept>
  </EMP2>
};
declare procedure tns:copyAllToEMP2() as xs:integer
{
  declare $backupCnt as xs:integer := 0;
  declare $emp2 as element(EMP2)?;
  iterate $emp1 over ens1:getAll() {
    set $emp2 := tns:transformToEMP2($emp1);
    emp2:createEMP2($emp2);
    set $backupCnt := $backupCnt + 1;
  }
  return value ($backupCnt);
};
{ return value tns:copyAllToEMP2(); }
"#;
    let out = xqse.run(src).unwrap();
    assert_eq!(ints(&out), vec![5]);
    let created = sink.borrow();
    assert_eq!(created.len(), 5);
    assert!(created[0].contains("<FirstName>First0</FirstName>"));
    assert!(created[0].contains("<LastName>Last0</LastName>"));
    assert!(created[0].contains("<MgrName>The Boss</MgrName>"));
}

/// Use case 4 (§III.D.4): replicating create with error wrapping.
#[test]
fn use_case_4_replicating_create_error_wrapping() {
    let xqse = Xqse::new();
    // Primary create succeeds; secondary fails → the procedure wraps
    // the failure into SECONDARY_CREATE_FAILURE.
    xqse.engine().register_external_procedure(
        QName::with_ns("urn:p", "createPrimary"),
        1,
        false,
        Rc::new(|_e, _a| Ok(Sequence::empty())),
    );
    xqse.engine().register_external_procedure(
        QName::with_ns("urn:p", "createSecondary"),
        1,
        false,
        Rc::new(|_e, _a| {
            Err(xdm::error::XdmError::new(
                ErrorCode::DSP0003,
                "unique key violated",
            ))
        }),
    );
    let src = r#"
declare namespace t = "urn:t";
declare namespace p = "urn:p";
declare procedure t:create($newEmps as element(Employee)*)
{
  iterate $newEmp over $newEmps {
    try { p:createPrimary($newEmp); }
    catch (* into $err, $msg) {
      fn:error(xs:QName("PRIMARY_CREATE_FAILURE"),
        fn:concat("Primary create failed due to: ", $err, $msg));
    };
    try { p:createSecondary($newEmp); }
    catch (* into $err, $msg) {
      fn:error(xs:QName("SECONDARY_CREATE_FAILURE"),
        fn:concat("Backup create failed due to: ", $err, $msg));
    };
  }
};
{ t:create(<Employee><Name>X</Name></Employee>); }
"#;
    let e = xqse.run(src).unwrap_err();
    assert_eq!(e.code, QName::new("SECONDARY_CREATE_FAILURE"));
    assert!(e.message.contains("unique key violated"));
}

// ---------------------------------------------------- XQueryP mode

#[test]
fn xqueryp_while_returns_concatenation() {
    // The §IV semantic difference: "Even a While loop returns a value
    // in XQueryP — it returns the concatenation of the results from
    // the repeated sequential evaluation of its body expression."
    let src = "{ declare $x := 0; \
                while ($x lt 3) { \
                  set $x := $x + 1; \
                  fn:string($x); \
                } }";
    // XQSE: statement values are discarded.
    let xqse_out = Xqse::new().run(src).unwrap();
    assert!(xqse_out.is_empty());
    // XQueryP sequential mode: values concatenate.
    let xp = XqueryP::with_engine(Rc::new(xqeval::Engine::new()));
    let xp_out = xp.run(src).unwrap();
    assert_eq!(s(&xp_out), "1 2 3");
}

#[test]
fn xqueryp_block_concatenates_statement_values() {
    let xp = XqueryP::with_engine(Rc::new(xqeval::Engine::new()));
    let out = xp.run("{ 'a'; 'b'; 'c'; }").unwrap();
    assert_eq!(s(&out), "a b c");
}

#[test]
fn xqueryp_disables_optimizer_during_run() {
    let engine = Rc::new(xqeval::Engine::new());
    // A caller's own feature set, not the default one.
    let callers = Features { graft: false, ..Features::ALL };
    engine.set_features(callers);
    let seen = Rc::new(RefCell::new(None));
    {
        let (seen, features) = (seen.clone(), engine.features_handle());
        engine.register_external_function(
            QName::with_ns("urn:probe", "features"),
            0,
            Rc::new(move |_env, _args| {
                *seen.borrow_mut() = Some(features.get());
                Ok(Sequence::empty())
            }),
        );
    }
    let xp = XqueryP::with_engine(engine.clone());
    xp.run("declare namespace p = 'urn:probe'; { p:features(); }").unwrap();
    // Sequential mode runs with `opt` and `join` off, and leaves the
    // rest of the caller's set alone…
    assert_eq!(*seen.borrow(), Some(Features { opt: false, join: false, ..callers }));
    // …then restores the caller's exact set.
    assert_eq!(engine.features(), callers);
}

#[test]
fn xqueryp_and_xqse_agree_on_final_state() {
    // For programs whose result is read from a variable, both models
    // agree — the difference is only in what loops *return*.
    let src = "{ declare $sum := 0; \
                iterate $i over (1 to 10) { set $sum := $sum + $i; } \
                return value $sum; }";
    let a = Xqse::new().run(src).unwrap();
    let xp = XqueryP::with_engine(Rc::new(xqeval::Engine::new()));
    let b = xp.run(src).unwrap();
    assert_eq!(ints(&a), vec![55]);
    // XQueryP's block value includes the return value.
    assert_eq!(ints(&b), vec![55]);
}

// ------------------------------------------------------------- misc

#[test]
fn trace_statement_effects_visible() {
    let xqse = Xqse::new();
    let mut env = Env::new();
    xqse.run_with_env(
        "{ declare $x := 3; while ($x lt 100) { fn:trace($x); set $x := $x * 4; } }",
        &mut env,
    )
    .unwrap();
    assert_eq!(env.trace_messages(), vec!["3", "12", "48"]);
}

#[test]
fn expression_body_still_works() {
    let out = run("for $i in 1 to 3 return $i * $i");
    assert_eq!(ints(&out), vec![1, 4, 9]);
}

#[test]
fn sequential_visibility_between_statements() {
    // §III.A: "the subsequent execution of another statement … will
    // observe the results of any side effects, variable bindings, and
    // changes to the dynamic context from the statements that precede
    // it."
    let xqse = Xqse::new();
    let log: Rc<RefCell<Vec<i64>>> = Rc::new(RefCell::new(Vec::new()));
    let l2 = log.clone();
    let counter = Rc::new(RefCell::new(0i64));
    xqse.engine().register_external_procedure(
        QName::with_ns("urn:x", "next"),
        0,
        false,
        Rc::new(move |_env, _args| {
            let mut c = counter.borrow_mut();
            *c += 1;
            l2.borrow_mut().push(*c);
            Ok(Sequence::one(Item::integer(*c)))
        }),
    );
    let out = xqse
        .run(
            "declare namespace x = \"urn:x\"; \
             { declare $a; declare $b; \
               set $a := x:next(); set $b := x:next(); \
               return value ($a, $b); }",
        )
        .unwrap();
    assert_eq!(ints(&out), vec![1, 2]);
    assert_eq!(*log.borrow(), vec![1, 2]);
}
