//! Table-driven language conformance suite: each case is an XQSE (or
//! plain XQuery) program plus its expected serialized result or
//! expected error code. Covers surface area that the per-crate unit
//! tests exercise only indirectly.

use xqse_repro::xmlparse::serialize_sequence;
use xqse_repro::xqse::Xqse;

fn check_ok(src: &str, expected: &str) {
    let xqse = Xqse::new();
    match xqse.run(src) {
        Ok(seq) => {
            let got = serialize_sequence(&seq);
            assert_eq!(got, expected, "program: {src}");
        }
        Err(e) => panic!("program failed: {src}\nerror: {e}"),
    }
}

fn check_err(src: &str, code_local: &str) {
    let xqse = Xqse::new();
    match xqse.run(src) {
        Ok(seq) => panic!(
            "expected error {code_local} but got {:?} for {src}",
            serialize_sequence(&seq)
        ),
        Err(e) => assert_eq!(e.code.local, code_local, "program: {src}\nerror: {e}"),
    }
}

macro_rules! conformance {
    ($($name:ident: $src:expr => $expected:expr;)*) => {
        $(#[test] fn $name() { check_ok($src, $expected); })*
    };
}

macro_rules! conformance_err {
    ($($name:ident: $src:expr => $code:expr;)*) => {
        $(#[test] fn $name() { check_err($src, $code); })*
    };
}

conformance! {
    // ------------------------------------------------------ sequences
    seq_flatten: "((1, 2), (), (3))" => "1 2 3";
    seq_range_desc_empty: "3 to 1" => "";
    seq_singleton_range: "4 to 4" => "4";
    // ---------------------------------------------------- arithmetic
    arith_precedence: "2 + 3 * 4 - 1" => "13";
    arith_unary_double_neg: "--5" => "5";
    arith_decimal_exact: "0.1 + 0.2 + 0.3" => "0.6";
    arith_idiv_negative: "-7 idiv 2" => "-3";
    arith_mod_negative: "-7 mod 2" => "-1";
    arith_double_inf: "1e0 div 0" => "INF";
    arith_double_neg_inf: "-1e0 div 0" => "-INF";
    arith_empty_propagates: "fn:count(() + 1)" => "0";
    // --------------------------------------------------- comparisons
    cmp_string_collation: "'apple' lt 'banana'" => "true";
    cmp_general_existential_empty: "() = ()" => "false";
    cmp_untyped_numeric: "<a>10</a> > 9" => "true";
    cmp_untyped_string: "<a>10</a> = '10'" => "true";
    cmp_value_empty_is_empty: "fn:count(() eq 1)" => "0";
    // `count(E) <op> N` stops pulling `E` past `floor(N) + 2` items; a
    // bound beyond the machine word must not wrap that cutoff.
    cmp_count_gt_huge_bound: "fn:count((1, 2, 3)) gt 1e20" => "false";
    cmp_count_lt_huge_bound: "fn:count((1, 2, 3)) lt 1e20" => "true";
    cmp_count_eq_huge_bound: "fn:count((1, 2, 3)) = 1e20" => "false";
    cmp_count_gt_huger_bound: "fn:count((1, 2, 3)) gt 1e300" => "false";
    cmp_count_lt_huger_bound: "fn:count((1, 2, 3)) lt 1e300" => "true";
    cmp_count_eq_huger_bound: "fn:count((1, 2, 3)) = 1e300" => "false";
    cmp_ne_nan: "fn:number('x') = fn:number('x')" => "false";
    // --------------------------------------------------------- logic
    logic_ebv_node: "if (<a/>) then 'y' else 'n'" => "y";
    logic_ebv_zero_string: "if ('0') then 'y' else 'n'" => "y";
    logic_ebv_empty_string: "if ('') then 'y' else 'n'" => "n";
    // --------------------------------------------------------- flwor
    flwor_let_shadowing: "for $x in 1 let $x := $x + 1 return $x" => "2";
    flwor_where_false_empty: "for $x in (1,2) where fn:false() return $x" => "";
    flwor_order_stable:
        "for $p in ('b1','a1','a2','b2') order by fn:substring($p,1,1) return $p"
        => "a1 a2 b1 b2";
    flwor_nested_positional:
        "for $x at $i in ('a','b') for $y at $j in ('c','d') \
         return fn:concat($i, $j)" => "11 12 21 22";
    // --------------------------------------------------------- paths
    path_attribute_exists: "fn:exists(<e id=\"1\"/>/@id)" => "true";
    path_text_node_count: "fn:count(<a>x<b/>y</a>/text())" => "2";
    path_descendant_or_self: "fn:count(<a><a><a/></a></a>/descendant-or-self::a)" => "3";
    path_union_order:
        "for $r in <r><a/><b/></r> \
         return fn:string-join(for $n in ($r/b | $r/a) return fn:local-name($n), ',')"
        => "a,b";
    path_predicate_last: "fn:string((<r><x>1</x><x>2</x></r>/x)[fn:last()])" => "2";
    path_parent_of_attr:
        "for $a in <e id=\"1\"/>/@id return fn:local-name($a/..)" => "e";
    // --------------------------------------------------- constructors
    ctor_nested_interpolation:
        "<o>{for $i in 1 to 2 return <i n=\"{$i}\"/>}</o>"
        => "<o><i n=\"1\"/><i n=\"2\"/></o>";
    ctor_attr_sequence_joined: "<e a=\"{1 to 3}\"/>" => "<e a=\"1 2 3\"/>";
    ctor_comment: "<a><!--note--></a>" => "<a><!--note--></a>";
    ctor_computed_nested:
        "element a { element b { attribute c { 1 } } }" => "<a><b c=\"1\"/></a>";
    ctor_text_between_exprs: "<a>{1}{2}</a>" => "<a>12</a>";
    // ----------------------------------------------------- functions
    fun_string_join_empty: "fn:string-join((), ',')" => "";
    fun_substring_clipping: "fn:substring('hello', 0, 2)" => "h";
    fun_substring_neg_len: "fn:substring('hello', 2, -1)" => "";
    // F&O 3.1 fn:substring examples; positions round as fn:round does.
    fun_substring_fo_to_end: "fn:substring('motor car', 6)" => " car";
    fun_substring_fo_middle: "fn:substring('metadata', 4, 3)" => "ada";
    fun_substring_fo_rounded: "fn:substring('12345', 1.5, 2.6)" => "234";
    fun_substring_fo_zero_start: "fn:substring('12345', 0, 3)" => "12";
    fun_substring_fo_neg_len: "fn:substring('12345', 5, -3)" => "";
    fun_substring_fo_neg_start: "fn:substring('12345', -3, 5)" => "1";
    fun_substring_fo_nan_start: "fn:substring('12345', 0 div 0E0, 3)" => "";
    fun_substring_fo_nan_len: "fn:substring('12345', 1, 0 div 0E0)" => "";
    fun_substring_fo_empty: "fn:substring((), 1, 3)" => "";
    fun_substring_fo_inf_len: "fn:substring('12345', -42, 1 div 0E0)" => "12345";
    fun_substring_fo_inf_both: "fn:substring('12345', -1 div 0E0, 1 div 0E0)" => "";
    fun_substring_half_start_rounds_up: "fn:substring('12345', -1.5, 4)" => "12";
    fun_subsequence_half_start_rounds_up: "fn:subsequence((1, 2, 3, 4, 5), -2.5, 5)" => "1 2";
    fun_avg_decimal: "fn:avg((1, 2))" => "1.5";
    fun_min_dates:
        "fn:string(fn:min((xs:date('2008-01-01'), xs:date('2007-12-07'))))"
        => "2007-12-07";
    fun_deep_equal_whitespace: "fn:deep-equal(<a>x</a>, <a>x </a>)" => "false";
    fun_index_of_none: "fn:count(fn:index-of((1,2,3), 9))" => "0";
    fun_tokenize_multichar: "fn:tokenize('a::b::c', '::')" => "a b c";
    fun_translate_delete: "fn:translate('abcd', 'bd', '')" => "ac";
    fun_name_functions:
        "for $e in <p:x xmlns:p=\"urn:p\"/> \
         return (fn:local-name($e), fn:namespace-uri($e))" => "x urn:p";
    fun_number_empty_nan: "fn:string(fn:number(()))" => "NaN";
    fun_round_half_up: "(fn:round(0.5), fn:round(1.5), fn:round(-0.5))" => "1 2 0";
    fun_round_double_just_below_half: "fn:round(0.49999999999999994e0)" => "0";
    fun_round_double_negative_tie: "fn:round(-2.5e0)" => "-2";
    fun_boolean_of_node: "fn:boolean(<a/>)" => "true";
    // --------------------------------------------------------- types
    ty_instance_sequence: "(1, 'a') instance of xs:integer*" => "false";
    ty_instance_mixed_item: "(1, 'a') instance of item()+" => "true";
    ty_castable_date: "'2007-02-29' castable as xs:date" => "false";
    ty_cast_chain: "fn:string(xs:integer(xs:string(42)))" => "42";
    ty_typeswitch_order:
        "typeswitch (1) case xs:double return 'd' case xs:decimal return 'dec' \
         default return 'o'" => "dec";
    // ---------------------------------------------------- statements
    stmt_nested_while:
        "{ declare $i := 0, $total := 0; \
           while ($i lt 3) { \
             declare $j := 0; \
             while ($j lt 3) { set $total := $total + 1; set $j := $j + 1; } \
             set $i := $i + 1; \
           } \
           return value $total; }" => "9";
    stmt_iterate_over_constructed:
        "{ declare $sum := 0; \
           iterate $n over <r><v>1</v><v>2</v><v>3</v></r>/v { \
             set $sum := $sum + fn:number($n); \
           } \
           return value $sum; }" => "6";
    stmt_try_in_loop_continues:
        "{ declare $ok := 0; \
           iterate $i over (1, 2, 3) { \
             try { if ($i = 2) then fn:error(xs:QName('E'), 'skip'); \
                   set $ok := $ok + 1; } \
             catch (*) { } \
           } \
           return value $ok; }" => "2";
    stmt_catch_zero_length_pattern:
        "{ declare $r := 'uncaught'; \
           try { set $r := fn:tokenize('abc', 'b*'); } \
           catch (err:FORX0003) { set $r := 'caught'; } \
           return value $r; }" => "caught";
    stmt_return_from_nested_block:
        "{ { { return value 'deep'; } } return value 'never'; }" => "deep";
    stmt_update_constructed_tree:
        "{ declare $d := <r><a>1</a></r>; \
           (rename node $d/a as 'z', replace value of node $d/a with '9'); \
           return value $d; }" => "<r><z>9</z></r>";
    stmt_if_without_else_noop:
        "{ declare $x := 1; if (2 lt 1) then set $x := 99; return value $x; }" => "1";
    stmt_procedure_block_scope:
        "{ declare $x := 1; \
           declare $y := procedure { declare $x := 10; return value $x * 2; }; \
           return value ($x, $y); }" => "1 20";
    stmt_while_cond_sees_updates:
        "{ declare $d := <r><i/><i/></r>; declare $n := 0; \
           while (fn:count($d/i) gt 0) { \
             delete node ($d/i)[1]; \
             set $n := $n + 1; \
           } \
           return value $n; }" => "2";
    // ----------------------------------------------------- procedures
    proc_multiple_params:
        "declare namespace t = \"urn:t\"; \
         declare readonly procedure t:clamp($v as xs:integer, $lo as xs:integer, \
                                            $hi as xs:integer) as xs:integer { \
           if ($v lt $lo) then return value $lo; \
           if ($v gt $hi) then return value $hi; \
           return value $v; \
         }; \
         (t:clamp(5, 1, 3), t:clamp(0, 1, 3), t:clamp(2, 1, 3))" => "3 1 2";
    proc_mutual_recursion:
        "declare namespace t = \"urn:t\"; \
         declare readonly procedure t:even($n as xs:integer) as xs:boolean { \
           if ($n = 0) then return value fn:true(); \
           return value t:odd($n - 1); \
         }; \
         declare readonly procedure t:odd($n as xs:integer) as xs:boolean { \
           if ($n = 0) then return value fn:false(); \
           return value t:even($n - 1); \
         }; \
         (t:even(10), t:odd(7))" => "true true";
    // ------------------------------------------------ xuf expressions
    xuf_insert_attributes:
        "{ declare $d := <e/>; \
           insert node (attribute a { 1 }, attribute b { 2 }) into $d; \
           return value $d; }" => "<e a=\"1\" b=\"2\"/>";
    xuf_transform_in_expression:
        "for $c in (copy $x := <v n=\"1\"/> \
                    modify rename node $x as 'w' \
                    return $x) \
         return fn:local-name($c)" => "w";
    xuf_delete_all_children:
        "{ declare $d := <r><a/><b/>text</r>; \
           delete nodes $d/node(); \
           return value fn:count($d/node()); }" => "0";
}

conformance_err! {
    err_div_by_zero: "1 div 0" => "FOAR0001";
    err_undefined_var: "$nope" => "XPST0008";
    err_unknown_function: "fn:nope()" => "XPST0017";
    err_type_in_arith: "'a' * 2" => "XPTY0004";
    err_cast_failure: "'abc' cast as xs:integer" => "FORG0001";
    err_treat_as: "(1,2) treat as xs:integer" => "XPDY0050";
    err_user_error_code:
        "{ fn:error(xs:QName('APP_ERR'), 'oops'); }" => "APP_ERR";
    err_updating_in_expression: "fn:count(delete node <a/>)" => "XUST0001";
    err_break_at_top: "{ break(); }" => "XQSE0003";
    err_set_readonly:
        "for $x in 1 return (for $y in ({ set $x := 2; return value 1; }) return $y)"
        => "XPST0003"; // blocks are not expressions: parse error
    err_uninitialized_use: "{ declare $x; return value fn:count($x); }" => "XQSE0002";
    err_assign_type_mismatch:
        "{ declare $x as xs:integer := 1; set $x := 'no'; }" => "XPTY0004";
    err_iterate_var_assignment:
        "{ iterate $v over (1,2) { set $v := 0; } }" => "XQSE0001";
    err_context_item_absent: "." => "XPDY0002";
    err_effective_boolean_multi: "if ((1,2)) then 1 else 2" => "FORG0006";
    err_tokenize_empty_pattern: "fn:tokenize('abc', '')" => "FORX0003";
    err_tokenize_zero_length_match: "fn:tokenize('abc', 'b*')" => "FORX0003";
    err_replace_empty_pattern: "fn:replace('abc', '', 'x')" => "FORX0003";
    err_replace_zero_length_match_on_empty_input: "fn:replace('', 'b*', 'x')" => "FORX0003";
    err_tokenize_invalid_pattern: "fn:tokenize('abc', '(')" => "FORX0002";
}

/// Statement/expression boundary: the same `while` text is a statement
/// in XQSE and has no value; `fn:trace` effects still happen in order.
#[test]
fn statement_effects_are_ordered() {
    let xqse = Xqse::new();
    let mut env = xqse_repro::xqeval::Env::new();
    let out = xqse
        .run_with_env(
            "{ declare $i := 0; \
               while ($i lt 3) { fn:trace(fn:concat('step', $i)); set $i := $i + 1; } \
               return value $i; }",
            &mut env,
        )
        .unwrap();
    assert_eq!(serialize_sequence(&out), "3");
    assert_eq!(env.trace_messages(), vec!["step0", "step1", "step2"]);
}

/// Static validation agrees with runtime on the conformance corpus.
#[test]
fn validator_consistent_with_runtime() {
    for (src, expect_static) in [
        ("{ break(); }", true),
        ("{ declare $x; return value $x; }", true),
        ("{ set $ghost := 1; }", true),
        ("{ declare $x := 1; set $x := 2; return value $x; }", false),
    ] {
        let module = xqse_repro::xqparser::parse_module(src).unwrap();
        let diags = xqse_repro::xqse::validate_module(&module);
        assert_eq!(
            !diags.is_empty(),
            expect_static,
            "validator disagreement on {src:?}: {diags:?}"
        );
    }
}

/// A user function's body sees its parameters and the prolog's
/// variables, never its caller's (XQuery 1.0 §4.15): not a `let`
/// binding around the call and not an XQSE block variable. The same
/// holds in XQueryP's sequential mode.
#[test]
fn a_function_body_sees_only_its_parameters_and_the_prolog() {
    let cases = [
        (
            "declare variable $x := 5; declare function local:f() { $x }; \
             let $x := 1 return local:f()",
            Ok("5"),
        ),
        ("declare function local:f() { $x }; let $x := 1 return local:f()", Err("XPST0008")),
        (
            "declare function local:f() { $b }; { declare $b := 7; return value local:f(); }",
            Err("XPST0008"),
        ),
    ];
    for (src, expected) in cases {
        let engine = std::rc::Rc::new(xqse_repro::xqeval::Engine::new());
        let xqueryp = xqse_repro::xqse::xqueryp::XqueryP::with_engine(engine);
        for (mode, got) in [("xqse", Xqse::new().run(src)), ("xqueryp", xqueryp.run(src))] {
            let got = got.map(|s| serialize_sequence(&s)).map_err(|e| e.code.local.to_string());
            assert_eq!(got.as_deref().map_err(String::as_str), expected, "{mode}: {src}");
        }
    }
}

/// Programs whose names do not resolve fail when they are loaded or
/// prepared, before any statement runs: an undefined variable is
/// XPST0008, and a `set` of anything but a block variable is XQSE0001.
/// XQSE's grammar puts no statement where a `let` variable is in
/// scope, so the `set` cases target the read-only bindings a statement
/// can see: an `iterate` variable, a procedure parameter, a global.
#[test]
fn unresolved_names_fail_before_anything_runs() {
    use std::rc::Rc;
    use xqse_repro::xdm::error::XdmResult;
    use xqse_repro::xdm::sequence::Sequence;
    use xqse_repro::xqeval::{Engine, Env};
    use xqse_repro::xqse::xqueryp::XqueryP;

    let cases = [
        ("declare function local:f() { $x }; let $x := 1 return local:f()", "XPST0008"),
        (
            "declare function local:f() { $b }; { declare $b := 7; return value local:f(); }",
            "XPST0008",
        ),
        (
            "{ declare $i := 0; while ($i lt 3) { set $i := $i + 1; fn:trace($i, 'step'); } \
             return value $nope; }",
            "XPST0008",
        ),
        ("declare function local:f($a) { $a + $b }; fn:trace(1, 'ran')", "XPST0008"),
        (
            "declare variable $g := fn:trace(1, 'initializer'); \
             declare procedure local:p() { return value $missing; }; 1",
            "XPST0008",
        ),
        ("{ fn:trace(1, 'ran'); iterate $v over (1, 2) { set $v := 3; } }", "XQSE0001"),
        ("declare procedure local:p($a) { set $a := 1; }; fn:trace(1, 'ran')", "XQSE0001"),
        ("declare variable $g := 1; { fn:trace(1, 'ran'); set $g := 2; }", "XQSE0001"),
        ("{ fn:trace(1, 'ran'); set $ghost := 1; }", "XQSE0001"),
    ];
    for (src, code) in cases {
        let engine = Engine::new();
        let err = engine.prepare(src).map(|_| ()).unwrap_err();
        assert_eq!(err.code.local, code, "prepare: {src}: {err}");
        let err = Engine::new().load(src).map(|_| ()).unwrap_err();
        assert_eq!(err.code.local, code, "load: {src}: {err}");
        let xqueryp = XqueryP::with_engine(Rc::new(Engine::new()));
        type Run<'a> = &'a dyn Fn(&mut Env) -> XdmResult<Sequence>;
        let modes: [(&str, Run); 2] = [
            ("xqse", &|env| Xqse::new().run_with_env(src, env)),
            ("xqueryp", &|env| xqueryp.run_with_env(src, env)),
        ];
        for (mode, run) in modes {
            let mut env = Env::new();
            let err = run(&mut env).unwrap_err();
            assert_eq!(err.code.local, code, "{mode}: {src}: {err}");
            assert!(env.trace_messages().is_empty(), "{mode} ran something: {src}");
        }
    }
}

/// A procedure that inserts a row and then reads an undefined variable
/// fails with XPST0008 when its module loads: the insert never runs.
#[test]
fn an_undefined_variable_after_an_insert_leaves_the_table_unchanged() {
    let f = xqse_bench::etl_space(3);
    let prolog = "declare namespace emp2 = \"ld:backup/EMP2\"; \
                  declare namespace t = \"urn:t\"; \
                  declare procedure t:copy() { \
                    emp2:createEMP2(<EMP2><EmpId>1</EmpId></EMP2>); \
                    return value $nope; };";
    for src in [format!("{prolog} {{ return value t:copy(); }}"), format!("{prolog} 1")] {
        let err = f.space.xqse().run(&src).unwrap_err();
        assert_eq!(err.code.local, "XPST0008", "{src}: {err}");
        assert_eq!(f.dst.row_count("EMP2").unwrap(), 0, "{src}");
    }
    // The same insert with the variable defined does land.
    let ok = "declare namespace emp2 = \"ld:backup/EMP2\"; \
              { emp2:createEMP2(<EMP2><EmpId>1</EmpId></EMP2>); return value 1; }";
    f.space.xqse().run(ok).unwrap();
    assert_eq!(f.dst.row_count("EMP2").unwrap(), 1);
}

/// A call site is bound to its registry entry, not to what the entry
/// held when the module was loaded: a function registered after the
/// module loads can be called from it, a plan prepared before an
/// external is registered again calls the new registration, and
/// another engine running the plan calls its own.
#[test]
fn call_sites_follow_the_registry() {
    use std::rc::Rc;
    use xqse_repro::xdm::qname::QName;
    use xqse_repro::xdm::sequence::{Item, Sequence};
    use xqse_repro::xqeval::{Engine, ExternalFn};

    let engine = Engine::new();
    let late = QName::with_ns("urn:x", "late");
    engine
        .load("declare namespace x = \"urn:x\"; declare function local:g() { x:late(2) };")
        .unwrap();
    let err = engine.eval_expr_str("local:g()", &[]).unwrap_err();
    assert_eq!(err.code.local, "XPST0017", "nothing registered yet: {err}");
    let times = |k: i64| -> ExternalFn {
        Rc::new(move |_, args| {
            let n = args[0].items()[0].atomize().string_value().parse::<i64>().unwrap();
            Ok(Sequence::one(Item::integer(n * k)))
        })
    };
    engine.register_external_function(late.clone(), 1, times(10));
    assert_eq!(serialize_sequence(&engine.eval_expr_str("local:g()", &[]).unwrap()), "20");

    let plan = engine.prepare("declare namespace x = \"urn:x\"; x:late(3)").unwrap();
    assert_eq!(serialize_sequence(&engine.execute_prepared(&plan).unwrap()), "30");
    engine.register_external_function(late.clone(), 1, times(100));
    assert_eq!(serialize_sequence(&engine.execute_prepared(&plan).unwrap()), "300");

    // The binding belongs to the engine that made it: another engine
    // running the same plan calls its own registration.
    let other = Engine::new();
    other.register_external_function(late, 1, times(7));
    assert_eq!(serialize_sequence(&other.execute_prepared(&plan).unwrap()), "21");
}

/// Near-miss pairs for the plan cache's shape rule: (a, b, whether they
/// are one shape). Texts share a plan only when they differ in nothing
/// but the values of their query body's literals; a literal's type, the
/// prolog, a direct constructor's text and attributes, comments and
/// whitespace are all part of the shape.
const NEAR_MISSES: &[(&str, &str, bool)] = &[
    // A slot's value.
    ("1 + 2", "3 + 40", true),
    ("fn:concat('a', \"b\")", "fn:concat('it''s', \"&amp;&#65;\")", true),
    ("(1.5, 2e0, .5)", "(0.25, 1e3, 7.)", true),
    ("for $i in (1, 2, 3) where $i gt 1 return <r>{$i * 2}</r>", "for $i in (1, 2, 3) where $i gt 2 return <r>{$i * 5}</r>", true),
    ("(10, 20, 30)[2]", "(10, 20, 30)[7]", true),
    ("fn:count(1 to 10) gt 3", "fn:count(1 to 10) gt 30", true),
    ("xs:integer('12') + 1", "xs:integer('x') + 1", true),
    ("1 idiv 2", "1 idiv 0", true),
    ("<a n='v'>{'x'}{1}</a>", "<a n='v'>{'yy'}{22}</a>", true),
    ("{ declare $x := 1; return value $x + 0.5; }", "{ declare $x := 9; return value $x + 2.5; }", true),
    ("declare variable $p := 10; $p + 1", "declare variable $p := 10; $p + 2", true),
    // A literal's type.
    ("1", "1.0", false),
    ("1", "'1'", false),
    ("1.0", "1e0", false),
    ("(1, 2)[1]", "(1, 2)[1.0]", false),
    // A prolog literal.
    ("declare variable $x := 1; $x", "declare variable $x := 2; $x", false),
    ("declare function local:f() { 1 }; local:f()", "declare function local:f() { 2 }; local:f()", false),
    // Constructor text, or an attribute value.
    ("<a>1</a>", "<a>2</a>", false),
    ("<a b='1'/>", "<a b='2'/>", false),
    // A comment.
    ("1 (: 1 :)", "1 (: 2 :)", false),
    // Whitespace inside a constructor, or around a token.
    ("<a>x {1}</a>", "<a>x  {1}</a>", false),
    ("1 + 2", "1  + 2", false),
    // A text the lexer cannot read is cached by its exact text.
    ("(<a>it's</a>, 1)", "(<a>it's</a>, 2)", false),
    // So is one whose slot is no literal token: the lexer reads the
    // attribute value `"{'x'}"` as one string.
    ("<a n=\"{'x'}\"/>", "<a n=\"{'yy'}\"/>", false),
    // A literal beyond its type fails to lex, so it misses, and its
    // parse reports XPST0003.
    ("1 + 1", "99999999999999999999 + 1", false),
    ("1.5 + 1", "1.000000000000000000000000000000000000000001 + 1", false),
];

/// Each near-miss pair runs in both orders on one engine and one `Env`,
/// and each text's result or error code must be what a verbatim parse
/// of it gives on an engine with every layer off. With the plan cache
/// on, a pair of one shape is parsed once.
#[test]
fn texts_of_one_shape_share_a_plan_and_near_misses_do_not() {
    use xqse_repro::xqeval::{Env, Features};
    let outcome = |xqse: &Xqse, src: &str, env: &mut Env| match xqse.run_with_env(src, env) {
        Ok(seq) => Ok(serialize_sequence(&seq)),
        Err(e) => Err(e.code.local.to_string()),
    };
    let verbatim = |src: &str| {
        let xqse = Xqse::new();
        xqse.engine().set_features(Features::NONE);
        outcome(&xqse, src, &mut Env::new())
    };
    for &(a, b, shared) in NEAR_MISSES {
        for (first, second) in [(a, b), (b, a)] {
            let xqse = Xqse::new();
            let mut env = Env::new();
            for src in [first, second] {
                assert_eq!(outcome(&xqse, src, &mut env), verbatim(src), "{src} after {first}");
            }
            let s = xqse.engine().opt_stats();
            if xqse.engine().features().batching() {
                let misses = if shared { 1 } else { 2 };
                assert_eq!((s.plan_misses, s.plan_hits), (misses, 2 - misses), "{first} / {second}");
            }
        }
    }
}
