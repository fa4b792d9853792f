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
