//! Evaluator test suite: expressions end to end through parser +
//! engine, including the paper-adjacent behaviours (joins, updates,
//! readonly-procedure enforcement).

use std::rc::Rc;

use xdm::atomic::AtomicValue;
use xdm::error::ErrorCode;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use xmlparse::{parse, serialize, serialize_sequence};

use crate::context::Env;
use crate::engine::Engine;
use crate::update::Pul;

fn ev(src: &str) -> Sequence {
    Engine::new().eval_expr_str(src, &[]).unwrap()
}

fn ev_err(src: &str) -> xdm::error::XdmError {
    Engine::new().eval_expr_str(src, &[]).unwrap_err()
}

fn as_string(seq: &Sequence) -> String {
    serialize_sequence(seq)
}

fn ints(seq: &Sequence) -> Vec<i64> {
    seq.atomized()
        .iter()
        .map(|a| match a {
            AtomicValue::Integer(i) => *i,
            other => panic!("not an integer: {other:?}"),
        })
        .collect()
}

// -------------------------------------------------------------- basics

#[test]
fn arithmetic() {
    assert_eq!(ints(&ev("1 + 2 * 3")), vec![7]);
    assert_eq!(ints(&ev("(1 + 2) * 3")), vec![9]);
    assert_eq!(ints(&ev("7 idiv 2")), vec![3]);
    assert_eq!(ints(&ev("7 mod 2")), vec![1]);
    assert_eq!(as_string(&ev("7 div 2")), "3.5");
    assert_eq!(as_string(&ev("1 div 4")), "0.25");
    assert_eq!(ints(&ev("-(3)")), vec![-3]);
    assert_eq!(as_string(&ev("0.1 + 0.2")), "0.3"); // exact decimals
    assert_eq!(as_string(&ev("1e0 div 0e0")), "INF");
}

#[test]
fn arithmetic_with_empty_is_empty() {
    assert!(ev("() + 1").is_empty());
    assert!(ev("1 * ()").is_empty());
    assert!(ev("-()").is_empty());
}

#[test]
fn arithmetic_errors() {
    assert!(ev_err("1 div 0").is(ErrorCode::FOAR0001));
    assert!(ev_err("1 idiv 0").is(ErrorCode::FOAR0001));
    assert!(ev_err("'a' + 1").is(ErrorCode::XPTY0004));
    assert!(ev_err("9223372036854775807 + 1").is(ErrorCode::FOAR0002));
}

#[test]
fn untyped_arithmetic_becomes_double() {
    // Node content is untyped; arithmetic coerces via double.
    let out = ev("<n>4</n> + 1");
    assert_eq!(as_string(&out), "5");
    assert!(matches!(out.atomized()[0], AtomicValue::Double(_)));
}

#[test]
fn comparisons_general_existential() {
    assert_eq!(as_string(&ev("(1, 2, 3) = 2")), "true");
    assert_eq!(as_string(&ev("(1, 2, 3) = 9")), "false");
    assert_eq!(as_string(&ev("(1, 2) != (1, 2)")), "true"); // existential!
    assert_eq!(as_string(&ev("() = 1")), "false");
    assert_eq!(as_string(&ev("(1, 5) > (4, 4)")), "true");
}

#[test]
fn comparisons_value() {
    assert_eq!(as_string(&ev("1 eq 1")), "true");
    assert_eq!(as_string(&ev("1 lt 2")), "true");
    assert_eq!(as_string(&ev("'a' lt 'b'")), "true");
    assert!(ev("() eq 1").is_empty());
    assert!(ev_err("(1,2) eq 1").is(ErrorCode::XPTY0004));
}

#[test]
fn logic_and_ebv() {
    assert_eq!(as_string(&ev("1 and 'x'")), "true");
    assert_eq!(as_string(&ev("0 or ()")), "false");
    assert_eq!(as_string(&ev("fn:not(0)")), "true");
    // Short-circuit: the error operand is never evaluated.
    assert_eq!(as_string(&ev("fn:false() and (1 div 0)")), "false");
    assert_eq!(as_string(&ev("fn:true() or (1 div 0)")), "true");
}

#[test]
fn ranges_and_sequences() {
    assert_eq!(ints(&ev("1 to 5")), vec![1, 2, 3, 4, 5]);
    assert!(ev("5 to 1").is_empty());
    assert_eq!(ints(&ev("(1, (2, 3), ())")), vec![1, 2, 3]);
}

#[test]
fn if_expression() {
    assert_eq!(ints(&ev("if (1 lt 2) then 10 else 20")), vec![10]);
    assert_eq!(ints(&ev("if (()) then 10 else 20")), vec![20]);
}

// --------------------------------------------------------------- FLWOR

#[test]
fn flwor_for_let_where_return() {
    assert_eq!(
        ints(&ev("for $x in (1, 2, 3, 4) where $x mod 2 = 0 return $x * 10")),
        vec![20, 40]
    );
    assert_eq!(
        ints(&ev("for $x in (1, 2) let $y := $x + 10 return $y")),
        vec![11, 12]
    );
}

#[test]
fn flwor_positional_variable() {
    assert_eq!(
        as_string(&ev("for $x at $i in ('a', 'b') return fn:concat($i, $x)")),
        "1a 2b"
    );
}

#[test]
fn flwor_nested_for_cross_product() {
    assert_eq!(
        ints(&ev("for $x in (1, 2), $y in (10, 20) return $x + $y")),
        vec![11, 21, 12, 22]
    );
}

#[test]
fn flwor_order_by() {
    assert_eq!(ints(&ev("for $x in (3, 1, 2) order by $x return $x")), vec![1, 2, 3]);
    assert_eq!(
        ints(&ev("for $x in (3, 1, 2) order by $x descending return $x")),
        vec![3, 2, 1]
    );
    // empty least vs greatest (the key is empty for $x = 0).
    let key = "(if ($x = 0) then () else $x)";
    assert_eq!(
        ints(&ev(&format!(
            "for $x in (2, 0, 1) order by {key} return $x"
        ))),
        vec![0, 1, 2]
    );
    assert_eq!(
        ints(&ev(&format!(
            "for $x in (2, 0, 1) order by {key} empty greatest return $x"
        ))),
        vec![1, 2, 0]
    );
}

#[test]
fn flwor_order_by_two_keys() {
    assert_eq!(
        as_string(&ev(
            "for $x in ('b1', 'a2', 'a1') \
             order by fn:substring($x, 1, 1), fn:substring($x, 2, 1) descending \
             return $x"
        )),
        "a2 a1 b1"
    );
}

#[test]
fn flwor_let_type_check() {
    assert!(ev_err("for $x in 1 let $y as xs:string := 5 return $y")
        .is(ErrorCode::XPTY0004));
}

#[test]
fn quantified_expressions() {
    assert_eq!(as_string(&ev("some $x in (1, 2, 3) satisfies $x gt 2")), "true");
    assert_eq!(as_string(&ev("every $x in (1, 2, 3) satisfies $x gt 2")), "false");
    assert_eq!(as_string(&ev("every $x in () satisfies fn:false()")), "true");
    assert_eq!(as_string(&ev("some $x in () satisfies fn:true()")), "false");
    assert_eq!(
        as_string(&ev("some $x in (1, 2), $y in (2, 3) satisfies $x eq $y")),
        "true"
    );
}

#[test]
fn typeswitch_dispatch() {
    assert_eq!(
        as_string(&ev(
            "typeswitch (5) case xs:string return 'str' \
             case xs:integer return 'int' default return 'other'"
        )),
        "int"
    );
    assert_eq!(
        as_string(&ev(
            "typeswitch (<a/>) case element() return 'elem' default return 'other'"
        )),
        "elem"
    );
    assert_eq!(
        as_string(&ev(
            "typeswitch ('x') case $i as xs:integer return $i \
             default $d return fn:concat($d, '!')"
        )),
        "x!"
    );
}

// ---------------------------------------------------------------- paths

#[test]
fn paths_over_constructed_trees() {
    let src = "<o><i><n>1</n></i><i><n>2</n></i></o>/i/n";
    assert_eq!(as_string(&ev(src)), "<n>1</n><n>2</n>");
}

#[test]
fn attribute_axis() {
    assert_eq!(as_string(&ev("fn:data(<e a=\"7\"/>/@a)")), "7");
    assert!(ev("<e/>/@nope").is_empty());
}

#[test]
fn descendant_axis() {
    assert_eq!(as_string(&ev("fn:count(<a><b><c/></b><c/></a>//c)")), "2");
}

#[test]
fn predicates_positional_and_boolean() {
    assert_eq!(ints(&ev("(10, 20, 30)[2]")), vec![20]);
    assert_eq!(ints(&ev("(10, 20, 30)[. gt 15]")), vec![20, 30]);
    assert_eq!(ints(&ev("(10, 20, 30)[fn:position() lt 3]")), vec![10, 20]);
    assert_eq!(ints(&ev("(10, 20, 30)[fn:last()]")), vec![30]);
    // The paper's tokenize()[1] pattern.
    assert_eq!(as_string(&ev("fn:tokenize('Michael Carey', ' ')[2]")), "Carey");
}

#[test]
fn path_predicates_with_position() {
    assert_eq!(as_string(&ev("<r><x>a</x><x>b</x><x>c</x></r>/x[2]")), "<x>b</x>");
}

#[test]
fn parent_and_sibling_axes() {
    let q = "for $c in <r><a/><b/><c/></r>/b \
             return fn:local-name($c/following-sibling::*)";
    assert_eq!(as_string(&ev(q)), "c");
    let q = "for $c in <r><a/><b/></r>/b return fn:local-name($c/..)";
    assert_eq!(as_string(&ev(q)), "r");
}

#[test]
fn path_document_order_and_dedup() {
    let q = "for $r in <r><a/><b/></r> return fn:count(($r/a, $r/a) | $r/b)";
    assert_eq!(as_string(&ev(q)), "2");
}

#[test]
fn wildcard_and_kind_steps() {
    assert_eq!(as_string(&ev("fn:count(<r><a/><b/></r>/*)")), "2");
    assert_eq!(as_string(&ev("fn:string(<r>hi<a/></r>/text())")), "hi");
}

#[test]
fn set_operators_on_nodes() {
    let q = "for $r in <r><a/><b/><c/></r> \
             let $all := $r/*, $bs := $r/b \
             return fn:count($all except $bs)";
    assert_eq!(as_string(&ev(q)), "2");
    let q = "for $r in <r><a/><b/></r> return fn:count($r/* intersect $r/b)";
    assert_eq!(as_string(&ev(q)), "1");
}

#[test]
fn node_identity_comparisons() {
    assert_eq!(as_string(&ev("for $r in <r><a/></r> return $r/a is $r/a")), "true");
    assert_eq!(as_string(&ev("<a/> is <a/>")), "false");
    assert_eq!(
        as_string(&ev("for $r in <r><a/><b/></r> return $r/a << $r/b")),
        "true"
    );
}

// --------------------------------------------------------- constructors

#[test]
fn direct_constructor_shapes() {
    assert_eq!(as_string(&ev("<a x=\"1\">hi</a>")), "<a x=\"1\">hi</a>");
    assert_eq!(as_string(&ev("<a>{1 + 1}</a>")), "<a>2</a>");
    assert_eq!(as_string(&ev("<a>{1, 2, 3}</a>")), "<a>1 2 3</a>");
    assert_eq!(as_string(&ev("<a b=\"{2 + 3}\"/>")), "<a b=\"5\"/>");
    assert_eq!(as_string(&ev("<a>x{0}y</a>")), "<a>x0y</a>");
}

#[test]
fn constructor_copies_content_nodes() {
    // Content nodes are copied: the constructed child is a different
    // node identity from the original.
    let q = "for $n in <n>v</n> return (<w>{$n}</w>/n is $n)";
    assert_eq!(as_string(&ev(q)), "false");
}

#[test]
fn computed_constructors_build_nodes() {
    assert_eq!(as_string(&ev("element foo { 1 + 1 }")), "<foo>2</foo>");
    assert_eq!(as_string(&ev("element { fn:concat('a', 'b') } { }")), "<ab/>");
    assert_eq!(
        as_string(&ev("element e { attribute id { 7 }, 'body' }")),
        "<e id=\"7\">body</e>"
    );
    assert_eq!(as_string(&ev("document { <r/> }")), "<r/>");
}

#[test]
fn attribute_after_content_is_error() {
    assert!(ev_err("element e { 'body', attribute id { 7 } }").is(ErrorCode::XPTY0004));
}

#[test]
fn constructed_namespaces_serialize() {
    let q = "<t:a xmlns:t=\"urn:t\"><t:b/></t:a>";
    assert_eq!(as_string(&ev(q)), "<t:a xmlns:t=\"urn:t\"><t:b/></t:a>");
}

// ------------------------------------------------------------ functions

#[test]
fn builtin_function_coverage() {
    // strings
    assert_eq!(as_string(&ev("fn:concat('a', 1, 'b')")), "a1b");
    assert_eq!(as_string(&ev("fn:string-join(('a','b','c'), '-')")), "a-b-c");
    assert_eq!(as_string(&ev("fn:substring('hello', 2, 3)")), "ell");
    assert_eq!(as_string(&ev("fn:upper-case('aBc')")), "ABC");
    assert_eq!(as_string(&ev("fn:contains('hello', 'ell')")), "true");
    assert_eq!(as_string(&ev("fn:starts-with('hello', 'he')")), "true");
    assert_eq!(as_string(&ev("fn:substring-before('a=b', '=')")), "a");
    assert_eq!(as_string(&ev("fn:substring-after('a=b', '=')")), "b");
    assert_eq!(as_string(&ev("fn:normalize-space('  a   b ')")), "a b");
    assert_eq!(as_string(&ev("fn:translate('abc', 'abc', 'xyz')")), "xyz");
    assert_eq!(as_string(&ev("fn:string-length('héllo')")), "5");
    // sequences
    assert_eq!(as_string(&ev("fn:count((1,2,3))")), "3");
    assert_eq!(as_string(&ev("fn:empty(())")), "true");
    assert_eq!(as_string(&ev("fn:exists(())")), "false");
    assert_eq!(ints(&ev("fn:reverse((1,2,3))")), vec![3, 2, 1]);
    assert_eq!(ints(&ev("fn:distinct-values((1, 2, 1, 3))")), vec![1, 2, 3]);
    assert_eq!(ints(&ev("fn:insert-before((1,3), 2, 2)")), vec![1, 2, 3]);
    assert_eq!(ints(&ev("fn:remove((1,2,3), 2)")), vec![1, 3]);
    assert_eq!(ints(&ev("fn:subsequence((1,2,3,4), 2, 2)")), vec![2, 3]);
    assert_eq!(ints(&ev("fn:index-of((10,20,10), 10)")), vec![1, 3]);
    // aggregates
    assert_eq!(as_string(&ev("fn:sum((1,2,3))")), "6");
    assert_eq!(as_string(&ev("fn:sum(())")), "0");
    assert_eq!(as_string(&ev("fn:avg((1,2,3,4))")), "2.5");
    assert_eq!(as_string(&ev("fn:min((3,1,2))")), "1");
    assert_eq!(as_string(&ev("fn:max(('a','c','b'))")), "c");
    // numerics
    assert_eq!(as_string(&ev("fn:abs(-5)")), "5");
    assert_eq!(as_string(&ev("fn:floor(2.7)")), "2");
    assert_eq!(as_string(&ev("fn:ceiling(2.1)")), "3");
    assert_eq!(as_string(&ev("fn:round(2.5)")), "3");
    assert_eq!(as_string(&ev("fn:round(-2.5)")), "-2");
    assert_eq!(as_string(&ev("fn:number('12.5')")), "12.5");
    assert_eq!(as_string(&ev("fn:number('zzz')")), "NaN");
    // cardinality
    assert!(ev_err("fn:zero-or-one((1,2))").is(ErrorCode::FORG0003));
    assert!(ev_err("fn:one-or-more(())").is(ErrorCode::FORG0004));
    assert!(ev_err("fn:exactly-one(())").is(ErrorCode::FORG0005));
    // regex family
    assert_eq!(as_string(&ev("fn:matches('abc123', '[0-9]+')")), "true");
    assert_eq!(as_string(&ev("fn:replace('a1b2', '[0-9]', '#')")), "a#b#");
    assert_eq!(as_string(&ev("fn:tokenize('one two', ' ')")), "one two");
    // deep-equal
    assert_eq!(
        as_string(&ev("fn:deep-equal(<a><b>1</b></a>, <a><b>1</b></a>)")),
        "true"
    );
    assert_eq!(as_string(&ev("fn:deep-equal(<a>1</a>, <a>2</a>)")), "false");
    // codepoints
    assert_eq!(as_string(&ev("fn:codepoints-to-string((104, 105))")), "hi");
    assert_eq!(ints(&ev("fn:string-to-codepoints('hi')")), vec![104, 105]);
    // QNames
    assert_eq!(
        as_string(&ev("fn:local-name-from-QName(fn:QName('urn:x', 'p:l'))")),
        "l"
    );
    // dates (engine-fixed clock)
    assert_eq!(as_string(&ev("fn:current-date()")), "2007-12-07");
}

#[test]
fn fn_error_and_codes() {
    let e = ev_err("fn:error()");
    assert!(e.is(ErrorCode::FOER0000));
    let e = ev_err("fn:error(xs:QName('OOPS'), 'went wrong')");
    assert_eq!(e.code, QName::new("OOPS"));
    assert_eq!(e.message, "went wrong");
    let e = ev_err("fn:error(xs:QName('E'), 'm', ('d1', 'd2'))");
    assert_eq!(e.diagnostics, vec!["d1", "d2"]);
}

#[test]
fn fn_trace_collects_into_env() {
    let engine = Engine::new();
    let expr = xqparser::parser::parse_expr("fn:trace('ping')", &[]).unwrap();
    let mut env = Env::new();
    let out = engine.eval_in(&expr, &mut env).unwrap();
    assert_eq!(as_string(&out), "ping");
    assert_eq!(env.trace_messages(), vec!["ping"]);
}

#[test]
fn user_functions_and_recursion() {
    let engine = Engine::new();
    engine
        .load(
            "declare function local:fact($n as xs:integer) as xs:integer { \
               if ($n le 1) then 1 else $n * local:fact($n - 1) \
             };",
        )
        .unwrap();
    let out = engine.eval_expr_str("local:fact(10)", &[]).unwrap();
    assert_eq!(ints(&out), vec![3628800]);
}

#[test]
fn user_function_type_checks() {
    let engine = Engine::new();
    engine
        .load("declare function local:f($n as xs:integer) as xs:string { $n };")
        .unwrap();
    assert!(engine
        .eval_expr_str("local:f(1)", &[])
        .unwrap_err()
        .is(ErrorCode::XPTY0004));
    assert!(engine
        .eval_expr_str("local:f('x')", &[])
        .unwrap_err()
        .is(ErrorCode::XPTY0004));
}

#[test]
fn external_functions_bind_sources() {
    let engine = Engine::new();
    let name = QName::with_ns("urn:src", "numbers");
    engine.register_external_function(
        name,
        0,
        Rc::new(|_env, _args| {
            Ok(Sequence::from_items(vec![Item::integer(5), Item::integer(6)]))
        }),
    );
    let out = engine
        .eval_expr_str("fn:sum(s:numbers())", &[("s", "urn:src")])
        .unwrap();
    assert_eq!(ints(&out), vec![11]);
}

#[test]
fn unknown_function_is_xpst0017() {
    assert!(ev_err("fn:nosuch(1)").is(ErrorCode::XPST0017));
    assert!(ev_err("fn:count()").is(ErrorCode::XPST0017));
}

#[test]
fn side_effecting_procedure_rejected_in_expressions() {
    let engine = Engine::new();
    let name = QName::with_ns("urn:p", "mutate");
    engine.register_external_procedure(
        name,
        0,
        false, // not readonly
        Rc::new(|_env, _args| Ok(Sequence::empty())),
    );
    let err = engine
        .eval_expr_str("p:mutate()", &[("p", "urn:p")])
        .unwrap_err();
    assert!(err.is(ErrorCode::XQSE0004));
}

#[test]
fn readonly_external_procedure_callable_from_expression() {
    let engine = Engine::new();
    let name = QName::with_ns("urn:p", "pure");
    engine.register_external_procedure(
        name,
        1,
        true,
        Rc::new(|_env, args| Ok(args.into_iter().next().unwrap())),
    );
    let out = engine.eval_expr_str("p:pure(42)", &[("p", "urn:p")]).unwrap();
    assert_eq!(ints(&out), vec![42]);
}

// ------------------------------------------------------- types & casts

#[test]
fn instance_of_and_treat_as() {
    assert_eq!(as_string(&ev("5 instance of xs:integer")), "true");
    assert_eq!(as_string(&ev("5 instance of xs:string")), "false");
    assert_eq!(as_string(&ev("(1,2) instance of xs:integer+")), "true");
    assert_eq!(as_string(&ev("() instance of empty-sequence()")), "true");
    assert_eq!(as_string(&ev("<a/> instance of element(a)")), "true");
    assert_eq!(as_string(&ev("<a/> instance of element(b)")), "false");
    assert_eq!(ints(&ev("5 treat as xs:integer")), vec![5]);
    assert!(ev_err("'x' treat as xs:integer").is(ErrorCode::XPDY0050));
}

#[test]
fn cast_and_castable() {
    assert_eq!(ints(&ev("'42' cast as xs:integer")), vec![42]);
    assert_eq!(as_string(&ev("'42' castable as xs:integer")), "true");
    assert_eq!(as_string(&ev("'x' castable as xs:integer")), "false");
    assert!(ev("() cast as xs:integer?").is_empty());
    assert!(ev_err("() cast as xs:integer").is(ErrorCode::XPTY0004));
    assert_eq!(as_string(&ev("'2007-12-07' cast as xs:date")), "2007-12-07");
}

// ------------------------------------------------------------- updates

#[test]
fn updating_expression_outside_statement_is_xust0001() {
    let e = ev_err("delete node <a/>");
    assert!(e.is(ErrorCode::XUST0001));
    let e = ev_err("for $x in <r><a/></r> return delete node $x/a");
    assert!(e.is(ErrorCode::XUST0001));
}

#[test]
fn updates_with_open_pul_accumulate_and_apply() {
    let engine = Engine::new();
    let doc = parse("<r><a>1</a><b>2</b></r>").unwrap();
    let root = doc.children()[0].clone();
    engine.register_document("mem:doc", doc);
    let mut env = Env::new();
    env.pul = Some(Pul::new());
    let expr = xqparser::parser::parse_expr(
        "(delete node fn:doc('mem:doc')/r/a, \
          replace value of node fn:doc('mem:doc')/r/b with 'two')",
        &[],
    )
    .unwrap();
    engine.eval_in(&expr, &mut env).unwrap();
    // Nothing applied yet: snapshot semantics.
    assert_eq!(serialize(&root), "<r><a>1</a><b>2</b></r>");
    let pul = env.pul.take().unwrap();
    assert_eq!(pul.len(), 2);
    pul.apply().unwrap();
    assert_eq!(serialize(&root), "<r><b>two</b></r>");
}

#[test]
fn insert_variants_through_expressions() {
    let engine = Engine::new();
    let doc = parse("<r><mid/></r>").unwrap();
    let root = doc.children()[0].clone();
    engine.register_document("mem:d", doc);
    let mut env = Env::new();
    env.pul = Some(Pul::new());
    let expr = xqparser::parser::parse_expr(
        "(insert node <last/> into fn:doc('mem:d')/r, \
          insert node <first/> as first into fn:doc('mem:d')/r, \
          insert node <pre/> before fn:doc('mem:d')/r/mid, \
          insert node attribute flag { 'y' } into fn:doc('mem:d')/r)",
        &[],
    )
    .unwrap();
    engine.eval_in(&expr, &mut env).unwrap();
    env.pul.take().unwrap().apply().unwrap();
    assert_eq!(serialize(&root), "<r flag=\"y\"><first/><pre/><mid/><last/></r>");
}

#[test]
fn rename_through_expression() {
    let engine = Engine::new();
    let doc = parse("<r><old/></r>").unwrap();
    let root = doc.children()[0].clone();
    engine.register_document("mem:r", doc);
    let mut env = Env::new();
    env.pul = Some(Pul::new());
    let expr =
        xqparser::parser::parse_expr("rename node fn:doc('mem:r')/r/old as 'new'", &[])
            .unwrap();
    engine.eval_in(&expr, &mut env).unwrap();
    env.pul.take().unwrap().apply().unwrap();
    assert_eq!(serialize(&root), "<r><new/></r>");
}

#[test]
fn transform_expression_copies() {
    // copy-modify-return leaves the original untouched.
    let q = "for $orig in <e><k>1</k></e> \
             let $new := (copy $c := $orig modify \
                            replace value of node $c/k with '9' \
                          return $c) \
             return (fn:string($orig/k), fn:string($new/k))";
    assert_eq!(as_string(&ev(q)), "1 9");
}

// ------------------------------------------------ join optimization

fn join_engine(n: usize) -> Engine {
    let engine = Engine::new();
    // Two "tables" as external functions.
    let customers: Vec<Item> = (0..n)
        .map(|i| {
            let doc = parse(&format!("<C><CID>{i}</CID><NAME>c{i}</NAME></C>")).unwrap();
            Item::Node(doc.children()[0].clone())
        })
        .collect();
    let cards: Vec<Item> = (0..n)
        .map(|i| {
            let doc = parse(&format!("<K><CID>{i}</CID><NUM>n{i}</NUM></K>")).unwrap();
            Item::Node(doc.children()[0].clone())
        })
        .collect();
    let c = Sequence::from_items(customers);
    let k = Sequence::from_items(cards);
    engine.register_external_function(
        QName::with_ns("urn:db", "CUSTOMER"),
        0,
        Rc::new(move |_e, _a| Ok(c.clone())),
    );
    engine.register_external_function(
        QName::with_ns("urn:db", "CARD"),
        0,
        Rc::new(move |_e, _a| Ok(k.clone())),
    );
    engine
}

const JOIN_Q: &str = "for $c in db:CUSTOMER() \
     return fn:count(for $k in db:CARD() \
                     where $c/CID eq $k/CID \
                     return $k)";

#[test]
fn hash_join_and_nested_loop_agree() {
    let engine = join_engine(30);
    let fast = engine.eval_expr_str(JOIN_Q, &[("db", "urn:db")]).unwrap();
    engine.set_optimize(false);
    let slow = engine.eval_expr_str(JOIN_Q, &[("db", "urn:db")]).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast.len(), 30);
    assert!(fast.atomized().iter().all(|a| a.string_value() == "1"));
}

#[test]
fn join_with_general_comparison_also_optimized() {
    let engine = join_engine(10);
    let q = "for $c in db:CUSTOMER() \
             return fn:count(for $k in db:CARD() where $k/CID = $c/CID return $k)";
    let fast = engine.eval_expr_str(q, &[("db", "urn:db")]).unwrap();
    assert_eq!(fast.len(), 10);
    assert!(fast.atomized().iter().all(|a| a.string_value() == "1"));
}

// ----------------------------------------------------- global variables

#[test]
fn global_variables_and_externals() {
    let engine = Engine::new();
    engine.set_global(QName::new("ext"), Sequence::one(Item::integer(5)));
    engine
        .load("declare variable $base := 10; declare variable $ext external;")
        .unwrap();
    let out = engine.eval_expr_str("$base + $ext", &[]).unwrap();
    assert_eq!(ints(&out), vec![15]);
}

#[test]
fn unbound_external_variable_fails_at_load() {
    let engine = Engine::new();
    let err = engine.load("declare variable $missing external;").unwrap_err();
    assert!(err.is(ErrorCode::XPST0008));
}

#[test]
fn eval_query_runs_expression_bodies() {
    let engine = Engine::new();
    let out = engine
        .eval_query(
            "declare function local:sq($n) { $n * $n }; \
             fn:sum(for $i in 1 to 4 return local:sq($i))",
        )
        .unwrap();
    assert_eq!(ints(&out), vec![30]);
}

#[test]
fn eval_query_rejects_block_bodies() {
    let engine = Engine::new();
    let err = engine.eval_query("{ return value 1; }").unwrap_err();
    assert!(err.message.contains("XQSE"));
}

// ------------------------------------------------------ figure 3 shape

#[test]
fn figure3_style_integration_query() {
    // A miniature of the paper's getProfile(): two sources + nesting
    // + a "web service" call.
    let engine = join_engine(3);
    engine.register_external_function(
        QName::with_ns("urn:ws", "rating"),
        1,
        Rc::new(|_e, args| {
            let name = args[0].string_value()?;
            Ok(Sequence::one(Item::string(format!("rated:{name}"))))
        }),
    );
    let q = "for $c in db:CUSTOMER() \
             return <Profile>\
                      <Name>{fn:data($c/NAME)}</Name>\
                      <Cards>{for $k in db:CARD() \
                              where $c/CID eq $k/CID \
                              return <Card>{fn:data($k/NUM)}</Card>}</Cards>\
                      <Rating>{ws:rating(fn:data($c/NAME))}</Rating>\
                    </Profile>";
    let out = engine
        .eval_expr_str(q, &[("db", "urn:db"), ("ws", "urn:ws")])
        .unwrap();
    assert_eq!(out.len(), 3);
    let first = serialize_sequence(&Sequence::one(out.items()[0].clone()));
    assert_eq!(
        first,
        "<Profile><Name>c0</Name><Cards><Card>n0</Card></Cards>\
         <Rating>rated:c0</Rating></Profile>"
    );
}

#[test]
fn date_accessor_functions() {
    assert_eq!(as_string(&ev("fn:year-from-date(xs:date('2007-12-07'))")), "2007");
    assert_eq!(as_string(&ev("fn:month-from-date(xs:date('2007-12-07'))")), "12");
    assert_eq!(as_string(&ev("fn:day-from-date(xs:date('2007-12-07'))")), "7");
    assert_eq!(
        as_string(&ev("fn:hours-from-dateTime(xs:dateTime('2007-12-07T10:30:05'))")),
        "10"
    );
    assert_eq!(
        as_string(&ev("fn:minutes-from-dateTime(xs:dateTime('2007-12-07T10:30:05'))")),
        "30"
    );
    assert_eq!(
        as_string(&ev("fn:seconds-from-dateTime(xs:dateTime('2007-12-07T10:30:05'))")),
        "5"
    );
    // Untyped coercion from node content (the ORDER_DATE case).
    assert_eq!(as_string(&ev("fn:year-from-date(<d>2008-02-29</d>)")), "2008");
    assert!(ev("fn:year-from-date(())").is_empty());
    assert!(ev_err("fn:year-from-date(5)").is(ErrorCode::XPTY0004));
}

#[test]
fn fn_compare() {
    assert_eq!(as_string(&ev("fn:compare('a', 'b')")), "-1");
    assert_eq!(as_string(&ev("fn:compare('b', 'a')")), "1");
    assert_eq!(as_string(&ev("fn:compare('a', 'a')")), "0");
    assert!(ev("fn:compare((), 'a')").is_empty());
}

#[test]
fn reverse_axis_positions() {
    // Positions on reverse axes count outward from the context node:
    // ancestor::*[1] is the parent, not the root.
    let q = "for $c in <a><b><c/></b></a>//c \
             return fn:local-name($c/ancestor::*[1])";
    assert_eq!(as_string(&ev(q)), "b");
    let q = "for $c in <a><b><c/></b></a>//c \
             return fn:local-name($c/ancestor::*[2])";
    assert_eq!(as_string(&ev(q)), "a");
    // preceding-sibling::*[1] is the nearest preceding sibling.
    let q = "for $c in <r><a/><b/><c/></r>/c \
             return fn:local-name($c/preceding-sibling::*[1])";
    assert_eq!(as_string(&ev(q)), "b");
}

#[test]
fn chained_predicates_refocus() {
    // The second predicate sees the position among survivors of the
    // first.
    assert_eq!(ints(&ev("(1 to 10)[. mod 2 = 0][2]")), vec![4]);
    assert_eq!(ints(&ev("(1 to 10)[2][1]")), vec![2]);
    assert!(ev("(1 to 10)[2][2]").is_empty());
}

#[test]
fn predicate_inside_predicate() {
    let q = "<r><g><v>1</v><v>2</v></g><g><v>3</v></g></r>/g[v[2]]/v[1]";
    assert_eq!(as_string(&ev(q)), "<v>1</v>");
}

#[test]
fn self_axis_with_name_test_filters() {
    let q = "fn:count(<r><a/><b/></r>/*/self::a)";
    assert_eq!(as_string(&ev(q)), "1");
}

#[test]
fn arity_overloading_resolution() {
    // fn:substring 2-arg vs 3-arg; fn:error 0..3 handled elsewhere.
    assert_eq!(as_string(&ev("fn:substring('abcdef', 3)")), "cdef");
    assert_eq!(as_string(&ev("fn:substring('abcdef', 3, 2)")), "cd");
}

#[test]
fn external_function_error_propagates() {
    let engine = Engine::new();
    engine.register_external_function(
        QName::with_ns("urn:x", "boom"),
        0,
        Rc::new(|_e, _a| {
            Err(xdm::error::XdmError::new(
                xdm::error::ErrorCode::DSP0004,
                "source offline",
            ))
        }),
    );
    let err = engine.eval_expr_str("fn:count(x:boom())", &[("x", "urn:x")]).unwrap_err();
    assert!(err.is(ErrorCode::DSP0004));
    assert!(err.message.contains("source offline"));
}

#[test]
fn join_cache_invalidation_sees_fresh_data() {
    use std::cell::RefCell;
    // A mutable "table" behind an external function: after
    // invalidate_caches, the next evaluation must observe the change.
    let engine = Engine::new();
    let rows: Rc<RefCell<Vec<i64>>> = Rc::new(RefCell::new(vec![1, 2]));
    let r2 = rows.clone();
    engine.register_external_function(
        QName::with_ns("urn:t", "rows"),
        0,
        Rc::new(move |_e, _a| {
            Ok(r2.borrow()
                .iter()
                .map(|i| {
                    Item::Node(
                        parse(&format!("<R><K>{i}</K></R>")).unwrap().children()[0]
                            .clone(),
                    )
                })
                .collect())
        }),
    );
    let q = "fn:count(for $k in (1, 2, 3) \
             return (for $r in t:rows() where $r/K = $k return $r))";
    let expr = xqparser::parser::parse_expr(q, &[("t", "urn:t")]).unwrap();
    let mut env = Env::new();
    let before = engine.eval_in(&expr, &mut env).unwrap();
    assert_eq!(as_string(&before), "2");
    rows.borrow_mut().push(3);
    // Without invalidation the memoized index would be stale within
    // the same Env; the XQSE engine calls this at statement
    // boundaries.
    env.invalidate_caches();
    let after = engine.eval_in(&expr, &mut env).unwrap();
    assert_eq!(as_string(&after), "3");
}

// ---------------------------------------------------------------
// Prepared-plan cache (PR 4).
// ---------------------------------------------------------------

#[test]
fn prepare_caches_plans_by_source_text() {
    let engine = Engine::new();
    let src = "declare variable $n := 4; $n * $n";
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "16");
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "16");
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "16");
    let s = engine.opt_stats();
    assert_eq!(s.plan_misses, 1, "parsed once");
    assert_eq!(s.plan_hits, 2, "re-executed from cache twice");
}

#[test]
fn plan_cache_hit_reinstalls_the_plans_own_prolog() {
    // Two modules declare the same function differently; alternating
    // between them must never execute the wrong body.
    let engine = Engine::new();
    let m1 = "declare function local:f() { 1 }; local:f()";
    let m2 = "declare function local:f() { 2 }; local:f()";
    for _ in 0..3 {
        assert_eq!(as_string(&engine.eval_query(m1).unwrap()), "1");
        assert_eq!(as_string(&engine.eval_query(m2).unwrap()), "2");
    }
    assert_eq!(engine.opt_stats().plan_misses, 2);
    assert_eq!(engine.opt_stats().plan_hits, 4);
}

#[test]
fn registering_externals_invalidates_cached_plans() {
    let engine = Engine::new();
    let src = "fn:count(x:rows())";
    engine.register_external_function(
        QName::with_ns("urn:x", "rows"),
        0,
        Rc::new(|_e, _a| Ok(Sequence::one(Item::integer(1)))),
    );
    let expr_src = "declare namespace x = \"urn:x\"; fn:count(x:rows())";
    assert_eq!(as_string(&engine.eval_query(expr_src).unwrap()), "1");
    // Re-registering bumps the registry generation: the cached plan's
    // pre-resolved bindings are stale, so the next prepare re-compiles.
    engine.register_external_function(
        QName::with_ns("urn:x", "rows"),
        0,
        Rc::new(|_e, _a| {
            Ok(vec![Item::integer(1), Item::integer(2)].into_iter().collect())
        }),
    );
    assert_eq!(as_string(&engine.eval_query(expr_src).unwrap()), "2");
    assert_eq!(engine.opt_stats().plan_misses, 2, "generation bump re-prepared");
    let _ = src;
}

#[test]
fn plan_cache_disabled_with_batch_kill_switch() {
    let engine = Engine::new();
    engine.set_batch(false);
    let src = "1 + 1";
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "2");
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "2");
    let s = engine.opt_stats();
    assert_eq!(s.plan_hits, 0);
    assert_eq!(s.plan_misses, 0, "kill switch bypasses the cache entirely");
}

#[test]
fn plan_cache_capacity_is_bounded() {
    let engine = Engine::new();
    engine.set_plan_cache_capacity(2);
    for i in 0..4 {
        let src = format!("{i} + {i}");
        engine.eval_query(&src).unwrap();
    }
    // Re-running the oldest source misses (it was evicted)…
    engine.eval_query("0 + 0").unwrap();
    assert_eq!(engine.opt_stats().plan_misses, 5);
    // …while the newest still hits.
    engine.eval_query("3 + 3").unwrap();
    assert_eq!(engine.opt_stats().plan_hits, 1);
}

#[test]
fn rebinding_external_variable_is_seen_by_cached_plans() {
    // External variables are the ALDSP parameter mechanism: the same
    // prepared plan is executed many times with different bindings.
    // A plan-cache hit must read the *live* binding, not a value
    // frozen at prepare time.
    let engine = Engine::new();
    let x = QName::new("x");
    engine.set_global(x.clone(), Sequence::one(Item::integer(1)));
    let src = "declare variable $x external; $x + 0";
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "1");
    engine.set_global(x, Sequence::one(Item::integer(2)));
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "2");
    let s = engine.opt_stats();
    assert_eq!(s.plan_misses, 1, "compiled once");
    assert_eq!(s.plan_hits, 1, "the re-bind did not invalidate the plan");
}

#[test]
fn cached_plans_mix_initialized_and_external_variables() {
    // Initialized declarations are captured and re-installed verbatim
    // on a hit; external ones read through — both in one prolog.
    let engine = Engine::new();
    let p = QName::new("p");
    engine.set_global(p.clone(), Sequence::one(Item::integer(10)));
    let src = "declare variable $k := 7; declare variable $p external; $k + $p";
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "17");
    engine.set_global(p, Sequence::one(Item::integer(20)));
    assert_eq!(as_string(&engine.eval_query(src).unwrap()), "27");
}

#[test]
fn prepared_constant_folding_matches_unfolded_result() {
    let engine = Engine::new();
    let src = "(1 + 2 * 3) = 7";
    let cached = engine.eval_query(src).unwrap();
    engine.set_batch(false);
    let plain = engine.eval_query(src).unwrap();
    assert_eq!(as_string(&cached), as_string(&plain));
    assert_eq!(as_string(&cached), "true");
}

// ----------------------------------------------- streaming / lazy eval

#[test]
fn subsequence_page_early_exits_the_stream() {
    let engine = Engine::new();
    let out = engine
        .eval_query("subsequence(for $i in 1 to 10000 return $i * 2, 1, 5)")
        .unwrap();
    assert_eq!(ints(&out), vec![2, 4, 6, 8, 10]);
    let s = engine.opt_stats();
    assert_eq!(s.tuples_pulled, 5, "only the page's tuples are produced");
    assert_eq!(s.early_exits, 1);
    assert_eq!(s.items_never_built, 9995);
}

#[test]
fn exists_probe_pulls_one_tuple() {
    let engine = Engine::new();
    let out = engine
        .eval_query("exists(for $i in 1 to 100000 where $i mod 2 eq 0 return $i)")
        .unwrap();
    assert_eq!(as_string(&out), "true");
    let s = engine.opt_stats();
    assert_eq!(s.tuples_pulled, 1, "the first surviving tuple decides");
    assert_eq!(s.early_exits, 1);
}

#[test]
fn empty_probe_pulls_one_tuple() {
    let engine = Engine::new();
    let out = engine
        .eval_query("empty(for $i in 1 to 100000 return $i)")
        .unwrap();
    assert_eq!(as_string(&out), "false");
    assert_eq!(engine.opt_stats().tuples_pulled, 1);
}

#[test]
fn count_comparison_stops_at_the_cutoff() {
    let engine = Engine::new();
    let out = engine
        .eval_query("count(for $i in 1 to 100000 return $i) gt 3")
        .unwrap();
    assert_eq!(as_string(&out), "true");
    let s = engine.opt_stats();
    // floor(3) + 2 pulls decide every comparison against 3.
    assert_eq!(s.tuples_pulled, 5);
    assert_eq!(s.early_exits, 1);
    // Exact counts still come out right below the cutoff.
    let out = engine
        .eval_query("count(for $i in 1 to 4 return $i) eq 7")
        .unwrap();
    assert_eq!(as_string(&out), "false");
}

#[test]
fn positional_predicates_pull_a_bounded_prefix() {
    let engine = Engine::new();
    let out = engine
        .eval_query("(for $i in 1 to 100000 return $i * $i)[3]")
        .unwrap();
    assert_eq!(ints(&out), vec![9]);
    assert_eq!(engine.opt_stats().tuples_pulled, 3);

    engine.reset_opt_stats();
    let out = engine
        .eval_query("(for $i in 1 to 100000 return $i)[position() le 4]")
        .unwrap();
    assert_eq!(ints(&out), vec![1, 2, 3, 4]);
    assert_eq!(engine.opt_stats().tuples_pulled, 4);
}

#[test]
fn quantifiers_short_circuit_the_stream() {
    let engine = Engine::new();
    let out = engine
        .eval_query("some $x in (for $i in 1 to 100000 return $i) satisfies $x eq 3")
        .unwrap();
    assert_eq!(as_string(&out), "true");
    assert_eq!(engine.opt_stats().tuples_pulled, 3);
}

#[test]
fn kill_switch_restores_eager_evaluation() {
    let engine = Engine::new();
    engine.set_lazy(false);
    let out = engine
        .eval_query("subsequence(for $i in 1 to 1000 return $i, 1, 5)")
        .unwrap();
    assert_eq!(ints(&out), vec![1, 2, 3, 4, 5]);
    let s = engine.opt_stats();
    assert_eq!(s.tuples_pulled, 0, "no stream engages with lazy off");
    assert_eq!(s.early_exits, 0);
    assert_eq!(s.items_never_built, 0);
}

#[test]
fn errors_inside_the_consumed_window_still_raise() {
    let engine = Engine::new();
    let err = engine
        .eval_query("subsequence(for $i in (0, 2) return 10 idiv $i, 1, 1)")
        .unwrap_err();
    assert!(err.is(ErrorCode::FOAR0001), "got {err:?}");
}

#[test]
fn errors_past_the_early_exit_are_never_evaluated() {
    // Documented deviation (DESIGN §11): the eager engine drains the
    // whole chain and hits the division by zero; the lazy engine stops
    // at the window's edge and never evaluates the poisoned tuple.
    let engine = Engine::new();
    let out = engine
        .eval_query("subsequence(for $i in (1, 2, 0, 4) return 10 idiv $i, 1, 2)")
        .unwrap();
    assert_eq!(ints(&out), vec![10, 5]);
    engine.set_lazy(false);
    let err = engine
        .eval_query("subsequence(for $i in (1, 2, 0, 4) return 10 idiv $i, 1, 2)")
        .unwrap_err();
    assert!(err.is(ErrorCode::FOAR0001));
}

#[test]
fn lazy_entry_point_returns_a_pull_stream() {
    let engine = Engine::new();
    let seq = engine
        .eval_query_lazy("for $i in 1 to 5 return $i + 1")
        .unwrap();
    assert!(seq.is_lazy());
    assert_eq!(engine.opt_stats().tuples_pulled, 0, "nothing pulled yet");
    let mut got = Vec::new();
    let mut i = 0;
    while let Some(item) = seq.try_item(i).unwrap() {
        got.push(item.string_value());
        i += 1;
    }
    assert_eq!(got, vec!["2", "3", "4", "5", "6"]);
    assert_eq!(engine.opt_stats().tuples_pulled, 5);
    assert_eq!(engine.opt_stats().early_exits, 0, "a drained stream is not an early exit");
}

#[test]
fn nested_streams_compose() {
    // The inner chain feeds the outer `for` as a lazy source; paging
    // the outer output pulls both pipelines only as far as the page.
    let engine = Engine::new();
    let out = engine
        .eval_query(
            "subsequence(for $x in (for $i in 1 to 10000 return $i * 10) \
             where $x ge 30 return $x, 1, 2)",
        )
        .unwrap();
    assert_eq!(ints(&out), vec![30, 40]);
    let s = engine.opt_stats();
    assert!(s.tuples_pulled < 20, "pulled {}", s.tuples_pulled);
}

#[test]
fn order_by_streams_its_post_sort_return() {
    // The sort drains its input, but the `return` after it still runs
    // per pulled tuple: a page of two evaluates it twice.
    let engine = Engine::new();
    let out = engine
        .eval_query(
            "subsequence(for $i in (3, 1, 2) order by $i descending return $i, 1, 2)",
        )
        .unwrap();
    assert_eq!(ints(&out), vec![3, 2]);
    let s = engine.opt_stats();
    assert_eq!(s.tuples_pulled, 2, "only the page's tuples reach `return`");
    assert_eq!(s.early_exits, 1);
    assert_eq!(s.items_never_built, 1, "the third sorted tuple is skipped");
}

#[test]
fn streamed_flwor_matches_eager_output() {
    // Value parity both kill-switch ways across a grab-bag of shapes.
    let queries = [
        "for $i in 1 to 20 where $i mod 3 eq 0 return $i",
        "for $i in 1 to 5, $j in 1 to 3 return $i * 10 + $j",
        "for $i at $p in (10, 20, 30) return $p + $i",
        "for $i in 1 to 10 let $d := $i * 2 where $d gt 10 return $d",
        "subsequence(for $i in 1 to 50 return <n>{$i}</n>, 5, 3)",
    ];
    for q in queries {
        let lazy_engine = Engine::new();
        let eager_engine = Engine::new();
        eager_engine.set_lazy(false);
        let a = serialize_sequence(&lazy_engine.eval_query(q).unwrap());
        let b = serialize_sequence(&eager_engine.eval_query(q).unwrap());
        assert_eq!(a, b, "lazy/eager divergence for {q}");
    }
}
