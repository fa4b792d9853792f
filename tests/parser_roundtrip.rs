//! Generative parser round-trip: random expression ASTs are rendered
//! by the unparser, re-parsed, and re-rendered — the two renderings
//! must be identical, and where the expression is closed (no free
//! variables) both versions must evaluate to the same result.

use std::rc::Rc;

use proptest::prelude::*;

use xqse_repro::xqparser::ast::{
    BinaryOp, Binder, Expr, FlworClause, GeneralComp, Quantifier, VarUse,
};
use xqse_repro::xqparser::parser::parse_expr;
use xqse_repro::xqparser::unparse::unparse_expr;
use xqse_repro::xdm::atomic::AtomicValue;
use xqse_repro::xdm::qname::QName;

fn var_name() -> impl Strategy<Value = QName> {
    prop_oneof![Just("v"), Just("w"), Just("x")].prop_map(QName::new)
}

fn literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (-1000i64..1000).prop_map(|i| Expr::Literal(AtomicValue::Integer(i))),
        "[a-z ]{0,6}".prop_map(|s| Expr::Literal(AtomicValue::String(s.into()))),
    ]
}

/// Closed expressions: every variable used is bound by an enclosing
/// FLWOR/quantifier that this generator itself produces.
fn closed_expr() -> impl Strategy<Value = Expr> {
    literal().prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            // comma sequences
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Expr::Comma),
            // arithmetic (div avoided so evaluation cannot hit /0 —
            // structure is what we test here)
            (inner.clone(), inner.clone(), prop_oneof![
                Just(BinaryOp::Add),
                Just(BinaryOp::Sub),
                Just(BinaryOp::Mul),
            ])
                .prop_map(|(a, b, op)| Expr::Binary(op, Box::new(a), Box::new(b))),
            // general comparison
            (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                Expr::General(GeneralComp::Eq, Box::new(a), Box::new(b))
            }),
            // if/then/else over a boolean-ish condition
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| {
                Expr::If(
                    Box::new(Expr::General(
                        GeneralComp::Ne,
                        Box::new(Expr::Comma(vec![])),
                        Box::new(c),
                    )),
                    Box::new(t),
                    Box::new(f),
                )
            }),
            // for $v in (…) return …$v…
            (var_name(), inner.clone(), inner.clone()).prop_map(|(v, src, ret)| {
                Expr::Flwor {
                    clauses: vec![FlworClause::For {
                        var: Binder::new(v.clone()),
                        pos: None,
                        source: Box::new(src).as_ref().clone(),
                    }]
                    .into(),
                    ret: Rc::new(Expr::Comma(vec![Expr::VarRef(VarUse::new(v)), ret])),
                }
            }),
            // quantified
            (var_name(), inner.clone(), inner.clone()).prop_map(|(v, src, sat)| {
                Expr::Quantified {
                    quantifier: Quantifier::Some,
                    bindings: vec![(Binder::new(v.clone()), src)],
                    satisfies: Box::new(Expr::General(
                        GeneralComp::Eq,
                        Box::new(Expr::VarRef(VarUse::new(v))),
                        Box::new(sat),
                    )),
                }
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn unparse_parse_unparse_is_stable(e in closed_expr()) {
        let printed = unparse_expr(&e);
        let reparsed = parse_expr(&printed, &[])
            .unwrap_or_else(|err| panic!("re-parse failed for {printed:?}: {err}"));
        let printed2 = unparse_expr(&reparsed);
        prop_assert_eq!(&printed, &printed2, "unstable: {}", printed);
    }

    #[test]
    fn roundtripped_expressions_evaluate_identically(e in closed_expr()) {
        let engine = xqse_repro::xqeval::Engine::new();
        let mut env1 = xqse_repro::xqeval::Env::new();
        let direct = engine.eval_in(&e, &mut env1);
        let printed = unparse_expr(&e);
        let reparsed = parse_expr(&printed, &[]).unwrap();
        let mut env2 = xqse_repro::xqeval::Env::new();
        let via_text = engine.eval_in(&reparsed, &mut env2);
        match (direct, via_text) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    xqse_repro::xmlparse::serialize_sequence(&a),
                    xqse_repro::xmlparse::serialize_sequence(&b),
                    "results differ for {}", printed
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.code, b.code),
            (a, b) => prop_assert!(
                false,
                "one side errored for {}: {:?} vs {:?}", printed, a, b
            ),
        }
    }
}

/// The paper's Figure-3 module survives unparse∘parse and the
/// round-tripped module still evaluates identically on the demo
/// dataspace.
#[test]
fn figure3_module_unparse_round_trip() {
    use xqse_repro::xqparser::{parse_module, unparse::unparse_module};

    let m1 = parse_module(xqse_repro::aldsp::demo::GET_PROFILE_SRC).unwrap();
    let printed = unparse_module(&m1);
    let m2 = parse_module(&printed)
        .unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{printed}"));
    assert_eq!(printed, unparse_module(&m2), "unparse not a fixed point");

    // Behavioural equivalence: run the round-tripped source as the
    // logical service definition and compare the read result.
    let d1 = xqse_repro::aldsp::demo::build(3, 2, 1).unwrap();
    let d2 = xqse_repro::aldsp::demo::build(3, 2, 1).unwrap();
    // Re-register the service from the *printed* source on d2 (same
    // name: the reloaded function definitions replace the originals).
    d2.space
        .register_logical_service(
            "CustomerProfile",
            &printed,
            &xqse_repro::xdm::qname::QName::with_ns("ld:CustomerProfile", "getProfile"),
        )
        .unwrap();
    let g1 = d1.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    let g2 = d2.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    assert_eq!(g1.len(), g2.len());
    for i in 0..g1.len() {
        assert_eq!(
            xqse_repro::xmlparse::serialize(&g1.instance(i).unwrap()),
            xqse_repro::xmlparse::serialize(&g2.instance(i).unwrap()),
            "instance {i} differs"
        );
    }
}
