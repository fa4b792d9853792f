//! Rewrite equivalence: every source operator the FLWOR pipeline can
//! choose for a `for` clause — indexed point-select (pushdown),
//! hash-join probe, batched web-service flight — must give exactly
//! what plain evaluation gives, under every early-exit consumer.
//!
//! Each shape × consumer runs three ways on a fresh demo data space:
//! streamed lazily, drained, and drained with every rewrite off (the
//! reference). The three must serialize byte-identically or fail with
//! the same error code, and the rewrite's own counter must prove it
//! fired in the first two runs and not in the reference.

use xqse_repro::aldsp::demo;
use xqse_repro::xmlparse::{serialize_sequence, serialize_sequence_stream};
use xqse_repro::xqeval::{Env, OptStats};

const PROLOG: &str = r#"
declare namespace cus = "ld:db1/CUSTOMER";
declare namespace cre = "ld:db2/CREDIT_CARD";
declare namespace cre2 = "urn:creditrating/types";
declare namespace cre3 = "ld:ws/CreditRating";
"#;

#[derive(Clone, Copy, Debug)]
enum Mode {
    Lazy,
    Drained,
    Reference,
}

/// Run `query` on a fresh demo data space: its serialization (or error
/// code) and the engine's counters.
fn run(query: &str, mode: Mode) -> (Result<String, String>, OptStats) {
    let demo = demo::build(6, 2, 2).expect("demo data space");
    let (xqse, engine) = (demo.space.xqse(), demo.space.engine());
    // Every knob is set explicitly, so kill-switch variables in the
    // environment cannot change what a mode means.
    let rewrites = !matches!(mode, Mode::Reference);
    engine.set_lazy(matches!(mode, Mode::Lazy));
    engine.set_optimize(rewrites);
    engine.set_join_rewrite(rewrites);
    engine.set_batch(rewrites);
    engine.reset_opt_stats();
    let src = format!("{PROLOG}{query}");
    let mut env = Env::new();
    let out = match mode {
        Mode::Lazy => xqse
            .run_lazy_with_env(&src, &mut env)
            .and_then(|s| serialize_sequence_stream(&s)),
        _ => xqse.run_with_env(&src, &mut env).map(|s| serialize_sequence(&s)),
    };
    (out.map_err(|e| e.code.to_string()), engine.opt_stats())
}

fn pushdowns(s: &OptStats) -> u64 {
    s.pushdown_rewrites
}

fn joins(s: &OptStats) -> u64 {
    s.join_hits + s.join_misses
}

fn batches(s: &OptStats) -> u64 {
    s.ws_batches
}

/// (name, FLWOR, the counter its rewrite bumps)
type Shape = (&'static str, &'static str, fn(&OptStats) -> u64);

const SHAPES: &[Shape] = &[
    (
        "pushdown",
        "for $k in (1, 3, 5) for $cc in cre:CREDIT_CARD() where $cc/CID eq $k \
         return <cc>{fn:data($cc/CCID)}</cc>",
        pushdowns,
    ),
    (
        "pushdown, unpushable keys take the plain path per tuple",
        "for $k in (2, (3, 4), ()) for $cc in cre:CREDIT_CARD() where $cc/CID = $k \
         return <cc>{fn:data($cc/CCID)}</cc>",
        pushdowns,
    ),
    (
        "hash join",
        "for $a in (<a><k>1</k></a>, <a><k>2</k></a>, <a><k>3</k></a>) \
         for $b in (<b><k>2</k><v>x</v></b>, <b><k>3</k><v>y</v></b>, \
                    <b><k>3</k><v>z</v></b>) \
         where $b/k eq $a/k return <hit>{fn:data($b/v)}</hit>",
        joins,
    ),
    (
        "hash join, multi-valued outer key under =",
        "for $a in (<a><k>1</k><k>2</k></a>, <a><k>3</k></a>) \
         for $b in (<b><k>2</k></b>, <b><k>3</k></b>) \
         where $b/k = $a/k return <hit>{fn:data($b/k)}</hit>",
        joins,
    ),
    (
        "hash join, multi-valued outer key under eq",
        "for $a in (<a><k>1</k><k>2</k></a>) for $b in (<b><k>2</k></b>) \
         where $b/k eq $a/k return <hit/>",
        joins,
    ),
    (
        "hash join, multi-valued row key",
        "for $a in (<a><k>2</k></a>, <a><k>5</k></a>) \
         for $b in (<b><k>1</k><k>2</k></b>, <b><k>5</k></b>) \
         where $b/k = $a/k return <hit>{fn:data($a/k)}</hit>",
        joins,
    ),
    (
        "batched service, per tuple",
        "for $c in cus:CUSTOMER() \
         for $r in cre3:getCreditRating(<cre2:getCreditRating>\
           <cre2:lastName>{fn:data($c/LAST_NAME)}</cre2:lastName>\
           <cre2:ssn>{fn:data($c/SSN)}</cre2:ssn></cre2:getCreditRating>) \
         return <r>{fn:data($r/cre2:value)}</r>",
        batches,
    ),
    (
        "batched service, hoisted",
        "for $c in cus:CUSTOMER() \
         for $r in cre3:getCreditRating(<cre2:getCreditRating>\
           <cre2:lastName>Wong</cre2:lastName>\
           <cre2:ssn>006-55-0006</cre2:ssn></cre2:getCreditRating>) \
         return <r cid=\"{fn:data($c/CID)}\">{fn:data($r/cre2:value)}</r>",
        batches,
    ),
    (
        "order by over pushdown",
        "for $k in (4, 2) for $cc in cre:CREDIT_CARD() where $cc/CID eq $k \
         order by fn:data($cc/CCID) descending return <cc>{fn:data($cc/CCID)}</cc>",
        pushdowns,
    ),
    (
        "order by over hash join",
        "for $a in (<a><k>1</k></a>, <a><k>2</k></a>) \
         for $b in (<b><k>1</k><v>p</v></b>, <b><k>2</k><v>q</v></b>, \
                    <b><k>2</k><v>r</v></b>) \
         where $b/k eq $a/k order by fn:data($b/v) descending \
         return <hit>{fn:data($b/v)}</hit>",
        joins,
    ),
    (
        "at $p over pushdown",
        "for $k at $p in (5, 1) for $cc in cre:CREDIT_CARD() where $cc/CID eq $k \
         return <cc p=\"{$p}\">{fn:data($cc/CCID)}</cc>",
        pushdowns,
    ),
];

const CONSUMERS: &[(&str, &str)] = &[
    ("full drain", "{}"),
    ("exists", "fn:exists({})"),
    ("subsequence", "fn:subsequence({}, 2, 3)"),
    ("[k]", "({})[2]"),
];

#[test]
fn rewrites_agree_with_plain_evaluation_under_every_consumer() {
    for &(shape, flwor, fired) in SHAPES {
        for &(consumer, wrap) in CONSUMERS {
            let query = wrap.replace("{}", flwor);
            let what = format!("{shape} / {consumer}");
            let (reference, r) = run(&query, Mode::Reference);
            let (lazy, l) = run(&query, Mode::Lazy);
            let (drained, d) = run(&query, Mode::Drained);
            assert_eq!(lazy, reference, "lazy vs reference: {what}");
            assert_eq!(drained, reference, "drained vs reference: {what}");
            assert!(fired(&l) > 0, "the rewrite must fire lazily: {what}");
            assert!(fired(&d) > 0, "the rewrite must fire drained: {what}");
            assert_eq!(fired(&r), 0, "the reference runs no rewrite: {what}");
        }
    }
}

#[test]
fn multi_valued_join_keys_match_existentially_or_raise() {
    let full = |name: &str| {
        let shape = SHAPES.iter().find(|s| s.0 == name).expect("shape");
        run(shape.1, Mode::Drained).0
    };
    let outer = full("hash join, multi-valued outer key under =");
    assert_eq!(outer.unwrap(), "<hit>2</hit><hit>3</hit>");
    let outer_eq = full("hash join, multi-valued outer key under eq");
    assert_eq!(outer_eq.unwrap_err(), "XPTY0004");
    let row = full("hash join, multi-valued row key");
    assert_eq!(row.unwrap(), "<hit>2</hit><hit>5</hit>");
}
