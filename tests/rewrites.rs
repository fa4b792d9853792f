//! Rewrite equivalence: every source operator the FLWOR pipeline can
//! choose for a `for` clause — indexed point-select (pushdown), view
//! unfold, hash-join probe, batched web-service flight — must give
//! exactly what plain evaluation gives, under every early-exit
//! consumer.
//!
//! Each shape × consumer runs three ways on a fresh demo data space:
//! pulled item by item through the sink entry, drained, and drained
//! with every rewrite off (the reference). The three must serialize
//! byte-identically or fail with the same error code, and the
//! rewrite's own counter must prove it fired in the first two runs and
//! not in the reference.

use xqse_repro::aldsp::demo;
use xqse_repro::aldsp::rel::{Column, ColumnType, Database, SqlValue, TableSchema};
use xqse_repro::aldsp::service::DataSpace;
use xqse_repro::xmlparse::{serialize_sequence, IncrementalSerializer};
use xqse_repro::xqeval::{Env, Features, OptStats};
use xqse_repro::xqse::Xqse;

const PROLOG: &str = r#"
declare namespace ns1 = "ld:CustomerProfile";
declare namespace cus = "ld:db1/CUSTOMER";
declare namespace cre = "ld:db2/CREDIT_CARD";
declare namespace cre2 = "urn:creditrating/types";
declare namespace cre3 = "ld:ws/CreditRating";
declare function local:cards($cid as xs:integer) as element(CC)* {
  for $cc in cre:CREDIT_CARD() where $cc/CID eq $cid
  let $id := fn:data($cc/CCID)
  order by $id descending
  return <CC><ID>{$id}</ID><BRAND>{fn:data($cc/CC_BRAND)}</BRAND></CC>
};
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
    // Every rewrite feature and `lazy` are set explicitly, so
    // `XQSE_FEATURES` cannot change what a mode means.
    let rewrites = !matches!(mode, Mode::Reference);
    engine.set_features(Features {
        opt: rewrites,
        join: rewrites,
        batch: rewrites,
        lazy: matches!(mode, Mode::Lazy),
        ..engine.features()
    });
    engine.reset_opt_stats();
    let src = format!("{PROLOG}{query}");
    let mut env = Env::new();
    let out = match mode {
        Mode::Lazy => {
            let mut ser = IncrementalSerializer::new();
            xqse.run_to_sink(&src, &mut env, &mut |item| {
                ser.write_item(&item);
                Ok(())
            })
            .map(|()| ser.finish())
        }
        _ => xqse.run_with_env(&src, &mut env).map(|s| serialize_sequence(&s)),
    };
    (out.map_err(|e| e.code.to_string()), engine.opt_stats())
}

fn pushdowns(s: &OptStats) -> u64 {
    s.pushdown_rewrites
}

fn unfolds(s: &OptStats) -> u64 {
    s.view_unfolds
}

/// The view unfolded and the pushdown inside its body still fired.
fn unfolds_over_pushdown(s: &OptStats) -> u64 {
    s.view_unfolds.min(s.pushdown_rewrites)
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
        "view unfold, Figure 3's filter with an xs:string key",
        "for $cid in ('2', '5', '404') for $p in ns1:getProfile() \
         where $cid eq $p/CID return $p",
        unfolds,
    ),
    (
        "view unfold, numeric key under =",
        "for $k in (3, 1) for $p in ns1:getProfile() where $p/CID = $k \
         return <id last=\"{fn:data($p/LAST_NAME)}\">{fn:data($p/CID)}</id>",
        unfolds,
    ),
    (
        "view unfold, a where reading two children",
        "for $p in ns1:getProfile() where $p/CID eq '2' or $p/LAST_NAME eq 'Wong' \
         return $p",
        unfolds,
    ),
    (
        "view unfold, outer variable named like the view's own",
        "for $CUSTOMER in ('4') for $p in ns1:getProfile() \
         where $p/CID eq $CUSTOMER return ($p, <n>{fn:data($CUSTOMER)}</n>)",
        unfolds,
    ),
    (
        "view unfold, a parameterized view with its own pushdown, let and order by",
        "for $k in (2, 3) for $c in local:cards($k) \
         where $c/ID ne '5' and $c/BRAND eq 'VISTA' return <c k=\"{$k}\">{fn:data($c/ID)}</c>",
        unfolds_over_pushdown,
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
    ("subsequence starting rows in", "fn:subsequence({}, 4, 2)"),
    ("[k]", "({})[2]"),
];

/// Run `query` lazily, drained and as the reference, assert that the
/// three agree, and return their counters in that order.
fn agree(query: &str, what: &str) -> [OptStats; 3] {
    let (reference, r) = run(query, Mode::Reference);
    let (lazy, l) = run(query, Mode::Lazy);
    let (drained, d) = run(query, Mode::Drained);
    assert_eq!(lazy, reference, "lazy vs reference: {what}");
    assert_eq!(drained, reference, "drained vs reference: {what}");
    [l, d, r]
}

#[test]
fn rewrites_agree_with_plain_evaluation_under_every_consumer() {
    for &(shape, flwor, fired) in SHAPES {
        for &(consumer, wrap) in CONSUMERS {
            let what = format!("{shape} / {consumer}");
            let [l, d, r] = agree(&wrap.replace("{}", flwor), &what);
            assert!(fired(&l) > 0, "the rewrite must fire lazily: {what}");
            assert!(fired(&d) > 0, "the rewrite must fire drained: {what}");
            assert_eq!(fired(&r), 0, "the reference runs no rewrite: {what}");
        }
    }
}

/// Views the unfold operator must leave alone, because a skeleton
/// could answer the `where` differently from the full row or the
/// `for` numbers its items. (name, prolog, FLWOR)
const NOT_UNFOLDED: &[(&str, &str, &str)] = &[
    (
        "a child built by an enclosed expression",
        "",
        "for $p in ns1:getProfile() where $p/CreditRating ge 500 \
         return <r>{fn:data($p/CID)}</r>",
    ),
    (
        "the row outside a comparison",
        "",
        "for $p in ns1:getProfile() where fn:exists($p/Orders/ORDER) \
         return <r>{fn:data($p/CID)}</r>",
    ),
    (
        "a compared child that calls a source",
        "declare function local:v() { for $c in cus:CUSTOMER() \
           return <R><K>{fn:count(cus:CUSTOMER())}</K><I>{fn:data($c/CID)}</I></R> };",
        "for $r in local:v() where $r/K eq 6 return $r/I",
    ),
    (
        "a user function in the where, which sees the row",
        "declare function local:v() { for $i in (1, 2, 3) \
           return <R><K>{$i}</K><V>{$i * 2}</V></R> }; \
         declare function local:k() { fn:exists($r/V) };",
        "for $r in local:v() where local:k() return $r/K",
    ),
    (
        "a positional variable",
        "",
        "for $p at $i in ns1:getProfile() where $p/CID eq '3' \
         return <r i=\"{$i}\">{fn:data($p/CID)}</r>",
    ),
    (
        "an enclosed expression that can build a compared child",
        "declare function local:v() { for $i in (1, 2, 3) \
           return <R><K>{$i}</K>{if ($i eq 2) then <K>9</K> else ()}</R> };",
        "for $r in local:v() where $r/K = 9 return $r",
    ),
    (
        "two children with the compared name",
        "declare function local:v() { for $i in (1, 2, 3) \
           return <R><K>{$i}</K><K>{$i * 3}</K></R> };",
        "for $r in local:v() where $r/K = 6 return $r",
    ),
];

#[test]
fn ineligible_views_are_not_unfolded_and_still_agree() {
    for &(shape, prolog, flwor) in NOT_UNFOLDED {
        for &(consumer, wrap) in CONSUMERS {
            let what = format!("{shape} / {consumer}");
            for s in agree(&format!("{prolog}{}", wrap.replace("{}", flwor)), &what) {
                assert_eq!(s.view_unfolds, 0, "must not unfold: {what}");
            }
        }
    }
}

/// DESIGN §11 deviation (g): a view row the `where` rejects is never
/// constructed, so an error only its construction raises does not
/// surface with the optimizer on.
#[test]
fn unfolded_view_never_builds_a_rejected_row() {
    let query = "declare function local:v() as element(R)* { \
           for $i in (1, 2) \
           return <R><K>{$i}</K><X>{if ($i eq 2) then 10 idiv 0 else $i}</X></R> \
         }; \
         for $r in local:v() where $r/K eq 1 return $r";
    for mode in [Mode::Lazy, Mode::Drained] {
        let (out, s) = run(query, mode);
        assert_eq!(out.unwrap(), "<R><K>1</K><X>1</X></R>", "{mode:?}");
        assert_eq!(s.view_unfolds, 1, "{mode:?}");
    }
    let (out, s) = run(query, Mode::Reference);
    assert_eq!(out.unwrap_err(), "FOAR0001");
    assert_eq!(s.view_unfolds, 0);
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

/// The use-case-3 source table: employee `i` is `First{i} Last{i}` in
/// department `D{i mod 7}`.
fn employees(rows: i64) -> DataSpace {
    let db = Database::new("hr");
    db.create_table(TableSchema {
        name: "EMPLOYEE".into(),
        columns: vec![
            Column::required("EmployeeID", ColumnType::Integer),
            Column::required("Name", ColumnType::Varchar),
            Column::nullable("DeptNo", ColumnType::Varchar),
        ],
        primary_key: vec!["EmployeeID".into()],
        foreign_keys: vec![],
    })
    .expect("schema");
    for i in 1..=rows {
        let row = vec![
            SqlValue::Int(i),
            SqlValue::Str(format!("First{i} Last{i}")),
            SqlValue::Str(format!("D{}", i % 7)),
        ];
        db.insert("EMPLOYEE", row).expect("insert");
    }
    let space = DataSpace::new();
    space.register_relational_source(&db).expect("introspect");
    space
}

/// An update statement that changes a node a cached read handed out
/// (a pushed-down select's row, a `getBy<PK>` row) mutates the cached
/// node itself, so the statement flushes the keyed-select cache along
/// with the materialized table: the next read rebuilds the row from
/// the source, as plain evaluation does.
#[test]
fn node_updates_do_not_leak_into_cached_keyed_reads() {
    let query = r#"
declare namespace ens1 = "ld:hr/EMPLOYEE";
{
  replace value of node
    (for $e in ens1:EMPLOYEE() where $e/DeptNo eq 'D3' return $e)[1]/Name
    with "CHANGED";
  replace value of node ens1:getByEmployeeID(4)/Name with "CHANGED";
  return value (
    fn:string((for $e in ens1:EMPLOYEE() where $e/DeptNo eq 'D3' return $e)[1]/Name),
    fn:string(ens1:EMPLOYEE()[EmployeeID eq '3']/Name),
    fn:string(ens1:getByEmployeeID(4)/Name));
}
"#;
    let run = |features: Features| {
        let space = employees(50);
        space.engine().set_features(features);
        let out = space.xqse().run_with_env(query, &mut Env::new()).expect("run");
        let texts: Vec<String> = out.iter().map(|i| i.string_value()).collect();
        (texts, space.engine().opt_stats())
    };
    let (plain, p) = run(Features::NONE);
    let (optimized, o) = run(Features::ALL);
    assert_eq!(plain, ["First3 Last3", "First3 Last3", "First4 Last4"]);
    assert_eq!(optimized, plain);
    assert_eq!(pushdowns(&p), 0);
    assert_eq!(pushdowns(&o), 2, "both reads of D3 were pushed down");
}

/// The join cache is the caller's `Env`'s whether or not a FLWOR is
/// pulled lazily: the same `fn:exists` join probe run twice in one
/// `Env` builds its index once and reuses it, with `lazy` on or off.
#[test]
fn lazy_probes_share_the_callers_join_cache() {
    let query = "fn:exists(for $a in (1, 2, 3) \
         for $b in (<r><k>2</k></r>, <r><k>3</k></r>) where $b/k eq $a return $b)";
    let probe = |lazy: bool| {
        let xqse = Xqse::new();
        let engine = xqse.engine();
        engine.set_features(Features { lazy, ..Features::ALL });
        let mut env = Env::new();
        for _ in 0..2 {
            let out = xqse.run_with_env(query, &mut env).expect("run");
            assert_eq!(serialize_sequence(&out), "true", "lazy={lazy}");
        }
        let s = engine.opt_stats();
        (s.join_hits, s.join_misses, s.tuples_pulled)
    };
    let (lazy_hits, lazy_misses, pulled) = probe(true);
    let (eager_hits, eager_misses, _) = probe(false);
    assert!(pulled > 0, "the lazy runs must pull through a cursor");
    assert_eq!((lazy_hits, lazy_misses), (eager_hits, eager_misses));
    assert_eq!((lazy_hits, lazy_misses), (1, 1));
}

/// A join-cache entry is keyed by its source expression's address. Once
/// the plan cache has evicted (and freed) a program, a later program's
/// AST must not be served the old program's index through a reused
/// address: the entry keeps the clause list it was built for alive.
#[test]
fn join_cache_entries_outlive_an_evicted_plan() {
    let join = |v: &str| {
        format!(
            "for $a in (1, 2) for $b in (<b><k>1</k><v>{v}</v></b>, <b><k>2</k><v>{v}2</v></b>) \
             where $b/k eq $a return fn:data($b/v)"
        )
    };
    for features in [Features::ALL, Features { lazy: false, ..Features::ALL }] {
        let xqse = Xqse::new();
        let engine = xqse.engine();
        engine.set_features(features);
        engine.set_plan_cache_capacity(1);
        let mut env = Env::new();
        let old = xqse.run_with_env(&join("OLD"), &mut env).expect("first join");
        assert_eq!(serialize_sequence(&old), "OLD OLD2");
        // Evicts the first program from the one-entry plan cache.
        xqse.run_with_env("0 + 0", &mut env).expect("filler");
        let new = xqse.run_with_env(&join("NEW"), &mut env).expect("second join");
        assert_eq!(serialize_sequence(&new), "NEW NEW2", "features {features}");
        assert_eq!(engine.opt_stats().join_misses, 2, "features {features}");
    }
}
