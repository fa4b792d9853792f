//! Rewrite equivalence: every source operator the FLWOR pipeline can
//! choose for a `for` clause — indexed point-select (pushdown), view
//! unfold, hash-join probe — must give exactly what plain evaluation
//! gives, under every early-exit consumer. So must a `for` over a
//! web-service call, which no operator rewrites but which the `batch`
//! layer answers from its memo and read-through cache.
//!
//! Each shape × consumer runs three ways on a fresh data space (the
//! demo's, unless a test builds its own): pulled item by item through
//! the sink entry, drained, and drained with every rewrite off (the
//! reference). The three must serialize
//! byte-identically or fail with the same error code, and the
//! rewrite's own counter must prove it fired in the first two runs and
//! not in the reference.

use xqse_repro::aldsp::demo;
use xqse_repro::aldsp::rel::{Column, ColumnType, Database, SqlValue, TableSchema};
use xqse_repro::aldsp::service::DataSpace;
use xqse_repro::xmlparse::{serialize_sequence, IncrementalSerializer};
use xqse_repro::xqeval::{Budget, Env, Features, OptStats};
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

fn demo_space() -> DataSpace {
    demo::build(6, 2, 2).expect("demo data space").space
}

/// Run `query` after the demo prolog on a fresh demo data space: its
/// serialization (or error code) and the engine's counters.
fn run(query: &str, mode: Mode) -> (Result<String, String>, OptStats) {
    run_in(&demo_space(), &format!("{PROLOG}{query}"), mode)
}

/// Run the program `src` on `space`.
fn run_in(space: &DataSpace, src: &str, mode: Mode) -> (Result<String, String>, OptStats) {
    let (xqse, engine) = (space.xqse(), space.engine());
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
    let mut env = Env::new();
    let out = match mode {
        Mode::Lazy => {
            let mut ser = IncrementalSerializer::new();
            xqse.run_to_sink(src, &mut env, &mut |item| {
                ser.write_item(&item);
                Ok(())
            })
            .map(|()| ser.finish())
        }
        _ => xqse.run_with_env(src, &mut env).map(|s| serialize_sequence(&s)),
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
        "hash join, boolean outer keys against padded and numeric untyped keys",
        "for $a in (fn:true(), fn:false()) \
         for $b in (<b><k> true</k></b>, <b><k>0</k></b>) \
         where $b/k eq $a return fn:concat($a, ':', $b/k)",
        joins,
    ),
    (
        "hash join, a date outer key against a padded untyped key",
        "for $a in (xs:date('2020-01-02')) for $b in (<b><k>2020-01-02 </k></b>) \
         where $b/k = $a return 'hit'",
        joins,
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
    ("subsequence deep", "fn:subsequence({}, 6, 2)"),
    ("subsequence past the end", "fn:subsequence({}, 40, 3)"),
    ("[k]", "({})[2]"),
    ("[k] deep", "({})[5]"),
];

/// Run `query` after the demo prolog lazily, drained and as the
/// reference, assert that the three agree, and return their counters
/// in that order.
fn agree(query: &str, what: &str) -> [OptStats; 3] {
    agree_in(demo_space, &format!("{PROLOG}{query}"), what)
}

/// [`agree`] for the program `src`, each run on a fresh `space()`.
fn agree_in(space: fn() -> DataSpace, src: &str, what: &str) -> [OptStats; 3] {
    let (reference, r) = run_in(&space(), src, Mode::Reference);
    let (lazy, l) = run_in(&space(), src, Mode::Lazy);
    let (drained, d) = run_in(&space(), src, Mode::Drained);
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

/// `for` clauses over a web-service call: (name, FLWOR, how many
/// distinct requests it makes). Each tuple's request takes the one
/// per-call path; with `batch` on, a request already answered in the
/// same `Env` comes from the memo instead of the service.
const SERVICE_CALLS: &[(&str, &str, u64)] = &[
    (
        "service call, per tuple",
        "for $c in cus:CUSTOMER() \
         for $r in cre3:getCreditRating(<cre2:getCreditRating>\
           <cre2:lastName>{fn:data($c/LAST_NAME)}</cre2:lastName>\
           <cre2:ssn>{fn:data($c/SSN)}</cre2:ssn></cre2:getCreditRating>) \
         return <r>{fn:data($r/cre2:value)}</r>",
        6,
    ),
    (
        "service call, the same request in every tuple",
        "for $c in cus:CUSTOMER() \
         for $r in cre3:getCreditRating(<cre2:getCreditRating>\
           <cre2:lastName>Wong</cre2:lastName>\
           <cre2:ssn>006-55-0006</cre2:ssn></cre2:getCreditRating>) \
         return <r cid=\"{fn:data($c/CID)}\">{fn:data($r/cre2:value)}</r>",
        1,
    ),
];

#[test]
fn service_calls_agree_with_plain_evaluation_under_every_consumer() {
    for &(shape, flwor, distinct) in SERVICE_CALLS {
        for &(consumer, wrap) in CONSUMERS {
            let what = format!("{shape} / {consumer}");
            let [l, d, r] = agree(&wrap.replace("{}", flwor), &what);
            for s in [l, d] {
                assert!(s.ws_requests > 0, "{what}");
                assert_eq!(s.ws_issued, s.ws_requests.min(distinct), "{what}");
                assert_eq!(s.ws_coalesced, s.ws_requests - s.ws_issued, "{what}");
            }
            assert_eq!((r.ws_issued, r.ws_coalesced), (r.ws_requests, 0), "{what}");
        }
    }
}

/// A `for` over a service call issues each tuple's request as the tuple
/// is pulled, so an early exit stops the requests too.
#[test]
fn early_exit_issues_no_service_request_past_its_answer() {
    let query = "fn:exists(for $i in (1 to 3) \
         for $r in cre3:getCreditRating(<cre2:getCreditRating>\
           <cre2:lastName>L</cre2:lastName><cre2:ssn>{$i}</cre2:ssn>\
         </cre2:getCreditRating>) return $r)";
    let (out, lazy) = run(query, Mode::Lazy);
    assert_eq!(out.as_deref(), Ok("true"));
    assert_eq!((lazy.ws_requests, lazy.ws_issued), (1, 1));
    let (out, drained) = run(query, Mode::Drained);
    assert_eq!(out.as_deref(), Ok("true"));
    assert_eq!(drained.ws_requests, 3, "-lazy evaluates every tuple");
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

/// A user function called from the `where` sees its parameters and the
/// prolog's variables, never the caller's: a view whose `where` calls
/// one on other values unfolds and agrees under every consumer, and a
/// function that reads the row's variable is an undefined-variable
/// error in every mode, raised when the module is prepared.
#[test]
fn a_user_function_in_the_where_unfolds_and_does_not_see_the_row() {
    let prolog = "declare function local:v() { for $i in (1, 2, 3) \
           return <R><K>{$i}</K><V>{$i * 2}</V></R> }; \
         declare function local:inc($x) { $x + 1 };";
    let reads_r = "declare function local:k() { fn:exists($r/V) };";
    let flwor = "for $n in (0, 2) for $r in local:v() where $r/K eq local:inc($n) \
         return <hit n=\"{$n}\">{fn:data($r/V)}</hit>";
    for &(consumer, wrap) in CONSUMERS {
        let what = format!("a user function in the where / {consumer}");
        let [l, d, r] = agree(&format!("{prolog}{}", wrap.replace("{}", flwor)), &what);
        assert!(l.view_unfolds > 0 && d.view_unfolds > 0, "must unfold: {what}");
        assert_eq!(r.view_unfolds, 0, "{what}");
    }
    let (out, _) = run(&format!("{prolog}{flwor}"), Mode::Drained);
    assert_eq!(out.unwrap(), "<hit n=\"0\">2</hit><hit n=\"2\">6</hit>");
    let reads_the_row = "for $r in local:v() where local:k() return $r/K";
    for mode in [Mode::Lazy, Mode::Drained, Mode::Reference] {
        let (out, _) = run(&format!("{prolog}{reads_r}{reads_the_row}"), mode);
        assert_eq!(out.unwrap_err(), "XPST0008", "{mode:?}");
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

/// An outer key that is not numeric, untyped or `xs:string` compares
/// with an untyped row key by casting that key to its type, trimming it
/// and accepting every lexical form, which the index's hashed text
/// cannot decide: such a key takes the plain path for its tuple.
#[test]
fn join_keys_the_index_cannot_decide_take_the_plain_path() {
    for (name, expected) in [
        ("hash join, boolean outer keys against padded and numeric untyped keys", "true: true false:0"),
        ("hash join, a date outer key against a padded untyped key", "hit"),
    ] {
        let shape = SHAPES.iter().find(|s| s.0 == name).expect("shape");
        for mode in [Mode::Lazy, Mode::Drained, Mode::Reference] {
            let (out, stats) = run(shape.1, mode);
            assert_eq!(out.as_deref(), Ok(expected), "{name} ({mode:?})");
            if !matches!(mode, Mode::Reference) {
                assert_eq!(stats.join_misses, 1, "the index is still built: {name} ({mode:?})");
            }
        }
    }
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

/// A table whose columns hold the values a lexical index and XQuery
/// comparison could tell apart: `DeptNo` (Varchar) holds `D1`, `d1`,
/// ` D1`, `D1 `, the empty string and NULL; `N` (Integer) holds 7, 70,
/// −7 and NULL; `B` (Boolean) holds `true`, `false` and NULL. Row `i`
/// has `ID` `i`.
fn lexical_edges() -> DataSpace {
    let db = Database::new("edges");
    db.create_table(TableSchema {
        name: "T".into(),
        columns: vec![
            Column::required("ID", ColumnType::Integer),
            Column::nullable("DeptNo", ColumnType::Varchar),
            Column::nullable("N", ColumnType::Integer),
            Column::nullable("B", ColumnType::Boolean),
        ],
        primary_key: vec!["ID".into()],
        foreign_keys: vec![],
    })
    .expect("schema");
    let rows = [
        (Some("D1"), Some(7), Some(true)),
        (Some("d1"), Some(70), Some(false)),
        (Some(" D1"), Some(-7), None),
        (Some("D1 "), Some(7), Some(true)),
        (Some(""), None, Some(false)),
        (None, Some(70), Some(true)),
    ];
    for (id, (dept, n, b)) in (1..).zip(rows) {
        let row = vec![
            SqlValue::Int(id),
            dept.map_or(SqlValue::Null, |d| SqlValue::Str(d.into())),
            n.map_or(SqlValue::Null, SqlValue::Int),
            b.map_or(SqlValue::Null, SqlValue::Bool),
        ];
        db.insert("T", row).expect("insert");
    }
    let space = DataSpace::new();
    space.register_relational_source(&db).expect("introspect");
    space
}

/// The columns of [`lexical_edges`] a `where` compares.
const EDGE_COLUMNS: [&str; 3] = ["DeptNo", "N", "B"];

/// (key, whether it is pushed down on each of [`EDGE_COLUMNS`]): keys
/// whose push is exact, keys whose rows the `where` must re-check, and
/// keys `pushdown_key` declines for the column.
const EDGE_KEYS: &[(&str, [bool; 3])] = &[
    ("'D1'", [true, false, false]),
    ("''", [true, false, false]),
    ("'7'", [true, false, false]),
    // A row's untyped `DeptNo`: ` D1`, then `D1`.
    ("fn:data(e:T()[ID eq 3]/DeptNo)", [true, false, false]),
    ("fn:data(e:T()[ID eq 1]/DeptNo)", [true, false, false]),
    ("7", [false, true, false]),
    ("xs:untypedAtomic('7')", [true, true, false]),
    ("xs:untypedAtomic('007')", [true, true, false]),
    ("xs:untypedAtomic(' 7')", [true, true, false]),
    ("7.0", [false, true, false]),
    ("7e0", [false, true, false]),
    ("fn:true()", [false, false, true]),
    ("xs:untypedAtomic('true')", [true, false, true]),
    ("xs:untypedAtomic('1')", [true, true, true]),
    ("xs:untypedAtomic(' true')", [true, false, true]),
];

/// Pushed-down keys, exact or re-checked, give what plain evaluation
/// gives on values that differ only in case, surrounding whitespace or
/// leading zeros, under `eq` and `=` and every consumer (keys that
/// plain comparison rejects raise the same error code).
#[test]
fn pushed_down_keys_agree_on_lexical_edges() {
    for &(key, pushed_on) in EDGE_KEYS {
        for (col, pushed) in EDGE_COLUMNS.into_iter().zip(pushed_on) {
            for op in ["eq", "="] {
                let flwor = format!(
                    "for $k in {key} for $t in e:T() where $t/{col} {op} $k \
                     return <t>{{fn:data($t/ID)}}</t>"
                );
                for &(consumer, wrap) in CONSUMERS {
                    let what = format!("$t/{col} {op} {key} / {consumer}");
                    let src = format!(
                        "declare namespace e = \"ld:edges/T\"; {}",
                        wrap.replace("{}", &flwor)
                    );
                    let [l, d, r] = agree_in(lexical_edges, &src, &what);
                    assert_eq!(pushdowns(&l) > 0, pushed, "lazily: {what}");
                    assert_eq!(pushdowns(&d) > 0, pushed, "drained: {what}");
                    assert_eq!(pushdowns(&r), 0, "{what}");
                }
            }
        }
    }
    // Spot-check the reference itself: the key `D1` is neither `d1`
    // nor ` D1` nor `D1 `.
    let q = "declare namespace e = \"ld:edges/T\"; \
             for $t in e:T() where $t/DeptNo eq 'D1' return fn:data($t/ID)";
    assert_eq!(run_in(&lexical_edges(), q, Mode::Reference).0.as_deref(), Ok("1"));
}

/// An update statement that changes the `where` column of a row a
/// pushed-down select handed out flushes the keyed-select cache, so the
/// same key pushed down again is answered from the table, not from the
/// changed row: trusting the source stays exact.
#[test]
fn node_updates_to_the_where_column_do_not_leak_into_exact_pushdowns() {
    let query = r#"
declare namespace ens1 = "ld:hr/EMPLOYEE";
{
  replace value of node
    (for $e in ens1:EMPLOYEE() where $e/DeptNo eq 'D3' return $e)[1]/DeptNo
    with "D4";
  return value (
    for $d in ('D3', 'D4')
    return fn:string-join(
      for $e in ens1:EMPLOYEE() where $e/DeptNo eq $d
      return fn:concat($e/EmployeeID, ':', $e/DeptNo), ' '));
}
"#;
    let run = |features: Features| {
        let space = employees(30);
        space.engine().set_features(features);
        let out = space.xqse().run_with_env(query, &mut Env::new()).expect("run");
        let texts: Vec<String> = out.iter().map(|i| i.string_value()).collect();
        (texts, space.engine().opt_stats())
    };
    let (plain, p) = run(Features::NONE);
    let (optimized, o) = run(Features::ALL);
    assert_eq!(plain, ["3:D3 10:D3 17:D3 24:D3", "4:D4 11:D4 18:D4 25:D4"]);
    assert_eq!(optimized, plain);
    assert_eq!(pushdowns(&p), 0);
    assert_eq!(pushdowns(&o), 3, "the update's read and one per key after it");
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

/// An update statement whose writes reach no sealed arena flushes no
/// source cache: a loop that inserts into a constructed `<log/>` held
/// by a block variable materializes the table as often as the same loop
/// without the insert. Each insert used to flush every cache, and the
/// next read rebuilt the table.
#[test]
fn local_node_updates_do_not_flush_the_source_caches() {
    let program = |insert: &str| {
        format!(
            "declare namespace ens1 = \"ld:hr/EMPLOYEE\";
{{
  declare $c := 0; declare $i := 0; declare $log := <log/>;
  while ($i lt 50) {{
    set $c := $c + fn:count(ens1:EMPLOYEE());
    {insert}
    set $i := $i + 1;
  }}
  return value ($c, fn:count($log/e));
}}"
        )
    };
    let run = |insert: &str| {
        let space = employees(500);
        space.engine().set_features(Features::ALL);
        let out = space.xqse().run_with_env(&program(insert), &mut Env::new()).expect("run");
        (serialize_sequence(&out), space.engine().opt_stats().mat_misses)
    };
    let (counted, without) = run("");
    let (logged, with) = run("insert node <e/> into $log;");
    assert_eq!((counted.as_str(), logged.as_str()), ("25000 0", "25000 50"));
    assert_eq!(with, without, "materializations with the insert and without it");
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
    // Two texts of one shape run one plan, so their join sources are
    // one expression at one address; the entry is keyed on the values
    // of the literal slots the source reads as well.
    let join = |v: &str| {
        format!(
            "for $a in (1, 2) for $b in (<b><k>1</k><v>{{'{v}'}}</v></b>, \
             <b><k>2</k><v>{{'{v}2'}}</v></b>) where $b/k eq $a return fn:data($b/v)"
        )
    };
    for features in [Features::ALL, Features { lazy: false, ..Features::ALL }] {
        let xqse = Xqse::new();
        let engine = xqse.engine();
        engine.set_features(features);
        let mut env = Env::new();
        for (v, hits) in [("OLD", 0), ("NEW", 0), ("NEW", 1), ("OLD", 2)] {
            let out = xqse.run_with_env(&join(v), &mut env).expect("join");
            assert_eq!(serialize_sequence(&out), format!("{v} {v}2"), "features {features}");
            assert_eq!(engine.opt_stats().join_hits, hits, "{v}, features {features}");
        }
        let s = engine.opt_stats();
        assert_eq!((s.plan_misses, s.plan_hits), (1, 3), "one shape, features {features}");
    }
}

/// A window passes over the candidates before its start without binding
/// them, yet charges each one budget step and counts it as pulled, as
/// binding did: a fuel-limited deep page runs out of fuel at the same
/// step, with the same tuples pulled, as when every candidate was bound.
/// Each page is (text, its output, the steps and tuples pulled of a run
/// with unlimited fuel, a fuel that runs out before the window, and the
/// tuples pulled by then).
#[test]
fn deep_pages_run_out_of_fuel_where_binding_each_candidate_did() {
    let pushed_down = "declare namespace ens1 = \"ld:hr/EMPLOYEE\"; \
        fn:subsequence(for $e in ens1:EMPLOYEE() where $e/DeptNo eq 'D3' \
        return <row>{fn:data($e/EmployeeID)}</row>, 31, 3)";
    let positional = "fn:subsequence(for $i at $p in (1 to 900)[. mod 3 ne 0] \
        return <r>{$p}</r>, 501, 3)";
    let pages = [
        (pushed_down, "<row>213</row><row>220</row><row>227</row>", (50, 33), (25, 20)),
        (positional, "<r>501</r><r>502</r><r>503</r>", (5017, 503), (4800, 292)),
    ];
    for (page, expected, (steps, pulled), (short, short_pulled)) in pages {
        let run = |budget: Budget| {
            let space = employees(300);
            space.engine().set_features(Features::ALL);
            let budget = std::sync::Arc::new(budget);
            space.engine().set_budget(Some(budget.clone()));
            let out = space.xqse().run_with_env(page, &mut Env::new());
            let out = out.map(|s| serialize_sequence(&s)).map_err(|e| e.code.to_string());
            (out, budget.steps_taken(), space.engine().opt_stats().tuples_pulled)
        };
        let (out, taken, got) = run(Budget::unlimited());
        assert_eq!(out.as_deref(), Ok(expected), "{page}");
        assert_eq!((taken, got), (steps, pulled), "{page}");
        assert_eq!(run(Budget::unlimited().limit_fuel(steps)).0.as_deref(), Ok(expected));
        let (out, taken, _) = run(Budget::unlimited().limit_fuel(steps - 1));
        assert!(out.unwrap_err().ends_with("FUEL_EXHAUSTED"), "{page}");
        assert_eq!(taken, steps - 1, "{page}");
        let (out, taken, got) = run(Budget::unlimited().limit_fuel(short));
        assert!(out.unwrap_err().ends_with("FUEL_EXHAUSTED"), "{page}");
        assert_eq!((taken, got), (short, short_pulled), "{page}");
    }
}

/// Query bodies with literals of all four types in filters, `[k]`
/// windows, `count(E) op N`, pushed-down `where`s, a view unfold, joins,
/// constructors and errors. Each `#i`, `#d`, `#e` and `#s` is an
/// integer, decimal, double or string literal ([`fill`]); a block
/// template runs under no consumer.
const TEMPLATES: &[(&str, bool)] = &[
    ("(1 to 20)[. mod #i eq #i]", false),
    ("for $i in 1 to 30 where $i mod #i eq 0 return <r n=\"{$i}\">{$i * #d}</r>", false),
    ("(for $i in 1 to 30 return <r>{$i}</r>)[#i]", false),
    ("(for $i in 1 to 30 return <r>{$i}</r>)[position() lt #i]", false),
    ("(for $i in 1 to 30 return <r>{$i}</r>)[#e]", false),
    ("(for $i in 1 to 30 return <r>{$i}</r>)[#d]", false),
    ("fn:count(for $i in 1 to 50 where $i mod 2 eq 0 return $i) gt #i", false),
    ("fn:count(for $i in 1 to 50 return $i) le #d", false),
    ("#e lt fn:count(for $i in 1 to 50 return $i)", false),
    ("for $cc in cre:CREDIT_CARD() where $cc/CID eq #i return <cc>{fn:data($cc/CCID)}</cc>", false),
    ("for $c in cus:CUSTOMER() where $c/LAST_NAME eq #s return <c>{fn:data($c/CID)}</c>", false),
    ("for $p in ns1:getProfile() where $p/CID eq #s return fn:data($p/LAST_NAME)", false),
    (
        "for $a in (#i, #i) for $b in (<b><k>1</k><v>{#s}</v></b>, <b><k>2</k><v>{#s}</v></b>) \
         where $b/k eq $a return fn:data($b/v)",
        false,
    ),
    ("<r a='fixed'>{#s, #d, #e, #i}<x>{fn:string-length(#s)}</x></r>", false),
    ("xs:integer(#s) + #i", false),
    ("#i idiv #i", false),
    (
        "{ declare $s := 0; iterate $i over 1 to #i { set $s := $s + $i * #d; } \
         return value ($s, #s); }",
        true,
    ),
    ("{ declare $n := #i; while ($n gt #e) { set $n := $n - 1; } return value <n>{$n}</n>; }", true),
];

/// `template` with its placeholders filled from the `k`th choice on:
/// texts of one shape for different `k`. [`TEMPLATES`]' `t`th template
/// is filled for `k` = `t` and `t + 1`, and the choices are ordered so
/// that those texts include keys that match rows and keys that do not,
/// `idiv 0`, `mod 0` and strings that are not integers.
fn fill(template: &str, k: usize) -> String {
    let values: [(&str, &[&str]); 4] = [
        ("#i", &["1", "2", "3", "5", "0", "7", "40"]),
        ("#d", &["0.5", "1.0", "2.25", ".5", "3."]),
        ("#e", &["1e0", "2.5e0", "3E1", "0e0", "1.5e-1"]),
        ("#s", &["'x'", "'it''s'", "'Wong'", "'5'", "'2'", "\"&amp;\"", "'12'", "'Smith'"]),
    ];
    let mut out = template.to_string();
    let mut n = k;
    while let Some((at, (hole, choices))) =
        values.iter().filter_map(|v| out.find(v.0).map(|at| (at, v))).min_by_key(|(at, _)| *at)
    {
        out.replace_range(at..at + hole.len(), choices[n % choices.len()]);
        n += 3;
    }
    out
}

/// Run `a` and then `b` on one demo space, one engine and one `Env`,
/// with every layer on: each one's serialization (or error code), and
/// the engine's counters.
fn run_pair(a: &str, b: &str, lazy: bool) -> ([Result<String, String>; 2], OptStats) {
    let space = demo_space();
    let (xqse, engine) = (space.xqse(), space.engine());
    engine.set_features(Features { lazy, ..Features::ALL });
    let mut env = Env::new();
    let outs = [a, b].map(|src| {
        let out = if lazy {
            let mut ser = IncrementalSerializer::new();
            xqse.run_to_sink(src, &mut env, &mut |item| {
                ser.write_item(&item);
                Ok(())
            })
            .map(|()| ser.finish())
        } else {
            xqse.run_with_env(src, &mut env).map(|s| serialize_sequence(&s))
        };
        out.map_err(|e| e.code.to_string())
    });
    (outs, engine.opt_stats())
}

/// What a verbatim parse of `src` gives on a demo space with every
/// layer off.
fn verbatim(src: &str) -> Result<String, String> {
    let space = demo_space();
    space.engine().set_features(Features::NONE);
    let out = space.xqse().run_with_env(src, &mut Env::new());
    out.map(|s| serialize_sequence(&s)).map_err(|e| e.code.to_string())
}

/// Two texts of one shape run on one engine and one `Env` share a plan,
/// and each gives what a verbatim parse of it gives, pulled and drained,
/// under every consumer.
#[test]
fn texts_of_one_shape_run_one_plan_with_their_own_literals() {
    for (t, &(template, block)) in TEMPLATES.iter().enumerate() {
        let consumers = if block { &CONSUMERS[..1] } else { CONSUMERS };
        for &(consumer, wrap) in consumers {
            let [a, b] = [t, t + 1].map(|k| format!("{PROLOG}{}", wrap.replace("{}", &fill(template, k))));
            let want = [verbatim(&a), verbatim(&b)];
            for lazy in [true, false] {
                let what = format!("{template} / {consumer} / lazy {lazy}");
                let (got, s) = run_pair(&a, &b, lazy);
                assert_eq!(got, want, "{what}\n{a}\n{b}");
                assert_eq!((s.plan_misses, s.plan_hits), (1, 1), "one shape: {what}");
            }
        }
    }
}

/// The benchmark's `page_query` texts: every page of 20 rows of each of
/// `etl_space(5000)`'s seven departments, 252 texts of one shape. One
/// engine parses the first and runs each other through its plan with
/// its own department and offset, and every page holds its slice of the
/// department.
#[test]
fn every_page_text_runs_one_plan() {
    const ROWS: i64 = 5000;
    let f = xqse_bench::etl_space(ROWS);
    let engine = f.space.engine();
    engine.set_features(Features::ALL);
    let mut texts = 0;
    for dept in 0..7 {
        let ids: Vec<i64> = (1..=ROWS).filter(|i| i % 7 == dept).collect();
        for (page, rows) in ids.chunks(20).enumerate() {
            let text = format!(
                "declare namespace ens1 = \"ld:hr/EMPLOYEE\";\n\
                 fn:subsequence(for $e in ens1:EMPLOYEE() where $e/DeptNo eq 'D{dept}' \
                 return <row><id>{{fn:data($e/EmployeeID)}}</id><name>{{fn:data($e/Name)}}</name></row>, \
                 {}, 20)",
                page * 20 + 1
            );
            let out = f.space.xqse().run_with_env(&text, &mut Env::new()).expect("page");
            let want: String = rows
                .iter()
                .map(|i| format!("<row><id>{i}</id><name>First{i} Last{i}</name></row>"))
                .collect();
            assert_eq!(serialize_sequence(&out), want, "{text}");
            texts += 1;
        }
    }
    assert_eq!(texts, 252);
    let s = engine.opt_stats();
    assert_eq!((s.plan_misses, s.plan_hits), (1, 251));
}
