//! Property-based tests (proptest) over the invariants DESIGN.md §8
//! calls out: serializer∘parser identity, document order totality,
//! decimal arithmetic laws, iterate/for agreement, while-loop closed
//! forms, PUL behaviour, and 2PC atomicity.

use proptest::prelude::*;

use xqse_repro::aldsp::rel::{
    Column, ColumnType, Database, SqlValue, TableSchema, TwoPhaseCoordinator, TxOutcome, WriteOp,
};
use xqse_repro::aldsp::service::DataSpace;
use xqse_repro::aldsp::{
    AldspCode, CoordinatorJournal, FaultInjector, FaultKind, FaultPlan, FaultRule, Op,
    RecoveryManager,
};
use xqse_repro::xdm::decimal::Decimal;
use xqse_repro::xdm::node::{NodeHandle, NodeKind};
use xqse_repro::xdm::error::XdmError;
use xqse_repro::xdm::qname::QName;
use xqse_repro::xdm::sequence::{Item, Sequence};
use xqse_repro::xmlparse::{parse, serialize, serialize_sequence};
use xqse_repro::xqeval::Features;
use xqse_repro::xqse::Xqse;

// ------------------------------------------------- XML tree generator

/// A recursive tree model we can render to XML and compare.
#[derive(Debug, Clone)]
enum TreeNode {
    Element { name: String, attrs: Vec<(String, String)>, children: Vec<TreeNode> },
    Text(String),
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,6}".prop_map(|s| s)
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Includes XML-hostile characters that must round-trip via
    // escaping; excludes raw control chars.
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('<'),
            Just('&'),
            Just('>'),
            Just('"'),
            Just('\''),
            Just('é'),
            Just(' '),
            Just('{'),
        ],
        1..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn tree_strategy() -> impl Strategy<Value = TreeNode> {
    let leaf = prop_oneof![
        text_strategy().prop_map(TreeNode::Text),
        name_strategy().prop_map(|n| TreeNode::Element {
            name: n,
            attrs: vec![],
            children: vec![]
        }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, mut attrs, children)| {
                // Attribute names must be unique.
                attrs.sort_by(|a, b| a.0.cmp(&b.0));
                attrs.dedup_by(|a, b| a.0 == b.0);
                TreeNode::Element { name, attrs, children }
            })
    })
}

fn build_tree(t: &TreeNode, arena: &xqse_repro::xdm::node::SharedArena) -> NodeHandle {
    match t {
        TreeNode::Text(s) => NodeHandle::new_text(arena, s.clone()),
        TreeNode::Element { name, attrs, children } => {
            let e = NodeHandle::new_element(arena, QName::new(name.clone()));
            for (an, av) in attrs {
                e.set_attribute(&NodeHandle::new_attribute(
                    arena,
                    QName::new(an.clone()),
                    av.clone(),
                ))
                .unwrap();
            }
            for c in children {
                let cn = build_tree(c, arena);
                e.append_child(&cn).unwrap();
            }
            e
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse(serialize(t)) is structurally equal to t.
    #[test]
    fn xml_serialize_parse_round_trip(t in tree_strategy()) {
        // Ensure a single element root.
        let root = match t {
            e @ TreeNode::Element { .. } => e,
            other => TreeNode::Element {
                name: "root".into(),
                attrs: vec![],
                children: vec![other],
            },
        };
        let arena = xqse_repro::xdm::node::NodeArena::new();
        let node = build_tree(&root, &arena);
        let xml = serialize(&node);
        let doc = parse(&xml).unwrap();
        let back = doc
            .children()
            .into_iter()
            .find(|c| c.kind() == NodeKind::Element)
            .unwrap();
        prop_assert!(node.deep_equal(&back), "{xml}");
    }

    /// Document order is a strict total order consistent over any pair
    /// of nodes from the same tree.
    #[test]
    fn document_order_is_total_and_antisymmetric(t in tree_strategy()) {
        let arena = xqse_repro::xdm::node::NodeArena::new();
        let node = build_tree(&t, &arena);
        let mut all = vec![node.clone()];
        all.extend(node.descendants());
        for a in &all {
            for b in &all {
                let ab = a.document_order(b);
                let ba = b.document_order(a);
                prop_assert_eq!(ab, ba.reverse());
                prop_assert_eq!(ab == std::cmp::Ordering::Equal, a == b);
            }
        }
        // Transitivity on the sorted sequence.
        let mut sorted = all.clone();
        sorted.sort_by(|x, y| x.document_order(y));
        for w in sorted.windows(2) {
            prop_assert_ne!(
                w[0].document_order(&w[1]),
                std::cmp::Ordering::Greater
            );
        }
    }

    /// Decimal arithmetic: exactness and ring laws on bounded inputs.
    #[test]
    fn decimal_ring_laws(
        a in -1_000_000i64..1_000_000,
        b in -1_000_000i64..1_000_000,
        c in -1000i64..1000,
        scale in 0u32..4,
    ) {
        let d = |m: i64| Decimal::from_parts(m as i128, scale);
        let (da, db, dc) = (d(a), d(b), d(c));
        // Commutativity and associativity of +.
        prop_assert_eq!(
            da.checked_add(db).unwrap(),
            db.checked_add(da).unwrap()
        );
        prop_assert_eq!(
            da.checked_add(db).unwrap().checked_add(dc).unwrap(),
            da.checked_add(db.checked_add(dc).unwrap()).unwrap()
        );
        // Distributivity of * over +.
        prop_assert_eq!(
            dc.checked_mul(da.checked_add(db).unwrap()).unwrap(),
            dc.checked_mul(da).unwrap().checked_add(dc.checked_mul(db).unwrap()).unwrap()
        );
        // Subtraction inverts addition.
        prop_assert_eq!(
            da.checked_add(db).unwrap().checked_sub(db).unwrap(),
            da
        );
        // Parse/display round trip.
        let s = da.to_string();
        prop_assert_eq!(Decimal::parse(&s).unwrap(), da);
    }

    /// `iterate … over $s` with a pure accumulator body computes the
    /// same result as the XQuery `for` expression.
    #[test]
    fn iterate_agrees_with_for(values in proptest::collection::vec(-100i64..100, 0..12)) {
        let seq = values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let seq = if seq.is_empty() { "()".to_string() } else { format!("({seq})") };
        let xqse = Xqse::new();
        let imperative = xqse
            .run(&format!(
                "{{ declare $acc := (); \
                   iterate $v over {seq} {{ set $acc := ($acc, $v * 2); }} \
                   return value $acc; }}"
            ))
            .unwrap();
        let declarative = xqse
            .run(&format!("for $v in {seq} return $v * 2"))
            .unwrap();
        prop_assert_eq!(
            imperative.atomized().iter().map(|a| a.string_value()).collect::<Vec<_>>(),
            declarative.atomized().iter().map(|a| a.string_value()).collect::<Vec<_>>()
        );
    }

    /// The while-loop doubling program matches its closed form.
    #[test]
    fn while_loop_closed_form(start in 1i64..50, limit in 1i64..10_000) {
        let xqse = Xqse::new();
        let out = xqse
            .run(&format!(
                "{{ declare $x := {start}, $n := 0; \
                   while ($x lt {limit}) {{ set $x := $x * 2; set $n := $n + 1; }} \
                   return value $n; }}"
            ))
            .unwrap();
        let got: i64 = out.string_value().unwrap().parse().unwrap();
        // Closed form: smallest n with start * 2^n >= limit.
        let mut expect = 0i64;
        let mut x = start;
        while x < limit {
            x *= 2;
            expect += 1;
        }
        prop_assert_eq!(got, expect);
    }

    /// OCC (UpdatedValues) never applies a lost update: when a
    /// concurrent writer changes the same column between read and
    /// submit, the submit must fail and the writer's value must
    /// survive.
    #[test]
    fn occ_never_loses_updates(theirs in "[a-z]{1,8}", mine in "[A-Z]{1,8}") {
        let d = xqse_repro::aldsp::demo::build(1, 0, 0).unwrap();
        let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
        let original = g.get_value(0, &["LAST_NAME"]).unwrap();
        g.set_value(0, &["LAST_NAME"], &mine).unwrap();
        d.db1
            .execute(vec![WriteOp::Update {
                table: "CUSTOMER".into(),
                set: vec![("LAST_NAME".into(), SqlValue::Str(theirs.clone()))],
                cond: vec![("CID".into(), SqlValue::Int(1))],
                expect_rows: 1,
            }])
            .unwrap();
        let submit = d.space.submit(&g);
        let now = d
            .db1
            .select("CUSTOMER", &vec![("CID".into(), SqlValue::Int(1))])
            .unwrap()[0][2]
            .lexical();
        if theirs == original {
            // The "concurrent" write was a no-op value-wise; ours wins.
            prop_assert!(submit.is_ok());
            prop_assert_eq!(now, mine);
        } else {
            prop_assert!(submit.is_err());
            prop_assert_eq!(now, theirs);
        }
    }

    /// 2PC atomicity holds for arbitrary op mixes and crash points:
    /// crash the coordinator at a sampled protocol point (or not at
    /// all), run recovery, and the transaction is all-or-nothing.
    #[test]
    fn two_phase_commit_is_atomic(
        point in 0usize..7,
        key in 1i64..100,
        poison in proptest::bool::ANY,
    ) {
        // The 2N + 2 protocol points of a two-branch transaction, then
        // no crash at all.
        let crash = [
            Some(("coordinator", Op::XaBegin)),
            Some(("a", Op::XaPrepared)),
            Some(("b", Op::XaPrepared)),
            Some(("coordinator", Op::XaDecide)),
            Some(("a", Op::XaCommit)),
            Some(("b", Op::XaCommit)),
            None,
        ][point];
        let mk = |name: &str| {
            let db = Database::new(name);
            db.create_table(TableSchema {
                name: "T".into(),
                columns: vec![Column::required("K", ColumnType::Integer)],
                primary_key: vec!["K".into()],
                foreign_keys: vec![],
            })
            .unwrap();
            db
        };
        let a = mk("a");
        let b = mk("b");
        if poison {
            // Make b's branch fail at prepare.
            b.insert("T", vec![SqlValue::Int(key)]).unwrap();
        }
        let plan = match crash {
            Some((source, op)) => {
                FaultPlan::new().rule(FaultRule::new(source, op, FaultKind::CrashPoint))
            }
            None => FaultPlan::new(),
        };
        // Only the coordinator consults this injector: neither source
        // is registered with the space.
        let injector = DataSpace::new().install_fault_injector(FaultInjector::new(plan));
        let journal = CoordinatorJournal::new();
        let ins = |k| WriteOp::Insert { table: "T".into(), row: vec![SqlValue::Int(k)] };
        let run = TwoPhaseCoordinator::new(vec![
            (a.clone(), vec![ins(key)]),
            (b.clone(), vec![ins(key)]),
        ])
        .run_journaled(&journal, Some(&injector), None);
        let recovery = RecoveryManager::new(&journal)
            .recover(|name| [&a, &b].into_iter().find(|db| db.name == name).cloned())
            .unwrap();
        let committed = match run {
            Ok(TxOutcome::Committed) => true,
            Ok(TxOutcome::Aborted(_)) => false,
            Err(e) => {
                prop_assert_eq!(AldspCode::of(&e), Some(AldspCode::XaCoordCrash));
                recovery.in_doubt_found == 0
            }
        };
        let a_has = !a.select("T", &vec![("K".into(), SqlValue::Int(key))]).unwrap().is_empty();
        let b_count = b.select("T", &vec![("K".into(), SqlValue::Int(key))]).unwrap().len();
        if committed {
            prop_assert!(!poison);
            prop_assert!(a_has);
            prop_assert_eq!(b_count, 1);
        } else {
            prop_assert!(!a_has, "aborted tx must leave no trace in a");
            prop_assert_eq!(b_count, poison as usize, "only the poison row may exist");
        }
        prop_assert!(journal.is_clean(), "recovery resolved every transaction");
    }

    /// Tokenize then string-join with the same separator restores any
    /// separator-free-token string (fn library consistency).
    #[test]
    fn tokenize_join_inverse(tokens in proptest::collection::vec("[a-z]{1,5}", 1..6)) {
        let joined = tokens.join(",");
        let xqse = Xqse::new();
        let out = xqse
            .run(&format!(
                "fn:string-join(fn:tokenize('{joined}', ','), ',')"
            ))
            .unwrap();
        prop_assert_eq!(out.string_value().unwrap(), joined);
    }

    /// Arbitrary integer arithmetic agrees with Rust evaluation.
    #[test]
    fn arithmetic_oracle(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        let xqse = Xqse::new();
        let out = xqse.run(&format!("({a}) + ({b}) * 2 - ({a}) idiv 7")).unwrap();
        let got: i64 = out.string_value().unwrap().parse().unwrap();
        // XQuery idiv truncates toward zero, like Rust's /.
        prop_assert_eq!(got, a + b * 2 - a / 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The XML parser never panics on arbitrary input — it either
    /// parses or returns an error.
    #[test]
    fn xml_parser_never_panics(input in "\\PC{0,64}") {
        let _ = parse(&input);
    }

    /// Arbitrary near-XML soup (angle brackets, braces, quotes).
    #[test]
    fn xml_parser_never_panics_on_markup_soup(
        input in proptest::collection::vec(
            prop_oneof![
                Just("<"), Just(">"), Just("/"), Just("a"), Just("="),
                Just("\""), Just("&"), Just(";"), Just("<a>"), Just("</a>"),
                Just("<![CDATA["), Just("]]>"), Just("<!--"), Just("-->"),
                Just("xmlns"), Just(":"), Just("é"),
            ],
            0..24,
        )
    ) {
        let _ = parse(&input.concat());
    }

    /// The XQuery/XQSE parser never panics on arbitrary input.
    #[test]
    fn xq_parser_never_panics(input in "\\PC{0,64}") {
        let _ = xqse_repro::xqparser::parse_module(&input);
    }

    /// Token soup built from real language fragments.
    #[test]
    fn xq_parser_never_panics_on_token_soup(
        input in proptest::collection::vec(
            prop_oneof![
                Just("{"), Just("}"), Just("("), Just(")"), Just(";"),
                Just("declare"), Just("$x"), Just(":="), Just("while"),
                Just("iterate"), Just("over"), Just("return"), Just("value"),
                Just("try"), Just("catch"), Just("<a>"), Just("</a>"),
                Just("for"), Just("in"), Just("1"), Just("'s'"), Just("fn:data"),
                Just("procedure"), Just("if"), Just("then"), Just("else"),
                Just("(:"), Just(":)"), Just("§"), Just(".."), Just("@"),
            ],
            0..20,
        )
    ) {
        let _ = xqse_repro::xqparser::parse_module(&input.join(" "));
    }

    /// The regex engine never panics on arbitrary patterns.
    #[test]
    fn regex_never_panics(pattern in "\\PC{0,24}", text in "\\PC{0,24}") {
        if let Ok(rx) = xqse_repro::xqeval::regex_lite::Regex::compile(&pattern) {
            let _ = rx.is_match(&text);
            let _ = rx.tokenize(&text);
        }
    }
}

// ------------------------------------------- batched WS equivalence

/// One deterministic fault shape for the credit-rating service. All
/// variants are chosen so that, with warm response caches, every
/// access — batched or sequential — is guaranteed to succeed: the
/// retryable kinds stay within the policy's retry budget, and
/// `Permanent` outages degrade to stale cache reads.
#[derive(Debug, Clone)]
enum WsFault {
    /// `FailNTimes(k)`, k <= max_retries: absorbed by retry.
    FailN(u32),
    /// Capped timeout faults: absorbed by retry.
    TimeoutN(u32),
    /// Injected latency (may or may not exceed the timeout budget).
    Slow { ms: u64, times: u32 },
}

fn ws_fault_strategy() -> impl Strategy<Value = WsFault> {
    prop_oneof![
        (1u32..=3).prop_map(WsFault::FailN),
        (1u32..=3).prop_map(WsFault::TimeoutN),
        ((1u32..=3), (1u32..=3))
            .prop_map(|(i, times)| WsFault::Slow { ms: i as u64 * 400, times }),
    ]
}

fn ws_fault_plan(retryable: &Option<WsFault>, outage: bool) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if let Some(f) = retryable {
        let rule = match f {
            WsFault::FailN(k) => {
                FaultRule::new("CreditRating", Op::Call, FaultKind::FailNTimes(*k))
            }
            WsFault::TimeoutN(k) => {
                FaultRule::new("CreditRating", Op::Call, FaultKind::Timeout).times(*k)
            }
            WsFault::Slow { ms, times } => {
                FaultRule::new("CreditRating", Op::Call, FaultKind::SlowResponse(*ms))
                    .times(*times)
            }
        };
        plan = plan.rule(rule);
    }
    if outage {
        plan = plan.rule(FaultRule::new(
            "CreditRating",
            Op::Call,
            xqse_repro::aldsp::FaultKind::Permanent,
        ));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched (`call_many`, with request coalescing and one
    /// resilience transaction per flight) and sequential (`call` per
    /// request) web-service access return the same values — equal to
    /// the no-fault ground truth — under every deterministic fault
    /// plan in the strategy, including a permanent mid-run outage
    /// where both paths degrade to stale cached responses.
    #[test]
    fn batched_ws_access_agrees_with_sequential_under_faults(
        retryable in proptest::collection::vec(ws_fault_strategy(), 0usize..2),
        outage in proptest::bool::ANY,
        picks in proptest::collection::vec(0usize..5, 1..12),
    ) {
        use xqse_repro::aldsp::ws::{credit_score, WebService};
        use xqse_repro::aldsp::{Policy, Resilience};

        let retryable = retryable.into_iter().next();
        let ssns: Vec<String> = (0..5).map(|i| format!("00{i}-11-222{i}")).collect();
        let mk_request = |ssn: &str| -> Sequence {
            let xml = format!(
                "<getCreditRating xmlns=\"urn:cr\">\
                 <lastName>Doe</lastName><ssn>{ssn}</ssn></getCreditRating>"
            );
            Sequence::one(Item::Node(parse(&xml).unwrap().children()[0].clone()))
        };
        let truth: Vec<String> =
            picks.iter().map(|&p| credit_score(&ssns[p], "Doe").to_string()).collect();

        // Two independent services in identically-seeded fault worlds.
        let seq_svc = WebService::credit_rating("urn:cr");
        let bat_svc = WebService::credit_rating("urn:cr");

        // Warm every unique request while healthy (both caches).
        for ssn in &ssns {
            seq_svc.call("getCreditRating", &mk_request(ssn)).unwrap();
            bat_svc.call("getCreditRating", &mk_request(ssn)).unwrap();
        }

        // Install the same plan (fresh budgets) on both.
        let faulted_access = |plan| {
            let space = DataSpace::new();
            space.install_resilience(Resilience::new(Policy::default()));
            space.install_fault_injector(FaultInjector::new(plan));
            space.access()
        };
        seq_svc.set_access(faulted_access(ws_fault_plan(&retryable, outage)));
        bat_svc.set_access(faulted_access(ws_fault_plan(&retryable, outage)));

        let requests: Vec<Sequence> = picks.iter().map(|&p| mk_request(&ssns[p])).collect();
        let batched = bat_svc.call_many("getCreditRating", &requests);
        prop_assert!(batched.is_ok(), "batched access failed: {:?}", batched.err());
        for (resp, want) in batched.unwrap().iter().zip(&truth) {
            prop_assert_eq!(&resp.items()[0].string_value(), want);
        }
        for (req, want) in requests.iter().zip(&truth) {
            let resp = seq_svc.call("getCreditRating", req);
            prop_assert!(resp.is_ok(), "sequential access failed: {:?}", resp.err());
            prop_assert_eq!(&resp.unwrap().items()[0].string_value(), want);
        }
    }
}

// ------------------------------------------- lazy / eager equivalence

/// The consumer wrapped around a generated FLWOR — the early-exit
/// shapes the streaming evaluator intercepts, plus a full drain.
#[derive(Debug, Clone)]
enum LazyConsumer {
    Full,
    Exists,
    Empty,
    CountGt(usize),
    /// `fn:subsequence` with a start on a half step (rounded as
    /// `fn:round` does) and an optional length.
    Subsequence(f64, Option<usize>),
    Positional(usize),
    SomeGe(usize),
    EveryLt(usize),
}

impl LazyConsumer {
    /// Must the consumer pull the stream? A window that ends before
    /// position 1 selects nothing without pulling.
    fn pulls(&self) -> bool {
        match self {
            LazyConsumer::Subsequence(s, Some(l)) => (s + 0.5).floor() + *l as f64 > 1.0,
            _ => true,
        }
    }
}

fn lazy_consumer_strategy() -> impl Strategy<Value = LazyConsumer> {
    prop_oneof![
        Just(LazyConsumer::Full),
        Just(LazyConsumer::Exists),
        Just(LazyConsumer::Empty),
        (0usize..20).prop_map(LazyConsumer::CountGt),
        ((-6i32..=60), (1usize..10))
            .prop_map(|(h, l)| LazyConsumer::Subsequence(f64::from(h) / 2.0, Some(l))),
        (-6i32..=60).prop_map(|h| LazyConsumer::Subsequence(f64::from(h) / 2.0, None)),
        (1usize..30).prop_map(LazyConsumer::Positional),
        (1usize..40).prop_map(LazyConsumer::SomeGe),
        (1usize..40).prop_map(LazyConsumer::EveryLt),
    ]
}

/// Render the generated query. The base FLWOR filters with `mod` so
/// the result is a strict, non-trivial subset of the range; quantified
/// consumers use an atomized body (their bindings are items, not
/// constructed elements).
fn lazy_query(n: usize, m: usize, consumer: &LazyConsumer) -> String {
    let base = format!("for $i in 1 to {n} where $i mod {m} ne 0 return <r>{{$i}}</r>");
    let atoms = format!("for $i in 1 to {n} where $i mod {m} ne 0 return $i * 2");
    match consumer {
        LazyConsumer::Full => base,
        LazyConsumer::Exists => format!("fn:exists({base})"),
        LazyConsumer::Empty => format!("fn:empty({base})"),
        LazyConsumer::CountGt(k) => format!("fn:count({base}) gt {k}"),
        LazyConsumer::Subsequence(s, Some(l)) => format!("fn:subsequence({base}, {s}, {l})"),
        LazyConsumer::Subsequence(s, None) => format!("fn:subsequence({base}, {s})"),
        LazyConsumer::Positional(k) => format!("({base})[{k}]"),
        LazyConsumer::SomeGe(k) => format!("some $x in ({atoms}) satisfies $x ge {k}"),
        LazyConsumer::EveryLt(k) => format!("every $x in ({atoms}) satisfies $x lt {k}"),
    }
}

/// Run a query through the sink entry on a fresh `Xqse`: the items
/// handed to the sink, in order, and the error that ended the run, if
/// any.
fn run_to_sink(xqse: &Xqse, src: &str) -> (Vec<Item>, Option<XdmError>) {
    let mut items = Vec::new();
    let mut env = xqse_repro::xqeval::Env::new();
    let err = xqse
        .run_to_sink(src, &mut env, &mut |item| {
            items.push(item);
            Ok(())
        })
        .err();
    (items, err)
}

/// Run a query through the sink entry: its serialization (or the error
/// text) plus the engine's `tuples_pulled` counter.
fn run_lazy(src: &str) -> (Result<String, String>, u64, bool) {
    let xqse = Xqse::new();
    let lazy_on = xqse.engine().features().lazy;
    let res = match run_to_sink(&xqse, src) {
        (items, None) => Ok(serialize_sequence(&Sequence::from_items(items))),
        (_, Some(e)) => Err(e.to_string()),
    };
    (res, xqse.engine().opt_stats().tuples_pulled, lazy_on)
}

/// Run the same query fully eagerly (`-lazy`).
fn run_eager(src: &str) -> Result<String, String> {
    let xqse = Xqse::new();
    let engine = xqse.engine();
    engine.set_features(Features { lazy: false, ..engine.features() });
    xqse.run(src)
        .map(|s| serialize_sequence(&s))
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pipelined evaluation is observationally equal to eager
    /// evaluation on fault-free queries: byte-identical serialization
    /// and `string_value`, across every intercepted consumer shape —
    /// with the pull counter proving the stream actually engaged.
    #[test]
    fn lazy_agrees_with_eager(
        n in 1usize..40,
        m in 2usize..5,
        consumer in lazy_consumer_strategy(),
    ) {
        let src = lazy_query(n, m, &consumer);
        let (lazy, pulled, lazy_on) = run_lazy(&src);
        let eager = run_eager(&src);
        prop_assert_eq!(&lazy, &eager, "query: {}", src);

        // string_value must agree too.
        let sv_lazy = match run_to_sink(&Xqse::new(), &src) {
            (items, None) => Sequence::from_items(items).string_value(),
            (_, Some(e)) => Err(e),
        }
        .map_err(|e| e.to_string());
        let b = Xqse::new();
        let engine = b.engine();
        engine.set_features(Features { lazy: false, ..engine.features() });
        let sv_eager = b.run(&src)
            .and_then(|s| s.string_value())
            .map_err(|e| e.to_string());
        prop_assert_eq!(sv_lazy, sv_eager, "query: {}", src);

        // The base FLWOR always yields at least one tuple (1 mod m is
        // never 0 for m > 1), so a live stream must have pulled.
        if lazy_on && consumer.pulls() {
            prop_assert!(pulled >= 1, "stream never engaged for: {}", src);
        }
    }

    /// A fault inside the stream raises the same error lazily and
    /// eagerly on a full drain, and the lazy drain yields exactly the
    /// items before the faulting tuple first.
    #[test]
    fn mid_stream_faults_agree_with_eager(n in 2usize..30, f in 1usize..30) {
        let f = 1 + (f - 1) % n; // fault lands inside the range
        let src = format!(
            "for $i in 1 to {n} return <r>{{ if ($i eq {f}) then 1 idiv 0 else $i }}</r>"
        );
        let (lazy, _, lazy_on) = run_lazy(&src);
        let eager = run_eager(&src);
        prop_assert!(lazy.is_err() && eager.is_err(), "both must fault: {}", src);
        prop_assert_eq!(lazy.as_ref().unwrap_err(), eager.as_ref().unwrap_err());
        prop_assert!(lazy.unwrap_err().contains("FOAR0001"));

        // Partial drain: items strictly before the fault come out.
        let (items, err) = run_to_sink(&Xqse::new(), &src);
        let got = items.len();
        if lazy_on {
            prop_assert_eq!(got, f - 1, "items before the faulting tuple");
            prop_assert!(err.is_some());
        } else {
            // `-lazy`: the error surfaced at run time instead.
            prop_assert!(err.is_some() || got == 0);
        }
    }

    /// Mid-stream budget expiry: a fuel-limited lazy drain either
    /// completes or stops with `FUEL_EXHAUSTED`, and whatever prefix
    /// it emitted is a byte prefix of the unbudgeted eager output.
    #[test]
    fn mid_stream_budget_expiry_is_clean(n in 10usize..40, fuel in 5usize..200) {
        use xqse_repro::xmlparse::IncrementalSerializer;
        let src = format!("for $i in 1 to {n} return <r>{{$i}}</r>");
        let full = run_eager(&src).unwrap();

        let xqse = Xqse::new();
        let budget = xqse_repro::xqeval::Budget::unlimited().limit_fuel(fuel as u64);
        xqse.engine().set_budget(Some(std::sync::Arc::new(budget)));
        let (items, err) = run_to_sink(&xqse, &src);
        let mut ser = IncrementalSerializer::new();
        for item in &items {
            ser.write_item(item);
        }
        let prefix = ser.finish();
        match err {
            None => prop_assert_eq!(prefix, full), // fuel sufficed
            Some(e) => {
                prop_assert!(
                    e.to_string().contains("FUEL_EXHAUSTED"),
                    "unexpected mid-stream error: {}", e
                );
                prop_assert!(
                    full.starts_with(&prefix),
                    "partial output must be a prefix: {:?}", prefix
                );
            }
        }
    }
}
