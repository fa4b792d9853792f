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
use xqse_repro::xdm::error::{ErrorCode, XdmError};
use xqse_repro::xdm::qname::QName;
use xqse_repro::xdm::sequence::{Item, Sequence};
use std::rc::Rc;

use xqse_repro::xmlparse::{parse, serialize, serialize_pretty, serialize_sequence};
use xqse_repro::xqeval::Features;
use xqse_repro::xqse::Xqse;

// ------------------------------------------------- XML tree generator

/// A recursive tree model we can render to XML and compare.
#[derive(Debug, Clone)]
enum TreeNode {
    Element { name: String, ns: Ns, attrs: Vec<(String, String)>, children: Vec<TreeNode> },
    Text(String),
}

/// An element's namespace binding: none, or a prefix (`""` for the
/// default namespace) bound to one of two URIs. Nested elements rebind
/// the prefixes back and forth, and an element whose prefix is `q`
/// carries a `q:z` attribute in its namespace.
type Ns = Option<(&'static str, &'static str)>;

fn ns_strategy() -> impl Strategy<Value = Ns> {
    prop_oneof![
        Just(None),
        Just(Some(("", "u1"))),
        Just(Some(("", "u2"))),
        Just(Some(("q", "u1"))),
        Just(Some(("q", "u2"))),
    ]
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
        (name_strategy(), ns_strategy()).prop_map(|(n, ns)| TreeNode::Element {
            name: n,
            ns,
            attrs: vec![],
            children: vec![]
        }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            ns_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, ns, mut attrs, children)| {
                // Attribute names must be unique.
                attrs.sort_by(|a, b| a.0.cmp(&b.0));
                attrs.dedup_by(|a, b| a.0 == b.0);
                TreeNode::Element { name, ns, attrs, children }
            })
    })
}

/// Every element's and attribute's namespace URI, in document order.
fn namespace_uris(n: &NodeHandle, out: &mut Vec<Option<String>>) {
    if n.kind() == NodeKind::Element {
        out.push(n.name().unwrap().ns.map(|u| u.to_string()));
        for a in n.attributes() {
            out.push(a.name().unwrap().ns.map(|u| u.to_string()));
        }
    }
    for c in n.children() {
        namespace_uris(&c, out);
    }
}

fn build_tree(t: &TreeNode, arena: &xqse_repro::xdm::node::SharedArena) -> NodeHandle {
    match t {
        TreeNode::Text(s) => NodeHandle::new_text(arena, s.clone()),
        TreeNode::Element { name, ns, attrs, children } => {
            let qname = match ns {
                None => QName::new(name.clone()),
                Some(("", uri)) => QName::with_ns(*uri, name.clone()),
                Some((prefix, uri)) => QName::with_prefix_ns(*prefix, *uri, name.clone()),
            };
            let e = NodeHandle::new_element(arena, qname);
            if let Some((prefix, uri)) = ns {
                e.add_ns_decl(*prefix, *uri);
                if !prefix.is_empty() {
                    let z = QName::with_prefix_ns(*prefix, *uri, "z");
                    e.set_attribute(&NodeHandle::new_attribute(arena, z, "1")).unwrap();
                }
            }
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

fn root_element(doc: &NodeHandle) -> NodeHandle {
    doc.children().into_iter().find(|c| c.kind() == NodeKind::Element).unwrap()
}

/// A deep, wide tree: `depth` nested spine elements, `width` leaves
/// under the spine element at `wide_at`, decorations drawn from `seed`,
/// and every `graft_every` spine levels (never, for 0) the rest of the
/// spine built in an arena of its own and grafted in. With `cow` a
/// child is appended to the innermost spine element through the graft
/// views, which copies the grafted parts on write.
#[derive(Debug, Clone)]
struct DeepTree {
    depth: usize,
    width: usize,
    wide_at: usize,
    seed: u64,
    graft_every: usize,
    cow: bool,
}

fn deep_tree_strategy() -> impl Strategy<Value = DeepTree> {
    let shape = (1usize..=5000, 1usize..=5000, 0usize..5000);
    (shape, 0i64..i64::MAX, 0usize..4, proptest::bool::ANY).prop_map(
        |((depth, width, wide), seed, g, cow)| DeepTree {
            depth,
            width,
            wide_at: wide % depth,
            seed: seed as u64,
            graft_every: [0, 1, depth.div_ceil(3), 97][g],
            cow,
        },
    )
}

/// The text of spine levels `levels` of `t`, each level's element
/// enclosing the next, the innermost holding no spine element: the
/// part below is grafted there. The outermost declares the namespaces
/// every part shares; an inner level may declare its own.
fn deep_tree_text(t: &DeepTree, levels: std::ops::Range<usize>) -> String {
    let mut rng = t.seed ^ levels.start as u64 | 1;
    let mut draw = |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    const LEAVES: [&str; 6] =
        ["<l/>", "t&amp;x", "<!--c-->", "<?pi data?>", "<![CDATA[<r&>]]>", "<p:l k=\"1\"/>"];
    let (mut text, mut close) = (String::new(), Vec::new());
    for level in levels.clone() {
        let name = ["a", "p:b", "c", "q:e"][draw(4) as usize];
        text.push_str(&format!("<{name} d=\"{level}\""));
        if level == levels.start {
            text.push_str(" xmlns=\"urn:d\" xmlns:p=\"urn:p\" xmlns:q=\"urn:q\"");
        }
        match draw(6) {
            0 => text.push_str(" k=\"v&amp;&lt;&quot;\""),
            1 => text.push_str(" q:z=\"2\""),
            2 => text.push_str(&format!(" xmlns:r=\"urn:r{level}\" r:y=\"3\"")),
            3 => text.push_str(" xmlns:p=\"urn:p\""),
            _ => {}
        }
        text.push('>');
        let leaves = if level == t.wide_at { t.width } else { draw(2) as usize };
        for _ in 0..leaves {
            text.push_str(LEAVES[draw(6) as usize]);
        }
        close.push(format!("{}</{name}>", ["<!--after-->", "z", ""][draw(3) as usize]));
    }
    text + &close.into_iter().rev().collect::<String>()
}

/// The spine element of level `level` below `root`.
fn spine_element(root: &NodeHandle, level: usize) -> NodeHandle {
    let d = QName::new("d");
    let mut walk = root.walk();
    while walk.next().is_some() {
        let n = walk.node();
        if n.attribute(&d).and_then(|a| a.content()) == Some(level.to_string()) {
            return n.clone();
        }
    }
    panic!("no spine element {level}")
}

/// Build `t`: parse each part's text and graft it into the innermost
/// spine element of the part above, then copy on write.
fn build_deep_tree(t: &DeepTree) -> NodeHandle {
    let step = if t.graft_every == 0 { t.depth } else { t.graft_every };
    let mut below: Option<NodeHandle> = None;
    for start in (0..t.depth).step_by(step).rev() {
        let end = (start + step).min(t.depth);
        let part = root_element(&parse(&deep_tree_text(t, start..end)).unwrap());
        if let Some(sub) = below.take() {
            spine_element(&part, end - 1).graft_child(&sub).unwrap();
        }
        below = Some(part);
    }
    let tree = below.unwrap();
    if t.cow {
        let cow = NodeHandle::root_element(QName::with_ns("urn:d", "cow"));
        spine_element(&tree, t.depth - 1).append_child(&cow).unwrap();
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse(serialize(t)) is structurally equal to t, and serializing
    /// it again gives the same bytes, compact and pretty.
    #[test]
    fn xml_serialize_parse_round_trip(t in tree_strategy()) {
        // Ensure a single element root.
        let root = match t {
            e @ TreeNode::Element { .. } => e,
            other => TreeNode::Element {
                name: "root".into(),
                ns: None,
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
        let (mut want, mut got) = (Vec::new(), Vec::new());
        namespace_uris(&node, &mut want);
        namespace_uris(&back, &mut got);
        prop_assert_eq!(got, want, "namespace URIs moved: {}", xml);
        prop_assert_eq!(serialize(&back), xml);
        let pretty = serialize_pretty(&node);
        prop_assert_eq!(serialize_pretty(&root_element(&parse(&pretty).unwrap())), pretty);
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same three facts, a copy's and a string value's on trees up
    /// to 5,000 levels deep and as wide, with attributes, namespace
    /// declarations, comments, PIs and CDATA sections, built from
    /// grafted parts with a copy-on-write through the graft views.
    #[test]
    fn deep_trees_round_trip_copy_and_concatenate(t in deep_tree_strategy()) {
        let tree = build_deep_tree(&t);
        let xml = serialize(&tree);
        let back = root_element(&parse(&xml).unwrap());
        prop_assert!(tree.deep_equal(&back));
        prop_assert!(serialize(&back) == xml, "compact output is no fixed point");
        let pretty = serialize_pretty(&tree);
        let again = serialize_pretty(&root_element(&parse(&pretty).unwrap()));
        prop_assert!(again == pretty, "pretty output is no fixed point");
        let copy = tree.deep_copy();
        prop_assert!(copy.deep_equal(&tree));
        prop_assert!(serialize(&copy) == xml);
        prop_assert!(copy != tree && !Rc::ptr_eq(copy.arena(), tree.arena()));
        let text: String = tree
            .descendants()
            .iter()
            .filter(|n| n.kind() == NodeKind::Text)
            .map(|n| n.content().unwrap())
            .collect();
        prop_assert!(tree.string_value() == text);
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

// ------------------------------------------ WS access under faults

/// One deterministic fault shape for the credit-rating service. All
/// variants are chosen so that, with a warm response cache, every
/// access is guaranteed to succeed: the retryable kinds stay within
/// the policy's retry budget, and `Permanent` outages degrade to stale
/// cache reads.
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

    /// Per-call web-service access (`WebService::call`, under retry,
    /// the breaker and the stale-read fallback) returns the no-fault
    /// ground truth under every deterministic fault plan in the
    /// strategy, including a permanent mid-run outage where it
    /// degrades to stale cached responses.
    #[test]
    fn ws_access_agrees_with_truth_under_faults(
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

        // Warm every request while healthy, then install the plan.
        let svc = WebService::credit_rating("urn:cr");
        for ssn in &ssns {
            svc.call("getCreditRating", &mk_request(ssn)).unwrap();
        }
        let space = DataSpace::new();
        space.install_resilience(Resilience::new(Policy::default()));
        space.install_fault_injector(FaultInjector::new(ws_fault_plan(&retryable, outage)));
        svc.set_access(space.access());

        for &p in &picks {
            let resp = svc.call("getCreditRating", &mk_request(&ssns[p]));
            prop_assert!(resp.is_ok(), "access failed: {:?}", resp.err());
            prop_assert_eq!(
                resp.unwrap().items()[0].string_value(),
                credit_score(&ssns[p], "Doe").to_string()
            );
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

/// The element-returning FLWOR a consumer wraps.
#[derive(Debug, Clone, Copy)]
enum LazyBase {
    /// Filters with a `where`, so the result is a strict, non-trivial
    /// subset of the range.
    Where,
    /// No `where`: a window passes over the tuples before its start
    /// without binding them.
    Plain,
    /// No `where`, and `at $p` numbering a filtered source, so the
    /// positions passed over must still count.
    Positional,
    /// No `where`, over an inner `for` whose expansions have 0 to
    /// `m − 1` items, so a window passes over several of them.
    Nested,
}

fn lazy_base_strategy() -> impl Strategy<Value = LazyBase> {
    prop_oneof![
        Just(LazyBase::Where),
        Just(LazyBase::Plain),
        Just(LazyBase::Positional),
        Just(LazyBase::Nested),
    ]
}

/// Render the generated query. The base FLWOR uses `mod` so its items
/// differ; quantified consumers use an atomized body (their bindings
/// are items, not constructed elements).
fn lazy_query(n: usize, m: usize, base: LazyBase, consumer: &LazyConsumer) -> String {
    let base = match base {
        LazyBase::Where => format!("for $i in 1 to {n} where $i mod {m} ne 0 return <r>{{$i}}</r>"),
        LazyBase::Plain => format!("for $i in 1 to {n} return <r>{{$i mod {m}}}</r>"),
        LazyBase::Positional => format!(
            "for $i at $p in (1 to {n})[. mod {m} ne 0] return <r p=\"{{$p}}\">{{$i}}</r>"
        ),
        LazyBase::Nested => {
            format!("for $i in 1 to {n} for $j in 1 to $i mod {m} return <r>{{$i}}.{{$j}}</r>")
        }
    };
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
        base in lazy_base_strategy(),
        consumer in lazy_consumer_strategy(),
    ) {
        let src = lazy_query(n, m, base, &consumer);
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

        // Every base FLWOR yields at least one tuple (1 mod m is never
        // 0 for m > 1), so a live stream must have pulled.
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

// ------------------------------------------------- path steps (walker)

/// A tree for the path-step property: names come from a small set so
/// name tests hit, PIs and comments sit beside elements and text, and
/// grafted regions sit beside local ones.
#[derive(Debug, Clone)]
enum AxisTree {
    Element { name: usize, attrs: Vec<usize>, children: Vec<AxisTree> },
    Text(String),
    Comment,
    Pi(usize),
    /// An element built in an arena of its own and grafted in by
    /// reference. With `cow` a `<b/>` child is appended through its
    /// view once the whole tree is built, so the graft is copied on
    /// write and the handles taken before must follow the copy to see
    /// the new child.
    Graft { tree: Box<AxisTree>, cow: bool },
}

/// Element and attribute names: `(namespace, local)`; `x` is bound to
/// `urn:x` in the queries.
const AXIS_NAMES: [(Option<&str>, &str); 4] =
    [(None, "a"), (None, "b"), (Some("urn:x"), "a"), (Some("urn:x"), "c")];
const PI_TARGETS: [&str; 2] = ["t", "a"];

fn axis_name(i: usize) -> QName {
    match AXIS_NAMES[i] {
        (Some(ns), local) => QName::with_prefix_ns("x", ns, local),
        (None, local) => QName::new(local),
    }
}

fn axis_tree_strategy() -> impl Strategy<Value = AxisTree> {
    let leaf = prop_oneof![
        "[ab ]{1,3}".prop_map(AxisTree::Text),
        Just(AxisTree::Comment),
        (0usize..PI_TARGETS.len()).prop_map(AxisTree::Pi),
        (0usize..AXIS_NAMES.len())
            .prop_map(|name| AxisTree::Element { name, attrs: vec![], children: vec![] }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        let element = (
            0usize..AXIS_NAMES.len(),
            proptest::collection::vec(0usize..AXIS_NAMES.len(), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, mut attrs, children)| {
                attrs.sort_unstable();
                attrs.dedup();
                AxisTree::Element { name, attrs, children }
            })
            .boxed();
        prop_oneof![
            element.clone(),
            (element, proptest::bool::ANY)
                .prop_map(|(tree, cow)| AxisTree::Graft { tree: Box::new(tree), cow }),
        ]
    })
}

/// Build `t` under `parent`; graft views to copy on write later go to
/// `cows`.
fn build_axis_tree(t: &AxisTree, parent: &NodeHandle, cows: &mut Vec<NodeHandle>) {
    let arena = parent.arena().clone();
    match t {
        AxisTree::Element { name, attrs, children } => {
            let e = NodeHandle::new_element(&arena, axis_name(*name));
            for a in attrs {
                let attr = NodeHandle::new_attribute(&arena, axis_name(*a), format!("v{a}"));
                e.set_attribute(&attr).unwrap();
            }
            let e = parent.append_child(&e).unwrap();
            for c in children {
                build_axis_tree(c, &e, cows);
            }
        }
        AxisTree::Text(s) => {
            parent.append_child(&NodeHandle::new_text(&arena, s.as_str())).unwrap();
        }
        AxisTree::Comment => {
            parent.append_child(&NodeHandle::new_comment(&arena, "c")).unwrap();
        }
        AxisTree::Pi(t) => {
            parent.append_child(&NodeHandle::new_pi(&arena, PI_TARGETS[*t], "p")).unwrap();
        }
        AxisTree::Graft { tree, cow } => {
            // Build the element alone in a fresh arena, then adopt it.
            let holder = NodeHandle::new_document();
            build_axis_tree(tree, &holder, cows);
            let sub = holder.children().into_iter().next().unwrap();
            sub.detach();
            let view = parent.graft_child(&sub).unwrap();
            if *cow {
                cows.push(view);
            }
        }
    }
}

/// Every node of the tree (attributes included), in document order.
fn all_nodes(n: &NodeHandle, out: &mut Vec<NodeHandle>) {
    out.push(n.clone());
    out.extend(n.attributes());
    for c in n.children() {
        all_nodes(&c, out);
    }
}

const AXES: [&str; 10] = [
    "child",
    "attribute",
    "descendant",
    "descendant-or-self",
    "self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
];

const NODE_TESTS: [&str; 16] = [
    "a",
    "b",
    "x:a",
    "*",
    "x:*",
    "*:a",
    "node()",
    "text()",
    "comment()",
    "processing-instruction()",
    "processing-instruction(t)",
    "element()",
    "element(b)",
    "attribute()",
    "attribute(a)",
    "document-node()",
];

const PREDICATES: [&str; 5] = ["", "[1]", "[2]", "[last()]", "[node()]"];

/// The reference axis: what the axis holds from `n`, in axis order
/// (nearest first on the reverse axes), from the handle navigation
/// methods.
fn reference_axis(n: &NodeHandle, axis: &str) -> Vec<NodeHandle> {
    let (before, after) = match n.parent() {
        Some(p) => {
            let kids = p.children();
            match kids.iter().position(|k| k == n) {
                Some(i) => (kids[..i].to_vec(), kids[i + 1..].to_vec()),
                None => (vec![], vec![]),
            }
        }
        None => (vec![], vec![]),
    };
    let up = |from: Option<NodeHandle>| std::iter::successors(from, |p| p.parent()).collect();
    match axis {
        "child" => n.children(),
        "attribute" => n.attributes(),
        "descendant" => n.descendants(),
        "descendant-or-self" => std::iter::once(n.clone()).chain(n.descendants()).collect(),
        "self" => vec![n.clone()],
        "parent" => n.parent().into_iter().collect(),
        "ancestor" => up(n.parent()),
        "ancestor-or-self" => up(Some(n.clone())),
        "following-sibling" => after,
        "preceding-sibling" => before.into_iter().rev().collect(),
        other => unreachable!("axis {other}"),
    }
}

/// The reference node test, on `kind()` and `name()`.
fn reference_test(test: &str, n: &NodeHandle, axis: &str) -> bool {
    let kind = n.kind();
    let name = n.name();
    let principal = if axis == "attribute" { NodeKind::Attribute } else { NodeKind::Element };
    let named = |ns: Option<&str>, local: &str| {
        name.as_ref().is_some_and(|q| q.ns.as_deref() == ns && &*q.local == local)
    };
    match test {
        "a" => kind == principal && named(None, "a"),
        "b" => kind == principal && named(None, "b"),
        "x:a" => kind == principal && named(Some("urn:x"), "a"),
        "*" => kind == principal,
        "x:*" => {
            kind == principal && name.as_ref().is_some_and(|q| q.ns.as_deref() == Some("urn:x"))
        }
        "*:a" => kind == principal && name.as_ref().is_some_and(|q| &*q.local == "a"),
        "node()" => true,
        "text()" => kind == NodeKind::Text,
        "comment()" => kind == NodeKind::Comment,
        "processing-instruction()" => kind == NodeKind::Pi,
        "processing-instruction(t)" => kind == NodeKind::Pi && named(None, "t"),
        "element()" => kind == NodeKind::Element,
        "element(b)" => kind == NodeKind::Element && named(None, "b"),
        "attribute()" => kind == NodeKind::Attribute,
        "attribute(a)" => kind == NodeKind::Attribute && named(None, "a"),
        "document-node()" => kind == NodeKind::Document,
        other => unreachable!("node test {other}"),
    }
}

/// The reference step from each context node, concatenated, then put
/// in document order without duplicates.
fn reference_step(ctx: &[NodeHandle], axis: &str, test: &str, pred: &str) -> Vec<NodeHandle> {
    let mut out = Vec::new();
    for n in ctx {
        let matched: Vec<NodeHandle> =
            reference_axis(n, axis).into_iter().filter(|m| reference_test(test, m, axis)).collect();
        out.extend(match pred {
            "" => matched,
            "[1]" => matched.into_iter().take(1).collect(),
            "[2]" => matched.into_iter().skip(1).take(1).collect(),
            "[last()]" => matched.into_iter().last().into_iter().collect(),
            "[node()]" => matched.into_iter().filter(|m| !m.children().is_empty()).collect(),
            other => unreachable!("predicate {other}"),
        });
    }
    let items: Sequence = out.into_iter().map(Item::Node).collect();
    nodes_of(&items.document_order_dedup().unwrap())
}

fn nodes_of(seq: &Sequence) -> Vec<NodeHandle> {
    seq.iter()
        .map(|i| match i {
            Item::Node(n) => n.clone(),
            Item::Atomic(a) => panic!("path step gave an atomic value {a:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A path step — every axis × node test × predicate, from one
    /// context node and from several — gives exactly the nodes the
    /// reference collects from `children()`, `attributes()`,
    /// `descendants()` and `parent()`, filters on `kind()` and
    /// `name()`, and puts in document order. The trees mix elements,
    /// text, comments, PIs, attributes, live grafts and grafts copied
    /// on write after the context handles were taken.
    #[test]
    fn path_steps_match_reference_navigation(
        t in axis_tree_strategy(),
        in_doc in proptest::bool::ANY,
        picks in proptest::collection::vec(0usize..1000, 2..5),
    ) {
        let root = NodeHandle::new_document();
        let mut cows = Vec::new();
        let top = if in_doc {
            root.clone()
        } else {
            let e = NodeHandle::new_element(root.arena(), axis_name(0));
            root.append_child(&e).unwrap();
            e.detach();
            e
        };
        build_axis_tree(&t, &top, &mut cows);
        let mut nodes = Vec::new();
        all_nodes(&top, &mut nodes);
        for view in &cows {
            view.append_child(&NodeHandle::root_element(axis_name(1))).unwrap();
        }
        let ctx: Vec<NodeHandle> = picks.iter().map(|p| nodes[p % nodes.len()].clone()).collect();
        let engine = xqse_repro::xqeval::Engine::new();
        engine.set_features(Features::ALL);
        let var = QName::new("ctx");
        for axis in AXES {
            for test in NODE_TESTS {
                for pred in PREDICATES {
                    let src = format!(
                        "declare namespace x = 'urn:x'; declare variable $ctx external; \
                         $ctx/{axis}::{test}{pred}"
                    );
                    for ctx in [&ctx[..1], &ctx[..]] {
                        let value = ctx.iter().cloned().map(Item::Node).collect();
                        engine.set_global(var.clone(), value);
                        let got = nodes_of(&engine.eval_query(&src).unwrap());
                        let want = reference_step(ctx, axis, test, pred);
                        prop_assert_eq!(got, want, "{} from {} node(s)", src, ctx.len());
                    }
                }
            }
        }
    }
}

// --------------------------------------------- literal regex patterns

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A pattern without metacharacters is matched with `str` search;
    /// its grouped form `(p)` takes the backtracking matcher. Both give
    /// the same `tokenize`, `matches` and `replace` results, whether the
    /// separator sits at either end, repeats, overlaps itself, spans
    /// several characters or sits among non-ASCII text.
    #[test]
    fn literal_patterns_match_the_backtracking_matcher(
        pattern in proptest::collection::vec(
            prop_oneof![Just('a'), Just(' '), Just('é'), Just(','), Just('-')],
            1..4,
        ),
        pieces in proptest::collection::vec(
            prop_oneof![
                Just(None),
                Just(Some('a')),
                Just(Some('b')),
                Just(Some(' ')),
                Just(Some('é')),
            ],
            0..10,
        ),
    ) {
        use xqse_repro::xqeval::regex_lite::Regex;
        let p: String = pattern.into_iter().collect();
        // `None` pieces are the separator itself.
        let text: String = pieces
            .iter()
            .map(|c| c.map_or(p.clone(), String::from))
            .collect();
        let literal = Regex::compile(&p).unwrap();
        let grouped = Regex::compile(&format!("({p})")).unwrap();
        let on = format!("{text:?} on {p:?}");
        prop_assert_eq!(literal.tokenize(&text), grouped.tokenize(&text), "tokenize {}", on);
        prop_assert_eq!(literal.is_match(&text), grouped.is_match(&text), "matches {}", on);
        for r in ["", "#", "ü!"] {
            prop_assert_eq!(literal.replace(&text, r), grouped.replace(&text, r), "replace {}", on);
        }
        prop_assert!(literal.replace(&text, "$1").is_err());
    }
}

// ------------------------------------- ordered write sets against a model

/// The keyed table the write-set model runs over. Its key, `ID`, is
/// column 0.
fn keyed_schema() -> TableSchema {
    TableSchema {
        name: "PEOPLE".into(),
        columns: vec![
            Column::required("ID", ColumnType::Integer),
            Column::required("NAME", ColumnType::Varchar),
            Column::nullable("AGE", ColumnType::Integer),
        ],
        primary_key: vec!["ID".into()],
        foreign_keys: vec![],
    }
}

fn column(name: &str) -> usize {
    keyed_schema().col_index(name).unwrap()
}

fn keyed_db(rows: &[Vec<SqlValue>]) -> Database {
    let db = Database::new("db1");
    db.create_table(keyed_schema()).unwrap();
    for row in rows {
        db.insert("PEOPLE", row.clone()).unwrap();
    }
    db
}

/// The model's copy of the row check: the arity, NOT NULL and each
/// column's type.
fn model_row_ok(row: &[SqlValue]) -> bool {
    matches!(row, [SqlValue::Int(_), SqlValue::Str(_), SqlValue::Int(_) | SqlValue::Null])
}

fn model_matches(row: &[SqlValue], cond: &[(String, SqlValue)]) -> bool {
    cond.iter().all(|(c, v)| row[column(c)] == *v)
}

/// The rows `op`'s condition matches in `rows` (none for an insert).
fn model_hits(rows: &[Vec<SqlValue>], op: &WriteOp) -> Vec<usize> {
    let cond = match op {
        WriteOp::Insert { .. } => return Vec::new(),
        WriteOp::Update { cond, .. } | WriteOp::Delete { cond, .. } => cond,
    };
    (0..rows.len()).filter(|&i| model_matches(&rows[i], cond)).collect()
}

/// Apply one op to the model's rows, in the check order `rel`'s stage
/// states: the expected count (DSP0001), then, for each row the op
/// leaves, the row check and then a unique key (DSP0003). An updated
/// row keeps its place; an inserted row goes last. A refused op may
/// leave `rows` half changed: the write set's outcome is the refusal.
fn model_apply(rows: &mut Vec<Vec<SqlValue>>, op: &WriteOp) -> Result<(), QName> {
    let dsp = |code: ErrorCode| Err(code.qname());
    let key_free = |rows: &[Vec<SqlValue>], row: &[SqlValue], except: Option<usize>| {
        (0..rows.len()).all(|j| Some(j) == except || rows[j][0] != row[0])
    };
    let hits = model_hits(rows, op);
    match op {
        WriteOp::Insert { row, .. } => {
            if !model_row_ok(row) || !key_free(rows, row, None) {
                return dsp(ErrorCode::DSP0003);
            }
            rows.push(row.clone());
        }
        WriteOp::Update { set, expect_rows, .. } => {
            if hits.len() != *expect_rows {
                return dsp(ErrorCode::DSP0001);
            }
            for i in hits {
                let mut row = rows[i].clone();
                for (c, v) in set {
                    row[column(c)] = v.clone();
                }
                if !model_row_ok(&row) || !key_free(rows, &row, Some(i)) {
                    return dsp(ErrorCode::DSP0003);
                }
                rows[i] = row;
            }
        }
        WriteOp::Delete { expect_rows, .. } => {
            if hits.len() != *expect_rows {
                return dsp(ErrorCode::DSP0001);
            }
            for i in hits.into_iter().rev() {
                rows.remove(i);
            }
        }
    }
    Ok(())
}

/// Run `ops` over a keyed table holding `initial` three ways: the model,
/// which applies them in order to a `Vec`; `execute`; and `prepare` +
/// `commit_branch` on a second copy. All three must agree on the
/// outcome (committed, or refused with the same code) and on the rows
/// left.
fn check_ordered_write_set(
    initial: &[Vec<SqlValue>],
    ops: Vec<WriteOp>,
) -> Result<(), TestCaseError> {
    let mut model = initial.to_vec();
    let model_run = ops.iter().try_for_each(|op| model_apply(&mut model, op));
    let (auto, two_phase) = (keyed_db(initial), keyed_db(initial));
    let auto_run = auto.execute(ops.clone()).map_err(|e| e.code.clone());
    let tx = xqse_repro::aldsp::rel::fresh_tx();
    let two_phase_run = two_phase
        .prepare(tx, ops.clone())
        .and_then(|()| two_phase.commit_branch(tx))
        .map(|_| ())
        .map_err(|e| e.code.clone());
    let sql: Vec<String> = ops.iter().map(WriteOp::to_sql).collect();
    prop_assert_eq!(&auto_run, &model_run, "execute vs the model: {:?}", sql);
    prop_assert_eq!(&two_phase_run, &model_run, "prepare + commit vs the model: {:?}", sql);
    let left = if model_run.is_ok() { model } else { initial.to_vec() };
    prop_assert_eq!(auto.scan("PEOPLE").unwrap(), left.clone(), "execute left: {:?}", sql);
    prop_assert_eq!(two_phase.scan("PEOPLE").unwrap(), left, "commit left: {:?}", sql);
    Ok(())
}

fn person(id: i64, name: &str) -> Vec<SqlValue> {
    vec![SqlValue::Int(id), SqlValue::Str(name.into()), SqlValue::Null]
}

fn by_id(id: i64) -> Vec<(String, SqlValue)> {
    vec![("ID".into(), SqlValue::Int(id))]
}

/// A value for one of the keyed table's columns: mostly well typed, now
/// and then one the row check refuses (a string in `AGE`, NULL in
/// `NAME`).
fn column_value_strategy() -> impl Strategy<Value = (String, SqlValue)> {
    let name = || prop_oneof![Just("ann"), Just("bob"), Just("cat")];
    let named = |n: &str| ("NAME".to_string(), SqlValue::Str(n.into()));
    let aged = |a| ("AGE".to_string(), SqlValue::Int(a));
    prop_oneof![
        name().prop_map(named),
        name().prop_map(named),
        (30i64..=31).prop_map(aged),
        (30i64..=31).prop_map(aged),
        Just(("AGE".to_string(), SqlValue::Null)),
        Just(("AGE".to_string(), SqlValue::Str("old".into()))),
        Just(("NAME".to_string(), SqlValue::Null)),
    ]
}

/// One op over IDs 1–6 — an insert, an update that moves a key, a plain
/// update, or a delete — and whether its `expect_rows` is to be what the
/// model counts when the op runs (four times in five; otherwise it is
/// the drawn 0–2).
fn write_op_strategy() -> impl Strategy<Value = (WriteOp, bool)> {
    let cond = || {
        prop_oneof![
            (1i64..=6).prop_map(by_id),
            prop_oneof![Just("ann"), Just("bob")]
                .prop_map(|n| vec![("NAME".to_string(), SqlValue::Str(n.into()))]),
        ]
    };
    let op = prop_oneof![
        (1i64..=6, prop_oneof![Just("ann"), Just("bob")], column_value_strategy()).prop_map(
            |(id, name, (c, v))| {
                let mut row = person(id, name);
                row[column(&c)] = v;
                WriteOp::Insert { table: "PEOPLE".into(), row }
            }
        ),
        (1i64..=6, 1i64..=6, 0usize..=2).prop_map(|(from, to, expect_rows)| WriteOp::Update {
            table: "PEOPLE".into(),
            set: by_id(to),
            cond: by_id(from),
            expect_rows,
        }),
        (column_value_strategy(), cond(), 0usize..=2).prop_map(
            |(set, cond, expect_rows)| WriteOp::Update {
                table: "PEOPLE".into(),
                set: vec![set],
                cond,
                expect_rows,
            }
        ),
        (cond(), 0usize..=2).prop_map(|(cond, expect_rows)| WriteOp::Delete {
            table: "PEOPLE".into(),
            cond,
            expect_rows,
        }),
    ];
    (op, (0u8..5).prop_map(|n| n < 4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A write set means applying its ops in order: `execute`, and
    /// `prepare` + `commit_branch`, agree with a model that applies them
    /// to a `Vec` with unique keys, exact expected counts and the row
    /// check.
    #[test]
    fn write_sets_agree_with_an_ordered_model(
        initial in proptest::collection::vec(
            (1i64..=6, prop_oneof![Just("ann"), Just("bob"), Just("cat")]),
            0..7,
        ),
        drawn in proptest::collection::vec(write_op_strategy(), 1..6),
    ) {
        // One row per drawn ID, in ID order.
        let initial: Vec<Vec<SqlValue>> = initial
            .into_iter()
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .map(|(id, name)| person(id, name))
            .collect();
        // Most ops expect what the model counts when they run, so that
        // most write sets commit.
        let mut state = initial.clone();
        let mut running = true;
        let ops = drawn
            .into_iter()
            .map(|(mut op, follow)| {
                let count = model_hits(&state, &op).len();
                if let WriteOp::Update { expect_rows, .. } | WriteOp::Delete { expect_rows, .. } =
                    &mut op
                {
                    if follow && running {
                        *expect_rows = count;
                    }
                }
                running = running && model_apply(&mut state, &op).is_ok();
                op
            })
            .collect();
        check_ordered_write_set(&initial, ops)?;
    }
}

/// The property's seeds: with `PEOPLE` holding 1 (`ann`) and 2 (`bob`),
/// a key freed and taken again, a key swap, an update of a row an
/// insert added, and an update and a delete of a row an earlier op
/// deleted.
#[test]
fn ordered_write_set_seeds_agree_with_the_model() {
    let initial = [person(1, "ann"), person(2, "bob")];
    let delete = |id| WriteOp::Delete { table: "PEOPLE".into(), cond: by_id(id), expect_rows: 1 };
    let update = |set, id| WriteOp::Update {
        table: "PEOPLE".into(),
        set,
        cond: by_id(id),
        expect_rows: 1,
    };
    let insert = |id| WriteOp::Insert { table: "PEOPLE".into(), row: person(id, "new") };
    let rename = vec![("NAME".to_string(), SqlValue::Str("X".into()))];
    for ops in [
        vec![delete(1), insert(1)],
        vec![update(by_id(3), 1), update(by_id(1), 2)],
        vec![insert(3), update(rename.clone(), 3)],
        vec![delete(1), update(rename, 1)],
        vec![delete(1), delete(1)],
    ] {
        check_ordered_write_set(&initial, ops).unwrap();
    }
}
