//! Chaos tests: deterministic fault plans driven through the paper's
//! use cases.
//!
//! Every test writes a [`FaultPlan`], installs it on a `DataSpace`,
//! and asserts *exact* outcomes — which calls failed, what error code
//! surfaced, how many retries happened, and (critically) that 2PC
//! left no partial writes behind. All latency is virtual-clock time;
//! nothing here sleeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use xqse_repro::aldsp::demo;
use xqse_repro::aldsp::rel::{
    fresh_tx, Column, ColumnType, Database, SqlValue, TableSchema, TwoPhaseCoordinator,
    TxOutcome, WriteOp,
};
use xqse_repro::aldsp::service::DataSpace;
use xqse_repro::aldsp::{
    AldspCode, BreakerState, CoordinatorJournal, FaultInjector, FaultKind, FaultPlan, FaultRule,
    Op, Policy, Resilience,
};
use xqse_repro::xdm::qname::QName;
use xqse_repro::xdm::sequence::{Item, Sequence};
use xqse_repro::xqeval::{Env, Features};

// ---------------------------------------------------------------------------
// Allocation counting (the journal's count guard)
// ---------------------------------------------------------------------------

/// Counts the heap allocations (and growing reallocations) each thread
/// makes, as `crates/bench/tests/alloc_budget.rs` does. Every other test
/// here pays one thread-local add per allocation.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn book_allocation() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter update, which does not allocate (`const`
// initialisation, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn employee_schema() -> TableSchema {
    TableSchema {
        name: "EMPLOYEE".into(),
        columns: vec![
            Column::required("EmployeeID", ColumnType::Integer),
            Column::required("Name", ColumnType::Varchar),
        ],
        primary_key: vec!["EmployeeID".into()],
        foreign_keys: vec![],
    }
}

/// Use-case-4 topology: a logical service replicating creates over a
/// primary and a backup relational source.
fn replicated_space() -> (DataSpace, Database, Database) {
    let primary = Database::new("primary");
    primary.create_table(employee_schema()).unwrap();
    let backup = Database::new("backup");
    backup.create_table(employee_schema()).unwrap();
    let space = DataSpace::new();
    space.register_relational_source(&primary).unwrap();
    space.register_relational_source(&backup).unwrap();
    (space, primary, backup)
}

fn emp(id: i64, name: &str) -> Sequence {
    let xml =
        format!("<EMPLOYEE><EmployeeID>{id}</EmployeeID><Name>{name}</Name></EMPLOYEE>");
    let doc = xqse_repro::xmlparse::parse(&xml).unwrap();
    Sequence::one(Item::Node(doc.children()[0].clone()))
}

/// Read one cell straight out of a database (bypassing every cache),
/// so atomicity assertions see the source of truth.
fn cell(db: &Database, table: &str, col: &str, row_idx: usize) -> String {
    let schema = db.schema(table).unwrap();
    let i = schema.col_index(col).unwrap();
    db.scan(table).unwrap()[row_idx][i].lexical()
}

/// The paper's Use Case 4 replicating create (§III.D.4), verbatim
/// shape: create on primary, then on backup, wrapping failures in
/// application-level error codes.
const REPLICATING_CREATE: &str = r#"
declare namespace tns = "ld:ReplicatedEmployees";
declare namespace p = "ld:primary/EMPLOYEE";
declare namespace b = "ld:backup/EMPLOYEE";

declare procedure tns:create($newEmps as element(EMPLOYEE)*)
  as element(EMPLOYEE_KEY)*
{
  declare $keys as element(EMPLOYEE_KEY)* := ();
  iterate $newEmp over $newEmps {
    declare $key as element(EMPLOYEE_KEY)?;
    try { set $key := p:createEMPLOYEE($newEmp); }
    catch (* into $err, $msg) {
      fn:error(xs:QName("PRIMARY_CREATE_FAILURE"),
        fn:concat("Primary create failed due to: ", $err, " ", $msg));
    };
    try { b:createEMPLOYEE($newEmp); }
    catch (* into $err, $msg) {
      fn:error(xs:QName("SECONDARY_CREATE_FAILURE"),
        fn:concat("Backup create failed due to: ", $err, " ", $msg));
    };
    set $keys := ($keys, $key);
  }
  return value $keys;
};
"#;

/// A hardened variant: catches *only* `aldsp:SRC_UNAVAILABLE` from the
/// backup create, compensates by deleting the already-created primary
/// row, and re-raises an application code. Any other failure class
/// propagates untouched.
const COMPENSATING_CREATE: &str = r#"
declare namespace tns = "ld:SafeReplicate";
declare namespace p = "ld:primary/EMPLOYEE";
declare namespace b = "ld:backup/EMPLOYEE";
declare namespace aldsp = "urn:aldsp:errors";

declare procedure tns:create($newEmp as element(EMPLOYEE))
  as element(EMPLOYEE_KEY)*
{
  declare $key as element(EMPLOYEE_KEY)?;
  set $key := p:createEMPLOYEE($newEmp);
  try { b:createEMPLOYEE($newEmp); }
  catch (aldsp:SRC_UNAVAILABLE into $err, $msg) {
    p:deleteEMPLOYEE($newEmp);
    fn:error(xs:QName("REPLICA_DOWN"),
      fn:concat("backup source down; compensated primary create: ", $msg));
  };
  return value $key;
};
"#;

/// Namespace-qualified wildcard: `aldsp:*` means "any infrastructure
/// fault" and deliberately does NOT swallow logical `err:DSP000x`
/// errors.
const DEGRADING_CREATE: &str = r#"
declare namespace tns = "ld:Fallback";
declare namespace b = "ld:backup/EMPLOYEE";
declare namespace aldsp = "urn:aldsp:errors";

declare procedure tns:robustCreate($newEmp as element(EMPLOYEE)) as xs:string
{
  declare $status as xs:string := "replicated";
  try { b:createEMPLOYEE($newEmp); }
  catch (aldsp:* into $err, $msg) { set $status := "degraded"; };
  return value $status;
};
"#;

// ---------------------------------------------------------------------------
// 1. Transient blips below the retry budget are invisible
// ---------------------------------------------------------------------------

#[test]
fn transient_blip_is_invisible_to_replicating_create() {
    let (space, primary, backup) = replicated_space();
    space.xqse().load(REPLICATING_CREATE).unwrap();
    let inj = space.install_fault_injector(FaultInjector::new(
        FaultPlan::new()
            .rule(FaultRule::new("primary", Op::Execute, FaultKind::FailNTimes(2))),
    ));
    let res = space.install_resilience(Resilience::new(Policy::default()));

    let create = QName::with_ns("ld:ReplicatedEmployees", "create");
    let batch = emp(1, "Ann").concat(emp(2, "Bob")).concat(emp(3, "Cid"));
    let mut env = Env::new();
    let keys = space.xqse().call_procedure(&create, vec![batch], &mut env).unwrap();

    // The script never saw the two injected transients.
    assert_eq!(keys.len(), 3);
    assert_eq!(primary.row_count("EMPLOYEE").unwrap(), 3);
    assert_eq!(backup.row_count("EMPLOYEE").unwrap(), 3);
    assert_eq!(inj.lock().injected_count(), 2);
    let r = res.lock();
    assert_eq!(r.stats().retries, 2);
    // Exponential backoff on the virtual clock: 10ms + 20ms.
    assert_eq!(r.clock().now_ms(), 30);
    assert_eq!(r.breaker_state("primary"), BreakerState::Closed);
}

// ---------------------------------------------------------------------------
// 2. Permanent faults abort the distributed update atomically
// ---------------------------------------------------------------------------

#[test]
fn permanent_fault_aborts_distributed_update_atomically() {
    let d = demo::build(2, 1, 1).unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    // One fault: db2's XA prepare fails once, permanently-flavored.
    d.space.install_fault_injector(FaultInjector::new(
        FaultPlan::new()
            .rule(FaultRule::new("db2", Op::Prepare, FaultKind::Permanent).times(1)),
    ));

    // Touch both sources so the submit must run 2PC.
    g.set_value(0, &["LAST_NAME"], "Chaos").unwrap();
    g.set_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"], "AMEX").unwrap();
    let err = d.space.submit(&g).unwrap_err();
    assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable));

    // Atomicity: NEITHER source shows a partial write.
    assert_eq!(cell(&d.db1, "CUSTOMER", "LAST_NAME", 0), "Carey");
    assert_eq!(cell(&d.db2, "CREDIT_CARD", "CC_BRAND", 0), "MASTERCHARGE");

    // The abort rolled back cleanly: prepared-row locks were released,
    // so the very same graph submits successfully once the fault
    // budget is spent.
    d.space.submit(&g).unwrap();
    assert_eq!(cell(&d.db1, "CUSTOMER", "LAST_NAME", 0), "Chaos");
    assert_eq!(cell(&d.db2, "CREDIT_CARD", "CC_BRAND", 0), "AMEX");
}

// ---------------------------------------------------------------------------
// 3. A transient prepare inside 2PC is retried to success
// ---------------------------------------------------------------------------

#[test]
fn transient_prepare_inside_2pc_is_retried_to_success() {
    let d = demo::build(2, 1, 1).unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    let inj = d.space.install_fault_injector(FaultInjector::new(
        FaultPlan::new()
            .rule(FaultRule::new("db2", Op::Prepare, FaultKind::FailNTimes(1))),
    ));
    let res = d.space.install_resilience(Resilience::new(Policy::default()));

    g.set_value(0, &["LAST_NAME"], "Retry").unwrap();
    g.set_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"], "DINERS").unwrap();
    d.space.submit(&g).unwrap();

    // Applied exactly once, after exactly one retry.
    assert_eq!(cell(&d.db1, "CUSTOMER", "LAST_NAME", 0), "Retry");
    assert_eq!(cell(&d.db2, "CREDIT_CARD", "CC_BRAND", 0), "DINERS");
    assert_eq!(d.db1.row_count("CUSTOMER").unwrap(), 2);
    assert_eq!(d.db2.row_count("CREDIT_CARD").unwrap(), 2);
    assert_eq!(inj.lock().injected_count(), 1);
    assert_eq!(res.lock().stats().retries, 1);
}

// ---------------------------------------------------------------------------
// 4/5. XQSE catch discriminates on the aldsp error taxonomy
// ---------------------------------------------------------------------------

#[test]
fn xqse_catch_on_src_unavailable_runs_compensation() {
    let (space, primary, backup) = replicated_space();
    space.xqse().load(COMPENSATING_CREATE).unwrap();
    space.install_fault_injector(FaultInjector::new(
        FaultPlan::new().rule(FaultRule::new("backup", Op::Execute, FaultKind::Permanent)),
    ));

    let create = QName::with_ns("ld:SafeReplicate", "create");
    let mut env = Env::new();
    let err =
        space.xqse().call_procedure(&create, vec![emp(1, "Ann")], &mut env).unwrap_err();

    // The catch matched aldsp:SRC_UNAVAILABLE, compensated the primary
    // create, and re-raised the application-level code.
    assert_eq!(err.code.local, "REPLICA_DOWN");
    assert!(err.message.contains("compensated"), "got: {}", err.message);
    assert_eq!(primary.row_count("EMPLOYEE").unwrap(), 0, "compensation ran");
    assert_eq!(backup.row_count("EMPLOYEE").unwrap(), 0);
}

#[test]
fn xqse_catch_is_precise_other_codes_propagate_uncompensated() {
    let (space, primary, _backup) = replicated_space();
    space.xqse().load(COMPENSATING_CREATE).unwrap();
    // A *transient* failure, not an outage: the SRC_UNAVAILABLE catch
    // must not match, so the error propagates and (per the paper) the
    // primary-side effect is NOT rolled back.
    space.install_fault_injector(FaultInjector::new(
        FaultPlan::new().rule(FaultRule::new("backup", Op::Execute, FaultKind::Transient)),
    ));

    let create = QName::with_ns("ld:SafeReplicate", "create");
    let mut env = Env::new();
    let err =
        space.xqse().call_procedure(&create, vec![emp(1, "Ann")], &mut env).unwrap_err();
    assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcTransient));
    assert_eq!(primary.row_count("EMPLOYEE").unwrap(), 1, "no compensation");
}

#[test]
fn xqse_namespace_wildcard_catches_any_infrastructure_fault() {
    let (space, _primary, backup) = replicated_space();
    space.xqse().load(DEGRADING_CREATE).unwrap();
    space.install_fault_injector(FaultInjector::new(
        FaultPlan::new()
            .rule(FaultRule::new("backup", Op::Execute, FaultKind::Timeout).times(1)),
    ));
    let create = QName::with_ns("ld:Fallback", "robustCreate");
    let mut env = Env::new();

    // aldsp:* catches the timeout …
    let out =
        space.xqse().call_procedure(&create, vec![emp(1, "Ann")], &mut env).unwrap();
    assert_eq!(out.string_value().unwrap(), "degraded");

    // … but does NOT swallow a logical err:DSP0003 (duplicate key):
    // the fault budget is spent, so this create reaches the source and
    // collides with a pre-existing row.
    backup
        .insert("EMPLOYEE", vec![SqlValue::Int(2), SqlValue::Str("Ghost".into())])
        .unwrap();
    let err =
        space.xqse().call_procedure(&create, vec![emp(2, "Bob")], &mut env).unwrap_err();
    assert!(
        err.is(xqse_repro::xdm::error::ErrorCode::DSP0003),
        "expected DSP0003 to escape the aldsp:* catch, got {}",
        err.code
    );
}

// ---------------------------------------------------------------------------
// 6. Circuit breaker + stale-read degradation through the DataSpace
// ---------------------------------------------------------------------------

#[test]
fn breaker_opens_and_reads_degrade_to_stale_cache() {
    let d = demo::build(2, 1, 1).unwrap();
    // This test pins the *unoptimized* read path: with the optimizer
    // on, the CreditCards where-clause is pushed down to an indexed
    // point-select and the faulted full scan never runs at all (see
    // `stale_snapshot_keys_caches_while_breaker_open` for the
    // optimized counterpart). The hash join stays on: with it off,
    // getProfile scans db2 once per customer and the breaker trips on
    // a different read.
    let engine = d.space.engine();
    engine.set_features(Features { opt: false, join: true, ..engine.features() });
    let res = d.space.install_resilience(Resilience::new(Policy {
        max_retries: 0,
        breaker_threshold: 3,
        breaker_cooldown_ms: 60_000,
        ..Policy::default()
    }));

    // Warm read while db2 is healthy — this populates its scan cache.
    let warm = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    let warm_brand =
        warm.get_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"]).unwrap();

    // Now db2 goes down hard.
    d.space.install_fault_injector(FaultInjector::new(
        FaultPlan::new().rule(FaultRule::new("db2", Op::Scan, FaultKind::Permanent)),
    ));

    // Reads keep succeeding from the marked-stale cache; each get
    // scans db2 exactly once, so the third failed scan trips the
    // breaker (threshold 3).
    for _ in 0..3 {
        let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
        assert_eq!(
            g.get_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"]).unwrap(),
            warm_brand,
            "stale read serves the last good snapshot"
        );
    }
    {
        let r = res.lock();
        assert_eq!(r.breaker_state("db2"), BreakerState::Open);
        assert_eq!(r.breaker_state("db1"), BreakerState::Closed, "db1 unaffected");
        let s = r.stats();
        assert_eq!(s.stale_reads, 3, "every faulted scan degraded to cache");
        assert_eq!(s.fast_failures, 0, "breaker tripped on the last scan");
    }

    // With the breaker open the source is no longer hammered: the next
    // get fails fast at admission and still serves stale data.
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    assert_eq!(
        g.get_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"]).unwrap(),
        warm_brand
    );
    {
        let r = res.lock();
        let s = r.stats();
        assert_eq!(s.stale_reads, 4);
        assert_eq!(s.fast_failures, 1, "open breaker stopped hammering db2");
    }

    // After the cooldown the breaker half-opens; the probe hits the
    // still-broken source and the breaker re-opens — while the read
    // STILL succeeds from stale cache.
    res.lock().clock().advance(60_000);
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    assert_eq!(
        g.get_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"]).unwrap(),
        warm_brand
    );
    let r = res.lock();
    let states: Vec<(BreakerState, BreakerState)> = r
        .transitions()
        .iter()
        .filter(|t| t.source == "db2")
        .map(|t| (t.from, t.to))
        .collect();
    assert_eq!(
        states,
        vec![
            (BreakerState::Closed, BreakerState::Open),
            (BreakerState::Open, BreakerState::HalfOpen),
            (BreakerState::HalfOpen, BreakerState::Open),
        ]
    );
}

// ---------------------------------------------------------------------------
// 7. Property: retry + 2PC never double-applies a write
// ---------------------------------------------------------------------------

fn item_schema() -> TableSchema {
    TableSchema {
        name: "ITEM".into(),
        columns: vec![
            Column::required("ID", ColumnType::Integer),
            Column::required("VAL", ColumnType::Varchar),
        ],
        primary_key: vec!["ID".into()],
        foreign_keys: vec![],
    }
}

fn item_insert() -> WriteOp {
    WriteOp::Insert {
        table: "ITEM".into(),
        row: vec![SqlValue::Int(1), SqlValue::Str("x".into())],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every (faults k, retry budget r): an auto-commit write goes
    /// through iff k <= r, and the row lands AT MOST once — retries of
    /// an injected failure can never re-apply a write because the
    /// injection fires before the source is touched and a real failure
    /// aborts atomically.
    #[test]
    fn retry_never_double_applies_autocommit_writes(k in 0u32..5, r in 0u32..5) {
        let db = Database::new("chaosdb");
        db.create_table(item_schema()).unwrap();
        let space = DataSpace::new();
        space.register_relational_source(&db).unwrap();
        space.install_fault_injector(FaultInjector::new(
            FaultPlan::new()
                .rule(FaultRule::new("chaosdb", Op::Execute, FaultKind::FailNTimes(k))),
        ));
        let res = space.install_resilience(Resilience::new(Policy {
            max_retries: r,
            ..Policy::default()
        }));

        let out = db.execute(vec![item_insert()]);
        let rows = db.row_count("ITEM").unwrap();
        prop_assert!(rows <= 1, "write applied {rows} times");
        if k <= r {
            prop_assert!(out.is_ok());
            prop_assert_eq!(rows, 1);
            prop_assert_eq!(res.lock().stats().retries, u64::from(k));
        } else {
            prop_assert_eq!(AldspCode::of(&out.unwrap_err()), Some(AldspCode::SrcTransient));
            prop_assert_eq!(rows, 0);
            prop_assert_eq!(res.lock().stats().retries, u64::from(r));
        }
    }

    /// Same property through the XA path: a flaky prepare on one 2PC
    /// participant either delays the commit (k <= r) or aborts the
    /// whole transaction — never a partial or duplicated apply.
    #[test]
    fn retry_never_double_applies_2pc_writes(k in 0u32..5, r in 0u32..5) {
        let db_a = Database::new("pa");
        db_a.create_table(item_schema()).unwrap();
        let db_b = Database::new("pb");
        db_b.create_table(item_schema()).unwrap();
        let space = DataSpace::new();
        space.register_relational_source(&db_a).unwrap();
        space.register_relational_source(&db_b).unwrap();
        space.install_fault_injector(FaultInjector::new(
            FaultPlan::new()
                .rule(FaultRule::new("pb", Op::Prepare, FaultKind::FailNTimes(k))),
        ));
        space.install_resilience(Resilience::new(Policy {
            max_retries: r,
            ..Policy::default()
        }));

        let outcome = TwoPhaseCoordinator::new(vec![
            (db_a.clone(), vec![item_insert()]),
            (db_b.clone(), vec![item_insert()]),
        ])
        .run_journaled(&CoordinatorJournal::new(), None, None)
        .unwrap();
        let (ra, rb) =
            (db_a.row_count("ITEM").unwrap(), db_b.row_count("ITEM").unwrap());
        prop_assert!(ra <= 1 && rb <= 1, "double apply: pa={ra} pb={rb}");
        prop_assert_eq!(ra, rb, "partial apply across participants");
        if k <= r {
            prop_assert!(matches!(outcome, TxOutcome::Committed));
            prop_assert_eq!(ra, 1);
        } else {
            match outcome {
                TxOutcome::Aborted(e) => {
                    prop_assert_eq!(AldspCode::of(&e), Some(AldspCode::SrcTransient))
                }
                other => prop_assert!(false, "expected abort, got {other:?}"),
            }
            prop_assert_eq!(ra, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// 8. Staleness matrix: versioned caches vs writes, aborts, and outages
// ---------------------------------------------------------------------------
//
// The optimizer memoizes two things across statements — per-source
// materialized XDM trees (keyed by table version) and join indexes
// (stamped with either a source version or the write epoch). These
// tests pin the staleness contract from every direction: committed
// writes invalidate, aborted 2PC transactions do NOT, and stale-read
// degradation keys derived caches on the *snapshot* version so a
// recovered source is never served from a stale tree.

/// A one-table "hr" space with the optimizer pinned ON (CI also runs
/// the whole suite under `XQSE_FEATURES=-opt`, so tests that assert
/// optimizer counters must not depend on the ambient default).
fn hr_space() -> (DataSpace, Database) {
    let db = Database::new("hr");
    db.create_table(employee_schema()).unwrap();
    db.insert("EMPLOYEE", vec![SqlValue::Int(1), SqlValue::Str("Ann".into())])
        .unwrap();
    let space = DataSpace::new();
    space.register_relational_source(&db).unwrap();
    space.engine().set_features(Features { opt: true, ..space.engine().features() });
    (space, db)
}

#[test]
fn committed_write_invalidates_materialized_read() {
    let (space, _db) = hr_space();
    let count = || {
        space
            .engine()
            .eval_expr_str("fn:count(ens:EMPLOYEE())", &[("ens", "ld:hr/EMPLOYEE")])
            .unwrap()
            .string_value()
            .unwrap()
    };
    space.engine().reset_opt_stats();
    assert_eq!(count(), "1"); // builds the XDM tree for version v1
    assert_eq!(count(), "1"); // version unchanged → tree reused
    let s = space.engine().opt_stats();
    assert_eq!((s.mat_misses, s.mat_hits), (1, 1));

    // A committed create bumps the table version …
    let create = QName::with_ns("ld:hr/EMPLOYEE", "createEMPLOYEE");
    let mut env = Env::new();
    space.xqse().call_procedure(&create, vec![emp(2, "Bob")], &mut env).unwrap();

    // … so the very next read rebuilds — cached trees can never mask
    // a committed write.
    assert_eq!(count(), "2", "committed create visible immediately");
    let s = space.engine().opt_stats();
    assert_eq!(s.mat_misses, 2, "version bump forced a rebuild");
    assert_eq!(count(), "2");
    assert_eq!(space.engine().opt_stats().mat_hits, 2);
}

#[test]
fn two_pc_abort_keeps_versions_and_materialized_trees_valid() {
    let d = demo::build(3, 1, 1).unwrap();
    d.space.engine().set_features(Features { opt: true, ..d.space.engine().features() });

    // Warm every read function's materialized tree.
    let warm = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    let last = warm.get_value(0, &["LAST_NAME"]).unwrap();
    let v_cust = d.db1.table_version("CUSTOMER").unwrap();
    let v_card = d.db2.table_version("CREDIT_CARD").unwrap();

    // A doomed distributed update: db2's prepare fails permanently.
    d.space.install_fault_injector(FaultInjector::new(
        FaultPlan::new().rule(FaultRule::new("db2", Op::Prepare, FaultKind::Permanent)),
    ));
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Doomed").unwrap();
    g.set_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"], "VOID").unwrap();
    let err = d.space.submit(&g).unwrap_err();
    assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable));

    // The abort advanced NO table version: versions count committed
    // transactions, and this one never committed.
    assert_eq!(d.db1.table_version("CUSTOMER").unwrap(), v_cust);
    assert_eq!(d.db2.table_version("CREDIT_CARD").unwrap(), v_card);

    // So once the source heals, reads still revalidate against the
    // same versions: zero rebuilds, and the data is pre-abort truth.
    d.space.install_fault_injector(FaultInjector::new(FaultPlan::new()));
    let s0 = d.space.engine().opt_stats();
    let g2 = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    assert_eq!(g2.get_value(0, &["LAST_NAME"]).unwrap(), last);
    let s = d.space.engine().opt_stats();
    assert!(s.mat_hits > s0.mat_hits, "re-read served the memoized trees");
    assert_eq!(s.mat_misses, s0.mat_misses, "the abort forced no rebuilds");
}

#[test]
fn stale_snapshot_keys_caches_while_breaker_open() {
    let (space, db) = hr_space();
    let res = space.install_resilience(Resilience::new(Policy {
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown_ms: 60_000,
        ..Policy::default()
    }));
    let names = || {
        space
            .engine()
            .eval_expr_str(
                "fn:string-join(for $e in ens:EMPLOYEE() return fn:string($e/Name), ',')",
                &[("ens", "ld:hr/EMPLOYEE")],
            )
            .unwrap()
            .string_value()
            .unwrap()
    };

    // Healthy warm read: materializes the tree for version v1 and
    // populates the source's scan snapshot.
    assert_eq!(names(), "Ann");
    let v1 = db.table_version("EMPLOYEE").unwrap();

    // A committed write bumps the live version past v1, but the last
    // *served* snapshot is still the v1 rows.
    db.execute(vec![WriteOp::Update {
        table: "EMPLOYEE".into(),
        set: vec![("Name".into(), SqlValue::Str("Zed".into()))],
        cond: vec![("EmployeeID".into(), SqlValue::Int(1))],
        expect_rows: 1,
    }])
    .unwrap();
    assert!(db.table_version("EMPLOYEE").unwrap() > v1);

    // Now the source goes down hard before anybody re-reads.
    space.engine().reset_opt_stats();
    space.install_fault_injector(FaultInjector::new(
        FaultPlan::new().rule(FaultRule::new("hr", Op::Scan, FaultKind::Permanent)),
    ));

    // Degraded reads serve the v1 snapshot — and because the snapshot
    // reports its OWN version (v1, never the live one), the v1-keyed
    // materialized tree revalidates and no rebuild happens at all.
    assert_eq!(names(), "Ann");
    assert_eq!(names(), "Ann"); // second failure trips the breaker
    {
        let r = res.lock();
        assert_eq!(r.breaker_state("hr"), BreakerState::Open);
        assert_eq!(r.stats().stale_reads, 2);
    }
    let s = space.engine().opt_stats();
    assert_eq!(s.mat_misses, 0, "stale snapshot revalidated the v1 tree");
    assert_eq!(s.mat_hits, 2);

    // Breaker open: the next read fails fast at admission and still
    // serves the stale tree.
    assert_eq!(names(), "Ann");
    {
        let r = res.lock();
        assert_eq!(r.stats().fast_failures, 1);
        assert_eq!(r.stats().stale_reads, 3);
    }
    assert_eq!(space.engine().opt_stats().mat_hits, 3);

    // The source heals and the breaker cools down. The half-open probe
    // succeeds, the scan reports the live version, and the v1-keyed
    // tree CANNOT be served — keying on the snapshot (not the live
    // version) is exactly what forces this rebuild.
    space.install_fault_injector(FaultInjector::new(FaultPlan::new()));
    res.lock().clock().advance(60_000);
    assert_eq!(names(), "Zed", "recovered read shows the committed write");
    assert_eq!(space.engine().opt_stats().mat_misses, 1, "recovery rebuilt");
}

#[test]
fn degraded_keyed_select_is_never_cached_as_fresh() {
    let (space, db) = hr_space();
    // The keyed-select cache is the batch layer's.
    space.engine().set_features(Features { opt: true, batch: true, ..space.engine().features() });
    let res = space.install_resilience(Resilience::new(Policy {
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown_ms: 60_000,
        ..Policy::default()
    }));
    let read = |q: &str| eval_q(&space, q);
    let scanned = "fn:string-join(for $e in ens:EMPLOYEE() return fn:string($e/Name), ',')";
    let pushed = "fn:string-join(for $e in ens:EMPLOYEE() where $e/EmployeeID eq 1 \
                  return fn:string($e/Name), ',')";
    let keyed = "fn:string(ens:getByEmployeeID(1)/Name)";

    // A healthy full scan snapshots the v1 rows.
    assert_eq!(read(scanned), "Ann");
    // A committed write moves the live version past the snapshot.
    db.execute(vec![WriteOp::Update {
        table: "EMPLOYEE".into(),
        set: vec![("Name".into(), SqlValue::Str("Zed".into()))],
        cond: vec![("EmployeeID".into(), SqlValue::Int(1))],
        expect_rows: 1,
    }])
    .unwrap();

    // Selects fail: both keyed reads degrade to the v1 snapshot, which
    // is the right answer while the source is down.
    space.install_fault_injector(FaultInjector::new(
        FaultPlan::new().rule(FaultRule::new("hr", Op::Select, FaultKind::Permanent)),
    ));
    assert_eq!(read(pushed), "Ann");
    assert_eq!(read(keyed), "Ann");
    assert_eq!(res.lock().stats().stale_reads, 2);
    assert_eq!(res.lock().breaker_state("hr"), BreakerState::Open);

    // The source heals and the breaker cools down. The degraded rows
    // were stamped with the snapshot's version, not the live one, so
    // neither keyed read may serve them again.
    space.install_fault_injector(FaultInjector::new(FaultPlan::new()));
    res.lock().clock().advance(60_000);
    assert_eq!(read(pushed), "Zed", "pushed-down read after recovery");
    assert_eq!(read(keyed), "Zed", "getBy after recovery");
    assert_eq!(read(scanned), "Zed");
}

/// A cached read hands out its own sealed trees, and an SDO data graph
/// wraps them as they are, so a client's `set_value` edits the cached
/// row in place. The edit moves the thread's sealed-write count: the
/// next read of the same key, or of the whole table, refuses the edited
/// entry and answers what the table holds, as plain evaluation does.
#[test]
fn sdo_edits_to_a_cached_read_leave_no_edited_copy_cached() {
    let reads = |features: Features| {
        let d = demo::build(3, 1, 1).unwrap();
        d.space.engine().set_features(features);
        let get =
            |method: &str, args: Vec<Sequence>| d.space.get("db1/CUSTOMER", method, args).unwrap();
        let in_table = |cid: String| {
            let cid = SqlValue::Int(cid.parse().unwrap());
            d.db1
                .select("CUSTOMER", &vec![("CID".into(), cid)])
                .unwrap()[0][2]
                .lexical()
        };
        let mut out = Vec::new();
        for (method, args, edit) in [
            ("getByCID", vec![Sequence::one(Item::string("2"))], "EDITED"),
            ("CUSTOMER", vec![], "EDITED2"),
        ] {
            let g = get(method, args.clone());
            let cid = g.get_value(0, &["CID"]).unwrap();
            g.set_value(0, &["LAST_NAME"], edit).unwrap();
            let again = get(method, args).get_value(0, &["LAST_NAME"]).unwrap();
            out.push((again, in_table(cid)));
        }
        (out, d.space.engine().opt_stats().mat_invalidations)
    };
    let (optimized, refused) = reads(Features::ALL);
    let (plain, plain_refused) = reads(Features::NONE);
    for (again, table) in &optimized {
        assert_eq!(again, table, "the re-read answers what the table holds");
    }
    assert_eq!(optimized[0].1, "Borkar");
    assert_eq!(optimized, plain);
    assert_eq!(
        (refused, plain_refused),
        (2, 0),
        "one refused entry per edited cache"
    );
}

// --------------------------------------------------- join-cache stamps

fn salaried_schema() -> TableSchema {
    TableSchema {
        name: "EMPLOYEE".into(),
        columns: vec![
            Column::required("EmployeeID", ColumnType::Integer),
            Column::required("Name", ColumnType::Varchar),
            // Decimal is deliberately NOT a pushable column class, so
            // `where $e/SALARY eq 50.5` exercises the memoized-join
            // path (with a source-version stamp) instead of pushdown.
            Column::required("SALARY", ColumnType::Decimal),
        ],
        primary_key: vec!["EmployeeID".into()],
        foreign_keys: vec![],
    }
}

fn audit_schema() -> TableSchema {
    TableSchema {
        name: "AUDIT".into(),
        columns: vec![
            Column::required("ID", ColumnType::Integer),
            Column::required("VAL", ColumnType::Varchar),
        ],
        primary_key: vec!["ID".into()],
        foreign_keys: vec![],
    }
}

/// An "hr" payroll table (8 rows at SALARY 50.5) plus an unrelated
/// "log" source for audit writes.
fn payroll_space() -> (DataSpace, Database, Database) {
    let hr = Database::new("hr");
    hr.create_table(salaried_schema()).unwrap();
    for i in 1..=8 {
        hr.insert(
            "EMPLOYEE",
            vec![
                SqlValue::Int(i),
                SqlValue::Str(format!("E{i}")),
                SqlValue::parse(ColumnType::Decimal, "50.5").unwrap(),
            ],
        )
        .unwrap();
    }
    let log = Database::new("log");
    log.create_table(audit_schema()).unwrap();
    let space = DataSpace::new();
    space.register_relational_source(&hr).unwrap();
    space.register_relational_source(&log).unwrap();
    (space, hr, log)
}

/// Four loop iterations, each: count the 50.5-salaried employees, then
/// write an audit row to the *other* source.
const PAYROLL_AUDIT_LOOP: &str = r#"
declare namespace ens = "ld:hr/EMPLOYEE";
declare namespace log = "ld:log/AUDIT";
{
  declare $i as xs:integer := 1;
  declare $total as xs:integer := 0;
  while ($i le 4) {
    set $total := $total +
      fn:count(for $e in ens:EMPLOYEE() where $e/SALARY eq 50.5 return $e);
    log:createAUDIT(<AUDIT><ID>{$i}</ID><VAL>x</VAL></AUDIT>);
    set $i := $i + 1;
  }
  return value $total;
}
"#;

#[test]
fn version_stamped_join_entries_survive_unrelated_writes() {
    // Optimizer on: the join index over hr/EMPLOYEE is stamped with
    // that table's version, so AUDIT writes (which only bump the write
    // epoch) leave it intact across all four statements.
    let (space, _hr, log) = payroll_space();
    space.engine().set_features(Features { opt: true, join: true, ..space.engine().features() });
    space.engine().reset_opt_stats();
    let out = space.xqse().run(PAYROLL_AUDIT_LOOP).unwrap();
    assert_eq!(out.string_value().unwrap(), "32");
    assert_eq!(log.row_count("AUDIT").unwrap(), 4);
    let s = space.engine().opt_stats();
    assert_eq!(s.pushdown_rewrites, 0, "Decimal key must defeat pushdown");
    assert_eq!(s.join_misses, 1, "index built exactly once");
    assert_eq!(s.join_hits, 3, "…and survived three unrelated AUDIT writes");
    assert_eq!(s.join_invalidations, 0);

    // `-opt` baseline: with the optimizer off the entry is
    // epoch-stamped, so every AUDIT write kills it (the seed's blanket
    // any-write policy). Same answer, three extra rebuilds.
    let (space, _hr, _log) = payroll_space();
    space.engine().set_features(Features { opt: false, join: true, ..space.engine().features() });
    space.engine().reset_opt_stats();
    let out = space.xqse().run(PAYROLL_AUDIT_LOOP).unwrap();
    assert_eq!(out.string_value().unwrap(), "32");
    let s = space.engine().opt_stats();
    assert_eq!(s.join_misses, 4);
    assert_eq!(s.join_invalidations, 3);
    assert_eq!(s.join_hits, 0);
}

#[test]
fn join_entries_invalidate_when_their_source_is_written() {
    // Same loop shape, but each iteration writes hr/EMPLOYEE itself:
    // the version stamp must fail revalidation every time, and the
    // growing counts prove no stale index was ever served.
    const SELF_WRITE_LOOP: &str = r#"
declare namespace ens = "ld:hr/EMPLOYEE";
{
  declare $i as xs:integer := 1;
  declare $counts as xs:string* := ();
  while ($i le 4) {
    set $counts := ($counts, fn:string(fn:count(
      for $e in ens:EMPLOYEE() where $e/SALARY eq 50.5 return $e)));
    ens:createEMPLOYEE(<EMPLOYEE><EmployeeID>{100 + $i}</EmployeeID><Name>N</Name><SALARY>50.5</SALARY></EMPLOYEE>);
    set $i := $i + 1;
  }
  return value fn:string-join($counts, ",");
}
"#;
    let (space, hr, _log) = payroll_space();
    space.engine().set_features(Features { opt: true, join: true, ..space.engine().features() });
    space.engine().reset_opt_stats();
    let out = space.xqse().run(SELF_WRITE_LOOP).unwrap();
    assert_eq!(out.string_value().unwrap(), "8,9,10,11");
    assert_eq!(hr.row_count("EMPLOYEE").unwrap(), 12);
    let s = space.engine().opt_stats();
    assert_eq!(s.join_misses, 4, "every iteration saw a fresh version");
    assert_eq!(s.join_invalidations, 3);
    assert_eq!(s.join_hits, 0, "a hit here would have served stale rows");
}

// ------------------------------------------- cached vs uncached agree

/// Queries covering the three optimized read paths: full materialized
/// scan, pushable equality filter, and keyed lookup.
fn agreement_queries(id: i64, name: &str) -> Vec<String> {
    vec![
        "fn:string-join(for $e in ens:EMPLOYEE() order by $e/EmployeeID \
         return fn:concat($e/EmployeeID, '=', $e/Name), ',')"
            .to_string(),
        format!(
            "fn:count(for $e in ens:EMPLOYEE() where $e/Name eq '{name}' return $e)"
        ),
        format!("fn:string(ens:getByEmployeeID({id})/Name)"),
    ]
}

fn agreement_space() -> (DataSpace, Database) {
    let db = Database::new("hr");
    db.create_table(employee_schema()).unwrap();
    db.insert("EMPLOYEE", vec![SqlValue::Int(1), SqlValue::Str("seed".into())])
        .unwrap();
    let space = DataSpace::new();
    space.register_relational_source(&db).unwrap();
    (space, db)
}

fn eval_q(space: &DataSpace, q: &str) -> String {
    space
        .engine()
        .eval_expr_str(q, &[("ens", "ld:hr/EMPLOYEE")])
        .unwrap()
        .string_value()
        .unwrap()
}

fn call_proc(space: &DataSpace, proc_name: &str, arg: Sequence) {
    let mut env = Env::new();
    space
        .xqse()
        .call_procedure(&QName::with_ns("ld:hr/EMPLOYEE", proc_name), vec![arg], &mut env)
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Metamorphic property: an optimized space (pushdown + versioned
    /// caches) and an unoptimized one, fed the same random stream of
    /// keyed creates/updates/deletes, agree on every read after every
    /// mutation. Any missed invalidation, over-eager pushdown, or
    /// wrong version stamp shows up as a divergence.
    #[test]
    fn optimized_and_unoptimized_reads_agree(
        ops in collection::vec((0u8..3, 1i64..6, 0u8..4), 1..20)
    ) {
        let (opt, _odb) = agreement_space();
        opt.engine().set_features(Features { opt: true, ..opt.engine().features() });
        let (plain, _pdb) = agreement_space();
        plain.engine().set_features(Features { opt: false, ..plain.engine().features() });
        let mut model = std::collections::BTreeSet::new();
        model.insert(1i64);

        for (op, id, tag) in ops {
            let name = format!("n{tag}");
            match op {
                0 if !model.contains(&id) => {
                    call_proc(&opt, "createEMPLOYEE", emp(id, &name));
                    call_proc(&plain, "createEMPLOYEE", emp(id, &name));
                    model.insert(id);
                }
                1 if model.contains(&id) => {
                    call_proc(&opt, "updateEMPLOYEE", emp(id, &name));
                    call_proc(&plain, "updateEMPLOYEE", emp(id, &name));
                }
                2 if model.contains(&id) => {
                    call_proc(&opt, "deleteEMPLOYEE", emp(id, &name));
                    call_proc(&plain, "deleteEMPLOYEE", emp(id, &name));
                    model.remove(&id);
                }
                _ => {} // no-op: invalid against the current state
            }
            for q in agreement_queries(id, &name) {
                prop_assert_eq!(
                    eval_q(&opt, &q),
                    eval_q(&plain, &q),
                    "divergence on {:?} after op {} id {}",
                    q, op, id
                );
            }
        }
    }
}

// --------------------------------------------------- web-service access

/// A flattened FLWOR whose inner for-clause calls the credit-rating
/// service once per tuple, each request through the per-call path.
fn rating_query(lo: i64, hi: i64) -> String {
    format!(
        "for $i in ({lo} to {hi}) \
         for $r in cre:getCreditRating(\
             <getCreditRating><lastName>L</lastName><ssn>{{$i}}</ssn>\
             </getCreditRating>) \
         return fn:string($r)"
    )
}

#[test]
fn breaker_opens_mid_flwor_of_service_calls() {
    use xqse_repro::aldsp::ws::WebService;

    let space = DataSpace::new();
    space.register_web_service(WebService::credit_rating("urn:cr")).unwrap();
    let cre = [("cre", "ld:ws/CreditRating")];

    // Healthy warm-up: three tuples, three requests issued.
    // Pin the layer on: CI re-runs this suite under reduced feature sets.
    space.engine().set_features(Features { opt: true, batch: true, ..space.engine().features() });
    space.engine().reset_opt_stats();
    let warm = space.engine().eval_expr_str(&rating_query(1, 3), &cre).unwrap();
    assert_eq!(warm.len(), 3);
    let s = space.engine().opt_stats();
    assert_eq!((s.ws_requests, s.ws_issued), (3, 3));

    // The service starts failing transiently; a tight breaker opens
    // *during* the retry sequence of the FLWOR's first request.
    let res = space.install_resilience(Resilience::new(Policy {
        max_retries: 2,
        breaker_threshold: 2,
        breaker_cooldown_ms: 1_000,
        ..Policy::default()
    }));
    let inj = space.install_fault_injector(FaultInjector::new(
        FaultPlan::new().rule(FaultRule::new("CreditRating", Op::Call, FaultKind::Transient)),
    ));

    // The first tuple's request: attempt 1 fails (failure #1), attempt
    // 2 fails (failure #2 -> breaker OPENS), attempt 3 is rejected at
    // admission -> SRC_UNAVAILABLE. Nothing is cached for that ssn, so
    // the FLWOR fails there and the later tuples issue nothing.
    space.engine().reset_opt_stats();
    let err = space
        .engine()
        .eval_expr_str(&rating_query(4, 6), &cre)
        .unwrap_err();
    assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable));
    assert_eq!(space.engine().opt_stats().ws_issued, 1, "one request reached the source path");
    {
        let r = res.lock();
        assert_eq!(r.breaker_state("CreditRating"), BreakerState::Open);
        assert_eq!(r.stats().retries, 2, "the failing request's own retries");
        assert_eq!(r.stats().fast_failures, 1, "third attempt fast-failed");
        assert_eq!(r.stats().stale_reads, 0, "no cached fallback for new ssns");
    }

    // The injector failed that one request twice, one call per attempt.
    {
        let mut inj = inj.lock();
        assert_eq!(inj.injected_count(), 2);
        assert!(inj.events().iter().all(|e| e.source == "CreditRating" && e.op == Op::Call));
    }

    // Warm requests still answer during the outage: the read-through
    // response cache serves them before the breaker path is consulted.
    let cached = space.engine().eval_expr_str(&rating_query(1, 3), &cre).unwrap();
    assert_eq!(
        cached.iter().map(|i| i.string_value()).collect::<Vec<_>>(),
        warm.iter().map(|i| i.string_value()).collect::<Vec<_>>()
    );
    assert_eq!(res.lock().stats().stale_reads, 0, "served as cache hits, not stale");

    // Heal + cooldown: the half-open probe request succeeds, and a
    // second successful request closes the breaker.
    space.install_fault_injector(FaultInjector::new(FaultPlan::new()));
    res.lock().clock().advance(1_000);
    assert_eq!(space.engine().eval_expr_str(&rating_query(4, 4), &cre).unwrap().len(), 1);
    assert_eq!(res.lock().breaker_state("CreditRating"), BreakerState::HalfOpen);
    assert_eq!(space.engine().eval_expr_str(&rating_query(5, 6), &cre).unwrap().len(), 2);
    assert_eq!(res.lock().breaker_state("CreditRating"), BreakerState::Closed);
}

/// `WebService::call` hands out the nodes it caches, so an update
/// statement that edits a response edits the service's cached copy,
/// which the read-through and stale-read paths serve later. The update
/// must drop that cache, whichever statement engine runs it and with
/// every layer on or off.
#[test]
fn node_update_to_a_service_response_leaves_no_edited_copy_cached() {
    use xqse_repro::aldsp::ws::{credit_score, WebService};
    use xqse_repro::xqse::xqueryp::XqueryP;

    const PROLOG: &str = "declare namespace cre = \"ld:ws/CreditRating\"; \
                          declare namespace cr = \"urn:cr\";";
    const CALL: &str = "cre:getCreditRating(<cr:getCreditRating>\
                        <cr:lastName>L</cr:lastName><cr:ssn>S</cr:ssn>\
                        </cr:getCreditRating>)";
    let update = format!(
        "{PROLOG} {{ replace value of node {CALL}/cr:value with \"0\"; return value 1; }}"
    );
    let query = format!("{PROLOG} fn:string({CALL}/cr:value)");
    let rating = credit_score("S", "L").to_string();
    for features in [Features::ALL, Features::NONE] {
        for xqueryp in [false, true] {
            let what = format!("features {features}, xqueryp {xqueryp}");
            let space = DataSpace::new();
            space.register_web_service(WebService::credit_rating("urn:cr")).unwrap();
            space.engine().set_features(features);
            let edit = || {
                let out = if xqueryp {
                    XqueryP::with_engine(space.xqse().engine_rc()).run(&update)
                } else {
                    space.xqse().run(&update)
                };
                out.unwrap_or_else(|e| panic!("update failed ({what}): {e}"));
            };
            let read = || {
                let out = space.xqse().run(&query).map_err(|e| AldspCode::of(&e));
                out.map(|s| s.iter().map(|i| i.string_value()).collect::<String>())
            };

            edit();
            assert_eq!(read(), Ok(rating.clone()), "healthy re-read: {what}");

            edit();
            space.install_resilience(Resilience::new(Policy::default()));
            space.install_fault_injector(FaultInjector::new(
                FaultPlan::new().rule(FaultRule::any_op("CreditRating", FaultKind::Permanent)),
            ));
            assert_eq!(read(), Err(Some(AldspCode::SrcUnavailable)), "outage read: {what}");
        }
    }
}

/// A host that edits a service response in place
/// (`NodeHandle::replace_value`) edits the service's cached copy: the
/// response cache hands out its own sealed trees. Neither the
/// read-through path nor the stale-read fallback may serve the edited
/// copy afterwards, with every layer on or off.
#[test]
fn host_edit_to_a_service_response_leaves_no_edited_copy_cached() {
    use xqse_repro::aldsp::ws::{credit_score, WebService};

    const PROLOG: &str = "declare namespace cre = \"ld:ws/CreditRating\"; \
                          declare namespace cr = \"urn:cr\";";
    const CALL: &str = "cre:getCreditRating(<cr:getCreditRating>\
                        <cr:lastName>L</cr:lastName><cr:ssn>S</cr:ssn>\
                        </cr:getCreditRating>)";
    let call = format!("{PROLOG} {CALL}");
    let query = format!("{PROLOG} fn:string({CALL}/cr:value)");
    let rating = credit_score("S", "L").to_string();
    for features in [Features::ALL, Features::NONE] {
        let space = DataSpace::new();
        space
            .register_web_service(WebService::credit_rating("urn:cr"))
            .unwrap();
        space.engine().set_features(features);
        let edit = || {
            let resp = space.xqse().run(&call).unwrap();
            let Some(Item::Node(r)) = resp.iter().next() else {
                panic!("a response element ({features})")
            };
            r.children()[0].replace_value("0").unwrap();
        };
        let read = || {
            let out = space.xqse().run(&query).map_err(|e| AldspCode::of(&e));
            out.map(|s| s.iter().map(|i| i.string_value()).collect::<String>())
        };

        edit();
        assert_eq!(read(), Ok(rating.clone()), "healthy re-read: {features}");

        edit();
        space.install_resilience(Resilience::new(Policy::default()));
        space.install_fault_injector(FaultInjector::new(
            FaultPlan::new().rule(FaultRule::any_op("CreditRating", FaultKind::Permanent)),
        ));
        assert_eq!(
            read(),
            Err(Some(AldspCode::SrcUnavailable)),
            "outage read: {features}"
        );
    }
}

/// Every committed data-space write counts as a source write, so a
/// service whose answer depends on the tables is not read through at
/// its pre-write response: `create_instance`, `delete_instance` and a
/// host's direct `default_submit` commit through the path `submit`
/// takes. Runs under the ambient feature set.
#[test]
fn data_space_writes_reach_the_service_read_through() {
    use std::rc::Rc;
    use xqse_repro::aldsp::ws::WebService;

    let d = demo::build(3, 1, 1).unwrap();
    let mut svc = WebService::new("Tables", "urn:tables");
    let db1 = d.db1.clone();
    svc.add_operation(
        "customers",
        "req",
        "resp",
        Rc::new(move |_req| {
            Ok(Sequence::one(Item::string(
                db1.row_count("CUSTOMER")?.to_string(),
            )))
        }),
    );
    let db1 = d.db1.clone();
    svc.add_operation(
        "lastName",
        "req",
        "resp",
        Rc::new(move |_req| {
            let rows = db1.select("CUSTOMER", &vec![("CID".into(), SqlValue::Int(1))])?;
            Ok(Sequence::one(Item::string(rows[0][2].lexical())))
        }),
    );
    d.space.register_web_service(svc).unwrap();
    let read = |op: &str| {
        let q = format!("declare namespace t = \"ld:ws/Tables\"; t:{op}('k')");
        let out = d.space.xqse().run(&q).unwrap();
        out.iter().map(|i| i.string_value()).collect::<String>()
    };

    let xml = "<CustomerProfile><CID>99</CID><LAST_NAME>New</LAST_NAME>\
               <FIRST_NAME>Person</FIRST_NAME>\
               <Orders><ORDER><OID>990</OID><CID>99</CID><STATUS>OPEN</STATUS></ORDER></Orders>\
               <CreditCards/></CustomerProfile>";
    let doc = xqse_repro::xmlparse::parse(xml).unwrap();
    let inst = doc.children()[0].clone();
    assert_eq!(read("customers"), "3");
    d.space.create_instance("CustomerProfile", &inst).unwrap();
    assert_eq!(read("customers"), "4", "after create_instance");
    d.space.delete_instance("CustomerProfile", &inst).unwrap();
    assert_eq!(read("customers"), "3", "after delete_instance");

    let before = read("lastName");
    let g = d
        .space
        .get(
            "CustomerProfile",
            "getProfileById",
            vec![Sequence::one(Item::string("1"))],
        )
        .unwrap();
    g.set_value(0, &["LAST_NAME"], "Direct").unwrap();
    d.space.default_submit(&g).unwrap();
    assert_ne!(before, "Direct");
    assert_eq!(read("lastName"), "Direct", "after default_submit");
}

// ---------------------------------------------------------------------------
// 10. Crash-consistent 2PC: coordinator journal + in-doubt recovery
// ---------------------------------------------------------------------------
//
// The journaled coordinator writes Begin/Prepared/CommitDecision/
// Committed records at every protocol point and is crash-injectable at
// each of them (FaultKind::CrashPoint on the Op::Xa* protocol ops). A
// crash unwinds WITHOUT cleanup — prepared branches keep their locks,
// committed branches keep their writes — and `DataSpace::recover()`
// replays the journal: presumed abort for in-doubt transactions,
// roll-forward for decided-but-incomplete ones, through idempotent
// `commit_branch`/`rollback_branch` so recovering twice ≡ once.

mod xa_recovery {
    use super::*;
    use xqse_repro::aldsp::decompose::{self, DecompositionPlan};
    use xqse_repro::aldsp::rel::TxId;
    use xqse_repro::aldsp::RecoveryStats;

    /// A two-source plan (one insert each) on a replicated space whose
    /// source names sort/iterate in plan order: "primary" then
    /// "backup".
    fn two_source_plan() -> DecompositionPlan {
        let ins = |_: &str| WriteOp::Insert {
            table: "EMPLOYEE".into(),
            row: vec![SqlValue::Int(1), SqlValue::Str("Ann".into())],
        };
        DecompositionPlan {
            per_source: vec![
                ("primary".into(), vec![ins("primary")]),
                ("backup".into(), vec![ins("backup")]),
            ],
        }
    }

    fn rows(db: &Database) -> usize {
        db.row_count("EMPLOYEE").unwrap()
    }

    /// Every xid the journal knows, for lock assertions.
    fn journal_xids(space: &DataSpace) -> Vec<u64> {
        space.journal().scan().keys().copied().collect()
    }

    fn any_prepared(space: &DataSpace, dbs: &[&Database]) -> bool {
        journal_xids(space)
            .iter()
            .any(|&xid| dbs.iter().any(|db| db.is_prepared(TxId(xid))))
    }

    /// The acceptance-criteria matrix: crash the coordinator at every
    /// protocol point of a two-source transaction, observe the
    /// divergent/partial state the crash left, then assert recovery
    /// restores the atomicity invariant with exactly the expected
    /// counters — and that a second pass is a no-op.
    #[test]
    fn xa_crash_at_every_protocol_point_recovers_atomically() {
        // (source, op, decided, expected RecoveryStats)
        let matrix: &[(&str, Op, bool, RecoveryStats)] = &[
            // Pre-decision crashes: presumed abort. Branch rollbacks
            // count only for branches that actually prepared; the rest
            // are idempotent no-ops (replays_skipped).
            ("coordinator", Op::XaBegin, false, RecoveryStats {
                in_doubt_found: 1, rolled_forward: 0, rolled_back: 0, replays_skipped: 2,
            }),
            ("primary", Op::XaPrepared, false, RecoveryStats {
                in_doubt_found: 1, rolled_forward: 0, rolled_back: 1, replays_skipped: 1,
            }),
            ("backup", Op::XaPrepared, false, RecoveryStats {
                in_doubt_found: 1, rolled_forward: 0, rolled_back: 2, replays_skipped: 0,
            }),
            // Post-decision crashes: roll forward. A branch that
            // committed before the crash but lost its Committed record
            // replays as a skip (commit_branch finds nothing prepared).
            ("coordinator", Op::XaDecide, true, RecoveryStats {
                in_doubt_found: 0, rolled_forward: 2, rolled_back: 0, replays_skipped: 0,
            }),
            ("primary", Op::XaCommit, true, RecoveryStats {
                in_doubt_found: 0, rolled_forward: 1, rolled_back: 0, replays_skipped: 1,
            }),
            ("backup", Op::XaCommit, true, RecoveryStats {
                in_doubt_found: 0, rolled_forward: 0, rolled_back: 0, replays_skipped: 1,
            }),
        ];

        for (source, op, decided, expected) in matrix {
            let (space, primary, backup) = replicated_space();
            space.install_fault_injector(FaultInjector::new(FaultPlan::new().rule(
                FaultRule::new(*source, *op, FaultKind::CrashPoint),
            )));

            let err = decompose::execute(&space, two_source_plan())
                .expect_err("coordinator must crash");
            assert_eq!(
                AldspCode::of(&err),
                Some(AldspCode::XaCoordCrash),
                "crash at {source}/{op}"
            );

            // Before recovery the sources are in a genuinely partial
            // state: locks held with no decision, or divergent rows.
            match (source, op) {
                (_, Op::XaPrepared) | (_, Op::XaDecide) => {
                    assert!(
                        any_prepared(&space, &[&primary, &backup]),
                        "{source}/{op}: prepared locks must still be held"
                    );
                    assert_eq!((rows(&primary), rows(&backup)), (0, 0));
                }
                (_, Op::XaCommit) if *source == "primary" => {
                    assert_ne!(
                        rows(&primary),
                        rows(&backup),
                        "crash between per-source commits must leave divergent state"
                    );
                    assert!(any_prepared(&space, &[&backup]), "backup still locked");
                }
                _ => {}
            }
            assert!(!space.journal().is_clean(), "{source}/{op}: tx unresolved");

            // Recovery restores the atomicity invariant…
            let stats = space.recover().unwrap();
            assert_eq!(stats, *expected, "stats for crash at {source}/{op}");
            let want = if *decided { 1 } else { 0 };
            assert_eq!(
                (rows(&primary), rows(&backup)),
                (want, want),
                "atomicity after recovery from crash at {source}/{op}"
            );
            assert!(!any_prepared(&space, &[&primary, &backup]), "locks released");
            assert!(space.journal().is_clean(), "journal resolved");

            // …and is idempotent: a second pass finds nothing.
            let again = space.recover().unwrap();
            assert!(again.is_noop(), "second recover() must be a no-op, got {again:?}");
            assert_eq!((rows(&primary), rows(&backup)), (want, want));
        }
    }

    /// `recover()` on a clean journal is a no-op — both on a fresh
    /// space (empty journal) and after a successful multi-source
    /// commit (fully-resolved journal).
    #[test]
    fn xa_recover_is_noop_on_clean_journal() {
        let (space, primary, backup) = replicated_space();
        assert!(space.recover().unwrap().is_noop(), "empty journal");

        decompose::execute(&space, two_source_plan()).unwrap();
        assert_eq!((rows(&primary), rows(&backup)), (1, 1));
        assert!(!space.journal().is_empty(), "happy path was journaled");
        assert!(space.journal().is_clean());
        assert!(space.recover().unwrap().is_noop(), "resolved journal");

        // Recovery totals reach the engine's explain counters.
        let s = space.engine().opt_stats();
        assert_eq!(s.xa_recovery_runs, 2);
        assert_eq!(s.xa_in_doubt + s.xa_rolled_forward + s.xa_rolled_back, 0);
    }

    /// The crash error is XQSE-catchable by exact name, so an atomic
    /// block can observe an in-doubt outcome and route to recovery.
    #[test]
    fn xa_coord_crash_is_xqse_catchable() {
        let (space, primary, backup) = replicated_space();
        let inj = space.install_fault_injector(FaultInjector::new(FaultPlan::new().rule(
            FaultRule::new("primary", Op::XaCommit, FaultKind::CrashPoint),
        )));

        // A native procedure driving the journaled coordinator — the
        // stand-in for a logical service's multi-source submit.
        let journal = space.journal();
        let (pa, pb) = (primary.clone(), backup.clone());
        space.engine().register_external_procedure(
            QName::with_ns("urn:test", "doomedSubmit"),
            0,
            false,
            std::rc::Rc::new(move |_env, _args| {
                let ins = WriteOp::Insert {
                    table: "EMPLOYEE".into(),
                    row: vec![SqlValue::Int(9), SqlValue::Str("Zed".into())],
                };
                TwoPhaseCoordinator::new(vec![
                    (pa.clone(), vec![ins.clone()]),
                    (pb.clone(), vec![ins]),
                ])
                .run_journaled(&journal, Some(&inj), None)?;
                Ok(Sequence::empty())
            }),
        );

        let caught = space
            .xqse()
            .run(
                r#"
                declare namespace t = "urn:test";
                declare namespace aldsp = "urn:aldsp:errors";
                {
                  declare $out as xs:string := "clean";
                  try { t:doomedSubmit(); }
                  catch (aldsp:XA_COORD_CRASH into $err, $msg) {
                    set $out := fn:concat("in-doubt: ", $msg);
                  };
                  return value $out;
                }
                "#,
            )
            .unwrap();
        assert!(
            caught.string_value().unwrap().starts_with("in-doubt:"),
            "exact-name catch must match aldsp:XA_COORD_CRASH"
        );

        // The block observed the in-doubt outcome; recovery resolves it.
        assert_ne!(rows(&primary), rows(&backup), "divergent until recovery");
        let stats = space.recover().unwrap();
        assert_eq!(stats.rolled_forward, 1, "backup commit replayed");
        assert_eq!((rows(&primary), rows(&backup)), (1, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Randomized crash-point × fault-plan matrix. Whatever
        /// happens — a crash at any protocol point, a flaky prepare
        /// that aborts or retries through, or both racing — after
        /// recovery every source is fully pre-image or fully
        /// post-image (and all sources agree), and recover() twice is
        /// recover() once.
        #[test]
        fn xa_recovery_is_idempotent_and_atomic(
            point in 0usize..6,
            k in 0u32..3,
            r in 0u32..3,
            flaky_idx in 0usize..2,
        ) {
            let flaky_source = ["primary", "backup"][flaky_idx];
            let points = [
                ("coordinator", Op::XaBegin),
                ("primary", Op::XaPrepared),
                ("backup", Op::XaPrepared),
                ("coordinator", Op::XaDecide),
                ("primary", Op::XaCommit),
                ("backup", Op::XaCommit),
            ];
            let (crash_source, crash_op) = points[point];
            let (space, primary, backup) = replicated_space();
            space.install_fault_injector(FaultInjector::new(
                FaultPlan::new()
                    .rule(FaultRule::new(
                        flaky_source,
                        Op::Prepare,
                        FaultKind::FailNTimes(k),
                    ))
                    .rule(FaultRule::new(crash_source, crash_op, FaultKind::CrashPoint)),
            ));
            space.install_resilience(Resilience::new(Policy {
                max_retries: r,
                ..Policy::default()
            }));

            // The submit may commit, abort tidily, or crash — all are
            // legal; the invariants below must hold regardless.
            let _ = decompose::execute(&space, two_source_plan());

            let first = space.recover().unwrap();
            let (ra, rb) = (rows(&primary), rows(&backup));
            prop_assert!(ra <= 1 && rb <= 1, "double apply: {ra}/{rb}");
            prop_assert_eq!(
                ra, rb,
                "partial apply after recovery (crash at {}/{}, k={}, r={})",
                crash_source, crash_op, k, r
            );
            prop_assert!(
                !any_prepared(&space, &[&primary, &backup]),
                "prepared locks survived recovery"
            );
            prop_assert!(space.journal().is_clean());

            // Idempotency: the second pass finds nothing to do and
            // changes nothing.
            let second = space.recover().unwrap();
            prop_assert!(
                second.is_noop(),
                "recover() not idempotent: first={:?} second={:?}", first, second
            );
            prop_assert_eq!((rows(&primary), rows(&backup)), (ra, rb));
        }
    }

    /// Count guard for the journal, next to the timing guard below:
    /// the heap allocations one warm journaled two-branch commit makes
    /// beyond the same branches prepared and committed through the
    /// branch calls with no journal. Unlike a timing, the count is exact
    /// on any host.
    #[test]
    fn xa_journal_allocations_per_commit_stay_within_budget() {
        let (space, primary, backup) = replicated_space();
        for db in [&primary, &backup] {
            for i in 0..8 {
                db.insert("EMPLOYEE", vec![SqlValue::Int(i), SqlValue::Str("x".into())]).unwrap();
            }
        }
        let journal = space.journal();
        let participants = |i: i64| {
            let upd = || WriteOp::Update {
                table: "EMPLOYEE".into(),
                set: vec![("Name".into(), SqlValue::Str(format!("n{i}")))],
                cond: vec![("EmployeeID".into(), SqlValue::Int(i % 8))],
                expect_rows: 1,
            };
            vec![(primary.clone(), vec![upd()]), (backup.clone(), vec![upd()])]
        };
        // Each arm's write sets are built before its count starts. A
        // checkpoint after each journaled commit empties the ring and
        // keeps its capacity, so no append has to grow it.
        let journaled = |i: i64| {
            let coord = TwoPhaseCoordinator::new(participants(i));
            let before = allocations();
            let outcome = coord.run_journaled(&journal, None, None).unwrap();
            let n = allocations() - before;
            assert!(matches!(outcome, TxOutcome::Committed));
            journal.checkpoint();
            n
        };
        let plain = |i: i64| {
            let mut branches = participants(i);
            let before = allocations();
            let tx = fresh_tx();
            // Each write set moves into its prepare, as the coordinator
            // moves it.
            for (db, ops) in &mut branches {
                db.prepare(tx, std::mem::take(ops)).unwrap();
            }
            for (db, _) in &branches {
                assert!(db.commit_branch(tx).unwrap());
            }
            allocations() - before
        };
        let _ = (journaled(0), plain(1));
        let (with, without) = (journaled(2), plain(3));
        assert_eq!((with, without), (journaled(4), plain(5)), "the counts must repeat");
        let extra = with - without;
        println!("xa journal: {extra} allocations per journaled commit ({with} against {without})");
        assert!(
            extra <= JOURNAL_ALLOCS,
            "{extra} allocations per journaled commit; the budget is {JOURNAL_ALLOCS}"
        );
    }

    /// The journal's allocations per two-branch commit measured on this
    /// code: the two branch names, made once per transaction, the list
    /// holding them and its copy in the `Begin` record, and the
    /// coordinator's list of prepared branches. Copying the names into
    /// every record made 8.
    const JOURNAL_ALLOCS: u64 = 5;

    /// The journal's writes per two-branch commit, counted exactly: a
    /// journaled commit appends `JOURNAL_RECORDS` records of
    /// `JOURNAL_BYTES` bytes once each record's transaction-id digits
    /// are discounted (ids grow over a process's life). A journal that
    /// writes more fails here on any host, where the timing guard
    /// beside it (`xa_journal_overhead_guard_under_5pct`) reads the
    /// same journal at 3–5 % of its 5 % budget from run to run.
    #[test]
    fn xa_journal_records_per_commit_stay_exact() {
        let (space, primary, backup) = replicated_space();
        for db in [&primary, &backup] {
            db.insert("EMPLOYEE", vec![SqlValue::Int(1), SqlValue::Str("x".into())]).unwrap();
        }
        let journal = space.journal();
        let upd = || WriteOp::Update {
            table: "EMPLOYEE".into(),
            set: vec![("Name".into(), SqlValue::Str("y".into()))],
            cond: vec![("EmployeeID".into(), SqlValue::Int(1))],
            expect_rows: 1,
        };
        let coord = TwoPhaseCoordinator::new(vec![
            (primary.clone(), vec![upd()]),
            (backup.clone(), vec![upd()]),
        ]);
        let before = journal.records().len();
        assert!(matches!(
            coord.run_journaled(&journal, None, None).unwrap(),
            TxOutcome::Committed
        ));
        let records = &journal.records()[before..];
        let bytes: usize = records
            .iter()
            .map(|r| r.to_line().len() - r.xid().to_string().len())
            .sum();
        let kinds: String = records.iter().map(|r| r.to_line().remove(0)).collect();
        println!("xa journal: {} records ({kinds}), {bytes} bytes per commit", records.len());
        assert_eq!(
            (records.len(), bytes),
            (JOURNAL_RECORDS, JOURNAL_BYTES),
            "records {kinds}: the journal's writes per commit changed"
        );
    }

    /// Records per journaled two-branch commit: begin, two prepares, the
    /// decision and two commits.
    const JOURNAL_RECORDS: usize = 6;

    /// Their bytes without the transaction ids' digits, for branches
    /// named `primary` and `backup`: each line is its body and a space,
    /// `#` and 16 hex digits of checksum (`B  primary,backup`, 35;
    /// `P  primary`, 28; `P  backup`, 27; `D `, 20; and the two `C`
    /// lines, 28 and 27).
    const JOURNAL_BYTES: usize = 165;

    /// Journal overhead guard for the no-fault path: the journaled
    /// coordinator must stay within 5% of the same protocol driven
    /// through the branch calls with no journal.
    /// Ignored by default (wall-clock measurement); the fourth
    /// `scripts/check.sh` arm runs it warn-only.
    #[test]
    #[ignore = "wall-clock guard; run via scripts/check.sh arm 4"]
    fn xa_journal_overhead_guard_under_5pct() {
        use std::time::Instant;

        const SEED_ROWS: i64 = 512;
        const ITERS: i64 = 1500;
        let run = |journaled: bool| -> f64 {
            // Model what a decomposed submit actually executes per
            // source: a conditioned OCC UPDATE against a populated
            // table — not a bare one-row insert, whose cost would be
            // dwarfed by any fixed per-transaction bookkeeping.
            let (space, primary, backup) = replicated_space();
            for db in [&primary, &backup] {
                for i in 0..SEED_ROWS {
                    db.insert(
                        "EMPLOYEE",
                        vec![SqlValue::Int(i), SqlValue::Str("x".into())],
                    )
                    .unwrap();
                }
            }
            let journal = space.journal();
            let start = Instant::now();
            for i in 0..ITERS {
                let upd = || WriteOp::Update {
                    table: "EMPLOYEE".into(),
                    set: vec![("Name".into(), SqlValue::Str(format!("n{i}")))],
                    cond: vec![("EmployeeID".into(), SqlValue::Int(i % SEED_ROWS))],
                    expect_rows: 1,
                };
                let mut participants = vec![
                    (primary.clone(), vec![upd()]),
                    (backup.clone(), vec![upd()]),
                ];
                if journaled {
                    let coord = TwoPhaseCoordinator::new(participants);
                    assert!(matches!(
                        coord.run_journaled(&journal, None, None).unwrap(),
                        TxOutcome::Committed
                    ));
                } else {
                    // The coordinator's steps, minus the journal: each
                    // write set moves into its prepare.
                    let tx = fresh_tx();
                    for (db, ops) in &mut participants {
                        db.prepare(tx, std::mem::take(ops)).unwrap();
                    }
                    for (db, _) in &participants {
                        assert!(db.commit_branch(tx).unwrap());
                    }
                }
            }
            start.elapsed().as_secs_f64()
        };

        // Warm up once, then alternate the arms run by run, so a change
        // of host speed during the guard reaches both alike, and take
        // the median of the per-pair ratios (E3's protocol). Every
        // other pair runs the journaled arm first, so neither arm always
        // follows the other.
        const PAIRS: usize = 21;
        let _ = (run(false), run(true));
        let mut pairs: Vec<(f64, f64)> = (0..PAIRS)
            .map(|i| {
                if i % 2 == 0 {
                    let plain = run(false);
                    (plain, run(true))
                } else {
                    let journaled = run(true);
                    (run(false), journaled)
                }
            })
            .collect();
        pairs.sort_by(|(p1, j1), (p2, j2)| (j1 / p1).total_cmp(&(j2 / p2)));
        let (plain, journaled) = pairs[PAIRS / 2];
        let overhead = (journaled / plain - 1.0) * 100.0;
        println!(
            "xa journal overhead: median of {PAIRS} pairs: plain={plain:.4}s \
             journaled={journaled:.4}s overhead={overhead:.2}%"
        );
        assert!(
            overhead < 5.0,
            "journal overhead {overhead:.2}% exceeds the 5% budget \
             (median pair: plain={plain:.4}s journaled={journaled:.4}s)"
        );
    }
}

// ---------------------------------------------------------------------------
// Serving pool: concurrency chaos (PR 7)
// ---------------------------------------------------------------------------

mod serve {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;
    use xqse_repro::aldsp::pool::{drive_closed_loop, ServeArg, ServePool, ServeRequest, ServeSpec};
    use xqse_repro::aldsp::{Injected, WebService};
    use xqse_repro::xdm::error::ErrorCode;
    use xqse_repro::xqparser::parser::MAX_NESTING;

    fn one_col_schema(name: &str) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns: vec![Column::required("ID", ColumnType::Integer)],
            primary_key: vec!["ID".into()],
            foreign_keys: vec![],
        }
    }

    /// Regression test for the canonical shard-lock order: two workers
    /// hammer 2PC transactions over the *same pair* of tables, one
    /// declaring its writes `[BETA, ALPHA]` and the other `[ALPHA,
    /// BETA]`. If prepare/commit locked table shards in declaration
    /// order this deadlocks within a few iterations; with the
    /// canonical sorted-name order it must always finish. A watchdog
    /// turns a deadlock into a failure instead of a hang.
    #[test]
    fn serve_lock_order_opposite_submit_order_no_deadlock() {
        const ITERS: i64 = 150;
        let db = Database::new("lk");
        db.create_table(one_col_schema("ALPHA")).unwrap();
        db.create_table(one_col_schema("BETA")).unwrap();

        let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
        for worker in 0..2usize {
            let db = db.clone();
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    let id = worker as i64 * 10_000 + i;
                    let ins = |table: &str| WriteOp::Insert {
                        table: table.into(),
                        row: vec![SqlValue::Int(id)],
                    };
                    let mut ops = vec![ins("ALPHA"), ins("BETA")];
                    if worker == 1 {
                        ops.reverse();
                    }
                    let coord = TwoPhaseCoordinator::new(vec![(db.clone(), ops)]);
                    assert!(matches!(
                        coord.run_journaled(&CoordinatorJournal::new(), None, None).unwrap(),
                        TxOutcome::Committed
                    ));
                }
                done_tx.send(worker).unwrap();
            });
        }
        drop(done_tx);
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("deadlock: opposite-declaration-order 2PC never finished");
        }
        assert_eq!(db.row_count("ALPHA").unwrap(), 2 * ITERS as usize);
        assert_eq!(db.row_count("BETA").unwrap(), 2 * ITERS as usize);
    }

    fn get_req(cid: usize) -> ServeRequest {
        ServeRequest::Get {
            service: "CustomerProfile".into(),
            method: "getProfileById".into(),
            args: vec![ServeArg::Str(cid.to_string())],
        }
    }

    fn submit_req(cid: usize, sets: Vec<(usize, Vec<String>, String)>) -> ServeRequest {
        ServeRequest::Submit {
            service: "CustomerProfile".into(),
            method: "getProfileById".into(),
            args: vec![ServeArg::Str(cid.to_string())],
            sets,
        }
    }

    /// `open` nested `k` times around `core`, closed by `close`.
    fn nest(open: &str, core: &str, close: &str, k: usize) -> String {
        format!("{}{core}{}", open.repeat(k), close.repeat(k))
    }

    /// A `Run` whose text nests past the parser's limit gets XPST0003
    /// on the worker that takes it, and the same pool serves the next
    /// request. On a default 2 MiB thread, 400 open parentheses
    /// overflowed the parser's stack and aborted the whole process.
    #[test]
    fn serve_nesting_past_the_limit_is_refused_and_the_pool_keeps_serving() {
        let pool = ServePool::start(ServeSpec::new(1), |_| Ok(DataSpace::new()));
        let deep = pool.call(ServeRequest::Run { program: "(".repeat(100_000) });
        let err = deep.result.unwrap_err();
        assert!(err.is(ErrorCode::XPST0003), "{err:?}");
        let limit = format!("nesting deeper than {MAX_NESTING} levels");
        assert!(err.message.contains(&limit), "{err:?}");
        let next = pool.call(ServeRequest::Run { program: "1 + 1".into() });
        assert_eq!(next.result.unwrap(), "2");
        let report = pool.shutdown();
        assert_eq!((report.offered, report.completed), (2, 2));
    }

    /// A query nested exactly as deep as the parser accepts parses and
    /// evaluates on a pool worker, in each of the shapes that take the
    /// most stack per level: nested calls, parentheses, computed
    /// constructors and statement blocks. One level more is refused.
    #[test]
    fn serve_query_at_the_nesting_limit_succeeds() {
        let pool = ServePool::start(ServeSpec::new(1), |_| Ok(DataSpace::new()));
        // The top expression, or the innermost block's `return value`
        // statement, is one level; the computed constructor's shape
        // nests two levels at a time.
        let deepest = MAX_NESTING - 1;
        let shapes: [(&str, &str, &str, usize); 4] = [
            ("fn:abs(", "1", ")", deepest),
            ("(", "1", ")", deepest),
            ("fn:string(element a {", "1", "})", deepest / 2),
            ("{ ", "return value 1;", " }", deepest),
        ];
        for (open, core, close, k) in shapes {
            let at = pool.call(ServeRequest::Run { program: nest(open, core, close, k) });
            assert_eq!(at.result.unwrap(), "1", "{open}…{close} nested {k} deep");
            let past = pool.call(ServeRequest::Run { program: nest(open, core, close, k + 1) });
            let err = past.result.unwrap_err();
            assert!(err.is(ErrorCode::XPST0003), "{open}…{close} nested {}: {err:?}", k + 1);
        }
        pool.shutdown();
    }

    /// Unbounded recursion on a pool worker gets `aldsp:DEPTH_LIMIT`
    /// instead of overflowing the worker's stack, which aborted the
    /// whole process, and the same pool then serves the next request.
    /// Two body shapes: a plain `if`, and a FLWOR whose `return` is a
    /// constructor, which takes more stack per call. A terminating
    /// recursion 500 calls deep (use case 2's chain) still answers.
    #[test]
    fn serve_unbounded_recursion_gets_depth_limit_and_the_pool_keeps_serving() {
        let pool = ServePool::start(ServeSpec::new(1), |_| Ok(DataSpace::new()));
        let shapes = [
            "declare function local:f($n) { if ($n lt 0) then 0 else 1 + local:f($n + 1) }; \
             local:f(0)",
            "declare function local:f($n) { for $i in 1 to 1 where $i eq 1 \
             return <b>{local:f($n + 1)}</b> }; count(local:f(0))",
        ];
        for program in shapes {
            let reply = pool.call(ServeRequest::Run { program: program.into() });
            let err = reply.result.unwrap_err();
            assert_eq!(AldspCode::of(&err), Some(AldspCode::DepthLimit), "{program}: {err:?}");
            let next = pool.call(ServeRequest::Run { program: "1 + 1".into() });
            assert_eq!(next.result.unwrap(), "2");
        }
        let chain = "declare function local:f($n) { \
                     if ($n eq 0) then 0 else 1 + local:f($n - 1) }; local:f(500)";
        let reply = pool.call(ServeRequest::Run { program: chain.into() });
        assert_eq!(reply.result.unwrap(), "500");
        let report = pool.shutdown();
        assert_eq!((report.offered, report.completed), (5, 5));
    }

    /// `aldsp:DEPTH_LIMIT` is an ordinary XQSE error: a `try` around the
    /// recursion catches it, with its message, on the worker.
    #[test]
    fn serve_depth_limit_is_caught_by_xqse_try() {
        let pool = ServePool::start(ServeSpec::new(1), |_| Ok(DataSpace::new()));
        let program = "declare namespace aldsp = \"urn:aldsp:errors\";\n\
            declare procedure local:p($n) { return value local:p($n + 1); };\n\
            { try { return value local:p(0); } \
              catch (aldsp:DEPTH_LIMIT into $code, $msg) \
              { return value fn:concat(fn:local-name-from-QName($code), ': ', \
                fn:contains($msg, 'call nesting too deep')); } }";
        let reply = pool.call(ServeRequest::Run { program: program.into() });
        assert_eq!(reply.result.unwrap(), "DEPTH_LIMIT: true");
        pool.shutdown();
    }

    /// How deep the documents of the deep-tree tests nest.
    const DEEP: usize = 200_000;

    /// `DEEP` nested `<a>` elements around the text `x`.
    fn deep_document() -> String {
        format!("{}x{}", "<a>".repeat(DEEP), "</a>".repeat(DEEP))
    }

    /// Answer `program` on a one-worker pool whose worker has parsed
    /// and registered two `DEEP`-deep documents, `d` and `e`, then check
    /// that the pool serves a normal request. `features` edits the
    /// worker's features.
    fn on_deep_documents(program: &str, features: fn(Features) -> Features) -> String {
        let pool = ServePool::start(ServeSpec::new(1), move |_| {
            let space = DataSpace::new();
            space.engine().set_features(features(space.engine().features()));
            for uri in ["d", "e"] {
                let doc = xqse_repro::xmlparse::parse(&deep_document())?;
                space.engine().register_document(uri, doc);
            }
            Ok(space)
        });
        let answer = pool.call(ServeRequest::Run { program: program.into() }).result.unwrap();
        let next = pool.call(ServeRequest::Run { program: "1 + 1".into() });
        assert_eq!(next.result.unwrap(), "2");
        let report = pool.shutdown();
        assert_eq!((report.offered, report.completed), (2, 2));
        answer
    }

    /// A document nests as deep as memory allows: parsing it, walking
    /// its descendants and dropping it each used to recurse once per
    /// level and overflowed the worker's stack.
    #[test]
    fn serve_deep_document_descendants_are_counted() {
        let count = on_deep_documents("fn:count(fn:doc(\"d\")/descendant::a)", |f| f);
        assert_eq!(count, DEEP.to_string());
    }

    #[test]
    fn serve_deep_document_string_value() {
        assert_eq!(on_deep_documents("fn:string(fn:doc(\"d\"))", |f| f), "x");
    }

    #[test]
    fn serve_deep_document_serializes() {
        assert!(on_deep_documents("fn:doc(\"d\")", |f| f) == deep_document());
    }

    #[test]
    fn serve_deep_documents_compare_deep_equal() {
        assert_eq!(on_deep_documents("fn:deep-equal(fn:doc(\"d\"), fn:doc(\"e\"))", |f| f), "true");
    }

    /// A registered document is neither sealed nor detached, so a
    /// constructor deep-copies it.
    #[test]
    fn serve_deep_document_copies_into_a_constructor() {
        let copy = on_deep_documents("<x>{fn:doc(\"d\")}</x>", |f| f);
        assert!(copy == format!("<x>{}</x>", deep_document()));
    }

    /// Each pass grafts the tree the last one built (`graft` is on
    /// whatever `XQSE_FEATURES` says: without it each pass copies the
    /// whole tree), so `$x` ends as a chain of `DEEP_GRAFTS` arenas. The insert into the innermost `a`
    /// goes through every graft view and copies the whole chain on
    /// write; counting walks the copy. Then the chain, the views and
    /// the copy are dropped: each of these used to recurse once per
    /// graft.
    #[test]
    fn serve_deep_graft_chain_copies_on_write_and_drops() {
        const DEEP_GRAFTS: usize = 100_000;
        let program = format!(
            "{{ declare $x := <a/>; declare $i := 0; \
             while ($i lt {DEEP_GRAFTS}) {{ set $x := <a>{{$x}}</a>; set $i := $i + 1; }} \
             insert node <a/> into ($x/descendant::a)[fn:last()]; \
             return value fn:count($x/descendant::a); }}"
        );
        let graft = |f| Features { graft: true, ..f };
        assert_eq!(on_deep_documents(&program, graft), (DEEP_GRAFTS + 1).to_string());
    }

    fn xa_sets(marker: &str) -> Vec<(usize, Vec<String>, String)> {
        vec![
            (0, vec!["LAST_NAME".into()], marker.to_string()),
            (
                0,
                vec!["CreditCards".into(), "CREDIT_CARD".into(), "BRAND".into()],
                marker.to_string(),
            ),
        ]
    }

    /// The concurrency soak: 4 workers serve a mixed read / write / XA
    /// workload while a fault plan injects source timeouts, trips the
    /// web-service breaker, and crashes the 2PC coordinator once at
    /// the decision point. Invariants checked:
    ///
    /// * per-table version counters stay monotonic under concurrency
    ///   (sampled continuously from a side thread),
    /// * every storm-time failure is a typed error, never a panic,
    /// * injected faults record *which worker* hit them,
    /// * the breaker actually tripped (a `Closed -> Open` transition),
    /// * once the fault budgets are spent, the pool fully recovers: a
    ///   whole follow-up round of reads succeeds,
    /// * after recovery every XA marker is in **both** sources or in
    ///   neither, the journal is clean, and a second recovery pass is
    ///   a no-op.
    #[test]
    fn serve_soak_mixed_workload_under_faults() {
        const CUSTOMERS: usize = 12;
        let d = demo::build(CUSTOMERS, 1, 1).unwrap();
        let injector = d.space.install_fault_injector(FaultInjector::new(
            FaultPlan::new()
                .rule(FaultRule::new("db1", Op::Execute, FaultKind::Timeout).times(2))
                .rule(FaultRule::new("CreditRating", Op::Call, FaultKind::Transient).times(5))
                .rule(FaultRule::new("coordinator", Op::XaDecide, FaultKind::CrashPoint)),
        ));
        let resilience = d.space.install_resilience(Resilience::new(Policy {
            max_retries: 2,
            base_backoff_ms: 10,
            breaker_threshold: 3,
            breaker_cooldown_ms: 10,
            half_open_successes: 1,
            ..Policy::default()
        }));
        let access = d.space.access();
        let journal = d.space.journal();
        let (db1, db2) = (d.db1.clone(), d.db2.clone());

        // Version monotonicity sampler: reads the live per-table
        // version counters while the pool is serving. table_version()
        // bypasses Access, so sampling is invisible to the fault plan.
        //
        // The sampler doubles as the soak's wall-clock heartbeat: it
        // ticks the shared virtual clock so breaker cooldowns always
        // expire. Without it, the clock only moves on retry backoffs,
        // and an unlucky interleaving can trip a breaker (concurrent
        // workers each recording one failure, no retries paid) after
        // the fault plan's backoff budget is spent — freezing virtual
        // time mid-cooldown and failing every later uncached read.
        let done = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (db1, db2, done) = (db1.clone(), db2.clone(), done.clone());
            let clock = resilience.lock().clock();
            std::thread::spawn(move || {
                let (mut v1, mut v2) = (0u64, 0u64);
                while !done.load(Ordering::Relaxed) {
                    let n1 = db1.table_version("CUSTOMER").unwrap();
                    let n2 = db2.table_version("CREDIT_CARD").unwrap();
                    assert!(n1 >= v1, "CUSTOMER version went backwards: {v1} -> {n1}");
                    assert!(n2 >= v2, "CREDIT_CARD version went backwards: {v2} -> {n2}");
                    (v1, v2) = (n1, n2);
                    clock.advance(1);
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };

        let pool = {
            let (db1, db2) = (db1.clone(), db2.clone());
            let (access, journal) = (access.clone(), journal.clone());
            ServePool::start(ServeSpec::new(4), move |_worker| {
                let space =
                    demo::assemble(&db1, &db2, WebService::credit_rating(demo::CREDIT_TYPES_NS))?;
                space.install_access(access.clone());
                space.set_journal(journal.clone());
                Ok(space)
            })
        };

        // Mixed workload. Cids are disjoint per phase so concurrent
        // submits never contend on a row: single-source writes touch
        // 1..=4, XA (two-source) submits touch 7..=10.
        let mut reqs: Vec<ServeRequest> = Vec::new();
        reqs.extend((1..=CUSTOMERS).map(get_req)); // warm every worker
        reqs.extend(
            (1..=4).map(|c| submit_req(c, vec![(0, vec!["FIRST_NAME".into()], format!("W-{c}"))])),
        );
        reqs.extend((1..=8).map(get_req));
        reqs.extend((7..=10).map(|c| submit_req(c, xa_sets(&format!("XA-{c}")))));
        reqs.extend((5..=10).map(get_req));

        let (replies, _elapsed) = drive_closed_loop(&pool, &reqs, 8);

        // Storm-time failures must all be *typed* infrastructure
        // errors — never a worker panic. How many requests die is a
        // race between the breaker's fail-fast window and the fault
        // plan's clock-advancing retries (an unpaced closed loop can
        // push the whole request list through one cooldown window), so
        // the liveness claim lives in the heal round below, not in a
        // storm-time survival count.
        for (i, r) in replies.iter().enumerate() {
            if let Err(e) = &r.result {
                assert!(e.code.ns.is_some(), "request {i} failed with an untyped error: {e}");
                assert!(!e.message.contains("panicked"), "request {i} died in a worker: {e}");
            }
        }

        // Drain the tail of the fault budget from here (a half-open
        // probe that eats a leftover transient re-opens the breaker;
        // probing through the shared Access burns those down), then
        // prove full recovery: with the budgets spent and cooldowns
        // expired, a whole pooled round of reads must come back green.
        let probe_clock = resilience.lock().clock();
        for _ in 0..8 {
            probe_clock.advance(1_000);
            if d.space
                .get("CustomerProfile", "getProfileById", vec![Sequence::one(Item::string("1"))])
                .is_ok()
            {
                break;
            }
        }
        let heal: Vec<ServeRequest> = (1..=CUSTOMERS).map(get_req).collect();
        let (recovered, _) = drive_closed_loop(&pool, &heal, 4);
        for (cid, r) in recovered.iter().enumerate() {
            assert!(
                r.result.is_ok(),
                "read of cid {} still failing after the storm: {:?}",
                cid + 1,
                r.result
            );
        }

        let report = pool.shutdown();
        done.store(true, Ordering::Relaxed);
        sampler.join().expect("version sampler observed a regression");

        assert!(report.init_errors.iter().all(Option::is_none), "{:?}", report.init_errors);
        assert_eq!(report.served.iter().sum::<u64>() as usize, reqs.len() + heal.len());

        // Fault events carry the serving worker's identity.
        let events = injector.lock().events().to_vec();
        assert!(!events.is_empty(), "fault plan never fired");
        assert!(
            events.iter().any(|e| e.worker.is_some()),
            "no event recorded a pool worker id: {events:?}"
        );
        assert!(events.iter().any(|e| e.source == "db1"), "db1 write timeouts never fired");

        // The web-service breaker tripped at least once.
        assert!(
            resilience
                .lock()
                .transitions()
                .iter()
                .any(|t| t.source == "CreditRating"
                    && t.from == BreakerState::Closed
                    && t.to == BreakerState::Open),
            "CreditRating breaker never opened: {:?}",
            resilience.lock().transitions()
        );

        // The coordinator crash: normally one of the pooled XA submits
        // hits it. If the chaos happened to fail every pooled XA
        // submit *before* the decision point, drive one from here so
        // the recovery half of the test stays meaningful — the
        // CrashPoint budget is still armed in the shared injector.
        let crashed_in_pool =
            events.iter().any(|e| matches!(e.injected, Injected::Crash));
        if !crashed_in_pool {
            let g = d
                .space
                .get("CustomerProfile", "getProfileById", vec![Sequence::one(Item::string("7"))])
                .unwrap();
            g.set_value(0, &["LAST_NAME"], "XA-7").unwrap();
            g.set_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"], "XA-7").unwrap();
            let err = d.space.submit(&g).unwrap_err();
            assert_eq!(AldspCode::of(&err), Some(AldspCode::XaCoordCrash));
        }
        assert!(!journal.is_clean(), "coordinator crash left no in-flight journal entry");

        // Recovery from a *fresh* coordinator over the shared journal,
        // exactly as a restarted middle tier would run it.
        let space2 =
            demo::assemble(&db1, &db2, WebService::credit_rating(demo::CREDIT_TYPES_NS)).unwrap();
        space2.set_journal(journal.clone());
        let stats = space2.recover().unwrap();
        assert!(
            stats.rolled_forward + stats.rolled_back >= 1,
            "recovery resolved nothing: {stats:?}"
        );
        assert!(journal.is_clean(), "journal still dirty after recovery");

        // Post-recovery atomicity: each XA marker is in both sources
        // or in neither.
        for cid in 7..=10 {
            let marker = format!("XA-{cid}");
            let cond = vec![("CID".to_string(), SqlValue::Int(cid as i64))];
            let cust = db1.select("CUSTOMER", &cond).unwrap();
            let card = db2.select("CREDIT_CARD", &cond).unwrap();
            let in_db1 = cust.iter().any(|r| r[2] == SqlValue::Str(marker.clone()));
            let in_db2 = card.iter().any(|r| r[3] == SqlValue::Str(marker.clone()));
            assert_eq!(
                in_db1, in_db2,
                "XA marker {marker} applied to one source only (db1={in_db1} db2={in_db2})"
            );
        }

        // Recovery is idempotent.
        let again = space2.recover().unwrap();
        assert_eq!((again.rolled_forward, again.rolled_back, again.in_doubt_found), (0, 0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// For read-only workloads the pool is semantically invisible:
        /// N workers over shard-locked shared sources return
        /// byte-identical results to the single-threaded engine, for
        /// any request mix and any worker count.
        #[test]
        fn serve_read_only_results_match_sequential(
            cids in proptest::collection::vec(1usize..=6, 1..10),
            workers in 1usize..=3,
        ) {
            let d = demo::build(6, 1, 1).unwrap();
            let expected: Vec<String> = cids
                .iter()
                .map(|cid| {
                    let g = d
                        .space
                        .get(
                            "CustomerProfile",
                            "getProfileById",
                            vec![Sequence::one(Item::string(cid.to_string()))],
                        )
                        .unwrap();
                    xqse_repro::xmlparse::serialize_sequence(g.instances())
                })
                .collect();

            let (db1, db2) = (d.db1.clone(), d.db2.clone());
            let pool = ServePool::start(ServeSpec::new(workers), move |_| {
                demo::assemble(&db1, &db2, WebService::credit_rating(demo::CREDIT_TYPES_NS))
            });
            let reqs: Vec<ServeRequest> = cids.iter().copied().map(get_req).collect();
            let (replies, _) = drive_closed_loop(&pool, &reqs, 2);
            pool.shutdown();

            for (reply, want) in replies.iter().zip(&expected) {
                let got = reply.result.as_ref().expect("pooled read failed");
                prop_assert_eq!(got, want);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request budgets: deadline propagation, cooperative cancellation,
// and overload admission control (PR 8)
// ---------------------------------------------------------------------------
//
// Every request can carry a Budget (wall-clock deadline on a virtual
// or real clock, evaluation fuel, XDM allocation ceiling) that is
// checked cooperatively at evaluator steps, XQSE loop heads, source
// calls, and 2PC protocol points. The tests below pin down the two
// hard invariants: a budget can *never* split a distributed
// transaction (aborts are tidy and pre-decision only), and the pool's
// admission books always balance (completed + shed + cancelled =
// offered).

mod budget {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;
    use xqse_repro::aldsp::decompose::{self, DecompositionPlan};
    use xqse_repro::aldsp::pool::{
        drive_closed_loop, drive_open_loop, ServePool, ServeRequest, ServeSpec,
    };
    use xqse_repro::aldsp::rel::TxId;
    use xqse_repro::xqeval::budget::set_current_budget;
    use xqse_repro::xqeval::{Budget, BudgetClock};

    fn two_source_plan() -> DecompositionPlan {
        let ins = || WriteOp::Insert {
            table: "EMPLOYEE".into(),
            row: vec![SqlValue::Int(1), SqlValue::Str("Ann".into())],
        };
        DecompositionPlan {
            per_source: vec![
                ("primary".into(), vec![ins()]),
                ("backup".into(), vec![ins()]),
            ],
        }
    }

    fn rows(db: &Database) -> usize {
        db.row_count("EMPLOYEE").unwrap()
    }

    fn any_prepared(space: &DataSpace, dbs: &[&Database]) -> bool {
        space
            .journal()
            .scan()
            .keys()
            .any(|&xid| dbs.iter().any(|db| db.is_prepared(TxId(xid))))
    }

    /// A bounded XQSE counting loop; with enough fuel it terminates
    /// and returns `$n`, with less it dies at a loop head or eval
    /// step with `aldsp:FUEL_EXHAUSTED`.
    fn counting_loop(n: u64) -> String {
        format!(
            "{{ declare $i := 0; while ($i lt {n}) {{ set $i := $i + 1; }} \
             return value $i; }}"
        )
    }

    /// The cancel-at-every-protocol-point matrix (the budget twin of
    /// the crash matrix above): a `Stall` rule burns the request's
    /// deadline at one exact 2PC protocol point per case. Before the
    /// commit decision is journaled the coordinator must abort
    /// *tidily* — rollback prepared branches, journal `Aborted`,
    /// surface `aldsp:DEADLINE_EXCEEDED` — and after the decision the
    /// transaction must commit to completion no matter what the
    /// budget says. Either way there is never a committed branch
    /// without a journaled decision, recovery finds nothing in doubt,
    /// and a recovery pass is a no-op.
    #[test]
    fn budget_deadline_at_every_xa_point_never_splits_the_transaction() {
        let points: &[(&str, Op, bool)] = &[
            ("coordinator", Op::XaBegin, false),
            ("primary", Op::XaPrepared, false),
            ("backup", Op::XaPrepared, false),
            ("coordinator", Op::XaDecide, true),
            ("primary", Op::XaCommit, true),
            ("backup", Op::XaCommit, true),
        ];
        for (source, op, commits) in points {
            let (space, primary, backup) = replicated_space();
            space.install_fault_injector(FaultInjector::new(FaultPlan::new().rule(
                FaultRule::new(*source, *op, FaultKind::Stall(100)),
            )));
            let res = space.install_resilience(Resilience::new(Policy::default()));
            let budget = Arc::new(
                Budget::with_clock(res.lock().clock().budget_clock()).deadline_in(50),
            );
            set_current_budget(Some(budget.clone()));
            let outcome = decompose::execute(&space, two_source_plan());
            set_current_budget(None);

            if *commits {
                // Post-decision expiry: a half-committed transaction
                // is worse than a late one, so the commit completes.
                outcome.unwrap_or_else(|e| {
                    panic!("stall at {source}/{op} must still commit: {e:?}")
                });
                assert_eq!((rows(&primary), rows(&backup)), (1, 1), "at {source}/{op}");
            } else {
                let err = outcome.expect_err("pre-decision expiry must abort");
                assert_eq!(
                    AldspCode::of(&err),
                    Some(AldspCode::DeadlineExceeded),
                    "stall at {source}/{op}: {err:?}"
                );
                assert_eq!((rows(&primary), rows(&backup)), (0, 0), "at {source}/{op}");
            }
            assert!(
                !any_prepared(&space, &[&primary, &backup]),
                "{source}/{op}: prepared locks survived the budget verdict"
            );
            assert!(space.journal().is_clean(), "{source}/{op}: tx left unresolved");
            let stats = space.recover().unwrap();
            assert!(
                stats.is_noop(),
                "{source}/{op}: recovery found work after a tidy outcome: {stats:?}"
            );
        }
    }

    /// An externally cancelled request aborts at the first protocol
    /// point with `aldsp:CANCELLED` and releases everything.
    #[test]
    fn budget_precancelled_request_aborts_before_any_write() {
        let (space, primary, backup) = replicated_space();
        space.install_resilience(Resilience::new(Policy::default()));
        let budget = Arc::new(Budget::unlimited());
        budget.cancel();
        set_current_budget(Some(budget));
        let err = decompose::execute(&space, two_source_plan()).unwrap_err();
        set_current_budget(None);
        assert_eq!(AldspCode::of(&err), Some(AldspCode::Cancelled));
        assert_eq!((rows(&primary), rows(&backup)), (0, 0));
        assert!(!any_prepared(&space, &[&primary, &backup]));
        assert!(space.journal().is_clean());
        assert!(space.recover().unwrap().is_noop());
    }

    /// `aldsp:DEADLINE_EXCEEDED` is XQSE-catchable by exact name: an
    /// atomic block can observe its own deadline abort, knowing the
    /// underlying transaction unwound tidily (unlike XA_COORD_CRASH,
    /// which leaves in-doubt state for recovery).
    #[test]
    fn budget_deadline_is_xqse_catchable() {
        let (space, primary, backup) = replicated_space();
        let inj = space.install_fault_injector(FaultInjector::new(FaultPlan::new().rule(
            FaultRule::new("backup", Op::XaPrepared, FaultKind::Stall(200)),
        )));
        let res = space.install_resilience(Resilience::new(Policy::default()));
        let vclock = res.lock().clock();

        let journal = space.journal();
        let (pa, pb) = (primary.clone(), backup.clone());
        space.engine().register_external_procedure(
            QName::with_ns("urn:test", "slowSubmit"),
            0,
            false,
            std::rc::Rc::new(move |_env, _args| {
                // The request enters with 50ms left on its deadline.
                let budget = Arc::new(
                    Budget::with_clock(vclock.budget_clock()).deadline_in(50),
                );
                set_current_budget(Some(budget));
                let ins = WriteOp::Insert {
                    table: "EMPLOYEE".into(),
                    row: vec![SqlValue::Int(7), SqlValue::Str("Kim".into())],
                };
                let out = TwoPhaseCoordinator::new(vec![
                    (pa.clone(), vec![ins.clone()]),
                    (pb.clone(), vec![ins]),
                ])
                .run_journaled(&journal, Some(&inj), Some(&vclock));
                set_current_budget(None);
                match out? {
                    TxOutcome::Committed => Ok(Sequence::empty()),
                    TxOutcome::Aborted(e) => Err(e),
                }
            }),
        );

        let caught = space
            .xqse()
            .run(
                r#"
                declare namespace t = "urn:test";
                declare namespace aldsp = "urn:aldsp:errors";
                {
                  declare $out as xs:string := "clean";
                  try { t:slowSubmit(); }
                  catch (aldsp:DEADLINE_EXCEEDED into $err, $msg) {
                    set $out := fn:concat("late: ", $msg);
                  };
                  return value $out;
                }
                "#,
            )
            .unwrap();
        assert!(
            caught.string_value().unwrap().starts_with("late:"),
            "exact-name catch must match aldsp:DEADLINE_EXCEEDED"
        );

        // Tidy abort: no split writes, no in-doubt state to recover.
        assert_eq!((rows(&primary), rows(&backup)), (0, 0));
        assert!(space.journal().is_clean());
        assert!(space.recover().unwrap().is_noop());
    }

    /// `aldsp:FUEL_EXHAUSTED` is XQSE-catchable by exact name. The
    /// callee meters its own fuel allotment (the scoped sub-budget a
    /// nested service call runs under), so the outer, unbudgeted
    /// block can catch the exhaustion and degrade gracefully.
    #[test]
    fn budget_fuel_exhaustion_is_xqse_catchable() {
        let space = DataSpace::new();
        space.engine().register_external_procedure(
            QName::with_ns("urn:test", "meteredWork"),
            0,
            false,
            std::rc::Rc::new(move |_env, _args| {
                let fuel = Budget::unlimited().limit_fuel(64);
                loop {
                    fuel.step()?; // one unit of callee work
                }
            }),
        );
        let caught = space
            .xqse()
            .run(
                r#"
                declare namespace t = "urn:test";
                declare namespace aldsp = "urn:aldsp:errors";
                {
                  declare $out as xs:string := "finished";
                  try { t:meteredWork(); }
                  catch (aldsp:FUEL_EXHAUSTED into $err, $msg) {
                    set $out := "out of fuel";
                  };
                  return value $out;
                }
                "#,
            )
            .unwrap();
        assert_eq!(caught.string_value().unwrap(), "out of fuel");
    }

    /// Engine-level fuel: a runaway XQSE loop halts after exactly its
    /// fuel allotment of evaluation steps.
    #[test]
    fn budget_fuel_halts_a_runaway_xqse_loop() {
        let space = DataSpace::new();
        let budget = Arc::new(Budget::unlimited().limit_fuel(256));
        space.engine().set_budget(Some(budget.clone()));
        let err = space.xqse().run(&counting_loop(10_000_000)).unwrap_err();
        space.engine().set_budget(None);
        assert_eq!(AldspCode::of(&err), Some(AldspCode::FuelExhausted), "{err:?}");
        assert_eq!(budget.remaining_fuel(), Some(0));
        assert_eq!(budget.steps_taken(), 256, "fuel is one unit per eval step");
    }

    /// Engine-level deadline: the strided clock check in the hot loop
    /// halts a runaway evaluation once the deadline passes. The clock
    /// here ticks once per read, so expiry needs no wall-clock time.
    #[test]
    fn budget_deadline_halts_eval_on_a_ticking_clock() {
        let ticks = Arc::new(AtomicU64::new(0));
        let clock: BudgetClock = {
            let ticks = ticks.clone();
            Arc::new(move || ticks.fetch_add(1, Ordering::Relaxed))
        };
        let space = DataSpace::new();
        let budget = Arc::new(Budget::with_clock(clock).deadline_in(200));
        space.engine().set_budget(Some(budget.clone()));
        let err = space.xqse().run(&counting_loop(100_000_000)).unwrap_err();
        space.engine().set_budget(None);
        assert_eq!(AldspCode::of(&err), Some(AldspCode::DeadlineExceeded), "{err:?}");
        assert_eq!(budget.remaining_ms(), Some(0));
    }

    /// XDM allocation ceiling: node construction charges the budget,
    /// and exceeding it surfaces `aldsp:MEMORY_LIMIT`.
    #[test]
    fn budget_memory_limit_bounds_node_construction() {
        let space = DataSpace::new();
        let budget = Arc::new(Budget::unlimited().limit_memory(4));
        space.engine().set_budget(Some(budget.clone()));
        // Construction-aware accounting: `<A><B/></A>` costs two units
        // (one admission unit covering the root + one per extra node
        // record), so the 3rd tree breaches a 4-unit ceiling.
        let mut outcomes = Vec::new();
        for _ in 0..10 {
            outcomes.push(space.engine().eval_expr_str("<A><B/></A>", &[]));
        }
        space.engine().set_budget(None);
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 2);
        let err = outcomes.iter().find_map(|o| o.as_ref().err()).unwrap();
        assert_eq!(AldspCode::of(err), Some(AldspCode::MemoryLimit), "{err:?}");
        assert_eq!(budget.remaining_memory(), Some(0));
    }

    /// Interning-aware memory accounting: a tree assembled from an
    /// already-materialized subtree charges the *pointer* cost of the
    /// graft, not the deep node count — so the same query admits under
    /// a ceiling that the copy-always baseline breaches.
    #[test]
    fn budget_memory_charges_grafts_at_pointer_cost() {
        // Wrapping a 21-node prebuilt tree: graft-on charges
        // 1 admission + 1 pointer unit; copy-always charges
        // 1 admission + 21 copied node records.
        let query = "let $x := <r>{for $i in 1 to 10 return <v>{$i}</v>}</r> \
                     return <wrap>{$x}</wrap>";
        let charged = |graft: bool| -> u64 {
            let space = DataSpace::new();
            space.engine().set_features(Features { graft, ..space.engine().features() });
            let budget = Arc::new(Budget::unlimited().limit_memory(1_000_000));
            space.engine().set_budget(Some(budget.clone()));
            space.engine().eval_expr_str(query, &[]).unwrap();
            space.engine().set_budget(None);
            1_000_000 - budget.remaining_memory().unwrap()
        };
        let with_graft = charged(true);
        let without = charged(false);
        assert!(
            with_graft + 15 <= without,
            "grafted construction must charge far fewer memory units: \
             graft-on={with_graft} graft-off={without}"
        );
    }

    /// Overload admission control: a 1-worker pool with a 1-slot
    /// queue, offered 8-way concurrent load, sheds what it cannot
    /// absorb with `aldsp:OVERLOADED` *before* dispatch — and the
    /// books balance exactly: completed + shed + cancelled = offered.
    #[test]
    fn budget_overload_sheds_fast_and_the_books_balance() {
        let mut spec = ServeSpec::new(1);
        spec.queue_capacity = 1;
        let pool = ServePool::start(spec, |_| Ok(DataSpace::new()));
        let reqs: Vec<ServeRequest> = (0..64)
            .map(|_| ServeRequest::Run { program: counting_loop(400) })
            .collect();
        let (replies, _) = drive_open_loop(&pool, &reqs, 8);
        let report = pool.shutdown();

        assert_eq!(report.offered, 64);
        assert_eq!(
            report.completed + report.shed + report.cancelled,
            report.offered,
            "admission books must balance: {report:?}"
        );
        assert!(report.shed > 0, "a 1-slot queue under 8-way load must shed");
        let mut oks = 0u64;
        for reply in &replies {
            match &reply.result {
                Ok(v) => {
                    oks += 1;
                    assert!(v.contains("400"), "admitted request served fully: {v}");
                }
                Err(e) => assert_eq!(
                    AldspCode::of(e),
                    Some(AldspCode::Overloaded),
                    "sheds must fail fast with OVERLOADED: {e:?}"
                ),
            }
        }
        assert_eq!(oks, report.completed);
    }

    /// Per-request deadlines in the pool: with a 1ms deadline stamped
    /// at admission (queue wait counts against it) and a deliberately
    /// slow program, requests either complete, get shed at dispatch
    /// (`OVERLOADED`), or die mid-evaluation (`DEADLINE_EXCEEDED`) —
    /// and the per-class counters match the replies exactly.
    #[test]
    fn budget_pool_deadline_sheds_or_cancels_and_the_books_balance() {
        let pool = ServePool::start(
            ServeSpec::new(1).with_deadline_ms(1),
            |_| Ok(DataSpace::new()),
        );
        let reqs: Vec<ServeRequest> = (0..24)
            .map(|_| ServeRequest::Run { program: counting_loop(20_000) })
            .collect();
        let (replies, _) = drive_closed_loop(&pool, &reqs, 8);
        let report = pool.shutdown();

        let (mut oks, mut shed, mut dead) = (0u64, 0u64, 0u64);
        for reply in &replies {
            match &reply.result {
                Ok(_) => oks += 1,
                Err(e) => match AldspCode::of(e) {
                    Some(AldspCode::Overloaded) => shed += 1,
                    Some(AldspCode::DeadlineExceeded) => dead += 1,
                    other => panic!("unexpected outcome class {other:?}: {e:?}"),
                },
            }
        }
        assert_eq!(report.offered, 24);
        assert_eq!(report.completed + report.shed + report.cancelled, report.offered);
        assert_eq!((report.completed, report.shed, report.cancelled), (oks, shed, dead));
        assert!(
            shed + dead > 0,
            "a 1ms deadline over ~ms-long requests must expire somewhere"
        );
        // Worker-side budget outcomes surface in the aggregated
        // explain counters too.
        assert_eq!(report.stats.budget_deadline, dead);
    }

    /// A panicking request is contained: the caller gets a typed
    /// `aldsp:` error (not a hung channel), the worker survives to
    /// serve the next request, and shutdown still balances the books.
    /// Regression test for the worker-panic deadlock in
    /// `drive_closed_loop`.
    #[test]
    fn budget_worker_panic_yields_typed_error_and_pool_survives() {
        let pool = ServePool::start(ServeSpec::new(1), |_| {
            let space = DataSpace::new();
            space.engine().register_external_procedure(
                QName::with_ns("urn:test", "boom"),
                0,
                false,
                std::rc::Rc::new(|_env, _args| panic!("kaboom")),
            );
            Ok(space)
        });
        let crash = pool.call(ServeRequest::Run {
            program: "declare namespace t = \"urn:test\"; { t:boom(); return value 1; }"
                .into(),
        });
        let err = crash.result.unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable));
        assert!(err.message.contains("panicked"), "{err:?}");

        // The worker is still alive and serving.
        let next = pool.call(ServeRequest::Run { program: counting_loop(42) });
        assert!(next.result.unwrap().contains("42"));

        let report = pool.shutdown();
        assert_eq!(report.offered, 2);
        assert_eq!(report.completed, 2, "a panic is an ordinary completed error");
    }

    /// A pool-wide fuel spec stops an over-limit request with the
    /// typed error and counts it as a budget cancellation.
    #[test]
    fn budget_pool_fuel_spec_cancels_an_over_limit_request() {
        let pool = ServePool::start(
            ServeSpec::new(1).with_fuel(64),
            |_| Ok(DataSpace::new()),
        );
        let reply = pool.call(ServeRequest::Run { program: counting_loop(2_000) });
        let report = pool.shutdown();
        let err = reply.result.unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::FuelExhausted), "{err:?}");
        assert_eq!(report.cancelled, 1);
        assert_eq!(report.stats.budget_fuel, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever interrupts a budgeted XQSE script — fuel running
        /// out at an arbitrary evaluator step, a deadline burned by a
        /// stall at an arbitrary 2PC protocol point, or nothing at
        /// all — no partial write is ever visible: replicas agree
        /// row-for-row, no prepared locks survive, the journal is
        /// clean, and recovery is an idempotent no-op.
        #[test]
        fn budget_interruption_leaves_no_partial_writes(
            point in 0usize..6,
            stall in 0u32..200,
            deadline in 1u32..120,
            fuel in 50u32..4_000,
        ) {
            let (stall, deadline, fuel) = (stall as u64, deadline as u64, fuel as u64);
            let points = [
                ("coordinator", Op::XaBegin),
                ("primary", Op::XaPrepared),
                ("backup", Op::XaPrepared),
                ("coordinator", Op::XaDecide),
                ("primary", Op::XaCommit),
                ("backup", Op::XaCommit),
            ];
            let (stall_source, stall_op) = points[point];
            let (space, primary, backup) = replicated_space();
            let inj = space.install_fault_injector(FaultInjector::new(
                FaultPlan::new().rule(FaultRule::new(
                    stall_source,
                    stall_op,
                    FaultKind::Stall(stall),
                )),
            ));
            let res = space.install_resilience(Resilience::new(Policy::default()));
            let vclock = res.lock().clock();

            let journal = space.journal();
            let (pa, pb) = (primary.clone(), backup.clone());
            let next = Cell::new(0i64);
            let (inj2, vclock2) = (inj.clone(), vclock.clone());
            space.engine().register_external_procedure(
                QName::with_ns("urn:test", "xaSubmit"),
                0,
                false,
                std::rc::Rc::new(move |_env, _args| {
                    let id = next.get();
                    next.set(id + 1);
                    let ins = WriteOp::Insert {
                        table: "EMPLOYEE".into(),
                        row: vec![SqlValue::Int(id), SqlValue::Str("p".into())],
                    };
                    match TwoPhaseCoordinator::new(vec![
                        (pa.clone(), vec![ins.clone()]),
                        (pb.clone(), vec![ins]),
                    ])
                    .run_journaled(&journal, Some(&inj2), Some(&vclock2))?
                    {
                        TxOutcome::Committed => Ok(Sequence::empty()),
                        TxOutcome::Aborted(e) => Err(e),
                    }
                }),
            );

            let budget = Arc::new(
                Budget::with_clock(vclock.budget_clock())
                    .deadline_in(deadline)
                    .limit_fuel(fuel),
            );
            space.engine().set_budget(Some(budget));
            let _ = space.xqse().run(
                r#"
                declare namespace t = "urn:test";
                {
                  declare $i := 0;
                  while ($i lt 8) {
                    t:xaSubmit();
                    set $i := $i + 1;
                  }
                  return value $i;
                }
                "#,
            );
            space.engine().set_budget(None);

            let _ = space.recover();
            let (ra, rb) = (rows(&primary), rows(&backup));
            prop_assert_eq!(
                ra, rb,
                "partial apply (stall {}ms at {}/{}, deadline {}, fuel {})",
                stall, stall_source, stall_op, deadline, fuel
            );
            prop_assert!(ra <= 8);
            prop_assert!(!any_prepared(&space, &[&primary, &backup]));
            prop_assert!(space.journal().is_clean());
            let again = space.recover().unwrap();
            prop_assert!(again.is_noop(), "recovery not idempotent: {:?}", again);
        }
    }

    /// Count guard for the budget layer: use case 3's copy of
    /// `etl_space(500)` under a fully armed budget charges an exact
    /// number of evaluation steps and reads its clock an exact number
    /// of times per batch, with every evaluation layer on. The clock
    /// counts its reads and never advances, so nothing here depends on
    /// timing. A change that adds or drops an evaluation step, or a
    /// deadline check, on a copied row moves one of the two numbers.
    #[test]
    fn budget_steps_and_clock_reads_per_etl_batch_are_exact() {
        const ROWS: usize = 500;
        let f = xqse_bench::etl_space(ROWS as i64);
        f.space.engine().set_features(Features::ALL);
        let reads = Arc::new(AtomicU64::new(0));
        let counted = reads.clone();
        let clock: BudgetClock = Arc::new(move || {
            counted.fetch_add(1, Ordering::Relaxed);
            0
        });
        let copy_all = QName::with_ns("ld:Employees", "copyAllToEMP2");
        let mut batches = Vec::new();
        for _ in 0..3 {
            let held = f.dst.row_count("EMP2").unwrap();
            f.dst
                .execute(vec![WriteOp::Delete {
                    table: "EMP2".into(),
                    cond: vec![],
                    expect_rows: held,
                }])
                .unwrap();
            let budget = Arc::new(
                Budget::with_clock(clock.clone())
                    .deadline_in(3_600_000)
                    .limit_fuel(u64::MAX / 4),
            );
            reads.store(0, Ordering::Relaxed);
            f.space.engine().set_budget(Some(budget.clone()));
            let copied = f.space.xqse().call_procedure(&copy_all, Vec::new(), &mut Env::new());
            f.space.engine().set_budget(None);
            assert_eq!(copied.unwrap().string_value().unwrap(), ROWS.to_string());
            batches.push((budget.steps_taken(), reads.load(Ordering::Relaxed)));
        }
        println!("budget per etl batch (steps, clock reads): {batches:?}");
        assert_eq!(batches, vec![(15_003, 243); 3], "budget steps or clock reads moved");
    }

    /// Budget overhead guard for the no-limit serving path: running
    /// the same workload with a fully armed budget (real-time
    /// deadline far in the future + fuel ceiling) must stay within 5%
    /// of running with no budget installed. Ignored by default
    /// (wall-clock measurement); the sixth `scripts/check.sh` arm
    /// runs it warn-only.
    #[test]
    #[ignore = "wall-clock guard; run via scripts/check.sh arm 6"]
    fn budget_overhead_guard_under_5pct() {
        use std::time::Instant;

        const ITERS: usize = 300;
        let program = counting_loop(600);
        let run = |budgeted: bool| -> f64 {
            let space = DataSpace::new();
            if budgeted {
                let t0 = Instant::now();
                let clock: BudgetClock =
                    Arc::new(move || t0.elapsed().as_millis() as u64);
                space.engine().set_budget(Some(Arc::new(
                    Budget::with_clock(clock)
                        .deadline_in(3_600_000)
                        .limit_fuel(u64::MAX / 4),
                )));
            }
            let start = Instant::now();
            for _ in 0..ITERS {
                space.xqse().run(&program).unwrap();
            }
            let elapsed = start.elapsed().as_secs_f64();
            space.engine().set_budget(None);
            elapsed
        };

        let _ = (run(false), run(true)); // warm-up
        let plain = (0..3).map(|_| run(false)).fold(f64::MAX, f64::min);
        let budgeted = (0..3).map(|_| run(true)).fold(f64::MAX, f64::min);
        let overhead = (budgeted - plain) / plain * 100.0;
        println!(
            "budget overhead: plain={plain:.4}s budgeted={budgeted:.4}s \
             overhead={overhead:.2}%"
        );
        assert!(
            overhead < 5.0,
            "budget overhead {overhead:.2}% exceeds the 5% budget \
             (plain={plain:.4}s budgeted={budgeted:.4}s)"
        );
    }
}

// ---------------------------------------------------------------------------
// Zero-copy construction: grafted subtrees vs. the deep-copy baseline
// ---------------------------------------------------------------------------

mod graft {
    use super::*;
    use proptest::collection;
    use xqse_repro::xmlparse::{serialize, serialize_sequence};

    const CUS_NS: &[(&str, &str)] = &[("c", "ld:db1/CUSTOMER")];

    /// Build a constructor-heavy query from random parameters: each
    /// part declares a small tree and splices it into the output
    /// twice (the reuse is what a graft must share without aliasing),
    /// alongside a full source read whose cached rows come from a
    /// sealed arena.
    fn build_query(parts: &[(u8, u8)]) -> String {
        let mut lets = String::new();
        let mut uses = String::new();
        for (i, (w, t)) in parts.iter().enumerate() {
            let kids: String = (0..(w % 3) + 1)
                .map(|k| format!("<k{k}>t{t}</k{k}>"))
                .collect();
            lets.push_str(&format!("let $v{i} := <p{i} a=\"x{t}\">{kids}</p{i}> "));
            uses.push_str(&format!("{{ $v{i} }}{{ $v{i}/k0 }}{{ $v{i} }}"));
        }
        format!(
            "{lets}return <out><rows>{{ c:CUSTOMER() }}</rows>\
             <again>{{ c:CUSTOMER() }}</again><mix>{uses}</mix></out>"
        )
    }

    fn descendant_count(n: &xqse_repro::xdm::node::NodeHandle) -> usize {
        1 + n.children().iter().map(descendant_count).sum::<usize>()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Metamorphic equivalence: the same construction evaluated
        /// with zero-copy grafting on and with the deep-copy baseline
        /// must be observably identical — serialized bytes, typed
        /// string value, and tree shape — while the grafting engine
        /// actually grafts (the optimization is live, not skipped).
        #[test]
        fn grafted_and_copied_construction_agree(
            parts in collection::vec((0u8..3, 0u8..4), 1..5)
        ) {
            let query = build_query(&parts);
            let run = |graft: bool| {
                let d = demo::build(4, 2, 1).unwrap();
                let engine = d.space.engine();
                engine.set_features(Features { graft, ..engine.features() });
                let before = d.space.engine().opt_stats();
                let out = d.space.engine().eval_expr_str(&query, CUS_NS).unwrap();
                let stats = d.space.engine().opt_stats();
                (out, stats.subtrees_grafted - before.subtrees_grafted)
            };
            let (grafted, g_count) = run(true);
            let (copied, c_count) = run(false);
            prop_assert!(g_count > 0, "graft-on run must graft at least once");
            prop_assert_eq!(c_count, 0, "-graft run must never graft");
            prop_assert_eq!(
                serialize_sequence(&grafted),
                serialize_sequence(&copied),
                "serialized bytes must be mode-independent"
            );
            let (gn, cn) = (grafted.exactly_one().unwrap(), copied.exactly_one().unwrap());
            let (Item::Node(gn), Item::Node(cn)) = (gn, cn) else { panic!("node results") };
            prop_assert_eq!(gn.string_value(), cn.string_value());
            prop_assert_eq!(descendant_count(gn), descendant_count(cn));
            prop_assert!(gn.deep_equal(cn), "deep-equal across modes");
        }
    }

    /// Two splices of the same tree are distinct logical nodes: each
    /// graft view has its own identity, both parent into the host,
    /// and the trees compare deep-equal.
    #[test]
    fn repeated_splices_are_distinct_logical_nodes() {
        let d = demo::build(2, 1, 1).unwrap();
        d.space.engine().set_features(Features { graft: true, ..d.space.engine().features() });
        let out = d
            .space
            .engine()
            .eval_expr_str("let $x := <a><b>v</b></a> return <o>{$x}{$x}</o>", &[])
            .unwrap();
        let Item::Node(o) = out.exactly_one().unwrap().clone() else { panic!() };
        let kids = o.children();
        assert_eq!(kids.len(), 2);
        assert_ne!(kids[0], kids[1], "two splices are two logical nodes");
        assert!(kids[0].deep_equal(&kids[1]));
        assert_eq!(kids[0].parent().as_ref(), Some(&o));
        assert_eq!(kids[1].parent().as_ref(), Some(&o));
        assert_eq!(serialize(&o), "<o><a><b>v</b></a><a><b>v</b></a></o>");
    }

    /// A spliced variable keeps its own standalone identity: after the
    /// construction, the original is still parentless, in both modes.
    #[test]
    fn original_tree_stays_parentless_after_splice() {
        for graft in [true, false] {
            let d = demo::build(2, 1, 1).unwrap();
            let engine = d.space.engine();
            engine.set_features(Features { graft, ..engine.features() });
            let out = d
                .space
                .engine()
                .eval_expr_str(
                    "let $x := <a/> let $y := <o>{$x}</o> return $x/parent::node()",
                    &[],
                )
                .unwrap();
            assert!(out.is_empty(), "graft={graft}: original must stay parentless");
        }
    }

    /// Copy-on-write isolation: mutating a constructed tree that
    /// grafted a cached source row must not leak into the source
    /// cache — a later read serves the pristine bytes — while the
    /// mutation is visible in the constructed tree.
    #[test]
    fn mutating_grafted_result_leaves_source_cache_pristine() {
        let d = demo::build(3, 1, 1).unwrap();
        let engine = d.space.engine();
        engine.set_features(Features { graft: true, ..engine.features() });
        let baseline =
            serialize_sequence(&engine.eval_expr_str("c:CUSTOMER()", CUS_NS).unwrap());

        let out = engine
            .eval_expr_str("<wrap>{ c:CUSTOMER() }</wrap>", CUS_NS)
            .unwrap();
        let Item::Node(wrap) = out.exactly_one().unwrap().clone() else { panic!() };
        let before = engine.opt_stats();
        assert!(before.subtrees_grafted > 0, "cached rows must graft");

        // Mutate the first grafted row through the constructed tree.
        let row = wrap.children()[0].clone();
        let extra = xqse_repro::xdm::node::NodeHandle::new_element(
            row.arena(),
            QName::new("INJECTED"),
        );
        row.append_child(&extra).unwrap();
        assert!(
            serialize(&wrap).contains("<INJECTED/>"),
            "mutation visible through the host tree"
        );

        // The cache (and any other reader) still serves pristine rows.
        let after =
            serialize_sequence(&engine.eval_expr_str("c:CUSTOMER()", CUS_NS).unwrap());
        assert_eq!(baseline, after, "source cache corrupted by COW leak");
    }

    /// Pool soak: replies served by the engine-per-worker pool with
    /// grafting on are byte-identical to a single-engine deep-copy
    /// evaluation of the same reads.
    #[test]
    fn pool_replies_byte_identical_to_copy_baseline() {
        use xqse_repro::aldsp::pool::{drive_closed_loop, ServeArg, ServePool, ServeRequest, ServeSpec};
        use xqse_repro::aldsp::WebService;

        const CUSTOMERS: usize = 8;
        let d = demo::build(CUSTOMERS, 2, 1).unwrap();
        let (db1, db2) = (d.db1.clone(), d.db2.clone());
        let pool = ServePool::start(ServeSpec::new(4), move |_worker| {
            let space =
                demo::assemble(&db1, &db2, WebService::credit_rating(demo::CREDIT_TYPES_NS));
            // Force grafting on so the engagement assert below holds even
            // when the suite runs under XQSE_FEATURES=-graft (a check.sh
            // arm); the copy oracle below is env-independent.
            if let Ok(s) = &space {
                s.engine().set_features(Features { graft: true, ..s.engine().features() });
            }
            space
        });
        let reqs: Vec<ServeRequest> = (1..=CUSTOMERS)
            .cycle()
            .take(CUSTOMERS * 3)
            .map(|cid| ServeRequest::Get {
                service: "CustomerProfile".into(),
                method: "getProfileById".into(),
                args: vec![ServeArg::Str(cid.to_string())],
            })
            .collect();
        let (replies, _) = drive_closed_loop(&pool, &reqs, 4);
        let report = pool.shutdown();
        assert!(
            report.stats.subtrees_grafted > 0,
            "pool workers must graft: {:?}",
            report.stats
        );

        // Deep-copy oracle on a private engine.
        d.space.engine().set_features(Features { graft: false, ..d.space.engine().features() });
        for (i, reply) in replies.iter().enumerate() {
            let cid = (i % CUSTOMERS) + 1;
            let got = reply.result.as_ref().unwrap();
            let graph = d
                .space
                .get(
                    "CustomerProfile",
                    "getProfileById",
                    vec![Sequence::one(Item::string(cid.to_string()))],
                )
                .unwrap();
            let want = serialize_sequence(graph.instances());
            assert_eq!(got, &want, "reply {i} (cid {cid}) diverged from copy baseline");
        }
    }
}
