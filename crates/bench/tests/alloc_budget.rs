//! Allocation budgets for one row of use case 3's copy (`copyAllToEMP2`)
//! and for one page of the benchmark's paged department read.
//!
//! A counting global allocator tallies the heap allocations the test
//! thread makes while one warm `etl_space(1000)` batch is copied into
//! an empty target, or while one warm page is read, and each test
//! asserts its count stays within its budget. The counts are
//! deterministic — the same from run to run, and the same in debug and
//! release builds — so unlike a timing they can gate CI. They print
//! the counts:
//!
//! ```text
//! cargo test --offline -p xqse-bench --test alloc_budget -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aldsp::rel::WriteOp;
use xqeval::{Env, Features};
use xqse_bench::{etl_run_xqse, etl_space, EtlFixture};

/// Counts every allocation (and growing reallocation) made on the
/// calling thread; the test harness's own threads do not disturb it.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is a thread-local counter bump, which does not allocate
// (`const` initialisation, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: i64 = 1000;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Empty `EMP2` so every batch copies into the same state.
fn empty_target(f: &EtlFixture) {
    let n = f.dst.row_count("EMP2").expect("EMP2 exists");
    f.dst
        .execute(vec![WriteOp::Delete { table: "EMP2".into(), cond: vec![], expect_rows: n }])
        .expect("empty EMP2");
}

/// Allocations made by one copy batch into an empty target.
fn batch_allocations(f: &EtlFixture) -> u64 {
    empty_target(f);
    let before = allocations();
    assert_eq!(etl_run_xqse(f), ROWS);
    allocations() - before
}

#[test]
fn etl_row_allocations_stay_within_budget() {
    let f = etl_space(ROWS);
    f.space.engine().set_features(Features::ALL);
    // Warm: the table→XDM tree, the keyed-select cache and the plan
    // state are built by the first batch and reused by the others.
    batch_allocations(&f);
    let first = batch_allocations(&f);
    let second = batch_allocations(&f);
    assert_eq!(first, second, "the count must repeat from batch to batch");
    let per_row = first as f64 / ROWS as f64;
    println!("alloc_budget: {per_row:.2} allocations per copied row ({first} per {ROWS} rows)");
    assert!(per_row <= BUDGET, "{per_row:.2} allocations per row exceeds the budget of {BUDGET}");
}

/// The per-row count measured on this code (167.98), plus 5 %.
const BUDGET: f64 = 176.4;

/// A page of 20 rows of department `D3` (~714 rows of `etl_space(5000)`)
/// starting at row 341, centred in the department: the benchmark's
/// `page_query` text. The department select is pushed down, and the
/// window passes over the 340 rows before the page without building
/// them.
const PAGE: &str = "declare namespace ens1 = \"ld:hr/EMPLOYEE\";\n\
    fn:subsequence(for $e in ens1:EMPLOYEE() where $e/DeptNo eq 'D3' \
    return <row><id>{fn:data($e/EmployeeID)}</id><name>{fn:data($e/Name)}</name></row>, \
    341, 20)";

#[test]
fn page_allocations_stay_within_budget() {
    let f = etl_space(5000);
    f.space.engine().set_features(Features::ALL);
    let page = || {
        let before = allocations();
        let out = f.space.xqse().run_with_env(PAGE, &mut Env::new()).expect("page");
        assert_eq!(out.len(), 20);
        allocations() - before
    };
    // Warm: the plan, the table's index and its keyed-select entry for
    // `D3` are built by the first page and reused by the others.
    page();
    let first = page();
    let second = page();
    assert_eq!(first, second, "the count must repeat from page to page");
    println!("alloc_budget: {first} allocations per centred page");
    assert!(first <= PAGE_BUDGET, "{first} allocations per page; the budget is {PAGE_BUDGET}");
}

/// The per-page count measured on this code (1,594), plus 5 %. A page
/// whose pushed-down rows were each re-checked against the `where`
/// made 6,274.
const PAGE_BUDGET: u64 = 1673;
