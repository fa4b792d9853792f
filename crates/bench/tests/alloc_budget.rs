//! Allocation budgets for one row of use case 3's copy (`copyAllToEMP2`),
//! for one page of the benchmark's paged department read, for the bytes
//! one cached row tree keeps, and for the values every row passes
//! around: the empty and singleton sequences and a text-only element's
//! typed value, which allocate nothing.
//!
//! A counting global allocator tallies the heap allocations the test
//! thread makes while one warm `etl_space(1000)` batch is copied into
//! an empty target, or while one warm page is read, and each test
//! asserts its count stays within its budget. It also tracks the bytes
//! the thread holds, so a test can read what a materialized row keeps.
//! The counts are deterministic — the same from run to run, and the
//! same in debug and release builds — so unlike a timing they can gate
//! CI. They print the counts:
//!
//! ```text
//! cargo test --offline -p xqse-bench --test alloc_budget -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use aldsp::rel::WriteOp;
use aldsp::xmlmap::rows_to_sequence;
use xdm::node::NodeHandle;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};
use xmlparse::serialize_sequence;
use xqeval::{Env, Features};
use xqse_bench::{etl_run_xqse, etl_space, EtlFixture};

/// Counts every allocation (and growing reallocation) made on the
/// calling thread, and the bytes it holds; the test harness's own
/// threads do not disturb either.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Book one allocation of `grow` bytes (negative: bytes freed).
fn book(allocs: u64, grow: i64) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE.try_with(|c| c.set(c.get() + grow));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is thread-local counter updates, which do not allocate
// (`const` initialisation, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: i64 = 1000;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
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
    let writes = xdm::sealed_writes();
    // Warm: the table→XDM tree, the keyed-select cache and the plan
    // state are built by the first batch and reused by the others.
    batch_allocations(&f);
    let first = batch_allocations(&f);
    let second = batch_allocations(&f);
    assert_eq!(first, second, "the count must repeat from batch to batch");
    // A write to a sealed arena would make every cache miss at its next
    // lookup, the `getByEmployeeID` hit each row takes among them.
    assert_eq!(xdm::sealed_writes(), writes, "the batches wrote a sealed arena");
    let per_row = first as f64 / ROWS as f64;
    println!("alloc_budget: {per_row:.2} allocations per copied row ({first} per {ROWS} rows)");
    assert!(per_row <= BUDGET, "{per_row:.2} allocations per row exceeds the budget of {BUDGET}");
}

/// The per-row count measured on this code (11.01), plus 5 %. The
/// eleven are what a row keeps or hands on: four VARCHAR strings,
/// `<EMP2>`'s arena (two) and its child list, two tokens, the row and
/// the stage's appended row. A row made 14.01 while `create<T>` built
/// the key element (three) its statement discards; 26.01 while a call built its arguments into `Vec`s, a lone
/// `for` built a plan and a tuple, `create<T>` wrapped its insert in
/// a `Vec` of ops naming its table, with handle and guard `Vec`s, and
/// `xml_to_row` collected the row element's children; 28.01 while an
/// insert's write set listed its table names apart
/// from their shard handles and claimed its primary key in a `Vec`; and
/// 59.00 while constructors grew their arenas and child lists one
/// push at a time, every one-child element kept its child in a `Vec`,
/// builtins took their arguments in a `Vec`, each `fn:tokenize(…)[k]`
/// made its whole token list and `getBy<PK>` rendered its key and
/// cache key again; and 167.98 while string values copied their text,
/// singleton sequences were boxed and an auto-commit write validated
/// and applied in two passes.
const BUDGET: f64 = 11.56;

/// A page of 20 rows of department `D3` of `etl_space(5000)` (714 rows)
/// starting at its row `start`: the benchmark's `page_query` text. The
/// department select is pushed down, its key is exact, and the window
/// passes over the rows before the page without binding them.
fn page(start: usize) -> String {
    format!(
        "declare namespace ens1 = \"ld:hr/EMPLOYEE\";\n\
         fn:subsequence(for $e in ens1:EMPLOYEE() where $e/DeptNo eq 'D3' \
         return <row><id>{{fn:data($e/EmployeeID)}}</id><name>{{fn:data($e/Name)}}</name></row>, \
         {start}, 20)"
    )
}

/// The first page, the page centred in the department and its last 20
/// rows.
const PAGE_STARTS: [usize; 3] = [1, 341, 695];

#[test]
fn page_allocations_stay_within_budget() {
    let f = etl_space(5000);
    let engine = f.space.engine();
    engine.set_features(Features::ALL);
    let writes = xdm::sealed_writes();
    let read = |text: &str| {
        let before = allocations();
        let out = f.space.xqse().run_with_env(text, &mut Env::new()).expect("page");
        assert_eq!(out.len(), 20);
        allocations() - before
    };
    // Warm: the plan, the table's index and its keyed-select entry for
    // `D3` are built by the first read and reused by the others. The
    // plan is prepared from a page none of the measured ones is, so each
    // is read through a new text of a cached shape: lexed, not parsed,
    // and run with its own offset.
    read(&page(2));
    let [first, centred, last] = PAGE_STARTS.map(|start| {
        let text = page(start);
        read(&text);
        let n = read(&text);
        assert_eq!(n, read(&text), "the count must repeat from page to page");
        n
    });
    assert_eq!(engine.opt_stats().plan_misses, 1, "the pages are one shape");
    assert_eq!(xdm::sealed_writes(), writes, "the pages wrote a sealed arena");
    println!("alloc_budget: {centred} allocations per centred page");
    println!("alloc_budget: {first}/{centred}/{last} allocations per first/centred/last page");
    assert!(centred <= PAGE_BUDGET, "{centred} allocations per page; the budget is {PAGE_BUDGET}");
    let (lo, hi) = (first.min(centred).min(last), first.max(centred).max(last));
    assert!(
        hi * 100 <= lo * 101,
        "a page's allocations must not grow with its offset: \
         first {first}, centred {centred}, last {last}"
    );
}

/// The per-page count measured on this code (95), plus 5 %: a page read
/// through a new text of a cached shape, which builds its two literal
/// values (the slot list and `'D3'`) where a text cached as is built
/// none. It was 104 while every plan copied its source's column names
/// twice and passing over a window's first candidate bound it, and
/// 105 while variables were bound by name in a stack of scopes. With
/// constructors grown one push at a time and one-child elements holding
/// a `Vec`, a centred page made 207; with copied string values and
/// boxed singleton sequences, 577; one that bound each pushed-down row before its start made
/// 1,594 (the last 2,656); one whose rows were each re-checked against
/// the `where` made 6,274.
const PAGE_BUDGET: u64 = 99;

/// Serializing the centred page's reply writes each row straight into
/// the output as it walks it: its count is one walk stack per row plus
/// the output's growth.
#[test]
fn page_serialization_allocations_stay_within_budget() {
    let f = etl_space(5000);
    f.space.engine().set_features(Features::ALL);
    let out = f.space.xqse().run_with_env(&page(PAGE_STARTS[1]), &mut Env::new()).expect("page");
    let serialize = || {
        let before = allocations();
        let bytes = serialize_sequence(&out).len();
        (allocations() - before, bytes)
    };
    let (n, bytes) = serialize();
    assert_eq!(serialize().0, n, "the count must repeat");
    println!("alloc_budget: {n} allocations to serialize the centred page ({bytes} bytes)");
    assert!(n <= SERIALIZE_BUDGET, "{n} allocations per reply; the budget is {SERIALIZE_BUDGET}");
}

/// The count measured on this code (30: a walk stack for each of the
/// 20 rows and the output's growth), plus 5 %. A serializer that
/// collected each element's children into a `Vec` and built a `String`
/// for every name, attribute and text made 209.
const SERIALIZE_BUDGET: u64 = 31;

#[test]
fn cached_row_bytes_stay_within_budget() {
    let f = etl_space(ROWS);
    let schema = f.src.schema("EMPLOYEE").expect("EMPLOYEE exists");
    let rows = f.src.scan("EMPLOYEE").expect("scan");
    let ns = "ld:hr/EMPLOYEE";
    // Warm: the first build interns the table's names.
    drop(rows_to_sequence(&schema, ns, &rows));
    let before = live_bytes();
    let trees = rows_to_sequence(&schema, ns, &rows);
    let kept = live_bytes() - before;
    assert_eq!(trees.len(), rows.len());
    drop(trees);
    assert_eq!(live_bytes(), before, "dropping the trees frees what they kept");
    let per_row = kept as f64 / rows.len() as f64;
    println!("alloc_budget: {per_row:.1} bytes kept per cached row ({kept} per {ROWS} rows)");
    assert!(per_row <= ROW_BYTES, "{per_row:.1} bytes per cached row; the budget is {ROW_BYTES}");
}

/// The bytes per `EMPLOYEE` row measured on this code (879.9), plus
/// 5 %: a row of four non-null columns is nine 64-byte node slots in an
/// arena of exactly nine, the row element has room for exactly its
/// four children, and each column element holds its one text child
/// inline. With a one-entry `Vec` per column element a row kept 943.9;
/// with arenas and child lists grown entry by entry, in 128-byte
/// slots, 2,622.9.
const ROW_BYTES: f64 = 923.9;

#[test]
fn row_values_allocate_nothing() {
    let count = |f: &dyn Fn()| {
        let before = allocations();
        f();
        allocations() - before
    };
    let e = NodeHandle::root_element(QName::new("e"));
    e.append_child(&NodeHandle::new_text(e.arena(), "abc")).expect("text under element");
    // Warm: the first typed value settles anything built lazily.
    drop(e.typed_value());
    let counts = [
        count(&|| drop(black_box(Sequence::empty()))),
        count(&|| drop(black_box(Sequence::one(Item::integer(1))))),
        count(&|| drop(black_box(e.typed_value()))),
    ];
    println!("alloc_budget: {counts:?} allocations per empty sequence, singleton, typed value");
    assert_eq!(
        counts,
        [0, 0, 0],
        "the empty sequence, a singleton and the typed value of <e>abc</e> allocate nothing"
    );
}

/// Allocations per item of `count(for $i in 1 to 1000 return E)`, over
/// a warm plan on its own engine.
fn per_item(prolog: &str, item: &str) -> f64 {
    const ITEMS: u64 = 1000;
    let engine = xqeval::Engine::new();
    engine.set_features(Features::ALL);
    let text = format!("{prolog}count(for $i in 1 to {ITEMS} return {item})");
    let run = || {
        let before = allocations();
        let out = engine.eval_query(&text).expect("query runs");
        assert_eq!(out.string_value().expect("a count"), ITEMS.to_string());
        allocations() - before
    };
    run();
    let n = run();
    assert_eq!(n, run(), "the count must repeat from run to run");
    n as f64 / ITEMS as f64
}

/// What a constructor's template and the prolog fix costs nothing per
/// item: literal text is shared with the text node built from it, a
/// literal attribute value and a namespace declaration cost at most the
/// element's one extra record between them, and a global variable is
/// read as a local one is, without building the error an unbound local
/// name once made.
#[test]
fn template_and_prolog_values_cost_no_allocation_per_item() {
    let text_expr = per_item("", "<a>{'x'}</a>");
    let text_literal = per_item("", "<a>x</a>");
    let empty = per_item("", "<a/>");
    let attr = per_item("", "<a b='x'/>");
    let ns = per_item("", "<a xmlns:p='urn:p'/>");
    let local = per_item("", "$i");
    let global = per_item("declare variable $g := 1; ", "$g");
    println!(
        "alloc_budget: per item: <a>{{'x'}}</a> {text_expr:.2}, <a>x</a> {text_literal:.2}, \
         <a/> {empty:.2}, <a b='x'/> {attr:.2}, <a xmlns:p='urn:p'/> {ns:.2}, \
         $i {local:.2}, $g {global:.2}"
    );
    assert_eq!(text_literal, text_expr, "literal text must allocate what an enclosed literal does");
    assert!(attr <= empty + 1.0, "a literal attribute costs at most the element's extra record");
    assert!(ns <= empty + 1.0, "a namespace declaration costs at most the element's extra record");
    assert_eq!(global, local, "a global variable must allocate what a local one does");
}
