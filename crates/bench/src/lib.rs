//! Shared workloads and helpers for the constructed evaluation.
//!
//! The paper has no quantitative evaluation section; every experiment
//! here is derived from a specific claim or listing (see DESIGN.md §4
//! for the per-experiment index, and EXPERIMENTS.md for measured
//! results). This crate provides the workload builders used by the
//! table-printing harness (`src/bin/exptab.rs`) and by `perfbench/`.


use std::time::Instant;

use aldsp::rel::{Column, ColumnType, Database, SqlValue, TableSchema};
use aldsp::service::DataSpace;
use xdm::qname::QName;
use xdm::sequence::Sequence;
use xqeval::Env;

pub use aldsp::demo;

/// The E14 read workload: `requests` `getProfileById` requests cycling
/// through customers `1..=customers`. Against the delayed credit-rating
/// service (response cache off) each request makes one round trip to
/// the source: the view-unfold operator builds only the requested
/// profile, and a fresh `Env` per request keeps the per-evaluation
/// memo from answering a repeated customer.
pub fn serve_profile_requests(customers: usize, requests: usize) -> Vec<aldsp::pool::ServeRequest> {
    let customers = customers.max(1);
    (0..requests.max(1))
        .map(|i| aldsp::pool::ServeRequest::Get {
            service: "CustomerProfile".to_string(),
            method: "getProfileById".to_string(),
            args: vec![aldsp::pool::ServeArg::Str((i % customers + 1).to_string())],
        })
        .collect()
}

/// Queries per second from a request count and an elapsed duration.
pub fn qps(requests: usize, elapsed: std::time::Duration) -> f64 {
    requests as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Time a closure, returning (result, seconds).
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median-of-`n` timing of a closure (fresh invocation each round).
pub fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    median((0..n.max(1)).map(|_| secs_with(|| (), |()| f())).collect())
}

/// Seconds `f` takes on a fresh input: `setup` builds the input before
/// the timer starts, and the input is dropped after it stops, so
/// neither is timed.
pub fn secs_with<S>(setup: impl FnOnce() -> S, f: impl FnOnce(&S)) -> f64 {
    let input = setup();
    let t = Instant::now();
    f(&input);
    t.elapsed().as_secs_f64()
}

/// [`secs_with`] in the calling thread's CPU time
/// ([`thread_cpu_secs`]): for single-threaded work that never blocks,
/// the elapsed time minus the time the host took away.
pub fn cpu_secs_with<S>(setup: impl FnOnce() -> S, f: impl FnOnce(&S)) -> f64 {
    let input = setup();
    let t = thread_cpu_secs();
    f(&input);
    thread_cpu_secs() - t
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used so far (seconds). Time the
/// thread spends preempted, by another process or by the hypervisor,
/// does not count.
pub fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The median of `samples` (the upper middle one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

/// Pretty table row printing for the exptab harness.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

// ---------------------------------------------------------------------
// E2: management chain (use case 2)
// ---------------------------------------------------------------------

/// Build an HR dataspace with a management chain of the given depth:
/// employee `i` is managed by `i+1`; the top employee has no manager.
pub fn mgmt_space(depth: usize) -> DataSpace {
    let db = Database::new("hr");
    db.create_table(TableSchema {
        name: "EMPLOYEE".into(),
        columns: vec![
            Column::required("EmployeeID", ColumnType::Integer),
            Column::required("Name", ColumnType::Varchar),
            Column::nullable("ManagerID", ColumnType::Integer),
        ],
        primary_key: vec!["EmployeeID".into()],
        foreign_keys: vec![],
    })
    .expect("schema");
    for i in 0..=depth as i64 {
        db.insert(
            "EMPLOYEE",
            vec![
                SqlValue::Int(i),
                SqlValue::Str(format!("emp{i}")),
                if i == depth as i64 { SqlValue::Null } else { SqlValue::Int(i + 1) },
            ],
        )
        .expect("insert");
    }
    let space = DataSpace::new();
    space.register_relational_source(&db).expect("introspect");
    space
        .xqse()
        .load(
            r#"
declare namespace tns = "ld:Employees";
declare namespace ens1 = "ld:hr/EMPLOYEE";
declare xqse function tns:getManagementChain($id as xs:string)
  as element(EMPLOYEE)*
{
  declare $mgrs as element(EMPLOYEE)* := ();
  declare $emp as element(EMPLOYEE)? := ens1:getByEmployeeID($id);
  while (fn:not(fn:empty($emp))) {
    set $emp := ens1:getByEmployeeID($emp/ManagerID);
    set $mgrs := ($mgrs, $emp);
  }
  return value ($mgrs);
};
(: the declarative baseline: recursive XQuery :)
declare function tns:chainRecursive($id as xs:string)
  as element(EMPLOYEE)*
{
  for $m in ens1:getByEmployeeID(fn:data(ens1:getByEmployeeID($id)/ManagerID))
  return ($m, tns:chainRecursive(fn:data($m/EmployeeID)))
};
"#,
        )
        .expect("load");
    space
}

/// Run the XQSE while-loop chain; returns chain length.
pub fn mgmt_chain_xqse(space: &DataSpace) -> usize {
    let out = space
        .engine()
        .eval_expr_str(
            "fn:count(tns:getManagementChain('0'))",
            &[("tns", "ld:Employees")],
        )
        .expect("chain");
    out.string_value().expect("len").parse().expect("count")
}

/// Run the recursive-XQuery baseline; returns chain length.
pub fn mgmt_chain_recursive(space: &DataSpace) -> usize {
    let out = space
        .engine()
        .eval_expr_str(
            "fn:count(tns:chainRecursive('0'))",
            &[("tns", "ld:Employees")],
        )
        .expect("chain");
    out.string_value().expect("len").parse().expect("count")
}

/// The native-Rust baseline: walk the same table directly.
pub fn mgmt_chain_native(db: &Database) -> usize {
    let mut count = 0usize;
    let mut id = 0i64;
    loop {
        let rows = db
            .select("EMPLOYEE", &vec![("EmployeeID".into(), SqlValue::Int(id))])
            .expect("select");
        let Some(row) = rows.first() else { break };
        match &row[2] {
            SqlValue::Int(m) => {
                id = *m;
                count += 1;
            }
            _ => break,
        }
    }
    count
}

// ---------------------------------------------------------------------
// E3: ETL lite (use case 3)
// ---------------------------------------------------------------------

/// Source/target pair + the paper's copy procedure, with `rows`
/// employees in the source.
pub struct EtlFixture {
    /// The dataspace.
    pub space: DataSpace,
    /// Source database.
    pub src: Database,
    /// Target database.
    pub dst: Database,
}

/// Build the ETL fixture.
pub fn etl_space(rows: i64) -> EtlFixture {
    let src = Database::new("hr");
    src.create_table(TableSchema {
        name: "EMPLOYEE".into(),
        columns: vec![
            Column::required("EmployeeID", ColumnType::Integer),
            Column::required("Name", ColumnType::Varchar),
            Column::nullable("DeptNo", ColumnType::Varchar),
            Column::nullable("ManagerID", ColumnType::Integer),
        ],
        primary_key: vec!["EmployeeID".into()],
        foreign_keys: vec![],
    })
    .expect("schema");
    for i in 1..=rows {
        src.insert(
            "EMPLOYEE",
            vec![
                SqlValue::Int(i),
                SqlValue::Str(format!("First{i} Last{i}")),
                SqlValue::Str(format!("D{}", i % 7)),
                if i == 1 { SqlValue::Null } else { SqlValue::Int(1) },
            ],
        )
        .expect("insert");
    }
    let dst = Database::new("backup");
    dst.create_table(TableSchema {
        name: "EMP2".into(),
        columns: vec![
            Column::required("EmpId", ColumnType::Integer),
            Column::nullable("FirstName", ColumnType::Varchar),
            Column::nullable("LastName", ColumnType::Varchar),
            Column::nullable("MgrName", ColumnType::Varchar),
            Column::nullable("Dept", ColumnType::Varchar),
        ],
        primary_key: vec!["EmpId".into()],
        foreign_keys: vec![],
    })
    .expect("schema");
    let space = DataSpace::new();
    space.register_relational_source(&src).expect("introspect");
    space.register_relational_source(&dst).expect("introspect");
    space
        .xqse()
        .load(
            r#"
declare namespace tns = "ld:Employees";
declare namespace ens1 = "ld:hr/EMPLOYEE";
declare namespace emp2 = "ld:backup/EMP2";
declare function tns:transformToEMP2($emp as element(EMPLOYEE)?)
  as element(EMP2)?
{
  for $emp1 in $emp return <EMP2>
    <EmpId>{fn:data($emp1/EmployeeID)}</EmpId>
    <FirstName>{fn:tokenize(fn:data($emp1/Name),' ')[1]}</FirstName>
    <LastName>{fn:tokenize(fn:data($emp1/Name),' ')[2]}</LastName>
    <MgrName>{fn:data(ens1:getByEmployeeID($emp1/ManagerID)/Name)}</MgrName>
    <Dept>{fn:data($emp1/DeptNo)}</Dept>
  </EMP2>
};
declare procedure tns:copyAllToEMP2() as xs:integer
{
  declare $backupCnt as xs:integer := 0;
  declare $emp2 as element(EMP2)?;
  iterate $emp1 over ens1:EMPLOYEE() {
    set $emp2 := tns:transformToEMP2($emp1);
    emp2:createEMP2($emp2);
    set $backupCnt := $backupCnt + 1;
  }
  return value ($backupCnt);
};
"#,
        )
        .expect("load");
    EtlFixture { space, src, dst }
}

/// Run the XQSE copy procedure; returns the copied-row count.
pub fn etl_run_xqse(f: &EtlFixture) -> i64 {
    let mut env = Env::new();
    let out = f
        .space
        .xqse()
        .call_procedure(
            &QName::with_ns("ld:Employees", "copyAllToEMP2"),
            Vec::<Sequence>::new(),
            &mut env,
        )
        .expect("copy");
    out.string_value().expect("count").parse().expect("int")
}

/// The "Java update override" baseline: the same ETL written natively
/// against the source APIs (what ALDSP 2.5 customers wrote).
pub fn etl_run_native(f: &EtlFixture) -> i64 {
    let rows = f.src.scan("EMPLOYEE").expect("scan");
    // The manager lookup the transform performs per row.
    let boss = f
        .src
        .select("EMPLOYEE", &vec![("EmployeeID".into(), SqlValue::Int(1))])
        .expect("select");
    let boss_name = boss
        .first()
        .map(|r| r[1].lexical())
        .unwrap_or_default();
    let mut n = 0i64;
    for row in rows {
        let id = match row[0] {
            SqlValue::Int(i) => i,
            _ => continue,
        };
        let name = row[1].lexical();
        let mut parts = name.splitn(2, ' ');
        let first = parts.next().unwrap_or("").to_string();
        let last = parts.next().unwrap_or("").to_string();
        let mgr = match &row[3] {
            SqlValue::Int(m) => {
                if *m == 1 {
                    boss_name.clone()
                } else {
                    let r = f
                        .src
                        .select("EMPLOYEE", &vec![("EmployeeID".into(), SqlValue::Int(*m))])
                        .expect("select");
                    r.first().map(|x| x[1].lexical()).unwrap_or_default()
                }
            }
            _ => String::new(),
        };
        f.dst
            .insert(
                "EMP2",
                vec![
                    SqlValue::Int(id),
                    SqlValue::Str(first),
                    SqlValue::Str(last),
                    SqlValue::Str(mgr),
                    row[2].clone(),
                ],
            )
            .expect("insert");
        n += 1;
    }
    n
}

// ---------------------------------------------------------------------
// E4: replicating create (use case 4)
// ---------------------------------------------------------------------

/// Primary + backup sources with the paper's replicating create
/// procedure loaded.
pub struct ReplicateFixture {
    /// Dataspace.
    pub space: DataSpace,
    /// Primary source.
    pub primary: Database,
    /// Backup source.
    pub backup: Database,
}

/// Build the replication fixture; `with_handlers` controls whether the
/// procedure wraps each create in try/catch (for overhead measurement).
pub fn replicate_space(with_handlers: bool) -> ReplicateFixture {
    let schema = |t: &str| TableSchema {
        name: t.into(),
        columns: vec![
            Column::required("EmployeeID", ColumnType::Integer),
            Column::required("Name", ColumnType::Varchar),
        ],
        primary_key: vec!["EmployeeID".into()],
        foreign_keys: vec![],
    };
    let primary = Database::new("primary");
    primary.create_table(schema("EMPLOYEE")).expect("schema");
    let backup = Database::new("backup");
    backup.create_table(schema("EMPLOYEE")).expect("schema");
    let space = DataSpace::new();
    space.register_relational_source(&primary).expect("introspect");
    space.register_relational_source(&backup).expect("introspect");
    let src = if with_handlers {
        r#"
declare namespace tns = "ld:Rep";
declare namespace p = "ld:primary/EMPLOYEE";
declare namespace b = "ld:backup/EMPLOYEE";
declare procedure tns:create($newEmps as element(EMPLOYEE)*) as xs:integer
{
  declare $n := 0;
  iterate $newEmp over $newEmps {
    try { p:createEMPLOYEE($newEmp); }
    catch (* into $err, $msg) {
      fn:error(xs:QName("PRIMARY_CREATE_FAILURE"),
        fn:concat("Primary create failed due to: ", $err, $msg));
    };
    try { b:createEMPLOYEE($newEmp); }
    catch (* into $err, $msg) {
      fn:error(xs:QName("SECONDARY_CREATE_FAILURE"),
        fn:concat("Backup create failed due to: ", $err, $msg));
    };
    set $n := $n + 1;
  }
  return value $n;
};
"#
    } else {
        r#"
declare namespace tns = "ld:Rep";
declare namespace p = "ld:primary/EMPLOYEE";
declare namespace b = "ld:backup/EMPLOYEE";
declare procedure tns:create($newEmps as element(EMPLOYEE)*) as xs:integer
{
  declare $n := 0;
  iterate $newEmp over $newEmps {
    p:createEMPLOYEE($newEmp);
    b:createEMPLOYEE($newEmp);
    set $n := $n + 1;
  }
  return value $n;
};
"#
    };
    space.xqse().load(src).expect("load");
    ReplicateFixture { space, primary, backup }
}

/// A batch of employee elements `[start, start+n)`.
pub fn employee_batch(start: i64, n: i64) -> Sequence {
    let mut seq = Sequence::empty();
    for i in start..start + n {
        let xml =
            format!("<EMPLOYEE><EmployeeID>{i}</EmployeeID><Name>emp{i}</Name></EMPLOYEE>");
        let doc = xmlparse::parse(&xml).expect("xml");
        seq.push(xdm::sequence::Item::Node(doc.children()[0].clone()));
    }
    seq
}

/// Run the replicating create over a batch; returns Ok(created) or the
/// wrapped error code's local name.
pub fn replicate_run(f: &ReplicateFixture, batch: Sequence) -> Result<i64, String> {
    let mut env = Env::new();
    match f.space.xqse().call_procedure(
        &QName::with_ns("ld:Rep", "create"),
        vec![batch],
        &mut env,
    ) {
        Ok(v) => Ok(v.string_value().unwrap_or_default().parse().unwrap_or(0)),
        Err(e) => Err(e.code.local.to_string()),
    }
}

// ---------------------------------------------------------------------
// E7: XQSE vs XQueryP sequential mode
// ---------------------------------------------------------------------

/// A join-heavy read over the demo dataspace executed as an XQSE
/// program (statement wrapper, declarative core stays optimizable).
pub const XQSE_JOIN_PROGRAM: &str = r#"
declare namespace cus = "ld:db1/CUSTOMER";
declare namespace cre = "ld:db2/CREDIT_CARD";
{
  declare $total := 0;
  declare $matches :=
    for $c in cus:CUSTOMER()
    return fn:count(for $k in cre:CREDIT_CARD()
                    where $c/CID eq $k/CID
                    return $k);
  iterate $m over $matches {
    set $total := $total + $m;
  }
  return value $total;
}
"#;

/// Run the join program under XQSE (optimizations on).
pub fn join_program_xqse(space: &DataSpace) -> i64 {
    let result = space.xqse().run(XQSE_JOIN_PROGRAM).expect("run");
    result.string_value().expect("total").parse().expect("int")
}

/// Run the same program under XQueryP sequential mode (strict order,
/// optimizations off for the whole program).
pub fn join_program_xqueryp(space: &DataSpace) -> i64 {
    let xp = xqse::xqueryp::XqueryP::with_engine(space.xqse().engine_rc());
    let result = xp.run(XQSE_JOIN_PROGRAM).expect("run");
    result.string_value().expect("total").parse().expect("int")
}
