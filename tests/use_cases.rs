//! Integration tests: the paper's four §III.D use cases executed
//! against the full platform stack through the workspace's public API.


use xqse_repro::aldsp::rel::{Column, ColumnType, Database, SqlValue, TableSchema};
use xqse_repro::aldsp::service::DataSpace;
use xqse_repro::xdm::qname::QName;
use xqse_repro::xdm::sequence::{Item, Sequence};
use xqse_repro::xqeval::{Env, Features};

/// Evaluate `src` twice through the statement engine and assert the
/// second evaluation re-executed the cached prepared plan instead of
/// re-parsing (the PR 4 observability counters).
fn assert_plan_cache_round_trip(space: &DataSpace, src: &str) {
    let eng = space.engine();
    // Pin the layer on: CI re-runs this suite under reduced feature
    // sets.
    eng.set_features(Features { opt: true, batch: true, ..eng.features() });
    eng.reset_opt_stats();
    let mut env = Env::new();
    let a = space.xqse().run_with_env(src, &mut env).unwrap();
    let b = space.xqse().run_with_env(src, &mut env).unwrap();
    assert_eq!(
        a.iter().map(|i| i.string_value()).collect::<Vec<_>>(),
        b.iter().map(|i| i.string_value()).collect::<Vec<_>>(),
        "cached plan must produce the same result"
    );
    let s = eng.opt_stats();
    assert_eq!(s.plan_misses, 1, "first evaluation compiled the plan");
    assert_eq!(s.plan_hits, 1, "second evaluation reused it");
}

fn employees(n: i64) -> Database {
    let db = Database::new("hr");
    db.create_table(TableSchema {
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
    .unwrap();
    for i in 1..=n {
        db.insert(
            "EMPLOYEE",
            vec![
                SqlValue::Int(i),
                SqlValue::Str(format!("First{i} Last{i}")),
                SqlValue::Str(format!("D{}", i % 3)),
                if i == 1 { SqlValue::Null } else { SqlValue::Int(i / 2) },
            ],
        )
        .unwrap();
    }
    db
}

/// Use case 1: user-defined update — delete an employee by ID alone,
/// wrapping the generated default delete.
#[test]
fn use_case_1_delete_by_id() {
    let db = employees(10);
    let space = DataSpace::new();
    space.register_relational_source(&db).unwrap();
    space
        .xqse()
        .load(
            r#"
declare namespace tns = "urn:tns";
declare namespace ens1 = "ld:hr/EMPLOYEE";
declare procedure tns:deleteByEmployeeID($id as xs:string) as empty-sequence()
{
  declare $emp := ens1:getByEmployeeID($id);
  if (fn:not(fn:empty($emp))) then ens1:deleteEMPLOYEE($emp);
};
"#,
        )
        .unwrap();
    let mut env = Env::new();
    space
        .xqse()
        .call_procedure(
            &QName::with_ns("urn:tns", "deleteByEmployeeID"),
            vec![Sequence::one(Item::string("7"))],
            &mut env,
        )
        .unwrap();
    assert_eq!(db.row_count("EMPLOYEE").unwrap(), 9);
    assert!(db
        .select("EMPLOYEE", &vec![("EmployeeID".into(), SqlValue::Int(7))])
        .unwrap()
        .is_empty());
    // Idempotent for missing ids (the guard).
    space
        .xqse()
        .call_procedure(
            &QName::with_ns("urn:tns", "deleteByEmployeeID"),
            vec![Sequence::one(Item::string("7"))],
            &mut env,
        )
        .unwrap();
    assert_eq!(db.row_count("EMPLOYEE").unwrap(), 9);
    // Repeated read-back of the table goes through the plan cache.
    assert_plan_cache_round_trip(
        &space,
        "declare namespace ens1 = \"ld:hr/EMPLOYEE\"; \
         fn:count(ens1:EMPLOYEE())",
    );
}

/// Use case 2: imperative computation — the management chain.
#[test]
fn use_case_2_management_chain() {
    let db = employees(16);
    let space = DataSpace::new();
    space.register_relational_source(&db).unwrap();
    space
        .xqse()
        .load(
            r#"
declare namespace tns = "urn:tns";
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
"#,
        )
        .unwrap();
    // 16 -> 8 -> 4 -> 2 -> 1: chain of 4 managers.
    let out = space
        .engine()
        .eval_expr_str(
            "for $m in tns:getManagementChain('16') return fn:data($m/EmployeeID)",
            &[("tns", "urn:tns")],
        )
        .unwrap();
    let ids: Vec<String> = out.iter().map(|i| i.string_value()).collect();
    assert_eq!(ids, vec!["8", "4", "2", "1"]);
    // The CEO has an empty chain.
    let out = space
        .engine()
        .eval_expr_str(
            "fn:count(tns:getManagementChain('1'))",
            &[("tns", "urn:tns")],
        )
        .unwrap();
    assert_eq!(out.string_value().unwrap(), "0");
    // The chain query itself is plan-cacheable across evaluations.
    assert_plan_cache_round_trip(
        &space,
        "declare namespace tns = \"urn:tns\"; \
         for $m in tns:getManagementChain('16') return fn:data($m/EmployeeID)",
    );
}

/// Use case 3: transform and copy across differently-shaped sources.
#[test]
fn use_case_3_transform_and_copy() {
    let src = employees(25);
    let dst = Database::new("warehouse");
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
    .unwrap();
    let space = DataSpace::new();
    space.register_relational_source(&src).unwrap();
    space.register_relational_source(&dst).unwrap();
    space
        .xqse()
        .load(
            r#"
declare namespace tns = "urn:tns";
declare namespace ens1 = "ld:hr/EMPLOYEE";
declare namespace emp2 = "ld:warehouse/EMP2";
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
        .unwrap();
    let mut env = Env::new();
    let copied = space
        .xqse()
        .call_procedure(
            &QName::with_ns("urn:tns", "copyAllToEMP2"),
            vec![],
            &mut env,
        )
        .unwrap();
    assert_eq!(copied.string_value().unwrap(), "25");
    assert_eq!(dst.row_count("EMP2").unwrap(), 25);
    // Spot-check the transform: employee 10 reports to 5.
    let row = dst
        .select("EMP2", &vec![("EmpId".into(), SqlValue::Int(10))])
        .unwrap();
    assert_eq!(row[0][1], SqlValue::Str("First10".into()));
    assert_eq!(row[0][2], SqlValue::Str("Last10".into()));
    assert_eq!(row[0][3], SqlValue::Str("First5 Last5".into()));
    // The boss has no manager: the transform emits an empty
    // <MgrName/>, which maps to the empty string on a VARCHAR column.
    let row = dst.select("EMP2", &vec![("EmpId".into(), SqlValue::Int(1))]).unwrap();
    assert_eq!(row[0][3], SqlValue::Str(String::new()));
    // Verifying the copy is a repeatable, plan-cacheable read.
    assert_plan_cache_round_trip(
        &space,
        "declare namespace emp2 = \"ld:warehouse/EMP2\"; \
         fn:count(emp2:EMP2())",
    );
}

/// Use case 4: replicating create with per-source error wrapping.
#[test]
fn use_case_4_replicating_create() {
    let schema = |t: &str| TableSchema {
        name: t.into(),
        columns: vec![
            Column::required("EmployeeID", ColumnType::Integer),
            Column::required("Name", ColumnType::Varchar),
        ],
        primary_key: vec!["EmployeeID".into()],
        foreign_keys: vec![],
    };
    let primary = Database::new("p1");
    primary.create_table(schema("EMPLOYEE")).unwrap();
    let backup = Database::new("p2");
    backup.create_table(schema("EMPLOYEE")).unwrap();
    let space = DataSpace::new();
    space.register_relational_source(&primary).unwrap();
    space.register_relational_source(&backup).unwrap();
    space
        .xqse()
        .load(
            r#"
declare namespace tns = "urn:tns";
declare namespace p = "ld:p1/EMPLOYEE";
declare namespace b = "ld:p2/EMPLOYEE";
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
"#,
        )
        .unwrap();
    let emp = |id: i64| -> Item {
        let xml =
            format!("<EMPLOYEE><EmployeeID>{id}</EmployeeID><Name>e{id}</Name></EMPLOYEE>");
        Item::Node(xqse_repro::xmlparse::parse(&xml).unwrap().children()[0].clone())
    };
    let create = QName::with_ns("urn:tns", "create");
    let mut env = Env::new();
    // Batch of 5 replicates.
    let batch: Sequence = (1..=5).map(emp).collect();
    let n = space.xqse().call_procedure(&create, vec![batch], &mut env).unwrap();
    assert_eq!(n.string_value().unwrap(), "5");
    assert_eq!(primary.row_count("EMPLOYEE").unwrap(), 5);
    assert_eq!(backup.row_count("EMPLOYEE").unwrap(), 5);
    // Primary failure surfaces with the wrapped code; nothing created.
    let err = space
        .xqse()
        .call_procedure(&create, vec![Sequence::one(emp(3))], &mut env)
        .unwrap_err();
    assert_eq!(err.code, QName::new("PRIMARY_CREATE_FAILURE"));
    assert_eq!(primary.row_count("EMPLOYEE").unwrap(), 5);
    // Backup-only conflict: primary create lands, secondary error is
    // raised — and per §III.B.13 the primary effect is NOT rolled back.
    backup.insert("EMPLOYEE", vec![SqlValue::Int(9), SqlValue::Str("x".into())]).unwrap();
    let err = space
        .xqse()
        .call_procedure(&create, vec![Sequence::one(emp(9))], &mut env)
        .unwrap_err();
    assert_eq!(err.code, QName::new("SECONDARY_CREATE_FAILURE"));
    assert_eq!(primary.row_count("EMPLOYEE").unwrap(), 6);
    // Auditing replica divergence is a plan-cacheable read.
    assert_plan_cache_round_trip(
        &space,
        "declare namespace p = \"ld:p1/EMPLOYEE\"; \
         declare namespace b = \"ld:p2/EMPLOYEE\"; \
         fn:count(b:EMPLOYEE()) - fn:count(p:EMPLOYEE())",
    );
}

/// The readonly management-chain procedure composes into optimizable
/// XQuery — the two worlds interoperate in one query (§III.A).
#[test]
fn xqse_and_xquery_interoperate() {
    let db = employees(8);
    let space = DataSpace::new();
    space.register_relational_source(&db).unwrap();
    space
        .xqse()
        .load(
            r#"
declare namespace tns = "urn:tns";
declare namespace ens1 = "ld:hr/EMPLOYEE";
declare xqse function tns:depth($id as xs:string) as xs:integer
{
  declare $d := 0;
  declare $emp := ens1:getByEmployeeID($id);
  while (fn:not(fn:empty($emp/ManagerID))) {
    set $emp := ens1:getByEmployeeID($emp/ManagerID);
    set $d := $d + 1;
  }
  return value $d;
};
"#,
        )
        .unwrap();
    // XQuery FLWOR over all employees, calling the XQSE function,
    // aggregated declaratively.
    let out = space
        .engine()
        .eval_expr_str(
            "fn:max(for $e in ens1:EMPLOYEE() \
                    return tns:depth(fn:data($e/EmployeeID)))",
            &[("tns", "urn:tns"), ("ens1", "ld:hr/EMPLOYEE")],
        )
        .unwrap();
    assert_eq!(out.string_value().unwrap(), "3"); // 8->4->2->1
    // The interop query re-runs from the plan cache.
    assert_plan_cache_round_trip(
        &space,
        "declare namespace tns = \"urn:tns\"; \
         declare namespace ens1 = \"ld:hr/EMPLOYEE\"; \
         fn:max(for $e in ens1:EMPLOYEE() \
                return tns:depth(fn:data($e/EmployeeID)))",
    );
}

/// A web-service-backed answer that changes after a procedure write:
/// the batch layer's persistent read-through response cache must not
/// keep serving the pre-write response on the normal (fresh) path.
/// The statement engine reports the write via
/// `Engine::note_source_write`, which bumps the service's
/// read-through epoch.
#[test]
fn procedure_write_invalidates_ws_read_through() {
    use std::cell::Cell;
    use std::rc::Rc;
    use xqse_repro::aldsp::ws::WebService;

    // A service whose answer depends on mutable backing state.
    let state = Rc::new(Cell::new(1i64));
    let mut svc = WebService::new("Mut", "urn:mut");
    let st = Rc::clone(&state);
    svc.add_operation(
        "val",
        "req",
        "resp",
        Rc::new(move |_req| Ok(Sequence::one(Item::string(st.get().to_string())))),
    );
    let space = DataSpace::new();
    space.register_web_service(svc).unwrap();
    let eng = space.engine();
    // Pin the batch layer on: CI re-runs this suite under reduced
    // feature sets, and the read-through cache only engages with it.
    eng.set_features(Features { opt: true, batch: true, ..eng.features() });
    // A non-readonly external procedure standing in for a submission
    // that changes what the service would answer.
    let st = Rc::clone(&state);
    eng.register_external_procedure(
        QName::with_ns("urn:tns", "poke"),
        0,
        false,
        Rc::new(move |_e, _a| {
            st.set(st.get() + 1);
            Ok(Sequence::empty())
        }),
    );

    let read = "declare namespace mut = \"ld:ws/Mut\"; mut:val(\"k\")";
    let mut env = Env::new();
    let a = space.xqse().run_with_env(read, &mut env).unwrap();
    assert_eq!(a.items()[0].string_value(), "1");
    // Warm repeat: served without re-invoking the handler.
    eng.reset_opt_stats();
    let b = space.xqse().run_with_env(read, &mut env).unwrap();
    assert_eq!(b.items()[0].string_value(), "1");
    assert_eq!(eng.opt_stats().ws_issued, 0, "repeat was coalesced");

    // The write, through statement context (the ALDSP entry point).
    space
        .xqse()
        .call_procedure(&QName::with_ns("urn:tns", "poke"), vec![], &mut env)
        .unwrap();

    let c = space.xqse().run_with_env(read, &mut env).unwrap();
    assert_eq!(
        c.items()[0].string_value(),
        "2",
        "the fresh read path must observe the post-write answer"
    );
}
