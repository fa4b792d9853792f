//! Cross-module ALDSP tests: decomposition, OCC policies, overrides,
//! and the end-to-end disconnected-update story of Figure 4.

use std::rc::Rc;

use xdm::error::ErrorCode;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use crate::decompose::{OccPolicy, UpdateOverride};
use crate::demo;
use crate::rel::{Column, ColumnType, Database, SqlValue, TableSchema, WriteOp};
use xqeval::Features;

fn demo3() -> demo::Demo {
    demo::build(3, 2, 2).unwrap()
}

fn last_name_in_db(d: &demo::Demo, cid: i64) -> String {
    let rows = d
        .db1
        .select("CUSTOMER", &vec![("CID".into(), SqlValue::Int(cid))])
        .unwrap();
    rows[0][2].lexical()
}

// ------------------------------------------------- figure 4 round trip

#[test]
fn disconnected_update_round_trip() {
    // Figure 4: get → modify ("Carrey" → "Carey") → submit.
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    let before = g.get_value(0, &["LAST_NAME"]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Changed").unwrap();
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "Changed");
    assert_ne!(before, "Changed");
    // The generated SQL is a keyed, conditioned UPDATE.
    let sql = d.space.last_decomposition.borrow().clone();
    assert_eq!(sql.len(), 1);
    assert!(sql[0].contains("UPDATE CUSTOMER SET LAST_NAME = 'Changed'"), "{sql:?}");
    assert!(sql[0].contains("CID = 1"), "{sql:?}");
    // UpdatedValues policy: old value conditioned into the WHERE.
    assert!(sql[0].contains(&format!("LAST_NAME = '{before}'")), "{sql:?}");
}

#[test]
fn unaffected_sources_not_touched() {
    // §II.C: "unaffected data sources are not involved in an update".
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "OnlyDb1").unwrap();
    let (c2_before, a2_before) = d.db2.stats();
    d.space.submit(&g).unwrap();
    let (c2_after, a2_after) = d.db2.stats();
    assert_eq!((c2_before, a2_before), (c2_after, a2_after), "db2 must be untouched");
}

#[test]
fn nested_order_update_decomposes_to_child_table() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["Orders", "ORDER#1", "STATUS"], "CANCELLED").unwrap();
    d.space.submit(&g).unwrap();
    let rows = d
        .db1
        .select("ORDER", &vec![("OID".into(), SqlValue::Int(2))])
        .unwrap();
    assert_eq!(rows[0][4], SqlValue::Str("CANCELLED".into()));
}

#[test]
fn renamed_element_updates_original_column() {
    // <TOTAL> maps to TOTAL_ORDER_AMOUNT.
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["Orders", "ORDER", "TOTAL"], "123.45").unwrap();
    d.space.submit(&g).unwrap();
    let rows = d
        .db1
        .select("ORDER", &vec![("OID".into(), SqlValue::Int(1))])
        .unwrap();
    assert_eq!(rows[0][3].lexical(), "123.45");
    let sql = d.space.last_decomposition.borrow().clone();
    assert!(sql[0].contains("SET TOTAL_ORDER_AMOUNT = 123.45"), "{sql:?}");
}

#[test]
fn cross_source_update_runs_2pc() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Both").unwrap();
    g.set_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"], "NEWBRAND").unwrap();
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "Both");
    let cards = d
        .db2
        .select("CREDIT_CARD", &vec![("CCID".into(), SqlValue::Int(1))])
        .unwrap();
    assert_eq!(cards[0][3], SqlValue::Str("NEWBRAND".into()));
    let sql = d.space.last_decomposition.borrow().clone();
    assert_eq!(sql.len(), 2);
    assert!(sql.iter().any(|s| s.starts_with("[db1]")));
    assert!(sql.iter().any(|s| s.starts_with("[db2]")));
}

#[test]
fn multiple_changes_same_row_merge_into_one_statement() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "A").unwrap();
    g.set_value(0, &["FIRST_NAME"], "B").unwrap();
    d.space.submit(&g).unwrap();
    let sql = d.space.last_decomposition.borrow().clone();
    assert_eq!(sql.len(), 1, "one UPDATE for two fields: {sql:?}");
    assert!(sql[0].contains("LAST_NAME = 'A'"));
    assert!(sql[0].contains("FIRST_NAME = 'B'"));
}

#[test]
fn unmapped_element_update_fails_with_dsp0002() {
    // CreditRating comes from the web service — no lineage.
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["CreditRating"], "999").unwrap();
    let err = d.space.submit(&g).unwrap_err();
    assert!(err.is(ErrorCode::DSP0002));
}

// ----------------------------------------------------------- policies

#[test]
fn occ_read_values_widens_where_clause() {
    let d = demo3();
    d.space
        .set_occ_policy("CustomerProfile", OccPolicy::ReadValues)
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Wide").unwrap();
    d.space.submit(&g).unwrap();
    let sql = d.space.last_decomposition.borrow().clone();
    // All read fields of the row are conditioned.
    assert!(sql[0].contains("FIRST_NAME = "), "{sql:?}");
    assert!(sql[0].contains("LAST_NAME = "), "{sql:?}");
    assert!(sql[0].contains("CID = 1"), "{sql:?}");
}

#[test]
fn occ_chosen_subset_narrows_where_clause() {
    let d = demo3();
    d.space
        .set_occ_policy(
            "CustomerProfile",
            OccPolicy::ChosenSubset(vec!["FIRST_NAME".into()]),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Narrow").unwrap();
    d.space.submit(&g).unwrap();
    let sql = d.space.last_decomposition.borrow().clone();
    assert!(sql[0].contains("WHERE CID = 1 AND FIRST_NAME = "), "{sql:?}");
    // The changed column's old value is NOT conditioned.
    assert!(!sql[0].contains("LAST_NAME = 'Carey'"), "{sql:?}");
}

#[test]
fn occ_conflict_detected_and_nothing_applied() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Mine").unwrap();
    // A concurrent writer sneaks in after the read.
    d.db1
        .execute(vec![crate::rel::WriteOp::Update {
            table: "CUSTOMER".into(),
            set: vec![("LAST_NAME".into(), SqlValue::Str("Theirs".into()))],
            cond: vec![("CID".into(), SqlValue::Int(1))],
            expect_rows: 1,
        }])
        .unwrap();
    let err = d.space.submit(&g).unwrap_err();
    assert!(err.is(ErrorCode::DSP0001), "{err}");
    // The concurrent write survives (no lost update).
    assert_eq!(last_name_in_db(&d, 1), "Theirs");
}

#[test]
fn occ_chosen_subset_misses_conflicts_outside_subset() {
    // The trade-off the paper's third policy makes: a version-column
    // policy does not see conflicting writes to other columns.
    let d = demo3();
    d.space
        .set_occ_policy(
            "CustomerProfile",
            OccPolicy::ChosenSubset(vec!["FIRST_NAME".into()]),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Mine").unwrap();
    d.db1
        .execute(vec![crate::rel::WriteOp::Update {
            table: "CUSTOMER".into(),
            set: vec![("LAST_NAME".into(), SqlValue::Str("Theirs".into()))],
            cond: vec![("CID".into(), SqlValue::Int(1))],
            expect_rows: 1,
        }])
        .unwrap();
    // Submit succeeds — the subset (FIRST_NAME) did not change.
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "Mine");
}

// ----------------------------------------------------------- overrides

#[test]
fn rust_override_replaces_default_handling() {
    // The ALDSP 2.5 story: a "Java" override takes over.
    let d = demo3();
    let called = Rc::new(std::cell::RefCell::new(false));
    let c2 = called.clone();
    d.space
        .set_update_override(
            "CustomerProfile",
            UpdateOverride::Rust(Rc::new(move |_space, _graph| {
                *c2.borrow_mut() = true;
                Ok(())
            })),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "X").unwrap();
    d.space.submit(&g).unwrap();
    assert!(*called.borrow());
    // Default handling did NOT run.
    assert_ne!(last_name_in_db(&d, 1), "X");
}

#[test]
fn rust_override_can_extend_default_handling() {
    // "The update override could either extend or replace the default
    // update handling logic" (§II.C).
    let d = demo3();
    d.space
        .set_update_override(
            "CustomerProfile",
            UpdateOverride::Rust(Rc::new(|space, graph| {
                // Enforce a business rule, then delegate.
                for c in graph.changes() {
                    if c.node.string_value().is_empty() {
                        return Err(xdm::error::XdmError::new(
                            ErrorCode::DSP0003,
                            "empty values are not allowed",
                        ));
                    }
                }
                space.default_submit(graph)
            })),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "Extended").unwrap();
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "Extended");
    // And the rule fires.
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "").unwrap();
    assert!(d.space.submit(&g).is_err());
}

#[test]
fn xqse_override_receives_datagraph() {
    // The ALDSP 3.0 story: the override is an XQSE procedure. This one
    // audits the change and applies the update via the physical
    // update procedure — no Java required.
    let d = demo3();
    d.space
        .xqse()
        .load(
            r#"
declare namespace ovr = "urn:ovr";
declare namespace cus = "ld:db1/CUSTOMER";
declare procedure ovr:handleUpdate($dg as element()) as empty-sequence()
{
  iterate $profile over $dg/CustomerProfile {
    declare $row := <CUSTOMER>
        <CID>{fn:data($profile/CID)}</CID>
        <FIRST_NAME>{fn:data($profile/FIRST_NAME)}</FIRST_NAME>
        <LAST_NAME>{fn:data($profile/LAST_NAME)}</LAST_NAME>
      </CUSTOMER>;
    cus:updateCUSTOMER($row);
  }
};
"#,
        )
        .unwrap();
    d.space
        .set_update_override(
            "CustomerProfile",
            UpdateOverride::Procedure(QName::with_ns("urn:ovr", "handleUpdate")),
        )
        .unwrap();
    let g = d.space.get("CustomerProfile", "getProfile", vec![]).unwrap();
    g.set_value(0, &["LAST_NAME"], "ViaXqse").unwrap();
    d.space.submit(&g).unwrap();
    assert_eq!(last_name_in_db(&d, 1), "ViaXqse");
}

// -------------------------------------------------- create and delete

#[test]
fn create_instance_decomposes_across_sources() {
    let d = demo3();
    let xml = "<CustomerProfile><CID>99</CID><LAST_NAME>New</LAST_NAME>\
               <FIRST_NAME>Person</FIRST_NAME>\
               <Orders><ORDER><OID>990</OID><CID>99</CID><STATUS>OPEN</STATUS></ORDER></Orders>\
               <CreditCards><CREDIT_CARD><CCID>990</CCID><CID>99</CID>\
               <NUMBER>4000-99</NUMBER></CREDIT_CARD></CreditCards>\
               </CustomerProfile>";
    let doc = xmlparse::parse(xml).unwrap();
    let inst = doc.children()[0].clone();
    d.space.create_instance("CustomerProfile", &inst).unwrap();
    assert_eq!(last_name_in_db(&d, 99), "New");
    assert_eq!(
        d.db1.select("ORDER", &vec![("OID".into(), SqlValue::Int(990))]).unwrap().len(),
        1
    );
    assert_eq!(
        d.db2
            .select("CREDIT_CARD", &vec![("CCID".into(), SqlValue::Int(990))])
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn decomposition_types_values_by_the_lineage_it_is_given() {
    let d = demo3();
    // Another space on the same thread registers a source of the same
    // name whose CUSTOMER has three columns, not four.
    let other = Database::new("db1");
    other
        .create_table(TableSchema {
            name: "CUSTOMER".into(),
            columns: vec![
                Column::required("CID", ColumnType::Integer),
                Column::required("NAME", ColumnType::Varchar),
                Column::nullable("NOTE", ColumnType::Varchar),
            ],
            primary_key: vec!["CID".into()],
            foreign_keys: vec![],
        })
        .unwrap();
    crate::service::DataSpace::new().register_relational_source(&other).unwrap();
    let xml = "<CustomerProfile><CID>98</CID><LAST_NAME>Own</LAST_NAME>\
               <FIRST_NAME>Schema</FIRST_NAME><Orders/><CreditCards/></CustomerProfile>";
    let doc = xmlparse::parse(xml).unwrap();
    d.space.create_instance("CustomerProfile", &doc.children()[0]).unwrap();
    assert_eq!(last_name_in_db(&d, 98), "Own");
    assert_eq!(other.row_count("CUSTOMER").unwrap(), 0);
}

#[test]
fn delete_instance_removes_children_first() {
    let d = demo3();
    let g = d.space.get("CustomerProfile", "getProfileById", vec![Sequence::one(
        Item::string("2"),
    )]).unwrap();
    let inst = g.instance(0).unwrap();
    d.space.delete_instance("CustomerProfile", &inst).unwrap();
    assert!(d
        .db1
        .select("CUSTOMER", &vec![("CID".into(), SqlValue::Int(2))])
        .unwrap()
        .is_empty());
    assert!(d
        .db1
        .select("ORDER", &vec![("CID".into(), SqlValue::Int(2))])
        .unwrap()
        .is_empty());
    assert!(d
        .db2
        .select("CREDIT_CARD", &vec![("CID".into(), SqlValue::Int(2))])
        .unwrap()
        .is_empty());
    // Others survive.
    assert_eq!(d.db1.row_count("CUSTOMER").unwrap(), 2);
}

// ------------------------------------------ use case 1, full platform

#[test]
fn use_case_1_user_defined_delete_via_xqse() {
    // §III.D.1: augment the generated methods with an XQSE procedure
    // that deletes by id, internally using the default delete method.
    let d = demo3();
    d.space
        .xqse()
        .load(
            r#"
declare namespace tns = "urn:uc1";
declare namespace cus = "ld:db1/CUSTOMER";
declare procedure tns:deleteByCID($cid as xs:string) as empty-sequence()
{
  declare $cust := cus:getByCID($cid);
  if (fn:not(fn:empty($cust))) then cus:deleteCUSTOMER($cust);
};
"#,
        )
        .unwrap();
    let mut env = xqeval::Env::new();
    d.space
        .xqse()
        .call_procedure(
            &QName::with_ns("urn:uc1", "deleteByCID"),
            vec![Sequence::one(Item::string("3"))],
            &mut env,
        )
        .unwrap();
    assert_eq!(d.db1.row_count("CUSTOMER").unwrap(), 2);
    // Deleting a non-existent id is a no-op (the `if` guard).
    d.space
        .xqse()
        .call_procedure(
            &QName::with_ns("urn:uc1", "deleteByCID"),
            vec![Sequence::one(Item::string("404"))],
            &mut env,
        )
        .unwrap();
    assert_eq!(d.db1.row_count("CUSTOMER").unwrap(), 2);
}

// ------------------------------------------------------ physical CUD

#[test]
fn generated_physical_methods_work_from_queries() {
    let d = demo3();
    let engine = d.space.engine();
    // Read method.
    let out = engine
        .eval_expr_str("fn:count(cus:CUSTOMER())", &[("cus", "ld:db1/CUSTOMER")])
        .unwrap();
    assert_eq!(out.string_value().unwrap(), "3");
    // Navigation function.
    let out = engine
        .eval_expr_str(
            "for $c in cus:CUSTOMER()[CID eq '1'] return fn:count(cus:getORDER($c))",
            &[("cus", "ld:db1/CUSTOMER")],
        )
        .unwrap();
    assert_eq!(out.string_value().unwrap(), "2");
    // Keyed read.
    let out = engine
        .eval_expr_str(
            "fn:data(cus:getByCID('2')/LAST_NAME)",
            &[("cus", "ld:db1/CUSTOMER")],
        )
        .unwrap();
    assert_eq!(out.string_value().unwrap(), "Borkar");
}

// ------------------------------------------------------- getBy<PK>

const CUS: &[(&str, &str)] = &[("cus", "ld:db1/CUSTOMER")];

/// Evaluate `query` under `features` with fresh counters: its string
/// value and the indexed selects it made.
fn keyed_read(d: &demo::Demo, features: Features, query: &str) -> (String, u64) {
    let engine = d.space.engine();
    engine.set_features(features);
    engine.reset_opt_stats();
    let out = engine.eval_expr_str(query, CUS).unwrap().string_value().unwrap();
    (out, engine.opt_stats().indexed_selects)
}

#[test]
fn get_by_pk_rejects_malformed_keys_and_reads_nothing_for_empty_ones() {
    let d = demo3();
    let engine = d.space.engine();
    for features in [Features::ALL, Features::NONE, Features { batch: false, ..Features::ALL }] {
        engine.set_features(features);
        let err = engine.eval_expr_str("cus:getByCID('x1')", CUS).unwrap_err();
        assert_eq!(err.code, ErrorCode::DSP0003.qname(), "{features}");
        let (n, selects) = keyed_read(&d, features, "fn:count(cus:getByCID(''))");
        assert_eq!((n.as_str(), selects), ("0", 0), "{features}");
    }
}

#[test]
fn get_by_pk_probes_once_per_key_and_table_version() {
    let d = demo3();
    let three = "fn:string-join((cus:getByCID('2'), cus:getByCID(' 2 '), \
                 cus:getByCID(2))/LAST_NAME, ',')";
    // `-opt` scans the table; `-batch` probes the index on every call.
    let no_opt = Features { opt: false, ..Features::ALL };
    assert_eq!(keyed_read(&d, no_opt, three), ("Borkar,Borkar,Borkar".into(), 0));
    let no_batch = Features { batch: false, ..Features::ALL };
    assert_eq!(keyed_read(&d, no_batch, three), ("Borkar,Borkar,Borkar".into(), 3));
    // The full feature set probes once: the three spellings share the
    // canonical key `2`, and repeated calls return the same cached
    // node, so the path's node-identity dedup leaves one
    // (DESIGN.md §11 deviation (h)).
    assert_eq!(keyed_read(&d, Features::ALL, three), ("Borkar".into(), 1));
    assert_eq!(keyed_read(&d, Features::ALL, three), ("Borkar".into(), 0));
    // Pushdown point-selects share the entries.
    let pushed = "fn:string(for $c in cus:CUSTOMER() where $c/CID eq 2 return $c/LAST_NAME)";
    assert_eq!(keyed_read(&d, Features::ALL, pushed), ("Borkar".into(), 0));
    assert_eq!(d.space.engine().opt_stats().pushdown_rewrites, 1);
    // A cached row keeps the tree of its first read, and trees are in
    // document order by build time: the row for 2, read above, sorts
    // before the row for 3 built now. Plain evaluation builds both in
    // call order (deviation (h)).
    let two_keys = "fn:string-join((cus:getByCID('3'), cus:getByCID('2'))/LAST_NAME, ',')";
    assert_eq!(keyed_read(&d, Features::ALL, two_keys), ("Borkar,Engovatov".into(), 1));
    assert_eq!(keyed_read(&d, Features::NONE, two_keys), ("Engovatov,Borkar".into(), 0));

    // A commit to another table keeps the hits.
    d.db1
        .execute(vec![WriteOp::Update {
            table: "ORDER".into(),
            set: vec![("STATUS".into(), SqlValue::Str("HELD".into()))],
            cond: vec![("OID".into(), SqlValue::Int(1))],
            expect_rows: 1,
        }])
        .unwrap();
    assert_eq!(keyed_read(&d, Features::ALL, three), ("Borkar".into(), 0));
    // A commit to the table misses once, and the new row is served.
    d.db1
        .execute(vec![WriteOp::Update {
            table: "CUSTOMER".into(),
            set: vec![("LAST_NAME".into(), SqlValue::Str("Borkar2".into()))],
            cond: vec![("CID".into(), SqlValue::Int(2))],
            expect_rows: 1,
        }])
        .unwrap();
    assert_eq!(keyed_read(&d, Features::ALL, three), ("Borkar2".into(), 1));
    assert_eq!(keyed_read(&d, Features::ALL, three), ("Borkar2".into(), 0));
    // Plain evaluation builds a fresh row per call.
    assert_eq!(
        keyed_read(&d, Features::NONE, three),
        ("Borkar2,Borkar2,Borkar2".into(), 0)
    );
}

#[test]
fn service_catalog_metadata() {
    use crate::service::{MethodKind, ServiceKind};
    let d = demo3();
    let names = d.space.service_names();
    assert!(names.contains(&"db1/CUSTOMER".to_string()));
    assert!(names.contains(&"db1/ORDER".to_string()));
    assert!(names.contains(&"db2/CREDIT_CARD".to_string()));
    assert!(names.contains(&"ws/CreditRating".to_string()));
    assert!(names.contains(&"CustomerProfile".to_string()));
    let cust = d.space.service("db1/CUSTOMER").unwrap();
    assert_eq!(cust.kind, ServiceKind::Entity);
    let kinds: Vec<MethodKind> = cust.methods.iter().map(|m| m.kind).collect();
    assert!(kinds.contains(&MethodKind::Read));
    assert!(kinds.contains(&MethodKind::Create));
    assert!(kinds.contains(&MethodKind::Update));
    assert!(kinds.contains(&MethodKind::Delete));
    assert!(kinds.contains(&MethodKind::Navigation));
    let ws = d.space.service("ws/CreditRating").unwrap();
    assert_eq!(ws.kind, ServiceKind::Library);
    let logical = d.space.service("CustomerProfile").unwrap();
    assert_eq!(logical.shape.as_deref(), Some("CustomerProfile"));
}

#[test]
fn describe_renders_design_view() {
    let d = demo3();
    let s = d.space.describe("CustomerProfile").unwrap();
    assert!(s.contains("entity data service: CustomerProfile"), "{s}");
    assert!(s.contains("shape: element(CustomerProfile)"), "{s}");
    assert!(s.contains("db1/CUSTOMER"), "{s}");
    assert!(s.contains("db2/CREDIT_CARD"), "{s}");
    assert!(s.contains("not updatable (no lineage): CreditRating"), "{s}");
    let s = d.space.describe("db1/CUSTOMER").unwrap();
    assert!(s.contains("read      CUSTOMER#0"), "{s}");
    assert!(s.contains("navigate  getORDER#1"), "{s}");
    assert!(s.contains("create    createCUSTOMER#1"), "{s}");
    assert!(d.space.describe("nosuch").is_err());
}
