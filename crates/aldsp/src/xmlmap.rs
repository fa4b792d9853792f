//! Row ↔ XML mapping: "The data service shapes in this case correspond
//! to the natural 'XML view' of a row of each table or view" (§II.A).
//!
//! A row of table `T` becomes `<T><COL1>…</COL1>…</T>` in the
//! service's namespace; NULL columns are omitted. The reverse mapping
//! reads such an element back into typed [`SqlValue`]s for the
//! generated create/update/delete procedures.

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::NodeHandle;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use crate::rel::{Row, SqlValue, TableSchema};

/// The namespace a physical data service for `source`/`table` uses:
/// `ld:<source>/<table>` — the `ld:` dataspace-path convention visible
/// in Figure 4 (`ld:CustomerProfile`).
pub fn service_namespace(source: &str, table: &str) -> String {
    format!("ld:{source}/{table}")
}

/// Render a row as its XML view. Elements are unqualified — Figure 3's
/// paths (`$CUSTOMER/CID`) and shape tests (`element(CUSTOMER)`) use
/// unprefixed names; the service namespace scopes *function* names,
/// not data. The `ns` parameter is retained for API stability and is
/// recorded as metadata only.
pub fn row_to_xml(schema: &TableSchema, ns: &str, row: &Row) -> NodeHandle {
    let _ = ns;
    let row_name = QName::new(schema.name.clone());
    let col_names: Vec<QName> =
        schema.columns.iter().map(|c| QName::new(c.name.clone())).collect();
    row_to_xml_named(&row_name, &col_names, row)
}

/// Row→XML with the QNames already built. The names are identical for
/// every row of a table, so the bulk materializer constructs them once
/// per batch instead of once per row (interned `Symbol`s make each
/// remaining clone a refcount bump).
fn row_to_xml_named(row_name: &QName, col_names: &[QName], row: &Row) -> NodeHandle {
    let elem = NodeHandle::root_element(row_name.clone());
    let arena = elem.arena().clone();
    for (name, val) in col_names.iter().zip(row) {
        if val.is_null() {
            continue;
        }
        let c = NodeHandle::new_element(&arena, name.clone());
        c.append_child(&NodeHandle::new_text(&arena, val.lexical()))
            .expect("text under element");
        elem.append_child(&c).expect("element under element");
    }
    elem
}

/// Render many rows. Per-column QNames are hoisted out of the row loop.
pub fn rows_to_sequence(schema: &TableSchema, ns: &str, rows: &[Row]) -> Sequence {
    let _ = ns;
    let row_name = QName::new(schema.name.clone());
    let col_names: Vec<QName> =
        schema.columns.iter().map(|c| QName::new(c.name.clone())).collect();
    rows.iter()
        .map(|r| Item::Node(row_to_xml_named(&row_name, &col_names, r)))
        .collect()
}

/// Read an XML row view back into typed values. Missing elements map
/// to NULL; namespaces are ignored on children (sources see local
/// names), and the first child named after a column is its value.
/// One pass over the children finds every column's child; values are
/// then parsed in column order, so the first bad column is the one
/// reported.
pub fn xml_to_row(schema: &TableSchema, node: &NodeHandle) -> XdmResult<Row> {
    if node.name().is_none_or(|q| q.local != schema.name) {
        return Err(XdmError::new(
            ErrorCode::DSP0003,
            format!(
                "expected element {} for table {}, found {:?}",
                schema.name,
                schema.name,
                node.name().map(|q| q.lexical())
            ),
        ));
    }
    let children = node.children();
    let mut found: Vec<Option<&NodeHandle>> = vec![None; schema.columns.len()];
    for c in &children {
        let Some(q) = c.name() else { continue };
        if let Some(i) = schema.columns.iter().position(|col| q.local == col.name) {
            found[i].get_or_insert(c);
        }
    }
    let mut row = Vec::with_capacity(schema.columns.len());
    for (col, c) in schema.columns.iter().zip(found) {
        row.push(match c {
            Some(c) => SqlValue::parse(col.ty, &c.string_value())?,
            None => SqlValue::Null,
        });
    }
    Ok(row)
}

/// Extract one column's typed value from an XML row view.
pub fn xml_field(
    schema: &TableSchema,
    node: &NodeHandle,
    column: &str,
) -> XdmResult<SqlValue> {
    let col = schema.column(column).ok_or_else(|| {
        XdmError::new(
            ErrorCode::DSP0003,
            format!("no column {column} in {}", schema.name),
        )
    })?;
    let child = node
        .children()
        .iter()
        .find(|c| c.name().map(|q| q.local.clone()).as_deref() == Some(column))
        .cloned();
    match child {
        Some(c) => SqlValue::parse(col.ty, &c.string_value()),
        None => Ok(SqlValue::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{Column, ColumnType};
    use xmlparse::serialize;

    fn schema() -> TableSchema {
        TableSchema {
            name: "CUSTOMER".into(),
            columns: vec![
                Column::required("CID", ColumnType::Integer),
                Column::required("LAST_NAME", ColumnType::Varchar),
                Column::nullable("SSN", ColumnType::Varchar),
            ],
            primary_key: vec!["CID".into()],
            foreign_keys: vec![],
        }
    }

    #[test]
    fn row_to_xml_shape() {
        let row = vec![
            SqlValue::Int(7),
            SqlValue::Str("Carey".into()),
            SqlValue::Null,
        ];
        let xml = row_to_xml(&schema(), "ld:db1/CUSTOMER", &row);
        let s = serialize(&xml);
        assert!(s.contains("<CUSTOMER>"), "unqualified row element: {s}");
        assert!(s.contains("<CID>7</CID>"));
        assert!(s.contains("<LAST_NAME>Carey</LAST_NAME>"));
        assert!(!s.contains("SSN"), "NULL column must be omitted");
    }

    #[test]
    fn round_trip() {
        let row = vec![
            SqlValue::Int(7),
            SqlValue::Str("Carey".into()),
            SqlValue::Str("123".into()),
        ];
        let xml = row_to_xml(&schema(), "ld:x", &row);
        let back = xml_to_row(&schema(), &xml).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn null_round_trip() {
        let row = vec![SqlValue::Int(7), SqlValue::Str("C".into()), SqlValue::Null];
        let xml = row_to_xml(&schema(), "ld:x", &row);
        let back = xml_to_row(&schema(), &xml).unwrap();
        assert_eq!(back[2], SqlValue::Null);
    }

    #[test]
    fn xml_field_extraction() {
        let row = vec![SqlValue::Int(7), SqlValue::Str("C".into()), SqlValue::Null];
        let xml = row_to_xml(&schema(), "ld:x", &row);
        assert_eq!(xml_field(&schema(), &xml, "CID").unwrap(), SqlValue::Int(7));
        assert_eq!(xml_field(&schema(), &xml, "SSN").unwrap(), SqlValue::Null);
        assert!(xml_field(&schema(), &xml, "NOPE").is_err());
    }

    #[test]
    fn wrong_element_name_rejected() {
        let other = NodeHandle::root_element(QName::new("ORDER"));
        assert!(xml_to_row(&schema(), &other).is_err());
    }

    /// An element with the given `(name, text)` children.
    fn customer(children: &[(&str, &str)]) -> NodeHandle {
        let elem = NodeHandle::root_element(QName::new("CUSTOMER"));
        let arena = elem.arena().clone();
        for (name, text) in children {
            let c = NodeHandle::new_element(&arena, QName::new(*name));
            c.append_child(&NodeHandle::new_text(&arena, *text)).unwrap();
            elem.append_child(&c).unwrap();
        }
        elem
    }

    #[test]
    fn first_duplicate_child_wins() {
        let xml = customer(&[("CID", "7"), ("LAST_NAME", "Carey"), ("CID", "8")]);
        let row = xml_to_row(&schema(), &xml).unwrap();
        assert_eq!(row, vec![SqlValue::Int(7), SqlValue::Str("Carey".into()), SqlValue::Null]);
        // A later duplicate is never parsed, so it cannot raise.
        let xml = customer(&[("CID", "7"), ("CID", "not-a-number")]);
        assert_eq!(xml_to_row(&schema(), &xml).unwrap()[0], SqlValue::Int(7));
    }

    #[test]
    fn children_out_of_column_order() {
        let xml = customer(&[("SSN", "123"), ("OTHER", "x"), ("LAST_NAME", "Carey"), ("CID", "7")]);
        let row = xml_to_row(&schema(), &xml).unwrap();
        assert_eq!(
            row,
            vec![SqlValue::Int(7), SqlValue::Str("Carey".into()), SqlValue::Str("123".into())]
        );
    }

    #[test]
    fn type_errors_surface() {
        let bad = NodeHandle::root_element(QName::new("CUSTOMER"));
        let arena = bad.arena().clone();
        let cid = NodeHandle::new_element(&arena, QName::new("CID"));
        cid.append_child(&NodeHandle::new_text(&arena, "not-a-number")).unwrap();
        bad.append_child(&cid).unwrap();
        assert!(xml_to_row(&schema(), &bad).is_err());
    }
}
