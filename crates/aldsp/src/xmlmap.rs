//! Row ↔ XML mapping: "The data service shapes in this case correspond
//! to the natural 'XML view' of a row of each table or view" (§II.A).
//!
//! A row of table `T` becomes `<T><COL1>…</COL1>…</T>` in the
//! service's namespace; NULL columns are omitted. The reverse mapping
//! reads such an element back into typed [`SqlValue`]s for the
//! generated create/update/delete procedures.

use std::io::Write as _;
use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::intern::Symbol;
use xdm::node::{NodeArena, NodeHandle};
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
/// per batch instead of once per row (an interned `Symbol` clones as a
/// pointer copy). A row is built to size: its arena
/// holds exactly the row element and an element and a text node per
/// non-null column, and each element has room for exactly its children.
fn row_to_xml_named(row_name: &QName, col_names: &[QName], row: &Row) -> NodeHandle {
    let columns = row.iter().filter(|v| !v.is_null()).count();
    let arena = NodeArena::with_capacity(1 + 2 * columns);
    let elem = NodeHandle::new_element_sized(&arena, row_name.clone(), columns);
    for (name, val) in col_names.iter().zip(row) {
        if val.is_null() {
            continue;
        }
        let c = NodeHandle::new_element_sized(&arena, name.clone(), 1);
        c.append_child(&NodeHandle::new_text(&arena, text_of(val)))
            .expect("text under element");
        elem.append_child(&c).expect("element under element");
    }
    elem
}

/// A value's lexical form as the text of its XML view, made in one
/// allocation: a string is copied once, an integer is formatted on the
/// stack.
pub(crate) fn text_of(val: &SqlValue) -> Rc<str> {
    match val {
        SqlValue::Str(s) => Rc::from(s.as_str()),
        SqlValue::Int(i) => {
            // An i64 has at most 20 characters, its sign included.
            let mut buf = [0u8; 20];
            let mut rest = &mut buf[..];
            write!(rest, "{i}").expect("an i64 fits 20 bytes");
            let len = 20 - rest.len();
            Rc::from(std::str::from_utf8(&buf[..len]).expect("ASCII digits"))
        }
        other => other.lexical().into(),
    }
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

/// A table's row element and column names, interned once: a generated
/// procedure holds one, so reading a row view compares each child's
/// name with a column's as symbols, by address, never by their text.
#[derive(Debug, Clone)]
pub struct RowNames {
    table: Symbol,
    columns: Vec<Symbol>,
}

impl RowNames {
    /// The names of `schema`'s row element and columns, in column
    /// order.
    pub fn of(schema: &TableSchema) -> RowNames {
        RowNames {
            table: Symbol::intern(&schema.name),
            columns: schema.columns.iter().map(|c| Symbol::intern(&c.name)).collect(),
        }
    }
}

/// Read an XML row view of `schema`'s table, whose interned names are
/// `names`, back into typed values. Missing elements map to NULL;
/// namespaces are ignored on children (sources see local names), and
/// the first child named after a column is its value. Of the bad
/// values, the first column's is the one reported. The children are
/// read in one pass and never collected. Each value is parsed from the
/// column element's typed value, which shares its text node's string: a
/// VARCHAR value is its one copy, and an INTEGER value copies nothing.
pub fn xml_to_row(schema: &TableSchema, names: &RowNames, node: &NodeHandle) -> XdmResult<Row> {
    if !node.with_name(|q| q.is_some_and(|q| q.local.addr() == names.table.addr())) {
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
    // One pass over the children, in their order: each parses into its
    // column's slot unless an earlier child took the column. Parsing is
    // pure, so of the columns whose first child is bad, the earliest in
    // column order is reported, as parsing in column order would.
    let mut row: Vec<Option<SqlValue>> = vec![None; schema.columns.len()];
    let mut bad: Option<(usize, XdmError)> = None;
    node.for_each_child(|c| {
        let at = c.with_name(|q| {
            q.and_then(|q| names.columns.iter().position(|col| col.addr() == q.local.addr()))
        });
        let Some(i) = at else { return };
        if row[i].is_some() || bad.as_ref().is_some_and(|(b, _)| *b <= i) {
            return;
        }
        match SqlValue::parse(schema.columns[i].ty, &c.typed_value().string_shared()) {
            Ok(v) => row[i] = Some(v),
            Err(e) => bad = Some((i, e)),
        }
    });
    if let Some((_, e)) = bad {
        return Err(e);
    }
    // In place: the slots become the row.
    Ok(row.into_iter().map(|v| v.unwrap_or(SqlValue::Null)).collect())
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
    match node.first_child_named(column) {
        Some(c) => SqlValue::parse(col.ty, &c.typed_value().string_shared()),
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
        let back = xml_to_row(&schema(), &RowNames::of(&schema()), &xml).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn null_round_trip() {
        let row = vec![SqlValue::Int(7), SqlValue::Str("C".into()), SqlValue::Null];
        let xml = row_to_xml(&schema(), "ld:x", &row);
        let back = xml_to_row(&schema(), &RowNames::of(&schema()), &xml).unwrap();
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
        assert!(xml_to_row(&schema(), &RowNames::of(&schema()), &other).is_err());
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
        let row = xml_to_row(&schema(), &RowNames::of(&schema()), &xml).unwrap();
        assert_eq!(row, vec![SqlValue::Int(7), SqlValue::Str("Carey".into()), SqlValue::Null]);
        // A later duplicate is never parsed, so it cannot raise.
        let xml = customer(&[("CID", "7"), ("CID", "not-a-number")]);
        assert_eq!(xml_to_row(&schema(), &RowNames::of(&schema()), &xml).unwrap()[0], SqlValue::Int(7));
    }

    #[test]
    fn children_out_of_column_order() {
        let xml = customer(&[("SSN", "123"), ("OTHER", "x"), ("LAST_NAME", "Carey"), ("CID", "7")]);
        let row = xml_to_row(&schema(), &RowNames::of(&schema()), &xml).unwrap();
        assert_eq!(
            row,
            vec![SqlValue::Int(7), SqlValue::Str("Carey".into()), SqlValue::Str("123".into())]
        );
    }

    /// Of two bad values, the one of the earlier column is reported,
    /// whatever the children's order; a column's later duplicate does
    /// not replace its bad first child.
    #[test]
    fn the_first_bad_column_is_reported() {
        let two_ints = TableSchema {
            name: "CUSTOMER".into(),
            columns: vec![
                Column::required("CID", ColumnType::Integer),
                Column::required("AGE", ColumnType::Integer),
            ],
            primary_key: vec!["CID".into()],
            foreign_keys: vec![],
        };
        let xml = customer(&[("AGE", "old"), ("CID", "seven"), ("CID", "7")]);
        let err = xml_to_row(&two_ints, &RowNames::of(&two_ints), &xml).unwrap_err();
        assert!(err.message.contains("seven"), "{err:?}");
        let xml = customer(&[("AGE", "old"), ("CID", "7"), ("AGE", "40")]);
        let err = xml_to_row(&two_ints, &RowNames::of(&two_ints), &xml).unwrap_err();
        assert!(err.message.contains("old"), "{err:?}");
    }

    #[test]
    fn type_errors_surface() {
        let bad = NodeHandle::root_element(QName::new("CUSTOMER"));
        let arena = bad.arena().clone();
        let cid = NodeHandle::new_element(&arena, QName::new("CID"));
        cid.append_child(&NodeHandle::new_text(&arena, "not-a-number")).unwrap();
        bad.append_child(&cid).unwrap();
        assert!(xml_to_row(&schema(), &RowNames::of(&schema()), &bad).is_err());
    }
}
