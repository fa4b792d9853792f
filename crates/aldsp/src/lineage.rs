//! Data-lineage analysis of primary read functions (§II.C).
//!
//! "To automatically propagate client data changes to (just) the
//! relevant backend data sources, ALDSP must identify where the
//! changed data originated from. Basically, the data lineage must be
//! determined. ALDSP computes the required lineage by analyzing a
//! specially designated 'primary' data service read function."
//!
//! The analyzer walks the function body's AST looking for the
//! canonical integration shape of Figure 3:
//!
//! ```text
//! for $ROW in src:TABLE()                      -- top-level table
//! return <Shape>
//!   <Field>{fn:data($ROW/COL)}</Field>         -- field lineage
//!   <Wrapper>{ for $C in src:getCHILD($ROW)    -- navigation join
//!              return <Child>…</Child> }</Wrapper>
//!   <Wrapper2>{ for $K in src2:TABLE2()        -- value join
//!               where $ROW/K eq $K/K return … }</Wrapper2>
//!   { for $r in ws:call(…) return <X>…</X> }   -- unmappable (ws)
//! </Shape>
//! ```
//!
//! Every element whose provenance cannot be proven is recorded as
//! *unmapped*; updates touching unmapped elements fail decomposition
//! with `DSP0002`, which is precisely when ALDSP developers reach for
//! an update override — the paper's motivating scenario for XQSE.

use std::collections::HashMap;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::qname::QName;

use xqparser::ast::{
    Axis, DirectContent, DirectElement, Expr, FlworClause, PathStart, Step,
};

use crate::rel::TableSchema;

/// What a registered function reads: the rows of one table of one
/// source, through the table's read function or a navigation function
/// to it.
#[derive(Debug, Clone)]
pub struct SourceRef {
    /// Source (database) name.
    pub source: String,
    /// The table's schema, as the source holds it.
    pub schema: TableSchema,
}

/// A field: constructed element ← table column.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldMap {
    /// The constructed element's local name.
    pub element: String,
    /// The originating column.
    pub column: String,
}

/// A nested row shape.
#[derive(Debug, Clone)]
pub struct ChildShape {
    /// The wrapper element around the nested rows (e.g. `Orders`),
    /// if any.
    pub wrapper: Option<String>,
    /// The nested shape.
    pub node: ShapeNode,
}

/// One row-producing level of the shape.
#[derive(Debug, Clone)]
pub struct ShapeNode {
    /// The constructed element name for each row instance.
    pub element: QName,
    /// Source (database) name.
    pub source: String,
    /// Table name.
    pub table: String,
    /// The table's schema, which types the values decomposition writes.
    pub schema: TableSchema,
    /// Field lineage.
    pub fields: Vec<FieldMap>,
    /// Nested shapes.
    pub children: Vec<ChildShape>,
    /// Elements with unprovable provenance (not updatable).
    pub unmapped: Vec<String>,
}

impl ShapeNode {
    /// The column a constructed element maps to.
    pub fn column_of(&self, element: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|f| f.element == element)
            .map(|f| f.column.as_str())
    }

    /// The constructed element carrying a given column.
    pub fn element_of(&self, column: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|f| f.column == column)
            .map(|f| f.element.as_str())
    }
}

/// The result of analyzing a primary read function.
#[derive(Debug, Clone)]
pub struct Lineage {
    /// The top-level shape.
    pub root: ShapeNode,
}

impl Lineage {
    /// Find the shape (at any nesting depth) whose constructed element
    /// matches `name`.
    pub fn shape_for_element(&self, name: &QName) -> Option<&ShapeNode> {
        fn walk<'a>(n: &'a ShapeNode, name: &QName) -> Option<&'a ShapeNode> {
            if &n.element == name {
                return Some(n);
            }
            n.children.iter().find_map(|c| walk(&c.node, name))
        }
        walk(&self.root, name)
    }

    /// All shapes, root first.
    pub fn all_shapes(&self) -> Vec<&ShapeNode> {
        fn walk<'a>(n: &'a ShapeNode, out: &mut Vec<&'a ShapeNode>) {
            out.push(n);
            for c in &n.children {
                walk(&c.node, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// The distinct sources this lineage touches.
    pub fn sources(&self) -> Vec<String> {
        let mut v: Vec<String> =
            self.all_shapes().iter().map(|s| s.source.clone()).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Analyze a primary read function body against a resolver mapping
/// registered function names to sources.
pub fn analyze(
    body: &Expr,
    resolver: &HashMap<QName, SourceRef>,
) -> XdmResult<Lineage> {
    match try_analyze_flwor(body, resolver) {
        Some(root) => Ok(Lineage { root }),
        None => Err(XdmError::new(
            ErrorCode::DSP0002,
            "primary read function does not have an analyzable \
             for-over-source / return-constructor shape",
        )),
    }
}

/// Try to analyze `for $v in <source-call> … return <Elem>…</Elem>`.
fn try_analyze_flwor(
    expr: &Expr,
    resolver: &HashMap<QName, SourceRef>,
) -> Option<ShapeNode> {
    let Expr::Flwor { clauses, ret } = expr else { return None };
    let FlworClause::For { var, source, .. } = clauses.first()? else { return None };
    let Expr::FunctionCall { name, .. } = source else { return None };
    let SourceRef { source, schema } = resolver.get(name)?;
    let Expr::DirectElement(de) = &**ret else { return None };
    let mut node = ShapeNode {
        element: de.name.clone(),
        source: source.clone(),
        table: schema.name.clone(),
        schema: schema.clone(),
        fields: Vec::new(),
        children: Vec::new(),
        unmapped: Vec::new(),
    };
    analyze_shape_content(de, &var.name, resolver, &mut node);
    Some(node)
}

fn analyze_shape_content(
    de: &DirectElement,
    var: &QName,
    resolver: &HashMap<QName, SourceRef>,
    node: &mut ShapeNode,
) {
    for content in &de.content {
        match content {
            DirectContent::Element(child) => {
                // A field element? (single fn:data($var/COL) content)
                if let Some(col) = single_field_column(child, var) {
                    node.fields.push(FieldMap {
                        element: child.name.local.to_string(),
                        column: col,
                    });
                    continue;
                }
                // A wrapper around a nested row shape?
                if let [DirectContent::Expr(inner)] = child.content.as_slice() {
                    if let Some(nested) = try_analyze_flwor(inner, resolver) {
                        node.children.push(ChildShape {
                            wrapper: Some(child.name.local.to_string()),
                            node: nested,
                        });
                        continue;
                    }
                }
                // Otherwise: unprovable provenance.
                node.unmapped.push(child.name.local.to_string());
            }
            DirectContent::Expr(e) => {
                // A bare embedded FLWOR constructing child elements
                // without a wrapper (Figure 3's CreditRating).
                if let Some(nested) = try_analyze_flwor(e, resolver) {
                    node.children.push(ChildShape { wrapper: None, node: nested });
                } else if let Some(elem) = constructed_element_name(e) {
                    node.unmapped.push(elem);
                }
            }
            _ => {}
        }
    }
}

/// Recognize `{fn:data($var/COL)}` (also fn:string, or the bare path)
/// as the only content of a field element; return the column name.
fn single_field_column(de: &DirectElement, var: &QName) -> Option<String> {
    let [DirectContent::Expr(e)] = de.content.as_slice() else { return None };
    let inner = match e {
        Expr::FunctionCall { name, args, .. }
            if (name.local == "data" || name.local == "string") && args.len() == 1 =>
        {
            &args[0]
        }
        other => other,
    };
    let Expr::Path { start: PathStart::Expr(base), steps } = inner else { return None };
    let Expr::VarRef(v) = &**base else { return None };
    if v.name != *var {
        return None;
    }
    match steps.as_slice() {
        [Step {
            axis: Axis::Child,
            test: xqparser::ast::NodeTest::Name(q),
            predicates,
        }] if predicates.is_empty() => Some(q.local.to_string()),
        _ => None,
    }
}

/// If the expression is a FLWOR returning a direct element (or a bare
/// constructor), the element's local name — used to label unmapped
/// output.
fn constructed_element_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Flwor { ret, .. } => constructed_element_name(ret),
        Expr::DirectElement(de) => Some(de.name.local.to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqparser::parser::parse_expr;

    fn resolver() -> HashMap<QName, SourceRef> {
        let table = |source: &str, name: &str| SourceRef {
            source: source.into(),
            schema: TableSchema {
                name: name.into(),
                columns: vec![],
                primary_key: vec![],
                foreign_keys: vec![],
            },
        };
        HashMap::from([
            (QName::with_ns("ld:db1/CUSTOMER", "CUSTOMER"), table("db1", "CUSTOMER")),
            (QName::with_ns("ld:db1/CUSTOMER", "getORDER"), table("db1", "ORDER")),
            (QName::with_ns("ld:db2/CREDIT_CARD", "CREDIT_CARD"), table("db2", "CREDIT_CARD")),
        ])
    }

    const NS: &[(&str, &str)] = &[
        ("cus", "ld:db1/CUSTOMER"),
        ("cre", "ld:db2/CREDIT_CARD"),
        ("ws", "urn:ws"),
    ];

    #[test]
    fn figure3_shape_analyzes() {
        let body = parse_expr(
            "for $CUSTOMER in cus:CUSTOMER() \
             return <CustomerProfile> \
               <CID>{fn:data($CUSTOMER/CID)}</CID> \
               <LAST_NAME>{fn:data($CUSTOMER/LAST_NAME)}</LAST_NAME> \
               <Orders>{ \
                 for $ORDER in cus:getORDER($CUSTOMER) \
                 return <ORDER> \
                   <OID>{fn:data($ORDER/OID)}</OID> \
                   <STATUS>{fn:data($ORDER/STATUS)}</STATUS> \
                 </ORDER> \
               }</Orders> \
               <Cards>{ \
                 for $CC in cre:CREDIT_CARD() \
                 where $CUSTOMER/CID eq $CC/CID \
                 return <CARD><CCID>{fn:data($CC/CCID)}</CCID></CARD> \
               }</Cards> \
               { for $r in ws:rate($CUSTOMER) return <Rating>{fn:data($r)}</Rating> } \
             </CustomerProfile>",
            NS,
        )
        .unwrap();
        let lin = analyze(&body, &resolver()).unwrap();
        let root = &lin.root;
        assert_eq!(root.table, "CUSTOMER");
        assert_eq!(root.source, "db1");
        assert_eq!(root.column_of("LAST_NAME"), Some("LAST_NAME"));
        assert_eq!(root.column_of("CID"), Some("CID"));
        assert_eq!(root.children.len(), 2);
        let orders = &root.children[0];
        assert_eq!(orders.wrapper.as_deref(), Some("Orders"));
        assert_eq!(orders.node.table, "ORDER");
        assert_eq!(orders.node.column_of("STATUS"), Some("STATUS"));
        let cards = &root.children[1];
        assert_eq!(cards.node.source, "db2");
        assert_eq!(cards.node.table, "CREDIT_CARD");
        // The web-service part is unmapped.
        assert_eq!(root.unmapped, vec!["Rating"]);
        // Sources deduped and sorted.
        assert_eq!(lin.sources(), vec!["db1", "db2"]);
    }

    #[test]
    fn renamed_fields_map_to_columns() {
        // <Total>{fn:data($O/TOTAL_ORDER_AMOUNT)}</Total> — element and
        // column names differ (Figure 3's TOTAL).
        let body = parse_expr(
            "for $C in cus:CUSTOMER() \
             return <P><Surname>{fn:data($C/LAST_NAME)}</Surname></P>",
            NS,
        )
        .unwrap();
        let lin = analyze(&body, &resolver()).unwrap();
        assert_eq!(lin.root.column_of("Surname"), Some("LAST_NAME"));
        assert_eq!(lin.root.element_of("LAST_NAME"), Some("Surname"));
    }

    #[test]
    fn computed_fields_are_unmapped() {
        let body = parse_expr(
            "for $C in cus:CUSTOMER() \
             return <P> \
               <CID>{fn:data($C/CID)}</CID> \
               <Label>{fn:concat($C/CID, '-', $C/LAST_NAME)}</Label> \
             </P>",
            NS,
        )
        .unwrap();
        let lin = analyze(&body, &resolver()).unwrap();
        assert_eq!(lin.root.fields.len(), 1);
        assert_eq!(lin.root.unmapped, vec!["Label"]);
    }

    #[test]
    fn unanalyzable_body_is_dsp0002() {
        let body = parse_expr("1 + 1", NS).unwrap();
        let err = analyze(&body, &resolver()).unwrap_err();
        assert!(err.is(ErrorCode::DSP0002));
        // A for over an unregistered function also fails.
        let body =
            parse_expr("for $x in ws:all() return <P><A>{fn:data($x/A)}</A></P>", NS)
                .unwrap();
        assert!(analyze(&body, &resolver()).is_err());
    }

    #[test]
    fn shape_for_element_finds_nested() {
        let body = parse_expr(
            "for $C in cus:CUSTOMER() \
             return <P><Orders>{for $O in cus:getORDER($C) \
                     return <O><OID>{fn:data($O/OID)}</OID></O>}</Orders></P>",
            NS,
        )
        .unwrap();
        let lin = analyze(&body, &resolver()).unwrap();
        assert!(lin.shape_for_element(&QName::new("P")).is_some());
        let o = lin.shape_for_element(&QName::new("O")).unwrap();
        assert_eq!(o.table, "ORDER");
        assert!(lin.shape_for_element(&QName::new("Nope")).is_none());
        assert_eq!(lin.all_shapes().len(), 2);
    }

    #[test]
    fn bare_path_fields_also_map() {
        // Without fn:data — still provably column-sourced.
        let body = parse_expr(
            "for $C in cus:CUSTOMER() return <P><CID>{$C/CID}</CID></P>",
            NS,
        )
        .unwrap();
        let lin = analyze(&body, &resolver()).unwrap();
        assert_eq!(lin.root.column_of("CID"), Some("CID"));
    }
}
