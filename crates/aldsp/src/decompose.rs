//! Update decomposition (§II.C).
//!
//! "An update operation enters ALDSP at runtime as a C/U/D call on a
//! data service … and is then decomposed into a set of lower-level
//! updates to be propagated to the affected sources." The change
//! summary plus the lineage of the primary read function determine
//! which rows of which tables in which sources are affected; the
//! optimistic-concurrency policy chooses the "sameness" predicates
//! conditioned into the generated `UPDATE … WHERE` statements; and the
//! whole operation executes under two-phase commit when several
//! sources are touched.
//!
//! Multi-source execution runs the *journaled* coordinator
//! ([`TwoPhaseCoordinator::run_journaled`]): every protocol point is
//! recorded in the space's [`crate::journal::CoordinatorJournal`]
//! before it advances, so a coordinator crash (injected
//! `FaultKind::CrashPoint`, surfacing as `aldsp:XA_COORD_CRASH`)
//! leaves enough state for [`DataSpace::recover`] to finish or undo
//! the transaction.

// This is the write path: a panic here poisons nothing (parking_lot)
// but still kills the submit mid-protocol without a journal record —
// everything must degrade through typed Results.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::{NodeHandle, NodeKind};
use xdm::qname::QName;

use crate::lineage::{Lineage, ShapeNode};
use crate::rel::{Condition, SqlValue, TableSchema, TwoPhaseCoordinator, TxOutcome, WriteOp};
use crate::sdo::DataGraph;
use crate::service::DataSpace;

/// The optimistic-concurrency policies of §II.C.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OccPolicy {
    /// "All values that were *read* must still be the same (at update
    /// time) as their original (read time) values."
    ReadValues,
    /// "All values that were *updated* must still be the same as their
    /// original values."
    UpdatedValues,
    /// "A *chosen subset* of the values that were read (such as a
    /// timestamp or a version id) must still be the same \[as\] their
    /// original values."
    ChosenSubset(Vec<String>),
}

/// A native update-override implementation.
pub type RustOverride = Rc<dyn Fn(&DataSpace, &DataGraph) -> XdmResult<()>>;

/// The update-override slot: ALDSP 2.5 required Java here; ALDSP 3.0's
/// XQSE makes it a procedure. The reproduction supports both a native
/// closure (the "Java" baseline) and an XQSE procedure by name.
#[derive(Clone)]
pub enum UpdateOverride {
    /// Default decomposition.
    None,
    /// A native override (models the Java update override of ALDSP
    /// 2.5).
    Rust(RustOverride),
    /// An XQSE procedure invoked with the serialized SDO datagraph.
    Procedure(QName),
}

/// A decomposed plan: per-source write batches.
#[derive(Debug, Clone, Default)]
pub struct DecompositionPlan {
    /// (source name, ops) batches.
    pub per_source: Vec<(String, Vec<WriteOp>)>,
}

impl DecompositionPlan {
    /// Total statement count.
    pub fn statement_count(&self) -> usize {
        self.per_source.iter().map(|(_, ops)| ops.len()).sum()
    }

    /// Number of distinct sources touched.
    pub fn source_count(&self) -> usize {
        self.per_source.len()
    }

    /// Rendered SQL, for observability.
    pub fn iter_sql(&self) -> impl Iterator<Item = String> + '_ {
        self.per_source.iter().flat_map(|(src, ops)| {
            ops.iter().map(move |op| format!("[{src}] {}", op.to_sql()))
        })
    }

    fn push(&mut self, source: &str, op: WriteOp) {
        match self.per_source.iter_mut().find(|(s, _)| s == source) {
            Some((_, ops)) => ops.push(op),
            None => self.per_source.push((source.to_string(), vec![op])),
        }
    }
}

/// One affected row during decomposition.
struct RowDelta {
    source: String,
    table: String,
    row_element: NodeHandle,
    shape_element: QName,
    /// column → (old lexical, new lexical)
    changed: Vec<(String, String, String)>,
}

/// Decompose a changed data graph into per-source conditioned updates.
pub fn decompose_update(
    lineage: &Lineage,
    graph: &DataGraph,
    policy: &OccPolicy,
) -> XdmResult<DecompositionPlan> {
    // Group changes by their containing row element.
    let mut rows: Vec<RowDelta> = Vec::new();
    for change in graph.changes() {
        let leaf = &change.node;
        let leaf_name = leaf
            .name()
            .map(|q| q.local)
            .ok_or_else(|| XdmError::new(ErrorCode::DSP0002, "change target unnamed"))?;
        // Walk up to the nearest element matching a lineage shape.
        let mut cur = Some(leaf.clone());
        let mut found: Option<(&ShapeNode, NodeHandle)> = None;
        while let Some(node) = cur {
            if node.kind() == NodeKind::Element {
                if let Some(name) = node.name() {
                    if let Some(shape) = lineage.shape_for_element(&name) {
                        found = Some((shape, node.clone()));
                        break;
                    }
                }
            }
            cur = node.parent();
        }
        let Some((shape, row_element)) = found else {
            return Err(XdmError::new(
                ErrorCode::DSP0002,
                format!("no lineage shape contains changed element {leaf_name}"),
            ));
        };
        let Some(column) = shape.column_of(&leaf_name) else {
            return Err(XdmError::new(
                ErrorCode::DSP0002,
                format!(
                    "element {leaf_name} of shape {} has no provable lineage; \
                     an update override is required",
                    shape.element
                ),
            ));
        };
        let new_value = leaf.string_value();
        let pos = match rows.iter().position(|r| r.row_element == row_element) {
            Some(p) => p,
            None => {
                rows.push(RowDelta {
                    source: shape.source.clone(),
                    table: shape.table.clone(),
                    row_element: row_element.clone(),
                    shape_element: shape.element.clone(),
                    changed: Vec::new(),
                });
                rows.len() - 1
            }
        };
        if let Some(delta) = rows.get_mut(pos) {
            delta.changed.push((column.to_string(), change.old.clone(), new_value));
        }
    }

    // Build one conditioned UPDATE per affected row.
    let mut plan = DecompositionPlan::default();
    for delta in rows {
        let shape = lineage.shape_for_element(&delta.shape_element).ok_or_else(|| {
            XdmError::new(
                ErrorCode::DSP0002,
                format!("lineage shape for element {} disappeared", delta.shape_element),
            )
        })?;
        plan.push(
            &delta.source,
            build_update(shape, &delta, graph, policy)?,
        );
    }
    Ok(plan)
}

/// Read a field's *original* (read-time) value from the row element:
/// the recorded old value if it was changed, else the current value.
fn original_field_value(
    graph: &DataGraph,
    row: &NodeHandle,
    element: &str,
) -> Option<String> {
    let node = row
        .children()
        .into_iter()
        .find(|c| c.name().map(|q| q.local.clone()).as_deref() == Some(element))?;
    Some(graph.old_value_of(&node).unwrap_or_else(|| node.string_value()))
}

fn typed(schema: &TableSchema, column: &str, lexical: &str) -> XdmResult<SqlValue> {
    let col = schema.column(column).ok_or_else(|| {
        XdmError::new(
            ErrorCode::DSP0002,
            format!("lineage column {column} missing from table {}", schema.name),
        )
    })?;
    SqlValue::parse(col.ty, lexical)
}

fn build_update(
    shape: &ShapeNode,
    delta: &RowDelta,
    graph: &DataGraph,
    policy: &OccPolicy,
) -> XdmResult<WriteOp> {
    let schema = &shape.schema;
    // SET: new values for changed columns.
    let mut set: Condition = Vec::new();
    for (col, _old, new) in &delta.changed {
        set.push((col.clone(), typed(schema, col, new)?));
    }
    // WHERE: primary key (original values) + policy predicates.
    let mut cond: Condition = Vec::new();
    for pk in &schema.primary_key {
        let elem = shape.element_of(pk).ok_or_else(|| {
            XdmError::new(
                ErrorCode::DSP0002,
                format!(
                    "primary key column {pk} of {} is not exposed by the shape; \
                     cannot identify the row",
                    delta.table
                ),
            )
        })?;
        let lex = original_field_value(graph, &delta.row_element, elem)
            .ok_or_else(|| {
                XdmError::new(
                    ErrorCode::DSP0002,
                    format!("instance lacks key element {elem}"),
                )
            })?;
        cond.push((pk.clone(), typed(schema, pk, &lex)?));
    }
    match policy {
        OccPolicy::UpdatedValues => {
            for (col, old, _new) in &delta.changed {
                if !cond.iter().any(|(c, _)| c == col) {
                    cond.push((col.clone(), typed(schema, col, old)?));
                }
            }
        }
        OccPolicy::ReadValues => {
            for f in &shape.fields {
                if cond.iter().any(|(c, _)| c == &f.column) {
                    continue;
                }
                if let Some(lex) =
                    original_field_value(graph, &delta.row_element, &f.element)
                {
                    cond.push((f.column.clone(), typed(schema, &f.column, &lex)?));
                }
            }
        }
        OccPolicy::ChosenSubset(cols) => {
            for col in cols {
                if cond.iter().any(|(c, _)| c == col) {
                    continue;
                }
                let elem = shape.element_of(col).ok_or_else(|| {
                    XdmError::new(
                        ErrorCode::DSP0002,
                        format!("chosen OCC column {col} is not exposed by the shape"),
                    )
                })?;
                if let Some(lex) =
                    original_field_value(graph, &delta.row_element, elem)
                {
                    cond.push((col.clone(), typed(schema, col, &lex)?));
                }
            }
        }
    }
    Ok(WriteOp::Update { table: delta.table.clone(), set, cond, expect_rows: 1 })
}

/// Execute a plan: single-source plans commit locally; multi-source
/// plans run the XA two-phase protocol (§II.C).
pub fn execute(space: &DataSpace, plan: DecompositionPlan) -> XdmResult<()> {
    let mut participants = Vec::new();
    for (source, ops) in plan.per_source {
        let db = space.database(&source).ok_or_else(|| {
            XdmError::new(ErrorCode::DSP0005, format!("unknown source {source}"))
        })?;
        participants.push((db, ops));
    }
    // Participants stay in plan order. Ordering across *sources* is
    // not a deadlock vector: prepare_raw/commit_branch release every
    // table-shard guard before returning, so no thread ever holds one
    // source's locks while blocking on another's — the canonical
    // sorted-name lock order lives one level down, on the table shards
    // within each source (rel.rs `affected_tables`). Preserving plan
    // order here keeps crash-point semantics deterministic: a fault
    // plan keyed on "the second branch's prepare" means the same
    // branch no matter what the sources are named.
    match participants.pop() {
        None => Ok(()),
        Some((db, ops)) if participants.is_empty() => db.execute(ops),
        Some(last) => {
            participants.push(last);
            // The journaled driver: protocol points are logged to the
            // space's coordinator journal and crash-injectable. A
            // crash (`Err(aldsp:XA_COORD_CRASH)`) propagates directly
            // — it is an infrastructure fault by construction, and
            // unlike an abort there is nothing tidy to report: sources
            // are divergent until `DataSpace::recover()` runs.
            let access = space.access();
            let injector = access.injector.clone();
            // The virtual clock rides along so Stall rules at protocol
            // points burn the request's deadline deterministically.
            let clock = access.resilience.as_ref().map(|r| r.lock().clock());
            match TwoPhaseCoordinator::new(participants)
                .run_journaled(&space.journal(), injector.as_ref(), clock.as_ref())?
            {
                TxOutcome::Committed => Ok(()),
                // Infrastructure faults (aldsp:SRC_*, aldsp:TX_ABORTED)
                // propagate with their typed code so an XQSE `catch
                // (aldsp:SRC_UNAVAILABLE …)` can discriminate them;
                // logical failures keep the seed's err:DSP0001 wrapper,
                // with the OCC taxonomy name attached as a diagnostic.
                TxOutcome::Aborted(err) => {
                    if crate::errors::is_infrastructure(&err) {
                        Err(err)
                    } else {
                        let diag = format!("caused by [{}]", err.code);
                        Err(XdmError::new(
                            ErrorCode::DSP0001,
                            format!("distributed update aborted: {}", err.message),
                        )
                        .diagnostics(vec![diag]))
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Create / delete decomposition for logical instances.
// ---------------------------------------------------------------------

/// Decompose a create of a full logical instance: insert the top-level
/// row, then nested child rows (parents before children for FK order).
pub fn decompose_create(
    lineage: &Lineage,
    instance: &NodeHandle,
) -> XdmResult<DecompositionPlan> {
    let mut plan = DecompositionPlan::default();
    create_rows(&lineage.root, instance, &mut plan)?;
    Ok(plan)
}

fn create_rows(
    shape: &ShapeNode,
    row_element: &NodeHandle,
    plan: &mut DecompositionPlan,
) -> XdmResult<()> {
    let schema = &shape.schema;
    let mut row = Vec::with_capacity(schema.columns.len());
    for col in &schema.columns {
        let lex = shape
            .element_of(&col.name)
            .and_then(|elem| {
                row_element
                    .children()
                    .into_iter()
                    .find(|c| c.name().map(|q| q.local.clone()).as_deref() == Some(elem))
            })
            .map(|n| n.string_value());
        match lex {
            Some(l) => row.push(SqlValue::parse(col.ty, &l)?),
            None => row.push(SqlValue::Null),
        }
    }
    plan.push(&shape.source, WriteOp::Insert { table: shape.table.clone(), row });
    // Nested children.
    for child in &shape.children {
        let containers: Vec<NodeHandle> = match &child.wrapper {
            Some(w) => row_element
                .children()
                .into_iter()
                .filter(|c| c.name().map(|q| q.local.clone()).as_deref() == Some(w))
                .collect(),
            None => vec![row_element.clone()],
        };
        for container in containers {
            for e in container.children() {
                if e.name().as_ref() == Some(&child.node.element) {
                    create_rows(&child.node, &e, plan)?;
                }
            }
        }
    }
    Ok(())
}

/// Decompose a delete of a logical instance: children first (FK
/// order), then the top-level row, identified by primary keys.
pub fn decompose_delete(
    lineage: &Lineage,
    instance: &NodeHandle,
) -> XdmResult<DecompositionPlan> {
    let mut ops: Vec<(String, WriteOp)> = Vec::new();
    delete_rows(&lineage.root, instance, &mut ops)?;
    // Children were collected after parents; reverse for FK safety.
    ops.reverse();
    let mut plan = DecompositionPlan::default();
    for (src, op) in ops {
        plan.push(&src, op);
    }
    Ok(plan)
}

fn delete_rows(
    shape: &ShapeNode,
    row_element: &NodeHandle,
    ops: &mut Vec<(String, WriteOp)>,
) -> XdmResult<()> {
    let schema = &shape.schema;
    let mut cond: Condition = Vec::new();
    for pk in &schema.primary_key {
        let elem = shape.element_of(pk).ok_or_else(|| {
            XdmError::new(
                ErrorCode::DSP0002,
                format!("primary key {pk} not exposed; cannot delete"),
            )
        })?;
        let lex = row_element
            .children()
            .into_iter()
            .find(|c| c.name().map(|q| q.local.clone()).as_deref() == Some(elem))
            .map(|n| n.string_value())
            .ok_or_else(|| {
                XdmError::new(
                    ErrorCode::DSP0002,
                    format!("instance lacks key element {elem}"),
                )
            })?;
        cond.push((pk.clone(), typed(schema, pk, &lex)?));
    }
    ops.push((
        shape.source.clone(),
        WriteOp::Delete { table: shape.table.clone(), cond, expect_rows: 1 },
    ));
    for child in &shape.children {
        let containers: Vec<NodeHandle> = match &child.wrapper {
            Some(w) => row_element
                .children()
                .into_iter()
                .filter(|c| c.name().map(|q| q.local.clone()).as_deref() == Some(w))
                .collect(),
            None => vec![row_element.clone()],
        };
        for container in containers {
            for e in container.children() {
                if e.name().as_ref() == Some(&child.node.element) {
                    delete_rows(&child.node, &e, ops)?;
                }
            }
        }
    }
    Ok(())
}
