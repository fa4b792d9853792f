//! The relational source simulator.
//!
//! ALDSP's physical layer speaks to JDBC databases; this module is the
//! closest in-process equivalent that exercises the same code paths:
//! schema metadata (columns, primary keys, foreign keys) driving
//! introspection, conditioned `UPDATE … WHERE` statements carrying the
//! optimistic-concurrency "sameness" predicates, constraint
//! enforcement, and **XA two-phase commit**.
//!
//! Concurrency model: the store is sharded per table — every table
//! sits behind its own `RwLock`, so readers of different tables (and
//! concurrent readers of the same table) never contend, while a
//! transactional write takes the affected tables' write locks in
//! **canonical (sorted-name) order** so two multi-table transactions
//! can never deadlock. A separate *prepared-lock table* (the
//! transaction-manager mutex) pins the rows touched by a
//! prepared-but-undecided transaction so a concurrent transaction
//! cannot slip between `prepare` and `commit` — the standard
//! presumed-abort XA discipline. Lock hierarchy: catalog (briefly, to
//! resolve table handles) → table shards in sorted name order → the
//! transaction-manager / read-cache leaf mutexes. No path acquires a
//! shard lock while holding a leaf mutex.

// The versioned-scan/secondary-index layer sits on every read path,
// and the branch commit/rollback path is replayed by crash recovery;
// both must degrade via Results, never panic: enforced at lint level
// (test-only unwraps are re-allowed on the tests module).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use xdm::datetime::{Date, DateTime};
use xdm::decimal::Decimal;
use xdm::error::{ErrorCode, XdmError, XdmResult};

use crate::fault::Op;
use crate::resilience::Access;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Integer,
    /// Exact decimal.
    Decimal,
    /// Variable-length string.
    Varchar,
    /// Boolean.
    Boolean,
    /// Calendar date.
    Date,
    /// Timestamp (second precision).
    Timestamp,
}

/// A typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Decimal.
    Dec(Decimal),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Date.
    Date(Date),
    /// Timestamp.
    Ts(DateTime),
}

impl SqlValue {
    /// The lexical form used by the XML row view.
    pub fn lexical(&self) -> String {
        match self {
            SqlValue::Null => String::new(),
            SqlValue::Int(i) => i.to_string(),
            SqlValue::Dec(d) => d.to_string(),
            SqlValue::Str(s) => s.clone(),
            SqlValue::Bool(b) => b.to_string(),
            SqlValue::Date(d) => d.to_string(),
            SqlValue::Ts(t) => t.to_string(),
        }
    }

    /// Parse a lexical form into a typed value (NULL for empty
    /// strings on non-varchar columns).
    pub fn parse(ty: ColumnType, s: &str) -> XdmResult<SqlValue> {
        if s.is_empty() && ty != ColumnType::Varchar {
            return Ok(SqlValue::Null);
        }
        Ok(match ty {
            ColumnType::Integer => SqlValue::Int(s.trim().parse().map_err(|_| {
                XdmError::new(ErrorCode::DSP0003, format!("bad INTEGER literal {s:?}"))
            })?),
            ColumnType::Decimal => SqlValue::Dec(Decimal::parse(s)?),
            ColumnType::Varchar => SqlValue::Str(s.to_string()),
            ColumnType::Boolean => match s.trim() {
                "true" | "1" => SqlValue::Bool(true),
                "false" | "0" => SqlValue::Bool(false),
                _ => {
                    return Err(XdmError::new(
                        ErrorCode::DSP0003,
                        format!("bad BOOLEAN literal {s:?}"),
                    ))
                }
            },
            ColumnType::Date => SqlValue::Date(Date::parse(s)?),
            ColumnType::Timestamp => SqlValue::Ts(DateTime::parse(s)?),
        })
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => write!(f, "NULL"),
            SqlValue::Str(s) => write!(f, "'{s}'"),
            other => write!(f, "{}", other.lexical()),
        }
    }
}

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Data type.
    pub ty: ColumnType,
    /// NOT NULL when false.
    pub nullable: bool,
}

impl Column {
    /// A NOT NULL column.
    pub fn required(name: &str, ty: ColumnType) -> Column {
        Column { name: name.to_string(), ty, nullable: false }
    }

    /// A nullable column.
    pub fn nullable(name: &str, ty: ColumnType) -> Column {
        Column { name: name.to_string(), ty, nullable: true }
    }
}

/// A foreign-key constraint: `columns` of this table reference
/// `ref_columns` of `ref_table`.
#[derive(Debug, Clone)]
pub struct ForeignKey {
    /// Constraint name (drives navigation-function naming).
    pub name: String,
    /// Referencing columns in this table.
    pub columns: Vec<String>,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced (key) columns.
    pub ref_columns: Vec<String>,
}

/// A table schema.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in order.
    pub columns: Vec<Column>,
    /// Primary-key column names.
    pub primary_key: Vec<String>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// Index of a column by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// A row: values in schema column order.
pub type Row = Vec<SqlValue>;

/// An equality condition: conjunction of `col = value` (this is all
/// the decomposer ever generates — PK identification plus OCC
/// "sameness" predicates).
pub type Condition = Vec<(String, SqlValue)>;

/// One buffered write operation of a transaction.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// INSERT INTO table VALUES (row).
    Insert {
        /// Target table.
        table: String,
        /// The new row in column order.
        row: Row,
    },
    /// UPDATE table SET set WHERE cond; must affect exactly
    /// `expect_rows` rows or the transaction aborts (the OCC check).
    Update {
        /// Target table.
        table: String,
        /// SET assignments.
        set: Condition,
        /// WHERE conjunction.
        cond: Condition,
        /// Expected match count (1 for keyed updates).
        expect_rows: usize,
    },
    /// DELETE FROM table WHERE cond.
    Delete {
        /// Target table.
        table: String,
        /// WHERE conjunction.
        cond: Condition,
        /// Expected match count.
        expect_rows: usize,
    },
}

impl WriteOp {
    fn table(&self) -> &str {
        match self {
            WriteOp::Insert { table, .. }
            | WriteOp::Update { table, .. }
            | WriteOp::Delete { table, .. } => table,
        }
    }

    /// Render as a SQL-ish string (diagnostics, EXPERIMENTS.md).
    pub fn to_sql(&self) -> String {
        let render_cond = |cond: &Condition| {
            cond.iter()
                .map(|(c, v)| format!("{c} = {v}"))
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        match self {
            WriteOp::Insert { table, row } => format!(
                "INSERT INTO {table} VALUES ({})",
                row.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
            ),
            WriteOp::Update { table, set, cond, .. } => format!(
                "UPDATE {table} SET {} WHERE {}",
                set.iter()
                    .map(|(c, v)| format!("{c} = {v}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                render_cond(cond)
            ),
            WriteOp::Delete { table, cond, .. } => {
                format!("DELETE FROM {table} WHERE {}", render_cond(cond))
            }
        }
    }
}

/// Transaction id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(pub u64);

static NEXT_TX: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh transaction id.
pub fn fresh_tx() -> TxId {
    TxId(NEXT_TX.fetch_add(1, Ordering::Relaxed))
}

#[derive(Debug)]
struct TableData {
    schema: TableSchema,
    rows: Vec<(u64, Row)>, // (row id, values); always sorted by row id
    next_row_id: u64,
    /// Monotonically increasing table version: bumped once per
    /// committed transaction that touches the table. Read functions
    /// key their materialized XDM trees on this, so unchanged tables
    /// never pay a re-conversion (ISSUE 2 tentpole part 2).
    version: u64,
    /// Lazily built secondary hash indexes: column name → value
    /// fingerprint → row ids. Built on the first indexed select of a
    /// column, maintained incrementally by `commit`, dropped wholesale
    /// by `rollback` (rebuilt on next use).
    indexes: HashMap<String, HashMap<String, Vec<u64>>>,
}

#[derive(Debug)]
struct Prepared {
    ops: Vec<WriteOp>,
    locked: HashSet<(String, u64)>,
    inserted_keys: Vec<(String, Vec<SqlValue>)>,
}

/// One table shard: the unit of reader/writer concurrency.
type TableHandle = Arc<RwLock<TableData>>;

/// Transaction-manager state: the prepared-lock table plus the
/// commit/abort counters. A leaf mutex in the lock hierarchy — no
/// path may acquire a table shard lock while holding it.
#[derive(Debug, Default)]
struct TxState {
    prepared: HashMap<TxId, Prepared>,
    commits: u64,
    aborts: u64,
}

#[derive(Debug, Default)]
struct DbShared {
    /// The catalog: table name → shard. Write-locked only by
    /// `create_table`; every data path takes a brief read lock to
    /// clone the shard handle and drops it before locking the shard.
    catalog: RwLock<HashMap<String, TableHandle>>,
    /// Table names in creation order (leaf mutex).
    table_order: Mutex<Vec<String>>,
    /// Transaction-manager state (leaf mutex).
    txm: Mutex<TxState>,
    /// Last successfully read snapshot per table (tagged with the
    /// table version *at snapshot time*), served as a marked-stale
    /// result when the source is unavailable and the resilience
    /// policy allows degraded reads. Stale consumers must key any
    /// derived caches on the snapshot's version, never the live one.
    /// Leaf mutex: held only for the map insert/lookup, never while a
    /// shard lock is being acquired.
    read_cache: Mutex<HashMap<String, (u64, Vec<Row>)>>,
}

/// Generation numbers for [`AccessSlot`]s are drawn from one global
/// counter, so a (slot address, generation) pair can never collide
/// across reallocated slots — the per-thread access cache keys on it.
static NEXT_ACCESS_GEN: AtomicU64 = AtomicU64::new(1);

/// The source's installed [`Access`] handle, readable without
/// contention: workers cache a private clone per thread keyed by the
/// slot's generation (bumped on every [`Database::set_access`]), so
/// the per-call path is one atomic load plus a thread-local lookup —
/// per-worker resilience state over shared breaker/injector cores
/// (the cores inside `Access` are `Arc`s, so a breaker trip observed
/// by one worker is seen by all).
#[derive(Debug)]
struct AccessSlot {
    /// 0 = never installed (fast path: `Access::none()` without
    /// touching the lock or the thread-local cache).
    gen: AtomicU64,
    slot: RwLock<Access>,
}

thread_local! {
    /// Per-thread access clones: slot address → (generation, Access).
    static ACCESS_CACHE: std::cell::RefCell<HashMap<usize, (u64, Access)>> =
        std::cell::RefCell::new(HashMap::new());
}

/// An in-memory relational database (one "source" in ALDSP terms).
///
/// Cloning shares the same underlying store (`Arc`).
///
/// Every externally visible operation is routed through the source's
/// [`Access`] handle (fault injection + retry/timeout/circuit
/// breaker); with no injector or policy installed the handle is a
/// pass-through. `commit`/`rollback` are deliberately *not* injectable
/// — once a branch votes yes in phase 1, phase 2 cannot fail (the XA
/// contract this simulator upholds).
#[derive(Debug, Clone)]
pub struct Database {
    /// The source name (e.g. `db1`).
    pub name: String,
    shared: Arc<DbShared>,
    access: Arc<AccessSlot>,
}

fn cerr(msg: impl Into<String>) -> XdmError {
    XdmError::new(ErrorCode::DSP0003, msg)
}

impl Database {
    /// Create an empty database.
    pub fn new(name: &str) -> Database {
        Database {
            name: name.to_string(),
            shared: Arc::new(DbShared::default()),
            access: Arc::new(AccessSlot {
                gen: AtomicU64::new(0),
                slot: RwLock::new(Access::none()),
            }),
        }
    }

    /// Resolve a table's shard handle (brief catalog read lock).
    fn table_handle(&self, table: &str) -> XdmResult<TableHandle> {
        self.shared
            .catalog
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| cerr(format!("no table {table} in {}", self.name)))
    }

    /// Install (or replace) the fault-injection / resilience handle
    /// for this source. Shared across clones: bumps the slot
    /// generation so every worker's thread-local clone refreshes on
    /// its next [`Database::access`] call.
    pub fn set_access(&self, access: Access) {
        *self.access.slot.write() = access;
        self.access
            .gen
            .store(NEXT_ACCESS_GEN.fetch_add(1, Ordering::Relaxed), Ordering::Release);
    }

    /// A snapshot of this source's access handle — the per-worker
    /// resilience state. The hot path is lock-free: one atomic
    /// generation load plus a thread-local cache lookup; only a
    /// generation change (a new handle installed) re-reads the shared
    /// slot. The breaker/injector cores inside the clone are `Arc`s,
    /// so they stay shared across all workers.
    pub fn access(&self) -> Access {
        let gen = self.access.gen.load(Ordering::Acquire);
        if gen == 0 {
            // Never installed: skip the cache entirely.
            return Access::none();
        }
        let key = Arc::as_ptr(&self.access) as usize;
        ACCESS_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            if let Some((g, a)) = c.get(&key) {
                if *g == gen {
                    return a.clone();
                }
            }
            let a = self.access.slot.read().clone();
            c.insert(key, (gen, a.clone()));
            a
        })
    }

    /// Create a table.
    pub fn create_table(&self, schema: TableSchema) -> XdmResult<()> {
        let mut catalog = self.shared.catalog.write();
        if catalog.contains_key(&schema.name) {
            return Err(cerr(format!("table {} already exists", schema.name)));
        }
        for pk in &schema.primary_key {
            if schema.col_index(pk).is_none() {
                return Err(cerr(format!("PK column {pk} not in table {}", schema.name)));
            }
        }
        self.shared.table_order.lock().push(schema.name.clone());
        catalog.insert(
            schema.name.clone(),
            Arc::new(RwLock::new(TableData {
                schema,
                rows: Vec::new(),
                next_row_id: 1,
                version: 1,
                indexes: HashMap::new(),
            })),
        );
        Ok(())
    }

    /// Table names in creation order.
    pub fn table_names(&self) -> Vec<String> {
        self.shared.table_order.lock().clone()
    }

    /// A table's schema.
    pub fn schema(&self, table: &str) -> XdmResult<TableSchema> {
        Ok(self.table_handle(table)?.read().schema.clone())
    }

    /// All rows of a table (committed state).
    ///
    /// Routed through the source's [`Access`] handle as a degradable
    /// read: if the source is unavailable (injected outage or open
    /// breaker) the last successfully read snapshot is served instead,
    /// counted in [`crate::ResilienceStats::stale_reads`].
    pub fn scan(&self, table: &str) -> XdmResult<Vec<Row>> {
        let access = self.access();
        access.run_read(
            &self.name,
            Op::Scan,
            || self.scan_raw(table),
            || self.cached_rows(table),
        )
    }

    fn scan_raw(&self, table: &str) -> XdmResult<Vec<Row>> {
        let h = self.table_handle(table)?;
        let (ver, rows) = {
            let t = h.read();
            let rows: Vec<Row> = t.rows.iter().map(|(_, r)| r.clone()).collect();
            (t.version, rows)
        };
        self.shared.read_cache.lock().insert(table.to_string(), (ver, rows.clone()));
        Ok(rows)
    }

    fn cached_rows(&self, table: &str) -> Option<Vec<Row>> {
        self.shared.read_cache.lock().get(table).map(|(_, rows)| rows.clone())
    }

    /// The table's current version counter (bumped once per committed
    /// transaction that touches it). This is catalog metadata, not a
    /// data read: it is deliberately *not* routed through the
    /// [`Access`] handle, so cache-validity probes neither trip fault
    /// injection nor count as source traffic.
    pub fn table_version(&self, table: &str) -> XdmResult<u64> {
        Ok(self.table_handle(table)?.read().version)
    }

    /// Versioned scan for materialization caching: returns the table
    /// version and, *only if* it differs from `known`, the rows. When
    /// the caller's cached version is still current, the row clone is
    /// skipped entirely — `(version, None)` means "your copy is good".
    ///
    /// Degrades like [`Database::scan`]: under an outage the last
    /// snapshot is served, tagged with the *snapshot's* version (never
    /// the live one), so stale-read consumers key derived caches
    /// correctly.
    pub fn scan_if_changed(
        &self,
        table: &str,
        known: Option<u64>,
    ) -> XdmResult<(u64, Option<Vec<Row>>)> {
        let access = self.access();
        access.run_read(
            &self.name,
            Op::Scan,
            || self.scan_if_changed_raw(table, known),
            || self.cached_rows_versioned(table, known),
        )
    }

    fn scan_if_changed_raw(
        &self,
        table: &str,
        known: Option<u64>,
    ) -> XdmResult<(u64, Option<Vec<Row>>)> {
        let h = self.table_handle(table)?;
        let (ver, rows) = {
            let t = h.read();
            if known == Some(t.version) {
                return Ok((t.version, None));
            }
            let rows: Vec<Row> = t.rows.iter().map(|(_, r)| r.clone()).collect();
            (t.version, rows)
        };
        self.shared.read_cache.lock().insert(table.to_string(), (ver, rows.clone()));
        Ok((ver, Some(rows)))
    }

    fn cached_rows_versioned(
        &self,
        table: &str,
        known: Option<u64>,
    ) -> Option<(u64, Option<Vec<Row>>)> {
        let cache = self.shared.read_cache.lock();
        let (ver, rows) = cache.get(table)?;
        if known == Some(*ver) {
            Some((*ver, None))
        } else {
            Some((*ver, Some(rows.clone())))
        }
    }

    /// Rows matching an equality condition (degradable read, like
    /// [`Database::scan`]).
    pub fn select(&self, table: &str, cond: &Condition) -> XdmResult<Vec<Row>> {
        let access = self.access();
        access.run_read(
            &self.name,
            Op::Select,
            || self.select_raw(table, cond),
            || self.cached_select(table, cond).map(|(_, rows)| rows),
        )
    }

    fn select_raw(&self, table: &str, cond: &Condition) -> XdmResult<Vec<Row>> {
        let h = self.table_handle(table)?;
        let (ver, all, hits) = {
            let t = h.read();
            let idx = cond_indices(&t.schema, cond)?;
            let all: Vec<Row> = t.rows.iter().map(|(_, r)| r.clone()).collect();
            let hits: Vec<Row> =
                all.iter().filter(|r| row_matches(r, &idx)).cloned().collect();
            (t.version, all, hits)
        };
        self.shared.read_cache.lock().insert(table.to_string(), (ver, all));
        Ok(hits)
    }

    /// The stale-read fallback of the selects: the last snapshot's
    /// matching rows, with the snapshot's version.
    fn cached_select(&self, table: &str, cond: &Condition) -> Option<(u64, Vec<Row>)> {
        let idx = {
            let h = self.table_handle(table).ok()?;
            let t = h.read();
            cond_indices(&t.schema, cond).ok()?
        };
        let cache = self.shared.read_cache.lock();
        let (ver, cached) = cache.get(table)?;
        Some((*ver, cached.iter().filter(|r| row_matches(r, &idx)).cloned().collect()))
    }

    /// Index-accelerated variant of [`Database::select`]: the first
    /// condition column with an indexable type (INTEGER, VARCHAR,
    /// BOOLEAN) and a non-NULL value probes a secondary hash index
    /// (built lazily on first use, maintained incrementally by
    /// `commit`); every candidate is then re-verified against the
    /// *full* condition, so results are always identical to a full
    /// scan. Falls back to a filtered scan when no condition column is
    /// indexable.
    ///
    /// This is the target of the FLWOR pushdown rewrite and the
    /// optimize-gated read paths; plain [`Database::select`] keeps the
    /// seed's full-scan behavior so `-opt` measurements stay honest.
    pub fn select_indexed(&self, table: &str, cond: &Condition) -> XdmResult<Vec<Row>> {
        self.select_indexed_versioned(table, cond).map(|(_, rows)| rows)
    }

    /// [`Database::select_indexed`] plus the version of the table the
    /// rows were served from: the live version, read under the same
    /// shard lock as the rows, or the snapshot's version when the read
    /// degrades to the stale snapshot (the rule
    /// [`Database::scan_if_changed`] follows). Keyed caches stamp their
    /// entries with it, so rows served from a stale snapshot never
    /// revalidate against the live table.
    pub fn select_indexed_versioned(
        &self,
        table: &str,
        cond: &Condition,
    ) -> XdmResult<(u64, Vec<Row>)> {
        let access = self.access();
        access.run_read(
            &self.name,
            Op::Select,
            || self.select_indexed_raw(table, cond),
            || self.cached_select(table, cond),
        )
    }

    fn select_indexed_raw(&self, table: &str, cond: &Condition) -> XdmResult<(u64, Vec<Row>)> {
        let h = self.table_handle(table)?;
        // Fast path under the shared lock: concurrent indexed readers
        // of the same table must not contend once the index exists.
        {
            let t = h.read();
            let idx = cond_indices(&t.schema, cond)?;
            let probe = index_probe(&t.schema, cond);
            let Some((col, fp)) = probe else {
                // No indexable column in the condition: plain filtered
                // scan (without refreshing the stale-read snapshot —
                // only full scans snapshot the table).
                return Ok((t.version, scan_matching(&t.rows, &idx)));
            };
            if let Some(map) = t.indexes.get(&col) {
                return Ok((t.version, probe_sorted_ids(&t.rows, map.get(&fp), &idx)));
            }
        }
        // Slow path: build the index under the exclusive lock, then
        // probe it (re-deriving everything — the table may have moved
        // between the lock releases).
        let mut t = h.write();
        let idx = cond_indices(&t.schema, cond)?;
        let Some((col, fp)) = index_probe(&t.schema, cond) else {
            return Ok((t.version, scan_matching(&t.rows, &idx)));
        };
        let TableData { schema, rows, indexes, version, .. } = &mut *t;
        if !indexes.contains_key(&col) {
            let built = build_index(schema, rows, &col);
            indexes.insert(col.clone(), built);
        }
        Ok((*version, probe_sorted_ids(rows, indexes.get(&col).and_then(|m| m.get(&fp)), &idx)))
    }

    /// Columns of `table` that currently have a built secondary index
    /// (diagnostics; `xqsh --explain`).
    pub fn indexed_columns(&self, table: &str) -> Vec<String> {
        self.table_handle(table)
            .map(|h| {
                let t = h.read();
                let mut cols: Vec<String> = t.indexes.keys().cloned().collect();
                cols.sort();
                cols
            })
            .unwrap_or_default()
    }

    /// Number of rows.
    pub fn row_count(&self, table: &str) -> XdmResult<usize> {
        self.shared
            .catalog
            .read()
            .get(table)
            .map(|h| h.read().rows.len())
            .ok_or_else(|| cerr(format!("no table {table}")))
    }

    /// Auto-commit convenience: run a batch of ops as a local
    /// transaction (prepare + commit immediately).
    ///
    /// Fault-injectable as one unit (`Op::Execute`): a retried
    /// transient fails *before* the prepare, so a retry can never
    /// double-apply the batch.
    pub fn execute(&self, ops: Vec<WriteOp>) -> XdmResult<()> {
        let access = self.access();
        access.run(&self.name, Op::Execute, || {
            let tx = fresh_tx();
            self.prepare_raw(tx, ops.clone())?;
            self.commit_branch(tx)?;
            Ok(())
        })
    }

    /// Insert a single row, auto-commit.
    pub fn insert(&self, table: &str, row: Row) -> XdmResult<()> {
        self.execute(vec![WriteOp::Insert { table: table.to_string(), row }])
    }

    /// Phase one of 2PC: validate every op (constraints, expected row
    /// counts, no conflict with other prepared transactions) and pin
    /// the touched rows. On success the transaction is durable-ready;
    /// on failure nothing is changed.
    pub fn prepare(&self, tx: TxId, ops: Vec<WriteOp>) -> XdmResult<()> {
        let access = self.access();
        access.run(&self.name, Op::Prepare, || self.prepare_raw(tx, ops.clone()))
    }

    fn prepare_raw(&self, tx: TxId, ops: Vec<WriteOp>) -> XdmResult<()> {
        // Canonical lock order: write-lock every affected table shard
        // in sorted name order (two transactions touching the same
        // tables in opposite declaration order therefore can never
        // deadlock), THEN take the transaction-manager mutex — never
        // the other way round.
        let names = affected_tables(&ops);
        let handles: Vec<TableHandle> = names
            .iter()
            .map(|n| {
                self.shared
                    .catalog
                    .read()
                    .get(n)
                    .cloned()
                    .ok_or_else(|| cerr(format!("no table {n}")))
            })
            .collect::<XdmResult<_>>()?;
        let mut guards: Vec<RwLockWriteGuard<'_, TableData>> =
            handles.iter().map(|h| h.write()).collect();
        let mut txm = self.shared.txm.lock();
        if txm.prepared.contains_key(&tx) {
            return Err(cerr(format!("transaction {tx:?} already prepared")));
        }
        // Collect locks already held by other prepared transactions.
        let held: HashSet<(String, u64)> = txm
            .prepared
            .values()
            .flat_map(|p| p.locked.iter().cloned())
            .collect();
        let mut locked = HashSet::new();
        let mut inserted_keys: Vec<(String, Vec<SqlValue>)> = Vec::new();
        // Pending inserts of other prepared txs also reserve PKs.
        let reserved_keys: HashSet<(String, String)> = txm
            .prepared
            .values()
            .flat_map(|p| p.inserted_keys.iter())
            .map(|(t, k)| (t.clone(), key_fingerprint(k)))
            .collect();
        for op in &ops {
            let ti = names
                .iter()
                .position(|n| n == op.table())
                .ok_or_else(|| cerr(format!("no table {}", op.table())))?;
            let t: &mut TableData = &mut guards[ti];
            match op {
                WriteOp::Insert { table, row } => {
                    validate_insert_shape(&t.schema, row)?;
                    let key = pk_values(&t.schema, row);
                    if !key.is_empty() {
                        let fp = key_fingerprint(&key);
                        let dup_existing = pk_dup_check(t, &key);
                        if dup_existing || reserved_keys.contains(&(table.clone(), fp)) {
                            return Err(XdmError::new(
                                ErrorCode::DSP0003,
                                format!(
                                    "primary key violation on {table}: ({})",
                                    key.iter()
                                        .map(|v| v.to_string())
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ),
                            ));
                        }
                        inserted_keys.push((table.clone(), key));
                    }
                }
                WriteOp::Update { table, set, cond, expect_rows } => {
                    let idx = cond_indices(&t.schema, cond)?;
                    // Validate SET column types/nullability.
                    for (c, v) in set {
                        let col = t
                            .schema
                            .column(c)
                            .ok_or_else(|| cerr(format!("no column {c} in {table}")))?;
                        if v.is_null() && !col.nullable {
                            return Err(cerr(format!("{table}.{c} is NOT NULL")));
                        }
                    }
                    let hits: Vec<u64> = t
                        .rows
                        .iter()
                        .filter(|(_, r)| row_matches(r, &idx))
                        .map(|(id, _)| *id)
                        .collect();
                    if hits.len() != *expect_rows {
                        return Err(XdmError::new(
                            ErrorCode::DSP0001,
                            format!(
                                "optimistic concurrency conflict: {} matched {} row(s), \
                                 expected {expect_rows}",
                                op.to_sql(),
                                hits.len()
                            ),
                        ));
                    }
                    for id in hits {
                        let key = (table.clone(), id);
                        if held.contains(&key) {
                            return Err(XdmError::new(
                                ErrorCode::DSP0004,
                                format!("row {id} of {table} locked by another transaction"),
                            ));
                        }
                        locked.insert(key);
                    }
                }
                WriteOp::Delete { table, cond, expect_rows } => {
                    let idx = cond_indices(&t.schema, cond)?;
                    let hits: Vec<u64> = t
                        .rows
                        .iter()
                        .filter(|(_, r)| row_matches(r, &idx))
                        .map(|(id, _)| *id)
                        .collect();
                    if hits.len() != *expect_rows {
                        return Err(XdmError::new(
                            ErrorCode::DSP0001,
                            format!(
                                "optimistic concurrency conflict: {} matched {} row(s), \
                                 expected {expect_rows}",
                                op.to_sql(),
                                hits.len()
                            ),
                        ));
                    }
                    for id in hits {
                        let key = (table.clone(), id);
                        if held.contains(&key) {
                            return Err(XdmError::new(
                                ErrorCode::DSP0004,
                                format!("row {id} of {table} locked by another transaction"),
                            ));
                        }
                        locked.insert(key);
                    }
                }
            }
        }
        txm.prepared.insert(tx, Prepared { ops, locked, inserted_keys });
        Ok(())
    }

    /// Phase two, **idempotent**: apply the branch prepared under
    /// `tx`. The coordinator and the recovery manager both commit
    /// through this.
    ///
    /// Returns `Ok(true)` when a prepared branch was applied,
    /// `Ok(false)` when nothing is prepared under `tx` — either the
    /// branch already committed (a replay after a crash between the
    /// source commit and the journal's `Committed` record) or it never
    /// prepared here. Replaying a decision any number of times is
    /// therefore safe: only the first call applies writes.
    ///
    /// Internal inconsistencies that prepare-time validation should
    /// make impossible (a table vanishing under a prepared op) surface
    /// as `aldsp:XA_REPLAY_FAILED` instead of panicking — the commit
    /// path must never poison the database lock.
    pub fn commit_branch(&self, tx: TxId) -> XdmResult<bool> {
        let replay_err = |what: &str| {
            crate::errors::AldspCode::XaReplayFailed.error(format!(
                "commit replay of {tx:?} on {}: {what} disappeared after prepare",
                self.name
            ))
        };
        // Peek the affected table set under the tx-manager lock, then
        // RELEASE it before taking shard locks (leaf mutexes are never
        // held across shard acquisition). The entry is claimed — i.e.
        // removed — only after the shards are write-locked, so a
        // concurrent duplicate commit_branch loses the race and
        // returns Ok(false).
        let names: Vec<String> = {
            let txm = self.shared.txm.lock();
            match txm.prepared.get(&tx) {
                Some(p) => affected_tables(&p.ops),
                None => return Ok(false),
            }
        };
        let handles: Vec<TableHandle> = names
            .iter()
            .map(|n| {
                self.shared
                    .catalog
                    .read()
                    .get(n)
                    .cloned()
                    .ok_or_else(|| replay_err(&format!("table {n}")))
            })
            .collect::<XdmResult<_>>()?;
        // Canonical order: `names` is sorted, so the write locks are
        // taken in the same global order as prepare_raw's.
        let mut guards: Vec<RwLockWriteGuard<'_, TableData>> =
            handles.iter().map(|h| h.write()).collect();
        let p = {
            let mut txm = self.shared.txm.lock();
            match txm.prepared.remove(&tx) {
                Some(p) => p,
                None => return Ok(false),
            }
        };
        let lookup = |table: &str| -> XdmResult<usize> {
            names
                .iter()
                .position(|n| n == table)
                .ok_or_else(|| replay_err(&format!("table {table}")))
        };
        let mut touched: Vec<String> = Vec::new();
        for op in p.ops {
            let tname = op.table().to_string();
            if !touched.contains(&tname) {
                touched.push(tname);
            }
            match op {
                WriteOp::Insert { table, row } => {
                    let ti = lookup(&table)?;
                    let t: &mut TableData = &mut guards[ti];
                    let TableData { schema, rows, next_row_id, indexes, .. } = &mut *t;
                    let id = *next_row_id;
                    *next_row_id += 1;
                    // Incrementally maintain any built secondary index.
                    for (col, map) in indexes.iter_mut() {
                        if let Some(ci) = schema.col_index(col) {
                            if let Some(fp) = index_fingerprint(&row[ci]) {
                                map.entry(fp).or_default().push(id);
                            }
                        }
                    }
                    rows.push((id, row));
                }
                WriteOp::Update { table, set, cond, .. } => {
                    let ti = lookup(&table)?;
                    let t: &mut TableData = &mut guards[ti];
                    let TableData { schema, rows, indexes, .. } = &mut *t;
                    let idx = cond_indices(schema, &cond)
                        .map_err(|_| replay_err("condition column"))?;
                    let sets: Vec<(usize, SqlValue)> = set
                        .iter()
                        .map(|(c, v)| {
                            schema
                                .col_index(c)
                                .map(|i| (i, v.clone()))
                                .ok_or_else(|| replay_err(&format!("column {c}")))
                        })
                        .collect::<XdmResult<_>>()?;
                    for (id, r) in rows.iter_mut() {
                        if !row_matches(r, &idx) {
                            continue;
                        }
                        // Capture old fingerprints of indexed columns,
                        // apply the SETs, then fix up changed entries.
                        let old: Vec<(String, Option<String>)> = indexes
                            .keys()
                            .map(|col| {
                                let fp = schema
                                    .col_index(col)
                                    .and_then(|ci| index_fingerprint(&r[ci]));
                                (col.clone(), fp)
                            })
                            .collect();
                        for (i, v) in &sets {
                            r[*i] = v.clone();
                        }
                        for (col, old_fp) in old {
                            let Some(ci) = schema.col_index(&col) else { continue };
                            let new_fp = index_fingerprint(&r[ci]);
                            if old_fp == new_fp {
                                continue;
                            }
                            let Some(map) = indexes.get_mut(&col) else { continue };
                            if let Some(fp) = old_fp {
                                if let Some(ids) = map.get_mut(&fp) {
                                    ids.retain(|x| x != id);
                                }
                            }
                            if let Some(fp) = new_fp {
                                map.entry(fp).or_default().push(*id);
                            }
                        }
                    }
                }
                WriteOp::Delete { table, cond, .. } => {
                    let ti = lookup(&table)?;
                    let t: &mut TableData = &mut guards[ti];
                    let TableData { schema, rows, indexes, .. } = &mut *t;
                    let idx = cond_indices(schema, &cond)
                        .map_err(|_| replay_err("condition column"))?;
                    rows.retain(|(id, r)| {
                        if !row_matches(r, &idx) {
                            return true;
                        }
                        for (col, map) in indexes.iter_mut() {
                            if let Some(fp) = schema
                                .col_index(col)
                                .and_then(|ci| index_fingerprint(&r[ci]))
                            {
                                if let Some(ids) = map.get_mut(&fp) {
                                    ids.retain(|x| x != id);
                                }
                            }
                        }
                        false
                    });
                }
            }
        }
        // One version bump per touched table per committed transaction:
        // this is what invalidates the materialization caches above.
        for table in touched {
            if let Some(ti) = names.iter().position(|n| *n == table) {
                guards[ti].version += 1;
            }
        }
        drop(guards);
        self.shared.txm.lock().commits += 1;
        Ok(true)
    }

    /// Abort a prepared (or never-prepared) transaction, **idempotent**:
    /// releases its locks and changes nothing else.
    /// Returns `true` when a prepared branch was actually released,
    /// `false` when nothing was prepared under `tx` (already rolled
    /// back, already committed, or never prepared here) — replaying a
    /// presumed abort is always safe.
    pub fn rollback_branch(&self, tx: TxId) -> bool {
        let p = {
            let mut txm = self.shared.txm.lock();
            match txm.prepared.remove(&tx) {
                Some(p) => {
                    txm.aborts += 1;
                    p
                }
                None => return false,
            }
        };
        // Conservative: drop the secondary indexes of every table
        // the aborted transaction *named*. The rows never changed
        // (writes are buffered until commit), so this is purely a
        // belt-and-braces measure — the indexes are rebuilt lazily
        // on the next indexed select. Versions are untouched: the
        // committed state is exactly what it was. Shard locks are
        // taken one at a time, after the tx-manager lock is released.
        for name in affected_tables(&p.ops) {
            if let Some(h) = self.shared.catalog.read().get(&name).cloned() {
                h.write().indexes.clear();
            }
        }
        true
    }

    /// Is the transaction currently in prepared state?
    pub fn is_prepared(&self, tx: TxId) -> bool {
        self.shared.txm.lock().prepared.contains_key(&tx)
    }

    /// (commits, aborts) counters — used by the XA experiments.
    pub fn stats(&self) -> (u64, u64) {
        let txm = self.shared.txm.lock();
        (txm.commits, txm.aborts)
    }
}

/// Sorted, deduplicated table names touched by a write set — the
/// canonical shard-lock acquisition order shared by `prepare_raw` and
/// `commit_branch`.
fn affected_tables(ops: &[WriteOp]) -> Vec<String> {
    let mut names: Vec<String> = ops.iter().map(|op| op.table().to_string()).collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn validate_insert_shape(schema: &TableSchema, row: &Row) -> XdmResult<()> {
    if row.len() != schema.columns.len() {
        return Err(cerr(format!(
            "row arity {} does not match table {} ({} columns)",
            row.len(),
            schema.name,
            schema.columns.len()
        )));
    }
    for (col, val) in schema.columns.iter().zip(row) {
        if val.is_null() {
            if !col.nullable {
                return Err(cerr(format!("{}.{} is NOT NULL", schema.name, col.name)));
            }
            continue;
        }
        let ok = matches!(
            (col.ty, val),
            (ColumnType::Integer, SqlValue::Int(_))
                | (ColumnType::Decimal, SqlValue::Dec(_))
                | (ColumnType::Decimal, SqlValue::Int(_))
                | (ColumnType::Varchar, SqlValue::Str(_))
                | (ColumnType::Boolean, SqlValue::Bool(_))
                | (ColumnType::Date, SqlValue::Date(_))
                | (ColumnType::Timestamp, SqlValue::Ts(_))
        );
        if !ok {
            return Err(cerr(format!(
                "type mismatch for {}.{}: {:?}",
                schema.name, col.name, val
            )));
        }
    }
    Ok(())
}

fn pk_values(schema: &TableSchema, row: &Row) -> Vec<SqlValue> {
    schema
        .primary_key
        .iter()
        .filter_map(|c| schema.col_index(c).map(|i| row[i].clone()))
        .collect()
}

fn key_fingerprint(key: &[SqlValue]) -> String {
    key.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\u{1}")
}

/// Does a committed row with primary key `key` already exist?
///
/// A single-column indexable PK probes the secondary hash index —
/// built lazily here if absent, exactly like indexed selects, and
/// maintained incrementally by `commit` afterwards. This turns the
/// per-insert duplicate check from O(rows) into O(1), which is the
/// difference between O(n²) and O(n) for fixture loads and the
/// paper's iterate-over-create loops (use case 3 / E3). Candidates
/// are always re-verified against the actual key values, and
/// multi-column, non-indexable, or NULL-bearing keys fall back to the
/// full scan, so the answer is identical in every case.
fn pk_dup_check(t: &mut TableData, key: &[SqlValue]) -> bool {
    if let [pk_col] = &t.schema.primary_key[..] {
        let pk_col = pk_col.clone();
        let pk_indexable = t
            .schema
            .column(&pk_col)
            .map(|c| indexable_type(c.ty))
            .unwrap_or(false);
        if pk_indexable {
            if let Some(fp) = index_fingerprint(&key[0]) {
                let TableData { schema, rows, indexes, .. } = t;
                let map = indexes
                    .entry(pk_col.clone())
                    .or_insert_with(|| build_index(schema, rows, &pk_col));
                return map.get(&fp).is_some_and(|ids| {
                    ids.iter().any(|id| {
                        rows.binary_search_by_key(id, |(rid, _)| *rid)
                            .map(|pos| pk_values(schema, &rows[pos].1) == key)
                            .unwrap_or(false)
                    })
                });
            }
        }
    }
    t.rows.iter().any(|(_, r)| pk_values(&t.schema, r) == key)
}

fn cond_indices(
    schema: &TableSchema,
    cond: &Condition,
) -> XdmResult<Vec<(usize, SqlValue)>> {
    cond.iter()
        .map(|(c, v)| {
            schema
                .col_index(c)
                .map(|i| (i, v.clone()))
                .ok_or_else(|| cerr(format!("no column {c} in {}", schema.name)))
        })
        .collect()
}

fn row_matches(row: &Row, idx: &[(usize, SqlValue)]) -> bool {
    idx.iter().all(|(i, v)| &row[*i] == v)
}

/// The rows matching `idx`, found by scanning, in row-id order.
fn scan_matching(rows: &[(u64, Row)], idx: &[(usize, SqlValue)]) -> Vec<Row> {
    rows.iter().filter(|(_, r)| row_matches(r, idx)).map(|(_, r)| r.clone()).collect()
}

/// Column types eligible for secondary hash indexes. DECIMAL is
/// excluded on purpose: its equality is *numeric* (manual `PartialEq`
/// — `1.0 == 1.00`), so a lexical fingerprint would split equal values
/// across buckets and produce false negatives. DATE/TIMESTAMP are
/// excluded to keep fingerprints trivially canonical.
fn indexable_type(ty: ColumnType) -> bool {
    matches!(ty, ColumnType::Integer | ColumnType::Varchar | ColumnType::Boolean)
}

/// Canonical hash-bucket key for an indexable value. NULL returns
/// `None` (NULL rows are not indexed; conditions on NULL fall back to
/// a filtered scan so `NULL = NULL` matching keeps the seed
/// semantics), as does any value of a non-indexable type.
fn index_fingerprint(v: &SqlValue) -> Option<String> {
    match v {
        SqlValue::Int(i) => Some(format!("i{i}")),
        SqlValue::Str(s) => Some(format!("s{s}")),
        SqlValue::Bool(b) => Some(format!("b{b}")),
        _ => None,
    }
}

/// First condition column with an indexable type (INTEGER, VARCHAR,
/// BOOLEAN) and a non-NULL probe value, as `(column, fingerprint)`.
/// `None` sends the caller down the filtered-scan path.
fn index_probe(schema: &TableSchema, cond: &Condition) -> Option<(String, String)> {
    cond.iter().find_map(|(c, v)| {
        let col = schema.column(c)?;
        if !indexable_type(col.ty) {
            return None;
        }
        index_fingerprint(v).map(|fp| (c.clone(), fp))
    })
}

/// Probe a secondary-index bucket and re-verify every candidate
/// against the full condition. Results come back in table (row-id)
/// order, exactly like a full scan: buckets accumulate in maintenance
/// order, so the ids are sorted first.
fn probe_sorted_ids(
    rows: &[(u64, Row)],
    ids: Option<&Vec<u64>>,
    idx: &[(usize, SqlValue)],
) -> Vec<Row> {
    let mut ids = ids.cloned().unwrap_or_default();
    ids.sort_unstable();
    let mut hits = Vec::new();
    for id in ids {
        // `rows` is always sorted by row id (ids are allocated
        // monotonically and deletes preserve order).
        if let Ok(pos) = rows.binary_search_by_key(&id, |(rid, _)| *rid) {
            let (_, r) = &rows[pos];
            if row_matches(r, idx) {
                hits.push(r.clone());
            }
        }
    }
    hits
}

fn build_index(
    schema: &TableSchema,
    rows: &[(u64, Row)],
    col: &str,
) -> HashMap<String, Vec<u64>> {
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    if let Some(ci) = schema.col_index(col) {
        for (id, r) in rows {
            if let Some(fp) = index_fingerprint(&r[ci]) {
                map.entry(fp).or_default().push(*id);
            }
        }
    }
    map
}

// ---------------------------------------------------------------- 2PC

/// Outcome of a coordinated transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum TxOutcome {
    /// All participants committed.
    Committed,
    /// All participants rolled back. Carries the typed error that
    /// caused the abort so callers (and ultimately XQSE `catch`
    /// clauses) can discriminate an infrastructure outage from an OCC
    /// conflict from a constraint violation.
    Aborted(XdmError),
}

/// A two-phase-commit coordinator over multiple [`Database`]
/// participants (§II.C: XA across the affected sources).
pub struct TwoPhaseCoordinator {
    participants: Vec<(Database, Vec<WriteOp>)>,
}

impl TwoPhaseCoordinator {
    /// Build a coordinator over per-source op batches.
    pub fn new(participants: Vec<(Database, Vec<WriteOp>)>) -> TwoPhaseCoordinator {
        TwoPhaseCoordinator { participants }
    }

    /// Run the protocol with every point journaled and crash-injectable
    /// — the one coordinator, behind multi-source `decompose::execute`.
    ///
    /// Each protocol point is (a) recorded in the coordinator journal
    /// *before* the protocol advances, and (b) followed by a crash
    /// check against the fault injector, keyed by the XA ops
    /// ([`Op::XaBegin`] on `"coordinator"`, [`Op::XaPrepared`] per
    /// branch, [`Op::XaDecide`] on `"coordinator"`, [`Op::XaCommit`]
    /// per branch). For N participants that is `2N + 2` injectable
    /// points. A firing `FaultKind::CrashPoint` makes this return
    /// `Err(aldsp:XA_COORD_CRASH)` **without any cleanup** — prepared
    /// branches keep their locks, committed branches keep their writes
    /// — exactly the divergence [`crate::journal::RecoveryManager`]
    /// exists to resolve.
    ///
    /// An ordinary prepare failure aborts tidily: roll back the
    /// prepared branches, journal `Aborted`, return
    /// `Ok(TxOutcome::Aborted)`.
    ///
    /// **Budgets and cancellation.** At every *pre-decision* point
    /// (after `Begin`, after each `Prepared`, and immediately before
    /// the `CommitDecision` force-write) the coordinator consults the
    /// thread-local request budget: an expired deadline or an external
    /// cancel aborts tidily — prepared branches are rolled back, an
    /// `Aborted` record is journaled, and the budget error rides out in
    /// `Ok(TxOutcome::Aborted)`. Once the decision is journaled the
    /// transaction is past the point of no return and commits to
    /// completion regardless of the budget — a half-committed
    /// transaction is worse than a late one. A `FaultKind::Stall` rule
    /// at a protocol point advances `clock` before the budget is
    /// consulted, which is how the chaos matrix expires a deadline at
    /// an exact protocol step.
    pub fn run_journaled(
        self,
        journal: &crate::journal::CoordinatorJournal,
        injector: Option<&Arc<Mutex<crate::fault::FaultInjector>>>,
        clock: Option<&crate::resilience::VirtualClock>,
    ) -> XdmResult<TxOutcome> {
        use crate::journal::XaRecord;

        // Consult the injector at a protocol point. Crash verdicts
        // unwind with no cleanup; Stall verdicts advance the virtual
        // clock (burning the request's deadline) and continue.
        // Error/delay kinds aimed at source ops are injected inside
        // `Database::prepare` (via Access::run) as before, not at
        // coordinator points.
        let point_check = |source: &str, op: Op| -> XdmResult<()> {
            match injector.and_then(|inj| inj.lock().on_call(source, op)) {
                Some(crate::fault::Injected::Crash) => {
                    Err(crate::errors::AldspCode::XaCoordCrash
                        .error(format!("coordinator crashed at {op} ({source})")))
                }
                Some(crate::fault::Injected::Stall(ms)) => {
                    if let Some(c) = clock {
                        c.advance(ms);
                    }
                    Ok(())
                }
                _ => Ok(()),
            }
        };
        // The budget verdict at a pre-decision point, if any.
        let budget_err = || xqeval::budget::current_budget().and_then(|b| b.check().err());

        let tx = fresh_tx();
        let xid = tx.0;
        let branches: Vec<String> =
            self.participants.iter().map(|(db, _)| db.name.clone()).collect();
        // Tidy pre-decision abort: release every prepared branch and
        // journal the decision so recovery has nothing to presume.
        let abort_with = |prepared: &[&Database], e: XdmError| -> XdmResult<TxOutcome> {
            for p in prepared {
                p.rollback_branch(tx);
            }
            journal.append(XaRecord::Aborted { xid })?;
            Ok(TxOutcome::Aborted(e))
        };

        journal.append(XaRecord::Begin { xid, branches })?;
        point_check("coordinator", Op::XaBegin)?;
        if let Some(e) = budget_err() {
            return abort_with(&[], e);
        }

        // Phase 1: prepare every branch, journaling each yes-vote.
        let mut prepared: Vec<&Database> = Vec::new();
        for (db, ops) in &self.participants {
            match db.prepare(tx, ops.clone()) {
                Ok(()) => prepared.push(db),
                // A no-vote is not a crash: abort tidily.
                Err(e) => return abort_with(&prepared, e),
            }
            journal.append(XaRecord::Prepared { xid, source: db.name.clone() })?;
            // A crash here leaves this branch (and every earlier one)
            // holding prepared locks with no decision journaled —
            // recovery presumes abort.
            point_check(&db.name, Op::XaPrepared)?;
            if let Some(e) = budget_err() {
                return abort_with(&prepared, e);
            }
        }

        // Last chance to cancel: once the decision is journaled the
        // transaction commits no matter what the budget says.
        if let Some(e) = budget_err() {
            return abort_with(&prepared, e);
        }
        // The point of no return.
        journal.append(XaRecord::CommitDecision { xid })?;
        point_check("coordinator", Op::XaDecide)?;

        // Phase 2: commit every branch, journaling each completion.
        for (db, _) in &self.participants {
            db.commit_branch(tx)?;
            // A crash here: the branch is committed at the source but
            // its Committed record is missing — recovery replays the
            // decision, and the branch's idempotent commit absorbs it.
            point_check(&db.name, Op::XaCommit)?;
            journal.append(XaRecord::Committed { xid, source: db.name.clone() })?;
        }
        Ok(TxOutcome::Committed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::journal::CoordinatorJournal;

    fn people_schema() -> TableSchema {
        TableSchema {
            name: "PEOPLE".into(),
            columns: vec![
                Column::required("ID", ColumnType::Integer),
                Column::required("NAME", ColumnType::Varchar),
                Column::nullable("AGE", ColumnType::Integer),
            ],
            primary_key: vec!["ID".into()],
            foreign_keys: vec![],
        }
    }

    fn db_with_people() -> Database {
        let db = Database::new("db1");
        db.create_table(people_schema()).unwrap();
        db.insert(
            "PEOPLE",
            vec![SqlValue::Int(1), SqlValue::Str("ann".into()), SqlValue::Int(30)],
        )
        .unwrap();
        db.insert(
            "PEOPLE",
            vec![SqlValue::Int(2), SqlValue::Str("bob".into()), SqlValue::Null],
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_scan_select() {
        let db = db_with_people();
        assert_eq!(db.row_count("PEOPLE").unwrap(), 2);
        let rows = db
            .select("PEOPLE", &vec![("NAME".into(), SqlValue::Str("ann".into()))])
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], SqlValue::Int(1));
    }

    #[test]
    fn inserts_check_primary_keys_through_the_index() {
        // Never introspected: no engine has touched this database.
        let db = db_with_people();
        assert_eq!(db.indexed_columns("PEOPLE"), vec!["ID".to_string()]);
        let err = db
            .insert(
                "PEOPLE",
                vec![SqlValue::Int(2), SqlValue::Str("dup".into()), SqlValue::Null],
            )
            .unwrap_err();
        assert!(err.is(ErrorCode::DSP0003));
        assert!(err.message.contains("primary key violation"), "{err}");
        assert_eq!(db.row_count("PEOPLE").unwrap(), 2);
    }

    #[test]
    fn pk_violation_rejected() {
        let db = db_with_people();
        let err = db
            .insert(
                "PEOPLE",
                vec![SqlValue::Int(1), SqlValue::Str("dup".into()), SqlValue::Null],
            )
            .unwrap_err();
        assert!(err.is(ErrorCode::DSP0003));
        assert_eq!(db.row_count("PEOPLE").unwrap(), 2);
    }

    #[test]
    fn not_null_and_type_checks() {
        let db = db_with_people();
        assert!(db
            .insert("PEOPLE", vec![SqlValue::Int(3), SqlValue::Null, SqlValue::Null])
            .is_err());
        assert!(db
            .insert(
                "PEOPLE",
                vec![SqlValue::Str("x".into()), SqlValue::Str("n".into()), SqlValue::Null]
            )
            .is_err());
        assert!(db
            .insert("PEOPLE", vec![SqlValue::Int(3), SqlValue::Str("n".into())])
            .is_err()); // arity
    }

    #[test]
    fn conditioned_update_and_expected_rows() {
        let db = db_with_people();
        // The OCC-style conditioned update: matches → applies.
        db.execute(vec![WriteOp::Update {
            table: "PEOPLE".into(),
            set: vec![("NAME".into(), SqlValue::Str("ANN".into()))],
            cond: vec![
                ("ID".into(), SqlValue::Int(1)),
                ("NAME".into(), SqlValue::Str("ann".into())),
            ],
            expect_rows: 1,
        }])
        .unwrap();
        let rows = db
            .select("PEOPLE", &vec![("ID".into(), SqlValue::Int(1))])
            .unwrap();
        assert_eq!(rows[0][1], SqlValue::Str("ANN".into()));
        // Stale condition → DSP0001 conflict, nothing applied.
        let err = db
            .execute(vec![WriteOp::Update {
                table: "PEOPLE".into(),
                set: vec![("NAME".into(), SqlValue::Str("X".into()))],
                cond: vec![
                    ("ID".into(), SqlValue::Int(1)),
                    ("NAME".into(), SqlValue::Str("ann".into())), // stale
                ],
                expect_rows: 1,
            }])
            .unwrap_err();
        assert!(err.is(ErrorCode::DSP0001));
    }

    #[test]
    fn delete_with_condition() {
        let db = db_with_people();
        db.execute(vec![WriteOp::Delete {
            table: "PEOPLE".into(),
            cond: vec![("ID".into(), SqlValue::Int(2))],
            expect_rows: 1,
        }])
        .unwrap();
        assert_eq!(db.row_count("PEOPLE").unwrap(), 1);
    }

    #[test]
    fn transaction_atomicity_on_failure() {
        let db = db_with_people();
        // Second op fails at prepare → first op must not apply.
        let err = db
            .execute(vec![
                WriteOp::Insert {
                    table: "PEOPLE".into(),
                    row: vec![SqlValue::Int(9), SqlValue::Str("new".into()), SqlValue::Null],
                },
                WriteOp::Update {
                    table: "PEOPLE".into(),
                    set: vec![("NAME".into(), SqlValue::Str("X".into()))],
                    cond: vec![("ID".into(), SqlValue::Int(404))],
                    expect_rows: 1,
                },
            ])
            .unwrap_err();
        assert!(err.is(ErrorCode::DSP0001));
        assert_eq!(db.row_count("PEOPLE").unwrap(), 2);
    }

    #[test]
    fn prepared_rows_are_locked() {
        let db = db_with_people();
        let t1 = fresh_tx();
        db.prepare(
            t1,
            vec![WriteOp::Update {
                table: "PEOPLE".into(),
                set: vec![("AGE".into(), SqlValue::Int(31))],
                cond: vec![("ID".into(), SqlValue::Int(1))],
                expect_rows: 1,
            }],
        )
        .unwrap();
        // A second transaction touching the same row is refused.
        let t2 = fresh_tx();
        let err = db
            .prepare(
                t2,
                vec![WriteOp::Update {
                    table: "PEOPLE".into(),
                    set: vec![("AGE".into(), SqlValue::Int(99))],
                    cond: vec![("ID".into(), SqlValue::Int(1))],
                    expect_rows: 1,
                }],
            )
            .unwrap_err();
        assert!(err.is(ErrorCode::DSP0004));
        // After commit, t2 can retry (but the OCC cond may now differ).
        assert!(db.commit_branch(t1).unwrap());
        assert!(!db.is_prepared(t1));
        db.prepare(
            t2,
            vec![WriteOp::Update {
                table: "PEOPLE".into(),
                set: vec![("AGE".into(), SqlValue::Int(99))],
                cond: vec![("ID".into(), SqlValue::Int(1))],
                expect_rows: 1,
            }],
        )
        .unwrap();
        assert!(db.rollback_branch(t2));
        let rows = db.select("PEOPLE", &vec![("ID".into(), SqlValue::Int(1))]).unwrap();
        assert_eq!(rows[0][2], SqlValue::Int(31));
    }

    #[test]
    fn concurrent_inserts_same_pk_conflict_at_prepare() {
        let db = db_with_people();
        let t1 = fresh_tx();
        let t2 = fresh_tx();
        let row = |n: &str| {
            vec![SqlValue::Int(7), SqlValue::Str(n.into()), SqlValue::Null]
        };
        db.prepare(t1, vec![WriteOp::Insert { table: "PEOPLE".into(), row: row("a") }])
            .unwrap();
        let err = db
            .prepare(t2, vec![WriteOp::Insert { table: "PEOPLE".into(), row: row("b") }])
            .unwrap_err();
        assert!(err.is(ErrorCode::DSP0003));
        assert!(db.rollback_branch(t1));
    }

    fn two_dbs() -> (Database, Database) {
        let db1 = db_with_people();
        let db2 = Database::new("db2");
        db2.create_table(TableSchema {
            name: "AUDIT".into(),
            columns: vec![
                Column::required("ID", ColumnType::Integer),
                Column::required("WHAT", ColumnType::Varchar),
            ],
            primary_key: vec!["ID".into()],
            foreign_keys: vec![],
        })
        .unwrap();
        (db1, db2)
    }

    fn audit_insert(id: i64) -> WriteOp {
        WriteOp::Insert {
            table: "AUDIT".into(),
            row: vec![SqlValue::Int(id), SqlValue::Str("update".into())],
        }
    }

    fn people_update() -> WriteOp {
        WriteOp::Update {
            table: "PEOPLE".into(),
            set: vec![("AGE".into(), SqlValue::Int(31))],
            cond: vec![("ID".into(), SqlValue::Int(1))],
            expect_rows: 1,
        }
    }

    #[test]
    fn two_phase_commit_happy_path() {
        let (db1, db2) = two_dbs();
        let outcome = TwoPhaseCoordinator::new(vec![
            (db1.clone(), vec![people_update()]),
            (db2.clone(), vec![audit_insert(1)]),
        ])
        .run_journaled(&CoordinatorJournal::new(), None, None)
        .unwrap();
        assert_eq!(outcome, TxOutcome::Committed);
        assert_eq!(db2.row_count("AUDIT").unwrap(), 1);
        let rows = db1.select("PEOPLE", &vec![("ID".into(), SqlValue::Int(1))]).unwrap();
        assert_eq!(rows[0][2], SqlValue::Int(31));
    }

    #[test]
    fn two_phase_commit_aborts_all_on_one_failure() {
        let (db1, db2) = two_dbs();
        // db2 op fails (duplicate PK after a first insert).
        db2.insert("AUDIT", vec![SqlValue::Int(1), SqlValue::Str("x".into())]).unwrap();
        let outcome = TwoPhaseCoordinator::new(vec![
            (db1.clone(), vec![people_update()]),
            (db2.clone(), vec![audit_insert(1)]),
        ])
        .run_journaled(&CoordinatorJournal::new(), None, None)
        .unwrap();
        assert!(matches!(outcome, TxOutcome::Aborted(_)));
        // db1's branch rolled back: age unchanged.
        let rows = db1.select("PEOPLE", &vec![("ID".into(), SqlValue::Int(1))]).unwrap();
        assert_eq!(rows[0][2], SqlValue::Int(30));
        // And no lingering prepared state.
        let t = fresh_tx();
        db1.prepare(t, vec![people_update()]).unwrap();
        assert!(db1.rollback_branch(t));
    }

    #[test]
    fn crash_at_every_protocol_point_recovers_atomically() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
        use crate::journal::RecoveryManager;
        // The 2N + 2 protocol points of a two-branch transaction.
        for (source, op) in [
            ("coordinator", Op::XaBegin),
            ("db1", Op::XaPrepared),
            ("db2", Op::XaPrepared),
            ("coordinator", Op::XaDecide),
            ("db1", Op::XaCommit),
            ("db2", Op::XaCommit),
        ] {
            let (db1, db2) = two_dbs();
            let journal = CoordinatorJournal::new();
            let injector = Arc::new(Mutex::new(FaultInjector::new(
                FaultPlan::new().rule(FaultRule::new(source, op, FaultKind::CrashPoint)),
            )));
            TwoPhaseCoordinator::new(vec![
                (db1.clone(), vec![people_update()]),
                (db2.clone(), vec![audit_insert(1)]),
            ])
            .run_journaled(&journal, Some(&injector), None)
            .unwrap_err();
            let stats = RecoveryManager::new(&journal)
                .recover(|name| [&db1, &db2].into_iter().find(|db| db.name == name).cloned())
                .unwrap();
            // Atomicity: both applied (decision journaled) or neither.
            let age = db1
                .select("PEOPLE", &vec![("ID".into(), SqlValue::Int(1))])
                .unwrap()[0][2]
                .clone();
            let audits = db2.row_count("AUDIT").unwrap();
            if stats.in_doubt_found == 0 {
                assert_eq!((age, audits), (SqlValue::Int(31), 1), "{source}/{op}");
            } else {
                assert_eq!((age, audits), (SqlValue::Int(30), 0), "{source}/{op}");
            }
            // No prepared locks survive recovery.
            for xid in journal.scan().keys() {
                assert!(!db1.is_prepared(TxId(*xid)) && !db2.is_prepared(TxId(*xid)));
            }
        }
    }

    #[test]
    fn table_version_bumps_on_commit_only() {
        let db = db_with_people();
        let v0 = db.table_version("PEOPLE").unwrap();
        // Reads don't bump.
        db.scan("PEOPLE").unwrap();
        db.select("PEOPLE", &vec![("ID".into(), SqlValue::Int(1))]).unwrap();
        assert_eq!(db.table_version("PEOPLE").unwrap(), v0);
        // A committed write bumps exactly once per transaction.
        db.execute(vec![
            WriteOp::Insert {
                table: "PEOPLE".into(),
                row: vec![SqlValue::Int(3), SqlValue::Str("cat".into()), SqlValue::Null],
            },
            WriteOp::Delete {
                table: "PEOPLE".into(),
                cond: vec![("ID".into(), SqlValue::Int(3))],
                expect_rows: 0,
            },
        ])
        .unwrap();
        assert_eq!(db.table_version("PEOPLE").unwrap(), v0 + 1);
        // A rollback does not bump.
        let t = fresh_tx();
        db.prepare(t, vec![people_update()]).unwrap();
        assert!(db.rollback_branch(t));
        assert_eq!(db.table_version("PEOPLE").unwrap(), v0 + 1);
    }

    #[test]
    fn scan_if_changed_skips_unchanged_tables() {
        let db = db_with_people();
        let (v1, rows) = db.scan_if_changed("PEOPLE", None).unwrap();
        assert_eq!(rows.as_ref().map(Vec::len), Some(2));
        // Same version known → no rows shipped.
        let (v2, rows) = db.scan_if_changed("PEOPLE", Some(v1)).unwrap();
        assert_eq!(v2, v1);
        assert!(rows.is_none());
        // After a write the version moves and rows come back.
        db.insert(
            "PEOPLE",
            vec![SqlValue::Int(5), SqlValue::Str("eve".into()), SqlValue::Null],
        )
        .unwrap();
        let (v3, rows) = db.scan_if_changed("PEOPLE", Some(v1)).unwrap();
        assert!(v3 > v1);
        assert_eq!(rows.map(|r| r.len()), Some(3));
    }

    #[test]
    fn select_indexed_agrees_with_select_across_mutations() {
        let db = db_with_people();
        let cond_name: Condition = vec![("NAME".into(), SqlValue::Str("ann".into()))];
        // First indexed select builds the NAME index; the fixture's
        // inserts already built the ID (primary key) index.
        assert_eq!(
            db.select_indexed("PEOPLE", &cond_name).unwrap(),
            db.select("PEOPLE", &cond_name).unwrap()
        );
        assert_eq!(db.indexed_columns("PEOPLE"), vec!["ID".to_string(), "NAME".to_string()]);
        // Insert, update, delete — the index is maintained, results agree.
        db.insert(
            "PEOPLE",
            vec![SqlValue::Int(3), SqlValue::Str("ann".into()), SqlValue::Int(9)],
        )
        .unwrap();
        assert_eq!(db.select_indexed("PEOPLE", &cond_name).unwrap().len(), 2);
        db.execute(vec![WriteOp::Update {
            table: "PEOPLE".into(),
            set: vec![("NAME".into(), SqlValue::Str("ann".into()))],
            cond: vec![("ID".into(), SqlValue::Int(2))],
            expect_rows: 1,
        }])
        .unwrap();
        assert_eq!(
            db.select_indexed("PEOPLE", &cond_name).unwrap(),
            db.select("PEOPLE", &cond_name).unwrap()
        );
        assert_eq!(db.select_indexed("PEOPLE", &cond_name).unwrap().len(), 3);
        db.execute(vec![WriteOp::Delete {
            table: "PEOPLE".into(),
            cond: vec![("ID".into(), SqlValue::Int(3))],
            expect_rows: 1,
        }])
        .unwrap();
        assert_eq!(
            db.select_indexed("PEOPLE", &cond_name).unwrap(),
            db.select("PEOPLE", &cond_name).unwrap()
        );
        // Multi-column condition: index probes one column, the full
        // condition re-verifies.
        let multi = vec![
            ("NAME".into(), SqlValue::Str("ann".into())),
            ("ID".into(), SqlValue::Int(1)),
        ];
        assert_eq!(
            db.select_indexed("PEOPLE", &multi).unwrap(),
            db.select("PEOPLE", &multi).unwrap()
        );
        // NULL conditions fall back to the scan path and agree too.
        let null_cond = vec![("AGE".into(), SqlValue::Null)];
        assert_eq!(
            db.select_indexed("PEOPLE", &null_cond).unwrap(),
            db.select("PEOPLE", &null_cond).unwrap()
        );
    }

    #[test]
    fn rollback_drops_indexes_but_results_stay_correct() {
        let db = db_with_people();
        let cond = vec![("NAME".into(), SqlValue::Str("bob".into()))];
        assert_eq!(db.select_indexed("PEOPLE", &cond).unwrap().len(), 1);
        assert!(!db.indexed_columns("PEOPLE").is_empty());
        let t = fresh_tx();
        db.prepare(t, vec![people_update()]).unwrap();
        assert!(db.rollback_branch(t));
        // Indexes dropped…
        assert!(db.indexed_columns("PEOPLE").is_empty());
        // …and lazily rebuilt with identical results.
        assert_eq!(
            db.select_indexed("PEOPLE", &cond).unwrap(),
            db.select("PEOPLE", &cond).unwrap()
        );
    }

    #[test]
    fn sql_rendering() {
        let op = WriteOp::Update {
            table: "CUSTOMER".into(),
            set: vec![("LAST_NAME".into(), SqlValue::Str("Carey".into()))],
            cond: vec![
                ("CID".into(), SqlValue::Int(7)),
                ("LAST_NAME".into(), SqlValue::Str("Carrey".into())),
            ],
            expect_rows: 1,
        };
        assert_eq!(
            op.to_sql(),
            "UPDATE CUSTOMER SET LAST_NAME = 'Carey' \
             WHERE CID = 7 AND LAST_NAME = 'Carrey'"
        );
    }

    #[test]
    fn sql_value_parse_round_trip() {
        let v = SqlValue::parse(ColumnType::Integer, "42").unwrap();
        assert_eq!(v, SqlValue::Int(42));
        let v = SqlValue::parse(ColumnType::Date, "2007-12-07").unwrap();
        assert_eq!(v.lexical(), "2007-12-07");
        let v = SqlValue::parse(ColumnType::Integer, "").unwrap();
        assert!(v.is_null());
        assert!(SqlValue::parse(ColumnType::Integer, "abc").is_err());
        let v = SqlValue::parse(ColumnType::Boolean, "true").unwrap();
        assert_eq!(v, SqlValue::Bool(true));
    }

    #[test]
    fn concurrent_prepare_from_threads() {
        use std::thread;
        let db = db_with_people();
        let mut handles = Vec::new();
        for i in 0..8 {
            let db = db.clone();
            handles.push(thread::spawn(move || {
                db.execute(vec![WriteOp::Insert {
                    table: "PEOPLE".into(),
                    row: vec![
                        SqlValue::Int(100 + i),
                        SqlValue::Str(format!("t{i}")),
                        SqlValue::Null,
                    ],
                }])
            }));
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert_eq!(db.row_count("PEOPLE").unwrap(), 10);
    }
}
