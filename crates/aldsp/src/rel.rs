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
//! can never deadlock. `prepare` and auto-commit `execute` resolve a
//! write set once, op by op in order (`stage`), into row-level changes,
//! and every check happens there; commit installs exactly those changes
//! by row id (`install`). The transaction-manager mutex holds each
//! prepared-but-undecided transaction's staged changes: the rows they
//! replace or remove are pinned and the keys they add are taken, so a
//! concurrent transaction cannot slip between `prepare` and `commit` —
//! the standard presumed-abort XA discipline. Lock hierarchy: catalog
//! (briefly, to resolve table handles) → table shards in sorted name
//! order → the transaction-manager / read-cache leaf mutexes. No path
//! acquires a shard lock while holding a leaf mutex.

// The versioned-scan/secondary-index layer sits on every read path,
// and the branch commit/rollback path is replayed by crash recovery;
// both must degrade via Results, never panic: enforced at lint level
// (test-only unwraps are re-allowed on the tests module).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{BTreeMap, HashMap};
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

    /// Whether `s` is already what a `ty` column renders: it parses, and
    /// [`SqlValue::lexical`] gives the parsed value back as `s`
    /// unchanged, so `s` can stand for `parse(ty, s)?.lexical()`.
    /// Integers (`7`, not `007`, ` 7`, `+7` or `-0`, within `i64`),
    /// booleans (`true` or `false`, not `1`) and strings are recognised;
    /// a decimal, date or timestamp is never taken as canonical, so its
    /// caller parses and renders it.
    pub fn is_canonical(ty: ColumnType, s: &str) -> bool {
        if s.is_empty() {
            // A varchar's empty string, or a NULL, which renders empty.
            return true;
        }
        match ty {
            ColumnType::Varchar => true,
            ColumnType::Boolean => s == "true" || s == "false",
            ColumnType::Integer => {
                // Digits only, with no leading zero and no `-0`.
                let digits = s.strip_prefix('-').unwrap_or(s);
                let plain = digits.bytes().all(|b| b.is_ascii_digit())
                    && (!digits.starts_with('0') || s == "0");
                plain && s.parse::<i64>().is_ok()
            }
            ColumnType::Decimal | ColumnType::Date | ColumnType::Timestamp => false,
        }
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

/// What one op of a write set does to its table: a [`WriteOp`] without
/// the table's name, which a write set on one held table
/// ([`TableRef::execute`]) does not repeat.
#[derive(Debug, Clone)]
pub enum Change {
    /// INSERT the row.
    Insert(Row),
    /// UPDATE … SET `set` WHERE `cond`, matching exactly `expect_rows`.
    Update {
        /// SET assignments.
        set: Condition,
        /// WHERE conjunction.
        cond: Condition,
        /// Expected match count (1 for keyed updates).
        expect_rows: usize,
    },
    /// DELETE … WHERE `cond`, matching exactly `expect_rows`.
    Delete {
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

    /// The op's table, and what it does there.
    fn split(self) -> (String, Change) {
        match self {
            WriteOp::Insert { table, row } => (table, Change::Insert(row)),
            WriteOp::Update { table, set, cond, expect_rows } => {
                (table, Change::Update { set, cond, expect_rows })
            }
            WriteOp::Delete { table, cond, expect_rows } => {
                (table, Change::Delete { cond, expect_rows })
            }
        }
    }

    /// Render as a SQL-ish string (diagnostics, EXPERIMENTS.md).
    pub fn to_sql(&self) -> String {
        match self {
            WriteOp::Insert { table, row } => format!(
                "INSERT INTO {table} VALUES ({})",
                row.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
            ),
            WriteOp::Update { table, set, cond, .. } => matched_sql(table, Some(set), cond),
            WriteOp::Delete { table, cond, .. } => matched_sql(table, None, cond),
        }
    }
}

/// The SQL of an UPDATE (with its `set`) or a DELETE (without one).
fn matched_sql(table: &str, set: Option<&Condition>, cond: &Condition) -> String {
    let render = |cond: &Condition, sep: &str| {
        cond.iter().map(|(c, v)| format!("{c} = {v}")).collect::<Vec<_>>().join(sep)
    };
    match set {
        Some(set) => {
            format!("UPDATE {table} SET {} WHERE {}", render(set, ", "), render(cond, " AND "))
        }
        None => format!("DELETE FROM {table} WHERE {}", render(cond, " AND ")),
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
    /// The positions of the primary-key columns.
    pk: Vec<usize>,
    rows: Vec<(u64, Row)>, // (row id, values); always sorted by row id
    next_row_id: u64,
    /// Monotonically increasing table version: bumped once per
    /// committed transaction that touches the table. Read functions
    /// key their materialized XDM trees on this, so unchanged tables
    /// never pay a re-conversion (ISSUE 2 tentpole part 2).
    version: u64,
    /// Lazily built secondary hash indexes: column position → value →
    /// row ids. Built from the committed rows on the first indexed
    /// select or staged lookup of a column, and maintained
    /// incrementally by every install.
    indexes: Indexes,
}

/// A table's secondary indexes, one slot per column by position: the
/// column's value → row ids, once built.
type Indexes = Vec<Option<HashMap<IndexKey, Vec<u64>>>>;

/// A prepared branch: its staged changes, and the tables they are
/// staged on (sorted by name), which commit locks.
#[derive(Debug)]
struct Prepared {
    tables: Vec<String>,
    staged: Staged,
}

impl Prepared {
    /// The place of `table` among the branch's tables.
    fn slot(&self, table: &str) -> Option<usize> {
        self.tables.iter().position(|n| n == table)
    }
}

/// One table shard: the unit of reader/writer concurrency.
type TableHandle = Arc<RwLock<TableData>>;

/// Transaction-manager state: the prepared branches' staged changes
/// plus the commit/abort counters. A leaf mutex in the lock hierarchy — no
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
        let mut pk = Vec::with_capacity(schema.primary_key.len());
        for c in &schema.primary_key {
            let at = schema.col_index(c);
            pk.push(at.ok_or_else(|| cerr(format!("PK column {c} not in table {}", schema.name)))?);
        }
        self.shared.table_order.lock().push(schema.name.clone());
        let indexes = schema.columns.iter().map(|_| None).collect();
        catalog.insert(
            schema.name.clone(),
            Arc::new(RwLock::new(TableData {
                schema,
                pk,
                rows: Vec::new(),
                next_row_id: 1,
                version: 1,
                indexes,
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
            || self.scan_if_changed_on(&self.table_handle(table)?, table, known),
            || self.cached_rows_versioned(table, known),
        )
    }

    fn scan_if_changed_on(
        &self,
        h: &TableHandle,
        table: &str,
        known: Option<u64>,
    ) -> XdmResult<(u64, Option<Vec<Row>>)> {
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
            || select_indexed_on(&self.table_handle(table)?, cond),
            || self.cached_select(table, cond),
        )
    }

    /// Columns of `table` that currently have a built secondary index
    /// (diagnostics; this module's tests read it).
    pub fn indexed_columns(&self, table: &str) -> Vec<String> {
        self.table_handle(table)
            .map(|h| {
                let t = h.read();
                let built = t.schema.columns.iter().zip(&t.indexes).filter(|(_, i)| i.is_some());
                let mut cols: Vec<String> = built.map(|(c, _)| c.name.clone()).collect();
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
    /// transaction, in one pass. The affected shards are write-locked
    /// once; under the transaction-manager mutex the write set is staged
    /// exactly as [`Database::prepare`] stages it (op by op, against the
    /// committed table, the earlier ops and what other prepared
    /// transactions hold) and installed exactly as
    /// [`Database::commit_branch`] installs it. Nothing is registered as
    /// prepared, and a refused write set changes nothing.
    ///
    /// Fault-injectable as one unit (`Op::Execute`): an injected fault
    /// fires before the call, so a retried attempt sees the whole write
    /// set and a retry can never double-apply it.
    pub fn execute(&self, ops: Vec<WriteOp>) -> XdmResult<()> {
        self.execute_once(ops, |ops| {
            let handles = self.write_set_handles(&ops)?;
            let mut tables = write_all(&handles);
            self.commit_staged(&mut tables, ops.into_iter().map(WriteOp::split))
        })
    }

    /// Run a write set through the source's `Op::Execute` fault point.
    /// The call itself raises no retryable error, so it runs, and takes
    /// the write set, at most once.
    fn execute_once<W>(&self, w: W, raw: impl Fn(W) -> XdmResult<()>) -> XdmResult<()> {
        let access = self.access();
        let mut w = Some(w);
        access.run(&self.name, Op::Execute, || match w.take() {
            Some(w) => raw(w),
            None => Err(cerr("write set retried after it ran")),
        })
    }

    /// Stage `ops` on their write-locked `tables` and install them: the
    /// body of an auto-commit write.
    fn commit_staged<N: AsRef<str>>(
        &self,
        tables: &mut [RwLockWriteGuard<'_, TableData>],
        ops: impl IntoIterator<Item = (N, Change)>,
    ) -> XdmResult<()> {
        // Shards first, then the transaction-manager mutex, held until
        // the commit is counted: no other prepare can pin a row or take
        // a key between the stage and the install.
        let mut txm = self.shared.txm.lock();
        let staged = stage(tables, ops, &txm.prepared)?;
        install(tables, staged);
        txm.commits += 1;
        Ok(())
    }

    /// Resolve `table` once (a brief catalog read lock) to a handle
    /// that reads and writes it without the catalog.
    pub fn table(&self, table: &str) -> XdmResult<TableRef> {
        Ok(TableRef { db: self.clone(), shard: self.table_handle(table)?, name: table.to_string() })
    }

    /// Insert a single row, auto-commit.
    pub fn insert(&self, table: &str, row: Row) -> XdmResult<()> {
        self.execute(vec![WriteOp::Insert { table: table.to_string(), row }])
    }

    /// Phase one of 2PC: stage the write set (every check: constraints,
    /// expected row counts, no conflict with other prepared
    /// transactions) and hold the staged changes, which pin the rows
    /// they replace or remove and take the keys they add. On success
    /// the transaction is durable-ready; on failure nothing is changed.
    pub fn prepare(&self, tx: TxId, ops: Vec<WriteOp>) -> XdmResult<()> {
        let access = self.access();
        // As in `execute`: injected faults fire before the call.
        let mut ops = Some(ops);
        access.run(&self.name, Op::Prepare, || match ops.take() {
            Some(ops) => self.prepare_raw(tx, ops),
            None => Err(cerr("write set retried after it ran")),
        })
    }

    fn prepare_raw(&self, tx: TxId, ops: Vec<WriteOp>) -> XdmResult<()> {
        // Canonical lock order: write-lock every affected table shard
        // in sorted name order (two transactions touching the same
        // tables in opposite declaration order therefore can never
        // deadlock), THEN take the transaction-manager mutex — never
        // the other way round.
        let handles = self.write_set_handles(&ops)?;
        let mut tables = write_all(&handles);
        let mut txm = self.shared.txm.lock();
        if txm.prepared.contains_key(&tx) {
            return Err(cerr(format!("transaction {tx:?} already prepared")));
        }
        let staged = stage(&mut tables, ops.into_iter().map(WriteOp::split), &txm.prepared)?;
        let names = tables.iter().map(|t| t.schema.name.clone()).collect();
        txm.prepared.insert(tx, Prepared { tables: names, staged });
        Ok(())
    }

    /// Phase two, **idempotent**: install the changes staged under
    /// `tx`. The coordinator and the recovery manager both commit
    /// through this. It matches no condition: it installs exactly what
    /// prepare checked.
    ///
    /// Returns `Ok(true)` when a prepared branch was installed,
    /// `Ok(false)` when nothing is prepared under `tx` — either the
    /// branch already committed (a replay after a crash between the
    /// source commit and the journal's `Committed` record) or it never
    /// prepared here. Replaying a decision any number of times is
    /// therefore safe: only the first call writes.
    ///
    /// A table vanishing under a prepared branch, which prepare should
    /// make impossible, surfaces as `aldsp:XA_REPLAY_FAILED` instead of
    /// panicking — the commit path must never poison the database lock.
    pub fn commit_branch(&self, tx: TxId) -> XdmResult<bool> {
        // Peek the branch's table names under the tx-manager lock, then
        // RELEASE it before taking shard locks (leaf mutexes are never
        // held across shard acquisition). The entry is claimed — i.e.
        // removed — only after the shards are write-locked, so a
        // concurrent duplicate commit_branch loses the race and
        // returns Ok(false).
        let names: Vec<String> = match self.shared.txm.lock().prepared.get(&tx) {
            Some(p) => p.tables.clone(),
            None => return Ok(false),
        };
        let handles = self.table_handles(names.iter().map(String::as_str), |n| {
            crate::errors::AldspCode::XaReplayFailed.error(format!(
                "commit replay of {tx:?} on {}: table {n} disappeared after prepare",
                self.name
            ))
        })?;
        // Canonical order: `names` is sorted, so the write locks are
        // taken in the same global order as prepare_raw's, and the
        // shards line up with the stage's tables.
        let mut tables = write_all(&handles);
        let Some(p) = self.shared.txm.lock().prepared.remove(&tx) else {
            return Ok(false);
        };
        install(&mut tables, p.staged);
        drop(tables);
        self.shared.txm.lock().commits += 1;
        Ok(true)
    }

    /// The shard handles of the tables a write set names.
    fn write_set_handles(&self, ops: &[WriteOp]) -> XdmResult<Vec<TableHandle>> {
        self.table_handles(ops.iter().map(WriteOp::table), |n| cerr(format!("no table {n}")))
    }

    /// The shard handles of the tables `names` lists, in the canonical
    /// lock order: sorted by name, each once. `missing` reports a table
    /// the catalog does not hold.
    fn table_handles<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        missing: impl Fn(&str) -> XdmError,
    ) -> XdmResult<Vec<TableHandle>> {
        let catalog = self.shared.catalog.read();
        let mut handles = names
            .map(|n| catalog.get(n).map(|h| (n, h.clone())).ok_or_else(|| missing(n)))
            .collect::<XdmResult<Vec<_>>>()?;
        handles.sort_unstable_by_key(|(n, _)| *n);
        handles.dedup_by_key(|(n, _)| *n);
        // Collected in place: the names go, the buffer stays.
        Ok(handles.into_iter().map(|(_, h)| h).collect())
    }

    /// Abort a prepared (or never-prepared) transaction, **idempotent**:
    /// drops its staged changes, which releases the rows they pin and
    /// the keys they take, and changes nothing else.
    /// Returns `true` when a prepared branch was actually released,
    /// `false` when nothing was prepared under `tx` (already rolled
    /// back, already committed, or never prepared here) — replaying a
    /// presumed abort is always safe.
    pub fn rollback_branch(&self, tx: TxId) -> bool {
        let mut txm = self.shared.txm.lock();
        let released = txm.prepared.remove(&tx).is_some();
        txm.aborts += u64::from(released);
        released
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

/// [`Database::select_indexed`]'s read of one shard: the table version
/// and the matching rows, through the index when one applies.
fn select_indexed_on(h: &TableHandle, cond: &Condition) -> XdmResult<(u64, Vec<Row>)> {
    // Fast path under the shared lock: concurrent indexed readers
    // of the same table must not contend once the index exists.
    {
        let t = h.read();
        let idx = cond_indices(&t.schema, cond)?;
        let probe = index_probe(&t.schema, cond);
        let Some((col, key)) = probe else {
            // No indexable column in the condition: plain filtered
            // scan (without refreshing the stale-read snapshot —
            // only full scans snapshot the table).
            return Ok((t.version, scan_matching(&t.rows, &idx)));
        };
        if let Some(map) = &t.indexes[col] {
            let ids = map.get(&key).map_or(&[][..], Vec::as_slice);
            return Ok((t.version, probe_sorted_ids(&t.rows, ids, &idx)));
        }
    }
    // Slow path: build the index under the exclusive lock, then
    // probe it (re-deriving everything — the table may have moved
    // between the lock releases).
    let mut t = h.write();
    let idx = cond_indices(&t.schema, cond)?;
    let TableData { schema, rows, indexes, version, .. } = &mut *t;
    match probe_bucket(rows, indexes, index_probe(schema, cond)) {
        Some(ids) => Ok((*version, probe_sorted_ids(rows, ids, &idx))),
        None => Ok((*version, scan_matching(rows, &idx))),
    }
}

/// One table of a [`Database`], resolved once ([`Database::table`]).
/// Generated data-service procedures and read functions hold one, so a
/// call takes no catalog lock and hashes no table name. Tables are
/// never dropped, so the handle stays valid.
#[derive(Debug, Clone)]
pub struct TableRef {
    db: Database,
    name: String,
    shard: TableHandle,
}

impl TableRef {
    /// [`Database::table_version`].
    pub fn version(&self) -> u64 {
        self.shard.read().version
    }

    /// [`Database::scan_if_changed`].
    pub fn scan_if_changed(&self, known: Option<u64>) -> XdmResult<(u64, Option<Vec<Row>>)> {
        let db = &self.db;
        db.access().run_read(
            &db.name,
            Op::Scan,
            || db.scan_if_changed_on(&self.shard, &self.name, known),
            || db.cached_rows_versioned(&self.name, known),
        )
    }

    /// [`Database::select_indexed_versioned`].
    pub fn select_indexed_versioned(&self, cond: &Condition) -> XdmResult<(u64, Vec<Row>)> {
        let db = &self.db;
        db.access().run_read(
            &db.name,
            Op::Select,
            || select_indexed_on(&self.shard, cond),
            || db.cached_select(&self.name, cond),
        )
    }

    /// Auto-commit a one-op write set on this table: what
    /// [`Database::execute`] does with `vec![op]`, through the same
    /// fault point, stage and install, locking the one shard with no
    /// handle or guard list and naming the table by reference.
    pub fn execute(&self, change: Change) -> XdmResult<()> {
        self.db.execute_once(change, |change| {
            let mut shard = self.shard.write();
            let op = std::iter::once((self.name.as_str(), change));
            self.db.commit_staged(std::slice::from_mut(&mut shard), op)
        })
    }
}

/// Write-lock every shard, in the given (canonical) order.
fn write_all(handles: &[TableHandle]) -> Vec<RwLockWriteGuard<'_, TableData>> {
    handles.iter().map(|h| h.write()).collect()
}

/// A write set resolved op by op: the row-level changes commit
/// installs. A table is named by its place among the write set's
/// locked tables, which are sorted by name.
#[derive(Debug, Default)]
struct Staged {
    /// Committed rows the write set replaces (`Some`, the new value) or
    /// removes (`None`), by (table, row id).
    changed: BTreeMap<(usize, u64), Option<Row>>,
    /// Rows the write set appends, with their table, in op order;
    /// `None` once a later op of the write set deleted it.
    added: Vec<(usize, Option<Row>)>,
}

/// A row as a write set sees it: a committed row, by id, or the write
/// set's own `n`-th appended row. Committed rows sort first, by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RowRef {
    Committed(u64),
    Added(usize),
}

impl Staged {
    /// Whether the write set replaces or removes committed row `id` of
    /// table `ti`.
    fn touches(&self, ti: usize, id: u64) -> bool {
        self.changed.contains_key(&(ti, id))
    }

    /// The committed rows of table `ti` the write set replaces or
    /// removes, by id, with what it leaves there.
    fn changed_in(&self, ti: usize) -> impl Iterator<Item = (u64, Option<&Row>)> {
        self.changed.range((ti, 0)..=(ti, u64::MAX)).map(|((_, id), r)| (*id, r.as_ref()))
    }

    /// The rows the write set puts in table `ti`: its replacements and
    /// its appended rows.
    fn rows_in(&self, ti: usize) -> impl Iterator<Item = &Row> {
        let added = self.added.iter().filter(move |(at, _)| *at == ti);
        self.changed_in(ti).filter_map(|(_, r)| r).chain(added.filter_map(|(_, r)| r.as_ref()))
    }

    /// Row `at` of table `ti`, whose committed rows are `rows`, as the
    /// ops staged so far leave it.
    fn row<'s>(&'s self, rows: &'s [(u64, Row)], ti: usize, at: RowRef) -> Option<&'s Row> {
        match at {
            RowRef::Committed(id) => match self.changed.get(&(ti, id)) {
                Some(staged) => staged.as_ref(),
                None => committed_row(rows, id),
            },
            RowRef::Added(n) => self.added[n].1.as_ref(),
        }
    }

    /// Stage row `at` of table `ti` as `row` (`None`: removed).
    fn put(&mut self, ti: usize, at: RowRef, row: Option<Row>) {
        match at {
            RowRef::Committed(id) => drop(self.changed.insert((ti, id), row)),
            RowRef::Added(n) => self.added[n].1 = row,
        }
    }

    /// The rows of table `ti` (`t`) that `op`'s condition `cond` matches
    /// as the ops staged so far leave them, in row order: checks 1–3 of
    /// [`stage`]. Committed candidates come from the index bucket of
    /// [`index_probe`]'s column (the index is built from the committed
    /// rows if absent), or from a scan when no condition column is
    /// indexable; the rows the write set has changed or appended come
    /// from the stage. Each is checked against the whole condition.
    fn hits(
        &self,
        t: &mut TableData,
        ti: usize,
        set: Option<&Condition>,
        cond: &Condition,
        expect_rows: usize,
        others: &HashMap<TxId, Prepared>,
    ) -> XdmResult<Vec<RowRef>> {
        let idx = cond_indices(&t.schema, cond)?;
        let TableData { schema, rows, indexes, .. } = t;
        let bucket = probe_bucket(rows, indexes, index_probe(schema, cond));
        let untouched =
            candidates(rows, bucket).map(|(id, _)| id).filter(|id| !self.touches(ti, *id));
        let replaced = self.changed_in(ti).map(|(id, _)| id);
        let added = (0..self.added.len()).filter(|n| self.added[*n].0 == ti);
        let mut hits: Vec<RowRef> = (untouched.chain(replaced).map(RowRef::Committed))
            .chain(added.map(RowRef::Added))
            .filter(|at| self.row(rows, ti, *at).is_some_and(|r| row_matches(r, &idx)))
            .collect();
        hits.sort_unstable();
        if hits.len() != expect_rows {
            return Err(XdmError::new(
                ErrorCode::DSP0001,
                format!(
                    "optimistic concurrency conflict: {} matched {} row(s), expected {expect_rows}",
                    matched_sql(&schema.name, set, cond),
                    hits.len()
                ),
            ));
        }
        let pinned = |id| {
            others.values().any(|p| p.slot(&schema.name).is_some_and(|pi| p.staged.touches(pi, id)))
        };
        if let Some(RowRef::Committed(id)) =
            hits.iter().find(|at| matches!(at, RowRef::Committed(id) if pinned(*id)))
        {
            return Err(XdmError::new(
                ErrorCode::DSP0004,
                format!("row {id} of {} locked by another transaction", schema.name),
            ));
        }
        Ok(hits)
    }

    /// Check 5 of [`stage`]: DSP0003 unless `row`'s primary key is free
    /// in table `ti` (`t`) — held by no committed row the write set
    /// leaves in place, no row the write set has added or replaced, and
    /// no row another prepared branch adds or replaces there. A table
    /// without a primary key takes any row. A one-column key of an
    /// indexable type is looked up in its index, built here if absent;
    /// any other key is scanned for.
    fn check_key(
        &self,
        t: &mut TableData,
        ti: usize,
        row: &Row,
        others: &HashMap<TxId, Prepared>,
    ) -> XdmResult<()> {
        let TableData { schema, rows, indexes, pk, .. } = t;
        let probe = match pk[..] {
            [] => return Ok(()),
            [c] if indexable_type(schema.columns[c].ty) => index_key(&row[c]).map(|key| (c, key)),
            _ => None,
        };
        let same = |r: &Row| pk.iter().all(|&c| r[c] == row[c]);
        let taken = candidates(rows, probe_bucket(rows, indexes, probe))
            .any(|(id, r)| !self.touches(ti, id) && same(r))
            || self.rows_in(ti).any(same)
            || others
                .values()
                .any(|p| p.slot(&schema.name).is_some_and(|pi| p.staged.rows_in(pi).any(same)));
        if taken {
            let shown: Vec<String> = pk.iter().map(|&c| row[c].to_string()).collect();
            return Err(XdmError::new(
                ErrorCode::DSP0003,
                format!("primary key violation on {}: ({})", schema.name, shown.join(", ")),
            ));
        }
        Ok(())
    }
}

/// Resolve a write set on its write-locked tables (sorted by name), op
/// by op in order, each op against the tables as the ops before it left
/// them. Every check of a write happens here, and only here; an op's
/// checks run in this order, and the first that fails refuses the whole
/// write set:
///
/// 1. an `Update` or `Delete` names only columns of its table (DSP0003);
/// 2. it matches exactly `expect_rows` rows (DSP0001: the optimistic-
///    concurrency check);
/// 3. no committed row it matches is pinned — replaced or removed — by
///    another prepared branch (DSP0004);
/// 4. each row the op leaves (an inserted row, or each matched row with
///    an update's SET applied, in row order) passes [`check_row`]
///    (DSP0003);
/// 5. and its primary key is free ([`Staged::check_key`], DSP0003).
///
/// An update stages each matched row as removed, then adds its new value
/// under the same id, so its old key never blocks it and inserts and
/// updates share one key check. `Err` changes no row; an index this
/// builds is built from the committed rows.
fn stage<N: AsRef<str>>(
    tables: &mut [RwLockWriteGuard<'_, TableData>],
    ops: impl IntoIterator<Item = (N, Change)>,
    others: &HashMap<TxId, Prepared>,
) -> XdmResult<Staged> {
    let mut staged = Staged::default();
    for (table, op) in ops {
        let table = table.as_ref();
        let Some(ti) = tables.iter().position(|t| t.schema.name == table) else {
            return Err(cerr(format!("no table {table}")));
        };
        let t = &mut *tables[ti];
        match op {
            Change::Insert(row) => {
                check_row(&t.schema, &row)?;
                staged.check_key(t, ti, &row, others)?;
                staged.added.push((ti, Some(row)));
            }
            Change::Update { ref set, ref cond, expect_rows } => {
                let sets = cond_indices(&t.schema, set)?;
                for at in staged.hits(t, ti, Some(set), cond, expect_rows, others)? {
                    let Some(mut row) = staged.row(&t.rows, ti, at).cloned() else { continue };
                    for (c, v) in &sets {
                        row[*c] = v.clone();
                    }
                    check_row(&t.schema, &row)?;
                    staged.put(ti, at, None);
                    staged.check_key(t, ti, &row, others)?;
                    staged.put(ti, at, Some(row));
                }
            }
            Change::Delete { ref cond, expect_rows } => {
                for at in staged.hits(t, ti, None, cond, expect_rows, others)? {
                    staged.put(ti, at, None);
                }
            }
        }
    }
    Ok(staged)
}

/// Install a staged write set on the write-locked tables it was staged
/// on, in the same order, one pass per table: replace and remove
/// committed rows by id, append the added rows under fresh ids, keep
/// every built index in step, and bump each table's version once (every
/// locked table is one an op names): this is what invalidates the
/// materialization caches. It matches no condition; the stage decided
/// every row.
fn install(tables: &mut [RwLockWriteGuard<'_, TableData>], staged: Staged) {
    let Staged { changed, mut added } = staged;
    let mut changed = changed.into_iter().peekable();
    for (ti, t) in tables.iter_mut().enumerate() {
        let TableData { rows, next_row_id, version, indexes, .. } = &mut **t;
        let mut removed = Vec::new();
        while let Some(((_, id), new)) = changed.next_if(|((at, _), _)| *at == ti) {
            // The row is pinned, so it is still there.
            let Ok(pos) = rows.binary_search_by_key(&id, |(rid, _)| *rid) else { continue };
            reindex(indexes, id, Some(&rows[pos].1), new.as_ref());
            match new {
                Some(row) => rows[pos].1 = row,
                None => removed.push(id),
            }
        }
        if !removed.is_empty() {
            // Both are in row-id order: one pass drops every removed row.
            let mut removed = removed.into_iter().peekable();
            rows.retain(|(id, _)| removed.next_if_eq(id).is_none());
        }
        for row in added.iter_mut().filter(|(at, _)| *at == ti).filter_map(|(_, r)| r.take()) {
            let id = *next_row_id;
            *next_row_id += 1;
            reindex(indexes, id, None, Some(&row));
            rows.push((id, row));
        }
        *version += 1;
    }
}

/// Move row `id` from `old`'s bucket to `new`'s in every built index of
/// the table (`None`: no row).
fn reindex(indexes: &mut Indexes, id: u64, old: Option<&Row>, new: Option<&Row>) {
    for (ci, map) in indexes.iter_mut().enumerate() {
        let Some(map) = map else { continue };
        let (old, new) = (old.map(|r| &r[ci]), new.map(|r| &r[ci]));
        if old == new {
            continue;
        }
        if let Some(ids) = old.and_then(index_key).and_then(|k| map.get_mut(&k)) {
            ids.retain(|x| *x != id);
        }
        if let Some(k) = new.and_then(index_key) {
            map.entry(k).or_default().push(id);
        }
    }
}

/// The check every row a write set leaves passes, inserted or updated:
/// the table's arity, NOT NULL, and a value of its column's type in each
/// column (DSP0003).
fn check_row(schema: &TableSchema, row: &Row) -> XdmResult<()> {
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

/// Committed row `id` of a table's rows. They are always sorted by row
/// id: ids are allocated monotonically and deletes preserve order.
fn committed_row(rows: &[(u64, Row)], id: u64) -> Option<&Row> {
    let pos = rows.binary_search_by_key(&id, |(rid, _)| *rid).ok()?;
    Some(&rows[pos].1)
}

/// The ids in `probe`'s index bucket — a column position and a value —
/// building the column's index from the committed rows if absent;
/// `None` when there is no probe.
fn probe_bucket<'t>(
    rows: &[(u64, Row)],
    indexes: &'t mut Indexes,
    probe: Option<(usize, IndexKey)>,
) -> Option<&'t [u64]> {
    let (col, key) = probe?;
    let map = indexes[col].get_or_insert_with(|| build_index(rows, col));
    Some(map.get(&key).map_or(&[], Vec::as_slice))
}

/// The committed rows that can match: those of an index `bucket` (in
/// the order the index keeps them), or every row when there is none.
fn candidates<'t>(
    rows: &'t [(u64, Row)],
    bucket: Option<&'t [u64]>,
) -> impl Iterator<Item = (u64, &'t Row)> {
    let scan = if bucket.is_some() { &[][..] } else { rows };
    let probed = bucket.unwrap_or_default().iter();
    let probed = probed.filter_map(|id| Some((*id, committed_row(rows, *id)?)));
    probed.chain(scan.iter().map(|(id, r)| (*id, r)))
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
/// — `1.0 == 1.00`), so a hash of its representation would split equal
/// values across buckets and produce false negatives. DATE/TIMESTAMP
/// are excluded to keep bucket keys trivially canonical.
fn indexable_type(ty: ColumnType) -> bool {
    matches!(ty, ColumnType::Integer | ColumnType::Varchar | ColumnType::Boolean)
}

/// A secondary index's bucket key: an indexable value, typed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    Int(i64),
    Str(String),
    Bool(bool),
}

/// The bucket key of an indexable value. NULL returns `None` (NULL
/// rows are not indexed; conditions on NULL fall back to a filtered
/// scan so `NULL = NULL` matching keeps the seed semantics), as does
/// any value of a non-indexable type.
fn index_key(v: &SqlValue) -> Option<IndexKey> {
    match v {
        SqlValue::Int(i) => Some(IndexKey::Int(*i)),
        SqlValue::Str(s) => Some(IndexKey::Str(s.clone())),
        SqlValue::Bool(b) => Some(IndexKey::Bool(*b)),
        _ => None,
    }
}

/// First condition column with an indexable type (INTEGER, VARCHAR,
/// BOOLEAN) and a non-NULL probe value, as `(column position, key)`.
/// `None` sends the caller down the filtered-scan path.
fn index_probe(schema: &TableSchema, cond: &Condition) -> Option<(usize, IndexKey)> {
    cond.iter().find_map(|(c, v)| {
        let ci = schema.col_index(c)?;
        if !indexable_type(schema.columns[ci].ty) {
            return None;
        }
        index_key(v).map(|key| (ci, key))
    })
}

/// Probe a secondary-index bucket and re-verify every candidate
/// against the full condition. Results come back in table (row-id)
/// order, exactly like a full scan: buckets accumulate in maintenance
/// order, so the ids are sorted first.
fn probe_sorted_ids(rows: &[(u64, Row)], ids: &[u64], idx: &[(usize, SqlValue)]) -> Vec<Row> {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    let mut hits = Vec::new();
    for id in ids {
        if let Some(r) = committed_row(rows, id).filter(|r| row_matches(r, idx)) {
            hits.push(r.clone());
        }
    }
    hits
}

fn build_index(rows: &[(u64, Row)], ci: usize) -> HashMap<IndexKey, Vec<u64>> {
    let mut map: HashMap<IndexKey, Vec<u64>> = HashMap::new();
    for (id, r) in rows {
        if let Some(key) = index_key(&r[ci]) {
            map.entry(key).or_default().push(*id);
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
        mut self,
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
        // Each branch's name is made once; every record shares it.
        let branches: Vec<Arc<str>> =
            self.participants.iter().map(|(db, _)| Arc::from(db.name.as_str())).collect();
        // Tidy pre-decision abort: release every prepared branch and
        // journal the decision so recovery has nothing to presume.
        let abort_with = |prepared: &[&Database], e: XdmError| -> XdmResult<TxOutcome> {
            for p in prepared {
                p.rollback_branch(tx);
            }
            journal.append(XaRecord::Aborted { xid })?;
            Ok(TxOutcome::Aborted(e))
        };

        journal.append(XaRecord::Begin { xid, branches: branches.clone() })?;
        point_check("coordinator", Op::XaBegin)?;
        if let Some(e) = budget_err() {
            return abort_with(&[], e);
        }

        // Phase 1: prepare every branch, journaling each yes-vote. The
        // coordinator owns the write sets and never reads them again,
        // so each moves into its branch's prepare.
        let mut prepared: Vec<&Database> = Vec::new();
        for ((db, ops), name) in self.participants.iter_mut().zip(&branches) {
            match db.prepare(tx, std::mem::take(ops)) {
                Ok(()) => prepared.push(db),
                // A no-vote is not a crash: abort tidily.
                Err(e) => return abort_with(&prepared, e),
            }
            journal.append(XaRecord::Prepared { xid, source: name.clone() })?;
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
        for ((db, _), name) in self.participants.iter().zip(&branches) {
            db.commit_branch(tx)?;
            // A crash here: the branch is committed at the source but
            // its Committed record is missing — recovery replays the
            // decision, and the branch's idempotent commit absorbs it.
            point_check(&db.name, Op::XaCommit)?;
            journal.append(XaRecord::Committed { xid, source: name.clone() })?;
        }
        Ok(TxOutcome::Committed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::journal::CoordinatorJournal;
    use xdm::qname::QName;

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
    fn canonical_lexicals_are_what_parsing_renders_back() {
        let samples = [
            "", "0", "7", "-7", "007", "-0", "+7", " 7", "7 ", "7.0", "-", "1e3",
            "9223372036854775807", "9223372036854775808", "-9223372036854775808",
            "9007199254740993", "true", "false", "1", " true", "TRUE", "ann", "1.50",
            "2024-01-05",
        ];
        let types = [
            ColumnType::Integer,
            ColumnType::Varchar,
            ColumnType::Boolean,
            ColumnType::Decimal,
            ColumnType::Date,
            ColumnType::Timestamp,
        ];
        for ty in types {
            for s in samples {
                if SqlValue::is_canonical(ty, s) {
                    let v = SqlValue::parse(ty, s);
                    assert_eq!(v.map(|v| v.lexical()).ok().as_deref(), Some(s), "{ty:?} {s:?}");
                }
            }
        }
        // Integers are decided across the whole i64 range, past the
        // 2^53 that a double can hold exactly.
        assert!(SqlValue::is_canonical(ColumnType::Integer, "9007199254740993"));
        for s in ["7", "-7", "0", "-9223372036854775808"] {
            assert!(SqlValue::is_canonical(ColumnType::Integer, s), "{s}");
        }
        for s in ["007", "-0", "+7", " 7", "9223372036854775808"] {
            assert!(!SqlValue::is_canonical(ColumnType::Integer, s), "{s}");
        }
        assert!(!SqlValue::is_canonical(ColumnType::Boolean, "1"));
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

    /// An insert of `PEOPLE` row 7 named `name`.
    fn insert_seven(name: &str) -> WriteOp {
        WriteOp::Insert {
            table: "PEOPLE".into(),
            row: vec![SqlValue::Int(7), SqlValue::Str(name.into()), SqlValue::Null],
        }
    }

    #[test]
    fn one_write_set_cannot_insert_a_key_twice() {
        let db = db_with_people();
        let err = db.execute(vec![insert_seven("a"), insert_seven("b")]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0003));
        assert!(err.message.contains("primary key violation"), "{err}");
        assert_eq!(db.row_count("PEOPLE").unwrap(), 2);
        let seven = vec![("ID".into(), SqlValue::Int(7))];
        assert!(db.select("PEOPLE", &seven).unwrap().is_empty());
        // Nothing was applied, so the key is still free.
        db.execute(vec![insert_seven("c")]).unwrap();
        assert_eq!(db.select("PEOPLE", &seven).unwrap().len(), 1);
    }

    #[test]
    fn one_prepared_branch_cannot_insert_a_key_twice() {
        let db = db_with_people();
        let t = fresh_tx();
        let err = db.prepare(t, vec![insert_seven("a"), insert_seven("b")]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0003));
        assert!(err.message.contains("primary key violation"), "{err}");
        assert!(!db.is_prepared(t));
        assert!(!db.commit_branch(t).unwrap(), "nothing was prepared");
        assert_eq!(db.row_count("PEOPLE").unwrap(), 2);
    }

    /// `UPDATE PEOPLE SET ID = to WHERE ID = from`.
    fn move_key(from: i64, to: i64) -> WriteOp {
        WriteOp::Update {
            table: "PEOPLE".into(),
            set: vec![("ID".into(), SqlValue::Int(to))],
            cond: vec![("ID".into(), SqlValue::Int(from))],
            expect_rows: 1,
        }
    }

    /// The `(ID, NAME)` of every row, in row order.
    fn people(db: &Database) -> Vec<(SqlValue, SqlValue)> {
        db.scan("PEOPLE").unwrap().into_iter().map(|r| (r[0].clone(), r[1].clone())).collect()
    }

    #[test]
    fn an_update_cannot_move_a_row_onto_a_taken_key() {
        let db = db_with_people();
        let before = people(&db);
        let err = db.execute(vec![move_key(1, 2)]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0003));
        assert!(err.message.contains("primary key violation"), "{err}");
        // Two rows moved onto one free key, and a row moved onto a key
        // an insert of the same write set takes.
        let err = db.execute(vec![move_key(1, 9), move_key(2, 9)]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0003), "{err}");
        let err = db.execute(vec![insert_seven("c"), move_key(1, 7)]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0003), "{err}");
        assert_eq!(people(&db), before, "a rejected write set changes nothing");
        // A row keeps its own key, and moves onto a free one.
        db.execute(vec![move_key(1, 1)]).unwrap();
        db.execute(vec![move_key(1, 9)]).unwrap();
        let nine = vec![("ID".into(), SqlValue::Int(9))];
        assert_eq!(db.select("PEOPLE", &nine).unwrap().len(), 1);
        assert_eq!(db.row_count("PEOPLE").unwrap(), 2);
    }

    #[test]
    fn a_prepared_update_cannot_move_a_row_onto_a_taken_key() {
        let db = db_with_people();
        let before = people(&db);
        let t = fresh_tx();
        let err = db.prepare(t, vec![move_key(2, 1)]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0003));
        assert!(err.message.contains("primary key violation"), "{err}");
        assert!(!db.is_prepared(t));
        assert!(!db.commit_branch(t).unwrap(), "nothing was prepared");
        assert_eq!(people(&db), before);
        // A key another prepared branch moves a row onto is taken too.
        let first = fresh_tx();
        db.prepare(first, vec![move_key(2, 8)]).unwrap();
        let err = db.prepare(fresh_tx(), vec![insert_eight()]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0003), "{err}");
        assert!(db.commit_branch(first).unwrap());
        let eight = vec![("ID".into(), SqlValue::Int(8))];
        assert_eq!(db.select("PEOPLE", &eight).unwrap().len(), 1);
    }

    /// An auto-commit write runs prepare's checks in its one pass: a
    /// row another branch has prepared is locked, and a key it inserts
    /// is taken. A refused write changes nothing; a committed one counts
    /// one commit.
    #[test]
    fn autocommit_writes_respect_prepared_branches() {
        let db = db_with_people();
        let branch = fresh_tx();
        db.prepare(branch, vec![people_update(), insert_eight()]).unwrap();
        let (before, version, stats) =
            (people(&db), db.table_version("PEOPLE").unwrap(), db.stats());
        let update_one = WriteOp::Update {
            table: "PEOPLE".into(),
            set: vec![("NAME".into(), SqlValue::Str("X".into()))],
            cond: vec![("ID".into(), SqlValue::Int(1))],
            expect_rows: 1,
        };
        let err = db.execute(vec![update_one]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0004), "{err}");
        let err = db.execute(vec![insert_eight()]).unwrap_err();
        assert!(err.is(ErrorCode::DSP0003), "{err}");
        assert!(err.message.contains("primary key violation"), "{err}");
        assert_eq!(people(&db), before, "a refused write changes nothing");
        assert_eq!(db.table_version("PEOPLE").unwrap(), version);
        assert_eq!(db.stats(), stats, "a refused write is no commit");
        // A row and a key the branch leaves alone are free.
        db.execute(vec![insert_seven("g")]).unwrap();
        assert_eq!(db.table_version("PEOPLE").unwrap(), version + 1);
        assert_eq!(db.stats(), (stats.0 + 1, stats.1), "one commit per write");
        assert!(db.is_prepared(branch));
        assert!(db.commit_branch(branch).unwrap());
        assert_eq!(db.row_count("PEOPLE").unwrap(), 4);
    }

    fn insert_eight() -> WriteOp {
        WriteOp::Insert {
            table: "PEOPLE".into(),
            row: vec![SqlValue::Int(8), SqlValue::Str("eve".into()), SqlValue::Null],
        }
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
        // A committed write bumps exactly once per transaction. The
        // delete matches the row the insert before it added.
        db.execute(vec![
            WriteOp::Insert {
                table: "PEOPLE".into(),
                row: vec![SqlValue::Int(3), SqlValue::Str("cat".into()), SqlValue::Null],
            },
            WriteOp::Delete {
                table: "PEOPLE".into(),
                cond: vec![("ID".into(), SqlValue::Int(3))],
                expect_rows: 1,
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
    fn rollback_keeps_indexes_and_results_stay_correct() {
        let db = db_with_people();
        let cond = vec![("NAME".into(), SqlValue::Str("bob".into()))];
        assert_eq!(db.select_indexed("PEOPLE", &cond).unwrap().len(), 1);
        let indexed = db.indexed_columns("PEOPLE");
        assert!(!indexed.is_empty());
        let t = fresh_tx();
        db.prepare(t, vec![people_update()]).unwrap();
        assert!(db.rollback_branch(t));
        // Prepare changed no row, so its indexes still hold…
        assert_eq!(db.indexed_columns("PEOPLE"), indexed);
        // …and answer as a scan does.
        assert_eq!(
            db.select_indexed("PEOPLE", &cond).unwrap(),
            db.select("PEOPLE", &cond).unwrap()
        );
    }

    /// Run `ops` on one `db_with_people` through `execute` and on another
    /// through `prepare` + `commit_branch`. Both must agree on the
    /// outcome and on the rows; the rows, or the refusal's code, come
    /// back.
    fn ordered(ops: Vec<WriteOp>) -> Result<Vec<(SqlValue, SqlValue)>, QName> {
        let (auto, two_phase) = (db_with_people(), db_with_people());
        let auto_run = auto.execute(ops.clone());
        let t = fresh_tx();
        let two_phase_run = two_phase.prepare(t, ops).and_then(|()| two_phase.commit_branch(t));
        let code = |e: &XdmError| e.code.clone();
        assert_eq!(auto_run.as_ref().err().map(code), two_phase_run.as_ref().err().map(code));
        assert_eq!(people(&auto), people(&two_phase));
        auto_run.map(|()| people(&auto)).map_err(|e| e.code.clone())
    }

    fn person(id: i64, name: &str) -> (SqlValue, SqlValue) {
        (SqlValue::Int(id), SqlValue::Str(name.into()))
    }

    fn delete_id(id: i64) -> WriteOp {
        WriteOp::Delete {
            table: "PEOPLE".into(),
            cond: vec![("ID".into(), SqlValue::Int(id))],
            expect_rows: 1,
        }
    }

    fn rename(id: i64, name: &str) -> WriteOp {
        WriteOp::Update {
            table: "PEOPLE".into(),
            set: vec![("NAME".into(), SqlValue::Str(name.into()))],
            cond: vec![("ID".into(), SqlValue::Int(id))],
            expect_rows: 1,
        }
    }

    fn insert_person(id: i64, name: &str) -> WriteOp {
        WriteOp::Insert {
            table: "PEOPLE".into(),
            row: vec![SqlValue::Int(id), SqlValue::Str(name.into()), SqlValue::Null],
        }
    }

    #[test]
    fn a_write_set_frees_a_key_and_takes_it_again() {
        // The row leaves and a new one takes its key: it is appended.
        let rows = ordered(vec![delete_id(1), insert_person(1, "new")]);
        assert_eq!(rows, Ok(vec![person(2, "bob"), person(1, "new")]));
        // The key swap, through a third key.
        let rows = ordered(vec![move_key(1, 3), move_key(2, 1), move_key(3, 2)]);
        assert_eq!(rows, Ok(vec![person(2, "ann"), person(1, "bob")]));
        let rows = ordered(vec![move_key(1, 3), move_key(2, 1)]);
        assert_eq!(rows, Ok(vec![person(3, "ann"), person(1, "bob")]));
    }

    #[test]
    fn an_update_matches_the_row_an_earlier_insert_added() {
        let rows = ordered(vec![insert_person(3, "cat"), rename(3, "kit")]);
        assert_eq!(rows, Ok(vec![person(1, "ann"), person(2, "bob"), person(3, "kit")]));
    }

    #[test]
    fn an_op_matches_nothing_an_earlier_op_deleted() {
        let dsp0001 = Err(ErrorCode::DSP0001.qname());
        assert_eq!(ordered(vec![delete_id(1), rename(1, "X")]), dsp0001);
        assert_eq!(ordered(vec![delete_id(1), delete_id(1)]), dsp0001);
    }

    #[test]
    fn a_prepared_delete_removes_only_the_row_prepare_pinned() {
        let db = db_with_people();
        let branch = fresh_tx();
        let bob = vec![("NAME".into(), SqlValue::Str("bob".into()))];
        db.prepare(
            branch,
            vec![WriteOp::Delete { table: "PEOPLE".into(), cond: bob.clone(), expect_rows: 1 }],
        )
        .unwrap();
        // A second bob is no row the branch pins.
        db.execute(vec![insert_person(3, "bob")]).unwrap();
        assert!(db.commit_branch(branch).unwrap());
        assert_eq!(people(&db), vec![person(1, "ann"), person(3, "bob")]);
        assert_eq!(db.select_indexed("PEOPLE", &bob).unwrap(), db.select("PEOPLE", &bob).unwrap());
    }

    #[test]
    fn an_updated_row_is_checked_as_an_inserted_row_is() {
        let db = db_with_people();
        let before = db.scan("PEOPLE").unwrap();
        for (column, value) in [("AGE", SqlValue::Str("old".into())), ("NAME", SqlValue::Null)] {
            let set_one = WriteOp::Update {
                table: "PEOPLE".into(),
                set: vec![(column.into(), value)],
                cond: vec![("ID".into(), SqlValue::Int(1))],
                expect_rows: 1,
            };
            let err = db.execute(vec![set_one.clone()]).unwrap_err();
            assert!(err.is(ErrorCode::DSP0003), "{err}");
            let err = db.prepare(fresh_tx(), vec![set_one]).unwrap_err();
            assert!(err.is(ErrorCode::DSP0003), "{err}");
            assert_eq!(db.scan("PEOPLE").unwrap(), before, "a refused update changes nothing");
        }
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
