//! Source introspection (§II.A).
//!
//! "When pointed at a data source … ALDSP first introspects the
//! source's metadata … Introspecting a relational data source yields
//! one entity data service (with one read method and three update
//! methods, create, update, and delete) per table or view. … In the
//! presence of foreign key constraints, RDBMS introspection also
//! produces navigation functions … Introspecting a Web service data
//! source (based on WSDL) yields a library data service with multiple
//! methods, one per Web service operation."
//!
//! Registration binds each generated method to the shared engine as an
//! external function (reads, navigations) or external procedure
//! (create/update/delete — "a set of external XQSE procedures …
//! automatically provided … as a callable means to modify relational
//! source data", §III.A).

// Generated entity services (and their capability/materialization
// closures) must surface failures as XQSE-catchable errors, never
// panic: enforced at lint level.
#![deny(clippy::unwrap_used)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::{NodeArena, NodeHandle};
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use xqeval::engine::SourceSelectFn;
use xqeval::{Args, ColClass, Engine, Env, OptCounters, SourceCapability};

use crate::lineage::SourceRef;
use crate::rel::{Change, ColumnType, Condition, Database, SqlValue, TableSchema};
use crate::service::{DataService, Method, MethodKind, ServiceKind, SourceBinding};
use crate::ws::WebService;
use crate::xmlmap::{self, service_namespace};

/// Bound on the per-table keyed-select cache: entries are single-key
/// row sets, so this comfortably covers E1-scale fan-out (2 columns x
/// 5 000 keys) while keeping worst-case memory modest.
const SELECT_CACHE_CAPACITY: usize = 16_384;

/// Introspect every table of a relational source into entity data
/// services and register their methods on the engine.
pub fn introspect_relational(
    engine: &Engine,
    db: &Database,
) -> XdmResult<Vec<DataService>> {
    let mut out = Vec::new();
    let table_names = db.table_names();
    for table in &table_names {
        let schema = db.schema(table)?;
        let ns = service_namespace(&db.name, table);
        let mut methods = Vec::new();

        // Read method: TABLE() returns all rows as XML.
        let select = register_read_all(engine, db, &schema, &ns)?;
        methods.push(Method { name: table.clone(), kind: MethodKind::Read, arity: 0 });

        // Keyed read helper for single-column PKs: getBy<PK>($v) — the
        // shape the paper's use cases call (ens1:getByEmployeeID).
        if schema.primary_key.len() == 1 {
            let pk = schema.primary_key[0].clone();
            register_read_by_key(engine, db, &schema, &ns, &pk, select)?;
            methods.push(Method {
                name: format!("getBy{pk}"),
                kind: MethodKind::Read,
                arity: 1,
            });
        }

        // C/U/D procedures.
        register_cud(engine, db, &schema, &ns)?;
        for (n, k) in [
            (format!("create{table}"), MethodKind::Create),
            (format!("update{table}"), MethodKind::Update),
            (format!("delete{table}"), MethodKind::Delete),
        ] {
            methods.push(Method { name: n, kind: k, arity: 1 });
        }

        // Navigation functions from foreign keys: in the service of
        // the *referenced* table, get<CHILD>($parent) returns the
        // referencing rows (cus:getORDER($CUSTOMER) in Figure 3).
        for other in &table_names {
            let other_schema = db.schema(other)?;
            for fk in &other_schema.foreign_keys {
                if &fk.ref_table == table {
                    register_navigation(engine, db, &schema, &other_schema, fk, &ns)?;
                    methods.push(Method {
                        name: format!("get{other}"),
                        kind: MethodKind::Navigation,
                        arity: 1,
                    });
                }
            }
        }

        out.push(DataService {
            name: format!("{}/{}", db.name, table),
            namespace: ns,
            kind: ServiceKind::Entity,
            shape: Some(table.clone()),
            methods,
            binding: SourceBinding::Relational { db: db.clone(), table: table.clone() },
        });
    }
    Ok(out)
}

fn one_element(args: &[Sequence], what: &str) -> XdmResult<NodeHandle> {
    let item = args
        .first()
        .ok_or_else(|| XdmError::new(ErrorCode::XPST0017, format!("{what}: missing argument")))?
        .exactly_one()?;
    match item {
        Item::Node(n) => Ok(n.clone()),
        _ => Err(XdmError::new(
            ErrorCode::XPTY0004,
            format!("{what}: argument must be an element"),
        )),
    }
}

/// Map a relational column type to the pushdown value class, if the
/// source can answer indexed point-selects on it.
fn col_class(ty: ColumnType) -> Option<ColClass> {
    match ty {
        ColumnType::Integer => Some(ColClass::Integer),
        ColumnType::Varchar => Some(ColClass::String),
        ColumnType::Boolean => Some(ColClass::Boolean),
        // Decimal/Date/Timestamp equality has value-semantics (e.g.
        // 1.0 = 1.00) that a lexical hash bucket cannot honor.
        ColumnType::Decimal | ColumnType::Date | ColumnType::Timestamp => None,
    }
}

/// Seal every node in a sequence that is about to enter a cache: the
/// trees will be served by reference to many evaluations, so their
/// arenas must be marked shared. Sealed trees are exactly what the
/// zero-copy constructor path can graft without a deep copy.
fn seal_sequence(seq: &Sequence) {
    for item in seq.iter() {
        if let Item::Node(n) = item {
            n.seal();
        }
    }
}

/// A cached row set: the table version it was served at, the thread's
/// sealed-write count it was built under, and its sealed trees.
type Stamped = (u64, u64, Sequence);

fn register_read_all(
    engine: &Engine,
    db: &Database,
    schema: &TableSchema,
    ns: &str,
) -> XdmResult<SourceSelectFn> {
    // The table, resolved once: the version probes, the keyed selects
    // and the scans below read it without the catalog.
    let t = db.table(&schema.name)?;
    let features = engine.features_handle();
    let counters = engine.opt_counters();

    // Both caches below hand out their sealed trees themselves, so an
    // in-place write may edit a cached tree. Each entry keeps the
    // thread's sealed-write count (`xdm::sealed_writes`) it was built
    // under beside its version, and a lookup treats an entry whose
    // count moved as absent (counted in `mat_invalidations`).
    //
    // Versioned XDM materialization cache: `(table version, sealed
    // writes, tree)`. The table→XML conversion is the dominant
    // per-call cost of the read method; the version stamp makes reuse
    // exact — any committed write to the table bumps its version and
    // forces a rebuild, while writes to *other* tables leave this
    // entry valid.
    let mat: Rc<RefCell<Option<Stamped>>> = Rc::new(RefCell::new(None));
    // Versioned per-key select cache, one level down: the table's one
    // keyed-read path (pushdown point-selects and `getBy<PK>`) reuses
    // the converted rows of a key it has already read at the same
    // version instead of re-probing the index and rebuilding XDM.
    // Entries are keyed `column \u{1} canonical key lexical` and
    // stamped with the version the select *served*, so a row set read
    // from a stale snapshot never revalidates. `-batch` restores
    // per-call probes.
    let select_cache: Rc<RefCell<xqeval::Lru<String, Stamped>>> =
        Rc::new(RefCell::new(xqeval::Lru::new(SELECT_CACHE_CAPACITY)));
    // A lookup writes its key into this one buffer and probes by
    // `&str`, so a hit builds no `String`; only a miss's insert copies
    // the key.
    let probe_key = RefCell::new(String::new());

    // Pushdown capability: the mediator may replace a FLWOR
    // scan-then-filter over this read function with indexed
    // point-selects answered here.
    let columns: Vec<(String, ColClass)> = schema
        .columns
        .iter()
        .filter_map(|c| col_class(c.ty).map(|cl| (c.name.clone(), cl)))
        .collect();
    let select: SourceSelectFn = {
        let t = t.clone();
        let schema = schema.clone();
        let ns = ns.to_string();
        let table = schema.name.clone();
        let counters = counters.clone();
        let features = features.clone();
        Rc::new(move |_env: &mut Env, col: &str, key: &str| -> XdmResult<Sequence> {
            // A hit needs no parse: a key that does not parse, or an
            // unknown column, never reaches the cache.
            let batching = features.get().batching();
            if batching {
                let mut ck = probe_key.borrow_mut();
                ck.clear();
                ck.push_str(col);
                ck.push('\u{1}');
                ck.push_str(key);
                let live = t.version();
                if let Some((served, writes, seq)) = select_cache.borrow_mut().get(ck.as_str()) {
                    if *served == live {
                        if *writes == xdm::sealed_writes() {
                            return Ok(seq.clone());
                        }
                        OptCounters::bump(&counters.mat_invalidations);
                    }
                }
            }
            let ty = schema
                .column(col)
                .ok_or_else(|| {
                    XdmError::new(
                        ErrorCode::DSP0003,
                        format!("pushdown on unknown column {col} of {table}"),
                    )
                })?
                .ty;
            // Callers hand over canonical lexicals, which always parse
            // for pushable classes; a failure means the comparison
            // could never match a stored value of this type.
            let v = match SqlValue::parse(ty, key) {
                Ok(v) => v,
                Err(_) => return Ok(Sequence::empty()),
            };
            OptCounters::bump(&counters.indexed_selects);
            let cond = vec![(col.to_string(), v)];
            let (served, rows) = t.select_indexed_versioned(&cond)?;
            let seq = xmlmap::rows_to_sequence(&schema, &ns, &rows);
            if batching {
                seal_sequence(&seq);
                let ck = format!("{col}\u{1}{key}");
                select_cache.borrow_mut().insert(ck, (served, xdm::sealed_writes(), seq.clone()));
            }
            Ok(seq)
        })
    };
    let version = {
        let t = t.clone();
        Rc::new(move || t.version()) as Rc<dyn Fn() -> u64>
    };
    let served_version = {
        let mat = mat.clone();
        let t = t.clone();
        Rc::new(move || match &*mat.borrow() {
            // The read function last served this snapshot (under
            // breaker-open degradation it is *older* than the live
            // version, so derived caches stamp themselves stale).
            Some((v, _, _)) => *v,
            None => t.version(),
        }) as Rc<dyn Fn() -> u64>
    };
    engine.register_source_capability(
        QName::with_ns(ns.to_string(), schema.name.clone()),
        SourceCapability { columns, select: select.clone(), version, served_version },
    );

    let db = db.clone();
    let schema = schema.clone();
    let ns = ns.to_string();
    let table = schema.name.clone();
    engine.register_external_function(
        QName::with_ns(ns.clone(), table.clone()),
        0,
        Rc::new(move |_env, _args| {
            if !features.get().opt {
                // `-opt`: seed behavior — full scan + rebuild.
                let rows = db.scan(&table)?;
                return Ok(xmlmap::rows_to_sequence(&schema, &ns, &rows));
            }
            let writes = xdm::sealed_writes();
            let current = match &*mat.borrow() {
                Some((v, w, seq)) if *w == writes => Some((*v, seq.clone())),
                Some(_) => {
                    OptCounters::bump(&counters.mat_invalidations);
                    None
                }
                None => None,
            };
            let (ver, rows) = t.scan_if_changed(current.as_ref().map(|(v, _)| *v))?;
            match (rows, current) {
                // The table is still at the current entry's version:
                // its tree is exact.
                (None, Some((_, seq))) => {
                    OptCounters::bump(&counters.mat_hits);
                    Ok(seq)
                }
                // Without a known version the scan always returns rows.
                (rows, _) => {
                    OptCounters::bump(&counters.mat_misses);
                    let seq = xmlmap::rows_to_sequence(&schema, &ns, &rows.unwrap_or_default());
                    seal_sequence(&seq);
                    // Key on the version the scan *served* (under an
                    // outage this is the stale snapshot's version, so
                    // recovery forces a rebuild).
                    *mat.borrow_mut() = Some((ver, writes, seq.clone()));
                    Ok(seq)
                }
            }
        }),
    );
    Ok(select)
}

/// `getBy<PK>($v)`: the row whose primary key is `$v`, or `()`. Under
/// `opt` it is answered by the table's keyed select (`select`, the
/// closure pushdown uses), so with the batch layer on, a key repeated
/// on an unchanged table hits the versioned select cache; `-opt` keeps
/// the seed's full scan. The key's text is shared with the argument,
/// and a key that already is its column's canonical lexical
/// ([`SqlValue::is_canonical`]) reaches the select as it is, so a warm
/// hit allocates nothing.
fn register_read_by_key(
    engine: &Engine,
    db: &Database,
    schema: &TableSchema,
    ns: &str,
    pk: &str,
    select: SourceSelectFn,
) -> XdmResult<()> {
    let db = db.clone();
    let schema = schema.clone();
    let ns = ns.to_string();
    let table = schema.name.clone();
    let pk = pk.to_string();
    let pk_ty = schema
        .column(&pk)
        .ok_or_else(|| {
            XdmError::new(
                ErrorCode::DSP0003,
                format!("primary key column {pk} missing from table {table}"),
            )
        })?
        .ty;
    let features = engine.features_handle();
    engine.register_external_function(
        QName::with_ns(ns.clone(), format!("getBy{pk}")),
        1,
        Rc::new(move |env, args| {
            let key = args[0].string_shared()?;
            if key.is_empty() {
                return Ok(Sequence::empty());
            }
            if features.get().opt {
                if SqlValue::is_canonical(pk_ty, &key) {
                    return select(env, &pk, &key);
                }
                return select(env, &pk, &SqlValue::parse(pk_ty, &key)?.lexical());
            }
            let v = SqlValue::parse(pk_ty, &key)?;
            let rows = db.select(&table, &vec![(pk.clone(), v)])?;
            Ok(xmlmap::rows_to_sequence(&schema, &ns, &rows))
        }),
    );
    Ok(())
}

fn register_cud(
    engine: &Engine,
    db: &Database,
    schema: &TableSchema,
    ns: &str,
) -> XdmResult<()> {
    let table = schema.name.clone();
    // Each procedure writes through the table resolved once, as a
    // one-op write set on it.
    let t = db.table(&table)?;
    // create<TABLE>($row as element(TABLE)) → key element.
    {
        let t = t.clone();
        let schema = schema.clone();
        let table = table.clone();
        // Built once, not per call: the error label, the key element's
        // name, and each key column's position and element name.
        let what = format!("create{table}");
        let names = xmlmap::RowNames::of(&schema);
        let key_name = QName::new(format!("{table}_KEY"));
        let key_cols: Result<Vec<(usize, QName)>, String> = schema
            .primary_key
            .iter()
            .map(|pk| match schema.col_index(pk) {
                Some(i) => Ok((i, QName::new(pk.as_str()))),
                None => Err(format!("primary key column {pk} missing from table {table}")),
            })
            .collect();
        engine.register_external_procedure(
            QName::with_ns(ns, what.as_str()),
            1,
            false,
            Rc::new(move |_env, args| {
                let elem = one_element(&args, &what)?;
                let row = xmlmap::xml_to_row(&schema, &names, &elem)?;
                let cols = key_cols
                    .as_ref()
                    .map_err(|msg| XdmError::new(ErrorCode::DSP0003, msg.clone()))?;
                // A statement-position call discards the key: insert
                // the row and build nothing.
                if args.result_unused() {
                    t.execute(Change::Insert(row))?;
                    return Ok(Sequence::empty());
                }
                // The key element <TABLE_KEY>…</TABLE_KEY> returned on
                // success, built to size before the row moves into the
                // insert; each key value's text is made once.
                let arena = NodeArena::with_capacity(1 + 2 * cols.len());
                let key = NodeHandle::new_element_sized(&arena, key_name.clone(), cols.len());
                for (i, col) in cols {
                    let c = NodeHandle::new_element_sized(&arena, col.clone(), 1);
                    c.append_child(&NodeHandle::new_text(&arena, xmlmap::text_of(&row[*i])))?;
                    key.append_child(&c)?;
                }
                t.execute(Change::Insert(row))?;
                Ok(Sequence::one(Item::Node(key)))
            }),
        );
    }
    // update<TABLE>($row): keyed update of all non-key columns.
    {
        let t = t.clone();
        let schema = schema.clone();
        let what = format!("update{table}");
        let names = xmlmap::RowNames::of(&schema);
        engine.register_external_procedure(
            QName::with_ns(ns, what.as_str()),
            1,
            false,
            Rc::new(move |_env, args| {
                let elem = one_element(&args, &what)?;
                let row = xmlmap::xml_to_row(&schema, &names, &elem)?;
                let cond = pk_condition(&schema, &row)?;
                let set: Condition = schema
                    .columns
                    .iter()
                    .zip(&row)
                    .filter(|(c, _)| !schema.primary_key.contains(&c.name))
                    .map(|(c, v)| (c.name.clone(), v.clone()))
                    .collect();
                t.execute(Change::Update { set, cond, expect_rows: 1 })?;
                Ok(Sequence::empty())
            }),
        );
    }
    // delete<TABLE>($row): keyed delete.
    {
        let schema = schema.clone();
        let what = format!("delete{table}");
        engine.register_external_procedure(
            QName::with_ns(ns, what.as_str()),
            1,
            false,
            Rc::new(move |_env, args| {
                let elem = one_element(&args, &what)?;
                let cond: Condition = schema
                    .primary_key
                    .iter()
                    .map(|pk| {
                        xmlmap::xml_field(&schema, &elem, pk).map(|v| (pk.clone(), v))
                    })
                    .collect::<XdmResult<_>>()?;
                t.execute(Change::Delete { cond, expect_rows: 1 })?;
                Ok(Sequence::empty())
            }),
        );
    }
    Ok(())
}

fn pk_condition(schema: &TableSchema, row: &[SqlValue]) -> XdmResult<Condition> {
    schema
        .primary_key
        .iter()
        .map(|pk| {
            let i = schema.col_index(pk).ok_or_else(|| {
                XdmError::new(ErrorCode::DSP0003, format!("missing pk column {pk}"))
            })?;
            if row[i].is_null() {
                return Err(XdmError::new(
                    ErrorCode::DSP0003,
                    format!("NULL primary key {pk}"),
                ));
            }
            Ok((pk.clone(), row[i].clone()))
        })
        .collect()
}

fn register_navigation(
    engine: &Engine,
    db: &Database,
    parent_schema: &TableSchema,
    child_schema: &TableSchema,
    fk: &crate::rel::ForeignKey,
    parent_ns: &str,
) -> XdmResult<()> {
    let child = db.table(&child_schema.name)?;
    let db = db.clone();
    let parent_schema = parent_schema.clone();
    let child_schema = child_schema.clone();
    let fk = fk.clone();
    let child_ns = service_namespace(&db.name, &child_schema.name);
    let fname = format!("get{}", child_schema.name);
    let features = engine.features_handle();
    let counters = engine.opt_counters();
    engine.register_external_function(
        QName::with_ns(parent_ns.to_string(), fname.clone()),
        1,
        Rc::new(move |_env, args| {
            let parent = one_element(&args, &fname)?;
            // FK columns of the child match the referenced (key)
            // values read from the parent element.
            let cond: Condition = fk
                .columns
                .iter()
                .zip(&fk.ref_columns)
                .map(|(child_col, parent_col)| {
                    xmlmap::xml_field(&parent_schema, &parent, parent_col)
                        .map(|v| (child_col.clone(), v))
                })
                .collect::<XdmResult<_>>()?;
            // FK columns are rarely the child's primary key, so the
            // seed's select() was a full scan per navigation call —
            // the O(n²) heart of experiment E1. The secondary index
            // turns it into a hash probe.
            let rows = if features.get().opt {
                OptCounters::bump(&counters.indexed_selects);
                child.select_indexed_versioned(&cond)?.1
            } else {
                db.select(&child_schema.name, &cond)?
            };
            Ok(xmlmap::rows_to_sequence(&child_schema, &child_ns, &rows))
        }),
    );
    Ok(())
}

/// Introspect a web service into a library data service.
///
/// Each operation is registered as an arity-1 external function. Under
/// the batch layer a call consults the per-evaluation memo and then the
/// service's read-through response cache before paying a round trip;
/// under `-batch` (or `-opt`) every call takes the plain breaker path.
pub fn introspect_web_service(
    engine: &Engine,
    ws: &Rc<WebService>,
) -> XdmResult<DataService> {
    let ns = format!("ld:ws/{}", ws.name);
    let mut methods = Vec::new();
    for op_name in ws.operation_names() {
        let qname = QName::with_ns(ns.clone(), op_name.clone());
        let features = engine.features_handle();
        let counters = engine.opt_counters();
        let ws2 = ws.clone();
        let op2 = op_name.clone();
        let svc = ws.name.clone();
        engine.register_external_function(
            qname,
            1,
            Rc::new(move |env: &mut Env, args: Args| {
                OptCounters::bump(&counters.ws_requests);
                if !features.get().batching() {
                    OptCounters::bump(&counters.ws_issued);
                    return ws2.call(&op2, &args[0]);
                }
                // Per-evaluation memo: identical requests inside one
                // FLWOR or `iterate` body short-circuit here without
                // touching the breaker path.
                let key =
                    format!("{svc}\u{2}{}", crate::ws::request_fingerprint(&op2, &args[0]));
                if let Some(hit) = env.ws_memo.get(&key) {
                    OptCounters::bump(&counters.ws_coalesced);
                    return Ok(hit.clone());
                }
                // Cross-call read-through: a previous evaluation may
                // already hold this exact response.
                if let Some(hit) = ws2.cached(&op2, &args[0]) {
                    OptCounters::bump(&counters.ws_coalesced);
                    env.ws_memo.insert(key, hit.clone());
                    return Ok(hit);
                }
                OptCounters::bump(&counters.ws_issued);
                let resp = ws2.call(&op2, &args[0])?;
                env.ws_memo.insert(key, resp.clone());
                Ok(resp)
            }),
        );

        methods.push(Method {
            name: op_name,
            kind: MethodKind::LibraryFunction,
            arity: 1,
        });
    }
    Ok(DataService {
        name: format!("ws/{}", ws.name),
        namespace: ns,
        kind: ServiceKind::Library,
        shape: None,
        methods,
        binding: SourceBinding::Ws { name: ws.name.clone() },
    })
}

/// Build the function-name → source resolver the lineage analyzer
/// needs: which registered QNames are table reads, and which are
/// navigation functions (and to where), each with the schema its source
/// holds for the table.
pub fn source_resolver(
    services: &HashMap<String, DataService>,
) -> XdmResult<HashMap<QName, SourceRef>> {
    let mut map = HashMap::new();
    for svc in services.values() {
        let SourceBinding::Relational { db, table } = &svc.binding else { continue };
        for m in &svc.methods {
            let read = match m.kind {
                MethodKind::Read if m.arity == 0 => table.as_str(),
                // get<CHILD> navigates to the child table.
                MethodKind::Navigation => m.name.trim_start_matches("get"),
                _ => continue,
            };
            map.insert(
                QName::with_ns(svc.namespace.clone(), m.name.clone()),
                SourceRef { source: db.name.clone(), schema: db.schema(read)? },
            );
        }
    }
    Ok(map)
}
