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
use xdm::node::NodeHandle;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use xqeval::engine::SourceSelectFn;
use xqeval::{ColClass, Engine, Env, OptCounters, SourceCapability};

use crate::lineage::SourceRef;
use crate::rel::{ColumnType, Condition, Database, SqlValue, TableSchema, WriteOp};
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
        crate::decompose::register_schema(&db.name, &schema);
        let ns = service_namespace(&db.name, table);
        let mut methods = Vec::new();

        // Read method: TABLE() returns all rows as XML.
        let select = register_read_all(engine, db, &schema, &ns);
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
        register_cud(engine, db, &schema, &ns);
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
                    register_navigation(engine, db, &schema, &other_schema, fk, &ns);
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

fn register_read_all(
    engine: &Engine,
    db: &Database,
    schema: &TableSchema,
    ns: &str,
) -> SourceSelectFn {
    let features = engine.features_handle();
    let counters = engine.opt_counters();

    // Versioned XDM materialization cache: `(table version, tree)`.
    // The table→XML conversion is the dominant per-call cost of the
    // read method; the version stamp makes reuse exact — any committed
    // write to the table bumps its version and forces a rebuild, while
    // writes to *other* tables leave this entry valid.
    let mat: Rc<RefCell<Option<(u64, Sequence)>>> = Rc::new(RefCell::new(None));
    // Versioned per-key select cache, one level down: the table's one
    // keyed-read path (pushdown point-selects and `getBy<PK>`) reuses
    // the converted rows of a key it has already read at the same
    // version instead of re-probing the index and rebuilding XDM.
    // Entries are keyed `column \u{1} canonical key lexical` and
    // stamped with the version the select *served*, so a row set read
    // from a stale snapshot never revalidates. `-batch` restores
    // per-call probes.
    let select_cache: Rc<RefCell<xqeval::Lru<String, (u64, Sequence)>>> =
        Rc::new(RefCell::new(xqeval::Lru::new(SELECT_CACHE_CAPACITY)));
    {
        // Update statements may have mutated cached nodes in place:
        // both caches go.
        let mat = mat.clone();
        let select_cache = select_cache.clone();
        engine.register_mat_flusher(Rc::new(move || {
            *mat.borrow_mut() = None;
            select_cache.borrow_mut().clear();
        }));
    }

    // Pushdown capability: the mediator may replace a FLWOR
    // scan-then-filter over this read function with indexed
    // point-selects answered here.
    let columns: Vec<(String, ColClass)> = schema
        .columns
        .iter()
        .filter_map(|c| col_class(c.ty).map(|cl| (c.name.clone(), cl)))
        .collect();
    let select: SourceSelectFn = {
        let db = db.clone();
        let schema = schema.clone();
        let ns = ns.to_string();
        let table = schema.name.clone();
        let counters = counters.clone();
        let features = features.clone();
        Rc::new(move |_env: &mut Env, col: &str, key: &str| -> XdmResult<Sequence> {
            // A hit needs no parse: a key that does not parse, or an
            // unknown column, never reaches the cache.
            let ck = features.get().batching().then(|| format!("{col}\u{1}{key}"));
            if let Some(ck) = &ck {
                let live = db.table_version(&table).unwrap_or(0);
                if let Some((served, seq)) = select_cache.borrow_mut().get(ck) {
                    if *served == live {
                        return Ok(seq.clone());
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
            let (served, rows) = db.select_indexed_versioned(&table, &cond)?;
            let seq = xmlmap::rows_to_sequence(&schema, &ns, &rows);
            if let Some(ck) = ck {
                seal_sequence(&seq);
                select_cache.borrow_mut().insert(ck, (served, seq.clone()));
            }
            Ok(seq)
        })
    };
    let version = {
        let db = db.clone();
        let table = schema.name.clone();
        Rc::new(move || db.table_version(&table).unwrap_or(0)) as Rc<dyn Fn() -> u64>
    };
    let served_version = {
        let mat = mat.clone();
        let db = db.clone();
        let table = schema.name.clone();
        Rc::new(move || match &*mat.borrow() {
            // The read function last served this snapshot (under
            // breaker-open degradation it is *older* than the live
            // version, so derived caches stamp themselves stale).
            Some((v, _)) => *v,
            None => db.table_version(&table).unwrap_or(0),
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
            let known = mat.borrow().as_ref().map(|(v, _)| *v);
            let (ver, rows) = db.scan_if_changed(&table, known)?;
            match rows {
                None => {
                    // Version unchanged: the cached tree is exact.
                    if let Some((_, seq)) = &*mat.borrow() {
                        OptCounters::bump(&counters.mat_hits);
                        return Ok(seq.clone());
                    }
                    // Defensive: a flusher ran between the version
                    // probe and here — rebuild from a full scan.
                    let rows = db.scan(&table)?;
                    let seq = xmlmap::rows_to_sequence(&schema, &ns, &rows);
                    seal_sequence(&seq);
                    OptCounters::bump(&counters.mat_misses);
                    *mat.borrow_mut() = Some((ver, seq.clone()));
                    Ok(seq)
                }
                Some(rows) => {
                    OptCounters::bump(&counters.mat_misses);
                    let seq = xmlmap::rows_to_sequence(&schema, &ns, &rows);
                    seal_sequence(&seq);
                    // Key on the version the scan *served* (under an
                    // outage this is the stale snapshot's version, so
                    // recovery forces a rebuild).
                    *mat.borrow_mut() = Some((ver, seq.clone()));
                    Ok(seq)
                }
            }
        }),
    );
    select
}

/// `getBy<PK>($v)`: the row whose primary key is `$v`, or `()`. Under
/// `opt` it is answered by the table's keyed select (`select`, the
/// closure pushdown uses), so with the batch layer on, a key repeated
/// on an unchanged table hits the versioned select cache; `-opt` keeps
/// the seed's full scan.
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
            let key = args[0].string_value()?;
            if key.is_empty() {
                return Ok(Sequence::empty());
            }
            let v = SqlValue::parse(pk_ty, &key)?;
            if features.get().opt {
                return select(env, &pk, &v.lexical());
            }
            let rows = db.select(&table, &vec![(pk.clone(), v)])?;
            Ok(xmlmap::rows_to_sequence(&schema, &ns, &rows))
        }),
    );
    Ok(())
}

fn register_cud(engine: &Engine, db: &Database, schema: &TableSchema, ns: &str) {
    let table = schema.name.clone();
    // create<TABLE>($row as element(TABLE)) → key element.
    {
        let db = db.clone();
        let schema = schema.clone();
        let ns = ns.to_string();
        let table = table.clone();
        engine.register_external_procedure(
            QName::with_ns(ns.clone(), format!("create{table}")),
            1,
            false,
            Rc::new(move |_env, args| {
                let elem = one_element(&args, &format!("create{table}"))?;
                let row = xmlmap::xml_to_row(&schema, &elem)?;
                db.execute(vec![WriteOp::Insert { table: table.clone(), row: row.clone() }])?;
                // Return the key element <TABLE_KEY>…</TABLE_KEY>.
                let key = NodeHandle::root_element(QName::new(format!("{table}_KEY")));
                let arena = key.arena().clone();
                for pk in &schema.primary_key {
                    let i = schema.col_index(pk).ok_or_else(|| {
                        XdmError::new(
                            ErrorCode::DSP0003,
                            format!("primary key column {pk} missing from table {table}"),
                        )
                    })?;
                    let c = NodeHandle::new_element(&arena, QName::new(pk.clone()));
                    c.append_child(&NodeHandle::new_text(&arena, row[i].lexical()))?;
                    key.append_child(&c)?;
                }
                Ok(Sequence::one(Item::Node(key)))
            }),
        );
    }
    // update<TABLE>($row): keyed update of all non-key columns.
    {
        let db = db.clone();
        let schema = schema.clone();
        let table = table.clone();
        engine.register_external_procedure(
            QName::with_ns(ns.to_string(), format!("update{table}")),
            1,
            false,
            Rc::new(move |_env, args| {
                let elem = one_element(&args, &format!("update{table}"))?;
                let row = xmlmap::xml_to_row(&schema, &elem)?;
                let cond = pk_condition(&schema, &row)?;
                let set: Condition = schema
                    .columns
                    .iter()
                    .zip(&row)
                    .filter(|(c, _)| !schema.primary_key.contains(&c.name))
                    .map(|(c, v)| (c.name.clone(), v.clone()))
                    .collect();
                db.execute(vec![WriteOp::Update {
                    table: table.clone(),
                    set,
                    cond,
                    expect_rows: 1,
                }])?;
                Ok(Sequence::empty())
            }),
        );
    }
    // delete<TABLE>($row): keyed delete.
    {
        let db = db.clone();
        let schema = schema.clone();
        let table = table.clone();
        engine.register_external_procedure(
            QName::with_ns(ns.to_string(), format!("delete{table}")),
            1,
            false,
            Rc::new(move |_env, args| {
                let elem = one_element(&args, &format!("delete{table}"))?;
                let cond: Condition = schema
                    .primary_key
                    .iter()
                    .map(|pk| {
                        xmlmap::xml_field(&schema, &elem, pk).map(|v| (pk.clone(), v))
                    })
                    .collect::<XdmResult<_>>()?;
                db.execute(vec![WriteOp::Delete {
                    table: table.clone(),
                    cond,
                    expect_rows: 1,
                }])?;
                Ok(Sequence::empty())
            }),
        );
    }
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
) {
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
                db.select_indexed(&child_schema.name, &cond)?
            } else {
                db.select(&child_schema.name, &cond)?
            };
            Ok(xmlmap::rows_to_sequence(&child_schema, &child_ns, &rows))
        }),
    );
}

/// Introspect a web service into a library data service.
///
/// Each operation is registered twice: as an ordinary arity-1
/// external function (the per-call path, which under the batch layer
/// consults a per-evaluation memo and the service's read-through
/// response cache before paying a round trip), and as a *batchable*
/// entry point that the FLWOR evaluator flushes coalesced request
/// batches through ([`WebService::call_many`]). Under `-batch` (or
/// `-opt`) both collapse to the plain per-call breaker path.
pub fn introspect_web_service(
    engine: &Engine,
    ws: &Rc<WebService>,
) -> XdmResult<DataService> {
    let ns = format!("ld:ws/{}", ws.name);
    // Handlers are arbitrary closures: a procedure call, update
    // statement, or datagraph submission may change what the service
    // would answer. The statement engine reports those through
    // `Engine::note_source_write`; bump the service's read-through
    // epoch there so the persistent response cache stops serving
    // pre-write responses on the normal path (stale-read degradation
    // still may, explicitly counted).
    {
        let ws2 = ws.clone();
        engine.register_write_listener(Rc::new(move || ws2.invalidate_read_through()));
    }
    let mut methods = Vec::new();
    for op_name in ws.operation_names() {
        let qname = QName::with_ns(ns.clone(), op_name.clone());
        let memo_key = {
            let svc = ws.name.clone();
            let op = op_name.clone();
            move |request: &Sequence| {
                format!("{svc}\u{2}{}", crate::ws::request_fingerprint(&op, request))
            }
        };

        let features = engine.features_handle();
        let counters = engine.opt_counters();
        let ws2 = ws.clone();
        let op2 = op_name.clone();
        let key_of = memo_key.clone();
        engine.register_external_function(
            qname.clone(),
            1,
            Rc::new(move |env: &mut Env, args: Vec<Sequence>| {
                OptCounters::bump(&counters.ws_requests);
                if !features.get().batching() {
                    OptCounters::bump(&counters.ws_issued);
                    return ws2.call(&op2, &args[0]);
                }
                // Per-evaluation memo: identical requests inside one
                // FLWOR or `iterate` body short-circuit here without
                // touching the breaker path.
                let key = key_of(&args[0]);
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

        let features = engine.features_handle();
        let counters = engine.opt_counters();
        let ws2 = ws.clone();
        let op2 = op_name.clone();
        engine.register_batchable_function(
            qname,
            1,
            Rc::new(move |env: &mut Env, requests: &[Sequence]| {
                let n = requests.len();
                OptCounters::add(&counters.ws_requests, n as u64);
                if !features.get().batching() {
                    // The evaluator gates batching, but keep the
                    // fallback correct if called directly.
                    OptCounters::add(&counters.ws_issued, n as u64);
                    return requests.iter().map(|r| ws2.call(&op2, r)).collect();
                }
                // Partition into memo / read-through hits and misses;
                // only misses pay the (single) batched round trip.
                let mut out: Vec<Option<Sequence>> = vec![None; n];
                let mut miss_idx = Vec::new();
                let mut miss_reqs = Vec::new();
                for (i, req) in requests.iter().enumerate() {
                    let key = memo_key(req);
                    if let Some(hit) = env.ws_memo.get(&key) {
                        OptCounters::bump(&counters.ws_coalesced);
                        out[i] = Some(hit.clone());
                    } else if let Some(hit) = ws2.cached(&op2, req) {
                        OptCounters::bump(&counters.ws_coalesced);
                        env.ws_memo.insert(key, hit.clone());
                        out[i] = Some(hit);
                    } else {
                        miss_idx.push(i);
                        miss_reqs.push(req.clone());
                    }
                }
                if !miss_reqs.is_empty() {
                    OptCounters::bump(&counters.ws_batches);
                    let unique = WebService::unique_requests(&op2, &miss_reqs);
                    OptCounters::add(&counters.ws_issued, unique as u64);
                    OptCounters::add(
                        &counters.ws_coalesced,
                        (miss_reqs.len() - unique) as u64,
                    );
                    let resps = ws2.call_many(&op2, &miss_reqs)?;
                    for (i, resp) in miss_idx.into_iter().zip(resps) {
                        env.ws_memo.insert(memo_key(&requests[i]), resp.clone());
                        out[i] = Some(resp);
                    }
                }
                Ok(out
                    .into_iter()
                    .map(|o| o.unwrap_or_else(Sequence::empty))
                    .collect())
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
/// navigation functions (and to where).
pub fn source_resolver(
    services: &HashMap<String, DataService>,
) -> HashMap<QName, SourceRef> {
    let mut map = HashMap::new();
    for svc in services.values() {
        let SourceBinding::Relational { db, table } = &svc.binding else { continue };
        for m in &svc.methods {
            match m.kind {
                MethodKind::Read if m.arity == 0 => {
                    map.insert(
                        QName::with_ns(svc.namespace.clone(), m.name.clone()),
                        SourceRef::TableScan { source: db.name.clone(), table: table.clone() },
                    );
                }
                MethodKind::Navigation => {
                    // get<CHILD> navigates to the child table.
                    let child = m.name.trim_start_matches("get").to_string();
                    map.insert(
                        QName::with_ns(svc.namespace.clone(), m.name.clone()),
                        SourceRef::Navigation {
                            source: db.name.clone(),
                            child_table: child,
                        },
                    );
                }
                _ => {}
            }
        }
    }
    map
}
