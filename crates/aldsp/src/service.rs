//! The data-service model and the `DataSpace`.
//!
//! §II.A: "ALDSP models an enterprise … as a set of interrelated data
//! services. … ALDSP 3.0 supports two kinds of data services, entity
//! data services and library data services." Each method is realized
//! as an XQuery function or an XQSE procedure callable from client
//! programs, ad-hoc queries, and higher-level logical services —
//! here, as registrations on the shared [`xqse::Xqse`] engine.

// The data space's read and write paths hand out cached trees and
// commit source writes: their failures surface as XQSE-catchable
// errors, never as panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::qname::QName;
use xdm::sequence::Sequence;

use xqeval::context::Env;
use xqse::Xqse;

use std::sync::Arc;

use parking_lot::Mutex;

use crate::decompose::{self, OccPolicy, UpdateOverride};
use crate::fault::{FaultInjector, Op};
use crate::introspect;
use crate::journal::{CoordinatorJournal, RecoveryManager, RecoveryStats};
use crate::lineage::Lineage;
use crate::rel::Database;
use crate::resilience::{Access, Resilience};
use crate::sdo::DataGraph;
use crate::ws::WebService;

/// Entity vs library data service (§II.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// A service-enabled business object with a shape.
    Entity,
    /// A bag of library functions/procedures (e.g. a web service).
    Library,
}

/// The operation types of §II.A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Read function (fetch instances).
    Read,
    /// Navigation function (traverse a relationship).
    Navigation,
    /// Create procedure.
    Create,
    /// Update procedure.
    Update,
    /// Delete procedure.
    Delete,
    /// Supporting library function (read-only).
    LibraryFunction,
    /// Supporting library procedure (side effects).
    LibraryProcedure,
}

/// One method of a data service.
#[derive(Debug, Clone)]
pub struct Method {
    /// Local name (e.g. `CUSTOMER`, `createCUSTOMER`, `getORDER`).
    pub name: String,
    /// Operation type.
    pub kind: MethodKind,
    /// Number of parameters.
    pub arity: usize,
}

/// Where a physical service's data lives.
#[derive(Clone)]
pub enum SourceBinding {
    /// A table in a relational source.
    Relational {
        /// The database.
        db: Database,
        /// The table name.
        table: String,
    },
    /// A web-service source.
    Ws {
        /// The service name.
        name: String,
    },
    /// A logical service defined by XQuery over other services.
    Logical,
}

/// A data service: name, namespace, kind, shape, methods.
#[derive(Clone)]
pub struct DataService {
    /// Service name (`db1/CUSTOMER`, `CustomerProfile`, …).
    pub name: String,
    /// The service namespace (`ld:` + name).
    pub namespace: String,
    /// Entity or library.
    pub kind: ServiceKind,
    /// The shape element local name (entity services).
    pub shape: Option<String>,
    /// The methods.
    pub methods: Vec<Method>,
    /// The data binding.
    pub binding: SourceBinding,
}

struct LogicalMeta {
    lineage: Lineage,
    policy: OccPolicy,
    update_override: UpdateOverride,
}

/// The dataspace: sources + data services + the shared XQSE engine.
///
/// This is the reproduction's stand-in for an ALDSP server instance.
///
/// ```
/// use aldsp::rel::{Column, ColumnType, Database, SqlValue, TableSchema};
/// use aldsp::service::DataSpace;
///
/// let db = Database::new("db1");
/// db.create_table(TableSchema {
///     name: "ITEM".into(),
///     columns: vec![
///         Column::required("ID", ColumnType::Integer),
///         Column::required("NAME", ColumnType::Varchar),
///     ],
///     primary_key: vec!["ID".into()],
///     foreign_keys: vec![],
/// }).unwrap();
/// db.insert("ITEM", vec![SqlValue::Int(1), SqlValue::Str("widget".into())]).unwrap();
///
/// let space = DataSpace::new();
/// space.register_relational_source(&db).unwrap();
/// let out = space
///     .engine()
///     .eval_expr_str("fn:data(i:ITEM()/NAME)", &[("i", "ld:db1/ITEM")])
///     .unwrap();
/// assert_eq!(out.string_value().unwrap(), "widget");
/// ```
pub struct DataSpace {
    xqse: Xqse,
    services: RefCell<HashMap<String, DataService>>,
    databases: RefCell<HashMap<String, Database>>,
    web_services: RefCell<HashMap<String, Rc<WebService>>>,
    logical: RefCell<HashMap<String, Rc<RefCell<LogicalMeta>>>>,
    /// Rendered SQL of the last default-update decomposition
    /// (observability for tests/benches/EXPERIMENTS.md).
    pub last_decomposition: RefCell<Vec<String>>,
    /// The dataspace-wide fault-injection / resilience handle, shared
    /// with every registered source (present and future).
    access: RefCell<Access>,
    /// The 2PC coordinator journal every multi-source submit writes
    /// through; [`DataSpace::recover`] replays it after a crash.
    journal: RefCell<CoordinatorJournal>,
}

impl Default for DataSpace {
    fn default() -> Self {
        DataSpace::new()
    }
}

impl DataSpace {
    /// An empty dataspace.
    pub fn new() -> DataSpace {
        DataSpace {
            xqse: Xqse::new(),
            services: RefCell::new(HashMap::new()),
            databases: RefCell::new(HashMap::new()),
            web_services: RefCell::new(HashMap::new()),
            logical: RefCell::new(HashMap::new()),
            last_decomposition: RefCell::new(Vec::new()),
            access: RefCell::new(Access::none()),
            journal: RefCell::new(CoordinatorJournal::new()),
        }
    }

    /// The coordinator journal (clones share state, like `Database`).
    pub fn journal(&self) -> CoordinatorJournal {
        self.journal.borrow().clone()
    }

    /// Replace the coordinator journal — e.g. with a file-backed one
    /// ([`CoordinatorJournal::open`]) so submits survive the process,
    /// or with another space's journal to model a restarted
    /// coordinator recovering its predecessor's log.
    pub fn set_journal(&self, journal: CoordinatorJournal) {
        *self.journal.borrow_mut() = journal;
    }

    /// Run one crash-recovery pass over the coordinator journal: roll
    /// back every in-doubt transaction (begun, no commit decision —
    /// presumed abort) and roll forward every decided-but-incomplete
    /// one, through the sources' idempotent branch operations.
    ///
    /// On a clean journal this is a no-op (`RecoveryStats::is_noop()`),
    /// and running it twice is equivalent to running it once — the
    /// invariants the chaos suite counter-asserts. Totals are also
    /// accumulated on the engine for `xqsh --explain`.
    pub fn recover(&self) -> XdmResult<RecoveryStats> {
        let journal = self.journal();
        let stats = RecoveryManager::new(&journal)
            .recover(|source| self.database(source))?;
        if !stats.is_noop() {
            // Rolled-forward commits changed source state after the
            // original submit's caches were primed; treat recovery
            // like any other committed write.
            self.engine().note_source_write();
        }
        self.engine().note_recovery(
            stats.in_doubt_found,
            stats.rolled_forward,
            stats.rolled_back,
            stats.replays_skipped,
        );
        Ok(stats)
    }

    /// Install a fault injector across the dataspace: every already
    /// registered source and every source registered later consults it
    /// before each operation. Returns the shared handle so tests can
    /// inspect the injection log.
    pub fn install_fault_injector(
        &self,
        injector: FaultInjector,
    ) -> Arc<Mutex<FaultInjector>> {
        let handle = Arc::new(Mutex::new(injector));
        self.access.borrow_mut().injector = Some(handle.clone());
        self.propagate_access();
        handle
    }

    /// Install a resilience policy (retry/timeout/circuit breaker)
    /// across the dataspace, mirroring [`DataSpace::install_fault_injector`].
    pub fn install_resilience(&self, resilience: Resilience) -> Arc<Mutex<Resilience>> {
        let handle = Arc::new(Mutex::new(resilience));
        self.access.borrow_mut().resilience = Some(handle.clone());
        self.propagate_access();
        handle
    }

    /// The dataspace's current access handle.
    pub fn access(&self) -> Access {
        self.access.borrow().clone()
    }

    /// Install a pre-built access handle (fault injector + resilience
    /// cores) and propagate it to every registered source. This is how
    /// serving-pool worker builders share one injector/breaker across
    /// all workers: the main thread builds the `Access` once, each
    /// worker's builder installs the same clone, and the `Arc` cores
    /// inside make a breaker trip observed by one worker visible to
    /// all.
    pub fn install_access(&self, access: Access) {
        *self.access.borrow_mut() = access;
        self.propagate_access();
    }

    fn propagate_access(&self) {
        let access = self.access.borrow().clone();
        for db in self.databases.borrow().values() {
            db.set_access(access.clone());
        }
        for ws in self.web_services.borrow().values() {
            ws.set_access(access.clone());
        }
    }

    /// The statement engine.
    pub fn xqse(&self) -> &Xqse {
        &self.xqse
    }

    /// The expression engine.
    pub fn engine(&self) -> &xqeval::Engine {
        self.xqse.engine()
    }

    /// Register a relational source: introspection creates one entity
    /// data service per table (§II.A) and binds its methods.
    pub fn register_relational_source(&self, db: &Database) -> XdmResult<Vec<String>> {
        let services = introspect::introspect_relational(self.engine(), db)?;
        let mut names = Vec::new();
        db.set_access(self.access.borrow().clone());
        self.databases.borrow_mut().insert(db.name.clone(), db.clone());
        for s in services {
            names.push(s.name.clone());
            self.services.borrow_mut().insert(s.name.clone(), s);
        }
        Ok(names)
    }

    /// Register a web-service source: one library data service with a
    /// method per operation. The service's read-through epoch becomes
    /// the engine's source-write count, so every write the engine
    /// counts ([`xqeval::Engine::note_source_write`]) stops the fresh
    /// read path serving pre-write responses.
    pub fn register_web_service(&self, mut ws: WebService) -> XdmResult<String> {
        ws.write_epoch = self.engine().source_writes();
        let ws = Rc::new(ws);
        let svc = introspect::introspect_web_service(self.engine(), &ws)?;
        let name = svc.name.clone();
        ws.set_access(self.access.borrow().clone());
        self.web_services.borrow_mut().insert(ws.name.clone(), ws);
        self.services.borrow_mut().insert(name.clone(), svc);
        Ok(name)
    }

    /// Register a logical entity data service: XQuery/XQSE source text
    /// defining its methods, plus the designated primary read function
    /// (§II.C: lineage is computed "by analyzing a specially
    /// designated 'primary' data service read function").
    pub fn register_logical_service(
        &self,
        name: &str,
        source_text: &str,
        primary_read: &QName,
    ) -> XdmResult<()> {
        let module = self.xqse.load(source_text)?;
        let decl = module
            .prolog
            .functions
            .iter()
            .find(|f| &f.name == primary_read)
            .ok_or_else(|| {
                XdmError::new(
                    ErrorCode::DSP0005,
                    format!("primary read function {primary_read} not in module"),
                )
            })?;
        let body = decl.body.as_ref().ok_or_else(|| {
            XdmError::new(ErrorCode::DSP0002, "primary read function is external")
        })?;
        let resolver = introspect::source_resolver(&self.services.borrow())?;
        let lineage = crate::lineage::analyze(body, &resolver)?;
        let mut methods: Vec<Method> = module
            .prolog
            .functions
            .iter()
            .map(|f| Method {
                name: f.name.local.to_string(),
                kind: if f.name == *primary_read { MethodKind::Read } else { MethodKind::LibraryFunction },
                arity: f.params.len(),
            })
            .collect();
        methods.extend(module.prolog.procedures.iter().map(|p| Method {
            name: p.name.local.to_string(),
            kind: if p.readonly {
                MethodKind::LibraryFunction
            } else {
                MethodKind::LibraryProcedure
            },
            arity: p.params.len(),
        }));
        let shape = Some(lineage.root.element.local.to_string());
        self.logical.borrow_mut().insert(
            name.to_string(),
            Rc::new(RefCell::new(LogicalMeta {
                lineage,
                policy: OccPolicy::UpdatedValues,
                update_override: UpdateOverride::None,
            })),
        );
        self.services.borrow_mut().insert(
            name.to_string(),
            DataService {
                name: name.to_string(),
                namespace: format!("ld:{name}"),
                kind: ServiceKind::Entity,
                shape,
                methods,
                binding: SourceBinding::Logical,
            },
        );
        Ok(())
    }

    /// Look up a data service.
    pub fn service(&self, name: &str) -> Option<DataService> {
        self.services.borrow().get(name).cloned()
    }

    /// All registered service names.
    pub fn service_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.services.borrow().keys().cloned().collect();
        v.sort();
        v
    }

    /// A registered database by source name.
    pub fn database(&self, name: &str) -> Option<Database> {
        self.databases.borrow().get(name).cloned()
    }

    /// The lineage computed for a logical service.
    pub fn lineage(&self, service: &str) -> Option<Lineage> {
        self.logical
            .borrow()
            .get(service)
            .map(|m| m.borrow().lineage.clone())
    }

    /// Choose the optimistic-concurrency policy for a logical service
    /// (§II.C lists the three supported choices).
    pub fn set_occ_policy(&self, service: &str, policy: OccPolicy) -> XdmResult<()> {
        let logical = self.logical.borrow();
        let meta = logical.get(service).ok_or_else(|| {
            XdmError::new(ErrorCode::DSP0005, format!("no logical service {service}"))
        })?;
        meta.borrow_mut().policy = policy;
        Ok(())
    }

    /// Install (or clear) an update override for a logical service —
    /// the ALDSP 2.5 "Java update override" slot, now writable in XQSE
    /// (the paper's raison d'être).
    pub fn set_update_override(
        &self,
        service: &str,
        update_override: UpdateOverride,
    ) -> XdmResult<()> {
        let logical = self.logical.borrow();
        let meta = logical.get(service).ok_or_else(|| {
            XdmError::new(ErrorCode::DSP0005, format!("no logical service {service}"))
        })?;
        meta.borrow_mut().update_override = update_override;
        Ok(())
    }

    /// Invoke a read method and wrap the result in an SDO data graph
    /// (the "get" half of Figure 4).
    pub fn get(
        &self,
        service: &str,
        method: &str,
        args: Vec<Sequence>,
    ) -> XdmResult<DataGraph> {
        let svc = self.service(service).ok_or_else(|| {
            XdmError::new(ErrorCode::DSP0005, format!("no data service {service}"))
        })?;
        let name = QName::with_ns(svc.namespace.clone(), method);
        self.access().run(service, Op::Get, || {
            let mut env = Env::new();
            let data = self.engine().call(&name, args.clone(), &mut env)?;
            Ok(DataGraph::new(service.to_string(), data))
        })
    }

    /// Submit a changed data graph back — the "update" half of
    /// Figure 4. Runs the update override if one is installed,
    /// otherwise the default lineage-based decomposition under 2PC.
    pub fn submit(&self, graph: &DataGraph) -> XdmResult<()> {
        let meta = self
            .logical
            .borrow()
            .get(&graph.service)
            .cloned()
            .ok_or_else(|| {
                XdmError::new(
                    ErrorCode::DSP0005,
                    format!("no logical service {}", graph.service),
                )
            })?;
        let ovr = meta.borrow().update_override.clone();
        self.commit(&graph.service, || match &ovr {
            UpdateOverride::None => self.default_submit_raw(graph),
            UpdateOverride::Rust(f) => f(self, graph),
            UpdateOverride::Procedure(name) => {
                // Hand the full SDO datagraph (data + change summary)
                // to the XQSE procedure, as ALDSP hands it to update
                // overrides.
                let dg = graph.to_datagraph_xml()?;
                let mut env = Env::new();
                self.xqse
                    .call_procedure(name, vec![Sequence::one(
                        xdm::sequence::Item::Node(dg),
                    )], &mut env)
                    .map(|_| ())
            }
        })
    }

    /// Run one data-space write under the source's access policy and,
    /// once it has committed, count it as a source write: it may have
    /// changed what dependent sources would answer (web-service
    /// handlers are arbitrary closures), so their read-through caches
    /// must not keep serving pre-write responses on the fresh path.
    fn commit(&self, service: &str, write: impl FnMut() -> XdmResult<()>) -> XdmResult<()> {
        let out = self.access().run(service, Op::Submit, write);
        if out.is_ok() {
            self.engine().note_source_write();
        }
        out
    }

    /// Render the ALDSP "design view" of a data service (Figure 1):
    /// shape, methods by operation type, and — for logical services —
    /// the dependencies recovered from lineage.
    pub fn describe(&self, service: &str) -> XdmResult<String> {
        use std::fmt::Write as _;
        let svc = self.service(service).ok_or_else(|| {
            XdmError::new(ErrorCode::DSP0005, format!("no data service {service}"))
        })?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} data service: {}",
            match svc.kind {
                ServiceKind::Entity => "entity",
                ServiceKind::Library => "library",
            },
            svc.name
        );
        let _ = writeln!(out, "  namespace: {}", svc.namespace);
        if let Some(shape) = &svc.shape {
            let _ = writeln!(out, "  shape: element({shape})");
        }
        let _ = writeln!(out, "  methods:");
        for m in &svc.methods {
            let kind = match m.kind {
                MethodKind::Read => "read",
                MethodKind::Navigation => "navigate",
                MethodKind::Create => "create",
                MethodKind::Update => "update",
                MethodKind::Delete => "delete",
                MethodKind::LibraryFunction => "function",
                MethodKind::LibraryProcedure => "procedure",
            };
            let _ = writeln!(out, "    {:<9} {}#{}", kind, m.name, m.arity);
        }
        if let Some(lineage) = self.lineage(service) {
            let _ = writeln!(out, "  depends on:");
            for shape in lineage.all_shapes() {
                let _ = writeln!(
                    out,
                    "    {}/{} (element {})",
                    shape.source, shape.table, shape.element.local
                );
            }
            if !lineage.root.unmapped.is_empty() {
                let _ = writeln!(
                    out,
                    "  not updatable (no lineage): {}",
                    lineage.root.unmapped.join(", ")
                );
            }
        }
        Ok(out)
    }

    /// Create a full logical instance: the top-level row plus nested
    /// child rows, decomposed to the owning sources under 2PC.
    pub fn create_instance(
        &self,
        service: &str,
        instance: &xdm::node::NodeHandle,
    ) -> XdmResult<()> {
        let lineage = self.lineage(service).ok_or_else(|| {
            XdmError::new(ErrorCode::DSP0005, format!("no logical service {service}"))
        })?;
        let plan = decompose::decompose_create(&lineage, instance)?;
        *self.last_decomposition.borrow_mut() = plan.iter_sql().collect();
        self.commit(service, || decompose::execute(self, plan.clone()))
    }

    /// Delete a logical instance (children first, then the top row).
    pub fn delete_instance(
        &self,
        service: &str,
        instance: &xdm::node::NodeHandle,
    ) -> XdmResult<()> {
        let lineage = self.lineage(service).ok_or_else(|| {
            XdmError::new(ErrorCode::DSP0005, format!("no logical service {service}"))
        })?;
        let plan = decompose::decompose_delete(&lineage, instance)?;
        *self.last_decomposition.borrow_mut() = plan.iter_sql().collect();
        self.commit(service, || decompose::execute(self, plan.clone()))
    }

    /// The default update path: decompose against lineage and execute
    /// under two-phase commit across the affected sources.
    pub fn default_submit(&self, graph: &DataGraph) -> XdmResult<()> {
        self.commit(&graph.service, || self.default_submit_raw(graph))
    }

    fn default_submit_raw(&self, graph: &DataGraph) -> XdmResult<()> {
        let meta = self
            .logical
            .borrow()
            .get(&graph.service)
            .cloned()
            .ok_or_else(|| {
                XdmError::new(
                    ErrorCode::DSP0005,
                    format!("no logical service {}", graph.service),
                )
            })?;
        let (lineage, policy) = {
            let m = meta.borrow();
            (m.lineage.clone(), m.policy.clone())
        };
        let plan = decompose::decompose_update(&lineage, graph, &policy)?;
        *self.last_decomposition.borrow_mut() =
            plan.iter_sql().collect::<Vec<String>>();
        decompose::execute(self, plan)
    }
}
