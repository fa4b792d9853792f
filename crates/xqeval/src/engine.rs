//! The engine: registries for functions, procedures, global variables,
//! and documents; the entry points for loading modules and evaluating
//! queries.
//!
//! ALDSP binds physical sources by registering *external* functions
//! (reads, pure) and *external procedures* (create/update/delete,
//! side-effecting) here — exactly the "set of external XQSE procedures
//! … automatically provided … as a callable means to modify relational
//! source data" of §III.A.

// The optimizer surface (capabilities, counters, cache handles) must
// degrade via Results, never panic: enforced at lint level.
#![deny(clippy::unwrap_used)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xdm::atomic::AtomicValue;
use xdm::datetime::DateTime;
use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::intern::Symbol;
use xdm::node::NodeHandle;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

use xqparser::ast::{Bound, Expr, FunctionDecl, Module, ProcedureDecl, Prolog, QueryBody};
use xqparser::parser::{parse_module, parse_query};
use xqparser::shape::{self, Literal, Shape};

use crate::cache::Lru;
use crate::functions::Args;
use crate::context::Env;
use crate::eval::Evaluator;
use crate::features::Features;

/// A native (Rust) implementation bound to a QName/arity: the bridge
/// to ALDSP physical sources and other host functionality.
pub type ExternalFn = Rc<dyn Fn(&mut Env, Args) -> XdmResult<Sequence>>;

/// Hook installed by the XQSE statement engine so that the expression
/// evaluator can call *user-defined readonly procedures* (which
/// require statement execution).
pub type ProcRunner =
    Rc<dyn Fn(&Engine, &ProcedureDecl, Args, &mut Env) -> XdmResult<Sequence>>;

/// A registered function implementation.
#[derive(Clone)]
pub enum FunctionKind {
    /// A user-declared XQuery function.
    User(Rc<FunctionDecl>),
    /// A native implementation (assumed pure unless `updating`).
    External {
        /// The implementation.
        f: ExternalFn,
        /// True if the function produces updates (XUF updating
        /// function).
        updating: bool,
    },
}

/// Value classes a pushdown-capable source column accepts, mirroring
/// the indexable column types of the relational simulator. The FLWOR
/// rewrite uses this to decide whether a comparison key can be pushed
/// without changing XQuery comparison semantics (false negatives are
/// forbidden), and whether the rows the source returns for it need the
/// `where` re-checked: they do only when the key's XQuery equality is
/// looser or stricter than the column's lexical equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColClass {
    /// Integral numeric column: numeric and untyped keys with an
    /// integral value are pushable.
    Integer,
    /// String column: string/untyped keys are pushable.
    String,
    /// Boolean column: boolean keys are pushable.
    Boolean,
}

/// Indexed point-select implementation: `(env, column, canonical key
/// lexical)` → matching rows as XDM elements.
pub type SourceSelectFn = Rc<dyn Fn(&mut Env, &str, &str) -> XdmResult<Sequence>>;

/// A filterable-source capability advertised for a registered arity-0
/// read function (§II.B "pushing computation to the sources"): the
/// mediator may replace `for $r in src() where $r/COL eq K return …`
/// with a call to `select`, which answers from the source's own
/// access paths (secondary indexes) instead of materializing the
/// whole table and filtering in the middle tier.
#[derive(Clone)]
pub struct SourceCapability {
    /// Columns the source can filter on, with their value class.
    pub columns: Vec<(String, ColClass)>,
    /// Indexed point-select: `(column, canonical key lexical)` →
    /// matching rows as XDM elements (same shape as the read function
    /// returns). The contract is exact: it returns exactly the rows
    /// whose column equals the key, each with that column as one child
    /// holding the column's canonical lexical, so the rewrite skips the
    /// `where` for keys whose comparison is the column's own equality.
    pub select: SourceSelectFn,
    /// *Live* monotonic version of the underlying table (catalog
    /// metadata, never fault-injected) — caches validate against it.
    pub version: Rc<dyn Fn() -> u64>,
    /// Version of the snapshot the read function most recently
    /// *served*. Normally equals `version`; under breaker-open stale
    /// degradation it is the older snapshot version, so cache entries
    /// built from stale data are stamped stale and never revalidate.
    pub served_version: Rc<dyn Fn() -> u64>,
}

/// Optimizer observability: hit/miss/invalidation counters for the
/// join cache, the XDM materialization cache, and pushdown rewrites.
/// Cheap interior-mutability counters, snapshot via
/// [`Engine::opt_stats`], printed by `xqsh --explain`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OptStats {
    /// Join-cache hits (memoized index reused).
    pub join_hits: u64,
    /// Join-cache misses (index built).
    pub join_misses: u64,
    /// Join-cache entries discarded as stale (version/epoch moved).
    pub join_invalidations: u64,
    /// Materialization-cache hits (XDM tree reused).
    pub mat_hits: u64,
    /// Materialization-cache misses (tree rebuilt).
    pub mat_misses: u64,
    /// Source-cache entries refused because the thread's sealed-write
    /// count ([`xdm::sealed_writes`]) moved since they were built: a
    /// table's materialized rows or a keyed-select row set, which an
    /// in-place write to a sealed arena may have edited. The lookup
    /// rebuilds from the table.
    pub mat_invalidations: u64,
    /// FLWOR where-clauses rewritten to source point-selects.
    pub pushdown_rewrites: u64,
    /// FLWOR `for` clauses over a view function that built only the
    /// view rows their `where` accepts (one per operator).
    pub view_unfolds: u64,
    /// Optimize-gated reads answered via a secondary index.
    pub indexed_selects: u64,
    /// Prepared-plan cache hits (parse + prolog load skipped).
    pub plan_hits: u64,
    /// Prepared-plan cache misses (module parsed, prolog loaded).
    pub plan_misses: u64,
    /// Web-service requests observed at the mediator.
    pub ws_requests: u64,
    /// Web-service requests actually issued to the source access
    /// layer (handler attempts; the rest were coalesced).
    pub ws_issued: u64,
    /// Web-service requests answered without touching the source
    /// (per-evaluation memo or read-through response cache).
    pub ws_coalesced: u64,
    /// Crash-recovery passes run (`DataSpace::recover`).
    pub xa_recovery_runs: u64,
    /// In-doubt transactions found across recovery passes (begun, no
    /// commit decision journaled → presumed abort).
    pub xa_in_doubt: u64,
    /// Branch commits replayed for decided-but-incomplete transactions.
    pub xa_rolled_forward: u64,
    /// Branch rollbacks performed for in-doubt transactions.
    pub xa_rolled_back: u64,
    /// Branch replays skipped because the branch had already reached
    /// the target state (idempotent replay).
    pub xa_replays_skipped: u64,
    /// Requests shed by serving-pool admission control (queue full, or
    /// queue wait consumed the deadline) — they never reached a worker.
    pub budget_shed: u64,
    /// Requests that failed with `aldsp:CANCELLED` (external
    /// cancellation observed at a cooperative check point).
    pub budget_cancelled: u64,
    /// Requests that failed with `aldsp:DEADLINE_EXCEEDED`.
    pub budget_deadline: u64,
    /// Requests that failed with `aldsp:FUEL_EXHAUSTED`.
    pub budget_fuel: u64,
    /// Requests that failed with `aldsp:MEMORY_LIMIT`.
    pub budget_memory: u64,
    /// XDM node records allocated (construction + materializing
    /// copies) since the engine was created (or the counters reset).
    pub nodes_built: u64,
    /// Immutable subtrees adopted by reference ("grafted") into a
    /// constructed element/document instead of being deep-copied.
    pub subtrees_grafted: u64,
    /// Node records the grafts above saved us from allocating (the
    /// summed deep size of every grafted subtree).
    pub deep_copy_nodes_avoided: u64,
    /// Intern-table lookups that found an existing symbol (QName
    /// parts and repeated text/attribute values share one allocation).
    pub interned_hits: u64,
    /// FLWOR tuples a cursor pulled through every clause to its
    /// `return`.
    pub tuples_pulled: u64,
    /// Cursors dropped before their end — an early-exit consumer
    /// (`exists`, `subsequence`, a positional predicate, a quantifier)
    /// decided its answer without draining the FLWOR.
    pub early_exits: u64,
    /// Source items a dropped cursor never turned into tuples: work
    /// the eager evaluator would have done and the pipelined one
    /// skipped.
    pub items_never_built: u64,
}

impl OptStats {
    /// Fold another counter block into this one, field by field. The
    /// serving pool uses this to aggregate each worker's per-engine
    /// counters into the single totals line `xqsh --explain` prints.
    pub fn accumulate(&mut self, other: &OptStats) {
        self.join_hits += other.join_hits;
        self.join_misses += other.join_misses;
        self.join_invalidations += other.join_invalidations;
        self.mat_hits += other.mat_hits;
        self.mat_misses += other.mat_misses;
        self.mat_invalidations += other.mat_invalidations;
        self.pushdown_rewrites += other.pushdown_rewrites;
        self.view_unfolds += other.view_unfolds;
        self.indexed_selects += other.indexed_selects;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.ws_requests += other.ws_requests;
        self.ws_issued += other.ws_issued;
        self.ws_coalesced += other.ws_coalesced;
        self.xa_recovery_runs += other.xa_recovery_runs;
        self.xa_in_doubt += other.xa_in_doubt;
        self.xa_rolled_forward += other.xa_rolled_forward;
        self.xa_rolled_back += other.xa_rolled_back;
        self.xa_replays_skipped += other.xa_replays_skipped;
        self.budget_shed += other.budget_shed;
        self.budget_cancelled += other.budget_cancelled;
        self.budget_deadline += other.budget_deadline;
        self.budget_fuel += other.budget_fuel;
        self.budget_memory += other.budget_memory;
        self.nodes_built += other.nodes_built;
        self.subtrees_grafted += other.subtrees_grafted;
        self.deep_copy_nodes_avoided += other.deep_copy_nodes_avoided;
        self.interned_hits += other.interned_hits;
        self.tuples_pulled += other.tuples_pulled;
        self.early_exits += other.early_exits;
        self.items_never_built += other.items_never_built;
    }
}

/// Live (interior-mutability) counter block behind [`OptStats`].
/// Shared with the evaluator and with host source closures (the
/// introspected read functions count materialization hits/misses and
/// indexed selects through it).
#[derive(Default)]
pub struct OptCounters {
    /// See [`OptStats::join_hits`].
    pub join_hits: Cell<u64>,
    /// See [`OptStats::join_misses`].
    pub join_misses: Cell<u64>,
    /// See [`OptStats::join_invalidations`].
    pub join_invalidations: Cell<u64>,
    /// See [`OptStats::mat_hits`].
    pub mat_hits: Cell<u64>,
    /// See [`OptStats::mat_misses`].
    pub mat_misses: Cell<u64>,
    /// See [`OptStats::mat_invalidations`].
    pub mat_invalidations: Cell<u64>,
    /// See [`OptStats::pushdown_rewrites`].
    pub pushdown_rewrites: Cell<u64>,
    /// See [`OptStats::view_unfolds`].
    pub view_unfolds: Cell<u64>,
    /// See [`OptStats::indexed_selects`].
    pub indexed_selects: Cell<u64>,
    /// See [`OptStats::plan_hits`].
    pub plan_hits: Cell<u64>,
    /// See [`OptStats::plan_misses`].
    pub plan_misses: Cell<u64>,
    /// See [`OptStats::ws_requests`].
    pub ws_requests: Cell<u64>,
    /// See [`OptStats::ws_issued`].
    pub ws_issued: Cell<u64>,
    /// See [`OptStats::ws_coalesced`].
    pub ws_coalesced: Cell<u64>,
    /// See [`OptStats::xa_recovery_runs`].
    pub xa_recovery_runs: Cell<u64>,
    /// See [`OptStats::xa_in_doubt`].
    pub xa_in_doubt: Cell<u64>,
    /// See [`OptStats::xa_rolled_forward`].
    pub xa_rolled_forward: Cell<u64>,
    /// See [`OptStats::xa_rolled_back`].
    pub xa_rolled_back: Cell<u64>,
    /// See [`OptStats::xa_replays_skipped`].
    pub xa_replays_skipped: Cell<u64>,
    /// See [`OptStats::budget_shed`].
    pub budget_shed: Cell<u64>,
    /// See [`OptStats::budget_cancelled`].
    pub budget_cancelled: Cell<u64>,
    /// See [`OptStats::budget_deadline`].
    pub budget_deadline: Cell<u64>,
    /// See [`OptStats::budget_fuel`].
    pub budget_fuel: Cell<u64>,
    /// See [`OptStats::budget_memory`].
    pub budget_memory: Cell<u64>,
    /// See [`OptStats::tuples_pulled`].
    pub tuples_pulled: Cell<u64>,
    /// See [`OptStats::early_exits`].
    pub early_exits: Cell<u64>,
    /// See [`OptStats::items_never_built`].
    pub items_never_built: Cell<u64>,
}

impl OptCounters {
    /// Add one to a counter cell (convenience for closure call sites).
    pub fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    /// Add `n` to a counter cell.
    pub fn add(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }
}

/// A query compiled once and executable many times: a plan, which
/// every text of the query's shape shares, and the values of the
/// literal slots of the text it was prepared for.
///
/// Obtained from [`Engine::prepare`]; executed with
/// [`Engine::execute_prepared`]. This is the paper-era mediation-tier
/// shape — data-service functions are compiled once at deployment and
/// served many times — applied to our `eval_query` path.
#[derive(Clone)]
pub struct PreparedQuery {
    plan: Rc<Plan>,
    /// The values of the body's literal slots, read from this text.
    literals: Rc<[AtomicValue]>,
}

/// What the texts of one shape share: the parsed module (whose prolog
/// is already loaded into the engine) and what loading its prolog did.
struct Plan {
    module: Module,
    /// *Initialized* global variable values computed by the prolog
    /// load, re-installed verbatim on every plan-cache hit
    /// (prolog-load-once semantics). External variables are
    /// deliberately absent: they are the ALDSP parameter mechanism
    /// and must read through to the engine's live globals map so
    /// [`Engine::set_global`] re-binds are observed by cached plans.
    globals: Vec<(QName, Sequence)>,
    /// The `fn:trace` lines the initializers emitted while the prolog
    /// loaded, which each execution emits before its body.
    init_trace: Vec<String>,
    /// Registry generation this plan was prepared against (the
    /// "prolog fingerprint" half of the cache key). A global
    /// initializer may call an external function, so a later external
    /// registration invalidates the plan and its captured `globals`.
    gen: u64,
    /// The shape the plan is cached under; `None` when the plan cache
    /// is off and the text was parsed verbatim.
    shape: Option<Shape>,
}

impl PreparedQuery {
    /// The parsed module.
    pub fn module(&self) -> &Module {
        &self.plan.module
    }

    /// Run `f` on the module's body in `env`, in a frame of the body's
    /// own and with this text's literal values: the prolog's trace
    /// lines are emitted first, and the caller's frame and values come
    /// back after, so a nested execution on `env` neither sees nor
    /// overwrites them.
    pub fn run_body<R>(&self, env: &mut Env, f: impl FnOnce(&Module, &mut Env) -> R) -> R {
        let module = &self.plan.module;
        for line in &self.plan.init_trace {
            env.emit_trace(line.as_str());
        }
        let caller = env.push_frame(module.frame.get() as usize);
        let saved = env.literals.replace(self.literals.clone());
        let out = f(module, env);
        env.literals = saved;
        env.pop_frame(caller);
        out
    }
}

/// A registered procedure implementation.
#[derive(Clone)]
pub enum ProcKind {
    /// A user-declared XQSE procedure.
    User(Rc<ProcedureDecl>),
    /// A native implementation.
    External {
        /// The implementation.
        f: ExternalFn,
        /// Readonly procedures may be called from expressions.
        readonly: bool,
    },
}

/// The evaluation engine.
///
/// `Engine` is a cheap handle: cloning bumps one `Rc`, and every clone
/// shares the same registries, caches, counters, and knobs, so the
/// statement engines and front ends can hold their own handle on one
/// engine. All interior state is `Cell`/`RefCell`/`Rc`: the engine is
/// single-threaded by design (`!Send`/`!Sync`).
#[derive(Clone)]
pub struct Engine {
    inner: Rc<EngineInner>,
}

/// The engine state proper; see [`Engine`] for the field-by-field
/// story. Private: all access goes through the handle's methods.
struct EngineInner {
    /// Process-unique: the call sites and global references this
    /// engine resolved carry it, so another engine that meets them
    /// looks their names up in its own registries instead.
    id: u64,
    /// Functions and procedures, one entry per name and arity.
    callees: RefCell<Registry<Callee>>,
    /// Global variables' values, one entry per name.
    globals: RefCell<Registry<Option<Sequence>>>,
    documents: RefCell<HashMap<String, NodeHandle>>,
    proc_runner: RefCell<Option<ProcRunner>>,
    /// Fixed "current" instant for fn:current-date/dateTime —
    /// deterministic by design (tests and reproducible benchmarks).
    now: DateTime,
    /// The evaluation layers this engine may use. Shared (`Rc`) so
    /// source closures registered at introspection time observe
    /// changes live.
    features: Rc<Cell<Features>>,
    /// Pushdown capabilities by arity-0 read-function name, shared with
    /// the plans that use them.
    capabilities: RefCell<HashMap<QName, Rc<SourceCapability>>>,
    /// Bumped by [`Engine::note_source_write`] whenever a statement
    /// may have written *some* source (non-readonly procedure calls,
    /// committed data-space writes) — the cross-call companion of
    /// [`crate::Env::note_write`]. Web-service sources read it as their
    /// read-through epoch, so their response caches stop serving
    /// pre-write responses on the fresh path (stale-read degradation
    /// still may).
    source_writes: Rc<Cell<u64>>,
    /// Bumped on every external function/procedure registration — the
    /// "prolog fingerprint" that invalidates cached plans prepared
    /// against an older registry.
    registry_gen: Cell<u64>,
    /// LRU cache of prepared plans, keyed by the digest of their shape
    /// ([`shape::digest`]) and checked against the shape on a hit.
    plan_cache: RefCell<Lru<u64, PreparedQuery>>,
    /// Which literal tokens of a text the parser made slots, by the
    /// hash of the text's outline ([`shape::scan`]), as the last plan
    /// prepared for that outline found: what a lookup leaves out of a
    /// text's digest. Sized with `plan_cache`.
    plan_slots: RefCell<Lru<u64, Rc<[u32]>>>,
    /// The literal tokens of the text being prepared, kept between
    /// calls so that a lookup allocates no list.
    plan_literals: RefCell<Vec<Literal>>,
    /// Optimizer counters.
    opt: Rc<OptCounters>,
    /// Raw mirror of the `Arc` in `budget`, for the per-step hot
    /// path: reading `Option<Arc<_>>` out of a `RefCell` costs a
    /// borrow-flag round-trip per evaluation step, which the armed
    /// overhead guard can see. The no-budget path is one null check of
    /// this `Cell`. Null when no budget is installed;
    /// otherwise valid exactly as long as `budget` holds the owning
    /// `Arc` (both are updated together in [`Engine::set_budget`],
    /// and `Engine` is `!Sync`, so no other thread can swap them
    /// mid-read).
    budget_raw: Cell<*const crate::budget::Budget>,
    /// The budget of the request this engine is currently serving
    /// (installed per request by the serving pool or `xqsh` flags).
    budget: RefCell<Option<Arc<crate::budget::Budget>>>,
    /// Baseline snapshot of this thread's XDM construction counters,
    /// taken at engine creation (and on [`Engine::reset_opt_stats`]).
    /// [`Engine::opt_stats`] reports the delta since this baseline —
    /// valid because each engine evaluates on exactly one thread (the
    /// serving pool gives every worker a private engine).
    xdm_base: Cell<xdm::XdmStats>,
}

/// One registry entry per expanded name (and, for callees, arity).
/// Entries are never removed: registration updates an entry in place,
/// and a call site or global reference bound to an entry by index
/// reads what the entry holds when it runs.
struct Registry<T> {
    by_name: HashMap<NameKey, Vec<Option<u32>>, BuildHasherDefault<WordHasher>>,
    entries: Vec<T>,
}

/// What a function name of one arity calls: the function registered
/// under it, or else the procedure.
#[derive(Default)]
struct Callee {
    function: Option<FunctionKind>,
    procedure: Option<ProcKind>,
}

/// The source of engine ids; 0 is no engine's.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

/// An expanded name as the addresses of its interned namespace and
/// local part ([`Symbol::addr`]): equal keys are equal names, and a
/// lookup hashes two words instead of both strings.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct NameKey(usize, usize);

impl NameKey {
    fn of(name: &QName) -> NameKey {
        NameKey(name.ns.as_ref().map_or(0, Symbol::addr), name.local.addr())
    }
}

/// A multiply-rotate hasher for keys made of machine words, which need
/// none of SipHash's resistance: a [`NameKey`]'s words are addresses
/// the process chose, not input an attacker controls.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // Fold the well-mixed high half onto the low bits that pick a
        // bucket.
        self.0 ^ (self.0 >> 32)
    }
}

impl<T: Default> Default for Registry<T> {
    fn default() -> Self {
        Registry { by_name: HashMap::default(), entries: Vec::new() }
    }
}

impl<T: Default> Registry<T> {
    /// The entry of `name` at `arity` (0 for globals), if any.
    fn find(&self, name: &QName, arity: usize) -> Option<u32> {
        *self.by_name.get(&NameKey::of(name))?.get(arity)?
    }

    /// The entry of `name` at `arity`, made empty if it is new.
    fn entry(&mut self, name: &QName, arity: usize) -> u32 {
        let slots = self.by_name.entry(NameKey::of(name)).or_default();
        if slots.len() <= arity {
            slots.resize(arity + 1, None);
        }
        *slots[arity].get_or_insert_with(|| {
            self.entries.push(T::default());
            (self.entries.len() - 1) as u32
        })
    }

    /// The entry a reference bound by `engine` reads: its own when it
    /// was bound here, found by name when another engine bound it.
    fn read(&self, engine: u64, bound: Bound, name: &QName, arity: usize) -> Option<&T> {
        let i = if bound.engine == engine { Some(bound.entry) } else { self.find(name, arity) };
        i.map(|i| &self.entries[i as usize])
    }

    fn get_mut(&mut self, name: &QName, arity: usize) -> &mut T {
        let i = self.entry(name, arity);
        &mut self.entries[i as usize]
    }
}

/// Default prepared-plan cache capacity: enough for every distinct
/// data-service function a realistic space serves, small enough that
/// eviction scans stay trivial.
const PLAN_CACHE_CAPACITY: usize = 64;

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A fresh engine with builtins only, using the features in
    /// `XQSE_FEATURES` ([`Features::from_env`]).
    ///
    /// # Panics
    ///
    /// If `XQSE_FEATURES` is not a valid spec: a misspelt feature name
    /// must fail loudly rather than silently run the full set.
    pub fn new() -> Engine {
        let features = Features::from_env().unwrap_or_else(|e| panic!("{e}"));
        Engine {
            inner: Rc::new(EngineInner {
                id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
                callees: RefCell::new(Registry::default()),
                globals: RefCell::new(Registry::default()),
                documents: RefCell::new(HashMap::new()),
                proc_runner: RefCell::new(None),
                now: DateTime::parse("2007-12-07T10:30:00").expect("valid literal"),
                features: Rc::new(Cell::new(features)),
                capabilities: RefCell::new(HashMap::new()),
                source_writes: Rc::new(Cell::new(0)),
                registry_gen: Cell::new(0),
                plan_cache: RefCell::new(Lru::new(PLAN_CACHE_CAPACITY)),
                plan_slots: RefCell::new(Lru::new(PLAN_CACHE_CAPACITY)),
                plan_literals: RefCell::new(Vec::new()),
                opt: Rc::new(OptCounters::default()),
                budget_raw: Cell::new(std::ptr::null()),
                budget: RefCell::new(None),
                xdm_base: Cell::new(xdm::xdm_stats()),
            }),
        }
    }

    /// Install (or clear) the per-request budget this engine enforces.
    /// Also mirrors the budget into the thread-local slot the
    /// source-access layers read ([`crate::budget::current_budget`]).
    pub fn set_budget(&self, budget: Option<Arc<crate::budget::Budget>>) {
        crate::budget::set_current_budget(budget.clone());
        self.inner.budget_raw.set(
            budget.as_ref().map_or(std::ptr::null(), Arc::as_ptr),
        );
        *self.inner.budget.borrow_mut() = budget;
    }

    /// The installed budget as a plain borrow — the hot-path read
    /// behind [`Engine::budget_step`] and friends.
    ///
    /// SAFETY contract for callers: use the returned borrow
    /// immediately and do not call [`Engine::set_budget`] (which
    /// drops the owning `Arc`) while holding it.
    #[inline]
    fn budget_ref(&self) -> Option<&crate::budget::Budget> {
        let p = self.inner.budget_raw.get();
        if p.is_null() {
            None
        } else {
            // SAFETY: `budget_raw` is non-null only while the Arc in
            // `self.inner.budget` (set in the same set_budget call) keeps
            // the pointee alive, and `Engine` is `!Sync`, so nothing
            // can swap the budget concurrently with this read.
            unsafe { Some(&*p) }
        }
    }

    /// The budget currently installed on this engine, if any.
    pub fn budget(&self) -> Option<Arc<crate::budget::Budget>> {
        self.inner.budget.borrow().clone()
    }

    /// Hot-loop charge: one fuel unit (plus strided deadline /
    /// cancellation checks). No-op without an installed budget.
    #[inline]
    pub fn budget_step(&self) -> XdmResult<()> {
        match self.budget_ref() {
            Some(b) => b.step(),
            None => Ok(()),
        }
    }

    /// Loop-head cooperative check: cancellation every call, the
    /// deadline strided (see [`crate::budget::Budget::loop_check`]).
    /// The statement interpreters call this at `while`/`iterate`
    /// heads. No-op without an installed budget.
    #[inline]
    pub fn budget_loop_check(&self) -> XdmResult<()> {
        match self.budget_ref() {
            Some(b) => b.loop_check(),
            None => Ok(()),
        }
    }

    /// Charge `units` of XDM allocation against the installed budget
    /// (node constructors). No-op without an installed budget.
    #[inline]
    pub fn budget_charge_memory(&self, units: u64) -> XdmResult<()> {
        match self.budget_ref() {
            Some(b) => b.charge_memory(units),
            None => Ok(()),
        }
    }

    /// Register an external (native) function. Bumps the registry
    /// generation: prepared plans from before this registration stop
    /// revalidating in the plan cache.
    pub fn register_external_function(
        &self,
        name: QName,
        arity: usize,
        f: ExternalFn,
    ) {
        self.inner.callees.borrow_mut().get_mut(&name, arity).function =
            Some(FunctionKind::External { f, updating: false });
        self.inner.registry_gen.set(self.inner.registry_gen.get() + 1);
    }

    /// Register an external procedure (side-effecting unless
    /// `readonly`). Bumps the registry generation like
    /// [`Engine::register_external_function`].
    pub fn register_external_procedure(
        &self,
        name: QName,
        arity: usize,
        readonly: bool,
        f: ExternalFn,
    ) {
        self.inner.callees.borrow_mut().get_mut(&name, arity).procedure =
            Some(ProcKind::External { f, readonly });
        self.inner.registry_gen.set(self.inner.registry_gen.get() + 1);
    }

    /// Bind a global variable (external variables, ALDSP parameters).
    pub fn set_global(&self, name: QName, value: Sequence) {
        *self.inner.globals.borrow_mut().get_mut(&name, 0) = Some(value);
    }

    /// Look up a global variable.
    pub fn global(&self, name: &QName) -> Option<Sequence> {
        let globals = self.inner.globals.borrow();
        globals.find(name, 0).and_then(|i| globals.entries[i as usize].clone())
    }

    /// The value of the global `name`, which a reference resolved to
    /// `bound`.
    #[inline]
    pub(crate) fn global_at(&self, bound: Bound, name: &QName) -> Option<Sequence> {
        self.inner.globals.borrow().read(self.inner.id, bound, name, 0).cloned().flatten()
    }

    /// The entry of the global `name`, for a reference to bind.
    pub(crate) fn global_entry(&self, name: &QName) -> Bound {
        Bound { engine: self.inner.id, entry: self.inner.globals.borrow_mut().entry(name, 0) }
    }

    /// The registry entry of `name` at `arity`, for a call site to bind.
    pub(crate) fn callee_entry(&self, name: &QName, arity: usize) -> Bound {
        Bound { engine: self.inner.id, entry: self.inner.callees.borrow_mut().entry(name, arity) }
    }

    /// The function a call site bound to `bound` runs.
    #[inline]
    pub(crate) fn function_at(&self, bound: Bound, name: &QName, arity: usize) -> Option<FunctionKind> {
        let callees = self.inner.callees.borrow();
        callees.read(self.inner.id, bound, name, arity)?.function.clone()
    }

    /// The procedure a call site bound to `bound` runs.
    #[inline]
    pub fn procedure_at(&self, bound: Bound, name: &QName, arity: usize) -> Option<ProcKind> {
        let callees = self.inner.callees.borrow();
        callees.read(self.inner.id, bound, name, arity)?.procedure.clone()
    }

    /// Does a function of `name` at `arity` exist, for a call site
    /// bound to `bound`?
    pub fn has_function_at(&self, bound: Bound, name: &QName, arity: usize) -> bool {
        let callees = self.inner.callees.borrow();
        callees.read(self.inner.id, bound, name, arity).is_some_and(|c| c.function.is_some())
    }

    /// Register a document for `fn:doc`.
    pub fn register_document(&self, uri: impl Into<String>, doc: NodeHandle) {
        self.inner.documents.borrow_mut().insert(uri.into(), doc);
    }

    /// Resolve a document registered for `fn:doc`.
    pub fn document(&self, uri: &str) -> Option<NodeHandle> {
        self.inner.documents.borrow().get(uri).cloned()
    }

    /// Install the statement-engine hook that runs user procedures.
    pub fn install_proc_runner(&self, runner: ProcRunner) {
        *self.inner.proc_runner.borrow_mut() = Some(runner);
    }

    /// The installed procedure runner, if any.
    pub fn proc_runner(&self) -> Option<ProcRunner> {
        self.inner.proc_runner.borrow().clone()
    }

    /// Fixed current dateTime.
    pub fn now(&self) -> DateTime {
        self.inner.now
    }

    /// The evaluation layers this engine may use.
    pub fn features(&self) -> Features {
        self.inner.features.get()
    }

    /// Replace the feature set. Takes effect at the next decision
    /// point, including inside introspected source closures.
    pub fn set_features(&self, features: Features) {
        self.inner.features.set(features);
    }

    /// A shared handle on the feature set, for source closures
    /// registered at introspection time.
    pub fn features_handle(&self) -> Rc<Cell<Features>> {
        self.inner.features.clone()
    }

    /// Resize the prepared-plan cache (shrinking evicts LRU entries).
    pub fn set_plan_cache_capacity(&self, cap: usize) {
        self.inner.plan_cache.borrow_mut().set_capacity(cap);
        self.inner.plan_slots.borrow_mut().set_capacity(cap);
    }

    /// Advertise a pushdown capability for a registered arity-0 read
    /// function.
    pub fn register_source_capability(&self, name: QName, cap: SourceCapability) {
        self.inner.capabilities.borrow_mut().insert(name, Rc::new(cap));
    }

    /// The pushdown capability of a read function, if advertised.
    pub fn source_capability(&self, name: &QName) -> Option<Rc<SourceCapability>> {
        self.inner.capabilities.borrow().get(name).cloned()
    }

    /// Count a statement that may have written a source. Called by
    /// the statement engine alongside [`crate::Env::note_write`]
    /// (non-readonly procedure calls) and by the ALDSP tier after
    /// committed data-space writes.
    pub fn note_source_write(&self) {
        let n = &self.inner.source_writes;
        n.set(n.get() + 1);
    }

    /// The counter [`Engine::note_source_write`] bumps, shared: a
    /// web-service source reads it as its read-through epoch.
    pub fn source_writes(&self) -> Rc<Cell<u64>> {
        self.inner.source_writes.clone()
    }

    /// Record the outcome of one crash-recovery pass over the 2PC
    /// coordinator journal. The engine knows nothing of XA — these are
    /// plain totals the host (ALDSP tier) reports so `xqsh --explain`
    /// can surface recovery alongside the optimizer counters.
    pub fn note_recovery(
        &self,
        in_doubt: u64,
        rolled_forward: u64,
        rolled_back: u64,
        replays_skipped: u64,
    ) {
        let o = &self.inner.opt;
        OptCounters::bump(&o.xa_recovery_runs);
        OptCounters::add(&o.xa_in_doubt, in_doubt);
        OptCounters::add(&o.xa_rolled_forward, rolled_forward);
        OptCounters::add(&o.xa_rolled_back, rolled_back);
        OptCounters::add(&o.xa_replays_skipped, replays_skipped);
    }

    /// Snapshot of the optimizer counters.
    pub fn opt_stats(&self) -> OptStats {
        let xdm = xdm::xdm_stats().since(&self.inner.xdm_base.get());
        OptStats {
            join_hits: self.inner.opt.join_hits.get(),
            join_misses: self.inner.opt.join_misses.get(),
            join_invalidations: self.inner.opt.join_invalidations.get(),
            mat_hits: self.inner.opt.mat_hits.get(),
            mat_misses: self.inner.opt.mat_misses.get(),
            mat_invalidations: self.inner.opt.mat_invalidations.get(),
            pushdown_rewrites: self.inner.opt.pushdown_rewrites.get(),
            view_unfolds: self.inner.opt.view_unfolds.get(),
            indexed_selects: self.inner.opt.indexed_selects.get(),
            plan_hits: self.inner.opt.plan_hits.get(),
            plan_misses: self.inner.opt.plan_misses.get(),
            ws_requests: self.inner.opt.ws_requests.get(),
            ws_issued: self.inner.opt.ws_issued.get(),
            ws_coalesced: self.inner.opt.ws_coalesced.get(),
            xa_recovery_runs: self.inner.opt.xa_recovery_runs.get(),
            xa_in_doubt: self.inner.opt.xa_in_doubt.get(),
            xa_rolled_forward: self.inner.opt.xa_rolled_forward.get(),
            xa_rolled_back: self.inner.opt.xa_rolled_back.get(),
            xa_replays_skipped: self.inner.opt.xa_replays_skipped.get(),
            budget_shed: self.inner.opt.budget_shed.get(),
            budget_cancelled: self.inner.opt.budget_cancelled.get(),
            budget_deadline: self.inner.opt.budget_deadline.get(),
            budget_fuel: self.inner.opt.budget_fuel.get(),
            budget_memory: self.inner.opt.budget_memory.get(),
            nodes_built: xdm.nodes_built,
            subtrees_grafted: xdm.subtrees_grafted,
            deep_copy_nodes_avoided: xdm.deep_copy_nodes_avoided,
            interned_hits: xdm.interned_hits,
            tuples_pulled: self.inner.opt.tuples_pulled.get(),
            early_exits: self.inner.opt.early_exits.get(),
            items_never_built: self.inner.opt.items_never_built.get(),
        }
    }

    /// Reset the optimizer counters (benchmarks isolate phases).
    pub fn reset_opt_stats(&self) {
        let o = &self.inner.opt;
        o.join_hits.set(0);
        o.join_misses.set(0);
        o.join_invalidations.set(0);
        o.mat_hits.set(0);
        o.mat_misses.set(0);
        o.mat_invalidations.set(0);
        o.pushdown_rewrites.set(0);
        o.view_unfolds.set(0);
        o.indexed_selects.set(0);
        o.plan_hits.set(0);
        o.plan_misses.set(0);
        o.ws_requests.set(0);
        o.ws_issued.set(0);
        o.ws_coalesced.set(0);
        o.xa_recovery_runs.set(0);
        o.xa_in_doubt.set(0);
        o.xa_rolled_forward.set(0);
        o.xa_rolled_back.set(0);
        o.xa_replays_skipped.set(0);
        o.budget_shed.set(0);
        o.budget_cancelled.set(0);
        o.budget_deadline.set(0);
        o.budget_fuel.set(0);
        o.budget_memory.set(0);
        o.tuples_pulled.set(0);
        o.early_exits.set(0);
        o.items_never_built.set(0);
        self.inner.xdm_base.set(xdm::xdm_stats());
    }

    /// Shared counter block for the evaluator and source closures.
    pub fn opt_counters(&self) -> Rc<OptCounters> {
        self.inner.opt.clone()
    }

    /// Look up a function by expanded name and arity.
    pub fn function(&self, name: &QName, arity: usize) -> Option<FunctionKind> {
        self.function_at(Bound::default(), name, arity)
    }

    /// Look up a procedure by expanded name and arity.
    pub fn procedure(&self, name: &QName, arity: usize) -> Option<ProcKind> {
        self.procedure_at(Bound::default(), name, arity)
    }

    /// Parse a module and register its prolog declarations. Global
    /// variable initializers are evaluated immediately, in order. There
    /// is no caller context, so the `fn:trace` lines an initializer
    /// emits are dropped (a prepared query's executions emit them).
    /// Returns the parsed module (the body is *not* executed here).
    pub fn load(&self, src: &str) -> XdmResult<Module> {
        let module = parse_module(src)?;
        self.load_prolog(&module)?;
        Ok(module)
    }

    /// Resolve a pre-parsed module against this engine and register its
    /// prolog. Resolution comes first: an undefined variable
    /// (`XPST0008`) or a `set` of anything but a block variable
    /// (`XQSE0001`) fails the load before any initializer runs. The
    /// initializers' `fn:trace` lines are dropped.
    pub fn load_prolog(&self, module: &Module) -> XdmResult<()> {
        self.load_prolog_traced(module).map(drop)
    }

    /// [`Engine::load_prolog`], returning the `fn:trace` lines the
    /// initializers emitted.
    fn load_prolog_traced(&self, module: &Module) -> XdmResult<Vec<String>> {
        crate::resolve::resolve_module(module, self)?;
        self.install_declarations(&module.prolog)?;
        let trace = Rc::new(RefCell::new(Vec::new()));
        // Global variables, in declaration order.
        for v in &module.prolog.variables {
            match &v.value {
                Some(init) => {
                    let mut env = Env::new();
                    env.trace = trace.clone();
                    env.push_frame(v.frame.get() as usize);
                    let value = Evaluator::new(self).eval(init, &mut env)?;
                    if let Some(ty) = &v.ty {
                        ty.check(&value, || format!("declare variable ${}", v.name))?;
                    }
                    self.set_global(v.name.clone(), value);
                }
                None => {
                    if self.global(&v.name).is_none() {
                        return Err(XdmError::new(
                            ErrorCode::XPST0008,
                            format!("external variable ${} is unbound", v.name),
                        ));
                    }
                }
            }
        }
        Ok(trace.take())
    }

    /// Register a prolog's function and procedure declarations. The
    /// registry shares each declaration's `Rc` with the module, so a
    /// plan-cache hit re-installs its plan's own declarations without
    /// copying them. An `external` declaration keeps the host's
    /// existing registration and fails without one.
    fn install_declarations(&self, prolog: &Prolog) -> XdmResult<()> {
        let unbound = |what: &str, name: &QName, arity: usize| {
            XdmError::new(
                ErrorCode::XPST0017,
                format!("external {what} {name}#{arity} has no host binding"),
            )
        };
        let mut callees = self.inner.callees.borrow_mut();
        for f in &prolog.functions {
            let arity = f.params.len();
            let callee = callees.get_mut(&f.name, arity);
            if f.body.is_some() {
                callee.function = Some(FunctionKind::User(f.clone()));
            } else if callee.function.is_none() {
                return Err(unbound("function", &f.name, arity));
            }
        }
        for p in &prolog.procedures {
            let arity = p.params.len();
            let callee = callees.get_mut(&p.name, arity);
            if p.body.is_some() {
                callee.procedure = Some(ProcKind::User(p.clone()));
            } else if callee.procedure.is_none() {
                return Err(unbound("procedure", &p.name, arity));
            }
        }
        Ok(())
    }

    /// Prepare a query: parse it and load its prolog — once — and
    /// return a plan executable many times via
    /// [`Engine::execute_prepared`], with this text's values.
    ///
    /// With the plan cache enabled ([`Features::batching`]), plans are
    /// memoized by *shape* ([`xqparser::shape`]): texts that differ
    /// only in the literals of their query body share one plan, and a
    /// text whose shape is cached is lexed, not parsed, and runs the
    /// plan with its own literal values. A plan is revalidated against
    /// the registry generation ("prolog fingerprint"); a hit skips the
    /// parse and the prolog load entirely, re-installing the plan's own
    /// prolog declarations and captured *initialized* global values so
    /// the plan always executes against the prolog it was compiled
    /// with. External variables (ALDSP parameters) are not captured:
    /// they read through to the live globals map, so
    /// [`Engine::set_global`] re-binds between executions are honored
    /// without invalidating the plan. With the cache disabled every
    /// text is parsed verbatim, its literals plain.
    pub fn prepare(&self, src: &str) -> XdmResult<PreparedQuery> {
        if !self.features().batching() {
            let module = parse_module(src)?;
            return self.prepare_module(module, Rc::from([]), None);
        }
        // Taken, not borrowed: a global initializer may prepare a text
        // of its own.
        let mut lits = std::mem::take(&mut *self.inner.plan_literals.borrow_mut());
        let prepared = self.prepare_cached(src, &mut lits);
        *self.inner.plan_literals.borrow_mut() = lits;
        prepared
    }

    fn prepare_cached(&self, src: &str, lits: &mut Vec<Literal>) -> XdmResult<PreparedQuery> {
        let outline = shape::scan(src, lits);
        let lits: &[Literal] = if outline.is_some() { lits } else { &[] };
        let digest = match outline {
            Some(o) => {
                let slots = self.inner.plan_slots.borrow_mut().get(&o).cloned();
                shape::digest(o, src, lits, slots.as_deref().unwrap_or_default())
            }
            None => shape::exact_digest(src),
        };
        let hit = self.inner.plan_cache.borrow_mut().get(&digest).cloned();
        if let Some(pq) = hit {
            let gen = self.inner.registry_gen.get();
            if let (true, Some(shape)) = (pq.plan.gen == gen, &pq.plan.shape) {
                if shape.matches(src, lits) {
                    OptCounters::bump(&self.inner.opt.plan_hits);
                    self.reinstall_prolog(&pq.plan)?;
                    if shape.text() == src {
                        return Ok(pq);
                    }
                    let literals = shape::slot_values(src, lits, shape.slots());
                    return Ok(PreparedQuery { plan: pq.plan, literals });
                }
            }
        }
        OptCounters::bump(&self.inner.opt.plan_misses);
        let (module, slots) = parse_query(src)?;
        let literals = slots.iter().map(|(_, value)| value.clone()).collect();
        let shape =
            Shape::new(src, outline.map(|_| lits), slots.iter().map(|(span, _)| span));
        let (digest, slots) = (shape.digest(outline), shape.slots().clone());
        let pq = self.prepare_module(module, literals, Some(shape))?;
        if let Some(o) = outline {
            self.inner.plan_slots.borrow_mut().insert(o, slots);
        }
        self.inner.plan_cache.borrow_mut().insert(digest, pq.clone());
        Ok(pq)
    }

    /// Load a parsed module's prolog and make it a plan.
    fn prepare_module(
        &self,
        module: Module,
        literals: Rc<[AtomicValue]>,
        shape: Option<Shape>,
    ) -> XdmResult<PreparedQuery> {
        let init_trace = self.load_prolog_traced(&module)?;
        let mut globals = Vec::new();
        for v in &module.prolog.variables {
            // Capture only *initialized* declarations. External
            // variables are the ALDSP parameter mechanism
            // ([`Engine::set_global`]); freezing their current value
            // into the plan would clobber a re-bind between
            // executions, so they read through to the live globals
            // map instead.
            if v.value.is_none() {
                continue;
            }
            if let Some(val) = self.global(&v.name) {
                globals.push((v.name.clone(), val));
            }
        }
        let gen = self.inner.registry_gen.get();
        let plan = Plan { module, globals, init_trace, gen, shape };
        Ok(PreparedQuery { plan: Rc::new(plan), literals })
    }

    /// Re-install a cached plan's own prolog declarations and global
    /// values (cheap map inserts, no parsing, no initializer
    /// re-evaluation) so a plan-cache hit executes against the prolog
    /// it was compiled with even if another module shadowed it since.
    fn reinstall_prolog(&self, plan: &Plan) -> XdmResult<()> {
        self.install_declarations(&plan.module.prolog)?;
        for (name, val) in &plan.globals {
            self.set_global(name.clone(), val.clone());
        }
        Ok(())
    }

    /// Execute a prepared plan in a fresh dynamic context.
    pub fn execute_prepared(&self, pq: &PreparedQuery) -> XdmResult<Sequence> {
        let mut env = Env::new();
        self.execute_prepared_in(pq, &mut env)
    }

    /// Execute a prepared plan in a caller-provided context, in a frame
    /// of the body's own.
    pub fn execute_prepared_in(
        &self,
        pq: &PreparedQuery,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        pq.run_body(env, |module, env| match body_expr(module)? {
            Some(e) => Evaluator::new(self).eval(e, env),
            None => Ok(Sequence::empty()),
        })
    }

    /// The same as [`Engine::execute_prepared_in`]. Kept only because
    /// the repository benchmark (`perfbench/`) calls it; new code
    /// should call `execute_prepared_in`.
    pub fn execute_prepared_lazy_in(
        &self,
        pq: &PreparedQuery,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        self.execute_prepared_in(pq, env)
    }

    /// [`Engine::execute_prepared_in`], handing each result item to
    /// `sink` as it is produced. A FLWOR body is pulled through a
    /// cursor on `env` (when the `lazy` feature is on), so a sink that
    /// writes each item out shows the first before the last is
    /// computed, and a mid-stream error arrives after the items before
    /// it. An error from `sink` stops the evaluation and is returned.
    pub fn execute_prepared_to_sink(
        &self,
        pq: &PreparedQuery,
        env: &mut Env,
        sink: &mut dyn FnMut(Item) -> XdmResult<()>,
    ) -> XdmResult<()> {
        pq.run_body(env, |module, env| {
            let Some(e) = body_expr(module)? else { return Ok(()) };
            let ev = Evaluator::new(self);
            let mut items = crate::flwor::items(&ev, e, env)?;
            while let Some(item) = items.next(&ev, env)? {
                sink(item)?;
            }
            Ok(())
        })
    }

    /// Prepare a module and evaluate its query body, which must be an
    /// expression (use the `xqse` crate for block bodies). With the
    /// plan cache enabled, the texts of one shape parse once.
    pub fn eval_query(&self, src: &str) -> XdmResult<Sequence> {
        let pq = self.prepare(src)?;
        self.execute_prepared(&pq)
    }

    /// Evaluate a standalone expression string with extra namespace
    /// bindings, in a fresh context.
    pub fn eval_expr_str(
        &self,
        src: &str,
        extra_ns: &[(&str, &str)],
    ) -> XdmResult<Sequence> {
        let expr = xqparser::parser::parse_expr(src, extra_ns)?;
        self.eval_in(&expr, &mut Env::new())
    }

    /// Resolve a parsed expression against this engine, as a body of
    /// its own whose free variables are globals, and evaluate it in a
    /// given context.
    pub fn eval_in(&self, expr: &Expr, env: &mut Env) -> XdmResult<Sequence> {
        let frame = crate::resolve::resolve_expr(expr, self)?;
        let caller = env.push_frame(frame as usize);
        let out = Evaluator::new(self).eval(expr, env);
        env.pop_frame(caller);
        out
    }

    /// Call a registered function or readonly procedure by name.
    pub fn call(
        &self,
        name: &QName,
        args: Vec<Sequence>,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        Evaluator::new(self).call_function(name, args, env)
    }
}

/// A plan's query body, which must be an expression (or absent): block
/// bodies belong to the `xqse` statement engine.
fn body_expr(module: &Module) -> XdmResult<Option<&Expr>> {
    match &module.body {
        QueryBody::Expr(e) => Ok(Some(e)),
        QueryBody::None => Ok(None),
        QueryBody::Block(_) => Err(XdmError::new(
            ErrorCode::XPST0003,
            "query body is an XQSE block; use the xqse statement engine",
        )),
    }
}
