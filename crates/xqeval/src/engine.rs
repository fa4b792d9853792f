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
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use xdm::datetime::DateTime;
use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::NodeHandle;
use xdm::qname::QName;
use xdm::sequence::Sequence;

use xqparser::ast::{Expr, FunctionDecl, Module, ProcedureDecl, QueryBody};
use xqparser::parser::parse_module;

use crate::cache::Lru;
use crate::context::Env;
use crate::eval::Evaluator;
use crate::fold;

/// A native (Rust) implementation bound to a QName/arity: the bridge
/// to ALDSP physical sources and other host functionality.
pub type ExternalFn = Rc<dyn Fn(&mut Env, Vec<Sequence>) -> XdmResult<Sequence>>;

/// A native batch implementation for a batchable source function: one
/// argument sequence per pending request, one response sequence per
/// request, positionally. The FLWOR evaluator flushes accumulated
/// loop iterations through this in one coalesced source round trip.
pub type BatchFn = Rc<dyn Fn(&mut Env, &[Sequence]) -> XdmResult<Vec<Sequence>>>;

/// Hook installed by the XQSE statement engine so that the expression
/// evaluator can call *user-defined readonly procedures* (which
/// require statement execution).
pub type ProcRunner =
    Rc<dyn Fn(&Engine, &ProcedureDecl, Vec<Sequence>, &mut Env) -> XdmResult<Sequence>>;

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
/// forbidden; candidates are always re-verified).
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
    /// returns).
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
    /// Materialization-cache flushes forced by update statements.
    pub mat_invalidations: u64,
    /// FLWOR where-clauses rewritten to source point-selects.
    pub pushdown_rewrites: u64,
    /// Optimize-gated reads answered via a secondary index.
    pub indexed_selects: u64,
    /// Prepared-plan cache hits (parse + prolog load skipped).
    pub plan_hits: u64,
    /// Prepared-plan cache misses (module parsed and analyzed).
    pub plan_misses: u64,
    /// Web-service requests observed at the mediator.
    pub ws_requests: u64,
    /// Web-service requests actually issued to the source access
    /// layer (handler attempts; the rest were coalesced).
    pub ws_issued: u64,
    /// Web-service requests answered without touching the source
    /// (per-evaluation memo, response cache, or in-batch dedup).
    pub ws_coalesced: u64,
    /// Batched web-service flushes (`call_many` round trips).
    pub ws_batches: u64,
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
    /// FLWOR tuples advanced through the streaming pipeline (one per
    /// pull, whether or not the tuple survived its `where` filters).
    pub tuples_pulled: u64,
    /// Streams abandoned before exhaustion — an early-exit consumer
    /// (`exists`, `subsequence`, a positional predicate, a quantifier)
    /// decided its answer without draining the source.
    pub early_exits: u64,
    /// Source items an abandoned stream never materialized into
    /// tuples: work the eager evaluator would have done and the
    /// pipelined one skipped.
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
        self.indexed_selects += other.indexed_selects;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.ws_requests += other.ws_requests;
        self.ws_issued += other.ws_issued;
        self.ws_coalesced += other.ws_coalesced;
        self.ws_batches += other.ws_batches;
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
    /// See [`OptStats::ws_batches`].
    pub ws_batches: Cell<u64>,
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

/// A query compiled once and executable many times: the parsed module,
/// its prolog already loaded into the engine, a constant-folded body,
/// and the statically resolved function/procedure bindings.
///
/// Obtained from [`Engine::prepare`]; executed with
/// [`Engine::execute_prepared`]. This is the paper-era mediation-tier
/// shape — data-service functions are compiled once at deployment and
/// served many times — applied to our `eval_query` path.
pub struct PreparedQuery {
    module: Rc<Module>,
    /// Constant-folded expression body (None for block/empty bodies,
    /// or when the plan was prepared without analysis).
    folded_body: Option<Expr>,
    /// Call sites resolved against the registries at prepare time.
    resolved: HashMap<(QName, usize), fold::ResolvedBinding>,
    /// *Initialized* global variable values computed by the prolog
    /// load, re-installed verbatim on every plan-cache hit
    /// (prolog-load-once semantics). External variables are
    /// deliberately absent: they are the ALDSP parameter mechanism
    /// and must read through to the engine's live globals map so
    /// [`Engine::set_global`] re-binds are observed by cached plans.
    globals: Vec<(QName, Sequence)>,
    /// Registry generation this plan was prepared against (the
    /// "prolog fingerprint" half of the cache key): a later external
    /// registration invalidates the plan.
    gen: u64,
}

impl PreparedQuery {
    /// The parsed module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The body this plan will evaluate: the constant-folded tree if
    /// analysis ran, otherwise the module's original expression body.
    pub fn body(&self) -> Option<&Expr> {
        self.folded_body.as_ref().or(match &self.module.body {
            QueryBody::Expr(e) => Some(e),
            _ => None,
        })
    }

    /// How many statically known call sites resolved at prepare time.
    pub fn resolved_binding_count(&self) -> usize {
        self.resolved.len()
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
/// shares the same registries, caches, counters, and knobs. The
/// streaming FLWOR pipeline relies on this — a lazy
/// [`Sequence`](xdm::sequence::Sequence) may outlive the evaluator
/// call that created it, so its pull source owns an `Engine` clone
/// instead of a borrow. All interior state already used
/// `Cell`/`RefCell`/`Rc` (the engine is single-threaded by design:
/// `!Send`/`!Sync`), so sharing the one `EngineInner` is behaviorally
/// identical to the previous by-value struct.
#[derive(Clone)]
pub struct Engine {
    inner: Rc<EngineInner>,
}

/// The engine state proper; see [`Engine`] for the field-by-field
/// story. Private: all access goes through the handle's methods.
struct EngineInner {
    functions: RefCell<HashMap<(QName, usize), FunctionKind>>,
    procedures: RefCell<HashMap<(QName, usize), ProcKind>>,
    globals: RefCell<HashMap<QName, Sequence>>,
    documents: RefCell<HashMap<String, NodeHandle>>,
    proc_runner: RefCell<Option<ProcRunner>>,
    /// Fixed "current" instant for fn:current-date/dateTime —
    /// deterministic by design (tests and reproducible benchmarks).
    now: Cell<DateTime>,
    /// Enable declarative-core optimizations (hash-join memoization,
    /// predicate pushdown, materialization caching). Shared (`Rc`) so
    /// source closures registered at introspection time observe
    /// toggles live. The XQueryP-comparison experiments switch this
    /// off to model sequential-mode evaluation, where reordering is
    /// not permitted (paper §IV).
    optimize: Rc<Cell<bool>>,
    /// Whether the FLWOR hash-join rewrite is available. Separate from
    /// [`Engine::optimize`]: the join rewrite predates the
    /// pushdown/versioning layer, so the kill-switch
    /// (`set_optimize(false)`) keeps it — that restores exactly the
    /// pre-optimizer baseline. Sequential (XQueryP) evaluation and the
    /// E11 join ablation disable it explicitly.
    join_rewrite: Rc<Cell<bool>>,
    /// Thread-shareable mirrors of the optimize flag. Source layers
    /// that live behind `Arc` (the relational simulator's write path)
    /// register an `Arc<AtomicBool>` here; `set_optimize` fans out to
    /// them so optimize-gated fast paths on the storage side follow
    /// the engine toggle.
    opt_mirrors: RefCell<Vec<Arc<AtomicBool>>>,
    /// Pushdown capabilities by arity-0 read-function name.
    capabilities: RefCell<HashMap<QName, SourceCapability>>,
    /// Flush hooks for per-source materialization caches; invoked by
    /// [`Engine::invalidate_materialization`] when an update statement
    /// may have mutated cached trees in place.
    mat_flushers: RefCell<Vec<Rc<dyn Fn()>>>,
    /// Hooks notified by [`Engine::note_source_write`] whenever a
    /// statement may have written *some* source (procedure calls,
    /// update statements, datagraph submissions) — the cross-call
    /// companion of [`crate::Env::note_write`]. Web-service sources
    /// register an epoch bump here so their persistent read-through
    /// response caches stop serving pre-write responses on the fresh
    /// path (stale-read degradation still may).
    write_listeners: RefCell<Vec<Rc<dyn Fn()>>>,
    /// Whether the PR 4 executor layer (prepared-plan reuse + batched
    /// / memoized source access) is enabled. Separate from
    /// [`Engine::optimize`] so `XQSE_DISABLE_BATCH=1` restores exactly
    /// the PR 2 behavior while keeping pushdown/caching on; both
    /// flags must be on for the layer to engage.
    batch: Rc<Cell<bool>>,
    /// Bumped on every external function/procedure registration — the
    /// "prolog fingerprint" that invalidates cached plans prepared
    /// against an older registry.
    registry_gen: Cell<u64>,
    /// LRU cache of prepared plans, keyed by query source text.
    plan_cache: RefCell<Lru<String, Rc<PreparedQuery>>>,
    /// Batch entry points for batchable source functions (web-service
    /// operations), keyed like [`Engine::functions`].
    batchables: RefCell<HashMap<(QName, usize), BatchFn>>,
    /// Optimizer counters.
    opt: Rc<OptCounters>,
    /// Fast-path flag mirroring `budget.is_some()`: the evaluator hot
    /// loop reads this one `Cell<bool>` per step and skips all budget
    /// bookkeeping when no budget is installed, keeping the no-budget
    /// path within its 5% overhead guard.
    budget_active: Cell<bool>,
    /// Raw mirror of the `Arc` in `budget`, for the per-step hot
    /// path: reading `Option<Arc<_>>` out of a `RefCell` costs a
    /// borrow-flag round-trip per evaluation step, which the armed
    /// overhead guard can see. Null when no budget is installed;
    /// otherwise valid exactly as long as `budget` holds the owning
    /// `Arc` (both are updated together in [`Engine::force_budget`],
    /// and `Engine` is `!Sync`, so no other thread can swap them
    /// mid-read).
    budget_raw: Cell<*const crate::budget::Budget>,
    /// The budget of the request this engine is currently serving
    /// (installed per request by the serving pool or `xqsh` flags).
    budget: RefCell<Option<Arc<crate::budget::Budget>>>,
    /// Whether element/document constructors may *graft* (adopt by
    /// reference) already-materialized immutable subtrees instead of
    /// deep-copying them. Shared (`Rc`) so the evaluator observes
    /// toggles live; `XQSE_DISABLE_GRAFT=1` / [`Engine::set_graft`]
    /// restore the copy-always baseline for the E16 ablation and the
    /// CI kill-switch arm.
    graft: Rc<Cell<bool>>,
    /// Whether the evaluator may stream FLWOR tuples lazily (pipelined
    /// pull evaluation with early exits). Shared (`Rc`) so streams in
    /// flight observe toggles live; `XQSE_DISABLE_LAZY=1` /
    /// [`Engine::set_lazy`] restore fully eager evaluation for the
    /// E17 ablation and the lazy CI kill-switch arm.
    lazy: Rc<Cell<bool>>,
    /// Baseline snapshot of this thread's XDM construction counters,
    /// taken at engine creation (and on [`Engine::reset_opt_stats`]).
    /// [`Engine::opt_stats`] reports the delta since this baseline —
    /// valid because each engine evaluates on exactly one thread (the
    /// serving pool gives every worker a private engine).
    xdm_base: Cell<xdm::XdmStats>,
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
    /// A fresh engine with builtins only.
    pub fn new() -> Engine {
        Engine {
            inner: Rc::new(EngineInner {
                functions: RefCell::new(HashMap::new()),
                procedures: RefCell::new(HashMap::new()),
                globals: RefCell::new(HashMap::new()),
                documents: RefCell::new(HashMap::new()),
                proc_runner: RefCell::new(None),
                now: Cell::new(
                    DateTime::parse("2007-12-07T10:30:00").expect("valid literal"),
                ),
                // `XQSE_DISABLE_OPT=1` starts every engine in sequential
                // mode — the dual-mode CI runs use it to prove the whole
                // suite passes without the optimizer.
                optimize: Rc::new(Cell::new(
                    !matches!(std::env::var("XQSE_DISABLE_OPT").as_deref(), Ok("1")),
                )),
                // Deliberately NOT env-gated: the kill-switch restores the
                // pre-optimizer baseline, which had the join rewrite.
                join_rewrite: Rc::new(Cell::new(true)),
                opt_mirrors: RefCell::new(Vec::new()),
                capabilities: RefCell::new(HashMap::new()),
                mat_flushers: RefCell::new(Vec::new()),
                write_listeners: RefCell::new(Vec::new()),
                // `XQSE_DISABLE_BATCH=1` switches off the prepared-plan /
                // batched-source layer only, reproducing the PR 2
                // optimizer generation — the third dual-mode CI arm.
                batch: Rc::new(Cell::new(
                    !matches!(std::env::var("XQSE_DISABLE_BATCH").as_deref(), Ok("1")),
                )),
                registry_gen: Cell::new(0),
                plan_cache: RefCell::new(Lru::new(PLAN_CACHE_CAPACITY)),
                batchables: RefCell::new(HashMap::new()),
                opt: Rc::new(OptCounters::default()),
                budget_active: Cell::new(false),
                budget_raw: Cell::new(std::ptr::null()),
                budget: RefCell::new(None),
                // `XQSE_DISABLE_GRAFT=1` restores deep-copying element
                // construction everywhere — the E16 ablation and the
                // zero-copy CI kill-switch arm.
                graft: Rc::new(Cell::new(
                    !matches!(std::env::var("XQSE_DISABLE_GRAFT").as_deref(), Ok("1")),
                )),
                // `XQSE_DISABLE_LAZY=1` restores fully eager FLWOR
                // evaluation — the E17 ablation and the pipelined-lazy CI
                // kill-switch arm.
                lazy: Rc::new(Cell::new(
                    !matches!(std::env::var("XQSE_DISABLE_LAZY").as_deref(), Ok("1")),
                )),
                xdm_base: Cell::new(xdm::xdm_stats()),
            }),
        }
    }

    /// Install (or clear) the per-request budget this engine enforces.
    /// Also mirrors the budget into the thread-local slot the
    /// source-access layers read ([`crate::budget::current_budget`]).
    /// A no-op install when `XQSE_DISABLE_BUDGETS=1` (the kill switch)
    /// or when the budget has no limits (nothing to enforce — the
    /// caller keeps the `Arc` if it wants pure cancellation, which
    /// still works through [`Engine::set_budget`] by installing an
    /// unlimited budget explicitly via [`Engine::force_budget`]).
    pub fn set_budget(&self, budget: Option<Arc<crate::budget::Budget>>) {
        let budget = if crate::budget::budgets_enabled() { budget } else { None };
        self.force_budget(budget);
    }

    /// [`Engine::set_budget`] without the kill-switch gate: tests and
    /// the pool's cancellation path install unconditionally.
    pub fn force_budget(&self, budget: Option<Arc<crate::budget::Budget>>) {
        crate::budget::set_current_budget(budget.clone());
        self.inner.budget_active.set(budget.is_some());
        self.inner.budget_raw.set(
            budget.as_ref().map_or(std::ptr::null(), Arc::as_ptr),
        );
        *self.inner.budget.borrow_mut() = budget;
    }

    /// The installed budget as a plain borrow — the hot-path read
    /// behind [`Engine::budget_step`] and friends.
    ///
    /// SAFETY contract for callers: use the returned borrow
    /// immediately and do not call [`Engine::force_budget`] (which
    /// drops the owning `Arc`) while holding it.
    #[inline]
    fn budget_ref(&self) -> Option<&crate::budget::Budget> {
        let p = self.inner.budget_raw.get();
        if p.is_null() {
            None
        } else {
            // SAFETY: `budget_raw` is non-null only while the Arc in
            // `self.inner.budget` (set in the same force_budget call) keeps
            // the pointee alive, and `Engine` is `!Sync`, so nothing
            // can swap the budget concurrently with this read.
            unsafe { Some(&*p) }
        }
    }

    /// The budget currently installed on this engine, if any.
    pub fn budget(&self) -> Option<Arc<crate::budget::Budget>> {
        self.inner.budget.borrow().clone()
    }

    /// Is a budget installed? One `Cell` read — the evaluator's
    /// per-step fast path.
    #[inline]
    pub fn budget_active(&self) -> bool {
        self.inner.budget_active.get()
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

    /// Coarse cooperative check (cancellation + deadline, unstrided).
    /// No-op without an installed budget.
    #[inline]
    pub fn budget_check(&self) -> XdmResult<()> {
        match self.budget_ref() {
            Some(b) => b.check(),
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
        self.inner.functions
            .borrow_mut()
            .insert((name, arity), FunctionKind::External { f, updating: false });
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
        self.inner.procedures
            .borrow_mut()
            .insert((name, arity), ProcKind::External { f, readonly });
        self.inner.registry_gen.set(self.inner.registry_gen.get() + 1);
    }

    /// Register a batch entry point for an already-registered external
    /// function: the FLWOR evaluator flushes accumulated iterations
    /// through it in one coalesced round trip (web-service sources).
    pub fn register_batchable_function(&self, name: QName, arity: usize, f: BatchFn) {
        self.inner.batchables.borrow_mut().insert((name, arity), f);
    }

    /// The batch entry point of a function, if it is batchable.
    pub fn batchable(&self, name: &QName, arity: usize) -> Option<BatchFn> {
        self.inner.batchables.borrow().get(&(name.clone(), arity)).cloned()
    }

    /// Bind a global variable (external variables, ALDSP parameters).
    pub fn set_global(&self, name: QName, value: Sequence) {
        self.inner.globals.borrow_mut().insert(name, value);
    }

    /// Look up a global variable.
    pub fn global(&self, name: &QName) -> Option<Sequence> {
        self.inner.globals.borrow().get(name).cloned()
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
        self.inner.now.get()
    }

    /// Override the engine clock (deterministic tests/benches).
    pub fn set_now(&self, now: DateTime) {
        self.inner.now.set(now);
    }

    /// Whether declarative optimizations are enabled.
    pub fn optimize_enabled(&self) -> bool {
        self.inner.optimize.get()
    }

    /// Toggle declarative optimizations (the XQueryP sequential-mode
    /// comparison disables them). This is the kill-switch for the
    /// whole performance layer: join memoization, predicate pushdown,
    /// indexed selects, and materialization caching all key off it.
    pub fn set_optimize(&self, on: bool) {
        self.inner.optimize.set(on);
        for m in self.inner.opt_mirrors.borrow().iter() {
            m.store(on, Ordering::Relaxed);
        }
    }

    /// A shared handle on the optimize flag. Source closures capture
    /// this at introspection time so `set_optimize` toggles their
    /// fast paths live.
    pub fn optimize_handle(&self) -> Rc<Cell<bool>> {
        self.inner.optimize.clone()
    }

    /// Register a thread-shareable mirror of the optimize flag (for
    /// `Arc`-held storage layers whose fast paths must follow
    /// [`Engine::set_optimize`]). The mirror is synchronized to the
    /// current flag value immediately.
    pub fn register_opt_mirror(&self, mirror: Arc<AtomicBool>) {
        mirror.store(self.inner.optimize.get(), Ordering::Relaxed);
        self.inner.opt_mirrors.borrow_mut().push(mirror);
    }

    /// Whether the batched/prepared executor layer is enabled (PR 4).
    /// `set_optimize(false)` also disables it — `optimize` stays the
    /// umbrella kill-switch for the whole performance stack.
    pub fn batch_enabled(&self) -> bool {
        self.inner.batch.get()
    }

    /// Toggle the batched/prepared executor layer independently of the
    /// umbrella flag (the `XQSE_DISABLE_BATCH=1` CI arm and the E13
    /// parse-per-call ablation use this to reproduce PR 2 behavior).
    pub fn set_batch(&self, on: bool) {
        self.inner.batch.set(on);
    }

    /// A shared handle on the batch flag (captured by source closures
    /// registered at introspection time).
    pub fn batch_handle(&self) -> Rc<Cell<bool>> {
        self.inner.batch.clone()
    }

    /// Are prepared plans cached and reused? Requires both the
    /// umbrella optimize flag and the batch-layer flag.
    pub fn plan_caching_enabled(&self) -> bool {
        self.inner.optimize.get() && self.inner.batch.get()
    }

    /// Resize the prepared-plan cache (shrinking evicts LRU entries).
    pub fn set_plan_cache_capacity(&self, cap: usize) {
        self.inner.plan_cache.borrow_mut().set_capacity(cap);
    }

    /// Whether the FLWOR hash-join rewrite is available (default: yes,
    /// even with `set_optimize(false)` — the rewrite is part of the
    /// pre-optimizer baseline).
    pub fn join_rewrite_enabled(&self) -> bool {
        self.inner.join_rewrite.get()
    }

    /// Toggle the hash-join rewrite independently of the optimizer
    /// kill-switch. Sequential (XQueryP) program runs disable it —
    /// reordering is not permitted in sequential mode (paper §IV) —
    /// and the E11 ablation uses it to isolate the join memoization's
    /// contribution.
    pub fn set_join_rewrite(&self, on: bool) {
        self.inner.join_rewrite.set(on);
    }

    /// Whether element/document constructors may adopt (graft)
    /// already-materialized immutable subtrees by reference instead of
    /// deep-copying them. Independent of the umbrella optimize flag:
    /// grafting is a construction-layer property, not a query rewrite,
    /// and the dual-mode CI arms toggle it separately.
    pub fn graft_enabled(&self) -> bool {
        self.inner.graft.get()
    }

    /// Toggle zero-copy subtree adoption (the E16 ablation and the
    /// `XQSE_DISABLE_GRAFT=1` CI arm restore the copy-always
    /// baseline through this).
    pub fn set_graft(&self, on: bool) {
        self.inner.graft.set(on);
    }

    /// A shared handle on the graft flag (captured by the evaluator).
    pub fn graft_handle(&self) -> Rc<Cell<bool>> {
        self.inner.graft.clone()
    }

    /// Whether FLWOR evaluation may stream tuples lazily (pipelined
    /// pull evaluation with early-exit consumers). Independent of the
    /// umbrella optimize flag: laziness is an evaluation-model
    /// property, not a query rewrite, and the dual-mode CI arms
    /// toggle it separately.
    pub fn lazy_enabled(&self) -> bool {
        self.inner.lazy.get()
    }

    /// Toggle pipelined lazy evaluation (the E17 ablation and the
    /// `XQSE_DISABLE_LAZY=1` CI arm restore the materialize-everything
    /// baseline through this).
    pub fn set_lazy(&self, on: bool) {
        self.inner.lazy.set(on);
    }

    /// A shared handle on the lazy flag (captured by the evaluator).
    pub fn lazy_handle(&self) -> Rc<Cell<bool>> {
        self.inner.lazy.clone()
    }

    /// Advertise a pushdown capability for a registered arity-0 read
    /// function.
    pub fn register_source_capability(&self, name: QName, cap: SourceCapability) {
        self.inner.capabilities.borrow_mut().insert(name, cap);
    }

    /// The pushdown capability of a read function, if advertised.
    pub fn source_capability(&self, name: &QName) -> Option<SourceCapability> {
        self.inner.capabilities.borrow().get(name).cloned()
    }

    /// Register a hook that flushes a per-source materialization
    /// cache.
    pub fn register_mat_flusher(&self, f: Rc<dyn Fn()>) {
        self.inner.mat_flushers.borrow_mut().push(f);
    }

    /// Flush every registered materialization cache and count one
    /// invalidation per flusher. Called by the statement engine after
    /// update statements, whose pending-update lists may mutate nodes
    /// that cached trees share.
    pub fn invalidate_materialization(&self) {
        for f in self.inner.mat_flushers.borrow().iter() {
            f();
        }
        let n = self.inner.mat_flushers.borrow().len() as u64;
        self.inner.opt.mat_invalidations.set(self.inner.opt.mat_invalidations.get() + n);
    }

    /// Register a hook to be notified on [`Engine::note_source_write`]
    /// (web-service read-through caches invalidate themselves here).
    pub fn register_write_listener(&self, f: Rc<dyn Fn()>) {
        self.inner.write_listeners.borrow_mut().push(f);
    }

    /// Notify every write listener that a statement may have written a
    /// source. Called by the statement engine alongside
    /// [`crate::Env::note_write`] (non-readonly procedure calls,
    /// update statements) and by the ALDSP tier after datagraph
    /// submissions.
    pub fn note_source_write(&self) {
        for f in self.inner.write_listeners.borrow().iter() {
            f();
        }
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
            indexed_selects: self.inner.opt.indexed_selects.get(),
            plan_hits: self.inner.opt.plan_hits.get(),
            plan_misses: self.inner.opt.plan_misses.get(),
            ws_requests: self.inner.opt.ws_requests.get(),
            ws_issued: self.inner.opt.ws_issued.get(),
            ws_coalesced: self.inner.opt.ws_coalesced.get(),
            ws_batches: self.inner.opt.ws_batches.get(),
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
        o.indexed_selects.set(0);
        o.plan_hits.set(0);
        o.plan_misses.set(0);
        o.ws_requests.set(0);
        o.ws_issued.set(0);
        o.ws_coalesced.set(0);
        o.ws_batches.set(0);
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
        self.inner.functions.borrow().get(&(name.clone(), arity)).cloned()
    }

    /// Look up a procedure by expanded name and arity.
    pub fn procedure(&self, name: &QName, arity: usize) -> Option<ProcKind> {
        self.inner.procedures.borrow().get(&(name.clone(), arity)).cloned()
    }

    /// Parse a module and register its prolog declarations. Global
    /// variable initializers are evaluated immediately, in order.
    /// Returns the parsed module (the body is *not* executed here).
    pub fn load(&self, src: &str) -> XdmResult<Module> {
        let module = parse_module(src)?;
        self.load_prolog(&module)?;
        Ok(module)
    }

    /// Register a pre-parsed module's prolog.
    pub fn load_prolog(&self, module: &Module) -> XdmResult<()> {
        for f in &module.prolog.functions {
            let key = (f.name.clone(), f.params.len());
            if f.body.is_none() {
                // `external`: the host must have registered it
                // already; keep an existing registration.
                if self.inner.functions.borrow().contains_key(&key) {
                    continue;
                }
                return Err(XdmError::new(
                    ErrorCode::XPST0017,
                    format!(
                        "external function {}#{} has no host binding",
                        f.name,
                        f.params.len()
                    ),
                ));
            }
            self.inner.functions
                .borrow_mut()
                .insert(key, FunctionKind::User(Rc::new(f.clone())));
        }
        for p in &module.prolog.procedures {
            let key = (p.name.clone(), p.params.len());
            if p.body.is_none() {
                if self.inner.procedures.borrow().contains_key(&key) {
                    continue;
                }
                return Err(XdmError::new(
                    ErrorCode::XPST0017,
                    format!(
                        "external procedure {}#{} has no host binding",
                        p.name,
                        p.params.len()
                    ),
                ));
            }
            self.inner.procedures
                .borrow_mut()
                .insert(key, ProcKind::User(Rc::new(p.clone())));
        }
        // Global variables, in declaration order.
        for v in &module.prolog.variables {
            match &v.value {
                Some(init) => {
                    let mut env = Env::new();
                    let value = Evaluator::new(self).eval(init, &mut env)?;
                    if let Some(ty) = &v.ty {
                        ty.check(&value, &format!("declare variable ${}", v.name))?;
                    }
                    self.inner.globals.borrow_mut().insert(v.name.clone(), value);
                }
                None => {
                    if !self.inner.globals.borrow().contains_key(&v.name) {
                        return Err(XdmError::new(
                            ErrorCode::XPST0008,
                            format!("external variable ${} is unbound", v.name),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Prepare a query: parse, load the prolog, constant-fold the body
    /// and resolve its static call sites — once — and return a plan
    /// executable many times via [`Engine::execute_prepared`].
    ///
    /// With the plan cache enabled ([`Engine::plan_caching_enabled`]),
    /// plans are memoized by source text and revalidated against the
    /// registry generation ("prolog fingerprint"); a hit skips the
    /// parse and the prolog load entirely, re-installing the plan's
    /// own prolog declarations and captured *initialized* global
    /// values so the plan always executes against the prolog it was
    /// compiled with. External variables (ALDSP parameters) are not
    /// captured: they read through to the live globals map, so
    /// [`Engine::set_global`] re-binds between executions are
    /// honored without invalidating the plan. With
    /// the cache disabled this degenerates to parse-per-call (the
    /// PR 2 behavior) and skips the analysis pass.
    pub fn prepare(&self, src: &str) -> XdmResult<Rc<PreparedQuery>> {
        if !self.plan_caching_enabled() {
            return self.prepare_uncached(src, false);
        }
        let gen = self.inner.registry_gen.get();
        let hit = self.inner.plan_cache.borrow_mut().get(src).cloned();
        if let Some(pq) = hit {
            if pq.gen == gen {
                OptCounters::bump(&self.inner.opt.plan_hits);
                self.reinstall_prolog(&pq);
                return Ok(pq);
            }
        }
        OptCounters::bump(&self.inner.opt.plan_misses);
        let pq = self.prepare_uncached(src, true)?;
        self.inner.plan_cache.borrow_mut().insert(src.to_string(), pq.clone());
        Ok(pq)
    }

    fn prepare_uncached(&self, src: &str, analyze: bool) -> XdmResult<Rc<PreparedQuery>> {
        let module = parse_module(src)?;
        self.load_prolog(&module)?;
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
            if let Some(val) = self.inner.globals.borrow().get(&v.name) {
                globals.push((v.name.clone(), val.clone()));
            }
        }
        let (folded_body, resolved) = if analyze {
            match &module.body {
                QueryBody::Expr(e) => {
                    let folded = fold::fold_expr(self, e);
                    let resolved = fold::resolve_bindings(self, &folded);
                    (Some(folded), resolved)
                }
                _ => (None, HashMap::new()),
            }
        } else {
            (None, HashMap::new())
        };
        Ok(Rc::new(PreparedQuery {
            module: Rc::new(module),
            folded_body,
            resolved,
            globals,
            gen: self.inner.registry_gen.get(),
        }))
    }

    /// Re-install a cached plan's own prolog declarations and global
    /// values (cheap map inserts, no parsing, no initializer
    /// re-evaluation) so a plan-cache hit executes against the prolog
    /// it was compiled with even if another module shadowed it since.
    fn reinstall_prolog(&self, pq: &PreparedQuery) {
        for f in &pq.module.prolog.functions {
            if f.body.is_some() {
                self.inner.functions.borrow_mut().insert(
                    (f.name.clone(), f.params.len()),
                    FunctionKind::User(Rc::new(f.clone())),
                );
            }
        }
        for p in &pq.module.prolog.procedures {
            if p.body.is_some() {
                self.inner.procedures.borrow_mut().insert(
                    (p.name.clone(), p.params.len()),
                    ProcKind::User(Rc::new(p.clone())),
                );
            }
        }
        for (name, val) in &pq.globals {
            self.inner.globals.borrow_mut().insert(name.clone(), val.clone());
        }
    }

    /// Execute a prepared plan in a fresh dynamic context.
    pub fn execute_prepared(&self, pq: &PreparedQuery) -> XdmResult<Sequence> {
        let mut env = Env::new();
        self.execute_prepared_in(pq, &mut env)
    }

    /// Execute a prepared plan in a caller-provided context.
    pub fn execute_prepared_in(
        &self,
        pq: &PreparedQuery,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        match (&pq.folded_body, &pq.module.body) {
            (Some(e), _) => Evaluator::new(self).eval(e, env),
            (None, QueryBody::Expr(e)) => Evaluator::new(self).eval(e, env),
            (None, QueryBody::None) => Ok(Sequence::empty()),
            (None, QueryBody::Block(_)) => Err(XdmError::new(
                ErrorCode::XPST0003,
                "query body is an XQSE block; use the xqse statement engine",
            )),
        }
    }

    /// Load a module and evaluate its query body, which must be an
    /// expression (use the `xqse` crate for block bodies). With the
    /// plan cache enabled this routes through [`Engine::prepare`], so
    /// repeated evaluation of the same source text parses once.
    pub fn eval_query(&self, src: &str) -> XdmResult<Sequence> {
        if self.plan_caching_enabled() {
            let pq = self.prepare(src)?;
            return self.execute_prepared(&pq);
        }
        let module = self.load(src)?;
        match &module.body {
            QueryBody::Expr(e) => {
                let mut env = Env::new();
                Evaluator::new(self).eval(e, &mut env)
            }
            QueryBody::None => Ok(Sequence::empty()),
            QueryBody::Block(_) => Err(XdmError::new(
                ErrorCode::XPST0003,
                "query body is an XQSE block; use the xqse statement engine",
            )),
        }
    }

    /// Evaluate a standalone expression string with extra namespace
    /// bindings, in a fresh context.
    pub fn eval_expr_str(
        &self,
        src: &str,
        extra_ns: &[(&str, &str)],
    ) -> XdmResult<Sequence> {
        let expr = xqparser::parser::parse_expr(src, extra_ns)?;
        let mut env = Env::new();
        Evaluator::new(self).eval(&expr, &mut env)
    }

    /// Evaluate a parsed expression in a given context.
    pub fn eval_in(&self, expr: &xqparser::ast::Expr, env: &mut Env) -> XdmResult<Sequence> {
        Evaluator::new(self).eval(expr, env)
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

    /// Like [`Engine::eval_query`], but the top-level result may be
    /// **lazy**: when the body is a FLWOR expression, the
    /// returned sequence is a live pull stream, and the caller drains
    /// it through the fallible API (`Sequence::try_item`) — the
    /// streaming serializers in `xqsh` and the serving pool do exactly
    /// that, emitting output while tuples are still being produced.
    /// Mid-stream errors (including budget expiry charged per pulled
    /// tuple) surface from the drain, so callers of this entry MUST
    /// consume the result fallibly. Everything else — other
    /// bodies, the kill switch, non-expression bodies — degrades to
    /// the eager [`Engine::eval_query`] result.
    pub fn eval_query_lazy(&self, src: &str) -> XdmResult<Sequence> {
        if self.plan_caching_enabled() {
            let pq = self.prepare(src)?;
            let mut env = Env::new();
            return self.execute_prepared_lazy_in(&pq, &mut env);
        }
        let module = self.load(src)?;
        match &module.body {
            QueryBody::Expr(e) => {
                let mut env = Env::new();
                Evaluator::new(self).eval_lazy(e, &mut env)
            }
            QueryBody::None => Ok(Sequence::empty()),
            QueryBody::Block(_) => Err(XdmError::new(
                ErrorCode::XPST0003,
                "query body is an XQSE block; use the xqse statement engine",
            )),
        }
    }

    /// [`Engine::execute_prepared_in`] with a possibly-lazy result —
    /// see [`Engine::eval_query_lazy`] for the caller contract.
    pub fn execute_prepared_lazy_in(
        &self,
        pq: &PreparedQuery,
        env: &mut Env,
    ) -> XdmResult<Sequence> {
        match (&pq.folded_body, &pq.module.body) {
            (Some(e), _) => Evaluator::new(self).eval_lazy(e, env),
            (None, QueryBody::Expr(e)) => Evaluator::new(self).eval_lazy(e, env),
            (None, QueryBody::None) => Ok(Sequence::empty()),
            (None, QueryBody::Block(_)) => Err(XdmError::new(
                ErrorCode::XPST0003,
                "query body is an XQSE block; use the xqse statement engine",
            )),
        }
    }
}
