//! The concurrent serving layer: a fixed pool of worker threads, each
//! owning its own single-threaded XQSE [`Engine`](xqeval::Engine)
//! (the `Rc`/`RefCell` XDM arena is deliberately not shared), all
//! bound to the same `Arc`-shared [`Database`](crate::rel::Database)
//! handles, fed by a bounded MPMC work queue.
//!
//! ALDSP was a middle-tier server multiplexing many concurrent client
//! requests over shared relational and web-service sources (PAPER
//! §II). This module reproduces that regime:
//!
//! * **Engine per worker.** The XDM arena, plan cache, join and
//!   materialization caches are all `Rc`/`Cell` structures — cheap,
//!   single-threaded, and correct precisely because no other thread
//!   ever sees them. Each worker builds its **own** [`DataSpace`]
//!   (via the caller-supplied builder) over the **shared** database
//!   handles; plan-cache invalidation by registration generation
//!   therefore still works per worker.
//! * **Shard-locked sources.** `rel::Database` holds one `RwLock` per
//!   table, so readers of different tables — and concurrent readers
//!   of the same table — never contend; see the concurrency-model
//!   notes in [`crate::rel`].
//! * **Shared breaker/injector cores.** Worker builders install one
//!   shared [`Access`](crate::resilience::Access) (the `Arc<Mutex<…>>`
//!   injector/breaker cores inside it are the shared state), so a
//!   circuit breaker tripped by one worker is immediately observed by
//!   all, while each worker thread keeps its own lock-free cached
//!   clone of the `Access` for the hot path.
//!
//! * **Request budgets and admission control.** The spec can attach a
//!   per-request [`Budget`] (deadline / fuel / memory); the pool
//!   stamps the deadline at *admission*, so time spent queued counts
//!   against it. [`ServePool::offer`] is the overload-facing entry:
//!   a full queue sheds instantly with `aldsp:OVERLOADED` instead of
//!   blocking, and a request whose deadline expired while queued is
//!   shed at dispatch without running. Budget terminations
//!   (`aldsp:DEADLINE_EXCEEDED` and friends) and sheds are counted in
//!   the [`PoolReport`] and folded into the aggregated [`OptStats`].
//! * **Panic containment.** `serve_one` runs under `catch_unwind`: a
//!   panicking request answers its client with a typed
//!   `aldsp:SRC_UNAVAILABLE` error instead of deadlocking every
//!   client blocked on the dead worker's queue.
//! * **A hand-off wakes only a waiting thread.** The queue signals a
//!   worker or a producer only when one is blocked on it, and a reply
//!   unparks its client only when the client parked; both after
//!   releasing the lock. Each caller blocks on its reply, so this
//!   hand-off is the whole cost the pool adds to a short request.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};

use xdm::error::{XdmError, XdmResult};
use xdm::sequence::{Item, Sequence};

use xqeval::context::Env;
use xqeval::{Budget, BudgetClock, OptStats};

use crate::errors::AldspCode;
use crate::fault;
use crate::service::DataSpace;

/// Configuration for a [`ServePool`].
#[derive(Clone)]
pub struct ServeSpec {
    /// Worker count (≥ 1; 0 is treated as 1).
    pub workers: usize,
    /// Bound of the MPMC request queue; senders block when it is
    /// full (closed-loop back-pressure, like a server's accept
    /// backlog). `0` means "4 × workers".
    pub queue_capacity: usize,
    /// Per-request wall-clock deadline in ms, stamped at admission
    /// (queue wait counts). `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Per-request evaluation-fuel allowance. `None` = unlimited.
    pub fuel: Option<u64>,
    /// Per-request XDM allocation ceiling. `None` = unlimited.
    pub memory: Option<u64>,
    /// Clock deadlines are read against. `None` = real elapsed time
    /// since pool start; chaos tests install the resilience layer's
    /// virtual clock here for deterministic expiry.
    pub clock: Option<BudgetClock>,
}

impl fmt::Debug for ServeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeSpec")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("deadline_ms", &self.deadline_ms)
            .field("fuel", &self.fuel)
            .field("memory", &self.memory)
            .field("clock", &self.clock.as_ref().map(|_| "<custom>"))
            .finish()
    }
}

impl ServeSpec {
    /// A spec with the default queue bound and no budgets.
    pub fn new(workers: usize) -> ServeSpec {
        ServeSpec {
            workers,
            queue_capacity: 0,
            deadline_ms: None,
            fuel: None,
            memory: None,
            clock: None,
        }
    }

    /// Give every request a wall-clock deadline (builder style).
    pub fn with_deadline_ms(mut self, ms: u64) -> ServeSpec {
        self.deadline_ms = Some(ms);
        self
    }

    /// Give every request an evaluation-fuel allowance.
    pub fn with_fuel(mut self, steps: u64) -> ServeSpec {
        self.fuel = Some(steps);
        self
    }

    /// Give every request an XDM allocation ceiling.
    pub fn with_memory(mut self, units: u64) -> ServeSpec {
        self.memory = Some(units);
        self
    }

    /// Read deadlines off `clock` instead of real elapsed time.
    pub fn with_clock(mut self, clock: BudgetClock) -> ServeSpec {
        self.clock = Some(clock);
        self
    }
}

/// A request argument — the subset of XDM items a serving client can
/// pass across threads.
#[derive(Debug, Clone)]
pub enum ServeArg {
    /// An `xs:integer`.
    Int(i64),
    /// An `xs:string`.
    Str(String),
}

impl ServeArg {
    fn to_sequence(&self) -> Sequence {
        match self {
            ServeArg::Int(i) => Sequence::one(Item::integer(*i)),
            ServeArg::Str(s) => Sequence::one(Item::string(s.clone())),
        }
    }
}

/// One unit of serving work. All payloads are plain data (`String`s
/// and integers) so requests cross the thread boundary without
/// touching the XDM arena.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Invoke a data-service read method and return the serialized
    /// instances (the Figure-4 "get" half).
    Get {
        /// The data service (e.g. `CustomerProfile`).
        service: String,
        /// The read method (e.g. `getProfileById`).
        method: String,
        /// Method arguments.
        args: Vec<ServeArg>,
    },
    /// Run an XQSE program text and return the serialized result.
    Run {
        /// The program source.
        program: String,
    },
    /// Read a data graph, apply SDO leaf changes, and submit it back
    /// (the Figure-4 "update" half — decomposition + 2PC underneath).
    Submit {
        /// The logical data service.
        service: String,
        /// The read method used to fetch the graph.
        method: String,
        /// Read-method arguments.
        args: Vec<ServeArg>,
        /// Leaf edits: `(instance index, path steps, new value)`.
        sets: Vec<(usize, Vec<String>, String)>,
    },
}

/// A completed request: which worker served it and what came back
/// (serialized XML for reads, `"ok"` for submits).
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// Index of the worker that served the request.
    pub worker: usize,
    /// Serialized result or the typed error the request raised.
    pub result: Result<String, XdmError>,
}

/// Per-pool totals returned by [`ServePool::shutdown`].
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Worker count.
    pub workers: usize,
    /// Requests served per worker (indexed by worker).
    pub served: Vec<u64>,
    /// Sum of every worker's optimizer/plan/ws counters — the totals
    /// line `xqsh --explain` prints under the pool. Pool-level sheds
    /// and budget cancellations are folded into its `budget_*`
    /// fields.
    pub stats: OptStats,
    /// Builder failures, by worker (a failed worker answers every
    /// request it dequeues with the error instead of crashing the
    /// pool).
    pub init_errors: Vec<Option<String>>,
    /// Requests presented to the pool ([`ServePool::call`] +
    /// [`ServePool::offer`]). Always
    /// `completed + shed + cancelled`.
    pub offered: u64,
    /// Requests that ran to completion — success or an ordinary
    /// (non-budget) error.
    pub completed: u64,
    /// Requests refused without running: queue full at [`offer`]
    /// time, pool shut down, or deadline already consumed by queue
    /// wait at dispatch.
    ///
    /// [`offer`]: ServePool::offer
    pub shed: u64,
    /// Requests that started but were terminated by their budget
    /// (deadline, fuel, memory, or explicit cancel).
    pub cancelled: u64,
}

/// Shared admission/outcome counters (atomic: clients bump `offered`
/// and `shed`, workers bump the rest).
#[derive(Default)]
struct PoolCounters {
    offered: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
}

struct Job {
    request: ServeRequest,
    reply: Arc<ReplySlot>,
    /// The request's budget, stamped at admission; `None` when the
    /// spec sets no limits (or budgets are disabled).
    budget: Option<Arc<Budget>>,
}

/// Where a worker leaves one request's reply for the client thread that
/// made the request. The client parks until the reply is there, and
/// `fill` unparks it only when it parked, after releasing the lock, so
/// the client never wakes into a held lock.
struct ReplySlot {
    state: Mutex<SlotState>,
    /// The thread that made the call and waits for the reply.
    caller: Thread,
}

#[derive(Default)]
struct SlotState {
    reply: Option<ServeReply>,
    /// The caller found no reply and parks (or is about to).
    parked: bool,
}

impl ReplySlot {
    /// A slot for a reply to the calling thread.
    fn for_current_thread() -> ReplySlot {
        ReplySlot { state: Mutex::new(SlotState::default()), caller: std::thread::current() }
    }

    fn fill(&self, reply: ServeReply) {
        // A poisoned slot still unparks the caller, whose `wait` then
        // answers with the fallback instead of hanging.
        let parked = match self.state.lock() {
            Ok(mut state) => {
                state.reply = Some(reply);
                state.parked
            }
            Err(_) => true,
        };
        if parked {
            self.caller.unpark();
        }
    }

    /// Take the reply, parking until it is there. A spurious return
    /// from `park`, or a token left by an earlier call's `fill`, costs
    /// one more check.
    fn wait(&self) -> ServeReply {
        loop {
            match self.state.lock() {
                Ok(mut state) => match state.reply.take() {
                    Some(reply) => return reply,
                    None => state.parked = true,
                },
                Err(_) => {
                    return ServeReply {
                        worker: usize::MAX,
                        result: Err(
                            AldspCode::SrcUnavailable.error("serve pool reply channel poisoned")
                        ),
                    }
                }
            }
            std::thread::park();
        }
    }
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
    /// Workers blocked in `pop`.
    waiting_workers: usize,
    /// Producers blocked in `push`.
    waiting_producers: usize,
}

/// Why [`Queue::try_push`] refused a job.
enum Refused {
    /// The queue is at capacity — the pool is overloaded.
    Full,
    /// The pool is shutting down.
    Closed,
}

/// Bounded MPMC queue on std `Mutex`/`Condvar`: producers block when
/// full, workers block when empty, `close` wakes everyone for a
/// drain-then-exit shutdown.
///
/// A push signals `not_empty` only when a worker waits, and a pop
/// signals `not_full` only when a producer waits, after releasing the
/// lock. A waiter counts itself under the lock before it waits, so a
/// push or pop that changes the queue after that sees the count and
/// signals; the waiter re-checks its condition when it wakes.
struct Queue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
                waiting_workers: 0,
                waiting_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue, blocking while full. Returns `false` when the queue
    /// is (or becomes) closed — the job is dropped, not served.
    fn push(&self, job: Job) -> bool {
        let Ok(mut inner) = self.inner.lock() else { return false };
        loop {
            if inner.closed {
                return false;
            }
            if inner.jobs.len() < self.capacity {
                self.enqueue(inner, job);
                return true;
            }
            inner.waiting_producers += 1;
            inner = match self.not_full.wait(inner) {
                Ok(mut g) => {
                    g.waiting_producers -= 1;
                    g
                }
                Err(_) => return false,
            };
        }
    }

    /// Non-blocking enqueue: refuse instead of waiting when the queue
    /// is full. Admission control for the overload path — the caller
    /// turns a refusal into an immediate `aldsp:OVERLOADED` reply.
    fn try_push(&self, job: Job) -> Result<(), Refused> {
        let Ok(inner) = self.inner.lock() else { return Err(Refused::Closed) };
        if inner.closed {
            return Err(Refused::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(Refused::Full);
        }
        self.enqueue(inner, job);
        Ok(())
    }

    /// Append `job`, release the lock, and wake one worker if any waits.
    fn enqueue(&self, mut inner: MutexGuard<'_, QueueInner>, job: Job) {
        inner.jobs.push_back(job);
        let wake = inner.waiting_workers > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Dequeue, blocking while empty. `None` means closed **and**
    /// drained: time for the worker to exit.
    fn pop(&self) -> Option<Job> {
        let Ok(mut inner) = self.inner.lock() else { return None };
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                let wake = inner.waiting_producers > 0;
                drop(inner);
                if wake {
                    self.not_full.notify_one();
                }
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner.waiting_workers += 1;
            inner = match self.not_empty.wait(inner) {
                Ok(mut g) => {
                    g.waiting_workers -= 1;
                    g
                }
                Err(_) => return None,
            };
        }
    }

    fn close(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.closed = true;
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

struct WorkerExit {
    served: u64,
    stats: OptStats,
    init_error: Option<String>,
}

/// The stack each serving worker runs on. A request whose text nests as
/// deep as the parser accepts ([`xqparser::parser::MAX_NESTING`]) must
/// both parse and evaluate on it: measured at 256 levels, the deepest
/// shape (nested computed constructors) takes ~0.35 MiB in a release
/// build and ~3.2 MiB in a debug build. Rust's default of 2 MiB held
/// ~300 levels, and a deeper request overflowed it and aborted the
/// process. Recursion through user functions and procedures may use
/// the rest, up to the reserve `xqeval::depth` keeps free, past which a
/// call raises `aldsp:DEPTH_LIMIT`. Untouched stack pages cost no
/// memory.
pub const WORKER_STACK_BYTES: usize = 32 << 20;

/// The serving pool: `workers` threads, each with its own engine and
/// dataspace, pulling [`ServeRequest`]s off one bounded queue.
///
/// `builder(i)` runs **on** worker `i`'s thread and must register the
/// shared sources into a fresh [`DataSpace`] (databases clone-share
/// state; web services are rebuilt per worker because their handlers
/// are `Rc` closures). See [`crate::demo::assemble`] for the
/// canonical builder body.
pub struct ServePool {
    queue: Arc<Queue>,
    /// One slot per worker, in worker order: its thread, or why the OS
    /// would not start it.
    handles: Vec<Result<JoinHandle<WorkerExit>, String>>,
    workers: usize,
    /// Budget knobs copied from the spec.
    deadline_ms: Option<u64>,
    fuel: Option<u64>,
    memory: Option<u64>,
    /// Clock request deadlines read from (spec override, or real
    /// elapsed ms since pool start).
    clock: BudgetClock,
    counters: Arc<PoolCounters>,
}

impl ServePool {
    /// Start the pool. `builder(i)` is invoked once on each worker
    /// thread to construct that worker's `DataSpace` over the shared
    /// source handles.
    pub fn start<B>(spec: ServeSpec, builder: B) -> ServePool
    where
        B: Fn(usize) -> XdmResult<DataSpace> + Send + Sync + 'static,
    {
        let workers = spec.workers.max(1);
        let capacity = if spec.queue_capacity == 0 {
            workers * 4
        } else {
            spec.queue_capacity
        };
        let queue = Arc::new(Queue::new(capacity));
        let builder = Arc::new(builder);
        let counters = Arc::new(PoolCounters::default());
        let clock = spec.clock.clone().unwrap_or_else(|| {
            let t0 = std::time::Instant::now();
            Arc::new(move || t0.elapsed().as_millis() as u64)
        });
        // No worker serves before every worker has finished building:
        // builders write the shared sources' access slots, and a
        // half-initialized pool must not serve requests with faults or
        // breakers only partially installed.
        let latch = Arc::new(StartLatch::new(workers));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let queue = queue.clone();
            let builder = builder.clone();
            let worker_latch = latch.clone();
            let counters = counters.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .stack_size(WORKER_STACK_BYTES)
                .spawn(move || worker_loop(i, &queue, builder.as_ref(), &worker_latch, &counters));
            // The OS may refuse the thread: the others need not wait for
            // it, and shutdown reports it as a worker that never served.
            handles.push(spawned.map_err(|e| {
                latch.arrive();
                format!("serving worker {i} could not start: {e}")
            }));
        }
        if handles.iter().all(Result::is_err) {
            // With no worker, a queued request would wait forever;
            // every call is refused as by a shut-down pool instead.
            queue.close();
        }
        ServePool {
            queue,
            handles,
            workers,
            deadline_ms: spec.deadline_ms,
            fuel: spec.fuel,
            memory: spec.memory,
            clock,
            counters,
        }
    }

    /// Build the budget for one admitted request: the deadline is
    /// stamped *now*, so queue wait counts against it. `None` when the
    /// spec sets no limits.
    fn make_budget(&self) -> Option<Arc<Budget>> {
        if self.deadline_ms.is_none() && self.fuel.is_none() && self.memory.is_none() {
            return None;
        }
        let mut b = Budget::with_clock(self.clock.clone());
        if let Some(ms) = self.deadline_ms {
            b = b.deadline_in(ms);
        }
        if let Some(steps) = self.fuel {
            b = b.limit_fuel(steps);
        }
        if let Some(units) = self.memory {
            b = b.limit_memory(units);
        }
        Some(Arc::new(b))
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Serve one request, blocking until a worker replies (the
    /// closed-loop client primitive: each client thread has at most
    /// one request in flight; a full queue applies back-pressure by
    /// blocking the client, never by shedding).
    pub fn call(&self, request: ServeRequest) -> ServeReply {
        self.counters.offered.fetch_add(1, Ordering::Relaxed);
        let reply = Arc::new(ReplySlot::for_current_thread());
        let job = Job { request, reply: reply.clone(), budget: self.make_budget() };
        if !self.queue.push(job) {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return ServeReply {
                worker: usize::MAX,
                result: Err(AldspCode::Overloaded.error("serve pool is shut down")),
            };
        }
        reply.wait()
    }

    /// Serve one request with *load-shedding admission*: when the
    /// queue is full the request is refused immediately with
    /// `aldsp:OVERLOADED` instead of blocking — the open-loop /
    /// overload-facing entry point. Admitted requests block for their
    /// reply exactly like [`ServePool::call`].
    pub fn offer(&self, request: ServeRequest) -> ServeReply {
        self.counters.offered.fetch_add(1, Ordering::Relaxed);
        let reply = Arc::new(ReplySlot::for_current_thread());
        let job = Job { request, reply: reply.clone(), budget: self.make_budget() };
        match self.queue.try_push(job) {
            Ok(()) => reply.wait(),
            Err(refused) => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                let msg = match refused {
                    Refused::Full => "request shed: serve queue is full",
                    Refused::Closed => "serve pool is shut down",
                };
                ServeReply {
                    worker: usize::MAX,
                    result: Err(AldspCode::Overloaded.error(msg)),
                }
            }
        }
    }

    /// Close the queue, let the workers drain it, join them, and
    /// aggregate their counters.
    pub fn shutdown(self) -> PoolReport {
        self.queue.close();
        let mut report = PoolReport {
            workers: self.workers,
            served: Vec::with_capacity(self.handles.len()),
            stats: OptStats::default(),
            init_errors: Vec::with_capacity(self.handles.len()),
            offered: self.counters.offered.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
        };
        for handle in self.handles {
            match handle.and_then(|h| h.join().map_err(|_| "worker panicked".to_string())) {
                Ok(exit) => {
                    report.served.push(exit.served);
                    report.stats.accumulate(&exit.stats);
                    report.init_errors.push(exit.init_error);
                }
                Err(e) => {
                    report.served.push(0);
                    report.init_errors.push(Some(e));
                }
            }
        }
        // Sheds are counted in the pool counter, never in any engine:
        // queue-full sheds happen on client threads outside an engine,
        // and dispatch-time sheds deliberately skip the engine counter.
        // Fold the pool total into the aggregated stats so one
        // `--explain` line covers the whole budget story.
        report.stats.budget_shed += report.shed;
        report
    }
}

/// The pool's start gate: counts down once per worker that finished
/// building, or that the OS would not start, and lets every worker past
/// at zero.
struct StartLatch {
    pending: Mutex<usize>,
    open: Condvar,
}

impl StartLatch {
    fn new(workers: usize) -> StartLatch {
        StartLatch { pending: Mutex::new(workers), open: Condvar::new() }
    }

    fn arrive(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
            self.open.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        while *pending > 0 {
            pending = self.open.wait(pending).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn worker_loop(
    idx: usize,
    queue: &Queue,
    builder: &(dyn Fn(usize) -> XdmResult<DataSpace> + Send + Sync),
    latch: &StartLatch,
    counters: &PoolCounters,
) -> WorkerExit {
    // Calls on this thread keep their reserve of its stated stack.
    xqeval::depth::enter_stated_stack(WORKER_STACK_BYTES);
    // Tag this thread so injected faults record which worker hit them.
    fault::set_current_worker(Some(idx));
    let space = builder(idx);
    let init_error = space.as_ref().err().map(|e| e.to_string());
    latch.arrive();
    latch.wait();
    let mut served = 0u64;
    while let Some(job) = queue.pop() {
        // Dispatch-time shed: if queue wait already consumed the
        // deadline (or the client cancelled while queued), answer
        // OVERLOADED without starting any work.
        if let Some(b) = &job.budget {
            if b.check().is_err() {
                // Counted only in the pool counter; shutdown() folds
                // `report.shed` into the aggregated stats, so bumping
                // the engine counter here too would double-count.
                counters.shed.fetch_add(1, Ordering::Relaxed);
                job.reply.fill(ServeReply {
                    worker: idx,
                    result: Err(AldspCode::Overloaded.error(
                        "request shed at dispatch: queue wait consumed the deadline",
                    )),
                });
                continue;
            }
        }
        let result = match &space {
            Ok(space) => {
                // Install (or clear) per request, so the thread-local
                // never leaks a budget across requests.
                space.engine().set_budget(job.budget.clone());
                // Contain panics: a panicking request must answer its
                // client, or every later client blocks forever on a
                // worker that no longer exists.
                let outcome = catch_unwind(AssertUnwindSafe(|| serve_one(space, &job.request)))
                    .unwrap_or_else(|_| {
                        Err(AldspCode::SrcUnavailable
                            .error("serving worker panicked while evaluating the request"))
                    });
                space.engine().set_budget(None);
                note_budget_outcome(space, counters, &outcome);
                outcome
            }
            Err(e) => {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                Err(e.clone())
            }
        };
        served += 1;
        job.reply.fill(ServeReply { worker: idx, result });
    }
    let stats = match &space {
        Ok(space) => space.engine().opt_stats(),
        Err(_) => OptStats::default(),
    };
    WorkerExit { served, stats, init_error }
}

/// Classify a served request's outcome: budget terminations bump the
/// engine's per-dimension counters and the pool's `cancelled` bucket;
/// everything else — success or ordinary error — is `completed`.
fn note_budget_outcome(
    space: &DataSpace,
    counters: &PoolCounters,
    outcome: &Result<String, XdmError>,
) {
    let budget_code = match outcome {
        Err(e) => match crate::errors::AldspCode::of(e) {
            Some(
                code @ (AldspCode::DeadlineExceeded
                | AldspCode::FuelExhausted
                | AldspCode::MemoryLimit
                | AldspCode::Cancelled),
            ) => Some(code),
            _ => None,
        },
        Ok(_) => None,
    };
    match budget_code {
        Some(code) => {
            counters.cancelled.fetch_add(1, Ordering::Relaxed);
            let opt = space.engine().opt_counters();
            let cell = match code {
                AldspCode::DeadlineExceeded => &opt.budget_deadline,
                AldspCode::FuelExhausted => &opt.budget_fuel,
                AldspCode::MemoryLimit => &opt.budget_memory,
                _ => &opt.budget_cancelled,
            };
            cell.set(cell.get() + 1);
        }
        None => {
            counters.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn serve_one(space: &DataSpace, request: &ServeRequest) -> Result<String, XdmError> {
    match request {
        ServeRequest::Get { service, method, args } => {
            let args = args.iter().map(ServeArg::to_sequence).collect();
            let graph = space.get(service, method, args)?;
            Ok(xmlparse::serialize_sequence(graph.instances()))
        }
        ServeRequest::Run { program } => {
            // The sink entry `xqsh` prints through, so a reply is what
            // `xqsh` would print. Pulling the top level item by item
            // saves nothing here, since the reply goes out whole: a
            // paging or probing program's early exit happens inside
            // `eval`. An error, mid-stream or not, is the reply.
            let mut env = Env::new();
            let mut ser = xmlparse::IncrementalSerializer::new();
            space.xqse().run_to_sink(program, &mut env, &mut |item| {
                ser.write_item(&item);
                Ok(())
            })?;
            Ok(ser.finish())
        }
        ServeRequest::Submit { service, method, args, sets } => {
            let args = args.iter().map(ServeArg::to_sequence).collect();
            let graph = space.get(service, method, args)?;
            for (instance, path, value) in sets {
                let steps: Vec<&str> = path.iter().map(String::as_str).collect();
                graph.set_value(*instance, &steps, value)?;
            }
            space.submit(&graph)?;
            Ok("ok".to_string())
        }
    }
}

/// Serve `requests` through `clients` closed-loop client threads over
/// an existing pool and return `(replies, elapsed)`. Requests are
/// dealt round-robin to clients; each client blocks on one request at
/// a time (the E14 driver).
pub fn drive_closed_loop(
    pool: &ServePool,
    requests: &[ServeRequest],
    clients: usize,
) -> (Vec<ServeReply>, std::time::Duration) {
    drive(pool, requests, clients, ServePool::call)
}

/// The overload driver: like [`drive_closed_loop`] but each client
/// submits through [`ServePool::offer`], so arrivals the pool cannot
/// absorb are **shed instantly** with `aldsp:OVERLOADED` instead of
/// back-pressuring the client. Running many more clients than workers
/// approximates an open-loop arrival process at several multiples of
/// the pool's capacity — the E15 overload experiment drives 4 workers
/// with 4× the clients and asserts sheds fail fast while admitted
/// goodput holds.
pub fn drive_open_loop(
    pool: &ServePool,
    requests: &[ServeRequest],
    clients: usize,
) -> (Vec<ServeReply>, std::time::Duration) {
    drive(pool, requests, clients, ServePool::offer)
}

/// Both drivers: `clients` threads take the next request index in
/// turn, serve it through `entry`, and keep their own replies, which
/// are put back in request order at the end.
fn drive(
    pool: &ServePool,
    requests: &[ServeRequest],
    clients: usize,
    entry: fn(&ServePool, ServeRequest) -> ServeReply,
) -> (Vec<ServeReply>, std::time::Duration) {
    let started = std::time::Instant::now();
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, ServeReply)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut replies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else { return replies };
                        replies.push((i, entry(pool, request.clone())));
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let elapsed = started.elapsed();
    indexed.sort_by_key(|(i, _)| *i);
    (indexed.into_iter().map(|(_, r)| r).collect(), elapsed)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    //! The hand-off protocol, one wait path at a time. Each test forces
    //! its interleaving by waiting until the waiter has counted (or
    //! marked) itself under the lock, which it does just before it
    //! waits; none sleeps. A lost wake-up shows as a thread that never
    //! answers, which the test reports after [`LOST`].

    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// How long a test waits for a woken thread before it calls the
    /// wake-up lost.
    const LOST: Duration = Duration::from_secs(30);

    fn job() -> Job {
        Job {
            request: ServeRequest::Run { program: "1".to_string() },
            reply: Arc::new(ReplySlot::for_current_thread()),
            budget: None,
        }
    }

    fn reply(text: &str) -> ServeReply {
        ServeReply { worker: 0, result: Ok(text.to_string()) }
    }

    /// The result of `f`, run on a thread of its own.
    struct Answer<T> {
        rx: mpsc::Receiver<T>,
        thread: std::thread::JoinHandle<()>,
    }

    fn on_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Answer<T> {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        Answer { rx, thread }
    }

    impl<T> Answer<T> {
        /// Join the thread and take its result. A thread that panicked
        /// fails the test with its panic, and one that has not answered
        /// within [`LOST`] fails it with `lost` and is left blocked.
        fn get(self, lost: &str) -> T {
            match self.rx.recv_timeout(LOST) {
                Ok(answer) => {
                    self.thread.join().unwrap();
                    answer
                }
                Err(mpsc::RecvTimeoutError::Timeout) => panic!("{lost}"),
                Err(mpsc::RecvTimeoutError::Disconnected) => match self.thread.join() {
                    Err(panic) => std::panic::resume_unwind(panic),
                    Ok(()) => unreachable!("the thread ended without an answer"),
                },
            }
        }
    }

    /// Wait until `count` of the queue reads 1 under its lock: the
    /// counted thread has released the lock inside `Condvar::wait`.
    fn until_one_waits(queue: &Queue, count: fn(&QueueInner) -> usize) {
        until(|| count(&queue.inner.lock().unwrap()) == 1);
    }

    /// Wait until the slot's caller has found no reply and parks.
    fn until_parked(slot: &ReplySlot) {
        until(|| slot.state.lock().unwrap().parked);
    }

    fn until(done: impl Fn() -> bool) {
        let started = std::time::Instant::now();
        while !done() {
            assert!(started.elapsed() < LOST, "no thread came to wait");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_worker_waiting_in_pop_is_woken_by_push_and_by_try_push() {
        for try_push in [false, true] {
            let queue = Arc::new(Queue::new(4));
            let q = queue.clone();
            let popped = on_thread(move || q.pop().is_some());
            until_one_waits(&queue, |q| q.waiting_workers);
            if try_push {
                assert!(queue.try_push(job()).is_ok());
            } else {
                assert!(queue.push(job()));
            }
            assert!(popped.get("the waiting worker was not woken"));
            assert_eq!(queue.inner.lock().unwrap().waiting_workers, 0);
        }
    }

    #[test]
    fn a_producer_waiting_on_a_full_queue_is_woken_by_pop() {
        let queue = Arc::new(Queue::new(1));
        assert!(queue.push(job()));
        let q = queue.clone();
        let pushed = on_thread(move || q.push(job()));
        until_one_waits(&queue, |q| q.waiting_producers);
        assert!(queue.pop().is_some());
        assert!(pushed.get("the waiting producer was not woken"));
        let inner = queue.inner.lock().unwrap();
        assert_eq!((inner.jobs.len(), inner.waiting_producers), (1, 0));
    }

    #[test]
    fn close_wakes_a_waiting_worker_and_a_waiting_producer() {
        let empty = Arc::new(Queue::new(1));
        let q = empty.clone();
        let popped = on_thread(move || q.pop().is_none());
        until_one_waits(&empty, |q| q.waiting_workers);

        let full = Arc::new(Queue::new(1));
        assert!(full.push(job()));
        let q = full.clone();
        let pushed = on_thread(move || q.push(job()));
        until_one_waits(&full, |q| q.waiting_producers);

        empty.close();
        full.close();
        assert!(popped.get("close did not wake the worker"));
        assert!(!pushed.get("close did not wake the producer"));
        // Drain, then exit: the job queued before the close is served.
        assert!(full.pop().is_some());
        assert!(full.pop().is_none());
    }

    #[test]
    fn a_reply_filled_before_its_client_waits_is_taken_without_parking() {
        let slot = Arc::new(ReplySlot::for_current_thread());
        let s = slot.clone();
        std::thread::spawn(move || s.fill(reply("early"))).join().unwrap();
        assert_eq!(slot.wait().result.unwrap(), "early");
        assert!(!slot.state.lock().unwrap().parked, "the client parked for a reply already there");
    }

    #[test]
    fn a_reply_filled_after_its_client_parks_wakes_it() {
        let (slots, slot) = mpsc::channel();
        let answer = on_thread(move || {
            let slot = Arc::new(ReplySlot::for_current_thread());
            slots.send(slot.clone()).unwrap();
            slot.wait()
        });
        let slot: Arc<ReplySlot> = slot.recv().unwrap();
        until_parked(&slot);
        slot.fill(reply("late"));
        let answer = answer.get("the parked client was not woken");
        assert_eq!(answer.result.unwrap(), "late");
    }

    #[test]
    fn a_poisoned_reply_slot_answers_its_parked_client() {
        let (slots, slot) = mpsc::channel();
        let answer = on_thread(move || {
            let slot = Arc::new(ReplySlot::for_current_thread());
            slots.send(slot.clone()).unwrap();
            slot.wait()
        });
        let slot: Arc<ReplySlot> = slot.recv().unwrap();
        until_parked(&slot);
        let s = slot.clone();
        let poisoner = std::thread::spawn(move || {
            let _held = s.state.lock();
            panic!("poison the reply slot");
        });
        assert!(poisoner.join().is_err());
        slot.fill(reply("lost"));
        let answer = answer.get("the poisoned slot left its client parked");
        let err = answer.result.unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable), "{err}");
        assert_eq!(answer.worker, usize::MAX);
    }

    #[test]
    fn a_one_slot_queue_serves_eight_clients_through_two_workers() {
        const CALLS: usize = 20_000;
        let outcome = on_thread(|| {
            let spec = ServeSpec { queue_capacity: 1, ..ServeSpec::new(2) };
            let pool = ServePool::start(spec, |_| Ok(DataSpace::new()));
            let requests = vec![ServeRequest::Run { program: "1".to_string() }; CALLS];
            let (replies, _) = drive_closed_loop(&pool, &requests, 8);
            (replies, pool.shutdown())
        });
        let (replies, report) = outcome.get("the pool stopped answering: a wake-up was lost");
        assert_eq!(replies.len(), CALLS);
        for r in &replies {
            match &r.result {
                Ok(text) => assert_eq!(text, "1"),
                Err(e) => panic!("worker {}: {e}", r.worker),
            }
        }
        assert_eq!(report.offered, CALLS as u64);
        assert_eq!((report.completed, report.shed, report.cancelled), (CALLS as u64, 0, 0));
        assert_eq!(report.served.iter().sum::<u64>(), CALLS as u64);
    }
}
