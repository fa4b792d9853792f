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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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

#[derive(Default)]
struct ReplySlot {
    slot: Mutex<Option<ServeReply>>,
    ready: Condvar,
}

impl ReplySlot {
    fn fill(&self, reply: ServeReply) {
        if let Ok(mut guard) = self.slot.lock() {
            *guard = Some(reply);
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> ServeReply {
        let fallback = || ServeReply {
            worker: usize::MAX,
            result: Err(crate::errors::AldspCode::SrcUnavailable
                .error("serve pool reply channel poisoned")),
        };
        let Ok(mut guard) = self.slot.lock() else { return fallback() };
        loop {
            if let Some(reply) = guard.take() {
                return reply;
            }
            guard = match self.ready.wait(guard) {
                Ok(g) => g,
                Err(_) => return fallback(),
            };
        }
    }
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
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
struct Queue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue {
            inner: Mutex::new(QueueInner { jobs: VecDeque::new(), closed: false }),
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
                inner.jobs.push_back(job);
                self.not_empty.notify_one();
                return true;
            }
            inner = match self.not_full.wait(inner) {
                Ok(g) => g,
                Err(_) => return false,
            };
        }
    }

    /// Non-blocking enqueue: refuse instead of waiting when the queue
    /// is full. Admission control for the overload path — the caller
    /// turns a refusal into an immediate `aldsp:OVERLOADED` reply.
    fn try_push(&self, job: Job) -> Result<(), Refused> {
        let Ok(mut inner) = self.inner.lock() else { return Err(Refused::Closed) };
        if inner.closed {
            return Err(Refused::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(Refused::Full);
        }
        inner.jobs.push_back(job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while empty. `None` means closed **and**
    /// drained: time for the worker to exit.
    fn pop(&self) -> Option<Job> {
        let Ok(mut inner) = self.inner.lock() else { return None };
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = match self.not_empty.wait(inner) {
                Ok(g) => g,
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
    handles: Vec<JoinHandle<WorkerExit>>,
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
        let barrier = Arc::new(std::sync::Barrier::new(workers));
        let handles = (0..workers)
            .map(|i| {
                let queue = queue.clone();
                let builder = builder.clone();
                let barrier = barrier.clone();
                let counters = counters.clone();
                std::thread::spawn(move || {
                    worker_loop(i, &queue, builder.as_ref(), &barrier, &counters)
                })
            })
            .collect();
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
        let reply = Arc::new(ReplySlot::default());
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
        let reply = Arc::new(ReplySlot::default());
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
            match handle.join() {
                Ok(exit) => {
                    report.served.push(exit.served);
                    report.stats.accumulate(&exit.stats);
                    report.init_errors.push(exit.init_error);
                }
                Err(_) => {
                    report.served.push(0);
                    report.init_errors.push(Some("worker panicked".to_string()));
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

fn worker_loop(
    idx: usize,
    queue: &Queue,
    builder: &(dyn Fn(usize) -> XdmResult<DataSpace> + Send + Sync),
    barrier: &std::sync::Barrier,
    counters: &PoolCounters,
) -> WorkerExit {
    // Tag this thread so injected faults record which worker hit them.
    fault::set_current_worker(Some(idx));
    let space = builder(idx);
    let init_error = space.as_ref().err().map(|e| e.to_string());
    barrier.wait();
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
    let clients = clients.max(1);
    let started = std::time::Instant::now();
    let replies: Mutex<Vec<(usize, ServeReply)>> = Mutex::new(Vec::new());
    let next: AtomicU64 = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= requests.len() {
                    break;
                }
                let reply = pool.call(requests[i].clone());
                if let Ok(mut sink) = replies.lock() {
                    sink.push((i, reply));
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let mut indexed = replies.into_inner().unwrap_or_default();
    indexed.sort_by_key(|(i, _)| *i);
    (indexed.into_iter().map(|(_, r)| r).collect(), elapsed)
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
    let clients = clients.max(1);
    let started = std::time::Instant::now();
    let replies: Mutex<Vec<(usize, ServeReply)>> = Mutex::new(Vec::new());
    let next: AtomicU64 = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= requests.len() {
                    break;
                }
                let reply = pool.offer(requests[i].clone());
                if let Ok(mut sink) = replies.lock() {
                    sink.push((i, reply));
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let mut indexed = replies.into_inner().unwrap_or_default();
    indexed.sort_by_key(|(i, _)| *i);
    (indexed.into_iter().map(|(_, r)| r).collect(), elapsed)
}
