//! Per-request resource budgets: wall-clock deadline, evaluation fuel,
//! and an XDM allocation ceiling, carried in a `Send + Sync`
//! cancellation token.
//!
//! XQSE makes the mediation tier Turing-complete — `while`/`iterate`
//! loops and procedure calls mean a single request can run forever or
//! fan out unboundedly into sources. The serving pool (`aldsp::pool`)
//! therefore attaches a [`Budget`] to each admitted request and
//! threads it through three layers:
//!
//! 1. the expression evaluator's hot loop charges one **fuel** unit
//!    per evaluation step (`Evaluator::eval`) and the XQSE/XQueryP
//!    `while`/`iterate` interpreters check at every loop head;
//! 2. node constructors charge **memory** units per constructed node;
//! 3. the resilience layer clamps per-source-call timeouts to the
//!    budget's remaining **deadline**, so retries and backoff never
//!    outlive the request, and the journaled 2PC coordinator checks
//!    for cancellation at every pre-decision protocol point.
//!
//! Exhaustion surfaces as XQSE-catchable errors in the ALDSP error
//! namespace (`aldsp:DEADLINE_EXCEEDED`, `aldsp:FUEL_EXHAUSTED`,
//! `aldsp:MEMORY_LIMIT`, `aldsp:CANCELLED`) so a data-service script
//! can degrade gracefully in `try`/`catch` (paper §III.D). The budget
//! is all atomics: a client (or the pool) may [`Budget::cancel`] from
//! another thread and the serving worker observes it cooperatively at
//! the next check point.
//!
//! Deadlines are expressed against a pluggable [`BudgetClock`] — the
//! chaos tests hand in the resilience layer's *virtual* clock so
//! deadline expiry is deterministic; `xqsh` uses real elapsed time.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use xdm::error::{XdmError, XdmResult};
use xdm::qname::QName;

/// Namespace URI of the ALDSP infrastructure error codes. Budget
/// errors are raised from the evaluator layer, below the `aldsp`
/// crate, so the namespace is duplicated here; `aldsp::errors`
/// asserts the two stay identical.
pub const ALDSP_ERR_NS: &str = "urn:aldsp:errors";

/// Millisecond reading of "now" for deadline accounting. Virtual in
/// tests (an atomic counter advanced by the resilience layer), real
/// elapsed time in `xqsh`.
pub type BudgetClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Sentinel for "no limit" on an atomic budget dimension.
const UNLIMITED: u64 = u64::MAX;

/// Deadline checks in [`Budget::step`] run every `STRIDE` steps: a
/// clock read per evaluation step would tax the hot loop for no
/// precision gain (coarse-grained sites — loop heads, source calls,
/// 2PC protocol points — check unstrided).
const DEADLINE_STRIDE: u64 = 64;

/// Why a budget check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The request's wall-clock deadline passed.
    Deadline,
    /// The request's evaluation-step allowance ran out.
    Fuel,
    /// The request's XDM allocation ceiling was hit.
    Memory,
    /// The request was cancelled externally ([`Budget::cancel`]).
    Cancelled,
}

impl BudgetExceeded {
    /// The local part of the XQSE-catchable error QName.
    pub fn local(&self) -> &'static str {
        match self {
            BudgetExceeded::Deadline => "DEADLINE_EXCEEDED",
            BudgetExceeded::Fuel => "FUEL_EXHAUSTED",
            BudgetExceeded::Memory => "MEMORY_LIMIT",
            BudgetExceeded::Cancelled => "CANCELLED",
        }
    }

    /// The error code as a QName in [`ALDSP_ERR_NS`].
    pub fn qname(&self) -> QName {
        QName::with_ns(ALDSP_ERR_NS, self.local())
    }

    /// Build the typed [`XdmError`] for this exhaustion.
    pub fn error(&self, message: impl Into<String>) -> XdmError {
        XdmError::with_code(self.qname(), message)
    }
}

/// The per-request budget/cancellation token.
///
/// All state is atomic, so one `Arc<Budget>` can be shared between
/// the serving worker executing the request, the admission layer that
/// stamped it, and a client thread that may cancel it. Fuel and
/// memory are charged by the single worker thread evaluating the
/// request; cross-thread access to those is read-mostly (a concurrent
/// reader may miss one in-flight charge, which is harmless).
pub struct Budget {
    clock: BudgetClock,
    /// Absolute deadline in clock ms; [`UNLIMITED`] = none.
    deadline_ms: AtomicU64,
    /// Remaining evaluation steps; [`UNLIMITED`] = no limit.
    fuel: AtomicU64,
    /// Remaining XDM allocation units; [`UNLIMITED`] = no limit.
    memory: AtomicU64,
    cancelled: AtomicBool,
    /// Total steps charged (drives the strided deadline check and the
    /// overhead guard's step accounting).
    steps: AtomicU64,
    /// Loop-head checks taken (drives [`Budget::loop_check`]'s
    /// deadline stride, independent of the step stride).
    loop_checks: AtomicU64,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Budget")
            .field("deadline_ms", &self.deadline_ms.load(Ordering::Relaxed))
            .field("fuel", &self.fuel.load(Ordering::Relaxed))
            .field("memory", &self.memory.load(Ordering::Relaxed))
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .field("steps", &self.steps.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits and a null clock — only
    /// [`Budget::cancel`] can interrupt it.
    pub fn unlimited() -> Budget {
        Budget::with_clock(Arc::new(|| 0))
    }

    /// A limitless budget reading deadlines off `clock`.
    pub fn with_clock(clock: BudgetClock) -> Budget {
        Budget {
            clock,
            deadline_ms: AtomicU64::new(UNLIMITED),
            fuel: AtomicU64::new(UNLIMITED),
            memory: AtomicU64::new(UNLIMITED),
            cancelled: AtomicBool::new(false),
            steps: AtomicU64::new(0),
            loop_checks: AtomicU64::new(0),
        }
    }

    /// Set the deadline `ms` milliseconds from the clock's current
    /// reading (builder style).
    pub fn deadline_in(self, ms: u64) -> Budget {
        let now = (self.clock)();
        self.deadline_ms.store(now.saturating_add(ms), Ordering::Relaxed);
        self
    }

    /// Limit evaluation fuel to `steps` (builder style).
    pub fn limit_fuel(self, steps: u64) -> Budget {
        self.fuel.store(steps, Ordering::Relaxed);
        self
    }

    /// Limit XDM allocation to `units` (builder style).
    pub fn limit_memory(self, units: u64) -> Budget {
        self.memory.store(units, Ordering::Relaxed);
        self
    }

    /// True when any dimension is limited. Unlimited budgets are not
    /// worth installing unless cancellation is wanted.
    pub fn is_limited(&self) -> bool {
        self.deadline_ms.load(Ordering::Relaxed) != UNLIMITED
            || self.fuel.load(Ordering::Relaxed) != UNLIMITED
            || self.memory.load(Ordering::Relaxed) != UNLIMITED
    }

    /// Cancel the request: every subsequent check on any thread fails
    /// with `aldsp:CANCELLED`.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// The clock this budget reads deadlines from.
    pub fn clock(&self) -> BudgetClock {
        self.clock.clone()
    }

    /// Milliseconds left until the deadline: `None` when no deadline
    /// is set, `Some(0)` when it already passed.
    pub fn remaining_ms(&self) -> Option<u64> {
        let deadline = self.deadline_ms.load(Ordering::Relaxed);
        if deadline == UNLIMITED {
            return None;
        }
        Some(deadline.saturating_sub((self.clock)()))
    }

    /// Remaining fuel, `None` when unlimited.
    pub fn remaining_fuel(&self) -> Option<u64> {
        match self.fuel.load(Ordering::Relaxed) {
            UNLIMITED => None,
            n => Some(n),
        }
    }

    /// Remaining memory units, `None` when unlimited.
    pub fn remaining_memory(&self) -> Option<u64> {
        match self.memory.load(Ordering::Relaxed) {
            UNLIMITED => None,
            n => Some(n),
        }
    }

    /// Evaluation steps charged so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Which dimension (if any) is exhausted right now, without
    /// charging anything. Cancellation dominates, then deadline.
    pub fn exceeded(&self) -> Option<BudgetExceeded> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(BudgetExceeded::Cancelled);
        }
        match self.remaining_ms() {
            Some(0) => Some(BudgetExceeded::Deadline),
            _ => None,
        }
    }

    /// Coarse-grained cooperative check: cancellation and deadline,
    /// unstrided. Loop heads, source-call admission, and 2PC protocol
    /// points call this.
    pub fn check(&self) -> XdmResult<()> {
        match self.exceeded() {
            None => Ok(()),
            Some(why) => Err(self.exceed_error(why)),
        }
    }

    /// Loop-head cooperative check: cancellation on every call, the
    /// deadline every [`DEADLINE_STRIDE`]th call. The clock read is
    /// the expensive part of a budget check on a tight interpreter
    /// loop, and the deadline's resolution is a millisecond anyway —
    /// striding it keeps an armed budget inside the overhead guard's
    /// envelope while cancellation stays responsive per iteration.
    /// Unstrided checks ([`Budget::check`]) remain on source-call
    /// admission and 2PC protocol points, where exactness matters.
    #[inline]
    pub fn loop_check(&self) -> XdmResult<()> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(self.exceed_error(BudgetExceeded::Cancelled));
        }
        // Single-writer counter, like `steps` below.
        let n = self.loop_checks.load(Ordering::Relaxed);
        self.loop_checks.store(n + 1, Ordering::Relaxed);
        if n.is_multiple_of(DEADLINE_STRIDE) && self.remaining_ms() == Some(0) {
            return Err(self.exceed_error(BudgetExceeded::Deadline));
        }
        Ok(())
    }

    /// Fine-grained hot-loop charge: one fuel unit per evaluation
    /// step, with cancellation and the deadline consulted every
    /// [`DEADLINE_STRIDE`] steps (loop heads and source calls check
    /// them unstrided via [`Budget::check`], so responsiveness does
    /// not ride on the stride). Called at the top of
    /// `Evaluator::eval`, and by a FLWOR cursor once per pulled tuple.
    /// Tuples a cursor never pulls are never charged, so fuel totals
    /// under lazy evaluation can be lower than eager totals for the
    /// same query (DESIGN.md §11 deviation list).
    #[inline]
    pub fn step(&self) -> XdmResult<()> {
        let fuel = self.fuel.load(Ordering::Relaxed);
        if fuel != UNLIMITED {
            if fuel == 0 {
                return Err(self.exceed_error(BudgetExceeded::Fuel));
            }
            self.fuel.store(fuel - 1, Ordering::Relaxed);
        }
        // Single-writer counter: only the evaluating thread steps;
        // other threads just read. load+store keeps an RMW out of
        // the evaluator's hot loop.
        let n = self.steps.load(Ordering::Relaxed);
        self.steps.store(n + 1, Ordering::Relaxed);
        if n.is_multiple_of(DEADLINE_STRIDE) {
            if self.cancelled.load(Ordering::Relaxed) {
                return Err(self.exceed_error(BudgetExceeded::Cancelled));
            }
            if self.remaining_ms() == Some(0) {
                return Err(self.exceed_error(BudgetExceeded::Deadline));
            }
        }
        Ok(())
    }

    /// Charge `units` of XDM allocation (node constructors).
    pub fn charge_memory(&self, units: u64) -> XdmResult<()> {
        let mem = self.memory.load(Ordering::Relaxed);
        if mem == UNLIMITED {
            return Ok(());
        }
        if mem < units {
            self.memory.store(0, Ordering::Relaxed);
            return Err(self.exceed_error(BudgetExceeded::Memory));
        }
        self.memory.store(mem - units, Ordering::Relaxed);
        Ok(())
    }

    fn exceed_error(&self, why: BudgetExceeded) -> XdmError {
        let detail = match why {
            BudgetExceeded::Deadline => {
                format!("request deadline exceeded at t={}ms", (self.clock)())
            }
            BudgetExceeded::Fuel => format!(
                "evaluation fuel exhausted after {} steps",
                self.steps.load(Ordering::Relaxed)
            ),
            BudgetExceeded::Memory => "XDM allocation ceiling reached".to_string(),
            BudgetExceeded::Cancelled => "request cancelled by client".to_string(),
        };
        why.error(detail)
    }
}

thread_local! {
    /// The budget of the request this thread is currently serving.
    /// The serving pool installs it per request (mirroring
    /// `fault::set_current_worker`); the resilience layer and the 2PC
    /// coordinator — which have no engine in scope — read it here.
    static CURRENT_BUDGET: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
}

/// Install (or clear, with `None`) the current thread's request
/// budget. The engine's own budget slot is per-engine; this
/// thread-local is the channel to the source-access layers below.
pub fn set_current_budget(budget: Option<Arc<Budget>>) {
    CURRENT_BUDGET.with(|b| *b.borrow_mut() = budget);
}

/// The budget of the request this thread is serving, if any.
pub fn current_budget() -> Option<Arc<Budget>> {
    CURRENT_BUDGET.with(|b| b.borrow().clone())
}

#[cfg(test)]
#[allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]
mod budget_tests {
    use super::*;

    fn code_of(e: &XdmError) -> String {
        e.code.local.to_string()
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.step().unwrap();
        }
        b.check().unwrap();
        b.charge_memory(1 << 40).unwrap();
        assert!(!b.is_limited());
        assert_eq!(b.remaining_ms(), None);
        assert_eq!(b.remaining_fuel(), None);
    }

    #[test]
    fn fuel_exhausts_after_exactly_n_steps() {
        let b = Budget::unlimited().limit_fuel(5);
        for _ in 0..5 {
            b.step().unwrap();
        }
        let err = b.step().unwrap_err();
        assert_eq!(code_of(&err), "FUEL_EXHAUSTED");
        assert_eq!(err.code.ns.as_deref(), Some(ALDSP_ERR_NS));
        assert_eq!(b.steps_taken(), 5);
    }

    #[test]
    fn deadline_expires_on_the_shared_clock() {
        let t = Arc::new(AtomicU64::new(0));
        let reader = t.clone();
        let b = Budget::with_clock(Arc::new(move || reader.load(Ordering::Relaxed)))
            .deadline_in(100);
        b.check().unwrap();
        assert_eq!(b.remaining_ms(), Some(100));
        t.store(99, Ordering::Relaxed);
        b.check().unwrap();
        t.store(100, Ordering::Relaxed);
        let err = b.check().unwrap_err();
        assert_eq!(code_of(&err), "DEADLINE_EXCEEDED");
        assert_eq!(b.remaining_ms(), Some(0));
    }

    #[test]
    fn memory_ceiling_trips_and_stays_tripped() {
        let b = Budget::unlimited().limit_memory(10);
        b.charge_memory(6).unwrap();
        b.charge_memory(4).unwrap();
        let err = b.charge_memory(1).unwrap_err();
        assert_eq!(code_of(&err), "MEMORY_LIMIT");
        assert_eq!(b.remaining_memory(), Some(0));
    }

    #[test]
    fn cancellation_is_visible_across_threads() {
        let b = Arc::new(Budget::unlimited());
        let b2 = b.clone();
        std::thread::spawn(move || b2.cancel()).join().unwrap();
        let err = b.step().unwrap_err();
        assert_eq!(code_of(&err), "CANCELLED");
        assert_eq!(code_of(&b.check().unwrap_err()), "CANCELLED");
    }

    #[test]
    fn thread_local_install_is_per_thread() {
        let b = Arc::new(Budget::unlimited().limit_fuel(1));
        set_current_budget(Some(b.clone()));
        assert!(current_budget().is_some());
        std::thread::spawn(|| assert!(current_budget().is_none()))
            .join()
            .unwrap();
        set_current_budget(None);
        assert!(current_budget().is_none());
    }
}
