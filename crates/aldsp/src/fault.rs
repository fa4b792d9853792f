//! Deterministic fault injection for ALDSP sources.
//!
//! Real ALDSP deployments sit in front of flaky infrastructure:
//! relational sources drop connections, web services time out, and
//! distributed transactions abort mid-flight.  The paper's motivation
//! for XQSE's `try`/`catch` (§III.D) and compensation patterns (Use
//! Case 4's replicating create) is exactly these failures — but the
//! seed substrate could only ever succeed, so none of those paths were
//! exercisable.
//!
//! This module adds a **seedable, deterministic** [`FaultInjector`]
//! that sources consult before touching their backing state.  A
//! [`FaultPlan`] is an ordered list of [`FaultRule`]s keyed by source
//! name and operation; the first matching rule with remaining budget
//! fires.  Determinism is the point: a chaos test writes a plan,
//! replays it, and asserts *exact* outcomes — no real sleeps, no wall
//! clocks, no flaky tests.  Simulated latency is expressed through the
//! virtual clock in [`crate::resilience`].
//!
//! Probabilistic rules are supported for soak-style tests via a
//! seeded splitmix64 RNG: the same seed always yields the same fault
//! sequence.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;

use xdm::error::XdmError;

use crate::errors::AldspCode;

/// The operations a fault rule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Full-table scan on a relational source.
    Scan,
    /// Keyed select on a relational source.
    Select,
    /// Auto-commit write batch on a relational source.
    Execute,
    /// XA phase-1 prepare on a relational source.
    Prepare,
    /// Web-service operation invocation.
    Call,
    /// Data-space read (`DataSpace::get`).
    Get,
    /// Data-space update submission (`submit` / `default_submit`).
    Submit,
    /// 2PC protocol point: coordinator wrote `Begin` to its journal
    /// (source name is always `"coordinator"`).
    XaBegin,
    /// 2PC protocol point: one branch prepared and its `Prepared`
    /// record was journaled (source name is the branch's database).
    XaPrepared,
    /// 2PC protocol point: the `CommitDecision` record was journaled
    /// (source name is `"coordinator"`).
    XaDecide,
    /// 2PC protocol point: one branch committed, but its `Committed`
    /// record is *not yet* journaled (source name is the branch's
    /// database).
    XaCommit,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Scan => "scan",
            Op::Select => "select",
            Op::Execute => "execute",
            Op::Prepare => "prepare",
            Op::Call => "call",
            Op::Get => "get",
            Op::Submit => "submit",
            Op::XaBegin => "xa-begin",
            Op::XaPrepared => "xa-prepared",
            Op::XaDecide => "xa-decide",
            Op::XaCommit => "xa-commit",
        })
    }
}

/// What a matching rule does to the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Raise `aldsp:SRC_TRANSIENT` (retryable) on every firing.
    Transient,
    /// Raise `aldsp:SRC_UNAVAILABLE` (not retryable) on every firing.
    Permanent,
    /// Raise `aldsp:SRC_TIMEOUT` (retryable) on every firing.
    Timeout,
    /// Succeed, but take the given number of virtual milliseconds.
    /// Under a resilience policy the delay is checked against the call
    /// timeout and may surface as `aldsp:SRC_TIMEOUT`.
    SlowResponse(u64),
    /// Raise `aldsp:SRC_TRANSIENT` for the first `k` firings, then
    /// stop matching (the canonical "transient blip" rule).
    FailNTimes(u32),
    /// Kill the 2PC coordinator at the matched protocol point
    /// (`Op::XaBegin`/`XaPrepared`/`XaDecide`/`XaCommit`): the
    /// coordinator unwinds with `aldsp:XA_COORD_CRASH`, leaving
    /// sources in whatever partial state the protocol had reached —
    /// prepared locks held, or some branches committed and others not.
    /// Defaults to a budget of **1** (a process crashes once), so a
    /// later `DataSpace::recover()` / retried submit runs unimpeded.
    CrashPoint,
    /// Succeed, but *stall* for the given number of virtual
    /// milliseconds first: the clock advances and the request's budget
    /// burns, but — unlike [`FaultKind::SlowResponse`] — the stall is
    /// **never** compared against the policy timeout, so it cannot
    /// surface as `aldsp:SRC_TIMEOUT`. The only observable consequence
    /// is whatever the caller's *budget* says afterwards: this is the
    /// primitive the cancel-at-every-protocol-point chaos matrix uses
    /// to expire a deadline at an exact 2PC step.
    Stall(u64),
}

/// One entry in a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Source name to match; `"*"` matches every source.
    pub source: String,
    /// Operation to match; `None` matches every operation.
    pub op: Option<Op>,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// Remaining firing budget. `FailNTimes(k)` starts at `k`; other
    /// kinds default to unlimited unless capped with
    /// [`FaultRule::times`].
    budget: u32,
    /// Firing probability in `[0,1]`; `1.0` (always) by default.
    /// Evaluated with the plan's seeded RNG, so runs are reproducible.
    probability: f64,
}

impl FaultRule {
    /// A rule for `source`/`op` with the given kind and default budget.
    pub fn new(source: impl Into<String>, op: Op, kind: FaultKind) -> FaultRule {
        FaultRule {
            source: source.into(),
            op: Some(op),
            kind,
            budget: match kind {
                FaultKind::FailNTimes(k) => k,
                FaultKind::CrashPoint => 1,
                _ => u32::MAX,
            },
            probability: 1.0,
        }
    }

    /// A rule matching *every* operation on `source`.
    pub fn any_op(source: impl Into<String>, kind: FaultKind) -> FaultRule {
        let mut r = FaultRule::new(source, Op::Scan, kind);
        r.op = None;
        r
    }

    /// Cap how many times this rule may fire.
    pub fn times(mut self, n: u32) -> FaultRule {
        self.budget = n;
        self
    }

    /// Fire only with the given probability (seeded, reproducible).
    pub fn with_probability(mut self, p: f64) -> FaultRule {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    fn matches(&self, source: &str, op: Op) -> bool {
        (self.source == "*" || self.source == source)
            && self.op.is_none_or(|o| o == op)
            && self.budget > 0
    }
}

/// An ordered collection of fault rules plus the RNG seed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan with an explicit RNG seed for probabilistic rules.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { rules: Vec::new(), seed }
    }

    /// Append a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Number of rules in the plan.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// The injector's verdict for one call.
#[derive(Debug, Clone, PartialEq)]
pub enum Injected {
    /// Fail the call with this error before it reaches the source.
    Error(XdmError),
    /// Let the call proceed, but charge this many virtual
    /// milliseconds of latency first.
    Delay(u64),
    /// Kill the coordinator here: the 2PC driver unwinds immediately
    /// with `aldsp:XA_COORD_CRASH` and performs **no** cleanup —
    /// unlike `Error`, which aborts the transaction tidily. Only the
    /// coordinator's crash-check points honour this; ordinary source
    /// calls treat it like a permanent error.
    Crash,
    /// Let the call proceed after this many virtual milliseconds of
    /// latency that consume the request budget but are exempt from the
    /// policy timeout (see [`FaultKind::Stall`]).
    Stall(u64),
}

/// A record of one injected fault, for assertions and reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The source the faulted call targeted.
    pub source: String,
    /// The operation that was intercepted.
    pub op: Op,
    /// What was injected.
    pub injected: Injected,
    /// Index of the serving-pool worker whose call hit the fault
    /// (`None` when the call came from outside a pool worker, e.g. a
    /// single-threaded test or the coordinator's recovery pass).
    pub worker: Option<usize>,
}

thread_local! {
    /// Serving-pool worker identity of the current thread; stamped
    /// onto every [`FaultEvent`] the thread triggers. The pool sets it
    /// once per worker thread via [`set_current_worker`].
    static CURRENT_WORKER: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Tag the current thread as serving-pool worker `idx` (or clear the
/// tag with `None`). Subsequent injected faults on this thread carry
/// the tag in [`FaultEvent::worker`].
pub fn set_current_worker(idx: Option<usize>) {
    CURRENT_WORKER.with(|w| w.set(idx));
}

/// The serving-pool worker tag of the current thread, if any.
pub fn current_worker() -> Option<usize> {
    CURRENT_WORKER.with(|w| w.get())
}

/// Default capacity of the injector's event ring. Big enough that
/// every existing chaos test sees all its events; small enough that a
/// soak run injecting millions of faults stays bounded.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Deterministic fault injector: consult [`FaultInjector::on_call`]
/// before performing a source operation.
///
/// The event log is a capped ring: once `capacity` events are held,
/// each new event evicts the oldest and bumps
/// [`FaultInjector::dropped_events`], so unbounded chaos runs don't
/// grow memory without limit.
#[derive(Debug)]
pub struct FaultInjector {
    rules: Vec<FaultRule>,
    rng: u64,
    log: std::collections::VecDeque<FaultEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector::new(FaultPlan::default())
    }
}

/// splitmix64 step — tiny, seedable, good enough for fault dice.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Build an injector from a plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            rules: plan.rules,
            rng: plan.seed ^ 0xA5A5_5A5A_0F0F_F0F0,
            log: std::collections::VecDeque::new(),
            capacity: DEFAULT_EVENT_CAPACITY,
            dropped: 0,
        }
    }

    /// Cap the event ring at `capacity` events (builder style). A
    /// capacity of 0 keeps no events at all — every injection counts
    /// as dropped.
    pub fn with_event_capacity(mut self, capacity: usize) -> FaultInjector {
        self.capacity = capacity;
        while self.log.len() > self.capacity {
            self.log.pop_front();
            self.dropped += 1;
        }
        self
    }

    fn push_event(&mut self, event: FaultEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.log.len() >= self.capacity {
            self.log.pop_front();
            self.dropped += 1;
        }
        self.log.push_back(event);
    }

    /// Decide the fate of one call against `source`/`op`.
    ///
    /// Scans rules in plan order; the first match with remaining
    /// budget (and a winning probability roll) fires and has its
    /// budget decremented. Returns `None` when the call should proceed
    /// unmolested.
    pub fn on_call(&mut self, source: &str, op: Op) -> Option<Injected> {
        for rule in self.rules.iter_mut() {
            if !rule.matches(source, op) {
                continue;
            }
            if rule.probability < 1.0 {
                let roll = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
                if roll >= rule.probability {
                    continue;
                }
            }
            rule.budget = rule.budget.saturating_sub(1);
            let injected = match rule.kind {
                FaultKind::Transient | FaultKind::FailNTimes(_) => Injected::Error(
                    AldspCode::SrcTransient
                        .error(format!("injected transient fault on {source}/{op}")),
                ),
                FaultKind::Permanent => Injected::Error(
                    AldspCode::SrcUnavailable
                        .error(format!("injected permanent fault on {source}/{op}")),
                ),
                FaultKind::Timeout => Injected::Error(
                    AldspCode::SrcTimeout.error(format!("injected timeout on {source}/{op}")),
                ),
                FaultKind::SlowResponse(ms) => Injected::Delay(ms),
                FaultKind::CrashPoint => Injected::Crash,
                FaultKind::Stall(ms) => Injected::Stall(ms),
            };
            self.push_event(FaultEvent {
                source: source.to_string(),
                op,
                injected: injected.clone(),
                worker: current_worker(),
            });
            return Some(injected);
        }
        None
    }

    /// Every *retained* fault injected so far, in order. When the ring
    /// has overflowed, the oldest events are gone — check
    /// [`FaultInjector::dropped_events`] before assuming completeness.
    pub fn events(&mut self) -> &[FaultEvent] {
        self.log.make_contiguous();
        self.log.as_slices().0
    }

    /// How many faults have been injected so far (retained + dropped).
    pub fn injected_count(&self) -> usize {
        self.log.len() + self.dropped as usize
    }

    /// How many events the ring has evicted (or refused, at capacity
    /// 0) since construction.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
#[allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]
mod fault_tests {
    use super::*;

    #[test]
    fn fail_n_times_exhausts_its_budget() {
        let plan = FaultPlan::new().rule(FaultRule::new(
            "DB1",
            Op::Prepare,
            FaultKind::FailNTimes(2),
        ));
        let mut inj = FaultInjector::new(plan);
        assert!(matches!(inj.on_call("DB1", Op::Prepare), Some(Injected::Error(_))));
        assert!(matches!(inj.on_call("DB1", Op::Prepare), Some(Injected::Error(_))));
        assert_eq!(inj.on_call("DB1", Op::Prepare), None);
        // Other sources/ops never matched.
        assert_eq!(inj.on_call("DB2", Op::Prepare), None);
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn wildcard_and_any_op_rules_match_broadly() {
        let plan = FaultPlan::new().rule(FaultRule::any_op("*", FaultKind::Permanent).times(3));
        let mut inj = FaultInjector::new(plan);
        for (s, op) in [("A", Op::Scan), ("B", Op::Call), ("C", Op::Submit)] {
            match inj.on_call(s, op) {
                Some(Injected::Error(e)) => {
                    assert_eq!(AldspCode::of(&e), Some(AldspCode::SrcUnavailable))
                }
                other => panic!("expected permanent fault, got {other:?}"),
            }
        }
        assert_eq!(inj.on_call("D", Op::Get), None);
    }

    #[test]
    fn slow_response_is_a_delay_not_an_error() {
        let plan =
            FaultPlan::new().rule(FaultRule::new("WS", Op::Call, FaultKind::SlowResponse(250)));
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_call("WS", Op::Call), Some(Injected::Delay(250)));
    }

    #[test]
    fn probabilistic_rules_are_deterministic_per_seed() {
        let mk = |seed| {
            let plan = FaultPlan::seeded(seed).rule(
                FaultRule::new("DB", Op::Scan, FaultKind::Transient).with_probability(0.5),
            );
            let mut inj = FaultInjector::new(plan);
            (0..32).map(|_| inj.on_call("DB", Op::Scan).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7), "same seed, same fault sequence");
        assert_ne!(mk(7), mk(8), "different seeds diverge");
        assert!(mk(7).iter().any(|&b| b) && mk(7).iter().any(|&b| !b));
    }

    #[test]
    fn crash_point_fires_once_and_injects_crash() {
        let plan = FaultPlan::new()
            .rule(FaultRule::new("coordinator", Op::XaDecide, FaultKind::CrashPoint));
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_call("coordinator", Op::XaDecide), Some(Injected::Crash));
        assert_eq!(
            inj.on_call("coordinator", Op::XaDecide),
            None,
            "a process crashes once; the default budget is 1"
        );
    }

    #[test]
    fn event_ring_caps_and_counts_drops() {
        let plan = FaultPlan::new().rule(FaultRule::new("DB", Op::Scan, FaultKind::Transient));
        let mut inj = FaultInjector::new(plan).with_event_capacity(3);
        for _ in 0..10 {
            inj.on_call("DB", Op::Scan);
        }
        assert_eq!(inj.events().len(), 3, "ring holds only the newest 3");
        assert_eq!(inj.dropped_events(), 7);
        assert_eq!(inj.injected_count(), 10, "count includes evicted events");
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let plan = FaultPlan::new().rule(FaultRule::new("DB", Op::Scan, FaultKind::Transient));
        let mut inj = FaultInjector::new(plan).with_event_capacity(0);
        inj.on_call("DB", Op::Scan);
        assert!(inj.events().is_empty());
        assert_eq!(inj.dropped_events(), 1);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn stall_is_a_stall_not_a_delay() {
        let plan = FaultPlan::new()
            .rule(FaultRule::new("coordinator", Op::XaDecide, FaultKind::Stall(500)).times(2));
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_call("coordinator", Op::XaDecide), Some(Injected::Stall(500)));
        assert_eq!(inj.on_call("coordinator", Op::XaDecide), Some(Injected::Stall(500)));
        assert_eq!(inj.on_call("coordinator", Op::XaDecide), None, "times(2) respected");
    }

    #[test]
    fn timeout_kind_carries_the_timeout_code() {
        let plan = FaultPlan::new()
            .rule(FaultRule::new("WS", Op::Call, FaultKind::Timeout).times(1));
        let mut inj = FaultInjector::new(plan);
        match inj.on_call("WS", Op::Call) {
            Some(Injected::Error(e)) => {
                assert_eq!(AldspCode::of(&e), Some(AldspCode::SrcTimeout))
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(inj.on_call("WS", Op::Call), None, "budget of 1 respected");
    }
}
