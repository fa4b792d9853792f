//! Resilient source access: retry, timeout, circuit breaking, and
//! graceful degradation — all on a **virtual clock**.
//!
//! ALDSP's published architecture puts a mediation layer between data
//! services and their physical sources; this module reproduces the
//! reliability half of that layer.  Every source call is routed
//! through an [`Access`] handle that composes, in order:
//!
//! 1. **Circuit breaker** (per source): after
//!    [`Policy::breaker_threshold`] consecutive infrastructure
//!    failures the breaker opens and calls fail fast with
//!    `aldsp:SRC_UNAVAILABLE` — no hammering a dead source.  After
//!    [`Policy::breaker_cooldown_ms`] virtual milliseconds the breaker
//!    half-opens and probes; [`Policy::half_open_successes`]
//!    consecutive successes close it again.
//! 2. **Fault injection**: the [`FaultInjector`][crate::fault::FaultInjector]
//!    (if installed) gets first refusal on the call.
//! 3. **Timeout**: injected `SlowResponse` latency exceeding
//!    [`Policy::timeout_ms`] surfaces as `aldsp:SRC_TIMEOUT`.
//! 4. **Retry with exponential backoff**: retryable failures
//!    (`SRC_TRANSIENT`, `SRC_TIMEOUT`) are retried up to
//!    [`Policy::max_retries`] times, advancing the virtual clock by
//!    `base_backoff_ms << attempt` between attempts.  Logical errors
//!    (`err:DSP000x`, `SRC_BAD_REQUEST`) are **never** retried.
//! 5. **Graceful degradation** (reads only): when the call ultimately
//!    fails with `SRC_UNAVAILABLE`, a read may serve a marked-stale
//!    cached result instead of erroring (see [`Access::run_read`]).
//!
//! There are **no real sleeps anywhere**: time is a [`VirtualClock`]
//! (an atomic millisecond counter) so tests of backoff, timeouts and
//! breaker cooldowns are instant and fully deterministic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use xdm::error::XdmResult;

use crate::errors::{is_retryable, AldspCode};
use crate::fault::{FaultInjector, Injected, Op};

/// Diagnostic prefix stamped on breaker fast-fail errors (the source
/// name follows). [`Access::attempt`] uses it to keep a propagated
/// fast-fail from counting against a *wrapping* source's breaker.
const BREAKER_FAST_FAIL: &str = "breaker-fast-fail: ";

/// A shared, monotonically advancing millisecond counter.
///
/// All "waiting" in the resilience layer — backoff, slow responses,
/// breaker cooldowns — advances this counter instead of sleeping.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock starting at zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Advance the clock by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }

    /// View this clock as a [`BudgetClock`](xqeval::BudgetClock), so a
    /// request deadline can be expressed on the same timeline the
    /// resilience layer advances — backoff and injected latency then
    /// consume the deadline deterministically, with no real sleeps.
    pub fn budget_clock(&self) -> xqeval::BudgetClock {
        let inner = self.0.clone();
        Arc::new(move || inner.load(Ordering::SeqCst))
    }
}

/// Retry-loop guard: refuse to start a backoff wait the request's
/// remaining deadline cannot cover, and surface cancellation before
/// burning another attempt. With no thread-local budget installed
/// this is a no-op.
fn budget_allows_backoff(backoff_ms: u64) -> XdmResult<()> {
    if let Some(b) = xqeval::budget::current_budget() {
        b.check()?;
        if let Some(rem) = b.remaining_ms() {
            if backoff_ms >= rem {
                return Err(xqeval::BudgetExceeded::Deadline.error(format!(
                    "retry abandoned: {backoff_ms}ms backoff exceeds the \
                     {rem}ms left before the request deadline"
                )));
            }
        }
    }
    Ok(())
}

/// Tunable knobs for retry, timeout, and circuit breaking.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Maximum retries *after* the first attempt (so a call makes at
    /// most `max_retries + 1` attempts).
    pub max_retries: u32,
    /// First backoff in virtual ms; attempt `n` waits `base << n`.
    pub base_backoff_ms: u64,
    /// Per-call latency budget; injected delays beyond this raise
    /// `aldsp:SRC_TIMEOUT`.
    pub timeout_ms: u64,
    /// Consecutive infrastructure failures that open the breaker.
    pub breaker_threshold: u32,
    /// Virtual ms an open breaker waits before half-opening.
    pub breaker_cooldown_ms: u64,
    /// Consecutive half-open successes required to close.
    pub half_open_successes: u32,
}

impl Default for Policy {
    fn default() -> Policy {
        Policy {
            max_retries: 3,
            base_backoff_ms: 10,
            timeout_ms: 1_000,
            breaker_threshold: 5,
            breaker_cooldown_ms: 30_000,
            half_open_successes: 2,
        }
    }
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Failing fast; no calls reach the source until the cooldown
    /// elapses.
    Open,
    /// Probing: calls pass through, successes close the breaker, any
    /// failure re-opens it.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ms: u64,
    half_open_successes: u32,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_ms: 0,
            half_open_successes: 0,
        }
    }
}

/// One breaker state change, for reporting and assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The source whose breaker moved.
    pub source: String,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Virtual time of the transition.
    pub at_ms: u64,
}

impl fmt::Display for BreakerTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={}ms] breaker({}) {} -> {}", self.at_ms, self.source, self.from, self.to)
    }
}

/// Counters the resilience layer keeps about its own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Retries performed (attempts beyond each call's first).
    pub retries: u64,
    /// Calls that failed on `aldsp:SRC_TIMEOUT`.
    pub timeouts: u64,
    /// Reads served from the stale cache while a source was down.
    pub stale_reads: u64,
    /// Calls rejected fast because a breaker was open.
    pub fast_failures: u64,
    /// Entries evicted from a source's bounded response cache (the
    /// stale-read fallback store) to make room for newer responses.
    pub cache_evictions: u64,
}

/// Per-source resilience state: policy + breakers + counters.
#[derive(Debug)]
pub struct Resilience {
    policy: Policy,
    clock: VirtualClock,
    breakers: HashMap<String, Breaker>,
    transitions: Vec<BreakerTransition>,
    stats: ResilienceStats,
}

impl Resilience {
    /// Build with the given policy and a fresh virtual clock.
    pub fn new(policy: Policy) -> Resilience {
        Resilience::with_clock(policy, VirtualClock::new())
    }

    /// Build with an externally shared clock.
    pub fn with_clock(policy: Policy, clock: VirtualClock) -> Resilience {
        Resilience {
            policy,
            clock,
            breakers: HashMap::new(),
            transitions: Vec::new(),
            stats: ResilienceStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The clock this layer advances.
    pub fn clock(&self) -> VirtualClock {
        self.clock.clone()
    }

    /// Current breaker state for a source (Closed if never touched).
    pub fn breaker_state(&self, source: &str) -> BreakerState {
        self.breakers.get(source).map_or(BreakerState::Closed, |b| b.state)
    }

    /// Every breaker transition so far, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Activity counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Record that a source evicted an entry from its bounded
    /// response cache (called by sources, not by this layer — the
    /// cache lives with the source, the counter lives here so one
    /// stats snapshot covers the whole degradation story).
    pub fn note_cache_eviction(&mut self) {
        self.stats.cache_evictions += 1;
    }

    fn transition(&mut self, source: &str, to: BreakerState) {
        let at_ms = self.clock.now_ms();
        let b = self.breakers.entry(source.to_string()).or_default();
        if b.state == to {
            return;
        }
        let from = b.state;
        b.state = to;
        match to {
            BreakerState::Open => {
                b.opened_at_ms = at_ms;
                b.half_open_successes = 0;
            }
            BreakerState::HalfOpen => b.half_open_successes = 0,
            BreakerState::Closed => b.consecutive_failures = 0,
        }
        self.transitions.push(BreakerTransition { source: source.to_string(), from, to, at_ms });
    }

    /// Gate a call: `Err` means fail fast (breaker open), `Ok` means
    /// the call may proceed (possibly as a half-open probe).
    fn admit(&mut self, source: &str) -> XdmResult<()> {
        let now = self.clock.now_ms();
        let (state, opened_at) = {
            let b = self.breakers.entry(source.to_string()).or_default();
            (b.state, b.opened_at_ms)
        };
        match state {
            BreakerState::Open if now >= opened_at + self.policy.breaker_cooldown_ms => {
                self.transition(source, BreakerState::HalfOpen);
                Ok(())
            }
            BreakerState::Open => {
                self.stats.fast_failures += 1;
                // The diagnostic marks this as a breaker-generated
                // fast-fail (see BREAKER_FAST_FAIL): when the error
                // propagates out through a *wrapping* source call, the
                // outer breaker must not count it — an open breaker on
                // a dependency says nothing about the wrapper's own
                // health, and counting it cascades one trip into
                // fail-fast storms across every layered source.
                Err(AldspCode::SrcUnavailable
                    .error(format!(
                        "circuit breaker open for source '{source}' \
                         (cooling down until t={}ms)",
                        opened_at + self.policy.breaker_cooldown_ms
                    ))
                    .diagnostics(vec![format!("{BREAKER_FAST_FAIL}{source}")]))
            }
            _ => Ok(()),
        }
    }

    /// Record a successful call against a source's breaker.
    fn on_success(&mut self, source: &str) {
        let (state, enough) = {
            let b = self.breakers.entry(source.to_string()).or_default();
            b.consecutive_failures = 0;
            if b.state == BreakerState::HalfOpen {
                b.half_open_successes += 1;
            }
            (b.state, b.half_open_successes >= self.policy.half_open_successes)
        };
        if state == BreakerState::HalfOpen && enough {
            self.transition(source, BreakerState::Closed);
        }
    }

    /// Record an infrastructure failure against a source's breaker.
    fn on_failure(&mut self, source: &str) {
        let (state, tripped) = {
            let b = self.breakers.entry(source.to_string()).or_default();
            b.consecutive_failures += 1;
            (b.state, b.consecutive_failures >= self.policy.breaker_threshold)
        };
        match state {
            BreakerState::HalfOpen => self.transition(source, BreakerState::Open),
            BreakerState::Closed if tripped => self.transition(source, BreakerState::Open),
            _ => {}
        }
    }
}

/// Shared handles threaded into every source: an optional fault
/// injector and an optional resilience policy.
///
/// With neither installed, [`Access::run`] is a direct call — the
/// no-fault hot path adds only an `Option` check.
#[derive(Debug, Clone, Default)]
pub struct Access {
    /// Fault injector consulted before each source call.
    pub injector: Option<Arc<Mutex<FaultInjector>>>,
    /// Retry/timeout/breaker layer wrapped around each source call.
    pub resilience: Option<Arc<Mutex<Resilience>>>,
}

impl Access {
    /// An `Access` with neither faults nor resilience (pass-through).
    pub fn none() -> Access {
        Access::default()
    }

    /// True when neither layer is installed.
    pub fn is_passthrough(&self) -> bool {
        self.injector.is_none() && self.resilience.is_none()
    }

    /// One *attempt*: breaker admission, fault injection, timeout
    /// accounting, then the real call. Success/failure is recorded on
    /// the breaker.
    fn attempt<T>(
        &self,
        source: &str,
        op: Op,
        batch: Option<usize>,
        call: &mut dyn FnMut() -> XdmResult<T>,
    ) -> XdmResult<T> {
        // A request whose budget is already spent (deadline passed,
        // cancelled) never touches a source: fail before admission so
        // the breaker sees nothing.
        if let Some(b) = xqeval::budget::current_budget() {
            b.check()?;
        }
        if let Some(res) = &self.resilience {
            res.lock().admit(source)?;
        }
        let injected = self.injector.as_ref().and_then(|i| match batch {
            Some(n) => i.lock().on_batch(source, op, n),
            None => i.lock().on_call(source, op),
        });
        let outcome = match injected {
            Some(Injected::Error(e)) => Err(e),
            // A crash verdict reaching an ordinary source call (a rule
            // targeting e.g. Op::Scan instead of a coordinator
            // protocol point) degrades to a hard, non-retryable error:
            // only the 2PC driver's own crash checks unwind without
            // cleanup.
            Some(Injected::Crash) => Err(AldspCode::XaCoordCrash
                .error(format!("injected coordinator crash on {source}/{op}"))),
            Some(Injected::Delay(ms)) => {
                if let Some(res) = &self.resilience {
                    // The effective timeout is the *lesser* of the
                    // policy's and the request's remaining deadline:
                    // there is no point waiting 1000ms for a source
                    // when the client hangs up in 200ms. Remaining
                    // time is read before the latency is charged —
                    // the clamp models the timeout armed at call
                    // start.
                    let budget_remaining = xqeval::budget::current_budget()
                        .and_then(|b| b.remaining_ms());
                    let mut r = res.lock();
                    let effective = match budget_remaining {
                        Some(rem) => r.policy.timeout_ms.min(rem),
                        None => r.policy.timeout_ms,
                    };
                    r.clock.advance(ms);
                    if ms > effective {
                        r.stats.timeouts += 1;
                        let clamped = if effective < r.policy.timeout_ms {
                            " (clamped to the request's remaining deadline)"
                        } else {
                            ""
                        };
                        Err(AldspCode::SrcTimeout.error(format!(
                            "call to '{source}' ({op}) took {ms}ms, \
                             over the {effective}ms budget{clamped}"
                        )))
                    } else {
                        drop(r);
                        call()
                    }
                } else {
                    call()
                }
            }
            Some(Injected::Stall(ms)) => {
                // A stall burns virtual time — and therefore the
                // request's deadline — without tripping the policy
                // timeout. The post-stall budget check is where an
                // expired deadline surfaces.
                if let Some(res) = &self.resilience {
                    res.lock().clock.advance(ms);
                }
                if let Some(b) = xqeval::budget::current_budget() {
                    b.check()?;
                }
                call()
            }
            None => call(),
        };
        if let Some(res) = &self.resilience {
            let mut r = res.lock();
            match &outcome {
                Ok(_) => r.on_success(source),
                // Only infrastructure faults count against the
                // breaker; logical errors (constraint violations, OCC
                // conflicts, bad requests) say nothing about source
                // health. A fast-fail generated by some *other*
                // source's open breaker (nested call, e.g. a service
                // read wrapping a web-service call) is neutral: it
                // carries no information about this source, and
                // counting it would cascade one open breaker into a
                // pool-wide fail-fast storm.
                Err(e) if e.diagnostics.iter().any(|d| d.starts_with(BREAKER_FAST_FAIL)) => {}
                Err(e) => match AldspCode::of(e) {
                    Some(AldspCode::SrcTransient)
                    | Some(AldspCode::SrcTimeout)
                    | Some(AldspCode::SrcUnavailable) => r.on_failure(source),
                    _ => r.on_success(source),
                },
            }
        }
        outcome
    }

    /// Run a source call under fault injection + resilience.
    ///
    /// Retryable failures (`SRC_TRANSIENT`/`SRC_TIMEOUT`) are retried
    /// with exponential virtual-clock backoff up to the policy's
    /// `max_retries`; everything else propagates immediately.
    pub fn run<T>(
        &self,
        source: &str,
        op: Op,
        mut call: impl FnMut() -> XdmResult<T>,
    ) -> XdmResult<T> {
        // Fast path: nothing installed, no bookkeeping.
        if self.is_passthrough() {
            return call();
        }
        let max_retries = self
            .resilience
            .as_ref()
            .map_or(0, |r| r.lock().policy.max_retries);
        let mut attempt_no = 0u32;
        loop {
            match self.attempt(source, op, None, &mut call) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let can_retry = attempt_no < max_retries && is_retryable(&e);
                    if !can_retry {
                        return Err(e);
                    }
                    if let Some(res) = &self.resilience {
                        let mut r = res.lock();
                        let backoff = r.policy.base_backoff_ms << attempt_no;
                        budget_allows_backoff(backoff)?;
                        r.clock.advance(backoff);
                        r.stats.retries += 1;
                    }
                    attempt_no += 1;
                }
            }
        }
    }

    /// Run a *read* with graceful degradation: if the call ultimately
    /// fails with `aldsp:SRC_UNAVAILABLE` (source down or breaker
    /// open) and `stale` yields a cached value, serve that value
    /// instead of failing. The result is "marked stale" by counting it
    /// in [`ResilienceStats::stale_reads`]; writers never degrade.
    pub fn run_read<T>(
        &self,
        source: &str,
        op: Op,
        call: impl FnMut() -> XdmResult<T>,
        stale: impl FnOnce() -> Option<T>,
    ) -> XdmResult<T> {
        match self.run(source, op, call) {
            Ok(v) => Ok(v),
            Err(e) if AldspCode::of(&e) == Some(AldspCode::SrcUnavailable) => {
                if let (Some(res), Some(v)) = (&self.resilience, stale()) {
                    res.lock().stats.stale_reads += 1;
                    Ok(v)
                } else {
                    Err(e)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Run a coalesced *batch* of reads as **one** resilience
    /// transaction: one breaker admission, one injector consult, and
    /// one timeout/backoff budget cover the whole flight instead of
    /// `n` separate ones — this is what makes batched source access
    /// cheaper than `n` calls to [`Access::run_read`].
    ///
    /// `call(i)` performs the `i`-th request of the batch;
    /// infrastructure failures retry the *entire* batch, while
    /// logical errors from an individual item (a malformed request,
    /// say) propagate immediately — the same error the sequential
    /// path would have surfaced first. When the batch ultimately
    /// fails with `aldsp:SRC_UNAVAILABLE`, each item independently
    /// degrades to its stale cached value via `stale(i)` (counted
    /// per item in [`ResilienceStats::stale_reads`]); if any item
    /// has no cached value, the whole batch fails. Items that
    /// succeeded on an earlier attempt of a partially-failed batch
    /// will have populated the source's cache, so their fresh values
    /// are served as "stale" alongside older entries.
    pub fn run_read_batch<T>(
        &self,
        source: &str,
        op: Op,
        n: usize,
        mut call: impl FnMut(usize) -> XdmResult<T>,
        stale: impl Fn(usize) -> Option<T>,
    ) -> XdmResult<Vec<T>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        if self.is_passthrough() {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(call(i)?);
            }
            return Ok(out);
        }
        let max_retries = self
            .resilience
            .as_ref()
            .map_or(0, |r| r.lock().policy.max_retries);
        let mut run_all = || {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(call(i)?);
            }
            Ok(out)
        };
        let mut attempt_no = 0u32;
        loop {
            match self.attempt(source, op, Some(n), &mut run_all) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt_no < max_retries && is_retryable(&e) {
                        if let Some(res) = &self.resilience {
                            let mut r = res.lock();
                            let backoff = r.policy.base_backoff_ms << attempt_no;
                            budget_allows_backoff(backoff)?;
                            r.clock.advance(backoff);
                            r.stats.retries += 1;
                        }
                        attempt_no += 1;
                        continue;
                    }
                    // Final failure: per-item stale degradation.
                    if AldspCode::of(&e) == Some(AldspCode::SrcUnavailable) {
                        if let Some(res) = &self.resilience {
                            let mut out = Vec::with_capacity(n);
                            for i in 0..n {
                                match stale(i) {
                                    Some(v) => out.push(v),
                                    None => return Err(e),
                                }
                            }
                            res.lock().stats.stale_reads += out.len() as u64;
                            return Ok(out);
                        }
                    }
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]
mod resilience_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultRule};

    fn access(plan: FaultPlan, policy: Policy) -> Access {
        Access {
            injector: Some(Arc::new(Mutex::new(FaultInjector::new(plan)))),
            resilience: Some(Arc::new(Mutex::new(Resilience::new(policy)))),
        }
    }

    #[test]
    fn transient_faults_below_retry_budget_are_invisible() {
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("DB", Op::Scan, FaultKind::FailNTimes(2))),
            Policy { max_retries: 3, ..Policy::default() },
        );
        let mut real_calls = 0;
        let out = acc.run("DB", Op::Scan, || {
            real_calls += 1;
            Ok(42)
        });
        assert_eq!(out, Ok(42));
        assert_eq!(real_calls, 1, "only the final attempt reached the source");
        let res = acc.resilience.as_ref().unwrap().lock();
        assert_eq!(res.stats().retries, 2);
        // Backoff advanced the virtual clock: 10 + 20.
        assert_eq!(res.clock().now_ms(), 30);
    }

    #[test]
    fn permanent_faults_propagate_without_retry() {
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("DB", Op::Scan, FaultKind::Permanent)),
            Policy::default(),
        );
        let err = acc.run("DB", Op::Scan, || Ok(0)).unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable));
        assert_eq!(acc.resilience.as_ref().unwrap().lock().stats().retries, 0);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_transient() {
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("DB", Op::Scan, FaultKind::Transient)),
            Policy { max_retries: 2, ..Policy::default() },
        );
        let err = acc.run("DB", Op::Scan, || Ok(0)).unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcTransient));
        assert_eq!(acc.resilience.as_ref().unwrap().lock().stats().retries, 2);
    }

    #[test]
    fn slow_response_over_budget_times_out_then_retries() {
        let acc = access(
            FaultPlan::new()
                .rule(FaultRule::new("WS", Op::Call, FaultKind::SlowResponse(5_000)).times(1)),
            Policy { timeout_ms: 1_000, ..Policy::default() },
        );
        let out = acc.run("WS", Op::Call, || Ok("pong"));
        assert_eq!(out, Ok("pong"), "timeout is retryable; second attempt is fast");
        let res = acc.resilience.as_ref().unwrap().lock();
        assert_eq!(res.stats().timeouts, 1);
        assert_eq!(res.stats().retries, 1);
    }

    #[test]
    fn slow_response_within_budget_just_adds_latency() {
        let acc = access(
            FaultPlan::new()
                .rule(FaultRule::new("WS", Op::Call, FaultKind::SlowResponse(300)).times(1)),
            Policy { timeout_ms: 1_000, ..Policy::default() },
        );
        assert_eq!(acc.run("WS", Op::Call, || Ok(1)), Ok(1));
        let res = acc.resilience.as_ref().unwrap().lock();
        assert_eq!(res.stats().timeouts, 0);
        assert_eq!(res.clock().now_ms(), 300);
    }

    #[test]
    fn breaker_opens_fails_fast_half_opens_and_closes() {
        let policy = Policy {
            max_retries: 0,
            breaker_threshold: 3,
            breaker_cooldown_ms: 1_000,
            half_open_successes: 2,
            ..Policy::default()
        };
        let acc = access(
            FaultPlan::new()
                .rule(FaultRule::new("DB", Op::Scan, FaultKind::Permanent).times(3)),
            policy,
        );
        // Three permanent failures trip the breaker.
        for _ in 0..3 {
            assert!(acc.run("DB", Op::Scan, || Ok(0)).is_err());
        }
        let res = acc.resilience.as_ref().unwrap();
        assert_eq!(res.lock().breaker_state("DB"), BreakerState::Open);

        // While open: fail fast, the source is never called.
        let mut reached = false;
        let err = acc
            .run("DB", Op::Scan, || {
                reached = true;
                Ok(0)
            })
            .unwrap_err();
        assert!(!reached, "open breaker must not call the source");
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable));
        assert_eq!(res.lock().stats().fast_failures, 1);

        // After the cooldown the breaker half-opens and probes.
        res.lock().clock().advance(1_000);
        assert_eq!(acc.run("DB", Op::Scan, || Ok(7)), Ok(7));
        assert_eq!(res.lock().breaker_state("DB"), BreakerState::HalfOpen);
        assert_eq!(acc.run("DB", Op::Scan, || Ok(8)), Ok(8));
        assert_eq!(res.lock().breaker_state("DB"), BreakerState::Closed);

        let states: Vec<(BreakerState, BreakerState)> =
            res.lock().transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            states,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn half_open_failure_reopens() {
        let policy = Policy {
            max_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown_ms: 100,
            ..Policy::default()
        };
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("DB", Op::Scan, FaultKind::Permanent)),
            policy,
        );
        assert!(acc.run("DB", Op::Scan, || Ok(0)).is_err());
        let res = acc.resilience.as_ref().unwrap();
        assert_eq!(res.lock().breaker_state("DB"), BreakerState::Open);
        res.lock().clock().advance(100);
        assert!(acc.run("DB", Op::Scan, || Ok(0)).is_err(), "probe also fails");
        assert_eq!(res.lock().breaker_state("DB"), BreakerState::Open, "re-opened");
    }

    #[test]
    fn reads_degrade_to_stale_cache_when_source_down() {
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("DB", Op::Scan, FaultKind::Permanent)),
            Policy::default(),
        );
        let out = acc.run_read("DB", Op::Scan, || Ok(vec![0]), || Some(vec![1, 2, 3]));
        assert_eq!(out, Ok(vec![1, 2, 3]));
        assert_eq!(acc.resilience.as_ref().unwrap().lock().stats().stale_reads, 1);

        // Without a cached value the error propagates.
        let err = acc.run_read("DB", Op::Scan, || Ok(vec![0]), || None).unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable));
    }

    #[test]
    fn logical_errors_bypass_retry_and_breaker() {
        let acc = access(
            FaultPlan::new(),
            Policy { breaker_threshold: 1, ..Policy::default() },
        );
        let mut calls = 0;
        let err = acc
            .run("DB", Op::Execute, || {
                calls += 1;
                Err::<(), _>(xdm::error::XdmError::new(
                    xdm::error::ErrorCode::DSP0003,
                    "pk violation",
                ))
            })
            .unwrap_err();
        assert!(err.is(xdm::error::ErrorCode::DSP0003));
        assert_eq!(calls, 1, "logical errors are not retried");
        let res = acc.resilience.as_ref().unwrap().lock();
        assert_eq!(res.breaker_state("DB"), BreakerState::Closed, "breaker untouched");
    }

    #[test]
    fn passthrough_access_is_direct() {
        let acc = Access::none();
        assert!(acc.is_passthrough());
        assert_eq!(acc.run("X", Op::Get, || Ok(5)), Ok(5));
    }

    #[test]
    fn batch_pays_one_fault_consult_for_the_whole_flight() {
        // A FailNTimes(1) blip fails the first *batch attempt*, not
        // the first item — the retry re-runs all three items and the
        // injector's budget is spent once for the whole flight.
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("WS", Op::Call, FaultKind::FailNTimes(1))),
            Policy::default(),
        );
        let mut item_calls = 0;
        let out = acc.run_read_batch(
            "WS",
            Op::Call,
            3,
            |i| {
                item_calls += 1;
                Ok(i * 10)
            },
            |_| None,
        );
        assert_eq!(out, Ok(vec![0, 10, 20]));
        assert_eq!(item_calls, 3, "items ran only on the successful attempt");
        let res = acc.resilience.as_ref().unwrap().lock();
        assert_eq!(res.stats().retries, 1, "one retry covered all 3 items");
        let mut inj = acc.injector.as_ref().unwrap().lock();
        assert_eq!(inj.events()[0].batch_size, Some(3));
    }

    #[test]
    fn batch_degrades_per_item_to_stale_values() {
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("WS", Op::Call, FaultKind::Permanent)),
            Policy::default(),
        );
        let out = acc.run_read_batch("WS", Op::Call, 3, |_| Ok(0), |i| Some(100 + i));
        assert_eq!(out, Ok(vec![100, 101, 102]));
        let res = acc.resilience.as_ref().unwrap().lock();
        assert_eq!(res.stats().stale_reads, 3, "counted per item served");
    }

    #[test]
    fn batch_fails_whole_when_any_item_lacks_a_stale_value() {
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("WS", Op::Call, FaultKind::Permanent)),
            Policy::default(),
        );
        let err = acc
            .run_read_batch("WS", Op::Call, 2, |_| Ok(0), |i| (i == 0).then_some(9))
            .unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcUnavailable));
        assert_eq!(acc.resilience.as_ref().unwrap().lock().stats().stale_reads, 0);
    }

    #[test]
    fn batch_propagates_logical_item_errors_without_breaker_penalty() {
        let acc = access(FaultPlan::new(), Policy { breaker_threshold: 1, ..Policy::default() });
        let err = acc
            .run_read_batch(
                "WS",
                Op::Call,
                2,
                |i| {
                    if i == 1 {
                        Err(AldspCode::SrcBadRequest.error("malformed request"))
                    } else {
                        Ok(0)
                    }
                },
                |_| None,
            )
            .unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcBadRequest));
        let res = acc.resilience.as_ref().unwrap().lock();
        assert_eq!(res.breaker_state("WS"), BreakerState::Closed, "breaker untouched");
        assert_eq!(res.stats().retries, 0, "logical errors are not retried");
    }

    #[test]
    fn empty_batch_is_free() {
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("WS", Op::Call, FaultKind::Permanent)),
            Policy::default(),
        );
        let out = acc.run_read_batch("WS", Op::Call, 0, |_| Ok(0), |_| None);
        assert_eq!(out, Ok(vec![]));
        assert_eq!(acc.injector.as_ref().unwrap().lock().injected_count(), 0);
    }

    fn install_deadline(acc: &Access, ms: u64) -> Arc<xqeval::Budget> {
        let clock = acc.resilience.as_ref().unwrap().lock().clock();
        let budget =
            Arc::new(xqeval::Budget::with_clock(clock.budget_clock()).deadline_in(ms));
        xqeval::budget::set_current_budget(Some(budget.clone()));
        budget
    }

    #[test]
    fn delay_timeout_clamps_to_the_remaining_deadline() {
        let acc = access(
            FaultPlan::new()
                .rule(FaultRule::new("WS", Op::Call, FaultKind::SlowResponse(500)).times(1)),
            Policy { timeout_ms: 1_000, max_retries: 0, ..Policy::default() },
        );
        // 500ms of injected latency is inside the 1000ms policy
        // timeout, but the request only has 200ms of deadline left —
        // the effective timeout clamps down and the call times out.
        install_deadline(&acc, 200);
        let err = acc.run("WS", Op::Call, || Ok(0)).unwrap_err();
        xqeval::budget::set_current_budget(None);
        assert_eq!(AldspCode::of(&err), Some(AldspCode::SrcTimeout));
        assert!(err.message.contains("clamped"), "message explains the clamp: {err}");
    }

    #[test]
    fn budget_deadline_stops_the_retry_loop_early() {
        let acc = access(
            FaultPlan::new().rule(FaultRule::new("DB", Op::Scan, FaultKind::Transient)),
            Policy { max_retries: 5, base_backoff_ms: 100, ..Policy::default() },
        );
        // First backoff (100ms) fits the 150ms deadline; the second
        // (200ms) does not — the loop gives up with the budget error
        // instead of sleeping past the client's hang-up.
        install_deadline(&acc, 150);
        let err = acc.run("DB", Op::Scan, || Ok(0)).unwrap_err();
        xqeval::budget::set_current_budget(None);
        assert_eq!(AldspCode::of(&err), Some(AldspCode::DeadlineExceeded));
        assert_eq!(acc.resilience.as_ref().unwrap().lock().stats().retries, 1);
    }

    #[test]
    fn stall_burns_the_clock_without_a_timeout() {
        let acc = access(
            FaultPlan::new()
                .rule(FaultRule::new("DB", Op::Scan, FaultKind::Stall(5_000)).times(1)),
            Policy { timeout_ms: 1_000, ..Policy::default() },
        );
        // Without a budget a stall is invisible — even one far past
        // the policy timeout (contrast SlowResponse).
        assert_eq!(acc.run("DB", Op::Scan, || Ok(1)), Ok(1));
        let res = acc.resilience.as_ref().unwrap().lock();
        assert_eq!(res.stats().timeouts, 0);
        assert_eq!(res.clock().now_ms(), 5_000);
    }

    #[test]
    fn stall_past_the_deadline_surfaces_deadline_exceeded() {
        let acc = access(
            FaultPlan::new()
                .rule(FaultRule::new("DB", Op::Scan, FaultKind::Stall(300)).times(1)),
            Policy::default(),
        );
        install_deadline(&acc, 200);
        let mut reached = false;
        let err = acc
            .run("DB", Op::Scan, || {
                reached = true;
                Ok(0)
            })
            .unwrap_err();
        xqeval::budget::set_current_budget(None);
        assert!(!reached, "the stalled call is abandoned at the deadline");
        assert_eq!(AldspCode::of(&err), Some(AldspCode::DeadlineExceeded));
        assert_eq!(
            acc.resilience.as_ref().unwrap().lock().stats().timeouts,
            0,
            "a stall is not a timeout"
        );
    }

    #[test]
    fn cancelled_request_never_reaches_the_source() {
        let acc = access(FaultPlan::new(), Policy::default());
        let budget = Arc::new(xqeval::Budget::unlimited());
        budget.cancel();
        xqeval::budget::set_current_budget(Some(budget));
        let mut reached = false;
        let err = acc
            .run("DB", Op::Scan, || {
                reached = true;
                Ok(0)
            })
            .unwrap_err();
        xqeval::budget::set_current_budget(None);
        assert!(!reached, "cancelled requests must not touch sources");
        assert_eq!(AldspCode::of(&err), Some(AldspCode::Cancelled));
    }

    #[test]
    fn cache_evictions_are_counted() {
        let res = Arc::new(Mutex::new(Resilience::new(Policy::default())));
        res.lock().note_cache_eviction();
        res.lock().note_cache_eviction();
        assert_eq!(res.lock().stats().cache_evictions, 2);
    }
}
