//! ALDSP error-code taxonomy for source faults and resilience.
//!
//! The XQSE paper (§III.D) sells `try`/`catch` with NameTest matching
//! on error-code QNames as the way a data-service author discriminates
//! failure classes ("the error names to catch can be given as a
//! wildcard, a namespace-qualified wildcard, or an exact name").  The
//! seed substrate only ever raised `err:DSP000x` codes; this module
//! adds a dedicated `aldsp:` namespace of *infrastructure* failure
//! codes so scripts can tell a transient network blip from a permanent
//! outage from an OCC conflict and react differently (retry, route to
//! a fallback source, or compensate).
//!
//! A script binds the prefix once and then catches precisely:
//!
//! ```xquery
//! declare namespace aldsp = "urn:aldsp:errors";
//! try { dsDB2:createCUSTOMER($c) }
//! catch (aldsp:SRC_UNAVAILABLE into $err, $msg) { (: compensate :) }
//! ```
//!
//! See `docs/ERRORS.md` for the full catalogue and retry semantics.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use xdm::error::XdmError;
use xdm::qname::QName;

/// Namespace URI for ALDSP infrastructure error codes.
///
/// Distinct from the W3C `err:` namespace so catch clauses can use a
/// namespace-qualified wildcard (`aldsp:*`) to mean "any
/// infrastructure fault" without also swallowing type errors.
pub const ALDSP_ERR_NS: &str = "urn:aldsp:errors";

/// The infrastructure failure classes raised by fault-injected or
/// genuinely failing sources and by the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AldspCode {
    /// A transient source fault (network blip, deadlock victim, …).
    /// Retryable: the resilience layer retries these with backoff.
    SrcTransient,
    /// A call exceeded its timeout budget (injected `Timeout`, or a
    /// `SlowResponse` whose simulated latency overran the policy
    /// timeout). Retryable.
    SrcTimeout,
    /// The source is down: a permanent fault, or the circuit breaker
    /// for the source is open and calls fail fast. Not retryable.
    SrcUnavailable,
    /// The request itself was malformed (e.g. a web-service call
    /// missing required message parts). Never retried — retrying a bad
    /// request cannot help.
    SrcBadRequest,
    /// A distributed (2PC) transaction aborted and was rolled back.
    TxAborted,
    /// Optimistic-concurrency "sameness" check failed at update time.
    OccConflict,
    /// The 2PC coordinator crashed mid-protocol (injected
    /// `FaultKind::CrashPoint`). Sources may be left in genuinely
    /// partial states — some committed, some still holding prepared
    /// locks — until [`crate::service::DataSpace::recover`] replays
    /// the coordinator journal. Not retryable: retrying would start a
    /// *new* transaction, not resolve the interrupted one.
    XaCoordCrash,
    /// A branch is in doubt: prepared, but the coordinator journal has
    /// no commit decision for its transaction. Recovery resolves these
    /// by presumed abort. Not retryable.
    XaInDoubt,
    /// A coordinator journal record failed its checksum or could not
    /// be decoded. The damaged suffix is skipped; transactions whose
    /// decision lived there are treated as in doubt. Not retryable.
    XaJournalCorrupt,
    /// Replaying a journaled decision against a source failed in a way
    /// idempotent branch operations cannot absorb (e.g. prepared state
    /// vanished while writes were still pending). Not retryable.
    XaReplayFailed,
    /// The request's wall-clock deadline expired mid-evaluation. The
    /// work was cancelled cooperatively; any in-flight transaction was
    /// rolled back. Not retryable — the client already gave up.
    DeadlineExceeded,
    /// The request exhausted its evaluation-fuel allowance (a step
    /// budget catching runaway XQSE loops). Not retryable: the same
    /// program burns the same fuel.
    FuelExhausted,
    /// The request exceeded its XDM allocation ceiling while
    /// constructing results. Not retryable.
    MemoryLimit,
    /// A user function or procedure call would have left less than its
    /// reserve of the stack the serving thread started on
    /// (`xqeval::depth`): the program recursed too deep. Raised instead
    /// of overflowing the stack, which would abort the process. Not a
    /// budget outcome, and not retryable: the same program recurses as
    /// deep again.
    DepthLimit,
    /// The serving pool shed the request at admission: the queue was
    /// full, or queue wait had already consumed the deadline. The
    /// request was never dispatched — no work was started, nothing to
    /// roll back. Not retryable *by the resilience layer* (a client may
    /// retry after backoff, but the pool won't).
    Overloaded,
    /// The request was cancelled explicitly (client disconnect, admin
    /// kill). Cooperative, like a deadline. Not retryable.
    Cancelled,
}

impl AldspCode {
    /// The local part of the code QName.
    pub fn local(&self) -> &'static str {
        match self {
            AldspCode::SrcTransient => "SRC_TRANSIENT",
            AldspCode::SrcTimeout => "SRC_TIMEOUT",
            AldspCode::SrcUnavailable => "SRC_UNAVAILABLE",
            AldspCode::SrcBadRequest => "SRC_BAD_REQUEST",
            AldspCode::TxAborted => "TX_ABORTED",
            AldspCode::OccConflict => "OCC_CONFLICT",
            AldspCode::XaCoordCrash => "XA_COORD_CRASH",
            AldspCode::XaInDoubt => "XA_IN_DOUBT",
            AldspCode::XaJournalCorrupt => "XA_JOURNAL_CORRUPT",
            AldspCode::XaReplayFailed => "XA_REPLAY_FAILED",
            AldspCode::DeadlineExceeded => "DEADLINE_EXCEEDED",
            AldspCode::FuelExhausted => "FUEL_EXHAUSTED",
            AldspCode::MemoryLimit => "MEMORY_LIMIT",
            AldspCode::DepthLimit => "DEPTH_LIMIT",
            AldspCode::Overloaded => "OVERLOADED",
            AldspCode::Cancelled => "CANCELLED",
        }
    }

    /// The code as a QName in [`ALDSP_ERR_NS`].
    pub fn qname(&self) -> QName {
        QName::with_ns(ALDSP_ERR_NS, self.local())
    }

    /// Build an [`XdmError`] with this code.
    pub fn error(&self, message: impl Into<String>) -> XdmError {
        XdmError::with_code(self.qname(), message)
    }

    /// True when the resilience layer may retry a failure with this
    /// code (transients and timeouts; never bad requests, outages, or
    /// logical conflicts).
    pub fn retryable(&self) -> bool {
        matches!(self, AldspCode::SrcTransient | AldspCode::SrcTimeout)
    }

    /// Classify an arbitrary error: `Some(code)` if it carries one of
    /// the taxonomy QNames, else `None` (a logical/source-level error
    /// such as `err:DSP0003`).
    pub fn of(err: &XdmError) -> Option<AldspCode> {
        if err.code.ns.as_deref() != Some(ALDSP_ERR_NS) {
            return None;
        }
        match err.code.local.as_str() {
            "SRC_TRANSIENT" => Some(AldspCode::SrcTransient),
            "SRC_TIMEOUT" => Some(AldspCode::SrcTimeout),
            "SRC_UNAVAILABLE" => Some(AldspCode::SrcUnavailable),
            "SRC_BAD_REQUEST" => Some(AldspCode::SrcBadRequest),
            "TX_ABORTED" => Some(AldspCode::TxAborted),
            "OCC_CONFLICT" => Some(AldspCode::OccConflict),
            "XA_COORD_CRASH" => Some(AldspCode::XaCoordCrash),
            "XA_IN_DOUBT" => Some(AldspCode::XaInDoubt),
            "XA_JOURNAL_CORRUPT" => Some(AldspCode::XaJournalCorrupt),
            "XA_REPLAY_FAILED" => Some(AldspCode::XaReplayFailed),
            "DEADLINE_EXCEEDED" => Some(AldspCode::DeadlineExceeded),
            "FUEL_EXHAUSTED" => Some(AldspCode::FuelExhausted),
            "MEMORY_LIMIT" => Some(AldspCode::MemoryLimit),
            "DEPTH_LIMIT" => Some(AldspCode::DepthLimit),
            "OVERLOADED" => Some(AldspCode::Overloaded),
            "CANCELLED" => Some(AldspCode::Cancelled),
        _ => None,
        }
    }
}

/// True when `err` is an infrastructure fault the resilience layer is
/// allowed to retry.
pub fn is_retryable(err: &XdmError) -> bool {
    AldspCode::of(err).is_some_and(|c| c.retryable())
}

/// True when `err` carries *any* code in the ALDSP error namespace.
pub fn is_infrastructure(err: &XdmError) -> bool {
    err.code.ns.as_deref() == Some(ALDSP_ERR_NS)
}

#[cfg(test)]
mod taxonomy_tests {
    use super::*;
    use xdm::error::ErrorCode;

    #[test]
    fn qnames_live_in_the_aldsp_namespace() {
        for code in [
            AldspCode::SrcTransient,
            AldspCode::SrcTimeout,
            AldspCode::SrcUnavailable,
            AldspCode::SrcBadRequest,
            AldspCode::TxAborted,
            AldspCode::OccConflict,
            AldspCode::XaCoordCrash,
            AldspCode::XaInDoubt,
            AldspCode::XaJournalCorrupt,
            AldspCode::XaReplayFailed,
            AldspCode::DeadlineExceeded,
            AldspCode::FuelExhausted,
            AldspCode::MemoryLimit,
            AldspCode::DepthLimit,
            AldspCode::Overloaded,
            AldspCode::Cancelled,
        ] {
            let q = code.qname();
            assert_eq!(q.ns.as_deref(), Some(ALDSP_ERR_NS));
            assert_eq!(q.local, code.local());
            // Round trip through an XdmError.
            let e = code.error("x");
            assert_eq!(AldspCode::of(&e), Some(code));
        }
    }

    #[test]
    fn retryability_partition() {
        assert!(AldspCode::SrcTransient.retryable());
        assert!(AldspCode::SrcTimeout.retryable());
        assert!(!AldspCode::SrcUnavailable.retryable());
        assert!(!AldspCode::SrcBadRequest.retryable());
        assert!(!AldspCode::TxAborted.retryable());
        assert!(!AldspCode::OccConflict.retryable());
        assert!(!AldspCode::XaCoordCrash.retryable());
        assert!(!AldspCode::XaInDoubt.retryable());
        assert!(!AldspCode::XaJournalCorrupt.retryable());
        assert!(!AldspCode::XaReplayFailed.retryable());
        assert!(!AldspCode::DeadlineExceeded.retryable());
        assert!(!AldspCode::FuelExhausted.retryable());
        assert!(!AldspCode::MemoryLimit.retryable());
        assert!(!AldspCode::DepthLimit.retryable());
        assert!(!AldspCode::Overloaded.retryable());
        assert!(!AldspCode::Cancelled.retryable());
    }

    /// The evaluator-side budget module hardcodes the namespace (it
    /// cannot depend on this crate); the two constants must never
    /// drift apart, or budget errors would stop matching `aldsp:*`
    /// catch clauses.
    #[test]
    fn budget_errors_share_the_aldsp_namespace() {
        assert_eq!(xqeval::budget::ALDSP_ERR_NS, ALDSP_ERR_NS);
        for why in [
            xqeval::BudgetExceeded::Deadline,
            xqeval::BudgetExceeded::Fuel,
            xqeval::BudgetExceeded::Memory,
            xqeval::BudgetExceeded::Cancelled,
        ] {
            let e = why.error("x");
            assert!(
                AldspCode::of(&e).is_some(),
                "budget error {:?} must map into the taxonomy",
                why
            );
            assert!(!is_retryable(&e));
        }
        assert_eq!(xqeval::depth::DEPTH_LIMIT, AldspCode::DepthLimit.local());
    }

    #[test]
    fn w3c_codes_are_not_infrastructure() {
        let e = XdmError::new(ErrorCode::DSP0003, "pk violation");
        assert_eq!(AldspCode::of(&e), None);
        assert!(!is_infrastructure(&e));
        assert!(!is_retryable(&e));
    }
}
