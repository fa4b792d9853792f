//! Dynamic and type errors for the XDM / XQuery / XQSE stack.
//!
//! Errors carry a `QName` error code in the style of the W3C
//! specifications (`err:XPTY0004`, `err:FORG0001`, …) plus a free-form
//! message and optional diagnostic items. `fn:error()` and the XQSE
//! `try`/`catch` statement (whose catch clauses match on the error code
//! QName) are built on this type.

use std::fmt;

use crate::qname::QName;

/// The W3C `err:` namespace in which standard error codes live.
pub const ERR_NS: &str = "http://www.w3.org/2005/xqt-errors";

/// Well-known error codes used across the stack.
///
/// Codes mirror the W3C XQuery 1.0 / XUF error catalogue where one
/// exists; XQSE- and ALDSP-specific conditions use the `XQSE*` and
/// `DSP*` families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Type error: value does not match required sequence type.
    XPTY0004,
    /// A sequence of more than one item where one was required.
    XPTY0005,
    /// Treat-as failure.
    XPDY0050,
    /// Undefined variable reference.
    XPST0008,
    /// Unknown function (or procedure) call.
    XPST0017,
    /// Static syntax error.
    XPST0003,
    /// Invalid value for cast/constructor.
    FORG0001,
    /// fn:zero-or-one called with more than one item.
    FORG0003,
    /// fn:one-or-more called with an empty sequence.
    FORG0004,
    /// fn:exactly-one called with zero or more than one item.
    FORG0005,
    /// Invalid argument type for a function.
    FORG0006,
    /// Division by zero.
    FOAR0001,
    /// Numeric overflow/underflow.
    FOAR0002,
    /// The error raised by a no-argument call of `fn:error()`.
    FOER0000,
    /// Invalid regular expression / tokenize pattern.
    FORX0002,
    /// A `fn:tokenize` or `fn:replace` pattern matches the zero-length
    /// string.
    FORX0003,
    /// Context item is absent.
    XPDY0002,
    /// Updating expression used where a non-updating one is required.
    XUST0001,
    /// Non-updating expression used where an updating one is required.
    XUST0002,
    /// Incompatible updates in one pending update list (e.g. two
    /// `replace value` on the same target).
    XUDY0017,
    /// Update target is not a proper node for the operation.
    XUTY0008,
    /// XQSE: assignment to an undeclared or non-block variable.
    XQSE0001,
    /// XQSE: use of an uninitialized block variable.
    XQSE0002,
    /// XQSE: `break`/`continue` outside a loop.
    XQSE0003,
    /// XQSE: calling a side-effecting procedure from an expression.
    XQSE0004,
    /// XQSE: return value does not match the declared type.
    XQSE0005,
    /// XQSE: binding-sequence variable mutated inside `iterate`.
    XQSE0006,
    /// ALDSP: optimistic-concurrency conflict detected at update time.
    DSP0001,
    /// ALDSP: update decomposition failed (ambiguous lineage).
    DSP0002,
    /// ALDSP: source-level constraint violation (PK/FK/not-null).
    DSP0003,
    /// ALDSP: transaction aborted (XA rollback).
    DSP0004,
    /// ALDSP: unknown data service or method.
    DSP0005,
}

impl ErrorCode {
    /// The local part of the error code QName.
    pub fn local(&self) -> &'static str {
        match self {
            ErrorCode::XPTY0004 => "XPTY0004",
            ErrorCode::XPTY0005 => "XPTY0005",
            ErrorCode::XPDY0050 => "XPDY0050",
            ErrorCode::XPST0008 => "XPST0008",
            ErrorCode::XPST0017 => "XPST0017",
            ErrorCode::XPST0003 => "XPST0003",
            ErrorCode::FORG0001 => "FORG0001",
            ErrorCode::FORG0003 => "FORG0003",
            ErrorCode::FORG0004 => "FORG0004",
            ErrorCode::FORG0005 => "FORG0005",
            ErrorCode::FORG0006 => "FORG0006",
            ErrorCode::FOAR0001 => "FOAR0001",
            ErrorCode::FOAR0002 => "FOAR0002",
            ErrorCode::FOER0000 => "FOER0000",
            ErrorCode::FORX0002 => "FORX0002",
            ErrorCode::FORX0003 => "FORX0003",
            ErrorCode::XPDY0002 => "XPDY0002",
            ErrorCode::XUST0001 => "XUST0001",
            ErrorCode::XUST0002 => "XUST0002",
            ErrorCode::XUDY0017 => "XUDY0017",
            ErrorCode::XUTY0008 => "XUTY0008",
            ErrorCode::XQSE0001 => "XQSE0001",
            ErrorCode::XQSE0002 => "XQSE0002",
            ErrorCode::XQSE0003 => "XQSE0003",
            ErrorCode::XQSE0004 => "XQSE0004",
            ErrorCode::XQSE0005 => "XQSE0005",
            ErrorCode::XQSE0006 => "XQSE0006",
            ErrorCode::DSP0001 => "DSP0001",
            ErrorCode::DSP0002 => "DSP0002",
            ErrorCode::DSP0003 => "DSP0003",
            ErrorCode::DSP0004 => "DSP0004",
            ErrorCode::DSP0005 => "DSP0005",
        }
    }

    /// The error code as a QName in the `err:` namespace.
    pub fn qname(&self) -> QName {
        QName::with_ns(ERR_NS, self.local())
    }
}

/// A dynamic error raised during parsing, evaluation, or statement
/// execution.
///
/// The `code` QName is what XQSE `catch (NameTest ...)` clauses match
/// against; `message` and `diagnostics` are surfaced through the catch
/// clause's `into` variables, mirroring `fn:error()`'s three arguments.
///
/// The error is one pointer to its [`ErrorData`], and its fields read
/// through `Deref`: every `XdmResult` the evaluator returns is then at
/// most one word larger than its value (`XdmResult<()>` is one word),
/// so `?` and the `budget_step()?` every evaluation step begins with
/// move a register, not a 72-byte error. Errors are rare; the box is
/// paid only when one is raised.
#[derive(Debug, Clone, PartialEq)]
pub struct XdmError(Box<ErrorData>);

/// What an [`XdmError`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorData {
    /// The error code QName (e.g. `err:XPTY0004` or a user QName).
    pub code: QName,
    /// Human-readable description.
    pub message: String,
    /// Optional diagnostic strings (the serialized `error-object`).
    pub diagnostics: Vec<String>,
}

// The sizes the one-pointer representation exists for.
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<XdmError>() == size_of::<usize>());
    assert!(size_of::<XdmResult<()>>() == size_of::<usize>());
    assert!(
        size_of::<XdmResult<crate::sequence::Sequence>>()
            <= size_of::<crate::sequence::Sequence>() + size_of::<usize>()
    );
};

impl std::ops::Deref for XdmError {
    type Target = ErrorData;

    fn deref(&self) -> &ErrorData {
        &self.0
    }
}

impl XdmError {
    /// Construct an error with a well-known code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        XdmError::with_code(code.qname(), message)
    }

    /// Construct an error with an arbitrary (user-defined) code QName,
    /// as raised by `fn:error(xs:QName(...), ...)`.
    pub fn with_code(code: QName, message: impl Into<String>) -> Self {
        XdmError(Box::new(ErrorData {
            code,
            message: message.into(),
            diagnostics: Vec::new(),
        }))
    }

    /// Attach diagnostic items.
    pub fn diagnostics(mut self, items: Vec<String>) -> Self {
        self.0.diagnostics = items;
        self
    }

    /// True if this error's code equals the given well-known code.
    /// Compares names; interns nothing.
    pub fn is(&self, code: ErrorCode) -> bool {
        self.code.matches(Some(ERR_NS), code.local())
    }
}

impl fmt::Display for XdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)?;
        if !self.diagnostics.is_empty() {
            write!(f, " ({})", self.diagnostics.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for XdmError {}

/// The ubiquitous result alias.
pub type XdmResult<T> = Result<T, XdmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_code_qname_is_in_err_namespace() {
        let q = ErrorCode::XPTY0004.qname();
        assert_eq!(q.ns.as_deref(), Some(ERR_NS));
        assert_eq!(q.local, "XPTY0004");
    }

    #[test]
    fn is_matches_only_same_code() {
        let e = XdmError::new(ErrorCode::FOAR0001, "div by zero");
        assert!(e.is(ErrorCode::FOAR0001));
        assert!(!e.is(ErrorCode::FOAR0002));
    }

    #[test]
    fn user_code_errors_carry_custom_qname() {
        let code = QName::new("PRIMARY_CREATE_FAILURE");
        let e = XdmError::with_code(code.clone(), "primary create failed");
        assert_eq!(e.code, code);
        assert!(!e.is(ErrorCode::FOER0000));
    }

    #[test]
    fn display_includes_code_and_diagnostics() {
        let e = XdmError::new(ErrorCode::FOER0000, "boom")
            .diagnostics(vec!["a".into(), "b".into()]);
        let s = e.to_string();
        assert!(s.contains("FOER0000"));
        assert!(s.contains("boom"));
        assert!(s.contains("a, b"));
    }
}
