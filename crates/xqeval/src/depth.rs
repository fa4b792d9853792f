//! Call depth on the threads the program starts.
//!
//! A user function or procedure calling itself recurses on the thread's
//! stack, and overflowing a thread's stack aborts the whole process. The
//! program's own evaluation threads (the serving pool's workers and
//! `xqsh`'s evaluation thread) start on a stated stack and record where
//! it begins ([`enter_stated_stack`]). On such a thread every user
//! function and procedure call first measures the stack used since the
//! thread began, comparing the address of a local with the one recorded
//! at thread start, and raises `aldsp:DEPTH_LIMIT` instead of making a
//! call that would leave less than [`CALL_RESERVE_BYTES`] of the stack.
//!
//! The bound is on bytes, not on a count of calls: a call's frames
//! differ 2–3× between body shapes and about 5× between debug and
//! release builds, so any fixed count would either still overflow a
//! debug build or refuse depths a release build serves. The reserve
//! covers one function body nested as deep as the parser accepts
//! (`xqparser::parser::MAX_NESTING`) below the last checked call.
//!
//! A thread the program does not start (a caller's own thread, a test
//! harness thread) records nothing, and its calls are not checked.

use std::cell::Cell;

use xdm::error::{XdmError, XdmResult};
use xdm::qname::QName;

use crate::budget::ALDSP_ERR_NS;

/// The stack a call must leave free on a thread started on a stated
/// stack: one function body at the parser's nesting limit, with room to
/// spare. Measured at 256 levels, the deepest body shape (nested
/// computed constructors) takes about 0.35 MiB in a release build and
/// about 3.2 MiB in a debug build; nested calls, direct constructors,
/// FLWORs and `if`s take less.
pub const CALL_RESERVE_BYTES: usize = if cfg!(debug_assertions) { 8 << 20 } else { 2 << 20 };

/// The local part of the error raised when the reserve would be broken.
pub const DEPTH_LIMIT: &str = "DEPTH_LIMIT";

thread_local! {
    /// The stack address recorded at thread start and the bytes below
    /// it that calls may use; `(0, 0)` on a thread the program did not
    /// start.
    static STACK: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// The address of a local of the caller's frame.
#[inline(always)]
fn stack_address() -> usize {
    let probe = 0u8;
    std::hint::black_box(&probe) as *const u8 as usize
}

/// Record that the calling thread was started with a stack of
/// `stack_bytes`. Call it first thing in the thread's entry function:
/// the stack the entry's caller used is not counted.
pub fn enter_stated_stack(stack_bytes: usize) {
    let usable = stack_bytes.saturating_sub(CALL_RESERVE_BYTES);
    STACK.with(|s| s.set((stack_address(), usable)));
}

/// `Ok` unless the calling thread started on a stated stack and a call
/// made here would leave less than [`CALL_RESERVE_BYTES`] of it; then
/// `aldsp:DEPTH_LIMIT`, which XQSE can catch.
#[inline]
pub fn check_call_depth() -> XdmResult<()> {
    let (base, usable) = STACK.with(Cell::get);
    if base == 0 {
        return Ok(());
    }
    // Stacks grow down on every platform the program builds for.
    let used = base.saturating_sub(stack_address());
    if used <= usable {
        return Ok(());
    }
    Err(depth_error(used))
}

#[cold]
fn depth_error(used: usize) -> XdmError {
    XdmError::with_code(
        QName::with_ns(ALDSP_ERR_NS, DEPTH_LIMIT),
        format!(
            "call nesting too deep: {} KiB of the thread's stack in use, and a call must \
             leave {} KiB free",
            used >> 10,
            CALL_RESERVE_BYTES >> 10
        ),
    )
}
