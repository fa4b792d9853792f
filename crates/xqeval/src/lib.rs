//! # xqeval — the XQuery expression evaluator
//!
//! Dynamic evaluation of the [`xqparser`] AST over [`xdm`] values:
//!
//! - [`engine::Engine`] — the compilation/registration façade: load
//!   modules, register external functions and procedures (this is how
//!   ALDSP binds physical sources), then evaluate queries;
//! - [`context::Env`] — the dynamic context: variable scopes, focus
//!   (context item / position / size), the pending-update list slot,
//!   and the trace sink;
//! - [`functions`] — 90+ `fn:`/`xs:` builtins;
//! - [`update`] — XQuery Update Facility pending update lists with
//!   XUDY0017 conflict detection and ordered application;
//! - [`regex_lite`] — a self-contained backtracking regex engine for
//!   `fn:tokenize`, `fn:matches`, and `fn:replace`.
//!
//! The evaluator enforces the XQSE statement/expression boundary from
//! the paper: updating expressions are rejected (`XUST0001`) unless an
//! update statement has opened a pending-update list, and procedure
//! calls from expressions are permitted only for `readonly` procedures
//! (`XQSE0004`).

pub mod budget;
pub mod cache;
pub mod context;
pub mod engine;
pub mod eval;
pub(crate) mod flwor;
pub mod fold;
pub mod functions;
pub mod regex_lite;
pub mod update;

pub use budget::{Budget, BudgetClock, BudgetExceeded};
pub use cache::Lru;
pub use context::Env;
pub use engine::{
    BatchFn, ColClass, Engine, ExternalFn, OptCounters, OptStats, PreparedQuery,
    ProcRunner, SourceCapability,
};
pub use eval::Evaluator;
pub use update::{Pul, Update};

#[cfg(test)]
mod tests;
