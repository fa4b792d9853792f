//! # xqparser — the XQuery 1.0 + XUF + XQSE parser
//!
//! This crate turns source text into the abstract syntax tree shared by
//! the expression evaluator (`xqeval`) and the statement engine
//! (`xqse`). It implements:
//!
//! - the XQuery 1.0 subset exercised by the paper and by ALDSP data
//!   services: FLWOR (for/let/where/order by/return, positional `at`),
//!   path expressions over all major axes, direct and computed
//!   constructors with embedded `{…}` expressions, quantified
//!   expressions, `typeswitch`, conditional expressions, the full
//!   operator grammar (or/and, general/value/node comparisons, range,
//!   additive/multiplicative, union/intersect/except, unary,
//!   `instance of`/`treat as`/`castable as`/`cast as`), filter
//!   expressions and predicates, function calls, and literals;
//! - the prolog: namespace declarations, default element/function
//!   namespaces, boundary-space, variable declarations, function
//!   declarations (including `external` and `updating`), option
//!   declarations — plus the XQSE `declare [readonly] procedure`
//!   and `declare xqse function` forms;
//! - the **XQuery Update Facility** expressions (`insert`, `delete`,
//!   `replace [value of]`, `rename`, `copy…modify…return`);
//! - the **complete XQSE statement grammar** from the paper's appendix
//!   EBNF: blocks, block variable declarations, `set`, `return value`,
//!   `while`, `iterate … over`, `if/then/else` statements, `try/catch`
//!   with `into` variables, `continue()`, `break()`, procedure calls,
//!   and in-place `procedure { … }` blocks.
//!
//! The query body may be either an expression (plain XQuery) or a
//! block (the "entry point into the XQSE world").
//!
//! ```
//! use xqparser::parse_module;
//! let m = parse_module("{ return value 'Hello, World'; }").unwrap();
//! assert!(m.body.is_block());
//! ```

pub mod ast;
pub mod builtin;
pub mod lexer;
pub mod parser;
pub mod shape;
pub mod unparse;

#[cfg(test)]
mod tests;

pub use ast::*;
pub use parser::{parse_expr, parse_module, parse_query};
