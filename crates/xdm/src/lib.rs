//! # XDM — the XQuery Data Model
//!
//! This crate implements the data model that underpins the whole XQSE
//! reproduction stack: atomic values of the `xs:*` types, an arena-based
//! node store for XML trees (documents, elements, attributes, text,
//! comments, processing instructions), heterogeneous sequences of items,
//! and the SequenceType system used for static and dynamic type matching.
//!
//! The design follows W3C *XQuery 1.0 and XPath 2.0 Data Model (XDM)*:
//!
//! - every value is a **sequence** of zero or more **items**;
//! - an item is either an **atomic value** or a **node**;
//! - nodes have identity, a parent/children structure, and a total
//!   **document order**;
//! - atomic values carry one of the built-in atomic types.
//!
//! Nodes live in an [`node::NodeArena`] and are addressed through cheap,
//! clonable [`node::NodeHandle`]s (an `Rc` to the arena plus an index),
//! which makes XQuery Update Facility in-place mutation straightforward
//! while keeping document-order comparison well defined.

pub mod atomic;
pub mod decimal;
pub mod datetime;
pub mod error;
pub mod intern;
pub mod node;
pub mod qname;
pub mod sequence;
pub mod types;

pub use atomic::AtomicValue;
pub use decimal::Decimal;
pub use datetime::{Date, DateTime};
pub use error::{ErrorCode, XdmError, XdmResult};
pub use intern::{sealed_writes, xdm_stats, Symbol, XdmStats};
pub use node::{NodeArena, NodeHandle, NodeId, NodeKind, SharedArena};
pub use qname::QName;
pub use sequence::{Item, Sequence};
pub use types::{ItemType, Occurrence, SequenceType};
