//! Sequence types and SequenceType matching (XQuery 1.0 §2.5.4).
//!
//! XQSE leans on SequenceType matching in several normative places:
//! block-variable declarations ("the type of the assigned value must
//! match the declared type of the variable according to the Sequence
//! Type matching rules"), assignment statements, procedure return
//! types, and function signatures. This module implements the subset
//! of the type language the paper's programs use:
//!
//! ```text
//! empty-sequence()
//! item()* | ItemType OccurrenceIndicator?
//! ItemType ::= AtomicType | item() | node() | text() | comment()
//!            | processing-instruction() | document-node()
//!            | element() | element(Name) | attribute() | attribute(Name)
//! ```

use std::fmt;

use crate::atomic::AtomicType;
use crate::error::{ErrorCode, XdmError, XdmResult};
use crate::node::NodeKind;
use crate::qname::QName;
use crate::sequence::{Item, Sequence};

/// Occurrence indicator on a sequence type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Occurrence {
    /// Exactly one (no indicator).
    One,
    /// `?` — zero or one.
    ZeroOrOne,
    /// `*` — zero or more.
    ZeroOrMore,
    /// `+` — one or more.
    OneOrMore,
}

impl Occurrence {
    /// Whether a sequence of length `n` satisfies the indicator.
    pub fn admits(&self, n: usize) -> bool {
        match self {
            Occurrence::One => n == 1,
            Occurrence::ZeroOrOne => n <= 1,
            Occurrence::ZeroOrMore => true,
            Occurrence::OneOrMore => n >= 1,
        }
    }

    /// The lexical suffix.
    pub fn suffix(&self) -> &'static str {
        match self {
            Occurrence::One => "",
            Occurrence::ZeroOrOne => "?",
            Occurrence::ZeroOrMore => "*",
            Occurrence::OneOrMore => "+",
        }
    }
}

/// An item type test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ItemType {
    /// `item()` — anything.
    AnyItem,
    /// A named atomic type, e.g. `xs:integer`.
    Atomic(AtomicType),
    /// `node()` — any node.
    AnyNode,
    /// `document-node()`.
    Document,
    /// `element()` or `element(Name)`.
    Element(Option<QName>),
    /// `attribute()` or `attribute(Name)`.
    Attribute(Option<QName>),
    /// `text()`.
    Text,
    /// `comment()`.
    Comment,
    /// `processing-instruction()`.
    Pi,
}

impl ItemType {
    /// Does a single item match this item type?
    pub fn matches(&self, item: &Item) -> bool {
        match (self, item) {
            (ItemType::AnyItem, _) => true,
            (ItemType::Atomic(t), Item::Atomic(a)) => a.type_of().derives_from(*t),
            (ItemType::Atomic(_), Item::Node(_)) => false,
            (_, Item::Atomic(_)) => false,
            (ItemType::AnyNode, Item::Node(_)) => true,
            (ItemType::Document, Item::Node(n)) => n.kind() == NodeKind::Document,
            (ItemType::Element(name), Item::Node(n)) => {
                n.kind() == NodeKind::Element
                    && name.as_ref().is_none_or(|q| n.with_name(|m| m == Some(q)))
            }
            (ItemType::Attribute(name), Item::Node(n)) => {
                n.kind() == NodeKind::Attribute
                    && name.as_ref().is_none_or(|q| n.with_name(|m| m == Some(q)))
            }
            (ItemType::Text, Item::Node(n)) => n.kind() == NodeKind::Text,
            (ItemType::Comment, Item::Node(n)) => n.kind() == NodeKind::Comment,
            (ItemType::Pi, Item::Node(n)) => n.kind() == NodeKind::Pi,
        }
    }
}

impl fmt::Display for ItemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemType::AnyItem => write!(f, "item()"),
            ItemType::Atomic(t) => write!(f, "{t}"),
            ItemType::AnyNode => write!(f, "node()"),
            ItemType::Document => write!(f, "document-node()"),
            ItemType::Element(None) => write!(f, "element()"),
            ItemType::Element(Some(q)) => write!(f, "element({q})"),
            ItemType::Attribute(None) => write!(f, "attribute()"),
            ItemType::Attribute(Some(q)) => write!(f, "attribute({q})"),
            ItemType::Text => write!(f, "text()"),
            ItemType::Comment => write!(f, "comment()"),
            ItemType::Pi => write!(f, "processing-instruction()"),
        }
    }
}

/// A sequence type: `empty-sequence()` or item type + occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SequenceType {
    /// `empty-sequence()`.
    Empty,
    /// `ItemType OccurrenceIndicator?`.
    Of(ItemType, Occurrence),
}

impl SequenceType {
    /// `item()*` — the implicit type of untyped declarations
    /// (the paper: "the variable's implicit type is item()*").
    pub fn any() -> SequenceType {
        SequenceType::Of(ItemType::AnyItem, Occurrence::ZeroOrMore)
    }

    /// A single atomic value of the given type.
    pub fn one_atomic(t: AtomicType) -> SequenceType {
        SequenceType::Of(ItemType::Atomic(t), Occurrence::One)
    }

    /// Whether the sequence matches this type.
    pub fn matches(&self, seq: &Sequence) -> bool {
        match self {
            SequenceType::Empty => seq.is_empty(),
            SequenceType::Of(item_ty, occ) => {
                occ.admits(seq.len()) && seq.iter().all(|i| item_ty.matches(i))
            }
        }
    }

    /// Check a value against this type, raising `XPTY0004` on
    /// mismatch (the dynamic half of SequenceType matching). `what`
    /// labels the value in the error message; it is called only on a
    /// mismatch, so a label built with `format!` costs nothing when
    /// the value matches.
    pub fn check<L: fmt::Display>(
        &self,
        seq: &Sequence,
        what: impl FnOnce() -> L,
    ) -> XdmResult<()> {
        if self.matches(seq) {
            Ok(())
        } else {
            Err(XdmError::new(
                ErrorCode::XPTY0004,
                format!(
                    "{}: value of {} item(s) does not match required type {self}",
                    what(),
                    seq.len()
                ),
            ))
        }
    }

    /// The XQuery *function conversion rules* (§3.1.5): when the
    /// expected type is atomic, atomize node items and cast
    /// `xs:untypedAtomic` items to the expected type; then check. Used
    /// at function/procedure argument and return boundaries. `what`
    /// labels the value as in [`SequenceType::check`].
    pub fn convert<L: fmt::Display>(
        &self,
        seq: Sequence,
        what: impl FnOnce() -> L,
    ) -> XdmResult<Sequence> {
        let target = match self {
            SequenceType::Of(ItemType::Atomic(t), _) => Some(*t),
            _ => None,
        };
        let converted = match target {
            None => seq,
            Some(t) => {
                let mut out = Vec::with_capacity(seq.len());
                for item in seq.into_iter() {
                    let atom = item.atomize();
                    let atom = match atom {
                        crate::atomic::AtomicValue::Untyped(_) => atom.cast_to(t)?,
                        other => other,
                    };
                    out.push(Item::Atomic(atom));
                }
                Sequence::from_items(out)
            }
        };
        self.check(&converted, what)?;
        Ok(converted)
    }
}

impl fmt::Display for SequenceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceType::Empty => write!(f, "empty-sequence()"),
            SequenceType::Of(t, o) => write!(f, "{}{}", t, o.suffix()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicValue;
    use crate::node::NodeHandle;

    fn elem(name: &str) -> Item {
        Item::Node(NodeHandle::root_element(QName::new(name)))
    }

    #[test]
    fn occurrence_admission() {
        assert!(Occurrence::One.admits(1));
        assert!(!Occurrence::One.admits(0));
        assert!(Occurrence::ZeroOrOne.admits(0));
        assert!(!Occurrence::ZeroOrOne.admits(2));
        assert!(Occurrence::ZeroOrMore.admits(100));
        assert!(!Occurrence::OneOrMore.admits(0));
    }

    #[test]
    fn atomic_matching_with_derivation() {
        let t = ItemType::Atomic(AtomicType::Decimal);
        assert!(t.matches(&Item::integer(1))); // integer derives from decimal
        assert!(!ItemType::Atomic(AtomicType::Integer)
            .matches(&Item::Atomic(AtomicValue::Decimal(crate::Decimal::ONE))));
        assert!(!t.matches(&Item::string("x")));
    }

    #[test]
    fn element_name_tests() {
        let any = ItemType::Element(None);
        let named = ItemType::Element(Some(QName::new("Employee")));
        assert!(any.matches(&elem("Employee")));
        assert!(named.matches(&elem("Employee")));
        assert!(!named.matches(&elem("EMP2")));
        assert!(!named.matches(&Item::integer(1)));
    }

    #[test]
    fn namespaced_element_tests() {
        let n = Item::Node(NodeHandle::root_element(QName::with_ns("urn:e", "Employee")));
        let wrong = ItemType::Element(Some(QName::new("Employee")));
        let right = ItemType::Element(Some(QName::with_ns("urn:e", "Employee")));
        assert!(!wrong.matches(&n));
        assert!(right.matches(&n));
    }

    #[test]
    fn sequence_type_matching() {
        let t = SequenceType::Of(ItemType::Atomic(AtomicType::Integer), Occurrence::ZeroOrMore);
        assert!(t.matches(&Sequence::empty()));
        assert!(t.matches(&Sequence::from_items(vec![Item::integer(1), Item::integer(2)])));
        assert!(!t.matches(&Sequence::one(Item::string("x"))));
        assert!(SequenceType::Empty.matches(&Sequence::empty()));
        assert!(!SequenceType::Empty.matches(&Sequence::one(Item::integer(1))));
    }

    #[test]
    fn check_raises_xpty0004() {
        let t = SequenceType::one_atomic(AtomicType::Integer);
        let err = t.check(&Sequence::empty(), || "set $x").unwrap_err();
        assert!(err.is(ErrorCode::XPTY0004));
        assert!(err.message.contains("set $x"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SequenceType::any().to_string(), "item()*");
        assert_eq!(
            SequenceType::Of(
                ItemType::Element(Some(QName::new("EMP2"))),
                Occurrence::ZeroOrOne
            )
            .to_string(),
            "element(EMP2)?"
        );
        assert_eq!(SequenceType::Empty.to_string(), "empty-sequence()");
    }
}
