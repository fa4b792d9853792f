//! Items and sequences.
//!
//! Every XQuery/XQSE value is a [`Sequence`] — a flat, ordered list of
//! [`Item`]s. Sequences never nest: concatenation flattens. This module
//! also implements the two ubiquitous coercions of the language:
//! **atomization** (`fn:data` semantics) and the **effective boolean
//! value** used by `where`, `if`, `while`, and friends.

use std::fmt;
use std::rc::Rc;

use crate::atomic::AtomicValue;
use crate::error::{ErrorCode, XdmError, XdmResult};
use crate::node::NodeHandle;

/// A single XDM item: an atomic value or a node.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// An atomic value.
    Atomic(AtomicValue),
    /// A node reference.
    Node(NodeHandle),
}

impl Item {
    /// Convenience: an `xs:integer` item.
    pub fn integer(i: i64) -> Item {
        Item::Atomic(AtomicValue::Integer(i))
    }

    /// Convenience: an `xs:string` item.
    pub fn string(s: impl Into<Rc<str>>) -> Item {
        Item::Atomic(AtomicValue::String(s.into()))
    }

    /// Convenience: an `xs:boolean` item.
    pub fn boolean(b: bool) -> Item {
        Item::Atomic(AtomicValue::Boolean(b))
    }

    /// Convenience: an `xs:double` item.
    pub fn double(d: f64) -> Item {
        Item::Atomic(AtomicValue::Double(d))
    }

    /// Atomize this item: nodes yield their typed value, atomics pass
    /// through.
    pub fn atomize(&self) -> AtomicValue {
        match self {
            Item::Atomic(a) => a.clone(),
            Item::Node(n) => n.typed_value(),
        }
    }

    /// The string value (`fn:string` on one item).
    pub fn string_value(&self) -> String {
        match self {
            Item::Atomic(a) => a.string_value(),
            Item::Node(n) => n.string_value(),
        }
    }

    /// True if the item is a node.
    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node(_))
    }
}

impl From<NodeHandle> for Item {
    fn from(node: NodeHandle) -> Item {
        Item::Node(node)
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.string_value())
    }
}

/// A flat, ordered sequence of items — the universal value type.
///
/// The empty sequence and a singleton are held inline, so neither
/// allocates; a longer sequence is reference-counted with copy-on-write
/// mutation: `clone` is O(1) (an `Rc` bump), and the binding-heavy
/// FLWOR/variable paths of the evaluator — which clone sequences on
/// every tuple — share one buffer until somebody actually mutates.
/// [`Sequence::push`] / [`Sequence::extend`] use [`Rc::make_mut`], so a
/// uniquely-owned sequence mutates in place exactly as a plain `Vec`
/// would.
///
/// A sequence is always materialized. Pipelined evaluation is a
/// strategy of the evaluator (a cursor over a FLWOR's operators, see
/// `xqeval::flwor`), not a second representation of the value.
#[derive(Clone, Default)]
pub struct Sequence {
    repr: Repr,
}

#[derive(Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(Item),
    /// Two or more items.
    Many(Rc<Vec<Item>>),
}

impl Sequence {
    /// The empty sequence.
    pub fn empty() -> Sequence {
        Sequence::default()
    }

    /// A singleton sequence.
    pub fn one(item: Item) -> Sequence {
        Sequence { repr: Repr::One(item) }
    }

    /// Build from a vector of items. At most one item is held inline.
    pub fn from_items(mut items: Vec<Item>) -> Sequence {
        let repr = match items.len() {
            0 => Repr::Empty,
            1 => Repr::One(items.pop().expect("one item")),
            _ => Repr::Many(Rc::new(items)),
        };
        Sequence { repr }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    /// Slice of the items.
    pub fn items(&self) -> &[Item] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }

    /// Consume into a vector (no copy when this handle is the sole
    /// owner of a shared buffer).
    pub fn into_items(self) -> Vec<Item> {
        match self.repr {
            Repr::Empty => Vec::new(),
            Repr::One(item) => vec![item],
            Repr::Many(items) => Rc::try_unwrap(items).unwrap_or_else(|rc| (*rc).clone()),
        }
    }

    /// Iterate over items.
    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items().iter()
    }

    /// The buffer, uniquely owned, with an inline item moved into it
    /// and room for `extra` more.
    fn buffer(&mut self, extra: usize) -> &mut Vec<Item> {
        if !matches!(self.repr, Repr::Many(_)) {
            let mut items = Vec::with_capacity(self.len() + extra);
            items.extend(std::mem::take(self));
            self.repr = Repr::Many(Rc::new(items));
        }
        match &mut self.repr {
            Repr::Many(items) => Rc::make_mut(items),
            _ => unreachable!("the buffer was just installed"),
        }
    }

    /// Append another sequence (flattening concatenation).
    pub fn extend(&mut self, other: Sequence) {
        if self.is_empty() {
            // Adopt the other sequence wholesale — the common "start
            // from empty, append one result" accumulation pattern
            // stays allocation-free.
            *self = other;
            return;
        }
        if other.is_empty() {
            return;
        }
        // Copy-on-write, as in `push`: a uniquely owned buffer grows in
        // place, so accumulating a result piece by piece stays linear.
        let extra = other.len();
        self.buffer(extra).extend(other);
    }

    /// Push a single item.
    pub fn push(&mut self, item: Item) {
        if self.is_empty() {
            self.repr = Repr::One(item);
            return;
        }
        self.buffer(1).push(item);
    }

    /// Concatenate two sequences.
    pub fn concat(mut self, other: Sequence) -> Sequence {
        self.extend(other);
        self
    }

    /// Atomize the whole sequence (`fn:data`).
    pub fn atomized(&self) -> Vec<AtomicValue> {
        self.iter().map(Item::atomize).collect()
    }

    /// The effective boolean value per XQuery 1.0 §2.4.3:
    /// - empty → false
    /// - first item a node → true
    /// - singleton atomic → type-specific truth
    /// - otherwise → error FORG0006
    pub fn effective_boolean(&self) -> XdmResult<bool> {
        match self.items() {
            [] => Ok(false),
            [Item::Node(_), ..] => Ok(true),
            [Item::Atomic(a)] => a.effective_boolean(),
            _ => Err(XdmError::new(
                ErrorCode::FORG0006,
                "effective boolean value of multi-item atomic sequence",
            )),
        }
    }

    /// `fn:string` applied to the sequence: empty → "", singleton →
    /// its string value, otherwise a type error.
    pub fn string_value(&self) -> XdmResult<String> {
        match self.items() {
            [] => Ok(String::new()),
            [it] => Ok(it.string_value()),
            _ => Err(XdmError::new(
                ErrorCode::XPTY0004,
                "fn:string on a sequence of more than one item",
            )),
        }
    }

    /// [`Sequence::string_value`] as shared text: a string-valued item's
    /// text, or a text-only node's, without a copy.
    pub fn string_shared(&self) -> XdmResult<Rc<str>> {
        match self.items() {
            [] => Ok(Rc::from("")),
            [it] => Ok(it.atomize().string_shared()),
            _ => Err(XdmError::new(
                ErrorCode::XPTY0004,
                "fn:string on a sequence of more than one item",
            )),
        }
    }

    /// Require zero-or-one items, returning the optional item.
    pub fn zero_or_one(&self) -> XdmResult<Option<&Item>> {
        match self.items() {
            [] => Ok(None),
            [it] => Ok(Some(it)),
            _ => Err(XdmError::new(
                ErrorCode::FORG0003,
                "expected at most one item",
            )),
        }
    }

    /// Require exactly one item.
    pub fn exactly_one(&self) -> XdmResult<&Item> {
        match self.items() {
            [it] => Ok(it),
            other => Err(XdmError::new(
                ErrorCode::FORG0005,
                format!("expected exactly one item, got {}", other.len()),
            )),
        }
    }

    /// Sort into document order and remove duplicate node identities
    /// (required after `/` steps and `|` unions). Errors if the
    /// sequence contains non-node items.
    pub fn document_order_dedup(self) -> XdmResult<Sequence> {
        let mut nodes: Vec<NodeHandle> = Vec::with_capacity(self.len());
        for it in self.into_items() {
            match it {
                Item::Node(n) => nodes.push(n),
                Item::Atomic(a) => {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        format!(
                            "path/union result must be nodes, found {}",
                            a.type_of()
                        ),
                    ))
                }
            }
        }
        nodes.sort_by(|a, b| a.document_order(b));
        nodes.dedup();
        Ok(Sequence::from_items(
            nodes.into_iter().map(Item::Node).collect(),
        ))
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items()).finish()
    }
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Sequence) -> bool {
        self.items() == other.items()
    }
}

impl From<Item> for Sequence {
    fn from(item: Item) -> Sequence {
        Sequence::one(item)
    }
}

impl From<Vec<Item>> for Sequence {
    fn from(items: Vec<Item>) -> Sequence {
        Sequence::from_items(items)
    }
}

impl FromIterator<Item> for Sequence {
    /// Collects zero or one item without allocating.
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Sequence {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else { return Sequence::empty() };
        let Some(second) = iter.next() else { return Sequence::one(first) };
        let mut items = Vec::with_capacity(2 + iter.size_hint().0);
        items.push(first);
        items.push(second);
        items.extend(iter);
        Sequence { repr: Repr::Many(Rc::new(items)) }
    }
}

/// Item by item, as [`Sequence::push`]: the first item is held inline.
impl Extend<Item> for Sequence {
    fn extend<T: IntoIterator<Item = Item>>(&mut self, iter: T) {
        for item in iter {
            self.push(item);
        }
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = IntoIter;
    fn into_iter(self) -> IntoIter {
        IntoIter(match self.repr {
            Repr::Empty => Items::One(None),
            Repr::One(item) => Items::One(Some(item)),
            many => Items::Many(Sequence { repr: many }.into_items().into_iter()),
        })
    }
}

/// The items of a sequence, by value. An empty or singleton sequence
/// is iterated without allocating.
#[derive(Debug)]
pub struct IntoIter(Items);

#[derive(Debug)]
enum Items {
    One(Option<Item>),
    Many(std::vec::IntoIter<Item>),
}

impl Iterator for IntoIter {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        match &mut self.0 {
            Items::One(item) => item.take(),
            Items::Many(items) => items.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            Items::One(item) => usize::from(item.is_some()),
            Items::Many(items) => items.len(),
        };
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qname::QName;

    #[test]
    fn constructors_and_flattening() {
        let mut s = Sequence::one(Item::integer(1));
        s.extend(Sequence::from_items(vec![Item::integer(2), Item::integer(3)]));
        assert_eq!(s.len(), 3);
        let t = Sequence::one(Item::integer(0)).concat(s.clone());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn extend_grows_a_unique_buffer_in_place_and_leaves_clones_alone() {
        let mut items = Vec::with_capacity(8);
        items.extend([Item::integer(1), Item::integer(2)]);
        let mut s = Sequence::from_items(items);
        let before = s.items().as_ptr();
        s.extend(Sequence::one(Item::integer(3)));
        assert_eq!(
            s.items().as_ptr(),
            before,
            "a uniquely owned buffer must grow in place, not be copied"
        );
        let original = s.clone();
        s.extend(Sequence::one(Item::integer(4)));
        assert_eq!(original.len(), 3, "extending a clone must not touch the original");
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn short_sequences_are_inline_whatever_builds_them() {
        // An inline item costs a sequence no more than the item itself.
        assert_eq!(std::mem::size_of::<Sequence>(), std::mem::size_of::<Item>());
        let one = Sequence::one(Item::integer(1));
        assert_eq!(Sequence::from_items(vec![Item::integer(1)]), one);
        assert_eq!(std::iter::once(Item::integer(1)).collect::<Sequence>(), one);
        assert_eq!(std::iter::empty().collect::<Sequence>(), Sequence::empty());
        let mut s = Sequence::empty();
        s.push(Item::integer(1));
        assert_eq!(s, one);
        s.push(Item::integer(2));
        assert_eq!(s.items(), [Item::integer(1), Item::integer(2)]);
        assert_eq!(one.clone().into_iter().collect::<Vec<_>>(), vec![Item::integer(1)]);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), [Item::integer(1), Item::integer(2)]);
    }

    #[test]
    fn effective_boolean_rules() {
        assert!(!Sequence::empty().effective_boolean().unwrap());
        assert!(Sequence::one(Item::boolean(true)).effective_boolean().unwrap());
        assert!(!Sequence::one(Item::boolean(false)).effective_boolean().unwrap());
        assert!(Sequence::one(Item::string("x")).effective_boolean().unwrap());
        assert!(!Sequence::one(Item::integer(0)).effective_boolean().unwrap());
        // A node in first position → true regardless of the rest.
        let n = NodeHandle::root_element(QName::new("e"));
        let s = Sequence::from_items(vec![Item::Node(n), Item::integer(0)]);
        assert!(s.effective_boolean().unwrap());
        // Two atomics → error.
        let s = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        assert!(s.effective_boolean().is_err());
    }

    #[test]
    fn cardinality_helpers() {
        let empty = Sequence::empty();
        assert!(empty.zero_or_one().unwrap().is_none());
        assert!(empty.exactly_one().is_err());
        let one = Sequence::one(Item::integer(1));
        assert!(one.zero_or_one().unwrap().is_some());
        assert!(one.exactly_one().is_ok());
        let two = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        assert!(two.zero_or_one().is_err());
        assert!(two.exactly_one().is_err());
    }

    #[test]
    fn atomization_of_nodes() {
        let e = NodeHandle::root_element(QName::new("e"));
        e.append_child(&NodeHandle::new_text(e.arena(), "42")).unwrap();
        let s = Sequence::one(Item::Node(e));
        let atoms = s.atomized();
        assert_eq!(atoms, vec![AtomicValue::Untyped("42".into())]);
    }

    #[test]
    fn document_order_dedup_sorts_and_dedups() {
        let root = NodeHandle::root_element(QName::new("r"));
        let arena = root.arena().clone();
        let a = NodeHandle::new_element(&arena, QName::new("a"));
        let b = NodeHandle::new_element(&arena, QName::new("b"));
        root.append_child(&a).unwrap();
        root.append_child(&b).unwrap();
        let s = Sequence::from_items(vec![
            Item::Node(b.clone()),
            Item::Node(a.clone()),
            Item::Node(b.clone()),
        ]);
        let sorted = s.document_order_dedup().unwrap();
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted.items()[0], Item::Node(a));
        assert_eq!(sorted.items()[1], Item::Node(b));
    }

    #[test]
    fn document_order_dedup_rejects_atomics() {
        let s = Sequence::one(Item::integer(1));
        assert!(s.document_order_dedup().is_err());
    }

    #[test]
    fn string_value_rules() {
        assert_eq!(Sequence::empty().string_value().unwrap(), "");
        assert_eq!(Sequence::one(Item::integer(5)).string_value().unwrap(), "5");
        let two = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        assert!(two.string_value().is_err());
    }
}
