//! The abstract syntax tree shared by the evaluator and the statement
//! engine.
//!
//! The AST mirrors the paper's central design decision: **statements
//! and expressions are disjoint types**. An [`Expr`] can never contain
//! a [`Statement`]; the only bridges are (a) a [`ValueStatement`],
//! which may *execute* a procedure and hand its value back to
//! statement-land, and (b) procedure calls in expressions, which the
//! engine permits only for `readonly` procedures (checked at runtime,
//! per §III.A of the paper).

use std::cell::{Cell, OnceCell};
use std::fmt;
use std::rc::Rc;

use xdm::atomic::AtomicValue;
use xdm::intern::Symbol;
use xdm::qname::QName;
use xdm::types::SequenceType;

pub use crate::builtin::Builtin;

// ---------------------------------------------------------------------
// Resolved facts
// ---------------------------------------------------------------------

/// A fact about a node that holds for every execution: written once,
/// when the module the node belongs to is loaded or prepared, and read
/// by the evaluator instead of working it out again. Facts are not part
/// of the program text: two nodes that differ only in their facts are
/// equal, and `Debug` shows none.
#[derive(Clone, Default)]
pub struct Fact<T: Copy>(Cell<T>);

impl<T: Copy> Fact<T> {
    /// The fact.
    #[inline]
    pub fn get(&self) -> T {
        self.0.get()
    }

    /// Record the fact.
    pub fn set(&self, value: T) {
        self.0.set(value);
    }
}

impl<T: Copy> PartialEq for Fact<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T: Copy> fmt::Debug for Fact<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_")
    }
}

/// A [`Fact`] that is not `Copy`: recorded once, then read by
/// reference.
#[derive(Clone)]
pub struct FactOnce<T>(OnceCell<T>);

impl<T> Default for FactOnce<T> {
    fn default() -> Self {
        FactOnce(OnceCell::new())
    }
}

impl<T> FactOnce<T> {
    /// The fact, once recorded.
    pub fn get(&self) -> Option<&T> {
        self.0.get()
    }

    /// Record the fact; a fact already recorded stays as it is.
    pub fn set(&self, value: T) {
        let _ = self.0.set(value);
    }
}

impl<T> PartialEq for FactOnce<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> fmt::Debug for FactOnce<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_")
    }
}

/// An entry of one engine's registry: which engine (a process-unique
/// id, 0 for none) and which entry in it. A call site or global
/// reference bound to an entry reads what the entry holds when it runs,
/// so a later registration is what the next call sees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bound {
    /// The engine that made the entry; 0 when unbound.
    pub engine: u64,
    /// The entry's index in that engine's registry.
    pub entry: u32,
}

/// A variable that a construct binds: its name, and its slot in the
/// frame it belongs to (the function, procedure, global initializer or
/// query body around it).
#[derive(Debug, Clone, PartialEq)]
pub struct Binder {
    /// The variable name.
    pub name: QName,
    /// The variable's slot in its frame.
    pub slot: Fact<u32>,
}

impl Binder {
    /// An unresolved binder.
    pub fn new(name: QName) -> Binder {
        Binder { name, slot: Fact::default() }
    }
}

impl fmt::Display for Binder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.name.fmt(f)
    }
}

/// What a variable reference reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VarTarget {
    /// Not resolved yet.
    #[default]
    Unresolved,
    /// A slot of the enclosing frame.
    Local(u32),
    /// A global variable, by its entry in the engine's globals.
    Global(Bound),
}

/// A variable reference `$name`, or the target of a `set`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarUse {
    /// The variable name.
    pub name: QName,
    /// What the name resolved to.
    pub target: Fact<VarTarget>,
}

impl VarUse {
    /// An unresolved reference.
    pub fn new(name: QName) -> VarUse {
        VarUse { name, target: Fact::default() }
    }
}

/// A function call site: the builtin it names, known when it is
/// parsed, or else the registry entry its name resolved to.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// The builtin, when the name and arity are one.
    pub builtin: Option<Builtin>,
    /// The entry of the engine's function and procedure registry.
    pub entry: Fact<Bound>,
}

/// Which operand of a positional first predicate holds its literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiteralAt {
    /// The predicate is the literal: `[k]`.
    Whole,
    /// The left operand: `[N gt position()]`.
    Left,
    /// The right operand: `[position() lt N]`.
    Right,
}

/// The shape of a first predicate that selects by position alone: the
/// window it takes is read from its numeric literal when it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The one position `k`: `[k]`, `[position() = k]`.
    At(LiteralAt),
    /// The positions before `N`: `[position() lt N]`.
    Below(LiteralAt),
    /// The positions up to `N`: `[position() le N]`.
    UpTo(LiteralAt),
}

impl Window {
    /// The window `pred` takes as a first predicate, if it selects by
    /// position alone: a numeric literal, or `position()` compared
    /// against one with an operator that bounds a prefix. `ge`/`gt`/
    /// `ne` shapes keep the whole tail and gain nothing from a window,
    /// so they are not recognized.
    pub fn of(pred: &Expr) -> Option<Window> {
        if numeric_literal(pred) {
            return Some(Window::At(LiteralAt::Whole));
        }
        #[derive(Clone, Copy)]
        enum Rel {
            Eq,
            Lt,
            Le,
            Gt,
            Ge,
        }
        let (rel, l, r) = match pred {
            Expr::General(op, l, r) => {
                let rel = match op {
                    GeneralComp::Eq => Rel::Eq,
                    GeneralComp::Lt => Rel::Lt,
                    GeneralComp::Le => Rel::Le,
                    GeneralComp::Gt => Rel::Gt,
                    GeneralComp::Ge => Rel::Ge,
                    GeneralComp::Ne => return None,
                };
                (rel, &**l, &**r)
            }
            Expr::Value(op, l, r) => {
                let rel = match op {
                    ValueComp::Eq => Rel::Eq,
                    ValueComp::Lt => Rel::Lt,
                    ValueComp::Le => Rel::Le,
                    ValueComp::Gt => Rel::Gt,
                    ValueComp::Ge => Rel::Ge,
                    ValueComp::Ne => return None,
                };
                (rel, &**l, &**r)
            }
            _ => return None,
        };
        let is_position = |e: &Expr| {
            matches!(e, Expr::FunctionCall { call, .. } if call.builtin == Some(Builtin::Position))
        };
        if is_position(l) && numeric_literal(r) {
            let at = LiteralAt::Right;
            return match rel {
                Rel::Eq => Some(Window::At(at)),
                Rel::Lt => Some(Window::Below(at)),
                Rel::Le => Some(Window::UpTo(at)),
                Rel::Gt | Rel::Ge => None,
            };
        }
        if is_position(r) && numeric_literal(l) {
            // Flipped operand order: `N gt position()` keeps a prefix.
            let at = LiteralAt::Left;
            return match rel {
                Rel::Eq => Some(Window::At(at)),
                Rel::Gt => Some(Window::Below(at)),
                Rel::Ge => Some(Window::UpTo(at)),
                Rel::Lt | Rel::Le => None,
            };
        }
        None
    }
}

/// Is `e` a numeric literal? A slot's type is the same in every text of
/// its shape.
fn numeric_literal(e: &Expr) -> bool {
    matches!(e, Expr::Literal(a) | Expr::Slot(LiteralSlot { value: a, .. }) if a.type_of().is_numeric())
}

// ---------------------------------------------------------------------
// Expressions (XQuery 1.0 + XQuery Update Facility)
// ---------------------------------------------------------------------

/// Binary operators with plain value semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `idiv`
    IDiv,
    /// `mod`
    Mod,
}

/// General comparison operators (`=`, `!=`, …): existential over
/// atomized sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneralComp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Value comparison operators (`eq`, `ne`, …): singleton-to-singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueComp {
    /// `eq`
    Eq,
    /// `ne`
    Ne,
    /// `lt`
    Lt,
    /// `le`
    Le,
    /// `gt`
    Gt,
    /// `ge`
    Ge,
}

/// Node comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeComp {
    /// `is` — node identity.
    Is,
    /// `<<` — precedes in document order.
    Precedes,
    /// `>>` — follows in document order.
    Follows,
}

/// Set operators over node sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `union` / `|`
    Union,
    /// `intersect`
    Intersect,
    /// `except`
    Except,
}

/// XPath axes supported by the engine: the node store's own, which
/// walks them ([`xdm::node::NodeHandle::walk_axis`]).
pub use xdm::node::Axis;

/// A node test within a path step or a catch clause.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum NodeTest {
    /// A (resolved) QName test.
    Name(QName),
    /// `*`
    AnyName,
    /// `*:local` — any namespace, fixed local name.
    AnyNs(String),
    /// `prefix:*` — fixed (resolved) namespace, any local name.
    NsWildcard(Option<String>),
    /// A kind test: `node()`, `text()`, `element()`, `element(N)`, …
    Kind(KindTest),
}

impl NodeTest {
    /// Does the test match an expanded name? (Kind tests are resolved
    /// by the evaluator against node kinds, not here.)
    pub fn matches_name(&self, name: Option<&QName>) -> bool {
        match self {
            NodeTest::Name(q) => name == Some(q),
            NodeTest::AnyName => true,
            NodeTest::AnyNs(local) => name.is_some_and(|n| &n.local == local),
            NodeTest::NsWildcard(ns) => {
                name.is_some_and(|n| n.ns.as_deref() == ns.as_deref())
            }
            NodeTest::Kind(_) => true,
        }
    }
}

/// Node kind tests.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum KindTest {
    /// `node()`
    AnyKind,
    /// `document-node()`
    Document,
    /// `element()` / `element(Name)`
    Element(Option<QName>),
    /// `attribute()` / `attribute(Name)`
    Attribute(Option<QName>),
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()` / `processing-instruction(Target)`
    Pi(Option<String>),
}

/// One step of a path expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis to walk.
    pub axis: Axis,
    /// The node test to apply.
    pub test: NodeTest,
    /// Positional/boolean predicates.
    pub predicates: Vec<Expr>,
}

/// FLWOR clauses, in source order.
#[derive(Debug, Clone, PartialEq)]
pub enum FlworClause {
    /// `for $v at $p in expr`
    For {
        /// Binding variable.
        var: Binder,
        /// Optional positional variable.
        pos: Option<Binder>,
        /// Binding sequence expression.
        source: Expr,
    },
    /// `let $v as T := expr`
    Let {
        /// Binding variable.
        var: Binder,
        /// Optional declared type.
        ty: Option<SequenceType>,
        /// Bound expression.
        value: Expr,
    },
    /// `where expr`
    Where(Expr),
    /// `order by specs`
    OrderBy(Vec<OrderSpec>),
}

/// One `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    /// The key expression.
    pub key: Expr,
    /// True for `descending`.
    pub descending: bool,
    /// True for `empty least` (default); false for `empty greatest`.
    pub empty_least: bool,
}

/// Quantifier kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    /// `some`
    Some,
    /// `every`
    Every,
}

/// Content of a direct element constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectContent {
    /// Literal character data, shared with every text node built from
    /// it.
    Text(Rc<str>),
    /// An embedded `{ expr }`.
    Expr(Expr),
    /// A nested direct element.
    Element(Box<DirectElement>),
    /// A comment constructor `<!--…-->`.
    Comment(String),
    /// A processing instruction `<?t …?>`.
    Pi(String, String),
}

/// Attribute value content: literal runs and embedded expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrContent {
    /// Literal text, shared with the attribute built from it when it is
    /// the whole value.
    Text(Rc<str>),
    /// `{ expr }`.
    Expr(Expr),
}

/// A direct element constructor `<name attr="…">…</name>`.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectElement {
    /// Resolved element name.
    pub name: QName,
    /// Attributes with possibly-templated values.
    pub attributes: Vec<(QName, Vec<AttrContent>)>,
    /// Namespace declarations written on the element (prefix, URI;
    /// empty prefix = default namespace), interned once at parse time.
    pub ns_decls: Vec<(Symbol, Symbol)>,
    /// Child content.
    pub content: Vec<DirectContent>,
    /// The nodes the template makes, which a constructor's arena is
    /// sized to: one per element, attribute and literal text, comment
    /// or PI, and one per enclosed expression (the one text node or
    /// element most of them make).
    pub template: usize,
}

/// A name that is either fixed or computed (computed constructors).
#[derive(Debug, Clone, PartialEq)]
pub enum NameExpr {
    /// A literal QName.
    Fixed(QName),
    /// A `{ expr }` computing the name.
    Computed(Box<Expr>),
}

/// Insert position for XUF `insert`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPos {
    /// `into` (implementation may choose; we append last).
    Into,
    /// `as first into`.
    FirstInto,
    /// `as last into`.
    LastInto,
    /// `before`.
    Before,
    /// `after`.
    After,
}

/// A `typeswitch` case.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeswitchCase {
    /// Optional case variable.
    pub var: Option<Binder>,
    /// The sequence type to match (None for `default`).
    pub ty: Option<SequenceType>,
    /// The branch body.
    pub body: Expr,
}

/// A literal of a main module's query body, whose value each execution
/// reads from the text it runs: texts that differ only in such literals
/// share one prepared plan ([`crate::parser::parse_query`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LiteralSlot {
    /// Its index among the body's literals, in source order.
    pub index: u32,
    /// The value the parsed text holds, which an evaluation reads when
    /// it is given no values of its own.
    pub value: AtomicValue,
}

/// The expression grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal atomic value.
    Literal(AtomicValue),
    /// `$name`
    VarRef(VarUse),
    /// `.`
    ContextItem,
    /// The comma operator (sequence construction).
    Comma(Vec<Expr>),
    /// `a to b`
    Range(Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Unary `+`/`-` (true = minus).
    Unary(bool, Box<Expr>),
    /// `and`
    And(Box<Expr>, Box<Expr>),
    /// `or`
    Or(Box<Expr>, Box<Expr>),
    /// General comparison.
    General(GeneralComp, Box<Expr>, Box<Expr>),
    /// Value comparison.
    Value(ValueComp, Box<Expr>, Box<Expr>),
    /// Node comparison.
    Node(NodeComp, Box<Expr>, Box<Expr>),
    /// Union/intersect/except.
    Set(SetOp, Box<Expr>, Box<Expr>),
    /// `if (c) then t else e`
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// FLWOR. Clauses and return are shared, so an evaluator can hold
    /// them past the borrow of the tree they came from: a cursor
    /// pulling the FLWOR owns them, and a join-cache entry keeps the
    /// clause list its key points into alive.
    Flwor {
        /// for/let/where/order-by clauses in order.
        clauses: Rc<[FlworClause]>,
        /// The return expression.
        ret: Rc<Expr>,
    },
    /// `some/every $v in e satisfies p`
    Quantified {
        /// Which quantifier.
        quantifier: Quantifier,
        /// The in-bindings.
        bindings: Vec<(Binder, Expr)>,
        /// The test.
        satisfies: Box<Expr>,
    },
    /// `typeswitch (op) case … default …`
    Typeswitch {
        /// The operand.
        operand: Box<Expr>,
        /// The cases; the final entry with `ty == None` is `default`.
        cases: Vec<TypeswitchCase>,
    },
    /// A path: optional root anchor, a start expression, then steps.
    Path {
        /// The origin of the path.
        start: PathStart,
        /// Steps applied left to right.
        steps: Vec<Step>,
    },
    /// Filter expression: `base[pred]…`.
    Filter {
        /// The base expression.
        base: Box<Expr>,
        /// Predicates applied in order.
        predicates: Vec<Expr>,
        /// The window the first predicate takes, when it selects by
        /// position alone ([`Window::of`]).
        window: Option<Window>,
    },
    /// Dynamic function-ish calls: `name(args…)`. At evaluation this
    /// may resolve to a builtin, a user function, an external source
    /// function, or (in statement context / readonly case) a procedure.
    FunctionCall {
        /// Resolved function name.
        name: QName,
        /// Argument expressions.
        args: Vec<Expr>,
        /// What the name resolved to.
        call: CallSite,
    },
    /// Direct element constructor.
    DirectElement(Box<DirectElement>),
    /// `element N { e }` / `element { ne } { e }`
    ComputedElement(NameExpr, Option<Box<Expr>>),
    /// `attribute N { e }`
    ComputedAttribute(NameExpr, Option<Box<Expr>>),
    /// `text { e }`
    ComputedText(Box<Expr>),
    /// `comment { e }`
    ComputedComment(Box<Expr>),
    /// `processing-instruction N { e }`
    ComputedPi(NameExpr, Option<Box<Expr>>),
    /// `document { e }`
    ComputedDocument(Box<Expr>),
    /// `e instance of T`
    InstanceOf(Box<Expr>, SequenceType),
    /// `e treat as T`
    TreatAs(Box<Expr>, SequenceType),
    /// `e castable as T?`
    CastableAs(Box<Expr>, QName, bool),
    /// `e cast as T?`
    CastAs(Box<Expr>, QName, bool),
    /// XUF `insert node(s) src pos target`.
    Insert {
        /// The nodes to insert.
        source: Box<Expr>,
        /// Position relative to the target.
        pos: InsertPos,
        /// The target node.
        target: Box<Expr>,
    },
    /// XUF `delete node(s) target`.
    Delete(Box<Expr>),
    /// XUF `replace [value of] node target with e`.
    Replace {
        /// True for `replace value of`.
        value_of: bool,
        /// The target node.
        target: Box<Expr>,
        /// The replacement.
        with: Box<Expr>,
    },
    /// XUF `rename node target as name`.
    Rename {
        /// The target node.
        target: Box<Expr>,
        /// The new name expression.
        new_name: Box<Expr>,
    },
    /// XUF `copy $v := e (,…) modify m return r` (transform).
    Transform {
        /// The copy bindings.
        copies: Vec<(Binder, Expr)>,
        /// The updating body.
        modify: Box<Expr>,
        /// The result expression.
        ret: Box<Expr>,
    },
    /// A literal of the query body, as a slot.
    Slot(LiteralSlot),
}

/// Where a path expression starts.
#[derive(Debug, Clone, PartialEq)]
pub enum PathStart {
    /// A leading `/` — the root of the context node's tree.
    Root,
    /// A leading `//`.
    RootDescendant,
    /// Start from an arbitrary expression (includes the implicit
    /// context-item start of relative paths).
    Expr(Box<Expr>),
}

impl Expr {
    /// Convenience integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Literal(AtomicValue::Integer(i))
    }

    /// Convenience string literal.
    pub fn str(s: impl Into<std::rc::Rc<str>>) -> Expr {
        Expr::Literal(AtomicValue::String(s.into()))
    }

    /// A call of `name` on `args`, with its builtin looked up.
    pub fn call(name: QName, args: Vec<Expr>) -> Expr {
        let builtin = Builtin::lookup(&name, args.len());
        Expr::FunctionCall { name, args, call: CallSite { builtin, entry: Fact::default() } }
    }

    /// `base[predicates]`, with the first predicate's window worked out.
    pub fn filter(base: Expr, predicates: Vec<Expr>) -> Expr {
        let window = predicates.first().and_then(Window::of);
        Expr::Filter { base: Box::new(base), predicates, window }
    }

    /// Is this expression *syntactically* an updating expression (XUF
    /// classification, conservative)? Function calls may additionally
    /// be updating if they call an updating function — that refinement
    /// happens at evaluation time.
    pub fn is_syntactically_updating(&self) -> bool {
        matches!(
            self,
            Expr::Insert { .. }
                | Expr::Delete(_)
                | Expr::Replace { .. }
                | Expr::Rename { .. }
        )
    }

    /// Visit each direct child expression, in source order. Direct
    /// element constructors are transparent: the expressions enclosed
    /// in their attributes and (nested) content are children. Pre-order
    /// walks are short recursions over this.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Literal(_) | Expr::Slot(_) | Expr::VarRef(_) | Expr::ContextItem => {}
            Expr::Comma(v) => v.iter().for_each(f),
            Expr::Range(a, b)
            | Expr::Binary(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::General(_, a, b)
            | Expr::Value(_, a, b)
            | Expr::Node(_, a, b)
            | Expr::Set(_, a, b) => {
                f(a);
                f(b);
            }
            Expr::Unary(_, a)
            | Expr::ComputedText(a)
            | Expr::ComputedComment(a)
            | Expr::ComputedDocument(a)
            | Expr::Delete(a)
            | Expr::InstanceOf(a, _)
            | Expr::TreatAs(a, _)
            | Expr::CastableAs(a, _, _)
            | Expr::CastAs(a, _, _) => f(a),
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Flwor { clauses, ret } => {
                for c in clauses.iter() {
                    match c {
                        FlworClause::For { source, .. } => f(source),
                        FlworClause::Let { value, .. } => f(value),
                        FlworClause::Where(w) => f(w),
                        FlworClause::OrderBy(specs) => specs.iter().for_each(|s| f(&s.key)),
                    }
                }
                f(ret);
            }
            Expr::Quantified { bindings, satisfies, .. } => {
                bindings.iter().for_each(|(_, s)| f(s));
                f(satisfies);
            }
            Expr::Typeswitch { operand, cases } => {
                f(operand);
                cases.iter().for_each(|c| f(&c.body));
            }
            Expr::Path { start, steps } => {
                if let PathStart::Expr(b) = start {
                    f(b);
                }
                steps.iter().for_each(|s| s.predicates.iter().for_each(&mut *f));
            }
            Expr::Filter { base, predicates, .. } => {
                f(base);
                predicates.iter().for_each(f);
            }
            Expr::FunctionCall { args, .. } => args.iter().for_each(f),
            Expr::DirectElement(d) => d.for_each_expr(f),
            Expr::ComputedElement(n, content)
            | Expr::ComputedAttribute(n, content)
            | Expr::ComputedPi(n, content) => {
                if let NameExpr::Computed(x) = n {
                    f(x);
                }
                if let Some(x) = content {
                    f(x);
                }
            }
            Expr::Insert { source, target, .. } => {
                f(source);
                f(target);
            }
            Expr::Replace { target, with, .. } => {
                f(target);
                f(with);
            }
            Expr::Rename { target, new_name } => {
                f(target);
                f(new_name);
            }
            Expr::Transform { copies, modify, ret } => {
                copies.iter().for_each(|(_, x)| f(x));
                f(modify);
                f(ret);
            }
        }
    }
}

impl DirectElement {
    /// A constructor, with its template size counted.
    pub fn new(
        name: QName,
        attributes: Vec<(QName, Vec<AttrContent>)>,
        ns_decls: Vec<(Symbol, Symbol)>,
        content: Vec<DirectContent>,
    ) -> DirectElement {
        let nested: usize = content
            .iter()
            .map(|c| match c {
                DirectContent::Element(e) => e.template,
                _ => 1,
            })
            .sum();
        let template = 1 + attributes.len() + nested;
        DirectElement { name, attributes, ns_decls, content, template }
    }

    /// Visit the expressions enclosed in this constructor's attributes
    /// and content, descending through nested direct constructors.
    fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for (_, parts) in &self.attributes {
            for p in parts {
                if let AttrContent::Expr(e) = p {
                    f(e);
                }
            }
        }
        for c in &self.content {
            match c {
                DirectContent::Expr(e) => f(e),
                DirectContent::Element(child) => child.for_each_expr(f),
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// XQSE statements (the paper, §III.B / appendix EBNF)
// ---------------------------------------------------------------------

/// A block variable declaration: `declare $v as T := vs`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVarDecl {
    /// The variable name.
    pub var: Binder,
    /// Optional declared type (implicitly `item()*`).
    pub ty: Option<SequenceType>,
    /// Optional initializing statement.
    pub init: Option<ValueStatement>,
}

/// A block: declarations then statements, executed in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Leading block variable declarations.
    pub decls: Vec<BlockVarDecl>,
    /// The statements.
    pub statements: Vec<Statement>,
}

/// A value statement: computes an XDM value for `set`, `return value`,
/// block initializers, and `iterate … over`.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueStatement {
    /// A non-updating ExprSingle (which may turn out to be a readonly
    /// or side-effecting procedure call — the engine decides).
    Expr(Expr),
    /// An in-place `procedure { … }` block.
    ProcedureBlock(Block),
}

/// A catch clause: `catch (NameTest into $code, $msg, $diag) { … }`.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchClause {
    /// The error-code name test (`*`, `*:*`, `prefix:*`, `*:local`, QName).
    pub test: NodeTest,
    /// Up to three `into` variables: code, message, diagnostics.
    pub into_vars: Vec<Binder>,
    /// The handler body.
    pub body: Block,
}

/// The XQSE statement grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A nested block `{ … }`.
    Block(Block),
    /// `set $v := vs`
    Set {
        /// Target variable (must be a block variable).
        var: VarUse,
        /// The target's declared type, when it has one.
        ty: FactOnce<SequenceType>,
        /// The value statement.
        value: ValueStatement,
    },
    /// `return value vs`
    Return(ValueStatement),
    /// `if (e) then s else s`
    If {
        /// The condition (non-updating).
        cond: Expr,
        /// The then-statement.
        then: Box<Statement>,
        /// The optional else-statement.
        els: Option<Box<Statement>>,
    },
    /// `while (e) { … }`
    While {
        /// The test expression.
        cond: Expr,
        /// The loop body.
        body: Block,
    },
    /// `iterate $v at $p over vs { … }`
    Iterate {
        /// The iteration variable.
        var: Binder,
        /// The optional positional variable.
        pos: Option<Binder>,
        /// The binding-sequence value statement.
        over: ValueStatement,
        /// The loop body.
        body: Block,
    },
    /// `try { … } catch (…) { … }+`
    Try {
        /// The protected body.
        body: Block,
        /// The catch clauses, tried in order.
        catches: Vec<CatchClause>,
    },
    /// `continue()`
    Continue,
    /// `break()`
    Break,
    /// An update statement: an updating expression whose pending
    /// update list is applied at statement end (snapshot semantics).
    Update(Expr),
    /// An expression evaluated for effect (procedure calls per the
    /// EBNF's `ProcedureCall` statement, and effectful function calls
    /// like `fn:trace` in the paper's examples). The value is
    /// discarded.
    ExprStatement(Expr),
    /// An in-place `procedure { … }` used as a statement.
    ProcedureBlock(Block),
}

// ---------------------------------------------------------------------
// Prolog and module
// ---------------------------------------------------------------------

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: QName,
    /// Optional declared type.
    pub ty: Option<SequenceType>,
}

/// `declare function …`.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// The function name (must be namespaced per XQuery; we relax this
    /// for test convenience).
    pub name: QName,
    /// Parameters.
    pub params: Vec<Param>,
    /// Declared return type.
    pub return_type: Option<SequenceType>,
    /// The body, or `None` for `external`.
    pub body: Option<Expr>,
    /// `declare updating function` (XUF).
    pub updating: bool,
    /// The slots its frame holds: its parameters first, in order.
    pub frame: Fact<u32>,
}

/// `declare [readonly] procedure …` — the XQSE addition.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcedureDecl {
    /// The procedure name.
    pub name: QName,
    /// Parameters.
    pub params: Vec<Param>,
    /// Declared return type.
    pub return_type: Option<SequenceType>,
    /// The body block, or `None` for `external`.
    pub body: Option<Block>,
    /// `readonly` — an "XQSE function": no side effects, callable from
    /// expressions.
    pub readonly: bool,
    /// The slots its frame holds: its parameters first, in order.
    pub frame: Fact<u32>,
}

/// `declare variable $v as T := e` (or `external`).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// The variable name.
    pub name: QName,
    /// Optional declared type.
    pub ty: Option<SequenceType>,
    /// The initializer, or `None` for `external`.
    pub value: Option<Expr>,
    /// The slots the initializer's frame holds.
    pub frame: Fact<u32>,
}

/// The prolog.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Prolog {
    /// `declare namespace p = "uri"`.
    pub namespaces: Vec<(String, String)>,
    /// `declare default element namespace "uri"`.
    pub default_element_ns: Option<String>,
    /// `declare default function namespace "uri"`.
    pub default_function_ns: Option<String>,
    /// `declare boundary-space preserve|strip` (default strip).
    pub boundary_space_preserve: bool,
    /// Variable declarations.
    pub variables: Vec<VarDecl>,
    /// Function declarations. Shared (`Rc`): the engine registers these
    /// very declarations, so loading a module never copies a body.
    pub functions: Vec<Rc<FunctionDecl>>,
    /// Procedure declarations (XQSE), shared like `functions`.
    pub procedures: Vec<Rc<ProcedureDecl>>,
    /// Option declarations.
    pub options: Vec<(QName, String)>,
}

/// The query body: expression, block, or absent (library module).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    /// A plain XQuery expression body.
    Expr(Expr),
    /// An XQSE block body — "the entry point into the XQSE world".
    Block(Block),
    /// No body (a library of declarations).
    None,
}

impl QueryBody {
    /// True if the body is a block.
    pub fn is_block(&self) -> bool {
        matches!(self, QueryBody::Block(_))
    }
}

/// A parsed module: prolog + body.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// The prolog.
    pub prolog: Prolog,
    /// The body.
    pub body: QueryBody,
    /// The slots the body's frame holds.
    pub frame: Fact<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_test_name_matching() {
        let q = QName::with_ns("urn:x", "a");
        assert!(NodeTest::Name(q.clone()).matches_name(Some(&q)));
        assert!(!NodeTest::Name(q.clone()).matches_name(Some(&QName::new("a"))));
        assert!(NodeTest::AnyName.matches_name(Some(&q)));
        assert!(NodeTest::AnyNs("a".into()).matches_name(Some(&q)));
        assert!(!NodeTest::AnyNs("b".into()).matches_name(Some(&q)));
        assert!(NodeTest::NsWildcard(Some("urn:x".into())).matches_name(Some(&q)));
        assert!(!NodeTest::NsWildcard(None).matches_name(Some(&q)));
        assert!(NodeTest::NsWildcard(None).matches_name(Some(&QName::new("a"))));
    }

    #[test]
    fn syntactic_updating_classification() {
        let del = Expr::Delete(Box::new(Expr::ContextItem));
        assert!(del.is_syntactically_updating());
        assert!(!Expr::int(1).is_syntactically_updating());
    }
}
