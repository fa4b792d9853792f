//! The XDM node store.
//!
//! Nodes live in a [`NodeArena`] — a flat `Vec` of node records indexed
//! by [`NodeId`] — and are referenced through [`NodeHandle`]s that pair
//! a shared arena pointer with an id. This gives us:
//!
//! - **node identity** (`is` comparisons) as `(arena, id)` equality;
//! - **document order** as a structural path comparison within an
//!   arena, with a global arena stamp ordering nodes from different
//!   documents (the XDM permits any stable ordering across trees);
//! - cheap **in-place mutation** for the XQuery Update Facility
//!   primitives (insert, delete, replace, rename);
//! - O(1) parent/child navigation for path expressions.
//!
//! The store is deliberately single-threaded (`Rc<RefCell<…>>`): one
//! XQSE program executes on one thread, matching the paper's
//! sequential statement-execution model. Cross-thread concurrency in
//! the reproduction lives in the ALDSP source layer, not in XDM.
//!
//! ## Structural sharing ("grafts")
//!
//! Element constructors used to deep-copy their content into the new
//! arena — the construction-bound hot path. A child slot is now a
//! [`ChildEntry`]: either a local node id, or a **graft** — a shared
//! reference to an immutable subtree in another (sealed) arena. The
//! graft is observably identical to a copy:
//!
//! - a handle reached *through* a graft carries a chain of
//!   [`GraftLink`]s, so the parent axis at the graft root redirects to
//!   the host element, identity distinguishes two grafts of the same
//!   source node, and document order follows the host tree;
//! - any mutation through a graft view first **materializes** the
//!   grafted subtree into the host arena (copy-on-write), recording an
//!   id map so outstanding view handles transparently follow the copy;
//! - source arenas are **sealed** when shared (the table→XDM caches
//!   seal eagerly; constructed parentless trees seal on first share),
//!   which freezes the structure the grafts rely on.
//!
//! The one documented deviation: nothing prevents mutating a *sealed*
//! arena in place, and results that grafted it then see the change —
//! the eager-copy model would have isolated them. Mutating through a
//! graft view copies on write. But a source cache hands out its sealed
//! trees themselves, so any writer whose target is such a node mutates
//! the sealed arena in place. Each such write moves the thread's
//! [`crate::sealed_writes`] count, and a cache entry built under an
//! older count is refused at its next lookup. See DESIGN.md §10.
//!
//! ## Walks
//!
//! Every algorithm over a subtree runs on [`Walk`], which keeps its
//! place on a heap stack, so no tree depth overflows the thread's stack.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::atomic::AtomicValue;
use crate::error::{ErrorCode, XdmError, XdmResult};
use crate::intern::{count_graft, count_graft_cow, count_node_built, count_sealed_write};
use crate::qname::QName;

/// Index of a node within its arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The seven XDM node kinds (we omit namespace nodes; in-scope
/// namespaces are tracked on elements directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Document root node.
    Document,
    /// Element node.
    Element,
    /// Attribute node.
    Attribute,
    /// Text node.
    Text,
    /// Comment node.
    Comment,
    /// Processing instruction node.
    Pi,
}

/// The XPath axes a path step can walk from a node
/// ([`NodeHandle::walk_axis`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child::` (default)
    Child,
    /// `attribute::` / `@`
    Attribute,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::` (the `//` abbreviation)
    DescendantOrSelf,
    /// `self::` / `.`
    SelfAxis,
    /// `parent::` / `..`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
}

impl Axis {
    /// Whether the axis walks forward from its node: what it yields
    /// from one node is already in document order and free of
    /// duplicates. The parent, ancestor and preceding-sibling axes are
    /// not.
    pub fn is_forward(self) -> bool {
        matches!(
            self,
            Axis::Child
                | Axis::Attribute
                | Axis::SelfAxis
                | Axis::Descendant
                | Axis::DescendantOrSelf
                | Axis::FollowingSibling
        )
    }
}

/// One child slot of a document or element: a node in the same arena,
/// or a grafted subtree shared from a sealed arena.
#[derive(Debug, Clone)]
enum ChildEntry {
    Local(NodeId),
    Graft(Rc<GraftCtx>),
}

/// The child slots of a document or element. Most constructed and
/// materialized elements hold exactly one child (`<Name>text</Name>`),
/// which stays inline; two or more live in a `Vec`, sized up front
/// when the builder knows the count ([`Slots::with_capacity`]).
/// Either form is 24 bytes, the size of the `Vec` alone, so a node slot
/// stays 64 bytes.
type Children = Slots<ChildEntry>;

/// A list that holds one entry inline and two or more in a `Vec`: an
/// element's children, and its attributes and namespace declarations,
/// most often number one (or none). Every mutation moves between the
/// two forms: a second entry moves the first into a `Vec`, and a `Vec`
/// left with one entry gives it back inline.
#[derive(Debug, Clone)]
enum Slots<T> {
    Many(Vec<T>),
    One(T),
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots::Many(Vec::new())
    }
}

impl<T> Slots<T> {
    /// Room for `n` entries without growing: inline for one or none.
    fn with_capacity(n: usize) -> Slots<T> {
        Slots::Many(if n > 1 { Vec::with_capacity(n) } else { Vec::new() })
    }

    fn as_slice(&self) -> &[T] {
        match self {
            Slots::Many(v) => v,
            Slots::One(e) => std::slice::from_ref(e),
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Slots::Many(v) => v,
            Slots::One(e) => std::slice::from_mut(e),
        }
    }

    fn push(&mut self, e: T) {
        *self = match std::mem::take(self) {
            // An empty list with no room takes its first entry inline.
            Slots::Many(v) if v.capacity() == 0 => Slots::One(e),
            Slots::Many(mut v) => {
                v.push(e);
                Slots::Many(v)
            }
            Slots::One(first) => Slots::Many(vec![first, e]),
        };
    }

    fn insert(&mut self, at: usize, e: T) {
        match self {
            Slots::Many(v) if !v.is_empty() => v.insert(at, e),
            Slots::Many(_) => self.push(e),
            Slots::One(_) => {
                self.push(e);
                if at == 0 {
                    self.as_mut_slice().swap(0, 1);
                }
            }
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            Slots::One(e) => {
                if !keep(e) {
                    *self = Slots::Many(Vec::new());
                }
            }
            Slots::Many(v) => {
                v.retain(keep);
                if v.len() == 1 {
                    *self = Slots::One(v.remove(0));
                }
            }
        }
    }
}

impl<T> From<Vec<T>> for Slots<T> {
    fn from(v: Vec<T>) -> Slots<T> {
        let mut s = Slots::with_capacity(v.len());
        for e in v {
            s.push(e);
        }
        s
    }
}

/// One graft use: `root` in the sealed `sub` arena, adopted as a child
/// of exactly one host slot. Each `graft_child` call creates a fresh
/// `GraftCtx`, so grafting the same source node twice yields two
/// distinct logical nodes (as two copies would have).
struct GraftCtx {
    sub: SharedArena,
    root: NodeId,
    state: RefCell<GraftState>,
}

impl fmt::Debug for GraftCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GraftCtx(root={:?}@arena{}, {})",
            self.root,
            self.sub.borrow().stamp,
            match &*self.state.borrow() {
                GraftState::Live => "live",
                GraftState::Materialized { .. } => "materialized",
                GraftState::Detached => "detached",
            }
        )
    }
}

enum GraftState {
    /// Reads go straight to the sealed source arena.
    Live,
    /// Copy-on-write fired: the subtree was copied into the host
    /// arena; `(source arena stamp, source id) -> host id` lets
    /// outstanding view handles follow the copy.
    Materialized { map: HashMap<(u64, NodeId), NodeId> },
    /// The grafted child was detached from its host (XUF `delete`).
    Detached,
}

/// Where a graft view came from: the graft use plus the host slot, so
/// a handle inside a grafted region can answer parent/root/identity
/// questions as if it were a private copy. `host_link` chains when the
/// host region is itself reached through a graft.
#[derive(Debug)]
struct GraftLink {
    ctx: Rc<GraftCtx>,
    host_arena: SharedArena,
    host_id: NodeId,
    host_link: Option<Rc<GraftLink>>,
}

impl Drop for GraftLink {
    /// Unlink the chain of host links in a loop: dropping each link
    /// inside the next would recurse once per nested graft.
    fn drop(&mut self) {
        let mut next = self.host_link.take();
        while let Some(link) = next {
            next = Rc::try_unwrap(link).ok().and_then(|mut l| l.host_link.take());
        }
    }
}

#[derive(Debug, Clone)]
enum NodeBody {
    Document {
        children: Children,
    },
    Element {
        name: QName,
        children: Children,
        /// Attributes and namespace declarations, boxed and absent for
        /// an element with neither, so that the common plain element
        /// does not size every node slot.
        extra: Option<Box<ElementExtra>>,
    },
    Attribute {
        name: QName,
        value: Rc<str>,
    },
    Text {
        content: Rc<str>,
    },
    Comment {
        content: Rc<str>,
    },
    Pi {
        /// The target, kept as the no-namespace name `name()` reports.
        target: QName,
        content: Rc<str>,
    },
}

/// What only some elements have. Its one allocation holds a single
/// attribute and a single namespace declaration inline, so an element
/// with one of each costs that allocation alone.
#[derive(Debug, Clone, Default)]
struct ElementExtra {
    attrs: Slots<NodeId>,
    /// Namespace declarations written on this element
    /// (prefix → URI; empty prefix = default namespace).
    ns_decls: Slots<(crate::intern::Symbol, crate::intern::Symbol)>,
}

impl NodeBody {
    /// An element with no attributes yet.
    fn element(
        name: QName,
        children: Children,
        ns_decls: impl Into<Slots<(crate::intern::Symbol, crate::intern::Symbol)>>,
    ) -> NodeBody {
        let ns_decls = ns_decls.into();
        let extra = (!ns_decls.as_slice().is_empty())
            .then(|| Box::new(ElementExtra { attrs: Slots::default(), ns_decls }));
        NodeBody::Element { name, children, extra }
    }

    /// An element's attributes; none for any other node.
    fn attrs(&self) -> &[NodeId] {
        match self {
            NodeBody::Element { extra: Some(x), .. } => x.attrs.as_slice(),
            _ => &[],
        }
    }

    /// A document's or element's child slots, for mutation.
    fn children_mut(&mut self) -> Option<&mut Children> {
        match self {
            NodeBody::Document { children } | NodeBody::Element { children, .. } => Some(children),
            _ => None,
        }
    }

    /// An element's namespace declarations; none for any other node.
    fn ns_decls(&self) -> &[(crate::intern::Symbol, crate::intern::Symbol)] {
        match self {
            NodeBody::Element { extra: Some(x), .. } => x.ns_decls.as_slice(),
            _ => &[],
        }
    }

    /// An attribute's value, or a text, comment or PI's content.
    fn content(&self) -> Option<&Rc<str>> {
        match self {
            NodeBody::Attribute { value: c, .. }
            | NodeBody::Text { content: c }
            | NodeBody::Comment { content: c }
            | NodeBody::Pi { content: c, .. } => Some(c),
            _ => None,
        }
    }

    /// An element's attributes and declarations, made on first use;
    /// `None` for any other node.
    fn extra_mut(&mut self) -> Option<&mut ElementExtra> {
        match self {
            NodeBody::Element { extra, .. } => Some(extra.get_or_insert_with(Box::default)),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    parent: Option<NodeId>,
    body: NodeBody,
}

// A node slot is one 64-byte record: the child list is no wider than
// the `Vec` it replaces.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<NodeData>() == 64);

impl NodeData {
    fn kind(&self) -> NodeKind {
        match self.body {
            NodeBody::Document { .. } => NodeKind::Document,
            NodeBody::Element { .. } => NodeKind::Element,
            NodeBody::Attribute { .. } => NodeKind::Attribute,
            NodeBody::Text { .. } => NodeKind::Text,
            NodeBody::Comment { .. } => NodeKind::Comment,
            NodeBody::Pi { .. } => NodeKind::Pi,
        }
    }

    fn name(&self) -> Option<&QName> {
        match &self.body {
            NodeBody::Element { name, .. } | NodeBody::Attribute { name, .. } => Some(name),
            NodeBody::Pi { target, .. } => Some(target),
            _ => None,
        }
    }

    fn children(&self) -> &[ChildEntry] {
        match &self.body {
            NodeBody::Document { children } | NodeBody::Element { children, .. } => {
                children.as_slice()
            }
            _ => &[],
        }
    }
}

static ARENA_STAMP: AtomicU64 = AtomicU64::new(1);

/// A flat arena of nodes forming one or more trees.
#[derive(Debug)]
pub struct NodeArena {
    stamp: u64,
    nodes: Vec<NodeData>,
    /// Once sealed, the arena's structure is shared by reference into
    /// other trees and must be treated as immutable.
    sealed: bool,
    /// Lazily memoized subtree sizes (node count incl. attributes),
    /// computed on sealed arenas for graft accounting. 0 = unknown.
    sizes: Vec<u32>,
    /// Whether a child slot ever grafted a subtree ([`Drop`] frees the
    /// arenas grafts keep alive).
    grafted: bool,
}

/// Shared, interiorly mutable arena pointer.
pub type SharedArena = Rc<RefCell<NodeArena>>;

impl NodeArena {
    /// Create a fresh arena with a globally unique stamp.
    pub fn new() -> SharedArena {
        Rc::new(RefCell::new(NodeArena::default()))
    }

    /// Create a fresh arena with room for exactly `nodes` nodes, for a
    /// tree whose size is known before it is built: it never grows, so
    /// it keeps no empty slots.
    pub fn with_capacity(nodes: usize) -> SharedArena {
        let arena = NodeArena::new();
        arena.borrow_mut().nodes.reserve_exact(nodes);
        arena
    }

    /// Make room for `additional` more nodes, for a builder that learns
    /// its size after the arena's stamp had to be taken.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve_exact(additional);
    }

    /// The arena's globally unique creation stamp.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Number of node slots allocated (including detached nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the arena has been sealed (shared by reference).
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Seal the arena: its structure is about to be shared by
    /// reference and must no longer be treated as private.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    fn alloc(&mut self, parent: Option<NodeId>, body: NodeBody) -> NodeId {
        count_node_built();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData { parent, body });
        id
    }

    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0 as usize]
    }

    fn data_mut(&mut self, id: NodeId) -> &mut NodeData {
        if self.sealed {
            count_sealed_write();
        }
        &mut self.nodes[id.0 as usize]
    }
}

impl Drop for NodeArena {
    /// Free the arenas that this arena's grafts alone keep alive, and
    /// theirs, in a loop: dropping each inside its host would recurse
    /// once per nested graft. An arena without grafts drops as a `Vec`.
    fn drop(&mut self) {
        if !self.grafted {
            return;
        }
        let mut doomed = vec![std::mem::take(&mut self.nodes)];
        while let Some(nodes) = doomed.pop() {
            for mut node in nodes {
                let Some(children) = node.body.children_mut() else { continue };
                for e in children.as_mut_slice() {
                    let ChildEntry::Graft(ctx) = std::mem::replace(e, ChildEntry::Local(NodeId(0)))
                    else {
                        continue;
                    };
                    let sub = Rc::try_unwrap(ctx).ok().and_then(|c| Rc::try_unwrap(c.sub).ok());
                    if let Some(sub) = sub {
                        doomed.push(std::mem::take(&mut sub.into_inner().nodes));
                    }
                }
            }
        }
    }
}

impl Default for NodeArena {
    fn default() -> Self {
        NodeArena {
            stamp: ARENA_STAMP.fetch_add(1, AtomicOrdering::Relaxed),
            nodes: Vec::new(),
            sealed: false,
            sizes: Vec::new(),
            grafted: false,
        }
    }
}

/// Deep size (node records incl. attributes) of the subtree at `root`,
/// following grafts, memoized at `root`: a walk takes a memoized size
/// for the whole subtree below it, so grafting a chain of grafts walks
/// only the newest link. Only meaningful on sealed arenas (the memo
/// assumes a frozen structure).
fn subtree_size(root: &NodeHandle) -> u64 {
    let memo = |n: &NodeHandle| {
        n.arena.borrow().sizes.get(n.id.0 as usize).copied().filter(|&s| s != 0).map(u64::from)
    };
    if let Some(s) = memo(root) {
        return s;
    }
    let mut total = 0;
    root.walk().for_each(|n| match memo(n) {
        Some(s) => {
            total += s;
            false
        }
        None => {
            total += 1 + n.with(|d| d.body.attrs().len()) as u64;
            true
        }
    });
    let mut a = root.arena.borrow_mut();
    let idx = root.id.0 as usize;
    if a.sizes.len() <= idx {
        a.sizes.resize(idx + 1, 0);
    }
    a.sizes[idx] = u32::try_from(total).unwrap_or(u32::MAX);
    total
}

/// A reference to a node: shared arena + id, plus (for nodes reached
/// through a graft) the chain of graft links that situates the view in
/// its host tree. Cloning is cheap.
#[derive(Clone)]
pub struct NodeHandle {
    arena: SharedArena,
    id: NodeId,
    link: Option<Rc<GraftLink>>,
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NodeHandle({:?}@arena{}{})",
            self.id,
            self.arena.borrow().stamp,
            if self.link.is_some() { " via graft" } else { "" }
        )
    }
}

fn chains_eq(a: &Option<Rc<GraftLink>>, b: &Option<Rc<GraftLink>>) -> bool {
    let (mut a, mut b) = (a, b);
    loop {
        match (a, b) {
            (None, None) => return true,
            (Some(x), Some(y)) => {
                if !Rc::ptr_eq(&x.ctx, &y.ctx) {
                    return false;
                }
                a = &x.host_link;
                b = &y.host_link;
            }
            _ => return false,
        }
    }
}

impl PartialEq for NodeHandle {
    fn eq(&self, other: &Self) -> bool {
        self.now(|a| {
            other.now(|b| {
                Rc::ptr_eq(&a.arena, &b.arena) && a.id == b.id && chains_eq(&a.link, &b.link)
            })
        })
    }
}
impl Eq for NodeHandle {}

impl std::hash::Hash for NodeHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.now(|me| {
            (Rc::as_ptr(&me.arena) as usize).hash(state);
            me.id.hash(state);
            let mut l = &me.link;
            while let Some(x) = l {
                (Rc::as_ptr(&x.ctx) as usize).hash(state);
                l = &x.host_link;
            }
        })
    }
}

/// One step on the path from a root to a node; attributes sort before
/// children, matching XDM document order (attributes follow their
/// element but precede its children — we encode "element < its attrs
/// < its children" by path prefix ordering plus this step ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PathStep {
    Attr(usize),
    Child(usize),
}

impl NodeHandle {
    /// Construct a handle (mostly for internal/builder use).
    pub fn new(arena: SharedArena, id: NodeId) -> NodeHandle {
        NodeHandle { arena, id, link: None }
    }

    /// The node's arena.
    pub fn arena(&self) -> &SharedArena {
        &self.arena
    }

    /// The node's id within its arena.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Seal this node's arena: shared by reference from now on.
    pub fn seal(&self) {
        self.arena.borrow_mut().sealed = true;
    }

    /// Whether this node's arena is sealed.
    pub fn is_sealed(&self) -> bool {
        self.arena.borrow().sealed
    }

    /// Create a new document node in a fresh arena.
    pub fn new_document() -> NodeHandle {
        Self::new_document_sized(&NodeArena::new(), 0)
    }

    /// Create a document node in the given arena with room for exactly
    /// `children` children.
    pub fn new_document_sized(arena: &SharedArena, children: usize) -> NodeHandle {
        let body = NodeBody::Document { children: Children::with_capacity(children) };
        let id = arena.borrow_mut().alloc(None, body);
        NodeHandle { arena: arena.clone(), id, link: None }
    }

    /// Create a detached element node in the given arena.
    pub fn new_element(arena: &SharedArena, name: QName) -> NodeHandle {
        Self::new_element_sized(arena, name, 0)
    }

    /// Create a detached element node in the given arena with room for
    /// exactly `children` children, for a tree whose shape is known
    /// before it is built.
    pub fn new_element_sized(arena: &SharedArena, name: QName, children: usize) -> NodeHandle {
        let id = arena.borrow_mut().alloc(
            None,
            NodeBody::element(name, Children::with_capacity(children), Vec::new()),
        );
        NodeHandle { arena: arena.clone(), id, link: None }
    }

    /// Create a detached element in a fresh arena.
    pub fn root_element(name: QName) -> NodeHandle {
        let arena = NodeArena::new();
        Self::new_element(&arena, name)
    }

    /// Create a detached attribute node.
    pub fn new_attribute(
        arena: &SharedArena,
        name: QName,
        value: impl Into<Rc<str>>,
    ) -> NodeHandle {
        let id = arena
            .borrow_mut()
            .alloc(None, NodeBody::Attribute { name, value: value.into() });
        NodeHandle { arena: arena.clone(), id, link: None }
    }

    /// Create a detached text node.
    pub fn new_text(arena: &SharedArena, content: impl Into<Rc<str>>) -> NodeHandle {
        let id = arena
            .borrow_mut()
            .alloc(None, NodeBody::Text { content: content.into() });
        NodeHandle { arena: arena.clone(), id, link: None }
    }

    /// Create a detached comment node.
    pub fn new_comment(arena: &SharedArena, content: impl Into<Rc<str>>) -> NodeHandle {
        let id = arena
            .borrow_mut()
            .alloc(None, NodeBody::Comment { content: content.into() });
        NodeHandle { arena: arena.clone(), id, link: None }
    }

    /// Create a detached processing-instruction node.
    pub fn new_pi(
        arena: &SharedArena,
        target: impl Into<String>,
        content: impl Into<Rc<str>>,
    ) -> NodeHandle {
        let id = arena.borrow_mut().alloc(
            None,
            NodeBody::Pi { target: QName::new(target.into()), content: content.into() },
        );
        NodeHandle { arena: arena.clone(), id, link: None }
    }

    /// If the outermost graft this view goes through has been
    /// materialized (copy-on-write fired), return the handle of the
    /// materialized copy in the host arena; `None` when the view is
    /// still direct.
    fn resolve_if_moved(&self) -> Option<NodeHandle> {
        let link = self.link.as_ref()?;
        let mut outer = link;
        while let Some(next) = &outer.host_link {
            outer = next;
        }
        let mapped = match &*outer.ctx.state.borrow() {
            GraftState::Materialized { map } => {
                let stamp = self.arena.borrow().stamp;
                map.get(&(stamp, self.id)).copied()
            }
            _ => None,
        }?;
        let h = NodeHandle {
            arena: outer.host_arena.clone(),
            id: mapped,
            link: outer.host_link.clone(),
        };
        // The host region could itself have moved since; chase it.
        Some(h.resolve_if_moved().unwrap_or(h))
    }

    fn with<R>(&self, f: impl FnOnce(&NodeData) -> R) -> R {
        let arena = self.arena.borrow();
        f(arena.data(self.id))
    }

    /// Run `f` on this node where it is now: on the copy a
    /// copy-on-write moved it to, if one did.
    fn now<R>(&self, f: impl FnOnce(&NodeHandle) -> R) -> R {
        match self.resolve_if_moved() {
            Some(h) => f(&h),
            None => f(self),
        }
    }

    /// Read the node's record where it is now.
    fn read<R>(&self, f: impl FnOnce(&NodeData) -> R) -> R {
        self.now(|me| me.with(f))
    }

    /// The handle of node `id` of this node's arena, reached as this
    /// node is.
    fn at(&self, id: NodeId) -> NodeHandle {
        NodeHandle { arena: self.arena.clone(), id, link: self.link.clone() }
    }

    /// The node kind.
    pub fn kind(&self) -> NodeKind {
        self.read(NodeData::kind)
    }

    /// The node name (elements and attributes; PI target is exposed as
    /// a no-namespace QName).
    pub fn name(&self) -> Option<QName> {
        self.with_name(|q| q.cloned())
    }

    /// Run `f` on the node's name, borrowed from the arena: the
    /// non-cloning twin of [`NodeHandle::name`] for tests that only
    /// compare it.
    pub fn with_name<R>(&self, f: impl FnOnce(Option<&QName>) -> R) -> R {
        self.read(|d| f(d.name()))
    }

    /// Parent node, if attached. At a graft root the parent is the
    /// host element the subtree was grafted into.
    pub fn parent(&self) -> Option<NodeHandle> {
        self.now(|me| {
            if let Some(link) = &me.link {
                if me.id == link.ctx.root && Rc::ptr_eq(&me.arena, &link.ctx.sub) {
                    return match &*link.ctx.state.borrow() {
                        GraftState::Live => Some(NodeHandle {
                            arena: link.host_arena.clone(),
                            id: link.host_id,
                            link: link.host_link.clone(),
                        }),
                        // Detached from the host; `now` followed a
                        // Materialized graft to the copy.
                        _ => None,
                    };
                }
            }
            me.with(|d| d.parent).map(|p| me.at(p))
        })
    }

    /// The child in slot `e` of this node: the one place a read
    /// crosses a graft, into the handle of the graft's root as this
    /// host slot sees it.
    fn entry_handle(&self, e: &ChildEntry) -> NodeHandle {
        match e {
            ChildEntry::Local(id) => self.at(*id),
            ChildEntry::Graft(ctx) => {
                let link = GraftLink {
                    ctx: ctx.clone(),
                    host_arena: self.arena.clone(),
                    host_id: self.id,
                    host_link: self.link.clone(),
                };
                NodeHandle { arena: ctx.sub.clone(), id: ctx.root, link: Some(Rc::new(link)) }
            }
        }
    }

    /// Child nodes in order (document and element nodes).
    pub fn children(&self) -> Vec<NodeHandle> {
        self.now(|me| me.with(|d| d.children().iter().map(|e| me.entry_handle(e)).collect()))
    }

    /// Run `f` on each child in order, without collecting the
    /// children. The tree is borrowed meanwhile: `f` may read it but
    /// must not change it.
    pub fn for_each_child(&self, mut f: impl FnMut(&NodeHandle)) {
        self.now(|me| me.with(|d| d.children().iter().for_each(|e| f(&me.entry_handle(e)))))
    }

    /// The first child whose name's local part is `local`, found
    /// without collecting the children.
    pub fn first_child_named(&self, local: &str) -> Option<NodeHandle> {
        self.now(|me| {
            me.with(|d| {
                d.children()
                    .iter()
                    .map(|e| me.entry_handle(e))
                    .find(|c| c.with_name(|q| q.is_some_and(|q| &*q.local == local)))
            })
        })
    }

    /// Whether the node has any child (document and element nodes).
    pub fn has_children(&self) -> bool {
        self.read(|d| !d.children().is_empty())
    }

    /// Attribute nodes in order (element nodes).
    pub fn attributes(&self) -> Vec<NodeHandle> {
        self.now(|me| me.with(|d| d.body.attrs().iter().map(|&id| me.at(id)).collect()))
    }

    /// Run `f` on each attribute's name and value, in order, without
    /// collecting them. The tree is borrowed meanwhile.
    pub fn for_each_attribute(&self, mut f: impl FnMut(&QName, &str)) {
        self.now(|me| {
            let arena = me.arena.borrow();
            for &id in arena.data(me.id).body.attrs() {
                let body = &arena.data(id).body;
                if let (NodeBody::Attribute { name, .. }, Some(v)) = (body, body.content()) {
                    f(name, v);
                }
            }
        })
    }

    /// Look up an attribute by expanded name, without collecting the
    /// attributes.
    pub fn attribute(&self, name: &QName) -> Option<NodeHandle> {
        self.now(|me| {
            let arena = me.arena.borrow();
            let attrs = arena.data(me.id).body.attrs();
            attrs.iter().find(|&&a| arena.data(a).name() == Some(name)).map(|&a| me.at(a))
        })
    }

    /// The attribute's or text-ish node's own content string.
    pub fn content(&self) -> Option<String> {
        self.content_shared().map(|rc| rc.as_ref().to_string())
    }

    /// Zero-copy access to an attribute's or text-ish node's content.
    pub fn content_shared(&self) -> Option<Rc<str>> {
        self.read(|d| d.body.content().cloned())
    }

    /// Run `f` on the namespace declarations written on this element.
    pub fn with_ns_decls<R>(
        &self,
        f: impl FnOnce(&[(crate::intern::Symbol, crate::intern::Symbol)]) -> R,
    ) -> R {
        self.read(|d| f(d.body.ns_decls()))
    }

    /// Add a namespace declaration to an element.
    pub fn add_ns_decl(
        &self,
        prefix: impl Into<crate::intern::Symbol>,
        uri: impl Into<crate::intern::Symbol>,
    ) {
        let me = self.ensure_local();
        let mut arena = me.arena.borrow_mut();
        if let Some(x) = arena.data_mut(me.id).body.extra_mut() {
            x.ns_decls.push((prefix.into(), uri.into()));
        }
    }

    /// The XDM string value: for elements/documents the concatenation
    /// of descendant text; for attributes/text/comments/PIs the content.
    pub fn string_value(&self) -> String {
        match self.kind() {
            NodeKind::Document | NodeKind::Element => {
                // Fast path: the dominant `<e>text</e>` shape shares
                // the text's Rc<str> straight out, skipping the walk.
                if let Some(t) = self.single_text_content() {
                    return t.as_ref().to_string();
                }
                let mut out = String::new();
                self.collect_text(&mut out);
                out
            }
            _ => self.content().unwrap_or_default(),
        }
    }

    /// The single text child's shared content, if this element's
    /// entire content is exactly one local text node.
    fn single_text_content(&self) -> Option<Rc<str>> {
        self.now(|me| {
            let a = me.arena.borrow();
            let [ChildEntry::Local(c)] = a.data(me.id).children() else { return None };
            a.data(*c).body.content().filter(|_| a.data(*c).kind() == NodeKind::Text).cloned()
        })
    }

    fn collect_text(&self, out: &mut String) {
        self.walk().for_each(|n| {
            n.with(|d| match &d.body {
                NodeBody::Text { content } => {
                    out.push_str(content);
                    false
                }
                body => matches!(body, NodeBody::Element { .. } | NodeBody::Document { .. }),
            })
        });
    }

    /// The typed value. Without schema validation every node is
    /// untyped, so this is `xs:untypedAtomic(string-value)`. It shares
    /// the text of an attribute, a text-ish node, or an element whose
    /// content is exactly one local text node, without copying it.
    pub fn typed_value(&self) -> AtomicValue {
        let shared = match self.kind() {
            NodeKind::Document | NodeKind::Element => self.single_text_content(),
            _ => self.content_shared(),
        };
        AtomicValue::Untyped(shared.unwrap_or_else(|| self.string_value().into()))
    }

    /// The root of the tree containing this node (following graft
    /// links up into the host tree).
    pub fn root(&self) -> NodeHandle {
        let mut cur = self.now(NodeHandle::clone);
        while let Some(p) = cur.parent() {
            cur = p;
        }
        cur
    }

    /// All descendant nodes in document order (excluding attributes
    /// and self).
    pub fn descendants(&self) -> Vec<NodeHandle> {
        let mut out = Vec::new();
        fn walk(n: &NodeHandle, out: &mut Vec<NodeHandle>) {
            for c in n.children() {
                out.push(c.clone());
                walk(&c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// A document-order walk of this node's subtree, this node first.
    pub fn walk(&self) -> Walk {
        // Room for the depth of most trees, so that a walk allocates once.
        let mut stack = Vec::with_capacity(8);
        stack.push((self.now(NodeHandle::clone), 0));
        Walk { stack, fresh: true, left: false }
    }

    /// Ancestors from parent to root.
    pub fn ancestors(&self) -> Vec<NodeHandle> {
        let mut out = Vec::new();
        let mut cur = self.parent();
        while let Some(p) = cur {
            cur = p.parent();
            out.push(p);
        }
        out
    }

    /// Following siblings in document order.
    pub fn following_siblings(&self) -> Vec<NodeHandle> {
        match self.parent() {
            None => Vec::new(),
            Some(p) => {
                let sibs = p.children();
                let pos = sibs.iter().position(|s| s == self);
                match pos {
                    Some(i) => sibs[i + 1..].to_vec(),
                    None => Vec::new(),
                }
            }
        }
    }

    /// Preceding siblings in reverse document order.
    pub fn preceding_siblings(&self) -> Vec<NodeHandle> {
        match self.parent() {
            None => Vec::new(),
            Some(p) => {
                let sibs = p.children();
                let pos = sibs.iter().position(|s| s == self);
                match pos {
                    Some(i) => {
                        let mut v = sibs[..i].to_vec();
                        v.reverse();
                        v
                    }
                    None => Vec::new(),
                }
            }
        }
    }

    /// Append to `out` the nodes on `axis` from this node that `keep`
    /// accepts, in axis order: document order on the forward axes
    /// ([`Axis::is_forward`]), nearest first on the others. `keep`
    /// sees each candidate's kind and borrowed name, so a path step
    /// keeps a handle only for a node its test matches. The descendant
    /// axes run on [`NodeHandle::walk`]. `out` is any collection, a
    /// `Sequence` among them, so a step that keeps one node need not
    /// build a vector for it.
    pub fn walk_axis<T: From<NodeHandle>, E: Extend<T>>(
        &self,
        axis: Axis,
        mut keep: impl FnMut(NodeKind, Option<&QName>) -> bool,
        out: &mut E,
    ) {
        let moved = self.resolve_if_moved();
        let me = moved.as_ref().unwrap_or(self);
        let mut keep_handle = |h: NodeHandle, out: &mut E| {
            if h.with_name(|name| keep(h.kind(), name)) {
                out.extend(Some(h.into()));
            }
        };
        match axis {
            Axis::Child => {
                // A local child is tested where it lies, and gets a
                // handle only if kept; a graft's root through its view.
                let arena = me.arena.borrow();
                for e in arena.data(me.id).children() {
                    let kept = match e {
                        ChildEntry::Local(c) => {
                            let d = arena.data(*c);
                            keep(d.kind(), d.name()).then(|| me.at(*c))
                        }
                        graft => Some(me.entry_handle(graft))
                            .filter(|g| g.with(|d| keep(d.kind(), d.name()))),
                    };
                    out.extend(kept.map(Into::into));
                }
            }
            Axis::Attribute => {
                let arena = me.arena.borrow();
                for &id in arena.data(me.id).body.attrs() {
                    let d = arena.data(id);
                    if keep(d.kind(), d.name()) {
                        out.extend(Some(me.at(id).into()));
                    }
                }
            }
            Axis::SelfAxis => keep_handle(self.clone(), out),
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf {
                    keep_handle(self.clone(), out);
                }
                let mut walk = me.walk();
                walk.next(); // `me` itself
                walk.for_each(|n| {
                    if n.with(|d| keep(d.kind(), d.name())) {
                        out.extend(Some(n.clone().into()));
                    }
                    true
                });
            }
            Axis::Parent => {
                if let Some(p) = me.parent() {
                    keep_handle(p, out);
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if axis == Axis::AncestorOrSelf {
                    keep_handle(self.clone(), out);
                }
                let mut cur = me.parent();
                while let Some(p) = cur {
                    cur = p.parent();
                    keep_handle(p, out);
                }
            }
            Axis::FollowingSibling => {
                for s in me.following_siblings() {
                    keep_handle(s, out);
                }
            }
            Axis::PrecedingSibling => {
                for s in me.preceding_siblings() {
                    keep_handle(s, out);
                }
            }
        }
    }

    /// Structural path from the root, for document-order comparison.
    fn path(&self) -> Vec<PathStep> {
        let mut steps = Vec::new();
        let mut cur = self.now(NodeHandle::clone);
        while let Some(p) = cur.parent() {
            let step = if cur.kind() == NodeKind::Attribute {
                let idx = p
                    .attributes()
                    .iter()
                    .position(|a| *a == cur)
                    .expect("attribute listed in parent");
                PathStep::Attr(idx)
            } else {
                let idx = p
                    .children()
                    .iter()
                    .position(|c| *c == cur)
                    .expect("child listed in parent");
                PathStep::Child(idx)
            };
            steps.push(step);
            cur = p;
        }
        steps.reverse();
        steps
    }

    /// Total document order: within one tree, ancestors precede
    /// descendants and siblings compare by position (through grafts);
    /// across trees, roots give a stable arbitrary order by (arena
    /// stamp, root id) — a root's arena is the host arena even when
    /// parts of the tree are grafted from elsewhere.
    pub fn document_order(&self, other: &NodeHandle) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        let (ra, rb) = (self.root(), other.root());
        if ra == rb {
            return self.path().cmp(&other.path());
        }
        let (sa, sb) = (ra.arena.borrow().stamp, rb.arena.borrow().stamp);
        if sa != sb {
            sa.cmp(&sb)
        } else {
            ra.id.cmp(&rb.id)
        }
    }

    // ------------------------------------------------------------------
    // Grafting (structural sharing) internals.
    // ------------------------------------------------------------------

    /// Whether this element can be adopted by reference into `target`
    /// without a deep copy: a different arena that is either already
    /// sealed (source caches, previously shared trees) or holds this
    /// node as a detached root (a freshly constructed tree, sealed on
    /// share).
    pub fn graftable_into(&self, target: &SharedArena) -> bool {
        let me = self.now(NodeHandle::clone);
        if me.kind() != NodeKind::Element || Rc::ptr_eq(&me.arena, target) {
            return false;
        }
        if me.link.is_some() {
            // A view into a grafted (hence sealed) subtree.
            return me.arena.borrow().sealed;
        }
        let a = me.arena.borrow();
        a.sealed || a.data(me.id).parent.is_none()
    }

    /// Adopt `sub_root`'s subtree as this node's last child **by
    /// reference**: no copy, the source arena is sealed and shared.
    /// Returns the graft view handle (the new logical child).
    pub fn graft_child(&self, sub_root: &NodeHandle) -> XdmResult<NodeHandle> {
        let me = self.ensure_local();
        match me.kind() {
            NodeKind::Document | NodeKind::Element => {}
            k => {
                return Err(XdmError::new(
                    ErrorCode::XUTY0008,
                    format!("cannot graft child into {k:?} node"),
                ))
            }
        }
        let sub = sub_root.now(NodeHandle::clone);
        if sub.kind() != NodeKind::Element {
            return Err(XdmError::new(
                ErrorCode::XUTY0008,
                "graft_child requires an element",
            ));
        }
        if Rc::ptr_eq(&me.arena, &sub.arena) {
            return Err(XdmError::new(
                ErrorCode::XUTY0008,
                "graft_child requires a cross-arena source",
            ));
        }
        if me.arena.borrow().sealed {
            return Err(XdmError::new(
                ErrorCode::XUTY0008,
                "graft host arena is sealed",
            ));
        }
        sub.arena.borrow_mut().sealed = true;
        count_graft(subtree_size(&sub));
        let entry = ChildEntry::Graft(Rc::new(GraftCtx {
            sub: sub.arena.clone(),
            root: sub.id,
            state: RefCell::new(GraftState::Live),
        }));
        {
            let mut arena = me.arena.borrow_mut();
            arena.grafted = true;
            let children = arena.data_mut(me.id).body.children_mut().expect("kind checked above");
            children.push(entry.clone());
        }
        Ok(me.entry_handle(&entry))
    }

    /// Resolve any materialized graft, then — if the handle still views
    /// a live grafted region — fire copy-on-write: materialize the
    /// outermost graft into its host arena and return the local copy.
    fn ensure_local(&self) -> NodeHandle {
        let me = self.now(NodeHandle::clone);
        let Some(link) = me.link.clone() else { return me };
        let mut outer = link;
        while let Some(next) = outer.host_link.clone() {
            outer = next;
        }
        materialize(&outer.ctx, &outer.host_arena, outer.host_id);
        match me.resolve_if_moved() {
            Some(h) => h.ensure_local(),
            None => me,
        }
    }
}

/// What a [`Walk`] step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Reached [`Walk::node`]; its children come next unless
    /// [`Walk::skip`] is called.
    Enter,
    /// Done with the children of [`Walk::node`].
    Leave,
}

/// A document-order walk of a subtree ([`NodeHandle::walk`]). It keeps
/// its place on an explicit stack of (open node, next child slot)
/// pairs, so no tree depth can overflow the call stack, and it reaches
/// each child through `entry_handle`, crossing grafts as the child axis
/// does. Attributes are not steps: a visitor reads an
/// element's attributes when it enters the element.
pub struct Walk {
    stack: Vec<(NodeHandle, usize)>,
    /// The root is still to be entered.
    fresh: bool,
    /// The last step left the top node, which the next step pops.
    left: bool,
}

impl Walk {
    /// The next step, or `None` once the root has been left.
    #[allow(clippy::should_implement_trait)] // it lends `node()`
    pub fn next(&mut self) -> Option<Visit> {
        if std::mem::take(&mut self.fresh) {
            return Some(Visit::Enter);
        }
        if std::mem::take(&mut self.left) {
            self.stack.pop();
        }
        let (top, next) = self.stack.last_mut()?;
        match top.with(|d| d.children().get(*next).map(|e| top.entry_handle(e))) {
            Some(child) => {
                *next += 1;
                self.stack.push((child, 0));
                Some(Visit::Enter)
            }
            None => {
                self.left = true;
                Some(Visit::Leave)
            }
        }
    }

    /// The node the last step entered or left.
    pub fn node(&self) -> &NodeHandle {
        &self.stack.last().expect("a step was taken").0
    }

    /// Do not walk the children of the node just entered; no
    /// [`Visit::Leave`] comes for it.
    pub fn skip(&mut self) {
        debug_assert!(!self.fresh && !self.left, "skip follows an Enter");
        self.stack.pop();
    }

    /// The number of open nodes, the current one included: 1 at the
    /// root.
    pub(crate) fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Enter every remaining node, walking the children of those `f`
    /// returns true for.
    pub(crate) fn for_each(mut self, mut f: impl FnMut(&NodeHandle) -> bool) {
        while let Some(v) = self.next() {
            if v == Visit::Enter && !f(self.node()) {
                self.skip();
            }
        }
    }
}

/// Copy-on-write: replace the graft entry under `(host_arena,
/// host_id)` with a private deep copy, recording the id map so
/// outstanding view handles follow the copy.
fn materialize(ctx: &Rc<GraftCtx>, host_arena: &SharedArena, host_id: NodeId) {
    if !matches!(&*ctx.state.borrow(), GraftState::Live) {
        return;
    }
    count_graft_cow();
    let mut map = HashMap::new();
    let root = NodeHandle::new(ctx.sub.clone(), ctx.root);
    let new_root = copy_tree(&root, host_arena, Some(&mut map));
    {
        let mut host = host_arena.borrow_mut();
        host.data_mut(new_root).parent = Some(host_id);
        if let Some(children) = host.data_mut(host_id).body.children_mut() {
            for e in children.as_mut_slice() {
                let replace = matches!(e, ChildEntry::Graft(c) if Rc::ptr_eq(c, ctx));
                if replace {
                    *e = ChildEntry::Local(new_root);
                    break;
                }
            }
        }
    }
    *ctx.state.borrow_mut() = GraftState::Materialized { map };
}

/// The deep copy: copy the subtree at `src`, through any grafts, into
/// `target` as a detached tree of fresh nodes, and return its root.
/// With `map`, record every copied node's `(source arena stamp, source
/// id) -> copy id`, for copy-on-write. `target` may be `src`'s own
/// arena: no borrow of a source arena is held while `target` grows.
fn copy_tree(
    src: &NodeHandle,
    target: &SharedArena,
    mut map: Option<&mut HashMap<(u64, NodeId), NodeId>>,
) -> NodeId {
    let mut walk = src.walk();
    let (mut root, mut parent) = (None, None);
    while let Some(v) = walk.next() {
        if v == Visit::Leave {
            parent = parent.and_then(|p| target.borrow().data(p).parent);
            continue;
        }
        let n = walk.node();
        let (stamp, body, kids) = {
            let a = n.arena.borrow();
            let d = a.data(n.id);
            let body = match &d.body {
                NodeBody::Element { name, children, extra } => NodeBody::element(
                    name.clone(),
                    Children::with_capacity(children.as_slice().len()),
                    extra.as_ref().map(|x| x.ns_decls.clone()).unwrap_or_default(),
                ),
                NodeBody::Document { children } => NodeBody::Document {
                    children: Children::with_capacity(children.as_slice().len()),
                },
                leaf => leaf.clone(),
            };
            (a.stamp, body, d.children().len())
        };
        let id = {
            let mut t = target.borrow_mut();
            let id = t.alloc(parent, body);
            if let Some(p) = parent {
                let slots = t.data_mut(p).body.children_mut().expect("a parent holds children");
                slots.push(ChildEntry::Local(id));
            }
            id
        };
        root.get_or_insert(id);
        if let Some(m) = map.as_deref_mut() {
            m.insert((stamp, n.id), id);
        }
        for i in 0.. {
            let attr = {
                let a = n.arena.borrow();
                a.data(n.id).body.attrs().get(i).map(|&aid| (aid, a.data(aid).body.clone()))
            };
            let Some((aid, body)) = attr else { break };
            let mut t = target.borrow_mut();
            let na = t.alloc(Some(id), body);
            t.data_mut(id).body.extra_mut().expect("an element").attrs.push(na);
            if let Some(m) = map.as_deref_mut() {
                m.insert((stamp, aid), na);
            }
        }
        if kids > 0 {
            parent = Some(id);
        } else {
            walk.skip();
        }
    }
    root.expect("a walk enters its root")
}

impl NodeHandle {
    // ------------------------------------------------------------------
    // Mutation primitives (builders + XQuery Update Facility).
    // ------------------------------------------------------------------

    fn same_arena(&self, other: &NodeHandle) -> bool {
        Rc::ptr_eq(&self.arena, &other.arena)
    }

    /// Import `node` into this handle's arena if needed (deep copy);
    /// returns a handle in this arena.
    pub fn import(&self, node: &NodeHandle) -> NodeHandle {
        if self.same_arena(node) && node.link.is_none() {
            node.clone()
        } else {
            node.deep_copy_into(&self.arena)
        }
    }

    /// Deep-copy this node (and subtree) into the target arena,
    /// producing a detached node with fresh identity.
    pub fn deep_copy_into(&self, target: &SharedArena) -> NodeHandle {
        NodeHandle::new(target.clone(), copy_tree(self, target, None))
    }

    /// Deep-copy within a fresh arena (the XQuery `element {…}`
    /// constructor copies content, giving new identities).
    pub fn deep_copy(&self) -> NodeHandle {
        let arena = NodeArena::new();
        self.deep_copy_into(&arena)
    }

    fn push_child_raw(&self, child: &NodeHandle) {
        debug_assert!(self.same_arena(child));
        debug_assert!(self.link.is_none() && child.link.is_none());
        let mut arena = self.arena.borrow_mut();
        arena.data_mut(child.id).parent = Some(self.id);
        match arena.data_mut(self.id).body.children_mut() {
            Some(children) => children.push(ChildEntry::Local(child.id)),
            None => panic!("push_child on leaf node"),
        }
    }

    fn push_attribute_raw(&self, attr: &NodeHandle) {
        debug_assert!(self.same_arena(attr));
        let mut arena = self.arena.borrow_mut();
        arena.data_mut(attr.id).parent = Some(self.id);
        match arena.data_mut(self.id).body.extra_mut() {
            Some(x) => x.attrs.push(attr.id),
            None => panic!("push_attribute on non-element"),
        }
    }

    /// Append a child, importing across arenas and merging adjacent
    /// text nodes (XDM: no two adjacent text siblings).
    ///
    /// A builder's append, of a node in this node's own arena with
    /// neither handle reached through a graft, takes one arena borrow:
    /// nothing needs resolving, importing or copying. Anything else
    /// first resolves copy-on-write for this node and imports the child.
    pub fn append_child(&self, child: &NodeHandle) -> XdmResult<NodeHandle> {
        if self.link.is_none() && child.link.is_none() && self.same_arena(child) {
            return self.append_local(child);
        }
        let me = self.ensure_local();
        let child = me.import(child);
        me.append_local(&child)
    }

    /// [`NodeHandle::append_child`] of a child in this node's arena,
    /// neither handle reached through a graft, under one borrow.
    fn append_local(&self, child: &NodeHandle) -> XdmResult<NodeHandle> {
        let mut arena = self.arena.borrow_mut();
        let me = arena.data(self.id);
        match me.kind() {
            NodeKind::Document | NodeKind::Element => {}
            k => {
                let msg = format!("cannot append child to {k:?} node");
                return Err(XdmError::new(ErrorCode::XUTY0008, msg));
            }
        }
        let text = match &arena.data(child.id).body {
            NodeBody::Attribute { .. } => {
                return Err(XdmError::new(ErrorCode::XUTY0008, "cannot append attribute as child"))
            }
            NodeBody::Text { content } => Some(content.clone()),
            _ => None,
        };
        // Merge adjacent text. A graft entry is an element, so only a
        // local last entry can be a text node.
        if let Some(text) = text {
            if let Some(&ChildEntry::Local(last)) = me.children().last() {
                if let NodeBody::Text { content } = &mut arena.data_mut(last).body {
                    let mut merged = String::with_capacity(content.len() + text.len());
                    merged.push_str(content);
                    merged.push_str(&text);
                    *content = Rc::from(merged);
                    return Ok(NodeHandle { arena: self.arena.clone(), id: last, link: None });
                }
            }
            if text.is_empty() {
                return Ok(child.clone());
            }
        }
        arena.data_mut(child.id).parent = Some(self.id);
        let children = arena.data_mut(self.id).body.children_mut().expect("kind checked above");
        children.push(ChildEntry::Local(child.id));
        Ok(child.clone())
    }

    /// Set or add an attribute on an element.
    pub fn set_attribute(&self, attr: &NodeHandle) -> XdmResult<NodeHandle> {
        let me = self.ensure_local();
        if me.kind() != NodeKind::Element {
            return Err(XdmError::new(
                ErrorCode::XUTY0008,
                "attributes only on elements",
            ));
        }
        if attr.kind() != NodeKind::Attribute {
            return Err(XdmError::new(
                ErrorCode::XUTY0008,
                "set_attribute requires an attribute node",
            ));
        }
        let attr = me.import(attr);
        let name = attr.name().expect("attribute has name");
        if let Some(existing) = me.attribute(&name) {
            existing.set_content(attr.content().unwrap_or_default());
            Ok(existing)
        } else {
            me.push_attribute_raw(&attr);
            Ok(attr)
        }
    }

    /// Detach this node from its parent (XUF `delete`). Detaching a
    /// grafted child removes the graft entry from its host without
    /// copying; detaching *inside* a grafted region copies-on-write
    /// first.
    pub fn detach(&self) {
        let me = self.now(NodeHandle::clone);
        if let Some(link) = &me.link {
            if me.id == link.ctx.root && Rc::ptr_eq(&me.arena, &link.ctx.sub) {
                {
                    let mut host = link.host_arena.borrow_mut();
                    if let Some(children) = host.data_mut(link.host_id).body.children_mut() {
                        children.retain(|e| {
                            !matches!(e, ChildEntry::Graft(c) if Rc::ptr_eq(c, &link.ctx))
                        });
                    }
                }
                *link.ctx.state.borrow_mut() = GraftState::Detached;
                return;
            }
            me.ensure_local().detach();
            return;
        }
        let parent = me.with(|d| d.parent);
        let Some(pid) = parent else { return };
        let mut arena = me.arena.borrow_mut();
        match &mut arena.data_mut(pid).body {
            NodeBody::Document { children } => {
                children.retain(|e| !matches!(e, ChildEntry::Local(c) if *c == me.id))
            }
            NodeBody::Element { children, extra, .. } => {
                children.retain(|e| !matches!(e, ChildEntry::Local(c) if *c == me.id));
                if let Some(x) = extra {
                    x.attrs.retain(|a| *a != me.id);
                }
            }
            _ => {}
        }
        arena.data_mut(me.id).parent = None;
    }

    /// Insert `new` immediately before this node among its siblings
    /// (XUF `insert … before`).
    pub fn insert_before(&self, new: &NodeHandle) -> XdmResult<()> {
        self.insert_adjacent(new, 0)
    }

    /// Insert `new` immediately after this node among its siblings
    /// (XUF `insert … after`).
    pub fn insert_after(&self, new: &NodeHandle) -> XdmResult<()> {
        self.insert_adjacent(new, 1)
    }

    fn insert_adjacent(&self, new: &NodeHandle, offset: usize) -> XdmResult<()> {
        let parent = self.parent().ok_or_else(|| {
            XdmError::new(ErrorCode::XUTY0008, "target has no parent")
        })?;
        // Mutating the sibling list of a node inside a grafted region
        // copies the region first; the target's position is recomputed
        // through the recorded id map afterwards.
        let parent = parent.ensure_local();
        let me = self.now(NodeHandle::clone);
        let pos = parent
            .children()
            .iter()
            .position(|c| *c == me)
            .ok_or_else(|| XdmError::new(ErrorCode::XUTY0008, "target not a child"))?;
        let new = parent.import(new);
        let mut arena = parent.arena.borrow_mut();
        arena.data_mut(new.id).parent = Some(parent.id);
        match arena.data_mut(parent.id).body.children_mut() {
            Some(children) => {
                children.insert(pos + offset, ChildEntry::Local(new.id));
                Ok(())
            }
            None => Err(XdmError::new(ErrorCode::XUTY0008, "parent cannot hold children")),
        }
    }

    /// Insert `new` as the first child (XUF `insert … as first into`).
    pub fn insert_first_child(&self, new: &NodeHandle) -> XdmResult<()> {
        let me = self.ensure_local();
        match me.kind() {
            NodeKind::Document | NodeKind::Element => {}
            _ => {
                return Err(XdmError::new(
                    ErrorCode::XUTY0008,
                    "insert into leaf node",
                ))
            }
        }
        let new = me.import(new);
        let mut arena = me.arena.borrow_mut();
        arena.data_mut(new.id).parent = Some(me.id);
        let children = arena.data_mut(me.id).body.children_mut().expect("kind checked above");
        children.insert(0, ChildEntry::Local(new.id));
        Ok(())
    }

    /// Replace this node with a sequence of new nodes (XUF `replace`).
    pub fn replace_with(&self, news: &[NodeHandle]) -> XdmResult<()> {
        let parent = self.parent().ok_or_else(|| {
            XdmError::new(ErrorCode::XUTY0008, "replace target has no parent")
        })?;
        if self.kind() == NodeKind::Attribute {
            for n in news {
                if n.kind() != NodeKind::Attribute {
                    return Err(XdmError::new(
                        ErrorCode::XUTY0008,
                        "attribute may only be replaced by attributes",
                    ));
                }
            }
            self.detach();
            for n in news {
                parent.set_attribute(n)?;
            }
            return Ok(());
        }
        for n in news {
            self.insert_before(n)?;
        }
        self.detach();
        Ok(())
    }

    /// Replace the value of a text/attribute node, or the entire text
    /// content of an element (XUF `replace value of`).
    pub fn replace_value(&self, value: &str) -> XdmResult<()> {
        match self.kind() {
            NodeKind::Attribute | NodeKind::Text | NodeKind::Comment | NodeKind::Pi => {
                self.set_content(value.to_string());
                Ok(())
            }
            NodeKind::Element => {
                let me = self.ensure_local();
                for c in me.children() {
                    c.detach();
                }
                if !value.is_empty() {
                    let t = NodeHandle::new_text(&me.arena, value);
                    me.push_child_raw(&t);
                }
                Ok(())
            }
            NodeKind::Document => Err(XdmError::new(
                ErrorCode::XUTY0008,
                "cannot replace value of document node",
            )),
        }
    }

    /// Rename an element or attribute (XUF `rename`).
    pub fn rename(&self, new_name: QName) -> XdmResult<()> {
        let me = self.ensure_local();
        let mut arena = me.arena.borrow_mut();
        match &mut arena.data_mut(me.id).body {
            NodeBody::Element { name, .. } | NodeBody::Attribute { name, .. } => {
                *name = new_name;
                Ok(())
            }
            _ => Err(XdmError::new(
                ErrorCode::XUTY0008,
                "rename target must be element or attribute",
            )),
        }
    }

    fn set_content(&self, value: String) {
        let me = self.ensure_local();
        let mut arena = me.arena.borrow_mut();
        match &mut arena.data_mut(me.id).body {
            NodeBody::Attribute { value: v, .. } => *v = Rc::from(value),
            NodeBody::Text { content }
            | NodeBody::Comment { content }
            | NodeBody::Pi { content, .. } => *content = Rc::from(value),
            _ => {}
        }
    }

    /// Deep structural equality (`fn:deep-equal` on nodes): same kind,
    /// name, attributes (order-insensitive), and children (order-
    /// sensitive, comments and PIs ignored), ignoring node identity.
    /// The two trees are walked in step.
    pub fn deep_equal(&self, other: &NodeHandle) -> bool {
        fn step(w: &mut Walk) -> Option<Visit> {
            loop {
                let v = w.next()?;
                let ignored = || w.node().with(|d| matches!(d.kind(), NodeKind::Comment | NodeKind::Pi));
                if v == Visit::Enter && w.depth() > 1 && ignored() {
                    w.skip();
                } else {
                    return Some(v);
                }
            }
        }
        let (mut a, mut b) = (self.walk(), other.walk());
        loop {
            match (step(&mut a), step(&mut b)) {
                (None, None) => return true,
                (Some(Visit::Enter), Some(Visit::Enter)) if a.node().same_shallow(b.node()) => {}
                (Some(Visit::Leave), Some(Visit::Leave)) => {}
                _ => return false,
            }
        }
    }

    /// Whether two nodes have the same kind, name, content and
    /// attributes, their children aside.
    fn same_shallow(&self, other: &NodeHandle) -> bool {
        // Attributes by expanded name, without allocating clark strings.
        fn attrs<'a>(a: &'a NodeArena, d: &NodeData) -> Vec<&'a NodeData> {
            let mut v: Vec<_> = d.body.attrs().iter().map(|&i| a.data(i)).collect();
            v.sort_by(|p, q| {
                p.name().zip(q.name()).map_or(Ordering::Equal, |(p, q)| p.cmp_expanded(q))
            });
            v
        }
        let (a, b) = (self.arena.borrow(), other.arena.borrow());
        let (x, y) = (a.data(self.id), b.data(other.id));
        fn shallow(n: &NodeData) -> (NodeKind, Option<&QName>, Option<&Rc<str>>) {
            (n.kind(), n.name(), n.body.content())
        }
        shallow(x) == shallow(y)
            && attrs(&a, x).into_iter().map(shallow).eq(attrs(&b, y).into_iter().map(shallow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> NodeHandle {
        // <root a="1"><x>hello</x><y><z/>world</y></root>
        let root = NodeHandle::root_element(QName::new("root"));
        let arena = root.arena().clone();
        let a = NodeHandle::new_attribute(&arena, QName::new("a"), "1");
        root.set_attribute(&a).unwrap();
        let x = NodeHandle::new_element(&arena, QName::new("x"));
        root.append_child(&x).unwrap();
        x.append_child(&NodeHandle::new_text(&arena, "hello")).unwrap();
        let y = NodeHandle::new_element(&arena, QName::new("y"));
        root.append_child(&y).unwrap();
        let z = NodeHandle::new_element(&arena, QName::new("z"));
        y.append_child(&z).unwrap();
        y.append_child(&NodeHandle::new_text(&arena, "world")).unwrap();
        root
    }

    #[test]
    fn navigation_and_string_value() {
        let root = sample_tree();
        assert_eq!(root.kind(), NodeKind::Element);
        assert_eq!(root.children().len(), 2);
        assert_eq!(root.string_value(), "helloworld");
        let x = &root.children()[0];
        assert_eq!(x.name().unwrap().local, "x");
        assert_eq!(x.string_value(), "hello");
        assert_eq!(x.parent().unwrap(), root);
        assert_eq!(root.attribute(&QName::new("a")).unwrap().content().unwrap(), "1");
        assert!(root.attribute(&QName::new("b")).is_none());
    }

    #[test]
    fn identity_vs_structural_equality() {
        let t1 = sample_tree();
        let t2 = sample_tree();
        assert_ne!(t1, t2); // distinct identities
        assert!(t1.deep_equal(&t2)); // same structure
        let copy = t1.deep_copy();
        assert_ne!(t1, copy);
        assert!(t1.deep_equal(&copy));
    }

    #[test]
    fn document_order_is_preorder() {
        let root = sample_tree();
        let kids = root.children();
        let (x, y) = (&kids[0], &kids[1]);
        let z = &y.children()[0];
        assert_eq!(root.document_order(x), std::cmp::Ordering::Less);
        assert_eq!(x.document_order(y), std::cmp::Ordering::Less);
        assert_eq!(y.document_order(z), std::cmp::Ordering::Less);
        assert_eq!(x.document_order(z), std::cmp::Ordering::Less);
        assert_eq!(z.document_order(x), std::cmp::Ordering::Greater);
        assert_eq!(x.document_order(x), std::cmp::Ordering::Equal);
        // Attribute follows the element but precedes its children.
        let a = root.attribute(&QName::new("a")).unwrap();
        assert_eq!(root.document_order(&a), std::cmp::Ordering::Less);
        assert_eq!(a.document_order(x), std::cmp::Ordering::Less);
    }

    #[test]
    fn cross_arena_order_is_stable() {
        let t1 = sample_tree();
        let t2 = sample_tree();
        let o12 = t1.document_order(&t2);
        let o21 = t2.document_order(&t1);
        assert_ne!(o12, std::cmp::Ordering::Equal);
        assert_eq!(o12, o21.reverse());
    }

    #[test]
    fn descendants_in_document_order() {
        let root = sample_tree();
        let names: Vec<String> = root
            .descendants()
            .iter()
            .map(|n| match n.kind() {
                NodeKind::Element => n.name().unwrap().local.to_string(),
                NodeKind::Text => format!("#{}", n.content().unwrap()),
                _ => "?".into(),
            })
            .collect();
        assert_eq!(names, vec!["x", "#hello", "y", "z", "#world"]);
    }

    #[test]
    fn text_merging_on_append() {
        let e = NodeHandle::root_element(QName::new("e"));
        let arena = e.arena().clone();
        e.append_child(&NodeHandle::new_text(&arena, "a")).unwrap();
        e.append_child(&NodeHandle::new_text(&arena, "b")).unwrap();
        assert_eq!(e.children().len(), 1);
        assert_eq!(e.string_value(), "ab");
        // Empty text is dropped.
        e.append_child(&NodeHandle::new_element(&arena, QName::new("c"))).unwrap();
        e.append_child(&NodeHandle::new_text(&arena, "")).unwrap();
        assert_eq!(e.children().len(), 2);
    }

    #[test]
    fn detach_and_reinsert() {
        let root = sample_tree();
        let kids = root.children();
        let x = kids[0].clone();
        x.detach();
        assert_eq!(root.children().len(), 1);
        assert!(x.parent().is_none());
        let y = &root.children()[0];
        y.insert_before(&x).unwrap();
        assert_eq!(root.children()[0], x);
    }

    #[test]
    fn insert_before_after_first() {
        let root = sample_tree();
        let arena = root.arena().clone();
        let n = NodeHandle::new_element(&arena, QName::new("n"));
        root.children()[0].insert_after(&n).unwrap();
        let names: Vec<_> = root
            .children()
            .iter()
            .map(|c| c.name().unwrap().local)
            .collect();
        assert_eq!(names, vec!["x", "n", "y"]);
        let m = NodeHandle::new_element(&arena, QName::new("m"));
        root.insert_first_child(&m).unwrap();
        assert_eq!(root.children()[0].name().unwrap().local, "m");
    }

    #[test]
    fn replace_with_and_replace_value() {
        let root = sample_tree();
        let arena = root.arena().clone();
        let r1 = NodeHandle::new_element(&arena, QName::new("r1"));
        let r2 = NodeHandle::new_element(&arena, QName::new("r2"));
        root.children()[0].replace_with(&[r1, r2]).unwrap();
        let names: Vec<_> = root
            .children()
            .iter()
            .map(|c| c.name().unwrap().local)
            .collect();
        assert_eq!(names, vec!["r1", "r2", "y"]);
        let y = root.children()[2].clone();
        y.replace_value("flat").unwrap();
        assert_eq!(y.children().len(), 1);
        assert_eq!(y.string_value(), "flat");
    }

    #[test]
    fn rename_element_and_attribute() {
        let root = sample_tree();
        root.rename(QName::new("renamed")).unwrap();
        assert_eq!(root.name().unwrap().local, "renamed");
        let a = root.attribute(&QName::new("a")).unwrap();
        a.rename(QName::new("b")).unwrap();
        assert!(root.attribute(&QName::new("a")).is_none());
        assert!(root.attribute(&QName::new("b")).is_some());
        let t = root.children()[0].children().first().cloned();
        if let Some(t) = t {
            if t.kind() == NodeKind::Text {
                assert!(t.rename(QName::new("x")).is_err());
            }
        }
    }

    #[test]
    fn import_copies_across_arenas() {
        let t1 = sample_tree();
        let t2 = sample_tree();
        let x2 = t2.children()[0].clone();
        let before = t2.children().len();
        t1.append_child(&x2).unwrap();
        // Original tree unaffected — append imported a copy.
        assert_eq!(t2.children().len(), before);
        assert_eq!(t1.children().len(), 3);
    }

    #[test]
    fn set_attribute_overwrites_same_name() {
        let root = sample_tree();
        let arena = root.arena().clone();
        let a2 = NodeHandle::new_attribute(&arena, QName::new("a"), "2");
        root.set_attribute(&a2).unwrap();
        assert_eq!(root.attributes().len(), 1);
        assert_eq!(
            root.attribute(&QName::new("a")).unwrap().content().unwrap(),
            "2"
        );
    }

    #[test]
    fn append_child_rejects_bad_shapes() {
        let root = sample_tree();
        let arena = root.arena().clone();
        let a = NodeHandle::new_attribute(&arena, QName::new("q"), "v");
        assert!(root.append_child(&a).is_err());
        let t = NodeHandle::new_text(&arena, "t");
        assert!(t.append_child(&root).is_err());
    }

    #[test]
    fn deep_equal_ignores_attr_order_and_comments() {
        let e1 = NodeHandle::root_element(QName::new("e"));
        let a1 = e1.arena().clone();
        e1.set_attribute(&NodeHandle::new_attribute(&a1, QName::new("p"), "1")).unwrap();
        e1.set_attribute(&NodeHandle::new_attribute(&a1, QName::new("q"), "2")).unwrap();
        e1.append_child(&NodeHandle::new_comment(&a1, "ignore me")).unwrap();

        let e2 = NodeHandle::root_element(QName::new("e"));
        let a2 = e2.arena().clone();
        e2.set_attribute(&NodeHandle::new_attribute(&a2, QName::new("q"), "2")).unwrap();
        e2.set_attribute(&NodeHandle::new_attribute(&a2, QName::new("p"), "1")).unwrap();

        assert!(e1.deep_equal(&e2));
    }

    #[test]
    fn sibling_axes() {
        let root = sample_tree();
        let kids = root.children();
        let (x, y) = (&kids[0], &kids[1]);
        assert_eq!(x.following_siblings(), vec![y.clone()]);
        assert_eq!(y.preceding_siblings(), vec![x.clone()]);
        assert!(root.following_siblings().is_empty());
    }

    #[test]
    fn ancestors_and_root() {
        let root = sample_tree();
        let z = root.children()[1].children()[0].clone();
        let anc: Vec<_> = z
            .ancestors()
            .iter()
            .map(|n| n.name().unwrap().local.clone())
            .collect();
        assert_eq!(anc, vec!["y", "root"]);
        assert_eq!(z.root(), root);
    }

    #[test]
    fn document_node_wraps_element() {
        let doc = NodeHandle::new_document();
        let e = NodeHandle::new_element(doc.arena(), QName::new("top"));
        doc.append_child(&e).unwrap();
        assert_eq!(doc.kind(), NodeKind::Document);
        assert_eq!(e.root(), doc);
        assert_eq!(doc.children().len(), 1);
    }

    // ------------------------------------------------------------------
    // Grafting.
    // ------------------------------------------------------------------

    fn host_with_graft() -> (NodeHandle, NodeHandle, NodeHandle) {
        // host <profile><local/></profile> grafting sample_tree's root.
        let src = sample_tree();
        let host = NodeHandle::root_element(QName::new("profile"));
        let local = NodeHandle::new_element(host.arena(), QName::new("local"));
        host.append_child(&local).unwrap();
        let view = host.graft_child(&src).unwrap();
        (host, src, view)
    }

    #[test]
    fn graft_reads_like_a_copy() {
        let (host, src, view) = host_with_graft();
        assert!(src.is_sealed());
        assert_eq!(host.children().len(), 2);
        let g = &host.children()[1];
        assert_eq!(*g, view);
        assert_eq!(g.name().unwrap().local, "root");
        assert_eq!(g.string_value(), "helloworld");
        assert_eq!(g.children().len(), 2);
        assert_eq!(g.attribute(&QName::new("a")).unwrap().content().unwrap(), "1");
        // Parent axis walks into the host at the graft root.
        assert_eq!(g.parent().unwrap(), host);
        assert_eq!(g.children()[0].parent().unwrap(), *g);
        assert_eq!(g.children()[0].root(), host);
        // The source node itself still has no parent and its own root.
        assert!(src.parent().is_none());
        assert_eq!(src.root(), src);
    }

    #[test]
    fn graft_view_has_distinct_identity() {
        let (host, src, view) = host_with_graft();
        // The view is a different logical node than the source…
        assert_ne!(view, src);
        // …and a second graft of the same source is different again.
        let host2 = NodeHandle::root_element(QName::new("profile2"));
        let view2 = host2.graft_child(&src).unwrap();
        assert_ne!(view, view2);
        // Stable identity across repeated navigation.
        assert_eq!(host.children()[1], host.children()[1]);
        assert!(view.deep_equal(&src));
        assert!(view.deep_equal(&view2));
    }

    #[test]
    fn graft_document_order_follows_host() {
        let (host, _src, view) = host_with_graft();
        let local = &host.children()[0];
        assert_eq!(host.document_order(local), std::cmp::Ordering::Less);
        assert_eq!(local.document_order(&view), std::cmp::Ordering::Less);
        let inner = &view.children()[0]; // <x>
        assert_eq!(view.document_order(inner), std::cmp::Ordering::Less);
        assert_eq!(inner.document_order(local), std::cmp::Ordering::Greater);
        // Following-sibling across the graft boundary.
        assert_eq!(local.following_siblings(), vec![view.clone()]);
        assert_eq!(view.preceding_siblings(), vec![local.clone()]);
    }

    #[test]
    fn graft_mutation_copies_on_write() {
        let (host, src, view) = host_with_graft();
        let stats0 = crate::intern::xdm_stats();
        let x = view.children()[0].clone(); // <x>hello</x> through the graft
        x.replace_value("changed").unwrap();
        let stats1 = crate::intern::xdm_stats();
        assert_eq!(stats1.graft_cow_materializations,
                   stats0.graft_cow_materializations + 1);
        // The host sees the change; the sealed source does not.
        assert_eq!(host.string_value(), "changedworld");
        assert_eq!(src.string_value(), "helloworld");
        // Outstanding view handles follow the materialized copy.
        assert_eq!(x.string_value(), "changed");
        assert_eq!(view.string_value(), "changedworld");
        assert_eq!(view.parent().unwrap(), host);
        assert_eq!(x.parent().unwrap(), view);
        // Identity of the view is stable across the materialization.
        assert_eq!(host.children()[1], view);
    }

    #[test]
    fn graft_rename_via_view() {
        let (host, src, view) = host_with_graft();
        view.rename(QName::new("renamed")).unwrap();
        assert_eq!(host.children()[1].name().unwrap().local, "renamed");
        assert_eq!(src.name().unwrap().local, "root");
        assert_eq!(view.name().unwrap().local, "renamed");
    }

    #[test]
    fn graft_detach_removes_without_copy() {
        let (host, src, view) = host_with_graft();
        let stats0 = crate::intern::xdm_stats();
        view.detach();
        assert_eq!(host.children().len(), 1);
        assert!(view.parent().is_none());
        assert_eq!(src.children().len(), 2); // source untouched
        let stats1 = crate::intern::xdm_stats();
        assert_eq!(stats1.graft_cow_materializations,
                   stats0.graft_cow_materializations);
    }

    #[test]
    fn graft_insert_around_grafted_child() {
        let (host, _src, view) = host_with_graft();
        let n = NodeHandle::new_element(host.arena(), QName::new("n"));
        view.insert_before(&n).unwrap();
        let names: Vec<_> = host
            .children()
            .iter()
            .map(|c| c.name().unwrap().local)
            .collect();
        assert_eq!(names, vec!["local", "n", "root"]);
    }

    #[test]
    fn graftable_conditions() {
        let host = NodeHandle::root_element(QName::new("h"));
        let src = sample_tree();
        // Parentless cross-arena element: graftable.
        assert!(src.graftable_into(host.arena()));
        // Same arena: not graftable.
        let sib = NodeHandle::new_element(host.arena(), QName::new("s"));
        assert!(!sib.graftable_into(host.arena()));
        // Attached child of an unsealed arena: not graftable…
        let child = src.children()[0].clone();
        assert!(!child.graftable_into(host.arena()));
        // …until the arena is sealed.
        src.seal();
        assert!(child.graftable_into(host.arena()));
        // Text node: never graftable.
        let t = NodeHandle::new_text(src.arena(), "t");
        assert!(!t.graftable_into(host.arena()));
    }

    #[test]
    fn graft_attached_child_of_sealed_arena() {
        let src = sample_tree();
        src.seal();
        let y = src.children()[1].clone(); // attached <y> inside the sealed tree
        let host = NodeHandle::root_element(QName::new("h"));
        let view = host.graft_child(&y).unwrap();
        // Parent redirects to the host even though the source node has
        // a raw parent in its own arena.
        assert_eq!(view.parent().unwrap(), host);
        assert_eq!(view.string_value(), "world");
        assert_eq!(y.parent().unwrap(), src);
    }

    #[test]
    fn graft_counters_account_avoided_copies() {
        let src = sample_tree(); // 8 records: root + attr + x + text + y + z + text
        let host = NodeHandle::root_element(QName::new("h"));
        let s0 = crate::intern::xdm_stats();
        host.graft_child(&src).unwrap();
        let d = crate::intern::xdm_stats().since(&s0);
        assert_eq!(d.subtrees_grafted, 1);
        assert_eq!(d.deep_copy_nodes_avoided, 7);
        assert_eq!(d.nodes_built, 0);
    }

    #[test]
    fn nested_graft_reads_and_cow() {
        // source -> grafted into mid; mid -> grafted into top.
        let src = sample_tree();
        let mid = NodeHandle::root_element(QName::new("mid"));
        mid.graft_child(&src).unwrap();
        let top = NodeHandle::root_element(QName::new("top"));
        let mid_view = top.graft_child(&mid).unwrap();
        assert_eq!(top.string_value(), "helloworld");
        let deep = mid_view.children()[0].children()[0].clone(); // <x> via both grafts
        assert_eq!(deep.root(), top);
        deep.replace_value("X").unwrap();
        assert_eq!(top.string_value(), "Xworld");
        assert_eq!(mid.string_value(), "helloworld");
        assert_eq!(src.string_value(), "helloworld");
    }

    /// Whether `h`'s child list holds its one child inline.
    fn inline(h: &NodeHandle) -> bool {
        let a = h.arena.borrow();
        matches!(
            a.data(h.id).body,
            NodeBody::Element { children: Children::One(_), .. }
                | NodeBody::Document { children: Children::One(_) }
        )
    }

    #[test]
    fn child_lists_move_between_inline_and_vec() {
        let e = NodeHandle::root_element(QName::new("e"));
        let arena = e.arena().clone();
        let a = NodeHandle::new_element(&arena, QName::new("a"));
        e.append_child(&a).unwrap();
        assert!(inline(&e), "a first child is inline");
        let b = NodeHandle::new_element(&arena, QName::new("b"));
        a.insert_before(&b).unwrap();
        assert!(!inline(&e));
        b.detach();
        assert!(inline(&e), "a list left with one child holds it inline");
        a.insert_after(&b).unwrap();
        a.detach();
        assert!(inline(&e));
        assert_eq!(e.children(), vec![b.clone()]);
        b.detach();
        assert!(!e.has_children() && !inline(&e));
        e.insert_first_child(&a).unwrap();
        e.insert_first_child(&b).unwrap();
        assert_eq!(e.children(), vec![b.clone(), a.clone()]);
        b.replace_with(&[]).unwrap();
        assert!(inline(&e));
        a.rename(QName::new("z")).unwrap();
        assert_eq!(e.children()[0].name().unwrap().local, "z");
        // Sized lists: room for one is inline, room for more a `Vec`.
        let one = NodeHandle::new_element_sized(&arena, QName::new("one"), 1);
        one.append_child(&NodeHandle::new_text(&arena, "t")).unwrap();
        assert!(inline(&one));
        let two = NodeHandle::new_element_sized(&arena, QName::new("two"), 2);
        two.append_child(&NodeHandle::new_text(&arena, "t")).unwrap();
        assert!(!inline(&two));
        // A deep copy keeps the one-child form.
        assert!(inline(&one.deep_copy()));
    }

    #[test]
    fn graft_of_a_one_child_subtree_copies_on_write() {
        let src = NodeHandle::root_element(QName::new("s"));
        let x = NodeHandle::new_element(src.arena(), QName::new("x"));
        src.append_child(&x).unwrap();
        x.append_child(&NodeHandle::new_text(src.arena(), "1")).unwrap();
        let host = NodeHandle::root_element(QName::new("h"));
        let view = host.graft_child(&src).unwrap();
        let vx = view.children()[0].clone();
        let y = NodeHandle::new_element(host.arena(), QName::new("y"));
        vx.insert_after(&y).unwrap();
        assert_eq!(view.children().len(), 2);
        assert_eq!(src.children().len(), 1, "the source keeps its one child");
        assert!(inline(&src) && inline(&x));
        vx.detach();
        assert_eq!(view.children(), vec![y.clone()]);
        assert_eq!(y.parent().unwrap(), view);
    }

    /// Run `f` on a thread with a 256 KiB stack, where a drop that
    /// recursed once per graft would overflow.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        let t = std::thread::Builder::new().stack_size(256 * 1024).spawn(f).unwrap();
        t.join().unwrap();
    }

    /// `LINKS` elements, each in an arena of its own and grafting the
    /// one before: the outermost, and the arenas it holds alive.
    fn graft_chain(links: usize) -> (NodeHandle, Vec<SharedArena>) {
        let mut top = NodeHandle::root_element(QName::new("a"));
        let mut arenas = Vec::new();
        for _ in 0..links {
            let host = NodeHandle::root_element(QName::new("a"));
            host.graft_child(&top).unwrap();
            arenas.push(top.arena().clone());
            top = host;
        }
        (top, arenas)
    }

    #[test]
    fn a_long_graft_chain_drops_in_a_loop() {
        on_small_stack(|| {
            let (top, arenas) = graft_chain(100_000);
            drop(arenas);
            assert_eq!(subtree_size(&top), 100_001);
            drop(top);
        });
    }

    #[test]
    fn a_view_through_many_grafts_drops_its_links_in_a_loop() {
        on_small_stack(|| {
            let (top, _arenas) = graft_chain(30_000);
            let mut walk = top.walk();
            let mut innermost = None;
            while let Some(v) = walk.next() {
                if v == Visit::Enter {
                    innermost = Some(walk.node().clone());
                }
            }
            drop(walk);
            let innermost = innermost.unwrap();
            assert!(innermost.link.is_some() && !innermost.has_children());
            drop(innermost);
        });
    }

    #[test]
    fn single_text_fast_path_matches_collector() {
        let e = NodeHandle::root_element(QName::new("e"));
        e.append_child(&NodeHandle::new_text(e.arena(), "only")).unwrap();
        assert_eq!(e.string_value(), "only");
        let empty = NodeHandle::root_element(QName::new("n"));
        assert_eq!(empty.string_value(), "");
    }
}
