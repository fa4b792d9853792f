//! Name/string interning and XDM construction counters.
//!
//! [`Symbol`] is an interned string deduplicated through a process-wide
//! table, so every occurrence of the same name shares one allocation.
//! The table keeps every string it was handed for the life of the
//! process, so a `Symbol` is a plain reference to the table's copy: one
//! pointer wide (a `QName` of three is 24 bytes, which sizes every
//! element slot of the node store), cloned without a refcount, and
//! compared (almost always) by address — exactly the properties the
//! construction-bound read path needs, where the same element/column
//! names recur thousands of times per query.
//!
//! The table is sharded behind plain `std::sync::Mutex`es and the
//! strings are immutable, so the interner is `Send + Sync`: the serving
//! pool's engine-per-worker threads share one table (names are global
//! facts), while the XDM node store itself stays single-threaded per
//! worker as before.
//!
//! This module also hosts the **thread-local construction counters**
//! (`nodes_built`, `subtrees_grafted`, `deep_copy_nodes_avoided`,
//! `interned_hits`, `graft_cow_materializations`, `sealed_writes`). They are thread-local
//! on purpose: one engine evaluates on one thread (the pool gives each
//! worker a private engine), so per-thread deltas are exactly per-engine
//! deltas, with no atomics on the node-allocation hot path.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

/// An interned, immutable string. Cheap to clone, cheap to compare.
#[derive(Clone)]
pub struct Symbol(&'static String);

const SHARDS: usize = 8;

fn table() -> &'static [Mutex<HashSet<Symbol>>; SHARDS] {
    static TABLE: OnceLock<[Mutex<HashSet<Symbol>>; SHARDS]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|_| Mutex::new(HashSet::new())))
}

fn shard_of(s: &str) -> usize {
    // FNV-1a, matching the journal's checksum idiom: cheap and stable.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARDS
}

impl Symbol {
    /// Intern a string, returning the canonical shared handle.
    pub fn intern(s: &str) -> Symbol {
        let shard = &table()[shard_of(s)];
        let mut set = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = set.get(s) {
            bump(|c| &c.interned_hits);
            return existing.clone();
        }
        // The table keeps the string for good, so its handle may
        // borrow it for good.
        let sym = Symbol(Box::leak(Box::new(s.to_owned())));
        set.insert(sym.clone());
        sym
    }

    /// The interned string slice.
    pub fn as_str(&self) -> &str {
        self.0
    }

    /// The address of the table's copy. Every `Symbol` is interned, so
    /// two symbols have the same address exactly when they hold the
    /// same string: the address is the name's identity, and hashing it
    /// costs one word however long the name.
    pub fn addr(&self) -> usize {
        std::ptr::from_ref::<String>(self.0) as usize
    }
}

impl Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // Interned symbols with equal content share one string, so the
        // pointer test settles the common case without touching bytes.
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}
impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content hash, consistent with Borrow<str>.
        self.0.hash(state)
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.as_str().cmp(other.0.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}
impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl Default for Symbol {
    fn default() -> Symbol {
        Symbol::intern("")
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}
impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}
impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}
impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Symbol {
        s.clone()
    }
}
impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.0.to_string()
    }
}
impl From<&Symbol> for String {
    fn from(s: &Symbol) -> String {
        s.0.to_string()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.0.as_str() == other
    }
}
impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.0.as_str() == *other
    }
}
impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.0.as_str() == other.as_str()
    }
}
impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.0.as_str()
    }
}
impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.0.as_str()
    }
}
impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.0.as_str()
    }
}

// ---------------------------------------------------------------------
// Construction counters.
// ---------------------------------------------------------------------

/// A snapshot of this thread's XDM construction counters. Monotonic;
/// consumers diff two snapshots to attribute work to a span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XdmStats {
    /// Node records allocated in any arena (construction + copies).
    pub nodes_built: u64,
    /// Immutable subtrees adopted by reference instead of deep copy.
    pub subtrees_grafted: u64,
    /// Node records a graft saved us from allocating (the deep size of
    /// every grafted subtree).
    pub deep_copy_nodes_avoided: u64,
    /// Intern-table lookups that found an existing symbol.
    pub interned_hits: u64,
    /// Grafts that were later materialized by copy-on-write.
    pub graft_cow_materializations: u64,
    /// Node records changed in place in a sealed arena: the only
    /// writes that can reach a tree a cache hands out.
    pub sealed_writes: u64,
}

#[derive(Default)]
struct Counters {
    nodes_built: Cell<u64>,
    subtrees_grafted: Cell<u64>,
    deep_copy_nodes_avoided: Cell<u64>,
    interned_hits: Cell<u64>,
    graft_cow_materializations: Cell<u64>,
    sealed_writes: Cell<u64>,
}

thread_local! {
    static COUNTERS: Counters = Counters::default();
}

fn bump(f: impl Fn(&Counters) -> &Cell<u64>) {
    COUNTERS.with(|c| {
        let cell = f(c);
        cell.set(cell.get().wrapping_add(1));
    });
}

fn add(f: impl Fn(&Counters) -> &Cell<u64>, n: u64) {
    COUNTERS.with(|c| {
        let cell = f(c);
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Snapshot this thread's construction counters.
pub fn xdm_stats() -> XdmStats {
    COUNTERS.with(|c| XdmStats {
        nodes_built: c.nodes_built.get(),
        subtrees_grafted: c.subtrees_grafted.get(),
        deep_copy_nodes_avoided: c.deep_copy_nodes_avoided.get(),
        interned_hits: c.interned_hits.get(),
        graft_cow_materializations: c.graft_cow_materializations.get(),
        sealed_writes: c.sealed_writes.get(),
    })
}

/// This thread's [`XdmStats::sealed_writes`] alone: one thread-local
/// read, for the source caches that check it on every lookup.
pub fn sealed_writes() -> u64 {
    COUNTERS.with(|c| c.sealed_writes.get())
}

impl XdmStats {
    /// Counter-wise difference since `base` (wrapping-safe).
    pub fn since(&self, base: &XdmStats) -> XdmStats {
        XdmStats {
            nodes_built: self.nodes_built.wrapping_sub(base.nodes_built),
            subtrees_grafted: self.subtrees_grafted.wrapping_sub(base.subtrees_grafted),
            deep_copy_nodes_avoided: self
                .deep_copy_nodes_avoided
                .wrapping_sub(base.deep_copy_nodes_avoided),
            interned_hits: self.interned_hits.wrapping_sub(base.interned_hits),
            graft_cow_materializations: self
                .graft_cow_materializations
                .wrapping_sub(base.graft_cow_materializations),
            sealed_writes: self.sealed_writes.wrapping_sub(base.sealed_writes),
        }
    }
}

pub(crate) fn count_node_built() {
    bump(|c| &c.nodes_built);
}

pub(crate) fn count_graft(nodes_avoided: u64) {
    bump(|c| &c.subtrees_grafted);
    add(|c| &c.deep_copy_nodes_avoided, nodes_avoided);
}

pub(crate) fn count_graft_cow() {
    bump(|c| &c.graft_cow_materializations);
}

pub(crate) fn count_sealed_write() {
    bump(|c| &c.sealed_writes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_counts_hits() {
        let a = Symbol::intern("intern-test-unique-aaa");
        let before = xdm_stats().interned_hits;
        let b = Symbol::intern("intern-test-unique-aaa");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.0, b.0));
        assert!(xdm_stats().interned_hits > before);
    }

    #[test]
    fn symbol_compares_against_str_types() {
        let s = Symbol::from("hello");
        assert_eq!(s, "hello");
        assert_eq!("hello", s);
        assert_eq!(s, "hello".to_string());
        assert_eq!(s.as_str(), "hello");
        assert_ne!(s, "world");
        let t: String = s.clone().into();
        assert_eq!(t, "hello");
    }

    #[test]
    fn symbol_orders_by_content() {
        let a = Symbol::from("aaa");
        let b = Symbol::from("bbb");
        assert!(a < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn symbols_work_across_threads() {
        let a = Symbol::from("cross-thread-sym");
        let h = std::thread::spawn(move || {
            let b = Symbol::from("cross-thread-sym");
            assert_eq!(a, b);
            b
        });
        let b = h.join().unwrap();
        assert_eq!(b, "cross-thread-sym");
    }
}
