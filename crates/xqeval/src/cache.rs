//! A bounded LRU map, shared by three caches: the prepared-plan cache
//! (64 entries), the web-service response cache (8,192) and the
//! per-table keyed-select cache of introspected relational sources
//! (16,384).
//!
//! Recency is a monotone tick stamped on every access; eviction scans
//! for the minimum stamp, so eviction is O(len). Until a cache fills,
//! nothing is evicted. Once one is full, every insert of a new key
//! scans all of it: 16k entries for a full select cache. Capacity 0
//! disables storage entirely (every insert evicts itself), which keeps
//! callers branch-free.

#![deny(clippy::unwrap_used)]

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A least-recently-used map with a fixed capacity.
#[derive(Debug)]
pub struct Lru<K: Eq + Hash + Clone, V> {
    map: HashMap<K, (u64, V)>,
    tick: u64,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru { map: HashMap::new(), tick: 0, cap }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Resize; shrinking evicts least-recently-used entries down to
    /// the new capacity. Returns the number of evictions performed.
    pub fn set_capacity(&mut self, cap: usize) -> usize {
        self.cap = cap;
        let mut evicted = 0;
        while self.map.len() > self.cap {
            if self.evict_oldest().is_none() {
                break;
            }
            evicted += 1;
        }
        evicted
    }

    /// Look up a key, marking it most-recently-used on a hit.
    ///
    /// Borrow-generic like [`HashMap::get`] so hot paths (the plan
    /// cache probing by `&str`) never allocate an owned key just to
    /// check for a hit; only a miss's insert pays for the owned key.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.0 = tick;
                Some(&slot.1)
            }
            None => None,
        }
    }

    /// Peek without touching recency (used by stale-read fallbacks,
    /// which must not keep a dead entry warm).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(key).map(|(_, v)| v)
    }

    /// Insert (or replace) a key, evicting the least-recently-used
    /// entry if the cache is over capacity. Returns the evicted key,
    /// if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.tick += 1;
        self.map.insert(key, (self.tick, value));
        if self.map.len() > self.cap {
            self.evict_oldest()
        } else {
            None
        }
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    fn evict_oldest(&mut self) -> Option<K> {
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, (tick, _))| *tick)
            .map(|(k, _)| k.clone())?;
        self.map.remove(&victim);
        Some(victim)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(&1)); // "a" is now warm
        let evicted = lru.insert("c", 3);
        assert_eq!(evicted, Some("b"));
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"b"), None);
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.peek(&"a"), Some(&1));
        // "a" was only peeked, so it is still the LRU victim.
        assert_eq!(lru.insert("c", 3), Some("a"));
    }

    #[test]
    fn replace_does_not_evict() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.insert("a", 10), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"a"), Some(&10));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.insert("a", 1), Some("a"));
        assert!(lru.is_empty());
    }

    #[test]
    fn shrink_evicts_lru_first() {
        let mut lru = Lru::new(4);
        for (i, k) in ["a", "b", "c", "d"].iter().enumerate() {
            lru.insert(*k, i);
        }
        lru.get(&"a");
        assert_eq!(lru.set_capacity(2), 2);
        assert_eq!(lru.len(), 2);
        assert!(lru.peek(&"a").is_some(), "recently used survives");
        assert!(lru.peek(&"d").is_some(), "newest survives");
    }
}
