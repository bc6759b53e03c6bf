//! A least-recently-used map of shared values under a byte cap: the
//! daemon's cache of prepared workloads.
//!
//! Each entry counts the bytes its `size` function measures when it is
//! inserted. A value may grow while the cache holds it (a workload keeps
//! its ladder from its second ladder campaign on), so whoever makes it
//! grow has the cache [`LruCache::remeasure`] it. After every insert or
//! remeasure the cache evicts the least recently used entries until the
//! total is at most the cap; an entry larger than the cap on its own is
//! dropped by itself, without evicting the others. Values are handed
//! out as `Arc`s, so an evicted value stays alive for whoever still
//! uses it.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use crate::proto::CacheStats;

/// See the module docs.
pub(crate) struct LruCache<K, V> {
    cap: usize,
    size: fn(&V) -> usize,
    entries: HashMap<K, Entry<V>>,
    /// Each entry's key by its last use, oldest first.
    order: BTreeMap<u64, K>,
    /// The last use handed out.
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
}

struct Entry<V> {
    value: Arc<V>,
    bytes: usize,
    used: u64,
}

impl<K: Clone + Eq + Hash, V> LruCache<K, V> {
    /// An empty cache that holds at most `cap` bytes as `size` measures
    /// them.
    pub(crate) fn new(cap: usize, size: fn(&V) -> usize) -> Self {
        LruCache {
            cap,
            size,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The value under `key`, now the most recently used, or `None`
    /// (counted as a miss: the caller builds the value and
    /// [`insert`](LruCache::insert)s it).
    pub(crate) fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let Some(entry) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.order.remove(&entry.used);
        self.clock += 1;
        entry.used = self.clock;
        self.order.insert(self.clock, key.clone());
        Some(Arc::clone(&entry.value))
    }

    /// Keeps `value` under `key` as the most recently used entry, in
    /// place of any value already there, unless it is larger than the
    /// cap on its own.
    pub(crate) fn insert(&mut self, key: K, value: Arc<V>) {
        self.remove(&key);
        let bytes = (self.size)(&value);
        if bytes > self.cap {
            return;
        }
        self.clock += 1;
        self.order.insert(self.clock, key.clone());
        self.entries.insert(
            key,
            Entry {
                value,
                bytes,
                used: self.clock,
            },
        );
        self.bytes += bytes;
        self.trim_to(self.cap);
    }

    /// Measures the entry under `key` again, when there is one, and
    /// trims the cache to its cap: drops that entry alone when it no
    /// longer fits, else evicts the least recently used ones.
    pub(crate) fn remeasure(&mut self, key: &K) {
        let Some(entry) = self.entries.get_mut(key) else {
            return;
        };
        let bytes = (self.size)(&entry.value);
        self.bytes = self.bytes - entry.bytes + bytes;
        entry.bytes = bytes;
        if bytes > self.cap {
            self.remove(key);
        }
        self.trim_to(self.cap);
    }

    /// Evicts the least recently used entries until the cache holds at
    /// most `cap` bytes.
    pub(crate) fn trim_to(&mut self, cap: usize) {
        while self.bytes > cap {
            let Some((_, key)) = self.order.pop_first() else {
                break;
            };
            if let Some(entry) = self.entries.remove(&key) {
                self.bytes -= entry.bytes;
            }
        }
    }

    fn remove(&mut self, key: &K) {
        if let Some(entry) = self.entries.remove(key) {
            self.order.remove(&entry.used);
            self.bytes -= entry.bytes;
        }
    }

    /// The cache's counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len() as u64,
            bytes: self.bytes as u64,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A value whose size can change while the cache holds it.
    type Grows = AtomicUsize;

    fn size(v: &Grows) -> usize {
        v.load(Ordering::Relaxed)
    }

    fn cache(cap: usize) -> LruCache<u32, Grows> {
        LruCache::new(cap, size)
    }

    fn keys(c: &LruCache<u32, Grows>) -> Vec<u32> {
        c.order.values().copied().collect()
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut c = cache(100);
        for k in 0..4 {
            c.insert(k, Arc::new(Grows::new(25)));
        }
        assert_eq!(keys(&c), [0, 1, 2, 3]);
        // Using 0 and 2 makes 1 the least recently used, then 3.
        assert!(c.get(&0).is_some());
        assert!(c.get(&2).is_some());
        c.insert(4, Arc::new(Grows::new(25)));
        assert_eq!(keys(&c), [3, 0, 2, 4]);
        c.insert(5, Arc::new(Grows::new(50)));
        assert_eq!(keys(&c), [2, 4, 5]);
        assert!(c.get(&1).is_none());
        assert!(c.get(&3).is_none());
        let stats = c.stats();
        assert_eq!((stats.entries, stats.bytes), (3, 100));
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    #[test]
    fn after_a_trim_the_bytes_never_exceed_the_cap() {
        let cap = 1000;
        let mut c = cache(cap);
        let mut held: Vec<Arc<Grows>> = Vec::new();
        // A fixed pseudo-random walk of inserts, uses and growth.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 40) as u32;
            match x >> 60 {
                0..=5 => {
                    let value = Arc::new(Grows::new((x >> 20) as usize % 400));
                    held.push(Arc::clone(&value));
                    c.insert(key, value);
                }
                6..=11 => {
                    let _ = c.get(&key);
                }
                _ => {
                    // A held value grows (or shrinks), as a workload does
                    // when it keeps its ladder, and is measured again.
                    if let Some(v) = held.get((x >> 8) as usize % held.len().max(1)) {
                        v.store((x >> 24) as usize % 1200, Ordering::Relaxed);
                    }
                    c.remeasure(&key);
                }
            }
            let stats = c.stats();
            assert!(stats.bytes as usize <= cap, "{} bytes held", stats.bytes);
            let recorded: usize = c.entries.values().map(|e| e.bytes).sum();
            assert_eq!(recorded, stats.bytes as usize);
            assert_eq!(c.order.len(), c.entries.len());
        }
    }

    #[test]
    fn an_entry_larger_than_the_cap_is_not_kept() {
        let mut c = cache(100);
        c.insert(1, Arc::new(Grows::new(60)));
        c.insert(2, Arc::new(Grows::new(101)));
        assert_eq!(keys(&c), [1], "the others stay");
        assert_eq!(c.stats().bytes, 60);
        // An entry that grows past the cap is dropped by itself.
        let grows = Arc::new(Grows::new(30));
        c.insert(3, Arc::clone(&grows));
        grows.store(150, Ordering::Relaxed);
        c.remeasure(&3);
        assert_eq!(keys(&c), [1]);
        assert_eq!(c.stats().bytes, 60);
        // A value the cache dropped stays alive for its users.
        assert_eq!(grows.load(Ordering::Relaxed), 150);
        assert_eq!(Arc::strong_count(&grows), 1);
    }
}
