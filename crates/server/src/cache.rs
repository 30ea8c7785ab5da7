//! Sharded LRU cache for rendered query responses.
//!
//! The daemon's hot path is dominated by the GMRES Schur solve. Real
//! query workloads are heavily skewed (a few hot seeds absorb most
//! traffic), so a small LRU over the *rendered JSON body* lets repeated
//! `(seed, top_k)` queries skip the solve and the serialization entirely,
//! and guarantees byte-identical responses for cache hits.
//!
//! The cache is sharded by key hash: each shard owns an independent
//! `Mutex<LruShard>`, so concurrent workers rarely contend on the same
//! lock. Values are `Arc<str>` — a hit clones a pointer, not the body.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Which lane rendered (or will render) a response. Part of [`QueryKey`]
/// because exact and approximate answers for the same seed differ — a
/// cached exact body must never satisfy an approximate request or vice
/// versa. The key always holds the *resolved* mode: a `mode=auto` request
/// that resolves to the exact lane shares cache entries with explicit
/// `mode=exact` (they are byte-identical), and one that degrades to the
/// approximate lane shares entries with explicit `mode=approx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseMode {
    /// The exact BePI solve (Schur complement + GMRES).
    Exact,
    /// The deterministic approximate engine (`bepi-walk`).
    Approx,
}

/// Cache key: the query endpoint's full identity. Two requests with the
/// same key produce byte-identical responses — each served snapshot is
/// immutable, `version` names the snapshot, and `mode` names the lane
/// (both lanes are deterministic per key), so entries rendered from a
/// pre-hot-swap index or from the other lane can never answer this
/// request. Stale versions age out through normal LRU eviction.
///
/// Invariant: every query parameter that can change the response body
/// must be a field here. The `stale_lane_entries_never_cross` test pins
/// the mode half of that contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Seed node id.
    pub seed: usize,
    /// Number of ranked results requested.
    pub top_k: usize,
    /// Graph snapshot version the response was rendered from.
    pub version: u64,
    /// Resolved serving lane (exact vs approximate).
    pub mode: ResponseMode,
}

const NIL: usize = usize::MAX;

struct Slot {
    key: QueryKey,
    value: Arc<str>,
    prev: usize,
    next: usize,
}

/// One LRU shard: a hash map into a vec-backed intrusive doubly-linked
/// list ordered most- to least-recently used.
struct LruShard {
    map: HashMap<QueryKey, usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl LruShard {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::with_capacity(cap.min(1024)),
            slots: Vec::with_capacity(cap.min(1024)),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &QueryKey) -> Option<Arc<str>> {
        let i = *self.map.get(key)?;
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
        Some(Arc::clone(&self.slots[i].value))
    }

    fn insert(&mut self, key: QueryKey, value: Arc<str>) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if i != self.head {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let i = if self.slots.len() < self.cap {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            // Evict the least-recently-used entry and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            victim
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A sharded LRU mapping [`QueryKey`] to rendered response bodies.
///
/// `capacity == 0` disables caching: every lookup misses and inserts are
/// dropped.
pub struct ResponseCache {
    shards: Vec<Mutex<LruShard>>,
    mask: usize,
}

impl ResponseCache {
    /// Creates a cache holding at most `capacity` entries in total,
    /// spread over `shards` (rounded up to a power of two) locks.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let nshards = shards.max(1).next_power_of_two();
        // Spread capacity across shards; each shard gets at least one
        // entry so a tiny capacity still caches something.
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(nshards).max(1)
        };
        Self {
            shards: (0..nshards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            mask: nshards - 1,
        }
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<LruShard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Looks `key` up, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &QueryKey) -> Option<Arc<str>> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        if shard.cap == 0 {
            return None;
        }
        shard.get(key)
    }

    /// Inserts (or refreshes) `key`, evicting the shard's LRU entry when
    /// the shard is full.
    pub fn insert(&self, key: QueryKey, value: Arc<str>) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        if shard.cap == 0 {
            return;
        }
        shard.insert(key, value);
    }

    /// Total entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(seed: usize) -> QueryKey {
        QueryKey {
            seed,
            top_k: 10,
            version: 1,
            mode: ResponseMode::Exact,
        }
    }

    fn v(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn single_shard_lru_eviction_order() {
        let c = ResponseCache::new(2, 1);
        c.insert(k(1), v("one"));
        c.insert(k(2), v("two"));
        assert_eq!(c.get(&k(1)).as_deref(), Some("one"));
        // 2 is now the LRU entry; inserting 3 evicts it.
        c.insert(k(3), v("three"));
        assert_eq!(c.get(&k(2)), None);
        assert_eq!(c.get(&k(1)).as_deref(), Some("one"));
        assert_eq!(c.get(&k(3)).as_deref(), Some("three"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let c = ResponseCache::new(2, 1);
        c.insert(k(1), v("a"));
        c.insert(k(2), v("b"));
        c.insert(k(1), v("a2")); // refresh: 2 becomes LRU
        c.insert(k(3), v("c"));
        assert_eq!(c.get(&k(2)), None);
        assert_eq!(c.get(&k(1)).as_deref(), Some("a2"));
    }

    #[test]
    fn key_includes_top_k_and_version() {
        let c = ResponseCache::new(8, 2);
        let key = |top_k, version| QueryKey {
            seed: 1,
            top_k,
            version,
            mode: ResponseMode::Exact,
        };
        c.insert(key(5, 1), v("five"));
        c.insert(key(9, 1), v("nine"));
        assert_eq!(c.get(&key(5, 1)).as_deref(), Some("five"));
        assert_eq!(c.get(&key(9, 1)).as_deref(), Some("nine"));
        // A hot-swap bumps the version: entries from the old snapshot
        // must never satisfy a query against the new one.
        assert_eq!(c.get(&key(5, 2)), None);
        c.insert(key(5, 2), v("five-v2"));
        assert_eq!(c.get(&key(5, 2)).as_deref(), Some("five-v2"));
        assert_eq!(c.get(&key(5, 1)).as_deref(), Some("five"));
    }

    #[test]
    fn stale_lane_entries_never_cross() {
        // Regression test for the cache-key contract: an entry rendered
        // by one lane must never answer a request for the other, for any
        // overlap of seed/top_k/version.
        let c = ResponseCache::new(16, 2);
        let key = |mode| QueryKey {
            seed: 7,
            top_k: 10,
            version: 3,
            mode,
        };
        c.insert(key(ResponseMode::Exact), v("exact-body"));
        assert_eq!(c.get(&key(ResponseMode::Approx)), None);

        c.insert(key(ResponseMode::Approx), v("approx-body"));
        // The approx insert must not clobber or shadow the exact entry.
        assert_eq!(
            c.get(&key(ResponseMode::Exact)).as_deref(),
            Some("exact-body")
        );
        assert_eq!(
            c.get(&key(ResponseMode::Approx)).as_deref(),
            Some("approx-body")
        );
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let c = ResponseCache::new(0, 4);
        c.insert(k(1), v("x"));
        assert_eq!(c.get(&k(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_capacity_bound_holds() {
        let c = ResponseCache::new(16, 4);
        for i in 0..200 {
            c.insert(k(i), v("x"));
        }
        // Each of the 4 shards holds at most ceil(16/4) = 4 entries.
        assert!(c.len() <= 16, "len {}", c.len());
        assert!(!c.is_empty());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = Arc::new(ResponseCache::new(64, 8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let key = k((t * 31 + i) % 100);
                        if c.get(&key).is_none() {
                            c.insert(key, v("body"));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 64);
    }
}
