//! The result cache: LRU over `(generation, canonical query)` keys.
//!
//! Identical queries against the same generation are deterministic, so
//! their serialized replies can be replayed verbatim. Keying on the
//! generation id means a publish invalidates the whole cache *by
//! construction* — stale entries simply stop being asked for and age
//! out of the LRU; there is no invalidation walk.
//!
//! The store sits behind one mutex, but the read path never *blocks* on
//! it: lookups and inserts use `try_lock`, and contention is just
//! treated as a miss (the query recomputes — correct either way, since
//! the cache is a pure memo). Recency is a logical tick, not a clock,
//! so eviction order is deterministic and testable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache key: the generation the reply was computed against plus the
/// canonical form of the query (fixed field order, defaults filled).
pub type CacheKey = (u64, String);

#[derive(Default)]
struct Lru {
    /// value → (serialized reply, last-touched tick).
    map: HashMap<CacheKey, (String, u64)>,
    tick: u64,
}

/// A bounded memo of serialized query replies.
pub struct ResultCache {
    inner: Mutex<Lru>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` replies (0 disables caching:
    /// every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Lru::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cached reply for `key`, refreshing its recency. A contended
    /// lock counts as a miss rather than blocking the reader.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let Ok(mut lru) = self.inner.try_lock() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        lru.tick += 1;
        let tick = lru.tick;
        match lru.map.get_mut(key) {
            Some((value, touched)) => {
                *touched = tick;
                let v = value.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a reply, evicting the least-recently-touched entry if the
    /// cache is full. Skipped entirely under lock contention.
    pub fn put(&self, key: CacheKey, value: String) {
        if self.capacity == 0 {
            return;
        }
        let Ok(mut lru) = self.inner.try_lock() else {
            return;
        };
        lru.tick += 1;
        let tick = lru.tick;
        lru.map.insert(key, (value, tick));
        while lru.map.len() > self.capacity {
            let coldest = lru
                .map
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over capacity");
            lru.map.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently stored (test/diagnostic helper).
    pub fn len(&self) -> usize {
        self.inner.lock().map(|l| l.map.len()).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(generation: u64, q: &str) -> CacheKey {
        (generation, q.to_string())
    }

    #[test]
    fn hit_after_put_miss_before() {
        let c = ResultCache::new(4);
        assert_eq!(c.get(&k(1, "stats")), None);
        c.put(k(1, "stats"), "reply".into());
        assert_eq!(c.get(&k(1, "stats")).as_deref(), Some("reply"));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn generation_is_part_of_the_key() {
        let c = ResultCache::new(4);
        c.put(k(1, "stats"), "old".into());
        assert_eq!(c.get(&k(2, "stats")), None, "new generation = fresh key");
        assert_eq!(c.get(&k(1, "stats")).as_deref(), Some("old"));
    }

    #[test]
    fn evicts_least_recently_touched_first() {
        let c = ResultCache::new(2);
        c.put(k(1, "a"), "A".into());
        c.put(k(1, "b"), "B".into());
        // Touch `a` so `b` is coldest, then overflow.
        assert!(c.get(&k(1, "a")).is_some());
        c.put(k(1, "c"), "C".into());
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(&k(1, "b")), None, "coldest entry evicted");
        assert!(c.get(&k(1, "a")).is_some());
        assert!(c.get(&k(1, "c")).is_some());
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let c = ResultCache::new(2);
        c.put(k(1, "a"), "A".into());
        c.put(k(1, "a"), "A2".into());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k(1, "a")).as_deref(), Some("A2"));
    }

    #[test]
    fn zero_capacity_disables() {
        let c = ResultCache::new(0);
        c.put(k(1, "a"), "A".into());
        assert_eq!(c.get(&k(1, "a")), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 1);
    }
}
