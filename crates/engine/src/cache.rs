//! The bounded LRU result cache in front of the serving engine.
//!
//! Interactive search traffic repeats itself: the same query, against the
//! same index, with the same thresholds, over and over. Re-running the
//! full index traversal for each repeat wastes the worker pool on work
//! whose answer cannot have changed — index **generations are
//! immutable**. Every append, reload, and compaction publishes a *new*
//! generation id through the `IndexCatalog`, so a result cached under
//! `(generation, query bytes, score params)` is correct by construction:
//! a hot swap changes the key, never the cached value's meaning, and a
//! stale generation's entries simply age out of the LRU.
//!
//! The cache is a plain bounded map with last-use stamps (eviction scans
//! for the oldest stamp — `O(capacity)` on insert-at-capacity, which is
//! trivial at the few-hundred-entry bounds the server configures).
//! Everything is behind one mutex; no lock is ever held across a
//! blocking call. A poisoned mutex is recovered: the map stays
//! structurally valid across a panic.

use std::sync::Arc;

use oasis_obs::sync::{Map, Mutex};

use oasis_align::Score;
use oasis_core::Hit;

/// The full identity of a cacheable search: the pinned generation,
/// the encoded query, and every parameter that shapes the hit list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Id of the index generation the result was computed on.
    pub generation: u64,
    /// The query as encoded residues (alphabet codes, not text).
    pub query: Vec<u8>,
    /// The resolved `minScore` threshold (post E-value conversion).
    pub min_score: Score,
    /// Whether every occurrence was reported, not just each sequence's
    /// best alignment.
    pub all_occurrences: bool,
    /// The top-k truncation the search ran under, if any.
    pub limit: Option<u32>,
}

/// Counters describing a cache's behaviour so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to keep the cache within its bound.
    pub evictions: u64,
    /// Entries resident right now.
    pub entries: u32,
    /// The configured capacity (entries; 0 = disabled).
    pub capacity: u32,
}

struct Entry {
    stamp: u64,
    hits: Arc<Vec<Hit>>,
}

struct Inner {
    map: Map<CacheKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe LRU cache of completed search results.
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// A cache bounded to `capacity` entries. Zero disables caching
    /// entirely (every lookup misses, no insert retains anything).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(Inner {
                map: Map::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The configured capacity, in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look `key` up, refreshing its recency on a hit. Counts the lookup
    /// either way.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Hit>>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.tick = inner.tick.wrapping_add(1);
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = tick;
                let hits = entry.hits.clone();
                inner.hits += 1;
                Some(hits)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Remember `hits` as the result for `key`, evicting the
    /// least-recently-used entry if the cache is at capacity.
    pub fn insert(&self, key: CacheKey, hits: Vec<Hit>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick = inner.tick.wrapping_add(1);
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                inner.map.remove(&oldest);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            key,
            Entry {
                stamp: tick,
                hits: Arc::new(hits),
            },
        );
    }

    /// The hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len() as u32,
            capacity: self.capacity as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(generation: u64, query: &[u8], min: Score) -> CacheKey {
        CacheKey {
            generation,
            query: query.to_vec(),
            min_score: min,
            all_occurrences: false,
            limit: None,
        }
    }

    fn hit(score: Score) -> Hit {
        Hit {
            seq: 0,
            score,
            t_start: 0,
            t_len: 1,
            q_end: 1,
        }
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let cache = ResultCache::new(4);
        let k = key(0, b"ACGT", 2);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), vec![hit(5)]);
        assert_eq!(cache.get(&k).unwrap().as_slice(), &[hit(5)]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn generation_is_part_of_the_key() {
        let cache = ResultCache::new(4);
        cache.insert(key(0, b"ACGT", 2), vec![hit(5)]);
        // Same query, newer generation: a miss — never the old result.
        assert!(cache.get(&key(1, b"ACGT", 2)).is_none());
        // And so are the score params.
        assert!(cache.get(&key(0, b"ACGT", 3)).is_none());
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(key(0, b"A", 1), vec![hit(1)]);
        cache.insert(key(0, b"B", 1), vec![hit(2)]);
        // Touch A so B is the LRU entry.
        assert!(cache.get(&key(0, b"A", 1)).is_some());
        cache.insert(key(0, b"C", 1), vec![hit(3)]);
        assert!(cache.get(&key(0, b"A", 1)).is_some());
        assert!(cache.get(&key(0, b"B", 1)).is_none());
        assert!(cache.get(&key(0, b"C", 1)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = ResultCache::new(2);
        cache.insert(key(0, b"A", 1), vec![hit(1)]);
        cache.insert(key(0, b"B", 1), vec![hit(2)]);
        cache.insert(key(0, b"A", 1), vec![hit(9)]);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&key(0, b"A", 1)).unwrap().as_slice(), &[hit(9)]);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ResultCache::new(0);
        cache.insert(key(0, b"A", 1), vec![hit(1)]);
        assert!(cache.get(&key(0, b"A", 1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
