//! In-memory LRU store with explicit byte accounting.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::artifact::Artifact;
use crate::key::CacheKey;
use crate::CacheStats;

struct Entry {
    artifact: Artifact,
    bytes: usize,
    last_used: u64,
    /// Tick of the `put` that stored this entry. Reads leave it alone:
    /// it orders entries by when they entered the store, not by use.
    inserted: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    bytes: usize,
    evictions: u64,
}

/// In-memory artifact store: one map behind one lock, evicting the
/// least-recently-used entries once its accounted bytes exceed the ceiling.
/// An artifact larger than the whole ceiling is refused: it would evict
/// everything and then be the next victim itself.
///
/// Recency is a tick that every [`MemoryStore::get`], hit or miss, and every
/// stored [`MemoryStore::put`] advance. Each entry also keeps the tick of
/// the `put` that stored it, which [`MemoryStore::scan`] reports: the drift
/// donor index ranks otherwise tied donors by it, newest first.
pub struct MemoryStore {
    inner: Mutex<Inner>,
    max_bytes: usize,
}

impl MemoryStore {
    /// Creates an empty store that holds at most `max_bytes` accounted bytes.
    pub fn new(max_bytes: u64) -> Self {
        MemoryStore {
            inner: Mutex::default(),
            max_bytes: usize::try_from(max_bytes).unwrap_or(usize::MAX),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, refreshing its recency (not its insertion tick) on a
    /// hit. Returns a clone so the caller never holds the lock.
    pub fn get(&self, key: &CacheKey) -> Option<Artifact> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.artifact.clone())
    }

    /// Inserts (or replaces) `key`, stamping it with a fresh insertion tick,
    /// then evicts least-recently-used entries until the store is back under
    /// its ceiling. An artifact larger than the ceiling is not stored (any
    /// entry already under `key` stays) and counts as an eviction.
    pub fn put(&self, key: CacheKey, artifact: Artifact) {
        let bytes = artifact.approx_bytes();
        let mut inner = self.lock();
        if bytes > self.max_bytes {
            inner.evictions += 1;
            bootes_obs::counter_add("cache.evict", 1);
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let entry = Entry {
            artifact,
            bytes,
            last_used: tick,
            inserted: tick,
        };
        if let Some(old) = inner.map.insert(key, entry) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        // The new entry holds the newest tick and fits alone, so it is
        // never its own victim. The victim scan is O(n) and runs only past
        // the ceiling.
        while inner.bytes > self.max_bytes {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(e) = victim.and_then(|k| inner.map.remove(&k)) else {
                break;
            };
            inner.bytes -= e.bytes;
            inner.evictions += 1;
            bootes_obs::counter_add("cache.evict", 1);
        }
        bootes_obs::gauge_set("cache.bytes", inner.bytes as f64);
    }

    /// Removes `key` if present, returning whether an entry was dropped.
    /// Used to purge entries discovered to be invalid after a lookup (e.g. a
    /// donor permutation whose length disagrees with the requesting matrix).
    pub fn remove(&self, key: &CacheKey) -> bool {
        let mut inner = self.lock();
        let Some(e) = inner.map.remove(key) else {
            return false;
        };
        inner.bytes -= e.bytes;
        bootes_obs::gauge_set("cache.bytes", inner.bytes as f64);
        true
    }

    /// Runs `f` over every `(key, artifact, insertion tick)` triple until it
    /// returns `Some`, in no particular order. Used to enumerate drift donors
    /// for [`crate::Cache::sketch_candidates`]; does not refresh recency.
    /// Insertion ticks are at least 1 and follow the order of the `put`s
    /// that stored the entries.
    pub fn scan<R>(&self, mut f: impl FnMut(&CacheKey, &Artifact, u64) -> Option<R>) -> Option<R> {
        let inner = self.lock();
        inner
            .map
            .iter()
            .find_map(|(k, e)| f(k, &e.artifact, e.inserted))
    }

    /// Accounted bytes, live entries and evictions so far (oversized
    /// rejects included), read under one lock. `hits` and `misses` are the
    /// [`crate::Cache`]'s to count and read 0 here.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            evictions: inner.evictions,
            bytes: inner.bytes,
            entries: inner.map.len(),
            ..CacheStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::DecisionArtifact;
    use crate::key::ArtifactKind;

    fn decision(n_features: usize, class: usize) -> Artifact {
        Artifact::Decision(DecisionArtifact {
            features: vec![0.5; n_features],
            class,
        })
    }

    fn key(pattern: u64) -> CacheKey {
        CacheKey {
            kind: ArtifactKind::Decision,
            pattern,
            config: 1,
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let store = MemoryStore::new(u64::MAX);
        assert_eq!(store.stats().entries, 0);
        store.put(key(1), decision(4, 2));
        assert_eq!(store.get(&key(1)), Some(decision(4, 2)));
        assert_eq!(store.get(&key(2)), None);
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn replace_updates_byte_accounting() {
        let store = MemoryStore::new(u64::MAX);
        store.put(key(1), decision(100, 0));
        let big = store.stats().bytes;
        store.put(key(1), decision(4, 0));
        assert!(store.stats().bytes < big);
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn lru_eviction_respects_recency_and_ceiling() {
        // Room for two entries, not three.
        let per_entry = decision(4, 0).approx_bytes();
        let store = MemoryStore::new((per_entry * 2 + per_entry / 2) as u64);
        store.put(key(1), decision(4, 0));
        store.put(key(2), decision(4, 1));
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(store.get(&key(1)).is_some());
        store.put(key(3), decision(4, 2));
        assert!(store.get(&key(1)).is_some(), "recently used survived");
        assert_eq!(store.get(&key(2)), None, "LRU entry evicted");
        assert!(store.get(&key(3)).is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn oversized_artifacts_are_rejected_not_thrashed() {
        let store = MemoryStore::new(100);
        store.put(key(1), decision(1000, 0)); // ~8 KiB > the 100-byte ceiling
        let stats = store.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (0, 0, 1));
    }

    #[test]
    fn remove_drops_entry_and_byte_accounting() {
        let store = MemoryStore::new(u64::MAX);
        store.put(key(1), decision(4, 0));
        store.put(key(2), decision(4, 1));
        let before = store.stats().bytes;
        assert!(store.remove(&key(1)));
        assert!(!store.remove(&key(1)), "second remove is a no-op");
        assert_eq!(store.get(&key(1)), None);
        assert!(store.get(&key(2)).is_some());
        assert!(store.stats().bytes < before);
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn scan_finds_every_entry() {
        let store = MemoryStore::new(u64::MAX);
        for p in 0..16u64 {
            store.put(key(p), decision(2, p as usize));
        }
        let found = store.scan(|k, a, _| match a {
            Artifact::Decision(d) if k.pattern == 11 => Some(d.class),
            _ => None,
        });
        assert_eq!(found, Some(11));
        assert_eq!(store.scan(|k, _, _| (k.pattern == 99).then_some(())), None);
    }

    #[test]
    fn insertion_ticks_follow_puts_and_ignore_reads() {
        let store = MemoryStore::new(u64::MAX);
        let inserted = |pattern: u64| {
            store
                .scan(|k, _, tick| (k.pattern == pattern).then_some(tick))
                .expect("stored")
        };
        store.put(key(1), decision(2, 1));
        store.put(key(2), decision(2, 2));
        let (first, second) = (inserted(1), inserted(2));
        assert!(0 < first && first < second, "{first} then {second}");
        assert!(store.get(&key(1)).is_some());
        assert_eq!(inserted(1), first, "a read keeps the insertion tick");
        store.put(key(1), decision(2, 1));
        assert!(inserted(1) > second, "a re-put takes a fresh tick");
    }
}
