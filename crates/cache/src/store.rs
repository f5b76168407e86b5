//! Sharded in-memory LRU store with explicit byte accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use bootes_guard::Budget;

use crate::artifact::Artifact;
use crate::key::CacheKey;

/// Number of independently locked shards. A small power of two keeps lock
/// contention negligible for the pipeline's access pattern (a handful of
/// lookups per matrix) without inflating the per-shard bookkeeping.
pub const N_SHARDS: usize = 8;

struct Entry {
    artifact: Artifact,
    bytes: usize,
    last_used: u64,
    /// Tick of the `put` that stored this entry. Reads leave it alone:
    /// it orders entries by when they entered the store, not by use.
    inserted: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
}

/// In-memory artifact store: `N_SHARDS` hash maps behind independent locks,
/// each evicting least-recently-used entries once its byte share of the
/// configured ceiling is exceeded.
///
/// The ceiling comes from a [`bootes_guard::Budget`]: `max_bytes` caps the
/// store's total accounted footprint (split evenly across shards, so a
/// pathological shard distribution can under-use but never overshoot the
/// total); an unlimited budget disables eviction. Recency is a process-wide
/// monotonic tick, so "least recently used" is exact across shards even
/// under concurrent access. Each entry also keeps the tick of the `put` that
/// stored it, which [`MemoryStore::scan`] reports: the drift donor index
/// ranks otherwise tied donors by it, newest first.
pub struct MemoryStore {
    shards: Vec<Mutex<Shard>>,
    tick: AtomicU64,
    total_bytes: AtomicUsize,
    evictions: AtomicU64,
    shard_ceiling: Option<usize>,
}

impl MemoryStore {
    /// Creates a store whose byte ceiling is `budget.max_bytes` (unlimited
    /// budgets disable eviction).
    pub fn with_budget(budget: &Budget) -> Self {
        let shard_ceiling = budget
            .max_bytes
            .map(|total| ((total as usize) / N_SHARDS).max(1));
        MemoryStore {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            tick: AtomicU64::new(0),
            total_bytes: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            shard_ceiling,
        }
    }

    fn lock_shard(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, Shard> {
        let shard = &self.shards[key.shard(N_SHARDS)];
        match shard.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up `key`, refreshing its recency (not its insertion tick) on a
    /// hit. Returns a clone so the caller never holds a shard lock.
    pub fn get(&self, key: &CacheKey) -> Option<Artifact> {
        let mut shard = self.lock_shard(key);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        shard.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.artifact.clone()
        })
    }

    /// Inserts (or replaces) `key`, stamping it with a fresh insertion tick,
    /// then evicts least-recently-used entries until the shard is back under
    /// its byte ceiling. An artifact larger than the whole shard ceiling is
    /// not stored at all — it would evict the entire shard and then be the
    /// next victim itself.
    pub fn put(&self, key: CacheKey, artifact: Artifact) {
        let bytes = artifact.approx_bytes();
        if let Some(ceiling) = self.shard_ceiling {
            if bytes > ceiling {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                bootes_obs::counter_add("cache.evict", 1);
                return;
            }
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.lock_shard(&key);
        if let Some(old) = shard.map.insert(
            key,
            Entry {
                artifact,
                bytes,
                last_used: tick,
                inserted: tick,
            },
        ) {
            shard.bytes -= old.bytes;
            self.total_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        shard.bytes += bytes;
        self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(ceiling) = self.shard_ceiling {
            while shard.bytes > ceiling {
                // O(n) victim scan; shards stay small enough (a few entries
                // per preprocessed matrix) that a linked LRU list would cost
                // more in bookkeeping than it saves.
                let victim = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k);
                let Some(victim) = victim else { break };
                if let Some(e) = shard.map.remove(&victim) {
                    shard.bytes -= e.bytes;
                    self.total_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    bootes_obs::counter_add("cache.evict", 1);
                }
            }
        }
        let total = self.total_bytes.load(Ordering::Relaxed);
        bootes_obs::gauge_set("cache.bytes", total as f64);
        // Best-effort surfacing through the armed budget's byte ceiling as
        // well (the store already evicted below its own ceiling, so this
        // only fires when an armed run budget is tighter than the cache's).
        let _ = bootes_guard::check_bytes("cache.insert", total as u64);
    }

    /// Removes `key` if present, returning whether an entry was dropped.
    /// Used to purge entries discovered to be invalid after a lookup (e.g. a
    /// donor permutation whose length disagrees with the requesting matrix).
    pub fn remove(&self, key: &CacheKey) -> bool {
        let mut shard = self.lock_shard(key);
        match shard.map.remove(key) {
            Some(e) => {
                shard.bytes -= e.bytes;
                self.total_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                bootes_obs::gauge_set(
                    "cache.bytes",
                    self.total_bytes.load(Ordering::Relaxed) as f64,
                );
                true
            }
            None => false,
        }
    }

    /// Runs `f` over every `(key, artifact, insertion tick)` triple until it
    /// returns `Some`, scanning shards in index order. Used to enumerate
    /// drift donors for [`crate::Cache::sketch_candidates`]; does not
    /// refresh recency. Insertion ticks are at least 1 and follow the order
    /// of the `put`s that stored the entries.
    pub fn scan<R>(&self, mut f: impl FnMut(&CacheKey, &Artifact, u64) -> Option<R>) -> Option<R> {
        for shard in &self.shards {
            let guard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            for (k, e) in &guard.map {
                if let Some(r) = f(k, &e.artifact, e.inserted) {
                    return Some(r);
                }
            }
        }
        None
    }

    /// Total accounted bytes across all shards.
    pub fn bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match s.lock() {
                Ok(g) => g.map.len(),
                Err(poisoned) => poisoned.into_inner().map.len(),
            })
            .sum()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evictions performed since creation (including oversized rejections).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
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
        let store = MemoryStore::with_budget(&Budget::unlimited());
        assert!(store.is_empty());
        store.put(key(1), decision(4, 2));
        assert_eq!(store.get(&key(1)), Some(decision(4, 2)));
        assert_eq!(store.get(&key(2)), None);
        assert_eq!(store.len(), 1);
        assert!(store.bytes() > 0);
    }

    #[test]
    fn replace_updates_byte_accounting() {
        let store = MemoryStore::with_budget(&Budget::unlimited());
        store.put(key(1), decision(100, 0));
        let big = store.bytes();
        store.put(key(1), decision(4, 0));
        assert!(store.bytes() < big);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_recency_and_ceiling() {
        // Ceiling sized for ~2 small artifacts per shard; keys share a
        // pattern-derived shard only by chance, so pick keys that collide.
        let probe = key(0).shard(N_SHARDS);
        let colliding: Vec<CacheKey> = (0..200u64)
            .map(key)
            .filter(|k| k.shard(N_SHARDS) == probe)
            .take(3)
            .collect();
        assert_eq!(colliding.len(), 3);
        let per_entry = decision(4, 0).approx_bytes();
        let budget = Budget::unlimited().with_bytes((N_SHARDS * per_entry * 2 + N_SHARDS) as u64);
        let store = MemoryStore::with_budget(&budget);
        store.put(colliding[0], decision(4, 0));
        store.put(colliding[1], decision(4, 1));
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(store.get(&colliding[0]).is_some());
        store.put(colliding[2], decision(4, 2));
        assert!(store.get(&colliding[0]).is_some(), "recently used survived");
        assert_eq!(store.get(&colliding[1]), None, "LRU entry evicted");
        assert!(store.get(&colliding[2]).is_some());
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn oversized_artifacts_are_rejected_not_thrashed() {
        let budget = Budget::unlimited().with_bytes((N_SHARDS * 100) as u64);
        let store = MemoryStore::with_budget(&budget);
        store.put(key(1), decision(1000, 0)); // ~8 KiB > 100-byte shard share
        assert!(store.is_empty());
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.bytes(), 0);
    }

    #[test]
    fn remove_drops_entry_and_byte_accounting() {
        let store = MemoryStore::with_budget(&Budget::unlimited());
        store.put(key(1), decision(4, 0));
        store.put(key(2), decision(4, 1));
        let before = store.bytes();
        assert!(store.remove(&key(1)));
        assert!(!store.remove(&key(1)), "second remove is a no-op");
        assert_eq!(store.get(&key(1)), None);
        assert!(store.get(&key(2)).is_some());
        assert!(store.bytes() < before);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn scan_finds_entries_across_shards() {
        let store = MemoryStore::with_budget(&Budget::unlimited());
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
        let store = MemoryStore::with_budget(&Budget::unlimited());
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
