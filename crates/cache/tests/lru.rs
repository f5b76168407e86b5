//! The memory layer is one LRU under one byte ceiling: an artifact is
//! refused only when it alone exceeds the ceiling, and eviction takes the
//! least recently used entry of the whole cache.

use bootes_cache::{
    Artifact, ArtifactKind, Cache, CacheConfig, CacheKey, DecisionArtifact, MemoryStore,
};
use proptest::prelude::*;

const MIB: u64 = 1 << 20;

fn key(pattern: u64) -> CacheKey {
    CacheKey {
        kind: ArtifactKind::Decision,
        pattern,
        config: 1,
    }
}

/// A decision artifact of about `bytes` accounted bytes.
fn artifact_of(bytes: u64, class: usize) -> Artifact {
    Artifact::Decision(DecisionArtifact {
        features: vec![0.25; (bytes / 8) as usize],
        class,
    })
}

#[test]
fn a_quarter_of_the_ceiling_is_stored() {
    let cache = Cache::new(CacheConfig::memory_only(MIB)).expect("cache opens");
    let big = artifact_of(256_000, 1);
    cache.put(key(1), big.clone());
    assert!(
        cache.get(&key(1)) == Some(big),
        "a 256 KB artifact was refused"
    );
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.evictions), (1, 0));
}

#[test]
fn four_tenths_of_the_ceiling_stay_resident() {
    let cache = Cache::new(CacheConfig::memory_only(MIB)).expect("cache opens");
    // These four keys fell into one shard of the former eight-way split,
    // each of which held an eighth of the ceiling.
    let patterns = [1, 9, 17, 25];
    for (class, &p) in patterns.iter().enumerate() {
        cache.put(key(p), artifact_of(MIB / 10 - 64, class));
    }
    for (class, &p) in patterns.iter().enumerate() {
        let stored = Some(artifact_of(MIB / 10 - 64, class));
        assert!(cache.get(&key(p)) == stored, "pattern {p} was evicted");
    }
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.evictions), (4, 0));
    assert!(stats.bytes <= (MIB / 2) as usize, "{}", stats.bytes);
}

/// The specification: entries in recency order, least recently used first,
/// each with its pattern, accounted bytes, artifact and the sequence number
/// of the put that stored it.
struct ReferenceLru {
    ceiling: usize,
    entries: Vec<(u64, usize, Artifact, u64)>,
    puts: u64,
    evictions: u64,
}

impl ReferenceLru {
    fn position(&self, pattern: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == pattern)
    }

    fn get(&mut self, pattern: u64) -> Option<Artifact> {
        let entry = self.entries.remove(self.position(pattern)?);
        let artifact = entry.2.clone();
        self.entries.push(entry);
        Some(artifact)
    }

    fn put(&mut self, pattern: u64, artifact: Artifact) {
        let bytes = artifact.approx_bytes();
        if bytes > self.ceiling {
            self.evictions += 1;
            return;
        }
        self.remove(pattern);
        self.puts += 1;
        self.entries.push((pattern, bytes, artifact, self.puts));
        while self.bytes() > self.ceiling {
            self.entries.remove(0);
            self.evictions += 1;
        }
    }

    fn remove(&mut self, pattern: u64) -> bool {
        self.position(pattern)
            .map(|i| self.entries.remove(i))
            .is_some()
    }

    fn bytes(&self) -> usize {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// Resident patterns in the order of the puts that stored them.
    fn by_insertion(&self) -> Vec<u64> {
        let mut entries: Vec<(u64, u64)> = self.entries.iter().map(|e| (e.3, e.0)).collect();
        entries.sort_unstable();
        entries.into_iter().map(|(_, p)| p).collect()
    }
}

/// Resident patterns of `store`, ordered by their insertion stamps.
fn by_stamp(store: &MemoryStore) -> Vec<u64> {
    let mut entries = Vec::new();
    store.scan(|k, _, stamp| {
        entries.push((stamp, k.pattern));
        None::<()>
    });
    entries.sort_unstable();
    entries.into_iter().map(|(_, p)| p).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random `get`, `put` and `remove` sequences over eight keys, with
    /// artifacts of 64 to 663 bytes under ceilings of 0 to 1499 bytes, so
    /// puts are refused, evict, or fit: the store matches the reference
    /// after every step.
    #[test]
    fn store_matches_a_reference_lru(
        ceiling in 0u64..1500,
        ops in collection::vec((0usize..3, 0u64..8, 0u64..600), 1..120),
    ) {
        let store = MemoryStore::new(ceiling);
        let mut reference = ReferenceLru {
            ceiling: ceiling as usize,
            entries: Vec::new(),
            puts: 0,
            evictions: 0,
        };
        for (step, &(op, pattern, size)) in ops.iter().enumerate() {
            match op {
                0 => prop_assert_eq!(store.get(&key(pattern)), reference.get(pattern)),
                1 => {
                    let artifact = artifact_of(size, step);
                    store.put(key(pattern), artifact.clone());
                    reference.put(pattern, artifact);
                }
                _ => prop_assert_eq!(store.remove(&key(pattern)), reference.remove(pattern)),
            }
            let stats = store.stats();
            prop_assert_eq!(stats.bytes, reference.bytes(), "step {}", step);
            prop_assert_eq!(stats.entries, reference.entries.len());
            prop_assert_eq!(stats.evictions, reference.evictions);
            prop_assert_eq!(by_stamp(&store), reference.by_insertion());
        }
    }
}
