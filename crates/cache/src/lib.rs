#![warn(missing_docs)]
//! Content-addressed preprocessing artifact cache.
//!
//! Bootes preprocessing is expensive relative to the SpGEMM it accelerates
//! (the paper's §5.4 preprocessing-overhead analysis), and real workloads
//! re-factorize matrices whose sparsity pattern recurs run after run. This
//! crate amortizes that cost: every preprocessing artifact is keyed by the
//! *content* of the input matrix (a [`bootes_sparse::MatrixFingerprint`])
//! plus a hash of the producing configuration, and stored in a two-layer
//! cache —
//!
//! - an in-memory LRU ([`MemoryStore`]): one map behind one lock, whose
//!   accounted bytes stay under one ceiling (`--cache-mem-mb`), and
//! - an optional versioned on-disk layer ([`DiskStore`], `--cache-dir`) with
//!   atomic-rename writes and quarantine-on-corruption semantics.
//!
//! Four artifact families are cached (see [`Artifact`]):
//!
//! 1. **Reorder** — the final row permutation plus its `ReorderStats`. An
//!    exact hit skips the whole spectral pipeline and returns bit-identical
//!    output (the stored stats are re-stamped with the lookup time and a
//!    `cache_hit` marker).
//! 2. **Ritz** — converged Lanczos eigenpairs, reused verbatim on an exact
//!    hit. Reorder keys include the model, so pipelines that pick the same
//!    `k` for one matrix share a single eigensolve through this key.
//! 3. **Decision** — the structural feature vector and the decision tree's
//!    predicted class.
//! 4. **Sketch** — a whole-matrix MinHash similarity sketch plus per-row
//!    pattern hashes, consulted by the drift donor lookup
//!    ([`Cache::sketch_candidates`] / [`Cache::reorder_donor`]) to locate a
//!    near-identical cached permutation when the exact reorder key misses.
//!
//! All four are functions of the sparsity pattern only, so the keys use the
//! pattern hash and matrices differing only in values share entries.
//!
//! Consumers integrate through the process-global instance: [`install`] a
//! configured [`Cache`] (the CLI does this from `--cache-dir` /
//! `--cache-mem-mb`), and `bootes-core` consults [`global`] before every
//! reorder, eigensolve and model decision. With nothing installed every
//! lookup is a no-op and the pipeline behaves exactly as an uncached build.
//!
//! Concurrent consumers (the `bootes-serve` daemon) additionally coalesce
//! same-key misses through a [`Singleflight`] group: N simultaneous requests
//! for one not-yet-cached key run the computation once and share the result
//! (see the [`singleflight`] module).
//!
//! Observability: `cache.hit`, `cache.miss`, `cache.evict` and
//! `cache.quarantine` counters plus the `cache.bytes` gauge (see the
//! `bootes-obs` metric catalog).

pub mod artifact;
pub mod disk;
pub mod key;
pub mod singleflight;
pub mod store;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use artifact::{
    Artifact, DecisionArtifact, ReorderArtifact, RitzArtifact, SketchArtifact, SketchCandidate,
};
pub use disk::{DiskStore, FORMAT_VERSION, QUARANTINE_DIR};
pub use key::{ArtifactKind, CacheKey};
pub use singleflight::{FlightRole, Singleflight};
pub use store::MemoryStore;

/// Configuration of a [`Cache`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Byte ceiling of the in-memory layer. Past it the least recently used
    /// entries are evicted, and an artifact larger than the whole ceiling is
    /// never stored in memory.
    pub mem_bytes: u64,
    /// Directory of the on-disk layer; `None` keeps the cache memory-only.
    pub dir: Option<PathBuf>,
    /// Refuse [`ArtifactKind::Ritz`] entries. Ritz pairs let pipelines that
    /// pick the same k for one matrix (one per accelerator model) share an
    /// eigensolve. A process running a single pipeline never reads them back
    /// (its own reorder artifact for the matrix answers first), yet they are
    /// most of what each cached matrix costs: `bootes serve` skips them.
    pub skip_ritz: bool,
}

impl CacheConfig {
    /// Memory-only cache with the given byte ceiling.
    pub fn memory_only(mem_bytes: u64) -> Self {
        CacheConfig {
            mem_bytes,
            dir: None,
            skip_ritz: false,
        }
    }

    /// Adds an on-disk layer rooted at `dir`.
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Stops storing Ritz pairs (see [`CacheConfig::skip_ritz`]).
    pub fn without_ritz(mut self) -> Self {
        self.skip_ritz = true;
        self
    }
}

/// Monotonic counters of one [`Cache`] instance, for bench reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing (including quarantined entries).
    pub misses: u64,
    /// Entries evicted from the memory layer (including oversized rejects).
    pub evictions: u64,
    /// Currently accounted bytes in the memory layer.
    pub bytes: usize,
    /// Live entries in the memory layer.
    pub entries: usize,
}

/// The two-layer artifact cache.
pub struct Cache {
    skip_ritz: bool,
    mem: MemoryStore,
    disk: Option<DiskStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Cache {
    /// Builds a cache from `config`, creating the disk directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the configured directory cannot be
    /// created — surfaced at configuration time (CLI startup), not per
    /// lookup.
    pub fn new(config: CacheConfig) -> std::io::Result<Self> {
        let disk = match &config.dir {
            Some(dir) => Some(DiskStore::open(dir)?),
            None => None,
        };
        Ok(Cache {
            skip_ritz: config.skip_ritz,
            mem: MemoryStore::new(config.mem_bytes),
            disk,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks up `key` in memory, then on disk (promoting a disk hit into
    /// memory). Counts `cache.hit` / `cache.miss`.
    pub fn get(&self, key: &CacheKey) -> Option<Artifact> {
        if let Some(artifact) = self.mem.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            bootes_obs::counter_add("cache.hit", 1);
            return Some(artifact);
        }
        if let Some(disk) = &self.disk {
            if let Some(artifact) = disk.load(key) {
                self.mem.put(*key, artifact.clone());
                self.hits.fetch_add(1, Ordering::Relaxed);
                bootes_obs::counter_add("cache.hit", 1);
                return Some(artifact);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        bootes_obs::counter_add("cache.miss", 1);
        None
    }

    /// Stores `artifact` under `key` in memory and (best-effort) on disk.
    /// Disk failures are reported on stderr but never fail the pipeline.
    /// A key/artifact kind mismatch is a programming error and panics in
    /// debug builds; release builds drop the entry instead of poisoning the
    /// cache. Ritz pairs are dropped when the cache was configured
    /// [`CacheConfig::without_ritz`].
    pub fn put(&self, key: CacheKey, artifact: Artifact) {
        debug_assert_eq!(key.kind, artifact.kind(), "cache key/artifact mismatch");
        if key.kind != artifact.kind() || (self.skip_ritz && key.kind == ArtifactKind::Ritz) {
            return;
        }
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.store(&key, &artifact) {
                eprintln!(
                    "warning: failed to persist cache entry {}: {e}",
                    key.file_name()
                );
            }
        }
        self.mem.put(key, artifact);
    }

    /// Lists every cached sketch stored under the sketch config hash
    /// `config` as lightweight [`SketchCandidate`]s sorted by pattern — the
    /// candidate set for the drift donor index. Per-row hashes are *not*
    /// cloned here (fetch the winner's full artifact with
    /// [`Cache::sketch_donor`]). Memory entries win over disk entries with
    /// the same pattern; neither layer counts hit/miss (enumeration is not a
    /// lookup). Each candidate's [`SketchCandidate::stamp`] is its memory
    /// entry's insertion tick, which follows the order of the puts and no
    /// lookup changes; a sketch found only on disk gets 0.
    pub fn sketch_candidates(&self, config: u64) -> Vec<SketchCandidate> {
        let mut found: Vec<SketchCandidate> = Vec::new();
        self.mem.scan(|k, a, inserted| {
            if let Artifact::Sketch(s) = a {
                if k.kind == ArtifactKind::Sketch && k.config == config {
                    found.push(s.candidate(k.pattern, inserted));
                }
            }
            None::<()>
        });
        if let Some(disk) = &self.disk {
            for key in disk.keys_of_kind(ArtifactKind::Sketch, config) {
                if found.iter().any(|c| c.pattern == key.pattern) {
                    continue;
                }
                if let Some(Artifact::Sketch(s)) = disk.load(&key) {
                    found.push(s.candidate(key.pattern, 0));
                }
            }
        }
        found.sort_by_key(|c| c.pattern);
        found
    }

    /// Full [`SketchArtifact`] of one cached pattern — the donor-index
    /// winner, whose per-row hashes the resplice needs. Read like
    /// [`Cache::reorder_donor`]: memory, then disk, no hit or miss counted.
    pub fn sketch_donor(&self, pattern: u64, config: u64) -> Option<SketchArtifact> {
        let key = CacheKey {
            kind: ArtifactKind::Sketch,
            pattern,
            config,
        };
        match self.donor_read(&key) {
            Some(Artifact::Sketch(s)) => Some(s),
            _ => None,
        }
    }

    /// Drift donor lookup: the reorder artifact stored under the *donor's*
    /// pattern hash and the requesting run's config hash. Memory first, then
    /// disk, without promoting a disk entry into memory. Does not count
    /// hit/miss — a donor is an accelerated miss, not a hit.
    ///
    /// `expect_rows` is the requesting matrix's row count. A stored
    /// permutation whose length disagrees is *quarantined* from both layers
    /// (dropped from memory, moved to `quarantine/` on disk, counted on
    /// `cache.quarantine`) and the lookup reports no donor — it is never
    /// panicked on or silently applied to the wrong-sized matrix.
    pub fn reorder_donor(
        &self,
        donor_pattern: u64,
        config: u64,
        expect_rows: usize,
    ) -> Option<ReorderArtifact> {
        let key = CacheKey {
            kind: ArtifactKind::Reorder,
            pattern: donor_pattern,
            config,
        };
        let Some(Artifact::Reorder(r)) = self.donor_read(&key) else {
            return None;
        };
        if r.permutation.len() != expect_rows {
            let why = format!(
                "donor permutation length {} != requesting matrix rows {expect_rows}",
                r.permutation.len()
            );
            self.mem.remove(&key);
            match &self.disk {
                // The disk path counts `cache.quarantine` itself.
                Some(disk) => disk.quarantine_entry(&key, &why),
                None => {
                    bootes_obs::counter_add("cache.quarantine", 1);
                    eprintln!(
                        "warning: quarantined cache entry {}: {why}",
                        key.file_name()
                    );
                }
            }
            return None;
        }
        Some(r)
    }

    /// The read both donor lookups share (see [`Cache::reorder_donor`]).
    fn donor_read(&self, key: &CacheKey) -> Option<Artifact> {
        self.mem.get(key).or_else(|| self.disk.as_ref()?.load(key))
    }

    /// Snapshot of this cache's counters. The memory layer's `evictions`,
    /// `bytes` and `entries` come from one read under its lock.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            ..self.mem.stats()
        }
    }
}

/// Hashes any serializable value through its compact JSON encoding —
/// the standard way to derive the `config` component of a [`CacheKey`]
/// (e.g. from a `BootesConfig`, a `LanczosConfig`, or a trained model).
/// Deterministic because the vendored serializer emits fields in
/// declaration order and round-trips `f64` exactly.
pub fn hash_serialized<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    let json = serde_json::to_string(value).unwrap_or_default();
    let mut h = bootes_sparse::Fnv1a::new();
    h.write_str(&json);
    h.finish()
}

// ---------------------------------------------------------------------------
// Process-global instance
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Mutex<Option<Arc<Cache>>>> = OnceLock::new();

fn global_slot() -> std::sync::MutexGuard<'static, Option<Arc<Cache>>> {
    let m = GLOBAL.get_or_init(|| Mutex::new(None));
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Installs `cache` as the process-global instance consulted by the
/// preprocessing pipeline, replacing (and returning) any previous one.
/// Follows the same process-global pattern as the `bootes-obs` registry and
/// the `bootes-guard` armed budget: the CLI configures it once at startup,
/// library code reads it through [`global`].
pub fn install(cache: Cache) -> Option<Arc<Cache>> {
    global_slot().replace(Arc::new(cache))
}

/// Removes the process-global cache (lookups become no-ops again) and
/// returns it, e.g. to read final [`Cache::stats`].
pub fn uninstall() -> Option<Arc<Cache>> {
    global_slot().take()
}

/// The currently installed process-global cache, if any.
pub fn global() -> Option<Arc<Cache>> {
    global_slot().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(class: usize) -> Artifact {
        Artifact::Decision(DecisionArtifact {
            features: vec![1.0, 2.0],
            class,
        })
    }

    fn key(pattern: u64, config: u64) -> CacheKey {
        CacheKey {
            kind: ArtifactKind::Decision,
            pattern,
            config,
        }
    }

    #[test]
    fn memory_only_hit_miss_accounting() {
        let cache = Cache::new(CacheConfig::memory_only(1 << 20)).unwrap();
        assert_eq!(cache.get(&key(1, 1)), None);
        cache.put(key(1, 1), decision(3));
        assert_eq!(cache.get(&key(1, 1)), Some(decision(3)));
        assert_eq!(cache.get(&key(1, 2)), None, "config hash isolates entries");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn disk_layer_survives_a_fresh_memory_layer() {
        let dir =
            std::env::temp_dir().join(format!("bootes-cache-lib-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).unwrap();
            cache.put(key(7, 9), decision(4));
        }
        // New cache, empty memory: the entry comes back from disk.
        let cache = Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).unwrap();
        assert_eq!(cache.get(&key(7, 9)), Some(decision(4)));
        // Promoted into memory: a second hit works even if the file vanishes.
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cache.get(&key(7, 9)), Some(decision(4)));
    }

    #[test]
    fn without_ritz_refuses_only_ritz_pairs() {
        let dir =
            std::env::temp_dir().join(format!("bootes-cache-ritz-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::new(
            CacheConfig::memory_only(1 << 20)
                .with_dir(&dir)
                .without_ritz(),
        )
        .unwrap();
        let ritz_key = CacheKey {
            kind: ArtifactKind::Ritz,
            ..key(5, 6)
        };
        let ritz = Artifact::Ritz(RitzArtifact {
            pairs: bootes_linalg::Eigenpairs {
                eigenvalues: vec![0.0],
                eigenvectors: vec![vec![1.0; 4]],
                matvecs: 1,
                restarts: 0,
                residuals: vec![0.0],
            },
        });
        cache.put(ritz_key, ritz);
        cache.put(key(5, 6), decision(2));
        assert_eq!(cache.get(&ritz_key), None);
        assert_eq!(cache.get(&key(5, 6)), Some(decision(2)));
        assert_eq!(cache.stats().entries, 1);
        // Nothing of the Ritz pairs reached the disk layer either.
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(files.iter().all(|f| !f.starts_with("ritz")), "{files:?}");
        assert!(files.iter().any(|f| f.starts_with("decision")), "{files:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sketch(pattern_tag: u64, nrows: usize) -> SketchArtifact {
        SketchArtifact {
            nrows,
            ncols: nrows,
            nnz: nrows * 3,
            siglen: 4,
            seed: 9,
            sketch: vec![pattern_tag; 4],
            row_hashes: vec![pattern_tag; nrows],
        }
    }

    #[test]
    fn sketch_candidates_merge_memory_and_disk() {
        let dir =
            std::env::temp_dir().join(format!("bootes-cache-sketch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let skey = |pattern| CacheKey {
            kind: ArtifactKind::Sketch,
            pattern,
            config: 77,
        };
        {
            let cache = Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).unwrap();
            cache.put(skey(1), Artifact::Sketch(sketch(1, 8)));
            cache.put(skey(2), Artifact::Sketch(sketch(2, 8)));
        }
        // Fresh memory layer: one entry re-cached in memory, one disk-only.
        let cache = Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).unwrap();
        cache.put(skey(2), Artifact::Sketch(sketch(2, 8)));
        let found = cache.sketch_candidates(77);
        assert_eq!(
            found.iter().map(|c| c.pattern).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // Candidates carry the signature and shape; the winner's full
        // artifact (row hashes included) comes from `sketch_donor`.
        assert_eq!(found[0].sig, vec![1; 4]);
        assert_eq!((found[0].nrows, found[0].ncols), (8, 8));
        // The disk-only sketch ranks oldest; the memory one is stamped.
        assert_eq!(found[0].stamp, 0);
        assert!(found[1].stamp > 0);
        assert_eq!(cache.sketch_donor(1, 77), Some(sketch(1, 8)));
        assert_eq!(cache.sketch_donor(3, 77), None);
        // A different sketch config sees nothing.
        assert!(cache.sketch_candidates(78).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sketch_candidate_stamps_follow_puts_not_lookups() {
        let cache = Cache::new(CacheConfig::memory_only(1 << 20)).unwrap();
        let skey = |pattern| CacheKey {
            kind: ArtifactKind::Sketch,
            pattern,
            config: 77,
        };
        let rkey = CacheKey {
            kind: ArtifactKind::Reorder,
            pattern: 5,
            config: 3,
        };
        cache.put(
            rkey,
            Artifact::Reorder(ReorderArtifact {
                permutation: bootes_sparse::Permutation::identity(8),
                stats: bootes_reorder::ReorderStats::new(
                    "bootes",
                    std::time::Duration::from_millis(1),
                    64,
                ),
            }),
        );
        // Put in the order 5, 1, 3: the candidates come sorted by pattern,
        // their stamps in put order.
        for pattern in [5, 1, 3] {
            cache.put(skey(pattern), Artifact::Sketch(sketch(pattern, 8)));
        }
        let stamps = |cache: &Cache| -> Vec<(u64, u64)> {
            cache
                .sketch_candidates(77)
                .iter()
                .map(|c| (c.pattern, c.stamp))
                .collect()
        };
        let before = stamps(&cache);
        let stamp_of = |s: &[(u64, u64)], p: u64| s.iter().find(|(q, _)| *q == p).unwrap().1;
        assert_eq!(before.iter().map(|s| s.0).collect::<Vec<_>>(), [1, 3, 5]);
        assert!(stamp_of(&before, 5) < stamp_of(&before, 1));
        assert!(stamp_of(&before, 1) < stamp_of(&before, 3));
        // Lookups refresh LRU recency only: every stamp stays put.
        assert!(cache.get(&skey(5)).is_some());
        assert!(cache.sketch_donor(5, 77).is_some());
        assert!(cache.reorder_donor(5, 3, 8).is_some());
        assert_eq!(stamps(&cache), before);
        // A re-put makes the entry the newest.
        cache.put(skey(5), Artifact::Sketch(sketch(5, 8)));
        let after = stamps(&cache);
        assert!(stamp_of(&after, 5) > stamp_of(&after, 3));
        assert_eq!(stamp_of(&after, 1), stamp_of(&before, 1));
    }

    #[test]
    fn reorder_donor_returns_matching_length_and_counts_nothing() {
        let cache = Cache::new(CacheConfig::memory_only(1 << 20)).unwrap();
        let rkey = CacheKey {
            kind: ArtifactKind::Reorder,
            pattern: 0xA1,
            config: 3,
        };
        let art = ReorderArtifact {
            permutation: bootes_sparse::Permutation::try_new(vec![1, 0, 2]).unwrap(),
            stats: bootes_reorder::ReorderStats::new(
                "bootes",
                std::time::Duration::from_millis(1),
                64,
            ),
        };
        cache.put(rkey, Artifact::Reorder(art.clone()));
        let before = cache.stats();
        assert_eq!(cache.reorder_donor(0xA1, 3, 3), Some(art));
        assert_eq!(cache.reorder_donor(0xA2, 3, 3), None);
        let after = cache.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
    }

    #[test]
    fn mismatched_donor_length_is_quarantined_not_served() {
        let dir =
            std::env::temp_dir().join(format!("bootes-cache-donorlen-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).unwrap();
        let rkey = CacheKey {
            kind: ArtifactKind::Reorder,
            pattern: 0xB2,
            config: 5,
        };
        let art = ReorderArtifact {
            permutation: bootes_sparse::Permutation::try_new(vec![2, 0, 1]).unwrap(),
            stats: bootes_reorder::ReorderStats::new(
                "bootes",
                std::time::Duration::from_millis(1),
                64,
            ),
        };
        cache.put(rkey, Artifact::Reorder(art));
        // Requesting 5 rows against a 3-row donor: no donor, entry gone from
        // both layers, file in quarantine.
        assert_eq!(cache.reorder_donor(0xB2, 5, 5), None);
        assert_eq!(cache.mem.get(&rkey), None, "purged from memory");
        assert!(
            dir.join(QUARANTINE_DIR).join(rkey.file_name()).exists(),
            "quarantined on disk"
        );
        // The (correctly sized) original request also sees nothing now.
        assert_eq!(cache.reorder_donor(0xB2, 5, 3), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hash_serialized_is_deterministic_and_sensitive() {
        let a = vec![1.0f64, 2.0, 3.0];
        let b = vec![1.0f64, 2.0, 3.0000000001];
        assert_eq!(hash_serialized(&a), hash_serialized(&a));
        assert_ne!(hash_serialized(&a), hash_serialized(&b));
    }

    #[test]
    fn global_install_uninstall_cycle() {
        // Serialize against other tests touching the global slot.
        uninstall();
        assert!(global().is_none());
        install(Cache::new(CacheConfig::memory_only(1 << 16)).unwrap());
        let g = global().expect("installed");
        g.put(key(42, 1), decision(0));
        assert_eq!(g.stats().entries, 1);
        let removed = uninstall().expect("was installed");
        assert_eq!(removed.stats().entries, 1);
        assert!(global().is_none());
    }
}
