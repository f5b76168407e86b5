//! Versioned on-disk artifact layer.
//!
//! Each entry is one JSON file named `{kind}-{pattern:016x}-{config:016x}.json`
//! holding a self-describing envelope:
//!
//! ```json
//! {
//!   "version": 2,
//!   "kind": "reorder",
//!   "pattern": "00ab...",   // 16 hex digits (u64s exceed f64-safe integers)
//!   "config":  "00cd...",
//!   "checksum": "....",     // FNV-1a of the payload's JSON text
//!   "payload": { ... }      // the serialized Artifact
//! }
//! ```
//!
//! Writes go to a temporary file in the same directory followed by an atomic
//! rename, so readers never observe a torn entry. Reads validate the full
//! envelope (version, kind/key match, checksum) and *quarantine* anything
//! that fails — the file is moved into a `quarantine/` subdirectory and the
//! lookup reports a plain miss — so a corrupt or truncated entry can never
//! panic the pipeline or be served again.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bootes_sparse::Fnv1a;

use crate::artifact::Artifact;
use crate::key::{ArtifactKind, CacheKey};

/// On-disk format version; bump on any change to the envelope, the artifact
/// encoding, or the fingerprint scheme (see the known-answer test in
/// `bootes_sparse::fingerprint`). Entries with a different version are
/// ignored, not quarantined — they belong to another software version.
/// Version 2 derives the fingerprint from the row pattern hashes, so a
/// version-1 entry's file name keys a pattern hash of the old scheme.
pub const FORMAT_VERSION: u64 = 2;

/// Name of the subdirectory corrupt entries are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Maximum number of files kept in `quarantine/`; the oldest are evicted
/// first so repeated corruption cannot fill the disk.
pub const QUARANTINE_CAP: usize = 32;

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A cache directory on disk.
pub struct DiskStore {
    dir: PathBuf,
}

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex16(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

fn checksum(payload_json: &str) -> String {
    let mut h = Fnv1a::new();
    h.write_bytes(payload_json.as_bytes());
    hex16(h.finish())
}

impl DiskStore {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = DiskStore { dir };
        store.sweep_stale_tmp();
        Ok(store)
    }

    /// Removes `.*.tmp` files orphaned by a writer that died between
    /// `fs::write` and `fs::rename`. Temp names embed the writer's pid, so
    /// files from *this* process (a concurrent in-flight write through
    /// another handle) are left alone; anything from another pid is stale —
    /// either that process is dead, or it is a different cache user whose
    /// rename already happened (renames don't remove the source name we
    /// match here, so a missing file is just skipped).
    fn sweep_stale_tmp(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let own_pid = format!(".{}.", std::process::id());
        let mut swept = 0u64;
        for entry in entries.filter_map(|e| e.ok()) {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if !(name.starts_with('.') && name.ends_with(".tmp")) || name.contains(&own_pid) {
                continue;
            }
            if std::fs::remove_file(entry.path()).is_ok() {
                swept += 1;
            }
        }
        if swept > 0 {
            bootes_obs::counter_add("cache.tmp_swept", swept);
            eprintln!(
                "warning: swept {swept} stale temp file(s) from {} (crashed writer)",
                self.dir.display()
            );
        }
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Persists `artifact` under `key` with a write-to-temp + atomic-rename
    /// protocol.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat persistence as best-effort.
    pub fn store(&self, key: &CacheKey, artifact: &Artifact) -> std::io::Result<()> {
        let payload = serde::Serialize::serialize(artifact);
        let payload_json = serde_json::to_string(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let envelope = serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(FORMAT_VERSION)),
            (
                "kind".to_string(),
                serde::Value::Str(key.kind.tag().to_string()),
            ),
            ("pattern".to_string(), serde::Value::Str(hex16(key.pattern))),
            ("config".to_string(), serde::Value::Str(hex16(key.config))),
            (
                "checksum".to_string(),
                serde::Value::Str(checksum(&payload_json)),
            ),
            ("payload".to_string(), payload),
        ]);
        let text = serde_json::to_string(&envelope)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        // Unique temp name per write: concurrent writers of the same key
        // each rename their own finished file into place (last one wins,
        // both are valid entries with identical content for a deterministic
        // pipeline).
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            key.file_name(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text)?;
        // Chaos hook in the torn-write window: a `kill` action here orphans
        // the temp file exactly like a SIGKILL between write and rename, and
        // a `delay` widens the window for external kill drills.
        if let Err(e) = bootes_guard::fail_point("cache.disk.tmp_written") {
            let _ = std::fs::remove_file(&tmp);
            return Err(std::io::Error::other(e.to_string()));
        }
        match std::fs::rename(&tmp, self.path_for(key)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Loads the entry for `key`, or `None` when absent, from another format
    /// version, or corrupt (in which case the file is quarantined and a
    /// `cache.quarantine` counter incremented).
    pub fn load(&self, key: &CacheKey) -> Option<Artifact> {
        let path = self.path_for(key);
        let text = std::fs::read_to_string(&path).ok()?;
        match self.parse_entry(key, &text) {
            ParseOutcome::Ok(artifact) => Some(artifact),
            ParseOutcome::WrongVersion => None,
            ParseOutcome::Corrupt(why) => {
                self.quarantine(&path, &why);
                None
            }
        }
    }

    /// Lists the keys of every on-disk entry of `kind` whose config hash is
    /// `config`, in lexicographic file-name order. Nothing is loaded or
    /// validated — callers load (and thereby validate) the entries they
    /// actually want. Used to enumerate drift sketches for the donor index.
    pub fn keys_of_kind(&self, kind: ArtifactKind, config: u64) -> Vec<CacheKey> {
        let prefix = format!("{}-", kind.tag());
        let suffix = format!("-{}.json", hex16(config));
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|n| n.starts_with(&prefix) && n.ends_with(&suffix))
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
            .into_iter()
            .filter_map(|name| {
                let pattern = name
                    .strip_prefix(&prefix)?
                    .strip_suffix(&suffix)
                    .and_then(parse_hex16)?;
                Some(CacheKey {
                    kind,
                    pattern,
                    config,
                })
            })
            .collect()
    }

    /// Quarantines the entry for `key` (if its file exists): the file is
    /// moved into `quarantine/` and `cache.quarantine` incremented. For
    /// entries that parse fine but are *semantically* invalid — e.g. a donor
    /// permutation whose length disagrees with the requesting matrix — where
    /// the parse-time quarantine in [`DiskStore::load`] cannot fire.
    pub fn quarantine_entry(&self, key: &CacheKey, why: &str) {
        let path = self.path_for(key);
        if path.exists() {
            self.quarantine(&path, why);
        }
    }

    fn parse_entry(&self, key: &CacheKey, text: &str) -> ParseOutcome {
        let envelope: serde::Value = match serde_json::from_str(text) {
            Ok(v) => v,
            Err(e) => return ParseOutcome::Corrupt(format!("unparseable JSON: {e}")),
        };
        match envelope.get("version").and_then(|v| v.as_u64()) {
            Some(FORMAT_VERSION) => {}
            Some(_) => return ParseOutcome::WrongVersion,
            None => return ParseOutcome::Corrupt("missing version".to_string()),
        }
        let kind_ok = envelope
            .get("kind")
            .and_then(|v| v.as_str())
            .is_some_and(|t| t == key.kind.tag());
        let pattern_ok = envelope
            .get("pattern")
            .and_then(|v| v.as_str())
            .and_then(parse_hex16)
            .is_some_and(|p| p == key.pattern);
        let config_ok = envelope
            .get("config")
            .and_then(|v| v.as_str())
            .and_then(parse_hex16)
            .is_some_and(|c| c == key.config);
        if !kind_ok || !pattern_ok || !config_ok {
            return ParseOutcome::Corrupt(
                "envelope key fields disagree with file name".to_string(),
            );
        }
        let Some(payload) = envelope.get("payload") else {
            return ParseOutcome::Corrupt("missing payload".to_string());
        };
        let payload_json = match serde_json::to_string(payload) {
            Ok(s) => s,
            Err(e) => return ParseOutcome::Corrupt(format!("unserializable payload: {e}")),
        };
        let stored_sum = envelope.get("checksum").and_then(|v| v.as_str());
        if stored_sum != Some(checksum(&payload_json).as_str()) {
            return ParseOutcome::Corrupt("checksum mismatch".to_string());
        }
        match <Artifact as serde::Deserialize>::deserialize(payload) {
            Ok(artifact) if artifact.kind() == key.kind => ParseOutcome::Ok(artifact),
            Ok(_) => ParseOutcome::Corrupt("payload kind disagrees with envelope".to_string()),
            Err(e) => ParseOutcome::Corrupt(format!("invalid payload: {e}")),
        }
    }

    fn quarantine(&self, path: &Path, why: &str) {
        bootes_obs::counter_add("cache.quarantine", 1);
        let qdir = self.dir.join(QUARANTINE_DIR);
        let moved = std::fs::create_dir_all(&qdir).is_ok()
            && path
                .file_name()
                .map(|name| std::fs::rename(path, qdir.join(name)).is_ok())
                .unwrap_or(false);
        if !moved {
            // Last resort: remove it so it cannot be served again.
            let _ = std::fs::remove_file(path);
        }
        eprintln!(
            "warning: quarantined corrupt cache entry {}: {why}",
            path.display()
        );
        self.enforce_quarantine_cap(&qdir);
    }

    /// Keeps `quarantine/` bounded at [`QUARANTINE_CAP`] files: the oldest
    /// (by modification time, file name as a deterministic tiebreak) are
    /// deleted first, counted on `cache.quarantine_evicted`. Quarantined
    /// files exist for post-mortem inspection, so newest-wins is the right
    /// retention order.
    fn enforce_quarantine_cap(&self, qdir: &Path) {
        let Ok(entries) = std::fs::read_dir(qdir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, String, PathBuf)> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .map(|e| {
                let mtime = e
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                let name = e.file_name().to_string_lossy().into_owned();
                (mtime, name, e.path())
            })
            .collect();
        if files.len() <= QUARANTINE_CAP {
            return;
        }
        files.sort();
        let excess = files.len() - QUARANTINE_CAP;
        let mut evicted = 0u64;
        for (_, _, path) in files.into_iter().take(excess) {
            if std::fs::remove_file(path).is_ok() {
                evicted += 1;
            }
        }
        if evicted > 0 {
            bootes_obs::counter_add("cache.quarantine_evicted", evicted);
        }
    }
}

enum ParseOutcome {
    Ok(Artifact),
    WrongVersion,
    Corrupt(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::DecisionArtifact;
    use crate::key::ArtifactKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bootes-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_key() -> CacheKey {
        CacheKey {
            kind: ArtifactKind::Decision,
            pattern: 0xDEAD_BEEF_0123_4567,
            config: 0x89AB_CDEF_0000_0001,
        }
    }

    fn sample_artifact() -> Artifact {
        Artifact::Decision(DecisionArtifact {
            features: vec![0.125, -3.5, 0.0],
            class: 2,
        })
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        let key = sample_key();
        store.store(&key, &sample_artifact()).unwrap();
        assert_eq!(store.load(&key), Some(sample_artifact()));
        // A different config hash is a miss, not a false hit.
        let other = CacheKey {
            config: key.config ^ 1,
            ..key
        };
        assert_eq!(store.load(&other), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_missed() {
        let dir = tmp_dir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        let key = sample_key();
        store.store(&key, &sample_artifact()).unwrap();
        // Flip payload bytes without updating the checksum.
        let path = dir.join(key.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("0.125", "0.625")).unwrap();
        assert_eq!(store.load(&key), None);
        assert!(!path.exists(), "corrupt file must not stay in place");
        assert!(
            dir.join(QUARANTINE_DIR).join(key.file_name()).exists(),
            "corrupt file must be quarantined"
        );
        // A second lookup is a clean miss, not a repeated quarantine.
        assert_eq!(store.load(&key), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined() {
        let dir = tmp_dir("truncated");
        let store = DiskStore::open(&dir).unwrap();
        let key = sample_key();
        store.store(&key, &sample_artifact()).unwrap();
        let path = dir.join(key.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.load(&key), None);
        assert!(dir.join(QUARANTINE_DIR).join(key.file_name()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The next version belongs to newer software; the previous one keys
    /// patterns by the old fingerprint scheme. Either way the entry is
    /// skipped, never quarantined, and a cache over the directory neither
    /// serves it nor offers it as a drift donor.
    #[test]
    fn future_format_version_is_ignored_not_quarantined() {
        use crate::artifact::{ReorderArtifact, SketchArtifact};
        use crate::{Cache, CacheConfig};

        let reorder_key = CacheKey {
            kind: ArtifactKind::Reorder,
            pattern: 0x5EED,
            config: 3,
        };
        let sketch_key = CacheKey {
            kind: ArtifactKind::Sketch,
            pattern: 0x5EED,
            config: 77,
        };
        let entries = [
            (sample_key(), sample_artifact()),
            (
                reorder_key,
                Artifact::Reorder(ReorderArtifact {
                    permutation: bootes_sparse::Permutation::identity(4),
                    stats: bootes_reorder::ReorderStats::new(
                        "bootes",
                        std::time::Duration::from_millis(1),
                        64,
                    ),
                }),
            ),
            (
                sketch_key,
                Artifact::Sketch(SketchArtifact {
                    nrows: 4,
                    ncols: 4,
                    nnz: 8,
                    siglen: 2,
                    seed: 9,
                    sketch: vec![1, 2],
                    row_hashes: vec![5; 4],
                }),
            ),
        ];
        for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1] {
            let dir = tmp_dir(&format!("version-{version}"));
            let store = DiskStore::open(&dir).unwrap();
            for (key, artifact) in &entries {
                store.store(key, artifact).unwrap();
                let path = dir.join(key.file_name());
                let text = std::fs::read_to_string(&path).unwrap();
                let ours = format!("\"version\":{FORMAT_VERSION}");
                assert!(text.contains(&ours), "{text}");
                let theirs = format!("\"version\":{version}");
                std::fs::write(&path, text.replace(&ours, &theirs)).unwrap();
                assert_eq!(store.load(key), None, "version {version}");
            }
            let cache = Cache::new(CacheConfig::memory_only(1 << 20).with_dir(&dir)).unwrap();
            assert!(cache.sketch_candidates(77).is_empty(), "version {version}");
            assert_eq!(cache.sketch_donor(0x5EED, 77), None, "version {version}");
            assert_eq!(cache.reorder_donor(0x5EED, 3, 4), None, "version {version}");
            assert_eq!(cache.get(&reorder_key), None, "version {version}");
            for (key, _) in &entries {
                let path = dir.join(key.file_name());
                assert!(path.exists(), "other-version entries are left alone");
            }
            assert!(!dir.join(QUARANTINE_DIR).exists(), "version {version}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = tmp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let key = sample_key();
        // A temp file from a dead writer (pid 1 is never this test process)
        // and one from "this" process's in-flight write.
        let stale = dir.join(format!(".{}.1.0.tmp", key.file_name()));
        let live = dir.join(format!(".{}.{}.0.tmp", key.file_name(), std::process::id()));
        std::fs::write(&stale, "torn").unwrap();
        std::fs::write(&live, "in-flight").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert!(!stale.exists(), "stale tmp from a dead pid must be swept");
        assert!(live.exists(), "own-pid tmp files are left alone");
        // The sweep never touches real entries.
        store.store(&key, &sample_artifact()).unwrap();
        drop(store);
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.load(&key), Some(sample_artifact()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_growth_is_capped() {
        let dir = tmp_dir("qcap");
        let store = DiskStore::open(&dir).unwrap();
        // Corrupt QUARANTINE_CAP + 5 distinct entries; each load quarantines
        // one file and then enforces the cap.
        for i in 0..(QUARANTINE_CAP + 5) as u64 {
            let key = CacheKey {
                config: sample_key().config ^ i,
                ..sample_key()
            };
            store.store(&key, &sample_artifact()).unwrap();
            let path = dir.join(key.file_name());
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replace("0.125", "0.625")).unwrap();
            assert_eq!(store.load(&key), None);
        }
        let count = std::fs::read_dir(dir.join(QUARANTINE_DIR))
            .unwrap()
            .filter_map(|e| e.ok())
            .count();
        assert!(
            count <= QUARANTINE_CAP,
            "quarantine holds {count} files, cap is {QUARANTINE_CAP}"
        );
        assert!(count > 0, "quarantine must retain the newest entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_of_kind_lists_matching_config_only() {
        let dir = tmp_dir("keys");
        let store = DiskStore::open(&dir).unwrap();
        let base = sample_key();
        let other_cfg = CacheKey {
            pattern: base.pattern ^ 1,
            config: base.config ^ 7,
            ..base
        };
        let second = CacheKey {
            pattern: base.pattern ^ 2,
            ..base
        };
        for k in [base, other_cfg, second] {
            store.store(&k, &sample_artifact()).unwrap();
        }
        let keys = store.keys_of_kind(base.kind, base.config);
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&base) && keys.contains(&second));
        assert!(store
            .keys_of_kind(ArtifactKind::Sketch, base.config)
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_entry_moves_valid_but_rejected_files() {
        let dir = tmp_dir("qentry");
        let store = DiskStore::open(&dir).unwrap();
        let key = sample_key();
        store.store(&key, &sample_artifact()).unwrap();
        store.quarantine_entry(&key, "permutation length mismatch");
        assert_eq!(store.load(&key), None);
        assert!(dir.join(QUARANTINE_DIR).join(key.file_name()).exists());
        // Quarantining a missing entry is a no-op, not a panic.
        store.quarantine_entry(&key, "again");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
