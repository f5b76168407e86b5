//! The traced replay of `BootesPipeline::preprocess`.
//!
//! The replay calls the layers' public entry points in the order
//! `preprocess` calls them — fingerprint, cache lookup, decide, the drift
//! donor probe, the spectral reorder chain, cache publication — and wraps
//! each call in a span. It must produce `preprocess`'s permutation bit for
//! bit; the workloads assert that. The eigensolve inside `core.reorder`
//! cannot be timed from outside, so [`split_cluster`] repeats it as a shadow
//! (Laplacian, Lanczos, k-means, each timed) and the shadow is grafted into
//! the reorder span: what remains of `core.reorder` is the ordering step.

use std::cell::Cell;
use std::collections::HashMap;

use bootes_cache::{
    Artifact, ArtifactKind, Cache, CacheKey, DecisionArtifact, ReorderArtifact, SketchArtifact,
};
use bootes_core::{
    BootesConfig, BootesPipeline, DriftConfig, FallbackReorderer, Label, MatrixFeatures,
};
use bootes_drift::{changed_rows, resplice, row_pattern_hashes, sketch_of, SimilarityIndex};
use bootes_linalg::laplacian::ImplicitNormalizedLaplacian;
use bootes_linalg::LinearOperator;
use bootes_linalg::{kmeans, lanczos_smallest, Eigenpairs, KMeansConfig, LanczosConfig};
use bootes_model::DecisionTree;
use bootes_reorder::lsh::MatrixSketch;
use bootes_reorder::{ReorderStats, Reorderer};
use bootes_sparse::{CsrMatrix, DenseMatrix, Permutation};

use crate::trace::{Tracer, SHADOW};

/// What one replayed `preprocess` call decided.
pub struct Replayed {
    /// The cost model's verdict.
    pub label: Label,
    /// The permutation `preprocess` would return.
    pub permutation: Permutation,
    /// Served from the exact-key cache entry.
    pub cache_hit: bool,
    /// Served by resplicing a cached donor.
    pub respliced: bool,
    /// A donor qualified but too many rows changed.
    pub drift_fallback: bool,
    /// The cold spectral reorder this call ran, if any.
    pub cold: Option<ColdReorder>,
}

/// A `core.reorder` span whose eigensolve the split shadow should repeat.
pub struct ColdReorder {
    /// The `core.reorder` span.
    pub span: usize,
    /// Cluster count the model chose.
    pub k: usize,
    /// The reorder found its eigenpairs in the cache (so its time holds no
    /// eigensolve, and the shadow repeats only the k-means).
    pub ritz_hit: bool,
}

enum Probe {
    NoDonor,
    Fallback,
    Respliced(Permutation),
}

/// A pipeline plus what the replay needs to derive its cache keys.
pub struct Replay {
    pipeline: BootesPipeline,
    config: BootesConfig,
    model_hash: u64,
}

impl Replay {
    /// `pipeline` must have been built over `config`.
    pub fn new(pipeline: BootesPipeline, config: BootesConfig) -> Self {
        let model_hash = bootes_cache::hash_serialized(pipeline.model());
        Replay {
            pipeline,
            config,
            model_hash,
        }
    }

    /// The pipeline being replayed.
    pub fn pipeline(&self) -> &BootesPipeline {
        &self.pipeline
    }

    /// The spectral configuration the pipeline reorders with.
    pub fn config(&self) -> &BootesConfig {
        &self.config
    }

    /// `preprocess(a)` decomposed into traced layer calls, against the
    /// installed process-global cache.
    pub fn preprocess(&self, t: &mut Tracer, a: &CsrMatrix) -> Result<Replayed, String> {
        let cache = bootes_cache::global().ok_or("the replay needs an installed cache")?;
        let key = t.span("sparse.fingerprint", |_| self.pipeline.reorder_key(a));
        // The verdict is keyed on the pattern and the model alone.
        let decision_key = CacheKey {
            kind: ArtifactKind::Decision,
            pattern: key.pattern,
            config: self.model_hash,
        };
        if let Some(Artifact::Reorder(hit)) = t.span("cache.get", |_| cache.get(&key)) {
            let label = self.decide(t, &cache, a, &decision_key)?;
            return Ok(Replayed {
                label,
                permutation: hit.permutation,
                cache_hit: true,
                respliced: false,
                drift_fallback: false,
                cold: None,
            });
        }
        let label = self.decide(t, &cache, a, &decision_key)?;
        let mut out = Replayed {
            label,
            permutation: Permutation::identity(a.nrows()),
            cache_hit: false,
            respliced: false,
            drift_fallback: false,
            cold: None,
        };
        let mut stats = ReorderStats::new("bootes-pipeline", Default::default(), 0);
        let mut probed_sketch = None;
        if let Label::Reorder(k) = label {
            let (probe, sketch) = t.span("drift.probe", |t| self.probe(t, &cache, a, &key));
            probed_sketch = sketch;
            match probe {
                Probe::Respliced(p) => {
                    out.permutation = p;
                    out.respliced = true;
                }
                probe => {
                    out.drift_fallback = matches!(probe, Probe::Fallback);
                    let hits_before = cache.stats().hits;
                    let span = t.open("core.reorder");
                    let reordered = FallbackReorderer::new(self.config.clone().with_k(k))
                        .reorder(a)
                        .map_err(|e| format!("reorder failed: {e}"))?;
                    t.close(span);
                    out.cold = Some(ColdReorder {
                        span,
                        k,
                        ritz_hit: cache.stats().hits > hits_before,
                    });
                    out.permutation = reordered.permutation;
                    stats = reordered.stats;
                }
            }
        }
        if stats.is_degraded() {
            return Ok(out);
        }
        let artifact = Artifact::Reorder(ReorderArtifact {
            permutation: out.permutation.clone(),
            stats,
        });
        t.span("cache.put", |_| cache.put(key, artifact));
        if let (Label::Reorder(_), Some(drift)) = (label, self.pipeline.drift()) {
            let sketch = match probed_sketch {
                Some(s) => s,
                None => t.span("drift.sketch", |_| sketch_of(a, drift)),
            };
            let sketch_key = CacheKey {
                kind: ArtifactKind::Sketch,
                pattern: key.pattern,
                config: drift.sketch_config_hash(),
            };
            t.span("cache.put", |_| {
                cache.put(sketch_key, Artifact::Sketch(sketch))
            });
        }
        Ok(out)
    }

    fn decide(
        &self,
        t: &mut Tracer,
        cache: &Cache,
        a: &CsrMatrix,
        key: &CacheKey,
    ) -> Result<Label, String> {
        let class = match t.span("cache.get", |_| cache.get(key)) {
            Some(Artifact::Decision(hit)) => hit.class,
            _ => {
                let features = t.span("core.features", |_| MatrixFeatures::extract(a).to_vec());
                let model: &DecisionTree = self.pipeline.model();
                let class = t
                    .span("model.predict", |_| model.predict(&features))
                    .map_err(|e| e.to_string())?;
                let artifact = Artifact::Decision(DecisionArtifact { features, class });
                t.span("cache.put", |_| cache.put(*key, artifact));
                class
            }
        };
        Label::from_class(class).map_err(|e| e.to_string())
    }

    /// The drift donor probe, as `preprocess` runs it on an exact-key miss.
    /// Also returns the query's sketch artifact when the probe built one.
    fn probe(
        &self,
        t: &mut Tracer,
        cache: &Cache,
        a: &CsrMatrix,
        key: &CacheKey,
    ) -> (Probe, Option<SketchArtifact>) {
        let Some(drift) = self.pipeline.drift() else {
            return (Probe::NoDonor, None);
        };
        let config = drift.sketch_config_hash();
        let candidates = t.span("cache.sketch_candidates", |_| {
            cache.sketch_candidates(config)
        });
        if candidates.is_empty() {
            return (Probe::NoDonor, None);
        }
        let query = t.span("drift.sketch", |_| {
            MatrixSketch::compute(a, drift.siglen, drift.seed)
        });
        let donor = t.span("drift.best_donor", |_| {
            SimilarityIndex::new(candidates).best_donor(
                &query,
                a.nrows(),
                a.ncols(),
                key.pattern,
                drift.floor,
            )
        });
        let Some(donor) = donor else {
            return (Probe::NoDonor, None);
        };
        let fetched = t.span("cache.get", |_| {
            let art = cache.reorder_donor(donor.pattern, key.config, a.nrows())?;
            let sketch = cache.sketch_donor(donor.pattern, config)?;
            Some((art, sketch))
        });
        let Some((art, donor_sketch)) = fetched else {
            return (Probe::NoDonor, None);
        };
        let (ours, changed) = t.span("drift.row_hashes", |_| {
            let ours = row_pattern_hashes(a);
            let changed = changed_rows(&donor_sketch.row_hashes, &ours);
            (ours, changed)
        });
        let sketch = our_sketch(a, drift, &query, ours);
        if drift.should_fallback(changed.len(), a.nrows()) {
            return (Probe::Fallback, Some(sketch));
        }
        match t.span("drift.resplice", |_| {
            resplice(a, &art.permutation, &changed)
        }) {
            Ok(p) => (Probe::Respliced(p), Some(sketch)),
            Err(_) => (Probe::Fallback, Some(sketch)),
        }
    }
}

fn our_sketch(
    a: &CsrMatrix,
    drift: &DriftConfig,
    query: &MatrixSketch,
    rows: Vec<u64>,
) -> SketchArtifact {
    SketchArtifact {
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        siglen: drift.siglen,
        seed: drift.seed,
        sketch: query.values().to_vec(),
        row_hashes: rows,
    }
}

/// Counts operator applications from outside the eigensolver.
struct Counting<'a, A> {
    inner: &'a A,
    applies: Cell<usize>,
}

impl<A: LinearOperator> LinearOperator for Counting<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.applies.set(self.applies.get() + 1);
        self.inner.apply(x, y);
    }
}

/// Bytes one application of the implicit Laplacian of `a` reads and writes,
/// computed from the array sizes (the two pattern SpMVs plus the diagonal
/// scalings; Lanczos' own orthogonalization is not counted).
pub fn laplacian_apply_bytes(a: &CsrMatrix) -> f64 {
    let (n, m, nnz) = (a.nrows() as f64, a.ncols() as f64, a.nnz() as f64);
    8.0 * (6.0 * nnz + 2.0 * m + 2.0 * n + 2.0 + 7.0 * n)
}

/// What the split eigensolve found and counted.
pub struct Split {
    /// k-means labels, one per row.
    pub labels: Vec<usize>,
    /// The eigenpairs the k-means ran on.
    pub eig: Eigenpairs,
    /// Operator applications of the Lanczos solve (0 when reused).
    pub applies: usize,
}

/// The clustering of `SpectralReorderer::cluster` split into its three
/// timed linear-algebra calls, under a [`SHADOW`] root. `reuse` stands in
/// for a cached eigensolve: only the k-means runs then. Returns the shadow
/// root and the split's result; `None` when the matrix is too small to
/// cluster (the reorder takes an early exit then).
pub fn split_cluster(
    t: &mut Tracer,
    a: &CsrMatrix,
    cfg: &BootesConfig,
    reuse: Option<&Eigenpairs>,
) -> Result<Option<(usize, Split)>, String> {
    let n = a.nrows();
    let k = cfg.k.min(n.max(1));
    if n <= 2 || n <= k {
        return Ok(None);
    }
    // The derivations below mirror `SpectralReorderer::cluster`; the
    // workloads assert the labels agree.
    let k_embed = (k + cfg.extra_embed.min(k)).clamp(k, n.saturating_sub(1).max(k));
    let root = t.open(SHADOW);
    let (eig, applies) = match reuse {
        Some(eig) => (eig.clone(), 0),
        None => {
            let op = t.span("linalg.laplacian", |_| ImplicitNormalizedLaplacian::new(a));
            let counting = Counting {
                inner: &op,
                applies: Cell::new(0),
            };
            let lcfg = LanczosConfig {
                tol: cfg.eig_tol,
                max_restarts: cfg.max_restarts,
                seed: cfg.seed,
                allow_unconverged: true,
                converge_k: k,
                max_subspace: (k_embed + 16).min(n),
            };
            let eig = t
                .span("linalg.lanczos", |_| {
                    lanczos_smallest(&counting, k_embed, &lcfg)
                })
                .map_err(|e| format!("split lanczos: {e}"))?;
            (eig, counting.applies.get())
        }
    };
    let mut embedding = DenseMatrix::zeros(n, k_embed);
    for (j, v) in eig.eigenvectors.iter().enumerate() {
        for (i, &x) in v.iter().enumerate() {
            embedding[(i, j)] = x;
        }
    }
    let kcfg = KMeansConfig {
        max_iter: cfg.kmeans_max_iter,
        n_init: cfg.kmeans_n_init,
        seed: cfg.seed ^ 0x5EED,
        ..KMeansConfig::default()
    };
    let km = t
        .span("linalg.kmeans", |_| kmeans(&embedding, k, &kcfg))
        .map_err(|e| format!("split kmeans: {e}"))?;
    t.close(root);
    Ok(Some((
        root,
        Split {
            labels: km.labels,
            eig,
            applies,
        },
    )))
}

/// Per-matrix eigenpairs of the split shadow, so a reorder that reused
/// cached eigenpairs is mirrored by a shadow that reuses them too.
#[derive(Default)]
pub struct EigenMemo {
    seen: HashMap<(u64, usize), Eigenpairs>,
}

/// Linear-algebra counters gathered by the split shadows.
#[derive(Default)]
pub struct LinalgCounters {
    /// Lanczos solves run.
    pub solves: usize,
    /// Operator applications over all solves.
    pub applies: usize,
    /// Computed bytes over all applications.
    pub bytes: f64,
    /// Split labels compared against `SpectralReorderer::cluster`.
    pub label_checks: usize,
}

/// Runs the split shadow for the cold reorder `cold` of `a` and grafts it
/// into the reorder span. With `check_labels`, also asserts that the split
/// labels equal `SpectralReorderer::cluster`'s. Returns whether the labels
/// agreed (always `true` when not checked).
pub fn shadow_reorder(
    t: &mut Tracer,
    replay: &Replay,
    a: &CsrMatrix,
    cold: &ColdReorder,
    memo: &mut EigenMemo,
    counters: &mut LinalgCounters,
    check_labels: bool,
) -> Result<bool, String> {
    let cfg = replay.config().clone().with_k(cold.k);
    let key = (bootes_sparse::MatrixFingerprint::of(a).pattern, cold.k);
    let reuse = if cold.ritz_hit {
        memo.seen.get(&key)
    } else {
        None
    };
    let Some((root, split)) = split_cluster(t, a, &cfg, reuse)? else {
        return Ok(true);
    };
    if split.applies > 0 {
        counters.solves += 1;
        counters.applies += split.applies;
        counters.bytes += split.applies as f64 * laplacian_apply_bytes(a);
    }
    let kids = t.children(root);
    let target = t.spans()[cold.span].clone();
    t.graft(
        &kids,
        cold.span,
        target.start_ns,
        target.end_ns - target.start_ns,
    );
    let agree = if check_labels {
        counters.label_checks += 1;
        let (labels, _) = bootes_core::SpectralReorderer::new(cfg)
            .cluster(a)
            .map_err(|e| format!("cluster: {e}"))?;
        labels == split.labels
    } else {
        true
    };
    memo.seen.entry(key).or_insert(split.eig);
    Ok(agree)
}
