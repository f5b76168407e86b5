//! The cost-aware preprocessing pipeline (paper §3.2 "Bootes Workflow").
//!
//! Before SpGEMM execution, Bootes extracts structural features, feeds them
//! to the trained decision tree, and either reorders with the predicted
//! cluster count or leaves the matrix untouched. The tree is trained offline
//! (see the `fig3` benchmark binary) on labels that [`label_corpus`]
//! measures on the target accelerators.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bootes_cache::{Artifact, ArtifactKind, Cache, CacheKey, DecisionArtifact, ReorderArtifact};
use bootes_drift::{artifact_of, changed_rows, resplice, DriftConfig, SimilarityIndex};
use bootes_guard::GuardError;
use bootes_model::{Dataset, DecisionTree, ModelError, TreeConfig};
use bootes_reorder::lsh::MatrixSketch;
use bootes_reorder::{
    HierReorderer, MemTracker, OriginalOrder, ReorderError, ReorderOutcome, ReorderStats,
    Reorderer, StatsScope,
};
use bootes_sparse::{row_pattern_hashes, CsrMatrix, MatrixFingerprint, Permutation};
use serde::{Deserialize, Serialize};

use crate::config::BootesConfig;
use crate::features::{MatrixFeatures, FEATURE_NAMES};
use crate::spectral::SpectralReorderer;

/// The candidate cluster counts of the paper (§3.1.2).
pub const CANDIDATE_KS: [usize; 5] = [2, 4, 8, 16, 32];

/// Classification label: skip reordering, or reorder with a given `k`.
///
/// Encoded as class indices `0 ..= 5` for the decision tree: class 0 is
/// `NoReorder`, classes 1–5 map to `k ∈ {2, 4, 8, 16, 32}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Label {
    /// Reordering is not expected to pay off.
    NoReorder,
    /// Reorder with the given cluster count.
    Reorder(usize),
}

impl Label {
    /// Total number of classes.
    pub const N_CLASSES: usize = 1 + CANDIDATE_KS.len();

    /// Class index used by the decision tree.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidLabel`] if the label carries a cluster
    /// count outside [`CANDIDATE_KS`] — the signature of a corrupt label
    /// file or a mismatched training run.
    pub fn to_class(self) -> Result<usize, ModelError> {
        match self {
            Label::NoReorder => Ok(0),
            Label::Reorder(k) => CANDIDATE_KS
                .iter()
                .position(|&c| c == k)
                .map(|p| 1 + p)
                .ok_or_else(|| {
                    ModelError::InvalidLabel(format!(
                        "cluster count {k} is not one of the candidate values {CANDIDATE_KS:?}"
                    ))
                }),
        }
    }

    /// Inverse of [`Label::to_class`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidLabel`] if `class >= Label::N_CLASSES`,
    /// which indicates a model trained with a different class universe.
    pub fn from_class(class: usize) -> Result<Self, ModelError> {
        if class == 0 {
            Ok(Label::NoReorder)
        } else {
            CANDIDATE_KS
                .get(class - 1)
                .map(|&k| Label::Reorder(k))
                .ok_or_else(|| {
                    ModelError::InvalidLabel(format!(
                        "class index {class} out of range (N_CLASSES = {})",
                        Label::N_CLASSES
                    ))
                })
        }
    }
}

/// A deterministic decision tree for smoke tests, benches and the serve
/// daemon's default model, where a trained model is not the point: it
/// predicts [`Label::Reorder`]`(k)` for sparse inputs and
/// [`Label::NoReorder`] for dense ones. It is fitted with the default
/// [`TreeConfig`] on 20 synthetic samples that differ only in the
/// `global_sparsity` feature (0.001 sparse, 0.9 dense), so it is cheap to
/// build and the same on every call.
///
/// # Errors
///
/// Returns [`ModelError::InvalidLabel`] if `k` is not one of
/// [`CANDIDATE_KS`].
pub fn toy_tree(k: usize) -> Result<DecisionTree, ModelError> {
    let reorder = Label::Reorder(k).to_class()?;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..20 {
        let dense = i % 2 == 0;
        let mut f = vec![3.0; FEATURE_NAMES.len()];
        f[2] = if dense { 0.9 } else { 0.001 };
        x.push(f);
        y.push(if dense { 0 } else { reorder });
    }
    let names = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    let ds = Dataset::new(x, y, names, Label::N_CLASSES)?;
    DecisionTree::fit(&ds, &TreeConfig::default())
}

/// The prices of one matrix's orderings, measured by [`price_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct PriceSweep<P> {
    /// The price of the original order.
    pub original: P,
    /// `(k, price)` of the spectral ordering at each candidate `k` with
    /// `k + 1 < nrows`, in [`CANDIDATE_KS`] order.
    pub reordered: Vec<(usize, P)>,
}

impl<P> PriceSweep<P> {
    /// The §3.2 training label over the prices `price` reads from each entry
    /// (one accelerator's, say): reorder with the cheapest `k`, the smallest
    /// on ties, if it cuts the original order's price by more than 10%.
    pub fn label(&self, price: impl Fn(&P) -> u64) -> Label {
        let cheapest = self.reordered.iter().map(|(k, p)| (*k, price(p)));
        // `min_by_key` keeps the first of equal minima: the smallest `k`.
        match cheapest.min_by_key(|&(_, t)| t) {
            Some((k, t)) if (t as f64) < 0.9 * price(&self.original) as f64 => Label::Reorder(k),
            _ => Label::NoReorder,
        }
    }
}

/// Prices `a`'s original order, then its spectral ordering at each
/// candidate `k` with `k + 1 < a.nrows()`, reordering once per `k` in one
/// `label.sweep` region of `bootes-par` (the same for any thread count).
/// `price` may return one price per accelerator, so one sweep serves all.
///
/// # Errors
///
/// The first error, as text, of `price` on the original order, of a
/// worker that panicked, or in `k` order of a candidate's reorder or price.
pub fn price_sweep<P: Send, E: ToString>(
    a: &CsrMatrix,
    price: impl Fn(&CsrMatrix) -> Result<P, E> + Sync,
) -> Result<PriceSweep<P>, String> {
    let price = |m: &CsrMatrix| price(m).map_err(|e| e.to_string());
    let original = price(a)?;
    let ks: Vec<usize> = CANDIDATE_KS
        .into_iter()
        .filter(|&k| k + 1 < a.nrows())
        .collect();
    let reordered = bootes_par::map_indices("label.sweep", bootes_par::threads(), ks.len(), |i| {
        let config = BootesConfig::default().with_k(ks[i]);
        let out = SpectralReorderer::new(config)
            .reorder(a)
            .map_err(|e| e.to_string())?;
        price(&out.permutation.apply_rows(a).map_err(|e| e.to_string())?).map(|p| (ks[i], p))
    })
    .map_err(|e| e.to_string())?
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(PriceSweep {
        original,
        reordered,
    })
}

/// Labels a training corpus for `targets` price targets (accelerators, say)
/// in one pass; returns one [`Dataset`] per target, samples in corpus order.
///
/// Each matrix `a` has its features extracted once and one [`price_sweep`]
/// priced by `pricer(a)`, whose `t`-th price is target `t`'s; `pricer` runs
/// once per matrix, for setup such as the `B` operand. The matrices run in
/// one `label.corpus` region on up to `threads` pool workers, and the
/// result is the same for any count.
///
/// # Errors
///
/// The first error in corpus order of a sweep, or of a pricer that returns
/// other than `targets` prices.
pub fn label_corpus<'c, G, E: ToString>(
    corpus: impl IntoIterator<Item = &'c CsrMatrix>,
    targets: usize,
    threads: usize,
    pricer: impl Fn(&'c CsrMatrix) -> G + Sync,
) -> Result<Vec<Dataset>, String>
where
    G: Fn(&CsrMatrix) -> Result<Vec<u64>, E> + Sync,
{
    let corpus: Vec<&CsrMatrix> = corpus.into_iter().collect();
    let rows = bootes_par::map_indices("label.corpus", threads, corpus.len(), |i| {
        let price = pricer(corpus[i]);
        let sweep = price_sweep(corpus[i], |m| {
            match price(m).map_err(|e| e.to_string())? {
                p if p.len() == targets => Ok(p),
                p => Err(format!("{} prices for {targets} targets", p.len())),
            }
        })?;
        let classes = (0..targets)
            .map(|t| sweep.label(|p| p[t]).to_class().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((MatrixFeatures::extract(corpus[i]).to_vec(), classes))
    })
    .map_err(|e| e.to_string())?
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    let names: Vec<String> = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    (0..targets)
        .map(|t| {
            let (x, y) = rows.iter().map(|(x, y)| (x.clone(), y[t])).unzip();
            Dataset::new(x, y, names.clone(), Label::N_CLASSES).map_err(|e| e.to_string())
        })
        .collect()
}

/// The pipeline's verdict for one matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// The predicted label.
    pub label: Label,
}

impl Decision {
    /// Whether reordering was advised.
    pub fn should_reorder(&self) -> bool {
        matches!(self.label, Label::Reorder(_))
    }

    /// The advised cluster count, if any.
    pub fn k(&self) -> Option<usize> {
        match self.label {
            Label::NoReorder => None,
            Label::Reorder(k) => Some(k),
        }
    }
}

/// Error of the full pipeline: model inference or reordering.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Decision-tree inference failed.
    Model(ModelError),
    /// Spectral reordering failed.
    Reorder(ReorderError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Model(e) => write!(f, "model inference failed: {e}"),
            PipelineError::Reorder(e) => write!(f, "reordering failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ModelError> for PipelineError {
    fn from(e: ModelError) -> Self {
        PipelineError::Model(e)
    }
}

impl From<ReorderError> for PipelineError {
    fn from(e: ReorderError) -> Self {
        PipelineError::Reorder(e)
    }
}

/// Outcome of the cost-aware preprocessing.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// The decision the model took.
    pub decision: Decision,
    /// The permutation to apply (identity when reordering was skipped).
    pub permutation: Permutation,
    /// Preprocessing stats (includes feature extraction and inference time).
    pub stats: ReorderStats,
}

/// Graceful-degradation chain around the spectral reorderer.
///
/// Production preprocessing must never turn a reorderable matrix into a
/// crashed run: a permutation that is merely *worse* still executes, while a
/// panic or an exhausted budget would abort the whole SpGEMM job. The chain
/// tries each rung in order of decreasing quality and decreasing cost:
///
/// 1. [`SpectralReorderer`] — the paper's Algorithm 4 (name `"bootes"`),
/// 2. [`HierReorderer`] — LSH + agglomerative clustering, no eigensolve,
/// 3. [`OriginalOrder`] — the identity permutation, which cannot fail.
///
/// Every rung runs under `catch_unwind`, so a panic escaping a rung (e.g.
/// from a worker thread without an error channel) degrades instead of
/// propagating. A typed failure ([`ReorderError`], including guard budget
/// exhaustion and injected faults) likewise steps down one rung. The first
/// failed rung is recorded in [`ReorderStats::degraded_from`], the full
/// failure trail in [`ReorderStats::degrade_reason`], and each step-down
/// increments the `guard.fallback` counter (plus a per-rung
/// `guard.fallback.from.<rung>` counter) in the observability registry.
///
/// When the first rung succeeds its outcome is returned untouched, so a
/// healthy run is bit-identical to using [`SpectralReorderer`] directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FallbackReorderer {
    config: BootesConfig,
}

impl FallbackReorderer {
    /// Creates a chain whose first rung is `SpectralReorderer::new(config)`.
    pub fn new(config: BootesConfig) -> Self {
        FallbackReorderer { config }
    }

    /// Runs one rung, converting an escaped panic into a typed
    /// [`ReorderError::Guard`] so the chain can keep stepping down.
    fn run_rung(rung: &dyn Reorderer, a: &CsrMatrix) -> Result<ReorderOutcome, ReorderError> {
        match catch_unwind(AssertUnwindSafe(|| rung.reorder(a))) {
            Ok(result) => result,
            Err(payload) => Err(ReorderError::Guard(GuardError::Panic {
                site: rung.name().to_string(),
                message: bootes_guard::panic_message(payload.as_ref()),
            })),
        }
    }
}

impl Reorderer for FallbackReorderer {
    // Same public name as the spectral rung: callers selecting "bootes" get
    // the guarded chain transparently.
    fn name(&self) -> &'static str {
        "bootes"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<ReorderOutcome, ReorderError> {
        let _span = bootes_obs::span!("reorder.fallback");
        let rungs: [Box<dyn Reorderer>; 3] = [
            Box::new(SpectralReorderer::new(self.config.clone())),
            Box::new(HierReorderer::default()),
            Box::new(OriginalOrder),
        ];
        let mut degraded_from: Option<String> = None;
        let mut reasons: Vec<String> = Vec::new();
        let mut last_err: Option<ReorderError> = None;
        for rung in &rungs {
            match Self::run_rung(rung.as_ref(), a) {
                Ok(mut out) => {
                    if let Some(from) = degraded_from {
                        let reason = reasons.join("; ");
                        eprintln!(
                            "warning: reorderer degraded from '{from}' to '{}': {reason}",
                            out.stats.algorithm
                        );
                        out.stats.degraded_from = Some(from);
                        out.stats.degrade_reason = Some(reason);
                    }
                    return Ok(out);
                }
                Err(e) => {
                    bootes_obs::counter_add("guard.fallback", 1);
                    bootes_obs::counter_add(&format!("guard.fallback.from.{}", rung.name()), 1);
                    degraded_from.get_or_insert_with(|| rung.name().to_string());
                    reasons.push(format!("{}: {e}", rung.name()));
                    last_err = Some(e);
                }
            }
        }
        // Unreachable in practice: OriginalOrder has no failure path. Kept
        // typed rather than panicking so the chain itself never aborts.
        Err(last_err
            .unwrap_or_else(|| ReorderError::Numerical("fallback chain had no rungs".to_string())))
    }
}

/// The complete Bootes preprocessing pipeline: features → decision tree →
/// (optional) spectral reordering.
#[derive(Debug, Clone)]
pub struct BootesPipeline {
    model: DecisionTree,
    config: BootesConfig,
    /// Drift donor reuse: on an exact reorder-key miss, look for a cached
    /// permutation of a near-identical pattern and resplice it instead of
    /// recomputing (`None` disables the donor path entirely). Deliberately
    /// *not* part of [`BootesPipeline::reorder_key`]: the donor path is a
    /// lookup strategy, not a property of the artifact — a resplice and a
    /// cold run of the same matrix are interchangeable entries.
    drift: Option<DriftConfig>,
    /// Hash of the serialized tree, precomputed so cached lookups do not
    /// re-serialize the model on every matrix.
    model_hash: u64,
}

/// The donor stage's verdict on an exact reorder-key miss.
enum DonorProbe {
    /// No donor qualified (or the probe failed); run cold, unmarked.
    NoDonor,
    /// A donor qualified but the drift decision rejected it; run cold and
    /// record the decision on the returned stats.
    Fallback { donor_hex: String },
    /// The donor was respliced; no recompute needed.
    Respliced {
        permutation: Permutation,
        donor_hex: String,
        rows: usize,
    },
}

impl BootesPipeline {
    /// Creates a pipeline around a trained decision tree.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureMismatch`] if the tree was not trained on
    /// the [`crate::FEATURE_NAMES`] feature set, or
    /// [`ModelError::InvalidConfig`] if its class count is not
    /// [`Label::N_CLASSES`].
    pub fn new(model: DecisionTree, config: BootesConfig) -> Result<Self, ModelError> {
        if model.n_features() != crate::FEATURE_NAMES.len() {
            return Err(ModelError::FeatureMismatch {
                expected: crate::FEATURE_NAMES.len(),
                got: model.n_features(),
            });
        }
        if model.n_classes() != Label::N_CLASSES {
            return Err(ModelError::InvalidConfig(format!(
                "model has {} classes, pipeline needs {}",
                model.n_classes(),
                Label::N_CLASSES
            )));
        }
        let model_hash = bootes_cache::hash_serialized(&model);
        Ok(BootesPipeline {
            model,
            config,
            drift: Some(DriftConfig::default()),
            model_hash,
        })
    }

    /// Configures the drift donor path (default: `Some(DriftConfig::default())`).
    /// `None` disables donor lookup and sketch storage — every exact-key miss
    /// recomputes cold, exactly as before drift support existed.
    pub fn with_drift(mut self, drift: Option<DriftConfig>) -> Self {
        self.drift = drift;
        self
    }

    /// The active drift configuration, if the donor path is enabled.
    pub fn drift(&self) -> Option<&DriftConfig> {
        self.drift.as_ref()
    }

    /// The wrapped model.
    pub fn model(&self) -> &DecisionTree {
        &self.model
    }

    /// Cache key of the model verdict for the matrix with fingerprint `fp`
    /// (pattern + model identity). All cost-model features are structural,
    /// so the pattern hash fully determines the verdict. The key is
    /// well-defined whether or not a process-global artifact cache is
    /// installed — the serving daemon uses it for singleflight coalescing
    /// independently of caching. It takes the fingerprint, which costs
    /// `O(nnz)`, so that `preprocess` computes it once for both keys.
    pub fn decision_key_of(&self, fp: &MatrixFingerprint) -> CacheKey {
        CacheKey::new(ArtifactKind::Decision, fp, self.model_hash)
    }

    /// Cache key of the full preprocessing outcome for `a`: pattern plus
    /// every knob the permutation depends on (model and reorder config).
    /// Well-defined whether or not a process-global artifact cache is
    /// installed.
    pub fn reorder_key(&self, a: &CsrMatrix) -> CacheKey {
        self.reorder_key_of(&MatrixFingerprint::of(a))
    }

    /// [`BootesPipeline::reorder_key`] from an already-computed fingerprint.
    pub fn reorder_key_of(&self, fp: &MatrixFingerprint) -> CacheKey {
        let mut h = bootes_sparse::Fnv1a::new();
        h.write_u64(self.model_hash)
            .write_u64(bootes_cache::hash_serialized(&self.config));
        CacheKey::new(ArtifactKind::Reorder, fp, h.finish())
    }

    /// Predicts whether and how to reorder `a` without performing the work.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on inference failure.
    pub fn decide(&self, a: &CsrMatrix) -> Result<Decision, ModelError> {
        self.decide_fingerprinted(a, &MatrixFingerprint::of(a))
    }

    /// [`BootesPipeline::decide`] for a caller that already holds `a`'s
    /// fingerprint (`fp` must be `MatrixFingerprint::of(a)`), so the matrix
    /// is not hashed again. `fp` is only consulted when a global cache is
    /// installed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on inference failure.
    pub fn decide_fingerprinted(
        &self,
        a: &CsrMatrix,
        fp: &MatrixFingerprint,
    ) -> Result<Decision, ModelError> {
        debug_assert_eq!(
            *fp,
            MatrixFingerprint::of(a),
            "fingerprint of another matrix"
        );
        self.decide_in(bootes_cache::global().as_deref(), a, fp)
    }

    /// The decide stage: the verdict stored in `cache` under `fp`'s decision
    /// key, else the tree's, which is then stored there.
    fn decide_in(
        &self,
        cache: Option<&Cache>,
        a: &CsrMatrix,
        fp: &MatrixFingerprint,
    ) -> Result<Decision, ModelError> {
        let _span = bootes_obs::span!("pipeline.decide");
        let key = self.decision_key_of(fp);
        if let Some(Artifact::Decision(hit)) = cache.and_then(|c| c.get(&key)) {
            return Ok(Decision {
                label: Label::from_class(hit.class)?,
            });
        }
        let features = MatrixFeatures::extract(a).to_vec();
        let class = self.model.predict(&features)?;
        if let Some(cache) = cache {
            cache.put(
                key,
                Artifact::Decision(DecisionArtifact { features, class }),
            );
        }
        Ok(Decision {
            label: Label::from_class(class)?,
        })
    }

    /// The donor stage, run on an exact reorder-key miss with a reorder
    /// verdict: finds the cached pattern whose sketch is nearest `query`
    /// (`a`'s own, with `rows` its row pattern hashes) and resplices its
    /// permutation, unless too many rows changed. `mem` is charged *only* on
    /// a resplice, so a cold recompute's `peak_bytes` stays bit-identical to
    /// a run without the donor path.
    fn donor(
        cache: &Cache,
        drift: &DriftConfig,
        a: &CsrMatrix,
        key: &CacheKey,
        query: &MatrixSketch,
        rows: &[u64],
        mem: &mut MemTracker,
    ) -> DonorProbe {
        // Failpoint: simulate an unavailable donor index (`drift.donor=err`).
        if bootes_guard::fail_point("drift.donor").is_err() {
            return DonorProbe::NoDonor;
        }
        let index = SimilarityIndex::new(cache.sketch_candidates(drift.sketch_config_hash()));
        let Some(donor) = index.best_donor(query, a.nrows(), a.ncols(), key.pattern, drift.floor)
        else {
            return DonorProbe::NoDonor;
        };
        // The donor's permutation must exist under the *same* config hash and
        // span exactly our row count; anything else is quarantined inside
        // `reorder_donor` and the probe reports no donor. Its full sketch
        // artifact carries the per-row hashes the changed-set diff needs.
        // Neither read counts a hit or a miss, but each refreshes the
        // entry's LRU recency, so the sketch is read only after the
        // permutation was found.
        let Some(art) = cache.reorder_donor(donor.pattern, key.config, a.nrows()) else {
            return DonorProbe::NoDonor;
        };
        let Some(donor_sketch) = cache.sketch_donor(donor.pattern, drift.sketch_config_hash())
        else {
            return DonorProbe::NoDonor;
        };
        bootes_obs::counter_add("drift.donor_hits", 1);
        let donor_hex = format!("{:016x}", donor.pattern);
        let changed = changed_rows(&donor_sketch.row_hashes, rows);
        if drift.should_fallback(changed.len(), a.nrows()) {
            bootes_obs::counter_add("drift.fallbacks", 1);
            return DonorProbe::Fallback { donor_hex };
        }
        match resplice(a, &art.permutation, &changed) {
            Ok(permutation) => {
                bootes_obs::counter_add("drift.resplices", 1);
                // Footprint of the donor path: query sketch, two row-hash
                // vectors, the resplice scratch (inverted index + overlap
                // counts), and the output permutation.
                mem.alloc(
                    drift.siglen * 8
                        + a.nrows() * 8 * 2
                        + a.nnz() * std::mem::size_of::<usize>()
                        + (a.nrows() + permutation.len()) * std::mem::size_of::<usize>(),
                );
                DonorProbe::Respliced {
                    permutation,
                    donor_hex,
                    rows: changed.len(),
                }
            }
            Err(e) => {
                bootes_obs::counter_add("drift.fallbacks", 1);
                eprintln!(
                    "warning: drift resplice from donor {donor_hex} failed, recomputing: {e}"
                );
                DonorProbe::Fallback { donor_hex }
            }
        }
    }

    /// Runs the full preprocessing in fixed stages: exact lookup, decide,
    /// the drift donor (on a reorder verdict only), the fallback chain
    /// (unless a donor was respliced), then publication of a clean result.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if inference or reordering fails.
    pub fn preprocess(&self, a: &CsrMatrix) -> Result<PipelineOutcome, PipelineError> {
        let row_hashes = row_pattern_hashes(a);
        let fp = MatrixFingerprint::from_row_hashes(a, &row_hashes);
        self.preprocess_fingerprinted(a, &fp, row_hashes)
    }

    /// [`BootesPipeline::preprocess`] for a caller that already holds `a`'s
    /// row pattern hashes and the fingerprint derived from them
    /// (`row_hashes` must be `row_pattern_hashes(a)`, `fp` must be
    /// `MatrixFingerprint::from_row_hashes(a, &row_hashes)`): the serving
    /// daemon hashes each matrix once for its singleflight key and passes
    /// both on. One fingerprint serves both the reorder key and the decision
    /// key, which are only looked up when a global cache is installed; the
    /// row hashes serve the donor stage's changed-row diff and the stored
    /// sketch, so `a`'s indices are hashed once per call.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if inference or reordering fails.
    pub fn preprocess_fingerprinted(
        &self,
        a: &CsrMatrix,
        fp: &MatrixFingerprint,
        row_hashes: Vec<u64>,
    ) -> Result<PipelineOutcome, PipelineError> {
        debug_assert_eq!(
            row_hashes,
            row_pattern_hashes(a),
            "row hashes of another matrix"
        );
        debug_assert_eq!(
            *fp,
            MatrixFingerprint::from_row_hashes(a, &row_hashes),
            "fingerprint of another matrix"
        );
        let scope = StatsScope::start("bootes-pipeline", "pipeline.preprocess");
        let cache = bootes_cache::global();
        let cache = cache.as_deref();
        let key = self.reorder_key_of(fp);
        if let Some(Artifact::Reorder(hit)) = cache.and_then(|c| c.get(&key)) {
            // The decision is served from its own (pattern-keyed) cache
            // entry, so a warm pipeline re-derives nothing but the feature
            // lookup. The stored stats are the cold run's; only the wall
            // clock and the hit marker are restamped, so
            // `ReorderStats::canonical` of a hit equals the cold stats.
            let decision = self.decide_in(cache, a, fp)?;
            let mut stats = hit.stats;
            stats.elapsed = scope.elapsed();
            stats.cache_hit = true;
            return Ok(PipelineOutcome {
                decision,
                permutation: hit.permutation,
                stats,
            });
        }
        let mut mem = MemTracker::new();
        // Feature vector fed to the decision tree (tiny, but every exit path
        // must report the tracker's actual high-water mark, never zero).
        mem.alloc(crate::FEATURE_NAMES.len() * std::mem::size_of::<f64>());
        let decision = self.decide_in(cache, a, fp)?;
        // The exact key missed; a near-identical pattern may still have a
        // cached permutation worth resplicing (a donor is an accelerated
        // miss, not a hit). The query's sketch is taken once: the donor
        // stage compares it, with the row hashes, and publication stores
        // both.
        let donor_path = match (decision.should_reorder(), cache, &self.drift) {
            (true, Some(cache), Some(drift)) => Some((
                cache,
                drift,
                MatrixSketch::compute(a, drift.siglen, drift.seed),
            )),
            _ => None,
        };
        let probe = match &donor_path {
            Some((cache, drift, query)) => {
                Self::donor(cache, drift, a, &key, query, &row_hashes, &mut mem)
            }
            None => DonorProbe::NoDonor,
        };
        let (permutation, mut stats, fallback_donor) = match (decision.label, probe) {
            (Label::NoReorder, _) => {
                mem.alloc(a.nrows() * std::mem::size_of::<usize>());
                (Permutation::identity(a.nrows()), scope.stats(&mem), None)
            }
            (
                _,
                DonorProbe::Respliced {
                    permutation,
                    donor_hex,
                    rows,
                },
            ) => {
                let mut stats = scope.stats(&mem);
                stats.donor_fingerprint = Some(donor_hex);
                stats.rows_respliced = rows;
                (permutation, stats, None)
            }
            (Label::Reorder(k), probe) => {
                let out = FallbackReorderer::new(self.config.clone().with_k(k)).reorder(a)?;
                mem.alloc(out.stats.peak_bytes);
                let mut stats = scope.stats(&mem);
                // Surface the chain's degradation record on the pipeline's
                // own stats so callers see it without unwrapping the outcome,
                // including the rung that produced the ordering; a healthy
                // run keeps the pipeline's name.
                if out.stats.is_degraded() {
                    stats.algorithm = out.stats.algorithm;
                    stats.degraded_from = out.stats.degraded_from;
                    stats.degrade_reason = out.stats.degrade_reason;
                }
                let fallback_donor = match probe {
                    DonorProbe::Fallback { donor_hex } => Some(donor_hex),
                    _ => None,
                };
                (out.permutation, stats, fallback_donor)
            }
        };
        // Degraded outcomes are transient (the budget or failpoint that
        // forced the step-down is not part of the key), so only clean runs
        // are cached, along with the sketch that lets this pattern donate to
        // future near-identical matrices.
        if let Some(cache) = cache.filter(|_| !stats.is_degraded()) {
            cache.put(
                key,
                Artifact::Reorder(ReorderArtifact {
                    permutation: permutation.clone(),
                    stats: stats.clone(),
                }),
            );
            if let Some((_, drift, query)) = donor_path {
                cache.put(
                    CacheKey {
                        kind: ArtifactKind::Sketch,
                        pattern: key.pattern,
                        config: drift.sketch_config_hash(),
                    },
                    Artifact::Sketch(artifact_of(a, drift, query, row_hashes)),
                );
            }
        }
        // A drift fallback recomputed from scratch, so what was stored above
        // is a pure cold result; only the returned copy records the donor
        // decision, which a later exact hit must not replay. A resplice
        // stored its donor fields: they are the provenance of its
        // permutation.
        if let Some(donor_hex) = fallback_donor {
            stats.donor_fingerprint = Some(donor_hex);
            stats.drift_fallback = true;
        }
        Ok(PipelineOutcome {
            decision,
            permutation,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn label_class_roundtrip() {
        for class in 0..Label::N_CLASSES {
            assert_eq!(Label::from_class(class).unwrap().to_class().unwrap(), class);
        }
        assert_eq!(Label::Reorder(8).to_class().unwrap(), 3);
        assert_eq!(Label::from_class(0).unwrap(), Label::NoReorder);
    }

    #[test]
    fn out_of_range_class_and_k_are_typed_errors() {
        assert!(matches!(
            Label::from_class(Label::N_CLASSES),
            Err(ModelError::InvalidLabel(_))
        ));
        assert!(matches!(
            Label::Reorder(7).to_class(),
            Err(ModelError::InvalidLabel(_))
        ));
    }

    /// A matrix with enough rows for every candidate `k`.
    fn labeled_input() -> CsrMatrix {
        bootes_workloads::gen::clustered(
            &bootes_workloads::gen::GenConfig::new(64, 64).seed(2),
            4,
            0.9,
        )
        .unwrap()
    }

    /// Runs [`price_sweep`] with a closure that prices the first matrix it
    /// sees (the original order) at 1000 and every later one at
    /// `reordered`; returns the sweep and the number of matrices priced.
    fn sweep_with(
        a: &CsrMatrix,
        reordered: Result<u64, String>,
    ) -> (Result<PriceSweep<u64>, String>, usize) {
        let calls = AtomicUsize::new(0);
        let sweep = price_sweep(a, |_| match calls.fetch_add(1, Ordering::SeqCst) {
            0 => Ok(1000),
            _ => reordered.clone(),
        });
        (sweep, calls.into_inner())
    }

    /// The §3.2 label of a sweep of one price per ordering.
    fn label_of(sweep: &PriceSweep<u64>) -> Label {
        sweep.label(|&p| p)
    }

    #[test]
    fn exactly_ten_percent_cheaper_is_no_reorder() {
        let (sweep, priced) = sweep_with(&labeled_input(), Ok(900));
        let sweep = sweep.unwrap();
        assert_eq!(priced, 1 + CANDIDATE_KS.len());
        assert_eq!(sweep.original, 1000);
        assert_eq!(
            sweep.reordered,
            CANDIDATE_KS.map(|k| (k, 900)).to_vec(),
            "one price per candidate, in k order"
        );
        assert_eq!(label_of(&sweep), Label::NoReorder);
    }

    #[test]
    fn ties_keep_the_smallest_k() {
        let sweep = sweep_with(&labeled_input(), Ok(890)).0.unwrap();
        assert_eq!(label_of(&sweep), Label::Reorder(2));
        let sweep = PriceSweep {
            original: 1000,
            reordered: vec![(2, 500), (4, 400), (8, 400), (16, 401)],
        };
        assert_eq!(label_of(&sweep), Label::Reorder(4));
    }

    #[test]
    fn too_few_rows_for_any_k_prices_only_the_original() {
        let (sweep, priced) = sweep_with(&CsrMatrix::identity(3), Ok(0));
        let sweep = sweep.unwrap();
        assert_eq!(priced, 1);
        assert!(sweep.reordered.is_empty());
        assert_eq!(label_of(&sweep), Label::NoReorder);
    }

    #[test]
    fn traffic_errors_are_returned() {
        let a = labeled_input();
        let no_simulator = Err("no simulator".to_string());
        assert_eq!(
            price_sweep(&a, |_| no_simulator.clone()),
            Err("no simulator".to_string())
        );
        assert_eq!(
            sweep_with(&a, no_simulator).0,
            Err("no simulator".to_string())
        );
    }

    #[test]
    fn label_corpus_labels_each_target_from_its_own_prices() {
        // Every ordering of the first matrix halves target 0's price and cuts
        // target 1's by 5%; the three-row matrix has no candidate k.
        let corpus = vec![labeled_input(), CsrMatrix::identity(3)];
        let prices = |a: &CsrMatrix, m: &CsrMatrix| {
            if m == a {
                vec![1000, 1000]
            } else {
                vec![500, 950]
            }
        };
        let datasets = label_corpus(&corpus, 2, 2, |a| {
            move |m: &CsrMatrix| Ok::<_, String>(prices(a, m))
        })
        .unwrap();
        assert_eq!(datasets.len(), 2);
        assert_eq!(datasets[0].labels(), &[1, 0]);
        assert_eq!(datasets[1].labels(), &[0, 0]);
        for ds in &datasets {
            for (i, a) in corpus.iter().enumerate() {
                assert_eq!(ds.features(i), MatrixFeatures::extract(a).to_vec());
            }
        }
        let short = label_corpus(&corpus, 2, 1, |_| |_: &CsrMatrix| Ok::<_, String>(vec![1]));
        assert_eq!(short, Err("1 prices for 2 targets".to_string()));
    }

    #[test]
    fn fallback_chain_matches_spectral_when_healthy() {
        let a = bootes_workloads::gen::clustered(
            &bootes_workloads::gen::GenConfig::new(96, 96).seed(4),
            4,
            0.95,
        )
        .unwrap();
        let cfg = BootesConfig::default().with_k(4);
        let chain = FallbackReorderer::new(cfg.clone()).reorder(&a).unwrap();
        let plain = SpectralReorderer::new(cfg).reorder(&a).unwrap();
        assert_eq!(chain.permutation, plain.permutation);
        assert_eq!(chain.stats.algorithm, "bootes");
        assert!(!chain.stats.is_degraded());
    }

    #[test]
    fn pipeline_skips_dense_matrices() {
        let pipeline = BootesPipeline::new(toy_tree(4).unwrap(), BootesConfig::default()).unwrap();
        // A dense-ish matrix (density > 0.5): model says NoReorder.
        let mut coo = bootes_sparse::CooMatrix::new(16, 16);
        for r in 0..16 {
            for c in 0..14 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let out = pipeline.preprocess(&a).unwrap();
        assert!(!out.decision.should_reorder());
        assert!(out.permutation.is_identity());
        // Regression: the NoReorder path must still report the tracked
        // footprint (features + identity permutation), not a hardcoded zero.
        assert!(out.stats.peak_bytes > 0);
    }

    #[test]
    fn pipeline_reorders_sparse_matrices() {
        let pipeline = BootesPipeline::new(toy_tree(4).unwrap(), BootesConfig::default()).unwrap();
        let a = bootes_workloads::gen::clustered(
            &bootes_workloads::gen::GenConfig::new(128, 128).seed(1),
            4,
            0.95,
        )
        .unwrap();
        let out = pipeline.preprocess(&a).unwrap();
        assert!(out.decision.should_reorder());
        assert_eq!(out.decision.k(), Some(4));
        assert_eq!(out.permutation.len(), 128);
    }

    #[test]
    fn rejects_mismatched_models() {
        let ds = Dataset::new(
            vec![vec![0.0], vec![1.0]],
            vec![0, 1],
            vec!["only".into()],
            2,
        )
        .unwrap();
        let wrong = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert!(BootesPipeline::new(wrong, BootesConfig::default()).is_err());
    }

    #[test]
    fn decide_matches_preprocess() {
        let pipeline = BootesPipeline::new(toy_tree(4).unwrap(), BootesConfig::default()).unwrap();
        let a = CsrMatrix::identity(64);
        let d = pipeline.decide(&a).unwrap();
        let out = pipeline.preprocess(&a).unwrap();
        assert_eq!(d, out.decision);
    }
}
