//! K-means clustering with k-means++ seeding.
//!
//! Implements the `sklearn.cluster.KMeans` call of Algorithm 4 line 16:
//! Lloyd iterations over the spectral embedding, seeded by the k-means++
//! distribution, with deterministic behaviour under a fixed seed and
//! empty-cluster repair by reassigning the farthest point.

use bootes_sparse::DenseMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::LinalgError;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence threshold on the total squared centroid movement.
    pub tol: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
    /// Number of k-means++ restarts; the lowest-inertia run wins.
    pub n_init: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            max_iter: 100,
            tol: 1e-10,
            seed: 0x5EED,
            n_init: 4,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster label per point, in `0..k`.
    pub labels: Vec<usize>,
    /// Cluster centroids as a `k x d` matrix.
    pub centroids: DenseMatrix,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    /// Lloyd iterations performed by the winning restart.
    pub iterations: usize,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Clusters the rows of `points` (an `n x d` matrix) into `k` groups.
///
/// # Errors
///
/// - [`LinalgError::InvalidArgument`] if `k == 0`, `k > n`, or `d == 0`.
/// - [`LinalgError::NumericalBreakdown`] if a point contains non-finite
///   coordinates.
/// - [`LinalgError::Guard`] if the armed resource budget runs out at a
///   `kmeans.iter` checkpoint, a failpoint fires, or a worker panic is
///   isolated in the parallel assignment step.
///
/// # Example
///
/// ```
/// use bootes_linalg::{kmeans, KMeansConfig};
/// use bootes_sparse::DenseMatrix;
///
/// # fn main() -> Result<(), bootes_linalg::LinalgError> {
/// let pts = DenseMatrix::from_rows(4, 1, vec![0.0, 0.1, 10.0, 10.1]);
/// let r = kmeans(&pts, 2, &KMeansConfig::default())?;
/// assert_eq!(r.labels[0], r.labels[1]);
/// assert_eq!(r.labels[2], r.labels[3]);
/// assert_ne!(r.labels[0], r.labels[2]);
/// # Ok(())
/// # }
/// ```
pub fn kmeans(
    points: &DenseMatrix,
    k: usize,
    cfg: &KMeansConfig,
) -> Result<KMeansResult, LinalgError> {
    kmeans_threads(points, k, cfg, bootes_par::threads())
}

/// [`kmeans`] over an explicit thread budget.
///
/// Restarts fan out first (they are fully independent: each is seeded with
/// `cfg.seed + init`); leftover threads parallelize the assignment step
/// inside each run. Results are folded in `init` order with the same
/// strictly-lower-inertia comparison as the serial loop, and each run is
/// internally chunk-order deterministic, so the output is **bit-identical**
/// to the serial computation for every thread count.
///
/// # Errors
///
/// Same contract as [`kmeans`].
pub fn kmeans_threads(
    points: &DenseMatrix,
    k: usize,
    cfg: &KMeansConfig,
    threads: usize,
) -> Result<KMeansResult, LinalgError> {
    let n = points.nrows();
    let d = points.ncols();
    if k == 0 {
        return Err(LinalgError::InvalidArgument("k must be >= 1".to_string()));
    }
    if k > n {
        return Err(LinalgError::InvalidArgument(format!(
            "k = {k} exceeds number of points {n}"
        )));
    }
    if d == 0 {
        return Err(LinalgError::InvalidArgument(
            "points must have at least one dimension".to_string(),
        ));
    }
    if !points.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NumericalBreakdown(
            "non-finite point coordinate".to_string(),
        ));
    }

    let n_init = cfg.n_init.max(1);
    let threads = threads.max(1);
    // Restarts are the coarser (cheaper-to-merge) axis; give the remainder
    // of the budget to the per-run assignment step without oversubscribing.
    let outer = threads.min(n_init);
    let inner = (threads / outer).max(1);
    let runs = bootes_par::map_indices("kmeans.run", outer, n_init, |init| {
        let _run_span = bootes_obs::span!("kmeans.run");
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(init as u64));
        let run = lloyd(points, k, cfg, &mut rng, inner)?;
        bootes_obs::counter_add("kmeans.iterations", run.iterations as u64);
        Ok::<_, LinalgError>(run)
    })?;
    let mut best: Option<KMeansResult> = None;
    for run in runs {
        let run = run?;
        if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    let best =
        best.ok_or_else(|| LinalgError::InvalidArgument("n_init must be >= 1".to_string()))?;
    bootes_obs::gauge_set("kmeans.inertia", best.inertia);
    Ok(best)
}

/// The index drawn from the distance-weighted k-means++ distribution: the
/// first *positive-weight* index whose cumulative weight reaches `target`.
///
/// Zero-weight entries are points that coincide with an existing center —
/// they must never be drawn, even when floating-point residue leaves
/// `target` above the true cumulative total (the historical fallback of
/// `n - 1` could return such a point and seed a duplicate centroid).
///
/// # Panics
///
/// Panics if every weight is zero (callers guarantee `Σ dists > 0`).
fn weighted_pick(dists: &[f64], mut target: f64) -> usize {
    let mut chosen = None;
    for (i, &dist) in dists.iter().enumerate() {
        if dist > 0.0 {
            chosen = Some(i);
            target -= dist;
            if target <= 0.0 {
                break;
            }
        }
    }
    chosen.expect("a positive total weight implies a positive entry")
}

/// Squared distances from every point to `center`, one dimension at a
/// time: `cols` holds the points transposed (dimension `j`'s coordinates
/// are `cols[j * n..(j + 1) * n]` for `n = out.len()`), so the `n` sums
/// advance side by side. Each sum adds the same terms in the same order as
/// [`sq_dist`], from `0.0` instead of `-0.0`; a square is never `-0.0`, so
/// the results are bit-identical.
fn sq_dists_to(cols: &[f64], center: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (col, &cj) in cols.chunks_exact(out.len()).zip(center) {
        for (o, &p) in out.iter_mut().zip(col) {
            let diff = p - cj;
            *o += diff * diff;
        }
    }
}

/// Rows `rows` of `points`, transposed into `out` in [`sq_dists_to`]'s
/// layout.
fn transpose_rows(points: &DenseMatrix, rows: std::ops::Range<usize>, out: &mut Vec<f64>) {
    let len = rows.len();
    out.clear();
    out.resize(len * points.ncols(), 0.0);
    for (b, i) in rows.enumerate() {
        for (j, &v) in points.row(i).iter().enumerate() {
            out[j * len + b] = v;
        }
    }
}

fn plus_plus_init(points: &DenseMatrix, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = points.nrows();
    let mut cols = Vec::new();
    transpose_rows(points, 0..n, &mut cols);
    let mut centers = Vec::with_capacity(k);
    centers.push(rng.random_range(0..n));
    let mut dists = vec![0.0; n];
    sq_dists_to(&cols, points.row(centers[0]), &mut dists);
    let mut new_dists = vec![0.0; n];
    while centers.len() < k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a center; pick any
            // non-center index to keep centers distinct where possible.
            (0..n).find(|i| !centers.contains(i)).unwrap_or(0)
        } else {
            weighted_pick(&dists, rng.random::<f64>() * total)
        };
        centers.push(next);
        sq_dists_to(&cols, points.row(next), &mut new_dists);
        for (dist, &nd) in dists.iter_mut().zip(&new_dists) {
            if nd < *dist {
                *dist = nd;
            }
        }
    }
    centers
}

/// Points per transposed block of the assignment step.
const ASSIGN_BLOCK: usize = 128;

/// Nearest centroid and squared distance for every point in `range` —
/// the chunk body of the parallel assignment step. The per-point result is
/// a pure function of `(points, centroids, i)`, so chunk boundaries cannot
/// change it.
///
/// Points are transposed in blocks of [`ASSIGN_BLOCK`]; each centroid's
/// distances to the whole block accumulate one dimension at a time
/// ([`sq_dists_to`]), and each point keeps the first centroid, in centroid
/// order, with a strictly smaller distance.
fn assign_chunk(
    points: &DenseMatrix,
    centroids: &DenseMatrix,
    range: std::ops::Range<usize>,
) -> (Vec<usize>, Vec<f64>) {
    let mut labels = Vec::with_capacity(range.len());
    let mut dists = Vec::with_capacity(range.len());
    let mut block = Vec::new();
    let mut acc = [0.0; ASSIGN_BLOCK];
    for start in range.clone().step_by(ASSIGN_BLOCK) {
        let rows = start..range.end.min(start + ASSIGN_BLOCK);
        let len = rows.len();
        transpose_rows(points, rows, &mut block);
        let mut best_c = [0usize; ASSIGN_BLOCK];
        let mut best_d = [f64::INFINITY; ASSIGN_BLOCK];
        for c in 0..centroids.nrows() {
            sq_dists_to(&block, centroids.row(c), &mut acc[..len]);
            for ((&dist, bd), bc) in acc[..len].iter().zip(&mut best_d).zip(&mut best_c) {
                if dist < *bd {
                    *bd = dist;
                    *bc = c;
                }
            }
        }
        labels.extend_from_slice(&best_c[..len]);
        dists.extend_from_slice(&best_d[..len]);
    }
    (labels, dists)
}

/// Assigns every point to its nearest centroid over `threads` workers,
/// writing `labels` and per-point squared distances into `dists` (both in
/// index order — any reduction over `dists` must stay serial to keep the
/// floating-point summation order canonical).
fn assign_all(
    points: &DenseMatrix,
    centroids: &DenseMatrix,
    labels: &mut [usize],
    dists: &mut [f64],
    threads: usize,
) -> Result<(), LinalgError> {
    let ranges = bootes_par::partition_even(points.nrows(), bootes_par::chunk_count(threads));
    if bootes_obs::enabled() {
        // One squared-distance per (point, centroid) pair: d multiplies, d
        // subtracts, d adds; traffic reads each point row once per centroid
        // plus the centroid rows, and writes one label + distance per point.
        let (n, d) = (points.nrows() as u64, points.ncols() as u64);
        let k = centroids.nrows() as u64;
        bootes_obs::counter_add("kernel.flops{kernel=kmeans.assign}", 3 * n * k * d);
        bootes_obs::counter_add(
            "kernel.bytes{kernel=kmeans.assign}",
            8 * (n * k * d + k * d + 2 * n),
        );
    }
    let chunks = bootes_par::map_ranges("kmeans.assign", threads, &ranges, |_, r| {
        assign_chunk(points, centroids, r)
    })?;
    let mut at = 0usize;
    for (chunk_labels, chunk_dists) in chunks {
        labels[at..at + chunk_labels.len()].copy_from_slice(&chunk_labels);
        dists[at..at + chunk_dists.len()].copy_from_slice(&chunk_dists);
        at += chunk_labels.len();
    }
    Ok(())
}

/// Moves the point farthest from its current centroid into the empty cluster
/// `c`, considering only donor clusters that keep at least one member
/// (`counts > 1`). Returns the moved point, or `None` when no cluster can
/// donate (every nonempty cluster is a singleton).
///
/// Restricting the argmax to viable donors is the fix for a silent no-op:
/// the historical code picked the *globally* farthest point and skipped the
/// repair entirely when that point's cluster was a singleton, leaving the
/// empty cluster empty and its centroid stale for the final inertia pass.
fn repair_empty_cluster(
    points: &DenseMatrix,
    c: usize,
    labels: &mut [usize],
    counts: &mut [usize],
    sums: &mut DenseMatrix,
    centroids: &DenseMatrix,
) -> Option<usize> {
    let far = (0..points.nrows())
        .filter(|&p| counts[labels[p]] > 1)
        .max_by(|&a, &b| {
            let da = sq_dist(points.row(a), centroids.row(labels[a]));
            let db = sq_dist(points.row(b), centroids.row(labels[b]));
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })?;
    let old = labels[far];
    counts[old] -= 1;
    for (s, &v) in sums.row_mut(old).iter_mut().zip(points.row(far)) {
        *s -= v;
    }
    labels[far] = c;
    counts[c] = 1;
    sums.row_mut(c).copy_from_slice(points.row(far));
    Some(far)
}

fn lloyd(
    points: &DenseMatrix,
    k: usize,
    cfg: &KMeansConfig,
    rng: &mut StdRng,
    threads: usize,
) -> Result<KMeansResult, LinalgError> {
    let n = points.nrows();
    let d = points.ncols();
    let seeds = plus_plus_init(points, k, rng);
    let mut centroids = DenseMatrix::zeros(k, d);
    for (c, &idx) in seeds.iter().enumerate() {
        centroids.row_mut(c).copy_from_slice(points.row(idx));
    }

    let mut labels = vec![0usize; n];
    let mut dists = vec![0.0f64; n];
    let mut iterations = 0;
    for iter in 0..cfg.max_iter {
        bootes_guard::checkpoint("kmeans.iter")?;
        iterations = iter + 1;
        // Assignment step (parallel; bit-identical to serial).
        assign_all(points, &centroids, &mut labels, &mut dists, threads)?;
        // Update step.
        let mut sums = DenseMatrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[labels[i]] += 1;
            let row = sums.row_mut(labels[i]);
            for (s, &v) in row.iter_mut().zip(points.row(i)) {
                *s += v;
            }
        }
        // Empty-cluster repair: steal the farthest point of a viable donor.
        for c in 0..k {
            if counts[c] == 0 {
                repair_empty_cluster(points, c, &mut labels, &mut counts, &mut sums, &centroids);
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            let mut moved = 0.0;
            for j in 0..d {
                let newv = sums[(c, j)] * inv;
                let delta = newv - centroids[(c, j)];
                moved += delta * delta;
                centroids[(c, j)] = newv;
            }
            movement += moved;
        }
        if movement <= cfg.tol {
            break;
        }
    }
    // Final assignment and inertia. The distances come back in index order,
    // so the serial sum below reproduces the single-threaded rounding.
    assign_all(points, &centroids, &mut labels, &mut dists, threads)?;
    let inertia = dists.iter().sum();
    Ok(KMeansResult {
        labels,
        centroids,
        inertia,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// k-means++ seeding with one point-at-a-time distance per point: the
    /// bit-for-bit reference of [`plus_plus_init`].
    fn plus_plus_init_reference(points: &DenseMatrix, k: usize, rng: &mut StdRng) -> Vec<usize> {
        let n = points.nrows();
        let mut centers = Vec::with_capacity(k);
        centers.push(rng.random_range(0..n));
        let mut dists: Vec<f64> = (0..n)
            .map(|i| sq_dist(points.row(i), points.row(centers[0])))
            .collect();
        while centers.len() < k {
            let total: f64 = dists.iter().sum();
            let next = if total <= 0.0 {
                (0..n).find(|i| !centers.contains(i)).unwrap_or(0)
            } else {
                weighted_pick(&dists, rng.random::<f64>() * total)
            };
            centers.push(next);
            for (i, dist) in dists.iter_mut().enumerate() {
                let nd = sq_dist(points.row(i), points.row(next));
                if nd < *dist {
                    *dist = nd;
                }
            }
        }
        centers
    }

    /// The point-at-a-time assignment: the bit-for-bit reference of
    /// [`assign_chunk`].
    fn assign_chunk_reference(
        points: &DenseMatrix,
        centroids: &DenseMatrix,
        range: std::ops::Range<usize>,
    ) -> (Vec<usize>, Vec<f64>) {
        let mut labels = Vec::with_capacity(range.len());
        let mut dists = Vec::with_capacity(range.len());
        for i in range {
            let p = points.row(i);
            let mut best_c = 0;
            let mut best_d = f64::INFINITY;
            for c in 0..centroids.nrows() {
                let dist = sq_dist(p, centroids.row(c));
                if dist < best_d {
                    best_d = dist;
                    best_c = c;
                }
            }
            labels.push(best_c);
            dists.push(best_d);
        }
        (labels, dists)
    }

    /// Strategy: `n x d` points (`n` up to a bit past two assignment
    /// blocks, `d` from 1) on a coarse grid, so duplicate points and tied
    /// distances are common, and `k` from 1 to `min(n, 9)`.
    fn grid_points() -> impl Strategy<Value = (DenseMatrix, usize, u64)> {
        (1usize..300, 1usize..5, 0u64..1000).prop_flat_map(|(n, d, seed)| {
            proptest::collection::vec(0usize..4, n * d).prop_map(move |cells| {
                let k = 1 + (seed as usize % 9).min(n - 1);
                let data = cells.into_iter().map(|c| c as f64 * 0.5 - 0.25).collect();
                (DenseMatrix::from_rows(n, d, data), k, seed)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Seeding and assignment match their point-at-a-time references
        /// bit for bit, ties and duplicates included.
        #[test]
        fn blocked_kmeans_kernels_match_the_references((points, k, seed) in grid_points()) {
            let n = points.nrows();
            let centers = plus_plus_init(&points, k, &mut StdRng::seed_from_u64(seed));
            let want = plus_plus_init_reference(&points, k, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(&centers, &want);
            let mut centroids = DenseMatrix::zeros(k, points.ncols());
            for (c, &i) in centers.iter().enumerate() {
                centroids.row_mut(c).copy_from_slice(points.row(i));
            }
            // A centroid off the grid makes some distances non-tied.
            centroids.row_mut(k - 1)[0] += 0.1;
            for range in [0..n, (n / 3)..n] {
                let (labels, dists) = assign_chunk(&points, &centroids, range.clone());
                let (want_labels, want_dists) =
                    assign_chunk_reference(&points, &centroids, range);
                prop_assert_eq!(labels, want_labels);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&dists), bits(&want_dists));
            }
        }
    }

    fn two_blobs() -> DenseMatrix {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.extend_from_slice(&[i as f64 * 0.01, 0.0]);
        }
        for i in 0..10 {
            pts.extend_from_slice(&[5.0 + i as f64 * 0.01, 4.0]);
        }
        DenseMatrix::from_rows(20, 2, pts)
    }

    #[test]
    fn separates_two_blobs() {
        let r = kmeans(&two_blobs(), 2, &KMeansConfig::default()).unwrap();
        let first = r.labels[0];
        assert!(r.labels[..10].iter().all(|&l| l == first));
        let second = r.labels[10];
        assert!(r.labels[10..].iter().all(|&l| l == second));
        assert_ne!(first, second);
        assert!(r.inertia < 1.0);
    }

    #[test]
    fn labels_match_nearest_centroid() {
        let pts = two_blobs();
        let r = kmeans(&pts, 3, &KMeansConfig::default()).unwrap();
        for i in 0..pts.nrows() {
            let assigned = sq_dist(pts.row(i), r.centroids.row(r.labels[i]));
            for c in 0..3 {
                assert!(assigned <= sq_dist(pts.row(i), r.centroids.row(c)) + 1e-12);
            }
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = DenseMatrix::from_rows(3, 1, vec![0.0, 5.0, 9.0]);
        let r = kmeans(&pts, 3, &KMeansConfig::default()).unwrap();
        assert!(r.inertia < 1e-20);
        let mut sorted = r.labels.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn identical_points_dont_crash() {
        let pts = DenseMatrix::from_rows(5, 2, vec![1.0; 10]);
        let r = kmeans(&pts, 3, &KMeansConfig::default()).unwrap();
        assert_eq!(r.labels.len(), 5);
        assert!(r.inertia < 1e-20);
    }

    #[test]
    fn invalid_arguments() {
        let pts = DenseMatrix::from_rows(2, 1, vec![0.0, 1.0]);
        assert!(kmeans(&pts, 0, &KMeansConfig::default()).is_err());
        assert!(kmeans(&pts, 3, &KMeansConfig::default()).is_err());
        let empty_dim = DenseMatrix::zeros(2, 0);
        assert!(kmeans(&empty_dim, 1, &KMeansConfig::default()).is_err());
        let nan = DenseMatrix::from_rows(2, 1, vec![f64::NAN, 1.0]);
        assert!(kmeans(&nan, 1, &KMeansConfig::default()).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = two_blobs();
        let cfg = KMeansConfig::default();
        let a = kmeans(&pts, 2, &cfg).unwrap();
        let b = kmeans(&pts, 2, &cfg).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let pts = DenseMatrix::from_rows(4, 1, vec![1.0, 2.0, 3.0, 6.0]);
        let r = kmeans(&pts, 1, &KMeansConfig::default()).unwrap();
        assert!((r.centroids[(0, 0)] - 3.0).abs() < 1e-12);
    }

    /// Regression (empty-cluster repair): when the globally farthest point
    /// lives in a singleton cluster, the repair used to no-op silently and
    /// leave the empty cluster empty. It must instead take a point from a
    /// cluster that can afford to donate one.
    #[test]
    fn repair_skips_singleton_donors() {
        // c0 = {p0, p1} near 0; c1 = {p2} whose centroid drifted to 50, so
        // p2 is by far the globally farthest point — but moving it would
        // just relocate the hole. c2 is the empty cluster to fill.
        let points = DenseMatrix::from_rows(3, 1, vec![0.0, 0.2, 100.0]);
        let mut labels = vec![0usize, 0, 1];
        let mut counts = vec![2usize, 1, 0];
        let mut sums = DenseMatrix::from_rows(3, 1, vec![0.2, 100.0, 0.0]);
        let centroids = DenseMatrix::from_rows(3, 1, vec![0.1, 50.0, 0.0]);
        let moved =
            repair_empty_cluster(&points, 2, &mut labels, &mut counts, &mut sums, &centroids);
        assert_eq!(moved, Some(1), "must donate from c0, not the singleton c1");
        assert_eq!(counts, vec![1, 1, 1]);
        assert_eq!(labels, vec![0, 2, 1]);
        assert_eq!(sums[(2, 0)], 0.2);
        assert!((sums[(0, 0)] - 0.0).abs() < 1e-15);
    }

    #[test]
    fn repair_without_viable_donor_is_a_noop() {
        // Both nonempty clusters are singletons: nothing can donate.
        let points = DenseMatrix::from_rows(2, 1, vec![0.0, 1.0]);
        let mut labels = vec![0usize, 1];
        let mut counts = vec![1usize, 1, 0];
        let mut sums = DenseMatrix::from_rows(3, 1, vec![0.0, 1.0, 0.0]);
        let centroids = DenseMatrix::from_rows(3, 1, vec![0.0, 1.0, 0.5]);
        let moved =
            repair_empty_cluster(&points, 2, &mut labels, &mut counts, &mut sums, &centroids);
        assert_eq!(moved, None);
        assert_eq!(labels, vec![0, 1]);
        assert_eq!(counts, vec![1, 1, 0]);
    }

    /// Regression (k-means++ weighted draw): floating-point residue can
    /// leave `target > 0` after the cumulative walk; the fallback used to
    /// return index `n - 1` even when that point has distance 0 (an
    /// already-chosen center), seeding a duplicate centroid. The draw must
    /// land on the last *positive-weight* point instead.
    #[test]
    fn weighted_pick_never_returns_zero_weight_points() {
        // Residual target beyond the true total: must not pick trailing 0.
        assert_eq!(weighted_pick(&[0.0, 1.0, 0.0], 1.0 + 1e-9), 1);
        assert_eq!(weighted_pick(&[0.5, 0.0, 0.25], 10.0), 2);
        // Zero target: must not pick a leading zero-weight point.
        assert_eq!(weighted_pick(&[0.0, 2.0], 0.0), 1);
        // Ordinary draw: first index whose cumulative weight reaches target.
        assert_eq!(weighted_pick(&[1.0, 1.0, 1.0], 1.5), 1);
    }

    #[test]
    fn plus_plus_seeds_distinct_whenever_k_distinct_points_exist() {
        // Three distinct values among duplicates: k = 3 must always seed
        // three distinct coordinates, whatever the RNG does.
        let pts = DenseMatrix::from_rows(6, 1, vec![0.0, 0.0, 5.0, 5.0, 9.0, 9.0]);
        for seed in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let centers = plus_plus_init(&pts, 3, &mut rng);
            let mut vals: Vec<f64> = centers.iter().map(|&i| pts.row(i)[0]).collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            assert_eq!(vals.len(), 3, "seed {seed} produced duplicate seeds");
        }
    }

    #[test]
    fn parallel_kmeans_is_bit_identical_to_serial() {
        let pts = two_blobs();
        let cfg = KMeansConfig {
            n_init: 5,
            ..KMeansConfig::default()
        };
        let serial = kmeans_threads(&pts, 3, &cfg, 1).unwrap();
        for threads in [2usize, 4, 7, 16] {
            let par = kmeans_threads(&pts, 3, &cfg, threads).unwrap();
            assert_eq!(par.labels, serial.labels, "threads {threads}");
            assert_eq!(par.inertia, serial.inertia, "threads {threads}");
            assert_eq!(
                par.centroids.as_slice(),
                serial.centroids.as_slice(),
                "threads {threads}"
            );
            assert_eq!(par.iterations, serial.iterations);
        }
    }
}
