//! Property-based tests over the core data structures and invariants,
//! spanning crates through the public facade.

use bootes::linalg::laplacian::ImplicitNormalizedLaplacian;
use bootes::linalg::{kmeans, normalized_laplacian, KMeansConfig, LinearOperator};
use bootes::reorder::{GammaReorderer, GraphReorderer, HierReorderer, Reorderer};
use bootes::sparse::ops::{similarity_matrix, spgemm};
use bootes::sparse::{CooMatrix, CsrMatrix, DenseMatrix, Permutation};
use proptest::prelude::*;

/// Strategy: a sparse matrix as (nrows, ncols, triplets).
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(r, c)| {
        proptest::collection::vec(
            (0..r, 0..c, -5.0f64..5.0).prop_map(|(i, j, v)| (i, j, v)),
            0..max_nnz,
        )
        .prop_map(move |trips| {
            let mut coo = CooMatrix::new(r, c);
            for (i, j, v) in trips {
                coo.push(i, j, v).expect("in range by construction");
            }
            coo.to_csr()
        })
    })
}

/// Strategy: a square sparse matrix.
fn square_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_dim).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..n, 0..n, 0.5f64..5.0).prop_map(|(i, j, v)| (i, j, v)),
            0..max_nnz,
        )
        .prop_map(move |trips| {
            let mut coo = CooMatrix::new(n, n);
            for (i, j, v) in trips {
                coo.push(i, j, v).expect("in range by construction");
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR -> CSC -> CSR round-trips exactly.
    #[test]
    fn csr_csc_roundtrip(a in sparse_matrix(24, 80)) {
        prop_assert_eq!(a.to_csc().to_csr(), a);
    }

    /// Transposition is an involution.
    #[test]
    fn transpose_involution(a in sparse_matrix(24, 80)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// SpGEMM agrees with the dense reference.
    #[test]
    fn spgemm_matches_dense((a, b) in (1usize..14, 1usize..14, 1usize..14).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec((0..m, 0..k, -3.0f64..3.0), 0..40).prop_map(move |t| {
                let mut coo = CooMatrix::new(m, k);
                for (i, j, v) in t { coo.push(i, j, v).expect("in range"); }
                coo.to_csr()
            }),
            proptest::collection::vec((0..k, 0..n, -3.0f64..3.0), 0..40).prop_map(move |t| {
                let mut coo = CooMatrix::new(k, n);
                for (i, j, v) in t { coo.push(i, j, v).expect("in range"); }
                coo.to_csr()
            }),
        )
    })) {
        let dense_ref = a.to_dense().matmul(&b.to_dense()).expect("shapes agree");
        let c = spgemm(&a, &b, 1).expect("shapes agree");
        prop_assert!(c.to_dense().max_abs_diff(&dense_ref) < 1e-9);
    }

    /// The similarity matrix is symmetric with row-nnz diagonal.
    #[test]
    fn similarity_is_symmetric(a in sparse_matrix(20, 60)) {
        let s = similarity_matrix(&a).unwrap();
        prop_assert_eq!(s.shape(), (a.nrows(), a.nrows()));
        for (i, j, v) in s.iter() {
            prop_assert_eq!(s.get(j, i), v);
        }
        for i in 0..a.nrows() {
            let expected = if a.row_nnz(i) > 0 { a.row_nnz(i) as f64 } else { 0.0 };
            prop_assert_eq!(s.get(i, i), expected);
        }
    }

    /// Normalized-Laplacian eigenvalue range: xᵀLx / xᵀx stays in [0, 2].
    #[test]
    fn laplacian_rayleigh_quotient_bounded(a in square_matrix(16, 50), xs in proptest::collection::vec(-2.0f64..2.0, 16)) {
        let s = similarity_matrix(&a).unwrap();
        let l = normalized_laplacian(&s).expect("non-negative similarities");
        let x = &xs[..a.nrows()];
        let norm2: f64 = x.iter().map(|v| v * v).sum();
        prop_assume!(norm2 > 1e-9);
        let lx = l.matvec(x).expect("square");
        let quad: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        let rayleigh = quad / norm2;
        prop_assert!((-1e-9..=2.0 + 1e-9).contains(&rayleigh), "rayleigh {rayleigh}");
    }

    /// The implicit Laplacian operator equals the materialized one.
    #[test]
    fn implicit_laplacian_matches(a in sparse_matrix(16, 50), xs in proptest::collection::vec(-2.0f64..2.0, 16)) {
        let l = normalized_laplacian(&similarity_matrix(&a).unwrap()).expect("valid");
        let op = ImplicitNormalizedLaplacian::new(&a);
        let x = &xs[..a.nrows()];
        let dense = l.matvec(x).expect("square");
        let mut implicit = vec![0.0; a.nrows()];
        op.apply(x, &mut implicit);
        for (d, i) in dense.iter().zip(&implicit) {
            prop_assert!((d - i).abs() < 1e-10, "{d} vs {i}");
        }
    }

    /// Every baseline reorderer yields a bijection on arbitrary inputs.
    #[test]
    fn reorderers_emit_bijections(a in sparse_matrix(20, 60)) {
        for algo in [
            Box::new(GammaReorderer::default()) as Box<dyn Reorderer>,
            Box::new(GraphReorderer::default()),
            Box::new(HierReorderer::default()),
        ] {
            let out = algo.reorder(&a).expect("reorder");
            let mut seen = vec![false; a.nrows()];
            for &old in out.permutation.as_slice() {
                prop_assert!(!seen[old], "{} repeated row {old}", algo.name());
                seen[old] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    /// Permutation inverse is a two-sided inverse.
    #[test]
    fn permutation_inverse_two_sided(perm in proptest::collection::vec(0usize..64, 1..64).prop_map(|mut v| {
        // Build a valid permutation from arbitrary data by sorting indices.
        let n = v.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (v[i], i));
        v.clear();
        Permutation::try_new(idx).expect("bijection by construction")
    })) {
        let inv = perm.inverse();
        prop_assert!(perm.compose(&inv).expect("same length").is_identity());
        prop_assert!(inv.compose(&perm).expect("same length").is_identity());
    }

    /// K-means labels always point at the nearest centroid, and inertia is
    /// the sum of those squared distances.
    #[test]
    fn kmeans_assignment_is_nearest(pts in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 4..30), k in 1usize..4) {
        prop_assume!(k <= pts.len());
        let n = pts.len();
        let flat: Vec<f64> = pts.iter().flat_map(|&(x, y)| [x, y]).collect();
        let m = DenseMatrix::from_rows(n, 2, flat);
        let r = kmeans(&m, k, &KMeansConfig::default()).expect("valid k");
        let mut inertia = 0.0;
        for i in 0..n {
            let assigned: f64 = m.row(i).iter().zip(r.centroids.row(r.labels[i])).map(|(a, b)| (a - b) * (a - b)).sum();
            for c in 0..k {
                let d: f64 = m.row(i).iter().zip(r.centroids.row(c)).map(|(a, b)| (a - b) * (a - b)).sum();
                prop_assert!(assigned <= d + 1e-9);
            }
            inertia += assigned;
        }
        prop_assert!((inertia - r.inertia).abs() < 1e-6);
    }

    /// Reuse-profile invariants: cold + re-accesses = accesses; hit rate is
    /// within [0, 1] and monotone in capacity.
    #[test]
    fn reuse_profile_invariants(a in sparse_matrix(20, 80)) {
        let p = bootes::reorder::b_reuse_profile(&a);
        prop_assert_eq!(p.accesses, a.nnz() as u64);
        let re: u64 = p.histogram.iter().sum();
        prop_assert_eq!(p.cold + re, p.accesses);
        let mut prev = 0.0;
        for cap in [1usize, 4, 16, 64, 1 << 20] {
            let h = p.hit_rate_at(cap);
            prop_assert!((0.0..=1.0).contains(&h));
            prop_assert!(h + 1e-12 >= prev);
            prev = h;
        }
    }

    /// Matrix Market write -> read round-trips bit-exactly for our values.
    #[test]
    fn matrix_market_roundtrip(a in sparse_matrix(16, 40)) {
        let mut buf = Vec::new();
        bootes::sparse::io::write_matrix_market(&mut buf, &a).expect("write");
        let back = bootes::sparse::io::read_matrix_market(buf.as_slice()).expect("read");
        prop_assert_eq!(back, a);
    }
}

// Fingerprint properties backing the artifact cache's content addressing:
// the pattern key must ignore values, react to any structural change, and
// survive serialization, or the cache would serve wrong (or miss valid)
// artifacts.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Permuting rows changes the pattern hash whenever it changes the
    /// matrix (FNV is not order-free), and never when it does not.
    #[test]
    fn fingerprint_is_permutation_sensitive(a in square_matrix(16, 50), rot in 1usize..8) {
        use bootes::sparse::MatrixFingerprint;
        let n = a.nrows();
        let p = Permutation::try_new((0..n).map(|i| (i + rot % n) % n).collect())
            .expect("rotation is a bijection");
        let b = p.apply_rows(&a).expect("square");
        let fa = MatrixFingerprint::of(&a);
        let fb = MatrixFingerprint::of(&b);
        if a == b {
            prop_assert_eq!(fa, fb);
        } else if (0..n).all(|r| a.row(r).0 == b.row(r).0) {
            // Same pattern, only values moved: the pattern hash agrees.
            prop_assert_eq!(fa.pattern, fb.pattern);
        } else {
            prop_assert_ne!(fa.pattern, fb.pattern);
        }
    }

    /// Scaling values leaves the pattern key untouched — the invariant that
    /// lets pattern-only consumers (everything in the preprocessing
    /// pipeline) share cache entries across value updates.
    #[test]
    fn fingerprint_pattern_is_value_insensitive(a in square_matrix(16, 50)) {
        use bootes::sparse::{CooMatrix, MatrixFingerprint};
        let mut coo = CooMatrix::new(a.nrows(), a.ncols());
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r, c, v * 3.0 + 1.0).expect("in range");
            }
        }
        let scaled = coo.to_csr();
        let fa = MatrixFingerprint::of(&a);
        let fs = MatrixFingerprint::of(&scaled);
        prop_assert_eq!(fa.pattern, fs.pattern);
        prop_assert_eq!(fa.nnz, fs.nnz);
    }

    /// The fingerprint is a function of the logical matrix, not its
    /// in-memory or on-disk encoding: a Matrix Market round trip (and a COO
    /// rebuild with shuffled triplet order) preserves the fingerprint.
    #[test]
    fn fingerprint_is_serialization_stable(a in sparse_matrix(16, 40)) {
        use bootes::sparse::MatrixFingerprint;
        let fa = MatrixFingerprint::of(&a);
        let mut buf = Vec::new();
        bootes::sparse::io::write_matrix_market(&mut buf, &a).expect("write");
        let back = bootes::sparse::io::read_matrix_market(buf.as_slice()).expect("read");
        prop_assert_eq!(fa, MatrixFingerprint::of(&back));
        prop_assert_eq!(fa, MatrixFingerprint::of(&a.clone()));
    }

    /// The fingerprint folded from the row pattern hashes, as `preprocess`
    /// and the daemon take it, is the one `MatrixFingerprint::of` computes,
    /// which keys the same cache entries from a separate call.
    #[test]
    fn fingerprint_from_row_hashes_equals_of(a in sparse_matrix(16, 40)) {
        use bootes::sparse::{row_pattern_hashes, MatrixFingerprint};
        prop_assert_eq!(
            MatrixFingerprint::of(&a),
            MatrixFingerprint::from_row_hashes(&a, &row_pattern_hashes(&a))
        );
    }
}

// Drift-path properties backing the incremental reorder (donor) machinery:
// a resplice must always emit a lawful permutation, the donor lookup must
// never hand out a candidate below the similarity floor, and the fallback
// threshold's edge values must be absolute.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `resplice` always yields a valid bijection, keeps the donor's
    /// relative order among unchanged rows, and returns the donor verbatim
    /// on an empty delta — for arbitrary matrices, donor orders, and
    /// changed-row subsets.
    #[test]
    fn resplice_emits_bijection(
        a in square_matrix(20, 60),
        keys in proptest::collection::vec(0u64..1000, 20),
        flags in proptest::collection::vec(0u32..2, 20),
    ) {
        use bootes::drift::resplice;
        let n = a.nrows();
        // Arbitrary donor order from the key material.
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (keys[i], i));
        let donor = Permutation::try_new(idx).expect("bijection by construction");
        let changed: Vec<usize> = (0..n).filter(|&r| flags[r] == 1).collect();

        let out = resplice(&a, &donor, &changed).expect("valid inputs resplice");
        let mut sorted = out.as_slice().to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "not a bijection");
        if changed.is_empty() {
            prop_assert_eq!(&out, &donor);
        }
        // Unchanged rows never swap places relative to each other.
        let unchanged_seq = |p: &Permutation| -> Vec<usize> {
            p.as_slice().iter().copied().filter(|r| flags[*r] == 0).collect()
        };
        prop_assert_eq!(unchanged_seq(&out), unchanged_seq(&donor));
    }

    /// `best_donor` never returns a candidate below the similarity floor,
    /// never the query's own pattern, never a shape mismatch — and what it
    /// returns is the first of the qualifying candidates in the full order:
    /// highest estimate, then newest stamp, then smallest pattern. Ties are
    /// made on purpose: a copy of the first other matrix ties it on the
    /// estimate, up to two copies of the query under other patterns tie at
    /// the top, and stamps drawn from a small range tie often.
    #[test]
    fn best_donor_never_below_floor(
        query_m in square_matrix(16, 50),
        others in proptest::collection::vec(square_matrix(16, 50), 1..4),
        twins in 0usize..3,
        stamps in proptest::collection::vec(0u64..3, 7),
        floor in 0.0f64..1.001,
    ) {
        use bootes::drift::{sketch_of, DriftConfig, SimilarityIndex};
        use bootes::reorder::lsh::MatrixSketch;
        let cfg = DriftConfig::default().with_siglen(32);
        const QUERY_PATTERN: u64 = 1;
        let mut candidates = vec![sketch_of(&query_m, &cfg).candidate(QUERY_PATTERN, stamps[0])];
        let copies = others
            .iter()
            .chain(&others[..1])
            .chain(std::iter::repeat_n(&query_m, twins));
        for (i, m) in copies.enumerate() {
            candidates.push(sketch_of(m, &cfg).candidate(2 + i as u64, stamps[i + 1]));
        }
        let query = MatrixSketch::compute(&query_m, cfg.siglen, cfg.seed);
        let sims: Vec<(u64, usize, usize, f64, u64)> = candidates
            .iter()
            .map(|c| (c.pattern, c.nrows, c.ncols, query.estimate_jaccard(&c.sig), c.stamp))
            .collect();
        let index = SimilarityIndex::new(candidates);
        let best = index.best_donor(
            &query,
            query_m.nrows(),
            query_m.ncols(),
            QUERY_PATTERN,
            floor,
        );
        let qualifying = sims.iter().filter(|(p, nr, nc, sim, _)| {
            *p != QUERY_PATTERN && *nr == query_m.nrows() && *nc == query_m.ncols() && *sim >= floor
        });
        match best {
            Some(m) => {
                prop_assert!(m.similarity >= floor, "below floor: {} < {floor}", m.similarity);
                prop_assert_ne!(m.pattern, QUERY_PATTERN, "self-donation");
                let (_, nr, nc, sim, stamp) =
                    sims.iter().find(|(p, ..)| *p == m.pattern).expect("known");
                prop_assert_eq!(*nr, query_m.nrows());
                prop_assert_eq!(*nc, query_m.ncols());
                prop_assert_eq!(*sim, m.similarity, "reported similarity is the estimate");
                for (p, _, _, other, other_stamp) in qualifying.clone() {
                    let outranks = *other > m.similarity
                        || (*other == m.similarity
                            && (*other_stamp > *stamp
                                || (*other_stamp == *stamp && *p < m.pattern)));
                    prop_assert!(!outranks, "candidate {p} outranks the winner {}", m.pattern);
                }
            }
            None => {
                prop_assert_eq!(qualifying.count(), 0, "a qualifying candidate was ignored");
            }
        }
    }

    /// Threshold edges are absolute: 0.0 falls back on any nonempty delta,
    /// 1.0 never falls back, and the decision is monotone in the threshold.
    #[test]
    fn fallback_threshold_edges(nrows in 1usize..500, changed_frac in 0.0f64..1.001, t in 0.0f64..1.001) {
        use bootes::drift::DriftConfig;
        let changed = ((changed_frac * nrows as f64) as usize).min(nrows);
        let zero = DriftConfig::default().with_threshold(0.0);
        let one = DriftConfig::default().with_threshold(1.0);
        prop_assert_eq!(zero.should_fallback(changed, nrows), changed > 0);
        prop_assert!(!one.should_fallback(changed, nrows));
        // Monotonicity: if a looser threshold falls back, every tighter one does.
        let mid = DriftConfig::default().with_threshold(t);
        if mid.should_fallback(changed, nrows) {
            prop_assert!(zero.should_fallback(changed, nrows));
        } else {
            prop_assert!(!one.should_fallback(changed, nrows));
        }
    }
}
