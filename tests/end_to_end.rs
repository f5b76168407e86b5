//! Cross-crate integration tests: the full reorder → permute → multiply →
//! simulate pipeline, exercised through the public facade.

mod common;

use bootes::accel::{configs, simulate_spgemm};
use bootes::core::{BootesConfig, SpectralReorderer};
use bootes::reorder::{GammaReorderer, GraphReorderer, HierReorderer, OriginalOrder, Reorderer};
use bootes::sparse::ops::spgemm;
use bootes::sparse::{CsrMatrix, Permutation};
use bootes::workloads::gen::{banded, clustered_with_density, uniform_random, GenConfig};
use bootes::workloads::scramble_rows;

fn all_reorderers() -> Vec<Box<dyn Reorderer>> {
    vec![
        Box::new(OriginalOrder),
        Box::new(GammaReorderer::default()),
        Box::new(GraphReorderer::default()),
        Box::new(HierReorderer::default()),
        Box::new(SpectralReorderer::new(BootesConfig::default().with_k(4))),
    ]
}

/// Reordering the rows of `A` must permute — not change — the product:
/// `P(A)·B == P(A·B)` row for row.
#[test]
fn reordering_preserves_the_spgemm_product() {
    let a = clustered_with_density(&GenConfig::new(160, 160).seed(9), 4, 0.9, 0.05).unwrap();
    let b = uniform_random(&GenConfig::new(160, 120).seed(10), 0.03).unwrap();
    let c_ref = spgemm(&a, &b).unwrap();
    for algo in all_reorderers() {
        let out = algo.reorder(&a).unwrap();
        let a_perm = out.permutation.apply_rows(&a).unwrap();
        let c_perm = spgemm(&a_perm, &b).unwrap();
        let c_expected = out.permutation.apply_rows(&c_ref).unwrap();
        assert_eq!(c_perm, c_expected, "{} broke the product", algo.name());
    }
}

/// Every algorithm must emit a bijection over rows for a spread of matrix
/// shapes, including degenerate ones.
#[test]
fn every_reorderer_emits_valid_permutations() {
    let matrices = vec![
        CsrMatrix::zeros(0, 0),
        CsrMatrix::zeros(7, 7),
        CsrMatrix::identity(1),
        CsrMatrix::identity(17),
        banded(&GenConfig::new(50, 50).seed(1), 3, 0.8).unwrap(),
        uniform_random(&GenConfig::new(64, 30).seed(2), 0.1).unwrap(),
        clustered_with_density(&GenConfig::new(90, 40).seed(3), 4, 0.9, 0.2).unwrap(),
    ];
    for a in &matrices {
        for algo in all_reorderers() {
            let out = algo.reorder(a).unwrap_or_else(|e| {
                panic!("{} failed on {}x{}: {e}", algo.name(), a.nrows(), a.ncols())
            });
            assert_eq!(out.permutation.len(), a.nrows());
            // Permutation::try_new validated bijectivity internally; verify
            // applying + inverting round-trips as a belt-and-braces check.
            let fwd = out.permutation.apply_rows(a).unwrap();
            let back = out.permutation.inverse().apply_rows(&fwd).unwrap();
            assert_eq!(&back, a, "{} not invertible", algo.name());
        }
    }
}

/// On a scrambled block matrix with a pressured cache, Bootes must cut
/// strictly more B traffic than the original order — the paper's headline
/// mechanism.
#[test]
fn bootes_reduces_traffic_on_hidden_cluster_matrices() {
    let a = clustered_with_density(&GenConfig::new(700, 700).seed(4), 8, 0.93, 0.02).unwrap();
    let mut accel = configs::flexagon();
    accel.cache_bytes = 8 << 10;
    let before = simulate_spgemm(&a, &a, &accel).unwrap();
    let out = SpectralReorderer::new(BootesConfig::default().with_k(8))
        .reorder(&a)
        .unwrap();
    let after = simulate_spgemm(&out.permutation.apply_rows(&a).unwrap(), &a, &accel).unwrap();
    assert!(
        (after.b_bytes as f64) < 0.6 * before.b_bytes as f64,
        "B traffic only went {} -> {}",
        before.b_bytes,
        after.b_bytes
    );
    // A and C traffic must be untouched by a row permutation of A.
    assert_eq!(after.a_bytes, before.a_bytes);
    assert_eq!(after.c_bytes, before.c_bytes);
}

/// An already-ordered banded matrix gains nothing; Bootes must not make it
/// catastrophically worse (the failure mode the decision tree guards, but
/// even the raw reorderer should stay within a small factor).
#[test]
fn bootes_is_gentle_on_already_ordered_matrices() {
    let a = banded(&GenConfig::new(600, 600).seed(5), 8, 0.7).unwrap();
    let mut accel = configs::flexagon();
    accel.cache_bytes = 8 << 10;
    let before = simulate_spgemm(&a, &a, &accel).unwrap();
    let out = SpectralReorderer::new(BootesConfig::default().with_k(8))
        .reorder(&a)
        .unwrap();
    let after = simulate_spgemm(&out.permutation.apply_rows(&a).unwrap(), &a, &accel).unwrap();
    assert!(
        (after.total_bytes() as f64) < 2.0 * before.total_bytes() as f64,
        "banded traffic exploded: {} -> {}",
        before.total_bytes(),
        after.total_bytes()
    );
}

/// The scramble + reorder round trip: reordering a scrambled structured
/// matrix must recover (most of) the locality the scramble destroyed.
#[test]
fn reordering_recovers_scrambled_locality() {
    use bootes::sparse::stats::adjacent_intersection_stats;
    let ordered = clustered_with_density(&GenConfig::new(400, 400).seed(6), 4, 0.95, 0.04).unwrap();
    let scrambled = scramble_rows(&ordered, 99);
    let (adj_scrambled, _) = adjacent_intersection_stats(&scrambled);
    let out = SpectralReorderer::new(BootesConfig::default().with_k(4))
        .reorder(&scrambled)
        .unwrap();
    let recovered = out.permutation.apply_rows(&scrambled).unwrap();
    let (adj_recovered, _) = adjacent_intersection_stats(&recovered);
    assert!(
        adj_recovered > 3.0 * adj_scrambled.max(0.5),
        "adjacent intersections: scrambled {adj_scrambled:.2}, recovered {adj_recovered:.2}"
    );
}

/// Permutations compose: applying P then Q equals applying the composite.
#[test]
fn permutation_composition_matches_sequential_application() {
    let a = uniform_random(&GenConfig::new(80, 80).seed(7), 0.05).unwrap();
    let p = GammaReorderer::default().reorder(&a).unwrap().permutation;
    let step1 = p.apply_rows(&a).unwrap();
    let q = GraphReorderer::default()
        .reorder(&step1)
        .unwrap()
        .permutation;
    let sequential = q.apply_rows(&step1).unwrap();
    let composite = q.compose(&p).unwrap();
    assert_eq!(composite.apply_rows(&a).unwrap(), sequential);
}

/// Identity baseline sanity: OriginalOrder's permutation is the identity and
/// its simulated traffic matches simulating the raw matrix.
#[test]
fn original_order_is_a_true_identity() {
    let a = uniform_random(&GenConfig::new(128, 128).seed(8), 0.05).unwrap();
    let out = OriginalOrder.reorder(&a).unwrap();
    assert!(out.permutation.is_identity());
    let accel = configs::gamma();
    let direct = simulate_spgemm(&a, &a, &accel).unwrap();
    let via_perm = simulate_spgemm(&out.permutation.apply_rows(&a).unwrap(), &a, &accel).unwrap();
    assert_eq!(direct, via_perm);
}

/// Simulated traffic must never drop below the compulsory floor.
#[test]
fn traffic_respects_the_compulsory_floor() {
    for seed in 0..5 {
        let a = uniform_random(&GenConfig::new(300, 300).seed(seed), 0.02).unwrap();
        for accel in configs::all() {
            let rep = simulate_spgemm(&a, &a, &accel).unwrap();
            assert!(rep.a_bytes >= rep.compulsory_a);
            assert!(rep.c_bytes >= rep.compulsory_c);
            assert!(rep.cycles >= rep.max_pe_cycles);
        }
    }
}

/// A permutation alone never changes nnz, shape, or row contents (as sets).
#[test]
fn permuted_matrices_preserve_row_multiset() {
    let a = clustered_with_density(&GenConfig::new(120, 90).seed(12), 4, 0.9, 0.08).unwrap();
    let p = Permutation::try_new((0..120).rev().collect()).unwrap();
    let b = p.apply_rows(&a).unwrap();
    assert_eq!(a.nnz(), b.nnz());
    assert_eq!(a.shape(), b.shape());
    for i in 0..a.nrows() {
        assert_eq!(a.row(i), b.row(119 - i));
    }
}

/// `bootes analyze --profile` smoke test: the CLI profiling plumbing must
/// emit the stderr table and a JSON profile with the documented top-level
/// keys (`meta`, `spans`, `counters`, `gauges`, `histograms`).
#[test]
fn analyze_profile_flag_emits_valid_json_profile() {
    let dir = std::env::temp_dir().join(format!("bootes_profile_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("smoke.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate real general\n\
         4 4 4\n1 1 1.0\n2 2 1.0\n3 3 1.0\n4 4 1.0\n",
    )
    .unwrap();
    let profile_path = dir.join("profile.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bootes"))
        .arg("analyze")
        .arg(&mtx)
        .arg("--profile")
        .arg("--profile-out")
        .arg(&profile_path)
        .output()
        .expect("run bootes binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "analyze failed: {stderr}");
    assert!(
        stderr.contains("== bootes profile =="),
        "missing profile table in stderr: {stderr}"
    );
    let text = std::fs::read_to_string(&profile_path).unwrap();
    // The documented shape: parse both generically and into the typed model.
    let raw: serde::Value = serde_json::from_str(&text).unwrap();
    let obj = raw.as_object().expect("profile is a JSON object");
    for key in ["meta", "spans", "counters", "gauges", "histograms"] {
        assert!(
            obj.iter().any(|(k, _)| k == key),
            "profile missing top-level key {key:?}"
        );
    }
    let profile: bootes::obs::Profile = serde_json::from_str(&text).unwrap();
    assert_eq!(
        profile.meta.format_version,
        bootes::obs::PROFILE_FORMAT_VERSION
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `bootes decide --model results/models/gamma.json` reads the committed
/// `{model, accuracy}` wrapper and prints the class the unwrapped tree
/// predicts in-process.
#[test]
fn decide_reads_the_committed_model_wrapper() {
    use bootes::core::{Label, MatrixFeatures};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = root.join("tests/fixtures/clustered_96.mtx");
    let model_path = root.join("results/models/gamma.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bootes"))
        .arg("decide")
        .arg(&fixture)
        .arg("--model")
        .arg(&model_path)
        .output()
        .expect("run bootes binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "decide failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let wrapper: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&model_path).unwrap()).unwrap();
    let inner = wrapper.get("model").and_then(serde::Value::as_str).unwrap();
    let tree = bootes::model::DecisionTree::from_json(inner).unwrap();
    let a = bootes::sparse::io::read_matrix_market(std::io::BufReader::new(
        std::fs::File::open(&fixture).unwrap(),
    ))
    .unwrap();
    let class = tree.predict(&MatrixFeatures::extract(&a).to_vec()).unwrap();
    let expected = match Label::from_class(class).unwrap() {
        Label::NoReorder => "do not reorder".to_string(),
        Label::Reorder(k) => format!("reorder with k = {k}"),
    };
    assert!(
        stdout.trim_end().ends_with(&expected),
        "CLI printed {stdout:?}, in-process tree predicts {expected:?}"
    );
}

/// `bootes train` labels its corpus on the thread pool, so the model file it
/// writes must not depend on `--threads`.
#[test]
fn train_writes_the_same_model_at_any_thread_count() {
    let dir = std::env::temp_dir().join(format!("bootes_train_threads_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let train = |threads: &str| {
        let path = dir.join(format!("model-t{threads}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bootes"))
            .args(["train", "--corpus", "12", "--seed", "5", "--cache", "8192"])
            .args(["--threads", threads, "-o"])
            .arg(&path)
            .output()
            .expect("run bootes binary");
        assert!(
            out.status.success(),
            "train --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&path).unwrap()
    };
    assert!(train("1") == train("4"), "the model depends on --threads");
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI checks every command line against the subcommand's declared
/// flags before it reads the input: a mistyped flag, a flag without its
/// value, a removed flag and an extra argument each exit nonzero with
/// nothing on stdout, while flags may come before the input file.
#[test]
fn cli_rejects_what_a_subcommand_does_not_declare() {
    let dir = std::env::temp_dir().join(format!("bootes_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.mtx"), dir.join("b.mtx"));
    for path in [&a, &b] {
        std::fs::write(
            path,
            "%%MatrixMarket matrix coordinate real general\n\
             4 4 4\n1 1 1.0\n2 2 1.0\n3 3 1.0\n4 4 1.0\n",
        )
        .unwrap();
    }
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let bootes = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_bootes"))
            .args(args)
            .output()
            .expect("run bootes binary")
    };
    for (args, error) in [
        (&["simulate", a, "--acel", "gamma"][..], "unknown flag"),
        (&["reorder", a, "--k"], "needs a value"),
        (&["reorder", a, "--no-fallback"], "unknown flag"),
        (&["reorder", a, b], "unexpected argument"),
        (&["features", a, "--no-donor"], "unknown flag"),
    ] {
        let out = bootes(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} ran: {stderr}");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
    }
    let reordered = dir.join("out.mtx");
    let out = bootes(&["reorder", "-o", reordered.to_str().unwrap(), a]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(reordered.exists());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Golden snapshots: full-pipeline output on the checked-in fixtures under
// tests/fixtures/. Each snapshot captures the decision class, chosen k, the
// permutation, and the canonical (clock-stripped) ReorderStats JSON, so any
// unintended change to feature extraction, the eigensolver, k-means, or the
// ordering heuristics shows up as a diff against the .golden file. Regenerate
// deliberately with BOOTES_BLESS=1.
// ---------------------------------------------------------------------------

mod golden {
    use crate::common::assert_golden;
    use bootes::core::{toy_tree, BootesConfig, BootesPipeline};
    use bootes::sparse::io::read_matrix_market;
    use bootes::sparse::MatrixFingerprint;
    use serde::Serialize as _;
    use std::path::PathBuf;

    fn fixture_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
    }

    fn golden_snapshot(name: &str) -> String {
        let path = fixture_dir().join(format!("{name}.mtx"));
        let file = std::fs::File::open(&path)
            .unwrap_or_else(|e| panic!("open fixture {}: {e}", path.display()));
        let a = read_matrix_market(std::io::BufReader::new(file)).expect("valid fixture");
        let fp = MatrixFingerprint::of(&a);
        let pipeline = BootesPipeline::new(
            toy_tree(4).expect("4 is a candidate k"),
            BootesConfig::default(),
        )
        .expect("valid model");
        let out = pipeline
            .preprocess(&a)
            .expect("pipeline succeeds on fixtures");
        let class = out.decision.label.to_class().expect("valid label") as u64;
        let value = serde::Value::Object(vec![
            ("fixture".to_string(), serde::Value::Str(name.to_string())),
            (
                "pattern".to_string(),
                serde::Value::Str(format!("{:016x}", fp.pattern)),
            ),
            ("class".to_string(), serde::Value::UInt(class)),
            (
                "k".to_string(),
                out.decision
                    .k()
                    .map_or(serde::Value::Null, |k| serde::Value::UInt(k as u64)),
            ),
            ("permutation".to_string(), out.permutation.serialize()),
            ("stats".to_string(), out.stats.canonical().serialize()),
        ]);
        serde_json::to_string(&value).expect("snapshot serializes")
    }

    fn check_golden(name: &str) {
        assert_golden(&format!("{name}.golden"), &golden_snapshot(name));
    }

    #[test]
    fn golden_clustered_96() {
        check_golden("clustered_96");
    }

    #[test]
    fn golden_banded_64() {
        check_golden("banded_64");
    }

    #[test]
    fn golden_dense_16() {
        check_golden("dense_16");
    }
}
