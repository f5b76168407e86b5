//! Reproduce the paper's model-selection study (§3): decision tree vs
//! random forest vs gradient boosting vs linear SVM on the reorder-prediction
//! task, comparing held-out accuracy against serialized storage.
//!
//! The paper: "Although we experimented with random forests, XGBoost, and
//! SVMs — with XGBoost achieving the highest accuracy — it required
//! considerably more storage. Decision trees, while offering similar levels
//! of accuracy, present a lightweight solution."
//!
//! Run with: `cargo run --release --example model_comparison`

use bootes::accel::{configs, simulate_spgemm};
use bootes::core::label_corpus;
use bootes::model::{
    accuracy, DecisionTree, ForestConfig, GbtConfig, GradientBoostedTrees, LinearSvm, RandomForest,
    SvmConfig, TreeConfig,
};
use bootes::sparse::CsrMatrix;
use bootes::workloads::suite::training_corpus;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut accel = configs::flexagon();
    accel.cache_bytes = 8 << 10;

    println!("labeling 90 corpus matrices by measurement...");
    let corpus = training_corpus(90, 21, 384)?;
    let accel = &accel;
    let matrices = corpus.iter().map(|(_, m)| m);
    let ds = label_corpus(matrices, 1, bootes::par::threads(), |a| {
        move |m: &CsrMatrix| simulate_spgemm(m, a, accel).map(|r| vec![r.total_bytes()])
    })?
    .remove(0);
    let (train, test) = ds.split(0.7, 5)?;
    let weights = train.balanced_class_weights();

    let eval = |preds: Vec<usize>| accuracy(test.labels(), &preds);

    let tree = {
        let mut t = DecisionTree::fit(
            &train,
            &TreeConfig {
                class_weights: Some(weights.clone()),
                ..TreeConfig::default()
            },
        )?;
        t.prune();
        t
    };
    let forest = RandomForest::fit(&train, &ForestConfig::default())?;
    let gbt = GradientBoostedTrees::fit(&train, &GbtConfig::default())?;
    let svm = LinearSvm::fit(&train, &SvmConfig::default())?;

    let rows: Vec<(&str, f64, usize)> = vec![
        (
            "decision tree",
            eval(
                (0..test.len())
                    .map(|i| tree.predict(test.features(i)))
                    .collect::<Result<_, _>>()?,
            ),
            tree.serialized_size(),
        ),
        (
            "random forest",
            eval(
                (0..test.len())
                    .map(|i| forest.predict(test.features(i)))
                    .collect::<Result<_, _>>()?,
            ),
            forest.serialized_size(),
        ),
        (
            "gradient boosting",
            eval(
                (0..test.len())
                    .map(|i| gbt.predict(test.features(i)))
                    .collect::<Result<_, _>>()?,
            ),
            gbt.serialized_size(),
        ),
        (
            "linear svm",
            eval(
                (0..test.len())
                    .map(|i| svm.predict(test.features(i)))
                    .collect::<Result<_, _>>()?,
            ),
            svm.serialized_size(),
        ),
    ];

    println!("\n{:<18} {:>10} {:>14}", "model", "accuracy", "storage (B)");
    println!("{}", "-".repeat(44));
    for (name, acc, size) in &rows {
        println!("{name:<18} {:>9.0}% {size:>14}", acc * 100.0);
    }
    let (tree_acc, tree_size) = (rows[0].1, rows[0].2);
    let heavier: Vec<&str> = rows[1..]
        .iter()
        .filter(|(_, acc, size)| *size > tree_size && *acc <= tree_acc + 0.1)
        .map(|(n, _, _)| *n)
        .collect();
    println!(
        "\nThe decision tree stays within ~10% accuracy of {heavier:?} at a fraction of \
         their storage — the paper's reason for deploying it."
    );
    Ok(())
}
