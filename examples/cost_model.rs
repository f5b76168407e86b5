//! Train the decision-tree cost model and use the full Bootes pipeline.
//!
//! Reproduces §3.2 end to end at a small scale: generate a labeled corpus by
//! measuring traffic on a simulated accelerator, train the CART tree with
//! balanced class weights, then let the pipeline decide per matrix whether
//! (and with which `k`) to reorder.
//!
//! Run with: `cargo run --release --example cost_model`

use bootes::accel::{configs, simulate_spgemm};
use bootes::core::{
    measure_label, BootesConfig, BootesPipeline, Label, MatrixFeatures, FEATURE_NAMES,
};
use bootes::model::{Dataset, DecisionTree, TreeConfig};
use bootes::workloads::suite::training_corpus;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut accel = configs::flexagon();
    accel.cache_bytes = 8 << 10; // small cache at this matrix scale

    // 1. Labeled corpus: 60 synthetic matrices across the generator classes,
    //    each labeled with the best candidate k if it cuts the simulated A·A
    //    traffic by >10% (the paper's threshold), else NoReorder.
    println!("labeling 60 corpus matrices by measurement...");
    let corpus = training_corpus(60, 11, 384)?;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for (_, m) in &corpus {
        x.push(MatrixFeatures::extract(m).to_vec());
        let label = measure_label(m, |reordered| {
            simulate_spgemm(reordered, m, &accel)
                .map(|report| report.total_bytes())
                .map_err(|e| e.to_string())
        })?;
        y.push(label.to_class()?);
    }
    let names = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    let ds = Dataset::new(x, y, names, Label::N_CLASSES)?;
    println!(
        "class counts (NoReorder, k=2, 4, 8, 16, 32): {:?}",
        ds.class_counts()
    );

    // 2. 70/30 split, balanced class weights (paper §5.1), train, prune.
    let (train, test) = ds.split(0.7, 3)?;
    let cfg = TreeConfig {
        max_depth: 8,
        class_weights: Some(train.balanced_class_weights()),
        ..TreeConfig::default()
    };
    let mut tree = DecisionTree::fit(&train, &cfg)?;
    tree.prune();
    let preds: Vec<usize> = (0..test.len())
        .map(|i| tree.predict(test.features(i)))
        .collect::<Result<_, _>>()?;
    println!(
        "held-out accuracy: {:.0}% on {} samples; model is {} bytes serialized (paper: ~11 KB)",
        bootes::model::accuracy(test.labels(), &preds) * 100.0,
        test.len(),
        tree.serialized_size()
    );

    // 3. Deploy the pipeline on fresh matrices.
    let pipeline = BootesPipeline::new(tree, BootesConfig::default())?;
    for (name, m) in training_corpus(6, 999, 384)? {
        let decision = pipeline.decide(&m)?;
        let outcome = pipeline.preprocess(&m)?;
        println!(
            "{name:>20}: decision {:?} (preprocessing {:.2} ms)",
            decision.label,
            outcome.stats.elapsed.as_secs_f64() * 1e3,
        );
    }
    Ok(())
}
