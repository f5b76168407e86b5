//! CART decision-tree classifier.
//!
//! Binary splits on `feature <= threshold`, chosen to minimize weighted Gini
//! impurity. Supports per-class sample weights (the paper's class balancing),
//! per-split feature subsampling (used by the random forest), depth and leaf
//! limits, post-hoc structural pruning, Gini feature importances and serde
//! persistence. The serialized size backs the paper's "~11 KB model" claim.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::ModelError;

/// Hyperparameters for [`DecisionTree::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum weighted samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples each child must receive.
    pub min_samples_leaf: usize,
    /// Per-class weights; `None` weighs every sample 1.0. Use
    /// [`Dataset::balanced_class_weights`] for the paper's balancing.
    pub class_weights: Option<Vec<f64>>,
    /// Features examined per split; `None` examines all (set by the forest).
    pub max_features: Option<usize>,
    /// Seed for feature subsampling (unused when `max_features` is `None`).
    pub seed: u64,
    /// Minimum Gini impurity decrease a split must achieve.
    pub min_impurity_decrease: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            class_weights: None,
            max_features: None,
            seed: 7,
            min_impurity_decrease: 0.0,
        }
    }
}

/// One node of the flattened tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Majority class of the training samples reaching this leaf.
        class: usize,
        /// Weighted class distribution (normalized).
        proba: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        /// Weighted impurity decrease contributed by this split (for
        /// feature importances).
        gain: f64,
    },
}

/// A trained CART classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
}

struct Builder<'a> {
    ds: &'a Dataset,
    weights: Vec<f64>,
    cfg: &'a TreeConfig,
    nodes: Vec<Node>,
    rng: StdRng,
}

impl DecisionTree {
    /// Trains a tree on `ds`.
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidDataset`] if the dataset is empty.
    /// - [`ModelError::InvalidConfig`] if class weights have the wrong
    ///   length, contain negatives, or `max_features == 0`.
    pub fn fit(ds: &Dataset, cfg: &TreeConfig) -> Result<Self, ModelError> {
        if ds.is_empty() {
            return Err(ModelError::InvalidDataset(
                "cannot train on an empty dataset".to_string(),
            ));
        }
        if let Some(w) = &cfg.class_weights {
            if w.len() != ds.n_classes() {
                return Err(ModelError::InvalidConfig(format!(
                    "{} class weights for {} classes",
                    w.len(),
                    ds.n_classes()
                )));
            }
            if w.iter().any(|&x| x.is_nan() || x < 0.0 || !x.is_finite()) {
                return Err(ModelError::InvalidConfig(
                    "class weights must be finite and non-negative".to_string(),
                ));
            }
        }
        if cfg.max_features == Some(0) {
            return Err(ModelError::InvalidConfig(
                "max_features must be at least 1".to_string(),
            ));
        }
        let weights: Vec<f64> = (0..ds.len())
            .map(|i| match &cfg.class_weights {
                Some(w) => w[ds.label(i)],
                None => 1.0,
            })
            .collect();
        let mut b = Builder {
            ds,
            weights,
            cfg,
            nodes: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
        };
        let all: Vec<usize> = (0..ds.len()).collect();
        b.build(&all, 0);
        Ok(DecisionTree {
            nodes: b.nodes,
            n_features: ds.n_features(),
            n_classes: ds.n_classes(),
        })
    }

    /// Predicts the class of one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureMismatch`] if `x` has the wrong length.
    pub fn predict(&self, x: &[f64]) -> Result<usize, ModelError> {
        Ok(self.leaf(x)?.0)
    }

    /// Predicts the class-probability distribution of one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureMismatch`] if `x` has the wrong length.
    pub fn predict_proba(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        Ok(self.leaf(x)?.1.to_vec())
    }

    fn leaf(&self, x: &[f64]) -> Result<(usize, &[f64]), ModelError> {
        if x.len() != self.n_features {
            return Err(ModelError::FeatureMismatch {
                expected: self.n_features,
                got: x.len(),
            });
        }
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { class, proba } => return Ok((*class, proba)),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    idx = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (root-only trees have depth 0).
    pub fn depth(&self) -> usize {
        self.depth_of(0)
    }

    fn depth_of(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + self.depth_of(*left).max(self.depth_of(*right)),
        }
    }

    /// Number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes the tree predicts.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Gini feature importances, normalized to sum to 1 (all zeros for a
    /// stump with no splits).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for n in &self.nodes {
            if let Node::Split { feature, gain, .. } = n {
                imp[*feature] += gain.max(0.0);
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Collapses every split whose two children are leaves predicting the
    /// same class — the paper's post-training pruning pass that shrinks the
    /// deployed model. Returns the number of splits removed.
    pub fn prune(&mut self) -> usize {
        let mut removed = 0;
        loop {
            let mut target = None;
            for (idx, node) in self.nodes.iter().enumerate() {
                if let Node::Split { left, right, .. } = node {
                    if let (Node::Leaf { class: cl, .. }, Node::Leaf { class: cr, .. }) =
                        (&self.nodes[*left], &self.nodes[*right])
                    {
                        if cl == cr {
                            target = Some((idx, *left, *right));
                            break;
                        }
                    }
                }
            }
            let Some((idx, left, right)) = target else {
                break;
            };
            // Merge the children's distributions (unweighted average keeps
            // the majority class by construction since both agree).
            let (cl, pl) = match &self.nodes[left] {
                Node::Leaf { class, proba } => (*class, proba.clone()),
                _ => unreachable!("checked leaf above"),
            };
            let pr = match &self.nodes[right] {
                Node::Leaf { proba, .. } => proba.clone(),
                _ => unreachable!("checked leaf above"),
            };
            let merged: Vec<f64> = pl.iter().zip(&pr).map(|(a, b)| 0.5 * (a + b)).collect();
            self.nodes[idx] = Node::Leaf {
                class: cl,
                proba: merged,
            };
            removed += 1;
            // Dead children stay in the arena; `serialized_size` reflects the
            // reachable tree because serde walks indices... it does not, so
            // compact the arena instead.
            self.compact();
        }
        removed
    }

    /// Rebuilds the node arena keeping only nodes reachable from the root.
    fn compact(&mut self) {
        let mut map = vec![usize::MAX; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            if map[idx] != usize::MAX {
                continue;
            }
            map[idx] = order.len();
            order.push(idx);
            if let Node::Split { left, right, .. } = &self.nodes[idx] {
                stack.push(*right);
                stack.push(*left);
            }
        }
        let mut new_nodes = Vec::with_capacity(order.len());
        for &old in &order {
            let mut n = self.nodes[old].clone();
            if let Node::Split { left, right, .. } = &mut n {
                *left = map[*left];
                *right = map[*right];
            }
            new_nodes.push(n);
        }
        self.nodes = new_nodes;
    }

    /// Size of the JSON-serialized model in bytes (the paper's storage
    /// metric).
    pub fn serialized_size(&self) -> usize {
        serde_json::to_vec(self).map(|v| v.len()).unwrap_or(0)
    }

    /// Serializes the model to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Serialization`] on encoder failure.
    pub fn to_json(&self) -> Result<String, ModelError> {
        serde_json::to_string(self).map_err(|e| ModelError::Serialization(e.to_string()))
    }

    /// Restores a model from JSON produced by [`DecisionTree::to_json`], or
    /// from the `{"model": "<tree JSON>", "accuracy": ...}` wrapper the bench
    /// harness commits under `results/models/`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Serialization`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        let err = |e: serde_json::Error| ModelError::Serialization(e.to_string());
        let value: serde::Value = serde_json::from_str(json).map_err(err)?;
        match value.get("model").and_then(serde::Value::as_str) {
            Some(inner) => serde_json::from_str(inner).map_err(err),
            None => serde::Deserialize::deserialize(&value)
                .map_err(|e: serde::Error| ModelError::Serialization(e.to_string())),
        }
    }
}

impl Builder<'_> {
    /// Builds the subtree over `idx_set`, returning its node index.
    fn build(&mut self, idx_set: &[usize], depth: usize) -> usize {
        let (counts, total_w) = self.weighted_counts(idx_set);
        let node_impurity = gini(&counts, total_w);
        let majority = argmax(&counts);
        let proba: Vec<f64> = counts
            .iter()
            .map(|&c| if total_w > 0.0 { c / total_w } else { 0.0 })
            .collect();

        let make_leaf = depth >= self.cfg.max_depth
            || idx_set.len() < self.cfg.min_samples_split
            || node_impurity <= 0.0;

        let split = if make_leaf {
            None
        } else {
            self.best_split(idx_set, node_impurity, total_w)
        };

        match split {
            None => {
                self.nodes.push(Node::Leaf {
                    class: majority,
                    proba,
                });
                self.nodes.len() - 1
            }
            Some((feature, threshold, gain)) => {
                let (l, r): (Vec<usize>, Vec<usize>) = idx_set
                    .iter()
                    .partition(|&&i| self.ds.features(i)[feature] <= threshold);
                // Reserve our slot before recursing so child indices are known.
                let me = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    class: majority,
                    proba: proba.clone(),
                });
                let left = self.build(&l, depth + 1);
                let right = self.build(&r, depth + 1);
                self.nodes[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    gain,
                };
                me
            }
        }
    }

    fn weighted_counts(&self, idx_set: &[usize]) -> (Vec<f64>, f64) {
        let mut counts = vec![0.0; self.ds.n_classes()];
        let mut total = 0.0;
        for &i in idx_set {
            counts[self.ds.label(i)] += self.weights[i];
            total += self.weights[i];
        }
        (counts, total)
    }

    /// Finds the `(feature, threshold, gain)` minimizing weighted child Gini.
    fn best_split(
        &mut self,
        idx_set: &[usize],
        node_impurity: f64,
        total_w: f64,
    ) -> Option<(usize, f64, f64)> {
        let d = self.ds.n_features();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(mf) = self.cfg.max_features {
            features.shuffle(&mut self.rng);
            features.truncate(mf.min(d));
            features.sort_unstable();
        }

        let k = self.ds.n_classes();
        let mut best: Option<(usize, f64, f64)> = None;
        let mut sorted: Vec<usize> = Vec::with_capacity(idx_set.len());
        for &f in &features {
            sorted.clear();
            sorted.extend_from_slice(idx_set);
            sorted.sort_by(|&a, &b| {
                self.ds.features(a)[f]
                    .partial_cmp(&self.ds.features(b)[f])
                    .expect("finite features")
            });
            let mut left_counts = vec![0.0; k];
            let mut left_w = 0.0;
            let (total_counts, _) = self.weighted_counts(idx_set);
            for pos in 0..sorted.len() - 1 {
                let i = sorted[pos];
                left_counts[self.ds.label(i)] += self.weights[i];
                left_w += self.weights[i];
                let xv = self.ds.features(i)[f];
                let xn = self.ds.features(sorted[pos + 1])[f];
                if xn <= xv {
                    continue; // no valid threshold between equal values
                }
                let n_left = pos + 1;
                let n_right = sorted.len() - n_left;
                if n_left < self.cfg.min_samples_leaf || n_right < self.cfg.min_samples_leaf {
                    continue;
                }
                let right_counts: Vec<f64> = total_counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(t, l)| t - l)
                    .collect();
                let right_w = total_w - left_w;
                let child_impurity = (left_w / total_w) * gini(&left_counts, left_w)
                    + (right_w / total_w) * gini(&right_counts, right_w);
                let gain = node_impurity - child_impurity;
                if gain >= self.cfg.min_impurity_decrease
                    && best.is_none_or(|(_, _, g)| gain > g + 1e-15)
                {
                    best = Some((f, 0.5 * (xv + xn), gain));
                }
            }
        }
        best
    }
}

fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| (c / total) * (c / total))
        .sum::<f64>()
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset() -> Dataset {
        // XOR needs depth >= 2; a healthy CART must solve it exactly.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for jitter in 0..4 {
                    x.push(vec![
                        a as f64 + jitter as f64 * 0.01,
                        b as f64 + jitter as f64 * 0.01,
                    ]);
                    y.push((a ^ b) as usize);
                }
            }
        }
        Dataset::new(x, y, vec!["a".into(), "b".into()], 2).unwrap()
    }

    #[test]
    fn learns_xor() {
        let ds = xor_dataset();
        let t = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(t.predict(&[0.0, 0.0]).unwrap(), 0);
        assert_eq!(t.predict(&[1.0, 0.0]).unwrap(), 1);
        assert_eq!(t.predict(&[0.0, 1.0]).unwrap(), 1);
        assert_eq!(t.predict(&[1.0, 1.0]).unwrap(), 0);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn perfect_training_accuracy_on_separable_data() {
        let ds = xor_dataset();
        let t = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        for i in 0..ds.len() {
            assert_eq!(t.predict(ds.features(i)).unwrap(), ds.label(i));
        }
    }

    #[test]
    fn depth_limit_respected() {
        let ds = xor_dataset();
        let t = DecisionTree::fit(
            &ds,
            &TreeConfig {
                max_depth: 1,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        assert!(t.depth() <= 1);
    }

    #[test]
    fn class_weights_shift_majority() {
        // 9 samples of class 0 vs 1 of class 1 at the same x: with balanced
        // weights an impossible split region must still prefer... here we
        // check the leaf probability shifts toward the upweighted class.
        let x: Vec<Vec<f64>> = (0..10).map(|_| vec![0.0]).collect();
        let mut y = vec![0usize; 9];
        y.push(1);
        let ds = Dataset::new(x, y, vec!["f".into()], 2).unwrap();
        let unweighted = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(unweighted.predict(&[0.0]).unwrap(), 0);
        let weighted = DecisionTree::fit(
            &ds,
            &TreeConfig {
                class_weights: Some(vec![1.0, 100.0]),
                ..TreeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(weighted.predict(&[0.0]).unwrap(), 1);
    }

    #[test]
    fn proba_sums_to_one() {
        let ds = xor_dataset();
        let t = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let p = t.predict_proba(&[0.5, 0.0]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn feature_importances_identify_informative_feature() {
        // Only feature 1 carries signal.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            x.push(vec![(i % 7) as f64, if i < 20 { 0.0 } else { 1.0 }]);
            y.push(usize::from(i >= 20));
        }
        let ds = Dataset::new(x, y, vec!["noise".into(), "signal".into()], 2).unwrap();
        let t = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let imp = t.feature_importances();
        assert!(imp[1] > 0.99, "importances {imp:?}");
    }

    #[test]
    fn pruning_removes_redundant_splits() {
        let ds = xor_dataset();
        let mut t = DecisionTree::fit(
            &ds,
            &TreeConfig {
                max_depth: 20,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        let before = t.node_count();
        t.prune();
        assert!(t.node_count() <= before);
        // Predictions unchanged by pruning.
        assert_eq!(t.predict(&[1.0, 0.0]).unwrap(), 1);
        assert_eq!(t.predict(&[1.0, 1.0]).unwrap(), 0);
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let ds = xor_dataset();
        let t = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let json = t.to_json().unwrap();
        let back = DecisionTree::from_json(&json).unwrap();
        assert_eq!(back.predict(&[0.0, 1.0]).unwrap(), 1);
        assert!(t.serialized_size() > 0);
        // The committed `{model, accuracy}` wrapper holds the same tree.
        let wrapped = serde_json::to_string(&serde::Value::Object(vec![
            ("model".to_string(), serde::Value::Str(json)),
            ("accuracy".to_string(), serde::Value::Float(0.5)),
        ]))
        .unwrap();
        assert_eq!(DecisionTree::from_json(&wrapped).unwrap(), back);
        assert!(DecisionTree::from_json("{\"accuracy\": 0.5}").is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = xor_dataset();
        assert!(DecisionTree::fit(
            &ds,
            &TreeConfig {
                class_weights: Some(vec![1.0]),
                ..TreeConfig::default()
            }
        )
        .is_err());
        assert!(DecisionTree::fit(
            &ds,
            &TreeConfig {
                max_features: Some(0),
                ..TreeConfig::default()
            }
        )
        .is_err());
        let t = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert!(matches!(
            t.predict(&[1.0]),
            Err(ModelError::FeatureMismatch { .. })
        ));
        let empty = Dataset::new(vec![], vec![], vec!["f".into()], 2).unwrap();
        assert!(DecisionTree::fit(&empty, &TreeConfig::default()).is_err());
    }

    #[test]
    fn single_class_dataset_yields_stump() {
        let ds = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![1, 1, 1],
            vec!["f".into()],
            3,
        )
        .unwrap();
        let t = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[5.0]).unwrap(), 1);
    }
}
