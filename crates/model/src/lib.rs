#![warn(missing_docs)]
//! Decision-tree and random-forest models for reordering cost prediction.
//!
//! The Bootes paper (§3.2) trains a CART decision tree on structural matrix
//! features to decide (a) whether row reordering will pay off and (b) which
//! cluster count `k` to use. It chose a tree over random forests, XGBoost and
//! SVMs because the tree matched their accuracy at a fraction of the storage
//! (~11 KB). This crate implements:
//!
//! - [`DecisionTree`]: CART with Gini impurity, class weighting (the paper's
//!   class-balancing fix for the "no reorder" majority), optional per-split
//!   feature subsampling, depth/leaf limits, post-hoc pruning, Gini feature
//!   importances, and serde persistence,
//! - [`RandomForest`]: bootstrap-aggregated trees,
//! - [`GradientBoostedTrees`]: softmax gradient boosting (the "XGBoost"
//!   comparison point) and [`LinearSvm`]: one-vs-rest hinge-loss SVM — the
//!   storage-for-accuracy alternatives the paper evaluated and rejected,
//! - [`Dataset`]: feature-matrix container with deterministic train/test
//!   splits and balanced class weights,
//! - [`eval`]: accuracy, confusion matrices and macro-F1.
//!
//! # Example
//!
//! ```
//! use bootes_model::{Dataset, DecisionTree, TreeConfig};
//!
//! # fn main() -> Result<(), bootes_model::ModelError> {
//! let x = vec![
//!     vec![0.0, 1.0], vec![0.1, 0.9], vec![1.0, 0.1], vec![0.9, 0.0],
//! ];
//! let y = vec![0, 0, 1, 1];
//! let ds = Dataset::new(x, y, vec!["a".into(), "b".into()], 2)?;
//! let tree = DecisionTree::fit(&ds, &TreeConfig::default())?;
//! assert_eq!(tree.predict(&[0.05, 0.95])?, 0);
//! assert_eq!(tree.predict(&[0.95, 0.05])?, 1);
//! # Ok(())
//! # }
//! ```

pub mod dataset;
pub mod error;
pub mod eval;
pub mod forest;
pub mod gbt;
pub mod svm;
pub mod tree;

pub use dataset::Dataset;
pub use error::ModelError;
pub use eval::{accuracy, confusion_matrix, macro_f1};
pub use forest::{ForestConfig, RandomForest};
pub use gbt::{GbtConfig, GradientBoostedTrees};
pub use svm::{LinearSvm, SvmConfig};
pub use tree::{DecisionTree, TreeConfig};
