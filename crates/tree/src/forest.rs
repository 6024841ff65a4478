//! A random-subspace forest of decision trees.
//!
//! The paper motivates decision trees partly because they "are used in
//! industrial models like random forests and XGBoost" (§1), and its
//! related work points at abstract interpretation of tree *ensembles*
//! (Ranzato & Zanella). This module provides the ensemble substrate:
//! a forest whose trees are trained with the same deterministic
//! `bestSplit` learner on random feature subsets (the *random subspace
//! method*), predicting by majority vote.
//!
//! Random subspaces — rather than bootstrap bagging — keep every tree
//! trained on the *full* row set, which is what makes ensemble poisoning
//! certification compositional: a removal set the attacker chooses acts
//! on all trees identically, so per-tree certificates under `Δn(T)`
//! compose soundly (see `antidote-core::ensemble`).

use crate::dtrace::argmax_label;
use crate::learner::{learn_tree, DecisionTree};
use antidote_data::{ClassId, Dataset, Subset};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for [`learn_forest`].
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees (odd values avoid two-way vote ties).
    pub n_trees: usize,
    /// Features each tree sees. Clamped to the dataset's feature count.
    pub features_per_tree: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Seed for the feature-subset draws.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 7,
            features_per_tree: 8,
            max_depth: 2,
            seed: 0,
        }
    }
}

/// One member of a forest: a tree plus the feature subset it was trained
/// on (tree feature indices refer to the *projected* dataset).
#[derive(Debug, Clone, PartialEq)]
pub struct ForestMember {
    /// The learned tree over the projected feature space.
    pub tree: DecisionTree,
    /// Original-dataset indices of the tree's features, in projection
    /// order.
    pub features: Vec<usize>,
}

impl ForestMember {
    /// Projects a full feature vector into this member's subspace.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        self.features.iter().map(|&f| x[f]).collect()
    }

    /// This member's vote for `x` (given in the *original* feature space).
    pub fn vote(&self, x: &[f64]) -> ClassId {
        self.tree.predict(&self.project(x))
    }
}

/// A random-subspace forest.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    members: Vec<ForestMember>,
    n_classes: usize,
}

impl Forest {
    /// The trees and their feature subsets.
    pub fn members(&self) -> &[ForestMember] {
        &self.members
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Per-class vote counts for `x`.
    pub fn votes(&self, x: &[f64]) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_classes];
        for m in &self.members {
            counts[m.vote(x) as usize] += 1;
        }
        counts
    }

    /// Majority-vote prediction (ties break toward the smallest class id,
    /// consistent with the single-tree learner).
    pub fn predict(&self, x: &[f64]) -> ClassId {
        let votes = self.votes(x);
        let probs: Vec<f64> = votes.iter().map(|&v| v as f64).collect();
        argmax_label(&probs)
    }

    /// Fraction of `test` rows predicted correctly.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        if test.is_empty() {
            return f64::NAN;
        }
        let hits = test
            .rows()
            .filter(|&r| self.predict(&test.row_values(r)) == test.label(r))
            .count();
        hits as f64 / test.len() as f64
    }
}

/// Trains a random-subspace forest on the full dataset.
///
/// # Panics
///
/// Panics if `ds` is empty or `cfg.n_trees` is zero.
pub fn learn_forest(ds: &Dataset, cfg: &ForestConfig) -> Forest {
    assert!(
        !ds.is_empty(),
        "cannot learn a forest from an empty dataset"
    );
    assert!(cfg.n_trees > 0, "a forest needs at least one tree");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let per_tree = cfg.features_per_tree.clamp(1, ds.n_features());
    let mut members = Vec::with_capacity(cfg.n_trees);
    for _ in 0..cfg.n_trees {
        let mut features: Vec<usize> = (0..ds.n_features()).collect();
        features.shuffle(&mut rng);
        features.truncate(per_tree);
        features.sort_unstable();
        let projected = ds.select_features(&features);
        let tree = learn_tree(&projected, &Subset::full(&projected), cfg.max_depth);
        members.push(ForestMember { tree, features });
    }
    Forest {
        members,
        n_classes: ds.n_classes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::synth;

    #[test]
    fn forest_learns_and_votes() {
        let ds = synth::iris_like(0);
        let forest = learn_forest(
            &ds,
            &ForestConfig {
                n_trees: 5,
                features_per_tree: 2,
                max_depth: 2,
                seed: 1,
            },
        );
        assert_eq!(forest.len(), 5);
        assert!(!forest.is_empty());
        let x = ds.row_values(0);
        let votes = forest.votes(&x);
        assert_eq!(votes.iter().sum::<u32>(), 5);
        let pred = forest.predict(&x);
        assert!((pred as usize) < 3);
        // The forest should be decent on its own training data.
        assert!(forest.accuracy(&ds) > 0.8);
    }

    #[test]
    fn forest_is_deterministic_in_seed() {
        let ds = synth::wdbc_like(0);
        let cfg = ForestConfig {
            n_trees: 3,
            features_per_tree: 5,
            max_depth: 2,
            seed: 9,
        };
        assert_eq!(learn_forest(&ds, &cfg), learn_forest(&ds, &cfg));
        let other = ForestConfig { seed: 10, ..cfg };
        assert_ne!(learn_forest(&ds, &cfg), learn_forest(&ds, &other));
    }

    #[test]
    fn members_project_consistently() {
        let ds = synth::wdbc_like(0);
        let forest = learn_forest(
            &ds,
            &ForestConfig {
                n_trees: 4,
                features_per_tree: 3,
                max_depth: 1,
                seed: 2,
            },
        );
        for m in forest.members() {
            assert_eq!(m.features.len(), 3);
            assert!(m.features.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            let x = ds.row_values(7);
            let p = m.project(&x);
            for (i, &f) in m.features.iter().enumerate() {
                assert_eq!(p[i], x[f]);
            }
        }
    }

    #[test]
    fn feature_budget_clamps() {
        let ds = synth::figure2();
        let forest = learn_forest(
            &ds,
            &ForestConfig {
                n_trees: 3,
                features_per_tree: 99,
                max_depth: 1,
                seed: 0,
            },
        );
        assert!(forest.members().iter().all(|m| m.features == vec![0]));
    }

    #[test]
    fn ensemble_beats_or_matches_bad_single_trees() {
        // With only 2 of 30 features per tree, single trees are weak;
        // 9 of them voting should do clearly better than the worst member.
        let ds = synth::wdbc_like(3);
        let forest = learn_forest(
            &ds,
            &ForestConfig {
                n_trees: 9,
                features_per_tree: 2,
                max_depth: 2,
                seed: 4,
            },
        );
        let worst = forest
            .members()
            .iter()
            .map(|m| {
                let hits = ds
                    .rows()
                    .filter(|&r| m.vote(&ds.row_values(r)) == ds.label(r))
                    .count();
                hits as f64 / ds.len() as f64
            })
            .fold(f64::MAX, f64::min);
        assert!(forest.accuracy(&ds) >= worst);
    }
}
