#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Concrete decision-tree learning (§3 of the paper).
//!
//! This crate implements the *concrete* semantics that Antidote abstracts:
//!
//! * [`predicate`] — the predicate language `x_i ≤ τ`, with dynamic
//!   candidate generation per feature kind (boolean tests for
//!   [`antidote_data::FeatureKind::Bool`] columns, adjacent-midpoint
//!   thresholds for real columns, §5.1);
//! * [`split`] — Gini impurity `ent`, class probabilities `cprob`, split
//!   `score`, the greedy `bestSplit` search (Fig. 5), and the split walk
//!   that it, the abstract `bestSplit#` and the flip learner share;
//! * [`dtrace`](mod@dtrace) — the trace-based learner `DTrace` (Fig. 4), which builds
//!   only the root-to-leaf trace a given input traverses;
//! * [`learner`] — a full CART-style learner and [`learner::DecisionTree`]
//!   inference, used for Table 1 accuracies and by the attack baseline;
//! * [`eval`] — accuracy and confusion-matrix metrics.
//!
//! The paper's learner breaks score ties nondeterministically; a *reference
//! label* must be a function, so everything here is deterministic: ties
//! break by (score, feature index, threshold) and, for the output label, by
//! (probability, class index). The abstract learner in `antidote-core`
//! still tracks **all** tied predicates, as the paper requires.
//!
//! # Example
//!
//! ```
//! use antidote_data::{synth, Subset};
//! use antidote_tree::dtrace::dtrace;
//!
//! let ds = synth::figure2();
//! let full = Subset::full(&ds);
//! // Classify the paper's example input 18 with a depth-1 trace: it goes
//! // right of the best split x ≤ 10 and is labelled black (class 1).
//! let result = dtrace(&ds, &full, &[18.0], 1);
//! assert_eq!(result.label, 1);
//! ```

pub mod dtrace;
pub mod eval;
pub mod forest;
pub mod learner;
pub mod predicate;
pub mod split;
pub mod viz;

pub use dtrace::{dtrace, TraceResult, TraceStep};
pub use forest::{learn_forest, Forest, ForestConfig};
pub use learner::{learn_tree, DecisionTree};
pub use predicate::Predicate;
pub use split::{best_split, cprob, gini, score_split, SplitChoice};
