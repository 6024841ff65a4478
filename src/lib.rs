#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # Antidote — proving data-poisoning robustness in decision trees
//!
//! A Rust reproduction of *"Proving Data-Poisoning Robustness in Decision
//! Trees"* (Drews, Albarghouthi, D'Antoni — PLDI 2020). Antidote abstractly
//! trains decision trees on the intractably large family of poisoned
//! training sets `Δn(T) = { T' ⊆ T : |T \ T'| ≤ n }` and, when the abstract
//! result is conclusive, *proves* that a test input's prediction cannot be
//! changed by any attacker who contributed up to `n` training points.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`data`] — datasets, synthetic benchmark generators, CSV I/O;
//! * [`tree`] — the concrete learner (`DTrace`, full trees, Gini splits);
//! * [`domains`] — the abstract domains (intervals, `⟨T,n⟩` training-set
//!   abstraction, symbolic predicates);
//! * [`core`] — the abstract learner `DTrace#`, certification, sweeps;
//! * [`baselines`] — exact enumeration and a greedy poisoning attack.
//!
//! # Quickstart
//!
//! ```
//! use antidote::prelude::*;
//! use antidote::data::synth::{gaussian_blobs, BlobSpec};
//!
//! // Two separated classes, 100 training rows each.
//! let ds = gaussian_blobs(&BlobSpec {
//!     means: vec![vec![0.0], vec![10.0]],
//!     stds: vec![vec![1.0], vec![1.0]],
//!     per_class: 100,
//!     quantum: Some(0.1),
//! }, 7);
//!
//! // Could an attacker who contributed 16 of the 200 training rows have
//! // changed the prediction for x = 0.5? Provably not:
//! let outcome = Certifier::new(&ds)
//!     .depth(1)
//!     .domain(DomainKind::Disjuncts)
//!     .certify(&[0.5], 16);
//! assert!(outcome.is_robust());
//! ```

pub use antidote_baselines as baselines;
pub use antidote_core as core;
pub use antidote_data as data;
pub use antidote_domains as domains;
pub use antidote_tree as tree;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use antidote_baselines::attack::greedy_attack;
    pub use antidote_baselines::enumerate::{enumerate_flip_robustness, enumerate_robustness};
    pub use antidote_core::{
        certify_forest, certify_label_flips, explain, CertCache, Certifier, DomainKind, Outcome,
    };
    pub use antidote_data::{Benchmark, Dataset, Scale, Subset};
    pub use antidote_tree::{dtrace, learn_forest, learn_tree, DecisionTree, Forest};
}
