#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Dataset substrate for the Antidote poisoning-robustness prover.
//!
//! This crate provides everything the learner and the abstract interpreter
//! need to talk about training data:
//!
//! * [`Dataset`] — an immutable, columnar labelled dataset ([`Column::Bool`]
//!   or [`Column::Real`] features, integer class labels described by a
//!   [`Schema`]);
//! * [`Subset`] — a cheap word-packed row-bitset view into a dataset with
//!   cached per-class counts and word-parallel set algebra. Both the
//!   concrete learner `DTrace` and the abstract training sets `⟨T,n⟩` are
//!   built on `Subset`;
//! * [`synth`] — deterministic synthetic generators for the five benchmark
//!   datasets of the paper's evaluation (§6.1, Table 1), plus the paper's
//!   Figure 2 running example and generic blob generators;
//! * [`csv`] — a small hand-rolled CSV loader/writer so real UCI/MNIST data
//!   can be substituted in when available;
//! * [`split`] — train/test splitting utilities;
//! * [`simd`] — the chunked (4×`u64`) word kernels the subset algebra
//!   dispatches through under the default-on `simd` cargo feature, with a
//!   bit-identical scalar form for builds without it;
//! * [`registry`] — the service-mode [`DatasetRegistry`]: handles →
//!   epoch-stamped `Arc<Dataset>`s with indexes warmed at load time and
//!   atomic delta application.
//!
//! # Example
//!
//! ```
//! use antidote_data::{synth, Subset};
//!
//! let ds = synth::figure2();
//! assert_eq!(ds.len(), 13);
//! let all = Subset::full(&ds);
//! // 7 white points (class 0) and 6 black points (class 1).
//! assert_eq!(all.class_counts(), &[7, 6]);
//! ```

pub mod benchmark;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod registry;
pub mod simd;
pub mod split;
pub mod stats;
pub mod subset;
pub mod synth;

pub use benchmark::{Benchmark, Scale};
pub use dataset::{
    Column, Dataset, DatasetBuilder, DatasetDelta, DeltaSummary, FeatureKind, Schema,
};
pub use error::DataError;
pub use registry::DatasetRegistry;
pub use split::train_test_split;
pub use stats::DatasetStats;
pub use subset::{Subset, ThresholdCmp};

/// Row index into a [`Dataset`]. `u32` keeps index vectors compact; datasets
/// above `u32::MAX` rows are rejected at construction time.
pub type RowId = u32;

/// Class label. Classes are dense integers `0..n_classes`.
pub type ClassId = u16;
