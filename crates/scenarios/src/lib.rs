#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Named workload scenario families for the Antidote benchmark matrix.
//!
//! The paper's evaluation spans a handful of fixed datasets; the ROADMAP
//! asks for "as many scenarios as you can imagine". This crate is the
//! registry that answers: each [`Scenario`] names a *family* of
//! deterministic synthetic workloads (generated from a seed via
//! `antidote_data::synth`), sized so the full matrix — every scenario ×
//! every [`ThreatModel`] × every certification domain — completes in CI,
//! and every future performance PR can be held to the same grid.
//!
//! * [`registry`] — the [`Scenario`] descriptor and the order-invariant
//!   [`ScenarioRegistry`] ([`builtin_registry`] ships the six stock
//!   families: Gaussian clusters, two-moons, class-imbalanced, wide
//!   high-dimensional, near-duplicate rows, categorical one-hot);
//! * [`flip_sweep`](mod@flip_sweep) — the §6.1 n-doubling ladder under
//!   the **label-flip** threat model (`antidote_core::sweep` covers the
//!   removal model);
//! * [`drift`] — seeded, deterministic [`MutationScript`]s of
//!   `DatasetDelta`s for the drift scenario family, replayed epoch by
//!   epoch by `antidote_core::drift` (CLI front-end: `antidote drift`).
//!
//! The matrix runner that shards the grid lives in `antidote-bench`
//! (`matrix` module); the CLI front-end is `antidote matrix`.
//!
//! # Example
//!
//! ```
//! use antidote_scenarios::builtin_registry;
//!
//! let reg = builtin_registry();
//! assert!(reg.len() >= 6);
//! let (train, xs) = reg.get("blobs").unwrap().workload(0);
//! assert!(train.len() > 0 && !xs.is_empty());
//! ```

pub mod drift;
pub mod flip_sweep;
pub mod registry;

pub use drift::{MutationKind, MutationScript};
pub use flip_sweep::flip_sweep;
pub use registry::{builtin_registry, builtin_scenarios, Scenario, ScenarioRegistry, ThreatModel};
