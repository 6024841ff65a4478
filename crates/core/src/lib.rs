#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Antidote's abstract learner `DTrace#` and the certification front-end.
//!
//! This crate is the paper's primary contribution: a sound abstract
//! interpretation of the trace-based decision-tree learner `DTrace`
//! (Fig. 4) over the training-set abstraction `⟨T, n⟩`, which proves
//! *n-poisoning robustness* — that no attacker who contributed up to `n`
//! training elements could change a given test input's prediction
//! (Definition 3.1, Corollary 4.12).
//!
//! Modules:
//!
//! * [`engine`] — the parallel, cancellation-aware execution engine:
//!   [`ExecContext`] owns each run's deadline, disjunct budget,
//!   cooperative cancellation flag, metrics, and thread count, and its
//!   order-preserving `par_map` fans work out on scoped threads;
//! * [`cache`](mod@cache) — the incremental certification cache:
//!   memoized reference labels and monotone verdict intervals reused
//!   across sweep rungs;
//! * [`memo`](mod@memo) — the `bestSplit#` memo one removal ladder or
//!   one session shares: recurring `⟨T, n⟩` frontier states across its
//!   points, rungs and requests reuse the stored candidate analysis
//!   (hash-consed keys; a lone certify call and the label-flip learner
//!   compute every `bestSplit#` directly);
//! * [`score`] — `score#` intervals and `bestSplit#` with the Φ∀/Φ∃
//!   trivial-split analysis and minimal-interval selection (§4.6), using
//!   symbolic real-valued predicates (§5.1, Appendix B);
//! * [`learner`] — the abstract interpretation loop with the conditional
//!   abstractions of §4.7, over three state domains: the paper's
//!   non-disjunctive *Box* (§4.3), the unbounded *Disjuncts* (§5.2), and a
//!   *Hybrid* k-limited domain (the future-work direction of §6.3);
//! * [`flip`] — the extension to **label-flip** poisoning: its own
//!   per-state step and layer pass on the learner's one frontier loop,
//!   and the removal certifier's verdict mapping;
//! * [`verdict`] — interval dominance and the robustness verdict;
//! * [`certify`] — the [`Certifier`] builder API;
//! * [`sweep`](mod@sweep) — the evaluation protocol of §6.1 (n-doubling ladder with
//!   binary-search refinement, timeouts, and resource accounting), one
//!   ladder for both threat models: [`sweep()`] proves each point with
//!   the removal certifier, [`sweep::flip_sweep`] with
//!   `certify_label_flips`;
//! * [`sched`](mod@sched) — the adaptive probe scheduler behind the
//!   sweep: verdict-interval priority ordering, one deadline/probe
//!   budget shared across the whole ladder, and interval tightening with
//!   whatever budget the ladder saved; every ladder runs under one
//!   (DESIGN.md §13);
//! * [`drift`](mod@drift) — incremental re-certification under dataset
//!   drift: ladders replayed across epoch-stamped mutations, with sound
//!   certificate transfer across pure-removal deltas at every epoch
//!   (DESIGN.md §11);
//! * [`session`](mod@session) — the certification service layer:
//!   long-lived [`Session`]s owning per-`(dataset, config)` caches that
//!   requests borrow, and the deduplicating, batching [`RequestEngine`]
//!   (DESIGN.md §12).
//!
//! # Example
//!
//! ```
//! use antidote_core::{Certifier, DomainKind};
//! use antidote_data::synth::{gaussian_blobs, BlobSpec};
//!
//! // Two separated 1-D classes, 100 training rows each. Could an attacker
//! // who contributed 16 of the 200 rows flip the prediction for x = 0.5?
//! let ds = gaussian_blobs(&BlobSpec {
//!     means: vec![vec![0.0], vec![10.0]],
//!     stds: vec![vec![1.0], vec![1.0]],
//!     per_class: 100,
//!     quantum: Some(0.1),
//! }, 7);
//! let outcome = Certifier::new(&ds)
//!     .depth(1)
//!     .domain(DomainKind::Box)
//!     .certify(&[0.5], 16);
//! assert!(outcome.is_robust()); // proven: no 16-element attack exists
//! assert_eq!(outcome.label, 0);
//! ```

pub mod cache;
pub mod certify;
pub mod drift;
pub mod engine;
pub mod ensemble;
pub mod flip;
pub mod learner;
pub mod memo;
pub mod report;
pub mod sched;
pub mod score;
pub mod session;
pub mod sweep;
pub mod verdict;

pub use cache::{CertCache, EpochMismatch};
pub use certify::{Certifier, Outcome, RunStats, Verdict};
pub use drift::{drift_sweep, drift_sweep_in, EpochReport};
pub use engine::{ExecContext, MetricsSnapshot, RunMetrics};
pub use ensemble::{certify_forest, certify_forest_in, EnsembleConfig, EnsembleOutcome};
pub use flip::certify_label_flips;
pub use learner::DomainKind;
pub use memo::{SharedLearner, SplitMemo};
pub use report::{explain, Explanation};
pub use sched::{ProbeScheduler, RungPlan};
pub use score::{best_split_abs, AbsSplitResult};
pub use session::{
    LadderRung, Request, RequestEngine, Response, Session, SessionConfig, WarmStateIndex,
};
pub use sweep::{sweep, sweep_cached, sweep_in, SweepConfig, SweepPoint};
