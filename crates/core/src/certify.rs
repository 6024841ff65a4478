//! The certification front-end: [`Certifier`] and [`Outcome`].

use crate::cache::{CertCache, EpochMismatch};
use crate::engine::{Counter, ExecContext};
use crate::learner::{run_abstract_shared, Abort, DomainKind, RunOutput};
use crate::memo::SharedLearner;
use crate::verdict::all_terminals_dominated_by;
use antidote_data::{ClassId, Dataset, Subset};
use antidote_domains::{AbstractSet, CprobTransformer};
use antidote_tree::dtrace::dtrace_label;
use std::time::{Duration, Instant};

/// The result category of one certification attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Proven: no dataset in `Δn(T)` changes the prediction (sound).
    Robust,
    /// The overapproximation was inconclusive (the paper's failure case i).
    Unknown,
    /// The deadline expired (failure case iii).
    Timeout,
    /// The disjunct budget was exhausted (failure case ii, standing in for
    /// out-of-memory).
    DisjunctBudget,
    /// The run was cooperatively cancelled through its
    /// [`ExecContext`].
    Cancelled,
}

/// Resource metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Wall-clock time of the abstract run.
    pub elapsed: Duration,
    /// Peak simultaneous disjuncts (active + terminal).
    pub peak_disjuncts: usize,
    /// Peak memory proxy in bytes (see DESIGN.md §4 for the model).
    pub peak_bytes: usize,
    /// Terminal abstract states produced.
    pub terminals: usize,
    /// Depth-loop iterations fully completed.
    pub iterations_completed: usize,
}

/// The outcome of certifying one input at one poisoning budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Verdict category.
    pub verdict: Verdict,
    /// The reference label — what `DTrace` predicts on the unpoisoned set.
    pub label: ClassId,
    /// Resource metrics.
    pub stats: RunStats,
}

impl Outcome {
    /// Whether robustness was proven.
    pub fn is_robust(&self) -> bool {
        self.verdict == Verdict::Robust
    }
}

/// Builder-style entry point for poisoning-robustness certification.
///
/// ```
/// use antidote_core::{Certifier, DomainKind};
/// use antidote_data::synth::{gaussian_blobs, BlobSpec};
///
/// // Two separated 1-D classes, 100 rows each.
/// let ds = gaussian_blobs(&BlobSpec {
///     means: vec![vec![0.0], vec![10.0]],
///     stds: vec![vec![1.0], vec![1.0]],
///     per_class: 100,
///     quantum: Some(0.1),
/// }, 7);
/// let certifier = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
/// // Provably robust even if an attacker contributed 16 of the 200 rows…
/// assert!(certifier.certify(&[0.5], 16).is_robust());
/// // …but a budget that can erase a whole class is not provable.
/// assert!(!certifier.certify(&[0.5], 200).is_robust());
/// ```
#[derive(Debug, Clone)]
pub struct Certifier<'a> {
    ds: &'a Dataset,
    depth: usize,
    domain: DomainKind,
    transformer: CprobTransformer,
    timeout: Option<Duration>,
    max_live_disjuncts: Option<usize>,
    threads: usize,
    shared: Option<&'a SharedLearner>,
}

impl<'a> Certifier<'a> {
    /// Creates a certifier for `ds` with the defaults the paper's harness
    /// uses most: depth 2, Box domain, optimal `cprob#`, no limits,
    /// sequential execution (see [`Certifier::threads`]).
    pub fn new(ds: &'a Dataset) -> Self {
        Certifier {
            ds,
            depth: 2,
            domain: DomainKind::Box,
            transformer: CprobTransformer::Optimal,
            timeout: None,
            max_live_disjuncts: None,
            threads: 1,
            shared: None,
        }
    }

    /// Sets the maximum trace depth `d` (calls to `bestSplit#`).
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Selects the abstract state domain.
    pub fn domain(mut self, domain: DomainKind) -> Self {
        self.domain = domain;
        self
    }

    /// Selects the `cprob#` transformer (default: optimal).
    pub fn transformer(mut self, transformer: CprobTransformer) -> Self {
        self.transformer = transformer;
        self
    }

    /// Sets a wall-clock timeout per certification attempt.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets a disjunct budget (the out-of-memory stand-in).
    pub fn max_live_disjuncts(mut self, max: usize) -> Self {
        self.max_live_disjuncts = Some(max);
        self
    }

    /// Borrows a ladder's or session's learner state: the abstract run
    /// probes the given [`SharedLearner`]'s `bestSplit#` memo instead of
    /// computing every `bestSplit#`, and
    /// [`reference_label`](Certifier::reference_label) traces through its
    /// concrete trace memo, so split analyses and tree nodes computed for
    /// one point or request answer every later one on the same
    /// `(dataset, config)`. Verdicts and labels are bit-identical with
    /// and without it.
    ///
    /// The shared state's epoch must match this certifier's dataset —
    /// `certify` panics otherwise (same hard stamp the memos themselves
    /// enforce).
    pub fn shared_state(mut self, shared: &'a SharedLearner) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Sets the worker count for the abstract run's disjunct frontier
    /// (0 = all available cores). The default is 1 — strictly
    /// sequential. Without a timeout or disjunct budget, parallel and
    /// sequential runs return identical verdicts; under a wall-clock
    /// timeout, instances near the deadline can tip either way as core
    /// contention shifts timings.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The dataset this certifier reasons about.
    pub fn dataset(&self) -> &Dataset {
        self.ds
    }

    /// The concrete reference label `DTrace(T, x)` (Definition 3.1's
    /// `L(T)(x)`). With [`shared_state`](Certifier::shared_state) set, the
    /// trace runs through the shared concrete trace memo, which searches
    /// each tree node's split once per ladder or session epoch; without
    /// it, every call runs plain `dtrace`. Both derive the same label.
    pub fn reference_label(&self, x: &[f64]) -> ClassId {
        match self.shared {
            Some(shared) => shared.trace_memo().dtrace(self.ds, x, self.depth).label,
            None => dtrace_label(self.ds, &Subset::full(self.ds), x, self.depth),
        }
    }

    /// The execution context `certify` would run under, with the
    /// deadline clock starting now.
    pub fn exec_context(&self) -> ExecContext {
        ExecContext::new()
            .threads(self.threads)
            .maybe_timeout(self.timeout)
            .maybe_disjunct_budget(self.max_live_disjuncts)
    }

    /// Attempts to prove that `x`'s prediction is robust to `n`-poisoning
    /// of the training set.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `x` has fewer features than the
    /// dataset (the concrete semantics is undefined there).
    pub fn certify(&self, x: &[f64], n: usize) -> Outcome {
        self.certify_in(x, n, &self.exec_context())
    }

    /// [`certify`](Certifier::certify) under a caller-provided
    /// [`ExecContext`] — the engine entry point sweeps and ensembles use
    /// to give every instance its own deadline, cancellation scope, and
    /// metrics while sharing a thread configuration.
    ///
    /// The context's deadline and disjunct budget take precedence over
    /// this certifier's `timeout`/`max_live_disjuncts` settings; when the
    /// context leaves either unset, the certifier's own limit fills in,
    /// so configured limits are never silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `x` has fewer features than the
    /// dataset (the concrete semantics is undefined there).
    pub fn certify_in(&self, x: &[f64], n: usize, ctx: &ExecContext) -> Outcome {
        ctx.metrics().record(Counter::CertifyCalls, 1);
        self.certify_inner(x, n, ctx, None)
    }

    /// [`certify_in`](Certifier::certify_in) through a cross-rung
    /// [`CertCache`] — the incremental entry point the §6.1 sweep uses.
    /// `point` indexes this input's entry in `cache`.
    ///
    /// The first probe of a point is a **miss**: the reference label is
    /// derived and memoized, and a fresh abstract run decides the
    /// verdict. Every later probe is a **hit** — either a full
    /// short-circuit (the budget is answered by the cached verdict
    /// interval; no abstract run at all) or an abstract run from `⟨T, n⟩`
    /// under the memoized label. Hit/miss/short-circuit counts land on
    /// [`ctx.metrics()`](ExecContext::metrics).
    ///
    /// Complete verdicts (`Robust`/`Unknown`) are recorded back into the
    /// cache; transient ones (`Timeout`/`DisjunctBudget`/`Cancelled`) are
    /// not. Absent per-instance timeouts, the answers are bit-identical
    /// to [`certify_in`](Certifier::certify_in) (see `cache` module docs
    /// for the argument). A cache carried across a mutation by
    /// [`CertCache::transfer`] additionally answers budgets inside the
    /// transferred `Robust` bound as short-circuits before any label is
    /// derived at the new epoch.
    ///
    /// # Errors
    ///
    /// Returns [`EpochMismatch`] — in release builds too — when `cache`
    /// is stamped for a different [`Dataset::epoch`](antidote_data::Dataset::epoch)
    /// than this certifier's dataset: cached verdicts describe the
    /// training set they were proved against, and consulting them across
    /// a mutation would silently return stale answers.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`certify_in`](Certifier::certify_in), or if `point` is out of
    /// range for `cache`.
    pub fn certify_cached(
        &self,
        x: &[f64],
        n: usize,
        point: usize,
        cache: &CertCache,
        ctx: &ExecContext,
    ) -> Result<Outcome, EpochMismatch> {
        if cache.epoch() != self.ds.epoch() {
            return Err(EpochMismatch {
                cache_epoch: cache.epoch(),
                dataset_epoch: self.ds.epoch(),
            });
        }
        cache.debug_check_key(point, x, self.depth);
        let cached = cache.cached_label(point);
        // A label derived at this epoch comes with the verdict interval;
        // before one exists, only a transferred bound can answer.
        let answer = match cached {
            Some(label) => cache.lookup(point, n).map(|verdict| (verdict, label)),
            None => cache.transferred_lookup(point, n),
        };
        if let Some((verdict, label)) = answer {
            ctx.metrics().record(Counter::CacheHits, 1);
            ctx.metrics().record(Counter::CacheShortcircuits, 1);
            return Ok(Outcome {
                verdict,
                label,
                stats: RunStats::default(),
            });
        }
        let label = match cached {
            Some(label) => {
                ctx.metrics().record(Counter::CacheHits, 1);
                label
            }
            None => {
                ctx.metrics().record(Counter::CacheMisses, 1);
                ctx.metrics().record(Counter::CertifyCalls, 1);
                cache.label(point, x, self.depth, || self.reference_label(x))
            }
        };
        let out = self.certify_inner(x, n, ctx, Some(label));
        cache.record(point, n, &out);
        Ok(out)
    }

    /// The shared certification body. `label` is the reference label
    /// when the caller already holds it (a [`CertCache`] entry's), reused
    /// verbatim; `None` derives it. The abstract run always starts from
    /// `⟨T, n⟩`.
    fn certify_inner(
        &self,
        x: &[f64],
        n: usize,
        ctx: &ExecContext,
        label: Option<ClassId>,
    ) -> Outcome {
        let filled;
        let ctx = if (ctx.deadline_at().is_none() && self.timeout.is_some())
            || (ctx.disjunct_budget_limit().is_none() && self.max_live_disjuncts.is_some())
        {
            filled = ctx
                .clone()
                .maybe_timeout(if ctx.deadline_at().is_none() {
                    self.timeout
                } else {
                    None
                })
                .maybe_disjunct_budget(if ctx.disjunct_budget_limit().is_none() {
                    self.max_live_disjuncts
                } else {
                    None
                });
            &filled
        } else {
            ctx
        };
        let start = Instant::now();
        let label = label.unwrap_or_else(|| self.reference_label(x));
        let out = run_abstract_shared(
            self.ds,
            AbstractSet::full(self.ds, n),
            x,
            self.depth,
            self.domain,
            self.transformer,
            true,
            self.shared,
            ctx,
        );
        run_outcome(out, label, start, |terminals| {
            all_terminals_dominated_by(terminals, label, self.transformer)
        })
    }
}

/// The [`Outcome`] of one learner run started at `start`, for either
/// threat model: an abort maps to its verdict (Timeout, DisjunctBudget
/// or Cancelled), and a complete run is Robust exactly when `robust`
/// holds for its terminals (Corollary 4.12), Unknown otherwise.
pub(crate) fn run_outcome<T>(
    out: RunOutput<T>,
    label: ClassId,
    start: Instant,
    robust: impl FnOnce(&[T]) -> bool,
) -> Outcome {
    let stats = RunStats {
        elapsed: start.elapsed(),
        peak_disjuncts: out.peak_disjuncts,
        peak_bytes: out.peak_bytes,
        terminals: out.terminals.len(),
        iterations_completed: out.iterations_completed,
    };
    let verdict = match out.aborted {
        Some(Abort::Timeout) => Verdict::Timeout,
        Some(Abort::DisjunctLimit) => Verdict::DisjunctBudget,
        Some(Abort::Cancelled) => Verdict::Cancelled,
        None if robust(&out.terminals) => Verdict::Robust,
        None => Verdict::Unknown,
    };
    Outcome {
        verdict,
        label,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::synth;

    /// Two well-separated 1-D Gaussian classes, 100 rows each — large
    /// enough that score intervals separate and robustness is provable at
    /// several percent poisoning (like the paper's MNIST results).
    fn blobs() -> antidote_data::Dataset {
        let spec = synth::BlobSpec {
            means: vec![vec![0.0], vec![10.0]],
            stds: vec![vec![1.0], vec![1.0]],
            per_class: 100,
            quantum: Some(0.1),
        };
        synth::gaussian_blobs(&spec, 7)
    }

    #[test]
    fn separated_blobs_prove_at_8_percent_poisoning() {
        let ds = blobs();
        for domain in [
            DomainKind::Box,
            DomainKind::Disjuncts,
            DomainKind::Hybrid { max_disjuncts: 8 },
        ] {
            let out = Certifier::new(&ds)
                .depth(1)
                .domain(domain)
                .certify(&[0.5], 16);
            assert!(
                out.is_robust(),
                "{domain:?} should prove the blob example at n=16"
            );
            assert_eq!(out.label, 0);
            assert!(out.stats.terminals >= 1);
            let out = Certifier::new(&ds)
                .depth(1)
                .domain(domain)
                .certify(&[9.5], 16);
            assert!(out.is_robust());
            assert_eq!(out.label, 1);
        }
    }

    #[test]
    fn provability_degrades_with_n() {
        let ds = blobs();
        let c = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
        assert!(c.certify(&[0.5], 8).is_robust());
        assert!(
            !c.certify(&[0.5], 200).is_robust(),
            "the whole set can be erased"
        );
    }

    #[test]
    fn figure2_is_only_provable_without_poisoning() {
        // On the 13-point running example the score intervals at n ≥ 1 are
        // loose enough that bestSplit# keeps nearly every predicate, so
        // the prover (soundly) answers Unknown — tiny training sets at
        // ≥ 8% poisoning are exactly the regime the paper's evaluation
        // avoids (its smallest benchmark has 120 training rows).
        let ds = synth::figure2();
        let c = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
        assert!(c.certify(&[5.0], 0).is_robust());
        assert!(!c.certify(&[5.0], 2).is_robust());
    }

    #[test]
    fn n_zero_is_provable_when_argmax_is_strict() {
        let ds = synth::figure2();
        let out = Certifier::new(&ds).depth(1).certify(&[5.0], 0);
        assert!(out.is_robust());
    }

    #[test]
    fn n_equal_dataset_size_is_never_provable() {
        let ds = synth::figure2();
        let out = Certifier::new(&ds)
            .depth(1)
            .domain(DomainKind::Disjuncts)
            .certify(&[5.0], 13);
        assert_eq!(out.verdict, Verdict::Unknown);
    }

    #[test]
    fn timeout_verdict() {
        let ds = synth::mnist17_like(synth::MnistVariant::Binary, 300, 1);
        let out = Certifier::new(&ds)
            .depth(3)
            .domain(DomainKind::Disjuncts)
            .timeout(Duration::ZERO)
            .certify(&ds.row_values(0), 16);
        assert_eq!(out.verdict, Verdict::Timeout);
        assert!(!out.is_robust());
    }

    #[test]
    fn disjunct_budget_verdict() {
        let ds = synth::iris_like(1);
        let out = Certifier::new(&ds)
            .depth(4)
            .domain(DomainKind::Disjuncts)
            .max_live_disjuncts(2)
            .certify(&ds.row_values(0), 8);
        assert_eq!(out.verdict, Verdict::DisjunctBudget);
    }

    #[test]
    fn robustness_is_antitone_in_n_along_the_ladder() {
        // Soundness sanity: if the prover certifies at n, the concrete
        // property holds at all smaller budgets; our prover also succeeds
        // there on this family, where precision loss only grows with n.
        let ds = blobs();
        let c = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
        let max_proven = (0..=32)
            .filter(|&n| c.certify(&[0.5], n).is_robust())
            .max()
            .expect("n = 0 always proves here");
        assert!(max_proven >= 8);
        for n in 0..=max_proven {
            assert!(c.certify(&[0.5], n).is_robust(), "gap in the ladder at {n}");
        }
    }

    #[test]
    fn single_row_dataset_edge_case() {
        // A one-row training set is pure; with n = 0 every domain proves
        // trivially, with n = 1 the corner case [0,1] blocks dominance.
        let ds =
            antidote_data::Dataset::from_rows(antidote_data::Schema::real(1, 2), &[(vec![3.0], 1)])
                .unwrap();
        for domain in [DomainKind::Box, DomainKind::Disjuncts] {
            let c = Certifier::new(&ds).depth(2).domain(domain);
            let ok = c.certify(&[3.0], 0);
            assert!(ok.is_robust());
            assert_eq!(ok.label, 1);
            assert!(!c.certify(&[3.0], 1).is_robust());
        }
    }

    #[test]
    fn depth_zero_certifies_by_majority_margin() {
        // With no splits at all, robustness is exactly count-dominance of
        // the majority class: 7 white vs 6 black survives n = 0 but not
        // n = 1 (optimal bounds: (7−1)/12 = 0.5 vs 6/12 = 0.5, a tie).
        let ds = synth::figure2();
        let c = Certifier::new(&ds).depth(0);
        assert!(c.certify(&[5.0], 0).is_robust());
        assert!(!c.certify(&[5.0], 1).is_robust());
    }

    #[test]
    fn cached_certification_matches_fresh_and_counts_probes() {
        let ds = blobs();
        let c = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
        let cache = crate::CertCache::new(1);
        let ctx = ExecContext::sequential();
        // Ladder-order probes: each verdict and label must equal a fresh run.
        for n in [1usize, 2, 4, 8, 16, 32, 200] {
            let cached = c.certify_cached(&[0.5], n, 0, &cache, &ctx).unwrap();
            let fresh = c.certify(&[0.5], n);
            assert_eq!(cached.verdict, fresh.verdict, "n = {n}");
            assert_eq!(cached.label, fresh.label);
        }
        // One full derivation; every later ladder budget reuses the
        // memoized label (in an abstract run or a monotone short-circuit).
        assert_eq!(ctx.metrics().certify_calls(), 1);
        assert_eq!(ctx.metrics().cache_misses(), 1);
        assert_eq!(ctx.metrics().cache_hits(), 6);
        // Re-probing and monotone-implied budgets are certifier-free.
        let before = ctx.metrics().cache_shortcircuits();
        let probe = |n: usize| c.certify_cached(&[0.5], n, 0, &cache, &ctx).unwrap();
        assert!(probe(8).is_robust());
        assert!(probe(3).is_robust());
        assert!(!probe(250).is_robust());
        assert_eq!(ctx.metrics().cache_shortcircuits(), before + 3);
        assert_eq!(ctx.metrics().certify_calls(), 1, "still one derivation");
    }

    #[test]
    fn cached_transient_verdicts_are_recomputed() {
        let ds = synth::mnist17_like(synth::MnistVariant::Binary, 300, 1);
        let c = Certifier::new(&ds).depth(3).domain(DomainKind::Disjuncts);
        let cache = crate::CertCache::new(1);
        // A timed-out probe must not poison the cache…
        let ctx = ExecContext::sequential().timeout(Duration::ZERO);
        let out = c
            .certify_cached(&ds.row_values(0), 16, 0, &cache, &ctx)
            .unwrap();
        assert_eq!(out.verdict, Verdict::Timeout);
        // …so an unlimited re-probe runs the certifier for real.
        let ctx = ExecContext::sequential();
        let out = c
            .certify_cached(&ds.row_values(0), 0, 0, &cache, &ctx)
            .unwrap();
        assert_eq!(out.verdict, c.certify(&ds.row_values(0), 0).verdict);
    }

    #[test]
    fn epoch_mismatch_is_a_hard_error_in_every_build() {
        // The headline bugfix: before epochs, a cache built against the
        // old dataset silently answered for the mutated one in release
        // builds. This test runs with debug assertions off in CI's
        // release suite, so the guard cannot regress into a debug_assert.
        let ds = synth::figure2();
        let cache = crate::CertCache::for_dataset(&ds, 1);
        let ctx = ExecContext::sequential();
        let c = Certifier::new(&ds).depth(1);
        assert!(c.certify_cached(&[5.0], 1, 0, &cache, &ctx).is_ok());
        let mutated = ds
            .apply(antidote_data::DatasetDelta::new().remove(0))
            .unwrap();
        let c2 = Certifier::new(&mutated).depth(1);
        let err = c2.certify_cached(&[5.0], 1, 0, &cache, &ctx).unwrap_err();
        assert_eq!(
            err,
            EpochMismatch {
                cache_epoch: 0,
                dataset_epoch: 1
            }
        );
        // The fresh-keyed cache works, and the stale one still answers
        // for its own epoch.
        let fresh = crate::CertCache::for_dataset(&mutated, 1);
        assert!(c2.certify_cached(&[5.0], 1, 0, &fresh, &ctx).is_ok());
        assert!(c.certify_cached(&[5.0], 1, 0, &cache, &ctx).is_ok());
    }

    #[test]
    fn transferred_bound_short_circuits_before_any_trace_exists() {
        let ds = blobs();
        let c = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
        let cache = crate::CertCache::for_dataset(&ds, 1);
        let ctx = ExecContext::sequential();
        let out = c.certify_cached(&[0.5], 16, 0, &cache, &ctx).unwrap();
        assert!(out.is_robust());
        // Remove 3 rows; the Robust(16) certificate transfers as Robust(13).
        let mut delta = antidote_data::DatasetDelta::new();
        for r in [0, 1, 2] {
            delta.remove(r);
        }
        let (mutated, summary) = ds.apply_summarized(&delta).unwrap();
        let moved = cache.transfer(&[summary], &mutated, ctx.metrics());
        assert_eq!(ctx.metrics().cache_transfers(), 1);
        let c2 = Certifier::new(&mutated)
            .depth(1)
            .domain(DomainKind::Disjuncts);
        let calls = ctx.metrics().certify_calls();
        let out = c2.certify_cached(&[0.5], 13, 0, &moved, &ctx).unwrap();
        assert!(out.is_robust(), "answered from the transferred bound");
        assert_eq!(out.label, c2.reference_label(&[0.5]));
        assert_eq!(ctx.metrics().certify_calls(), calls, "no abstract run");
        // Outside the bound the prover runs fresh against the new epoch.
        let out = c2.certify_cached(&[0.5], 14, 0, &moved, &ctx).unwrap();
        assert_eq!(out.verdict, c2.certify(&[0.5], 14).verdict);
        assert_eq!(ctx.metrics().certify_calls(), calls + 1);
    }

    #[test]
    fn builder_accessors() {
        let ds = synth::figure2();
        let c = Certifier::new(&ds).depth(3);
        assert_eq!(c.dataset().len(), 13);
        assert_eq!(c.reference_label(&[5.0]), 0);
        assert_eq!(c.reference_label(&[18.0]), 1);
    }
}
