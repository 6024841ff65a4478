//! Incremental certification cache for the §6.1 sweep (DESIGN.md §6).
//!
//! The n-doubling ladder probes the *same* test point at many poisoning
//! budgets, and between two rungs almost everything is unchanged: the
//! training set, the point's concrete decision trace (budget-independent),
//! and the base sets the abstract run is seeded from. [`CertCache`] keeps
//! one entry per test point and lets the sweep reuse three kinds of state
//! across rungs:
//!
//! 1. **Trace memoization** — the concrete `DTrace` run (reference label,
//!    steps, per-node fragments) is derived once per point and resumed at
//!    every later rung; the abstract run re-seeds from the cached root via
//!    [`AbstractSet::with_budget`] instead of re-deriving it. These probes
//!    are *incremental*: only the budget-dependent abstract interpretation
//!    is executed.
//! 2. **Verdict intervals** — DrewsAD20's robustness property is monotone
//!    in `n` (robust at `n` implies robust at every `n' ≤ n`; a concrete
//!    counterexample at `n` disproves robustness at every `n' ≥ n`). The
//!    cache records `[max_robust, min_unknown]` per point and answers
//!    monotone-implied budgets without invoking the certifier at all.
//! 3. **Counterexample witnesses** — a validated removal set whose
//!    deletion flips the concrete prediction refutes robustness at every
//!    budget ≥ its size. Witness short-circuits are sound by construction
//!    (the soundness theorem forbids the prover from certifying a budget
//!    with a concrete counterexample), so they can never diverge from a
//!    fresh run's `verified` counts.
//!
//! Why cached ladders stay bit-identical to fresh ones: the memoized
//! trace is a deterministic function reused verbatim (identical label),
//! the budget-widened seed equals the fresh initial state
//! (`⟨T, 0⟩.with_budget(n) = ⟨T, n⟩`), witness short-circuits are sound as
//! above, and interval short-circuits return exactly what a complete
//! fresh run returns whenever the prover is monotone in `n` (property-
//! tested in `crates/core/tests/monotonicity.rs`; within a single sweep
//! the ladder only probes strictly inside each point's open verdict gap,
//! so interval hits cannot fire there at all).
//!
//! The caveat is per-instance *resource limits*: a short-circuit answers
//! `Unknown` where a fresh probe would report `Timeout` or
//! `DisjunctBudget`. The sweep therefore only arms witness
//! short-circuits when no limit is configured — under a disjunct budget
//! the cached ladder still runs every abstract interpretation (just
//! incrementally) and stays bit-identical; under a wall-clock timeout
//! the same timing caveat as the engine's thread-invariance contract
//! applies (a faster cached probe can finish where a fresh one times
//! out). Direct users of `Certifier::certify_cached` get short-circuits
//! unconditionally: the answers are always *sound*, they just bypass
//! resource accounting.
//!
//! **Epoch stamping (DESIGN.md §11).** Every cache is stamped with the
//! [`Dataset::epoch`] it answers for, and `certify_cached` returns a hard
//! [`EpochMismatch`] error — in release builds too — when the stamps
//! disagree. A mutated dataset therefore can never silently read another
//! epoch's verdicts. When the dataset *does* drift, [`CertCache::transfer`]
//! carries what remains sound across the mutation: for a pure-removal
//! delta `R`, a point certified `Robust(m)` at epoch `e` transfers to
//! epoch `e+1` as `Robust(m − |R|)` (the removals already spent part of
//! the budget). Everything else — traces, witnesses, `min_unknown`, exact
//! memos, and any certificate crossing an append or label flip — is
//! invalidated and re-proved fresh.

use crate::certify::{Outcome, Verdict};
use crate::engine::{Counter, RunMetrics};
use antidote_data::{ClassId, Dataset, DeltaSummary, RowId, Subset};
use antidote_domains::AbstractSet;
use antidote_tree::dtrace::{dtrace_label, dtrace_recorded, TraceStep};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The memoized, budget-independent part of certifying one test point:
/// the concrete `DTrace` run and the abstract seeds derived from it.
#[derive(Debug, Clone)]
pub struct CachedTrace {
    /// The concrete reference label `DTrace(T, x)`.
    pub label: ClassId,
    /// The concrete trace steps (predicate + polarity).
    pub steps: Vec<TraceStep>,
    /// `⟨T, 0⟩` over the full training set; rung `n` re-seeds the abstract
    /// run as `root.with_budget(n)` (bit-identical to `AbstractSet::full`).
    pub root: AbstractSet,
    /// `⟨fragment_i, 0⟩` after each trace step — the per-node seeds the
    /// witness search (and future deeper resumes) draw candidates from.
    pub step_seeds: Vec<AbstractSet>,
}

/// Per-point cached certification state.
#[derive(Debug, Default)]
struct PointEntry {
    trace: Option<Arc<CachedTrace>>,
    /// The `(x, depth)` this entry was first derived for — cached state
    /// is only valid for that pair, and reusing a key for a different
    /// input would return unsound verdicts (checked in debug builds).
    key: Option<(Vec<f64>, usize)>,
    /// Largest budget with a complete `Robust` verdict.
    max_robust: Option<usize>,
    /// Smallest budget with a complete non-robust (`Unknown`) verdict.
    min_unknown: Option<usize>,
    /// Smallest validated concrete counterexample (removal row set).
    witness: Option<Vec<RowId>>,
    /// Whether the heuristic witness search already ran for this point.
    witness_attempted: bool,
    /// Exact memo of complete verdicts per probed budget.
    verdicts: BTreeMap<usize, Verdict>,
    /// Reference label carried by [`CertCache::transfer`] — set only on
    /// entries whose `max_robust` is a transferred (not freshly proved)
    /// bound, before any trace is derived at the new epoch.
    transferred_label: Option<ClassId>,
}

impl PointEntry {
    /// Whether the entry carries any cached state at all.
    fn has_state(&self) -> bool {
        self.trace.is_some()
            || self.max_robust.is_some()
            || self.min_unknown.is_some()
            || self.witness.is_some()
            || self.witness_attempted
            || !self.verdicts.is_empty()
            || self.transferred_label.is_some()
    }
}

/// A certificate cache stamped for one dataset epoch was consulted
/// against a dataset at a different epoch.
///
/// This is the hard (release-mode) replacement for the old debug-only
/// key assertion: reusing cached verdicts across a mutation is unsound,
/// so the mismatch is an error, never a silent stale answer. Re-key with
/// [`CertCache::for_dataset`], or carry sound state across the mutation
/// with [`CertCache::transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMismatch {
    /// The epoch the cache was stamped for.
    pub cache_epoch: u64,
    /// The epoch of the dataset it was consulted against.
    pub dataset_epoch: u64,
}

impl fmt::Display for EpochMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate cache stamped for dataset epoch {} used against epoch {} — \
             re-key with CertCache::for_dataset or carry sound state across the \
             mutation with CertCache::transfer",
            self.cache_epoch, self.dataset_epoch
        )
    }
}

impl std::error::Error for EpochMismatch {}

/// Cross-rung certificate cache: one `PointEntry` per test point.
///
/// Entries are independently locked, so the sweep's per-probe fan-out
/// (each point appears at most once per probe) never contends.
///
/// ```
/// use antidote_core::{CertCache, Certifier, DomainKind, ExecContext};
/// use antidote_data::synth::{gaussian_blobs, BlobSpec};
///
/// let ds = gaussian_blobs(&BlobSpec {
///     means: vec![vec![0.0], vec![10.0]],
///     stds: vec![vec![1.0], vec![1.0]],
///     per_class: 100,
///     quantum: Some(0.1),
/// }, 7);
/// let certifier = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
/// let cache = CertCache::for_dataset(&ds, 1);
/// let ctx = ExecContext::sequential();
/// // First probe is a miss (full derivation)…
/// let out = certifier.certify_cached(&[0.5], 16, 0, &cache, &ctx).unwrap();
/// assert!(out.is_robust());
/// // …a smaller budget is monotone-implied and certifier-free.
/// let out = certifier.certify_cached(&[0.5], 3, 0, &cache, &ctx).unwrap();
/// assert!(out.is_robust());
/// assert_eq!(ctx.metrics().cache_shortcircuits(), 1);
/// ```
#[derive(Debug)]
pub struct CertCache {
    points: Vec<Mutex<PointEntry>>,
    /// The [`Dataset::epoch`] this cache's state is valid for.
    epoch: u64,
}

impl CertCache {
    /// A cache for `n_points` test points, all entries empty, stamped for
    /// epoch 0. Only valid against a never-mutated dataset — prefer
    /// [`CertCache::for_dataset`], which reads the stamp off the dataset.
    pub fn new(n_points: usize) -> Self {
        CertCache::with_epoch(0, n_points)
    }

    /// An empty cache stamped for `ds`'s current epoch.
    pub fn for_dataset(ds: &Dataset, n_points: usize) -> Self {
        CertCache::with_epoch(ds.epoch(), n_points)
    }

    /// An empty cache stamped for an explicit epoch.
    pub fn with_epoch(epoch: u64, n_points: usize) -> Self {
        CertCache {
            points: (0..n_points).map(|_| Mutex::default()).collect(),
            epoch,
        }
    }

    /// The dataset epoch this cache answers for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of test points this cache covers.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the cache covers no points at all.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Approximate heap footprint of the cached state, in bytes — the
    /// measure the service's byte-budget eviction watermark sums. Traces
    /// and abstract seeds dominate; small per-entry scalars are counted
    /// at struct size.
    pub fn approx_bytes(&self) -> usize {
        self.points
            .iter()
            .map(|p| {
                let e = p.lock().expect("cache entry lock poisoned");
                let mut bytes = std::mem::size_of::<PointEntry>();
                if let Some(trace) = &e.trace {
                    bytes += trace.root.approx_bytes()
                        + trace
                            .step_seeds
                            .iter()
                            .map(AbstractSet::approx_bytes)
                            .sum::<usize>()
                        + trace.steps.len() * std::mem::size_of::<TraceStep>();
                }
                if let Some((x, _)) = &e.key {
                    bytes += x.len() * std::mem::size_of::<f64>();
                }
                if let Some(w) = &e.witness {
                    bytes += w.len() * std::mem::size_of::<RowId>();
                }
                bytes += e.verdicts.len() * std::mem::size_of::<(usize, Verdict)>();
                bytes
            })
            .sum()
    }

    /// Grows the cache to cover at least `n_points` slots (new slots
    /// empty, existing entries untouched). A one-shot sweep sizes its
    /// cache up front, but a session serving an open-ended request
    /// stream discovers new test points over time and grows its cache
    /// under the session's write lock.
    pub fn ensure_slots(&mut self, n_points: usize) {
        while self.points.len() < n_points {
            self.points.push(Mutex::default());
        }
    }

    fn entry(&self, point: usize) -> std::sync::MutexGuard<'_, PointEntry> {
        self.points[point]
            .lock()
            .expect("cache entry lock poisoned")
    }

    /// The memoized trace for `point`, deriving it on first use.
    ///
    /// In debug builds, panics when `point` was previously used with a
    /// different `(x, depth)` — cached verdicts are only sound for the
    /// input they were derived from.
    pub fn trace(&self, point: usize, ds: &Dataset, x: &[f64], depth: usize) -> Arc<CachedTrace> {
        let mut e = self.entry(point);
        debug_assert!(
            e.key
                .as_ref()
                .is_none_or(|(kx, kd)| kx == x && *kd == depth),
            "cache point {point} keyed for {:?} reused with ({x:?}, {depth})",
            e.key,
        );
        if let Some(t) = &e.trace {
            return t.clone();
        }
        e.key = Some((x.to_vec(), depth));
        let rec = dtrace_recorded(ds, &Subset::full(ds), x, depth);
        let t = Arc::new(CachedTrace {
            label: rec.result.label,
            steps: rec.result.steps,
            root: AbstractSet::full(ds, 0),
            step_seeds: rec
                .step_sets
                .into_iter()
                .map(|s| AbstractSet::new(s, 0))
                .collect(),
        });
        e.trace = Some(t.clone());
        t
    }

    /// Debug-builds-only consistency check: asserts `point` is keyed by
    /// this `(x, depth)` (no-op for an empty entry or in release builds).
    pub fn debug_check_key(&self, point: usize, x: &[f64], depth: usize) {
        let _ = (x, depth);
        debug_assert!(
            self.entry(point)
                .key
                .as_ref()
                .is_none_or(|(kx, kd)| kx == x && *kd == depth),
            "cache point {point} reused with a different (x, depth)",
        );
    }

    /// The memoized trace for `point`, if one was derived already.
    pub fn cached_trace(&self, point: usize) -> Option<Arc<CachedTrace>> {
        self.entry(point).trace.clone()
    }

    /// Answers budget `n` from cached state, if implied: an exact memo
    /// hit, a monotone-implied `Robust` (`n ≤ max_robust`), a
    /// monotone-implied `Unknown` (`n ≥ min_unknown`), or a witness-
    /// implied `Unknown` (`n ≥ |witness|`).
    pub fn lookup(&self, point: usize, n: usize) -> Option<Verdict> {
        let e = self.entry(point);
        if let Some(&v) = e.verdicts.get(&n) {
            return Some(v);
        }
        if e.max_robust.is_some_and(|r| n <= r) {
            return Some(Verdict::Robust);
        }
        if e.min_unknown.is_some_and(|u| n >= u) {
            return Some(Verdict::Unknown);
        }
        if e.witness.as_ref().is_some_and(|w| n >= w.len()) {
            return Some(Verdict::Unknown);
        }
        None
    }

    /// Answers budget `n` from a *transferred* `Robust` bound, before any
    /// trace exists at this epoch: returns the verdict together with the
    /// carried reference label (sound for the new dataset because the
    /// transfer rule itself guarantees the label survives the removal —
    /// see [`CertCache::transfer`]).
    pub fn transferred_lookup(&self, point: usize, n: usize) -> Option<(Verdict, ClassId)> {
        let e = self.entry(point);
        let label = e.transferred_label?;
        e.max_robust
            .is_some_and(|r| n <= r)
            .then_some((Verdict::Robust, label))
    }

    /// Carries this cache's sound certificates across one dataset
    /// mutation, returning a fresh cache stamped for `new_ds`'s epoch.
    ///
    /// The transfer rule (pinned against the brute-force oracle in
    /// `tests/soundness.rs`, soundness argument in DESIGN.md §11): for a
    /// **pure-removal** delta `R`, `Robust(m)` at epoch `e` with `m ≥ |R|`
    /// becomes `Robust(m − |R|)` at epoch `e+1` — any `(m − |R|)`-removal
    /// of `L ∖ R` is an at-most-`m`-removal of `L`, and `L ∖ R` itself is
    /// within the old budget, so the reference label is preserved too.
    /// Deltas that append or flip labels transfer nothing (an appended or
    /// relabelled row can change verdicts in either direction), and no
    /// other state is carried: traces, witnesses, `min_unknown`, and
    /// exact memos all describe the old training set.
    ///
    /// Each carried point counts one `cache_transfers`; each point whose
    /// state is dropped counts one `cache_invalidations`.
    ///
    /// # Panics
    ///
    /// Panics when `new_ds` is not exactly one epoch ahead of the cache —
    /// transfers are per-mutation, chained delta by delta.
    pub fn transfer(
        &self,
        summary: &DeltaSummary,
        new_ds: &Dataset,
        metrics: &RunMetrics,
    ) -> CertCache {
        assert_eq!(
            new_ds.epoch(),
            self.epoch + 1,
            "CertCache::transfer crosses exactly one mutation: cache at epoch {}, dataset at {}",
            self.epoch,
            new_ds.epoch(),
        );
        self.transfer_impl(
            summary.pure_removal(),
            summary.removed.len(),
            new_ds,
            metrics,
        )
    }

    /// [`CertCache::transfer`] across a *chain* of consecutive epochs in
    /// one pass: `summaries[i]` describes the mutation into epoch
    /// `self.epoch + i + 1`, and the result is stamped for the final
    /// epoch.
    ///
    /// For an all-pure-removal chain this is equivalent to chaining
    /// per-epoch transfers (the batched-vs-chained oracle test pins it):
    /// a bound `m` survives `k` chained transfers iff `m ≥ Σ|Rᵢ|` —
    /// partial sums of non-negative counts never exceed the total, so a
    /// point that clears the combined shrink clears every intermediate
    /// one — and lands at `m − Σ|Rᵢ|` either way. If *any* epoch in the
    /// chain appends or flips, nothing can be carried across it, hence
    /// nothing across the chain (exactly what chaining produces: the
    /// impure epoch invalidates everything and later pure epochs find
    /// only empty entries). The batched pass folds the summaries
    /// ([`DeltaSummary::fold`]) and shrinks **once**, so a carried point
    /// costs one `cache_transfers` instead of `k` and the entries are
    /// copied once instead of `k` times.
    ///
    /// # Panics
    ///
    /// Panics when `summaries` is empty or `new_ds` is not exactly
    /// `summaries.len()` epochs ahead of the cache.
    pub fn transfer_batched(
        &self,
        summaries: &[DeltaSummary],
        new_ds: &Dataset,
        metrics: &RunMetrics,
    ) -> CertCache {
        assert!(
            !summaries.is_empty(),
            "CertCache::transfer_batched needs at least one epoch"
        );
        assert_eq!(
            new_ds.epoch(),
            self.epoch + summaries.len() as u64,
            "CertCache::transfer_batched crosses exactly one epoch per summary: \
             cache at epoch {}, {} summaries, dataset at {}",
            self.epoch,
            summaries.len(),
            new_ds.epoch(),
        );
        let folded = DeltaSummary::fold(summaries);
        self.transfer_impl(folded.pure_removal(), folded.removed.len(), new_ds, metrics)
    }

    /// Shared body of [`CertCache::transfer`] and
    /// [`CertCache::transfer_batched`]: carry every `Robust(m)` bound with
    /// `m ≥ shrink` (label preserved) when the whole span is pure
    /// removal, drop everything else.
    fn transfer_impl(
        &self,
        pure_removal: bool,
        shrink: usize,
        new_ds: &Dataset,
        metrics: &RunMetrics,
    ) -> CertCache {
        let fresh = CertCache::with_epoch(new_ds.epoch(), self.points.len());
        for (point, slot) in self.points.iter().enumerate() {
            let e = slot.lock().expect("cache entry lock poisoned");
            let label = e.trace.as_ref().map(|t| t.label).or(e.transferred_label);
            let carried = match (pure_removal, label, e.max_robust) {
                (true, Some(label), Some(m)) if m >= shrink => Some((label, m - shrink)),
                _ => None,
            };
            match carried {
                Some((label, bound)) => {
                    let mut ne = fresh.entry(point);
                    ne.transferred_label = Some(label);
                    ne.max_robust = Some(bound);
                    metrics.record(Counter::CacheTransfers, 1);
                }
                None => {
                    if e.has_state() {
                        metrics.record(Counter::CacheInvalidations, 1);
                    }
                }
            }
        }
        fresh
    }

    /// Records a probe's outcome. Only *complete* verdicts are cached —
    /// `Timeout` / `DisjunctBudget` / `Cancelled` are transient resource
    /// failures that say nothing monotone about other budgets.
    pub fn record(&self, point: usize, n: usize, out: &Outcome) {
        let mut e = self.entry(point);
        match out.verdict {
            Verdict::Robust => {
                debug_assert!(
                    e.witness.as_ref().is_none_or(|w| w.len() > n),
                    "a witness of size ≤ {n} contradicts a Robust verdict at {n}"
                );
                e.max_robust = Some(e.max_robust.map_or(n, |r| r.max(n)));
                e.verdicts.insert(n, Verdict::Robust);
            }
            Verdict::Unknown => {
                e.min_unknown = Some(e.min_unknown.map_or(n, |u| u.min(n)));
                e.verdicts.insert(n, Verdict::Unknown);
            }
            Verdict::Timeout | Verdict::DisjunctBudget | Verdict::Cancelled => {}
        }
    }

    /// `(max_robust, min_unknown)` — the point's verdict interval.
    pub fn verdict_interval(&self, point: usize) -> (Option<usize>, Option<usize>) {
        let e = self.entry(point);
        (e.max_robust, e.min_unknown)
    }

    /// The smallest known counterexample witness for `point`, if any.
    pub fn witness(&self, point: usize) -> Option<Vec<RowId>> {
        self.entry(point).witness.clone()
    }

    /// Validates `rows` as a concrete counterexample for `point` —
    /// retrains on `T ∖ rows` and checks the prediction flips — and
    /// records it when valid and smaller than the current witness.
    /// Returns whether the witness was accepted.
    pub fn record_witness(
        &self,
        point: usize,
        ds: &Dataset,
        x: &[f64],
        depth: usize,
        rows: &[RowId],
    ) -> bool {
        let label = self.trace(point, ds, x, depth).label;
        if !removal_flips(ds, x, depth, label, rows) {
            return false;
        }
        let mut e = self.entry(point);
        debug_assert!(
            e.max_robust.is_none_or(|r| r < rows.len()),
            "a Robust verdict at ≥ {} contradicts this witness",
            rows.len()
        );
        if e.witness.as_ref().is_none_or(|w| rows.len() < w.len()) {
            e.witness = Some(rows.to_vec());
        }
        true
    }

    /// Runs the heuristic witness search for `point` at `budget`, at most
    /// once per point per cache. Candidates are drawn from the memoized
    /// trace's per-node fragments; any hit is validated concretely before
    /// being recorded, so a `true` return is always sound.
    pub fn try_find_witness(
        &self,
        point: usize,
        ds: &Dataset,
        x: &[f64],
        depth: usize,
        budget: usize,
    ) -> bool {
        let trace = self.trace(point, ds, x, depth);
        {
            let mut e = self.entry(point);
            if e.witness_attempted {
                return e.witness.is_some();
            }
            e.witness_attempted = true;
        }
        match find_removal_witness(ds, x, depth, budget, &trace) {
            Some(w) => self.record_witness(point, ds, x, depth, &w),
            None => false,
        }
    }
}

/// Whether removing `rows` from the full training set flips the concrete
/// prediction away from `label`. Removing everything is not a flip — the
/// concrete semantics is undefined on an empty training set.
fn removal_flips(ds: &Dataset, x: &[f64], depth: usize, label: ClassId, rows: &[RowId]) -> bool {
    if rows.is_empty() || rows.len() >= ds.len() {
        return false;
    }
    let keep: Vec<RowId> = ds.rows().filter(|r| !rows.contains(r)).collect();
    if keep.len() + rows.len() != ds.len() {
        return false; // `rows` had duplicates or out-of-range ids
    }
    let poisoned = Subset::from_indices(ds, keep);
    dtrace_label(ds, &poisoned, x, depth) != label
}

/// Heuristic counterexample search: for each fragment along the cached
/// trace (final first — smallest and most decisive), try removing up to
/// `budget` rows of the reference-label class, validate by retraining,
/// and shrink a flipping set to a short validated prefix. Every returned
/// witness has been checked concretely; `None` just means the heuristic
/// found nothing within `budget`.
fn find_removal_witness(
    ds: &Dataset,
    x: &[f64],
    depth: usize,
    budget: usize,
    trace: &CachedTrace,
) -> Option<Vec<RowId>> {
    if budget == 0 {
        return None;
    }
    let fragments = trace
        .step_seeds
        .iter()
        .rev()
        .map(AbstractSet::base)
        .chain(std::iter::once(trace.root.base()));
    for frag in fragments {
        let candidate: Vec<RowId> = frag
            .iter()
            .filter(|&r| ds.label(r) == trace.label)
            .take(budget)
            .collect();
        if !removal_flips(ds, x, depth, trace.label, &candidate) {
            continue;
        }
        // Shrink to the shortest validated flipping prefix (binary search;
        // every probe is a concrete retrain, so the result is sound even
        // if flipping is not monotone in the prefix length).
        let (mut lo, mut hi) = (1usize, candidate.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if removal_flips(ds, x, depth, trace.label, &candidate[..mid]) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        return Some(candidate[..hi].to_vec());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::RunStats;
    use antidote_data::{synth, DatasetDelta};

    fn outcome(verdict: Verdict, label: ClassId) -> Outcome {
        Outcome {
            verdict,
            label,
            stats: RunStats::default(),
        }
    }

    #[test]
    fn trace_is_memoized_and_matches_dtrace() {
        let ds = synth::figure2();
        let cache = CertCache::new(2);
        assert!(cache.cached_trace(0).is_none());
        let t = cache.trace(0, &ds, &[5.0], 1);
        let again = cache.trace(0, &ds, &[5.0], 1);
        assert!(Arc::ptr_eq(&t, &again), "second call reuses the Arc");
        let plain = antidote_tree::dtrace(&ds, &Subset::full(&ds), &[5.0], 1);
        assert_eq!(t.label, plain.label);
        assert_eq!(t.steps, plain.steps);
        assert_eq!(t.step_seeds.len(), plain.steps.len());
        assert_eq!(t.root.with_budget(3), AbstractSet::full(&ds, 3));
        assert!(cache.cached_trace(1).is_none(), "entries are independent");
    }

    /// Release builds skip the key check by design, so the panic test
    /// only exists in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reused with")]
    fn mis_keyed_point_panics_in_debug_builds() {
        let ds = synth::figure2();
        let cache = CertCache::new(1);
        let _ = cache.trace(0, &ds, &[5.0], 1);
        // Same key, different input: unsound reuse, caught in debug.
        let _ = cache.trace(0, &ds, &[18.0], 1);
    }

    #[test]
    fn verdict_intervals_answer_monotone_implied_budgets() {
        let cache = CertCache::new(1);
        assert_eq!(cache.lookup(0, 4), None);
        cache.record(0, 4, &outcome(Verdict::Robust, 0));
        cache.record(0, 9, &outcome(Verdict::Unknown, 0));
        // Exact, implied-down, implied-up, and the open gap.
        assert_eq!(cache.lookup(0, 4), Some(Verdict::Robust));
        assert_eq!(cache.lookup(0, 2), Some(Verdict::Robust));
        assert_eq!(cache.lookup(0, 9), Some(Verdict::Unknown));
        assert_eq!(cache.lookup(0, 12), Some(Verdict::Unknown));
        assert_eq!(cache.lookup(0, 6), None, "inside the gap stays unknown");
        assert_eq!(cache.verdict_interval(0), (Some(4), Some(9)));
        // Intervals only tighten.
        cache.record(0, 5, &outcome(Verdict::Robust, 0));
        cache.record(0, 8, &outcome(Verdict::Unknown, 0));
        assert_eq!(cache.verdict_interval(0), (Some(5), Some(8)));
    }

    #[test]
    fn transient_verdicts_are_not_cached() {
        let cache = CertCache::new(1);
        for v in [
            Verdict::Timeout,
            Verdict::DisjunctBudget,
            Verdict::Cancelled,
        ] {
            cache.record(0, 3, &outcome(v, 0));
        }
        assert_eq!(cache.lookup(0, 3), None);
        assert_eq!(cache.verdict_interval(0), (None, None));
    }

    #[test]
    fn witnesses_are_validated_before_acceptance() {
        // figure2 at depth 0 classifies by majority (7 white vs 6 black):
        // removing two white rows flips the majority to black.
        let ds = synth::figure2();
        let cache = CertCache::new(1);
        assert!(!cache.record_witness(0, &ds, &[5.0], 0, &[9]), "black row");
        // One white removal leaves a 6v6 tie, which breaks toward white.
        assert!(!cache.record_witness(0, &ds, &[5.0], 0, &[1]));
        assert!(cache.record_witness(0, &ds, &[5.0], 0, &[1, 2]));
        assert_eq!(cache.witness(0), Some(vec![1, 2]));
        assert_eq!(cache.lookup(0, 2), Some(Verdict::Unknown));
        assert_eq!(cache.lookup(0, 1), None);
        // A larger witness never replaces a smaller one.
        assert!(cache.record_witness(0, &ds, &[5.0], 0, &[1, 2, 3]));
        assert_eq!(cache.witness(0), Some(vec![1, 2]));
        // Degenerate sets are rejected outright.
        assert!(!cache.record_witness(0, &ds, &[5.0], 0, &[]));
        let all: Vec<RowId> = (0..13).collect();
        assert!(!cache.record_witness(0, &ds, &[5.0], 0, &all));
    }

    #[test]
    fn witness_search_finds_and_shrinks_a_flip() {
        let ds = synth::figure2();
        let cache = CertCache::new(1);
        // Majority vote at depth 0 flips after removing 2 white rows; the
        // search must find a witness within budget and shrink it.
        assert!(cache.try_find_witness(0, &ds, &[5.0], 0, 13));
        let w = cache.witness(0).expect("witness recorded");
        assert_eq!(w.len(), 2, "minimal flip at depth 0 removes 2 whites");
        let label = cache.trace(0, &ds, &[5.0], 0).label;
        assert!(removal_flips(&ds, &[5.0], 0, label, &w));
        // The search runs once per point; later calls reuse the result.
        assert!(cache.try_find_witness(0, &ds, &[5.0], 0, 1));
    }

    #[test]
    fn witness_search_respects_budget() {
        let ds = synth::figure2();
        let cache = CertCache::new(1);
        assert!(
            !cache.try_find_witness(0, &ds, &[5.0], 0, 1),
            "1 < flip size"
        );
        assert!(cache.witness(0).is_none());
        // …and the attempt is not repeated even with a larger budget
        // (bounded cost per sweep); record_witness still accepts directly.
        assert!(!cache.try_find_witness(0, &ds, &[5.0], 0, 13));
        assert!(cache.record_witness(0, &ds, &[5.0], 0, &[1, 2]));
    }

    #[test]
    fn epoch_stamps_follow_the_dataset() {
        let ds = synth::figure2();
        assert_eq!(CertCache::new(3).epoch(), 0);
        assert_eq!(CertCache::for_dataset(&ds, 3).epoch(), 0);
        assert_eq!(CertCache::with_epoch(7, 3).epoch(), 7);
        let next = ds.apply(DatasetDelta::new().remove(0)).unwrap();
        assert_eq!(CertCache::for_dataset(&next, 3).epoch(), 1);
    }

    #[test]
    fn transfer_carries_pure_removal_robust_bounds() {
        let ds = synth::figure2();
        let cache = CertCache::for_dataset(&ds, 3);
        // Point 0: trace + full verdict interval + witness state.
        let label = cache.trace(0, &ds, &[5.0], 1).label;
        cache.record(0, 4, &outcome(Verdict::Robust, label));
        cache.record(0, 9, &outcome(Verdict::Unknown, label));
        // Point 1: a bound with no label source (no trace) cannot carry.
        cache.record(1, 6, &outcome(Verdict::Robust, 0));
        // Point 2: empty — counts toward neither counter.
        let (next, summary) = ds
            .apply_summarized(DatasetDelta::new().remove(1).remove(2))
            .unwrap();
        let metrics = RunMetrics::default();
        let moved = cache.transfer(&summary, &next, &metrics);
        assert_eq!(moved.epoch(), 1);
        assert_eq!(metrics.cache_transfers(), 1);
        assert_eq!(metrics.cache_invalidations(), 1);
        // Robust(4) across a 2-row removal becomes Robust(2)…
        assert_eq!(
            moved.transferred_lookup(0, 2),
            Some((Verdict::Robust, label))
        );
        assert_eq!(moved.lookup(0, 2), Some(Verdict::Robust));
        // …but not beyond, and nothing else crossed the epoch.
        assert_eq!(moved.transferred_lookup(0, 3), None);
        assert_eq!(moved.lookup(0, 9), None, "min_unknown does not transfer");
        assert!(moved.cached_trace(0).is_none(), "traces do not transfer");
        assert_eq!(moved.transferred_lookup(1, 1), None);
        assert_eq!(moved.transferred_lookup(2, 0), None);
    }

    #[test]
    fn transfer_invalidates_across_appends_and_flips() {
        let ds = synth::figure2();
        for delta in [
            DatasetDelta::new().append(&[7.0], 0).clone(),
            DatasetDelta::new().flip_label(0, 0).clone(), // row 0 is black
        ] {
            let cache = CertCache::for_dataset(&ds, 2);
            let label = cache.trace(0, &ds, &[5.0], 1).label;
            cache.record(0, 5, &outcome(Verdict::Robust, label));
            let (next, summary) = ds.apply_summarized(&delta).unwrap();
            assert!(!summary.pure_removal());
            let metrics = RunMetrics::default();
            let moved = cache.transfer(&summary, &next, &metrics);
            assert_eq!(metrics.cache_transfers(), 0);
            assert_eq!(metrics.cache_invalidations(), 1);
            assert_eq!(moved.transferred_lookup(0, 0), None);
            assert_eq!(moved.lookup(0, 1), None);
        }
    }

    #[test]
    fn transfer_drops_bounds_smaller_than_the_removal() {
        let ds = synth::figure2();
        let cache = CertCache::for_dataset(&ds, 1);
        let label = cache.trace(0, &ds, &[5.0], 1).label;
        cache.record(0, 1, &outcome(Verdict::Robust, label));
        let (next, summary) = ds
            .apply_summarized(DatasetDelta::new().remove(0).remove(1))
            .unwrap();
        let metrics = RunMetrics::default();
        let moved = cache.transfer(&summary, &next, &metrics);
        assert_eq!(metrics.cache_transfers(), 0);
        assert_eq!(metrics.cache_invalidations(), 1);
        assert_eq!(moved.transferred_lookup(0, 0), None, "1 < |R| = 2");
    }

    #[test]
    fn chained_transfers_keep_shrinking_the_bound() {
        let ds = synth::figure2();
        let cache = CertCache::for_dataset(&ds, 1);
        let label = cache.trace(0, &ds, &[5.0], 1).label;
        cache.record(0, 3, &outcome(Verdict::Robust, label));
        let metrics = RunMetrics::default();
        let (e1, s1) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let c1 = cache.transfer(&s1, &e1, &metrics);
        // A transferred bound (label from `transferred_label`, no trace)
        // itself transfers across the next pure removal.
        let (e2, s2) = e1.apply_summarized(DatasetDelta::new().remove(1)).unwrap();
        let c2 = c1.transfer(&s2, &e2, &metrics);
        assert_eq!(c2.epoch(), 2);
        assert_eq!(metrics.cache_transfers(), 2);
        assert_eq!(c2.transferred_lookup(0, 1), Some((Verdict::Robust, label)));
        assert_eq!(c2.transferred_lookup(0, 2), None);
    }

    #[test]
    fn batched_transfer_matches_the_chained_path() {
        // Oracle: one batched pure-removal transfer across k epochs must
        // leave the same transferable state as k chained per-epoch
        // transfers — same carried labels, same bounds, at every budget.
        let ds = synth::figure2();
        let cache = CertCache::for_dataset(&ds, 2);
        let l0 = cache.trace(0, &ds, &[5.0], 1).label;
        let l1 = cache.trace(1, &ds, &[0.5], 1).label;
        cache.record(0, 4, &outcome(Verdict::Robust, l0));
        cache.record(1, 2, &outcome(Verdict::Robust, l1)); // dies mid-chain
        let (e1, s1) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let (e2, s2) = e1
            .apply_summarized(DatasetDelta::new().remove(1).remove(2))
            .unwrap();
        let chained_m = RunMetrics::default();
        let chained = cache
            .transfer(&s1, &e1, &chained_m)
            .transfer(&s2, &e2, &chained_m);
        let batched_m = RunMetrics::default();
        let batched = cache.transfer_batched(&[s1.clone(), s2.clone()], &e2, &batched_m);
        assert_eq!(batched.epoch(), 2);
        assert_eq!(batched.epoch(), chained.epoch());
        for point in 0..2 {
            for n in 0..6 {
                assert_eq!(
                    batched.transferred_lookup(point, n),
                    chained.transferred_lookup(point, n),
                    "point {point} at n = {n}"
                );
            }
        }
        // Point 0: Robust(4) − 3 removals = Robust(1); point 1's bound 2
        // is exhausted by the combined shrink either way.
        assert_eq!(
            batched.transferred_lookup(0, 1),
            Some((Verdict::Robust, l0))
        );
        assert_eq!(batched.transferred_lookup(0, 2), None);
        assert_eq!(batched.transferred_lookup(1, 0), None);
        // Cost model differs by design: the chained path pays one
        // transfer per epoch a point *enters* with a live bound (point 0
        // twice, point 1 once before dying), the batched path one per
        // point carried across the whole span.
        assert_eq!(batched_m.cache_transfers(), 1);
        assert_eq!(batched_m.cache_invalidations(), 1);
        assert_eq!(chained_m.cache_transfers(), 3, "per-epoch charging");
        assert_eq!(chained_m.cache_invalidations(), 1);
    }

    #[test]
    fn batched_transfer_with_an_impure_epoch_carries_nothing() {
        // Chaining across {pure removal, append} invalidates everything
        // at the impure epoch; the batched fold must agree even though
        // its first epoch was pure.
        let ds = synth::figure2();
        let cache = CertCache::for_dataset(&ds, 1);
        let label = cache.trace(0, &ds, &[5.0], 1).label;
        cache.record(0, 5, &outcome(Verdict::Robust, label));
        let (e1, s1) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let (e2, s2) = e1
            .apply_summarized(DatasetDelta::new().append(&[0.3], 0))
            .unwrap();
        let chained_m = RunMetrics::default();
        let chained = cache
            .transfer(&s1, &e1, &chained_m)
            .transfer(&s2, &e2, &chained_m);
        let batched_m = RunMetrics::default();
        let batched = cache.transfer_batched(&[s1, s2], &e2, &batched_m);
        for n in 0..6 {
            assert_eq!(batched.transferred_lookup(0, n), None);
            assert_eq!(chained.transferred_lookup(0, n), None);
        }
        assert_eq!(batched_m.cache_transfers(), 0);
        assert_eq!(batched_m.cache_invalidations(), 1);
    }

    #[test]
    #[should_panic(expected = "one epoch per summary")]
    fn batched_transfer_must_cover_the_whole_span() {
        let ds = synth::figure2();
        let cache = CertCache::for_dataset(&ds, 1);
        let (e1, s1) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let e2 = e1.apply(&DatasetDelta::new()).unwrap();
        // One summary, two epochs crossed: rejected.
        let _ = cache.transfer_batched(&[s1], &e2, &RunMetrics::default());
    }

    #[test]
    fn ensure_slots_grows_without_touching_existing_entries() {
        let ds = synth::figure2();
        let mut cache = CertCache::for_dataset(&ds, 1);
        let label = cache.trace(0, &ds, &[5.0], 1).label;
        cache.record(0, 2, &outcome(Verdict::Robust, label));
        cache.ensure_slots(3);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup(0, 2), Some(Verdict::Robust));
        assert_eq!(cache.lookup(2, 1), None, "new slots start empty");
        cache.ensure_slots(2);
        assert_eq!(cache.len(), 3, "never shrinks");
    }

    #[test]
    #[should_panic(expected = "exactly one mutation")]
    fn transfer_must_cross_exactly_one_epoch() {
        let ds = synth::figure2();
        let cache = CertCache::for_dataset(&ds, 1);
        let (e1, s1) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let e2 = e1.apply(&DatasetDelta::new()).unwrap();
        let _ = cache.transfer(&s1, &e2, &RunMetrics::default());
    }

    #[test]
    fn epoch_mismatch_error_renders_both_stamps() {
        let err = EpochMismatch {
            cache_epoch: 3,
            dataset_epoch: 5,
        };
        let msg = err.to_string();
        assert!(msg.contains("epoch 3"), "{msg}");
        assert!(msg.contains("epoch 5"), "{msg}");
        assert!(msg.contains("CertCache::transfer"), "{msg}");
    }
}
