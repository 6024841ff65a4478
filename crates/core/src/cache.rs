//! Incremental certification cache for the §6.1 sweep (DESIGN.md §6).
//!
//! The n-doubling ladder probes the *same* test point at many poisoning
//! budgets, and between two rungs the training set and the point's
//! concrete reference label (budget-independent) do not change.
//! [`CertCache`] keeps one entry per test point and lets the sweep reuse
//! two kinds of state across rungs:
//!
//! 1. **The reference label** — `DTrace(T, x)` is derived once per point
//!    by the certifier (`Certifier::reference_label`) and reused at every
//!    later rung, so a later probe runs only the budget-dependent
//!    abstract interpretation.
//! 2. **Verdict intervals** — DrewsAD20's robustness property is monotone
//!    in `n` (robust at `n` implies robust at every `n' ≤ n`). The cache
//!    records `[max_robust, min_unknown]` and an exact memo of complete
//!    verdicts per point, and answers monotone-implied budgets without
//!    invoking the certifier at all.
//!
//! Why cached ladders stay bit-identical to fresh ones: the label is a
//! deterministic function reused verbatim, every abstract run starts
//! from the same `⟨T, n⟩` a fresh run builds, and interval short-circuits
//! return exactly what a complete fresh run returns whenever the prover
//! is monotone in `n` (property-tested in
//! `crates/core/tests/monotonicity.rs`). Within a single sweep the ladder
//! only probes strictly inside each point's open verdict gap, so interval
//! hits cannot fire there at all: the only short-circuits are interval
//! hits across ladders or requests and transferred bounds.
//!
//! The caveat is per-instance *resource limits*: a short-circuit answers
//! `Unknown` where a fresh probe would report `Timeout` or
//! `DisjunctBudget`. A sweep never short-circuits, so under a disjunct
//! budget the cached ladder still runs every abstract interpretation and
//! stays bit-identical; under a wall-clock timeout the same timing caveat
//! as the engine's thread-invariance contract applies (a cached probe
//! skips the concrete trace, and within a ladder or session a cache miss
//! mostly skips it too, since its trace reads the tree nodes earlier
//! points memoized in the shared learner state; either can finish where
//! a fresh probe times out). Direct users of `Certifier::certify_cached`
//! get short-circuits unconditionally: the answers are always *sound*,
//! they just bypass resource accounting.
//!
//! **Epoch stamping (DESIGN.md §11).** Every cache is stamped with the
//! [`Dataset::epoch`] it answers for, and `certify_cached` returns a hard
//! [`EpochMismatch`] error — in release builds too — when the stamps
//! disagree. A mutated dataset therefore can never silently read another
//! epoch's verdicts. When the dataset *does* drift, [`CertCache::transfer`]
//! carries what remains sound across the mutation: for a pure-removal
//! delta `R`, a point certified `Robust(m)` at epoch `e` transfers to
//! epoch `e+1` as `Robust(m − |R|)` (the removals already spent part of
//! the budget). Everything else — derived labels, `min_unknown`, exact
//! memos, and any certificate crossing an append or label flip — is
//! invalidated and re-proved fresh.

use crate::certify::{Outcome, Verdict};
use crate::engine::{Counter, RunMetrics};
use antidote_data::{ClassId, Dataset, DeltaSummary};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// Per-point cached certification state.
#[derive(Debug, Default)]
struct PointEntry {
    /// The concrete reference label `DTrace(T, x)`, derived at this epoch.
    label: Option<ClassId>,
    /// The `(x, depth)` this entry was first derived for — cached state
    /// is only valid for that pair, and reusing a key for a different
    /// input would return unsound verdicts (checked in debug builds).
    key: Option<(Vec<f64>, usize)>,
    /// Largest budget with a complete `Robust` verdict.
    max_robust: Option<usize>,
    /// Smallest budget with a complete non-robust (`Unknown`) verdict.
    min_unknown: Option<usize>,
    /// Exact memo of complete verdicts per probed budget.
    verdicts: BTreeMap<usize, Verdict>,
    /// Reference label carried by [`CertCache::transfer`] — set only on
    /// entries whose `max_robust` is a transferred (not freshly proved)
    /// bound, before any label is derived at the new epoch.
    transferred_label: Option<ClassId>,
}

impl PointEntry {
    /// Whether the entry carries any cached state at all.
    fn has_state(&self) -> bool {
        self.label.is_some()
            || self.max_robust.is_some()
            || self.min_unknown.is_some()
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
    /// measure the service's byte-budget eviction watermark sums. Each
    /// entry counts at struct size, plus its key's coordinates and its
    /// exact verdict memo.
    pub fn approx_bytes(&self) -> usize {
        self.points
            .iter()
            .map(|p| {
                let e = p.lock().expect("cache entry lock poisoned");
                let mut bytes = std::mem::size_of::<PointEntry>();
                if let Some((x, _)) = &e.key {
                    bytes += x.len() * std::mem::size_of::<f64>();
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

    /// The reference label `DTrace(T, x)` for `point`, calling `derive`
    /// for it on first use at this epoch and returning the stored label
    /// after that. `Certifier::certify_cached` passes its own
    /// `reference_label`, so one module decides how a label is derived.
    ///
    /// In debug builds, panics when `point` was previously used with a
    /// different `(x, depth)` — cached verdicts are only sound for the
    /// input they were derived from.
    pub fn label(
        &self,
        point: usize,
        x: &[f64],
        depth: usize,
        derive: impl FnOnce() -> ClassId,
    ) -> ClassId {
        let mut e = self.entry(point);
        debug_assert!(
            e.key
                .as_ref()
                .is_none_or(|(kx, kd)| kx == x && *kd == depth),
            "cache point {point} keyed for {:?} reused with ({x:?}, {depth})",
            e.key,
        );
        if let Some(label) = e.label {
            return label;
        }
        e.key = Some((x.to_vec(), depth));
        let label = derive();
        e.label = Some(label);
        label
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

    /// The reference label of `point`, if one was derived at this epoch.
    pub fn cached_label(&self, point: usize) -> Option<ClassId> {
        self.entry(point).label
    }

    /// Answers budget `n` from cached state, if implied: an exact memo
    /// hit, a monotone-implied `Robust` (`n ≤ max_robust`), or a
    /// monotone-implied `Unknown` (`n ≥ min_unknown`).
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
        None
    }

    /// Answers budget `n` from a *transferred* `Robust` bound, before any
    /// label is derived at this epoch: returns the verdict together with the
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

    /// Carries this cache's sound certificates across a chain of
    /// consecutive dataset mutations, returning a fresh cache stamped for
    /// `new_ds`'s epoch. `summaries[i]` describes the mutation into epoch
    /// `self.epoch + i + 1`; a single mutation is a one-element slice
    /// (`std::slice::from_ref(&summary)`).
    ///
    /// The transfer rule (pinned against the brute-force oracle in
    /// `tests/soundness.rs`, soundness argument in DESIGN.md §11): for a
    /// **pure-removal** delta `R`, `Robust(m)` at epoch `e` with `m ≥ |R|`
    /// becomes `Robust(m − |R|)` at epoch `e+1` — any `(m − |R|)`-removal
    /// of `L ∖ R` is an at-most-`m`-removal of `L`, and `L ∖ R` itself is
    /// within the old budget, so the reference label is preserved too.
    /// Deltas that append or flip labels transfer nothing (an appended or
    /// relabelled row can change verdicts in either direction), and no
    /// other state is carried: derived labels, `min_unknown`, and exact
    /// memos all describe the old training set.
    ///
    /// A chain is one transfer of the folded summary
    /// ([`DeltaSummary::fold`]), which equals per-epoch chaining (the
    /// batched-vs-chained oracle test pins it): a bound `m` survives `k`
    /// chained transfers iff `m ≥ Σ|Rᵢ|` — partial sums of non-negative
    /// counts never exceed the total, so a point that clears the combined
    /// shrink clears every intermediate one — and lands at `m − Σ|Rᵢ|`
    /// either way. If *any* epoch in the chain appends or flips, nothing
    /// is carried across the chain (chaining agrees: the impure epoch
    /// invalidates everything and later pure epochs find only empty
    /// entries). The chain shrinks **once**, so a carried point costs one
    /// `cache_transfers` instead of `k` and the entries are copied once.
    ///
    /// Each carried point counts one `cache_transfers`; each point whose
    /// state is dropped counts one `cache_invalidations`.
    ///
    /// # Panics
    ///
    /// Panics when `summaries` is empty or `new_ds` is not exactly
    /// `summaries.len()` epochs ahead of the cache.
    pub fn transfer(
        &self,
        summaries: &[DeltaSummary],
        new_ds: &Dataset,
        metrics: &RunMetrics,
    ) -> CertCache {
        assert_eq!(
            new_ds.epoch(),
            self.epoch + summaries.len() as u64,
            "CertCache::transfer crosses exactly one epoch per summary: \
             cache at epoch {}, {} summaries, dataset at {}",
            self.epoch,
            summaries.len(),
            new_ds.epoch(),
        );
        let folded = DeltaSummary::fold(summaries);
        let (pure_removal, shrink) = (folded.pure_removal(), folded.removed.len());
        let fresh = CertCache::with_epoch(new_ds.epoch(), self.points.len());
        for (point, slot) in self.points.iter().enumerate() {
            let e = slot.lock().expect("cache entry lock poisoned");
            let label = e.label.or(e.transferred_label);
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

    /// `point`'s depth-1 label, derived the way `certify_cached` derives
    /// it: by the certifier.
    fn derive_label(cache: &CertCache, point: usize, ds: &Dataset, x: &[f64]) -> ClassId {
        cache.label(point, x, 1, || {
            crate::Certifier::new(ds).depth(1).reference_label(x)
        })
    }

    #[test]
    fn trace_is_memoized_and_matches_dtrace() {
        let ds = synth::figure2();
        let full = antidote_data::Subset::full(&ds);
        let cache = CertCache::new(2);
        assert_eq!(cache.cached_label(0), None);
        let label = derive_label(&cache, 0, &ds, &[5.0]);
        assert_eq!(label, antidote_tree::dtrace(&ds, &full, &[5.0], 1).label);
        assert_eq!(cache.cached_label(0), Some(label), "memoized on first use");
        let again = cache.label(0, &[5.0], 1, || unreachable!("derived once per epoch"));
        assert_eq!(again, label);
        assert_eq!(cache.cached_label(1), None, "entries are independent");
        // Point 1 derives its own label (x = 18 is black, x = 5 white).
        let other = derive_label(&cache, 1, &ds, &[18.0]);
        assert_eq!(other, antidote_tree::dtrace(&ds, &full, &[18.0], 1).label);
        assert_ne!(other, label);
        assert_eq!(cache.cached_label(0), Some(label));
    }

    /// Release builds skip the key check by design, so the panic test
    /// only exists in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reused with")]
    fn mis_keyed_point_panics_in_debug_builds() {
        let ds = synth::figure2();
        let cache = CertCache::new(1);
        let _ = derive_label(&cache, 0, &ds, &[5.0]);
        // Same key, different input: unsound reuse, caught in debug.
        let _ = derive_label(&cache, 0, &ds, &[18.0]);
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
        // Point 0: label + full verdict interval.
        let label = derive_label(&cache, 0, &ds, &[5.0]);
        cache.record(0, 4, &outcome(Verdict::Robust, label));
        cache.record(0, 9, &outcome(Verdict::Unknown, label));
        // Point 1: a bound with no label source cannot carry.
        cache.record(1, 6, &outcome(Verdict::Robust, 0));
        // Point 2: empty — counts toward neither counter.
        let (next, summary) = ds
            .apply_summarized(DatasetDelta::new().remove(1).remove(2))
            .unwrap();
        let metrics = RunMetrics::default();
        let moved = cache.transfer(&[summary], &next, &metrics);
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
        assert!(
            moved.cached_label(0).is_none(),
            "derived labels stay behind"
        );
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
            let label = derive_label(&cache, 0, &ds, &[5.0]);
            cache.record(0, 5, &outcome(Verdict::Robust, label));
            let (next, summary) = ds.apply_summarized(&delta).unwrap();
            assert!(!summary.pure_removal());
            let metrics = RunMetrics::default();
            let moved = cache.transfer(&[summary], &next, &metrics);
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
        let label = derive_label(&cache, 0, &ds, &[5.0]);
        cache.record(0, 1, &outcome(Verdict::Robust, label));
        let (next, summary) = ds
            .apply_summarized(DatasetDelta::new().remove(0).remove(1))
            .unwrap();
        let metrics = RunMetrics::default();
        let moved = cache.transfer(&[summary], &next, &metrics);
        assert_eq!(metrics.cache_transfers(), 0);
        assert_eq!(metrics.cache_invalidations(), 1);
        assert_eq!(moved.transferred_lookup(0, 0), None, "1 < |R| = 2");
    }

    #[test]
    fn chained_transfers_keep_shrinking_the_bound() {
        let ds = synth::figure2();
        let cache = CertCache::for_dataset(&ds, 1);
        let label = derive_label(&cache, 0, &ds, &[5.0]);
        cache.record(0, 3, &outcome(Verdict::Robust, label));
        let metrics = RunMetrics::default();
        let (e1, s1) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let c1 = cache.transfer(&[s1], &e1, &metrics);
        // A transferred bound (label from `transferred_label`, none derived)
        // itself transfers across the next pure removal.
        let (e2, s2) = e1.apply_summarized(DatasetDelta::new().remove(1)).unwrap();
        let c2 = c1.transfer(&[s2], &e2, &metrics);
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
        let l0 = derive_label(&cache, 0, &ds, &[5.0]);
        let l1 = derive_label(&cache, 1, &ds, &[0.5]);
        cache.record(0, 4, &outcome(Verdict::Robust, l0));
        cache.record(1, 2, &outcome(Verdict::Robust, l1)); // dies mid-chain
        let (e1, s1) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let (e2, s2) = e1
            .apply_summarized(DatasetDelta::new().remove(1).remove(2))
            .unwrap();
        let chained_m = RunMetrics::default();
        let chained = cache
            .transfer(std::slice::from_ref(&s1), &e1, &chained_m)
            .transfer(std::slice::from_ref(&s2), &e2, &chained_m);
        let batched_m = RunMetrics::default();
        let batched = cache.transfer(&[s1, s2], &e2, &batched_m);
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
        let label = derive_label(&cache, 0, &ds, &[5.0]);
        cache.record(0, 5, &outcome(Verdict::Robust, label));
        let (e1, s1) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let (e2, s2) = e1
            .apply_summarized(DatasetDelta::new().append(&[0.3], 0))
            .unwrap();
        let chained_m = RunMetrics::default();
        let chained = cache
            .transfer(std::slice::from_ref(&s1), &e1, &chained_m)
            .transfer(std::slice::from_ref(&s2), &e2, &chained_m);
        let batched_m = RunMetrics::default();
        let batched = cache.transfer(&[s1, s2], &e2, &batched_m);
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
        let _ = cache.transfer(&[s1], &e2, &RunMetrics::default());
    }

    #[test]
    fn ensure_slots_grows_without_touching_existing_entries() {
        let ds = synth::figure2();
        let mut cache = CertCache::for_dataset(&ds, 1);
        let label = derive_label(&cache, 0, &ds, &[5.0]);
        cache.record(0, 2, &outcome(Verdict::Robust, label));
        cache.ensure_slots(3);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup(0, 2), Some(Verdict::Robust));
        assert_eq!(cache.lookup(2, 1), None, "new slots start empty");
        cache.ensure_slots(2);
        assert_eq!(cache.len(), 3, "never shrinks");
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
