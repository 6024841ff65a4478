//! Session-shared memoization of `bestSplit#` (DESIGN.md §9.2).
//!
//! The abstract learner's dominant cost is the per-feature
//! scored-candidates sweep behind [`best_split_abs`], re-run for every
//! live disjunct at every depth iteration. A service session answers a
//! stream of certify calls against one training set, and identical
//! `⟨T, n⟩` states recur **across** those calls — requests start from
//! the same roots (one per budget), same-feature threshold restrictions
//! compose (`T↓x≤a↓x≤b = T↓x≤min(a,b)`), and budget clamping collapses
//! deep fragments onto the same `n`. [`SplitMemo`] caches the full
//! `bestSplit#` result per `(base, n)` for the session's whole lifetime,
//! so recurring states skip the sweep entirely. A one-shot run (no
//! [`SharedLearner`]) computes every `bestSplit#` directly: within one
//! certify call the states recur too rarely to pay for the table.
//!
//! # Keying and soundness
//!
//! A table is built with the session's `cprob#` transformer fixed, so
//! the effective key is `(interned base payload, n, transformer)`.
//! `best_split_abs` is a *pure, deterministic* function of exactly that
//! key (the test input `x` only enters `filter#`, after the split set is
//! chosen), so a memo hit returns the bit-identical [`AbsSplitResult`] —
//! same candidate order, same predicates, same ⋄ flag — that a recompute
//! would produce. Session and one-shot runs therefore produce identical
//! ladders and verdicts (pinned by the session-vs-one-shot rows of
//! `crates/core/tests/determinism.rs`).
//!
//! Keys are hash-consed [`Subset`]s (clone = refcount bump, `Hash` =
//! precomputed content hash), so a probe costs O(1) plus one short lock.
//!
//! # Deterministic hit/miss accounting
//!
//! Concurrent workers — of one run or of concurrent certify calls — can
//! race on the same key. The table reconciles at insert time: a computed
//! value that finds the key already present is counted as a **hit** (and
//! the stored value returned), keeping the invariant *hits = probes −
//! distinct keys* at every thread count and admission order, which the
//! perf gate relies on. An admission guard (see
//! [`SplitMemo::best_split`]) routes small-base probes around the table —
//! those run the sweep directly and count as misses, exactly as a cold
//! table would have charged them.

use crate::engine::{Counter, RunMetrics};
use crate::score::{best_split_abs, AbsSplitResult};
use antidote_data::{Dataset, Subset};
use antidote_domains::{AbstractSet, CprobTransformer};
use antidote_tree::Predicate;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A deterministic `(base, n) → value` table with reconciled hit/miss
/// accounting (see the module docs). The value type is the memoized
/// learner-step result; both learners instantiate it.
#[derive(Debug)]
struct KeyedMemo<V> {
    table: Mutex<HashMap<(Subset, usize), Arc<V>>>,
}

impl<V> Default for KeyedMemo<V> {
    fn default() -> Self {
        KeyedMemo {
            table: Mutex::new(HashMap::new()),
        }
    }
}

impl<V> KeyedMemo<V> {
    /// Returns the memoized value for `key`, computing it with `compute`
    /// on the first probe. Hits and misses land on `metrics`
    /// deterministically (insert-time reconciliation).
    fn get_or_compute<F: FnOnce() -> V>(
        &self,
        key: (Subset, usize),
        compute: F,
        metrics: &RunMetrics,
    ) -> Arc<V> {
        if let Some(hit) = self.table.lock().expect("memo lock poisoned").get(&key) {
            metrics.record(Counter::SplitMemoHits, 1);
            return hit.clone();
        }
        let value = Arc::new(compute());
        match self.table.lock().expect("memo lock poisoned").entry(key) {
            Entry::Occupied(e) => {
                // A concurrent worker computed the same key first. Both
                // values are bit-identical (pure function of the key);
                // count the probe as the hit it would have been
                // sequentially and return the stored value.
                metrics.record(Counter::SplitMemoHits, 1);
                e.get().clone()
            }
            Entry::Vacant(e) => {
                metrics.record(Counter::SplitMemoMisses, 1);
                e.insert(value).clone()
            }
        }
    }

    /// Number of distinct keys memoized (= misses recorded by the table).
    fn len(&self) -> usize {
        self.table.lock().expect("memo lock poisoned").len()
    }
}

/// The removal-model `bestSplit#` memo of a session's
/// [`SharedLearner`], with the session's transformer fixed at
/// construction and the table stamped with the dataset epoch it was
/// built against — memoized split results describe one training set,
/// and consulting them across a mutation would be unsound (DESIGN.md
/// §11).
#[derive(Debug)]
pub struct SplitMemo {
    transformer: CprobTransformer,
    epoch: u64,
    inner: KeyedMemo<AbsSplitResult>,
}

impl SplitMemo {
    /// An empty memo for a session's [`SharedLearner`] over `ds` under
    /// `transformer`, stamped with `ds`'s current epoch. Every admitted
    /// probe inserts, which keeps hit/miss accounting order-invariant
    /// across concurrent certify calls.
    pub fn new_shared(ds: &Dataset, transformer: CprobTransformer) -> Self {
        SplitMemo {
            transformer,
            epoch: ds.epoch(),
            inner: KeyedMemo::default(),
        }
    }

    /// The dataset epoch this memo's entries are valid for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Size guard: probe the table only for bases covering at least a
    /// third of the dataset (`base·ADMIT_DIVISOR ≥ |D|`).
    ///
    /// Recurring `⟨T, n⟩` states are sizeable bases — the roots every
    /// request starts from and the same-feature threshold compositions
    /// near them — while the bulk of probes are small deep fragments
    /// whose sparse-path sweep is cheaper than the key clone + two lock
    /// rounds + `Arc` insert a memoized miss pays. Guarded-out probes run
    /// the sweep directly and still count as misses, so `misses = probes
    /// − hits` holds at every thread count. The divisor is part of the
    /// session's observable accounting: it decides which probes can hit,
    /// so changing it moves `split_memo_hits`/`split_memo_misses` in the
    /// service's `metrics` op (and the replay transcripts that pin it).
    const ADMIT_DIVISOR: usize = 3;

    /// `bestSplit#(a)` through the memo: the first *admitted* probe per
    /// `(base, n)` runs the scored-candidates sweep, every later probe
    /// returns the stored result; small-base probes bypass the table
    /// (see `ADMIT_DIVISOR` above). `bestSplit#` results are pure
    /// functions of `(base, n)` *on one training set*; a memo consulted
    /// against a different epoch would silently return splits scored on
    /// stale data, so the stamp check is a hard assert, active in release
    /// builds too.
    pub fn best_split(
        &self,
        ds: &Dataset,
        a: &AbstractSet,
        metrics: &RunMetrics,
    ) -> Arc<AbsSplitResult> {
        assert_eq!(
            self.epoch,
            ds.epoch(),
            "SplitMemo stamped for dataset epoch {} used against epoch {}",
            self.epoch,
            ds.epoch(),
        );
        if a.len() * Self::ADMIT_DIVISOR < ds.len() {
            metrics.record(Counter::SplitMemoMisses, 1);
            return Arc::new(best_split_abs(ds, a, self.transformer));
        }
        self.inner.get_or_compute(
            (a.base().clone(), a.n()),
            || best_split_abs(ds, a, self.transformer),
            metrics,
        )
    }

    /// Number of distinct `(base, n)` states memoized so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no state has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Session-owned learner acceleration state shared **across** certify
/// calls (DESIGN.md §12): one `bestSplit#` memo plus one frontier
/// interner, both stamped for a single dataset epoch.
///
/// A one-shot run computes every `bestSplit#` directly and builds a
/// [`SubsetInterner`](antidote_data::SubsetInterner) that it drops on
/// return, so recurring `⟨T, n⟩` states across *requests* re-run the
/// candidate sweep from scratch. A [`crate::session::Session`] instead
/// owns one `SharedLearner` per (dataset epoch, config) and lends it to
/// every certify call via `Certifier::shared_state`, so the memo and the
/// hash-cons table warm up over the whole request stream.
///
/// Sharing is sound and deterministic:
///
/// * `bestSplit#` is a pure function of `(base, n, transformer)` on one
///   training set — the test input `x` never enters it — so entries
///   written by one request's run are bit-identical to what any other
///   request would compute ([`SplitMemo`] docs).
/// * The epoch stamp is enforced by [`SplitMemo::best_split`]'s hard
///   assert; sessions rebuild the shared state at every epoch advance.
/// * Aggregate counters stay admission-order-invariant under concurrency:
///   the memo reconciles at insert time (hits = probes − distinct keys)
///   and interner hits are total interned payloads − distinct payloads —
///   both order-free quantities. Per-*request* attribution of memo
///   counters is **not** stable (whichever request touches a state first
///   pays the miss), which is why the service's per-request isolation
///   guarantees cover the certify/cache counters only.
#[derive(Debug)]
pub struct SharedLearner {
    memo: SplitMemo,
    interner: Mutex<antidote_data::SubsetInterner>,
}

impl SharedLearner {
    /// Shared state for `ds`'s current epoch under `transformer`.
    pub fn new(ds: &Dataset, transformer: CprobTransformer) -> Self {
        SharedLearner {
            memo: SplitMemo::new_shared(ds, transformer),
            interner: Mutex::new(antidote_data::SubsetInterner::new()),
        }
    }

    /// The dataset epoch this state is valid for.
    pub fn epoch(&self) -> u64 {
        self.memo.epoch()
    }

    /// The shared `bestSplit#` memo.
    pub fn memo(&self) -> &SplitMemo {
        &self.memo
    }

    /// Runs `f` under the shared interner's lock. The learner interns
    /// each deduplicated frontier in one locked pass (sequential within a
    /// run, serialized across concurrent runs), preserving the
    /// order-invariant hit accounting described above.
    pub fn with_interner<R>(&self, f: impl FnOnce(&mut antidote_data::SubsetInterner) -> R) -> R {
        let mut interner = self.interner.lock().expect("interner lock poisoned");
        f(&mut interner)
    }
}

/// The flip-model analogue: memoizes `best_split_flip`'s
/// `(kept predicates, diamond)` per `(carrier, flip budget)`. The flip
/// score depends on nothing else, so the same purity argument applies —
/// and the same epoch stamp guards against cross-mutation reuse.
#[derive(Debug)]
pub struct FlipSplitMemo {
    epoch: u64,
    inner: KeyedMemo<(Vec<Predicate>, bool)>,
}

impl FlipSplitMemo {
    /// An empty memo for one flip-certification call over `ds`, stamped
    /// with `ds`'s current epoch.
    pub fn new(ds: &Dataset) -> Self {
        FlipSplitMemo {
            epoch: ds.epoch(),
            inner: KeyedMemo::default(),
        }
    }

    /// The dataset epoch this memo's entries are valid for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `best_split_flip` through the memo (see [`SplitMemo::best_split`],
    /// including the release-mode epoch check).
    pub fn best_split(
        &self,
        ds: &Dataset,
        f: &antidote_domains::flipset::FlipSet,
        metrics: &RunMetrics,
    ) -> Arc<(Vec<Predicate>, bool)> {
        assert_eq!(
            self.epoch,
            ds.epoch(),
            "FlipSplitMemo stamped for dataset epoch {} used against epoch {}",
            self.epoch,
            ds.epoch(),
        );
        self.inner.get_or_compute(
            (f.subset().clone(), f.n()),
            || crate::flip::best_split_flip(ds, f),
            metrics,
        )
    }

    /// Number of distinct `(carrier, n)` states memoized so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no state has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::synth;

    #[test]
    fn memo_returns_bit_identical_results_and_counts_probes() {
        let ds = synth::figure2();
        let memo = SplitMemo::new_shared(&ds, CprobTransformer::Optimal);
        let metrics = RunMetrics::default();
        let a = AbstractSet::full(&ds, 2);
        let first = memo.best_split(&ds, &a, &metrics);
        let direct = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert_eq!(*first, direct, "memoized result equals the direct sweep");
        assert_eq!(metrics.split_memo_misses(), 1);
        assert_eq!(metrics.split_memo_hits(), 0);
        // A re-probe (same base payload, same n) hits and shares the Arc.
        let again = memo.best_split(&ds, &a.clone(), &metrics);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(metrics.split_memo_hits(), 1);
        // An equal-but-distinct allocation still hits (content keying)...
        let rebuilt = AbstractSet::full(&ds, 2);
        let third = memo.best_split(&ds, &rebuilt, &metrics);
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(metrics.split_memo_hits(), 2);
        // ...while a different budget is a distinct key.
        let wide = a.with_budget(3);
        let other = memo.best_split(&ds, &wide, &metrics);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(memo.len(), 2);
        assert_eq!(metrics.split_memo_misses(), 2);
        assert!(!memo.is_empty());
    }

    #[test]
    fn small_bases_bypass_the_table_but_still_count_misses() {
        let ds = synth::figure2(); // 13 rows: the size guard needs ≥ 5
        let memo = SplitMemo::new_shared(&ds, CprobTransformer::Optimal);
        let metrics = RunMetrics::default();
        let small = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1, 2]), 1);
        let first = memo.best_split(&ds, &small, &metrics);
        let again = memo.best_split(&ds, &small, &metrics);
        // Bypassed probes recompute (no sharing), never hit, and leave
        // the table empty — but each one is charged as a miss.
        assert_eq!(*first, *again);
        assert!(!Arc::ptr_eq(&first, &again));
        assert!(memo.is_empty());
        assert_eq!(metrics.split_memo_hits(), 0);
        assert_eq!(metrics.split_memo_misses(), 2);
        // The result itself is the stock sweep.
        assert_eq!(
            *first,
            best_split_abs(&ds, &small, CprobTransformer::Optimal)
        );
        // A half-dataset base is admitted.
        let big = AbstractSet::new(Subset::from_indices(&ds, (0..7).collect()), 1);
        let b1 = memo.best_split(&ds, &big, &metrics);
        let b2 = memo.best_split(&ds, &big, &metrics);
        assert!(Arc::ptr_eq(&b1, &b2));
        assert_eq!(memo.len(), 1);
        assert_eq!(metrics.split_memo_hits(), 1);
        assert_eq!(metrics.split_memo_misses(), 3);
    }

    #[test]
    fn flip_memo_matches_direct_best_split() {
        use antidote_domains::flipset::FlipSet;
        let ds = synth::figure2();
        let memo = FlipSplitMemo::new(&ds);
        let metrics = RunMetrics::default();
        assert!(memo.is_empty());
        let f = FlipSet::full(&ds, 2);
        let memoized = memo.best_split(&ds, &f, &metrics);
        let direct = crate::flip::best_split_flip(&ds, &f);
        assert_eq!(*memoized, direct);
        let again = memo.best_split(&ds, &f, &metrics);
        assert!(Arc::ptr_eq(&memoized, &again));
        assert_eq!(memo.len(), 1);
        assert_eq!(metrics.split_memo_hits(), 1);
        assert_eq!(metrics.split_memo_misses(), 1);
    }

    #[test]
    #[should_panic(expected = "SplitMemo stamped for dataset epoch 0 used against epoch 1")]
    fn split_memo_rejects_a_mutated_dataset() {
        let ds = synth::figure2();
        let memo = SplitMemo::new_shared(&ds, CprobTransformer::Optimal);
        assert_eq!(memo.epoch(), 0);
        let mutated = ds
            .apply(antidote_data::DatasetDelta::new().remove(0))
            .unwrap();
        let a = AbstractSet::full(&mutated, 1);
        let _ = memo.best_split(&mutated, &a, &RunMetrics::default());
    }

    #[test]
    #[should_panic(expected = "FlipSplitMemo stamped for dataset epoch 0 used against epoch 1")]
    fn flip_memo_rejects_a_mutated_dataset() {
        use antidote_domains::flipset::FlipSet;
        let ds = synth::figure2();
        let memo = FlipSplitMemo::new(&ds);
        assert_eq!(memo.epoch(), 0);
        let mutated = ds
            .apply(antidote_data::DatasetDelta::new().remove(0))
            .unwrap();
        let f = FlipSet::full(&mutated, 1);
        let _ = memo.best_split(&mutated, &f, &RunMetrics::default());
    }
}
