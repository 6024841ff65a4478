//! Ladder- and session-shared memoization of `bestSplit#` and of the
//! concrete `bestSplit` (DESIGN.md §9.2).
//!
//! The abstract learner's dominant cost is the per-feature
//! scored-candidates sweep behind [`best_split_abs`], re-run for every
//! live disjunct at every depth iteration. `bestSplit#` reads only the
//! abstract training set `⟨T, n⟩`; the test input `x` enters `filter#`
//! alone (§4.7). So identical states recur **across** certify calls:
//! every point of a §6.1 ladder rung asks the same root question, most
//! layer-1 states recur from point to point, and a service session's
//! requests start from the same roots (one per budget). Same-feature
//! threshold restrictions compose (`T↓x≤a↓x≤b = T↓x≤min(a,b)`) and
//! budget clamping collapses deep fragments onto the same `n`, so deeper
//! states recur too. [`SplitMemo`] caches the full `bestSplit#` result
//! per `(base, n)` for the life of one [`SharedLearner`] — one removal
//! ladder, or one session epoch — so recurring states skip the sweep
//! entirely. A single certify call without a [`SharedLearner`] and every
//! label-flip run compute every `bestSplit#` directly: within one call
//! the states recur too rarely to pay for a table.
//!
//! # Keying and soundness
//!
//! A table is built with the ladder's or session's `cprob#` transformer
//! fixed, so the effective key is `(base payload, n, transformer)`.
//! `best_split_abs` is a *pure, deterministic* function of exactly that
//! key (the test input `x` only enters `filter#`, after the split set is
//! chosen), so a memo hit returns the bit-identical [`AbsSplitResult`] —
//! same candidate order, same predicates, same ⋄ flag — that a recompute
//! would produce. Memoized and memo-free runs therefore produce
//! identical ladders and verdicts (pinned by the memo rows of
//! `crates/core/tests/determinism.rs`).
//!
//! Keys are hash-consed [`Subset`]s (clone = refcount bump, `Hash` =
//! precomputed content hash), so a probe costs O(1) plus one short lock.
//!
//! # Deterministic hit/miss accounting
//!
//! Concurrent workers — of one run, of one ladder rung, or of concurrent
//! certify calls — can race on the same key. The table reconciles at
//! insert time: a computed value that finds the key already present is
//! counted as a **hit** (and the stored value returned), keeping the
//! invariant *hits = probes − distinct keys* at every thread count and
//! admission order, which the perf gate relies on. An admission guard
//! (see [`SplitMemo::best_split`]) routes small-base probes around the
//! table — those run the sweep directly and count as misses, exactly as
//! a cold table would have charged them.
//!
//! # The concrete trace memo
//!
//! Every certify call also needs the concrete reference label
//! `DTrace(T, x)`, and running `DTrace` for every `x` walks one tree
//! (§3.3): a depth-`d` ladder or session epoch needs at most `2^d − 1`
//! concrete `bestSplit` searches, however many points it labels.
//! [`TraceMemo`] keeps each search's result per fragment, so each tree
//! node is learned once per [`SharedLearner`]. It has no admission guard
//! and no counter: every key is a node some trace reached, and the table
//! never holds more than the tree's inner nodes.

use crate::engine::{Counter, RunMetrics};
use crate::score::{best_split_abs, AbsSplitResult};
use antidote_data::{Dataset, Subset};
use antidote_domains::{AbsPredicate, AbstractSet, CprobTransformer};
use antidote_tree::dtrace::{dtrace_with, TraceResult};
use antidote_tree::split::{best_split, SplitChoice};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A deterministic `(base, n) → bestSplit#` table with reconciled
/// hit/miss accounting (see the module docs).
#[derive(Debug, Default)]
struct KeyedMemo {
    table: Mutex<HashMap<(Subset, usize), Arc<AbsSplitResult>>>,
}

impl KeyedMemo {
    /// Returns the memoized result for `key`, computing it with `compute`
    /// on the first probe. Hits and misses land on `metrics`
    /// deterministically (insert-time reconciliation).
    fn get_or_compute(
        &self,
        key: (Subset, usize),
        compute: impl FnOnce() -> AbsSplitResult,
        metrics: &RunMetrics,
    ) -> Arc<AbsSplitResult> {
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

    /// Approximate bytes held, walked under the table's lock: each key's
    /// subset payload and budget plus each result's predicates.
    fn approx_bytes(&self) -> usize {
        self.table
            .lock()
            .expect("memo lock poisoned")
            .iter()
            .map(|((base, _), result)| {
                base.approx_bytes()
                    + std::mem::size_of::<usize>()
                    + result.preds.len() * std::mem::size_of::<AbsPredicate>()
            })
            .sum()
    }
}

/// The removal-model `bestSplit#` memo of a [`SharedLearner`], with the
/// ladder's or session's transformer fixed at construction and the table
/// stamped with the dataset epoch it was built against — memoized split
/// results describe one training set, and consulting them across a
/// mutation would be unsound (DESIGN.md §11).
#[derive(Debug)]
pub struct SplitMemo {
    transformer: CprobTransformer,
    epoch: u64,
    inner: KeyedMemo,
}

impl SplitMemo {
    /// An empty memo for a [`SharedLearner`] over `ds` under
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

    /// Approximate heap footprint of the memoized states, in bytes: each
    /// key's subset payload and budget plus each result's predicates.
    /// Computed by walking the table under its lock; 0 when empty.
    pub fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }
}

/// The concrete `bestSplit` memo of a [`SharedLearner`]: one
/// `bestSplit(T)` result per training-set fragment `T`, stamped with the
/// dataset epoch it was built against (module docs).
///
/// `bestSplit` is a deterministic function of the fragment on one
/// training set (ties break by score, feature and threshold), so a
/// memoized trace is bit-identical to plain
/// [`dtrace`](antidote_tree::dtrace::dtrace): same steps, same final
/// fragment, same label. Two workers tracing through one unsearched node
/// both run the search, and the second insert keeps the stored value;
/// the two are equal, so which one wins does not matter.
#[derive(Debug)]
pub struct TraceMemo {
    epoch: u64,
    table: Mutex<HashMap<Subset, Option<SplitChoice>>>,
}

impl TraceMemo {
    /// An empty memo stamped with `ds`'s current epoch.
    pub(crate) fn new(ds: &Dataset) -> Self {
        TraceMemo {
            epoch: ds.epoch(),
            table: Mutex::default(),
        }
    }

    /// `DTrace(T, x)` from the full training set with at most `depth`
    /// splits, each tree node's `bestSplit` searched on its first visit
    /// and read from the table after that.
    ///
    /// # Panics
    ///
    /// Panics when `ds` is not at the epoch this memo was stamped with —
    /// a hard assert, active in release builds too, since memoized splits
    /// describe one training set — and under the same conditions as
    /// [`dtrace`](antidote_tree::dtrace::dtrace).
    pub fn dtrace(&self, ds: &Dataset, x: &[f64], depth: usize) -> TraceResult {
        assert_eq!(
            self.epoch,
            ds.epoch(),
            "TraceMemo stamped for dataset epoch {} used against epoch {}",
            self.epoch,
            ds.epoch(),
        );
        dtrace_with(ds, &Subset::full(ds), x, depth, |t| {
            if let Some(&hit) = self.table.lock().expect("memo lock poisoned").get(t) {
                return hit;
            }
            let choice = best_split(ds, t);
            *self
                .table
                .lock()
                .expect("memo lock poisoned")
                .entry(t.clone())
                .or_insert(choice)
        })
    }

    /// Number of tree nodes whose split has been searched.
    pub fn len(&self) -> usize {
        self.table.lock().expect("memo lock poisoned").len()
    }

    /// Whether no node has been searched yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes: each key's subset payload
    /// plus its stored result. Walked under the table's lock.
    pub fn approx_bytes(&self) -> usize {
        self.table
            .lock()
            .expect("memo lock poisoned")
            .keys()
            .map(|t| t.approx_bytes() + std::mem::size_of::<Option<SplitChoice>>())
            .sum()
    }
}

/// Learner state shared **across** certify calls: one `bestSplit#`
/// memo and one concrete trace memo, both stamped for a single dataset
/// epoch.
///
/// Every §6.1 removal ladder builds one `SharedLearner` for its whole
/// run (`sweep_in`, `sweep_cached` and so each drift epoch, the matrix,
/// the CLI), and a [`crate::session::Session`] owns one per (dataset
/// epoch, config) for every request it serves. Either way it is lent to
/// each certify call via `Certifier::shared_state`, so every point and
/// rung of a ladder, and every request of a session, shares both memos:
/// the abstract run probes the [`SplitMemo`], and the reference label is
/// traced through the [`TraceMemo`], so the ladder or session epoch
/// learns each concrete tree node once. A single certify call without
/// one computes every `bestSplit#` directly and derives its label with
/// plain `dtrace`. Frontier hash-consing is always per run: each learner
/// run interns through its own
/// [`SubsetInterner`](antidote_data::SubsetInterner) and drops it on
/// return, so nothing but the memos outlives a run.
///
/// Sharing is sound and deterministic:
///
/// * `bestSplit#` is a pure function of `(base, n, transformer)` on one
///   training set — the test input `x` never enters it — so entries
///   written by one point's or request's run are bit-identical to what
///   any other would compute ([`SplitMemo`] docs). The concrete
///   `bestSplit` is a pure function of the fragment, so memoized traces
///   equal plain `dtrace` ([`TraceMemo`] docs).
/// * The epoch stamp is enforced by [`SplitMemo::best_split`]'s and
///   [`TraceMemo::dtrace`]'s hard asserts; sessions rebuild the shared
///   state at every epoch advance, and `sweep_cached` builds one per
///   call, so per drift epoch.
/// * Aggregate counters stay admission-order-invariant under
///   concurrency: the memo reconciles at insert time (hits = probes −
///   distinct keys), an order-free quantity. Per-*request* attribution
///   of memo counters is **not** stable (whichever request touches a
///   state first pays the miss), which is why the service's per-request
///   isolation guarantees cover the certify/cache counters only.
#[derive(Debug)]
pub struct SharedLearner {
    memo: SplitMemo,
    trace: TraceMemo,
}

impl SharedLearner {
    /// Shared state for `ds`'s current epoch under `transformer`.
    pub fn new(ds: &Dataset, transformer: CprobTransformer) -> Self {
        SharedLearner {
            memo: SplitMemo::new_shared(ds, transformer),
            trace: TraceMemo::new(ds),
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

    /// The shared concrete trace memo.
    pub fn trace_memo(&self) -> &TraceMemo {
        &self.trace
    }

    /// Approximate heap footprint of both memos, in bytes: the measure a
    /// session's byte-budget eviction adds for its learner state.
    pub fn approx_bytes(&self) -> usize {
        self.memo.approx_bytes() + self.trace.approx_bytes()
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
        let wide = AbstractSet::full(&ds, 3);
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
    fn byte_count_is_zero_when_empty_and_grows_with_each_key() {
        let ds = synth::figure2();
        let memo = SplitMemo::new_shared(&ds, CprobTransformer::Optimal);
        let metrics = RunMetrics::default();
        assert_eq!(memo.approx_bytes(), 0);
        // A bypassed small base inserts nothing, so holds nothing.
        let small = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1, 2]), 1);
        memo.best_split(&ds, &small, &metrics);
        assert_eq!(memo.approx_bytes(), 0);
        let root = AbstractSet::full(&ds, 1);
        let result = memo.best_split(&ds, &root, &metrics);
        let one = memo.approx_bytes();
        assert_eq!(
            one,
            root.base().approx_bytes()
                + std::mem::size_of::<usize>()
                + result.preds.len() * std::mem::size_of::<AbsPredicate>()
        );
        // A hit adds no key; each new key adds its own bytes.
        memo.best_split(&ds, &root, &metrics);
        assert_eq!(memo.approx_bytes(), one);
        memo.best_split(&ds, &AbstractSet::full(&ds, 2), &metrics);
        let two = memo.approx_bytes();
        assert!(two > one);
        memo.best_split(&ds, &AbstractSet::full(&ds, 3), &metrics);
        assert!(memo.approx_bytes() > two);
        assert_eq!(memo.len(), 3);
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
    #[should_panic(expected = "TraceMemo stamped for dataset epoch 0 used against epoch 1")]
    fn trace_memo_rejects_a_mutated_dataset() {
        let ds = synth::figure2();
        let learner = SharedLearner::new(&ds, CprobTransformer::Optimal);
        assert_eq!(learner.trace_memo().dtrace(&ds, &[5.0], 1).label, 0);
        let mutated = ds
            .apply(antidote_data::DatasetDelta::new().remove(0))
            .unwrap();
        let _ = learner.trace_memo().dtrace(&mutated, &[5.0], 1);
    }
}
