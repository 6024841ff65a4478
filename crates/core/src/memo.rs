//! Per-certify-call memoization of `bestSplit#` (DESIGN.md §9.2).
//!
//! The abstract learner's dominant cost is the per-feature
//! scored-candidates sweep behind [`best_split_abs`], re-run for every
//! live disjunct at every depth iteration. Frontier deduplication removes
//! exact duplicates *within* one iteration, but identical `⟨T, n⟩` states
//! recur **across** iterations — same-feature threshold restrictions
//! compose (`T↓x≤a↓x≤b = T↓x≤min(a,b)`), budget clamping collapses deep
//! fragments onto the same `n`, and Hybrid joins can reproduce earlier
//! states. [`SplitMemo`] caches the full `bestSplit#` result per
//! `(base, n)` within one certification run, so recurring states skip the
//! sweep entirely.
//!
//! # Keying and soundness
//!
//! A table is built per certify call with the call's `cprob#` transformer
//! fixed, so the effective key is `(interned base payload, n,
//! transformer)`. `best_split_abs` is a *pure, deterministic* function of
//! exactly that key (the test input `x` only enters `filter#`, after the
//! split set is chosen), so a memo hit returns the bit-identical
//! [`AbsSplitResult`] — same candidate order, same predicates, same ⋄
//! flag — that a recompute would produce. Memoized and memo-free runs
//! therefore produce identical ladders and verdicts (pinned by the
//! memo-on/off rows of `crates/core/tests/determinism.rs`); `--no-memo`
//! is the escape hatch mirroring `--no-cache`/`--no-subsume`. The one
//! caveat is shared with every accelerator in this codebase: under a
//! binding wall-clock timeout, a faster memoized run can finish where a
//! memo-free run times out.
//!
//! Keys are hash-consed [`Subset`]s (clone = refcount bump, `Hash` =
//! precomputed content hash), so a probe costs O(1) plus one short lock.
//!
//! # Deterministic hit/miss accounting
//!
//! Within one run, all frontier disjuncts of one iteration are distinct
//! after dedup, so concurrent workers never race on the *same* key — but
//! Hybrid joins can occasionally reintroduce a duplicate into one batch.
//! The table reconciles at insert time: a computed value that finds the
//! key already present is counted as a **hit** (and the stored value
//! returned), keeping the invariant *hits = probes − misses* at every
//! thread count, which the perf gate relies on. An admission guard
//! (see [`SplitMemo::best_split`]) routes small-base probes around the
//! table — those run the sweep directly and count as misses, exactly as
//! a cold table would have charged them.

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
    /// deterministically (insert-time reconciliation). With
    /// `admit_insert: false` the probe still consults the table (a
    /// present key is a hit) but a miss recomputes without storing —
    /// the caller has decided this state is not worth retaining.
    fn get_or_compute<F: FnOnce() -> V>(
        &self,
        key: (Subset, usize),
        compute: F,
        admit_insert: bool,
        metrics: &RunMetrics,
    ) -> Arc<V> {
        if let Some(hit) = self.table.lock().expect("memo lock poisoned").get(&key) {
            metrics.record(Counter::SplitMemoHits, 1);
            return hit.clone();
        }
        if !admit_insert {
            metrics.record(Counter::SplitMemoMisses, 1);
            return Arc::new(compute());
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

    /// Number of distinct keys memoized (= total misses recorded).
    fn len(&self) -> usize {
        self.table.lock().expect("memo lock poisoned").len()
    }
}

/// The removal-model `bestSplit#` memo: one table per certify call, with
/// the call's transformer fixed at construction and the table stamped
/// with the dataset epoch it was built against — memoized split results
/// describe one training set, and consulting them across a mutation
/// would be unsound (DESIGN.md §11).
#[derive(Debug)]
pub struct SplitMemo {
    transformer: CprobTransformer,
    epoch: u64,
    /// `true` for session-shared memos: entries are inserted at every
    /// frontier depth (see [`SplitMemo::new_shared`]); `false` for the
    /// per-certify-call memo, which only retains shallow states.
    insert_all_depths: bool,
    inner: KeyedMemo<AbsSplitResult>,
}

impl SplitMemo {
    /// An empty memo for **one** certify call over `ds` under
    /// `transformer`, stamped with `ds`'s current epoch. Insert
    /// admission is depth-gated (see [`SplitMemo::best_split`]).
    pub fn new(ds: &Dataset, transformer: CprobTransformer) -> Self {
        SplitMemo {
            transformer,
            epoch: ds.epoch(),
            insert_all_depths: false,
            inner: KeyedMemo::default(),
        }
    }

    /// An empty memo for a session's [`SharedLearner`], stamped with
    /// `ds`'s current epoch. Shared memos insert at **every** frontier
    /// depth: retention pays off across the whole request stream, and —
    /// more importantly — insert-everywhere is what keeps hit/miss
    /// accounting order-invariant when *concurrent* certify calls probe
    /// the same key (both racers insert, the collision reconciles to a
    /// hit; a depth-gated lookup racing a concurrent insert would count
    /// hit or miss depending on timing).
    pub fn new_shared(ds: &Dataset, transformer: CprobTransformer) -> Self {
        SplitMemo {
            transformer,
            epoch: ds.epoch(),
            insert_all_depths: true,
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
    /// Profiling depth-3 disjunctive runs showed memo hits land only on
    /// sizeable bases — recurring `⟨T, n⟩` states come from same-feature
    /// threshold compositions near the root (every hit in the 200-row
    /// split bench uses a base of ≥ 101 rows; the 150-row iris-like
    /// learner test's hits bottom out at 51 ≈ |D|/3) — while the bulk
    /// of misses are small deep fragments whose sparse-path sweep is
    /// cheaper than the key clone + two lock rounds + `Arc` insert a
    /// memoized miss pays. Guarded-out probes run the sweep directly and
    /// still count as misses, so `misses = probes − hits` holds at every
    /// thread count and the depth-2 perf-gate counters are untouched (a
    /// depth-2 frontier has no recurring states: every probe is a miss
    /// either way).
    const ADMIT_DIVISOR: usize = 3;

    /// Insert guard for per-certify-call memos: retain only states first
    /// probed at frontier depth < 2 (the root and its direct children).
    ///
    /// The recurrences the memo exists for are composition collapses —
    /// `T↓x≤a↓x≤b = T↓x≤b` re-derives a depth-1 state at depth ≥ 2 — so
    /// every observed hit re-probes a state already seen by depth 1.
    /// The original guard admitted *any* large-enough base at any depth,
    /// and a depth-3 run retained thousands of never-again-probed deep
    /// `Arc<AbsSplitResult>`s; the split bench measured that retention
    /// as a net regression (`certify_memo_ms` 395 ms vs 375 ms memo-free
    /// at 42 hits / 3,885 misses). Depth-gating the *insert* (lookups
    /// still run at every depth, so collapsed re-derivations still hit)
    /// bounds the table to the shallow states that actually recur; the
    /// split bench records both timings in `BENCH_split.json`. Determinism: a
    /// local memo serves one run, iterations are barriers, and frontier
    /// dedup keeps same-iteration keys distinct, so whether a probe's
    /// key was inserted is a pure function of the trace — hit/miss
    /// counts stay thread-invariant. Session-shared memos keep
    /// insert-everywhere semantics (see [`SplitMemo::new_shared`]).
    const INSERT_DEPTH_LIMIT: usize = 2;

    /// `bestSplit#(a)` through the memo, probing from a frontier
    /// disjunct at 0-based iteration `depth`: the first *admitted* probe
    /// per `(base, n)` runs the scored-candidates sweep, every later
    /// probe returns the stored result; small-base probes bypass the
    /// table entirely and deep probes of a per-call memo consult it
    /// without inserting (see `ADMIT_DIVISOR` / `INSERT_DEPTH_LIMIT`
    /// above). `bestSplit#` results are pure functions of `(base, n)`
    /// *on one training set*; a memo consulted against a different epoch
    /// would silently return splits scored on stale data, so the stamp
    /// check is a hard assert, active in release builds too.
    pub fn best_split(
        &self,
        ds: &Dataset,
        a: &AbstractSet,
        depth: usize,
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
        let admit_insert = self.insert_all_depths || depth < Self::INSERT_DEPTH_LIMIT;
        self.inner.get_or_compute(
            (a.base().clone(), a.n()),
            || best_split_abs(ds, a, self.transformer),
            admit_insert,
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
/// A one-shot run builds a [`SplitMemo`] and a
/// [`SubsetInterner`](antidote_data::SubsetInterner) inside
/// `run_abstract` and drops them on return, so recurring `⟨T, n⟩` states
/// across *requests* re-run the candidate sweep from scratch. A
/// [`crate::session::Session`] instead owns one `SharedLearner` per
/// (dataset epoch, config) and lends it to every certify call via
/// `Certifier::shared_state`, so the memo and the hash-cons table warm up
/// over the whole request stream.
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
    epoch: u64,
    memo: Option<SplitMemo>,
    interner: Mutex<antidote_data::SubsetInterner>,
}

impl SharedLearner {
    /// Shared state for `ds`'s current epoch. `memo: false` (the
    /// `--no-memo` regime) keeps the interner but routes every
    /// `bestSplit#` probe straight to the sweep.
    pub fn new(ds: &Dataset, transformer: CprobTransformer, memo: bool) -> Self {
        SharedLearner {
            epoch: ds.epoch(),
            memo: memo.then(|| SplitMemo::new_shared(ds, transformer)),
            interner: Mutex::new(antidote_data::SubsetInterner::new()),
        }
    }

    /// The dataset epoch this state is valid for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared `bestSplit#` memo, when memoization is armed.
    pub fn memo(&self) -> Option<&SplitMemo> {
        self.memo.as_ref()
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
            true,
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
        let memo = SplitMemo::new(&ds, CprobTransformer::Optimal);
        let metrics = RunMetrics::default();
        let a = AbstractSet::full(&ds, 2);
        let first = memo.best_split(&ds, &a, 0, &metrics);
        let direct = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert_eq!(*first, direct, "memoized result equals the direct sweep");
        assert_eq!(metrics.split_memo_misses(), 1);
        assert_eq!(metrics.split_memo_hits(), 0);
        // A re-probe (same base payload, same n) hits and shares the Arc.
        let again = memo.best_split(&ds, &a.clone(), 0, &metrics);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(metrics.split_memo_hits(), 1);
        // An equal-but-distinct allocation still hits (content keying)...
        let rebuilt = AbstractSet::full(&ds, 2);
        let third = memo.best_split(&ds, &rebuilt, 0, &metrics);
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(metrics.split_memo_hits(), 2);
        // ...while a different budget is a distinct key.
        let wide = a.with_budget(3);
        let other = memo.best_split(&ds, &wide, 0, &metrics);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(memo.len(), 2);
        assert_eq!(metrics.split_memo_misses(), 2);
        assert!(!memo.is_empty());
    }

    #[test]
    fn deep_probes_consult_but_only_shallow_probes_insert() {
        let ds = synth::figure2();
        let metrics = RunMetrics::default();
        let a = AbstractSet::full(&ds, 2);
        // Local memo: a depth-2 probe recomputes without retaining...
        let local = SplitMemo::new(&ds, CprobTransformer::Optimal);
        let first = local.best_split(&ds, &a, 2, &metrics);
        assert!(local.is_empty());
        assert_eq!(metrics.split_memo_misses(), 1);
        // ...but once a shallow probe inserted the state, deep
        // re-probes (the composition-collapse recurrences) still hit.
        let shallow = local.best_split(&ds, &a, 1, &metrics);
        assert!(!Arc::ptr_eq(&first, &shallow));
        let deep = local.best_split(&ds, &a, 2, &metrics);
        assert!(Arc::ptr_eq(&shallow, &deep));
        assert_eq!(metrics.split_memo_hits(), 1);
        assert_eq!(metrics.split_memo_misses(), 2);
        // Session-shared memos insert at every depth (order-invariant
        // accounting under concurrent certify calls; see new_shared).
        let shared = SplitMemo::new_shared(&ds, CprobTransformer::Optimal);
        let s1 = shared.best_split(&ds, &a, 5, &metrics);
        assert_eq!(shared.len(), 1);
        let s2 = shared.best_split(&ds, &a, 0, &metrics);
        assert!(Arc::ptr_eq(&s1, &s2));
    }

    #[test]
    fn small_bases_bypass_the_table_but_still_count_misses() {
        let ds = synth::figure2(); // 13 rows: the size guard needs ≥ 5
        let memo = SplitMemo::new(&ds, CprobTransformer::Optimal);
        let metrics = RunMetrics::default();
        let small = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1, 2]), 1);
        let first = memo.best_split(&ds, &small, 0, &metrics);
        let again = memo.best_split(&ds, &small, 0, &metrics);
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
        let b1 = memo.best_split(&ds, &big, 0, &metrics);
        let b2 = memo.best_split(&ds, &big, 0, &metrics);
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
        let memo = SplitMemo::new(&ds, CprobTransformer::Optimal);
        assert_eq!(memo.epoch(), 0);
        let mutated = ds
            .apply(antidote_data::DatasetDelta::new().remove(0))
            .unwrap();
        let a = AbstractSet::full(&mutated, 1);
        let _ = memo.best_split(&mutated, &a, 0, &RunMetrics::default());
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
