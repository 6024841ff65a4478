//! The parallel, cancellation-aware execution engine (DESIGN.md §5).
//!
//! Every certification entry point used to thread an ad-hoc `Limits`
//! struct (deadline + disjunct budget) and a scatter of `Instant::now()`
//! calls through the abstract interpreter. This module replaces that
//! plumbing with one value, [`ExecContext`], which owns:
//!
//! * the **deadline** (absolute; checked cooperatively),
//! * the **disjunct budget** (the paper's out-of-memory stand-in),
//! * a **cooperative cancellation flag**, chained from parent to child so
//!   cancelling a sweep cancels every in-flight certification, while a
//!   child timing out never stalls its siblings,
//! * shared [`RunMetrics`], and
//! * the **thread count** used by [`ExecContext::par_map`].
//!
//! Parallelism is an order-preserving, chunked `par_map` on
//! `std::thread::scope` (DESIGN.md §5.1) — the build environment vendors
//! no external crates (see `shims/README.md`), so the engine provides
//! the rayon-like primitive itself. A call that fans out spawns up to
//! `threads − 1` scoped helpers, which drain a shared chunk cursor
//! beside the calling thread and are joined before the call returns.
//! `threads(1)` is the escape hatch that restores the exact sequential
//! behavior: `par_map` then runs inline, in index order, on the calling
//! thread, and single-item calls take the same inline fast path.
//!
//! # Determinism contract
//!
//! `par_map` returns results in **input order** regardless of which
//! worker computed them, so any caller that folds the results in order
//! observes output identical to a sequential run. All engine users
//! (`sweep`, `run_abstract`'s disjunct frontier, `certify_forest`,
//! `baselines::enumerate`) rely on this: parallel and sequential runs
//! return identical verdicts (timings aside).
//!
//! # Counters
//!
//! Every engine counter is one row of the `counters!` table below: its
//! doc, its [`Counter`] variant, its name, whether it aggregates by
//! [sum or max](Aggregation), and an optional tag (`metrics_op` if the
//! service `metrics` op reports it, `per_thread` if its value depends on
//! which thread ran which run). The table generates the [`RunMetrics`]
//! storage and named getters, the [`MetricsSnapshot`] fields,
//! [`RunMetrics::snapshot`] / [`RunMetrics::absorb`], and the
//! [`MetricsSnapshot::counters`] walk that the `metrics` op, every
//! benchmark artifact and the perf gate read. Adding a counter takes the
//! row plus the line that bumps it; the artifacts, the gate (every sum
//! counter) and, when tagged, the `metrics` op pick it up from the table:
//!
//! ```text
//! /// Widgets frobbed by the learner.           (a row of `counters!`)
//! WidgetsFrobbed widgets_frobbed: Sum;
//!
//! ctx.metrics().record(Counter::WidgetsFrobbed, 1);   (where it happens)
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most executors one [`ExecContext::par_map`] call runs on: the calling
/// thread plus at most 255 helpers. Bounds a runaway `threads` value
/// without limiting any realistic configuration.
const MAX_WORKERS: usize = 256;

/// [`ExecContext::par_map`] calls that fanned out, process-wide.
static FAN_OUTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide fan-out statistics of [`ExecContext::par_map`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `par_map` calls that fanned out onto helper threads (inline calls
    /// excluded).
    pub batches_dispatched: u64,
    /// Always 0: every fan-out spawns its helpers in a fresh thread scope
    /// and joins them before it returns, so no helper outlives its call
    /// to be reused by a later one.
    pub batches_reusing_workers: u64,
}

/// Fan-out statistics of [`ExecContext::par_map`] since process start.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        batches_dispatched: FAN_OUTS.load(Ordering::Relaxed),
        batches_reusing_workers: 0,
    }
}

/// How a counter folds the values recorded into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// A running total: recording and absorbing add.
    Sum,
    /// A watermark: recording and absorbing keep the larger value.
    Max,
}

/// The counter table. Each row is one [`Counter`]: its doc, the variant,
/// the field/getter/artifact name, its [`Aggregation`], and an optional
/// tag — `metrics_op` for counters the service `metrics` op reports (in
/// row order), `per_thread` for a watermark that depends on which thread
/// ran which run. Any other tag fails to compile.
macro_rules! counters {
    (@metrics_op) => { false };
    (@metrics_op metrics_op) => { true };
    (@metrics_op per_thread) => { false };
    (@per_thread) => { false };
    (@per_thread per_thread) => { true };
    (@per_thread metrics_op) => { false };
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident $name:ident: $agg:ident $(, $tag:ident)?;
    )*) => {
        /// One engine counter (a row of the table in `engine.rs`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in table order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),*];

            /// The counter's name: its getter, snapshot field and
            /// artifact key.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($name),)*
                }
            }

            /// How recorded and absorbed values fold.
            pub fn aggregation(self) -> Aggregation {
                match self {
                    $(Counter::$variant => Aggregation::$agg,)*
                }
            }

            /// Whether the service `metrics` op reports this counter.
            pub fn in_metrics_op(self) -> bool {
                match self {
                    $(Counter::$variant => counters!(@metrics_op $($tag)?),)*
                }
            }

            /// Whether the value depends on which thread ran which run:
            /// artifacts whose work lands on threads in no fixed order
            /// (the scenario matrix) leave it out.
            pub fn per_thread(self) -> bool {
                match self {
                    $(Counter::$variant => counters!(@per_thread $($tag)?),)*
                }
            }
        }

        impl RunMetrics {
            $(
                $(#[doc = $doc])*
                pub fn $name(&self) -> u64 {
                    self.get(Counter::$variant)
                }
            )*

            /// A point-in-time copy of every counter.
            ///
            /// The matrix runner gives each grid cell a context with its
            /// own `RunMetrics` (see [`ExecContext::fresh_metrics`]),
            /// snapshots it when the cell finishes, and
            /// [absorbs](RunMetrics::absorb) the snapshot into the
            /// run-wide metrics — per-cell attribution without losing the
            /// aggregate.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name(),)*
                }
            }
        }

        /// A plain-data copy of one [`RunMetrics`] at a point in time:
        /// one field per [`Counter`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $(
                $(#[doc = $doc])*
                pub $name: u64,
            )*
        }

        impl MetricsSnapshot {
            /// The value of one counter.
            fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$variant => self.$name,)*
                }
            }
        }
    };
}

counters! {
    /// Admitted service requests (certify or sweep), coalesced duplicates
    /// included: every admitted request is served exactly once.
    RequestsServed requests_served: Sum, metrics_op;
    /// Certify requests answered entirely from session state — a cached
    /// interval short-circuit, a transferred bound, or a coalesced
    /// duplicate — without a single abstract run. The service's warm
    /// path; divided by `requests_served` it is the `metrics` op's
    /// `cross_request_hit_rate`.
    CrossRequestCacheHits cross_request_cache_hits: Sum, metrics_op;
    /// Full certifier invocations: a derivation of the concrete reference
    /// label (through the ladder's or session's trace memo when one is
    /// lent, so it may read memoized tree nodes) plus a fresh abstract
    /// run. Cache hits, whether they run the abstract interpreter or not,
    /// are not counted here.
    CertifyCalls certify_calls: Sum, metrics_op;
    /// Cache hits: probes answered with cached state, either by an
    /// abstract run under the memoized reference label or fully (no
    /// abstract run: also a `cache_shortcircuits`).
    CacheHits cache_hits: Sum, metrics_op;
    /// Cache misses: probes for a point with no cached state yet (each
    /// also a `certify_calls`).
    CacheMisses cache_misses: Sum, metrics_op;
    /// Full short-circuits: probes answered from the verdict intervals
    /// or a transferred bound without running the abstract interpreter
    /// (each also a `cache_hits`).
    CacheShortcircuits cache_shortcircuits: Sum, metrics_op;
    /// Certificates transferred: per-point verdict bounds carried from a
    /// cache at epoch `e` into its successor under the sound pure-removal
    /// transfer rule (see `antidote_core::cache`).
    CacheTransfers cache_transfers: Sum, metrics_op;
    /// Certificates invalidated: cached per-point state that could not be
    /// carried across an epoch boundary (the delta appended or flipped
    /// rows, or the removals exhausted the certified budget).
    CacheInvalidations cache_invalidations: Sum, metrics_op;
    /// `bestSplit#` memo hits: frontier disjuncts whose scored-candidate
    /// sweep a removal ladder's or a session's memo answered (DESIGN.md
    /// §9.2). Always 0 on single certify calls without shared learner
    /// state and on label-flip runs.
    SplitMemoHits split_memo_hits: Sum, metrics_op;
    /// `bestSplit#` memo misses: `bestSplit#` computations, one per
    /// actual candidate sweep, on every path.
    SplitMemoMisses split_memo_misses: Sum, metrics_op;
    /// Probes the probe scheduler (DESIGN.md §13) issued: full rungs,
    /// priority-ordered partial rungs under a binding budget, and
    /// interval-tightening probes.
    ProbesScheduled probes_scheduled: Sum, metrics_op;
    /// Probes the scheduler declined because the sweep-global deadline
    /// or probe budget was exhausted.
    ProbesDeferred probes_deferred: Sum, metrics_op;
    /// Points left at their current, still sound, interval because a
    /// probe of theirs was deferred (at most one per point per sweep).
    DeadlineDegradations deadline_degradations: Sum, metrics_op;
    /// Sessions that joined a live warm unit through the process-wide
    /// `WarmStateIndex` instead of building cold caches (DESIGN.md §14).
    WarmStateSharedHits warm_state_shared_hits: Sum, metrics_op;
    /// Service sessions dropped by the LRU policy (`--max-sessions` /
    /// byte watermark) or an explicit `evict` op.
    SessionsEvicted sessions_evicted: Sum, metrics_op;
    /// Always 0: no learner interns its frontier any more (DESIGN.md
    /// §9.1). Kept only because the benchmark harness
    /// (`perfbench/src/ladder.rs`) reads this snapshot field.
    InternerHits interner_hits: Sum;
    /// Frontier disjuncts processed.
    DisjunctsProcessed disjuncts_processed: Sum;
    /// Frontier disjuncts dropped because another disjunct dominates them
    /// under the `⟨T,n⟩` partial order.
    DisjunctsSubsumed disjuncts_subsumed: Sum;
    /// Peak simultaneous disjuncts.
    PeakDisjuncts peak_disjuncts: Max;
    /// Peak memory proxy in bytes (DESIGN.md §4).
    PeakBytes peak_bytes: Max;
    /// Always 0: the learner has no scratch arena any more (DESIGN.md
    /// §10). Kept only because the benchmark harness
    /// (`perfbench/src/ladder.rs`) reads this snapshot field.
    ArenaBytes arena_bytes: Max, per_thread;
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Live metrics of one engine run: one atomic per [`Counter`], shared
/// with child contexts and updated from worker threads.
#[derive(Debug)]
pub struct RunMetrics {
    counts: [AtomicU64; Counter::ALL.len()],
}

impl Default for RunMetrics {
    fn default() -> Self {
        RunMetrics {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl RunMetrics {
    /// Records `v` into `counter`: a sum counter adds it, a watermark
    /// rises to at least `v`.
    pub fn record(&self, counter: Counter, v: u64) {
        let cell = &self.counts[counter as usize];
        match counter.aggregation() {
            Aggregation::Sum => cell.fetch_add(v, Ordering::Relaxed),
            Aggregation::Max => cell.fetch_max(v, Ordering::Relaxed),
        };
    }

    /// The current value of `counter`.
    fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize].load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 when the cache saw no probes.
    pub fn cache_hit_rate(&self) -> f64 {
        self.snapshot().cache_hit_rate()
    }

    /// Rolls a snapshot up into these metrics, each counter by its
    /// [`Aggregation`]. The inverse of carving a cell off via
    /// [`ExecContext::fresh_metrics`]: absorbing every cell's snapshot
    /// reproduces the totals a shared-metrics run would have recorded.
    pub fn absorb(&self, s: &MetricsSnapshot) {
        for (counter, v) in s.counters() {
            self.record(counter, v);
        }
    }
}

impl MetricsSnapshot {
    /// Every counter with its value, in table order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// `hits / (hits + misses)`, or 0 when the cache saw no probes.
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// Probes that ran the abstract learner — a fresh derivation or an
    /// incremental cache resume — rather than being short-circuited:
    /// `certify_calls + cache_hits − cache_shortcircuits`.
    pub fn abstract_runs(&self) -> u64 {
        self.certify_calls + self.cache_hits - self.cache_shortcircuits
    }

    /// `cross_request_cache_hits / requests_served`, or 0 before the
    /// first request.
    pub fn cross_request_hit_rate(&self) -> f64 {
        ratio(self.cross_request_cache_hits, self.requests_served)
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The earlier of two optional deadlines.
fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// Execution context for one certification run (or a whole sweep).
///
/// Cheap to clone: limits are `Copy`, the cancellation flag and metrics
/// are shared `Arc`s. Construct with [`ExecContext::new`] (all cores) or
/// [`ExecContext::sequential`], then refine with the builder methods.
///
/// ```
/// use antidote_core::engine::ExecContext;
/// use std::time::Duration;
///
/// let ctx = ExecContext::new()
///     .threads(4)
///     .timeout(Duration::from_secs(10))
///     .disjunct_budget(1 << 20);
/// assert_eq!(ctx.effective_threads(), 4);
/// assert!(!ctx.should_stop());
/// ```
#[derive(Debug, Clone)]
pub struct ExecContext {
    deadline: Option<Instant>,
    /// Earliest deadline anywhere up the ancestor chain: a parent's
    /// deadline bounds every descendant, even though each child starts
    /// its own clock.
    ancestor_deadline: Option<Instant>,
    disjunct_budget: Option<usize>,
    /// Requested worker count; 0 = all available cores.
    threads: usize,
    cancel: Arc<AtomicBool>,
    /// Cancellation flags of every ancestor, nearest-first; a raised flag
    /// anywhere in the chain cancels this context.
    ancestor_cancels: Vec<Arc<AtomicBool>>,
    metrics: Arc<RunMetrics>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new()
    }
}

impl ExecContext {
    /// A context with no limits, using every available core.
    pub fn new() -> Self {
        ExecContext {
            deadline: None,
            ancestor_deadline: None,
            disjunct_budget: None,
            threads: 0,
            cancel: Arc::new(AtomicBool::new(false)),
            ancestor_cancels: Vec::new(),
            metrics: Arc::new(RunMetrics::default()),
        }
    }

    /// A context with no limits, running strictly sequentially — the
    /// escape hatch restoring pre-engine behavior.
    pub fn sequential() -> Self {
        ExecContext::new().threads(1)
    }

    /// Sets the worker count (0 = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets an absolute deadline.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the deadline `timeout` from now. A deadline too far out for
    /// [`Instant`] to represent means no deadline.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Sets the deadline `timeout` from now, when given.
    pub fn maybe_timeout(self, timeout: Option<Duration>) -> Self {
        match timeout {
            Some(t) => self.timeout(t),
            None => self,
        }
    }

    /// Sets the maximum live disjuncts (active + terminal) per run.
    pub fn disjunct_budget(mut self, max: usize) -> Self {
        self.disjunct_budget = Some(max);
        self
    }

    /// Sets the disjunct budget, when given.
    pub fn maybe_disjunct_budget(mut self, max: Option<usize>) -> Self {
        self.disjunct_budget = max.or(self.disjunct_budget);
        self
    }

    /// A child context: a fresh cancellation flag (so the child's timeout
    /// or cancellation never stalls its siblings) with the whole ancestor
    /// chain retained — cancelling *any* ancestor, however deep the
    /// nesting, cancels the child. The parent's thread count, disjunct
    /// budget, and metrics are shared (metrics aggregate run-wide:
    /// watermarks max, counters sum). The child's *own* deadline starts
    /// unset — each child runs its own clock — but every ancestor
    /// deadline still bounds the child: a sweep given one second stops
    /// its in-flight instances at one second no matter what per-instance
    /// timeouts they carry.
    pub fn child(&self) -> ExecContext {
        let mut ancestor_cancels = Vec::with_capacity(self.ancestor_cancels.len() + 1);
        ancestor_cancels.push(self.cancel.clone());
        ancestor_cancels.extend(self.ancestor_cancels.iter().cloned());
        ExecContext {
            deadline: None,
            ancestor_deadline: min_deadline(self.deadline, self.ancestor_deadline),
            disjunct_budget: self.disjunct_budget,
            threads: self.threads,
            cancel: Arc::new(AtomicBool::new(false)),
            ancestor_cancels,
            metrics: self.metrics.clone(),
        }
    }

    /// Detaches this context from the metrics it currently shares,
    /// giving it (and every context derived from it afterwards) a fresh
    /// zeroed [`RunMetrics`].
    ///
    /// Combined with [`child`](ExecContext::child) this carves an
    /// isolated metrics scope out of a larger run — the matrix runner's
    /// per-cell attribution — while cancellation and deadlines still
    /// chain through the ancestor contexts. Roll the cell's counters
    /// back into the parent with [`RunMetrics::absorb`]:
    ///
    /// ```
    /// use antidote_core::engine::{Counter, ExecContext};
    ///
    /// let parent = ExecContext::new();
    /// let cell = parent.child().fresh_metrics();
    /// cell.metrics().record(Counter::CertifyCalls, 1);
    /// assert_eq!(parent.metrics().certify_calls(), 0); // isolated…
    /// parent.metrics().absorb(&cell.metrics().snapshot());
    /// assert_eq!(parent.metrics().certify_calls(), 1); // …then rolled up
    /// ```
    pub fn fresh_metrics(mut self) -> Self {
        self.metrics = Arc::new(RunMetrics::default());
        self
    }

    /// Requests cooperative cancellation of this context and its children.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Whether this context (or any ancestor) was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
            || self
                .ancestor_cancels
                .iter()
                .any(|p| p.load(Ordering::Acquire))
    }

    /// Whether this context's deadline — or any ancestor's — has passed.
    pub fn deadline_exceeded(&self) -> bool {
        match min_deadline(self.deadline, self.ancestor_deadline) {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Whether work should stop now (cancelled or past the deadline).
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.deadline_exceeded()
    }

    /// Whether `live` disjuncts exceed the budget.
    pub fn over_disjunct_budget(&self, live: usize) -> bool {
        self.disjunct_budget.is_some_and(|max| live > max)
    }

    /// The configured disjunct budget, if any.
    pub fn disjunct_budget_limit(&self) -> Option<usize> {
        self.disjunct_budget
    }

    /// The configured absolute deadline, if any.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline
    }

    /// Worker count to hand each child of a `fan_out`-wide parallel
    /// fan-out: when the fan-out saturates this context's workers each
    /// child steps sequentially; leftover workers are split evenly when
    /// the fan-out is narrower (so the last surviving instance of a
    /// ladder gets the whole machine for its disjunct frontier).
    pub fn child_threads_for(&self, fan_out: usize) -> usize {
        (self.effective_threads() / fan_out.max(1)).max(1)
    }

    /// The resolved worker count (≥ 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }

    /// The raw requested thread count (0 = all cores).
    pub fn requested_threads(&self) -> usize {
        self.threads
    }

    /// This run's metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Applies `f` to every item, in parallel across this context's
    /// workers, returning results in **input order**.
    ///
    /// Work distribution is a chunked atomic cursor (about four chunks per
    /// executor): up to `threads − 1` scoped helpers and the calling
    /// thread each claim the next chunk until none is left, so imbalanced
    /// items do not serialize the tail. Every helper is joined before the
    /// call returns; a helper that fails to spawn only means fewer
    /// executors.
    ///
    /// With one effective thread **or one item** it runs inline on the
    /// calling thread, in index order, spawning nothing — the
    /// `threads(1)` escape hatch and the single-item fast path.
    ///
    /// Cancellation is cooperative: `f` is still invoked for every index
    /// (the result length always equals `items.len()`), so `f` should
    /// consult [`ExecContext::should_stop`] early when it can be
    /// expensive.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f`, with its original payload, once every
    /// executor has stopped; results computed so far are dropped.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let threads = self.effective_threads().min(items.len()).min(MAX_WORKERS);
        if threads <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        FAN_OUTS.fetch_add(1, Ordering::Relaxed);
        let chunk = (items.len() / (threads * 4)).max(1);
        // Relaxed suffices: the cursor only hands out disjoint index
        // ranges, and each executor's results reach the caller through
        // its join.
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut done = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= items.len() {
                    return done;
                }
                let end = (start + chunk).min(items.len());
                let results: Vec<R> = (start..end).map(|i| f(i, &items[i])).collect();
                done.push((start, results));
            }
        };
        let mut chunks = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads)
                .map_while(|_| std::thread::Builder::new().spawn_scoped(s, drain).ok())
                .collect();
            let own = catch_unwind(AssertUnwindSafe(drain));
            let mut chunks = Vec::new();
            let mut panic = None;
            for outcome in std::iter::once(own).chain(helpers.into_iter().map(|h| h.join())) {
                match outcome {
                    Ok(done) => chunks.extend(done),
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
            // Re-raised by hand: a helper left unjoined would surface as
            // the scope's generic "a scoped thread panicked" instead.
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
            chunks
        });
        chunks.sort_unstable_by_key(|&(start, _)| start);
        chunks
            .into_iter()
            .flat_map(|(_, results)| results)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let ctx = ExecContext::new().threads(8);
        let items: Vec<usize> = (0..500).collect();
        let out = ctx.par_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(out, (0..500).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_results_land_in_input_slots() {
        // 1000 items at 4 executors: chunks of 62, the last one ragged.
        let items: Vec<usize> = (0..1000).collect();
        let out = ExecContext::new().threads(4).par_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * 3
        });
        assert_eq!(out, (0..1000).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_escape_hatch_runs_inline() {
        let ctx = ExecContext::sequential();
        assert_eq!(ctx.effective_threads(), 1);
        let caller = std::thread::current().id();
        let out = ctx.par_map(&[1, 2, 3], |_, &v| {
            assert_eq!(std::thread::current().id(), caller);
            v + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_equals_sequential() {
        let items: Vec<u64> = (0..237).collect();
        let f = |_: usize, &v: &u64| v.wrapping_mul(0x9E37).rotate_left(7);
        let seq = ExecContext::sequential().par_map(&items, f);
        let par = ExecContext::new().threads(7).par_map(&items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_inputs() {
        let ctx = ExecContext::new().threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(ctx.par_map(&empty, |_, &v| v).is_empty());
        assert_eq!(ctx.par_map(&[9], |_, &v| v), vec![9]);
    }

    #[test]
    fn inline_fast_path_never_touches_the_pool() {
        // Regression: threads(1) calls, single-item calls, and empty
        // calls must run inline, on the calling thread.
        let caller = std::thread::current().id();
        let on_caller = |_: usize, &v: &u32| {
            assert_eq!(std::thread::current().id(), caller);
            v
        };
        let items: Vec<u32> = (0..64).collect();
        assert_eq!(ExecContext::sequential().par_map(&items, on_caller), items);
        let ctx = ExecContext::new().threads(4);
        assert_eq!(ctx.par_map(&[7u32], on_caller), vec![7]);
        let empty: Vec<u32> = Vec::new();
        let _ = ctx.par_map(&empty, |_, _: &u32| -> u32 { unreachable!("no items") });
        // A real fan-out is counted (process-wide, so other tests may add
        // to the count concurrently).
        let before = pool_stats().batches_dispatched;
        let _ = ctx.par_map(&items, |_, &v| v);
        assert!(pool_stats().batches_dispatched > before);
        assert_eq!(pool_stats().batches_reusing_workers, 0);
    }

    #[test]
    fn panic_reaches_the_caller_with_its_message() {
        // Two items on two executors, each item waiting at a barrier until
        // the other has started: the caller and the helper each run
        // exactly one. Either executor's panic must reach the caller
        // with its own message.
        let caller = std::thread::current().id();
        for panic_on_caller in [true, false] {
            let barrier = std::sync::Barrier::new(2);
            let result = catch_unwind(AssertUnwindSafe(|| {
                ExecContext::new().threads(2).par_map(&[0u8, 1], |_, _| {
                    barrier.wait();
                    let on_caller = std::thread::current().id() == caller;
                    assert!(on_caller != panic_on_caller, "boom on caller={on_caller}");
                })
            }));
            let payload = result.expect_err("the item's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>(),
                Some(&format!("boom on caller={panic_on_caller}"))
            );
        }
    }

    #[test]
    fn panic_path_drops_completed_results() {
        struct Tracked<'a>(&'a AtomicUsize);
        impl Drop for Tracked<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let returned = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            ExecContext::new().threads(4).par_map(&items, |_, &v| {
                assert!(v != 17, "engineered failure");
                returned.fetch_add(1, Ordering::Relaxed);
                Tracked(&dropped)
            })
        }));
        assert!(result.is_err());
        assert!(returned.load(Ordering::Relaxed) > 0);
        assert_eq!(
            dropped.load(Ordering::Relaxed),
            returned.load(Ordering::Relaxed),
            "every result computed before the panic must be dropped, not leaked"
        );
    }

    #[test]
    fn nested_par_map_completes() {
        let ctx = ExecContext::new().threads(4);
        let outer: Vec<usize> = (0..16).collect();
        let inner: Vec<usize> = (0..32).collect();
        let out = ctx.par_map(&outer, |_, &v| {
            ctx.par_map(&inner, |_, &w| w + v).iter().sum::<usize>()
        });
        let base = (0..32).sum::<usize>();
        assert_eq!(out, outer.iter().map(|v| base + 32 * v).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_propagates_to_children_not_siblings() {
        let parent = ExecContext::new();
        let a = parent.child();
        let b = parent.child();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        // A child cancelling itself does not affect its sibling…
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
        assert!(!parent.is_cancelled());
        // …while the parent cancelling reaches every child.
        parent.cancel();
        assert!(b.is_cancelled());
        assert!(parent.child().is_cancelled());
    }

    #[test]
    fn cancellation_crosses_generations() {
        // A root cancel must reach arbitrarily deep descendants (sweeps
        // nested under caller-provided contexts spawn grandchildren).
        let root = ExecContext::new();
        let grandchild = root.child().child();
        let great = grandchild.child();
        assert!(!great.is_cancelled());
        root.cancel();
        assert!(grandchild.is_cancelled());
        assert!(great.is_cancelled());
        // A mid-chain cancel reaches down but never up.
        let root = ExecContext::new();
        let mid = root.child();
        let leaf = mid.child();
        mid.cancel();
        assert!(leaf.is_cancelled());
        assert!(!root.is_cancelled());
    }

    #[test]
    fn children_share_run_metrics() {
        // Metrics aggregate run-wide: a child's watermarks and counters
        // land on the parent's RunMetrics.
        let parent = ExecContext::new();
        let child = parent.child().child();
        child.metrics().record(Counter::PeakDisjuncts, 42);
        child.metrics().record(Counter::DisjunctsProcessed, 7);
        assert_eq!(parent.metrics().peak_disjuncts(), 42);
        assert_eq!(parent.metrics().disjuncts_processed(), 7);
    }

    #[test]
    fn deadline_and_budget_checks() {
        let ctx = ExecContext::new().timeout(Duration::ZERO);
        assert!(ctx.deadline_exceeded());
        assert!(ctx.should_stop());
        let ctx = ExecContext::new().disjunct_budget(4);
        assert!(!ctx.over_disjunct_budget(4));
        assert!(ctx.over_disjunct_budget(5));
        assert!(!ExecContext::new().over_disjunct_budget(usize::MAX));
        // Children inherit the budget; their own deadline clock starts
        // unset, but every ancestor deadline still bounds them.
        let parent = ExecContext::new()
            .timeout(Duration::ZERO)
            .disjunct_budget(7);
        let child = parent.child();
        assert_eq!(child.disjunct_budget_limit(), Some(7));
        assert!(child.deadline_at().is_none());
        assert!(
            child.deadline_exceeded(),
            "an expired ancestor deadline must stop the child"
        );
        assert!(child.child().deadline_exceeded(), "…at any depth");
        // A generous ancestor deadline does not trip children; the
        // earliest deadline along the chain is the binding one.
        let parent = ExecContext::new().timeout(Duration::from_secs(3600));
        let child = parent.child().timeout(Duration::ZERO);
        assert!(!parent.deadline_exceeded());
        assert!(child.deadline_exceeded(), "own clock still applies");
        assert!(!parent.child().deadline_exceeded());
    }

    #[test]
    fn certifier_limits_survive_a_plain_context() {
        // certify_in must fall back to the builder's limits when the
        // supplied context carries none (sharing only cancellation and
        // metrics must not drop a configured timeout/budget).
        let ds = antidote_data::synth::figure2();
        let out = crate::Certifier::new(&ds)
            .depth(3)
            .domain(crate::DomainKind::Disjuncts)
            .timeout(Duration::ZERO)
            .certify_in(&[5.0], 2, &ExecContext::new());
        assert_eq!(out.verdict, crate::Verdict::Timeout);
        let out = crate::Certifier::new(&ds)
            .depth(4)
            .domain(crate::DomainKind::Disjuncts)
            .max_live_disjuncts(1)
            .certify_in(&[5.0], 4, &ExecContext::new());
        assert_eq!(out.verdict, crate::Verdict::DisjunctBudget);
        // A context-carried limit still wins over the builder's.
        let out = crate::Certifier::new(&ds)
            .depth(1)
            .timeout(Duration::ZERO)
            .certify_in(
                &[5.0],
                0,
                &ExecContext::new().timeout(Duration::from_secs(3600)),
            );
        assert_eq!(out.verdict, crate::Verdict::Robust);
    }

    #[test]
    fn maybe_builders() {
        let ctx = ExecContext::new()
            .maybe_timeout(None)
            .maybe_disjunct_budget(None);
        assert!(ctx.deadline_at().is_none());
        assert!(ctx.disjunct_budget_limit().is_none());
        let ctx = ctx
            .maybe_timeout(Some(Duration::from_secs(3600)))
            .maybe_disjunct_budget(Some(10));
        assert!(ctx.deadline_at().is_some());
        assert_eq!(ctx.disjunct_budget_limit(), Some(10));
        assert!(!ctx.should_stop());
    }

    #[test]
    fn metrics_watermarks_and_counters() {
        let ctx = ExecContext::new().threads(3);
        ctx.metrics().record(Counter::PeakDisjuncts, 5);
        ctx.metrics().record(Counter::PeakDisjuncts, 3);
        ctx.metrics().record(Counter::PeakBytes, 100);
        ctx.metrics().record(Counter::DisjunctsProcessed, 17);
        assert_eq!(ctx.metrics().peak_disjuncts(), 5);
        assert_eq!(ctx.metrics().peak_bytes(), 100);
        assert_eq!(ctx.metrics().disjuncts_processed(), 17);
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        let ctx = ExecContext::new();
        assert_eq!(ctx.metrics().cache_hit_rate(), 0.0, "no probes yet");
        ctx.metrics().record(Counter::CertifyCalls, 1);
        ctx.metrics().record(Counter::CacheMisses, 1);
        ctx.metrics().record(Counter::CacheHits, 3);
        ctx.metrics().record(Counter::CacheShortcircuits, 1);
        assert_eq!(ctx.metrics().certify_calls(), 1);
        assert_eq!(ctx.metrics().cache_hits(), 3);
        assert_eq!(ctx.metrics().cache_shortcircuits(), 1);
        assert_eq!(ctx.metrics().cache_misses(), 1);
        assert!((ctx.metrics().cache_hit_rate() - 0.75).abs() < 1e-12);
        // Children aggregate into the same run-wide counters.
        let child = ctx.child();
        child.metrics().record(Counter::CacheHits, 1);
        assert_eq!(ctx.metrics().cache_hits(), 4);
        // Epoch-boundary counters flow through snapshot and absorb too.
        ctx.metrics().record(Counter::CacheTransfers, 2);
        ctx.metrics().record(Counter::CacheInvalidations, 1);
        assert_eq!(ctx.metrics().cache_transfers(), 2);
        assert_eq!(ctx.metrics().cache_invalidations(), 1);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.cache_transfers, 2);
        assert_eq!(snap.cache_invalidations, 1);
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().cache_transfers(), 2);
        assert_eq!(parent.metrics().cache_invalidations(), 1);
    }

    #[test]
    fn fresh_metrics_isolates_and_absorb_rolls_up() {
        let parent = ExecContext::new();
        parent.metrics().record(Counter::CertifyCalls, 1);
        parent.metrics().record(Counter::PeakDisjuncts, 3);
        // A detached child starts from zero and leaks nothing upward…
        let cell = parent.child().fresh_metrics();
        assert_eq!(cell.metrics().certify_calls(), 0);
        for (counter, v) in [
            (Counter::CertifyCalls, 1),
            (Counter::CacheHits, 1),
            (Counter::CacheMisses, 1),
            (Counter::CacheShortcircuits, 1),
            (Counter::DisjunctsProcessed, 10),
            (Counter::DisjunctsSubsumed, 2),
            (Counter::PeakDisjuncts, 9),
            (Counter::PeakBytes, 128),
        ] {
            cell.metrics().record(counter, v);
        }
        assert_eq!(parent.metrics().certify_calls(), 1);
        assert_eq!(parent.metrics().peak_disjuncts(), 3);
        // …its grandchildren share the detached scope, not the parent's…
        cell.child().metrics().record(Counter::CacheHits, 1);
        assert_eq!(cell.metrics().cache_hits(), 2);
        assert_eq!(parent.metrics().cache_hits(), 0);
        // …and cancellation still chains through the ancestor contexts.
        parent.cancel();
        assert!(cell.is_cancelled());

        // Rolling the snapshot up: counters add, watermarks max.
        let snap = cell.metrics().snapshot();
        assert_eq!(snap.certify_calls, 1);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.disjuncts_processed, 10);
        assert!((snap.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().certify_calls(), 2);
        assert_eq!(parent.metrics().cache_hits(), 2);
        assert_eq!(parent.metrics().cache_misses(), 1);
        assert_eq!(parent.metrics().cache_shortcircuits(), 1);
        assert_eq!(parent.metrics().disjuncts_processed(), 10);
        assert_eq!(parent.metrics().disjuncts_subsumed(), 2);
        assert_eq!(parent.metrics().peak_disjuncts(), 9, "watermark raised");
        assert_eq!(parent.metrics().peak_bytes(), 128);
        // Absorbing a lower watermark never lowers the parent's.
        parent.metrics().absorb(&MetricsSnapshot {
            peak_disjuncts: 1,
            ..MetricsSnapshot::default()
        });
        assert_eq!(parent.metrics().peak_disjuncts(), 9);
        // Snapshot equality is plain-data equality.
        assert_eq!(snap, cell.metrics().snapshot());
        assert_eq!(MetricsSnapshot::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn every_counter_records_snapshots_and_absorbs_by_its_aggregation() {
        // One pass over the whole table: two recordings (the larger
        // first, so a watermark must ignore the second), a snapshot, then
        // two absorbs. A sum counter doubles its total; a watermark keeps
        // the larger value. The named getter, the snapshot field (read
        // through `get`) and the iterator's entry must agree.
        let ctx = ExecContext::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let v = 10 + i as u64;
            ctx.metrics().record(c, v);
            ctx.metrics().record(c, 1);
        }
        let snap = ctx.metrics().snapshot();
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        parent.metrics().absorb(&snap);
        let rolled = parent.metrics().snapshot();
        let entries: Vec<(Counter, u64)> = rolled.counters().collect();
        assert_eq!(entries.len(), Counter::ALL.len());
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let v = 10 + i as u64;
            let (recorded, absorbed) = match c.aggregation() {
                Aggregation::Sum => (v + 1, 2 * (v + 1)),
                Aggregation::Max => (v, v),
            };
            assert_eq!(ctx.metrics().get(c), recorded, "{c}");
            assert_eq!(snap.get(c), recorded, "{c}");
            assert_eq!(parent.metrics().get(c), absorbed, "{c}");
            assert_eq!(entries[i], (c, absorbed), "{c}: iterator entry");
            assert_eq!(rolled.get(c), absorbed, "{c}: snapshot field");
        }
        // The named getters and fields are the same storage as `get`.
        let m = parent.metrics();
        assert_eq!(m.certify_calls(), rolled.certify_calls);
        assert_eq!(m.certify_calls(), m.get(Counter::CertifyCalls));
        assert_eq!(m.arena_bytes(), rolled.arena_bytes);
        assert_eq!(m.arena_bytes(), m.get(Counter::ArenaBytes));
        assert_eq!(m.sessions_evicted(), rolled.sessions_evicted);
        // Names are unique, and the three watermarks are exactly these.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        let max: Vec<&str> = Counter::ALL
            .iter()
            .filter(|c| c.aggregation() == Aggregation::Max)
            .map(|c| c.name())
            .collect();
        assert_eq!(max, ["peak_disjuncts", "peak_bytes", "arena_bytes"]);
    }

    #[test]
    fn memo_and_interner_counters_snapshot_and_absorb() {
        let ctx = ExecContext::new();
        ctx.metrics().record(Counter::SplitMemoHits, 1);
        ctx.metrics().record(Counter::SplitMemoHits, 1);
        ctx.metrics().record(Counter::SplitMemoMisses, 1);
        ctx.metrics().record(Counter::InternerHits, 5);
        ctx.metrics().record(Counter::ArenaBytes, 4096);
        ctx.metrics().record(Counter::ArenaBytes, 1024); // lower: no effect
        assert_eq!(ctx.metrics().split_memo_hits(), 2);
        assert_eq!(ctx.metrics().split_memo_misses(), 1);
        assert_eq!(ctx.metrics().interner_hits(), 5);
        assert_eq!(ctx.metrics().arena_bytes(), 4096);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.split_memo_hits, 2);
        assert_eq!(snap.split_memo_misses, 1);
        assert_eq!(snap.interner_hits, 5);
        assert_eq!(snap.arena_bytes, 4096);
        // Absorb adds the counters and maxes the watermarks.
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().split_memo_hits(), 4);
        assert_eq!(parent.metrics().split_memo_misses(), 2);
        assert_eq!(parent.metrics().interner_hits(), 10);
        assert_eq!(parent.metrics().arena_bytes(), 4096, "watermark maxes");
    }

    #[test]
    fn service_counters_snapshot_and_absorb() {
        let ctx = ExecContext::new();
        ctx.metrics().record(Counter::RequestsServed, 1);
        ctx.metrics().record(Counter::RequestsServed, 1);
        ctx.metrics().record(Counter::CrossRequestCacheHits, 1);
        assert_eq!(ctx.metrics().requests_served(), 2);
        assert_eq!(ctx.metrics().cross_request_cache_hits(), 1);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.requests_served, 2);
        assert_eq!(snap.cross_request_cache_hits, 1);
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().requests_served(), 4);
        assert_eq!(parent.metrics().cross_request_cache_hits(), 2);
    }

    #[test]
    fn scheduler_counters_snapshot_and_absorb() {
        let ctx = ExecContext::new();
        ctx.metrics().record(Counter::ProbesScheduled, 5);
        ctx.metrics().record(Counter::ProbesDeferred, 2);
        ctx.metrics().record(Counter::DeadlineDegradations, 1);
        assert_eq!(ctx.metrics().probes_scheduled(), 5);
        assert_eq!(ctx.metrics().probes_deferred(), 2);
        assert_eq!(ctx.metrics().deadline_degradations(), 1);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.probes_scheduled, 5);
        assert_eq!(snap.probes_deferred, 2);
        assert_eq!(snap.deadline_degradations, 1);
        // Absorbing adds: the matrix's per-cell scheduler activity rolls
        // up into the run-wide totals like every other counter.
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().probes_scheduled(), 10);
        assert_eq!(parent.metrics().probes_deferred(), 4);
        assert_eq!(parent.metrics().deadline_degradations(), 2);
    }

    #[test]
    fn an_unrepresentable_timeout_means_no_deadline() {
        let ctx = ExecContext::new().timeout(Duration::MAX);
        assert_eq!(ctx.deadline_at(), None);
        assert!(!ctx.should_stop());
        assert!(!ctx.child().should_stop());
        let ctx = ExecContext::new().maybe_timeout(Some(Duration::MAX));
        assert_eq!(ctx.deadline_at(), None);
        assert!(!ctx.should_stop());
    }

    #[test]
    fn cancellation_is_cooperative_mid_par_map() {
        let ctx = ExecContext::new().threads(4);
        let items: Vec<usize> = (0..100).collect();
        let seen = AtomicUsize::new(0);
        // f observes should_stop() after the first item cancels; results
        // still come back for every index.
        let out = ctx.par_map(&items, |i, _| {
            if i == 0 {
                ctx.cancel();
            }
            if ctx.should_stop() {
                return 0usize;
            }
            seen.fetch_add(1, Ordering::Relaxed);
            1
        });
        assert_eq!(out.len(), 100);
        assert!(ctx.is_cancelled());
    }
}
