//! The evaluation protocol of §6.1: an n-doubling ladder with
//! binary-search refinement.
//!
//! For each test element the paper starts at `n = 1`, proves what it can,
//! doubles `n` for the surviving elements, and — once everything fails —
//! binary-searches between the last all-failing and last partially-passing
//! budgets to localise the frontier. [`sweep`] implements that protocol for
//! a whole test set at once and records, per probed `n`, the quantities the
//! paper plots: the number verified, average certification time, and
//! average peak memory (Figures 6–11). [`flip_sweep`] runs the same ladder
//! body under the label-flip threat model; only the per-point prover
//! differs.
//!
//! Every removal ladder threads a [`CertCache`] through its rungs and
//! shares one `bestSplit#` memo across its points, and every ladder lets
//! a [`ProbeScheduler`] plan its rungs. None of them moves a ladder: the
//! probed budgets and per-rung counts equal those of per-probe
//! [`Certifier::certify_in`] (pinned in `tests/determinism.rs`).

use crate::cache::CertCache;
use crate::certify::{Certifier, Outcome, Verdict};
use crate::engine::ExecContext;
use crate::flip::certify_label_flips;
use crate::learner::DomainKind;
use crate::memo::SharedLearner;
use crate::sched::ProbeScheduler;
use antidote_data::Dataset;
use antidote_domains::CprobTransformer;
use std::collections::BTreeSet;
use std::time::Duration;

/// Configuration for one sweep (one dataset × depth × domain series).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Maximum trace depth `d`.
    pub depth: usize,
    /// Abstract state domain.
    pub domain: DomainKind,
    /// `cprob#` transformer.
    pub transformer: CprobTransformer,
    /// Per-instance timeout (the paper uses one hour; the harness default
    /// is much smaller so full sweeps finish on a laptop). Each instance
    /// gets its own deadline, started when its certification starts, so
    /// one timeout cannot stall the rest of the ladder.
    pub timeout: Option<Duration>,
    /// Disjunct budget per instance (out-of-memory stand-in).
    pub max_live_disjuncts: Option<usize>,
    /// First probed budget (paper: 1).
    pub start_n: usize,
    /// Upper bound on probed budgets (defaults to `|T|`).
    pub max_n: Option<usize>,
    /// Whether to binary-search between the last success and the first
    /// total failure (§6.1 step 3).
    pub binary_search: bool,
    /// Worker count for fanning test points across the engine
    /// (0 = all available cores, 1 = the sequential escape hatch).
    /// With no timeout or disjunct budget configured, verified/attempted
    /// counts are identical at every thread count; under a wall-clock
    /// timeout, instances near the deadline can tip either way as core
    /// contention shifts timings.
    pub threads: usize,
    /// One wall-clock deadline shared by the *whole* ladder (default:
    /// none), as opposed to the per-instance
    /// [`timeout`](SweepConfig::timeout). When it binds, pending probes
    /// are deferred — the affected points degrade to their current,
    /// still sound, verdict intervals instead of stalling the sweep —
    /// and in-flight probes are bounded through the [`ExecContext`]
    /// ancestor-deadline chain, so the sweep never overruns the deadline
    /// by more than one cooperative cancellation check. Like `timeout`,
    /// a binding deadline trades the bit-for-bit determinism contract
    /// for bounded latency (reported intervals remain sound either way;
    /// pinned in `tests/soundness.rs`).
    pub deadline: Option<Duration>,
    /// A probe-count budget shared by the whole ladder (default: none):
    /// the deterministic counterpart of
    /// [`deadline`](SweepConfig::deadline). At most this many (point,
    /// rung) probes are issued, highest-priority first; the rest defer
    /// exactly as under a binding deadline, but the cutoff is a pure
    /// function of config and cache state — never of timing — so
    /// truncated ladders stay bit-identical across runs and thread
    /// counts.
    pub probe_budget: Option<u64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            depth: 2,
            domain: DomainKind::Box,
            transformer: CprobTransformer::Optimal,
            timeout: Some(Duration::from_secs(10)),
            max_live_disjuncts: Some(1 << 22),
            start_n: 1,
            max_n: None,
            binary_search: true,
            threads: 0,
            deadline: None,
            probe_budget: None,
        }
    }
}

/// Aggregated results of probing one poisoning budget `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// The probed poisoning budget.
    pub n: usize,
    /// Instances attempted at this budget (the survivors of smaller
    /// budgets, per the paper's incremental protocol).
    pub attempted: usize,
    /// Instances proven robust.
    pub verified: usize,
    /// Size of the full test set (denominator for Figure 6's fractions).
    pub total_points: usize,
    /// Mean certification wall-clock time over attempted instances.
    pub avg_time: Duration,
    /// Mean peak memory proxy in bytes over attempted instances.
    pub avg_peak_bytes: usize,
    /// Instances that hit the timeout.
    pub timeouts: usize,
    /// Instances that exhausted the disjunct budget.
    pub budget_exhausted: usize,
}

impl SweepPoint {
    /// `verified / total_points`, the y-axis of Figure 6.
    pub fn fraction_verified(&self) -> f64 {
        if self.total_points == 0 {
            0.0
        } else {
            self.verified as f64 / self.total_points as f64
        }
    }
}

/// Runs the §6.1 protocol over `test_points` and returns one
/// [`SweepPoint`] per probed budget, in increasing-`n` order.
///
/// Test points fan out across `cfg.threads` engine workers; every point
/// is certified under its own child [`ExecContext`] whose deadline
/// starts at that point's own certification, so a timing-out instance
/// can never stall the ladder, and cancelling the sweep's context
/// cancels every in-flight instance. The ladder itself (which budgets
/// are probed, who survives) is inherently sequential and identical at
/// every thread count.
pub fn sweep(ds: &Dataset, test_points: &[Vec<f64>], cfg: &SweepConfig) -> Vec<SweepPoint> {
    sweep_in(
        ds,
        test_points,
        cfg,
        &ExecContext::new().threads(cfg.threads),
    )
}

/// [`sweep`] under a caller-provided parent context (cancellation scope
/// and metrics). `parent`'s thread count is used as-is; its deadline, if
/// any, bounds the whole sweep while `cfg.timeout` bounds each instance.
/// The ladder threads a fresh [`CertCache`] through its rungs:
/// [`sweep_cached`] against a cache of its own.
pub fn sweep_in(
    ds: &Dataset,
    test_points: &[Vec<f64>],
    cfg: &SweepConfig,
    parent: &ExecContext,
) -> Vec<SweepPoint> {
    let cache = CertCache::for_dataset(ds, test_points.len());
    sweep_cached(ds, test_points, cfg, parent, &cache)
}

/// [`sweep_in`] against a caller-provided [`CertCache`] — the drift
/// re-certification entry point. The cache outlives the sweep, so a
/// ladder can warm it and a later ladder (or a cache carried across a
/// mutation by [`CertCache::transfer`]) can reuse it. Slots address
/// test points by index, and the ladder's learner state lives exactly
/// as long as this one ladder.
///
/// # Panics
///
/// Panics when `cache` is not stamped for `ds`'s epoch — the same
/// mismatch `certify_cached` reports as a hard error, promoted to a
/// panic here because the caller explicitly paired the two.
pub fn sweep_cached(
    ds: &Dataset,
    test_points: &[Vec<f64>],
    cfg: &SweepConfig,
    parent: &ExecContext,
    cache: &CertCache,
) -> Vec<SweepPoint> {
    assert_eq!(
        cache.epoch(),
        ds.epoch(),
        "sweep_cached: cache stamped for dataset epoch {} used against epoch {} — \
         re-key with CertCache::for_dataset or carry it across the mutation with \
         CertCache::transfer",
        cache.epoch(),
        ds.epoch(),
    );
    let slots: Vec<usize> = (0..test_points.len()).collect();
    let shared = SharedLearner::new(ds, cfg.transformer);
    sweep_shared(ds, test_points, &slots, cfg, parent, cache, &shared)
}

/// The fully general removal ladder, behind every one-shot ladder and
/// the service session's.
///
/// `slots[i]` is the [`CertCache`] slot addressing test point `i`: a
/// one-shot sweep owns its cache and uses identity slots, while a
/// session maps each distinct point to a stable slot in its long-lived
/// cache so repeat requests land on warm entries. `shared` is the
/// learner state every probe borrows ([`Certifier::shared_state`]): a
/// one-shot ladder's own, or the session's persistent one. `bestSplit#`
/// reads only `⟨T, n⟩`, never the test point, so every point of a rung
/// asks the same root question and most layer-1 states recur from point
/// to point; the shared memo computes each once per ladder. Neither the
/// cache nor the memo changes the ladder itself: the probed budgets and
/// per-rung verdict counts are those of memo-free, cache-free
/// certification (pinned in `tests/determinism.rs` and the session
/// differential tests).
///
/// # Panics
///
/// Panics when `slots` is shorter than `test_points`, or when a slot is
/// out of range for `cache`.
pub(crate) fn sweep_shared(
    ds: &Dataset,
    test_points: &[Vec<f64>],
    slots: &[usize],
    cfg: &SweepConfig,
    parent: &ExecContext,
    cache: &CertCache,
    shared: &SharedLearner,
) -> Vec<SweepPoint> {
    assert!(
        slots.len() >= test_points.len(),
        "sweep_shared: {} test points but only {} cache slots",
        test_points.len(),
        slots.len(),
    );
    let certifier = Certifier::new(ds)
        .depth(cfg.depth)
        .domain(cfg.domain)
        .transformer(cfg.transformer)
        .shared_state(shared);
    ladder(
        ds,
        test_points,
        slots,
        cfg,
        parent,
        Some(cache),
        // Every caller builds (or epoch-checks) the cache against `ds`,
        // so a mismatch here is a sweep bug, not caller input.
        |i, n, ctx| {
            certifier
                .certify_cached(&test_points[i], n, slots[i], cache, ctx)
                .expect("sweep cache is stamped for its own dataset")
        },
    )
}

/// The §6.1 ladder under the **label-flip** threat model: the same
/// ladder as [`sweep_in`], with [`certify_label_flips`] proving each
/// point at depth `depth`, budgets capped at `max_n` (and `|T|`), fanned
/// out across `parent`'s workers with one child context per instance.
///
/// Flip ladders run with no per-instance timeout or disjunct budget, no
/// shared deadline or probe budget, binary search on, and no
/// [`CertCache`] (so no tightening pass): the unbounded scheduler plans
/// each rung whole, in pool order, and the ladder is thread-invariant.
/// The flip learner is inherently disjunctive, so there is no domain
/// knob.
///
/// Returns one [`SweepPoint`] per probed budget, ascending in `n`.
pub fn flip_sweep(
    ds: &Dataset,
    test_points: &[Vec<f64>],
    depth: usize,
    max_n: usize,
    parent: &ExecContext,
) -> Vec<SweepPoint> {
    let cfg = SweepConfig {
        depth,
        timeout: None,
        max_live_disjuncts: None,
        max_n: Some(max_n),
        ..SweepConfig::default()
    };
    let slots: Vec<usize> = (0..test_points.len()).collect();
    ladder(ds, test_points, &slots, &cfg, parent, None, |i, n, ctx| {
        certify_label_flips(ds, &test_points[i], depth, n, ctx)
    })
}

/// The §6.1 ladder body shared by both threat models: `prove(i, n, ctx)`
/// certifies test point `i` at budget `n` under its own per-instance
/// context. `cache` feeds the scheduler's priorities and the tightening
/// pass; the prover reads it on its own.
fn ladder<P>(
    ds: &Dataset,
    test_points: &[Vec<f64>],
    slots: &[usize],
    cfg: &SweepConfig,
    parent: &ExecContext,
    cache: Option<&CertCache>,
    prove: P,
) -> Vec<SweepPoint>
where
    P: Fn(usize, usize, &ExecContext) -> Outcome + Sync,
{
    let max_n = cfg.max_n.unwrap_or(ds.len()).min(ds.len());
    let total_points = test_points.len();

    let mut sched = ProbeScheduler::new(cfg.deadline, cfg.probe_budget, max_n);
    // When the scheduler carries a wall-clock deadline, every probe runs
    // under one bounded child context: its deadline joins the ancestor
    // chain of each probe's own per-instance context, so in-flight work
    // cooperatively stops at the *ladder* deadline — the sweep never
    // overruns it by more than one cancellation check. Cancelling
    // `parent` still cancels everything (ancestor chain), and metrics
    // stay shared. Loop control below deliberately keeps watching
    // `parent`: deadline expiry is the scheduler's to handle, via
    // `plan`, which counts the degraded points.
    let bounded;
    let exec: &ExecContext = match sched.deadline_at() {
        Some(at) => {
            bounded = parent.child().deadline(at);
            &bounded
        }
        None => parent,
    };

    let mut points: Vec<SweepPoint> = Vec::new();
    // Every budget probed so far: each n is probed at most once per sweep
    // (the doubling rungs are strictly increasing and the binary search
    // only probes strictly inside its shrinking open interval; the guard
    // keeps that true under any future protocol change).
    let mut probed: BTreeSet<usize> = BTreeSet::new();
    // Survivors: indices of test points verified at every probed budget so
    // far.
    let mut survivors: Vec<usize> = (0..test_points.len()).collect();
    let mut n = cfg.start_n.max(1);
    let mut last_success_n: Option<usize> = None;

    while !survivors.is_empty() && n <= max_n {
        if parent.should_stop() {
            break;
        }
        // The scheduler orders the rung widest-interval-first and, when
        // the shared deadline or probe budget binds, truncates it to the
        // highest-priority prefix; deferred points degrade to their
        // current (sound) intervals. Unbounded, `plan` issues the whole
        // pool and the reorder is invisible: `par_map` returns results
        // in input order and every rung aggregate is an order-invariant
        // sum.
        let plan = sched.plan(&survivors, slots, cache, parent.metrics());
        let (pool, partial) = (plan.issue, !plan.deferred.is_empty());
        if pool.is_empty() {
            break; // deadline/budget exhausted: degrade, don't stall
        }
        probed.insert(n);
        let (point, verified_idx) = probe(&prove, &pool, n, total_points, cfg, exec);
        points.push(point);
        if partial {
            // A truncated rung cannot soundly drive the survivor
            // protocol (a deferred point neither survived nor failed);
            // stop doubling and let the tightening pass spend whatever
            // remains.
            break;
        }
        if verified_idx.is_empty() {
            // §6.1 step 3: binary search in (n/2, n) for budgets where some
            // survivor still verifies.
            if cfg.binary_search {
                if let Some(mut lo) = last_success_n {
                    let mut hi = n;
                    let mut pool = survivors.clone();
                    while hi - lo > 1 && !parent.should_stop() {
                        let mid = lo + (hi - lo) / 2;
                        if probed.contains(&mid) {
                            break; // already probed: nothing new to learn
                        }
                        // Refinement rungs draw on the same shared
                        // deadline/budget as the doubling rungs.
                        let plan = sched.plan(&pool, slots, cache, parent.metrics());
                        let (refine, refine_partial) = (plan.issue, !plan.deferred.is_empty());
                        if refine.is_empty() {
                            break;
                        }
                        probed.insert(mid);
                        let (p, v) = probe(&prove, &refine, mid, total_points, cfg, exec);
                        points.push(p);
                        if refine_partial {
                            // An empty verdict over a partial pool says
                            // nothing about the deferred points, so the
                            // lo/hi update below would be unsound.
                            break;
                        }
                        if v.is_empty() {
                            hi = mid;
                        } else {
                            lo = mid;
                            pool = v;
                        }
                    }
                }
            }
            break;
        }
        last_success_n = Some(n);
        survivors = verified_idx;
        if n >= max_n {
            break;
        }
        n = (n * 2).min(max_n);
    }
    // (c) Spend whatever the truncated ladder saved tightening the
    // loosest surviving verdict intervals: repeatedly probe the midpoint
    // of the widest open gap (ties toward the smaller point index) until
    // every gap is closed, a point stops yielding information, or the
    // shared deadline/budget runs out. Gated on `bounded()`: with no
    // deadline and no probe budget the ladder was never truncated, there
    // is nothing "saved" to spend, and the scheduler must stay
    // observationally invisible.
    if let (true, Some(c)) = (sched.bounded(), cache) {
        // Points whose latest tightening probe left their interval
        // unchanged (a transient Timeout/Cancelled/DisjunctBudget
        // verdict, which the cache soundly refuses to record):
        // probing the same midpoint again would loop forever.
        let mut stuck: BTreeSet<usize> = BTreeSet::new();
        while !parent.should_stop() {
            let mut widest: Option<(usize, usize, usize, usize)> = None; // (gap, i, lo, hi)
            for (i, &slot) in slots.iter().enumerate().take(test_points.len()) {
                if stuck.contains(&i) {
                    continue;
                }
                let interval = c.verdict_interval(slot);
                let gap = sched.gap(interval);
                // gap == 1 is a closed interval (the frontier is
                // localised); iterating i ascending makes the strict
                // `>` the deterministic smallest-index tie-break.
                if gap > 1 && widest.is_none_or(|(g, ..)| gap > g) {
                    let lo = interval.0.unwrap_or(0);
                    widest = Some((gap, i, lo, lo + gap));
                }
            }
            let Some((_, i, lo, hi)) = widest else { break };
            if !sched.try_claim(parent.metrics()) {
                break; // deadline/budget exhausted
            }
            // gap ≥ 2 ⇒ lo < mid < hi ≤ max_n + 1, so mid is a legal
            // budget and a recorded verdict strictly shrinks the gap.
            let mid = lo + (hi - lo) / 2;
            let before = c.verdict_interval(slots[i]);
            let (p, _) = probe(&prove, &[i], mid, total_points, cfg, exec);
            // A tightening probe may revisit a budget the ladder
            // already reported; fold it into the existing rung to
            // keep the points-per-n invariant.
            match points.iter_mut().find(|q| q.n == mid) {
                Some(q) => merge_rung(q, &p),
                None => {
                    probed.insert(mid);
                    points.push(p);
                }
            }
            if c.verdict_interval(slots[i]) == before {
                stuck.insert(i);
            }
        }
    }
    points.sort_by_key(|p| p.n);
    debug_assert!(
        points.windows(2).all(|w| w[0].n < w[1].n),
        "probe points are deduplicated by construction"
    );
    points
}

/// Folds an extra probe of the same budget `n` into an existing rung:
/// counts sum, averages re-weight by attempted instances. Used by the
/// tightening pass, whose midpoint probes may revisit a budget the
/// ladder already reported.
fn merge_rung(existing: &mut SweepPoint, extra: &SweepPoint) {
    debug_assert_eq!(existing.n, extra.n);
    let total = existing.attempted + extra.attempted;
    if total == 0 {
        return;
    }
    let sum_time =
        existing.avg_time * existing.attempted as u32 + extra.avg_time * extra.attempted as u32;
    let sum_bytes =
        existing.avg_peak_bytes * existing.attempted + extra.avg_peak_bytes * extra.attempted;
    existing.avg_time = sum_time / total as u32;
    existing.avg_peak_bytes = sum_bytes / total;
    existing.attempted = total;
    existing.verified += extra.verified;
    existing.timeouts += extra.timeouts;
    existing.budget_exhausted += extra.budget_exhausted;
}

/// Runs all `pool` instances at budget `n` through `prove` — fanned out
/// across the parent context's workers, each under its own child
/// context carrying the per-instance limits — and returns the aggregate
/// point and the indices that verified.
fn probe<P>(
    prove: &P,
    pool: &[usize],
    n: usize,
    total_points: usize,
    cfg: &SweepConfig,
    parent: &ExecContext,
) -> (SweepPoint, Vec<usize>)
where
    P: Fn(usize, usize, &ExecContext) -> Outcome + Sync,
{
    let inner_threads = parent.child_threads_for(pool.len());
    let outcomes = parent.par_map(pool, |_, &i| {
        let ctx = parent
            .child()
            .threads(inner_threads)
            .maybe_timeout(cfg.timeout)
            .maybe_disjunct_budget(cfg.max_live_disjuncts);
        prove(i, n, &ctx)
    });

    let mut verified = Vec::new();
    let mut total_time = Duration::ZERO;
    let mut total_bytes = 0usize;
    let mut timeouts = 0usize;
    let mut budget_exhausted = 0usize;
    for (&i, out) in pool.iter().zip(&outcomes) {
        total_time += out.stats.elapsed;
        total_bytes += out.stats.peak_bytes;
        match out.verdict {
            Verdict::Robust => verified.push(i),
            Verdict::Timeout | Verdict::Cancelled => timeouts += 1,
            Verdict::DisjunctBudget => budget_exhausted += 1,
            Verdict::Unknown => {}
        }
    }
    // An empty rung (reachable from protocol changes that let a probe
    // pool drain, e.g. binary-search refinement over an emptied survivor
    // set) must aggregate to zeroed averages instead of relying on the
    // caller to never pass an empty pool — dividing by `attempted`
    // unguarded would panic.
    let attempted = pool.len();
    let (avg_time, avg_peak_bytes) = if attempted == 0 {
        (Duration::ZERO, 0)
    } else {
        (total_time / attempted as u32, total_bytes / attempted)
    };
    let point = SweepPoint {
        n,
        attempted,
        verified: verified.len(),
        total_points,
        avg_time,
        avg_peak_bytes,
        timeouts,
        budget_exhausted,
    };
    (point, verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::synth;

    /// Two separated 1-D Gaussian classes, 100 rows each.
    fn blobs() -> antidote_data::Dataset {
        let spec = synth::BlobSpec {
            means: vec![vec![0.0], vec![10.0]],
            stds: vec![vec![1.0], vec![1.0]],
            per_class: 100,
            quantum: Some(0.1),
        };
        synth::gaussian_blobs(&spec, 7)
    }

    /// Two deep-in-class points and one near the decision boundary.
    fn blob_points() -> Vec<Vec<f64>> {
        vec![vec![0.5], vec![9.5], vec![5.1]]
    }

    fn cfg(domain: DomainKind, binary_search: bool) -> SweepConfig {
        SweepConfig {
            depth: 1,
            domain,
            timeout: None,
            binary_search,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn ladder_shape_on_blobs() {
        let ds = blobs();
        let pts = sweep(&ds, &blob_points(), &cfg(DomainKind::Disjuncts, true));
        assert!(!pts.is_empty());
        // n values strictly increase and start at 1.
        assert_eq!(pts[0].n, 1);
        for w in pts.windows(2) {
            assert!(w[0].n < w[1].n);
            // Verified counts are non-increasing (survivor protocol).
            assert!(w[0].verified >= w[1].verified);
        }
        // The deep-in-class points verify at n = 1.
        assert!(pts[0].verified >= 2);
        assert_eq!(pts[0].total_points, 3);
        assert!(pts[0].fraction_verified() > 0.5);
    }

    #[test]
    fn survivors_shrink_monotonically() {
        let ds = blobs();
        let pts = sweep(&ds, &blob_points(), &cfg(DomainKind::Box, false));
        for w in pts.windows(2) {
            assert!(w[1].attempted <= w[0].verified.max(1));
        }
    }

    #[test]
    fn empty_test_set_is_empty_sweep() {
        let ds = blobs();
        let pts = sweep(&ds, &[], &SweepConfig::default());
        assert!(pts.is_empty());
    }

    #[test]
    fn max_n_caps_the_ladder() {
        let ds = blobs();
        let mut c = cfg(DomainKind::Disjuncts, false);
        c.max_n = Some(2);
        let pts = sweep(&ds, &blob_points(), &c);
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|p| p.n <= 2));
    }

    #[test]
    fn binary_search_localises_frontier() {
        // The largest n with a verified instance in the sweep must equal
        // the true frontier (largest n where any point is provable).
        let ds = blobs();
        let pts = sweep(&ds, &blob_points(), &cfg(DomainKind::Disjuncts, true));
        let best_verified = pts
            .iter()
            .filter(|p| p.verified > 0)
            .map(|p| p.n)
            .max()
            .unwrap();
        let c = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
        let truth = (1..=64)
            .filter(|&n| blob_points().iter().any(|x| c.certify(x, n).is_robust()))
            .max()
            .unwrap();
        assert_eq!(
            best_verified, truth,
            "binary search should find the frontier"
        );
    }

    /// The verdict-relevant projection of a ladder (timings excluded).
    fn key(points: &[SweepPoint]) -> Vec<(usize, usize, usize, usize, usize)> {
        points
            .iter()
            .map(|p| (p.n, p.attempted, p.verified, p.timeouts, p.budget_exhausted))
            .collect()
    }

    /// The reference ladder: the same protocol with every probe a fresh
    /// [`Certifier::certify_in`] — no cache, no shared memo.
    fn fresh_ladder(
        ds: &Dataset,
        xs: &[Vec<f64>],
        cfg: &SweepConfig,
        ctx: &ExecContext,
    ) -> Vec<SweepPoint> {
        let certifier = Certifier::new(ds)
            .depth(cfg.depth)
            .domain(cfg.domain)
            .transformer(cfg.transformer);
        let slots: Vec<usize> = (0..xs.len()).collect();
        ladder(ds, xs, &slots, cfg, ctx, None, |i, n, ctx| {
            certifier.certify_in(&xs[i], n, ctx)
        })
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_cheaper() {
        let ds = blobs();
        let xs = blob_points();
        // The default disjunct budget, and none at all.
        for max_live_disjuncts in [SweepConfig::default().max_live_disjuncts, None] {
            for domain in [
                DomainKind::Box,
                DomainKind::Disjuncts,
                DomainKind::Hybrid { max_disjuncts: 8 },
            ] {
                let case = format!("{domain:?}, max_live_disjuncts {max_live_disjuncts:?}");
                let cfg = SweepConfig {
                    max_live_disjuncts,
                    ..cfg(domain, true)
                };
                let fresh_ctx = ExecContext::sequential();
                let fresh = fresh_ladder(&ds, &xs, &cfg, &fresh_ctx);
                let cached_ctx = ExecContext::sequential();
                let cached = sweep_in(&ds, &xs, &cfg, &cached_ctx);
                assert_eq!(key(&fresh), key(&cached), "ladders diverged: {case}");
                // The reference derives everything per probe and never
                // touches a cache.
                let total_probes: u64 = fresh.iter().map(|p| p.attempted as u64).sum();
                let (fm, cm) = (fresh_ctx.metrics(), cached_ctx.metrics());
                assert_eq!(fm.certify_calls(), total_probes, "{case}");
                assert_eq!(fm.cache_hits(), 0, "{case}");
                assert_eq!(fm.cache_misses(), 0, "{case}");
                // The cached ladder pays one full derivation per test
                // point; every other probe is a hit.
                assert_eq!(cm.certify_calls(), xs.len() as u64, "{case}");
                assert_eq!(cm.cache_misses(), xs.len() as u64, "{case}");
                assert_eq!(cm.cache_hits(), total_probes - xs.len() as u64, "{case}");
                assert!(cm.certify_calls() < fm.certify_calls(), "{case}");
                assert!(cm.cache_hit_rate() > 0.0, "{case}");
                // Inside one ladder every probe lies in its point's open
                // verdict gap, so the cache never answers one outright.
                assert_eq!(cm.cache_shortcircuits(), 0, "{case}");
            }
        }
    }

    #[test]
    fn probed_budget_sequence_is_pinned_and_duplicate_free() {
        // Regression for the BENCH_sweep.json redundancy fix: the §6.1
        // ladder (doubling rungs + binary-search refinement) must probe
        // each budget at most once, and this exact protocol is pinned so
        // a change to the probe sequence is a conscious decision.
        let ds = blobs();
        let pts = sweep(&ds, &blob_points(), &cfg(DomainKind::Disjuncts, true));
        let ns: Vec<usize> = pts.iter().map(|p| p.n).collect();
        let mut unique = ns.clone();
        unique.dedup();
        assert_eq!(ns, unique, "no budget is probed twice");
        let expected = expected_probe_sequence(&ds);
        assert_eq!(ns, expected, "probed-n sequence changed");
        // The fresh reference ladder probes the same sequence.
        let fresh = fresh_ladder(
            &ds,
            &blob_points(),
            &cfg(DomainKind::Disjuncts, true),
            &ExecContext::sequential(),
        );
        assert_eq!(fresh.iter().map(|p| p.n).collect::<Vec<_>>(), expected);
    }

    /// The §6.1 probe sequence for `blob_points` on `blobs`: doubling
    /// rungs up to the first all-fail budget, then the deterministic
    /// binary-search refinement between the last success and it.
    fn expected_probe_sequence(ds: &Dataset) -> Vec<usize> {
        let c = Certifier::new(ds).depth(1).domain(DomainKind::Disjuncts);
        // 64 bounds every frontier on this family (the seed's
        // binary_search_localises_frontier test relies on the same bound).
        let frontier = |x: &[f64]| (0..=64).filter(|&n| c.certify(x, n).is_robust()).max();
        let best = blob_points()
            .iter()
            .filter_map(|x| frontier(x))
            .max()
            .expect("some point verifies");
        let mut ns = Vec::new();
        let mut n = 1;
        while n <= best {
            ns.push(n);
            n *= 2;
        }
        ns.push(n); // the first all-fail rung
        let (mut lo, mut hi) = (n / 2, n);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            ns.push(mid);
            if mid <= best {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        ns.sort_unstable();
        ns
    }

    #[test]
    fn a_ladder_shares_one_best_split_memo_across_its_points() {
        // Doubling-only ladder at n = 1, 2: the cache answers no probe
        // of one ladder outright, so every probe is a full abstract run
        // and the ladder's memo probes are exactly the bestSplit#
        // computations of memo-free certify_in runs over every probed
        // (point, n); the points of a rung share their states.
        let ds = blobs();
        let xs = blob_points();
        let cfg = SweepConfig {
            depth: 2,
            max_n: Some(2),
            ..cfg(DomainKind::Disjuncts, false)
        };
        let certifier = Certifier::new(&ds).depth(2).domain(DomainKind::Disjuncts);
        let mut pool: Vec<usize> = (0..xs.len()).collect();
        let mut probes = Vec::new();
        let mut computed = 0;
        for n in [1, 2] {
            probes.push((n, pool.len()));
            let mut verified = Vec::new();
            for &i in &pool {
                let ctx = ExecContext::sequential();
                if certifier.certify_in(&xs[i], n, &ctx).is_robust() {
                    verified.push(i);
                }
                assert_eq!(ctx.metrics().split_memo_hits(), 0);
                computed += ctx.metrics().split_memo_misses();
            }
            pool = verified;
        }
        let mut counts = Vec::new();
        for threads in [1, 4] {
            let ctx = ExecContext::new().threads(threads);
            let ladder = sweep_in(&ds, &xs, &cfg, &ctx);
            let attempted: Vec<(usize, usize)> =
                ladder.iter().map(|p| (p.n, p.attempted)).collect();
            assert_eq!(attempted, probes, "{threads} thread(s)");
            let (hits, misses) = (
                ctx.metrics().split_memo_hits(),
                ctx.metrics().split_memo_misses(),
            );
            assert_eq!(hits + misses, computed, "{threads} thread(s)");
            assert!(hits > 0, "the points of a rung share their root question");
            counts.push((hits, misses));
        }
        assert_eq!(counts[0], counts[1], "memo accounting is thread-invariant");
    }

    #[test]
    fn empty_rung_aggregates_to_zeroes() {
        // Regression: `probe` used to divide by `attempted` relying on the
        // caller never passing an empty pool; an emptied probe set (as the
        // binary-search refinement path can produce under future protocol
        // changes) must yield a zeroed rung, not a division panic.
        let ds = blobs();
        let certifier = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
        let cfg = cfg(DomainKind::Disjuncts, true);
        let xs = blob_points();
        let prove = |i: usize, n: usize, ctx: &ExecContext| certifier.certify_in(&xs[i], n, ctx);
        let (point, verified) = probe(&prove, &[], 4, 3, &cfg, &ExecContext::sequential());
        assert!(verified.is_empty());
        assert_eq!(point.attempted, 0);
        assert_eq!(point.verified, 0);
        assert_eq!(point.avg_time, Duration::ZERO);
        assert_eq!(point.avg_peak_bytes, 0);
        assert_eq!(point.timeouts, 0);
        assert_eq!(point.budget_exhausted, 0);
        assert_eq!(point.n, 4);
        assert_eq!(point.total_points, 3);
    }

    #[test]
    fn timeout_instances_are_counted() {
        let ds = synth::mnist17_like(synth::MnistVariant::Binary, 300, 1);
        let cfg = SweepConfig {
            depth: 3,
            domain: DomainKind::Disjuncts,
            timeout: Some(Duration::ZERO),
            binary_search: false,
            max_n: Some(1),
            ..SweepConfig::default()
        };
        let pts = sweep(&ds, &[ds.row_values(0)], &cfg);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].timeouts, 1);
        assert_eq!(pts[0].verified, 0);
    }
}
