//! The adaptive probe scheduler for the §6.1 sweep (DESIGN.md §13).
//!
//! The doubling+binary-search ladder probes every surviving test point
//! with a fixed schedule, which lets a few hard points monopolise the
//! sweep while easy ones resolved long ago. [`ProbeScheduler`] steers
//! that compute instead:
//!
//! 1. **Priority ordering.** Each point's expected information is read
//!    off the verdict interval `[max_robust, min_unknown]` its
//!    [`CertCache`] entry already maintains — the wider the open gap,
//!    the less is known about the point, so the wider interval probes
//!    first. Ties break toward the smaller point index, making the order
//!    a pure function of cache state (never of timing).
//! 2. **Shared deadline / probe budget.** One wall-clock deadline and/or
//!    one probe-count budget covers the *whole* ladder. When either
//!    binds, the scheduler issues the highest-priority prefix of a rung
//!    and defers the rest; deferred points degrade to their current —
//!    still sound — interval instead of stalling the sweep. The
//!    wall-clock deadline additionally bounds in-flight probes through
//!    the [`ExecContext`] ancestor-deadline chain, so the sweep never
//!    overruns it by more than one cooperative cancellation check.
//! 3. **Interval tightening.** Budget the truncated ladder saved is
//!    spent probing the midpoint of the loosest surviving interval,
//!    widest gap first, until every gap is closed or the budget is gone.
//!
//! **Observational invisibility.** With no deadline and no probe budget
//! configured, the scheduler never defers and never tightens, and
//! reordering a rung's pool is invisible: [`ExecContext::par_map`]
//! returns results in input order, per-rung aggregates are
//! order-invariant sums, and each point's cache entry is touched
//! independently. `SweepConfig::schedule = false` (`--no-schedule`)
//! disarms the scheduler entirely; the on/off differential in
//! `tests/determinism.rs` pins bit-identical ladders, and the
//! binding-deadline oracle in `tests/soundness.rs` pins that degraded
//! points still report sound verdicts.
//!
//! [`ExecContext`]: crate::engine::ExecContext
//! [`ExecContext::par_map`]: crate::engine::ExecContext::par_map

use crate::cache::CertCache;
use crate::engine::{Counter, RunMetrics};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// One rung's issuance decision: the probes to run now (priority order)
/// and the probes deferred because the deadline or budget binds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungPlan {
    /// Point indices to probe this rung, widest-interval first.
    pub issue: Vec<usize>,
    /// Point indices whose probe was deferred (degraded this sweep).
    pub deferred: Vec<usize>,
}

/// The sweep-global probe scheduler: priority ordering plus one
/// deadline/budget shared across every rung, binary-search refinement
/// probe, and tightening probe of a ladder.
#[derive(Debug)]
pub struct ProbeScheduler {
    /// Absolute wall-clock deadline for the whole ladder, if any.
    deadline: Option<Instant>,
    /// Probe-count budget for the whole ladder, if any (deterministic —
    /// a pure function of config and cache state, never of timing).
    budget: Option<u64>,
    /// Probes issued so far.
    issued: u64,
    /// The exclusive upper bound of every verdict interval: a gap with no
    /// known `min_unknown` is open up to `max_n + 1`.
    max_n: usize,
    /// Points already counted as degraded (one degradation per point per
    /// sweep, however many of its probes end up deferred).
    degraded: BTreeSet<usize>,
}

impl ProbeScheduler {
    /// A scheduler for one sweep whose budgets ladder tops out at
    /// `max_n`. The wall-clock `deadline` starts now (one too far out for
    /// [`Instant`] to represent means none); `probe_budget` counts
    /// (point, rung) probes. Either or both may be `None` — the
    /// scheduler then only orders and counts, never defers.
    pub fn new(deadline: Option<Duration>, probe_budget: Option<u64>, max_n: usize) -> Self {
        ProbeScheduler {
            deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
            budget: probe_budget,
            issued: 0,
            max_n,
            degraded: BTreeSet::new(),
        }
    }

    /// The absolute deadline the whole ladder shares, if one is set —
    /// the sweep threads it through the [`ExecContext`] ancestor chain
    /// so in-flight probes are bounded too.
    ///
    /// [`ExecContext`]: crate::engine::ExecContext
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether a deadline or probe budget is configured at all. Without
    /// one the scheduler must stay observationally invisible: no
    /// deferrals, no tightening.
    pub fn bounded(&self) -> bool {
        self.deadline.is_some() || self.budget.is_some()
    }

    /// The open-gap width of one verdict interval `(max_robust,
    /// min_unknown)`: budgets strictly between the bounds are undecided.
    /// An unbounded side falls back to `0` / `max_n + 1`, so a blank
    /// entry has the widest possible gap.
    pub fn gap(&self, interval: (Option<usize>, Option<usize>)) -> usize {
        let lo = interval.0.unwrap_or(0);
        let hi = interval.1.unwrap_or(self.max_n + 1).min(self.max_n + 1);
        hi.saturating_sub(lo)
    }

    /// `pool` reordered widest-interval-first (ties toward the smaller
    /// point index). Without a cache there is no interval information and
    /// the pool order is kept as-is.
    pub fn prioritize(
        &self,
        pool: &[usize],
        slots: &[usize],
        cache: Option<&CertCache>,
    ) -> Vec<usize> {
        let mut ordered = pool.to_vec();
        if let Some(c) = cache {
            // Stable sort + index tie-break: a pure function of cache
            // state, identical at every thread count.
            ordered.sort_by_key(|&i| (usize::MAX - self.gap(c.verdict_interval(slots[i])), i));
        }
        ordered
    }

    /// Probes still available under the budget (`u64::MAX` when no probe
    /// budget is set), or 0 once the deadline has passed.
    fn remaining(&self) -> u64 {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return 0;
        }
        self.budget
            .map_or(u64::MAX, |b| b.saturating_sub(self.issued))
    }

    /// Plans one rung over `pool`: issues the highest-priority prefix the
    /// deadline/budget still affords and defers the rest. Scheduled,
    /// deferred, and (first-time) degraded counts land on `metrics`.
    pub fn plan(
        &mut self,
        pool: &[usize],
        slots: &[usize],
        cache: Option<&CertCache>,
        metrics: &RunMetrics,
    ) -> RungPlan {
        let ordered = self.prioritize(pool, slots, cache);
        let k = (self.remaining().min(ordered.len() as u64)) as usize;
        let deferred = ordered[k..].to_vec();
        let issue = {
            let mut issue = ordered;
            issue.truncate(k);
            issue
        };
        self.issued += issue.len() as u64;
        metrics.record(Counter::ProbesScheduled, issue.len() as u64);
        metrics.record(Counter::ProbesDeferred, deferred.len() as u64);
        for &i in &deferred {
            if self.degraded.insert(i) {
                metrics.record(Counter::DeadlineDegradations, 1);
            }
        }
        RungPlan { issue, deferred }
    }

    /// Claims one tightening probe, returning whether the deadline and
    /// budget still afford it. A refused claim counts nothing — unlike a
    /// rung deferral, no point was owed this probe.
    pub fn try_claim(&mut self, metrics: &RunMetrics) -> bool {
        if self.remaining() == 0 {
            return false;
        }
        self.issued += 1;
        metrics.record(Counter::ProbesScheduled, 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{Outcome, RunStats, Verdict};

    fn outcome(verdict: Verdict) -> Outcome {
        Outcome {
            verdict,
            label: 0,
            stats: RunStats::default(),
        }
    }

    #[test]
    fn gaps_fall_back_to_the_open_ladder_bounds() {
        let s = ProbeScheduler::new(None, None, 16);
        assert_eq!(s.gap((None, None)), 17, "blank entry spans 0..=max_n+1");
        assert_eq!(s.gap((Some(4), None)), 13);
        assert_eq!(s.gap((None, Some(9))), 9);
        assert_eq!(s.gap((Some(4), Some(9))), 5);
        assert_eq!(s.gap((Some(4), Some(5))), 1, "closed interval");
        // A min_unknown above the ladder cap clamps to the cap.
        assert_eq!(s.gap((Some(4), Some(40))), 13);
    }

    #[test]
    fn priority_is_widest_gap_first_with_index_tiebreak() {
        let cache = CertCache::new(4);
        // Point 0: gap 5, point 1: blank (gap 17), point 2: gap 5,
        // point 3: closed.
        cache.record(0, 4, &outcome(Verdict::Robust));
        cache.record(0, 9, &outcome(Verdict::Unknown));
        cache.record(2, 2, &outcome(Verdict::Robust));
        cache.record(2, 7, &outcome(Verdict::Unknown));
        cache.record(3, 8, &outcome(Verdict::Robust));
        cache.record(3, 9, &outcome(Verdict::Unknown));
        let s = ProbeScheduler::new(None, None, 16);
        let slots = [0, 1, 2, 3];
        let order = s.prioritize(&[3, 2, 1, 0], &slots, Some(&cache));
        assert_eq!(order, vec![1, 0, 2, 3], "gap desc, index asc on ties");
        // Without interval information the pool order is preserved.
        assert_eq!(s.prioritize(&[3, 2, 1, 0], &slots, None), vec![3, 2, 1, 0]);
    }

    #[test]
    fn unbounded_plans_issue_everything() {
        // A deadline too far out for `Instant` to represent is no deadline.
        for deadline in [None, Some(Duration::MAX)] {
            let mut s = ProbeScheduler::new(deadline, None, 8);
            let metrics = RunMetrics::default();
            let plan = s.plan(&[0, 1, 2], &[0, 1, 2], None, &metrics);
            assert_eq!(plan.issue, vec![0, 1, 2]);
            assert!(plan.deferred.is_empty());
            assert!(!s.bounded());
            assert_eq!(s.deadline_at(), None);
            assert_eq!(metrics.probes_scheduled(), 3);
            assert_eq!(metrics.probes_deferred(), 0);
            assert_eq!(metrics.deadline_degradations(), 0);
        }
    }

    #[test]
    fn a_binding_budget_defers_the_lowest_priority_suffix() {
        let cache = CertCache::new(3);
        cache.record(1, 6, &outcome(Verdict::Robust)); // narrowest gap
        let mut s = ProbeScheduler::new(None, Some(4), 8);
        assert!(s.bounded());
        let metrics = RunMetrics::default();
        // First rung: all three fit (3 of 4 spent).
        let plan = s.plan(&[0, 1, 2], &[0, 1, 2], Some(&cache), &metrics);
        assert_eq!(plan.issue.len(), 3);
        // Second rung: one probe left; the widest intervals (blank points
        // 0 and 2) outrank point 1, and index breaks their tie.
        let plan = s.plan(&[0, 1, 2], &[0, 1, 2], Some(&cache), &metrics);
        assert_eq!(plan.issue, vec![0]);
        assert_eq!(plan.deferred, vec![2, 1]);
        assert_eq!(metrics.probes_scheduled(), 4);
        assert_eq!(metrics.probes_deferred(), 2);
        assert_eq!(metrics.deadline_degradations(), 2);
        // Exhausted: everything defers, but already-degraded points are
        // not double-counted.
        let plan = s.plan(&[1, 2], &[0, 1, 2], Some(&cache), &metrics);
        assert!(plan.issue.is_empty());
        assert_eq!(metrics.probes_deferred(), 4);
        assert_eq!(metrics.deadline_degradations(), 2, "one per point");
    }

    #[test]
    fn an_expired_deadline_defers_everything() {
        let mut s = ProbeScheduler::new(Some(Duration::ZERO), None, 8);
        assert!(s.bounded());
        assert!(s.deadline_at().is_some());
        let metrics = RunMetrics::default();
        let plan = s.plan(&[0, 1], &[0, 1], None, &metrics);
        assert!(plan.issue.is_empty());
        assert_eq!(plan.deferred, vec![0, 1]);
        assert_eq!(metrics.deadline_degradations(), 2);
        assert!(!s.try_claim(&metrics), "tightening is refused too");
        assert_eq!(metrics.probes_scheduled(), 0);
    }

    #[test]
    fn tightening_claims_draw_from_the_same_budget() {
        let mut s = ProbeScheduler::new(None, Some(2), 8);
        let metrics = RunMetrics::default();
        assert!(s.try_claim(&metrics));
        assert!(s.try_claim(&metrics));
        assert!(!s.try_claim(&metrics), "budget exhausted");
        assert_eq!(metrics.probes_scheduled(), 2);
        assert_eq!(
            metrics.probes_deferred(),
            0,
            "refused claims are not deferrals"
        );
    }
}
