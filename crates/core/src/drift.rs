//! Incremental re-certification under dataset drift (DESIGN.md §11).
//!
//! A deployed training set is not fixed: rows arrive, labels get
//! corrected, rows get deleted. Each mutation bumps the dataset's epoch
//! ([`Dataset::apply`]), and this module's driver replays a script of
//! [`DatasetDelta`]s, re-running the §6.1 ladder after every mutation
//! while carrying sound certificates across each epoch with
//! [`CertCache::transfer`]. For pure-removal deltas most rungs of the
//! warm ladder are answered from transferred `Robust` bounds without a
//! single abstract run — `BENCH_drift.json` pins the resulting cost at a
//! small fraction of a cold sweep — and any delta with appends or label
//! flips invalidates the carried state, falling back to fresh
//! certification (the only sound option; see the transfer rule's
//! soundness argument on [`CertCache::transfer`]). Every epoch transfers:
//! a cold [`sweep_in`](crate::sweep::sweep_in) on the epoch's dataset is
//! the reference the differentials compare each warm ladder against,
//! rung for rung.

use crate::cache::CertCache;
use crate::engine::{ExecContext, MetricsSnapshot};
use crate::sweep::{sweep_cached, SweepConfig, SweepPoint};
use antidote_data::{DataError, Dataset, DatasetDelta, DeltaSummary};

/// One epoch's re-certification results.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The dataset epoch this report describes.
    pub epoch: u64,
    /// What the mutation into this epoch effectively changed (`None` for
    /// the initial cold epoch).
    pub summary: Option<DeltaSummary>,
    /// Live training rows at this epoch.
    pub train_rows: usize,
    /// The §6.1 ladder, ascending in `n`.
    pub ladder: Vec<SweepPoint>,
    /// Epoch-scoped engine counters; `cache_transfers` /
    /// `cache_invalidations` record what crossed the mutation into this
    /// epoch.
    pub metrics: MetricsSnapshot,
}

impl EpochReport {
    /// The verdict-relevant projection of the ladder — rung identities
    /// and counts, excluding timings — which the transfer differentials
    /// compare with a cold ladder on the same epoch.
    pub fn ladder_key(&self) -> Vec<(usize, usize, usize, usize, usize)> {
        self.ladder
            .iter()
            .map(|p| (p.n, p.attempted, p.verified, p.timeouts, p.budget_exhausted))
            .collect()
    }
}

/// Replays `deltas` against `base`, running one `cfg` ladder per epoch
/// (including the initial cold one) and carrying certificates across
/// every mutation with [`CertCache::transfer`]. Returns one
/// [`EpochReport`] per epoch, in order.
///
/// # Errors
///
/// Propagates [`DataError`] from [`Dataset::apply_summarized`] when a
/// delta is invalid for the epoch it is applied to (dead or
/// out-of-range rows, undeclared labels, arity mismatches).
pub fn drift_sweep(
    base: &Dataset,
    test_points: &[Vec<f64>],
    deltas: &[DatasetDelta],
    cfg: &SweepConfig,
) -> Result<Vec<EpochReport>, DataError> {
    drift_sweep_in(
        base,
        test_points,
        deltas,
        cfg,
        &ExecContext::new().threads(cfg.threads),
    )
}

/// [`drift_sweep`] under a caller-provided parent context (cancellation
/// scope and run-wide metrics). Each epoch runs in a child context with
/// its own metrics ([`ExecContext::fresh_metrics`]), absorbed into the
/// parent after the epoch, so per-epoch counters stay attributable.
///
/// # Errors
///
/// See [`drift_sweep`].
pub fn drift_sweep_in(
    base: &Dataset,
    test_points: &[Vec<f64>],
    deltas: &[DatasetDelta],
    cfg: &SweepConfig,
    parent: &ExecContext,
) -> Result<Vec<EpochReport>, DataError> {
    let mut reports = Vec::with_capacity(deltas.len() + 1);
    let mut ds = base.clone();
    let mut cache = CertCache::for_dataset(base, test_points.len());
    // Each epoch gets one child context: the transfer into the epoch and
    // the epoch's ladder count on the same snapshot, so a report's
    // `cache_transfers` describes the mutation that produced it.
    let run_epoch =
        |ds: &Dataset, cache: &CertCache, summary: Option<DeltaSummary>, ctx: &ExecContext| {
            let ladder = sweep_cached(ds, test_points, cfg, ctx, cache);
            let metrics = ctx.metrics().snapshot();
            parent.metrics().absorb(&metrics);
            EpochReport {
                epoch: ds.epoch(),
                summary,
                train_rows: ds.len(),
                ladder,
                metrics,
            }
        };
    reports.push(run_epoch(
        &ds,
        &cache,
        None,
        &parent.child().fresh_metrics(),
    ));
    for delta in deltas {
        let (next, summary) = ds.apply_summarized(delta)?;
        let ctx = parent.child().fresh_metrics();
        cache = cache.transfer(std::slice::from_ref(&summary), &next, ctx.metrics());
        ds = next;
        reports.push(run_epoch(&ds, &cache, Some(summary), &ctx));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::synth::{self, BlobSpec};
    use antidote_data::RowId;

    fn blobs() -> Dataset {
        synth::gaussian_blobs(
            &BlobSpec {
                means: vec![vec![0.0], vec![10.0]],
                stds: vec![vec![1.0], vec![1.0]],
                per_class: 50,
                quantum: Some(0.1),
            },
            7,
        )
    }

    fn removal(rows: &[RowId]) -> DatasetDelta {
        let mut d = DatasetDelta::new();
        for &r in rows {
            d.remove(r);
        }
        d
    }

    fn cfg() -> SweepConfig {
        SweepConfig {
            depth: 1,
            threads: 1,
            timeout: None,
            max_live_disjuncts: None,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn drift_reports_one_epoch_per_mutation() {
        let ds = blobs();
        let xs = vec![vec![0.5], vec![9.5]];
        let deltas = [removal(&[0, 1]), removal(&[2])];
        let reports = drift_sweep(&ds, &xs, &deltas, &cfg()).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(reports[0].summary, None);
        assert_eq!(
            reports[1].summary.as_ref().unwrap().removed,
            vec![0, 1],
            "summaries record what each mutation changed"
        );
        assert_eq!(reports[0].train_rows, 100);
        assert_eq!(reports[2].train_rows, 97);
        assert_eq!(reports[0].metrics.cache_transfers, 0, "cold epoch");
        for r in &reports[1..] {
            assert!(!r.ladder.is_empty());
            assert!(
                r.metrics.cache_transfers > 0,
                "epoch {}: pure removals must transfer",
                r.epoch
            );
        }
    }

    #[test]
    fn transfer_on_and_off_produce_identical_ladders_and_on_is_cheaper() {
        let ds = blobs();
        let xs = vec![vec![0.5], vec![9.5], vec![5.0]];
        let deltas = [removal(&[0]), removal(&[1, 2])];
        let on = drift_sweep(&ds, &xs, &deltas, &cfg()).unwrap();
        assert_eq!(on.len(), deltas.len() + 1);
        // The reference: a cold ladder on each epoch's dataset.
        let mut epoch_ds = ds.clone();
        let mut cold_runs = 0;
        for (i, report) in on.iter().enumerate() {
            if i > 0 {
                epoch_ds = epoch_ds.apply(&deltas[i - 1]).unwrap();
            }
            let ctx = ExecContext::sequential();
            let cold: Vec<_> = crate::sweep::sweep_in(&epoch_ds, &xs, &cfg(), &ctx)
                .iter()
                .map(|p| (p.n, p.attempted, p.verified, p.timeouts, p.budget_exhausted))
                .collect();
            assert_eq!(report.ladder_key(), cold, "epoch {}", report.epoch);
            if i > 0 {
                cold_runs += ctx.metrics().snapshot().abstract_runs();
            }
        }
        // The saving shows up as abstract runs: every probe not answered
        // by a short-circuit executes the abstract learner (as a fresh
        // derivation or under a memoized label). Transferred bounds turn
        // warm-epoch rungs inside the carried interval into
        // certifier-free short-circuits.
        let warm_runs: u64 = on[1..].iter().map(|r| r.metrics.abstract_runs()).sum();
        assert!(
            warm_runs < cold_runs,
            "transferred bounds must save warm-epoch abstract runs ({warm_runs} vs {cold_runs})",
        );
    }

    #[test]
    fn appends_invalidate_and_fall_back_to_fresh_certification() {
        let ds = blobs();
        let xs = vec![vec![0.5]];
        let mut delta = DatasetDelta::new();
        delta.append(&[0.3], 0).append(&[9.9], 1);
        let reports = drift_sweep(&ds, &xs, &[delta], &cfg()).unwrap();
        assert_eq!(reports[1].metrics.cache_transfers, 0);
        assert!(reports[1].metrics.cache_invalidations > 0);
        assert!(
            reports[1].metrics.certify_calls > 0,
            "invalidated points re-certify from scratch"
        );
        assert_eq!(reports[1].train_rows, 102);
    }

    #[test]
    fn invalid_deltas_propagate_the_data_error() {
        let ds = blobs();
        let err = drift_sweep(&ds, &[vec![0.5]], &[removal(&[10_000])], &cfg()).unwrap_err();
        assert!(matches!(err, DataError::InvalidDelta { .. }));
    }
}
