//! The §6.1 evaluation ladder under the **label-flip** threat model.
//!
//! This is `antidote_core`'s one §6.1 ladder (the removal sweep's own
//! body and probe scheduler) with `certify_label_flips` as the per-point
//! prover, re-exported here so matrix cells report comparable
//! [`SweepPoint`](antidote_core::SweepPoint) ladders for both threat
//! axes. The flip learner is inherently disjunctive (relabelings of
//! different carriers cannot be joined), so there is no domain knob — a
//! matrix cell's domain axis selects the removal semantics only and is
//! recorded, unchanged, on flip cells.
//!
//! Flip ladders run without per-instance timeouts, a shared deadline, a
//! probe budget or a certification cache: the scheduler plans every
//! rung whole and counts its probes, and ladders are thread-invariant
//! for the same reason removal sweeps are (the engine's ordered
//! `par_map` fold), which the matrix determinism suite pins.

pub use antidote_core::sweep::flip_sweep;

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_core::engine::ExecContext;
    use antidote_core::flip::certify_label_flips;
    use antidote_core::SweepPoint;
    use antidote_data::synth::{gaussian_blobs, BlobSpec};
    use antidote_data::Dataset;

    fn blobs() -> Dataset {
        gaussian_blobs(
            &BlobSpec {
                means: vec![vec![0.0], vec![10.0]],
                stds: vec![vec![1.0], vec![1.0]],
                per_class: 100,
                quantum: Some(0.1),
            },
            7,
        )
    }

    #[test]
    fn flip_ladder_shape() {
        let ds = blobs();
        let xs = vec![vec![0.5], vec![9.5], vec![5.1]];
        let ctx = ExecContext::sequential();
        let pts = flip_sweep(&ds, &xs, 1, 64, &ctx);
        assert!(!pts.is_empty());
        assert_eq!(pts[0].n, 1);
        for w in pts.windows(2) {
            assert!(w[0].n < w[1].n, "budgets strictly increase");
            assert!(w[0].verified >= w[1].verified, "survivor protocol");
        }
        // The deep-in-class points survive at least one flip.
        assert!(pts[0].verified >= 2);
        assert_eq!(pts[0].total_points, 3);
        // The unbounded scheduler plans every rung whole.
        let attempted: usize = pts.iter().map(|p| p.attempted).sum();
        assert_eq!(ctx.metrics().probes_scheduled(), attempted as u64);
        assert_eq!(ctx.metrics().probes_deferred(), 0);
    }

    #[test]
    fn flip_ladder_localises_the_frontier() {
        let ds = blobs();
        let xs = vec![vec![0.5]];
        let pts = flip_sweep(&ds, &xs, 1, 64, &ExecContext::sequential());
        let best = pts
            .iter()
            .filter(|p| p.verified > 0)
            .map(|p| p.n)
            .max()
            .expect("some budget verifies");
        let truth = (1..=64)
            .filter(|&n| {
                certify_label_flips(&ds, &xs[0], 1, n, &ExecContext::sequential()).is_robust()
            })
            .max()
            .unwrap();
        assert_eq!(best, truth, "binary search must find the flip frontier");
    }

    #[test]
    fn flip_ladder_is_thread_invariant() {
        let ds = blobs();
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![-1.0 + 12.0 * i as f64 / 7.0]).collect();
        let key = |pts: &[SweepPoint]| -> Vec<(usize, usize, usize, usize, usize)> {
            pts.iter()
                .map(|p| (p.n, p.attempted, p.verified, p.timeouts, p.budget_exhausted))
                .collect()
        };
        let (seq_ctx, par_ctx) = (ExecContext::sequential(), ExecContext::new().threads(4));
        let seq = flip_sweep(&ds, &xs, 1, 32, &seq_ctx);
        let par = flip_sweep(&ds, &xs, 1, 32, &par_ctx);
        assert_eq!(key(&seq), key(&par), "flip ladder diverged across threads");
        let work = |ctx: &ExecContext| {
            let m = ctx.metrics();
            (
                m.disjuncts_processed(),
                m.split_memo_misses(),
                m.interner_hits(),
            )
        };
        assert_eq!(work(&seq_ctx), work(&par_ctx), "flip work diverged");
    }

    #[test]
    fn empty_test_set_is_empty_ladder() {
        let ds = blobs();
        assert!(flip_sweep(&ds, &[], 1, 8, &ExecContext::sequential()).is_empty());
    }

    #[test]
    fn max_n_caps_the_ladder() {
        let ds = blobs();
        let xs = vec![vec![0.5]];
        let pts = flip_sweep(&ds, &xs, 1, 2, &ExecContext::sequential());
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|p| p.n <= 2));
    }

    #[test]
    fn cancelled_parent_stops_the_ladder() {
        let ds = blobs();
        let xs = vec![vec![0.5]];
        let ctx = ExecContext::sequential();
        ctx.cancel();
        let pts = flip_sweep(&ds, &xs, 1, 64, &ctx);
        assert!(pts.is_empty(), "a cancelled parent probes nothing");
    }
}
