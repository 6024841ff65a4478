//! Verdict monotonicity in the poisoning budget `n` — the property the
//! incremental sweep cache's interval short-circuits rely on.
//!
//! DrewsAD20's robustness property is monotone: robust at `n` implies
//! robust at every `n' ≤ n`, and a concrete counterexample at `n`
//! disproves robustness at every `n' ≥ n`. These property tests check
//! that the *prover* inherits the downward direction (a `Robust` verdict
//! at `n` comes with `Robust` at every smaller probed budget) and that
//! the upward direction holds by soundness (no budget at or above a
//! concrete counterexample's size ever certifies), and that a
//! [`CertCache`] answers exactly like the fresh prover in any probe
//! order.

use antidote_core::{CertCache, Certifier, DomainKind, ExecContext};
use antidote_data::synth::{gaussian_blobs, BlobSpec};
use antidote_data::{ClassId, Dataset, RowId, Schema, Subset};
use antidote_tree::dtrace::dtrace_label;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Domains with a guaranteed-monotone `bestSplit#`: looser budgets keep a
/// superset of predicates and widen every interval, so certificates only
/// get harder — never easier — as `n` grows. (`Hybrid` is excluded: its
/// smallest-first merge order can differ across budgets, so monotonicity
/// is only conjectured there.)
const MONOTONE_DOMAINS: [DomainKind; 2] = [DomainKind::Box, DomainKind::Disjuncts];

/// Separated Gaussian blobs with randomized size, separation, and spread —
/// a family where the prover actually certifies nontrivial budgets.
fn random_blobs(rng: &mut StdRng) -> Dataset {
    let per_class = rng.random_range(15..=40usize);
    let gap = rng.random_range(6..=12) as f64;
    let std = 0.5 + rng.random_range(0..=10) as f64 / 10.0;
    gaussian_blobs(
        &BlobSpec {
            means: vec![vec![0.0], vec![gap]],
            stds: vec![vec![std], vec![std]],
            per_class,
            quantum: Some(0.1),
        },
        rng.random_range(0..1_000),
    )
}

/// A tiny random dataset on an integer grid (≤ 8 rows), small enough to
/// enumerate every removal set exhaustively.
fn tiny_dataset(rng: &mut StdRng) -> Dataset {
    let len = rng.random_range(3..=8usize);
    let d = rng.random_range(1..=2usize);
    let k = rng.random_range(2..=3usize);
    let rows: Vec<(Vec<f64>, ClassId)> = (0..len)
        .map(|_| {
            (
                (0..d).map(|_| rng.random_range(0..5) as f64).collect(),
                rng.random_range(0..k) as ClassId,
            )
        })
        .collect();
    Dataset::from_rows(Schema::real(d, k), &rows).expect("valid random rows")
}

/// The size of the smallest removal set that flips the prediction for
/// `x`, found by exhaustive retraining over every nonempty-complement
/// subset (the brute-force oracle; `None` when no removal flips).
fn minimal_counterexample(ds: &Dataset, x: &[f64], depth: usize) -> Option<Vec<RowId>> {
    let len = ds.len();
    let reference = dtrace_label(ds, &Subset::full(ds), x, depth);
    let mut best: Option<Vec<RowId>> = None;
    for mask in 0u32..(1 << len) {
        let kept: Vec<RowId> = (0..len as RowId).filter(|i| mask & (1 << i) != 0).collect();
        if kept.is_empty() || kept.len() == len {
            continue;
        }
        let removed = len - kept.len();
        if best.as_ref().is_some_and(|b| b.len() <= removed) {
            continue;
        }
        let t = Subset::from_indices(ds, kept);
        if dtrace_label(ds, &t, x, depth) != reference {
            best = Some((0..len as RowId).filter(|i| mask & (1 << i) == 0).collect());
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Robust` at `n` implies `Robust` at every smaller probed budget:
    /// the set of certified budgets is downward-closed along the ladder.
    #[test]
    fn robust_verdicts_are_downward_closed(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = random_blobs(&mut rng);
        let depth = rng.random_range(0..=2usize);
        let x = vec![rng.random_range(-20..40) as f64 / 2.0];
        let budgets = [0usize, 1, 2, 4, 8, 16];
        for domain in MONOTONE_DOMAINS {
            let c = Certifier::new(&ds).depth(depth).domain(domain);
            let robust: Vec<bool> = budgets.iter().map(|&n| c.certify(&x, n).is_robust()).collect();
            for (i, &r) in robust.iter().enumerate() {
                if r {
                    for j in 0..i {
                        prop_assert!(
                            robust[j],
                            "{domain:?}: Robust at n={} but not at n={} (depth {depth}, x={x:?})",
                            budgets[i], budgets[j],
                        );
                    }
                }
            }
        }
    }

    /// Refutation propagates upward: once exhaustive retraining finds a
    /// counterexample of size `k`, no budget `≥ k` ever certifies, in any
    /// domain.
    #[test]
    fn refutation_propagates_upward(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = tiny_dataset(&mut rng);
        let depth = rng.random_range(0..=3usize);
        let x: Vec<f64> = (0..ds.n_features())
            .map(|_| rng.random_range(0..5) as f64)
            .collect();
        let Some(witness) = minimal_counterexample(&ds, &x, depth) else {
            return Ok(());
        };
        let k = witness.len();
        for domain in [
            DomainKind::Box,
            DomainKind::Disjuncts,
            DomainKind::Hybrid { max_disjuncts: 3 },
        ] {
            let c = Certifier::new(&ds).depth(depth).domain(domain);
            for n in k..=ds.len() {
                prop_assert!(
                    !c.certify(&x, n).is_robust(),
                    "{domain:?} certified n={n} above a size-{k} counterexample",
                );
            }
        }
    }

    /// Cached answers equal fresh answers at every budget even when the
    /// budgets arrive in an adversarial (shuffled) order, which maximises
    /// interval short-circuits — the bit-identity guarantee behind the
    /// cached sweep, exercised beyond the ladder's monotone probe order.
    #[test]
    fn cached_answers_match_fresh_in_any_probe_order(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = random_blobs(&mut rng);
        let depth = rng.random_range(0..=2usize);
        let x = vec![rng.random_range(-20..40) as f64 / 2.0];
        let mut budgets = vec![0usize, 1, 2, 3, 5, 8, 13, 21];
        budgets.shuffle(&mut rng);
        for domain in MONOTONE_DOMAINS {
            let c = Certifier::new(&ds).depth(depth).domain(domain);
            let cache = CertCache::new(1);
            let ctx = ExecContext::sequential();
            for &n in &budgets {
                let cached = c.certify_cached(&x, n, 0, &cache, &ctx).unwrap();
                let fresh = c.certify(&x, n);
                prop_assert_eq!(
                    cached.verdict, fresh.verdict,
                    "{:?}: cached diverged at n={} (order {:?})", domain, n, budgets,
                );
                prop_assert_eq!(cached.label, fresh.label);
            }
            prop_assert_eq!(ctx.metrics().certify_calls(), 1, "one full derivation");
        }
    }
}
