//! End-to-end soundness: the abstract learner versus exhaustive ground
//! truth on small random instances.
//!
//! These are the repository's most important tests. They check, across
//! random datasets, inputs, depths, budgets, and all three domains:
//!
//! 1. **Theorem 4.11** — every concrete run's final training-set fragment
//!    is covered by some terminal abstract state of `DTrace#`;
//! 2. **Corollary 4.12** — whenever the prover answers *Robust*, exact
//!    enumeration over `Δn(T)` confirms that no removal set changes the
//!    prediction (and conversely, any enumeration counterexample forbids
//!    a Robust verdict);
//! 3. the greedy attack can never break a certified input.

use antidote::core::engine::ExecContext;
use antidote::core::learner::{run_abstract_shared, DomainKind};
use antidote::data::{ClassId, Dataset, FeatureKind, Schema, Subset};
use antidote::domains::{AbstractSet, CprobTransformer};
use antidote::prelude::*;
use antidote::tree::dtrace::dtrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small random dataset: ≤ 10 rows, 1–2 features, 2–3 classes. About
/// half are boolean (`Schema::boolean`, 0/1 values), whose split counts
/// come from masked popcounts instead of a row walk; the rest take values
/// on a small integer grid, so ties and duplicate values are common (the
/// nasty cases for tie-breaking and trivial-split handling).
fn random_dataset(rng: &mut StdRng) -> Dataset {
    let len = rng.random_range(2..=10usize);
    let d = rng.random_range(1..=2usize);
    let k = rng.random_range(2..=3usize);
    let boolean = rng.random_range(0..2) == 0;
    let grid = if boolean { 2 } else { 5 };
    let rows: Vec<(Vec<f64>, ClassId)> = (0..len)
        .map(|_| {
            (
                (0..d).map(|_| rng.random_range(0..grid) as f64).collect(),
                rng.random_range(0..k) as ClassId,
            )
        })
        .collect();
    let schema = if boolean {
        Schema::boolean(d, k)
    } else {
        Schema::real(d, k)
    };
    Dataset::from_rows(schema, &rows).expect("valid random rows")
}

/// A random input (or appended row) for `ds`: a value from {0, 1} per
/// feature on a boolean dataset, from the integer grid `0..5` otherwise.
fn random_point(rng: &mut StdRng, ds: &Dataset) -> Vec<f64> {
    let grid = match ds.schema().features()[0].kind {
        FeatureKind::Bool => 2,
        FeatureKind::Real => 5,
    };
    (0..ds.n_features())
        .map(|_| rng.random_range(0..grid) as f64)
        .collect()
}

/// Every subset of `0..len` whose complement has size ≤ n, as index lists.
fn all_concretizations(len: usize, n: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for mask in 0u32..(1 << len) {
        let kept: Vec<u32> = (0..len as u32).filter(|i| mask & (1 << i) != 0).collect();
        if len - kept.len() <= n && !kept.is_empty() {
            out.push(kept);
        }
    }
    out
}

const DOMAINS: [DomainKind; 3] = [
    DomainKind::Box,
    DomainKind::Disjuncts,
    DomainKind::Hybrid { max_disjuncts: 3 },
];

/// Theorem 4.11: for all T' ∈ γ(⟨T,n⟩), the final concrete fragment of
/// DTrace(T', x) lies in γ of some terminal abstract state.
#[test]
fn theorem_4_11_terminal_coverage() {
    let mut rng = StdRng::seed_from_u64(411);
    for trial in 0..120 {
        let ds = random_dataset(&mut rng);
        let n = rng.random_range(0..ds.len());
        let depth = rng.random_range(0..=3usize);
        let x = random_point(&mut rng, &ds);
        for domain in DOMAINS {
            let out = run_abstract_shared(
                &ds,
                AbstractSet::full(&ds, n),
                &x,
                depth,
                domain,
                CprobTransformer::Optimal,
                true,
                None,
                &ExecContext::sequential(),
            );
            assert!(out.aborted.is_none());
            for kept in all_concretizations(ds.len(), n) {
                let t_prime = Subset::from_indices(&ds, kept);
                let conc = dtrace(&ds, &t_prime, &x, depth);
                let covered = out.terminals.iter().any(|t| t.concretizes(&conc.final_set));
                assert!(
                    covered,
                    "trial {trial} {domain:?}: concrete final fragment {:?} \
                     not covered by any terminal (|T|={}, n={n}, depth={depth})",
                    conc.final_set.indices(),
                    ds.len(),
                );
            }
        }
    }
}

/// Corollary 4.12 + exact enumeration: Robust verdicts are never wrong.
#[test]
fn robust_verdicts_match_enumeration() {
    let mut rng = StdRng::seed_from_u64(412);
    let mut proven = 0usize;
    for _ in 0..150 {
        let ds = random_dataset(&mut rng);
        let n = rng.random_range(0..ds.len());
        let depth = rng.random_range(0..=3usize);
        let x = random_point(&mut rng, &ds);
        let truth = enumerate_robustness(&ds, &x, depth, n, 1 << 22);
        for domain in DOMAINS {
            let out = Certifier::new(&ds)
                .depth(depth)
                .domain(domain)
                .certify(&x, n);
            if out.is_robust() {
                proven += 1;
                assert!(
                    truth.is_robust(),
                    "{domain:?} claimed robust but enumeration found {truth:?} \
                     (|T|={}, n={n}, depth={depth}, x={x:?})",
                    ds.len(),
                );
            }
        }
    }
    // The prover must actually prove something across 450 attempts,
    // otherwise this test is vacuous.
    assert!(
        proven > 50,
        "only {proven} robust verdicts; prover too weak"
    );
}

/// The greedy attack is a concrete counterexample generator: it can never
/// succeed at a budget the prover certified.
#[test]
fn attacks_never_break_certificates() {
    let mut rng = StdRng::seed_from_u64(413);
    for _ in 0..100 {
        let ds = random_dataset(&mut rng);
        let n = rng.random_range(1..ds.len());
        let depth = rng.random_range(1..=3usize);
        let x = random_point(&mut rng, &ds);
        let attack = greedy_attack(&ds, &x, depth, n);
        if attack.succeeded() {
            for domain in DOMAINS {
                let out = Certifier::new(&ds)
                    .depth(depth)
                    .domain(domain)
                    .certify(&x, attack.removals());
                assert!(
                    !out.is_robust(),
                    "{domain:?} certified n={} but attack removed {:?}",
                    attack.removals(),
                    attack.removed,
                );
            }
        }
    }
}

/// The label-flip extension's Robust verdicts are never wrong: exact
/// enumeration of every ≤ n-flip relabeling confirms them.
#[test]
fn flip_verdicts_match_flip_enumeration() {
    use antidote::baselines::enumerate_flip_robustness;
    use antidote::core::flip::certify_label_flips;

    let mut rng = StdRng::seed_from_u64(415);
    let mut proven = 0usize;
    for _ in 0..120 {
        let ds = random_dataset(&mut rng);
        let n = rng.random_range(0..=2usize.min(ds.len()));
        let depth = rng.random_range(0..=3usize);
        let x = random_point(&mut rng, &ds);
        let out = certify_label_flips(&ds, &x, depth, n, &ExecContext::sequential());
        if out.is_robust() {
            proven += 1;
            let truth = enumerate_flip_robustness(&ds, &x, depth, n, 1 << 22);
            assert!(
                truth.is_robust(),
                "flip prover claimed robust but enumeration found {truth:?} \
                 (|T|={}, n={n}, depth={depth}, x={x:?})",
                ds.len(),
            );
        }
    }
    assert!(
        proven > 20,
        "only {proven} flip certificates; prover too weak"
    );
}

/// Brute-force soundness oracle for the *cached* certification path: on
/// tiny datasets (≤ 8 rows) and budgets `n ≤ 3`, every `Robust` verdict a
/// [`CertCache`]-backed probe returns — whether freshly derived, run
/// under a memoized label, or answered by a monotone short-circuit — is
/// checked against exhaustive enumeration of all ≤ n-row removals with
/// concrete retraining. Probes run in a shuffled budget order so the
/// interval short-circuits actually fire; every answer must also equal
/// the fresh certifier's.
#[test]
fn cached_robust_verdicts_survive_the_brute_force_oracle() {
    use antidote::core::CertCache;
    use rand::seq::SliceRandom;

    let mut rng = StdRng::seed_from_u64(416);
    let mut proven = 0usize;
    let mut shortcircuits = 0u64;
    for trial in 0..120 {
        let ds = {
            // Cap at 8 rows so the oracle's 2^|T| enumeration stays tiny.
            let mut ds = random_dataset(&mut rng);
            while ds.len() > 8 {
                ds = random_dataset(&mut rng);
            }
            ds
        };
        let depth = rng.random_range(0..=3usize);
        let x = random_point(&mut rng, &ds);
        let mut budgets: Vec<usize> = (0..=3.min(ds.len() - 1)).collect();
        budgets.shuffle(&mut rng);
        for domain in DOMAINS {
            // Hybrid merge order is not provably monotone in n, so its
            // interval short-circuits are exercised by the in-order
            // ladder only (matching how the sweep probes it).
            let mut order = budgets.clone();
            if matches!(domain, DomainKind::Hybrid { .. }) {
                order.sort_unstable();
            }
            let certifier = Certifier::new(&ds).depth(depth).domain(domain);
            let cache = CertCache::new(1);
            let ctx = ExecContext::sequential();
            for &n in &order {
                let out = certifier.certify_cached(&x, n, 0, &cache, &ctx).unwrap();
                assert_eq!(
                    out.verdict,
                    certifier.certify(&x, n).verdict,
                    "trial {trial} {domain:?}: cached diverged at n={n} (order {order:?})",
                );
                if !out.is_robust() {
                    continue;
                }
                proven += 1;
                let reference = dtrace(&ds, &Subset::full(&ds), &x, depth).label;
                for kept in all_concretizations(ds.len(), n) {
                    let poisoned = Subset::from_indices(&ds, kept);
                    let retrained = dtrace(&ds, &poisoned, &x, depth).label;
                    assert_eq!(
                        retrained,
                        reference,
                        "trial {trial} {domain:?}: cached Robust at n={n} contradicted by \
                         removing {:?} (|T|={}, depth={depth})",
                        poisoned.indices(),
                        ds.len(),
                    );
                }
            }
            shortcircuits += ctx.metrics().cache_shortcircuits();
        }
    }
    assert!(
        proven > 80,
        "only {proven} robust verdicts; oracle is vacuous"
    );
    assert!(
        shortcircuits > 50,
        "only {shortcircuits} short-circuits; the cached path was barely exercised"
    );
}

/// The cached sweep's per-rung `verified` counts agree with fresh
/// per-point certification on tiny datasets — the ladder-level view of
/// the oracle above, binary-search refinement included.
#[test]
fn cached_sweep_rungs_match_fresh_certification() {
    use antidote::core::{sweep_in, SweepConfig};

    let mut rng = StdRng::seed_from_u64(417);
    for _ in 0..40 {
        let ds = random_dataset(&mut rng);
        let depth = rng.random_range(0..=2usize);
        let xs: Vec<Vec<f64>> = (0..3).map(|_| random_point(&mut rng, &ds)).collect();
        for domain in DOMAINS {
            let cfg = SweepConfig {
                depth,
                domain,
                timeout: None,
                max_live_disjuncts: None,
                threads: 1,
                max_n: Some(3.min(ds.len())),
                ..SweepConfig::default()
            };
            let ctx = ExecContext::sequential();
            let ladder = sweep_in(&ds, &xs, &cfg, &ctx);
            let certifier = Certifier::new(&ds).depth(depth).domain(domain);
            // Survivor pools are implied by fresh per-point frontiers.
            let mut survivors: Vec<usize> = (0..xs.len()).collect();
            for p in &ladder {
                let fresh_verified = survivors
                    .iter()
                    .filter(|&&i| certifier.certify(&xs[i], p.n).is_robust())
                    .count();
                assert!(
                    p.verified <= p.attempted,
                    "{domain:?}: malformed rung {p:?}"
                );
                if p.attempted == survivors.len() {
                    // A full-pool rung: the cached count must equal fresh
                    // per-point certification exactly.
                    assert_eq!(
                        p.verified, fresh_verified,
                        "{domain:?} at n={}: cached sweep diverged from fresh \
                         certification",
                        p.n,
                    );
                    survivors.retain(|&i| certifier.certify(&xs[i], p.n).is_robust());
                } else {
                    // A binary-search probe over a sub-pool: its verified
                    // count is bounded by the fresh count over the pool.
                    assert!(
                        p.verified <= fresh_verified,
                        "{domain:?} at n={}: cached sweep verified {} but fresh \
                         certification only verifies {fresh_verified}",
                        p.n,
                        p.verified,
                    );
                }
            }
        }
    }
}

/// The probe scheduler's degradation contract (DESIGN.md §13): when a
/// global budget or deadline binds, the sweep may stop early — but every
/// robustness claim that survives in the cache must still be backed by
/// the brute-force oracle, and degraded points must degrade to an honest
/// `Unknown` interval, never to an unearned `Robust`.
#[test]
fn binding_budgets_degrade_to_sound_unknowns() {
    use antidote::core::{sweep_cached, CertCache, SweepConfig};

    let mut rng = StdRng::seed_from_u64(418);
    let mut proven = 0usize;
    let mut deferred = 0u64;
    for trial in 0..60 {
        let ds = {
            // Cap at 8 rows so the oracle's 2^|T| enumeration stays tiny.
            let mut ds = random_dataset(&mut rng);
            while ds.len() > 8 {
                ds = random_dataset(&mut rng);
            }
            ds
        };
        let depth = rng.random_range(0..=2usize);
        let xs: Vec<Vec<f64>> = (0..4).map(|_| random_point(&mut rng, &ds)).collect();
        for domain in DOMAINS {
            let cfg = SweepConfig {
                depth,
                domain,
                timeout: None,
                threads: 1,
                max_n: Some(3.min(ds.len())),
                // Tight enough to bind on most trials: the unbounded
                // ladder issues up to 4 probes per rung.
                probe_budget: Some(rng.random_range(1..=6)),
                ..SweepConfig::default()
            };
            let cache = CertCache::for_dataset(&ds, xs.len());
            let ctx = ExecContext::sequential();
            let ladder = sweep_cached(&ds, &xs, &cfg, &ctx, &cache);
            deferred += ctx.metrics().probes_deferred();
            let certifier = Certifier::new(&ds).depth(depth).domain(domain);
            // Oracle A — point intervals: every `max_robust = r` claim
            // left in the cache after the truncated sweep must survive
            // exhaustive retraining over all ≤ r removals. (Unknown is
            // incompleteness, not a claim, so only the robust side is
            // oracle-checkable.)
            for (i, x) in xs.iter().enumerate() {
                let (max_robust, _) = cache.verdict_interval(i);
                let Some(r) = max_robust else { continue };
                proven += 1;
                let reference = dtrace(&ds, &Subset::full(&ds), x, depth).label;
                for kept in all_concretizations(ds.len(), r) {
                    let poisoned = Subset::from_indices(&ds, kept);
                    let retrained = dtrace(&ds, &poisoned, x, depth).label;
                    assert_eq!(
                        retrained,
                        reference,
                        "trial {trial} {domain:?}: budgeted sweep claims point {i} robust \
                         at n={r} but removing {:?} flips it (|T|={}, depth={depth})",
                        poisoned.indices(),
                        ds.len(),
                    );
                }
            }
            // Oracle B — rung aggregates: a truncated rung probes a
            // priority-ordered sub-pool, so its verified count is
            // bounded by fresh certification over the whole point set.
            for p in &ladder {
                let fresh_all = xs
                    .iter()
                    .filter(|x| certifier.certify(x, p.n).is_robust())
                    .count();
                assert!(
                    p.verified <= p.attempted && p.verified <= fresh_all,
                    "trial {trial} {domain:?} at n={}: truncated rung claims {} \
                     verified but fresh certification allows at most {fresh_all}",
                    p.n,
                    p.verified,
                );
            }
        }
    }
    assert!(
        proven > 80,
        "only {proven} robust claims survived the budgeted sweeps; oracle is vacuous"
    );
    assert!(
        deferred > 60,
        "only {deferred} probes deferred; the budgets never actually bound"
    );
}

/// A shared wall-clock deadline is honored ladder-wide: the sweep never
/// overruns it by more than one probe's worth of work, and an
/// already-expired deadline degrades every point before the first probe
/// — no robustness claims, `Unknown` intervals across the board.
#[test]
fn binding_deadlines_are_honored_ladder_wide() {
    use antidote::core::{sweep_cached, CertCache, SweepConfig};
    use std::time::{Duration, Instant};

    let mut rng = StdRng::seed_from_u64(419);
    let ds = random_dataset(&mut rng);
    let xs: Vec<Vec<f64>> = (0..16).map(|_| random_point(&mut rng, &ds)).collect();
    let cfg = |deadline: Duration| SweepConfig {
        depth: 3,
        domain: DomainKind::Disjuncts,
        timeout: None,
        threads: 1,
        deadline: Some(deadline),
        ..SweepConfig::default()
    };

    // A modest but real deadline: the sweep must come back within it
    // plus at most one in-flight probe (tiny here — the slack is CI
    // scheduling noise, not probe time).
    let started = Instant::now();
    let cache = CertCache::for_dataset(&ds, xs.len());
    let ctx = ExecContext::sequential();
    sweep_cached(&ds, &xs, &cfg(Duration::from_millis(20)), &ctx, &cache);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(20) + Duration::from_millis(250),
        "deadline-bound sweep overran the global deadline: {elapsed:?}"
    );

    // An already-expired deadline: every point degrades before the
    // first probe fires, and nothing may claim robustness.
    let cache = CertCache::for_dataset(&ds, xs.len());
    let ctx = ExecContext::sequential();
    let ladder = sweep_cached(&ds, &xs, &cfg(Duration::ZERO), &ctx, &cache);
    assert!(
        ladder.iter().all(|p| p.attempted == 0 && p.verified == 0),
        "an expired deadline must not issue probes: {ladder:?}"
    );
    assert_eq!(
        ctx.metrics().deadline_degradations(),
        xs.len() as u64,
        "every point must be counted degraded exactly once"
    );
    for i in 0..xs.len() {
        assert_eq!(
            cache.verdict_interval(i),
            (None, None),
            "point {i}: degradation must leave an honest Unknown interval"
        );
    }
}

/// Every subset of `ds`'s *live* rows whose complement (within the live
/// set) has size ≤ n, as row-id lists — [`all_concretizations`] for a
/// mutated dataset, where live rows are no longer contiguous.
fn live_concretizations(ds: &Dataset, n: usize) -> Vec<Vec<u32>> {
    let live: Vec<u32> = ds.rows().collect();
    let mut out = Vec::new();
    for mask in 0u32..(1 << live.len()) {
        let kept: Vec<u32> = live
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &r)| r)
            .collect();
        if live.len() - kept.len() <= n && !kept.is_empty() {
            out.push(kept);
        }
    }
    out
}

/// Brute-force oracle for *transferred* certificates: on tiny datasets,
/// replay pure-removal mutation scripts (victims removed in shuffled
/// orders), carrying the cache across each epoch with
/// [`CertCache::transfer`], and check every `Robust` the cached probe
/// returns at the final epoch — including answers served straight from a
/// transferred bound before any trace exists — against exhaustive
/// enumeration of all ≤ n-row removals with concrete retraining on the
/// mutated (stable-slot) dataset.
#[test]
fn transferred_certificates_survive_the_brute_force_oracle() {
    use antidote::core::CertCache;
    use antidote::data::DatasetDelta;
    use rand::seq::SliceRandom;

    let mut rng = StdRng::seed_from_u64(418);
    let mut proven = 0usize;
    let mut transferred_answers = 0u64;
    for trial in 0..60 {
        let ds0 = {
            // ≥ 4 rows so two single-row removals leave a real dataset;
            // ≤ 8 so the oracle's 2^|T| enumeration stays tiny.
            let mut ds = random_dataset(&mut rng);
            while !(4..=8).contains(&ds.len()) {
                ds = random_dataset(&mut rng);
            }
            ds
        };
        let depth = rng.random_range(0..=2usize);
        let x = random_point(&mut rng, &ds0);
        // Two victims, removed one per epoch in a shuffled order.
        let mut victims: Vec<u32> = (0..ds0.len() as u32).collect();
        victims.shuffle(&mut rng);
        victims.truncate(2);
        for domain in DOMAINS {
            let ctx = ExecContext::sequential();
            let mut ds = ds0.clone();
            let mut cache = CertCache::for_dataset(&ds, 1);
            // Warm epoch 0 in ladder order, then replay the mutations.
            let certifier = Certifier::new(&ds).depth(depth).domain(domain);
            for n in 0..=3.min(ds.len() - 1) {
                certifier.certify_cached(&x, n, 0, &cache, &ctx).unwrap();
            }
            for &victim in &victims {
                let mut delta = DatasetDelta::new();
                delta.remove(victim);
                let (next, summary) = ds.apply_summarized(&delta).unwrap();
                cache = cache.transfer(&[summary], &next, ctx.metrics());
                ds = next;
            }
            let mut budgets: Vec<usize> = (0..=3.min(ds.len() - 1)).collect();
            budgets.shuffle(&mut rng);
            if matches!(domain, DomainKind::Hybrid { .. }) {
                budgets.sort_unstable();
            }
            let certifier = Certifier::new(&ds).depth(depth).domain(domain);
            let reference = dtrace(&ds, &Subset::full(&ds), &x, depth).label;
            for &n in &budgets {
                if cache.transferred_lookup(0, n).is_some() {
                    transferred_answers += 1;
                }
                let out = certifier.certify_cached(&x, n, 0, &cache, &ctx).unwrap();
                assert_eq!(
                    out.label, reference,
                    "trial {trial} {domain:?}: reference label drifted after transfer"
                );
                if !out.is_robust() {
                    continue;
                }
                proven += 1;
                for kept in live_concretizations(&ds, n) {
                    let poisoned = Subset::from_indices(&ds, kept);
                    let retrained = dtrace(&ds, &poisoned, &x, depth).label;
                    assert_eq!(
                        retrained,
                        reference,
                        "trial {trial} {domain:?}: transferred Robust at n={n} (epoch {}) \
                         contradicted by removing {:?} (|T|={}, depth={depth}, victims {victims:?})",
                        ds.epoch(),
                        poisoned.indices(),
                        ds.len(),
                    );
                }
            }
        }
    }
    assert!(
        proven > 80,
        "only {proven} robust verdicts; the transfer oracle is vacuous"
    );
    // Bounds only survive two removals when epoch 0 proved Robust(m) with
    // m ≥ 2 + n, so transferred answers are a minority of probes on these
    // tiny instances — but they must actually occur.
    assert!(
        transferred_answers > 15,
        "only {transferred_answers} probes hit a transferred bound; transfer barely exercised"
    );
}

/// Appends and label flips must invalidate carried state: after a mixed
/// delta the cache holds no transferred answers, and whatever the cached
/// probes conclude on the mutated dataset is still pinned by the
/// brute-force oracle.
#[test]
fn mixed_deltas_invalidate_and_stay_sound() {
    use antidote::core::CertCache;
    use antidote::data::DatasetDelta;

    let mut rng = StdRng::seed_from_u64(420);
    let mut proven = 0usize;
    for trial in 0..40 {
        let ds0 = {
            let mut ds = random_dataset(&mut rng);
            while !(4..=7).contains(&ds.len()) {
                ds = random_dataset(&mut rng);
            }
            ds
        };
        let depth = rng.random_range(0..=2usize);
        let x = random_point(&mut rng, &ds0);
        // One delta mixing all three mutation kinds: remove row 0, flip
        // row 1 to a different class, append a fresh row.
        let flipped = (ds0.label(1) + 1) % ds0.n_classes() as ClassId;
        let appended = random_point(&mut rng, &ds0);
        let mut delta = DatasetDelta::new();
        delta
            .remove(0)
            .flip_label(1, flipped)
            .append(&appended, rng.random_range(0..ds0.n_classes()) as ClassId);
        let (ds1, summary) = ds0.apply_summarized(&delta).unwrap();
        assert!(
            !summary.pure_removal(),
            "trial {trial}: delta must be mixed"
        );
        for domain in DOMAINS {
            let ctx = ExecContext::sequential();
            let cache0 = CertCache::for_dataset(&ds0, 1);
            let certifier0 = Certifier::new(&ds0).depth(depth).domain(domain);
            for n in 0..=2.min(ds0.len() - 1) {
                certifier0.certify_cached(&x, n, 0, &cache0, &ctx).unwrap();
            }
            let cache1 = cache0.transfer(std::slice::from_ref(&summary), &ds1, ctx.metrics());
            for n in 0..ds1.len() {
                assert!(
                    cache1.transferred_lookup(0, n).is_none(),
                    "trial {trial} {domain:?}: mixed delta left a transferred answer at n={n}"
                );
            }
            let certifier1 = Certifier::new(&ds1).depth(depth).domain(domain);
            let reference = dtrace(&ds1, &Subset::full(&ds1), &x, depth).label;
            for n in 0..=2.min(ds1.len() - 1) {
                let out = certifier1.certify_cached(&x, n, 0, &cache1, &ctx).unwrap();
                if !out.is_robust() {
                    continue;
                }
                proven += 1;
                for kept in live_concretizations(&ds1, n) {
                    let poisoned = Subset::from_indices(&ds1, kept);
                    assert_eq!(
                        dtrace(&ds1, &poisoned, &x, depth).label,
                        reference,
                        "trial {trial} {domain:?}: post-mutation Robust at n={n} \
                         contradicted by removing {:?}",
                        poisoned.indices(),
                    );
                }
            }
        }
    }
    assert!(
        proven > 30,
        "only {proven} robust verdicts; test is vacuous"
    );
}

/// A deterministic counterexample pinning *why* appends transfer nothing:
/// five 0-rows and one 1-row are provably `Robust(1)` at depth 0, but
/// after appending four 1-rows (reference label still 0, five votes to
/// four) a single removal flips the majority — naively carrying
/// `Robust(1)` across the append would certify a falsehood. The transfer
/// drops the bound instead.
#[test]
fn naive_append_transfer_would_be_unsound() {
    use antidote::core::CertCache;
    use antidote::data::DatasetDelta;

    let rows: Vec<(Vec<f64>, ClassId)> = (0..6)
        .map(|v| (vec![v as f64], u16::from(v == 5)))
        .collect();
    let ds0 = Dataset::from_rows(Schema::real(1, 2), &rows).unwrap();
    let x = vec![2.0];
    let certifier = Certifier::new(&ds0).depth(0);
    let ctx = ExecContext::sequential();
    let cache0 = CertCache::for_dataset(&ds0, 1);
    let out = certifier.certify_cached(&x, 1, 0, &cache0, &ctx).unwrap();
    assert!(out.is_robust(), "5-vs-1 majority is robust to one removal");

    let mut delta = DatasetDelta::new();
    for v in [6.0, 7.0, 8.0, 9.0] {
        delta.append(&[v], 1);
    }
    let (ds1, summary) = ds0.apply_summarized(&delta).unwrap();
    let cache1 = cache0.transfer(std::slice::from_ref(&summary), &ds1, ctx.metrics());
    assert!(
        cache1.transferred_lookup(0, 1).is_none(),
        "appends must not carry Robust bounds"
    );
    // And rightly so: on the appended dataset a single removal breaks
    // the prediction, so the carried certificate would have been wrong.
    let truth = enumerate_robustness(&ds1, &x, 0, 1, 1 << 22);
    assert!(
        !truth.is_robust(),
        "ground truth must refute Robust(1) on the appended dataset: {truth:?}"
    );
}

/// Transfer differential: over random tiny instances and pure-removal
/// scripts, every epoch `drift_sweep` re-certifies with transferred
/// certificates must produce the ladder (rung identities and verified
/// counts) a cold `sweep_in` produces on that epoch's dataset — the
/// transfer changes cost, never verdicts.
#[test]
fn drift_transfer_differential_is_bit_identical() {
    use antidote::core::{drift_sweep, sweep_in, SweepConfig};
    use antidote::data::DatasetDelta;
    use rand::seq::SliceRandom;

    let mut rng = StdRng::seed_from_u64(421);
    let mut transferred = 0u64;
    for trial in 0..30 {
        let ds = {
            let mut ds = random_dataset(&mut rng);
            while !(4..=8).contains(&ds.len()) {
                ds = random_dataset(&mut rng);
            }
            ds
        };
        let depth = rng.random_range(0..=2usize);
        let xs: Vec<Vec<f64>> = (0..2).map(|_| random_point(&mut rng, &ds)).collect();
        // Two single-removal epochs over shuffled victims.
        let mut victims: Vec<u32> = (0..ds.len() as u32).collect();
        victims.shuffle(&mut rng);
        let deltas: Vec<DatasetDelta> = victims[..2]
            .iter()
            .map(|&v| {
                let mut d = DatasetDelta::new();
                d.remove(v);
                d
            })
            .collect();
        for domain in DOMAINS {
            let cfg = SweepConfig {
                depth,
                domain,
                timeout: None,
                max_live_disjuncts: None,
                threads: 1,
                max_n: Some(3.min(ds.len() - 2)),
                ..SweepConfig::default()
            };
            let reports = drift_sweep(&ds, &xs, &deltas, &cfg).unwrap();
            assert_eq!(reports.len(), deltas.len() + 1);
            let mut epoch_ds = ds.clone();
            for (i, report) in reports.iter().enumerate() {
                if i > 0 {
                    epoch_ds = epoch_ds.apply(&deltas[i - 1]).unwrap();
                }
                let cold: Vec<_> = sweep_in(&epoch_ds, &xs, &cfg, &ExecContext::sequential())
                    .iter()
                    .map(|p| (p.n, p.attempted, p.verified, p.timeouts, p.budget_exhausted))
                    .collect();
                assert_eq!(
                    report.ladder_key(),
                    cold,
                    "trial {trial} {domain:?} epoch {}: transfer changed verdicts \
                     (|T|={}, depth={depth}, victims {victims:?})",
                    report.epoch,
                    ds.len(),
                );
            }
            transferred += reports
                .iter()
                .map(|r| r.metrics.cache_transfers)
                .sum::<u64>();
        }
    }
    assert!(
        transferred > 0,
        "no certificates ever transferred; differential is vacuous"
    );
}

/// Using a cache stamped for one epoch against another is a hard error in
/// *every* build profile — this file runs under `--release` in CI, where
/// `debug_assert!` is compiled out, so this is the regression test that
/// the guard survives release codegen.
#[test]
fn stale_caches_are_rejected_in_release_builds() {
    use antidote::core::CertCache;
    use antidote::data::DatasetDelta;

    let ds = Dataset::from_rows(
        Schema::real(1, 2),
        &[
            (vec![0.0], 0),
            (vec![1.0], 0),
            (vec![2.0], 1),
            (vec![3.0], 1),
        ],
    )
    .unwrap();
    let cache = CertCache::for_dataset(&ds, 1);
    let mutated = ds.apply(DatasetDelta::new().remove(0)).unwrap();
    let err = Certifier::new(&mutated)
        .depth(1)
        .certify_cached(&[1.5], 1, 0, &cache, &ExecContext::sequential())
        .unwrap_err();
    assert_eq!(err.cache_epoch, 0);
    assert_eq!(err.dataset_epoch, 1);
    // Re-keying for the mutated dataset restores service.
    let fresh = CertCache::for_dataset(&mutated, 1);
    assert!(Certifier::new(&mutated)
        .depth(1)
        .certify_cached(&[1.5], 1, 0, &fresh, &ExecContext::sequential())
        .is_ok());
}

/// The reference label reported by the certifier always matches the
/// concrete learner, for every domain and verdict.
#[test]
fn reference_labels_are_concrete() {
    let mut rng = StdRng::seed_from_u64(414);
    for _ in 0..80 {
        let ds = random_dataset(&mut rng);
        let depth = rng.random_range(0..=3usize);
        let x = random_point(&mut rng, &ds);
        let concrete = dtrace(&ds, &Subset::full(&ds), &x, depth).label;
        for domain in DOMAINS {
            let out = Certifier::new(&ds)
                .depth(depth)
                .domain(domain)
                .certify(&x, 1);
            assert_eq!(out.label, concrete);
        }
    }
}
