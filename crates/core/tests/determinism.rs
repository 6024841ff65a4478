//! Thread-count invariance: the engine's parallel fan-outs must be
//! observationally identical to the sequential escape hatch.
//!
//! `threads(1)` and `threads(N)` runs share every verdict-relevant
//! output — sweep ladders, terminal abstract states, ensemble votes —
//! with only timings allowed to differ. These tests pin that contract
//! for each parallel surface.

use antidote_core::engine::ExecContext;
use antidote_core::learner::run_abstract;
use antidote_core::{sweep, Certifier, DomainKind, SweepConfig};
use antidote_data::synth::{gaussian_blobs, BlobSpec};
use antidote_data::Dataset;
use antidote_domains::{AbstractSet, CprobTransformer};

/// Two separated 1-D Gaussian classes.
fn blobs(per_class: usize, seed: u64) -> Dataset {
    gaussian_blobs(
        &BlobSpec {
            means: vec![vec![0.0], vec![10.0]],
            stds: vec![vec![1.5], vec![1.5]],
            per_class,
            quantum: Some(0.1),
        },
        seed,
    )
}

/// A ladder of test points spanning deep-in-class to boundary inputs.
fn test_points(k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|i| vec![-1.0 + 12.0 * i as f64 / (k - 1) as f64])
        .collect()
}

/// The verdict-relevant projection of a sweep point (timings excluded).
fn key(points: &[antidote_core::SweepPoint]) -> Vec<(usize, usize, usize, usize, usize, usize)> {
    points
        .iter()
        .map(|p| {
            (
                p.n,
                p.attempted,
                p.verified,
                p.total_points,
                p.timeouts,
                p.budget_exhausted,
            )
        })
        .collect()
}

#[test]
fn sweep_ladder_is_thread_invariant() {
    let ds = blobs(60, 7);
    let xs = test_points(32);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        let cfg = |threads: usize| SweepConfig {
            depth: 1,
            domain,
            timeout: None,
            threads,
            ..SweepConfig::default()
        };
        let seq = sweep(&ds, &xs, &cfg(1));
        let par = sweep(&ds, &xs, &cfg(4));
        assert_eq!(
            key(&seq),
            key(&par),
            "{domain:?}: ladder diverged across thread counts"
        );
        assert!(!seq.is_empty());
        assert!(seq[0].verified > 0, "sanity: some point verifies at n = 1");
    }
}

#[test]
fn cached_and_fresh_sweeps_are_bit_identical() {
    // The cross-rung certificate cache must be observationally invisible:
    // cached and --no-cache sweeps agree on every verdict-relevant field
    // of every rung, for every domain and thread count — while the cached
    // mode invokes the full certifier strictly fewer times.
    let ds = blobs(60, 7);
    let xs = test_points(32);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for threads in [1usize, 4] {
            let cfg = |cache: bool| SweepConfig {
                depth: 1,
                domain,
                timeout: None,
                threads,
                cache,
                ..SweepConfig::default()
            };
            let fresh_ctx = ExecContext::new().threads(threads);
            let fresh = antidote_core::sweep_in(&ds, &xs, &cfg(false), &fresh_ctx);
            let cached_ctx = ExecContext::new().threads(threads);
            let cached = antidote_core::sweep_in(&ds, &xs, &cfg(true), &cached_ctx);
            assert_eq!(
                key(&fresh),
                key(&cached),
                "{domain:?} @ {threads} thread(s): cached ladder diverged"
            );
            assert!(
                cached_ctx.metrics().certify_calls() < fresh_ctx.metrics().certify_calls(),
                "{domain:?} @ {threads} thread(s): cache saved no certifier calls"
            );
            assert_eq!(
                cached_ctx.metrics().certify_calls(),
                xs.len() as u64,
                "one full derivation per test point"
            );
            assert!(cached_ctx.metrics().cache_hit_rate() > 0.0);
            assert_eq!(fresh_ctx.metrics().cache_hits(), 0);
        }
    }
}

#[test]
fn subsumption_pruning_is_observationally_invisible() {
    // The full-certifier differential for the frontier subsumption pass:
    // Box/Disjuncts/Hybrid × subsume on/off × threads {1,4} must produce
    // bit-identical ladders — a dominated disjunct's concretizations are
    // covered by its dominator, so dropping it may only remove redundant
    // work, never flip a rung count.
    let ds = blobs(60, 7);
    let xs = test_points(16);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for threads in [1usize, 4] {
            let cfg = |subsume: bool| SweepConfig {
                depth: 2,
                domain,
                timeout: None,
                threads,
                subsume,
                ..SweepConfig::default()
            };
            let pruned_ctx = ExecContext::new().threads(threads);
            let pruned = antidote_core::sweep_in(&ds, &xs, &cfg(true), &pruned_ctx);
            let plain_ctx = ExecContext::new().threads(threads);
            let plain = antidote_core::sweep_in(&ds, &xs, &cfg(false), &plain_ctx);
            assert_eq!(
                key(&pruned),
                key(&plain),
                "{domain:?} @ {threads} thread(s): --no-subsume ladder diverged"
            );
            assert_eq!(
                plain_ctx.metrics().disjuncts_subsumed(),
                0,
                "the escape hatch must fully disarm pruning"
            );
            if domain == DomainKind::Disjuncts {
                assert!(
                    pruned_ctx.metrics().disjuncts_subsumed() > 0,
                    "sanity: pruning must fire on the disjunctive frontier"
                );
                assert!(
                    pruned_ctx.metrics().disjuncts_processed()
                        <= plain_ctx.metrics().disjuncts_processed(),
                    "pruning may only shrink the processed frontier"
                );
            }
        }
    }
}

#[test]
fn probe_scheduler_is_observationally_invisible() {
    // The full-certifier differential for the probe scheduler:
    // Box/Disjuncts/Hybrid × schedule on/off × threads {1,4} must
    // produce bit-identical ladders. Absent a deadline or probe budget
    // the scheduler is a pure priority reordering of each rung's probe
    // pool — the parallel fan-out returns results in input order and
    // rung aggregates are order-invariant sums, so nothing observable
    // may move (DESIGN.md §13).
    let ds = blobs(60, 7);
    let xs = test_points(16);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for threads in [1usize, 4] {
            let cfg = |schedule: bool| SweepConfig {
                depth: 2,
                domain,
                timeout: None,
                threads,
                schedule,
                ..SweepConfig::default()
            };
            let sched_ctx = ExecContext::new().threads(threads);
            let scheduled = antidote_core::sweep_in(&ds, &xs, &cfg(true), &sched_ctx);
            let plain_ctx = ExecContext::new().threads(threads);
            let plain = antidote_core::sweep_in(&ds, &xs, &cfg(false), &plain_ctx);
            assert_eq!(
                key(&scheduled),
                key(&plain),
                "{domain:?} @ {threads} thread(s): --no-schedule ladder diverged"
            );
            assert!(
                sched_ctx.metrics().probes_scheduled() > 0,
                "sanity: the scheduler must actually route the probes"
            );
            assert_eq!(
                sched_ctx.metrics().probes_deferred(),
                0,
                "an unbounded scheduler never defers"
            );
            assert_eq!(
                sched_ctx.metrics().deadline_degradations(),
                0,
                "an unbounded scheduler never degrades a point"
            );
            let off = plain_ctx.metrics();
            assert_eq!(
                (
                    off.probes_scheduled(),
                    off.probes_deferred(),
                    off.deadline_degradations(),
                ),
                (0, 0, 0),
                "the escape hatch must fully disarm the scheduler"
            );
        }
    }
}

#[test]
fn probe_budget_cutoff_is_thread_invariant() {
    // A probe budget — unlike a wall-clock deadline — is a deterministic
    // cutoff: the scheduler issues probes in a priority order that is a
    // pure function of the config and cache state, so a budgeted sweep
    // must stay bit-identical across thread counts and repeated runs
    // (this is why the scenario matrix can pin per-cell budgets without
    // destabilizing its committed artifact).
    let ds = blobs(60, 7);
    let xs = test_points(16);
    let cfg = |threads: usize| SweepConfig {
        depth: 2,
        domain: DomainKind::Disjuncts,
        timeout: None,
        threads,
        probe_budget: Some(8),
        ..SweepConfig::default()
    };
    let seq_ctx = ExecContext::new().threads(1);
    let sequential = antidote_core::sweep_in(&ds, &xs, &cfg(1), &seq_ctx);
    let par_ctx = ExecContext::new().threads(4);
    let parallel = antidote_core::sweep_in(&ds, &xs, &cfg(4), &par_ctx);
    assert_eq!(
        key(&sequential),
        key(&parallel),
        "a budgeted ladder must not depend on the thread count"
    );
    assert_eq!(
        seq_ctx.metrics().probes_deferred(),
        par_ctx.metrics().probes_deferred(),
        "deferral counts are part of the deterministic contract"
    );
    assert!(
        seq_ctx.metrics().probes_deferred() > 0,
        "sanity: a budget of 8 over 16 points must actually bind"
    );
}

#[test]
fn memoized_best_split_is_observationally_invisible() {
    // The per-certify-call bestSplit# memo must change nothing but work
    // counts: memo-on and --no-memo sweeps produce bit-identical ladders
    // for every domain × thread count (the memoized result is a pure
    // function of its (base, n, transformer) key), and the escape hatch
    // fully disarms the memo.
    let ds = blobs(60, 7);
    let xs = test_points(16);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for threads in [1usize, 4] {
            let cfg = |memo: bool| SweepConfig {
                depth: 3,
                domain,
                timeout: None,
                threads,
                memo,
                ..SweepConfig::default()
            };
            let memo_ctx = ExecContext::new().threads(threads);
            let memoized = antidote_core::sweep_in(&ds, &xs, &cfg(true), &memo_ctx);
            let plain_ctx = ExecContext::new().threads(threads);
            let plain = antidote_core::sweep_in(&ds, &xs, &cfg(false), &plain_ctx);
            assert_eq!(
                key(&memoized),
                key(&plain),
                "{domain:?} @ {threads} thread(s): --no-memo ladder diverged"
            );
            assert_eq!(
                plain_ctx.metrics().split_memo_hits() + plain_ctx.metrics().split_memo_misses(),
                0,
                "the escape hatch must fully disarm the memo"
            );
            if domain == DomainKind::Disjuncts {
                assert!(
                    memo_ctx.metrics().split_memo_hits() > 0,
                    "sanity: recurring depth-3 frontier states must hit the memo"
                );
            }
            // Hit/miss accounting is thread-invariant (deterministic
            // insert-time reconciliation), which the perf gate relies on.
            if threads == 1 {
                continue;
            }
            let seq_ctx = ExecContext::new().threads(1);
            let _ = antidote_core::sweep_in(&ds, &xs, &cfg(true), &seq_ctx);
            assert_eq!(
                (
                    memo_ctx.metrics().split_memo_hits(),
                    memo_ctx.metrics().split_memo_misses(),
                    memo_ctx.metrics().interner_hits(),
                ),
                (
                    seq_ctx.metrics().split_memo_hits(),
                    seq_ctx.metrics().split_memo_misses(),
                    seq_ctx.metrics().interner_hits(),
                ),
                "{domain:?}: memo/interner counters diverged across thread counts"
            );
        }
    }
}

#[test]
fn certify_verdicts_invariant_under_memo_toggle() {
    // Direct certifier differential: identical verdicts, labels, and
    // terminal counts for every domain × budget × input with and without
    // the memo, at 1 and 4 threads.
    let ds = blobs(50, 3);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for n in [0usize, 4, 16, 64] {
            for x in [[0.5], [5.1], [9.5]] {
                let outcome = |memo: bool, threads: usize| {
                    Certifier::new(&ds)
                        .depth(3)
                        .domain(domain)
                        .threads(threads)
                        .memo(memo)
                        .certify(&x, n)
                };
                let base = outcome(false, 1);
                for (memo, threads) in [(true, 1), (true, 4), (false, 4)] {
                    let o = outcome(memo, threads);
                    assert_eq!(
                        o.verdict, base.verdict,
                        "{domain:?} x={x:?} n={n} memo={memo} threads={threads}"
                    );
                    assert_eq!(o.label, base.label);
                    assert_eq!(o.stats.terminals, base.stats.terminals);
                }
            }
        }
    }
}

#[test]
fn simd_kernels_are_observationally_invisible() {
    // The chunked word kernels are a pure perf switch: --no-simd (scalar
    // fallback) and the vector forms must produce bit-identical sweep
    // ladders for every domain × thread count. Bitwise ops are exact and
    // the per-lane popcount sums are associative integer adds, so the
    // two paths compute literally the same values — this pins it.
    let ds = blobs(60, 7);
    let xs = test_points(32);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for threads in [1usize, 4] {
            let cfg = |simd: bool| SweepConfig {
                depth: 2,
                domain,
                timeout: None,
                threads,
                simd,
                ..SweepConfig::default()
            };
            let simd_ctx = ExecContext::new().threads(threads);
            let vectored = antidote_core::sweep_in(&ds, &xs, &cfg(true), &simd_ctx);
            let scalar_ctx = ExecContext::new().threads(threads);
            let scalar = antidote_core::sweep_in(&ds, &xs, &cfg(false), &scalar_ctx);
            assert_eq!(
                key(&vectored),
                key(&scalar),
                "{domain:?} @ {threads} thread(s): --no-simd ladder diverged"
            );
            // The recorded lane width reflects each run's own flag: the
            // escape hatch reports scalar (1) even in a SIMD build.
            assert_eq!(
                scalar_ctx.metrics().simd_lanes(),
                1,
                "--no-simd must disarm the kernels"
            );
            assert_eq!(
                simd_ctx.metrics().simd_lanes(),
                if antidote_data::simd::compiled() {
                    antidote_data::simd::LANES as u64
                } else {
                    1
                }
            );
            // Work counters agree exactly: the kernels change how words
            // are combined, never which states are visited.
            assert_eq!(
                (
                    simd_ctx.metrics().certify_calls(),
                    simd_ctx.metrics().disjuncts_processed(),
                    simd_ctx.metrics().disjuncts_subsumed(),
                    simd_ctx.metrics().interner_hits(),
                ),
                (
                    scalar_ctx.metrics().certify_calls(),
                    scalar_ctx.metrics().disjuncts_processed(),
                    scalar_ctx.metrics().disjuncts_subsumed(),
                    scalar_ctx.metrics().interner_hits(),
                ),
                "{domain:?} @ {threads} thread(s): SIMD toggle moved a work counter"
            );
        }
    }
}

#[test]
fn certify_verdicts_invariant_under_simd_toggle() {
    // Direct certifier differential: identical verdicts, labels, and
    // terminal counts for every domain × budget × input with the vector
    // kernels on and off, at 1 and 4 threads.
    let ds = blobs(50, 3);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for n in [0usize, 4, 16, 64] {
            for x in [[0.5], [5.1], [9.5]] {
                let outcome = |simd: bool, threads: usize| {
                    Certifier::new(&ds)
                        .depth(3)
                        .domain(domain)
                        .threads(threads)
                        .simd(simd)
                        .certify(&x, n)
                };
                let base = outcome(false, 1);
                for (simd, threads) in [(true, 1), (true, 4), (false, 4)] {
                    let o = outcome(simd, threads);
                    assert_eq!(
                        o.verdict, base.verdict,
                        "{domain:?} x={x:?} n={n} simd={simd} threads={threads}"
                    );
                    assert_eq!(o.label, base.label);
                    assert_eq!(o.stats.terminals, base.stats.terminals);
                }
            }
        }
    }
}

#[test]
fn certify_verdicts_invariant_under_subsume_toggle() {
    // Direct certifier differential (no sweep in the loop): identical
    // verdicts and labels for every domain × budget × input, with and
    // without pruning, at 1 and 4 threads.
    let ds = blobs(50, 3);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for n in [0usize, 4, 16, 64] {
            for x in [[0.5], [5.1], [9.5]] {
                let outcome = |subsume: bool, threads: usize| {
                    Certifier::new(&ds)
                        .depth(2)
                        .domain(domain)
                        .threads(threads)
                        .subsume(subsume)
                        .certify(&x, n)
                };
                let base = outcome(false, 1);
                for (subsume, threads) in [(true, 1), (true, 4), (false, 4)] {
                    let o = outcome(subsume, threads);
                    assert_eq!(
                        o.verdict, base.verdict,
                        "{domain:?} x={x:?} n={n} subsume={subsume} threads={threads}"
                    );
                    assert_eq!(o.label, base.label);
                }
            }
        }
    }
}

#[test]
fn cached_sweep_is_bit_identical_under_a_binding_disjunct_budget() {
    // With a small disjunct budget some probes deterministically abort
    // with `DisjunctBudget`. The cached sweep must report the exact same
    // per-rung budget_exhausted/verified counts as --no-cache: every
    // probe still runs its (incremental) abstract interpretation, and
    // witness short-circuits stay disarmed while a limit is configured.
    let ds = blobs(60, 7);
    let xs = test_points(16);
    let cfg = |cache: bool| SweepConfig {
        depth: 3,
        domain: DomainKind::Disjuncts,
        timeout: None,
        max_live_disjuncts: Some(24),
        threads: 1,
        cache,
        ..SweepConfig::default()
    };
    let fresh = antidote_core::sweep_in(&ds, &xs, &cfg(false), &ExecContext::sequential());
    let cached = antidote_core::sweep_in(&ds, &xs, &cfg(true), &ExecContext::sequential());
    assert_eq!(key(&fresh), key(&cached), "budget-limited ladder diverged");
    assert!(
        fresh.iter().any(|p| p.budget_exhausted > 0),
        "sanity: the budget must actually bind somewhere"
    );
}

#[test]
fn disjunct_frontier_is_thread_invariant() {
    // Multi-feature blobs at depth 3 grow a frontier wide enough that the
    // engine actually fans it out (> MIN_PARALLEL_FRONTIER disjuncts).
    let ds = gaussian_blobs(
        &BlobSpec {
            means: vec![vec![0.0; 3], vec![8.0; 3]],
            stds: vec![vec![2.0; 3], vec![2.0; 3]],
            per_class: 40,
            quantum: Some(0.5),
        },
        11,
    );
    let x = vec![1.0, 2.0, 0.5];
    for domain in [
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 16 },
    ] {
        let run = |threads: usize| {
            run_abstract(
                &ds,
                AbstractSet::full(&ds, 8),
                &x,
                3,
                domain,
                CprobTransformer::Optimal,
                true,
                true,
                true,
                &ExecContext::new().threads(threads),
            )
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.aborted, par.aborted);
        assert_eq!(
            seq.terminals, par.terminals,
            "{domain:?}: terminal states diverged"
        );
        assert_eq!(seq.peak_disjuncts, par.peak_disjuncts);
        assert_eq!(seq.peak_bytes, par.peak_bytes);
        assert_eq!(seq.iterations_completed, par.iterations_completed);
        assert!(
            seq.peak_disjuncts > 4,
            "sanity: the frontier must be wide enough to exercise par_map"
        );
    }
}

#[test]
fn certify_verdicts_thread_invariant_across_budgets() {
    let ds = blobs(50, 3);
    for n in [0usize, 4, 16, 64, 100] {
        for x in [[0.5], [5.1], [9.5]] {
            let verdict = |threads: usize| {
                Certifier::new(&ds)
                    .depth(2)
                    .domain(DomainKind::Disjuncts)
                    .threads(threads)
                    .certify(&x, n)
                    .verdict
            };
            assert_eq!(verdict(1), verdict(4), "x = {x:?}, n = {n}");
        }
    }
}

#[test]
fn forest_certificate_thread_invariant() {
    use antidote_core::ensemble::{certify_forest_in, EnsembleConfig};
    use antidote_tree::forest::{learn_forest, ForestConfig};

    let ds = gaussian_blobs(
        &BlobSpec {
            means: vec![vec![0.0; 4], vec![10.0; 4]],
            stds: vec![vec![1.0; 4], vec![1.0; 4]],
            per_class: 40,
            quantum: Some(0.1),
        },
        3,
    );
    let forest = learn_forest(
        &ds,
        &ForestConfig {
            n_trees: 5,
            features_per_tree: 2,
            max_depth: 1,
            seed: 0,
        },
    );
    let cfg = EnsembleConfig {
        depth: 1,
        ..EnsembleConfig::default()
    };
    let x = vec![0.3; 4];
    let run = |threads: usize| {
        certify_forest_in(
            &ds,
            &forest,
            &x,
            6,
            &cfg,
            &ExecContext::new().threads(threads),
        )
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.robust, par.robust);
    assert_eq!(seq.label, par.label);
    assert_eq!(seq.certified_votes, par.certified_votes);
    assert_eq!(seq.members, par.members);
}
