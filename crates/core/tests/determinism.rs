//! Thread-count invariance: the engine's parallel fan-outs must be
//! observationally identical to the sequential escape hatch.
//!
//! `threads(1)` and `threads(N)` runs share every verdict-relevant
//! output — sweep ladders, terminal abstract states, ensemble votes —
//! with only timings allowed to differ. These tests pin that contract
//! for each parallel surface.

use antidote_core::engine::ExecContext;
use antidote_core::learner::run_abstract_shared;
use antidote_core::verdict::all_terminals_dominated_by;
use antidote_core::{sweep, CertCache, Certifier, DomainKind, SweepConfig, Verdict};
use antidote_core::{Session, SessionConfig, SharedLearner};
use antidote_data::dataset::Feature;
use antidote_data::synth::{gaussian_blobs, BlobSpec};
use antidote_data::{ClassId, Dataset, DatasetDelta, FeatureKind, Schema, Subset};
use antidote_domains::{AbstractSet, CprobTransformer};
use antidote_tree::dtrace::dtrace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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

/// A rung's verdict-relevant projection: `(n, attempted, verified,
/// total_points, timeouts, budget_exhausted)`.
type Rung = (usize, usize, usize, usize, usize, usize);

/// The verdict-relevant projection of a sweep point (timings excluded).
fn key(points: &[antidote_core::SweepPoint]) -> Vec<Rung> {
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
    // every cached ladder agrees with the ladder replayed through plain
    // certify_in on every verdict-relevant field of every rung, for
    // every domain and thread count — while invoking the full certifier
    // strictly fewer times.
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
        let reference = memo_free_ladder(&ds, &xs, 1, domain, cfg(1).max_live_disjuncts);
        let fresh_probes: usize = reference.iter().map(|r| r.1).sum();
        for threads in [1usize, 4] {
            let cached_ctx = ExecContext::new().threads(threads);
            let cached = antidote_core::sweep_in(&ds, &xs, &cfg(threads), &cached_ctx);
            assert_eq!(
                key(&cached),
                reference,
                "{domain:?} @ {threads} thread(s): cached ladder diverged"
            );
            assert!(
                cached_ctx.metrics().certify_calls() < fresh_probes as u64,
                "{domain:?} @ {threads} thread(s): cache saved no certifier calls"
            );
            assert_eq!(
                cached_ctx.metrics().certify_calls(),
                xs.len() as u64,
                "one full derivation per test point"
            );
            assert!(cached_ctx.metrics().cache_hit_rate() > 0.0);
        }
    }
}

/// The reference prover without subsumption pruning or a memo: the
/// unpruned `DTrace#` frontier, judged by Corollary 4.12 against the
/// concrete reference label. Runs unbounded under `ctx`.
fn unpruned_outcome(
    ds: &Dataset,
    x: &[f64],
    n: usize,
    depth: usize,
    domain: DomainKind,
    ctx: &ExecContext,
) -> (Verdict, ClassId) {
    let label = Certifier::new(ds).depth(depth).reference_label(x);
    let out = run_abstract_shared(
        ds,
        AbstractSet::full(ds, n),
        x,
        depth,
        domain,
        CprobTransformer::Optimal,
        false,
        None,
        ctx,
    );
    assert!(
        out.aborted.is_none(),
        "the unpruned reference runs unbounded"
    );
    let robust = all_terminals_dominated_by(&out.terminals, label, CprobTransformer::Optimal);
    let verdict = if robust {
        Verdict::Robust
    } else {
        Verdict::Unknown
    };
    (verdict, label)
}

#[test]
fn subsumption_pruning_is_observationally_invisible() {
    // The full-ladder differential for the frontier subsumption pass:
    // Box/Disjuncts/Hybrid × threads {1,4} ladders must be bit-identical
    // to the ladder the unpruned prover replays — a dominated disjunct's
    // concretizations are covered by its dominator, so dropping it may
    // only remove redundant work, never flip a rung count.
    let ds = blobs(60, 7);
    let xs = test_points(16);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        let plain_ctx = ExecContext::sequential();
        let reference = replayed_ladder(&ds, &xs, |x, n| {
            unpruned_outcome(&ds, x, n, 2, domain, &plain_ctx).0
        });
        for threads in [1usize, 4] {
            let cfg = SweepConfig {
                depth: 2,
                domain,
                timeout: None,
                threads,
                ..SweepConfig::default()
            };
            let pruned_ctx = ExecContext::new().threads(threads);
            let pruned = antidote_core::sweep_in(&ds, &xs, &cfg, &pruned_ctx);
            assert_eq!(
                key(&pruned),
                reference,
                "{domain:?} @ {threads} thread(s): pruned ladder diverged from the unpruned prover"
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
    // The full-ladder differential for the probe scheduler:
    // Box/Disjuncts/Hybrid × threads {1,4} ladders must be bit-identical
    // to the same protocol replayed in pool order through plain
    // certify_in. Absent a deadline or probe budget the scheduler is a
    // pure priority reordering of each rung's probe pool — the parallel
    // fan-out returns results in input order and rung aggregates are
    // order-invariant sums, so nothing observable may move (DESIGN.md
    // §13).
    let ds = blobs(60, 7);
    let xs = test_points(16);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        let cfg = |threads: usize| SweepConfig {
            depth: 2,
            domain,
            timeout: None,
            threads,
            ..SweepConfig::default()
        };
        let reference = memo_free_ladder(&ds, &xs, 2, domain, cfg(1).max_live_disjuncts);
        for threads in [1usize, 4] {
            let sched_ctx = ExecContext::new().threads(threads);
            let scheduled = antidote_core::sweep_in(&ds, &xs, &cfg(threads), &sched_ctx);
            assert_eq!(
                key(&scheduled),
                reference,
                "{domain:?} @ {threads} thread(s): scheduled ladder diverged"
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

/// The §6.1 ladder replayed probe by probe through `prove(x, n)` — no
/// memo, no cache, no scheduler — in [`key`] form, ascending in `n`.
/// Each rung re-proves the pool the protocol attempts given the replay's
/// own verdicts: every point at `n = 1`, each doubling rung's survivors,
/// then the binary search between the last success and the first
/// all-fail rung.
fn replayed_ladder(
    ds: &Dataset,
    xs: &[Vec<f64>],
    prove: impl Fn(&[f64], usize) -> Verdict,
) -> Vec<Rung> {
    let rung = |pool: &[usize], n: usize| -> (Rung, Vec<usize>) {
        let verdicts: Vec<(usize, Verdict)> = pool.iter().map(|&i| (i, prove(&xs[i], n))).collect();
        let count = |pick: fn(Verdict) -> bool| verdicts.iter().filter(|(_, v)| pick(*v)).count();
        let verified: Vec<usize> = verdicts
            .iter()
            .filter(|(_, v)| *v == Verdict::Robust)
            .map(|&(i, _)| i)
            .collect();
        let rung = (
            n,
            pool.len(),
            verified.len(),
            xs.len(),
            count(|v| matches!(v, Verdict::Timeout | Verdict::Cancelled)),
            count(|v| v == Verdict::DisjunctBudget),
        );
        (rung, verified)
    };
    let max_n = ds.len();
    let mut rungs = Vec::new();
    let mut pool: Vec<usize> = (0..xs.len()).collect();
    let (mut n, mut last_success) = (1, None);
    while !pool.is_empty() && n <= max_n {
        let (r, verified) = rung(&pool, n);
        rungs.push(r);
        if verified.is_empty() {
            if let Some(mut lo) = last_success {
                let mut hi = n;
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    let (r, v) = rung(&pool, mid);
                    rungs.push(r);
                    if v.is_empty() {
                        hi = mid;
                    } else {
                        lo = mid;
                        pool = v;
                    }
                }
            }
            break;
        }
        last_success = Some(n);
        pool = verified;
        if n >= max_n {
            break;
        }
        n = (n * 2).min(max_n);
    }
    rungs.sort_unstable();
    rungs
}

/// [`replayed_ladder`] through plain `Certifier::certify_in`, each probe
/// under its own `max_live_disjuncts` budget.
fn memo_free_ladder(
    ds: &Dataset,
    xs: &[Vec<f64>],
    depth: usize,
    domain: DomainKind,
    max_live_disjuncts: Option<usize>,
) -> Vec<Rung> {
    let certifier = Certifier::new(ds).depth(depth).domain(domain);
    replayed_ladder(ds, xs, |x, n| {
        let ctx = ExecContext::sequential().maybe_disjunct_budget(max_live_disjuncts);
        certifier.certify_in(x, n, &ctx).verdict
    })
}

#[test]
fn memoized_best_split_is_observationally_invisible() {
    // Every removal ladder shares one bestSplit# memo across its points
    // and rungs: a one-shot ladder its own, a session its persistent
    // one. The memo must change nothing but work counts, since the
    // memoized result is a pure function of its (base, n, transformer)
    // key: each rung's attempted pool, re-certified with plain
    // memo-free certify_in, verifies the same count, for every
    // domain × thread count on both ladders.
    let ds = blobs(60, 7);
    let xs = test_points(16);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        let reference = memo_free_ladder(&ds, &xs, 3, domain, None);
        let mut counts = Vec::new();
        for threads in [1usize, 4] {
            let cfg = SweepConfig {
                depth: 3,
                domain,
                timeout: None,
                max_live_disjuncts: None,
                threads,
                ..SweepConfig::default()
            };
            let one_shot_ctx = ExecContext::new().threads(threads);
            let one_shot = antidote_core::sweep_in(&ds, &xs, &cfg, &one_shot_ctx);
            let session = Session::new(
                Arc::new(ds.clone()),
                SessionConfig {
                    depth: 3,
                    domain,
                    ..SessionConfig::default()
                },
            );
            let session_ctx = ExecContext::new().threads(threads);
            let (in_session, _) = session.sweep(&xs, None, &session_ctx);
            for (name, ladder) in [("one-shot", &one_shot), ("session", &in_session)] {
                assert_eq!(
                    key(ladder),
                    reference,
                    "{domain:?} @ {threads} thread(s): the {name} ladder diverged from \
                     memo-free certify_in"
                );
            }
            let counters = |ctx: &ExecContext| {
                let m = ctx.metrics();
                [m.split_memo_hits(), m.split_memo_misses()]
            };
            // Both ladders make the same certify calls, so they probe
            // the memo with the same keys.
            assert_eq!(
                counters(&one_shot_ctx),
                counters(&session_ctx),
                "{domain:?} @ {threads} thread(s): one-shot and session memo counters differ"
            );
            if domain == DomainKind::Disjuncts {
                assert!(
                    one_shot_ctx.metrics().split_memo_hits() > 0,
                    "sanity: a one-shot ladder's points must share split analyses"
                );
            }
            counts.push(counters(&one_shot_ctx));
        }
        // Hit/miss accounting is thread-invariant (deterministic
        // insert-time reconciliation), which the perf gate relies on.
        assert_eq!(
            counts[0], counts[1],
            "{domain:?}: memo counters diverged across thread counts"
        );
    }
}

#[test]
fn certify_verdicts_invariant_under_memo_toggle() {
    // Direct certifier differential: identical verdicts, labels, and
    // terminal counts for every domain × budget × input with and without
    // a session's shared learner state, at 1 and 4 threads.
    let ds = blobs(50, 3);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        let shared = SharedLearner::new(&ds, CprobTransformer::Optimal);
        let totals = ExecContext::sequential();
        for n in [0usize, 4, 16, 64] {
            for x in [[0.5], [5.1], [9.5]] {
                let outcome = |memo: bool, threads: usize| {
                    let certifier = Certifier::new(&ds).depth(3).domain(domain);
                    let certifier = if memo {
                        certifier.shared_state(&shared)
                    } else {
                        certifier
                    };
                    let ctx = ExecContext::new().threads(threads);
                    let out = certifier.certify_in(&x, n, &ctx);
                    totals.metrics().absorb(&ctx.metrics().snapshot());
                    out
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
        if domain == DomainKind::Disjuncts {
            assert!(
                totals.metrics().split_memo_hits() > 0,
                "sanity: the shared memo must answer recurring states"
            );
        }
    }
}

/// A random dataset for the trace-memo differential: boolean, real or
/// mixed features on a small value grid (tied thresholds, duplicate rows
/// and unsplittable fragments are the interesting cases), after a random
/// removal delta half the time, so that its epoch is 1 and some rows are
/// dead. Returns it with a batch of probe inputs: every live row, plus
/// off-grid points.
fn random_trace_instance(seed: u64) -> (Dataset, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema_kind = rng.random_range(0..3);
    let n_features = rng.random_range(if schema_kind == 2 { 2 } else { 1 }..=4usize);
    let kinds: Vec<FeatureKind> = (0..n_features)
        .map(|f| match schema_kind {
            0 => FeatureKind::Bool,
            1 => FeatureKind::Real,
            _ if f % 2 == 0 => FeatureKind::Bool,
            _ => FeatureKind::Real,
        })
        .collect();
    let k = rng.random_range(2..=3usize);
    let schema = Schema::new(
        kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| Feature {
                name: format!("x{i}"),
                kind,
            })
            .collect(),
        (0..k).map(|c| format!("c{c}")).collect(),
    )
    .unwrap();
    let value = |rng: &mut StdRng, kind: FeatureKind| match kind {
        FeatureKind::Bool => rng.random_range(0..2) as f64,
        FeatureKind::Real => rng.random_range(0..6) as f64,
    };
    let rows: Vec<(Vec<f64>, ClassId)> = (0..rng.random_range(2..=48usize))
        .map(|_| {
            let x = kinds.iter().map(|&kind| value(&mut rng, kind)).collect();
            (x, rng.random_range(0..k) as ClassId)
        })
        .collect();
    let mut ds = Dataset::from_rows(schema, &rows).unwrap();
    if rng.random_range(0..2) == 0 {
        let mut delta = DatasetDelta::new();
        for r in 0..ds.len() as u32 - 1 {
            if rng.random_range(0..3) == 0 {
                delta.remove(r);
            }
        }
        ds = ds.apply(&delta).unwrap();
    }
    let mut points: Vec<Vec<f64>> = ds.rows().map(|r| ds.row_values(r)).collect();
    for _ in 0..4 {
        points.push(
            kinds
                .iter()
                .map(|&kind| value(&mut rng, kind) + rng.random_range(0..2) as f64 * 0.5)
                .collect(),
        );
    }
    (ds, points)
}

proptest! {
    /// The concrete trace memo is invisible: one `SharedLearner` labels a
    /// whole batch of points — through `certify_cached`, the path every
    /// ladder and session takes — and traces them in full, and each
    /// label and `TraceResult` equals plain `dtrace`'s. The table holds
    /// only inner nodes of the depth-`d` tree, at most `2^d − 1` keys.
    #[test]
    fn memoized_reference_traces_equal_plain_dtrace(
        seed in 0u64..1_000_000,
        depth in 0usize..5,
    ) {
        let (ds, points) = random_trace_instance(seed);
        let full = Subset::full(&ds);
        let shared = SharedLearner::new(&ds, CprobTransformer::Optimal);
        let certifier = Certifier::new(&ds).depth(depth).shared_state(&shared);
        let cache = CertCache::for_dataset(&ds, points.len());
        let ctx = ExecContext::sequential();
        for (slot, x) in points.iter().enumerate() {
            let plain = dtrace(&ds, &full, x, depth);
            let out = certifier.certify_cached(x, 0, slot, &cache, &ctx).unwrap();
            prop_assert_eq!(out.label, plain.label, "label of {:?} at depth {}", x, depth);
            prop_assert_eq!(shared.trace_memo().dtrace(&ds, x, depth), plain);
        }
        let keys = shared.trace_memo().len();
        prop_assert!(keys < 1 << depth, "{} keys at depth {}", keys, depth);
    }
}

#[test]
fn certify_verdicts_invariant_under_subsume_toggle() {
    // Direct certifier differential (no sweep in the loop): the pruning
    // certifier at 1 and 4 threads, and the unpruned prover at 4, give
    // the sequential unpruned prover's verdict and label for every
    // domain × budget × input.
    let ds = blobs(50, 3);
    for domain in [
        DomainKind::Box,
        DomainKind::Disjuncts,
        DomainKind::Hybrid { max_disjuncts: 8 },
    ] {
        for n in [0usize, 4, 16, 64] {
            for x in [[0.5], [5.1], [9.5]] {
                let case = format!("{domain:?} x={x:?} n={n}");
                let base = unpruned_outcome(&ds, &x, n, 2, domain, &ExecContext::sequential());
                for threads in [1, 4] {
                    let o = Certifier::new(&ds)
                        .depth(2)
                        .domain(domain)
                        .threads(threads)
                        .certify(&x, n);
                    assert_eq!(
                        (o.verdict, o.label),
                        base,
                        "{case} pruned threads={threads}"
                    );
                }
                let plain = unpruned_outcome(&ds, &x, n, 2, domain, &ExecContext::new().threads(4));
                assert_eq!(plain, base, "{case} unpruned threads=4");
            }
        }
    }
}

#[test]
fn cached_sweep_is_bit_identical_under_a_binding_disjunct_budget() {
    // With a small disjunct budget some probes deterministically abort
    // with `DisjunctBudget`. The cached sweep must report the exact same
    // per-rung budget_exhausted/verified counts as plain certify_in under
    // the same budget: every probe lies inside its point's open verdict
    // gap, so each one still runs its abstract interpretation under the
    // memoized label.
    let ds = blobs(60, 7);
    let xs = test_points(16);
    let cfg = SweepConfig {
        depth: 3,
        domain: DomainKind::Disjuncts,
        timeout: None,
        max_live_disjuncts: Some(24),
        threads: 1,
        ..SweepConfig::default()
    };
    let reference = memo_free_ladder(&ds, &xs, 3, DomainKind::Disjuncts, Some(24));
    let cached = antidote_core::sweep_in(&ds, &xs, &cfg, &ExecContext::sequential());
    assert_eq!(key(&cached), reference, "budget-limited ladder diverged");
    assert!(
        reference.iter().any(|r| r.5 > 0),
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
            run_abstract_shared(
                &ds,
                AbstractSet::full(&ds, 8),
                &x,
                3,
                domain,
                CprobTransformer::Optimal,
                true,
                None,
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
