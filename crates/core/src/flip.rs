//! Extension: certification under **label-flip poisoning** (see
//! `antidote_domains::flipset` for the threat model and domain).
//!
//! The abstract learner for flips mirrors `DTrace#` but is simpler in
//! three ways, all consequences of features being untouched:
//!
//! * candidate predicates, trivial-split analysis, and each input's side
//!   of every predicate are *concrete* — only scores are intervals, so
//!   the ⋄ branch occurs exactly when the concrete learner's does;
//! * a terminal reached through the `ent(T) = 0` conditional always
//!   classifies as its pure class, so pure terminals carry an exact label;
//! * no polarity fork: each kept predicate contributes one branch.
//!
//! The price: relabelings of different carriers cannot be joined into one
//! flip element, so the learner is inherently disjunctive (there is no
//! Box variant).

use crate::certify::{Outcome, RunStats, Verdict};
use crate::engine::{Counter, ExecContext};
use crate::learner::Abort;
use crate::memo::FlipSplitMemo;
use crate::verdict::dominant_class;
use antidote_data::{ClassId, Dataset, Subset, SubsetInterner, ThresholdCmp};
use antidote_domains::flipset::{score_interval_flip, FlipSet};
use antidote_tree::dtrace::dtrace_label;
use antidote_tree::split::sweep_feature;
use antidote_tree::Predicate;
use std::time::Instant;

/// Slack for score-bound comparisons (inclusive, as in `bestSplit#`).
const SCORE_EPS: f64 = 1e-9;

/// A terminal state of the flip learner.
#[derive(Debug, Clone, PartialEq)]
pub enum FlipTerminal {
    /// A return through `ent(T) = 0`: the output label is exactly this
    /// class for every concretization taking the branch.
    Pure(ClassId),
    /// A ⋄ or depth-exhaustion return with its abstract fragment.
    Fragment(FlipSet),
}

/// Raw result of one abstract flip run.
#[derive(Debug, Clone)]
pub struct FlipRunOutput {
    /// Terminal states.
    pub terminals: Vec<FlipTerminal>,
    /// Why the run aborted, if it did.
    pub aborted: Option<Abort>,
    /// Peak simultaneous disjuncts.
    pub peak_disjuncts: usize,
    /// Peak memory proxy in bytes.
    pub peak_bytes: usize,
}

/// `bestSplit#` under flips: every concrete non-trivial predicate of the
/// carrier whose score interval overlaps the minimal upper bound.
///
/// Returns `(kept predicates, diamond)`; `diamond` is true exactly when
/// the carrier admits no non-trivial split (identical to the concrete ⋄).
pub fn best_split_flip(ds: &Dataset, f: &FlipSet) -> (Vec<Predicate>, bool) {
    let total = f.subset().class_counts().to_vec();
    let total_len = f.len();
    let n = f.n();
    let mut cands: Vec<(Predicate, f64, f64)> = Vec::new(); // (pred, lb, ub)
    let mut right = vec![0u32; total.len()];
    for feature in 0..ds.n_features() {
        sweep_feature(ds, f.subset(), feature, |threshold, left, left_len| {
            for (r, (&t, &l)) in right.iter_mut().zip(total.iter().zip(left)) {
                *r = t - l;
            }
            let iv = score_interval_flip(left, &right, n);
            let _ = left_len;
            let _ = total_len;
            cands.push((Predicate { feature, threshold }, iv.lb(), iv.ub()));
        });
    }
    if cands.is_empty() {
        return (Vec::new(), true);
    }
    let lub = cands.iter().map(|c| c.2).fold(f64::MAX, f64::min);
    let kept = cands
        .into_iter()
        .filter(|c| c.1 <= lub + SCORE_EPS)
        .map(|c| c.0)
        .collect();
    (kept, false)
}

/// The per-disjunct outcome of one flip-learner iteration (the flip
/// counterpart of the removal learner's step; see `learner::StepOut`).
enum FlipStepOut {
    /// The disjunct was not processed because the run should stop.
    Aborted,
    /// Terminals emitted and successor disjuncts produced.
    Done {
        terminals: Vec<FlipTerminal>,
        branches: Vec<FlipSet>,
    },
}

/// One iteration of the flip learner for a single disjunct.
fn step_flipset(
    ds: &Dataset,
    f: &FlipSet,
    x: &[f64],
    memo: &FlipSplitMemo,
    ctx: &ExecContext,
) -> FlipStepOut {
    if ctx.should_stop() {
        return FlipStepOut::Aborted;
    }
    let mut terminals: Vec<FlipTerminal> = Vec::new();
    // ent(T) = 0 conditional: pure-feasible classes terminate with
    // an exact label.
    for class in 0..ds.n_classes() as ClassId {
        if f.pure_feasible(class) {
            terminals.push(FlipTerminal::Pure(class));
        }
    }
    if f.all_concretizations_pure() {
        return FlipStepOut::Done {
            terminals,
            branches: Vec::new(),
        };
    }
    // bestSplit# and the ⋄ conditional, through the per-run memo
    // (best_split_flip is a pure function of the carrier and budget, so
    // recurring states reuse the stored analysis bit-identically).
    let split = memo.best_split(ds, f, ctx.metrics());
    let (preds, diamond) = (&split.0, split.1);
    if diamond {
        terminals.push(FlipTerminal::Fragment(f.clone()));
        return FlipStepOut::Done {
            terminals,
            branches: Vec::new(),
        };
    }
    // filter#: one branch per kept predicate, on x's side (a `≤` test or
    // its complement, so the word-parallel threshold restriction applies).
    let branches = preds
        .iter()
        .map(|p| {
            let cmp = if p.eval(x) {
                ThresholdCmp::Le
            } else {
                ThresholdCmp::Gt
            };
            f.restrict_cmp(ds, p.feature, p.threshold, cmp)
        })
        .collect();
    FlipStepOut::Done {
        terminals,
        branches,
    }
}

/// Runs the abstract flip learner to depth `depth` under `ctx`, fanning
/// each iteration's disjunct frontier across the context's workers
/// (in-order fold: parallel and sequential runs are identical).
pub fn run_flip(
    ds: &Dataset,
    initial: FlipSet,
    x: &[f64],
    depth: usize,
    ctx: &ExecContext,
) -> FlipRunOutput {
    // Per-run bestSplit# memo and carrier interner (DESIGN.md
    // §9.1–9.2). The flip memo has no escape hatch:
    // flip scoring is concrete-thresholded and the memoized result is a
    // pure function of the (carrier, budget) key, so the memo is as
    // observationally invisible as frontier dedup itself.
    let memo = FlipSplitMemo::new(ds);
    let mut interner = SubsetInterner::new();
    let mut active: Vec<FlipSet> = vec![initial];
    intern_flip_frontier(&mut active, &mut interner, ctx);
    let mut terminals: Vec<FlipTerminal> = Vec::new();
    let mut peak_disjuncts = 1usize;
    let mut peak_bytes = 0usize;

    for _ in 0..depth {
        if active.is_empty() {
            break;
        }
        // Same inline threshold as the removal learner's frontier.
        let stepped: Vec<FlipStepOut> = if active.len() >= crate::learner::MIN_PARALLEL_FRONTIER
            && ctx.effective_threads() > 1
        {
            ctx.par_map(&active, |_, f| step_flipset(ds, f, x, &memo, ctx))
        } else {
            active
                .iter()
                .map(|f| step_flipset(ds, f, x, &memo, ctx))
                .collect()
        };
        let processed = stepped
            .iter()
            .filter(|s| !matches!(s, FlipStepOut::Aborted))
            .count();
        ctx.metrics()
            .record(Counter::DisjunctsProcessed, processed as u64);
        let mut next: Vec<FlipSet> = Vec::new();
        for out in stepped {
            match out {
                FlipStepOut::Aborted => {
                    let why = if ctx.is_cancelled() {
                        Abort::Cancelled
                    } else {
                        Abort::Timeout
                    };
                    return FlipRunOutput {
                        terminals,
                        aborted: Some(why),
                        peak_disjuncts,
                        peak_bytes,
                    };
                }
                FlipStepOut::Done {
                    terminals: t,
                    branches,
                } => {
                    terminals.extend(t);
                    next.extend(branches);
                }
            }
        }
        dedup_flipsets(&mut next);
        intern_flip_frontier(&mut next, &mut interner, ctx);
        active = next;
        let live = active.len() + terminals.len();
        peak_disjuncts = peak_disjuncts.max(live);
        let bytes: usize = active
            .iter()
            .map(FlipSet::approx_bytes)
            .chain(terminals.iter().map(|t| match t {
                FlipTerminal::Pure(_) => std::mem::size_of::<ClassId>(),
                FlipTerminal::Fragment(f) => f.approx_bytes(),
            }))
            .sum();
        peak_bytes = peak_bytes.max(bytes);
        ctx.metrics()
            .record(Counter::PeakDisjuncts, peak_disjuncts as u64);
        ctx.metrics().record(Counter::PeakBytes, peak_bytes as u64);
        if ctx.over_disjunct_budget(live) {
            return FlipRunOutput {
                terminals,
                aborted: Some(Abort::DisjunctLimit),
                peak_disjuncts,
                peak_bytes,
            };
        }
    }
    terminals.extend(active.into_iter().map(FlipTerminal::Fragment));
    peak_disjuncts = peak_disjuncts.max(terminals.len());
    FlipRunOutput {
        terminals,
        aborted: None,
        peak_disjuncts,
        peak_bytes,
    }
}

/// Removes exact duplicate flip states (the shared
/// [`learner::dedup_states`](crate::learner) pass keyed on the carrier).
fn dedup_flipsets(sets: &mut Vec<FlipSet>) {
    crate::learner::dedup_states(sets, |s| (s.n(), s.subset().clone()));
}

/// The flip-frontier interning pass (the shared
/// [`SubsetInterner::intern_all`] keyed on the carrier): payloads already
/// hash-consed in this run are rewired to the canonical allocation, with
/// hits counted on the run metrics.
fn intern_flip_frontier(sets: &mut [FlipSet], interner: &mut SubsetInterner, ctx: &ExecContext) {
    let hits = interner.intern_all(sets, FlipSet::subset, |s, c| FlipSet::new(c, s.n()));
    if hits > 0 {
        ctx.metrics().record(Counter::InternerHits, hits);
    }
}

/// Attempts to prove that `x`'s prediction is robust to up to `n` label
/// flips in the training set.
///
/// # Panics
///
/// Panics if `ds` is empty or `x` is shorter than the dataset's features.
pub fn certify_label_flips(
    ds: &Dataset,
    x: &[f64],
    depth: usize,
    n: usize,
    ctx: &ExecContext,
) -> Outcome {
    let start = Instant::now();
    let label = dtrace_label(ds, &Subset::full(ds), x, depth);
    let out = run_flip(ds, FlipSet::full(ds, n), x, depth, ctx);
    let verdict = match out.aborted {
        Some(Abort::Timeout) => Verdict::Timeout,
        Some(Abort::Cancelled) => Verdict::Cancelled,
        Some(Abort::DisjunctLimit) => Verdict::DisjunctBudget,
        None => {
            let all_ok = out.terminals.iter().all(|t| match t {
                FlipTerminal::Pure(c) => *c == label,
                FlipTerminal::Fragment(f) => dominant_class(&f.cprob_intervals()) == Some(label),
            });
            if all_ok {
                Verdict::Robust
            } else {
                Verdict::Unknown
            }
        }
    };
    Outcome {
        verdict,
        label,
        stats: RunStats {
            elapsed: start.elapsed(),
            peak_disjuncts: out.peak_disjuncts,
            peak_bytes: out.peak_bytes,
            terminals: out.terminals.len(),
            iterations_completed: depth,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::synth::{self, BlobSpec};

    fn blobs() -> Dataset {
        synth::gaussian_blobs(
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
    fn zero_flips_proves_strict_predictions() {
        let ds = synth::figure2();
        let out = certify_label_flips(&ds, &[5.0], 1, 0, &ExecContext::sequential());
        assert!(out.is_robust());
        assert_eq!(out.label, 0);
    }

    #[test]
    fn separated_blobs_prove_under_flips() {
        // Flip certificates are intrinsically tighter than removal
        // certificates: a flip can corrupt a pure branch, so `ent#`
        // intervals (and hence kept predicate sets) are wider. 3% of the
        // training labels is still provable on well-separated data.
        let ds = blobs();
        let out = certify_label_flips(&ds, &[0.5], 1, 6, &ExecContext::sequential());
        assert!(out.is_robust(), "6 flips of 200 must not flip a deep point");
        let out = certify_label_flips(&ds, &[0.5], 1, 120, &ExecContext::sequential());
        assert!(
            !out.is_robust(),
            "flipping over half the data is never provable"
        );
    }

    #[test]
    fn flip_budget_ladder_is_contiguous() {
        let ds = blobs();
        let max_proven = (0..=64)
            .filter(|&n| {
                certify_label_flips(&ds, &[0.5], 1, n, &ExecContext::sequential()).is_robust()
            })
            .max()
            .expect("n = 0 proves");
        assert!(max_proven >= 4);
        for n in 0..=max_proven {
            assert!(
                certify_label_flips(&ds, &[0.5], 1, n, &ExecContext::sequential()).is_robust(),
                "gap at {n}"
            );
        }
    }

    #[test]
    fn tiny_sets_are_only_provable_without_flips() {
        // On the 13-point figure2, one flip already moves every branch's
        // class counts enough that bestSplit# keeps disagreeing
        // predicates — the same tiny-data regime the removal model hits
        // (see certify::tests). n = 0 is exact and proves.
        let ds = synth::figure2();
        for x in [5.0, 18.0] {
            assert!(certify_label_flips(&ds, &[x], 1, 0, &ExecContext::sequential()).is_robust());
            assert!(!certify_label_flips(&ds, &[x], 1, 2, &ExecContext::sequential()).is_robust());
        }
    }

    #[test]
    fn pure_white_concretizations_block_black_certificates() {
        // pure_feasible(white) on the {11..14} black branch needs 4 flips:
        // at n = 4 a pure-white relabeling of that branch exists, so a
        // black-classified input can never certify.
        let ds = synth::figure2();
        let bad = certify_label_flips(&ds, &[18.0], 4, 4, &ExecContext::sequential());
        assert!(!bad.is_robust());
        // And the Pure terminal machinery reports the right feasibility.
        let branch = FlipSet::new(Subset::from_indices(&ds, vec![9, 10, 11, 12]), 4);
        assert!(branch.pure_feasible(0));
        assert!(branch.pure_feasible(1));
    }

    #[test]
    fn timeout_and_budget_abort() {
        let ds = blobs();
        let out = certify_label_flips(
            &ds,
            &[0.5],
            3,
            8,
            &ExecContext::sequential().timeout(std::time::Duration::ZERO),
        );
        assert_eq!(out.verdict, Verdict::Timeout);
        let out = certify_label_flips(
            &ds,
            &[0.5],
            3,
            8,
            &ExecContext::sequential().disjunct_budget(1),
        );
        assert!(matches!(
            out.verdict,
            Verdict::DisjunctBudget | Verdict::Robust
        ));
    }

    #[test]
    fn best_split_flip_reduces_to_concrete_at_zero() {
        let ds = synth::figure2();
        let f = FlipSet::full(&ds, 0);
        let (preds, diamond) = best_split_flip(&ds, &f);
        assert!(!diamond);
        assert_eq!(
            preds,
            vec![Predicate {
                feature: 0,
                threshold: 10.5
            }]
        );
        // Larger budgets keep supersets.
        let f2 = FlipSet::full(&ds, 2);
        let (preds2, _) = best_split_flip(&ds, &f2);
        assert!(preds2.contains(&Predicate {
            feature: 0,
            threshold: 10.5
        }));
        assert!(preds2.len() >= preds.len());
    }

    #[test]
    fn diamond_matches_concrete() {
        let ds = antidote_data::Dataset::from_rows(
            antidote_data::Schema::real(1, 2),
            &[(vec![2.0], 0), (vec![2.0], 1)],
        )
        .unwrap();
        let (preds, diamond) = best_split_flip(&ds, &FlipSet::full(&ds, 1));
        assert!(diamond);
        assert!(preds.is_empty());
    }
}
