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
//!
//! Only the per-state step ([`best_split_flip`] and `filter#` on
//! [`FlipSet`]s) and the per-layer pass (dedup alone, no subsumption or
//! merge) are the flip learner's own. The depth loop is the removal
//! learner's (`learner::run_frontier`: parallel fan-out, abort handling,
//! watermarks, disjunct budget), the verdict mapping is the removal
//! certifier's, and the §6.1 ladder over many points is
//! [`sweep::flip_sweep`](crate::sweep::flip_sweep). Every `bestSplit#`
//! is computed and charged as one `split_memo_misses`, as on a one-shot
//! removal run.

use crate::certify::{run_outcome, Outcome};
use crate::engine::{Counter, ExecContext};
use crate::learner::{dedup_states, run_frontier, Footprint, Step};
use crate::verdict::dominant_class;
use antidote_data::{ClassId, Dataset, Subset, ThresholdCmp};
use antidote_domains::flipset::{score_interval_flip, FlipSet};
use antidote_tree::dtrace::dtrace_label;
use antidote_tree::split;
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

impl From<FlipSet> for FlipTerminal {
    fn from(f: FlipSet) -> Self {
        FlipTerminal::Fragment(f)
    }
}

impl Footprint for FlipSet {
    fn footprint(&self) -> usize {
        self.approx_bytes()
    }
}

impl Footprint for FlipTerminal {
    fn footprint(&self) -> usize {
        match self {
            FlipTerminal::Pure(_) => std::mem::size_of::<ClassId>(),
            FlipTerminal::Fragment(f) => f.approx_bytes(),
        }
    }
}

/// `bestSplit#` under flips: every concrete non-trivial predicate of the
/// carrier whose score interval overlaps the minimal upper bound.
///
/// Returns `(kept predicates, diamond)`; `diamond` is true exactly when
/// the carrier admits no non-trivial split (identical to the concrete ⋄).
pub fn best_split_flip(ds: &Dataset, f: &FlipSet) -> (Vec<Predicate>, bool) {
    let n = f.n();
    let mut cands: Vec<(Predicate, f64, f64)> = Vec::new(); // (pred, lb, ub)
    split::sweep(ds, f.subset(), |cut| {
        let iv = score_interval_flip(cut.left, cut.right, n);
        cands.push((cut.predicate(), iv.lb(), iv.ub()));
    });
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

/// One iteration of the flip learner for a single state: the
/// `ent(T) = 0` fork, `bestSplit#` with the ⋄ fork, and `filter#`.
fn step_flipset(
    ds: &Dataset,
    f: &FlipSet,
    x: &[f64],
    ctx: &ExecContext,
) -> Step<FlipTerminal, FlipSet> {
    let mut terminals: Vec<FlipTerminal> = Vec::new();
    // ent(T) = 0 conditional: pure-feasible classes terminate with
    // an exact label.
    for class in 0..ds.n_classes() as ClassId {
        if f.pure_feasible(class) {
            terminals.push(FlipTerminal::Pure(class));
        }
    }
    if f.all_concretizations_pure() {
        return Step {
            terminals,
            branches: Vec::new(),
        };
    }
    // bestSplit# and the ⋄ conditional, charged as one computation.
    ctx.metrics().record(Counter::SplitMemoMisses, 1);
    let (preds, diamond) = best_split_flip(ds, f);
    if diamond {
        terminals.push(FlipTerminal::Fragment(f.clone()));
        return Step {
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
    Step {
        terminals,
        branches,
    }
}

/// Attempts to prove that `x`'s prediction is robust to up to `n` label
/// flips in the training set.
///
/// The abstract flip learner runs to depth `depth` on the shared
/// frontier loop under `ctx`; each layer is deduplicated by the shared
/// [`learner::dedup_states`](crate::learner) pass, keyed on the budget
/// and the carrier.
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
    let out = run_frontier(
        FlipSet::full(ds, n),
        depth,
        ctx,
        |f| step_flipset(ds, f, x, ctx),
        |next| dedup_states(next, |s| (s.n(), s.subset().clone())),
    );
    run_outcome(out, label, start, |terminals| {
        terminals.iter().all(|t| match t {
            FlipTerminal::Pure(c) => *c == label,
            FlipTerminal::Fragment(f) => dominant_class(&f.cprob_intervals()) == Some(label),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::Verdict;
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
        assert_eq!(out.stats.iterations_completed, 0, "no layer finished");
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
        assert_eq!(
            out.stats.iterations_completed, 1,
            "the budget aborts after the first layer"
        );
    }

    #[test]
    fn flip_runs_count_one_miss_per_best_split() {
        // No memo: every bestSplit# is computed and charged as one miss.
        // Figure 2 at depth 1 steps only the root.
        let ds = synth::figure2();
        let ctx = ExecContext::sequential();
        certify_label_flips(&ds, &[5.0], 1, 2, &ctx);
        let m = ctx.metrics();
        assert_eq!(m.split_memo_misses(), 1);
        assert_eq!(m.split_memo_hits(), 0);
        assert_eq!(m.disjuncts_processed(), 1);
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
