//! The trace-based learner `DTrace` (paper Fig. 4).
//!
//! `DTrace(T, x)` builds only the root-to-leaf trace that the input `x`
//! would traverse in the tree learned on `T`: it repeatedly picks the best
//! split and *filters* the training set down to the side `x` falls on,
//! instead of recursing into both sides. Running it for every `x` recovers
//! the full tree (§3.3); its purpose here is to be the concrete semantics
//! that `DTrace#` in `antidote-core` abstractly interprets.
//!
//! The loop exists once, in [`dtrace_with`], which takes the split search
//! as a closure. [`dtrace`] passes the plain [`best_split`]. Because every
//! input's trace walks the same tree, a caller tracing many inputs on one
//! training set can pass a memoized search instead and learn each tree
//! node once: `antidote-core`'s ladders and sessions do, through the
//! concrete `bestSplit` memo of their shared learner state.

use crate::predicate::Predicate;
use crate::split::{best_split, cprob, SplitChoice};
use antidote_data::{ClassId, Dataset, Subset, ThresholdCmp};

/// One step of a learned trace: the chosen predicate and whether the input
/// satisfied it (i.e. which side the filter kept).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// The predicate `bestSplit` selected at this depth.
    pub predicate: Predicate,
    /// `x |= φ` — true when the trace follows the `≤` side.
    pub satisfied: bool,
}

/// The result of running `DTrace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// The predicted label: `argmaxᵢ pᵢ` over [`TraceResult::probs`]
    /// (ties break toward the smallest class id).
    pub label: ClassId,
    /// `cprob` of the final training-set fragment.
    pub probs: Vec<f64>,
    /// The sequence of filtering steps taken (σ in the paper, paired with
    /// polarity).
    pub steps: Vec<TraceStep>,
    /// The final training-set fragment `Tr`.
    pub final_set: Subset,
}

/// Runs `DTrace` on training fragment `initial` and input `x`, with at most
/// `depth` calls to `bestSplit`.
///
/// Loop structure mirrors Fig. 4 exactly:
/// 1. stop if `ent(T) = 0` (pure set);
/// 2. `φ ← bestSplit(T)`; stop if `φ = ⋄`;
/// 3. `T ← filter(T, φ, x)` — keep the rows that agree with `x` on `φ`.
///
/// # Panics
///
/// Panics if `initial` is empty (the concrete semantics is undefined there)
/// or if `x` has fewer features than the dataset.
pub fn dtrace(ds: &Dataset, initial: &Subset, x: &[f64], depth: usize) -> TraceResult {
    dtrace_with(ds, initial, x, depth, |t| best_split(ds, t))
}

/// [`dtrace`] with the split search supplied by the caller: `split(T)`
/// stands in for `bestSplit(T)` at every step and must return exactly
/// what [`best_split`]`(ds, T)` returns, so that the trace is `DTrace`'s.
/// `split` is only asked about impure fragments the trace reaches.
///
/// # Panics
///
/// Panics under the same conditions as [`dtrace`].
pub fn dtrace_with(
    ds: &Dataset,
    initial: &Subset,
    x: &[f64],
    depth: usize,
    mut split: impl FnMut(&Subset) -> Option<SplitChoice>,
) -> TraceResult {
    assert!(
        !initial.is_empty(),
        "DTrace is undefined on an empty training set"
    );
    assert!(
        x.len() >= ds.n_features(),
        "input has {} features, dataset has {}",
        x.len(),
        ds.n_features()
    );
    let mut t = initial.clone();
    let mut steps = Vec::new();
    for _ in 0..depth {
        if t.is_pure() {
            break; // ent(T) = 0
        }
        let Some(choice) = split(&t) else {
            break; // φ = ⋄
        };
        let satisfied = choice.predicate.eval(x);
        // filter(T, φ, x): keep rows that evaluate like x — a threshold
        // test (or its complement), so the word-parallel restriction
        // fast path applies.
        let cmp = if satisfied {
            ThresholdCmp::Le
        } else {
            ThresholdCmp::Gt
        };
        t = t.filter_cmp(
            ds,
            choice.predicate.feature,
            choice.predicate.threshold,
            cmp,
        );
        steps.push(TraceStep {
            predicate: choice.predicate,
            satisfied,
        });
    }
    let probs = cprob(t.class_counts());
    let label = argmax_label(&probs);
    TraceResult {
        label,
        probs,
        steps,
        final_set: t,
    }
}

/// Convenience wrapper returning only the predicted label.
pub fn dtrace_label(ds: &Dataset, initial: &Subset, x: &[f64], depth: usize) -> ClassId {
    dtrace(ds, initial, x, depth).label
}

/// `argmaxᵢ pᵢ` with deterministic tie-breaking toward the smallest index.
pub(crate) fn argmax_label(probs: &[f64]) -> ClassId {
    let mut best = 0usize;
    for (i, &p) in probs.iter().enumerate().skip(1) {
        if p > probs[best] {
            best = i;
        }
    }
    best as ClassId
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::{synth, Schema};

    #[test]
    fn figure2_example_3_5() {
        // DTrace(T, 18) terminates in state (T↓x>10, ...) with trace
        // [x > 10] and classifies black because cprob = ⟨0, 1⟩.
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        let r = dtrace(&ds, &full, &[18.0], 1);
        assert_eq!(r.label, 1);
        assert_eq!(r.probs, vec![0.0, 1.0]);
        assert_eq!(r.steps.len(), 1);
        assert_eq!(
            r.steps[0].predicate,
            Predicate {
                feature: 0,
                threshold: 10.5
            }
        );
        assert!(!r.steps[0].satisfied);
        assert_eq!(r.final_set.len(), 4);
    }

    #[test]
    fn figure2_left_side() {
        // Input 5 goes left; white with probability 7/9 (§2).
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        let r = dtrace(&ds, &full, &[5.0], 1);
        assert_eq!(r.label, 0);
        assert!((r.probs[0] - 7.0 / 9.0).abs() < 1e-12);
        assert!(r.steps[0].satisfied);
    }

    #[test]
    fn depth_zero_uses_majority() {
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        let r = dtrace(&ds, &full, &[5.0], 0);
        assert!(r.steps.is_empty());
        assert_eq!(r.label, 0, "7 white vs 6 black → white");
    }

    #[test]
    fn pure_set_stops_early() {
        let ds = synth::figure2();
        // Rows 9..13 are the all-black right side.
        let blacks = Subset::from_indices(&ds, vec![9, 10, 11, 12]);
        let r = dtrace(&ds, &blacks, &[12.0], 4);
        assert!(r.steps.is_empty(), "ent(T)=0 returns before splitting");
        assert_eq!(r.label, 1);
    }

    #[test]
    fn no_split_available_stops() {
        let ds = antidote_data::Dataset::from_rows(
            Schema::real(1, 2),
            &[(vec![2.0], 0), (vec![2.0], 1), (vec![2.0], 1)],
        )
        .unwrap();
        let r = dtrace(&ds, &Subset::full(&ds), &[2.0], 3);
        assert!(r.steps.is_empty());
        assert_eq!(r.label, 1, "majority of an unsplittable mixed set");
    }

    #[test]
    fn deeper_traces_refine() {
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        // At depth 2 the left side splits again; input 5 now lands in a
        // fragment at least as pure as at depth 1.
        let d1 = dtrace(&ds, &full, &[5.0], 1);
        let d2 = dtrace(&ds, &full, &[5.0], 2);
        assert!(d2.final_set.is_subset_of(&d1.final_set));
        assert!(d2.probs[d2.label as usize] >= d1.probs[d1.label as usize] - 1e-12);
    }

    #[test]
    fn argmax_tie_breaks_low() {
        assert_eq!(argmax_label(&[0.5, 0.5]), 0);
        assert_eq!(argmax_label(&[0.2, 0.5, 0.3]), 1);
        assert_eq!(argmax_label(&[0.0, 0.0, 0.0]), 0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn empty_initial_panics() {
        let ds = synth::figure2();
        let _ = dtrace(&ds, &Subset::empty(2), &[0.0], 1);
    }

    #[test]
    fn label_is_deterministic_function() {
        let ds = synth::iris_like(0);
        let full = Subset::full(&ds);
        let x = ds.row_values(17);
        for _ in 0..3 {
            assert_eq!(dtrace(&ds, &full, &x, 3), dtrace(&ds, &full, &x, 3));
        }
    }
}
