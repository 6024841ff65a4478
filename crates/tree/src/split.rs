//! Gini impurity and the greedy `bestSplit` search (paper Fig. 5, §3.3).

use crate::predicate::{midpoint, Predicate};
use antidote_data::{Dataset, RowId, Subset};

/// Classification probability vector `cprob(T)` (Fig. 5): the fraction of
/// rows in each class.
///
/// # Panics
///
/// Panics on an empty count vector total — the concrete `cprob` is
/// undefined for the empty set (the abstract `cprob#` handles that corner
/// case instead, §4.4).
pub fn cprob(counts: &[u32]) -> Vec<f64> {
    let total: u32 = counts.iter().sum();
    assert!(total > 0, "cprob is undefined on an empty training set");
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Gini impurity `ent(T) = Σᵢ pᵢ(1 − pᵢ)` (Fig. 5), computed from class
/// counts. Returns 0 for the empty set (consistent with `is_pure`).
pub fn gini(counts: &[u32]) -> f64 {
    let total: u32 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * (1.0 - p)
        })
        .sum()
}

/// Size-weighted impurity `|T| · ent(T) = |T| − Σᵢ cᵢ²/|T|`, the quantity
/// `score` sums over the two sides of a split. Computing it directly from
/// counts avoids cancellation and one division per class.
pub fn weighted_gini(counts: &[u32]) -> f64 {
    let total: u32 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    let sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    t - sq / t
}

/// The split objective
/// `score(T, φ) = |T↓φ|·ent(T↓φ) + |T↓¬φ|·ent(T↓¬φ)` for an explicit
/// predicate. The sweep in [`best_split`] computes the same quantity
/// incrementally; this form exists for tests and the enumeration baseline.
pub fn score_split(ds: &Dataset, subset: &Subset, predicate: &Predicate) -> f64 {
    let (yes, no) = subset.partition(ds, |r| predicate.eval_row(ds, r));
    weighted_gini(yes.class_counts()) + weighted_gini(no.class_counts())
}

/// A chosen split: the arg-min predicate and its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitChoice {
    /// The selected predicate.
    pub predicate: Predicate,
    /// Its `score(T, φ)` value.
    pub score: f64,
}

/// Visits every candidate threshold of one feature in ascending order.
///
/// The subset's rows are visited in ascending feature-value order (ties in
/// ascending row order); between each pair of adjacent *distinct* values
/// the callback receives `(threshold, left_class_counts, left_len)` where
/// "left" is the `≤` side. Candidates are non-trivial by construction
/// (both sides non-empty), so this enumerates the feature's contribution
/// to the paper's `Φ'`.
///
/// For dense subsets this walks the dataset's precomputed
/// [`Dataset::feature_order`] filtered by the subset's O(1) bit test —
/// no per-call gather + sort, the historically hottest loop of both
/// learners. Sparse fragments (where scanning the whole dataset's order
/// would dominate) instead gather and stably sort their own rows. The
/// stable precomputed order restricted to a subset equals a stable sort
/// of that subset, so both paths produce the identical visit sequence.
///
/// The concrete search here and the flip learner are built on this
/// sweep. The abstract `bestSplit#` in `antidote-core` walks the same
/// value order with its own copy of the loop (`score::sweep_with`),
/// sharing only [`dense_enough`]; merging the two walks is an open
/// ROADMAP item.
pub fn sweep_feature<F>(ds: &Dataset, subset: &Subset, feature: usize, mut visit: F)
where
    F: FnMut(f64, &[u32], usize),
{
    let mut left_counts = vec![0u32; subset.n_classes()];
    let mut seen = 0usize;
    let mut prev = f64::NAN;
    let mut step = |r: RowId, visit: &mut F| {
        let v = ds.value(r, feature);
        // `seen` rows strictly precede the threshold candidate.
        if seen > 0 && v > prev {
            visit(midpoint(prev, v), &left_counts, seen);
        }
        left_counts[ds.label(r) as usize] += 1;
        prev = v;
        seen += 1;
    };
    if dense_enough(subset.len(), ds.len()) {
        for &r in ds.feature_order(feature) {
            if subset.contains(r) {
                step(r, &mut visit);
            }
        }
    } else {
        let mut rows: Vec<RowId> = subset.iter().collect();
        // Stable on the ascending row ids, matching the precomputed order.
        rows.sort_by(|&a, &b| ds.value(a, feature).total_cmp(&ds.value(b, feature)));
        for &r in &rows {
            step(r, &mut visit);
        }
    }
}

/// Cutover between the two [`sweep_feature`] row sources: walking the
/// full precomputed order costs O(|dataset|) bit tests, the gather +
/// stable sort O(|S| log |S|); prefer the precomputed order once the
/// subset holds at least 1/8 of the dataset.
#[inline]
pub fn dense_enough(subset_len: usize, dataset_len: usize) -> bool {
    subset_len * 8 >= dataset_len
}

/// The greedy `bestSplit(T)` (§3.3): the non-trivial predicate minimising
/// `score`, or `None` (the paper's ⋄) when every predicate splits `T`
/// trivially.
///
/// Ties break deterministically by (score, feature, threshold); see the
/// crate docs for why the concrete semantics must be a function.
pub fn best_split(ds: &Dataset, subset: &Subset) -> Option<SplitChoice> {
    let total = subset.class_counts();
    let total_len = subset.len();
    let mut best: Option<SplitChoice> = None;
    let mut right = vec![0u32; subset.n_classes()];
    for feature in 0..ds.n_features() {
        sweep_feature(ds, subset, feature, |threshold, left, left_len| {
            for (r, (&t, &l)) in right.iter_mut().zip(total.iter().zip(left)) {
                *r = t - l;
            }
            let score = weighted_gini_with_len(left, left_len)
                + weighted_gini_with_len(&right, total_len - left_len);
            let cand = SplitChoice {
                predicate: Predicate { feature, threshold },
                score,
            };
            let better = match &best {
                None => true,
                Some(b) => score < b.score || (score == b.score && cand.predicate < b.predicate),
            };
            if better {
                best = Some(cand);
            }
        });
    }
    best
}

/// `weighted_gini` when the total is already known (saves the summation in
/// the sweep's inner loop).
#[inline]
fn weighted_gini_with_len(counts: &[u32], len: usize) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let t = len as f64;
    let sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    t - sq / t
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::{synth, Schema};

    const EPS: f64 = 1e-9;

    #[test]
    fn gini_basics() {
        assert_eq!(gini(&[0, 0]), 0.0);
        assert_eq!(gini(&[5, 0]), 0.0);
        assert!((gini(&[1, 1]) - 0.5).abs() < EPS);
        // Example 3.4: ent(T↓φ) with cprob ⟨7/9, 2/9⟩ ≈ 0.35.
        let e = gini(&[7, 2]);
        assert!((e - 28.0 / 81.0).abs() < EPS);
        assert!((e - 0.35).abs() < 0.01);
        // Three-class uniform.
        assert!((gini(&[2, 2, 2]) - 2.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn weighted_gini_matches_definition() {
        for counts in [[7u32, 2], [3, 3], [0, 5], [1, 0]] {
            let total: u32 = counts.iter().sum();
            assert!((weighted_gini(&counts) - total as f64 * gini(&counts)).abs() < EPS);
        }
    }

    #[test]
    fn cprob_basics() {
        assert_eq!(cprob(&[7, 2]), vec![7.0 / 9.0, 2.0 / 9.0]);
        assert_eq!(cprob(&[0, 4]), vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn cprob_empty_panics() {
        let _ = cprob(&[0, 0]);
    }

    #[test]
    fn figure2_scores_match_example_3_4() {
        // score(T, x ≤ 10) = 9·ent(⟨7/9,2/9⟩) + 4·ent(⟨0,1⟩) = 28/9 ≈ 3.1.
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        let p10 = Predicate {
            feature: 0,
            threshold: 10.5,
        };
        let s10 = score_split(&ds, &full, &p10);
        assert!((s10 - 28.0 / 9.0).abs() < EPS);
        assert!((s10 - 3.1).abs() < 0.02);
        // x ≤ 11 generates a more diverse split and scores strictly worse.
        // (The paper's prose prints "∼3.2"; the formula as defined gives
        // 10·ent(⟨7/10,3/10⟩) = 4.2 — either way strictly worse than 28/9.)
        let p11 = Predicate {
            feature: 0,
            threshold: 11.5,
        };
        let s11 = score_split(&ds, &full, &p11);
        assert!((s11 - 4.2).abs() < EPS);
        assert!(s11 > s10);
    }

    #[test]
    fn figure2_best_split_is_x_le_10() {
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        let choice = best_split(&ds, &full).unwrap();
        assert_eq!(
            choice.predicate,
            Predicate {
                feature: 0,
                threshold: 10.5
            }
        );
        assert!((choice.score - 28.0 / 9.0).abs() < EPS);
    }

    #[test]
    fn best_split_matches_exhaustive_scoring() {
        // The sweep must agree with brute-force scoring of every candidate.
        let ds = synth::iris_like(3);
        let full = Subset::full(&ds);
        let sweep = best_split(&ds, &full).unwrap();
        let brute = crate::predicate::candidate_predicates(&ds, &full)
            .into_iter()
            .map(|p| SplitChoice {
                predicate: p,
                score: score_split(&ds, &full, &p),
            })
            .min_by(|a, b| {
                a.score
                    .total_cmp(&b.score)
                    .then_with(|| a.predicate.cmp(&b.predicate))
            })
            .unwrap();
        assert_eq!(sweep.predicate, brute.predicate);
        assert!((sweep.score - brute.score).abs() < 1e-6);
    }

    #[test]
    fn best_split_none_when_no_nontrivial_predicate() {
        // All feature values identical → Φ' is empty → ⋄.
        let ds = antidote_data::Dataset::from_rows(
            Schema::real(2, 2),
            &[(vec![1.0, 2.0], 0), (vec![1.0, 2.0], 1)],
        )
        .unwrap();
        assert!(best_split(&ds, &Subset::full(&ds)).is_none());
    }

    #[test]
    fn best_split_on_single_row_is_none() {
        let ds = synth::figure2();
        let one = Subset::from_indices(&ds, vec![0]);
        assert!(best_split(&ds, &one).is_none());
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two features that induce mirror-image splits with identical
        // scores; the lower feature index must win.
        let ds = antidote_data::Dataset::from_rows(
            Schema::real(2, 2),
            &[
                (vec![0.0, 1.0], 0),
                (vec![0.0, 1.0], 0),
                (vec![1.0, 0.0], 1),
                (vec![1.0, 0.0], 1),
            ],
        )
        .unwrap();
        let choice = best_split(&ds, &Subset::full(&ds)).unwrap();
        assert_eq!(choice.predicate.feature, 0);
        assert_eq!(choice.score, 0.0);
    }

    #[test]
    fn sweep_feature_sparse_and_dense_paths_agree() {
        // A 10-row fragment of a 200-row dataset takes the sparse
        // gather+sort path; the same 10 rows as their own dataset's full
        // subset take the dense precomputed-order path. Both must emit
        // the identical (threshold, left counts, left len) sequence.
        let rows: Vec<(Vec<f64>, u16)> = (0..200)
            .map(|i| (vec![((i * 7) % 23) as f64], (i % 2) as u16))
            .collect();
        let big = antidote_data::Dataset::from_rows(Schema::real(1, 2), &rows).unwrap();
        let picked: Vec<u32> = (0..10).map(|i| i * 19 + 3).collect();
        let sparse = Subset::from_indices(&big, picked.clone());
        assert!(!dense_enough(sparse.len(), big.len()), "sparse path");
        let small_rows: Vec<(Vec<f64>, u16)> =
            picked.iter().map(|&r| rows[r as usize].clone()).collect();
        let small = antidote_data::Dataset::from_rows(Schema::real(1, 2), &small_rows).unwrap();
        let full = Subset::full(&small);
        assert!(dense_enough(full.len(), small.len()), "dense path");
        let mut a = Vec::new();
        sweep_feature(&big, &sparse, 0, |t, l, n| a.push((t, l.to_vec(), n)));
        let mut b = Vec::new();
        sweep_feature(&small, &full, 0, |t, l, n| b.push((t, l.to_vec(), n)));
        assert!(!a.is_empty());
        assert_eq!(a, b, "the two row sources must sweep identically");
    }

    #[test]
    fn sweep_feature_boundaries() {
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        let mut seen = Vec::new();
        sweep_feature(&ds, &full, 0, |t, left, len| {
            seen.push((t, left.to_vec(), len));
        });
        assert_eq!(seen.len(), 12);
        // First boundary: left of 0.5 is the single black point 0.
        assert_eq!(seen[0], (0.5, vec![0, 1], 1));
        // Boundary at 10.5: 7 white + 2 black on the left.
        let at_10 = seen.iter().find(|(t, _, _)| *t == 10.5).unwrap();
        assert_eq!((at_10.1.clone(), at_10.2), (vec![7, 2], 9));
    }
}
