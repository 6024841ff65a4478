//! Gini impurity, the greedy `bestSplit` search (paper Fig. 5, §3.3), and
//! the split walk ([`sweep`]) that every learner's split search runs on.

use crate::predicate::{midpoint, Predicate};
use antidote_data::{simd, ClassId, Dataset, FeatureKind, RowId, Subset};
use std::cell::RefCell;

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
/// predicate. [`best_split`] computes the same quantity from the walk's
/// counts; this form exists for tests and the enumeration baseline.
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

/// One candidate cut of a feature, as the split walk hands it over: the
/// subset's rows with value `≤ lo` form the left side, those with value
/// `≥ hi` the right side, and no row of the subset lies strictly
/// between. Both sides are non-empty.
#[derive(Debug, Clone, Copy)]
pub struct Cut<'a> {
    /// The feature being cut.
    pub feature: usize,
    /// The largest left-side value.
    pub lo: f64,
    /// The smallest right-side value.
    pub hi: f64,
    /// Per-class row counts of the left side.
    pub left: &'a [u32],
    /// Rows on the left side (`Σ left`).
    pub left_len: usize,
    /// Per-class row counts of the right side.
    pub right: &'a [u32],
    /// Rows on the right side (`Σ right`).
    pub right_len: usize,
}

impl Cut<'_> {
    /// The concrete predicate `x_feature ≤ midpoint(lo, hi)` (§5.1); for a
    /// boolean feature, the bit test `x ≤ 0.5`.
    pub fn predicate(&self) -> Predicate {
        Predicate {
            feature: self.feature,
            threshold: midpoint(self.lo, self.hi),
        }
    }
}

/// Per-thread scratch for [`sweep`]: both sides' class counts and the
/// sparse path's row gather. The walk runs once per split search (once
/// per live disjunct in `bestSplit#`, the abstract learner's hottest
/// loop), so these buffers live as long as the thread.
struct SweepScratch {
    left: Vec<u32>,
    right: Vec<u32>,
    rows: Vec<RowId>,
}

thread_local! {
    static SWEEP_SCRATCH: RefCell<SweepScratch> = const {
        RefCell::new(SweepScratch {
            left: Vec::new(),
            right: Vec::new(),
            rows: Vec::new(),
        })
    };
}

/// The split walk: visits every candidate cut of `subset`, feature by
/// feature in schema order and, within a feature, in ascending value
/// order. This enumerates the paper's `Φ'` for the set. It is the one
/// walk behind the concrete [`best_split`], the abstract `bestSplit#`
/// (`antidote_core::score`) and the label-flip learner.
///
/// * A **boolean** feature has one candidate, `(0, 1)`. Its left side is
///   the rows with value 0, counted per class without visiting a row:
///   `popcount(subset ∧ le_mask(f, 0.5) ∧ class_mask(c))` over the
///   subset's words. The cut is emitted iff both sides are non-empty.
/// * A **real** feature walks the subset's rows in ascending value order
///   (ties in ascending row order) and emits a cut between each pair of
///   adjacent distinct values. A dense subset walks the dataset's
///   precomputed [`Dataset::feature_order`] filtered by the subset's O(1)
///   bit test; a sparse one gathers and stably sorts its own rows. The
///   stable precomputed order restricted to a subset equals a stable sort
///   of that subset, so both row sources visit the same sequence.
///
/// On a boolean feature the popcounts are the integers a row walk would
/// have counted, so which form runs is decided by feature kind alone, and
/// a boolean feature keeps no value order.
pub fn sweep<F>(ds: &Dataset, subset: &Subset, mut visit: F)
where
    F: FnMut(&Cut),
{
    SWEEP_SCRATCH.with(|scratch| {
        let SweepScratch { left, right, rows } = &mut *scratch.borrow_mut();
        let total = subset.class_counts();
        let total_len = subset.len();
        left.clear();
        left.resize(total.len(), 0);
        right.clear();
        right.resize(total.len(), 0);
        let dense = dense_enough(total_len, ds.len());
        let words = subset.words();
        for (feature, feat) in ds.schema().features().iter().enumerate() {
            let mut emit = |lo: f64, hi: f64, left: &[u32], left_len: usize| {
                for (r, (&t, &l)) in right.iter_mut().zip(total.iter().zip(left)) {
                    *r = t - l;
                }
                visit(&Cut {
                    feature,
                    lo,
                    hi,
                    left,
                    left_len,
                    right,
                    right_len: total_len - left_len,
                });
            };
            if feat.kind == FeatureKind::Bool {
                let zeros = ds
                    .le_mask(feature, 0.5, false)
                    .expect("two values fit under the threshold index's cardinality cap");
                // Subset words are trimmed, the masks span every slot, and
                // an empty prefix mask is `&[]`: past the shorter of the
                // first two, every word ANDs to zero.
                let n = words.len().min(zeros.len());
                for (c, l) in left.iter_mut().enumerate() {
                    let class = &ds.class_mask(c as ClassId)[..n];
                    *l = simd::and3_popcount(&words[..n], &zeros[..n], class);
                }
                let left_len = left.iter().map(|&c| c as usize).sum();
                if 0 < left_len && left_len < total_len {
                    emit(0.0, 1.0, left, left_len);
                }
                continue;
            }
            left.iter_mut().for_each(|c| *c = 0);
            let mut left_len = 0usize;
            let mut prev = f64::NAN;
            let mut step = |r: RowId| {
                let v = ds.value(r, feature);
                // `left_len` rows strictly precede the candidate.
                if left_len > 0 && v > prev {
                    emit(prev, v, left, left_len);
                }
                left[ds.label(r) as usize] += 1;
                prev = v;
                left_len += 1;
            };
            if dense {
                for &r in ds.feature_order(feature) {
                    if subset.contains(r) {
                        step(r);
                    }
                }
            } else {
                rows.clear();
                rows.extend(subset.iter());
                // Stable on the ascending row ids, matching the
                // precomputed order.
                rows.sort_by(|&a, &b| ds.value(a, feature).total_cmp(&ds.value(b, feature)));
                for &r in rows.iter() {
                    step(r);
                }
            }
        }
    });
}

/// Cutover between the two row sources of a real feature's walk: walking
/// the full precomputed order costs O(|dataset|) bit tests, the gather +
/// stable sort O(|S| log |S|); prefer the precomputed order once the
/// subset holds at least 1/8 of the dataset.
#[inline]
fn dense_enough(subset_len: usize, dataset_len: usize) -> bool {
    subset_len * 8 >= dataset_len
}

/// The greedy `bestSplit(T)` (§3.3): the non-trivial predicate minimising
/// `score`, or `None` (the paper's ⋄) when every predicate splits `T`
/// trivially.
///
/// Ties break deterministically by (score, feature, threshold); see the
/// crate docs for why the concrete semantics must be a function.
pub fn best_split(ds: &Dataset, subset: &Subset) -> Option<SplitChoice> {
    let mut best: Option<SplitChoice> = None;
    sweep(ds, subset, |cut| {
        let score = weighted_gini_with_len(cut.left, cut.left_len)
            + weighted_gini_with_len(cut.right, cut.right_len);
        let cand = SplitChoice {
            predicate: cut.predicate(),
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

    /// One feature's cuts as `(threshold, left counts, left len)`.
    fn cuts_of(ds: &Dataset, subset: &Subset, feature: usize) -> Vec<(f64, Vec<u32>, usize)> {
        let mut out = Vec::new();
        sweep(ds, subset, |cut| {
            if cut.feature == feature {
                assert_eq!(cut.left_len + cut.right_len, subset.len());
                out.push((cut.predicate().threshold, cut.left.to_vec(), cut.left_len));
            }
        });
        out
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
        let a = cuts_of(&big, &sparse, 0);
        assert!(!a.is_empty());
        assert_eq!(
            a,
            cuts_of(&small, &full, 0),
            "the two row sources must sweep identically"
        );
    }

    #[test]
    fn boolean_popcounts_match_the_row_walk() {
        // The same 0/1 columns under a boolean schema (popcounts) and a
        // real one (row walk) must yield the same cut, on dense and
        // sparse subsets, across a word boundary, and after a removal.
        let rows: Vec<(Vec<f64>, u16)> = (0..150u32)
            .map(|i| {
                let bit = |m: u32| f64::from(u8::from((i * m) % 7 < 3));
                (vec![bit(3), bit(5), 1.0], (i % 3) as u16)
            })
            .collect();
        let as_bool = Dataset::from_rows(Schema::boolean(3, 3), &rows).unwrap();
        let as_real = Dataset::from_rows(Schema::real(3, 3), &rows).unwrap();
        // Built before the delta, so the removal bit-patches the index.
        as_bool.warm_indexes();
        let mut delta = antidote_data::DatasetDelta::new();
        delta.remove(5).remove(70).remove(149);
        let pairs = [
            (as_bool.clone(), as_real.clone()),
            (
                as_bool.apply(&delta).unwrap(),
                as_real.apply(&delta).unwrap(),
            ),
        ];
        let mut seen = 0;
        for (b, r) in &pairs {
            let live: Vec<u32> = b.rows().collect();
            for keep_one_in in [1, 2, 9, 40] {
                let picked: Vec<u32> = live.iter().copied().step_by(keep_one_in).collect();
                let (sb, sr) = (
                    Subset::from_indices(b, picked.clone()),
                    Subset::from_indices(r, picked),
                );
                for f in 0..3 {
                    let cuts = cuts_of(b, &sb, f);
                    assert_eq!(cuts, cuts_of(r, &sr, f), "feature {f}, 1 in {keep_one_in}");
                    // One cut at most, and none on the constant column.
                    assert!(cuts.len() <= usize::from(f < 2));
                    seen += cuts.len();
                }
            }
        }
        assert!(seen > 8, "only {seen} boolean cuts");
    }

    #[test]
    fn sweep_feature_boundaries() {
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        let seen = cuts_of(&ds, &full, 0);
        assert_eq!(seen.len(), 12);
        // First boundary: left of 0.5 is the single black point 0.
        assert_eq!(seen[0], (0.5, vec![0, 1], 1));
        // Boundary at 10.5: 7 white + 2 black on the left.
        let at_10 = seen.iter().find(|(t, _, _)| *t == 10.5).unwrap();
        assert_eq!((at_10.1.clone(), at_10.2), (vec![7, 2], 9));
    }
}
