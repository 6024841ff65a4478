//! The predicate language `x_i ≤ τ`.
//!
//! A single threshold form covers both of the paper's feature settings:
//! boolean features take values `{0, 1}`, so `x_i ≤ 0.5` is the (negated)
//! bit test, while real features use thresholds placed between adjacent
//! observed values (§5.1). Candidate generation consults the column kind.

use antidote_data::{Dataset, FeatureKind, Subset};
use std::cmp::Ordering;
use std::fmt;

/// A branching predicate `x_feature ≤ threshold`.
///
/// `Predicate` is totally ordered (by feature, then threshold via
/// `total_cmp`) so tie-breaking and set representations are deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// Feature (column) index the predicate tests.
    pub feature: usize,
    /// Threshold compared with `≤`. Always finite.
    pub threshold: f64,
}

impl Predicate {
    /// The canonical boolean-feature test `x_f ≤ 0.5` (true ⇔ the bit is 0).
    pub fn boolean(feature: usize) -> Self {
        Predicate {
            feature,
            threshold: 0.5,
        }
    }

    /// Evaluates the predicate on a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than `feature + 1`.
    #[inline]
    pub fn eval(&self, x: &[f64]) -> bool {
        x[self.feature] <= self.threshold
    }

    /// Evaluates the predicate on a dataset row.
    #[inline]
    pub fn eval_row(&self, ds: &Dataset, row: u32) -> bool {
        ds.value(row, self.feature) <= self.threshold
    }
}

impl Eq for Predicate {}

impl PartialOrd for Predicate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Predicate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.feature
            .cmp(&other.feature)
            .then_with(|| self.threshold.total_cmp(&other.threshold))
    }
}

impl std::hash::Hash for Predicate {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.feature.hash(state);
        self.threshold.to_bits().hash(state);
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{} <= {}", self.feature, self.threshold)
    }
}

/// Enumerates every candidate predicate for `subset`, exactly as
/// `bestSplitR` does dynamically (§5.1): for each real feature, the
/// midpoints of adjacent distinct observed values; for each boolean
/// feature, the single bit test (when both bit values occur).
///
/// Only *non-trivial* predicates are returned — each splits `subset` into
/// two non-empty parts, so this is the paper's `Φ'` for the current set.
///
/// The hot paths ([`crate::split::best_split`], the abstract `bestSplit#`
/// and the flip learner) do not materialise this list — they run the
/// split walk ([`crate::split::sweep`]) — but tests and the enumeration
/// baseline use it as the ground truth, which shares no code with the
/// walk.
pub fn candidate_predicates(ds: &Dataset, subset: &Subset) -> Vec<Predicate> {
    let mut out = Vec::new();
    for (f, feat) in ds.schema().features().iter().enumerate() {
        match feat.kind {
            FeatureKind::Bool => {
                let ones = subset.iter().filter(|&r| ds.value(r, f) == 1.0).count();
                if ones > 0 && ones < subset.len() {
                    out.push(Predicate::boolean(f));
                }
            }
            FeatureKind::Real => {
                let mut values: Vec<f64> = subset.iter().map(|r| ds.value(r, f)).collect();
                values.sort_by(f64::total_cmp);
                values.dedup();
                for pair in values.windows(2) {
                    out.push(Predicate {
                        feature: f,
                        threshold: midpoint(pair[0], pair[1]),
                    });
                }
            }
        }
    }
    out
}

/// The paper's threshold placement `τ = (a + b) / 2` between adjacent
/// observed values (§5.1).
#[inline]
pub fn midpoint(a: f64, b: f64) -> f64 {
    a / 2.0 + b / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::{synth, Schema};

    #[test]
    fn eval_and_order() {
        let p = Predicate {
            feature: 1,
            threshold: 3.0,
        };
        assert!(p.eval(&[0.0, 3.0]));
        assert!(!p.eval(&[0.0, 3.5]));
        let q = Predicate {
            feature: 1,
            threshold: 4.0,
        };
        let r = Predicate {
            feature: 0,
            threshold: 100.0,
        };
        assert!(p < q);
        assert!(r < p);
        assert_eq!(
            p,
            Predicate {
                feature: 1,
                threshold: 3.0
            }
        );
    }

    #[test]
    fn boolean_predicate() {
        let p = Predicate::boolean(2);
        assert!(p.eval(&[9.0, 9.0, 0.0]));
        assert!(!p.eval(&[9.0, 9.0, 1.0]));
    }

    #[test]
    fn figure2_candidates_match_example_5_1() {
        // Example 5.1: τ ∈ {1/2, 3/2, 5/2, 7/2, 11/2, 15/2, ..., 27/2}.
        let ds = synth::figure2();
        let full = Subset::full(&ds);
        let preds = candidate_predicates(&ds, &full);
        let expected: Vec<f64> = vec![
            0.5, 1.5, 2.5, 3.5, 5.5, 7.5, 8.5, 9.5, 10.5, 11.5, 12.5, 13.5,
        ];
        let got: Vec<f64> = preds.iter().map(|p| p.threshold).collect();
        assert_eq!(got, expected);
        // 13 distinct values → 12 candidate predicates.
        assert_eq!(preds.len(), 12);
    }

    #[test]
    fn candidates_respect_subset() {
        let ds = synth::figure2();
        // Only the three points {7, 8, 9} → thresholds 7.5 and 8.5.
        let sub = Subset::from_indices(&ds, vec![5, 6, 7]);
        let preds = candidate_predicates(&ds, &sub);
        let got: Vec<f64> = preds.iter().map(|p| p.threshold).collect();
        assert_eq!(got, vec![7.5, 8.5]);
    }

    #[test]
    fn constant_feature_yields_no_candidates() {
        let ds = antidote_data::Dataset::from_rows(
            Schema::real(1, 2),
            &[(vec![5.0], 0), (vec![5.0], 1)],
        )
        .unwrap();
        assert!(candidate_predicates(&ds, &Subset::full(&ds)).is_empty());
    }

    #[test]
    fn boolean_candidates_only_when_nontrivial() {
        let ds = antidote_data::Dataset::from_rows(
            Schema::boolean(2, 2),
            &[(vec![0.0, 1.0], 0), (vec![1.0, 1.0], 1)],
        )
        .unwrap();
        let preds = candidate_predicates(&ds, &Subset::full(&ds));
        // Feature 0 varies; feature 1 is constant.
        assert_eq!(preds, vec![Predicate::boolean(0)]);
    }

    #[test]
    fn display() {
        let p = Predicate {
            feature: 3,
            threshold: 2.5,
        };
        assert_eq!(p.to_string(), "x3 <= 2.5");
    }

    #[test]
    fn midpoint_avoids_overflow() {
        let m = midpoint(f64::MAX, f64::MAX);
        assert!(m.is_finite());
        assert_eq!(m, f64::MAX);
    }
}
