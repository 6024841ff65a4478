//! Extension: an abstract domain for **label-flip poisoning**.
//!
//! The paper's `Δn(T)` models an attacker who *contributed* up to `n`
//! elements (verified by removal). A complementary threat model from the
//! literature it cites (Xiao et al., "Adversarial Label Flips Attack on
//! SVMs" — reference 36 in the paper) corrupts up to `n` *labels* of
//! honest data:
//!
//! ```text
//! Δflip_n(T) = { T' : features(T') = features(T),
//!                    |{ i : label_i(T') ≠ label_i(T) }| ≤ n }
//! ```
//!
//! Verification under flips is structurally *simpler* than under removal,
//! because features never change: the candidate predicate set, every
//! split's membership, and the trace an input takes per predicate are all
//! concrete — only class **counts** are abstract. [`FlipSet`] captures a
//! training fragment with a flip budget; per-class counts range in
//! `[max(0, cᵢ − n), min(cᵢ + n, |T|)]` over a *fixed* denominator.
//!
//! One caveat shapes the learner in `antidote-core::flip`: relabelings of
//! different row sets cannot be joined into a single flip element (their
//! concretizations have different carriers), so the flip learner is
//! inherently disjunctive. That costs little — flip branches never
//! multiply on polarity (no three-valued predicates are needed).

use crate::interval::Interval;
use antidote_data::{ClassId, Dataset, Subset, ThresholdCmp};
use std::fmt;

/// An abstract set of relabelings: the rows of `subset` with up to `n`
/// labels flipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlipSet {
    subset: Subset,
    n: usize,
}

impl FlipSet {
    /// Creates `⟨T, n⟩flip`, clamping `n` to `|T|`.
    pub fn new(subset: Subset, n: usize) -> Self {
        let n = n.min(subset.len());
        FlipSet { subset, n }
    }

    /// The precise initial abstraction of `Δflip_n(T)` for a whole
    /// dataset.
    pub fn full(ds: &Dataset, n: usize) -> Self {
        FlipSet::new(Subset::full(ds), n)
    }

    /// The carrier rows.
    pub fn subset(&self) -> &Subset {
        &self.subset
    }

    /// The flip budget.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `|T|` — exact under flips.
    pub fn len(&self) -> usize {
        self.subset.len()
    }

    /// Whether the carrier is empty.
    pub fn is_empty(&self) -> bool {
        self.subset.is_empty()
    }

    /// γ-membership: `labels` gives the hypothetical label of each carrier
    /// row (parallel to `subset().indices()`); membership holds when at
    /// most `n` entries differ from the dataset's labels.
    pub fn concretizes(&self, ds: &Dataset, labels: &[ClassId]) -> bool {
        if labels.len() != self.subset.len() {
            return false;
        }
        let diff = self
            .subset
            .iter()
            .zip(labels)
            .filter(|&(row, &l)| ds.label(row) != l)
            .count();
        diff <= self.n
    }

    /// Restriction to the rows satisfying `keep` — *exact* under flips
    /// (features are untouched), with the per-side budget clamped to the
    /// side's size.
    pub fn restrict_where<F: FnMut(u32) -> bool>(&self, ds: &Dataset, keep: F) -> FlipSet {
        let kept = self.subset.filter(ds, keep);
        FlipSet::new(kept, self.n)
    }

    /// [`FlipSet::restrict_where`] specialised to a threshold test on one
    /// feature, routed through the word-parallel [`Subset::filter_cmp`]
    /// fast path (the flip learner's predicates are all concrete
    /// thresholds).
    pub fn restrict_cmp(
        &self,
        ds: &Dataset,
        feature: usize,
        tau: f64,
        cmp: ThresholdCmp,
    ) -> FlipSet {
        FlipSet::new(self.subset.filter_cmp(ds, feature, tau, cmp), self.n)
    }

    /// Per-class probability intervals: `cᵢ` can move by at most `n` in
    /// either direction while `|T|` is fixed, so
    /// `[max(0, cᵢ−n)/|T|, min(cᵢ+n, |T|)/|T|]` — tight per class.
    pub fn cprob_intervals(&self) -> Vec<Interval> {
        cprob_intervals_flip(self.subset.class_counts(), self.n)
    }

    /// `ent#` over the flip `cprob#` intervals.
    pub fn ent_interval(&self) -> Interval {
        ent_interval_flip(self.subset.class_counts(), self.n)
    }

    /// Whether a concretization that is pure in `class` exists: all
    /// `|T| − c_class` other-class rows must be flippable.
    pub fn pure_feasible(&self, class: ClassId) -> bool {
        let c = self.subset.count_of(class) as usize;
        self.subset.len() - c <= self.n
    }

    /// Whether *every* concretization is pure (no flip can make it
    /// impure): a singleton or empty carrier, or a pure carrier with no
    /// budget.
    pub fn all_concretizations_pure(&self) -> bool {
        self.subset.len() <= 1 || (self.n == 0 && self.subset.is_pure())
    }

    /// Approximate footprint in bytes (memory-proxy accounting).
    pub fn approx_bytes(&self) -> usize {
        self.subset.approx_bytes() + std::mem::size_of::<usize>()
    }
}

impl fmt::Display for FlipSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<|T|={}, flips={}>", self.subset.len(), self.n)
    }
}

/// Flip-model `cprob#` from counts (free-function form for the sweep).
pub fn cprob_intervals_flip(counts: &[u32], n: usize) -> Vec<Interval> {
    let total: usize = counts.iter().map(|&c| c as usize).sum();
    if total == 0 {
        return vec![Interval::UNIT; counts.len()];
    }
    let t = total as f64;
    let n = n.min(total);
    counts
        .iter()
        .map(|&c| {
            let c = c as usize;
            Interval::new(
                c.saturating_sub(n) as f64 / t,
                (c + n).min(total) as f64 / t,
            )
        })
        .collect()
}

/// Flip-model `ent#` from counts.
pub fn ent_interval_flip(counts: &[u32], n: usize) -> Interval {
    cprob_intervals_flip(counts, n)
        .into_iter()
        .map(|i| i * (Interval::ONE - i))
        .fold(Interval::ZERO, |acc, t| acc + t)
}

/// Flip-model `score#`: side sizes are exact, so the interval is
/// `L·ent#(left) + R·ent#(right)` with point-sized size factors.
pub fn score_interval_flip(left: &[u32], right: &[u32], n: usize) -> Interval {
    let l: u32 = left.iter().sum();
    let r: u32 = right.iter().sum();
    Interval::point(l as f64) * ent_interval_flip(left, n)
        + Interval::point(r as f64) * ent_interval_flip(right, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::synth;
    use antidote_tree::split::{gini, weighted_gini};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn constructor_and_accessors() {
        let ds = synth::figure2();
        let f = FlipSet::full(&ds, 99);
        assert_eq!(f.n(), 13);
        assert_eq!(f.len(), 13);
        assert_eq!(f.to_string(), "<|T|=13, flips=13>");
    }

    #[test]
    fn with_budget_shares_carrier() {
        let ds = synth::figure2();
        let f = FlipSet::full(&ds, 1);
        let wide = FlipSet::full(&ds, 4);
        assert_eq!(wide.subset(), f.subset());
        assert_eq!(wide.n(), 4);
        assert_eq!(FlipSet::full(&ds, 99).n(), 13, "budget clamps to |T|");
        // Widening the budget only loosens the intervals.
        for (tight, loose) in f.cprob_intervals().iter().zip(wide.cprob_intervals()) {
            assert!(loose.encloses(tight));
        }
    }

    #[test]
    fn concretizes_counts_differences() {
        let ds = synth::figure2();
        let f = FlipSet::full(&ds, 2);
        let honest: Vec<ClassId> = (0..13u32).map(|r| ds.label(r)).collect();
        assert!(f.concretizes(&ds, &honest));
        let mut two_flips = honest.clone();
        two_flips[0] ^= 1;
        two_flips[5] ^= 1;
        assert!(f.concretizes(&ds, &two_flips));
        let mut three_flips = two_flips.clone();
        three_flips[7] ^= 1;
        assert!(!f.concretizes(&ds, &three_flips));
        assert!(!f.concretizes(&ds, &honest[..5]), "wrong arity is rejected");
    }

    #[test]
    fn cprob_bounds_are_tight_per_class() {
        // figure2: 7 white, 6 black, n = 2 → white ∈ [5/13, 9/13].
        let ds = synth::figure2();
        let f = FlipSet::full(&ds, 2);
        let ivs = f.cprob_intervals();
        assert!((ivs[0].lb() - 5.0 / 13.0).abs() < 1e-12);
        assert!((ivs[0].ub() - 9.0 / 13.0).abs() < 1e-12);
        // Bounds clamp at [0, 1].
        let big = FlipSet::full(&ds, 13);
        for iv in big.cprob_intervals() {
            assert!(iv.lb() >= 0.0 && iv.ub() <= 1.0);
        }
    }

    #[test]
    fn restriction_is_exact_on_features() {
        let ds = synth::figure2();
        let f = FlipSet::full(&ds, 4);
        let left = f.restrict_where(&ds, |r| ds.value(r, 0) <= 10.0);
        assert_eq!(left.len(), 9);
        assert_eq!(left.n(), 4);
        let tiny = f.restrict_where(&ds, |r| ds.value(r, 0) <= 1.0);
        assert_eq!(tiny.len(), 2);
        assert_eq!(tiny.n(), 2, "budget clamps to the side size");
    }

    #[test]
    fn pure_feasibility() {
        let ds = synth::figure2(); // 7 white, 6 black
        assert!(!FlipSet::full(&ds, 5).pure_feasible(0)); // need 6 flips
        assert!(FlipSet::full(&ds, 6).pure_feasible(0));
        assert!(!FlipSet::full(&ds, 6).pure_feasible(1)); // need 7 flips
        assert!(FlipSet::full(&ds, 7).pure_feasible(1));
        // All-pure detection.
        let blacks = FlipSet::new(Subset::from_indices(&ds, vec![9, 10, 11, 12]), 0);
        assert!(blacks.all_concretizations_pure());
        let blacks1 = FlipSet::new(Subset::from_indices(&ds, vec![9, 10, 11, 12]), 1);
        assert!(!blacks1.all_concretizations_pure());
        let single = FlipSet::new(Subset::from_indices(&ds, vec![3]), 1);
        assert!(single.all_concretizations_pure());
    }

    #[test]
    fn zero_budget_is_precise() {
        let counts = [7u32, 6];
        let ivs = cprob_intervals_flip(&counts, 0);
        assert!(ivs.iter().all(Interval::is_point));
        let e = ent_interval_flip(&counts, 0);
        assert!((e.lb() - gini(&counts)).abs() < 1e-12);
        assert!(e.is_point());
        let s = score_interval_flip(&[3, 1], &[4, 5], 0);
        assert!((s.lb() - (weighted_gini(&[3, 1]) + weighted_gini(&[4, 5]))).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Soundness of the flip transformers: for random counts and a
        /// random reallocation of ≤ n labels, the concrete cprob/ent/score
        /// fall inside the abstract intervals.
        #[test]
        fn flip_transformers_sound(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.random_range(2..4usize);
            let counts: Vec<u32> = (0..k).map(|_| rng.random_range(0..8u32)).collect();
            let total: u32 = counts.iter().sum();
            if total == 0 {
                return Ok(());
            }
            let n = rng.random_range(0..=total as usize);
            // Apply a random ≤ n flips: move f units between classes, one
            // at a time.
            let mut flipped = counts.clone();
            let f = rng.random_range(0..=n);
            for _ in 0..f {
                let from = rng.random_range(0..k);
                let to = rng.random_range(0..k);
                if flipped[from] > 0 {
                    flipped[from] -= 1;
                    flipped[to] += 1;
                }
            }
            let probs = antidote_tree::split::cprob(&flipped);
            for (iv, p) in cprob_intervals_flip(&counts, n).iter().zip(&probs) {
                prop_assert!(iv.lb() - 1e-9 <= *p && *p <= iv.ub() + 1e-9);
            }
            let e = gini(&flipped);
            let iv = ent_interval_flip(&counts, n);
            prop_assert!(iv.lb() - 1e-9 <= e && e <= iv.ub() + 1e-9);
        }
    }
}
