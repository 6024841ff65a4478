//! The training-set abstraction `⟨T, n⟩` (§4.2–§4.4).
//!
//! An [`AbstractSet`] `⟨T, n⟩` concretizes to `Δn(T)`: every subset of `T`
//! missing at most `n` elements. This single pair represents
//! `Σᵢ₌₀ⁿ C(|T|, i)` concrete training sets — e.g. ≈10¹⁴¹ sets for
//! MNIST-1-7 at `n = 50` — while every abstract transformer touches only
//! `T`'s index vector and the budget `n`.

use crate::interval::Interval;
use antidote_data::{ClassId, Dataset, Subset, ThresholdCmp};
use std::fmt;

/// Which `cprob#` transformer to use (§4.4, footnote 6).
///
/// The paper presents the "natural" lifting of the probability computation
/// to interval arithmetic, notes it is suboptimal (the interval division
/// cannot relate numerator and denominator — Example 4.6), and reports that
/// the evaluated implementation uses an inexpensive *optimal* transformer
/// based on extremal averages. Both are implemented here; `Optimal` is the
/// default everywhere, and the ablation bench contrasts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CprobTransformer {
    /// Interval-arithmetic lifting: `[max(0, cᵢ − n), cᵢ] / [|T| − n, |T|]`.
    Natural,
    /// Optimal per-class bounds `[max(0, cᵢ − n)/m, min(cᵢ, m)/m]` with
    /// `m = |T| − n` (extremal averages, footnote 6).
    #[default]
    Optimal,
}

/// An abstract training set `⟨T, n⟩` with `γ(⟨T, n⟩) = Δn(T)`.
///
/// Invariant: `n ≤ |T|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractSet {
    base: Subset,
    n: usize,
}

impl AbstractSet {
    /// Creates `⟨T, n⟩`, clamping `n` to `|T|` (removing more elements than
    /// exist describes the same concretization as removing all of them).
    pub fn new(base: Subset, n: usize) -> Self {
        let n = n.min(base.len());
        AbstractSet { base, n }
    }

    /// The precise initial abstraction `α(Δn(T)) = ⟨T, n⟩` for a whole
    /// dataset.
    pub fn full(ds: &Dataset, n: usize) -> Self {
        AbstractSet::new(Subset::full(ds), n)
    }

    /// The bottom-like element `⟨∅, 0⟩` (identity of ⊔; concretizes to
    /// `{∅}`).
    pub fn empty(n_classes: usize) -> Self {
        AbstractSet {
            base: Subset::empty(n_classes),
            n: 0,
        }
    }

    /// The base set `T`.
    pub fn base(&self) -> &Subset {
        &self.base
    }

    /// The poisoning budget `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `|T|`.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the base set is empty (then `γ = {∅}`).
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Whether `∅ ∈ γ(⟨T, n⟩)`, i.e. `n = |T|` (footnote 7).
    pub fn concretizes_empty(&self) -> bool {
        self.n == self.base.len()
    }

    /// γ-membership test: `t ∈ Δn(T)` ⇔ `t ⊆ T ∧ |T \ t| ≤ n`.
    ///
    /// Used pervasively by the property-test suite to check transformer
    /// soundness by sampling.
    pub fn concretizes(&self, t: &Subset) -> bool {
        t.is_subset_of(&self.base) && self.base.len() - t.len() <= self.n
    }

    /// The partial order `⟨T₁,n₁⟩ ⊑ ⟨T₂,n₂⟩` ⇔
    /// `T₁ ⊆ T₂ ∧ n₁ ≤ n₂ − |T₂ \ T₁|` (footnote 4).
    ///
    /// O(words): once `T₁ ⊆ T₂` is established, `|T₂ \ T₁| = |T₂| − |T₁|`,
    /// so no difference needs materialising. Cheap enough that the
    /// learner's frontier subsumption pruning calls it quadratically.
    pub fn le(&self, other: &AbstractSet) -> bool {
        if self.n > other.n || self.base.len() > other.base.len() {
            return false;
        }
        if !self.base.is_subset_of(&other.base) {
            return false;
        }
        let gap = other.base.len() - self.base.len();
        other.n >= gap && self.n <= other.n - gap
    }

    /// Join ⊔ (Definition 4.1): `⟨T₁∪T₂, max(|T₁\T₂|+n₂, |T₂\T₁|+n₁)⟩`.
    ///
    /// Overapproximates `γ(a) ∪ γ(b)` (Proposition 4.2). Following the
    /// paper's Example 4.8, the empty element `⟨∅, 0⟩` is treated as the
    /// identity of ⊔ (the literal Definition 4.1 would inflate `n` to
    /// `|T|`); `⟨∅, 0⟩` only arises as the fold identity of `filter#` or
    /// from branches no concrete run can take, so dropping it is sound.
    pub fn join(&self, ds: &Dataset, other: &AbstractSet) -> AbstractSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let t1_minus_t2 = self.base.difference_len(&other.base);
        let t2_minus_t1 = other.base.difference_len(&self.base);
        let union = self.base.union(ds, &other.base);
        let n = (t1_minus_t2 + other.n).max(t2_minus_t1 + self.n);
        AbstractSet::new(union, n)
    }

    /// Meet ⊓ (footnote 4): `None` is ⊥.
    pub fn meet(&self, ds: &Dataset, other: &AbstractSet) -> Option<AbstractSet> {
        let t1_minus_t2 = self.base.difference_len(&other.base);
        let t2_minus_t1 = other.base.difference_len(&self.base);
        if t1_minus_t2 > self.n || t2_minus_t1 > other.n {
            return None;
        }
        let inter = self.base.intersect(ds, &other.base);
        let n = (self.n - t1_minus_t2).min(other.n - t2_minus_t1);
        Some(AbstractSet::new(inter, n))
    }

    /// Restriction `⟨T,n⟩↓#φ = ⟨T↓φ, min(n, |T↓φ|)⟩` (Equation 1) for an
    /// arbitrary row predicate.
    pub fn restrict_where<F: FnMut(u32) -> bool>(&self, ds: &Dataset, keep: F) -> AbstractSet {
        let kept = self.base.filter(ds, keep);
        let n = self.n.min(kept.len());
        AbstractSet { base: kept, n }
    }

    /// [`AbstractSet::restrict_where`] specialised to a threshold test on
    /// one feature — the form every learner predicate takes — routed
    /// through the word-parallel [`Subset::filter_cmp`] fast path.
    pub fn restrict_cmp(
        &self,
        ds: &Dataset,
        feature: usize,
        tau: f64,
        cmp: ThresholdCmp,
    ) -> AbstractSet {
        let kept = self.base.filter_cmp(ds, feature, tau, cmp);
        let n = self.n.min(kept.len());
        AbstractSet { base: kept, n }
    }

    /// The `pure(⟨T,n⟩, i)` operation of §4.7: restricts to concretizations
    /// whose elements all have class `i`. Returns `None` (⊥) when reaching
    /// a pure-`i` set would require removing more than `n` elements.
    ///
    /// Feasibility is decided from the cached class counts alone
    /// (`|T| − cᵢ ≤ n`), so the infeasible case — the common one at small
    /// budgets, probed `k` times per learner step — allocates nothing;
    /// the class mask is only materialised for feasible restrictions.
    pub fn pure(&self, ds: &Dataset, class: ClassId) -> Option<AbstractSet> {
        let removed = self.base.len() - self.base.count_of(class) as usize;
        if removed <= self.n {
            let t_prime = self.base.filter_class(ds, class);
            debug_assert_eq!(self.base.len() - t_prime.len(), removed);
            Some(AbstractSet::new(t_prime, self.n - removed))
        } else {
            None
        }
    }

    /// The abstract size `|⟨T,n⟩| = [|T| − n, |T|]` (§4.6).
    pub fn size_interval(&self) -> Interval {
        Interval::new((self.base.len() - self.n) as f64, self.base.len() as f64)
    }

    /// `cprob#(⟨T,n⟩)`: one probability interval per class (§4.4).
    ///
    /// In the corner case `n = |T|` every class gets `[0, 1]`, exactly as
    /// the paper specifies.
    pub fn cprob_intervals(&self, transformer: CprobTransformer) -> Vec<Interval> {
        cprob_intervals_from_counts(self.base.class_counts(), self.n, transformer)
    }

    /// `ent#(⟨T,n⟩) = Σᵢ ιᵢ(1 − ιᵢ)` over the `cprob#` intervals (§4.4).
    pub fn ent_interval(&self, transformer: CprobTransformer) -> Interval {
        ent_interval_from_counts(self.base.class_counts(), self.n, transformer)
    }

    /// Whether some concretization has zero entropy (is pure or empty) —
    /// the feasibility test for the `ent(T) = 0` branch.
    pub fn some_concretization_is_pure(&self, ds: &Dataset) -> bool {
        self.concretizes_empty()
            || (0..self.base.n_classes() as ClassId).any(|c| self.pure(ds, c).is_some())
    }

    /// Approximate footprint in bytes (memory-proxy accounting).
    pub fn approx_bytes(&self) -> usize {
        self.base.approx_bytes() + std::mem::size_of::<usize>()
    }
}

/// `cprob#` computed directly from class counts and a budget `n` (§4.4).
///
/// The abstract `bestSplit#` sweep scores thousands of candidate splits per
/// node from running prefix counts; this free-function form lets it do so
/// without materialising an [`AbstractSet`] per candidate.
///
/// In the corner case `n = |T|` every class gets `[0, 1]`.
pub fn cprob_intervals_from_counts(
    counts: &[u32],
    n: usize,
    transformer: CprobTransformer,
) -> Vec<Interval> {
    let total: usize = counts.iter().map(|&c| c as usize).sum();
    let n = n.min(total);
    if n == total {
        return vec![Interval::UNIT; counts.len()];
    }
    let m = (total - n) as f64; // |T| − n > 0
    counts
        .iter()
        .map(|&c| {
            let c = c as usize;
            let num_lo = c.saturating_sub(n) as f64;
            match transformer {
                CprobTransformer::Optimal => {
                    // Extremal averages (footnote 6): remove n elements to
                    // either starve or saturate class i among m survivors.
                    Interval::new(num_lo / m, (c as f64).min(m) / m)
                }
                CprobTransformer::Natural => {
                    // [max(0, cᵢ−n), cᵢ] / [|T|−n, |T|], positive
                    // denominator: [lo/hi_den, hi/lo_den]. Not clamped to
                    // [0,1]; the paper points out this transformer can
                    // exceed the unit range.
                    Interval::new(num_lo / total as f64, c as f64 / m)
                }
            }
        })
        .collect()
}

/// `ent#` computed directly from class counts and a budget `n` (§4.4): the
/// interval sum `Σᵢ ιᵢ(1 − ιᵢ)` over [`cprob_intervals_from_counts`],
/// without allocating the intermediate vector.
pub fn ent_interval_from_counts(
    counts: &[u32],
    n: usize,
    transformer: CprobTransformer,
) -> Interval {
    let total: usize = counts.iter().map(|&c| c as usize).sum();
    let n = n.min(total);
    let (mut lo, mut hi) = (0.0f64, 0.0f64);
    if n == total {
        // Every class interval is [0, 1]: ι(1 − ι) ranges over [0, 0.25].
        return Interval::new(0.0, 0.25 * counts.len() as f64);
    }
    let m = (total - n) as f64;
    for &c in counts {
        let c = c as usize;
        let num_lo = c.saturating_sub(n) as f64;
        let iv = match transformer {
            CprobTransformer::Optimal => Interval::new(num_lo / m, (c as f64).min(m) / m),
            CprobTransformer::Natural => Interval::new(num_lo / total as f64, c as f64 / m),
        };
        let term = iv * (Interval::ONE - iv);
        lo += term.lb();
        hi += term.ub();
    }
    Interval::new(lo, hi)
}

/// One side's full `score#` contribution, fused:
/// `[len − n', len] · ent#(counts, n')` with `n' = min(n, len)`, where
/// `len` is the side's row count (so `Σ counts = len`).
///
/// This is the hot path of the candidate sweep — it runs once per side
/// per candidate per feature per live disjunct — so the Optimal
/// transformer takes a specialized route that produces **bit-identical**
/// results to the compositional
/// `Interval::new(len − n', len) * ent_interval_from_counts(..)` form:
///
/// * every Optimal class interval `ι = [max(0, c−n)/m, min(c, m)/m]`
///   lies in `[0, 1]`, so `ι(1 − ι)`'s interval extremes are exactly the
///   corner products `lo·(1−hi)` and `hi·(1−lo)` — the same two f64
///   multiplications the generic four-product min/max fold would select;
/// * both `size` and `ent` are non-negative, so the outer product's
///   extremes are again the corner products.
///
/// Selecting the same products of the same operands yields the same
/// bits; only the discarded products and the per-class `Interval`
/// constructions (with their order/NaN asserts) are elided. The Natural
/// transformer can leave the unit range (its `1 − ι` may straddle zero),
/// so it keeps the compositional form.
pub fn side_score_from_counts(
    counts: &[u32],
    len: usize,
    n: usize,
    transformer: CprobTransformer,
) -> Interval {
    let n = n.min(len);
    let size_lo = (len - n) as f64;
    let size_hi = len as f64;
    if transformer != CprobTransformer::Optimal {
        return Interval::new(size_lo, size_hi) * ent_interval_from_counts(counts, n, transformer);
    }
    let total: usize = counts.iter().map(|&c| c as usize).sum();
    let n = n.min(total);
    if n == total {
        // ent# = [0, 0.25k]; both factors non-negative, corner products.
        return Interval::new(size_lo * 0.0, size_hi * (0.25 * counts.len() as f64));
    }
    let m = (total - n) as f64;
    let (mut lo, mut hi) = (0.0f64, 0.0f64);
    for &c in counts {
        let l = (c as usize).saturating_sub(n) as f64 / m;
        let h = (c as f64).min(m) / m;
        lo += l * (1.0 - h);
        hi += h * (1.0 - l);
    }
    Interval::new(size_lo * lo, size_hi * hi)
}

impl fmt::Display for AbstractSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<|T|={}, n={}>", self.base.len(), self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::{synth, Schema};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn figure2_full(n: usize) -> (Dataset, AbstractSet) {
        let ds = synth::figure2();
        let a = AbstractSet::full(&ds, n);
        (ds, a)
    }

    #[test]
    fn constructor_clamps_n() {
        let (_, a) = figure2_full(99);
        assert_eq!(a.n(), 13);
        assert!(a.concretizes_empty());
    }

    #[test]
    fn with_budget_widens_and_narrows() {
        let (ds, a) = figure2_full(2);
        let wide = AbstractSet::full(&ds, 5);
        assert_eq!(wide.base(), a.base());
        assert_eq!(wide.n(), 5);
        // Widening the budget only grows the concretization.
        let minus5 = Subset::from_indices(&ds, (5..13).collect());
        assert!(!a.concretizes(&minus5) && wide.concretizes(&minus5));
        assert!(a.le(&wide));
        // Narrowing reverses the order; the budget clamps to |T|.
        let narrow = AbstractSet::full(&ds, 0);
        assert!(narrow.le(&a) && !wide.le(&a));
        assert_eq!(AbstractSet::full(&ds, 99).n(), 13);
    }

    #[test]
    fn concretizes_membership() {
        let (ds, a) = figure2_full(2);
        let full = Subset::full(&ds);
        assert!(a.concretizes(&full));
        let minus2 = Subset::from_indices(&ds, (2..13).collect());
        assert!(a.concretizes(&minus2));
        let minus3 = Subset::from_indices(&ds, (3..13).collect());
        assert!(!a.concretizes(&minus3), "3 removals exceed n = 2");
        // Not a subset at all.
        let ds2 = synth::figure2();
        let other = Subset::from_indices(&ds2, vec![0]);
        let small = AbstractSet::new(Subset::from_indices(&ds, vec![1, 2]), 1);
        assert!(!small.concretizes(&other) || other.is_subset_of(small.base()));
    }

    #[test]
    fn join_examples_4_3() {
        // ⟨T₁, 2⟩ ⊔ ⟨T₁, 3⟩ = ⟨T₁, 3⟩.
        let ds = synth::figure2();
        let t1 = Subset::from_indices(&ds, vec![0, 1, 2, 3, 4]);
        let a = AbstractSet::new(t1.clone(), 2);
        let b = AbstractSet::new(t1.clone(), 3);
        let j = a.join(&ds, &b);
        assert_eq!(j.base().indices(), t1.indices());
        assert_eq!(j.n(), 3);

        // ⟨T₂, 2⟩ ⊔ ⟨T₂ ∪ {x₃}, 2⟩ = ⟨T₂ ∪ {x₃}, 3⟩.
        let t2 = Subset::from_indices(&ds, vec![0, 1]);
        let t2x = Subset::from_indices(&ds, vec![0, 1, 2]);
        let a = AbstractSet::new(t2, 2);
        let b = AbstractSet::new(t2x.clone(), 2);
        let j = a.join(&ds, &b);
        assert_eq!(j.base().indices(), t2x.indices());
        assert_eq!(j.n(), 3);
    }

    #[test]
    fn join_with_empty_is_identity() {
        let (ds, a) = figure2_full(2);
        let bot = AbstractSet::empty(2);
        assert_eq!(a.join(&ds, &bot), a);
        assert_eq!(bot.join(&ds, &a), a);
    }

    #[test]
    fn meet_footnote_4() {
        let ds = synth::figure2();
        let a = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1, 2, 3]), 2);
        let b = AbstractSet::new(Subset::from_indices(&ds, vec![2, 3, 4, 5]), 2);
        let m = a.meet(&ds, &b).unwrap();
        assert_eq!(m.base().indices(), &[2, 3]);
        assert_eq!(m.n(), 0);
        // Disjoint-enough bases give ⊥.
        let c = AbstractSet::new(Subset::from_indices(&ds, vec![6, 7, 8]), 0);
        assert!(a.meet(&ds, &c).is_none());
    }

    #[test]
    fn order_le() {
        let ds = synth::figure2();
        let small = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1]), 1);
        let big = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1, 2]), 2);
        assert!(small.le(&big));
        assert!(!big.le(&small));
        // ⟨T, 2⟩ ⊑ ⟨T, 3⟩.
        let a2 = figure2_full(2).1;
        let a3 = figure2_full(3).1;
        assert!(a2.le(&a3));
        assert!(!a3.le(&a2));
        // Join is an upper bound.
        let j = small.join(&ds, &big);
        assert!(small.le(&j) && big.le(&j));
    }

    #[test]
    fn restrict_equation_1() {
        // Example 4.8: filter#(⟨T, 2⟩, {x ≤ 10}, 4) = ⟨T↓x≤10, 2⟩.
        let (ds, a) = figure2_full(2);
        let r = a.restrict_where(&ds, |row| ds.value(row, 0) <= 10.0);
        assert_eq!(r.len(), 9);
        assert_eq!(r.n(), 2);
        // n clamps when the restricted side is smaller than n.
        let (ds, a) = figure2_full(5);
        let r = a.restrict_where(&ds, |row| ds.value(row, 0) <= 2.0);
        assert_eq!(r.len(), 3);
        assert_eq!(r.n(), 3);
    }

    #[test]
    fn pure_restriction() {
        let (ds, a) = figure2_full(7);
        // 6 black points: dropping the 7 white ones is within budget 7.
        let black = a.pure(&ds, 1).unwrap();
        assert_eq!(black.len(), 6);
        assert_eq!(black.n(), 0);
        assert!(black.base().is_pure());
        // Budget 6 cannot reach an all-white set (needs 6 removals — the 6
        // black points — so it can, with 0 left over).
        let white = a.pure(&ds, 0).unwrap();
        assert_eq!(white.n(), 1);
        // Budget 2 can reach neither pure class.
        let (ds, a2) = figure2_full(2);
        assert!(a2.pure(&ds, 0).is_none());
        assert!(a2.pure(&ds, 1).is_none());
        assert!(!a2.some_concretization_is_pure(&ds));
        assert!(a.some_concretization_is_pure(&ds));
    }

    #[test]
    fn cprob_example_4_6() {
        // Tℓ: 7 white, 2 black, n = 2. Natural transformer gives
        // ⟨[5/9, 1], [0, 2/7]⟩ — note the lower bound 5/9 rather than the
        // true 5/7, the imprecision the example discusses.
        let ds = synth::figure2();
        let left = Subset::from_indices(&ds, (0..9).collect());
        assert_eq!(left.class_counts(), &[7, 2]);
        let a = AbstractSet::new(left, 2);
        let nat = a.cprob_intervals(CprobTransformer::Natural);
        assert!((nat[0].lb() - 5.0 / 9.0).abs() < 1e-12);
        assert!((nat[0].ub() - 1.0).abs() < 1e-12);
        assert!((nat[1].lb() - 0.0).abs() < 1e-12);
        assert!((nat[1].ub() - 2.0 / 7.0).abs() < 1e-12);
        // The optimal transformer recovers the true lower bound 5/7 and the
        // true upper bound 1 (drop both black points).
        let opt = a.cprob_intervals(CprobTransformer::Optimal);
        assert!((opt[0].lb() - 5.0 / 7.0).abs() < 1e-12);
        assert!((opt[0].ub() - 1.0).abs() < 1e-12);
        assert!((opt[1].ub() - 2.0 / 7.0).abs() < 1e-12);
        // Optimal is at least as tight.
        for (o, n) in opt.iter().zip(&nat) {
            assert!(n.encloses(o));
        }
    }

    #[test]
    fn cprob_corner_case_n_equals_t() {
        let (_, a) = figure2_full(13);
        for t in [CprobTransformer::Natural, CprobTransformer::Optimal] {
            assert_eq!(a.cprob_intervals(t), vec![Interval::UNIT, Interval::UNIT]);
        }
    }

    #[test]
    fn ent_interval_contains_concrete_gini() {
        let (ds, a) = figure2_full(2);
        let ent = a.ent_interval(CprobTransformer::Optimal);
        // Concrete Gini of the full set must be inside.
        let g = antidote_tree::split::gini(Subset::full(&ds).class_counts());
        assert!(ent.lb() - 1e-9 <= g && g <= ent.ub() + 1e-9);
        // n = 0 is the precise case: a point interval equal to gini.
        let a0 = AbstractSet::full(&ds, 0);
        let e0 = a0.ent_interval(CprobTransformer::Optimal);
        assert!((e0.lb() - g).abs() < 1e-12 && (e0.ub() - g).abs() < 1e-12);
    }

    #[test]
    fn from_counts_helpers_agree_with_methods() {
        let (_, a) = figure2_full(3);
        for t in [CprobTransformer::Natural, CprobTransformer::Optimal] {
            assert_eq!(
                a.cprob_intervals(t),
                cprob_intervals_from_counts(a.base().class_counts(), a.n(), t)
            );
            let direct = ent_interval_from_counts(a.base().class_counts(), a.n(), t);
            let via_vec = a
                .cprob_intervals(t)
                .into_iter()
                .map(|i| i * (Interval::ONE - i))
                .fold(Interval::ZERO, |acc, x| acc + x);
            assert!((direct.lb() - via_vec.lb()).abs() < 1e-12);
            assert!((direct.ub() - via_vec.ub()).abs() < 1e-12);
        }
        // n = total corner case.
        let corner = ent_interval_from_counts(&[2, 3], 5, CprobTransformer::Optimal);
        assert_eq!(corner, Interval::new(0.0, 0.5));
    }

    /// The fused sweep hot path must reproduce the compositional
    /// `[len − n', len] · ent#` **bit-for-bit** — frontier determinism
    /// (and the pinned bench ladders) depend on exact float equality,
    /// not approximate agreement.
    #[test]
    fn fused_side_score_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..2000 {
            let k = rng.random_range(1..5usize);
            let counts: Vec<u32> = (0..k).map(|_| rng.random_range(0..40)).collect();
            let len: usize = counts.iter().map(|&c| c as usize).sum();
            let n = rng.random_range(0..=len + 3);
            for t in [CprobTransformer::Optimal, CprobTransformer::Natural] {
                let fused = side_score_from_counts(&counts, len, n, t);
                let n2 = n.min(len);
                let reference = Interval::new((len - n2) as f64, len as f64)
                    * ent_interval_from_counts(&counts, n2, t);
                assert_eq!(
                    (fused.lb().to_bits(), fused.ub().to_bits()),
                    (reference.lb().to_bits(), reference.ub().to_bits()),
                    "fused {fused} != compositional {reference} for counts {counts:?}, n {n}, {t:?}"
                );
            }
        }
    }

    #[test]
    fn size_interval() {
        let (_, a) = figure2_full(2);
        assert_eq!(a.size_interval(), Interval::new(11.0, 13.0));
    }

    #[test]
    fn display_nonempty() {
        let (_, a) = figure2_full(2);
        assert_eq!(a.to_string(), "<|T|=13, n=2>");
    }

    // ----- randomized soundness properties -----

    /// A random dataset, a random abstract set over it, and a random
    /// concretization drawn from γ.
    fn random_instance(seed: u64) -> (Dataset, AbstractSet, Subset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(1..30usize);
        let k = rng.random_range(2..4usize);
        let rows: Vec<(Vec<f64>, ClassId)> = (0..len)
            .map(|_| {
                (
                    vec![rng.random_range(0..8) as f64],
                    rng.random_range(0..k) as ClassId,
                )
            })
            .collect();
        let ds = Dataset::from_rows(Schema::real(1, k), &rows).unwrap();
        let n = rng.random_range(0..=len);
        let abs = AbstractSet::full(&ds, n);
        // Sample T' ∈ γ: drop a uniform number ≤ n of random rows.
        let drop = rng.random_range(0..=n);
        let mut idx: Vec<u32> = (0..len as u32).collect();
        idx.shuffle(&mut rng);
        idx.truncate(len - drop);
        let t_prime = Subset::from_indices(&ds, idx);
        (ds, abs, t_prime)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Proposition 4.2: γ(a) ∪ γ(b) ⊆ γ(a ⊔ b).
        #[test]
        fn join_soundness(seed in 0u64..1_000_000) {
            let (ds, abs, t_prime) = random_instance(seed);
            prop_assert!(abs.concretizes(&t_prime));
            // Split the base arbitrarily into two overlapping abstract sets.
            let half = abs.restrict_where(&ds, |r| r % 2 == 0);
            let other = abs.restrict_where(&ds, |r| r % 3 != 0);
            let j = half.join(&ds, &other);
            // Everything either side concretizes, the join concretizes
            // (empty sides are the documented ⊔-identity exception).
            for side in [&half, &other] {
                if side.is_empty() {
                    continue;
                }
                let sample = side.base().clone();
                prop_assert!(side.concretizes(&sample));
                prop_assert!(j.concretizes(&sample), "join must cover {side} sample");
            }
            // Join is an upper bound in ⊑ (again modulo the identity case).
            if !half.is_empty() && !other.is_empty() {
                prop_assert!(half.le(&j));
                prop_assert!(other.le(&j));
            }
        }

        /// Proposition 4.4: T' ∈ γ(⟨T,n⟩) ⇒ T'↓φ ∈ γ(⟨T,n⟩↓#φ).
        #[test]
        fn restrict_soundness(seed in 0u64..1_000_000, threshold in 0.0..8.0f64) {
            let (ds, abs, t_prime) = random_instance(seed);
            let abs_r = abs.restrict_where(&ds, |r| ds.value(r, 0) <= threshold);
            let conc_r = t_prime.filter(&ds, |r| ds.value(r, 0) <= threshold);
            prop_assert!(abs_r.concretizes(&conc_r));
        }

        /// Proposition 4.5: cprob(T') ∈ γ(cprob#(⟨T,n⟩)), both transformers.
        #[test]
        fn cprob_soundness(seed in 0u64..1_000_000) {
            let (_ds, abs, t_prime) = random_instance(seed);
            if t_prime.is_empty() {
                return Ok(()); // concrete cprob undefined
            }
            let conc = antidote_tree::split::cprob(t_prime.class_counts());
            for t in [CprobTransformer::Natural, CprobTransformer::Optimal] {
                let ivs = abs.cprob_intervals(t);
                for (p, iv) in conc.iter().zip(&ivs) {
                    prop_assert!(
                        iv.lb() - 1e-9 <= *p && *p <= iv.ub() + 1e-9,
                        "{p} outside {iv} under {t:?}"
                    );
                }
            }
            // Optimal is never looser than natural.
            let nat = abs.cprob_intervals(CprobTransformer::Natural);
            let opt = abs.cprob_intervals(CprobTransformer::Optimal);
            for (n_iv, o_iv) in nat.iter().zip(&opt) {
                prop_assert!(n_iv.lb() <= o_iv.lb() + 1e-12);
                prop_assert!(o_iv.ub() <= n_iv.ub() + 1e-12);
            }
        }

        /// ent# soundness: ent(T') ∈ ent#(⟨T,n⟩).
        #[test]
        fn ent_soundness(seed in 0u64..1_000_000) {
            let (_ds, abs, t_prime) = random_instance(seed);
            if t_prime.is_empty() {
                return Ok(());
            }
            let g = antidote_tree::split::gini(t_prime.class_counts());
            for t in [CprobTransformer::Natural, CprobTransformer::Optimal] {
                let iv = abs.ent_interval(t);
                prop_assert!(iv.lb() - 1e-9 <= g && g <= iv.ub() + 1e-9);
            }
        }

        /// pure soundness: every pure-class concretization is covered.
        #[test]
        fn pure_soundness(seed in 0u64..1_000_000) {
            let (ds, abs, t_prime) = random_instance(seed);
            if t_prime.is_empty() || !t_prime.is_pure() {
                return Ok(());
            }
            let class = (0..t_prime.n_classes())
                .find(|&c| t_prime.count_of(c as ClassId) > 0)
                .unwrap() as ClassId;
            let restricted = abs.pure(&ds, class);
            prop_assert!(restricted.is_some(), "pure class {class} set must be representable");
            prop_assert!(restricted.unwrap().concretizes(&t_prime));
        }

        /// Meet is a lower bound and its concretization is the intersection
        /// of the operands' concretizations (on sampled sets).
        #[test]
        fn meet_soundness(seed in 0u64..1_000_000) {
            let (ds, abs, t_prime) = random_instance(seed);
            let a = abs.restrict_where(&ds, |r| r % 2 == 0);
            let b = abs.restrict_where(&ds, |r| r < abs.len() as u32 / 2 + 1);
            match a.meet(&ds, &b) {
                Some(m) => {
                    prop_assert!(m.le(&a) && m.le(&b));
                    let in_both = a.concretizes(&t_prime) && b.concretizes(&t_prime);
                    if in_both {
                        prop_assert!(m.concretizes(&t_prime));
                    }
                }
                None => {
                    prop_assert!(!(a.concretizes(&t_prime) && b.concretizes(&t_prime)));
                }
            }
        }
    }
}
