//! `score#` and `bestSplit#` (§4.6, §5.1, Appendix B.2).
//!
//! `bestSplit#(⟨T,n⟩)` must return *every* predicate that could be the
//! best split for *some* concretization. It scores each candidate as an
//! interval
//!
//! ```text
//! score#(⟨T,n⟩, φ) = |⟨T,n⟩↓#φ| · ent#(⟨T,n⟩↓#φ)
//!                  + |⟨T,n⟩↓#¬φ| · ent#(⟨T,n⟩↓#¬φ)
//! ```
//!
//! and keeps the candidates whose interval overlaps the *minimal interval*
//! — the one with the lowest upper bound (`lubΦ∀`) among the predicates
//! that split every concretization non-trivially (Φ∀). When Φ∀ is empty,
//! some concretization may admit no non-trivial split at all, so the null
//! predicate ⋄ joins the result alongside all of Φ∃.
//!
//! ## Candidate generation
//!
//! The candidates are the cuts of the base set that the split walk
//! ([`antidote_tree::split::sweep`]) visits; the concrete `bestSplit` and
//! the label-flip learner run the same walk. Boolean features contribute
//! their concrete bit test, whose class counts the walk takes from masked
//! popcounts. Real features contribute one *symbolic* predicate
//! `x_i ≤ [a, b)` per adjacent pair of observed values in `T`
//! (Appendix B.2) — a linear-size set that covers the `≈ n·|T|`
//! thresholds a concretization-aware enumeration would need. Because the
//! gap `(a, b)` contains no value of the *current* base set, `⟨T,n⟩↓#ρ`
//! at scoring time coincides with the prefix restriction, so one sorted
//! walk per feature scores every candidate in O(k) each.
//!
//! ## One sweep, two consumers
//!
//! The sweep scores each cut and hands the candidate to a
//! `CandidateSink`.
//! [`scored_candidates`] collects all of them (the two-pass reference:
//! collect, then [`select_from_candidates`]). [`best_split_abs`] streams
//! them instead: it tracks the running `lubΦ∀` and buffers only
//! candidates with `lb ≤ lub + SCORE_EPS`, then runs the same selection
//! rule on the buffer. The running lub never falls below the final one,
//! so nothing dropped early could have been kept, and the candidate that
//! sets the final lub is always buffered (`lb ≤ ub`), so the buffer's
//! lub is the final one.
//!
//! Under the Optimal transformer the sweep also skips *scoring* a
//! candidate whose exact lower end exceeds the running lub by more than
//! `SCORE_EPS + 1e-12·k·|T|`. Per side that lower end is the rational
//! `N/m` with `m = len − n'` and the integer
//! `N = Σᵢ sat(cᵢ − n')·(m − min(cᵢ, m))` — what the fused f64 score
//! computes up to rounding. Every Optimal score endpoint is at most
//! `k·|T|`, and the rounding of either form stays within a few ulps of
//! that bound, far inside the `1e-12` margin, so a skipped candidate's
//! f64 `lb` exceeds `lub + SCORE_EPS`: it can be neither kept nor lower
//! the lub (its f64 `ub ≥ lb`). The result is bit-identical to the
//! two-pass reference (pinned by the proptest differential below).

use antidote_data::{Dataset, FeatureKind};
use antidote_domains::trainset::side_score_from_counts;
use antidote_domains::{AbsPredicate, AbstractSet, CprobTransformer, Interval};
use antidote_tree::split;
use antidote_tree::Predicate;

/// Slack used when comparing score-interval bounds: including a borderline
/// predicate is sound, excluding one is not, so comparisons lean inclusive.
const SCORE_EPS: f64 = 1e-9;

/// The Optimal prefilter's rounding margin per unit of the score bound
/// `k·|T|` (see the module docs).
const PREFILTER_MARGIN: f64 = 1e-12;

/// The result of `bestSplit#`: the kept candidate predicates and whether ⋄
/// is possible.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsSplitResult {
    /// Predicates whose score interval overlaps the minimal interval.
    pub preds: Vec<AbsPredicate>,
    /// Whether some concretization may have no non-trivial split (Φ∀ = ∅).
    pub diamond: bool,
}

/// One scored candidate (exposed for diagnostics and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate predicate.
    pub pred: AbsPredicate,
    /// Its `score#` interval.
    pub score: Interval,
    /// Whether the candidate is in Φ∀ (non-trivial for every
    /// concretization): both sides keep more than `n` elements.
    pub forall: bool,
}

/// Where the candidate sweep sends its candidates, in generation order.
trait CandidateSink {
    /// Under the Optimal transformer the sweep does not score a candidate
    /// whose exact lower score bound exceeds this value;
    /// `f64::INFINITY` has every candidate scored.
    fn cutoff(&self) -> f64;
    /// Takes one scored candidate.
    fn push(&mut self, cand: ScoredCandidate);
}

/// The two-pass reference consumer: every candidate, scored.
impl CandidateSink for Vec<ScoredCandidate> {
    fn cutoff(&self) -> f64 {
        f64::INFINITY
    }
    fn push(&mut self, cand: ScoredCandidate) {
        Vec::push(self, cand);
    }
}

/// `bestSplit#`'s streaming consumer: the running `lubΦ∀` and the
/// candidates that can still overlap it.
struct Selection {
    /// Lowest upper bound over the Φ∀ candidates seen so far.
    lub: f64,
    /// `SCORE_EPS` plus the prefilter's rounding margin.
    margin: f64,
    kept: Vec<ScoredCandidate>,
}

impl CandidateSink for Selection {
    fn cutoff(&self) -> f64 {
        self.lub + self.margin
    }
    fn push(&mut self, cand: ScoredCandidate) {
        if cand.forall {
            self.lub = self.lub.min(cand.score.ub());
        }
        if cand.score.lb() <= self.lub + SCORE_EPS {
            self.kept.push(cand);
        }
    }
}

/// Scores every candidate predicate of `a` (all features), in deterministic
/// order. This is the two-pass reference behind [`best_split_abs`]'s
/// streaming selection.
pub fn scored_candidates(
    ds: &Dataset,
    a: &AbstractSet,
    transformer: CprobTransformer,
) -> Vec<ScoredCandidate> {
    // Pre-size for the common shape: one candidate per adjacent value
    // pair of the first feature, amortised growth for the rest.
    let mut out = Vec::with_capacity(a.len().max(8));
    sweep(ds, a, transformer, &mut out);
    out
}

/// Scores the split walk's cuts of `a`'s base set into `sink`.
fn sweep(
    ds: &Dataset,
    a: &AbstractSet,
    transformer: CprobTransformer,
    sink: &mut impl CandidateSink,
) {
    let n = a.n();
    let prefilter = transformer == CprobTransformer::Optimal;
    let features = ds.schema().features();
    split::sweep(ds, a.base(), |cut| {
        if prefilter
            && optimal_side_lb(cut.left, cut.left_len, n)
                + optimal_side_lb(cut.right, cut.right_len, n)
                > sink.cutoff()
        {
            return;
        }
        let score = score_interval_from_sides(
            cut.left,
            cut.left_len,
            cut.right,
            cut.right_len,
            n,
            transformer,
        );
        let pred = match features[cut.feature].kind {
            FeatureKind::Bool => AbsPredicate::Concrete(Predicate::boolean(cut.feature)),
            FeatureKind::Real => AbsPredicate::Symbolic {
                feature: cut.feature,
                lo: cut.lo,
                hi: cut.hi,
            },
        };
        sink.push(ScoredCandidate {
            pred,
            score,
            forall: cut.left_len > n && cut.right_len > n,
        });
    });
}

/// The exact lower end of one side's Optimal `score#` term
/// ([`side_score_from_counts`]), `N/m` with `n' = min(n, len)`,
/// `m = len − n'` and the integer `N = Σᵢ sat(cᵢ − n')·(m − min(cᵢ, m))`;
/// 0 when `m = 0`. Only two roundings separate the result from `N/m`.
fn optimal_side_lb(counts: &[u32], len: usize, n: usize) -> f64 {
    let n = n.min(len) as u64;
    let m = len as u64 - n;
    if m == 0 {
        return 0.0;
    }
    let num: u64 = counts
        .iter()
        .map(|&c| (c as u64).saturating_sub(n) * (m - (c as u64).min(m)))
        .sum();
    num as f64 / m as f64
}

/// `score#` from the two sides' class counts: each side contributes
/// `[len − n', len] · ent#(counts, n')` with `n' = min(n, len)`.
///
/// At candidate-generation time the symbolic gap `(a, b)` contains no value
/// of the base set, so both endpoint restrictions of `⟨T,n⟩↓#ρ` coincide
/// with the prefix and this formula is exactly the paper's `score#`.
pub fn score_interval_from_sides(
    left: &[u32],
    left_len: usize,
    right: &[u32],
    right_len: usize,
    n: usize,
    transformer: CprobTransformer,
) -> Interval {
    side_term(left, left_len, n, transformer) + side_term(right, right_len, n, transformer)
}

fn side_term(counts: &[u32], len: usize, n: usize, transformer: CprobTransformer) -> Interval {
    // Fused `[len − n', len] · ent#` — bit-identical to the compositional
    // form (see `side_score_from_counts`), minus the per-class interval
    // plumbing that dominated the dense sweep's profile.
    side_score_from_counts(counts, len, n, transformer)
}

/// `score#(⟨T,n⟩, ρ)` for an explicit abstract predicate, built from the
/// restriction transformers (used by tests to cross-check the sweep and by
/// Lemma B.5-style soundness properties).
pub fn score_interval(
    ds: &Dataset,
    a: &AbstractSet,
    pred: &AbsPredicate,
    transformer: CprobTransformer,
) -> Interval {
    let yes = pred.restrict(ds, a);
    let no = pred.restrict_neg(ds, a);
    let term = |s: &AbstractSet| s.size_interval() * s.ent_interval(transformer);
    term(&yes) + term(&no)
}

/// `bestSplit#(⟨T,n⟩)` (§4.6):
///
/// * if Φ∀ = ∅ — return Φ∃ ∪ {⋄};
/// * otherwise — return `{φ ∈ Φ∃ : lb(score#(φ)) ≤ lubΦ∀}` where `lubΦ∀`
///   is the lowest upper bound among Φ∀ scores.
///
/// Φ∃ membership is structural here: every generated candidate splits the
/// *base set* non-trivially by construction (boolean candidates only appear
/// when both bit values occur; symbolic candidates sit between two observed
/// values), which is exactly `⟨T,n⟩↓#φ ≠ ⟨∅,·⟩ ∧ ⟨T,n⟩↓#¬φ ≠ ⟨∅,·⟩`.
///
/// One streaming pass over the sweep: candidates that provably cannot
/// overlap the final minimal interval are dropped as they arrive, or,
/// under the Optimal transformer, not scored at all (module docs). The
/// result equals `select_from_candidates(&scored_candidates(..))` bit for
/// bit.
pub fn best_split_abs(
    ds: &Dataset,
    a: &AbstractSet,
    transformer: CprobTransformer,
) -> AbsSplitResult {
    // k·|T| bounds every Optimal score endpoint.
    let bound = (a.base().n_classes() * a.len()) as f64;
    let mut selection = Selection {
        lub: f64::INFINITY,
        margin: SCORE_EPS + PREFILTER_MARGIN * bound,
        kept: Vec::new(),
    };
    sweep(ds, a, transformer, &mut selection);
    select_from_candidates(&selection.kept)
}

/// The selection rule of `bestSplit#`, separated so tests can drive it with
/// hand-built candidate lists.
pub fn select_from_candidates(cands: &[ScoredCandidate]) -> AbsSplitResult {
    let lub = cands
        .iter()
        .filter(|c| c.forall)
        .map(|c| c.score.ub())
        .min_by(f64::total_cmp);
    match lub {
        None => AbsSplitResult {
            preds: cands.iter().map(|c| c.pred).collect(),
            diamond: true,
        },
        Some(lub) => AbsSplitResult {
            preds: cands
                .iter()
                .filter(|c| c.score.lb() <= lub + SCORE_EPS)
                .map(|c| c.pred)
                .collect(),
            diamond: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::dataset::Feature;
    use antidote_data::{synth, ClassId, DatasetDelta, Schema, Subset};
    use antidote_tree::split::{best_split, score_split};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn n_zero_reduces_to_concrete_best_split() {
        // With no poisoning the score intervals are points, Φ∀ = Φ', and
        // the kept set is exactly the concrete argmin (all ties).
        let ds = synth::figure2();
        let a = AbstractSet::full(&ds, 0);
        let r = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert!(!r.diamond);
        let concrete = best_split(&ds, &Subset::full(&ds)).unwrap();
        assert_eq!(r.preds.len(), 1);
        assert!(r.preds[0].concretizes(&concrete.predicate));
    }

    #[test]
    fn figure2_n2_keeps_x_le_10() {
        // §2: no matter which 2 elements are dropped, x ≤ 10 remains a
        // best split — so it must be among the returned predicates.
        let ds = synth::figure2();
        let a = AbstractSet::full(&ds, 2);
        let r = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert!(
            !r.diamond,
            "with n=2 < sides, some predicate is always non-trivial"
        );
        let target = Predicate {
            feature: 0,
            threshold: 10.5,
        };
        assert!(
            r.preds.iter().any(|p| p.concretizes(&target)),
            "x <= 10 must be a candidate best split"
        );
    }

    #[test]
    fn diamond_when_budget_swallows_a_side() {
        // Two rows, one feature value apart, n = 1: dropping either row
        // leaves a singleton where every split is trivial → Φ∀ = ∅.
        let ds = antidote_data::Dataset::from_rows(
            Schema::real(1, 2),
            &[(vec![0.0], 0), (vec![1.0], 1)],
        )
        .unwrap();
        let a = AbstractSet::full(&ds, 1);
        let r = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert!(r.diamond);
        // Φ∃ is still returned.
        assert_eq!(r.preds.len(), 1);
    }

    #[test]
    fn no_candidates_gives_diamond_only() {
        let ds = antidote_data::Dataset::from_rows(
            Schema::real(1, 2),
            &[(vec![3.0], 0), (vec![3.0], 1)],
        )
        .unwrap();
        let a = AbstractSet::full(&ds, 0);
        let r = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert!(r.diamond);
        assert!(r.preds.is_empty());
    }

    #[test]
    fn example_4_9_selection_rule() {
        // Four intervals as in Example 4.9: φ₁ has the lowest upper bound;
        // φ₁, φ₂, φ₃ overlap it; φ₄ lies strictly above.
        let mk = |lo: f64, hi: f64, i: usize| ScoredCandidate {
            pred: AbsPredicate::Concrete(Predicate {
                feature: i,
                threshold: 0.0,
            }),
            score: Interval::new(lo, hi),
            forall: true,
        };
        let cands = vec![
            mk(1.0, 3.0, 1),
            mk(2.0, 5.0, 2),
            mk(2.5, 6.0, 3),
            mk(3.5, 7.0, 4),
        ];
        let r = select_from_candidates(&cands);
        assert!(!r.diamond);
        let kept: Vec<usize> = r.preds.iter().map(|p| p.feature()).collect();
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn boolean_features_get_concrete_candidates() {
        let ds = antidote_data::Dataset::from_rows(
            Schema::boolean(2, 2),
            &[
                (vec![0.0, 0.0], 0),
                (vec![1.0, 0.0], 1),
                (vec![0.0, 1.0], 0),
                (vec![1.0, 1.0], 1),
            ],
        )
        .unwrap();
        let a = AbstractSet::full(&ds, 1);
        let cands = scored_candidates(&ds, &a, CprobTransformer::Optimal);
        assert_eq!(cands.len(), 2);
        assert!(cands
            .iter()
            .all(|c| matches!(c.pred, AbsPredicate::Concrete(p) if p.threshold == 0.5)));
    }

    /// Builds a small random dataset, its abstraction, and a sampled
    /// concretization subset.
    fn random_instance(seed: u64) -> (antidote_data::Dataset, AbstractSet, Subset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(2..16usize);
        let k = rng.random_range(2..4usize);
        let rows: Vec<(Vec<f64>, u16)> = (0..len)
            .map(|_| {
                (
                    vec![rng.random_range(0..6) as f64, rng.random_range(0..4) as f64],
                    rng.random_range(0..k) as u16,
                )
            })
            .collect();
        let ds = antidote_data::Dataset::from_rows(Schema::real(2, k), &rows).unwrap();
        let n = rng.random_range(0..len); // keep at least one element
        let abs = AbstractSet::full(&ds, n);
        let drop = rng.random_range(0..=n);
        let mut idx: Vec<u32> = (0..len as u32).collect();
        idx.shuffle(&mut rng);
        idx.truncate(len - drop);
        let t_prime = Subset::from_indices(&ds, idx);
        (ds, abs, t_prime)
    }

    /// A random `rows`-row dataset with k ∈ {2, 3, 4} classes and a mix of
    /// real and boolean features, abstracted over every row, about a third
    /// of them (dense sweep), or about a sixteenth (sparse sweep), with `n`
    /// anywhere in `0..=|T|`. Half the datasets end with a twin of their
    /// first feature: every twin candidate ties its original exactly, so
    /// whether a tie at the running lub is still scored rests on the
    /// prefilter's rounding margin.
    fn random_split_instance(seed: u64, rows: usize) -> (Dataset, AbstractSet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.random_range(2..=4usize);
        let mut kinds: Vec<FeatureKind> = (0..rng.random_range(1..5usize))
            .map(|_| match rng.random_range(0..2) {
                0 => FeatureKind::Bool,
                _ => FeatureKind::Real,
            })
            .collect();
        let independent = kinds.len();
        if rng.random_range(0..2) == 0 {
            kinds.push(kinds[0]);
        }
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
        let distinct = rng.random_range(2..=rows.clamp(2, 200));
        let data: Vec<(Vec<f64>, ClassId)> = (0..rows)
            .map(|_| {
                let mut x: Vec<f64> = kinds[..independent]
                    .iter()
                    .map(|kind| match kind {
                        FeatureKind::Bool => rng.random_range(0..2) as f64,
                        FeatureKind::Real => rng.random_range(0..distinct) as f64,
                    })
                    .collect();
                x.resize(kinds.len(), x[0]);
                (x, rng.random_range(0..k) as ClassId)
            })
            .collect();
        let ds = Dataset::from_rows(schema, &data).unwrap();
        let keep_one_in = [1u32, 3, 16][rng.random_range(0..3usize)];
        let base = Subset::from_indices(
            &ds,
            (0..rows as u32)
                .filter(|_| rng.random_range(0..keep_one_in) == 0)
                .collect(),
        );
        let n = rng.random_range(0..=base.len());
        (ds, AbstractSet::new(base, n))
    }

    /// The streaming `bestSplit#` against the two-pass reference, bit for
    /// bit (`Debug` spells out every float, signed zeros included).
    fn assert_streaming_matches_reference(ds: &Dataset, a: &AbstractSet) {
        for t in [CprobTransformer::Optimal, CprobTransformer::Natural] {
            let streamed = best_split_abs(ds, a, t);
            let reference = select_from_candidates(&scored_candidates(ds, a, t));
            assert_eq!(
                format!("{streamed:?}"),
                format!("{reference:?}"),
                "{t:?}, {a}"
            );
        }
    }

    #[test]
    fn streaming_selection_matches_reference_at_scale() {
        // Ten thousand rows put scores in the thousands, where the
        // prefilter's rounding margin is a real fraction of an ulp-scale
        // gap; budgets span the whole range up to |T|.
        let mut kept_some = false;
        for seed in 0..6 {
            let (ds, _) = random_split_instance(seed, 10_000);
            for n in [0, 1, 7, 100, 2_500, ds.len() - 1, ds.len()] {
                let a = AbstractSet::full(&ds, n);
                assert_streaming_matches_reference(&ds, &a);
                kept_some |= !best_split_abs(&ds, &a, CprobTransformer::Optimal)
                    .preds
                    .is_empty();
            }
        }
        assert!(kept_some);
    }

    #[test]
    fn optimal_side_lb_is_the_fused_lower_end() {
        let mut rng = StdRng::seed_from_u64(0x51DE);
        for _ in 0..2000 {
            let k = rng.random_range(1..5usize);
            let counts: Vec<u32> = (0..k).map(|_| rng.random_range(0..3000)).collect();
            let len: usize = counts.iter().map(|&c| c as usize).sum();
            let n = rng.random_range(0..=len + 3);
            let fused = side_score_from_counts(&counts, len, n, CprobTransformer::Optimal);
            let exact = optimal_side_lb(&counts, len, n);
            let slack = 1e-12 * (k * len.max(1)) as f64;
            assert!(
                (fused.lb() - exact).abs() <= slack,
                "{counts:?} n={n}: fused {} vs exact {exact}",
                fused.lb()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `best_split_abs` streams the sweep, drops candidates early and
        /// skips scoring some; none of it may change a bit of the result.
        #[test]
        fn streaming_best_split_matches_two_pass_reference(
            seed in 0u64..1_000_000,
            rows in 2usize..120,
        ) {
            let (ds, a) = random_split_instance(seed, rows);
            assert_streaming_matches_reference(&ds, &a);
        }

        /// The walk's score# must equal the restriction-based score# for
        /// every candidate (they are the same definition), and a boolean
        /// feature must yield exactly one candidate iff the base holds
        /// both of its values: on mixed schemas, dense and sparse bases,
        /// and, after a removal delta, on bit-patched threshold masks.
        #[test]
        fn sweep_scores_match_restriction_scores(
            seed in 0u64..1_000_000,
            rows in 2usize..150,
        ) {
            let (ds, a) = random_split_instance(seed, rows);
            ds.warm_indexes();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
            let mut delta = DatasetDelta::new();
            for r in 1..rows as u32 {
                if rng.random_range(0..4) == 0 {
                    delta.remove(r);
                }
            }
            let after = ds.apply(&delta).expect("row 0 stays");
            let kept = a.base().iter().filter(|&r| after.is_live(r)).collect();
            let a_after = AbstractSet::new(Subset::from_indices(&after, kept), a.n());
            for (ds, a) in [(&ds, &a), (&after, &a_after)] {
                for t in [CprobTransformer::Optimal, CprobTransformer::Natural] {
                    let cands = scored_candidates(ds, a, t);
                    for c in &cands {
                        let via_restrict = score_interval(ds, a, &c.pred, t);
                        prop_assert!(
                            (c.score.lb() - via_restrict.lb()).abs() < 1e-9
                                && (c.score.ub() - via_restrict.ub()).abs() < 1e-9,
                            "{t:?} {}: sweep {} vs restrict {}",
                            c.pred,
                            c.score,
                            via_restrict
                        );
                    }
                    for (f, feat) in ds.schema().features().iter().enumerate() {
                        if feat.kind == FeatureKind::Bool {
                            let ones = a.base().iter().filter(|&r| ds.value(r, f) == 1.0).count();
                            let both = ones > 0 && ones < a.len();
                            let n_cands = cands.iter().filter(|c| c.pred.feature() == f).count();
                            prop_assert_eq!(n_cands, usize::from(both), "feature {}", f);
                        }
                    }
                }
            }
        }

        /// Lemma 4.10 / B.5: bestSplit(T') ∈ γ(bestSplit#(⟨T,n⟩)).
        #[test]
        fn best_split_soundness(seed in 0u64..1_000_000) {
            let (ds, abs, t_prime) = random_instance(seed);
            if t_prime.is_empty() {
                return Ok(());
            }
            let r = best_split_abs(&ds, &abs, CprobTransformer::Optimal);
            match best_split(&ds, &t_prime) {
                None => prop_assert!(r.diamond, "concrete ⋄ must be covered"),
                Some(choice) => {
                    prop_assert!(
                        r.preds.iter().any(|p| p.concretizes(&choice.predicate)),
                        "concrete best split {} (score {}) not covered; kept {:?}",
                        choice.predicate,
                        choice.score,
                        r.preds
                    );
                }
            }
        }

        /// score# soundness: score(T', φ) ∈ score#(⟨T,n⟩, ρ) for φ ∈ γ(ρ).
        #[test]
        fn score_interval_soundness(seed in 0u64..1_000_000) {
            let (ds, abs, t_prime) = random_instance(seed);
            if t_prime.is_empty() {
                return Ok(());
            }
            // Check the concrete candidates of T' against their covering
            // abstract candidates.
            let concrete_preds = antidote_tree::predicate::candidate_predicates(&ds, &t_prime);
            let abs_cands = scored_candidates(&ds, &abs, CprobTransformer::Optimal);
            for cp in concrete_preds {
                let cscore = score_split(&ds, &t_prime, &cp);
                // Some abstract candidate must cover cp (γ-membership)…
                let cover: Vec<_> =
                    abs_cands.iter().filter(|c| c.pred.concretizes(&cp)).collect();
                prop_assert!(!cover.is_empty(), "no abstract candidate covers {cp}");
                // …and via the restriction-based score#, its interval must
                // contain the concrete score.
                for c in cover {
                    let iv = score_interval(&ds, &abs, &c.pred, CprobTransformer::Optimal);
                    prop_assert!(
                        iv.lb() - 1e-6 <= cscore && cscore <= iv.ub() + 1e-6,
                        "score {cscore} of {cp} outside {iv} of {}",
                        c.pred
                    );
                }
            }
        }
    }
}
