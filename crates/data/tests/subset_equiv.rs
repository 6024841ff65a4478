//! Differential suite: the word-packed `Subset` backend versus a
//! reference sorted-`Vec` model.
//!
//! The bitset rewrite must be *observationally identical* to the
//! historical sorted-index representation — same ascending iteration
//! order, same counts, same algebra — because trace recording, minimal
//! counterexample ordering, and every deterministic fold downstream
//! depend on it. The model here implements each operation the naive way
//! over a sorted unique index vector; every property drives both
//! implementations with the same random inputs and demands equal results.

use antidote_data::{ClassId, Dataset, RowId, Schema, Subset, SubsetInterner, ThresholdCmp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference model: a strictly increasing, deduplicated index vector.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    indices: Vec<RowId>,
}

impl Model {
    fn new(mut indices: Vec<RowId>) -> Model {
        indices.sort_unstable();
        indices.dedup();
        Model { indices }
    }

    fn counts(&self, ds: &Dataset) -> Vec<u32> {
        let mut counts = vec![0u32; ds.n_classes()];
        for &i in &self.indices {
            counts[ds.label(i) as usize] += 1;
        }
        counts
    }

    fn union(&self, other: &Model) -> Model {
        Model::new([self.indices.clone(), other.indices.clone()].concat())
    }

    fn intersect(&self, other: &Model) -> Model {
        Model::new(
            self.indices
                .iter()
                .copied()
                .filter(|i| other.indices.contains(i))
                .collect(),
        )
    }

    fn difference(&self, other: &Model) -> Model {
        Model::new(
            self.indices
                .iter()
                .copied()
                .filter(|i| !other.indices.contains(i))
                .collect(),
        )
    }

    fn difference_len(&self, other: &Model) -> usize {
        self.difference(other).indices.len()
    }

    fn is_subset_of(&self, other: &Model) -> bool {
        self.indices.iter().all(|i| other.indices.contains(i))
    }

    fn filter<F: FnMut(RowId) -> bool>(&self, mut keep: F) -> Model {
        Model::new(self.indices.iter().copied().filter(|&i| keep(i)).collect())
    }
}

/// Asserts the packed subset and the model agree on every observation.
fn assert_equiv(ds: &Dataset, s: &Subset, m: &Model, what: &str) {
    assert_eq!(s.indices(), m.indices, "{what}: indices");
    assert_eq!(s.len(), m.indices.len(), "{what}: len");
    assert_eq!(s.is_empty(), m.indices.is_empty(), "{what}: is_empty");
    assert_eq!(s.class_counts(), &m.counts(ds)[..], "{what}: class_counts");
    let pure = m.counts(ds).iter().filter(|&&c| c > 0).count() <= 1;
    assert_eq!(s.is_pure(), pure, "{what}: is_pure");
    // Ascending iteration, bit-identical to the sorted-Vec backend.
    let via_iter: Vec<RowId> = s.iter().collect();
    assert_eq!(via_iter, m.indices, "{what}: iter order");
    assert!(
        via_iter.windows(2).all(|w| w[0] < w[1]),
        "{what}: strictly increasing"
    );
    // Membership agrees for every row of the dataset (and beyond it).
    for row in 0..ds.len() as RowId {
        assert_eq!(
            s.contains(row),
            m.indices.contains(&row),
            "{what}: contains({row})"
        );
    }
    assert!(!s.contains(ds.len() as RowId + 64), "{what}: off the end");
    // Canonical words: no trailing zero word, popcount equals len.
    assert_ne!(s.words().last(), Some(&0), "{what}: canonical words");
    let pop: u32 = s.words().iter().map(|w| w.count_ones()).sum();
    assert_eq!(pop as usize, s.len(), "{what}: popcount");
}

/// A random dataset (spanning multiple words) and two random index sets.
fn random_instance(seed: u64) -> (Dataset, Vec<RowId>, Vec<RowId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.random_range(1..200usize);
    let k = rng.random_range(2..4usize);
    let rows: Vec<(Vec<f64>, ClassId)> = (0..len)
        .map(|_| {
            (
                vec![rng.random_range(0..16) as f64],
                rng.random_range(0..k) as ClassId,
            )
        })
        .collect();
    let ds = Dataset::from_rows(Schema::real(1, k), &rows).unwrap();
    let mut pick = |density: usize| -> Vec<RowId> {
        (0..len as RowId)
            .filter(|_| rng.random_range(0..4usize) < density)
            .collect()
    };
    let a = pick(2);
    let b = pick(1);
    (ds, a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Construction, iteration, counts, and membership agree.
    #[test]
    fn construction_matches_model(seed in 0u64..1_000_000) {
        let (ds, a, _) = random_instance(seed);
        // Shuffled, duplicated input must normalise identically.
        let mut noisy = a.clone();
        noisy.extend(a.iter().rev());
        let s = Subset::from_indices(&ds, noisy);
        let m = Model::new(a);
        assert_equiv(&ds, &s, &m, "from_indices");
        let full = Subset::full(&ds);
        let m_full = Model::new((0..ds.len() as RowId).collect());
        assert_equiv(&ds, &full, &m_full, "full");
        assert_equiv(&ds, &Subset::empty(ds.n_classes()),
                     &Model::new(Vec::new()), "empty");
    }

    /// The whole set algebra agrees: union, intersection, difference,
    /// difference_len, and the subset order.
    #[test]
    fn algebra_matches_model(seed in 0u64..1_000_000) {
        let (ds, a, b) = random_instance(seed);
        let (sa, sb) = (
            Subset::from_indices(&ds, a.clone()),
            Subset::from_indices(&ds, b.clone()),
        );
        let (ma, mb) = (Model::new(a), Model::new(b));
        assert_equiv(&ds, &sa.union(&ds, &sb), &ma.union(&mb), "a ∪ b");
        assert_equiv(&ds, &sb.union(&ds, &sa), &mb.union(&ma), "b ∪ a");
        assert_equiv(&ds, &sa.intersect(&ds, &sb), &ma.intersect(&mb), "a ∩ b");
        assert_equiv(&ds, &sa.difference(&ds, &sb), &ma.difference(&mb), "a \\ b");
        assert_equiv(&ds, &sb.difference(&ds, &sa), &mb.difference(&ma), "b \\ a");
        prop_assert_eq!(sa.difference_len(&sb), ma.difference_len(&mb));
        prop_assert_eq!(sb.difference_len(&sa), mb.difference_len(&ma));
        prop_assert_eq!(sa.is_subset_of(&sb), ma.is_subset_of(&mb));
        prop_assert_eq!(sa.intersect(&ds, &sb).is_subset_of(&sa), true);
        prop_assert_eq!(sa.is_subset_of(&sa.union(&ds, &sb)), true);
        // Structural equality is set equality, independent of the
        // construction path.
        prop_assert_eq!(
            sa.union(&ds, &sb) == sb.union(&ds, &sa),
            true,
            "union must be commutative structurally"
        );
    }

    /// Filtering: arbitrary predicates, class filters, and partitions.
    #[test]
    fn filters_match_model(seed in 0u64..1_000_000, threshold in 0.0..16.0f64) {
        let (ds, a, _) = random_instance(seed);
        let s = Subset::from_indices(&ds, a.clone());
        let m = Model::new(a);
        let pred = |r: RowId| ds.value(r, 0) <= threshold;
        assert_equiv(&ds, &s.filter(&ds, pred), &m.filter(pred), "filter");
        let (yes, no) = s.partition(&ds, pred);
        assert_equiv(&ds, &yes, &m.filter(pred), "partition.0");
        assert_equiv(&ds, &no, &m.filter(|r| !pred(r)), "partition.1");
        for class in 0..ds.n_classes() as ClassId {
            assert_equiv(
                &ds,
                &s.filter_class(&ds, class),
                &m.filter(|r| ds.label(r) == class),
                "filter_class",
            );
        }
        // The predicate sees member rows in ascending order (the contract
        // trace recording relies on).
        let mut seen: Vec<RowId> = Vec::new();
        let _ = s.filter(&ds, |r| {
            seen.push(r);
            true
        });
        prop_assert_eq!(seen, m.indices);
    }

    /// Hash-consing differential: interned subsets behave exactly like
    /// reference (un-interned) ones. Equality/hash agree with the model
    /// across construction paths, clones share payloads, and rewiring a
    /// view through the interner changes no observable behavior.
    #[test]
    fn interned_subsets_match_reference_behavior(seed in 0u64..1_000_000) {
        let (ds, a, b) = random_instance(seed);
        let sa = Subset::from_indices(&ds, a.clone());
        // The same set built along a different path: filter from full.
        let keep: std::collections::HashSet<RowId> = a.iter().copied().collect();
        let sa2 = Subset::full(&ds).filter(&ds, |r| keep.contains(&r));
        let sb = Subset::from_indices(&ds, b.clone());
        // Value equality and hash equality follow the model.
        prop_assert_eq!(&sa, &sa2, "construction path must not matter");
        prop_assert_eq!(sa.content_hash(), sa2.content_hash());
        prop_assert!(!sa.shares_repr(&sa2), "distinct allocations pre-interning");
        if Model::new(a.clone()) != Model::new(b.clone()) {
            prop_assert!(sa != sb);
        }
        // Clones share the hash-consed payload.
        let cloned = sa.clone();
        prop_assert!(cloned.shares_repr(&sa));
        // Interning rewires equal payloads onto one allocation and
        // reports hits exactly for re-encountered payloads…
        let mut interner = SubsetInterner::new();
        let (c1, hit1) = interner.intern(&sa);
        let (c2, hit2) = interner.intern(&sa2);
        prop_assert!(!hit1 && hit2);
        prop_assert!(c1.shares_repr(&sa) && c2.shares_repr(&sa));
        let (c3, hit3) = interner.intern(&sb);
        prop_assert_eq!(hit3, sb == sa, "distinct payloads are fresh entries");
        // …and the canonical views are observationally identical to the
        // un-interned originals.
        let m = Model::new(a);
        assert_equiv(&ds, &c2, &m, "interned view");
        prop_assert_eq!(c2.content_hash(), sa.content_hash());
        prop_assert_eq!(c3 == c2, sb == sa);
        // O(1) containment/difference fast paths on shared payloads agree
        // with the word-walking general case.
        prop_assert!(c1.is_subset_of(&c2));
        prop_assert_eq!(c1.difference_len(&c2), 0);
    }

    /// SIMD kernel differential: every chunked vector kernel must agree
    /// with its scalar form on arbitrary word vectors — including empty
    /// slices, lengths that are not a multiple of the lane width, unequal
    /// lengths (the zero-extension contracts), and canonical
    /// trailing-zero-trimmed reprs. The guarantee that a scalar build
    /// (`--no-default-features`) produces the same ladders reduces to
    /// exactly this equivalence.
    #[cfg(feature = "simd")]
    #[test]
    fn simd_vector_kernels_match_scalar_fallback(
        len_a in 0usize..13,
        len_b in 0usize..13,
        seed in 0u64..1_000_000,
        trim in 0u8..2,
    ) {
        use antidote_data::simd;
        let trim = trim == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        // Bias toward all-zero and all-one words so the subset and
        // first-nonzero early-exit branches are exercised, not just the
        // generic mixed case.
        let word = |rng: &mut StdRng| -> u64 {
            match rng.random_range(0..4u8) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.random(),
            }
        };
        let mut a: Vec<u64> = (0..len_a).map(|_| word(&mut rng)).collect();
        let mut b: Vec<u64> = (0..len_b).map(|_| word(&mut rng)).collect();
        if trim {
            // Canonical `SubsetRepr` shape: no trailing zero words.
            while a.last() == Some(&0) { a.pop(); }
            while b.last() == Some(&0) { b.pop(); }
        }

        // Unary and length-tolerant kernels (b zero-extended past its end).
        prop_assert_eq!(simd::popcount_vector(&a), simd::popcount_scalar(&a));
        prop_assert_eq!(
            simd::andnot_popcount_vector(&a, &b),
            simd::andnot_popcount_scalar(&a, &b)
        );
        prop_assert_eq!(simd::is_subset_vector(&a, &b), simd::is_subset_scalar(&a, &b));
        for from in 0..=a.len() + 1 {
            prop_assert_eq!(
                simd::first_nonzero_word_vector(&a, from),
                simd::first_nonzero_word_scalar(&a, from)
            );
        }
        // a ∩ b ⊆ b must hold through both forms (a true-subset case the
        // random pairs above rarely produce).
        let inter: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
        prop_assert!(simd::is_subset_vector(&inter, &b));
        prop_assert!(simd::is_subset_scalar(&inter, &b));

        // Equal-length kernels, over the common prefix.
        let n = a.len().min(b.len());
        let (pa, pb) = (&a[..n], &b[..n]);
        prop_assert_eq!(
            simd::and_popcount_vector(pa, pb),
            simd::and_popcount_scalar(pa, pb)
        );
        let mut out_v = vec![0u64; n];
        let mut out_s = vec![0u64; n];
        simd::and_words_vector(pa, pb, &mut out_v);
        simd::and_words_scalar(pa, pb, &mut out_s);
        prop_assert_eq!(&out_v, &out_s, "and_words");
        simd::andnot_words_vector(pa, pb, &mut out_v);
        simd::andnot_words_scalar(pa, pb, &mut out_s);
        prop_assert_eq!(&out_v, &out_s, "andnot_words");
        simd::or_words_vector(pa, pb, &mut out_v);
        simd::or_words_scalar(pa, pb, &mut out_s);
        prop_assert_eq!(&out_v, &out_s, "or_words");
        let mut acc_v = pa.to_vec();
        let mut acc_s = pa.to_vec();
        simd::and_in_place_vector(&mut acc_v, pb);
        simd::and_in_place_scalar(&mut acc_s, pb);
        prop_assert_eq!(acc_v, acc_s, "and_in_place");
        // The three-way kernel's third operand: the complement of `a ∧ b`
        // in reverse word order, so it differs from both other operands.
        let pc: Vec<u64> = inter.iter().rev().map(|w| !w).collect();
        prop_assert_eq!(
            simd::and3_popcount_vector(pa, pb, &pc),
            simd::and3_popcount_scalar(pa, pb, &pc)
        );
    }

    /// The word-parallel threshold restriction agrees with the model (and
    /// hence with the closure fallback) for every comparison, including
    /// thresholds below, between, at, and above the observed values.
    #[test]
    fn threshold_restriction_matches_model(seed in 0u64..1_000_000, tau in -1.0..18.0f64) {
        let (ds, a, _) = random_instance(seed);
        let s = Subset::from_indices(&ds, a.clone());
        let m = Model::new(a);
        for (cmp, what) in [
            (ThresholdCmp::Le, "≤"),
            (ThresholdCmp::Lt, "<"),
            (ThresholdCmp::Gt, ">"),
            (ThresholdCmp::Ge, "≥"),
        ] {
            let fast = s.filter_cmp(&ds, 0, tau, cmp);
            let model = m.filter(|r| {
                let v = ds.value(r, 0);
                match cmp {
                    ThresholdCmp::Le => v <= tau,
                    ThresholdCmp::Lt => v < tau,
                    ThresholdCmp::Gt => v > tau,
                    ThresholdCmp::Ge => v >= tau,
                }
            });
            assert_equiv(&ds, &fast, &model, what);
            // Exact observed values as thresholds hit the boundary cases.
            for exact in [0.0, 7.0, 15.0] {
                let fast = s.filter_cmp(&ds, 0, exact, cmp);
                let model = m.filter(|r| {
                    let v = ds.value(r, 0);
                    match cmp {
                        ThresholdCmp::Le => v <= exact,
                        ThresholdCmp::Lt => v < exact,
                        ThresholdCmp::Gt => v > exact,
                        ThresholdCmp::Ge => v >= exact,
                    }
                });
                assert_equiv(&ds, &fast, &model, what);
            }
        }
    }
}
