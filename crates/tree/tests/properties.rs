//! Property tests tying the concrete learner's pieces together on random
//! datasets: the walk-based best split must match brute force, the full
//! tree must agree with the trace-based learner everywhere, and learned
//! trees must stay well-formed.

use antidote_data::{ClassId, Dataset, DatasetDelta, Schema, Subset};
use antidote_tree::dtrace::dtrace;
use antidote_tree::learner::learn_tree;
use antidote_tree::predicate::candidate_predicates;
use antidote_tree::split::{best_split, score_split};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random dataset of `2..=max_rows` rows on a small grid (duplicate
/// values and label ties are the interesting cases). About half are
/// boolean (`Schema::boolean`, 0/1 values), whose split counts come from
/// masked popcounts instead of a row walk.
fn random_dataset(seed: u64, max_rows: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.random_range(2..=max_rows);
    let d = rng.random_range(1..=3usize);
    let k = rng.random_range(2..=3usize);
    let boolean = rng.random_range(0..2) == 0;
    let grid = if boolean { 2 } else { 6 };
    let rows: Vec<(Vec<f64>, ClassId)> = (0..len)
        .map(|_| {
            (
                (0..d).map(|_| rng.random_range(0..grid) as f64).collect(),
                rng.random_range(0..k) as ClassId,
            )
        })
        .collect();
    let schema = if boolean {
        Schema::boolean(d, k)
    } else {
        Schema::real(d, k)
    };
    Dataset::from_rows(schema, &rows).expect("valid rows")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The walk-based bestSplit equals arg-min over explicitly scored
    /// candidates (`candidate_predicates` + `score_split`, which share no
    /// code with the walk), with identical tie-breaking: on the full set,
    /// on random dense (about 1 row in 3) and sparse (about 1 in 16)
    /// subsets, and on the dataset after a removal delta, whose threshold
    /// masks are bit-patched. Up to 160 rows span three mask words.
    #[test]
    fn best_split_matches_brute_force(seed in 0u64..1_000_000) {
        let ds = random_dataset(seed, 160);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
        ds.warm_indexes();
        let mut delta = DatasetDelta::new();
        for r in 0..ds.len() as u32 - 1 {
            if rng.random_range(0..4) == 0 {
                delta.remove(r);
            }
        }
        let after = ds.apply(&delta).expect("at least one row stays");
        for ds in [&ds, &after] {
            for keep_one_in in [1u32, 3, 16] {
                let subset = Subset::from_indices(
                    ds,
                    ds.rows().filter(|_| rng.random_range(0..keep_one_in) == 0).collect(),
                );
                if subset.is_empty() {
                    continue;
                }
                let walk = best_split(ds, &subset);
                let brute = candidate_predicates(ds, &subset)
                    .into_iter()
                    .map(|p| (p, score_split(ds, &subset, &p)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                match (walk, brute) {
                    (None, None) => {}
                    (Some(s), Some((bp, bs))) => {
                        prop_assert_eq!(s.predicate, bp, "1 in {}, epoch {}", keep_one_in, ds.epoch());
                        prop_assert!((s.score - bs).abs() < 1e-9);
                    }
                    (s, b) => prop_assert!(false, "walk {s:?} vs brute {b:?}"),
                }
            }
        }
    }

    /// predict() always agrees with the trace-based learner (§3.3: DTrace
    /// computes exactly the trace the input traverses in the full tree).
    #[test]
    fn tree_predict_equals_dtrace(seed in 0u64..1_000_000, depth in 0usize..4) {
        let ds = random_dataset(seed, 24);
        let full = Subset::full(&ds);
        let tree = learn_tree(&ds, &full, depth);
        for r in 0..ds.len() as u32 {
            let x = ds.row_values(r);
            prop_assert_eq!(tree.predict(&x), dtrace(&ds, &full, &x, depth).label);
        }
        // Also off-grid inputs (not equal to any training value).
        let probe: Vec<f64> = (0..ds.n_features()).map(|f| 0.5 + f as f64).collect();
        prop_assert_eq!(tree.predict(&probe), dtrace(&ds, &full, &probe, depth).label);
    }

    /// Every learned tree is well-formed: each input satisfies exactly one
    /// trace (§3.2), and the number of traces equals the number of leaves.
    #[test]
    fn trees_are_well_formed(seed in 0u64..1_000_000, depth in 0usize..4) {
        let ds = random_dataset(seed, 24);
        let tree = learn_tree(&ds, &Subset::full(&ds), depth);
        let traces = tree.traces();
        prop_assert_eq!(traces.len(), tree.n_leaves());
        prop_assert!(tree.depth() <= depth);
        for r in 0..ds.len() as u32 {
            let x = ds.row_values(r);
            let matching = traces
                .iter()
                .filter(|t| t.predicates.iter().all(|(p, pol)| p.eval(&x) == *pol))
                .count();
            prop_assert_eq!(matching, 1);
        }
    }

    /// Splitting never increases weighted impurity: score(T, bestSplit(T))
    /// ≤ |T| · ent(T). (Greedy progress — why the learner terminates with
    /// useful leaves.)
    #[test]
    fn best_split_never_hurts(seed in 0u64..1_000_000) {
        let ds = random_dataset(seed, 24);
        let full = Subset::full(&ds);
        if let Some(choice) = best_split(&ds, &full) {
            let parent = antidote_tree::split::weighted_gini(full.class_counts());
            prop_assert!(choice.score <= parent + 1e-9,
                "split score {} exceeds parent impurity {}", choice.score, parent);
        }
    }

    /// The final fragment of a dtrace always contains the rows that agree
    /// with the input on every predicate of the trace.
    #[test]
    fn dtrace_fragment_is_trace_consistent(seed in 0u64..1_000_000, depth in 1usize..4) {
        let ds = random_dataset(seed, 24);
        let full = Subset::full(&ds);
        let x = ds.row_values(0);
        let r = dtrace(&ds, &full, &x, depth);
        for row in r.final_set.iter() {
            for step in &r.steps {
                prop_assert_eq!(
                    step.predicate.eval_row(&ds, row),
                    step.satisfied,
                    "row {} disagrees with trace step {}",
                    row,
                    step.predicate
                );
            }
        }
        prop_assert!(!r.final_set.is_empty());
    }
}
