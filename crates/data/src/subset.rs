//! Word-packed, hash-consed row-set views into a [`Dataset`].
//!
//! Every training-set fragment in the pipeline — the shrinking set held by
//! the concrete learner `DTrace`, the base set `T` of an abstract element
//! `⟨T,n⟩`, each disjunct of the disjunctive domain — is a [`Subset`]: a
//! bitset over row ids packed into `u64` words, plus cached per-class
//! counts.
//!
//! The packed representation makes the set algebra the abstract domain
//! needs word-parallel: `|T₁ \ T₂|` (joins and the partial order), `∩`
//! (meets), `∪` (joins), and `⊆` are a handful of AND/OR/ANDNOT + popcount
//! passes over `ceil(|dataset| / 64)` words instead of linear merges over
//! index vectors. Per-class counts are recomputed by AND-popcount against
//! the dataset's per-class row bitmasks ([`Dataset::class_mask`]), keeping
//! `cprob`/`ent` (and their abstract versions) O(k). Every such pass
//! dispatches through the chunked vector kernels of [`crate::simd`]
//! (4×`u64` lanes under the default `simd` feature, with a bit-identical
//! scalar form for builds without it).
//!
//! # Hash-consing
//!
//! The payload (words + counts) lives behind an `Arc<SubsetRepr>` carrying
//! a **precomputed 64-bit content hash**, so:
//!
//! * `clone` is a reference-count bump — the disjunct frontier and the
//!   `bestSplit#` memo keys share a payload instead of copying its words;
//! * `Hash` writes the precomputed hash (O(1));
//! * `Eq` short-circuits on pointer identity (clones of one payload),
//!   rejects on hash inequality, and compares words only when the hashes
//!   agree — frontier deduplication and memo probes stop re-walking and
//!   re-copying word vectors.
//!
//! Payloads are not interned: equal sets built along different paths keep
//! separate allocations, and every consumer keys on content (DESIGN.md
//! §9.1).
//!
//! Iteration order is unchanged from the historical sorted-`Vec`
//! representation: [`Subset::iter`] yields row ids in strictly increasing
//! order, so counterexample minimality and every deterministic fold
//! downstream are bit-identical to the old backend
//! (pinned by `crates/data/tests/subset_equiv.rs`).
//!
//! The word vector is kept *canonical* — no trailing zero words — so
//! structural equality (`PartialEq`) coincides with set equality no matter
//! which operations produced the two sides.

use crate::{simd, ClassId, Dataset, RowId};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A threshold comparison against one feature, for
/// [`Subset::filter_cmp`]'s word-parallel restriction fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdCmp {
    /// `value ≤ τ`.
    Le,
    /// `value < τ`.
    Lt,
    /// `value > τ` (complement of [`ThresholdCmp::Le`]).
    Gt,
    /// `value ≥ τ` (complement of [`ThresholdCmp::Lt`]).
    Ge,
}

impl ThresholdCmp {
    /// Whether `v` satisfies the comparison against `tau`.
    #[inline]
    fn eval(self, v: f64, tau: f64) -> bool {
        match self {
            ThresholdCmp::Le => v <= tau,
            ThresholdCmp::Lt => v < tau,
            ThresholdCmp::Gt => v > tau,
            ThresholdCmp::Ge => v >= tau,
        }
    }

    /// `(strict, invert)` decomposition against the dataset's prefix
    /// masks: `Lt`/`Ge` query the strict (`<`) mask, and the two upper
    /// comparisons (`Gt`/`Ge`) take the complement of their lower dual.
    #[inline]
    fn mask_form(self) -> (bool, bool) {
        match self {
            ThresholdCmp::Le => (false, false),
            ThresholdCmp::Lt => (true, false),
            ThresholdCmp::Gt => (false, true),
            ThresholdCmp::Ge => (true, true),
        }
    }
}

/// The shared, immutable payload of a [`Subset`]: canonical words, cached
/// counts, and the precomputed content hash.
#[derive(Debug)]
struct SubsetRepr {
    /// Row bitset, 64 rows per word, canonical (no trailing zero words).
    words: Vec<u64>,
    /// Precomputed content hash over `words` and `class_counts`.
    hash: u64,
    /// Cached `Σ class_counts` (= total popcount of `words`).
    len: u32,
    class_counts: Vec<u32>,
}

/// FNV-1a over the words and class counts, with an extra avalanche mix so
/// single-bit set differences spread across the whole hash.
fn content_hash(words: &[u64], class_counts: &[u32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (words.len() as u64).wrapping_mul(PRIME);
    for &w in words {
        h = (h ^ w).wrapping_mul(PRIME);
        h ^= h >> 29;
    }
    for &c in class_counts {
        h = (h ^ u64::from(c)).wrapping_mul(PRIME);
    }
    h ^ (h >> 32)
}

/// A subset of a dataset's rows: a packed row bitset + per-class counts,
/// hash-consed behind an [`Arc`] (clone is a refcount bump; see the module
/// docs for the equality/hash fast paths).
///
/// A `Subset` does not borrow the [`Dataset`]; callers pass the dataset to
/// operations that need values, labels, or class masks. All subsets flowing
/// through one prover run refer to the same dataset.
#[derive(Debug, Clone)]
pub struct Subset {
    repr: Arc<SubsetRepr>,
}

impl PartialEq for Subset {
    fn eq(&self, other: &Self) -> bool {
        // Pointer identity (clones of one payload), then the precomputed hash
        // as a cheap reject; the word compare only runs on a collision or
        // a true match between distinct allocations.
        Arc::ptr_eq(&self.repr, &other.repr)
            || (self.repr.hash == other.repr.hash
                && self.repr.len == other.repr.len
                && self.repr.words == other.repr.words
                && self.repr.class_counts == other.repr.class_counts)
    }
}

impl Eq for Subset {}

impl Hash for Subset {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.repr.hash);
    }
}

/// Strips trailing zero words so equal sets are structurally equal.
fn trim(words: &mut Vec<u64>) {
    while words.last() == Some(&0) {
        words.pop();
    }
}

/// Per-class counts of a packed row set, by fused AND-popcount against
/// the dataset's class masks (`simd::and_popcount`).
fn counts_of_words(ds: &Dataset, words: &[u64]) -> Vec<u32> {
    (0..ds.n_classes())
        .map(|c| simd::and_popcount(&ds.class_mask(c as ClassId)[..words.len()], words))
        .collect()
}

/// Counted-ones cursor over a subset's rows, strictly ascending.
///
/// The cursor knows the subset's cardinality up front (it is an
/// [`ExactSizeIterator`], so gathers preallocate exactly), stops the
/// instant the last set bit has been yielded, and skips runs of dead
/// (all-zero) words through the chunked first-set kernel instead of
/// testing them one by one — sparse subsets iterate in time proportional
/// to their population, not their span.
#[derive(Debug, Clone)]
pub struct SubsetIter<'a> {
    words: &'a [u64],
    wi: usize,
    current: u64,
    remaining: u32,
}

impl Iterator for SubsetIter<'_> {
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
        if self.remaining == 0 {
            return None;
        }
        if self.current == 0 {
            let wi = simd::first_nonzero_word(self.words, self.wi + 1)
                .expect("remaining > 0 implies a later non-zero word");
            self.wi = wi;
            self.current = self.words[wi];
        }
        let tz = self.current.trailing_zeros();
        self.current &= self.current - 1;
        self.remaining -= 1;
        Some((self.wi as u32) * 64 + tz)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for SubsetIter<'_> {}

impl Subset {
    /// Seals a payload: trims to canonical form, computes the content
    /// hash, and wraps the parts in a fresh shared allocation. Every
    /// constructor and set operation bottoms out here.
    fn seal(mut words: Vec<u64>, len: u32, class_counts: Vec<u32>) -> Self {
        trim(&mut words);
        let hash = content_hash(&words, &class_counts);
        Subset {
            repr: Arc::new(SubsetRepr {
                words,
                hash,
                len,
                class_counts,
            }),
        }
    }

    /// The subset containing every **live** row of `ds` (a copy of the
    /// dataset's live-slot mask — on post-removal epochs the row ids are
    /// not dense, but the subset algebra never assumes they are).
    pub fn full(ds: &Dataset) -> Self {
        let words = ds.live_words().to_vec();
        Subset::seal(words, ds.len() as u32, ds.class_counts())
    }

    /// An empty subset shaped for `n_classes` classes.
    pub fn empty(n_classes: usize) -> Self {
        Subset::seal(Vec::new(), 0, vec![0; n_classes])
    }

    /// Builds a subset from arbitrary row ids (duplicates collapse into the
    /// same bit).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `ds` or names a dead slot.
    pub fn from_indices(ds: &Dataset, indices: Vec<RowId>) -> Self {
        let mut words: Vec<u64> = Vec::new();
        let mut class_counts = vec![0u32; ds.n_classes()];
        let mut len = 0u32;
        for &i in &indices {
            assert!(ds.is_live(i), "row id {i} out of bounds or not live");
            let w = i as usize / 64;
            if words.len() <= w {
                words.resize(w + 1, 0);
            }
            let bit = 1u64 << (i % 64);
            if words[w] & bit == 0 {
                words[w] |= bit;
                class_counts[ds.label(i) as usize] += 1;
                len += 1;
            }
        }
        Subset::seal(words, len, class_counts)
    }

    /// Number of rows in the subset (`|T|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.repr.len as usize
    }

    /// Whether the subset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.repr.len == 0
    }

    /// The row ids in ascending order, materialised. The packed backend no
    /// longer stores an index vector; callers that only need to walk the
    /// rows should prefer [`Subset::iter`].
    pub fn indices(&self) -> Vec<RowId> {
        self.iter().collect()
    }

    /// The packed word representation (64 rows per word, no trailing zero
    /// words). Cheap identity key for deduplication and differential tests.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.repr.words
    }

    /// The precomputed 64-bit content hash (over words and class counts).
    /// Equal sets always report equal hashes; the converse holds modulo
    /// 64-bit collisions, which `Eq` resolves by word compare.
    #[inline]
    pub fn content_hash(&self) -> u64 {
        self.repr.hash
    }

    /// Whether `self` and `other` share one hash-consed payload
    /// allocation (one is a clone of the other; implies equality).
    #[inline]
    pub fn shares_repr(&self, other: &Subset) -> bool {
        Arc::ptr_eq(&self.repr, &other.repr)
    }

    /// Per-class row counts (`cᵢ` in the paper's `cprob#`).
    #[inline]
    pub fn class_counts(&self) -> &[u32] {
        &self.repr.class_counts
    }

    /// Count of rows labelled `class`.
    #[inline]
    pub fn count_of(&self, class: ClassId) -> u32 {
        self.repr.class_counts[class as usize]
    }

    /// Number of classes this subset is shaped for.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.repr.class_counts.len()
    }

    /// Whether every row in the subset has the same label (vacuously true
    /// when empty). This is the concrete `ent(T) = 0` test.
    pub fn is_pure(&self) -> bool {
        self.repr.class_counts.iter().filter(|&&c| c > 0).count() <= 1
    }

    /// Iterator over the row ids, in strictly increasing order — a
    /// counted-ones cursor ([`SubsetIter`]) that yields exactly
    /// [`len`](Subset::len) rows and skips dead words.
    pub fn iter(&self) -> SubsetIter<'_> {
        SubsetIter {
            words: &self.repr.words,
            wi: 0,
            current: self.repr.words.first().copied().unwrap_or(0),
            remaining: self.repr.len,
        }
    }

    /// Whether `row` is in the subset.
    #[inline]
    pub fn contains(&self, row: RowId) -> bool {
        self.repr
            .words
            .get(row as usize / 64)
            .is_some_and(|w| w >> (row % 64) & 1 == 1)
    }

    /// Splits the subset by a row predicate: rows satisfying `keep` go left,
    /// the rest go right. This is the concrete `T↓φ / T↓¬φ` split. `keep` is
    /// invoked once per member row, in ascending row order.
    pub fn partition<F: FnMut(RowId) -> bool>(
        &self,
        ds: &Dataset,
        mut keep: F,
    ) -> (Subset, Subset) {
        let k = self.n_classes();
        let words = &self.repr.words;
        let mut yes = (vec![0u64; words.len()], 0u32, vec![0u32; k]);
        let mut no = yes.clone();
        for (wi, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let tz = w.trailing_zeros();
                w &= w - 1;
                let row = (wi * 64) as u32 + tz;
                let target = if keep(row) { &mut yes } else { &mut no };
                target.0[wi] |= 1u64 << tz;
                target.2[ds.label(row) as usize] += 1;
                target.1 += 1;
            }
        }
        (
            Subset::seal(yes.0, yes.1, yes.2),
            Subset::seal(no.0, no.1, no.2),
        )
    }

    /// Keeps only rows satisfying `keep` (the `T↓φ` half of
    /// [`Subset::partition`]).
    pub fn filter<F: FnMut(RowId) -> bool>(&self, ds: &Dataset, mut keep: F) -> Subset {
        let src = &self.repr.words;
        let mut words = vec![0u64; src.len()];
        let mut len = 0u32;
        let mut class_counts = vec![0u32; self.n_classes()];
        for (wi, &word) in src.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let tz = w.trailing_zeros();
                w &= w - 1;
                let row = (wi * 64) as u32 + tz;
                if keep(row) {
                    words[wi] |= 1u64 << tz;
                    class_counts[ds.label(row) as usize] += 1;
                    len += 1;
                }
            }
        }
        Subset::seal(words, len, class_counts)
    }

    /// Keeps only rows whose `feature` value satisfies `cmp` against
    /// `tau` — the threshold restriction `T↓φ` both learners bottom out
    /// in. Word-parallel when the dataset has a threshold index for the
    /// feature (one binary search + one AND/ANDNOT pass, with counts by
    /// mask popcount); falls back to the row-predicate [`Subset::filter`]
    /// on unindexed high-cardinality columns. Identical results either
    /// way (pinned in `crates/data/tests/subset_equiv.rs`).
    pub fn filter_cmp(&self, ds: &Dataset, feature: usize, tau: f64, cmp: ThresholdCmp) -> Subset {
        let (strict, invert) = cmp.mask_form();
        match ds.le_mask(feature, tau, strict) {
            Some(mask) => {
                let mut words = Vec::new();
                simd::masked_and(&self.repr.words, mask, invert, &mut words);
                let class_counts = counts_of_words(ds, &words);
                let len = class_counts.iter().sum();
                Subset::seal(words, len, class_counts)
            }
            None => self.filter(ds, |r| cmp.eval(ds.value(r, feature), tau)),
        }
    }

    /// Keeps only rows labelled `class` — the set `T'` of the paper's
    /// `pure(⟨T,n⟩, i)` operation (§4.7). Word-parallel: one AND pass
    /// against the dataset's class mask.
    pub fn filter_class(&self, ds: &Dataset, class: ClassId) -> Subset {
        let mut words = Vec::new();
        simd::and_words(&self.repr.words, ds.class_mask(class), &mut words);
        let count = simd::popcount(&words);
        let mut class_counts = vec![0u32; self.n_classes()];
        class_counts[class as usize] = count;
        Subset::seal(words, count, class_counts)
    }

    /// Removes the rows of `other` from `self` (set difference), used by the
    /// enumeration baseline to materialise elements of `Δn(T)`.
    pub fn difference(&self, ds: &Dataset, other: &Subset) -> Subset {
        let mut words = Vec::new();
        simd::andnot_words(&self.repr.words, &other.repr.words, &mut words);
        let class_counts = counts_of_words(ds, &words);
        let len = class_counts.iter().sum();
        Subset::seal(words, len, class_counts)
    }

    /// `|self \ other|`, one ANDNOT + popcount pass over the words. This is
    /// the `|T₁ \ T₂|` quantity in the abstract join (Definition 4.1) and
    /// the partial order (footnote 4).
    pub fn difference_len(&self, other: &Subset) -> usize {
        if self.shares_repr(other) {
            return 0;
        }
        simd::andnot_popcount(&self.repr.words, &other.repr.words) as usize
    }

    /// Whether `self ⊆ other` — O(words) with early exit (O(1) when the
    /// two sides share one payload).
    pub fn is_subset_of(&self, other: &Subset) -> bool {
        self.shares_repr(other) || simd::is_subset(&self.repr.words, &other.repr.words)
    }

    /// Set union (`T₁ ∪ T₂` in the abstract join): word-parallel OR with
    /// counts recomputed against the dataset's class masks.
    pub fn union(&self, ds: &Dataset, other: &Subset) -> Subset {
        let mut words = Vec::new();
        // OR of two canonical vectors keeps the longer one's top word
        // non-zero, so the seal's trim is a no-op here.
        simd::or_words(&self.repr.words, &other.repr.words, &mut words);
        let class_counts = counts_of_words(ds, &words);
        let len = class_counts.iter().sum();
        Subset::seal(words, len, class_counts)
    }

    /// Set intersection (`T₁ ∩ T₂` in the abstract meet, footnote 4):
    /// word-parallel AND.
    pub fn intersect(&self, ds: &Dataset, other: &Subset) -> Subset {
        let mut words = Vec::new();
        simd::and_words(&self.repr.words, &other.repr.words, &mut words);
        let class_counts = counts_of_words(ds, &words);
        let len = class_counts.iter().sum();
        Subset::seal(words, len, class_counts)
    }

    /// Approximate in-memory footprint in bytes (packed words + counts),
    /// used by the harness's memory-proxy accounting (DESIGN.md §4.1).
    /// Reported per view — clones sharing one payload each report the
    /// full payload size.
    pub fn approx_bytes(&self) -> usize {
        self.repr.words.len() * std::mem::size_of::<u64>()
            + self.repr.class_counts.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    /// 6 rows, 1 feature (= row value), labels 0,0,1,1,0,1.
    fn tiny() -> Dataset {
        let rows: Vec<(Vec<f64>, ClassId)> = [0, 0, 1, 1, 0, 1]
            .iter()
            .enumerate()
            .map(|(i, &l)| (vec![i as f64], l as ClassId))
            .collect();
        Dataset::from_rows(Schema::real(1, 2), &rows).unwrap()
    }

    #[test]
    fn full_and_counts() {
        let ds = tiny();
        let s = Subset::full(&ds);
        assert_eq!(s.len(), 6);
        assert_eq!(s.class_counts(), &[3, 3]);
        assert!(!s.is_pure());
        assert!(Subset::empty(2).is_pure());
    }

    #[test]
    fn from_indices_sorts_and_dedups() {
        let ds = tiny();
        let s = Subset::from_indices(&ds, vec![4, 1, 4, 0]);
        assert_eq!(s.indices(), &[0, 1, 4]);
        assert_eq!(s.class_counts(), &[3, 0]);
        assert!(s.is_pure());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_indices_rejects_out_of_bounds() {
        let ds = tiny();
        let _ = Subset::from_indices(&ds, vec![99]);
    }

    #[test]
    fn partition_splits_counts() {
        let ds = tiny();
        let s = Subset::full(&ds);
        let (lo, hi) = s.partition(&ds, |r| ds.value(r, 0) <= 2.0);
        assert_eq!(lo.indices(), &[0, 1, 2]);
        assert_eq!(hi.indices(), &[3, 4, 5]);
        assert_eq!(lo.class_counts(), &[2, 1]);
        assert_eq!(hi.class_counts(), &[1, 2]);
    }

    #[test]
    fn filter_class_is_pure() {
        let ds = tiny();
        let s = Subset::full(&ds);
        let zeros = s.filter_class(&ds, 0);
        assert_eq!(zeros.indices(), &[0, 1, 4]);
        assert!(zeros.is_pure());
        assert_eq!(zeros.count_of(0), 3);
        assert_eq!(zeros.count_of(1), 0);
    }

    #[test]
    fn set_algebra() {
        let ds = tiny();
        let a = Subset::from_indices(&ds, vec![0, 1, 2, 3]);
        let b = Subset::from_indices(&ds, vec![2, 3, 4, 5]);
        assert_eq!(a.difference_len(&b), 2);
        assert_eq!(b.difference_len(&a), 2);
        assert_eq!(a.union(&ds, &b).indices(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(a.intersect(&ds, &b).indices(), &[2, 3]);
        assert_eq!(a.difference(&ds, &b).indices(), &[0, 1]);
        assert!(a.intersect(&ds, &b).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert!(a.is_subset_of(&Subset::full(&ds)));
        // Counts stay consistent through the algebra.
        assert_eq!(a.union(&ds, &b).class_counts(), &[3, 3]);
        assert_eq!(a.intersect(&ds, &b).class_counts(), &[0, 2]);
    }

    #[test]
    fn contains_and_iter() {
        let ds = tiny();
        let s = Subset::from_indices(&ds, vec![1, 3, 5]);
        assert!(s.contains(3));
        assert!(!s.contains(2));
        assert!(!s.contains(1000), "out-of-range probes are simply absent");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn empty_edge_cases() {
        let ds = tiny();
        let e = Subset::empty(2);
        let f = Subset::full(&ds);
        assert_eq!(e.difference_len(&f), 0);
        assert_eq!(f.difference_len(&e), 6);
        assert!(e.is_subset_of(&f));
        assert_eq!(e.union(&ds, &f), f);
        assert_eq!(e.intersect(&ds, &f), e);
    }

    #[test]
    fn representation_is_canonical() {
        // However a set becomes empty (or loses its top rows), its word
        // vector is trimmed, so structural equality is set equality.
        let ds = tiny();
        let f = Subset::full(&ds);
        let emptied = f.filter(&ds, |_| false);
        assert_eq!(emptied, Subset::empty(2));
        assert!(emptied.words().is_empty());
        let low = f.filter(&ds, |r| r < 2);
        assert_eq!(low, Subset::from_indices(&ds, vec![0, 1]));
        assert_eq!(low.words().len(), 1);
        let (yes, no) = f.partition(&ds, |_| true);
        assert_eq!(yes, f);
        assert_eq!(no, Subset::empty(2));
        // Differences and intersections trim too.
        assert_eq!(f.difference(&ds, &f), Subset::empty(2));
        assert_eq!(f.intersect(&ds, &Subset::empty(2)), Subset::empty(2));
        assert_eq!(
            f.filter_class(&ds, 0).filter_class(&ds, 1),
            Subset::empty(2)
        );
    }

    #[test]
    fn hash_consing_clone_and_equality_fast_paths() {
        let ds = tiny();
        let a = Subset::from_indices(&ds, vec![0, 2, 4]);
        // Clone shares the payload: no new allocation, identical hash.
        let c = a.clone();
        assert!(a.shares_repr(&c));
        assert_eq!(a.content_hash(), c.content_hash());
        assert_eq!(a, c);
        // Equal sets built independently: equal value and hash, distinct
        // allocations.
        let b = Subset::from_indices(&ds, vec![4, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        assert!(!a.shares_repr(&b));
        // Distinct sets: (virtually always) distinct hashes, never equal.
        let d = Subset::from_indices(&ds, vec![0, 2, 5]);
        assert_ne!(a, d);
        // Hashing through the std machinery writes the precomputed hash.
        use std::collections::hash_map::DefaultHasher;
        let h = |s: &Subset| {
            let mut st = DefaultHasher::new();
            s.hash(&mut st);
            st.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn multi_word_sets() {
        // 130 rows span three words; exercise the word boundaries.
        let rows: Vec<(Vec<f64>, ClassId)> = (0..130)
            .map(|i| (vec![i as f64], (i % 2) as ClassId))
            .collect();
        let ds = Dataset::from_rows(Schema::real(1, 2), &rows).unwrap();
        let f = Subset::full(&ds);
        assert_eq!(f.words().len(), 3);
        assert_eq!(f.len(), 130);
        assert_eq!(f.class_counts(), &[65, 65]);
        let edges = Subset::from_indices(&ds, vec![0, 63, 64, 127, 128, 129]);
        assert_eq!(edges.indices(), &[0, 63, 64, 127, 128, 129]);
        assert_eq!(edges.len(), 6);
        assert!(edges.is_subset_of(&f));
        assert_eq!(f.difference_len(&edges), 124);
        let evens = f.filter(&ds, |r| r % 2 == 0);
        assert_eq!(evens.len(), 65);
        assert!(evens.is_pure());
        assert_eq!(evens, f.filter_class(&ds, 0));
        assert_eq!(evens.union(&ds, &f.filter_class(&ds, 1)), f);
    }
}
