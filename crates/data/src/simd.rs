//! Chunked word kernels for the packed [`Subset`](crate::Subset) backend.
//!
//! Every set operation the abstract domains bottom out in — AND, ANDNOT,
//! OR, popcount, subset test, first non-zero word — is a pass over `u64`
//! words. This module provides those passes in two interchangeable forms:
//!
//! * a **vector form** (compiled under the default `simd` cargo feature):
//!   the loop is restructured into explicit [`LANES`]-wide chunks with
//!   per-lane accumulators, the shape LLVM reliably turns into `u64x4`
//!   SIMD on any target with 256-bit vectors (and clean unrolled scalar
//!   code elsewhere);
//! * a **scalar form** that compiles everywhere: the only form of a
//!   `--no-default-features` build, and the reference the vector forms
//!   are tested against.
//!
//! # Soundness
//!
//! Both forms are pure bitwise/popcount arithmetic over the same words:
//! AND/ANDNOT/OR are lane-independent, and the only reassociated
//! reduction is a sum of `u32` popcounts, which is associative and
//! commutative on the naturals. The two forms therefore return
//! *bit-identical* results on every input — not merely close ones — so
//! routing `Subset` algebra, `AbstractSet::le` and `filter_cmp`'s mask
//! application through the dispatchers cannot change any ladder or
//! verdict (pinned by the vector-vs-scalar differential in
//! `crates/data/tests/subset_equiv.rs`).
//!
//! # Dispatch
//!
//! Each public kernel is decided at compile time: the vector form under
//! the `simd` feature, the scalar form without it. There is no runtime
//! switch and no state.

/// Lane width of the vector form: four `u64`s, one 256-bit register.
pub const LANES: usize = 4;

/// `Σ popcount(a[i] & b[i])` over two equal-length slices — the fused
/// AND-popcount behind per-class counts and `filter_class`.
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(feature = "simd")]
    {
        and_popcount_vector(a, b)
    }
    #[cfg(not(feature = "simd"))]
    {
        and_popcount_scalar(a, b)
    }
}

/// Scalar form of [`and_popcount`].
pub fn and_popcount_scalar(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones()).sum()
}

/// Vector form of [`and_popcount`].
#[cfg(feature = "simd")]
pub fn and_popcount_vector(a: &[u64], b: &[u64]) -> u32 {
    let split = a.len() - a.len() % LANES;
    let mut acc = [0u32; LANES];
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += (ca[l] & cb[l]).count_ones();
        }
    }
    acc.iter().sum::<u32>() + and_popcount_scalar(&a[split..], &b[split..])
}

/// `Σ popcount(a[i] & b[i] & c[i])` over three equal-length slices — a
/// boolean feature's left-side class count in the split walk
/// (`base ∧ le_mask ∧ class_mask`).
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length.
#[inline]
pub fn and3_popcount(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    debug_assert!(a.len() == b.len() && b.len() == c.len());
    #[cfg(feature = "simd")]
    {
        and3_popcount_vector(a, b, c)
    }
    #[cfg(not(feature = "simd"))]
    {
        and3_popcount_scalar(a, b, c)
    }
}

/// Scalar form of [`and3_popcount`].
pub fn and3_popcount_scalar(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    a.iter()
        .zip(b)
        .zip(c)
        .map(|((&x, &y), &z)| (x & y & z).count_ones())
        .sum()
}

/// Vector form of [`and3_popcount`].
#[cfg(feature = "simd")]
pub fn and3_popcount_vector(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    let split = a.len() - a.len() % LANES;
    let mut acc = [0u32; LANES];
    for ((ca, cb), cc) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
        .zip(c[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += (ca[l] & cb[l] & cc[l]).count_ones();
        }
    }
    acc.iter().sum::<u32>() + and3_popcount_scalar(&a[split..], &b[split..], &c[split..])
}

/// `Σ popcount(a[i] & !b[i])`, with `b` words beyond `b.len()` taken as
/// zero — `|a \ b|` for canonical (trailing-zero-trimmed) word vectors of
/// different lengths.
#[inline]
pub fn andnot_popcount(a: &[u64], b: &[u64]) -> u32 {
    #[cfg(feature = "simd")]
    {
        andnot_popcount_vector(a, b)
    }
    #[cfg(not(feature = "simd"))]
    {
        andnot_popcount_scalar(a, b)
    }
}

/// Scalar form of [`andnot_popcount`].
pub fn andnot_popcount_scalar(a: &[u64], b: &[u64]) -> u32 {
    let n = a.len().min(b.len());
    a[..n]
        .iter()
        .zip(&b[..n])
        .map(|(&x, &y)| (x & !y).count_ones())
        .sum::<u32>()
        + popcount_scalar(&a[n..])
}

/// Vector form of [`andnot_popcount`].
#[cfg(feature = "simd")]
pub fn andnot_popcount_vector(a: &[u64], b: &[u64]) -> u32 {
    let n = a.len().min(b.len());
    let split = n - n % LANES;
    let mut acc = [0u32; LANES];
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += (ca[l] & !cb[l]).count_ones();
        }
    }
    acc.iter().sum::<u32>()
        + a[split..n]
            .iter()
            .zip(&b[split..n])
            .map(|(&x, &y)| (x & !y).count_ones())
            .sum::<u32>()
        + popcount(&a[n..])
}

/// Total popcount of a word slice.
#[inline]
pub fn popcount(words: &[u64]) -> u32 {
    #[cfg(feature = "simd")]
    {
        popcount_vector(words)
    }
    #[cfg(not(feature = "simd"))]
    {
        popcount_scalar(words)
    }
}

/// Scalar form of [`popcount`].
pub fn popcount_scalar(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Vector form of [`popcount`].
#[cfg(feature = "simd")]
pub fn popcount_vector(words: &[u64]) -> u32 {
    let split = words.len() - words.len() % LANES;
    let mut acc = [0u32; LANES];
    for c in words[..split].chunks_exact(LANES) {
        for l in 0..LANES {
            acc[l] += c[l].count_ones();
        }
    }
    acc.iter().sum::<u32>() + popcount_scalar(&words[split..])
}

/// Whether `a[i] & !b[i] == 0` for every word of `a`, with `b` words
/// beyond `b.len()` taken as zero — the subset test `a ⊆ b` on canonical
/// word vectors. Early-exits per chunk on the first violating group.
#[inline]
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    #[cfg(feature = "simd")]
    {
        is_subset_vector(a, b)
    }
    #[cfg(not(feature = "simd"))]
    {
        is_subset_scalar(a, b)
    }
}

/// Scalar form of [`is_subset`].
pub fn is_subset_scalar(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    a[..n].iter().zip(&b[..n]).all(|(&x, &y)| x & !y == 0) && a[n..].iter().all(|&x| x == 0)
}

/// Vector form of [`is_subset`].
#[cfg(feature = "simd")]
pub fn is_subset_vector(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let split = n - n % LANES;
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        let mut escaped = 0u64;
        for l in 0..LANES {
            escaped |= ca[l] & !cb[l];
        }
        if escaped != 0 {
            return false;
        }
    }
    a[split..n]
        .iter()
        .zip(&b[split..n])
        .all(|(&x, &y)| x & !y == 0)
        && a[n..].iter().all(|&x| x == 0)
}

/// `out[i] = a[i] & b[i]` over the common prefix (`min` length result —
/// trailing words of the longer side AND to zero and are dropped by the
/// canonical trim downstream). `out` is cleared and refilled.
#[inline]
pub fn and_words(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    let n = a.len().min(b.len());
    out.clear();
    out.resize(n, 0);
    #[cfg(feature = "simd")]
    and_words_vector(&a[..n], &b[..n], out);
    #[cfg(not(feature = "simd"))]
    and_words_scalar(&a[..n], &b[..n], out);
}

/// Scalar form of [`and_words`] (equal-length slices).
pub fn and_words_scalar(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x & y;
    }
}

/// Vector form of [`and_words`] (equal-length slices).
#[cfg(feature = "simd")]
pub fn and_words_vector(a: &[u64], b: &[u64], out: &mut [u64]) {
    let split = a.len() - a.len() % LANES;
    for ((co, ca), cb) in out[..split]
        .chunks_exact_mut(LANES)
        .zip(a[..split].chunks_exact(LANES))
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            co[l] = ca[l] & cb[l];
        }
    }
    and_words_scalar(&a[split..], &b[split..], &mut out[split..]);
}

/// `out[i] = a[i] & !b[i]`, with `b` words beyond `b.len()` taken as
/// zero (those `a` words are copied through). `out` is cleared and
/// refilled to `a.len()`.
#[inline]
pub fn andnot_words(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    let n = a.len().min(b.len());
    out.clear();
    out.resize(a.len(), 0);
    #[cfg(feature = "simd")]
    andnot_words_vector(&a[..n], &b[..n], &mut out[..n]);
    #[cfg(not(feature = "simd"))]
    andnot_words_scalar(&a[..n], &b[..n], &mut out[..n]);
    out[n..].copy_from_slice(&a[n..]);
}

/// Scalar form of [`andnot_words`] (equal-length slices).
pub fn andnot_words_scalar(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x & !y;
    }
}

/// Vector form of [`andnot_words`] (equal-length slices).
#[cfg(feature = "simd")]
pub fn andnot_words_vector(a: &[u64], b: &[u64], out: &mut [u64]) {
    let split = a.len() - a.len() % LANES;
    for ((co, ca), cb) in out[..split]
        .chunks_exact_mut(LANES)
        .zip(a[..split].chunks_exact(LANES))
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            co[l] = ca[l] & !cb[l];
        }
    }
    andnot_words_scalar(&a[split..], &b[split..], &mut out[split..]);
}

/// `out[i] = a[i] | b[i]`, with the shorter side zero-extended (`max`
/// length result). `out` is cleared and refilled.
#[inline]
pub fn or_words(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let n = short.len();
    out.clear();
    out.resize(long.len(), 0);
    #[cfg(feature = "simd")]
    or_words_vector(&long[..n], short, &mut out[..n]);
    #[cfg(not(feature = "simd"))]
    or_words_scalar(&long[..n], short, &mut out[..n]);
    out[n..].copy_from_slice(&long[n..]);
}

/// Scalar form of [`or_words`] (equal-length slices).
pub fn or_words_scalar(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x | y;
    }
}

/// Vector form of [`or_words`] (equal-length slices).
#[cfg(feature = "simd")]
pub fn or_words_vector(a: &[u64], b: &[u64], out: &mut [u64]) {
    let split = a.len() - a.len() % LANES;
    for ((co, ca), cb) in out[..split]
        .chunks_exact_mut(LANES)
        .zip(a[..split].chunks_exact(LANES))
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            co[l] = ca[l] | cb[l];
        }
    }
    or_words_scalar(&a[split..], &b[split..], &mut out[split..]);
}

/// `out[i] = words[i] & mask[i]` (or `& !mask[i]` when `invert`), with
/// `mask` words beyond `mask.len()` taken as zero — the word-parallel
/// application of a prefix threshold mask in `filter_cmp`. `out` is
/// cleared and refilled to `words.len()`.
#[inline]
pub fn masked_and(words: &[u64], mask: &[u64], invert: bool, out: &mut Vec<u64>) {
    if invert {
        andnot_words(words, mask, out);
    } else {
        and_words(words, mask, out);
        // `and_words` truncates to the common prefix; a masked AND keeps
        // `words.len()` (the excess ANDs with an absent mask word = 0).
        out.resize(words.len(), 0);
    }
}

/// Index of the first non-zero word at or after `from`, if any — the
/// skip-ahead behind the counted-ones cursor ([`Subset::iter`]'s dead
/// word skipping).
///
/// [`Subset::iter`]: crate::Subset::iter
#[inline]
pub fn first_nonzero_word(words: &[u64], from: usize) -> Option<usize> {
    #[cfg(feature = "simd")]
    {
        first_nonzero_word_vector(words, from)
    }
    #[cfg(not(feature = "simd"))]
    {
        first_nonzero_word_scalar(words, from)
    }
}

/// Scalar form of [`first_nonzero_word`].
pub fn first_nonzero_word_scalar(words: &[u64], from: usize) -> Option<usize> {
    words
        .get(from..)?
        .iter()
        .position(|&w| w != 0)
        .map(|i| from + i)
}

/// Vector form of [`first_nonzero_word`]: ORs four words at a time and
/// only bisects a group once it is known to contain a set bit.
#[cfg(feature = "simd")]
pub fn first_nonzero_word_vector(words: &[u64], from: usize) -> Option<usize> {
    let tail = words.get(from..)?;
    let split = tail.len() - tail.len() % LANES;
    for (ci, c) in tail[..split].chunks_exact(LANES).enumerate() {
        if c.iter().any(|&w| w != 0) {
            let off = ci * LANES + c.iter().position(|&w| w != 0).unwrap();
            return Some(from + off);
        }
    }
    tail[split..]
        .iter()
        .position(|&w| w != 0)
        .map(|i| from + split + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_with_naive_semantics() {
        // Lengths straddling the lane width, incl. 0 and non-multiples.
        let a: Vec<u64> = (0..11)
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let b: Vec<u64> = (0..7)
            .map(|i| !(i as u64) ^ 0x0123_4567_89ab_cdef)
            .collect();
        for alen in 0..=a.len() {
            for blen in 0..=b.len() {
                let (x, y) = (&a[..alen], &b[..blen]);
                let at = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
                let naive_andnot: u32 =
                    (0..alen).map(|i| (at(x, i) & !at(y, i)).count_ones()).sum();
                assert_eq!(andnot_popcount(x, y), naive_andnot);
                assert_eq!(
                    is_subset(x, y),
                    (0..alen).all(|i| at(x, i) & !at(y, i) == 0)
                );
                let mut out = Vec::new();
                andnot_words(x, y, &mut out);
                assert_eq!(
                    out,
                    (0..alen).map(|i| at(x, i) & !at(y, i)).collect::<Vec<_>>()
                );
                or_words(x, y, &mut out);
                let n = alen.max(blen);
                assert_eq!(out, (0..n).map(|i| at(x, i) | at(y, i)).collect::<Vec<_>>());
                masked_and(x, y, false, &mut out);
                assert_eq!(
                    out,
                    (0..alen).map(|i| at(x, i) & at(y, i)).collect::<Vec<_>>()
                );
                masked_and(x, y, true, &mut out);
                assert_eq!(
                    out,
                    (0..alen).map(|i| at(x, i) & !at(y, i)).collect::<Vec<_>>()
                );
            }
            let x = &a[..alen];
            assert_eq!(popcount(x), x.iter().map(|w| w.count_ones()).sum::<u32>());
            assert_eq!(and_popcount(x, x), popcount(x));
            let y: Vec<u64> = x.iter().map(|w| w.rotate_left(7)).collect();
            assert_eq!(
                and3_popcount(x, &y, &a[a.len() - alen..]),
                (0..alen)
                    .map(|i| (x[i] & y[i] & a[a.len() - alen + i]).count_ones())
                    .sum::<u32>()
            );
        }
    }

    #[test]
    fn and_in_place_and_first_nonzero() {
        let acc = vec![!0u64; 9];
        let bits: Vec<u64> = (0..9).map(|i| 1u64 << (i * 7)).collect();
        let mut out = Vec::new();
        and_words(&acc, &bits, &mut out);
        assert_eq!(out, bits);
        // Dead-word skipping, across a lane boundary and past the end.
        let mut sparse = vec![0u64; 10];
        assert_eq!(first_nonzero_word(&sparse, 0), None);
        sparse[6] = 8;
        assert_eq!(first_nonzero_word(&sparse, 0), Some(6));
        assert_eq!(first_nonzero_word(&sparse, 6), Some(6));
        assert_eq!(first_nonzero_word(&sparse, 7), None);
        assert_eq!(first_nonzero_word(&sparse, 99), None);
        let wi = first_nonzero_word(&sparse, 0).unwrap();
        assert_eq!(wi * 64 + sparse[wi].trailing_zeros() as usize, 6 * 64 + 3);
    }
}
