//! Order statistics for the reported timings.

/// The median of `xs` (mean of the middle pair for an even count; 0 for
/// an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Candidate tail percentiles, in permille, highest first.
const TAIL_PERMILLE: [u64; 7] = [999, 990, 980, 950, 900, 750, 500];

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in percent (e.g. 99.0).
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank percentile `permille / 10` of `xs`.
pub fn percentile(xs: &[f64], permille: u64) -> Percentile {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // rank = ceil(p * n) in integers, so 99% of 2000 is exactly 1980.
    let rank = ((permille * n as u64).div_ceil(1000) as usize).clamp(1, n.max(1));
    Percentile {
        pct: permille as f64 / 10.0,
        value: v.get(rank - 1).copied().unwrap_or(0.0),
        samples: n,
        beyond: n.saturating_sub(rank),
    }
}

/// The highest percentile of `xs` with at least [`MIN_BEYOND`] samples
/// beyond it; the median when even that has fewer.
pub fn tail(xs: &[f64]) -> Percentile {
    TAIL_PERMILLE
        .iter()
        .map(|&p| percentile(xs, p))
        .find(|p| p.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| percentile(xs, 500))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 2000 samples: p99.9 has 2 beyond, p99 has 20 — p99 is reported.
        let t = tail(&ramp(2000));
        assert_eq!(
            (t.pct, t.value, t.samples, t.beyond),
            (99.0, 1980.0, 2000, 20)
        );
        // 1000 samples: p99 has exactly 10 beyond.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 has 9 beyond, so p98 is reported.
        let t = tail(&ramp(999));
        assert_eq!((t.pct, t.beyond), (98.0, 19));
    }

    #[test]
    fn small_samples_step_down_the_ladder() {
        // 339 samples (3 ladders of 113 points): p95 has 16 beyond.
        let t = tail(&ramp(339));
        assert_eq!((t.pct, t.samples, t.beyond), (95.0, 339, 16));
        // 30 samples: p75 has 7 beyond, p50 has 15.
        let t = tail(&ramp(30));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 15.0, 15));
        // 5 samples: nothing qualifies, the median is reported with its
        // true count beyond.
        let t = tail(&ramp(5));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 3.0, 2));
    }

    #[test]
    fn every_reported_tail_has_ten_beyond_once_possible() {
        for n in 20..3000 {
            let t = tail(&ramp(n));
            assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
            // The value really has `beyond` samples above it.
            let above = ramp(n).iter().filter(|&&x| x > t.value).count();
            assert_eq!(above, t.beyond, "n={n}");
        }
    }
}
