#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The binaries in `src/bin/` print the same rows/series the paper
//! reports; see `DESIGN.md` §3 for the experiment index. Criterion-style
//! micro-benchmarks live in `benches/`; `benches/parallel_sweep.rs`
//! additionally snapshots 1-vs-N-thread sweep wall-clock to
//! `BENCH_sweep.json` for the performance trajectory.
//!
//! Two harness modules back the workload-corpus CI surface (DESIGN.md
//! §8): [`matrix`] shards the scenario × threat × domain grid of
//! `antidote-scenarios` and emits `BENCH_<scenario>.json` /
//! `BENCH_matrix.json`, and [`perf`] implements the perf-regression
//! gate (`bin/perfgate.rs`) that pins `BENCH_sweep.json`'s counters.

pub mod matrix;
pub mod perf;

use antidote_core::{sweep, DomainKind, SweepConfig, SweepPoint};
use antidote_data::{Benchmark, Dataset, Scale};
use std::time::Duration;

/// Common options shared by the figure binaries, parsed from `argv`.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Paper-scale datasets and timeouts (`--full`) versus laptop scale.
    pub full: bool,
    /// Test points per dataset (fewer = faster).
    pub points: usize,
    /// Per-instance timeout.
    pub timeout: Duration,
    /// Depths to evaluate.
    pub depths: Vec<usize>,
    /// Dataset selector for the per-dataset binaries.
    pub dataset: Option<Benchmark>,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            full: false,
            points: 12,
            timeout: Duration::from_secs(2),
            depths: vec![1, 2, 3, 4],
            dataset: None,
            seed: 0,
        }
    }
}

impl HarnessOptions {
    /// Parses harness flags (`--full`, `--points K`, `--timeout SECS`,
    /// `--depths 1,2`, `--dataset id`, `--seed S`). Unknown flags abort
    /// with a message.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments — these are
    /// developer-facing binaries.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> HarnessOptions {
        let mut opts = HarnessOptions::default();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match arg.as_str() {
                "--full" => {
                    opts.full = true;
                    opts.points = 100;
                    opts.timeout = Duration::from_secs(3600);
                }
                "--points" => opts.points = value("--points").parse().expect("--points: integer"),
                "--timeout" => {
                    opts.timeout =
                        Duration::from_secs(value("--timeout").parse().expect("--timeout: secs"))
                }
                "--depths" => {
                    opts.depths = value("--depths")
                        .split(',')
                        .map(|d| d.parse().expect("--depths: comma-separated integers"))
                        .collect()
                }
                "--dataset" => {
                    let id = value("--dataset");
                    opts.dataset = Some(
                        Benchmark::from_id(&id).unwrap_or_else(|| panic!("unknown dataset '{id}'")),
                    );
                }
                "--seed" => opts.seed = value("--seed").parse().expect("--seed: integer"),
                other => panic!("unknown flag '{other}'"),
            }
        }
        opts
    }

    /// The evaluation scale implied by `--full`.
    pub fn scale(&self) -> Scale {
        if self.full {
            Scale::Paper
        } else {
            Scale::Small
        }
    }

    /// Loads a benchmark's `(train, test)` pair at the configured scale
    /// and truncates the test side to `points` rows.
    pub fn load(&self, bench: Benchmark) -> (Dataset, Vec<Vec<f64>>) {
        let (train, test) = bench.load(self.scale(), self.seed);
        let points: Vec<Vec<f64>> = test
            .rows()
            .take(self.points)
            .map(|r| test.row_values(r))
            .collect();
        (train, points)
    }
}

/// One (domain, depth) series of a detail figure.
#[derive(Debug, Clone)]
pub struct FigureSeries {
    /// The domain the series was measured with.
    pub domain: DomainKind,
    /// The tree depth.
    pub depth: usize,
    /// Ladder points, ascending in `n`.
    pub points: Vec<SweepPoint>,
}

/// Runs the §6.1 ladder for one (dataset, depth, domain) cell.
pub fn run_series(
    train: &Dataset,
    xs: &[Vec<f64>],
    depth: usize,
    domain: DomainKind,
    timeout: Duration,
) -> FigureSeries {
    let cfg = SweepConfig {
        depth,
        domain,
        timeout: Some(timeout),
        binary_search: true,
        // The figure benches reproduce the paper's measurements, where
        // every probe certifies from scratch: per-rung times/memory must
        // reflect full certification cost, not cache-resumed probes.
        cache: false,
        ..SweepConfig::default()
    };
    FigureSeries {
        domain,
        depth,
        points: sweep(train, xs, &cfg),
    }
}

/// Merges two ladders by taking, at each probed `n`, the union success
/// count — the paper's Figure 6 counts an instance verified if *either*
/// domain proves it (two provers "run in parallel", §6.2). Counts are
/// approximated by the max of the two (the disjunctive domain's successes
/// are a superset of Box's in practice).
pub fn union_series(a: &[SweepPoint], b: &[SweepPoint]) -> Vec<(usize, usize, usize)> {
    let mut ns: Vec<usize> = a.iter().map(|p| p.n).chain(b.iter().map(|p| p.n)).collect();
    ns.sort_unstable();
    ns.dedup();
    ns.into_iter()
        .map(|n| {
            let va = verified_at(a, n);
            let vb = verified_at(b, n);
            (n, va.max(vb), a.first().map_or(0, |p| p.total_points))
        })
        .collect()
}

/// Verified count at budget `n`, reading the ladder conservatively: an
/// exact probe is used as-is; a missing budget inherits the next *higher*
/// recorded probe (a sound lower bound, since verified counts are
/// non-increasing in `n`). This keeps the union series monotone even when
/// the two domains probed different budgets.
fn verified_at(series: &[SweepPoint], n: usize) -> usize {
    if let Some(exact) = series.iter().find(|p| p.n == n) {
        return exact.verified;
    }
    series.iter().find(|p| p.n > n).map_or(0, |p| p.verified)
}

/// Renders a duration for the figure tables.
pub fn fmt_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.1}s")
    }
}

/// Renders the memory proxy in MB.
pub fn fmt_mem(bytes: usize) -> String {
    format!("{:.1}MB", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_parse() {
        let o = HarnessOptions::parse(argv("--points 5 --timeout 1 --depths 1,2 --seed 9"));
        assert_eq!(o.points, 5);
        assert_eq!(o.timeout, Duration::from_secs(1));
        assert_eq!(o.depths, vec![1, 2]);
        assert_eq!(o.seed, 9);
        assert!(!o.full);
        let o = HarnessOptions::parse(argv("--full --dataset wdbc"));
        assert!(o.full);
        assert_eq!(o.dataset, Some(Benchmark::Wdbc));
        assert_eq!(o.scale(), Scale::Paper);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = HarnessOptions::parse(argv("--bogus"));
    }

    #[test]
    fn run_series_smoke() {
        let o = HarnessOptions {
            points: 3,
            ..HarnessOptions::default()
        };
        let (train, xs) = o.load(Benchmark::Iris);
        let s = run_series(&train, &xs, 2, DomainKind::Box, Duration::from_secs(2));
        assert_eq!(s.depth, 2);
        assert!(!s.points.is_empty() || xs.is_empty());
    }

    #[test]
    fn union_takes_max() {
        use antidote_core::SweepPoint;
        let mk = |n: usize, v: usize| SweepPoint {
            n,
            attempted: 5,
            verified: v,
            total_points: 5,
            avg_time: Duration::ZERO,
            avg_peak_bytes: 0,
            timeouts: 0,
            budget_exhausted: 0,
        };
        let a = vec![mk(1, 3), mk(2, 1)];
        let b = vec![mk(1, 2), mk(2, 2), mk(4, 1)];
        let u = union_series(&a, &b);
        assert_eq!(u, vec![(1, 3, 5), (2, 2, 5), (4, 1, 5)]);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(Duration::from_millis(5)), "5.0ms");
        assert_eq!(fmt_time(Duration::from_secs(2)), "2.0s");
        assert_eq!(fmt_mem(2_500_000), "2.5MB");
    }
}
