//! Drift re-certification benchmark: cold §6.1 sweep versus incremental
//! re-certification after a 1%-row pure-removal mutation of the stock
//! 200-row blob config, with a machine-readable `BENCH_drift.json`
//! snapshot for the performance trajectory.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p antidote-bench --bench drift
//!   [-- --points K] [-- --per-class C] [-- --depth D] [-- --reps R]
//! ```
//!
//! Per rep the bench runs three ladders over the same mutation: the cold
//! epoch-0 sweep, the warm epoch-1 sweep behind `CertCache::transfer`,
//! and the same epoch-1 sweep from a cold cache (the `--no-transfer`
//! regime). It asserts the two epoch-1 ladders are bitwise identical —
//! the transfer changes cost, never verdicts — that certificates
//! actually transferred, and that the warm sweep's abstract-run count
//! (certify calls plus incremental cache resumes) is at most 25% of the
//! cold sweep's. Counters are deterministic and sequential; timings are
//! best-of-reps and stripped by CI's artifact diff.

use antidote_core::engine::ExecContext;
use antidote_core::{
    sweep_cached, CertCache, DomainKind, MetricsSnapshot, SweepConfig, SweepPoint,
};
use antidote_data::synth::{gaussian_blobs, BlobSpec};
use antidote_data::Dataset;
use antidote_scenarios::MutationScript;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Options {
    points: usize,
    per_class: usize,
    depth: usize,
    reps: usize,
}

impl Options {
    fn parse() -> Options {
        let mut opts = Options {
            points: 32,
            per_class: 100,
            depth: 2,
            reps: 3,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("{name} needs an integer value"))
            };
            match arg.as_str() {
                "--points" => opts.points = value("--points").max(2),
                "--per-class" => opts.per_class = value("--per-class").max(10),
                "--depth" => opts.depth = value("--depth"),
                "--reps" => opts.reps = value("--reps").max(1),
                "--bench" => {} // passed by `cargo bench`
                other => panic!("unknown flag '{other}'"),
            }
        }
        opts
    }
}

/// The stock 200-row config: the same two separated 2-D Gaussian classes
/// `parallel_sweep` times, so the cold ladder here is directly comparable
/// to the static-sweep artifact.
fn dataset(per_class: usize) -> Dataset {
    gaussian_blobs(
        &BlobSpec {
            means: vec![vec![0.0, 0.0], vec![10.0, 10.0]],
            stds: vec![vec![1.5, 1.5], vec![1.5, 1.5]],
            per_class,
            quantum: Some(0.1),
        },
        7,
    )
}

/// Certified-population probes: deterministic points inside the two
/// class clusters. A drift monitor re-checks deployments it certified,
/// so unlike `parallel_sweep`'s boundary-crossing grid (which charts the
/// frontier, undecidable points included), these are inputs the prover
/// can actually certify at the operating budget — the population whose
/// certificates are worth carrying across epochs. Offsets use integer
/// arithmetic only, so the probe set is bit-identical on every host.
fn test_points(k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|i| {
            let (cx, cy) = if i % 2 == 0 { (0.0, 0.0) } else { (10.0, 10.0) };
            let dx = ((i * 37) % 13) as f64 / 13.0 - 0.5;
            let dy = ((i * 53) % 17) as f64 / 17.0 - 0.5;
            vec![cx + 2.4 * dx, cy + 2.4 * dy]
        })
        .collect()
}

/// The verdict-relevant projection of a ladder (timings excluded).
fn ladder_key(points: &[SweepPoint]) -> Vec<(usize, usize, usize)> {
    points
        .iter()
        .map(|p| (p.n, p.attempted, p.verified))
        .collect()
}

fn main() {
    let opts = Options::parse();
    let ds0 = dataset(opts.per_class);
    let xs = test_points(opts.points);
    // Deployment-budget ladders rather than the full frontier sweep
    // (which stays `parallel_sweep`'s job): drift re-certification
    // answers "is everything still robust at the operating budget?"
    // after each mutation. The cold epoch certifies with removal slack —
    // its ladder tops out at budget + slack — so a `Robust(18)` point
    // still transfers a bound covering the whole budget-16 warm ladder
    // after two rows vanish; without the margin, every surviving point's
    // recorded bound equals the top rung exactly and the transfer
    // (bound − removals) can never cover it.
    const BUDGET: usize = 16;
    const SLACK: usize = 2;
    let base_cfg = SweepConfig {
        depth: opts.depth,
        domain: DomainKind::Disjuncts,
        timeout: None,
        threads: 1,
        ..SweepConfig::default()
    };
    let cold_cfg = SweepConfig {
        max_n: Some(BUDGET + SLACK),
        ..base_cfg.clone()
    };
    let warm_cfg = SweepConfig {
        max_n: Some(BUDGET),
        ..base_cfg
    };

    // The 1%-row mutation: one pure-removal delta over ⌈1%⌉ of the live
    // rows, generated deterministically so every CI run replays the same
    // drift.
    let deltas = MutationScript::removal(1, 0.01, 0).generate(&ds0);
    let (ds1, summary) = ds0.apply_summarized(&deltas[0]).expect("valid script");
    println!(
        "# drift: |T| = {} -> {} ({} row(s) removed), {} test points, depth {}, best of {} reps",
        ds0.len(),
        ds1.len(),
        summary.removed.len(),
        xs.len(),
        opts.depth,
        opts.reps
    );

    let mut t_cold = Duration::MAX;
    let mut t_warm = Duration::MAX;
    let mut t_warm_no_transfer = Duration::MAX;
    let mut cold_ladder = Vec::new();
    let mut warm_ladder = Vec::new();
    let mut cold = MetricsSnapshot::default();
    let mut warm = MetricsSnapshot::default();
    for _ in 0..opts.reps {
        // Cold epoch-0 sweep from a fresh cache.
        let ctx = ExecContext::new().threads(1);
        let cache0 = CertCache::for_dataset(&ds0, xs.len());
        let t = Instant::now();
        cold_ladder = sweep_cached(&ds0, &xs, &cold_cfg, &ctx, &cache0);
        t_cold = t_cold.min(t.elapsed());
        cold = ctx.metrics().snapshot();

        // Warm epoch-1 sweep behind the certificate transfer.
        let ctx = ExecContext::new().threads(1);
        let cache1 = cache0.transfer(&summary, &ds1, ctx.metrics());
        let t = Instant::now();
        warm_ladder = sweep_cached(&ds1, &xs, &warm_cfg, &ctx, &cache1);
        t_warm = t_warm.min(t.elapsed());
        warm = ctx.metrics().snapshot();

        // The same epoch-1 sweep from a cold cache (--no-transfer).
        let ctx = ExecContext::new().threads(1);
        let cache_off = CertCache::for_dataset(&ds1, xs.len());
        let t = Instant::now();
        let off_ladder = sweep_cached(&ds1, &xs, &warm_cfg, &ctx, &cache_off);
        t_warm_no_transfer = t_warm_no_transfer.min(t.elapsed());
        assert_eq!(
            ladder_key(&warm_ladder),
            ladder_key(&off_ladder),
            "transferred and cold re-certification must agree on every verdict"
        );
    }

    assert!(
        warm.cache_transfers > 0,
        "a pure-removal delta must transfer certificates ({summary:?})"
    );
    let (cold_runs, warm_runs) = (cold.abstract_runs(), warm.abstract_runs());
    assert!(
        warm_runs * 4 <= cold_runs,
        "incremental re-certification must cost <= 25% of the cold sweep \
         ({warm_runs} vs {cold_runs} abstract runs)"
    );
    println!(
        "cold sweep: {t_cold:?} ({cold_runs} abstract runs); warm re-certification: {t_warm:?} \
         ({warm_runs} abstract runs, {:.1}% of cold); no-transfer: {t_warm_no_transfer:?}",
        100.0 * warm_runs as f64 / cold_runs as f64
    );
    println!(
        "transfer: {} certificate(s) carried, {} invalidated; warm ladder identical: yes",
        warm.cache_transfers, warm.cache_invalidations
    );

    let ladder_json = |points: &[SweepPoint]| -> String {
        points
            .iter()
            .map(|p| {
                format!(
                    r#"    {{"n": {}, "attempted": {}, "verified": {}}}"#,
                    p.n, p.attempted, p.verified
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        r#"{{
  "bench": "drift",
  "dataset_rows": {},
  "mutated_rows": {},
  "removed_rows": {},
  "test_points": {},
  "depth": {},
  "domain": "disjuncts",
  "reps": {},
  "cold_ms": {:.3},
  "warm_ms": {:.3},
  "warm_no_transfer_ms": {:.3},
  "identical_ladders": true,
  "cache_transfers": {},
  "cache_invalidations": {},
  "cold_abstract_runs": {},
  "warm_abstract_runs": {},
  "warm_run_fraction": {:.3},
  "cold_certify_calls": {},
  "warm_certify_calls": {},
  "warm_cache_shortcircuits": {},
  "cold_ladder": [
{}
  ],
  "warm_ladder": [
{}
  ]
}}
"#,
        ds0.len(),
        ds1.len(),
        summary.removed.len(),
        xs.len(),
        opts.depth,
        opts.reps,
        t_cold.as_secs_f64() * 1e3,
        t_warm.as_secs_f64() * 1e3,
        t_warm_no_transfer.as_secs_f64() * 1e3,
        warm.cache_transfers,
        warm.cache_invalidations,
        cold_runs,
        warm_runs,
        warm_runs as f64 / cold_runs as f64,
        cold.certify_calls,
        warm.certify_calls,
        warm.cache_shortcircuits,
        ladder_json(&cold_ladder),
        ladder_json(&warm_ladder),
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_drift.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
