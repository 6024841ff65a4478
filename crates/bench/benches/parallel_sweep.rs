//! Parallel-sweep benchmark: 1-thread versus N-thread wall-clock for the
//! §6.1 ladder over a synthetic blob dataset, plus cached versus
//! `--no-cache` certifier-invocation counts, with a machine-readable
//! `BENCH_sweep.json` snapshot for the performance trajectory.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p antidote-bench --bench parallel_sweep
//!   [-- --points K] [-- --per-class C] [-- --depth D] [-- --reps R]
//! ```
//!
//! All three modes (sequential cached, parallel cached, sequential
//! fresh) must produce bitwise-identical ladders (verified/attempted per
//! probed `n`); the benchmark asserts this before reporting the speedup
//! and the cache hit rate. On a 1-core host the multi-thread rep is
//! skipped outright — it cannot exhibit a speedup, so timing it only
//! burned a third of the bench budget — and `threadsN_ms`/`speedup` are
//! reported as `null` (a literal 0 would be a measurement that never
//! happened). The JSON snapshot is written to the repository root (next
//! to `Cargo.toml`'s workspace).

use antidote_bench::perf::counter_lines;
use antidote_core::engine::ExecContext;
use antidote_core::{sweep_in, DomainKind, MetricsSnapshot, SweepConfig, SweepPoint};
use antidote_data::synth::{gaussian_blobs, BlobSpec};
use antidote_data::Dataset;
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

/// Two separated 2-D Gaussian classes — enough per-point work that the
/// fan-out dominates thread-spawn overhead.
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

fn test_points(k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|i| {
            let t = i as f64 / (k - 1) as f64;
            vec![
                -1.0 + 12.0 * t,
                -1.0 + 12.0 * ((i * 7) % k) as f64 / (k - 1) as f64,
            ]
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

/// Runs one mode `reps` times; the counters come from the last rep's
/// engine metrics (every rep is deterministic, so they are
/// rep-invariant).
fn run_mode(
    ds: &Dataset,
    xs: &[Vec<f64>],
    depth: usize,
    threads: usize,
    cache: bool,
    reps: usize,
) -> (Vec<SweepPoint>, Duration, MetricsSnapshot) {
    let cfg = SweepConfig {
        depth,
        domain: DomainKind::Disjuncts,
        timeout: None,
        threads,
        cache,
        ..SweepConfig::default()
    };
    let mut best = Duration::MAX;
    let mut out = Vec::new();
    let mut stats = MetricsSnapshot::default();
    for _ in 0..reps {
        // A fresh parent context per rep: the cache (when enabled) lives
        // inside the sweep, so every rep starts cold.
        let parent = ExecContext::new().threads(threads);
        let t0 = Instant::now();
        out = sweep_in(ds, xs, &cfg, &parent);
        best = best.min(t0.elapsed());
        stats = parent.metrics().snapshot();
    }
    (out, best, stats)
}

fn main() {
    let opts = Options::parse();
    let ds = dataset(opts.per_class);
    let xs = test_points(opts.points);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "# parallel_sweep: |T| = {}, {} test points, depth {}, {} core(s), best of {} reps",
        ds.len(),
        xs.len(),
        opts.depth,
        cores,
        opts.reps
    );
    let effective_threads = ExecContext::new().effective_threads();
    let (seq_ladder, t1, cached_stats) = run_mode(&ds, &xs, opts.depth, 1, true, opts.reps);
    println!("threads=1 (cached): {t1:?}");
    // A lone core cannot exhibit a parallel speedup: whatever ratio a
    // multi-thread rep would produce there is pure scheduling noise, so
    // the rep is skipped outright (it used to be timed and discarded)
    // and the JSON reports `null` for both the timing and the ratio.
    let tn = if effective_threads == 1 {
        println!("threads=1 host: skipping the redundant multi-thread rep");
        None
    } else {
        let (par_ladder, tn, _) = run_mode(&ds, &xs, opts.depth, 0, true, opts.reps);
        println!("threads={cores} (cached): {tn:?}");
        assert_eq!(
            ladder_key(&seq_ladder),
            ladder_key(&par_ladder),
            "parallel and sequential sweeps must agree on every verdict"
        );
        Some(tn)
    };
    let (fresh_ladder, t_fresh, fresh_stats) = run_mode(&ds, &xs, opts.depth, 1, false, opts.reps);
    println!("threads=1 (no-cache): {t_fresh:?}");

    assert_eq!(
        ladder_key(&seq_ladder),
        ladder_key(&fresh_ladder),
        "cached and fresh sweeps must agree on every verdict"
    );
    assert!(
        cached_stats.certify_calls < fresh_stats.certify_calls,
        "the cache must cut full certifier invocations ({} vs {})",
        cached_stats.certify_calls,
        fresh_stats.certify_calls
    );
    assert!(cached_stats.cache_hit_rate() > 0.0);
    assert!(
        cached_stats.interner_hits > 0,
        "frontier hash-consing must fire on the stock configuration"
    );
    // The one-shot sweep never routes through a Session: the service
    // counters must stay at 0 on this path (the serve bench gates their
    // live values), and the gate holds them there.
    assert_eq!(
        cached_stats.requests_served, 0,
        "static path serves no requests"
    );
    assert_eq!(cached_stats.cross_request_cache_hits, 0);
    let (threads_n_json, speedup_json) = match tn {
        None => ("null".to_string(), "null".to_string()),
        Some(tn) => {
            let speedup = t1.as_secs_f64() / tn.as_secs_f64().max(1e-12);
            println!("speedup: {speedup:.2}x (identical ladders: yes)");
            (
                format!("{:.3}", tn.as_secs_f64() * 1e3),
                format!("{speedup:.3}"),
            )
        }
    };
    if tn.is_none() {
        println!("speedup: n/a (single core; identical ladders: yes)");
    }
    println!(
        "certify calls: {} fresh -> {} cached (hit rate {:.1}%); every counter is in the artifact",
        fresh_stats.certify_calls,
        cached_stats.certify_calls,
        100.0 * cached_stats.cache_hit_rate()
    );

    // Snapshot for the perf trajectory, at the workspace root.
    let ladder_json: Vec<String> = seq_ladder
        .iter()
        .map(|p| {
            format!(
                r#"    {{"n": {}, "attempted": {}, "verified": {}}}"#,
                p.n, p.attempted, p.verified
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "bench": "parallel_sweep",
  "dataset_rows": {},
  "test_points": {},
  "depth": {},
  "domain": "disjuncts",
  "host_cores": {},
  "effective_threads": {},
  "reps": {},
  "threads1_ms": {:.3},
  "threadsN_ms": {},
  "no_cache_ms": {:.3},
  "speedup": {},
  "identical_ladders": true,
  "certify_calls_fresh": {},
  "cache_hit_rate": {:.3},
{},
  "ladder": [
{}
  ]
}}
"#,
        ds.len(),
        xs.len(),
        opts.depth,
        cores,
        effective_threads,
        opts.reps,
        t1.as_secs_f64() * 1e3,
        threads_n_json,
        t_fresh.as_secs_f64() * 1e3,
        speedup_json,
        fresh_stats.certify_calls,
        cached_stats.cache_hit_rate(),
        counter_lines(cached_stats.counters(), "  "),
        ladder_json.join(",\n")
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
