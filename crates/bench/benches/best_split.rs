//! `bestSplit#` hot-loop microbenchmark: dense versus sparse candidate
//! sweep, and one depth-3 certification, with a machine-readable
//! `BENCH_split.json` snapshot so future learner changes have a
//! dedicated hot-loop artifact next to the sweep-level
//! `BENCH_sweep.json`.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p antidote-bench --bench best_split [-- --iters K]
//! ```
//!
//! Two layers are measured:
//!
//! * **Sweep kernel** — `best_split_abs` on a dense base (the whole
//!   training set: walks the dataset's precomputed per-feature value
//!   order) and on a sparse fragment (below the `dense_enough`
//!   threshold: gathers and sorts its own rows). These are the two code
//!   paths every learner step bottoms out in.
//! * **Certification** — one depth-3 disjunctive certify, whose
//!   counters pin how many `bestSplit#` calls (`split_memo_misses`) and
//!   frontier disjuncts the learner spends on it.

use antidote_bench::perf::counter_lines;
use antidote_core::engine::ExecContext;
use antidote_core::{best_split_abs, Certifier, DomainKind};
use antidote_data::synth::{gaussian_blobs, BlobSpec};
use antidote_data::{Dataset, Subset};
use antidote_domains::{AbstractSet, CprobTransformer};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

struct Options {
    iters: usize,
}

impl Options {
    fn parse() -> Options {
        let mut opts = Options { iters: 200 };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--iters" => {
                    opts.iters = it
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .unwrap_or_else(|| panic!("--iters needs an integer value"))
                        .max(10);
                }
                "--bench" => {} // passed by `cargo bench`
                other => panic!("unknown flag '{other}'"),
            }
        }
        opts
    }
}

/// The stock 200-row two-cluster dataset (same family as
/// `parallel_sweep`'s workload).
fn dataset() -> Dataset {
    gaussian_blobs(
        &BlobSpec {
            means: vec![vec![0.0, 0.0], vec![10.0, 10.0]],
            stds: vec![vec![1.5, 1.5], vec![1.5, 1.5]],
            per_class: 100,
            quantum: Some(0.1),
        },
        7,
    )
}

/// Best-of-`iters` wall time of one `best_split_abs` call, in
/// microseconds.
fn time_sweep(ds: &Dataset, a: &AbstractSet, iters: usize) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(best_split_abs(ds, black_box(a), CprobTransformer::Optimal));
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn main() {
    let opts = Options::parse();
    let ds = dataset();

    // Dense path: the full training set walks the precomputed value
    // order (|T| = |dataset| is far above the 1/8 density threshold).
    let dense = AbstractSet::full(&ds, 8);
    let dense_us = time_sweep(&ds, &dense, opts.iters);
    // Sparse path: a 20-row fragment (1/10 of the dataset) gathers and
    // sorts its own rows.
    let sparse = AbstractSet::new(
        Subset::from_indices(&ds, (0..20).map(|i| i * 9).collect()),
        4,
    );
    assert!(
        sparse.len() * 8 < ds.len(),
        "fragment must take the sparse path"
    );
    let sparse_us = time_sweep(&ds, &sparse, opts.iters);
    println!(
        "best_split_abs: dense {dense_us:.1}us, sparse {sparse_us:.1}us (best of {} iters)",
        opts.iters
    );

    // One depth-3 disjunctive certify, best of five reps.
    let depth = 3;
    let n = 16;
    let x = [5.0, 5.0];
    let certifier = Certifier::new(&ds)
        .depth(depth)
        .domain(DomainKind::Disjuncts);
    let mut certify_ms = f64::MAX;
    let mut counters = None;
    for _ in 0..5 {
        let ctx = ExecContext::sequential();
        let t0 = Instant::now();
        certifier.certify_in(&x, n, &ctx);
        certify_ms = certify_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        counters = Some(ctx.metrics().snapshot());
    }
    let counters = counters.expect("five reps ran");
    // Wall-clock times are recorded in the artifact, never asserted: a
    // timing figure fails at random on a shared host.
    println!(
        "certify depth={depth} n={n}: {certify_ms:.2}ms ({} bestSplit# computation(s), \
         {} interner hit(s))",
        counters.split_memo_misses, counters.interner_hits
    );

    let json = format!(
        r#"{{
  "bench": "best_split",
  "dataset_rows": {},
  "iters": {},
  "dense_rows": {},
  "sparse_rows": {},
  "dense_us": {dense_us:.3},
  "sparse_us": {sparse_us:.3},
  "certify_depth": {depth},
  "certify_n": {n},
  "certify_ms": {certify_ms:.3},
{}
}}
"#,
        ds.len(),
        opts.iters,
        dense.len(),
        sparse.len(),
        counter_lines(counters.counters(), "  "),
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_split.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
