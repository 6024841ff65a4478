#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `antidote` — command-line front-end for the poisoning-robustness
//! prover.
//!
//! ```text
//! antidote certify  --dataset wdbc --depth 2 --n 8 --domain disjuncts [--index 0]
//! antidote sweep    --dataset iris --depth 2 --domain box [--points 30] [--timeout 10]
//! antidote drift    --dataset iris --depth 2 --steps 3 --mutate 0.01 [--ops removal|mixed] [--no-transfer]
//! antidote matrix   [--scenarios blobs,onehot] [--threads 4] [--out-dir bench-out]
//! antidote accuracy --dataset mnist17-binary [--scale paper]
//! antidote attack   --dataset mammo --depth 2 --budget 16 [--index 0]
//! antidote stats    --dataset wdbc
//! antidote headline [--scale paper]
//! antidote serve    [--threads 4]
//! antidote client   --script requests.jsonl
//! ```
//!
//! Datasets may also be CSV files: pass `--csv path` instead of
//! `--dataset` (the file's last column must be named `label`; an 80/20
//! split is applied).
//!
//! This crate is a library so the workspace root can expose the single
//! `antidote` binary (`src/bin/antidote.rs` calls [`cli_main`]), keeping
//! `cargo run --release -- <subcommand>` working from the repository
//! root.

mod args;
pub mod service;

use antidote_baselines::{greedy_attack, log10_count, EnumVerdict};
use antidote_core::{Certifier, SweepConfig, Verdict};
use antidote_data::{train_test_split, Dataset, DatasetStats, Subset};
use antidote_tree::eval::accuracy;
use antidote_tree::learn_tree;
use args::{Args, CliError};
use std::time::Duration;

/// Parses `std::env::args`, dispatches the subcommand, and exits with
/// status 2 (after printing the usage text) on any CLI error — the whole
/// `main` of the `antidote` binary.
pub fn cli_main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage:
  antidote certify  --dataset <id> --depth <d> --n <n> [--domain box|disjuncts|hybridK] [--index i] [--timeout secs] [--no-subsume]
  antidote flip     --dataset <id> --depth <d> --n <n> [--index i] [--timeout secs]
  antidote forest   --dataset <id> --depth <d> --n <n> [--trees t] [--features f] [--index i]
  antidote tree     --dataset <id> --depth <d> [--dot true]
  antidote sweep    --dataset <id> --depth <d> [--domain ...] [--points k] [--timeout secs] [--deadline secs] [--probe-budget k] [--no-cache] [--no-subsume] [--no-schedule]
  antidote drift    --dataset <id> --depth <d> [--steps k] [--mutate frac] [--ops removal|mixed] [--points k] [--timeout secs] [--no-transfer]
  antidote matrix   [--scenarios a,b,...] [--out-dir dir] [--seed s] [--list]
  antidote accuracy --dataset <id> [--scale small|paper]
  antidote attack   --dataset <id> --depth <d> --budget <n> [--index i]
  antidote stats    --dataset <id>
  antidote headline [--scale small|paper]
  antidote serve    [--threads k] [--no-share] [--max-sessions n] [--max-session-bytes b]
  antidote client   --script <path> [--threads k]
certify/flip/forest/sweep/attack/matrix also accept --threads <k>, k >= 1
(default: all cores; 1 = sequential); sweep reuses certificates across
ladder rungs unless --no-cache re-derives every probe from scratch;
certify/sweep prune subsumed frontier disjuncts unless --no-subsume;
sweep orders probes widest-verdict-interval first and shares --deadline
(wall-clock, whole ladder) / --probe-budget (deterministic probe count)
across the ladder unless --no-schedule disarms the scheduler (absent a
binding deadline or budget, ladders are bit-identical either way; only
the scheduler carries them, so --no-schedule refuses both);
drift replays a seeded mutation script (--steps deltas, each touching
--mutate of the live rows; --ops removal keeps certificate transfer
sound, mixed adds flips/appends that invalidate it) and re-runs the
ladder each epoch, carrying certificates across mutations unless
--no-transfer (bit-identical verdicts, cold cache per epoch); its
ladders run unbounded, so it refuses --deadline and --probe-budget;
matrix runs every registered scenario x {remove,flip} x
{box,disjuncts,hybrid8} and writes BENCH_<scenario>.json plus
BENCH_matrix.json to --out-dir (default .); datasets: iris, mammo, wdbc,
mnist17-binary, mnist17-real (or --csv <path>);
serve runs the certification service: line-delimited JSON requests on
stdin, one response per line on stdout (ops: load, certify, sweep,
batch, delta, evict, metrics, shutdown; see DESIGN.md sections 12 and
14), answered one line at a time in admission order; tenants loading
the same dataset snapshot under the same config share one warm unit
unless --no-share (byte-identical responses either way);
--max-sessions / --max-session-bytes evict the
least-recently-used session when the count/byte watermark is crossed;
client replays a request script against an in-process service and
prints the transcript";

fn run(argv: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "certify" => cmd_certify(&args),
        "flip" => cmd_flip(&args),
        "forest" => cmd_forest(&args),
        "tree" => cmd_tree(&args),
        "sweep" => cmd_sweep(&args),
        "drift" => cmd_drift(&args),
        "matrix" => cmd_matrix(&args),
        "accuracy" => cmd_accuracy(&args),
        "attack" => cmd_attack(&args),
        "stats" => cmd_stats(&args),
        "headline" => cmd_headline(&args),
        "serve" => service::cmd_serve(&args),
        "client" => service::cmd_client(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError(format!("unknown subcommand '{other}'"))),
    }
}

/// Loads the `(train, test)` pair from `--csv` or `--dataset`.
fn load(args: &Args) -> Result<(Dataset, Dataset), CliError> {
    if let Some(path) = args.options.get("csv") {
        let ds = antidote_data::csv::load_csv(path)
            .map_err(|e| CliError(format!("loading {path}: {e}")))?;
        let seed = args.get_num("seed", 0u64)?;
        Ok(train_test_split(&ds, 0.2, seed))
    } else {
        let bench = args.benchmark()?;
        let scale = args.scale()?;
        let seed = args.get_num("seed", 0u64)?;
        Ok(bench.load(scale, seed))
    }
}

fn cmd_certify(args: &Args) -> Result<(), CliError> {
    let (train, test) = load(args)?;
    let depth = args.get_num("depth", 2usize)?;
    let n = args.get_num("n", 1usize)?;
    let index = args.get_num("index", 0u32)?;
    if index as usize >= test.len() {
        return Err(CliError(format!(
            "--index {index} out of range (test set has {})",
            test.len()
        )));
    }
    let mut certifier = Certifier::new(&train)
        .depth(depth)
        .domain(args.domain()?)
        .threads(args.threads()?)
        .subsume(!args.no_subsume());
    let timeout = args.get_num("timeout", 0u64)?;
    if timeout > 0 {
        certifier = certifier.timeout(Duration::from_secs(timeout));
    }
    let x = test.row_values(index);
    let out = certifier.certify(&x, n);
    let label_name = &train.schema().classes()[out.label as usize];
    println!(
        "test element {index}: reference label = {label_name} (true label = {})",
        test.schema().classes()[test.label(index) as usize]
    );
    println!(
        "verdict at n = {n}, depth = {depth}, domain = {}: {:?}",
        args.domain()?.id(),
        out.verdict
    );
    println!(
        "  time {:?}, peak disjuncts {}, memory proxy {:.1} MB, {} terminal states",
        out.stats.elapsed,
        out.stats.peak_disjuncts,
        out.stats.peak_bytes as f64 / 1e6,
        out.stats.terminals
    );
    if out.verdict == Verdict::Robust {
        println!(
            "  proof covers ~10^{:.0} poisoned training sets",
            log10_count(train.len(), n)
        );
    } else if out.verdict == Verdict::Unknown {
        // Attribute the failure: which terminal state blocked dominance?
        let e = antidote_core::explain(
            &train,
            &x,
            depth,
            n,
            args.domain()?,
            antidote_domains::CprobTransformer::Optimal,
            !args.no_subsume(),
        );
        if let Some(worst) = e.worst_blocker() {
            println!(
                "  blocked by a terminal fragment of {} rows (budget {}) where \
                 no class dominates: {:?}",
                worst.fragment_size, worst.remaining_budget, worst.intervals
            );
        }
    }
    Ok(())
}

fn cmd_flip(args: &Args) -> Result<(), CliError> {
    use antidote_core::engine::ExecContext;
    use antidote_core::flip::certify_label_flips;

    let (train, test) = load(args)?;
    let depth = args.get_num("depth", 2usize)?;
    let n = args.get_num("n", 1usize)?;
    let index = args.get_num("index", 0u32)?;
    if index as usize >= test.len() {
        return Err(CliError(format!(
            "--index {index} out of range (test set has {})",
            test.len()
        )));
    }
    let timeout = args.get_num("timeout", 0u64)?;
    let ctx = ExecContext::new()
        .threads(args.threads()?)
        .maybe_timeout((timeout > 0).then(|| Duration::from_secs(timeout)));
    let x = test.row_values(index);
    let out = certify_label_flips(&train, &x, depth, n, &ctx);
    println!(
        "label-flip robustness of test element {index} (label {}):",
        train.schema().classes()[out.label as usize]
    );
    println!(
        "verdict at {n} flips, depth {depth}: {:?} in {:?}",
        out.verdict, out.stats.elapsed
    );
    Ok(())
}

fn cmd_forest(args: &Args) -> Result<(), CliError> {
    use antidote_core::ensemble::{certify_forest, EnsembleConfig};
    use antidote_tree::forest::{learn_forest, ForestConfig};

    let (train, test) = load(args)?;
    let depth = args.get_num("depth", 1usize)?;
    let n = args.get_num("n", 1usize)?;
    let index = args.get_num("index", 0u32)?;
    if index as usize >= test.len() {
        return Err(CliError(format!(
            "--index {index} out of range (test set has {})",
            test.len()
        )));
    }
    let fcfg = ForestConfig {
        n_trees: args.get_num("trees", 7usize)?,
        features_per_tree: args.get_num("features", (train.n_features() / 3).max(1))?,
        max_depth: depth,
        seed: args.get_num("seed", 0u64)?,
    };
    if fcfg.n_trees == 0 {
        return Err(CliError("--trees must be >= 1".into()));
    }
    let forest = learn_forest(&train, &fcfg);
    let cfg = EnsembleConfig {
        depth,
        threads: args.threads()?,
        ..EnsembleConfig::default()
    };
    let out = certify_forest(&train, &forest, &test.row_values(index), n, &cfg);
    println!(
        "forest of {} trees (depth {depth}, {} features each), accuracy {:.1}%",
        forest.len(),
        forest.members()[0].features.len(),
        100.0 * forest.accuracy(&test)
    );
    println!(
        "test element {index}: label {}, certified votes {}/{}, robust at n = {n}: {}",
        train.schema().classes()[out.label as usize],
        out.certified_votes,
        out.total_trees,
        out.robust
    );
    Ok(())
}

fn cmd_tree(args: &Args) -> Result<(), CliError> {
    let (train, test) = load(args)?;
    let depth = args.get_num("depth", 2usize)?;
    let tree = learn_tree(&train, &Subset::full(&train), depth);
    if args.get_or("dot", "false") == "true" {
        print!("{}", antidote_tree::viz::render_dot(&tree, train.schema()));
    } else {
        print!("{}", antidote_tree::viz::render_text(&tree, train.schema()));
        println!(
            "({} nodes, {} leaves, test accuracy {:.1}%)",
            tree.n_nodes(),
            tree.n_leaves(),
            100.0 * accuracy(&tree, &test)
        );
    }
    Ok(())
}

/// The ladder-wide bounds among `args`, as `--probe-budget and
/// --deadline`. Only the probe scheduler carries them.
fn ladder_bounds(args: &Args) -> Option<String> {
    let given: Vec<String> = ["probe-budget", "deadline"]
        .into_iter()
        .filter(|k| args.options.contains_key(*k))
        .map(|k| format!("--{k}"))
        .collect();
    (!given.is_empty()).then(|| given.join(" and "))
}

fn cmd_sweep(args: &Args) -> Result<(), CliError> {
    if let (true, Some(bounds)) = (args.no_schedule(), ladder_bounds(args)) {
        return Err(CliError(format!(
            "--no-schedule cannot be combined with {bounds}: only the probe scheduler \
             bounds a ladder"
        )));
    }
    let (train, test) = load(args)?;
    let depth = args.get_num("depth", 2usize)?;
    let points = args.get_num("points", test.len())?.min(test.len());
    let timeout = args.get_num("timeout", 10u64)?;
    let cfg = SweepConfig {
        depth,
        domain: args.domain()?,
        timeout: (timeout > 0).then(|| Duration::from_secs(timeout)),
        threads: args.threads()?,
        cache: !args.no_cache(),
        subsume: !args.no_subsume(),
        schedule: !args.no_schedule(),
        deadline: {
            let secs = args.get_num("deadline", 0u64)?;
            (secs > 0).then(|| Duration::from_secs(secs))
        },
        probe_budget: {
            let k = args.get_num("probe-budget", 0u64)?;
            (k > 0).then_some(k)
        },
        ..SweepConfig::default()
    };
    let xs: Vec<Vec<f64>> = (0..points as u32).map(|r| test.row_values(r)).collect();
    let parent = antidote_core::ExecContext::new().threads(cfg.threads);
    println!(
        "# sweep: dataset |T|={}, {} test points, depth {depth}, domain {}, {} worker(s), cache {}",
        train.len(),
        points,
        cfg.domain.id(),
        parent.effective_threads(),
        if cfg.cache { "on" } else { "off" }
    );
    println!(
        "{:>8} {:>9} {:>9} {:>10} {:>12} {:>9}",
        "n", "attempted", "verified", "fraction", "avg_time_ms", "mem_MB"
    );
    for p in antidote_core::sweep_in(&train, &xs, &cfg, &parent) {
        println!(
            "{:>8} {:>9} {:>9} {:>10.3} {:>12.2} {:>9.1}",
            p.n,
            p.attempted,
            p.verified,
            p.fraction_verified(),
            p.avg_time.as_secs_f64() * 1e3,
            p.avg_peak_bytes as f64 / 1e6
        );
    }
    let m = parent.metrics();
    println!(
        "# {} full certify call(s), {} cache hit(s) ({} short-circuit), hit rate {:.1}%",
        m.certify_calls(),
        m.cache_hits(),
        m.cache_shortcircuits(),
        100.0 * m.cache_hit_rate()
    );
    println!(
        "# {} disjunct(s) subsumption-pruned, frontier peak {}",
        m.disjuncts_subsumed(),
        m.peak_disjuncts()
    );
    println!(
        "# {} bestSplit# computation(s), {} memo hit(s), {} interner hit(s)",
        m.split_memo_misses(),
        m.split_memo_hits(),
        m.interner_hits()
    );
    Ok(())
}

fn cmd_drift(args: &Args) -> Result<(), CliError> {
    use antidote_core::{drift_sweep_in, DriftConfig};
    use antidote_scenarios::MutationScript;

    if let Some(bounds) = ladder_bounds(args) {
        return Err(CliError(format!(
            "drift does not take {bounds}: each epoch's ladder runs unbounded"
        )));
    }
    let (train, test) = load(args)?;
    let depth = args.get_num("depth", 2usize)?;
    let points = args.get_num("points", test.len())?.min(test.len());
    let timeout = args.get_num("timeout", 10u64)?;
    let steps = args.get_num("steps", 3usize)?;
    let fraction = args.get_num("mutate", 0.01f64)?;
    // The script clamps each step to at least one and at most every live
    // row, so a value outside (0, 1) would silently mean one of those.
    if !(fraction > 0.0 && fraction < 1.0) {
        return Err(CliError(format!(
            "--mutate must be a fraction strictly between 0 and 1, got {fraction}"
        )));
    }
    let seed = args.get_num("seed", 0u64)?;
    let script = match args.get_or("ops", "removal") {
        "removal" => MutationScript::removal(steps, fraction, seed),
        "mixed" => MutationScript::mixed(steps, fraction, seed),
        other => {
            return Err(CliError(format!(
                "unknown --ops '{other}'; expected removal|mixed"
            )))
        }
    };
    let deltas = script.generate(&train);
    let cfg = DriftConfig {
        sweep: SweepConfig {
            depth,
            domain: args.domain()?,
            timeout: (timeout > 0).then(|| Duration::from_secs(timeout)),
            threads: args.threads()?,
            subsume: !args.no_subsume(),
            schedule: !args.no_schedule(),
            ..SweepConfig::default()
        },
        transfer: !args.no_transfer(),
    };
    let xs: Vec<Vec<f64>> = (0..points as u32).map(|r| test.row_values(r)).collect();
    let parent = antidote_core::ExecContext::new().threads(cfg.sweep.threads);
    println!(
        "# drift: dataset |T|={}, {} test points, depth {depth}, domain {}, {} mutation epoch(s) \
         ({} of rows per epoch, {} ops), transfer {}",
        train.len(),
        points,
        cfg.sweep.domain.id(),
        deltas.len(),
        fraction,
        args.get_or("ops", "removal"),
        if cfg.transfer { "on" } else { "off" }
    );
    println!(
        "{:>6} {:>6} {:>14} {:>8} {:>10} {:>13} {:>13}",
        "epoch", "|T|", "mutation", "frontier", "transfers", "invalidations", "abstract_runs"
    );
    let reports = drift_sweep_in(&train, &xs, &deltas, &cfg, &parent)
        .map_err(|e| CliError(format!("applying mutation script: {e}")))?;
    for r in &reports {
        let mutation = match &r.summary {
            None => "(cold)".to_string(),
            Some(s) => format!("+{}/-{}/~{}", s.appended, s.removed.len(), s.flipped.len()),
        };
        let frontier = r
            .ladder
            .iter()
            .filter(|p| p.verified > 0)
            .map(|p| p.n)
            .max()
            .unwrap_or(0);
        // Probes answered by running the abstract learner rather than a
        // cache short-circuit — the cost the transferred bounds save.
        let runs = r.metrics.abstract_runs();
        println!(
            "{:>6} {:>6} {:>14} {:>8} {:>10} {:>13} {:>13}",
            r.epoch,
            r.train_rows,
            mutation,
            frontier,
            r.metrics.cache_transfers,
            r.metrics.cache_invalidations,
            runs,
        );
    }
    let m = parent.metrics();
    println!(
        "# totals: {} certify call(s), {} cache hit(s) ({} short-circuit), \
         {} certificate(s) transferred, {} invalidated",
        m.certify_calls(),
        m.cache_hits(),
        m.cache_shortcircuits(),
        m.cache_transfers(),
        m.cache_invalidations(),
    );
    Ok(())
}

fn cmd_matrix(args: &Args) -> Result<(), CliError> {
    use antidote_bench::matrix::{run_matrix, write_artifacts, MatrixConfig, DOMAINS};
    use antidote_scenarios::builtin_registry;

    let registry = builtin_registry();
    if args.list() {
        for s in registry.iter() {
            println!("{:<12} {}", s.name, s.description);
        }
        return Ok(());
    }
    let cfg = MatrixConfig {
        threads: args.threads()?,
        seed: args.get_num("seed", 0u64)?,
        scenarios: args.scenarios(),
    };
    let report = run_matrix(&registry, &cfg).map_err(CliError)?;
    println!(
        "# matrix: {} scenario(s) x {} threat(s) x {} domain(s) = {} cells, seed {}",
        report.scenario_names().len(),
        antidote_scenarios::ThreatModel::ALL.len(),
        DOMAINS.len(),
        report.cells.len(),
        report.seed,
    );
    println!(
        "{:<32} {:>5} {:>8} {:>7} {:>9} {:>7} {:>9}",
        "cell", "rungs", "frontier", "certify", "cache_hit", "pruned", "wall_ms"
    );
    for c in &report.cells {
        let frontier = c
            .ladder
            .iter()
            .filter(|p| p.verified > 0)
            .map(|p| p.n)
            .max()
            .unwrap_or(0);
        println!(
            "{:<32} {:>5} {:>8} {:>7} {:>9} {:>7} {:>9.2}",
            c.key(),
            c.ladder.len(),
            frontier,
            c.metrics.certify_calls,
            c.metrics.cache_hits,
            c.metrics.disjuncts_subsumed,
            c.wall.as_secs_f64() * 1e3,
        );
    }
    let (p50, p90, max) = report.wall_ms_percentiles();
    println!(
        "# wall: total {:.1} ms, per-cell p50 {p50:.2} / p90 {p90:.2} / max {max:.2} ms",
        report.wall.as_secs_f64() * 1e3
    );
    println!(
        "# totals: {} certify call(s), {} cache hit(s) ({} short-circuit), {} disjunct(s) pruned",
        report.totals.certify_calls,
        report.totals.cache_hits,
        report.totals.cache_shortcircuits,
        report.totals.disjuncts_subsumed,
    );
    let out_dir = std::path::PathBuf::from(args.get_or("out-dir", "."));
    let written = write_artifacts(&report, &out_dir)
        .map_err(|e| CliError(format!("writing artifacts to {}: {e}", out_dir.display())))?;
    for p in &written {
        println!("wrote {}", p.display());
    }
    Ok(())
}

fn cmd_accuracy(args: &Args) -> Result<(), CliError> {
    let (train, test) = load(args)?;
    println!(
        "# {} train / {} test, {} features, {} classes",
        train.len(),
        test.len(),
        train.n_features(),
        train.n_classes()
    );
    let full = Subset::full(&train);
    for depth in 1..=4 {
        let tree = learn_tree(&train, &full, depth);
        println!(
            "depth {depth}: test accuracy {:.1}%  ({} leaves)",
            100.0 * accuracy(&tree, &test),
            tree.n_leaves()
        );
    }
    Ok(())
}

fn cmd_attack(args: &Args) -> Result<(), CliError> {
    let (train, test) = load(args)?;
    let depth = args.get_num("depth", 2usize)?;
    let budget = args.get_num("budget", 8usize)?;
    let index = args.get_num("index", 0u32)?;
    if index as usize >= test.len() {
        return Err(CliError(format!(
            "--index {index} out of range (test set has {})",
            test.len()
        )));
    }
    let x = test.row_values(index);
    let r = greedy_attack(&train, &x, depth, budget);
    println!(
        "greedy attack on test element {index} (label {}), budget {budget}:",
        train.schema().classes()[r.reference_label as usize]
    );
    if r.succeeded() {
        println!(
            "  SUCCESS with {} removals -> label {} ({} retrainings)",
            r.removals(),
            train.schema().classes()[r.final_label as usize],
            r.retrainings
        );
        println!("  removed rows: {:?}", r.removed);
        // Verify against exact enumeration when affordable.
        if let EnumVerdict::Broken { removed, .. } = antidote_baselines::enumerate_robustness_in(
            &train,
            &x,
            depth,
            r.removals(),
            100_000,
            &antidote_core::ExecContext::new().threads(args.threads()?),
        ) {
            println!(
                "  exact enumeration confirms a minimal break of size <= {}",
                removed.len()
            );
        }
    } else {
        println!(
            "  no flip found within budget ({} retrainings)",
            r.retrainings
        );
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let (train, test) = load(args)?;
    println!("train: {}", DatasetStats::compute(&train));
    println!("test:  {}", DatasetStats::compute(&test));
    Ok(())
}

fn cmd_headline(args: &Args) -> Result<(), CliError> {
    // The §2 headline: proving MNIST-1-7 robust at n = 192 covers ~10^432
    // datasets; naïve enumeration is hopeless.
    let (train, _) = {
        let bench = antidote_data::Benchmark::Mnist17Binary;
        bench.load(args.scale()?, args.get_num("seed", 0u64)?)
    };
    for n in [50usize, 64, 128, 192] {
        println!(
            "|Δn(T)| for |T| = {:>6}, n = {:>3}:  ~10^{:.0} training sets",
            train.len(),
            n,
            log10_count(train.len(), n)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_errors() {
        assert!(run(argv("help")).is_ok());
        assert!(run(argv("bogus")).is_err());
        assert!(run(argv("certify --dataset nope")).is_err());
    }

    #[test]
    fn certify_and_stats_run_end_to_end() {
        assert!(run(argv("certify --dataset iris --depth 1 --n 1 --index 0")).is_ok());
        assert!(run(argv("stats --dataset iris")).is_ok());
        assert!(run(argv("headline")).is_ok());
    }

    #[test]
    fn threads_flag_reaches_the_engine() {
        assert!(run(argv("certify --dataset iris --depth 1 --n 1 --threads 2")).is_ok());
        assert!(run(argv(
            "sweep --dataset iris --depth 1 --points 4 --threads 2 --timeout 0"
        ))
        .is_ok());
        assert!(run(argv("flip --dataset iris --depth 1 --n 1 --threads 2")).is_ok());
        assert!(run(argv("certify --dataset iris --threads nope")).is_err());
    }

    #[test]
    fn no_cache_flag_reaches_the_sweep() {
        assert!(run(argv(
            "sweep --dataset iris --depth 1 --points 4 --threads 1 --timeout 0 --no-cache"
        ))
        .is_ok());
        assert!(run(argv("certify --dataset iris --no-cache nope")).is_err());
    }

    #[test]
    fn no_schedule_flag_reaches_the_sweep() {
        assert!(run(argv(
            "sweep --dataset iris --depth 1 --points 4 --threads 1 --timeout 0 --no-schedule"
        ))
        .is_ok());
        // The scheduler's shared ladder bounds parse and compose.
        assert!(run(argv(
            "sweep --dataset iris --depth 1 --points 4 --threads 1 --timeout 0 \
             --deadline 60 --probe-budget 64"
        ))
        .is_ok());
        assert!(run(argv("sweep --dataset iris --probe-budget nope")).is_err());
        assert!(run(argv("certify --dataset iris --no-schedule nope")).is_err());
    }

    #[test]
    fn ladder_bounds_the_ladder_cannot_honour_are_refused() {
        // Only the probe scheduler carries --probe-budget and --deadline:
        // a ladder without it would silently run unbounded.
        for (cmd, bounds) in [
            (
                "sweep --dataset iris --points 8 --depth 2 --probe-budget 3 --no-schedule",
                "--probe-budget",
            ),
            (
                "sweep --dataset iris --points 8 --depth 2 --deadline 1 --no-schedule",
                "--deadline",
            ),
            (
                "sweep --dataset iris --no-schedule --probe-budget 3 --deadline 1",
                "--probe-budget and --deadline",
            ),
        ] {
            let err = run(argv(cmd)).unwrap_err().to_string();
            assert_eq!(
                err,
                format!(
                    "--no-schedule cannot be combined with {bounds}: only the probe \
                     scheduler bounds a ladder"
                ),
                "{cmd}"
            );
        }
        for (cmd, bounds) in [
            (
                "drift --dataset iris --depth 1 --points 2 --steps 1 --probe-budget 1",
                "--probe-budget",
            ),
            (
                "drift --dataset iris --depth 1 --points 2 --steps 1 --deadline 1",
                "--deadline",
            ),
            (
                "drift --dataset iris --depth 1 --points 2 --steps 1 --probe-budget 1 --deadline 1",
                "--probe-budget and --deadline",
            ),
        ] {
            let err = run(argv(cmd)).unwrap_err().to_string();
            assert_eq!(
                err,
                format!("drift does not take {bounds}: each epoch's ladder runs unbounded"),
                "{cmd}"
            );
        }
    }

    #[test]
    fn no_subsume_flag_reaches_certifier_and_sweep() {
        assert!(run(argv("certify --dataset iris --depth 1 --n 1 --no-subsume")).is_ok());
        assert!(run(argv(
            "sweep --dataset iris --depth 1 --points 4 --threads 1 --timeout 0 --no-subsume"
        ))
        .is_ok());
        assert!(run(argv("sweep --dataset iris --no-subsume nope")).is_err());
    }

    #[test]
    fn accuracy_runs() {
        assert!(run(argv("accuracy --dataset iris")).is_ok());
    }

    #[test]
    fn drift_runs_end_to_end() {
        assert!(run(argv(
            "drift --dataset iris --depth 1 --points 3 --steps 2 --threads 1 --timeout 0"
        ))
        .is_ok());
        assert!(run(argv(
            "drift --dataset iris --depth 1 --points 3 --steps 2 --threads 1 --timeout 0 \
             --no-transfer"
        ))
        .is_ok());
        assert!(run(argv(
            "drift --dataset iris --depth 1 --points 2 --steps 1 --ops mixed --mutate 0.05 \
             --threads 1 --timeout 0"
        ))
        .is_ok());
        assert!(run(argv("drift --dataset iris --ops nope")).is_err());
        assert!(run(argv("drift --dataset iris --mutate nope")).is_err());
    }

    #[test]
    fn drift_refuses_a_mutate_value_outside_the_open_unit_interval() {
        // The script would clamp these to every live row or to one row.
        for bad in ["1", "2", "0", "-1", "NaN", "inf"] {
            let cmd = format!(
                "drift --dataset iris --depth 1 --steps 1 --points 2 --threads 1 --timeout 0 \
                 --mutate {bad}"
            );
            let err = run(argv(&cmd)).unwrap_err();
            assert!(
                err.to_string()
                    .starts_with("--mutate must be a fraction strictly between 0 and 1"),
                "{bad}: {err}"
            );
        }
        assert!(run(argv(
            "drift --dataset iris --depth 1 --steps 1 --points 2 --threads 1 --timeout 0 \
             --mutate 0.5"
        ))
        .is_ok());
    }

    #[test]
    fn usage_lists_exactly_the_options_parse_accepts() {
        let in_usage: std::collections::BTreeSet<&str> = USAGE
            .split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect();
        for key in &in_usage {
            let mut cmd = vec!["sweep".to_string(), format!("--{key}")];
            if !Args::BOOL_FLAGS.contains(key) {
                cmd.push("1".to_string());
            }
            assert!(
                Args::parse(cmd).is_ok(),
                "USAGE option --{key} does not parse"
            );
        }
        let accepted: std::collections::BTreeSet<&str> = Args::VALUE_OPTIONS
            .iter()
            .chain(Args::BOOL_FLAGS)
            .copied()
            .collect();
        assert_eq!(in_usage, accepted, "USAGE and Args::parse disagree");
    }

    #[test]
    fn matrix_list_and_single_scenario_run() {
        assert!(run(argv("matrix --list")).is_ok());
        let dir = std::env::temp_dir().join("antidote-cli-matrix-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!(
            "matrix --scenarios blobs --threads 2 --out-dir {}",
            dir.display()
        );
        assert!(run(argv(&cmd)).is_ok());
        assert!(dir.join("BENCH_blobs.json").exists());
        assert!(dir.join("BENCH_matrix.json").exists());
        assert!(run(argv("matrix --scenarios nope")).is_err());
    }

    #[test]
    fn threads_zero_is_rejected_everywhere() {
        // Regression for the --threads 0 validation: every threaded
        // subcommand surfaces the args-level error instead of handing 0
        // to the engine.
        for cmd in [
            "certify --dataset iris --depth 1 --n 1 --threads 0",
            "sweep --dataset iris --depth 1 --points 2 --threads 0",
            "flip --dataset iris --depth 1 --n 1 --threads 0",
            "matrix --scenarios blobs --threads 0",
        ] {
            let err = run(argv(cmd)).unwrap_err();
            assert!(
                err.to_string().contains("--threads must be >= 1"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn attack_runs() {
        assert!(run(argv("attack --dataset iris --depth 1 --budget 2 --index 0")).is_ok());
    }

    #[test]
    fn flip_forest_and_tree_run() {
        assert!(run(argv("flip --dataset iris --depth 1 --n 1 --index 0")).is_ok());
        assert!(run(argv(
            "forest --dataset iris --depth 1 --n 1 --trees 3 --features 2"
        ))
        .is_ok());
        assert!(run(argv("tree --dataset iris --depth 2")).is_ok());
        assert!(run(argv("tree --dataset iris --depth 1 --dot true")).is_ok());
        assert!(run(argv("flip --dataset iris --index 999")).is_err());
        assert!(run(argv("forest --dataset iris --index 999")).is_err());
        let err = run(argv("forest --dataset iris --trees 0")).unwrap_err();
        assert_eq!(err.0, "--trees must be >= 1");
    }

    #[test]
    fn index_bounds_checked() {
        assert!(run(argv("certify --dataset iris --index 999")).is_err());
        assert!(run(argv("attack --dataset iris --index 999")).is_err());
    }

    #[test]
    fn csv_path_is_loaded() {
        let ds = antidote_data::synth::iris_like(0);
        let dir = std::env::temp_dir().join("antidote-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("iris.csv");
        antidote_data::csv::save_csv(&ds, &path).unwrap();
        let cmd = format!("stats --csv {}", path.display());
        assert!(run(argv(&cmd)).is_ok());
    }
}
