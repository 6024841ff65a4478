//! The CI perf-regression gate: one binary owning all five benchmark
//! artifacts, with one failure format.
//!
//! ```text
//! perfgate [--sweep  <baseline> <candidate>]
//!          [--serve  <baseline> <candidate>]
//!          [--matrix <baseline> <candidate>]
//!          [--refs   <baseline> <candidate>]...
//! ```
//!
//! Each flag names a committed baseline and a freshly generated
//! candidate; at least one pair is required, `--refs` may repeat (CI
//! passes `BENCH_split.json` and `BENCH_drift.json`):
//!
//! * `--sweep` — `BENCH_sweep.json`: `identical_ladders` must hold and
//!   every [`gated_counters`] entry (each sum counter of the engine's
//!   counter table) must match exactly;
//! * `--serve` — `BENCH_serve.json`: `identical_responses` /
//!   `hit_rate_dominates_sweep` must hold, the gated counters must match
//!   exactly;
//! * `--matrix` — `BENCH_matrix.json`: the gated counters of the totals
//!   block must match exactly, and the timings-stripped documents must
//!   be line-identical — every per-cell verdict key is held to the
//!   baseline;
//! * `--refs` — reference artifacts: timings-stripped structural
//!   equality, replacing the old per-artifact `grep|diff` shell steps.
//!
//! Counter and structural equality — never wall-clock — keeps every
//! gate host-independent: a slow CI runner cannot fail it, but a change
//! that silently disables the certification cache, the subsumption
//! pass, the `bestSplit#` memo, or the probe scheduler cannot pass it.
//! See DESIGN.md §8, §9.4, §12, and §13. Exit codes: 0 all gates pass,
//! 1 violations, 2 usage or I/O error.

use antidote_bench::perf::{
    check_matrix_gate, check_refs, check_serve_gate, check_sweep_gate, gated_counters, json_u64,
    GateViolation,
};

const USAGE: &str = "usage: perfgate [--sweep <baseline> <candidate>] \
     [--serve <baseline> <candidate>] [--matrix <baseline> <candidate>] \
     [--refs <baseline> <candidate>]... (at least one pair)";

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// Prints the gated counters of one artifact pair, so a green run still
/// documents what it held.
fn report(label: &str, baseline: &str, candidate: &str) {
    for field in gated_counters() {
        println!(
            "perfgate[{label}]: {field}: baseline {:?}, candidate {:?}",
            json_u64(baseline, field),
            json_u64(candidate, field)
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pairs: Vec<(String, String, String)> = Vec::new(); // (mode, baseline, candidate)
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mode = match flag.strip_prefix("--") {
            Some(m @ ("sweep" | "serve" | "matrix" | "refs")) => m.to_string(),
            _ => {
                eprintln!("perfgate: unknown argument '{flag}'\n{USAGE}");
                std::process::exit(2);
            }
        };
        let (Some(baseline), Some(candidate)) = (it.next(), it.next()) else {
            eprintln!("perfgate: --{mode} needs <baseline> <candidate>\n{USAGE}");
            std::process::exit(2);
        };
        pairs.push((mode, baseline, candidate));
    }
    if pairs.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let mut violations: Vec<(String, GateViolation)> = Vec::new();
    for (mode, baseline_path, candidate_path) in &pairs {
        let baseline = read(baseline_path);
        let candidate = read(candidate_path);
        // `--refs` labels by file, so repeated pairs stay attributable.
        let label = match mode.as_str() {
            "refs" => format!("refs:{baseline_path}"),
            m => m.to_string(),
        };
        if mode != "refs" {
            report(&label, &baseline, &candidate);
        }
        let found = match mode.as_str() {
            "sweep" => check_sweep_gate(&baseline, &candidate),
            "serve" => check_serve_gate(&baseline, &candidate),
            "matrix" => check_matrix_gate(&baseline, &candidate),
            _ => check_refs(&baseline, &candidate),
        };
        violations.extend(found.into_iter().map(|v| (label.clone(), v)));
    }
    if violations.is_empty() {
        println!(
            "perfgate: OK — {} artifact pair(s) consistent, gated counters match the baseline",
            pairs.len()
        );
        return;
    }
    for (label, v) in &violations {
        eprintln!("perfgate: FAIL [{label}] {}: {}", v.field, v.detail);
    }
    std::process::exit(1);
}
