//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`. The
//! line before it carries the run's metadata. Exits 1 when an output
//! check fails, 2 on a usage or measurement error (no result line).
//!
//! `--bless` prints the reference for the workload and seed instead: the
//! ladder of a `fig6-*` workload, or the transcript digest line of
//! `serve-replay`.

use antidote_perfbench::ladder::{self, LadderWorkload, FIG6_MNIST_BOX, FIG6_WDBC};
use antidote_perfbench::{
    gen, json, result_line, serve, sys, RunArgs, RunResult, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::path::{Path, PathBuf};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--bless]";

struct Cli {
    workload: String,
    args: RunArgs,
    trace: bool,
    bless: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Cli {
        workload,
        args: RunArgs { seed, seconds },
        trace,
        bless,
    })
}

fn ladder_workload(name: &str) -> Option<&'static LadderWorkload> {
    [&FIG6_WDBC, &FIG6_MNIST_BOX]
        .into_iter()
        .find(|w| w.name == name)
}

/// Where run artifacts go: under the build directory, inside the checkout.
fn runs_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    target.join("perfbench-runs")
}

fn write_artifacts(cli: &Cli, meta_line: &str, result: &str, r: &RunResult) -> Result<(), String> {
    let dir = runs_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cli.workload,
        cli.args.seed,
        u8::from(cli.trace)
    );
    let write = |name: String, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &format!("{meta_line}\n{result}\n"))?;
    if let Some(spans) = &r.spans {
        write(format!("{stem}.spans.jsonl"), spans)?;
    }
    Ok(())
}

fn run(cli: &Cli) -> Result<i32, String> {
    if cli.bless {
        match ladder_workload(&cli.workload) {
            Some(w) => print!("{}", ladder::bless(w)),
            None => println!("{}", serve::bless_digest(cli.args.seed)),
        }
        return Ok(0);
    }
    let mut r = match (ladder_workload(&cli.workload), cli.trace) {
        (Some(w), false) => ladder::run(w, &cli.args),
        (Some(w), true) => ladder::run_traced(w, &cli.args),
        (None, false) => serve::run(&cli.args),
        (None, true) => serve::run_traced(&cli.args),
    };
    let mut meta = vec![
        ("workload", json::quote(&cli.workload)),
        ("trace", u8::from(cli.trace).to_string()),
        ("seconds", cli.args.seconds.to_string()),
        ("nproc", sys::nproc().to_string()),
        ("commit", json::quote(&sys::commit(Path::new(".")))),
    ];
    meta.append(&mut r.meta);
    let meta_line = format!(
        "{{\"meta\":{{{}}}}}",
        meta.iter()
            .map(|(k, v)| format!("{}:{v}", json::quote(k)))
            .collect::<Vec<_>>()
            .join(",")
    );
    for p in &r.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let names: Vec<(&str, &str)> = if cli.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, ..)| (n, u)).collect()
    };
    let result = result_line(&r, &names)?;
    write_artifacts(cli, &meta_line, &result, &r)?;
    println!("{meta_line}");
    println!("{result}");
    Ok(if r.problems.is_empty() { 0 } else { 1 })
}

fn main() {
    let code = match parse_cli().and_then(|cli| run(&cli)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
