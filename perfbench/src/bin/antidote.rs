//! The `antidote` CLI, built inside the benchmark package so the
//! serve-replay workload can spawn `antidote serve` from the same build.

fn main() {
    antidote_cli::cli_main();
}
