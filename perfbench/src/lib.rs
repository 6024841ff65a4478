//! The repository benchmark: the §6.1 ladder (Fig. 6) on wdbc and MNIST,
//! and a JSONL service replay, measured end to end, plus a traced run
//! that times each layer's public functions from outside the program.
//! See `README.md` in this directory.

pub mod gen;
pub mod json;
pub mod ladder;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sys;

use std::collections::BTreeMap;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig6-wdbc", "fig6-mnist-box", "serve-replay"];

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen. Timings and memory get the
/// widest bound the format allows (0.25): on the 2-core reference host
/// the same work drifts by up to 2x within minutes (README.md).
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [EndToEnd; 8] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("wall_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "1/s", Better::Higher, 0.25),
    ("op_p50_ms", "ms", Better::Lower, 0.25),
    ("op_p99_ms", "ms", Better::Lower, 0.25),
    ("verified_frac", "frac", Better::Higher, 0.05),
    ("ok_frac", "frac", Better::Higher, 0.01),
    ("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// One per-layer metric: name, unit, direction.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, printed by every traced run. A layer that does
/// no work on a workload reports 0.
pub const PER_LAYER: [PerLayer; 37] = [
    ("data.load_ms", "ms", Better::Lower),
    ("data.arena_bytes", "bytes", Better::Lower),
    ("data.registry.apply_delta_ms", "ms", Better::Lower),
    ("tree.dtrace_ms", "ms", Better::Lower),
    ("tree.dtrace_calls", "count", Better::Lower),
    ("core.score.best_split_us", "us", Better::Lower),
    ("core.score.best_split_computed", "count", Better::Lower),
    ("core.learner.run_abstract_ms", "ms", Better::Lower),
    ("core.learner.disjuncts_processed", "count", Better::Lower),
    ("core.learner.peak_disjuncts", "count", Better::Lower),
    ("core.learner.subsumed_ratio", "ratio", Better::Higher),
    ("core.memo.hit_rate", "ratio", Better::Higher),
    ("core.memo.interner_hits", "count", Better::Higher),
    ("core.verdict.dominance_ms", "ms", Better::Lower),
    ("core.certify.calls", "count", Better::Lower),
    ("core.certify.self_ms", "ms", Better::Lower),
    ("core.cache.hit_rate", "ratio", Better::Higher),
    ("core.cache.shortcircuits", "count", Better::Higher),
    ("core.cache.transfers", "count", Better::Higher),
    ("core.cache.invalidations", "count", Better::Lower),
    ("core.sweep.probes", "count", Better::Lower),
    ("core.sweep.rungs", "count", Better::Lower),
    ("core.sweep.deferred", "count", Better::Lower),
    ("core.pool.batches", "count", Better::Lower),
    ("core.pool.reuse", "count", Better::Higher),
    ("core.engine.cpu_util", "ratio", Better::Higher),
    ("core.session.certify_ms", "ms", Better::Lower),
    ("core.session.advance_ms", "ms", Better::Lower),
    (
        "core.session.cross_request_hit_rate",
        "ratio",
        Better::Higher,
    ),
    ("cli.service.self_ms", "ms", Better::Lower),
    ("cli.service.certify_warm_p50_ms", "ms", Better::Lower),
    ("cli.service.certify_cold_p50_ms", "ms", Better::Lower),
    ("cli.service.delta_p50_ms", "ms", Better::Lower),
    ("cli.serve_loop.self_ms", "ms", Better::Lower),
    ("trace.overhead_ms", "ms", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("trace.replayed_ops", "count", Better::Lower),
];

/// Metric values keyed by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (ladders or request lines).
    pub attempted: u64,
    /// Operations that failed or did not match the reference.
    pub failed: u64,
    /// Output-check failures, one line each (empty when correct).
    pub problems: Vec<String>,
    /// Metric values.
    pub metrics: Metrics,
    /// Run metadata: `(key, JSON value)`.
    pub meta: Vec<(&'static str, String)>,
    /// The traced run's spans as JSON lines.
    pub spans: Option<String>,
}

impl RunResult {
    /// Records an output-check failure.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

/// Run-length settings shared by the workloads.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time budget in seconds.
    pub seconds: f64,
}

/// Repetitions a run makes even when they overrun `--seconds`: a median
/// of one replay swings with every burst of host noise.
pub const MIN_REPS: usize = 2;

/// Whether another repetition, as long as the mean of the `reps` done in
/// `elapsed_s`, still fits in `seconds` (always, below [`MIN_REPS`]).
pub fn another_rep_fits(reps: usize, elapsed_s: f64, seconds: f64) -> bool {
    reps < MIN_REPS || elapsed_s + elapsed_s / reps as f64 <= seconds
}

/// The final result line: `correct`, `attempted`, `failed`, and the
/// named metrics with their units.
pub fn result_line(
    r: &RunResult,
    names: &[(&'static str, &'static str)],
) -> Result<String, String> {
    let mut items = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = r
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric '{name}' was not measured"))?;
        items.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(name),
            json::num(*v),
            json::quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.problems.is_empty(),
        r.attempted,
        r.failed,
        items.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.metrics.insert("wall_s", 1.25);
        r.metrics.insert("setup_s", 0.5);
        let line = result_line(&r, &[("wall_s", "s"), ("setup_s", "s")]).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(true)));
        assert_eq!(v.num_at("attempted"), Some(3.0));
        assert_eq!(v.num_at("failed"), Some(0.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("wall_s").unwrap().num_at("value"), Some(1.25));
        assert_eq!(
            m.get("setup_s")
                .unwrap()
                .get("unit")
                .and_then(json::Json::str),
            Some("s")
        );
        assert!(result_line(&r, &[("ops_per_s", "1/s")]).is_err());
        r.problem("mismatch");
        let v = json::parse(&result_line(&r, &[]).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(false)));
    }

    #[test]
    fn repetitions_fill_the_budget() {
        assert!(another_rep_fits(0, 0.0, 1.0));
        assert!(another_rep_fits(1, 100.0, 1.0), "two reps always run");
        assert!(another_rep_fits(2, 10.0, 15.0));
        assert!(!another_rep_fits(2, 10.5, 15.0));
        assert!(!another_rep_fits(3, 16.5, 20.0));
    }
}
