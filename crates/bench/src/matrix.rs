//! The scenario-matrix runner: shards the scenario × threat × domain
//! grid across the execution engine and emits per-scenario and
//! aggregated JSON artifacts (DESIGN.md §8).
//!
//! Cells are enumerated in a deterministic order — scenarios by name,
//! then [`ThreatModel::ALL`], then [`DOMAINS`] — and fanned out with
//! [`ExecContext::par_map`], one child context with its *own*
//! [`RunMetrics`](antidote_core::RunMetrics) per cell
//! ([`ExecContext::fresh_metrics`]), so every cell reports attributable
//! counters while cancellation still chains from the run's parent
//! context. The domain axis cannot change a flip ladder, so each
//! scenario's flip ladder runs once and its three flip cells record that
//! one run. Cells run without per-instance timeouts; their ladders,
//! verdicts, and counters are therefore thread-invariant (pinned by
//! `tests/matrix_determinism.rs`), and only wall-clock differs between
//! `--threads 1` and `--threads N`.

use crate::perf::counter_lines;
use antidote_core::engine::{Aggregation, ExecContext};
use antidote_core::{sweep_in, DomainKind, MetricsSnapshot, SweepConfig, SweepPoint};
use antidote_data::Dataset;
use antidote_scenarios::{flip_sweep, ScenarioRegistry, ThreatModel};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ladder-wide probe budget every remove-threat cell runs under: a
/// deterministic (count-based, never wall-clock) cutoff, so expensive
/// cells stop doubling once the budget is spent and degrade their
/// remaining points to sound verdict intervals, while the scheduler's
/// tightening pass spends whatever cheap cells leave over. Chosen so
/// the hardest committed cell (`imbalanced/remove/disjuncts`, 35 probes
/// before scheduling) truncates well below its 218ms peak while every
/// `blobs` cell still exercises the cache (pinned in the tests below).
/// Count-based cutoffs keep BENCH_matrix.json bit-stable across runs
/// and thread counts (`tests/matrix_determinism.rs`).
pub const CELL_PROBE_BUDGET: u64 = 24;

/// The domain axis of the grid: the paper's Box, the unbounded
/// disjunctive domain, and the budgeted hybrid.
pub const DOMAINS: [DomainKind; 3] = [
    DomainKind::Box,
    DomainKind::Disjuncts,
    DomainKind::Hybrid { max_disjuncts: 8 },
];

/// Options for one matrix run.
#[derive(Debug, Clone, Default)]
pub struct MatrixConfig {
    /// Worker count for the cell fan-out (0 = all available cores).
    pub threads: usize,
    /// Workload seed handed to every scenario generator.
    pub seed: u64,
    /// Optional scenario-name filter (`None` runs the whole registry).
    pub scenarios: Option<Vec<String>>,
}

/// One completed grid cell: a scenario × threat × domain ladder plus the
/// cell-scoped engine counters.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Scenario (registry) name.
    pub scenario: String,
    /// Scenario description, copied into the JSON artifacts.
    pub description: String,
    /// Threat model of this cell.
    pub threat: ThreatModel,
    /// Certification domain of this cell. The flip learner is inherently
    /// disjunctive, so on [`ThreatModel::LabelFlip`] cells the domain is
    /// recorded but does not change the ladder (see
    /// `antidote_scenarios::flip_sweep`, the removal sweep's ladder with
    /// the flip prover).
    pub domain: DomainKind,
    /// Trace depth used.
    pub depth: usize,
    /// Ladder budget cap used.
    pub max_n: usize,
    /// Training rows in the generated workload.
    pub train_rows: usize,
    /// Probe inputs in the generated workload.
    pub test_points: usize,
    /// The §6.1 ladder, ascending in `n`.
    pub ladder: Vec<SweepPoint>,
    /// Cell-scoped engine counters (see [`ExecContext::fresh_metrics`]).
    pub metrics: MetricsSnapshot,
    /// Cell wall-clock (thread- and load-dependent; excluded from the
    /// determinism contract). A scenario's three flip cells record one
    /// run, so they report its wall-clock.
    pub wall: Duration,
}

impl MatrixCell {
    /// The verdict-relevant projection of this cell: identity, ladder
    /// rungs, and every sum counter — everything that must be
    /// bit-identical across `--threads` and registration order.
    /// (Wall-clock and the watermarks are excluded. The scheduler
    /// counters are included: remove cells run under a count-based
    /// probe budget and flip cells unbounded, so scheduled/deferred/
    /// degraded counts are as thread-invariant as the ladder itself.)
    #[allow(clippy::type_complexity)]
    pub fn verdict_key(&self) -> (String, Vec<(usize, usize, usize, usize, usize)>, Vec<u64>) {
        (
            self.key(),
            self.ladder
                .iter()
                .map(|p| (p.n, p.attempted, p.verified, p.timeouts, p.budget_exhausted))
                .collect(),
            self.metrics
                .counters()
                .filter(|(c, _)| c.aggregation() == Aggregation::Sum)
                .map(|(_, v)| v)
                .collect(),
        )
    }

    /// `scenario/threat/domain`, the cell's unique grid coordinate.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.scenario,
            self.threat.id(),
            self.domain.id()
        )
    }
}

/// A completed matrix run.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Seed the workloads were generated from.
    pub seed: u64,
    /// Requested worker count (0 = all cores).
    pub threads: usize,
    /// Completed cells, in deterministic grid order.
    pub cells: Vec<MatrixCell>,
    /// Run-wide counters (every cell's metrics absorbed).
    pub totals: MetricsSnapshot,
    /// Whole-run wall-clock.
    pub wall: Duration,
}

impl MatrixReport {
    /// Scenario names present, sorted and deduplicated.
    pub fn scenario_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.cells.iter().map(|c| c.scenario.as_str()).collect();
        names.dedup(); // cells are grouped by scenario already
        names
    }

    /// The cells of one scenario family, in grid order.
    pub fn cells_for(&self, scenario: &str) -> Vec<&MatrixCell> {
        self.cells
            .iter()
            .filter(|c| c.scenario == scenario)
            .collect()
    }

    /// Every cell's [`MatrixCell::verdict_key`], in grid order — the
    /// value the determinism suite compares across thread counts and
    /// registration orders.
    #[allow(clippy::type_complexity)]
    pub fn verdict_key(&self) -> Vec<(String, Vec<(usize, usize, usize, usize, usize)>, Vec<u64>)> {
        self.cells.iter().map(MatrixCell::verdict_key).collect()
    }

    /// Nearest-rank percentiles of per-cell wall-clock, in milliseconds:
    /// `(p50, p90, max)`.
    pub fn wall_ms_percentiles(&self) -> (f64, f64, f64) {
        if self.cells.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut ms: Vec<f64> = self
            .cells
            .iter()
            .map(|c| c.wall.as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = |q: f64| ms[((q * ms.len() as f64).ceil() as usize).clamp(1, ms.len()) - 1];
        (rank(0.50), rank(0.90), ms[ms.len() - 1])
    }
}

/// One pending cell: workload shared across the scenario's six cells.
struct CellSpec {
    scenario: String,
    description: String,
    threat: ThreatModel,
    domain: DomainKind,
    depth: usize,
    max_n: usize,
    train: Arc<Dataset>,
    xs: Arc<Vec<Vec<f64>>>,
    /// Index of the spec whose ladder this cell records: its own, except
    /// on a flip cell past the scenario's first domain.
    source: usize,
}

/// Runs the scenario × threat × domain grid and returns the report.
///
/// The grid is sharded across `cfg.threads` workers under one parent
/// [`ExecContext`]; callers embedding the runner can supply their own
/// parent via [`run_matrix_in`], whose cancellation reaches every
/// in-flight cell. The report's totals are folded from the cells and
/// are self-contained regardless of what else the parent has run.
///
/// # Errors
///
/// Returns an error when the scenario filter names an unknown scenario
/// or selects nothing.
pub fn run_matrix(reg: &ScenarioRegistry, cfg: &MatrixConfig) -> Result<MatrixReport, String> {
    run_matrix_in(reg, cfg, &ExecContext::new().threads(cfg.threads))
}

/// [`run_matrix`] under a caller-provided parent context (cancellation
/// scope and run-wide metrics). The parent's thread count is used as-is.
pub fn run_matrix_in(
    reg: &ScenarioRegistry,
    cfg: &MatrixConfig,
    parent: &ExecContext,
) -> Result<MatrixReport, String> {
    let scenarios = reg.select(cfg.scenarios.as_deref())?;
    if scenarios.is_empty() {
        return Err("no scenarios selected".to_string());
    }
    let mut specs: Vec<CellSpec> = Vec::with_capacity(scenarios.len() * 6);
    for s in scenarios {
        let (train, xs) = s.workload(cfg.seed);
        let (train, xs) = (Arc::new(train), Arc::new(xs));
        for threat in ThreatModel::ALL {
            for (k, domain) in DOMAINS.into_iter().enumerate() {
                let (depth, max_n, source) = match threat {
                    ThreatModel::Remove => (s.depth, s.max_n, specs.len()),
                    // The flip learner is inherently disjunctive, so the
                    // domain axis cannot change a flip ladder: the
                    // scenario's first flip cell runs it, and the other
                    // two record that run.
                    ThreatModel::LabelFlip => (s.flip_depth, s.flip_max_n, specs.len() - k),
                };
                specs.push(CellSpec {
                    scenario: s.name.clone(),
                    description: s.description.clone(),
                    threat,
                    domain,
                    depth,
                    max_n,
                    train: Arc::clone(&train),
                    xs: Arc::clone(&xs),
                    source,
                });
            }
        }
    }

    let inner_threads = parent.child_threads_for(specs.len());
    let t0 = Instant::now();
    let ran: Vec<Option<MatrixCell>> = parent.par_map(&specs, |i, spec| {
        if spec.source != i {
            return None;
        }
        // A per-cell child context with isolated metrics: counters are
        // attributable to the cell, cancellation still chains from the
        // parent, and the snapshot is rolled back up after the grid.
        let ctx = parent.child().threads(inner_threads).fresh_metrics();
        let cell_t0 = Instant::now();
        let ladder = match spec.threat {
            ThreatModel::Remove => {
                // `SweepConfig::threads` is deliberately left at its
                // default: `sweep_in` takes its worker count from the
                // cell context built above, never from the config.
                let sweep_cfg = SweepConfig {
                    depth: spec.depth,
                    domain: spec.domain,
                    timeout: None,
                    max_live_disjuncts: None,
                    max_n: Some(spec.max_n),
                    probe_budget: Some(CELL_PROBE_BUDGET),
                    ..SweepConfig::default()
                };
                sweep_in(&spec.train, &spec.xs, &sweep_cfg, &ctx)
            }
            ThreatModel::LabelFlip => {
                flip_sweep(&spec.train, &spec.xs, spec.depth, spec.max_n, &ctx)
            }
        };
        Some(MatrixCell {
            scenario: spec.scenario.clone(),
            description: spec.description.clone(),
            threat: spec.threat,
            domain: spec.domain,
            depth: spec.depth,
            max_n: spec.max_n,
            train_rows: spec.train.len(),
            test_points: spec.xs.len(),
            ladder,
            metrics: ctx.metrics().snapshot(),
            wall: cell_t0.elapsed(),
        })
    });
    // A flip cell past its scenario's first domain records that cell's
    // run under its own domain key. Every cell's snapshot, the copies
    // included, is absorbed into the parent.
    let cells: Vec<MatrixCell> = specs
        .iter()
        .map(|spec| {
            let mut cell = ran[spec.source].clone().expect("a cell's source cell ran");
            cell.domain = spec.domain;
            parent.metrics().absorb(&cell.metrics);
            cell
        })
        .collect();
    // Totals are folded from the cells themselves, not read off the
    // parent's metrics: a caller-provided parent may carry counters from
    // earlier work (or an earlier matrix run), and the report must stay
    // self-contained either way. The parent still absorbs every cell
    // snapshot above, so callers observing run-wide metrics see the
    // matrix's contribution.
    let totals = antidote_core::RunMetrics::default();
    for c in &cells {
        totals.absorb(&c.metrics);
    }
    Ok(MatrixReport {
        seed: cfg.seed,
        threads: cfg.threads,
        totals: totals.snapshot(),
        wall: t0.elapsed(),
        cells,
    })
}

/// Writes one `BENCH_<scenario>.json` per scenario family plus the
/// aggregated `BENCH_matrix.json` into `out_dir` (created if missing).
/// Returns the written paths, aggregate last.
///
/// File stems are sanitized (non-`[A-Za-z0-9_-]` characters become `_`),
/// so a custom-registered scenario name can never write outside
/// `out_dir`; the JSON bodies carry the name verbatim (escaped).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifacts(report: &MatrixReport, out_dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(out_dir)?;
    let mut written = Vec::new();
    for name in report.scenario_names() {
        let stem: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = out_dir.join(format!("BENCH_{stem}.json"));
        std::fs::write(&path, scenario_json(report, name))?;
        written.push(path);
    }
    let path = out_dir.join("BENCH_matrix.json");
    std::fs::write(&path, matrix_json(report))?;
    written.push(path);
    Ok(written)
}

/// The aggregated `BENCH_matrix.json` document.
pub fn matrix_json(report: &MatrixReport) -> String {
    let (p50, p90, max) = report.wall_ms_percentiles();
    let names: Vec<String> = report
        .scenario_names()
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    let cells: Vec<String> = report.cells.iter().map(|c| cell_json(c, "    ")).collect();
    format!(
        r#"{{
  "bench": "matrix",
  "seed": {},
  "requested_threads": {},
  "scenario_count": {},
  "cell_count": {},
  "scenarios": [{}],
  "wall_ms_total": {:.3},
  "wall_ms_p50": {p50:.3},
  "wall_ms_p90": {p90:.3},
  "wall_ms_max": {max:.3},
  "totals": {{
{}
  }},
  "cells": [
{}
  ]
}}
"#,
        report.seed,
        report.threads,
        report.scenario_names().len(),
        report.cells.len(),
        names.join(", "),
        report.wall.as_secs_f64() * 1e3,
        counter_block(&report.totals, "    "),
        cells.join(",\n"),
    )
}

/// The counter block of one snapshot, indented by `pad`. A
/// [per-thread](antidote_core::engine::Counter::per_thread) watermark is
/// left out: cells land on worker threads in no fixed order, and every
/// other line must be identical across runs and worker counts.
fn counter_block(m: &MetricsSnapshot, pad: &str) -> String {
    counter_lines(m.counters().filter(|(c, _)| !c.per_thread()), pad)
}

/// The `BENCH_<scenario>.json` document for one scenario family.
pub fn scenario_json(report: &MatrixReport, scenario: &str) -> String {
    let cells = report.cells_for(scenario);
    let description = cells
        .first()
        .map(|c| c.description.as_str())
        .unwrap_or_default();
    let body: Vec<String> = cells.iter().map(|c| cell_json(c, "    ")).collect();
    format!(
        r#"{{
  "bench": "matrix",
  "scenario": "{}",
  "description": "{}",
  "seed": {},
  "requested_threads": {},
  "cell_count": {},
  "cells": [
{}
  ]
}}
"#,
        escape(scenario),
        escape(description),
        report.seed,
        report.threads,
        cells.len(),
        body.join(",\n"),
    )
}

/// One cell as a JSON object, indented by `pad`.
fn cell_json(c: &MatrixCell, pad: &str) -> String {
    let ladder: Vec<String> = c
        .ladder
        .iter()
        .map(|p| {
            format!(
                r#"{pad}    {{"n": {}, "attempted": {}, "verified": {}, "timeouts": {}, "budget_exhausted": {}}}"#,
                p.n, p.attempted, p.verified, p.timeouts, p.budget_exhausted
            )
        })
        .collect();
    format!(
        r#"{pad}{{
{pad}  "scenario": "{}",
{pad}  "threat": "{}",
{pad}  "domain": "{}",
{pad}  "depth": {},
{pad}  "max_n": {},
{pad}  "train_rows": {},
{pad}  "test_points": {},
{pad}  "wall_ms": {:.3},
{},
{pad}  "ladder": [
{}
{pad}  ]
{pad}}}"#,
        escape(&c.scenario),
        c.threat.id(),
        c.domain.id(),
        c.depth,
        c.max_n,
        c.train_rows,
        c.test_points,
        c.wall.as_secs_f64() * 1e3,
        counter_block(&c.metrics, &format!("{pad}  ")),
        ladder.join(",\n"),
    )
}

/// Minimal JSON string escaping (names and descriptions are ASCII, but
/// quotes and backslashes must never corrupt the document).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_scenarios::builtin_registry;

    fn small_cfg() -> MatrixConfig {
        MatrixConfig {
            threads: 1,
            seed: 0,
            scenarios: Some(vec!["blobs".to_string()]),
        }
    }

    #[test]
    fn one_scenario_grid_has_six_cells_in_order() {
        let reg = builtin_registry();
        let report = run_matrix(&reg, &small_cfg()).unwrap();
        assert_eq!(report.cells.len(), 6, "2 threats x 3 domains");
        let keys: Vec<String> = report.cells.iter().map(MatrixCell::key).collect();
        assert_eq!(
            keys,
            vec![
                "blobs/remove/box",
                "blobs/remove/disjuncts",
                "blobs/remove/hybrid8",
                "blobs/flip/box",
                "blobs/flip/disjuncts",
                "blobs/flip/hybrid8",
            ]
        );
        for c in &report.cells {
            assert!(!c.ladder.is_empty(), "{}: empty ladder", c.key());
            assert_eq!(c.test_points, 6);
            assert!(c.train_rows >= 60);
            if c.threat == ThreatModel::Remove {
                assert!(c.metrics.certify_calls > 0, "{}", c.key());
                assert!(c.metrics.cache_hits > 0, "{}: cache never hit", c.key());
                assert!(
                    c.metrics.probes_scheduled > 0,
                    "{}: scheduler never engaged",
                    c.key()
                );
                assert!(
                    c.metrics.probes_scheduled <= CELL_PROBE_BUDGET,
                    "{}: cell overran its probe budget",
                    c.key()
                );
            }
        }
        // Flip cells ignore the domain axis: their ladders are identical
        // (modulo timings, which the verdict key excludes).
        let flips: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.threat == ThreatModel::LabelFlip)
            .collect();
        assert_eq!(flips.len(), 3);
        let rungs = |c: &MatrixCell| c.verdict_key().1;
        assert_eq!(rungs(flips[0]), rungs(flips[1]));
        assert_eq!(rungs(flips[0]), rungs(flips[2]));
        // Totals absorbed every cell's counters.
        let cell_calls: u64 = report.cells.iter().map(|c| c.metrics.certify_calls).sum();
        assert_eq!(report.totals.certify_calls, cell_calls);
    }

    #[test]
    fn totals_stay_self_contained_under_a_reused_parent() {
        // Regression: totals used to be read off the parent context's
        // metrics, so a caller reusing one parent across runs (or after
        // unrelated work) saw earlier counters folded into the report.
        use antidote_core::engine::Counter;
        let reg = builtin_registry();
        let parent = ExecContext::new().threads(1);
        parent.metrics().record(Counter::CertifyCalls, 1); // pre-existing caller work
        let first = run_matrix_in(&reg, &small_cfg(), &parent).unwrap();
        let second = run_matrix_in(&reg, &small_cfg(), &parent).unwrap();
        assert_eq!(
            first.totals, second.totals,
            "a reused parent must not leak counters into totals"
        );
        let cell_calls: u64 = first.cells.iter().map(|c| c.metrics.certify_calls).sum();
        assert_eq!(first.totals.certify_calls, cell_calls);
        // The parent still observes both runs plus its own work.
        assert_eq!(
            parent.metrics().certify_calls(),
            1 + 2 * cell_calls,
            "cell snapshots are still absorbed run-wide"
        );
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let reg = builtin_registry();
        let cfg = MatrixConfig {
            scenarios: Some(vec!["nope".to_string()]),
            ..MatrixConfig::default()
        };
        let err = run_matrix(&reg, &cfg).unwrap_err();
        assert!(err.contains("unknown scenario"));
    }

    #[test]
    fn artifacts_round_trip_through_the_field_extractor() {
        let reg = builtin_registry();
        let report = run_matrix(&reg, &small_cfg()).unwrap();
        let doc = matrix_json(&report);
        assert_eq!(crate::perf::json_u64(&doc, "cell_count"), Some(6));
        assert_eq!(crate::perf::json_u64(&doc, "seed"), Some(0));
        assert_eq!(
            crate::perf::json_u64(&doc, "certify_calls"),
            Some(report.totals.certify_calls),
            "totals come before cells, so the first match is the aggregate"
        );
        let sdoc = scenario_json(&report, "blobs");
        assert_eq!(crate::perf::json_u64(&sdoc, "cell_count"), Some(6));
        assert!(sdoc.contains(r#""scenario": "blobs""#));

        let dir = std::env::temp_dir().join("antidote-matrix-test");
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_artifacts(&report, &dir).unwrap();
        assert_eq!(written.len(), 2, "BENCH_blobs.json + BENCH_matrix.json");
        assert!(written[0].ends_with("BENCH_blobs.json"));
        assert!(written[1].ends_with("BENCH_matrix.json"));
        for p in &written {
            assert!(p.exists());
        }
    }

    #[test]
    fn hostile_scenario_names_stay_inside_out_dir_and_valid_json() {
        // A custom-registered name with a quote and a path separator must
        // neither corrupt the JSON documents nor escape the out-dir.
        let mut reg = builtin_registry();
        let mut evil = reg.get("blobs").unwrap().clone();
        evil.name = "e/v\"il".to_string();
        reg.register(evil);
        let cfg = MatrixConfig {
            threads: 1,
            seed: 0,
            scenarios: Some(vec!["e/v\"il".to_string()]),
        };
        let report = run_matrix(&reg, &cfg).unwrap();
        let doc = matrix_json(&report);
        assert!(doc.contains(r#""e/v\"il""#), "names are escaped in JSON");
        assert_eq!(crate::perf::json_u64(&doc, "cell_count"), Some(6));
        let dir = std::env::temp_dir().join("antidote-matrix-evil-test");
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_artifacts(&report, &dir).unwrap();
        assert!(
            written[0].ends_with("BENCH_e_v_il.json"),
            "{:?}",
            written[0]
        );
        assert!(written.iter().all(|p| p.parent() == Some(dir.as_path())));
    }

    #[test]
    fn percentiles_are_ordered() {
        let reg = builtin_registry();
        let report = run_matrix(&reg, &small_cfg()).unwrap();
        let (p50, p90, max) = report.wall_ms_percentiles();
        assert!(p50 <= p90 && p90 <= max);
        assert!(max > 0.0);
        let empty = MatrixReport {
            seed: 0,
            threads: 1,
            cells: Vec::new(),
            totals: MetricsSnapshot::default(),
            wall: Duration::ZERO,
        };
        assert_eq!(empty.wall_ms_percentiles(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn json_escape_is_safe() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
