//! Minimal field extraction for the flat JSON benchmark artifacts, and
//! the perf-regression gate logic behind `bin/perfgate.rs`.
//!
//! The workspace vendors no JSON crate, and the bench artifacts are
//! hand-formatted flat documents (`BENCH_sweep.json`, `BENCH_matrix.json`),
//! so a full parser is not warranted: these helpers find the **first**
//! occurrence of a quoted key and read the scalar token after the colon.
//! Keys are matched whole (`"certify_calls"` never matches
//! `"certify_calls_fresh"`, thanks to the closing quote), and documents
//! place aggregate fields before any repeated per-cell fields, so
//! first-match is the aggregate.

use antidote_core::engine::{Aggregation, Counter};

/// The raw scalar token following `"key":`, trimmed.
///
/// Returns `None` when the key is absent or followed by a non-scalar
/// (object or array).
pub fn json_raw<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    if rest.starts_with('{') || rest.starts_with('[') {
        return None;
    }
    let end = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
    let token = rest[..end].trim();
    (!token.is_empty()).then_some(token)
}

/// The first `"key"` value as a `u64`.
pub fn json_u64(doc: &str, key: &str) -> Option<u64> {
    json_raw(doc, key)?.parse().ok()
}

/// The first `"key"` value as a `bool`.
pub fn json_bool(doc: &str, key: &str) -> Option<bool> {
    match json_raw(doc, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// One `"name": value` artifact line per counter, indented by `pad`, in
/// the order given: the counter block every benchmark artifact writes
/// from a [`MetricsSnapshot::counters`] walk, under the table's names.
///
/// [`MetricsSnapshot::counters`]: antidote_core::MetricsSnapshot::counters
pub fn counter_lines(counters: impl Iterator<Item = (Counter, u64)>, pad: &str) -> String {
    counters
        .map(|(c, v)| format!("{pad}\"{c}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n")
}

/// One perf-gate violation: which field drifted, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateViolation {
    /// The JSON field that failed the gate.
    pub field: &'static str,
    /// Human-readable explanation (baseline vs candidate).
    pub detail: String,
}

/// The counters every gate holds to exact equality against the committed
/// baseline: each [sum](Aggregation::Sum) counter of the engine's counter
/// table, under its table name. Deliberately *not* wall-clock: the
/// benches read their counters off deterministic runs, so the gate is
/// stable on any CI runner while still catching a change that silently
/// disables the cache, the subsumption pass, the `bestSplit#` memo, or
/// the probe scheduler. A counter a path never touches is pinned at 0
/// there (`interner_hits` everywhere, since nothing interns): the
/// one-shot sweep serves no requests, shares and evicts no sessions,
/// and crosses no epoch boundary, so service or transfer traffic on the
/// static path fails the gate. The watermarks (`peak_disjuncts`,
/// `peak_bytes`, and the always-0 `arena_bytes`) are recorded in the
/// artifacts but not gated here.
pub fn gated_counters() -> impl Iterator<Item = &'static str> {
    Counter::ALL
        .iter()
        .filter(|c| c.aggregation() == Aggregation::Sum)
        .map(|c| c.name())
}

/// Checks a freshly generated `BENCH_sweep.json` (`candidate`) against
/// the committed baseline document. Violations are returned rather than
/// printed so the logic is unit-testable; `bin/perfgate.rs` renders and
/// exits non-zero.
///
/// Gated conditions:
///
/// * `identical_ladders` must be `true` in the candidate (the bench
///   itself asserts this, but the gate re-checks the artifact);
/// * each of [`gated_counters`] must be present in both documents and
///   exactly equal.
pub fn check_sweep_gate(baseline: &str, candidate: &str) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    match json_bool(candidate, "identical_ladders") {
        Some(true) => {}
        Some(false) => violations.push(GateViolation {
            field: "identical_ladders",
            detail: "candidate reports non-identical ladders".to_string(),
        }),
        None => violations.push(GateViolation {
            field: "identical_ladders",
            detail: "field missing from candidate".to_string(),
        }),
    }
    check_counters(baseline, candidate, &mut violations);
    violations
}

/// Exact-equality check of each [`gated_counters`] entry across the two
/// documents, appending a violation per mismatch or missing field.
fn check_counters(baseline: &str, candidate: &str, violations: &mut Vec<GateViolation>) {
    for field in gated_counters() {
        match (json_u64(baseline, field), json_u64(candidate, field)) {
            (Some(b), Some(c)) if b == c => {}
            (Some(b), Some(c)) => violations.push(GateViolation {
                field,
                detail: format!("baseline {b} != candidate {c}"),
            }),
            (None, _) => violations.push(GateViolation {
                field,
                detail: "field missing from baseline".to_string(),
            }),
            (_, None) => violations.push(GateViolation {
                field,
                detail: "field missing from candidate".to_string(),
            }),
        }
    }
}

/// A required `true` boolean in the candidate document, appending a
/// violation when it is `false` or absent.
fn check_true_flag(candidate: &str, field: &'static str, violations: &mut Vec<GateViolation>) {
    match json_bool(candidate, field) {
        Some(true) => {}
        Some(false) => violations.push(GateViolation {
            field,
            detail: format!("candidate reports {field} = false"),
        }),
        None => violations.push(GateViolation {
            field,
            detail: "field missing from candidate".to_string(),
        }),
    }
}

/// Checks a freshly generated `BENCH_serve.json` (`candidate`) against
/// the committed baseline document.
///
/// Gated conditions:
///
/// * `identical_responses` must be `true` in the candidate — the
///   batched-vs-reversed replay produced byte-identical responses;
/// * `hit_rate_dominates_sweep` must be `true` — the cross-request
///   cache hit rate beat the single-sweep baseline rate (0.475);
/// * each of [`gated_counters`] must be exactly equal across the two
///   documents.
pub fn check_serve_gate(baseline: &str, candidate: &str) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    check_true_flag(candidate, "identical_responses", &mut violations);
    check_true_flag(candidate, "hit_rate_dominates_sweep", &mut violations);
    check_counters(baseline, candidate, &mut violations);
    violations
}

/// Whether a line carries a host-dependent measurement: wall-clock
/// (`*_ms`, `*_us`, the matrix's `wall_ms*` family) or the `peak_bytes`
/// memory proxy. Everything else in the artifacts is deterministic.
fn is_timing_line(line: &str) -> bool {
    line.contains("_ms\"")
        || line.contains("_us\"")
        || line.contains("wall_ms")
        || line.contains("peak_bytes")
}

/// `doc` with timing lines removed: the structural projection the
/// matrix and reference-artifact gates compare — the Rust counterpart
/// of the `grep -vE 'wall_ms|peak_bytes' | diff` shell steps this
/// module replaced.
pub fn strip_timings(doc: &str) -> String {
    doc.lines()
        .filter(|l| !is_timing_line(l))
        .collect::<Vec<_>>()
        .join(
            "
",
        )
}

/// Line-by-line compare of the two documents' timings-stripped
/// projections, appending one violation naming the first differing line.
fn check_structure(
    field: &'static str,
    baseline: &str,
    candidate: &str,
    violations: &mut Vec<GateViolation>,
) {
    let b = strip_timings(baseline);
    let c = strip_timings(candidate);
    if b == c {
        return;
    }
    let detail = b
        .lines()
        .zip(c.lines())
        .enumerate()
        .find(|(_, (lb, lc))| lb != lc)
        .map(|(i, (lb, lc))| {
            format!(
                "first differing stripped line {}: baseline {:?}, candidate {:?}",
                i + 1,
                lb.trim(),
                lc.trim()
            )
        })
        .unwrap_or_else(|| {
            format!(
                "stripped line counts differ: baseline {}, candidate {}",
                b.lines().count(),
                c.lines().count()
            )
        });
    violations.push(GateViolation { field, detail });
}

/// Checks a freshly generated `BENCH_matrix.json` (`candidate`) against
/// the committed baseline document, the same way [`check_sweep_gate`] /
/// [`check_serve_gate`] own their artifacts.
///
/// Gated conditions:
///
/// * each of [`gated_counters`] must be present in both documents and
///   exactly equal (first match = the aggregate totals block, which
///   `matrix_json` places before any per-cell fields);
/// * the timings-stripped documents must be line-identical — this holds
///   every per-cell verdict key (identity, ladder rungs, cell counters)
///   to the baseline, not just the totals.
pub fn check_matrix_gate(baseline: &str, candidate: &str) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    check_counters(baseline, candidate, &mut violations);
    check_structure("cells", baseline, candidate, &mut violations);
    violations
}

/// Checks a freshly regenerated reference artifact (`BENCH_split.json`,
/// `BENCH_drift.json`) against its committed copy: the timings-stripped
/// projections must be line-identical. One Rust gate with one failure
/// format, replacing the per-artifact `grep|diff` CI steps.
pub fn check_refs(baseline: &str, candidate: &str) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    check_structure("structure", baseline, candidate, &mut violations);
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "bench": "parallel_sweep",
  "identical_ladders": true,
  "certify_calls_fresh": 61,
  "speedup": null,
  "cache_hit_rate": 0.475,
  "requests_served": 0,
  "cross_request_cache_hits": 0,
  "certify_calls": 32,
  "cache_hits": 29,
  "cache_misses": 32,
  "cache_shortcircuits": 3,
  "cache_transfers": 0,
  "cache_invalidations": 0,
  "split_memo_hits": 17,
  "split_memo_misses": 547,
  "probes_scheduled": 61,
  "probes_deferred": 0,
  "deadline_degradations": 0,
  "warm_state_shared_hits": 0,
  "sessions_evicted": 0,
  "interner_hits": 0,
  "disjuncts_processed": 5120,
  "disjuncts_subsumed": 1234,
  "peak_disjuncts": 40,
  "peak_bytes": 65536,
  "arena_bytes": 0,
  "ladder": [
    {"n": 1, "attempted": 32, "verified": 30}
  ]
}
"#;

    const SERVE_DOC: &str = r#"{
  "bench": "serve",
  "identical_responses": true,
  "hit_rate_dominates_sweep": true,
  "cross_request_hit_rate": 0.62,
  "warm_batch_abstract_runs": 0,
  "requests_served": 29,
  "cross_request_cache_hits": 18,
  "certify_calls": 11,
  "cache_hits": 20,
  "cache_misses": 11,
  "cache_shortcircuits": 14,
  "cache_transfers": 2,
  "cache_invalidations": 0,
  "split_memo_hits": 0,
  "split_memo_misses": 310,
  "probes_scheduled": 44,
  "probes_deferred": 0,
  "deadline_degradations": 0,
  "warm_state_shared_hits": 1,
  "sessions_evicted": 3,
  "interner_hits": 0,
  "disjuncts_processed": 2048,
  "disjuncts_subsumed": 640,
  "peak_disjuncts": 12,
  "peak_bytes": 8192,
  "arena_bytes": 0
}
"#;

    #[test]
    fn whole_key_matching() {
        assert_eq!(json_u64(DOC, "certify_calls_fresh"), Some(61));
        // "certify_calls" comes after "certify_calls_fresh", yet the
        // closing quote keeps the longer key from matching first.
        assert_eq!(json_u64(DOC, "certify_calls"), Some(32));
        assert_eq!(json_u64(DOC, "certify_calls_f"), None);
        assert_eq!(json_u64(DOC, "disjuncts_subsumed"), Some(1234));
        assert_eq!(json_u64(DOC, "split_memo_hits"), Some(17));
        // "split_memo_hits" must never match inside "split_memo_misses".
        assert_eq!(json_u64(DOC, "split_memo_misses"), Some(547));
        assert_eq!(json_u64(DOC, "interner_hits"), Some(0));
        assert_eq!(json_bool(DOC, "identical_ladders"), Some(true));
        assert_eq!(json_raw(DOC, "speedup"), Some("null"));
        assert_eq!(json_raw(DOC, "cache_hit_rate"), Some("0.475"));
        assert_eq!(json_raw(DOC, "bench"), Some("\"parallel_sweep\""));
        assert_eq!(json_u64(DOC, "missing"), None);
        // Non-scalar values are refused, not mangled.
        assert_eq!(json_raw(DOC, "ladder"), None);
        // Nested keys resolve to their first occurrence.
        assert_eq!(json_u64(DOC, "n"), Some(1));
    }

    #[test]
    fn gate_passes_on_identical_counters() {
        assert!(check_sweep_gate(DOC, DOC).is_empty());
    }

    #[test]
    fn gate_catches_counter_drift() {
        let drifted = DOC.replace("\"certify_calls\": 32", "\"certify_calls\": 61");
        let v = check_sweep_gate(DOC, &drifted);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "certify_calls");
        assert!(v[0].detail.contains("baseline 32 != candidate 61"));
    }

    #[test]
    fn gate_catches_memo_and_interner_drift() {
        // A change that silently disables a ladder's or session's
        // bestSplit# memo (hits fall to 0) must fail the gate, and so
        // must interning coming back (its always-0 counter moving).
        let no_memo = DOC.replace("\"split_memo_hits\": 17", "\"split_memo_hits\": 0");
        let v = check_sweep_gate(DOC, &no_memo);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "split_memo_hits");
        // Even with a 0-hit baseline (every one-shot artifact), a change
        // in how many bestSplit# calls are computed fails.
        let memo_dead = DOC.replace("\"split_memo_misses\": 547", "\"split_memo_misses\": 0");
        let v = check_sweep_gate(DOC, &memo_dead);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "split_memo_misses");
        let interning = DOC.replace("\"interner_hits\": 0", "\"interner_hits\": 3");
        let v = check_sweep_gate(DOC, &interning);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "interner_hits");
        assert!(v[0].detail.contains("baseline 0 != candidate 3"));
    }

    #[test]
    fn gate_catches_service_counter_drift_on_the_static_path() {
        // The one-shot sweep never routes through a Session: service
        // traffic appearing on the static path fails the sweep gate.
        let routed = DOC.replace("\"requests_served\": 0", "\"requests_served\": 4");
        let v = check_sweep_gate(DOC, &routed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "requests_served");
        let hit = DOC.replace(
            "\"cross_request_cache_hits\": 0",
            "\"cross_request_cache_hits\": 2",
        );
        let v = check_sweep_gate(DOC, &hit);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cross_request_cache_hits");
    }

    #[test]
    fn serve_gate_passes_on_identical_counters() {
        assert!(check_serve_gate(SERVE_DOC, SERVE_DOC).is_empty());
    }

    #[test]
    fn serve_gate_catches_broken_responses_and_hit_rate() {
        let torn = SERVE_DOC.replace(
            "\"identical_responses\": true",
            "\"identical_responses\": false",
        );
        let v = check_serve_gate(SERVE_DOC, &torn);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "identical_responses");
        let cold = SERVE_DOC.replace(
            "\"hit_rate_dominates_sweep\": true",
            "\"hit_rate_dominates_sweep\": false",
        );
        let v = check_serve_gate(SERVE_DOC, &cold);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "hit_rate_dominates_sweep");
    }

    #[test]
    fn gate_catches_warm_state_counters_on_the_static_path() {
        // The one-shot sweep opens no shared sessions and evicts
        // nothing: either going non-zero there fails the sweep gate.
        for (field, from, to) in [
            ("warm_state_shared_hits", 0u64, 2u64),
            ("sessions_evicted", 0, 1),
        ] {
            let drifted = DOC.replace(
                &format!("\"{field}\": {from}"),
                &format!("\"{field}\": {to}"),
            );
            let v = check_sweep_gate(DOC, &drifted);
            assert_eq!(v.len(), 1, "{field}");
            assert_eq!(v[0].field, field);
        }
    }

    #[test]
    fn serve_gate_catches_sharing_and_eviction_drift() {
        // A change that silently disarms warm-state sharing (the
        // co-tenant stops joining) or stops evicting at the cap drifts
        // the serve baseline and fails.
        for (field, from) in [("warm_state_shared_hits", 1u64), ("sessions_evicted", 3)] {
            let drifted =
                SERVE_DOC.replace(&format!("\"{field}\": {from}"), &format!("\"{field}\": 0"));
            let v = check_serve_gate(SERVE_DOC, &drifted);
            assert_eq!(v.len(), 1, "{field}");
            assert_eq!(v[0].field, field);
            assert!(v[0]
                .detail
                .contains(&format!("baseline {from} != candidate 0")));
        }
    }

    #[test]
    fn serve_gate_catches_cross_request_hit_drift() {
        let fewer = SERVE_DOC.replace(
            "\"cross_request_cache_hits\": 18",
            "\"cross_request_cache_hits\": 3",
        );
        let v = check_serve_gate(SERVE_DOC, &fewer);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cross_request_cache_hits");
        assert!(v[0].detail.contains("baseline 18 != candidate 3"));
        let unserved = SERVE_DOC.replace("\"requests_served\": 29", "\"requests_served\": 7");
        let v = check_serve_gate(SERVE_DOC, &unserved);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "requests_served");
    }

    const MATRIX_DOC: &str = r#"{
  "bench": "matrix",
  "seed": 0,
  "cell_count": 6,
  "wall_ms_total": 512.250,
  "wall_ms_p50": 2.584,
  "wall_ms_max": 218.448,
  "totals": {
    "requests_served": 0,
    "cross_request_cache_hits": 0,
    "certify_calls": 118,
    "cache_hits": 260,
    "cache_misses": 118,
    "cache_shortcircuits": 44,
    "cache_transfers": 0,
    "cache_invalidations": 0,
    "split_memo_hits": 12,
    "split_memo_misses": 340,
    "probes_scheduled": 310,
    "probes_deferred": 14,
    "deadline_degradations": 5,
    "warm_state_shared_hits": 0,
    "sessions_evicted": 0,
    "interner_hits": 0,
    "disjuncts_processed": 40100,
    "disjuncts_subsumed": 900,
    "peak_disjuncts": 96,
    "peak_bytes": 1048576
  },
  "cells": [
    {
      "scenario": "blobs",
      "wall_ms": 109.040,
      "certify_calls": 21,
      "peak_bytes": 524288,
      "ladder": [
        {"n": 1, "attempted": 6, "verified": 6, "timeouts": 0, "budget_exhausted": 0}
      ]
    }
  ]
}
"#;

    #[test]
    fn the_gated_list_is_every_sum_counter() {
        // The union of the two hand-kept lists the table replaced (the
        // sweep/serve list and the matrix totals list), under the table's
        // names: no check was dropped.
        let mut gated: Vec<&str> = gated_counters().collect();
        gated.sort_unstable();
        let mut expected = vec![
            "certify_calls",
            "cache_hits",
            "cache_shortcircuits",
            "cache_misses",
            "cache_transfers",
            "cache_invalidations",
            "disjuncts_subsumed",
            "disjuncts_processed",
            "split_memo_hits",
            "split_memo_misses",
            "interner_hits",
            "requests_served",
            "cross_request_cache_hits",
            "probes_scheduled",
            "probes_deferred",
            "deadline_degradations",
            "warm_state_shared_hits",
            "sessions_evicted",
        ];
        expected.sort_unstable();
        assert_eq!(gated, expected);
        // Watermarks are recorded, never gated: drifting every one of
        // them passes all three counter gates.
        let drift = |doc: &str| {
            doc.replace("\"peak_disjuncts\": ", "\"peak_disjuncts\": 9")
                .replace("\"arena_bytes\": ", "\"arena_bytes\": 9")
                .replace("\"peak_bytes\": ", "\"peak_bytes\": 9")
        };
        assert!(check_sweep_gate(DOC, &drift(DOC)).is_empty());
        assert!(check_serve_gate(SERVE_DOC, &drift(SERVE_DOC)).is_empty());
        let mut totals = Vec::new();
        check_counters(MATRIX_DOC, &drift(MATRIX_DOC), &mut totals);
        assert!(totals.is_empty());
    }

    #[test]
    fn gate_catches_scheduler_counter_drift() {
        // A disarmed scheduler zeroes its issue count; an unbounded one
        // that starts deferring is a determinism bug. Both fail.
        let disarmed = DOC.replace("\"probes_scheduled\": 61", "\"probes_scheduled\": 0");
        let v = check_sweep_gate(DOC, &disarmed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "probes_scheduled");
        assert!(v[0].detail.contains("baseline 61 != candidate 0"));
        let deferring = SERVE_DOC.replace("\"probes_deferred\": 0", "\"probes_deferred\": 9");
        let v = check_serve_gate(SERVE_DOC, &deferring);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "probes_deferred");
        let degraded = DOC.replace(
            "\"deadline_degradations\": 0",
            "\"deadline_degradations\": 1",
        );
        let v = check_sweep_gate(DOC, &degraded);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "deadline_degradations");
    }

    #[test]
    fn matrix_gate_passes_on_identical_documents_and_ignores_timings() {
        assert!(check_matrix_gate(MATRIX_DOC, MATRIX_DOC).is_empty());
        // Wall-clock and peak_bytes drift — totals or cells — is not a
        // violation: the gate must hold on any CI runner.
        let slower = MATRIX_DOC
            .replace("\"wall_ms_max\": 218.448", "\"wall_ms_max\": 400.123")
            .replace("\"wall_ms\": 109.040", "\"wall_ms\": 250.000")
            .replace("\"peak_bytes\": 1048576", "\"peak_bytes\": 9999999")
            .replace("\"peak_bytes\": 524288", "\"peak_bytes\": 11111");
        assert!(check_matrix_gate(MATRIX_DOC, &slower).is_empty());
    }

    #[test]
    fn matrix_gate_catches_totals_and_cell_drift() {
        // Totals drift names the exact counter (plus the structural
        // mismatch, since the totals block is part of the document).
        let drifted = MATRIX_DOC.replace("\"probes_deferred\": 14", "\"probes_deferred\": 0");
        let v = check_matrix_gate(MATRIX_DOC, &drifted);
        assert!(v.iter().any(
            |x| x.field == "probes_deferred" && x.detail.contains("baseline 14 != candidate 0")
        ));
        // A per-cell change (a ladder rung) leaves every total intact but
        // fails the structural compare.
        let rung = MATRIX_DOC.replace(
            "{\"n\": 1, \"attempted\": 6, \"verified\": 6, \"timeouts\": 0, \"budget_exhausted\": 0}",
            "{\"n\": 1, \"attempted\": 6, \"verified\": 5, \"timeouts\": 0, \"budget_exhausted\": 0}",
        );
        let v = check_matrix_gate(MATRIX_DOC, &rung);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cells");
        assert!(v[0].detail.contains("first differing stripped line"));
        assert!(v[0].detail.contains("\\\"verified\\\": 5"));
    }

    #[test]
    fn refs_gate_strips_timings_and_catches_structure_drift() {
        let doc = "{\n  \"bench\": \"drift\",\n  \"cold_ms\": 231.669,\n  \"warm_ms\": 73.053,\n  \"dense_us\": 17.5,\n  \"cache_transfers\": 32,\n  \"identical_ladders\": true\n}\n";
        assert!(check_refs(doc, doc).is_empty());
        // Timing lines (any *_ms / *_us key) never gate.
        let slower = doc
            .replace("231.669", "999.000")
            .replace("\"dense_us\": 17.5", "\"dense_us\": 99.9");
        assert!(check_refs(doc, &slower).is_empty());
        // A counter or verdict line does.
        let fewer = doc.replace("\"cache_transfers\": 32", "\"cache_transfers\": 0");
        let v = check_refs(doc, &fewer);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "structure");
        assert!(v[0].detail.contains("cache_transfers"));
        // A gutted document reports the line-count mismatch.
        let gutted = doc.replace("  \"identical_ladders\": true\n", "");
        let v = check_refs(doc, &gutted);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].detail.contains("differing stripped line")
                || v[0].detail.contains("line counts differ")
        );
    }

    #[test]
    fn gate_catches_epoch_counter_drift_on_the_static_path() {
        // The stock sweep never mutates its dataset: certificates that
        // start transferring (or getting invalidated) there mean the
        // static path is crossing epoch boundaries it should never see.
        let transferring = DOC.replace("\"cache_transfers\": 0", "\"cache_transfers\": 5");
        let v = check_sweep_gate(DOC, &transferring);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cache_transfers");
        assert!(v[0].detail.contains("baseline 0 != candidate 5"));
        let invalidating = DOC.replace("\"cache_invalidations\": 0", "\"cache_invalidations\": 2");
        let v = check_sweep_gate(DOC, &invalidating);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cache_invalidations");
    }

    #[test]
    fn gate_catches_broken_ladders_and_missing_fields() {
        let broken = DOC.replace(
            "\"identical_ladders\": true",
            "\"identical_ladders\": false",
        );
        let v = check_sweep_gate(DOC, &broken);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "identical_ladders");

        let gutted = DOC.replace("  \"disjuncts_subsumed\": 1234,\n", "");
        let v = check_sweep_gate(DOC, &gutted);
        assert!(v.iter().any(
            |x| x.field == "disjuncts_subsumed" && x.detail.contains("missing from candidate")
        ));
        let v = check_sweep_gate(&gutted, DOC);
        assert!(
            v.iter()
                .any(|x| x.field == "disjuncts_subsumed"
                    && x.detail.contains("missing from baseline"))
        );
    }
}
