//! `BENCHMARK.json` at the repository root describes exactly what the
//! benchmark prints, within the limits its format allows.

use antidote_perfbench::json::{self, Json};
use antidote_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "at most 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Json) -> Vec<&str> {
    v.obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn str_list(v: &Json) -> Vec<&str> {
    v.arr()
        .expect("an array")
        .iter()
        .map(|s| s.str().expect("strings"))
        .collect()
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn top_level_shape() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths = str_list(b.get("paths").unwrap());
    assert_eq!(paths, ["perfbench"]);
    for p in &paths {
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
    }
    let command = str_list(b.get("command").unwrap());
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command.iter().all(|a| a.len() <= 200));
    assert_eq!(command, ["bash", "perfbench/run.sh"]);
    // Every file the command names lies under `paths`.
    for arg in &command[1..] {
        assert!(
            paths.iter().any(|p| arg.starts_with(&format!("{p}/"))),
            "{arg}"
        );
    }
    let secs = b.num_at("run_seconds").expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}

#[test]
fn workloads_match_the_runner() {
    let b = benchmark_json();
    let w = b.get("workloads").unwrap().arr().unwrap();
    assert!((2..=8).contains(&w.len()));
    let names: Vec<&str> = w
        .iter()
        .map(|x| {
            assert_eq!(keys(x), ["name", "why"]);
            let why = x.get("why").and_then(Json::str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            x.get("name").and_then(Json::str).unwrap()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn metrics_match_the_runner() {
    let b = benchmark_json();
    let e2e = b.get("end_to_end").unwrap().arr().unwrap();
    assert!((1..=16).contains(&e2e.len()));
    assert_eq!(e2e.len(), END_TO_END.len());
    for (x, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(x), ["better", "bound", "name", "unit"]);
        assert_eq!(x.get("name").and_then(Json::str), Some(name));
        assert_eq!(x.get("unit").and_then(Json::str), Some(unit));
        assert_eq!(x.get("better").and_then(Json::str), Some(better.as_str()));
        assert_eq!(x.num_at("bound"), Some(bound));
        assert!(bound > 0.0 && bound <= 0.25, "{name}");
    }
    // Set-up time is bounded, lower is better, and has the largest bound.
    let setup = END_TO_END
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.1, setup.2.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));

    let layer = b.get("per_layer").unwrap().arr().unwrap();
    assert!((1..=128).contains(&layer.len()));
    assert_eq!(layer.len(), PER_LAYER.len());
    for (x, (name, unit, better)) in layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(x), ["better", "name", "unit"]);
        assert_eq!(x.get("name").and_then(Json::str), Some(name));
        assert_eq!(x.get("unit").and_then(Json::str), Some(unit));
        assert_eq!(x.get("better").and_then(Json::str), Some(better.as_str()));
    }
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0));
    for n in names {
        assert!(valid_name(n), "{n}");
        assert!(seen.insert(n), "{n} used twice");
    }
    for u in END_TO_END
        .iter()
        .map(|m| m.1)
        .chain(PER_LAYER.iter().map(|m| m.1))
    {
        assert!(valid_unit(u), "{u}");
    }
}
