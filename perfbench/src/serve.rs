//! The serve-replay workload: one closed-loop client sends the generated
//! JSONL lines to a child `antidote serve --threads 1`, one line at a
//! time, waiting for each response before sending the next.

use crate::gen::{self, Req, Rng, Script, DATA_SEED, LINES, TENANTS};
use crate::json::{self, Json};
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile, tail};
use crate::{another_rep_fits, sys, RunArgs, RunResult};
use antidote_cli::service::Service;
use antidote_core::engine::{pool_stats, ExecContext};
use antidote_core::{
    Certifier, DomainKind, Request, RequestEngine, Response, Session, SessionConfig, Verdict,
    WarmStateIndex,
};
use antidote_data::{Benchmark, Dataset, DatasetDelta, DatasetRegistry, Scale};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Engine threads of the served process (1: the replay measures the
/// request path, not the pool).
pub const SERVE_THREADS: usize = 1;

/// Set-up samples a run takes at least (extra spawns when fewer replays
/// fit in the time budget).
const MIN_SETUPS: usize = 7;

/// Certify lines re-checked against a cold one-shot certification.
const SPOT_CHECKS: usize = 8;

/// One tenant's dataset as the service loads it, and its test points.
struct TenantData {
    train: Dataset,
    points: Vec<Vec<f64>>,
}

/// The generated inputs.
struct Inputs {
    tenants: Vec<TenantData>,
    script: Script,
    load_ms: f64,
}

fn domain_kind(id: &str) -> DomainKind {
    match id {
        "box" => DomainKind::Box,
        _ => DomainKind::Disjuncts,
    }
}

/// Generates every tenant's dataset (as the service's `load` will) and
/// the request lines for `seed`. Traced runs record `data.*` spans.
fn inputs(seed: u64, mut tracer: Option<&mut Tracer>) -> Inputs {
    let t = Instant::now();
    let tenants: Vec<TenantData> = TENANTS
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let bench = Benchmark::from_id(t.dataset).expect("tenant datasets are benchmark ids");
            let (train, test) = match tracer.as_deref_mut() {
                Some(tr) => {
                    let (pair, _) = tr.time("data.load", k as u64, None, || {
                        bench.load(Scale::Small, DATA_SEED)
                    });
                    tr.time("data.warm_indexes", k as u64, None, || {
                        pair.0.warm_indexes()
                    });
                    pair
                }
                None => {
                    let pair = bench.load(Scale::Small, DATA_SEED);
                    pair.0.warm_indexes();
                    pair
                }
            };
            let points = (0..test.len() as u32).map(|r| test.row_values(r)).collect();
            TenantData { train, points }
        })
        .collect();
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let points: Vec<Vec<Vec<f64>>> = tenants.iter().map(|t| t.points.clone()).collect();
    let rows: Vec<usize> = tenants.iter().map(|t| t.train.len()).collect();
    Inputs {
        script: gen::serve_script(seed, &points, &rows),
        tenants,
        load_ms,
    }
}

/// The `antidote` binary built beside this one.
fn service_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let exe = me.with_file_name("antidote");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("{} is not built", exe.display()))
    }
}

/// A running `antidote serve` child. Dropping it kills the child if it
/// is still running and waits for it.
struct Served {
    child: Child,
    /// `None` once closed: the service's reader thread only exits at EOF.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Served {
    fn spawn(exe: &Path) -> Result<Served, String> {
        let mut child = Command::new(exe)
            .args(["serve", "--threads", &SERVE_THREADS.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Served {
            child,
            stdin: Some(stdin),
            stdout,
        })
    }

    /// Sends one line and waits for its response line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("the service's input is closed")?;
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the service: {e}"))?;
        let mut buf = String::new();
        match self.stdout.read_line(&mut buf) {
            Ok(0) => Err("the service closed its output".to_string()),
            Ok(_) => Ok(buf.trim_end().to_string()),
            Err(e) => Err(format!("reading from the service: {e}")),
        }
    }

    /// Sends every `load` line; any refusal is an error.
    fn load(&mut self, script: &Script) -> Result<(), String> {
        for line in &script.loads {
            let resp = self.call(line)?;
            if !resp.starts_with("{\"ok\":true") {
                return Err(format!("load refused: {resp}"));
            }
        }
        Ok(())
    }

    /// Asks the service to stop and waits for it to exit cleanly.
    fn shutdown(&mut self) -> Result<(), String> {
        let resp = self.call("{\"op\":\"shutdown\"}")?;
        if resp != "{\"ok\":true,\"op\":\"shutdown\"}" {
            return Err(format!("unexpected shutdown response: {resp}"));
        }
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the service: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the service exited with {status}"))
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One replay through a fresh child process.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    lat_ms: Vec<f64>,
    responses: Vec<String>,
    metrics_line: String,
    rss_mb: f64,
    /// `cli.serve_loop.line` span per request line (traced passes only).
    line_spans: Vec<usize>,
}

fn pass(exe: &Path, script: &Script, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let t = Instant::now();
    let mut served = Served::spawn(exe)?;
    served.load(script)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut lat_ms = Vec::with_capacity(script.lines.len());
    let mut responses = Vec::with_capacity(script.lines.len());
    let mut line_spans = Vec::new();
    let t0 = Instant::now();
    for (i, line) in script.lines.iter().enumerate() {
        let a = Instant::now();
        let resp = served.call(line)?;
        let b = Instant::now();
        lat_ms.push((b - a).as_secs_f64() * 1e3);
        responses.push(resp);
        if let Some(tr) = tracer.as_deref_mut() {
            line_spans.push(tr.record("cli.serve_loop.line", i as u64, None, a, b));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let metrics_line = served.call("{\"op\":\"metrics\"}")?;
    let rss_mb = sys::peak_rss_mb(Some(served.child.id())).unwrap_or(0.0);
    served.shutdown()?;
    Ok(Pass {
        setup_s,
        wall_s,
        lat_ms,
        responses,
        metrics_line,
        rss_mb,
        line_spans,
    })
}

/// Spawns a child, loads the tenants and stops it: one set-up sample.
fn setup_only(exe: &Path, script: &Script) -> Result<f64, String> {
    let t = Instant::now();
    let mut served = Served::spawn(exe)?;
    served.load(script)?;
    let s = t.elapsed().as_secs_f64();
    served.shutdown()?;
    Ok(s)
}

/// FNV-1a over the response lines.
fn digest(responses: &[String], metrics_line: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in responses.iter().map(String::as_str).chain([metrics_line]) {
        for b in line.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The committed transcript digest for `seed`, if any.
fn reference_digest(seed: u64) -> Option<u64> {
    include_str!("../refs/serve-replay.digests")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (s, d) = l.split_once(' ')?;
            (s.parse::<u64>().ok()? == seed).then(|| u64::from_str_radix(d.trim(), 16).ok())?
        })
}

/// The expected answers to the script, derived without the service:
/// each line's dataset epoch and row count, and reference labels.
struct Oracle<'a> {
    tenants: &'a [TenantData],
    /// The first tenant's dataset at each epoch.
    epochs: Vec<Arc<Dataset>>,
    labels: BTreeMap<(usize, usize, usize), u64>,
}

impl<'a> Oracle<'a> {
    fn new(tenants: &'a [TenantData], script: &Script) -> Result<Oracle<'a>, String> {
        let registry = DatasetRegistry::new();
        let mut epochs = vec![registry.load("t0", tenants[0].train.clone())];
        for req in &script.reqs {
            if let Req::Delta { remove, .. } = req {
                let mut delta = DatasetDelta::new();
                for &id in remove {
                    delta.remove(id);
                }
                let (ds, _) = registry
                    .apply_delta_many("t0", &[delta])
                    .map_err(|e| format!("replaying a delta: {e}"))?;
                epochs.push(ds);
            }
        }
        Ok(Oracle {
            tenants,
            epochs,
            labels: BTreeMap::new(),
        })
    }

    fn dataset(&self, tenant: usize, epoch: usize) -> &Dataset {
        if tenant == 0 {
            &self.epochs[epoch]
        } else {
            &self.tenants[tenant].train
        }
    }

    /// `DTrace`'s label for a point at an epoch.
    fn label(&mut self, tenant: usize, epoch: usize, point: usize) -> u64 {
        if let Some(&l) = self.labels.get(&(tenant, epoch, point)) {
            return l;
        }
        let ds = self.dataset(tenant, epoch);
        let l = Certifier::new(ds)
            .depth(TENANTS[tenant].depth)
            .reference_label(&self.tenants[tenant].points[point]) as u64;
        self.labels.insert((tenant, epoch, point), l);
        l
    }
}

/// The dataset epoch each request line sees (deltas advance tenant 0).
fn line_epochs(script: &Script) -> Vec<usize> {
    let mut epoch = 0;
    script
        .reqs
        .iter()
        .map(|r| match r {
            Req::Delta { .. } => {
                epoch += 1;
                epoch
            }
            Req::Certify { tenant: 0, .. } => epoch,
            Req::Certify { .. } => 0,
        })
        .collect()
}

/// What a transcript check found.
#[derive(Debug, Default)]
struct Checked {
    failed: u64,
    robust: u64,
    certifies: u64,
}

/// Checks every response: status, echoed fields, epoch, row count and
/// reference label. Failures land on `r`.
fn check_transcript(
    oracle: &mut Oracle,
    script: &Script,
    responses: &[String],
    r: &mut RunResult,
) -> Checked {
    let mut c = Checked::default();
    let epochs = line_epochs(script);
    let mut reported = 0;
    for (i, (req, resp)) in script.reqs.iter().zip(responses).enumerate() {
        let v = json::parse(resp).unwrap_or(Json::Null);
        let s = |k: &str| v.get(k).and_then(Json::str).map(str::to_string);
        let n = |k: &str| v.num_at(k).map(|x| x as u64);
        let ok = v.get("ok") == Some(&Json::Bool(true));
        let good = ok
            && match req {
                Req::Certify {
                    tenant,
                    point,
                    n: budget,
                } => {
                    c.certifies += 1;
                    let verdict = s("verdict");
                    if verdict.as_deref() == Some("robust") {
                        c.robust += 1;
                    }
                    s("op").as_deref() == Some("certify")
                        && s("handle").as_deref() == Some(TENANTS[*tenant].handle)
                        && n("n") == Some(*budget as u64)
                        && n("epoch") == Some(epochs[i] as u64)
                        && matches!(verdict.as_deref(), Some("robust" | "unknown"))
                        && n("label") == Some(oracle.label(*tenant, epochs[i], *point))
                }
                Req::Delta { tenant, .. } => {
                    s("op").as_deref() == Some("delta")
                        && s("handle").as_deref() == Some(TENANTS[*tenant].handle)
                        && n("epoch") == Some(epochs[i] as u64)
                        && n("rows") == Some(oracle.dataset(0, epochs[i]).len() as u64)
                }
            };
        if !good {
            c.failed += 1;
            if reported < 5 {
                reported += 1;
                r.problem(format!("serve-replay line {i}: unexpected response {resp}"));
            }
        }
    }
    if responses.len() != script.reqs.len() {
        r.problem(format!(
            "serve-replay: {} responses to {} lines",
            responses.len(),
            script.reqs.len()
        ));
        c.failed += script.reqs.len().saturating_sub(responses.len()) as u64;
    }
    c
}

/// Re-certifies a seeded sample of certify lines cold, through the
/// one-shot `Certifier`. The answers must agree, except that a
/// certificate carried across a removal may prove what a cold run on the
/// smaller set cannot.
fn spot_check(
    oracle: &Oracle,
    script: &Script,
    responses: &[String],
    seed: u64,
    r: &mut RunResult,
) -> u64 {
    let epochs = line_epochs(script);
    let mut lines: Vec<usize> = (0..script.reqs.len())
        .filter(|&i| matches!(script.reqs[i], Req::Certify { .. }))
        .collect();
    Rng::new(seed, 3).shuffle(&mut lines);
    let mut failed = 0;
    for &i in lines.iter().take(SPOT_CHECKS) {
        let Req::Certify { tenant, point, n } = script.reqs[i] else {
            unreachable!("filtered to certify lines")
        };
        let t = &TENANTS[tenant];
        let cold = Certifier::new(oracle.dataset(tenant, epochs[i]))
            .depth(t.depth)
            .domain(domain_kind(t.domain))
            .certify(&oracle.tenants[tenant].points[point], n);
        let served = json::parse(&responses[i])
            .ok()
            .and_then(|v| v.get("verdict").and_then(Json::str).map(str::to_string));
        let agrees = match (served.as_deref(), cold.verdict) {
            (Some("robust"), Verdict::Robust) | (Some("unknown"), Verdict::Unknown) => true,
            (Some("robust"), Verdict::Unknown) => epochs[i] > 0,
            _ => false,
        };
        if !agrees {
            failed += 1;
            r.problem(format!(
                "serve-replay line {i}: served {served:?}, cold certification {:?}",
                cold.verdict
            ));
        }
    }
    failed
}

/// Reads a counter from a `metrics` response line.
fn counter(metrics_line: &str, key: &str) -> f64 {
    json::parse(metrics_line)
        .ok()
        .and_then(|v| v.num_at(key))
        .unwrap_or(0.0)
}

/// The work counters a traced or in-process replay must reproduce.
const WORK_COUNTERS: [&str; 5] = [
    "certify_calls",
    "cache_hits",
    "split_memo_misses",
    "cache_transfers",
    "requests_served",
];

fn meta(inp: &Inputs, args: &RunArgs, r: &mut RunResult) {
    let tenants: Vec<String> = TENANTS
        .iter()
        .zip(&inp.tenants)
        .map(|(t, d)| {
            format!(
                "{{\"handle\":{},\"dataset\":{},\"depth\":{},\"domain\":{},\"train_rows\":{},\"test_points\":{}}}",
                json::quote(t.handle),
                json::quote(t.dataset),
                t.depth,
                json::quote(t.domain),
                d.train.len(),
                d.points.len()
            )
        })
        .collect();
    r.meta.extend([
        ("tenants", format!("[{}]", tenants.join(","))),
        ("data_seed", DATA_SEED.to_string()),
        ("lines", inp.script.lines.len().to_string()),
        ("engine_threads", SERVE_THREADS.to_string()),
        ("seed", args.seed.to_string()),
    ]);
}

/// Checks one pass's transcript: per-line checks, and the committed
/// digest when this seed has one. Returns the failed lines.
fn check_pass(
    oracle: &mut Oracle,
    inp: &Inputs,
    p: &Pass,
    seed: u64,
    r: &mut RunResult,
) -> Checked {
    let mut c = check_transcript(oracle, &inp.script, &p.responses, r);
    let d = digest(&p.responses, &p.metrics_line);
    if let Some(want) = reference_digest(seed) {
        if d != want {
            r.problem(format!(
                "serve-replay: transcript digest {d:016x} differs from the reference {want:016x}"
            ));
            c.failed = inp.script.lines.len() as u64;
        }
    }
    if !r.meta.iter().any(|(k, _)| *k == "transcript_digest") {
        r.meta
            .push(("transcript_digest", json::quote(&format!("{d:016x}"))));
    }
    c
}

/// The untraced run: fresh-process replays for `args.seconds`.
pub fn run(args: &RunArgs) -> RunResult {
    let mut r = RunResult::default();
    let exe = match service_exe() {
        Ok(e) => e,
        Err(e) => {
            r.problem(e);
            return r;
        }
    };
    let inp = inputs(args.seed, None);
    meta(&inp, args, &mut r);
    let mut oracle = match Oracle::new(&inp.tenants, &inp.script) {
        Ok(o) => o,
        Err(e) => {
            r.problem(e);
            return r;
        }
    };
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while another_rep_fits(passes.len(), t0.elapsed().as_secs_f64(), args.seconds) {
        match pass(&exe, &inp.script, None) {
            Ok(p) => passes.push(p),
            Err(e) => {
                r.problem(e);
                return r;
            }
        }
    }
    let mut setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setup_s.len() < MIN_SETUPS {
        match setup_only(&exe, &inp.script) {
            Ok(s) => setup_s.push(s),
            Err(e) => {
                r.problem(e);
                return r;
            }
        }
    }
    let mut robust_frac = 0.0;
    for (k, p) in passes.iter().enumerate() {
        r.attempted += p.responses.len() as u64;
        let c = check_pass(&mut oracle, &inp, p, args.seed, &mut r);
        r.failed += c.failed;
        if p.responses != passes[0].responses || p.metrics_line != passes[0].metrics_line {
            r.problem(format!(
                "serve-replay: pass {k} transcript differs from pass 0"
            ));
        }
        robust_frac = c.robust as f64 / c.certifies.max(1) as f64;
    }
    r.failed += spot_check(
        &oracle,
        &inp.script,
        &passes[0].responses,
        args.seed,
        &mut r,
    );
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lat_ms.iter().copied())
        .collect();
    let hi = tail(&lat);
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
    let m = &mut r.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("wall_s", wall_s);
    m.insert("ops_per_s", LINES as f64 / wall_s);
    m.insert("op_p50_ms", percentile(&lat, 500).value);
    m.insert("op_p99_ms", hi.value);
    m.insert("verified_frac", robust_frac);
    m.insert("ok_frac", 1.0 - r.failed as f64 / r.attempted.max(1) as f64);
    m.insert("peak_rss_mb", median(&rss));
    r.meta.extend([
        ("reps", passes.len().to_string()),
        ("rep_wall_s", format!("{walls:?}")),
        ("setup_reps", setup_s.len().to_string()),
        ("op_samples", hi.samples.to_string()),
        ("op_tail_pct", hi.pct.to_string()),
        ("op_tail_beyond", hi.beyond.to_string()),
    ]);
    r
}

/// The traced run: an untraced and a traced replay (their difference is
/// the tracing overhead), then the same lines through an in-process
/// `Service::handle_line`, then through `Session` and `RequestEngine`
/// directly, each on fresh state.
pub fn run_traced(args: &RunArgs) -> RunResult {
    let mut r = RunResult::default();
    let exe = match service_exe() {
        Ok(e) => e,
        Err(e) => {
            r.problem(e);
            return r;
        }
    };
    let mut tr = Tracer::new();
    let inp = inputs(args.seed, Some(&mut tr));
    meta(&inp, args, &mut r);
    let mut oracle = match Oracle::new(&inp.tenants, &inp.script) {
        Ok(o) => o,
        Err(e) => {
            r.problem(e);
            return r;
        }
    };
    let (plain, traced) = match pass(&exe, &inp.script, None)
        .and_then(|p| Ok((p, pass(&exe, &inp.script, Some(&mut tr))?)))
    {
        Ok(pair) => pair,
        Err(e) => {
            r.problem(e);
            return r;
        }
    };
    for p in [&plain, &traced] {
        r.attempted += p.responses.len() as u64;
        let c = check_pass(&mut oracle, &inp, p, args.seed, &mut r);
        r.failed += c.failed;
    }
    let lines = &inp.script.lines;

    // One layer down: the service in this process, on fresh state.
    let mut svc = Service::new(SERVE_THREADS);
    for line in &inp.script.loads {
        svc.handle_line(line);
    }
    let pool0 = pool_stats();
    let mut handle_spans = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let ((resp, _), id) = tr.time(
            "cli.service.handle_line",
            i as u64,
            Some(traced.line_spans[i]),
            || svc.handle_line(line),
        );
        handle_spans.push(id);
        if resp != traced.responses[i] {
            r.problem(format!(
                "serve-replay line {i}: in-process response {resp} differs from the served {}",
                traced.responses[i]
            ));
        }
    }
    let pool1 = pool_stats();
    let (in_process_metrics, _) = svc.handle_line("{\"op\":\"metrics\"}");
    let svc_counters = svc.metrics().snapshot();
    // Release the service's warm state before the next replay.
    drop(svc);

    // Two layers down: sessions and the request engine, on fresh state.
    let registry = DatasetRegistry::new();
    let index = Arc::new(WarmStateIndex::new());
    let ctx = ExecContext::new().threads(SERVE_THREADS);
    let engine = RequestEngine::new();
    let sessions: Vec<Arc<Session>> = TENANTS
        .iter()
        .zip(&inp.tenants)
        .map(|(t, d)| {
            let cfg = SessionConfig {
                depth: t.depth,
                domain: domain_kind(t.domain),
                ..SessionConfig::default()
            };
            let stored = registry.load(t.handle, d.train.clone());
            Arc::new(Session::open_shared(&index, stored, cfg, ctx.metrics()))
        })
        .collect();
    let epochs = line_epochs(&inp.script);
    let mut warm_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut delta_ms = Vec::new();
    for (i, req) in inp.script.reqs.iter().enumerate() {
        let parent = Some(handle_spans[i]);
        let handle_ms = tr.spans()[handle_spans[i]].dur_ns() as f64 / 1e6;
        match req {
            Req::Certify { tenant, point, n } => {
                let before = ctx.metrics().cross_request_cache_hits();
                let request = Request::Certify {
                    x: inp.tenants[*tenant].points[*point].clone(),
                    n: *n,
                };
                let (responses, _) = tr.time("core.session.submit", i as u64, parent, || {
                    engine.submit(&[(Arc::clone(&sessions[*tenant]), request)], &ctx)
                });
                if ctx.metrics().cross_request_cache_hits() > before {
                    warm_ms.push(handle_ms);
                } else {
                    cold_ms.push(handle_ms);
                }
                let served = json::parse(&traced.responses[i]).unwrap_or(Json::Null);
                let same = match responses.first() {
                    Some(Response::Certify {
                        verdict,
                        label,
                        epoch,
                        ..
                    }) => {
                        let v = match verdict {
                            Verdict::Robust => "robust",
                            Verdict::Unknown => "unknown",
                            _ => "other",
                        };
                        served.get("verdict").and_then(Json::str) == Some(v)
                            && served.num_at("label") == Some(*label as f64)
                            && *epoch == epochs[i] as u64
                    }
                    _ => false,
                };
                if !same {
                    r.problem(format!(
                        "serve-replay line {i}: session answer {responses:?} differs from the served {}",
                        traced.responses[i]
                    ));
                }
            }
            Req::Delta { tenant, remove } => {
                delta_ms.push(handle_ms);
                let mut delta = DatasetDelta::new();
                for &id in remove {
                    delta.remove(id);
                }
                let handle = TENANTS[*tenant].handle;
                let (applied, _) =
                    tr.time("data.registry.apply_delta_many", i as u64, parent, || {
                        registry.apply_delta_many(handle, &[delta])
                    });
                match applied {
                    Ok((ds, summaries)) => {
                        tr.time("core.session.advance", i as u64, parent, || {
                            sessions[*tenant].advance(ds, &summaries, ctx.metrics())
                        });
                    }
                    Err(e) => r.problem(format!("serve-replay line {i}: delta refused: {e}")),
                }
            }
        }
    }
    let session_counters = ctx.metrics().snapshot();

    // Work counters: untraced, traced, in-process service and session
    // replays must all have done the same work.
    let session_work = [
        session_counters.certify_calls,
        session_counters.cache_hits,
        session_counters.split_memo_misses,
        session_counters.cache_transfers,
        session_counters.requests_served,
    ];
    for (k, key) in WORK_COUNTERS.iter().enumerate() {
        let want = counter(&plain.metrics_line, key);
        let got = [
            ("traced", counter(&traced.metrics_line, key)),
            ("in-process", counter(&in_process_metrics, key)),
            ("session", session_work[k] as f64),
        ];
        for (who, v) in got {
            if v != want {
                r.problem(format!(
                    "serve-replay: {who} replay counted {key} = {v}, the untraced replay {want}"
                ));
            }
        }
    }

    let t = spans::totals(tr.spans());
    let ms = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e6);
    let self_ms = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
    let ml = &plain.metrics_line;
    let c = |key: &str| counter(ml, key);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let overhead_s = traced.wall_s - plain.wall_s;
    let m = &mut r.metrics;
    m.insert("data.load_ms", inp.load_ms);
    m.insert("data.arena_bytes", svc_counters.arena_bytes as f64);
    m.insert(
        "data.registry.apply_delta_ms",
        ms("data.registry.apply_delta_many"),
    );
    m.insert("tree.dtrace_ms", 0.0);
    m.insert("tree.dtrace_calls", 0.0);
    m.insert("core.score.best_split_us", 0.0);
    m.insert("core.score.best_split_computed", c("split_memo_misses"));
    m.insert("core.learner.run_abstract_ms", 0.0);
    m.insert(
        "core.learner.disjuncts_processed",
        svc_counters.disjuncts_processed as f64,
    );
    m.insert(
        "core.learner.peak_disjuncts",
        svc_counters.peak_disjuncts as f64,
    );
    m.insert(
        "core.learner.subsumed_ratio",
        ratio(
            svc_counters.disjuncts_subsumed as f64,
            svc_counters.disjuncts_processed as f64,
        ),
    );
    m.insert(
        "core.memo.hit_rate",
        ratio(
            c("split_memo_hits"),
            c("split_memo_hits") + c("split_memo_misses"),
        ),
    );
    m.insert("core.memo.interner_hits", svc_counters.interner_hits as f64);
    m.insert("core.verdict.dominance_ms", 0.0);
    m.insert("core.certify.calls", c("certify_calls"));
    m.insert("core.certify.self_ms", 0.0);
    m.insert(
        "core.cache.hit_rate",
        ratio(c("cache_hits"), c("cache_hits") + c("cache_misses")),
    );
    m.insert("core.cache.shortcircuits", c("cache_shortcircuits"));
    m.insert("core.cache.transfers", c("cache_transfers"));
    m.insert("core.cache.invalidations", c("cache_invalidations"));
    m.insert("core.sweep.probes", c("probes_scheduled"));
    m.insert("core.sweep.rungs", 0.0);
    m.insert("core.sweep.deferred", c("probes_deferred"));
    m.insert(
        "core.pool.batches",
        (pool1.batches_dispatched - pool0.batches_dispatched) as f64,
    );
    m.insert(
        "core.pool.reuse",
        (pool1.batches_reusing_workers - pool0.batches_reusing_workers) as f64,
    );
    m.insert("core.engine.cpu_util", 0.0);
    m.insert("core.session.certify_ms", ms("core.session.submit"));
    m.insert("core.session.advance_ms", ms("core.session.advance"));
    m.insert(
        "core.session.cross_request_hit_rate",
        c("cross_request_hit_rate"),
    );
    m.insert("cli.service.self_ms", self_ms("cli.service.handle_line"));
    m.insert("cli.service.certify_warm_p50_ms", median(&warm_ms));
    m.insert("cli.service.certify_cold_p50_ms", median(&cold_ms));
    m.insert("cli.service.delta_p50_ms", median(&delta_ms));
    m.insert("cli.serve_loop.self_ms", self_ms("cli.serve_loop.line"));
    m.insert("trace.overhead_ms", overhead_s * 1e3);
    m.insert("trace.overhead_frac", overhead_s / plain.wall_s);
    m.insert("trace.replayed_ops", lines.len() as f64);
    r.meta.extend([
        ("untraced_wall_s", plain.wall_s.to_string()),
        ("traced_wall_s", traced.wall_s.to_string()),
        ("warm_certify_lines", warm_ms.len().to_string()),
        ("cold_certify_lines", cold_ms.len().to_string()),
        ("spans", tr.spans().len().to_string()),
    ]);
    r.spans = Some(tr.to_jsonl());
    r
}

/// The transcript digest of `seed`'s replay, computed in-process (for
/// refreshing `refs/serve-replay.digests`).
pub fn bless_digest(seed: u64) -> String {
    let inp = inputs(seed, None);
    let mut svc = Service::new(SERVE_THREADS);
    for line in &inp.script.loads {
        svc.handle_line(line);
    }
    let responses: Vec<String> = inp
        .script
        .lines
        .iter()
        .map(|l| svc.handle_line(l).0)
        .collect();
    let (metrics_line, _) = svc.handle_line("{\"op\":\"metrics\"}");
    format!("{seed} {:016x}", digest(&responses, &metrics_line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_line() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["x".to_string(), "z".to_string()];
        assert_eq!(digest(&a, "m"), digest(&a.clone(), "m"));
        assert_ne!(digest(&a, "m"), digest(&b, "m"));
        assert_ne!(digest(&a, "m"), digest(&a, "n"));
        // Line boundaries count.
        assert_ne!(
            digest(&["ab".to_string()], ""),
            digest(&["a".to_string(), "b".to_string()], "")
        );
    }

    #[test]
    fn committed_digests_parse() {
        let text = include_str!("../refs/serve-replay.digests");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (seed, d) = line.split_once(' ').expect("seed and digest");
            assert_eq!(
                reference_digest(seed.parse().unwrap()).map(|x| format!("{x:016x}")),
                Some(d.to_string())
            );
        }
    }

    #[test]
    fn epochs_advance_only_the_first_tenant() {
        let script = Script {
            loads: Vec::new(),
            reqs: vec![
                Req::Certify {
                    tenant: 0,
                    point: 0,
                    n: 1,
                },
                Req::Delta {
                    tenant: 0,
                    remove: vec![1],
                },
                Req::Certify {
                    tenant: 1,
                    point: 0,
                    n: 1,
                },
                Req::Certify {
                    tenant: 0,
                    point: 0,
                    n: 1,
                },
                Req::Delta {
                    tenant: 0,
                    remove: vec![2],
                },
            ],
            lines: Vec::new(),
        };
        assert_eq!(line_epochs(&script), vec![0, 1, 0, 1, 2]);
    }
}
