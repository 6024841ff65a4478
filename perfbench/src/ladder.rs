//! The Fig-6 ladder workloads: the §6.1 protocol (`sweep_in`) over every
//! test point of one dataset, checked against a committed ladder.

use crate::gen::{point_order, DATA_SEED};
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile, tail};
use crate::{another_rep_fits, sys, RunArgs, RunResult};
use antidote_core::engine::{pool_stats, ExecContext, MetricsSnapshot};
use antidote_core::learner::run_abstract;
use antidote_core::score::best_split_abs;
use antidote_core::verdict::all_terminals_dominated_by;
use antidote_core::{sweep_in, Certifier, DomainKind, SweepConfig, SweepPoint, Verdict};
use antidote_data::{Benchmark, Dataset, Scale, Subset};
use antidote_domains::{AbstractSet, CprobTransformer};
use std::time::Instant;

/// One ladder workload.
#[derive(Debug, Clone, Copy)]
pub struct LadderWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Dataset (at [`Scale::Small`], generated with [`DATA_SEED`]).
    pub bench: Benchmark,
    /// Trace depth.
    pub depth: usize,
    /// Abstract domain.
    pub domain: DomainKind,
    /// Engine threads.
    pub threads: usize,
    /// Largest budget the ladder may probe (`None` = `|T|`).
    pub max_n: Option<usize>,
    /// The expected ladder, in [`format_rungs`] form.
    pub reference: &'static str,
}

/// The disjunct-explosion regime: wdbc, Disjuncts, ladder capped at n ≤ 2.
pub const FIG6_WDBC: LadderWorkload = LadderWorkload {
    name: "fig6-wdbc",
    bench: Benchmark::Wdbc,
    depth: 2,
    domain: DomainKind::Disjuncts,
    threads: 2,
    max_n: Some(2),
    reference: include_str!("../refs/fig6-wdbc.ladder"),
};

/// The scoring-kernel regime: MNIST-1-7 binary, Box, uncapped ladder.
pub const FIG6_MNIST_BOX: LadderWorkload = LadderWorkload {
    name: "fig6-mnist-box",
    bench: Benchmark::Mnist17Binary,
    depth: 2,
    domain: DomainKind::Box,
    threads: 2,
    max_n: None,
    reference: include_str!("../refs/fig6-mnist-box.ladder"),
};

/// A ladder's verdict projection: `(n, attempted, verified)` per rung.
pub type Rungs = Vec<(usize, usize, usize)>;

/// The verdict projection of a sweep.
pub fn rungs(points: &[SweepPoint]) -> Rungs {
    points
        .iter()
        .map(|p| (p.n, p.attempted, p.verified))
        .collect()
}

/// One `n attempted verified` line per rung.
pub fn format_rungs(r: &Rungs) -> String {
    r.iter().map(|(n, a, v)| format!("{n} {a} {v}\n")).collect()
}

/// Parses [`format_rungs`] output; `#` lines are comments.
pub fn parse_rungs(text: &str) -> Result<Rungs, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<usize> = l
                .split_whitespace()
                .map(|x| x.parse().map_err(|_| format!("bad rung line '{l}'")))
                .collect::<Result<_, _>>()?;
            match f[..] {
                [n, a, v] => Ok((n, a, v)),
                _ => Err(format!("bad rung line '{l}'")),
            }
        })
        .collect()
}

/// The generated inputs and the set-up times that produced them.
struct Inputs {
    train: Dataset,
    points: Vec<Vec<f64>>,
    setup_s: Vec<f64>,
    load_ms: Vec<f64>,
}

/// Set-up repetitions: at least this many …
const MIN_SETUPS: usize = 5;
/// … and until this much time was spent, …
const MIN_SETUP_S: f64 = 0.5;
/// … but never more than this many.
const MAX_SETUPS: usize = 50;

/// Generates the dataset and warms its indexes, repeatedly, and orders
/// the test points by `seed`. Traced runs record `data.*` spans.
fn setup(w: &LadderWorkload, seed: u64, mut tracer: Option<&mut Tracer>) -> Inputs {
    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    loop {
        let k = setup_s.len() as u64;
        let t = Instant::now();
        let (train, test) = match tracer.as_deref_mut() {
            Some(tr) => {
                let root = tr.begin("bench.setup", k, None);
                let (pair, load) = tr.time("data.load", k, Some(root), || {
                    w.bench.load(Scale::Small, DATA_SEED)
                });
                let (_, warm) =
                    tr.time("data.warm_indexes", k, Some(root), || pair.0.warm_indexes());
                tr.end(root);
                let s = tr.spans();
                load_ms.push((s[load].dur_ns() + s[warm].dur_ns()) as f64 / 1e6);
                pair
            }
            None => {
                let pair = w.bench.load(Scale::Small, DATA_SEED);
                pair.0.warm_indexes();
                pair
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        let spent: f64 = setup_s.iter().sum();
        if setup_s.len() >= MAX_SETUPS || (setup_s.len() >= MIN_SETUPS && spent >= MIN_SETUP_S) {
            let points = point_order(seed, test.len())
                .into_iter()
                .map(|i| test.row_values(i as u32))
                .collect();
            return Inputs {
                train,
                points,
                setup_s,
                load_ms,
            };
        }
    }
}

/// One timed ladder.
struct Rep {
    wall_s: f64,
    ladder: Vec<SweepPoint>,
    counters: MetricsSnapshot,
    pool_batches: u64,
    pool_reuse: u64,
    cpu_util: f64,
}

fn sweep_config(w: &LadderWorkload) -> SweepConfig {
    SweepConfig {
        depth: w.depth,
        domain: w.domain,
        timeout: None,
        threads: w.threads,
        max_n: w.max_n,
        ..SweepConfig::default()
    }
}

/// Runs the ladder once under a fresh context (fresh cache), inside a
/// `core.sweep.sweep_in` span when traced.
fn sweep_once(w: &LadderWorkload, inp: &Inputs, tracer: Option<&mut Tracer>) -> Rep {
    let cfg = sweep_config(w);
    let ctx = ExecContext::new().threads(w.threads);
    let pool0 = pool_stats();
    let cpu0 = sys::process_cpu_s();
    let t = Instant::now();
    let ladder = match tracer {
        Some(tr) => {
            tr.time("core.sweep.sweep_in", 0, None, || {
                sweep_in(&inp.train, &inp.points, &cfg, &ctx)
            })
            .0
        }
        None => sweep_in(&inp.train, &inp.points, &cfg, &ctx),
    };
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let pool1 = pool_stats();
    Rep {
        wall_s,
        ladder,
        counters: ctx.metrics().snapshot(),
        pool_batches: pool1.batches_dispatched - pool0.batches_dispatched,
        pool_reuse: pool1.batches_reusing_workers - pool0.batches_reusing_workers,
        cpu_util: cpu_s / (wall_s * w.threads as f64),
    }
}

/// Checks one ladder against the reference; returns the failed ops.
fn check(w: &LadderWorkload, rep: &Rep, points: usize, r: &mut RunResult) -> u64 {
    let expected = match parse_rungs(w.reference) {
        Ok(e) => e,
        Err(e) => {
            r.problem(format!("{}: unreadable reference: {e}", w.name));
            return points as u64;
        }
    };
    let got = rungs(&rep.ladder);
    if got != expected {
        r.problem(format!(
            "{}: ladder differs from the reference\n  got:      {got:?}\n  expected: {expected:?}",
            w.name
        ));
        return points as u64;
    }
    // A point fails at most once (a failed probe ends its ladder), so the
    // summed per-rung failures count failed ladders.
    let failed: usize = rep
        .ladder
        .iter()
        .map(|p| p.timeouts + p.budget_exhausted)
        .sum();
    if failed > 0 {
        r.problem(format!("{}: {failed} ladder(s) hit a limit", w.name));
    }
    failed as u64
}

/// Fraction verified at the last rung where any point was verified.
fn verified_frac(ladder: &[SweepPoint]) -> f64 {
    ladder
        .iter()
        .rev()
        .find(|p| p.verified > 0)
        .map_or(0.0, SweepPoint::fraction_verified)
}

fn meta(w: &LadderWorkload, inp: &Inputs, args: &RunArgs, r: &mut RunResult) {
    let domain = w.domain.id().to_string();
    r.meta.extend([
        ("dataset", crate::json::quote(w.bench.id())),
        ("data_seed", DATA_SEED.to_string()),
        ("train_rows", inp.train.len().to_string()),
        ("features", inp.train.n_features().to_string()),
        ("test_points", inp.points.len().to_string()),
        ("depth", w.depth.to_string()),
        ("domain", crate::json::quote(&domain)),
        ("engine_threads", w.threads.to_string()),
        (
            "max_n",
            w.max_n.map_or("null".to_string(), |n| n.to_string()),
        ),
        ("seed", args.seed.to_string()),
        ("setup_reps", inp.setup_s.len().to_string()),
    ]);
}

/// The untraced run: repeated ladders for `args.seconds`.
pub fn run(w: &LadderWorkload, args: &RunArgs) -> RunResult {
    let mut r = RunResult::default();
    let inp = setup(w, args.seed, None);
    meta(w, &inp, args, &mut r);
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while another_rep_fits(reps.len(), t0.elapsed().as_secs_f64(), args.seconds) {
        let rep = sweep_once(w, &inp, None);
        r.attempted += inp.points.len() as u64;
        r.failed += check(w, &rep, inp.points.len(), &mut r);
        reps.push(rep);
    }
    let walls: Vec<f64> = reps.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    // Every ladder of a repetition is submitted in one `sweep_in` call
    // and completes when it returns: each op's latency is that call's.
    let op_ms: Vec<f64> = reps
        .iter()
        .flat_map(|p| std::iter::repeat_n(p.wall_s * 1e3, inp.points.len()))
        .collect();
    let hi = tail(&op_ms);
    let m = &mut r.metrics;
    m.insert("setup_s", median(&inp.setup_s));
    m.insert("wall_s", wall_s);
    m.insert("ops_per_s", inp.points.len() as f64 / wall_s);
    m.insert("op_p50_ms", percentile(&op_ms, 500).value);
    m.insert("op_p99_ms", hi.value);
    m.insert("verified_frac", verified_frac(&reps[0].ladder));
    m.insert("ok_frac", 1.0 - r.failed as f64 / r.attempted as f64);
    m.insert("peak_rss_mb", sys::peak_rss_mb(None).unwrap_or(0.0));
    r.meta.extend([
        ("reps", reps.len().to_string()),
        ("rep_wall_s", format!("{walls:?}")),
        ("op_samples", hi.samples.to_string()),
        ("op_tail_pct", hi.pct.to_string()),
        ("op_tail_beyond", hi.beyond.to_string()),
    ]);
    r
}

/// `w`'s ladder in the reference format, computed now (for refreshing
/// `refs/`; the ladder does not depend on the point order).
pub fn bless(w: &LadderWorkload) -> String {
    let inp = setup(w, crate::gen::DEFAULT_SEED, None);
    let rep = sweep_once(w, &inp, None);
    format!(
        "# {}: n attempted verified, one line per rung\n{}",
        w.name,
        format_rungs(&rungs(&rep.ladder))
    )
}

/// The work counters a traced pass must reproduce exactly.
fn work_counters(s: &MetricsSnapshot) -> [(&'static str, u64); 5] {
    [
        ("certify_calls", s.certify_calls),
        ("cache_hits", s.cache_hits),
        ("best_split_computed", s.split_memo_misses),
        ("cache_transfers", s.cache_transfers),
        ("requests_served", s.requests_served),
    ]
}

/// The traced run: untraced and traced ladders (their difference is the
/// tracing overhead), then a replay of every probe one layer down.
pub fn run_traced(w: &LadderWorkload, args: &RunArgs) -> RunResult {
    let mut r = RunResult::default();
    let mut tr = Tracer::new();
    let inp = setup(w, args.seed, Some(&mut tr));
    meta(w, &inp, args, &mut r);
    // Untraced, traced, traced, untraced: a first-ladder or drifting
    // host effect cancels out of the overhead.
    let plain0 = sweep_once(w, &inp, None);
    let traced = sweep_once(w, &inp, Some(&mut tr));
    let traced1 = sweep_once(w, &inp, Some(&mut tr));
    let plain1 = sweep_once(w, &inp, None);
    for rep in [&plain0, &traced, &traced1, &plain1] {
        r.attempted += inp.points.len() as u64;
        r.failed += check(w, rep, inp.points.len(), &mut r);
        if work_counters(&rep.counters) != work_counters(&plain0.counters) {
            r.problem(format!(
                "{}: traced counters {:?} differ from untraced {:?}",
                w.name,
                work_counters(&rep.counters),
                work_counters(&plain0.counters)
            ));
        }
    }
    let plain_wall_s = (plain0.wall_s + plain1.wall_s) / 2.0;
    let traced_wall_s = (traced.wall_s + traced1.wall_s) / 2.0;

    // One layer down: the concrete trace once per point, then every
    // probe (each point at each ladder budget, ascending, up to its
    // first non-Robust verdict) through `certify_in` and its sub-steps.
    let transformer = CprobTransformer::Optimal;
    let certifier = Certifier::new(&inp.train).depth(w.depth).domain(w.domain);
    let full = Subset::full(&inp.train);
    let mut budgets: Vec<usize> = traced.ladder.iter().map(|p| p.n).collect();
    budgets.sort_unstable();
    let mut replayed: Vec<(usize, usize)> = vec![(0, 0); budgets.len()]; // (attempted, verified)
    let mut dtrace_ns_of_probes = 0u64;
    let mut probe = 0u64;
    for (i, x) in inp.points.iter().enumerate() {
        let (_, dt) = tr.time("tree.dtrace", i as u64, None, || {
            antidote_tree::dtrace::dtrace(&inp.train, &full, x, w.depth)
        });
        let dtrace_ns = tr.spans()[dt].dur_ns();
        for (k, &n) in budgets.iter().enumerate() {
            let ctx = ExecContext::new().threads(w.threads);
            let root = tr.begin("bench.probe", probe, None);
            let (out, cert) = tr.time("core.certify.certify_in", probe, Some(root), || {
                certifier.certify_in(x, n, &ctx)
            });
            let ctx = ExecContext::new().threads(w.threads);
            let (run, ra) = tr.time("core.learner.run_abstract", probe, Some(cert), || {
                run_abstract(
                    &inp.train,
                    AbstractSet::full(&inp.train, n),
                    x,
                    w.depth,
                    w.domain,
                    transformer,
                    true,
                    true,
                    true,
                    &ctx,
                )
            });
            tr.time("core.score.best_split_abs", probe, Some(ra), || {
                best_split_abs(&inp.train, &AbstractSet::full(&inp.train, n), transformer)
            });
            let (dominated, _) = tr.time(
                "core.verdict.all_terminals_dominated_by",
                probe,
                Some(cert),
                || all_terminals_dominated_by(&run.terminals, out.label, transformer),
            );
            tr.end(root);
            dtrace_ns_of_probes += dtrace_ns;
            probe += 1;
            let robust = out.verdict == Verdict::Robust;
            if run.aborted.is_none() && robust != dominated {
                r.problem(format!(
                    "{}: point {i} at n={n}: certify_in says {:?}, its replayed steps say dominated={dominated}",
                    w.name, out.verdict
                ));
            }
            replayed[k].0 += 1;
            if !robust {
                break;
            }
            replayed[k].1 += 1;
        }
    }
    // Where the replay probed exactly the ladder's pool, it must verify
    // exactly as many points as the cached ladder did.
    for (k, &n) in budgets.iter().enumerate() {
        let p = traced
            .ladder
            .iter()
            .find(|p| p.n == n)
            .expect("budget from the ladder");
        let (att, ver) = replayed[k];
        if att == p.attempted && ver != p.verified {
            r.problem(format!(
                "{}: at n={n} uncached certify_in verified {ver}/{att}, the ladder {}/{}",
                w.name, p.verified, p.attempted
            ));
        }
    }

    let t = spans::totals(tr.spans());
    let ms = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e6);
    let c = &traced.counters;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let bs = t
        .get("core.score.best_split_abs")
        .copied()
        .unwrap_or_default();
    let certify_self_ms = t
        .get("core.certify.certify_in")
        .map_or(0.0, |x| x.self_ns as f64 / 1e6)
        - dtrace_ns_of_probes as f64 / 1e6;
    let overhead_s = traced_wall_s - plain_wall_s;
    let m = &mut r.metrics;
    m.insert("data.load_ms", median(&inp.load_ms));
    m.insert("data.arena_bytes", c.arena_bytes as f64);
    m.insert("data.registry.apply_delta_ms", 0.0);
    m.insert("tree.dtrace_ms", ms("tree.dtrace"));
    m.insert(
        "tree.dtrace_calls",
        t.get("tree.dtrace").map_or(0, |x| x.calls) as f64,
    );
    m.insert(
        "core.score.best_split_us",
        ratio(bs.total_ns, bs.calls) / 1e3,
    );
    m.insert("core.score.best_split_computed", c.split_memo_misses as f64);
    m.insert(
        "core.learner.run_abstract_ms",
        ms("core.learner.run_abstract"),
    );
    m.insert(
        "core.learner.disjuncts_processed",
        c.disjuncts_processed as f64,
    );
    m.insert("core.learner.peak_disjuncts", c.peak_disjuncts as f64);
    m.insert(
        "core.learner.subsumed_ratio",
        ratio(c.disjuncts_subsumed, c.disjuncts_processed),
    );
    m.insert(
        "core.memo.hit_rate",
        ratio(c.split_memo_hits, c.split_memo_hits + c.split_memo_misses),
    );
    m.insert("core.memo.interner_hits", c.interner_hits as f64);
    m.insert(
        "core.verdict.dominance_ms",
        ms("core.verdict.all_terminals_dominated_by"),
    );
    m.insert("core.certify.calls", c.certify_calls as f64);
    m.insert("core.certify.self_ms", certify_self_ms);
    m.insert("core.cache.hit_rate", c.cache_hit_rate());
    m.insert("core.cache.shortcircuits", c.cache_shortcircuits as f64);
    m.insert("core.cache.transfers", c.cache_transfers as f64);
    m.insert("core.cache.invalidations", c.cache_invalidations as f64);
    m.insert("core.sweep.probes", c.probes_scheduled as f64);
    m.insert("core.sweep.rungs", traced.ladder.len() as f64);
    m.insert("core.sweep.deferred", c.probes_deferred as f64);
    m.insert("core.pool.batches", traced.pool_batches as f64);
    m.insert("core.pool.reuse", traced.pool_reuse as f64);
    m.insert("core.engine.cpu_util", plain0.cpu_util);
    for name in [
        "core.session.certify_ms",
        "core.session.advance_ms",
        "core.session.cross_request_hit_rate",
        "cli.service.self_ms",
        "cli.service.certify_warm_p50_ms",
        "cli.service.certify_cold_p50_ms",
        "cli.service.delta_p50_ms",
        "cli.serve_loop.self_ms",
    ] {
        m.insert(name, 0.0);
    }
    m.insert("trace.overhead_ms", overhead_s * 1e3);
    m.insert("trace.overhead_frac", overhead_s / plain_wall_s);
    m.insert("trace.replayed_ops", probe as f64);
    r.meta.extend([
        ("untraced_wall_s", plain_wall_s.to_string()),
        ("traced_wall_s", traced_wall_s.to_string()),
        ("spans", tr.spans().len().to_string()),
    ]);
    r.spans = Some(tr.to_jsonl());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_references_parse() {
        for w in [FIG6_WDBC, FIG6_MNIST_BOX] {
            let r = parse_rungs(w.reference).unwrap();
            assert!(!r.is_empty(), "{}", w.name);
            assert!(
                r.windows(2).all(|p| p[0].0 < p[1].0),
                "{}: ascending n",
                w.name
            );
            assert!(r.iter().all(|&(_, a, v)| v <= a), "{}", w.name);
            assert_eq!(parse_rungs(&format_rungs(&r)).unwrap(), r);
        }
        assert!(parse_rungs("1 2\n").is_err());
        assert!(parse_rungs("# comment\n\n1 2 x\n").is_err());
    }
}
