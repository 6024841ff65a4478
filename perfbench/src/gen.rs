//! The seeded input generator. The workload seed decides the order in
//! which the program receives its inputs: the order of a ladder's test
//! points, and how the serve replay interleaves its tenants' request
//! streams. The datasets (generated with [`DATA_SEED`]) and each
//! tenant's own request stream stay fixed, so every seed asks for the
//! same work: a certification's cost depends on which budgets its point
//! was asked about before, and a seeded stream let that history, not the
//! program, decide a replay's time.

use crate::json;

/// The seed the datasets are generated with (the CLI and service default).
pub const DATA_SEED: u64 = 0;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 1;

/// The held-out workload seed: keep it out of tuning, use it to confirm
/// a claim made on [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 7331;

/// SplitMix64: a small, fixed generator, so inputs never change with a
/// dependency's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` constant.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// The order in which a ladder submits its `n` test points.
pub fn point_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 1).shuffle(&mut order);
    order
}

/// One tenant of the serve replay: a dataset under one certification
/// config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tenant {
    /// Service handle.
    pub handle: &'static str,
    /// Benchmark dataset id.
    pub dataset: &'static str,
    /// Trace depth.
    pub depth: usize,
    /// Abstract domain id.
    pub domain: &'static str,
}

/// The four tenants; the first also receives the delta lines.
pub const TENANTS: [Tenant; 4] = [
    Tenant {
        handle: "mammo",
        dataset: "mammo",
        depth: 2,
        domain: "disjuncts",
    },
    Tenant {
        handle: "iris",
        dataset: "iris",
        depth: 3,
        domain: "disjuncts",
    },
    Tenant {
        handle: "mnist",
        dataset: "mnist17-binary",
        depth: 2,
        domain: "box",
    },
    Tenant {
        handle: "wdbc",
        dataset: "wdbc",
        depth: 2,
        domain: "box",
    },
];

/// Request lines per replay (load, metrics and shutdown lines excluded).
pub const LINES: usize = 2000;
/// Every this-many-th line is a delta on the first tenant.
pub const DELTA_EVERY: usize = 250;
/// Rows one delta removes.
pub const DELTA_ROWS: usize = 2;
/// Share of certify requests that go to a tenant's hot set.
pub const HOT_SHARE: f64 = 0.3;
/// Points in each tenant's hot set.
pub const HOT_POINTS: usize = 4;
/// Poisoning budgets a certify request draws from.
pub const BUDGETS: [usize; 5] = [1, 2, 4, 8, 16];

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// Certify test point `point` of `tenant` at budget `n`.
    Certify {
        /// Index into [`TENANTS`].
        tenant: usize,
        /// Index into the tenant's test points.
        point: usize,
        /// Poisoning budget.
        n: usize,
    },
    /// Remove rows (ids in the tenant's current row space).
    Delta {
        /// Index into [`TENANTS`].
        tenant: usize,
        /// Distinct row ids to remove.
        remove: Vec<u32>,
    },
}

/// A generated replay: the `load` lines that set it up and the request
/// lines it measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// One `load` line per tenant.
    pub loads: Vec<String>,
    /// The requests, in send order.
    pub reqs: Vec<Req>,
    /// `reqs` as JSONL lines.
    pub lines: Vec<String>,
}

/// The `load` line of `t`.
pub fn load_line(t: &Tenant) -> String {
    format!(
        "{{\"op\":\"load\",\"handle\":{},\"dataset\":{},\"depth\":{},\"domain\":{},\"seed\":{DATA_SEED}}}",
        json::quote(t.handle),
        json::quote(t.dataset),
        t.depth,
        json::quote(t.domain)
    )
}

/// Generates the replay for `seed`. `points[t]` are tenant `t`'s test
/// points and `rows[t]` its training-set size.
///
/// Each tenant's certify requests form a fixed stream (the same for
/// every seed); the seed interleaves the streams, drawing the next
/// tenant with probability proportional to its remaining requests, so
/// each tenant's own order is kept.
pub fn serve_script(seed: u64, points: &[Vec<Vec<f64>>], rows: &[usize]) -> Script {
    assert_eq!(points.len(), TENANTS.len(), "one point set per tenant");
    let deltas = LINES / DELTA_EVERY;
    let per_tenant = (LINES - deltas) / TENANTS.len();
    assert_eq!(
        per_tenant * TENANTS.len(),
        LINES - deltas,
        "tenants share lines evenly"
    );
    let mut fixed = Rng::new(DATA_SEED, 2);
    let mut streams: Vec<std::collections::VecDeque<(usize, usize)>> = points
        .iter()
        .map(|p| {
            let mut order: Vec<usize> = (0..p.len()).collect();
            fixed.shuffle(&mut order);
            let hot = &order[..HOT_POINTS.min(order.len())];
            (0..per_tenant)
                .map(|_| {
                    let point = if fixed.chance(HOT_SHARE) {
                        hot[fixed.below(hot.len())]
                    } else {
                        fixed.below(p.len())
                    };
                    (point, BUDGETS[fixed.below(BUDGETS.len())])
                })
                .collect()
        })
        .collect();
    let mut rng = Rng::new(seed, 2);
    let mut live_rows = rows[0];
    let mut reqs = Vec::with_capacity(LINES);
    for i in 1..=LINES {
        if i % DELTA_EVERY == 0 {
            let mut ids: Vec<u32> = (0..live_rows as u32).collect();
            fixed.shuffle(&mut ids);
            ids.truncate(DELTA_ROWS);
            ids.sort_unstable();
            live_rows -= ids.len();
            reqs.push(Req::Delta {
                tenant: 0,
                remove: ids,
            });
        } else {
            let remaining: usize = streams.iter().map(|s| s.len()).sum();
            let mut pick = rng.below(remaining);
            let tenant = streams
                .iter()
                .position(|s| {
                    let here = pick < s.len();
                    pick = pick.saturating_sub(s.len());
                    here
                })
                .expect("a stream has requests left");
            let (point, n) = streams[tenant]
                .pop_front()
                .expect("picked a non-empty stream");
            reqs.push(Req::Certify { tenant, point, n });
        }
    }
    let lines = reqs
        .iter()
        .map(|r| match r {
            Req::Certify { tenant, point, n } => {
                let x: Vec<String> = points[*tenant][*point]
                    .iter()
                    .map(|v| json::num(*v))
                    .collect();
                format!(
                    "{{\"op\":\"certify\",\"handle\":{},\"x\":[{}],\"n\":{n}}}",
                    json::quote(TENANTS[*tenant].handle),
                    x.join(",")
                )
            }
            Req::Delta { tenant, remove } => {
                let ids: Vec<String> = remove.iter().map(u32::to_string).collect();
                format!(
                    "{{\"op\":\"delta\",\"handle\":{},\"deltas\":[{{\"remove\":[{}]}}]}}",
                    json::quote(TENANTS[*tenant].handle),
                    ids.join(",")
                )
            }
        })
        .collect();
    Script {
        loads: TENANTS.iter().map(load_line).collect(),
        reqs,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stand-in test points: tenant `t` has `10 + t` points of 3 features.
    fn points() -> Vec<Vec<Vec<f64>>> {
        (0..TENANTS.len())
            .map(|t| {
                (0..10 + t)
                    .map(|i| vec![i as f64 * 0.1, t as f64, -1.5e-3])
                    .collect()
            })
            .collect()
    }

    const ROWS: [usize; 4] = [664, 120, 2000, 456];

    #[test]
    fn one_seed_one_input() {
        assert_eq!(point_order(5, 113), point_order(5, 113));
        let a = serve_script(5, &points(), &ROWS);
        let b = serve_script(5, &points(), &ROWS);
        assert_eq!(a, b);
    }

    #[test]
    fn two_seeds_differ() {
        assert_ne!(
            point_order(DEFAULT_SEED, 113),
            point_order(HELD_OUT_SEED, 113)
        );
        let a = serve_script(DEFAULT_SEED, &points(), &ROWS);
        let b = serve_script(HELD_OUT_SEED, &points(), &ROWS);
        assert_ne!(a.lines, b.lines);
        // Only the order differs; the tenants are fixed.
        assert_eq!(a.loads, b.loads);
    }

    #[test]
    fn seeds_only_interleave_the_tenant_streams() {
        let stream = |s: &Script, t: usize| -> Vec<Req> {
            s.reqs
                .iter()
                .filter(|r| match r {
                    Req::Certify { tenant, .. } | Req::Delta { tenant, .. } => *tenant == t,
                })
                .cloned()
                .collect()
        };
        let a = serve_script(DEFAULT_SEED, &points(), &ROWS);
        let b = serve_script(HELD_OUT_SEED, &points(), &ROWS);
        for t in 1..TENANTS.len() {
            assert_eq!(stream(&a, t), stream(&b, t), "tenant {t}");
        }
        // The deltas are the same rows at the same lines.
        let deltas = |s: &Script| -> Vec<(usize, Req)> {
            s.reqs
                .iter()
                .cloned()
                .enumerate()
                .filter(|(_, r)| matches!(r, Req::Delta { .. }))
                .collect()
        };
        assert_eq!(deltas(&a), deltas(&b));
    }

    #[test]
    fn point_order_is_a_permutation() {
        let mut o = point_order(9, 60);
        o.sort_unstable();
        assert_eq!(o, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn script_shape() {
        let s = serve_script(3, &points(), &ROWS);
        assert_eq!(s.lines.len(), LINES);
        let deltas: Vec<&Req> = s
            .reqs
            .iter()
            .filter(|r| matches!(r, Req::Delta { .. }))
            .collect();
        assert_eq!(deltas.len(), LINES / DELTA_EVERY);
        let mut live = ROWS[0];
        for d in deltas {
            let Req::Delta { tenant, remove } = d else {
                unreachable!()
            };
            assert_eq!(*tenant, 0);
            assert_eq!(remove.len(), DELTA_ROWS);
            assert!(remove.windows(2).all(|w| w[0] < w[1]), "distinct ids");
            assert!(remove.iter().all(|&id| (id as usize) < live));
            live -= remove.len();
        }
        let certifies = s
            .reqs
            .iter()
            .filter(|r| matches!(r, Req::Certify { .. }))
            .count();
        assert_eq!(certifies, LINES - LINES / DELTA_EVERY);
        // Every line parses and names a known tenant.
        for line in &s.lines {
            let v = json::parse(line).unwrap();
            let h = v.get("handle").and_then(json::Json::str).unwrap();
            assert!(TENANTS.iter().any(|t| t.handle == h));
        }
    }

    #[test]
    fn points_round_trip_through_the_line() {
        let pts = points();
        let s = serve_script(11, &pts, &ROWS);
        for (req, line) in s.reqs.iter().zip(&s.lines) {
            if let Req::Certify { tenant, point, .. } = req {
                let v = json::parse(line).unwrap();
                let x: Vec<f64> = v
                    .get("x")
                    .and_then(json::Json::arr)
                    .unwrap()
                    .iter()
                    .map(|j| j.num().unwrap())
                    .collect();
                assert_eq!(x, pts[*tenant][*point], "bit-exact");
            }
        }
    }
}
