//! In-memory spans recorded around the benchmark's calls into the
//! library, written out when a traced run ends.
//!
//! A span's children are either calls made inside its interval or
//! replays of its sub-steps on the same inputs, made right after it (the
//! benchmark cannot enter the library to time a step in place). Either
//! way a span's *self time* is its duration minus its direct children's
//! durations.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the recorder.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer-qualified name of the called function, e.g. `tree.dtrace`.
    pub name: &'static str,
    /// Request the span belongs to (a test point, probe, or request line).
    pub req: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created (equal to
    /// `start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span and returns its result with the span id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.begin(name, req, parent);
        let r = f();
        self.end(id);
        (r, id)
    }

    /// Adds a span measured elsewhere (e.g. a client-side latency).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: at(start),
            end_ns: at(end),
        });
        id
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json::quote(s.name),
                s.req,
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// Each span's self time: its duration minus its direct children's
/// durations, indexed by span id. Negative when replayed children took
/// longer than the call they stand for.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: i64,
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // probe [0,100) ─┬─ certify [0,60) ─┬─ run_abstract [10,40) ── best_split [12,20)
        //                │                  └─ dominance [40,50)
        //                └─ other [60,90)
        let spans = vec![
            span(0, None, "probe", 0, 100),
            span(1, Some(0), "certify", 0, 60),
            span(2, Some(1), "run_abstract", 10, 40),
            span(3, Some(2), "best_split", 12, 20),
            span(4, Some(1), "dominance", 40, 50),
            span(5, Some(0), "other", 60, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 20, 22, 8, 10, 30]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<i64>(), 100);
    }

    #[test]
    fn replayed_children_may_exceed_their_parent() {
        // A call of 50 ns whose sub-steps, replayed after it, took 70 ns.
        let spans = vec![
            span(0, None, "certify_in", 0, 50),
            span(1, Some(0), "run_abstract", 50, 100),
            span(2, Some(0), "dominance", 100, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![-20, 50, 20]);
    }

    #[test]
    fn totals_group_by_name_across_requests() {
        let mut spans = vec![
            span(0, None, "line", 0, 100),
            span(1, Some(0), "handle", 10, 90),
            span(2, None, "line", 100, 130),
            span(3, Some(2), "handle", 105, 125),
        ];
        spans[2].req = 1;
        spans[3].req = 1;
        let t = totals(&spans);
        assert_eq!(
            t["line"],
            Totals {
                calls: 2,
                total_ns: 130,
                self_ns: 30
            }
        );
        assert_eq!(t["handle"].self_ns, 100);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut tr = Tracer::new();
        let (v, outer) = tr.time("outer", 7, None, || 41 + 1);
        let inner = tr.begin("inner", 7, Some(outer));
        tr.end(inner);
        assert_eq!(v, 42);
        assert_eq!(tr.spans()[inner].parent, Some(outer));
        assert!(tr.spans()[outer].end_ns >= tr.spans()[outer].start_ns);
        let lines: Vec<_> = tr.to_jsonl().lines().map(String::from).collect();
        assert_eq!(lines.len(), 2);
        let parsed = json::parse(&lines[1]).unwrap();
        assert_eq!(parsed.num_at("parent"), Some(outer as f64));
        assert_eq!(parsed.get("name").and_then(json::Json::str), Some("inner"));
        assert_eq!(parsed.num_at("req"), Some(7.0));
    }
}
