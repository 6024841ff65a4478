//! Service mode: `antidote serve` / `antidote client` (DESIGN.md §12,
//! §14).
//!
//! The service speaks line-delimited JSON over stdin/stdout — one
//! request object per line in, one response object per line out, in
//! admission order (no request ids; ordering is the correlation). No
//! network, no external dependencies: the JSON reader/writer below is
//! hand-rolled.
//!
//! Ops: `load` (register a dataset under a handle and open its
//! session), `certify`, `sweep`, `batch` (admit several certify/sweep
//! requests through the deduplicating [`RequestEngine`]), `delta`
//! (apply a chain of mutations, carrying certificates in one batched
//! transfer), `evict` (drop a handle's session and warm state),
//! `metrics` (deterministic counter subset), `shutdown`. Errors answer
//! `{"ok":false,"error":"..."}` and never kill the loop: lines that are
//! not valid UTF-8, lines longer than `MAX_LINE_BYTES`, malformed JSON,
//! non-finite numbers, nesting deeper than `MAX_DEPTH` levels, a `load`
//! deeper than `MAX_TREE_DEPTH`, and points whose arity differs from the
//! session dataset's feature count are all rejected before any
//! certification runs.
//!
//! Every session `load` opens goes through the service's
//! [`WarmStateIndex`] (two handles on the same snapshot and config join
//! one warm unit), and the service keeps memory bounded:
//! `--max-sessions` / `--max-session-bytes` evict the least-recently-used
//! session at load time, counted in `sessions_evicted`.
//!
//! [`serve_loop`] reads, executes, and writes strictly one line at a
//! time, so responses come out in admission order. Responses carry no
//! timings, so a canned script's transcript is byte-stable — CI diffs
//! one against a committed golden file.

use crate::args::{parse_domain, Args, CliError};
use antidote_core::engine::Counter;
use antidote_core::{
    ExecContext, LadderRung, Request, RequestEngine, Response, Session, SessionConfig, Verdict,
    WarmStateIndex,
};
use antidote_data::{Benchmark, DatasetDelta, DatasetRegistry, Scale};
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Minimal JSON value + parser (input side).
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep sorted keys (`BTreeMap`), which is
/// irrelevant for requests (we only look fields up) — responses are
/// formatted directly as strings with fixed field order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn as_obj(&self) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("expected an object, got {}", other.type_name())),
        }
    }
}

/// Deepest array/object nesting the parser accepts. The deepest valid
/// request (a `delta` append row) nests six levels; the cap keeps the
/// recursive-descent parser's stack bounded on hostile input.
const MAX_DEPTH: usize = 64;

/// Longest request line `serve` accepts, newline excluded. A line is
/// buffered whole until its newline arrives, so without a cap a client
/// that never sends one grows the process without bound. 16 MiB is far
/// above any real request: a replay certify line holds one point of at
/// most 784 values.
const MAX_LINE_BYTES: usize = 16 << 20;

/// Deepest trace `load` accepts. `serve` has no deadline unless `load`
/// sets one, and the abstract learner's cost grows with depth: on iris a
/// certify at n = 1 answers in about 10 ms at depth 64 and in 0.65 s at
/// depth 10,000, and at depth 100,000 it gives no answer within 15 s.
/// The paper stops at depth 4.
const MAX_TREE_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub(crate) fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.s.get(self.i) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected '{}' at byte {}",
                char::from(other),
                self.i
            )),
        }
    }

    /// Parses one object or array a level deeper, refusing to open more
    /// than `MAX_DEPTH` levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}', got '{}' at byte {}",
                        char::from(other),
                        self.i
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']', got '{}' at byte {}",
                        char::from(other),
                        self.i
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .s
                .get(self.i)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.i += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape '\\{}'", char::from(other))),
                    }
                }
                _ => {
                    // Continuation bytes of multi-byte UTF-8 sequences
                    // pass through verbatim (the input is a &str, so the
                    // sequence is valid).
                    let start = self.i - 1;
                    while self.s.get(self.i).is_some_and(|&c| c & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i])
                            .map_err(|_| "invalid utf-8 in string".to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
        // `parse::<f64>` overflows to ±∞ (`1e400`) instead of failing;
        // the service accepts only finite numbers, like CSV ingestion.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(format!("number '{text}' is not finite")),
            Err(_) => Err(format!("invalid number '{text}'")),
        }
    }
}

// ---------------------------------------------------------------------
// Field accessors and output formatting.
// ---------------------------------------------------------------------

fn field<'j>(obj: &'j BTreeMap<String, Json>, key: &str) -> Result<&'j Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn str_field<'j>(obj: &'j BTreeMap<String, Json>, key: &str) -> Result<&'j str, String> {
    match field(obj, key)? {
        Json::Str(s) => Ok(s),
        other => Err(format!(
            "field '{key}' must be a string, got {}",
            other.type_name()
        )),
    }
}

fn usize_field(obj: &BTreeMap<String, Json>, key: &str) -> Result<usize, String> {
    match field(obj, key)? {
        Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v as usize),
        other => Err(format!(
            "field '{key}' must be a non-negative integer, got {}",
            other.type_name()
        )),
    }
}

fn point_field(obj: &BTreeMap<String, Json>, key: &str) -> Result<Vec<f64>, String> {
    match field(obj, key)? {
        Json::Arr(items) => items
            .iter()
            .map(|v| match v {
                Json::Num(x) => Ok(*x),
                other => Err(format!(
                    "field '{key}' must contain numbers, got {}",
                    other.type_name()
                )),
            })
            .collect(),
        other => Err(format!(
            "field '{key}' must be an array, got {}",
            other.type_name()
        )),
    }
}

/// Escapes a string for embedding in a JSON response line.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Robust => "robust",
        Verdict::Unknown => "unknown",
        Verdict::Timeout => "timeout",
        Verdict::DisjunctBudget => "disjunct-budget",
        Verdict::Cancelled => "cancelled",
    }
}

fn error_line(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_str(message))
}

fn rungs_json(rungs: &[LadderRung]) -> String {
    let items: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"n\":{},\"attempted\":{},\"verified\":{},\"timeouts\":{},\"budget_exhausted\":{}}}",
                r.n, r.attempted, r.verified, r.timeouts, r.budget_exhausted
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Formats one engine response as a self-describing JSON object.
fn response_json(handle: &str, response: &Response) -> String {
    match response {
        Response::Certify {
            verdict,
            label,
            n,
            epoch,
        } => format!(
            "{{\"ok\":true,\"op\":\"certify\",\"handle\":{},\"epoch\":{},\"n\":{},\"verdict\":{},\"label\":{}}}",
            json_str(handle),
            epoch,
            n,
            json_str(verdict_str(*verdict)),
            label
        ),
        Response::Sweep { epoch, rungs } => format!(
            "{{\"ok\":true,\"op\":\"sweep\",\"handle\":{},\"epoch\":{},\"rungs\":{}}}",
            json_str(handle),
            epoch,
            rungs_json(rungs)
        ),
    }
}

// ---------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------

/// One running service instance: the dataset registry, one [`Session`]
/// per handle, the batching request engine, the warm-state sharing
/// index, the LRU eviction bookkeeping, and the admission context
/// whose metrics every request lands on.
pub struct Service {
    registry: DatasetRegistry,
    sessions: BTreeMap<String, Arc<Session>>,
    engine: RequestEngine,
    ctx: ExecContext,
    /// The warm-state index every `load` opens its session through.
    index: Arc<WarmStateIndex>,
    /// Handle → last-used tick, driving LRU eviction order.
    lru: BTreeMap<String, u64>,
    tick: u64,
    /// Evict down to this many sessions after every `load` (`None` =
    /// unbounded).
    max_sessions: Option<usize>,
    /// Evict least-recently-used sessions while the summed warm-state
    /// byte estimate exceeds this watermark (`None` = unbounded; the
    /// most recent session always survives).
    max_session_bytes: Option<usize>,
}

impl Service {
    /// A service with `threads` engine workers, warm-state sharing across
    /// its handles, and no memory bounds.
    pub fn new(threads: usize) -> Service {
        Service {
            registry: DatasetRegistry::new(),
            sessions: BTreeMap::new(),
            engine: RequestEngine::new(),
            ctx: ExecContext::new().threads(threads),
            index: Arc::new(WarmStateIndex::new()),
            lru: BTreeMap::new(),
            tick: 0,
            max_sessions: None,
            max_session_bytes: None,
        }
    }

    /// Bounds the number of resident sessions (`--max-sessions`): after
    /// every `load`, least-recently-used sessions are evicted until at
    /// most `n` remain.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = Some(n.max(1));
        self
    }

    /// Bounds the summed warm-state byte estimate
    /// (`--max-session-bytes`): after every `load`, least-recently-used
    /// sessions are evicted until the estimate fits (the most recent
    /// session always survives, even oversized).
    pub fn max_session_bytes(mut self, bytes: usize) -> Self {
        self.max_session_bytes = Some(bytes);
        self
    }

    /// The metrics all requests land on (the `metrics` op's source).
    pub fn metrics(&self) -> &antidote_core::engine::RunMetrics {
        self.ctx.metrics()
    }

    /// Handles one request line. Returns the response line and whether
    /// the serve loop should stop (`shutdown`).
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        match self.dispatch(line) {
            Ok((response, stop)) => (response, stop),
            Err(message) => (error_line(&message), false),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<(String, bool), String> {
        let value = parse_json(line)?;
        let obj = value.as_obj()?;
        match str_field(obj, "op")? {
            "load" => self.op_load(obj).map(|r| (r, false)),
            "certify" | "sweep" => {
                let (handle, session, request) = self.admit(obj)?;
                let responses = self.engine.submit(&[(session, request)], &self.ctx);
                Ok((response_json(&handle, &responses[0]), false))
            }
            "batch" => self.op_batch(obj).map(|r| (r, false)),
            "delta" => self.op_delta(obj).map(|r| (r, false)),
            "evict" => self.op_evict(obj).map(|r| (r, false)),
            "metrics" => Ok((self.op_metrics(), false)),
            "shutdown" => Ok(("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), true)),
            other => Err(format!("unknown op '{other}'")),
        }
    }

    fn session(&self, handle: &str) -> Result<Arc<Session>, String> {
        self.sessions
            .get(handle)
            .cloned()
            .ok_or_else(|| format!("no dataset loaded under handle '{handle}'"))
    }

    /// Admits one certify/sweep request object: parses it, resolves its
    /// session, checks that every point has exactly the session
    /// dataset's feature count, and stamps the handle as most recently
    /// used. Single requests and `batch` entries both come through here.
    fn admit(
        &mut self,
        obj: &BTreeMap<String, Json>,
    ) -> Result<(String, Arc<Session>, Request), String> {
        let (handle, request) = parse_request(obj)?;
        let session = self.session(&handle)?;
        let points = match &request {
            Request::Certify { x, .. } => std::slice::from_ref(x),
            Request::Sweep { points, .. } => points.as_slice(),
        };
        let features = session.dataset().n_features();
        if let Some(p) = points.iter().find(|p| p.len() != features) {
            return Err(format!(
                "point has {} features, dataset '{handle}' has {features}",
                p.len()
            ));
        }
        self.touch(&handle);
        Ok((handle, session, request))
    }

    /// Stamps `handle` as most recently used.
    fn touch(&mut self, handle: &str) {
        self.tick += 1;
        self.lru.insert(handle.to_string(), self.tick);
    }

    /// Drops the least-recently-used session: handle, warm state, and
    /// registry entry. The shared warm unit dies with its last tenant
    /// (the index holds only weak references), so a re-`load` of the
    /// same snapshot re-certifies from cold — pinned, with verdict
    /// identity, in `tests/service.rs`.
    fn evict_lru(&mut self) -> bool {
        let Some(handle) = self
            .lru
            .iter()
            .min_by_key(|(_, &tick)| tick)
            .map(|(h, _)| h.clone())
        else {
            return false;
        };
        self.sessions.remove(&handle);
        self.lru.remove(&handle);
        self.registry.evict(&handle);
        self.ctx.metrics().record(Counter::SessionsEvicted, 1);
        true
    }

    /// Total warm-state byte estimate across resident sessions.
    fn resident_bytes(&self) -> usize {
        self.sessions.values().map(|s| s.approx_bytes()).sum()
    }

    /// Applies the `--max-sessions` / `--max-session-bytes` watermarks
    /// after a `load`, evicting LRU-first. The byte watermark never
    /// evicts the final session: an oversized lone tenant is served,
    /// not thrashed.
    fn enforce_memory_bounds(&mut self) {
        if let Some(max) = self.max_sessions {
            while self.sessions.len() > max && self.evict_lru() {}
        }
        if let Some(max) = self.max_session_bytes {
            while self.sessions.len() > 1 && self.resident_bytes() > max && self.evict_lru() {}
        }
    }

    /// `load`: registers a benchmark dataset (or CSV file) under a
    /// handle and opens its session with the given certification
    /// config. Reloading a handle replaces both; a refused reload (say,
    /// a `depth` above [`MAX_TREE_DEPTH`]) leaves both in place. A
    /// `timeout` too far out for the clock to represent means none.
    fn op_load(&mut self, obj: &BTreeMap<String, Json>) -> Result<String, String> {
        let handle = str_field(obj, "handle")?;
        let seed = if obj.contains_key("seed") {
            usize_field(obj, "seed")? as u64
        } else {
            0
        };
        let ds = if let Some(Json::Str(path)) = obj.get("csv") {
            antidote_data::csv::load_csv(path).map_err(|e| format!("loading {path}: {e}"))?
        } else {
            let id = str_field(obj, "dataset")?;
            let bench = Benchmark::from_id(id).ok_or_else(|| format!("unknown dataset '{id}'"))?;
            let scale = match obj.get("scale") {
                Some(Json::Str(s)) if s == "paper" => Scale::Paper,
                Some(Json::Str(s)) if s == "small" => Scale::Small,
                Some(other) => return Err(format!("bad scale {other:?}")),
                None => Scale::Small,
            };
            // The train split is what certification reasons about.
            bench.load(scale, seed).0
        };
        let depth = if obj.contains_key("depth") {
            usize_field(obj, "depth")?
        } else {
            2
        };
        if depth > MAX_TREE_DEPTH {
            return Err(format!(
                "depth {depth} exceeds the maximum {MAX_TREE_DEPTH}"
            ));
        }
        let cfg = SessionConfig {
            depth,
            domain: match obj.get("domain") {
                Some(Json::Str(s)) => parse_domain(s).map_err(|e| e.0)?,
                Some(other) => return Err(format!("bad domain {other:?}")),
                None => antidote_core::DomainKind::Box,
            },
            timeout: if obj.contains_key("timeout") {
                Some(Duration::from_secs(usize_field(obj, "timeout")? as u64))
            } else {
                None
            },
            ..SessionConfig::default()
        };
        let rows = ds.len();
        let stored = self.registry.load(handle, ds);
        let session = Arc::new(Session::open_shared(
            &self.index,
            Arc::clone(&stored),
            cfg,
            self.ctx.metrics(),
        ));
        self.sessions.insert(handle.to_string(), session);
        self.touch(handle);
        self.enforce_memory_bounds();
        Ok(format!(
            "{{\"ok\":true,\"op\":\"load\",\"handle\":{},\"epoch\":{},\"rows\":{}}}",
            json_str(handle),
            stored.epoch(),
            rows
        ))
    }

    /// `batch`: admits several certify/sweep requests at once through
    /// the request engine — identical in-flight questions coalesce,
    /// distinct ones fan out. Responses come back in admission order.
    fn op_batch(&mut self, obj: &BTreeMap<String, Json>) -> Result<String, String> {
        let entries = match field(obj, "requests")? {
            Json::Arr(items) => items,
            other => {
                return Err(format!(
                    "field 'requests' must be an array, got {}",
                    other.type_name()
                ))
            }
        };
        let mut batch = Vec::with_capacity(entries.len());
        let mut handles = Vec::with_capacity(entries.len());
        for entry in entries {
            let (handle, session, request) = self.admit(entry.as_obj()?)?;
            batch.push((session, request));
            handles.push(handle);
        }
        let responses = self.engine.submit(&batch, &self.ctx);
        let items: Vec<String> = handles
            .iter()
            .zip(&responses)
            .map(|(handle, response)| response_json(handle, response))
            .collect();
        Ok(format!(
            "{{\"ok\":true,\"op\":\"batch\",\"responses\":[{}]}}",
            items.join(",")
        ))
    }

    /// `delta`: applies a chain of mutations to a handle atomically and
    /// advances its session in one batched certificate transfer.
    fn op_delta(&mut self, obj: &BTreeMap<String, Json>) -> Result<String, String> {
        let handle = str_field(obj, "handle")?;
        let session = self.session(handle)?;
        self.touch(handle);
        let specs = match field(obj, "deltas")? {
            Json::Arr(items) => items,
            other => {
                return Err(format!(
                    "field 'deltas' must be an array, got {}",
                    other.type_name()
                ))
            }
        };
        let mut deltas = Vec::with_capacity(specs.len());
        for spec in specs {
            deltas.push(parse_delta(spec.as_obj()?)?);
        }
        if deltas.is_empty() {
            return Err("'deltas' must name at least one mutation".to_string());
        }
        let (ds, summaries) = self
            .registry
            .apply_delta_many(handle, &deltas)
            .map_err(|e| e.to_string())?;
        session.advance(Arc::clone(&ds), &summaries, self.ctx.metrics());
        Ok(format!(
            "{{\"ok\":true,\"op\":\"delta\",\"handle\":{},\"epoch\":{},\"rows\":{}}}",
            json_str(handle),
            ds.epoch(),
            ds.len()
        ))
    }

    /// `evict`: drops a handle's session, warm state, and registry
    /// entry. A later `load` of the same handle starts cold (the shared
    /// warm unit dies with its last tenant), re-certifying with
    /// identical verdicts — response purity, pinned in the tests.
    fn op_evict(&mut self, obj: &BTreeMap<String, Json>) -> Result<String, String> {
        let handle = str_field(obj, "handle")?;
        if self.sessions.remove(handle).is_none() {
            return Err(format!("no dataset loaded under handle '{handle}'"));
        }
        self.lru.remove(handle);
        self.registry.evict(handle);
        self.ctx.metrics().record(Counter::SessionsEvicted, 1);
        Ok(format!(
            "{{\"ok\":true,\"op\":\"evict\",\"handle\":{}}}",
            json_str(handle)
        ))
    }

    /// `metrics`: the deterministic counter subset — the rows the
    /// engine's counter table tags `metrics_op`, in table order; no
    /// watermarks, no timings, so transcripts stay golden-file stable.
    /// `cross_request_hit_rate`, the derived warm-path share of all
    /// served requests (0 before the first request), sits right after
    /// the two counters it divides (the table's first two).
    fn op_metrics(&self) -> String {
        let m = self.ctx.metrics().snapshot();
        let mut fields: Vec<String> = m
            .counters()
            .filter(|(c, _)| c.in_metrics_op())
            .map(|(c, v)| format!("\"{c}\":{v}"))
            .collect();
        fields.insert(
            2,
            format!(
                "\"cross_request_hit_rate\":{:.3}",
                m.cross_request_hit_rate()
            ),
        );
        format!("{{\"ok\":true,\"op\":\"metrics\",{}}}", fields.join(","))
    }
}

/// Narrows a parsed non-negative integer to a row id (`RowId`, `u32`) or
/// a class id (`ClassId`, `u16`). Checked, because a cast would wrap
/// label 65,536 to class 0 and row 2^32 to row 0.
fn narrow_id<T: TryFrom<usize>>(v: usize, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{what} {v} is out of range"))
}

/// Parses one delta spec: `{"remove":[ids],"append":[{"values":[..],
/// "label":k}],"flip":[{"row":id,"label":k}]}` — all fields optional.
fn parse_delta(obj: &BTreeMap<String, Json>) -> Result<DatasetDelta, String> {
    let mut delta = DatasetDelta::new();
    if let Some(spec) = obj.get("remove") {
        match spec {
            Json::Arr(ids) => {
                for id in ids {
                    match id {
                        Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => {
                            delta.remove(narrow_id(*v as usize, "row")?);
                        }
                        other => {
                            return Err(format!(
                                "'remove' ids must be integers, got {}",
                                other.type_name()
                            ))
                        }
                    }
                }
            }
            other => {
                return Err(format!(
                    "'remove' must be an array, got {}",
                    other.type_name()
                ))
            }
        }
    }
    if let Some(spec) = obj.get("append") {
        match spec {
            Json::Arr(rows) => {
                for row in rows {
                    let row = row.as_obj()?;
                    let values = point_field(row, "values")?;
                    let label = narrow_id(usize_field(row, "label")?, "label")?;
                    delta.append(&values, label);
                }
            }
            other => {
                return Err(format!(
                    "'append' must be an array, got {}",
                    other.type_name()
                ))
            }
        }
    }
    if let Some(spec) = obj.get("flip") {
        match spec {
            Json::Arr(rows) => {
                for row in rows {
                    let row = row.as_obj()?;
                    delta.flip_label(
                        narrow_id(usize_field(row, "row")?, "row")?,
                        narrow_id(usize_field(row, "label")?, "label")?,
                    );
                }
            }
            other => {
                return Err(format!(
                    "'flip' must be an array, got {}",
                    other.type_name()
                ))
            }
        }
    }
    if delta.is_empty() {
        return Err("a delta must name at least one mutation".to_string());
    }
    Ok(delta)
}

/// Parses one certify/sweep request object into `(handle, Request)`.
fn parse_request(obj: &BTreeMap<String, Json>) -> Result<(String, Request), String> {
    let handle = str_field(obj, "handle")?.to_string();
    let request = match str_field(obj, "op")? {
        "certify" => Request::Certify {
            x: point_field(obj, "x")?,
            n: usize_field(obj, "n")?,
        },
        "sweep" => {
            let points = match field(obj, "points")? {
                Json::Arr(items) => items
                    .iter()
                    .map(|p| match p {
                        Json::Arr(_) => {
                            point_field(&BTreeMap::from([("p".to_string(), p.clone())]), "p")
                        }
                        other => Err(format!(
                            "'points' must hold arrays, got {}",
                            other.type_name()
                        )),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                other => {
                    return Err(format!(
                        "field 'points' must be an array, got {}",
                        other.type_name()
                    ))
                }
            };
            let max_n = if obj.contains_key("max_n") {
                Some(usize_field(obj, "max_n")?)
            } else {
                None
            };
            Request::Sweep { points, max_n }
        }
        other => {
            return Err(format!(
                "batch entries must be certify|sweep, got '{other}'"
            ))
        }
    };
    Ok((handle, request))
}

// ---------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------

/// Runs the serve loop: requests from `input`, responses to `output`,
/// one line each and in admission order, until `shutdown` or EOF.
/// Blank lines and `#` comment lines are skipped (so canned scripts can
/// be annotated). Lines are read as bytes, so a line that is not valid
/// UTF-8 gets one error response like any other malformed line. A line
/// longer than `MAX_LINE_BYTES` gets one error response too, and the
/// rest of it is discarded without being buffered.
pub fn serve_loop(
    service: &mut Service,
    mut input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    let mut line = Vec::new();
    loop {
        line.clear();
        let cap = MAX_LINE_BYTES as u64 + 1;
        if (&mut input).take(cap).read_until(b'\n', &mut line)? == 0 {
            break; // EOF
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        let (response, stop) = if line.len() > MAX_LINE_BYTES {
            skip_line(&mut input)?;
            let error = format!("line exceeds {MAX_LINE_BYTES} bytes");
            (error_line(&error), false)
        } else {
            match std::str::from_utf8(&line) {
                Ok(line) => {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    service.handle_line(line)
                }
                Err(e) => (error_line(&format!("line is not valid UTF-8: {e}")), false),
            }
        };
        writeln!(output, "{response}")?;
        output.flush()?;
        if stop {
            break;
        }
    }
    Ok(())
}

/// Discards `input` up to and including the next newline (or to EOF),
/// one buffer at a time.
fn skip_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                input.consume(i + 1);
                return Ok(());
            }
            None => {
                let len = buf.len();
                input.consume(len);
            }
        }
    }
}

/// `antidote serve [--threads k] [--max-sessions n]
/// [--max-session-bytes b]` — JSONL over stdin/stdout.
pub(crate) fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut service = Service::new(args.threads()?);
    if args.options.contains_key("max-sessions") {
        let n: usize = args.get_num("max-sessions", 0)?;
        if n == 0 {
            return Err(CliError("--max-sessions must be >= 1".into()));
        }
        service = service.max_sessions(n);
    }
    if args.options.contains_key("max-session-bytes") {
        let bytes: usize = args.get_num("max-session-bytes", 0)?;
        if bytes == 0 {
            return Err(CliError("--max-session-bytes must be >= 1".into()));
        }
        service = service.max_session_bytes(bytes);
    }
    let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
    serve_loop(&mut service, stdin.lock(), stdout.lock())
        .map_err(|e| CliError(format!("serve io: {e}")))
}

/// `antidote client --script <path> [--threads k]` — replays a request
/// script against an in-process service, printing a `>` / `<`
/// transcript (the same responses `serve` would write).
pub(crate) fn cmd_client(args: &Args) -> Result<(), CliError> {
    let path = args
        .options
        .get("script")
        .ok_or_else(|| CliError("client requires --script <path>".into()))?;
    let script =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
    let mut service = Service::new(args.threads()?);
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        println!("> {line}");
        let (response, stop) = service.handle_line(line);
        println!("< {response}");
        if stop {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_roundtrips_the_protocol_shapes() {
        let v = parse_json(
            r#"{"op":"certify","handle":"a","x":[0.5,-1.25e2],"n":8,"deep":{"t":true,"f":false,"z":null},"s":"q\"\\\nA"}"#,
        )
        .unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(str_field(obj, "op").unwrap(), "certify");
        assert_eq!(usize_field(obj, "n").unwrap(), 8);
        assert_eq!(point_field(obj, "x").unwrap(), vec![0.5, -125.0]);
        let deep = field(obj, "deep").unwrap().as_obj().unwrap();
        assert_eq!(deep.get("t"), Some(&Json::Bool(true)));
        assert_eq!(deep.get("z"), Some(&Json::Null));
        match field(obj, "s").unwrap() {
            Json::Str(s) => assert_eq!(s, "q\"\\\nA"),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "1.2.3",
            "1e400",
            "[-1e400]",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn json_parser_caps_nesting_depth() {
        let nest = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let err = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
    }

    #[test]
    fn service_certify_load_and_metrics_flow() {
        let mut svc = Service::new(1);
        let (r, stop) = svc.handle_line(
            r#"{"op":"load","handle":"iris","dataset":"iris","depth":1,"domain":"disjuncts"}"#,
        );
        assert!(!stop);
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"epoch\":0"), "{r}");

        // Certify twice: the repeat must be a cross-request hit, and the
        // response lines must be byte-identical.
        let rq = r#"{"op":"certify","handle":"iris","x":[5.0,3.4,1.5,0.2],"n":2}"#;
        let (first, _) = svc.handle_line(rq);
        assert!(first.contains("\"verdict\""), "{first}");
        let (second, _) = svc.handle_line(rq);
        assert_eq!(first, second);
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(metrics.contains("\"requests_served\":2"), "{metrics}");
        assert!(
            metrics.contains("\"cross_request_cache_hits\":1"),
            "{metrics}"
        );
    }

    #[test]
    fn service_delta_advances_the_epoch_in_one_transfer() {
        let mut svc = Service::new(1);
        svc.handle_line(r#"{"op":"load","handle":"d","dataset":"iris","depth":1}"#);
        let (r, _) = svc.handle_line(
            r#"{"op":"delta","handle":"d","deltas":[{"remove":[0]},{"remove":[1,2]}]}"#,
        );
        assert!(r.contains("\"epoch\":2"), "{r}");
        // The chain crossed two epochs with one batched transfer; an
        // untouched cache transfers zero points but the registry swap
        // must have happened exactly once.
        let (again, _) =
            svc.handle_line(r#"{"op":"delta","handle":"d","deltas":[{"remove":[3]}]}"#);
        assert!(again.contains("\"epoch\":3"), "{again}");
    }

    #[test]
    fn a_delta_that_empties_the_dataset_is_refused() {
        let mut svc = Service::new(1);
        svc.handle_line(r#"{"op":"load","handle":"i","dataset":"iris","depth":1,"domain":"box"}"#);
        let (r, _) = svc.handle_line(r#"{"op":"delta","handle":"i","deltas":[{"remove":[0]}]}"#);
        assert!(r.contains("\"epoch\":1"), "{r}");
        let all: Vec<String> = (1..120).map(|row| row.to_string()).collect();
        let (r, stop) = svc.handle_line(&format!(
            r#"{{"op":"delta","handle":"i","deltas":[{{"remove":[{}]}}]}}"#,
            all.join(",")
        ));
        assert!(!stop);
        assert!(r.starts_with("{\"ok\":false"), "{r}");
        assert!(r.contains("every row"), "{r}");
        // The handle stays at its previous epoch, where `dtrace` still
        // has rows to train on.
        let (r, _) =
            svc.handle_line(r#"{"op":"certify","handle":"i","x":[5.1,3.5,1.4,0.2],"n":1}"#);
        assert!(r.starts_with("{\"ok\":true"), "{r}");
        assert!(r.contains("\"epoch\":1"), "{r}");
    }

    /// Loads iris under `i`, sends one `delta` line with the given spec,
    /// and returns its response after checking that nothing was
    /// published: the handle still answers at epoch 0.
    fn refused_delta(spec: &str) -> String {
        let mut svc = Service::new(1);
        svc.handle_line(r#"{"op":"load","handle":"i","dataset":"iris","depth":1,"domain":"box"}"#);
        let (r, stop) = svc.handle_line(&format!(
            r#"{{"op":"delta","handle":"i","deltas":[{spec}]}}"#
        ));
        assert!(!stop);
        let (c, _) =
            svc.handle_line(r#"{"op":"certify","handle":"i","x":[5.1,3.5,1.4,0.2],"n":1}"#);
        assert!(c.contains("\"epoch\":0"), "{spec}: {c}");
        r
    }

    #[test]
    fn a_flip_label_beyond_the_class_id_range_is_refused() {
        // A cast would wrap 65,536 to class 0, a declared label.
        let r = refused_delta(r#"{"flip":[{"row":0,"label":65536}]}"#);
        assert_eq!(r, r#"{"ok":false,"error":"label 65536 is out of range"}"#);
    }

    #[test]
    fn a_flip_row_beyond_the_row_id_range_is_refused() {
        // A cast would wrap 2^32 to row 0, a live row.
        let r = refused_delta(r#"{"flip":[{"row":4294967296,"label":1}]}"#);
        assert_eq!(
            r,
            r#"{"ok":false,"error":"row 4294967296 is out of range"}"#
        );
    }

    #[test]
    fn an_append_label_beyond_the_class_id_range_is_refused() {
        let r = refused_delta(r#"{"append":[{"values":[5.0,3.0,1.5,0.2],"label":65536}]}"#);
        assert_eq!(r, r#"{"ok":false,"error":"label 65536 is out of range"}"#);
    }

    #[test]
    fn a_removed_row_beyond_the_row_id_range_is_named_as_given() {
        // The error names the id as given, not a saturated cast of it.
        let r = refused_delta(r#"{"remove":[4294967296]}"#);
        assert_eq!(
            r,
            r#"{"ok":false,"error":"row 4294967296 is out of range"}"#
        );
    }

    #[test]
    fn service_errors_are_clean_lines() {
        let mut svc = Service::new(1);
        for (line, needle) in [
            ("not json", "invalid literal"),
            (r#"{"op":"nope"}"#, "unknown op"),
            (
                r#"{"op":"certify","handle":"ghost","x":[1],"n":1}"#,
                "no dataset loaded",
            ),
            (
                r#"{"op":"load","handle":"x","dataset":"ghost"}"#,
                "unknown dataset",
            ),
            (r#"{"op":"certify","handle":"ghost"}"#, "missing field"),
        ] {
            let (r, stop) = svc.handle_line(line);
            assert!(!stop);
            assert!(r.starts_with("{\"ok\":false"), "{r}");
            assert!(r.contains(needle), "{r} missing {needle}");
        }
    }

    #[test]
    fn service_batch_coalesces_and_orders_responses() {
        let mut svc = Service::new(1);
        svc.handle_line(
            r#"{"op":"load","handle":"b","dataset":"iris","depth":1,"domain":"disjuncts"}"#,
        );
        let (r, _) = svc.handle_line(
            r#"{"op":"batch","requests":[{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2},{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2},{"op":"sweep","handle":"b","points":[[5.0,3.4,1.5,0.2]],"max_n":4}]}"#,
        );
        assert!(r.contains("\"op\":\"batch\""), "{r}");
        assert!(r.contains("\"rungs\""), "{r}");
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        // Three requests served; the duplicate coalesced into a hit.
        assert!(metrics.contains("\"requests_served\":3"), "{metrics}");
        assert!(
            metrics.contains("\"cross_request_cache_hits\":1"),
            "{metrics}"
        );
    }

    #[test]
    fn serve_loop_stops_on_shutdown_and_skips_comments() {
        let mut svc = Service::new(1);
        let script =
            "# comment\n\n{\"op\":\"metrics\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"metrics\"}\n";
        let mut out = Vec::new();
        serve_loop(&mut svc, script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "stopped at shutdown: {text}");
        assert!(lines[0].contains("\"op\":\"metrics\""));
        assert!(lines[1].contains("\"op\":\"shutdown\""));
    }

    #[test]
    fn serve_loop_refuses_an_over_long_line_and_goes_on() {
        let mut svc = Service::new(1);
        let input = std::io::repeat(b' ')
            .take(MAX_LINE_BYTES as u64 + 1)
            .chain(&b"\n{\"op\":\"metrics\"}\n"[..]);
        let mut out = Vec::new();
        serve_loop(&mut svc, std::io::BufReader::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            lines[0],
            format!("{{\"ok\":false,\"error\":\"line exceeds {MAX_LINE_BYTES} bytes\"}}")
        );
        assert!(lines[1].contains("\"op\":\"metrics\""), "{}", lines[1]);
        // Refusing the line touched no counter.
        assert!(lines[1].contains("\"requests_served\":0"), "{}", lines[1]);
    }

    #[test]
    fn serve_loop_answers_a_line_that_is_not_utf8_and_goes_on() {
        let mut svc = Service::new(1);
        let mut out = Vec::new();
        serve_loop(&mut svc, &b"\xff\xfe\n{\"op\":\"metrics\"}\n"[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(
            lines[0].starts_with("{\"ok\":false,\"error\":\"line is not valid UTF-8"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"op\":\"metrics\""), "{}", lines[1]);
        // Refusing the line touched no counter.
        assert!(lines[1].contains("\"requests_served\":0"), "{}", lines[1]);
    }

    /// Lines the service must refuse with one error each before any
    /// certification runs, with a needle from each error: a short
    /// certify point (it used to panic in `dtrace`), a short sweep
    /// point, a long point inside a batch, an overflowing number, and
    /// nesting deep enough to overflow an unbounded recursive parser.
    fn malformed_lines() -> [(String, &'static str); 5] {
        [
            (
                r#"{"op":"certify","handle":"a","x":[5.0,3.4],"n":2}"#.to_string(),
                "point has 2 features, dataset 'a' has 4",
            ),
            (
                r#"{"op":"sweep","handle":"a","points":[[5.0,3.4,1.5,0.2],[6.1,2.8]],"max_n":4}"#
                    .to_string(),
                "point has 2 features",
            ),
            (
                r#"{"op":"batch","requests":[{"op":"certify","handle":"a","x":[5.0,3.4,1.5,0.2,9.9],"n":1}]}"#
                    .to_string(),
                "point has 5 features",
            ),
            (
                r#"{"op":"certify","handle":"a","x":[1e400,3.4,1.5,0.2],"n":2}"#.to_string(),
                "number '1e400' is not finite",
            ),
            ("[".repeat(200_000), "nesting deeper than 64 levels"),
        ]
    }

    /// A script touching every op plus the tricky spots: malformed lines
    /// between valid requests (ordered inline errors), state-changing
    /// ops mid-stream, duplicate requests (warm hits), and a trailing
    /// metrics line after shutdown that must not be answered.
    fn full_protocol_script() -> String {
        let [short_certify, short_sweep, long_batch, huge, deep] =
            malformed_lines().map(|(l, _)| l);
        [
            "# annotated script",
            r#"{"op":"load","handle":"a","dataset":"iris","depth":1,"domain":"disjuncts"}"#,
            r#"{"op":"load","handle":"b","dataset":"iris","depth":1,"domain":"disjuncts"}"#,
            r#"{"op":"certify","handle":"a","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            short_certify.as_str(),
            "not json",
            r#"{"op":"certify","handle":"a","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            r#"{"op":"certify","handle":"ghost","x":[1],"n":1}"#,
            r#"{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            short_sweep.as_str(),
            r#"{"op":"sweep","handle":"a","points":[[5.0,3.4,1.5,0.2]],"max_n":4}"#,
            long_batch.as_str(),
            r#"{"op":"batch","requests":[{"op":"certify","handle":"a","x":[6.1,2.8,4.7,1.2],"n":1},{"op":"certify","handle":"b","x":[6.1,2.8,4.7,1.2],"n":1}]}"#,
            huge.as_str(),
            r#"{"op":"delta","handle":"b","deltas":[{"remove":[0]}]}"#,
            r#"{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            deep.as_str(),
            r#"{"op":"nope"}"#,
            r#"{"op":"evict","handle":"b"}"#,
            r#"{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            r#"{"op":"metrics"}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"metrics"}"#,
        ]
        .join("\n")
            + "\n"
    }

    fn serve(script: &str) -> String {
        let mut out = Vec::new();
        serve_loop(&mut Service::new(1), script.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn serve_loop_preserves_admission_order_under_inline_errors() {
        let text = serve(&full_protocol_script());
        let lines: Vec<&str> = text.lines().collect();
        // One response per non-comment line up to and including
        // shutdown; the trailing metrics line goes unanswered.
        assert_eq!(lines.len(), 21, "{text}");
        assert!(lines[4].contains("invalid literal"), "{}", lines[4]);
        assert!(lines[6].contains("no dataset loaded"), "{}", lines[6]);
        assert!(lines[18].contains("no dataset loaded"), "{}", lines[18]);
        assert!(lines[20].contains("\"op\":\"shutdown\""), "{}", lines[20]);
    }

    #[test]
    fn malformed_lines_get_one_error_each_and_leave_valid_answers_unchanged() {
        let malformed = malformed_lines();
        let script = full_protocol_script();
        let requests: Vec<&str> = script
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let dirty = serve(&script);
        let mut kept = Vec::new();
        let mut refused = 0;
        for (request, response) in requests.iter().zip(dirty.lines()) {
            match malformed.iter().find(|(line, _)| line == request) {
                Some((_, needle)) => {
                    assert!(
                        response.starts_with("{\"ok\":false,\"error\":"),
                        "{response}"
                    );
                    assert!(response.contains(needle), "{response} missing {needle}");
                    refused += 1;
                }
                None => kept.push(response),
            }
        }
        assert_eq!(refused, malformed.len());
        // Every valid line is answered exactly as in a run without the
        // malformed lines: refusing them touched no counter or session.
        let clean: String = requests
            .iter()
            .filter(|l| !malformed.iter().any(|(line, _)| line == *l))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(kept, serve(&clean).lines().collect::<Vec<_>>());
    }

    #[test]
    fn evicted_session_reloads_cold_with_identical_verdicts() {
        let mut svc = Service::new(1);
        let load = r#"{"op":"load","handle":"e","dataset":"iris","depth":1,"domain":"disjuncts"}"#;
        let rq = r#"{"op":"certify","handle":"e","x":[5.0,3.4,1.5,0.2],"n":2}"#;
        svc.handle_line(load);
        let (warm, _) = svc.handle_line(rq);
        let (evicted, _) = svc.handle_line(r#"{"op":"evict","handle":"e"}"#);
        assert!(evicted.contains("\"ok\":true"), "{evicted}");
        let (gone, _) = svc.handle_line(rq);
        assert!(gone.contains("no dataset loaded"), "{gone}");
        svc.handle_line(load);
        let (cold, _) = svc.handle_line(rq);
        assert_eq!(
            warm, cold,
            "re-certifying from cold must not change verdicts"
        );
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(metrics.contains("\"sessions_evicted\":1"), "{metrics}");
    }

    #[test]
    fn max_sessions_evicts_the_least_recently_used_handle() {
        let mut svc = Service::new(1).max_sessions(2);
        for h in ["a", "b"] {
            svc.handle_line(&format!(
                r#"{{"op":"load","handle":"{h}","dataset":"iris","depth":1}}"#
            ));
        }
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        svc.handle_line(r#"{"op":"certify","handle":"a","x":[5.0,3.4,1.5,0.2],"n":1}"#);
        svc.handle_line(r#"{"op":"load","handle":"c","dataset":"iris","depth":1}"#);
        let (b, _) =
            svc.handle_line(r#"{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":1}"#);
        assert!(b.contains("no dataset loaded"), "{b}");
        for h in ["a", "c"] {
            let (r, _) = svc.handle_line(&format!(
                r#"{{"op":"certify","handle":"{h}","x":[5.0,3.4,1.5,0.2],"n":1}}"#
            ));
            assert!(r.contains("\"verdict\""), "{r}");
        }
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(metrics.contains("\"sessions_evicted\":1"), "{metrics}");
    }

    #[test]
    fn max_session_bytes_counts_each_sessions_split_memo() {
        // Tenant "a"'s warm state, modelled outside the service: the same
        // certify calls on the same snapshot fill an equal certificate
        // cache and bestSplit# memo.
        let ds = Benchmark::Iris.load(Scale::Small, 0).0;
        let xs = [[5.0, 3.4, 1.5, 0.2], [6.7, 3.0, 5.2, 2.3]];
        let learner = antidote_core::SharedLearner::new(&ds, SessionConfig::default().transformer);
        let cache = antidote_core::CertCache::for_dataset(&ds, xs.len());
        let certifier = antidote_core::Certifier::new(&ds)
            .depth(2)
            .domain(antidote_core::DomainKind::Disjuncts)
            .shared_state(&learner);
        for (slot, x) in xs.iter().enumerate() {
            certifier
                .certify_cached(x, 2, slot, &cache, &ExecContext::sequential())
                .unwrap();
        }
        let memo = learner.memo().approx_bytes();
        assert!(memo > 0);
        // Both tenants' datasets and "a"'s cache; "b" loads cold under
        // another domain, so it does not join "a"'s warm unit. The
        // watermark sits between that total and the total with the memo.
        let without_memo = 2 * ds.approx_bytes() + cache.approx_bytes();
        let mut svc = Service::new(1).max_session_bytes(without_memo + memo / 2);
        let load = |h: &str, domain: &str| {
            format!(
                r#"{{"op":"load","handle":"{h}","dataset":"iris","depth":2,"domain":"{domain}"}}"#
            )
        };
        let certify =
            |h: &str, x: &[f64; 4]| format!(r#"{{"op":"certify","handle":"{h}","x":{x:?},"n":2}}"#);
        svc.handle_line(&load("a", "disjuncts"));
        for x in &xs {
            let (r, _) = svc.handle_line(&certify("a", x));
            assert!(r.contains("\"verdict\""), "{r}");
        }
        assert_eq!(
            svc.resident_bytes(),
            ds.approx_bytes() + cache.approx_bytes() + memo,
            "the model holds exactly tenant a's warm state"
        );
        svc.handle_line(&load("b", "box"));
        let (a, _) = svc.handle_line(&certify("a", &xs[0]));
        assert!(a.contains("no dataset loaded"), "{a}");
        let (b, _) = svc.handle_line(&certify("b", &xs[0]));
        assert!(b.contains("\"verdict\""), "{b}");
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(metrics.contains("\"sessions_evicted\":1"), "{metrics}");
    }

    #[test]
    fn cotenant_handles_share_one_warm_unit_unless_disarmed() {
        let load_a =
            r#"{"op":"load","handle":"a","dataset":"iris","depth":1,"domain":"disjuncts"}"#;
        let load_b =
            r#"{"op":"load","handle":"b","dataset":"iris","depth":1,"domain":"disjuncts"}"#;
        let rq =
            |h: &str| format!(r#"{{"op":"certify","handle":"{h}","x":[5.0,3.4,1.5,0.2],"n":2}}"#);

        let mut shared = Service::new(1);
        shared.handle_line(load_a);
        shared.handle_line(load_b);
        let (ra, _) = shared.handle_line(&rq("a"));
        let (rb, _) = shared.handle_line(&rq("b"));
        assert_eq!(
            ra.replace("\"handle\":\"a\"", "\"handle\":\"b\""),
            rb,
            "co-tenants must answer byte-identically up to the handle"
        );
        let (m, _) = shared.handle_line(r#"{"op":"metrics"}"#);
        assert!(m.contains("\"warm_state_shared_hits\":1"), "{m}");
        // The second tenant rides the first tenant's warm cache.
        assert!(m.contains("\"cross_request_cache_hits\":1"), "{m}");

        // The private reference: each handle alone in a fresh service.
        for (load, h, shared_response) in [(load_a, "a", &ra), (load_b, "b", &rb)] {
            let mut private = Service::new(1);
            private.handle_line(load);
            let (p, _) = private.handle_line(&rq(h));
            assert_eq!(
                &p, shared_response,
                "sharing must not change response bytes"
            );
        }
    }

    #[test]
    fn metrics_reports_the_derived_hit_rate() {
        let mut svc = Service::new(1);
        let (m0, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        // The op's bytes are pinned: the counter table's `metrics_op`
        // rows in table order, the derived rate third.
        assert_eq!(
            m0,
            "{\"ok\":true,\"op\":\"metrics\",\"requests_served\":0,\"cross_request_cache_hits\":0,\
             \"cross_request_hit_rate\":0.000,\"certify_calls\":0,\"cache_hits\":0,\"cache_misses\":0,\
             \"cache_shortcircuits\":0,\"cache_transfers\":0,\"cache_invalidations\":0,\
             \"split_memo_hits\":0,\"split_memo_misses\":0,\"probes_scheduled\":0,\
             \"probes_deferred\":0,\"deadline_degradations\":0,\"warm_state_shared_hits\":0,\
             \"sessions_evicted\":0}"
        );
        svc.handle_line(r#"{"op":"load","handle":"h","dataset":"iris","depth":1}"#);
        let rq = r#"{"op":"certify","handle":"h","x":[5.0,3.4,1.5,0.2],"n":2}"#;
        svc.handle_line(rq);
        svc.handle_line(rq);
        let (m, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(m.contains("\"cross_request_hit_rate\":0.500"), "{m}");
    }

    #[test]
    fn a_timeout_past_the_clock_range_means_no_deadline() {
        let mut svc = Service::new(1);
        let (r, _) = svc.handle_line(
            r#"{"op":"load","handle":"i","dataset":"iris","depth":1,"domain":"box","timeout":10000000000000000000}"#,
        );
        assert!(r.contains("\"ok\":true"), "{r}");
        let (r, _) =
            svc.handle_line(r#"{"op":"certify","handle":"i","x":[5.1,3.5,1.4,0.2],"n":1}"#);
        assert!(r.starts_with("{\"ok\":true"), "{r}");
    }

    #[test]
    fn load_refuses_a_depth_past_the_cap() {
        let mut svc = Service::new(1);
        let certify = |svc: &mut Service, h: &str| {
            svc.handle_line(&format!(
                r#"{{"op":"certify","handle":"{h}","x":[5.1,3.5,1.4,0.2],"n":1}}"#
            ))
            .0
        };
        let load = |svc: &mut Service, h: &str, depth: usize| {
            svc.handle_line(&format!(
                r#"{{"op":"load","handle":"{h}","dataset":"iris","depth":{depth},"domain":"box"}}"#
            ))
            .0
        };
        let r = load(&mut svc, "deep", MAX_TREE_DEPTH + 1);
        assert!(r.starts_with("{\"ok\":false"), "{r}");
        assert!(r.contains("depth 65"), "{r}");
        let r = certify(&mut svc, "deep");
        assert!(r.contains("no dataset loaded"), "{r}");
        let r = load(&mut svc, "deep", MAX_TREE_DEPTH);
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(certify(&mut svc, "deep").starts_with("{\"ok\":true"));
        // A refused reload leaves the handle's previous session serving.
        assert!(load(&mut svc, "kept", 1).contains("\"ok\":true"));
        let before = certify(&mut svc, "kept");
        assert!(load(&mut svc, "kept", 1000).starts_with("{\"ok\":false"));
        assert_eq!(certify(&mut svc, "kept"), before);
    }
}
