//! The certification service layer: long-lived [`Session`]s and the
//! batching [`RequestEngine`] (DESIGN.md §12).
//!
//! A one-shot pipeline run builds its caches, answers one question, and
//! drops everything. The service inverts that ownership: a [`Session`]
//! owns the per-`(dataset, config)` state that is worth keeping warm —
//! the cross-rung [`CertCache`] and the persistent `bestSplit#` and
//! concrete trace memos ([`SharedLearner`]) — and every request *borrows*
//! that state for the duration of one certification. Repeat questions
//! are then answered from monotone verdict intervals without any
//! abstract run, and even novel questions reuse the memoized reference
//! labels, tree nodes and split analyses of their predecessors.
//!
//! The [`RequestEngine`] sits in front: it admits a batch of
//! certify/sweep requests (possibly across several sessions),
//! deduplicates identical in-flight questions so each is computed once,
//! and fans the distinct work units out through
//! [`ExecContext::par_map`] — each under its own child [`ExecContext`]
//! deadline and a fair share of the engine's disjunct budget.
//!
//! # Determinism
//!
//! Responses are a pure function of `(session config, request)`:
//! verdicts never depend on what the caches happen to contain (cached
//! and fresh certification are bit-identical, see `crate::cache`), the
//! shared memo is a pure function of its key (see `crate::memo`), and
//! responses carry no timings. Grouping keeps every same-point request
//! sequence on one worker in admission order, so batched, reversed, and
//! one-at-a-time submissions of the same multiset of requests produce
//! byte-identical responses at every thread count (pinned in
//! `tests/service.rs`).
//!
//! # Cross-session warm-state sharing
//!
//! Two tenants certifying the **same dataset snapshot** under the
//! **same config** would each warm an identical private cache. A
//! process-wide [`WarmStateIndex`] deduplicates that state: sessions
//! opened via [`Session::open_shared`] land on one reference-counted
//! warm unit per `(dataset content fingerprint, epoch, config
//! fingerprint)` key, verified by full config/dataset equality before
//! joining (a hash collision degrades to a private unit, never to
//! wrong sharing). Response purity makes this invisible: shared and
//! private sessions answer byte-identically (pinned in
//! `tests/service.rs`), only the counters reveal the warm start.
//! Sharing is disarmed for configs with a per-instance timeout — a
//! warm cache can answer where a cold run times out, so only
//! timeout-free sessions (where verdicts are total) share state.
//! Epoch-keying guards staleness: [`Session::advance`] never mutates a
//! shared unit in place, it builds the successor state into a fresh
//! unit, re-registers it under the new epoch's key, and swaps this
//! session's pointer — tenants still certifying the old snapshot keep
//! it alive via their own `Arc`s (DESIGN.md §14).

use crate::cache::CertCache;
use crate::certify::{Certifier, Outcome, Verdict};
use crate::engine::{Counter, ExecContext, RunMetrics};
use crate::learner::DomainKind;
use crate::memo::SharedLearner;
use crate::sweep::{sweep_shared, SweepConfig, SweepPoint};
use antidote_data::{ClassId, Dataset, DeltaSummary};
use antidote_domains::CprobTransformer;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::Duration;

/// The certification configuration a [`Session`] is pinned to. One
/// session serves one `(dataset, config)` pair; ask a different
/// question shape, open a different session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum trace depth `d`.
    pub depth: usize,
    /// Abstract state domain.
    pub domain: DomainKind,
    /// `cprob#` transformer.
    pub transformer: CprobTransformer,
    /// Per-instance timeout (`None` = unlimited; the service default,
    /// under which verdicts are total and sessions may share warm state).
    pub timeout: Option<Duration>,
    /// Per-instance disjunct budget (out-of-memory stand-in).
    pub max_live_disjuncts: Option<usize>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            depth: 2,
            domain: DomainKind::Box,
            transformer: CprobTransformer::Optimal,
            timeout: None,
            max_live_disjuncts: None,
        }
    }
}

impl SessionConfig {
    /// FNV-1a hash over a canonical encoding of every semantic field —
    /// the config axis of the [`WarmStateIndex`] key. Equal configs
    /// fingerprint equally; the index still verifies full equality
    /// before sharing, so a collision costs a private unit, not
    /// correctness.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.depth as u64);
        match self.domain {
            DomainKind::Box => mix(0),
            DomainKind::Disjuncts => mix(1),
            DomainKind::Hybrid { max_disjuncts } => {
                mix(2);
                mix(max_disjuncts as u64);
            }
        }
        mix(match self.transformer {
            CprobTransformer::Natural => 0,
            CprobTransformer::Optimal => 1,
        });
        mix(match self.timeout {
            None => u64::MAX,
            Some(t) => t.as_nanos() as u64,
        });
        mix(match self.max_live_disjuncts {
            None => u64::MAX,
            Some(b) => b as u64,
        });
        h
    }
}

/// The state a session keeps warm, swapped as one unit under the lock
/// so a reader always sees a consistent `(dataset, cache, learner)`
/// triple stamped for the same epoch.
#[derive(Debug)]
struct SessionState {
    ds: Arc<Dataset>,
    cache: CertCache,
    /// Point (bit-pattern key) → stable cache slot. Slots only grow;
    /// [`CertCache::transfer_batched`] preserves slot count, so keys
    /// stay valid across epochs.
    slots: BTreeMap<Vec<u64>, usize>,
    shared: Arc<SharedLearner>,
}

/// One shareable warm unit: the [`SessionState`] plus the config it was
/// built under (the sharing verification guard). Reference-counted —
/// every tenant session holds an `Arc`, the [`WarmStateIndex`] holds
/// only `Weak`s, so a unit lives exactly as long as some session uses
/// it.
#[derive(Debug)]
struct WarmUnit {
    cfg: SessionConfig,
    state: RwLock<SessionState>,
}

impl WarmUnit {
    fn new(ds: Arc<Dataset>, cfg: SessionConfig) -> WarmUnit {
        let state = SessionState {
            cache: CertCache::with_epoch(ds.epoch(), 0),
            slots: BTreeMap::new(),
            shared: Arc::new(SharedLearner::new(&ds, cfg.transformer)),
            ds,
        };
        WarmUnit {
            cfg,
            state: RwLock::new(state),
        }
    }
}

/// The key one warm unit is registered under: dataset content
/// fingerprint, dataset epoch, config fingerprint. Content (not
/// handle) keyed, so two registries that loaded the same snapshot
/// independently still share; epoch-keyed, so a post-delta session can
/// never join a stale unit.
type WarmKey = (u64, u64, u64);

/// Process-wide index of live warm units, keyed by
/// `(dataset fingerprint, epoch, config fingerprint)` — the
/// cross-session sharing tentpole (module docs, DESIGN.md §14). Holds
/// [`Weak`] references only: dropping the last tenant session frees the
/// unit, and dead entries are pruned on the next touch of their key.
/// Buckets are `Vec`s so a fingerprint collision between *different*
/// configs or datasets degrades to private units (full equality is
/// verified before joining), never to wrong sharing.
#[derive(Debug, Default)]
pub struct WarmStateIndex {
    map: Mutex<HashMap<WarmKey, Vec<Weak<WarmUnit>>>>,
}

impl WarmStateIndex {
    /// An empty index. Typically one per process (the service owns
    /// one), but tests and benches build private instances freely.
    pub fn new() -> WarmStateIndex {
        WarmStateIndex::default()
    }

    /// Joins a live, equality-verified unit under `key`, or registers
    /// `fresh` there. Exactly one of the two happens per call, under
    /// the index lock; returns the unit to use and whether it was
    /// joined (a warm-state shared hit).
    fn join_or_register(
        &self,
        key: WarmKey,
        ds: &Dataset,
        cfg: &SessionConfig,
        fresh: impl FnOnce() -> Arc<WarmUnit>,
    ) -> (Arc<WarmUnit>, bool) {
        let mut map = self.map.lock().expect("warm index lock poisoned");
        let bucket = map.entry(key).or_default();
        bucket.retain(|w| w.strong_count() > 0);
        for weak in bucket.iter() {
            if let Some(unit) = weak.upgrade() {
                if unit.cfg == *cfg && *unit.state.read().expect("session lock poisoned").ds == *ds
                {
                    return (unit, true);
                }
            }
        }
        let unit = fresh();
        bucket.push(Arc::downgrade(&unit));
        (unit, false)
    }

    /// Registers an already-built unit (an advanced session's successor
    /// state) under `key` so later tenants of the new epoch can join it.
    fn register(&self, key: WarmKey, unit: &Arc<WarmUnit>) {
        let mut map = self.map.lock().expect("warm index lock poisoned");
        let bucket = map.entry(key).or_default();
        bucket.retain(|w| w.strong_count() > 0);
        bucket.push(Arc::downgrade(unit));
    }

    /// Number of live units currently indexed (dead entries are
    /// counted out, not pruned).
    pub fn live_units(&self) -> usize {
        self.map
            .lock()
            .expect("warm index lock poisoned")
            .values()
            .map(|b| b.iter().filter(|w| w.strong_count() > 0).count())
            .sum()
    }
}

/// A long-lived certification session: one dataset (at its current
/// epoch) × one [`SessionConfig`], owning (or sharing, see
/// [`Session::open_shared`]) the caches every request borrows. See the
/// module docs.
#[derive(Debug)]
pub struct Session {
    cfg: SessionConfig,
    /// The current warm unit. Requests clone the `Arc` under a brief
    /// read lock and certify against that consistent snapshot;
    /// [`Session::advance`] write-locks only to swap the pointer. Lock
    /// order is always warm-pointer → unit state, never the reverse.
    warm: RwLock<Arc<WarmUnit>>,
    /// The index this session registers its units with, when opened
    /// via [`Session::open_shared`] with sharing armed.
    share: Option<Arc<WarmStateIndex>>,
}

/// `x` keyed by exact bit pattern — the same identity
/// [`CertCache::debug_check_key`] checks, so two requests share a slot
/// iff the cache may legally answer one with the other's label and
/// verdicts.
fn point_key(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

impl Session {
    /// Opens a private session for `ds` under `cfg`. The cache starts
    /// empty and grows one slot per distinct point asked about.
    pub fn new(ds: Arc<Dataset>, cfg: SessionConfig) -> Session {
        let unit = Arc::new(WarmUnit::new(ds, cfg.clone()));
        Session {
            cfg,
            warm: RwLock::new(unit),
            share: None,
        }
    }

    /// Opens a session through a [`WarmStateIndex`]: joins a live warm
    /// unit when one exists for this exact `(dataset content, epoch,
    /// config)`, else registers a fresh one. Joining counts one
    /// `warm_state_shared_hits` on `metrics` — the only observable
    /// difference from a private session, since responses are pure (see
    /// the module docs).
    ///
    /// Configs with a per-instance timeout open private, unregistered
    /// sessions (sharing disarmed): a warm cache can answer where a
    /// cold run times out, so sharing could otherwise leak one tenant's
    /// compute history into another's timeout verdicts.
    pub fn open_shared(
        index: &Arc<WarmStateIndex>,
        ds: Arc<Dataset>,
        cfg: SessionConfig,
        metrics: &RunMetrics,
    ) -> Session {
        if cfg.timeout.is_some() {
            return Session::new(ds, cfg);
        }
        let key = (ds.content_fingerprint(), ds.epoch(), cfg.fingerprint());
        let (unit, joined) = index.join_or_register(key, &ds, &cfg, || {
            Arc::new(WarmUnit::new(Arc::clone(&ds), cfg.clone()))
        });
        if joined {
            metrics.record(Counter::WarmStateSharedHits, 1);
        }
        Session {
            cfg,
            warm: RwLock::new(unit),
            share: Some(Arc::clone(index)),
        }
    }

    /// The configuration this session is pinned to.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The warm unit currently backing this session, cloned out from
    /// under a brief pointer read lock.
    fn unit(&self) -> Arc<WarmUnit> {
        Arc::clone(&self.warm.read().expect("session lock poisoned"))
    }

    /// The dataset snapshot this session currently certifies against.
    pub fn dataset(&self) -> Arc<Dataset> {
        let unit = self.unit();
        let ds = Arc::clone(&unit.state.read().expect("session lock poisoned").ds);
        ds
    }

    /// The epoch of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.dataset().epoch()
    }

    /// Approximate bytes of warm state reachable from this session's
    /// current unit — the measure the service's byte-budget eviction
    /// watermark sums: the dataset, the certificate cache and the shared
    /// learner state (the `bestSplit#` memo and the concrete trace memo),
    /// whose entries accumulate over every request of the epoch. Walks
    /// the cache and the memos under their locks.
    pub fn approx_bytes(&self) -> usize {
        let unit = self.unit();
        let st = unit.state.read().expect("session lock poisoned");
        st.ds.approx_bytes() + st.cache.approx_bytes() + st.shared.approx_bytes()
    }

    /// Number of distinct points this session has certified (its cache
    /// slot count).
    pub fn tracked_points(&self) -> usize {
        let unit = self.unit();
        let n = unit
            .state
            .read()
            .expect("session lock poisoned")
            .slots
            .len();
        n
    }

    /// The stable cache slot for `x` in `unit`, allocating one on first
    /// sight.
    fn slot_for(&self, unit: &WarmUnit, x: &[f64]) -> usize {
        let key = point_key(x);
        if let Some(&slot) = unit
            .state
            .read()
            .expect("session lock poisoned")
            .slots
            .get(&key)
        {
            return slot;
        }
        let mut st = unit.state.write().expect("session lock poisoned");
        let next = st.slots.len();
        let slot = *st.slots.entry(key).or_insert(next);
        let n_slots = st.slots.len();
        st.cache.ensure_slots(n_slots);
        slot
    }

    /// Certifies `x` at poisoning budget `n` against the session's
    /// current snapshot, borrowing the session cache and shared learner
    /// state. Returns the outcome and the epoch it was proved against.
    ///
    /// Counters land on `ctx`'s metrics: one `requests_served` per
    /// call, plus one `cross_request_cache_hits` when the answer came
    /// entirely from session state (no abstract run) — the warm path a
    /// one-shot pipeline cannot have.
    pub fn certify(&self, x: &[f64], n: usize, ctx: &ExecContext) -> (Outcome, u64) {
        ctx.metrics().record(Counter::RequestsServed, 1);
        // Resolve the warm unit once: concurrent `advance` swaps the
        // session pointer, never the unit, so this whole request runs
        // against one consistent snapshot.
        let unit = self.unit();
        let slot = self.slot_for(&unit, x);
        let st = unit.state.read().expect("session lock poisoned");
        let mut certifier = Certifier::new(&st.ds)
            .depth(self.cfg.depth)
            .domain(self.cfg.domain)
            .transformer(self.cfg.transformer)
            .shared_state(&st.shared);
        if let Some(t) = self.cfg.timeout {
            certifier = certifier.timeout(t);
        }
        if let Some(b) = self.cfg.max_live_disjuncts {
            certifier = certifier.max_live_disjuncts(b);
        }
        let rctx = ctx.child().fresh_metrics();
        let out = certifier
            .certify_cached(x, n, slot, &st.cache, &rctx)
            .expect("session state pairs cache and dataset epochs under its lock");
        let epoch = st.ds.epoch();
        drop(st);
        let snap = rctx.metrics().snapshot();
        // Zero abstract runs means session state answered outright.
        if snap.abstract_runs() == 0 {
            ctx.metrics().record(Counter::CrossRequestCacheHits, 1);
        }
        ctx.metrics().absorb(&snap);
        (out, epoch)
    }

    /// Runs the §6.1 ladder over `test_points` against the session's
    /// current snapshot, through the session cache and shared learner
    /// state (points already certified enter the ladder warm). Returns
    /// the ladder and the epoch it ran against.
    pub fn sweep(
        &self,
        test_points: &[Vec<f64>],
        max_n: Option<usize>,
        ctx: &ExecContext,
    ) -> (Vec<SweepPoint>, u64) {
        ctx.metrics().record(Counter::RequestsServed, 1);
        let unit = self.unit();
        let slots: Vec<usize> = test_points
            .iter()
            .map(|x| self.slot_for(&unit, x))
            .collect();
        let st = unit.state.read().expect("session lock poisoned");
        // No ladder deadline or probe budget, so the scheduler defers
        // nothing; `threads` is unused (the parent context fans out).
        let cfg = SweepConfig {
            depth: self.cfg.depth,
            domain: self.cfg.domain,
            transformer: self.cfg.transformer,
            timeout: self.cfg.timeout,
            max_live_disjuncts: self.cfg.max_live_disjuncts,
            max_n,
            ..SweepConfig::default()
        };
        let rctx = ctx.child().fresh_metrics();
        let ladder = sweep_shared(
            &st.ds,
            test_points,
            &slots,
            &cfg,
            &rctx,
            &st.cache,
            &st.shared,
        );
        let epoch = st.ds.epoch();
        drop(st);
        ctx.metrics().absorb(&rctx.metrics().snapshot());
        (ladder, epoch)
    }

    /// Advances the session to `new_ds`, carrying certificates across
    /// the mutation chain described by `summaries` (one per epoch
    /// crossed, as returned by `DatasetRegistry::apply_delta_many`) in a
    /// single batched [`CertCache::transfer_batched`]. The shared
    /// learner state is rebuilt — memoized splits and split analyses
    /// describe the old epoch's subsets and cannot transfer — while
    /// point→slot assignments survive.
    ///
    /// # Panics
    ///
    /// Panics when `summaries` is empty or does not span exactly the
    /// epochs between the session's snapshot and `new_ds` (the
    /// [`CertCache::transfer_batched`] stamp).
    ///
    /// A shared unit is never mutated in place: the successor state is
    /// built into a fresh unit, registered under the new epoch's key
    /// (when this session shares), and only this session's pointer is
    /// swapped — co-tenants still certifying the old snapshot keep the
    /// old unit alive through their own `Arc`s.
    pub fn advance(&self, new_ds: Arc<Dataset>, summaries: &[DeltaSummary], metrics: &RunMetrics) {
        let mut warm = self.warm.write().expect("session lock poisoned");
        let next = {
            let st = warm.state.read().expect("session lock poisoned");
            SessionState {
                cache: st.cache.transfer_batched(summaries, &new_ds, metrics),
                slots: st.slots.clone(),
                shared: Arc::new(SharedLearner::new(&new_ds, self.cfg.transformer)),
                ds: Arc::clone(&new_ds),
            }
        };
        let unit = Arc::new(WarmUnit {
            cfg: self.cfg.clone(),
            state: RwLock::new(next),
        });
        if let Some(index) = &self.share {
            let key = (
                new_ds.content_fingerprint(),
                new_ds.epoch(),
                self.cfg.fingerprint(),
            );
            index.register(key, &unit);
        }
        *warm = unit;
    }
}

/// One request admitted by the [`RequestEngine`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Certify one point at one poisoning budget.
    Certify {
        /// The test input.
        x: Vec<f64>,
        /// The poisoning budget.
        n: usize,
    },
    /// Run a §6.1 ladder over a set of points.
    Sweep {
        /// The test inputs.
        points: Vec<Vec<f64>>,
        /// Optional ladder cap (defaults to `|T|`).
        max_n: Option<usize>,
    },
}

/// One rung of a sweep response: the verdict-relevant projection of a
/// [`SweepPoint`] — no timings, so responses are byte-stable across
/// thread counts and admission orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderRung {
    /// The probed poisoning budget.
    pub n: usize,
    /// Instances attempted at this budget.
    pub attempted: usize,
    /// Instances proven robust.
    pub verified: usize,
    /// Instances that hit the timeout.
    pub timeouts: usize,
    /// Instances that exhausted the disjunct budget.
    pub budget_exhausted: usize,
}

impl From<&SweepPoint> for LadderRung {
    fn from(p: &SweepPoint) -> LadderRung {
        LadderRung {
            n: p.n,
            attempted: p.attempted,
            verified: p.verified,
            timeouts: p.timeouts,
            budget_exhausted: p.budget_exhausted,
        }
    }
}

/// The engine's answer to one [`Request`], in admission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to a [`Request::Certify`].
    Certify {
        /// Verdict category.
        verdict: Verdict,
        /// The reference label the verdict protects.
        label: ClassId,
        /// The budget asked about (echoed for self-describing logs).
        n: usize,
        /// Dataset epoch the verdict was proved against.
        epoch: u64,
    },
    /// Answer to a [`Request::Sweep`].
    Sweep {
        /// Dataset epoch the ladder ran against.
        epoch: u64,
        /// The probed rungs, in increasing-`n` order.
        rungs: Vec<LadderRung>,
    },
}

/// Admits, deduplicates, and batches concurrent requests onto the
/// engine's `par_map`. See the module docs; stateless apart from
/// its admission limits, so one engine can front any number of
/// sessions.
#[derive(Debug, Clone, Default)]
pub struct RequestEngine {
    timeout: Option<Duration>,
    disjunct_budget: Option<usize>,
}

/// A work unit: all same-point certifies of one batch (computed
/// sequentially, in admission order, so cache warmth accrues
/// deterministically), or one sweep.
enum Group<'r> {
    Certify {
        session: &'r Arc<Session>,
        x: &'r [f64],
        /// `(request index, n)` in admission order.
        items: Vec<(usize, usize)>,
    },
    Sweep {
        session: &'r Arc<Session>,
        points: &'r [Vec<f64>],
        max_n: Option<usize>,
        index: usize,
    },
}

impl RequestEngine {
    /// An engine with no admission-level limits (session configs still
    /// apply per instance).
    pub fn new() -> RequestEngine {
        RequestEngine::default()
    }

    /// Sets a per-request deadline, started when the request's own
    /// computation starts (a queued request's clock does not run).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets a total disjunct budget for a batch, divided fairly (equal
    /// integer shares, minimum 1) across its disjoint work units.
    pub fn disjunct_budget(mut self, budget: usize) -> Self {
        self.disjunct_budget = Some(budget);
        self
    }

    /// Admits `requests` and returns one [`Response`] per request, in
    /// admission order.
    ///
    /// Certify requests for the same `(session, point)` coalesce into
    /// one work unit and run sequentially in admission order; exact
    /// duplicates (same budget, in flight in the same batch) are
    /// computed once and answered to every requester, each counted as a
    /// served request and a cross-request cache hit on `ctx`'s metrics.
    /// Distinct work units fan out across `ctx`'s workers; responses
    /// are identical at every thread count and admission order (see the
    /// module docs).
    pub fn submit(&self, requests: &[(Arc<Session>, Request)], ctx: &ExecContext) -> Vec<Response> {
        let mut groups: Vec<Group<'_>> = Vec::new();
        // (session identity, point bits) → position in `groups`.
        let mut by_point: BTreeMap<(usize, Vec<u64>), usize> = BTreeMap::new();
        for (index, (session, request)) in requests.iter().enumerate() {
            match request {
                Request::Certify { x, n } => {
                    let key = (Arc::as_ptr(session) as usize, point_key(x));
                    match by_point.get(&key) {
                        Some(&g) => match &mut groups[g] {
                            Group::Certify { items, .. } => items.push((index, *n)),
                            Group::Sweep { .. } => unreachable!("certify key maps to certify"),
                        },
                        None => {
                            by_point.insert(key, groups.len());
                            groups.push(Group::Certify {
                                session,
                                x,
                                items: vec![(index, *n)],
                            });
                        }
                    }
                }
                Request::Sweep { points, max_n } => groups.push(Group::Sweep {
                    session,
                    points,
                    max_n: *max_n,
                    index,
                }),
            }
        }

        let share = self
            .disjunct_budget
            .map(|total| (total / groups.len().max(1)).max(1));
        let inner = ctx.child_threads_for(groups.len());
        let done: Vec<(Vec<(usize, Response)>, crate::engine::MetricsSnapshot)> =
            ctx.par_map(&groups, |_, group| {
                let gctx = ctx
                    .child()
                    .threads(inner)
                    .fresh_metrics()
                    .maybe_disjunct_budget(share);
                let responses = match group {
                    Group::Certify { session, x, items } => {
                        let mut responses = Vec::with_capacity(items.len());
                        let mut computed: BTreeMap<usize, Response> = BTreeMap::new();
                        for &(index, n) in items {
                            if let Some(r) = computed.get(&n) {
                                // Coalesced twin: answered entirely by the
                                // in-flight computation.
                                gctx.metrics().record(Counter::RequestsServed, 1);
                                gctx.metrics().record(Counter::CrossRequestCacheHits, 1);
                                responses.push((index, r.clone()));
                                continue;
                            }
                            let rq = gctx.child().maybe_timeout(self.timeout);
                            let (out, epoch) = session.certify(x, n, &rq);
                            let r = Response::Certify {
                                verdict: out.verdict,
                                label: out.label,
                                n,
                                epoch,
                            };
                            computed.insert(n, r.clone());
                            responses.push((index, r));
                        }
                        responses
                    }
                    Group::Sweep {
                        session,
                        points,
                        max_n,
                        index,
                    } => {
                        let rq = gctx.child().maybe_timeout(self.timeout);
                        let (ladder, epoch) = session.sweep(points, *max_n, &rq);
                        let rungs = ladder.iter().map(LadderRung::from).collect();
                        vec![(*index, Response::Sweep { epoch, rungs })]
                    }
                };
                (responses, gctx.metrics().snapshot())
            });

        let mut out: Vec<Option<Response>> = vec![None; requests.len()];
        for (responses, snap) in done {
            ctx.metrics().absorb(&snap);
            for (index, response) in responses {
                out[index] = Some(response);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request belongs to exactly one group"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::{synth, DatasetDelta};

    fn blobs() -> Dataset {
        let spec = synth::BlobSpec {
            means: vec![vec![0.0], vec![10.0]],
            stds: vec![vec![1.0], vec![1.0]],
            per_class: 100,
            quantum: Some(0.1),
        };
        synth::gaussian_blobs(&spec, 7)
    }

    fn session(ds: &Dataset, domain: DomainKind) -> Arc<Session> {
        Arc::new(Session::new(
            Arc::new(ds.clone()),
            SessionConfig {
                depth: 1,
                domain,
                ..SessionConfig::default()
            },
        ))
    }

    #[test]
    fn session_certify_matches_a_fresh_certifier() {
        let ds = blobs();
        let s = session(&ds, DomainKind::Disjuncts);
        let ctx = ExecContext::sequential();
        let fresh = Certifier::new(&ds).depth(1).domain(DomainKind::Disjuncts);
        for (x, n) in [
            (vec![0.5], 8),
            (vec![0.5], 16),
            (vec![9.5], 4),
            (vec![5.1], 1),
        ] {
            let (out, epoch) = s.certify(&x, n, &ctx);
            let want = fresh.certify(&x, n);
            assert_eq!(out.verdict, want.verdict, "x = {x:?}, n = {n}");
            assert_eq!(out.label, want.label);
            assert_eq!(epoch, 0);
        }
        assert_eq!(ctx.metrics().requests_served(), 4);
        assert_eq!(s.tracked_points(), 3);
    }

    #[test]
    fn repeat_requests_hit_the_cross_request_cache() {
        let ds = blobs();
        let s = session(&ds, DomainKind::Disjuncts);
        let ctx = ExecContext::sequential();
        let (first, _) = s.certify(&[0.5], 16, &ctx);
        assert!(first.is_robust());
        assert_eq!(ctx.metrics().cross_request_cache_hits(), 0, "cold");
        let calls = ctx.metrics().certify_calls();
        // Exact repeat and monotone-implied budgets are both warm.
        let (again, _) = s.certify(&[0.5], 16, &ctx);
        assert_eq!(again.verdict, first.verdict);
        let (implied, _) = s.certify(&[0.5], 7, &ctx);
        assert!(implied.is_robust());
        assert_eq!(ctx.metrics().cross_request_cache_hits(), 2);
        assert_eq!(ctx.metrics().certify_calls(), calls, "no abstract run");
        assert_eq!(ctx.metrics().requests_served(), 3);
    }

    #[test]
    fn engine_coalesces_identical_inflight_requests() {
        let ds = blobs();
        let s = session(&ds, DomainKind::Disjuncts);
        let engine = RequestEngine::new();
        let ctx = ExecContext::sequential();
        let rq = Request::Certify {
            x: vec![0.5],
            n: 16,
        };
        let batch = vec![
            (Arc::clone(&s), rq.clone()),
            (Arc::clone(&s), rq.clone()),
            (Arc::clone(&s), rq),
        ];
        let responses = engine.submit(&batch, &ctx);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0], responses[1]);
        assert_eq!(responses[1], responses[2]);
        assert_eq!(ctx.metrics().requests_served(), 3, "all three answered");
        assert_eq!(ctx.metrics().certify_calls(), 1, "one computed");
        assert_eq!(ctx.metrics().cross_request_cache_hits(), 2);
    }

    #[test]
    fn engine_responses_are_independent_of_admission_order() {
        let ds = blobs();
        let s = session(&ds, DomainKind::Disjuncts);
        let engine = RequestEngine::new();
        let requests: Vec<Request> = vec![
            Request::Certify { x: vec![0.5], n: 8 },
            Request::Certify { x: vec![9.5], n: 4 },
            Request::Certify {
                x: vec![0.5],
                n: 200,
            },
            Request::Sweep {
                points: vec![vec![0.5], vec![9.5]],
                max_n: Some(8),
            },
            Request::Certify { x: vec![0.5], n: 8 },
        ];
        let batch: Vec<_> = requests
            .iter()
            .map(|r| (Arc::clone(&s), r.clone()))
            .collect();
        let batched = engine.submit(&batch, &ExecContext::new().threads(4));

        // Reversed admission on a fresh session, compared request-wise.
        let s2 = session(&ds, DomainKind::Disjuncts);
        let reversed: Vec<_> = requests
            .iter()
            .rev()
            .map(|r| (Arc::clone(&s2), r.clone()))
            .collect();
        let mut rev = engine.submit(&reversed, &ExecContext::new().threads(4));
        rev.reverse();
        assert_eq!(batched, rev);

        // One-at-a-time on a fresh session.
        let s3 = session(&ds, DomainKind::Disjuncts);
        let ctx = ExecContext::sequential();
        let single: Vec<Response> = requests
            .iter()
            .flat_map(|r| engine.submit(&[(Arc::clone(&s3), r.clone())], &ctx))
            .collect();
        assert_eq!(batched, single);
    }

    #[test]
    fn advance_carries_certificates_and_serves_them_warm() {
        let ds = blobs();
        let s = session(&ds, DomainKind::Disjuncts);
        let ctx = ExecContext::sequential();
        let (out, _) = s.certify(&[0.5], 16, &ctx);
        assert!(out.is_robust());
        // Two chained pure-removal epochs, batched into one transfer.
        let (mid, sum0) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let (next, sum1) = mid
            .apply_summarized(DatasetDelta::new().remove(1).remove(2))
            .unwrap();
        s.advance(Arc::new(next.clone()), &[sum0, sum1], ctx.metrics());
        assert_eq!(s.epoch(), 2);
        assert_eq!(ctx.metrics().cache_transfers(), 1, "one batched transfer");
        // Robust(16) minus 3 removed rows lands at Robust(13): inside the
        // bound the session answers without an abstract run at the new
        // epoch, and the verdict matches a cold certifier there.
        let calls = ctx.metrics().certify_calls();
        let (warm, epoch) = s.certify(&[0.5], 13, &ctx);
        assert!(warm.is_robust());
        assert_eq!(epoch, 2);
        assert_eq!(ctx.metrics().certify_calls(), calls, "no abstract run");
        assert_eq!(ctx.metrics().cross_request_cache_hits(), 1);
        let cold = Certifier::new(&next)
            .depth(1)
            .domain(DomainKind::Disjuncts)
            .certify(&[0.5], 13);
        assert_eq!(warm.verdict, cold.verdict);
        assert_eq!(warm.label, cold.label);
    }

    #[test]
    fn shared_sessions_join_one_warm_unit_and_answer_byte_identically() {
        let ds = Arc::new(blobs());
        let cfg = SessionConfig {
            depth: 1,
            domain: DomainKind::Disjuncts,
            ..SessionConfig::default()
        };
        let index = Arc::new(WarmStateIndex::new());
        let ctx = ExecContext::sequential();
        let a = Session::open_shared(&index, Arc::clone(&ds), cfg.clone(), ctx.metrics());
        assert_eq!(ctx.metrics().warm_state_shared_hits(), 0, "first is cold");
        assert_eq!(index.live_units(), 1);
        // Tenant A warms the unit…
        let (first, _) = a.certify(&[0.5], 16, &ctx);
        assert!(first.is_robust());
        // …and tenant B joins it: same key, full equality verified.
        let b = Session::open_shared(&index, Arc::clone(&ds), cfg.clone(), ctx.metrics());
        assert_eq!(ctx.metrics().warm_state_shared_hits(), 1);
        assert_eq!(index.live_units(), 1, "no second unit registered");
        assert_eq!(b.tracked_points(), 1, "B sees A's warm slots");
        let calls = ctx.metrics().certify_calls();
        let (warm, _) = b.certify(&[0.5], 16, &ctx);
        assert_eq!(ctx.metrics().certify_calls(), calls, "B answers warm");
        // Purity: a private session answers byte-identically.
        let private = session(&ds, DomainKind::Disjuncts);
        let (cold, _) = private.certify(&[0.5], 16, &ctx);
        assert_eq!(warm.verdict, cold.verdict);
        assert_eq!(warm.label, cold.label);
        // A different config under the same dataset gets its own unit.
        let other_cfg = SessionConfig {
            depth: 2,
            domain: DomainKind::Disjuncts,
            ..SessionConfig::default()
        };
        let _c = Session::open_shared(&index, Arc::clone(&ds), other_cfg, ctx.metrics());
        assert_eq!(ctx.metrics().warm_state_shared_hits(), 1, "no false join");
        assert_eq!(index.live_units(), 2);
    }

    #[test]
    fn dropping_all_tenants_frees_the_shared_unit() {
        let ds = Arc::new(blobs());
        let cfg = SessionConfig {
            depth: 1,
            domain: DomainKind::Disjuncts,
            ..SessionConfig::default()
        };
        let index = Arc::new(WarmStateIndex::new());
        let metrics = RunMetrics::default();
        let a = Session::open_shared(&index, Arc::clone(&ds), cfg.clone(), &metrics);
        let b = Session::open_shared(&index, Arc::clone(&ds), cfg.clone(), &metrics);
        assert_eq!(index.live_units(), 1);
        drop(a);
        assert_eq!(index.live_units(), 1, "B keeps the unit alive");
        drop(b);
        assert_eq!(index.live_units(), 0, "weak-only index frees it");
        // A later open re-registers from cold.
        let _c = Session::open_shared(&index, ds, cfg, &metrics);
        assert_eq!(metrics.warm_state_shared_hits(), 1, "only B's join counted");
    }

    #[test]
    fn timeout_configs_open_private_unregistered_sessions() {
        let ds = Arc::new(blobs());
        let cfg = SessionConfig {
            depth: 1,
            domain: DomainKind::Disjuncts,
            timeout: Some(Duration::from_secs(3600)),
            ..SessionConfig::default()
        };
        let index = Arc::new(WarmStateIndex::new());
        let metrics = RunMetrics::default();
        let _a = Session::open_shared(&index, Arc::clone(&ds), cfg.clone(), &metrics);
        let _b = Session::open_shared(&index, ds, cfg, &metrics);
        assert_eq!(index.live_units(), 0, "sharing disarmed under timeouts");
        assert_eq!(metrics.warm_state_shared_hits(), 0);
    }

    #[test]
    fn advance_swaps_a_fresh_unit_without_disturbing_cotenants() {
        let ds = Arc::new(blobs());
        let cfg = SessionConfig {
            depth: 1,
            domain: DomainKind::Disjuncts,
            ..SessionConfig::default()
        };
        let index = Arc::new(WarmStateIndex::new());
        let ctx = ExecContext::sequential();
        let a = Session::open_shared(&index, Arc::clone(&ds), cfg.clone(), ctx.metrics());
        let b = Session::open_shared(&index, Arc::clone(&ds), cfg.clone(), ctx.metrics());
        let (out, _) = a.certify(&[0.5], 16, &ctx);
        assert!(out.is_robust());
        // A advances to epoch 1; B must keep certifying epoch 0 state.
        let (next, sum) = ds.apply_summarized(DatasetDelta::new().remove(0)).unwrap();
        let next = Arc::new(next);
        a.advance(Arc::clone(&next), &[sum], ctx.metrics());
        assert_eq!(a.epoch(), 1);
        assert_eq!(b.epoch(), 0, "co-tenant pinned to its own snapshot");
        let (still, epoch) = b.certify(&[0.5], 16, &ctx);
        assert_eq!(still.verdict, out.verdict);
        assert_eq!(epoch, 0);
        // The advanced unit is registered under the new epoch's key, so
        // a new tenant of epoch 1 joins A's transferred state.
        let c = Session::open_shared(&index, next, cfg, ctx.metrics());
        assert_eq!(ctx.metrics().warm_state_shared_hits(), 2, "B and C joined");
        assert_eq!(c.tracked_points(), 1, "C sees A's carried slots");
    }

    #[test]
    fn session_sweep_matches_the_oneshot_ladder() {
        let ds = blobs();
        let s = session(&ds, DomainKind::Disjuncts);
        let ctx = ExecContext::sequential();
        let points = vec![vec![0.5], vec![9.5], vec![5.1]];
        let (ladder, epoch) = s.sweep(&points, None, &ctx);
        assert_eq!(epoch, 0);
        let oneshot = crate::sweep::sweep_in(
            &ds,
            &points,
            &SweepConfig {
                depth: 1,
                domain: DomainKind::Disjuncts,
                timeout: None,
                max_live_disjuncts: None,
                ..SweepConfig::default()
            },
            &ExecContext::sequential(),
        );
        let key = |pts: &[SweepPoint]| pts.iter().map(LadderRung::from).collect::<Vec<_>>();
        assert_eq!(key(&ladder), key(&oneshot));
    }
}
