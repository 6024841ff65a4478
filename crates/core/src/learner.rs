//! The abstract learner `DTrace#` (§4.3, §4.7, §5.2).
//!
//! `DTrace#` abstractly interprets the loop of `DTrace` (Fig. 4) on an
//! abstract training set. Its state is a set of *disjuncts*, each an
//! [`AbstractSet`]; how that set is managed is the only difference between
//! the paper's two domains and our extension:
//!
//! * [`DomainKind::Box`] — a single disjunct; `filter#` joins all predicate
//!   branches into it (§4.5). Fast, memory-light, imprecise.
//! * [`DomainKind::Disjuncts`] — one disjunct per (predicate, polarity)
//!   branch, never joined (§5.2). Precise, exponential in depth.
//! * [`DomainKind::Hybrid`] — disjuncts capped at `max_disjuncts`; when
//!   exceeded, the smallest disjuncts are joined pairwise. This implements
//!   the future-work direction the paper sketches in §6.3 ("capitalize on
//!   the precision of tracking many disjuncts while incorporating the
//!   efficiency of allowing some to be joined").
//!
//! Control flow follows §4.7. At the top of each iteration the conditional
//! `ent(T) = 0` forks: the *then* branch terminates with the state
//! restricted by `pure` to single-class concretizations; the *else* branch
//! continues with the original state (soundly imprecise), except when the
//! base set itself is pure — then no concretization can continue and the
//! else branch is infeasible. After `bestSplit#`, the `φ = ⋄` conditional
//! forks again: the ⋄ branch terminates with the current state, the other
//! continues into `filter#`. Every terminal abstract set is collected;
//! Corollary 4.12's dominance check must succeed on each one.
//!
//! The per-iteration predicate set Ψ is consumed by `filter#` within the
//! same iteration (Fig. 4 reassigns φ before reading it), so disjuncts
//! store only their abstract training set.
//!
//! The depth loop itself (`run_frontier`: the parallel fan-out, abort
//! handling, watermarks and disjunct budget) also runs the label-flip
//! learner of [`crate::flip`], which supplies its own per-state step and
//! per-layer pass.

use antidote_data::{simd, ClassId, Dataset, Subset, SubsetInterner, WordArena};
use antidote_domains::{AbstractSet, CprobTransformer, Truth};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

use crate::engine::{Counter, ExecContext};
use crate::memo::{SharedLearner, SplitMemo};
use crate::score::best_split_abs;

/// Which abstract state domain `DTrace#` runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// The paper's non-disjunctive product domain (§4.3): one abstract
    /// state, joins at every branch point.
    Box,
    /// The paper's disjunctive domain (§5.2): unbounded disjunct set, join
    /// is set union.
    Disjuncts,
    /// Extension: disjuncts capped at the given budget; overflowing
    /// disjuncts are merged smallest-first with the domain join.
    Hybrid {
        /// Maximum number of simultaneously active disjuncts.
        max_disjuncts: usize,
    },
}

impl DomainKind {
    /// Short identifier used by the CLI and the experiment harness.
    pub fn id(&self) -> String {
        match self {
            DomainKind::Box => "box".into(),
            DomainKind::Disjuncts => "disjuncts".into(),
            DomainKind::Hybrid { max_disjuncts } => format!("hybrid{max_disjuncts}"),
        }
    }
}

/// Why a run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// The configured deadline passed (§6.1's one-hour timeout).
    Timeout,
    /// The disjunct budget was exhausted (stands in for the paper's
    /// out-of-memory failures).
    DisjunctLimit,
    /// The run was cooperatively cancelled through its [`ExecContext`]
    /// (or an ancestor context).
    Cancelled,
}

/// Raw result of one abstract interpretation run. `T` is the terminal
/// type: the removal learner's [`AbstractSet`] by default, or the flip
/// learner's [`FlipTerminal`](crate::flip::FlipTerminal).
#[derive(Debug, Clone)]
pub struct RunOutput<T = AbstractSet> {
    /// Terminal abstract states (one per return point reached).
    pub terminals: Vec<T>,
    /// Why the run aborted, if it did (terminals are then incomplete).
    pub aborted: Option<Abort>,
    /// Peak number of simultaneous disjuncts (active + terminal).
    pub peak_disjuncts: usize,
    /// Peak memory proxy in bytes (Σ disjunct footprints, see DESIGN.md).
    pub peak_bytes: usize,
    /// Iterations of the depth loop fully completed.
    pub iterations_completed: usize,
}

/// What one frontier state yields in one iteration of the depth loop —
/// a pure function of the state, so the frontier can be mapped in
/// parallel and folded back in input order.
pub(crate) struct Step<T, S> {
    /// Terminals emitted at this state's return points.
    pub(crate) terminals: Vec<T>,
    /// Successor states for the next iteration.
    pub(crate) branches: Vec<S>,
}

/// The memory-proxy footprint (DESIGN.md §4.1) the frontier loop charges
/// for each live state and terminal.
pub(crate) trait Footprint {
    /// Approximate bytes held.
    fn footprint(&self) -> usize;
}

impl Footprint for AbstractSet {
    fn footprint(&self) -> usize {
        self.approx_bytes()
    }
}

/// One §4.7 iteration for a single disjunct: the `ent(T) = 0` fork, the
/// `φ = ⋄` fork after `bestSplit#`, and `filter#`.
fn step_disjunct(
    ds: &Dataset,
    a: &AbstractSet,
    x: &[f64],
    domain: DomainKind,
    transformer: CprobTransformer,
    memo: Option<&SplitMemo>,
    ctx: &ExecContext,
) -> Step<AbstractSet, AbstractSet> {
    let mut terminals: Vec<AbstractSet> = Vec::new();

    // --- conditional ent(T) = 0 (§4.7) ---
    let pures: Vec<AbstractSet> = (0..ds.n_classes() as ClassId)
        .filter_map(|c| a.pure(ds, c))
        .collect();
    if !pures.is_empty() {
        match domain {
            DomainKind::Box => {
                let joined = pures
                    .into_iter()
                    .reduce(|x, y| x.join(ds, &y))
                    .expect("non-empty");
                terminals.push(joined);
            }
            _ => terminals.extend(pures),
        }
    }
    if a.base().is_pure() {
        // Every concretization is pure: the else branch of the
        // conditional is infeasible.
        return Step {
            terminals,
            branches: Vec::new(),
        };
    }

    // --- φ ← bestSplit#(⟨T,n⟩) and the φ = ⋄ conditional ---
    // Without a session memo every call is a computation, charged as
    // the miss a cold memo would have recorded.
    let bs = match memo {
        Some(memo) => memo.best_split(ds, a, ctx.metrics()),
        None => {
            ctx.metrics().record(Counter::SplitMemoMisses, 1);
            Arc::new(best_split_abs(ds, a, transformer))
        }
    };
    if bs.diamond {
        terminals.push(a.clone());
    }
    if bs.preds.is_empty() {
        return Step {
            terminals,
            branches: Vec::new(),
        };
    }

    // --- filter#(⟨T,n⟩, Ψ, x) ---
    let mut branches: Vec<AbstractSet> = Vec::new();
    for p in &bs.preds {
        match p.eval3(x) {
            Truth::True => branches.push(p.restrict(ds, a)),
            Truth::False => branches.push(p.restrict_neg(ds, a)),
            Truth::Maybe => {
                branches.push(p.restrict(ds, a));
                branches.push(p.restrict_neg(ds, a));
            }
        }
    }
    branches.retain(|b| !b.is_empty());
    if domain == DomainKind::Box {
        branches = branches
            .into_iter()
            .reduce(|x, y| x.join(ds, &y))
            .into_iter()
            .collect();
    }
    Step {
        terminals,
        branches,
    }
}

/// Frontiers below this size are stepped inline: a fan-out (spawning
/// and joining its helper threads) costs more than a couple of
/// `bestSplit#` calls on small sets.
const MIN_PARALLEL_FRONTIER: usize = 4;

thread_local! {
    /// Per-thread scratch arena for the learner's word buffers
    /// (`prune_subsumed`'s row-containment bitsets and accumulator).
    /// Frontier lifetime: reset at the start of every
    /// [`run_abstract_shared`] call on this thread; see
    /// `antidote_data::arena` for the lifecycle and the interner `Arc`
    /// escape hatch (DESIGN.md §10.2).
    static SCRATCH: RefCell<WordArena> = RefCell::new(WordArena::new());
}

/// Runs `DTrace#(⟨T, n⟩, x)` to depth `depth` under `ctx`, without
/// session state.
///
/// Kept for callers outside this workspace: `memo` and `simd` have no
/// effect (both settings always produced bit-identical output). The run
/// is [`run_abstract_shared`] with no [`SharedLearner`].
#[allow(clippy::too_many_arguments)]
pub fn run_abstract(
    ds: &Dataset,
    initial: AbstractSet,
    x: &[f64],
    depth: usize,
    domain: DomainKind,
    transformer: CprobTransformer,
    subsume: bool,
    _memo: bool,
    _simd: bool,
    ctx: &ExecContext,
) -> RunOutput {
    run_abstract_shared(
        ds,
        initial,
        x,
        depth,
        domain,
        transformer,
        subsume,
        None,
        ctx,
    )
}

/// Runs `DTrace#(⟨T, n⟩, x)` to depth `depth` under `ctx` — the one
/// learner entry every certification path goes through.
///
/// `initial` is usually [`AbstractSet::full`]`(ds, n)` — the precise
/// abstraction `α(Δn(T))`.
///
/// For the `Disjuncts` and `Hybrid` domains the per-iteration frontier
/// is mapped across `ctx`'s workers ([`ExecContext::par_map`]); results
/// are folded back in input order, so parallel and sequential runs
/// produce identical terminal sets and verdicts (the `Box` domain's
/// frontier is a single state and always steps inline).
///
/// `subsume` arms frontier subsumption pruning (DESIGN.md §7): after each
/// iteration's dedup, disjuncts dominated under the `⟨T,n⟩` partial order
/// by another frontier element are dropped before the Hybrid merge.
/// Pruning is sound for every domain (see `prune_subsumed`) and is a
/// no-op for `Box` (a single state cannot dominate itself); `false` is
/// the `--no-subsume` escape hatch restoring the unpruned frontier.
/// Only a strictly larger budget can dominate, so a frontier whose
/// disjuncts share one budget — every frontier until some branch is
/// clamped to fewer than `n` rows — skips the pass and its scratch
/// entirely (DESIGN.md §7.2).
///
/// `shared` is a ladder's or session's learner state (DESIGN.md §9.2,
/// §12): the run probes its [`SplitMemo`], so split analyses computed
/// for one point or request answer every later one on the same
/// `(dataset epoch, transformer)`. With `None` the run computes every
/// `bestSplit#` directly. Either way the run hash-conses its frontier
/// bases through its own per-run [`SubsetInterner`]. Verdicts are
/// unaffected: `bestSplit#` is a pure function of
/// `(base, n, transformer)`, so memoized and memo-free runs produce
/// bit-identical `RunOutput`s (pinned in `tests/determinism.rs` and the
/// session differential). Every `bestSplit#` computation lands on
/// [`RunMetrics::split_memo_misses`](crate::engine::RunMetrics::split_memo_misses)
/// and every memo answer on `split_memo_hits`; structure sharing lands
/// on [`RunMetrics::interner_hits`](crate::engine::RunMetrics::interner_hits).
///
/// The run also resets this thread's scratch [`WordArena`] and reports
/// `arena_resets` / `arena_bytes` on the metrics.
///
/// # Panics
///
/// Panics if `shared` was built for a different dataset epoch.
#[allow(clippy::too_many_arguments)]
pub fn run_abstract_shared(
    ds: &Dataset,
    initial: AbstractSet,
    x: &[f64],
    depth: usize,
    domain: DomainKind,
    transformer: CprobTransformer,
    subsume: bool,
    shared: Option<&SharedLearner>,
    ctx: &ExecContext,
) -> RunOutput {
    if let Some(s) = shared {
        assert_eq!(
            s.epoch(),
            ds.epoch(),
            "shared learner state from epoch {} paired with dataset epoch {}",
            s.epoch(),
            ds.epoch()
        );
    }
    SCRATCH.with(|arena| {
        let mut arena = arena.borrow_mut();
        arena.reset();
        ctx.metrics().record(Counter::ArenaResets, 1);
        let out = run_abstract_in(
            ds,
            initial,
            x,
            depth,
            domain,
            transformer,
            subsume,
            shared,
            ctx,
            &mut arena,
        );
        ctx.metrics()
            .record(Counter::ArenaBytes, arena.peak_bytes() as u64);
        out
    })
}

/// [`run_abstract_shared`] against an explicit scratch arena: the removal
/// learner's step and layer pass on the shared [`run_frontier`] loop.
#[allow(clippy::too_many_arguments)]
fn run_abstract_in(
    ds: &Dataset,
    initial: AbstractSet,
    x: &[f64],
    depth: usize,
    domain: DomainKind,
    transformer: CprobTransformer,
    subsume: bool,
    shared: Option<&SharedLearner>,
    ctx: &ExecContext,
    arena: &mut WordArena,
) -> RunOutput {
    let memo = shared.map(SharedLearner::memo);
    // Hash-cons through a table that lives exactly as long as this run,
    // so its footprint is bounded by the states the run visits; only the
    // memo outlives the run.
    let mut interner = SubsetInterner::new();
    run_frontier(
        initial,
        depth,
        ctx,
        |a| step_disjunct(ds, a, x, domain, transformer, memo, ctx),
        |next| {
            // Disjunct-set hygiene: duplicates arise whenever several
            // predicates induce the same restriction (common for binary
            // features); the disjunctive join is set union, so
            // deduplication is exact.
            dedup_disjuncts(next);
            // Hash-cons the surviving bases: payloads seen in an earlier
            // iteration (or under a different budget) are rewired to
            // their canonical allocation, making later equality checks
            // and memo probes pointer-fast.
            intern_frontier(next, &mut interner, ctx);
            if subsume && domain != DomainKind::Box {
                let pruned = prune_subsumed(next, arena);
                if pruned > 0 {
                    ctx.metrics()
                        .record(Counter::DisjunctsSubsumed, pruned as u64);
                }
            }
            if let DomainKind::Hybrid { max_disjuncts } = domain {
                merge_down_to(ds, next, max_disjuncts.max(1));
            }
        },
    )
}

/// The depth loop of `DTrace#` (§4.7), shared by both abstract learners:
/// the removal learner's [`run_abstract_shared`] and the label-flip
/// learner's [`certify_label_flips`](crate::flip::certify_label_flips).
///
/// Each iteration maps `step` over the frontier — fanned out across
/// `ctx`'s workers from [`MIN_PARALLEL_FRONTIER`] states up, inline
/// below — and folds the results back in input order, so parallel and
/// sequential runs produce identical terminal sequences. A deadline hit
/// inside any step cancels nothing by itself: once `ctx` says stop, the
/// remaining states go unstepped and the in-order fold turns the first
/// of them into the sequential abort (Cancelled or Timeout). `layer`
/// then runs on the stepped successors in the sequential fold (so its
/// counters are thread-invariant) before the watermarks and the
/// disjunct budget are checked. It also runs on the one-state root,
/// where only its interning can act: dedup, pruning and merging need
/// two states. States that survive all `depth` iterations become
/// terminals.
pub(crate) fn run_frontier<S, T>(
    initial: S,
    depth: usize,
    ctx: &ExecContext,
    step: impl Fn(&S) -> Step<T, S> + Sync,
    mut layer: impl FnMut(&mut Vec<S>),
) -> RunOutput<T>
where
    S: Footprint + Send + Sync,
    T: Footprint + From<S> + Send,
{
    let mut active: Vec<S> = vec![initial];
    layer(&mut active);
    let mut out = RunOutput {
        terminals: Vec::new(),
        aborted: None,
        peak_disjuncts: 1,
        peak_bytes: 0,
        iterations_completed: 0,
    };

    for _ in 0..depth {
        if active.is_empty() {
            break;
        }
        let step_live = |s: &S| (!ctx.should_stop()).then(|| step(s));
        let stepped: Vec<Option<Step<T, S>>> =
            if active.len() >= MIN_PARALLEL_FRONTIER && ctx.effective_threads() > 1 {
                ctx.par_map(&active, |_, s| step_live(s))
            } else {
                active.iter().map(step_live).collect()
            };
        let processed = stepped.iter().filter(|s| s.is_some()).count();
        ctx.metrics()
            .record(Counter::DisjunctsProcessed, processed as u64);

        let mut next: Vec<S> = Vec::new();
        for s in stepped {
            let Some(s) = s else {
                out.aborted = Some(if ctx.is_cancelled() {
                    Abort::Cancelled
                } else {
                    Abort::Timeout
                });
                return out;
            };
            out.terminals.extend(s.terminals);
            next.extend(s.branches);
        }
        layer(&mut next);

        active = next;
        out.iterations_completed += 1;
        let live = active.len() + out.terminals.len();
        out.peak_disjuncts = out.peak_disjuncts.max(live);
        let bytes = active.iter().map(S::footprint).sum::<usize>()
            + out.terminals.iter().map(T::footprint).sum::<usize>();
        out.peak_bytes = out.peak_bytes.max(bytes);
        ctx.metrics()
            .record(Counter::PeakDisjuncts, out.peak_disjuncts as u64);
        ctx.metrics()
            .record(Counter::PeakBytes, out.peak_bytes as u64);
        if ctx.over_disjunct_budget(live) {
            out.aborted = Some(Abort::DisjunctLimit);
            return out;
        }
    }

    // States that survive all d iterations reach the learner's output.
    out.terminals.extend(active.into_iter().map(T::from));
    out.peak_disjuncts = out.peak_disjuncts.max(out.terminals.len());
    ctx.metrics()
        .record(Counter::PeakDisjuncts, out.peak_disjuncts as u64);
    out
}

/// Removes exact duplicate learner states (same `(budget, subset)` key,
/// projected by `key`). Shared by both abstract learners; the
/// hash-consed `Subset` key makes each probe O(1): cloning is a refcount
/// bump and hashing writes the precomputed content hash — no word-vector
/// copies or re-walks (the pre-interning backend copied every state's
/// words into the seen-set here).
pub(crate) fn dedup_states<D>(items: &mut Vec<D>, key: impl Fn(&D) -> (usize, Subset)) {
    if items.len() < 2 {
        return;
    }
    let mut seen: HashSet<(usize, Subset)> = HashSet::with_capacity(items.len());
    items.retain(|d| seen.insert(key(d)));
}

/// Removes exact duplicate disjuncts (same base set and budget).
fn dedup_disjuncts(disjuncts: &mut Vec<AbstractSet>) {
    dedup_states(disjuncts, |d| (d.n(), d.base().clone()));
}

/// Rewires every disjunct whose base payload is already interned to the
/// canonical allocation, interning first-seen payloads. Interner hits
/// (re-encountered payloads) land on the run metrics; rewiring preserves
/// value equality exactly (`AbstractSet::new` re-clamps against an equal
/// base, a no-op), so this pass is observationally invisible.
fn intern_frontier(
    disjuncts: &mut [AbstractSet],
    interner: &mut SubsetInterner,
    ctx: &ExecContext,
) {
    let hits = interner.intern_all(disjuncts, AbstractSet::base, |d, s| {
        AbstractSet::new(s, d.n())
    });
    if hits > 0 {
        ctx.metrics().record(Counter::InternerHits, hits);
    }
}

/// Drops every disjunct *subsumed* by another: `a ⊑ b` (footnote 4's
/// partial order) gives `γ(a) ⊆ γ(b)`, so every concrete fragment `a`
/// covers is already covered by `b`, and the soundness induction carries
/// through `b`'s successors alone. Pruning is deterministic and
/// order-preserving (kept disjuncts retain their frontier positions), so
/// parallel and sequential runs stay identical; after [`dedup_disjuncts`]
/// all elements are distinct, mutual domination is impossible, and every
/// domination chain ends in a kept ⊑-maximal element, so dropping exactly
/// the elements dominated by *some* other is well-defined. Returns the
/// number pruned.
///
/// **Budget stratification.** Distinct `a ⊑ b` force `n_a < n_b`: equal
/// bases leave `n_a ≤ n_b` with the pair distinct, and a strict
/// containment costs at least one unit of `b`'s budget
/// (`n_a ≤ n_b − |T_b \ T_a|`). So a frontier with one budget — every
/// frontier of a run from `⟨T, n⟩` until some branch is clamped to
/// fewer than `n` rows — returns at once without touching the arena, a disjunct
/// at the top budget is never dominated (it is kept unqueried), and one
/// at the bottom budget never dominates (it is never indexed). Both
/// skips remove only pairs the order already rules out, so the kept set
/// and the prune count are those of the unstratified pass.
///
/// The dominated-by predicate is evaluated through an **inverted row
/// bitset** instead of an all-pairs `⊑` scan (the previous quadratic
/// pass dominated whole-sweep wall time on wide frontiers, pruning a
/// handful of disjuncts for tens of milliseconds of scanning).
///
/// Rewriting footnote 4's budget inequality with the *minimum surviving
/// size* `κ(⟨T,n⟩) = |T| − n` collapses the order to
///
/// ```text
/// a ⊑ b  ⟺  T_a ⊆ T_b  ∧  κ(b) ≤ κ(a)
/// ```
///
/// so processing elements in (κ ascending, |T| descending) order makes
/// *every* already-processed element a budget-valid dominator — the only
/// remaining question is containment. Per-row bitsets record which
/// processed elements contain each row; `T_a ⊆ T_b` candidates are the
/// AND of the bitsets of `a`'s rows (seeded at `a`'s rarest row, early
/// exit once empty — usually after two or three rows), and a non-empty
/// AND after all rows means *dominated*, no per-candidate arithmetic at
/// all. The pass stops after the last disjunct below the top budget:
/// everything after it is kept and nothing after it is queried, so the
/// row bitsets only span that prefix. The kept set is exactly the
/// all-pairs one (the order is a linearisation of ⊑, see the proof notes
/// inline), so ladders, verdicts, and prune counts stay bit-identical
/// (pinned by the `--no-subsume` differential in `tests/determinism.rs`
/// and the all-pairs differential below).
fn prune_subsumed(disjuncts: &mut Vec<AbstractSet>, arena: &mut WordArena) -> usize {
    let budgets = disjuncts.iter().map(AbstractSet::n);
    let (Some(bottom), Some(top)) = (budgets.clone().min(), budgets.max()) else {
        return 0;
    };
    if bottom == top {
        return 0;
    }
    let before = disjuncts.len();
    // (κ asc, |T| desc) linearises strict domination: a ⊑ b (a ≠ b)
    // needs κ(b) ≤ κ(a), and within equal κ needs |T_b| > |T_a|
    // (|T_b| = |T_a| with containment means equal sets, whose budgets —
    // hence κ — would differ; exact duplicates were already deduped). So
    // every dominator is processed strictly before its dominatee, and
    // everything processed before `a` that contains `T_a` dominates it.
    let mut ranked: Vec<u32> = (0..before as u32).collect();
    ranked.sort_by_key(|&i| {
        let d = &disjuncts[i as usize];
        (d.len() - d.n(), std::cmp::Reverse(d.len()))
    });
    // Only disjuncts below the top budget are queried; the pass ends at
    // the last of them (one exists, since bottom < top).
    let prefix = ranked
        .iter()
        .rposition(|&i| disjuncts[i as usize].n() < top)
        .map_or(0, |p| p + 1);
    let ranked = &ranked[..prefix];
    // row_bits[row * stride ..][..]: bitset over processing positions,
    // bit p set iff the (kept, indexed) element at position p contains
    // `row`.
    let stride = prefix.div_ceil(64);
    let n_rows = ranked
        .iter()
        .map(|&i| disjuncts[i as usize].base().words().len() * 64)
        .max()
        .unwrap_or(0);
    // The scratch (tens of kilobytes at peak frontiers) comes from the
    // per-thread arena: zeroed recycled buffers, no allocator round-trip
    // per frontier iteration.
    let mut row_bits = arena.alloc(n_rows * stride);
    // How many indexed elements contain each row; seeding the AND from
    // the rarest member row refutes containment for most elements
    // without touching any other bitset.
    let mut row_freq = arena.alloc(n_rows);
    let mut acc = arena.alloc(stride);
    let mut live_words: Vec<u32> = Vec::with_capacity(stride);
    let mut keep = vec![true; before];
    for (pos, &i) in ranked.iter().enumerate() {
        let d = &disjuncts[i as usize];
        // A top-budget disjunct cannot be dominated, an empty base has no
        // rows (filter# never emits one) and is conservatively kept, and
        // a base whose rarest row is in no indexed element cannot be
        // contained in one.
        let rarest = (d.n() < top)
            .then(|| d.base().iter().min_by_key(|&r| row_freq[r as usize]))
            .flatten()
            .filter(|&r| row_freq[r as usize] > 0);
        if let Some(first) = rarest {
            let first_bits = &row_bits[first as usize * stride..][..stride];
            acc.copy_from_slice(first_bits);
            // Track only the words still holding candidates: the rarest
            // seed is sparse, so each further row ANDs a handful of
            // words, not the whole stride.
            live_words.clear();
            live_words.extend((0..stride as u32).filter(|&w| acc[w as usize] != 0));
            for row in d.base().iter() {
                if row == first {
                    continue;
                }
                if live_words.is_empty() {
                    break;
                }
                let bits = &row_bits[row as usize * stride..][..stride];
                if live_words.len() == stride {
                    // Every word still live: AND the whole slices through
                    // the chunked word kernels and rebuild the live list.
                    // Same result as the sparse retain below (the list is
                    // ascending either way), vector-wide instead of
                    // word-at-a-time.
                    simd::and_in_place(&mut acc, bits);
                    live_words.clear();
                    live_words.extend((0..stride as u32).filter(|&w| acc[w as usize] != 0));
                } else {
                    live_words.retain(|&w| {
                        acc[w as usize] &= bits[w as usize];
                        acc[w as usize] != 0
                    });
                }
            }
            // Containment survived every row: some processed element
            // contains T_d, and processing order makes it a dominator.
            keep[i as usize] = live_words.is_empty();
        }
        if keep[i as usize] && d.n() > bottom {
            // Only kept elements enter the index: a dominated element's
            // dominators include a kept ⊑-maximal one by transitivity
            // (chains ascend the processing order), so
            // transitively-dominated elements are still caught. A
            // bottom-budget element dominates nothing, so it is left out.
            for row in d.base().iter() {
                row_bits[row as usize * stride + pos / 64] |= 1u64 << (pos % 64);
                row_freq[row as usize] += 1;
            }
        }
    }
    arena.recycle(row_bits);
    arena.recycle(row_freq);
    arena.recycle(acc);
    let mut it = keep.iter();
    disjuncts.retain(|_| *it.next().expect("keep mask covers every disjunct"));
    before - disjuncts.len()
}

/// Joins the smallest disjuncts pairwise until at most `k` remain (the
/// Hybrid domain's widening step).
fn merge_down_to(ds: &Dataset, disjuncts: &mut Vec<AbstractSet>, k: usize) {
    while disjuncts.len() > k {
        // Keep largest-first so the two smallest are at the tail.
        disjuncts.sort_by_key(|d| std::cmp::Reverse(d.len()));
        let x = disjuncts.pop().expect("len > k >= 1");
        let y = disjuncts.pop().expect("len > k >= 1");
        disjuncts.push(x.join(ds, &y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::{synth, Subset};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn run_fig2(n: usize, depth: usize, domain: DomainKind) -> RunOutput {
        let ds = synth::figure2();
        run_abstract_shared(
            &ds,
            AbstractSet::full(&ds, n),
            &[5.0],
            depth,
            domain,
            CprobTransformer::Optimal,
            true,
            None,
            &ExecContext::sequential(),
        )
    }

    #[test]
    fn zero_depth_passes_initial_through() {
        let out = run_fig2(2, 0, DomainKind::Box);
        assert_eq!(out.terminals.len(), 1);
        assert_eq!(out.terminals[0].len(), 13);
        assert_eq!(out.terminals[0].n(), 2);
        assert!(out.aborted.is_none());
    }

    #[test]
    fn figure2_depth1_n0_keeps_left_side_exactly() {
        // With n = 0 the abstraction is exact: bestSplit# keeps only
        // x ≤ 10 and filter# retains its left side for input 5.
        let out = run_fig2(0, 1, DomainKind::Box);
        assert!(out.aborted.is_none());
        assert_eq!(out.iterations_completed, 1);
        assert_eq!(out.terminals.len(), 1);
        let t = &out.terminals[0];
        assert_eq!(t.len(), 9);
        assert_eq!(t.n(), 0);
        assert_eq!(t.base().class_counts(), &[7, 2]);
    }

    #[test]
    fn figure2_depth1_n2_is_sound_for_every_branch() {
        // At n = 2 on a 13-point set the score intervals are wide, so many
        // predicates are kept and the Box join is imprecise — but it must
        // still cover the concrete filter outcome T↓x≤10 under any ≤2
        // removals (Example 4.8's state ⟨T↓x≤10, 2⟩).
        let ds = synth::figure2();
        let out = run_fig2(2, 1, DomainKind::Box);
        assert_eq!(out.terminals.len(), 1);
        let left = Subset::from_indices(&ds, (0..9).collect());
        assert!(out.terminals[0].concretizes(&left));
        let left_minus2 = Subset::from_indices(&ds, (2..9).collect());
        assert!(out.terminals[0].concretizes(&left_minus2));
    }

    #[test]
    fn disjuncts_match_box_when_split_is_unique() {
        let b = run_fig2(0, 1, DomainKind::Box);
        let d = run_fig2(0, 1, DomainKind::Disjuncts);
        assert_eq!(b.terminals.len(), d.terminals.len());
        assert_eq!(b.terminals[0], d.terminals[0]);
    }

    #[test]
    fn pure_terminals_appear_when_budget_allows() {
        // n = 7 lets the attacker erase all white points: pure(black) and
        // pure(white) both become feasible terminals at iteration 1.
        let out = run_fig2(7, 1, DomainKind::Disjuncts);
        assert!(
            out.terminals.len() >= 3,
            "two pure terminals + continuation"
        );
        let pure_count = out.terminals.iter().filter(|t| t.base().is_pure()).count();
        assert!(pure_count >= 2);
    }

    #[test]
    fn timeout_aborts() {
        let ds = synth::mnist17_like(synth::MnistVariant::Binary, 200, 0);
        let out = run_abstract_shared(
            &ds,
            AbstractSet::full(&ds, 8),
            &ds.row_values(0),
            4,
            DomainKind::Disjuncts,
            CprobTransformer::Optimal,
            true,
            None,
            &ExecContext::sequential().timeout(std::time::Duration::ZERO),
        );
        assert_eq!(out.aborted, Some(Abort::Timeout));
    }

    #[test]
    fn disjunct_budget_aborts() {
        let ds = synth::iris_like(0);
        let out = run_abstract_shared(
            &ds,
            AbstractSet::full(&ds, 8),
            &ds.row_values(0),
            4,
            DomainKind::Disjuncts,
            CprobTransformer::Optimal,
            true,
            None,
            &ExecContext::sequential().disjunct_budget(2),
        );
        assert_eq!(out.aborted, Some(Abort::DisjunctLimit));
    }

    #[test]
    fn hybrid_caps_active_disjuncts() {
        let ds = synth::iris_like(0);
        let cap = 4;
        let out = run_abstract_shared(
            &ds,
            AbstractSet::full(&ds, 4),
            &ds.row_values(3),
            3,
            DomainKind::Hybrid { max_disjuncts: cap },
            CprobTransformer::Optimal,
            true,
            None,
            &ExecContext::sequential(),
        );
        assert!(out.aborted.is_none());
        // Each iteration, each of ≤ cap active disjuncts can emit at most
        // k pure terminals and one ⋄ terminal; the final states add ≤ cap.
        let k = ds.n_classes();
        assert!(
            out.terminals.len() <= 3 * cap * (k + 1) + cap,
            "got {} terminals",
            out.terminals.len()
        );
    }

    #[test]
    fn box_active_state_is_always_single() {
        // Box never forks: with depth 3 and generous n the terminal count
        // is at most one per return point per iteration (pure + diamond)
        // plus the final state.
        let out = run_fig2(3, 3, DomainKind::Box);
        assert!(
            out.terminals.len() <= 3 * 2 + 1,
            "got {}",
            out.terminals.len()
        );
    }

    #[test]
    fn pure_base_stops_iteration() {
        let ds = synth::figure2();
        let blacks = Subset::from_indices(&ds, vec![9, 10, 11, 12]);
        let out = run_abstract_shared(
            &ds,
            AbstractSet::new(blacks, 1),
            &[12.0],
            3,
            DomainKind::Disjuncts,
            CprobTransformer::Optimal,
            true,
            None,
            &ExecContext::sequential(),
        );
        // The only terminal is the pure restriction of the initial state.
        assert_eq!(out.terminals.len(), 1);
        assert!(out.terminals[0].base().is_pure());
    }

    #[test]
    fn dedup_removes_exact_duplicates() {
        let ds = synth::figure2();
        let a = AbstractSet::full(&ds, 1);
        let mut v = vec![a.clone(), a.clone(), AbstractSet::full(&ds, 2)];
        dedup_disjuncts(&mut v);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn prune_drops_dominated_disjuncts_and_keeps_order() {
        let ds = synth::figure2();
        let dominated = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1]), 1);
        let dominator = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1, 2]), 2);
        let unrelated = AbstractSet::new(Subset::from_indices(&ds, vec![5, 6]), 1);
        assert!(dominated.le(&dominator));
        assert!(!unrelated.le(&dominator));
        let mut arena = WordArena::new();
        let mut v = vec![dominated.clone(), unrelated.clone(), dominator.clone()];
        assert_eq!(prune_subsumed(&mut v, &mut arena), 1);
        // Survivors keep their relative frontier order.
        assert_eq!(v, vec![unrelated.clone(), dominator.clone()]);
        // Chains collapse to the maximal element in one pass.
        let top = AbstractSet::new(Subset::from_indices(&ds, vec![0, 1, 2, 3]), 3);
        let mut chain = vec![dominated, dominator, top.clone(), unrelated.clone()];
        assert_eq!(prune_subsumed(&mut chain, &mut arena), 2);
        assert_eq!(chain, vec![top, unrelated]);
    }

    /// The all-pairs definition `prune_subsumed` must reproduce: keep `a`
    /// unless some other frontier element dominates it.
    fn prune_reference(frontier: &[AbstractSet]) -> Vec<AbstractSet> {
        frontier
            .iter()
            .enumerate()
            .filter(|&(i, a)| !frontier.iter().enumerate().any(|(j, b)| i != j && a.le(b)))
            .map(|(_, a)| a.clone())
            .collect()
    }

    /// A random frontier of one of four shapes over `ds`'s rows: one
    /// budget, mixed budgets, clamped fragments (`|T|` below the
    /// requested budget), or interleaved ⊑-chains.
    fn random_frontier(ds: &Dataset, rng: &mut StdRng, shape: usize) -> Vec<AbstractSet> {
        // Draws from a narrow row window so containment is common.
        let rows = ds.len() as u32;
        let subset = |rng: &mut StdRng, max_len: usize| {
            let start = rng.random_range(0..rows - 24);
            let len = rng.random_range(1..=max_len);
            let idx = (0..len)
                .map(|_| start + rng.random_range(0..24u32))
                .collect();
            Subset::from_indices(ds, idx)
        };
        let size = rng.random_range(2..40usize);
        match shape {
            0 => {
                let n = rng.random_range(0..4usize);
                (0..size)
                    .map(|_| AbstractSet::new(subset(rng, 24), n))
                    .collect()
            }
            1 => (0..size)
                .map(|_| AbstractSet::new(subset(rng, 24), rng.random_range(0..5)))
                .collect(),
            2 => (0..size)
                .map(|_| AbstractSet::new(subset(rng, 4), rng.random_range(0..8)))
                .collect(),
            _ => {
                let mut frontier = Vec::new();
                while frontier.len() < size {
                    // Each link drops one row and one unit of budget, so
                    // it sits ⊑ the previous one.
                    let mut top = AbstractSet::new(subset(rng, 24), rng.random_range(2..6));
                    frontier.push(top.clone());
                    while top.n() > 0 && top.len() > 1 {
                        let mut idx = top.base().indices();
                        idx.remove(rng.random_range(0..idx.len()));
                        top = AbstractSet::new(Subset::from_indices(ds, idx), top.n() - 1);
                        frontier.push(top.clone());
                    }
                }
                frontier.shuffle(rng);
                frontier
            }
        }
    }

    #[test]
    fn prune_matches_the_all_pairs_reference() {
        let ds = synth::iris_like(0);
        let mut rng = StdRng::seed_from_u64(0x5EB5);
        let mut pruned_total = 0;
        for case in 0..800 {
            let shape = case % 4;
            let mut frontier = random_frontier(&ds, &mut rng, shape);
            dedup_disjuncts(&mut frontier);
            let expected = prune_reference(&frontier);
            let one_budget = frontier.iter().all(|d| d.n() == frontier[0].n());
            let mut arena = WordArena::new();
            let before = frontier.len();
            let pruned = prune_subsumed(&mut frontier, &mut arena);
            assert_eq!(frontier, expected, "case {case}, shape {shape}");
            assert_eq!(pruned, before - expected.len());
            if one_budget {
                assert_eq!(pruned, 0);
                assert_eq!(
                    arena.peak_bytes(),
                    0,
                    "a one-budget frontier allocates nothing"
                );
            }
            pruned_total += pruned;
        }
        assert!(pruned_total > 0, "the frontiers must exercise pruning");
    }

    #[test]
    fn disabling_subsumption_restores_the_unpruned_frontier() {
        // On a frontier wide enough to contain dominated disjuncts, the
        // pruned and unpruned runs must still agree on coverage-relevant
        // outputs (terminal coverage is property-tested end-to-end in
        // tests/soundness.rs; here we pin that the escape hatch actually
        // changes the processed-disjunct count when pruning fires).
        let ds = synth::iris_like(0);
        let run = |subsume: bool, ctx: &ExecContext| {
            run_abstract_shared(
                &ds,
                AbstractSet::full(&ds, 8),
                &ds.row_values(3),
                3,
                DomainKind::Disjuncts,
                CprobTransformer::Optimal,
                subsume,
                None,
                ctx,
            )
        };
        let ctx_on = ExecContext::sequential();
        let on = run(true, &ctx_on);
        let ctx_off = ExecContext::sequential();
        let off = run(false, &ctx_off);
        assert!(on.aborted.is_none() && off.aborted.is_none());
        assert!(
            ctx_on.metrics().disjuncts_subsumed() > 0,
            "pruning must fire on this frontier"
        );
        assert_eq!(ctx_off.metrics().disjuncts_subsumed(), 0);
        assert!(on.peak_disjuncts <= off.peak_disjuncts);
    }

    #[test]
    fn memoized_run_is_bit_identical_and_hits_at_depth_three() {
        // Same-feature threshold restrictions compose, so depth-3 runs
        // revisit ⟨T,n⟩ states from earlier iterations; a session's memo
        // must answer them with the exact result a recompute would
        // produce.
        let ds = synth::iris_like(0);
        let run = |shared: Option<&SharedLearner>, ctx: &ExecContext| {
            run_abstract_shared(
                &ds,
                AbstractSet::full(&ds, 6),
                &ds.row_values(3),
                3,
                DomainKind::Disjuncts,
                CprobTransformer::Optimal,
                true,
                shared,
                ctx,
            )
        };
        let shared = SharedLearner::new(&ds, CprobTransformer::Optimal);
        let memo_ctx = ExecContext::sequential();
        let memoized = run(Some(&shared), &memo_ctx);
        let plain_ctx = ExecContext::sequential();
        let plain = run(None, &plain_ctx);
        assert_eq!(memoized.terminals, plain.terminals);
        assert_eq!(memoized.aborted, plain.aborted);
        assert_eq!(memoized.peak_disjuncts, plain.peak_disjuncts);
        assert_eq!(memoized.peak_bytes, plain.peak_bytes);
        assert_eq!(memoized.iterations_completed, plain.iterations_completed);
        let (memo, plain) = (memo_ctx.metrics(), plain_ctx.metrics());
        assert!(
            memo.split_memo_hits() > 0,
            "sanity: this configuration must revisit frontier states"
        );
        // The one-shot run computes every bestSplit# the memo was asked.
        assert_eq!(plain.split_memo_hits(), 0);
        assert_eq!(
            plain.split_memo_misses(),
            memo.split_memo_hits() + memo.split_memo_misses()
        );
        // Both runs hash-cons through their own per-run interner.
        assert!(memo.interner_hits() > 0);
        assert_eq!(memo.interner_hits(), plain.interner_hits());
    }

    #[test]
    fn one_shot_runs_count_one_miss_per_best_split() {
        // Without a SharedLearner every bestSplit# is computed and
        // charged as one miss: figure 2 at depth 1 steps only the root.
        let ds = synth::figure2();
        let count = |depth: usize, domain: DomainKind| {
            let ctx = ExecContext::sequential();
            run_abstract_shared(
                &ds,
                AbstractSet::full(&ds, 2),
                &[5.0],
                depth,
                domain,
                CprobTransformer::Optimal,
                true,
                None,
                &ctx,
            );
            let m = ctx.metrics();
            assert_eq!(m.split_memo_hits(), 0, "{domain:?} @ depth {depth}");
            (m.split_memo_misses(), m.disjuncts_processed())
        };
        assert_eq!(count(0, DomainKind::Box), (0, 0));
        assert_eq!(count(1, DomainKind::Box), (1, 1));
        // Deeper runs compute once per processed disjunct, except that a
        // pure base terminates before bestSplit#.
        let (misses, processed) = count(3, DomainKind::Disjuncts);
        assert!(misses > 1);
        assert!(misses <= processed);
    }

    #[test]
    fn merge_down_bounds_count_and_stays_sound() {
        let ds = synth::figure2();
        let full = AbstractSet::full(&ds, 0);
        let mut parts: Vec<AbstractSet> = vec![
            full.restrict_where(&ds, |r| r < 4),
            full.restrict_where(&ds, |r| (4..8).contains(&r)),
            full.restrict_where(&ds, |r| r >= 8),
        ];
        let samples: Vec<Subset> = parts.iter().map(|p| p.base().clone()).collect();
        merge_down_to(&ds, &mut parts, 2);
        assert_eq!(parts.len(), 2);
        for s in &samples {
            assert!(
                parts.iter().any(|p| p.concretizes(s)),
                "every original sample remains covered by some merged disjunct"
            );
        }
    }
}
