#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Abstract domains for poisoning-robustness verification (§4–§5 of the
//! paper).
//!
//! The paper's key novelty is an abstract domain whose elements `⟨T, n⟩`
//! concisely represent the combinatorially large family of poisoned
//! training sets `Δn(T) = { T' ⊆ T : |T \ T'| ≤ n }`. This crate provides:
//!
//! * [`interval`] — the standard interval domain `[l, u]` used for all
//!   numeric quantities (entropy, scores, class probabilities);
//! * [`trainset`] — the training-set abstraction [`AbstractSet`] with its
//!   join ⊔ (Def. 4.1), meet ⊓ and order ⊑ (footnote 4), restriction
//!   `↓#φ`, the `pure` operation (§4.7), and both the "natural" and the
//!   *optimal* `cprob#` transformers (§4.4 + footnote 6);
//! * [`predicate_abs`] — abstract predicates: concrete thresholds, the
//!   symbolic real-valued form `x_i ≤ [a, b)` with three-valued semantics
//!   (Appendix B), and the predicate-set abstraction Ψ including the null
//!   predicate ⋄.
//!
//! Soundness of every transformer is property-tested against the concrete
//! semantics from `antidote-tree` by sampling concretizations.

pub mod flipset;
pub mod interval;
pub mod predicate_abs;
pub mod trainset;

pub use flipset::FlipSet;
pub use interval::Interval;
pub use predicate_abs::{AbsPredicate, PredSet, Truth};
pub use trainset::{AbstractSet, CprobTransformer};

/// Compile-time guarantee that every abstract element can cross thread
/// boundaries: `antidote-core`'s execution engine fans disjunct
/// frontiers out across worker threads, which requires `Send + Sync`
/// here. Keeping the assertion next to the types means any future
/// `Rc`/`Cell`-style field shows up as a build error in this crate, not
/// as an inference failure three crates downstream.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AbstractSet>();
    assert_send_sync::<FlipSet>();
    assert_send_sync::<AbsPredicate>();
    assert_send_sync::<Interval>();
    assert_send_sync::<CprobTransformer>();
};
