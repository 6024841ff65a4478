#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Baselines the paper compares against (conceptually or in prose).
//!
//! * [`enumerate`] — the "naïve approach" of §2: explicitly retrain on
//!   every dataset in `Δn(T)`. Exact but astronomically expensive
//!   (`|Δn(T)| = Σᵢ C(|T|, i)`); used here as ground truth for soundness
//!   tests on small instances and to compute the paper's headline model
//!   counts (e.g. ≈10⁴³² datasets for MNIST-1-7 at `n = 192`).
//! * [`attack`] — a greedy data-poisoning *attack* in the style of the
//!   attack literature the paper cites (§7): it searches for a concrete
//!   removal set that flips a prediction. Attacks give an unsound lower
//!   bound that sandwiches the prover: any input with a successful
//!   `n`-element attack must never be certified at budget `n`.

pub mod attack;
pub mod enumerate;

pub use attack::{greedy_attack, AttackResult};
pub use enumerate::{
    enumerate_flip_robustness, enumerate_flip_robustness_in, enumerate_robustness,
    enumerate_robustness_in, log10_count, log10_flip_count, EnumVerdict,
};
