//! Long-lived dataset registry for the certification service
//! (DESIGN.md §12).
//!
//! A one-shot CLI run loads a dataset, lazily builds its indexes, and
//! drops everything on exit. The service inverts that: a
//! [`DatasetRegistry`] maps string handles to epoch-stamped
//! [`Arc<Dataset>`]s whose class masks, per-feature orders, and `le_mask`
//! threshold indexes are built **once** at load time
//! ([`Dataset::warm_indexes`]) and shared by every request that clones
//! the `Arc`.
//!
//! Epoch safety is structural: a reader resolves a handle to an `Arc`
//! under the registry lock and then works entirely against that
//! snapshot, so a concurrent [`DatasetRegistry::apply_delta`] — which
//! swaps in a *new* dataset at epoch + 1 and never mutates the old one
//! ([`Dataset::apply`] is persistent) — can never produce a torn read.
//! The worst a racing reader sees is the previous epoch, consistently;
//! pairing that stale snapshot with new-epoch certification state is
//! rejected downstream by the epoch-stamped caches (`EpochMismatch`).

use crate::dataset::{Dataset, DatasetDelta, DeltaSummary};
use crate::error::DataError;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Handle → epoch-stamped shared dataset map (see the module docs).
///
/// All methods take `&self`; the registry is `Sync` and meant to be
/// shared across request-serving threads.
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    map: RwLock<BTreeMap<String, Arc<Dataset>>>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> DatasetRegistry {
        DatasetRegistry::default()
    }

    /// Loads `ds` under `handle` (replacing any previous entry), warming
    /// every lazily-built index first so requests served from the shared
    /// `Arc` never pay a first-touch cost. Returns the shared handle to
    /// the stored dataset.
    pub fn load(&self, handle: &str, ds: Dataset) -> Arc<Dataset> {
        ds.warm_indexes();
        let ds = Arc::new(ds);
        self.map
            .write()
            .expect("registry lock poisoned")
            .insert(handle.to_string(), Arc::clone(&ds));
        ds
    }

    /// The dataset currently registered under `handle`, if any. The
    /// returned `Arc` is a consistent snapshot: later deltas swap the
    /// registry entry but never mutate this value.
    pub fn get(&self, handle: &str) -> Option<Arc<Dataset>> {
        self.map
            .read()
            .expect("registry lock poisoned")
            .get(handle)
            .cloned()
    }

    /// Removes `handle`, returning whether it was present. In-flight
    /// holders of the evicted `Arc` keep a valid dataset.
    pub fn evict(&self, handle: &str) -> bool {
        self.map
            .write()
            .expect("registry lock poisoned")
            .remove(handle)
            .is_some()
    }

    /// The registered handles, ascending.
    pub fn handles(&self) -> Vec<String> {
        self.map
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Applies one delta to the dataset under `handle`, atomically
    /// swapping in the epoch + 1 successor. Returns the new shared
    /// dataset and the normalized summary (what certificate transfer
    /// reasons about).
    ///
    /// # Errors
    ///
    /// [`DataError::UnknownHandle`] when nothing is loaded under
    /// `handle`; otherwise whatever [`Dataset::apply_summarized`] rejects
    /// (dead or out-of-range rows, undeclared labels, arity mismatches),
    /// in which case the registry entry is left untouched.
    pub fn apply_delta(
        &self,
        handle: &str,
        delta: &DatasetDelta,
    ) -> Result<(Arc<Dataset>, DeltaSummary), DataError> {
        let (ds, mut summaries) = self.apply_delta_many(handle, std::slice::from_ref(delta))?;
        Ok((ds, summaries.pop().expect("one delta yields one summary")))
    }

    /// Applies a *chain* of deltas to the dataset under `handle` — delta
    /// `i + 1` addresses the row-id space produced by delta `i` — and
    /// atomically swaps in the final dataset, `deltas.len()` epochs
    /// ahead. Returns the new shared dataset plus one normalized
    /// [`DeltaSummary`] per epoch crossed, in order, so callers can run a
    /// single batched certificate transfer across the whole span.
    ///
    /// The swap is all-or-nothing: if any delta in the chain is invalid,
    /// or the chain would leave no rows, the registry entry is left at
    /// its current epoch.
    ///
    /// # Errors
    ///
    /// [`DataError::UnknownHandle`] when nothing is loaded under
    /// `handle`, [`DataError::InvalidDelta`] (and friends) from the first
    /// delta that fails to apply, [`DataError::EmptiedDataset`] when the
    /// final dataset would have no rows.
    pub fn apply_delta_many(
        &self,
        handle: &str,
        deltas: &[DatasetDelta],
    ) -> Result<(Arc<Dataset>, Vec<DeltaSummary>), DataError> {
        // The write lock spans the whole chain so two concurrent delta
        // requests serialize instead of both building successors of the
        // same epoch and losing one.
        let mut map = self.map.write().expect("registry lock poisoned");
        let current = map
            .get(handle)
            .ok_or_else(|| DataError::UnknownHandle {
                handle: handle.to_string(),
            })?
            .clone();
        let mut ds = (*current).clone();
        let mut summaries = Vec::with_capacity(deltas.len());
        for delta in deltas {
            let (next, summary) = ds.apply_summarized(delta)?;
            ds = next;
            summaries.push(summary);
        }
        if ds.is_empty() {
            return Err(DataError::EmptiedDataset {
                handle: handle.to_string(),
            });
        }
        let ds = Arc::new(ds);
        map.insert(handle.to_string(), Arc::clone(&ds));
        Ok((ds, summaries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn load_get_evict_roundtrip() {
        let reg = DatasetRegistry::new();
        assert!(reg.get("fig2").is_none());
        let stored = reg.load("fig2", synth::figure2());
        assert_eq!(stored.epoch(), 0);
        let got = reg.get("fig2").expect("loaded");
        assert!(Arc::ptr_eq(&stored, &got), "get returns the shared Arc");
        assert_eq!(reg.handles(), vec!["fig2".to_string()]);
        assert!(reg.evict("fig2"));
        assert!(!reg.evict("fig2"), "second evict is a no-op");
        assert!(reg.get("fig2").is_none());
        // The evicted Arc is still a live dataset.
        assert_eq!(got.len(), 13);
    }

    #[test]
    fn load_warms_the_threshold_indexes() {
        let reg = DatasetRegistry::new();
        let ds = reg.load("fig2", synth::figure2());
        // warm_indexes already forced every per-feature OnceLock, so this
        // lookup is a pure read; it must agree with a cold dataset's.
        let cold = synth::figure2();
        for f in 0..ds.n_features() {
            assert_eq!(ds.le_mask(f, 0.5, false), cold.le_mask(f, 0.5, false));
        }
    }

    #[test]
    fn apply_delta_swaps_epochs_and_leaves_snapshots_alone() {
        let reg = DatasetRegistry::new();
        let before = reg.load("fig2", synth::figure2());
        let mut delta = DatasetDelta::new();
        delta.remove(0).remove(1);
        let (after, summary) = reg.apply_delta("fig2", &delta).unwrap();
        assert_eq!(after.epoch(), 1);
        assert_eq!(summary.removed, vec![0, 1]);
        assert!(summary.pure_removal());
        // The old snapshot is untouched; the registry serves the new one.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.len(), 13);
        assert_eq!(after.len(), 11);
        assert_eq!(reg.get("fig2").unwrap().epoch(), 1);
    }

    #[test]
    fn apply_delta_many_is_one_swap_across_the_chain() {
        let reg = DatasetRegistry::new();
        reg.load("fig2", synth::figure2());
        let mut d0 = DatasetDelta::new();
        d0.remove(0);
        let mut d1 = DatasetDelta::new();
        d1.remove(1).remove(2);
        let (ds, summaries) = reg.apply_delta_many("fig2", &[d0, d1]).unwrap();
        assert_eq!(ds.epoch(), 2);
        assert_eq!(ds.len(), 10);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].removed, vec![0]);
        assert_eq!(summaries[1].removed, vec![1, 2]);
    }

    #[test]
    fn invalid_chain_leaves_the_entry_untouched() {
        let reg = DatasetRegistry::new();
        reg.load("fig2", synth::figure2());
        let mut ok = DatasetDelta::new();
        ok.remove(0);
        let mut bad = DatasetDelta::new();
        bad.remove(10_000);
        let err = reg.apply_delta_many("fig2", &[ok, bad]).unwrap_err();
        assert!(matches!(err, DataError::InvalidDelta { .. }));
        let ds = reg.get("fig2").unwrap();
        assert_eq!(ds.epoch(), 0, "failed chains must not half-apply");
        assert_eq!(ds.len(), 13);
    }

    #[test]
    fn a_chain_that_removes_every_row_is_refused() {
        let reg = DatasetRegistry::new();
        reg.load("fig2", synth::figure2());
        let mut some = DatasetDelta::new();
        some.remove(0).remove(1);
        let mut rest = DatasetDelta::new();
        for row in 2..13 {
            rest.remove(row);
        }
        let err = reg.apply_delta_many("fig2", &[some, rest]).unwrap_err();
        assert!(matches!(err, DataError::EmptiedDataset { .. }));
        assert!(err.to_string().contains("fig2"));
        let ds = reg.get("fig2").unwrap();
        assert_eq!(ds.epoch(), 0, "nothing is published");
        assert_eq!(ds.len(), 13);
        // `apply_delta` goes through the same check.
        let mut all = DatasetDelta::new();
        for row in 0..13 {
            all.remove(row);
        }
        let err = reg.apply_delta("fig2", &all).unwrap_err();
        assert!(matches!(err, DataError::EmptiedDataset { .. }));
        assert_eq!(reg.get("fig2").unwrap().epoch(), 0);
    }

    #[test]
    fn unknown_handle_is_a_clean_error() {
        let reg = DatasetRegistry::new();
        let err = reg.apply_delta("nope", &DatasetDelta::new()).unwrap_err();
        assert!(matches!(err, DataError::UnknownHandle { .. }));
        assert!(err.to_string().contains("nope"));
    }
}
