//! Consistent-snapshot storage (Chandy–Lamport / Flink-style epochs).
//!
//! "For fault-tolerance StateFlow implements the consistent snapshots
//! protocol alongside a replayable source as an ingress, allowing StateFlow
//! to rollback messages and restore the snapshot upon failure" (§3).
//!
//! The store keeps, per epoch, one state blob per participating node plus
//! the source offsets at the snapshot point. An epoch is *complete* once
//! every expected node has contributed; recovery always restores the latest
//! complete epoch — incomplete epochs (a failure mid-snapshot) are ignored.
//!
//! **Retention.** Epochs are pruned automatically: once a newer epoch
//! completes, all but the last K complete epochs (the engines use
//! [`DEFAULT_SNAPSHOT_RETENTION`]) are dropped, along with any *older*
//! incomplete epochs (dead mid-snapshot failures). In-flight epochs newer
//! than the latest complete one are never touched, and the latest complete
//! epoch is always retained, so recovery semantics are unchanged — without
//! retention the store grows without bound (every epoch holds a full copy of
//! every node's state).
//!
//! **Durable-recovery pinning.** With the durable layer enabled, a lagging
//! partition's newest on-disk epoch can trail the newest complete epoch by
//! more than the retention window; that epoch is the *cluster recovery
//! base* and its source offsets must stay resolvable or a disk recovery
//! could never rejoin the source. [`SnapshotStore::set_pin_floor`] lowers
//! the effective prune cutoff to the pinned epoch until the pin advances.

use std::collections::BTreeMap;

use parking_lot::Mutex;

/// Epoch number; epoch 0 is "initial state".
pub type Epoch = u64;

/// Complete epochs kept by default (current + one fallback).
pub const DEFAULT_SNAPSHOT_RETENTION: usize = 2;

#[derive(Debug, Clone)]
struct EpochData<S> {
    expected: usize,
    states: BTreeMap<String, S>,
    source_offsets: BTreeMap<String, u64>,
}

impl<S> EpochData<S> {
    fn is_complete(&self) -> bool {
        self.states.len() >= self.expected
    }
}

/// Thread-safe snapshot store for node states of type `S`.
#[derive(Debug)]
pub struct SnapshotStore<S> {
    epochs: Mutex<BTreeMap<Epoch, EpochData<S>>>,
    /// Complete epochs to keep; 0 = unlimited.
    retention: usize,
    /// Everything below this epoch has been pruned; late contributions to
    /// pruned epochs are dropped silently (they are stale by definition),
    /// while contributions to a never-begun epoch above the watermark are
    /// still a protocol bug.
    pruned_below: Mutex<Epoch>,
    /// Epochs at or above this are pinned against pruning: some partition
    /// may still need them as its durable-recovery base.
    pin_floor: Mutex<Option<Epoch>>,
}

impl<S: Clone> Default for SnapshotStore<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Clone> SnapshotStore<S> {
    /// An empty store with the default retention policy
    /// ([`DEFAULT_SNAPSHOT_RETENTION`] complete epochs).
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_SNAPSHOT_RETENTION)
    }

    /// An empty store keeping the last `keep_complete` complete epochs
    /// (`0` disables pruning entirely).
    pub fn with_retention(keep_complete: usize) -> Self {
        Self {
            epochs: Mutex::new(BTreeMap::new()),
            retention: keep_complete,
            pruned_below: Mutex::new(0),
            pin_floor: Mutex::new(None),
        }
    }

    /// Pins epoch `floor` and everything newer against pruning. Called by
    /// the coordinator with the cluster durable floor (the minimum epoch
    /// every partition has made durable): a disk recovery may fall back to
    /// it and must still find its source offsets here. Raising the pin
    /// releases previously pinned epochs to the normal retention policy;
    /// the pin never moves backwards (epochs below it may be gone already).
    pub fn set_pin_floor(&self, floor: Epoch) {
        let mut pin = self.pin_floor.lock();
        match *pin {
            Some(cur) if cur >= floor => {}
            _ => *pin = Some(floor),
        }
    }

    /// The current durable-recovery pin, if any.
    pub fn pin_floor(&self) -> Option<Epoch> {
        *self.pin_floor.lock()
    }

    /// Drops epochs outside the retention window. Called whenever an epoch
    /// completes; keeps the last `retention` complete epochs plus anything
    /// newer (in-flight snapshots).
    fn prune(&self, epochs: &mut BTreeMap<Epoch, EpochData<S>>) {
        if self.retention == 0 {
            return;
        }
        let complete: Vec<Epoch> = epochs
            .iter()
            .filter(|(_, d)| d.is_complete())
            .map(|(e, _)| *e)
            .collect();
        if complete.len() <= self.retention {
            return;
        }
        // Oldest epoch that stays: the K-th newest complete one. Older
        // incomplete epochs are dead (their snapshot can never be restored
        // in preference to a newer complete one).
        let mut cutoff = complete[complete.len() - self.retention];
        // A pinned durable-recovery base lowers the cutoff: deleting it
        // would strand every partition whose disk state reaches back to it.
        if let Some(pin) = *self.pin_floor.lock() {
            cutoff = cutoff.min(pin);
        }
        epochs.retain(|e, _| *e >= cutoff);
        let mut watermark = self.pruned_below.lock();
        *watermark = (*watermark).max(cutoff);
    }

    /// Declares a new epoch and how many node contributions complete it.
    pub fn begin_epoch(&self, epoch: Epoch, expected_nodes: usize) {
        let mut g = self.epochs.lock();
        g.entry(epoch).or_insert(EpochData {
            expected: expected_nodes,
            states: BTreeMap::new(),
            source_offsets: BTreeMap::new(),
        });
    }

    /// Stores node `node`'s state for `epoch`.
    ///
    /// # Panics
    /// Panics if the epoch was never begun — contributing to an undeclared
    /// epoch is a protocol bug.
    pub fn put(&self, epoch: Epoch, node: &str, state: S) {
        let mut g = self.epochs.lock();
        let Some(data) = g.get_mut(&epoch) else {
            assert!(
                epoch < *self.pruned_below.lock(),
                "epoch must be begun before contributions"
            );
            return; // stale contribution to a pruned epoch
        };
        data.states.insert(node.to_owned(), state);
        if data.is_complete() {
            self.prune(&mut g);
        }
    }

    /// Records a source's read offset at the epoch boundary.
    pub fn put_source_offset(&self, epoch: Epoch, source: &str, offset: u64) {
        let mut g = self.epochs.lock();
        let Some(data) = g.get_mut(&epoch) else {
            assert!(
                epoch < *self.pruned_below.lock(),
                "epoch must be begun before contributions"
            );
            return; // stale contribution to a pruned epoch
        };
        data.source_offsets.insert(source.to_owned(), offset);
    }

    /// Whether all expected nodes contributed to `epoch`.
    pub fn is_complete(&self, epoch: Epoch) -> bool {
        self.epochs
            .lock()
            .get(&epoch)
            .map(|d| d.states.len() >= d.expected)
            .unwrap_or(false)
    }

    /// The newest complete epoch, if any.
    pub fn latest_complete(&self) -> Option<Epoch> {
        let g = self.epochs.lock();
        g.iter()
            .rev()
            .find(|(_, d)| d.states.len() >= d.expected)
            .map(|(e, _)| *e)
    }

    /// Node `node`'s state at `epoch`.
    pub fn get(&self, epoch: Epoch, node: &str) -> Option<S> {
        self.epochs
            .lock()
            .get(&epoch)
            .and_then(|d| d.states.get(node).cloned())
    }

    /// Source offset recorded at `epoch`.
    pub fn source_offset(&self, epoch: Epoch, source: &str) -> Option<u64> {
        self.epochs
            .lock()
            .get(&epoch)
            .and_then(|d| d.source_offsets.get(source).copied())
    }

    /// Number of stored epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_completion() {
        let store = SnapshotStore::<Vec<u8>>::new();
        store.begin_epoch(1, 2);
        store.put(1, "w0", vec![1]);
        assert!(!store.is_complete(1));
        assert_eq!(store.latest_complete(), None);
        store.put(1, "w1", vec![2]);
        assert!(store.is_complete(1));
        assert_eq!(store.latest_complete(), Some(1));
        assert_eq!(store.get(1, "w0"), Some(vec![1]));
    }

    #[test]
    fn latest_complete_skips_incomplete() {
        let store = SnapshotStore::<u32>::new();
        store.begin_epoch(1, 1);
        store.put(1, "w0", 10);
        store.begin_epoch(2, 2);
        store.put(2, "w0", 20); // w1 never contributes: epoch 2 incomplete
        assert_eq!(
            store.latest_complete(),
            Some(1),
            "incomplete epoch must be ignored"
        );
    }

    #[test]
    fn source_offsets_travel_with_epoch() {
        let store = SnapshotStore::<u32>::new();
        store.begin_epoch(3, 1);
        store.put(3, "w0", 1);
        store.put_source_offset(3, "ingress", 42);
        assert_eq!(store.source_offset(3, "ingress"), Some(42));
        assert_eq!(store.source_offset(3, "other"), None);
    }

    #[test]
    #[should_panic(expected = "begun")]
    fn contribution_to_unknown_epoch_panics() {
        let store = SnapshotStore::<u32>::new();
        store.put(9, "w0", 1);
    }

    #[test]
    fn retention_prunes_all_but_last_k_complete() {
        let store = SnapshotStore::<u32>::with_retention(2);
        for e in 1..=6 {
            store.begin_epoch(e, 1);
            store.put(e, "w0", e as u32);
        }
        assert_eq!(store.epoch_count(), 2, "only the last 2 complete epochs");
        assert_eq!(store.latest_complete(), Some(6));
        assert_eq!(store.get(5, "w0"), Some(5), "fallback epoch retained");
        assert_eq!(store.get(4, "w0"), None, "older epochs pruned");
    }

    #[test]
    fn retention_never_touches_newer_inflight_epochs() {
        let store = SnapshotStore::<u32>::with_retention(1);
        store.begin_epoch(1, 1);
        store.put(1, "w0", 1);
        // Epoch 2 is in flight (2 expected, 1 contributed) and newer than
        // the latest complete epoch — it must survive pruning.
        store.begin_epoch(2, 2);
        store.put(2, "w0", 2);
        assert_eq!(store.latest_complete(), Some(1));
        assert_eq!(store.get(2, "w0"), Some(2), "in-flight epoch untouched");
        store.put(2, "w1", 2);
        assert_eq!(store.latest_complete(), Some(2));
        assert_eq!(store.get(1, "w0"), None, "superseded epoch pruned");
    }

    #[test]
    fn stale_contribution_to_pruned_epoch_is_dropped() {
        let store = SnapshotStore::<u32>::with_retention(1);
        for e in 1..=3 {
            store.begin_epoch(e, 1);
            store.put(e, "w0", e as u32);
        }
        // Epoch 1 was pruned; a late (stale) contribution must be a no-op,
        // not a panic — the contributor simply lost the race with retention.
        store.put(1, "w9", 99);
        store.put_source_offset(1, "ingress", 7);
        assert_eq!(store.get(1, "w9"), None);
        assert_eq!(store.latest_complete(), Some(3));
    }

    #[test]
    fn retention_drops_dead_incomplete_epochs() {
        let store = SnapshotStore::<u32>::with_retention(1);
        // Epoch 1 never completes (mid-snapshot failure) …
        store.begin_epoch(1, 2);
        store.put(1, "w0", 1);
        // … then two newer epochs complete: epoch 1 is dead weight.
        for e in 2..=3 {
            store.begin_epoch(e, 1);
            store.put(e, "w0", e as u32);
        }
        assert_eq!(store.latest_complete(), Some(3));
        assert_eq!(store.get(1, "w0"), None, "dead incomplete epoch pruned");
        assert_eq!(store.epoch_count(), 1);
    }

    #[test]
    fn zero_retention_keeps_everything() {
        let store = SnapshotStore::<u32>::with_retention(0);
        for e in 1..=8 {
            store.begin_epoch(e, 1);
            store.put(e, "w0", e as u32);
        }
        assert_eq!(store.epoch_count(), 8);
    }

    #[test]
    fn pin_floor_protects_the_durable_recovery_base_from_retention() {
        // A lagging partition's only durable base is epoch 1. With K=2 and
        // no pin, completing epochs 2..=5 would delete it — and with it the
        // source offsets a disk recovery to epoch 1 must rejoin at.
        let store = SnapshotStore::<u32>::with_retention(2);
        store.begin_epoch(1, 1);
        store.put_source_offset(1, "ingress", 10);
        store.put(1, "w0", 1);
        store.set_pin_floor(1);
        for e in 2..=5 {
            store.begin_epoch(e, 1);
            store.put_source_offset(e, "ingress", e * 10);
            store.put(e, "w0", e as u32);
        }
        assert_eq!(store.get(1, "w0"), Some(1), "pinned base must survive");
        assert_eq!(store.source_offset(1, "ingress"), Some(10));
        // Once every partition's durable floor advances, the pin moves and
        // retention catches up on the next completion.
        store.set_pin_floor(4);
        store.begin_epoch(6, 1);
        store.put(6, "w0", 6);
        assert_eq!(store.get(1, "w0"), None, "released epoch pruned");
        assert_eq!(store.source_offset(4, "ingress"), Some(40), "new pin holds");
        // The pin never moves backwards.
        store.set_pin_floor(2);
        assert_eq!(store.pin_floor(), Some(4));
    }

    #[test]
    fn source_offsets_survive_pruning_with_their_epoch() {
        let store = SnapshotStore::<u32>::with_retention(2);
        for e in 1..=4 {
            store.begin_epoch(e, 1);
            store.put_source_offset(e, "ingress", e * 10);
            store.put(e, "w0", e as u32);
        }
        assert_eq!(store.source_offset(4, "ingress"), Some(40));
        assert_eq!(store.source_offset(3, "ingress"), Some(30));
        assert_eq!(store.source_offset(2, "ingress"), None, "pruned");
    }
}
