//! Core transaction types: ids, buffered access sets, state overlays.
//!
//! StateFlow "treats each function — and the state effects it creates via
//! calls to other functions — as a transaction with ACID guarantees …
//! implementing an extension of Aria, a deterministic transaction protocol"
//! (§3). Aria's execute phase runs every transaction of a batch against the
//! state as of the batch start, buffering writes; [`TxnBuffer`] is that
//! buffer plus the read set needed for conflict analysis.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use se_lang::{EntityRef, EntityState, Symbol, SymbolMap, Value};

/// Globally ordered transaction identifier. Order is commit priority: lower
/// ids win conflicts, and aborted transactions keep their id when re-run in
/// a later batch, which guarantees progress (the lowest id in a batch can
/// never lose a conflict).
pub type TxnId = u64;

/// Monotonically increasing batch number.
pub type BatchId = u64;

/// Per-transaction buffered reads and deferred writes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TxnBuffer {
    /// Entities read (at entity granularity, like YCSB/Aria record keys).
    pub reads: BTreeSet<EntityRef>,
    /// Deferred writes: entity → attribute → final value.
    pub writes: BTreeMap<EntityRef, BTreeMap<Symbol, Value>>,
}

impl TxnBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `entity` and returns its state as this transaction
    /// sees it: the committed snapshot overlaid with the transaction's own
    /// earlier writes (read-your-own-writes within a transaction).
    pub fn overlay_read(&mut self, entity: &EntityRef, committed: &EntityState) -> EntityState {
        self.reads.insert(*entity);
        // No own writes: the view *is* the committed state — an O(1)
        // refcount bump under copy-on-write, not a copy.
        let mut view = committed.clone();
        if let Some(ws) = self.writes.get(entity) {
            for (attr, v) in ws {
                view.insert(*attr, v.clone());
            }
        }
        view
    }

    /// Records the effects of running a method on `entity`: every attribute
    /// whose value differs between `before` and `after` becomes a deferred
    /// write.
    pub fn record_effects(
        &mut self,
        entity: &EntityRef,
        before: &EntityState,
        after: &EntityState,
    ) {
        // Copy-on-write fast path: if the two handles still share storage,
        // no write ever happened — skip the attribute diff entirely.
        if SymbolMap::ptr_eq(before, after) {
            return;
        }
        let mut changed: Vec<(Symbol, Value)> = Vec::new();
        for (attr, value) in after {
            if before.get(*attr) != Some(value) {
                changed.push((*attr, value.clone()));
            }
        }
        if !changed.is_empty() {
            let slot = self.writes.entry(*entity).or_default();
            for (attr, value) in changed {
                slot.insert(attr, value);
            }
        }
    }

    /// Keys this transaction wrote.
    pub fn write_keys(&self) -> impl Iterator<Item = &EntityRef> {
        self.writes.keys()
    }

    /// Keys this transaction read.
    pub fn read_keys(&self) -> impl Iterator<Item = &EntityRef> {
        self.reads.iter()
    }
}

/// Commit/abort decision for one transaction in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Install the write set.
    Commit,
    /// Discard effects; re-execute in the next batch.
    Abort,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn er(k: &str) -> EntityRef {
        EntityRef::new("Account", k)
    }

    fn state(v: i64) -> EntityState {
        EntityState::from([("balance".to_string(), Value::Int(v))])
    }

    #[test]
    fn overlay_read_sees_own_writes() {
        let mut buf = TxnBuffer::new();
        let a = er("a");
        let before = state(100);
        let view1 = buf.overlay_read(&a, &before);
        assert_eq!(view1["balance"], Value::Int(100));

        // Simulate a method that set balance to 60.
        buf.record_effects(&a, &before, &state(60));
        let view2 = buf.overlay_read(&a, &before);
        assert_eq!(view2["balance"], Value::Int(60), "read-your-own-writes");
        assert!(buf.reads.contains(&a));
    }

    #[test]
    fn record_effects_only_stores_diffs() {
        let mut buf = TxnBuffer::new();
        let a = er("a");
        let mut before = state(10);
        before.insert("name", Value::Str("x".into()));
        let mut after = before.clone();
        after.insert("balance", Value::Int(11));
        buf.record_effects(&a, &before, &after);
        let ws = &buf.writes[&a];
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[&Symbol::from("balance")], Value::Int(11));
    }

    #[test]
    fn no_change_records_nothing() {
        let mut buf = TxnBuffer::new();
        let a = er("a");
        let s = state(5);
        buf.record_effects(&a, &s, &s.clone());
        assert!(buf.writes.is_empty());
    }
}
