//! Aria's reservation tables and conflict rules.
//!
//! After the execute phase, each transaction *reserves* the keys it read and
//! wrote; the table keeps, per key, the **lowest** transaction id that wrote
//! (resp. read) it. Conflict analysis is then purely local per key owner:
//!
//! * `WAW(T)` — some key T wrote is write-reserved by a lower id;
//! * `RAW(T)` — some key T read is write-reserved by a lower id (T read
//!   stale state relative to the serial order);
//! * `WAR(T)` — some key T wrote is read-reserved by a lower id.
//!
//! The commit rule is Aria's **deterministic reordering** (Aria §3.4):
//! commit iff `¬WAW ∧ (¬RAW ∨ ¬WAR)` — a transaction whose reads are stale
//! can still commit if nothing it wrote was read by an earlier transaction,
//! because the commit order can be *reordered* to put it before its
//! conflictors. The StateFlow coordinator applies the same rule to the
//! flags its workers report; the history checker recomputes every recorded
//! decision here, independently of the engine's copy.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use se_lang::EntityRef;

use crate::types::{Decision, TxnBuffer, TxnId};

/// The commit rule [`ReservationTable::decide`] applies. One variant: it
/// survives only as `decide`'s third argument, which the external benchmark
/// probes still pass, and can go once they stop passing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CommitRule {
    /// Aria's deterministic reordering: commit iff no WAW and (no RAW or no
    /// WAR) dependency.
    #[default]
    Reordering,
}

/// Per-batch reservation table (one per key-owning partition, or a single
/// global one on a single node).
#[derive(Debug, Clone, Default)]
pub struct ReservationTable {
    write_res: HashMap<EntityRef, TxnId>,
    read_res: HashMap<EntityRef, TxnId>,
}

impl ReservationTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves all of a transaction's accesses.
    pub fn reserve(&mut self, txn: TxnId, buffer: &TxnBuffer) {
        for k in buffer.write_keys() {
            self.reserve_write(txn, k);
        }
        for k in buffer.read_keys() {
            self.reserve_read(txn, k);
        }
    }

    /// Reserves a write of `key` by `txn` (lowest id wins).
    pub fn reserve_write(&mut self, txn: TxnId, key: &EntityRef) {
        let e = self.write_res.entry(*key).or_insert(txn);
        if txn < *e {
            *e = txn;
        }
    }

    /// Reserves a read of `key` by `txn` (lowest id wins).
    pub fn reserve_read(&mut self, txn: TxnId, key: &EntityRef) {
        let e = self.read_res.entry(*key).or_insert(txn);
        if txn < *e {
            *e = txn;
        }
    }

    /// Whether `txn` has a write-after-write dependency.
    pub fn waw(&self, txn: TxnId, buffer: &TxnBuffer) -> bool {
        buffer
            .write_keys()
            .any(|k| self.write_res.get(k).is_some_and(|&t| t < txn))
    }

    /// Whether `txn` has a read-after-write dependency.
    pub fn raw(&self, txn: TxnId, buffer: &TxnBuffer) -> bool {
        buffer
            .read_keys()
            .any(|k| self.write_res.get(k).is_some_and(|&t| t < txn))
    }

    /// Whether `txn` has a write-after-read dependency.
    pub fn war(&self, txn: TxnId, buffer: &TxnBuffer) -> bool {
        buffer
            .write_keys()
            .any(|k| self.read_res.get(k).is_some_and(|&t| t < txn))
    }

    /// Applies the commit rule to one transaction.
    pub fn decide(&self, txn: TxnId, buffer: &TxnBuffer, _rule: CommitRule) -> Decision {
        let commit = !self.waw(txn, buffer) && (!self.raw(txn, buffer) || !self.war(txn, buffer));
        if commit {
            Decision::Commit
        } else {
            Decision::Abort
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_lang::{EntityState, Value};

    fn er(k: &str) -> EntityRef {
        EntityRef::new("K", k)
    }

    fn writer(key: &str) -> TxnBuffer {
        let mut b = TxnBuffer::new();
        let before = EntityState::from([("v".to_string(), Value::Int(0))]);
        let after = EntityState::from([("v".to_string(), Value::Int(1))]);
        b.record_effects(&er(key), &before, &after);
        b
    }

    fn reader(key: &str) -> TxnBuffer {
        let mut b = TxnBuffer::new();
        b.overlay_read(&er(key), &EntityState::new());
        b
    }

    fn read_write(rk: &str, wk: &str) -> TxnBuffer {
        let mut b = writer(wk);
        b.reads.insert(er(rk));
        b
    }

    const RULE: CommitRule = CommitRule::Reordering;

    #[test]
    fn waw_lower_id_wins() {
        let mut t = ReservationTable::new();
        let b1 = writer("x");
        let b2 = writer("x");
        t.reserve(1, &b1);
        t.reserve(2, &b2);
        assert_eq!(t.decide(1, &b1, RULE), Decision::Commit);
        assert_eq!(t.decide(2, &b2, RULE), Decision::Abort);
        assert!(t.waw(2, &b2));
        assert!(!t.waw(1, &b1));
    }

    #[test]
    fn reordering_commits_raw_without_war() {
        let mut t = ReservationTable::new();
        let w = writer("x");
        let r = reader("x"); // reads x, writes nothing
        t.reserve(1, &w);
        t.reserve(2, &r);
        // T2 read x, which T1 wrote: its read is stale w.r.t. id order, yet
        // it can be serialized *before* T1.
        assert!(t.raw(2, &r));
        assert_eq!(t.decide(2, &r, RULE), Decision::Commit);
    }

    #[test]
    fn reordering_aborts_raw_with_war() {
        let mut t = ReservationTable::new();
        // T1: writes x, reads y. T2: reads x, writes y. Cycle → T2 aborts.
        let b1 = read_write("y", "x");
        let b2 = read_write("x", "y");
        t.reserve(1, &b1);
        t.reserve(2, &b2);
        assert_eq!(t.decide(1, &b1, RULE), Decision::Commit);
        assert!(t.raw(2, &b2) && t.war(2, &b2));
        assert_eq!(t.decide(2, &b2, RULE), Decision::Abort);
    }

    #[test]
    fn disjoint_transactions_all_commit() {
        let mut t = ReservationTable::new();
        let bufs: Vec<TxnBuffer> = (0..10).map(|i| writer(&format!("k{i}"))).collect();
        for (i, b) in bufs.iter().enumerate() {
            t.reserve(i as TxnId, b);
        }
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(t.decide(i as TxnId, b, RULE), Decision::Commit);
        }
    }
}
