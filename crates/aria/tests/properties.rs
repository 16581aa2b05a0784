//! Property-based tests of Aria's reservation round over random batches:
//! the progress guarantee, conflict-serializability of the committed set,
//! and independence from reservation order.
//!
//! Engine-level conservation and exactly-once are covered end to end by the
//! root package's `tests/guarantees.rs` and by `se-stateflow`'s tests.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use se_aria::{CommitRule, Decision, ReservationTable, TxnBuffer, TxnId};
use se_lang::{EntityRef, Value};

const KEYS: usize = 6;

fn key(i: usize) -> EntityRef {
    EntityRef::new("K", format!("k{i}"))
}

/// A transaction's access sets: 0–3 reads and 0–3 writes over `KEYS` keys.
fn arb_txn() -> impl Strategy<Value = TxnBuffer> {
    let keys = || proptest::collection::vec(0..KEYS, 0..4);
    (keys(), keys()).prop_map(|(reads, writes)| TxnBuffer {
        reads: reads.into_iter().map(key).collect(),
        writes: writes
            .into_iter()
            .map(|k| (key(k), BTreeMap::from([("v".into(), Value::Int(1))])))
            .collect(),
    })
}

/// A batch of 1–12 transactions with ascending ids starting at `base`.
fn arb_batch() -> impl Strategy<Value = Vec<(TxnId, TxnBuffer)>> {
    (0u64..1_000, proptest::collection::vec(arb_txn(), 1..13))
        .prop_map(|(base, txns)| (base..).zip(txns).collect::<Vec<(TxnId, TxnBuffer)>>())
}

/// Reserves `batch` in the order `order` (indices into `batch`), then
/// decides every transaction.
fn decisions(batch: &[(TxnId, TxnBuffer)], order: &[usize]) -> Vec<Decision> {
    let mut table = ReservationTable::new();
    for &i in order {
        let (id, buf) = &batch[i];
        table.reserve(*id, buf);
    }
    batch
        .iter()
        .map(|(id, buf)| table.decide(*id, buf, CommitRule::Reordering))
        .collect()
}

/// Whether the committed transactions are conflict-serializable: no two
/// write the same key, and the precedence graph — every reader of a key
/// before every other writer of it, since all of a batch read the
/// batch-start snapshot — is acyclic.
fn conflict_serializable(committed: &[&TxnBuffer]) -> bool {
    let n = committed.len();
    let mut written = BTreeSet::new();
    for buf in committed {
        for k in buf.write_keys() {
            if !written.insert(*k) {
                return false;
            }
        }
    }
    // Kahn's algorithm over reader → writer edges.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for (r, reader) in committed.iter().enumerate() {
        for (w, writer) in committed.iter().enumerate() {
            if r != w && reader.read_keys().any(|k| writer.writes.contains_key(k)) {
                succ[r].push(w);
                indegree[w] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut ordered = 0;
    while let Some(t) = ready.pop() {
        ordered += 1;
        for &w in &succ[t] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                ready.push(w);
            }
        }
    }
    ordered == n
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2_000, ..ProptestConfig::default() })]

    #[test]
    fn reservation_round_is_serializable_and_order_independent(
        batch in arb_batch(),
        shuffle_keys in proptest::collection::vec(any::<u64>(), 12..13),
    ) {
        let ascending: Vec<usize> = (0..batch.len()).collect();
        let decided = decisions(&batch, &ascending);

        // (a) Progress: the lowest id cannot lose a conflict, which is what
        // lets the coordinator's retry loop terminate.
        prop_assert_eq!(decided[0], Decision::Commit, "batch {:?}", batch);

        // (b) The committed set is conflict-serializable.
        let committed: Vec<&TxnBuffer> = batch
            .iter()
            .zip(&decided)
            .filter(|(_, d)| **d == Decision::Commit)
            .map(|((_, buf), _)| buf)
            .collect();
        prop_assert!(
            conflict_serializable(&committed),
            "non-serializable commits {:?} in batch {:?}", decided, batch
        );

        // (c) Reservation order changes no decision.
        let reversed: Vec<usize> = ascending.iter().rev().copied().collect();
        prop_assert_eq!(decisions(&batch, &reversed), decided.clone());
        let mut shuffled = ascending.clone();
        shuffled.sort_by_key(|&i| shuffle_keys[i]);
        prop_assert_eq!(decisions(&batch, &shuffled), decided);
    }
}
