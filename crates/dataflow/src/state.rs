//! Managed operator state: the per-partition entity store.
//!
//! "Since operators can be partitioned across multiple cluster nodes, each
//! partition stores a set of stateful entities indexed by their unique key"
//! (§2.3). Every runtime task owns one `StateStore` per partition; snapshots
//! clone it wholesale. Entity states are copy-on-write
//! ([`se_lang::SymbolMap`]), so the wholesale clone is one refcount bump per
//! entity — independent of entity-state size — and a cloned snapshot stays a
//! consistent point-in-time image because later writes copy the mutated
//! entity's map before diverging.

use std::collections::HashMap;

use se_lang::{EntityRef, EntityState, LangError, Value};

/// Entities owned by one operator partition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateStore {
    entities: HashMap<EntityRef, EntityState>,
}

impl StateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) an entity's state.
    pub fn insert(&mut self, r: EntityRef, state: EntityState) {
        self.entities.insert(r, state);
    }

    /// Reads an entity's state.
    pub fn get(&self, r: &EntityRef) -> Option<&EntityState> {
        self.entities.get(r)
    }

    /// Reads an entity's state, erroring if absent.
    pub fn get_or_err(&self, r: &EntityRef) -> Result<&EntityState, LangError> {
        self.get(r)
            .ok_or_else(|| LangError::runtime(format!("unknown entity {r}")))
    }

    /// Clones an entity's state, erroring if absent. O(1): entity state is
    /// copy-on-write, so this is a refcount bump, not a deep copy.
    pub fn get_cloned(&self, r: &EntityRef) -> Result<EntityState, LangError> {
        self.get_or_err(r).cloned()
    }

    /// Mutable access to an entity's state.
    pub fn get_mut(&mut self, r: &EntityRef) -> Option<&mut EntityState> {
        self.entities.get_mut(r)
    }

    /// Whether the entity exists.
    pub fn contains(&self, r: &EntityRef) -> bool {
        self.entities.contains_key(r)
    }

    /// Removes an entity, returning its state.
    pub fn remove(&mut self, r: &EntityRef) -> Option<EntityState> {
        self.entities.remove(r)
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the store holds no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Iterates `(ref, state)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&EntityRef, &EntityState)> {
        self.entities.iter()
    }

    /// Applies a single attribute write (used by transactional commit).
    pub fn apply_write(
        &mut self,
        r: &EntityRef,
        attr: impl Into<se_lang::Symbol>,
        value: Value,
    ) -> Result<(), LangError> {
        let st = self
            .entities
            .get_mut(r)
            .ok_or_else(|| LangError::runtime(format!("unknown entity {r}")))?;
        st.insert(attr.into(), value);
        Ok(())
    }

    /// Approximate serialized size of the whole store, in bytes; drives the
    /// state-(de)serialization component of the overhead experiment.
    pub fn approx_size(&self) -> usize {
        self.entities
            .iter()
            .map(|(r, s)| 16 + r.class.len() + r.key.len() + s.approx_size())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(key: &str, balance: i64) -> (EntityRef, EntityState) {
        let r = EntityRef::new("User", key);
        let s = EntityState::from([("balance", Value::Int(balance))]);
        (r, s)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut store = StateStore::new();
        let (r, s) = user("alice", 10);
        store.insert(r, s);
        assert!(store.contains(&r));
        assert_eq!(store.get(&r).unwrap()["balance"], Value::Int(10));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn missing_entity_errors() {
        let store = StateStore::new();
        let r = EntityRef::new("User", "ghost");
        assert!(store
            .get_or_err(&r)
            .unwrap_err()
            .to_string()
            .contains("unknown entity"));
    }

    #[test]
    fn apply_write_updates() {
        let mut store = StateStore::new();
        let (r, s) = user("alice", 10);
        store.insert(r, s);
        store.apply_write(&r, "balance", Value::Int(99)).unwrap();
        assert_eq!(store.get(&r).unwrap()["balance"], Value::Int(99));
        let ghost = EntityRef::new("User", "ghost");
        assert!(store.apply_write(&ghost, "balance", Value::Int(1)).is_err());
    }

    #[test]
    fn snapshot_clone_is_point_in_time() {
        let mut store = StateStore::new();
        let (r, s) = user("alice", 10);
        store.insert(r, s);
        let snap = store.clone();
        store.apply_write(&r, "balance", Value::Int(0)).unwrap();
        assert_eq!(
            snap.get(&r).unwrap()["balance"],
            Value::Int(10),
            "snapshot must not move"
        );
    }

    /// Churn workload: snapshot epochs interleaved with writes. Each epoch's
    /// snapshot must keep showing exactly the state at its cut — writes after
    /// the cut must never leak into a restored epoch, even though
    /// copy-on-write state shares storage between the live store and its
    /// snapshots.
    #[test]
    fn cow_snapshot_restore_equivalence_under_churn() {
        use crate::snapshot::SnapshotStore;

        let n = 50;
        let mut store = StateStore::new();
        for i in 0..n {
            let r = EntityRef::new("Account", format!("a{i}"));
            let s = EntityState::from([
                ("balance".to_string(), Value::Int(0)),
                ("data".to_string(), Value::Bytes(vec![0u8; 256])),
            ]);
            store.insert(r, s);
        }

        let snapshots = SnapshotStore::<StateStore>::with_retention(0);
        let mut expected_at_epoch: Vec<Vec<i64>> = Vec::new();
        for epoch in 1..=4u64 {
            // Churn: bump a sliding window of entities, rewrite payloads.
            for i in 0..n {
                if (i + epoch as usize).is_multiple_of(3) {
                    let r = EntityRef::new("Account", format!("a{i}"));
                    store
                        .apply_write(&r, "balance", Value::Int(epoch as i64 * 100 + i as i64))
                        .unwrap();
                    store
                        .apply_write(&r, "data", Value::Bytes(vec![epoch as u8; 256]))
                        .unwrap();
                }
            }
            expected_at_epoch.push(
                (0..n)
                    .map(|i| {
                        store
                            .get(&EntityRef::new("Account", format!("a{i}")))
                            .unwrap()["balance"]
                            .as_int()
                            .unwrap()
                    })
                    .collect(),
            );
            snapshots.begin_epoch(epoch, 1);
            snapshots.put(epoch, "w0", store.clone());
        }

        // Restore every epoch and compare against what the store held at its
        // cut: mutate-after-snapshot must not have leaked backwards.
        for epoch in 1..=4u64 {
            let restored = snapshots.get(epoch, "w0").expect("epoch stored");
            let got: Vec<i64> = (0..n)
                .map(|i| {
                    restored
                        .get(&EntityRef::new("Account", format!("a{i}")))
                        .unwrap()["balance"]
                        .as_int()
                        .unwrap()
                })
                .collect();
            assert_eq!(
                got,
                expected_at_epoch[epoch as usize - 1],
                "epoch {epoch} diverged"
            );
        }
    }

    #[test]
    fn approx_size_reflects_payload() {
        let mut store = StateStore::new();
        let r = EntityRef::new("Blob", "b");
        let s = EntityState::from([("data", Value::Bytes(vec![0; 50 * 1024]))]);
        store.insert(r, s);
        assert!(store.approx_size() >= 50 * 1024);
    }
}
