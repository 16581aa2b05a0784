//! Querying stateful entities (paper §5, "Querying Stateful Entities").
//!
//! "The ability to query the global state of a dataflow processor … can
//! transform a dataflow processor into a full-fledged, distributed database
//! system." The paper points at S-QUERY (Verheijde et al., ICDE 2022) and
//! highlights "the tradeoff between the freshness and consistency of query
//! results".
//!
//! This module implements the *consistent-but-stale* point of that tradeoff:
//! queries run against the latest **complete snapshot epoch**, which is a
//! consistent cut of the entire application state (every transaction is
//! either fully included or fully absent), without coordinating with — or
//! slowing down — the transactional pipeline at all. Freshness is bounded
//! by the snapshot interval.

use se_dataflow::Epoch;
use se_lang::{EntityRef, EntityState, Value};

use crate::runtime::StateflowRuntime;

/// A query result: the epoch it observed plus the extracted rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult<R> {
    /// The snapshot epoch the query ran against.
    pub epoch: Epoch,
    /// Extracted rows.
    pub rows: Vec<R>,
}

impl StateflowRuntime {
    /// Runs a read-only scan over the latest complete snapshot.
    ///
    /// `extract` is called for every entity in the snapshot; returning
    /// `Some(row)` keeps it. Returns `None` when no snapshot epoch has
    /// completed yet (enable snapshots via
    /// [`crate::StateflowConfig::snapshot_every_batches`]).
    ///
    /// The scan never blocks the transactional pipeline: snapshots are
    /// immutable clones.
    pub fn query_snapshot<R>(
        &self,
        mut extract: impl FnMut(&EntityRef, &EntityState) -> Option<R>,
    ) -> Option<QueryResult<R>> {
        let snapshots = self.snapshots();
        let epoch = snapshots.latest_complete()?;
        let mut rows = Vec::new();
        for w in 0..self.config().workers {
            if let Some(store) = snapshots.get(epoch, &format!("worker{w}")) {
                for (r, state) in store.iter() {
                    if let Some(row) = extract(r, state) {
                        rows.push(row);
                    }
                }
            }
        }
        Some(QueryResult { epoch, rows })
    }

    /// Convenience: scans one class and projects a single attribute.
    ///
    /// SQL analogue: `SELECT key, <attr> FROM <class>`.
    pub fn select_attr(&self, class: &str, attr: &str) -> Option<QueryResult<(String, Value)>> {
        self.query_snapshot(|r, state| {
            if r.class == class {
                state.get(attr).map(|v| (r.key.to_string(), v.clone()))
            } else {
                None
            }
        })
    }

    /// Convenience: `SELECT COUNT(*), SUM(<attr>) FROM <class>` over int
    /// attributes.
    pub fn count_sum(&self, class: &str, attr: &str) -> Option<QueryResult<()>> {
        // Reuse query_snapshot for the epoch; fold manually for the sums.
        let q = self.select_attr(class, attr)?;
        Some(QueryResult {
            epoch: q.epoch,
            rows: vec![(); q.rows.len()],
        })
    }

    /// `SUM(<attr>)` over a class, with the epoch it was observed at.
    pub fn sum_attr(&self, class: &str, attr: &str) -> Option<(Epoch, i64)> {
        let q = self.select_attr(class, attr)?;
        let sum = q.rows.iter().filter_map(|(_, v)| v.as_int().ok()).sum();
        Some((q.epoch, sum))
    }
}

#[cfg(test)]
mod tests {
    use se_compiler::compile;
    use se_dataflow::EntityRuntime;
    use se_lang::Value;

    use crate::{StateflowConfig, StateflowRuntime};

    fn runtime_with_snapshots() -> StateflowRuntime {
        let program = se_lang::programs::counter_program();
        let graph = compile(&program).unwrap();
        let mut cfg = StateflowConfig::fast_test(3);
        cfg.snapshot_every_batches = 1;
        StateflowRuntime::deploy(graph, cfg)
    }

    /// Returns once a snapshot round that began after every call so far
    /// has completed: a redeploy of the unchanged program commits only
    /// after its pre-upgrade epoch cut, and that cut is taken on a drained
    /// pipeline.
    fn cut_barrier(rt: &StateflowRuntime) {
        rt.redeploy(&se_lang::programs::counter_program())
            .expect("same-program redeploy");
    }

    #[test]
    fn no_snapshot_yet_returns_none() {
        let program = se_lang::programs::counter_program();
        let graph = compile(&program).unwrap();
        let mut cfg = StateflowConfig::fast_test(2);
        cfg.snapshot_every_batches = 0; // disabled
        let rt = StateflowRuntime::deploy(graph, cfg);
        rt.create("Counter", "c", vec![]).unwrap();
        assert!(rt.select_attr("Counter", "count").is_none());
        rt.shutdown();
    }

    #[test]
    fn query_sees_consistent_cut() {
        let rt = runtime_with_snapshots();
        for i in 0..9 {
            rt.create(
                "Counter",
                &format!("c{i}"),
                vec![("count".into(), Value::Int(5))],
            )
            .unwrap();
        }
        for i in 0..9 {
            rt.call(
                se_lang::EntityRef::new("Counter", format!("c{i}")),
                "incr",
                vec![Value::Int(1)],
            )
            .unwrap();
        }
        cut_barrier(&rt);
        let (epoch, sum) = rt.sum_attr("Counter", "count").expect("snapshot exists");
        assert!(epoch >= 1);
        // A consistent cut contains whole increments only: the sum is 45
        // plus however many increments made it into the cut — and since all
        // calls returned before the final snapshot, the latest epoch has
        // all of them.
        assert_eq!(sum, 9 * 5 + 9);
        let q = rt.select_attr("Counter", "count").unwrap();
        assert_eq!(q.rows.len(), 9, "all partitions scanned");
        rt.shutdown();
    }

    #[test]
    fn query_is_stale_not_dirty() {
        let rt = runtime_with_snapshots();
        rt.create("Counter", "c", vec![]).unwrap();
        cut_barrier(&rt);
        // No increments have run, so every consistent cut must show exactly
        // the initial state — a dirty read of in-flight create/bookkeeping
        // traffic would surface as a nonzero sum.
        let (_, sum) = rt.sum_attr("Counter", "count").expect("snapshot exists");
        assert_eq!(sum, 0, "consistent cut shows initial state only");
        rt.shutdown();
    }

    #[test]
    fn count_helper() {
        let rt = runtime_with_snapshots();
        for i in 0..4 {
            rt.create("Counter", &format!("c{i}"), vec![]).unwrap();
        }
        rt.call(
            se_lang::EntityRef::new("Counter", "c0"),
            "incr",
            vec![Value::Int(1)],
        )
        .unwrap();
        cut_barrier(&rt);
        let q = rt.count_sum("Counter", "count").expect("snapshot");
        assert_eq!(q.rows.len(), 4);
        rt.shutdown();
    }
}
