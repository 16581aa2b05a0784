//! Per-run execution-history recording.
//!
//! Both engines accept an optional [`History`] handle in their configs;
//! when present they append one event per protocol step that matters for
//! serializability analysis. When absent (the default) every hook is a
//! single `Option` branch — the overhead of the disabled feature is ~zero,
//! no event is even constructed.
//!
//! StateFlow records the full transactional story (root invocations, batch
//! seals, per-partition access sets, commit decisions, recoveries); the
//! checker in [`crate::check`] consumes it. StateFun — which has no
//! transactions — records its per-key dispatch/install pairs, enough to
//! verify per-key serial execution, the guarantee that engine does make.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use se_lang::{EntityRef, Value};

/// How a batch was formed (mirrors the coordinator's batch kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchKindTag {
    /// A sealed multi-transaction batch (executes, reserves, decides).
    Regular,
    /// A single-transaction serial-fallback batch, decided and committed
    /// at its final hop.
    Solo,
}

/// The outcome of one transaction in a decided batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TxnOutcome {
    /// Transaction id.
    pub txn: u64,
    /// Root request id.
    pub request: u64,
    /// The response sent to the client (`Err` carries the error text).
    pub result: Result<Value, String>,
}

/// One recorded protocol event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum HistoryEvent {
    /// (Coordinator) A client invocation became a transaction.
    Root {
        /// Assigned transaction id.
        txn: u64,
        /// Root request id.
        request: u64,
        /// Target entity.
        target: EntityRef,
        /// Invoked method.
        method: String,
        /// Evaluated arguments.
        args: Vec<Value>,
    },
    /// (Coordinator) A batch was sealed and dispatched.
    Sealed {
        /// Batch id.
        batch: u64,
        /// Transaction ids, ascending.
        txns: Vec<u64>,
        /// Batch kind.
        kind: BatchKindTag,
    },
    /// (Worker) One partition's buffered access sets for one transaction,
    /// recorded when the reservation round runs.
    Access {
        /// Reporting worker.
        worker: usize,
        /// Batch id.
        batch: u64,
        /// Transaction id.
        txn: u64,
        /// Entities read on this partition.
        reads: Vec<EntityRef>,
        /// Entities written on this partition.
        writes: Vec<EntityRef>,
    },
    /// (Coordinator) A batch's commit decision.
    Decided {
        /// Batch id.
        batch: u64,
        /// Batch kind.
        kind: BatchKindTag,
        /// Committed transactions with their responses.
        committed: Vec<TxnOutcome>,
        /// Hard-failed (errored) transactions with their error responses.
        failed: Vec<TxnOutcome>,
        /// Aborted transactions that re-enter a later batch.
        retried: Vec<u64>,
    },
    /// (Coordinator) A recovery fenced off the in-flight window and
    /// replay restarts from `source_offset`.
    Recovery {
        /// New fencing generation.
        gen: u64,
        /// Source offset replay restarts from.
        source_offset: u64,
    },
    /// (Coordinator) A live upgrade sealed its epoch boundary and the
    /// migration pass was dispatched to the workers. Until the matching
    /// [`HistoryEvent::UpgradeCommitted`], no batch may seal — a `Sealed`
    /// inside the window is a torn upgrade.
    UpgradeStarted {
        /// The version being activated.
        version: u64,
        /// The pre-upgrade epoch cut.
        epoch: u64,
    },
    /// (Coordinator) Every worker acknowledged the migration pass; new
    /// roots now seal at `version`.
    UpgradeCommitted {
        /// The now-active version.
        version: u64,
        /// The pre-upgrade epoch cut.
        epoch: u64,
    },
    /// (Coordinator) The program version a batch's roots were stamped
    /// with at seal time. Recorded only on runs that performed at least
    /// one redeploy, so upgrade-free histories stay byte-identical to
    /// builds without the upgrade layer.
    BatchVersion {
        /// Batch id.
        batch: u64,
        /// Active version at seal time.
        version: u64,
    },
    /// (StateFun task) An invocation was dispatched to the remote runtime.
    SfDispatch {
        /// Dispatching partition task.
        task: usize,
        /// Per-task dispatch sequence number.
        seq: u64,
        /// Target entity.
        entity: EntityRef,
        /// Invoked (or resumed) method.
        method: String,
    },
    /// (StateFun task) The matching remote response was installed.
    SfInstall {
        /// Installing partition task.
        task: usize,
        /// Dispatch sequence the response answered.
        seq: u64,
        /// Target entity.
        entity: EntityRef,
    },
    /// (StateFun task) The task switched to a new program version after
    /// draining its in-flight invocations and migrating its entities.
    SfUpgrade {
        /// Switching partition task.
        task: usize,
        /// The now-active version on this task.
        version: u64,
    },
    /// (StateFun task) The task restored to a checkpoint (recovery).
    SfRecovery {
        /// Restoring task.
        task: usize,
        /// Adopted fencing generation.
        gen: u64,
    },
}

/// A shareable, thread-safe event log. Cloning shares the log.
#[derive(Debug, Clone, Default)]
pub struct History {
    events: Arc<Mutex<Vec<HistoryEvent>>>,
}

impl History {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn record(&self, event: HistoryEvent) {
        self.events.lock().push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the recorded events.
    pub fn events(&self) -> Vec<HistoryEvent> {
        self.events.lock().clone()
    }

    /// The log serialized as JSON — byte-stable for a logically identical
    /// run, which is what the reproducibility property asserts.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.events()).expect("history events serialize")
    }

    /// Canonical JSON serialization: within each *run* of consecutive
    /// [`HistoryEvent::Access`] events, entries are sorted by
    /// `(batch, txn, worker)`. Two workers of the same reservation round
    /// append their access records concurrently, so their relative order is
    /// scheduler noise even when the run is logically deterministic;
    /// everything else keeps its recorded order. The reproducibility
    /// property compares this form.
    pub fn to_json_canonical(&self) -> String {
        let mut events = self.events();
        let mut i = 0;
        while i < events.len() {
            if !matches!(events[i], HistoryEvent::Access { .. }) {
                i += 1;
                continue;
            }
            let mut j = i;
            while j < events.len() && matches!(events[j], HistoryEvent::Access { .. }) {
                j += 1;
            }
            events[i..j].sort_by_key(|e| match e {
                HistoryEvent::Access {
                    batch, txn, worker, ..
                } => (*batch, *txn, *worker),
                _ => unreachable!("run holds only Access events"),
            });
            i = j;
        }
        serde_json::to_string(&events).expect("history events serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let h = History::new();
        assert!(h.is_empty());
        h.record(HistoryEvent::Sealed {
            batch: 0,
            txns: vec![0, 1],
            kind: BatchKindTag::Regular,
        });
        let h2 = h.clone(); // shares the log
        h2.record(HistoryEvent::Recovery {
            gen: 1,
            source_offset: 0,
        });
        assert_eq!(h.len(), 2);
        let json = h.to_json();
        assert!(
            json.contains("Sealed") && json.contains("Recovery"),
            "{json}"
        );
    }
}
