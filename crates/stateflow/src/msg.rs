//! Messages exchanged between the coordinator and workers.
//!
//! Every message carries a `gen`eration number: recovery increments the
//! generation, fencing off in-flight messages from before the failure (a
//! real crash would have lost them with the process).

use std::collections::BTreeSet;
use std::sync::Arc;

use se_aria::{BatchId, TxnId};
use se_dataflow::Epoch;
use se_ir::{Invocation, RequestId, Response};
use se_lang::Value;

/// A client-issued request, as appended to the replayable request source.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRequest {
    /// Request id (used to complete the client's waiter).
    pub request: RequestId,
    /// The operation.
    pub op: ClientOp,
}

/// What the client asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Create an entity.
    Create {
        /// Class to instantiate.
        class: String,
        /// Entity key.
        key: String,
        /// Attribute overrides.
        init: Vec<(String, Value)>,
    },
    /// Invoke a method (becomes one transaction).
    Invoke(Invocation),
    /// Switch the deployment to an already-registered program version at
    /// the next epoch boundary (live code upgrade). The runtime registers
    /// the recompiled version with every worker's `VersionRegistry` before
    /// appending this record, so replay after recovery finds it too.
    Redeploy {
        /// The version to activate.
        version: u64,
    },
}

/// Per-transaction conflict flags computed by one partition; the coordinator
/// ORs flags across partitions before applying the commit rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictFlags {
    /// Write-after-write dependency on a lower id.
    pub waw: bool,
    /// Read-after-write dependency on a lower id.
    pub raw: bool,
    /// Write-after-read dependency on a lower id.
    pub war: bool,
}

impl ConflictFlags {
    /// ORs in another partition's flags.
    pub fn merge(&mut self, other: ConflictFlags) {
        self.waw |= other.waw;
        self.raw |= other.raw;
        self.war |= other.war;
    }

    /// Whether the transaction loses its conflicts under Aria's reordering
    /// rule: a WAW, or a stale read (RAW) whose writes an earlier
    /// transaction read (WAR). The history checker recomputes the same rule
    /// independently in `ReservationTable::decide`.
    pub fn loses(self) -> bool {
        self.waw || (self.raw && self.war)
    }
}

/// Coordinator → worker messages.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// Create an entity in this partition.
    Create {
        /// Fencing generation.
        gen: u64,
        /// Request to acknowledge.
        request: RequestId,
        /// Class name.
        class: String,
        /// Entity key.
        key: String,
        /// Attribute overrides.
        init: Vec<(String, Value)>,
    },
    /// Execute (or continue) a transaction's invocation chain.
    ///
    /// Carries its batch id because batches overlap under pipelining: a
    /// worker defers execution of batch *B* until the commit of batch *B−1*
    /// has been applied locally (per-channel FIFO no longer orders them).
    Exec {
        /// Fencing generation.
        gen: u64,
        /// Batch this transaction was sealed into.
        batch: BatchId,
        /// Transaction id.
        txn: TxnId,
        /// Position in the transaction's invocation chain: the coordinator
        /// sends the root at hop 0, every execution step increments. A
        /// worker tracks the next hop it expects per `(batch, txn)` and
        /// drops anything below it — re-running a hop would double-apply
        /// its effects in the transaction's buffer, so duplicated or
        /// replayed `Exec` deliveries must be idempotent.
        hop: u32,
        /// The event to process.
        inv: Invocation,
        /// A single-transaction batch that commits at the final hop: the
        /// executing worker decides (commit unless errored), applies its
        /// own writes, answers the client, and then tells the coordinator
        /// and sends the commit record to its peers — no coordinator round
        /// trip on the answer path.
        solo: bool,
    },
    /// Execute the reservation phase for a sealed batch.
    Reserve {
        /// Fencing generation.
        gen: u64,
        /// Batch id.
        batch: BatchId,
        /// All transaction ids of the batch.
        txns: Arc<Vec<TxnId>>,
        /// Transactions whose chain errored. They abort unconditionally, so
        /// they must not reserve their buffered accesses — an errored
        /// (never-committing) writer would otherwise WAW/RAW-abort healthy
        /// higher-id transactions into pointless retries.
        errors: Arc<BTreeSet<TxnId>>,
    },
    /// Install committed writes; discard aborted buffers.
    Commit {
        /// Fencing generation.
        gen: u64,
        /// Batch id.
        batch: BatchId,
        /// All transaction ids of the batch, ascending.
        txns: Arc<Vec<TxnId>>,
        /// Ids whose effects must be discarded.
        aborted: Arc<BTreeSet<TxnId>>,
    },
    /// Contribute this partition's state to a consistent snapshot.
    Snapshot {
        /// Fencing generation.
        gen: u64,
        /// Epoch to contribute to.
        epoch: Epoch,
        /// The coordinator's next batch id when the round opened. Every
        /// batch below it is decided (the round opens on a drained
        /// pipeline), but its commit record may still be on its way here:
        /// the worker holds the marker until its watermark reaches
        /// `through`, so the cut includes every one of those commits.
        through: BatchId,
        /// Cluster durable floor: the minimum epoch every partition has
        /// made durable on disk, per the last completed snapshot round.
        /// A durable worker may compact its WAL below it — no recovery
        /// will ever target anything older. `None` with durability off or
        /// before the first durable epoch.
        durable_floor: Option<Epoch>,
    },
    /// Run the live-upgrade migration pass: with the pipeline drained and
    /// the upgrade epoch's snapshot cut, every worker runs the new
    /// version's `__migrate__` method (where defined) over its owned
    /// entities as one synthetic write batch, logs a `VersionCut` to its
    /// WAL, and acknowledges with [`CoordMsg::MigrateAck`].
    Migrate {
        /// Fencing generation.
        gen: u64,
        /// The version being activated.
        version: u64,
        /// The epoch cut immediately before this migration (the
        /// pre-upgrade snapshot recovery falls back to).
        epoch: Epoch,
    },
    /// Reset to the state of `epoch` (0 = empty) and adopt `gen`.
    Restore {
        /// New fencing generation (messages below it are dropped).
        gen: u64,
        /// Epoch to restore (`None` = initial empty state).
        epoch: Option<Epoch>,
        /// Batch id numbering resumes at: re-arms the worker's
        /// committed-batch watermark so post-recovery batches are not
        /// deferred waiting for commits that died with the old generation.
        next_batch: BatchId,
    },
    /// Stop the worker; its thread leaves once every role it hosts stopped.
    Shutdown,
}

/// Worker → coordinator messages.
#[derive(Debug, Clone)]
pub enum CoordMsg {
    /// A regular batch's transaction finished its chain (successfully or
    /// with an error); solo batches report [`CoordMsg::SoloDone`] instead.
    ExecDone {
        /// Fencing generation.
        gen: u64,
        /// Batch the transaction belongs to (routes the completion to the
        /// right in-flight batch when several overlap).
        batch: BatchId,
        /// Transaction id.
        txn: TxnId,
        /// The root invocation's outcome.
        response: Response,
    },
    /// This worker's conflict flags for a batch.
    Flags {
        /// Fencing generation.
        gen: u64,
        /// Batch id.
        batch: BatchId,
        /// Reporting worker.
        worker: usize,
        /// Flags for transactions with accesses on this partition.
        flags: Vec<(TxnId, ConflictFlags)>,
    },
    /// Snapshot contribution stored.
    SnapshotAck {
        /// Fencing generation.
        gen: u64,
        /// Epoch.
        epoch: Epoch,
        /// Acknowledging worker.
        worker: usize,
        /// Newest epoch this worker can recover from its own disk (fsynced
        /// WAL cut or base snapshot). `None` with durability off — the
        /// coordinator then skips durable-floor bookkeeping entirely.
        durable: Option<Epoch>,
    },
    /// Migration pass finished on this worker (live upgrade).
    MigrateAck {
        /// Fencing generation.
        gen: u64,
        /// The version whose migration ran.
        version: u64,
        /// Acknowledging worker.
        worker: usize,
    },
    /// Restore finished on this worker.
    RestoreAck {
        /// Adopted generation.
        gen: u64,
        /// Acknowledging worker.
        worker: usize,
        /// The epoch this worker actually restored to (`None` = initial
        /// empty state). Volatile workers always reach the requested epoch
        /// (the in-memory snapshot is complete by construction); a durable
        /// worker recovering from a damaged disk may fall short, and the
        /// coordinator then runs another restore round at the cluster
        /// minimum so every partition rejoins at the same cut.
        reached: Option<Epoch>,
    },
    /// A solo batch's final-hop worker decided, committed, counted and
    /// answered it: the coordinator only frees the batch's pipeline slot.
    /// Carries no response — the client already has it.
    SoloDone {
        /// Fencing generation.
        gen: u64,
        /// The solo batch.
        batch: BatchId,
        /// Its one transaction.
        txn: TxnId,
    },
    /// The worker crashed (failure injection fired).
    WorkerFailed {
        /// Fencing generation at crash time.
        gen: u64,
        /// Crashed worker.
        worker: usize,
    },
}

/// An engine thread's inbox entry: a protocol message and the role it is
/// addressed to. One thread may host the coordinator and several workers
/// (see [`crate::shell`]), so the address travels with the message.
#[derive(Debug, Clone)]
pub enum Envelope {
    /// To the coordinator.
    Coord(CoordMsg),
    /// To the worker with this id.
    Worker(usize, WorkerMsg),
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_aria::{CommitRule, Decision, ReservationTable, TxnBuffer};
    use se_lang::EntityRef;

    #[test]
    fn flags_merge_is_or() {
        let mut f = ConflictFlags::default();
        f.merge(ConflictFlags {
            waw: false,
            raw: true,
            war: false,
        });
        f.merge(ConflictFlags {
            waw: true,
            raw: false,
            war: false,
        });
        assert_eq!(
            f,
            ConflictFlags {
                waw: true,
                raw: true,
                war: false
            }
        );
    }

    /// The coordinator's copy of the commit rule (`loses`) agrees with the
    /// checker's (`ReservationTable::decide`) on all eight flag patterns.
    #[test]
    fn loses_matches_the_checkers_decide() {
        let key = |k: &str| EntityRef::new("K", k);
        let buffer = |reads: &[&str], writes: &[&str]| TxnBuffer {
            reads: reads.iter().map(|k| key(k)).collect(),
            writes: writes
                .iter()
                .map(|k| (key(k), Default::default()))
                .collect(),
        };
        // The transaction under test (id 10) reads `r` and writes `w` and
        // `v`; lower ids switch on one flag each: a writer of `w` (WAW), a
        // writer of `r` (RAW), a reader of `v` (WAR).
        let txn = buffer(&["r"], &["w", "v"]);
        for pattern in 0..8u8 {
            let want = ConflictFlags {
                waw: pattern & 1 != 0,
                raw: pattern & 2 != 0,
                war: pattern & 4 != 0,
            };
            let mut table = ReservationTable::new();
            table.reserve(10, &txn);
            if want.waw {
                table.reserve(1, &buffer(&[], &["w"]));
            }
            if want.raw {
                table.reserve(2, &buffer(&[], &["r"]));
            }
            if want.war {
                table.reserve(3, &buffer(&["v"], &[]));
            }
            let got = ConflictFlags {
                waw: table.waw(10, &txn),
                raw: table.raw(10, &txn),
                war: table.war(10, &txn),
            };
            assert_eq!(got, want, "the batch yields the intended flags");
            let aborts = table.decide(10, &txn, CommitRule::Reordering) == Decision::Abort;
            assert_eq!(want.loses(), aborts, "{want:?}");
        }
    }
}
