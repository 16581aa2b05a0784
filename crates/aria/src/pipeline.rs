//! Cross-batch pipelining bookkeeping.
//!
//! Aria pipelines the execution of batch *i+1* with the commit round of
//! batch *i*. Once batches overlap, per-channel FIFO no longer orders a
//! batch's `Exec` messages after the previous batch's `Commit`: the
//! coordinator dispatches batch *i+1* while batch *i* is still deciding.
//! Correctness moves to a per-worker **committed-batch watermark**: a worker
//! may execute work of batch *B* only once the commit decisions of every
//! batch `< B` have been applied to its partition, so every execution still
//! reads the exact snapshot Aria's serial batch order prescribes.
//!
//! [`CommitWatermark`] is that bookkeeping, engine-agnostic: it tracks the
//! next batch id whose commit is awaited, answers whether a batch is
//! runnable, and absorbs commit records (in order, buffering any that arrive
//! early).
//!
//! The watermark also carries the invariant that makes **execution order
//! within a batch** irrelevant: a batch's store writes happen only when its
//! commit record is applied, which the watermark orders strictly after the
//! batch stopped being runnable — so during a batch's execution window the
//! committed snapshot is immutable, every transaction reads it overlaid with
//! only its own private buffer, and executions of one batch can proceed
//! in any order without changing any outcome. The StateFlow worker runs a
//! batch's segments in arrival order and leans on exactly this; see
//! `exec_window_never_overlaps_commit_application` below for the pinned
//! contract.

use std::collections::BTreeMap;

use crate::types::BatchId;

/// Per-worker committed-batch watermark for pipelined Aria.
///
/// Batches commit in id order; a batch is *runnable* exactly while the
/// watermark awaits its own commit (i.e. everything below it has been
/// applied). Commit records arriving out of order are buffered and replayed
/// as soon as their predecessors land, so callers always apply commits in
/// batch order no matter how the network interleaves them.
#[derive(Debug, Default)]
pub struct CommitWatermark<C> {
    /// The next batch id whose commit has not been applied yet.
    next: BatchId,
    /// Commit records that arrived before their predecessors' commits.
    early: BTreeMap<BatchId, C>,
}

impl<C> CommitWatermark<C> {
    /// A watermark expecting batch 0 first.
    pub fn new() -> Self {
        Self {
            next: 0,
            early: BTreeMap::new(),
        }
    }

    /// The next batch id whose commit is awaited.
    pub fn next_expected(&self) -> BatchId {
        self.next
    }

    /// Whether work of `batch` may execute now: every earlier batch has
    /// committed, and `batch`'s own commit is still pending.
    pub fn runnable(&self, batch: BatchId) -> bool {
        batch == self.next
    }

    /// Whether work of `batch` must be deferred until more commits apply.
    pub fn must_defer(&self, batch: BatchId) -> bool {
        batch > self.next
    }

    /// Offers a commit record for `batch`. Returns the records that are now
    /// applicable, in batch order — usually just `record`, plus any earlier
    /// arrivals it unblocks. Records for future batches are buffered and an
    /// empty vec is returned; records for already-committed batches are
    /// dropped (duplicates from a fenced-off past).
    pub fn offer(&mut self, batch: BatchId, record: C) -> Vec<(BatchId, C)> {
        if batch < self.next {
            return Vec::new();
        }
        self.early.insert(batch, record);
        let mut ready = Vec::new();
        while let Some(record) = self.early.remove(&self.next) {
            ready.push((self.next, record));
            self.next += 1;
        }
        ready
    }

    /// Advances past `batch` without a record — used by a worker that
    /// decided the commit itself (single-transaction fallback batches are
    /// locally decidable at the final hop).
    ///
    /// # Panics
    /// Panics if `batch` is not the next expected batch: self-decided
    /// commits are only legal while the batch is runnable.
    pub fn advance_past(&mut self, batch: BatchId) {
        assert!(
            self.runnable(batch),
            "advance_past({batch}) while expecting {}",
            self.next
        );
        self.next = batch + 1;
    }

    /// Resets to expect `next` (recovery: the coordinator tells restored
    /// workers where batch numbering resumes), dropping buffered records.
    pub fn reset(&mut self, next: BatchId) {
        self.next = next;
        self.early.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_commits_apply_immediately() {
        let mut w: CommitWatermark<&str> = CommitWatermark::new();
        assert!(w.runnable(0));
        assert!(w.must_defer(1));
        assert_eq!(w.offer(0, "c0"), vec![(0, "c0")]);
        assert!(w.runnable(1));
        assert_eq!(w.offer(1, "c1"), vec![(1, "c1")]);
        assert_eq!(w.next_expected(), 2);
    }

    #[test]
    fn early_commit_waits_for_predecessor() {
        let mut w: CommitWatermark<u32> = CommitWatermark::new();
        assert_eq!(w.offer(1, 11), vec![]);
        assert!(w.runnable(0), "batch 0 still runnable");
        // Batch 0's commit unblocks both.
        assert_eq!(w.offer(0, 10), vec![(0, 10), (1, 11)]);
        assert_eq!(w.next_expected(), 2);
    }

    #[test]
    fn stale_commits_are_dropped() {
        let mut w: CommitWatermark<()> = CommitWatermark::new();
        w.offer(0, ());
        assert_eq!(w.offer(0, ()), vec![], "duplicate from a fenced past");
        assert_eq!(w.next_expected(), 1);
    }

    #[test]
    fn self_decided_commit_advances() {
        let mut w: CommitWatermark<()> = CommitWatermark::new();
        w.advance_past(0);
        assert!(w.runnable(1));
        // A peer's record for the self-decided batch is a no-op.
        assert_eq!(w.offer(0, ()), vec![]);
    }

    #[test]
    #[should_panic(expected = "advance_past")]
    fn self_decided_commit_must_be_runnable() {
        let mut w: CommitWatermark<()> = CommitWatermark::new();
        w.advance_past(3);
    }

    /// The contract order-independent execution relies on: while a batch
    /// is runnable (its execution window), no commit record — its own or a
    /// successor's — can be applied, so the committed snapshot cannot move
    /// under a concurrently executing transaction. Equivalently: a batch is
    /// never runnable once its commit applied, and a successor's commit can
    /// never be applied first.
    #[test]
    fn exec_window_never_overlaps_commit_application() {
        let mut w: CommitWatermark<&str> = CommitWatermark::new();
        // Successor commits arriving during batch 0's window are buffered,
        // not applied: nothing mutates the snapshot batch 0 reads.
        assert!(w.runnable(0));
        assert_eq!(w.offer(2, "c2"), vec![]);
        assert_eq!(w.offer(1, "c1"), vec![]);
        assert!(w.runnable(0), "window stays open under buffered commits");
        // Batch 0's own commit closes its window and releases the chain —
        // application is strictly ordered, batch by batch.
        let applied = w.offer(0, "c0");
        assert_eq!(applied, vec![(0, "c0"), (1, "c1"), (2, "c2")]);
        for b in 0..=2 {
            assert!(
                !w.runnable(b),
                "batch {b} must not be runnable after its commit applied"
            );
        }
        assert!(w.runnable(3));
    }

    #[test]
    fn reset_rearms_after_recovery() {
        let mut w: CommitWatermark<()> = CommitWatermark::new();
        w.offer(0, ());
        w.offer(5, ());
        w.reset(7);
        assert!(w.runnable(7));
        assert!(w.must_defer(8));
        assert_eq!(w.offer(5, ()), vec![], "pre-recovery record fenced");
    }
}
