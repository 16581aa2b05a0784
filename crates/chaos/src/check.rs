//! The history checker: serializability in Aria batch order.
//!
//! Given a recorded [`History`](crate::History) of a StateFlow run, the
//! checker verifies — structurally, without re-executing anything — that
//! the run is explainable as a serial execution in batch order:
//!
//! 1. **Decisions are justified.** For every regular batch it rebuilds the
//!    reservation table from the recorded per-partition access sets
//!    (errored transactions excluded, exactly as the protocol specifies)
//!    and recomputes every commit/abort decision under the configured
//!    [`CommitRule`]. An abort without a conflict, or a commit that the
//!    rule forbids, is a violation — this is what catches a regressed
//!    reservation path.
//! 2. **Exactly-once.** A request may commit at most once per recovery
//!    lineage: two commits of the same request without an intervening
//!    recovery (which rolls the later one's predecessor back) are a
//!    duplicated effect.
//! 3. **Retry monotonicity.** An aborted transaction must re-enter a
//!    strictly later batch with the same id, and no decided retry may
//!    dangle at the end of a quiesced run.
//! 4. **Batch sanity.** Batch ids seal in ascending order, transaction
//!    lists are ascending, fallback/solo batches hold exactly one
//!    transaction and never retry.
//!
//! [`serial_order`] then derives the *equivalent serial order* of the
//! surviving commits — batches ascending; within a batch a topological
//! order that places readers before the writers whose values they did not
//! yet see (Aria's deterministic reordering means the intra-batch
//! serialization point is **not** always transaction-id order) — for
//! replay through a single-threaded oracle and state-equivalence checking.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use se_aria::{CommitRule, ReservationTable, TxnBuffer};
use se_lang::{EntityRef, Value};

use crate::history::{BatchKindTag, HistoryEvent, TxnOutcome};

/// Statistics of a checked history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckSummary {
    /// Batches decided.
    pub batches: usize,
    /// Transactions committed (including pre-recovery commits that were
    /// later rolled back and replayed).
    pub commits: usize,
    /// Surviving commits (one per successfully answered request).
    pub surviving_commits: usize,
    /// Transactions hard-failed (errored chains).
    pub failed: usize,
    /// Abort-and-retry decisions.
    pub retries: usize,
    /// Recoveries observed.
    pub recoveries: usize,
    /// Committed live upgrades observed.
    pub upgrades: usize,
}

/// A serializability violation found in a recorded history.
#[derive(Debug, Clone)]
pub struct CheckError {
    /// Human-readable description with ids.
    pub message: String,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CheckError {}

fn err<T>(message: String) -> Result<T, CheckError> {
    Err(CheckError { message })
}

/// One committed operation of the equivalent serial order.
#[derive(Debug, Clone)]
pub struct SerialOp {
    /// Root request id.
    pub request: u64,
    /// Transaction id of the surviving commit.
    pub txn: u64,
    /// Batch the surviving commit decided in.
    pub batch: u64,
    /// Target entity of the root invocation.
    pub target: EntityRef,
    /// Invoked method.
    pub method: String,
    /// Evaluated arguments.
    pub args: Vec<Value>,
    /// The response the client received.
    pub result: Result<Value, String>,
}

/// `(txn, request, result)` of one surviving commit, pre-serialization.
type CommitEntry = (u64, u64, Result<Value, String>);

/// Merged access sets of one `(batch, txn)` execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct AccessSets {
    reads: BTreeSet<EntityRef>,
    writes: BTreeSet<EntityRef>,
}

impl AccessSets {
    /// Rebuilds a key-granular [`TxnBuffer`] (conflict analysis only looks
    /// at keys, so write values are placeholders).
    fn to_buffer(&self) -> TxnBuffer {
        let mut buf = TxnBuffer::new();
        for r in &self.reads {
            buf.reads.insert(*r);
        }
        for w in &self.writes {
            buf.writes
                .entry(*w)
                .or_default()
                .insert(se_lang::Symbol::from("~"), Value::Unit);
        }
        buf
    }
}

/// Verifies a recorded StateFlow history against the Aria batch order.
///
/// Returns summary statistics, or the first violation found.
pub fn check_history(
    events: &[HistoryEvent],
    rule: CommitRule,
) -> Result<CheckSummary, CheckError> {
    let mut summary = CheckSummary::default();
    // (batch, txn) -> merged access sets across partitions.
    let mut accesses: HashMap<(u64, u64), AccessSets> = HashMap::new();
    // batch -> sealed (txns, kind).
    let mut sealed: BTreeMap<u64, (Vec<u64>, BatchKindTag)> = BTreeMap::new();
    let mut last_sealed: Option<u64> = None;
    let mut decided: BTreeSet<u64> = BTreeSet::new();
    // request -> recovery epoch of its last commit (for exactly-once).
    let mut committed_at: HashMap<u64, usize> = HashMap::new();
    // (epoch, batch, txn, worker) -> first recorded sets. A partition's
    // reservation round for a transaction runs exactly once per lineage, so
    // within a recovery epoch any re-record must be a duplicate delivery
    // carrying the *identical* sets. A divergent re-record is the footprint
    // of a double-executed transaction (e.g. a duplicated hop that slipped
    // past dedup) and must fail the check rather than silently merge.
    let mut recorded: HashMap<(usize, u64, u64, usize), AccessSets> = HashMap::new();
    // txn -> batch it was aborted in, awaiting its retry.
    let mut pending_retries: BTreeMap<u64, u64> = BTreeMap::new();
    let mut recovery_epoch = 0usize;
    // Live-upgrade atomicity: the active version, whether an upgrade window
    // is open (`UpgradeStarted` without its `UpgradeCommitted` yet), and
    // whether version succession is still strictly `v+1` (a recovery may
    // legitimately replay upgrades, so strictness relaxes after one).
    let mut active_version = 1u64;
    let mut upgrading: Option<u64> = None;
    let mut strict_versions = true;

    for event in events {
        match event {
            HistoryEvent::Root { .. } => {}
            HistoryEvent::Sealed { batch, txns, kind } => {
                if let Some(v) = upgrading {
                    return err(format!(
                        "batch {batch} sealed inside the upgrade-to-{v} window \
                         (migration not yet acknowledged) — torn upgrade"
                    ));
                }
                if let Some(prev) = last_sealed {
                    if *batch <= prev {
                        return err(format!(
                            "batch {batch} sealed after batch {prev}: ids must ascend"
                        ));
                    }
                }
                last_sealed = Some(*batch);
                if txns.windows(2).any(|w| w[0] >= w[1]) {
                    return err(format!("batch {batch}: transaction ids not ascending"));
                }
                if !matches!(kind, BatchKindTag::Regular) && txns.len() != 1 {
                    return err(format!(
                        "batch {batch}: {kind:?} batch holds {} transactions, expected 1",
                        txns.len()
                    ));
                }
                // A retried txn must re-enter a strictly later batch.
                for txn in txns {
                    if let Some(aborted_in) = pending_retries.remove(txn) {
                        if *batch <= aborted_in {
                            return err(format!(
                                "txn {txn} aborted in batch {aborted_in} \
                                 retried in non-later batch {batch}"
                            ));
                        }
                    }
                }
                sealed.insert(*batch, (txns.clone(), *kind));
            }
            HistoryEvent::Access {
                worker,
                batch,
                txn,
                reads,
                writes,
            } => {
                let sets = AccessSets {
                    reads: reads.iter().copied().collect(),
                    writes: writes.iter().copied().collect(),
                };
                match recorded.entry((recovery_epoch, *batch, *txn, *worker)) {
                    std::collections::hash_map::Entry::Occupied(prev) => {
                        // Duplicate deliveries re-record identical sets;
                        // merging those is idempotent. A *different* set from
                        // the same partition means the transaction executed
                        // twice in one lineage.
                        if *prev.get() != sets {
                            return err(format!(
                                "worker {worker} re-recorded a divergent access set \
                                 for batch {batch} txn {txn} without an intervening \
                                 recovery (first reads {:?} writes {:?}, then reads \
                                 {:?} writes {:?}) — double execution?",
                                prev.get()
                                    .reads
                                    .iter()
                                    .map(|r| r.to_string())
                                    .collect::<Vec<_>>(),
                                prev.get()
                                    .writes
                                    .iter()
                                    .map(|r| r.to_string())
                                    .collect::<Vec<_>>(),
                                sets.reads.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                                sets.writes
                                    .iter()
                                    .map(|r| r.to_string())
                                    .collect::<Vec<_>>(),
                            ));
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(sets);
                    }
                }
                let slot = accesses.entry((*batch, *txn)).or_default();
                slot.reads.extend(reads.iter().copied());
                slot.writes.extend(writes.iter().copied());
            }
            HistoryEvent::Decided {
                batch,
                kind,
                committed,
                failed,
                retried,
            } => {
                let Some((txns, sealed_kind)) = sealed.get(batch) else {
                    return err(format!("batch {batch} decided but never sealed"));
                };
                if !decided.insert(*batch) {
                    return err(format!("batch {batch} decided twice"));
                }
                if kind != sealed_kind {
                    return err(format!(
                        "batch {batch} sealed as {sealed_kind:?} but decided as {kind:?}"
                    ));
                }
                let mut accounted: BTreeSet<u64> = BTreeSet::new();
                accounted.extend(committed.iter().map(|o| o.txn));
                accounted.extend(failed.iter().map(|o| o.txn));
                accounted.extend(retried.iter().copied());
                if accounted != txns.iter().copied().collect::<BTreeSet<u64>>() {
                    return err(format!(
                        "batch {batch}: decided txns {accounted:?} != sealed {txns:?}"
                    ));
                }
                if !matches!(kind, BatchKindTag::Regular) && !retried.is_empty() {
                    return err(format!(
                        "batch {batch}: a single-transaction {kind:?} batch \
                         can never lose a conflict, yet retried {retried:?}"
                    ));
                }
                // Exactly-once: a request re-commits only across a recovery.
                for o in committed {
                    if let Some(epoch) = committed_at.insert(o.request, recovery_epoch) {
                        if epoch == recovery_epoch {
                            return err(format!(
                                "request {} committed twice (txn {} in batch {batch}) \
                                 without an intervening recovery",
                                o.request, o.txn
                            ));
                        }
                    }
                }
                for txn in retried {
                    pending_retries.insert(*txn, *batch);
                }
                summary.batches += 1;
                summary.commits += committed.len();
                summary.failed += failed.len();
                summary.retries += retried.len();

                // Decision justification (regular batches only; a lone
                // transaction has nothing to conflict with).
                if matches!(kind, BatchKindTag::Regular) {
                    verify_decisions(*batch, txns, committed, failed, retried, &accesses, rule)?;
                }
            }
            HistoryEvent::Recovery { .. } => {
                summary.recoveries += 1;
                recovery_epoch += 1;
                // The fenced window died with the old generation: its
                // in-flight retries are re-read from the source, not
                // re-queued.
                pending_retries.clear();
                // An in-flight upgrade died with the window too; its replay
                // re-records `UpgradeStarted`. Replays may also rewind the
                // active version, so strict succession no longer holds.
                upgrading = None;
                strict_versions = false;
            }
            HistoryEvent::UpgradeStarted { version, .. } => {
                if let Some(open) = upgrading {
                    return err(format!(
                        "upgrade to version {version} started while the \
                         upgrade to {open} is still open — overlapping upgrades"
                    ));
                }
                if strict_versions && *version != active_version + 1 {
                    return err(format!(
                        "upgrade to version {version} started at active \
                         version {active_version}: versions must succeed by 1"
                    ));
                }
                upgrading = Some(*version);
            }
            HistoryEvent::UpgradeCommitted { version, .. } => {
                if upgrading != Some(*version) {
                    return err(format!(
                        "upgrade to version {version} committed without a \
                         matching open UpgradeStarted (open: {upgrading:?})"
                    ));
                }
                upgrading = None;
                active_version = (*version).max(active_version);
                summary.upgrades += 1;
            }
            HistoryEvent::BatchVersion { batch, version } => {
                if upgrading.is_some() {
                    return err(format!(
                        "batch {batch} stamped version {version} inside an \
                         open upgrade window — torn upgrade"
                    ));
                }
                if strict_versions && *version != active_version {
                    return err(format!(
                        "batch {batch} sealed at version {version} while the \
                         active version is {active_version} — a root ran on a \
                         version it must not see"
                    ));
                }
            }
            // StateFun events are checked by `check_statefun_history`.
            HistoryEvent::SfDispatch { .. }
            | HistoryEvent::SfInstall { .. }
            | HistoryEvent::SfUpgrade { .. }
            | HistoryEvent::SfRecovery { .. } => {}
        }
    }
    if !pending_retries.is_empty() {
        return err(format!(
            "quiesced run left dangling retries: {pending_retries:?}"
        ));
    }
    if let Some(v) = upgrading {
        return err(format!(
            "quiesced run left the upgrade to version {v} uncommitted"
        ));
    }
    summary.surviving_commits = committed_at.len();
    Ok(summary)
}

/// Recomputes a regular batch's commit decisions from the recorded access
/// sets and compares them with what the coordinator actually decided.
#[allow(clippy::too_many_arguments)]
fn verify_decisions(
    batch: u64,
    txns: &[u64],
    committed: &[TxnOutcome],
    failed: &[TxnOutcome],
    retried: &[u64],
    accesses: &HashMap<(u64, u64), AccessSets>,
    rule: CommitRule,
) -> Result<(), CheckError> {
    let errored: BTreeSet<u64> = failed.iter().map(|o| o.txn).collect();
    let empty = AccessSets::default();
    let buffers: BTreeMap<u64, TxnBuffer> = txns
        .iter()
        .filter(|t| !errored.contains(t))
        .map(|t| (*t, accesses.get(&(batch, *t)).unwrap_or(&empty).to_buffer()))
        .collect();
    // Errored transactions abort unconditionally and never reserve — the
    // protocol invariant whose regression this check is designed to catch.
    let mut table = ReservationTable::new();
    for (txn, buf) in &buffers {
        table.reserve(*txn, buf);
    }
    let committed_set: BTreeSet<u64> = committed.iter().map(|o| o.txn).collect();
    let retried_set: BTreeSet<u64> = retried.iter().copied().collect();
    for (txn, buf) in &buffers {
        let expect_commit = table.decide(*txn, buf, rule) == se_aria::Decision::Commit;
        if expect_commit && retried_set.contains(txn) {
            return err(format!(
                "batch {batch}: txn {txn} aborted without a justifying \
                 conflict (reads {:?}, writes {:?})",
                buf.reads.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                buf.writes.keys().map(|r| r.to_string()).collect::<Vec<_>>(),
            ));
        }
        if !expect_commit && committed_set.contains(txn) {
            return err(format!(
                "batch {batch}: txn {txn} committed despite a conflict the \
                 {rule:?} rule must abort"
            ));
        }
    }
    Ok(())
}

/// Derives the equivalent serial order of the surviving commits.
///
/// Surviving commit of a request = its **last** commit in the history: a
/// commit rolled back by a recovery is always replayed (and re-committed)
/// later, while a commit covered by the restored snapshot is never
/// replayed. Batches are ordered by id; within a batch, committed
/// transactions are topologically ordered so that a transaction reading a
/// key precedes the transaction writing it — every execution in a batch
/// read the batch-start snapshot, so readers serialize before writers
/// (Aria's deterministic reordering; the graph is acyclic because a
/// read-write cycle always aborts under both commit rules). Ties break by
/// transaction id.
pub fn serial_order(events: &[HistoryEvent]) -> Result<Vec<SerialOp>, CheckError> {
    // txn -> root info (replays record fresh Root events per new txn id).
    let mut roots: HashMap<u64, (u64, EntityRef, String, Vec<Value>)> = HashMap::new();
    let mut accesses: HashMap<(u64, u64), AccessSets> = HashMap::new();
    // request -> (batch, txn, result) of its last commit.
    let mut last_commit: HashMap<u64, (u64, u64, Result<Value, String>)> = HashMap::new();
    for event in events {
        match event {
            HistoryEvent::Root {
                txn,
                request,
                target,
                method,
                args,
            } => {
                roots.insert(*txn, (*request, *target, method.clone(), args.clone()));
            }
            HistoryEvent::Access {
                batch,
                txn,
                reads,
                writes,
                ..
            } => {
                let slot = accesses.entry((*batch, *txn)).or_default();
                slot.reads.extend(reads.iter().copied());
                slot.writes.extend(writes.iter().copied());
            }
            HistoryEvent::Decided {
                batch, committed, ..
            } => {
                for o in committed {
                    last_commit.insert(o.request, (*batch, o.txn, o.result.clone()));
                }
            }
            _ => {}
        }
    }

    // Group surviving commits per batch.
    let mut by_batch: BTreeMap<u64, Vec<CommitEntry>> = BTreeMap::new();
    for (request, (batch, txn, result)) in last_commit {
        by_batch
            .entry(batch)
            .or_default()
            .push((txn, request, result));
    }

    let mut out = Vec::new();
    for (batch, mut group) in by_batch {
        group.sort_by_key(|(txn, ..)| *txn);
        for (txn, request, result) in order_within_batch(batch, group, &accesses)? {
            let Some((root_request, target, method, args)) = roots.get(&txn) else {
                return err(format!("committed txn {txn} has no recorded root"));
            };
            if *root_request != request {
                return err(format!(
                    "txn {txn} committed for request {request} but rooted at {root_request}"
                ));
            }
            out.push(SerialOp {
                request,
                txn,
                batch,
                target: *target,
                method: method.clone(),
                args: args.clone(),
                result,
            });
        }
    }
    Ok(out)
}

/// Topologically orders one batch's committed transactions: an edge
/// `reader → writer` for every key read by one and written by another
/// forces the reader first (it observed the batch-start value).
fn order_within_batch(
    batch: u64,
    group: Vec<CommitEntry>,
    accesses: &HashMap<(u64, u64), AccessSets>,
) -> Result<Vec<CommitEntry>, CheckError> {
    if group.len() <= 1 {
        return Ok(group);
    }
    let empty = AccessSets::default();
    let sets: Vec<&AccessSets> = group
        .iter()
        .map(|(txn, ..)| accesses.get(&(batch, *txn)).unwrap_or(&empty))
        .collect();
    let n = group.len();
    // succ[i] = transactions that must come after i; indegree counts
    // readers not yet emitted.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            // i read a key j writes (and i itself does not write it — a
            // self write means i's read saw its own buffered value):
            // i must precede j.
            let i_reads_js_write = sets[i]
                .reads
                .iter()
                .any(|k| sets[j].writes.contains(k) && !sets[i].writes.contains(k));
            if i_reads_js_write {
                succ[i].push(j);
                indeg[j] += 1;
            }
        }
    }
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&i) = ready.iter().next() {
        ready.remove(&i);
        order.push(group[i].clone());
        for &j in &succ[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.insert(j);
            }
        }
    }
    if order.len() != n {
        return err(format!(
            "batch {batch}: committed transactions form a read-write cycle \
             (should have been aborted)"
        ));
    }
    Ok(order)
}

/// Verifies StateFun's per-key guarantee from its recorded history: at most
/// one in-flight invocation per entity at a time — a new dispatch for a key
/// requires the previous one to have installed, unless a recovery (which
/// clears in-flight state) intervened.
pub fn check_statefun_history(events: &[HistoryEvent]) -> Result<usize, CheckError> {
    // entity -> (task, seq) of the outstanding dispatch.
    let mut outstanding: HashMap<EntityRef, (usize, u64)> = HashMap::new();
    // task -> active program version (upgrades must strictly increase).
    let mut task_version: HashMap<usize, u64> = HashMap::new();
    let mut installs = 0usize;
    for event in events {
        match event {
            HistoryEvent::SfDispatch {
                task, seq, entity, ..
            } => {
                if let Some((t, s)) = outstanding.insert(*entity, (*task, *seq)) {
                    return err(format!(
                        "entity {entity}: dispatch (task {task}, seq {seq}) while \
                         (task {t}, seq {s}) still in flight — per-key \
                         serialization violated"
                    ));
                }
            }
            HistoryEvent::SfInstall { task, seq, entity } => match outstanding.remove(entity) {
                Some((t, s)) if (t, s) == (*task, *seq) => installs += 1,
                other => {
                    return err(format!(
                        "entity {entity}: install (task {task}, seq {seq}) \
                             does not match outstanding dispatch {other:?}"
                    ));
                }
            },
            HistoryEvent::SfUpgrade { task, version } => {
                // A task switches versions only with its in-flight set
                // drained (the upgrade barrier), and versions only go up.
                if let Some((entity, (t, s))) = outstanding.iter().find(|(_, (t, _))| t == task) {
                    return err(format!(
                        "task {task} upgraded to version {version} while \
                         dispatch (task {t}, seq {s}) for entity {entity} is \
                         still in flight — upgrade barrier violated"
                    ));
                }
                let prev = task_version.insert(*task, *version);
                if let Some(prev) = prev {
                    if *version <= prev {
                        return err(format!(
                            "task {task} upgraded to version {version} after \
                             already running version {prev} — versions must \
                             strictly increase"
                        ));
                    }
                }
            }
            HistoryEvent::SfRecovery { task, .. } => {
                // The restored task lost its in-flight set — and may have
                // rewound past an applied upgrade, which replay legitimately
                // re-applies (same version again), so the strict-increase
                // baseline resets too.
                outstanding.retain(|_, (t, _)| t != task);
                task_version.remove(task);
            }
            _ => {}
        }
    }
    Ok(installs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{BatchKindTag, TxnOutcome};

    fn er(k: &str) -> EntityRef {
        EntityRef::new("Account", k)
    }

    fn outcome(txn: u64, request: u64) -> TxnOutcome {
        TxnOutcome {
            txn,
            request,
            result: Ok(Value::Bool(true)),
        }
    }

    fn root(txn: u64, request: u64, key: &str) -> HistoryEvent {
        HistoryEvent::Root {
            txn,
            request,
            target: er(key),
            method: "m".into(),
            args: vec![],
        }
    }

    fn access(batch: u64, txn: u64, reads: &[&str], writes: &[&str]) -> HistoryEvent {
        HistoryEvent::Access {
            worker: 0,
            batch,
            txn,
            reads: reads.iter().map(|k| er(k)).collect(),
            writes: writes.iter().map(|k| er(k)).collect(),
        }
    }

    #[test]
    fn clean_disjoint_batch_passes() {
        let events = vec![
            root(0, 10, "a"),
            root(1, 11, "b"),
            HistoryEvent::Sealed {
                batch: 0,
                txns: vec![0, 1],
                kind: BatchKindTag::Regular,
            },
            access(0, 0, &["a"], &["a"]),
            access(0, 1, &["b"], &["b"]),
            HistoryEvent::Decided {
                batch: 0,
                kind: BatchKindTag::Regular,
                committed: vec![outcome(0, 10), outcome(1, 11)],
                failed: vec![],
                retried: vec![],
            },
        ];
        let s = check_history(&events, CommitRule::Reordering).unwrap();
        assert_eq!(s.batches, 1);
        assert_eq!(s.commits, 2);
        assert_eq!(s.surviving_commits, 2);
        let order = serial_order(&events).unwrap();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn identical_duplicate_access_record_is_idempotent() {
        // A duplicated delivery re-records the same sets: allowed.
        let events = vec![
            root(0, 10, "a"),
            HistoryEvent::Sealed {
                batch: 0,
                txns: vec![0],
                kind: BatchKindTag::Regular,
            },
            access(0, 0, &["a"], &["a"]),
            access(0, 0, &["a"], &["a"]),
            HistoryEvent::Decided {
                batch: 0,
                kind: BatchKindTag::Regular,
                committed: vec![outcome(0, 10)],
                failed: vec![],
                retried: vec![],
            },
        ];
        let s = check_history(&events, CommitRule::Reordering).unwrap();
        assert_eq!(s.surviving_commits, 1);
    }

    #[test]
    fn divergent_access_re_record_is_flagged() {
        // The same partition reporting two *different* access sets for one
        // (batch, txn) in one lineage is the footprint of a transaction
        // executed twice — exactly what a broken hop dedup would leave.
        let events = vec![
            HistoryEvent::Sealed {
                batch: 0,
                txns: vec![0],
                kind: BatchKindTag::Regular,
            },
            access(0, 0, &["a"], &["a"]),
            access(0, 0, &["a", "b"], &["a"]),
        ];
        let e = check_history(&events, CommitRule::Reordering).unwrap_err();
        assert!(e.message.contains("divergent access set"), "{e}");
    }

    #[test]
    fn access_re_record_across_recovery_is_allowed() {
        // Replay after a recovery legitimately re-executes fenced work; a
        // different access set in the new epoch is not a double execution.
        let events = vec![
            access(0, 0, &["a"], &["a"]),
            HistoryEvent::Recovery {
                gen: 1,
                source_offset: 0,
            },
            access(0, 0, &["a", "b"], &["a"]),
        ];
        check_history(&events, CommitRule::Reordering).unwrap();
    }

    #[test]
    fn unjustified_abort_is_flagged() {
        // Two disjoint transactions, yet txn 1 was aborted: the regressed
        // reservation path (e.g. an errored writer reserving) shows up
        // exactly like this.
        let events = vec![
            HistoryEvent::Sealed {
                batch: 0,
                txns: vec![0, 1],
                kind: BatchKindTag::Regular,
            },
            access(0, 0, &["a"], &["a"]),
            access(0, 1, &["b"], &["b"]),
            HistoryEvent::Decided {
                batch: 0,
                kind: BatchKindTag::Regular,
                committed: vec![outcome(0, 10)],
                failed: vec![],
                retried: vec![1],
            },
            HistoryEvent::Sealed {
                batch: 1,
                txns: vec![1],
                kind: BatchKindTag::Solo,
            },
            HistoryEvent::Decided {
                batch: 1,
                kind: BatchKindTag::Solo,
                committed: vec![outcome(1, 11)],
                failed: vec![],
                retried: vec![],
            },
        ];
        let e = check_history(&events, CommitRule::Reordering).unwrap_err();
        assert!(e.message.contains("aborted without a justifying"), "{e}");
    }

    #[test]
    fn waw_conflict_justifies_abort_and_commit_forbidden() {
        let conflicted = |committed: Vec<TxnOutcome>, retried: Vec<u64>| {
            vec![
                HistoryEvent::Sealed {
                    batch: 0,
                    txns: vec![0, 1],
                    kind: BatchKindTag::Regular,
                },
                access(0, 0, &["x"], &["x"]),
                access(0, 1, &["x"], &["x"]),
                HistoryEvent::Decided {
                    batch: 0,
                    kind: BatchKindTag::Regular,
                    committed,
                    failed: vec![],
                    retried: retried.clone(),
                },
                HistoryEvent::Sealed {
                    batch: 1,
                    txns: retried,
                    kind: BatchKindTag::Solo,
                },
                HistoryEvent::Decided {
                    batch: 1,
                    kind: BatchKindTag::Solo,
                    committed: vec![outcome(1, 11)],
                    failed: vec![],
                    retried: vec![],
                },
            ]
        };
        // Correct: lower id commits, higher id retried (WAW).
        check_history(
            &conflicted(vec![outcome(0, 10)], vec![1]),
            CommitRule::Reordering,
        )
        .unwrap();
        // Wrong: both committed despite the WAW.
        let e = check_history(
            &conflicted(vec![outcome(0, 10), outcome(1, 11)], vec![]),
            CommitRule::Reordering,
        )
        .unwrap_err();
        assert!(e.message.contains("committed despite a conflict"), "{e}");
    }

    #[test]
    fn duplicate_commit_without_recovery_is_flagged() {
        let decided = |batch: u64, txn: u64| HistoryEvent::Decided {
            batch,
            kind: BatchKindTag::Solo,
            committed: vec![outcome(txn, 10)],
            failed: vec![],
            retried: vec![],
        };
        let sealed = |batch: u64, txn: u64| HistoryEvent::Sealed {
            batch,
            txns: vec![txn],
            kind: BatchKindTag::Solo,
        };
        let dup = vec![sealed(0, 0), decided(0, 0), sealed(1, 1), decided(1, 1)];
        let e = check_history(&dup, CommitRule::Reordering).unwrap_err();
        assert!(e.message.contains("committed twice"), "{e}");
        // With a recovery in between, the re-commit is the replay.
        let replayed = vec![
            sealed(0, 0),
            decided(0, 0),
            HistoryEvent::Recovery {
                gen: 1,
                source_offset: 0,
            },
            sealed(1, 1),
            decided(1, 1),
        ];
        let s = check_history(&replayed, CommitRule::Reordering).unwrap();
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.surviving_commits, 1, "one request, one surviving commit");
    }

    #[test]
    fn serial_order_reorders_stale_reader_before_writer() {
        // txn 0 reads+writes x; txn 1 only reads x. Under Reordering both
        // commit, and txn 1 (which read the batch-start value) must replay
        // *before* txn 0 even though its id is higher.
        let events = vec![
            root(0, 10, "x"),
            root(1, 11, "x"),
            HistoryEvent::Sealed {
                batch: 0,
                txns: vec![0, 1],
                kind: BatchKindTag::Regular,
            },
            access(0, 0, &["x"], &["x"]),
            access(0, 1, &["x"], &[]),
            HistoryEvent::Decided {
                batch: 0,
                kind: BatchKindTag::Regular,
                committed: vec![outcome(0, 10), outcome(1, 11)],
                failed: vec![],
                retried: vec![],
            },
        ];
        check_history(&events, CommitRule::Reordering).unwrap();
        let order = serial_order(&events).unwrap();
        assert_eq!(
            order.iter().map(|o| o.txn).collect::<Vec<_>>(),
            vec![1, 0],
            "the stale reader serializes before the writer"
        );
    }

    #[test]
    fn last_commit_per_request_survives_recovery() {
        let events = vec![
            root(0, 10, "a"),
            HistoryEvent::Sealed {
                batch: 0,
                txns: vec![0],
                kind: BatchKindTag::Solo,
            },
            HistoryEvent::Decided {
                batch: 0,
                kind: BatchKindTag::Solo,
                committed: vec![outcome(0, 10)],
                failed: vec![],
                retried: vec![],
            },
            HistoryEvent::Recovery {
                gen: 1,
                source_offset: 0,
            },
            // Replay re-roots the same request under a fresh txn id.
            root(5, 10, "a"),
            HistoryEvent::Sealed {
                batch: 1,
                txns: vec![5],
                kind: BatchKindTag::Solo,
            },
            HistoryEvent::Decided {
                batch: 1,
                kind: BatchKindTag::Solo,
                committed: vec![outcome(5, 10)],
                failed: vec![],
                retried: vec![],
            },
        ];
        let order = serial_order(&events).unwrap();
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].txn, 5, "the replayed commit survives");
    }

    #[test]
    fn statefun_per_key_serialization_checked() {
        let d = |task: usize, seq: u64, key: &str| HistoryEvent::SfDispatch {
            task,
            seq,
            entity: er(key),
            method: "m".into(),
        };
        let i = |task: usize, seq: u64, key: &str| HistoryEvent::SfInstall {
            task,
            seq,
            entity: er(key),
        };
        // Serial per key (interleaved across keys is fine).
        let ok = vec![d(0, 0, "a"), d(1, 0, "b"), i(0, 0, "a"), i(1, 0, "b")];
        assert_eq!(check_statefun_history(&ok).unwrap(), 2);
        // Two concurrent dispatches for one key.
        let bad = vec![d(0, 0, "a"), d(0, 1, "a")];
        assert!(check_statefun_history(&bad)
            .unwrap_err()
            .message
            .contains("per-key"));
        // A recovery clears the task's in-flight set.
        let recovered = vec![
            d(0, 0, "a"),
            HistoryEvent::SfRecovery { task: 0, gen: 1 },
            d(0, 1, "a"),
            i(0, 1, "a"),
        ];
        assert_eq!(check_statefun_history(&recovered).unwrap(), 1);
    }
}
