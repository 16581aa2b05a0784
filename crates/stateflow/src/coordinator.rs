//! The StateFlow coordinator: batch sealing, the reserve/commit barrier, and
//! the quiesce round behind snapshots, live upgrades and recovery.
//!
//! "StateFlow requires a single core coordinator, and the rest are used for
//! its workers" (§4). The coordinator sequences transactions (assigning
//! globally ordered ids), drives batches through Aria's three phases and
//! answers clients. Everything that touches state *outside* a transaction
//! happens at a consistent cut, through one primitive:
//!
//! **The round.** Sealing stops, the pipeline drains (`drained`), one
//! control message goes to every worker (`open_round`), each worker owes
//! one ack (`handle` fences stale generations, `on_round_ack` strikes the
//! worker off a set), and the last ack runs the round's completion
//! (`complete_round`) and resumes sealing (`Mode` is `Running` or
//! `Round`). Each feature is one `RoundKind`:
//!
//! * `Cut` — a consistent snapshot: (state, source offset) at a new epoch.
//!   Completion counts it and raises the cluster durable floor.
//! * `Migrate` — a live upgrade's per-entity migration pass. Always chained
//!   from a `Cut { upgrade: true }` (the pre-upgrade epoch boundary), so
//!   sealing never resumes in between; completion commits the upgrade and
//!   only then are new roots stamped with the new version.
//! * `Restore` — recovery. A worker failure may land anywhere, including
//!   inside another round, so opening it does not wait for a drain: it
//!   fences with a fresh generation and *drops* the scheduling state and
//!   whatever round was open. Completion re-opens it at the minimum epoch
//!   the workers actually reached, if a damaged disk fell short.
//!
//! Batches are pipelined: up to `pipeline_depth` batches are in flight at
//! once, and batch *N+1* is sealed and dispatched as soon as batch *N*
//! enters its reservation round — Aria's overlap of batch *i+1*'s execution
//! with batch *i*'s commit round — instead of waiting for *N*'s commit
//! broadcast. Ordering correctness lives at the workers (committed-batch
//! watermarks); the coordinator only bounds the window and keeps commit
//! decisions flowing in batch order. Single-transaction serial-fallback
//! batches are *solo* batches that commit at their final hop without a
//! coordinator round trip, which is what lets hot-key retry storms drain at
//! execution speed instead of one network round trip per transaction. At
//! `pipeline_depth = 1` the window degenerates to "seal only when idle".
//!
//! Chaos hardening: data-plane messages (`Exec`/`Reserve`/`Commit` out,
//! `ExecDone`/`Flags`/`CommitAck` in) may be duplicated, delayed or
//! quarantined by a scripted [`ChaosPlan`], so every per-message state
//! transition here is idempotent — flag reports are deduplicated per
//! worker, commit acks are tracked as per-batch worker sets, and stale
//! completions are dropped. Control-plane traffic (the round's messages
//! and acks, failure notifications) bypasses injection: it models the
//! failure detector and alignment protocol the engine assumes reliable.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use se_aria::{BatchId, CommitRule, TxnId};
use se_chaos::{BatchKindTag, HistoryEvent, Seam, TxnOutcome};
use se_dataflow::{
    send_with_chaos, DelayReceiver, DelaySender, Epoch, ResponseCompleter, SnapshotStore,
    SourceReader, StateStore,
};
use se_ir::{partition_for, Invocation, InvocationKind, RequestId, Response, INITIAL_VERSION};
use se_lang::Value;

use crate::config::{BugLever, StateflowConfig};
use crate::msg::{ClientOp, ClientRequest, ConflictFlags, CoordMsg, WorkerMsg};

/// Shared counters exposed to tests and benchmarks — registry-backed
/// `se-obs` handles published under `coord.*`, so the engine's decision
/// counts and the observability snapshot come from one source (they used to
/// be a private `AtomicU64` struct the exporters could not see).
///
/// Totals are *derived*, never double-tracked: there is deliberately no
/// separate "finished transactions" counter — use
/// [`CoordStats::finished_txns`], which is `commits + failed` by
/// construction and therefore cannot drift from its parts.
#[derive(Debug, Clone)]
pub struct CoordStats {
    /// Batches decided (committed or solo-finalized).
    pub batches: se_obs::Counter,
    /// Transactions committed successfully.
    pub commits: se_obs::Counter,
    /// Transactions that finished with an application/runtime error: the
    /// error is the client's answer, nothing commits, nothing retries.
    /// Counted apart from `commits` so benchmark throughput is not inflated
    /// by failures.
    pub failed: se_obs::Counter,
    /// Transaction executions that aborted (and were retried).
    pub aborts: se_obs::Counter,
    /// Snapshots completed.
    pub snapshots: se_obs::Counter,
    /// Recoveries performed.
    pub recoveries: se_obs::Counter,
}

impl CoordStats {
    /// Registers the counters in `obs`'s metrics registry (idempotent: two
    /// handles from the same registry share the same underlying counters).
    pub fn register(obs: &se_obs::Obs) -> CoordStats {
        CoordStats {
            batches: obs.counter("coord.batches"),
            commits: obs.counter("coord.commits"),
            failed: obs.counter("coord.failed"),
            aborts: obs.counter("coord.aborts"),
            snapshots: obs.counter("coord.snapshots"),
            recoveries: obs.counter("coord.recoveries"),
        }
    }

    /// Transactions that reached a final answer (committed or failed).
    /// Derived from one source so it cannot disagree with its addends.
    pub fn finished_txns(&self) -> u64 {
        self.commits.get() + self.failed.get()
    }
}

impl Default for CoordStats {
    /// Detached counters (not visible in any dump) — registry-backed via
    /// [`CoordStats::register`] in the runtime path.
    fn default() -> Self {
        CoordStats::register(&se_obs::Obs::noop())
    }
}

/// Progress of one in-flight batch.
enum BatchStage {
    /// Waiting for every transaction's `ExecDone`.
    Executing,
    /// Reservation round in flight: waiting for every worker's flags.
    Deciding {
        flags: HashMap<TxnId, ConflictFlags>,
        /// Workers whose flags arrived — a set, not a counter, so a
        /// duplicated `Flags` delivery cannot trigger a premature decision
        /// with a partition's conflicts missing.
        reported: BTreeSet<usize>,
    },
}

/// Coordinator-side bookkeeping for one sealed, not-yet-finished batch.
struct InFlightBatch {
    /// The batch's transaction ids, ascending.
    txns: Arc<Vec<TxnId>>,
    responses: HashMap<TxnId, Response>,
    /// Transactions whose chain errored (abort without retry).
    errors: BTreeSet<TxnId>,
    /// Regular (executes, reserves, decides) or solo: a single-transaction
    /// serial-fallback batch skips reservation — a lone transaction cannot
    /// lose a conflict — so its final-hop worker decides and commits it
    /// locally and the coordinator merely records the outcome.
    kind: BatchKindTag,
    stage: BatchStage,
    /// Obs timestamps (0 with observability off): when the batch was sealed
    /// and when its last `ExecDone` arrived — the `batch_exec` /
    /// `batch_decide` span boundaries.
    sealed_ns: u64,
    exec_done_ns: u64,
}

impl InFlightBatch {
    /// Whether this batch blocks sealing the next one: regular batches
    /// must enter their reservation round first; solo batches never block —
    /// they are decided at their final hop, and overlapping them is the
    /// whole point.
    fn blocks_sealing(&self) -> bool {
        matches!(self.stage, BatchStage::Executing) && self.kind != BatchKindTag::Solo
    }
}

/// A live upgrade the coordinator has consumed from the source but not yet
/// committed. Queued FIFO; at most the front entry is ever in progress.
struct PendingUpgrade {
    /// The version to activate.
    version: u64,
    /// Client waiter to complete at commit (`None` for an upgrade re-armed
    /// by recovery — its waiter was answered in the previous lineage).
    request: Option<RequestId>,
    /// Source offset of the `Redeploy` record itself. Recovery uses it to
    /// decide whether the record replays from the source (offset at or
    /// past the restored cut) or must be re-armed manually.
    offset: u64,
}

/// A committed live upgrade, kept for recovery bookkeeping.
struct CommittedUpgrade {
    /// The pre-upgrade epoch cut (migration writes land *after* it).
    epoch: Epoch,
    /// The activated version.
    version: u64,
    /// Source offset of the `Redeploy` record.
    offset: u64,
}

/// What a round tells every worker and what its last ack does — the three
/// features built on the one quiesce round (see the module doc).
#[derive(Debug, Clone, Copy)]
enum RoundKind {
    /// Epoch cut (`Snapshot` out, `SnapshotAck` back): a consistent
    /// snapshot. With `upgrade` it is a live upgrade's epoch boundary: on
    /// completion the coordinator chains into `Migrate` instead of
    /// resuming sealing.
    Cut { epoch: Epoch, upgrade: bool },
    /// Live-upgrade migration pass (`Migrate` out, `MigrateAck` back):
    /// new roots are stamped with `version` only after the last ack.
    Migrate { version: u64, epoch: Epoch },
    /// Recovery (`Restore` out, `RestoreAck` back), fenced by the fresh
    /// generation the round was opened under.
    Restore {
        /// The epoch this round asked every worker to restore to.
        target: Option<Epoch>,
        /// Minimum epoch actually reached so far (`None` = initial state).
        /// Volatile workers always reach `target`; durable workers
        /// recovering from damaged disks may fall short, and when the
        /// round ends below its target the coordinator runs another round
        /// at this floor so every partition rejoins at the same cut.
        floor: Option<Epoch>,
    },
}

/// One open quiesce round: what it is for, and who still owes an ack.
struct Round {
    kind: RoundKind,
    /// Workers whose ack is outstanding — a set, not a counter, by the
    /// same duplicate-proofing rule as `pending_acks`.
    waiting: BTreeSet<usize>,
}

impl Round {
    /// Strikes `worker` off if `accept` recognizes the ack as this round's
    /// (folding the ack's payload into the kind); true on the last ack.
    fn ack(&mut self, worker: usize, accept: impl FnOnce(&mut RoundKind) -> bool) -> bool {
        accept(&mut self.kind) && {
            self.waiting.remove(&worker);
            self.waiting.is_empty()
        }
    }
}

/// Exclusive coordinator modes. Batches are only sealed while `Running`; a
/// round opens on a fully drained pipeline and holds sealing until every
/// worker acknowledged.
enum Mode {
    Running,
    Round(Round),
}

/// The coordinator thread.
pub struct Coordinator {
    cfg: StateflowConfig,
    workers: Vec<DelaySender<WorkerMsg>>,
    inbox: DelayReceiver<CoordMsg>,
    reader: SourceReader<ClientRequest>,
    waiters: Arc<Mutex<HashMap<RequestId, ResponseCompleter>>>,
    snapshots: Arc<SnapshotStore<StateStore>>,
    stats: Arc<CoordStats>,
    obs: se_obs::Obs,
    shutdown: Arc<AtomicBool>,

    gen: u64,
    next_txn: TxnId,
    /// Pending transaction ids, ascending (retries re-enter at the front).
    queue: VecDeque<TxnId>,
    /// Aborted transactions awaiting the serial fallback (single-txn
    /// batches run before anything else).
    fallback_queue: VecDeque<TxnId>,
    /// Root invocation per pending or in-flight transaction.
    roots: HashMap<TxnId, Invocation>,
    batch_deadline: Option<Instant>,
    next_batch: BatchId,
    batches_since_snapshot: u64,
    epoch: Epoch,
    mode: Mode,
    /// Sealed batches that have not finished their commit round, at most
    /// `pipeline_depth` of them, keyed by batch id.
    in_flight: BTreeMap<BatchId, InFlightBatch>,
    /// Workers whose commit ack for a batch is still outstanding. Tracked
    /// as sets (not a counter) so duplicated acks cannot unlock a snapshot
    /// early; they only gate snapshots.
    pending_acks: BTreeMap<BatchId, BTreeSet<usize>>,
    /// Commit acks that arrived before their batch was finalized: a solo
    /// batch's deciding worker acks right after its `ExecDone`, and a
    /// chaos-delayed `ExecDone` can lose the race. Held only for batches
    /// still in flight, drained when the batch finalizes.
    early_acks: BTreeMap<BatchId, BTreeSet<usize>>,
    /// Per-worker newest durable-on-disk epoch, from snapshot acks. Only
    /// populated with durability on.
    durable_epochs: BTreeMap<usize, Option<Epoch>>,
    /// Cluster durable floor (min over `durable_epochs` at the last
    /// completed snapshot round): pins the in-memory snapshot store's
    /// retention (a recovery may fall back here and needs this epoch's
    /// source offset) and licenses workers to compact their WALs below it.
    /// Non-decreasing — see the pin-floor invariant in `se_dataflow`.
    durable_floor: Option<Epoch>,
    /// Obs: when the current pending-batch queue started filling (the
    /// `batch_seal` span start). `None` while the queue is empty or off.
    queue_since_ns: Option<u64>,
    /// Obs: decision timestamp per batch whose commit acks are still
    /// outstanding (the `batch_commit` span start). Only populated while
    /// tracing/metrics are on.
    commit_started_ns: BTreeMap<BatchId, u64>,
    /// Program version new roots are stamped with at seal time.
    active_version: u64,
    /// Consumed-but-uncommitted upgrades, FIFO. While non-empty the
    /// coordinator stops consuming the source: requests appended after a
    /// `Redeploy` record must run on the new version.
    pending_upgrades: VecDeque<PendingUpgrade>,
    /// Committed upgrades of this run, ascending by version; recovery
    /// rewinds this list against the restored cut.
    upgrades: Vec<CommittedUpgrade>,
    /// True once any `Redeploy` was consumed. Gates the `BatchVersion`
    /// history events so upgrade-free histories stay byte-identical to
    /// builds without the upgrade layer.
    versioned: bool,
    /// Side state of the [`BugLever::TornUpgrade`] bug lever: a `Migrate`
    /// round left open *beside* `Mode::Running`, with the upgrade it
    /// serves — acks are still collected while the coordinator (the bug)
    /// already resumed sealing.
    torn: Option<(Round, PendingUpgrade)>,
}

impl Coordinator {
    /// Creates the coordinator (run on its own thread).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: StateflowConfig,
        workers: Vec<DelaySender<WorkerMsg>>,
        inbox: DelayReceiver<CoordMsg>,
        reader: SourceReader<ClientRequest>,
        waiters: Arc<Mutex<HashMap<RequestId, ResponseCompleter>>>,
        snapshots: Arc<SnapshotStore<StateStore>>,
        stats: Arc<CoordStats>,
        obs: se_obs::Obs,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        // The source is the one thing the coordinator watches that is not
        // a message: have its appends (and its close) end the inbox wait.
        reader.wake_on_append(inbox.waker());
        Self {
            cfg,
            workers,
            inbox,
            reader,
            waiters,
            snapshots,
            stats,
            obs,
            shutdown,
            gen: 0,
            next_txn: 0,
            queue: VecDeque::new(),
            fallback_queue: VecDeque::new(),
            roots: HashMap::new(),
            batch_deadline: None,
            next_batch: 0,
            batches_since_snapshot: 0,
            epoch: 0,
            mode: Mode::Running,
            in_flight: BTreeMap::new(),
            pending_acks: BTreeMap::new(),
            early_acks: BTreeMap::new(),
            durable_epochs: BTreeMap::new(),
            durable_floor: None,
            queue_since_ns: None,
            commit_started_ns: BTreeMap::new(),
            active_version: INITIAL_VERSION,
            pending_upgrades: VecDeque::new(),
            upgrades: Vec::new(),
            versioned: false,
            torn: None,
        }
    }

    fn owner_of(&self, key: &str) -> usize {
        partition_for(key, self.workers.len())
    }

    fn control_delay(&self) -> Duration {
        // Flat delay for control-plane messages keeps per-worker channels
        // FIFO (creates must not be overtaken by snapshot markers).
        self.cfg.net.f2f_latency(64)
    }

    /// Control-plane broadcast: never faulted.
    fn broadcast(&self, mk: impl Fn() -> WorkerMsg) {
        for w in &self.workers {
            w.send_after(mk(), self.control_delay());
        }
    }

    /// Data-plane broadcast (`Reserve`/`Commit`): runs through the chaos
    /// seam, so scripted faults can drop, duplicate or delay per worker.
    fn broadcast_chaos(&self, mk: impl Fn() -> WorkerMsg) {
        for w in &self.workers {
            send_with_chaos(
                &self.cfg.chaos,
                Seam::CoordToWorker,
                &self.cfg.net,
                w,
                mk(),
                self.control_delay(),
            );
        }
    }

    /// Arms the per-worker commit-ack set for a finalized batch, crediting
    /// any acks that raced ahead of the finalization.
    fn arm_pending_acks(&mut self, batch_id: BatchId) {
        let mut pending: BTreeSet<usize> = (0..self.workers.len()).collect();
        if let Some(early) = self.early_acks.remove(&batch_id) {
            for w in early {
                pending.remove(&w);
            }
        }
        if !pending.is_empty() {
            self.pending_acks.insert(batch_id, pending);
        }
    }

    /// Obs: opens (or immediately closes) the `batch_commit` span for a
    /// just-decided batch. The span runs decision → last commit ack; if all
    /// acks raced ahead of the decision it closes as a point.
    fn track_commit_span(&mut self, batch_id: BatchId, decided_ns: u64) {
        if !self.obs.enabled() {
            return;
        }
        if self.pending_acks.contains_key(&batch_id) {
            self.commit_started_ns.insert(batch_id, decided_ns);
        } else {
            self.obs.stage_span(
                se_obs::Stage::BatchCommit,
                batch_id,
                decided_ns,
                self.obs.now_ns(),
            );
        }
    }

    /// Appends to the recorded history, if recording is on. The closure
    /// keeps event construction off the hot path when it is not.
    fn record(&self, mk: impl FnOnce() -> HistoryEvent) {
        if let Some(h) = &self.cfg.history {
            h.record(mk());
        }
    }

    /// The coordinator loop: event-driven, one turn per event.
    ///
    /// A turn consumes what the source holds, seals what the window and the
    /// batch timer allow, and handles every message already due. Only a
    /// turn that found no message blocks, on the inbox, until one of
    /// exactly three things: a **message** comes due (worker traffic, and
    /// every simulated hop delay or chaos quarantine — those are due times
    /// in the inbox's delay heap), a **wake** (the source fires the inbox's
    /// waker on every append and on close, which is also how shutdown gets
    /// in), or **`batch_deadline`**, the only timer the coordinator owns —
    /// and it counts only while the window is open, since a batch the
    /// pipeline cannot take is unblocked by a message, not by time.
    ///
    /// The park is keyed on "no wake since the last turn" (the waker's
    /// token), never on "the source has unread records": records are left
    /// unread on purpose behind a pending `Redeploy` and during a `Restore`
    /// round. An append there costs one empty turn and the coordinator
    /// parks again; whatever ends the round is a message, and the turn it
    /// starts drains the source. A busy coordinator never sleeps, an idle
    /// one never wakes.
    pub fn run(mut self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.broadcast(|| WorkerMsg::Shutdown);
                return;
            }
            self.drain_source();
            self.cut_epoch(true);
            self.maybe_seal_batches();
            // Drain every due message before blocking: decide rounds for
            // batch N+1 must not queue behind the apply traffic of batch N
            // when many completions land at once. Bounded per turn —
            // try_recv only yields messages already due.
            let mut handled = false;
            while let Some(msg) = self.inbox.try_recv() {
                self.handle(msg);
                handled = true;
            }
            if !handled {
                let deadline = self.batch_deadline.filter(|_| self.window_open());
                if let Some(msg) = self.inbox.recv_until(deadline) {
                    self.handle(msg);
                }
            }
        }
    }

    fn drain_source(&mut self) {
        // Requests are not consumed while restoring: the generation fence
        // must be in place first.
        if matches!(&self.mode, Mode::Round(r) if matches!(r.kind, RoundKind::Restore { .. })) {
            return;
        }
        loop {
            // Consumption pauses at a `Redeploy` record: everything
            // appended after it must run on the new version, so it waits
            // behind the upgrade's epoch boundary.
            if !self.pending_upgrades.is_empty() {
                return;
            }
            let Some(req) = self.reader.poll() else {
                return;
            };
            match req.op {
                ClientOp::Create { class, key, init } => {
                    let owner = self.owner_of(&key);
                    self.workers[owner].send_after(
                        WorkerMsg::Create {
                            gen: self.gen,
                            request: req.request,
                            class,
                            key,
                            init,
                        },
                        self.control_delay(),
                    );
                }
                ClientOp::Invoke(inv) => {
                    let txn = self.next_txn;
                    self.next_txn += 1;
                    self.record(|| HistoryEvent::Root {
                        txn,
                        request: inv.request.0,
                        target: inv.target,
                        method: inv.method.to_string(),
                        args: match &inv.kind {
                            InvocationKind::Start { args } => args.clone(),
                            InvocationKind::Resume { .. } => Vec::new(),
                        },
                    });
                    self.roots.insert(txn, inv);
                    self.queue.push_back(txn);
                    if self.batch_deadline.is_none() {
                        self.batch_deadline = Some(Instant::now() + self.cfg.batch_interval);
                    }
                    if self.obs.enabled() && self.queue_since_ns.is_none() {
                        self.queue_since_ns = Some(self.obs.now_ns());
                    }
                }
                ClientOp::Redeploy { version } => {
                    self.versioned = true;
                    // `poll` already advanced the cursor past this record.
                    let offset = self.reader.offset().saturating_sub(1);
                    self.pending_upgrades.push_back(PendingUpgrade {
                        version,
                        request: Some(req.request),
                        offset,
                    });
                }
            }
        }
    }

    /// Whether the pipeline has fully drained: no in-flight batch, no
    /// pending work, and every commit acknowledged — every consumed request
    /// is then reflected in worker state, so (state, source offset) is a
    /// consistent cut. Every `Cut` round opens on this condition (a
    /// `Restore` round forces it by dropping the scheduling state).
    fn drained(&self) -> bool {
        self.in_flight.is_empty()
            && self.queue.is_empty()
            && self.fallback_queue.is_empty()
            && self.pending_acks.is_empty()
    }

    /// Cuts an epoch — opens a `Cut` round — once one is wanted and the
    /// pipeline has drained. With `upgrade` the cut is the front pending
    /// upgrade's epoch boundary (wanted as soon as an upgrade is queued);
    /// otherwise it is the periodic snapshot (wanted every
    /// `snapshot_every_batches` batches).
    fn cut_epoch(&mut self, upgrade: bool) {
        let wanted = if upgrade {
            !self.pending_upgrades.is_empty()
        } else {
            self.cfg.snapshot_every_batches > 0
                && self.batches_since_snapshot >= self.cfg.snapshot_every_batches
        };
        if !wanted || !matches!(self.mode, Mode::Running) || !self.drained() {
            return;
        }
        self.epoch += 1;
        self.open_round(RoundKind::Cut {
            epoch: self.epoch,
            upgrade,
        });
    }

    /// Opens a round: the per-kind broadcast, after which every worker
    /// owes one ack and sealing holds until the last one. Opening replaces
    /// whatever round was open — only a `Restore` ever opens over another
    /// round (a crash landed inside it), and recovery supersedes it.
    fn open_round(&mut self, kind: RoundKind) {
        let gen = self.gen;
        match kind {
            RoundKind::Cut { epoch, .. } => {
                self.snapshots.begin_epoch(epoch, self.workers.len());
                self.snapshots
                    .put_source_offset(epoch, "requests", self.reader.offset());
                let durable_floor = self.durable_floor;
                self.broadcast(|| WorkerMsg::Snapshot {
                    gen,
                    epoch,
                    durable_floor,
                });
            }
            RoundKind::Migrate { version, epoch } => {
                self.record(|| HistoryEvent::UpgradeStarted { version, epoch });
                self.broadcast(|| WorkerMsg::Migrate {
                    gen,
                    version,
                    epoch,
                });
            }
            RoundKind::Restore { target, .. } => {
                // Batch numbering continues past the fenced-off window; the
                // workers re-arm their watermarks at `next_batch` so
                // replayed batches run without waiting for commits that
                // died with the old generation.
                let next_batch = self.next_batch;
                self.broadcast(|| WorkerMsg::Restore {
                    gen,
                    epoch: target,
                    next_batch,
                });
            }
        }
        let round = Round {
            kind,
            waiting: (0..self.workers.len()).collect(),
        };
        match kind {
            RoundKind::Migrate { version, .. } if self.cfg.bug == Some(BugLever::TornUpgrade) => {
                // The torn-upgrade bug lever: flip the version and leave
                // the round open beside `Running`, so sealing resumes while
                // the migration races — the atomicity violation the chaos
                // checker must catch.
                let p = self.pending_upgrades.pop_front().expect("front checked");
                self.active_version = version;
                self.torn = Some((round, p));
            }
            _ => self.mode = Mode::Round(round),
        }
    }

    /// The one ack handler of every round kind (stale generations are
    /// already fenced, see [`Coordinator::handle`]): `accept` matches the
    /// ack against the open round, and the last ack closes the round and
    /// runs its completion.
    fn on_round_ack(&mut self, worker: usize, accept: impl Fn(&mut RoundKind) -> bool) {
        if let Mode::Round(round) = &mut self.mode {
            if round.ack(worker, &accept) {
                let kind = round.kind;
                self.mode = Mode::Running;
                self.complete_round(kind);
            }
        }
        if let Some((round, _)) = &mut self.torn {
            // Torn-upgrade bug lever: acks are still collected so the
            // upgrade eventually "commits" — after the damage. Its upgrade
            // goes back to the front of the queue it was popped from.
            if round.ack(worker, &accept) {
                let (round, p) = self.torn.take().expect("checked above");
                self.pending_upgrades.push_front(p);
                self.complete_round(round.kind);
            }
        }
    }

    /// A round's last ack arrived and the mode is back to `Running`: the
    /// per-kind completion.
    fn complete_round(&mut self, kind: RoundKind) {
        match kind {
            RoundKind::Cut { epoch, upgrade } => {
                self.stats.snapshots.inc();
                self.batches_since_snapshot = 0;
                // Old epochs are pruned by the snapshot store's own
                // retention policy (`DEFAULT_SNAPSHOT_RETENTION`).
                self.update_durable_floor();
                if let (true, Some(p)) = (upgrade, self.pending_upgrades.front()) {
                    let version = p.version;
                    self.open_round(RoundKind::Migrate { version, epoch });
                }
            }
            RoundKind::Migrate { version, epoch } => {
                // Every worker acknowledged its migration pass: the upgrade
                // commits, and new roots stamp the new version from here on.
                let p = self.pending_upgrades.pop_front();
                let p = p.expect("a Migrate round serves the front upgrade");
                self.active_version = version;
                self.obs.gauge("deploy.active_version").set(version as i64);
                self.upgrades.push(CommittedUpgrade {
                    epoch,
                    version,
                    offset: p.offset,
                });
                self.record(|| HistoryEvent::UpgradeCommitted { version, epoch });
                if let Some(completer) = p.request.and_then(|r| self.waiters.lock().remove(&r)) {
                    completer.complete(Ok(Value::Unit));
                }
            }
            RoundKind::Restore { target, floor } => {
                if floor != target {
                    // Some partition's disk fell short of the target:
                    // rejoin everyone at the cluster minimum. Workers that
                    // already restored higher truncate down — their
                    // re-executed suffix replays from the source.
                    self.restore_to(floor);
                }
            }
        }
    }

    /// Seals as many batches as the pipeline window allows. A new batch may
    /// start once every in-flight regular batch has entered its reservation
    /// round and fewer than `pipeline_depth` batches are in flight.
    fn maybe_seal_batches(&mut self) {
        while self.window_open() && self.seal_next_batch() {}
    }

    /// Whether the pipeline would take a batch now: no round holds sealing,
    /// a slot is free, and every in-flight regular batch has entered its
    /// reservation round. While it is closed only a message can open it.
    fn window_open(&self) -> bool {
        matches!(self.mode, Mode::Running)
            && self.in_flight.len() < self.cfg.pipeline_depth
            && self.in_flight.values().all(|b| !b.blocks_sealing())
    }

    /// Seals and dispatches one batch if one is ready; returns whether it
    /// did. Serial-fallback transactions run first, as single-transaction
    /// batches (which can never lose a conflict).
    fn seal_next_batch(&mut self) -> bool {
        let (txns, kind): (Vec<TxnId>, BatchKindTag) =
            if let Some(txn) = self.fallback_queue.pop_front() {
                (vec![txn], BatchKindTag::Solo)
            } else {
                if self.queue.is_empty() {
                    return false;
                }
                let full = self.queue.len() >= self.cfg.max_batch;
                let due = self.batch_deadline.is_some_and(|d| Instant::now() >= d);
                if !full && !due {
                    return false;
                }
                let take = self.queue.len().min(self.cfg.max_batch);
                (self.queue.drain(..take).collect(), BatchKindTag::Regular)
            };
        debug_assert!(
            txns.windows(2).all(|w| w[0] < w[1]),
            "queue must stay ascending"
        );
        let batch = self.next_batch;
        self.next_batch += 1;
        self.record(|| HistoryEvent::Sealed {
            batch,
            txns: txns.clone(),
            kind,
        });
        if self.versioned {
            let version = self.active_version;
            self.record(|| HistoryEvent::BatchVersion { batch, version });
        }
        let solo = kind == BatchKindTag::Solo;
        for txn in &txns {
            // Roots are stamped with the active version at *seal* time:
            // continuations inherit it hop by hop, so an in-flight chain
            // stays on its original version until it drains.
            let inv = self.roots[txn].clone().at_version(self.active_version);
            let owner = self.owner_of(inv.target.key.as_str());
            let bytes = inv.approx_size();
            send_with_chaos(
                &self.cfg.chaos,
                Seam::CoordToWorker,
                &self.cfg.net,
                &self.workers[owner],
                WorkerMsg::Exec {
                    gen: self.gen,
                    batch,
                    txn: *txn,
                    hop: 0,
                    inv,
                    solo,
                },
                self.cfg.net.f2f_latency(bytes),
            );
        }
        self.batch_deadline =
            (!self.queue.is_empty()).then(|| Instant::now() + self.cfg.batch_interval);
        let mut sealed_ns = 0;
        if self.obs.enabled() {
            sealed_ns = self.obs.now_ns();
            // Seal span: queue started filling → dispatched. Fallback
            // batches skip the accumulation queue; their seal is a point.
            let opened = match kind {
                BatchKindTag::Regular => self.queue_since_ns.take().unwrap_or(sealed_ns),
                BatchKindTag::Solo => sealed_ns,
            };
            self.obs
                .stage_span(se_obs::Stage::BatchSeal, batch, opened, sealed_ns);
            if matches!(kind, BatchKindTag::Regular) && !self.queue.is_empty() {
                // The queue keeps filling toward the next batch.
                self.queue_since_ns = Some(sealed_ns);
            }
        }
        self.in_flight.insert(
            batch,
            InFlightBatch {
                txns: Arc::new(txns),
                responses: HashMap::new(),
                errors: BTreeSet::new(),
                kind,
                stage: BatchStage::Executing,
                sealed_ns,
                exec_done_ns: 0,
            },
        );
        true
    }

    fn handle(&mut self, msg: CoordMsg) {
        // The generation fence: anything a worker sent before the last
        // restore round opened is stale — except a failure notification,
        // which always starts a recovery.
        let gen = match &msg {
            CoordMsg::WorkerFailed { .. } => self.gen,
            CoordMsg::RestoreAck { gen, .. }
            | CoordMsg::CreateDone { gen, .. }
            | CoordMsg::ExecDone { gen, .. }
            | CoordMsg::Flags { gen, .. }
            | CoordMsg::CommitAck { gen, .. }
            | CoordMsg::SnapshotAck { gen, .. }
            | CoordMsg::MigrateAck { gen, .. } => *gen,
        };
        if gen != self.gen {
            return;
        }
        match msg {
            CoordMsg::WorkerFailed { .. } => self.restore_to(self.snapshots.latest_complete()),
            CoordMsg::RestoreAck {
                worker, reached, ..
            } => self.on_round_ack(worker, |kind| match kind {
                RoundKind::Restore { floor, .. } => {
                    // `None` ("initial state") orders below every epoch.
                    *floor = (*floor).min(reached);
                    true
                }
                _ => false,
            }),
            CoordMsg::CreateDone {
                request, result, ..
            } => {
                if let Some(completer) = self.waiters.lock().remove(&request) {
                    completer.complete(result.map(|()| Value::Unit));
                }
            }
            CoordMsg::ExecDone {
                batch,
                txn,
                response,
                ..
            } => self.on_exec_done(batch, txn, response),
            CoordMsg::Flags {
                batch,
                worker,
                flags,
                ..
            } => self.on_flags(batch, worker, flags),
            CoordMsg::CommitAck { batch, worker, .. } => {
                // Set-removal is naturally idempotent under duplicated
                // acks; an ack for a batch that is neither pending nor in
                // flight is stale and ignored.
                if let Some(pending) = self.pending_acks.get_mut(&batch) {
                    pending.remove(&worker);
                    if pending.is_empty() {
                        self.pending_acks.remove(&batch);
                        if let Some(start) = self.commit_started_ns.remove(&batch) {
                            self.obs.stage_span(
                                se_obs::Stage::BatchCommit,
                                batch,
                                start,
                                self.obs.now_ns(),
                            );
                        }
                    }
                } else if self.in_flight.contains_key(&batch) {
                    // Raced ahead of the batch's ExecDone (solo batches
                    // ack immediately): credit it when the batch finalizes.
                    self.early_acks.entry(batch).or_default().insert(worker);
                }
                self.cut_epoch(false);
            }
            CoordMsg::SnapshotAck {
                epoch,
                worker,
                durable,
                ..
            } => {
                self.durable_epochs.insert(worker, durable);
                self.on_round_ack(
                    worker,
                    |kind| matches!(kind, RoundKind::Cut { epoch: e, .. } if *e == epoch),
                );
            }
            CoordMsg::MigrateAck {
                version, worker, ..
            } => self.on_round_ack(
                worker,
                |kind| matches!(kind, RoundKind::Migrate { version: v, .. } if *v == version),
            ),
        }
    }

    fn on_exec_done(&mut self, batch_id: BatchId, txn: TxnId, response: Response) {
        let Some(batch) = self.in_flight.get_mut(&batch_id) else {
            return;
        };
        if !matches!(batch.stage, BatchStage::Executing) {
            return;
        }
        // Batches are ascending by construction: O(log n) membership, not a
        // linear scan per completion.
        if batch.txns.binary_search(&txn).is_err() || batch.responses.contains_key(&txn) {
            return;
        }
        if response.result.is_err() {
            batch.errors.insert(txn);
        }
        batch.responses.insert(txn, response);
        if batch.responses.len() < batch.txns.len() {
            return;
        }
        batch.exec_done_ns = self.obs.now_ns();
        self.obs.stage_span(
            se_obs::Stage::BatchExec,
            batch_id,
            batch.sealed_ns,
            batch.exec_done_ns,
        );
        match batch.kind {
            BatchKindTag::Solo => {
                // The final-hop worker already decided and committed; this
                // is the commit record.
                self.close_batch(batch_id, None);
            }
            BatchKindTag::Regular => {
                let txns = Arc::clone(&batch.txns);
                let errors = Arc::new(batch.errors.clone());
                batch.stage = BatchStage::Deciding {
                    flags: HashMap::new(),
                    reported: BTreeSet::new(),
                };
                let gen = self.gen;
                self.broadcast_chaos(move || WorkerMsg::Reserve {
                    gen,
                    batch: batch_id,
                    txns: Arc::clone(&txns),
                    errors: Arc::clone(&errors),
                });
                // Entering the reservation round unblocks sealing the next
                // batch (checked each loop turn in maybe_seal_batches).
            }
        }
    }

    fn on_flags(
        &mut self,
        batch_id: BatchId,
        worker: usize,
        new_flags: Vec<(TxnId, ConflictFlags)>,
    ) {
        let Some(batch) = self.in_flight.get_mut(&batch_id) else {
            return;
        };
        let BatchStage::Deciding { flags, reported } = &mut batch.stage else {
            return;
        };
        if !reported.insert(worker) {
            // A duplicated Flags delivery: the first report already
            // counted (and carried identical content).
            return;
        }
        for (txn, f) in new_flags {
            flags.entry(txn).or_default().merge(f);
        }
        if reported.len() < self.workers.len() {
            return;
        }
        // All partitions reported: decide which transactions lost a
        // conflict and retry. Failed chains abort without retry; the error
        // is the answer.
        let rule = self.cfg.commit_rule;
        let lost = |txn: &TxnId| {
            let f = flags.get(txn).copied().unwrap_or_default();
            f.waw
                || match rule {
                    CommitRule::Basic => f.raw,
                    CommitRule::Reordering => f.raw && f.war,
                }
        };
        let retry = (batch.txns.iter().copied())
            .filter(|txn| !batch.errors.contains(txn) && lost(txn))
            .collect();
        self.close_batch(batch_id, Some(retry));
    }

    /// Closes a batch: broadcasts the commit decision, answers clients,
    /// requeues aborted transactions, and frees the pipeline slot without
    /// waiting for commit acks (workers order commit application by batch
    /// id via their watermarks; acks only gate epoch cuts).
    ///
    /// `retry` is the reservation round's verdict: the conflict losers,
    /// ascending. A solo batch has no decision to broadcast: its final-hop
    /// worker already decided it (commit unless errored), applied its
    /// writes and sent the record to its peers — the `ExecDone` doubles as
    /// the commit record, so the slot frees after one worker→coordinator hop.
    fn close_batch(&mut self, batch_id: BatchId, retry: Option<Vec<TxnId>>) {
        let Some(batch) = self.in_flight.remove(&batch_id) else {
            return;
        };
        let InFlightBatch {
            txns,
            mut responses,
            errors,
            kind,
            exec_done_ns,
            ..
        } = batch;
        let decided_ns = self.obs.now_ns();
        let retry = match retry {
            Some(retry) => {
                self.obs.stage_span(
                    se_obs::Stage::BatchDecide,
                    batch_id,
                    exec_done_ns,
                    decided_ns,
                );
                // Workers discard the effects of errored chains and of the
                // conflict losers alike.
                let aborted: Arc<BTreeSet<TxnId>> =
                    Arc::new(errors.iter().chain(&retry).copied().collect());
                let txns = Arc::clone(&txns);
                let gen = self.gen;
                self.broadcast_chaos(move || WorkerMsg::Commit {
                    gen,
                    batch: batch_id,
                    txns: Arc::clone(&txns),
                    aborted: Arc::clone(&aborted),
                });
                retry
            }
            None => {
                debug_assert_eq!(txns.len(), 1, "solo batches hold exactly one txn");
                // The decision happened at the final-hop worker; on the
                // coordinator's timeline it is a point at the commit record.
                self.obs
                    .stage_span(se_obs::Stage::BatchDecide, batch_id, decided_ns, decided_ns);
                Vec::new()
            }
        };
        // One ack per worker arrives either way: for a solo batch the
        // deciding worker's own, and one from each peer applying the
        // broadcast record.
        self.arm_pending_acks(batch_id);
        self.track_commit_span(batch_id, decided_ns);

        // Respond to committed and hard-failed transactions (the latter are
        // answered with their error and counted apart — they never commit).
        let mut committed = 0u64;
        let mut failed = 0u64;
        let mut answers: Vec<Response> = Vec::new();
        let mut committed_outcomes: Vec<TxnOutcome> = Vec::new();
        let mut failed_outcomes: Vec<TxnOutcome> = Vec::new();
        let recording = self.cfg.history.is_some();
        for txn in txns.iter() {
            if retry.binary_search(txn).is_ok() {
                continue;
            }
            if errors.contains(txn) {
                failed += 1;
            } else {
                committed += 1;
            }
            self.roots.remove(txn);
            if let Some(resp) = responses.remove(txn) {
                if recording {
                    let outcome = TxnOutcome {
                        txn: *txn,
                        request: resp.request.0,
                        result: resp.result.clone().map_err(|e| e.to_string()),
                    };
                    if errors.contains(txn) {
                        failed_outcomes.push(outcome);
                    } else {
                        committed_outcomes.push(outcome);
                    }
                }
                answers.push(resp);
            }
        }
        // Count and record the decision *before* answering clients: a
        // client woken by its response may immediately read the stats or
        // snapshot the history and must see the commit that produced it.
        self.stats.commits.add(committed);
        self.stats.failed.add(failed);
        self.stats.aborts.add(retry.len() as u64);
        self.stats.batches.inc();
        self.record(|| HistoryEvent::Decided {
            batch: batch_id,
            kind,
            committed: committed_outcomes,
            failed: failed_outcomes,
            retried: retry.clone(),
        });
        // One pass over the waiter table: clients take the same lock once
        // per submit, so it is held for the removals only, not across the
        // wake-ups.
        let completers: Vec<_> = {
            let mut waiters = self.waiters.lock();
            let removed = answers.iter().map(|resp| waiters.remove(&resp.request));
            removed.collect()
        };
        for (resp, completer) in answers.into_iter().zip(completers) {
            if let Some(completer) = completer {
                completer.complete(resp.result);
            }
        }

        // Aborted transactions keep their (lower) ids so the oldest can
        // never lose again — also across overlapping batches: anything
        // sealed meanwhile holds strictly newer (higher) ids, so a retried
        // transaction still enters its next batch as the lowest id there.
        // Routing depends on the fallback policy.
        match self.cfg.fallback {
            se_aria::FallbackPolicy::Retry => {
                for txn in retry.into_iter().rev() {
                    self.queue.push_front(txn);
                }
            }
            se_aria::FallbackPolicy::Serial => {
                self.fallback_queue.extend(retry);
            }
        }
        if !self.queue.is_empty() && self.batch_deadline.is_none() {
            self.batch_deadline = Some(Instant::now() + self.cfg.batch_interval);
        }

        self.batches_since_snapshot += 1;
        self.cut_epoch(false);
    }

    /// Recomputes the cluster durable floor after a completed snapshot
    /// round: the minimum epoch every worker can recover from its own
    /// disk. Pins the in-memory store's retention there (a recovery may
    /// fall back to it and needs its source offset) and licenses WAL
    /// compaction below it on the next snapshot marker.
    fn update_durable_floor(&mut self) {
        if self.durable_epochs.len() < self.workers.len() {
            return;
        }
        // `None` (nothing durable yet) orders below every epoch.
        let Some(&Some(floor)) = self.durable_epochs.values().min() else {
            return;
        };
        if self.durable_floor.is_none_or(|f| floor > f) {
            self.durable_floor = Some(floor);
            self.snapshots.set_pin_floor(floor);
        }
    }

    /// Opens one restore round: fence with a fresh generation, roll the
    /// request cursor back to `target`'s offset, drop all volatile
    /// scheduling state (and whatever round the failure landed in), and
    /// tell every worker to restore to `target`. With durability on the
    /// round can end below its target (a damaged disk), in which case its
    /// completion opens another round at the cluster minimum; each round
    /// records its own `Recovery` event, and the history checker treats
    /// consecutive recoveries as one lineage ending at the last.
    fn restore_to(&mut self, target: Option<Epoch>) {
        // A target whose source offset is gone cannot be replayed to: fall
        // back to a full restart. Unreachable while the durable floor pins
        // retention correctly, but silently replaying from offset 0 into
        // epoch-`target` state would double-apply every earlier request.
        let target = match target {
            Some(e) if self.snapshots.source_offset(e, "requests").is_none() => None,
            t => t,
        };
        self.stats.recoveries.inc();
        self.gen += 1;
        let gen = self.gen;
        let offset = target
            .and_then(|e| self.snapshots.source_offset(e, "requests"))
            .unwrap_or(0);
        self.record(|| HistoryEvent::Recovery {
            gen,
            source_offset: offset,
        });
        self.reader.seek(offset);
        self.queue.clear();
        self.fallback_queue.clear();
        self.in_flight.clear();
        self.pending_acks.clear();
        self.early_acks.clear();
        self.roots.clear();
        self.batch_deadline = None;
        self.batches_since_snapshot = 0;
        self.rewind_upgrades(target, offset);
        self.open_round(RoundKind::Restore {
            target,
            floor: target,
        });
    }

    /// Rolls the upgrade bookkeeping back to the restored cut, replaying
    /// the upgrade sequence exactly once per lineage.
    ///
    /// An upgrade's migration writes land *after* its pre-upgrade epoch
    /// `e`, so restoring to `target`:
    /// * `e < target` — the writes are inside the cut: the upgrade stays
    ///   committed and the active version keeps reflecting it.
    /// * `e >= target` (or full restart) — the writes are lost with the
    ///   state: the upgrade must run again. Its `Redeploy` record sits at
    ///   offset `o < offset(e+…)`; if `o >= offset` the record replays
    ///   from the source and re-arms itself, otherwise it is re-armed here
    ///   manually (without a waiter — the client was answered in the
    ///   previous lineage; completion of a missing waiter is a no-op).
    ///
    /// Not-yet-committed upgrades (including one interrupted inside its
    /// `Cut → Migrate` chain, whose epoch-boundary snapshot is pre-migration
    /// by construction) follow the same offset rule; the interrupted round
    /// itself is dropped by the `Restore` round opening over it. Idempotent
    /// across consecutive restore rounds at decreasing targets.
    fn rewind_upgrades(&mut self, target: Option<Epoch>, offset: u64) {
        let mut rearmed: Vec<PendingUpgrade> = Vec::new();
        let mut kept: Vec<CommittedUpgrade> = Vec::new();
        for u in self.upgrades.drain(..) {
            if target.is_some_and(|t| u.epoch < t) {
                kept.push(u);
            } else if u.offset < offset {
                rearmed.push(PendingUpgrade {
                    version: u.version,
                    request: None,
                    offset: u.offset,
                });
            }
            // else: the Redeploy record replays from the source.
        }
        self.upgrades = kept;
        let torn = self.torn.take().map(|(_, p)| p);
        rearmed.extend(
            self.pending_upgrades
                .drain(..)
                .chain(torn)
                .filter(|p| p.offset < offset),
        );
        rearmed.sort_by_key(|p| p.version);
        self.pending_upgrades = rearmed.into();
        self.active_version = self
            .upgrades
            .last()
            .map(|u| u.version)
            .unwrap_or(INITIAL_VERSION);
        self.obs
            .gauge("deploy.active_version")
            .set(self.active_version as i64);
    }
}
