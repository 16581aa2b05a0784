//! The StateFlow coordinator: batch sealing, the reserve/commit barrier, and
//! the quiesce round behind snapshots, live upgrades and recovery.
//!
//! "StateFlow requires a single core coordinator, and the rest are used for
//! its workers" (§4). The coordinator is a role, not a thread: it gets a
//! thread of its own when the engine has a core to spare, and shares the
//! one thread with every worker on a one-core engine ([`crate::shell`]).
//! Either way its thread runs `Coordinator::turn` (the source work) and
//! hands it its messages (`Coordinator::handle`). It does no I/O and holds
//! no clock: what it sends goes onto its outbox (`out`) for the shell to
//! route, and its clients' answers (a regular batch's, an upgrade
//! commit's) onto `answers`, delivered after the sends. It sequences
//! transactions (globally ordered ids) and drives batches through Aria's
//! three phases; the worker that applies a create or a solo batch answers
//! it. A non-empty queue seals, up to `max_batch`, on the first turn the
//! pipeline window is open: a lone request seals at once, and what queues
//! while a regular batch executes seals together once it opens the window,
//! so batches grow with the load, as in group commit, without a timer.
//! Everything that touches state *outside* a transaction happens at a
//! consistent cut, through one primitive:
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
//! decisions flowing in batch order. A batch is *solo* iff it holds one
//! transaction — a serial-fallback retry, or a lone request that found the
//! queue otherwise empty. A lone transaction cannot lose a conflict, so a
//! solo batch skips the reservation round and commits at its final hop
//! without a coordinator round trip: the final-hop worker counts, records
//! and answers it, then sends `SoloDone`, which only frees the slot. A
//! request arriving at an idle engine costs `Exec` → answer, and hot-key
//! retry storms drain at execution speed instead of one round trip per
//! transaction. At `pipeline_depth = 1` the window degenerates to "seal
//! only when idle".
//!
//! Nothing reports a commit back: as in Aria, every worker applies commit
//! records locally in batch order, and the coordinator frees a batch's slot
//! the moment it decides. The one thing that must wait for those commits,
//! an epoch cut, waits at the workers: a `Snapshot` carries `through`, the
//! first batch it excludes, and each worker contributes once its own
//! committed-batch watermark reaches it.
//!
//! Chaos hardening: data-plane messages (`Exec`/`Reserve`/`Commit` out,
//! `ExecDone`/`SoloDone`/`Flags` in) may be duplicated, delayed or
//! quarantined by a scripted `ChaosPlan`, so every per-message state
//! transition here is idempotent — flag reports are deduplicated per
//! worker, and stale completions are dropped. Control-plane traffic (the
//! round's messages and acks, failure notifications) bypasses injection:
//! it models the failure detector and alignment protocol the engine
//! assumes reliable. Which message is which is decided in one place, by
//! message kind: the shell's `route` ([`crate::shell`]).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use se_aria::{BatchId, TxnId};
use se_chaos::{BatchKindTag, HistoryEvent, TxnOutcome};
use se_dataflow::{Epoch, SnapshotStore, SourceReader, StateStore};
use se_ir::{partition_for, Invocation, InvocationKind, RequestId, Response, INITIAL_VERSION};
use se_lang::Value;

use crate::config::{BugLever, StateflowConfig};
use crate::msg::{ClientOp, ClientRequest, ConflictFlags, CoordMsg, Envelope, WorkerMsg};

/// Shared counters exposed to tests and benchmarks — registry-backed
/// `se-obs` handles published under `coord.*` (and the log's
/// `stateflow.log_truncated`), so the engine's decision
/// counts and the observability snapshot come from one source (they used to
/// be a private `AtomicU64` struct the exporters could not see).
#[derive(Debug, Clone)]
pub struct CoordStats {
    /// Batches decided (committed or solo-finalized).
    pub batches: se_obs::Counter,
    /// The solo share of `batches`: one-transaction batches, committed at
    /// their final hop without a reservation round.
    pub solo_batches: se_obs::Counter,
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
    /// Request-source records freed below the replay floor
    /// (`Coordinator::replay_floor`); StateFun's broker logs count theirs
    /// in `statefun.log_truncated`.
    pub log_truncated: se_obs::Counter,
}

impl CoordStats {
    /// Registers the counters in `obs`'s metrics registry (idempotent: two
    /// handles from the same registry share the same underlying counters).
    pub fn register(obs: &se_obs::Obs) -> CoordStats {
        CoordStats {
            batches: obs.counter("coord.batches"),
            solo_batches: obs.counter("coord.solo_batches"),
            commits: obs.counter("coord.commits"),
            failed: obs.counter("coord.failed"),
            aborts: obs.counter("coord.aborts"),
            snapshots: obs.counter("coord.snapshots"),
            recoveries: obs.counter("coord.recoveries"),
            log_truncated: obs.counter("stateflow.log_truncated"),
        }
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

/// The kind of a batch, a function of its size alone: one transaction is a
/// solo batch — it cannot lose a conflict, so it skips reservation and its
/// final-hop worker decides, commits and answers it locally, the
/// coordinator merely freeing its slot — and more are a regular batch
/// (executes, reserves, decides), the only kind a reservation can change.
fn batch_kind(txns: &[TxnId]) -> BatchKindTag {
    if txns.len() == 1 {
        BatchKindTag::Solo
    } else {
        BatchKindTag::Regular
    }
}

/// Coordinator-side bookkeeping for one sealed, not-yet-finished batch. Its
/// kind is not stored: [`batch_kind`] derives it from `txns`.
struct InFlightBatch {
    /// The batch's transaction ids, ascending.
    txns: Arc<Vec<TxnId>>,
    responses: HashMap<TxnId, Response>,
    /// Transactions whose chain errored (abort without retry).
    errors: BTreeSet<TxnId>,
    stage: BatchStage,
    /// Obs timestamps (0 with observability off): when the batch was sealed
    /// and when its last `ExecDone` arrived — the `batch_exec` /
    /// `batch_decide` span boundaries.
    sealed_ns: u64,
    exec_done_ns: u64,
}

impl InFlightBatch {
    /// Whether this batch blocks sealing the next one: a regular batch still
    /// executing must enter its reservation round first; solo batches never
    /// block — they are decided at their final hop, and overlapping them is
    /// the whole point.
    fn blocks_sealing(&self) -> bool {
        matches!(self.stage, BatchStage::Executing)
            && batch_kind(&self.txns) == BatchKindTag::Regular
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
    /// Workers whose ack is outstanding — a set, not a counter, so each
    /// worker's ack counts once.
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

/// The coordinator role: its handlers run on the thread that hosts it.
pub struct Coordinator {
    cfg: StateflowConfig,
    /// What the handlers sent, in order, for the shell to route.
    pub(crate) out: Vec<Envelope>,
    /// The clients' answers, for the shell to deliver once `out` is on its
    /// way: a decided batch's commit records then reach the workers ahead
    /// of the client wake-ups. Only the first answer to a request finds its
    /// waiter, so the answer a recovery replays is dropped there.
    pub(crate) answers: Vec<Response>,
    reader: SourceReader<ClientRequest>,
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
    next_batch: BatchId,
    /// Batches sealed since the last epoch cut (or restore); a periodic
    /// cut is wanted from `snapshot_every_batches` on.
    batches_since_snapshot: u64,
    epoch: Epoch,
    mode: Mode,
    /// Sealed batches that have not been decided yet, at most
    /// `pipeline_depth` of them, keyed by batch id.
    in_flight: BTreeMap<BatchId, InFlightBatch>,
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
    /// Program version new roots are stamped with at seal time.
    active_version: u64,
    /// Consumed-but-uncommitted upgrades, FIFO. While non-empty the
    /// coordinator stops consuming the source: requests appended after a
    /// `Redeploy` record must run on the new version. (It stops as well
    /// while a periodic cut is wanted, see [`Self::snapshot_wanted`].)
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
    /// Creates the coordinator (hosted by a [`crate::shell::Shell`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: StateflowConfig,
        reader: SourceReader<ClientRequest>,
        snapshots: Arc<SnapshotStore<StateStore>>,
        stats: Arc<CoordStats>,
        obs: se_obs::Obs,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        Self {
            cfg,
            out: Vec::new(),
            answers: Vec::new(),
            reader,
            snapshots,
            stats,
            obs,
            shutdown,
            gen: 0,
            next_txn: 0,
            queue: VecDeque::new(),
            fallback_queue: VecDeque::new(),
            roots: HashMap::new(),
            next_batch: 0,
            batches_since_snapshot: 0,
            epoch: 0,
            mode: Mode::Running,
            in_flight: BTreeMap::new(),
            durable_epochs: BTreeMap::new(),
            durable_floor: None,
            queue_since_ns: None,
            active_version: INITIAL_VERSION,
            pending_upgrades: VecDeque::new(),
            upgrades: Vec::new(),
            versioned: false,
            torn: None,
        }
    }

    fn owner_of(&self, key: &str) -> usize {
        partition_for(key, self.cfg.workers)
    }

    /// Sends one `mk()` to every worker.
    fn broadcast(&mut self, mk: impl Fn() -> WorkerMsg) {
        let sends = (0..self.cfg.workers).map(|w| Envelope::Worker(w, mk()));
        self.out.extend(sends);
    }

    /// Appends to the recorded history, if recording is on. The closure
    /// keeps event construction off the hot path when it is not.
    fn record(&self, mk: impl FnOnce() -> HistoryEvent) {
        if let Some(h) = &self.cfg.history {
            h.record(mk());
        }
    }

    /// The coordinator's source work, run by its thread at the start of
    /// every turn and after every message it handles
    /// ([`se_dataflow::shell::run`]): consume what the source holds
    /// (freeing the records below `replay_floor`), then cut whichever epoch
    /// is wanted once drained, and seal what the pipeline window allows.
    /// Returns `false` once shutdown is requested: the coordinator has told
    /// every worker to stop, and has stopped.
    pub(crate) fn turn(&mut self) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            self.broadcast(|| WorkerMsg::Shutdown);
            return false;
        }
        let cursor = self.reader.offset();
        self.drain_source();
        if self.reader.offset() != cursor {
            let freed = self.reader.truncate_below(self.replay_floor());
            self.stats.log_truncated.add(freed);
        }
        self.cut_epoch(true);
        self.cut_epoch(false);
        while self.window_open() && self.seal_next_batch() {}
        true
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
            // behind the upgrade's epoch boundary. It pauses as well while
            // a periodic cut is wanted: the pipeline then drains, and the
            // cut opens, however closely the requests follow each other.
            if !self.pending_upgrades.is_empty() || self.snapshot_wanted() {
                return;
            }
            let Some(req) = self.reader.poll() else {
                return;
            };
            match req.op {
                ClientOp::Create { class, key, init } => {
                    let owner = self.owner_of(&key);
                    let create = WorkerMsg::Create {
                        gen: self.gen,
                        request: req.request,
                        class,
                        key,
                        init,
                    };
                    self.out.push(Envelope::Worker(owner, create));
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

    /// Whether the pipeline has fully drained: no in-flight batch and no
    /// pending work — every consumed request is then decided, and every
    /// batch below `next_batch` has its commit record on the way to the
    /// workers, so (the workers' state through `next_batch`, source offset)
    /// is a consistent cut. Every `Cut` round opens on this condition (a
    /// `Restore` round forces it by dropping the scheduling state).
    fn drained(&self) -> bool {
        self.in_flight.is_empty() && self.queue.is_empty() && self.fallback_queue.is_empty()
    }

    /// Whether the periodic snapshot is due: `snapshot_every_batches`
    /// batches were sealed since the last cut. Also true while its `Cut`
    /// round is open.
    fn snapshot_wanted(&self) -> bool {
        self.cfg.snapshot_every_batches > 0
            && self.batches_since_snapshot >= self.cfg.snapshot_every_batches
    }

    /// Cuts an epoch — opens a `Cut` round — once one is wanted and the
    /// pipeline has drained. With `upgrade` the cut is the front pending
    /// upgrade's epoch boundary (wanted as soon as an upgrade is queued);
    /// otherwise it is the periodic snapshot ([`Self::snapshot_wanted`]).
    /// Either stops the source's consumption until its round completes.
    fn cut_epoch(&mut self, upgrade: bool) {
        let wanted = if upgrade {
            !self.pending_upgrades.is_empty()
        } else {
            self.snapshot_wanted()
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
                self.snapshots.begin_epoch(epoch, self.cfg.workers);
                self.snapshots
                    .put_source_offset(epoch, "requests", self.reader.offset());
                let durable_floor = self.durable_floor;
                let through = self.next_batch;
                self.broadcast(|| WorkerMsg::Snapshot {
                    gen,
                    epoch,
                    through,
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
            waiting: (0..self.cfg.workers).collect(),
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
    /// already fenced, see `Coordinator::handle`): `accept` matches the
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
                if let Some(request) = p.request {
                    let result = Ok(Value::Unit);
                    self.answers.push(Response { request, result });
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

    /// Whether the pipeline would take a batch now: no round holds sealing,
    /// a slot is free, and every in-flight regular batch has entered its
    /// reservation round. While it is closed only a message can open it.
    fn window_open(&self) -> bool {
        matches!(self.mode, Mode::Running)
            && self.in_flight.len() < self.cfg.pipeline_depth
            && self.in_flight.values().all(|b| !b.blocks_sealing())
    }

    /// Seals and dispatches one batch if anything is queued; returns whether
    /// it did. Serial-fallback transactions run first, one per batch;
    /// otherwise the batch takes up to `max_batch` transactions from the
    /// queue. Either way its kind follows from its size ([`batch_kind`]).
    fn seal_next_batch(&mut self) -> bool {
        let (txns, fallback): (Vec<TxnId>, bool) =
            if let Some(txn) = self.fallback_queue.pop_front() {
                (vec![txn], true)
            } else if self.queue.is_empty() {
                return false;
            } else {
                let take = self.queue.len().min(self.cfg.max_batch);
                (self.queue.drain(..take).collect(), false)
            };
        debug_assert!(
            txns.windows(2).all(|w| w[0] < w[1]),
            "queue must stay ascending"
        );
        let kind = batch_kind(&txns);
        let batch = self.next_batch;
        self.next_batch += 1;
        self.batches_since_snapshot += 1;
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
            let exec = WorkerMsg::Exec {
                gen: self.gen,
                batch,
                txn: *txn,
                hop: 0,
                inv,
                solo,
            };
            self.out.push(Envelope::Worker(owner, exec));
        }
        let mut sealed_ns = 0;
        if self.obs.enabled() {
            sealed_ns = self.obs.now_ns();
            // Seal span: queue started filling → dispatched, whatever the
            // batch's size. Fallback transactions skip the accumulation
            // queue; their seal is a point.
            let opened = if fallback {
                sealed_ns
            } else {
                self.queue_since_ns.take().unwrap_or(sealed_ns)
            };
            self.obs
                .stage_span(se_obs::Stage::BatchSeal, batch, opened, sealed_ns);
            if !fallback && !self.queue.is_empty() {
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
                stage: BatchStage::Executing,
                sealed_ns,
                exec_done_ns: 0,
            },
        );
        true
    }

    /// Handles one message addressed to the coordinator.
    pub(crate) fn handle(&mut self, msg: CoordMsg) {
        // The generation fence: anything a worker sent before the last
        // restore round opened is stale — except a failure notification,
        // which always starts a recovery.
        let gen = match &msg {
            CoordMsg::WorkerFailed { .. } => self.gen,
            CoordMsg::RestoreAck { gen, .. }
            | CoordMsg::ExecDone { gen, .. }
            | CoordMsg::SoloDone { gen, .. }
            | CoordMsg::Flags { gen, .. }
            | CoordMsg::SnapshotAck { gen, .. }
            | CoordMsg::MigrateAck { gen, .. } => *gen,
        };
        if gen != self.gen {
            return;
        }
        match msg {
            CoordMsg::WorkerFailed { .. } => {
                // An invariant, not input validation: only a scripted crash
                // point sends this, and without one `replay_floor` already
                // freed the requests a restore would replay.
                assert!(
                    self.cfg.chaos.has_crashes(),
                    "invariant: a deployment with no scripted crash never recovers"
                );
                self.restore_to(self.snapshots.latest_complete())
            }
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
            CoordMsg::ExecDone {
                batch,
                txn,
                response,
                ..
            } => self.on_exec_done(batch, txn, response),
            CoordMsg::SoloDone { batch, txn, .. } => self.on_solo_done(batch, txn),
            CoordMsg::Flags {
                batch,
                worker,
                flags,
                ..
            } => self.on_flags(batch, worker, flags),
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
        let txns = Arc::clone(&batch.txns);
        let errors = Arc::new(batch.errors.clone());
        batch.stage = BatchStage::Deciding {
            flags: HashMap::new(),
            reported: BTreeSet::new(),
        };
        let gen = self.gen;
        self.broadcast(move || WorkerMsg::Reserve {
            gen,
            batch: batch_id,
            txns: Arc::clone(&txns),
            errors: Arc::clone(&errors),
        });
        // Entering the reservation round unblocks sealing the next batch
        // (checked on the turn that follows this message).
    }

    /// A solo batch's final-hop worker decided, committed, counted,
    /// recorded and answered it: all that is left here is the pipeline
    /// slot. A duplicated or stale notice finds no batch.
    fn on_solo_done(&mut self, batch_id: BatchId, txn: TxnId) {
        if self
            .in_flight
            .get(&batch_id)
            .is_none_or(|b| *b.txns != [txn])
        {
            return;
        }
        let batch = self.in_flight.remove(&batch_id).expect("checked above");
        // On the coordinator's timeline the worker's decision is a point at
        // the notice.
        let done_ns = self.obs.now_ns();
        let stage_span = |stage, start| self.obs.stage_span(stage, batch_id, start, done_ns);
        stage_span(se_obs::Stage::BatchExec, batch.sealed_ns);
        stage_span(se_obs::Stage::BatchDecide, done_ns);
        self.roots.remove(&txn);
        self.cut_epoch(false);
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
        if reported.len() < self.cfg.workers {
            return;
        }
        // All partitions reported: decide which transactions lost a
        // conflict under Aria's reordering rule and retry. Failed chains
        // abort without retry; the error is the answer.
        let lost = |txn: &TxnId| flags.get(txn).copied().unwrap_or_default().loses();
        let retry = (batch.txns.iter().copied())
            .filter(|txn| !batch.errors.contains(txn) && lost(txn))
            .collect();
        self.close_batch(batch_id, retry);
    }

    /// Closes a regular batch: broadcasts the commit decision, answers
    /// clients, requeues aborted transactions, and frees the pipeline slot.
    /// Nothing comes back: workers apply commit records in batch order
    /// through their watermarks, and an epoch cut waits for them there
    /// (`through`).
    ///
    /// `retry` is the reservation round's verdict: the conflict losers,
    /// ascending. (Solo batches are closed by [`Self::on_solo_done`].)
    fn close_batch(&mut self, batch_id: BatchId, retry: Vec<TxnId>) {
        let Some(batch) = self.in_flight.remove(&batch_id) else {
            return;
        };
        let InFlightBatch {
            txns,
            mut responses,
            errors,
            exec_done_ns,
            ..
        } = batch;
        self.obs.stage_span(
            se_obs::Stage::BatchDecide,
            batch_id,
            exec_done_ns,
            self.obs.now_ns(),
        );
        // Workers discard the effects of errored chains and of the conflict
        // losers alike.
        let aborted: Arc<BTreeSet<TxnId>> =
            Arc::new(errors.iter().chain(&retry).copied().collect());
        let commit_txns = Arc::clone(&txns);
        let gen = self.gen;
        self.broadcast(move || WorkerMsg::Commit {
            gen,
            batch: batch_id,
            txns: Arc::clone(&commit_txns),
            aborted: Arc::clone(&aborted),
        });
        // Respond to committed and hard-failed transactions (the latter are
        // answered with their error and counted apart — they never commit).
        let mut committed = 0u64;
        let mut failed = 0u64;
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
                self.answers.push(resp);
            }
        }
        // Count and record the decision here, before the shell answers the
        // clients: a client woken by its response may at once read the stats or
        // snapshot the history and must see the commit that produced it.
        self.stats.commits.add(committed);
        self.stats.failed.add(failed);
        self.stats.aborts.add(retry.len() as u64);
        self.stats.batches.inc();
        self.record(|| HistoryEvent::Decided {
            batch: batch_id,
            kind: BatchKindTag::Regular,
            committed: committed_outcomes,
            failed: failed_outcomes,
            retried: retry.clone(),
        });

        // Aborted transactions keep their (lower) ids so the oldest can
        // never lose again — also across overlapping batches: anything
        // sealed meanwhile holds strictly newer (higher) ids, so a retried
        // transaction still enters its next batch as the lowest id there.
        // They run as Aria's serial fallback: one solo batch each.
        self.fallback_queue.extend(retry);
        self.cut_epoch(false);
    }

    /// Recomputes the cluster durable floor after a completed snapshot
    /// round: the minimum epoch every worker can recover from its own
    /// disk. Pins the in-memory store's retention there (a recovery may
    /// fall back to it and needs its source offset) and licenses WAL
    /// compaction below it on the next snapshot marker.
    fn update_durable_floor(&mut self) {
        if self.durable_epochs.len() < self.cfg.workers {
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
    ///
    /// `None` replays the request source from offset 0, so a deployment
    /// that can recover keeps its whole source ([`Self::replay_floor`]).
    /// Two paths reach `None` after epochs have completed: a restore round
    /// whose minimum `reached` over the `RestoreAck`s is `None` re-opens at
    /// `None`, and `DurableStore::recover` reports `None` when a
    /// partition's base snapshot is missing and `compact_below` already
    /// dropped the log that preceded it.
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
        self.roots.clear();
        self.batches_since_snapshot = 0;
        self.rewind_upgrades(target, offset);
        self.open_round(RoundKind::Restore {
            target,
            floor: target,
        });
    }

    /// The lowest request-source offset a recovery of this deployment can
    /// still seek to: the run loop frees every record below it
    /// (`ReplayableSource::truncate_below`) on each turn that moved the
    /// cursor.
    ///
    /// * **No crash scripted**: the cursor. Only a scripted crash point
    ///   sends `WorkerFailed` (`handle` holds that as an invariant), so no
    ///   `Restore` round ever opens, and a polled record lives on in
    ///   `roots` or `pending_upgrades` for as long as it is needed.
    /// * **Crash scripted**: 0. Both `None` paths named at
    ///   [`Self::restore_to`] replay from offset 0, so nothing is freed
    ///   until they restore a durable floor instead.
    fn replay_floor(&self) -> u64 {
        if self.cfg.chaos.has_crashes() {
            0
        } else {
            self.reader.offset()
        }
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

#[cfg(test)]
mod tests {
    use se_dataflow::ReplayableSource;
    use se_lang::EntityRef;

    use super::*;

    /// A coordinator reading `source` from its start, driven by hand: no
    /// thread, no sleep, no shell.
    fn coordinator(cfg: StateflowConfig, source: &ReplayableSource<ClientRequest>) -> Coordinator {
        Coordinator::new(
            cfg,
            SourceReader::at(source, 0),
            Arc::new(SnapshotStore::new()),
            Arc::new(CoordStats::default()),
            se_obs::Obs::noop(),
            Arc::new(AtomicBool::new(false)),
        )
    }

    /// Appends request `request`, a read of the account `key`.
    fn invoke(source: &ReplayableSource<ClientRequest>, request: u64, key: &str) {
        let target = EntityRef::new("Account", key);
        let inv = Invocation::root(RequestId(request), target, "balance", vec![]);
        source.append(ClientRequest {
            request: RequestId(request),
            op: ClientOp::Invoke(inv),
        });
    }

    /// The (batch, transaction) of every `Exec` the coordinator sent since
    /// the last look.
    fn sealed(coord: &mut Coordinator) -> Vec<(BatchId, TxnId)> {
        (coord.out.drain(..))
            .filter_map(|sent| match sent {
                Envelope::Worker(_, WorkerMsg::Exec { batch, txn, .. }) => Some((batch, txn)),
                _ => None,
            })
            .collect()
    }

    /// What the shell does with a message to the coordinator: handle it,
    /// then run the turn that follows; returns what that sealed.
    fn step(coord: &mut Coordinator, msg: CoordMsg) -> Vec<(BatchId, TxnId)> {
        coord.handle(msg);
        assert!(coord.turn());
        sealed(coord)
    }

    /// `txn` of regular batch `batch` finished executing.
    fn exec_done(batch: BatchId, txn: TxnId) -> CoordMsg {
        let response = Response {
            request: RequestId(txn),
            result: Ok(Value::Unit),
        };
        CoordMsg::ExecDone {
            gen: 0,
            batch,
            txn,
            response,
        }
    }

    /// `worker`'s flags for `batch`: a WAW on each of `lost`.
    fn flags(batch: BatchId, worker: usize, lost: &[TxnId]) -> CoordMsg {
        let waw = ConflictFlags {
            waw: true,
            ..ConflictFlags::default()
        };
        CoordMsg::Flags {
            gen: 0,
            batch,
            worker,
            flags: lost.iter().map(|&txn| (txn, waw)).collect(),
        }
    }

    /// The default configuration holds no timer: one append and one turn
    /// put the lone request's `Exec` on the outbox.
    #[test]
    fn a_lone_request_seals_on_the_first_turn_at_the_default_config() {
        let source = ReplayableSource::new();
        let mut coord = coordinator(StateflowConfig::default(), &source);
        invoke(&source, 0, "a");
        assert!(coord.turn());
        assert_eq!(sealed(&mut coord), [(0, 0)]);
    }

    /// Serial-fallback retries seal first, one per batch, and the requests
    /// queued behind the contended batch seal on the first turn the window
    /// opens after that. At depth 1 the retry takes the one slot and its
    /// `SoloDone` gives it back; the queue waits for nothing else.
    #[test]
    fn a_fallback_seal_does_not_postpone_the_queued_batch() {
        let mut cfg = StateflowConfig::fast_test(2);
        cfg.pipeline_depth = 1;
        let source = ReplayableSource::new();
        let mut coord = coordinator(cfg, &source);

        // 1. Two requests appended together seal as one regular batch.
        invoke(&source, 0, "a");
        invoke(&source, 1, "b");
        assert!(coord.turn());
        assert_eq!(sealed(&mut coord), [(0, 0), (0, 1)]);

        // 2. Two more queue behind it: the window is closed.
        invoke(&source, 2, "c");
        invoke(&source, 3, "d");
        assert!(coord.turn());
        assert_eq!(sealed(&mut coord), []);

        // 3. Both chains finish; the decision holds the one slot.
        assert_eq!(step(&mut coord, exec_done(0, 0)), []);
        assert_eq!(step(&mut coord, exec_done(0, 1)), []);

        // 4. Txn 1 loses a WAW on worker 0: its retry seals alone, first.
        assert_eq!(step(&mut coord, flags(0, 0, &[1])), []);
        assert_eq!(step(&mut coord, flags(0, 1, &[])), [(1, 1)]);

        // 5. The retry's notice opens the window, and that very turn seals
        // the queued requests together.
        let solo_done = CoordMsg::SoloDone {
            gen: 0,
            batch: 1,
            txn: 1,
        };
        assert_eq!(step(&mut coord, solo_done), [(2, 2), (2, 3)]);
    }

    /// Batches grow under load without a timer: requests appended while a
    /// regular batch executes seal together on the turn its last `Flags`
    /// opens the window (depth 1 holds the slot through the decision), the
    /// first `max_batch` of them in one batch and the rest when that batch
    /// is decided in turn.
    #[test]
    fn requests_queued_behind_an_executing_batch_seal_together_up_to_max_batch() {
        let mut cfg = StateflowConfig::fast_test(2);
        cfg.pipeline_depth = 1;
        cfg.max_batch = 4;
        let source = ReplayableSource::new();
        let mut coord = coordinator(cfg, &source);
        invoke(&source, 0, "a");
        invoke(&source, 1, "b");
        assert!(coord.turn());
        assert_eq!(sealed(&mut coord), [(0, 0), (0, 1)]);

        // Six requests arrive while batch 0 executes and decides.
        for request in 2..8 {
            invoke(&source, request, ["a", "b"][request as usize % 2]);
            assert!(coord.turn());
            assert_eq!(sealed(&mut coord), []);
        }
        for msg in [exec_done(0, 0), exec_done(0, 1), flags(0, 0, &[])] {
            assert_eq!(step(&mut coord, msg), []);
        }
        let batch1 = [(1, 2), (1, 3), (1, 4), (1, 5)];
        assert_eq!(step(&mut coord, flags(0, 1, &[])), batch1);

        // The two left over seal once batch 1 is decided.
        for txn in 2..6 {
            assert_eq!(step(&mut coord, exec_done(1, txn)), []);
        }
        assert_eq!(step(&mut coord, flags(1, 0, &[])), []);
        assert_eq!(step(&mut coord, flags(1, 1, &[])), [(2, 6), (2, 7)]);
    }

    /// A periodic cut is wanted every `snapshot_every_batches` sealed
    /// batches, and from then on the source waits for it. Here each request
    /// is appended before the previous batch's `SoloDone` is handled, so
    /// the pipeline never drains while the coordinator consumes: the cut
    /// opens only because consumption pauses, and then it opens after
    /// exactly N batches every time.
    #[test]
    fn a_wanted_cut_opens_after_exactly_n_back_to_back_batches() {
        const N: u64 = 4;
        let mut cfg = StateflowConfig::fast_test(2);
        cfg.snapshot_every_batches = N;
        let source = ReplayableSource::new();
        let mut coord = coordinator(cfg, &source);
        // Solo batches sealed and not yet done, oldest first.
        let mut executing: VecDeque<(BatchId, TxnId)> = VecDeque::new();
        // `through` of every `Snapshot` marker sent.
        let mut cuts: Vec<BatchId> = Vec::new();
        for request in 0..3 * N + 2 {
            let before = executing.len();
            invoke(&source, request, ["a", "b"][request as usize % 2]);
            assert!(coord.turn());
            let mut out: VecDeque<Envelope> = coord.out.drain(..).collect();
            // The previous batch finishes only after the next request came.
            let mut done = executing.drain(..before).collect::<VecDeque<_>>();
            loop {
                while let Some(sent) = out.pop_front() {
                    match sent {
                        Envelope::Worker(
                            _,
                            WorkerMsg::Exec {
                                batch, txn, solo, ..
                            },
                        ) => {
                            assert!(solo, "one request per batch");
                            executing.push_back((batch, txn));
                        }
                        Envelope::Worker(worker, WorkerMsg::Snapshot { epoch, through, .. }) => {
                            if worker == 0 {
                                cuts.push(through);
                            }
                            coord.handle(CoordMsg::SnapshotAck {
                                gen: 0,
                                epoch,
                                worker,
                                durable: None,
                            });
                        }
                        _ => {}
                    }
                }
                // What the shell runs after a handled message.
                assert!(coord.turn());
                out.extend(coord.out.drain(..));
                if out.is_empty() {
                    let Some((batch, txn)) = done.pop_front() else {
                        break;
                    };
                    coord.handle(CoordMsg::SoloDone { gen: 0, batch, txn });
                    out.extend(coord.out.drain(..));
                }
            }
        }
        assert_eq!(cuts, [N, 2 * N, 3 * N], "a Snapshot every {N} batches");
    }
}
