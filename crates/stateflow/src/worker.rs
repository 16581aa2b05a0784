//! A StateFlow worker: one state partition plus the execute/reserve/commit
//! phases of the distributed Aria protocol.
//!
//! Workers communicate function-to-function over internal (cyclic) delay
//! channels — the design decision the paper credits for StateFlow's latency
//! advantage: "it allows for internal function-to-function communication and
//! does not require the roundtrips to Kafka" (§4).
//!
//! Batches overlap: the coordinator dispatches batch *N+1* while batch *N*
//! is still deciding, so per-channel FIFO does not guarantee that a batch's
//! `Exec` messages arrive after the previous batch's `Commit`. Each worker
//! therefore keeps a committed-batch [`CommitWatermark`] and defers any
//! `Exec` (root or chain hop) of batch *B* until the commit of batch *B−1*
//! has been applied locally — every execution still reads exactly the
//! snapshot Aria's serial batch order prescribes.
//!
//! One thread per partition, as in the paper's deployment: the worker owns
//! its store and every piece of protocol state outright. A chain segment —
//! the entry hop plus any same-partition continuations — runs on that
//! thread through [`Worker::run_segment`], against the committed snapshot
//! overlaid with the transaction's buffer; [`Worker::run_exec`] then
//! performs its protocol action (report, solo commit, or forward to the
//! next partition). The store is never mutated inside a batch's execution
//! window (the commit of batch *B* requires every `ExecDone` of *B*, and
//! the watermark defers batch *B+1*'s executions until that commit
//! applied), so the order segments of one batch run in changes no outcome.
//!
//! Chaos hardening: with a scripted [`se_chaos::ChaosPlan`] armed, any
//! data-plane message may arrive duplicated, late or not at all (until a
//! recovery fences it), so the worker's message handling is idempotent:
//! `Exec` deliveries carry hop sequence numbers and anything at or below
//! the already-executed hop is dropped (re-running a hop would double-apply
//! its effects in the transaction buffer), `Exec`s for already-committed
//! batches are stale and ignored, and commit records are deduplicated by
//! the watermark. Crashes can be scripted at three protocol points —
//! executing a hop, handling a reservation round, applying a commit — and
//! per incarnation, so a restored worker can be killed again.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use se_aria::{BatchId, CommitWatermark, ReservationTable, TxnBuffer, TxnId};
use se_chaos::{CrashPoint, HistoryEvent, Seam};
use se_dataflow::{
    send_with_chaos, timer, DelayReceiver, DelaySender, DurableOptions, DurableStore,
    SnapshotStore, StateStore,
};
use se_ir::{
    partition_for, process_invocation_with, Invocation, Response, StepEffect, VersionRegistry,
};
use se_lang::LangError;
use se_obs::Histogram;

use crate::config::{BugLever, DurabilityMode, StateflowConfig};
use crate::msg::{ConflictFlags, CoordMsg, WorkerMsg};

/// A commit record as applied by a worker: the batch's transactions
/// (ascending) and the subset whose effects must be discarded.
type CommitRecord = (Arc<Vec<TxnId>>, Arc<BTreeSet<TxnId>>);

/// An `Exec` message parked until its batch becomes runnable.
struct DeferredExec {
    txn: TxnId,
    hop: u32,
    inv: Invocation,
    solo: bool,
}

/// How a chain segment ended.
enum SegmentOutcome {
    /// The chain finished: report `ExecDone` (and for solo batches decide
    /// and commit first).
    Respond(Response),
    /// The chain suspended at a cross-partition call: forward `inv` to
    /// `owner` at chain position `hop`.
    Emit {
        /// Destination partition.
        owner: usize,
        /// Hop number the outgoing `Exec` carries (distinct from the
        /// segment's `next_hop`, which is this worker's dedup position).
        hop: u32,
        /// The continuation invocation.
        inv: Invocation,
    },
}

/// A worker thread's state and message loop.
pub struct Worker {
    id: usize,
    /// `worker<id>`, computed once: the chaos hooks consult it on every
    /// executed hop, and the hot path must not allocate per call.
    name: String,
    cfg: StateflowConfig,
    /// Every deployed program version (graph + body runner), keyed by
    /// version. Executions resolve through it per invocation, so chains in
    /// flight across a live upgrade keep running the version they were
    /// stamped with at their root while new roots pick up the upgrade.
    registry: Arc<VersionRegistry>,
    /// The partition store: segments read the committed snapshot, commits
    /// and creates write it.
    store: StateStore,
    /// Per-batch buffered accesses: batches overlap under pipelining, so
    /// reservation state must be keyed by batch, not just transaction.
    buffers: HashMap<BatchId, HashMap<TxnId, TxnBuffer>>,
    /// Next expected hop per `(batch, txn)` chain position on this worker;
    /// deliveries below it are duplicates and dropped. Cleared with the
    /// batch's buffers.
    expected_hops: HashMap<BatchId, HashMap<TxnId, u32>>,
    /// Batches whose reservation round already ran here: a duplicated
    /// `Reserve` delivery must not rebuild the table, re-record accesses or
    /// re-report flags (the first report is en route or already counted).
    reserved: BTreeSet<BatchId>,
    /// Commit progress; orders execution across overlapping batches.
    watermark: CommitWatermark<CommitRecord>,
    /// Execs of batches whose predecessor has not committed locally yet.
    deferred: BTreeMap<BatchId, VecDeque<DeferredExec>>,
    inbox: DelayReceiver<WorkerMsg>,
    peers: Vec<DelaySender<WorkerMsg>>,
    coord: DelaySender<CoordMsg>,
    snapshots: Arc<SnapshotStore<StateStore>>,
    /// The component timers this worker feeds (`timer.*` histograms).
    read_timer: Arc<Histogram>,
    exec_timer: Arc<Histogram>,
    buffer_timer: Arc<Histogram>,
    store_timer: Arc<Histogram>,
    /// The partition's durable layer (`DurabilityMode::Wal`): commits and
    /// creates are logged as they apply, epochs cut on snapshot markers,
    /// and `Restore` recovers state from disk instead of the in-memory
    /// snapshot store. `None` with durability off — every durable hook is
    /// then a skipped `if`, keeping the volatile path byte-identical.
    durable: Option<DurableStore>,
    /// Observability handle: migration and WAL spans flow through it (a
    /// single predicted branch per probe when `SE_OBS=off`).
    obs: se_obs::Obs,
    gen: u64,
    /// Set after a simulated crash until the next Restore.
    dead: bool,
}

impl Worker {
    /// Creates a worker (call [`Worker::run`] on its own thread).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        cfg: StateflowConfig,
        registry: Arc<VersionRegistry>,
        inbox: DelayReceiver<WorkerMsg>,
        peers: Vec<DelaySender<WorkerMsg>>,
        coord: DelaySender<CoordMsg>,
        snapshots: Arc<SnapshotStore<StateStore>>,
        obs: se_obs::Obs,
    ) -> Self {
        let name = format!("worker{id}");
        let durable = (cfg.durability.mode == DurabilityMode::Wal).then(|| {
            let dir = cfg
                .durability
                .dir
                .as_ref()
                .expect("runtime fills durability.dir at deploy time")
                .join(&name);
            let mut d = DurableStore::open(
                dir,
                name.clone(),
                cfg.chaos.clone(),
                DurableOptions {
                    policy: cfg.durability.fsync,
                    full_snapshot_every: cfg.durability.full_snapshot_every.max(1),
                    skip_crc: cfg.bug == Some(BugLever::WalNoCrc),
                },
            )
            .expect("open durable store");
            d.set_obs(obs.clone());
            d
        });
        Self {
            name,
            id,
            cfg,
            registry,
            store: StateStore::new(),
            buffers: HashMap::new(),
            expected_hops: HashMap::new(),
            reserved: BTreeSet::new(),
            watermark: CommitWatermark::new(),
            deferred: BTreeMap::new(),
            inbox,
            peers,
            coord,
            snapshots,
            read_timer: timer(&obs, "state_read"),
            exec_timer: timer(&obs, "function_execution"),
            buffer_timer: timer(&obs, "state_write_buffer"),
            store_timer: timer(&obs, "state_store"),
            durable,
            obs,
            gen: 0,
            dead: false,
        }
    }

    fn node_name(&self) -> &str {
        &self.name
    }

    /// The message loop; returns when a `Shutdown` message arrives or all
    /// senders disconnect.
    pub fn run(mut self) {
        loop {
            // Everything a worker reacts to is a message (shutdown too), so
            // it blocks with no timer; `None` is closure or a stray wake.
            let Some(msg) = self.inbox.recv_until(None) else {
                if self.inbox.is_closed() {
                    return;
                }
                continue;
            };
            match msg {
                WorkerMsg::Shutdown => return,
                WorkerMsg::Restore {
                    gen,
                    epoch,
                    next_batch,
                } => self.handle_restore(gen, epoch, next_batch),
                // Everything else is fenced by generation and ignored while
                // "crashed".
                m => {
                    if self.dead || self.msg_gen(&m) < self.gen {
                        continue;
                    }
                    self.dispatch(m);
                }
            }
        }
    }

    fn msg_gen(&self, m: &WorkerMsg) -> u64 {
        match m {
            WorkerMsg::Create { gen, .. }
            | WorkerMsg::Exec { gen, .. }
            | WorkerMsg::Reserve { gen, .. }
            | WorkerMsg::Commit { gen, .. }
            | WorkerMsg::Snapshot { gen, .. }
            | WorkerMsg::Migrate { gen, .. }
            | WorkerMsg::Restore { gen, .. } => *gen,
            WorkerMsg::Shutdown => u64::MAX,
        }
    }

    fn dispatch(&mut self, msg: WorkerMsg) {
        match msg {
            WorkerMsg::Create {
                request,
                class,
                key,
                init,
                ..
            } => {
                let result = self.handle_create(&class, &key, init);
                self.send_coord_ctl(CoordMsg::CreateDone {
                    gen: self.gen,
                    request,
                    result,
                });
            }
            WorkerMsg::Exec {
                batch,
                txn,
                hop,
                inv,
                solo,
                ..
            } => self.handle_exec(batch, txn, hop, inv, solo),
            WorkerMsg::Reserve {
                batch,
                txns,
                errors,
                ..
            } => {
                if self
                    .cfg
                    .chaos
                    .should_crash(self.node_name(), CrashPoint::Reserve)
                {
                    self.crash();
                    return;
                }
                self.handle_reserve(batch, &txns, &errors);
            }
            WorkerMsg::Commit {
                batch,
                txns,
                aborted,
                ..
            } => {
                if self
                    .cfg
                    .chaos
                    .should_crash(self.node_name(), CrashPoint::Commit)
                {
                    self.crash();
                    return;
                }
                self.handle_commit(batch, txns, aborted);
            }
            WorkerMsg::Snapshot {
                epoch,
                durable_floor,
                ..
            } => {
                debug_assert!(
                    self.deferred.is_empty(),
                    "snapshots only cut at a drained pipeline \
                     (worker {}, deferred batches {:?}, watermark at {})",
                    self.id,
                    self.deferred.keys().collect::<Vec<_>>(),
                    self.watermark.next_expected()
                );
                // Durable epoch cut first: the marker append (fsynced per
                // policy) is what makes the epoch durable, and costs only
                // the dirty set already in the log — O(dirty), not O(state).
                let durable = self.durable.as_mut().map(|d| {
                    d.cut_epoch(epoch, &self.store).expect("cut durable epoch");
                    if let Some(floor) = durable_floor {
                        d.compact_below(floor).expect("compact WAL");
                    }
                    d.last_durable_epoch()
                });
                self.snapshots
                    .put(epoch, self.node_name(), self.store.clone());
                self.send_coord_ctl(CoordMsg::SnapshotAck {
                    gen: self.gen,
                    epoch,
                    worker: self.id,
                    durable: durable.flatten(),
                });
            }
            WorkerMsg::Migrate { version, .. } => self.handle_migrate(version),
            WorkerMsg::Restore { .. } | WorkerMsg::Shutdown => unreachable!("handled in run()"),
        }
    }

    /// Control-plane send to the coordinator: never faulted (acks of
    /// restore/snapshot/create model reliable infrastructure channels).
    fn send_coord_ctl(&self, msg: CoordMsg) {
        self.coord.send_after(msg, self.cfg.net.f2f_latency(64));
    }

    /// Data-plane send to the coordinator: runs through the chaos seam.
    fn send_coord(&self, msg: CoordMsg) {
        send_with_chaos(
            &self.cfg.chaos,
            Seam::WorkerToCoord,
            &self.cfg.net,
            &self.coord,
            msg,
            self.cfg.net.f2f_latency(64),
        );
    }

    /// Appends to the recorded history, if recording is on.
    fn record(&self, mk: impl FnOnce() -> HistoryEvent) {
        if let Some(h) = &self.cfg.history {
            h.record(mk());
        }
    }

    fn handle_create(
        &mut self,
        class: &str,
        key: &str,
        init: Vec<(String, se_lang::Value)>,
    ) -> Result<(), LangError> {
        let entry = self.registry.active_entry();
        let class_def = &entry.graph.program.class_or_err(class)?.class;
        let r = se_lang::EntityRef::new(class, key);
        let state = class_def.initial_state(key, init);
        if let Some(d) = &mut self.durable {
            d.log_create(r, &state).expect("log create");
        }
        self.store.insert(r, state);
        Ok(())
    }

    /// Entry point for `Exec` messages (roots and chain hops alike): run
    /// now if the batch's predecessor has committed locally, else park it
    /// on the watermark. Deliveries for already-committed batches are
    /// stale (a duplicate that outlived its batch) and dropped.
    fn handle_exec(&mut self, batch: BatchId, txn: TxnId, hop: u32, inv: Invocation, solo: bool) {
        if self.watermark.must_defer(batch) {
            self.deferred
                .entry(batch)
                .or_default()
                .push_back(DeferredExec {
                    txn,
                    hop,
                    inv,
                    solo,
                });
            return;
        }
        if !self.watermark.runnable(batch) {
            // The batch already committed locally: this is a duplicated or
            // quarantined delivery from its past. Re-executing would write
            // into a buffer nobody will ever apply.
            return;
        }
        self.run_exec(batch, txn, hop, inv, solo);
    }

    /// Runs a runnable exec and performs its protocol action.
    ///
    /// Hop-sequence dedup first: chains advance strictly forward, so a
    /// delivery at or below the last executed hop is a duplicate — re-running
    /// it would double-apply effects like `balance += a` through the buffer
    /// overlay. Then the segment runs against the transaction's buffer, the
    /// dedup position advances past its local continuations, and the chain
    /// is reported (solo batches commit first) or forwarded to its next
    /// partition.
    fn run_exec(&mut self, batch: BatchId, txn: TxnId, hop: u32, inv: Invocation, solo: bool) {
        let expected = self
            .expected_hops
            .entry(batch)
            .or_default()
            .entry(txn)
            .or_insert(0);
        if hop < *expected {
            return;
        }
        let mut buffer = self
            .buffers
            .entry(batch)
            .or_default()
            .remove(&txn)
            .unwrap_or_default();
        let Some((next_hop, outcome)) = self.run_segment(hop, inv, &mut buffer) else {
            // A scripted crash fired inside the segment.
            return;
        };
        // Buffer check-in must precede finish_chain: a solo commit applies
        // this buffer, and the reservation round scans it.
        self.buffers.entry(batch).or_default().insert(txn, buffer);
        self.expected_hops
            .entry(batch)
            .or_default()
            .insert(txn, next_hop);
        match outcome {
            SegmentOutcome::Respond(response) => self.finish_chain(batch, txn, response, solo),
            SegmentOutcome::Emit { owner, hop, inv } => {
                let bytes = inv.approx_size();
                send_with_chaos(
                    &self.cfg.chaos,
                    Seam::WorkerToWorker,
                    &self.cfg.net,
                    &self.peers[owner],
                    WorkerMsg::Exec {
                        gen: self.gen,
                        batch,
                        txn,
                        hop,
                        inv,
                        solo,
                    },
                    self.cfg.net.f2f_latency(bytes),
                );
            }
        }
    }

    /// Runs execs whose batch became runnable after a watermark advance.
    fn drain_deferred(&mut self) {
        loop {
            if self.dead {
                return;
            }
            let batch = self.watermark.next_expected();
            let Some(queue) = self.deferred.get_mut(&batch) else {
                return;
            };
            let Some(item) = queue.pop_front() else {
                self.deferred.remove(&batch);
                continue;
            };
            if queue.is_empty() {
                // Drop the entry before running: a solo commit at the end
                // of the exec advances the watermark past this batch,
                // after which the loop would never revisit (and clean) its
                // key.
                self.deferred.remove(&batch);
            }
            self.run_exec(batch, item.txn, item.hop, item.inv, item.solo);
            // A solo commit may have advanced the watermark; re-resolve
            // the runnable batch from scratch. A
            // batch's queue only holds work that arrived before the batch
            // became runnable, so an advance past it cannot strand items.
        }
    }

    /// Chain finished (with a result or an error): report to the
    /// coordinator, and for solo batches decide + commit right here.
    fn finish_chain(&mut self, batch: BatchId, txn: TxnId, response: Response, solo: bool) {
        if solo {
            self.commit_solo(batch, txn, response.result.is_err());
        }
        self.send_coord(CoordMsg::ExecDone {
            gen: self.gen,
            batch,
            txn,
            response,
        });
        if solo {
            // The coordinator counts one CommitAck per worker and batch;
            // peers ack through handle_commit, this worker acks its local
            // application. Sent after ExecDone (same channel, FIFO) so the
            // coordinator has registered the solo batch's completion first.
            self.send_coord(CoordMsg::CommitAck {
                gen: self.gen,
                batch,
                worker: self.id,
            });
            self.drain_deferred();
        }
    }

    /// Commits a single-transaction fallback batch at its final hop. A lone
    /// transaction can never lose a conflict, so the decision is locally
    /// determined: commit unless the chain errored. The worker applies its
    /// own buffered writes, advances its watermark, and broadcasts the
    /// commit record to peers (who hold any remote hops' buffers) — no
    /// coordinator round trip per fallback transaction, which is what lets
    /// consecutive hot-key retries chain back-to-back on the owning worker.
    fn commit_solo(&mut self, batch: BatchId, txn: TxnId, errored: bool) {
        debug_assert!(
            self.watermark.runnable(batch),
            "solo batch {batch} committing out of order"
        );
        let local = self.buffers.remove(&batch);
        self.expected_hops.remove(&batch);
        if !errored {
            if let Some(buffer) = local.and_then(|mut b| b.remove(&txn)) {
                self.apply_writes(batch, buffer);
            }
        }
        self.watermark.advance_past(batch);
        let txns = Arc::new(vec![txn]);
        let aborted: Arc<BTreeSet<TxnId>> = Arc::new(if errored {
            BTreeSet::from([txn])
        } else {
            BTreeSet::new()
        });
        for (peer, sender) in self.peers.iter().enumerate() {
            if peer == self.id {
                continue;
            }
            send_with_chaos(
                &self.cfg.chaos,
                Seam::WorkerToWorker,
                &self.cfg.net,
                sender,
                WorkerMsg::Commit {
                    gen: self.gen,
                    batch,
                    txns: Arc::clone(&txns),
                    aborted: Arc::clone(&aborted),
                },
                self.cfg.net.f2f_latency(64),
            );
        }
    }

    /// The reservation phase: build the local table and report per-txn
    /// conflict flags for locally accessed keys. Errored transactions abort
    /// unconditionally and never commit, so they neither reserve nor need
    /// flags — their buffered writes must not knock out healthy ones.
    fn handle_reserve(&mut self, batch: BatchId, txns: &[TxnId], errors: &BTreeSet<TxnId>) {
        if self.watermark.next_expected() > batch {
            // The batch already committed locally: a duplicate that
            // outlived its round (its `reserved` entry is long cleaned
            // up). Note the guard must NOT require `runnable(batch)` — a
            // worker with no transactions of this batch may legitimately
            // reserve while earlier batches' commits are still in flight
            // to it, and skipping then would starve the coordinator of
            // this partition's flags forever.
            return;
        }
        if !self.reserved.insert(batch) {
            // Duplicate delivery: the original round's flags are already
            // out (the coordinator deduplicates reports per worker).
            return;
        }
        // Test-only regression lever: reverts to the pre-fix behavior
        // (errored chains reserve too), which the history checker must flag
        // as unjustified aborts.
        let reserve_errored = self.cfg.bug == Some(BugLever::ReserveErrored);
        let buffers = self.buffers.get(&batch);
        let buffer_of = |txn: &TxnId| buffers.and_then(|b| b.get(txn));
        let mut table = ReservationTable::new();
        for txn in txns {
            if errors.contains(txn) && !reserve_errored {
                continue;
            }
            if let Some(buf) = buffer_of(txn) {
                table.reserve(*txn, buf);
            }
        }
        if self.cfg.history.is_some() {
            for txn in txns {
                if let Some(buf) = buffer_of(txn) {
                    let worker = self.id;
                    self.record(|| HistoryEvent::Access {
                        worker,
                        batch,
                        txn: *txn,
                        reads: buf.reads.iter().copied().collect(),
                        writes: buf.writes.keys().copied().collect(),
                    });
                }
            }
        }
        let flags: Vec<(TxnId, ConflictFlags)> = txns
            .iter()
            .filter(|txn| !errors.contains(txn))
            .filter_map(|txn| {
                let buf = buffer_of(txn)?;
                Some((
                    *txn,
                    ConflictFlags {
                        waw: table.waw(*txn, buf),
                        raw: table.raw(*txn, buf),
                        war: table.war(*txn, buf),
                    },
                ))
            })
            .collect();
        self.send_coord(CoordMsg::Flags {
            gen: self.gen,
            batch,
            worker: self.id,
            flags,
        });
    }

    /// The commit phase: apply records in batch order (buffering any that
    /// arrive early), then release execs the advance unblocked. Records for
    /// already-committed batches (duplicates) are absorbed by the
    /// watermark.
    fn handle_commit(
        &mut self,
        batch: BatchId,
        txns: Arc<Vec<TxnId>>,
        aborted: Arc<BTreeSet<TxnId>>,
    ) {
        for (batch, (txns, aborted)) in self.watermark.offer(batch, (txns, aborted)) {
            self.apply_commit(batch, &txns, &aborted);
        }
        self.drain_deferred();
    }

    /// Installs one batch's committed writes in ascending id order and
    /// discards everything else.
    fn apply_commit(&mut self, batch: BatchId, txns: &[TxnId], aborted: &BTreeSet<TxnId>) {
        debug_assert!(
            txns.windows(2).all(|w| w[0] < w[1]),
            "commit order must be ascending"
        );
        let mut buffers = self.buffers.remove(&batch).unwrap_or_default();
        self.expected_hops.remove(&batch);
        self.reserved.remove(&batch);
        for txn in txns {
            let Some(buffer) = buffers.remove(txn) else {
                continue;
            };
            if aborted.contains(txn) {
                continue;
            }
            self.apply_writes(batch, buffer);
        }
        self.send_coord(CoordMsg::CommitAck {
            gen: self.gen,
            batch,
            worker: self.id,
        });
    }

    fn apply_writes(&mut self, batch: BatchId, buffer: TxnBuffer) {
        // Write-ahead: the commit record hits the log before the store, so
        // a crash between the two replays the write instead of losing it.
        if let Some(d) = &mut self.durable {
            if !buffer.writes.is_empty() {
                d.log_commit(batch, &buffer.writes).expect("log commit");
            }
        }
        self.store_timer.time(|| {
            for (entity, writes) in buffer.writes {
                for (attr, value) in writes {
                    // Entities written here were read from this store
                    // during execute; they exist unless a concurrent
                    // create raced, which batching forbids.
                    let _ = self.store.apply_write(&entity, attr, value);
                }
            }
        });
    }

    /// The live-upgrade migration pass. Runs with the pipeline fully
    /// drained and the pre-upgrade epoch cut: every entity this partition
    /// owns goes through [`se_ir::VersionEntry::migrate_entity`] (default
    /// backfill, then `__migrate__` as a synthetic single-hop invocation)
    /// and the before→after diffs collect into one batch of writes. The WAL
    /// sees the writes first and then a `VersionCut` marker — a replay that
    /// reaches the marker recovers post-migration state, one that falls
    /// short recovers the pre-upgrade cut (and the coordinator re-arms the
    /// upgrade).
    fn handle_migrate(&mut self, version: u64) {
        let t0 = self.obs.now_ns();
        let entry = self.registry.resolve(version);
        // Snapshot the partition first (O(1) copy-on-write clones): a
        // scripted crash mid-pass wipes the store the loop would otherwise
        // iterate.
        let entities: Vec<(se_lang::EntityRef, se_lang::EntityState)> = self
            .store
            .iter()
            .map(|(r, state)| (*r, state.clone()))
            .collect();
        let mut buffer = TxnBuffer::default();
        let mut migrated = 0u64;
        for (target, before) in entities {
            let Some((after, ran)) = entry.migrate_entity(version, &self.name, target, &before)
            else {
                continue;
            };
            // Migration executes method bodies, so scripted exec-point
            // crashes land here too — the crash-mid-upgrade chaos tests
            // kill a worker with the pass half done (in memory only:
            // nothing below logged a commit yet, so recovery rewinds to
            // the pre-upgrade cut and the coordinator re-arms the upgrade).
            if self
                .cfg
                .chaos
                .should_crash(self.node_name(), CrashPoint::Exec)
            {
                self.crash();
                return;
            }
            buffer.record_effects(&target, &before, &after);
            migrated += u64::from(ran);
        }
        // WAL-first, marker last: the synthetic batch id (`u64::MAX`) never
        // collides with a sealed batch, and replay does not key on batch
        // ids anyway — it applies commit records in log order.
        self.apply_writes(u64::MAX, buffer);
        if let Some(d) = &mut self.durable {
            d.log_version_cut(version).expect("log version cut");
        }
        self.registry.set_active(version);
        self.obs.counter("upgrade.migrated_entities").add(migrated);
        self.obs.stage_span(
            se_obs::Stage::UpgradeMigrate,
            version,
            t0,
            self.obs.now_ns(),
        );
        self.send_coord_ctl(CoordMsg::MigrateAck {
            gen: self.gen,
            version,
            worker: self.id,
        });
    }

    fn crash(&mut self) {
        // Disk outlives the "process": the durable store closes its writer
        // and applies the chaos script's next crash-time disk fault, if any
        // (torn/lost tail, bit flip, vanished base snapshot).
        if let Some(d) = &mut self.durable {
            d.simulate_crash().expect("simulate disk crash");
        }
        // Volatile state dies with the "process".
        self.store = StateStore::new();
        self.buffers.clear();
        self.expected_hops.clear();
        self.reserved.clear();
        self.deferred.clear();
        self.dead = true;
        // Failure notification models the failure detector: not faulted.
        self.send_coord_ctl(CoordMsg::WorkerFailed {
            gen: self.gen,
            worker: self.id,
        });
    }

    fn handle_restore(&mut self, gen: u64, epoch: Option<se_dataflow::Epoch>, next_batch: BatchId) {
        self.gen = gen;
        self.buffers.clear();
        self.expected_hops.clear();
        self.reserved.clear();
        self.deferred.clear();
        self.watermark.reset(next_batch);
        let reached = if let Some(d) = &mut self.durable {
            // Disk recovery: base snapshot + WAL replay to the target cut,
            // stopping early at corruption. Healthy workers recover from
            // disk too — truncating their log at the target is exactly
            // right, since the coordinator replays the source from the
            // target's offset and re-executed batches re-log from there.
            let (state, reached) = d.recover(epoch).expect("recover from disk");
            self.store = state;
            reached
        } else {
            self.store = epoch
                .and_then(|e| self.snapshots.get(e, self.node_name()))
                .unwrap_or_default();
            // The in-memory snapshot is complete by construction: a
            // volatile worker always reaches the requested epoch.
            epoch
        };
        self.dead = false;
        // The next incarnation begins: re-arm the chaos plan's per-node
        // counters so a multi-crash script can kill this worker again.
        self.cfg.chaos.notify_restart(self.node_name());
        self.send_coord_ctl(CoordMsg::RestoreAck {
            gen,
            worker: self.id,
            reached,
        });
    }

    /// The execute phase for one chain segment: the entry hop plus any
    /// same-partition continuations.
    ///
    /// Reads see the committed snapshot overlaid with the transaction's own
    /// buffered writes; effects are recorded in `buffer`, never applied —
    /// Aria defers all writes to the commit phase. Returns the chain
    /// position dedup resumes at (`entry_hop + 1`, advanced further by local
    /// continuations so a later duplicate of the *message* that started
    /// this segment stays below it) and how the segment ended, or `None`
    /// when a scripted crash fired and the worker is dead.
    fn run_segment(
        &mut self,
        entry_hop: u32,
        mut inv: Invocation,
        buffer: &mut TxnBuffer,
    ) -> Option<(u32, SegmentOutcome)> {
        let mut hop = entry_hop;
        let mut next_hop = entry_hop + 1;
        loop {
            // Failure injection: scripted crashes land per executed hop.
            if self
                .cfg
                .chaos
                .should_crash(self.node_name(), CrashPoint::Exec)
            {
                self.crash();
                return None;
            }
            // Synthetic service time, burned on the worker thread.
            se_dataflow::burn(self.cfg.net.scaled(self.cfg.service_time));

            let target = inv.target;
            let request = inv.request;
            let Some(committed) = self.store.get(&target) else {
                let response = Response {
                    request,
                    result: Err(LangError::runtime(format!("unknown entity {target}"))),
                };
                return Some((next_hop, SegmentOutcome::Respond(response)));
            };
            let before = self
                .read_timer
                .time(|| buffer.overlay_read(&target, committed));
            // Copy-on-write: `after` shares storage with `before` until the
            // method actually writes an attribute.
            let mut after = before.clone();
            // Version pinning: the chain runs the program version stamped at
            // its root (continuations inherit it), not whatever is active.
            let entry = self.registry.resolve(inv.version);
            let effect = self.exec_timer.time(|| {
                process_invocation_with(&entry.graph.program, &*entry.runner, inv, &mut after)
            });
            self.buffer_timer
                .time(|| buffer.record_effects(&target, &before, &after));

            match effect {
                StepEffect::Respond(response) => {
                    return Some((next_hop, SegmentOutcome::Respond(response)));
                }
                StepEffect::Emit(next) => {
                    hop += 1;
                    let owner = partition_for(next.target.key.as_str(), self.peers.len());
                    if owner == self.id {
                        // Same-partition call: continue locally, no hop message.
                        next_hop = hop + 1;
                        inv = next;
                        continue;
                    }
                    let outcome = SegmentOutcome::Emit {
                        owner,
                        hop,
                        inv: next,
                    };
                    return Some((next_hop, outcome));
                }
            }
        }
    }
}
