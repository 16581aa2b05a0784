//! A partition task: the Flink-side stateful operator of the StateFun-style
//! deployment.
//!
//! Each task owns one partition of the managed operator state for *every*
//! entity class, consumes its ingress partition, ships `(event, state)` to
//! the remote function runtime, installs returned state, and routes effects:
//! continuations loop back through the broker ("we use Kafka to re-insert an
//! event to the streaming dataflow, thereby avoiding cyclic dataflows", §3),
//! responses go to the egress topic.
//!
//! Statefun serializes invocations **per key** (an entity processes one
//! event at a time) but provides no cross-entity coordination: interleaved
//! split-function chains can observe each other's partial effects — the
//! race the paper explicitly acknowledges (§3). `tests` in this crate and
//! the `statefun_anomaly` integration test demonstrate it.
//!
//! A task is a handler on the engine thread that hosts it (see
//! [`crate::runtime`]). Its turn (`PartitionTask::turn`) applies a begun
//! recovery and reads the ingress records already visible; a remote
//! response reaches it as a message (`PartitionTask::on_response`). What it
//! sends — a [`RemoteRequest`] per dispatch, a crash notice to the
//! controller — it pushes onto its outbox, and the thread posts it. The
//! broker is shared memory: the task produces to it directly, through the
//! topic handles deploy resolved, and a produce to its ingress partition
//! fires its thread's waker.
//!
//! Checkpoint barriers and live upgrades are aligned: they run with no
//! dispatch in flight. A task that reads one while dispatches are out holds
//! it, reads no further ingress, and runs it on the turn its last in-flight
//! response installs. Nothing blocks, so a remote worker on the same thread
//! runs the dispatches the task waits for.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use se_broker::{ConsumerRecord, Topic};
use se_chaos::{CrashPoint, HistoryEvent};
use se_dataflow::{timer, EngineCore, Epoch, SnapshotStore, StateStore, WaiterMap};
use se_ir::{
    Invocation, InvocationKind, RequestId, Response, StepEffect, VersionRegistry, INITIAL_VERSION,
};
use se_lang::{EntityRef, LangError};

use crate::config::{CheckpointMode, StatefunConfig};
use crate::record::{Envelope, RemoteRequest, RemoteResponse, SfRecord};

/// Shared recovery signal: the controller bumps `gen` and sets the epoch to
/// restore; tasks observe the bump and reset themselves.
#[derive(Debug, Default)]
pub struct RecoveryCtl {
    /// Current fencing generation.
    pub gen: AtomicU64,
    /// Epoch to restore (`None` = initial empty state). Its lock also
    /// orders recovery against snapshots and truncation: see
    /// [`RecoveryCtl::put_snapshot`] and [`RecoveryCtl::replay_floor`].
    pub restore_epoch: Mutex<Option<Epoch>>,
}

impl RecoveryCtl {
    /// Starts a recovery: every task restores the latest complete epoch.
    /// The later epochs are all incomplete; what the failed generation
    /// contributed to them is dropped, so each completes again only once
    /// every task has restored and replayed its barrier. Until then the
    /// restored epoch is the latest complete one and cannot be pruned.
    pub fn begin(&self, snapshots: &SnapshotStore<StateStore>) {
        let mut restore = self.restore_epoch.lock();
        *restore = snapshots.latest_complete();
        snapshots.discard_after(*restore);
        self.gen.fetch_add(1, Ordering::SeqCst);
    }

    /// Contributes `task`'s state and ingress `offset` to `epoch`, unless
    /// a recovery has begun that generation `gen` has not applied yet: that
    /// incarnation is dead, and a snapshot from it could complete an epoch
    /// before every task has restored. Returns whether it was stored.
    pub fn put_snapshot(
        &self,
        gen: u64,
        snapshots: &SnapshotStore<StateStore>,
        task: &str,
        epoch: Epoch,
        state: StateStore,
        offset: u64,
    ) -> bool {
        let _restore = self.restore_epoch.lock();
        if self.gen.load(Ordering::SeqCst) != gen {
            return false;
        }
        snapshots.put(epoch, task, state);
        snapshots.put_source_offset(epoch, task, offset);
        true
    }

    /// The lowest ingress offset `task`, running in generation `gen`, can
    /// be rewound to: its offset in the latest complete epoch. `None` while
    /// no epoch is complete, or once a recovery has begun that generation
    /// `gen` has not applied yet. Recovery picks the latest complete epoch
    /// *when it begins*, and that only grows; reading both under one lock
    /// keeps a task that is still finishing its batch from truncating at an
    /// epoch that completed after the recovery chose an older one.
    pub fn replay_floor(
        &self,
        gen: u64,
        snapshots: &SnapshotStore<StateStore>,
        task: &str,
    ) -> Option<u64> {
        let _restore = self.restore_epoch.lock();
        if self.gen.load(Ordering::SeqCst) != gen {
            return None;
        }
        let epoch = snapshots.latest_complete()?;
        snapshots.source_offset(epoch, task)
    }
}

/// An ingress record that runs with no dispatch in flight: a checkpoint
/// barrier of an epoch, or a live upgrade to a version, acknowledged to a
/// request.
enum Aligned {
    Barrier(Epoch),
    Upgrade(u64, RequestId),
}

/// One partition task.
pub struct PartitionTask {
    id: usize,
    /// `task<id>`, computed once: the chaos hooks consult it on every
    /// ingress record, and the hot path must not allocate per call.
    name: String,
    cfg: StatefunConfig,
    /// The ingress topic: this task reads partition `id`, and a
    /// continuation goes to its target's partition.
    ingress: Topic<SfRecord>,
    /// The egress topic, one partition: responses to clients.
    egress: Topic<SfRecord>,
    /// All live program versions: roots are stamped with this task's
    /// [`PartitionTask::active_version`]; in-flight and queued work resolves
    /// through the registry at whatever version its root was stamped with.
    registry: Arc<VersionRegistry>,
    /// The version this partition stamps on newly arriving roots. Bumped by
    /// [`SfRecord::Upgrade`] after the aligned drain + migration pass;
    /// rewound on restore to match the replayed prefix.
    active_version: u64,
    /// Applied upgrades as `(ingress offset after the record, version)`,
    /// ascending. Survives crashes (it mirrors what the replayed log will
    /// redo): restore keeps entries at or below the restored offset and
    /// replay re-applies the rest.
    upgrades: Vec<(u64, u64)>,
    /// The runtime's waiter map, where each applied `Upgrade` marker is
    /// acknowledged to the blocked `redeploy` call.
    waiters: Arc<WaiterMap>,
    store: StateStore,
    offset: u64,
    /// Outstanding dispatch per entity: the sequence number a response must
    /// echo to be accepted (duplicates and stale responses fail the match).
    inflight: HashMap<EntityRef, u64>,
    /// Monotonic dispatch counter feeding `inflight` sequence numbers.
    next_seq: u64,
    waiting: HashMap<EntityRef, VecDeque<Invocation>>,
    /// Staged produces (Transactional mode) as `(partition, record,
    /// bytes)`, each to its record's topic: flushed at epoch boundaries.
    staged: Vec<(usize, SfRecord, usize)>,
    /// A barrier or upgrade read while dispatches were in flight: it runs
    /// once the last of them installs, and no ingress is read until then.
    held: Option<Aligned>,
    /// When the task wants a turn with no message: once its next ingress
    /// record shows, the one instant nobody announces (a produce wakes the
    /// thread when it happens, which with a broker hop is before the record
    /// may be consumed).
    pub(crate) next: Option<Instant>,
    /// The dispatches and crash notices the engine thread posts.
    pub(crate) out: Vec<Envelope>,
    snapshots: Arc<SnapshotStore<StateStore>>,
    /// The component timers this task feeds (`timer.*` histograms).
    serialization_timer: Arc<se_obs::Histogram>,
    storage_timer: Arc<se_obs::Histogram>,
    /// `statefun.log_truncated`: ingress records freed below the floor.
    log_truncated: se_obs::Counter,
    recovery: Arc<RecoveryCtl>,
    obs: se_obs::Obs,
    gen: u64,
    dead: bool,
    last_epoch: Epoch,
}

impl PartitionTask {
    /// Partition task `id` of the deployment `core`, consuming partition
    /// `id` of `ingress` and answering on `egress`.
    pub fn new(
        id: usize,
        cfg: StatefunConfig,
        ingress: &Topic<SfRecord>,
        egress: &Topic<SfRecord>,
        core: &EngineCore,
        recovery: Arc<RecoveryCtl>,
    ) -> Self {
        let obs = core.obs.clone();
        Self {
            id,
            name: format!("task{id}"),
            cfg,
            ingress: ingress.clone(),
            egress: egress.clone(),
            registry: Arc::clone(&core.registry),
            active_version: INITIAL_VERSION,
            upgrades: Vec::new(),
            waiters: Arc::clone(&core.waiters),
            store: StateStore::new(),
            offset: 0,
            inflight: HashMap::new(),
            next_seq: 0,
            waiting: HashMap::new(),
            staged: Vec::new(),
            held: None,
            next: None,
            out: Vec::new(),
            snapshots: Arc::clone(&core.snapshots),
            serialization_timer: timer(&obs, "state_serialization"),
            storage_timer: timer(&obs, "state_storage"),
            log_truncated: obs.counter("statefun.log_truncated"),
            recovery,
            obs,
            gen: 0,
            dead: false,
            last_epoch: 0,
        }
    }

    fn transactional(&self) -> bool {
        matches!(self.cfg.checkpoint, CheckpointMode::Transactional { .. })
    }

    /// The task's index, which is also its ingress partition.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// The task's turn: applies a recovery the controller has begun, then
    /// handles the ingress records already visible — unless it is crashed
    /// (only a recovery concerns it then) or holds an aligned record.
    pub(crate) fn turn(&mut self) {
        let g = self.recovery.gen.load(Ordering::SeqCst);
        if g > self.gen {
            self.restore(g);
        }
        self.next = None;
        if self.dead || self.held.is_some() {
            return;
        }
        if let Ok(records) = self.ingress.fetch(self.id, self.offset, 32) {
            self.handle_batch(records);
        }
        if !self.dead && self.held.is_none() {
            let next = self.ingress.next_visible_at(self.id, self.offset);
            self.next = next.ok().flatten();
        }
    }

    /// Handles one fetched batch in offset order, up to a crash or a held
    /// record; the rest is fetched again.
    fn handle_batch(&mut self, records: Vec<ConsumerRecord<SfRecord>>) {
        for rec in records {
            self.offset = rec.offset + 1;
            self.handle_record(rec.value);
            if self.dead || self.held.is_some() {
                break;
            }
        }
        // Without checkpoints nothing ever rewinds (deploy refuses crash
        // scripts), so what this task has read is garbage.
        if !self.transactional() {
            self.truncate_below(self.offset);
        }
    }

    /// Frees this task's ingress records below `offset`.
    fn truncate_below(&self, offset: u64) {
        if let Ok(n) = self.ingress.truncate_below(self.id, offset) {
            self.log_truncated.add(n);
        }
    }

    fn handle_record(&mut self, rec: SfRecord) {
        match rec {
            SfRecord::Create {
                request,
                class,
                key,
                init,
            } => {
                let entry = self.registry.resolve(self.active_version);
                let result = match entry.graph.program.class_or_err(&class) {
                    Ok(c) => {
                        let r = EntityRef::new(&class, &key);
                        self.store.insert(r, c.class.initial_state(r.key, init));
                        Ok(se_lang::Value::Unit)
                    }
                    Err(e) => Err(e),
                };
                self.emit_egress(Response { request, result });
            }
            SfRecord::Invoke(inv) => {
                if self.cfg.chaos.should_crash(&self.name, CrashPoint::Exec) {
                    self.crash();
                    return;
                }
                self.dispatch_or_queue(inv);
            }
            SfRecord::Barrier { epoch } => {
                // A crash while a checkpoint barrier drains — mid-epoch,
                // staged produces unflushed — is the window exactly-once
                // recovery must cover.
                if self.cfg.chaos.should_crash(&self.name, CrashPoint::Commit) {
                    self.crash();
                    return;
                }
                if self.transactional() && epoch > self.last_epoch {
                    self.align(Aligned::Barrier(epoch));
                }
            }
            SfRecord::Upgrade { version, request } => {
                // Crash-mid-upgrade window: the marker consumed but the
                // switch not yet applied (or applied in memory only, ahead
                // of the next durable barrier).
                if self.cfg.chaos.should_crash(&self.name, CrashPoint::Commit) {
                    self.crash();
                    return;
                }
                // A replayed or duplicated marker for a version this
                // incarnation already runs (e.g. the restored snapshot
                // post-dates the switch) needs nothing, and its
                // acknowledgement was already given.
                if version > self.active_version {
                    self.align(Aligned::Upgrade(version, request));
                }
            }
            SfRecord::Response(_) => { /* egress records never reach ingress */ }
        }
    }

    /// Per-key serialization: one in-flight invocation per entity.
    fn dispatch_or_queue(&mut self, mut inv: Invocation) {
        // Version stamping happens at arrival, for roots only: requests
        // ordered before the `Upgrade` marker in this partition's log run
        // the old version even if per-key queueing delays their dispatch
        // past the switch; continuations keep the version their root was
        // stamped with (the pinning that lets in-flight chains drain).
        if inv.stack.is_empty() && matches!(inv.kind, InvocationKind::Start { .. }) {
            inv.version = self.active_version;
        }
        let target = inv.target;
        if self.inflight.contains_key(&target) {
            self.waiting.entry(target).or_default().push_back(inv);
        } else {
            self.dispatch(inv);
        }
    }

    fn dispatch(&mut self, inv: Invocation) {
        let target = inv.target;
        let Some(state) = self.store.get(&target) else {
            self.emit_egress(Response {
                request: inv.request,
                result: Err(LangError::runtime(format!("unknown entity {target}"))),
            });
            return;
        };
        // Serialize the state for shipping to the remote runtime. This is a
        // *materialized* copy on purpose: entity state is copy-on-write, so
        // a plain clone would be a refcount bump and the experiment's
        // state-serialization component would measure nothing.
        let shipped = self.serialization_timer.time(|| state.deep_clone());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.insert(target, seq);
        if let Some(h) = &self.cfg.history {
            h.record(HistoryEvent::SfDispatch {
                task: self.id,
                seq,
                entity: target,
                method: inv.method.to_string(),
            });
        }
        self.out.push(Envelope::Request(RemoteRequest {
            gen: self.gen,
            task: self.id,
            seq,
            inv,
            state: shipped,
        }));
    }

    /// Installs a remote response, and runs a held aligned record once no
    /// dispatch is left in flight.
    pub(crate) fn on_response(&mut self, resp: RemoteResponse) {
        // Accept only the response to the entity's *current* outstanding
        // dispatch of this incarnation: a duplicated request produces two
        // responses, and a quarantined response can arrive after a newer
        // dispatch or a recovery — any of them would install stale state or
        // double-release the per-key queue.
        if resp.gen != self.gen || self.inflight.get(&resp.entity) != Some(&resp.seq) {
            return;
        }
        // Install the returned state into managed operator state.
        self.storage_timer.time(|| {
            self.store.insert(resp.entity, resp.new_state);
        });
        self.inflight.remove(&resp.entity);
        if let Some(h) = &self.cfg.history {
            h.record(HistoryEvent::SfInstall {
                task: self.id,
                seq: resp.seq,
                entity: resp.entity,
            });
        }
        match resp.effect {
            StepEffect::Emit(next) => {
                // Continuation loops back through the broker — the Kafka
                // round trip the paper attributes StateFun's latency to.
                let bytes = next.approx_size();
                let partition = self.ingress.partition_for(next.target.key.as_str());
                self.emit(partition, SfRecord::Invoke(next), bytes);
            }
            StepEffect::Respond(r) => self.emit_egress(r),
        }
        // A queued invocation for this key may now proceed.
        if let Some(q) = self.waiting.get_mut(&resp.entity) {
            if let Some(inv) = q.pop_front() {
                if q.is_empty() {
                    self.waiting.remove(&resp.entity);
                }
                self.dispatch(inv);
            } else {
                self.waiting.remove(&resp.entity);
            }
        }
        if self.inflight.is_empty() {
            if let Some(rec) = self.held.take() {
                self.run_aligned(rec);
            }
        }
    }

    fn emit_egress(&mut self, r: Response) {
        self.emit(0, SfRecord::Response(r), 64);
    }

    /// Produces `rec` to `partition` of its topic — egress for a response,
    /// else ingress — now, or at the next barrier in Transactional mode.
    fn emit(&mut self, partition: usize, rec: SfRecord, bytes: usize) {
        if self.transactional() {
            self.staged.push((partition, rec, bytes));
        } else {
            self.produce(partition, rec, bytes);
        }
    }

    fn produce(&self, partition: usize, rec: SfRecord, bytes: usize) {
        let topic = match rec {
            SfRecord::Response(_) => &self.egress,
            _ => &self.ingress,
        };
        let _ = topic.produce_to(partition, rec, bytes);
    }

    /// The sync point checkpoint barriers and live upgrades share: `rec`
    /// runs with no dispatch in flight, now or once the last one installs.
    fn align(&mut self, rec: Aligned) {
        if self.inflight.is_empty() {
            self.run_aligned(rec);
        } else {
            self.held = Some(rec);
        }
    }

    fn run_aligned(&mut self, rec: Aligned) {
        match rec {
            Aligned::Barrier(epoch) => self.on_barrier(epoch),
            Aligned::Upgrade(version, request) => self.on_upgrade(version, request),
        }
    }

    /// Aligned barrier: every dispatched invocation has completed, so its
    /// effects are in the snapshot; then flush staged produces —
    /// flush-after-snapshot makes replay duplicate-free.
    fn on_barrier(&mut self, epoch: Epoch) {
        let state = self.store.clone();
        if !self.recovery.put_snapshot(
            self.gen,
            &self.snapshots,
            &self.name,
            epoch,
            state,
            self.offset,
        ) {
            // A recovery has begun: drop the epoch as a crash would, the
            // restore replays it.
            return;
        }
        self.last_epoch = epoch;
        // Flush the epoch's staged outputs.
        for (partition, rec, bytes) in std::mem::take(&mut self.staged) {
            self.produce(partition, rec, bytes);
        }
        // Recovery rewinds to the latest complete epoch or a later one, so
        // this task's ingress below its offset there is never read again.
        // After a recovery an epoch completes only once every task has
        // replayed its barrier, so that offset is not above this task's
        // own; the `min` keeps it so, as a task never frees what it has yet
        // to read.
        if let Some(floor) = self
            .recovery
            .replay_floor(self.gen, &self.snapshots, &self.name)
        {
            self.truncate_below(floor.min(self.offset));
        }
    }

    /// Applies a live upgrade at the sync point a checkpoint barrier uses —
    /// the switch lands with zero dispatches in flight:
    /// [`se_ir::VersionEntry::migrate_entity`] over this
    /// partition's slice of the store, then the root-stamping version bump.
    /// Completing `request` acknowledges the switch straight to the blocked
    /// `redeploy` call, which returns once every partition has switched. A
    /// task that crashes mid-upgrade re-applies the switch on replay; its
    /// acknowledgement then finds no waiter, which is harmless.
    fn on_upgrade(&mut self, version: u64, request: RequestId) {
        let t0 = self.obs.now_ns();
        let entry = self.registry.resolve(version);
        // O(1) copy-on-write clones: the pass replaces entries as it goes.
        let entities: Vec<(EntityRef, se_lang::EntityState)> = self
            .store
            .iter()
            .map(|(r, state)| (*r, state.clone()))
            .collect();
        let mut migrated = 0u64;
        for (target, before) in entities {
            let Some((after, ran)) = entry.migrate_entity(version, &self.name, target, &before)
            else {
                continue;
            };
            // Migration executes method bodies: scripted exec-point crashes
            // land here too, leaving the pass half applied in memory — the
            // replayed `Upgrade` record redoes it from the restored state.
            if self.cfg.chaos.should_crash(&self.name, CrashPoint::Exec) {
                self.crash();
                return;
            }
            self.storage_timer.time(|| {
                self.store.insert(target, after);
            });
            migrated += u64::from(ran);
        }
        self.active_version = version;
        self.upgrades.push((self.offset, version));
        self.obs.counter("upgrade.migrated_entities").add(migrated);
        self.obs.stage_span(
            se_obs::Stage::UpgradeMigrate,
            version,
            t0,
            self.obs.now_ns(),
        );
        if let Some(h) = &self.cfg.history {
            h.record(HistoryEvent::SfUpgrade {
                task: self.id,
                version,
            });
        }
        self.waiters.complete(request, Ok(se_lang::Value::Unit));
    }

    fn crash(&mut self) {
        self.store = StateStore::new();
        self.inflight.clear();
        self.waiting.clear();
        self.staged.clear();
        self.held = None;
        self.dead = true;
        self.out.push(Envelope::TaskFailed(self.id));
    }

    fn restore(&mut self, gen: u64) {
        let epoch = *self.recovery.restore_epoch.lock();
        self.store = epoch
            .and_then(|e| self.snapshots.get(e, &self.name))
            .unwrap_or_default();
        self.offset = epoch
            .and_then(|e| self.snapshots.source_offset(e, &self.name))
            .unwrap_or(0);
        self.last_epoch = epoch.unwrap_or(0);
        self.inflight.clear();
        self.waiting.clear();
        self.staged.clear();
        self.held = None;
        // Rewind upgrades past the restored offset: the replayed log will
        // re-deliver their `Upgrade` records and redo the migration from
        // the restored (pre-upgrade) state. Upgrades at or below the offset
        // are inside the snapshot and stay committed.
        self.upgrades
            .retain(|(applied_at, _)| *applied_at <= self.offset);
        self.active_version = self
            .upgrades
            .last()
            .map(|(_, v)| *v)
            .unwrap_or(INITIAL_VERSION);
        self.gen = gen;
        self.dead = false;
        // The next incarnation begins: re-arm per-node chaos counters so a
        // multi-crash script can kill this task again.
        self.cfg.chaos.notify_restart(&self.name);
        if let Some(h) = &self.cfg.history {
            h.record(HistoryEvent::SfRecovery { task: self.id, gen });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::record::topics;

    #[test]
    fn replay_floor_is_fenced_by_a_begun_recovery() {
        let snapshots = SnapshotStore::new();
        let ctl = RecoveryCtl::default();
        assert_eq!(
            ctl.replay_floor(0, &snapshots, "task0"),
            None,
            "no epoch yet"
        );
        snapshots.begin_epoch(1, 1);
        snapshots.put(1, "task0", StateStore::new());
        snapshots.put_source_offset(1, "task0", 7);
        assert_eq!(ctl.replay_floor(0, &snapshots, "task0"), Some(7));
        ctl.begin(&snapshots);
        assert_eq!(*ctl.restore_epoch.lock(), Some(1));
        // Until the task applies the recovery, it may not truncate at all:
        // the epoch recovery chose is fixed, later ones may complete.
        assert_eq!(ctl.replay_floor(0, &snapshots, "task0"), None);
        assert_eq!(ctl.replay_floor(1, &snapshots, "task0"), Some(7));
    }

    /// Two partition tasks over a zero-latency broker, each partition
    /// holding barriers 1–3 (barrier `e` at offset `e - 1`, so a task
    /// snapshots offset `e`). task0 has passed all three, task1 only the
    /// first, and task0 has crashed: the recovery restores epoch 1.
    struct Rig {
        _core: se_dataflow::EngineCore,
        ingress: Topic<SfRecord>,
        snapshots: Arc<SnapshotStore<StateStore>>,
        recovery: Arc<RecoveryCtl>,
        tasks: Vec<PartitionTask>,
    }

    impl Rig {
        fn after_task0_crashed() -> Self {
            let mut cfg = StatefunConfig::fast_test(2);
            cfg.checkpoint = CheckpointMode::Transactional {
                interval: Duration::from_secs(3600),
            };
            cfg.net.time_scale = 0.0;
            let graph = se_compiler::compile(&se_lang::programs::counter_program()).unwrap();
            let core = se_dataflow::EngineCore::new(graph, &cfg.obs);
            let broker = se_broker::Broker::new(cfg.net.clone());
            broker.create_topic(topics::INGRESS, 2);
            broker.create_topic(topics::EGRESS, 1);
            let ingress = broker.topic(topics::INGRESS).unwrap();
            let egress = broker.topic(topics::EGRESS).unwrap();
            let recovery = Arc::new(RecoveryCtl::default());
            let snapshots = Arc::clone(&core.snapshots);
            let tasks = (0..2)
                .map(|id| {
                    let recovery = Arc::clone(&recovery);
                    PartitionTask::new(id, cfg.clone(), &ingress, &egress, &core, recovery)
                })
                .collect();
            for epoch in 1..=3 {
                snapshots.begin_epoch(epoch, 2);
                for p in 0..2 {
                    let barrier = SfRecord::Barrier { epoch };
                    ingress.produce_to(p, barrier, 0).unwrap();
                }
            }
            let mut rig = Rig {
                _core: core,
                ingress,
                snapshots,
                recovery,
                tasks,
            };
            rig.consume(1, 1);
            rig.consume(0, 3);
            assert_eq!(rig.snapshots.latest_complete(), Some(1));
            rig.recovery.begin(&rig.snapshots);
            rig
        }

        /// Hands task `id` its next `max` ingress records; the fetch panics
        /// if they lie below the partition's truncation floor.
        fn consume(&mut self, id: usize, max: usize) {
            let task = &mut self.tasks[id];
            let records = self.ingress.fetch(id, task.offset, max).unwrap();
            task.handle_batch(records);
        }

        /// Restores task `id` to epoch 1 and replays it to the end.
        fn restore_and_replay(&mut self, id: usize) {
            let gen = self.recovery.gen.load(Ordering::SeqCst);
            self.tasks[id].restore(gen);
            assert_eq!(self.tasks[id].offset, 1, "epoch 1 is still stored");
            self.consume(id, 32);
            let task = &self.tasks[id];
            assert_eq!((task.offset, task.last_epoch), (3, 3), "replayed");
        }
    }

    /// task1 passes barriers 2 and 3 before it notices the recovery, after
    /// task0 has replayed them. Its late snapshots must not complete the
    /// epochs: epoch 1 would be pruned before task1 restores it.
    #[test]
    fn a_recovery_fences_the_dead_generation_out_of_later_epochs() {
        let mut rig = Rig::after_task0_crashed();
        rig.restore_and_replay(0);
        rig.consume(1, 2);
        assert_eq!(rig.tasks[1].last_epoch, 1, "no snapshot from gen 0");
        assert_eq!(rig.snapshots.latest_complete(), Some(1));
        rig.restore_and_replay(1);
        assert_eq!(rig.snapshots.latest_complete(), Some(3));
    }

    /// task0's snapshots of epochs 2 and 3 predate its crash. Combined with
    /// task1's replay they would complete both epochs, and prune epoch 1,
    /// before task0 has restored it.
    #[test]
    fn a_recovery_discards_the_dead_generations_later_snapshots() {
        let mut rig = Rig::after_task0_crashed();
        assert_eq!(rig.snapshots.source_offset(3, "task0"), None);
        rig.restore_and_replay(1);
        assert_eq!(rig.snapshots.latest_complete(), Some(1), "task0 owes 2");
        rig.restore_and_replay(0);
        assert_eq!(rig.snapshots.latest_complete(), Some(3));
    }
}
