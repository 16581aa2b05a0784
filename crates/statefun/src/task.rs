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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use se_broker::Broker;
use se_chaos::{CrashPoint, HistoryEvent, Seam};
use se_dataflow::{
    send_with_chaos, ComponentTimers, DelayReceiver, DelaySender, Epoch, SnapshotStore, StateStore,
    WaiterMap,
};
use se_ir::{
    Invocation, InvocationKind, RequestId, Response, StepEffect, VersionRegistry, INITIAL_VERSION,
};
use se_lang::{EntityRef, LangError};

use crate::config::{CheckpointMode, StatefunConfig};
use crate::record::{topics, RemoteRequest, RemoteResponse, SfRecord};

/// Shared recovery signal: the controller bumps `gen` and sets the epoch to
/// restore; tasks observe the bump and reset themselves.
#[derive(Debug, Default)]
pub struct RecoveryCtl {
    /// Current fencing generation.
    pub gen: AtomicU64,
    /// Epoch to restore (`None` = initial empty state).
    pub restore_epoch: Mutex<Option<Epoch>>,
}

/// Controller notifications.
#[derive(Debug)]
pub enum CtlMsg {
    /// A task crashed (failure injection fired).
    TaskFailed(usize),
}

/// One partition task (run on its own thread).
pub struct PartitionTask {
    id: usize,
    /// `task<id>`, computed once: the chaos hooks consult it on every
    /// ingress record, and the hot path must not allocate per call.
    name: String,
    cfg: StatefunConfig,
    broker: Broker<SfRecord>,
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
    /// Staged produces (Transactional mode) as `(topic, key, record,
    /// bytes)`: flushed at epoch boundaries.
    staged: Vec<(&'static str, String, SfRecord, usize)>,
    pool_tx: DelaySender<RemoteRequest>,
    resp_rx: DelayReceiver<RemoteResponse>,
    snapshots: Arc<SnapshotStore<StateStore>>,
    timers: Arc<ComponentTimers>,
    recovery: Arc<RecoveryCtl>,
    ctl_tx: DelaySender<CtlMsg>,
    shutdown: Arc<AtomicBool>,
    obs: se_obs::Obs,
    gen: u64,
    dead: bool,
    last_epoch: Epoch,
}

impl PartitionTask {
    /// Creates a partition task.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        cfg: StatefunConfig,
        broker: Broker<SfRecord>,
        registry: Arc<VersionRegistry>,
        waiters: Arc<WaiterMap>,
        pool_tx: DelaySender<RemoteRequest>,
        resp_rx: DelayReceiver<RemoteResponse>,
        snapshots: Arc<SnapshotStore<StateStore>>,
        timers: Arc<ComponentTimers>,
        recovery: Arc<RecoveryCtl>,
        ctl_tx: DelaySender<CtlMsg>,
        shutdown: Arc<AtomicBool>,
        obs: se_obs::Obs,
    ) -> Self {
        Self {
            id,
            name: format!("task{id}"),
            cfg,
            broker,
            registry,
            active_version: INITIAL_VERSION,
            upgrades: Vec::new(),
            waiters,
            store: StateStore::new(),
            offset: 0,
            inflight: HashMap::new(),
            next_seq: 0,
            waiting: HashMap::new(),
            staged: Vec::new(),
            pool_tx,
            resp_rx,
            snapshots,
            timers,
            recovery,
            ctl_tx,
            shutdown,
            obs,
            gen: 0,
            dead: false,
            last_epoch: 0,
        }
    }

    fn transactional(&self) -> bool {
        matches!(self.cfg.checkpoint, CheckpointMode::Transactional { .. })
    }

    /// The task loop: event-driven, one turn per event.
    ///
    /// A turn applies every remote response already due and handles every
    /// ingress record already visible. Only a turn that found no record
    /// blocks, on the response channel, until one of: a **response** comes
    /// due; a **wake** — the broker fires this channel's waker on every
    /// produce to the task's ingress partition, the controller when it
    /// bumps the recovery generation, the runtime at shutdown; or the next
    /// ingress record's **`visible_at`**, the one instant nobody announces
    /// (a produce wakes the task when it happens, which with a broker hop
    /// is before the record may be consumed). A crashed task waits the same
    /// way, with nothing to time: only the generation bump (or shutdown)
    /// concerns it. A busy task never sleeps, an idle one never wakes.
    pub fn run(mut self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Recovery signal?
            let g = self.recovery.gen.load(Ordering::SeqCst);
            if g > self.gen {
                self.restore(g);
            }
            if self.dead {
                // Whatever still arrives belongs to the dead incarnation.
                let _ = self.resp_rx.recv_until(None);
                continue;
            }

            // Apply due remote responses first (they unblock waiting keys).
            while let Some(resp) = self.resp_rx.try_recv() {
                self.on_response(resp);
            }

            let records = match self.broker.fetch(topics::INGRESS, self.id, self.offset, 32) {
                Ok(r) => r,
                Err(_) => return,
            };
            if records.is_empty() {
                let next = self
                    .broker
                    .next_visible_at(topics::INGRESS, self.id, self.offset);
                let Ok(visible_at) = next else {
                    return;
                };
                if let Some(resp) = self.resp_rx.recv_until(visible_at) {
                    self.on_response(resp);
                }
                continue;
            }
            for rec in records {
                self.offset = rec.offset + 1;
                self.handle_record(rec.value);
                if self.dead || self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
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
                self.on_barrier(epoch);
            }
            SfRecord::Upgrade { version, request } => {
                // Crash-mid-upgrade window: the marker consumed but the
                // switch not yet applied (or applied in memory only, ahead
                // of the next durable barrier).
                if self.cfg.chaos.should_crash(&self.name, CrashPoint::Commit) {
                    self.crash();
                    return;
                }
                self.on_upgrade(version, request);
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
        let shipped = self
            .timers
            .time("state_serialization", || state.deep_clone());
        let bytes = shipped.approx_size() + inv.approx_size();
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
        send_with_chaos(
            &self.cfg.chaos,
            Seam::RemoteRequest,
            &self.cfg.net,
            &self.pool_tx,
            RemoteRequest {
                gen: self.gen,
                task: self.id,
                seq,
                inv,
                state: shipped,
            },
            self.cfg.net.remote_fn_latency(bytes),
        );
    }

    fn on_response(&mut self, resp: RemoteResponse) {
        // Accept only the response to the entity's *current* outstanding
        // dispatch of this incarnation: a duplicated request produces two
        // responses, and a quarantined response can arrive after a newer
        // dispatch or a recovery — any of them would install stale state or
        // double-release the per-key queue.
        if resp.gen != self.gen || self.inflight.get(&resp.entity) != Some(&resp.seq) {
            return;
        }
        // Install the returned state into managed operator state.
        self.timers.time("state_storage", || {
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
                let key = next.target.key;
                self.emit(topics::INGRESS, key.as_str(), SfRecord::Invoke(next), bytes);
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
    }

    fn emit_egress(&mut self, r: Response) {
        // The egress topic has a single partition, so the key is
        // informational; format the request id into a stack buffer instead
        // of paying a heap allocation per response record.
        let mut buf = [0u8; 20];
        let key = fmt_u64(r.request.0, &mut buf);
        self.emit(topics::EGRESS, key, SfRecord::Response(r), 64);
    }

    fn emit(&mut self, topic: &'static str, key: &str, rec: SfRecord, bytes: usize) {
        if self.transactional() {
            self.staged.push((topic, key.to_owned(), rec, bytes));
        } else {
            let _ = self.broker.produce(topic, key, rec, bytes);
        }
    }

    /// The sync point checkpoint barriers and live upgrades share: waits
    /// until no dispatch is in flight, applying responses as they arrive.
    fn drain_inflight(&mut self) {
        // The deadline avoids wedging the partition on a lost response;
        // after shutdown the remote workers may be gone for good.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !self.inflight.is_empty()
            && std::time::Instant::now() < deadline
            && !self.shutdown.load(Ordering::SeqCst)
        {
            if let Some(resp) = self.resp_rx.recv_until(Some(deadline)) {
                self.on_response(resp);
            }
        }
    }

    /// Aligned barrier: drain in-flight work, snapshot, then flush staged
    /// produces — flush-after-snapshot makes replay duplicate-free.
    fn on_barrier(&mut self, epoch: Epoch) {
        if !self.transactional() || epoch <= self.last_epoch {
            return;
        }
        // Every dispatched invocation must complete so its effects are in
        // the snapshot.
        self.drain_inflight();
        self.snapshots.put(epoch, &self.name, self.store.clone());
        self.snapshots
            .put_source_offset(epoch, &self.name, self.offset);
        self.last_epoch = epoch;
        // Flush the epoch's staged outputs.
        for (topic, key, rec, bytes) in std::mem::take(&mut self.staged) {
            let _ = self.broker.produce(topic, &key, rec, bytes);
        }
    }

    /// Applies a live upgrade: aligned drain (the same sync point a
    /// checkpoint barrier uses — the switch lands with zero dispatches in
    /// flight), [`se_ir::VersionEntry::migrate_entity`] over this
    /// partition's slice of the store, then the root-stamping version bump.
    /// Completing `request` acknowledges the switch straight to the blocked
    /// `redeploy` call, which returns once every partition has switched. A
    /// task that crashes mid-upgrade re-applies the switch on replay; its
    /// acknowledgement then finds no waiter, which is harmless.
    fn on_upgrade(&mut self, version: u64, request: RequestId) {
        // Replayed or duplicated marker for a version this incarnation
        // already runs (e.g. the restored snapshot post-dates the switch):
        // nothing to do, and its acknowledgement was already given.
        if version <= self.active_version {
            return;
        }
        let t0 = self.obs.now_ns();
        self.drain_inflight();
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
            self.timers.time("state_storage", || {
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
        self.dead = true;
        self.ctl_tx.send(CtlMsg::TaskFailed(self.id));
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

/// Formats `n` in decimal into `buf`, returning the textual slice — a
/// heap-allocation-free `u64::to_string` for per-record routing keys.
fn fmt_u64(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::fmt_u64;

    #[test]
    fn fmt_u64_matches_to_string() {
        for n in [0u64, 1, 9, 10, 42, 12345, u64::MAX] {
            let mut buf = [0u8; 20];
            assert_eq!(fmt_u64(n, &mut buf), n.to_string());
        }
    }
}
