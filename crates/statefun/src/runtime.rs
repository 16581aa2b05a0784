//! Deployment and client API of the StateFun-style runtime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use se_broker::Broker;
use se_dataflow::{
    delay_channel, ComponentTimers, EntityRuntime, ResponseCompleter, ResponseWaiter,
    SnapshotStore, StateStore, Waker,
};
use se_ir::{DataflowGraph, Invocation, InvocationKind, RequestId, VersionRegistry};
use se_lang::{EntityRef, LangError, Value};

use crate::config::{CheckpointMode, StatefunConfig};
use crate::record::{topics, SfRecord};
use crate::remote::run_remote_worker;
use crate::task::{CtlMsg, PartitionTask, RecoveryCtl, UpgradeGate};
use crossbeam::channel::RecvTimeoutError;

/// The newest deployed version: the baseline the next
/// [`StatefunRuntime::redeploy`] compiles against (incremental
/// recompilation + VM bytecode reuse).
struct CurrentDeploy {
    graph: Arc<DataflowGraph>,
    vm: Arc<se_vm::VmProgram>,
}

/// A deployed StateFun-style application.
pub struct StatefunRuntime {
    cfg: StatefunConfig,
    broker: Broker<SfRecord>,
    /// All live program versions, shared with every partition task and
    /// remote worker (see [`VersionRegistry`]).
    registry: Arc<VersionRegistry>,
    /// Baseline for the next incremental redeploy; the lock serializes
    /// concurrent `redeploy` calls.
    current: Mutex<CurrentDeploy>,
    /// Partition-count rendezvous for in-flight upgrades.
    gate: Arc<UpgradeGate>,
    waiters: Arc<Mutex<HashMap<RequestId, ResponseCompleter>>>,
    next_request: AtomicU64,
    shutdown: Arc<AtomicBool>,
    /// One per partition task plus the remote workers' shared queue: what
    /// `shutdown` fires so parked threads see the flag.
    wakers: Vec<Waker>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    snapshots: Arc<SnapshotStore<StateStore>>,
    timers: Arc<ComponentTimers>,
    recovery: Arc<RecoveryCtl>,
    obs: se_obs::Obs,
    obs_snapshots: Mutex<Option<se_obs::PeriodicSnapshots>>,
}

impl StatefunRuntime {
    /// Deploys a compiled dataflow graph on a fresh StateFun-style cluster.
    pub fn deploy(graph: DataflowGraph, cfg: StatefunConfig) -> Self {
        assert!(cfg.partitions > 0 && cfg.remote_workers > 0);
        // Crash injection without checkpoints cannot recover. (Pure message
        // weather — duplicates, delays, outages — is fine either way.)
        assert!(
            !cfg.chaos.has_crashes()
                || matches!(cfg.checkpoint, CheckpointMode::Transactional { .. }),
            "crash injection requires CheckpointMode::Transactional"
        );
        let graph = Arc::new(graph);
        let obs = se_obs::Obs::new(&cfg.obs);
        let obs_snapshots = Mutex::new(obs.spawn_periodic_snapshots());
        // Method bodies are lowered to bytecode once here and shared by all
        // remote function workers.
        let compile_start = obs.now_ns();
        let vm = Arc::new(se_vm::VmProgram::compile(&graph.program));
        obs.stage_span(se_obs::Stage::VmCompile, 0, compile_start, obs.now_ns());
        obs.counter("vm.compile_runs").inc();
        if obs.enabled() {
            se_compiler::stats(&graph).publish(&obs);
        }
        let registry = VersionRegistry::new(Arc::clone(&graph), Arc::clone(&vm) as _);
        obs.gauge("deploy.active_version").set(graph.version as i64);
        let gate = Arc::new(UpgradeGate::default());
        // Outage windows in the chaos script act on broker visibility.
        let broker = Broker::with_chaos(cfg.net.clone(), cfg.chaos.clone());
        broker.create_topic(topics::INGRESS, cfg.partitions);
        broker.create_topic(topics::EGRESS, 1);

        let snapshots = Arc::new(SnapshotStore::new());
        let timers = Arc::new(ComponentTimers::new());
        let recovery = Arc::new(RecoveryCtl::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let waiters: Arc<Mutex<HashMap<RequestId, ResponseCompleter>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let (ctl_tx, ctl_rx) = crossbeam::channel::unbounded::<CtlMsg>();

        // Remote-function channels: one shared request queue, one response
        // channel per partition task.
        let (pool_tx, pool_rx) = delay_channel();
        let pool_rx = Arc::new(pool_rx);
        let mut resp_txs = Vec::with_capacity(cfg.partitions);
        let mut resp_rxs = Vec::with_capacity(cfg.partitions);
        for _ in 0..cfg.partitions {
            let (tx, rx) = delay_channel();
            resp_txs.push(tx);
            resp_rxs.push(rx);
        }

        // A task parks on its response channel; produces to its ingress
        // partition, recovery and shutdown reach it through that channel's
        // waker.
        let task_wakers: Vec<Waker> = resp_rxs.iter().map(|rx| rx.waker()).collect();
        for (id, waker) in task_wakers.iter().enumerate() {
            broker
                .wake_on_produce(topics::INGRESS, id, waker.clone())
                .expect("ingress partition exists");
        }
        let mut wakers = task_wakers.clone();
        wakers.push(pool_rx.waker());

        let mut threads = Vec::new();
        for (id, resp_rx) in resp_rxs.into_iter().enumerate() {
            let task = PartitionTask::new(
                id,
                cfg.clone(),
                broker.clone(),
                Arc::clone(&registry),
                Arc::clone(&gate),
                pool_tx.clone(),
                resp_rx,
                Arc::clone(&snapshots),
                Arc::clone(&timers),
                Arc::clone(&recovery),
                ctl_tx.clone(),
                Arc::clone(&shutdown),
                obs.clone(),
            );
            threads.push(
                std::thread::Builder::new()
                    .name(format!("statefun-task{id}"))
                    .spawn(move || task.run())
                    .expect("spawn task"),
            );
        }
        for id in 0..cfg.remote_workers {
            let cfg2 = cfg.clone();
            let registry2 = Arc::clone(&registry);
            let rx = Arc::clone(&pool_rx);
            let responders = resp_txs.clone();
            let timers2 = Arc::clone(&timers);
            let sd = Arc::clone(&shutdown);
            let obs2 = obs.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("statefun-remote{id}"))
                    .spawn(move || {
                        run_remote_worker(cfg2, registry2, rx, responders, timers2, obs2, sd)
                    })
                    .expect("spawn remote worker"),
            );
        }

        // Egress dispatcher: completes client waiters. Blocks in the broker
        // until a response is visible; `Broker::close` ends the wait.
        {
            let broker2 = broker.clone();
            let waiters2 = Arc::clone(&waiters);
            let sd = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name("statefun-egress".into())
                    .spawn(move || {
                        let mut offset = 0u64;
                        while !sd.load(Ordering::SeqCst) {
                            let records =
                                match broker2.fetch_blocking(topics::EGRESS, 0, offset, 64, None) {
                                    Ok(r) => r,
                                    Err(_) => return,
                                };
                            for rec in records {
                                offset = rec.offset + 1;
                                if let SfRecord::Response(resp) = rec.value {
                                    // First response wins; replayed
                                    // duplicates find no waiter and are
                                    // dropped.
                                    if let Some(c) = waiters2.lock().remove(&resp.request) {
                                        c.complete(resp.result);
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn egress dispatcher"),
            );
        }

        // Checkpoint + recovery controller. Blocks on the control channel
        // until a task reports a failure or the next barrier is due (the
        // one timer it owns). The tasks hold the only senders, so the
        // channel disconnects — and the controller exits — once every task
        // has left at shutdown.
        {
            let broker2 = broker.clone();
            let cfg2 = cfg.clone();
            let snapshots2 = Arc::clone(&snapshots);
            let recovery2 = Arc::clone(&recovery);
            threads.push(
                std::thread::Builder::new()
                    .name("statefun-controller".into())
                    .spawn(move || {
                        let mut epoch = 0u64;
                        let interval = match cfg2.checkpoint {
                            CheckpointMode::Transactional { interval } => Some(interval),
                            CheckpointMode::None => None,
                        };
                        let mut next_barrier = interval.map(|i| Instant::now() + i);
                        loop {
                            let msg = match next_barrier {
                                Some(nb) => ctl_rx
                                    .recv_timeout(nb.saturating_duration_since(Instant::now())),
                                None => ctl_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                            };
                            match msg {
                                Ok(CtlMsg::TaskFailed(_)) => {
                                    *recovery2.restore_epoch.lock() = snapshots2.latest_complete();
                                    recovery2.gen.fetch_add(1, Ordering::SeqCst);
                                    // Every task restores, the parked ones
                                    // (crashed or idle) included.
                                    task_wakers.iter().for_each(Waker::wake);
                                }
                                Err(RecvTimeoutError::Disconnected) => return,
                                Err(RecvTimeoutError::Timeout) => {}
                            }
                            if let (Some(nb), Some(i)) = (next_barrier, interval) {
                                if Instant::now() >= nb {
                                    epoch += 1;
                                    snapshots2.begin_epoch(epoch, cfg2.partitions);
                                    for p in 0..cfg2.partitions {
                                        let _ = broker2.produce_to(
                                            topics::INGRESS,
                                            p,
                                            "",
                                            SfRecord::Barrier { epoch },
                                            0,
                                        );
                                    }
                                    next_barrier = Some(Instant::now() + i);
                                }
                            }
                        }
                    })
                    .expect("spawn controller"),
            );
        }

        Self {
            cfg,
            broker,
            registry,
            current: Mutex::new(CurrentDeploy { graph, vm }),
            gate,
            waiters,
            next_request: AtomicU64::new(1),
            shutdown,
            wakers,
            threads: Mutex::new(threads),
            snapshots,
            timers,
            recovery,
            obs,
            obs_snapshots,
        }
    }

    fn fresh_request(&self) -> RequestId {
        RequestId(self.next_request.fetch_add(1, Ordering::SeqCst))
    }

    /// Registers a fresh request's waiter and produces the record `rec`
    /// builds for it (with its size in bytes) to `key`'s ingress partition.
    /// After `shutdown` no task reads the broker, so a request submitted
    /// then — like one the broker refuses — fails at once instead of
    /// hanging.
    fn submit(
        &self,
        key: &str,
        rec: impl FnOnce(RequestId) -> (SfRecord, usize),
    ) -> ResponseWaiter {
        let request = self.fresh_request();
        let (completer, waiter) = ResponseWaiter::new();
        self.waiters.lock().insert(request, completer);
        // Checked after the insert: a concurrent shutdown either clears this
        // completer with the map or has already set the flag.
        let refused = if self.shutdown.load(Ordering::SeqCst) {
            Some("runtime is shut down".to_string())
        } else {
            let (rec, bytes) = rec(request);
            let produced = self.broker.produce(topics::INGRESS, key, rec, bytes);
            produced.err().map(|e| e.to_string())
        };
        if let Some(e) = refused {
            if let Some(c) = self.waiters.lock().remove(&request) {
                c.complete(Err(LangError::runtime(e)));
            }
        }
        waiter
    }

    /// Per-component timing breakdown (overhead experiment).
    pub fn timers(&self) -> &ComponentTimers {
        &self.timers
    }

    /// The snapshot store (inspected by recovery tests).
    pub fn snapshots(&self) -> &SnapshotStore<StateStore> {
        &self.snapshots
    }

    /// The runtime configuration.
    pub fn config(&self) -> &StatefunConfig {
        &self.cfg
    }

    /// Number of recoveries performed so far.
    pub fn recoveries(&self) -> u64 {
        self.recovery.gen.load(Ordering::SeqCst)
    }

    /// The observability handle (stage histograms, counters, run dir).
    pub fn obs(&self) -> &se_obs::Obs {
        &self.obs
    }

    /// The program version new roots are stamped with once every partition
    /// has applied the most recent upgrade.
    pub fn active_version(&self) -> u64 {
        self.registry.active()
    }

    /// Live code upgrade: compiles `program` incrementally against the
    /// current deploy, registers the new version, and appends an
    /// [`SfRecord::Upgrade`] marker to every ingress partition. Each
    /// partition task applies the switch at its aligned drain boundary
    /// (in-flight dispatches complete first), backfills + migrates its
    /// slice of entity state, and stamps later roots with the new version;
    /// this call blocks until all partitions have switched. In-flight
    /// chains keep the version their root was stamped with until drained.
    pub fn redeploy(&self, program: &se_lang::Program) -> Result<u64, Vec<LangError>> {
        let mut cur = self.current.lock();
        let prev_version = cur.graph.version;
        let compile_start = self.obs.now_ns();
        let (graph, recompile) = se_compiler::compile_upgrade(
            &cur.graph,
            program,
            &se_compiler::CompileOptions::default(),
        )?;
        let graph = Arc::new(graph);
        let vm = Arc::new(se_vm::VmProgram::compile_reusing(
            &graph.program,
            Some((&cur.graph.program, &cur.vm)),
        ));
        let version = graph.version;
        self.obs.stage_span(
            se_obs::Stage::VmCompile,
            version,
            compile_start,
            self.obs.now_ns(),
        );
        self.obs.counter("vm.compile_runs").inc();
        if self.obs.enabled() {
            recompile.publish(&self.obs);
        }
        self.registry
            .insert(version, Arc::clone(&graph), Arc::clone(&vm) as _);
        for p in 0..self.cfg.partitions {
            self.broker
                .produce_to(topics::INGRESS, p, "", SfRecord::Upgrade { version }, 0)
                .map_err(|e| vec![LangError::runtime(e.to_string())])?;
        }
        if !self
            .gate
            .wait(version, self.cfg.partitions, Duration::from_secs(60))
        {
            return Err(vec![LangError::runtime(format!(
                "upgrade to v{version} timed out waiting for partition switchover"
            ))]);
        }
        self.registry.set_active(version);
        self.obs.gauge("deploy.active_version").set(version as i64);
        *cur = CurrentDeploy { graph, vm };
        // Versions below the immediate predecessor have fully drained (the
        // predecessor itself stays resolvable for replay after recovery).
        self.registry.evict_below(prev_version);
        Ok(version)
    }
}

impl EntityRuntime for StatefunRuntime {
    fn name(&self) -> &str {
        "statefun"
    }

    fn create(
        &self,
        class: &str,
        key: &str,
        init: Vec<(String, Value)>,
    ) -> Result<EntityRef, LangError> {
        let waiter = self.submit(key, |request| {
            let rec = SfRecord::Create {
                request,
                class: class.to_owned(),
                key: key.to_owned(),
                init,
            };
            (rec, 128)
        });
        waiter.wait()?;
        Ok(EntityRef::new(class, key))
    }

    fn call_async(&self, target: EntityRef, method: &str, args: Vec<Value>) -> ResponseWaiter {
        self.submit(target.key.as_str(), |request| {
            let inv = Invocation {
                request,
                target,
                method: method.into(),
                kind: InvocationKind::Start { args },
                stack: Vec::new(),
                // Roots are stamped with the active version by the partition
                // task when dispatched; the switchover point is per-partition.
                version: se_ir::INITIAL_VERSION,
            };
            let bytes = inv.approx_size();
            (SfRecord::Invoke(inv), bytes)
        })
    }

    /// StateFun offers no multi-entity transactions: "we did not run
    /// Statefun against transactional workloads since it offers no support
    /// for transactions" (§4).
    fn supports_transactions(&self) -> bool {
        false
    }

    fn shutdown(&self) {
        let first = !self.shutdown.swap(true, Ordering::SeqCst);
        // Nothing polls the flag: end every wait a thread may be parked in.
        // (The controller follows the tasks out, see `deploy`.)
        self.wakers.iter().for_each(Waker::wake);
        self.broker.close();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        self.waiters.lock().clear();
        if first {
            drop(self.obs_snapshots.lock().take());
            let _ = self.obs.dump();
        }
    }
}

impl Drop for StatefunRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}
