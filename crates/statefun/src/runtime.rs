//! Deployment and client API of the StateFun-style runtime.
//!
//! The engine shell — deploy staging, live-upgrade compilation, the waiter
//! map, the thread set, observability and shutdown — is the shared
//! [`EngineCore`]. What this file adds is StateFun's protocol around it: the
//! broker with its ingress and egress topics, the partition tasks, the
//! remote function pool, the egress thread that answers clients, the
//! checkpoint/recovery controller, and the per-partition `Upgrade` markers
//! that switch a live upgrade.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use se_broker::{Broker, BrokerError};
use se_dataflow::{
    delay_channel, ComponentTimers, EngineCore, EntityRuntime, ResponseWaiter, SnapshotStore,
    StateStore, Waker,
};
use se_ir::{DataflowGraph, Invocation, InvocationKind, RequestId};
use se_lang::{EntityRef, LangError, Value};

use crate::config::{CheckpointMode, StatefunConfig};
use crate::record::{topics, SfRecord};
use crate::remote::run_remote_worker;
use crate::task::{CtlMsg, PartitionTask, RecoveryCtl};

/// A deployed StateFun-style application.
pub struct StatefunRuntime {
    core: EngineCore,
    cfg: StatefunConfig,
    broker: Broker<SfRecord>,
    /// One per partition task, the remote workers' shared queue and the
    /// egress thread: what `shutdown` fires so parked threads see the flag.
    wakers: Vec<Waker>,
    recovery: Arc<RecoveryCtl>,
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
        let core = EngineCore::new(graph, &cfg.obs);
        // Outage windows in the chaos script act on broker visibility.
        let broker = Broker::with_chaos(cfg.net.clone(), cfg.chaos.clone());
        broker.create_topic(topics::INGRESS, cfg.partitions);
        broker.create_topic(topics::EGRESS, 1);
        let recovery = Arc::new(RecoveryCtl::default());
        let (ctl_tx, ctl_rx) = delay_channel::<CtlMsg>();

        // Remote-function channels: one shared request queue, one response
        // channel per partition task.
        let (pool_tx, pool_rx) = delay_channel();
        let pool_rx = Arc::new(pool_rx);
        let (resp_txs, resp_rxs): (Vec<_>, Vec<_>) =
            (0..cfg.partitions).map(|_| delay_channel()).unzip();

        // A task parks on its response channel; produces to its ingress
        // partition, recovery and shutdown reach it through that channel's
        // waker.
        let task_wakers: Vec<Waker> = resp_rxs.iter().map(|rx| rx.waker()).collect();
        for (id, waker) in task_wakers.iter().enumerate() {
            broker
                .wake_on_produce(topics::INGRESS, id, waker.clone())
                .expect("ingress partition exists");
        }
        // The egress thread parks on a queue nobody sends to: only its
        // waker, fired by produces to the egress topic and by shutdown, and
        // the next response's `visible_at` end the wait. Its sender stays
        // with the thread, so the queue never reads as closed.
        let (egress_open, egress_park) = delay_channel::<()>();
        broker
            .wake_on_produce(topics::EGRESS, 0, egress_park.waker())
            .expect("egress partition exists");
        let mut wakers = task_wakers.clone();
        wakers.push(pool_rx.waker());
        wakers.push(egress_park.waker());

        for (id, resp_rx) in resp_rxs.into_iter().enumerate() {
            let task = PartitionTask::new(
                id,
                cfg.clone(),
                broker.clone(),
                Arc::clone(&core.registry),
                Arc::clone(&core.waiters),
                pool_tx.clone(),
                resp_rx,
                Arc::clone(&core.snapshots),
                Arc::clone(&core.timers),
                Arc::clone(&recovery),
                ctl_tx.clone(),
                Arc::clone(&core.shutdown),
                core.obs.clone(),
            );
            core.spawn(format!("statefun-task{id}"), move || task.run());
        }
        for id in 0..cfg.remote_workers {
            let cfg2 = cfg.clone();
            let registry2 = Arc::clone(&core.registry);
            let rx = Arc::clone(&pool_rx);
            let responders = resp_txs.clone();
            let timers2 = Arc::clone(&core.timers);
            let sd = Arc::clone(&core.shutdown);
            let obs2 = core.obs.clone();
            core.spawn(format!("statefun-remote{id}"), move || {
                run_remote_worker(cfg2, registry2, rx, responders, timers2, obs2, sd)
            });
        }

        // Egress dispatcher: completes client waiters. Parks the way a
        // partition task does, until a response is visible.
        {
            let broker2 = broker.clone();
            let waiters2 = Arc::clone(&core.waiters);
            let sd = Arc::clone(&core.shutdown);
            core.spawn("statefun-egress".into(), move || {
                let _open = egress_open;
                let mut offset = 0u64;
                while !sd.load(Ordering::SeqCst) {
                    let Ok(records) = broker2.fetch(topics::EGRESS, 0, offset, 64) else {
                        return;
                    };
                    let Some(last) = records.last() else {
                        let Ok(visible_at) = broker2.next_visible_at(topics::EGRESS, 0, offset)
                        else {
                            return;
                        };
                        egress_park.recv_until(visible_at);
                        continue;
                    };
                    offset = last.offset + 1;
                    // First response wins; replayed duplicates find no
                    // waiter and are dropped.
                    let answers = records.into_iter().filter_map(|rec| match rec.value {
                        SfRecord::Response(resp) => Some(resp),
                        _ => None,
                    });
                    waiters2.complete_all(answers.collect());
                }
            });
        }

        // Checkpoint + recovery controller. Blocks on the control channel
        // until a task reports a failure or the next barrier is due (the
        // one timer it owns). The tasks hold the only senders, so the
        // channel disconnects — and the controller exits — once every task
        // has left at shutdown.
        {
            let broker2 = broker.clone();
            let cfg2 = cfg.clone();
            let snapshots2 = Arc::clone(&core.snapshots);
            let recovery2 = Arc::clone(&recovery);
            core.spawn("statefun-controller".into(), move || {
                let mut epoch = 0u64;
                let interval = match cfg2.checkpoint {
                    CheckpointMode::Transactional { interval } => Some(interval),
                    CheckpointMode::None => None,
                };
                let mut next_barrier = interval.map(|i| Instant::now() + i);
                loop {
                    match ctl_rx.recv_until(next_barrier) {
                        Some(CtlMsg::TaskFailed(_)) => {
                            *recovery2.restore_epoch.lock() = snapshots2.latest_complete();
                            recovery2.gen.fetch_add(1, Ordering::SeqCst);
                            // Every task restores, the parked ones (crashed
                            // or idle) included.
                            task_wakers.iter().for_each(Waker::wake);
                        }
                        None if ctl_rx.is_closed() => return,
                        None => {}
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
            });
        }

        Self {
            core,
            cfg,
            broker,
            wakers,
            recovery,
        }
    }

    /// Runs `produce`, which hands the record for a fresh request to the
    /// broker; a produce the broker refuses fails the request at once.
    fn submit<T>(
        &self,
        produce: impl FnOnce(RequestId) -> Result<T, BrokerError>,
    ) -> ResponseWaiter {
        self.core.submit(|request| {
            let produced = produce(request).map(drop);
            produced.map_err(|e| LangError::runtime(e.to_string()))
        })
    }

    /// Per-component timing breakdown (overhead experiment).
    pub fn timers(&self) -> &ComponentTimers {
        &self.core.timers
    }

    /// The snapshot store (inspected by recovery tests).
    pub fn snapshots(&self) -> &SnapshotStore<StateStore> {
        &self.core.snapshots
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
        &self.core.obs
    }

    /// The program version new roots are stamped with once every partition
    /// has applied the most recent upgrade.
    pub fn active_version(&self) -> u64 {
        self.core.registry.active()
    }

    /// Live code upgrade (compilation and version bookkeeping:
    /// [`EngineCore::redeploy`]). The switch is an [`SfRecord::Upgrade`]
    /// marker on every ingress partition. Each partition task applies it at
    /// its aligned drain boundary (in-flight dispatches complete first),
    /// backfills + migrates its slice of entity state, stamps later roots
    /// with the new version, and acknowledges the marker through the waiter
    /// map; this call blocks until every partition has, or until shutdown
    /// fails the acknowledgements still owed. In-flight chains keep the
    /// version their root was stamped with until drained.
    pub fn redeploy(&self, program: &se_lang::Program) -> Result<u64, Vec<LangError>> {
        self.core.redeploy(program, |version| {
            let acks: Vec<_> = (0..self.cfg.partitions)
                .map(|p| {
                    self.submit(|request| {
                        let marker = SfRecord::Upgrade { version, request };
                        self.broker.produce_to(topics::INGRESS, p, "", marker, 0)
                    })
                })
                .collect();
            acks.into_iter().try_for_each(|ack| ack.wait().map(drop))
        })
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
        let waiter = self.submit(|request| {
            let rec = SfRecord::Create {
                request,
                class: class.to_owned(),
                key: key.to_owned(),
                init,
            };
            self.broker.produce(topics::INGRESS, key, rec, 128)
        });
        waiter.wait()?;
        Ok(EntityRef::new(class, key))
    }

    fn call_async(&self, target: EntityRef, method: &str, args: Vec<Value>) -> ResponseWaiter {
        self.submit(|request| {
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
            let key = target.key.as_str();
            self.broker
                .produce(topics::INGRESS, key, SfRecord::Invoke(inv), bytes)
        })
    }

    /// StateFun offers no multi-entity transactions: "we did not run
    /// Statefun against transactional workloads since it offers no support
    /// for transactions" (§4).
    fn supports_transactions(&self) -> bool {
        false
    }

    fn shutdown(&self) {
        // End every wait a thread may be parked in. (The controller follows
        // the tasks out, see `deploy`.)
        self.core
            .shutdown(|| self.wakers.iter().for_each(Waker::wake));
    }
}

impl Drop for StatefunRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}
