//! Deployment and client API of the StateFun-style runtime.
//!
//! The engine shell — deploy staging, live-upgrade compilation, the waiter
//! map, the thread set, observability and shutdown — is the shared
//! [`EngineCore`], and the roles run on the engine threads of
//! [`se_dataflow::shell`]. What this file adds is StateFun's protocol around
//! them: the broker with its ingress and egress topics, where each role
//! runs, where their messages go (`address`), the egress reader that
//! answers clients, the checkpoint/recovery controller, and the
//! per-partition `Upgrade` markers that switch a live upgrade.
//!
//! **Where the roles run.** P partition tasks, R remote workers, the egress
//! reader and the controller run on M = `threads_for(P + R + 2)` threads.
//! "The Statefun deployment uses half its CPUs for messaging and state
//! within the Apache Flink cluster and the other half for execution in a
//! remote stateless function runtime" (§4): the tasks, the egress reader
//! and the controller, in that order, run round robin on the first threads,
//! and the remote workers on the other ⌊M/2⌋ — never more than R, and never
//! fewer than M − P − 2, so that no thread is left without a role. At M = 1
//! the one thread hosts every role; under sleep mode each role has a
//! thread. A thread is named after its lowest task (`statefun-task<i>`),
//! else its remote worker (`statefun-remote<i>`), else `statefun-egress`,
//! else `statefun-controller`. The remote side's capacity is therefore its
//! share of the cores, not R: at M = 2 one thread serves every remote
//! worker.
//!
//! **How messages travel.** The roles push [`Envelope`]s, and `address`
//! alone decides where each goes; the shared [`Post`] carries it there. A
//! [`RemoteRequest`](crate::record::RemoteRequest) goes to remote thread
//! `seq` mod (number of remote threads), so each gets an even share, and a
//! [`RemoteResponse`](crate::record::RemoteResponse) back to its task, each
//! across its chaos seam and after the remote hop of its payload; a crash
//! notice goes to the controller, and the controller's `Look`s to every
//! thread, at once and unfaulted. The broker is shared memory: each
//! partition's consumer registers its thread's waker, so a produce to a
//! partition consumed on the running thread costs one `fetch_or`. Deploy
//! resolves the two topics once ([`se_broker::Topic`]); the client, the
//! tasks, the egress reader and the controller each hold the handles they
//! use, so no produce or read looks a topic up by name.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use se_broker::{Broker, BrokerError, Topic};
use se_chaos::Seam;
use se_dataflow::shell::threads_for;
use se_dataflow::{
    Address, ComponentTimers, EngineCore, EntityRuntime, Epoch, Layout, Post, ResponseWaiter,
    Roles, SnapshotStore, StateStore, WaiterMap, Waker,
};
use se_ir::{DataflowGraph, Invocation, InvocationKind, RequestId};
use se_lang::{EntityRef, LangError, Value};

use crate::config::{CheckpointMode, StatefunConfig};
use crate::record::{topics, Envelope, SfRecord};
use crate::remote::RemoteWorker;
use crate::task::{PartitionTask, RecoveryCtl};

/// A deployed StateFun-style application.
pub struct StatefunRuntime {
    core: EngineCore,
    cfg: StatefunConfig,
    ingress: Topic<SfRecord>,
    /// Ends the wait of the controller's thread: `shutdown` fires it, and
    /// the controller has every other thread look at the flag.
    controller_waker: Waker,
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
        let ingress = broker.topic(topics::INGRESS).expect("created above");
        let egress = broker.topic(topics::EGRESS).expect("created above");
        let recovery = Arc::new(RecoveryCtl::default());

        // The Flink side in front (tasks, egress, controller), the remote
        // workers behind; see the module doc.
        let (p, r) = (cfg.partitions, cfg.remote_workers);
        let threads = threads_for(p + r + 2);
        let back = r.min((threads / 2).max(threads.saturating_sub(p + 2)));
        let layout = Layout::new(threads, threads - back);
        let (post, inboxes) = Post::new(threads, cfg.chaos.clone(), cfg.net.clone());
        let mut hosted: Vec<Hosted> = (0..threads)
            .map(|_| Hosted {
                post: post.clone(),
                layout,
                partitions: p,
                shutdown: Arc::clone(&core.shutdown),
                tasks: Vec::new(),
                remote: None,
                egress: None,
                controller: None,
            })
            .collect();
        for id in 0..p {
            let thread = layout.front(id);
            ingress
                .wake_on_produce(id, inboxes[thread].waker())
                .expect("ingress partition exists");
            let recovery = Arc::clone(&recovery);
            let task = PartitionTask::new(id, cfg.clone(), &ingress, &egress, &core, recovery);
            hosted[thread].tasks.push(task);
        }
        for id in 0..r {
            let remote = &mut hosted[layout.back(id)].remote;
            remote.get_or_insert_with(|| RemoteWorker::new(id, cfg.clone(), &core));
        }
        let thread = layout.front(p);
        egress
            .wake_on_produce(0, inboxes[thread].waker())
            .expect("egress partition exists");
        hosted[thread].egress = Some(Egress {
            topic: egress,
            waiters: Arc::clone(&core.waiters),
            offset: 0,
            next: None,
            log_truncated: core.obs.counter("statefun.log_truncated"),
        });
        let thread = layout.front(p + 1);
        let controller_waker = inboxes[thread].waker();
        hosted[thread].controller = Some(Controller {
            ingress: ingress.clone(),
            snapshots: Arc::clone(&core.snapshots),
            recovery: Arc::clone(&recovery),
            partitions: p,
            interval: match cfg.checkpoint {
                CheckpointMode::Transactional { interval } => Some(interval),
                CheckpointMode::None => None,
            },
            next_barrier: None,
            epoch: 0,
            out: Vec::new(),
        });
        for (inbox, roles) in inboxes.into_iter().zip(hosted) {
            core.spawn(roles.name(), move || se_dataflow::shell::run(inbox, roles));
        }

        Self {
            core,
            cfg,
            ingress,
            controller_waker,
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
    /// its aligned boundary (once its in-flight dispatches have completed),
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
                        self.ingress.produce_to(p, marker, 0)
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
            Ok(self.ingress.produce(key, rec, 128))
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
            Ok(self.ingress.produce(key, SfRecord::Invoke(inv), bytes))
        })
    }

    /// StateFun offers no multi-entity transactions: "we did not run
    /// Statefun against transactional workloads since it offers no support
    /// for transactions" (§4).
    fn supports_transactions(&self) -> bool {
        false
    }

    fn shutdown(&self) {
        // The woken controller has every thread look at the flag; each
        // leaves on its next turn.
        self.core.shutdown(|| self.controller_waker.wake());
    }
}

impl Drop for StatefunRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where `envelope` goes under `layout` with `partitions` tasks (see the
/// module doc); `None` for a `Look`, which goes to every thread.
fn address(layout: &Layout, partitions: usize, envelope: &Envelope) -> Option<Address> {
    let (thread, seam, bytes) = match envelope {
        Envelope::Request(req) => {
            let bytes = req.state.approx_size() + req.inv.approx_size();
            (
                layout.back(req.seq as usize),
                Some(Seam::RemoteRequest),
                bytes,
            )
        }
        Envelope::Response(task, resp) => {
            let bytes = resp.new_state.approx_size();
            (layout.front(*task), Some(Seam::RemoteResponse), bytes)
        }
        // The control plane: at once, and never faulted.
        Envelope::TaskFailed(_) => (layout.front(partitions + 1), None, 0),
        Envelope::Look => return None,
    };
    let faultable = seam.is_some();
    Some(Address {
        thread,
        seam,
        faultable,
        bytes,
    })
}

/// The StateFun roles one engine thread hosts ([`se_dataflow::shell::run`]
/// drives them), and the post their outboxes drain into.
struct Hosted {
    post: Post<Envelope>,
    layout: Layout,
    partitions: usize,
    shutdown: Arc<AtomicBool>,
    tasks: Vec<PartitionTask>,
    remote: Option<RemoteWorker>,
    egress: Option<Egress>,
    controller: Option<Controller>,
}

impl Hosted {
    /// The thread's name, after its first role (see the module doc).
    fn name(&self) -> String {
        match (self.tasks.first(), &self.remote, &self.egress) {
            (Some(task), _, _) => format!("statefun-task{}", task.id()),
            (None, Some(remote), _) => format!("statefun-remote{}", remote.id()),
            (None, None, Some(_)) => "statefun-egress".into(),
            (None, None, None) => "statefun-controller".into(),
        }
    }
}

impl Roles for Hosted {
    type Envelope = Envelope;

    /// The controller's timer, the tasks' ingress and the egress topic, in
    /// that order: a task that answers in its turn is read out in the same
    /// one. Only the controller's timer reads `now`. Returns `false` once
    /// shutdown is requested.
    fn turn(&mut self, now: impl FnOnce() -> Instant) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            if let Some(c) = &mut self.controller {
                c.out.push(Envelope::Look);
            }
            return false;
        }
        if let Some(c) = &mut self.controller {
            c.turn(now);
        }
        self.tasks.iter_mut().for_each(PartitionTask::turn);
        if let Some(e) = &mut self.egress {
            e.turn();
        }
        true
    }

    fn deliver(&mut self, envelope: Envelope) -> bool {
        match envelope {
            Envelope::Request(req) => {
                if let Some(remote) = &mut self.remote {
                    remote.handle(req);
                }
            }
            Envelope::Response(id, resp) => {
                if let Some(task) = self.tasks.iter_mut().find(|t| t.id() == id) {
                    task.on_response(resp);
                }
            }
            Envelope::TaskFailed(_) => {
                if let Some(c) = &mut self.controller {
                    c.on_task_failed();
                }
            }
            // The turn that follows every handled message looks.
            Envelope::Look => {}
        }
        false
    }

    fn flush(&mut self) {
        let tasks = self.tasks.iter_mut().map(|t| &mut t.out);
        let remote = self.remote.iter_mut().map(|w| &mut w.out);
        let controller = self.controller.iter_mut().map(|c| &mut c.out);
        for out in tasks.chain(remote).chain(controller) {
            for envelope in out.drain(..) {
                match address(&self.layout, self.partitions, &envelope) {
                    Some(to) => self.post.send(to, envelope),
                    None => self.post.broadcast(envelope),
                }
            }
        }
    }

    fn deadline(&self) -> Option<Instant> {
        let tasks = self.tasks.iter().filter_map(|t| t.next);
        let egress = self.egress.as_ref().and_then(|e| e.next);
        let barrier = self.controller.as_ref().and_then(|c| c.next_barrier);
        tasks.chain(egress).chain(barrier).min()
    }
}

/// The egress reader: answers clients from the egress topic. The first
/// response wins; a replayed duplicate finds no waiter and is dropped.
struct Egress {
    topic: Topic<SfRecord>,
    waiters: Arc<WaiterMap>,
    offset: u64,
    /// When the next unread response is (or was) visible.
    next: Option<Instant>,
    log_truncated: se_obs::Counter,
}

impl Egress {
    fn turn(&mut self) {
        let Ok(records) = self.topic.fetch(0, self.offset, 64) else {
            return;
        };
        if let Some(last) = records.last() {
            self.offset = last.offset + 1;
            let answers = records.into_iter().filter_map(|rec| match rec.value {
                SfRecord::Response(resp) => Some(resp),
                _ => None,
            });
            self.waiters.complete_all(answers.collect());
            // The egress reader never rewinds: a recovery replays responses
            // to new offsets, so everything read is garbage.
            if let Ok(n) = self.topic.truncate_below(0, self.offset) {
                self.log_truncated.add(n);
            }
        }
        let next = self.topic.next_visible_at(0, self.offset);
        self.next = next.ok().flatten();
    }
}

/// The checkpoint and recovery controller. Its one timer is the barrier
/// interval, armed by its first turn.
struct Controller {
    ingress: Topic<SfRecord>,
    snapshots: Arc<SnapshotStore<StateStore>>,
    recovery: Arc<RecoveryCtl>,
    partitions: usize,
    interval: Option<Duration>,
    next_barrier: Option<Instant>,
    epoch: Epoch,
    /// The `Look` the engine thread posts.
    out: Vec<Envelope>,
}

impl Controller {
    /// Injects the next epoch's barrier into every ingress partition once
    /// the interval has passed. Reads `now` only with checkpoints on.
    fn turn(&mut self, now: impl FnOnce() -> Instant) {
        let Some(interval) = self.interval else {
            return;
        };
        let now = now();
        match self.next_barrier {
            Some(at) if at > now => return,
            Some(_) => {
                self.epoch += 1;
                let epoch = self.epoch;
                self.snapshots.begin_epoch(epoch, self.partitions);
                for p in 0..self.partitions {
                    let barrier = SfRecord::Barrier { epoch };
                    let _ = self.ingress.produce_to(p, barrier, 0);
                }
            }
            None => {}
        }
        self.next_barrier = Some(now + interval);
    }

    /// A task crashed: every task restores, the crashed and the idle ones
    /// included.
    fn on_task_failed(&mut self) {
        self.recovery.begin(&self.snapshots);
        self.out.push(Envelope::Look);
    }
}

#[cfg(test)]
mod tests {
    use se_ir::{Invocation, RequestId, Response, StepEffect};
    use se_lang::{EntityRef, EntityState, Value};

    use super::*;
    use crate::record::{RemoteRequest, RemoteResponse};

    /// Every envelope kind, at M = 1 and at M = 4 with two threads in front
    /// (`Layout::new(4, 2)`): requests alternate between the back threads,
    /// a response returns to its task's front thread, a crash notice goes
    /// unfaulted to the controller's, and a `Look` to every thread.
    #[test]
    fn address_sends_each_kind_to_its_thread_across_its_seam() {
        const P: usize = 2;
        let entity = EntityRef::new("Account", "a");
        let inv = Invocation::root(RequestId(7), entity, "read", vec![]);
        let request = |seq| {
            Envelope::Request(RemoteRequest {
                gen: 0,
                task: 0,
                seq,
                inv: inv.clone(),
                state: EntityState::new(),
            })
        };
        let response = |task| {
            let resp = RemoteResponse {
                gen: 0,
                seq: 0,
                entity,
                new_state: EntityState::new(),
                effect: StepEffect::Respond(Response {
                    request: RequestId(7),
                    result: Ok(Value::Unit),
                }),
            };
            Envelope::Response(task, resp)
        };
        for layout in [Layout::new(1, 1), Layout::new(4, 2)] {
            let to = |envelope: &Envelope| address(&layout, P, envelope);
            for seq in 0..4 {
                let to = to(&request(seq)).expect("one thread");
                let back = layout.back(seq as usize);
                assert_eq!(to.thread, back, "request {seq}");
                assert_eq!((to.seam, to.faultable), (Some(Seam::RemoteRequest), true));
            }
            if layout.threads() == 4 {
                let threads: Vec<_> = (0..4)
                    .map(|seq| to(&request(seq)).unwrap().thread)
                    .collect();
                assert_eq!(threads, [2, 3, 2, 3], "requests alternate");
            }
            for task in 0..P {
                let to = to(&response(task)).expect("one thread");
                assert_eq!(to.thread, layout.front(task), "response to task {task}");
                assert_eq!((to.seam, to.faultable), (Some(Seam::RemoteResponse), true));
            }
            let controller = Address {
                thread: layout.front(P + 1),
                seam: None,
                faultable: false,
                bytes: 0,
            };
            assert_eq!(to(&Envelope::TaskFailed(0)), Some(controller));
            assert_eq!(to(&Envelope::Look), None, "a Look goes to every thread");
        }
    }
}
