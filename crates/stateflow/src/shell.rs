//! The engine threads: one per engine core, each a thin loop over the roles
//! it hosts.
//!
//! "StateFlow requires a single core coordinator, and the rest are used for
//! its workers" (§4). The rule counts cores. Partitions are the unit of
//! state and threads the unit of CPU, so a deployment runs its coordinator
//! and its `workers` partitions on M = min(cores, `workers` + 1) threads,
//! where cores is the deploying thread's `available_parallelism()`
//! (`threads_for`); under sleep-mode service time, which simulates a core
//! per role (`se_dataflow::net::service_sleeps`), cores is `workers` + 1.
//! At M = 1 the one thread hosts every role. Otherwise
//! the coordinator keeps thread 0 to itself and worker *i* runs on thread
//! 1 + *i* mod (M − 1) (`host_of`); at M = `workers` + 1 that is one
//! thread per role.
//!
//! Each thread owns one delay queue of [`Envelope`]s. A push to the running
//! thread costs one lock and no syscall, since nobody is parked on it. A
//! delayed message to a co-located role is a due time in the same heap, so
//! the thread's one blocking receive times every hosted role's messages
//! along with the coordinator's batch deadline.
//!
//! The roles do no I/O: a handler decides *what* to send and pushes it onto
//! its role's outbox (`out`), and time enters the coordinator only as the
//! `now` of `Coordinator::turn`. The shell reads the clock and drains the
//! outboxes after every turn, handler call and step of a worker's deferred
//! execs (`Worker::resume`), so one exec's sends are on their way while the
//! next runs; a turn's seals and creates leave together at its end. The
//! coordinator's client answers (`Coordinator::answers`) follow its sends,
//! so commit records leave before the client wake-ups. The outboxes drain
//! into `Routes::route`, the one place that decides *how* a protocol
//! message travels: to the inbox of the thread hosting its addressee,
//! through the seam its sender and receiver name, faultable or not by its
//! kind — the data plane (`Exec`, `Reserve`, `Commit`, `ExecDone`,
//! `SoloDone`, `Flags`) may be duplicated, delayed or quarantined, while
//! the control plane (creates, the quiesce round, failure notices,
//! shutdown) models the reliable failure detector and alignment channel the
//! engine assumes — and after `f2f_latency` of an `Exec`'s invocation, else
//! of 64 bytes. That flat delay keeps the control plane FIFO per worker: a
//! create is never overtaken by a snapshot marker.

use std::sync::Arc;
use std::time::Instant;

use se_chaos::{ChaosPlan, Seam};
use se_dataflow::{send_with_chaos, DelayReceiver, DelaySender, NetConfig, WaiterMap};

use crate::coordinator::Coordinator;
use crate::msg::{CoordMsg, Envelope, WorkerMsg};
use crate::worker::Worker;

/// The number of engine threads for `workers` partitions: one per core the
/// calling thread may run on, and never more than one per role. A sleeping
/// service burn leaves its core free, so sleep mode stands for a cluster
/// with a core per role, and its roles get a thread each whatever the host.
pub(crate) fn threads_for(workers: usize) -> usize {
    let cores = if se_dataflow::net::service_sleeps() {
        workers + 1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    cores.min(workers + 1)
}

/// The thread, of `threads`, that hosts worker `id`: thread 0 with only one
/// thread, else one of the threads after the coordinator's, round robin.
pub(crate) fn host_of(id: usize, threads: usize) -> usize {
    if threads == 1 {
        0
    } else {
        1 + id % (threads - 1)
    }
}

/// How every StateFlow protocol message travels (see the module doc): the
/// thread inboxes, the chaos plan and the hop-cost model, and the waiters
/// the coordinator's answers go to. Only the shells hold it, each a copy,
/// so a thread's inbox stays open while any shell lives.
#[derive(Clone)]
pub struct Routes {
    coord: DelaySender<Envelope>,
    workers: Vec<DelaySender<Envelope>>,
    chaos: ChaosPlan,
    net: NetConfig,
    waiters: Arc<WaiterMap>,
}

impl Routes {
    /// Routes to the coordinator through `coord` and to worker *i* through
    /// `workers[i]`, faulting the data plane by `chaos`, delaying every
    /// hop by `net`, and answering the coordinator's clients in `waiters`.
    pub fn new(
        coord: DelaySender<Envelope>,
        workers: Vec<DelaySender<Envelope>>,
        chaos: ChaosPlan,
        net: NetConfig,
        waiters: Arc<WaiterMap>,
    ) -> Routes {
        Routes {
            coord,
            workers,
            chaos,
            net,
            waiters,
        }
    }

    /// Sends `envelope`, pushed by the coordinator if `from_coord`, else by
    /// a worker: to its addressee's inbox, after its simulated hop, and
    /// through the chaos seam it crosses if it is data plane.
    pub(crate) fn route(&self, from_coord: bool, envelope: Envelope) {
        let (inbox, seam) = match (&envelope, from_coord) {
            (Envelope::Coord(_), _) => (&self.coord, Seam::WorkerToCoord),
            (Envelope::Worker(id, _), true) => (&self.workers[*id], Seam::CoordToWorker),
            (Envelope::Worker(id, _), false) => (&self.workers[*id], Seam::WorkerToWorker),
        };
        let bytes = match &envelope {
            Envelope::Worker(_, WorkerMsg::Exec { inv, .. }) => inv.approx_size(),
            _ => 64,
        };
        let delay = self.net.f2f_latency(bytes);
        if data_plane(&envelope) {
            send_with_chaos(&self.chaos, seam, &self.net, inbox, envelope, delay);
        } else {
            inbox.send_after(envelope, delay);
        }
    }

    /// Routes everything in `out`, in order, leaving it empty.
    fn flush(&self, from_coord: bool, out: &mut Vec<Envelope>) {
        for envelope in out.drain(..) {
            self.route(from_coord, envelope);
        }
    }

    /// Routes the coordinator's outbox, then answers its clients in one
    /// pass: a decided batch's commit records are on their way before the
    /// client wake-ups, a syscall each, run.
    fn flush_coordinator(&self, c: &mut Coordinator) {
        self.flush(true, &mut c.out);
        if !c.answers.is_empty() {
            self.waiters.complete_all(std::mem::take(&mut c.answers));
        }
    }
}

/// Whether `envelope` is data plane, faultable at its seam. No `_` arm: a
/// new message kind has to name its plane.
fn data_plane(envelope: &Envelope) -> bool {
    use {CoordMsg as C, WorkerMsg as W};
    match envelope {
        Envelope::Worker(_, W::Exec { .. } | W::Reserve { .. } | W::Commit { .. })
        | Envelope::Coord(C::ExecDone { .. } | C::SoloDone { .. } | C::Flags { .. }) => true,
        Envelope::Worker(_, W::Create { .. } | W::Snapshot { .. } | W::Migrate { .. }) => false,
        Envelope::Worker(_, W::Restore { .. } | W::Shutdown) => false,
        Envelope::Coord(C::SnapshotAck { .. } | C::MigrateAck { .. }) => false,
        Envelope::Coord(C::RestoreAck { .. } | C::WorkerFailed { .. }) => false,
    }
}

/// One engine thread: the roles it hosts, the inbox they share, and the
/// routes their outboxes drain into.
pub struct Shell {
    inbox: DelayReceiver<Envelope>,
    routes: Routes,
    coordinator: Option<Coordinator>,
    /// The hosted workers that have not stopped, ascending by id.
    workers: Vec<Worker>,
}

impl Shell {
    /// A thread over `inbox` hosting `coordinator` (if any) and `workers`
    /// (ascending by id), sending through `routes`.
    pub fn new(
        inbox: DelayReceiver<Envelope>,
        routes: Routes,
        coordinator: Option<Coordinator>,
        workers: Vec<Worker>,
    ) -> Shell {
        Shell {
            inbox,
            routes,
            coordinator,
            workers,
        }
    }

    /// `stateflow-coordinator` on the coordinator's thread, else
    /// `stateflow-worker<i>` after the thread's lowest worker.
    pub(crate) fn name(&self) -> String {
        match (&self.coordinator, self.workers.first()) {
            (None, Some(w)) => format!("stateflow-worker{}", w.id()),
            _ => "stateflow-coordinator".into(),
        }
    }

    /// The thread's loop; returns once every hosted role has stopped.
    ///
    /// A turn runs the coordinator's source work (`Coordinator::turn`), if
    /// this thread hosts it, and then hands every due message to its role.
    /// The source work also follows every message the coordinator handles,
    /// as in a loop of the coordinator's own: a decision that frees a
    /// pipeline slot seals the next batch at once, not after the hosted
    /// workers' queued traffic, which would only grow the batch.
    /// Only a turn that handled no message blocks, on the inbox, until one of
    /// exactly three things: a **message** comes due (every simulated hop
    /// delay and chaos quarantine is a due time in the inbox's heap), a
    /// **wake** (the source fires the coordinator thread's waker on every
    /// append, and shutdown fires it too), or the coordinator's
    /// `Coordinator::deadline`, the one timer any role owns. A busy thread
    /// never sleeps, an idle one never wakes.
    ///
    /// The park is keyed on "no message since the last turn", never on "the
    /// source has unread records": the coordinator leaves records unread on
    /// purpose behind a pending `Redeploy` and during a `Restore` round. An
    /// append there costs one empty turn; whatever ends the round is a
    /// message, and the turn it starts drains the source.
    pub fn run(mut self) {
        while self.source_work() {
            // Every due message, before blocking: a decide round for batch
            // N+1 must not queue behind the apply traffic of batch N. What a
            // handler sends to a co-located role is due at once when the
            // simulated hop is zero, and is handled in this same turn.
            let mut handled = false;
            while let Some(envelope) = self.inbox.try_recv() {
                let to_coord = matches!(envelope, Envelope::Coord(_));
                self.deliver(envelope);
                handled = true;
                if to_coord && !self.source_work() {
                    return;
                }
            }
            if !handled {
                let deadline = self.coordinator.as_ref().and_then(Coordinator::deadline);
                if let Some(envelope) = self.inbox.recv_until(deadline) {
                    self.deliver(envelope);
                }
            }
        }
    }

    /// The coordinator's source work, if this thread hosts it, at the wall
    /// clock's `now`. Returns `false` once every hosted role has stopped.
    fn source_work(&mut self) -> bool {
        if let Some(c) = &mut self.coordinator {
            let live = c.turn(Instant::now());
            self.routes.flush_coordinator(c);
            if !live {
                self.coordinator = None;
            }
        }
        self.coordinator.is_some() || !self.workers.is_empty()
    }

    /// Hands `envelope` to its role, routing what it sends; a worker then
    /// resumes what the handler left behind, one routed step at a time. A
    /// message to a role that has stopped is dropped.
    fn deliver(&mut self, envelope: Envelope) {
        match envelope {
            Envelope::Coord(msg) => {
                if let Some(c) = &mut self.coordinator {
                    c.handle(msg);
                    self.routes.flush_coordinator(c);
                }
            }
            Envelope::Worker(id, msg) => {
                let Some(at) = self.workers.iter().position(|w| w.id() == id) else {
                    return;
                };
                let worker = &mut self.workers[at];
                let live = worker.handle(msg);
                self.routes.flush(false, &mut worker.out);
                while live && worker.resume() {
                    self.routes.flush(false, &mut worker.out);
                }
                if !live {
                    self.workers.remove(at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::time::Duration;

    use se_chaos::{FaultScript, MessageFault, MsgFaultKind};
    use se_dataflow::delay_channel;
    use se_ir::{Invocation, RequestId, Response};
    use se_lang::{EntityRef, Value};

    use super::*;

    const SEAMS: [Seam; 3] = [
        Seam::CoordToWorker,
        Seam::WorkerToWorker,
        Seam::WorkerToCoord,
    ];

    /// Routes to one coordinator inbox and two worker inboxes, quarantining
    /// every message on `seams` for a minute; hops cost nothing, so
    /// whatever is not held back is due at once.
    fn routes(seams: &[Seam]) -> (Routes, [DelayReceiver<Envelope>; 3]) {
        let messages = (seams.iter())
            .flat_map(|&seam| {
                (0..16).map(move |nth| MessageFault {
                    seam,
                    nth,
                    kind: MsgFaultKind::Drop {
                        quarantine_us: 60_000_000,
                    },
                })
            })
            .collect();
        let chaos = ChaosPlan::from_script(FaultScript {
            messages,
            ..FaultScript::default()
        });
        let net = NetConfig {
            f2f_hop: Duration::ZERO,
            per_kib: Duration::ZERO,
            ..NetConfig::fast_test()
        };
        let (coord, coord_rx) = delay_channel();
        let (w0, w0_rx) = delay_channel();
        let (w1, w1_rx) = delay_channel();
        let waiters = Arc::new(WaiterMap::default());
        let routes = Routes::new(coord, vec![w0, w1], chaos, net, waiters);
        (routes, [coord_rx, w0_rx, w1_rx])
    }

    /// The inbox `envelope` is addressed to, of `inboxes`.
    fn inbox_of<'a>(
        inboxes: &'a [DelayReceiver<Envelope>; 3],
        envelope: &Envelope,
    ) -> &'a DelayReceiver<Envelope> {
        match envelope {
            Envelope::Coord(_) => &inboxes[0],
            Envelope::Worker(id, _) => &inboxes[1 + id],
        }
    }

    /// One envelope of every data-plane kind, from a legal sender
    /// (`from_coord`), with the seam it must cross.
    fn data_plane() -> Vec<(bool, Envelope, Seam)> {
        let inv = Invocation::root(
            RequestId(7),
            EntityRef::new("Account", "a"),
            "balance",
            vec![],
        );
        let exec = |inv: Invocation| WorkerMsg::Exec {
            gen: 0,
            batch: 0,
            txn: 0,
            hop: 0,
            inv,
            solo: false,
        };
        let txns = Arc::new(vec![0, 1]);
        let none = Arc::new(BTreeSet::new());
        let commit = WorkerMsg::Commit {
            gen: 0,
            batch: 0,
            txns: Arc::clone(&txns),
            aborted: Arc::clone(&none),
        };
        let response = Response {
            request: RequestId(7),
            result: Ok(Value::Unit),
        };
        vec![
            (
                true,
                Envelope::Worker(0, exec(inv.clone())),
                Seam::CoordToWorker,
            ),
            (
                true,
                Envelope::Worker(
                    0,
                    WorkerMsg::Reserve {
                        gen: 0,
                        batch: 0,
                        txns,
                        errors: none,
                    },
                ),
                Seam::CoordToWorker,
            ),
            (
                true,
                Envelope::Worker(0, commit.clone()),
                Seam::CoordToWorker,
            ),
            // A chain hop and a solo batch's commit record.
            (false, Envelope::Worker(1, exec(inv)), Seam::WorkerToWorker),
            (false, Envelope::Worker(1, commit), Seam::WorkerToWorker),
            (
                false,
                Envelope::Coord(CoordMsg::ExecDone {
                    gen: 0,
                    batch: 0,
                    txn: 0,
                    response,
                }),
                Seam::WorkerToCoord,
            ),
            (
                false,
                Envelope::Coord(CoordMsg::SoloDone {
                    gen: 0,
                    batch: 0,
                    txn: 0,
                }),
                Seam::WorkerToCoord,
            ),
            (
                false,
                Envelope::Coord(CoordMsg::Flags {
                    gen: 0,
                    batch: 0,
                    worker: 1,
                    flags: Vec::new(),
                }),
                Seam::WorkerToCoord,
            ),
        ]
    }

    /// The routing policy: every data-plane kind is faulted on its own seam
    /// and no other, every control-plane kind is due at once under a plan
    /// that quarantines all three StateFlow seams, and control messages to
    /// one worker arrive in the order they were sent.
    #[test]
    fn route_faults_each_data_kind_on_its_seam_and_never_the_control_plane() {
        for (from_coord, envelope, seam) in data_plane() {
            let (all, inboxes) = routes(&SEAMS);
            all.route(from_coord, envelope.clone());
            let held = inbox_of(&inboxes, &envelope);
            assert!(held.try_recv().is_none(), "{envelope:?} is not faulted");
            assert_eq!(held.len(), 1, "{envelope:?} was not sent once");

            let others: Vec<Seam> = SEAMS.into_iter().filter(|&s| s != seam).collect();
            let (elsewhere, inboxes) = routes(&others);
            elsewhere.route(from_coord, envelope.clone());
            let due = inbox_of(&inboxes, &envelope).try_recv();
            assert!(due.is_some(), "{envelope:?} is faulted off {seam:?}");
        }

        let (all, inboxes) = routes(&SEAMS);
        let to_worker = [
            WorkerMsg::Create {
                gen: 0,
                request: RequestId(1),
                class: "Account".into(),
                key: "a".into(),
                init: Vec::new(),
            },
            WorkerMsg::Snapshot {
                gen: 0,
                epoch: 1,
                through: 0,
                durable_floor: None,
            },
            WorkerMsg::Migrate {
                gen: 0,
                version: 2,
                epoch: 1,
            },
            WorkerMsg::Restore {
                gen: 1,
                epoch: Some(1),
                next_batch: 0,
            },
            WorkerMsg::Shutdown,
        ];
        let to_coord = [
            CoordMsg::SnapshotAck {
                gen: 0,
                epoch: 1,
                worker: 0,
                durable: None,
            },
            CoordMsg::MigrateAck {
                gen: 0,
                version: 2,
                worker: 0,
            },
            CoordMsg::RestoreAck {
                gen: 1,
                worker: 0,
                reached: Some(1),
            },
            CoordMsg::WorkerFailed { gen: 0, worker: 0 },
        ];
        let sent: Vec<(bool, Envelope)> = (to_worker.into_iter())
            .map(|msg| (true, Envelope::Worker(0, msg)))
            .chain(
                to_coord
                    .into_iter()
                    .map(|msg| (false, Envelope::Coord(msg))),
            )
            .collect();
        for (from_coord, envelope) in &sent {
            all.route(*from_coord, envelope.clone());
        }
        for (_, envelope) in &sent {
            let got = inbox_of(&inboxes, envelope).try_recv();
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", Some(envelope)),
                "control messages are due at once, in the order sent"
            );
        }
    }
}
