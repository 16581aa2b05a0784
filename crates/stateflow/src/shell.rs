//! StateFlow's half of the engine threads ([`se_dataflow::shell`]): where
//! its roles run, and how its protocol messages travel.
//!
//! "StateFlow requires a single core coordinator, and the rest are used for
//! its workers" (§4). A deployment runs its coordinator and its `workers`
//! partitions on M = `threads_for(workers + 1)` threads. At M = 1 the one
//! thread hosts every role. Otherwise the coordinator keeps thread 0 to
//! itself and worker *i* runs on thread 1 + *i* mod (M − 1) (`layout`); at
//! M = `workers` + 1 that is one thread per role.
//!
//! No timer of StateFlow's wakes a thread: the coordinator seals when its
//! pipeline window opens, and its turn (`Coordinator::turn`), which also
//! follows every message it handles, takes no `now`. Its client answers
//! (`Coordinator::answers`) follow its sends, so commit records leave
//! before the client wake-ups. A worker's deferred execs run one routed
//! step at a time (`Worker::resume`). The outboxes
//! drain into `Routes::route`, the one place that decides *how* a protocol
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
use se_dataflow::shell::threads_for;
use se_dataflow::{send_with_chaos, DelaySender, Layout, NetConfig, Roles, WaiterMap};

use crate::coordinator::Coordinator;
use crate::msg::{CoordMsg, Envelope, WorkerMsg};
use crate::worker::Worker;

/// Where the coordinator (front) and the `workers` partitions (back) run.
pub(crate) fn layout(workers: usize) -> Layout {
    Layout::new(threads_for(workers + 1), 1)
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

/// The StateFlow roles one engine thread hosts ([`se_dataflow::shell::run`]
/// drives them), and the routes their outboxes drain into.
pub struct Shell {
    routes: Routes,
    coordinator: Option<Coordinator>,
    /// The hosted workers that have not stopped, ascending by id.
    workers: Vec<Worker>,
}

impl Shell {
    /// A thread hosting `coordinator` (if any) and `workers` (ascending by
    /// id), sending through `routes`.
    pub fn new(routes: Routes, coordinator: Option<Coordinator>, workers: Vec<Worker>) -> Shell {
        Shell {
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
}

impl Roles for Shell {
    type Envelope = Envelope;

    /// The coordinator's source work, if this thread hosts it (it reads
    /// no clock, so `now` is never called).
    ///
    /// The park is keyed on "no message since the last turn", never on "the
    /// source has unread records": the coordinator leaves records unread on
    /// purpose behind a pending `Redeploy` and during a `Restore` round. An
    /// append there costs one empty turn; whatever ends the round is a
    /// message, and the turn it starts drains the source.
    fn turn(&mut self, _now: impl FnOnce() -> Instant) -> bool {
        if let Some(c) = &mut self.coordinator {
            if !c.turn() {
                self.routes.flush_coordinator(c);
                self.coordinator = None;
            }
        }
        self.coordinator.is_some() || !self.workers.is_empty()
    }

    /// A message to a role that has stopped is dropped. The coordinator's
    /// source work follows every message it handles, as in a loop of its
    /// own: a decision that frees a pipeline slot seals the next batch at
    /// once, not after the hosted workers' queued traffic, which would only
    /// grow the batch. A worker then resumes what its handler left behind,
    /// one routed step at a time.
    fn deliver(&mut self, envelope: Envelope) -> bool {
        match envelope {
            Envelope::Coord(msg) => match &mut self.coordinator {
                Some(c) => {
                    c.handle(msg);
                    true
                }
                None => false,
            },
            Envelope::Worker(id, msg) => {
                let Some(at) = self.workers.iter().position(|w| w.id() == id) else {
                    return false;
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
                false
            }
        }
    }

    /// The coordinator's outbox: `deliver` routes a worker's after each of
    /// its steps.
    fn flush(&mut self) {
        if let Some(c) = &mut self.coordinator {
            self.routes.flush_coordinator(c);
        }
    }

    /// None: StateFlow's roles wait on messages and wakes, never on time.
    fn deadline(&self) -> Option<Instant> {
        None
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::time::Duration;

    use se_chaos::{FaultScript, MessageFault, MsgFaultKind};
    use se_dataflow::{delay_channel, DelayReceiver};
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
