//! StateFlow's half of the engine threads ([`se_dataflow::shell`]): where
//! its roles run, and where its protocol messages go.
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
//! before the client wake-ups. A worker's deferred execs run one posted
//! step at a time (`Worker::resume`). The outboxes drain into the shared
//! [`Post`], and `address` alone decides *where* a protocol message goes:
//! to the thread hosting its addressee, across the seam its sender and
//! receiver name, faultable or not by its kind — the data plane (`Exec`,
//! `Reserve`, `Commit`, `ExecDone`, `SoloDone`, `Flags`) may be duplicated,
//! delayed or quarantined, while the control plane (creates, the quiesce
//! round, failure notices, shutdown) models the reliable failure detector
//! and alignment channel the engine assumes — carrying an `Exec`'s
//! invocation, else 64 bytes, over the function-to-function hop. That flat
//! size keeps the control plane FIFO per worker: a create is never
//! overtaken by a snapshot marker.

use std::sync::Arc;
use std::time::Instant;

use se_chaos::Seam;
use se_dataflow::shell::threads_for;
use se_dataflow::{Address, Layout, Post, Roles, WaiterMap};

use crate::coordinator::Coordinator;
use crate::msg::{CoordMsg, Envelope, WorkerMsg};
use crate::worker::Worker;

/// Where the coordinator (front) and the `workers` partitions (back) run.
pub(crate) fn layout(workers: usize) -> Layout {
    Layout::new(threads_for(workers + 1), 1)
}

/// Where `envelope` goes under `layout`, pushed by the coordinator if
/// `from_coord`, else by a worker (see the module doc).
fn address(layout: &Layout, from_coord: bool, envelope: &Envelope) -> Address {
    let (thread, seam) = match (envelope, from_coord) {
        (Envelope::Coord(_), _) => (layout.front(0), Seam::WorkerToCoord),
        (Envelope::Worker(id, _), true) => (layout.back(*id), Seam::CoordToWorker),
        (Envelope::Worker(id, _), false) => (layout.back(*id), Seam::WorkerToWorker),
    };
    let bytes = match envelope {
        Envelope::Worker(_, WorkerMsg::Exec { inv, .. }) => inv.approx_size(),
        _ => 64,
    };
    Address {
        thread,
        seam: Some(seam),
        faultable: data_plane(envelope),
        bytes,
    }
}

/// Posts everything in `out`, pushed by the coordinator if `from_coord`,
/// in order, leaving it empty.
fn post_all(post: &Post<Envelope>, layout: &Layout, from_coord: bool, out: &mut Vec<Envelope>) {
    for envelope in out.drain(..) {
        post.send(address(layout, from_coord, &envelope), envelope);
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
/// drives them), the post their outboxes drain into, and the waiters the
/// coordinator's answers complete.
pub struct Shell {
    post: Post<Envelope>,
    layout: Layout,
    waiters: Arc<WaiterMap>,
    coordinator: Option<Coordinator>,
    /// The hosted workers that have not stopped, ascending by id.
    workers: Vec<Worker>,
}

impl Shell {
    /// A thread hosting `coordinator` (if any) and `workers` (ascending by
    /// id), placed by `layout`, sending through `post` and answering the
    /// coordinator's clients in `waiters`.
    pub fn new(
        post: Post<Envelope>,
        layout: Layout,
        waiters: Arc<WaiterMap>,
        coordinator: Option<Coordinator>,
        workers: Vec<Worker>,
    ) -> Shell {
        Shell {
            post,
            layout,
            waiters,
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
                self.flush();
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
    /// one posted step at a time.
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
                post_all(&self.post, &self.layout, false, &mut worker.out);
                while live && worker.resume() {
                    post_all(&self.post, &self.layout, false, &mut worker.out);
                }
                if !live {
                    self.workers.remove(at);
                }
                false
            }
        }
    }

    /// The coordinator's outbox, then its client answers in one pass: a
    /// decided batch's commit records are on their way before the client
    /// wake-ups, a syscall each, run. `deliver` posts a worker's outbox
    /// after each of its steps.
    fn flush(&mut self) {
        let Some(c) = &mut self.coordinator else {
            return;
        };
        post_all(&self.post, &self.layout, true, &mut c.out);
        if !c.answers.is_empty() {
            self.waiters.complete_all(std::mem::take(&mut c.answers));
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

    use se_ir::{Invocation, RequestId, Response};
    use se_lang::{EntityRef, Value};

    use super::*;

    /// The thread `envelope` is addressed to at M = 3: the coordinator
    /// alone on thread 0, workers 0 and 1 on threads 1 and 2.
    fn thread_of(envelope: &Envelope) -> usize {
        match envelope {
            Envelope::Coord(_) => 0,
            Envelope::Worker(id, _) => 1 + id,
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

    /// The addressing policy: every data-plane kind is faultable on its
    /// own seam, and every control-plane kind crosses its seam unfaulted
    /// and with the same 64 bytes, so control messages to one worker take
    /// the same hop and arrive in the order they were sent.
    #[test]
    fn address_faults_each_data_kind_on_its_seam_and_never_the_control_plane() {
        let layout = Layout::new(3, 1);
        for (from_coord, envelope, seam) in data_plane() {
            let to = address(&layout, from_coord, &envelope);
            assert_eq!(to.thread, thread_of(&envelope), "{envelope:?}");
            assert_eq!(to.seam, Some(seam), "{envelope:?}");
            assert!(to.faultable, "{envelope:?} is not faulted");
        }

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
        let sent = (to_worker.into_iter())
            .map(|msg| (true, Envelope::Worker(0, msg), Seam::CoordToWorker))
            .chain(
                (to_coord.into_iter())
                    .map(|msg| (false, Envelope::Coord(msg), Seam::WorkerToCoord)),
            );
        for (from_coord, envelope, seam) in sent {
            let to = address(&layout, from_coord, &envelope);
            let want = Address {
                thread: thread_of(&envelope),
                seam: Some(seam),
                faultable: false,
                bytes: 64,
            };
            assert_eq!(to, want, "{envelope:?}");
        }
    }
}
