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
//! Each thread owns one delay queue of [`Envelope`]s, and every send — a
//! hop, a control broadcast, a chaos-delayed copy — goes to the queue of the
//! thread that hosts the destination role ([`Routes`]). A push to the
//! running thread costs one lock and no syscall, since nobody is parked on
//! it. A delayed message to a co-located role is a due time in the same
//! heap, so the thread's one blocking receive times every hosted role's
//! messages along with the coordinator's batch deadline.

use std::time::Duration;

use se_chaos::{ChaosPlan, Seam};
use se_dataflow::{send_with_chaos, DelayReceiver, DelaySender, NetConfig};

use crate::coordinator::Coordinator;
use crate::msg::Envelope;
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

/// Where each role's messages go: the inbox of the thread that hosts it.
/// Every role holds a copy, so a thread's inbox stays open while any role
/// on it lives.
#[derive(Clone)]
pub struct Routes {
    coord: DelaySender<Envelope>,
    workers: Vec<DelaySender<Envelope>>,
}

impl Routes {
    /// Routes to the coordinator through `coord` and to worker *i* through
    /// `workers[i]`.
    pub fn new(coord: DelaySender<Envelope>, workers: Vec<DelaySender<Envelope>>) -> Routes {
        Routes { coord, workers }
    }

    /// The number of workers (state partitions).
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    fn inbox(&self, to: &Envelope) -> &DelaySender<Envelope> {
        match to {
            Envelope::Coord(_) => &self.coord,
            Envelope::Worker(id, _) => &self.workers[*id],
        }
    }

    /// Control-plane send, due after `delay`: never faulted.
    pub(crate) fn send(&self, to: Envelope, delay: Duration) {
        self.inbox(&to).send_after(to, delay);
    }

    /// Data-plane send, due after `delay`, through the chaos seam `seam`.
    pub(crate) fn send_with_chaos(
        &self,
        chaos: &ChaosPlan,
        seam: Seam,
        net: &NetConfig,
        to: Envelope,
        delay: Duration,
    ) {
        send_with_chaos(chaos, seam, net, self.inbox(&to), to, delay);
    }
}

/// One engine thread: the roles it hosts and the inbox they share.
pub struct Shell {
    inbox: DelayReceiver<Envelope>,
    coordinator: Option<Coordinator>,
    /// The hosted workers that have not stopped, ascending by id.
    workers: Vec<Worker>,
}

impl Shell {
    /// A thread over `inbox` hosting `coordinator` (if any) and `workers`
    /// (ascending by id).
    pub fn new(
        inbox: DelayReceiver<Envelope>,
        coordinator: Option<Coordinator>,
        workers: Vec<Worker>,
    ) -> Shell {
        Shell {
            inbox,
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

    /// The coordinator's source work, if this thread hosts it. Returns
    /// `false` once every hosted role has stopped.
    fn source_work(&mut self) -> bool {
        if self.coordinator.as_mut().is_some_and(|c| !c.turn()) {
            self.coordinator = None;
        }
        self.coordinator.is_some() || !self.workers.is_empty()
    }

    /// Hands `envelope` to its role. A message to a role that has stopped
    /// is dropped.
    fn deliver(&mut self, envelope: Envelope) {
        match envelope {
            Envelope::Coord(msg) => {
                if let Some(c) = &mut self.coordinator {
                    c.handle(msg);
                }
            }
            Envelope::Worker(id, msg) => {
                let Some(at) = self.workers.iter().position(|w| w.id() == id) else {
                    return;
                };
                if !self.workers[at].handle(msg) {
                    self.workers.remove(at);
                }
            }
        }
    }
}
