//! The engine threads both engines run: one per engine core, each a thin
//! loop over the roles it hosts, and the one post between them.
//!
//! Partitions are the unit of state and threads the unit of CPU. A
//! deployment with `roles` roles runs them on M = min(cores, `roles`)
//! threads ([`threads_for`]), where cores is the deploying thread's
//! `available_parallelism()`; under sleep-mode service time, which simulates
//! a core per role ([`crate::net::service_sleeps`]), every role gets a
//! thread. A [`Layout`] places the roles: a front group on the first
//! threads, a back group round robin on the rest, and every role on thread
//! 0 at M = 1. Each engine picks the split its paper deployment names.
//!
//! Each thread owns one delay queue of its engine's envelopes. A push to the
//! running thread costs one lock and no syscall, since nobody is parked on
//! it. A delayed message to a co-located role is a due time in the same
//! heap, so the thread's one blocking receive times every hosted role's
//! messages along with the roles' own deadlines.
//!
//! The roles do no I/O. A handler decides *what* to send and pushes it onto
//! its role's outbox, and time enters a role only as the `now` of
//! [`Roles::turn`]: the wall clock, which the loop ([`run`]) alone reads,
//! and only when a hosted role asks for it. The loop has the engine empty
//! the outboxes ([`Roles::flush`]) after every turn and handler, so one
//! handler's sends are on their way while the next runs.
//! The engine decides only *where* a message goes: its [`Address`], the
//! thread hosting its addressee, the seam it crosses and whether that seam
//! may fault it. The [`Post`] alone carries it there: through the chaos
//! plan, after its simulated hop, into that thread's inbox.

use std::time::{Duration, Instant};

use crate::delay::{delay_channel, DelayReceiver, DelaySender};
use crate::failure::{ChaosPlan, MsgFaultAction, Seam};
use crate::net::NetConfig;

/// The number of engine threads for `roles` roles: one per core the calling
/// thread may run on, and never more than one per role. A sleeping service
/// burn leaves its core free, so sleep mode stands for a cluster with a core
/// per role, and its roles get a thread each whatever the host.
pub fn threads_for(roles: usize) -> usize {
    if crate::net::service_sleeps() {
        return roles;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(roles)
}

/// Where each role runs: the front group's roles round robin on the first
/// `front` threads, the back group's on the rest; with no thread left for
/// the back group (M = 1) it shares the front's.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    threads: usize,
    front: usize,
}

impl Layout {
    /// `threads` threads, the first `front` (at least one) for the front
    /// group.
    pub fn new(threads: usize, front: usize) -> Layout {
        assert!(
            (1..=threads).contains(&front),
            "the front group needs a thread"
        );
        Layout { threads, front }
    }

    /// How many threads run the roles.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The thread hosting member `i` of the front group.
    pub fn front(&self, i: usize) -> usize {
        i % self.front
    }

    /// The thread hosting member `i` of the back group.
    pub fn back(&self, i: usize) -> usize {
        match self.threads - self.front {
            0 => i % self.front,
            back => self.front + i % back,
        }
    }
}

/// Where a message goes and how it travels: all an engine decides of an
/// envelope it hands the [`Post`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Address {
    /// The thread hosting the addressee.
    pub thread: usize,
    /// The seam crossed, whose hop delays the message; none arrives at once.
    pub seam: Option<Seam>,
    /// Whether the chaos plan may fault it at its seam: the data plane.
    pub faultable: bool,
    /// The bytes it carries, which lengthen its hop.
    pub bytes: usize,
}

/// The one place a protocol message is sent: an inbox per engine thread,
/// the chaos plan and the hop model. Each engine thread holds a copy, so an
/// inbox stays open while any thread lives.
#[derive(Clone)]
pub struct Post<E> {
    inboxes: Vec<DelaySender<E>>,
    chaos: ChaosPlan,
    net: NetConfig,
}

impl<E: Clone> Post<E> {
    /// A post to `threads` new inboxes, faulting by `chaos` and delaying by
    /// `net`, and the inboxes' receiving ends, one per thread.
    pub fn new(threads: usize, chaos: ChaosPlan, net: NetConfig) -> (Self, Vec<DelayReceiver<E>>) {
        let (inboxes, receivers) = (0..threads).map(|_| delay_channel()).unzip();
        let post = Post {
            inboxes,
            chaos,
            net,
        };
        (post, receivers)
    }

    /// Sends `envelope` into the inbox of `to.thread`. A message that
    /// crosses a seam takes that seam's hop for its bytes (StateFlow's
    /// function-to-function channel, StateFun's remote-function call) and,
    /// if faultable, whatever the chaos plan scripts for the seam's next
    /// faultable message; a fault's delay is scaled by the time scale, so a
    /// script means the same at every `SE_TIME_SCALE`. Only faultable
    /// messages count towards a seam's n-th.
    pub fn send(&self, to: Address, envelope: E) {
        let inbox = &self.inboxes[to.thread];
        let Some(seam) = to.seam else {
            inbox.send(envelope);
            return;
        };
        let hop = match seam {
            Seam::CoordToWorker | Seam::WorkerToCoord | Seam::WorkerToWorker => {
                self.net.f2f_latency(to.bytes)
            }
            Seam::RemoteRequest | Seam::RemoteResponse => self.net.remote_fn_latency(to.bytes),
        };
        let action = match to.faultable {
            true => self.chaos.on_message(seam),
            false => MsgFaultAction::Deliver,
        };
        let after = |us| hop + self.net.scaled(Duration::from_micros(us));
        match action {
            MsgFaultAction::Deliver => inbox.send_after(envelope, hop),
            // A quarantine is a drop that preserves liveness: with a
            // recovery in between the late copy is generation-fenced (a
            // true loss); without one the run merely stalls.
            MsgFaultAction::Quarantine { extra_us } | MsgFaultAction::Delay { extra_us } => {
                inbox.send_after(envelope, after(extra_us));
            }
            MsgFaultAction::Duplicate { gap_us } => {
                inbox.send_after(envelope.clone(), hop);
                inbox.send_after(envelope, after(gap_us));
            }
        }
    }

    /// Sends `envelope` to every thread, at once and never faulted.
    pub fn broadcast(&self, envelope: E) {
        for inbox in &self.inboxes {
            inbox.send(envelope.clone());
        }
    }
}

/// The roles one engine thread hosts, as the loop drives them.
pub trait Roles {
    /// What the roles send each other: one thread's inbox holds them.
    type Envelope;

    /// Work no message brings — a source or broker read, a due timer.
    /// `now` reads the wall clock; a turn that times nothing (StateFlow's
    /// every turn) leaves it uncalled. Returns `false` once every hosted
    /// role has stopped.
    fn turn(&mut self, now: impl FnOnce() -> Instant) -> bool;

    /// Hands `envelope` to its role. Returns whether the hosted roles'
    /// turn should follow at once, before the next queued message.
    fn deliver(&mut self, envelope: Self::Envelope) -> bool;

    /// Posts everything the hosted roles pushed onto their outboxes.
    fn flush(&mut self);

    /// The earliest instant a hosted role wants a turn without a message:
    /// StateFun's checkpoint barrier or the next broker record's
    /// `visible_at`. StateFlow's roles hold no timer (its coordinator seals
    /// when its pipeline window opens), so its shell returns `None`.
    fn deadline(&self) -> Option<Instant>;
}

/// The thread's loop; returns once every hosted role has stopped.
///
/// A turn runs the roles' own work, and then hands every due message to its
/// role. Only a turn that handled no message blocks, on the inbox, until one
/// of exactly three things: a **message** comes due (every simulated hop
/// delay and chaos quarantine is a due time in the inbox's heap), a **wake**
/// (whoever changes what a role watches — a source, a broker partition, the
/// shutdown flag — fires this inbox's waker), or [`Roles::deadline`]. Before
/// it parks, the receive polls for as long as the thread's adaptive window
/// ([`crate::delay`], "Polling"): a thread whose work came moments ago stays
/// on its core and takes the next message or wake without being woken, and
/// one idle for longer than the window's cap parks at once. A busy thread
/// never sleeps, an idle one never wakes, and a thread polls only while its
/// work arrives less than the cap apart.
pub fn run<R: Roles>(inbox: DelayReceiver<R::Envelope>, mut roles: R) {
    while turn(&mut roles) {
        // Every due message, before blocking: what a handler sends to a
        // co-located role is due at once when the simulated hop is zero,
        // and is handled in this same turn.
        let mut handled = false;
        while let Some(envelope) = inbox.try_recv() {
            handled = true;
            if deliver(&mut roles, envelope) && !turn(&mut roles) {
                return;
            }
        }
        if !handled {
            if let Some(envelope) = inbox.recv_until(roles.deadline()) {
                deliver(&mut roles, envelope);
            }
        }
    }
}

/// The roles' turn, with the wall clock to read if they need it, posted.
fn turn<R: Roles>(roles: &mut R) -> bool {
    let live = roles.turn(Instant::now);
    roles.flush();
    live
}

/// Hands `envelope` to its role, posted.
fn deliver<R: Roles>(roles: &mut R, envelope: R::Envelope) -> bool {
    let again = roles.deliver(envelope);
    roles.flush();
    again
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use se_chaos::{FaultScript, MessageFault, MsgFaultKind};

    use super::*;

    #[test]
    fn one_thread_hosts_both_groups_and_more_split_them() {
        let one = Layout::new(1, 1);
        assert_eq!((one.front(3), one.back(3)), (0, 0));
        // StateFlow's split: the coordinator alone in front.
        let sf = Layout::new(3, 1);
        assert_eq!((0..4).map(|i| sf.back(i)).collect::<Vec<_>>(), [1, 2, 1, 2]);
        assert_eq!(sf.front(0), 0);
        let halves = Layout::new(4, 2);
        assert_eq!(
            (0..3).map(|i| halves.front(i)).collect::<Vec<_>>(),
            [0, 1, 0]
        );
        assert_eq!(
            (0..3).map(|i| halves.back(i)).collect::<Vec<_>>(),
            [2, 3, 2]
        );
    }

    /// A post to one thread under a plan that faults message `nth` on
    /// `seam` by `kind`.
    fn post(
        seam: Seam,
        nth: u64,
        kind: MsgFaultKind,
        net: NetConfig,
    ) -> (Post<u8>, DelayReceiver<u8>) {
        let chaos = ChaosPlan::from_script(FaultScript {
            messages: vec![MessageFault { seam, nth, kind }],
            ..FaultScript::default()
        });
        let (post, mut inboxes) = Post::new(1, chaos, net);
        (post, inboxes.remove(0))
    }

    /// A data-plane message to thread 0 across `seam`.
    fn data(seam: Seam) -> Address {
        Address {
            thread: 0,
            seam: Some(seam),
            faultable: true,
            bytes: 0,
        }
    }

    #[test]
    fn deliver_passes_through() {
        let (post, mut inboxes) = Post::new(1, ChaosPlan::none(), NetConfig::fast_test());
        post.send(data(Seam::WorkerToWorker), 7u8);
        assert_eq!(
            inboxes.remove(0).recv_timeout(Duration::from_millis(100)),
            Some(7)
        );
    }

    #[test]
    fn duplicate_sends_two_copies() {
        let duplicate = MsgFaultKind::Duplicate { gap_us: 0 };
        let (post, rx) = post(Seam::WorkerToWorker, 0, duplicate, NetConfig::fast_test());
        post.send(data(Seam::WorkerToWorker), 7);
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Some(7));
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Some(7));
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), None);
    }

    #[test]
    fn quarantine_holds_the_message_back() {
        let drop = MsgFaultKind::Drop {
            quarantine_us: 60_000,
        };
        let (post, rx) = post(Seam::WorkerToWorker, 0, drop, NetConfig::fast_test());
        post.send(data(Seam::WorkerToWorker), 7);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            None,
            "still quarantined"
        );
        assert_eq!(rx.recv_timeout(Duration::from_millis(200)), Some(7));
    }

    #[test]
    fn quarantine_scales_with_time_scale() {
        let drop = MsgFaultKind::Drop {
            quarantine_us: 10_000_000,
        };
        let net = NetConfig {
            time_scale: 0.0,
            ..NetConfig::fast_test()
        };
        let (post, rx) = post(Seam::WorkerToWorker, 0, drop, net);
        post.send(data(Seam::WorkerToWorker), 7);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(100)),
            Some(7),
            "a 10s quarantine at scale 0 is immediate"
        );
    }

    #[test]
    fn broadcast_reaches_every_thread_at_once() {
        let (post, inboxes) = Post::new(3, ChaosPlan::none(), NetConfig::fast_test());
        post.broadcast(7u8);
        for inbox in &inboxes {
            assert_eq!(inbox.try_recv(), Some(7));
        }
    }

    /// A control-plane send, with no seam or unfaultable on one, leaves
    /// the seam's count alone: the first data-plane message after them is
    /// still its n-th 0, and is the one the plan drops.
    #[test]
    fn control_plane_sends_do_not_advance_the_seam_count() {
        // Hops cost nothing, so whatever is not held back is due at once.
        let net = NetConfig {
            f2f_hop: Duration::ZERO,
            ..NetConfig::fast_test()
        };
        let drop = MsgFaultKind::Drop {
            quarantine_us: 60_000_000,
        };
        let (post, rx) = post(Seam::WorkerToCoord, 0, drop, net);
        let unfaultable = Address {
            faultable: false,
            ..data(Seam::WorkerToCoord)
        };
        let no_seam = Address {
            seam: None,
            ..unfaultable
        };
        post.send(no_seam, 1);
        post.send(unfaultable, 2);
        post.send(data(Seam::WorkerToCoord), 3);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), None, "the data-plane message is held back");
        assert_eq!(rx.len(), 1, "and sent once");
    }
}
