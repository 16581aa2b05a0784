//! The engine threads both engines run: one per engine core, each a thin
//! loop over the roles it hosts.
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
//! and only when a hosted role asks for it. The loop has the engine route
//! the outboxes ([`Roles::flush`]) after every turn and handler, so one
//! handler's sends are on their way while the next runs.
//! The engine's route alone decides *how* a message travels: to the inbox of
//! the thread hosting its addressee, through the chaos seam it crosses, and
//! after its simulated hop.

use std::time::Instant;

use crate::delay::DelayReceiver;

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

    /// Routes everything the hosted roles pushed onto their outboxes.
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

/// The roles' turn, with the wall clock to read if they need it, routed.
fn turn<R: Roles>(roles: &mut R) -> bool {
    let live = roles.turn(Instant::now);
    roles.flush();
    live
}

/// Hands `envelope` to its role, routed.
fn deliver<R: Roles>(roles: &mut R, envelope: R::Envelope) -> bool {
    let again = roles.deliver(envelope);
    roles.flush();
    again
}

#[cfg(test)]
mod tests {
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
}
