//! A delay queue: the in-process stand-in for a network link, and the one
//! thing an engine thread parks on. [`DelayReceiver::recv_until`] is the
//! only blocking call of an engine thread in the engine crates
//! (`se-dataflow`, `se-broker`, `se-stateflow`, `se-statefun`), and this
//! file holds their only condvars: the queue's, and that of the one-shot
//! slot ([`oneshot`]) a client's [`crate::ResponseWaiter`] waits on.
//!
//! Senders enqueue messages with a delivery delay; the receiver sees a
//! message only once its delivery instant has passed. This is how simulated
//! hop latency (see [`crate::net::NetConfig`]) is imposed *without blocking
//! the sender* — an operator thread hands a message to the link and keeps
//! processing, exactly like a real NIC, so queueing delay under load emerges
//! naturally at the receiver.
//!
//! FIFO is preserved among messages with equal delivery instants via a
//! monotonically increasing sequence number: delivery order is `(due, seq)`.
//!
//! **Waking.** A thread that owns a receiver usually has more to watch than
//! its queue — a source log, a broker partition, a shutdown flag. Instead of
//! polling those between short receive timeouts it hands out a [`Waker`]
//! ([`DelayReceiver::waker`]) and blocks in [`DelayReceiver::recv_until`]:
//! whoever changes one of the watched things calls [`Waker::wake`], and the
//! receive returns `None` so the owner looks again. A wake is a token, like
//! `std::thread::unpark`: one that arrives while the owner is busy is kept
//! and makes its *next* blocking receive return at once, so the pattern
//! "change the state, then wake" can never be missed; several wakes before
//! that receive fold into one. The owner's rule is the mirror image: after
//! a receive returns, look at everything watched *before* blocking again.
//!
//! **One receiver.** A queue has one receiving thread at a time: the
//! thread that owns it, which alone parks on it. Receives must not run
//! concurrently on one queue.
//!
//! **Polling.** A receive that finds nothing due and no wake token, and a
//! slot wait that finds no answer, first poll, for up to the waiting
//! thread's window `w`: a receive looks at the send count and the wake
//! token, a slot wait at the slot's park word, without a lock, and both
//! yield the CPU between looks so that a thread sharing the core still
//! runs. The deadline and the head's due time cut the poll short, and so
//! does the first yield that let another thread run. KVM polls only while
//! its CPU has no other runnable task, and likewise a thread that shares
//! its core parks rather than hand the core back and forth at every look.
//! Only then does the wait park.
//!
//! The window follows Linux KVM's adaptive halt-polling (`halt_poll_ns`):
//! a park whose idle time — from finding nothing to take to the park's
//! end — was at most `POLL_CAP` but longer than `w` doubles `w`, starting
//! at `POLL_START` (KVM's `halt_poll_ns_grow_start`, 10 µs) and never
//! going above `POLL_CAP` (KVM's default `halt_poll_ns`, 200 µs); an idle
//! time above `POLL_CAP` resets `w` to 0, and a wait the poll served leaves
//! it as it is. The window belongs to the waiting thread, not to what it
//! waits on: an engine thread's inbox receives and a client's answer waits
//! follow the same rule, and a client that calls back to back keeps its
//! window from one fresh slot to the next. A fresh thread starts at 0 and
//! parks at once, and an idle or timer-driven thread (one woken every few
//! milliseconds) falls back to 0. A thread whose work arrives less than
//! `POLL_CAP` apart stays on its core instead. The trade is CPU: at more
//! than one arrival per `POLL_CAP`, a thread spends its whole core polling,
//! which an engine thread may, since it owns its core (one engine thread
//! per core, see [`crate::shell`]), and a client that blocks on call after
//! call spends its own.
//!
//! **Cost.** A waiter announces that it parks in one atomic word, changed
//! only under its lock. A queue's `send*` and last sender's drop and a
//! slot's fill read it under that lock and `wake` in its single
//! `fetch_or`, and all of them skip the condvar — an unconditional `futex`
//! syscall in `std` — unless a wait is actually parked. Waking, sending to,
//! answering or closing a busy or polling waiter costs no syscall, and a
//! send costs one atomic add more (the count a poll watches). A look of the
//! poll costs two syscalls, the yield and the read of the thread's
//! context-switch count. A slot holds one value and no heap of its own:
//! one allocation per request, and a wait that finds its answer pending
//! reads one atomic word.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

struct Entry<T> {
    due: Instant,
    seq: u64,
    msg: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Park-word bit: a wake is pending (set by [`Waker::wake`], taken by the
/// receive it ends); on a slot, the slot is filled.
const WOKEN: usize = 1;
/// Park-word bit: the waiter is inside its condvar wait.
const PARKED: usize = 2;

/// The first nonzero poll window (KVM's `halt_poll_ns_grow_start`).
const POLL_START: Duration = Duration::from_micros(10);
/// The largest poll window, and the idle time above which the window
/// resets to 0 (KVM's default `halt_poll_ns`).
const POLL_CAP: Duration = Duration::from_micros(200);

/// The poll window after a park that ended `idle` after its receive found
/// nothing due, given the window `w` it polled for; see the module docs.
fn next_window(w: Duration, idle: Duration) -> Duration {
    if idle > POLL_CAP {
        Duration::ZERO
    } else if idle <= w {
        w
    } else if w.is_zero() {
        POLL_START
    } else {
        (2 * w).min(POLL_CAP)
    }
}

thread_local! {
    /// The calling thread's poll window; see the module docs.
    static WINDOW: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// The calling thread's poll window.
fn window() -> Duration {
    WINDOW.with(Cell::get)
}

/// Moves the calling thread's window on after a park whose idle time began
/// at `since`.
fn parked_since(since: Instant) {
    WINDOW.with(|w| w.set(next_window(w.get(), since.elapsed())));
}

/// Looks at `ready`, yielding the CPU between looks, until it holds or
/// `until` passes. Returns `false`, early, once a yield let another thread
/// run on this CPU: the wait then parks.
fn poll(until: Instant, ready: impl Fn() -> bool) -> bool {
    let preempted = || switches().map(|(_, involuntary)| involuntary);
    let before = preempted();
    while !ready() && Instant::now() < until {
        std::thread::yield_now();
        if before.is_some() && preempted() != before {
            return false;
        }
    }
    true
}

struct Shared<T> {
    /// The pending messages.
    queue: Mutex<BinaryHeap<Reverse<Entry<T>>>>,
    /// Messages ever sent, the next one's sequence number; advanced only
    /// under the `queue` lock, read lock-free by a polling receive.
    sent: AtomicU64,
    available: Condvar,
    senders: AtomicUsize,
    /// The `WOKEN` and `PARKED` bits. `PARKED` changes only under the
    /// `queue` lock, so whoever holds that lock reads it exactly; `wake`
    /// reads it lock-free and takes the lock only when it is set.
    park: AtomicUsize,
}

/// Sending half of a delay queue. Cloning adds a sender.
pub struct DelaySender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for DelaySender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for DelaySender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake a parked receive so it can observe
            // closure — read under the lock, or one that just read a
            // non-zero sender count would start waiting after this check.
            let guard = self.shared.queue.lock();
            let parked = self.shared.park.load(Ordering::SeqCst) & PARKED != 0;
            drop(guard);
            if parked {
                self.shared.available.notify_one();
            }
        }
    }
}

impl<T> DelaySender<T> {
    /// Enqueues `msg` for delivery after `delay`.
    pub fn send_after(&self, msg: T, delay: Duration) {
        let due = Instant::now() + delay;
        let mut guard = self.shared.queue.lock();
        let seq = self.shared.sent.fetch_add(1, Ordering::SeqCst);
        guard.push(Reverse(Entry { due, seq, msg }));
        let parked = self.shared.park.load(Ordering::SeqCst) & PARKED != 0;
        drop(guard);
        if parked {
            self.shared.available.notify_one();
        }
    }

    /// Enqueues `msg` for immediate delivery.
    pub fn send(&self, msg: T) {
        self.send_after(msg, Duration::ZERO);
    }
}

/// Ends a blocking receive from outside the queue; see the module docs.
/// Cloneable, and independent of the message type so that a source or a
/// broker partition can hold the waker of whichever thread consumes it.
#[derive(Clone)]
pub struct Waker(Arc<dyn Fn() + Send + Sync>);

impl Waker {
    /// Makes the receiver's current blocking receive — or, when none is
    /// blocked, its next one — return `None` promptly. One atomic operation,
    /// no lock and no syscall, unless a receive is parked.
    pub fn wake(&self) {
        (self.0)();
    }
}

/// Receiving half of a delay queue.
pub struct DelayReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// The lock-protected half of [`Shared`], as a receive holds it.
type QueueGuard<'a, T> = MutexGuard<'a, BinaryHeap<Reverse<Entry<T>>>>;

impl<T> DelayReceiver<T> {
    /// Pops the head if it is due at `now`.
    fn pop_due(guard: &mut QueueGuard<'_, T>, now: Instant) -> Option<T> {
        if guard.peek().is_none_or(|Reverse(e)| e.due > now) {
            return None;
        }
        guard.pop().map(|Reverse(e)| e.msg)
    }

    /// Polls, without the queue lock, until a message is sent after `sent`
    /// messages, a wake is pending, or `until` passes; see [`poll`].
    fn poll(&self, sent: u64, until: Instant) -> bool {
        let shared = &*self.shared;
        poll(until, || {
            shared.sent.load(Ordering::SeqCst) != sent
                || shared.park.load(Ordering::SeqCst) & WOKEN != 0
        })
    }

    /// Receives the next due message, blocking until one is due, a
    /// [`Waker::wake`] arrives (or arrived since the last blocking receive
    /// returned), `deadline` passes, or all senders are dropped and the
    /// queue holds no due-or-future message — `None` in the last three
    /// cases. With `deadline = None` nothing but a message, a wake or
    /// closure ends the wait. Polls before it parks; see the module docs.
    pub fn recv_until(&self, deadline: Option<Instant>) -> Option<T> {
        let park = &self.shared.park;
        let mut guard = self.shared.queue.lock();
        // When this receive first found nothing due: its idle time's start.
        let mut idle_since = None;
        let mut may_poll = true;
        loop {
            let now = Instant::now();
            if let Some(msg) = Self::pop_due(&mut guard, now) {
                return Some(msg);
            }
            let head_due = guard.peek().map(|Reverse(e)| e.due);
            if (head_due.is_none() && self.is_closed()) || deadline.is_some_and(|d| d <= now) {
                return None;
            }
            let since = *idle_since.get_or_insert(now);
            let window_end = since + window();
            let poll_end = head_due
                .into_iter()
                .chain(deadline)
                .fold(window_end, Instant::min);
            if may_poll && now < poll_end && park.load(Ordering::SeqCst) & WOKEN == 0 {
                // Read under the lock: every later send moves it.
                let sent = self.shared.sent.load(Ordering::SeqCst);
                drop(guard);
                may_poll = self.poll(sent, poll_end);
                guard = self.shared.queue.lock();
                continue;
            }
            // Announce the park, then look for a wake that raced it: either
            // the waker's `fetch_or` came first and shows up here, or it
            // sees the announcement and notifies once the wait has begun
            // (it passes through the lock this thread holds until then).
            if park.fetch_or(PARKED, Ordering::SeqCst) & WOKEN == 0 {
                match head_due.into_iter().chain(deadline).min() {
                    Some(until) => {
                        self.shared.available.wait_until(&mut guard, until);
                    }
                    None => self.shared.available.wait(&mut guard),
                }
                parked_since(since);
            }
            // Leave the wait, and take a wake that ended it.
            if park.fetch_and(!(PARKED | WOKEN), Ordering::SeqCst) & WOKEN != 0 {
                // A message that came due meanwhile is worth more than the
                // wake: the owner looks around after either.
                return Self::pop_due(&mut guard, Instant::now());
            }
        }
    }

    /// Receives the next due message, waiting at most `timeout`.
    ///
    /// Returns `None` on timeout, on a wake (see [`DelayReceiver::waker`]),
    /// or when all senders are dropped and the queue holds no
    /// due-or-future messages.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Non-blocking receive of a due message. Leaves a pending wake alone.
    pub fn try_recv(&self) -> Option<T> {
        Self::pop_due(&mut self.shared.queue.lock(), Instant::now())
    }

    /// A handle that ends this receiver's blocking receives from outside.
    pub fn waker(&self) -> Waker
    where
        T: Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        Waker(Arc::new(move || {
            let before = shared.park.fetch_or(WOKEN, Ordering::SeqCst);
            // An already pending wake has its notify under way (or will be
            // found by the receive's own check): nothing to add.
            if before == PARKED {
                // The parked bit is read lock-free here: pass through the
                // lock so the notify lands after the wait began.
                drop(shared.queue.lock());
                shared.available.notify_one();
            }
        }))
    }

    /// Number of queued (due or pending) messages.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether all senders were dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.senders.load(Ordering::SeqCst) == 0
    }
}

/// The calling thread's context switches so far, voluntary and
/// involuntary (`ru_nvcsw`, `ru_nivcsw`): a park counts a voluntary one, a
/// `yield_now` that let another thread run an involuntary one.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn switches() -> Option<(i64, i64)> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_THREAD: i32 = 1;
    let mut usage = [0i64; 18];
    // SAFETY: on 64-bit Linux `struct rusage` is two `timeval`s and
    // fourteen `long`s, eighteen 8-byte words, so the kernel writes exactly
    // `usage`; `ru_nvcsw` and `ru_nivcsw` are the last two.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut usage) };
    (rc == 0).then_some((usage[16], usage[17]))
}

/// Elsewhere a poll cannot tell that it shares its CPU, and runs its window.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn switches() -> Option<(i64, i64)> {
    None
}

/// Creates a connected delay-queue pair.
pub fn delay_channel<T>() -> (DelaySender<T>, DelayReceiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(BinaryHeap::new()),
        sent: AtomicU64::new(0),
        available: Condvar::new(),
        senders: AtomicUsize::new(1),
        park: AtomicUsize::new(0),
    });
    (
        DelaySender {
            shared: Arc::clone(&shared),
        },
        DelayReceiver { shared },
    )
}

/// The shared half of a one-shot slot.
struct Slot<T> {
    /// The value, from the fill until the receiver takes it.
    value: Mutex<Option<T>>,
    filled: Condvar,
    /// The `WOKEN` (filled) and `PARKED` bits, both changed only under the
    /// `value` lock; a wait reads `WOKEN` lock-free.
    park: AtomicUsize,
}

/// Filling half of a one-shot slot; see [`oneshot`].
pub struct OneshotSender<T> {
    slot: Arc<Slot<T>>,
    /// What a sender dropped unfilled fills the slot with.
    closed: fn() -> T,
}

impl<T> OneshotSender<T> {
    /// Fills the slot with `value` unless it is filled already: the first
    /// fill wins, and later ones are dropped.
    pub fn send(&self, value: T) {
        let mut cell = self.slot.value.lock();
        let before = self.slot.park.fetch_or(WOKEN, Ordering::SeqCst);
        if before & WOKEN != 0 {
            return;
        }
        *cell = Some(value);
        drop(cell);
        if before & PARKED != 0 {
            self.slot.filled.notify_one();
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        // Only this sender fills the slot: a filled one is left alone,
        // without its lock.
        if self.slot.park.load(Ordering::SeqCst) & WOKEN == 0 {
            self.send((self.closed)());
        }
    }
}

/// Waiting half of a one-shot slot; see [`oneshot`].
pub struct OneshotReceiver<T> {
    slot: Arc<Slot<T>>,
}

impl<T> OneshotReceiver<T> {
    /// Whether the slot is filled: one atomic load.
    fn filled(&self) -> bool {
        self.slot.park.load(Ordering::SeqCst) & WOKEN != 0
    }

    /// Takes the value if the slot is filled; one atomic load while it is
    /// not. `None` also once the value was taken.
    pub fn try_recv(&self) -> Option<T> {
        if !self.filled() {
            return None;
        }
        self.slot.value.lock().take()
    }

    /// Takes the value, waiting until the slot is filled or `deadline`
    /// passes (`None` then, and once the value was taken). With
    /// `deadline = None` only the fill ends the wait. Polls for the calling
    /// thread's window before it parks, as [`DelayReceiver::recv_until`]
    /// does; see the module docs.
    pub fn wait_until(&self, deadline: Option<Instant>) -> Option<T> {
        if self.filled() {
            return self.slot.value.lock().take();
        }
        // This wait's idle time starts now.
        let since = Instant::now();
        let poll_end = deadline.into_iter().fold(since + window(), Instant::min);
        if since < poll_end {
            poll(poll_end, || self.filled());
        }
        let slot = &*self.slot;
        let mut value = slot.value.lock();
        if self.filled() || deadline.is_some_and(|d| d <= Instant::now()) {
            return value.take();
        }
        // Announced under the lock that every fill takes: a fill either
        // came first and shows above, or sees the bit and notifies once
        // the wait has begun.
        slot.park.fetch_or(PARKED, Ordering::SeqCst);
        while !self.filled() {
            match deadline {
                Some(until) => {
                    if slot.filled.wait_until(&mut value, until).timed_out() {
                        break;
                    }
                }
                None => slot.filled.wait(&mut value),
            }
        }
        slot.park.fetch_and(!PARKED, Ordering::SeqCst);
        parked_since(since);
        value.take()
    }

    /// Tells whether a wait on this slot is inside its condvar wait, also
    /// after the receiver itself moved to the thread that parks.
    #[cfg(test)]
    pub(crate) fn park_probe(&self) -> impl Fn() -> bool + Send + 'static
    where
        T: Send + 'static,
    {
        let slot = Arc::clone(&self.slot);
        move || slot.park.load(Ordering::SeqCst) & PARKED != 0
    }
}

/// Creates a one-shot slot: the sender fills it once, and the receiver
/// takes the value, waiting for it if need be. A sender dropped unfilled
/// fills it with `closed()`, so no wait outlasts its sender.
pub fn oneshot<T>(closed: fn() -> T) -> (OneshotSender<T>, OneshotReceiver<T>) {
    let slot = Arc::new(Slot {
        value: Mutex::new(None),
        filled: Condvar::new(),
        park: AtomicUsize::new(0),
    });
    (
        OneshotSender {
            slot: Arc::clone(&slot),
            closed,
        },
        OneshotReceiver { slot },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_delivery() {
        let (tx, rx) = delay_channel();
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Some(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Some(2));
    }

    #[test]
    fn delayed_delivery_orders_by_due_time() {
        let (tx, rx) = delay_channel();
        tx.send_after("late", Duration::from_millis(60));
        tx.send_after("early", Duration::from_millis(10));
        assert_eq!(rx.recv_timeout(Duration::from_millis(500)), Some("early"));
        assert_eq!(rx.recv_timeout(Duration::from_millis(500)), Some("late"));
    }

    #[test]
    fn fifo_among_equal_delays() {
        let (tx, rx) = delay_channel();
        for i in 0..100 {
            tx.send(i);
        }
        for i in 0..100 {
            assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Some(i));
        }
    }

    #[test]
    fn not_delivered_early() {
        let (tx, rx) = delay_channel();
        tx.send_after((), Duration::from_millis(80));
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), None, "too early");
        let got = rx.recv_timeout(Duration::from_millis(500));
        assert_eq!(got, Some(()));
        assert!(
            start.elapsed() >= Duration::from_millis(70),
            "delivered too early"
        );
    }

    #[test]
    fn timeout_when_empty() {
        let (tx, rx) = delay_channel::<u8>();
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
        drop(tx);
    }

    #[test]
    fn closed_and_empty_returns_none_quickly() {
        let (tx, rx) = delay_channel::<u8>();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), None);
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = delay_channel();
        let handle = std::thread::spawn(move || {
            for i in 0..1000 {
                tx.send_after(i, Duration::from_micros(i % 7 * 10));
            }
        });
        let mut got = Vec::new();
        while got.len() < 1000 {
            if let Some(v) = rx.recv_timeout(Duration::from_secs(2)) {
                got.push(v);
            } else {
                panic!("timed out with {} received", got.len());
            }
        }
        handle.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_only_due() {
        let (tx, rx) = delay_channel();
        tx.send_after(1, Duration::from_secs(10));
        assert_eq!(rx.try_recv(), None);
        tx.send(2);
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.len(), 1);
        assert!(!rx.is_empty());
    }

    /// Runs `f` on its own thread and fails the test if it has not returned
    /// within ten seconds — the receives under test have no timeout to fall
    /// back on, so a lost wake-up would otherwise hang the suite.
    fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(f()));
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a blocking receive never returned")
    }

    /// Spins until a receive on `rx` is inside its condvar wait.
    fn until_parked<T>(rx: &DelayReceiver<T>) {
        while rx.shared.park.load(Ordering::SeqCst) & PARKED == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        let (tx, rx) = delay_channel::<u8>();
        let waker = rx.waker();
        waker.wake();
        waker.wake(); // wakes before a receive fold into one
        watchdog(move || {
            assert_eq!(rx.try_recv(), None, "try_recv leaves the wake alone");
            assert_eq!(rx.recv_until(None), None);
            // The token is spent: the next receive blocks again.
            let start = Instant::now();
            assert_eq!(rx.recv_timeout(Duration::from_millis(30)), None);
            assert!(start.elapsed() >= Duration::from_millis(25));
            drop(tx);
        });
    }

    #[test]
    fn wake_while_parked_returns() {
        let (tx, rx) = delay_channel::<u8>();
        let rx = Arc::new(rx);
        let waker = rx.waker();
        let rx2 = Arc::clone(&rx);
        watchdog(move || {
            let parked = std::thread::spawn(move || rx2.recv_until(None));
            until_parked(&rx);
            waker.wake();
            assert_eq!(parked.join().unwrap(), None);
            drop(tx);
        });
    }

    #[test]
    fn wake_with_only_a_future_message_returns_none() {
        let (tx, rx) = delay_channel();
        let rx = Arc::new(rx);
        let waker = rx.waker();
        let rx2 = Arc::clone(&rx);
        watchdog(move || {
            tx.send_after(9, Duration::from_secs(60));
            let parked = std::thread::spawn(move || rx2.recv_until(None));
            until_parked(&rx);
            waker.wake();
            assert_eq!(parked.join().unwrap(), None, "the head is not due");
            assert_eq!(rx.len(), 1);
        });
    }

    #[test]
    fn recv_until_none_returns_only_on_message_wake_or_closure() {
        let (tx, rx) = delay_channel();
        let rx = Arc::new(rx);
        let rx2 = Arc::clone(&rx);
        watchdog(move || {
            let (out_tx, out_rx) = std::sync::mpsc::channel();
            let receiver = std::thread::spawn(move || {
                for _ in 0..3 {
                    out_tx.send(rx2.recv_until(None)).unwrap();
                }
            });
            // Nothing happens: it stays parked, with or without a pending
            // future message.
            until_parked(&rx);
            assert!(out_rx.recv_timeout(Duration::from_millis(40)).is_err());
            tx.send_after(2, Duration::from_millis(30));
            assert_eq!(out_rx.recv().unwrap(), Some(2), "message, once due");
            until_parked(&rx);
            rx.waker().wake();
            assert_eq!(out_rx.recv().unwrap(), None, "wake");
            until_parked(&rx);
            assert!(out_rx.recv_timeout(Duration::from_millis(40)).is_err());
            drop(tx);
            assert_eq!(out_rx.recv().unwrap(), None, "closure");
            receiver.join().unwrap();
        });
    }

    #[test]
    fn send_order_is_due_then_seq_with_and_without_a_parked_receiver() {
        let (tx, rx) = delay_channel();
        let rx = Arc::new(rx);
        let rx2 = Arc::clone(&rx);
        watchdog(move || {
            let receiver = std::thread::spawn(move || {
                (0..6)
                    .map(|_| rx2.recv_until(None).expect("six messages"))
                    .collect::<Vec<_>>()
            });
            until_parked(&rx);
            // The first send finds the receiver parked, the rest mostly not.
            tx.send_after(5, Duration::from_millis(20));
            tx.send_after(3, Duration::from_millis(10));
            tx.send_after(4, Duration::from_millis(10));
            tx.send(0);
            tx.send(1);
            tx.send(2);
            assert_eq!(receiver.join().unwrap(), vec![0, 1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn the_window_grows_from_start_to_the_cap_and_resets_above_it() {
        let us = Duration::from_micros;
        let zero = Duration::ZERO;
        assert_eq!(next_window(zero, us(50)), POLL_START, "first step");
        assert_eq!(next_window(POLL_START, us(50)), 2 * POLL_START);
        assert_eq!(next_window(us(160), us(180)), POLL_CAP, "capped");
        assert_eq!(next_window(POLL_CAP, POLL_CAP), POLL_CAP);
        assert_eq!(next_window(us(40), us(30)), us(40), "idle within w");
        assert_eq!(next_window(POLL_CAP, us(201)), zero, "idle above the cap");
        assert_eq!(next_window(zero, us(201)), zero);
    }

    /// Runs `receive` with the calling thread's poll window set to
    /// `window`; returns what it returned and whether it parked, told by
    /// the thread's voluntary context switches (`None` where they cannot be
    /// read).
    fn parks<R>(window: Duration, receive: impl FnOnce() -> R) -> Option<(R, bool)> {
        WINDOW.with(|w| w.set(window));
        let (before, _) = switches()?;
        let got = receive();
        let (after, _) = switches()?;
        Some((got, after != before))
    }

    /// Whether a second CPU can run a sender while a wait polls.
    fn two_cpus() -> bool {
        std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
    }

    /// Runs `wait` on a thread of its own with its poll window set to
    /// `window`, and `act` on this thread `after` the wait began; returns
    /// what [`parks`] returned.
    fn act_during<R: Send + 'static>(
        window: Duration,
        wait: impl FnOnce() -> R + Send + 'static,
        after: Duration,
        act: impl FnOnce(),
    ) -> Option<(R, bool)> {
        let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = std::thread::spawn({
            let started = Arc::clone(&started);
            move || {
                parks(window, || {
                    started.store(true, Ordering::SeqCst);
                    wait()
                })
            }
        });
        while !started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let act_at = Instant::now() + after;
        while Instant::now() < act_at {
            std::hint::spin_loop();
        }
        act();
        watchdog(move || waiter.join().unwrap())
    }

    // A poll that another thread preempts parks, as it should, and spoils
    // one try of the three tests below; each passes on one try of five.

    #[test]
    fn a_message_due_inside_the_window_is_polled_for_not_parked_for() {
        let clean = (0..5).any(|_| {
            let (tx, rx) = delay_channel();
            tx.send_after(7, Duration::from_micros(100));
            let got = parks(POLL_CAP, || rx.recv_until(None));
            got.is_none_or(|(got, parked)| {
                assert_eq!(got, Some(7));
                !parked
            })
        });
        assert!(
            clean,
            "every receive parked for a message due inside its window"
        );
    }

    #[test]
    fn a_wake_inside_the_window_is_polled_for_not_parked_for() {
        // The wake needs a second CPU to land while the receive polls.
        if !two_cpus() {
            return;
        }
        let clean = (0..5).any(|_| {
            let (tx, rx) = delay_channel::<u8>();
            let waker = rx.waker();
            // 20 µs after the receive began, well inside its window.
            let got = act_during(
                POLL_CAP,
                move || rx.recv_until(None),
                Duration::from_micros(20),
                || waker.wake(),
            );
            drop(tx);
            got.is_none_or(|(got, parked)| {
                assert_eq!(got, None, "a wake ends the receive with None");
                !parked
            })
        });
        assert!(
            clean,
            "every receive parked before a wake inside its window"
        );
    }

    #[test]
    fn an_answer_inside_the_window_is_polled_for_not_parked_for() {
        // The answer needs a second CPU to land while the wait polls.
        if !two_cpus() {
            return;
        }
        let clean = (0..5).any(|_| {
            let (tx, rx) = oneshot(|| 0);
            let got = act_during(
                POLL_CAP,
                move || rx.wait_until(None),
                Duration::from_micros(20),
                || tx.send(5),
            );
            got.is_none_or(|(got, parked)| {
                assert_eq!(got, Some(5));
                !parked
            })
        });
        assert!(clean, "every wait parked for an answer inside its window");
    }

    #[test]
    fn a_fresh_thread_never_polls() {
        // A client's first blocking call, or an engine thread's first
        // receive, parks at once, even for a message or an answer due well
        // inside what would be a window.
        let fresh = std::thread::spawn(|| {
            assert_eq!(window(), Duration::ZERO);
            let (tx, rx) = delay_channel();
            tx.send_after(3, Duration::from_micros(100));
            let got = parks(window(), || rx.recv_until(None));
            got.is_none_or(|(got, parked)| {
                assert_eq!(got, Some(3));
                parked
            })
        });
        assert!(fresh.join().unwrap(), "a fresh thread's receive polled");
        // A wait that starts late may find its answer already there, and
        // rightly not park; one of five tries parks.
        let parked = (0..5).any(|_| {
            let (tx, rx) = oneshot(|| 0);
            let got = act_during(
                Duration::ZERO,
                move || rx.wait_until(None),
                Duration::from_micros(100),
                || tx.send(3),
            );
            got.is_none_or(|(got, parked)| {
                assert_eq!(got, Some(3));
                parked
            })
        });
        assert!(parked, "a fresh thread's slot wait polled");
    }

    #[test]
    fn a_park_longer_than_the_cap_resets_the_window() {
        let (tx, rx) = delay_channel::<u8>();
        WINDOW.with(|w| w.set(POLL_CAP));
        // Polls for the cap, then parks until the deadline: idle 5 ms.
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), None);
        assert_eq!(window(), Duration::ZERO);
        drop(tx);
        // The same for a slot wait: the window is the thread's.
        let (tx, rx) = oneshot(|| 0);
        WINDOW.with(|w| w.set(POLL_CAP));
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(rx.wait_until(Some(deadline)), None);
        assert_eq!(window(), Duration::ZERO);
        drop(tx);
    }

    #[test]
    fn the_first_fill_of_a_slot_wins() {
        let (tx, rx) = oneshot(|| 0);
        assert_eq!(rx.try_recv(), None, "empty");
        tx.send(1);
        tx.send(2);
        drop(tx); // filled: the drop adds nothing
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), None, "taken");
        assert_eq!(rx.wait_until(None), None, "taken, and does not block");
    }

    #[test]
    fn a_dropped_sender_fills_a_parked_wait_with_its_closing_value() {
        let (tx, rx) = oneshot(|| -1);
        let parked = rx.park_probe();
        watchdog(move || {
            let waiter = std::thread::spawn(move || rx.wait_until(None));
            while !parked() {
                std::thread::yield_now();
            }
            drop(tx);
            assert_eq!(waiter.join().unwrap(), Some(-1));
        });
    }

    #[test]
    fn a_slot_wait_returns_none_at_its_deadline() {
        let (tx, rx) = oneshot(|| 0);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(30);
        assert_eq!(rx.wait_until(Some(deadline)), None);
        assert!(Instant::now() >= deadline, "returned before its deadline");
        // A deadline already past returns at once, without parking.
        let got = parks(POLL_CAP, || rx.wait_until(Some(start)));
        assert!(got.is_none_or(|(got, parked)| got.is_none() && !parked));
        // The answer is still taken after a timeout.
        tx.send(4);
        assert_eq!(rx.wait_until(Some(start)), Some(4));
    }

    #[test]
    fn handoff_stress_loses_no_wakeup() {
        // Two threads pass a turn back and forth 100 000 times, blocking
        // with no timeout: even turns travel as a message, odd turns as a
        // bare wake announcing a change of `turn`. One lost wake-up and
        // both sides sleep forever — the watchdog turns that into a failure.
        const TURNS: u64 = 100_000;
        let turn = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (tx_a, rx_a) = delay_channel::<u64>();
        let (tx_b, rx_b) = delay_channel::<u64>();
        let (wake_a, wake_b) = (rx_a.waker(), rx_b.waker());
        let player = |me: u64, rx: DelayReceiver<u64>, peer: DelaySender<u64>, wake: Waker| {
            let turn = Arc::clone(&turn);
            std::thread::spawn(move || loop {
                let t = turn.load(Ordering::SeqCst);
                if t >= TURNS {
                    return;
                }
                if t % 2 != me {
                    // Not my turn: block until the peer says otherwise. A
                    // message carries the turn it ended.
                    if let Some(ended) = rx.recv_until(None) {
                        assert!(ended < turn.load(Ordering::SeqCst));
                    }
                    continue;
                }
                turn.store(t + 1, Ordering::SeqCst);
                if t % 4 < 2 {
                    peer.send(t);
                } else {
                    wake.wake();
                }
            })
        };
        let a = player(0, rx_a, tx_b, wake_b);
        let b = player(1, rx_b, tx_a, wake_a);
        let done = std::thread::spawn(move || {
            a.join().unwrap();
            b.join().unwrap();
        });
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(done.join()));
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a hand-off was lost: both players are parked")
            .unwrap();
        assert_eq!(turn.load(Ordering::SeqCst), TURNS);
    }
}
