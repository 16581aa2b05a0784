//! A delay queue: the in-process stand-in for a network link, and the one
//! thing an engine thread parks on.
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
//! **Cost.** A receiver announces that it parks in one atomic word, changed
//! only under the queue lock. `send*` reads it under the lock it already
//! holds and `wake` in its single `fetch_or`, and both skip the condvar —
//! an unconditional `futex` syscall in `std` — unless a receive is actually
//! parked. Waking or sending to a busy receiver costs no syscall.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// `Shared::park` bit: a wake is pending (set by [`Waker::wake`], taken by
/// the receive it ends).
const WOKEN: usize = 1;
/// `Shared::park` unit above the `WOKEN` bit: one parked receive.
const PARKED: usize = 2;

struct Shared<T> {
    /// The pending messages and the next sequence number.
    queue: Mutex<(BinaryHeap<Reverse<Entry<T>>>, u64)>,
    available: Condvar,
    senders: AtomicUsize,
    /// `WOKEN` bit + `PARKED` × the number of receives inside a condvar
    /// wait. The count changes only under the `queue` lock, so whoever holds
    /// that lock reads it exactly; `wake` reads it lock-free and takes the
    /// lock only when it is non-zero.
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
            // Last sender gone: wake every receive so it can observe
            // closure — through the lock, or one that just read a non-zero
            // sender count would start waiting after this notify.
            drop(self.shared.queue.lock());
            self.shared.available.notify_all();
        }
    }
}

impl<T> DelaySender<T> {
    /// Enqueues `msg` for delivery after `delay`.
    pub fn send_after(&self, msg: T, delay: Duration) {
        let due = Instant::now() + delay;
        let mut guard = self.shared.queue.lock();
        let seq = guard.1;
        guard.1 += 1;
        guard.0.push(Reverse(Entry { due, seq, msg }));
        let parked = self.shared.park.load(Ordering::SeqCst) >= PARKED;
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
type QueueGuard<'a, T> = MutexGuard<'a, (BinaryHeap<Reverse<Entry<T>>>, u64)>;

impl<T> DelayReceiver<T> {
    /// Pops the head if it is due at `now`.
    fn pop_due(&self, guard: &mut QueueGuard<'_, T>, now: Instant) -> Option<T> {
        if guard.0.peek().is_none_or(|Reverse(e)| e.due > now) {
            return None;
        }
        let Reverse(e) = guard.0.pop().expect("peeked");
        // A sibling parked on a shared receiver timed its wait for the old
        // head (or for nothing at all): pass the timer duty on.
        if !guard.0.is_empty() && self.shared.park.load(Ordering::SeqCst) >= PARKED {
            self.shared.available.notify_one();
        }
        Some(e.msg)
    }

    /// Receives the next due message, blocking until one is due, a
    /// [`Waker::wake`] arrives (or arrived since the last blocking receive
    /// returned), `deadline` passes, or all senders are dropped and the
    /// queue holds no due-or-future message — `None` in the last three
    /// cases. With `deadline = None` nothing but a message, a wake or
    /// closure ends the wait.
    pub fn recv_until(&self, deadline: Option<Instant>) -> Option<T> {
        let park = &self.shared.park;
        let mut guard = self.shared.queue.lock();
        loop {
            let now = Instant::now();
            if let Some(msg) = self.pop_due(&mut guard, now) {
                return Some(msg);
            }
            let head_due = guard.0.peek().map(|Reverse(e)| e.due);
            if (head_due.is_none() && self.is_closed()) || deadline.is_some_and(|d| d <= now) {
                return None;
            }
            // Announce the park, then look for a wake that raced it: either
            // the waker's `fetch_or` came first and shows up here, or it
            // sees the announcement and notifies once the wait has begun
            // (it passes through the lock this thread holds until then).
            if park.fetch_add(PARKED, Ordering::SeqCst) & WOKEN == 0 {
                match head_due.into_iter().chain(deadline).min() {
                    Some(until) => {
                        self.shared.available.wait_until(&mut guard, until);
                    }
                    None => self.shared.available.wait(&mut guard),
                }
            }
            if park.fetch_sub(PARKED, Ordering::SeqCst) & WOKEN != 0 {
                park.fetch_and(!WOKEN, Ordering::SeqCst);
                // A message that came due meanwhile is worth more than the
                // wake: the owner looks around after either.
                return self.pop_due(&mut guard, Instant::now());
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
        self.pop_due(&mut self.shared.queue.lock(), Instant::now())
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
            if before >= PARKED && before & WOKEN == 0 {
                // The parked count is read lock-free here: pass through the
                // lock so the notify lands after the wait began.
                drop(shared.queue.lock());
                shared.available.notify_one();
            }
        }))
    }

    /// Number of queued (due or pending) messages.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().0.len()
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

/// Creates a connected delay-queue pair.
pub fn delay_channel<T>() -> (DelaySender<T>, DelayReceiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new((BinaryHeap::new(), 0)),
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
        while rx.shared.park.load(Ordering::SeqCst) < PARKED {
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
    fn shared_receiver_hands_the_timer_on() {
        // Two receives park on one queue; the one woken by the send times
        // its wait for the head, the other waits for nothing. When the
        // first leaves with the head, the second must be told to time the
        // next message.
        let (tx, rx) = delay_channel();
        let rx = Arc::new(rx);
        watchdog(move || {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let rx = Arc::clone(&rx);
                    std::thread::spawn(move || rx.recv_until(None))
                })
                .collect();
            while rx.shared.park.load(Ordering::SeqCst) < 2 * PARKED {
                std::thread::yield_now();
            }
            tx.send_after(1, Duration::from_millis(10));
            tx.send_after(2, Duration::from_millis(30));
            let mut got: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![Some(1), Some(2)]);
        });
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
