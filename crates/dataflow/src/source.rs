//! A replayable source: the durable, offset-addressed ingress log.
//!
//! Exactly-once recovery requires the ingress to be *replayable*: after a
//! failure the system restores the latest complete snapshot and re-reads the
//! source from the offset recorded in that snapshot (§3). Appends are
//! retained (never destructively consumed), and any number of readers can
//! read from any offset.

use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

use crate::delay::Waker;

/// Everything a blocked reader re-checks, under the one lock it waits on:
/// a flag flipped beside that lock could change between a reader's check
/// and its wait, and the notify would find nobody to wake.
struct Log<T> {
    events: Vec<T>,
    closed: bool,
    /// Readers inside `read_blocking`'s wait; appends skip the condvar (an
    /// unconditional `futex` syscall in `std`) while it is zero.
    parked: usize,
}

struct Inner<T> {
    log: Mutex<Log<T>>,
    appended: Condvar,
    /// Fired on every append and on close: how a consumer that parks on
    /// its own inbox rather than in `read_blocking` learns of them.
    waker: OnceLock<Waker>,
}

/// A shareable, replayable, append-only event log.
pub struct ReplayableSource<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for ReplayableSource<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone> Default for ReplayableSource<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> ReplayableSource<T> {
    /// An empty source.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                log: Mutex::new(Log {
                    events: Vec::new(),
                    closed: false,
                    parked: 0,
                }),
                appended: Condvar::new(),
                waker: OnceLock::new(),
            }),
        }
    }

    /// Tells blocked readers and the registered waker that the log changed;
    /// `parked` is what the caller read under the lock it has released.
    fn announce(&self, parked: bool) {
        if parked {
            self.inner.appended.notify_all();
        }
        if let Some(waker) = self.inner.waker.get() {
            waker.wake();
        }
    }

    /// Appends an event, returning its offset.
    pub fn append(&self, event: T) -> u64 {
        let mut log = self.inner.log.lock();
        log.events.push(event);
        let off = (log.events.len() - 1) as u64;
        let parked = log.parked > 0;
        drop(log);
        self.announce(parked);
        off
    }

    /// Reads the event at `offset` if it exists.
    pub fn read(&self, offset: u64) -> Option<T> {
        self.inner.log.lock().events.get(offset as usize).cloned()
    }

    /// Blocks until an event at `offset` exists (or the source is closed),
    /// waiting at most `timeout`.
    pub fn read_blocking(&self, offset: u64, timeout: std::time::Duration) -> Option<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut log = self.inner.log.lock();
        loop {
            if let Some(e) = log.events.get(offset as usize) {
                return Some(e.clone());
            }
            if log.closed || std::time::Instant::now() >= deadline {
                return None;
            }
            log.parked += 1;
            self.inner.appended.wait_until(&mut log, deadline);
            log.parked -= 1;
        }
    }

    /// Number of events appended so far (== next offset).
    pub fn len(&self) -> u64 {
        self.inner.log.lock().events.len() as u64
    }

    /// Whether no events were appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the source closed: blocked readers wake and see the end.
    pub fn close(&self) {
        let mut log = self.inner.log.lock();
        log.closed = true;
        let parked = log.parked > 0;
        drop(log);
        self.announce(parked);
    }

    /// Whether the source is closed.
    pub fn is_closed(&self) -> bool {
        self.inner.log.lock().closed
    }
}

/// A reader cursor over a [`ReplayableSource`] that remembers its offset and
/// can be rewound for replay.
pub struct SourceReader<T> {
    source: ReplayableSource<T>,
    offset: u64,
}

impl<T: Clone> SourceReader<T> {
    /// A reader starting at `offset`.
    pub fn at(source: &ReplayableSource<T>, offset: u64) -> Self {
        Self {
            source: source.clone(),
            offset,
        }
    }

    /// Current offset (the next event to read).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Registers the waker of the thread that consumes this source through
    /// [`SourceReader::poll`]: every later append, and `close`, fires it. A
    /// source wakes one consumer; registering a second waker panics.
    pub fn wake_on_append(&self, waker: Waker) {
        // An invariant, not input validation: only deploy-time wiring calls
        // this (the StateFlow coordinator, once, on its own source), so no
        // request, disk record or peer message can reach a second call.
        let set = self.source.inner.waker.set(waker);
        assert!(
            set.is_ok(),
            "invariant: a source has one consumer, which registers its waker once at deploy"
        );
    }

    /// Rewinds to `offset` (replay after recovery).
    pub fn seek(&mut self, offset: u64) {
        self.offset = offset;
    }

    /// Reads the next event if available, advancing the cursor.
    pub fn poll(&mut self) -> Option<T> {
        let e = self.source.read(self.offset)?;
        self.offset += 1;
        Some(e)
    }

    /// Blocking read of the next event, advancing the cursor.
    pub fn poll_blocking(&mut self, timeout: std::time::Duration) -> Option<T> {
        let e = self.source.read_blocking(self.offset, timeout)?;
        self.offset += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn append_read_roundtrip() {
        let src = ReplayableSource::new();
        assert_eq!(src.append("a"), 0);
        assert_eq!(src.append("b"), 1);
        assert_eq!(src.read(0), Some("a"));
        assert_eq!(src.read(2), None);
        assert_eq!(src.len(), 2);
    }

    #[test]
    fn reader_replays_after_seek() {
        let src = ReplayableSource::new();
        for i in 0..5 {
            src.append(i);
        }
        let mut rd = SourceReader::at(&src, 0);
        assert_eq!(rd.poll(), Some(0));
        assert_eq!(rd.poll(), Some(1));
        assert_eq!(rd.poll(), Some(2));
        // Crash! Snapshot said offset 1.
        rd.seek(1);
        assert_eq!(
            rd.poll(),
            Some(1),
            "replay must re-deliver from the snapshot offset"
        );
        assert_eq!(rd.offset(), 2);
    }

    #[test]
    fn blocking_read_wakes_on_append() {
        let src = ReplayableSource::new();
        let src2 = src.clone();
        let h = std::thread::spawn(move || src2.read_blocking(0, Duration::from_secs(2)));
        std::thread::sleep(Duration::from_millis(20));
        src.append(42);
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn blocking_read_sees_close() {
        let src = ReplayableSource::<u8>::new();
        let src2 = src.clone();
        let h = std::thread::spawn(move || src2.read_blocking(0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        src.close();
        assert_eq!(h.join().unwrap(), None);
        assert!(src.is_closed());
    }

    #[test]
    fn multiple_independent_readers() {
        let src = ReplayableSource::new();
        for i in 0..10 {
            src.append(i);
        }
        let mut r1 = SourceReader::at(&src, 0);
        let mut r2 = SourceReader::at(&src, 5);
        assert_eq!(r1.poll(), Some(0));
        assert_eq!(r2.poll(), Some(5));
        assert_eq!(r1.offset(), 1);
        assert_eq!(r2.offset(), 6);
    }

    /// Regression: `closed` used to sit under its own mutex, flipped and
    /// notified without the log lock, so a `close` landing between a
    /// reader's `closed` check and its wait went unheard and the reader
    /// slept out its whole timeout. Every round releases one `close`
    /// against one reader just entering `read_blocking`; with the flag
    /// under the log lock no interleaving can lose the notify, so every
    /// reader returns long before its timeout.
    #[test]
    fn close_racing_a_blocking_read_is_never_lost() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for round in 0..3000 {
            let src = ReplayableSource::<u8>::new();
            let entering = Arc::new(AtomicBool::new(false));
            let (src2, entering2) = (src.clone(), Arc::clone(&entering));
            let reader = std::thread::spawn(move || {
                entering2.store(true, Ordering::SeqCst);
                let start = std::time::Instant::now();
                let got = src2.read_blocking(0, Duration::from_secs(5));
                (got, start.elapsed())
            });
            while !entering.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            // Spread the close over the reader's first few hundred ns.
            for _ in 0..round % 64 {
                std::hint::spin_loop();
            }
            src.close();
            let (got, took) = reader.join().unwrap();
            assert_eq!(got, None);
            assert!(
                took < Duration::from_secs(2),
                "round {round}: a reader slept through close()"
            );
        }
    }

    #[test]
    fn append_and_close_fire_the_registered_waker() {
        let (tx, rx) = crate::delay_channel::<u8>();
        let src = ReplayableSource::new();
        let mut rd = SourceReader::at(&src, 0);
        rd.wake_on_append(rx.waker());
        // Each wake ends one untimed receive; without it this would hang.
        src.append(7);
        assert_eq!(rx.recv_until(None), None);
        assert_eq!(rd.poll(), Some(7));
        src.close();
        assert_eq!(rx.recv_until(None), None);
        assert!(src.is_closed());
        drop(tx);
    }
}
