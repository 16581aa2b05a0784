//! A replayable source: the durable, offset-addressed log — the one log type
//! in the workspace.
//!
//! Exactly-once recovery requires the ingress to be *replayable*: after a
//! failure the system restores the latest complete snapshot and re-reads the
//! source from the offset recorded in that snapshot (§3). Appends are
//! retained (never destructively consumed), and any number of readers can
//! read from any offset. StateFlow's request source is one; every broker
//! partition is another.
//!
//! Nobody blocks in here: a consumer parks on its own inbox
//! ([`crate::DelayReceiver::recv_until`]) and registers that inbox's
//! [`Waker`] with the one source it consumes, so every append ends the wait.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::delay::Waker;

struct Inner<T> {
    events: Mutex<Vec<T>>,
    /// Fired on every append: how the consumer, parked on its own inbox,
    /// learns of it.
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

impl<T> Default for ReplayableSource<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReplayableSource<T> {
    /// An empty source.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                events: Mutex::new(Vec::new()),
                waker: OnceLock::new(),
            }),
        }
    }

    /// Appends an event, returning its offset.
    pub fn append(&self, event: T) -> u64 {
        let mut events = self.inner.events.lock();
        events.push(event);
        let off = (events.len() - 1) as u64;
        drop(events);
        if let Some(waker) = self.inner.waker.get() {
            waker.wake();
        }
        off
    }

    /// Runs `f` on the events from `offset` on (empty past the end), under
    /// one lock however many it looks at.
    pub fn read_from<R>(&self, offset: u64, f: impl FnOnce(&[T]) -> R) -> R {
        let events = self.inner.events.lock();
        f(events.get(offset as usize..).unwrap_or_default())
    }

    /// Registers the waker of the thread that consumes this source: every
    /// later append fires it. A source wakes one consumer; registering a
    /// second waker panics.
    pub fn wake_on_append(&self, waker: Waker) {
        // An invariant, not input validation: only deploy-time wiring calls
        // this (once per source, for its one consumer thread), so no
        // request, disk record or peer message can reach a second call.
        let set = self.inner.waker.set(waker);
        assert!(
            set.is_ok(),
            "invariant: a source has one consumer, which registers its waker once at deploy"
        );
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

    /// Rewinds to `offset` (replay after recovery).
    pub fn seek(&mut self, offset: u64) {
        self.offset = offset;
    }

    /// Reads the next event if available, advancing the cursor.
    pub fn poll(&mut self) -> Option<T> {
        let e = self
            .source
            .read_from(self.offset, |tail| tail.first().cloned())?;
        self.offset += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_read_roundtrip() {
        let src = ReplayableSource::new();
        assert_eq!(src.append("a"), 0);
        assert_eq!(src.append("b"), 1);
        assert_eq!(src.read_from(0, <[_]>::to_vec), vec!["a", "b"]);
        assert_eq!(src.read_from(1, <[_]>::to_vec), vec!["b"]);
        assert!(src.read_from(2, <[_]>::is_empty));
        assert!(src.read_from(7, <[_]>::is_empty), "past the end is empty");
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

    #[test]
    fn append_fires_the_registered_waker() {
        let (tx, rx) = crate::delay_channel::<u8>();
        let src = ReplayableSource::new();
        let mut rd = SourceReader::at(&src, 0);
        src.wake_on_append(rx.waker());
        // Each wake ends one untimed receive; without it this would hang.
        src.append(7);
        assert_eq!(rx.recv_until(None), None);
        assert_eq!(rd.poll(), Some(7));
        src.append(8);
        assert_eq!(rx.recv_until(None), None);
        assert_eq!(rd.poll(), Some(8));
        drop(tx);
    }
}
