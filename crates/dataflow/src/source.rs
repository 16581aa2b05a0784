//! A replayable source: the durable, offset-addressed log — the one log type
//! in the workspace.
//!
//! Exactly-once recovery requires the ingress to be *replayable*: after a
//! failure the system restores the latest complete snapshot and re-reads the
//! source from the offset recorded in that snapshot (§3). Reading does not
//! consume: any number of readers can read from any offset at or above the
//! log's *floor*. The floor only moves when the consumer says no recovery can
//! reach below it any more ([`ReplayableSource::truncate_below`]); offsets
//! stay absolute across truncation (offset = floor + index), and a read below
//! the floor is an invariant violation, not an empty result. StateFlow's
//! request source is one such log, truncated by its coordinator at the
//! replay floor next to `restore_to`; every broker partition is another,
//! truncated by StateFun at its consumer's recovery floor.
//!
//! Nobody blocks in here: a consumer parks on its own inbox
//! ([`crate::DelayReceiver::recv_until`]) and registers that inbox's
//! [`Waker`] with the one source it consumes, so every append ends the wait.

use std::collections::{vec_deque, VecDeque};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::delay::Waker;

/// The retained suffix of the log: `events[i]` sits at offset `base + i`.
struct Log<T> {
    base: u64,
    events: VecDeque<T>,
}

struct Inner<T> {
    log: Mutex<Log<T>>,
    /// Fired on every append: how the consumer, parked on its own inbox,
    /// learns of it.
    waker: OnceLock<Waker>,
}

/// A shareable, replayable, append-only event log, truncatable at its front.
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
                log: Mutex::new(Log {
                    base: 0,
                    events: VecDeque::new(),
                }),
                waker: OnceLock::new(),
            }),
        }
    }

    /// Appends an event, returning its offset.
    pub fn append(&self, event: T) -> u64 {
        let mut log = self.inner.log.lock();
        log.events.push_back(event);
        let off = log.base + (log.events.len() - 1) as u64;
        drop(log);
        if let Some(waker) = self.inner.waker.get() {
            waker.wake();
        }
        off
    }

    /// Runs `f` on the events from `offset` on (empty past the end), under
    /// one lock however many it looks at.
    ///
    /// # Panics
    /// If `offset` is below the floor: a reader there was promised records
    /// its consumer already released, so the recovery floor was computed
    /// wrong.
    pub fn read_from<R>(&self, offset: u64, f: impl FnOnce(vec_deque::Iter<'_, T>) -> R) -> R {
        let log = self.inner.log.lock();
        // An invariant, not input validation: offsets come from the
        // consumer's own cursor or from a snapshot at or above the floor it
        // truncated at.
        let Some(index) = offset.checked_sub(log.base) else {
            let base = log.base;
            drop(log);
            panic!("invariant: no read below a source's truncation floor (read at {offset}, floor {base})");
        };
        let start = usize::try_from(index).map_or(log.events.len(), |i| i.min(log.events.len()));
        f(log.events.range(start..))
    }

    /// Frees every event below `offset`, which becomes the new floor
    /// (clamped to the end of the log; at or below the current floor this
    /// does nothing). Returns how many events were freed. Their destructors
    /// run after the lock is released, so appends and reads never wait on
    /// them.
    pub fn truncate_below(&self, offset: u64) -> u64 {
        let mut log = self.inner.log.lock();
        let n = offset.saturating_sub(log.base).min(log.events.len() as u64);
        if n == 0 {
            return 0;
        }
        let freed: Vec<T> = log.events.drain(..n as usize).collect();
        log.base += n;
        drop(log);
        drop(freed);
        n
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
            .read_from(self.offset, |mut tail| tail.next().cloned())?;
        self.offset += 1;
        Some(e)
    }

    /// Frees the source's events below `offset`
    /// ([`ReplayableSource::truncate_below`]), for a consumer that holds
    /// only its reader. Returns how many were freed.
    pub fn truncate_below(&self, offset: u64) -> u64 {
        self.source.truncate_below(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all<T: Clone>(src: &ReplayableSource<T>, offset: u64) -> Vec<T> {
        src.read_from(offset, |tail| tail.cloned().collect())
    }

    #[test]
    fn append_read_roundtrip() {
        let src = ReplayableSource::new();
        assert_eq!(src.append("a"), 0);
        assert_eq!(src.append("b"), 1);
        assert_eq!(read_all(&src, 0), vec!["a", "b"]);
        assert_eq!(read_all(&src, 1), vec!["b"]);
        assert!(read_all(&src, 2).is_empty());
        assert!(read_all(&src, 7).is_empty(), "past the end is empty");
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

    #[test]
    fn offsets_stay_absolute_after_truncation() {
        let src = ReplayableSource::new();
        for i in 0..5 {
            src.append(i);
        }
        assert_eq!(src.truncate_below(3), 3);
        assert_eq!(read_all(&src, 3), vec![3, 4]);
        assert_eq!(read_all(&src, 4), vec![4]);
        assert_eq!(src.append(5), 5, "appends keep counting from the end");
        let mut rd = SourceReader::at(&src, 3);
        assert_eq!(rd.poll(), Some(3));
        assert_eq!(rd.offset(), 4);
    }

    #[test]
    fn truncation_at_or_below_the_floor_is_a_noop_and_past_the_end_clamps() {
        let src = ReplayableSource::new();
        for i in 0..4 {
            src.append(i);
        }
        assert_eq!(src.truncate_below(0), 0);
        assert_eq!(src.truncate_below(2), 2);
        assert_eq!(src.truncate_below(2), 0, "at the floor");
        assert_eq!(src.truncate_below(1), 0, "below the floor");
        assert_eq!(read_all(&src, 2), vec![2, 3]);
        assert_eq!(src.truncate_below(100), 2, "clamped to the end");
        assert!(read_all(&src, 4).is_empty());
        assert_eq!(src.append(4), 4, "the floor sits at the end, not at 100");
        assert_eq!(read_all(&src, 4), vec![4]);
    }

    #[test]
    fn reader_truncates_its_source() {
        let src = ReplayableSource::new();
        for i in 0..4 {
            src.append(i);
        }
        let mut rd = SourceReader::at(&src, 0);
        rd.poll();
        rd.poll();
        assert_eq!(rd.truncate_below(rd.offset()), 2);
        assert_eq!(read_all(&src, 2), vec![2, 3], "shared with the source");
        assert_eq!(rd.poll(), Some(2));
    }

    #[test]
    #[should_panic(expected = "invariant: no read below a source's truncation floor")]
    fn read_below_the_floor_panics() {
        let src = ReplayableSource::new();
        for i in 0..3 {
            src.append(i);
        }
        src.truncate_below(2);
        let mut rd = SourceReader::at(&src, 1);
        rd.poll();
    }
}
