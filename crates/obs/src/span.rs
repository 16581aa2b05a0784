//! Lightweight span tracing: fixed-size events in bounded per-thread rings.
//!
//! A span is a `(stage, id, start_ns, end_ns)` record — no allocation, no
//! string formatting on the hot path. Each recording thread lazily registers
//! one bounded ring with the tracer (oldest events are overwritten on
//! overflow, so a long run cannot exhaust memory) and from then on records
//! under an uncontended per-thread lock. Timestamps are nanoseconds from a
//! process-wide monotonic epoch, so spans from the coordinator, workers
//! and WAL threads all line up on one timeline.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// Nanoseconds since the process-wide monotonic epoch (first use).
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The instrumented stages. Batch-lifecycle stages carry the batch id, WAL
/// stages the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Batch accumulation: first transaction enqueued → batch sealed.
    BatchSeal,
    /// Sealed batch executing on the workers.
    BatchExec,
    /// Reservation aggregation + commit/abort decision on the coordinator.
    BatchDecide,
    /// One worker's commit of a batch: from the commit record's receipt
    /// (or, on a solo batch's deciding worker, the decision) until its
    /// writes are applied, WAL append included. Recorded once per worker.
    BatchCommit,
    /// WAL frame append (buffered write, excludes fsync).
    WalAppend,
    /// WAL fsync (group-commit flush).
    WalFsync,
    /// Durable epoch cut: snapshot delta + WAL mark.
    EpochCut,
    /// WAL compaction below the cluster durable floor: the live tail copied
    /// into a fresh log (id = the epoch the new log starts after).
    WalCompact,
    /// Backend (VM/interp) program compilation at deploy.
    VmCompile,
    /// One function invocation end-to-end (StateFun engine).
    Invoke,
    /// Live-upgrade migration pass: a worker running `__migrate__` over its
    /// owned entities at a version switch (id = the new version).
    UpgradeMigrate,
}

/// All stages, in declaration order (index = `stage as usize`).
pub const STAGES: [Stage; 11] = [
    Stage::BatchSeal,
    Stage::BatchExec,
    Stage::BatchDecide,
    Stage::BatchCommit,
    Stage::WalAppend,
    Stage::WalFsync,
    Stage::EpochCut,
    Stage::WalCompact,
    Stage::VmCompile,
    Stage::Invoke,
    Stage::UpgradeMigrate,
];

impl Stage {
    /// Stable snake_case name used in dumps and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::BatchSeal => "batch_seal",
            Stage::BatchExec => "batch_exec",
            Stage::BatchDecide => "batch_decide",
            Stage::BatchCommit => "batch_commit",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::EpochCut => "epoch_cut",
            Stage::WalCompact => "wal_compact",
            Stage::VmCompile => "vm_compile",
            Stage::Invoke => "invoke",
            Stage::UpgradeMigrate => "upgrade_migrate",
        }
    }

    /// Inverse of [`Stage::as_str`].
    pub fn parse(s: &str) -> Option<Stage> {
        STAGES.iter().copied().find(|st| st.as_str() == s)
    }
}

/// One completed span. Fixed-size and `Copy` so ring writes are a memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Which stage this span measured.
    pub stage: Stage,
    /// Correlation id: batch id, epoch or version (stage-dependent).
    pub id: u64,
    /// Start, ns since the process monotonic epoch.
    pub start_ns: u64,
    /// End, ns since the process monotonic epoch.
    pub end_ns: u64,
    /// Small integer identifying the recording thread's ring.
    pub tid: u32,
}

impl SpanEvent {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Bounded per-thread event buffer; overwrites oldest on overflow.
struct Ring {
    tid: u32,
    inner: Mutex<RingInner>,
}

struct RingInner {
    buf: Vec<SpanEvent>,
    next: usize,
    dropped: u64,
}

impl Ring {
    fn record(&self, cap: usize, ev: SpanEvent) {
        let mut r = self.inner.lock();
        if r.buf.len() < cap {
            r.buf.push(ev);
        } else {
            let next = r.next;
            r.buf[next] = ev;
            r.dropped += 1;
        }
        r.next = (r.next + 1) % cap.max(1);
    }
}

/// Collects spans from all threads into per-thread rings; drained at dump.
pub struct Tracer {
    /// Distinguishes tracers when several runtimes live in one process.
    id: u64,
    cap: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    next_tid: AtomicU32,
}

thread_local! {
    /// (tracer id, this thread's ring in that tracer); linear scan — a
    /// thread talks to one or two tracers in practice.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// Creates a tracer whose per-thread rings hold `cap` events each.
    pub fn new(cap: usize) -> Tracer {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Tracer {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            cap: cap.max(16),
            rings: Mutex::new(Vec::new()),
            next_tid: AtomicU32::new(0),
        }
    }

    fn thread_ring(&self) -> Arc<Ring> {
        THREAD_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            if let Some((_, r)) = rings.iter().find(|(id, _)| *id == self.id) {
                return r.clone();
            }
            let ring = Arc::new(Ring {
                tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                inner: Mutex::new(RingInner {
                    buf: Vec::new(),
                    next: 0,
                    dropped: 0,
                }),
            });
            self.rings.lock().push(ring.clone());
            rings.push((self.id, ring.clone()));
            ring
        })
    }

    /// Records one span into the calling thread's ring.
    pub fn record(&self, stage: Stage, id: u64, start_ns: u64, end_ns: u64) {
        let ring = self.thread_ring();
        let ev = SpanEvent {
            stage,
            id,
            start_ns,
            end_ns,
            tid: ring.tid,
        };
        ring.record(self.cap, ev);
    }

    /// Drains every ring into one start-time-ordered event list. Returns the
    /// events plus the number of events lost to ring overflow.
    pub fn drain(&self) -> (Vec<SpanEvent>, u64) {
        let mut events = Vec::new();
        let mut dropped = 0;
        for ring in self.rings.lock().iter() {
            let r = ring.inner.lock();
            events.extend_from_slice(&r.buf);
            dropped += r.dropped;
        }
        events.sort_by_key(|e| (e.start_ns, e.end_ns, e.tid));
        (events, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for st in STAGES {
            assert_eq!(Stage::parse(st.as_str()), Some(st));
        }
        assert_eq!(Stage::parse("nope"), None);
    }

    #[test]
    fn records_and_drains_in_time_order() {
        let t = Tracer::new(64);
        t.record(Stage::BatchExec, 2, 100, 200);
        t.record(Stage::BatchSeal, 1, 10, 90);
        let (evs, dropped) = t.drain();
        assert_eq!(dropped, 0);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].stage, Stage::BatchSeal);
        assert_eq!(evs[1].duration_ns(), 100);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::new(16);
        for i in 0..40u64 {
            t.record(Stage::WalAppend, i, i, i + 1);
        }
        let (evs, dropped) = t.drain();
        assert_eq!(evs.len(), 16);
        assert_eq!(dropped, 24);
        // The newest events survive.
        assert!(evs.iter().any(|e| e.id == 39));
        assert!(!evs.iter().any(|e| e.id == 0));
    }

    #[test]
    fn threads_get_distinct_rings() {
        let t = Arc::new(Tracer::new(64));
        let t2 = t.clone();
        std::thread::spawn(move || t2.record(Stage::WalAppend, 1, 1, 2))
            .join()
            .unwrap();
        t.record(Stage::WalAppend, 2, 3, 4);
        let (evs, _) = t.drain();
        assert_eq!(evs.len(), 2);
        assert_ne!(evs[0].tid, evs[1].tid);
    }

    #[test]
    fn monotonic_ns_is_monotonic() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }
}
