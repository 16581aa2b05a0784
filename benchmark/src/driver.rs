//! The load generator: one thread, a fixed open-loop schedule timed from
//! each request's *due* instant, and a closed loop with a fixed number of
//! requests outstanding.
//!
//! `se_workloads::run_open_loop` cannot be the clock: it notices a
//! completion only when it issues the next request, times from the actual
//! send, and sweeps every pending request on every issue. This driver polls
//! continuously (`yield_now` between polls, so a thread that wants the core
//! gets it; a sleep cannot be used because the shortest one this kernel
//! grants is ≈ 70 µs, and a parked client CPU would put the hypervisor's
//! wake-up cost into every measurement), keeps only outstanding requests in
//! the swept set, and receives its operations already generated.

use std::time::{Duration, Instant};

use se_dataflow::{EntityRuntime, ResponseWaiter};
use se_lang::{EntityRef, LangError, Value};

/// One invocation handed to `call_async`.
pub type Invocation = (EntityRef, &'static str, Vec<Value>);

/// A request that is still pending this long after the phase stopped
/// issuing is reported as timed out instead of hanging the benchmark.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Nanoseconds since the start of the run; every driver timestamp and span
/// is on this one timeline.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The life of one request, in [`Clock`] nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// When the schedule said to send it (closed loop: when it was sent).
    pub due: u64,
    /// When `call_async` was entered.
    pub issue: u64,
    /// When `call_async` returned.
    pub submitted: u64,
    /// When a poll first saw it complete; 0 if it never did.
    pub done: u64,
    /// Whether it completed with `Ok`.
    pub ok: bool,
}

impl Rec {
    /// Completed, with a value.
    pub fn succeeded(&self) -> bool {
        self.done != 0 && self.ok
    }
}

/// What one phase did: a record per request, in issue order.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// One record per issued request.
    pub recs: Vec<Rec>,
    /// 99th-percentile interval between two polls while at least one
    /// request was pending, ns.
    pub poll_gap_p99: u64,
    /// First error message seen, for the report.
    pub first_error: Option<String>,
}

/// Requests in flight plus the log they complete into.
struct Flight<'a> {
    rt: &'a dyn EntityRuntime,
    clock: Clock,
    log: PhaseLog,
    pending: Vec<(usize, ResponseWaiter)>,
    gaps: se_obs::Histogram,
    last_poll: Option<u64>,
}

impl<'a> Flight<'a> {
    fn new(rt: &'a dyn EntityRuntime, clock: Clock, capacity: usize) -> Self {
        Flight {
            rt,
            clock,
            log: PhaseLog {
                recs: Vec::with_capacity(capacity),
                ..PhaseLog::default()
            },
            pending: Vec::with_capacity(256),
            gaps: se_obs::Histogram::new(),
            last_poll: None,
        }
    }

    /// Sends one request; `due` = `None` means "due now" (closed loop).
    /// The arguments are built before the clock is read, so `submitted −
    /// issue` is the engine's `call_async` alone.
    fn issue(&mut self, inv: Invocation, due: Option<u64>) {
        let (target, method, args) = inv;
        let issue = self.clock.now();
        let waiter = self.rt.call_async(target, method, args);
        let submitted = self.clock.now();
        self.pending.push((self.log.recs.len(), waiter));
        self.log.recs.push(Rec {
            due: due.unwrap_or(issue),
            issue,
            submitted,
            done: 0,
            ok: false,
        });
    }

    /// Polls every pending request once; O(outstanding). Returns how many
    /// completed.
    fn sweep(&mut self, sink: &mut dyn FnMut(usize, Result<Value, LangError>)) -> usize {
        if self.pending.is_empty() {
            self.last_poll = None;
            return 0;
        }
        let now = self.clock.now();
        if let Some(last) = self.last_poll {
            self.gaps.record(now - last);
        }
        self.last_poll = Some(now);
        let mut completed = 0;
        let mut i = self.pending.len();
        while i > 0 {
            i -= 1;
            if let Some(result) = self.pending[i].1.try_wait() {
                let (seq, _) = self.pending.swap_remove(i);
                self.complete(seq, result, sink);
                completed += 1;
            }
        }
        if self.pending.is_empty() {
            self.last_poll = None;
        }
        completed
    }

    fn complete(
        &mut self,
        seq: usize,
        result: Result<Value, LangError>,
        sink: &mut dyn FnMut(usize, Result<Value, LangError>),
    ) {
        let rec = &mut self.log.recs[seq];
        rec.done = self.clock.now();
        rec.ok = result.is_ok();
        if let (Err(e), None) = (&result, &self.log.first_error) {
            self.log.first_error = Some(e.to_string());
        }
        sink(seq, result);
    }

    fn finish(mut self) -> PhaseLog {
        self.log.poll_gap_p99 = self.gaps.value_at(0.99);
        self.log
    }
}

/// Open loop: request `i` is due at `start + i / rate`, whatever the engine
/// does. A generator that falls behind sends the overdue requests back to
/// back and their latency still counts from the due instant.
pub fn run_fixed_rate(
    rt: &dyn EntityRuntime,
    clock: Clock,
    rate: f64,
    count: usize,
    op: &dyn Fn(usize) -> Invocation,
    sink: &mut dyn FnMut(usize, Result<Value, LangError>),
) -> PhaseLog {
    let mut flight = Flight::new(rt, clock, count);
    let start = clock.now();
    let interval_ns = 1e9 / rate;
    let due_of = |i: usize| start + (i as f64 * interval_ns) as u64;
    let mut next = 0;
    let mut drain_deadline = None;
    loop {
        let now = clock.now();
        while next < count && due_of(next) <= clock.now() {
            flight.issue(op(next), Some(due_of(next)));
            next += 1;
        }
        flight.sweep(sink);
        if next == count {
            if flight.pending.is_empty() {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT.as_nanos() as u64);
            if now > deadline {
                break;
            }
        }
        std::thread::yield_now();
    }
    flight.finish()
}

/// Closed loop: `outstanding` requests in flight from this one thread until
/// `count` have been sent; each completion releases the next request.
pub fn run_closed_loop(
    rt: &dyn EntityRuntime,
    clock: Clock,
    outstanding: usize,
    count: usize,
    op: &dyn Fn(usize) -> Invocation,
    sink: &mut dyn FnMut(usize, Result<Value, LangError>),
) -> PhaseLog {
    let mut flight = Flight::new(rt, clock, count);
    let mut next = 0;
    let mut last_progress = clock.now();
    loop {
        while next < count && flight.pending.len() < outstanding {
            flight.issue(op(next), None);
            next += 1;
        }
        if flight.pending.is_empty() {
            break;
        }
        if flight.sweep(sink) > 0 {
            last_progress = clock.now();
        } else if clock.now() - last_progress > DRAIN_TIMEOUT.as_nanos() as u64 {
            break;
        } else {
            std::thread::yield_now();
        }
    }
    flight.finish()
}
