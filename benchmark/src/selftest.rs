//! `selftest`: the driver's clock against a stub runtime with a known
//! latency, the lateness it reports against a stall it is given, and the
//! verify step against a corrupted expectation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use se_dataflow::{EntityRuntime, ResponseCompleter, ResponseWaiter};
use se_lang::{EntityRef, LangError, Value};

use crate::driver::{run_fixed_rate, Clock, PhaseLog, Rec};
use crate::procfs::Placement;
use crate::stats::quantile_sorted;
use crate::verify;
use crate::workload::{OpStream, WORKLOADS};

/// Latency of every stub call.
const STUB_LATENCY: Duration = Duration::from_micros(300);
/// How long the stalled `call_async` blocks.
const STALL: Duration = Duration::from_millis(20);

/// An `EntityRuntime` whose every call completes [`STUB_LATENCY`] after it
/// was submitted, on the stub's own thread (which spins to hit the instant).
struct Stub {
    queue: Mutex<Option<mpsc::Sender<(Instant, ResponseCompleter)>>>,
    completer: Mutex<Option<std::thread::JoinHandle<()>>>,
    calls: AtomicUsize,
    /// The call with this index blocks for [`STALL`] before submitting.
    stall_at: Option<usize>,
}

impl Stub {
    fn start(stall_at: Option<usize>) -> Stub {
        let (tx, rx) = mpsc::channel::<(Instant, ResponseCompleter)>();
        let completer = std::thread::spawn(move || {
            for (at, completer) in rx {
                while Instant::now() < at {
                    std::hint::spin_loop();
                }
                completer.complete(Ok(Value::Unit));
            }
        });
        Stub {
            queue: Mutex::new(Some(tx)),
            completer: Mutex::new(Some(completer)),
            calls: AtomicUsize::new(0),
            stall_at,
        }
    }
}

impl EntityRuntime for Stub {
    fn name(&self) -> &str {
        "stub"
    }

    fn create(
        &self,
        class: &str,
        key: &str,
        _: Vec<(String, Value)>,
    ) -> Result<EntityRef, LangError> {
        Ok(EntityRef::new(class, key))
    }

    fn call_async(&self, _: EntityRef, _: &str, _: Vec<Value>) -> ResponseWaiter {
        if Some(self.calls.fetch_add(1, Ordering::Relaxed)) == self.stall_at {
            std::thread::sleep(STALL);
        }
        let (completer, waiter) = ResponseWaiter::new();
        if let Some(tx) = self.queue.lock().expect("stub queue").as_ref() {
            let _ = tx.send((Instant::now() + STUB_LATENCY, completer));
        }
        waiter
    }

    fn supports_transactions(&self) -> bool {
        false
    }

    fn shutdown(&self) {
        drop(self.queue.lock().expect("stub queue").take());
        if let Some(t) = self.completer.lock().expect("stub thread").take() {
            let _ = t.join();
        }
    }
}

/// Drives a fresh stub — its thread on the engine's CPUs, the generator on
/// the client's, as in a real run — at `rate` for `count` requests.
fn drive(placement: &Placement, stall_at: Option<usize>, rate: f64, count: usize) -> PhaseLog {
    let stub = &placement.on_engine(|| Stub::start(stall_at));
    let target = EntityRef::new("Account", "user0");
    let log = run_fixed_rate(
        stub,
        Clock::start(),
        rate,
        count,
        &|_| (target, "read", vec![]),
        &mut |_, _| {},
    );
    stub.shutdown();
    log
}

fn sorted_us(log: &PhaseLog, f: impl Fn(&Rec) -> u64) -> Vec<u64> {
    let mut v: Vec<u64> = log.recs.iter().map(|r| f(r) / 1_000).collect();
    v.sort_unstable();
    v
}

/// Runs the checks, printing one line each; `Ok(false)` if any failed.
pub fn run() -> Result<bool, String> {
    let mut ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("{} {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    let expect_us = STUB_LATENCY.as_micros() as f64;

    // The CPU split is decided once: the first split moves this thread to
    // the client side, so a second reading of its affinity would hand the
    // engine the generator's CPU.
    let placement = Placement::split();
    placement.on_engine(|| ());
    let again = Placement::split();
    check(
        "CPU split is the same when asked twice",
        placement == again && (placement.cpus() < 2 || placement.disjoint()),
        format!("{}, then {}", placement.describe(), again.describe()),
    );

    // The clock: a known 300 µs must read as 300 µs ± 10 % at both rates
    // (`se_workloads::run_open_loop`, which sees a completion only when it
    // sends the next request, cannot).
    for rate in [2_000.0, 10_000.0] {
        let log = drive(placement, None, rate, rate as usize);
        let p50 = quantile_sorted(&sorted_us(&log, |r| r.done - r.due), 0.5) as f64;
        check(
            &format!("stub latency at {rate} rps"),
            (p50 - expect_us).abs() <= expect_us * 0.1 && log.recs.iter().all(|r| r.succeeded()),
            format!(
                "p50 {p50} us, expected {expect_us} us +-10%; poll gap p99 {} us",
                log.poll_gap_p99 / 1_000
            ),
        );
    }

    // Lateness: a call_async that blocks for 20 ms makes the requests due
    // meanwhile late by up to 20 ms, and their latency counts from due.
    let log = drive(placement, Some(500), 2_000.0, 2_000);
    let stall_us = STALL.as_micros() as f64;
    let late_max = *sorted_us(&log, |r| r.issue - r.due).last().unwrap_or(&0) as f64;
    let latency = sorted_us(&log, |r| r.done - r.due);
    let (p50, worst) = (
        quantile_sorted(&latency, 0.5) as f64,
        *latency.last().unwrap_or(&0) as f64,
    );
    check(
        "injected generator stall",
        (late_max - stall_us).abs() <= stall_us * 0.1
            && worst >= stall_us
            && (p50 - expect_us).abs() <= expect_us * 0.1,
        format!("max lateness {late_max} us for a {stall_us} us stall; worst latency from due {worst} us; p50 {p50} us"),
    );

    // Verify: silent on the oracle's own state; one flipped byte of the
    // expectation, or one balance off by one, must turn the check red.
    let w = &WORKLOADS[0];
    let stream = OpStream::generate(w, 7, 20_000);
    let expected = verify::oracle(&stream, stream.ops.len());
    // One request at a time: no two updates overlap, so only the last
    // update to a key may have written its final payload.
    let recs: Vec<Rec> = (0..stream.ops.len() as u64)
        .map(|i| Rec {
            due: 10 * i + 1,
            issue: 10 * i + 1,
            submitted: 10 * i + 2,
            done: 10 * i + 3,
            ok: true,
        })
        .collect();
    let check_against =
        |oracle: &verify::FinalState| verify::check(w, oracle, &expected, &stream, &recs).problems;
    let clean = check_against(&expected);
    let mut flipped = expected.clone();
    flipped.data[4_321][17] ^= 0x01;
    let red_data = check_against(&flipped);
    let mut off = expected.clone();
    off.balance[99] += 1;
    let red_balance = check_against(&off);
    check(
        "verify goes red on a corrupted expectation",
        clean.is_empty() && !red_data.is_empty() && !red_balance.is_empty(),
        format!(
            "clean: {} problems; flipped byte: {:?}; balance off by one: {:?}",
            clean.len(),
            red_data.first(),
            red_balance.first()
        ),
    );
    Ok(ok)
}
