//! A host-speed diagnostic: one wake-up round trip between two threads on
//! the engine's CPUs, reported as `driver.wake_roundtrip_us`.
//!
//! The sandbox's host does not run at one speed. In spells that last minutes
//! the engine's CPU per request rises by a third or more (7.5 → 13 µs on
//! `point_uniform` within one series of 28 runs), and what rises is the cost
//! of kernel-mediated work — wake-ups, context switches, the VM exits under
//! them — which is most of what the engines do per request today. This round
//! trip followed the engine chunk by chunk in those runs (correlation
//! 0.7–0.84), so a run whose saturation metrics read slow next to a long
//! round trip (≈ 6 µs while the host is quiet) is the host's, not the
//! program's. It scales nothing: every reported metric is as measured.
//!
//! The round trip uses `std::sync` only, so no change to the repository's
//! crates can move it.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Round trips per measurement (≈ 12 ms).
const ROUNDS: u32 = 2_000;

/// Wall time of one condvar round trip, ns: this thread wakes a partner and
/// sleeps until the partner has woken it back. The partner is spawned here
/// and inherits the caller's CPU affinity, so call it on the engine's CPUs.
pub fn wake_roundtrip_ns() -> f64 {
    // The turn counter: odd = the partner's move, even = ours.
    let turn = Arc::new((Mutex::new(0u32), Condvar::new()));
    let partner = {
        let turn = Arc::clone(&turn);
        std::thread::spawn(move || {
            let (lock, wake) = &*turn;
            let mut t = lock.lock().expect("turn counter");
            for round in 0..ROUNDS {
                while *t != 2 * round + 1 {
                    t = wake.wait(t).expect("turn counter");
                }
                *t += 1;
                wake.notify_one();
            }
        })
    };
    let start = Instant::now();
    {
        let (lock, wake) = &*turn;
        let mut t = lock.lock().expect("turn counter");
        for round in 0..ROUNDS {
            *t = 2 * round + 1;
            wake.notify_one();
            while *t != 2 * round + 2 {
                t = wake.wait(t).expect("turn counter");
            }
        }
    }
    let per_round = start.elapsed().as_nanos() as f64 / f64::from(ROUNDS);
    partner.join().expect("round-trip partner");
    per_round
}
