//! Simulated cluster network parameters.
//!
//! The paper's evaluation runs on 14 CPUs across Kafka, the dataflow system
//! and the clients; this reproduction runs on one machine, so message hops
//! carry *simulated* latency. [`NetConfig`] holds the per-hop costs, chosen
//! to match the deployment the paper describes:
//!
//! * StateFun pays a **broker hop** for every ingress/egress/loopback (Kafka
//!   round trips, §3) and a **remote-function hop** both ways for every
//!   function execution (its functions run in an external runtime);
//! * StateFlow pays only a cheap internal **function-to-function hop**
//!   between workers, because "it allows for internal function-to-function
//!   communication and does not require the roundtrips to Kafka" (§4).
//!
//! All durations are multiplied by `time_scale`, letting tests and CI run
//! the same experiments in a fraction of wall-clock time; measured latencies
//! are divided by the scale before reporting, so results are comparable
//! across scales.

use std::time::{Duration, Instant};

/// Burns `d` of CPU time on the calling thread (spin wait by default; see
/// [`service_sleeps`] for the opt-in sleep mode used by the scaling bench).
///
/// Service times model *CPU occupancy* — the thread must be busy, not
/// parked. `thread::sleep` is wrong twice over: it yields the core, and on
/// coarse-timer kernels (e.g. 4.4 with ~1 ms granularity) it inflates
/// sub-millisecond service times by 3–10×, silently recalibrating the
/// simulated cluster.
pub fn burn(d: Duration) {
    if d.is_zero() {
        return;
    }
    if service_sleeps() {
        std::thread::sleep(d);
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Whether service time is simulated by sleeping instead of spinning
/// (`SE_SERVICE_SLEEP=1`, read once).
///
/// Spinning models CPU *occupancy*, sleeping models CPU *independence* —
/// and on a host with fewer cores than simulated service threads the two
/// are irreconcilable: a spinning thread monopolizes its timeslice, so
/// concurrent service burns serialize in wall-clock time and any intra-host
/// parallelism across worker threads is invisible. Sleep mode trades
/// sub-millisecond timer precision for the scheduling behavior the
/// simulated cluster would have with one core per thread; the scaling
/// bench (`pipeline_sweep`) turns it on by default so its workers ladder
/// measures partitions, while the latency-calibrated figure benches keep
/// spinning. Both engines run one engine thread per core, and a sleep holds
/// its thread, so in this mode they count a core per role instead of the
/// host's ([`crate::shell::threads_for`]): every role keeps a thread of its
/// own.
pub fn service_sleeps() -> bool {
    static MODE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var("SE_SERVICE_SLEEP")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

/// Per-hop latency model of the simulated cluster.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One Kafka produce *or* consume hop.
    pub broker_hop: Duration,
    /// One way between a dataflow task and the remote function runtime.
    pub remote_fn_hop: Duration,
    /// One internal worker-to-worker message (StateFlow f2f channel).
    pub f2f_hop: Duration,
    /// Additional cost per KiB of payload ((de)serialization + transfer).
    pub per_kib: Duration,
    /// Scale factor applied to every simulated duration (< 1 speeds up).
    pub time_scale: f64,
}

impl Default for NetConfig {
    /// Values calibrated to reproduce the *shape* of Figures 3 and 4: a
    /// Kafka round trip costs a few milliseconds, a remote-function HTTP hop
    /// slightly less, and internal channels are an order of magnitude
    /// cheaper.
    fn default() -> Self {
        Self {
            broker_hop: Duration::from_micros(2_500),
            remote_fn_hop: Duration::from_micros(1_500),
            f2f_hop: Duration::from_micros(300),
            per_kib: Duration::from_micros(15),
            time_scale: 1.0,
        }
    }
}

impl NetConfig {
    /// A configuration with negligible delays for fast unit tests.
    pub fn fast_test() -> Self {
        Self {
            broker_hop: Duration::from_micros(50),
            remote_fn_hop: Duration::from_micros(30),
            f2f_hop: Duration::from_micros(10),
            per_kib: Duration::ZERO,
            time_scale: 1.0,
        }
    }

    /// Applies the time scale to a raw duration.
    pub fn scaled(&self, d: Duration) -> Duration {
        d.mul_f64(self.time_scale.max(0.0))
    }

    /// Latency of one broker hop for a message of `bytes` bytes.
    pub fn broker_latency(&self, bytes: usize) -> Duration {
        self.scaled(self.broker_hop + self.size_cost(bytes))
    }

    /// Latency of one remote-function hop for a message of `bytes` bytes.
    pub fn remote_fn_latency(&self, bytes: usize) -> Duration {
        self.scaled(self.remote_fn_hop + self.size_cost(bytes))
    }

    /// Latency of one internal f2f hop for a message of `bytes` bytes.
    pub fn f2f_latency(&self, bytes: usize) -> Duration {
        self.scaled(self.f2f_hop + self.size_cost(bytes))
    }

    fn size_cost(&self, bytes: usize) -> Duration {
        self.per_kib.mul_f64(bytes as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_applies() {
        let cfg = NetConfig {
            time_scale: 0.5,
            ..NetConfig::default()
        };
        assert_eq!(
            cfg.scaled(Duration::from_millis(10)),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn size_cost_grows_linearly() {
        let cfg = NetConfig::default();
        let small = cfg.broker_latency(0);
        let big = cfg.broker_latency(200 * 1024);
        assert!(big > small);
        assert_eq!(big - small, cfg.per_kib * 200);
    }

    #[test]
    fn relative_hop_order_matches_paper() {
        let cfg = NetConfig::default();
        assert!(
            cfg.f2f_hop < cfg.remote_fn_hop && cfg.remote_fn_hop < cfg.broker_hop,
            "internal channels must be cheapest, broker hops most expensive"
        );
    }

    #[test]
    fn zero_scale_zeroes_every_delay() {
        let cfg = NetConfig {
            time_scale: 0.0,
            ..NetConfig::default()
        };
        assert_eq!(cfg.scaled(Duration::from_millis(10)), Duration::ZERO);
    }
}
