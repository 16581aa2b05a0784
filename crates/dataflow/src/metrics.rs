//! Measurement read views: latency summaries and per-component timers.
//!
//! `LatencySummary` backs the end-to-end latency experiments (Figures 3 and
//! 4: mean, p50, p99). `ComponentTimers` backs the system-overhead
//! experiment (§4): "for each event, we measured the duration of different
//! runtime components" — object construction, state (de)serialization,
//! function execution, state storage, and the overhead attributable to
//! program transformation. Neither stores anything of its own: both read
//! se-obs histograms. Each engine thread looks up its component histograms
//! once with [`timer`] and times into them with [`se_obs::Histogram::time`];
//! they are live in every observability mode, and dumped with the rest of
//! the registry in every mode but `off`.

use std::sync::Arc;
use std::time::Duration;

use se_obs::{Histogram, Obs};

/// Summary statistics of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum.
    pub max: Duration,
}

impl LatencySummary {
    /// Computes the summary from a shared `se-obs` histogram of nanosecond
    /// samples. This is the bench drivers' path: workers record latencies
    /// into one lock-free histogram instead of each bench sorting its own
    /// `Vec<Duration>`; percentiles are bucket-quantized (≤ ~6% relative
    /// error), count/mean/max are exact.
    pub fn from_hist(hist: &Histogram) -> Self {
        let s = hist.summary();
        if s.count == 0 {
            return Self::default();
        }
        Self {
            count: s.count as usize,
            mean: Duration::from_nanos((s.sum as f64 / s.count as f64) as u64),
            p50: Duration::from_nanos(s.p50),
            p95: Duration::from_nanos(hist.value_at(0.95)),
            p99: Duration::from_nanos(s.p99),
            max: Duration::from_nanos(s.max),
        }
    }

    /// Divides every statistic by `scale` (for un-scaling simulated time).
    pub fn unscale(&self, scale: f64) -> Self {
        if scale <= 0.0 || (scale - 1.0).abs() < f64::EPSILON {
            return *self;
        }
        let f = |d: Duration| d.div_f64(scale);
        Self {
            count: self.count,
            mean: f(self.mean),
            p50: f(self.p50),
            p95: f(self.p95),
            p99: f(self.p99),
            max: f(self.max),
        }
    }
}

/// The timed runtime components, sorted by name. Component `c` records
/// into the registry histogram `timer.c`.
const COMPONENTS: [&str; 9] = [
    "function_execution",
    "object_construction",
    "split_overhead",
    "state_deserialization",
    "state_read",
    "state_serialization",
    "state_storage",
    "state_store",
    "state_write_buffer",
];

/// The always-on histogram `component` is timed into on `obs`'s registry.
pub fn timer(obs: &Obs, component: &'static str) -> Arc<Histogram> {
    debug_assert!(COMPONENTS.contains(&component), "unlisted {component}");
    obs.histogram(&format!("timer.{component}"))
}

/// The per-component overhead breakdown of one deployment: a read view of
/// its `timer.*` histograms.
#[derive(Debug)]
pub struct ComponentTimers {
    hists: Vec<(&'static str, Arc<Histogram>)>,
}

impl ComponentTimers {
    pub(crate) fn new(obs: &Obs) -> Self {
        let hists = COMPONENTS.iter().map(|&c| (c, timer(obs, c))).collect();
        Self { hists }
    }

    /// `(component, total, count)` of every component timed at least once,
    /// sorted by name. Totals are the histograms' exact nanosecond sums.
    pub fn report(&self) -> Vec<(&'static str, Duration, u64)> {
        self.hists
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(c, h)| (*c, Duration::from_nanos(h.sum()), h.count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_from_hist_matches_samples() {
        let hist = Histogram::new();
        assert_eq!(LatencySummary::from_hist(&hist), LatencySummary::default());
        for ms in 1..=100u64 {
            hist.record(ms * 1_000_000);
        }
        let s = LatencySummary::from_hist(&hist);
        assert_eq!(s.count, 100);
        assert_eq!(s.max, Duration::from_millis(100));
        // Bucket quantization: within one sub-bucket of the exact ranks.
        let close = |got: Duration, want_ms: u64| {
            let want = Duration::from_millis(want_ms);
            (got.as_secs_f64() - want.as_secs_f64()).abs() / want.as_secs_f64() < 0.07
        };
        assert!(close(s.p50, 50), "p50 {:?}", s.p50);
        assert!(close(s.p99, 99), "p99 {:?}", s.p99);
        assert!(close(s.mean, 50), "mean {:?}", s.mean);
    }

    #[test]
    fn unscale_divides() {
        let hist = Histogram::new();
        hist.record(10_000_000);
        let u = LatencySummary::from_hist(&hist).unscale(0.1);
        assert_eq!(u.p50, Duration::from_millis(100));
    }

    #[test]
    fn component_timers_report_sorted_nonzero_exact_rows() {
        assert!(COMPONENTS.windows(2).all(|w| w[0] < w[1]), "{COMPONENTS:?}");
        // Timers record with observability off.
        let obs = Obs::noop();
        let timers = ComponentTimers::new(&obs);
        assert!(timers.report().is_empty());
        timer(&obs, "state_store").record(1_500);
        timer(&obs, "function_execution").record(99_000);
        timer(&obs, "function_execution").record(1_001);
        assert_eq!(
            timers.report(),
            vec![
                ("function_execution", Duration::from_nanos(100_001), 2),
                ("state_store", Duration::from_nanos(1_500), 1),
            ]
        );
    }
}
