//! Measurement utilities: latency summaries and per-component timers.
//!
//! `LatencySummary` backs the end-to-end latency experiments (Figures 3 and
//! 4: mean, p50, p99). `ComponentTimers` backs the system-overhead
//! experiment (§4): "for each event, we measured the duration of different
//! runtime components" — object construction, state (de)serialization,
//! function execution, state storage, routing, and the overhead attributable
//! to program transformation.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

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
    /// Computes the summary of a sample set (empty sets yield zeros).
    pub fn from_samples(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        let pct = |p: f64| -> Duration {
            // Nearest-rank percentile.
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            sorted[rank.min(sorted.len()) - 1]
        };
        Self {
            count: sorted.len(),
            mean: total / sorted.len() as u32,
            p50: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
            max: *sorted.last().expect("non-empty"),
        }
    }

    /// Computes the summary from a shared `se-obs` histogram of nanosecond
    /// samples. This is the bench drivers' path: workers record latencies
    /// into one lock-free histogram instead of each bench sorting its own
    /// `Vec<Duration>`; percentiles are bucket-quantized (≤ ~6% relative
    /// error), count/mean/max are exact.
    pub fn from_hist(hist: &se_obs::Histogram) -> Self {
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

/// Named accumulating timers for the per-component overhead breakdown.
#[derive(Debug, Default)]
pub struct ComponentTimers {
    totals: Mutex<std::collections::BTreeMap<&'static str, (Duration, u64)>>,
}

impl ComponentTimers {
    /// An empty timer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f`, charging its duration to `component`.
    pub fn time<R>(&self, component: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(component, start.elapsed());
        r
    }

    /// Adds an externally measured duration to `component`.
    pub fn add(&self, component: &'static str, d: Duration) {
        let mut g = self.totals.lock();
        let e = g.entry(component).or_insert((Duration::ZERO, 0));
        e.0 += d;
        e.1 += 1;
    }

    /// Snapshot of `(component, total, count)` rows, sorted by name.
    pub fn report(&self) -> Vec<(&'static str, Duration, u64)> {
        self.totals
            .lock()
            .iter()
            .map(|(k, (d, c))| (*k, *d, *c))
            .collect()
    }

    /// Total across all components.
    pub fn grand_total(&self) -> Duration {
        self.totals.lock().values().map(|(d, _)| *d).sum()
    }

    /// Fraction (0..=1) of the grand total charged to `component`.
    pub fn fraction(&self, component: &'static str) -> f64 {
        let g = self.totals.lock();
        let total: Duration = g.values().map(|(d, _)| *d).sum();
        if total.is_zero() {
            return 0.0;
        }
        let part = g.get(component).map(|(d, _)| *d).unwrap_or(Duration::ZERO);
        part.as_secs_f64() / total.as_secs_f64()
    }

    /// Clears all accumulated data.
    pub fn reset(&self) {
        self.totals.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Duration::from_millis(50));
        assert_eq!(s.p99, Duration::from_millis(99));
        assert_eq!(s.max, Duration::from_millis(100));
        assert_eq!(s.mean, Duration::from_micros(50_500));
    }

    #[test]
    fn summary_single_sample() {
        let s = LatencySummary::from_samples(&[Duration::from_millis(7)]);
        assert_eq!(s.p50, Duration::from_millis(7));
        assert_eq!(s.p99, Duration::from_millis(7));
    }

    #[test]
    fn summary_empty() {
        let s = LatencySummary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, Duration::ZERO);
    }

    #[test]
    fn summary_from_hist_matches_samples() {
        let hist = se_obs::Histogram::new();
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
        let s = LatencySummary::from_samples(&[Duration::from_millis(10)]);
        let u = s.unscale(0.1);
        assert_eq!(u.p50, Duration::from_millis(100));
    }

    #[test]
    fn component_timers_fraction() {
        let t = ComponentTimers::new();
        t.add("exec", Duration::from_millis(99));
        t.add("split_overhead", Duration::from_millis(1));
        assert!((t.fraction("split_overhead") - 0.01).abs() < 1e-9);
        assert_eq!(t.grand_total(), Duration::from_millis(100));
        let report = t.report();
        assert_eq!(report.len(), 2);
        t.reset();
        assert_eq!(t.grand_total(), Duration::ZERO);
    }
}
