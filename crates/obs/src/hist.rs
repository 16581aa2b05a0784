//! Log-bucketed HDR-style histogram with O(1) lock-free recording.
//!
//! Values (nanoseconds, bytes, depths — any `u64`) are binned into
//! [`SUB_BUCKETS`] sub-buckets per power of two, giving a bounded relative
//! error of `1/SUB_BUCKETS` (≈6%) at every magnitude while the whole table
//! stays a fixed 976-slot atomic array: `record` is one index computation
//! plus one `fetch_add`, with no allocation and no locking, so it is safe
//! to call from the coordinator decide loop, the workers, and the WAL fsync
//! path alike. `merge` adds another histogram bucket-wise, which is
//! exactly recording the union of both sample streams (see the property
//! test in `tests/hist_prop.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::span::monotonic_ns;

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count: 16 exact low values + 60 octaves × 16 sub-buckets.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Maps a value to its bucket index. Values below [`SUB_BUCKETS`] get exact
/// buckets; everything else shares an octave split into 16 linear slices.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let sub = ((v >> (top - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        ((top - SUB_BITS) as usize + 1) * SUB_BUCKETS + sub
    }
}

/// Smallest value that lands in bucket `idx` (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        idx as u64
    } else {
        let top = (idx / SUB_BUCKETS - 1) as u32 + SUB_BITS;
        let sub = (idx % SUB_BUCKETS) as u64;
        (1u64 << top) + (sub << (top - SUB_BITS))
    }
}

/// Largest value that lands in bucket `idx`.
#[inline]
pub fn bucket_ceil(idx: usize) -> u64 {
    if idx + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_floor(idx + 1) - 1
    }
}

/// Summary statistics extracted from a [`Histogram`] at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values (mean = `sum / count`).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median (bucket-quantized, clamped to observed min/max).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistSummary {
    /// Mean of the recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Lock-free log-bucketed histogram. All methods take `&self`; recording is
/// a single relaxed `fetch_add` per sample plus min/max maintenance.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the boxed array through a Vec.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("bucket count");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. O(1), lock-free, callable from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Runs `f` and records how long it took, in nanoseconds. Live in every
    /// mode: the clock is read whatever the [`crate::ObsMode`].
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = monotonic_ns();
        let r = f();
        self.record(monotonic_ns().saturating_sub(start));
        r
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Adds every sample of `other` into `self`, bucket-wise. Equivalent to
    /// having recorded the union of both sample streams.
    pub fn merge(&self, other: &Histogram) {
        for i in 0..NUM_BUCKETS {
            let c = other.buckets[i].load(Ordering::Relaxed);
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Value at quantile `q` in `[0, 1]` (nearest-rank over buckets; the
    /// bucket midpoint is reported, clamped to the observed min/max so a
    /// single-sample histogram reports that sample, not a bucket edge).
    pub fn value_at(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for i in 0..NUM_BUCKETS {
            let c = self.buckets[i].load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let floor = bucket_floor(i);
                let ceil = bucket_ceil(i);
                let mid = floor + (ceil - floor) / 2;
                return mid.clamp(
                    self.min.load(Ordering::Relaxed),
                    self.max.load(Ordering::Relaxed),
                );
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Snapshot of count/sum/min/max and the standard percentiles.
    pub fn summary(&self) -> HistSummary {
        let count = self.count();
        HistSummary {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.value_at(0.50),
            p90: self.value_at(0.90),
            p99: self.value_at(0.99),
        }
    }

    /// Non-empty buckets as `(bucket_floor, count)` pairs, in value order.
    /// This is the merge-stable wire representation used by the exporters.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..NUM_BUCKETS)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_floor(i), c))
            })
            .collect()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .field("max", &s.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v}");
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_invertible() {
        // Every bucket's floor maps back to that bucket, and floors are
        // strictly increasing — no gaps, no overlaps.
        let mut prev = None;
        for idx in 0..NUM_BUCKETS {
            let floor = bucket_floor(idx);
            assert_eq!(bucket_index(floor), idx, "floor of bucket {idx}");
            if let Some(p) = prev {
                assert!(floor > p, "bucket {idx} floor {floor} <= previous {p}");
                // The value just below this floor belongs to the previous bucket.
                assert_eq!(bucket_index(floor - 1), idx - 1);
            }
            prev = Some(floor);
        }
    }

    #[test]
    fn powers_of_two_open_new_octaves() {
        for top in SUB_BITS..63 {
            let v = 1u64 << top;
            let idx = bucket_index(v);
            assert_eq!(bucket_floor(idx), v, "2^{top} should start its bucket");
            assert_eq!(idx % SUB_BUCKETS, 0, "2^{top} should be sub-bucket 0");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / floor <= 1/SUB_BUCKETS for all values >= SUB_BUCKETS.
        for &v in &[16u64, 100, 1_000, 65_535, 1 << 30, u64::MAX / 3] {
            let idx = bucket_index(v);
            let width = bucket_ceil(idx) - bucket_floor(idx) + 1;
            assert!(
                width as f64 / bucket_floor(idx) as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "value {v}: width {width} floor {}",
                bucket_floor(idx)
            );
        }
    }

    #[test]
    fn max_value_fits() {
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn percentiles_track_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Bucket quantization bounds: within one sub-bucket (~6%).
        assert!((s.p50 as f64 - 500.0).abs() / 500.0 < 0.07, "p50 {}", s.p50);
        assert!((s.p99 as f64 - 990.0).abs() / 990.0 < 0.07, "p99 {}", s.p99);
    }

    #[test]
    fn single_sample_reports_itself() {
        let h = Histogram::new();
        h.record(777);
        assert_eq!(h.value_at(0.5), 777);
        assert_eq!(h.value_at(0.99), 777);
    }

    #[test]
    fn time_records_one_sample_per_call() {
        let h = Histogram::new();
        assert_eq!(h.time(|| 7), 7);
        h.time(|| ());
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p99),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 5, 100, 100, 4096] {
            a.record(v);
        }
        for v in [2u64, 100, 1 << 20] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 8);
        assert_eq!(a.sum(), 1 + 5 + 100 + 100 + 4096 + 2 + 100 + (1 << 20));
        let s = a.summary();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1 << 20);
    }
}
