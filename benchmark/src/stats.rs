//! Order statistics shared by the driver, the probes and `compare`.

use se_obs::hist::{bucket_ceil, bucket_index};
use se_obs::Histogram;

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of a small set of values (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the acceptance rule is stated in
/// those terms, so `compare` must cut at the same points. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The bucket counts of an `se-obs` histogram at one instant. The engines'
/// stage histograms accumulate from deploy and cannot be reset from
/// outside, so a phase is measured as the difference of two snapshots.
pub struct HistSnap(Vec<(u64, u64)>);

impl HistSnap {
    /// Snapshots `hist`'s non-empty buckets as `(bucket floor, count)`.
    pub fn take(hist: &Histogram) -> HistSnap {
        HistSnap(hist.nonzero_buckets())
    }

    /// Buckets recorded since `earlier`, ascending by floor.
    fn since(&self, earlier: &HistSnap) -> Vec<(u64, u64)> {
        let before: std::collections::HashMap<u64, u64> = earlier.0.iter().copied().collect();
        self.0
            .iter()
            .map(|&(floor, n)| (floor, n - before.get(&floor).copied().unwrap_or(0).min(n)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Quantile `q` (bucket midpoint, ≈ 6 % quantised) of the samples
    /// recorded since `earlier`; 0 when there are none.
    pub fn quantile_since(&self, earlier: &HistSnap, q: f64) -> u64 {
        let delta = self.since(earlier);
        let total: u64 = delta.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (floor, n) in delta {
            seen += n;
            if seen >= rank {
                return floor + (bucket_ceil(bucket_index(floor)) - floor) / 2;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn hist_snapshots_subtract() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1_000);
        }
        let before = HistSnap::take(&h);
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let after = HistSnap::take(&h);
        let p50 = after.quantile_since(&before, 0.5);
        assert!((940_000..=1_060_000).contains(&p50), "{p50}");
        assert_eq!(before.quantile_since(&before, 0.5), 0);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
