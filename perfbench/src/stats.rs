//! Order statistics used by the benchmark: percentiles over latency
//! samples, medians and quartiles over run results, and quantiles read
//! off the server's log2 histograms.

use sitm_obs::Histogram;

/// Latency samples in log-linear buckets: exact below 128 ns, then 128
/// buckets per power of two (under 0.8% relative width), so memory
/// stays fixed however many samples a run takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

const SUB: usize = 128;

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; SUB * 58],
            total: 0,
            sum: 0,
        }
    }
}

impl LatHist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB.trailing_zeros();
        ((shift as usize + 1) * SUB) + ((v >> shift) as usize - SUB)
    }

    /// The smallest value of bucket `i` and the bucket's width.
    fn bounds(i: usize) -> (u64, u64) {
        if i < SUB {
            return (i as u64, 1);
        }
        let shift = i / SUB - 1;
        (((i % SUB + SUB) as u64) << shift, 1 << shift)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Nearest-rank percentile (`p` in 0..=100), reported as the middle
    /// of the bucket holding that rank; 0 with no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, width) = Self::bounds(i);
                return lo as f64 + (width - 1) as f64 / 2.0;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of values carrying integer
/// weights: the smallest value at or below which `p`% of the total
/// weight lies; 0 when the weights sum to 0.
pub fn weighted_percentile(pairs: &[(f64, u64)], p: f64) -> f64 {
    let mut v = pairs.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|&(_, w)| w).sum();
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (value, w) in v {
        seen += w;
        if seen >= rank {
            return value;
        }
    }
    0.0
}

/// Median of `values` (mean of the middle pair for an even count), as
/// Python's `statistics.median` computes it; 0 on an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile of `values`, by the same
/// rule as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let (n, m) = (4usize, len + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, len - 1);
        // Negative when the clamp raised `j` (Python's integers allow it).
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the spread the
/// benchmark's bounds are checked against. `None` for fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Per-bucket sample counts recorded between two snapshots of one
/// growing histogram (`end` taken after `start`).
pub fn hist_delta(start: Option<&Histogram>, end: Option<&Histogram>) -> Vec<(u32, u64)> {
    let Some(end) = end else { return Vec::new() };
    end.buckets()
        .map(|(b, n)| (b, n - start.map_or(0, |s| s.count_in(b))))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Sum of the samples recorded between two snapshots, rebuilt from the
/// histograms' exact means and totals.
pub fn hist_delta_sum(start: Option<&Histogram>, end: Option<&Histogram>) -> f64 {
    let sum = |h: Option<&Histogram>| h.map_or(0.0, |h| h.mean() * h.total() as f64);
    (sum(end) - sum(start)).max(0.0)
}

/// Quantile `q` (0..=1) of log2-bucketed counts, interpolated linearly
/// inside the bucket that holds the rank; 0 when there are no samples.
/// Bucket widths double, so the estimate is only good to within its
/// bucket.
pub fn bucket_quantile(buckets: &[(u32, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).max(1.0);
    let mut below = 0u64;
    for &(bucket, n) in buckets {
        if (below + n) as f64 >= rank {
            let (lo, hi) = Histogram::bucket_range(bucket);
            let within = (rank - below as f64) / n as f64;
            return lo as f64 + within * (hi - lo) as f64;
        }
        below += n;
    }
    Histogram::bucket_range(buckets[buckets.len() - 1].0).1 as f64
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work on a workload reports 0, never NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lat_hist_percentiles_are_within_a_bucket() {
        let mut h = LatHist::default();
        assert_eq!(h.percentile(50.0), 0.0);
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.sum(), (1..=100_000u128).sum::<u128>() * 10);
        for (p, exact) in [(50.0, 500_000.0), (99.0, 990_000.0), (100.0, 1_000_000.0)] {
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() / exact < 0.008,
                "p{p}: {got} vs {exact}"
            );
        }
        let mut small = LatHist::default();
        for v in [3, 5, 7, 9] {
            small.record(v);
        }
        assert_eq!(small.percentile(50.0), 5.0, "exact below 128");
        assert_eq!(
            LatHist::index(u64::MAX),
            LatHist::default().counts.len() - 1
        );
        let mut merged = LatHist::default();
        merged.merge(&small);
        merged.merge(&small);
        assert_eq!((merged.count(), merged.percentile(100.0)), (8, 9.0));
    }

    #[test]
    fn lat_hist_buckets_tile_the_range() {
        let mut next = 0u64;
        for i in 0..SUB * 20 {
            let (lo, width) = LatHist::bounds(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(LatHist::index(lo), i);
            assert_eq!(LatHist::index(lo + width - 1), i);
            next = lo + width;
        }
    }

    #[test]
    fn weighted_percentile_counts_weight_not_entries() {
        let pairs = [(2.0, 3), (1.0, 1)];
        assert_eq!(weighted_percentile(&pairs, 25.0), 1.0);
        assert_eq!(weighted_percentile(&pairs, 50.0), 2.0);
        assert_eq!(weighted_percentile(&pairs, 100.0), 2.0);
        let uniform: Vec<(f64, u64)> = (1..=100).map(|i| (f64::from(i), 1)).collect();
        assert_eq!(weighted_percentile(&uniform, 99.0), 99.0);
        assert_eq!(weighted_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[5.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from CPython 3.11
        // `statistics.quantiles(d, n=4)`.
        let close = |a: [f64; 3], b: [f64; 3]| a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-12);
        let d = [3.1, 1.0, 4.1, 1.5, 9.2, 6.5, 3.5, 8.9, 7.9, 3.2];
        assert!(close(quartiles(&d).unwrap(), [2.7, 3.8, 8.15]));
        assert!(close(quartiles(&[5.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 5.0]));
        assert!(close(quartiles(&[10.0, 20.0]).unwrap(), [7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let d = [3.1, 1.0, 4.1, 1.5, 9.2, 6.5, 3.5, 8.9, 7.9, 3.2];
        assert!((spread(&d).unwrap() - (8.15 - 2.7) / 3.8).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread(&[7.0; 10]), Some(0.0));
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_rank_bucket() {
        let mut start = Histogram::new();
        let mut end = Histogram::new();
        for v in [5, 6] {
            start.record(v);
            end.record(v);
        }
        // Delta: 100 samples in [64, 128), 100 in [128, 256).
        for _ in 0..100 {
            end.record(100);
            end.record(200);
        }
        let delta = hist_delta(Some(&start), Some(&end));
        assert_eq!(delta, vec![(7, 100), (8, 100)]);
        assert_eq!(bucket_quantile(&delta, 0.5), 128.0);
        assert_eq!(bucket_quantile(&delta, 0.25), 96.0);
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
        let sum = hist_delta_sum(Some(&start), Some(&end));
        assert!((sum - 30_000.0).abs() < 1e-6);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
