//! Sample summaries: quantiles of sorted samples (the workspace's
//! interpolating `percentile`), with the count of samples beyond a
//! reported tail so a p99 read off too few samples is visible.

use psd_dist::stats::percentile;

/// Quantile `q` of an ascending-sorted sample; 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    percentile(sorted, q).unwrap_or(0.0)
}

/// How many samples of `sorted` lie strictly above its `q`-quantile.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let v = quantile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= v)
}

/// Median, p99 and the sample counts that back them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples strictly above the p99.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarize `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        Self {
            n: samples.len(),
            p50: quantile(samples, 0.5),
            p99: quantile(samples, 0.99),
            beyond_p99: beyond(samples, 0.99),
        }
    }

    /// Whether the p99 rests on at least ten samples above it.
    pub fn tail_resolved(&self) -> bool {
        self.beyond_p99 >= 10
    }

    /// The sample counts behind the p99, flagged when too few lie
    /// beyond it, as ` (n=…, … beyond)` for a report line.
    pub fn counts(&self) -> String {
        let flag = if self.tail_resolved() { "" } else { ", tail unresolved" };
        format!(" (n={}, {} beyond{flag})", self.n, self.beyond_p99)
    }
}

/// Median of a sample (sorted in place); 0 for an empty one.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(samples, 0.5)
}

/// How per-round statistics of one run combine into the reported
/// value: the interquartile mean, the mean of the middle half (sorts in
/// place). Round statistics are bimodal where a round locks into one of
/// two timer phases, which makes a median jump between the modes, and
/// heavy-tailed where one round catches a long busy period, which drags
/// a plain mean.
pub fn aggregate(per_round: &mut [f64]) -> f64 {
    per_round.sort_by(f64::total_cmp);
    let cut = per_round.len() / 4;
    mean(&per_round[cut..per_round.len() - cut])
}

/// Standard deviation of evenly spaced samples about their
/// least-squares line: how much a series fluctuates with its trend
/// taken out. 0 for fewer than three samples.
pub fn detrended_sd(series: &[f64]) -> f64 {
    let n = series.len();
    if n < 3 {
        return 0.0;
    }
    let xm = (n - 1) as f64 / 2.0;
    let ym = mean(series);
    let sxx: f64 = (0..n).map(|i| (i as f64 - xm).powi(2)).sum();
    let sxy: f64 = series.iter().enumerate().map(|(i, y)| (i as f64 - xm) * (y - ym)).sum();
    let slope = sxy / sxx;
    let rss: f64 =
        series.iter().enumerate().map(|(i, y)| (y - ym - slope * (i as f64 - xm)).powi(2)).sum();
    (rss / (n - 2) as f64).sqrt()
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_exact_order_statistics() {
        // 1..=1001: the q-quantile of n+1 evenly spaced points sits
        // exactly on an order statistic, so no interpolation blurs it.
        let mut xs: Vec<f64> = (1..=1001).rev().map(f64::from).collect();
        let s = Summary::of(&mut xs);
        assert_eq!(s.n, 1001);
        assert_eq!(s.p50, 501.0);
        assert_eq!(s.p99, 991.0);
        assert_eq!(s.beyond_p99, 10, "991 < x ≤ 1001");
        assert!(s.tail_resolved());
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 1001.0);
    }

    #[test]
    fn short_tails_are_flagged() {
        let mut xs: Vec<f64> = (0..500).map(f64::from).collect();
        let s = Summary::of(&mut xs);
        assert_eq!(s.beyond_p99, 5);
        assert!(!s.tail_resolved(), "500 samples cannot back a p99");
    }

    #[test]
    fn ties_are_not_counted_beyond() {
        let mut xs = vec![1.0; 100];
        xs.extend([2.0; 5]);
        assert_eq!(
            beyond(
                &{
                    xs.sort_by(f64::total_cmp);
                    xs.clone()
                },
                0.5
            ),
            5
        );
        assert_eq!(median(&mut xs), 1.0);
        assert_eq!(Summary::of(&mut []).n, 0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(aggregate(&mut [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0]), 4.5, "middle four");
        assert_eq!(aggregate(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn detrending_removes_the_trend_only() {
        let line: Vec<f64> = (0..16).map(|i| 5.0 + 3.0 * f64::from(i)).collect();
        assert!(detrended_sd(&line) < 1e-9, "a straight line does not fluctuate");
        let zigzag: Vec<f64> = (0..16).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let tilted: Vec<f64> = zigzag.iter().zip(&line).map(|(z, l)| z + l).collect();
        assert!((detrended_sd(&zigzag) - detrended_sd(&tilted)).abs() < 1e-9);
        assert!(detrended_sd(&zigzag) > 0.9, "{}", detrended_sd(&zigzag));
        assert_eq!(detrended_sd(&[1.0, 9.0]), 0.0);
    }
}
