//! Order statistics for the reported metrics.

/// Percentiles the tail metric may report, lowest first. The tail is the
/// highest of these with at least [`TAIL_MIN_BEYOND`] samples above it.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Smallest of `values`: the set-up statistic, since host delays only
/// ever add to a set-up.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn minimum(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Indices, in ascending order, of the half of `keys` (rounded up) with
/// the smallest values; ties go to the earlier index.
pub fn least_half(keys: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).expect("keys are never NaN"));
    order.truncate(keys.len().div_ceil(2));
    order.sort_unstable();
    order
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The small slack keeps float error (99.9% of 10 000 = 9990.000…02)
    // from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail the benchmark reports: which percentile, its value, the
/// sample count, and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in percent, from [`TAIL_LADDER`].
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().rev().copied().find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// [`tail_percentile`] applied to `values`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let p = tail_percentile(values.len())?;
    let sorted = sorted(values);
    let r = rank(sorted.len(), p);
    Some(Tail {
        percentile: p,
        value: sorted[r - 1],
        samples: sorted.len(),
        beyond: sorted.len() - r,
    })
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn minimum_is_the_fastest_sample() {
        assert_eq!(minimum(&[0.0037, 0.0012, 0.0038]), 0.0012);
        assert_eq!(minimum(&[0.4]), 0.4);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // Below 20 samples not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // 48 samples (two fig12 passes): p75 leaves 12, p90 only 4.
        assert_eq!(tail_percentile(48), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The ladder stops at p99.9 however many samples there are.
        assert_eq!(tail_percentile(10_000_000), Some(99.9));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            if let Some(&higher) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(n - rank(n, higher) < TAIL_MIN_BEYOND, "n={n} could report p{higher}");
            }
        }
    }

    #[test]
    fn tail_reports_the_ranked_sample() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        assert!(tail(&values[..19]).is_none());
    }

    #[test]
    fn least_half_keeps_the_smallest_keys_in_index_order() {
        assert_eq!(least_half(&[0.3, 0.0, 0.2, 0.0, 0.5]), vec![1, 2, 3]);
        assert_eq!(least_half(&[0.1, 0.1, 0.1, 0.1]), vec![0, 1]);
        assert_eq!(least_half(&[0.4]), vec![0]);
        assert!(least_half(&[]).is_empty());
    }

    #[test]
    fn failed_frac_counts_failures_over_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 48), 0.0);
        assert_eq!(failed_frac(12, 48), 0.25);
        assert_eq!(failed_frac(48, 48), 1.0);
    }
}
