//! Order statistics shared by every workload: medians, percentiles and
//! the tail-percentile rule.

/// Value at percentile `p` (0–100) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `p`% of the samples at or below it.
/// `sorted` must be ascending and non-empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    // The epsilon keeps exact ranks exact: 99.99% of 100000 must be rank
    // 99990, not 99991 after floating-point round-up.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
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

/// Percentiles the tail rule considers, lowest first.
pub const TAIL_CANDIDATES: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie strictly beyond a percentile for it to count as
/// resolved by the sample.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail reading: the percentile chosen, its value, and how many samples
/// lie strictly above that value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail<T> {
    /// Percentile the reading is taken at (one of [`TAIL_CANDIDATES`]).
    pub percentile: f64,
    /// Sample value at that percentile.
    pub value: T,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// The tail rule: the highest candidate percentile with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its value. When even the
/// median is not resolved (tiny or constant samples) the median is
/// reported with its actual count beyond. `sorted` must be ascending and
/// non-empty.
pub fn tail_sorted<T: Copy + PartialOrd>(sorted: &[T]) -> Tail<T> {
    let reading = |p: f64| {
        let value = percentile_sorted(sorted, p);
        let beyond = sorted.len() - sorted.partition_point(|x| *x <= value);
        Tail {
            percentile: p,
            value,
            beyond,
        }
    };
    TAIL_CANDIDATES
        .iter()
        .rev()
        .map(|&p| reading(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| reading(TAIL_CANDIDATES[0]))
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 distinct samples: p99 leaves exactly 10 above it, p99.9
        // leaves 1, so p99 is the tail.
        let v: Vec<u64> = (1..=1000).collect();
        let t = tail_sorted(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990);
        assert_eq!(t.beyond, 10);

        // 100k samples resolve p99.99 (10 beyond) but not p99.999.
        let v: Vec<u64> = (1..=100_000).collect();
        let t = tail_sorted(&v);
        assert_eq!((t.percentile, t.beyond), (99.99, 10));

        // 99 samples: p90 leaves 9 above, so only the median resolves.
        let v: Vec<u64> = (1..=99).collect();
        let t = tail_sorted(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 50, 49));
    }

    #[test]
    fn tail_counts_only_strictly_greater_samples() {
        // Ties at the percentile value do not count as beyond it: a
        // sample that is mostly one value cannot resolve a high tail.
        let mut v = vec![5u64; 990];
        v.extend(6..=15);
        let t = tail_sorted(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 5);
        assert_eq!(t.beyond, 10);
        let flat = vec![7u64; 500];
        let t = tail_sorted(&flat);
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 7, 0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
