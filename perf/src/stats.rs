//! Order statistics used by every metric: medians, quartiles and
//! nearest-rank percentiles.

/// Sorted copy of `xs` (total order, so a stray NaN cannot panic).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartile by the *exclusive* method — the same cut
/// points Python's `statistics.quantiles(values, n=4)` returns, so a
/// spread computed here equals the one the acceptance driver computes.
/// Fewer than two samples have no spread: both quartiles are the value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let len = s.len();
    if len < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    ((q3 - q1) / m).abs()
}

/// Nearest-rank percentile of an unsorted sample: the smallest value
/// with at least `q` of the sample at or below it. 0 for an empty one.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The reported value (the median unless the metric says otherwise),
/// quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            value: median(xs),
            q1,
            q3,
            n: xs.len(),
        }
    }

    /// The mean of the samples in place of their median: for readings
    /// coarser than their run-to-run differences (10 ms CPU ticks).
    pub fn mean_of(xs: &[f64]) -> Summary {
        let mean = if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        Summary {
            value: mean,
            ..Summary::of(xs)
        }
    }

    /// A single measured value (a count, a high-water mark).
    pub fn single(v: f64) -> Summary {
        Summary {
            value: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 2 000 samples: p99 leaves exactly 20 beyond it.
        let ys: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.99), 1980.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn summary_carries_count_and_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (4.0, 1.5, 12.0, 5));
        assert_eq!(Summary::single(3.0).n, 1);
    }
}
