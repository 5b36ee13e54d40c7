//! Streaming statistics (Welford) and Monte-Carlo error estimates.

/// Numerically stable running mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Construct with validation; panics on invalid parameters.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Arithmetic mean of the observations.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (biased, divides by n); 0 for fewer than two
    /// samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (unbiased, divides by n-1).
    fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard error of the mean, the half-width driver of Monte-Carlo
    /// confidence intervals.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RunningStats {
        /// Number of observations.
        fn count(&self) -> u64 {
            self.n
        }
    }

    #[test]
    fn mean_and_variance_of_small_set() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.mean(), 3.5);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.77).sin() * 3.0 + 1.0)
            .collect();
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a.mean(), before.mean());
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e.mean(), before.mean());
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let mut s = RunningStats::new();
        for i in 0..10 {
            s.push(i as f64);
        }
        let se10 = s.std_error();
        for i in 0..990 {
            s.push((i % 10) as f64);
        }
        assert!(s.std_error() < se10);
    }
}
