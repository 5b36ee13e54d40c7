//! Random-variate generation for Monte-Carlo pricing.
//!
//! Wraps any [`rand::RngCore`] source with the transforms the pricers need:
//! standard normal draws (Marsaglia polar method with a cached spare),
//! correlated Gaussian vectors through a Cholesky factor, and an antithetic
//! stream adapter used for variance reduction.
//!
//! ## The equicorrelated factor is two vectors
//!
//! Every basket in the benchmark is equicorrelated (all off-diagonal
//! entries `ρ`), and the Cholesky factor `L` of that matrix holds one
//! number per column below its diagonal. The dense factorisation computes
//! `L[i][j]` (`i > j`) as `((ρ − L[i][0]·L[j][0]) − L[i][1]·L[j][1] − …) /
//! L[j][j]`. By induction on the column, every row below the diagonal runs
//! the same operations on the same operands, so `L[i][k] = c[k]` for all
//! `i > k`, bit for bit, and the diagonal is `d[k] = sqrt(((1 − c[0]²) −
//! c[1]²) − …)`. [`CorrelatedNormals`] stores `c` (`dim − 1` values) and
//! `d` (`dim` values), built by two running folds in O(dim).
//!
//! Row `i` of `L z` is the ascending-`k` sum `((0.0 + c[0]·z[0]) + … +
//! c[i−1]·z[i−1]) + d[i]·z[i]`: a running prefix `P[i+1] = P[i] +
//! c[i]·z[i]` from `P[0] = 0.0`, plus `d[i]·z[i]`. Those are the dense
//! product's multiplications and additions in the dense product's order,
//! so a draw costs `2·dim − 1` multiply-adds instead of `dim·(dim + 1)/2`
//! and every price keeps its bits. The tests hold both halves against the
//! dense factor and the row-by-row product.

use rand::Rng;

/// Standard normal generator using the Marsaglia polar method.
///
/// The polar method produces pairs; the second draw is cached so every call
/// consumes on average one uniform pair per two normals — measurably faster
/// than inverse-CDF sampling for the plain pricers, while the inverse CDF is
/// kept for quasi-Monte-Carlo where the order of draws matters.
#[derive(Debug, Clone)]
pub struct NormalGen {
    spare: Option<f64>,
}

impl Default for NormalGen {
    fn default() -> Self {
        Self::new()
    }
}

impl NormalGen {
    /// Construct with validation; panics on invalid parameters.
    pub fn new() -> Self {
        NormalGen { spare: None }
    }

    /// Draw one standard normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Fill `out` with independent standard normals.
    pub fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [f64]) {
        for x in out.iter_mut() {
            *x = self.sample(rng);
        }
    }
}

/// Generator of correlated Gaussian vectors `L Z`, where `L` is the
/// Cholesky factor of an equicorrelated matrix and `Z` is a vector of
/// independent standard normals. This drives multi-asset (basket) paths.
/// `L` is kept as its two distinct parts (see the module docs).
#[derive(Debug, Clone)]
pub struct CorrelatedNormals {
    /// `below[k]`: every entry of column `k` under the diagonal.
    below: Vec<f64>,
    /// `diag[k]`: the diagonal entry of row `k`.
    diag: Vec<f64>,
    normal: NormalGen,
}

impl CorrelatedNormals {
    /// Build for the equicorrelated case (all off-diagonal entries `rho`),
    /// the structure used by the paper's basket options. Returns `None`
    /// exactly where the dense Cholesky factorisation meets a pivot that
    /// is not positive.
    pub fn equicorrelated(dim: usize, rho: f64) -> Option<Self> {
        // `off` is a column's numerator `((ρ − c0²) − c1²) − …`, `on` the
        // diagonal's radicand `((1 − c0²) − c1²) − …`: the subtractions
        // the dense factor makes, in its order.
        let mut below = Vec::with_capacity(dim.saturating_sub(1));
        let mut diag = Vec::with_capacity(dim);
        let (mut off, mut on) = (rho, 1.0_f64);
        for k in 0..dim {
            if on <= 0.0 {
                return None;
            }
            let d = on.sqrt();
            diag.push(d);
            if k + 1 < dim {
                let c = off / d;
                below.push(c);
                off -= c * c;
                on -= c * c;
            }
        }
        Some(CorrelatedNormals {
            below,
            diag,
            normal: NormalGen::new(),
        })
    }

    /// Dimension of generated points/vectors.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Draw one correlated Gaussian vector into `out`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [f64]) {
        self.normal.fill(rng, out);
        self.correlate_in_place(out);
    }

    /// Transform an already-drawn iid Gaussian vector in place
    /// (`z <- L z`), used by the antithetic path generator which needs to
    /// reuse the same `z` with flipped signs.
    pub fn correlate_in_place(&self, z: &mut [f64]) {
        assert_eq!(z.len(), self.dim());
        let Some((last, head)) = z.split_last_mut() else {
            return;
        };
        let mut prefix = 0.0;
        for ((zi, &c), &d) in head.iter_mut().zip(&self.below).zip(&self.diag) {
            let x = *zi;
            *zi = prefix + d * x;
            prefix += c * x;
        }
        *last = prefix + self.diag[head.len()] * *last;
    }
}

/// A deterministic, seedable counter-based uniform source used by the
/// discrete-event simulator (so simulated runs are exactly reproducible and
/// independent of `rand` version details). SplitMix64.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Construct with validation; panics on invalid parameters.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::cholesky;
    use crate::stats::RunningStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        for _ in 0..200_000 {
            stats.push(gen.sample(&mut rng));
        }
        assert!(stats.mean().abs() < 0.01, "mean {}", stats.mean());
        assert!(
            (stats.variance() - 1.0).abs() < 0.02,
            "var {}",
            stats.variance()
        );
    }

    #[test]
    fn normal_fill_uses_spare() {
        // Drawing an odd then even count must not lose the cached spare's
        // statistical properties; just check determinism with same seed.
        let mut a = NormalGen::new();
        let mut b = NormalGen::new();
        let mut ra = StdRng::seed_from_u64(7);
        let mut rb = StdRng::seed_from_u64(7);
        let mut xa = vec![0.0; 5];
        a.fill(&mut ra, &mut xa);
        let xb: Vec<f64> = (0..5).map(|_| b.sample(&mut rb)).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn correlated_normals_have_target_correlation() {
        let dim = 3;
        let rho = 0.5;
        let mut gen = CorrelatedNormals::equicorrelated(dim, rho).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = vec![0.0; dim];
        let mut cross = 0.0;
        let mut z = vec![0.0; dim];
        for _ in 0..n {
            gen.sample(&mut rng, &mut z);
            for i in 0..dim {
                sum[i] += z[i];
            }
            cross += z[0] * z[1];
        }
        let corr01 = cross / n as f64;
        assert!((corr01 - rho).abs() < 0.02, "corr {corr01}");
        for s in &sum {
            assert!((s / n as f64).abs() < 0.02);
        }
    }

    /// The dense equicorrelated factor: the oracle the two vectors must
    /// reproduce bit for bit.
    fn dense_factor(dim: usize, rho: f64) -> Option<Vec<f64>> {
        let mut corr = vec![rho; dim * dim];
        for i in 0..dim {
            corr[i * dim + i] = 1.0;
        }
        cholesky(&corr, dim)
    }

    /// The row-at-a-time dense product: `out[i] = Σ_{k ≤ i} L[i][k]·z[k]`,
    /// one add chain per row.
    fn naive_lower_mul(l: &[f64], z: &[f64]) -> Vec<f64> {
        let dim = z.len();
        (0..dim)
            .map(|i| {
                let mut acc = 0.0;
                for k in 0..=i {
                    acc += l[i * dim + k] * z[k];
                }
                acc
            })
            .collect()
    }

    #[test]
    fn correlate_in_place_matches_sample_transform() {
        let dim = 4;
        let gen = CorrelatedNormals::equicorrelated(dim, 0.3).unwrap();
        let l = dense_factor(dim, 0.3).unwrap();
        let z0 = [0.3, -1.2, 0.7, 2.1];
        let mut z = z0;
        gen.correlate_in_place(&mut z);
        for (got, want) in z.iter().zip(naive_lower_mul(&l, &z0)) {
            assert!((got - want).abs() < 1e-14);
        }
    }

    /// Correlations across the valid range of `dim`: near both edges,
    /// zero, negative, and random interior points.
    fn rhos(dim: usize, u: &mut SplitMix64) -> Vec<f64> {
        let lo = if dim > 1 {
            -1.0 / (dim as f64 - 1.0)
        } else {
            -1.0
        };
        let mut rhos = vec![0.0, 0.3, 0.999_999, lo * 0.999_999, lo / 2.0];
        rhos.extend((0..4).map(|_| u.uniform(lo, 1.0)));
        rhos
    }

    #[test]
    fn structured_factor_is_the_dense_factor_bit_for_bit() {
        // dim 1..=45 runs below, at and above the paper's 40 assets.
        let mut u = SplitMix64::new(2009);
        for dim in 1..=45usize {
            for rho in rhos(dim, &mut u) {
                let l = dense_factor(dim, rho).unwrap();
                let mut gen = CorrelatedNormals::equicorrelated(dim, rho).unwrap();
                for i in 0..dim {
                    assert_eq!(gen.diag[i].to_bits(), l[i * dim + i].to_bits());
                    for k in 0..i {
                        assert_eq!(
                            gen.below[k].to_bits(),
                            l[i * dim + k].to_bits(),
                            "dim {dim} rho {rho} L[{i}][{k}]"
                        );
                    }
                }

                // `sample` draws the iid vector itself: replay the draw.
                let seed = u.next_u64();
                let mut iid = vec![0.0; dim];
                NormalGen::new().fill(&mut StdRng::seed_from_u64(seed), &mut iid);
                let want = naive_lower_mul(&l, &iid);
                let mut got = vec![0.0; dim];
                gen.sample(&mut StdRng::seed_from_u64(seed), &mut got);
                let mut in_place = iid.clone();
                gen.correlate_in_place(&mut in_place);
                for i in 0..dim {
                    assert_eq!(
                        got[i].to_bits(),
                        want[i].to_bits(),
                        "sample dim {dim} rho {rho} row {i}"
                    );
                    assert_eq!(
                        in_place[i].to_bits(),
                        want[i].to_bits(),
                        "correlate_in_place dim {dim} rho {rho} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn structured_factor_fails_exactly_where_the_dense_factor_does() {
        // The last doubles inside both edges of the positive-definite range
        // are where rounding decides; the two factors must decide alike.
        for dim in 2..=45usize {
            let lo = -1.0 / (dim as f64 - 1.0);
            let above_lo = (1..=64u64).map(|k| f64::from_bits(lo.to_bits() - k));
            let below_one = (1..=64u64).map(|k| f64::from_bits(1.0f64.to_bits() - k));
            for rho in above_lo.chain(below_one).chain([lo, 1.0, -1.0, 1.5]) {
                assert_eq!(
                    CorrelatedNormals::equicorrelated(dim, rho).is_some(),
                    dense_factor(dim, rho).is_some(),
                    "dim {dim} rho {rho:e}"
                );
            }
        }
    }

    #[test]
    fn equicorrelated_rejects_invalid_rho() {
        // rho must exceed -1/(d-1) for positive definiteness.
        assert!(CorrelatedNormals::equicorrelated(5, -0.5).is_none());
        assert!(CorrelatedNormals::equicorrelated(5, 0.99).is_some());
    }

    #[test]
    fn splitmix_reproducible_and_in_range() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn splitmix_uniform_mean() {
        let mut g = SplitMix64::new(5);
        let mut s = RunningStats::new();
        for _ in 0..100_000 {
            s.push(g.uniform(2.0, 4.0));
        }
        assert!((s.mean() - 3.0).abs() < 0.01);
    }
}
