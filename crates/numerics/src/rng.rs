//! Random-variate generation for Monte-Carlo pricing.
//!
//! Wraps any [`rand::RngCore`] source with the transforms the pricers need:
//! standard normal draws (Marsaglia polar method with a cached spare),
//! correlated Gaussian vectors through a Cholesky factor, and an antithetic
//! stream adapter used for variance reduction.

use crate::linalg::cholesky;
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
/// Cholesky factor of a correlation matrix and `Z` is a vector of
/// independent standard normals. This drives multi-asset (basket) paths.
#[derive(Debug, Clone)]
pub struct CorrelatedNormals {
    chol: Vec<f64>,
    dim: usize,
    normal: NormalGen,
    scratch: Vec<f64>,
}

impl CorrelatedNormals {
    /// Build from a full correlation matrix (row-major `dim*dim`).
    /// Returns `None` if the matrix is not positive definite.
    pub fn new(corr: &[f64], dim: usize) -> Option<Self> {
        let chol = cholesky(corr, dim)?;
        Some(CorrelatedNormals {
            chol,
            dim,
            normal: NormalGen::new(),
            scratch: vec![0.0; dim],
        })
    }

    /// Build for the equicorrelated case (all off-diagonal entries `rho`),
    /// the structure used by the paper's basket options.
    pub fn equicorrelated(dim: usize, rho: f64) -> Option<Self> {
        let mut corr = vec![rho; dim * dim];
        for i in 0..dim {
            corr[i * dim + i] = 1.0;
        }
        Self::new(&corr, dim)
    }

    /// Dimension of generated points/vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Draw one correlated Gaussian vector into `out`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim);
        self.normal.fill(rng, &mut self.scratch);
        let blocked = self.dim - self.dim % ROW_BLOCK;
        for i in (0..blocked).step_by(ROW_BLOCK) {
            out[i..i + ROW_BLOCK].copy_from_slice(&self.row_block(i, &self.scratch));
        }
        for i in blocked..self.dim {
            out[i] = self.row(i, &self.scratch);
        }
    }

    /// Transform an already-drawn iid Gaussian vector in place
    /// (`z <- L z`), used by the antithetic path generator which needs to
    /// reuse the same `z` with flipped signs.
    pub fn correlate_in_place(&self, z: &mut [f64]) {
        assert_eq!(z.len(), self.dim);
        // Work backwards so each entry only reads not-yet-overwritten ones.
        let blocked = self.dim - self.dim % ROW_BLOCK;
        for i in (blocked..self.dim).rev() {
            z[i] = self.row(i, z);
        }
        for i in (0..blocked).step_by(ROW_BLOCK).rev() {
            let block = self.row_block(i, z);
            z[i..i + ROW_BLOCK].copy_from_slice(&block);
        }
    }

    /// Row `i` of `L z`: `Σ_{k ≤ i} L[i][k]·z[k]`, accumulated in
    /// ascending `k`.
    #[inline]
    fn row(&self, i: usize, z: &[f64]) -> f64 {
        let l = &self.chol[i * self.dim..][..=i];
        let mut acc = 0.0;
        for (l, z) in l.iter().zip(z) {
            acc += l * z;
        }
        acc
    }

    /// Rows `i..i + ROW_BLOCK` of `L z` in one pass over `z`. Each row is
    /// the same ascending-`k` sum as [`Self::row`] (so the same bits);
    /// computing [`ROW_BLOCK`] of them side by side keeps that many
    /// independent add chains in flight instead of one.
    #[inline]
    fn row_block(&self, i: usize, z: &[f64]) -> [f64; ROW_BLOCK] {
        let l: [&[f64]; ROW_BLOCK] =
            std::array::from_fn(|r| &self.chol[(i + r) * self.dim..][..=i + r]);
        let z = &z[..i + ROW_BLOCK];
        let mut acc = [0.0; ROW_BLOCK];
        for k in 0..=i {
            for r in 0..ROW_BLOCK {
                acc[r] += l[r][k] * z[k];
            }
        }
        // The triangle below the block's first row.
        for r in 1..ROW_BLOCK {
            for k in i + 1..=i + r {
                acc[r] += l[r][k] * z[k];
            }
        }
        acc
    }
}

/// Rows of the Cholesky product computed per pass (see
/// [`CorrelatedNormals::row_block`]).
const ROW_BLOCK: usize = 4;

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
    pub fn next_f64(&mut self) -> f64 {
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

    #[test]
    fn correlate_in_place_matches_sample_transform() {
        let dim = 4;
        let gen = CorrelatedNormals::equicorrelated(dim, 0.3).unwrap();
        let z0 = [0.3, -1.2, 0.7, 2.1];
        let mut z = z0;
        gen.correlate_in_place(&mut z);
        // Manual L * z0
        for i in 0..dim {
            let mut acc = 0.0;
            for k in 0..=i {
                acc += gen.chol[i * dim + k] * z0[k];
            }
            assert!((z[i] - acc).abs() < 1e-14);
        }
    }

    /// The row-at-a-time product the blocked one replaced, kept as the
    /// oracle: `out[i] = Σ_{k ≤ i} L[i][k]·z[k]`, one add chain.
    fn naive_lower_mul(gen: &CorrelatedNormals, z: &[f64]) -> Vec<f64> {
        (0..gen.dim)
            .map(|i| {
                let mut acc = 0.0;
                for k in 0..=i {
                    acc += gen.chol[i * gen.dim + k] * z[k];
                }
                acc
            })
            .collect()
    }

    #[test]
    fn row_blocked_product_is_bit_identical_to_row_by_row() {
        // dim 1..=45 covers dim % ROW_BLOCK ∈ {0, 1, 2, 3} below, at and
        // above the paper's 40 assets; ρ is random per dimension.
        let mut u = SplitMix64::new(2009);
        for dim in 1..=45usize {
            let rho = u.uniform(-0.9 / dim as f64, 0.95);
            let mut gen = CorrelatedNormals::equicorrelated(dim, rho).unwrap();
            let seed = u.next_u64();

            // `sample` draws the iid vector itself: replay the draw.
            let mut iid = vec![0.0; dim];
            NormalGen::new().fill(&mut StdRng::seed_from_u64(seed), &mut iid);
            let want = naive_lower_mul(&gen, &iid);
            let mut got = vec![0.0; dim];
            gen.sample(&mut StdRng::seed_from_u64(seed), &mut got);
            let mut in_place = iid.clone();
            gen.correlate_in_place(&mut in_place);
            for i in 0..dim {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "sample dim {dim} row {i}"
                );
                assert_eq!(
                    in_place[i].to_bits(),
                    want[i].to_bits(),
                    "correlate_in_place dim {dim} row {i}"
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
