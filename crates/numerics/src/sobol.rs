//! Low-discrepancy sequences for quasi-Monte-Carlo pricing.
//!
//! Two generators are provided:
//!
//! * [`Halton`] — the radical-inverse Halton sequence in arbitrary
//!   dimension (prime bases), adequate for the moderate dimensions used in
//!   the local-volatility pricer;
//! * [`Sobol`] — a Gray-code Sobol' generator with Joe–Kuo style direction
//!   numbers for the first 16 dimensions, used by the ablation benchmarks
//!   comparing pseudo- vs quasi-Monte-Carlo.
//!
//! Both return points in the open unit cube (0 is skipped / shifted) so the
//! points can be pushed through the inverse normal CDF safely.

/// First 64 primes, bases of the Halton sequence.
const PRIMES: [u32; 64] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311,
];

/// Radical inverse of `n` in base `b`.
fn radical_inverse(mut n: u64, b: u64) -> f64 {
    let inv = 1.0 / b as f64;
    let mut result = 0.0;
    let mut f = inv;
    while n > 0 {
        result += (n % b) as f64 * f;
        n /= b;
        f *= inv;
    }
    result
}

/// The Halton low-discrepancy sequence in `dim` dimensions (dim ≤ 64).
#[derive(Debug, Clone)]
pub struct Halton {
    dim: usize,
    index: u64,
}

impl Halton {
    /// Construct with validation; panics on invalid parameters.
    pub fn new(dim: usize) -> Self {
        assert!(
            dim >= 1 && dim <= PRIMES.len(),
            "Halton supports 1..=64 dims"
        );
        // Start at index 1 so no coordinate is exactly 0.
        Halton { dim, index: 1 }
    }

    /// Write the next point into `out`.
    pub fn next_point(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim);
        for (d, x) in out.iter_mut().enumerate() {
            *x = radical_inverse(self.index, PRIMES[d] as u64);
        }
        self.index += 1;
    }
}

/// Primitive-polynomial data for Sobol dimensions 2..=16
/// (dimension 1 is the van der Corput sequence).
/// Format: (degree, coefficient bits a, initial direction numbers m).
const SOBOL_DATA: [(u32, u32, [u32; 8]); 15] = [
    (1, 0, [1, 0, 0, 0, 0, 0, 0, 0]),
    (2, 1, [1, 3, 0, 0, 0, 0, 0, 0]),
    (3, 1, [1, 3, 1, 0, 0, 0, 0, 0]),
    (3, 2, [1, 1, 1, 0, 0, 0, 0, 0]),
    (4, 1, [1, 1, 3, 3, 0, 0, 0, 0]),
    (4, 4, [1, 3, 5, 13, 0, 0, 0, 0]),
    (5, 2, [1, 1, 5, 5, 17, 0, 0, 0]),
    (5, 4, [1, 1, 5, 5, 5, 0, 0, 0]),
    (5, 7, [1, 1, 7, 11, 19, 0, 0, 0]),
    (5, 11, [1, 1, 5, 1, 1, 0, 0, 0]),
    (5, 13, [1, 1, 1, 3, 11, 0, 0, 0]),
    (5, 14, [1, 3, 5, 5, 31, 0, 0, 0]),
    (6, 1, [1, 3, 3, 9, 7, 49, 0, 0]),
    (6, 13, [1, 1, 1, 15, 21, 21, 0, 0]),
    (6, 16, [1, 3, 1, 13, 27, 49, 0, 0]),
];

const SOBOL_BITS: u32 = 52;

/// Gray-code Sobol' sequence generator, up to 16 dimensions.
#[derive(Debug, Clone)]
pub struct Sobol {
    dim: usize,
    /// Direction numbers `v[d][j]` scaled to 52-bit integers.
    directions: Vec<[u64; SOBOL_BITS as usize]>,
    state: Vec<u64>,
    index: u64,
}

impl Sobol {
    /// Largest supported dimension.
    fn max_dim() -> usize {
        SOBOL_DATA.len() + 1
    }

    /// Construct with validation; panics on invalid parameters.
    pub fn new(dim: usize) -> Self {
        assert!(
            dim >= 1 && dim <= Self::max_dim(),
            "Sobol supports 1..=16 dims"
        );
        let mut directions = Vec::with_capacity(dim);
        // Dimension 1: van der Corput, v_j = 2^(bits-j).
        let mut v0 = [0u64; SOBOL_BITS as usize];
        for (j, v) in v0.iter_mut().enumerate() {
            *v = 1u64 << (SOBOL_BITS as usize - 1 - j);
        }
        directions.push(v0);
        for d in 1..dim {
            let (s, a, m) = SOBOL_DATA[d - 1];
            let s = s as usize;
            let mut v = [0u64; SOBOL_BITS as usize];
            for j in 0..SOBOL_BITS as usize {
                if j < s {
                    v[j] = (m[j] as u64) << (SOBOL_BITS as usize - 1 - j);
                } else {
                    let mut val = v[j - s] ^ (v[j - s] >> s);
                    for k in 1..s {
                        if (a >> (s - 1 - k)) & 1 == 1 {
                            val ^= v[j - k];
                        }
                    }
                    v[j] = val;
                }
            }
            directions.push(v);
        }
        Sobol {
            dim,
            directions,
            state: vec![0; dim],
            index: 0,
        }
    }

    /// Write the next point into `out`; coordinates lie in (0,1).
    pub fn next_point(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim);
        // Gray-code update: flip the direction number of the lowest zero
        // bit of the running index.
        let c = (!self.index).trailing_zeros().min(SOBOL_BITS - 1) as usize;
        for d in 0..self.dim {
            self.state[d] ^= self.directions[d][c];
        }
        self.index += 1;
        let scale = 1.0 / (1u64 << SOBOL_BITS) as f64;
        for d in 0..self.dim {
            // Shift by half an ulp so no coordinate is exactly 0.
            out[d] = (self.state[d] as f64 + 0.5) * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halton_first_points_base2_base3() {
        let mut h = Halton::new(2);
        let mut p = [0.0; 2];
        h.next_point(&mut p);
        assert!((p[0] - 0.5).abs() < 1e-15); // 1 in base 2
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-15); // 1 in base 3
        h.next_point(&mut p);
        assert!((p[0] - 0.25).abs() < 1e-15); // 2 in base 2
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-15);
        h.next_point(&mut p);
        assert!((p[0] - 0.75).abs() < 1e-15); // 3 in base 2
        assert!((p[1] - 1.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn halton_in_unit_cube() {
        let mut h = Halton::new(10);
        let mut p = vec![0.0; 10];
        for _ in 0..1000 {
            h.next_point(&mut p);
            for &x in &p {
                assert!(x > 0.0 && x < 1.0);
            }
        }
    }

    #[test]
    fn sobol_dimension_one_is_van_der_corput() {
        let mut s = Sobol::new(1);
        let mut p = [0.0];
        let mut seen = Vec::new();
        for _ in 0..8 {
            s.next_point(&mut p);
            seen.push(p[0]);
        }
        // First Sobol points in dim 1: 1/2, 3/4, 1/4, 3/8, 7/8, 5/8, 1/8, 3/16
        let expect = [0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125, 0.1875];
        for (a, b) in seen.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn sobol_points_distinct_and_in_cube() {
        let mut s = Sobol::new(16);
        let mut p = vec![0.0; 16];
        let mut prev = vec![-1.0; 16];
        for _ in 0..4096 {
            s.next_point(&mut p);
            assert_ne!(p, prev);
            for &x in &p {
                assert!(x > 0.0 && x < 1.0);
            }
            prev.copy_from_slice(&p);
        }
    }

    #[test]
    fn sobol_integrates_better_than_grid_average() {
        // Integrate f(x,y)=x*y over the unit square (exact 0.25) — Sobol
        // with 1024 points should be well within 1e-3.
        let mut s = Sobol::new(2);
        let mut p = [0.0; 2];
        let n = 1024;
        let mut acc = 0.0;
        for _ in 0..n {
            s.next_point(&mut p);
            acc += p[0] * p[1];
        }
        let est = acc / n as f64;
        assert!((est - 0.25).abs() < 1e-3, "est {est}");
    }

    #[test]
    fn halton_integration_converges() {
        let mut h = Halton::new(3);
        let mut p = [0.0; 3];
        let n = 4096;
        let mut acc = 0.0;
        for _ in 0..n {
            h.next_point(&mut p);
            acc += p.iter().sum::<f64>();
        }
        assert!((acc / n as f64 - 1.5).abs() < 5e-3);
    }

    #[test]
    #[should_panic]
    fn sobol_rejects_too_many_dims() {
        Sobol::new(17);
    }
}
