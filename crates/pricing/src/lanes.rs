//! Hand-rolled SIMD lane structs for batched path generation.
//!
//! The lane kernels advance `N` Monte-Carlo paths per loop iteration
//! through [`F64s`] — a plain `[f64; N]` newtype with lane-wise
//! operator impls and `mul_add`/`exp` helpers. No nightly `std::simd` and no
//! external crates (the shim allowlist is closed): the arrays are laid
//! out so LLVM's autovectorizer turns the element-wise loops into
//! packed SSE/AVX arithmetic, and the transcendental calls
//! (`exp`, `tanh`) stay per-lane `f64` calls so every lane is
//! bit-identical to the same scalar operation sequence on that lane's
//! values.
//!
//! Determinism: lane structs hold *values*, not randomness. The draw
//! order of the normals feeding them is fixed by the kernels
//! (`(group, step, lane)` within a chunk — see `docs/SIMD.md`), which
//! is why the lane width is part of the result contract exactly like
//! the chunk size.

/// `N` lanes of `f64`, one Monte-Carlo path per lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct F64s<const N: usize>(pub [f64; N]);

impl<const N: usize> F64s<N> {
    /// All lanes set to `v`.
    pub(crate) const fn splat(v: f64) -> Self {
        F64s([v; N])
    }

    /// Build lanes from a function of the lane index, called in lane
    /// order — this is the one constructor the kernels feed RNG draws
    /// through, so the draw order is the lane order by construction.
    pub(crate) fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        F64s(std::array::from_fn(f))
    }

    /// Lane-wise fused `self * a + b` (`f64::mul_add` per lane).
    pub(crate) fn mul_add(mut self, a: Self, b: Self) -> Self {
        for i in 0..N {
            self.0[i] = self.0[i].mul_add(a.0[i], b.0[i]);
        }
        self
    }

    /// Lane-wise `e^x`.
    pub(crate) fn exp(self) -> Self {
        self.map(f64::exp)
    }

    /// Lane-wise square root.
    pub(crate) fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }

    /// Lane-wise maximum with `o`.
    pub(crate) fn max(mut self, o: Self) -> Self {
        for i in 0..N {
            self.0[i] = self.0[i].max(o.0[i]);
        }
        self
    }

    /// Apply `f` to every lane (for the rare per-lane transcendental —
    /// `tanh` in the local-vol surface — that has no helper of its own).
    pub(crate) fn map(mut self, mut f: impl FnMut(f64) -> f64) -> Self {
        for x in self.0.iter_mut() {
            *x = f(*x);
        }
        self
    }
}

impl<const N: usize> std::ops::Add for F64s<N> {
    type Output = Self;
    /// Lane-wise `self + o`.
    fn add(mut self, o: Self) -> Self {
        for i in 0..N {
            self.0[i] += o.0[i];
        }
        self
    }
}

impl<const N: usize> std::ops::Sub for F64s<N> {
    type Output = Self;
    /// Lane-wise `self - o`.
    fn sub(mut self, o: Self) -> Self {
        for i in 0..N {
            self.0[i] -= o.0[i];
        }
        self
    }
}

impl<const N: usize> std::ops::Mul for F64s<N> {
    type Output = Self;
    /// Lane-wise `self * o`.
    fn mul(mut self, o: Self) -> Self {
        for i in 0..N {
            self.0[i] *= o.0[i];
        }
        self
    }
}

impl<const N: usize> std::ops::Neg for F64s<N> {
    type Output = Self;
    /// Lane-wise negation.
    fn neg(mut self) -> Self {
        for i in 0..N {
            self.0[i] = -self.0[i];
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_match_scalar_ops_bitwise() {
        let a = F64s::<4>::from_fn(|i| 1.5 + i as f64);
        let b = F64s::<4>::splat(0.25);
        for i in 0..4 {
            let x = 1.5 + i as f64;
            assert_eq!((a + b).0[i].to_bits(), (x + 0.25).to_bits());
            assert_eq!((a - b).0[i].to_bits(), (x - 0.25).to_bits());
            assert_eq!((a * b).0[i].to_bits(), (x * 0.25).to_bits());
            assert_eq!(a.mul_add(b, a).0[i].to_bits(), x.mul_add(0.25, x).to_bits());
            assert_eq!(a.exp().0[i].to_bits(), x.exp().to_bits());
            assert_eq!(a.sqrt().0[i].to_bits(), x.sqrt().to_bits());
            assert_eq!((-a).0[i].to_bits(), (-x).to_bits());
            assert_eq!(a.map(f64::tanh).0[i].to_bits(), x.tanh().to_bits());
        }
        let lo = F64s::<8>::splat(-1.0);
        assert_eq!(lo.max(F64s::splat(0.0)), F64s::splat(0.0));
    }

    #[test]
    fn from_fn_is_called_in_lane_order() {
        let mut order = Vec::new();
        let v = F64s::<8>::from_fn(|i| {
            order.push(i);
            i as f64
        });
        assert_eq!(order, (0..8).collect::<Vec<_>>());
        assert_eq!(v.0[7], 7.0);
    }
}
