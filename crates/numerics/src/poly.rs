//! Polynomial bases for the Longstaff–Schwartz regression.
//!
//! Premia's American Monte-Carlo methods regress continuation values on a
//! small polynomial basis of the (possibly multi-dimensional) asset state.
//! We provide plain monomials and weighted Laguerre polynomials (the basis
//! used in the original Longstaff–Schwartz paper), plus a multi-dimensional
//! basis built from total-degree monomials of the basket average — the
//! standard dimension-reduction trick for high-dimensional American puts.

/// Which 1-D polynomial family to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisKind {
    /// 1, x, x², …
    Monomial,
    /// e^{-x/2} L_k(x) — Laguerre, as in Longstaff & Schwartz (2001).
    Laguerre,
}

/// Evaluate the first `count` basis functions at `x` into `out`.
fn eval_basis(kind: BasisKind, x: f64, out: &mut [f64]) {
    let count = out.len();
    if count == 0 {
        return;
    }
    match kind {
        BasisKind::Monomial => {
            out[0] = 1.0;
            for k in 1..count {
                out[k] = out[k - 1] * x;
            }
        }
        BasisKind::Laguerre => {
            // Recurrence L_{k+1}(x) = ((2k+1-x) L_k - k L_{k-1})/(k+1),
            // damped by exp(-x/2).
            let w = (-x / 2.0).exp();
            out[0] = w;
            if count > 1 {
                out[1] = w * (1.0 - x);
            }
            for k in 1..count.saturating_sub(1) {
                let kf = k as f64;
                let lk = out[k] / w;
                let lkm1 = out[k - 1] / w;
                out[k + 1] = w * (((2.0 * kf + 1.0 - x) * lk - kf * lkm1) / (kf + 1.0));
            }
        }
    }
}

/// A regression basis over a (possibly multi-dimensional) state vector.
///
/// For dimension 1 the state is the asset price itself; for dimension > 1
/// the basis is built from the arithmetic basket average — payoffs of the
/// paper's basket puts depend on the average, so this is the natural
/// projected state.
#[derive(Debug, Clone)]
pub struct RegressionBasis {
    /// Polynomial family.
    kind: BasisKind,
    /// Highest polynomial degree.
    degree: usize,
}

impl RegressionBasis {
    /// Construct with validation; panics on invalid parameters.
    pub fn new(kind: BasisKind, degree: usize) -> Self {
        assert!(degree >= 1, "regression basis needs at least degree 1");
        RegressionBasis { kind, degree }
    }

    /// Number of basis functions (degree + constant term).
    pub fn len(&self) -> usize {
        self.degree + 1
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluate at a state vector: the scalar feature is the mean of the
    /// coordinates (identity in 1-D), normalised by `scale` (typically the
    /// spot) to keep the basis well conditioned.
    pub fn eval(&self, state: &[f64], scale: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.len());
        let mean = state.iter().sum::<f64>() / state.len() as f64;
        eval_basis(self.kind, mean / scale, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomials_are_powers() {
        let mut out = [0.0; 5];
        eval_basis(BasisKind::Monomial, 2.0, &mut out);
        assert_eq!(out, [1.0, 2.0, 4.0, 8.0, 16.0]);
    }

    #[test]
    fn laguerre_first_three_match_formulas() {
        // L0=1, L1=1-x, L2=1-2x+x²/2, all damped by e^{-x/2}.
        let x = 0.7;
        let w = (-x / 2.0_f64).exp();
        let mut out = [0.0; 3];
        eval_basis(BasisKind::Laguerre, x, &mut out);
        assert!((out[0] - w).abs() < 1e-14);
        assert!((out[1] - w * (1.0 - x)).abs() < 1e-14);
        assert!((out[2] - w * (1.0 - 2.0 * x + x * x / 2.0)).abs() < 1e-13);
    }

    #[test]
    fn laguerre_recurrence_consistent_at_zero() {
        // L_k(0) = 1 for all k.
        let mut out = [0.0; 6];
        eval_basis(BasisKind::Laguerre, 0.0, &mut out);
        for &v in &out {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn regression_basis_uses_mean_state() {
        let basis = RegressionBasis::new(BasisKind::Monomial, 2);
        let mut out = [0.0; 3];
        basis.eval(&[2.0, 4.0], 1.0, &mut out); // mean = 3
        assert_eq!(out, [1.0, 3.0, 9.0]);
    }

    #[test]
    fn regression_basis_scaling() {
        let basis = RegressionBasis::new(BasisKind::Monomial, 1);
        let mut out = [0.0; 2];
        basis.eval(&[100.0], 100.0, &mut out);
        assert_eq!(out, [1.0, 1.0]);
    }

    #[test]
    fn empty_output_is_noop() {
        let mut out: [f64; 0] = [];
        eval_basis(BasisKind::Monomial, 1.0, &mut out);
    }
}
