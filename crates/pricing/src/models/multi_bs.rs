//! Multi-asset Black–Scholes: `d` correlated geometric Brownian motions,
//! the model under the paper's 40-dimensional basket puts and
//! 7-dimensional American basket puts (§4.3).
//!
//! All assets share one volatility and pairwise correlation `ρ`
//! (equicorrelated structure), which is how index-basket benchmarks are
//! conventionally parametrised; the code paths support full per-asset
//! parameters where they are cheap to keep general.

use crate::options::positive_finite;
use numerics::rng::CorrelatedNormals;

/// Equicorrelated multi-asset Black–Scholes model.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBlackScholes {
    /// Number of underlying assets (e.g. 40 for a CAC-40 basket).
    pub dim: usize,
    /// Common initial spot (per asset).
    pub spot: f64,
    /// Common volatility.
    pub sigma: f64,
    /// Pairwise correlation between any two assets.
    pub rho: f64,
    /// Risk-free rate.
    pub rate: f64,
    /// Continuous dividend yield.
    pub dividend: f64,
}

impl MultiBlackScholes {
    /// Construct with validation; panics on invalid parameters.
    pub fn new(dim: usize, spot: f64, sigma: f64, rho: f64, rate: f64, dividend: f64) -> Self {
        let m = MultiBlackScholes {
            dim,
            spot,
            sigma,
            rho,
            rate,
            dividend,
        };
        m.validate()
            .expect("invalid multi-asset Black-Scholes parameters");
        m
    }

    /// Parameter sanity checks; `Err` describes the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dimension must be at least 1".into());
        }
        if !(positive_finite(self.spot) && positive_finite(self.sigma)) {
            return Err("spot and sigma must be positive and finite".into());
        }
        // Equicorrelation matrix is positive definite iff
        // -1/(d-1) < rho < 1.
        let lo = if self.dim > 1 {
            -1.0 / (self.dim as f64 - 1.0)
        } else {
            -1.0
        };
        if !(self.rho > lo && self.rho < 1.0) {
            return Err(format!(
                "rho {} outside positive-definite range ({lo}, 1)",
                self.rho
            ));
        }
        // The last doubles inside the range can still round to a factor
        // with a non-positive pivot: accept exactly what `correlator` can
        // build.
        if CorrelatedNormals::equicorrelated(self.dim, self.rho).is_none() {
            return Err(format!(
                "rho {:e} has no Cholesky factor at dimension {} in floating point",
                self.rho, self.dim
            ));
        }
        if !self.rate.is_finite() || !self.dividend.is_finite() {
            return Err("rate/dividend must be finite".into());
        }
        Ok(())
    }

    /// Correlated-normal generator for this model's correlation structure.
    pub(crate) fn correlator(&self) -> CorrelatedNormals {
        CorrelatedNormals::equicorrelated(self.dim, self.rho)
            .expect("validated correlation must be positive definite")
    }

    /// Risk-neutral drift of `ln S`.
    pub(crate) fn log_drift(&self) -> f64 {
        self.rate - self.dividend - 0.5 * self.sigma * self.sigma
    }

    /// Exact terminal samples for every asset given a *correlated*
    /// Gaussian vector `z` (as produced by [`Self::correlator`]).
    pub(crate) fn terminal(&self, t: f64, z: &[f64], out: &mut [f64]) {
        assert_eq!(z.len(), self.dim);
        assert_eq!(out.len(), self.dim);
        let drift = self.log_drift() * t;
        let volt = self.sigma * t.sqrt();
        for i in 0..self.dim {
            out[i] = self.spot * (drift + volt * z[i]).exp();
        }
    }

    /// One exact transition step for all assets.
    pub(crate) fn step(&self, s: &mut [f64], dt: f64, z: &[f64]) {
        assert_eq!(s.len(), self.dim);
        assert_eq!(z.len(), self.dim);
        let drift = self.log_drift() * dt;
        let volt = self.sigma * dt.sqrt();
        for i in 0..self.dim {
            s[i] *= (drift + volt * z[i]).exp();
        }
    }

    /// Discount factor `e^{-rT}`.
    pub(crate) fn discount(&self, t: f64) -> f64 {
        (-self.rate * t).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_one_reduces_to_black_scholes() {
        let multi = MultiBlackScholes::new(1, 100.0, 0.2, 0.0, 0.05, 0.0);
        let single = crate::models::BlackScholes::new(100.0, 0.2, 0.05, 0.0);
        let mut out = [0.0];
        multi.terminal(1.0, &[0.5], &mut out);
        assert!((out[0] - single.terminal(1.0, 0.5)).abs() < 1e-12);
    }

    #[test]
    fn terminal_fills_all_assets() {
        let m = MultiBlackScholes::new(5, 100.0, 0.2, 0.3, 0.05, 0.0);
        let z = [0.0, 1.0, -1.0, 0.5, 2.0];
        let mut out = [0.0; 5];
        m.terminal(0.5, &z, &mut out);
        for &s in &out {
            assert!(s > 0.0);
        }
        assert!(out[1] > out[0] && out[0] > out[2]);
    }

    #[test]
    fn step_accumulates_like_terminal() {
        let m = MultiBlackScholes::new(2, 80.0, 0.25, 0.5, 0.03, 0.01);
        let z = [0.4, -0.2];
        let mut s = [80.0, 80.0];
        let sq = 2f64.sqrt();
        let zh = [z[0] / sq, z[1] / sq];
        m.step(&mut s, 0.5, &zh);
        m.step(&mut s, 0.5, &zh);
        let mut t = [0.0; 2];
        m.terminal(1.0, &z, &mut t);
        for i in 0..2 {
            assert!((s[i] - t[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn validate_rho_bounds() {
        // For dim 40, rho must exceed -1/39.
        assert!(MultiBlackScholes {
            dim: 40,
            spot: 100.0,
            sigma: 0.2,
            rho: -0.05,
            rate: 0.05,
            dividend: 0.0
        }
        .validate()
        .is_err());
        assert!(MultiBlackScholes {
            dim: 40,
            spot: 100.0,
            sigma: 0.2,
            rho: 0.3,
            rate: 0.05,
            dividend: 0.0
        }
        .validate()
        .is_ok());
    }

    /// The doubles just inside both edges of `(−1/(d−1), 1)`, where
    /// rounding decides whether the factor exists.
    fn edge_rhos(dim: usize) -> impl Iterator<Item = f64> {
        let lo = -1.0 / (dim as f64 - 1.0);
        let above_lo = (1..=64u64).map(move |k| f64::from_bits(lo.to_bits() - k));
        let below_one = (1..=64u64).map(|k| f64::from_bits(1.0f64.to_bits() - k));
        above_lo.chain(below_one)
    }

    #[test]
    fn validate_accepts_exactly_what_correlator_builds() {
        let mut rejected_inside_range = 0;
        for dim in 2..=45usize {
            for rho in edge_rhos(dim) {
                let m = MultiBlackScholes {
                    dim,
                    spot: 100.0,
                    sigma: 0.2,
                    rho,
                    rate: 0.05,
                    dividend: 0.0,
                };
                let builds = CorrelatedNormals::equicorrelated(dim, rho).is_some();
                assert_eq!(m.validate().is_ok(), builds, "dim {dim} rho {rho:e}");
                if builds {
                    assert_eq!(m.correlator().dim(), dim);
                } else {
                    rejected_inside_range += 1;
                }
            }
        }
        // The range check alone let some of these through to a panic.
        assert!(rejected_inside_range > 0);
    }

    #[test]
    fn unfactorable_rho_is_a_typed_pricing_error() {
        use crate::problem::{ModelSpec, PremiaProblem, PricingError};
        let (dim, rho) = (2..=45usize)
            .flat_map(|d| edge_rhos(d).map(move |r| (d, r)))
            .find(|&(d, r)| CorrelatedNormals::equicorrelated(d, r).is_none())
            .expect("an in-range rho without a factor");
        for (option, method) in [
            ("PutBasket", "MC_Standard"),
            ("PutBasket", "MC_Quasi"),
            ("PutBasketAmer", "MC_AM_LongstaffSchwartz"),
            ("CallMaxBermuda", "MC_AM_LongstaffSchwartz"),
        ] {
            let mut p = PremiaProblem::create("BlackScholesNdim", option, method).unwrap();
            let ModelSpec::MultiBlackScholes(m) = &mut p.model else {
                unreachable!("a BlackScholesNdim problem")
            };
            m.dim = dim;
            m.rho = rho;
            assert!(
                matches!(p.compute(), Err(PricingError::Invalid(_))),
                "{option} / {method}"
            );
        }
    }

    #[test]
    fn correlator_has_model_dimension() {
        let m = MultiBlackScholes::new(7, 100.0, 0.2, 0.4, 0.05, 0.0);
        assert_eq!(m.correlator().dim(), 7);
    }
}
