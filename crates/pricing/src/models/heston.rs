//! The Heston stochastic-volatility model.
//!
//! §3.3's example prices an American option in the 1-D Heston model with
//! an Alfonsi-discretised Longstaff–Schwartz method
//! (`MC_AM_Alfonsi_LongstaffSchwartz`). The dynamics are
//!
//! ```text
//! dS = S (r − q) dt + S √v dW₁
//! dv = κ(θ − v) dt + ξ √v dW₂,   d⟨W₁,W₂⟩ = ρ dt
//! ```
//!
//! The variance is discretised with the *full-truncation* Euler scheme
//! (Lord–Koekkoek–van Dijk), which is unconditionally positive-preserving
//! in the variance argument of the square root and is the standard robust
//! substitute for Alfonsi's implicit CIR scheme (the substitution is
//! recorded in DESIGN.md); the asset uses log-Euler with the truncated
//! variance.

/// Heston model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heston {
    /// Spot price of the underlying.
    pub spot: f64,
    /// Initial variance v₀ (not volatility).
    pub v0: f64,
    /// Mean-reversion speed κ.
    pub kappa: f64,
    /// Long-run variance θ.
    pub theta: f64,
    /// Vol-of-vol ξ.
    pub xi: f64,
    /// Spot/variance correlation ρ.
    pub rho: f64,
    /// Risk-free rate (continuously compounded).
    pub rate: f64,
    /// Continuous dividend yield.
    pub dividend: f64,
}

impl Heston {
    #[allow(clippy::too_many_arguments)]
    /// Construct with validation; panics on invalid parameters.
    pub(crate) fn new(
        spot: f64,
        v0: f64,
        kappa: f64,
        theta: f64,
        xi: f64,
        rho: f64,
        rate: f64,
        dividend: f64,
    ) -> Self {
        let m = Heston {
            spot,
            v0,
            kappa,
            theta,
            xi,
            rho,
            rate,
            dividend,
        };
        m.validate().expect("invalid Heston parameters");
        m
    }

    /// A conventional equity calibration (satisfies the Feller condition).
    pub fn standard(spot: f64, rate: f64) -> Self {
        Self::new(spot, 0.04, 2.0, 0.04, 0.3, -0.7, rate, 0.0)
    }

    /// Parameter sanity checks; `Err` describes the first violation.
    fn validate(&self) -> Result<(), String> {
        if !(self.spot > 0.0) {
            return Err("spot must be positive".into());
        }
        if !(self.v0 >= 0.0 && self.theta > 0.0 && self.kappa > 0.0 && self.xi > 0.0) {
            return Err("v0 >= 0, theta, kappa, xi must be positive".into());
        }
        if !(self.rho > -1.0 && self.rho < 1.0) {
            return Err("rho must be in (-1, 1)".into());
        }
        if !self.rate.is_finite() || !self.dividend.is_finite() {
            return Err("rate/dividend must be finite".into());
        }
        Ok(())
    }

    /// One full-truncation Euler step of the pair `(s, v)` over `dt` with
    /// correlated standard normals `z1` (spot) and `z2` (variance):
    /// `dW₂ = ρ dW₁ + √(1-ρ²) dW⊥`.
    pub(crate) fn step(&self, s: f64, v: f64, dt: f64, z1: f64, z2: f64) -> (f64, f64) {
        let vp = v.max(0.0);
        let sqdt = dt.sqrt();
        let zv = self.rho * z1 + (1.0 - self.rho * self.rho).sqrt() * z2;
        let v_next = v + self.kappa * (self.theta - vp) * dt + self.xi * vp.sqrt() * sqdt * zv;
        let s_next =
            s * ((self.rate - self.dividend - 0.5 * vp) * dt + vp.sqrt() * sqdt * z1).exp();
        (s_next, v_next)
    }

    /// Discount factor `e^{-rT}`.
    pub(crate) fn discount(&self, t: f64) -> f64 {
        (-self.rate * t).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::rng::NormalGen;
    use numerics::stats::RunningStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Heston {
        /// Does the calibration satisfy the Feller condition `2κθ ≥ ξ²`
        /// (variance a.s. strictly positive)?
        fn feller(&self) -> bool {
            2.0 * self.kappa * self.theta >= self.xi * self.xi
        }
    }

    #[test]
    fn standard_calibration_is_feller() {
        let m = Heston::standard(100.0, 0.05);
        assert!(m.feller());
        assert!(m.validate().is_ok());
    }

    #[test]
    fn spot_stays_positive_even_with_negative_variance_excursions() {
        let m = Heston::new(100.0, 0.04, 1.0, 0.04, 1.0, -0.5, 0.05, 0.0); // violates Feller
        assert!(!m.feller());
        let mut s = 100.0;
        let mut v = 0.04;
        let mut rng = StdRng::seed_from_u64(9);
        let mut gen = NormalGen::new();
        for _ in 0..1000 {
            let (s2, v2) = m.step(s, v, 0.01, gen.sample(&mut rng), gen.sample(&mut rng));
            assert!(s2 > 0.0);
            assert!(s2.is_finite() && v2.is_finite());
            s = s2;
            v = v2;
        }
    }

    #[test]
    fn variance_mean_reverts_to_theta() {
        let m = Heston::standard(100.0, 0.05);
        let mut rng = StdRng::seed_from_u64(4);
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        // Long-horizon variance average should be near θ.
        for _ in 0..200 {
            let mut s = m.spot;
            let mut v = 0.16; // start far above θ=0.04
            for _ in 0..500 {
                let (s2, v2) = m.step(s, v, 0.02, gen.sample(&mut rng), gen.sample(&mut rng));
                s = s2;
                v = v2;
            }
            stats.push(v.max(0.0));
        }
        assert!(
            (stats.mean() - m.theta).abs() < 0.02,
            "terminal variance mean {}",
            stats.mean()
        );
    }

    #[test]
    fn martingale_property_of_discounted_spot() {
        // E[e^{-rT} S_T] should equal S₀ e^{-qT}.
        let m = Heston::standard(100.0, 0.05);
        let mut rng = StdRng::seed_from_u64(11);
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        let steps = 50;
        let dt = 1.0 / steps as f64;
        for _ in 0..20_000 {
            let mut s = m.spot;
            let mut v = m.v0;
            for _ in 0..steps {
                let (s2, v2) = m.step(s, v, dt, gen.sample(&mut rng), gen.sample(&mut rng));
                s = s2;
                v = v2;
            }
            stats.push(s * m.discount(1.0));
        }
        let err = (stats.mean() - 100.0).abs();
        assert!(
            err < 4.0 * stats.std_error().max(0.05),
            "discounted mean {} ± {}",
            stats.mean(),
            stats.std_error()
        );
    }

    #[test]
    fn validate_rejects_bad_rho() {
        assert!(Heston {
            rho: 1.0,
            ..Heston::standard(100.0, 0.05)
        }
        .validate()
        .is_err());
    }
}
