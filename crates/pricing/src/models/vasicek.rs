//! The Vasicek short-rate model — the interest-rate wing of the library.
//!
//! §2 notes that "various interest rate and credit risk models and
//! derivatives have been added" to Premia; Vasicek is the canonical
//! affine short-rate model and carries closed forms for zero-coupon bonds
//! and bond options (Jamshidian), which makes it the right substrate for
//! cross-validated rate products in the benchmark:
//!
//! ```text
//! dr = κ(θ − r) dt + σ dW
//! ```

/// Vasicek model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vasicek {
    /// Initial short rate r₀.
    pub r0: f64,
    /// Mean-reversion speed κ.
    pub kappa: f64,
    /// Long-run mean θ.
    pub theta: f64,
    /// Absolute rate volatility σ.
    pub sigma: f64,
}

impl Vasicek {
    /// Construct with validation; panics on invalid parameters.
    pub fn new(r0: f64, kappa: f64, theta: f64, sigma: f64) -> Self {
        let m = Vasicek {
            r0,
            kappa,
            theta,
            sigma,
        };
        m.validate().expect("invalid Vasicek parameters");
        m
    }

    /// A conventional money-market calibration.
    pub fn standard() -> Self {
        Self::new(0.05, 0.8, 0.05, 0.01)
    }

    /// Parameter sanity checks; `Err` describes the first violation.
    fn validate(&self) -> Result<(), String> {
        if !(self.kappa > 0.0 && self.sigma > 0.0) {
            return Err("kappa and sigma must be positive".into());
        }
        if !self.r0.is_finite() || !self.theta.is_finite() {
            return Err("r0/theta must be finite".into());
        }
        Ok(())
    }

    /// The affine factor `B(τ) = (1 − e^{-κτ})/κ`.
    pub(crate) fn b_factor(&self, tau: f64) -> f64 {
        (1.0 - (-self.kappa * tau).exp()) / self.kappa
    }

    /// Zero-coupon bond price `P(0, T) = A(T) e^{-B(T) r₀}`.
    pub fn zcb_price(&self, maturity: f64) -> f64 {
        assert!(maturity >= 0.0);
        let b = self.b_factor(maturity);
        let sig2 = self.sigma * self.sigma;
        let ln_a = (self.theta - sig2 / (2.0 * self.kappa * self.kappa)) * (b - maturity)
            - sig2 * b * b / (4.0 * self.kappa);
        (ln_a - b * self.r0).exp()
    }

    /// One exact Ornstein–Uhlenbeck transition step:
    /// `r' = θ + (r − θ)e^{-κΔ} + σ√((1 − e^{-2κΔ})/(2κ)) z`.
    pub(crate) fn step(&self, r: f64, dt: f64, z: f64) -> f64 {
        let e = (-self.kappa * dt).exp();
        let var = self.sigma * self.sigma * (1.0 - e * e) / (2.0 * self.kappa);
        self.theta + (r - self.theta) * e + var.sqrt() * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::rng::NormalGen;
    use numerics::stats::RunningStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zcb_decreasing_in_maturity_for_flat_curve() {
        let m = Vasicek::standard();
        let mut prev = 1.0;
        for t in [0.5, 1.0, 2.0, 5.0, 10.0, 30.0] {
            let p = m.zcb_price(t);
            assert!(p > 0.0 && p < prev, "T={t}: {p}");
            prev = p;
        }
        assert!((m.zcb_price(0.0) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn exact_step_matches_ou_moments() {
        let m = Vasicek::new(0.08, 2.0, 0.04, 0.015);
        let mut rng = StdRng::seed_from_u64(7);
        let mut gen = NormalGen::new();
        let t = 1.5;
        let mut stats = RunningStats::new();
        for _ in 0..100_000 {
            stats.push(m.step(m.r0, t, gen.sample(&mut rng)));
        }
        let e = (-m.kappa * t).exp();
        let mean = m.theta + (m.r0 - m.theta) * e;
        let var = m.sigma * m.sigma * (1.0 - e * e) / (2.0 * m.kappa);
        assert!((stats.mean() - mean).abs() < 4.0 * stats.std_error());
        assert!((stats.variance() - var).abs() / var < 0.03);
    }

    #[test]
    fn step_composition_consistency() {
        // Two exact steps of dt/2 with independent noise must have the
        // same distribution as one step of dt; check the deterministic
        // part (z = 0).
        let m = Vasicek::standard();
        let one = m.step(0.03, 1.0, 0.0);
        let half = m.step(m.step(0.03, 0.5, 0.0), 0.5, 0.0);
        assert!((one - half).abs() < 1e-14);
    }

    #[test]
    fn mc_bond_price_matches_closed_form() {
        // E[exp(-∫₀ᵀ r dt)] via exact OU path + trapezoid integral.
        let m = Vasicek::standard();
        let t = 2.0;
        let steps = 100;
        let dt = t / steps as f64;
        let mut rng = StdRng::seed_from_u64(11);
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        for _ in 0..50_000 {
            let mut r = m.r0;
            let mut integral = 0.0;
            for _ in 0..steps {
                let r2 = m.step(r, dt, gen.sample(&mut rng));
                integral += 0.5 * (r + r2) * dt;
                r = r2;
            }
            stats.push((-integral).exp());
        }
        let exact = m.zcb_price(t);
        assert!(
            (stats.mean() - exact).abs() < 4.0 * stats.std_error() + 5e-5,
            "mc {} ± {} exact {exact}",
            stats.mean(),
            stats.std_error()
        );
    }

    #[test]
    fn validate_rejects_bad_params() {
        assert!(Vasicek {
            r0: 0.05,
            kappa: 0.0,
            theta: 0.05,
            sigma: 0.01
        }
        .validate()
        .is_err());
        assert!(Vasicek {
            r0: f64::NAN,
            kappa: 1.0,
            theta: 0.05,
            sigma: 0.01
        }
        .validate()
        .is_err());
    }
}
