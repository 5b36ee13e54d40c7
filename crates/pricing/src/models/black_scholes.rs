//! The Black–Scholes model: geometric Brownian motion under the
//! risk-neutral measure,
//! `dS = S ((r - q) dt + σ dW)`.

use crate::options::positive_finite;

/// Black–Scholes model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlackScholes {
    /// Spot price `S₀`.
    pub spot: f64,
    /// Volatility `σ` (annualised).
    pub sigma: f64,
    /// Risk-free rate `r` (continuously compounded).
    pub rate: f64,
    /// Continuous dividend yield `q`.
    pub dividend: f64,
}

impl BlackScholes {
    /// Construct with validation; panics on invalid parameters.
    pub fn new(spot: f64, sigma: f64, rate: f64, dividend: f64) -> Self {
        let m = BlackScholes {
            spot,
            sigma,
            rate,
            dividend,
        };
        m.validate().expect("invalid Black-Scholes parameters");
        m
    }

    /// Parameter sanity: positive, finite spot and volatility, finite
    /// rates.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !positive_finite(self.spot) {
            return Err(format!(
                "spot must be positive and finite, got {}",
                self.spot
            ));
        }
        if !positive_finite(self.sigma) {
            return Err(format!(
                "sigma must be positive and finite, got {}",
                self.sigma
            ));
        }
        if !self.rate.is_finite() || !self.dividend.is_finite() {
            return Err("rate/dividend must be finite".into());
        }
        Ok(())
    }

    /// Risk-neutral drift of `ln S`.
    pub(crate) fn log_drift(&self) -> f64 {
        self.rate - self.dividend - 0.5 * self.sigma * self.sigma
    }

    /// Exact terminal sample: `S_T = S₀ exp(log_drift·T + σ√T z)` with
    /// `z ~ N(0,1)`. GBM has an exact transition density, so European
    /// payoffs need a single step.
    pub(crate) fn terminal(&self, t: f64, z: f64) -> f64 {
        self.spot * (self.log_drift() * t + self.sigma * t.sqrt() * z).exp()
    }

    /// One exact transition step from `s` over `dt`.
    pub(crate) fn step(&self, s: f64, dt: f64, z: f64) -> f64 {
        s * (self.log_drift() * dt + self.sigma * dt.sqrt() * z).exp()
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
    fn terminal_at_zero_noise_is_forward_adjusted() {
        let m = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
        let t = 1.0;
        let s = m.terminal(t, 0.0);
        // exp((r - σ²/2) T) factor
        assert!((s - 100.0 * ((0.05 - 0.02) * t).exp()).abs() < 1e-10);
    }

    #[test]
    fn step_composition_matches_terminal() {
        let m = BlackScholes::new(50.0, 0.3, 0.02, 0.01);
        // Two half-steps with z/√2 each equal one full step with z
        // (Brownian scaling).
        let z = 0.7;
        let one = m.terminal(1.0, z);
        let half = m.step(m.spot, 0.5, z / 2f64.sqrt());
        let two = m.step(half, 0.5, z / 2f64.sqrt());
        assert!((one - two).abs() < 1e-9);
    }

    #[test]
    fn discount_factor() {
        let m = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
        assert!((m.discount(2.0) - (-0.1f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn validate_rejects_bad_params() {
        assert!(BlackScholes {
            spot: -1.0,
            sigma: 0.2,
            rate: 0.0,
            dividend: 0.0
        }
        .validate()
        .is_err());
        assert!(BlackScholes {
            spot: 1.0,
            sigma: 0.0,
            rate: 0.0,
            dividend: 0.0
        }
        .validate()
        .is_err());
        assert!(BlackScholes {
            spot: 1.0,
            sigma: 0.1,
            rate: f64::NAN,
            dividend: 0.0
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic]
    fn new_panics_on_invalid() {
        BlackScholes::new(0.0, 0.2, 0.05, 0.0);
    }
}
