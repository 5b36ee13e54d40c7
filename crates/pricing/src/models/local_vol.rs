//! A parametric local-volatility model.
//!
//! §4.3: "the local volatility models … are very close to the Black &
//! Scholes model but in which the volatility is not constant anymore but
//! rather depends on the current time and stock price. In these models,
//! there are no closed-form formula anymore and Monte-Carlo methods are
//! used instead."
//!
//! We use a smooth, bounded parametric surface
//!
//! ```text
//! σ(t, S) = σ₀ · (1 + a·e^{-t/τ}) · (1 + b·tanh((S₀ − S)/(c·S₀)))
//! ```
//!
//! which reproduces the two first-order empirical features local-vol models
//! capture — a term structure (`a`, `τ`) and a downward skew (`b`, `c`,
//! higher vol when the spot falls) — while staying strictly positive and
//! bounded for `|b| < 1`, so the Euler scheme is well behaved.

/// Parametric local-volatility model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalVol {
    /// Spot price of the underlying.
    pub spot: f64,
    /// Base volatility level σ₀.
    pub sigma0: f64,
    /// Term-structure amplitude `a` (σ is `(1+a)σ₀` at t=0 decaying to σ₀).
    pub term_amp: f64,
    /// Term-structure decay time τ (years).
    pub term_tau: f64,
    /// Skew amplitude `b` (must satisfy |b| < 1).
    pub skew_amp: f64,
    /// Skew width `c` relative to spot.
    pub skew_width: f64,
    /// Risk-free rate (continuously compounded).
    pub rate: f64,
    /// Continuous dividend yield.
    pub dividend: f64,
}

impl LocalVol {
    /// A conventional calibration: mild term structure, equity-like skew.
    pub fn standard(spot: f64, sigma0: f64, rate: f64, dividend: f64) -> Self {
        let m = LocalVol {
            spot,
            sigma0,
            term_amp: 0.2,
            term_tau: 1.0,
            skew_amp: 0.3,
            skew_width: 0.5,
            rate,
            dividend,
        };
        m.validate().expect("invalid local-vol parameters");
        m
    }

    /// Parameter sanity checks; `Err` describes the first violation.
    fn validate(&self) -> Result<(), String> {
        if !(self.spot > 0.0 && self.sigma0 > 0.0) {
            return Err("spot and sigma0 must be positive".into());
        }
        if self.skew_amp.abs() >= 1.0 {
            return Err("skew amplitude must satisfy |b| < 1".into());
        }
        if !(self.term_tau > 0.0 && self.skew_width > 0.0) {
            return Err("term tau and skew width must be positive".into());
        }
        if !self.rate.is_finite() || !self.dividend.is_finite() {
            return Err("rate/dividend must be finite".into());
        }
        Ok(())
    }

    /// Discount factor `e^{-rT}`.
    pub(crate) fn discount(&self, t: f64) -> f64 {
        (-self.rate * t).exp()
    }

    /// The log-Euler scheme on the uniform grid `t_k = k·dt`,
    /// `k < steps`, with everything path-independent tabulated.
    pub(crate) fn euler_grid(&self, dt: f64, steps: usize) -> EulerGrid {
        let mut t = 0.0;
        let vol_t = (0..steps)
            .map(|_| {
                let term = 1.0 + self.term_amp * (-t / self.term_tau).exp();
                t += dt;
                self.sigma0 * term
            })
            .collect();
        EulerGrid {
            vol_t,
            spot: self.spot,
            skew_amp: self.skew_amp,
            skew_scale: self.skew_width * self.spot,
            carry: self.rate - self.dividend,
            dt,
            sqrt_dt: dt.sqrt(),
        }
    }
}

/// [`LocalVol::step`] over a fixed time grid, split into what depends on
/// the path (the `tanh` skew and the `exp`) and what does not: the term
/// factor `σ₀·(1 + a·e^{-t_k/τ})` — one `exp` per step per *problem*
/// instead of per path — with `t_k` accumulated by the same `t += dt`
/// the path loops used, `√dt`, and the two parameter products. Every
/// operation a path sees keeps its operands and order, so a path
/// advanced here lands on the bits `LocalVol::step(t_k, s, dt, z)` gives.
#[derive(Debug, Clone)]
pub(crate) struct EulerGrid {
    /// `σ₀ · term(t_k)` per step.
    vol_t: Vec<f64>,
    spot: f64,
    skew_amp: f64,
    /// `c · S₀`, the skew's length scale.
    skew_scale: f64,
    /// `r − q`.
    carry: f64,
    dt: f64,
    sqrt_dt: f64,
}

impl EulerGrid {
    /// `σ(t_k, s)`.
    #[inline]
    fn sigma(&self, k: usize, s: f64) -> f64 {
        let skew = 1.0 + self.skew_amp * ((self.spot - s) / self.skew_scale).tanh();
        self.vol_t[k] * skew
    }

    /// The step's growth factor `S_{k+1} / S_k` at volatility `sig`.
    #[inline]
    fn growth(&self, sig: f64, z: f64) -> f64 {
        ((self.carry - 0.5 * sig * sig) * self.dt + sig * self.sqrt_dt * z).exp()
    }

    /// Terminal levels of `N` paths advanced from the spot in lock-step,
    /// path `c` driven by the normals `z(k)[c]`. A single path is one
    /// chain of dependent `tanh → exp` calls; `N` independent ones, all
    /// the `tanh`s of a step before its `exp`s, keep the CPU busy while
    /// each chain waits on its own last result.
    #[inline]
    pub(crate) fn terminal<const N: usize>(&self, z: impl Fn(usize) -> [f64; N]) -> [f64; N] {
        let mut s = [self.spot; N];
        for k in 0..self.vol_t.len() {
            let zk = z(k);
            let sig: [f64; N] = std::array::from_fn(|c| self.sigma(k, s[c]));
            for c in 0..N {
                s[c] *= self.growth(sig[c], zk[c]);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LocalVol {
        /// The local volatility σ(t, S).
        fn sigma(&self, t: f64, s: f64) -> f64 {
            let term = 1.0 + self.term_amp * (-t / self.term_tau).exp();
            let skew =
                1.0 + self.skew_amp * ((self.spot - s) / (self.skew_width * self.spot)).tanh();
            self.sigma0 * term * skew
        }

        /// One Euler–Maruyama step on `ln S` (log-Euler keeps the path
        /// positive):
        /// `ln S ← ln S + (r − q − σ²(t,S)/2) dt + σ(t,S) √dt z`.
        pub(crate) fn step(&self, t: f64, s: f64, dt: f64, z: f64) -> f64 {
            let sig = self.sigma(t, s);
            s * ((self.rate - self.dividend - 0.5 * sig * sig) * dt + sig * dt.sqrt() * z).exp()
        }
    }

    fn model() -> LocalVol {
        LocalVol::standard(100.0, 0.2, 0.05, 0.0)
    }

    #[test]
    fn surface_positive_and_bounded() {
        let m = model();
        let max = m.sigma0 * (1.0 + m.term_amp) * (1.0 + m.skew_amp);
        for i in 0..50 {
            for j in 1..50 {
                let t = i as f64 * 0.2;
                let s = j as f64 * 10.0;
                let sig = m.sigma(t, s);
                assert!(sig > 0.0, "σ({t},{s}) = {sig}");
                assert!(sig <= max + 1e-12);
            }
        }
    }

    #[test]
    fn skew_is_downward() {
        // Lower spot ⇒ higher vol (equity skew).
        let m = model();
        assert!(m.sigma(0.5, 80.0) > m.sigma(0.5, 100.0));
        assert!(m.sigma(0.5, 100.0) > m.sigma(0.5, 120.0));
    }

    #[test]
    fn term_structure_decays() {
        let m = model();
        assert!(m.sigma(0.0, 100.0) > m.sigma(2.0, 100.0));
        // Far maturity tends to σ₀ at the money exactly (tanh(0)=0).
        assert!((m.sigma(100.0, 100.0) - m.sigma0).abs() < 1e-6);
    }

    #[test]
    fn step_positive() {
        let m = model();
        let mut s = 100.0;
        for k in 0..100 {
            s = m.step(
                k as f64 * 0.01,
                s,
                0.01,
                if k % 2 == 0 { 2.0 } else { -2.0 },
            );
            assert!(s > 0.0);
        }
    }

    #[test]
    fn zero_skew_zero_term_reduces_to_bs_step() {
        let m = LocalVol {
            spot: 100.0,
            sigma0: 0.2,
            term_amp: 0.0,
            term_tau: 1.0,
            skew_amp: 0.0,
            skew_width: 0.5,
            rate: 0.05,
            dividend: 0.0,
        };
        let bs = crate::models::BlackScholes::new(100.0, 0.2, 0.05, 0.0);
        let s1 = m.step(0.3, 100.0, 0.1, 0.7);
        let s2 = bs.step(100.0, 0.1, 0.7);
        assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn euler_grid_paths_are_bit_identical_to_model_steps() {
        let m = model();
        let z = |c: usize, k: usize| 0.37 * k as f64 - 1.9 + 0.61 * c as f64;
        for (dt, steps) in [(0.02, 10usize), (1.0 / 3.0, 16), (5.0, 1)] {
            let want: [f64; 4] = std::array::from_fn(|c| {
                let (mut t, mut s) = (0.0, m.spot);
                for k in 0..steps {
                    s = m.step(t, s, dt, z(c, k));
                    t += dt;
                }
                s
            });
            let grid = m.euler_grid(dt, steps);
            let four = grid.terminal(|k| std::array::from_fn::<_, 4, _>(|c| z(c, k)));
            for c in 0..4 {
                let [one] = grid.terminal(|k| [z(c, k)]);
                assert_eq!(one.to_bits(), want[c].to_bits(), "dt {dt} path {c} alone");
                assert_eq!(
                    four[c].to_bits(),
                    want[c].to_bits(),
                    "dt {dt} path {c} of 4"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_big_skew() {
        let mut m = model();
        m.skew_amp = 1.5;
        assert!(m.validate().is_err());
    }
}
