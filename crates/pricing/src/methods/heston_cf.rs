//! Semi-analytic European pricing in the Heston model.
//!
//! Premia carries closed/semi-closed formulas for the stochastic
//! volatility models; we implement the standard characteristic-function
//! representation with the Albrecher et al. ("little Heston trap")
//! branch-stable formulation:
//!
//! ```text
//! C = S e^{-qT} P₁ − K e^{-rT} P₂
//! Pⱼ = 1/2 + (1/π) ∫₀^∞ Re[ e^{-iu ln K} φⱼ(u) / (iu) ] du
//! ```
//!
//! where `φⱼ` are the two risk-neutral characteristic functions of
//! `ln S_T`. The integral is evaluated with composite Gauss–Legendre
//! panels on a truncated domain, which is plenty for benchmark-grade
//! accuracy (~1e-6 for conventional parameter ranges).

use crate::models::Heston;
use crate::options::{OptionRight, Vanilla};

/// Minimal complex arithmetic — enough for the Heston integrand, kept
/// local so the crate stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq)]
struct C64 {
    re: f64,
    im: f64,
}

impl C64 {
    const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    fn i_times(u: f64) -> C64 {
        C64 { re: 0.0, im: u }
    }

    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }

    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    fn scale(self, k: f64) -> C64 {
        C64::new(self.re * k, self.im * k)
    }

    fn div(self, o: C64) -> C64 {
        let d = o.re * o.re + o.im * o.im;
        C64::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }

    fn sqrt(self) -> C64 {
        let r = (self.re * self.re + self.im * self.im).sqrt();
        let re = ((r + self.re) / 2.0).max(0.0).sqrt();
        let im = ((r - self.re) / 2.0).max(0.0).sqrt();
        C64::new(re, if self.im < 0.0 { -im } else { im })
    }

    fn exp(self) -> C64 {
        let e = self.re.exp();
        C64::new(e * self.im.cos(), e * self.im.sin())
    }

    fn ln(self) -> C64 {
        let r = (self.re * self.re + self.im * self.im).sqrt();
        C64::new(r.ln(), self.im.atan2(self.re))
    }
}

/// Characteristic function φⱼ(u) of ln S_T under the two Heston measures
/// (j = 1: share measure, j = 2: risk-neutral), little-trap formulation.
fn heston_cf(m: &Heston, t: f64, u: f64, j: u8) -> C64 {
    let (uj, bj) = match j {
        1 => (0.5, m.kappa - m.rho * m.xi),
        _ => (-0.5, m.kappa),
    };
    let a = m.kappa * m.theta;
    let iu = C64::i_times(u);
    let rho_xi_iu = C64::i_times(m.rho * m.xi * u);
    // d = sqrt((ρξiu − b)² − ξ²(2 uⱼ iu − u²))
    let b_minus = C64::new(bj, 0.0).sub(rho_xi_iu);
    let inner = b_minus
        .mul(b_minus)
        .sub(C64::new(-u * u, 2.0 * uj * u).scale(m.xi * m.xi));
    let d = inner.sqrt();
    // Little trap: g2 = (b − ρξiu − d)/(b − ρξiu + d), use exp(−dT).
    let g2 = b_minus.sub(d).div(b_minus.add(d));
    let e_dt = d.scale(-t).exp();
    let one_minus_ge = C64::ONE.sub(g2.mul(e_dt));
    let one_minus_g = C64::ONE.sub(g2);
    // C = (r−q) iu T + a/ξ² [ (b − ρξiu − d) T − 2 ln((1−g e^{−dT})/(1−g)) ]
    let log_term = one_minus_ge.div(one_minus_g).ln();
    let big_c = iu.scale((m.rate - m.dividend) * t).add(
        b_minus
            .sub(d)
            .scale(t)
            .sub(log_term.scale(2.0))
            .scale(a / (m.xi * m.xi)),
    );
    // D = (b − ρξiu − d)/ξ² · (1 − e^{−dT})/(1 − g e^{−dT})
    let big_d = b_minus
        .sub(d)
        .scale(1.0 / (m.xi * m.xi))
        .mul(C64::ONE.sub(e_dt))
        .div(one_minus_ge);
    // φ = exp(C + D v₀ + iu ln S₀)
    big_c
        .add(big_d.scale(m.v0))
        .add(iu.scale(m.spot.ln()))
        .exp()
}

/// 16-point Gauss–Legendre nodes/weights on [-1, 1].
const GL_X: [f64; 8] = [
    0.0950125098376374,
    0.2816035507792589,
    0.4580167776572274,
    0.6178762444026438,
    0.755404408355003,
    0.8656312023878318,
    0.9445750230732326,
    0.9894009349916499,
];
const GL_W: [f64; 8] = [
    0.1894506104550685,
    0.1826034150449236,
    0.1691565193950025,
    0.1495959888165767,
    0.1246289712555339,
    0.0951585116824928,
    0.0622535239386479,
    0.0271524594117541,
];

/// ∫_a^b f(u) du with one 16-point Gauss–Legendre panel.
fn gl_panel(a: f64, b: f64, f: &dyn Fn(f64) -> f64) -> f64 {
    let c = 0.5 * (a + b);
    let h = 0.5 * (b - a);
    let mut acc = 0.0;
    for k in 0..8 {
        acc += GL_W[k] * (f(c + h * GL_X[k]) + f(c - h * GL_X[k]));
    }
    acc * h
}

/// The in-the-money probability Pⱼ.
fn heston_prob(m: &Heston, strike: f64, t: f64, j: u8) -> f64 {
    let lnk = strike.ln();
    let integrand = |u: f64| -> f64 {
        if u < 1e-10 {
            return 0.0;
        }
        let phi = heston_cf(m, t, u, j);
        let num = C64::new((u * lnk).cos(), -(u * lnk).sin()).mul(phi);
        // Re[num / (iu)] = Im[num] / u
        num.im / u
    };
    // The integrand decays like e^{-cu}; 100 is far past machine noise
    // for benchmark parameters. 64 panels of width ~1.5 resolve the
    // oscillation comfortably.
    let upper = 100.0;
    let panels = 64;
    let mut total = 0.0;
    for p in 0..panels {
        let a = upper * p as f64 / panels as f64;
        let b = upper * (p + 1) as f64 / panels as f64;
        total += gl_panel(a, b, &integrand);
    }
    0.5 + total / std::f64::consts::PI
}

/// Semi-analytic price of a European vanilla option under Heston.
pub(crate) fn heston_cf_price(m: &Heston, option: &Vanilla) -> f64 {
    option.validate().expect("invalid option");
    assert!(
        option.exercise == crate::options::Exercise::European,
        "characteristic-function pricing is European"
    );
    let t = option.maturity;
    let k = option.strike;
    let p1 = heston_prob(m, k, t, 1).clamp(0.0, 1.0);
    let p2 = heston_prob(m, k, t, 2).clamp(0.0, 1.0);
    let call = m.spot * (-m.dividend * t).exp() * p1 - k * (-m.rate * t).exp() * p2;
    match option.right {
        OptionRight::Call => call.max(0.0),
        // Put–call parity.
        OptionRight::Put => {
            (call - m.spot * (-m.dividend * t).exp() + k * (-m.rate * t).exp()).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::closed_form::bs_price;
    use crate::methods::montecarlo::{mc_heston, McConfig};
    use crate::models::BlackScholes;

    #[test]
    fn degenerates_to_black_scholes_for_small_vol_of_vol() {
        // ξ→0, v ≡ θ = v₀: Heston collapses to BS with σ = √v₀. (ξ much
        // below 0.01 makes the C-term κθ/ξ² ill-conditioned — a known
        // limitation of the closed-form representation, so the test uses
        // a small-but-safe ξ and a correspondingly relaxed tolerance.)
        let m = Heston::new(100.0, 0.04, 5.0, 0.04, 0.01, 0.0, 0.05, 0.0);
        let bs = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
        for k in [80.0, 100.0, 120.0] {
            let opt = Vanilla::european_call(k, 1.0);
            let h = heston_cf_price(&m, &opt);
            let b = bs_price(&bs, &opt).price;
            assert!((h - b).abs() < 5e-3, "k={k}: heston {h} bs {b}");
        }
    }

    #[test]
    fn put_call_parity_holds() {
        let m = Heston::standard(100.0, 0.05);
        for k in [85.0, 100.0, 115.0] {
            for t in [0.5, 1.0, 3.0] {
                let c = heston_cf_price(&m, &Vanilla::european_call(k, t));
                let p = heston_cf_price(&m, &Vanilla::european_put(k, t));
                let forward = m.spot * (-m.dividend * t).exp() - k * (-m.rate * t).exp();
                assert!((c - p - forward).abs() < 1e-6, "k={k} t={t}: c={c} p={p}");
            }
        }
    }

    #[test]
    fn matches_monte_carlo_within_error() {
        let m = Heston::standard(100.0, 0.05);
        let opt = Vanilla::european_call(100.0, 1.0);
        let cf = heston_cf_price(&m, &opt);
        let mc = mc_heston(
            &m,
            &opt,
            &McConfig {
                paths: 100_000,
                time_steps: 100,
                antithetic: true,
                seed: 3,
            },
        );
        // MC carries Euler bias on top of sampling error; allow both.
        assert!(
            (cf - mc.price).abs() < 4.0 * mc.std_error + 0.08,
            "cf {cf} mc {} ± {}",
            mc.price,
            mc.std_error
        );
    }

    #[test]
    fn negative_correlation_cheapens_otm_calls() {
        // Equity-like ρ<0 creates left skew: OTM calls are cheaper than
        // under ρ>0 (and the reverse for OTM puts).
        let base = Heston::standard(100.0, 0.05);
        let pos = Heston { rho: 0.7, ..base };
        let otm_call = Vanilla::european_call(130.0, 1.0);
        let c_neg = heston_cf_price(&base, &otm_call);
        let c_pos = heston_cf_price(&pos, &otm_call);
        assert!(c_neg < c_pos, "neg-rho {c_neg} !< pos-rho {c_pos}");
    }

    #[test]
    fn prices_are_arbitrage_bounded() {
        let m = Heston::standard(100.0, 0.05);
        for k in [50.0, 100.0, 200.0] {
            let t = 2.0;
            let c = heston_cf_price(&m, &Vanilla::european_call(k, t));
            let lower = (m.spot * (-m.dividend * t).exp() - k * (-m.rate * t).exp()).max(0.0);
            assert!(c >= lower - 1e-8, "k={k}: {c} < lower bound {lower}");
            assert!(c <= m.spot, "k={k}: {c} above spot");
        }
    }

    #[test]
    fn price_increases_with_maturity_for_atm_calls() {
        let m = Heston::standard(100.0, 0.05);
        let mut prev = 0.0;
        for t in [0.25, 0.5, 1.0, 2.0, 5.0] {
            let c = heston_cf_price(&m, &Vanilla::european_call(100.0, t));
            assert!(c > prev, "t={t}: {c} !> {prev}");
            prev = c;
        }
    }

    #[test]
    fn complex_helpers_are_correct() {
        let a = C64::new(3.0, 4.0);
        let s = a.sqrt();
        let s2 = s.mul(s);
        assert!((s2.re - 3.0).abs() < 1e-12 && (s2.im - 4.0).abs() < 1e-12);
        let e = C64::new(0.0, std::f64::consts::PI).exp();
        assert!((e.re + 1.0).abs() < 1e-12 && e.im.abs() < 1e-12);
        let l = C64::new(1.0, 1.0).ln();
        assert!((l.re - 0.5 * 2.0_f64.ln()).abs() < 1e-12);
        assert!((l.im - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        let q = a.div(C64::new(1.0, -2.0));
        let back = q.mul(C64::new(1.0, -2.0));
        assert!((back.re - 3.0).abs() < 1e-12 && (back.im - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        // Degree-15 polynomial is exact for 16-point GL.
        let f = |x: f64| x.powi(15) + 3.0 * x.powi(7) - x;
        let got = gl_panel(0.0, 1.0, &f);
        let exact = 1.0 / 16.0 + 3.0 / 8.0 - 0.5;
        assert!((got - exact).abs() < 1e-13);
    }
}
