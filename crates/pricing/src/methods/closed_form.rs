//! Closed-form (analytic) prices and Greeks in the Black–Scholes model.
//!
//! Covers the §4.3 "plain vanilla options … closed-form formulas are
//! available for their evaluations" class, plus the Reiner–Rubinstein
//! formula for continuously monitored down-and-out calls used to validate
//! the barrier PDE pricer. Greeks (delta, gamma, vega) are included since
//! the paper's risk runs evaluate "the price (or other risk features such
//! as delta, gamma, vega …)".

use crate::models::BlackScholes;
use crate::options::{Barrier, OptionRight, Vanilla};
use numerics::{norm_cdf, norm_pdf};

/// Price and first-order Greeks of a vanilla European option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BsQuote {
    /// Price estimate.
    pub price: f64,
    /// First derivative of the price w.r.t. spot.
    pub delta: f64,
    /// Second derivative of the price w.r.t. spot.
    pub gamma: f64,
    /// Derivative of the price w.r.t. volatility.
    pub vega: f64,
}

/// The Black–Scholes `d₁`, `d₂` pair.
fn d1_d2(m: &BlackScholes, strike: f64, t: f64) -> (f64, f64) {
    let volt = m.sigma * t.sqrt();
    let d1 = ((m.spot / strike).ln() + (m.rate - m.dividend + 0.5 * m.sigma * m.sigma) * t) / volt;
    (d1, d1 - volt)
}

/// Black–Scholes price and Greeks for a European vanilla option.
///
/// `option.exercise` must be European — American claims have no closed
/// form; the caller routes those to the PDE/tree/LSM methods.
pub fn bs_price(m: &BlackScholes, option: &Vanilla) -> BsQuote {
    debug_assert!(matches!(
        option.exercise,
        crate::options::Exercise::European
    ));
    let t = option.maturity;
    let k = option.strike;
    let (d1, d2) = d1_d2(m, k, t);
    let df_r = (-m.rate * t).exp();
    let df_q = (-m.dividend * t).exp();
    let volt = m.sigma * t.sqrt();
    let gamma = df_q * norm_pdf(d1) / (m.spot * volt);
    let vega = m.spot * df_q * norm_pdf(d1) * t.sqrt();
    match option.right {
        OptionRight::Call => BsQuote {
            price: m.spot * df_q * norm_cdf(d1) - k * df_r * norm_cdf(d2),
            delta: df_q * norm_cdf(d1),
            gamma,
            vega,
        },
        OptionRight::Put => BsQuote {
            price: k * df_r * norm_cdf(-d2) - m.spot * df_q * norm_cdf(-d1),
            delta: -df_q * norm_cdf(-d1),
            gamma,
            vega,
        },
    }
}

/// Reiner–Rubinstein closed form for a continuously monitored
/// **down-and-out call** with barrier `H ≤ K` and no rebate.
///
/// Uses the in–out parity `C_do = C − C_di` with
///
/// ```text
/// C_di = S e^{-qT} (H/S)^{2λ} N(y) − K e^{-rT} (H/S)^{2λ-2} N(y − σ√T)
/// λ = (r − q + σ²/2)/σ²,  y = ln(H²/(S·K))/(σ√T) + λ σ√T
/// ```
///
/// Returns 0 when the spot starts at or below the barrier (already
/// knocked out).
pub fn down_out_call_price(m: &BlackScholes, option: &Barrier) -> f64 {
    assert_eq!(option.right, OptionRight::Call);
    assert!(
        option.barrier <= option.strike,
        "closed form implemented for H <= K (the portfolio's regime)"
    );
    if m.spot <= option.barrier {
        return option.rebate;
    }
    let t = option.maturity;
    let k = option.strike;
    let h = option.barrier;
    let vanilla = bs_price(m, &Vanilla::european_call(k, t)).price;
    let volt = m.sigma * t.sqrt();
    let lambda = (m.rate - m.dividend + 0.5 * m.sigma * m.sigma) / (m.sigma * m.sigma);
    let y = ((h * h) / (m.spot * k)).ln() / volt + lambda * volt;
    let hs = h / m.spot;
    let c_di = m.spot * (-m.dividend * t).exp() * hs.powf(2.0 * lambda) * norm_cdf(y)
        - k * (-m.rate * t).exp() * hs.powf(2.0 * lambda - 2.0) * norm_cdf(y - volt);
    (vanilla - c_di).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BlackScholes {
        BlackScholes::new(100.0, 0.2, 0.05, 0.0)
    }

    #[test]
    fn hull_textbook_call_value() {
        // S=42, K=40, r=0.10, σ=0.2, T=0.5 → C ≈ 4.759 (Hull, ch. 13).
        let m = BlackScholes::new(42.0, 0.2, 0.10, 0.0);
        let q = bs_price(&m, &Vanilla::european_call(40.0, 0.5));
        assert!((q.price - 4.759).abs() < 2e-3, "price {}", q.price);
    }

    #[test]
    fn hull_textbook_put_value() {
        let m = BlackScholes::new(42.0, 0.2, 0.10, 0.0);
        let q = bs_price(&m, &Vanilla::european_put(40.0, 0.5));
        assert!((q.price - 0.808).abs() < 2e-3, "price {}", q.price);
    }

    #[test]
    fn atm_one_year_reference() {
        // S=K=100, r=0.05, σ=0.2, T=1: C=10.4506, P=5.5735 (standard
        // reference values).
        let m = model();
        let c = bs_price(&m, &Vanilla::european_call(100.0, 1.0)).price;
        let p = bs_price(&m, &Vanilla::european_put(100.0, 1.0)).price;
        assert!((c - 10.4506).abs() < 1e-4, "call {c}");
        assert!((p - 5.5735).abs() < 1e-4, "put {p}");
    }

    #[test]
    fn put_call_parity() {
        let m = model();
        for k in [70.0, 100.0, 130.0] {
            for t in [0.25, 1.0, 8.0] {
                let c = bs_price(&m, &Vanilla::european_call(k, t)).price;
                let p = bs_price(&m, &Vanilla::european_put(k, t)).price;
                let forward = m.spot * (-m.dividend * t).exp() - k * (-m.rate * t).exp();
                assert!((c - p - forward).abs() < 1e-10, "k={k} t={t}");
            }
        }
    }

    #[test]
    fn delta_matches_finite_difference() {
        let m = model();
        let opt = Vanilla::european_call(110.0, 2.0);
        let q = bs_price(&m, &opt);
        let h = 1e-4;
        let up = bs_price(
            &BlackScholes {
                spot: m.spot + h,
                ..m
            },
            &opt,
        )
        .price;
        let dn = bs_price(
            &BlackScholes {
                spot: m.spot - h,
                ..m
            },
            &opt,
        )
        .price;
        assert!((q.delta - (up - dn) / (2.0 * h)).abs() < 1e-6);
    }

    #[test]
    fn gamma_matches_finite_difference() {
        let m = model();
        let opt = Vanilla::european_put(95.0, 1.5);
        let q = bs_price(&m, &opt);
        let h = 1e-3;
        let up = bs_price(
            &BlackScholes {
                spot: m.spot + h,
                ..m
            },
            &opt,
        )
        .price;
        let mid = q.price;
        let dn = bs_price(
            &BlackScholes {
                spot: m.spot - h,
                ..m
            },
            &opt,
        )
        .price;
        assert!((q.gamma - (up - 2.0 * mid + dn) / (h * h)).abs() < 1e-5);
    }

    #[test]
    fn vega_matches_finite_difference() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let q = bs_price(&m, &opt);
        let h = 1e-5;
        let up = bs_price(
            &BlackScholes {
                sigma: m.sigma + h,
                ..m
            },
            &opt,
        )
        .price;
        let dn = bs_price(
            &BlackScholes {
                sigma: m.sigma - h,
                ..m
            },
            &opt,
        )
        .price;
        assert!((q.vega - (up - dn) / (2.0 * h)).abs() < 1e-5);
    }

    #[test]
    fn call_price_increasing_in_spot_decreasing_in_strike() {
        let t = 1.0;
        let mut prev = 0.0;
        for spot in [60.0, 80.0, 100.0, 120.0] {
            let m = BlackScholes::new(spot, 0.2, 0.05, 0.0);
            let c = bs_price(&m, &Vanilla::european_call(100.0, t)).price;
            assert!(c >= prev);
            prev = c;
        }
        let m = model();
        let mut prev = f64::MAX;
        for k in [70.0, 90.0, 110.0, 130.0] {
            let c = bs_price(&m, &Vanilla::european_call(k, t)).price;
            assert!(c <= prev);
            prev = c;
        }
    }

    #[test]
    fn price_increasing_in_volatility() {
        let mut prev = 0.0;
        for sigma in [0.05, 0.1, 0.2, 0.4, 0.8] {
            let m = BlackScholes::new(100.0, sigma, 0.05, 0.0);
            let c = bs_price(&m, &Vanilla::european_call(100.0, 1.0)).price;
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn down_out_call_below_vanilla() {
        let m = model();
        let t = 1.0;
        let k = 100.0;
        let vanilla = bs_price(&m, &Vanilla::european_call(k, t)).price;
        let dob = down_out_call_price(&m, &Barrier::down_out_call(k, 80.0, t));
        assert!(dob > 0.0 && dob < vanilla, "dob {dob} vanilla {vanilla}");
    }

    #[test]
    fn down_out_call_approaches_vanilla_as_barrier_drops() {
        let m = model();
        let k = 100.0;
        let t = 1.0;
        let vanilla = bs_price(&m, &Vanilla::european_call(k, t)).price;
        let far = down_out_call_price(&m, &Barrier::down_out_call(k, 20.0, t));
        assert!((far - vanilla).abs() < 1e-4, "far {far} vanilla {vanilla}");
        // Monotone in the barrier level.
        let mut prev = vanilla;
        for h in [40.0, 60.0, 80.0, 95.0] {
            let p = down_out_call_price(&m, &Barrier::down_out_call(k, h, t));
            assert!(p <= prev + 1e-12, "H={h}");
            prev = p;
        }
    }

    #[test]
    fn down_out_call_zero_when_knocked() {
        let m = BlackScholes::new(75.0, 0.2, 0.05, 0.0);
        let p = down_out_call_price(&m, &Barrier::down_out_call(100.0, 80.0, 1.0));
        assert_eq!(p, 0.0);
    }

    #[test]
    fn down_out_call_known_value() {
        // Hand-evaluated Reiner–Rubinstein value: S=100, K=100, H=95,
        // T=0.5, r=0.08, q=0.04, σ=0.25. Vanilla C ≈ 7.846,
        // C_di ≈ 3.333 ⇒ C_do ≈ 4.513 (independent evaluation of the
        // formula with tabulated N(·) values).
        let m = BlackScholes::new(100.0, 0.25, 0.08, 0.04);
        let p = down_out_call_price(&m, &Barrier::down_out_call(100.0, 95.0, 0.5));
        assert!((p - 4.513).abs() < 5e-3, "price {p}");
    }

    #[test]
    fn down_out_call_consistent_with_in_out_parity_via_reflection() {
        // For r = q = 0 the reflection principle gives λ = 1/2 and the
        // knock-in call collapses to C_di = (S/H)·C(S'=H²/S, K) evaluated
        // at the reflected spot. Check in-out parity numerically.
        let m = BlackScholes::new(100.0, 0.3, 0.0, 0.0);
        let k = 100.0;
        let h = 85.0;
        let t = 2.0;
        let c = bs_price(&m, &Vanilla::european_call(k, t)).price;
        let c_do = down_out_call_price(&m, &Barrier::down_out_call(k, h, t));
        let reflected = BlackScholes::new(h * h / m.spot, 0.3, 0.0, 0.0);
        let c_di = (m.spot / h) * bs_price(&reflected, &Vanilla::european_call(k, t)).price;
        assert!(
            (c - c_do - c_di).abs() < 1e-10,
            "parity violated: C {c} C_do {c_do} C_di {c_di}"
        );
    }
}
