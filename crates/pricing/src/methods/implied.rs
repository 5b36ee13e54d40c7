//! Implied volatility: invert the Black–Scholes formula.
//!
//! Risk systems quote and compare options in implied-vol space, and
//! Premia's calibration utilities need the inversion. We use a
//! safeguarded Newton iteration (vega-based steps inside a maintained
//! bisection bracket), which converges globally for any arbitrage-free
//! price.

use crate::methods::closed_form::bs_price;
use crate::models::BlackScholes;
use crate::options::{OptionRight, Vanilla};

/// Errors from the inversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ImpliedVolError {
    /// Price below intrinsic/discounted lower bound — no volatility can
    /// produce it.
    PriceBelowArbitrageBound,
    /// Price at or above the trivial upper bound (spot for calls,
    /// discounted strike for puts).
    PriceAboveArbitrageBound,
}

impl std::fmt::Display for ImpliedVolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImpliedVolError::PriceBelowArbitrageBound => {
                write!(f, "price below the arbitrage lower bound")
            }
            ImpliedVolError::PriceAboveArbitrageBound => {
                write!(f, "price above the arbitrage upper bound")
            }
        }
    }
}

impl std::error::Error for ImpliedVolError {}

/// Converged inversion with solver diagnostics.
///
/// Calibration sweeps (a whole smile per maturity, per bump scenario)
/// invert thousands of prices; the iteration count is the natural unit
/// for profiling them, exactly as the per-phase spans are for the farm.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ImpliedVol {
    /// The implied volatility σ*.
    sigma: f64,
    /// Newton/bisection iterations actually spent (0 for degenerate
    /// intrinsic prices that short-circuit).
    iterations: usize,
    /// |BS(σ*) − price| at exit.
    residual: f64,
}

/// Iteration cap. The safeguarded Newton iteration converges in well
/// under 20 steps for any arbitrage-free price; the cap only guards
/// against pathological floating-point cycling.
const MAX_ITER: usize = 100;

/// Invert Black–Scholes: find σ such that `BS(σ) = price`.
///
/// `market` supplies spot, rate and dividend; its `sigma` field is
/// ignored. Accuracy: |BS(σ*) − price| < 1e-12 · spot.
pub fn implied_vol(
    market: &BlackScholes,
    option: &Vanilla,
    price: f64,
) -> Result<f64, ImpliedVolError> {
    implied_vol_diagnostic(market, option, price).map(|iv| iv.sigma)
}

/// [`implied_vol`], returning the full [`ImpliedVol`] diagnostic.
///
/// The solver stops on the **first** of three conditions rather than
/// always burning a fixed iteration budget:
///
/// 1. price convergence: |BS(σ) − price| < 1e-12 · spot;
/// 2. bracket collapse: the maintained bisection bracket `[lo, hi]`
///    narrows below floating-point resolution around σ — the answer
///    cannot improve further even when the price tolerance is
///    unreachable (deep in/out-of-the-money, vega ≈ 0);
/// 3. the [`MAX_ITER`] safety cap.
fn implied_vol_diagnostic(
    market: &BlackScholes,
    option: &Vanilla,
    price: f64,
) -> Result<ImpliedVol, ImpliedVolError> {
    option.validate().expect("invalid option");
    let t = option.maturity;
    let k = option.strike;
    let df_r = (-market.rate * t).exp();
    let df_q = (-market.dividend * t).exp();
    let (lower, upper) = match option.right {
        OptionRight::Call => ((market.spot * df_q - k * df_r).max(0.0), market.spot * df_q),
        OptionRight::Put => ((k * df_r - market.spot * df_q).max(0.0), k * df_r),
    };
    if price < lower - 1e-12 {
        return Err(ImpliedVolError::PriceBelowArbitrageBound);
    }
    if price >= upper {
        return Err(ImpliedVolError::PriceAboveArbitrageBound);
    }
    // Degenerate: price exactly intrinsic ⇒ σ → 0.
    if price <= lower + 1e-14 {
        return Ok(ImpliedVol {
            sigma: 1e-8,
            iterations: 0,
            residual: 0.0,
        });
    }

    let f = |sigma: f64| -> (f64, f64) {
        let m = BlackScholes { sigma, ..*market };
        let q = bs_price(&m, option);
        (q.price - price, q.vega)
    };

    // Bracket: BS price is strictly increasing in σ.
    let mut lo = 1e-6;
    let mut hi = 5.0;
    // Expand hi if needed (extreme prices).
    while f(hi).0 < 0.0 && hi < 100.0 {
        hi *= 2.0;
    }
    let mut sigma = 0.2; // conventional start
    let tol = 1e-12 * market.spot.max(1.0);
    let mut diff = 0.0;
    for iterations in 1..=MAX_ITER {
        let vega;
        (diff, vega) = f(sigma);
        if diff.abs() < tol {
            // Price converged.
            return Ok(ImpliedVol {
                sigma,
                iterations,
                residual: diff.abs(),
            });
        }
        if diff > 0.0 {
            hi = sigma;
        } else {
            lo = sigma;
        }
        if hi - lo < 1e-12 * sigma.max(1.0) {
            // Bracket collapsed to floating-point resolution around σ:
            // more iterations cannot move the answer (typically a
            // vega ≈ 0 corner where the price tolerance is unreachable).
            return Ok(ImpliedVol {
                sigma,
                iterations,
                residual: diff.abs(),
            });
        }
        // Newton step, safeguarded by the bracket.
        let newton = sigma - diff / vega.max(1e-12);
        sigma = if newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    Ok(ImpliedVol {
        sigma,
        iterations: MAX_ITER,
        residual: diff.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market() -> BlackScholes {
        BlackScholes::new(100.0, 0.999, 0.05, 0.01) // sigma ignored
    }

    #[test]
    fn recovers_known_volatility() {
        let m = market();
        for &sigma in &[0.05, 0.1, 0.2, 0.5, 1.2] {
            for &k in &[70.0, 100.0, 140.0] {
                for &t in &[0.1, 1.0, 5.0] {
                    let opt = Vanilla::european_call(k, t);
                    let price = bs_price(&BlackScholes { sigma, ..m }, &opt).price;
                    let lower =
                        (m.spot * (-m.dividend * t).exp() - k * (-m.rate * t).exp()).max(0.0);
                    if price < 1e-6 || price - lower < 1e-6 {
                        // Sub-micro-cent OTM price, or deep-ITM price at
                        // intrinsic: vega is so small the price carries
                        // no usable vol information.
                        continue;
                    }
                    let iv = implied_vol(&m, &opt, price).unwrap();
                    // σ-accuracy is price-tolerance divided by vega; deep
                    // ITM low-vol corners have vega ~1e-4, so allow 1e-5.
                    assert!(
                        (iv - sigma).abs() < 1e-5,
                        "σ={sigma} k={k} t={t}: recovered {iv}"
                    );
                }
            }
        }
    }

    #[test]
    fn recovers_put_volatility() {
        let m = market();
        let opt = Vanilla::european_put(95.0, 0.75);
        let price = bs_price(&BlackScholes { sigma: 0.33, ..m }, &opt).price;
        let iv = implied_vol(&m, &opt, price).unwrap();
        assert!((iv - 0.33).abs() < 1e-8, "recovered {iv}");
    }

    #[test]
    fn diagnostic_reports_fast_convergence_on_known_vol() {
        let m = market();
        let opt = Vanilla::european_call(105.0, 1.0);
        let price = bs_price(&BlackScholes { sigma: 0.27, ..m }, &opt).price;
        let iv = implied_vol_diagnostic(&m, &opt, price).unwrap();
        assert!((iv.sigma - 0.27).abs() < 1e-10, "recovered {}", iv.sigma);
        // Safeguarded Newton on a near-the-money option is quadratic:
        // single-digit iterations, never the 100-step budget.
        assert!(
            (1..=10).contains(&iv.iterations),
            "took {} iterations",
            iv.iterations
        );
        assert!(iv.residual < 1e-12 * m.spot);
        // The scalar entry point agrees with the diagnostic one.
        assert_eq!(implied_vol(&m, &opt, price).unwrap(), iv.sigma);
    }

    #[test]
    fn bracket_collapse_terminates_vega_starved_corners() {
        // Deep ITM, tiny maturity: vega is ~0 and the 1e-12·spot price
        // tolerance can be unreachable. The bracket-collapse exit must
        // still terminate well under the iteration cap with the bracket
        // at floating-point resolution.
        let m = market();
        let opt = Vanilla::european_call(40.0, 0.05);
        let price = bs_price(&BlackScholes { sigma: 0.15, ..m }, &opt).price;
        let iv = implied_vol_diagnostic(&m, &opt, price).unwrap();
        assert!(iv.iterations < 100, "hit the cap: {}", iv.iterations);
        // Whatever σ it settles on must reproduce the price to far
        // better than a basis point of spot.
        let back = bs_price(
            &BlackScholes {
                sigma: iv.sigma,
                ..m
            },
            &opt,
        )
        .price;
        assert!((back - price).abs() < 1e-8 * m.spot);
    }

    #[test]
    fn degenerate_intrinsic_price_reports_zero_iterations() {
        let m = market();
        let opt = Vanilla::european_call(80.0, 1.0);
        let t = opt.maturity;
        let intrinsic = m.spot * (-m.dividend * t).exp() - opt.strike * (-m.rate * t).exp();
        let iv = implied_vol_diagnostic(&m, &opt, intrinsic).unwrap();
        assert_eq!(iv.iterations, 0);
        assert!(iv.sigma < 1e-6);
    }

    #[test]
    fn rejects_arbitrage_violations() {
        let m = market();
        let opt = Vanilla::european_call(100.0, 1.0);
        // Below intrinsic-forward bound.
        assert_eq!(
            implied_vol(&m, &opt, -0.5),
            Err(ImpliedVolError::PriceBelowArbitrageBound)
        );
        // Above the spot.
        assert_eq!(
            implied_vol(&m, &opt, 100.0),
            Err(ImpliedVolError::PriceAboveArbitrageBound)
        );
    }

    #[test]
    fn intrinsic_price_gives_tiny_vol() {
        let m = market();
        let opt = Vanilla::european_call(80.0, 1.0);
        let t = opt.maturity;
        let intrinsic = m.spot * (-m.dividend * t).exp() - opt.strike * (-m.rate * t).exp();
        let iv = implied_vol(&m, &opt, intrinsic).unwrap();
        assert!(iv < 1e-6);
    }

    #[test]
    fn heston_smile_has_equity_skew() {
        // Price OTM puts/calls under Heston (ρ<0), invert to implied
        // vols: the put wing must sit above the call wing — the smile the
        // local-vol model of §4.3 is built to capture.
        use crate::methods::heston_cf::heston_cf_price;
        use crate::models::Heston;
        let h = Heston::standard(100.0, 0.05);
        let m = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
        let put = Vanilla::european_put(80.0, 1.0);
        let call = Vanilla::european_call(120.0, 1.0);
        let iv_put = implied_vol(&m, &put, heston_cf_price(&h, &put)).unwrap();
        let iv_call = implied_vol(&m, &call, heston_cf_price(&h, &call)).unwrap();
        assert!(
            iv_put > iv_call + 0.01,
            "no skew: put wing {iv_put} call wing {iv_call}"
        );
    }

    #[test]
    fn high_volatility_inverts() {
        let m = market();
        let opt = Vanilla::european_call(100.0, 0.5);
        let price = bs_price(&BlackScholes { sigma: 4.0, ..m }, &opt).price;
        let iv = implied_vol(&m, &opt, price).unwrap();
        assert!((iv - 4.0).abs() < 1e-6, "recovered {iv}");
    }
}
