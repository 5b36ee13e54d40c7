//! The standard normal distribution: density, cumulative distribution and
//! quantile (inverse CDF).
//!
//! `norm_cdf` uses the Cody rational-approximation of `erfc` (double
//! precision, relative error below 1e-15 on the whole axis), which is the
//! same accuracy class as the implementation shipped in Premia.  The
//! quantile uses Moro's refinement of the Beasley–Springer algorithm, the
//! de-facto standard in Monte-Carlo option pricing.

use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Density of the standard normal distribution.
#[inline]
pub fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * PI).sqrt()
}

/// Cumulative distribution function of the standard normal distribution.
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

/// Complementary error function, Cody's rational Chebyshev approximation
/// (W. J. Cody, "Rational Chebyshev approximation for the error function",
/// Math. Comp. 23 (1969)).
fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    let z = if ax < 0.5 {
        // erf via the first rational approximation.
        return 1.0 - erf(x);
    } else if ax < 4.0 {
        // erfc on [0.5, 4.0]
        const P: [f64; 9] = [
            5.64188496988670089e-1,
            8.88314979438837594,
            6.61191906371416295e1,
            2.98635138197400131e2,
            8.81952221241769090e2,
            1.71204761263407058e3,
            2.05107837782607147e3,
            1.23033935479799725e3,
            2.15311535474403846e-8,
        ];
        const Q: [f64; 8] = [
            1.57449261107098347e1,
            1.17693950891312499e2,
            5.37181101862009858e2,
            1.62138957456669019e3,
            3.29079923573345963e3,
            4.36261909014324716e3,
            3.43936767414372164e3,
            1.23033935480374942e3,
        ];
        let mut num = P[8] * ax;
        let mut den = ax;
        for i in 0..7 {
            num = (num + P[i]) * ax;
            den = (den + Q[i]) * ax;
        }
        ((num + P[7]) / (den + Q[7])) * (-ax * ax).exp()
    } else {
        // erfc on [4, inf)
        const P: [f64; 6] = [
            3.05326634961232344e-1,
            3.60344899949804439e-1,
            1.25781726111229246e-1,
            1.60837851487422766e-2,
            6.58749161529837803e-4,
            1.63153871373020978e-2,
        ];
        const Q: [f64; 5] = [
            2.56852019228982242,
            1.87295284992346047,
            5.27905102951428412e-1,
            6.05183413124413191e-2,
            2.33520497626869185e-3,
        ];
        let inv2 = 1.0 / (ax * ax);
        let mut num = P[5] * inv2;
        let mut den = inv2;
        for i in 0..4 {
            num = (num + P[i]) * inv2;
            den = (den + Q[i]) * inv2;
        }
        let r = inv2 * (num + P[4]) / (den + Q[4]);
        ((-ax * ax).exp() / ax) * (FRAC_1_SQRT_PI - r)
    };
    if x < 0.0 {
        2.0 - z
    } else {
        z
    }
}

const FRAC_1_SQRT_PI: f64 = 0.564189583547756287;

/// Error function for |x| < 0.5 (Cody), extended to the whole axis through
/// `erfc` for larger arguments.
fn erf(x: f64) -> f64 {
    let ax = x.abs();
    if ax >= 0.5 {
        let v = 1.0 - erfc(ax);
        return if x < 0.0 { -v } else { v };
    }
    // Maclaurin series: erf(x) = 2/sqrt(pi) * sum (-1)^n x^{2n+1} / (n! (2n+1)).
    // For |x| < 0.5 the terms decay like (x^2/n)^n; 20 terms give full
    // double precision.
    let z = x * x;
    let mut term = x;
    let mut sum = x;
    for n in 1..24 {
        term *= -z / n as f64;
        sum += term / (2.0 * n as f64 + 1.0);
        if term.abs() < 1e-18 {
            break;
        }
    }
    2.0 * FRAC_1_SQRT_PI * sum
}

/// Inverse of the standard normal CDF (quantile function).
///
/// Moro's algorithm ("The full Monte", Risk 8(2), 1995): Beasley–Springer
/// rational approximation in the central region, a Chebyshev-fitted tail
/// expansion outside. Absolute error below 3e-9 everywhere, which is ample
/// for Monte-Carlo use.
pub fn norm_inv_cdf(u: f64) -> f64 {
    assert!(
        u > 0.0 && u < 1.0,
        "norm_inv_cdf argument must be in (0,1), got {u}"
    );
    const A: [f64; 4] = [
        2.50662823884,
        -18.61500062529,
        41.39119773534,
        -25.44106049637,
    ];
    const B: [f64; 4] = [
        -8.47351093090,
        23.08336743743,
        -21.06224101826,
        3.13082909833,
    ];
    const C: [f64; 9] = [
        0.3374754822726147,
        0.9761690190917186,
        0.1607979714918209,
        0.0276438810333863,
        0.0038405729373609,
        0.0003951896511919,
        0.0000321767881768,
        0.0000002888167364,
        0.0000003960315187,
    ];
    let y = u - 0.5;
    if y.abs() < 0.42 {
        let r = y * y;
        let num = y * (((A[3] * r + A[2]) * r + A[1]) * r + A[0]);
        let den = (((B[3] * r + B[2]) * r + B[1]) * r + B[0]) * r + 1.0;
        num / den
    } else {
        let r = if y > 0.0 { 1.0 - u } else { u };
        let s = (-(r.ln())).ln();
        let mut t = C[8];
        for i in (0..8).rev() {
            t = t * s + C[i];
        }
        if y < 0.0 {
            -t
        } else {
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_at_zero_is_half() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn cdf_known_values() {
        // Values from standard tables (15 digits via mpmath).
        assert!((norm_cdf(1.0) - 0.841344746068543).abs() < 1e-12);
        assert!((norm_cdf(-1.0) - 0.158655253931457).abs() < 1e-12);
        assert!((norm_cdf(1.959963984540054) - 0.975).abs() < 1e-12);
        assert!((norm_cdf(3.0) - 0.998650101968370).abs() < 1e-12);
        assert!((norm_cdf(-3.0) - 0.001349898031630).abs() < 1e-12);
        assert!((norm_cdf(5.0) - 0.999999713348428).abs() < 1e-12);
    }

    #[test]
    fn cdf_symmetry() {
        for i in 0..200 {
            let x = -5.0 + i as f64 * 0.05;
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-14, "x={x}");
        }
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = norm_cdf(-8.0);
        for i in 1..=320 {
            let x = -8.0 + i as f64 * 0.05;
            let c = norm_cdf(x);
            assert!(c >= prev, "CDF not monotone at x={x}");
            prev = c;
        }
    }

    #[test]
    fn pdf_integrates_to_cdf_derivative() {
        // Central difference of the CDF should match the PDF.
        for i in 0..100 {
            let x = -4.0 + i as f64 * 0.08;
            let h = 1e-5;
            let d = (norm_cdf(x + h) - norm_cdf(x - h)) / (2.0 * h);
            assert!((d - norm_pdf(x)).abs() < 1e-8, "x={x}");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..999 {
            let u = i as f64 / 1000.0;
            let x = norm_inv_cdf(u);
            assert!((norm_cdf(x) - u).abs() < 1e-8, "u={u} x={x}");
        }
    }

    #[test]
    fn quantile_tails() {
        for &u in &[1e-10, 1e-8, 1e-6, 1.0 - 1e-6, 1.0 - 1e-8] {
            let x = norm_inv_cdf(u);
            assert!(
                (norm_cdf(x) - u).abs() / u.min(1.0 - u) < 1e-4,
                "u={u} x={x}"
            );
        }
    }

    #[test]
    fn quantile_symmetry() {
        for i in 1..500 {
            let u = i as f64 / 1000.0;
            assert!((norm_inv_cdf(u) + norm_inv_cdf(1.0 - u)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_zero() {
        norm_inv_cdf(0.0);
    }

    #[test]
    fn erf_small_values() {
        assert!((erf(0.0)).abs() < 1e-15);
        assert!((erf(0.1) - 0.112462916018285).abs() < 1e-12);
        assert!((erf(0.4) - 0.428392355046668).abs() < 1e-12);
        assert!((erf(-0.4) + 0.428392355046668).abs() < 1e-12);
    }
}
