//! Interpolation utilities.
//!
//! The PDE pricer reads prices and deltas off a space grid that rarely has
//! a node exactly at the spot, so it interpolates; the local-volatility
//! model interpolates a volatility surface in (time, spot).

/// Piecewise-linear interpolation on a strictly increasing grid.
///
/// Outside the grid the value is clamped to the end values (flat
/// extrapolation), which is the conventional choice for reading
/// PDE solutions near the grid boundary.
pub fn linear(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(!xs.is_empty(), "empty interpolation grid");
    if x <= xs[0] {
        return ys[0];
    }
    let n = xs.len();
    if x >= xs[n - 1] {
        return ys[n - 1];
    }
    // Binary search for the bracketing interval.
    let mut lo = 0;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    ys[lo] + t * (ys[hi] - ys[lo])
}

/// Derivative estimate of tabulated data at `x`: central difference of the
/// linear interpolant with grid-scaled step. Used to read the delta off the
/// PDE grid.
pub fn derivative(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert!(xs.len() >= 2);
    let h = (xs[xs.len() - 1] - xs[0]) / (xs.len() as f64 - 1.0);
    (linear(xs, ys, x + h) - linear(xs, ys, x - h)) / (2.0 * h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_hits_nodes() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [2.0, 4.0, -1.0];
        for i in 0..3 {
            assert_eq!(linear(&xs, &ys, xs[i]), ys[i]);
        }
    }

    #[test]
    fn linear_interpolates_midpoints() {
        let xs = [0.0, 2.0];
        let ys = [0.0, 10.0];
        assert!((linear(&xs, &ys, 0.5) - 2.5).abs() < 1e-14);
        assert!((linear(&xs, &ys, 1.5) - 7.5).abs() < 1e-14);
    }

    #[test]
    fn linear_clamps_outside() {
        let xs = [1.0, 2.0];
        let ys = [5.0, 6.0];
        assert_eq!(linear(&xs, &ys, 0.0), 5.0);
        assert_eq!(linear(&xs, &ys, 9.0), 6.0);
    }

    #[test]
    fn linear_exact_on_affine_function() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        for i in 0..490 {
            let x = i as f64 * 0.01;
            assert!((linear(&xs, &ys, x) - (3.0 * x - 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn derivative_of_affine() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((derivative(&xs, &ys, 4.5) - 2.0).abs() < 1e-10);
    }
}
