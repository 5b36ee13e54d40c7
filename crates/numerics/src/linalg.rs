//! Dense and banded linear algebra.
//!
//! The PDE pricer needs a tridiagonal solver (Thomas algorithm) executed
//! thousands of times per option; the dense Cholesky factor is the test
//! oracle for the basket pricer's equicorrelated factor
//! ([`crate::rng::CorrelatedNormals`]); the Longstaff–Schwartz
//! regression needs a least-squares solver (here: Householder QR with
//! column back-substitution, falling back to normal equations never).
//!
//! Matrices are stored row-major in flat `Vec<f64>`s; the sizes in this
//! benchmark are tiny (correlation matrices up to 40×40, regression bases
//! up to ~10 columns), so cache blocking is unnecessary — clarity wins.

/// A tridiagonal matrix `(sub, diag, sup)` of dimension `n`:
/// `sub` has length `n-1` (entries below the diagonal), `diag` length `n`,
/// `sup` length `n-1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tridiagonal {
    /// Entries below the diagonal (length n−1).
    pub sub: Vec<f64>,
    /// Diagonal entries (length n).
    pub diag: Vec<f64>,
    /// Entries above the diagonal (length n−1).
    pub sup: Vec<f64>,
}

impl Tridiagonal {
    /// Build a tridiagonal matrix; panics if the band lengths are
    /// inconsistent.
    pub fn new(sub: Vec<f64>, diag: Vec<f64>, sup: Vec<f64>) -> Self {
        let n = diag.len();
        assert!(n >= 1, "empty tridiagonal system");
        assert_eq!(sub.len(), n - 1, "sub-diagonal must have n-1 entries");
        assert_eq!(sup.len(), n - 1, "super-diagonal must have n-1 entries");
        Tridiagonal { sub, diag, sup }
    }

    /// Dimension of the system.
    pub fn n(&self) -> usize {
        self.diag.len()
    }

    /// Matrix–vector product `A x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.n();
        assert_eq!(x.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = self.diag[i] * x[i];
            if i > 0 {
                acc += self.sub[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                acc += self.sup[i] * x[i + 1];
            }
            y[i] = acc;
        }
        y
    }
}

/// Solve the tridiagonal system `A x = d` with the Thomas algorithm.
///
/// The standard elimination without pivoting; valid for the diagonally
/// dominant systems produced by θ-scheme discretisations of the
/// Black–Scholes operator. Returns `None` when a pivot underflows (system
/// numerically singular).
pub fn solve_tridiagonal(a: &Tridiagonal, d: &[f64]) -> Option<Vec<f64>> {
    let n = a.n();
    assert_eq!(d.len(), n);
    let mut c_star = vec![0.0; n];
    let mut d_star = vec![0.0; n];
    let mut denom = a.diag[0];
    if denom.abs() < 1e-300 {
        return None;
    }
    c_star[0] = if n > 1 { a.sup[0] / denom } else { 0.0 };
    d_star[0] = d[0] / denom;
    for i in 1..n {
        denom = a.diag[i] - a.sub[i - 1] * c_star[i - 1];
        if denom.abs() < 1e-300 {
            return None;
        }
        if i + 1 < n {
            c_star[i] = a.sup[i] / denom;
        }
        d_star[i] = (d[i] - a.sub[i - 1] * d_star[i - 1]) / denom;
    }
    let mut x = d_star;
    for i in (0..n - 1).rev() {
        let next = x[i + 1];
        x[i] -= c_star[i] * next;
    }
    Some(x)
}

/// Solve a dense system `A x = b` by Gaussian elimination with partial
/// pivoting. `a` is row-major `n*n`; `a` and `b` are consumed. Returns
/// `None` for a singular matrix. Used for validation and for the small
/// regression systems where QR is overkill.
pub fn solve_dense(mut a: Vec<f64>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "matrix shape mismatch");
    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        let mut best = a[col * n + col].abs();
        for row in col + 1..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                piv = row;
            }
        }
        if best < 1e-300 {
            return None;
        }
        if piv != col {
            for k in 0..n {
                a.swap(col * n + k, piv * n + k);
            }
            b.swap(col, piv);
        }
        let inv = 1.0 / a[col * n + col];
        for row in col + 1..n {
            let f = a[row * n + col] * inv;
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    Some(x)
}

/// Cholesky factorisation of a symmetric positive-definite matrix.
///
/// `a` is row-major `n*n`; returns the lower-triangular factor `L`
/// (row-major, upper part zeroed) with `L Lᵀ = A`, or `None` if the matrix
/// is not positive definite. The oracle that
/// [`crate::rng::CorrelatedNormals`]'s two-vector factor is tested
/// against, bit for bit.
#[cfg(test)]
pub(crate) fn cholesky(a: &[f64], n: usize) -> Option<Vec<f64>> {
    assert_eq!(a.len(), n * n);
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Some(l)
}

/// Least squares `min ‖A x − b‖₂` via Householder QR.
///
/// `a` is row-major `m*n` with `m ≥ n`; returns the coefficient vector of
/// length `n`. This is the solver behind the Longstaff–Schwartz regression;
/// QR keeps the conditioning of the polynomial basis manageable.
pub fn lstsq(a: &[f64], m: usize, n: usize, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.len(), m * n);
    assert_eq!(b.len(), m);
    assert!(m >= n, "least squares needs m >= n");
    let mut r = a.to_vec();
    let mut qtb = b.to_vec();
    // Rank tolerance relative to the matrix scale: a column whose remaining
    // norm falls below this is treated as linearly dependent.
    let scale = a.iter().fold(0.0_f64, |mx, &x| mx.max(x.abs())).max(1e-300);
    let tol = scale * 1e-10 * m as f64;
    for k in 0..n {
        // Householder vector for column k.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[i * n + k] * r[i * n + k];
        }
        let norm = norm.sqrt();
        if norm < tol {
            return None;
        }
        let alpha = if r[k * n + k] > 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m - k];
        v[0] = r[k * n + k] - alpha;
        for i in k + 1..m {
            v[i - k] = r[i * n + k];
        }
        let vtv: f64 = v.iter().map(|x| x * x).sum();
        if vtv < 1e-300 {
            continue;
        }
        r[k * n + k] = alpha;
        for i in k + 1..m {
            r[i * n + k] = 0.0;
        }
        // Apply H = I - 2 v vᵀ / vᵀv to remaining columns and to b.
        for j in k + 1..n {
            let mut dot = 0.0;
            for i in k..m {
                let vi = if i == k { v[0] } else { v[i - k] };
                dot += vi * r[i * n + j];
            }
            let f = 2.0 * dot / vtv;
            for i in k..m {
                let vi = if i == k { v[0] } else { v[i - k] };
                r[i * n + j] -= f * vi;
            }
        }
        let mut dot = 0.0;
        for i in k..m {
            dot += v[i - k] * qtb[i];
        }
        let f = 2.0 * dot / vtv;
        for i in k..m {
            qtb[i] -= f * v[i - k];
        }
    }
    // Back substitution on the upper triangle of R.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = qtb[row];
        for k in row + 1..n {
            acc -= r[row * n + k] * x[k];
        }
        let d = r[row * n + row];
        if d.abs() < tol {
            return None;
        }
        x[row] = acc / d;
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thomas_solves_known_system() {
        // A = [[2,1,0],[1,2,1],[0,1,2]], x = [1,2,3] -> d = [4,8,8]
        let a = Tridiagonal::new(vec![1.0, 1.0], vec![2.0, 2.0, 2.0], vec![1.0, 1.0]);
        let x = solve_tridiagonal(&a, &[4.0, 8.0, 8.0]).unwrap();
        for (xi, want) in x.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((xi - want).abs() < 1e-12);
        }
    }

    #[test]
    fn thomas_matches_dense_solver() {
        let n = 64;
        let sub = vec![-0.4; n - 1];
        let diag = vec![2.2; n];
        let sup = vec![-0.7; n - 1];
        let tri = Tridiagonal::new(sub.clone(), diag.clone(), sup.clone());
        let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = solve_tridiagonal(&tri, &d).unwrap();
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            dense[i * n + i] = diag[i];
            if i > 0 {
                dense[i * n + i - 1] = sub[i - 1];
            }
            if i + 1 < n {
                dense[i * n + i + 1] = sup[i];
            }
        }
        let xd = solve_dense(dense, d).unwrap();
        for (a, b) in x.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn thomas_single_element() {
        let a = Tridiagonal::new(vec![], vec![4.0], vec![]);
        let x = solve_tridiagonal(&a, &[8.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn thomas_residual_is_small() {
        let n = 200;
        let tri = Tridiagonal::new(vec![1.0; n - 1], vec![4.0; n], vec![1.5; n - 1]);
        let d: Vec<f64> = (0..n).map(|i| ((i * i) as f64).cos()).collect();
        let x = solve_tridiagonal(&tri, &d).unwrap();
        let r = tri.mul_vec(&x);
        for (ri, di) in r.iter().zip(&d) {
            assert!((ri - di).abs() < 1e-10);
        }
    }

    #[test]
    fn thomas_detects_singular() {
        let a = Tridiagonal::new(vec![0.0], vec![0.0, 1.0], vec![0.0]);
        assert!(solve_tridiagonal(&a, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn dense_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let x = solve_dense(a, vec![3.0, -7.0]).unwrap();
        assert_eq!(x, vec![3.0, -7.0]);
    }

    #[test]
    fn dense_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let x = solve_dense(a, vec![2.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn dense_singular_returns_none() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(solve_dense(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn cholesky_of_known_matrix() {
        // A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]]
        let l = cholesky(&[4.0, 2.0, 2.0, 3.0], 2).unwrap();
        assert!((l[0] - 2.0).abs() < 1e-14);
        assert!((l[2] - 1.0).abs() < 1e-14);
        assert!((l[3] - 2.0_f64.sqrt()).abs() < 1e-14);
        assert_eq!(l[1], 0.0);
    }

    #[test]
    fn cholesky_reconstructs() {
        // Correlation matrix with constant off-diagonal rho, like the
        // basket pricer uses.
        let n = 7;
        let rho = 0.3;
        let mut a = vec![rho; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let l = cholesky(&a, n).unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += l[i * n + k] * l[j * n + k];
                }
                assert!((acc - a[i * n + j]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(cholesky(&a, 2).is_none());
    }

    #[test]
    fn lstsq_exact_fit() {
        // Fit y = 2 + 3x exactly with basis [1, x].
        let xs = [0.0, 1.0, 2.0, 3.0];
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &x in &xs {
            a.extend_from_slice(&[1.0, x]);
            b.push(2.0 + 3.0 * x);
        }
        let c = lstsq(&a, 4, 2, &b).unwrap();
        assert!((c[0] - 2.0).abs() < 1e-12);
        assert!((c[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_overdetermined_matches_normal_equations() {
        // Noisy quadratic; compare with the normal-equation solution via
        // the dense solver.
        let m = 40;
        let n = 3;
        let mut a = Vec::with_capacity(m * n);
        let mut b = Vec::with_capacity(m);
        for i in 0..m {
            let x = i as f64 / m as f64 * 4.0 - 2.0;
            a.extend_from_slice(&[1.0, x, x * x]);
            b.push(1.0 - 0.5 * x + 0.25 * x * x + (i as f64 * 12.9898).sin() * 0.01);
        }
        let qr = lstsq(&a, m, n, &b).unwrap();
        // Normal equations AᵀA x = Aᵀ b
        let mut ata = vec![0.0; n * n];
        let mut atb = vec![0.0; n];
        for i in 0..m {
            for p in 0..n {
                atb[p] += a[i * n + p] * b[i];
                for q in 0..n {
                    ata[p * n + q] += a[i * n + p] * a[i * n + q];
                }
            }
        }
        let ne = solve_dense(ata, atb).unwrap();
        for (x, y) in qr.iter().zip(&ne) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn lstsq_rank_deficient_returns_none() {
        // Two identical columns.
        let a = vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        assert!(lstsq(&a, 3, 2, &[1.0, 2.0, 3.0]).is_none());
    }
}
