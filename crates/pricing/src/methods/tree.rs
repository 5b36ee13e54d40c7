//! Cox–Ross–Rubinstein binomial trees.
//!
//! Premia "contains finite difference algorithms, **tree methods** and
//! Monte Carlo methods" (§2); the CRR tree is the canonical member of the
//! tree family and doubles as an independent cross-check of the PDE and
//! closed-form prices in the regression suite.

use crate::models::BlackScholes;
use crate::options::{Exercise, Vanilla};

/// Tree discretisation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeConfig {
    /// Number of tree steps.
    pub(crate) steps: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { steps: 500 }
    }
}

impl TreeConfig {
    /// `Err` for a lattice [`tree_vanilla`] asserts against: fewer than
    /// 2 steps, or a risk-neutral probability outside [0, 1] (a zero or
    /// non-finite volatility, or a drift too large for the step).
    pub(crate) fn validate(&self, m: &BlackScholes, maturity: f64) -> Result<(), String> {
        if self.steps < 2 {
            return Err(format!("tree needs at least 2 steps, got {}", self.steps));
        }
        let (_, _, _, p) = lattice(m, maturity, self.steps);
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("risk-neutral probability {p} outside [0,1]"));
        }
        Ok(())
    }
}

/// The CRR lattice of `n` steps to `maturity`: `(dt, u, d, p)`.
fn lattice(m: &BlackScholes, maturity: f64, n: usize) -> (f64, f64, f64, f64) {
    let dt = maturity / n as f64;
    let u = (m.sigma * dt.sqrt()).exp();
    let d = 1.0 / u;
    let growth = ((m.rate - m.dividend) * dt).exp();
    (dt, u, d, (growth - d) / (u - d))
}

/// Price (and first-step delta) from a binomial tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TreeSolution {
    /// Price estimate.
    pub(crate) price: f64,
    /// First derivative of the price w.r.t. spot.
    pub(crate) delta: f64,
}

/// Price a vanilla (European or American) option on a CRR tree:
/// `u = e^{σ√Δt}`, `d = 1/u`, risk-neutral probability
/// `p = (e^{(r−q)Δt} − d)/(u − d)`.
pub(crate) fn tree_vanilla(m: &BlackScholes, option: &Vanilla, cfg: &TreeConfig) -> TreeSolution {
    assert!(cfg.steps >= 2, "tree needs at least 2 steps");
    option.validate().expect("invalid option");
    let n = cfg.steps;
    let (dt, u, d, p) = lattice(m, option.maturity, n);
    assert!(
        (0.0..=1.0).contains(&p),
        "risk-neutral probability {p} outside [0,1]: increase tree steps"
    );
    let disc = (-m.rate * dt).exp();

    // Terminal layer: node j has price S u^j d^{n-j}.
    let mut values: Vec<f64> = (0..=n)
        .map(|j| {
            let s = m.spot * u.powi(j as i32) * d.powi((n - j) as i32);
            option.payoff(s)
        })
        .collect();

    let american = option.exercise == Exercise::American;
    // For the delta we keep the two nodes of the first step.
    let mut first_step: [f64; 2] = [0.0, 0.0];
    for step in (0..n).rev() {
        for j in 0..=step {
            let cont = disc * (p * values[j + 1] + (1.0 - p) * values[j]);
            values[j] = if american {
                let s = m.spot * u.powi(j as i32) * d.powi((step - j) as i32);
                cont.max(option.payoff(s))
            } else {
                cont
            };
        }
        if step == 1 {
            first_step = [values[0], values[1]];
        }
    }
    let s_up = m.spot * u;
    let s_dn = m.spot * d;
    TreeSolution {
        price: values[0],
        delta: (first_step[1] - first_step[0]) / (s_up - s_dn),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::closed_form::bs_price;
    use crate::methods::pde::{pde_vanilla, PdeConfig};

    fn model() -> BlackScholes {
        BlackScholes::new(100.0, 0.2, 0.05, 0.0)
    }

    #[test]
    fn european_call_converges_to_black_scholes() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let exact = bs_price(&m, &opt);
        let tree = tree_vanilla(&m, &opt, &TreeConfig { steps: 2000 });
        assert!(
            (tree.price - exact.price).abs() < 5e-3,
            "tree {} exact {}",
            tree.price,
            exact.price
        );
        assert!((tree.delta - exact.delta).abs() < 5e-3);
    }

    #[test]
    fn european_put_converges() {
        let m = model();
        let opt = Vanilla::european_put(110.0, 0.5);
        let exact = bs_price(&m, &opt).price;
        let tree = tree_vanilla(&m, &opt, &TreeConfig { steps: 2000 }).price;
        assert!((tree - exact).abs() < 5e-3);
    }

    #[test]
    fn richardson_like_error_decay() {
        let m = model();
        let opt = Vanilla::european_call(95.0, 1.0);
        let exact = bs_price(&m, &opt).price;
        let e100 = (tree_vanilla(&m, &opt, &TreeConfig { steps: 100 }).price - exact).abs();
        let e1600 = (tree_vanilla(&m, &opt, &TreeConfig { steps: 1600 }).price - exact).abs();
        assert!(e1600 < e100, "no convergence: {e100} -> {e1600}");
    }

    #[test]
    fn american_put_agrees_with_pde() {
        let m = model();
        let opt = Vanilla::american_put(100.0, 1.0);
        let tree = tree_vanilla(&m, &opt, &TreeConfig { steps: 2000 }).price;
        let pde = pde_vanilla(
            &m,
            &opt,
            &PdeConfig {
                time_steps: 400,
                space_steps: 800,
                ..PdeConfig::default()
            },
        )
        .price;
        assert!((tree - pde).abs() < 0.02, "tree {tree} pde {pde}");
        assert!((tree - 6.090).abs() < 0.02, "reference value: {tree}");
    }

    #[test]
    fn american_call_no_dividend_equals_european() {
        // Without dividends early exercise of a call is never optimal.
        let m = model();
        let eur = Vanilla::european_call(100.0, 1.0);
        let amer = Vanilla {
            exercise: Exercise::American,
            ..eur
        };
        let te = tree_vanilla(&m, &eur, &TreeConfig { steps: 800 }).price;
        let ta = tree_vanilla(&m, &amer, &TreeConfig { steps: 800 }).price;
        assert!((te - ta).abs() < 1e-9);
    }

    #[test]
    fn american_dominates_european_put() {
        let m = model();
        let e = tree_vanilla(
            &m,
            &Vanilla::european_put(100.0, 1.0),
            &TreeConfig { steps: 500 },
        );
        let a = tree_vanilla(
            &m,
            &Vanilla::american_put(100.0, 1.0),
            &TreeConfig { steps: 500 },
        );
        assert!(a.price > e.price);
        // Put deltas negative.
        assert!(a.delta < 0.0 && e.delta < 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_tree() {
        tree_vanilla(
            &model(),
            &Vanilla::european_call(100.0, 1.0),
            &TreeConfig { steps: 1 },
        );
    }
}
