//! Finite-difference (PDE) pricing in the Black–Scholes model.
//!
//! §4.3 prices the down-and-out barrier calls and the American puts with
//! "partial differential equation techniques"; this module is that engine:
//! a θ-scheme (Crank–Nicolson with a Rannacher implicit start) on the
//! log-spot heat-like equation
//!
//! ```text
//! V_t + (r − q − σ²/2) V_x + (σ²/2) V_xx − r V = 0,   x = ln S
//! ```
//!
//! solved backward from the payoff. Knock-out barriers become Dirichlet
//! boundaries placed exactly on `ln H` (the paper notes the barrier clause
//! forces "a very thin time step, namely one time step every 2 days" —
//! the benchmark uses the same density). American exercise is handled with
//! projected SOR (PSOR) on the implicit system.

use crate::models::BlackScholes;
use crate::options::{Barrier, BarrierKind, Exercise, OptionRight, Vanilla};
use numerics::interp;

/// Discretisation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdeConfig {
    /// Number of time steps between valuation date and maturity.
    pub time_steps: usize,
    /// Number of space intervals (grid has `space_steps + 1` nodes).
    pub space_steps: usize,
    /// Half-width of the log-space domain in units of `σ√T`.
    pub width_std_devs: f64,
    /// Replace the first two Crank–Nicolson steps by four implicit
    /// half-steps (Rannacher smoothing of the kinked payoff).
    pub rannacher: bool,
}

impl Default for PdeConfig {
    fn default() -> Self {
        PdeConfig {
            time_steps: 200,
            space_steps: 400,
            width_std_devs: 5.0,
            rannacher: true,
        }
    }
}

impl PdeConfig {
    /// Parameter sanity checks; `Err` describes the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.time_steps < 1 || self.space_steps < 3 {
            return Err("PDE grid too small".into());
        }
        if !(self.width_std_devs > 0.0) {
            return Err("domain width must be positive".into());
        }
        Ok(())
    }
}

/// A Dirichlet boundary condition as a function of time-to-maturity.
type BcFn<'a> = Box<dyn Fn(f64) -> f64 + 'a>;

/// Price (and delta read off the grid) from a PDE solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdeSolution {
    /// Price estimate.
    pub price: f64,
    /// First derivative of the price w.r.t. spot.
    pub delta: f64,
}

/// Internal: backward θ-scheme over a fixed log-grid with Dirichlet
/// boundaries and an optional early-exercise obstacle.
struct Solver<'a> {
    model: &'a BlackScholes,
    xs: Vec<f64>,
    dx: f64,
    dt: f64,
    maturity: f64,
    /// payoff(S) at every node, the terminal condition and PSOR obstacle.
    payoff: Vec<f64>,
    /// Boundary values as functions of time-to-maturity τ.
    lower_bc: Box<dyn Fn(f64) -> f64 + 'a>,
    upper_bc: Box<dyn Fn(f64) -> f64 + 'a>,
}

/// The θ-scheme for one `(θ, dt)` pair. The matrix `I − θ·dt·L` is the
/// same at every time step that shares the pair — a solve has two: the
/// Rannacher half-steps and the Crank–Nicolson steps — so its bands
/// and, for the linear solve, the Thomas pivots are worked out once
/// (with the expressions [`numerics::linalg::solve_tridiagonal`] uses,
/// hence the same bits).
struct Scheme {
    /// Stencil of `L = a·D_xx + b·D_x − r·I` on interior nodes.
    lo: f64,
    mid: f64,
    hi: f64,
    /// `(1 − θ)·dt`, the explicit side's weight.
    explicit: f64,
    /// `θ·dt`, the implicit side's weight.
    implicit: f64,
    /// Bands of `I − θ·dt·L`.
    sub: f64,
    diag: f64,
    sup: f64,
    /// Thomas pivots `denom_i` and ratios `c*_i = sup / denom_i` per
    /// grid node (the ends are boundary nodes: unused). Left empty
    /// under an obstacle — PSOR does not factor.
    denom: Vec<f64>,
    c_star: Vec<f64>,
}

/// Sweeps per PSOR wave (see [`psor`]).
const PSOR_WAVE: usize = 4;
/// Grid rows a wave works on: its starting iterate and one per sweep.
const PSOR_ROWS: usize = PSOR_WAVE + 1;
const PSOR_OMEGA: f64 = 1.3;
const PSOR_TOL: f64 = 1e-9;
const PSOR_MAX_ITER: usize = 2000;

/// Projected SOR on the linear complementarity problem
/// `min(A w − rhs, w − payoff) = 0` over the interior nodes `1..n−1`.
///
/// `w` holds [`PSOR_ROWS`] grid rows of `n` nodes, each carrying the
/// Dirichlet values at both ends; row 0 is the warm start. Returns the
/// row the sweep-at-a-time iteration would have stopped on: the first
/// sweep whose largest update is below `tol`, else sweep `max_iter`.
///
/// A sweep is a Gauss–Seidel recurrence — node `i` needs the sweep's own
/// node `i−1` — with a divide on the chain, so one sweep keeps the CPU
/// waiting. But sweep `j+1` needs from sweep `j` only nodes `i` and
/// `i+1`: it can start two nodes behind, and [`PSOR_WAVE`] consecutive
/// sweeps run as one wavefront of independent chains, sweep `j` of the
/// wave reading row `j` and its own left neighbour and writing row
/// `j+1`. Every node sees the operands the sequential sweeps would have
/// given it, in the same order, so rows are bit-identical; sweeps of a
/// wave past the converged one are speculation, and are discarded.
fn psor(
    w: &mut [f64],
    rhs: &[f64],
    payoff: &[f64],
    (dlo, dmid, dhi): (f64, f64, f64),
    tol: f64,
    max_iter: usize,
) -> usize {
    let n = rhs.len();
    let m = n - 2;
    let mut base = 0;
    let mut done = 0;
    while done < max_iter {
        let depth = PSOR_WAVE.min(max_iter - done);
        // Offset of the row sweep `j` reads (`j + 1`: writes).
        let row: [usize; PSOR_ROWS] = std::array::from_fn(|j| (base + j) % PSOR_ROWS * n);
        let mut err = [0.0f64; PSOR_WAVE];
        let mut relax = |j: usize, i: usize| {
            let (prev, cur) = (row[j], row[j + 1]);
            let old = w[prev + i];
            let gs = (rhs[i] - dlo * w[cur + i - 1] - dhi * w[prev + i + 1]) / dmid;
            let cand = old + PSOR_OMEGA * (gs - old);
            let proj = cand.max(payoff[i]);
            err[j] = err[j].max((proj - old).abs());
            w[cur + i] = proj;
        };
        // At step `t` sweep `j` is on node `t + 1 − 2j`.
        let lag = 2 * (PSOR_WAVE - 1);
        for t in 0..m + 2 * (depth - 1) {
            if depth == PSOR_WAVE && t >= lag && t < m {
                for j in 0..PSOR_WAVE {
                    relax(j, t + 1 - 2 * j);
                }
            } else {
                for j in 0..depth {
                    if t >= 2 * j && t - 2 * j < m {
                        relax(j, t + 1 - 2 * j);
                    }
                }
            }
        }
        if let Some(j) = err[..depth].iter().position(|e| *e < tol) {
            return (base + j + 1) % PSOR_ROWS;
        }
        base = (base + depth) % PSOR_ROWS;
        done += depth;
    }
    base
}

/// Per-solve scratch of [`Solver::step`], reused across time steps.
struct Scratch {
    /// `(I + (1−θ)·dt·L) v` plus boundary terms, per grid node.
    rhs: Vec<f64>,
    /// The PSOR wave rows (empty for a linear solve).
    w: Vec<f64>,
}

impl<'a> Solver<'a> {
    fn scheme(&self, theta: f64, dt: f64, obstacle: bool) -> Scheme {
        let n = self.xs.len();
        let m = self.model;
        let a = 0.5 * m.sigma * m.sigma; // diffusion
        let b = m.rate - m.dividend - 0.5 * m.sigma * m.sigma; // drift
        let r = m.rate;
        let dx = self.dx;

        // Spatial operator stencil on interior nodes:
        // L = a D_xx + b D_x - r I.
        let lo = a / (dx * dx) - b / (2.0 * dx);
        let mid = -2.0 * a / (dx * dx) - r;
        let hi = a / (dx * dx) + b / (2.0 * dx);
        let sub = -theta * dt * lo;
        let diag = 1.0 - theta * dt * mid;
        let sup = -theta * dt * hi;

        let mut denom = Vec::new();
        let mut c_star = Vec::new();
        if !obstacle {
            denom.resize(n, 0.0);
            c_star.resize(n, 0.0);
            for i in 1..n - 1 {
                denom[i] = if i == 1 {
                    diag
                } else {
                    diag - sub * c_star[i - 1]
                };
                if denom[i].abs() < 1e-300 {
                    panic!("θ-scheme system is diagonally dominant");
                }
                if i + 1 < n - 1 {
                    c_star[i] = sup / denom[i];
                }
            }
        }
        Scheme {
            lo,
            mid,
            hi,
            explicit: (1.0 - theta) * dt,
            implicit: theta * dt,
            sub,
            diag,
            sup,
            denom,
            c_star,
        }
    }

    /// One backward step of scheme `k`; `v` holds V(τ) and receives
    /// V(τ + dt). `obstacle` enables the American projection.
    fn step(&self, v: &mut [f64], tau_next: f64, k: &Scheme, obstacle: bool, sc: &mut Scratch) {
        let n = self.xs.len();
        let rhs = &mut sc.rhs;

        // RHS: (I + (1-θ) dt L) v  on interior nodes.
        for i in 1..n - 1 {
            let lv = k.lo * v[i - 1] + k.mid * v[i] + k.hi * v[i + 1];
            rhs[i] = v[i] + k.explicit * lv;
        }
        // New boundary values (Dirichlet).
        let vl = (self.lower_bc)(tau_next);
        let vu = (self.upper_bc)(tau_next);
        // Move the boundary terms of the implicit operator to the RHS.
        rhs[1] += k.implicit * k.lo * vl;
        rhs[n - 2] += k.implicit * k.hi * vu;

        if !obstacle {
            // Thomas: forward-eliminate into `v`, back-substitute in place.
            v[0] = vl;
            v[n - 1] = vu;
            v[1] = rhs[1] / k.denom[1];
            for i in 2..n - 1 {
                v[i] = (rhs[i] - k.sub * v[i - 1]) / k.denom[i];
            }
            for i in (1..n - 2).rev() {
                let next = v[i + 1];
                v[i] -= k.c_star[i] * next;
            }
        } else {
            // Warm start from the current values projected on the payoff.
            let w = &mut sc.w;
            for i in 1..n - 1 {
                w[i] = v[i].max(self.payoff[i]);
            }
            for row in w.chunks_exact_mut(n) {
                row[0] = vl;
                row[n - 1] = vu;
            }
            let bands = (k.sub, k.diag, k.sup);
            let at = n * psor(w, rhs, &self.payoff, bands, PSOR_TOL, PSOR_MAX_ITER);
            v[0] = vl.max(self.payoff[0]);
            v[n - 1] = vu.max(self.payoff[n - 1]);
            v[1..n - 1].copy_from_slice(&w[at + 1..at + n - 1]);
        }
    }

    /// Run the full backward induction and return the value surface at
    /// τ = T (valuation date).
    fn solve(&self, cfg: &PdeConfig, obstacle: bool) -> Vec<f64> {
        let n = self.xs.len();
        let mut v = self.payoff.clone();
        let mut sc = Scratch {
            rhs: vec![0.0; n],
            w: vec![0.0; if obstacle { PSOR_ROWS * n } else { 0 }],
        };
        let rannacher = cfg.rannacher && cfg.time_steps > 2;
        let half = rannacher.then(|| self.scheme(1.0, self.dt / 2.0, obstacle));
        let full = self.scheme(0.5, self.dt, obstacle);
        let mut tau = 0.0;
        let mut steps_left = cfg.time_steps;
        if let Some(half) = &half {
            // Four implicit half-steps over the first two step intervals.
            for _ in 0..4 {
                tau += self.dt / 2.0;
                self.step(&mut v, tau, half, obstacle, &mut sc);
            }
            steps_left -= 2;
        }
        for _ in 0..steps_left {
            tau += self.dt;
            self.step(&mut v, tau, &full, obstacle, &mut sc);
        }
        debug_assert!((tau - self.maturity).abs() < 1e-9 * self.maturity.max(1.0));
        v
    }

    /// Read price and delta at the spot.
    fn read(&self, v: &[f64]) -> PdeSolution {
        let x0 = self.model.spot.ln();
        let price = interp::linear(&self.xs, v, x0);
        // dV/dS = (dV/dx) / S.
        let dvdx = interp::derivative(&self.xs, v, x0);
        PdeSolution {
            price,
            delta: dvdx / self.model.spot,
        }
    }
}

fn uniform_grid(x_min: f64, x_max: f64, n: usize) -> (Vec<f64>, f64) {
    let dx = (x_max - x_min) / n as f64;
    ((0..=n).map(|i| x_min + i as f64 * dx).collect(), dx)
}

/// Price a European or American vanilla option by finite differences.
pub fn pde_vanilla(m: &BlackScholes, option: &Vanilla, cfg: &PdeConfig) -> PdeSolution {
    let solver = vanilla_solver(m, option, cfg);
    let v = solver.solve(cfg, option.exercise == Exercise::American);
    solver.read(&v)
}

fn vanilla_solver<'a>(m: &'a BlackScholes, option: &Vanilla, cfg: &PdeConfig) -> Solver<'a> {
    cfg.validate().expect("invalid PDE config");
    option.validate().expect("invalid option");
    let t = option.maturity;
    let k = option.strike;
    let half_width =
        cfg.width_std_devs * m.sigma * t.sqrt() + (m.rate - m.dividend).abs() * t + 1e-9;
    let center = m.spot.ln().min(k.ln());
    let center_hi = m.spot.ln().max(k.ln());
    let (xs, dx) = uniform_grid(center - half_width, center_hi + half_width, cfg.space_steps);
    let payoff: Vec<f64> = xs.iter().map(|&x| option.payoff(x.exp())).collect();

    let s_min = xs[0].exp();
    let s_max = xs[xs.len() - 1].exp();
    let (lower_bc, upper_bc): (BcFn<'_>, BcFn<'_>) = match (option.right, option.exercise) {
        (OptionRight::Call, _) => (
            Box::new(move |_tau: f64| 0.0),
            Box::new(move |tau: f64| s_max * (-m.dividend * tau).exp() - k * (-m.rate * tau).exp()),
        ),
        (OptionRight::Put, Exercise::European) => (
            Box::new(move |tau: f64| k * (-m.rate * tau).exp() - s_min * (-m.dividend * tau).exp()),
            Box::new(move |_tau: f64| 0.0),
        ),
        (OptionRight::Put, Exercise::American) => (
            // Deep in the money an American put is exercised: V = K - S.
            Box::new(move |_tau: f64| k - s_min),
            Box::new(move |_tau: f64| 0.0),
        ),
    };

    Solver {
        model: m,
        xs,
        dx,
        dt: t / cfg.time_steps as f64,
        maturity: t,
        payoff,
        lower_bc,
        upper_bc,
    }
}

/// Price a continuously monitored knock-out barrier option by finite
/// differences, with the knocked-out boundary placed exactly on `ln H`.
pub fn pde_barrier(m: &BlackScholes, option: &Barrier, cfg: &PdeConfig) -> PdeSolution {
    cfg.validate().expect("invalid PDE config");
    option.validate().expect("invalid option");
    if option.knocked_out(m.spot) {
        return PdeSolution {
            price: option.rebate,
            delta: 0.0,
        };
    }
    let solver = barrier_solver(m, option, cfg);
    let v = solver.solve(cfg, false);
    solver.read(&v)
}

fn barrier_solver<'a>(m: &'a BlackScholes, option: &'a Barrier, cfg: &PdeConfig) -> Solver<'a> {
    let t = option.maturity;
    let k = option.strike;
    let rebate = option.rebate;
    let half_width =
        cfg.width_std_devs * m.sigma * t.sqrt() + (m.rate - m.dividend).abs() * t + 1e-9;

    let (x_min, x_max) = match option.kind {
        BarrierKind::DownOut => (option.barrier.ln(), m.spot.ln().max(k.ln()) + half_width),
        BarrierKind::UpOut => (m.spot.ln().min(k.ln()) - half_width, option.barrier.ln()),
    };
    let (xs, dx) = uniform_grid(x_min, x_max, cfg.space_steps);
    let payoff: Vec<f64> = xs
        .iter()
        .map(|&x| {
            let s = x.exp();
            if option.knocked_out(s) {
                rebate
            } else {
                option.payoff(s)
            }
        })
        .collect();

    let s_min = xs[0].exp();
    let s_max = xs[xs.len() - 1].exp();
    let (lower_bc, upper_bc): (BcFn<'_>, BcFn<'_>) = match option.kind {
        BarrierKind::DownOut => (
            Box::new(move |_tau: f64| rebate),
            Box::new(move |tau: f64| match option.right {
                // Far above strike and barrier the option behaves like a
                // forward.
                OptionRight::Call => s_max * (-m.dividend * tau).exp() - k * (-m.rate * tau).exp(),
                OptionRight::Put => 0.0,
            }),
        ),
        BarrierKind::UpOut => (
            Box::new(move |tau: f64| match option.right {
                OptionRight::Put => k * (-m.rate * tau).exp() - s_min * (-m.dividend * tau).exp(),
                OptionRight::Call => 0.0,
            }),
            Box::new(move |_tau: f64| rebate),
        ),
    };

    Solver {
        model: m,
        xs,
        dx,
        dt: t / cfg.time_steps as f64,
        maturity: t,
        payoff,
        lower_bc,
        upper_bc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::closed_form::{bs_price, down_out_call_price};

    fn model() -> BlackScholes {
        BlackScholes::new(100.0, 0.2, 0.05, 0.0)
    }

    fn cfg() -> PdeConfig {
        PdeConfig::default()
    }

    #[test]
    fn european_call_matches_closed_form() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let pde = pde_vanilla(&m, &opt, &cfg());
        let exact = bs_price(&m, &opt);
        assert!(
            (pde.price - exact.price).abs() < 0.01,
            "pde {} exact {}",
            pde.price,
            exact.price
        );
        assert!((pde.delta - exact.delta).abs() < 0.005);
    }

    #[test]
    fn european_put_matches_closed_form() {
        let m = model();
        for k in [80.0, 100.0, 120.0] {
            let opt = Vanilla::european_put(k, 0.5);
            let pde = pde_vanilla(&m, &opt, &cfg());
            let exact = bs_price(&m, &opt).price;
            assert!(
                (pde.price - exact).abs() < 0.01,
                "k={k}: pde {} exact {exact}",
                pde.price
            );
        }
    }

    #[test]
    fn convergence_under_refinement() {
        let m = model();
        let opt = Vanilla::european_call(105.0, 1.0);
        let exact = bs_price(&m, &opt).price;
        let coarse = pde_vanilla(
            &m,
            &opt,
            &PdeConfig {
                time_steps: 25,
                space_steps: 50,
                ..cfg()
            },
        )
        .price;
        let fine = pde_vanilla(
            &m,
            &opt,
            &PdeConfig {
                time_steps: 400,
                space_steps: 800,
                ..cfg()
            },
        )
        .price;
        assert!((fine - exact).abs() < (coarse - exact).abs());
        assert!((fine - exact).abs() < 2e-3);
    }

    #[test]
    fn american_put_reference_value() {
        // S=K=100, r=0.05, σ=0.2, T=1: American put ≈ 6.0903 (e.g.
        // binomial with 10⁴ steps / PSOR benchmarks quote 6.086–6.093).
        let m = model();
        let opt = Vanilla::american_put(100.0, 1.0);
        let pde = pde_vanilla(
            &m,
            &opt,
            &PdeConfig {
                time_steps: 400,
                space_steps: 800,
                ..cfg()
            },
        );
        assert!(
            (pde.price - 6.090).abs() < 0.02,
            "american put {}",
            pde.price
        );
    }

    #[test]
    fn american_put_dominates_european() {
        let m = model();
        for k in [80.0, 100.0, 120.0] {
            let eur = bs_price(&m, &Vanilla::european_put(k, 1.0)).price;
            let amer = pde_vanilla(&m, &Vanilla::american_put(k, 1.0), &cfg()).price;
            assert!(
                amer >= eur - 5e-3,
                "k={k}: american {amer} < european {eur}"
            );
        }
    }

    #[test]
    fn american_put_at_least_intrinsic() {
        let m = BlackScholes::new(70.0, 0.2, 0.05, 0.0);
        let amer = pde_vanilla(&m, &Vanilla::american_put(100.0, 1.0), &cfg()).price;
        // Grid interpolation leaves a sub-millicent wiggle below the
        // obstacle; intrinsic must hold up to that discretisation error.
        assert!(amer >= 30.0 - 1e-3, "price {amer} below intrinsic 30");
    }

    #[test]
    fn barrier_matches_closed_form() {
        let m = model();
        let opt = Barrier::down_out_call(100.0, 85.0, 1.0);
        let exact = down_out_call_price(&m, &opt);
        let pde = pde_barrier(
            &m,
            &opt,
            &PdeConfig {
                time_steps: 400,
                space_steps: 800,
                ..cfg()
            },
        );
        assert!(
            (pde.price - exact).abs() < 0.02,
            "pde {} exact {exact}",
            pde.price
        );
    }

    #[test]
    fn barrier_knocked_out_at_start() {
        let m = BlackScholes::new(80.0, 0.2, 0.05, 0.0);
        let opt = Barrier::down_out_call(100.0, 85.0, 1.0);
        let pde = pde_barrier(&m, &opt, &cfg());
        assert_eq!(pde.price, 0.0);
    }

    #[test]
    fn barrier_below_vanilla_and_positive() {
        let m = model();
        let vanilla = bs_price(&m, &Vanilla::european_call(100.0, 1.0)).price;
        let pde = pde_barrier(&m, &Barrier::down_out_call(100.0, 90.0, 1.0), &cfg());
        assert!(pde.price > 0.0 && pde.price < vanilla);
        // Delta of a down-and-out call near the barrier exceeds vanilla
        // delta (value must fall to zero at H).
        assert!(pde.delta > 0.0);
    }

    #[test]
    fn up_out_put_priced() {
        let m = model();
        let opt = Barrier {
            right: OptionRight::Put,
            kind: BarrierKind::UpOut,
            strike: 100.0,
            barrier: 130.0,
            maturity: 1.0,
            rebate: 0.0,
        };
        let p = pde_barrier(&m, &opt, &cfg());
        let vanilla = bs_price(&m, &Vanilla::european_put(100.0, 1.0)).price;
        assert!(p.price > 0.0 && p.price < vanilla);
    }

    #[test]
    fn thin_time_steps_like_paper_barrier_spec() {
        // §4.3: barrier PDE uses one time step every 2 days → T=1 means
        // ~180 steps. Check it runs and stays accurate.
        let m = model();
        let opt = Barrier::down_out_call(100.0, 85.0, 1.0);
        let exact = down_out_call_price(&m, &opt);
        let pde = pde_barrier(
            &m,
            &opt,
            &PdeConfig {
                time_steps: 180,
                space_steps: 400,
                ..cfg()
            },
        );
        assert!((pde.price - exact).abs() < 0.05);
    }

    /// The sweep-at-a-time PSOR the wavefront replaced, kept as the
    /// oracle: `w` is one grid row (Dirichlet ends in place), relaxed in
    /// place; returns the number of sweeps run.
    fn psor_naive(
        w: &mut [f64],
        rhs: &[f64],
        payoff: &[f64],
        (dlo, dmid, dhi): (f64, f64, f64),
        tol: f64,
        max_iter: usize,
    ) -> usize {
        let n = rhs.len();
        for sweep in 1..=max_iter {
            let mut err: f64 = 0.0;
            for i in 1..n - 1 {
                let gs = (rhs[i] - dlo * w[i - 1] - dhi * w[i + 1]) / dmid;
                let cand = w[i] + PSOR_OMEGA * (gs - w[i]);
                let proj = cand.max(payoff[i]);
                err = err.max((proj - w[i]).abs());
                w[i] = proj;
            }
            if err < tol {
                return sweep;
            }
        }
        max_iter
    }

    /// The allocate-per-step θ-scheme step the tabulated one replaced,
    /// kept as the oracle: bands rebuilt and factored by
    /// `solve_tridiagonal` every step, PSOR sweep at a time.
    fn step_naive(s: &Solver, v: &mut [f64], tau_next: f64, theta: f64, dt: f64, obstacle: bool) {
        use numerics::linalg::{solve_tridiagonal, Tridiagonal};
        let n = s.xs.len();
        let k = s.scheme(theta, dt, true);
        let mut rhs = vec![0.0; n];
        for i in 1..n - 1 {
            let lv = k.lo * v[i - 1] + k.mid * v[i] + k.hi * v[i + 1];
            rhs[i] = v[i] + (1.0 - theta) * dt * lv;
        }
        let vl = (s.lower_bc)(tau_next);
        let vu = (s.upper_bc)(tau_next);
        rhs[1] += theta * dt * k.lo * vl;
        rhs[n - 2] += theta * dt * k.hi * vu;
        if !obstacle {
            let tri = Tridiagonal::new(vec![k.sub; n - 3], vec![k.diag; n - 2], vec![k.sup; n - 3]);
            let sol = solve_tridiagonal(&tri, &rhs[1..n - 1]).unwrap();
            v[0] = vl;
            v[n - 1] = vu;
            v[1..n - 1].copy_from_slice(&sol);
        } else {
            let mut w: Vec<f64> = (0..n).map(|i| v[i].max(s.payoff[i])).collect();
            w[0] = vl;
            w[n - 1] = vu;
            let bands = (k.sub, k.diag, k.sup);
            psor_naive(&mut w, &rhs, &s.payoff, bands, PSOR_TOL, PSOR_MAX_ITER);
            v[0] = vl.max(s.payoff[0]);
            v[n - 1] = vu.max(s.payoff[n - 1]);
            v[1..n - 1].copy_from_slice(&w[1..n - 1]);
        }
    }

    fn solve_naive(s: &Solver, cfg: &PdeConfig, obstacle: bool) -> PdeSolution {
        let mut v = s.payoff.clone();
        let mut tau = 0.0;
        let mut steps_left = cfg.time_steps;
        if cfg.rannacher && cfg.time_steps > 2 {
            for _ in 0..4 {
                tau += s.dt / 2.0;
                step_naive(s, &mut v, tau, 1.0, s.dt / 2.0, obstacle);
            }
            steps_left -= 2;
        }
        for _ in 0..steps_left {
            tau += s.dt;
            step_naive(s, &mut v, tau, 0.5, s.dt, obstacle);
        }
        s.read(&v)
    }

    fn assert_same_bits(got: PdeSolution, want: PdeSolution, what: &str) {
        assert_eq!(got.price.to_bits(), want.price.to_bits(), "{what}: price");
        assert_eq!(got.delta.to_bits(), want.delta.to_bits(), "{what}: delta");
    }

    #[test]
    fn solves_are_bit_identical_to_the_step_at_a_time_scheme() {
        let m = model();
        let barrier = Barrier::down_out_call(100.0, 85.0, 1.0);
        // 3 is the smallest legal grid; 4, 5 straddle the wave's fill and
        // drain; 60 / 61 are the benchmark's size, even and odd.
        for space_steps in [3usize, 4, 5, 60, 61] {
            for (time_steps, rannacher) in [(2usize, true), (9, true), (9, false)] {
                let cfg = PdeConfig {
                    time_steps,
                    space_steps,
                    rannacher,
                    ..cfg()
                };
                let what = format!("{cfg:?}");
                for opt in [
                    Vanilla::american_put(105.0, 0.75),
                    Vanilla::european_put(105.0, 0.75),
                    Vanilla::european_call(95.0, 0.75),
                ] {
                    let obstacle = opt.exercise == Exercise::American;
                    let want = solve_naive(&vanilla_solver(&m, &opt, &cfg), &cfg, obstacle);
                    assert_same_bits(pde_vanilla(&m, &opt, &cfg), want, &what);
                }
                let want = solve_naive(&barrier_solver(&m, &barrier, &cfg), &cfg, false);
                assert_same_bits(pde_barrier(&m, &barrier, &cfg), want, &what);
            }
        }
    }

    /// One American-put complementarity system: the first Crank–Nicolson
    /// step off the payoff.
    struct PsorCase {
        start: Vec<f64>,
        rhs: Vec<f64>,
        payoff: Vec<f64>,
        bands: (f64, f64, f64),
    }

    fn psor_case(space_steps: usize) -> PsorCase {
        let cfg = PdeConfig {
            time_steps: 20,
            space_steps,
            ..cfg()
        };
        let m = model();
        let s = vanilla_solver(&m, &Vanilla::american_put(100.0, 1.0), &cfg);
        let n = s.xs.len();
        let k = s.scheme(0.5, s.dt, true);
        let mut rhs = vec![0.0; n];
        for i in 1..n - 1 {
            let lv = k.lo * s.payoff[i - 1] + k.mid * s.payoff[i] + k.hi * s.payoff[i + 1];
            rhs[i] = s.payoff[i] + k.explicit * lv;
        }
        let mut start = s.payoff.clone();
        start[0] = (s.lower_bc)(s.dt);
        start[n - 1] = (s.upper_bc)(s.dt);
        PsorCase {
            start,
            rhs,
            payoff: s.payoff.clone(),
            bands: (k.sub, k.diag, k.sup),
        }
    }

    /// Run both PSORs from `start`; assert the wavefront stops on the row
    /// the sweep-at-a-time loop ends with. Returns the sweep count.
    fn check_psor(space_steps: usize, tol: f64, max_iter: usize) -> usize {
        let PsorCase {
            start,
            rhs,
            payoff,
            bands,
        } = psor_case(space_steps);
        let n = start.len();
        let mut want = start.clone();
        let sweeps = psor_naive(&mut want, &rhs, &payoff, bands, tol, max_iter);
        let mut w = vec![0.0; PSOR_ROWS * n];
        for row in w.chunks_exact_mut(n) {
            row.copy_from_slice(&start);
        }
        let at = n * psor(&mut w, &rhs, &payoff, bands, tol, max_iter);
        for i in 0..n {
            assert_eq!(
                w[at + i].to_bits(),
                want[i].to_bits(),
                "space_steps {space_steps} tol {tol} max_iter {max_iter} node {i} ({sweeps} sweeps)"
            );
        }
        sweeps
    }

    #[test]
    fn wavefront_psor_is_bit_identical_to_sweep_at_a_time() {
        let mut stopped_at = [false; PSOR_WAVE];
        for space_steps in [3usize, 4, 5, 60, 61] {
            // Converges on sweep 1: the rest of the wave is speculation.
            assert_eq!(check_psor(space_steps, f64::INFINITY, PSOR_MAX_ITER), 1);
            // Converges wherever the tolerance says, mid-wave included.
            for tol in [1e-1, 1e-2, 1e-3, 1e-5, 1e-7, PSOR_TOL, 1e-12] {
                let sweeps = check_psor(space_steps, tol, PSOR_MAX_ITER);
                assert!(sweeps < PSOR_MAX_ITER, "tol {tol} did not converge");
                stopped_at[sweeps % PSOR_WAVE] = true;
            }
            // Never converges (no error is below zero): exactly `max_iter`
            // sweeps, whole waves or not.
            for max_iter in [1usize, 2, 3, 4, 5, 6, 7, 9, 30] {
                assert_eq!(check_psor(space_steps, 0.0, max_iter), max_iter);
            }
        }
        // The tolerances above stop on every sweep of a wave, so each
        // count of discarded speculative sweeps (0..=3) is exercised.
        assert_eq!(stopped_at, [true; PSOR_WAVE]);
    }
}
