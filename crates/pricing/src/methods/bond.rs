//! Interest-rate derivatives under Vasicek: zero-coupon bonds and
//! European options on them (Jamshidian's closed form), with a
//! Monte-Carlo cross-check pricer.

use crate::lanes::F64s;
use crate::models::Vasicek;
use crate::options::OptionRight;
use exec::{stream_seed, Chunk, ExecPolicy, PathWorkspace};
use numerics::norm_cdf;
use numerics::rng::NormalGen;
use numerics::stats::RunningStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::montecarlo::{McConfig, McResult};

/// Jamshidian's closed form for a European option (expiry `t_opt`) on a
/// zero-coupon bond maturing at `t_bond > t_opt`, strike `strike` (price
/// of the bond at expiry):
///
/// ```text
/// σ_P = σ B(t_opt, t_bond) √((1 − e^{-2κ t_opt})/(2κ))
/// h   = ln(P(0,t_bond)/(K·P(0,t_opt)))/σ_P + σ_P/2
/// C   = P(0,t_bond) N(h) − K P(0,t_opt) N(h − σ_P)
/// ```
pub(crate) fn bond_option_price(
    m: &Vasicek,
    right: OptionRight,
    strike: f64,
    t_opt: f64,
    t_bond: f64,
) -> f64 {
    assert!(t_bond > t_opt && t_opt > 0.0, "need t_bond > t_opt > 0");
    assert!(strike > 0.0, "strike must be positive");
    let p_bond = m.zcb_price(t_bond);
    let p_opt = m.zcb_price(t_opt);
    let sigma_p = m.sigma
        * m.b_factor(t_bond - t_opt)
        * ((1.0 - (-2.0 * m.kappa * t_opt).exp()) / (2.0 * m.kappa)).sqrt();
    let h = (p_bond / (strike * p_opt)).ln() / sigma_p + 0.5 * sigma_p;
    let call = p_bond * norm_cdf(h) - strike * p_opt * norm_cdf(h - sigma_p);
    match right {
        OptionRight::Call => call.max(0.0),
        // Parity: C − P = P(0,S) − K·P(0,T).
        OptionRight::Put => (call - p_bond + strike * p_opt).max(0.0),
    }
}

/// Monte-Carlo zero-coupon bond price `E[e^{-∫₀ᵀ r dt}]` with exact OU
/// transitions and trapezoidal rate integration — the cross-validation
/// pricer for the closed form, and the "rates" workload generator for the
/// farm.
pub fn mc_zcb_price(m: &Vasicek, maturity: f64, cfg: &McConfig) -> McResult {
    cfg.validate().expect("invalid MC config");
    assert!(maturity > 0.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut gen = NormalGen::new();
    let dt = maturity / cfg.time_steps as f64;
    let mut stats = RunningStats::new();
    let mut zs = vec![0.0; cfg.time_steps];
    for _ in 0..cfg.paths {
        gen.fill(&mut rng, &mut zs);
        let d1 = discount_path(m, dt, &zs);
        if cfg.antithetic {
            for z in zs.iter_mut() {
                *z = -*z;
            }
            let d2 = discount_path(m, dt, &zs);
            stats.push(0.5 * (d1 + d2));
        } else {
            stats.push(d1);
        }
    }
    McResult {
        price: stats.mean(),
        std_error: stats.std_error(),
        delta: None,
    }
}

/// Chunked-deterministic variant of [`mc_zcb_price`]: per-chunk
/// [`stream_seed`]-derived OU streams, chunk-order merge — bit-identical
/// for any worker count in `pol`.
pub fn mc_zcb_price_exec(m: &Vasicek, maturity: f64, cfg: &McConfig, pol: &ExecPolicy) -> McResult {
    cfg.validate().expect("invalid MC config");
    assert!(maturity > 0.0);
    let dt = maturity / cfg.time_steps as f64;
    let parts = match pol.lane_width() {
        4 => pol.run_ws(cfg.paths, |c, ws| zcb_chunk_lanes::<4>(m, cfg, dt, c, ws)),
        8 => pol.run_ws(cfg.paths, |c, ws| zcb_chunk_lanes::<8>(m, cfg, dt, c, ws)),
        _ => pol.run_ws(cfg.paths, |c, ws| zcb_chunk_scalar(m, cfg, dt, c, ws)),
    };
    let mut stats = RunningStats::new();
    for p in &parts {
        stats.merge(p);
    }
    McResult {
        price: stats.mean(),
        std_error: stats.std_error(),
        delta: None,
    }
}

/// Scalar (lanes = 1) chunk body; `zs` comes from the per-worker
/// [`PathWorkspace`] pool (zero-filled, numerically identical to the
/// old `vec!`).
fn zcb_chunk_scalar(
    m: &Vasicek,
    cfg: &McConfig,
    dt: f64,
    c: &Chunk,
    ws: &mut PathWorkspace,
) -> RunningStats {
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut gen = NormalGen::new();
    let mut zs = ws.take(cfg.time_steps);
    let mut stats = RunningStats::new();
    for _ in c.start..c.end {
        gen.fill(&mut rng, &mut zs);
        let d1 = discount_path(m, dt, &zs);
        if cfg.antithetic {
            for z in zs.iter_mut() {
                *z = -*z;
            }
            let d2 = discount_path(m, dt, &zs);
            stats.push(0.5 * (d1 + d2));
        } else {
            stats.push(d1);
        }
    }
    ws.put(zs);
    stats
}

/// `L`-wide chunk body: `L` exact OU paths advance in lockstep with one
/// normal group per time step (`(group, step, lane)` draw order) and the
/// trapezoidal rate integral accumulates per lane with fused `mul_add`.
fn zcb_chunk_lanes<const L: usize>(
    m: &Vasicek,
    cfg: &McConfig,
    dt: f64,
    c: &Chunk,
    ws: &mut PathWorkspace,
) -> RunningStats {
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut gen = NormalGen::new();
    let mut zs = ws.take(cfg.time_steps);
    let mut stats = RunningStats::new();
    // Exact OU transition constants: r' = θ + (r − θ)e^{-κΔ} + sd·z.
    let e = (-m.kappa * dt).exp();
    let sd = (m.sigma * m.sigma * (1.0 - e * e) / (2.0 * m.kappa)).sqrt();
    let groups = c.len() / L;
    for _ in 0..groups {
        let mut r = F64s::<L>::splat(m.r0);
        let mut r2 = r;
        let mut integral = F64s::<L>::splat(0.0);
        let mut integral2 = integral;
        for _ in 0..cfg.time_steps {
            let z = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
            let rn = ou_step_lanes(m, e, sd, r, z);
            integral = (r + rn).mul_add(F64s::splat(0.5 * dt), integral);
            r = rn;
            if cfg.antithetic {
                let rn2 = ou_step_lanes(m, e, sd, r2, -z);
                integral2 = (r2 + rn2).mul_add(F64s::splat(0.5 * dt), integral2);
                r2 = rn2;
            }
        }
        let d1 = (-integral).exp();
        if cfg.antithetic {
            let d2 = (-integral2).exp();
            for l in 0..L {
                stats.push(0.5 * (d1.0[l] + d2.0[l]));
            }
        } else {
            for l in 0..L {
                stats.push(d1.0[l]);
            }
        }
    }
    // Tail: remainder paths continue the same chunk stream scalar-style.
    for _ in c.start + groups * L..c.end {
        gen.fill(&mut rng, &mut zs);
        let d1 = discount_path(m, dt, &zs);
        if cfg.antithetic {
            for z in zs.iter_mut() {
                *z = -*z;
            }
            let d2 = discount_path(m, dt, &zs);
            stats.push(0.5 * (d1 + d2));
        } else {
            stats.push(d1);
        }
    }
    ws.put(zs);
    stats
}

/// One lane-wide exact OU step with precomputed decay `e` and noise
/// scale `sd`.
#[inline]
fn ou_step_lanes<const L: usize>(m: &Vasicek, e: f64, sd: f64, r: F64s<L>, z: F64s<L>) -> F64s<L> {
    let theta = F64s::<L>::splat(m.theta);
    (r - theta).mul_add(F64s::splat(e), z.mul_add(F64s::splat(sd), theta))
}

#[inline]
fn discount_path(m: &Vasicek, dt: f64, zs: &[f64]) -> f64 {
    let mut r = m.r0;
    let mut integral = 0.0;
    for &z in zs {
        let r2 = m.step(r, dt, z);
        integral += 0.5 * (r + r2) * dt;
        r = r2;
    }
    (-integral).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Vasicek {
        Vasicek::standard()
    }

    #[test]
    fn bond_call_put_parity() {
        let m = model();
        let (t_opt, t_bond) = (1.0, 3.0);
        for strike in [0.80, 0.90, 0.95] {
            let c = bond_option_price(&m, OptionRight::Call, strike, t_opt, t_bond);
            let p = bond_option_price(&m, OptionRight::Put, strike, t_opt, t_bond);
            let parity = m.zcb_price(t_bond) - strike * m.zcb_price(t_opt);
            assert!((c - p - parity).abs() < 1e-12, "K={strike}");
        }
    }

    #[test]
    fn bond_call_bounds() {
        let m = model();
        let c = bond_option_price(&m, OptionRight::Call, 0.9, 1.0, 3.0);
        assert!(c >= (m.zcb_price(3.0) - 0.9 * m.zcb_price(1.0)).max(0.0) - 1e-14);
        assert!(c <= m.zcb_price(3.0));
        assert!(c > 0.0);
    }

    #[test]
    fn bond_option_increases_with_rate_vol() {
        let mut prev = 0.0;
        for sigma in [0.002, 0.005, 0.01, 0.02, 0.04] {
            let m = Vasicek::new(0.05, 0.8, 0.05, sigma);
            // ATM-forward strike so the option is pure optionality.
            let strike = m.zcb_price(3.0) / m.zcb_price(1.0);
            let c = bond_option_price(&m, OptionRight::Call, strike, 1.0, 3.0);
            assert!(c > prev, "σ={sigma}: {c} !> {prev}");
            prev = c;
        }
    }

    #[test]
    fn bond_option_matches_monte_carlo() {
        // MC: simulate r to t_opt (exact transition), value the bond at
        // expiry with the affine formula, discount along the path.
        let m = model();
        let (t_opt, t_bond, strike) = (1.0, 3.0, 0.90);
        let exact = bond_option_price(&m, OptionRight::Call, strike, t_opt, t_bond);
        let steps = 200;
        let dt = t_opt / steps as f64;
        let mut rng = StdRng::seed_from_u64(5);
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        for _ in 0..40_000 {
            let mut r = m.r0;
            let mut integral = 0.0;
            for _ in 0..steps {
                let r2 = m.step(r, dt, gen.sample(&mut rng));
                integral += 0.5 * (r + r2) * dt;
                r = r2;
            }
            // P(t_opt, t_bond) with short rate r at expiry.
            let shifted = Vasicek { r0: r, ..m };
            let bond = shifted.zcb_price(t_bond - t_opt);
            stats.push((-integral).exp() * (bond - strike).max(0.0));
        }
        assert!(
            (stats.mean() - exact).abs() < 4.0 * stats.std_error() + 2e-5,
            "mc {} ± {} exact {exact}",
            stats.mean(),
            stats.std_error()
        );
    }

    #[test]
    fn mc_zcb_agrees_with_closed_form() {
        let m = model();
        let cfg = McConfig {
            paths: 30_000,
            time_steps: 50,
            antithetic: true,
            seed: 9,
        };
        for t in [0.5, 2.0, 5.0] {
            let mc = mc_zcb_price(&m, t, &cfg);
            let exact = m.zcb_price(t);
            assert!(
                (mc.price - exact).abs() < 4.0 * mc.std_error + 1e-4,
                "T={t}: mc {} ± {} exact {exact}",
                mc.price,
                mc.std_error
            );
        }
    }

    #[test]
    fn exec_zcb_bit_identical_across_worker_counts_and_valid() {
        let m = model();
        let cfg = McConfig {
            paths: 20_000,
            time_steps: 50,
            antithetic: true,
            seed: 9,
        };
        let p1 = mc_zcb_price_exec(&m, 2.0, &cfg, &ExecPolicy::new(1));
        let p2 = mc_zcb_price_exec(&m, 2.0, &cfg, &ExecPolicy::new(2));
        let p8 = mc_zcb_price_exec(&m, 2.0, &cfg, &ExecPolicy::new(8));
        assert_eq!(p1.price.to_bits(), p2.price.to_bits());
        assert_eq!(p1.price.to_bits(), p8.price.to_bits());
        assert_eq!(p1.std_error.to_bits(), p8.std_error.to_bits());
        let exact = m.zcb_price(2.0);
        assert!(
            (p1.price - exact).abs() < 4.0 * p1.std_error + 1e-4,
            "exec zcb {} exact {exact}",
            p1.price
        );
    }

    #[test]
    fn antithetic_helps_for_bonds_too() {
        let m = model();
        let base = McConfig {
            paths: 10_000,
            time_steps: 20,
            antithetic: false,
            seed: 3,
        };
        let plain = mc_zcb_price(&m, 2.0, &base);
        let anti = mc_zcb_price(
            &m,
            2.0,
            &McConfig {
                antithetic: true,
                ..base
            },
        );
        assert!(anti.std_error < plain.std_error);
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_maturities() {
        bond_option_price(&model(), OptionRight::Call, 0.9, 3.0, 1.0);
    }
}
