//! BSDE pricing/hedging via iterated Picard sweeps (Labart–Lelong 2011).
//!
//! Labart & Lelong parallelise the pricing of a claim whose value solves
//! a backward stochastic differential equation by Picard iteration: each
//! iterate is a Monte-Carlo expectation functional of the *previous*
//! iterate, so round `k+1` cannot start before round `k`'s answers are in
//! — exactly the cross-round dependency shape the staged scheduler
//! expresses. The concrete claim here is a European vanilla under
//! Black–Scholes with a **borrowing spread**: the replicating portfolio
//! borrows at `r + rate_spread` whenever the hedge position exceeds the
//! portfolio value (Bergman's two-rate model), giving the driver
//!
//! `f(t, S, y) = spread · (hedge(S) − y)⁺`
//!
//! with the digital hedge proxy `hedge(S) = S · 1{S > K}` (calls) /
//! `−S · 1{S < K}` shorted stock (puts). One **sweep** maps the scalar
//! iterate `y_prev` to
//!
//! `y_next = E[ e^{-rT} Φ(S_T) + Σ_j Δt e^{-r t_j} f(t_j, S_j, y_prev) ]`
//!
//! whose derivative in `y_prev` is bounded by `spread · T < 1` — a
//! contraction, so the iterates converge geometrically to the two-rate
//! price (≥ the Black–Scholes price, with equality at zero spread).
//!
//! The `*_exec` sweep parallelises over path chunks with
//! [`exec::stream_seed`]-derived streams and merges per-chunk statistics
//! in chunk order, so every iterate is bit-identical for any worker
//! count — the property the farm's round-staged execution relies on.

use crate::lanes::F64s;
use crate::models::BlackScholes;
use crate::options::{Exercise, Vanilla};
use exec::{stream_seed, Chunk, ExecPolicy};
use numerics::rng::NormalGen;
use numerics::stats::RunningStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::montecarlo::McResult;

/// One Picard sweep's parameters. A standalone pricing run iterates
/// `picard_rounds` sweeps internally; the staged farm runs sweeps as
/// separate round jobs, patching `y_prev` with the previous round's
/// averaged answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BsdeConfig {
    /// Number of Monte-Carlo paths per sweep.
    pub paths: usize,
    /// Time discretisation of the driver integral.
    pub time_steps: usize,
    /// Borrowing spread `R − r` of the two-rate model (the driver's
    /// Lipschitz constant; `spread · maturity` must stay below 1 for the
    /// Picard map to contract).
    pub rate_spread: f64,
    /// Picard iterations to run from `y_prev` (≥ 1).
    pub picard_rounds: usize,
    /// Starting iterate `Y_0^{(0)}` (0 for a fresh fixed-point run; the
    /// staged farm patches in the previous round's answer).
    pub y_prev: f64,
    /// RNG seed (problems are deterministic given their spec).
    pub seed: u64,
}

impl Default for BsdeConfig {
    fn default() -> Self {
        BsdeConfig {
            paths: 16_384,
            time_steps: 25,
            rate_spread: 0.05,
            picard_rounds: 4,
            y_prev: 0.0,
            seed: 42,
        }
    }
}

impl BsdeConfig {
    /// Parameter sanity checks; `Err` describes the first violation.
    fn validate(&self) -> Result<(), String> {
        if self.paths == 0 {
            return Err("paths must be positive".into());
        }
        if self.time_steps == 0 {
            return Err("time_steps must be positive".into());
        }
        if self.picard_rounds == 0 {
            return Err("picard_rounds must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.rate_spread) {
            return Err("rate_spread must lie in [0, 1)".into());
        }
        Ok(())
    }
}

fn assert_bsde_option(option: &Vanilla) {
    option.validate().expect("invalid option");
    assert!(
        option.exercise == Exercise::European,
        "the BSDE Picard solver prices European claims"
    );
}

/// Digital hedge proxy: the stock leg of the replicating portfolio.
#[inline]
fn hedge_position(s: f64, strike: f64, sign: f64) -> f64 {
    if sign * (s - strike) > 0.0 {
        sign * s
    } else {
        0.0
    }
}

/// One Picard sweep, sequential reference implementation: maps
/// `cfg.y_prev` to the next iterate.
pub fn bsde_sweep(m: &BlackScholes, option: &Vanilla, cfg: &BsdeConfig) -> McResult {
    cfg.validate().expect("invalid BSDE config");
    assert_bsde_option(option);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut gen = NormalGen::new();
    let mut stats = RunningStats::new();
    let dt = option.maturity / cfg.time_steps as f64;
    let sign = option.right.sign();
    for _ in 0..cfg.paths {
        let mut s = m.spot;
        let mut driver = 0.0;
        for j in 0..cfg.time_steps {
            s = m.step(s, dt, gen.sample(&mut rng));
            let t = (j + 1) as f64 * dt;
            let shortfall = (hedge_position(s, option.strike, sign) - cfg.y_prev).max(0.0);
            driver += dt * m.discount(t) * cfg.rate_spread * shortfall;
        }
        let payoff = (sign * (s - option.strike)).max(0.0);
        stats.push(m.discount(option.maturity) * payoff + driver);
    }
    McResult {
        price: stats.mean(),
        std_error: stats.std_error(),
        delta: None,
    }
}

/// Chunked-deterministic variant of [`bsde_sweep`]: each chunk of paths
/// draws from its own [`stream_seed`]-derived stream and per-chunk
/// statistics merge in chunk order — bit-identical for any worker count.
pub fn bsde_sweep_exec(
    m: &BlackScholes,
    option: &Vanilla,
    cfg: &BsdeConfig,
    pol: &ExecPolicy,
) -> McResult {
    cfg.validate().expect("invalid BSDE config");
    assert_bsde_option(option);
    let dt = option.maturity / cfg.time_steps as f64;
    let sign = option.right.sign();
    let parts = match pol.lane_width() {
        4 => pol.run(cfg.paths, |c| bsde_chunk_lanes::<4>(m, option, cfg, dt, sign, c)),
        8 => pol.run(cfg.paths, |c| bsde_chunk_lanes::<8>(m, option, cfg, dt, sign, c)),
        _ => pol.run(cfg.paths, |c| bsde_chunk_scalar(m, option, cfg, dt, sign, c)),
    };
    let mut stats = RunningStats::new();
    for s in &parts {
        stats.merge(s);
    }
    McResult {
        price: stats.mean(),
        std_error: stats.std_error(),
        delta: None,
    }
}

/// Scalar (lanes = 1) chunk body — the sequential kernel on one chunk's
/// stream.
fn bsde_chunk_scalar(
    m: &BlackScholes,
    option: &Vanilla,
    cfg: &BsdeConfig,
    dt: f64,
    sign: f64,
    c: &Chunk,
) -> RunningStats {
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut gen = NormalGen::new();
    let mut stats = RunningStats::new();
    let df_t = m.discount(option.maturity);
    for _ in c.start..c.end {
        let mut s = m.spot;
        let mut driver = 0.0;
        for j in 0..cfg.time_steps {
            s = m.step(s, dt, gen.sample(&mut rng));
            let t = (j + 1) as f64 * dt;
            let shortfall = (hedge_position(s, option.strike, sign) - cfg.y_prev).max(0.0);
            driver += dt * m.discount(t) * cfg.rate_spread * shortfall;
        }
        let payoff = (sign * (s - option.strike)).max(0.0);
        stats.push(df_t * payoff + driver);
    }
    stats
}

/// `L`-wide chunk body: `L` paths advance per loop iteration, normals
/// drawn in `(step, lane)` order, the log-Euler step vectorised with
/// fused `mul_add`; the driver integrand branches per lane (the digital
/// hedge is a comparison, not worth masking). The remainder
/// `c.len() % L` paths run scalar-style, continuing the same chunk
/// stream.
fn bsde_chunk_lanes<const L: usize>(
    m: &BlackScholes,
    option: &Vanilla,
    cfg: &BsdeConfig,
    dt: f64,
    sign: f64,
    c: &Chunk,
) -> RunningStats {
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut gen = NormalGen::new();
    let mut stats = RunningStats::new();
    let df_t = m.discount(option.maturity);
    let drift = F64s::<L>::splat(m.log_drift() * dt);
    let volt = F64s::<L>::splat(m.sigma * dt.sqrt());
    let groups = c.len() / L;
    for _ in 0..groups {
        let mut s = F64s::<L>::splat(m.spot);
        let mut driver = F64s::<L>::splat(0.0);
        for j in 0..cfg.time_steps {
            let z = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
            s = s * z.mul_add(volt, drift).exp();
            let t = (j + 1) as f64 * dt;
            let w = dt * m.discount(t) * cfg.rate_spread;
            for l in 0..L {
                let shortfall = (hedge_position(s.0[l], option.strike, sign) - cfg.y_prev).max(0.0);
                driver.0[l] += w * shortfall;
            }
        }
        for l in 0..L {
            let payoff = (sign * (s.0[l] - option.strike)).max(0.0);
            stats.push(df_t * payoff + driver.0[l]);
        }
    }
    // Tail: remainder paths continue the same chunk stream scalar-style.
    for _ in c.start + groups * L..c.end {
        let mut s = m.spot;
        let mut driver = 0.0;
        for j in 0..cfg.time_steps {
            s = m.step(s, dt, gen.sample(&mut rng));
            let t = (j + 1) as f64 * dt;
            let shortfall = (hedge_position(s, option.strike, sign) - cfg.y_prev).max(0.0);
            driver += dt * m.discount(t) * cfg.rate_spread * shortfall;
        }
        let payoff = (sign * (s - option.strike)).max(0.0);
        stats.push(df_t * payoff + driver);
    }
    stats
}

/// Full fixed-point run: iterate `cfg.picard_rounds` sweeps from
/// `cfg.y_prev`, feeding each sweep's price into the next sweep's
/// `y_prev`. Returns the sweep iterates in order (the last one is the
/// price); every iterate is bit-identical for any worker count when
/// `pol` is given.
pub fn bsde_picard_iterates(
    m: &BlackScholes,
    option: &Vanilla,
    cfg: &BsdeConfig,
    pol: Option<&ExecPolicy>,
) -> Vec<McResult> {
    cfg.validate().expect("invalid BSDE config");
    let mut sweep_cfg = *cfg;
    let mut out = Vec::with_capacity(cfg.picard_rounds);
    for _ in 0..cfg.picard_rounds {
        let r = match pol {
            Some(p) => bsde_sweep_exec(m, option, &sweep_cfg, p),
            None => bsde_sweep(m, option, &sweep_cfg),
        };
        sweep_cfg.y_prev = r.price;
        out.push(r);
    }
    out
}

/// Convenience wrapper returning only the final iterate.
pub(crate) fn bsde_picard(
    m: &BlackScholes,
    option: &Vanilla,
    cfg: &BsdeConfig,
    pol: Option<&ExecPolicy>,
) -> McResult {
    bsde_picard_iterates(m, option, cfg, pol)
        .pop()
        .expect("picard_rounds >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::closed_form::bs_price;

    fn model() -> BlackScholes {
        BlackScholes::new(100.0, 0.2, 0.05, 0.0)
    }

    fn call() -> Vanilla {
        Vanilla::european_call(100.0, 1.0)
    }

    fn quick() -> BsdeConfig {
        BsdeConfig {
            paths: 4000,
            time_steps: 12,
            ..BsdeConfig::default()
        }
    }

    #[test]
    fn exec_matches_sequential_stats_shape() {
        let m = model();
        let o = call();
        let cfg = quick();
        let seq = bsde_sweep(&m, &o, &cfg);
        assert!(seq.price.is_finite() && seq.std_error > 0.0);
    }

    #[test]
    fn exec_price_is_bit_identical_across_worker_counts() {
        let m = model();
        let o = call();
        let cfg = quick();
        let base = bsde_sweep_exec(&m, &o, &cfg, &ExecPolicy::new(1));
        for workers in [2, 4, 8] {
            let r = bsde_sweep_exec(&m, &o, &cfg, &ExecPolicy::new(workers));
            assert_eq!(r.price.to_bits(), base.price.to_bits());
            assert_eq!(r.std_error.to_bits(), base.std_error.to_bits());
        }
    }

    #[test]
    fn picard_iterates_contract_geometrically() {
        let m = model();
        let o = call();
        let cfg = BsdeConfig {
            picard_rounds: 6,
            ..quick()
        };
        let iters = bsde_picard_iterates(&m, &o, &cfg, Some(&ExecPolicy::new(4)));
        assert_eq!(iters.len(), 6);
        // Successive differences shrink (same paths each sweep, so the
        // only change between iterates is the contraction in y_prev).
        let d1 = (iters[1].price - iters[0].price).abs();
        let d4 = (iters[5].price - iters[4].price).abs();
        assert!(d4 < d1, "Picard map failed to contract: {d1} -> {d4}");
        assert!(d4 < 1e-4, "iterates not converged: last delta {d4}");
    }

    #[test]
    fn spread_raises_the_price_above_black_scholes() {
        let m = model();
        let o = call();
        let cfg = BsdeConfig {
            paths: 20_000,
            ..quick()
        };
        let two_rate = bsde_picard(&m, &o, &cfg, Some(&ExecPolicy::new(4)));
        let zero = BsdeConfig {
            rate_spread: 0.0,
            ..cfg
        };
        let plain = bsde_picard(&m, &o, &zero, Some(&ExecPolicy::new(4)));
        assert!(
            two_rate.price > plain.price,
            "borrowing spread must cost something: {} <= {}",
            two_rate.price,
            plain.price
        );
        // And the zero-spread sweep is plain discounted-payoff MC, close
        // to the closed form.
        let cf = bs_price(&model(), &call()).price;
        assert!(
            (plain.price - cf).abs() < 4.0 * plain.std_error + 1e-9,
            "zero-spread BSDE {} too far from BS closed form {}",
            plain.price,
            cf
        );
    }

    #[test]
    fn put_hedge_is_short_stock() {
        let m = model();
        let o = Vanilla::european_put(100.0, 1.0);
        let cfg = quick();
        let r = bsde_picard(&m, &o, &cfg, Some(&ExecPolicy::new(2)));
        assert!(r.price.is_finite() && r.price > 0.0);
    }
}
