//! Monte-Carlo pricing of European claims.
//!
//! §4.3 uses Monte-Carlo for the 40-dimensional basket puts ("we usually
//! use 10⁶ samples") and for the local-volatility calls. This module
//! provides:
//!
//! * exact-transition GBM sampling for vanilla options (with pathwise
//!   deltas and antithetic variance reduction),
//! * one-step correlated terminal sampling for basket options,
//! * Euler path simulation for the local-volatility model,
//! * full-truncation simulation for Heston,
//! * a quasi-Monte-Carlo (Sobol/Halton + inverse-CDF) variant used by the
//!   ablation benchmarks.
//!
//! Every plain-MC pricer also has a `*_exec` variant that runs the path
//! loop through the [`exec`] chunked executor: the path space is split
//! into fixed-size chunks, each chunk draws from its own
//! [`exec::stream_seed`]-derived RNG stream, and chunk partials are
//! merged in chunk order — so the price is **bit-identical for any
//! worker count** (see `docs/PARALLEL.md`). The chunked result is a
//! different (equally valid) sample than the single stream seeded with
//! `cfg.seed`, which therefore stays the default — but both run the same
//! scalar path loop: one body, two seeds.

use crate::lanes::F64s;
use crate::models::local_vol::EulerGrid;
use crate::models::{BlackScholes, Heston, LocalVol, MultiBlackScholes};
use crate::options::{BasketOption, Exercise, Vanilla};
use exec::{stream_seed, Chunk, ExecPolicy, PathWorkspace};
use numerics::norm_inv_cdf;
use numerics::rng::{CorrelatedNormals, NormalGen};
use numerics::sobol::{Halton, Sobol};
use numerics::stats::RunningStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of payoff samples (antithetic pairs count as one sample).
    pub paths: usize,
    /// Time discretisation for path-dependent models (ignored by the
    /// exact GBM samplers).
    pub time_steps: usize,
    /// Antithetic variates.
    pub antithetic: bool,
    /// RNG seed — pricing problems are deterministic given their spec,
    /// as required for a reproducible benchmark.
    pub seed: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            paths: 100_000,
            time_steps: 50,
            antithetic: true,
            seed: 42,
        }
    }
}

impl McConfig {
    /// Parameter sanity checks; `Err` describes the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.paths == 0 {
            return Err("paths must be positive".into());
        }
        if self.time_steps == 0 {
            return Err("time_steps must be positive".into());
        }
        Ok(())
    }
}

/// Monte-Carlo estimate: price, its standard error, and (when the
/// pathwise estimator applies) the delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McResult {
    /// Price estimate.
    pub price: f64,
    /// Monte-Carlo standard error of the price.
    pub std_error: f64,
    /// First derivative of the price w.r.t. spot.
    pub(crate) delta: Option<f64>,
}

impl McResult {
    /// Price and standard error of an accumulated sample (no delta).
    pub(crate) fn from_stats(stats: &RunningStats) -> McResult {
        McResult {
            price: stats.mean(),
            std_error: stats.std_error(),
            delta: None,
        }
    }
}

/// Chunk partials merged in chunk order.
fn merged<'a>(parts: impl IntoIterator<Item = &'a RunningStats>) -> RunningStats {
    let mut stats = RunningStats::new();
    for p in parts {
        stats.merge(p);
    }
    stats
}

fn assert_european(ex: Exercise) {
    assert!(
        ex == Exercise::European,
        "plain Monte-Carlo prices European claims; American claims use LSM"
    );
}

// Every plain-MC kernel below is one private struct — the validated
// problem plus its per-problem constants — with the same three methods:
//
// * `paths`: THE scalar path loop, `n` samples off a caller-owned stream
//   pushed into caller-owned statistics;
// * `scalar`: `paths` on a fresh stream — the whole sample seeded with
//   `cfg.seed` is the sequential entry point, one chunk seeded with
//   `stream_seed(cfg.seed, chunk)` is the lanes = 1 chunk body (one
//   scalar body, two seeds; see `docs/PARALLEL.md`);
// * `lanes::<L>`: the `L`-wide chunk body, which hands its stream to
//   `paths` for the `c.len() % L` tail so the draw order continues.

/// Vanilla European option under Black–Scholes, exact terminal sampling.
pub fn mc_vanilla_bs(m: &BlackScholes, option: &Vanilla, cfg: &McConfig) -> McResult {
    let (stats, delta_stats) = VanillaMc::new(m, option, cfg).scalar(cfg.seed, cfg.paths);
    McResult {
        delta: Some(delta_stats.mean()),
        ..McResult::from_stats(&stats)
    }
}

/// Chunked-deterministic variant of [`mc_vanilla_bs`]: each chunk of
/// paths draws from its own [`stream_seed`]-derived stream and the
/// per-chunk statistics are merged in chunk order, so the result is
/// bit-identical for any worker count in `pol`.
pub fn mc_vanilla_bs_exec(
    m: &BlackScholes,
    option: &Vanilla,
    cfg: &McConfig,
    pol: &ExecPolicy,
) -> McResult {
    let k = VanillaMc::new(m, option, cfg);
    let parts = match pol.lane_width() {
        4 => pol.run(cfg.paths, |c| k.lanes::<4>(c)),
        8 => pol.run(cfg.paths, |c| k.lanes::<8>(c)),
        _ => pol.run(cfg.paths, |c| {
            k.scalar(stream_seed(cfg.seed, c.index), c.len())
        }),
    };
    McResult {
        delta: Some(merged(parts.iter().map(|p| &p.1)).mean()),
        ..McResult::from_stats(&merged(parts.iter().map(|p| &p.0)))
    }
}

struct VanillaMc<'a> {
    m: &'a BlackScholes,
    option: &'a Vanilla,
    cfg: &'a McConfig,
    t: f64,
    df: f64,
    sign: f64,
}

impl<'a> VanillaMc<'a> {
    fn new(m: &'a BlackScholes, option: &'a Vanilla, cfg: &'a McConfig) -> Self {
        cfg.validate().expect("invalid MC config");
        option.validate().expect("invalid option");
        assert_european(option.exercise);
        let t = option.maturity;
        VanillaMc {
            m,
            option,
            cfg,
            t,
            df: m.discount(t),
            sign: option.right.sign(),
        }
    }

    fn scalar(&self, seed: u64, n: usize) -> (RunningStats, RunningStats) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = NormalGen::new();
        let mut out = (RunningStats::new(), RunningStats::new());
        self.paths(&mut rng, &mut gen, n, &mut out);
        out
    }

    fn paths(
        &self,
        rng: &mut StdRng,
        gen: &mut NormalGen,
        n: usize,
        (stats, delta_stats): &mut (RunningStats, RunningStats),
    ) {
        let df = self.df;
        for _ in 0..n {
            let z = gen.sample(rng);
            let (pay, dlt) = self.sample(z);
            if self.cfg.antithetic {
                let (pay2, dlt2) = self.sample(-z);
                stats.push(df * 0.5 * (pay + pay2));
                delta_stats.push(df * 0.5 * (dlt + dlt2));
            } else {
                stats.push(df * pay);
                delta_stats.push(df * dlt);
            }
        }
    }

    #[inline]
    fn sample(&self, z: f64) -> (f64, f64) {
        self.payoff_delta(self.m.terminal(self.t, z))
    }

    #[inline]
    fn payoff_delta(&self, st: f64) -> (f64, f64) {
        let sign = self.sign;
        let pay = (sign * (st - self.option.strike)).max(0.0);
        // Pathwise delta: ∂payoff/∂S₀ = 1{exercised} · sign · S_T/S₀.
        let dlt = if pay > 0.0 {
            sign * st / self.m.spot
        } else {
            0.0
        };
        (pay, dlt)
    }

    /// `L` paths advance per loop iteration, normals drawn in
    /// `(group, lane)` order, terminal levels computed with fused
    /// `mul_add` (so lane prices are a distinct — equally valid — sample
    /// from the scalar kernel even where the draw order coincides).
    fn lanes<const L: usize>(&self, c: &Chunk) -> (RunningStats, RunningStats) {
        let (m, t, df) = (self.m, self.t, self.df);
        let mut rng = StdRng::seed_from_u64(stream_seed(self.cfg.seed, c.index));
        let mut gen = NormalGen::new();
        let mut out = (RunningStats::new(), RunningStats::new());
        let (stats, delta_stats) = &mut out;
        let drift = F64s::<L>::splat(m.log_drift() * t);
        let volt = F64s::<L>::splat(m.sigma * t.sqrt());
        let spot = F64s::<L>::splat(m.spot);
        let groups = c.len() / L;
        for _ in 0..groups {
            let z = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
            let st = z.mul_add(volt, drift).exp() * spot;
            if self.cfg.antithetic {
                let st2 = (-z).mul_add(volt, drift).exp() * spot;
                for l in 0..L {
                    let (pay, dlt) = self.payoff_delta(st.0[l]);
                    let (pay2, dlt2) = self.payoff_delta(st2.0[l]);
                    stats.push(df * 0.5 * (pay + pay2));
                    delta_stats.push(df * 0.5 * (dlt + dlt2));
                }
            } else {
                for l in 0..L {
                    let (pay, dlt) = self.payoff_delta(st.0[l]);
                    stats.push(df * pay);
                    delta_stats.push(df * dlt);
                }
            }
        }
        self.paths(&mut rng, &mut gen, c.len() - groups * L, &mut out);
        out
    }
}

/// Quasi-Monte-Carlo variant of [`mc_vanilla_bs`] (Sobol + Moro inverse
/// CDF, no antithetics, no meaningful standard error — QMC error is not
/// estimated by the sample variance).
pub fn qmc_vanilla_bs(m: &BlackScholes, option: &Vanilla, paths: usize) -> McResult {
    option.validate().expect("invalid option");
    assert_european(option.exercise);
    let t = option.maturity;
    let df = m.discount(t);
    let mut sobol = Sobol::new(1);
    let mut p = [0.0];
    let sign = option.right.sign();
    let mut acc = 0.0;
    for _ in 0..paths {
        sobol.next_point(&mut p);
        let z = norm_inv_cdf(p[0]);
        let st = m.terminal(t, z);
        acc += (sign * (st - option.strike)).max(0.0);
    }
    McResult {
        price: df * acc / paths as f64,
        std_error: 0.0,
        delta: None,
    }
}

/// European basket option under multi-asset Black–Scholes: exact
/// one-step correlated terminal sampling (the payoff is path-independent).
pub fn mc_basket(m: &MultiBlackScholes, option: &BasketOption, cfg: &McConfig) -> McResult {
    let k = BasketMc::new(m, option, cfg);
    McResult::from_stats(&k.scalar(cfg.seed, cfg.paths, &mut PathWorkspace::new()))
}

/// Chunked-deterministic variant of [`mc_basket`] (per-chunk correlated
/// streams, chunk-order merge — bit-identical for any worker count).
pub fn mc_basket_exec(
    m: &MultiBlackScholes,
    option: &BasketOption,
    cfg: &McConfig,
    pol: &ExecPolicy,
) -> McResult {
    let k = BasketMc::new(m, option, cfg);
    let parts = match pol.lane_width() {
        4 => pol.run_ws(cfg.paths, |c, ws| k.lanes::<4>(c, ws)),
        8 => pol.run_ws(cfg.paths, |c, ws| k.lanes::<8>(c, ws)),
        _ => pol.run_ws(cfg.paths, |c, ws| {
            k.scalar(stream_seed(cfg.seed, c.index), c.len(), ws)
        }),
    };
    McResult::from_stats(&merged(&parts))
}

struct BasketMc<'a> {
    m: &'a MultiBlackScholes,
    option: &'a BasketOption,
    cfg: &'a McConfig,
    t: f64,
    df: f64,
}

impl<'a> BasketMc<'a> {
    fn new(m: &'a MultiBlackScholes, option: &'a BasketOption, cfg: &'a McConfig) -> Self {
        cfg.validate().expect("invalid MC config");
        option.validate().expect("invalid option");
        assert_european(option.exercise);
        let t = option.maturity;
        BasketMc {
            m,
            option,
            cfg,
            t,
            df: m.discount(t),
        }
    }

    fn scalar(&self, seed: u64, n: usize, ws: &mut PathWorkspace) -> RunningStats {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut corr = self.m.correlator();
        let mut stats = RunningStats::new();
        self.paths(&mut rng, &mut corr, n, ws, &mut stats);
        stats
    }

    /// The `z`/`s` scratch comes from the [`PathWorkspace`] pool (`take`
    /// zero-fills, so it is numerically a fresh `vec!`).
    fn paths(
        &self,
        rng: &mut StdRng,
        corr: &mut CorrelatedNormals,
        n: usize,
        ws: &mut PathWorkspace,
        stats: &mut RunningStats,
    ) {
        let (m, option, t, df) = (self.m, self.option, self.t, self.df);
        let mut z = ws.take(m.dim);
        let mut s = ws.take(m.dim);
        for _ in 0..n {
            corr.sample(rng, &mut z);
            m.terminal(t, &z, &mut s);
            let pay = option.payoff(&s);
            if self.cfg.antithetic {
                for zi in z.iter_mut() {
                    *zi = -*zi;
                }
                m.terminal(t, &z, &mut s);
                stats.push(df * 0.5 * (pay + option.payoff(&s)));
            } else {
                stats.push(df * pay);
            }
        }
        ws.put(s);
        ws.put(z);
    }

    /// Lanes hold `L` paths' correlated draws and terminal levels in
    /// lane-major scratch (`buf[l*dim..][..dim]` is lane `l`). Correlated
    /// vectors are drawn per lane in lane order — the same consumption
    /// order as `L` consecutive scalar paths — and the terminal map
    /// vectorises across lanes per asset with fused `mul_add`.
    fn lanes<const L: usize>(&self, c: &Chunk, ws: &mut PathWorkspace) -> RunningStats {
        let (m, option, t, df) = (self.m, self.option, self.t, self.df);
        let dim = m.dim;
        let mut rng = StdRng::seed_from_u64(stream_seed(self.cfg.seed, c.index));
        let mut corr = m.correlator();
        let mut zbuf = ws.take(L * dim);
        let mut sbuf = ws.take(L * dim);
        let mut s2buf = ws.take(L * dim);
        let mut stats = RunningStats::new();
        let drift = F64s::<L>::splat(m.log_drift() * t);
        let volt = F64s::<L>::splat(m.sigma * t.sqrt());
        let spot = F64s::<L>::splat(m.spot);
        let groups = c.len() / L;
        for _ in 0..groups {
            for l in 0..L {
                corr.sample(&mut rng, &mut zbuf[l * dim..(l + 1) * dim]);
            }
            for i in 0..dim {
                let z = F64s::<L>::from_fn(|l| zbuf[l * dim + i]);
                let st = z.mul_add(volt, drift).exp() * spot;
                for l in 0..L {
                    sbuf[l * dim + i] = st.0[l];
                }
                if self.cfg.antithetic {
                    let st2 = (-z).mul_add(volt, drift).exp() * spot;
                    for l in 0..L {
                        s2buf[l * dim + i] = st2.0[l];
                    }
                }
            }
            for l in 0..L {
                let pay = option.payoff(&sbuf[l * dim..(l + 1) * dim]);
                if self.cfg.antithetic {
                    let pay2 = option.payoff(&s2buf[l * dim..(l + 1) * dim]);
                    stats.push(df * 0.5 * (pay + pay2));
                } else {
                    stats.push(df * pay);
                }
            }
        }
        ws.put(s2buf);
        ws.put(sbuf);
        ws.put(zbuf);
        self.paths(&mut rng, &mut corr, c.len() - groups * L, ws, &mut stats);
        stats
    }
}

/// Halton-sequence QMC variant of [`mc_basket`] for moderate dimensions
/// (ablation benchmarks).
pub fn qmc_basket(m: &MultiBlackScholes, option: &BasketOption, paths: usize) -> McResult {
    option.validate().expect("invalid option");
    assert_european(option.exercise);
    let t = option.maturity;
    let df = m.discount(t);
    let corr = m.correlator();
    let mut halton = Halton::new(m.dim);
    let mut u = vec![0.0; m.dim];
    let mut z = vec![0.0; m.dim];
    let mut s = vec![0.0; m.dim];
    let mut acc = 0.0;
    for _ in 0..paths {
        halton.next_point(&mut u);
        for i in 0..m.dim {
            z[i] = norm_inv_cdf(u[i]);
        }
        corr.correlate_in_place(&mut z);
        m.terminal(t, &z, &mut s);
        acc += option.payoff(&s);
    }
    McResult {
        price: df * acc / paths as f64,
        std_error: 0.0,
        delta: None,
    }
}

/// European vanilla option under the local-volatility model, log-Euler
/// paths with `cfg.time_steps` steps.
pub fn mc_local_vol(m: &LocalVol, option: &Vanilla, cfg: &McConfig) -> McResult {
    let k = LocalVolMc::new(m, option, cfg);
    McResult::from_stats(&k.scalar(cfg.seed, cfg.paths, &mut PathWorkspace::new()))
}

/// Chunked-deterministic variant of [`mc_local_vol`].
pub fn mc_local_vol_exec(
    m: &LocalVol,
    option: &Vanilla,
    cfg: &McConfig,
    pol: &ExecPolicy,
) -> McResult {
    let k = LocalVolMc::new(m, option, cfg);
    let parts = match pol.lane_width() {
        4 => pol.run_ws(cfg.paths, |c, ws| k.lanes::<4>(c, ws)),
        8 => pol.run_ws(cfg.paths, |c, ws| k.lanes::<8>(c, ws)),
        _ => pol.run_ws(cfg.paths, |c, ws| {
            k.scalar(stream_seed(cfg.seed, c.index), c.len(), ws)
        }),
    };
    McResult::from_stats(&merged(&parts))
}

struct LocalVolMc<'a> {
    m: &'a LocalVol,
    option: &'a Vanilla,
    cfg: &'a McConfig,
    df: f64,
    dt: f64,
    /// The Euler scheme's path-independent factors, tabulated once per
    /// problem and shared by every chunk.
    grid: EulerGrid,
}

impl<'a> LocalVolMc<'a> {
    fn new(m: &'a LocalVol, option: &'a Vanilla, cfg: &'a McConfig) -> Self {
        cfg.validate().expect("invalid MC config");
        option.validate().expect("invalid option");
        assert_european(option.exercise);
        let t = option.maturity;
        let dt = t / cfg.time_steps as f64;
        LocalVolMc {
            m,
            option,
            cfg,
            df: m.discount(t),
            dt,
            grid: m.euler_grid(dt, cfg.time_steps),
        }
    }

    fn scalar(&self, seed: u64, n: usize, ws: &mut PathWorkspace) -> RunningStats {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        self.paths(&mut rng, &mut gen, n, ws, &mut stats);
        stats
    }

    /// An Euler path is one chain of dependent `tanh → exp` steps, so
    /// paths advance two at a time, each beside its antithetic twin —
    /// four independent chains (two without antithetics; the odd last
    /// path runs with its twin alone). The normals of path `p` are drawn
    /// before those of `p + 1` and `p` is pushed first, exactly as when
    /// the paths ran one after the other: same sample, same bits.
    fn paths(
        &self,
        rng: &mut StdRng,
        gen: &mut NormalGen,
        n: usize,
        ws: &mut PathWorkspace,
        stats: &mut RunningStats,
    ) {
        let (grid, df) = (&self.grid, self.df);
        let pay = |s: f64| self.option.payoff(s);
        let steps = self.cfg.time_steps;
        let mut zbuf = ws.take(2 * steps);
        let (za, zb) = zbuf.split_at_mut(steps);
        for _ in 0..n / 2 {
            gen.fill(rng, za);
            gen.fill(rng, zb);
            if self.cfg.antithetic {
                let s = grid.terminal(|k| [za[k], -za[k], zb[k], -zb[k]]);
                stats.push(df * 0.5 * (pay(s[0]) + pay(s[1])));
                stats.push(df * 0.5 * (pay(s[2]) + pay(s[3])));
            } else {
                let s = grid.terminal(|k| [za[k], zb[k]]);
                stats.push(df * pay(s[0]));
                stats.push(df * pay(s[1]));
            }
        }
        if n % 2 == 1 {
            gen.fill(rng, za);
            if self.cfg.antithetic {
                let s = grid.terminal(|k| [za[k], -za[k]]);
                stats.push(df * 0.5 * (pay(s[0]) + pay(s[1])));
            } else {
                let [s] = grid.terminal(|k| [za[k]]);
                stats.push(df * pay(s));
            }
        }
        ws.put(zbuf);
    }

    /// `L` Euler paths advance in lockstep, one normal group per time
    /// step, so the draw order is `(group, step, lane)` — distinct from
    /// the scalar per-path `fill`. The time-dependent term factor of the
    /// vol surface is scalar per step (shared by all lanes); the
    /// spot-dependent skew is per-lane `tanh`.
    fn lanes<const L: usize>(&self, c: &Chunk, ws: &mut PathWorkspace) -> RunningStats {
        let (m, option, df, dt) = (self.m, self.option, self.df, self.dt);
        let mut rng = StdRng::seed_from_u64(stream_seed(self.cfg.seed, c.index));
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        let spot = F64s::<L>::splat(m.spot);
        let sqdt = dt.sqrt();
        let groups = c.len() / L;
        for _ in 0..groups {
            let mut s = spot;
            let mut s2 = spot;
            let mut tt = 0.0;
            for _ in 0..self.cfg.time_steps {
                let term = 1.0 + m.term_amp * (-tt / m.term_tau).exp();
                let z = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
                s = lv_step_lanes(m, term, dt, sqdt, s, z);
                if self.cfg.antithetic {
                    s2 = lv_step_lanes(m, term, dt, sqdt, s2, -z);
                }
                tt += dt;
            }
            for l in 0..L {
                let pay = option.payoff(s.0[l]);
                if self.cfg.antithetic {
                    stats.push(df * 0.5 * (pay + option.payoff(s2.0[l])));
                } else {
                    stats.push(df * pay);
                }
            }
        }
        self.paths(&mut rng, &mut gen, c.len() - groups * L, ws, &mut stats);
        stats
    }
}

/// One lane-wide log-Euler step of the local-vol model: `term` is the
/// (scalar) time factor of the surface, the skew factor is per-lane.
#[inline]
fn lv_step_lanes<const L: usize>(
    m: &LocalVol,
    term: f64,
    dt: f64,
    sqdt: f64,
    s: F64s<L>,
    z: F64s<L>,
) -> F64s<L> {
    let inv_w = 1.0 / (m.skew_width * m.spot);
    let arg = (F64s::<L>::splat(m.spot) - s) * F64s::splat(inv_w);
    let base = m.sigma0 * term;
    let sig = arg
        .map(f64::tanh)
        .mul_add(F64s::splat(base * m.skew_amp), F64s::splat(base));
    let drift = (sig * sig).mul_add(
        F64s::splat(-0.5 * dt),
        F64s::splat((m.rate - m.dividend) * dt),
    );
    let expo = (sig * z).mul_add(F64s::splat(sqdt), drift);
    s * expo.exp()
}

/// European vanilla option under Heston, full-truncation Euler paths.
pub fn mc_heston(m: &Heston, option: &Vanilla, cfg: &McConfig) -> McResult {
    let k = HestonMc::new(m, option, cfg);
    McResult::from_stats(&k.scalar(cfg.seed, cfg.paths, &mut PathWorkspace::new()))
}

/// Chunked-deterministic variant of [`mc_heston`].
pub fn mc_heston_exec(m: &Heston, option: &Vanilla, cfg: &McConfig, pol: &ExecPolicy) -> McResult {
    let k = HestonMc::new(m, option, cfg);
    let parts = match pol.lane_width() {
        4 => pol.run_ws(cfg.paths, |c, ws| k.lanes::<4>(c, ws)),
        8 => pol.run_ws(cfg.paths, |c, ws| k.lanes::<8>(c, ws)),
        _ => pol.run_ws(cfg.paths, |c, ws| {
            k.scalar(stream_seed(cfg.seed, c.index), c.len(), ws)
        }),
    };
    McResult::from_stats(&merged(&parts))
}

struct HestonMc<'a> {
    m: &'a Heston,
    option: &'a Vanilla,
    cfg: &'a McConfig,
    df: f64,
    dt: f64,
}

impl<'a> HestonMc<'a> {
    fn new(m: &'a Heston, option: &'a Vanilla, cfg: &'a McConfig) -> Self {
        cfg.validate().expect("invalid MC config");
        option.validate().expect("invalid option");
        assert_european(option.exercise);
        let t = option.maturity;
        HestonMc {
            m,
            option,
            cfg,
            df: m.discount(t),
            dt: t / cfg.time_steps as f64,
        }
    }

    fn scalar(&self, seed: u64, n: usize, ws: &mut PathWorkspace) -> RunningStats {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        self.paths(&mut rng, &mut gen, n, ws, &mut stats);
        stats
    }

    fn paths(
        &self,
        rng: &mut StdRng,
        gen: &mut NormalGen,
        n: usize,
        ws: &mut PathWorkspace,
        stats: &mut RunningStats,
    ) {
        let df = self.df;
        let mut z1 = ws.take(self.cfg.time_steps);
        let mut z2 = ws.take(self.cfg.time_steps);
        for _ in 0..n {
            gen.fill(rng, &mut z1);
            gen.fill(rng, &mut z2);
            let pay = self.path(&z1, &z2);
            if self.cfg.antithetic {
                for z in z1.iter_mut() {
                    *z = -*z;
                }
                for z in z2.iter_mut() {
                    *z = -*z;
                }
                let pay2 = self.path(&z1, &z2);
                stats.push(df * 0.5 * (pay + pay2));
            } else {
                stats.push(df * pay);
            }
        }
        ws.put(z2);
        ws.put(z1);
    }

    #[inline]
    fn path(&self, z1: &[f64], z2: &[f64]) -> f64 {
        let m = self.m;
        let mut s = m.spot;
        let mut v = m.v0;
        for i in 0..z1.len() {
            let (s2, v2) = m.step(s, v, self.dt, z1[i], z2[i]);
            s = s2;
            v = v2;
        }
        self.option.payoff(s)
    }

    /// `L` full-truncation Euler paths advance in lockstep. Per step the
    /// spot normals `z1` are drawn for all lanes, then the variance
    /// normals `z2` — so the draw order is
    /// `(group, step, z1 lanes, z2 lanes)`, distinct from the scalar
    /// per-path double `fill`.
    fn lanes<const L: usize>(&self, c: &Chunk, ws: &mut PathWorkspace) -> RunningStats {
        let (m, option, df, dt) = (self.m, self.option, self.df, self.dt);
        let mut rng = StdRng::seed_from_u64(stream_seed(self.cfg.seed, c.index));
        let mut gen = NormalGen::new();
        let mut stats = RunningStats::new();
        let spot = F64s::<L>::splat(m.spot);
        let v0 = F64s::<L>::splat(m.v0);
        let sqdt = dt.sqrt();
        let groups = c.len() / L;
        for _ in 0..groups {
            let mut s = spot;
            let mut v = v0;
            let mut s2 = spot;
            let mut v2 = v0;
            for _ in 0..self.cfg.time_steps {
                let z1 = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
                let z2 = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
                let (sn, vn) = heston_step_lanes(m, dt, sqdt, s, v, z1, z2);
                s = sn;
                v = vn;
                if self.cfg.antithetic {
                    let (sn2, vn2) = heston_step_lanes(m, dt, sqdt, s2, v2, -z1, -z2);
                    s2 = sn2;
                    v2 = vn2;
                }
            }
            for l in 0..L {
                let pay = option.payoff(s.0[l]);
                if self.cfg.antithetic {
                    stats.push(df * 0.5 * (pay + option.payoff(s2.0[l])));
                } else {
                    stats.push(df * pay);
                }
            }
        }
        self.paths(&mut rng, &mut gen, c.len() - groups * L, ws, &mut stats);
        stats
    }
}

/// One lane-wide full-truncation Euler step of the `(s, v)` pair
/// (shared with the LSM Heston path generator).
#[inline]
pub(crate) fn heston_step_lanes<const L: usize>(
    m: &Heston,
    dt: f64,
    sqdt: f64,
    s: F64s<L>,
    v: F64s<L>,
    z1: F64s<L>,
    z2: F64s<L>,
) -> (F64s<L>, F64s<L>) {
    let vp = v.max(F64s::splat(0.0));
    let rho2 = (1.0 - m.rho * m.rho).sqrt();
    let zv = z2.mul_add(F64s::splat(rho2), z1 * F64s::splat(m.rho));
    let sqvp = vp.sqrt();
    let v_next = (F64s::<L>::splat(m.theta) - vp).mul_add(F64s::splat(m.kappa * dt), v)
        + sqvp * zv * F64s::splat(m.xi * sqdt);
    let expo = vp.mul_add(
        F64s::splat(-0.5 * dt),
        F64s::splat((m.rate - m.dividend) * dt),
    ) + sqvp * z1 * F64s::splat(sqdt);
    (s * expo.exp(), v_next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::closed_form::bs_price;

    fn model() -> BlackScholes {
        BlackScholes::new(100.0, 0.2, 0.05, 0.0)
    }

    #[test]
    fn vanilla_mc_within_confidence_interval() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let exact = bs_price(&m, &opt);
        let mc = mc_vanilla_bs(&m, &opt, &McConfig::default());
        assert!(
            (mc.price - exact.price).abs() < 4.0 * mc.std_error,
            "mc {} ± {} exact {}",
            mc.price,
            mc.std_error,
            exact.price
        );
        let delta = mc.delta.unwrap();
        assert!((delta - exact.delta).abs() < 0.01, "delta {delta}");
    }

    #[test]
    fn vanilla_put_mc() {
        let m = model();
        let opt = Vanilla::european_put(110.0, 0.5);
        let exact = bs_price(&m, &opt).price;
        let mc = mc_vanilla_bs(&m, &opt, &McConfig::default());
        assert!((mc.price - exact).abs() < 4.0 * mc.std_error);
        assert!(mc.delta.unwrap() < 0.0);
    }

    #[test]
    fn antithetic_reduces_variance() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let base = McConfig {
            paths: 20_000,
            antithetic: false,
            ..McConfig::default()
        };
        let anti = McConfig {
            antithetic: true,
            ..base
        };
        let plain = mc_vanilla_bs(&m, &opt, &base);
        let av = mc_vanilla_bs(&m, &opt, &anti);
        assert!(
            av.std_error < plain.std_error,
            "antithetic {} !< plain {}",
            av.std_error,
            plain.std_error
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let cfg = McConfig {
            paths: 5_000,
            ..McConfig::default()
        };
        let a = mc_vanilla_bs(&m, &opt, &cfg);
        let b = mc_vanilla_bs(&m, &opt, &cfg);
        assert_eq!(a.price, b.price);
        let c = mc_vanilla_bs(&m, &opt, &McConfig { seed: 7, ..cfg });
        assert_ne!(a.price, c.price);
    }

    #[test]
    fn qmc_beats_mc_at_equal_budget() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let exact = bs_price(&m, &opt).price;
        let qmc = qmc_vanilla_bs(&m, &opt, 16_384);
        let mc = mc_vanilla_bs(
            &m,
            &opt,
            &McConfig {
                paths: 16_384,
                antithetic: false,
                ..McConfig::default()
            },
        );
        assert!(
            (qmc.price - exact).abs() <= (mc.price - exact).abs() + 1e-3,
            "qmc err {} mc err {}",
            (qmc.price - exact).abs(),
            (mc.price - exact).abs()
        );
        assert!((qmc.price - exact).abs() < 0.05);
    }

    #[test]
    fn basket_dim1_matches_vanilla_put() {
        let multi = MultiBlackScholes::new(1, 100.0, 0.2, 0.0, 0.05, 0.0);
        let basket = BasketOption::european_put(100.0, 1.0);
        let exact = bs_price(&model(), &Vanilla::european_put(100.0, 1.0)).price;
        let mc = mc_basket(&multi, &basket, &McConfig::default());
        assert!(
            (mc.price - exact).abs() < 4.0 * mc.std_error.max(1e-3),
            "basket {} exact {exact}",
            mc.price
        );
    }

    #[test]
    fn basket_price_decreases_with_dimension() {
        // Averaging uncorrelated assets reduces variance of the basket,
        // so an ATM basket put loses value as dim grows (ρ fixed small).
        let basket = BasketOption::european_put(100.0, 1.0);
        let cfg = McConfig {
            paths: 40_000,
            ..McConfig::default()
        };
        let p1 = mc_basket(
            &MultiBlackScholes::new(1, 100.0, 0.2, 0.1, 0.05, 0.0),
            &basket,
            &cfg,
        )
        .price;
        let p10 = mc_basket(
            &MultiBlackScholes::new(10, 100.0, 0.2, 0.1, 0.05, 0.0),
            &basket,
            &cfg,
        )
        .price;
        assert!(p10 < p1, "dim10 {p10} !< dim1 {p1}");
    }

    #[test]
    fn basket_40_dim_runs() {
        // The paper's largest product: 40-dimensional basket put.
        let m = MultiBlackScholes::new(40, 100.0, 0.2, 0.3, 0.05, 0.0);
        let basket = BasketOption::european_put(100.0, 1.0);
        let mc = mc_basket(
            &m,
            &basket,
            &McConfig {
                paths: 20_000,
                ..McConfig::default()
            },
        );
        assert!(mc.price > 0.0 && mc.price < 100.0);
        assert!(mc.std_error > 0.0);
    }

    #[test]
    fn qmc_basket_agrees_with_mc() {
        let m = MultiBlackScholes::new(5, 100.0, 0.2, 0.3, 0.05, 0.0);
        let basket = BasketOption::european_put(100.0, 1.0);
        let mc = mc_basket(
            &m,
            &basket,
            &McConfig {
                paths: 100_000,
                ..McConfig::default()
            },
        );
        let qmc = qmc_basket(&m, &basket, 32_768);
        assert!(
            (qmc.price - mc.price).abs() < 5.0 * mc.std_error.max(2e-3),
            "qmc {} mc {} ± {}",
            qmc.price,
            mc.price,
            mc.std_error
        );
    }

    #[test]
    fn local_vol_reduces_to_bs_when_flat() {
        let flat = LocalVol {
            spot: 100.0,
            sigma0: 0.2,
            term_amp: 0.0,
            term_tau: 1.0,
            skew_amp: 0.0,
            skew_width: 0.5,
            rate: 0.05,
            dividend: 0.0,
        };
        let opt = Vanilla::european_call(100.0, 1.0);
        let exact = bs_price(&model(), &opt).price;
        let mc = mc_local_vol(
            &flat,
            &opt,
            &McConfig {
                paths: 50_000,
                time_steps: 50,
                ..McConfig::default()
            },
        );
        // Euler bias + MC error: generous but binding tolerance.
        assert!(
            (mc.price - exact).abs() < 0.15,
            "mc {} exact {exact}",
            mc.price
        );
    }

    #[test]
    fn local_vol_skew_raises_otm_put_value() {
        // The downward skew pumps volatility below the spot, so OTM puts
        // are worth more than flat-vol puts.
        let skewed = LocalVol::standard(100.0, 0.2, 0.05, 0.0);
        let flat = LocalVol {
            term_amp: 0.0,
            skew_amp: 0.0,
            ..skewed
        };
        let opt = Vanilla::european_put(80.0, 1.0);
        let cfg = McConfig {
            paths: 50_000,
            time_steps: 50,
            ..McConfig::default()
        };
        let ps = mc_local_vol(&skewed, &opt, &cfg).price;
        let pf = mc_local_vol(&flat, &opt, &cfg).price;
        assert!(ps > pf, "skewed {ps} !> flat {pf}");
    }

    /// The one-path-at-a-time local-vol loop the interleaved one
    /// replaced, kept as the oracle: `LocalVol::step` along the path,
    /// then again along the sign-flipped buffer.
    fn mc_local_vol_naive(m: &LocalVol, option: &Vanilla, cfg: &McConfig) -> McResult {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut gen = NormalGen::new();
        let df = m.discount(option.maturity);
        let dt = option.maturity / cfg.time_steps as f64;
        let path = |zs: &[f64]| {
            let (mut s, mut t) = (m.spot, 0.0);
            for &z in zs {
                s = m.step(t, s, dt, z);
                t += dt;
            }
            option.payoff(s)
        };
        let mut stats = RunningStats::new();
        let mut zbuf = vec![0.0; cfg.time_steps];
        for _ in 0..cfg.paths {
            gen.fill(&mut rng, &mut zbuf);
            let pay = path(&zbuf);
            if cfg.antithetic {
                for z in zbuf.iter_mut() {
                    *z = -*z;
                }
                stats.push(df * 0.5 * (pay + path(&zbuf)));
            } else {
                stats.push(df * pay);
            }
        }
        McResult::from_stats(&stats)
    }

    #[test]
    fn interleaved_local_vol_is_bit_identical_to_one_path_at_a_time() {
        let m = LocalVol::standard(100.0, 0.2, 0.05, 0.01);
        let opt = Vanilla::european_call(95.0, 1.5);
        let mut seeds = numerics::rng::SplitMix64::new(17);
        for paths in [1usize, 2, 3, 64, 65] {
            for time_steps in [1usize, 2, 10, 16] {
                for antithetic in [true, false] {
                    let cfg = McConfig {
                        paths,
                        time_steps,
                        antithetic,
                        seed: seeds.next_u64(),
                    };
                    let got = mc_local_vol(&m, &opt, &cfg);
                    let want = mc_local_vol_naive(&m, &opt, &cfg);
                    assert_eq!(got.price.to_bits(), want.price.to_bits(), "{cfg:?}");
                    assert_eq!(got.std_error.to_bits(), want.std_error.to_bits(), "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn heston_matches_bs_when_vol_of_vol_tiny() {
        // ξ→0 with v constant (κ huge, θ=v₀) degenerates to BS with
        // σ=√v₀.
        let h = Heston::new(100.0, 0.04, 5.0, 0.04, 0.01, 0.0, 0.05, 0.0);
        let opt = Vanilla::european_call(100.0, 1.0);
        let exact = bs_price(&model(), &opt).price; // σ = 0.2 = √0.04
        let mc = mc_heston(
            &h,
            &opt,
            &McConfig {
                paths: 50_000,
                time_steps: 50,
                ..McConfig::default()
            },
        );
        assert!(
            (mc.price - exact).abs() < 0.2,
            "heston {} bs {exact}",
            mc.price
        );
    }

    #[test]
    fn exec_variants_bit_identical_across_worker_counts() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let cfg = McConfig {
            paths: 20_000,
            ..McConfig::default()
        };
        let p1 = mc_vanilla_bs_exec(&m, &opt, &cfg, &ExecPolicy::new(1));
        let p2 = mc_vanilla_bs_exec(&m, &opt, &cfg, &ExecPolicy::new(2));
        let p8 = mc_vanilla_bs_exec(&m, &opt, &cfg, &ExecPolicy::new(8));
        assert_eq!(p1.price.to_bits(), p2.price.to_bits());
        assert_eq!(p1.price.to_bits(), p8.price.to_bits());
        assert_eq!(p1.std_error.to_bits(), p8.std_error.to_bits());
        assert_eq!(p1.delta.unwrap().to_bits(), p8.delta.unwrap().to_bits());
        // And the chunked estimate is still a valid price.
        let exact = bs_price(&m, &opt).price;
        assert!((p1.price - exact).abs() < 4.0 * p1.std_error);
    }

    #[test]
    fn exec_basket_and_heston_agree_with_sequential_statistically() {
        let pol = ExecPolicy::new(4);
        let multi = MultiBlackScholes::new(5, 100.0, 0.2, 0.3, 0.05, 0.0);
        let basket = BasketOption::european_put(100.0, 1.0);
        let cfg = McConfig {
            paths: 20_000,
            ..McConfig::default()
        };
        let seq = mc_basket(&multi, &basket, &cfg);
        let par = mc_basket_exec(&multi, &basket, &cfg, &pol);
        assert!(
            (par.price - seq.price).abs() < 4.0 * (par.std_error + seq.std_error),
            "basket exec {} seq {}",
            par.price,
            seq.price
        );
        let h = Heston::standard(100.0, 0.05);
        let opt = Vanilla::european_put(100.0, 1.0);
        let hcfg = McConfig {
            paths: 10_000,
            time_steps: 20,
            ..McConfig::default()
        };
        let hseq = mc_heston(&h, &opt, &hcfg);
        let hpar = mc_heston_exec(&h, &opt, &hcfg, &pol);
        assert!(
            (hpar.price - hseq.price).abs() < 4.0 * (hpar.std_error + hseq.std_error),
            "heston exec {} seq {}",
            hpar.price,
            hseq.price
        );
    }

    #[test]
    fn exec_chunk_size_changes_sample_thread_count_does_not() {
        let m = model();
        let opt = Vanilla::european_call(100.0, 1.0);
        let cfg = McConfig {
            paths: 8_192,
            ..McConfig::default()
        };
        let a = mc_vanilla_bs_exec(&m, &opt, &cfg, &ExecPolicy::new(2).chunk(512));
        let b = mc_vanilla_bs_exec(&m, &opt, &cfg, &ExecPolicy::new(7).chunk(512));
        let c = mc_vanilla_bs_exec(&m, &opt, &cfg, &ExecPolicy::new(2).chunk(1024));
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        assert_ne!(a.price.to_bits(), c.price.to_bits());
    }

    #[test]
    #[should_panic]
    fn american_rejected_by_plain_mc() {
        mc_vanilla_bs(
            &model(),
            &Vanilla::american_put(100.0, 1.0),
            &McConfig::default(),
        );
    }
}
