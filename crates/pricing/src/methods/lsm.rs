//! Longstaff–Schwartz American Monte-Carlo (LSM).
//!
//! §4.3's 7-dimensional American basket puts "are priced using American
//! Monte-Carlo techniques", and §3.3's example is
//! `MC_AM_Alfonsi_LongstaffSchwartz` on 1-D Heston. This module implements
//! the Longstaff–Schwartz (2001) regression method: simulate paths on the
//! exercise grid, then walk backward regressing the discounted future
//! cashflow of in-the-money paths on a polynomial basis of the current
//! state to estimate the continuation value, exercising when intrinsic
//! value beats it.

//! The `*_exec` variants parallelise the **path-generation** stage (the
//! dominant cost) through the [`exec`] chunked executor: each chunk of
//! paths simulates from its own [`exec::stream_seed`]-derived stream into
//! a paths-major block. Chunks are contiguous path ranges returned in
//! chunk order, so the blocks laid end to end are the state matrix of all
//! paths — and therefore the regression and the price are bit-identical
//! for any worker count. The backward induction stays sequential (it is a
//! cross-path regression per date) and reads the states where they were
//! simulated.

use crate::lanes::F64s;
use crate::models::{BlackScholes, Heston, MultiBlackScholes};
use crate::options::{BasketOption, Exercise, OptionRight, Vanilla};
use exec::{stream_seed, Chunk, ExecPolicy, PathWorkspace};
use numerics::linalg::lstsq;
use numerics::poly::{BasisKind, RegressionBasis};
use numerics::rng::{CorrelatedNormals, NormalGen};
use numerics::stats::RunningStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::montecarlo::{heston_step_lanes, McResult};

/// LSM parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmConfig {
    /// Number of Monte-Carlo paths.
    pub paths: usize,
    /// Number of exercise dates (Bermudan approximation of the American
    /// right; 50 dates/year is the conventional density).
    pub exercise_dates: usize,
    /// Polynomial degree of the regression basis.
    pub basis_degree: usize,
    /// Basis family (Longstaff–Schwartz used weighted Laguerre).
    pub basis: BasisKind,
    /// RNG seed (problems are deterministic given their spec).
    pub seed: u64,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            paths: 20_000,
            exercise_dates: 50,
            basis_degree: 3,
            basis: BasisKind::Monomial,
            seed: 42,
        }
    }
}

impl LsmConfig {
    /// Parameter sanity checks; `Err` describes the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.paths < 100 {
            return Err("LSM needs at least 100 paths".into());
        }
        if self.exercise_dates < 2 {
            return Err("LSM needs at least 2 exercise dates".into());
        }
        if self.basis_degree == 0 {
            return Err("basis degree must be at least 1".into());
        }
        Ok(())
    }
}

/// Generic LSM backward induction over pre-simulated states.
///
/// `paths` is the paths-major state matrix: path `p`'s state vector
/// (`dim` values) at exercise date `d + 1` sits at `(p·dates + d)·dim`
/// (date 0 is the deterministic valuation date and never optimal to
/// exercise for an OTM start); `payoff` maps a path state to intrinsic
/// value; `dt` is the exercise-grid spacing; `rate` discounts between
/// dates; `scale` normalises the regression feature.
pub(crate) fn lsm_backward(
    paths: &[f64],
    dim: usize,
    payoff: &dyn Fn(&[f64]) -> f64,
    dt: f64,
    rate: f64,
    scale: f64,
    cfg: &LsmConfig,
) -> McResult {
    let n_dates = cfg.exercise_dates;
    assert_eq!(paths.len(), cfg.paths * n_dates * dim, "state matrix shape");
    let state = |d: usize, p: usize| &paths[(p * n_dates + d) * dim..][..dim];
    let disc = (-rate * dt).exp();
    let basis = RegressionBasis::new(cfg.basis, cfg.basis_degree);
    let nb = basis.len();

    // Cashflow value (already discounted to the *current* date in the
    // backward walk) per path.
    let mut cash: Vec<f64> = (0..cfg.paths)
        .map(|p| payoff(state(n_dates - 1, p)))
        .collect();

    let mut feat = vec![0.0; nb];
    // In-the-money paths of the current date with their intrinsic value,
    // and the regression system over them (row `r` of `a` is the basis
    // at `itm[r]`); reused across dates, sized once for every path.
    let mut itm: Vec<(usize, f64)> = Vec::with_capacity(cfg.paths);
    let mut a = Vec::with_capacity(cfg.paths * nb);
    let mut b = Vec::with_capacity(cfg.paths);
    for d in (0..n_dates - 1).rev() {
        // Discount everything one step back.
        for c in cash.iter_mut() {
            *c *= disc;
        }
        // Regress continuation value on ITM paths.
        itm.clear();
        for p in 0..cfg.paths {
            let intrinsic = payoff(state(d, p));
            if intrinsic > 0.0 {
                itm.push((p, intrinsic));
            }
        }
        if itm.len() < nb * 2 {
            continue; // too few ITM paths for a stable regression
        }
        a.clear();
        b.clear();
        for &(p, _) in &itm {
            basis.eval(state(d, p), scale, &mut feat);
            a.extend_from_slice(&feat);
            b.push(cash[p]);
        }
        let coeffs = match lstsq(&a, itm.len(), nb, &b) {
            Some(c) => c,
            None => continue, // degenerate basis this date; keep holding
        };
        for (&(p, intrinsic), feat) in itm.iter().zip(a.chunks_exact(nb)) {
            let continuation: f64 = feat.iter().zip(&coeffs).map(|(f, c)| f * c).sum();
            if intrinsic >= continuation {
                cash[p] = intrinsic;
            }
        }
    }
    // One more discount step back to the valuation date.
    let mut stats = RunningStats::new();
    for c in &cash {
        stats.push(c * disc);
    }
    McResult::from_stats(&stats)
}

/// The chunks' paths-major blocks laid end to end: the state matrix of
/// every path, since chunks are contiguous path ranges in chunk order.
/// One block (at most one chunk of paths) is that matrix already.
fn join_blocks(mut blocks: Vec<Vec<f64>>) -> Vec<f64> {
    match blocks.len() {
        1 => blocks.pop().unwrap_or_default(),
        _ => blocks.concat(),
    }
}

// Path generation, per model: `*_paths` is THE scalar path loop — it
// fills a paths-major block off a caller-owned stream; `*_block` is that
// loop on a fresh stream — all paths seeded with `cfg.seed` for the
// sequential entry point, one chunk seeded with
// `stream_seed(cfg.seed, chunk)` for the lanes = 1 chunk body; the
// `*_chunk_lanes` bodies hand their stream to `*_paths` for the
// `c.len() % L` tail. Either way the blocks, joined by [`join_blocks`],
// are the one state matrix [`lsm_backward`] reads.

fn assert_american_put(option: &Vanilla, cfg: &LsmConfig) {
    cfg.validate().expect("invalid LSM config");
    option.validate().expect("invalid option");
    assert!(
        option.exercise == Exercise::American,
        "LSM prices American claims"
    );
    assert!(
        option.right == OptionRight::Put,
        "American calls without dividends are European; benchmark uses puts"
    );
}

/// Backward induction for an American put on the one-dimensional state
/// `[S]` (the Heston variance is simulated but not regressed on: `S`
/// alone is the feature, a documented simplification checked against
/// the European lower bound in the tests).
fn put_backward(
    paths: &[f64],
    option: &Vanilla,
    rate: f64,
    spot: f64,
    cfg: &LsmConfig,
) -> McResult {
    let dt = option.maturity / cfg.exercise_dates as f64;
    let k = option.strike;
    lsm_backward(
        paths,
        1,
        &|st: &[f64]| (k - st[0]).max(0.0),
        dt,
        rate,
        spot,
        cfg,
    )
}

/// American put under Black–Scholes via LSM.
pub fn lsm_vanilla_bs(m: &BlackScholes, option: &Vanilla, cfg: &LsmConfig) -> McResult {
    assert_american_put(option, cfg);
    let dt = option.maturity / cfg.exercise_dates as f64;
    let block = lsm_vanilla_block(m, dt, cfg.exercise_dates, cfg.seed, cfg.paths);
    put_backward(&block, option, m.rate, m.spot, cfg)
}

/// Chunked-deterministic variant of [`lsm_vanilla_bs`]: path generation
/// runs on the [`exec`] executor with per-chunk [`stream_seed`]-derived
/// streams, so the price is bit-identical for any worker count in `pol`.
pub fn lsm_vanilla_bs_exec(
    m: &BlackScholes,
    option: &Vanilla,
    cfg: &LsmConfig,
    pol: &ExecPolicy,
) -> McResult {
    assert_american_put(option, cfg);
    let dt = option.maturity / cfg.exercise_dates as f64;
    let dates = cfg.exercise_dates;
    let blocks = match pol.lane_width() {
        4 => pol.run(cfg.paths, |c| {
            lsm_vanilla_chunk_lanes::<4>(m, cfg, dt, dates, c)
        }),
        8 => pol.run(cfg.paths, |c| {
            lsm_vanilla_chunk_lanes::<8>(m, cfg, dt, dates, c)
        }),
        _ => pol.run(cfg.paths, |c| {
            lsm_vanilla_block(m, dt, dates, stream_seed(cfg.seed, c.index), c.len())
        }),
    };
    put_backward(&join_blocks(blocks), option, m.rate, m.spot, cfg)
}

fn lsm_vanilla_block(m: &BlackScholes, dt: f64, dates: usize, seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = NormalGen::new();
    let mut block = vec![0.0; n * dates];
    lsm_vanilla_paths(m, dt, dates, &mut rng, &mut gen, &mut block);
    block
}

/// The path state is a single `f64`, so no workspace scratch is needed.
fn lsm_vanilla_paths(
    m: &BlackScholes,
    dt: f64,
    dates: usize,
    rng: &mut StdRng,
    gen: &mut NormalGen,
    block: &mut [f64],
) {
    for row in block.chunks_exact_mut(dates) {
        let mut s = m.spot;
        for slot in row.iter_mut() {
            s = m.step(s, dt, gen.sample(rng));
            *slot = s;
        }
    }
}

/// `L`-wide vanilla-BS path-generation chunk: `L` paths advance in
/// lockstep, one normal group per exercise date (`(group, date, lane)`
/// draw order), exact GBM transitions with fused `mul_add`.
fn lsm_vanilla_chunk_lanes<const L: usize>(
    m: &BlackScholes,
    cfg: &LsmConfig,
    dt: f64,
    dates: usize,
    c: &Chunk,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut gen = NormalGen::new();
    let mut block = vec![0.0; c.len() * dates];
    let drift = F64s::<L>::splat(m.log_drift() * dt);
    let volt = F64s::<L>::splat(m.sigma * dt.sqrt());
    let groups = c.len() / L;
    for g in 0..groups {
        let p0 = g * L;
        let mut s = F64s::<L>::splat(m.spot);
        for d in 0..dates {
            let z = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
            s = s * z.mul_add(volt, drift).exp();
            for l in 0..L {
                block[(p0 + l) * dates + d] = s.0[l];
            }
        }
    }
    let tail = &mut block[groups * L * dates..];
    lsm_vanilla_paths(m, dt, dates, &mut rng, &mut gen, tail);
    block
}

/// American basket put under multi-asset Black–Scholes via LSM
/// (the regression feature is the basket average — the payoff variable).
pub fn lsm_basket(m: &MultiBlackScholes, option: &BasketOption, cfg: &LsmConfig) -> McResult {
    assert_american_basket(option, cfg);
    let dt = option.maturity / cfg.exercise_dates as f64;
    let ws = &mut PathWorkspace::new();
    let block = lsm_basket_block(m, dt, cfg.exercise_dates, cfg.seed, cfg.paths, ws);
    basket_backward(&block, m, option, cfg)
}

/// Chunked-deterministic variant of [`lsm_basket`]: per-chunk correlated
/// streams, blocks joined in chunk order — bit-identical for any worker
/// count.
pub fn lsm_basket_exec(
    m: &MultiBlackScholes,
    option: &BasketOption,
    cfg: &LsmConfig,
    pol: &ExecPolicy,
) -> McResult {
    assert_american_basket(option, cfg);
    let dt = option.maturity / cfg.exercise_dates as f64;
    basket_backward(&lsm_basket_paths_exec(m, cfg, dt, pol), m, option, cfg)
}

fn assert_american_basket(option: &BasketOption, cfg: &LsmConfig) {
    cfg.validate().expect("invalid LSM config");
    option.validate().expect("invalid option");
    assert!(
        option.exercise == Exercise::American,
        "LSM prices American claims"
    );
}

fn basket_backward(
    paths: &[f64],
    m: &MultiBlackScholes,
    option: &BasketOption,
    cfg: &LsmConfig,
) -> McResult {
    let dt = option.maturity / cfg.exercise_dates as f64;
    let k = option.strike;
    lsm_backward(
        paths,
        m.dim,
        &move |st: &[f64]| {
            let avg = st.iter().sum::<f64>() / st.len() as f64;
            (k - avg).max(0.0)
        },
        dt,
        m.rate,
        m.spot,
        cfg,
    )
}

/// The chunked basket state matrix at `pol`'s lane width (the state
/// simulation is payoff-agnostic: the Bermudan max-call shares it).
pub(crate) fn lsm_basket_paths_exec(
    m: &MultiBlackScholes,
    cfg: &LsmConfig,
    dt: f64,
    pol: &ExecPolicy,
) -> Vec<f64> {
    let dates = cfg.exercise_dates;
    let blocks = match pol.lane_width() {
        4 => pol.run_ws(cfg.paths, |c, ws| {
            lsm_basket_chunk_lanes::<4>(m, cfg, dt, dates, c, ws)
        }),
        8 => pol.run_ws(cfg.paths, |c, ws| {
            lsm_basket_chunk_lanes::<8>(m, cfg, dt, dates, c, ws)
        }),
        _ => pol.run_ws(cfg.paths, |c, ws| {
            lsm_basket_block(m, dt, dates, stream_seed(cfg.seed, c.index), c.len(), ws)
        }),
    };
    join_blocks(blocks)
}

/// `n` basket paths on a fresh stream; the returned block is the result,
/// allocated once.
pub(crate) fn lsm_basket_block(
    m: &MultiBlackScholes,
    dt: f64,
    dates: usize,
    seed: u64,
    n: usize,
    ws: &mut PathWorkspace,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corr = m.correlator();
    let mut block = vec![0.0; n * dates * m.dim];
    lsm_basket_paths(m, dt, dates, &mut rng, &mut corr, &mut block, ws);
    block
}

/// The per-path state vector and the correlated-draw scratch come from
/// the [`PathWorkspace`] pool; the state is re-initialised to `spot` per
/// path.
fn lsm_basket_paths(
    m: &MultiBlackScholes,
    dt: f64,
    dates: usize,
    rng: &mut StdRng,
    corr: &mut CorrelatedNormals,
    block: &mut [f64],
    ws: &mut PathWorkspace,
) {
    let dim = m.dim;
    let mut z = ws.take(dim);
    let mut s = ws.take(dim);
    for row in block.chunks_exact_mut(dates * dim) {
        for si in s.iter_mut() {
            *si = m.spot;
        }
        for slot in row.chunks_exact_mut(dim) {
            corr.sample(rng, &mut z);
            m.step(&mut s, dt, &z);
            slot.copy_from_slice(&s);
        }
    }
    ws.put(s);
    ws.put(z);
}

/// `L`-wide basket path-generation chunk: `L` paths advance in lockstep
/// with lane-major state/draw scratch (`buf[l*dim..][..dim]` is lane
/// `l`), correlated vectors drawn per lane in lane order per date —
/// `(group, date, lane)` consumption — and the per-asset step vectorised
/// across lanes with fused `mul_add`.
fn lsm_basket_chunk_lanes<const L: usize>(
    m: &MultiBlackScholes,
    cfg: &LsmConfig,
    dt: f64,
    dates: usize,
    c: &Chunk,
    ws: &mut PathWorkspace,
) -> Vec<f64> {
    let dim = m.dim;
    let row_len = dates * dim;
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut corr = m.correlator();
    let mut zbuf = ws.take(L * dim);
    let mut sbuf = ws.take(L * dim);
    let mut block = vec![0.0; c.len() * row_len];
    let drift = F64s::<L>::splat(m.log_drift() * dt);
    let volt = F64s::<L>::splat(m.sigma * dt.sqrt());
    let groups = c.len() / L;
    for g in 0..groups {
        let p0 = g * L;
        for si in sbuf.iter_mut() {
            *si = m.spot;
        }
        for d in 0..dates {
            for l in 0..L {
                corr.sample(&mut rng, &mut zbuf[l * dim..(l + 1) * dim]);
            }
            for i in 0..dim {
                let z = F64s::<L>::from_fn(|l| zbuf[l * dim + i]);
                let s = F64s::<L>::from_fn(|l| sbuf[l * dim + i]);
                let sn = s * z.mul_add(volt, drift).exp();
                for l in 0..L {
                    sbuf[l * dim + i] = sn.0[l];
                    block[(p0 + l) * row_len + d * dim + i] = sn.0[l];
                }
            }
        }
    }
    ws.put(sbuf);
    ws.put(zbuf);
    let tail = &mut block[groups * L * row_len..];
    lsm_basket_paths(m, dt, dates, &mut rng, &mut corr, tail, ws);
    block
}

/// American put under Heston via LSM — the §3.3 example
/// (`Heston1dim` + `MC_AM_*_LongstaffSchwartz`).
pub fn lsm_heston(m: &Heston, option: &Vanilla, cfg: &LsmConfig) -> McResult {
    assert_american_put(option, cfg);
    let dt = option.maturity / cfg.exercise_dates as f64;
    let block = lsm_heston_block(m, dt, cfg.exercise_dates, cfg.seed, cfg.paths);
    put_backward(&block, option, m.rate, m.spot, cfg)
}

/// Chunked-deterministic variant of [`lsm_heston`]: per-chunk `(S, v)`
/// streams, blocks joined in chunk order — bit-identical for any worker
/// count.
pub fn lsm_heston_exec(
    m: &Heston,
    option: &Vanilla,
    cfg: &LsmConfig,
    pol: &ExecPolicy,
) -> McResult {
    assert_american_put(option, cfg);
    let dt = option.maturity / cfg.exercise_dates as f64;
    let dates = cfg.exercise_dates;
    let blocks = match pol.lane_width() {
        4 => pol.run(cfg.paths, |c| {
            lsm_heston_chunk_lanes::<4>(m, cfg, dt, dates, c)
        }),
        8 => pol.run(cfg.paths, |c| {
            lsm_heston_chunk_lanes::<8>(m, cfg, dt, dates, c)
        }),
        _ => pol.run(cfg.paths, |c| {
            lsm_heston_block(m, dt, dates, stream_seed(cfg.seed, c.index), c.len())
        }),
    };
    put_backward(&join_blocks(blocks), option, m.rate, m.spot, cfg)
}

fn lsm_heston_block(m: &Heston, dt: f64, dates: usize, seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = NormalGen::new();
    let mut block = vec![0.0; n * dates];
    lsm_heston_paths(m, dt, dates, &mut rng, &mut gen, &mut block);
    block
}

fn lsm_heston_paths(
    m: &Heston,
    dt: f64,
    dates: usize,
    rng: &mut StdRng,
    gen: &mut NormalGen,
    block: &mut [f64],
) {
    for row in block.chunks_exact_mut(dates) {
        let mut s = m.spot;
        let mut v = m.v0;
        for slot in row.iter_mut() {
            let (s2, v2) = m.step(s, v, dt, gen.sample(rng), gen.sample(rng));
            s = s2;
            v = v2;
            *slot = s;
        }
    }
}

/// `L`-wide Heston path-generation chunk: `L` `(S, v)` pairs advance in
/// lockstep; per date the spot normals are drawn for all lanes, then the
/// variance normals — `(group, date, z1 lanes, z2 lanes)` draw order.
fn lsm_heston_chunk_lanes<const L: usize>(
    m: &Heston,
    cfg: &LsmConfig,
    dt: f64,
    dates: usize,
    c: &Chunk,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut gen = NormalGen::new();
    let mut block = vec![0.0; c.len() * dates];
    let sqdt = dt.sqrt();
    let groups = c.len() / L;
    for g in 0..groups {
        let p0 = g * L;
        let mut s = F64s::<L>::splat(m.spot);
        let mut v = F64s::<L>::splat(m.v0);
        for d in 0..dates {
            let z1 = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
            let z2 = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
            let (sn, vn) = heston_step_lanes(m, dt, sqdt, s, v, z1, z2);
            s = sn;
            v = vn;
            for l in 0..L {
                block[(p0 + l) * dates + d] = s.0[l];
            }
        }
    }
    let tail = &mut block[groups * L * dates..];
    lsm_heston_paths(m, dt, dates, &mut rng, &mut gen, tail);
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::closed_form::bs_price;
    use crate::methods::montecarlo::{mc_basket, mc_heston, McConfig};
    use crate::methods::pde::{pde_vanilla, PdeConfig};

    fn model() -> BlackScholes {
        BlackScholes::new(100.0, 0.2, 0.05, 0.0)
    }

    fn quick_cfg() -> LsmConfig {
        LsmConfig {
            paths: 20_000,
            exercise_dates: 50,
            ..LsmConfig::default()
        }
    }

    #[test]
    fn american_put_close_to_pde_reference() {
        let m = model();
        let opt = Vanilla::american_put(100.0, 1.0);
        let lsm = lsm_vanilla_bs(&m, &opt, &quick_cfg());
        let pde = pde_vanilla(&m, &opt, &PdeConfig::default()).price;
        // LSM is low-biased (suboptimal policy) but should be within a
        // few standard errors + small policy bias of the PDE value.
        assert!(
            (lsm.price - pde).abs() < 0.15,
            "lsm {} pde {pde}",
            lsm.price
        );
    }

    #[test]
    fn american_put_bracketed_by_european_and_intrinsic_plus() {
        let m = model();
        let opt = Vanilla::american_put(100.0, 1.0);
        let lsm = lsm_vanilla_bs(&m, &opt, &quick_cfg()).price;
        let eur = bs_price(&m, &Vanilla::european_put(100.0, 1.0)).price;
        assert!(lsm >= eur - 0.05, "lsm {lsm} below european {eur}");
        assert!(lsm < eur + 2.0, "lsm {lsm} implausibly high");
    }

    #[test]
    fn laguerre_and_monomial_bases_agree() {
        let m = model();
        let opt = Vanilla::american_put(100.0, 1.0);
        let mono = lsm_vanilla_bs(&m, &opt, &quick_cfg()).price;
        let lag = lsm_vanilla_bs(
            &m,
            &opt,
            &LsmConfig {
                basis: BasisKind::Laguerre,
                ..quick_cfg()
            },
        )
        .price;
        assert!((mono - lag).abs() < 0.1, "monomial {mono} laguerre {lag}");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model();
        let opt = Vanilla::american_put(100.0, 1.0);
        let cfg = LsmConfig {
            paths: 2_000,
            exercise_dates: 10,
            ..LsmConfig::default()
        };
        assert_eq!(
            lsm_vanilla_bs(&m, &opt, &cfg).price,
            lsm_vanilla_bs(&m, &opt, &cfg).price
        );
    }

    #[test]
    fn basket_american_dominates_european() {
        // 7-dim American basket put (the paper's §4.3 class).
        let m = MultiBlackScholes::new(7, 100.0, 0.2, 0.3, 0.05, 0.0);
        let amer = BasketOption::american_put(100.0, 1.0);
        let eur = BasketOption::european_put(100.0, 1.0);
        let lsm = lsm_basket(
            &m,
            &amer,
            &LsmConfig {
                paths: 10_000,
                exercise_dates: 20,
                ..LsmConfig::default()
            },
        );
        let mc = mc_basket(
            &m,
            &eur,
            &McConfig {
                paths: 40_000,
                ..McConfig::default()
            },
        );
        assert!(
            lsm.price >= mc.price - 3.0 * (lsm.std_error + mc.std_error),
            "american basket {} < european {}",
            lsm.price,
            mc.price
        );
        assert!(lsm.price < mc.price + 5.0, "implausible premium");
    }

    #[test]
    fn heston_american_put_dominates_european() {
        let m = Heston::standard(100.0, 0.05);
        let amer = Vanilla::american_put(100.0, 1.0);
        let eur = Vanilla::european_put(100.0, 1.0);
        let lsm = lsm_heston(
            &m,
            &amer,
            &LsmConfig {
                paths: 10_000,
                exercise_dates: 20,
                ..LsmConfig::default()
            },
        );
        let mc = mc_heston(
            &m,
            &eur,
            &McConfig {
                paths: 20_000,
                time_steps: 20,
                ..McConfig::default()
            },
        );
        assert!(
            lsm.price >= mc.price - 3.0 * (lsm.std_error + mc.std_error),
            "heston american {} < european {}",
            lsm.price,
            mc.price
        );
    }

    #[test]
    fn deep_itm_put_prices_near_intrinsic() {
        let m = BlackScholes::new(50.0, 0.2, 0.05, 0.0);
        let opt = Vanilla::american_put(100.0, 1.0);
        let lsm = lsm_vanilla_bs(&m, &opt, &quick_cfg()).price;
        assert!(lsm >= 49.5, "deep ITM american put {lsm} << intrinsic 50");
    }

    #[test]
    fn exec_lsm_bit_identical_across_worker_counts() {
        let cfg = LsmConfig {
            paths: 4_000,
            exercise_dates: 12,
            ..LsmConfig::default()
        };
        let bs = model();
        let put = Vanilla::american_put(100.0, 1.0);
        let multi = MultiBlackScholes::new(4, 100.0, 0.2, 0.3, 0.05, 0.0);
        let basket = BasketOption::american_put(100.0, 1.0);
        let hes = Heston::standard(100.0, 0.05);
        for (label, run) in [
            (
                "vanilla",
                Box::new(|w: usize| lsm_vanilla_bs_exec(&bs, &put, &cfg, &ExecPolicy::new(w)).price)
                    as Box<dyn Fn(usize) -> f64>,
            ),
            (
                "basket",
                Box::new(|w: usize| {
                    lsm_basket_exec(&multi, &basket, &cfg, &ExecPolicy::new(w)).price
                }),
            ),
            (
                "heston",
                Box::new(|w: usize| lsm_heston_exec(&hes, &put, &cfg, &ExecPolicy::new(w)).price),
            ),
        ] {
            let p1 = run(1);
            let p2 = run(2);
            let p8 = run(8);
            assert_eq!(p1.to_bits(), p2.to_bits(), "{label}: 1 vs 2 workers");
            assert_eq!(p1.to_bits(), p8.to_bits(), "{label}: 1 vs 8 workers");
        }
    }

    #[test]
    fn exec_lsm_agrees_with_sequential_statistically() {
        // The chunked variant draws a *different* (equally valid) sample
        // than the legacy sequential kernel, so prices agree statistically.
        let m = model();
        let opt = Vanilla::american_put(100.0, 1.0);
        let cfg = quick_cfg();
        let seq = lsm_vanilla_bs(&m, &opt, &cfg);
        let par = lsm_vanilla_bs_exec(&m, &opt, &cfg, &ExecPolicy::new(4));
        assert!(
            (seq.price - par.price).abs() < 4.0 * (seq.std_error + par.std_error) + 0.05,
            "seq {} par {}",
            seq.price,
            par.price
        );
    }

    #[test]
    fn config_validation() {
        assert!(LsmConfig {
            paths: 10,
            ..LsmConfig::default()
        }
        .validate()
        .is_err());
        assert!(LsmConfig {
            exercise_dates: 1,
            ..LsmConfig::default()
        }
        .validate()
        .is_err());
        assert!(LsmConfig {
            basis_degree: 0,
            ..LsmConfig::default()
        }
        .validate()
        .is_err());
    }
}
