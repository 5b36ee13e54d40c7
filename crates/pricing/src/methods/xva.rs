//! Portfolio-level XVA (CVA) aggregation over a structure-of-arrays
//! trade layout.
//!
//! A netting set of forward contracts on one underlying is valued at a
//! grid of exposure dates along simulated paths; the credit valuation
//! adjustment integrates the discounted expected *positive* exposure
//! against the counterparty default density (constant hazard rate):
//!
//! `CVA = LGD · Σ_j e^{-r t_j} E[(V_{t_j})⁺] · (e^{-λ t_{j-1}} − e^{-λ t_j})`
//!
//! Trades live in a [`TradeSoA`] — parallel `notional` / `strike` /
//! `direction` / `maturity` arrays generated deterministically from a
//! seed, the layout the aggregation pass streams through. Because every
//! trade is *linear* in the one underlying, the per-date netted value
//! collapses to `V_j = a_j·S_j − b_j` where `(a_j, b_j)` are per-date
//! reductions over the SoA (computed once, outside the path loop); the
//! hot per-path loop is then alloc-free and lane-vectorisable while the
//! trade dimension is paid exactly once.
//!
//! The `*_exec` variant parallelises over path chunks with
//! [`exec::stream_seed`]-derived streams and merges per-chunk statistics
//! in chunk order — bit-identical for any worker count.

use crate::lanes::F64s;
use crate::models::BlackScholes;
use exec::{stream_seed, Chunk, ExecPolicy};
use numerics::rng::NormalGen;
use numerics::stats::RunningStats;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use super::montecarlo::McResult;

/// A netting set of forward contracts in structure-of-arrays layout:
/// field `i` of every array describes trade `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeSoA {
    /// Contract notionals (units of the underlying).
    notional: Vec<f64>,
    /// Delivery prices.
    strike: Vec<f64>,
    /// +1 long / −1 short the forward.
    direction: Vec<f64>,
    /// Delivery dates in years.
    maturity: Vec<f64>,
}

impl TradeSoA {
    /// Deterministic book generation: `trades` forwards with strikes
    /// around `spot`, notionals in `[0.5, 1.5]`, alternating directions
    /// biased long (so the set carries positive exposure), maturities in
    /// `(0, horizon]`. The book is a pure function of `(trades, seed)`.
    pub fn generate(trades: usize, spot: f64, horizon: f64, seed: u64) -> TradeSoA {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut book = TradeSoA {
            notional: Vec::with_capacity(trades),
            strike: Vec::with_capacity(trades),
            direction: Vec::with_capacity(trades),
            maturity: Vec::with_capacity(trades),
        };
        for i in 0..trades {
            book.notional.push(0.5 + rng.gen_f64());
            book.strike.push(spot * (0.8 + 0.4 * rng.gen_f64()));
            // Two of three trades long: a directional book nets to
            // non-trivial positive exposure.
            book.direction.push(if i % 3 == 2 { -1.0 } else { 1.0 });
            book.maturity.push(horizon * (0.1 + 0.9 * rng.gen_f64()));
        }
        book
    }

    /// Number of trades in the set.
    fn len(&self) -> usize {
        self.notional.len()
    }

    /// Is the netting set empty?
    fn is_empty(&self) -> bool {
        self.notional.is_empty()
    }

    /// Per-date collapse of the (linear) netted book: at exposure date
    /// `t`, the set's value along a path is `a·S_t − b` with
    /// `a = Σ_alive dir·notional` and
    /// `b = Σ_alive dir·notional·K·e^{-r(T_i − t)}` — one streaming pass
    /// over the SoA per date.
    fn collapse_at(&self, t: f64, rate: f64) -> (f64, f64) {
        let mut a = 0.0;
        let mut b = 0.0;
        for i in 0..self.len() {
            if self.maturity[i] > t {
                let w = self.direction[i] * self.notional[i];
                a += w;
                b += w * self.strike[i] * (-rate * (self.maturity[i] - t)).exp();
            }
        }
        (a, b)
    }
}

/// CVA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XvaConfig {
    /// Monte-Carlo paths of the underlying.
    pub paths: usize,
    /// Exposure dates on `(0, horizon]`.
    pub time_steps: usize,
    /// Constant default hazard rate λ of the counterparty.
    pub hazard: f64,
    /// Loss given default (1 − recovery).
    pub lgd: f64,
    /// RNG seed for the exposure paths (the book has its own seed).
    pub seed: u64,
}

impl Default for XvaConfig {
    fn default() -> Self {
        XvaConfig {
            paths: 8192,
            time_steps: 50,
            hazard: 0.02,
            lgd: 0.6,
            seed: 42,
        }
    }
}

impl XvaConfig {
    /// Parameter sanity checks; `Err` describes the first violation.
    fn validate(&self) -> Result<(), String> {
        if self.paths == 0 {
            return Err("paths must be positive".into());
        }
        if self.time_steps == 0 {
            return Err("time_steps must be positive".into());
        }
        if !(self.hazard >= 0.0) {
            return Err("hazard must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.lgd) {
            return Err("lgd must lie in [0, 1]".into());
        }
        Ok(())
    }
}

/// Per-date constants of the CVA integrand, reduced from the SoA once
/// before the path loop: value coefficients `(a_j, b_j)` and the weight
/// `w_j = LGD · e^{-r t_j} · (e^{-λ t_{j-1}} − e^{-λ t_j})`.
fn date_tables(
    m: &BlackScholes,
    book: &TradeSoA,
    horizon: f64,
    cfg: &XvaConfig,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let dt = horizon / cfg.time_steps as f64;
    let mut a = Vec::with_capacity(cfg.time_steps);
    let mut b = Vec::with_capacity(cfg.time_steps);
    let mut w = Vec::with_capacity(cfg.time_steps);
    for j in 0..cfg.time_steps {
        let t0 = j as f64 * dt;
        let t1 = (j + 1) as f64 * dt;
        let (aj, bj) = book.collapse_at(t1, m.rate);
        a.push(aj);
        b.push(bj);
        w.push(cfg.lgd * m.discount(t1) * ((-cfg.hazard * t0).exp() - (-cfg.hazard * t1).exp()));
    }
    (a, b, w)
}

/// CVA of the netting set, sequential reference implementation. The
/// returned `price` is the CVA (a charge, ≥ 0); `std_error` is the
/// Monte-Carlo error of the pathwise CVA estimator.
pub fn xva_cva(m: &BlackScholes, book: &TradeSoA, horizon: f64, cfg: &XvaConfig) -> McResult {
    cfg.validate().expect("invalid XVA config");
    assert!(!book.is_empty(), "netting set must contain trades");
    let (a, b, w) = date_tables(m, book, horizon, cfg);
    let dt = horizon / cfg.time_steps as f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut gen = NormalGen::new();
    let mut stats = RunningStats::new();
    for _ in 0..cfg.paths {
        let mut s = m.spot;
        let mut cva = 0.0;
        for j in 0..cfg.time_steps {
            s = m.step(s, dt, gen.sample(&mut rng));
            cva += w[j] * (a[j] * s - b[j]).max(0.0);
        }
        stats.push(cva);
    }
    McResult {
        price: stats.mean(),
        std_error: stats.std_error(),
        delta: None,
    }
}

/// Chunked-deterministic variant of [`xva_cva`]: each chunk of paths
/// draws from its own [`stream_seed`]-derived stream and per-chunk
/// statistics merge in chunk order — bit-identical for any worker count.
pub fn xva_cva_exec(
    m: &BlackScholes,
    book: &TradeSoA,
    horizon: f64,
    cfg: &XvaConfig,
    pol: &ExecPolicy,
) -> McResult {
    cfg.validate().expect("invalid XVA config");
    assert!(!book.is_empty(), "netting set must contain trades");
    let (a, b, w) = date_tables(m, book, horizon, cfg);
    let dt = horizon / cfg.time_steps as f64;
    let parts = match pol.lane_width() {
        4 => pol.run(cfg.paths, |c| xva_chunk_lanes::<4>(m, cfg, dt, &a, &b, &w, c)),
        8 => pol.run(cfg.paths, |c| xva_chunk_lanes::<8>(m, cfg, dt, &a, &b, &w, c)),
        _ => pol.run(cfg.paths, |c| xva_chunk_scalar(m, cfg, dt, &a, &b, &w, c)),
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
fn xva_chunk_scalar(
    m: &BlackScholes,
    cfg: &XvaConfig,
    dt: f64,
    a: &[f64],
    b: &[f64],
    w: &[f64],
    c: &Chunk,
) -> RunningStats {
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut gen = NormalGen::new();
    let mut stats = RunningStats::new();
    for _ in c.start..c.end {
        let mut s = m.spot;
        let mut cva = 0.0;
        for j in 0..cfg.time_steps {
            s = m.step(s, dt, gen.sample(&mut rng));
            cva += w[j] * (a[j] * s - b[j]).max(0.0);
        }
        stats.push(cva);
    }
    stats
}

/// `L`-wide chunk body: `L` paths advance per loop iteration, normals
/// drawn in `(step, lane)` order, the log-Euler step and the exposure
/// positive-part vectorised with fused `mul_add`. The remainder
/// `c.len() % L` paths run scalar-style, continuing the same chunk
/// stream.
fn xva_chunk_lanes<const L: usize>(
    m: &BlackScholes,
    cfg: &XvaConfig,
    dt: f64,
    a: &[f64],
    b: &[f64],
    w: &[f64],
    c: &Chunk,
) -> RunningStats {
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, c.index));
    let mut gen = NormalGen::new();
    let mut stats = RunningStats::new();
    let drift = F64s::<L>::splat(m.log_drift() * dt);
    let volt = F64s::<L>::splat(m.sigma * dt.sqrt());
    let groups = c.len() / L;
    for _ in 0..groups {
        let mut s = F64s::<L>::splat(m.spot);
        let mut cva = F64s::<L>::splat(0.0);
        for j in 0..cfg.time_steps {
            let z = F64s::<L>::from_fn(|_| gen.sample(&mut rng));
            s = s * z.mul_add(volt, drift).exp();
            for l in 0..L {
                cva.0[l] += w[j] * (a[j] * s.0[l] - b[j]).max(0.0);
            }
        }
        for l in 0..L {
            stats.push(cva.0[l]);
        }
    }
    // Tail: remainder paths continue the same chunk stream scalar-style.
    for _ in c.start + groups * L..c.end {
        let mut s = m.spot;
        let mut cva = 0.0;
        for j in 0..cfg.time_steps {
            s = m.step(s, dt, gen.sample(&mut rng));
            cva += w[j] * (a[j] * s - b[j]).max(0.0);
        }
        stats.push(cva);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BlackScholes {
        BlackScholes::new(100.0, 0.2, 0.05, 0.0)
    }

    fn quick() -> XvaConfig {
        XvaConfig {
            paths: 4000,
            time_steps: 20,
            ..XvaConfig::default()
        }
    }

    #[test]
    fn book_generation_is_deterministic() {
        let a = TradeSoA::generate(32, 100.0, 1.0, 7);
        let b = TradeSoA::generate(32, 100.0, 1.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        let c = TradeSoA::generate(32, 100.0, 1.0, 8);
        assert_ne!(a, c, "different seeds must give different books");
    }

    #[test]
    fn exec_cva_is_bit_identical_across_worker_counts() {
        let m = model();
        let book = TradeSoA::generate(48, m.spot, 1.0, 7);
        let cfg = quick();
        let base = xva_cva_exec(&m, &book, 1.0, &cfg, &ExecPolicy::new(1));
        for workers in [2, 4, 8] {
            let r = xva_cva_exec(&m, &book, 1.0, &cfg, &ExecPolicy::new(workers));
            assert_eq!(r.price.to_bits(), base.price.to_bits());
            assert_eq!(r.std_error.to_bits(), base.std_error.to_bits());
        }
    }

    #[test]
    fn cva_is_a_nonnegative_charge_scaling_with_hazard_and_lgd() {
        let m = model();
        let book = TradeSoA::generate(48, m.spot, 1.0, 7);
        let cfg = quick();
        let cva = xva_cva_exec(&m, &book, 1.0, &cfg, &ExecPolicy::new(4)).price;
        assert!(cva >= 0.0);
        let riskier = XvaConfig {
            hazard: cfg.hazard * 4.0,
            ..cfg
        };
        let cva_hi = xva_cva_exec(&m, &book, 1.0, &riskier, &ExecPolicy::new(4)).price;
        assert!(
            cva_hi > cva,
            "quadrupled hazard must raise CVA: {cva} -> {cva_hi}"
        );
        let no_loss = XvaConfig { lgd: 0.0, ..cfg };
        let zero = xva_cva_exec(&m, &book, 1.0, &no_loss, &ExecPolicy::new(4)).price;
        assert_eq!(zero, 0.0, "zero LGD means zero CVA");
    }

    #[test]
    fn collapse_matches_brute_force_valuation() {
        let book = TradeSoA::generate(16, 100.0, 1.0, 11);
        let rate = 0.05;
        let t = 0.4;
        let (a, b) = book.collapse_at(t, rate);
        for s in [60.0, 100.0, 140.0] {
            let direct: f64 = (0..book.len())
                .filter(|&i| book.maturity[i] > t)
                .map(|i| {
                    book.direction[i]
                        * book.notional[i]
                        * (s - book.strike[i] * (-rate * (book.maturity[i] - t)).exp())
                })
                .sum();
            assert!(
                (a * s - b - direct).abs() < 1e-9,
                "collapse mismatch at spot {s}"
            );
        }
    }
}
