//! Multi-dimensional Bermudan max-calls via LSM (Doan et al. 2008).
//!
//! Doan, Gaikwad, Hall, Bossy et al. benchmark multi-dimensional
//! Bermudan/American Monte-Carlo on a grid: the path-generation stage
//! farms perfectly while the regression stage is a cross-path reduction.
//! The product here is the classic max-call on `dim` correlated
//! Black–Scholes assets — the payoff `(max_i S_i − K)⁺` keeps every
//! coordinate relevant (unlike the basket average), which is what makes
//! the high-dimensional regression interesting.
//!
//! The kernel deliberately adds **no new hot loop**: path generation
//! reuses [`super::lsm`]'s basket path bodies (the state simulation is
//! payoff-agnostic), so it inherits the one seeding rule, the
//! bit-identical-for-any-worker-count chunked sample and the
//! allocation-free path loops of the existing LSM path.

use crate::models::MultiBlackScholes;
use crate::options::{Exercise, MaxCall};
use exec::ExecPolicy;

use super::lsm::{lsm_backward, BasketPaths, LsmConfig};
use super::montecarlo::McResult;
use super::sample;

/// Bermudan max-call under multi-asset Black–Scholes via LSM. Path
/// generation runs through the *same* bodies as [`super::lsm::lsm_basket`],
/// and `pol` picks the streams as it does there.
pub fn lsm_max_call(
    m: &MultiBlackScholes,
    option: &MaxCall,
    cfg: &LsmConfig,
    pol: Option<&ExecPolicy>,
) -> McResult {
    cfg.validate().expect("invalid LSM config");
    option.validate().expect("invalid option");
    assert!(
        option.exercise == Exercise::American,
        "LSM prices Bermudan/American claims"
    );
    let dt = option.maturity / cfg.exercise_dates as f64;
    let k = option.strike;
    let backward = |paths: &[f64]| {
        lsm_backward(
            paths,
            m.dim,
            &move |st: &[f64]| {
                let best = st.iter().fold(f64::NEG_INFINITY, |a, &s| a.max(s));
                (best - k).max(0.0)
            },
            dt,
            m.rate,
            m.spot,
            cfg,
        )
    };
    sample(
        &BasketPaths::new(m, cfg, dt, backward),
        pol,
        cfg.paths,
        cfg.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(dim: usize) -> MultiBlackScholes {
        MultiBlackScholes::new(dim, 100.0, 0.2, 0.3, 0.05, 0.1)
    }

    fn quick() -> LsmConfig {
        LsmConfig {
            paths: 2000,
            exercise_dates: 9,
            basis_degree: 2,
            ..LsmConfig::default()
        }
    }

    #[test]
    fn exec_price_is_bit_identical_across_worker_counts() {
        let m = model(3);
        let o = MaxCall::bermudan(100.0, 1.0);
        let cfg = quick();
        let base = lsm_max_call(&m, &o, &cfg, Some(&ExecPolicy::new(1)));
        for workers in [2, 8] {
            let r = lsm_max_call(&m, &o, &cfg, Some(&ExecPolicy::new(workers)));
            assert_eq!(r.price.to_bits(), base.price.to_bits());
        }
    }

    #[test]
    fn bermudan_max_call_dominates_european_lower_bound() {
        // With a dividend yield early exercise has value; at the very
        // least the Bermudan price must beat the discounted intrinsic of
        // holding to maturity on any single asset (European max-call is
        // harder to get in closed form; the LSM price must also beat 0).
        let m = model(2);
        let o = MaxCall::bermudan(100.0, 1.0);
        let r = lsm_max_call(&m, &o, &quick(), Some(&ExecPolicy::new(4)));
        assert!(r.price > 0.0, "max-call worth something: {}", r.price);
        assert!(r.price < m.spot * 2.0, "sanity upper bound: {}", r.price);
    }

    #[test]
    fn more_assets_are_worth_more() {
        // The max over more (exchangeable) assets stochastically
        // dominates the max over fewer.
        let cfg = quick();
        let o = MaxCall::bermudan(100.0, 1.0);
        let p2 = lsm_max_call(&model(2), &o, &cfg, Some(&ExecPolicy::new(4))).price;
        let p5 = lsm_max_call(&model(5), &o, &cfg, Some(&ExecPolicy::new(4))).price;
        assert!(p5 > p2, "5-asset max-call {p5} should exceed 2-asset {p2}");
    }
}
