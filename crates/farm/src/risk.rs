//! Risk evaluation — the §1 scenario that motivates the whole benchmark.
//!
//! "A model is specified by several parameters: volatility, interest
//! rate, … and, in the context of risk evaluation, it is necessary to
//! price the contingent claims for various values of these model
//! parameters to measure their sensibilities to the parameters. As a
//! consequence, a huge number of atomic computations (around 10⁶) is
//! necessary to evaluate the risk of the whole portfolio."
//!
//! [`risk_sweep`] expands every claim of a portfolio into bumped variants
//! (spot ±, volatility ±, rate ±) — seven atomic computations per claim,
//! so the full §4.3 portfolio becomes ≈ 55 500 jobs, and finer bump grids
//! reach the paper's 10⁶ — and [`aggregate_risk`] turns the farmed prices
//! into finite-difference sensitivities (delta, gamma, vega, rho) per
//! claim.

use crate::portfolio::PortfolioJob;
use crate::robin_hood::JobOutcome;
use pricing::{ModelSpec, PremiaProblem};

/// Bump sizes for the sensitivity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BumpSpec {
    /// Relative spot bump (e.g. 0.01 = ±1 %).
    spot_rel: f64,
    /// Absolute volatility bump (e.g. 0.01 = ±1 vol point).
    vol_abs: f64,
    /// Absolute rate bump (e.g. 0.0010 = ±10 bp).
    rate_abs: f64,
}

impl Default for BumpSpec {
    fn default() -> Self {
        BumpSpec {
            spot_rel: 0.01,
            vol_abs: 0.01,
            rate_abs: 0.001,
        }
    }
}

/// Which bumped variant of a claim a risk job prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Unbumped parameters.
    Base,
    /// Spot bumped up.
    SpotUp,
    /// Spot bumped down.
    SpotDown,
    /// Volatility bumped up.
    VolUp,
    /// Volatility bumped down.
    VolDown,
    /// Rate bumped up.
    RateUp,
    /// Rate bumped down.
    RateDown,
}

impl Scenario {
    /// Every variant, in canonical order.
    pub const ALL: [Scenario; 7] = [
        Scenario::Base,
        Scenario::SpotUp,
        Scenario::SpotDown,
        Scenario::VolUp,
        Scenario::VolDown,
        Scenario::RateUp,
        Scenario::RateDown,
    ];
}

/// One atomic risk computation: claim index × scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskJob {
    /// Index of the claim in the source portfolio.
    claim: usize,
    /// Which bump this job prices.
    scenario: Scenario,
    /// The fully specified pricing problem.
    pub problem: PremiaProblem,
}

/// Apply a scenario's parameter bump to a model.
///
/// Volatility bumps act on each model's own volatility parameter: σ for
/// (multi-)Black–Scholes, σ₀ for local vol, and `√v₀`/`√θ` for Heston
/// (bumping the vol level rather than the variance keeps the bump
/// comparable across models).
fn bump_model(model: &ModelSpec, scenario: Scenario, bump: &BumpSpec) -> ModelSpec {
    use Scenario::*;
    let mut m = model.clone();
    match (&mut m, scenario) {
        (_, Base) => {}
        (ModelSpec::BlackScholes(b), SpotUp) => b.spot *= 1.0 + bump.spot_rel,
        (ModelSpec::BlackScholes(b), SpotDown) => b.spot *= 1.0 - bump.spot_rel,
        (ModelSpec::BlackScholes(b), VolUp) => b.sigma += bump.vol_abs,
        (ModelSpec::BlackScholes(b), VolDown) => b.sigma = (b.sigma - bump.vol_abs).max(1e-4),
        (ModelSpec::BlackScholes(b), RateUp) => b.rate += bump.rate_abs,
        (ModelSpec::BlackScholes(b), RateDown) => b.rate -= bump.rate_abs,

        (ModelSpec::MultiBlackScholes(b), SpotUp) => b.spot *= 1.0 + bump.spot_rel,
        (ModelSpec::MultiBlackScholes(b), SpotDown) => b.spot *= 1.0 - bump.spot_rel,
        (ModelSpec::MultiBlackScholes(b), VolUp) => b.sigma += bump.vol_abs,
        (ModelSpec::MultiBlackScholes(b), VolDown) => b.sigma = (b.sigma - bump.vol_abs).max(1e-4),
        (ModelSpec::MultiBlackScholes(b), RateUp) => b.rate += bump.rate_abs,
        (ModelSpec::MultiBlackScholes(b), RateDown) => b.rate -= bump.rate_abs,

        (ModelSpec::LocalVol(b), SpotUp) => b.spot *= 1.0 + bump.spot_rel,
        (ModelSpec::LocalVol(b), SpotDown) => b.spot *= 1.0 - bump.spot_rel,
        (ModelSpec::LocalVol(b), VolUp) => b.sigma0 += bump.vol_abs,
        (ModelSpec::LocalVol(b), VolDown) => b.sigma0 = (b.sigma0 - bump.vol_abs).max(1e-4),
        (ModelSpec::LocalVol(b), RateUp) => b.rate += bump.rate_abs,
        (ModelSpec::LocalVol(b), RateDown) => b.rate -= bump.rate_abs,

        (ModelSpec::Heston(b), SpotUp) => b.spot *= 1.0 + bump.spot_rel,
        (ModelSpec::Heston(b), SpotDown) => b.spot *= 1.0 - bump.spot_rel,
        (ModelSpec::Heston(b), VolUp) => {
            let vol = b.v0.sqrt() + bump.vol_abs;
            b.v0 = vol * vol;
            let lvol = b.theta.sqrt() + bump.vol_abs;
            b.theta = lvol * lvol;
        }
        (ModelSpec::Heston(b), VolDown) => {
            let vol = (b.v0.sqrt() - bump.vol_abs).max(1e-3);
            b.v0 = vol * vol;
            let lvol = (b.theta.sqrt() - bump.vol_abs).max(1e-3);
            b.theta = lvol * lvol;
        }
        (ModelSpec::Heston(b), RateUp) => b.rate += bump.rate_abs,
        (ModelSpec::Heston(b), RateDown) => b.rate -= bump.rate_abs,

        // Rates products have no spot; the spot scenarios are identity and
        // the vol/rate bumps act on σ and r₀.
        (ModelSpec::Vasicek(_), SpotUp) | (ModelSpec::Vasicek(_), SpotDown) => {}
        (ModelSpec::Vasicek(b), VolUp) => b.sigma += bump.vol_abs * 0.1,
        (ModelSpec::Vasicek(b), VolDown) => b.sigma = (b.sigma - bump.vol_abs * 0.1).max(1e-5),
        (ModelSpec::Vasicek(b), RateUp) => b.r0 += bump.rate_abs,
        (ModelSpec::Vasicek(b), RateDown) => b.r0 -= bump.rate_abs,
    }
    m
}

/// Expand a portfolio into the full scenario sweep: 7 atomic computations
/// per claim (`ALL` scenarios). Job ordering is claim-major so results
/// can be re-associated by integer division.
pub fn risk_sweep(jobs: &[PortfolioJob], bump: &BumpSpec) -> Vec<RiskJob> {
    let mut out = Vec::with_capacity(jobs.len() * Scenario::ALL.len());
    for job in jobs {
        for &scenario in &Scenario::ALL {
            out.push(RiskJob {
                claim: job.id,
                scenario,
                problem: PremiaProblem {
                    asset: job.problem.asset.clone(),
                    model: bump_model(&job.problem.model, scenario, bump),
                    option: job.problem.option.clone(),
                    method: job.problem.method.clone(),
                },
            });
        }
    }
    out
}

/// The per-claim risk report: price and bump-and-revalue sensitivities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimRisk {
    /// Index of the claim in the source portfolio.
    pub claim: usize,
    /// Price estimate.
    pub price: f64,
    /// dV/dS (central difference of the spot bumps).
    pub delta: f64,
    /// d²V/dS² (second difference).
    pub gamma: f64,
    /// dV/dσ per unit vol (central difference of the vol bumps).
    pub vega: f64,
    /// dV/dr per unit rate.
    pub rho: f64,
}

/// Assemble per-claim sensitivities from the priced sweep.
///
/// `prices[k]` must be the price of `sweep[k]` (`sweep` as produced by
/// [`risk_sweep`]); `spots[claim]` is the claim's base spot (needed to
/// convert the relative spot bump into dS).
pub fn aggregate_risk(
    sweep: &[RiskJob],
    prices: &[f64],
    bump: &BumpSpec,
    spot_of: &dyn Fn(usize) -> f64,
) -> Vec<ClaimRisk> {
    assert_eq!(sweep.len(), prices.len());
    assert!(sweep.len().is_multiple_of(Scenario::ALL.len()));
    let n = Scenario::ALL.len();
    let mut out = Vec::with_capacity(sweep.len() / n);
    for (chunk, pchunk) in sweep.chunks(n).zip(prices.chunks(n)) {
        let claim = chunk[0].claim;
        let find = |s: Scenario| -> f64 {
            let k = chunk
                .iter()
                .position(|j| j.scenario == s)
                .expect("complete scenario set");
            pchunk[k]
        };
        let base = find(Scenario::Base);
        let s0 = spot_of(claim);
        let ds = s0 * bump.spot_rel;
        let up = find(Scenario::SpotUp);
        let dn = find(Scenario::SpotDown);
        out.push(ClaimRisk {
            claim,
            price: base,
            delta: (up - dn) / (2.0 * ds),
            gamma: (up - 2.0 * base + dn) / (ds * ds),
            vega: (find(Scenario::VolUp) - find(Scenario::VolDown)) / (2.0 * bump.vol_abs),
            rho: (find(Scenario::RateUp) - find(Scenario::RateDown)) / (2.0 * bump.rate_abs),
        });
    }
    out
}

/// Re-associate farmed outcomes with sweep order.
pub fn outcomes_to_prices(sweep_len: usize, outcomes: &[JobOutcome]) -> Vec<f64> {
    let mut prices = vec![f64::NAN; sweep_len];
    for o in outcomes {
        prices[o.job] = o.price;
    }
    prices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{toy_portfolio, PortfolioScale};
    use pricing::methods::closed_form::bs_price;
    use pricing::models::BlackScholes;
    use pricing::options::Vanilla;

    /// Price a risk sweep serially (the farmed version goes through
    /// `save_portfolio` + [`crate::run`] like any portfolio; this is the
    /// convenience path for tests and small books).
    fn price_sweep_serial(sweep: &[RiskJob]) -> Result<Vec<f64>, pricing::PricingError> {
        sweep
            .iter()
            .map(|j| Ok(j.problem.compute()?.price))
            .collect()
    }

    #[test]
    fn sweep_multiplies_by_seven() {
        let jobs = toy_portfolio(10);
        let sweep = risk_sweep(&jobs, &BumpSpec::default());
        assert_eq!(sweep.len(), 70);
        // Claim-major ordering.
        assert_eq!(sweep[0].claim, 0);
        assert_eq!(sweep[0].scenario, Scenario::Base);
        assert_eq!(sweep[7].claim, 1);
    }

    #[test]
    fn full_portfolio_sweep_is_paper_magnitude() {
        // §1: "a huge number of atomic computations (around 10⁶)". The
        // base sweep gives 7931 × 7 ≈ 55.5k; an 18-point parameter grid
        // (paper-style multi-level bumps) crosses 10⁶. We check the base
        // multiplication without materialising the full sweep.
        let claims = 7931usize;
        assert_eq!(claims * Scenario::ALL.len(), 55_517);
        assert!(claims * 128 > 1_000_000);
    }

    #[test]
    fn bumped_delta_matches_closed_form() {
        let jobs = toy_portfolio(5);
        let bump = BumpSpec::default();
        let sweep = risk_sweep(&jobs, &bump);
        let prices = price_sweep_serial(&sweep).unwrap();
        let risks = aggregate_risk(&sweep, &prices, &bump, &|_| 100.0);
        assert_eq!(risks.len(), 5);
        for (risk, job) in risks.iter().zip(&jobs) {
            let m = match &job.problem.model {
                ModelSpec::BlackScholes(m) => *m,
                _ => unreachable!(),
            };
            let opt =
                Vanilla::european_call(job.problem.option.strike(), job.problem.option.maturity());
            let exact = bs_price(&m, &opt);
            assert!(
                (risk.delta - exact.delta).abs() < 5e-4,
                "claim {}: bumped delta {} exact {}",
                risk.claim,
                risk.delta,
                exact.delta
            );
            assert!(
                (risk.gamma - exact.gamma).abs() < 5e-4,
                "claim {}: bumped gamma {} exact {}",
                risk.claim,
                risk.gamma,
                exact.gamma
            );
            // A ±1-vol-point central difference carries O(h²·∂³V/∂σ³)
            // curvature error — a few percent on deep-ITM short-dated
            // claims where vega is tiny and strongly convex.
            assert!(
                (risk.vega - exact.vega).abs() < exact.vega.abs() * 0.05 + 2e-3,
                "claim {}: bumped vega {} exact {}",
                risk.claim,
                risk.vega,
                exact.vega
            );
            assert!((risk.price - exact.price).abs() < 1e-12);
        }
    }

    #[test]
    fn call_rho_is_positive_put_rho_negative() {
        let m = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
        let bump = BumpSpec::default();
        let base = pricing::PremiaProblem::new(
            ModelSpec::BlackScholes(m),
            pricing::OptionSpec::Call {
                strike: 100.0,
                maturity: 1.0,
            },
            pricing::MethodSpec::ClosedForm,
        );
        let job = PortfolioJob {
            id: 0,
            class: crate::JobClass::VanillaClosedForm,
            problem: base,
        };
        let sweep = risk_sweep(std::slice::from_ref(&job), &bump);
        let prices = price_sweep_serial(&sweep).unwrap();
        let r = aggregate_risk(&sweep, &prices, &bump, &|_| 100.0);
        assert!(r[0].rho > 0.0, "call rho {}", r[0].rho);

        let mut put_job = job;
        put_job.problem.option = pricing::OptionSpec::Put {
            strike: 100.0,
            maturity: 1.0,
        };
        let sweep = risk_sweep(&[put_job], &bump);
        let prices = price_sweep_serial(&sweep).unwrap();
        let r = aggregate_risk(&sweep, &prices, &bump, &|_| 100.0);
        assert!(r[0].rho < 0.0, "put rho {}", r[0].rho);
    }

    #[test]
    fn bump_model_covers_every_model_and_scenario() {
        let models = [
            ModelSpec::by_name("BlackScholes1dim").unwrap(),
            ModelSpec::by_name("BlackScholesNdim").unwrap(),
            ModelSpec::by_name("LocalVol1dim").unwrap(),
            ModelSpec::by_name("Heston1dim").unwrap(),
        ];
        let bump = BumpSpec::default();
        for m in &models {
            for &s in &Scenario::ALL {
                let b = bump_model(m, s, &bump);
                if s == Scenario::Base {
                    assert_eq!(&b, m);
                } else {
                    assert_ne!(&b, m, "{m:?} unchanged by {s:?}");
                }
            }
        }
        // Rates model: spot scenarios are identity, vol/rate bumps act.
        let v = ModelSpec::by_name("Vasicek1dim").unwrap();
        assert_eq!(bump_model(&v, Scenario::SpotUp, &bump), v);
        assert_ne!(bump_model(&v, Scenario::VolUp, &bump), v);
        assert_ne!(bump_model(&v, Scenario::RateUp, &bump), v);
    }

    #[test]
    fn heston_vol_bump_is_symmetric_in_vol_space() {
        let m = ModelSpec::by_name("Heston1dim").unwrap();
        let bump = BumpSpec::default();
        let up = bump_model(&m, Scenario::VolUp, &bump);
        let dn = bump_model(&m, Scenario::VolDown, &bump);
        if let (ModelSpec::Heston(u), ModelSpec::Heston(d), ModelSpec::Heston(b)) = (&up, &dn, &m) {
            assert!((u.v0.sqrt() - b.v0.sqrt() - bump.vol_abs).abs() < 1e-12);
            assert!((b.v0.sqrt() - d.v0.sqrt() - bump.vol_abs).abs() < 1e-12);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn risk_jobs_survive_serialization() {
        // Risk jobs go through the same farm pipeline — XDR must carry
        // the bumped parameters exactly.
        let jobs = crate::portfolio::realistic_portfolio(PortfolioScale::Quick, 2000);
        let sweep = risk_sweep(&jobs, &BumpSpec::default());
        for j in sweep.iter().take(40) {
            let v = j.problem.to_value();
            let s = xdrser::serialize(&v);
            let back =
                pricing::PremiaProblem::from_value(&xdrser::unserialize(&s).unwrap()).unwrap();
            assert_eq!(back, j.problem);
        }
    }

    #[test]
    fn outcomes_to_prices_orders_by_job() {
        let outcomes = vec![
            JobOutcome {
                job: 2,
                slave: 1,
                price: 30.0,
                std_error: None,
            },
            JobOutcome {
                job: 0,
                slave: 2,
                price: 10.0,
                std_error: None,
            },
            JobOutcome {
                job: 1,
                slave: 1,
                price: 20.0,
                std_error: None,
            },
        ];
        assert_eq!(outcomes_to_prices(3, &outcomes), vec![10.0, 20.0, 30.0]);
    }
}
