//! Portfolio generators — the three benchmark workloads of §4.
//!
//! The §4.3 realistic portfolio reproduces the paper's composition
//! exactly (7 931 claims):
//!
//! | count | product | method |
//! |---|---|---|
//! | 1952 | vanilla calls, maturities quarterly 4 m → 8 y (32), strikes 70–130 % step 1 % (61) | closed form |
//! | 1952 | down-and-out calls, same grid, barrier clause ⇒ thin time steps | PDE |
//! | 525  | 40-dim basket puts, maturities 0.2–5 y step 0.2 (25), strikes 90–110 % (21) | Monte-Carlo (10⁶ samples at full scale) |
//! | 1025 | local-vol calls, strikes 80–120 % (41), maturities 0.2–5 y (25) | Monte-Carlo |
//! | 1952 | American puts, same grid as vanillas | PDE |
//! | 525  | 7-dim American basket puts, maturities 0.2–5 y, strikes 90–110 % | Longstaff–Schwartz |

use pricing::models::{BlackScholes, LocalVol, MultiBlackScholes};
use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};
use std::path::{Path, PathBuf};

/// Which product class a job belongs to — the cost-model key used by
/// the cluster simulator. The first six variants are the §4.3 paper
/// composition; the last three are the heterogeneous extensions drawn
/// from the related literature (Doan et al. 2008 multi-dimensional
/// Bermudan LSM, Labart–Lelong 2011 BSDE Picard sweeps, and
/// portfolio-level XVA aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Plain vanilla call, closed form (≈ instantaneous).
    VanillaClosedForm,
    /// Down-and-out barrier call, PDE with thin time steps (10–30 s).
    BarrierPde,
    /// 40-dimensional basket put, Monte-Carlo (10–30 s).
    BasketMc,
    /// Local-volatility call, Monte-Carlo (10–30 s).
    LocalVolMc,
    /// American put, PDE (> 60 s).
    AmericanPde,
    /// 7-dimensional American basket put, LSM (> 60 s).
    AmericanBasketLsm,
    /// Multi-dimensional Bermudan max-call, LSM (Doan et al. 2008).
    BermudanMaxLsm,
    /// One BSDE Picard sweep, Monte-Carlo (Labart–Lelong 2011). The cost
    /// is *per sweep*: a full pricing is `picard_rounds` dependent
    /// farm rounds of this grain.
    BsdePicardMc,
    /// Portfolio-level CVA over a netted trade book, Monte-Carlo.
    XvaCvaMc,
}

impl JobClass {
    /// Every variant, in canonical order.
    pub const ALL: [JobClass; 9] = [
        JobClass::VanillaClosedForm,
        JobClass::BarrierPde,
        JobClass::BasketMc,
        JobClass::LocalVolMc,
        JobClass::AmericanPde,
        JobClass::AmericanBasketLsm,
        JobClass::BermudanMaxLsm,
        JobClass::BsdePicardMc,
        JobClass::XvaCvaMc,
    ];

    /// The §4.3 paragraph-stated computation cost of one problem of this
    /// class on a 2009 cluster node, in seconds ("the pricing of plain
    /// vanilla options is almost instantaneous; the Monte-Carlo and PDE
    /// approaches for European options roughly demand the same amount of
    /// computations (between 10 and 30 seconds); the evaluation of American
    /// products is much longer than any other (above 60 seconds)"). The
    /// extension classes are placed on the same scale: one BSDE Picard
    /// sweep costs more than any single European Monte-Carlo grain (the
    /// sweep regresses *and* simulates), the Bermudan max-call sits with
    /// the American products, and the netted CVA book is a wide but
    /// shallow European-style pass.
    pub fn paper_cost_seconds(&self) -> (f64, f64) {
        match self {
            JobClass::VanillaClosedForm => (0.001, 0.005),
            JobClass::BarrierPde => (10.0, 30.0),
            JobClass::BasketMc => (10.0, 30.0),
            JobClass::LocalVolMc => (10.0, 30.0),
            JobClass::AmericanPde => (60.0, 100.0),
            JobClass::AmericanBasketLsm => (60.0, 120.0),
            JobClass::BermudanMaxLsm => (60.0, 150.0),
            JobClass::BsdePicardMc => (40.0, 90.0),
            JobClass::XvaCvaMc => (10.0, 40.0),
        }
    }
}

/// One entry of a portfolio: a classified, ready-to-price problem.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioJob {
    /// Stable job index within its portfolio.
    pub id: usize,
    /// §4.3 product class (the cost-model key).
    pub class: JobClass,
    /// The fully specified pricing problem.
    pub problem: PremiaProblem,
}

/// Numerical heaviness of the generated problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioScale {
    /// Tiny parameters — tests and examples (ms per problem).
    Quick,
    /// Paper-scale parameters (10⁶ MC samples, thin PDE grids).
    Full,
}

struct MethodParams {
    mc_paths: usize,
    mc_steps: usize,
    pde_t: usize,
    pde_x: usize,
    /// Barrier PDE time steps per year — §4.3: "one time step every
    /// 2 days".
    barrier_t_per_year: usize,
    lsm_paths: usize,
    lsm_dates: usize,
    /// BSDE Picard sweep: paths and driver-integral steps per sweep. A
    /// sweep simulates *and* regresses, so even at Quick scale its
    /// path-step budget dominates a vanilla Monte-Carlo grain.
    bsde_paths: usize,
    bsde_steps: usize,
    /// XVA exposure paths and exposure dates.
    xva_paths: usize,
    xva_dates: usize,
}

impl PortfolioScale {
    fn params(&self) -> MethodParams {
        match self {
            PortfolioScale::Quick => MethodParams {
                mc_paths: 1_000,
                mc_steps: 10,
                pde_t: 30,
                pde_x: 60,
                barrier_t_per_year: 30,
                lsm_paths: 500,
                lsm_dates: 8,
                bsde_paths: 4_000,
                bsde_steps: 12,
                xva_paths: 2_000,
                xva_dates: 12,
            },
            PortfolioScale::Full => MethodParams {
                mc_paths: 1_000_000,
                mc_steps: 100,
                pde_t: 1_000,
                pde_x: 1_000,
                barrier_t_per_year: 180,
                lsm_paths: 100_000,
                lsm_dates: 50,
                bsde_paths: 500_000,
                bsde_steps: 50,
                xva_paths: 200_000,
                xva_dates: 50,
            },
        }
    }
}

const SPOT: f64 = 100.0;
const RATE: f64 = 0.05;
const SIGMA: f64 = 0.2;

fn bs() -> ModelSpec {
    ModelSpec::BlackScholes(BlackScholes::new(SPOT, SIGMA, RATE, 0.0))
}

/// §4.3 vanilla grid: strikes 70–130 % step 1 %, maturities quarterly from
/// 4 months to (4 months + 31 quarters).
fn vanilla_grid() -> Vec<(f64, f64)> {
    let mut grid = Vec::with_capacity(1952);
    for q in 0..32 {
        let maturity = 4.0 / 12.0 + 0.25 * q as f64;
        for s in 0..61 {
            let strike = SPOT * (0.70 + 0.01 * s as f64);
            grid.push((strike, maturity));
        }
    }
    grid
}

/// §4.3 basket/American-basket grid: maturities 0.2–5 y step 0.2, strikes
/// 90–110 % step 1 %.
fn basket_grid() -> Vec<(f64, f64)> {
    let mut grid = Vec::with_capacity(525);
    for m in 1..=25 {
        let maturity = 0.2 * m as f64;
        for s in 0..21 {
            let strike = SPOT * (0.90 + 0.01 * s as f64);
            grid.push((strike, maturity));
        }
    }
    grid
}

/// §4.3 local-vol grid: strikes 80–120 % step 1 %, maturities 0.2–5 y.
fn local_vol_grid() -> Vec<(f64, f64)> {
    let mut grid = Vec::with_capacity(1025);
    for m in 1..=25 {
        let maturity = 0.2 * m as f64;
        for s in 0..41 {
            let strike = SPOT * (0.80 + 0.01 * s as f64);
            grid.push((strike, maturity));
        }
    }
    grid
}

/// The §4.3 realistic portfolio: 7 931 claims with the paper's exact
/// composition. `stride` keeps every `stride`-th job of each class
/// (stride 1 = the full portfolio), preserving class proportions for
/// scaled-down test runs.
pub fn realistic_portfolio(scale: PortfolioScale, stride: usize) -> Vec<PortfolioJob> {
    assert!(stride >= 1, "stride must be at least 1");
    let p = scale.params();
    let mut jobs = Vec::new();
    let mut id = 0;
    let mut push = |jobs: &mut Vec<PortfolioJob>, class, problem| {
        jobs.push(PortfolioJob { id, class, problem });
        id += 1;
    };

    // 1952 vanilla calls, closed form.
    for (i, &(strike, maturity)) in vanilla_grid().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        push(
            &mut jobs,
            JobClass::VanillaClosedForm,
            PremiaProblem::new(
                bs(),
                OptionSpec::Call { strike, maturity },
                MethodSpec::ClosedForm,
            ),
        );
    }
    // 1952 down-and-out calls, PDE with barrier-thin time steps.
    for (i, &(strike, maturity)) in vanilla_grid().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        let time_steps = ((maturity * p.barrier_t_per_year as f64).ceil() as usize).max(p.pde_t);
        push(
            &mut jobs,
            JobClass::BarrierPde,
            PremiaProblem::new(
                bs(),
                OptionSpec::DownOutCall {
                    strike,
                    barrier: 0.85 * strike.min(SPOT),
                    maturity,
                },
                MethodSpec::Pde {
                    time_steps,
                    space_steps: p.pde_x,
                },
            ),
        );
    }
    // 525 basket-40 puts, Monte-Carlo.
    let basket40 =
        ModelSpec::MultiBlackScholes(MultiBlackScholes::new(40, SPOT, SIGMA, 0.3, RATE, 0.0));
    for (i, &(strike, maturity)) in basket_grid().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        push(
            &mut jobs,
            JobClass::BasketMc,
            PremiaProblem::new(
                basket40.clone(),
                OptionSpec::BasketPut { strike, maturity },
                MethodSpec::MonteCarlo {
                    paths: p.mc_paths,
                    time_steps: p.mc_steps,
                    antithetic: true,
                    seed: 42 + i as u64,
                },
            ),
        );
    }
    // 1025 local-vol calls, Monte-Carlo.
    let lv = ModelSpec::LocalVol(LocalVol::standard(SPOT, SIGMA, RATE, 0.0));
    for (i, &(strike, maturity)) in local_vol_grid().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        push(
            &mut jobs,
            JobClass::LocalVolMc,
            PremiaProblem::new(
                lv.clone(),
                OptionSpec::Call { strike, maturity },
                MethodSpec::MonteCarlo {
                    paths: p.mc_paths,
                    time_steps: p.mc_steps,
                    antithetic: true,
                    seed: 137 + i as u64,
                },
            ),
        );
    }
    // 1952 American puts, PDE.
    for (i, &(strike, maturity)) in vanilla_grid().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        push(
            &mut jobs,
            JobClass::AmericanPde,
            PremiaProblem::new(
                bs(),
                OptionSpec::AmericanPut { strike, maturity },
                MethodSpec::Pde {
                    time_steps: p.pde_t,
                    space_steps: p.pde_x,
                },
            ),
        );
    }
    // 525 American basket-7 puts, LSM.
    let basket7 =
        ModelSpec::MultiBlackScholes(MultiBlackScholes::new(7, SPOT, SIGMA, 0.3, RATE, 0.0));
    for (i, &(strike, maturity)) in basket_grid().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        push(
            &mut jobs,
            JobClass::AmericanBasketLsm,
            PremiaProblem::new(
                basket7.clone(),
                OptionSpec::AmericanBasketPut { strike, maturity },
                MethodSpec::Lsm {
                    paths: p.lsm_paths,
                    exercise_dates: p.lsm_dates,
                    basis_degree: 3,
                    seed: 271 + i as u64,
                },
            ),
        );
    }
    jobs
}

/// The §4.2 toy portfolio: `count` closed-form vanilla calls (the paper
/// uses 10 000), strikes cycling over 70–130 %, maturities cycling
/// quarterly — "a single price computation is then very fast and the time
/// spent in communication is easily highlighted".
pub fn toy_portfolio(count: usize) -> Vec<PortfolioJob> {
    (0..count)
        .map(|i| PortfolioJob {
            id: i,
            class: JobClass::VanillaClosedForm,
            problem: PremiaProblem::new(
                bs(),
                OptionSpec::Call {
                    strike: SPOT * (0.70 + 0.01 * (i % 61) as f64),
                    maturity: 4.0 / 12.0 + 0.25 * ((i / 61) % 32) as f64,
                },
                MethodSpec::ClosedForm,
            ),
        })
        .collect()
}

/// One ready-to-price representative problem of `class` at `scale`. The
/// §4.3 classes use the same specs as [`realistic_portfolio`]; the
/// extension classes (Bermudan max-call, BSDE Picard sweep, netted CVA
/// book) have no slot in the paper composition, so this is *the*
/// canonical problem of each class that the `perf` pricing layer times.
pub fn representative_problem(class: JobClass, scale: PortfolioScale) -> PortfolioJob {
    let p = scale.params();
    let problem = match class {
        JobClass::VanillaClosedForm => PremiaProblem::new(
            bs(),
            OptionSpec::Call {
                strike: SPOT,
                maturity: 1.0,
            },
            MethodSpec::ClosedForm,
        ),
        JobClass::BarrierPde => PremiaProblem::new(
            bs(),
            OptionSpec::DownOutCall {
                strike: SPOT,
                barrier: 0.85 * SPOT,
                maturity: 1.0,
            },
            MethodSpec::Pde {
                time_steps: p.barrier_t_per_year.max(p.pde_t),
                space_steps: p.pde_x,
            },
        ),
        JobClass::BasketMc => PremiaProblem::new(
            ModelSpec::MultiBlackScholes(MultiBlackScholes::new(40, SPOT, SIGMA, 0.3, RATE, 0.0)),
            OptionSpec::BasketPut {
                strike: SPOT,
                maturity: 1.0,
            },
            MethodSpec::MonteCarlo {
                paths: p.mc_paths,
                time_steps: p.mc_steps,
                antithetic: true,
                seed: 42,
            },
        ),
        JobClass::LocalVolMc => PremiaProblem::new(
            ModelSpec::LocalVol(LocalVol::standard(SPOT, SIGMA, RATE, 0.0)),
            OptionSpec::Call {
                strike: SPOT,
                maturity: 1.0,
            },
            MethodSpec::MonteCarlo {
                paths: p.mc_paths,
                time_steps: p.mc_steps,
                antithetic: true,
                seed: 137,
            },
        ),
        JobClass::AmericanPde => PremiaProblem::new(
            bs(),
            OptionSpec::AmericanPut {
                strike: SPOT,
                maturity: 1.0,
            },
            MethodSpec::Pde {
                time_steps: p.pde_t,
                space_steps: p.pde_x,
            },
        ),
        JobClass::AmericanBasketLsm => PremiaProblem::new(
            ModelSpec::MultiBlackScholes(MultiBlackScholes::new(7, SPOT, SIGMA, 0.3, RATE, 0.0)),
            OptionSpec::AmericanBasketPut {
                strike: SPOT,
                maturity: 1.0,
            },
            MethodSpec::Lsm {
                paths: p.lsm_paths,
                exercise_dates: p.lsm_dates,
                basis_degree: 3,
                seed: 271,
            },
        ),
        JobClass::BermudanMaxLsm => PremiaProblem::new(
            ModelSpec::MultiBlackScholes(MultiBlackScholes::new(3, SPOT, SIGMA, 0.3, RATE, 0.1)),
            OptionSpec::BermudanMaxCall {
                strike: SPOT,
                maturity: 1.0,
            },
            MethodSpec::Lsm {
                paths: p.lsm_paths,
                exercise_dates: p.lsm_dates,
                basis_degree: 2,
                seed: 314,
            },
        ),
        JobClass::BsdePicardMc => PremiaProblem::new(
            bs(),
            OptionSpec::Call {
                strike: SPOT,
                maturity: 1.0,
            },
            MethodSpec::Bsde {
                paths: p.bsde_paths,
                time_steps: p.bsde_steps,
                rate_spread: 0.05,
                picard_rounds: 3,
                y_prev: 0.0,
                seed: 577,
            },
        ),
        JobClass::XvaCvaMc => PremiaProblem::new(
            bs(),
            OptionSpec::NettingSet {
                trades: 64,
                maturity: 1.0,
            },
            MethodSpec::Xva {
                paths: p.xva_paths,
                time_steps: p.xva_dates,
                hazard: 0.02,
                lgd: 0.6,
                seed: 733,
            },
        ),
    };
    PortfolioJob {
        id: 0,
        class,
        problem,
    }
}

/// A deterministic heavy-tailed mixed-class portfolio: `groups`
/// repetitions of a 12-job block dominated by a handful of expensive
/// American/Bermudan/BSDE claims over a sea of near-free vanillas. This
/// is the straggler-tail shape on which LPT dispatch beats FIFO in the
/// simulator — a FIFO master can strand a 100× grain on the last
/// dispatch while LPT front-loads it.
pub fn mixed_portfolio(scale: PortfolioScale, groups: usize) -> Vec<PortfolioJob> {
    let p = scale.params();
    let mut jobs = Vec::with_capacity(12 * groups);
    for g in 0..groups {
        let tweak = |base: f64| base * (0.95 + 0.01 * (g % 10) as f64);
        let seed = 1000 * g as u64;
        // Six near-free vanillas...
        for s in 0..6 {
            jobs.push((
                JobClass::VanillaClosedForm,
                PremiaProblem::new(
                    bs(),
                    OptionSpec::Call {
                        strike: tweak(SPOT * (0.9 + 0.02 * s as f64)),
                        maturity: 1.0,
                    },
                    MethodSpec::ClosedForm,
                ),
            ));
        }
        // ...a mid-weight European tier...
        for s in 0..2 {
            jobs.push((
                JobClass::LocalVolMc,
                PremiaProblem::new(
                    ModelSpec::LocalVol(LocalVol::standard(SPOT, SIGMA, RATE, 0.0)),
                    OptionSpec::Call {
                        strike: tweak(SPOT),
                        maturity: 1.0,
                    },
                    MethodSpec::MonteCarlo {
                        paths: p.mc_paths,
                        time_steps: p.mc_steps,
                        antithetic: true,
                        seed: seed + s,
                    },
                ),
            ));
        }
        jobs.push((
            JobClass::XvaCvaMc,
            PremiaProblem::new(
                bs(),
                OptionSpec::NettingSet {
                    trades: 48 + 8 * (g % 3),
                    maturity: 1.0,
                },
                MethodSpec::Xva {
                    paths: p.xva_paths,
                    time_steps: p.xva_dates,
                    hazard: 0.02,
                    lgd: 0.6,
                    seed: seed + 7,
                },
            ),
        ));
        jobs.push((
            JobClass::BsdePicardMc,
            PremiaProblem::new(
                bs(),
                OptionSpec::Call {
                    strike: tweak(SPOT),
                    maturity: 1.0,
                },
                MethodSpec::Bsde {
                    paths: p.bsde_paths,
                    time_steps: p.bsde_steps,
                    rate_spread: 0.05,
                    picard_rounds: 2,
                    y_prev: 0.0,
                    seed: seed + 8,
                },
            ),
        ));
        // ...and the heavy tail: American/Bermudan claims whose grains
        // dominate the block.
        jobs.push((
            JobClass::AmericanBasketLsm,
            PremiaProblem::new(
                ModelSpec::MultiBlackScholes(MultiBlackScholes::new(
                    7, SPOT, SIGMA, 0.3, RATE, 0.0,
                )),
                OptionSpec::AmericanBasketPut {
                    strike: tweak(SPOT),
                    maturity: 1.0,
                },
                MethodSpec::Lsm {
                    paths: p.lsm_paths,
                    exercise_dates: p.lsm_dates,
                    basis_degree: 3,
                    seed: seed + 9,
                },
            ),
        ));
        jobs.push((
            JobClass::BermudanMaxLsm,
            PremiaProblem::new(
                ModelSpec::MultiBlackScholes(MultiBlackScholes::new(
                    3, SPOT, SIGMA, 0.3, RATE, 0.1,
                )),
                OptionSpec::BermudanMaxCall {
                    strike: tweak(SPOT),
                    maturity: 1.0,
                },
                MethodSpec::Lsm {
                    paths: p.lsm_paths,
                    exercise_dates: p.lsm_dates,
                    basis_degree: 2,
                    seed: seed + 10,
                },
            ),
        ));
    }
    jobs.into_iter()
        .enumerate()
        .map(|(id, (class, problem))| PortfolioJob { id, class, problem })
        .collect()
}

/// The §4.1 workload: the non-regression suite wrapped as portfolio jobs.
pub fn regression_portfolio(scale: PortfolioScale) -> Vec<PortfolioJob> {
    let suite_scale = match scale {
        PortfolioScale::Quick => pricing::regression::SuiteScale::Quick,
        PortfolioScale::Full => pricing::regression::SuiteScale::Full,
    };
    pricing::regression::regression_suite(suite_scale)
        .into_iter()
        .enumerate()
        .map(|(i, problem)| {
            // Classify by method for the cost model.
            let class = match (&problem.method, &problem.option) {
                (MethodSpec::ClosedForm, _) => JobClass::VanillaClosedForm,
                (MethodSpec::Pde { .. }, OptionSpec::AmericanPut { .. }) => JobClass::AmericanPde,
                (MethodSpec::Pde { .. }, _) => JobClass::BarrierPde,
                (MethodSpec::Tree { .. }, _) => JobClass::BarrierPde,
                (MethodSpec::Lsm { .. }, OptionSpec::BermudanMaxCall { .. }) => {
                    JobClass::BermudanMaxLsm
                }
                (MethodSpec::Lsm { .. }, _) => JobClass::AmericanBasketLsm,
                (MethodSpec::MonteCarlo { .. }, OptionSpec::BasketPut { .. }) => JobClass::BasketMc,
                (MethodSpec::MonteCarlo { .. }, _) | (MethodSpec::QuasiMonteCarlo { .. }, _) => {
                    JobClass::LocalVolMc
                }
                (MethodSpec::Bsde { .. }, _) => JobClass::BsdePicardMc,
                (MethodSpec::Xva { .. }, _) => JobClass::XvaCvaMc,
            };
            PortfolioJob {
                id: i,
                class,
                problem,
            }
        })
        .collect()
}

/// Save every job of a portfolio into `dir` as XDR files
/// (`pb-<id>.bin`) — "a portfolio will be a collection of files, each file
/// describing a precise pricing problem" (§4). Returns the file paths in
/// job order.
pub fn save_portfolio(jobs: &[PortfolioJob], dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(jobs.len());
    for job in jobs {
        let path = dir.join(format!("pb-{:05}.bin", job.id));
        xdrser::save(&path, &job.problem.to_value())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl JobClass {
        /// The six classes of the §4.3 realistic portfolio (the paper's
        /// exact composition — [`realistic_portfolio`] contains these and
        /// only these).
        const PAPER: [JobClass; 6] = [
            JobClass::VanillaClosedForm,
            JobClass::BarrierPde,
            JobClass::BasketMc,
            JobClass::LocalVolMc,
            JobClass::AmericanPde,
            JobClass::AmericanBasketLsm,
        ];
    }

    #[test]
    fn realistic_portfolio_has_paper_composition() {
        let jobs = realistic_portfolio(PortfolioScale::Quick, 1);
        assert_eq!(jobs.len(), 7931, "total claims");
        let count = |c: JobClass| jobs.iter().filter(|j| j.class == c).count();
        assert_eq!(count(JobClass::VanillaClosedForm), 1952);
        assert_eq!(count(JobClass::BarrierPde), 1952);
        assert_eq!(count(JobClass::BasketMc), 525);
        assert_eq!(count(JobClass::LocalVolMc), 1025);
        assert_eq!(count(JobClass::AmericanPde), 1952);
        assert_eq!(count(JobClass::AmericanBasketLsm), 525);
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let jobs = realistic_portfolio(PortfolioScale::Quick, 16);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
    }

    #[test]
    fn stride_preserves_all_paper_classes() {
        let jobs = realistic_portfolio(PortfolioScale::Quick, 64);
        for class in JobClass::PAPER {
            assert!(
                jobs.iter().any(|j| j.class == class),
                "{class:?} missing at stride 64"
            );
        }
        assert!(jobs.len() < 7931 / 32, "stride barely reduced the size");
    }

    #[test]
    fn paper_classes_are_a_prefix_of_all() {
        assert_eq!(JobClass::PAPER[..], JobClass::ALL[..6]);
        // The realistic portfolio speaks only the paper's six classes.
        let jobs = realistic_portfolio(PortfolioScale::Quick, 64);
        assert!(jobs.iter().all(|j| JobClass::PAPER.contains(&j.class)));
    }

    #[test]
    fn representative_problems_cover_and_compute() {
        for class in JobClass::ALL {
            let job = representative_problem(class, PortfolioScale::Quick);
            assert_eq!(job.class, class);
            let r = job
                .problem
                .compute()
                .unwrap_or_else(|e| panic!("{class:?} representative failed: {e}"));
            assert!(r.price.is_finite(), "{class:?}");
        }
    }

    #[test]
    fn mixed_portfolio_is_heavy_tailed_and_mixed() {
        let jobs = mixed_portfolio(PortfolioScale::Quick, 3);
        assert_eq!(jobs.len(), 36);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
        // All three extension classes and the heavy American tier appear.
        for class in [
            JobClass::BermudanMaxLsm,
            JobClass::BsdePicardMc,
            JobClass::XvaCvaMc,
            JobClass::AmericanBasketLsm,
            JobClass::VanillaClosedForm,
        ] {
            assert!(jobs.iter().any(|j| j.class == class), "{class:?} missing");
        }
        // Heavy-tailed: half the jobs are near-free, and the top grain
        // costs more than the entire bottom half of the portfolio put
        // together (paper cost model midpoints).
        let mut mids: Vec<f64> = jobs
            .iter()
            .map(|j| {
                let (lo, hi) = j.class.paper_cost_seconds();
                0.5 * (lo + hi)
            })
            .collect();
        mids.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bottom_half: f64 = mids[..mids.len() / 2].iter().sum();
        assert!(mids[mids.len() - 1] > bottom_half);
        assert!(mids[mids.len() - 1] > 5.0 * mids[mids.len() / 2]);
    }

    #[test]
    fn toy_portfolio_is_all_closed_form() {
        let jobs = toy_portfolio(10_000);
        assert_eq!(jobs.len(), 10_000);
        assert!(jobs.iter().all(|j| j.class == JobClass::VanillaClosedForm));
        assert!(jobs
            .iter()
            .all(|j| matches!(j.problem.method, MethodSpec::ClosedForm)));
        // Strikes and maturities vary.
        let strikes: std::collections::HashSet<u64> = jobs
            .iter()
            .map(|j| j.problem.option.strike().to_bits())
            .collect();
        assert!(strikes.len() > 50);
    }

    #[test]
    fn sample_jobs_compute() {
        let jobs = realistic_portfolio(PortfolioScale::Quick, 400);
        for job in &jobs {
            let r = job
                .problem
                .compute()
                .unwrap_or_else(|e| panic!("job {} ({:?}) failed: {e}", job.id, job.class));
            assert!(r.price.is_finite());
        }
    }

    #[test]
    fn regression_portfolio_classifies_everything() {
        let jobs = regression_portfolio(PortfolioScale::Quick);
        assert_eq!(jobs.len(), 84);
        for j in &jobs {
            assert!(JobClass::ALL.contains(&j.class));
        }
    }

    #[test]
    fn save_portfolio_round_trips() {
        let dir = std::env::temp_dir().join("farm_portfolio_save_test");
        let jobs = toy_portfolio(20);
        let paths = save_portfolio(&jobs, &dir).unwrap();
        assert_eq!(paths.len(), 20);
        for (job, path) in jobs.iter().zip(&paths) {
            let v = xdrser::load(path).unwrap();
            let p = pricing::PremiaProblem::from_value(&v).unwrap();
            assert_eq!(p, job.problem);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_cost_ranges_ordered() {
        for class in JobClass::ALL {
            let (lo, hi) = class.paper_cost_seconds();
            assert!(lo > 0.0 && hi > lo);
        }
        // American classes cost more than European MC/PDE, which cost
        // more than closed form.
        assert!(
            JobClass::AmericanPde.paper_cost_seconds().0
                > JobClass::BarrierPde.paper_cost_seconds().1
        );
        assert!(
            JobClass::BarrierPde.paper_cost_seconds().0
                > JobClass::VanillaClosedForm.paper_cost_seconds().1
        );
        // One BSDE Picard round regresses *and* simulates: it costs more
        // than any vanilla European Monte-Carlo grain, or the staged
        // rounds would be scheduling noise.
        assert!(
            JobClass::BsdePicardMc.paper_cost_seconds().0
                > JobClass::LocalVolMc.paper_cost_seconds().1
        );
    }
}
