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
//!
//! Each class's problem is written once, in the private
//! `JobClass::problem` recipe: a (model, product, method) at a strike,
//! a maturity and a seed. Every generator lays that recipe over its own
//! points — the §4.3 grid of each class, the §4.2 vanilla grid cycled,
//! the 12-job block of [`mixed_portfolio`] — and
//! [`representative_problem`] is the recipe at the money with a one-year
//! maturity, so the problem the `perf` pricing layer times and the
//! problems the tables run come from the same spelling.

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
    /// Every variant, in canonical order: `ALL[i] as usize == i`.
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

    /// Stable display name of the class (the per-class breakdown key).
    pub fn name(self) -> &'static str {
        match self {
            JobClass::VanillaClosedForm => "vanilla_cf",
            JobClass::BarrierPde => "barrier_pde",
            JobClass::BasketMc => "basket_mc",
            JobClass::LocalVolMc => "localvol_mc",
            JobClass::AmericanPde => "american_pde",
            JobClass::AmericanBasketLsm => "american_lsm",
            JobClass::BermudanMaxLsm => "bermudan_max_lsm",
            JobClass::BsdePicardMc => "bsde_picard_mc",
            JobClass::XvaCvaMc => "xva_cva_mc",
        }
    }

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

    /// The class's one problem recipe at `strike`, `maturity` and `seed`
    /// (a closed form or PDE ignores the seed, the CVA book the strike).
    /// The barrier sits at 85 % of the lower of strike and spot, and its
    /// PDE takes the thinner of "one time step every 2 days" (§4.3) and
    /// the plain PDE grid.
    fn problem(self, p: &MethodParams, strike: f64, maturity: f64, seed: u64) -> PremiaProblem {
        let bs = || ModelSpec::BlackScholes(BlackScholes::new(SPOT, SIGMA, RATE, 0.0));
        let basket = |dim, dividend| {
            ModelSpec::MultiBlackScholes(MultiBlackScholes::new(
                dim, SPOT, SIGMA, 0.3, RATE, dividend,
            ))
        };
        let mc = MethodSpec::MonteCarlo {
            paths: p.mc_paths,
            time_steps: p.mc_steps,
            antithetic: true,
            seed,
        };
        let lsm = |basis_degree| MethodSpec::Lsm {
            paths: p.lsm_paths,
            exercise_dates: p.lsm_dates,
            basis_degree,
            seed,
        };
        let (model, option, method) = match self {
            JobClass::VanillaClosedForm => (
                bs(),
                OptionSpec::Call { strike, maturity },
                MethodSpec::ClosedForm,
            ),
            JobClass::BarrierPde => (
                bs(),
                OptionSpec::DownOutCall {
                    strike,
                    barrier: 0.85 * strike.min(SPOT),
                    maturity,
                },
                MethodSpec::Pde {
                    time_steps: ((maturity * p.barrier_t_per_year as f64).ceil() as usize)
                        .max(p.pde_t),
                    space_steps: p.pde_x,
                },
            ),
            JobClass::BasketMc => (
                basket(40, 0.0),
                OptionSpec::BasketPut { strike, maturity },
                mc,
            ),
            JobClass::LocalVolMc => (
                ModelSpec::LocalVol(LocalVol::standard(SPOT, SIGMA, RATE, 0.0)),
                OptionSpec::Call { strike, maturity },
                mc,
            ),
            JobClass::AmericanPde => (
                bs(),
                OptionSpec::AmericanPut { strike, maturity },
                MethodSpec::Pde {
                    time_steps: p.pde_t,
                    space_steps: p.pde_x,
                },
            ),
            JobClass::AmericanBasketLsm => (
                basket(7, 0.0),
                OptionSpec::AmericanBasketPut { strike, maturity },
                lsm(3),
            ),
            JobClass::BermudanMaxLsm => (
                basket(3, 0.1),
                OptionSpec::BermudanMaxCall { strike, maturity },
                lsm(2),
            ),
            JobClass::BsdePicardMc => (
                bs(),
                OptionSpec::Call { strike, maturity },
                MethodSpec::Bsde {
                    paths: p.bsde_paths,
                    time_steps: p.bsde_steps,
                    rate_spread: 0.05,
                    picard_rounds: 3,
                    y_prev: 0.0,
                    seed,
                },
            ),
            JobClass::XvaCvaMc => (
                bs(),
                OptionSpec::NettingSet {
                    trades: 64,
                    maturity,
                },
                MethodSpec::Xva {
                    paths: p.xva_paths,
                    time_steps: p.xva_dates,
                    hazard: 0.02,
                    lgd: 0.6,
                    seed,
                },
            ),
        };
        PremiaProblem::new(model, option, method)
    }

    /// The §4.3 (strike, maturity) grid of a paper class, maturities
    /// outer and strikes inner in steps of 1 % of spot: maturities
    /// quarterly from 4 months (32) with strikes 70–130 % for the vanilla,
    /// barrier and American puts; maturities 0.2–5 y step 0.2 (25) with
    /// strikes 90–110 % for the baskets and 80–120 % for local vol. Empty
    /// for the extension classes, which have no slot in the paper.
    fn grid(self) -> impl Iterator<Item = (f64, f64)> + Clone {
        let quarterly: fn(usize) -> f64 = |q| 4.0 / 12.0 + 0.25 * q as f64;
        let fifths: fn(usize) -> f64 = |m| 0.2 * m as f64;
        let (dates, maturity_of, low, strikes) = match self {
            JobClass::VanillaClosedForm | JobClass::BarrierPde | JobClass::AmericanPde => {
                (0..32, quarterly, 0.70, 61)
            }
            JobClass::BasketMc | JobClass::AmericanBasketLsm => (1..26, fifths, 0.90, 21),
            JobClass::LocalVolMc => (1..26, fifths, 0.80, 41),
            _ => (0..0, quarterly, 0.0, 0),
        };
        dates.flat_map(move |d| {
            let maturity = maturity_of(d);
            (0..strikes).map(move |s| (SPOT * (low + 0.01 * s as f64), maturity))
        })
    }

    /// The seed of the class's first problem in a portfolio (a class
    /// whose method draws no random numbers takes 0).
    fn first_seed(self) -> u64 {
        match self {
            JobClass::BasketMc => 42,
            JobClass::LocalVolMc => 137,
            JobClass::AmericanBasketLsm => 271,
            JobClass::BermudanMaxLsm => 314,
            JobClass::BsdePicardMc => 577,
            JobClass::XvaCvaMc => 733,
            _ => 0,
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

/// Number classed problems in order: the job ids of a portfolio.
fn numbered(jobs: impl IntoIterator<Item = (JobClass, PremiaProblem)>) -> Vec<PortfolioJob> {
    jobs.into_iter()
        .enumerate()
        .map(|(id, (class, problem))| PortfolioJob { id, class, problem })
        .collect()
}

/// The §4.3 realistic portfolio: 7 931 claims with the paper's exact
/// composition. `stride` keeps every `stride`-th job of each class
/// (stride 1 = the full portfolio), preserving class proportions for
/// scaled-down test runs.
pub fn realistic_portfolio(scale: PortfolioScale, stride: usize) -> Vec<PortfolioJob> {
    assert!(stride >= 1, "stride must be at least 1");
    let p = &scale.params();
    numbered(JobClass::ALL[..6].iter().flat_map(|&class| {
        let seed = class.first_seed();
        class
            .grid()
            .enumerate()
            .step_by(stride)
            .map(move |(i, (strike, maturity))| {
                (class, class.problem(p, strike, maturity, seed + i as u64))
            })
    }))
}

/// The §4.2 toy portfolio: `count` closed-form vanilla calls (the paper
/// uses 10 000), the §4.3 vanilla grid cycled — "a single price
/// computation is then very fast and the time spent in communication is
/// easily highlighted".
pub fn toy_portfolio(count: usize) -> Vec<PortfolioJob> {
    let class = JobClass::VanillaClosedForm;
    // A closed form reads no method sizes: either scale's will do.
    let p = &PortfolioScale::Quick.params();
    numbered(
        class
            .grid()
            .cycle()
            .take(count)
            .map(|(strike, maturity)| (class, class.problem(p, strike, maturity, 0))),
    )
}

/// One ready-to-price representative problem of `class` at `scale`: the
/// class's recipe at the money, with a one-year maturity and the class's
/// first seed. For the extension classes (Bermudan max-call, BSDE Picard
/// sweep, netted CVA book), which have no slot in the paper composition,
/// this is *the* canonical problem of each class that the `perf` pricing
/// layer times.
pub fn representative_problem(class: JobClass, scale: PortfolioScale) -> PortfolioJob {
    PortfolioJob {
        id: 0,
        class,
        problem: class.problem(&scale.params(), SPOT, 1.0, class.first_seed()),
    }
}

/// A deterministic heavy-tailed mixed-class portfolio: `groups`
/// repetitions of a 12-job block dominated by a handful of expensive
/// American/Bermudan/BSDE claims over a sea of near-free vanillas. This
/// is the straggler-tail shape on which LPT dispatch beats FIFO in the
/// simulator — a FIFO master can strand a 100× grain on the last
/// dispatch while LPT front-loads it.
pub fn mixed_portfolio(scale: PortfolioScale, groups: usize) -> Vec<PortfolioJob> {
    let p = &scale.params();
    numbered((0..groups).flat_map(|g| {
        let tweak = move |base: f64| base * (0.95 + 0.01 * (g % 10) as f64);
        let seed = 1000 * g as u64;
        // Six near-free vanillas, a mid-weight European tier, and the
        // heavy tail: American/Bermudan claims whose grains dominate the
        // block. Every job but the vanillas sits at the tweaked money.
        let vanillas = (0..6).map(move |s| {
            let strike = tweak(SPOT * (0.9 + 0.02 * s as f64));
            (JobClass::VanillaClosedForm, strike, 0)
        });
        let rest = [
            (JobClass::LocalVolMc, seed),
            (JobClass::LocalVolMc, seed + 1),
            (JobClass::XvaCvaMc, seed + 7),
            (JobClass::BsdePicardMc, seed + 8),
            (JobClass::AmericanBasketLsm, seed + 9),
            (JobClass::BermudanMaxLsm, seed + 10),
        ]
        .map(|(class, seed)| (class, tweak(SPOT), seed));
        vanillas.chain(rest).map(move |(class, strike, seed)| {
            let mut problem = class.problem(p, strike, 1.0, seed);
            // The block's own book sizes and a two-sweep BSDE.
            if let OptionSpec::NettingSet { trades, .. } = &mut problem.option {
                *trades = 48 + 8 * (g % 3);
            }
            if let MethodSpec::Bsde { picard_rounds, .. } = &mut problem.method {
                *picard_rounds = 2;
            }
            (class, problem)
        })
    }))
}

/// The §4.1 workload: the non-regression suite wrapped as portfolio jobs.
pub fn regression_portfolio(scale: PortfolioScale) -> Vec<PortfolioJob> {
    let suite_scale = match scale {
        PortfolioScale::Quick => pricing::regression::SuiteScale::Quick,
        PortfolioScale::Full => pricing::regression::SuiteScale::Full,
    };
    numbered(
        pricing::regression::regression_suite(suite_scale)
            .into_iter()
            .map(|problem| {
                // Classify by method for the cost model.
                let class = match (&problem.method, &problem.option) {
                    (MethodSpec::ClosedForm, _) => JobClass::VanillaClosedForm,
                    (MethodSpec::Pde { .. }, OptionSpec::AmericanPut { .. }) => {
                        JobClass::AmericanPde
                    }
                    (MethodSpec::Pde { .. }, _) => JobClass::BarrierPde,
                    (MethodSpec::Tree { .. }, _) => JobClass::BarrierPde,
                    (MethodSpec::Lsm { .. }, OptionSpec::BermudanMaxCall { .. }) => {
                        JobClass::BermudanMaxLsm
                    }
                    (MethodSpec::Lsm { .. }, _) => JobClass::AmericanBasketLsm,
                    (MethodSpec::MonteCarlo { .. }, OptionSpec::BasketPut { .. }) => {
                        JobClass::BasketMc
                    }
                    (MethodSpec::MonteCarlo { .. }, _)
                    | (MethodSpec::QuasiMonteCarlo { .. }, _) => JobClass::LocalVolMc,
                    (MethodSpec::Bsde { .. }, _) => JobClass::BsdePicardMc,
                    (MethodSpec::Xva { .. }, _) => JobClass::XvaCvaMc,
                };
                (class, problem)
            }),
    )
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
    fn a_class_is_its_index_in_all() {
        for (i, class) in JobClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
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

    /// Job count and 64-bit FNV-1a digest of each job's id, class and
    /// XDR-encoded problem, in order.
    fn digest(jobs: &[PortfolioJob]) -> (usize, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for j in jobs {
            let class = format!("{:?}", j.class);
            for part in [
                &j.id.to_le_bytes()[..],
                class.as_bytes(),
                &j.problem.to_xdr_bytes(),
            ] {
                for &b in part {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        (jobs.len(), h)
    }

    /// Every generator's output, byte for byte: a change to how the
    /// generators are written must not change one problem they write.
    #[test]
    fn every_generator_writes_the_pinned_bytes() {
        use PortfolioScale::{Full, Quick};
        let mut got = Vec::new();
        for scale in [Quick, Full] {
            for stride in [1, 4, 97] {
                let jobs = realistic_portfolio(scale, stride);
                got.push((format!("realistic({scale:?}, {stride})"), digest(&jobs)));
            }
            for groups in [1, 3, 11] {
                let jobs = mixed_portfolio(scale, groups);
                got.push((format!("mixed({scale:?}, {groups})"), digest(&jobs)));
            }
            for class in JobClass::ALL {
                let job = representative_problem(class, scale);
                got.push((
                    format!("representative({class:?}, {scale:?})"),
                    digest(&[job]),
                ));
            }
            let jobs = regression_portfolio(scale);
            got.push((format!("regression({scale:?})"), digest(&jobs)));
        }
        got.push(("toy(2000)".into(), digest(&toy_portfolio(2000))));
        let pinned: [(&str, (usize, u64)); 33] = [
            ("realistic(Quick, 1)", (7931, 9537902123375134173)),
            ("realistic(Quick, 4)", (1985, 13810969427981023895)),
            ("realistic(Quick, 97)", (86, 1917517820278513142)),
            ("mixed(Quick, 1)", (12, 6968065704662335042)),
            ("mixed(Quick, 3)", (36, 17001200726479301744)),
            ("mixed(Quick, 11)", (132, 14690718010271221359)),
            (
                "representative(VanillaClosedForm, Quick)",
                (1, 8307046704351272872),
            ),
            (
                "representative(BarrierPde, Quick)",
                (1, 15628983093342818396),
            ),
            ("representative(BasketMc, Quick)", (1, 12886819953504631837)),
            (
                "representative(LocalVolMc, Quick)",
                (1, 14637728522385297284),
            ),
            (
                "representative(AmericanPde, Quick)",
                (1, 13248799656677786444),
            ),
            (
                "representative(AmericanBasketLsm, Quick)",
                (1, 16583409971504517317),
            ),
            (
                "representative(BermudanMaxLsm, Quick)",
                (1, 13210703478578070604),
            ),
            (
                "representative(BsdePicardMc, Quick)",
                (1, 11522642523931243253),
            ),
            ("representative(XvaCvaMc, Quick)", (1, 7443745511756523903)),
            ("regression(Quick)", (84, 2869428467323591199)),
            ("realistic(Full, 1)", (7931, 2856799558015918130)),
            ("realistic(Full, 4)", (1985, 16602902661108931638)),
            ("realistic(Full, 97)", (86, 14269208768221794264)),
            ("mixed(Full, 1)", (12, 11365638388187705762)),
            ("mixed(Full, 3)", (36, 16926100295155224424)),
            ("mixed(Full, 11)", (132, 7224096923654937511)),
            (
                "representative(VanillaClosedForm, Full)",
                (1, 8307046704351272872),
            ),
            (
                "representative(BarrierPde, Full)",
                (1, 14295488913990683976),
            ),
            ("representative(BasketMc, Full)", (1, 16910191336213221300)),
            (
                "representative(LocalVolMc, Full)",
                (1, 11481702829439128269),
            ),
            (
                "representative(AmericanPde, Full)",
                (1, 12644279481057133592),
            ),
            (
                "representative(AmericanBasketLsm, Full)",
                (1, 6488013111650676169),
            ),
            (
                "representative(BermudanMaxLsm, Full)",
                (1, 8702671746296360288),
            ),
            (
                "representative(BsdePicardMc, Full)",
                (1, 18288994246721741448),
            ),
            ("representative(XvaCvaMc, Full)", (1, 3859615070321719610)),
            ("regression(Full)", (84, 14659198778651404989)),
            ("toy(2000)", (2000, 16079577704650675874)),
        ];
        assert_eq!(got.len(), pinned.len());
        for ((name, d), (pin_name, pin)) in got.iter().zip(pinned) {
            assert_eq!(name, pin_name);
            assert_eq!(*d, pin, "{name}: (len, digest) moved");
        }
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
