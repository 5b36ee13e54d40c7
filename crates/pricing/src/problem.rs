//! Pricing-problem descriptors — the `PremiaModel` class of §3.3.
//!
//! "A pricing problem corresponds to the choice of a model for the
//! underlying asset, a financial product and a pricing method" (§4.1). The
//! paper builds such problems in Nsp:
//!
//! ```text
//! P = premia_create()
//! P.set_asset[str="equity"]
//! P.set_model[str="Heston1dim"]
//! P.set_option[str="PutAmer"]
//! P.set_method[str="MC_AM_Alfonsi_LongstaffSchwartz"]
//! save('fic', P)
//! ```
//!
//! [`PremiaProblem`] mirrors that: model/option/method are set by
//! registry name (with sensible default parameters, adjustable afterwards)
//! or constructed directly; problems convert losslessly to and from
//! [`nspval::Value`] hashes, so they can be `save`d, `load`ed, `sload`ed
//! and shipped over `minimpi` exactly as in Figs. 4–5; and
//! [`PremiaProblem::compute`] runs the actual numerical method
//! (`P.compute[]`).

use crate::fields::{
    get_bool, get_f64, get_str, get_table, get_usize, read_in_order, Fields, Tree,
};
use crate::methods::bermudan::lsm_max_call;
use crate::methods::bond::{bond_option_price, mc_zcb_price};
use crate::methods::bsde::{bsde_picard, BsdeConfig};
use crate::methods::closed_form::{bs_price, down_out_call_price};
use crate::methods::heston_cf::heston_cf_price;
use crate::methods::lsm::{lsm_basket, lsm_heston, lsm_vanilla_bs, LsmConfig};
use crate::methods::montecarlo::{
    mc_basket, mc_heston, mc_local_vol, mc_vanilla_bs, qmc_basket, qmc_vanilla_bs, McConfig,
};
use crate::methods::pde::{pde_barrier, pde_vanilla, PdeConfig};
use crate::methods::tree::{tree_vanilla, TreeConfig};
use crate::methods::xva::{xva_cva, TradeSoA, XvaConfig};
use crate::models::{BlackScholes, Heston, LocalVol, MultiBlackScholes, Vasicek};
use crate::options::{Barrier, BasketOption, Exercise, MaxCall, OptionRight, Vanilla};
use exec::ExecPolicy;
use nspval::{Hash, Value};
use numerics::poly::BasisKind;
use std::fmt;
use xdrser::{Encoder, FieldSink, XdrError};

/// Model choice plus parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// One-dimensional Black–Scholes.
    BlackScholes(BlackScholes),
    /// One-dimensional Black–Scholes.
    MultiBlackScholes(MultiBlackScholes),
    /// Parametric local volatility.
    LocalVol(LocalVol),
    /// Heston stochastic volatility.
    Heston(Heston),
    /// Vasicek short-rate model (asset class "rates").
    Vasicek(Vasicek),
}

impl ModelSpec {
    /// Registry constructor by Premia-style name with conventional default
    /// parameters (spot 100, rate 5%, vol 20%).
    pub fn by_name(name: &str) -> Result<ModelSpec, PricingError> {
        match name {
            "BlackScholes1dim" => Ok(ModelSpec::BlackScholes(BlackScholes::new(
                100.0, 0.2, 0.05, 0.0,
            ))),
            "BlackScholesNdim" => Ok(ModelSpec::MultiBlackScholes(MultiBlackScholes::new(
                7, 100.0, 0.2, 0.3, 0.05, 0.0,
            ))),
            "LocalVol1dim" => Ok(ModelSpec::LocalVol(LocalVol::standard(
                100.0, 0.2, 0.05, 0.0,
            ))),
            "Heston1dim" => Ok(ModelSpec::Heston(Heston::standard(100.0, 0.05))),
            "Vasicek1dim" => Ok(ModelSpec::Vasicek(Vasicek::standard())),
            other => Err(PricingError::Unsupported(format!("unknown model {other}"))),
        }
    }

    /// The asset class this model belongs to ("equity" or "rates").
    fn asset_class(&self) -> &'static str {
        match self {
            ModelSpec::Vasicek(_) => "rates",
            _ => "equity",
        }
    }

    /// Registry name of this choice.
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::BlackScholes(_) => "BlackScholes1dim",
            ModelSpec::MultiBlackScholes(_) => "BlackScholesNdim",
            ModelSpec::LocalVol(_) => "LocalVol1dim",
            ModelSpec::Heston(_) => "Heston1dim",
            ModelSpec::Vasicek(_) => "Vasicek1dim",
        }
    }
}

/// Product choice plus contract terms.
#[derive(Debug, Clone, PartialEq)]
pub enum OptionSpec {
    /// European call.
    Call {
        /// Strike price.
        strike: f64,
        /// Maturity in years.
        maturity: f64,
    },
    /// European put.
    Put {
        /// Strike price.
        strike: f64,
        /// Maturity in years.
        maturity: f64,
    },
    /// Down-and-out barrier call (§4.3's barrier class).
    DownOutCall {
        /// Strike price.
        strike: f64,
        /// Barrier level.
        barrier: f64,
        /// Maturity in years.
        maturity: f64,
    },
    /// American put.
    AmericanPut {
        /// Strike price.
        strike: f64,
        /// Maturity in years.
        maturity: f64,
    },
    /// European basket put on the arithmetic average.
    BasketPut {
        /// Strike price.
        strike: f64,
        /// Maturity in years.
        maturity: f64,
    },
    /// American basket put.
    AmericanBasketPut {
        /// Strike price.
        strike: f64,
        /// Maturity in years.
        maturity: f64,
    },
    /// Zero-coupon bond paying 1 at `maturity` (rates asset class).
    ZeroCouponBond {
        /// Maturity in years.
        maturity: f64,
    },
    /// European call on a zero-coupon bond: option expiry `maturity`,
    /// bond maturity `bond_maturity`, strike in bond-price units.
    BondCall {
        /// Strike price.
        strike: f64,
        /// Maturity in years.
        maturity: f64,
        /// Maturity in years.
        bond_maturity: f64,
    },
    /// Bermudan call on the **maximum** of the model's assets
    /// (Doan et al. 2008's multi-dimensional benchmark product).
    BermudanMaxCall {
        /// Strike price.
        strike: f64,
        /// Maturity in years.
        maturity: f64,
    },
    /// A netting set of `trades` forward contracts for portfolio-level
    /// XVA aggregation; the book itself is generated deterministically
    /// from the pricing method's seed.
    NettingSet {
        /// Number of forward contracts in the set.
        trades: usize,
        /// Exposure horizon in years (longest trade maturity).
        maturity: f64,
    },
}

impl OptionSpec {
    /// Registry lookup by Premia-style name.
    pub fn by_name(name: &str) -> Result<OptionSpec, PricingError> {
        let (strike, maturity) = (100.0, 1.0);
        match name {
            "CallEuro" => Ok(OptionSpec::Call { strike, maturity }),
            "PutEuro" => Ok(OptionSpec::Put { strike, maturity }),
            "CallDownOut" => Ok(OptionSpec::DownOutCall {
                strike,
                barrier: 85.0,
                maturity,
            }),
            "PutAmer" => Ok(OptionSpec::AmericanPut { strike, maturity }),
            "PutBasket" => Ok(OptionSpec::BasketPut { strike, maturity }),
            "PutBasketAmer" => Ok(OptionSpec::AmericanBasketPut { strike, maturity }),
            "ZCBond" => Ok(OptionSpec::ZeroCouponBond { maturity: 5.0 }),
            "CallBond" => Ok(OptionSpec::BondCall {
                strike: 0.85,
                maturity: 1.0,
                bond_maturity: 5.0,
            }),
            "CallMaxBermuda" => Ok(OptionSpec::BermudanMaxCall { strike, maturity }),
            "NettingSetForward" => Ok(OptionSpec::NettingSet {
                trades: 64,
                maturity,
            }),
            other => Err(PricingError::Unsupported(format!("unknown option {other}"))),
        }
    }

    /// Registry name of this choice.
    pub fn name(&self) -> &'static str {
        match self {
            OptionSpec::Call { .. } => "CallEuro",
            OptionSpec::Put { .. } => "PutEuro",
            OptionSpec::DownOutCall { .. } => "CallDownOut",
            OptionSpec::AmericanPut { .. } => "PutAmer",
            OptionSpec::BasketPut { .. } => "PutBasket",
            OptionSpec::AmericanBasketPut { .. } => "PutBasketAmer",
            OptionSpec::ZeroCouponBond { .. } => "ZCBond",
            OptionSpec::BondCall { .. } => "CallBond",
            OptionSpec::BermudanMaxCall { .. } => "CallMaxBermuda",
            OptionSpec::NettingSet { .. } => "NettingSetForward",
        }
    }

    /// Contract maturity in years.
    pub fn maturity(&self) -> f64 {
        match self {
            OptionSpec::Call { maturity, .. }
            | OptionSpec::Put { maturity, .. }
            | OptionSpec::DownOutCall { maturity, .. }
            | OptionSpec::AmericanPut { maturity, .. }
            | OptionSpec::BasketPut { maturity, .. }
            | OptionSpec::AmericanBasketPut { maturity, .. }
            | OptionSpec::ZeroCouponBond { maturity }
            | OptionSpec::BondCall { maturity, .. }
            | OptionSpec::BermudanMaxCall { maturity, .. }
            | OptionSpec::NettingSet { maturity, .. } => *maturity,
        }
    }

    /// Contract strike (notional for bonds).
    pub fn strike(&self) -> f64 {
        match self {
            OptionSpec::Call { strike, .. }
            | OptionSpec::Put { strike, .. }
            | OptionSpec::DownOutCall { strike, .. }
            | OptionSpec::AmericanPut { strike, .. }
            | OptionSpec::BasketPut { strike, .. }
            | OptionSpec::AmericanBasketPut { strike, .. }
            | OptionSpec::BondCall { strike, .. }
            | OptionSpec::BermudanMaxCall { strike, .. } => *strike,
            // A zero-coupon bond has no strike; return the notional.
            OptionSpec::ZeroCouponBond { .. } => 1.0,
            // A netting set's strikes live per trade; report the spot
            // level the generated book centres on.
            OptionSpec::NettingSet { .. } => 100.0,
        }
    }

    /// The contract terms every kernel assumes: a positive maturity and
    /// strike (and barrier), and a bond that outlives the option on it.
    /// `Err` describes the first violation.
    fn validate(&self) -> Result<(), String> {
        let positive = |what: &str, x: f64| {
            if x > 0.0 {
                Ok(())
            } else {
                Err(format!("{what} must be positive, got {x}"))
            }
        };
        positive("maturity", self.maturity())?;
        positive("strike", self.strike())?;
        match *self {
            OptionSpec::DownOutCall { barrier, .. } => positive("barrier", barrier),
            OptionSpec::BondCall {
                maturity,
                bond_maturity,
                ..
            } if !(bond_maturity > maturity) => Err(format!(
                "bond maturity {bond_maturity} must be after the option's {maturity}"
            )),
            _ => Ok(()),
        }
    }
}

/// Numerical-method choice plus discretisation parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodSpec {
    /// Analytic formula (vanillas, down-and-out call).
    ClosedForm,
    /// Crank–Nicolson finite differences (PSOR for American).
    Pde {
        /// Number of time steps.
        time_steps: usize,
        /// Number of space intervals.
        space_steps: usize,
    },
    /// CRR binomial tree.
    Tree {
        /// Number of tree steps.
        steps: usize,
    },
    /// Plain Monte-Carlo.
    MonteCarlo {
        /// Number of Monte-Carlo paths.
        paths: usize,
        /// Number of time steps.
        time_steps: usize,
        /// Use antithetic variates.
        antithetic: bool,
        /// RNG seed (problems are deterministic given their spec).
        seed: u64,
    },
    /// Quasi-Monte-Carlo (Sobol/Halton) — ablation extension.
    QuasiMonteCarlo {
        /// Number of low-discrepancy points.
        paths: usize,
    },
    /// Longstaff–Schwartz American Monte-Carlo.
    Lsm {
        /// Number of Monte-Carlo paths.
        paths: usize,
        /// Number of exercise dates (Bermudan grid).
        exercise_dates: usize,
        /// Polynomial degree of the regression basis.
        basis_degree: usize,
        /// RNG seed (problems are deterministic given their spec).
        seed: u64,
    },
    /// BSDE pricing by iterated Picard sweeps (Labart–Lelong 2011): the
    /// two-rate borrowing-spread model whose round `k+1` consumes round
    /// `k`'s answer — the staged farm runs one sweep per round.
    Bsde {
        /// Monte-Carlo paths per sweep.
        paths: usize,
        /// Time discretisation of the driver integral.
        time_steps: usize,
        /// Borrowing spread `R − r` (the driver's Lipschitz constant).
        rate_spread: f64,
        /// Picard iterations to run from `y_prev`.
        picard_rounds: usize,
        /// Starting iterate (patched between farm rounds).
        y_prev: f64,
        /// RNG seed (problems are deterministic given their spec).
        seed: u64,
    },
    /// Portfolio-level CVA over a structure-of-arrays netting set.
    Xva {
        /// Monte-Carlo exposure paths.
        paths: usize,
        /// Exposure dates on the horizon.
        time_steps: usize,
        /// Constant counterparty hazard rate λ.
        hazard: f64,
        /// Loss given default.
        lgd: f64,
        /// RNG seed for the paths and the generated book.
        seed: u64,
    },
}

impl MethodSpec {
    /// Registry lookup by Premia-style name.
    pub fn by_name(name: &str) -> Result<MethodSpec, PricingError> {
        match name {
            "CF" => Ok(MethodSpec::ClosedForm),
            "FD_CrankNicolson" => Ok(MethodSpec::Pde {
                time_steps: 200,
                space_steps: 400,
            }),
            "TR_CoxRossRubinstein" => Ok(MethodSpec::Tree { steps: 500 }),
            "MC_Standard" => Ok(MethodSpec::MonteCarlo {
                paths: 100_000,
                time_steps: 50,
                antithetic: true,
                seed: 42,
            }),
            "MC_Quasi" => Ok(MethodSpec::QuasiMonteCarlo { paths: 65_536 }),
            // The paper's §3.3 example name, kept verbatim in the registry.
            "MC_AM_Alfonsi_LongstaffSchwartz" | "MC_AM_LongstaffSchwartz" => Ok(MethodSpec::Lsm {
                paths: 20_000,
                exercise_dates: 50,
                basis_degree: 3,
                seed: 42,
            }),
            "MC_BSDE_LabartLelong" => Ok(MethodSpec::Bsde {
                paths: 16_384,
                time_steps: 25,
                rate_spread: 0.05,
                picard_rounds: 4,
                y_prev: 0.0,
                seed: 42,
            }),
            "MC_XVA_CVA" => Ok(MethodSpec::Xva {
                paths: 8_192,
                time_steps: 50,
                hazard: 0.02,
                lgd: 0.6,
                seed: 42,
            }),
            other => Err(PricingError::Unsupported(format!("unknown method {other}"))),
        }
    }

    /// Registry name of this choice.
    pub fn name(&self) -> &'static str {
        match self {
            MethodSpec::ClosedForm => "CF",
            MethodSpec::Pde { .. } => "FD_CrankNicolson",
            MethodSpec::Tree { .. } => "TR_CoxRossRubinstein",
            MethodSpec::MonteCarlo { .. } => "MC_Standard",
            MethodSpec::QuasiMonteCarlo { .. } => "MC_Quasi",
            MethodSpec::Lsm { .. } => "MC_AM_LongstaffSchwartz",
            MethodSpec::Bsde { .. } => "MC_BSDE_LabartLelong",
            MethodSpec::Xva { .. } => "MC_XVA_CVA",
        }
    }
}

/// The result of `P.compute[]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingResult {
    /// Price estimate.
    pub price: f64,
    /// First derivative w.r.t. spot, when the method produces it (§4.1:
    /// "sometimes also the delta").
    pub delta: Option<f64>,
    /// Monte-Carlo standard error, when applicable.
    pub std_error: Option<f64>,
    /// Registry name of the method that produced the value
    /// ([`MethodSpec::name`]): a static name, so a result allocates
    /// nothing of its own.
    method: &'static str,
}

/// Errors from building or computing a problem.
#[derive(Debug, Clone, PartialEq)]
pub enum PricingError {
    /// The (model, option, method) triple has no implementation — same
    /// role as Premia's compatibility matrix.
    Unsupported(String),
    /// Parameters failed validation.
    Invalid(String),
    /// A serialized problem could not be decoded.
    Malformed(String),
}

impl fmt::Display for PricingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PricingError::Unsupported(m) => write!(f, "unsupported combination: {m}"),
            PricingError::Invalid(m) => write!(f, "invalid parameters: {m}"),
            PricingError::Malformed(m) => write!(f, "malformed problem: {m}"),
        }
    }
}

impl std::error::Error for PricingError {}

/// A fully specified pricing problem — the paper's `PremiaModel` instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PremiaProblem {
    /// Asset class; the benchmark uses `"equity"` throughout (§4.3:
    /// "we have restricted to equity derivatives for our tests").
    pub asset: String,
    /// Model choice plus parameters.
    pub model: ModelSpec,
    /// Product choice plus contract terms.
    pub option: OptionSpec,
    /// Numerical-method choice.
    pub method: MethodSpec,
}

impl PremiaProblem {
    /// `premia_create()` followed by the §3.3 setters, in one call.
    pub fn create(model: &str, option: &str, method: &str) -> Result<Self, PricingError> {
        let model = ModelSpec::by_name(model)?;
        Ok(PremiaProblem {
            asset: model.asset_class().to_string(),
            model,
            option: OptionSpec::by_name(option)?,
            method: MethodSpec::by_name(method)?,
        })
    }

    /// Direct construction from typed specs.
    pub fn new(model: ModelSpec, option: OptionSpec, method: MethodSpec) -> Self {
        PremiaProblem {
            asset: model.asset_class().to_string(),
            model,
            option,
            method,
        }
    }

    /// A short human-readable identifier (used in logs and the regression
    /// suite listing).
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.model.name(),
            self.option.name(),
            self.method.name()
        )
    }

    /// `P.compute[]`: run the numerical method. Unsupported combinations
    /// return `Err(Unsupported)` — Premia's compatibility matrix — and a
    /// sampled method whose counts its kernel refuses (zero paths, time
    /// steps or Picard rounds, an empty netting set) `Err(Invalid)`.
    ///
    /// Single-threaded; bit-identical to every release since the seed —
    /// pinned over the Table III job mix by
    /// `tests/kernel_goldens.rs::sequential_table3_mix_goldens`, and for
    /// the other sampled kernels by `GOLDEN_COMPUTE` there. Every sampled
    /// kernel draws the whole sample from the one stream seeded with the
    /// problem's own seed, in the same scalar path loop
    /// [`Self::compute_with`] runs per chunk at lane width 1 on a chunk
    /// stream: one seeding rule, one body, two seeds.
    pub fn compute(&self) -> Result<PricingResult, PricingError> {
        self.compute_inner(None)
    }

    /// [`Self::compute`] with intra-problem compute parallelism: the
    /// Monte-Carlo and LSM path loops run on the [`exec`] chunked executor
    /// under `pol`. Prices are bit-identical for any worker count in `pol`
    /// (the chunked kernels draw per-chunk [`exec::stream_seed`] streams),
    /// but are a *different deterministic sample* than [`Self::compute`] —
    /// choose one contract per experiment. Methods without a path loop
    /// (closed form, PDE, tree, QMC) ignore the policy.
    pub fn compute_with(&self, pol: &ExecPolicy) -> Result<PricingResult, PricingError> {
        self.compute_inner(Some(pol))
    }

    fn compute_inner(&self, pol: Option<&ExecPolicy>) -> Result<PricingResult, PricingError> {
        Specs {
            model: &self.model,
            option: &self.option,
            method: &self.method,
        }
        .price(pol)
    }
}

/// A problem's model, product and method, borrowed: everything pricing
/// reads. An owner of the three parts (a script's `PremiaModel` object)
/// prices them without assembling a [`PremiaProblem`].
#[derive(Debug, Clone, Copy)]
pub struct Specs<'a> {
    /// Model choice plus parameters.
    pub model: &'a ModelSpec,
    /// Product choice plus contract terms.
    pub option: &'a OptionSpec,
    /// Numerical-method choice.
    pub method: &'a MethodSpec,
}

impl Specs<'_> {
    /// [`PremiaProblem::compute`] of the problem made of these parts, bit
    /// for bit.
    pub fn compute(self) -> Result<PricingResult, PricingError> {
        self.price(None)
    }

    fn price(self, pol: Option<&ExecPolicy>) -> Result<PricingResult, PricingError> {
        use MethodSpec as M;
        use ModelSpec as Mo;
        use OptionSpec as O;

        let unsupported = || {
            Err(PricingError::Unsupported(format!(
                "{} / {} / {}",
                self.model.name(),
                self.option.name(),
                self.method.name()
            )))
        };

        // A decoded problem is checked here, before any kernel sees it:
        // the kernels assert their option and PDE grid (a closed form at
        // maturity 0 returns NaN), and the multi-asset kernels build the
        // correlator, which panics on a rho that `validate` refuses.
        self.option.validate().map_err(PricingError::Invalid)?;
        if let M::Pde {
            time_steps,
            space_steps,
        } = *self.method
        {
            let grid = PdeConfig {
                time_steps,
                space_steps,
                ..PdeConfig::default()
            };
            grid.validate().map_err(PricingError::Invalid)?;
        }
        if let Mo::MultiBlackScholes(m) = &self.model {
            m.validate().map_err(PricingError::Invalid)?;
        }
        match (&self.model, &self.option) {
            // ---- 1-D Black–Scholes vanilla -------------------------------
            (Mo::BlackScholes(m), O::Call { strike, maturity })
            | (Mo::BlackScholes(m), O::Put { strike, maturity }) => {
                let right = if matches!(self.option, O::Call { .. }) {
                    OptionRight::Call
                } else {
                    OptionRight::Put
                };
                let opt = Vanilla {
                    right,
                    strike: *strike,
                    maturity: *maturity,
                    exercise: Exercise::European,
                };
                match &self.method {
                    M::ClosedForm => {
                        let q = bs_price(m, &opt);
                        Ok(PricingResult {
                            price: q.price,
                            delta: Some(q.delta),
                            std_error: None,
                            method: self.method.name(),
                        })
                    }
                    M::Pde {
                        time_steps,
                        space_steps,
                    } => {
                        let sol = pde_vanilla(
                            m,
                            &opt,
                            &PdeConfig {
                                time_steps: *time_steps,
                                space_steps: *space_steps,
                                ..PdeConfig::default()
                            },
                        );
                        Ok(PricingResult {
                            price: sol.price,
                            delta: Some(sol.delta),
                            std_error: None,
                            method: self.method.name(),
                        })
                    }
                    M::Tree { steps } => {
                        let sol = tree_vanilla(m, &opt, &TreeConfig { steps: *steps });
                        Ok(PricingResult {
                            price: sol.price,
                            delta: Some(sol.delta),
                            std_error: None,
                            method: self.method.name(),
                        })
                    }
                    M::MonteCarlo {
                        paths,
                        time_steps,
                        antithetic,
                        seed,
                    } => {
                        let cfg = McConfig {
                            paths: *paths,
                            time_steps: *time_steps,
                            antithetic: *antithetic,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = mc_vanilla_bs(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: r.delta,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    M::QuasiMonteCarlo { paths } => {
                        let r = qmc_vanilla_bs(m, &opt, *paths);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: None,
                            method: self.method.name(),
                        })
                    }
                    M::Bsde {
                        paths,
                        time_steps,
                        rate_spread,
                        picard_rounds,
                        y_prev,
                        seed,
                    } => {
                        let cfg = BsdeConfig {
                            paths: *paths,
                            time_steps: *time_steps,
                            rate_spread: *rate_spread,
                            picard_rounds: *picard_rounds,
                            y_prev: *y_prev,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = bsde_picard(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }

            // ---- 1-D Black–Scholes barrier -------------------------------
            (
                Mo::BlackScholes(m),
                O::DownOutCall {
                    strike,
                    barrier,
                    maturity,
                },
            ) => {
                let opt = Barrier::down_out_call(*strike, *barrier, *maturity);
                match &self.method {
                    M::ClosedForm => Ok(PricingResult {
                        price: down_out_call_price(m, &opt),
                        delta: None,
                        std_error: None,
                        method: self.method.name(),
                    }),
                    M::Pde {
                        time_steps,
                        space_steps,
                    } => {
                        let sol = pde_barrier(
                            m,
                            &opt,
                            &PdeConfig {
                                time_steps: *time_steps,
                                space_steps: *space_steps,
                                ..PdeConfig::default()
                            },
                        );
                        Ok(PricingResult {
                            price: sol.price,
                            delta: Some(sol.delta),
                            std_error: None,
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }

            // ---- 1-D Black–Scholes American put --------------------------
            (Mo::BlackScholes(m), O::AmericanPut { strike, maturity }) => {
                let opt = Vanilla::american_put(*strike, *maturity);
                match &self.method {
                    M::Pde {
                        time_steps,
                        space_steps,
                    } => {
                        let sol = pde_vanilla(
                            m,
                            &opt,
                            &PdeConfig {
                                time_steps: *time_steps,
                                space_steps: *space_steps,
                                ..PdeConfig::default()
                            },
                        );
                        Ok(PricingResult {
                            price: sol.price,
                            delta: Some(sol.delta),
                            std_error: None,
                            method: self.method.name(),
                        })
                    }
                    M::Tree { steps } => {
                        let sol = tree_vanilla(m, &opt, &TreeConfig { steps: *steps });
                        Ok(PricingResult {
                            price: sol.price,
                            delta: Some(sol.delta),
                            std_error: None,
                            method: self.method.name(),
                        })
                    }
                    M::Lsm {
                        paths,
                        exercise_dates,
                        basis_degree,
                        seed,
                    } => {
                        let cfg = LsmConfig {
                            paths: *paths,
                            exercise_dates: *exercise_dates,
                            basis_degree: *basis_degree,
                            basis: BasisKind::Monomial,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = lsm_vanilla_bs(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }

            // ---- multi-asset basket --------------------------------------
            (Mo::MultiBlackScholes(m), O::BasketPut { strike, maturity }) => {
                let opt = BasketOption::european_put(*strike, *maturity);
                match &self.method {
                    M::MonteCarlo {
                        paths,
                        time_steps,
                        antithetic,
                        seed,
                    } => {
                        let cfg = McConfig {
                            paths: *paths,
                            time_steps: *time_steps,
                            antithetic: *antithetic,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = mc_basket(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    M::QuasiMonteCarlo { paths } => {
                        let r = qmc_basket(m, &opt, *paths);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: None,
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }
            (Mo::MultiBlackScholes(m), O::AmericanBasketPut { strike, maturity }) => {
                let opt = BasketOption::american_put(*strike, *maturity);
                match &self.method {
                    M::Lsm {
                        paths,
                        exercise_dates,
                        basis_degree,
                        seed,
                    } => {
                        let cfg = LsmConfig {
                            paths: *paths,
                            exercise_dates: *exercise_dates,
                            basis_degree: *basis_degree,
                            basis: BasisKind::Monomial,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = lsm_basket(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }

            // ---- multi-asset Bermudan max-call (Doan et al.) -------------
            (Mo::MultiBlackScholes(m), O::BermudanMaxCall { strike, maturity }) => {
                let opt = MaxCall::bermudan(*strike, *maturity);
                match &self.method {
                    M::Lsm {
                        paths,
                        exercise_dates,
                        basis_degree,
                        seed,
                    } => {
                        let cfg = LsmConfig {
                            paths: *paths,
                            exercise_dates: *exercise_dates,
                            basis_degree: *basis_degree,
                            basis: BasisKind::Monomial,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = lsm_max_call(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }

            // ---- portfolio-level XVA -------------------------------------
            (Mo::BlackScholes(m), O::NettingSet { trades, maturity }) => match &self.method {
                M::Xva {
                    paths,
                    time_steps,
                    hazard,
                    lgd,
                    seed,
                } => {
                    let cfg = XvaConfig {
                        paths: *paths,
                        time_steps: *time_steps,
                        hazard: *hazard,
                        lgd: *lgd,
                        seed: *seed,
                    };
                    cfg.validate().map_err(PricingError::Invalid)?;
                    if *trades == 0 {
                        return Err(PricingError::Invalid(
                            "netting set must contain trades".into(),
                        ));
                    }
                    // The book is part of the problem: a pure function of
                    // (trades, seed), so the same spec always aggregates
                    // the same netting set.
                    let book = TradeSoA::generate(*trades, m.spot, *maturity, *seed);
                    let r = xva_cva(m, &book, *maturity, &cfg, pol);
                    Ok(PricingResult {
                        price: r.price,
                        delta: None,
                        std_error: Some(r.std_error),
                        method: self.method.name(),
                    })
                }
                _ => unsupported(),
            },

            // ---- local volatility ----------------------------------------
            (Mo::LocalVol(m), O::Call { strike, maturity })
            | (Mo::LocalVol(m), O::Put { strike, maturity }) => {
                let right = if matches!(self.option, O::Call { .. }) {
                    OptionRight::Call
                } else {
                    OptionRight::Put
                };
                let opt = Vanilla {
                    right,
                    strike: *strike,
                    maturity: *maturity,
                    exercise: Exercise::European,
                };
                match &self.method {
                    M::MonteCarlo {
                        paths,
                        time_steps,
                        antithetic,
                        seed,
                    } => {
                        let cfg = McConfig {
                            paths: *paths,
                            time_steps: *time_steps,
                            antithetic: *antithetic,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = mc_local_vol(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }

            // ---- Heston --------------------------------------------------
            (Mo::Heston(m), O::Call { strike, maturity })
            | (Mo::Heston(m), O::Put { strike, maturity }) => {
                let right = if matches!(self.option, O::Call { .. }) {
                    OptionRight::Call
                } else {
                    OptionRight::Put
                };
                let opt = Vanilla {
                    right,
                    strike: *strike,
                    maturity: *maturity,
                    exercise: Exercise::European,
                };
                match &self.method {
                    M::ClosedForm => Ok(PricingResult {
                        price: heston_cf_price(m, &opt),
                        delta: None,
                        std_error: None,
                        method: self.method.name(),
                    }),
                    M::MonteCarlo {
                        paths,
                        time_steps,
                        antithetic,
                        seed,
                    } => {
                        let cfg = McConfig {
                            paths: *paths,
                            time_steps: *time_steps,
                            antithetic: *antithetic,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = mc_heston(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }
            (Mo::Heston(m), O::AmericanPut { strike, maturity }) => {
                let opt = Vanilla::american_put(*strike, *maturity);
                match &self.method {
                    M::Lsm {
                        paths,
                        exercise_dates,
                        basis_degree,
                        seed,
                    } => {
                        let cfg = LsmConfig {
                            paths: *paths,
                            exercise_dates: *exercise_dates,
                            basis_degree: *basis_degree,
                            basis: BasisKind::Monomial,
                            seed: *seed,
                        };
                        cfg.validate().map_err(PricingError::Invalid)?;
                        let r = lsm_heston(m, &opt, &cfg, pol);
                        Ok(PricingResult {
                            price: r.price,
                            delta: None,
                            std_error: Some(r.std_error),
                            method: self.method.name(),
                        })
                    }
                    _ => unsupported(),
                }
            }

            // ---- Vasicek rates ------------------------------------------
            (Mo::Vasicek(m), O::ZeroCouponBond { maturity }) => match &self.method {
                M::ClosedForm => Ok(PricingResult {
                    price: m.zcb_price(*maturity),
                    delta: None,
                    std_error: None,
                    method: self.method.name(),
                }),
                M::MonteCarlo {
                    paths,
                    time_steps,
                    antithetic,
                    seed,
                } => {
                    let cfg = McConfig {
                        paths: *paths,
                        time_steps: *time_steps,
                        antithetic: *antithetic,
                        seed: *seed,
                    };
                    cfg.validate().map_err(PricingError::Invalid)?;
                    let r = mc_zcb_price(m, *maturity, &cfg, pol);
                    Ok(PricingResult {
                        price: r.price,
                        delta: None,
                        std_error: Some(r.std_error),
                        method: self.method.name(),
                    })
                }
                _ => unsupported(),
            },
            (
                Mo::Vasicek(m),
                O::BondCall {
                    strike,
                    maturity,
                    bond_maturity,
                },
            ) => match &self.method {
                M::ClosedForm => Ok(PricingResult {
                    price: bond_option_price(
                        m,
                        OptionRight::Call,
                        *strike,
                        *maturity,
                        *bond_maturity,
                    ),
                    delta: None,
                    std_error: None,
                    method: self.method.name(),
                }),
                _ => unsupported(),
            },

            _ => unsupported(),
        }
    }
}

// ---------------------------------------------------------------------------
// Value / XDR encoding — one field list per direction (see `fields.rs`)
// ---------------------------------------------------------------------------

impl ModelSpec {
    fn write_fields(&self, h: &mut impl FieldSink) {
        h.string("name", self.name());
        match self {
            ModelSpec::BlackScholes(m) => {
                h.scalar("spot", m.spot);
                h.scalar("sigma", m.sigma);
                h.scalar("rate", m.rate);
                h.scalar("dividend", m.dividend);
            }
            ModelSpec::MultiBlackScholes(m) => {
                h.scalar("dim", m.dim as f64);
                h.scalar("spot", m.spot);
                h.scalar("sigma", m.sigma);
                h.scalar("rho", m.rho);
                h.scalar("rate", m.rate);
                h.scalar("dividend", m.dividend);
            }
            ModelSpec::LocalVol(m) => {
                h.scalar("spot", m.spot);
                h.scalar("sigma0", m.sigma0);
                h.scalar("term_amp", m.term_amp);
                h.scalar("term_tau", m.term_tau);
                h.scalar("skew_amp", m.skew_amp);
                h.scalar("skew_width", m.skew_width);
                h.scalar("rate", m.rate);
                h.scalar("dividend", m.dividend);
            }
            ModelSpec::Heston(m) => {
                h.scalar("spot", m.spot);
                h.scalar("v0", m.v0);
                h.scalar("kappa", m.kappa);
                h.scalar("theta", m.theta);
                h.scalar("xi", m.xi);
                h.scalar("rho", m.rho);
                h.scalar("rate", m.rate);
                h.scalar("dividend", m.dividend);
            }
            ModelSpec::Vasicek(m) => {
                h.scalar("r0", m.r0);
                h.scalar("kappa", m.kappa);
                h.scalar("theta", m.theta);
                h.scalar("sigma", m.sigma);
            }
        }
    }

    fn from_fields<'s>(h: impl Fields<'s>) -> Result<ModelSpec, PricingError> {
        match get_str(h, "name")? {
            "BlackScholes1dim" => Ok(ModelSpec::BlackScholes(BlackScholes {
                spot: get_f64(h, "spot")?,
                sigma: get_f64(h, "sigma")?,
                rate: get_f64(h, "rate")?,
                dividend: get_f64(h, "dividend")?,
            })),
            "BlackScholesNdim" => Ok(ModelSpec::MultiBlackScholes(MultiBlackScholes {
                dim: get_usize(h, "dim")?,
                spot: get_f64(h, "spot")?,
                sigma: get_f64(h, "sigma")?,
                rho: get_f64(h, "rho")?,
                rate: get_f64(h, "rate")?,
                dividend: get_f64(h, "dividend")?,
            })),
            "LocalVol1dim" => Ok(ModelSpec::LocalVol(LocalVol {
                spot: get_f64(h, "spot")?,
                sigma0: get_f64(h, "sigma0")?,
                term_amp: get_f64(h, "term_amp")?,
                term_tau: get_f64(h, "term_tau")?,
                skew_amp: get_f64(h, "skew_amp")?,
                skew_width: get_f64(h, "skew_width")?,
                rate: get_f64(h, "rate")?,
                dividend: get_f64(h, "dividend")?,
            })),
            "Heston1dim" => Ok(ModelSpec::Heston(Heston {
                spot: get_f64(h, "spot")?,
                v0: get_f64(h, "v0")?,
                kappa: get_f64(h, "kappa")?,
                theta: get_f64(h, "theta")?,
                xi: get_f64(h, "xi")?,
                rho: get_f64(h, "rho")?,
                rate: get_f64(h, "rate")?,
                dividend: get_f64(h, "dividend")?,
            })),
            "Vasicek1dim" => Ok(ModelSpec::Vasicek(Vasicek {
                r0: get_f64(h, "r0")?,
                kappa: get_f64(h, "kappa")?,
                theta: get_f64(h, "theta")?,
                sigma: get_f64(h, "sigma")?,
            })),
            other => Err(PricingError::Malformed(format!("unknown model {other}"))),
        }
    }
}

impl OptionSpec {
    fn write_fields(&self, h: &mut impl FieldSink) {
        h.string("name", self.name());
        h.scalar("strike", self.strike());
        h.scalar("maturity", self.maturity());
        if let OptionSpec::DownOutCall { barrier, .. } = self {
            h.scalar("barrier", *barrier);
        }
        if let OptionSpec::BondCall { bond_maturity, .. } = self {
            h.scalar("bond_maturity", *bond_maturity);
        }
        if let OptionSpec::NettingSet { trades, .. } = self {
            h.scalar("trades", *trades as f64);
        }
    }

    fn from_fields<'s>(h: impl Fields<'s>) -> Result<OptionSpec, PricingError> {
        // In `write_fields` order, like every other list here: bytes
        // are read straight through when asked for in their own order.
        let name = get_str(h, "name")?;
        let strike = get_f64(h, "strike")?;
        let maturity = get_f64(h, "maturity")?;
        match name {
            "CallEuro" => Ok(OptionSpec::Call { strike, maturity }),
            "PutEuro" => Ok(OptionSpec::Put { strike, maturity }),
            "CallDownOut" => Ok(OptionSpec::DownOutCall {
                strike,
                barrier: get_f64(h, "barrier")?,
                maturity,
            }),
            "PutAmer" => Ok(OptionSpec::AmericanPut { strike, maturity }),
            "PutBasket" => Ok(OptionSpec::BasketPut { strike, maturity }),
            "PutBasketAmer" => Ok(OptionSpec::AmericanBasketPut { strike, maturity }),
            "ZCBond" => Ok(OptionSpec::ZeroCouponBond { maturity }),
            "CallBond" => Ok(OptionSpec::BondCall {
                strike,
                maturity,
                bond_maturity: get_f64(h, "bond_maturity")?,
            }),
            "CallMaxBermuda" => Ok(OptionSpec::BermudanMaxCall { strike, maturity }),
            "NettingSetForward" => Ok(OptionSpec::NettingSet {
                trades: get_usize(h, "trades")?,
                maturity,
            }),
            other => Err(PricingError::Malformed(format!("unknown option {other}"))),
        }
    }
}

impl MethodSpec {
    fn write_fields(&self, h: &mut impl FieldSink) {
        h.string("name", self.name());
        match self {
            MethodSpec::ClosedForm => {}
            MethodSpec::Pde {
                time_steps,
                space_steps,
            } => {
                h.scalar("time_steps", *time_steps as f64);
                h.scalar("space_steps", *space_steps as f64);
            }
            MethodSpec::Tree { steps } => {
                h.scalar("steps", *steps as f64);
            }
            MethodSpec::MonteCarlo {
                paths,
                time_steps,
                antithetic,
                seed,
            } => {
                h.scalar("paths", *paths as f64);
                h.scalar("time_steps", *time_steps as f64);
                h.boolean("antithetic", *antithetic);
                h.scalar("seed", *seed as f64);
            }
            MethodSpec::QuasiMonteCarlo { paths } => {
                h.scalar("paths", *paths as f64);
            }
            MethodSpec::Lsm {
                paths,
                exercise_dates,
                basis_degree,
                seed,
            } => {
                h.scalar("paths", *paths as f64);
                h.scalar("exercise_dates", *exercise_dates as f64);
                h.scalar("basis_degree", *basis_degree as f64);
                h.scalar("seed", *seed as f64);
            }
            MethodSpec::Bsde {
                paths,
                time_steps,
                rate_spread,
                picard_rounds,
                y_prev,
                seed,
            } => {
                h.scalar("paths", *paths as f64);
                h.scalar("time_steps", *time_steps as f64);
                h.scalar("rate_spread", *rate_spread);
                h.scalar("picard_rounds", *picard_rounds as f64);
                h.scalar("y_prev", *y_prev);
                h.scalar("seed", *seed as f64);
            }
            MethodSpec::Xva {
                paths,
                time_steps,
                hazard,
                lgd,
                seed,
            } => {
                h.scalar("paths", *paths as f64);
                h.scalar("time_steps", *time_steps as f64);
                h.scalar("hazard", *hazard);
                h.scalar("lgd", *lgd);
                h.scalar("seed", *seed as f64);
            }
        }
    }

    fn from_fields<'s>(h: impl Fields<'s>) -> Result<MethodSpec, PricingError> {
        match get_str(h, "name")? {
            "CF" => Ok(MethodSpec::ClosedForm),
            "FD_CrankNicolson" => Ok(MethodSpec::Pde {
                time_steps: get_usize(h, "time_steps")?,
                space_steps: get_usize(h, "space_steps")?,
            }),
            "TR_CoxRossRubinstein" => Ok(MethodSpec::Tree {
                steps: get_usize(h, "steps")?,
            }),
            "MC_Standard" => Ok(MethodSpec::MonteCarlo {
                paths: get_usize(h, "paths")?,
                time_steps: get_usize(h, "time_steps")?,
                antithetic: get_bool(h, "antithetic")?,
                seed: get_usize(h, "seed")? as u64,
            }),
            "MC_Quasi" => Ok(MethodSpec::QuasiMonteCarlo {
                paths: get_usize(h, "paths")?,
            }),
            "MC_AM_LongstaffSchwartz" | "MC_AM_Alfonsi_LongstaffSchwartz" => Ok(MethodSpec::Lsm {
                paths: get_usize(h, "paths")?,
                exercise_dates: get_usize(h, "exercise_dates")?,
                basis_degree: get_usize(h, "basis_degree")?,
                seed: get_usize(h, "seed")? as u64,
            }),
            "MC_BSDE_LabartLelong" => Ok(MethodSpec::Bsde {
                paths: get_usize(h, "paths")?,
                time_steps: get_usize(h, "time_steps")?,
                rate_spread: get_f64(h, "rate_spread")?,
                picard_rounds: get_usize(h, "picard_rounds")?,
                y_prev: get_f64(h, "y_prev")?,
                seed: get_usize(h, "seed")? as u64,
            }),
            "MC_XVA_CVA" => Ok(MethodSpec::Xva {
                paths: get_usize(h, "paths")?,
                time_steps: get_usize(h, "time_steps")?,
                hazard: get_f64(h, "hazard")?,
                lgd: get_f64(h, "lgd")?,
                seed: get_usize(h, "seed")? as u64,
            }),
            other => Err(PricingError::Malformed(format!("unknown method {other}"))),
        }
    }
}

impl PremiaProblem {
    /// Write the problem's entries, in their one order, into any
    /// [`FieldSink`]: the list [`Self::to_value`] and
    /// [`Self::to_xdr_bytes`] are written from, and what a sink that
    /// writes neither — a fingerprint — reads.
    pub fn write_fields(&self, h: &mut impl FieldSink) {
        h.string("class", "PremiaModel");
        h.string("asset", &self.asset);
        h.table("model", |t| self.model.write_fields(t));
        h.table("option", |t| self.option.write_fields(t));
        h.table("method", |t| self.method.write_fields(t));
    }

    fn from_fields<'s>(h: impl Fields<'s>) -> Result<Self, PricingError> {
        if get_str(h, "class")? != "PremiaModel" {
            return Err(PricingError::Malformed("not a PremiaModel".into()));
        }
        Ok(PremiaProblem {
            asset: get_str(h, "asset")?.to_string(),
            model: ModelSpec::from_fields(get_table(h, "model")?)?,
            option: OptionSpec::from_fields(get_table(h, "option")?)?,
            method: MethodSpec::from_fields(get_table(h, "method")?)?,
        })
    }

    /// Encode as an Nsp hash value, ready for `save`/`serialize`.
    pub fn to_value(&self) -> Value {
        let mut h = Hash::new();
        self.write_fields(&mut h);
        Value::Hash(h)
    }

    /// Decode from an Nsp hash value (as produced by [`Self::to_value`]).
    pub fn from_value(v: &Value) -> Result<Self, PricingError> {
        let h = v
            .as_hash()
            .ok_or_else(|| PricingError::Malformed("problem is not a hash".into()))?;
        Self::from_fields(h)
    }

    /// The serialized problem — byte for byte
    /// `xdrser::serialize_to_bytes(&self.to_value())`, the file `save`
    /// writes and the `Serial` a master ships — written without building
    /// the value.
    pub fn to_xdr_bytes(&self) -> Vec<u8> {
        Encoder::hash(512, |e| self.write_fields(e))
    }

    /// Decode serialized bytes in place: what
    /// `from_value(&xdrser::unserialize_bytes(bytes)?)` returns — any key
    /// order, unknown keys passed over, a later duplicate key winning,
    /// every check of the format kept — without building the value. A
    /// well-formed value that is not a problem is reported as
    /// [`XdrError::Corrupt`] carrying the [`PricingError`] text.
    ///
    /// What [`Self::to_xdr_bytes`] wrote is read in one pass, each field
    /// found where it was written; any other bytes are read again, in
    /// full, the general way.
    pub fn from_xdr_bytes(bytes: &[u8]) -> Result<Self, XdrError> {
        match read_in_order(bytes, |h| Self::from_fields(h).ok()) {
            Some(problem) => Ok(problem),
            None => Self::from_tree(bytes),
        }
    }

    /// [`Self::from_xdr_bytes`] of any serialized bytes.
    fn from_tree(bytes: &[u8]) -> Result<Self, XdrError> {
        let problem = match Tree::read(bytes)? {
            Some(tree) => Self::from_fields(tree.root()),
            None => Err(PricingError::Malformed("problem is not a hash".into())),
        };
        problem.map_err(|e| XdrError::Corrupt(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_section_3_3_example_builds_and_computes() {
        // P.set_model[str="Heston1dim"]; P.set_option[str="PutAmer"];
        // P.set_method[str="MC_AM_Alfonsi_LongstaffSchwartz"]
        let mut p =
            PremiaProblem::create("Heston1dim", "PutAmer", "MC_AM_Alfonsi_LongstaffSchwartz")
                .unwrap();
        // Shrink for test runtime.
        p.method = MethodSpec::Lsm {
            paths: 2_000,
            exercise_dates: 10,
            basis_degree: 3,
            seed: 1,
        };
        let r = p.compute().unwrap();
        assert!(r.price > 0.0 && r.price < 100.0);
        assert!(r.std_error.is_some());
    }

    #[test]
    fn heston_closed_form_refuses_an_invalid_option_instead_of_panicking() {
        let mut p = PremiaProblem::create("Heston1dim", "CallEuro", "CF").unwrap();
        p.option = OptionSpec::Call {
            strike: -1.0,
            maturity: 1.0,
        };
        assert!(matches!(p.compute(), Err(PricingError::Invalid(_))));
    }

    #[test]
    fn closed_form_problem() {
        let p = PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap();
        let r = p.compute().unwrap();
        assert!((r.price - 10.4506).abs() < 1e-3);
        assert!(r.delta.is_some());
    }

    #[test]
    fn unsupported_combination_rejected() {
        // American put has no closed form.
        let p = PremiaProblem::create("BlackScholes1dim", "PutAmer", "CF").unwrap();
        assert!(matches!(p.compute(), Err(PricingError::Unsupported(_))));
        // Basket with a tree is unsupported.
        let p =
            PremiaProblem::create("BlackScholesNdim", "PutBasket", "TR_CoxRossRubinstein").unwrap();
        assert!(matches!(p.compute(), Err(PricingError::Unsupported(_))));
        // BSDE only prices European vanillas; XVA needs a netting set.
        let p =
            PremiaProblem::create("BlackScholes1dim", "PutAmer", "MC_BSDE_LabartLelong").unwrap();
        assert!(matches!(p.compute(), Err(PricingError::Unsupported(_))));
        let p = PremiaProblem::create("BlackScholes1dim", "CallEuro", "MC_XVA_CVA").unwrap();
        assert!(matches!(p.compute(), Err(PricingError::Unsupported(_))));
    }

    #[test]
    fn new_workload_classes_compute_and_round_trip() {
        // BSDE Picard on a European call.
        let mut p =
            PremiaProblem::create("BlackScholes1dim", "CallEuro", "MC_BSDE_LabartLelong").unwrap();
        p.method = MethodSpec::Bsde {
            paths: 2_000,
            time_steps: 10,
            rate_spread: 0.05,
            picard_rounds: 2,
            y_prev: 0.0,
            seed: 7,
        };
        let r = p.compute().unwrap();
        assert!(r.price > 0.0 && r.std_error.is_some());
        let back = PremiaProblem::from_value(&p.to_value()).unwrap();
        assert_eq!(p, back);

        // Bermudan max-call on the multi-asset model.
        let mut p = PremiaProblem::create(
            "BlackScholesNdim",
            "CallMaxBermuda",
            "MC_AM_LongstaffSchwartz",
        )
        .unwrap();
        p.method = MethodSpec::Lsm {
            paths: 1_000,
            exercise_dates: 5,
            basis_degree: 2,
            seed: 7,
        };
        let r = p.compute_with(&ExecPolicy::new(2)).unwrap();
        assert!(r.price > 0.0);

        // Portfolio CVA over a generated netting set.
        let mut p =
            PremiaProblem::create("BlackScholes1dim", "NettingSetForward", "MC_XVA_CVA").unwrap();
        p.method = MethodSpec::Xva {
            paths: 2_000,
            time_steps: 10,
            hazard: 0.02,
            lgd: 0.6,
            seed: 7,
        };
        let seq = p.compute().unwrap();
        assert!(seq.price >= 0.0);
        let a = p.compute_with(&ExecPolicy::new(1)).unwrap();
        let b = p.compute_with(&ExecPolicy::new(8)).unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(PremiaProblem::create("NoSuchModel", "CallEuro", "CF").is_err());
        assert!(PremiaProblem::create("BlackScholes1dim", "NoSuchOpt", "CF").is_err());
        assert!(PremiaProblem::create("BlackScholes1dim", "CallEuro", "NoSuchMethod").is_err());
    }

    #[test]
    fn value_round_trip_every_model_and_method() {
        let models = [
            "BlackScholes1dim",
            "BlackScholesNdim",
            "LocalVol1dim",
            "Heston1dim",
            "Vasicek1dim",
        ];
        let options = [
            "CallEuro",
            "PutEuro",
            "CallDownOut",
            "PutAmer",
            "PutBasket",
            "PutBasketAmer",
            "ZCBond",
            "CallBond",
            "CallMaxBermuda",
            "NettingSetForward",
        ];
        let methods = [
            "CF",
            "FD_CrankNicolson",
            "TR_CoxRossRubinstein",
            "MC_Standard",
            "MC_Quasi",
            "MC_AM_LongstaffSchwartz",
            "MC_BSDE_LabartLelong",
            "MC_XVA_CVA",
        ];
        for m in models {
            for o in options {
                for me in methods {
                    let p = PremiaProblem::create(m, o, me).unwrap();
                    let v = p.to_value();
                    let back = PremiaProblem::from_value(&v).unwrap();
                    assert_eq!(p, back, "{m}/{o}/{me}");
                }
            }
        }
    }

    #[test]
    fn xdr_file_round_trip_like_section_3_3() {
        // save('fic', P); P2 = load('fic')
        let dir = std::env::temp_dir().join("premia_problem_save");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fic");
        let p = PremiaProblem::create("Heston1dim", "PutAmer", "MC_AM_LongstaffSchwartz").unwrap();
        xdrser::save(&path, &p.to_value()).unwrap();
        let back = PremiaProblem::from_value(&xdrser::load(&path).unwrap()).unwrap();
        assert_eq!(p, back);
        // And the sload fast path yields the same problem after unseal.
        let s = xdrser::sload(&path).unwrap();
        let v = xdrser::unserialize(&s).unwrap();
        assert_eq!(PremiaProblem::from_value(&v).unwrap(), p);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The hash `v` with its entries — nested hashes' too — reordered.
    fn reordered(v: &Value, order: fn(&mut Vec<(String, Value)>)) -> Value {
        let mut entries: Vec<(String, Value)> = v.as_hash().unwrap().iter().cloned().collect();
        for (_, nested) in &mut entries {
            if nested.as_hash().is_some() {
                *nested = reordered(nested, order);
            }
        }
        order(&mut entries);
        let mut h = Hash::new();
        for (k, v) in entries {
            h.set(&k, v);
        }
        Value::Hash(h)
    }

    #[test]
    fn canonical_bytes_are_read_in_order_and_everything_else_by_the_tree() {
        let in_order = |b: &[u8]| read_in_order(b, |h| PremiaProblem::from_fields(h).ok());
        for (m, o, me) in [
            ("BlackScholes1dim", "CallEuro", "CF"),
            ("BlackScholesNdim", "PutBasketAmer", "MC_Quasi"),
            ("LocalVol1dim", "CallDownOut", "MC_Standard"),
            ("Heston1dim", "PutAmer", "MC_AM_LongstaffSchwartz"),
            ("Heston1dim", "PutEuro", "FD_CrankNicolson"),
            ("Vasicek1dim", "CallBond", "MC_BSDE_LabartLelong"),
            ("BlackScholes1dim", "NettingSetForward", "MC_XVA_CVA"),
            ("BlackScholes1dim", "ZCBond", "TR_CoxRossRubinstein"),
            ("BlackScholes1dim", "CallMaxBermuda", "MC_Quasi"),
        ] {
            let p = PremiaProblem::create(m, o, me).unwrap();
            let bytes = p.to_xdr_bytes();
            assert_eq!(in_order(&bytes).as_ref(), Some(&p), "{m}/{o}/{me}");
            assert_eq!(PremiaProblem::from_tree(&bytes).unwrap(), p);

            // The same entries in another order, at either level; one
            // more entry; one fewer; one of another type; bytes after
            // the value: never in order, and the tree's to judge.
            let v = p.to_value();
            let mut others = vec![
                reordered(&v, |e| e.reverse()),
                reordered(&v, |e| e.rotate_right(1)),
                reordered(&v, |e| e.rotate_left(1)),
            ];
            for table in ["model", "option", "method"] {
                let mut extra = v.clone();
                let Value::Hash(h) = &mut extra else {
                    unreachable!()
                };
                let Some(Value::Hash(t)) = h.get_mut(table) else {
                    unreachable!()
                };
                t.set("zz_unknown", Value::scalar(1.0));
                others.push(extra.clone());
                let Value::Hash(h) = &mut extra else {
                    unreachable!()
                };
                h.set("zz_unknown", Value::Hash(Hash::new()));
                others.push(extra);
            }
            for other in &others {
                let bytes = xdrser::serialize_to_bytes(other);
                assert_eq!(in_order(&bytes), None, "{other}");
                assert_eq!(PremiaProblem::from_tree(&bytes).unwrap(), p, "{other}");
                assert_eq!(PremiaProblem::from_xdr_bytes(&bytes).unwrap(), p);
            }
            let mut wrong = v.clone();
            let Value::Hash(h) = &mut wrong else {
                unreachable!()
            };
            h.set("asset", Value::scalar(1.0));
            let mut trailing = bytes.clone();
            trailing.extend_from_slice(&[0; 4]);
            for bad in [xdrser::serialize_to_bytes(&wrong), trailing] {
                assert_eq!(in_order(&bad), None);
                let general = PremiaProblem::from_tree(&bad).unwrap_err().to_string();
                let entry = PremiaProblem::from_xdr_bytes(&bad).unwrap_err().to_string();
                assert_eq!(general, entry);
            }
        }
    }

    #[test]
    fn malformed_value_rejected() {
        assert!(PremiaProblem::from_value(&Value::scalar(1.0)).is_err());
        let mut h = Hash::new();
        h.set("class", Value::string("SomethingElse"));
        assert!(PremiaProblem::from_value(&Value::Hash(h)).is_err());
    }

    #[test]
    fn rates_problems_compute_and_round_trip() {
        // The §2 "interest rate … models and derivatives" extension.
        let zcb = PremiaProblem::create("Vasicek1dim", "ZCBond", "CF").unwrap();
        assert_eq!(zcb.asset, "rates");
        let p_zcb = zcb.compute().unwrap().price;
        assert!(p_zcb > 0.0 && p_zcb < 1.0);

        let mut zcb_mc = PremiaProblem::create("Vasicek1dim", "ZCBond", "MC_Standard").unwrap();
        zcb_mc.method = MethodSpec::MonteCarlo {
            paths: 20_000,
            time_steps: 50,
            antithetic: true,
            seed: 4,
        };
        let r = zcb_mc.compute().unwrap();
        assert!(
            (r.price - p_zcb).abs() < 4.0 * r.std_error.unwrap() + 1e-4,
            "mc {} exact {p_zcb}",
            r.price
        );

        let call = PremiaProblem::create("Vasicek1dim", "CallBond", "CF").unwrap();
        let c = call.compute().unwrap().price;
        assert!(c > 0.0 && c < 1.0);

        // XDR round trip of a rates problem.
        let v = call.to_value();
        let back = PremiaProblem::from_value(&v).unwrap();
        assert_eq!(back, call);

        // Equity methods on rates products are rejected.
        let bad = PremiaProblem::create("Vasicek1dim", "CallEuro", "CF").unwrap();
        assert!(matches!(bad.compute(), Err(PricingError::Unsupported(_))));
    }

    #[test]
    fn compute_with_is_bit_identical_across_worker_counts() {
        let mut p =
            PremiaProblem::create("Heston1dim", "PutAmer", "MC_AM_LongstaffSchwartz").unwrap();
        p.method = MethodSpec::Lsm {
            paths: 2_000,
            exercise_dates: 10,
            basis_degree: 3,
            seed: 1,
        };
        let r1 = p.compute_with(&ExecPolicy::new(1)).unwrap();
        let r8 = p.compute_with(&ExecPolicy::new(8)).unwrap();
        assert_eq!(r1.price.to_bits(), r8.price.to_bits());

        // Methods without a path loop ignore the policy entirely.
        let cf = PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap();
        assert_eq!(
            cf.compute().unwrap().price.to_bits(),
            cf.compute_with(&ExecPolicy::new(8))
                .unwrap()
                .price
                .to_bits()
        );
    }

    #[test]
    fn counts_a_kernel_rejects_are_invalid_not_a_panic() {
        // Each count reaches `compute` from a problem file (`get_usize`
        // reads 0) or a script (`P.set_method[str="MC_Standard", paths=0]`).
        let zeroed = |model, option, method, zero: fn(&mut PremiaProblem)| {
            let mut p = PremiaProblem::create(model, option, method).unwrap();
            zero(&mut p);
            p
        };
        let rows = [
            (
                "MC paths = 0",
                zeroed("BlackScholes1dim", "CallEuro", "MC_Standard", |p| {
                    if let MethodSpec::MonteCarlo { paths, .. } = &mut p.method {
                        *paths = 0;
                    }
                }),
            ),
            (
                "Heston MC time_steps = 0",
                zeroed("Heston1dim", "CallEuro", "MC_Standard", |p| {
                    if let MethodSpec::MonteCarlo { time_steps, .. } = &mut p.method {
                        *time_steps = 0;
                    }
                }),
            ),
            (
                "LSM paths = 0",
                zeroed(
                    "BlackScholes1dim",
                    "PutAmer",
                    "MC_AM_LongstaffSchwartz",
                    |p| {
                        if let MethodSpec::Lsm { paths, .. } = &mut p.method {
                            *paths = 0;
                        }
                    },
                ),
            ),
            (
                "BSDE picard_rounds = 0",
                zeroed(
                    "BlackScholes1dim",
                    "CallEuro",
                    "MC_BSDE_LabartLelong",
                    |p| {
                        if let MethodSpec::Bsde { picard_rounds, .. } = &mut p.method {
                            *picard_rounds = 0;
                        }
                    },
                ),
            ),
            (
                "XVA paths = 0",
                zeroed("BlackScholes1dim", "NettingSetForward", "MC_XVA_CVA", |p| {
                    if let MethodSpec::Xva { paths, .. } = &mut p.method {
                        *paths = 0;
                    }
                }),
            ),
            (
                "NettingSetForward trades = 0",
                zeroed("BlackScholes1dim", "NettingSetForward", "MC_XVA_CVA", |p| {
                    if let OptionSpec::NettingSet { trades, .. } = &mut p.option {
                        *trades = 0;
                    }
                }),
            ),
        ];
        for (label, p) in &rows {
            for got in [p.compute(), p.compute_with(&ExecPolicy::new(2))] {
                assert!(
                    matches!(got, Err(PricingError::Invalid(_))),
                    "{label}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn a_decoded_option_or_pde_grid_a_kernel_rejects_is_invalid() {
        // Each problem reaches `compute` as a problem file does: encoded,
        // then decoded. The kernels assert these terms (a closed form at
        // maturity 0 returned NaN instead).
        let decoded = |model, option, method, edit: fn(&mut PremiaProblem)| {
            let mut p = PremiaProblem::create(model, option, method).unwrap();
            edit(&mut p);
            PremiaProblem::from_xdr_bytes(&p.to_xdr_bytes()).unwrap()
        };
        let expiring_call = |p: &mut PremiaProblem| {
            p.option = OptionSpec::Call {
                strike: 100.0,
                maturity: 0.0,
            }
        };
        let expiring_put = |p: &mut PremiaProblem| {
            p.option = OptionSpec::AmericanPut {
                strike: 100.0,
                maturity: 0.0,
            }
        };
        let rows = [
            (
                "closed form at maturity 0",
                decoded("BlackScholes1dim", "CallEuro", "CF", expiring_call),
            ),
            (
                "PDE at maturity 0",
                decoded(
                    "BlackScholes1dim",
                    "PutAmer",
                    "FD_CrankNicolson",
                    expiring_put,
                ),
            ),
            (
                "MC_Standard at maturity 0",
                decoded("BlackScholes1dim", "CallEuro", "MC_Standard", expiring_call),
            ),
            (
                "LSM at maturity 0",
                decoded(
                    "BlackScholes1dim",
                    "PutAmer",
                    "MC_AM_LongstaffSchwartz",
                    expiring_put,
                ),
            ),
            (
                "PDE space_steps = 2",
                decoded("BlackScholes1dim", "CallEuro", "FD_CrankNicolson", |p| {
                    if let MethodSpec::Pde { space_steps, .. } = &mut p.method {
                        *space_steps = 2;
                    }
                }),
            ),
            (
                "PDE time_steps = 0",
                decoded("BlackScholes1dim", "CallDownOut", "FD_CrankNicolson", |p| {
                    if let MethodSpec::Pde { time_steps, .. } = &mut p.method {
                        *time_steps = 0;
                    }
                }),
            ),
            (
                "bond option maturing with its bond",
                decoded("Vasicek1dim", "CallBond", "CF", |p| {
                    if let OptionSpec::BondCall {
                        maturity,
                        bond_maturity,
                        ..
                    } = &mut p.option
                    {
                        *bond_maturity = *maturity;
                    }
                }),
            ),
        ];
        for (label, p) in &rows {
            let got = p.compute();
            assert!(
                matches!(got, Err(PricingError::Invalid(_))),
                "{label}: {got:?}"
            );
        }
    }

    #[test]
    fn label_is_informative() {
        let p = PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap();
        assert_eq!(p.label(), "BlackScholes1dim/CallEuro/CF");
    }

    #[test]
    fn pde_and_tree_agree_through_problem_interface() {
        let mut p1 =
            PremiaProblem::create("BlackScholes1dim", "PutAmer", "FD_CrankNicolson").unwrap();
        p1.method = MethodSpec::Pde {
            time_steps: 200,
            space_steps: 400,
        };
        let mut p2 =
            PremiaProblem::create("BlackScholes1dim", "PutAmer", "TR_CoxRossRubinstein").unwrap();
        p2.method = MethodSpec::Tree { steps: 1000 };
        let r1 = p1.compute().unwrap().price;
        let r2 = p2.compute().unwrap().price;
        assert!((r1 - r2).abs() < 0.05, "pde {r1} tree {r2}");
    }
}
