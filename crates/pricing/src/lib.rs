//! A Premia-like option-pricing library.
//!
//! Premia is the numerical engine of the paper: "finite difference
//! algorithms, tree methods and Monte Carlo methods for pricing and hedging
//! European and American options on equities in several models going from
//! the standard Black-Scholes model to more complex models such as local
//! and stochastic volatility models". This crate rebuilds that engine in
//! Rust, scoped to the model/option/method combinations the paper's
//! benchmark portfolios actually exercise (§4.1–§4.3), plus the `Heston` +
//! American-Monte-Carlo example of §3.3:
//!
//! | models | options | methods |
//! |---|---|---|
//! | Black–Scholes | European call/put | closed form (+Greeks) |
//! | multi-dim Black–Scholes | down-and-out barrier call | Crank–Nicolson PDE (PSOR for American) |
//! | parametric local volatility | American put | CRR binomial tree |
//! | Heston stochastic volatility | basket put (up to 40 assets) | Monte-Carlo (antithetic, QMC ablation) |
//! |  | American basket put | Longstaff–Schwartz |
//!
//! The `problem` module mirrors the paper's `PremiaModel` class: a
//! pricing problem is described by `(asset, model, option, method)` strings
//! and parameters, can be saved/loaded/`sload`-ed through `xdrser`, and is
//! computed with [`problem::PremiaProblem::compute`]. The [`regression`]
//! module enumerates one instance of every supported combination — the
//! paper's §4.1 non-regression test suite.

// Validation deliberately uses negated comparisons (`!(x > 0.0)`) so NaN
// fails validation; stencil loops index several coupled arrays at once.
#![warn(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

mod fields;
mod lanes;
pub mod methods;
pub mod models;
pub mod options;
mod problem;
pub mod regression;

pub use problem::{
    MethodSpec, ModelSpec, OptionSpec, PremiaProblem, PricingError, PricingResult, Specs,
};
