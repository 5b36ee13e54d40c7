//! Numerical pricing methods: closed form, PDE (finite differences),
//! binomial trees, Monte-Carlo, Longstaff–Schwartz American
//! Monte-Carlo — the method families Premia ships (§2) — plus the
//! heterogeneous workload classes of the staged benchmark: BSDE Picard
//! sweeps, multi-dimensional Bermudan max-calls, and portfolio-level
//! XVA aggregation.

pub mod bermudan;
pub mod bond;
pub mod bsde;
pub mod closed_form;
pub(crate) mod heston_cf;
pub mod implied;
pub mod lsm;
pub mod montecarlo;
pub mod pde;
pub(crate) mod tree;
pub mod xva;
