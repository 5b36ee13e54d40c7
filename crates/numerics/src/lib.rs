//! Numerical substrate for the risk-management benchmark.
//!
//! This crate provides the low-level numerical building blocks that the
//! pricing library (`pricing`) is built on: dense and banded linear algebra,
//! the normal distribution (CDF, PDF, quantile), random-number generation
//! helpers (Gaussian variates, correlated vectors, antithetic streams,
//! low-discrepancy sequences), interpolation and polynomial bases for
//! regression, and streaming statistics.
//!
//! Everything is implemented from scratch (no LAPACK/BLAS) because the
//! reproduction must be self-contained; the algorithms are the classic
//! textbook ones (Thomas algorithm, Cholesky, Householder QR, Moro inverse
//! normal, Welford variance) with tests validating them against analytically
//! known cases.

// Numerical code idiom: published constants keep their full printed
// precision, and index loops over multiple coupled arrays stay explicit.
#![warn(missing_docs)]
#![allow(clippy::excessive_precision, clippy::needless_range_loop)]

mod dist;
pub mod interp;
pub mod linalg;
pub mod poly;
pub mod rng;
pub mod sobol;
pub mod stats;

pub use dist::{norm_cdf, norm_inv_cdf, norm_pdf};
pub use rng::{CorrelatedNormals, NormalGen};
