//! An Nsp-like dynamic value system.
//!
//! Nsp (the Matlab-like host language of the paper) manipulates a small set
//! of dynamically typed objects: real matrices, boolean matrices, string
//! matrices, lists, hash tables, and opaque `Serial` byte buffers produced
//! by serialization. This crate reproduces that object model in Rust; the
//! `xdrser` crate provides the architecture-independent encoding
//! (`serialize`/`save`/`load`/`sload`), `minimpi` transmits values between
//! ranks, and `nsplang` interprets scripts over them.
//!
//! Matrices are column-major `f64` (exactly as in Nsp/Matlab/Scilab), and a
//! scalar is a 1×1 matrix — faithful to the paper's host language, where
//! `rand(4,4)`, `%t`, `'string'` and `list(...)` are the objects being
//! serialized and shipped over MPI.

#![warn(missing_docs)]
mod matrix;
mod value;

pub use matrix::{BoolMatrix, Matrix, StrMatrix};
pub use value::{Hash, List, Serial, Value, MAX_DEPTH};
