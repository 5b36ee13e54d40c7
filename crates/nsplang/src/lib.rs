//! A mini-Nsp interpreter.
//!
//! Nsp is the Matlab-like scripting language the paper uses as the glue:
//! "the use of Nsp makes the parallelization very easy as all the code can
//! be written in an intuitive scripting language" (§5). This crate
//! implements the subset of Nsp the paper's listings (Figs. 1, 2, 4, 5)
//! exercise:
//!
//! * dynamic values bridged 1:1 to [`nspval::Value`] (matrices, strings,
//!   booleans, lists, hash tables, serial buffers);
//! * `if/then/else`, `while`, `for`, `break`, user functions
//!   (`function [out] = name(args) … endfunction`), multi-value
//!   assignment `[a, b] = f(…)`;
//! * Matlab-ish expressions: `1:100` ranges, matrix literals, `.field`
//!   access, `obj.method[args]` bracket-method calls (`P.compute[]`,
//!   `L.add_last[v]`, `S.unserialize[]`), postfix transpose;
//! * three toolboxes, mirroring §3: the serialization builtins
//!   (`serialize`, `save`, `load`, `sload`), the **MPI toolbox**
//!   (`MPI_Comm_rank`, `MPI_Send_Obj`, `MPI_Probe`, `mpibuf_create`, …)
//!   bound to a live [`minimpi::Comm`], and the **Premia toolbox**
//!   (`premia_create`, `P.set_model[str=…]`, `P.compute[]`).
//!
//! The integration tests run an adaptation of the Fig. 4/5 master/slave
//! portfolio pricer *as a script* on every rank of a `minimpi` world.
//!
//! Scripts execute on one of two engines behind [`Interp::with_engine`]:
//! a register bytecode VM, the default ([`lower`] + `vm`, see
//! `docs/VM.md`), that resolves locals to slots at compile time and
//! dispatches over a flat opcode stream, or the original AST
//! tree-walker. Both engines are
//! proven bit-identical (bindings, RNG streams, error messages) by the
//! script battery in `tests/nsp_scripts.rs`.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

mod ast;
mod interp;
mod lexer;
pub mod lower;
mod opcodes;
mod parser;
mod toolbox;
mod vm;

pub use interp::{Engine, Interp, NValue, NspError};
pub use parser::parse_program;
