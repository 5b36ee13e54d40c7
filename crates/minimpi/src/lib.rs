//! An in-process MPI-like message-passing runtime.
//!
//! The paper accesses MPI-2 through the MPINSP toolbox: communicators,
//! ranks, tags, `MPI_Send`/`MPI_Recv`/`MPI_Probe`/`MPI_Get_count`,
//! `MPI_Pack`/`MPI_Unpack`, the object-level `MPI_Send_Obj`/`MPI_Recv_Obj`
//! (which serialize any Nsp value transparently), and dynamic process
//! creation (`MPI_Comm_spawn` + `MPI_Intercomm_merge`, wrapped as
//! `NSP_spawn(n)`).
//!
//! We reproduce that API surface over OS threads within one process: each
//! rank is a thread, each rank owns a mailbox (a condvar-guarded deque so
//! `Probe` can inspect without consuming and `Recv` can match on
//! `(source, tag)` with `ANY_SOURCE`/`ANY_TAG` wildcards), and messages are
//! byte buffers exactly as on a real cluster — objects cross the "wire"
//! only through the `xdrser` encoding, never by pointer, so the
//! serialize/pack/transmit/unpack/unserialize code path of Figs. 4–5 is
//! exercised faithfully.
//!
//! On top of the faithful surface sits a testing-oriented extension: a
//! deterministic fault-injection layer ([`FaultPlan`], activated by
//! [`World::run_instrumented`]) that can drop, delay or truncate messages
//! in flight and kill ranks outright, with every decision a pure function
//! of `(seed, rank, operation index)` so chaos scenarios replay exactly.
//! Timed receives ([`Comm::recv_timeout`], [`Comm::recv_obj_timeout`])
//! and the liveness query [`Comm::rank_alive`] give
//! higher layers what they need to supervise unreliable peers. See
//! `docs/FAULTS.md` at the repository root.
//!
//! # Example: the paper's §3.2 object send
//!
//! ```
//! use minimpi::World;
//! use nspval::{Matrix, Value};
//!
//! let results = World::run(2, |comm| {
//!     let tag = 7;
//!     if comm.rank() == 0 {
//!         // A = list('string', %t, rand(4,4)); MPI_Send_Obj(A, 1, TAG, MCW)
//!         let a = Value::list(vec![
//!             Value::string("string"),
//!             Value::boolean(true),
//!             Value::Real(Matrix::zeros(4, 4)),
//!         ]);
//!         comm.send_obj(&a, 1, tag).unwrap();
//!         None
//!     } else {
//!         // B = MPI_Recv_Obj(0, TAG, MCW)
//!         let (b, _st) = comm.recv_obj(0, tag).unwrap();
//!         Some(b)
//!     }
//! });
//! assert!(results[1].is_some());
//! ```

#![warn(missing_docs)]
mod buf;
mod comm;
mod error;
mod fault;
mod process;
mod world;

pub use buf::MpiBuf;
pub use comm::{Comm, Status};
pub use error::MpiError;
pub use fault::{FaultEvent, FaultPlan, SendFault};
pub use process::{ProcessParent, ProcessWorld};
pub use world::{SpawnedWorld, World};

/// Wildcard source for `recv`/`probe` — the paper's `MPI_Probe(-1, ...)`.
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag — the paper's `MPI_Probe(_, -1, ...)`.
pub const ANY_TAG: i32 = -1;
