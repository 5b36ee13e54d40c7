//! The paper's contribution layer: parallel portfolio valuation.
//!
//! This crate assembles the substrates (`pricing`, `xdrser`, `minimpi`)
//! into the system §4 benchmarks:
//!
//! * [`portfolio`] — generators for the three workloads: the §4.1
//!   non-regression suite, the §4.2 toy portfolio (10 000 closed-form
//!   vanillas), and the §4.3 realistic portfolio (7 931 heterogeneous
//!   claims). A portfolio is, as in the paper, "a collection of files,
//!   each file describing a precise pricing problem" (XDR-encoded).
//! * [`strategy`] — the three transmission strategies compared in
//!   Tables II/III: **full load**, **NFS**, **serialized load**.
//! * `robin_hood` (private) — the master/slave "Robbin Hood" load
//!   balancer of Figs. 4–5, running live over `minimpi` threads: the
//!   flat farm behind [`run`], plain or supervised as its [`FarmConfig`]
//!   says, and the report / error types it shares with `serve`
//!   ([`FarmReport`], [`FarmError`], re-exported here). The paper's §5
//!   sub-masters are priced on the simulator only (`ablation`).
//! * [`slave`] and [`driver`] — Fig. 4's two branches, once each, for
//!   both masters in the workspace, each rank 0 of its own world: the
//!   one slave loop (every job is answered, priced or failed —
//!   `docs/FAULTS.md`) and the one master driver (feeds the pure [`sched::Scheduler`] and owns
//!   shutdown; the simulator runs it too, over virtual time —
//!   `docs/SCHEDULER.md`). Every link ships §5's
//!   "send them all together" job frames: sized by the scheduler on a
//!   plain run, one job each under supervision or staging (`batching`,
//!   private), and packed ahead by a `serve::Session`. The
//!   two modules are public for that session alone, which drives its
//!   batches through [`driver::drive`] and runs [`slave::serve_jobs`]
//!   on its resident slaves; nothing of them is re-exported here.
//! * [`supervisor`] — the fault-tolerance knobs ([`SupervisorConfig`]):
//!   per-job deadlines, bounded retries with exponential backoff,
//!   dead-slave detection and graceful degradation, exercised against
//!   `minimpi`'s deterministic fault injection.
//! * [`risk`] — the §1 risk-evaluation scenario: bump-and-revalue
//!   parameter sweeps (delta/gamma/vega/rho per claim) that multiply the
//!   portfolio into the paper's "around 10⁶ atomic computations".
//! * [`wire`] — the typed wire codec every master/slave pair shares:
//!   job frames and columnar answers, with total decoding ([`FarmError::Protocol`] instead of silent
//!   drops).
//! * [`workload`] — typed workloads: classed jobs plus optional staged
//!   rounds with cross-round data flow (Picard-iterated BSDEs), driven
//!   through the live farm by [`run_workload`].
//! * [`config`] — the unified entry point: build a [`FarmConfig`]
//!   (strategy, supervision, fault plan, [`obs::Recorder`], staged
//!   rounds) and call [`run`]. Every run dispatches first come, first
//!   served, and every slave prices with the sequential
//!   [`pricing::PremiaProblem::compute`]. The historical per-variant free functions are gone; the
//!   other way in is a long-lived `serve::Session` over the same driver
//!   and slave loop.
//!
//! Every byte of problem data reaches the farm from disk through a
//! [`store::DirStore`], one read per problem, and goes on the wire raw —
//! see `docs/STORE.md`.

#![warn(missing_docs)]
mod batching;
pub mod config;
pub mod driver;
mod instrument;
pub mod portfolio;
pub mod risk;
mod robin_hood;
pub mod slave;
pub mod strategy;
pub mod supervisor;
pub mod wire;
pub mod workload;

pub use config::{run, FarmConfig};
/// The communicator every [`driver::Farm`] is built on.
pub use minimpi;
pub use portfolio::{
    mixed_portfolio, realistic_portfolio, regression_portfolio, representative_problem,
    toy_portfolio, JobClass, PortfolioJob, PortfolioScale,
};
pub use robin_hood::{FarmError, FarmReport, JobOutcome};
/// The problem store every farm read goes through.
pub use store;
pub use strategy::Transmission;
pub use supervisor::SupervisorConfig;
pub use workload::{class_indices, per_class_compute, run_workload, Workload};
