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
//!   says, and the report / error types every front-end shares
//!   ([`FarmReport`], [`FarmError`], re-exported here).
//! * [`slave`] and [`driver`] — Fig. 4's two branches, once each, for
//!   every master in the workspace: the one slave loop (every job is
//!   answered, priced or failed — `docs/FAULTS.md`) and the one master
//!   driver (feeds the pure [`sched::Scheduler`] the simulator also runs
//!   — `docs/SCHEDULER.md` — and owns shutdown). Every link ships §5's
//!   "send them all together" job frames: sized by the scheduler on a
//!   plain run, one job each under supervision, LPT order or staging
//!   (`batching`, private), and packed ahead by a `serve::Session`. The
//!   two modules are public for that session alone, which drives its
//!   batches through [`driver::drive`] and runs [`slave::serve_jobs`]
//!   on its resident slaves; nothing of them is re-exported here.
//! * [`hierarchy`] — the §5 sub-master improvement ("divide the nodes
//!   into sub-groups, each group having its own master"): topology,
//!   chunking and the group gather around the same driver and slave.
//! * [`shard`] — peer masters without a global root: each owns a
//!   portfolio shard and a private slave farm (threads or real child
//!   processes, via the pluggable `transport` backends), with
//!   inter-shard work-stealing when a pool drains early.
//! * [`supervisor`] — the fault-tolerance knobs ([`SupervisorConfig`]):
//!   per-job deadlines, bounded retries with exponential backoff,
//!   dead-slave detection and graceful degradation, exercised against
//!   `minimpi`'s deterministic fault injection.
//! * [`calibrate`] — single-problem cost measurements feeding the
//!   `clustersim` cost model.
//! * [`risk`] — the §1 risk-evaluation scenario: bump-and-revalue
//!   parameter sweeps (delta/gamma/vega/rho per claim) that multiply the
//!   portfolio into the paper's "around 10⁶ atomic computations".
//! * [`wire`] — the typed wire codec every master/slave pair shares:
//!   job frames, columnar answers and the hierarchy's group report,
//!   with total decoding ([`FarmError::Protocol`] instead of silent
//!   drops).
//! * [`workload`] — typed workloads: classed jobs plus optional staged
//!   rounds with cross-round data flow (Picard-iterated BSDEs), driven
//!   through the live farm by [`run_workload`].
//! * [`config`] — the unified entry point: build a [`FarmConfig`]
//!   (strategy, supervision, fault plan, [`obs::Recorder`],
//!   problem store / cache / wire-compression / prefetch) and call
//!   [`run`]. The historical per-variant free functions are gone; the
//!   other way in is a long-lived `serve::Session` over the same driver
//!   and slave loop.
//!
//! Since the `store` crate landed, every byte of problem data reaches the
//! farm through a [`store::ProblemStore`] — see `docs/STORE.md`.

#![warn(missing_docs)]
mod batching;
pub mod calibrate;
pub mod config;
pub mod driver;
pub mod hierarchy;
mod instrument;
pub mod portfolio;
pub mod risk;
mod robin_hood;
pub mod shard;
pub mod slave;
pub mod strategy;
pub mod supervisor;
pub mod wire;
pub mod workload;

pub use config::{run, FarmConfig};
pub use portfolio::{
    mixed_portfolio, realistic_portfolio, regression_portfolio, representative_problem,
    toy_portfolio, JobClass, PortfolioJob, PortfolioScale,
};
pub use robin_hood::{FarmError, FarmReport, JobOutcome};
pub use shard::{run_sharded, ShardConfig, ShardReport, StealEvent, TransportKind};
pub use strategy::{Transmission, WirePolicy};
pub use supervisor::SupervisorConfig;
pub use workload::{class_indices, class_name, per_class_compute, run_workload, Workload};
