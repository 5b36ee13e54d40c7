//! # riskbench — a risk-management benchmark for parallel architectures
//!
//! A from-scratch Rust reproduction of *"Using Premia and Nsp for
//! Constructing a Risk Management Benchmark for Testing Parallel
//! Architecture"* (Chancelier, Lapeyre, Lelong). The paper combines three
//! freely available systems — the Premia pricing library, the Nsp
//! Matlab-like scripting environment, and MPI — into a reproducible
//! benchmark: a master/slave "Robin Hood" task farm pricing realistic
//! portfolios of equity derivatives.
//!
//! This crate is the front door: each subsystem lives in its own crate,
//! and [`prelude`] gathers the types and functions the examples use:
//!
//! * [`pricing`] — the Premia substitute: Black–Scholes / local-vol /
//!   Heston / multi-asset models; closed-form, PDE, tree, Monte-Carlo and
//!   Longstaff–Schwartz methods; the `PremiaProblem` descriptor.
//! * [`nspval`] + [`xdrser`] — the Nsp value system with XDR
//!   serialization (`serialize`, `save`/`load`, the `sload` fast path,
//!   LZSS compression).
//! * [`transport`] — the pluggable message transport under `minimpi`:
//!   one `Transport` trait, an in-process channel backend and a
//!   multi-process Unix-domain-socket backend held to the same
//!   conformance suite (`docs/TRANSPORT.md`).
//! * [`minimpi`] — the MPI-like runtime backing the live farm: thread
//!   worlds over the channel backend, with fault injection and
//!   instrumentation above the wire.
//! * [`sched`] — the pure, transport-free Robin-Hood scheduler state
//!   machine; every master (live farm and simulator alike) is a thin
//!   driver of it, and `tests/sched_parity.rs` proves both worlds render
//!   byte-identical decision traces.
//! * [`exec`] — the deterministic chunked executor behind intra-slave
//!   compute parallelism (`PremiaProblem::compute_with`): fixed-size path chunks,
//!   one seeded RNG stream per chunk, bit-identical results for any
//!   worker count.
//! * [`store`] — the problem store: every problem byte reaches the farm
//!   through its directory backend, `DirStore`; a byte-budgeted LRU
//!   cache (`CachingStore`) and the serve session's answer memo sit
//!   beside it.
//! * [`farm`] — portfolio generators (§4.1–§4.3 workloads), the three
//!   transmission strategies, and the Robin-Hood farm: one slave loop and
//!   one master driver behind the plain / batched / supervised farm
//!   (`farm::run`) and `serve`'s sessions. The §5 sub-masters are
//!   simulated only (`ablation`, over `clustersim`).
//! * [`serve`] — the long-lived pricing service: a resident `Session`
//!   over the same scheduler, with request coalescing, result
//!   memoisation, priority backpressure and p50/p99 SLO reporting.
//! * [`clustersim`] — the calibrated discrete-event simulator that
//!   regenerates Tables I–III at cluster scale.
//! * [`nsplang`] — a mini-Nsp interpreter able to run the paper's
//!   Fig. 1/2/4/5 script shapes against the toolboxes.
//!
//! ## Quickstart
//!
//! ```
//! use riskbench::prelude::*;
//!
//! // Describe a pricing problem the way §3.3 does...
//! let p = PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap();
//! let result = p.compute().unwrap();
//! assert!((result.price - 10.45).abs() < 0.01);
//!
//! // ...and price a small portfolio in parallel with the Robin-Hood farm.
//! let dir = std::env::temp_dir().join("riskbench_doc_quickstart");
//! let jobs = toy_portfolio(16);
//! let files = save_portfolio(&jobs, &dir).unwrap();
//! let report = farm::run(&files, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
//! assert_eq!(report.completed(), 16);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub use clustersim;
pub use farm;
pub use minimpi;
pub use nspval;
pub use pricing;
pub use sched;
pub use xdrser;

/// The commonly used types and functions in one import.
pub mod prelude {
    pub use exec::{ExecPolicy, ExecStats, StatsSink};
    pub use farm::portfolio::{
        mixed_portfolio, realistic_portfolio, regression_portfolio, representative_problem,
        save_portfolio, toy_portfolio, JobClass, PortfolioJob, PortfolioScale,
    };
    pub use farm::risk::{aggregate_risk, risk_sweep, BumpSpec, ClaimRisk, Scenario};
    pub use farm::supervisor::SupervisorConfig;
    pub use farm::{run, FarmConfig, FarmError, FarmReport, Transmission};
    pub use minimpi::{
        Comm, FaultEvent, FaultPlan, MpiBuf, SendFault, SpawnedWorld, World, ANY_SOURCE, ANY_TAG,
    };
    pub use obs::{Breakdown, BreakdownReport, Event, EventKind, Recorder, StrategyBreakdown};
    pub use pricing::{
        MethodSpec, ModelSpec, OptionSpec, PremiaProblem, PricingError, PricingResult,
    };
    pub use serve::{Priced, Request, Response, ServeConfig, ServeError, Session, Ticket};
    pub use store::{CachingStore, DirStore, Fetched, ProblemStore, StoreStats};
    pub use xdrser::{load, save, serialize, sload, unserialize};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_core_workflow() {
        let p = PremiaProblem::create("BlackScholes1dim", "PutEuro", "CF").unwrap();
        let r = p.compute().unwrap();
        assert!(r.price > 0.0);
    }
}
