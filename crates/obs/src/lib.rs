//! Phase-level observability for the farm stack.
//!
//! The paper's Tables I–III are only meaningful because the authors can
//! attribute time to individual *phases* — master-side prepare
//! (load / sload / serialize / pack), wire transfer, NFS reads, and slave
//! compute (§4.2's "it is always better to use the sload method" is a
//! per-phase claim, not a per-total one). This crate provides the
//! machinery to reproduce that attribution from measured events:
//!
//! * [`Event`] / [`EventKind`] — one typed, fixed-size record per
//!   instrumented operation (what, which rank, which job, when, how long,
//!   how many bytes).
//! * [`Recorder`] — a lock-free, per-rank ring-buffer sink. One writer
//!   per rank, wait-free on the hot path, and **zero overhead when
//!   absent**: instrumented code holds an `Option<Arc<Recorder>>` and
//!   takes no timestamp when it is `None`.
//! * [`Breakdown`] / [`PhaseStats`] — post-run aggregation into
//!   per-phase totals, counts, byte volumes, and percentile latencies.
//! * [`BreakdownReport`] / [`StrategyBreakdown`] — a Table-I/II/III
//!   shaped cost-decomposition report with a text renderer and a
//!   hand-rolled JSON writer (no serde, per DESIGN §6).
//!
//! Both the live farm (`minimpi` + `farm`) and the simulator
//! (`clustersim`) emit the *same* event schema, so sim-vs-live divergence
//! is diffable per phase rather than only per total.
//!
//! See `docs/OBSERVABILITY.md` for the full schema and lifecycle.
#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod aggregate;
mod event;
mod recorder;
mod report;

pub use aggregate::{percentile, Breakdown, PhaseStats};
pub use event::{Event, EventKind, NO_JOB};
pub use recorder::Recorder;
pub use report::{BreakdownReport, StrategyBreakdown};
