//! Long-lived pricing service over the Robin-Hood farm stack.
//!
//! Where `farm::run` prices one portfolio and tears the world down, a
//! [`Session`] keeps the `slaves + 1`-rank in-process world resident
//! and serves a stream of [`Request`]s:
//!
//! * **Session API** — [`Session::start`] / [`Session::submit`] /
//!   [`Ticket::wait`] / [`Session::shutdown`]. Submitters are ordinary
//!   threads; every admitted ticket is answered exactly once, even
//!   across slave deaths (the front loop drives the same supervised
//!   [`sched::Scheduler`] as the one-shot master).
//! * **Request coalescing + memoisation** — identical problems (the
//!   same fields, so the same serialized bytes; every rank prices with
//!   the sequential kernel) within a batch share one compute, and repeats across batches are served bit-identically
//!   from a byte-budgeted [`store::ResultCache`].
//! * **Backpressure** — bounded per-priority queue shares and an
//!   in-flight byte budget; over-limit submissions shed immediately
//!   with a typed [`ServeError::Overloaded`], never by blocking, and a
//!   request larger than the whole budget is refused as
//!   [`ServeError::TooLarge`].
//! * **SLO reporting** — with a recorder attached, each request's queue
//!   residency (`Enqueue`), end-to-end latency (`Admit`), sheds and
//!   memo hits land in the shared `obs` schema, so
//!   `obs::Breakdown::request_p99_s` and friends report service
//!   percentiles next to the paper's phase decomposition.
//!
//! See `docs/SERVICE.md` for the full protocol walk-through.

#![warn(missing_docs)]

mod config;
mod session;

pub use config::{ServeConfig, ServeError};
pub use session::{Priced, Request, Response, Session, SessionReport, Ticket};
