//! Tiny pub(crate) helpers so farm-level phases record through the same
//! recorder the `Comm` carries — and compile to nothing when it doesn't.
//! A live compute is one `Compute` span: every rank prices a job on its
//! own thread with the sequential kernel, and the simulator models the
//! same single span per job.

use minimpi::Comm;
use obs::{Event, EventKind};
use pricing::{PremiaProblem, PricingError, PricingResult};

/// Start a farm-level span: `Some(now)` only when a recorder is
/// installed, so un-instrumented runs never read the clock.
#[inline]
pub(crate) fn t0(comm: &Comm) -> Option<u64> {
    comm.recorder().map(|r| r.now_ns())
}

/// Close a span opened by [`t0`], attributing it to the comm's current
/// job context. No-op without a recorder.
#[inline]
pub(crate) fn span(comm: &Comm, kind: EventKind, start: Option<u64>, bytes: u64) {
    if let (Some(rec), Some(t0)) = (comm.recorder(), start) {
        rec.record_span(comm.rank(), kind, comm.current_job(), t0, bytes);
    }
}

/// Price one problem with the sequential kernel, recording its
/// `Compute` span on the calling rank.
pub(crate) fn compute_recorded(
    comm: &Comm,
    problem: &PremiaProblem,
) -> Result<PricingResult, PricingError> {
    let start = t0(comm);
    let r = problem.compute()?;
    span(comm, EventKind::Compute, start, 0);
    Ok(r)
}

/// Record an instantaneous supervision event (Retry / Deadline /
/// SlaveDeath) with an explicit job id. No-op without a recorder.
#[inline]
pub(crate) fn mark(comm: &Comm, kind: EventKind, job: i64, bytes: u64) {
    if let Some(rec) = comm.recorder() {
        rec.record(Event {
            kind,
            rank: comm.rank() as u16,
            job,
            start_ns: rec.now_ns(),
            dur_ns: 0,
            bytes,
        });
    }
}
