//! The master/slave "Robbin Hood" task farm of Figs. 4–5, live over
//! `minimpi` threads.
//!
//! "First, the master sends one job to each slave and as soon as a slave
//! finishes its computation and sends its answer back, it is assigned a
//! new job. This mechanism goes on until the whole portfolio has been
//! treated." (§4). Termination is the Fig. 4 empty-name message.
//!
//! The wire protocol matches the scripts: per job the master sends a
//! *name* message (`MPI_Send_Obj` of the file name string) followed, for
//! the loaded strategies, by a *packed object* message (`MPI_Pack` +
//! `MPI_Send`); the slave probes, sizes a buffer with `MPI_Get_count`,
//! receives, unpacks, unserializes, computes and replies with a result
//! object.

use crate::config::{RunCtx, SchedKnobs};
use crate::driver::{self, JobMap, RecvStyle};
use crate::instrument;
use crate::strategy::{prepare_payload_recorded, recover_problem_recorded, Transmission};
use crate::wire::{Answer, JobMsg};
use exec::ConfigIssues;
use minimpi::{Comm, MpiBuf, MpiError, World};
use nspval::Value;
use obs::Recorder;
use sched::SchedConfig;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) const TAG: i32 = 7;

/// One priced job as collected by the master.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Index of the job in the submitted file list.
    pub job: usize,
    /// Rank of the slave that priced it.
    pub slave: usize,
    /// Price estimate.
    pub price: f64,
    /// Monte-Carlo standard error, when the method reports one.
    pub std_error: Option<f64>,
}

/// The master's report for one farm run.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Per-job results in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Jobs completed per slave rank (index 0, the master, stays 0).
    pub per_slave: Vec<usize>,
    /// Transmission strategy used.
    pub strategy: Transmission,
    /// Jobs abandoned after exhausting their retry budget (supervised
    /// runs only; always empty for the plain Robin-Hood master).
    pub failed_jobs: Vec<usize>,
    /// Number of job re-dispatches the supervisor performed (deadline
    /// expiries and explicit slave failure reports).
    pub retries: usize,
    /// Slave ranks the supervisor declared dead during the run.
    pub dead_slaves: Vec<usize>,
    /// The scheduler's decision trace, recorded when the run was
    /// configured with [`crate::FarmConfig::record_trace`]. Timestamp-
    /// free, so it is byte-comparable with a simulated run of the same
    /// workload (`tests/sched_parity.rs`).
    pub trace: Option<sched::Trace>,
}

impl FarmReport {
    /// Total number of priced jobs.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Sorted `(job, price, std_error)` triples — the scheduling-order-
    /// independent view used to compare runs (live vs simulated, faulty
    /// vs fault-free).
    pub fn by_job(&self) -> Vec<(usize, f64, Option<f64>)> {
        let mut v: Vec<_> = self
            .outcomes
            .iter()
            .map(|o| (o.job, o.price, o.std_error))
            .collect();
        v.sort_by_key(|&(j, _, _)| j);
        v
    }
}

/// Farm-level failures.
#[derive(Debug)]
pub enum FarmError {
    /// Farms need at least one slave (2 "CPUs" in the tables' counting).
    NoSlaves,
    /// A communication primitive failed.
    Mpi(MpiError),
    /// A problem file failed to load/transmit.
    Io(String),
    /// A serialization / XDR decode failure (bad problem file, corrupt
    /// payload).
    Xdr(xdrser::XdrError),
    /// The [`crate::FarmConfig`] combination is invalid (e.g. batching
    /// under supervision, a zero retry budget, an undersized recorder).
    /// Carries *every* rejected field, not just the first one found.
    Config(ConfigIssues),
    /// A peer sent a message the wire codec cannot decode: a protocol
    /// violation, surfaced with the offending value rendered instead of
    /// silently dropped.
    Protocol(String),
    /// Every slave died before the portfolio was drained; the supervised
    /// master aborts cleanly instead of spinning on retries forever.
    AllSlavesDead {
        /// Jobs successfully priced before the farm collapsed.
        completed: usize,
        /// Jobs still unpriced at collapse.
        remaining: usize,
    },
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::NoSlaves => write!(f, "farm needs at least one slave"),
            FarmError::Mpi(e) => write!(f, "MPI error: {e}"),
            FarmError::Io(m) => write!(f, "I/O error: {m}"),
            FarmError::Xdr(e) => write!(f, "serialization error: {e}"),
            FarmError::Config(m) => write!(f, "{m}"),
            FarmError::Protocol(m) => write!(f, "protocol violation: {m}"),
            FarmError::AllSlavesDead {
                completed,
                remaining,
            } => write!(
                f,
                "all slaves dead with {remaining} jobs unpriced ({completed} completed)"
            ),
        }
    }
}

impl std::error::Error for FarmError {}

impl From<MpiError> for FarmError {
    fn from(e: MpiError) -> Self {
        FarmError::Mpi(e)
    }
}

impl From<xdrser::XdrError> for FarmError {
    fn from(e: xdrser::XdrError) -> Self {
        FarmError::Xdr(e)
    }
}

/// Master-side: send job `idx` (file `path`) to `slave`.
///
/// `scratch` is a pack buffer hoisted out of the dispatch loop: loaded
/// strategies recycle one allocation across the whole run
/// ([`Comm::pack_into`]), and each reuse shows up as an
/// [`minimpi::obs::EventKind::CopySaved`] mark when recording.
pub(crate) fn send_job(
    comm: &Comm,
    ctx: &RunCtx,
    slave: usize,
    idx: usize,
    path: &std::path::Path,
    strategy: Transmission,
    scratch: &mut MpiBuf,
) -> Result<(), FarmError> {
    comm.set_job(Some(idx));
    let sent = send_job_span(comm, ctx, slave, idx, path, strategy, scratch);
    comm.set_job(None);
    sent
}

fn send_job_span(
    comm: &Comm,
    ctx: &RunCtx,
    slave: usize,
    idx: usize,
    path: &std::path::Path,
    strategy: Transmission,
    scratch: &mut MpiBuf,
) -> Result<(), FarmError> {
    // Fetch and pack the payload first, so that the name message
    // ([name, job index]) and the packed object go out back to back
    // through one pair guard: the slave is woken once, with both queued,
    // rather than woken for the name only to block on the payload.
    let packed = prepare_payload_recorded(comm, ctx, strategy, path)?
        .map(|payload| comm.pack_into(&payload, scratch));
    let name = Value::list(vec![
        Value::string(path.to_string_lossy().to_string()),
        Value::scalar(idx as f64),
    ]);
    let pair = comm.pair(slave as i32)?;
    pair.send_obj(&name, TAG)?;
    if packed.is_some() {
        pair.send(scratch.bytes(), TAG)?;
    }
    Ok(())
}

/// Slave loop — Fig. 4's `if mpi_rank <> 0` branch.
fn slave_loop(comm: &Comm, ctx: &RunCtx, strategy: Transmission) -> Result<usize, FarmError> {
    let mut done = 0;
    loop {
        let (msg, _st) = comm.recv_obj(0, TAG)?;
        if msg.is_empty_matrix() {
            // Stop sentinel.
            return Ok(done);
        }
        let JobMsg { idx, name } = JobMsg::decode(&msg)
            .ok_or_else(|| FarmError::Protocol(format!("undecodable job request: {msg}")))?;
        comm.set_job(Some(idx));

        let payload = match strategy {
            Transmission::Nfs => None,
            _ => {
                // Probe → size buffer → receive → unpack (Fig. 4).
                let st = comm.probe(0, TAG)?;
                let mut buf = MpiBuf::with_capacity(st.count());
                comm.recv_into(&mut buf, 0, TAG)?;
                Some(comm.unpack(&buf)?)
            }
        };
        let problem = recover_problem_recorded(comm, ctx, strategy, &name, payload.as_ref())?;
        let result = instrument::compute_recorded(comm, ctx, &problem)
            .map_err(|e| FarmError::Io(format!("compute failed: {e}")))?;
        comm.send_obj(&Answer::priced(idx, &result).to_value(), 0, TAG)?;
        comm.set_job(None);
        done += 1;
    }
}

/// Master loop — Fig. 4's `else` branch, as a thin [`driver`] of the
/// [`sched::Scheduler`]: prime every slave, refeed on every answer,
/// stop with the empty-name sentinel. The dispatch *decisions* all come
/// from the shared state machine; this function only moves bytes.
fn master_loop(
    comm: &Comm,
    ctx: &RunCtx,
    files: &[PathBuf],
    strategy: Transmission,
    knobs: &SchedKnobs,
) -> Result<FarmReport, FarmError> {
    let slaves = comm.size() - 1;
    let start = Instant::now();
    let mut scratch = MpiBuf::with_capacity(0);
    // Flat farm: scheduler slave `s` is MPI rank `s`.
    let ranks: Vec<usize> = (0..=slaves).collect();
    let mut cfg = SchedConfig::plain(files.len(), slaves).policy(knobs.policy.clone());
    if knobs.record_trace {
        cfg = cfg.record_trace();
    }
    if let Some(rounds) = &knobs.rounds {
        cfg = cfg.rounds(rounds.clone());
    }
    // Staged workloads rewrite a round-dependent job's problem file from
    // earlier answers just before its dispatch (payloads are invisible
    // to the scheduler, so the decision trace is unaffected).
    let mut patch_fn = knobs
        .patch
        .as_ref()
        .map(|p| move |job: usize, outcomes: &[JobOutcome]| p.apply(job, outcomes, files));
    let run = driver::drive_plain(
        comm,
        TAG,
        cfg,
        &ranks,
        RecvStyle::Obj,
        JobMap::Identity,
        patch_fn
            .as_mut()
            .map(|f| f as &mut dyn FnMut(usize, &[JobOutcome]) -> Result<(), FarmError>),
        |job, rank, _batch| {
            send_job(comm, ctx, rank, job, &files[job], strategy, &mut scratch)?;
            ctx.advance(job + 1);
            Ok(())
        },
        |rank| Ok(comm.send_obj(&Value::empty_matrix(), rank as i32, TAG)?),
    )?;
    Ok(FarmReport {
        outcomes: run.outcomes,
        elapsed: start.elapsed(),
        per_slave: run.per_slave,
        strategy,
        failed_jobs: Vec::new(),
        retries: 0,
        dead_slaves: Vec::new(),
        trace: run.trace,
    })
}

/// The plain-farm runner behind [`crate::run`]: `recorder == None` with
/// the default context is byte-for-byte the PR-1 behaviour (guarded by
/// `tests/obs_overhead.rs`).
pub(crate) fn run_farm_inner(
    files: &[PathBuf],
    slaves: usize,
    strategy: Transmission,
    recorder: Option<Arc<Recorder>>,
    ctx: &RunCtx,
    knobs: &SchedKnobs,
) -> Result<FarmReport, FarmError> {
    let results = World::run_instrumented(slaves + 1, None, recorder, |comm| {
        if comm.rank() == 0 {
            Some(master_loop(&comm, ctx, files, strategy, knobs))
        } else {
            // A slave failure must not silently drop a job: panic and let
            // World poison the group (surfaces as an error at the master).
            slave_loop(&comm, ctx, strategy).expect("slave failed");
            None
        }
    });
    results
        .into_iter()
        .next()
        .flatten()
        .expect("master produces the report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{run, FarmConfig};
    use crate::portfolio::{save_portfolio, toy_portfolio};

    fn run_plain(
        files: &[PathBuf],
        slaves: usize,
        strategy: Transmission,
    ) -> Result<FarmReport, FarmError> {
        run(files, &FarmConfig::new(slaves, strategy))
    }

    fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, Vec<f64>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("farm_rh_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = toy_portfolio(count);
        let paths = save_portfolio(&jobs, &dir).unwrap();
        // Expected prices, computed serially.
        let expected: Vec<f64> = jobs
            .iter()
            .map(|j| j.problem.compute().unwrap().price)
            .collect();
        (paths, expected, dir)
    }

    fn check_report(report: &FarmReport, expected: &[f64]) {
        assert_eq!(report.completed(), expected.len());
        // Every job answered exactly once.
        let mut seen = vec![false; expected.len()];
        for o in &report.outcomes {
            assert!(!seen[o.job], "job {} answered twice", o.job);
            seen[o.job] = true;
            assert!(
                (o.price - expected[o.job]).abs() < 1e-12,
                "job {}: farm {} serial {}",
                o.job,
                o.price,
                expected[o.job]
            );
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn farm_prices_whole_portfolio_serialized_load() {
        let (paths, expected, dir) = setup(40, "sload");
        let report = run_plain(&paths, 3, Transmission::SerializedLoad).unwrap();
        check_report(&report, &expected);
        // Work was actually distributed.
        let active = report.per_slave.iter().filter(|&&c| c > 0).count();
        assert!(active >= 2, "only {active} slaves did work");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn farm_full_load_matches() {
        let (paths, expected, dir) = setup(25, "full");
        let report = run_plain(&paths, 4, Transmission::FullLoad).unwrap();
        check_report(&report, &expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn farm_nfs_matches() {
        let (paths, expected, dir) = setup(25, "nfs");
        let report = run_plain(&paths, 4, Transmission::Nfs).unwrap();
        check_report(&report, &expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn more_slaves_than_jobs() {
        let (paths, expected, dir) = setup(3, "overstaffed");
        let report = run_plain(&paths, 8, Transmission::SerializedLoad).unwrap();
        check_report(&report, &expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_slave_farm() {
        let (paths, expected, dir) = setup(10, "single");
        let report = run_plain(&paths, 1, Transmission::SerializedLoad).unwrap();
        check_report(&report, &expected);
        assert_eq!(report.per_slave[1], 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_portfolio() {
        let report = run_plain(&[], 2, Transmission::Nfs).unwrap();
        assert_eq!(report.completed(), 0);
    }

    #[test]
    fn zero_slaves_rejected() {
        assert!(matches!(
            run_plain(&[], 0, Transmission::Nfs),
            Err(FarmError::NoSlaves)
        ));
    }

    #[test]
    fn strategies_agree_on_prices() {
        let (paths, _, dir) = setup(15, "agree");
        let a = run_plain(&paths, 2, Transmission::FullLoad).unwrap();
        let b = run_plain(&paths, 2, Transmission::SerializedLoad).unwrap();
        let c = run_plain(&paths, 2, Transmission::Nfs).unwrap();
        let by_job = |r: &FarmReport| {
            let mut v: Vec<(usize, f64)> = r.outcomes.iter().map(|o| (o.job, o.price)).collect();
            v.sort_by_key(|&(j, _)| j);
            v
        };
        assert_eq!(by_job(&a), by_job(&b));
        assert_eq!(by_job(&b), by_job(&c));
        std::fs::remove_dir_all(&dir).ok();
    }
}
