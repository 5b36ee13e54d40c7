//! The master/slave "Robbin Hood" task farm of Figs. 4–5, live over
//! `minimpi` threads.
//!
//! "First, the master sends one job to each slave and as soon as a slave
//! finishes its computation and sends its answer back, it is assigned a
//! new job. This mechanism goes on until the whole portfolio has been
//! treated." (§4). Termination is the empty message.
//!
//! Fig. 4's script sends each job as a name message and, for the loaded
//! strategies, a packed payload; that protocol is measured where the
//! paper's tables are — `scripts/fig4_farm.nsp` and the simulator's
//! [`sched::Batch::One`] costing. The live farm instead takes §5's
//! advice on every run: each dispatch is one job frame of problems (or,
//! for NFS, names) and one columnar reply. A FIFO, unsupervised,
//! unstaged run sizes its frames by the scheduler's guided rule
//! (`crate::batching`); a supervised or staged one dispatches frames of
//! one.
//!
//! This module is the *flat* farm — one master, rank 0, over ranks
//! `1..=slaves` — plain or supervised (`crate::supervisor`). They are one
//! runner: [`crate::driver::drive`] on rank 0, [`crate::slave::serve_jobs`]
//! on every other rank, and a [`crate::FarmConfig`] saying which
//! scheduler config and how much patience. The report and error types
//! the farm and a `serve::Session` share live here too.

use crate::config::FarmConfig;
use crate::driver::{self, Farm};
use crate::slave;
use crate::workload::StagedPatch;
use exec::ConfigIssues;
use minimpi::{Comm, MpiError, World};
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

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
    /// Jobs abandoned after exhausting their retry budget (supervised
    /// runs only: without supervision the first failed job ends the run
    /// with [`FarmError::JobFailed`]).
    pub failed_jobs: Vec<usize>,
    /// `(job, why)` of each job that failed inside an otherwise priced
    /// reply: final, never retried. Only a supervised frame of several
    /// jobs — a `serve` batch — can have one; see `docs/FAULTS.md`.
    pub failed_members: Vec<(usize, String)>,
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
        let mut v: Vec<_> = (self.outcomes.iter())
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
    /// The [`crate::FarmConfig`] combination is invalid (e.g. a fault
    /// plan without supervision, a zero retry budget, an undersized recorder).
    /// Carries *every* rejected field, not just the first one found.
    Config(ConfigIssues),
    /// The scheduler refused the run's [`sched::SchedConfig`]; the slaves
    /// have been stopped.
    Sched(sched::SchedError),
    /// A peer sent a message the wire codec cannot decode: a protocol
    /// violation, surfaced with the offending value rendered instead of
    /// silently dropped.
    Protocol(String),
    /// A job could not be priced — its bytes could not be prepared on
    /// the master, or its slave could not read, decode or compute it —
    /// and the run is not supervised, so nothing retries it. The slaves
    /// have been stopped.
    JobFailed {
        /// Index of the job in the submitted file list.
        job: usize,
        /// The cause, as reported by whichever side hit it.
        why: String,
    },
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
            FarmError::Sched(e) => write!(f, "invalid configuration: scheduler: {e}"),
            FarmError::Protocol(m) => write!(f, "protocol violation: {m}"),
            FarmError::JobFailed { job, why } => write!(f, "job {job} failed: {why}"),
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

impl FarmError {
    /// [`FarmError::JobFailed`] for `job`, caused by `why`.
    pub(crate) fn job_failed(job: usize, why: impl fmt::Display) -> Self {
        FarmError::JobFailed {
            job,
            why: why.to_string(),
        }
    }
}

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

/// The flat farm behind [`crate::run`]: plain or supervised as `cfg`
/// says.
pub(crate) fn run_flat(
    files: &[PathBuf],
    cfg: &FarmConfig,
    patch: Option<&StagedPatch>,
) -> Result<FarmReport, FarmError> {
    let body = |comm: Comm| {
        if comm.rank() == 0 {
            return Some(master(&comm, files, cfg, patch));
        }
        slave::serve_jobs(&comm, cfg.supervisor.as_ref());
        None
    };
    World::run_instrumented(
        cfg.slaves + 1,
        cfg.fault_plan.clone(),
        cfg.recorder.clone(),
        body,
    )
    .into_iter()
    .next()
    .flatten()
    .expect("master produces the report")
}

/// Fig. 4's `else` branch: [`driver::drive`] makes every decision and
/// owns shutdown; this function only says how a dispatch becomes bytes,
/// and that a portfolio left unpriced by the death of every slave is an
/// error.
fn master(
    comm: &Comm,
    files: &[PathBuf],
    cfg: &FarmConfig,
    patch: Option<&StagedPatch>,
) -> Result<FarmReport, FarmError> {
    let mut frame = Vec::new();
    let farm = Farm {
        comm,
        base: 0,
        frames: None,
        supervisor: cfg.supervisor.as_ref(),
        resident: false,
        strategy: cfg.strategy,
    };
    let sched = cfg.sched_config(files.len());
    let report = driver::drive(&farm, sched, |job, rank, batch, outcomes| {
        // Staged workloads rewrite a round-dependent job's problem file
        // from earlier answers just before its dispatch.
        if let Some(p) = patch {
            p.apply(job, outcomes, files)?;
        }
        let members = (job..job + batch).map(|idx| (idx, files[idx].as_path()));
        farm.send_frame(rank, members, &mut frame)?;
        Ok(())
    })?;
    let (completed, failed) = (report.completed(), report.failed_jobs.len());
    match files.len() - completed - failed {
        0 => Ok(report),
        remaining => Err(FarmError::AllSlavesDead {
            completed,
            remaining,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{run, FarmConfig};
    use crate::portfolio::{save_portfolio, toy_portfolio};
    use crate::strategy::Transmission;

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
