//! Supervision: the Fig. 4 farm hardened against the failure modes the
//! fault layer ([`minimpi::FaultPlan`]) can inject.
//!
//! Supervision is not a second master or a second slave: it is a
//! [`SupervisorConfig`] that [`crate::run`] turns into data for the one
//! driver ([`sched::Supervision`] plus a poll interval) and the one
//! slave loop (a bound on its one wait). The plain farm trusts its
//! slaves: a lost message stalls the refeed loop forever and a dead
//! slave strands its job. The supervised farm instead
//!
//! * gives every dispatched job a **deadline**
//!   ([`SupervisorConfig::job_deadline`]: the default's or the caller's),
//!   after which the job is requeued with exponential backoff and a
//!   bounded retry budget;
//! * detects **dead slaves** — both eagerly, when a send fails fast with
//!   [`minimpi::MpiError::Poisoned`], and by polling rank liveness — and
//!   immediately requeues their in-flight jobs;
//! * **deduplicates** late results: if a presumed-lost job is answered
//!   after being reassigned, the first answer wins and the straggler's
//!   copy is dropped;
//! * **degrades gracefully**: jobs that exhaust their retry budget land
//!   in [`crate::FarmReport::failed_jobs`] instead of aborting the run,
//!   and only the collapse of *every* slave aborts, with
//!   [`crate::FarmError::AllSlavesDead`] rather than a hang.
//!
//! Under an inert fault plan the supervised farm prices exactly the same
//! portfolio to exactly the same values as the plain one — the zero-fault
//! equivalence checked by `tests/sim_vs_live.rs` and `tests/farm_chaos.rs`.

use exec::ConfigIssues;
use sched::Supervision;
use std::time::Duration;

/// Tuning knobs of the supervised master. Start from
/// [`SupervisorConfig::default`] (test-scale timings) and override
/// fields as needed.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-dispatch deadline: a job unanswered for this long is presumed
    /// lost and requeued.
    pub job_deadline: Duration,
    /// Maximum dispatch attempts per job before it is abandoned into
    /// [`crate::FarmReport::failed_jobs`]. Must be at least 1.
    pub max_attempts: usize,
    /// Base of the exponential backoff between re-dispatches of the same
    /// job: attempt *n* waits `backoff_base * 2^(n-1)` after its failure.
    pub backoff_base: Duration,
    /// Master poll granularity: the longest the master blocks in one
    /// receive before re-checking deadlines and liveness.
    pub poll: Duration,
    /// Slave-side patience: how long an idle slave waits for traffic from
    /// the master before concluding it was orphaned and exiting. This
    /// bounds shutdown even if the stop sentinel itself is injected away.
    pub slave_idle_timeout: Duration,
}

impl Default for SupervisorConfig {
    /// Aggressive, test-scale timings (tens of milliseconds): right for
    /// the toy portfolio whose jobs price in microseconds.
    fn default() -> Self {
        SupervisorConfig {
            job_deadline: Duration::from_millis(200),
            max_attempts: 4,
            backoff_base: Duration::from_millis(5),
            poll: Duration::from_millis(20),
            slave_idle_timeout: Duration::from_secs(2),
        }
    }
}

impl SupervisorConfig {
    /// Record each setting that cannot supervise anything into
    /// `issues`, under its field name: no attempt at all, or a zero
    /// deadline, poll or idle patience. The farm and the serving
    /// session both validate their supervisor through this one check.
    pub fn check(&self, issues: &mut ConfigIssues) {
        if self.max_attempts == 0 {
            issues.reject("max_attempts", "must be at least 1");
        }
        let timings = [
            ("job_deadline", self.job_deadline),
            ("poll", self.poll),
            ("slave_idle_timeout", self.slave_idle_timeout),
        ];
        for (field, timing) in timings {
            if timing.is_zero() {
                issues.reject(field, "must be nonzero");
            }
        }
    }

    /// The wall-clock timings as the pure scheduler's [`Supervision`]
    /// parameters (nanosecond semantics are identical: attempt `n` backs
    /// off `backoff_base << min(n-1, 16)`).
    pub(crate) fn supervision(&self) -> Supervision {
        Supervision {
            deadline_ns: self.job_deadline.as_nanos() as u64,
            max_attempts: self.max_attempts as u32,
            backoff_base_ns: self.backoff_base.as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{run, FarmConfig};
    use crate::portfolio::{save_portfolio, toy_portfolio};
    use crate::robin_hood::{FarmError, FarmReport};
    use crate::strategy::Transmission;
    use minimpi::FaultPlan;
    use std::path::PathBuf;
    use std::sync::Arc;

    /// Shorthand routed through the unified [`crate::run`] entry point.
    fn run_supervised(
        files: &[PathBuf],
        slaves: usize,
        strategy: Transmission,
        cfg: &SupervisorConfig,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<FarmReport, FarmError> {
        let mut fc = FarmConfig::new(slaves, strategy).supervisor(cfg.clone());
        if let Some(plan) = plan {
            fc = fc.fault_plan(plan);
        }
        run(files, &fc)
    }

    fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, Vec<f64>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("farm_sup_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = toy_portfolio(count);
        let paths = save_portfolio(&jobs, &dir).unwrap();
        let expected: Vec<f64> = jobs
            .iter()
            .map(|j| j.problem.compute().unwrap().price)
            .collect();
        (paths, expected, dir)
    }

    #[test]
    fn fault_free_supervised_farm_prices_everything() {
        let (paths, expected, dir) = setup(30, "clean");
        let cfg = SupervisorConfig::default();
        let report = run_supervised(&paths, 3, Transmission::SerializedLoad, &cfg, None).unwrap();
        assert_eq!(report.completed(), expected.len());
        assert!(report.failed_jobs.is_empty());
        assert_eq!(report.retries, 0);
        assert!(report.dead_slaves.is_empty());
        for o in &report.outcomes {
            assert!((o.price - expected[o.job]).abs() < 1e-12);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_slaves_rejected() {
        assert!(matches!(
            run_supervised(
                &[],
                0,
                Transmission::Nfs,
                &SupervisorConfig::default(),
                None
            ),
            Err(FarmError::NoSlaves)
        ));
    }
}
