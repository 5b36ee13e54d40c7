//! The unified farm entry point: one [`FarmConfig`] builder saying
//! whether the flat farm runs plain or supervised, with optional fault
//! injection and phase-level observability.
//!
//! Historically the crate exposed one free function per master variant,
//! each with its own positional-argument spelling and its own error
//! habits. [`run`] replaced them all: build a [`FarmConfig`], pass the
//! portfolio, get a `Result<FarmReport, FarmError>`. The config is data
//! for one runner (`robin_hood::run_flat`), not a switch between several.
//!
//! ```
//! use farm::{run, FarmConfig, Transmission};
//! # use farm::portfolio::{save_portfolio, toy_portfolio};
//! # let dir = std::env::temp_dir().join("farm_config_doc");
//! # let _ = std::fs::remove_dir_all(&dir);
//! # let paths = save_portfolio(&toy_portfolio(6), &dir).unwrap();
//! let cfg = FarmConfig::new(2, Transmission::SerializedLoad);
//! let report = run(&paths, &cfg).unwrap();
//! assert_eq!(report.completed(), 6);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::robin_hood::{run_flat, FarmError, FarmReport};
use crate::strategy::Transmission;
use crate::supervisor::SupervisorConfig;
use minimpi::FaultPlan;
use obs::Recorder;
use sched::{DispatchPolicy, SchedConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Everything a farm run needs, behind one builder.
///
/// Defaults: no supervision, no fault plan, no recorder — the plain
/// Robin-Hood farm, shipping job frames sized by the scheduler's own
/// rule ([`sched::Batch::Guided`]). Every run dispatches first come,
/// first served, as Fig. 4's master does, and every slave prices a job
/// with the sequential [`pricing::PremiaProblem::compute`].
#[derive(Debug, Clone)]
pub struct FarmConfig {
    pub(crate) slaves: usize,
    pub(crate) strategy: Transmission,
    pub(crate) supervisor: Option<SupervisorConfig>,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    pub(crate) recorder: Option<Arc<Recorder>>,
    record_trace: bool,
    rounds: Option<Vec<usize>>,
}

impl FarmConfig {
    /// A plain Robin-Hood farm over `slaves` worker ranks (the tables
    /// count `slaves + 1` CPUs) using `strategy`.
    pub fn new(slaves: usize, strategy: Transmission) -> Self {
        FarmConfig {
            slaves,
            strategy,
            supervisor: None,
            fault_plan: None,
            recorder: None,
            record_trace: false,
            rounds: None,
        }
    }

    /// Record the scheduler's timestamp-free decision trace into
    /// [`crate::FarmReport::trace`]. A live run and a simulated run of
    /// the same workload render byte-identical traces
    /// (`tests/sched_parity.rs`).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Declare staged rounds: `rounds[job]` is the job's round index, and
    /// no job of round `k` is dispatched while an earlier round still has
    /// unfinished work — the cross-round-dependency shape of Picard-
    /// iterated BSDE workloads (built most conveniently through
    /// [`crate::workload::Workload`] + [`crate::workload::run_workload`],
    /// which also wires the answer-patching between rounds). Incompatible
    /// with supervision; a staged run dispatches one job per message (a
    /// frame could span a round barrier).
    pub fn rounds(mut self, rounds: Vec<usize>) -> Self {
        self.rounds = Some(rounds);
        self
    }

    /// Enable the supervised master (deadlines, bounded retries,
    /// dead-slave burial — per job, so one job per message) with its
    /// default test-scale timings.
    pub fn supervised(mut self, on: bool) -> Self {
        self.supervisor = on.then(|| self.supervisor.take().unwrap_or_default());
        self
    }

    /// Enable supervision with explicit [`SupervisorConfig`] timings.
    pub fn supervisor(mut self, cfg: SupervisorConfig) -> Self {
        self.supervisor = Some(cfg);
        self
    }

    /// Inject faults from `plan` (implies nothing by itself — but [`run`]
    /// rejects a fault plan without supervision, since the plain master
    /// would hang or panic under injected faults).
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Install a phase-event [`Recorder`]: every rank's comm traffic and
    /// the farm-level prepare/compute/supervision phases are timestamped
    /// into it. Size it with at least `slaves + 1` ranks.
    pub fn recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// The scheduler's view of this config over `jobs` jobs, in FIFO
    /// order: supervision, staged rounds and tracing are all data for
    /// the one driver — and together they decide whether dispatches are
    /// job frames ([`SchedConfig::farm`], the constructor the simulator
    /// builds its own config through).
    pub(crate) fn sched_config(&self, jobs: usize) -> SchedConfig {
        let supervision = self.supervisor.as_ref().map(SupervisorConfig::supervision);
        SchedConfig {
            record_trace: self.record_trace,
            ..SchedConfig::farm(
                jobs,
                self.slaves,
                DispatchPolicy::Fifo,
                supervision,
                self.rounds.clone(),
            )
        }
    }

    /// Validate cross-field invariants, collecting *every* invalid
    /// field into one [`exec::ConfigIssues`] instead of stopping at the
    /// first failure — a caller fixing a rejected config sees the
    /// complete list at once. The one exception stays its own variant:
    /// a farm with zero slaves is [`FarmError::NoSlaves`], the paper's
    /// "at least 2 CPUs" precondition rather than a knob value.
    fn validate(&self) -> Result<(), FarmError> {
        if self.slaves == 0 {
            return Err(FarmError::NoSlaves);
        }
        let mut issues = exec::ConfigIssues::collect();
        let supervised = self.supervisor.is_some();
        if self.fault_plan.is_some() && !supervised {
            issues.reject(
                "fault_plan",
                "fault injection requires the supervised master",
            );
        }
        if let Some(sup) = &self.supervisor {
            sup.check(&mut issues);
        }
        if let Some(rec) = &self.recorder {
            if rec.ranks() < self.slaves + 1 {
                issues.reject(
                    "recorder",
                    format!(
                        "covers {} ranks but the farm needs {}",
                        rec.ranks(),
                        self.slaves + 1
                    ),
                );
            }
        }
        if self.rounds.is_some() && supervised {
            issues.reject(
                "rounds",
                "staged rounds run on the plain master (supervision is not staged yet)",
            );
        }
        issues.into_result().map_err(FarmError::Config)
    }
}

/// Run a farm over `files` as configured. One of the two entry points
/// into the farm — the other being a long-lived `serve::Session`, which
/// embeds the same scheduler behind a request queue.
pub fn run(files: &[PathBuf], cfg: &FarmConfig) -> Result<FarmReport, FarmError> {
    run_with(files, cfg, None)
}

/// [`run`] with an optional staged answer-patch (the
/// [`crate::workload::run_workload`] entry point builds the patch from
/// the workload's cross-round links).
pub(crate) fn run_with(
    files: &[PathBuf],
    cfg: &FarmConfig,
    patch: Option<crate::workload::StagedPatch>,
) -> Result<FarmReport, FarmError> {
    cfg.validate()?;
    run_flat(files, cfg, patch.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{save_portfolio, toy_portfolio};

    fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("farm_cfg_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = save_portfolio(&toy_portfolio(count), &dir).unwrap();
        (paths, dir)
    }

    #[test]
    fn zero_slaves_rejected() {
        let cfg = FarmConfig::new(0, Transmission::Nfs);
        assert!(matches!(run(&[], &cfg), Err(FarmError::NoSlaves)));
    }

    /// Run the config against an empty portfolio and return the
    /// collected issues, panicking on anything but a config rejection.
    fn rejected(cfg: &FarmConfig) -> exec::ConfigIssues {
        match run(&[], cfg) {
            Err(FarmError::Config(issues)) => issues,
            other => panic!("expected a config rejection, got {other:?}"),
        }
    }

    #[test]
    fn frames_are_the_scheduler_configs_call() {
        use sched::Batch;
        let plain = FarmConfig::new(2, Transmission::Nfs);
        assert_eq!(plain.sched_config(8).batch, Batch::Guided);
        for per_job in [
            plain.clone().supervised(true),
            plain.clone().rounds(vec![0; 8]),
        ] {
            assert_eq!(per_job.sched_config(8).batch, Batch::One);
        }
    }

    #[test]
    fn fault_plan_without_supervision_rejected() {
        let cfg = FarmConfig::new(2, Transmission::Nfs).fault_plan(Arc::new(FaultPlan::new(1)));
        assert!(rejected(&cfg).has("fault_plan"));
    }

    #[test]
    fn zero_max_attempts_rejected() {
        let sup = SupervisorConfig {
            max_attempts: 0,
            ..SupervisorConfig::default()
        };
        let cfg = FarmConfig::new(2, Transmission::Nfs).supervisor(sup);
        assert!(rejected(&cfg).has("max_attempts"));
    }

    /// Each zero supervisor timing is rejected under its own name, as a
    /// serving session rejects them: zero idle patience has every slave
    /// leave at once and the master wait out each deadline, and a zero
    /// deadline sends every job twice.
    #[test]
    fn zero_supervisor_timings_rejected() {
        use std::time::Duration;
        let ok = SupervisorConfig::default();
        let rows = [
            (
                "job_deadline",
                SupervisorConfig {
                    job_deadline: Duration::ZERO,
                    ..ok.clone()
                },
            ),
            (
                "poll",
                SupervisorConfig {
                    poll: Duration::ZERO,
                    ..ok.clone()
                },
            ),
            (
                "slave_idle_timeout",
                SupervisorConfig {
                    slave_idle_timeout: Duration::ZERO,
                    ..ok
                },
            ),
        ];
        for (field, sup) in rows {
            let issues = rejected(&FarmConfig::new(2, Transmission::Nfs).supervisor(sup));
            assert!(issues.has(field), "{field}: {issues}");
            assert_eq!(issues.issues.len(), 1, "{field}: {issues}");
        }
    }

    #[test]
    fn undersized_recorder_rejected() {
        let cfg = FarmConfig::new(3, Transmission::Nfs).recorder(Arc::new(Recorder::new(2)));
        assert!(rejected(&cfg).has("recorder"));
    }

    #[test]
    fn validation_collects_every_invalid_field_at_once() {
        // Four independent mistakes in one config: validation reports
        // all of them, in field order, instead of the first one found.
        let sup = SupervisorConfig {
            max_attempts: 0,
            poll: std::time::Duration::ZERO,
            ..SupervisorConfig::default()
        };
        let cfg = FarmConfig::new(2, Transmission::Nfs)
            .supervisor(sup)
            .recorder(Arc::new(Recorder::new(2)))
            .rounds(vec![0; 4]);
        let issues = rejected(&cfg);
        assert_eq!(issues.issues.len(), 4, "all four fields reported: {issues}");
        let fields = ["max_attempts", "poll", "recorder", "rounds"];
        for field in fields {
            assert!(issues.has(field), "missing {field} in {issues}");
        }
        // The rendered message names every field for the human reader.
        let msg = FarmError::Config(issues).to_string();
        for field in fields {
            assert!(msg.contains(field), "{field} absent from {msg}");
        }
    }

    /// A config only the scheduler rejects (frames need FIFO order; no
    /// `FarmConfig` builds one any more, a caller of `driver::drive` with
    /// its own `SchedConfig` still could) is found with the slaves already parked in `recv`:
    /// the driver must stop them before it reports, or the run would
    /// never return.
    #[test]
    fn scheduler_rejection_stops_the_slaves_it_found_parked() {
        use crate::driver::{drive, Farm};
        use crate::slave::serve_jobs;
        let strategy = Transmission::SerializedLoad;
        let bad = SchedConfig {
            batch: sched::Batch::Guided,
            ..SchedConfig::plain(4, 2).policy(DispatchPolicy::Lpt {
                costs: vec![1.0, 2.0, 1.0, 2.0],
            })
        };
        let ran = minimpi::World::run(3, |comm| {
            if comm.rank() != 0 {
                serve_jobs(&comm, None);
                return None;
            }
            let farm = Farm {
                comm: &comm,
                base: 0,
                frames: None,
                supervisor: None,
                resident: false,
                strategy,
            };
            Some(drive(&farm, bad.clone(), |_, _, _, _| {
                unreachable!("nothing is dispatched")
            }))
        });
        match ran.into_iter().next().flatten() {
            Some(Err(FarmError::Sched(e))) => assert_eq!(e, sched::SchedError::BatchNeedsFifo),
            other => panic!("expected a config rejection, got {other:?}"),
        }
    }

    /// The scheduler is the one check that `rounds` covers the portfolio;
    /// the driver reports its refusal after stopping every slave, so the
    /// run returns at once instead of leaving a slave parked in `recv`.
    #[test]
    fn a_short_rounds_vector_is_refused_with_every_slave_stopped() {
        use std::time::{Duration, Instant};
        let (paths, dir) = setup(4, "short_rounds");
        let cfg = FarmConfig::new(2, Transmission::SerializedLoad).rounds(vec![0; 3]);
        let ran = std::thread::spawn(move || run(&paths, &cfg));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ran.is_finished() {
            assert!(Instant::now() < deadline, "the run hung on a parked slave");
            std::thread::sleep(Duration::from_millis(5));
        }
        match ran.join().expect("the master returns") {
            Err(e @ FarmError::Sched(_)) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("rounds vector has 3 entries for 4 jobs"),
                    "{msg}"
                );
            }
            other => panic!("expected a config rejection, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A slave answers and parks for its next frame, so the stop
    /// sentinels find the slaves parked and leave their wakes owed: the
    /// master's next receive issues each one, and its `Comm`, dropped as
    /// the master returns, the last. A wake lost on the way hangs the
    /// run, plain or supervised.
    #[test]
    fn the_stop_sentinels_wake_every_parked_slave() {
        use std::time::{Duration, Instant};
        let (paths, dir) = setup(24, "stop_sentinels");
        let runs = std::thread::spawn(move || {
            for _ in 0..20 {
                for cfg in [
                    FarmConfig::new(3, Transmission::SerializedLoad),
                    FarmConfig::new(3, Transmission::SerializedLoad)
                        .supervisor(SupervisorConfig::default()),
                ] {
                    assert_eq!(run(&paths, &cfg).unwrap().completed(), 24);
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !runs.is_finished() {
            assert!(
                Instant::now() < deadline,
                "a slave was never woken for its stop"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        runs.join().expect("every run returns");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_frame_read_in_place_records_each_member() {
        use obs::EventKind;
        let (paths, dir) = setup(12, "in_place_events");
        let rec = Arc::new(Recorder::new(3));
        let cfg = FarmConfig::new(2, Transmission::SerializedLoad).recorder(rec.clone());
        assert_eq!(run(&paths, &cfg).unwrap().completed(), 12);
        let events = rec.events();
        let on_master = |k: EventKind| {
            let jobs = events.iter().filter(|e| e.kind == k && e.rank == 0);
            jobs.map(|e| e.job)
                .collect::<std::collections::BTreeSet<_>>()
        };
        let every_job: std::collections::BTreeSet<i64> = (0..12).collect();
        for k in [EventKind::Sload, EventKind::Pack] {
            assert_eq!(on_master(k), every_job, "{k:?}");
        }
        let count = |k| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::Sload), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_batched_and_supervised_routes_agree() {
        let (paths, dir) = setup(18, "routes");
        // Plain ships guided frames; a single round and supervision ship
        // frames of one.
        let plain = run(&paths, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
        let batched = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad).rounds(vec![0; 18]),
        )
        .unwrap();
        let supervised = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad).supervised(true),
        )
        .unwrap();
        let by_job = |r: &FarmReport| {
            let mut v: Vec<(usize, u64)> = r
                .outcomes
                .iter()
                .map(|o| (o.job, o.price.to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(by_job(&plain), by_job(&batched));
        assert_eq!(by_job(&plain), by_job(&supervised));
        assert!(supervised.failed_jobs.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_captures_all_strategies() {
        use obs::EventKind;
        let (paths, dir) = setup(8, "recorded");
        for strategy in Transmission::ALL {
            let rec = Arc::new(Recorder::new(3));
            let cfg = FarmConfig::new(2, strategy).recorder(rec.clone());
            let report = run(&paths, &cfg).unwrap();
            assert_eq!(report.completed(), 8);
            let events = rec.events();
            assert!(!events.is_empty(), "{strategy}: no events");
            let kinds: std::collections::BTreeSet<EventKind> =
                events.iter().map(|e| e.kind).collect();
            assert!(kinds.contains(&EventKind::Compute), "{strategy}: {kinds:?}");
            assert!(kinds.contains(&EventKind::Send), "{strategy}");
            match strategy {
                Transmission::SerializedLoad => {
                    assert!(kinds.contains(&EventKind::Sload), "{strategy}")
                }
                Transmission::Nfs => {
                    assert!(kinds.contains(&EventKind::NfsRead), "{strategy}")
                }
                Transmission::FullLoad => {
                    assert!(kinds.contains(&EventKind::Pack), "{strategy}")
                }
            }
            // Every job got a Compute event attributed to it.
            let computed: std::collections::BTreeSet<i64> = events
                .iter()
                .filter(|e| e.kind == EventKind::Compute)
                .map(|e| e.job)
                .collect();
            assert_eq!(computed.len(), 8, "{strategy}: {computed:?}");
            assert_eq!(rec.dropped(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
