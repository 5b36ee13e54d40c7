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
use crate::strategy::{Transmission, WirePolicy};
use crate::supervisor::SupervisorConfig;
use exec::ExecPolicy;
use minimpi::FaultPlan;
use obs::Recorder;
use sched::{DispatchPolicy, SchedConfig};
use std::path::PathBuf;
use std::sync::Arc;
use store::{CachingStore, DirStore, Prefetcher, ProblemStore};

/// The per-run context every master/slave loop threads through: the one
/// [`ProblemStore`] all byte-paths fetch from, the wire encoding policy,
/// the optional master-side prefetch pipeline and the slaves' compute
/// policy.
#[derive(Debug)]
pub struct RunCtx {
    /// The store every fetch (master prepare, NFS slave read) routes
    /// through. Shared across all ranks of the in-process world.
    pub(crate) store: Arc<dyn ProblemStore>,
    /// Wire encoding for loaded payloads.
    pub(crate) wire: WirePolicy,
    /// Bounded prefetch pipeline (master-side); dropped — and thereby
    /// joined — when the run finishes.
    prefetcher: Option<Prefetcher>,
    /// Intra-slave compute policy: `Some` routes every slave compute
    /// through [`pricing::PremiaProblem::compute_with`] on the chunked
    /// executor; `None` (the default) is the legacy single-threaded
    /// [`pricing::PremiaProblem::compute`], bit-identical to every
    /// release since the seed.
    pub(crate) exec: Option<ExecPolicy>,
}

impl RunCtx {
    /// Direct directory reads, raw wire, no prefetch, and `exec` as the
    /// compute policy (`None`: the legacy single-threaded kernels).
    pub fn new(exec: Option<ExecPolicy>) -> Self {
        RunCtx {
            store: Arc::new(DirStore::new()),
            wire: WirePolicy::RAW,
            prefetcher: None,
            exec,
        }
    }

    /// Tell the prefetcher (if any) that `n` jobs have been dispatched.
    pub(crate) fn advance(&self, n: usize) {
        if let Some(pf) = &self.prefetcher {
            pf.advance(n);
        }
    }
}

/// Everything a farm run needs, behind one builder.
///
/// Defaults: no supervision, no fault plan, no recorder, FIFO order —
/// the plain Robin-Hood farm, shipping job frames sized by the
/// scheduler's own rule ([`sched::Batch::Guided`]).
#[derive(Debug, Clone)]
pub struct FarmConfig {
    pub(crate) slaves: usize,
    pub(crate) strategy: Transmission,
    pub(crate) supervisor: Option<SupervisorConfig>,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    pub(crate) recorder: Option<Arc<Recorder>>,
    store: Option<Arc<dyn ProblemStore>>,
    cache_bytes: Option<u64>,
    compress_threshold: Option<usize>,
    prefetch_depth: usize,
    threads: usize,
    lanes: usize,
    policy: DispatchPolicy,
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
            store: None,
            cache_bytes: None,
            compress_threshold: None,
            prefetch_depth: 0,
            threads: 1,
            lanes: 1,
            policy: DispatchPolicy::Fifo,
            record_trace: false,
            rounds: None,
        }
    }

    /// Dispatch queued jobs in `policy` order: [`DispatchPolicy::Fifo`]
    /// (the default, the paper's Fig. 4 master) or
    /// [`DispatchPolicy::Lpt`] (longest-predicted-cost-first, the
    /// classic makespan heuristic for the end-of-run straggler tail —
    /// costs come from a calibrated [`crate::calibrate::CostModel`]).
    /// Any order but FIFO dispatches one job per message (frames are
    /// contiguous index ranges).
    pub fn order(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
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

    /// Run every slave's Monte-Carlo/LSM path loops on `threads` compute
    /// workers (the intra-slave dimension of parallelism; the farm's
    /// slave count is the inter-node dimension). `1` — the default — is
    /// the legacy single-threaded compute, bit-identical to every
    /// release since the seed. For `threads >= 2` (or any lane width
    /// above 1 — [`ExecPolicy::validated`] decides) the kernels switch to
    /// the chunked executor: prices are then bit-identical for *any*
    /// thread count (2 == 8 == 64) but form a different deterministic
    /// sample than the sequential kernel; see `docs/PARALLEL.md`. Methods
    /// without a path loop (closed form, PDE, tree, QMC) are unaffected.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Batch the slaves' path loops across `lanes` SIMD lanes with
    /// pooled, allocation-free per-worker workspaces. `1` — the default —
    /// is the scalar kernel, bit-identical to every release since the
    /// seed. Supported widths are 1, 4 and 8; like the chunk size (and
    /// unlike the thread count) the lane width is part of the sampled
    /// result — lanes consume each chunk's RNG stream in
    /// `(group, step, lane)` order — so each width owns its own pinned
    /// goldens (`tests/kernel_goldens.rs`); see `docs/SIMD.md`.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
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

    /// Route every problem fetch through `store` instead of the default
    /// direct-directory backend. Pass an `Arc<CachingStore>` you keep a
    /// handle to when you want warm-cache persistence across runs or
    /// access to its [`store::StoreStats`] afterwards.
    pub fn store(mut self, store: Arc<dyn ProblemStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Wrap the backend (the configured [`store`](Self::store), or the
    /// default directory store) in a byte-budgeted [`CachingStore`]:
    /// warm fetches of the same unmodified problem file skip disk.
    pub fn cache_bytes(mut self, budget: u64) -> Self {
        self.cache_bytes = Some(budget);
        self
    }

    /// Compress loaded payloads of at least `threshold` bytes on the
    /// wire (§3.2's compressed serialized buffers). Payloads below the
    /// threshold — or that fail to shrink — are sent raw.
    pub fn compress_wire(mut self, threshold: usize) -> Self {
        self.compress_threshold = Some(threshold);
        self
    }

    /// Prefetch up to `depth` problems ahead of the dispatch watermark
    /// into the store (requires a caching store — [`Self::cache_bytes`]
    /// or a custom [`Self::store`] — so prefetched bytes are retained).
    /// With a recorder sized `slaves + 2`, the pipeline's fetches are
    /// timed as `Prefetch` events on the virtual rank `slaves + 1`.
    pub fn prefetch(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// The scheduler's view of this config over `jobs` jobs: dispatch
    /// order, supervision, staged rounds and tracing are all data for
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
                self.policy.clone(),
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
        if self
            .supervisor
            .as_ref()
            .is_some_and(|s| s.max_attempts == 0)
        {
            issues.reject("supervisor", "max_attempts must be at least 1");
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
        if self.cache_bytes == Some(0) {
            issues.reject("cache_bytes", "cache budget must be nonzero");
        }
        if self.prefetch_depth > 0 && self.cache_bytes.is_none() && self.store.is_none() {
            issues.reject(
                "prefetch_depth",
                "prefetch needs a retaining store (set cache_bytes or store)",
            );
        }
        if let Err(bad) = ExecPolicy::validated(self.threads, self.lanes) {
            issues.issues.extend(bad.issues);
        }
        if self.rounds.is_some() && supervised {
            issues.reject(
                "rounds",
                "staged rounds run on the plain master (supervision is not staged yet)",
            );
        }
        issues.into_result().map_err(FarmError::Config)
    }

    /// Assemble the per-run context: the store stack (custom backend →
    /// optional cache decorator), the wire policy, and the prefetch
    /// pipeline over `files`.
    fn build_ctx(&self, files: &[PathBuf]) -> RunCtx {
        let base: Arc<dyn ProblemStore> = match (&self.store, self.cache_bytes) {
            (Some(s), None) => s.clone(),
            (Some(s), Some(budget)) => Arc::new(CachingStore::new(s.clone(), budget)),
            (None, Some(budget)) => Arc::new(CachingStore::over_dir(budget)),
            (None, None) => Arc::new(DirStore::new()),
        };
        let wire = match self.compress_threshold {
            Some(t) => WirePolicy::compressed(t),
            None => WirePolicy::RAW,
        };
        let prefetcher = (self.prefetch_depth > 0 && !files.is_empty()).then(|| {
            // The prefetcher records on the virtual rank `slaves + 1`;
            // a recorder sized exactly `slaves + 1` silently ignores it
            // (out of range), so existing breakdowns are unaffected.
            let rec = self.recorder.as_ref().map(|r| (r.clone(), self.slaves + 1));
            Prefetcher::spawn(base.clone(), files.to_vec(), self.prefetch_depth, rec)
        });
        RunCtx {
            store: base,
            wire,
            prefetcher,
            exec: ExecPolicy::validated(self.threads, self.lanes).expect("validated by run_with"),
        }
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
    // Per-job vectors must cover the portfolio.
    let per_job = [
        ("rounds", "rounds", cfg.rounds.as_ref().map(Vec::len)),
        match &cfg.policy {
            DispatchPolicy::Lpt { costs } => ("policy", "LPT cost", Some(costs.len())),
            DispatchPolicy::Priority { class } => ("policy", "priority class", Some(class.len())),
            DispatchPolicy::Fifo => ("policy", "", None),
        },
    ];
    for (field, what, len) in per_job {
        if let Some(len) = len.filter(|&len| len != files.len()) {
            let jobs = files.len();
            let why = format!("{what} vector covers {len} jobs but the portfolio has {jobs}");
            return Err(FarmError::Config(exec::ConfigIssues::one(field, why)));
        }
    }
    run_flat(files, cfg, &cfg.build_ctx(files), patch.as_ref())
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
        let costs = vec![1.0; 8];
        for per_job in [
            plain.clone().supervised(true),
            plain.clone().order(DispatchPolicy::Lpt { costs }),
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
        assert!(rejected(&cfg).has("supervisor"));
    }

    #[test]
    fn undersized_recorder_rejected() {
        let cfg = FarmConfig::new(3, Transmission::Nfs).recorder(Arc::new(Recorder::new(2)));
        assert!(rejected(&cfg).has("recorder"));
    }

    #[test]
    fn zero_cache_budget_rejected() {
        let cfg = FarmConfig::new(2, Transmission::Nfs).cache_bytes(0);
        assert!(rejected(&cfg).has("cache_bytes"));
    }

    #[test]
    fn prefetch_without_retaining_store_rejected() {
        let cfg = FarmConfig::new(2, Transmission::SerializedLoad).prefetch(4);
        assert!(rejected(&cfg).has("prefetch_depth"));
    }

    #[test]
    fn zero_threads_rejected() {
        let cfg = FarmConfig::new(2, Transmission::Nfs).threads(0);
        assert!(rejected(&cfg).has("threads"));
    }

    #[test]
    fn unsupported_lane_width_rejected() {
        for lanes in [2usize, 3, 5, 16] {
            let cfg = FarmConfig::new(2, Transmission::Nfs).lanes(lanes);
            assert!(
                rejected(&cfg).has("lanes"),
                "lanes={lanes} should be rejected"
            );
        }
    }

    #[test]
    fn validation_collects_every_invalid_field_at_once() {
        // Four independent mistakes in one config: validation reports
        // all of them, in field order, instead of the first one found.
        let cfg = FarmConfig::new(2, Transmission::Nfs)
            .cache_bytes(0)
            .threads(0)
            .lanes(3)
            .fault_plan(Arc::new(FaultPlan::new(1)));
        let issues = rejected(&cfg);
        assert_eq!(issues.issues.len(), 4, "all four fields reported: {issues}");
        for field in ["fault_plan", "cache_bytes", "threads", "lanes"] {
            assert!(issues.has(field), "missing {field} in {issues}");
        }
        // The rendered message names every field for the human reader.
        let msg = FarmError::Config(issues).to_string();
        for field in ["fault_plan", "cache_bytes", "threads", "lanes"] {
            assert!(msg.contains(field), "{field} absent from {msg}");
        }
    }

    #[test]
    fn priority_class_length_checked_against_portfolio() {
        let (paths, dir) = setup(4, "prio_len");
        let cfg = FarmConfig::new(2, Transmission::SerializedLoad)
            .order(DispatchPolicy::Priority { class: vec![0, 1] });
        let issues = rejected_for(&paths, &cfg);
        assert!(issues.has("policy"), "{issues}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A config only the scheduler rejects (frames need FIFO order; no
    /// `FarmConfig` builds one any more, a front-end's own `SchedConfig`
    /// still could) is found with the slaves already parked in `recv`:
    /// the driver must stop them before it reports, or the run would
    /// never return.
    #[test]
    fn scheduler_rejection_stops_the_slaves_it_found_parked() {
        use crate::driver::{drive, Farm};
        use crate::slave::{serve_jobs, Link};
        let (ctx, link) = (RunCtx::new(None), Link { master: 0, tag: 7 });
        let strategy = Transmission::SerializedLoad;
        let bad = SchedConfig {
            batch: sched::Batch::Guided,
            ..SchedConfig::plain(4, 2).policy(DispatchPolicy::Priority {
                class: vec![0, 1, 0, 1],
            })
        };
        let ran = minimpi::World::run(3, |comm| {
            if comm.rank() != 0 {
                serve_jobs(&comm, &ctx, link, None);
                return None;
            }
            let farm = Farm {
                comm: &comm,
                link,
                base: 0,
                frames: None,
                supervisor: None,
                resident: false,
                ctx: &ctx,
                strategy,
            };
            Some(drive(&farm, bad.clone(), |_, _, _, _| {
                unreachable!("nothing is dispatched")
            }))
        });
        match ran.into_iter().next().flatten() {
            Some(Err(FarmError::Config(issues))) => assert!(issues.has("scheduler"), "{issues}"),
            other => panic!("expected a config rejection, got {other:?}"),
        }
    }

    /// Like [`rejected`] but against a real portfolio (for the checks
    /// that compare vector lengths with the file list).
    fn rejected_for(files: &[PathBuf], cfg: &FarmConfig) -> exec::ConfigIssues {
        match run(files, cfg) {
            Err(FarmError::Config(issues)) => issues,
            other => panic!("expected a config rejection, got {other:?}"),
        }
    }

    /// A small all-Monte-Carlo portfolio: unlike [`toy_portfolio`] (closed
    /// form, no chunked kernel), these jobs actually exercise the
    /// intra-slave executor when `threads >= 2`.
    fn mc_setup(count: usize, tag: &str) -> (Vec<PathBuf>, std::path::PathBuf) {
        use crate::portfolio::{JobClass, PortfolioJob};
        use pricing::models::BlackScholes;
        use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};
        let dir = std::env::temp_dir().join(format!("farm_cfg_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs: Vec<PortfolioJob> = (0..count)
            .map(|i| PortfolioJob {
                id: i,
                class: JobClass::LocalVolMc,
                problem: PremiaProblem::new(
                    ModelSpec::BlackScholes(BlackScholes::new(100.0, 0.2, 0.05, 0.0)),
                    OptionSpec::Call {
                        strike: 90.0 + 2.0 * i as f64,
                        maturity: 1.0,
                    },
                    MethodSpec::MonteCarlo {
                        paths: 2_000,
                        time_steps: 8,
                        antithetic: false,
                        seed: 42 + i as u64,
                    },
                ),
            })
            .collect();
        let paths = save_portfolio(&jobs, &dir).unwrap();
        (paths, dir)
    }

    #[test]
    fn threaded_farm_bit_identical_across_thread_counts() {
        let (paths, dir) = mc_setup(6, "threads_bits");
        let by_job = |r: &FarmReport| {
            let mut v: Vec<(usize, u64)> = r
                .outcomes
                .iter()
                .map(|o| (o.job, o.price.to_bits()))
                .collect();
            v.sort();
            v
        };
        let t2 = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad).threads(2),
        )
        .unwrap();
        let t8 = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad).threads(8),
        )
        .unwrap();
        assert_eq!(by_job(&t2), by_job(&t8));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_one_is_bit_identical_to_default() {
        let (paths, dir) = setup(8, "threads_one");
        let by_job = |r: &FarmReport| {
            let mut v: Vec<(usize, u64)> = r
                .outcomes
                .iter()
                .map(|o| (o.job, o.price.to_bits()))
                .collect();
            v.sort();
            v
        };
        let default = run(&paths, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
        let one = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad).threads(1),
        )
        .unwrap();
        assert_eq!(by_job(&default), by_job(&one));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threaded_recorded_run_emits_compute_chunk_diagnostics() {
        use obs::{Breakdown, EventKind};
        let (paths, dir) = mc_setup(4, "threads_events");
        let rec = Arc::new(Recorder::new(3));
        let cfg = FarmConfig::new(2, Transmission::SerializedLoad)
            .threads(2)
            .recorder(rec.clone());
        let report = run(&paths, &cfg).unwrap();
        assert_eq!(report.completed(), 4);
        let events = rec.events();
        let b = Breakdown::from_events(&events);
        // Chunked kernels ran: per-chunk diagnostics are present and the
        // worker-CPU seconds roughly cover the compute wall seconds.
        assert!(b.count_of(EventKind::ComputeChunk) > 0);
        assert!(b.parallel_s() > 0.0);
        assert!(b.compute_s() > 0.0);
        // Diagnostics never inflate the cpu-seconds budget.
        assert!(b.total_s() >= b.compute_s());
        assert_eq!(rec.dropped(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lanes_one_is_bit_identical_to_default() {
        let (paths, dir) = mc_setup(6, "lanes_one");
        let by_job = |r: &FarmReport| {
            let mut v: Vec<(usize, u64)> = r
                .outcomes
                .iter()
                .map(|o| (o.job, o.price.to_bits()))
                .collect();
            v.sort();
            v
        };
        let default = run(&paths, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
        let one = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad).lanes(1),
        )
        .unwrap();
        assert_eq!(by_job(&default), by_job(&one));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn laned_farm_bit_identical_across_thread_counts() {
        let (paths, dir) = mc_setup(6, "lanes_bits");
        let by_job = |r: &FarmReport| {
            let mut v: Vec<(usize, u64)> = r
                .outcomes
                .iter()
                .map(|o| (o.job, o.price.to_bits()))
                .collect();
            v.sort();
            v
        };
        let l8t1 = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad).lanes(8),
        )
        .unwrap();
        let l8t8 = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad)
                .threads(8)
                .lanes(8),
        )
        .unwrap();
        assert_eq!(by_job(&l8t1), by_job(&l8t8));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn laned_recorded_run_emits_lane_batch_marks() {
        use obs::{Breakdown, EventKind};
        let (paths, dir) = mc_setup(4, "lanes_events");
        let rec = Arc::new(Recorder::new(3));
        let cfg = FarmConfig::new(2, Transmission::SerializedLoad)
            .threads(2)
            .lanes(8)
            .recorder(rec.clone());
        let report = run(&paths, &cfg).unwrap();
        assert_eq!(report.completed(), 4);
        let b = Breakdown::from_events(&rec.events());
        // One zero-duration mark per chunked compute, carrying the width.
        assert_eq!(b.count_of(EventKind::LaneBatch), 4);
        assert_eq!(b.lane_width(), 8.0);
        assert!(b.count_of(EventKind::ComputeChunk) > 0);
        assert_eq!(rec.dropped(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_compressed_prefetched_run_matches_plain() {
        let (paths, dir) = setup(20, "store_knobs");
        let plain = run(&paths, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
        let tricked_out = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad)
                .cache_bytes(1 << 20)
                .compress_wire(1)
                .prefetch(4),
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
        assert_eq!(by_job(&plain), by_job(&tricked_out));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_store_collects_stats_across_runs() {
        use store::{CachingStore, ProblemStore};
        let (paths, dir) = setup(10, "ext_store");
        let cache = Arc::new(CachingStore::over_dir(1 << 20));
        for _ in 0..2 {
            let cfg = FarmConfig::new(2, Transmission::SerializedLoad).store(cache.clone());
            run(&paths, &cfg).unwrap();
        }
        let stats = cache.stats();
        // Second run is fully warm: at least one hit per file.
        assert!(stats.hits >= 10, "{stats:?}");
        assert_eq!(stats.misses, 10, "{stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_with_cache_sees_cache_events() {
        use obs::EventKind;
        let (paths, dir) = setup(8, "cache_events");
        let cache = Arc::new(store::CachingStore::over_dir(1 << 20));
        let mut hit_any = false;
        for pass in 0..2 {
            // Size the recorder slaves + 2 so the prefetch virtual rank
            // is captured too. Whether the prefetch thread runs before an
            // 8-job run ends is up to the OS scheduler, so its `Prefetch`
            // span is tested where the thread can be waited for
            // (`store`'s `recorder_sees_prefetch_spans_on_the_virtual_rank`).
            let rec = Arc::new(Recorder::new(4));
            let cfg = FarmConfig::new(2, Transmission::SerializedLoad)
                .store(cache.clone())
                .prefetch(3)
                .recorder(rec.clone());
            run(&paths, &cfg).unwrap();
            let kinds: std::collections::BTreeSet<EventKind> =
                rec.events().iter().map(|e| e.kind).collect();
            assert!(
                kinds.contains(&EventKind::CacheHit) || kinds.contains(&EventKind::CacheMiss),
                "pass {pass}: {kinds:?}"
            );
            hit_any |= kinds.contains(&EventKind::CacheHit);
            assert_eq!(rec.dropped(), 0);
        }
        // The second pass runs against a warm cache: hits must appear.
        assert!(hit_any);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_frame_read_in_place_records_each_member() {
        use obs::EventKind;
        let (paths, dir) = setup(12, "in_place_events");
        let cache = Arc::new(store::CachingStore::over_dir(1 << 20));
        for (pass, kind) in [(0, EventKind::CacheMiss), (1, EventKind::CacheHit)] {
            let rec = Arc::new(Recorder::new(3));
            let cfg = FarmConfig::new(2, Transmission::SerializedLoad)
                .store(cache.clone())
                .recorder(rec.clone());
            assert_eq!(run(&paths, &cfg).unwrap().completed(), 12);
            let events = rec.events();
            let on_master = |k: EventKind| {
                let jobs = events.iter().filter(|e| e.kind == k && e.rank == 0);
                jobs.map(|e| e.job)
                    .collect::<std::collections::BTreeSet<_>>()
            };
            let every_job: std::collections::BTreeSet<i64> = (0..12).collect();
            for k in [EventKind::Sload, kind, EventKind::Pack] {
                assert_eq!(on_master(k), every_job, "pass {pass}: {k:?}");
            }
            let count = |k| events.iter().filter(|e| e.kind == k).count();
            assert_eq!(count(EventKind::Sload), 12, "pass {pass}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_wire_run_emits_compress_and_decompress() {
        use obs::EventKind;
        let (paths, dir) = setup(8, "wire_events");
        let rec = Arc::new(Recorder::new(3));
        let cfg = FarmConfig::new(2, Transmission::SerializedLoad)
            .compress_wire(1)
            .recorder(rec.clone());
        let report = run(&paths, &cfg).unwrap();
        assert_eq!(report.completed(), 8);
        let kinds: std::collections::BTreeSet<EventKind> =
            rec.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Compress), "{kinds:?}");
        assert!(kinds.contains(&EventKind::Decompress), "{kinds:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_batched_and_supervised_routes_agree() {
        let (paths, dir) = setup(18, "routes");
        // Plain ships guided frames, LPT order and supervision frames of
        // one.
        let plain = run(&paths, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
        let costs = vec![1.0; 18];
        let batched = run(
            &paths,
            &FarmConfig::new(2, Transmission::SerializedLoad).order(DispatchPolicy::Lpt { costs }),
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
