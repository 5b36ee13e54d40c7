//! The Robin-Hood replay: Fig. 4's protocol over the `params`
//! performance model. The simulator holds **no master of its own**: a
//! run is `farm::driver::drive`, the loop every live master runs,
//! over a virtual-time world (`crate::world`) that models the rest.
//! Live and simulated runs render byte-identical decision [`Trace`]s
//! wherever they see the same answers (`tests/sched_parity.rs`).

use crate::params::SimConfig;
use crate::world::World;
use farm::driver::{drive, Farm};
use farm::minimpi::{Comm, FaultPlan};
use farm::strategy::Transmission;
use farm::{FarmError, JobClass, SupervisorConfig};
use obs::Recorder;
use sched::{DispatchPolicy, SchedConfig, SchedError, Trace};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// One job as the simulator sees it: a class (for bookkeeping), the size
/// of its problem file on the wire, and a pre-drawn compute duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJob {
    /// Stable job identifier.
    pub id: usize,
    /// §4.3 product class (the cost-model key).
    pub class: JobClass,
    /// Problem-file size on the wire.
    pub bytes: usize,
    /// Compute duration in seconds.
    pub compute: f64,
}

/// NFS server block cache, shared across consecutive simulated runs —
/// this is what makes the §4.2 "huge difference in computation time
/// between 2 and 4 nodes" reproducible: the first sweep point warms the
/// cache for the rest.
#[derive(Debug, Default, Clone)]
pub struct NfsCache {
    blocks: HashSet<usize>,
}

impl NfsCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        NfsCache::default()
    }

    /// Record an access; returns true if it was already cached.
    pub(crate) fn access(&mut self, file: usize) -> bool {
        !self.blocks.insert(file)
    }
}

/// Both caches a simulated run can carry across calls: the NFS server's
/// block cache and the farm's client-side problem cache. Pass the same
/// value again to model a warm re-run; pass a fresh one for cold.
#[derive(Debug, Default, Clone)]
pub struct SimCaches {
    /// NFS server block cache (server side).
    pub(crate) nfs: NfsCache,
    /// Problem files resident in a modelled farm-side cache (what a
    /// `store::CachingStore` would hold): unlike `nfs`, it sits in front
    /// of every fetch, whichever strategy.
    pub(crate) client: HashSet<usize>,
}

impl SimCaches {
    /// Fresh cold caches.
    pub fn new() -> Self {
        SimCaches::default()
    }
}

/// What one simulated run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Wall-clock makespan in (simulated) seconds.
    pub makespan: f64,
    /// Jobs completed per slave.
    pub per_slave: Vec<usize>,
    /// Fraction of the run the master spent busy (the §4.2/§5 bottleneck
    /// diagnostic).
    master_utilisation: f64,
    /// The decision trace, when the config set `record_trace`.
    pub trace: Option<Trace>,
}

/// Everything one simulated run depends on but its caches: the input of
/// [`simulate`].
#[derive(Debug, Clone)]
pub struct SimSpec<'a> {
    /// The jobs, in queue order.
    pub jobs: &'a [SimJob],
    /// How a problem reaches its slave.
    pub strategy: Transmission,
    /// The performance model.
    pub cfg: &'a SimConfig,
    /// Receives every phase in the live farm's [`obs::EventKind`] schema
    /// (rank 0 the master, slave *s* rank `s + 1`).
    pub recorder: Option<&'a Recorder>,
    /// Faults to inject, the value `farm::FarmConfig::fault_plan` takes,
    /// by the same op rule (`docs/FAULTS.md`). Supervised runs only.
    pub plan: Option<Arc<FaultPlan>>,
    /// The scheduler config the live front-end being modelled drives:
    /// [`SchedConfig::farm`], as `farm::run` builds it, or
    /// [`SchedConfig::plain`], Fig. 4's per-job protocol the paper's
    /// tables time. Its `jobs` must be the spec's job count.
    pub sched: SchedConfig,
}

/// Why [`simulate`] refused a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The scheduler refused the config.
    Sched(SchedError),
    /// A fault plan needs a supervised master, as on a live farm: a
    /// plain one would wait forever for a lost answer.
    FaultsNeedSupervision,
    /// A fault killed the master, ending its run: the driver's error.
    Aborted(String),
    /// A config sized for another number of jobs than the spec's.
    JobCount {
        /// The config's `jobs`.
        sched: usize,
        /// The spec's job count.
        jobs: usize,
    },
}

impl From<SchedError> for SimError {
    fn from(e: SchedError) -> Self {
        SimError::Sched(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Sched(e) => e.fmt(f),
            SimError::FaultsNeedSupervision => f.write_str("faults need a supervised run"),
            SimError::Aborted(why) => write!(f, "a fault ended the run: {why}"),
            SimError::JobCount { sched, jobs } => {
                write!(f, "scheduler config for {sched} jobs, spec holds {jobs}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Replay `spec` against the performance model: one master —
/// `farm::driver::drive`, the live farm's own loop — on rank 0 of a
/// virtual-time world (`crate::world`) that models everything else. A
/// [`sched::Batch::Guided`] config speaks the job-frame protocol; a
/// [`sched::Batch::One`] config speaks Fig. 4's per-job one (name
/// message, packed payload, answer), as the paper's tables and
/// `scripts/fig4_farm.nsp` do. `caches` persist across calls: pass the
/// same value again to model a warm re-run, a fresh one for a cold run.
/// With `SimConfig::store`'s client cache on, every fetch goes through
/// them (a simulated ablation: the live farm has none); supervision
/// polls at [`SupervisorConfig::default`]'s interval, in virtual time.
pub fn simulate(spec: &SimSpec, caches: &mut SimCaches) -> Result<SimOutcome, SimError> {
    let (jobs, sched) = (spec.jobs.len(), &spec.sched);
    if sched.jobs != jobs {
        return Err(SimError::JobCount {
            sched: sched.jobs,
            jobs,
        });
    }
    if spec.plan.is_some() && sched.supervision.is_none() {
        return Err(SimError::FaultsNeedSupervision);
    }
    let world = Arc::new(World::new(spec, std::mem::take(caches)));
    let comm = Comm::over(world.clone(), spec.plan.clone());
    let supervisor = sched.supervision.map(|s| SupervisorConfig {
        job_deadline: Duration::from_nanos(s.deadline_ns),
        max_attempts: s.max_attempts as usize,
        backoff_base: Duration::from_nanos(s.backoff_base_ns),
        ..SupervisorConfig::default()
    });
    let farm = Farm {
        comm: &comm,
        base: 0,
        frames: None,
        supervisor: supervisor.as_ref(),
        resident: false,
        strategy: spec.strategy,
    };
    let ran = drive(&farm, sched.clone(), |job, batch, _, buf| {
        world.dispatch(job..job + batch, buf);
        Ok(())
    });
    let mut model = world.model();
    *caches = std::mem::take(&mut model.caches);
    if let (Some(rec), Some(events)) = (spec.recorder, model.events.take()) {
        events.into_iter().for_each(|e| rec.record(e));
    }
    let report = match ran {
        Ok(report) => report,
        Err(FarmError::Sched(e)) => return Err(e.into()),
        Err(e) => return Err(SimError::Aborted(e.to_string())),
    };
    let makespan = model.makespan;
    let busy = model.master.busy_total();
    Ok(SimOutcome {
        makespan,
        per_slave: report.per_slave[1..].to_vec(),
        master_utilisation: if makespan > 0.0 { busy / makespan } else { 0.0 },
        trace: report.trace,
    })
}

/// [`simulate`] on the flat farm `farm::run` drives, from a cold client
/// cache: kept only because `perf/src/layers.rs` calls this signature.
pub fn simulate_farm_recorded(
    jobs: &[SimJob],
    slaves: usize,
    strategy: Transmission,
    cfg: &SimConfig,
    cache: &mut NfsCache,
    recorder: Option<&Recorder>,
) -> SimOutcome {
    let spec = SimSpec {
        jobs,
        strategy,
        cfg,
        recorder,
        plan: None,
        sched: SchedConfig::farm(jobs.len(), slaves, DispatchPolicy::Fifo, None, None),
    };
    let mut caches = SimCaches {
        nfs: std::mem::take(cache),
        ..SimCaches::new()
    };
    let out = simulate(&spec, &mut caches).expect("needs at least one slave");
    *cache = caches.nfs;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm::minimpi::{FaultEvent, SendFault};
    use obs::{EventKind, NO_JOB};
    use sched::Supervision;

    impl NfsCache {
        /// Number of contained elements.
        fn len(&self) -> usize {
            self.blocks.len()
        }
    }

    fn cheap_jobs(n: usize, compute: f64) -> Vec<SimJob> {
        (0..n)
            .map(|id| SimJob {
                id,
                class: JobClass::VanillaClosedForm,
                bytes: 600,
                compute,
            })
            .collect()
    }

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    /// The farm `farm::run` drives: FIFO guided frames.
    fn farm(jobs: usize, slaves: usize) -> SchedConfig {
        SchedConfig::farm(jobs, slaves, DispatchPolicy::Fifo, None, None)
    }

    fn spec<'a>(
        jobs: &'a [SimJob],
        strategy: Transmission,
        cfg: &'a SimConfig,
        sched: SchedConfig,
    ) -> SimSpec<'a> {
        SimSpec {
            jobs,
            strategy,
            cfg,
            recorder: None,
            plan: None,
            sched,
        }
    }

    /// One cold, unrecorded run of [`farm`].
    fn run_farm(
        jobs: &[SimJob],
        slaves: usize,
        strategy: Transmission,
        cfg: &SimConfig,
    ) -> SimOutcome {
        let spec = spec(jobs, strategy, cfg, farm(jobs.len(), slaves));
        simulate(&spec, &mut SimCaches::new()).unwrap()
    }

    /// [`farm`] recorded into `rec`, through `caches`.
    fn record_farm(
        jobs: &[SimJob],
        slaves: usize,
        strategy: Transmission,
        cfg: &SimConfig,
        caches: &mut SimCaches,
        rec: &Recorder,
    ) -> SimOutcome {
        let spec = SimSpec {
            recorder: Some(rec),
            ..spec(jobs, strategy, cfg, farm(jobs.len(), slaves))
        };
        simulate(&spec, caches).unwrap()
    }

    #[test]
    fn single_slave_time_is_roughly_serial_sum() {
        let jobs = cheap_jobs(1000, 1e-3);
        let out = run_farm(&jobs, 1, Transmission::SerializedLoad, &cfg());
        // ≥ total compute, ≤ total compute + modest overhead.
        assert!(out.makespan >= 1.0, "makespan {}", out.makespan);
        assert!(out.makespan < 1.6, "makespan {}", out.makespan);
        assert_eq!(out.per_slave, vec![1000]);
    }

    #[test]
    fn compute_bound_workload_scales_nearly_linearly() {
        // 20 s jobs: communication is negligible → near-linear speedup.
        let jobs: Vec<SimJob> = (0..512)
            .map(|id| SimJob {
                id,
                class: JobClass::BarrierPde,
                bytes: 700,
                compute: 20.0,
            })
            .collect();
        let t1 = run_farm(&jobs, 1, Transmission::SerializedLoad, &cfg()).makespan;
        let t16 = run_farm(&jobs, 16, Transmission::SerializedLoad, &cfg()).makespan;
        let speedup = t1 / t16;
        assert!(speedup > 15.0, "speedup {speedup}");
    }

    #[test]
    fn communication_bound_workload_saturates() {
        // Sub-millisecond jobs: the master serialises all sends, so
        // adding slaves beyond a few must not help (§4.2's regime).
        let jobs = cheap_jobs(5000, 0.3e-3);
        let t4 = run_farm(&jobs, 4, Transmission::FullLoad, &cfg()).makespan;
        let t50 = run_farm(&jobs, 50, Transmission::FullLoad, &cfg()).makespan;
        assert!(
            t50 > 0.6 * t4,
            "full-load farm kept scaling implausibly: t4={t4} t50={t50}"
        );
    }

    #[test]
    fn full_load_costs_master_more_than_sload() {
        let jobs = cheap_jobs(5000, 0.3e-3);
        let full = run_farm(&jobs, 20, Transmission::FullLoad, &cfg());
        let sload = run_farm(&jobs, 20, Transmission::SerializedLoad, &cfg());
        assert!(
            sload.makespan < full.makespan,
            "sload {} !< full {}",
            sload.makespan,
            full.makespan
        );
    }

    #[test]
    fn nfs_cache_warms_across_runs() {
        let jobs = cheap_jobs(2000, 0.3e-3);
        let (mut caches, config) = (SimCaches::new(), cfg());
        let spec = spec(&jobs, Transmission::Nfs, &config, farm(jobs.len(), 1));
        let cold = simulate(&spec, &mut caches).unwrap().makespan;
        let warm = simulate(&spec, &mut caches).unwrap().makespan;
        assert!(
            warm < cold * 0.7,
            "cache had no effect: cold {cold} warm {warm}"
        );
        assert_eq!(caches.nfs.len(), 2000);
    }

    #[test]
    fn work_is_balanced_for_homogeneous_jobs() {
        let jobs = cheap_jobs(1000, 5e-3);
        let out = run_farm(&jobs, 10, Transmission::SerializedLoad, &cfg());
        let total: usize = out.per_slave.iter().sum();
        assert_eq!(total, 1000);
        for &c in &out.per_slave {
            assert!(c > 50, "starved slave: {:?}", out.per_slave);
        }
    }

    #[test]
    fn makespan_bounded_below_by_longest_job() {
        let mut jobs = cheap_jobs(50, 1e-3);
        jobs[17].compute = 33.0;
        let out = run_farm(&jobs, 64, Transmission::SerializedLoad, &cfg());
        assert!(out.makespan >= 33.0);
        assert!(out.makespan < 34.0);
    }

    #[test]
    fn master_utilisation_reported() {
        let jobs = cheap_jobs(2000, 0.2e-3);
        let out = run_farm(&jobs, 40, Transmission::FullLoad, &cfg());
        assert!(
            out.master_utilisation > 0.5,
            "util {}",
            out.master_utilisation
        );
        let heavy: Vec<SimJob> = (0..100)
            .map(|id| SimJob {
                id,
                class: JobClass::AmericanPde,
                bytes: 700,
                compute: 30.0,
            })
            .collect();
        let out2 = run_farm(&heavy, 4, Transmission::SerializedLoad, &cfg());
        assert!(
            out2.master_utilisation < 0.05,
            "util {}",
            out2.master_utilisation
        );
    }

    #[test]
    fn recorded_replay_matches_unrecorded_and_emits_live_schema() {
        use std::collections::BTreeSet;
        let jobs = cheap_jobs(12, 2e-3);
        for strategy in Transmission::ALL {
            let plain = run_farm(&jobs, 2, strategy, &cfg());
            let rec = Recorder::new(3);
            let recorded = simulate_farm_recorded(
                &jobs,
                2,
                strategy,
                &cfg(),
                &mut NfsCache::new(),
                Some(&rec),
            );
            // Observability must not perturb the simulated schedule.
            assert_eq!(plain, recorded, "{strategy}");
            // The perf harness's wrapper is `simulate` on the flat farm,
            // to the bit and to the event.
            let rec_spec = Recorder::new(3);
            let via_spec =
                record_farm(&jobs, 2, strategy, &cfg(), &mut SimCaches::new(), &rec_spec);
            let bits = |o: &SimOutcome| o.makespan.to_bits();
            assert_eq!(bits(&via_spec), bits(&recorded), "{strategy}");
            assert_eq!(rec_spec.events(), rec.events(), "{strategy}");
            let events = rec.events();
            assert_eq!(rec.dropped(), 0);
            // Per-job kind sets match the live instrumented farm schema:
            // what each member of a job frame goes through, plus the
            // frame's one send under its first job. Twelve jobs on two
            // slaves travel as 3 + 3 + 2 + 1 + 1 + 1 + 1.
            let heads = [0, 3, 6, 8, 9, 10, 11];
            let member: &[EventKind] = match strategy {
                Transmission::FullLoad => &[
                    EventKind::Serialize,
                    EventKind::Pack,
                    EventKind::Unpack,
                    EventKind::Compute,
                ],
                Transmission::SerializedLoad => &[
                    EventKind::Sload,
                    EventKind::Pack,
                    EventKind::Unpack,
                    EventKind::Compute,
                ],
                Transmission::Nfs => &[EventKind::NfsRead, EventKind::Compute],
            };
            for job in 0..jobs.len() as i64 {
                let kinds: BTreeSet<EventKind> = events
                    .iter()
                    .filter(|e| e.job == job)
                    .map(|e| e.kind)
                    .collect();
                let mut expect: BTreeSet<EventKind> = member.iter().copied().collect();
                if heads.contains(&job) {
                    expect.insert(EventKind::Send);
                }
                assert_eq!(kinds, expect, "{strategy} job {job}");
            }
            // One receive and one reply per frame on the slaves, one
            // receive per reply on the master, under no job.
            let frame_level = |kind, on_master: bool| {
                events
                    .iter()
                    .filter(|e| e.job == NO_JOB && e.kind == kind && (e.rank == 0) == on_master)
                    .count()
            };
            assert_eq!(
                frame_level(EventKind::Recv, false),
                heads.len(),
                "{strategy}"
            );
            assert_eq!(
                frame_level(EventKind::Send, false),
                heads.len(),
                "{strategy}"
            );
            assert_eq!(
                frame_level(EventKind::Recv, true),
                heads.len(),
                "{strategy}"
            );
            // Compute seconds aggregate exactly to the drawn costs.
            let compute_s: f64 = events
                .iter()
                .filter(|e| e.kind == EventKind::Compute)
                .map(|e| e.dur_s())
                .sum();
            assert!(
                (compute_s - 12.0 * 2e-3).abs() < 1e-9,
                "{strategy}: {compute_s}"
            );
        }
    }

    #[test]
    fn frames_save_messages_not_reads() {
        // Fig. 4's one job a message against the guided frames
        // `farm::run` ships: a frame shares its send, never a file read.
        let jobs = cheap_jobs(400, 0.5e-3);
        let config = cfg();
        let record = |sched| {
            let rec = Recorder::with_capacity(5, 1 << 14);
            let spec = SimSpec {
                recorder: Some(&rec),
                ..spec(&jobs, Transmission::SerializedLoad, &config, sched)
            };
            let out = simulate(&spec, &mut SimCaches::new()).unwrap();
            assert_eq!(rec.dropped(), 0);
            (out.makespan, rec.events())
        };
        let (plain_s, plain) = record(SchedConfig::plain(jobs.len(), 4));
        let (framed_s, framed) = record(farm(jobs.len(), 4));
        // Every member's file read and name on the master, whichever
        // message carries it: a frame's Sload span holds its member's
        // name, a per-job message names its job in a Serialize of its own.
        let reads = |events: &[obs::Event]| {
            let master = |kind| events.iter().filter(move |e| e.rank == 0 && e.kind == kind);
            let spans = master(EventKind::Sload).chain(master(EventKind::Serialize));
            let ns: u64 = spans.map(|e| e.dur_ns).sum();
            (master(EventKind::Sload).count(), ns)
        };
        assert_eq!(reads(&framed), reads(&plain));
        assert_eq!(reads(&plain).0, jobs.len());
        let sends =
            |events: &[obs::Event]| events.iter().filter(|e| e.kind == EventKind::Send).count();
        assert!(
            sends(&framed) < sends(&plain),
            "frames sent {} messages, jobs {}",
            sends(&framed),
            sends(&plain)
        );
        assert!(framed_s <= plain_s, "frames {framed_s} > jobs {plain_s}");
    }

    #[test]
    fn store_knobs_off_is_bit_identical_to_base_model() {
        // With the client cache off, a cache already holding every file
        // changes nothing: no fetch reads it.
        let jobs = cheap_jobs(500, 0.5e-3);
        for strategy in Transmission::ALL {
            let base = run_farm(&jobs, 4, strategy, &cfg());
            let mut warm = SimCaches::new();
            warm.client.extend(jobs.iter().map(|j| j.id));
            let config = cfg();
            let spec = spec(&jobs, strategy, &config, farm(jobs.len(), 4));
            assert_eq!(base, simulate(&spec, &mut warm).unwrap(), "{strategy}");
        }
    }

    #[test]
    fn warm_client_cache_cuts_prepare_not_compute() {
        use obs::Breakdown;
        let jobs = cheap_jobs(800, 0.5e-3);
        let mut config = cfg();
        config.store.client_cache = true;
        for strategy in Transmission::ALL {
            let mut caches = SimCaches::new();
            let rec_cold = Recorder::with_capacity(3, 1 << 16);
            let cold = record_farm(&jobs, 2, strategy, &config, &mut caches, &rec_cold);
            let rec_warm = Recorder::with_capacity(3, 1 << 16);
            let warm = record_farm(&jobs, 2, strategy, &config, &mut caches, &rec_warm);
            let bd_cold = Breakdown::from_events(&rec_cold.events());
            let bd_warm = Breakdown::from_events(&rec_warm.events());
            assert!(
                bd_warm.prepare_s() < bd_cold.prepare_s(),
                "{strategy}: warm prepare {} !< cold {}",
                bd_warm.prepare_s(),
                bd_cold.prepare_s()
            );
            assert!(
                (bd_warm.compute_s() - bd_cold.compute_s()).abs() < 1e-9,
                "{strategy}: compute changed"
            );
            assert!(warm.makespan <= cold.makespan, "{strategy}");
            // The cold pass misses every file, the warm pass hits it.
            assert_eq!(bd_cold.cache_hit_rate(), 0.0, "{strategy}");
            assert_eq!(bd_warm.cache_hit_rate(), 1.0, "{strategy}");
            assert_eq!(rec_cold.dropped() + rec_warm.dropped(), 0);
        }
    }

    #[test]
    fn compressed_wire_trades_bandwidth_for_cpu() {
        use obs::Breakdown;
        // Big payloads on a slow link: halving the bytes must shorten
        // the wire phase; the codec CPU shows up under store_s.
        let jobs: Vec<SimJob> = (0..600)
            .map(|id| SimJob {
                id,
                class: JobClass::VanillaClosedForm,
                bytes: 60_000,
                compute: 0.5e-3,
            })
            .collect();
        let mut config = cfg();
        config.network.bandwidth = 10e6; // stress the link
        let record = |c: &SimConfig| {
            let rec = Recorder::with_capacity(3, 1 << 16);
            let strategy = Transmission::SerializedLoad;
            let out = record_farm(&jobs, 2, strategy, c, &mut SimCaches::new(), &rec);
            (out, Breakdown::from_events(&rec.events()))
        };
        let (raw_out, raw_bd) = record(&config);
        config.store.compress = true;
        let (z_out, z_bd) = record(&config);
        assert!(
            z_bd.wire_s() < 0.7 * raw_bd.wire_s(),
            "compression did not shrink wire: {} vs {}",
            z_bd.wire_s(),
            raw_bd.wire_s()
        );
        assert!(z_bd.store_s() > 0.0, "no codec time recorded");
        assert_eq!(raw_bd.store_s(), 0.0);
        assert!(
            z_out.makespan < raw_out.makespan,
            "compression should win on a slow link: {} vs {}",
            z_out.makespan,
            raw_out.makespan
        );
        // Compute untouched.
        assert!((z_bd.compute_s() - raw_bd.compute_s()).abs() < 1e-9);
    }

    #[test]
    fn small_payloads_below_threshold_stay_raw() {
        let jobs = cheap_jobs(200, 0.3e-3); // 600-byte files
        let mut config = cfg();
        config.store.compress = true;
        config.store.compress_threshold = 4096; // above the payloads
        let plain = run_farm(&jobs, 2, Transmission::SerializedLoad, &cfg());
        let gated = run_farm(&jobs, 2, Transmission::SerializedLoad, &config);
        assert_eq!(plain, gated, "threshold gate leaked compression");
    }

    #[test]
    fn scripted_death_requeues_onto_survivors() {
        let jobs = cheap_jobs(10, 5e-3);
        let supervision = Supervision {
            deadline_ns: 10_000_000_000,
            max_attempts: 4,
            backoff_base_ns: 0,
        };
        let sched = SchedConfig::farm(10, 2, DispatchPolicy::Fifo, Some(supervision), None);
        // Rank 2 dies at op 1, sending its first answer.
        let plan = FaultPlan::new(0).kill_rank_at_op(2, 1);
        let config = cfg();
        let spec = SimSpec {
            plan: Some(Arc::new(plan)),
            ..spec(
                &jobs,
                Transmission::SerializedLoad,
                &config,
                sched.record_trace(),
            )
        };
        let out = simulate(&spec, &mut SimCaches::new()).unwrap();
        // Every job completes despite the death; the dead slave (which
        // perished sending its first answer) contributes nothing.
        assert_eq!(out.per_slave.iter().sum::<usize>(), 10);
        assert_eq!(out.per_slave[1], 0, "{:?}", out.per_slave);
        let text = out.trace.unwrap().render();
        assert!(
            text.contains("dead(2) -> bury(2) requeue("),
            "no burial decision in:\n{text}"
        );
    }

    #[test]
    fn a_511_slave_supervised_farm_buries_a_death_and_accepts_each_job_once() {
        // The paper's 512 cores: a master and 511 slaves, four jobs a
        // slave, and slave rank 101 dying as it answers its second job.
        // The whole cluster runs here, on the test's thread.
        let jobs = cheap_jobs(2044, 10e-3);
        let supervision = Supervision {
            deadline_ns: 10_000_000_000,
            max_attempts: 4,
            backoff_base_ns: 0,
        };
        let sched = SchedConfig::farm(2044, 511, DispatchPolicy::Fifo, Some(supervision), None);
        // Op 3 is rank 101's second reply.
        let plan = FaultPlan::new(0).kill_rank_at_op(101, 3);
        let config = cfg();
        let spec = SimSpec {
            plan: Some(Arc::new(plan)),
            ..spec(
                &jobs,
                Transmission::SerializedLoad,
                &config,
                sched.record_trace(),
            )
        };
        let out = simulate(&spec, &mut SimCaches::new()).unwrap();
        assert_eq!(out.per_slave.iter().sum::<usize>(), 2044);
        assert_eq!(out.per_slave[100], 1, "the dead slave answered once");
        let trace = out.trace.unwrap();
        let mut accepted = vec![0; jobs.len()];
        for action in trace.entries.iter().flat_map(|e| &e.actions) {
            if let sched::Action::Accept { job, .. } = *action {
                accepted[job] += 1;
            }
        }
        assert!(accepted.iter().all(|&n| n == 1), "{accepted:?}");
        // The burial requeues the job the slave died with, and a
        // survivor takes it.
        let text = trace.render();
        let at = text
            .find("dead(101) -> bury(101) requeue(")
            .expect("no burial");
        let job = text[at..].split(['(', ')']).nth(5).unwrap();
        assert!(
            text[at..].contains(&format!(" dispatch({job}->")),
            "requeued job {job} never dispatched again:\n{}",
            &text[at..]
        );
    }

    /// A supervised farm of `jobs` under `plan`, traced.
    fn supervised_run(
        jobs: &[SimJob],
        slaves: usize,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<SimOutcome, SimError> {
        let supervision = Supervision {
            deadline_ns: 1_000_000_000,
            max_attempts: 4,
            backoff_base_ns: 0,
        };
        let sched = SchedConfig::farm(
            jobs.len(),
            slaves,
            DispatchPolicy::Fifo,
            Some(supervision),
            None,
        );
        let config = cfg();
        let spec = SimSpec {
            plan,
            ..spec(
                jobs,
                Transmission::SerializedLoad,
                &config,
                sched.record_trace(),
            )
        };
        simulate(&spec, &mut SimCaches::new())
    }

    #[test]
    fn an_inert_plan_counts_ops_and_changes_no_bit() {
        let jobs = cheap_jobs(40, 3e-3);
        let inert = supervised_run(&jobs, 3, Some(Arc::new(FaultPlan::new(9)))).unwrap();
        let none = supervised_run(&jobs, 3, None).unwrap();
        assert_eq!(inert.makespan.to_bits(), none.makespan.to_bits());
        assert_eq!(inert, none);
    }

    #[test]
    fn a_truncated_reply_is_discarded_and_its_job_expires_and_returns() {
        // Rank 1's first reply (its send 0, 96 modelled bytes) arrives
        // cut to 10: the master's receive refuses it, the driver
        // discards it, and the deadline sends job 0 out again.
        let jobs = cheap_jobs(6, 2e-3);
        let plan = Arc::new(FaultPlan::new(0).force_send(1, 0, SendFault::Truncate(10)));
        let out = supervised_run(&jobs, 2, Some(Arc::clone(&plan))).unwrap();
        assert_eq!(out.per_slave.iter().sum::<usize>(), 6);
        let text = out.trace.unwrap().render();
        assert!(
            text.contains("deadline -> expire(0,1) requeue(0) dispatch(0->1)\n"),
            "{text}"
        );
        assert_eq!(text.matches("accept(0,").count(), 1, "{text}");
        let cut = FaultEvent::Truncated {
            rank: 1,
            send: 0,
            kept: 10,
            full: 96,
        };
        assert_eq!(plan.events(), [cut]);
    }

    #[test]
    fn a_plan_that_kills_the_master_ends_the_run_with_a_typed_error() {
        // Rank 0's ops: a send to each slave, then its first poll.
        let jobs = cheap_jobs(8, 1e-3);
        let master = FaultPlan::new(0).kill_rank_at_op(0, 2);
        let got = supervised_run(&jobs, 2, Some(Arc::new(master)));
        assert!(
            matches!(&got, Err(SimError::Aborted(why)) if why.contains("dead")),
            "{got:?}"
        );
    }

    #[test]
    fn lpt_dispatches_longest_job_first_and_beats_fifo_on_a_straggler() {
        let mut jobs = cheap_jobs(6, 1e-3);
        jobs[5].compute = 1.0; // the straggler FIFO leaves for last
        let costs: Vec<f64> = jobs.iter().map(|j| j.compute).collect();
        let sched = SchedConfig::farm(6, 2, DispatchPolicy::Lpt { costs }, None, None);
        let config = cfg();
        let spec = spec(
            &jobs,
            Transmission::SerializedLoad,
            &config,
            sched.record_trace(),
        );
        let lpt = simulate(&spec, &mut SimCaches::new()).unwrap();
        let text = lpt.trace.clone().unwrap().render();
        assert!(
            text.starts_with("ready(1) -> dispatch(5->1)\n"),
            "LPT did not lead with the straggler:\n{text}"
        );
        let fifo = run_farm(&jobs, 2, Transmission::SerializedLoad, &cfg());
        assert!(
            lpt.makespan < fifo.makespan,
            "LPT {} !< FIFO {}",
            lpt.makespan,
            fifo.makespan
        );
    }

    #[test]
    fn empty_job_list_is_zero_makespan() {
        let out = run_farm(&[], 5, Transmission::Nfs, &cfg());
        assert_eq!(out.makespan, 0.0);
    }

    #[test]
    fn transport_params_zero_keeps_the_flat_model_bit_identical() {
        let jobs = cheap_jobs(300, 1e-3);
        for strategy in Transmission::ALL {
            let base = run_farm(&jobs, 4, strategy, &cfg());
            let mut explicit = cfg();
            explicit.transport = crate::params::TransportParams::default();
            let with_zero = run_farm(&jobs, 4, strategy, &explicit);
            assert_eq!(base, with_zero, "{strategy}");
            let mut channel = cfg();
            channel.transport = crate::params::TransportParams::channel();
            let with_channel = run_farm(&jobs, 4, strategy, &channel);
            assert!(with_channel.makespan > base.makespan, "{strategy}");
        }
    }

    #[test]
    fn invalid_specs_are_typed_errors_not_panics() {
        let jobs = cheap_jobs(4, 1e-3);
        let config = cfg();
        let plan = Arc::new(FaultPlan::new(0).kill_rank_at_op(1, 1));
        let base = |sched| spec(&jobs, Transmission::SerializedLoad, &config, sched);
        let cases = [
            (
                SimSpec {
                    plan: Some(plan),
                    ..base(farm(4, 2))
                },
                SimError::FaultsNeedSupervision,
            ),
            (base(farm(4, 0)), SimError::Sched(SchedError::NoSlaves)),
            (base(farm(5, 2)), SimError::JobCount { sched: 5, jobs: 4 }),
        ];
        for (spec, want) in cases {
            let got = simulate(&spec, &mut SimCaches::new());
            assert_eq!(got, Err(want), "{:?}", spec.sched);
        }
    }
}
