//! The Robin-Hood replay: Fig. 4's protocol over the `params`
//! performance model. The simulator holds **no master of its own**: a
//! flat run is `farm::driver::drive`, the loop every live master runs,
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
use std::collections::{HashSet, VecDeque};
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
    /// Jobs completed per slave (a sharded run lists shard 0's slaves
    /// first, then shard 1's, and so on).
    pub per_slave: Vec<usize>,
    /// Fraction of the run the master spent busy (the §4.2/§5 bottleneck
    /// diagnostic); a sharded run's is the mean over its masters.
    master_utilisation: f64,
    /// The decision trace, when the flat config set `record_trace`.
    pub trace: Option<Trace>,
    /// Steal rounds a sharded run performed.
    steals: usize,
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
    /// (rank 0 the master, slave *s* rank `s + 1`). Flat runs only.
    pub recorder: Option<&'a Recorder>,
    /// Faults to inject, the value `farm::FarmConfig::fault_plan` takes,
    /// by the same op rule (`docs/FAULTS.md`). Supervised flat runs only.
    pub plan: Option<Arc<FaultPlan>>,
    /// Who dispatches the jobs.
    pub topology: Topology,
}

/// The masters of a simulated run and how they dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// One master under the scheduler config the live front-end being
    /// modelled drives: [`SchedConfig::farm`], as `farm::run` builds it,
    /// or [`SchedConfig::plain`], Fig. 4's per-job protocol the paper's
    /// tables time. Its `jobs` must be the spec's job count.
    Flat(SchedConfig),
    /// Peer masters, each over a contiguous pool and a private farm: the
    /// paper's §5 outlook, simulated only. The earliest-free master (lowest index on
    /// ties) leases its next round from its pool's front or, once dry,
    /// the richest peer's back; each round is a [`SchedConfig::plain`]
    /// flat run on that master's clock, through the one `caches`.
    Sharded {
        /// Number of peer masters.
        shards: usize,
        /// Compute slaves per shard.
        slaves_per_shard: usize,
        /// Jobs a master leases per round; `0` leases the whole pool at
        /// once (which also leaves nothing to steal).
        lease: usize,
        /// Steal from the richest peer pool when the own pool drains.
        steal: bool,
    },
}

/// Why [`simulate`] refused a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The scheduler refused the flat config (zero slaves per shard is
    /// [`SchedError::NoSlaves`] too).
    Sched(SchedError),
    /// A fault plan needs a supervised flat master, as on a live farm: a
    /// plain one would wait forever for a lost answer.
    FaultsNeedSupervision,
    /// A fault killed the master, ending its run: the driver's error.
    Aborted(String),
    /// A sharded topology with no shards.
    NoShards,
    /// A recorder on a sharded run, whose rounds have no one timeline.
    ShardedRecorder,
    /// A flat config sized for another number of jobs than the spec's.
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
            SimError::FaultsNeedSupervision => f.write_str("faults need a supervised flat run"),
            SimError::NoShards => f.write_str("a sharded run needs at least one shard"),
            SimError::ShardedRecorder => f.write_str("a sharded run cannot be recorded"),
            SimError::Aborted(why) => write!(f, "a fault ended the run: {why}"),
            SimError::JobCount { sched, jobs } => {
                write!(f, "scheduler config for {sched} jobs, spec holds {jobs}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Replay `spec` against the performance model. `caches` persist across
/// calls: pass the same value again to model a warm re-run, a fresh one
/// for a cold run.
pub fn simulate(spec: &SimSpec, caches: &mut SimCaches) -> Result<SimOutcome, SimError> {
    match &spec.topology {
        Topology::Flat(sched) => flat(spec, sched, caches),
        &Topology::Sharded {
            shards,
            slaves_per_shard,
            lease,
            steal,
        } => sharded(spec, shards, slaves_per_shard, lease, steal, caches),
    }
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
    let sched = SchedConfig::farm(jobs.len(), slaves, DispatchPolicy::Fifo, None, None);
    let spec = SimSpec {
        jobs,
        strategy,
        cfg,
        recorder,
        plan: None,
        topology: Topology::Flat(sched),
    };
    let mut caches = SimCaches {
        nfs: std::mem::take(cache),
        ..SimCaches::new()
    };
    let out = simulate(&spec, &mut caches).expect("needs at least one slave");
    *cache = caches.nfs;
    out
}

/// One master — `farm::driver::drive`, the live farm's own loop — on
/// rank 0 of a virtual-time [`World`] that models everything else. A
/// [`sched::Batch::Guided`] run speaks the job-frame protocol; a
/// [`sched::Batch::One`] run speaks Fig. 4's per-job one (name message,
/// packed payload, answer), as the paper's tables and
/// `scripts/fig4_farm.nsp` do. With `SimConfig::store`'s client cache
/// on, every fetch goes through `caches` (a simulated ablation: the live
/// farm has none); supervision polls at [`SupervisorConfig::default`]'s
/// interval, in virtual time.
fn flat(
    spec: &SimSpec,
    sched: &SchedConfig,
    caches: &mut SimCaches,
) -> Result<SimOutcome, SimError> {
    let jobs = spec.jobs.len();
    if sched.jobs != jobs {
        return Err(SimError::JobCount {
            sched: sched.jobs,
            jobs,
        });
    }
    if spec.plan.is_some() && sched.supervision.is_none() {
        return Err(SimError::FaultsNeedSupervision);
    }
    let world = Arc::new(World::new(spec, sched, std::mem::take(caches)));
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
        steals: 0,
    })
}

/// Peer masters over contiguous pools (remainder spread over the first
/// shards), each advancing on its own clock; see [`Topology::Sharded`].
fn sharded(
    spec: &SimSpec,
    shards: usize,
    slaves_per_shard: usize,
    lease: usize,
    steal: bool,
    caches: &mut SimCaches,
) -> Result<SimOutcome, SimError> {
    if shards == 0 {
        return Err(SimError::NoShards);
    }
    if slaves_per_shard == 0 {
        return Err(SchedError::NoSlaves.into());
    }
    if spec.recorder.is_some() {
        return Err(SimError::ShardedRecorder);
    }
    if spec.plan.is_some() {
        return Err(SimError::FaultsNeedSupervision);
    }
    let jobs = spec.jobs;
    let (base, rem) = (jobs.len() / shards, jobs.len() % shards);
    let start = |s: usize| s * base + s.min(rem);
    let mut pools: Vec<VecDeque<usize>> = (0..shards)
        .map(|s| (start(s)..start(s + 1)).collect())
        .collect();

    let mut t = vec![0.0f64; shards];
    let mut busy = 0.0;
    let mut out = SimOutcome {
        makespan: 0.0,
        per_slave: vec![0; shards * slaves_per_shard],
        master_utilisation: 0.0,
        trace: None,
        steals: 0,
    };
    let want = |pool_len: usize| if lease == 0 { pool_len } else { lease };
    loop {
        // The earliest-free master that can still obtain work leases the
        // next round (lowest index on clock ties).
        let next = (0..shards)
            .filter(|&s| !pools[s].is_empty() || (steal && pools.iter().any(|p| !p.is_empty())))
            .min_by(|&a, &b| t[a].total_cmp(&t[b]).then(a.cmp(&b)));
        let Some(s) = next else { break };
        let round: Vec<SimJob> = if !pools[s].is_empty() {
            let n = want(pools[s].len()).min(pools[s].len());
            pools[s].drain(..n).map(|i| jobs[i]).collect()
        } else {
            let victim = (0..shards)
                .filter(|&p| p != s && !pools[p].is_empty())
                .max_by(|&a, &b| pools[a].len().cmp(&pools[b].len()).then(b.cmp(&a)))
                .expect("steal filter guarantees a victim");
            let n = want(pools[victim].len()).min(pools[victim].len());
            let at = pools[victim].len() - n;
            out.steals += 1;
            pools[victim].drain(at..).map(|i| jobs[i]).collect()
        };
        // A shard's lease round is a per-job farm.
        let topology = Topology::Flat(SchedConfig::plain(round.len(), slaves_per_shard));
        let run = simulate(
            &SimSpec {
                jobs: &round,
                topology,
                plan: None,
                ..*spec
            },
            caches,
        )?;
        t[s] += run.makespan;
        busy += run.master_utilisation * run.makespan;
        let first = s * slaves_per_shard;
        for (i, k) in run.per_slave.into_iter().enumerate() {
            out.per_slave[first + i] += k;
        }
        out.makespan = out.makespan.max(t[s]);
    }
    if out.makespan > 0.0 {
        out.master_utilisation = busy / (shards as f64 * out.makespan);
    }
    Ok(out)
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

    /// The flat farm `farm::run` drives: FIFO guided frames.
    fn farm(jobs: usize, slaves: usize) -> Topology {
        Topology::Flat(SchedConfig::farm(
            jobs,
            slaves,
            DispatchPolicy::Fifo,
            None,
            None,
        ))
    }

    fn spec<'a>(
        jobs: &'a [SimJob],
        strategy: Transmission,
        cfg: &'a SimConfig,
        topology: Topology,
    ) -> SimSpec<'a> {
        SimSpec {
            jobs,
            strategy,
            cfg,
            recorder: None,
            plan: None,
            topology,
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

    /// A serialized-load sharded run from cold caches.
    fn sharded_run(jobs: &[SimJob], topology: Topology, cfg: &SimConfig) -> SimOutcome {
        let spec = spec(jobs, Transmission::SerializedLoad, cfg, topology);
        simulate(&spec, &mut SimCaches::new()).unwrap()
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
                Topology::Flat(sched.record_trace()),
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
                Topology::Flat(sched.record_trace()),
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

    /// A supervised flat farm of `jobs` under `plan`, traced.
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
                Topology::Flat(sched.record_trace()),
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
            Topology::Flat(sched.record_trace()),
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

    // -- sharded peer masters ------------------------------------------------

    fn shards(shards: usize, slaves_per_shard: usize, lease: usize, steal: bool) -> Topology {
        Topology::Sharded {
            shards,
            slaves_per_shard,
            lease,
            steal,
        }
    }

    #[test]
    fn one_shard_whole_lease_is_bit_identical_to_the_plain_farm() {
        let jobs = cheap_jobs(200, 2e-3);
        // Plain as in `SchedConfig::plain`: the flat farm dispatches
        // frames, a shard's lease round does not.
        let plain = Topology::Flat(SchedConfig::plain(jobs.len(), 4));
        let plain = sharded_run(&jobs, plain, &cfg());
        let sharded = sharded_run(&jobs, shards(1, 4, 0, false), &cfg());
        assert_eq!(sharded.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(sharded.per_slave.iter().sum::<usize>(), 200);
        assert_eq!(sharded.steals, 0);
    }

    #[test]
    fn stealing_rebalances_a_heavy_tailed_split() {
        // All the heavy jobs land in shard 0's contiguous chunk: without
        // stealing shard 1 idles; with stealing it takes over the tail.
        let mut jobs = cheap_jobs(64, 1e-3);
        for j in jobs.iter_mut().take(32) {
            j.compute = 0.25;
        }
        let no_steal = sharded_run(&jobs, shards(2, 2, 4, false), &cfg());
        let steal = sharded_run(&jobs, shards(2, 2, 4, true), &cfg());
        assert_eq!(no_steal.steals, 0);
        assert!(steal.steals > 0, "heavy tail must trigger steals");
        assert!(
            steal.makespan < no_steal.makespan,
            "stealing must shorten the run: {} !< {}",
            steal.makespan,
            no_steal.makespan
        );
        assert_eq!(steal.per_slave.iter().sum::<usize>(), 64);
    }

    #[test]
    fn more_shards_never_slow_the_sharded_model() {
        let mut jobs = cheap_jobs(256, 5e-3);
        for (i, j) in jobs.iter_mut().enumerate() {
            if i % 7 == 0 {
                j.compute = 0.1;
            }
        }
        let mut prev = f64::INFINITY;
        for n in [1usize, 2, 4, 8] {
            let out = sharded_run(&jobs, shards(n, 4, 8, true), &cfg());
            assert!(
                out.makespan <= prev,
                "{n} shards slower: {} > {prev}",
                out.makespan
            );
            prev = out.makespan;
        }
    }

    #[test]
    fn sharded_512_core_run_completes_and_transport_cost_shows() {
        // The paper's 512-core scale as 64 peer masters × 8 slaves.
        let jobs = cheap_jobs(4096, 10e-3);
        let free = sharded_run(&jobs, shards(64, 8, 16, true), &cfg());
        assert_eq!(free.per_slave.iter().sum::<usize>(), 4096);
        let mut socket = cfg();
        socket.transport = crate::params::TransportParams::socket();
        let priced = sharded_run(&jobs, shards(64, 8, 16, true), &socket);
        assert!(
            priced.makespan > free.makespan,
            "socket transport overhead must surface: {} !> {}",
            priced.makespan,
            free.makespan
        );
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
        let rec = Recorder::new(3);
        let plan = Arc::new(FaultPlan::new(0).kill_rank_at_op(1, 1));
        let base = |topology| spec(&jobs, Transmission::SerializedLoad, &config, topology);
        let cases = [
            (
                SimSpec {
                    plan: Some(plan.clone()),
                    ..base(farm(4, 2))
                },
                SimError::FaultsNeedSupervision,
            ),
            (
                SimSpec {
                    plan: Some(plan.clone()),
                    ..base(shards(2, 2, 0, false))
                },
                SimError::FaultsNeedSupervision,
            ),
            (base(shards(0, 2, 0, false)), SimError::NoShards),
            (
                base(shards(2, 0, 0, false)),
                SimError::Sched(SchedError::NoSlaves),
            ),
            (base(farm(4, 0)), SimError::Sched(SchedError::NoSlaves)),
            (
                SimSpec {
                    recorder: Some(&rec),
                    ..base(shards(2, 2, 0, false))
                },
                SimError::ShardedRecorder,
            ),
            (base(farm(5, 2)), SimError::JobCount { sched: 5, jobs: 4 }),
        ];
        for (spec, want) in cases {
            let got = simulate(&spec, &mut SimCaches::new());
            assert_eq!(got, Err(want), "{:?}", spec.topology);
        }
    }
}
