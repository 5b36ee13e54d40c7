//! The Robin-Hood replay: event-driven simulation of Fig. 4's protocol
//! over the [`crate::params`] performance model.
//!
//! The simulator holds **no scheduling logic of its own**: every
//! dispatch decision comes from the same pure [`sched::Scheduler`] state
//! machine the live `minimpi` masters drive. The simulator's job is the
//! *performance model* — what each decision costs in master CPU, NIC
//! occupancy, NFS queueing and slave compute — plus the event heap that
//! turns those costs back into the scheduler's event stream. A live run
//! and a simulated run of the same workload therefore render
//! byte-identical decision [`Trace`]s (`tests/sched_parity.rs`).

use crate::params::SimConfig;
use crate::resource::Resource;
use farm::strategy::Transmission;
use farm::JobClass;
use obs::{Event, EventKind, Recorder, NO_JOB};
use sched::{
    Action, Batch, DispatchPolicy, Event as SchedEvent, SchedConfig, SchedError, Scheduler,
    Supervision, Trace,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

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
    /// Construct with validation; panics on invalid parameters.
    pub fn new() -> Self {
        NfsCache::default()
    }

    /// Record an access; returns true if it was already cached.
    fn access(&mut self, file: usize) -> bool {
        !self.blocks.insert(file)
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The client-side problem cache (the `store` crate's [`CachingStore`]
/// as the simulator models it): a set of problem files already resident
/// on the farm side. Unlike [`NfsCache`] — which lives on the *server*
/// and only accelerates the NFS strategy's reads — this one sits in
/// front of every fetch the farm makes, whichever strategy runs.
///
/// [`CachingStore`]: https://docs.rs/store
#[derive(Debug, Default, Clone)]
pub struct ClientCache {
    files: HashSet<usize>,
}

impl ClientCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        ClientCache::default()
    }

    /// Record an access; returns true if it was already cached.
    fn access(&mut self, file: usize) -> bool {
        !self.files.insert(file)
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// Both caches a simulated run can carry across calls: the NFS server's
/// block cache and the farm's client-side problem cache. Pass the same
/// value again to model a warm re-run; pass a fresh one for cold.
#[derive(Debug, Default, Clone)]
pub struct SimCaches {
    /// NFS server block cache (server side).
    pub nfs: NfsCache,
    /// Problem-store cache (client side).
    pub client: ClientCache,
}

impl SimCaches {
    /// Fresh cold caches.
    pub fn new() -> Self {
        SimCaches::default()
    }
}

/// Simulation result for one farm run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Wall-clock makespan in (simulated) seconds.
    pub makespan: f64,
    /// Jobs completed per slave.
    pub per_slave: Vec<usize>,
    /// Fraction of the run the master spent busy (the §4.2/§5 bottleneck
    /// diagnostic).
    pub master_utilisation: f64,
}

/// A scripted slave death for [`simulate_farm_sched`]: the simulated
/// counterpart of `minimpi`'s `FaultPlan::kill_rank_at_op`. The slave
/// computes its fatal job in full but dies *sending the result* — the
/// answer never reaches the master, whose liveness sweep notices the
/// death `detect_delay_s` simulated seconds later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFault {
    /// Slave index, `0..slaves` (MPI rank `slave + 1`).
    pub slave: usize,
    /// Dies answering the `fatal_dispatch`-th dispatch it receives
    /// (0-based count of dispatches to this slave).
    pub fatal_dispatch: usize,
    /// Simulated master-side detection latency after the fatal send
    /// began (the live analogue is one supervisor poll interval).
    pub detect_delay_s: f64,
}

/// Scheduling options for [`simulate_farm_sched`]: which
/// [`DispatchPolicy`] orders the queue, whether the supervised master
/// (deadlines, retries, burial) runs, whether the decision [`Trace`] is
/// recorded, and any scripted [`SimFault`]s. The default — FIFO,
/// unsupervised, untraced, fault-free — is the plain `farm::run` master
/// (job frames) that [`simulate_farm_cached`] and friends replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSchedOpts {
    /// Dispatch order for queued jobs.
    pub policy: DispatchPolicy,
    /// `Some` runs the supervised master; required for `faults`.
    pub supervision: Option<Supervision>,
    /// Record the scheduler's timestamp-free decision trace.
    pub record_trace: bool,
    /// Scripted slave deaths (at most one can fire per slave).
    pub faults: Vec<SimFault>,
    /// `Some(r)` declares staged rounds (`r[job]` = round index): no
    /// job of round `k + 1` is dispatched before round `k` drains — the
    /// Picard-iteration shape of the BSDE workloads. `None` is the flat
    /// historical machine.
    pub rounds: Option<Vec<usize>>,
}

impl Default for SimSchedOpts {
    fn default() -> Self {
        SimSchedOpts {
            policy: DispatchPolicy::Fifo,
            supervision: None,
            record_trace: false,
            faults: Vec::new(),
            rounds: None,
        }
    }
}

/// Total f64 ordering wrapper for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Replay one Robin-Hood farm run.
///
/// `slaves` is the number of worker ranks (the paper's tables count
/// `slaves + 1` CPUs). The NFS cache persists across calls when the same
/// `cache` is passed again — pass a fresh one for a cold run.
pub fn simulate_farm(
    jobs: &[SimJob],
    slaves: usize,
    strategy: Transmission,
    cfg: &SimConfig,
    cache: &mut NfsCache,
) -> SimOutcome {
    simulate_farm_recorded(jobs, slaves, strategy, cfg, cache, None)
}

/// [`simulate_farm`] with phase-level observability: every simulated
/// phase lands in `recorder` as the *same* [`obs::EventKind`] stream the
/// live instrumented farm produces (master prep as `Serialize`/`Sload`,
/// NIC occupancy as `Send`, slave-side `Probe`/`Recv`/`Unpack` or
/// `NfsRead`, then `Compute` and the reply), with simulated seconds
/// mapped to nanosecond timestamps. This makes simulated and live runs
/// diffable per phase through one [`obs::Breakdown`] aggregator.
///
/// Rank convention matches the live farm: rank 0 is the master, slave
/// *s* is rank `s + 1` — size the recorder with at least `slaves + 1`
/// ranks.
pub fn simulate_farm_recorded(
    jobs: &[SimJob],
    slaves: usize,
    strategy: Transmission,
    cfg: &SimConfig,
    cache: &mut NfsCache,
    recorder: Option<&Recorder>,
) -> SimOutcome {
    let mut caches = SimCaches {
        nfs: std::mem::take(cache),
        client: ClientCache::new(),
    };
    let out = simulate_farm_cached(jobs, slaves, strategy, cfg, &mut caches, recorder);
    *cache = caches.nfs;
    out
}

/// [`simulate_farm_recorded`] with the full cache state: the NFS server
/// block cache *and* the client-side problem cache persist across calls
/// through `caches`, so warm-store re-runs (`SimConfig::store` with
/// `client_cache` on) and compressed-wire runs can be replayed at
/// cluster scale. With the default [`crate::params::StoreParams`] (both
/// knobs off) this is bit-identical to [`simulate_farm_recorded`].
///
/// When `client_cache` is on, every fetch additionally lands in the
/// recorder as a zero-duration `CacheHit`/`CacheMiss` mark on the rank
/// that fetched (master for loaded strategies, the slave for NFS) —
/// the same schema the live farm emits through a `CachingStore`.
pub fn simulate_farm_cached(
    jobs: &[SimJob],
    slaves: usize,
    strategy: Transmission,
    cfg: &SimConfig,
    caches: &mut SimCaches,
    recorder: Option<&Recorder>,
) -> SimOutcome {
    let (out, _) = simulate_farm_sched(
        jobs,
        slaves,
        strategy,
        cfg,
        caches,
        recorder,
        &SimSchedOpts::default(),
    )
    .expect("the default scheduling options are always valid");
    out
}

/// [`simulate_farm_cached`] with the scheduler exposed: the same
/// performance model, but the dispatch decisions — order, supervision,
/// scripted slave deaths — come from [`SimSchedOpts`], and the
/// scheduler's timestamp-free decision [`Trace`] is returned alongside
/// the outcome when `opts.record_trace` is set. With the default
/// options this is bit-identical to [`simulate_farm_cached`].
///
/// The scheduler config is built through [`SchedConfig::farm`], the
/// constructor `farm::run` uses: a FIFO, unsupervised, unstaged run
/// dispatches guided frames here exactly when it does live.
pub fn simulate_farm_sched(
    jobs: &[SimJob],
    slaves: usize,
    strategy: Transmission,
    cfg: &SimConfig,
    caches: &mut SimCaches,
    recorder: Option<&Recorder>,
    opts: &SimSchedOpts,
) -> Result<(SimOutcome, Option<Trace>), SchedError> {
    assert!(slaves >= 1, "need at least one slave");
    let sched = SchedConfig {
        record_trace: opts.record_trace,
        ..SchedConfig::farm(
            jobs.len(),
            slaves,
            opts.policy.clone(),
            opts.supervision,
            opts.rounds.clone(),
        )
    };
    simulate_farm_config(jobs, strategy, cfg, caches, recorder, sched, &opts.faults)
}

/// The replay itself, under whatever scheduler config the front-end
/// being simulated drives live: [`simulate_farm_sched`] hands it the
/// flat farm's, [`simulate_sharded`] and the paper's table generators a
/// [`SchedConfig::plain`] one, and a caller comparing protocols whichever
/// it wants to hold fixed. `faults` script slave deaths (supervised
/// configs only).
///
/// A [`Batch::Guided`] run speaks the job-frame protocol, a
/// `Dispatch { batch: n }` costing what the live frame does: n prepares
/// on the master, one message of the summed bytes, n × (unpack +
/// compute) on the slave, one reply. Per-member phases are recorded
/// under the member's job, the frame's send under its first job and the
/// slave's receive and reply under no job — as the live ranks record
/// them. A [`Batch::One`] run speaks Fig. 4's per-job protocol (name
/// message, packed payload, answer) as the paper's tables and
/// `scripts/fig4_farm.nsp` speak it — not what a live farm sends, which
/// is a frame of one job.
pub fn simulate_farm_config(
    jobs: &[SimJob],
    strategy: Transmission,
    cfg: &SimConfig,
    caches: &mut SimCaches,
    recorder: Option<&Recorder>,
    sched: SchedConfig,
    faults: &[SimFault],
) -> Result<(SimOutcome, Option<Trace>), SchedError> {
    let slaves = sched.slaves;
    let framed = sched.batch == Batch::Guided;
    let supervised = sched.supervision.is_some();
    assert!(
        faults.is_empty() || supervised,
        "scripted slave deaths require supervision (the plain master would hang)"
    );
    // Simulated-seconds → event-record adapter. All events funnel through
    // here so disabling the recorder costs exactly one branch.
    let emit = |kind: EventKind, rank: usize, job: i64, start_s: f64, dur_s: f64, bytes: usize| {
        if let Some(rec) = recorder {
            rec.record(Event {
                kind,
                rank: rank as u16,
                job,
                start_ns: (start_s * 1e9) as u64,
                dur_ns: (dur_s * 1e9) as u64,
                bytes: bytes as u64,
            });
        }
    };
    /// Everything a dispatch or an arrival moves.
    struct State {
        master: Resource,
        nfs: Resource,
        slaves: Vec<Resource>,
        /// (time, slave, what, job) min-heap. The slave index is the
        /// tie-breaker for simultaneous arrivals, exactly as in the
        /// pre-scheduler replay loop.
        heap: BinaryHeap<Reverse<(Time, usize, u8, usize)>>,
        per_slave: Vec<usize>,
        /// Per slave: dispatches so far (for matching scripted faults)
        /// and the jobs of the latest one (what its answer covers).
        sent: Vec<(usize, std::ops::Range<usize>)>,
    }
    // What a heap entry is: a reply landing at the master, a scripted
    // death being noticed, or a slave turning to member `job` of the
    // NFS frame it holds.
    const ANSWER: u8 = 0;
    const DEAD: u8 = 1;
    const MEMBER: u8 = 2;
    let mut st = State {
        master: Resource::new(),
        nfs: Resource::new(),
        slaves: (0..slaves).map(|_| Resource::new()).collect(),
        heap: BinaryHeap::new(),
        per_slave: vec![0; slaves],
        sent: vec![(0, 0..0); slaves],
    };

    let base_prep = match strategy {
        Transmission::FullLoad => cfg.master.full_load_prep,
        Transmission::SerializedLoad => cfg.master.sload_prep,
        Transmission::Nfs => cfg.master.nfs_prep,
    };
    let loaded = strategy != Transmission::Nfs;
    // What a message carries around its members' bodies (a loaded
    // member's body is its file bytes, an NFS member's a tiny name).
    let envelope = if loaded { 96 } else { 0 };
    const NAME_BYTES: usize = 64;
    // A result message is a small fixed-size record; a frame's reply
    // adds a row of columns (id, price, error, mask) per further member.
    const RESULT_BYTES: usize = 96;
    let reply_bytes = |members: usize| RESULT_BYTES + 25 * (members - 1);
    let store = cfg.store;
    // Wire compression (loaded strategies, payload over threshold): the
    // payload shrinks by `compress_ratio`, the master pays per-byte
    // compression CPU, the slave pays decompression. Returns the bytes
    // the member adds to its message and the two CPU costs.
    let member_wire = |job: &SimJob| -> (usize, f64, f64) {
        if !loaded {
            (NAME_BYTES, 0.0, 0.0)
        } else if store.compress && job.bytes >= store.compress_threshold {
            let compressed = (job.bytes as f64 * store.compress_ratio).ceil() as usize;
            (
                compressed.min(job.bytes),
                store.compress_cpu * job.bytes as f64,
                store.decompress_cpu * job.bytes as f64,
            )
        } else {
            (job.bytes, 0.0, 0.0)
        }
    };

    // Master side of a dispatch: prepare every member, then send them to
    // slave `s` as one message, starting from master-ready time. Returns
    // when the message has left and its size.
    let send = |members: &[SimJob],
                ready: f64,
                st: &mut State,
                caches: &mut SimCaches|
     -> (f64, usize) {
        let name_prep = cfg.master.nfs_prep.min(base_prep);
        // The strategy-specific fetch+materialise span beyond the tiny
        // name-message build.
        let uncached_span = base_prep - name_prep;
        let mut plan = Vec::with_capacity(members.len());
        let (mut busy, mut wire) = (0.0, envelope);
        for job in members {
            // Client cache (loaded strategies, master side): a warm hit
            // shrinks the *fetch* part of the span to `hit_fetch`; full
            // load's materialisation (unserialize + rebuild + reserialize)
            // is CPU work the cache cannot skip and is paid either way.
            let (fetch_span, master_hit) = if store.client_cache && loaded {
                let hit = caches.client.access(job.id);
                let materialise = match strategy {
                    Transmission::FullLoad => {
                        (cfg.master.full_load_prep - cfg.master.sload_prep).max(0.0)
                    }
                    _ => 0.0,
                };
                let fetch = if hit {
                    store.hit_fetch
                } else {
                    (uncached_span - materialise).max(0.0)
                };
                (materialise + fetch, Some(hit))
            } else {
                (uncached_span, None)
            };
            let (body, compress_cpu, _) = member_wire(job);
            busy += name_prep + fetch_span + compress_cpu;
            wire += body;
            plan.push((fetch_span, master_hit, compress_cpu, body));
        }
        let transfer = cfg.network.transfer_time(wire) + cfg.transport.cost(wire);
        // Master: prep (+ compression) + NIC occupancy (serialised on
        // the master).
        let send_done = st.master.acquire(ready, busy + transfer);
        // Master-side phases, mirroring the live farm's event stream:
        // per member the strategy prep (Serialize / Sload) — plus, per
        // job, the tiny name-message Serialize a frame does not have —
        // and Pack (free: the payload is already serial bytes); then the
        // NIC occupancy as Send, under the message's first job.
        let mut t = send_done - busy - transfer;
        for (job, (fetch_span, master_hit, compress_cpu, body)) in members.iter().zip(plan) {
            let jid = job.id as i64;
            let span = if framed {
                fetch_span + name_prep
            } else {
                fetch_span
            };
            match strategy {
                Transmission::FullLoad => emit(EventKind::Serialize, 0, jid, t, span, job.bytes),
                Transmission::SerializedLoad => emit(EventKind::Sload, 0, jid, t, span, job.bytes),
                Transmission::Nfs => {}
            }
            t += fetch_span;
            if let Some(hit) = master_hit {
                let kind = if hit {
                    EventKind::CacheHit
                } else {
                    EventKind::CacheMiss
                };
                emit(kind, 0, jid, t, 0.0, job.bytes);
            }
            if !framed {
                emit(EventKind::Serialize, 0, jid, t, name_prep, NAME_BYTES);
            }
            t += name_prep;
            if compress_cpu > 0.0 {
                emit(
                    EventKind::Compress,
                    0,
                    jid,
                    t,
                    compress_cpu,
                    job.bytes - body,
                );
                t += compress_cpu;
            }
            if loaded {
                emit(EventKind::Pack, 0, jid, t, 0.0, job.bytes);
            }
        }
        emit(EventKind::Send, 0, members[0].id as i64, t, transfer, wire);
        (send_done, wire)
    };

    // Slave `s`, free at `t`, recovers and prices one member of the
    // message it holds; `tail` is slave time spent straight after the
    // compute (the reply's preparation, behind the last member). Returns
    // when the slave is free again.
    let price = |job: &SimJob,
                 s: usize,
                 mut t: f64,
                 tail: f64,
                 st: &mut State,
                 caches: &mut SimCaches|
     -> f64 {
        let (srank, jid) = (s + 1, job.id as i64);
        if !loaded {
            if store.client_cache && caches.client.access(job.id) {
                // Warm client cache: the slave's fetch never leaves the
                // node — no NFS server trip, no FIFO queueing.
                emit(
                    EventKind::NfsRead,
                    srank,
                    jid,
                    t,
                    store.hit_fetch,
                    job.bytes,
                );
                t += store.hit_fetch;
                emit(EventKind::CacheHit, srank, jid, t, 0.0, job.bytes);
            } else {
                // Slave reads the file from the NFS server (FIFO + cache).
                let service = if caches.nfs.access(job.id) {
                    cfg.nfs.warm_read
                } else {
                    cfg.nfs.cold_read
                };
                t = st.nfs.acquire(t, service);
                emit(
                    EventKind::NfsRead,
                    srank,
                    jid,
                    t - service,
                    service,
                    job.bytes,
                );
                if store.client_cache {
                    emit(EventKind::CacheMiss, srank, jid, t, 0.0, job.bytes);
                }
            }
        } else {
            let (_, _, decompress_cpu) = member_wire(job);
            if decompress_cpu > 0.0 {
                emit(
                    EventKind::Decompress,
                    srank,
                    jid,
                    t,
                    decompress_cpu,
                    job.bytes,
                );
                t += decompress_cpu;
            }
            emit(
                EventKind::Unpack,
                srank,
                jid,
                t,
                cfg.slave.unpack,
                job.bytes,
            );
            t += cfg.slave.unpack;
        }
        // Compute. With `cfg.exec.threads >= 2` the drawn compute cost
        // shrinks by the intra-slave executor's Amdahl speedup. A
        // `SimJob` carries a pre-drawn duration, not a pricing method, so
        // the model applies uniformly — the *live* farm only routes the
        // path-chunked Monte-Carlo/LSM kernels through the executor
        // (`JobClass::chunked_kernel`), which is exactly the compute the
        // simulator's per-class costs stand in for.
        let (compute_wall, chunk_cpu) = cfg
            .exec
            .apply_classed(job.class.chunked_kernel(), job.compute);
        let free = st.slaves[s].acquire(t, compute_wall + tail);
        let compute_start = free - compute_wall - tail;
        emit(
            EventKind::Compute,
            srank,
            jid,
            compute_start,
            compute_wall,
            0,
        );
        if chunk_cpu > 0.0 {
            // Mirror the live farm's post-join diagnostics: one
            // `ComputeChunk` span per worker thread covering its share of
            // the parallel worker-CPU seconds. Like the live stream these
            // overlap the `Compute` wall span and are excluded from
            // `Breakdown::total_s` (see `EventKind::DIAGNOSTIC`).
            let per_thread = chunk_cpu / cfg.exec.threads.max(1) as f64;
            for _ in 0..cfg.exec.threads.max(1) {
                emit(
                    EventKind::ComputeChunk,
                    srank,
                    jid,
                    compute_start,
                    per_thread,
                    0,
                );
            }
        }
        if cfg.exec.lanes > 1 {
            // Mirror the live executor's lane self-check mark: one
            // zero-duration `LaneBatch` per compute, bytes = lane width.
            emit(
                EventKind::LaneBatch,
                srank,
                jid,
                compute_start,
                0.0,
                cfg.exec.lanes,
            );
        }
        free
    };

    // Slave `s` has priced all of `members` — its reply prepared by
    // `done` — and answers: the reply lands at the master, or the slave
    // dies sending it if a scripted fault says so.
    let answer = |members: std::ops::Range<usize>, s: usize, done: f64, st: &mut State| {
        let n = members.len();
        // A per-job reply is its job's; a frame's is no one job's.
        let jid = if framed {
            NO_JOB
        } else {
            jobs[members.start].id as i64
        };
        let prep = cfg.slave.result_prep;
        emit(
            EventKind::Serialize,
            s + 1,
            jid,
            done - prep,
            prep,
            reply_bytes(n),
        );
        // Transport-backend overhead on top of the raw network time; zero
        // with the default [`crate::params::TransportParams`], keeping
        // the baseline model bit-identical.
        let wire = cfg.network.transfer_time(reply_bytes(n)) + cfg.transport.cost(reply_bytes(n));
        emit(EventKind::Send, s + 1, jid, done, wire, reply_bytes(n));
        let nth = st.sent[s].0 - 1;
        let entry = match faults
            .iter()
            .find(|f| f.slave == s && f.fatal_dispatch == nth)
        {
            // The slave dies *sending* this result: the answer never
            // arrives, and the master's liveness sweep notices
            // `detect_delay_s` after the fatal send began.
            Some(f) => (Time(done + f.detect_delay_s), s, DEAD, members.start),
            None => (Time(done + wire), s, ANSWER, members.start),
        };
        st.heap.push(Reverse(entry));
    };

    // The scheduler: the same pure state machine the live masters drive.
    let mut sched = Scheduler::new(sched)?;
    let ns = |t: f64| -> u64 { (t * 1e9) as u64 };

    // Execute one action batch: dispatches run the performance model and
    // push what follows onto the heap; supervision actions mirror the
    // live driver's master-side marks.
    let run_actions = |actions: Vec<Action>, now: f64, st: &mut State, caches: &mut SimCaches| {
        for a in actions {
            match a {
                Action::Dispatch { job, slave, batch } => {
                    let s = slave - 1;
                    let members = job..job + batch;
                    st.sent[s] = (st.sent[s].0 + 1, members.clone());
                    let (sent, wire) = send(&jobs[members.clone()], now, st, caches);
                    let mut t = st.slaves[s].acquire(sent, 0.0);
                    if framed {
                        emit(EventKind::Recv, slave, NO_JOB, t, 0.0, wire);
                    } else if loaded {
                        let jid = jobs[job].id as i64;
                        emit(EventKind::Probe, slave, jid, t, 0.0, wire);
                        emit(EventKind::Recv, slave, jid, t, 0.0, wire);
                    }
                    if framed && !loaded {
                        // The members' reads queue at a server other
                        // slaves are reading from meanwhile: each is an
                        // event of its own, taken in time order.
                        st.heap.push(Reverse((Time(t), s, MEMBER, job)));
                        continue;
                    }
                    for m in members.clone() {
                        let tail = if m + 1 == members.end {
                            cfg.slave.result_prep
                        } else {
                            0.0
                        };
                        t = price(&jobs[m], s, t, tail, st, caches);
                    }
                    answer(members, s, t, st);
                }
                // Stop sentinels and terminal markers are free in the
                // performance model.
                Action::Stop { .. } | Action::AllSlavesDead | Action::Finish => {}
                Action::Accept { slave, .. } => {
                    st.per_slave[slave - 1] += st.sent[slave - 1].1.len()
                }
                // The live supervised driver's master-side marks.
                Action::Expire { job, .. } => {
                    emit(EventKind::Deadline, 0, jobs[job].id as i64, now, 0.0, 0)
                }
                Action::Requeue { job } => {
                    emit(EventKind::Retry, 0, jobs[job].id as i64, now, 0.0, 0)
                }
                Action::Bury { slave } => emit(EventKind::SlaveDeath, 0, NO_JOB, now, 0.0, slave),
            }
        }
    };

    // Priming: one SlaveReady per slave, in rank order (Fig. 4).
    for s in 1..=slaves {
        let acts = sched.on(SchedEvent::SlaveReady { slave: s }, 0);
        run_actions(acts, 0.0, &mut st, caches);
    }

    // Drain: pop arrivals and deaths, feed the scheduler, execute its
    // decisions. Under supervision a deadline tick rides on every pop
    // (the live master ticks before every receive); when the heap runs
    // dry with embargoed retries pending, simulated time skips forward
    // in doubling steps until a backoff or deadline fires.
    let mut makespan: f64 = 0.0;
    let mut now: f64 = 0.0;
    let mut idle_step = 1e-3;
    while !sched.is_terminal() {
        let Some(Reverse((Time(t), s, kind, job))) = st.heap.pop() else {
            if !supervised {
                break; // plain runs finish through the answer stream alone
            }
            now += idle_step;
            idle_step *= 2.0;
            let acts = sched.on(SchedEvent::Deadline, ns(now));
            run_actions(acts, now, &mut st, caches);
            continue;
        };
        if kind == MEMBER {
            // Slave-side progress the master does not see.
            let members = st.sent[s].1.clone();
            if job + 1 < members.end {
                let free = price(&jobs[job], s, t, 0.0, &mut st, caches);
                st.heap.push(Reverse((Time(free), s, MEMBER, job + 1)));
            } else {
                let done = price(&jobs[job], s, t, cfg.slave.result_prep, &mut st, caches);
                answer(members, s, done, &mut st);
            }
            continue;
        }
        idle_step = 1e-3;
        now = now.max(t);
        if supervised {
            let acts = sched.on(SchedEvent::Deadline, ns(now));
            run_actions(acts, now, &mut st, caches);
            if sched.is_terminal() {
                break;
            }
        }
        if kind == ANSWER {
            // Master takes the result off the wire. Like the live
            // master's ANY_SOURCE result receive, this is not attributed
            // to a job.
            let handled = st.master.acquire(t, cfg.master.result_handle);
            emit(
                EventKind::Recv,
                0,
                NO_JOB,
                handled - cfg.master.result_handle,
                cfg.master.result_handle,
                reply_bytes(st.sent[s].1.len()),
            );
            makespan = makespan.max(handled);
            now = now.max(handled);
            let acts = sched.on(SchedEvent::Answer { job, slave: s + 1 }, ns(handled));
            run_actions(acts, handled, &mut st, caches);
        } else {
            let acts = sched.on(SchedEvent::SlaveDead { slave: s + 1 }, ns(t));
            run_actions(acts, t, &mut st, caches);
        }
    }

    let util = if makespan > 0.0 {
        st.master.busy_total() / makespan
    } else {
        0.0
    };
    Ok((
        SimOutcome {
            makespan,
            per_slave: st.per_slave,
            master_utilisation: util,
        },
        sched.take_trace(),
    ))
}

// ---------------------------------------------------------------------------
// Sharded peer masters: the simulated counterpart of `farm::shard`
// ---------------------------------------------------------------------------

/// Configuration of a sharded simulated run — the model-side mirror of
/// the live `farm::shard::ShardConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSimConfig {
    /// Number of peer masters, each with a private slave farm.
    pub shards: usize,
    /// Compute slaves per shard.
    pub slaves_per_shard: usize,
    /// Jobs a master leases per round; `0` leases the whole shard at
    /// once (which also leaves nothing to steal).
    pub lease: usize,
    /// Steal from the richest peer pool when the own pool drains.
    pub steal: bool,
}

/// What a sharded simulated run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSimOutcome {
    /// Wall-clock makespan: the last shard to drain, simulated seconds.
    pub makespan: f64,
    /// Jobs computed under each shard's master (stolen ones included).
    pub per_shard_jobs: Vec<usize>,
    /// Per-shard busy time (that shard's last round end).
    pub per_shard_time: Vec<f64>,
    /// Number of steal rounds performed.
    pub steals: usize,
}

/// Replay a sharded peer-master run against the performance model.
///
/// Each shard is an independent simulated farm (its own master, NIC,
/// slaves and caches) advancing on its own virtual clock; the *globally
/// earliest-free* master leases its next round, exactly mirroring the
/// live `farm::shard` round structure: lease from the own pool's front,
/// steal from the richest peer's back once dry. Deterministic — ties
/// break on the lowest shard index — so sweep tables are reproducible.
///
/// With `shards == 1` and `lease == 0` this is one per-job farm run:
/// the outcome is bit-identical to [`simulate_farm_config`] on the same
/// jobs under [`SchedConfig::plain`]. This is how Tables I–III extend to 512-core sharded runs (64
/// peer masters × 8 slaves) without a global master in the model.
pub fn simulate_sharded(
    jobs: &[SimJob],
    cfg: &ShardSimConfig,
    strategy: Transmission,
    sim: &SimConfig,
) -> ShardSimOutcome {
    assert!(cfg.shards >= 1, "need at least one shard");
    assert!(cfg.slaves_per_shard >= 1, "need at least one slave per shard");
    let shards = cfg.shards;
    // Contiguous pools, remainder spread over the first shards — the
    // same chunking the live seed_pools performs.
    let base = jobs.len() / shards;
    let rem = jobs.len() % shards;
    let mut begin = 0usize;
    let mut pools: Vec<std::collections::VecDeque<usize>> = (0..shards)
        .map(|s| {
            let len = base + usize::from(s < rem);
            let pool = (begin..begin + len).collect();
            begin += len;
            pool
        })
        .collect();

    let mut t = vec![0.0f64; shards];
    let mut caches: Vec<SimCaches> = (0..shards).map(|_| SimCaches::new()).collect();
    let mut out = ShardSimOutcome {
        makespan: 0.0,
        per_shard_jobs: vec![0; shards],
        per_shard_time: vec![0.0; shards],
        steals: 0,
    };
    let want = |pool_len: usize| if cfg.lease == 0 { pool_len } else { cfg.lease };

    loop {
        // The earliest-free master that can still obtain work leases the
        // next round (lowest index on clock ties).
        let next = (0..shards)
            .filter(|&s| {
                !pools[s].is_empty() || (cfg.steal && pools.iter().any(|p| !p.is_empty()))
            })
            .min_by(|&a, &b| t[a].total_cmp(&t[b]).then(a.cmp(&b)));
        let Some(s) = next else { break };
        let round: Vec<usize> = if !pools[s].is_empty() {
            let n = want(pools[s].len()).min(pools[s].len());
            pools[s].drain(..n).collect()
        } else {
            let victim = (0..shards)
                .filter(|&p| p != s && !pools[p].is_empty())
                .max_by(|&a, &b| pools[a].len().cmp(&pools[b].len()).then(b.cmp(&a)))
                .expect("steal filter guarantees a victim");
            let n = want(pools[victim].len()).min(pools[victim].len());
            let at = pools[victim].len() - n;
            out.steals += 1;
            pools[victim].drain(at..).collect()
        };
        let round_jobs: Vec<SimJob> = round.iter().map(|&i| jobs[i]).collect();
        // A shard's lease round is a per-job farm, live and here.
        let plain = SchedConfig::plain(round_jobs.len(), cfg.slaves_per_shard);
        let (run, _) =
            simulate_farm_config(&round_jobs, strategy, sim, &mut caches[s], None, plain, &[])
                .expect("a plain scheduler config is always valid");
        t[s] += run.makespan;
        out.per_shard_jobs[s] += round.len();
        out.per_shard_time[s] = t[s];
        out.makespan = out.makespan.max(t[s]);
    }
    out
}

// ---------------------------------------------------------------------------
// Open-loop serving: the simulated counterpart of `serve::Session`
// ---------------------------------------------------------------------------

/// One request arriving at the simulated pricing service: the open-loop
/// counterpart of a live `serve::Request`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Arrival time in simulated seconds (requests are processed in
    /// arrival order; the slice must be sorted by this field).
    pub arrival_s: f64,
    /// The portfolio: job ids double as content fingerprints, so two
    /// jobs with the same id are "identical problems" for coalescing
    /// and memoisation.
    pub jobs: Vec<SimJob>,
    /// Priority class, 0 most urgent. Class `p` may hold at most
    /// `queue_depth >> p` queue slots (floored at one), mirroring the
    /// live admission control.
    pub priority: u8,
}

/// What happened to one open-loop serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSimOutcome {
    /// End-to-end latency per *answered* request, indexed by position
    /// in the input slice (`None` for shed requests).
    pub latency_s: Vec<Option<f64>>,
    /// Requests turned away at admission.
    pub shed: usize,
    /// Problems answered without a fresh compute (memo or coalescing).
    pub memo_hits: usize,
    /// Unique problems actually computed on the slaves.
    pub computed: usize,
    /// Time the last answer left the service.
    pub makespan_s: f64,
}

/// Replay an open-loop arrival stream against a resident simulated
/// farm, mirroring the live `serve::Session` front loop: requests that
/// arrive while a batch is in flight queue up (subject to per-priority
/// admission shares over `queue_depth`) and are served as the next
/// coalesced batch; job ids already computed are memo hits and cost no
/// slave time.
///
/// With a `recorder`, every request lands in the same `obs` schema the
/// live session emits — an `Enqueue` span for queue residency, an
/// `Admit` span for end-to-end latency, `Shed` and `MemoHit` marks —
/// so one [`obs::Breakdown`] reports p50/p99 for either world. Batch
/// compute events are *not* re-emitted per batch (the inner farm replay
/// restarts its clock per run); the request-level SLO stream is the
/// parity surface.
pub fn simulate_serve(
    requests: &[SimRequest],
    slaves: usize,
    strategy: Transmission,
    cfg: &SimConfig,
    queue_depth: usize,
    recorder: Option<&Recorder>,
) -> ServeSimOutcome {
    assert!(slaves >= 1, "need at least one slave");
    assert!(queue_depth >= 1, "need at least one queue slot");
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s),
        "requests must be sorted by arrival time"
    );
    let emit = |kind: EventKind, job: i64, start_s: f64, dur_s: f64, bytes: usize| {
        if let Some(rec) = recorder {
            rec.record(Event {
                kind,
                rank: 0,
                job,
                start_ns: (start_s * 1e9) as u64,
                dur_ns: (dur_s * 1e9) as u64,
                bytes: bytes as u64,
            });
        }
    };
    let depth_limit =
        |priority: u8| -> usize { (queue_depth >> (priority as usize).min(63)).max(1) };

    let mut out = ServeSimOutcome {
        latency_s: vec![None; requests.len()],
        shed: 0,
        memo_hits: 0,
        computed: 0,
        makespan_s: 0.0,
    };
    // The resident world's caches persist across batches, exactly as a
    // live session's slaves keep their NFS client state warm.
    let mut caches = SimCaches::new();
    let mut memo: HashSet<usize> = HashSet::new();

    let mut clock = 0.0f64;
    let mut queued: Vec<usize> = Vec::new(); // request indices
    let mut class_load = vec![0usize; 256];
    let mut next = 0usize;

    loop {
        // Admit every arrival up to the current clock (they arrived
        // while the previous batch was in flight).
        while next < requests.len() && requests[next].arrival_s <= clock {
            let r = &requests[next];
            let class = r.priority as usize;
            if class_load[class] + 1 > depth_limit(r.priority) {
                emit(EventKind::Shed, NO_JOB, r.arrival_s, 0.0, r.jobs.len());
                out.shed += 1;
            } else {
                class_load[class] += 1;
                queued.push(next);
            }
            next += 1;
        }
        if queued.is_empty() {
            // Idle: jump to the next arrival, or finish.
            match requests.get(next) {
                Some(r) => {
                    clock = clock.max(r.arrival_s);
                    continue;
                }
                None => break,
            }
        }

        // Serve the queue as one coalesced batch.
        let batch = std::mem::take(&mut queued);
        let batch_start = clock;
        let mut unique: Vec<SimJob> = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();
        for &ri in &batch {
            let r = &requests[ri];
            for job in &r.jobs {
                if memo.contains(&job.id) || !seen.insert(job.id) {
                    emit(EventKind::MemoHit, job.id as i64, batch_start, 0.0, 1);
                    out.memo_hits += 1;
                } else {
                    unique.push(*job);
                }
            }
        }
        if !unique.is_empty() {
            let (batch_out, _) = simulate_farm_sched(
                &unique,
                slaves,
                strategy,
                cfg,
                &mut caches,
                None,
                &SimSchedOpts::default(),
            )
            .expect("default scheduling options are always valid");
            clock += batch_out.makespan;
            out.computed += unique.len();
            for job in &unique {
                memo.insert(job.id);
            }
        }
        for &ri in &batch {
            let r = &requests[ri];
            class_load[r.priority as usize] -= 1;
            let latency = clock - r.arrival_s;
            emit(
                EventKind::Enqueue,
                NO_JOB,
                r.arrival_s,
                batch_start - r.arrival_s,
                r.jobs.iter().map(|j| j.bytes).sum(),
            );
            emit(EventKind::Admit, NO_JOB, r.arrival_s, latency, r.jobs.len());
            out.latency_s[ri] = Some(latency);
        }
        out.makespan_s = clock;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn single_slave_time_is_roughly_serial_sum() {
        let jobs = cheap_jobs(1000, 1e-3);
        let out = simulate_farm(
            &jobs,
            1,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
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
        let t1 = simulate_farm(
            &jobs,
            1,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        )
        .makespan;
        let t16 = simulate_farm(
            &jobs,
            16,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        )
        .makespan;
        let speedup = t1 / t16;
        assert!(speedup > 15.0, "speedup {speedup}");
    }

    #[test]
    fn communication_bound_workload_saturates() {
        // Sub-millisecond jobs: the master serialises all sends, so
        // adding slaves beyond a few must not help (§4.2's regime).
        let jobs = cheap_jobs(5000, 0.3e-3);
        let t4 = simulate_farm(
            &jobs,
            4,
            Transmission::FullLoad,
            &cfg(),
            &mut NfsCache::new(),
        )
        .makespan;
        let t50 = simulate_farm(
            &jobs,
            50,
            Transmission::FullLoad,
            &cfg(),
            &mut NfsCache::new(),
        )
        .makespan;
        assert!(
            t50 > 0.6 * t4,
            "full-load farm kept scaling implausibly: t4={t4} t50={t50}"
        );
    }

    #[test]
    fn full_load_costs_master_more_than_sload() {
        let jobs = cheap_jobs(5000, 0.3e-3);
        let full = simulate_farm(
            &jobs,
            20,
            Transmission::FullLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
        let sload = simulate_farm(
            &jobs,
            20,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
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
        let mut cache = NfsCache::new();
        let cold = simulate_farm(&jobs, 1, Transmission::Nfs, &cfg(), &mut cache).makespan;
        let warm = simulate_farm(&jobs, 1, Transmission::Nfs, &cfg(), &mut cache).makespan;
        assert!(
            warm < cold * 0.7,
            "cache had no effect: cold {cold} warm {warm}"
        );
        assert_eq!(cache.len(), 2000);
    }

    #[test]
    fn work_is_balanced_for_homogeneous_jobs() {
        let jobs = cheap_jobs(1000, 5e-3);
        let out = simulate_farm(
            &jobs,
            10,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
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
        let out = simulate_farm(
            &jobs,
            64,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
        assert!(out.makespan >= 33.0);
        assert!(out.makespan < 34.0);
    }

    #[test]
    fn master_utilisation_reported() {
        let jobs = cheap_jobs(2000, 0.2e-3);
        let out = simulate_farm(
            &jobs,
            40,
            Transmission::FullLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
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
        let out2 = simulate_farm(
            &heavy,
            4,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
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
            let plain = simulate_farm(&jobs, 2, strategy, &cfg(), &mut NfsCache::new());
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
        let jobs = cheap_jobs(500, 0.5e-3);
        for strategy in Transmission::ALL {
            let base = simulate_farm(&jobs, 4, strategy, &cfg(), &mut NfsCache::new());
            let via_cached =
                simulate_farm_cached(&jobs, 4, strategy, &cfg(), &mut SimCaches::new(), None);
            assert_eq!(base, via_cached, "{strategy}");
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
            let cold =
                simulate_farm_cached(&jobs, 2, strategy, &config, &mut caches, Some(&rec_cold));
            let rec_warm = Recorder::with_capacity(3, 1 << 16);
            let warm =
                simulate_farm_cached(&jobs, 2, strategy, &config, &mut caches, Some(&rec_warm));
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
            let out = simulate_farm_cached(
                &jobs,
                2,
                Transmission::SerializedLoad,
                c,
                &mut SimCaches::new(),
                Some(&rec),
            );
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
        let plain = simulate_farm(
            &jobs,
            2,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
        let gated = simulate_farm_cached(
            &jobs,
            2,
            Transmission::SerializedLoad,
            &config,
            &mut SimCaches::new(),
            None,
        );
        assert_eq!(plain, gated, "threshold gate leaked compression");
    }

    #[test]
    fn exec_threads_one_is_bit_identical_to_base_model() {
        let mut mixed: Vec<SimJob> = cheap_jobs(300, 0.5e-3);
        for (i, j) in mixed.iter_mut().enumerate() {
            if i % 3 == 0 {
                j.class = JobClass::LocalVolMc;
                j.compute = 5e-3;
            }
        }
        let mut config = cfg();
        config.exec = crate::params::ExecParams::default(); // threads = 1
        for strategy in Transmission::ALL {
            let base = simulate_farm(&mixed, 4, strategy, &cfg(), &mut NfsCache::new());
            let with_exec = simulate_farm(&mixed, 4, strategy, &config, &mut NfsCache::new());
            assert_eq!(base, with_exec, "{strategy}");
        }
    }

    #[test]
    fn intra_slave_threads_cut_compute_not_prepare() {
        use obs::Breakdown;
        // Heavy MC jobs: compute dominates, so the Amdahl speedup must
        // show up in compute_s and the makespan while the comm phases
        // stay put.
        let jobs: Vec<SimJob> = (0..64)
            .map(|id| SimJob {
                id,
                class: JobClass::BasketMc,
                bytes: 700,
                compute: 20.0,
            })
            .collect();
        let record = |c: &SimConfig| {
            let rec = Recorder::with_capacity(5, 1 << 16);
            let out = simulate_farm_recorded(
                &jobs,
                4,
                Transmission::SerializedLoad,
                c,
                &mut NfsCache::new(),
                Some(&rec),
            );
            assert_eq!(rec.dropped(), 0);
            (out, Breakdown::from_events(&rec.events()))
        };
        let (seq_out, seq_bd) = record(&cfg());
        let mut config = cfg();
        config.exec.threads = 8;
        let (par_out, par_bd) = record(&config);
        let speedup = seq_bd.compute_s() / par_bd.compute_s();
        assert!(
            speedup > 4.0 && speedup < 8.0,
            "compute speedup {speedup} outside the Amdahl window"
        );
        assert!(par_out.makespan < seq_out.makespan / 4.0);
        // Communication phases untouched by intra-slave threads.
        assert!((par_bd.prepare_s() - seq_bd.prepare_s()).abs() < 1e-9);
        assert!((par_bd.wire_s() - seq_bd.wire_s()).abs() < 1e-9);
        // Diagnostics: worker-CPU chunk seconds appear and never inflate
        // the wall-clock phase budget.
        assert_eq!(seq_bd.parallel_s(), 0.0);
        assert!(par_bd.parallel_s() > 0.0);
        assert!(par_bd.parallelism() > 4.0, "x{}", par_bd.parallelism());
        assert!(par_bd.total_s() < seq_bd.total_s());
    }

    #[test]
    fn thread_speedup_is_amdahl_bounded() {
        // Doubling threads can never double throughput: the serial
        // fraction and the spawn overhead both bite.
        let jobs = cheap_jobs(100, 10e-3);
        let makespan = |threads: usize| {
            let mut config = cfg();
            config.exec.threads = threads;
            simulate_farm(
                &jobs,
                2,
                Transmission::SerializedLoad,
                &config,
                &mut NfsCache::new(),
            )
            .makespan
        };
        let t1 = makespan(1);
        let t8 = makespan(8);
        let speedup = t1 / t8;
        assert!(speedup > 1.0, "threads did nothing: {speedup}");
        assert!(speedup < 8.0, "superlinear compute speedup: {speedup}");
    }

    #[test]
    fn scripted_death_requeues_onto_survivors() {
        let jobs = cheap_jobs(10, 5e-3);
        let opts = SimSchedOpts {
            supervision: Some(Supervision {
                deadline_ns: 10_000_000_000,
                max_attempts: 4,
                backoff_base_ns: 0,
            }),
            record_trace: true,
            faults: vec![SimFault {
                slave: 1,
                fatal_dispatch: 0,
                detect_delay_s: 0.02,
            }],
            ..Default::default()
        };
        let (out, trace) = simulate_farm_sched(
            &jobs,
            2,
            Transmission::SerializedLoad,
            &cfg(),
            &mut SimCaches::new(),
            None,
            &opts,
        )
        .unwrap();
        // Every job completes despite the death; the dead slave (which
        // perished sending its first answer) contributes nothing.
        assert_eq!(out.per_slave.iter().sum::<usize>(), 10);
        assert_eq!(out.per_slave[1], 0, "{:?}", out.per_slave);
        let text = trace.unwrap().render();
        assert!(
            text.contains("dead(2) -> bury(2) requeue("),
            "no burial decision in:\n{text}"
        );
    }

    #[test]
    fn lpt_dispatches_longest_job_first_and_beats_fifo_on_a_straggler() {
        let mut jobs = cheap_jobs(6, 1e-3);
        jobs[5].compute = 1.0; // the straggler FIFO leaves for last
        let costs: Vec<f64> = jobs.iter().map(|j| j.compute).collect();
        let opts = SimSchedOpts {
            policy: DispatchPolicy::Lpt { costs },
            record_trace: true,
            ..Default::default()
        };
        let (lpt, trace) = simulate_farm_sched(
            &jobs,
            2,
            Transmission::SerializedLoad,
            &cfg(),
            &mut SimCaches::new(),
            None,
            &opts,
        )
        .unwrap();
        let text = trace.unwrap().render();
        assert!(
            text.starts_with("ready(1) -> dispatch(5->1)\n"),
            "LPT did not lead with the straggler:\n{text}"
        );
        let fifo = simulate_farm(
            &jobs,
            2,
            Transmission::SerializedLoad,
            &cfg(),
            &mut NfsCache::new(),
        );
        assert!(
            lpt.makespan < fifo.makespan,
            "LPT {} !< FIFO {}",
            lpt.makespan,
            fifo.makespan
        );
    }

    #[test]
    fn empty_job_list_is_zero_makespan() {
        let out = simulate_farm(&[], 5, Transmission::Nfs, &cfg(), &mut NfsCache::new());
        assert_eq!(out.makespan, 0.0);
    }

    // -- sharded peer masters ------------------------------------------------

    #[test]
    fn one_shard_whole_lease_is_bit_identical_to_the_plain_farm() {
        let jobs = cheap_jobs(200, 2e-3);
        // Plain as in `SchedConfig::plain`: the flat farm dispatches
        // frames, a shard's lease round does not.
        let (plain, _) = simulate_farm_config(
            &jobs,
            Transmission::SerializedLoad,
            &cfg(),
            &mut SimCaches::new(),
            None,
            SchedConfig::plain(jobs.len(), 4),
            &[],
        )
        .unwrap();
        let sharded = simulate_sharded(
            &jobs,
            &ShardSimConfig {
                shards: 1,
                slaves_per_shard: 4,
                lease: 0,
                steal: false,
            },
            Transmission::SerializedLoad,
            &cfg(),
        );
        assert_eq!(sharded.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(sharded.per_shard_jobs, vec![200]);
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
        let base = ShardSimConfig {
            shards: 2,
            slaves_per_shard: 2,
            lease: 4,
            steal: false,
        };
        let no_steal = simulate_sharded(&jobs, &base, Transmission::SerializedLoad, &cfg());
        let steal = simulate_sharded(
            &jobs,
            &ShardSimConfig {
                steal: true,
                ..base
            },
            Transmission::SerializedLoad,
            &cfg(),
        );
        assert_eq!(no_steal.steals, 0);
        assert!(steal.steals > 0, "heavy tail must trigger steals");
        assert!(
            steal.makespan < no_steal.makespan,
            "stealing must shorten the run: {} !< {}",
            steal.makespan,
            no_steal.makespan
        );
        assert_eq!(steal.per_shard_jobs.iter().sum::<usize>(), 64);
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
        for shards in [1usize, 2, 4, 8] {
            let out = simulate_sharded(
                &jobs,
                &ShardSimConfig {
                    shards,
                    slaves_per_shard: 4,
                    lease: 8,
                    steal: true,
                },
                Transmission::SerializedLoad,
                &cfg(),
            );
            assert!(
                out.makespan <= prev,
                "{shards} shards slower: {} > {prev}",
                out.makespan
            );
            prev = out.makespan;
        }
    }

    #[test]
    fn sharded_512_core_run_completes_and_transport_cost_shows() {
        // The paper's 512-core scale as 64 peer masters × 8 slaves.
        let jobs = cheap_jobs(4096, 10e-3);
        let shape = ShardSimConfig {
            shards: 64,
            slaves_per_shard: 8,
            lease: 16,
            steal: true,
        };
        let free = simulate_sharded(&jobs, &shape, Transmission::SerializedLoad, &cfg());
        assert_eq!(free.per_shard_jobs.iter().sum::<usize>(), 4096);
        let mut socket = cfg();
        socket.transport = crate::params::TransportParams::socket();
        let priced = simulate_sharded(&jobs, &shape, Transmission::SerializedLoad, &socket);
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
            let base = simulate_farm(&jobs, 4, strategy, &cfg(), &mut NfsCache::new());
            let mut explicit = cfg();
            explicit.transport = crate::params::TransportParams::default();
            let with_zero = simulate_farm(&jobs, 4, strategy, &explicit, &mut NfsCache::new());
            assert_eq!(base, with_zero, "{strategy}");
            let mut channel = cfg();
            channel.transport = crate::params::TransportParams::channel();
            let with_channel = simulate_farm(&jobs, 4, strategy, &channel, &mut NfsCache::new());
            assert!(with_channel.makespan > base.makespan, "{strategy}");
        }
    }

    // -- open-loop serving ---------------------------------------------------

    fn request(arrival_s: f64, ids: std::ops::Range<usize>, priority: u8) -> SimRequest {
        SimRequest {
            arrival_s,
            jobs: ids
                .map(|id| SimJob {
                    id,
                    class: JobClass::VanillaClosedForm,
                    bytes: 600,
                    compute: 0.05,
                })
                .collect(),
            priority,
        }
    }

    #[test]
    fn serve_answers_every_admitted_request_and_memoises_repeats() {
        let requests = vec![
            request(0.0, 0..8, 0),
            request(0.0, 0..8, 0),  // identical: fully coalesced/memoised
            request(10.0, 0..8, 0), // repeat much later: memo hit
        ];
        let out = simulate_serve(&requests, 2, Transmission::SerializedLoad, &cfg(), 8, None);
        assert_eq!(out.shed, 0);
        assert!(out.latency_s.iter().all(Option::is_some));
        assert_eq!(out.computed, 8, "each unique problem computes once");
        assert_eq!(out.memo_hits, 16, "both repeats served without compute");
        // The late repeat is answered instantly: nothing to compute.
        assert_eq!(out.latency_s[2], Some(0.0));
    }

    #[test]
    fn serve_sheds_over_admission_share_and_prefers_urgent_class() {
        // queue_depth 4: class 0 keeps 4 slots, class 1 only 2. A burst
        // of five class-1 arrivals while the first batch runs must shed.
        let mut requests = vec![request(0.0, 0..64, 1)];
        for i in 0..5 {
            requests.push(request(0.001 + i as f64 * 1e-4, 100..132, 1));
        }
        let out = simulate_serve(&requests, 2, Transmission::SerializedLoad, &cfg(), 4, None);
        assert!(out.shed >= 3, "class 1 holds 2 slots, 5 arrived: {out:?}");
        // Shed requests carry no latency; admitted ones all do.
        let answered = out.latency_s.iter().flatten().count();
        assert_eq!(answered + out.shed, requests.len());
    }

    #[test]
    fn serve_emits_the_live_session_slo_schema() {
        let rec = Recorder::new(1);
        let requests = vec![
            request(0.0, 0..4, 0),
            request(0.0, 0..4, 0),
            request(5.0, 0..4, 0),
        ];
        simulate_serve(
            &requests,
            2,
            Transmission::SerializedLoad,
            &cfg(),
            8,
            Some(&rec),
        );
        let b = obs::Breakdown::from_events(&rec.events());
        assert_eq!(b.request_count(), 3);
        assert!(b.request_p99_s() >= b.request_p50_s());
        assert!(b.memo_hits() >= 8, "repeats must surface as MemoHit");
        // Queue residency (Enqueue) spans exist for every request.
        let enq = rec
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Enqueue)
            .count();
        assert_eq!(enq, 3);
    }

    #[test]
    fn serve_latency_includes_queue_wait_behind_a_running_batch() {
        // A huge first batch, then a tiny request arriving just after it
        // starts: the tiny one waits for the batch and its latency shows
        // it (open-loop queueing delay).
        let requests = vec![request(0.0, 0..512, 0), request(0.01, 1000..1001, 0)];
        let out = simulate_serve(&requests, 2, Transmission::SerializedLoad, &cfg(), 8, None);
        let first = out.latency_s[0].unwrap();
        let second = out.latency_s[1].unwrap();
        assert!(
            second > first * 0.5,
            "queued request must wait out the big batch: {second} vs {first}"
        );
    }
}
