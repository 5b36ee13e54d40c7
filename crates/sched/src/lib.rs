//! A pure, transport-free Robin Hood scheduler state machine.
//!
//! The paper's Fig. 4/5 master is *one* algorithm — feed every slave a
//! job, refeed each slave on every answer, stop with an empty name —
//! yet the repository once grew four live implementations of it plus a
//! fifth re-derivation inside the cluster simulator. This crate isolates the scheduling
//! *decisions* from every transport: [`Scheduler::on`] consumes an
//! [`Event`] (something the outside world observed) and returns the
//! [`Action`]s the master must take, with no clocks, threads, sockets
//! or files anywhere inside.
//!
//! One driver, `farm::driver::drive`, feeds it every event and turns
//! its actions into sends: for the flat farm, plain — dispatching job
//! frames, [`Batch::Guided`] — or supervised, for each batch of a
//! `serve::Session`, and for the cluster simulator, which runs `drive`
//! over a virtual-time transport with simulated timestamps.
//!
//! Because every decision is recorded in an optional [`Trace`] that
//! contains **no timestamps**, a live run and a simulated run of the
//! same workload produce byte-identical decision traces — the property
//! `tests/sched_parity.rs` locks down.
//!
//! Supervision semantics (deadlines, bounded retries with exponential
//! backoff, first-answer dedup, dead-slave burial, all-slaves-dead
//! abort) are lifted verbatim from the former `farm::supervisor`
//! master; dispatch *order* is a pluggable [`DispatchPolicy`] (FIFO, or
//! longest-processing-time first on costs the caller supplies).

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;

// ---------------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------------

/// Something the outside world observed and reports to the scheduler.
///
/// Slaves are identified by abstract ids `1..=slaves`; drivers map them
/// to MPI ranks (or simulated lanes) however they like. Jobs are dense
/// indices `0..jobs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A slave is up and can be fed. Drivers feed this once per slave,
    /// in ascending order, before anything else ("priming").
    SlaveReady {
        /// Slave id, `1..=slaves`.
        slave: usize,
    },
    /// A slave answered a job (for a framed dispatch: the *first* job of
    /// the frame identifies the whole frame).
    Answer {
        /// The answered job.
        job: usize,
        /// The answering slave.
        slave: usize,
    },
    /// A slave reported that it could not complete a job
    /// (supervised mode only).
    Failure {
        /// The failed job.
        job: usize,
        /// The reporting slave.
        slave: usize,
    },
    /// A clock tick: sweep in-flight jobs for expired deadlines
    /// (supervised mode only; a no-op in plain mode).
    Deadline,
    /// The driver detected that a slave died (supervised mode only).
    SlaveDead {
        /// The dead slave.
        slave: usize,
    },
    /// A previously emitted [`Action::Dispatch`] could not be delivered
    /// because the target slave is gone (supervised mode only). The
    /// scheduler reverses the optimistic dispatch — the attempt is not
    /// counted — and buries the slave.
    SendFailed {
        /// The job whose dispatch failed.
        job: usize,
        /// The unreachable slave.
        slave: usize,
    },
}

/// What the master must do in response to an [`Event`].
///
/// Actions are emitted in execution order; drivers handle them
/// sequentially. A failed `Dispatch` send must be reported back via
/// [`Event::SendFailed`] *immediately* (before handling the remaining
/// actions) so live and simulated drivers stay in lock-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Send jobs `job .. job + batch` to `slave`.
    Dispatch {
        /// First job of the batch.
        job: usize,
        /// Target slave.
        slave: usize,
        /// Number of consecutive jobs in this dispatch (1 unless the
        /// run is framed, [`Batch::Guided`]).
        batch: usize,
    },
    /// Send the empty-name stop sentinel to `slave`.
    Stop {
        /// Slave to stop.
        slave: usize,
    },
    /// Record the answer for `job` from `slave` as the accepted result
    /// (duplicates from retries never produce an `Accept`).
    Accept {
        /// The accepted job.
        job: usize,
        /// The slave whose answer won.
        slave: usize,
    },
    /// `job`'s deadline on `slave` expired; the slave is considered
    /// free again and the job will be retried or abandoned.
    Expire {
        /// The expired job.
        job: usize,
        /// The slave it was in flight on.
        slave: usize,
    },
    /// `job` went back on the queue (after a failure, an expired
    /// deadline, or a burial) with its retry backoff applied.
    Requeue {
        /// The requeued job.
        job: usize,
    },
    /// `slave` is dead: stop dispatching to it forever.
    Bury {
        /// The buried slave.
        slave: usize,
    },
    /// Every slave is dead with work remaining; the run is aborted.
    AllSlavesDead,
    /// All work is finished (or abandoned within budget); the run is
    /// complete and every live slave has been stopped.
    Finish,
}

/// The order in which queued jobs are handed to free slaves.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchPolicy {
    /// First-in, first-out: jobs go out in index order (the paper's
    /// Fig. 4 master).
    Fifo,
    /// Longest-processing-time-first: jobs are ordered by descending
    /// predicted cost (ties keep index order), the classic makespan
    /// heuristic for the straggler tail, on the caller's costs (exact
    /// ones from `table2 --order lpt`, `perf`'s own).
    Lpt {
        /// Predicted cost per job, indexed by job id; must have exactly
        /// `jobs` entries.
        costs: Vec<f64>,
    },
}

/// Supervision parameters; the live farm fills them from
/// `farm::SupervisorConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Per-dispatch deadline: a job in flight longer than this is
    /// presumed lost and requeued.
    pub deadline_ns: u64,
    /// Total dispatch budget per job; once `attempts == max_attempts`
    /// the job is abandoned as permanently failed.
    pub max_attempts: u32,
    /// Base retry backoff; attempt `n` is delayed by
    /// `backoff_base_ns << min(n - 1, 16)`.
    pub backoff_base_ns: u64,
}

/// Largest frame [`Batch::Guided`] dispatches. At the toy portfolio's
/// ~450 bytes a problem that is ~112 KiB on the wire — just past the
/// size up to which the measured channel round trip is flat — and 1/256
/// of a message's fixed cost per job is already below what one job's
/// own bytes cost to move.
pub const MAX_FRAME: usize = 256;

/// How many queued jobs one [`Action::Dispatch`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// One: Fig. 4's per-job dispatch.
    One,
    /// A frame of contiguous jobs sized by guided self-scheduling, a
    /// pure function of scheduler state: `clamp(ceil(queued / (2 × live
    /// slaves)), 1, MAX_FRAME)`. Frames are big while the queue is deep
    /// (§5: "a single large message rather than several smaller
    /// messages") and shrink to one job at the tail, so several slaves
    /// still finish together. FIFO, unsupervised, unstaged runs only.
    Guided,
}

/// Static description of one farm run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedConfig {
    /// Number of jobs (`0..jobs`).
    pub jobs: usize,
    /// Number of slaves (`1..=slaves`).
    pub slaves: usize,
    /// Jobs per dispatch.
    pub batch: Batch,
    /// Dispatch order.
    pub policy: DispatchPolicy,
    /// `Some` enables supervised mode (deadlines, retries, burial);
    /// `None` is the trusting Fig. 4 master.
    pub supervision: Option<Supervision>,
    /// `Some(r)` declares staged rounds: `r[job]` is the round the job
    /// belongs to, and no job of round `k` may be dispatched while an
    /// earlier round still has unfinished work. This is the
    /// cross-round-dependency shape of Picard-iterated BSDE workloads
    /// (Labart–Lelong): round `k + 1`'s jobs are built from round `k`'s
    /// answers, so the scheduler must hold them back until the barrier
    /// clears. `None` (the default) is the historical flat job set.
    pub rounds: Option<Vec<usize>>,
    /// Record a decision [`Trace`].
    pub record_trace: bool,
}

impl SchedConfig {
    /// A plain FIFO config with no supervision, one job per dispatch,
    /// no trace.
    pub fn plain(jobs: usize, slaves: usize) -> Self {
        SchedConfig {
            jobs,
            slaves,
            batch: Batch::One,
            policy: DispatchPolicy::Fifo,
            supervision: None,
            rounds: None,
            record_trace: false,
        }
    }

    /// The flat farm's config, live (`farm::run`) and simulated alike:
    /// dispatches are [`Batch::Guided`] frames whenever nothing in the
    /// run needs them one job at a time — FIFO order, no supervision
    /// (deadlines and retries are per job), no staged rounds (a frame
    /// could straddle a barrier) — and [`Batch::One`] otherwise.
    pub fn farm(
        jobs: usize,
        slaves: usize,
        policy: DispatchPolicy,
        supervision: Option<Supervision>,
        rounds: Option<Vec<usize>>,
    ) -> Self {
        let framed = policy == DispatchPolicy::Fifo && supervision.is_none() && rounds.is_none();
        SchedConfig {
            batch: if framed { Batch::Guided } else { Batch::One },
            policy,
            supervision,
            rounds,
            ..SchedConfig::plain(jobs, slaves)
        }
    }

    /// Set the dispatch policy.
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable supervision.
    pub fn supervised(mut self, sup: Supervision) -> Self {
        self.supervision = Some(sup);
        self
    }

    /// Declare staged rounds: `rounds[job]` is the job's round index.
    pub fn rounds(mut self, rounds: Vec<usize>) -> Self {
        self.rounds = Some(rounds);
        self
    }

    /// Record the decision trace.
    pub fn record_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// A rejected [`SchedConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// `slaves == 0`.
    NoSlaves,
    /// Framed dispatch requires FIFO order (frames are contiguous
    /// index ranges).
    BatchNeedsFifo,
    /// Framed dispatch is incompatible with supervision (per-job
    /// deadlines and retries assume one job per dispatch).
    BatchNeedsPlain,
    /// An LPT cost vector whose length does not match `jobs`.
    LptLen {
        /// Provided cost entries.
        costs: usize,
        /// Jobs in the run.
        jobs: usize,
    },
    /// `max_attempts == 0` can never dispatch anything.
    ZeroAttempts,
    /// A rounds vector whose length does not match `jobs`.
    RoundsLen {
        /// Provided round entries.
        rounds: usize,
        /// Jobs in the run.
        jobs: usize,
    },
    /// Staged rounds are incompatible with framed dispatch (frames
    /// are contiguous index ranges; a frame could straddle a barrier).
    RoundsNeedUnitBatch,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoSlaves => write!(f, "scheduler needs at least one slave"),
            SchedError::BatchNeedsFifo => {
                write!(f, "framed dispatch requires the FIFO policy")
            }
            SchedError::BatchNeedsPlain => {
                write!(f, "framed dispatch is incompatible with supervision")
            }
            SchedError::LptLen { costs, jobs } => {
                write!(f, "LPT cost vector has {costs} entries for {jobs} jobs")
            }
            SchedError::ZeroAttempts => write!(f, "max_attempts must be at least 1"),
            SchedError::RoundsLen { rounds, jobs } => {
                write!(f, "rounds vector has {rounds} entries for {jobs} jobs")
            }
            SchedError::RoundsNeedUnitBatch => {
                write!(f, "staged rounds require one job per dispatch")
            }
        }
    }
}

impl std::error::Error for SchedError {}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// One `event -> actions` decision, with no timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The consumed event.
    pub event: Event,
    /// The emitted actions (never empty: decision-free events are not
    /// recorded).
    pub actions: Vec<Action>,
}

/// The serializable decision log of one run: every event that produced
/// at least one action, in order, with the actions it produced.
///
/// Because entries carry no clock values, a live farm and a simulated
/// farm that observe the same logical event sequence render the same
/// bytes — the parity invariant of `tests/sched_parity.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// The recorded decisions.
    pub entries: Vec<TraceEntry>,
}

fn render_event(ev: &Event, out: &mut String) {
    use std::fmt::Write;
    match *ev {
        Event::SlaveReady { slave } => write!(out, "ready({slave})"),
        Event::Answer { job, slave } => write!(out, "answer({job},{slave})"),
        Event::Failure { job, slave } => write!(out, "failure({job},{slave})"),
        Event::Deadline => write!(out, "deadline"),
        Event::SlaveDead { slave } => write!(out, "dead({slave})"),
        Event::SendFailed { job, slave } => write!(out, "sendfail({job},{slave})"),
    }
    .expect("writing to String cannot fail");
}

fn render_action(a: &Action, out: &mut String) {
    use std::fmt::Write;
    match *a {
        Action::Dispatch { job, slave, batch } => {
            if batch == 1 {
                write!(out, "dispatch({job}->{slave})")
            } else {
                write!(out, "dispatch({job}..{}->{slave})", job + batch)
            }
        }
        Action::Stop { slave } => write!(out, "stop({slave})"),
        Action::Accept { job, slave } => write!(out, "accept({job},{slave})"),
        Action::Expire { job, slave } => write!(out, "expire({job},{slave})"),
        Action::Requeue { job } => write!(out, "requeue({job})"),
        Action::Bury { slave } => write!(out, "bury({slave})"),
        Action::AllSlavesDead => write!(out, "abort"),
        Action::Finish => write!(out, "finish"),
    }
    .expect("writing to String cannot fail");
}

impl Trace {
    /// Canonical text form, one `event -> action action ...` line per
    /// entry. Byte-comparable across live and simulated runs.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            render_event(&e.event, &mut s);
            s.push_str(" ->");
            for a in &e.actions {
                s.push(' ');
                render_action(a, &mut s);
            }
            s.push('\n');
        }
        s
    }

    /// Where this trace and `other` part ways, for a test to fail with:
    /// the index of the first decision that differs, up to three
    /// decisions of context before it, and the two diverging lines
    /// (`<end of trace>` for the side that stopped first). `None` when
    /// the traces are identical.
    pub fn diff(&self, other: &Trace) -> Option<String> {
        let (a, b) = (self.render(), other.render());
        let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
        let at = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
        let line =
            |side: &[&str], i: usize| side.get(i).copied().unwrap_or("<end of trace>").to_string();
        let mut out = format!("traces diverge at decision {at}\n");
        for (name, side) in [("left", &a), ("right", &b)] {
            for i in at.saturating_sub(3)..at {
                out += &format!("  {name} {i:>5}   {}\n", line(side, i));
            }
            out += &format!("  {name} {at:>5} > {}\n", line(side, at));
        }
        Some(out)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlaveState {
    Idle,
    Busy,
    Stopped,
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    job: usize,
    /// Jobs in this dispatch (`job .. job + batch`); always 1 under
    /// supervision.
    batch: usize,
    /// The `not_before` the job was popped with (restored verbatim if
    /// the dispatch send fails).
    not_before_ns: u64,
    deadline_ns: u64,
}

/// The deterministic Robin Hood master, as a pure state machine.
///
/// Feed it [`Event`]s via [`Scheduler::on`]; execute the returned
/// [`Action`]s in order. Every event handler ends with an implicit
/// dispatch pass (feed every free slave) and a finish check, so the
/// returned action list is always complete — there is no separate
/// "tick" entry point to call.
#[derive(Debug, Clone)]
pub struct Scheduler {
    jobs: usize,
    slaves: usize,
    batch: Batch,
    supervision: Option<Supervision>,
    /// (job, not_before_ns) in dispatch order.
    queue: VecDeque<(usize, u64)>,
    /// Slave `s` has sent [`Event::SlaveReady`]; index 0 unused.
    ready: Vec<bool>,
    state: Vec<SlaveState>,
    inflight: Vec<Option<Inflight>>,
    attempts: Vec<u32>,
    done: Vec<bool>,
    failed: Vec<bool>,
    /// Jobs neither done nor failed, maintained by `mark_done` /
    /// `mark_failed` so the per-event finish check is O(1).
    unfinished: usize,
    /// `Some(round_of)` when staged rounds are declared.
    round_of: Option<Vec<usize>>,
    /// Unfinished jobs per round (staged mode only).
    pending_per_round: Vec<usize>,
    /// First round with pending work; `pending_per_round.len()` once
    /// every round is drained.
    cur_round: usize,
    retries: u64,
    /// Plain mode: dispatches in flight (batches, not jobs).
    outstanding: usize,
    ready_seen: usize,
    finished: bool,
    aborted: bool,
    trace: Option<Trace>,
}

impl Scheduler {
    /// Build a scheduler for one run, validating the configuration.
    pub fn new(cfg: SchedConfig) -> Result<Scheduler, SchedError> {
        if cfg.slaves == 0 {
            return Err(SchedError::NoSlaves);
        }
        if cfg.batch == Batch::Guided {
            if cfg.supervision.is_some() {
                return Err(SchedError::BatchNeedsPlain);
            }
            if !matches!(cfg.policy, DispatchPolicy::Fifo) {
                return Err(SchedError::BatchNeedsFifo);
            }
        }
        if let Some(sup) = &cfg.supervision {
            if sup.max_attempts == 0 {
                return Err(SchedError::ZeroAttempts);
            }
        }
        if let Some(rounds) = &cfg.rounds {
            if rounds.len() != cfg.jobs {
                return Err(SchedError::RoundsLen {
                    rounds: rounds.len(),
                    jobs: cfg.jobs,
                });
            }
            if cfg.batch == Batch::Guided {
                return Err(SchedError::RoundsNeedUnitBatch);
            }
        }
        let order: Vec<usize> = match &cfg.policy {
            DispatchPolicy::Fifo => (0..cfg.jobs).collect(),
            DispatchPolicy::Lpt { costs } => {
                if costs.len() != cfg.jobs {
                    return Err(SchedError::LptLen {
                        costs: costs.len(),
                        jobs: cfg.jobs,
                    });
                }
                let mut idx: Vec<usize> = (0..cfg.jobs).collect();
                // Descending cost; stable, so ties keep index order.
                idx.sort_by(|&a, &b| {
                    costs[b]
                        .partial_cmp(&costs[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                idx
            }
        };
        // Staged rounds: round-major queue order, policy order within a
        // round (the sort is stable), plus per-round pending counters.
        let (order, pending_per_round) = if let Some(rounds) = &cfg.rounds {
            let mut idx = order;
            idx.sort_by_key(|&j| rounds[j]);
            let n_rounds = rounds.iter().map(|&r| r + 1).max().unwrap_or(0);
            let mut pending = vec![0usize; n_rounds];
            for &r in rounds {
                pending[r] += 1;
            }
            (idx, pending)
        } else {
            (order, Vec::new())
        };
        // Skip rounds that were declared empty.
        let mut cur_round = 0;
        while cur_round < pending_per_round.len() && pending_per_round[cur_round] == 0 {
            cur_round += 1;
        }
        Ok(Scheduler {
            jobs: cfg.jobs,
            slaves: cfg.slaves,
            batch: cfg.batch,
            supervision: cfg.supervision,
            queue: order.into_iter().map(|j| (j, 0)).collect(),
            ready: vec![false; cfg.slaves + 1],
            state: vec![SlaveState::Idle; cfg.slaves + 1],
            inflight: vec![None; cfg.slaves + 1],
            attempts: vec![0; cfg.jobs],
            done: vec![false; cfg.jobs],
            failed: vec![false; cfg.jobs],
            unfinished: cfg.jobs,
            round_of: cfg.rounds,
            pending_per_round,
            cur_round,
            retries: 0,
            outstanding: 0,
            ready_seen: 0,
            finished: false,
            aborted: false,
            trace: cfg.record_trace.then(Trace::default),
        })
    }

    // -- queries ----------------------------------------------------------

    /// All work dispatched and answered (or abandoned) and every live
    /// slave stopped; [`Action::Finish`] has been emitted.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Finished or aborted: the scheduler accepts no further events.
    pub fn is_terminal(&self) -> bool {
        self.finished || self.aborted
    }

    /// Has `slave` been buried?
    pub fn is_dead(&self, slave: usize) -> bool {
        slave <= self.slaves && self.state[slave] == SlaveState::Dead
    }

    /// The jobs `slave` was last sent and has not answered for, if any:
    /// what an honest reply from it must cover.
    pub fn in_flight(&self, slave: usize) -> Option<std::ops::Range<usize>> {
        let inf = self.inflight.get(slave)?.as_ref()?;
        Some(inf.job..inf.job + inf.batch)
    }

    /// Jobs neither answered nor permanently failed.
    pub fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Total requeues performed (the retry counter of the old
    /// supervised master).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Jobs abandoned after exhausting their attempt budget, ascending.
    pub fn failed_jobs(&self) -> Vec<usize> {
        (0..self.jobs).filter(|&j| self.failed[j]).collect()
    }

    /// Buried slaves, ascending.
    pub fn dead_slaves(&self) -> Vec<usize> {
        (1..=self.slaves)
            .filter(|&s| self.state[s] == SlaveState::Dead)
            .collect()
    }

    /// The first round with unfinished work, or `None` when rounds are
    /// not declared or every round is drained.
    pub fn current_round(&self) -> Option<usize> {
        self.round_of.as_ref()?;
        (self.cur_round < self.pending_per_round.len()).then_some(self.cur_round)
    }

    /// Rounds fully drained so far (staged mode only; `None` when the
    /// run is flat).
    pub fn rounds_drained(&self) -> Option<usize> {
        self.round_of.as_ref().map(|_| self.cur_round)
    }

    /// Take ownership of the recorded trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    // -- the state machine ------------------------------------------------

    /// Consume one event at (monotonic, driver-supplied) time `now_ns`
    /// and return the actions the master must take, in order.
    ///
    /// `now_ns` feeds deadlines and retry backoffs only; it is never
    /// recorded in the trace. Terminal schedulers ([`Self::is_terminal`])
    /// return no actions. Unknown slaves, repeated events and
    /// supervision-only events in plain mode are ignored.
    pub fn on(&mut self, event: Event, now_ns: u64) -> Vec<Action> {
        if self.is_terminal() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let supervised = self.supervision.is_some();
        match event {
            Event::SlaveReady { slave } => {
                if self.valid_slave(slave) && !self.ready[slave] {
                    self.ready[slave] = true;
                    self.ready_seen += 1;
                }
            }
            Event::Answer { job, slave } => {
                if !self.valid_slave(slave) {
                    return Vec::new();
                }
                if supervised {
                    // Free the slave only when the answer matches what
                    // it was sent (stale answers after an expiry must
                    // not free a slave that is busy with another job).
                    if self.state[slave] == SlaveState::Busy
                        && self.inflight[slave].map(|i| i.job) == Some(job)
                    {
                        self.state[slave] = SlaveState::Idle;
                        self.inflight[slave] = None;
                    }
                    // First answer wins; duplicates are dropped.
                    if job < self.jobs && !self.done[job] && !self.failed[job] {
                        self.mark_done(job);
                        out.push(Action::Accept { job, slave });
                    }
                } else if self.state[slave] == SlaveState::Busy {
                    let inf = self.inflight[slave].take();
                    self.state[slave] = SlaveState::Idle;
                    self.outstanding -= 1;
                    // The whole batch answered together.
                    if let Some(inf) = inf {
                        for j in inf.job..(inf.job + inf.batch).min(self.jobs) {
                            self.mark_done(j);
                        }
                    }
                    out.push(Action::Accept { job, slave });
                }
            }
            Event::Failure { job, slave } => {
                if !(supervised && self.valid_slave(slave)) {
                    return Vec::new();
                }
                if self.state[slave] == SlaveState::Busy
                    && self.inflight[slave].map(|i| i.job) == Some(job)
                {
                    self.state[slave] = SlaveState::Idle;
                    self.inflight[slave] = None;
                }
                if job < self.jobs {
                    self.requeue(job, now_ns, &mut out);
                }
            }
            Event::Deadline => {
                if supervised {
                    for slave in 1..=self.slaves {
                        let Some(inf) = self.inflight[slave] else {
                            continue;
                        };
                        if now_ns >= inf.deadline_ns {
                            self.inflight[slave] = None;
                            self.state[slave] = SlaveState::Idle;
                            out.push(Action::Expire {
                                job: inf.job,
                                slave,
                            });
                            self.requeue(inf.job, now_ns, &mut out);
                        }
                    }
                }
            }
            Event::SlaveDead { slave } => {
                if !(supervised && self.valid_slave(slave)) || self.state[slave] == SlaveState::Dead
                {
                    return Vec::new();
                }
                self.bury(slave, now_ns, &mut out);
                if self.abort_check(&mut out) {
                    self.record(event, &out);
                    return out;
                }
            }
            Event::SendFailed { job, slave } => {
                if !(supervised && self.valid_slave(slave)) {
                    return Vec::new();
                }
                // Reverse the optimistic dispatch: the attempt is not
                // counted and the job goes back to the *front* of the
                // queue with its original not-before, exactly like the
                // old master's deferred list.
                if let Some(inf) = self.inflight[slave].take() {
                    debug_assert_eq!(inf.job, job);
                    self.attempts[inf.job] = self.attempts[inf.job].saturating_sub(1);
                    self.queue.push_front((inf.job, inf.not_before_ns));
                }
                if self.state[slave] != SlaveState::Dead {
                    self.state[slave] = SlaveState::Dead;
                    out.push(Action::Bury { slave });
                }
                if self.abort_check(&mut out) {
                    self.record(event, &out);
                    return out;
                }
            }
        }
        self.dispatch_pass(now_ns, &mut out);
        self.finish_check(&mut out);
        self.record(event, &out);
        out
    }

    fn valid_slave(&self, slave: usize) -> bool {
        (1..=self.slaves).contains(&slave)
    }

    fn alive_count(&self) -> usize {
        (1..=self.slaves)
            .filter(|&s| self.state[s] != SlaveState::Dead)
            .count()
    }

    /// Mark `job` answered and advance the round barrier.
    fn mark_done(&mut self, job: usize) {
        if !self.done[job] {
            self.done[job] = true;
            self.unfinished -= usize::from(!self.failed[job]);
            self.settle_round(job);
        }
    }

    /// Mark `job` permanently failed and advance the round barrier (an
    /// abandoned job must not wedge the rounds behind it forever).
    fn mark_failed(&mut self, job: usize) {
        if !self.failed[job] {
            self.failed[job] = true;
            self.unfinished -= usize::from(!self.done[job]);
            self.settle_round(job);
        }
    }

    fn settle_round(&mut self, job: usize) {
        if let Some(rounds) = &self.round_of {
            let r = rounds[job];
            self.pending_per_round[r] -= 1;
            while self.cur_round < self.pending_per_round.len()
                && self.pending_per_round[self.cur_round] == 0
            {
                self.cur_round += 1;
            }
        }
    }

    /// Is `job` held back by the round barrier?
    fn round_blocked(&self, job: usize) -> bool {
        match &self.round_of {
            Some(rounds) => rounds[job] > self.cur_round,
            None => false,
        }
    }

    /// Requeue `job` within its attempt budget (verbatim the old
    /// `MasterState::requeue`): exhausting the budget marks it
    /// permanently failed, otherwise it rejoins the back of the queue
    /// with exponential backoff and a [`Action::Requeue`] is emitted.
    fn requeue(&mut self, job: usize, now_ns: u64, out: &mut Vec<Action>) {
        let sup = self.supervision.expect("requeue is supervised-only");
        if self.done[job] || self.failed[job] {
            return;
        }
        if self.attempts[job] >= sup.max_attempts {
            self.mark_failed(job);
            return;
        }
        self.retries += 1;
        let exp = self.attempts[job].saturating_sub(1).min(16);
        let backoff = sup.backoff_base_ns.saturating_mul(1u64 << exp);
        self.queue.push_back((job, now_ns.saturating_add(backoff)));
        out.push(Action::Requeue { job });
    }

    /// Bury `slave`, requeueing whatever it had in flight.
    fn bury(&mut self, slave: usize, now_ns: u64, out: &mut Vec<Action>) {
        self.state[slave] = SlaveState::Dead;
        out.push(Action::Bury { slave });
        if let Some(inf) = self.inflight[slave].take() {
            self.requeue(inf.job, now_ns, out);
        }
    }

    /// Abort when no slave is left alive with work remaining.
    fn abort_check(&mut self, out: &mut Vec<Action>) -> bool {
        if self.alive_count() == 0 && self.unfinished() > 0 {
            self.aborted = true;
            out.push(Action::AllSlavesDead);
            true
        } else {
            false
        }
    }

    /// The queue position of the next dispatchable job: the first entry
    /// that is neither settled nor held back by the round barrier
    /// (settled entries ahead of it are dropped on the way). Without
    /// rounds this only ever looks at the front — the historical
    /// behaviour, byte-for-byte.
    fn next_dispatchable(&mut self) -> Option<usize> {
        let mut i = 0;
        while i < self.queue.len() {
            let (job, _) = self.queue[i];
            if self.done[job] || self.failed[job] {
                self.queue.remove(i);
                continue;
            }
            if self.round_blocked(job) {
                i += 1;
                continue;
            }
            return Some(i);
        }
        None
    }

    /// Feed every free slave (the implicit tail of every event).
    fn dispatch_pass(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        if let Some(sup) = self.supervision {
            while let Some(i) = self.next_dispatchable() {
                let (job, not_before) = self.queue[i];
                // An embargoed retry blocks the pass (strict order
                // within the unlocked rounds, exactly as the flat
                // master treats its queue front).
                if not_before > now_ns {
                    break;
                }
                let Some(slave) = self.free_slave() else {
                    break;
                };
                self.queue.remove(i);
                self.attempts[job] += 1;
                self.state[slave] = SlaveState::Busy;
                self.inflight[slave] = Some(Inflight {
                    job,
                    batch: 1,
                    not_before_ns: not_before,
                    deadline_ns: now_ns.saturating_add(sup.deadline_ns),
                });
                out.push(Action::Dispatch {
                    job,
                    slave,
                    batch: 1,
                });
            }
        } else {
            while let Some(slave) = self.free_slave() {
                if let Some(i) = self.next_dispatchable() {
                    let want = match self.batch {
                        Batch::One => 1,
                        Batch::Guided => self
                            .queue
                            .len()
                            .div_ceil(2 * self.alive_count())
                            .clamp(1, MAX_FRAME),
                    };
                    let (first, _) = self.queue.remove(i).expect("index in range");
                    // Frames are FIFO-only and flat-only (validated), so
                    // the frame's tail continues from the queue front.
                    let mut n = 1;
                    while n < want {
                        match self.queue.pop_front() {
                            Some((j, _)) => {
                                debug_assert_eq!(j, first + n, "frames are contiguous");
                                n += 1;
                            }
                            None => break,
                        }
                    }
                    self.state[slave] = SlaveState::Busy;
                    self.inflight[slave] = Some(Inflight {
                        job: first,
                        batch: n,
                        not_before_ns: 0,
                        deadline_ns: u64::MAX,
                    });
                    self.outstanding += 1;
                    out.push(Action::Dispatch {
                        job: first,
                        slave,
                        batch: n,
                    });
                } else if self.queue.is_empty() {
                    self.state[slave] = SlaveState::Stopped;
                    out.push(Action::Stop { slave });
                } else {
                    // Jobs remain but every one is behind the round
                    // barrier: leave the slave idle — an answer from a
                    // busy slave will unlock the next round and feed it.
                    break;
                }
            }
        }
    }

    /// The lowest ready, idle slave.
    fn free_slave(&self) -> Option<usize> {
        (1..=self.slaves).find(|&s| self.ready[s] && self.state[s] == SlaveState::Idle)
    }

    /// Emit `Stop`s and `Finish` when the run is complete.
    fn finish_check(&mut self, out: &mut Vec<Action>) {
        if self.is_terminal() {
            return;
        }
        if self.supervision.is_some() {
            if self.unfinished() == 0 {
                // The old supervised shutdown: stop every non-dead
                // slave, in rank order (idle or not — slaves that never
                // saw a job still need the sentinel).
                for slave in 1..=self.slaves {
                    if self.state[slave] != SlaveState::Dead
                        && self.state[slave] != SlaveState::Stopped
                    {
                        self.state[slave] = SlaveState::Stopped;
                        out.push(Action::Stop { slave });
                    }
                }
                self.finished = true;
                out.push(Action::Finish);
            }
        } else if self.ready_seen == self.slaves && self.outstanding == 0 && self.queue.is_empty() {
            self.finished = true;
            out.push(Action::Finish);
        }
    }

    fn record(&mut self, event: Event, actions: &[Action]) {
        if actions.is_empty() {
            return;
        }
        if let Some(trace) = &mut self.trace {
            trace.entries.push(TraceEntry {
                event,
                actions: actions.to_vec(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    impl Trace {
        /// Number of recorded decisions.
        fn len(&self) -> usize {
            self.entries.len()
        }
    }

    impl Scheduler {
        /// Every slave died with work remaining; [`Action::AllSlavesDead`]
        /// has been emitted.
        fn aborted(&self) -> bool {
            self.aborted
        }

        /// Jobs with an accepted answer.
        fn done_count(&self) -> usize {
            self.done.iter().filter(|d| **d).count()
        }

        /// The recorded decision trace, if tracing was enabled.
        fn trace(&self) -> Option<&Trace> {
            self.trace.as_ref()
        }
    }

    fn sup() -> Supervision {
        Supervision {
            deadline_ns: 200_000_000,
            max_attempts: 4,
            backoff_base_ns: 5_000_000,
        }
    }

    /// `SchedConfig::plain` with guided frames.
    fn guided(jobs: usize, slaves: usize) -> SchedConfig {
        SchedConfig {
            batch: Batch::Guided,
            ..SchedConfig::plain(jobs, slaves)
        }
    }

    /// Feed `SlaveReady` for every slave, collecting actions.
    fn prime(s: &mut Scheduler, slaves: usize) -> Vec<Action> {
        let mut out = Vec::new();
        for k in 1..=slaves {
            out.extend(s.on(Event::SlaveReady { slave: k }, 0));
        }
        out
    }

    #[test]
    fn plain_fifo_runs_the_fig4_protocol() {
        let mut s = Scheduler::new(SchedConfig::plain(3, 2).record_trace()).unwrap();
        assert_eq!(
            prime(&mut s, 2),
            vec![
                Action::Dispatch {
                    job: 0,
                    slave: 1,
                    batch: 1
                },
                Action::Dispatch {
                    job: 1,
                    slave: 2,
                    batch: 1
                },
            ]
        );
        assert_eq!(
            s.on(Event::Answer { job: 0, slave: 1 }, 0),
            vec![
                Action::Accept { job: 0, slave: 1 },
                Action::Dispatch {
                    job: 2,
                    slave: 1,
                    batch: 1
                },
            ]
        );
        assert_eq!(
            s.on(Event::Answer { job: 1, slave: 2 }, 0),
            vec![
                Action::Accept { job: 1, slave: 2 },
                Action::Stop { slave: 2 }
            ]
        );
        assert_eq!(
            s.on(Event::Answer { job: 2, slave: 1 }, 0),
            vec![
                Action::Accept { job: 2, slave: 1 },
                Action::Stop { slave: 1 },
                Action::Finish,
            ]
        );
        assert!(s.finished());
        assert_eq!(s.done_count(), 3);
        let trace = s.take_trace().unwrap();
        assert_eq!(
            trace.render(),
            "ready(1) -> dispatch(0->1)\n\
             ready(2) -> dispatch(1->2)\n\
             answer(0,1) -> accept(0,1) dispatch(2->1)\n\
             answer(1,2) -> accept(1,2) stop(2)\n\
             answer(2,1) -> accept(2,1) stop(1) finish\n"
        );
    }

    #[test]
    fn plain_with_no_jobs_stops_everyone_then_finishes() {
        let mut s = Scheduler::new(SchedConfig::plain(0, 3)).unwrap();
        assert_eq!(
            s.on(Event::SlaveReady { slave: 1 }, 0),
            vec![Action::Stop { slave: 1 }]
        );
        assert_eq!(
            s.on(Event::SlaveReady { slave: 2 }, 0),
            vec![Action::Stop { slave: 2 }]
        );
        assert_eq!(
            s.on(Event::SlaveReady { slave: 3 }, 0),
            vec![Action::Stop { slave: 3 }, Action::Finish]
        );
    }

    #[test]
    fn batching_dispatches_contiguous_ranges() {
        let mut s = Scheduler::new(guided(9, 2)).unwrap();
        // ceil(9 / 4) = 3 of the nine queued, then ceil(6 / 4) = 2.
        assert_eq!(
            prime(&mut s, 2),
            vec![
                Action::Dispatch {
                    job: 0,
                    slave: 1,
                    batch: 3
                },
                Action::Dispatch {
                    job: 3,
                    slave: 2,
                    batch: 2
                },
            ]
        );
        assert_eq!(s.in_flight(1), Some(0..3));
        assert_eq!(s.in_flight(2), Some(3..5));
        // Four left: frames of one from here on. A frame is answered
        // whole, named by its first job.
        for (next, (head, slave)) in (5..).zip([(0, 1), (3, 2), (5, 1), (6, 2)]) {
            assert_eq!(
                s.on(Event::Answer { job: head, slave }, 0),
                vec![
                    Action::Accept { job: head, slave },
                    Action::Dispatch {
                        job: next,
                        slave,
                        batch: 1
                    },
                ]
            );
        }
        assert_eq!(s.done_count(), 7);
        assert_eq!(
            s.on(Event::Answer { job: 7, slave: 1 }, 0),
            vec![
                Action::Accept { job: 7, slave: 1 },
                Action::Stop { slave: 1 }
            ]
        );
        assert_eq!(s.in_flight(1), None);
        assert_eq!(
            s.on(Event::Answer { job: 8, slave: 2 }, 0),
            vec![
                Action::Accept { job: 8, slave: 2 },
                Action::Stop { slave: 2 },
                Action::Finish,
            ]
        );
    }

    #[test]
    fn frames_are_capped_and_the_farm_config_turns_them_on_only_when_it_can() {
        let fifo = || DispatchPolicy::Fifo;
        let mut s = Scheduler::new(SchedConfig::farm(10_000, 1, fifo(), None, None)).unwrap();
        assert_eq!(
            prime(&mut s, 1),
            vec![Action::Dispatch {
                job: 0,
                slave: 1,
                batch: MAX_FRAME
            }]
        );
        let lpt = DispatchPolicy::Lpt {
            costs: vec![1.0; 4],
        };
        for per_job in [
            SchedConfig::farm(4, 2, lpt, None, None),
            SchedConfig::farm(4, 2, fifo(), Some(sup()), None),
            SchedConfig::farm(4, 2, fifo(), None, Some(vec![0, 0, 1, 1])),
        ] {
            assert_eq!(per_job.batch, Batch::One);
            Scheduler::new(per_job).unwrap();
        }
        assert_eq!(SchedConfig::plain(4, 2).batch, Batch::One);
    }

    #[test]
    fn trace_diff_names_the_first_diverging_decision() {
        let run = |jobs| {
            let mut s = Scheduler::new(SchedConfig::plain(jobs, 1).record_trace()).unwrap();
            let mut acts = prime(&mut s, 1);
            while let Some(Action::Dispatch { job, slave, .. }) = acts.first().copied() {
                acts = s.on(Event::Answer { job, slave }, 0);
                acts.retain(|a| matches!(a, Action::Dispatch { .. }));
            }
            s.take_trace().unwrap()
        };
        let (five, six) = (run(5), run(6));
        assert_eq!(five.diff(&five), None);
        let diff = five.diff(&six).unwrap();
        // Decision 5 is where five jobs stop and six go on.
        assert!(diff.starts_with("traces diverge at decision 5\n"), "{diff}");
        assert!(diff.contains("left     5 > answer(4,1) -> accept(4,1) stop(1) finish\n"));
        assert!(diff.contains("right     5 > answer(4,1) -> accept(4,1) dispatch(5->1)\n"));
        assert!(diff.contains("left     2   answer(1,1) -> accept(1,1) dispatch(2->1)\n"));
        assert!(
            !diff.contains("answer(0,1)"),
            "three lines of context: {diff}"
        );
        // The shorter side reads as ended.
        let diff = six.diff(&five).unwrap();
        assert!(diff.starts_with("traces diverge at decision 5\n"), "{diff}");
        let mut cut = six.clone();
        cut.entries.truncate(3);
        let diff = cut.diff(&six).unwrap();
        assert!(diff.contains("left     3 > <end of trace>\n"), "{diff}");
    }

    #[test]
    fn lpt_orders_by_descending_cost_with_stable_ties() {
        let cfg = SchedConfig::plain(4, 1).policy(DispatchPolicy::Lpt {
            costs: vec![1.0, 3.0, 3.0, 2.0],
        });
        let mut s = Scheduler::new(cfg).unwrap();
        let mut order = Vec::new();
        let mut acts = prime(&mut s, 1);
        loop {
            let mut answered = None;
            for a in &acts {
                if let Action::Dispatch { job, slave, .. } = *a {
                    order.push(job);
                    answered = Some((job, slave));
                }
            }
            match answered {
                Some((job, slave)) => acts = s.on(Event::Answer { job, slave }, 0),
                None => break,
            }
        }
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert!(s.finished());
    }

    #[test]
    fn supervised_requeues_on_failure_with_backoff() {
        let cfg = SchedConfig::plain(2, 1).supervised(sup());
        let mut s = Scheduler::new(cfg).unwrap();
        assert_eq!(
            prime(&mut s, 1),
            vec![Action::Dispatch {
                job: 0,
                slave: 1,
                batch: 1
            }]
        );
        // Failure requeues job 0 to the *back*, so job 1 (now at the
        // front) goes out to the freed slave in the same decision.
        assert_eq!(
            s.on(Event::Failure { job: 0, slave: 1 }, 1_000),
            vec![
                Action::Requeue { job: 0 },
                Action::Dispatch {
                    job: 1,
                    slave: 1,
                    batch: 1
                },
            ]
        );
        assert_eq!(s.retries(), 1);
        // Job 1 answers before job 0's backoff elapses: the retry is
        // embargoed, so the slave sits idle.
        assert_eq!(
            s.on(Event::Answer { job: 1, slave: 1 }, 2_000),
            vec![Action::Accept { job: 1, slave: 1 }]
        );
        assert_eq!(s.on(Event::Deadline, 2_500), vec![]);
        // After the backoff the job goes out again.
        let later = 1_000 + sup().backoff_base_ns + 1;
        assert_eq!(
            s.on(Event::Deadline, later),
            vec![Action::Dispatch {
                job: 0,
                slave: 1,
                batch: 1
            }]
        );
    }

    #[test]
    fn supervised_deadline_expires_and_exhausts_the_budget() {
        let cfg = SchedConfig::plain(1, 1).supervised(Supervision {
            deadline_ns: 100,
            max_attempts: 2,
            backoff_base_ns: 0,
        });
        let mut s = Scheduler::new(cfg).unwrap();
        assert_eq!(
            prime(&mut s, 1),
            vec![Action::Dispatch {
                job: 0,
                slave: 1,
                batch: 1
            }]
        );
        // First expiry: requeue + immediate redispatch (zero backoff).
        assert_eq!(
            s.on(Event::Deadline, 150),
            vec![
                Action::Expire { job: 0, slave: 1 },
                Action::Requeue { job: 0 },
                Action::Dispatch {
                    job: 0,
                    slave: 1,
                    batch: 1
                },
            ]
        );
        // Second expiry: the budget (2 attempts) is spent — the job is
        // abandoned and the run finishes.
        assert_eq!(
            s.on(Event::Deadline, 300),
            vec![
                Action::Expire { job: 0, slave: 1 },
                Action::Stop { slave: 1 },
                Action::Finish,
            ]
        );
        assert_eq!(s.failed_jobs(), vec![0]);
        assert_eq!(s.retries(), 1);
    }

    #[test]
    fn duplicate_answers_are_deduplicated() {
        let cfg = SchedConfig::plain(2, 2).supervised(sup());
        let mut s = Scheduler::new(cfg).unwrap();
        prime(&mut s, 2);
        // Deadline expires job 0 on slave 1, which gets redispatched to
        // slave 1 again (lowest idle).
        let acts = s.on(Event::Deadline, sup().deadline_ns + 1);
        assert!(acts.contains(&Action::Expire { job: 0, slave: 1 }));
        // The original (late) answer arrives from slave 1 — accepted,
        // it was first.
        let acts = s.on(Event::Answer { job: 0, slave: 1 }, sup().deadline_ns + 2);
        assert!(acts.contains(&Action::Accept { job: 0, slave: 1 }));
        // The retry's answer is a duplicate: no second accept.
        let acts = s.on(Event::Answer { job: 0, slave: 1 }, sup().deadline_ns + 3);
        assert!(!acts
            .iter()
            .any(|a| matches!(a, Action::Accept { job: 0, .. })));
        assert_eq!(s.done_count(), 1);
    }

    #[test]
    fn burial_requeues_inflight_and_last_death_aborts() {
        let cfg = SchedConfig::plain(3, 2).supervised(sup());
        let mut s = Scheduler::new(cfg).unwrap();
        prime(&mut s, 2);
        let acts = s.on(Event::SlaveDead { slave: 1 }, 10);
        assert_eq!(
            acts,
            vec![Action::Bury { slave: 1 }, Action::Requeue { job: 0 }]
        );
        assert_eq!(s.dead_slaves(), vec![1]);
        let acts = s.on(Event::SlaveDead { slave: 2 }, 20);
        assert_eq!(
            acts,
            vec![
                Action::Bury { slave: 2 },
                Action::Requeue { job: 1 },
                Action::AllSlavesDead,
            ]
        );
        assert!(s.aborted());
        assert_eq!(s.unfinished(), 3);
        // Terminal: no further decisions.
        assert_eq!(s.on(Event::Deadline, 30), vec![]);
    }

    #[test]
    fn send_failure_reverses_the_attempt_and_front_requeues() {
        let cfg = SchedConfig::plain(2, 2).supervised(sup());
        let mut s = Scheduler::new(cfg).unwrap();
        // Only slave 1 is up; both jobs would go to it one at a time.
        let acts = s.on(Event::SlaveReady { slave: 1 }, 0);
        assert_eq!(
            acts,
            vec![Action::Dispatch {
                job: 0,
                slave: 1,
                batch: 1
            }]
        );
        // The send bounced: bury slave 1; job 0 keeps queue priority
        // and its attempt is uncounted.
        let acts = s.on(Event::SendFailed { job: 0, slave: 1 }, 5);
        assert_eq!(acts, vec![Action::Bury { slave: 1 }]);
        assert_eq!(s.retries(), 0);
        // Slave 2 comes up and gets job 0 *first* (front requeue), with
        // its full attempt budget intact.
        let acts = s.on(Event::SlaveReady { slave: 2 }, 10);
        assert_eq!(
            acts,
            vec![Action::Dispatch {
                job: 0,
                slave: 2,
                batch: 1
            }]
        );
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert_eq!(
            Scheduler::new(SchedConfig::plain(1, 0)).unwrap_err(),
            SchedError::NoSlaves
        );
        assert_eq!(
            Scheduler::new(guided(1, 1).supervised(sup())).unwrap_err(),
            SchedError::BatchNeedsPlain
        );
        assert_eq!(
            Scheduler::new(guided(2, 1).policy(DispatchPolicy::Lpt {
                costs: vec![1.0, 2.0]
            }))
            .unwrap_err(),
            SchedError::BatchNeedsFifo
        );
        assert_eq!(
            Scheduler::new(
                SchedConfig::plain(2, 1).policy(DispatchPolicy::Lpt { costs: vec![1.0] })
            )
            .unwrap_err(),
            SchedError::LptLen { costs: 1, jobs: 2 }
        );
        assert_eq!(
            Scheduler::new(SchedConfig::plain(1, 1).supervised(Supervision {
                deadline_ns: 1,
                max_attempts: 0,
                backoff_base_ns: 0,
            }))
            .unwrap_err(),
            SchedError::ZeroAttempts
        );
    }

    /// Drive a scheduler to termination answering every dispatch in
    /// emission order, returning the dispatch order observed.
    fn drain(s: &mut Scheduler, slaves: usize) -> Vec<usize> {
        let mut order = Vec::new();
        let mut pending: VecDeque<(usize, usize)> = VecDeque::new();
        let mut acts = prime(s, slaves);
        loop {
            for a in &acts {
                if let Action::Dispatch { job, slave, .. } = *a {
                    order.push(job);
                    pending.push_back((job, slave));
                }
            }
            match pending.pop_front() {
                Some((job, slave)) => acts = s.on(Event::Answer { job, slave }, 0),
                None => break,
            }
        }
        order
    }

    #[test]
    fn uniform_rounds_match_the_flat_machine_byte_for_byte() {
        for jobs in [0usize, 1, 3, 7] {
            for supervised in [false, true] {
                let mut flat = SchedConfig::plain(jobs, 2).record_trace();
                let mut staged = SchedConfig::plain(jobs, 2)
                    .rounds(vec![0; jobs])
                    .record_trace();
                if supervised {
                    flat = flat.supervised(sup());
                    staged = staged.supervised(sup());
                }
                let mut a = Scheduler::new(flat).unwrap();
                let mut b = Scheduler::new(staged).unwrap();
                assert_eq!(drain(&mut a, 2), drain(&mut b, 2));
                assert!(a.finished() && b.finished());
                assert_eq!(
                    a.take_trace().unwrap().render(),
                    b.take_trace().unwrap().render()
                );
                assert_eq!(b.rounds_drained(), Some(if jobs == 0 { 0 } else { 1 }));
            }
        }
    }

    #[test]
    fn round_barrier_holds_jobs_until_the_previous_round_drains() {
        let cfg = SchedConfig::plain(4, 2)
            .rounds(vec![0, 0, 1, 1])
            .record_trace();
        let mut s = Scheduler::new(cfg).unwrap();
        prime(&mut s, 2);
        assert_eq!(s.current_round(), Some(0));
        // Job 0 answers; round 0 still has job 1 in flight, so slave 1
        // idles instead of receiving a round-1 job.
        assert_eq!(
            s.on(Event::Answer { job: 0, slave: 1 }, 0),
            vec![Action::Accept { job: 0, slave: 1 }]
        );
        assert_eq!(s.current_round(), Some(0));
        // Job 1 answers: the barrier clears, both round-1 jobs go out.
        assert_eq!(
            s.on(Event::Answer { job: 1, slave: 2 }, 0),
            vec![
                Action::Accept { job: 1, slave: 2 },
                Action::Dispatch {
                    job: 2,
                    slave: 1,
                    batch: 1
                },
                Action::Dispatch {
                    job: 3,
                    slave: 2,
                    batch: 1
                },
            ]
        );
        assert_eq!(s.current_round(), Some(1));
        s.on(Event::Answer { job: 2, slave: 1 }, 0);
        let acts = s.on(Event::Answer { job: 3, slave: 2 }, 0);
        assert!(acts.contains(&Action::Finish));
        assert!(s.finished());
        assert_eq!(s.rounds_drained(), Some(2));
        assert_eq!(
            s.take_trace().unwrap().render(),
            "ready(1) -> dispatch(0->1)\n\
             ready(2) -> dispatch(1->2)\n\
             answer(0,1) -> accept(0,1)\n\
             answer(1,2) -> accept(1,2) dispatch(2->1) dispatch(3->2)\n\
             answer(2,1) -> accept(2,1) stop(1)\n\
             answer(3,2) -> accept(3,2) stop(2) finish\n"
        );
    }

    #[test]
    fn rounds_respect_policy_order_within_a_round() {
        // LPT inside each round, rounds in ascending order regardless
        // of cost.
        let cfg = SchedConfig::plain(4, 1)
            .rounds(vec![1, 0, 1, 0])
            .policy(DispatchPolicy::Lpt {
                costs: vec![9.0, 1.0, 5.0, 3.0],
            });
        let mut s = Scheduler::new(cfg).unwrap();
        assert_eq!(drain(&mut s, 1), vec![3, 1, 0, 2]);
        assert!(s.finished());
    }

    #[test]
    fn supervised_round_advances_when_a_job_exhausts_its_budget() {
        let cfg = SchedConfig::plain(2, 1)
            .rounds(vec![0, 1])
            .supervised(Supervision {
                deadline_ns: 1_000,
                max_attempts: 1,
                backoff_base_ns: 0,
            });
        let mut s = Scheduler::new(cfg).unwrap();
        prime(&mut s, 1);
        // Round 0's only job fails permanently (budget 1): the barrier
        // must not wedge — round 1's job goes out to the freed slave.
        assert_eq!(
            s.on(Event::Failure { job: 0, slave: 1 }, 10),
            vec![Action::Dispatch {
                job: 1,
                slave: 1,
                batch: 1
            }]
        );
        assert_eq!(s.failed_jobs(), vec![0]);
        assert_eq!(s.current_round(), Some(1));
        let acts = s.on(Event::Answer { job: 1, slave: 1 }, 20);
        assert!(acts.contains(&Action::Finish));
        assert_eq!(s.rounds_drained(), Some(2));
    }

    #[test]
    fn supervised_retry_stays_inside_its_round() {
        let cfg = SchedConfig::plain(3, 2)
            .rounds(vec![0, 0, 1])
            .supervised(Supervision {
                deadline_ns: 1_000,
                max_attempts: 3,
                backoff_base_ns: 0,
            });
        let mut s = Scheduler::new(cfg).unwrap();
        prime(&mut s, 2);
        // Job 0 fails with budget left: requeued (zero backoff) and
        // immediately redispatched; job 2 stays behind the barrier.
        let acts = s.on(Event::Failure { job: 0, slave: 1 }, 5);
        assert_eq!(
            acts,
            vec![
                Action::Requeue { job: 0 },
                Action::Dispatch {
                    job: 0,
                    slave: 1,
                    batch: 1
                },
            ]
        );
        s.on(Event::Answer { job: 1, slave: 2 }, 10);
        assert_eq!(s.current_round(), Some(0));
        let acts = s.on(Event::Answer { job: 0, slave: 1 }, 15);
        assert!(acts.contains(&Action::Dispatch {
            job: 2,
            slave: 1,
            batch: 1
        }));
        assert_eq!(s.current_round(), Some(1));
    }

    #[test]
    fn rounds_validation_rejects_nonsense() {
        assert_eq!(
            Scheduler::new(SchedConfig::plain(3, 1).rounds(vec![0])).unwrap_err(),
            SchedError::RoundsLen { rounds: 1, jobs: 3 }
        );
        assert_eq!(
            Scheduler::new(guided(4, 1).rounds(vec![0, 0, 1, 1])).unwrap_err(),
            SchedError::RoundsNeedUnitBatch
        );
    }

    #[test]
    fn empty_rounds_in_the_middle_are_skipped() {
        // Rounds 0 and 3 are populated; 1 and 2 are declared but empty.
        let cfg = SchedConfig::plain(2, 1).rounds(vec![0, 3]);
        let mut s = Scheduler::new(cfg).unwrap();
        assert_eq!(s.current_round(), Some(0));
        assert_eq!(drain(&mut s, 1), vec![0, 1]);
        assert!(s.finished());
        assert_eq!(s.rounds_drained(), Some(4));
    }

    #[test]
    fn trace_skips_decision_free_events() {
        let cfg = SchedConfig::plain(1, 1).supervised(sup()).record_trace();
        let mut s = Scheduler::new(cfg).unwrap();
        prime(&mut s, 1);
        // A deadline tick with nothing expired decides nothing.
        assert_eq!(s.on(Event::Deadline, 1), vec![]);
        assert_eq!(s.trace().unwrap().len(), 1); // just the priming dispatch
    }

    /// The O(jobs) scan the running `unfinished` counter replaced.
    fn scan_unfinished(s: &Scheduler) -> usize {
        (0..s.jobs).filter(|&j| !s.done[j] && !s.failed[j]).count()
    }

    #[test]
    fn supervised_fifo_walk_over_20_000_jobs_finishes() {
        // With a per-event scan this walk is 20 000² / 2 flag reads for
        // the finish checks alone; with the counter it is linear.
        let (jobs, slaves) = (20_000, 2);
        let mut s = Scheduler::new(SchedConfig::plain(jobs, slaves).supervised(sup())).unwrap();
        let mut work: VecDeque<Action> = prime(&mut s, slaves).into();
        let mut accepted = 0;
        while let Some(a) = work.pop_front() {
            match a {
                Action::Dispatch { job, slave, .. } => {
                    work.extend(s.on(Event::Answer { job, slave }, 0));
                }
                Action::Accept { .. } => accepted += 1,
                _ => {}
            }
        }
        assert!(s.finished());
        assert_eq!(accepted, jobs);
        assert_eq!(s.unfinished(), 0);
    }

    proptest::proptest! {
        #[test]
        fn unfinished_counter_equals_the_scan_at_every_step(
            jobs in 0usize..24,
            slaves in 1usize..5,
            max_attempts in 1u32..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let cfg = SchedConfig::plain(jobs, slaves).supervised(Supervision {
                max_attempts,
                ..sup()
            });
            let mut s = Scheduler::new(cfg).unwrap();
            // slave -> job of its latest dispatch, read off the actions.
            let mut busy: Vec<Option<usize>> = vec![None; slaves + 1];
            let mut now = 0u64;
            let mut events: Vec<Event> =
                (1..=slaves).map(|slave| Event::SlaveReady { slave }).collect();
            events.reverse();
            for _ in 0..64 * (jobs + 1) * (slaves + 1) {
                if s.is_terminal() {
                    break;
                }
                let slave = 1 + rng.below(slaves as u64) as usize;
                let event = events.pop().unwrap_or_else(|| match (rng.below(10), busy[slave]) {
                    (0..=4, Some(job)) => Event::Answer { job, slave },
                    (5..=6, Some(job)) => Event::Failure { job, slave },
                    (7, _) => Event::SlaveDead { slave },
                    _ => {
                        now += 250_000_000; // past the deadline and any backoff
                        Event::Deadline
                    }
                });
                for a in s.on(event, now) {
                    if let Action::Dispatch { job, slave, .. } = a {
                        busy[slave] = Some(job);
                    }
                }
                proptest::prop_assert_eq!(s.unfinished(), scan_unfinished(&s));
            }
            proptest::prop_assert!(s.is_terminal());
        }
    }
}
