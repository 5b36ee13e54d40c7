//! The farm's one master driver — Fig. 4's `else` branch over the
//! [`sched`] state machine.
//!
//! Every master in this crate (flat, supervised, each hierarchy
//! sub-master, each shard lease round) calls [`drive`]: it
//! translates wire messages into [`sched::Event`]s, feeds the pure
//! scheduler, and executes the returned [`sched::Action`]s as sends. All
//! scheduling *decisions* (who gets which job next, when a job is
//! presumed lost, when a slave is buried, when the run is finished) live
//! in `crates/sched`, where the cluster simulator drives the identical
//! state machine with simulated time — the parity property locked down
//! by `tests/sched_parity.rs`. Supervision is one value
//! ([`Farm::supervisor`]): data the scheduler config already carries,
//! plus what it adds here — a clock, a poll interval and a liveness
//! sweep.
//!
//! [`drive`] also owns shutdown: on every exit path, error included,
//! each slave not known dead has been sent its stop sentinel before the
//! function returns, so no front-end can leave a slave parked in `recv`.
//!
//! This module is the only place in the crate allowed to receive from
//! `ANY_SOURCE` (a grep gate in `scripts/ci.sh`): the master's gather
//! point is a driver concern, not a protocol one.

use crate::config::RunCtx;
use crate::instrument;
use crate::robin_hood::{FarmError, FarmReport, JobOutcome};
use crate::slave::Link;
use crate::strategy::{prepare_serial_recorded, Transmission};
use crate::supervisor::SupervisorConfig;
use crate::wire::{self, Answer, Body, JobFrame};
use minimpi::{Comm, MpiError, Status, ANY_SOURCE};
use nspval::Value;
use obs::{EventKind, NO_JOB};
use sched::{Action, Event, SchedConfig, Scheduler};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// The live side of one scheduler run: where the slaves are and how to
/// talk to them.
pub(crate) struct Farm<'a> {
    /// The master's endpoint.
    pub(crate) comm: &'a Comm,
    /// The protocol spoken with the slaves. Scheduler slave `s` is MPI
    /// rank `link.master + s` in every topology this crate builds.
    pub(crate) link: Link,
    /// Wire id of scheduler job 0: a hierarchy sub-master's chunk starts
    /// at its offset in the global file list; everyone else is 0.
    pub(crate) base: usize,
    /// `Some` supervises the run: [`drive`] takes the scheduler's
    /// deadlines and retry budget *and* its own poll interval (the
    /// longest it blocks in one receive before re-checking deadlines and
    /// liveness) from this one value, so the two cannot disagree. `None`
    /// blocks in `recv` exactly as Fig. 4 does — no clock is ever read.
    pub(crate) supervisor: Option<&'a SupervisorConfig>,
    /// The slaves outlive this run (a shard's lease rounds share one
    /// slave world): the scheduler's `Stop`s are not sent. A failed run
    /// still stops them.
    pub(crate) resident: bool,
    /// Where problem bytes come from and how they are encoded.
    pub(crate) ctx: &'a RunCtx,
    /// How a problem travels — and what the report says ran.
    pub(crate) strategy: Transmission,
}

impl Farm<'_> {
    /// MPI rank of scheduler slave `slave`.
    fn rank(&self, slave: usize) -> usize {
        self.link.master + slave
    }

    /// Send the stop sentinel to each of `slaves`. Best effort: a rank
    /// that cannot be reached is not parked.
    fn stop(&self, slaves: impl Iterator<Item = usize>) {
        for s in slaves {
            let _ = self.link.stop(self.comm, self.rank(s));
        }
    }

    /// Send `members` — `(wire id, problem file)` pairs — to rank `slave`
    /// as one job frame, written into `scratch` (recycled across the
    /// run): the one sender behind every master (flat, supervised,
    /// hierarchy sub-master, shard lease round), whatever its wire ids
    /// mean. Each problem's bytes go from where the store fetched them
    /// straight into the message ([`EventKind::Pack`]); a member whose
    /// bytes cannot be prepared fails the dispatch before anything is on
    /// the wire.
    pub(crate) fn send_frame<'p>(
        &self,
        slave: usize,
        members: impl IntoIterator<Item = (usize, &'p Path)>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), FarmError> {
        let (comm, mut head) = (self.comm, None);
        let mut frame = JobFrame::new(std::mem::take(scratch));
        for (idx, path) in members {
            head.get_or_insert(idx);
            comm.set_job(Some(idx));
            let serial = prepare_serial_recorded(comm, self.ctx, self.strategy, path)
                .map_err(|e| FarmError::job_failed(idx, e))?;
            match &serial {
                Some(serial) => {
                    let t0 = instrument::t0(comm);
                    let (compressed, bytes) = (serial.is_compressed(), serial.bytes());
                    frame.push(idx, Body::Serial { compressed, bytes });
                    instrument::span(comm, EventKind::Pack, t0, bytes.len() as u64);
                }
                None => frame.push(idx, Body::Name(&path.to_string_lossy())),
            }
        }
        *scratch = frame.finish();
        // The message as a whole is recorded under its first job.
        comm.set_job(head);
        let sent = comm.send(scratch, slave as i32, self.link.tag);
        comm.set_job(None);
        Ok(sent?)
    }
}

/// Receive one object from any source — the gather point shared by
/// [`drive`] and the hierarchy's global master.
pub(crate) fn recv_any(comm: &Comm, tag: i32) -> Result<(Value, Status), FarmError> {
    Ok(comm.recv_obj(ANY_SOURCE, tag)?)
}

/// Drive one farm run to completion and report it (outcomes in
/// acceptance order with `job` in *wire* ids, `per_slave` by MPI rank).
///
/// `send(job, rank, batch, outcomes)` ships scheduler jobs
/// `job..job + batch` to `rank`; it sees the outcomes gathered so far
/// because a staged workload rewrites a round-dependent job's problem
/// file from them just before its bytes go out (scheduling decisions
/// never read payloads, so the decision trace cannot tell). A `send`
/// that fails with [`FarmError::JobFailed`] — the job's bytes could not
/// be prepared — is treated exactly like a slave answering
/// [`Answer::Failed`] for it: retried with backoff under supervision,
/// the end of the run otherwise.
///
/// `cfg.supervision` is set here, from [`Farm::supervisor`]; whatever
/// the caller put there is ignored.
pub(crate) fn drive(
    farm: &Farm<'_>,
    cfg: SchedConfig,
    send: impl FnMut(usize, usize, usize, &[JobOutcome]) -> Result<(), FarmError>,
) -> Result<FarmReport, FarmError> {
    let cfg = SchedConfig {
        supervision: farm.supervisor.map(SupervisorConfig::supervision),
        ..cfg
    };
    let (jobs, slaves, start) = (cfg.jobs, cfg.slaves, Instant::now());
    let sched = Scheduler::new(cfg).map_err(|e| {
        farm.stop(1..=slaves);
        FarmError::Config(exec::ConfigIssues::one("scheduler", e.to_string()))
    })?;
    let mut d = Driver {
        farm,
        sched,
        send,
        jobs,
        epoch: farm.supervisor.map(|_| start),
        outcomes: Vec::with_capacity(jobs),
        per_slave: vec![0; farm.comm.size()],
        pending: Vec::new(),
        stopped: vec![false; slaves + 1],
    };
    let ran = d.gather_all(slaves);
    if ran.is_err() || !farm.resident {
        farm.stop((1..=slaves).filter(|&s| !d.stopped[s] && !d.sched.is_dead(s)));
    }
    ran?;
    if d.sched.aborted() {
        return Err(FarmError::AllSlavesDead {
            completed: d.outcomes.len(),
            remaining: d.sched.unfinished(),
        });
    }
    let dead = d.sched.dead_slaves();
    Ok(FarmReport {
        outcomes: d.outcomes,
        elapsed: start.elapsed(),
        per_slave: d.per_slave,
        strategy: farm.strategy,
        failed_jobs: d.sched.failed_jobs(),
        retries: d.sched.retries() as usize,
        dead_slaves: dead.into_iter().map(|s| farm.rank(s)).collect(),
        trace: d.sched.take_trace(),
    })
}

struct Driver<'a, S> {
    farm: &'a Farm<'a>,
    sched: Scheduler,
    send: S,
    jobs: usize,
    /// When the run began; read only under supervision.
    epoch: Option<Instant>,
    /// Priced jobs in acceptance order, `job` in *wire* ids.
    outcomes: Vec<JobOutcome>,
    /// Jobs completed per MPI rank (index 0, the master, stays 0).
    per_slave: Vec<usize>,
    /// The answers of the message being fed to the scheduler; the priced
    /// ones are recorded by the `Accept` it may produce. A duplicate
    /// answer produces none and is dropped.
    pending: Vec<Answer>,
    /// Slaves that have been sent their stop sentinel.
    stopped: Vec<bool>,
}

impl<S> Driver<'_, S>
where
    S: FnMut(usize, usize, usize, &[JobOutcome]) -> Result<(), FarmError>,
{
    /// Feed one event — at nanoseconds since the run began under
    /// supervision, at a constant 0 (and no clock read) without — and
    /// return what the scheduler decides.
    fn on(&mut self, event: Event) -> Vec<Action> {
        let now = self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64);
        self.sched.on(event, now)
    }

    /// Feed one event and execute what the scheduler decides.
    fn feed(&mut self, event: Event) -> Result<(), FarmError> {
        let actions = self.on(event);
        self.execute(actions)
    }

    /// Prime every slave, then gather and refeed until the scheduler is
    /// done.
    fn gather_all(&mut self, slaves: usize) -> Result<(), FarmError> {
        let Farm { comm, link, .. } = *self.farm;
        let supervised = self.farm.supervisor.is_some();
        // Priming: one SlaveReady per slave, in rank order (Fig. 4).
        for slave in 1..=slaves {
            self.feed(Event::SlaveReady { slave })?;
        }
        while !self.sched.is_terminal() {
            if supervised {
                // Liveness sweep (notice kills even without trying to
                // send), then the deadline / backoff tick.
                for slave in 1..=slaves {
                    if !self.sched.is_dead(slave) && !comm.rank_alive(self.farm.rank(slave)) {
                        self.feed(Event::SlaveDead { slave })?;
                    }
                }
                self.feed(Event::Deadline)?;
                if self.sched.is_terminal() {
                    break;
                }
            }
            let Some((answers, src)) = self.gather()? else {
                continue;
            };
            let slave = src
                .checked_sub(link.master)
                .filter(|s| (1..=slaves).contains(s))
                .ok_or_else(|| FarmError::Protocol(format!("answer from unknown rank {src}")))?;
            if !supervised {
                self.check_reply(&answers, slave)?;
            }
            // The first answer names the dispatch (a whole frame answers
            // together); the first failure, if any, decides its fate.
            let failed = answers.iter().find(|a| matches!(a, Answer::Failed { .. }));
            let event = match (failed, answers.first()) {
                (Some(Answer::Failed { job, why }), _) if !supervised => {
                    return Err(FarmError::job_failed(*job, why));
                }
                (Some(a), _) => Event::Failure {
                    job: self.sched_job(a.job())?,
                    slave,
                },
                (None, Some(head)) => Event::Answer {
                    job: self.sched_job(head.job())?,
                    slave,
                },
                (None, None) => {
                    return Err(FarmError::Protocol(format!("empty reply from rank {src}")));
                }
            };
            self.pending = answers;
            self.feed(event)?;
            self.pending.clear();
        }
        Ok(())
    }

    /// An unsupervised master takes a reply at its word — the scheduler
    /// marks the whole dispatched range done on it — so the reply must
    /// answer exactly what `slave` was sent: the same jobs, in order.
    /// (Under supervision a late answer is legitimate, and deduplicated.)
    fn check_reply(&self, answers: &[Answer], slave: usize) -> Result<(), FarmError> {
        let sent = self.sched.in_flight(slave).unwrap_or(0..0);
        let sent = self.farm.base + sent.start..self.farm.base + sent.end;
        let got = answers.iter().map(|a| Some(a.job())).chain([None]);
        let expected = sent.clone().map(Some).chain([None]);
        match got.zip(expected).find(|(got, expected)| got != expected) {
            None => Ok(()),
            Some((got, _)) => Err(FarmError::Protocol(format!(
                "rank {} was sent jobs {sent:?} but its reply {}",
                self.farm.rank(slave),
                match got {
                    Some(job) => format!("names job {job} there"),
                    None => format!("stops after {} answers", answers.len()),
                },
            ))),
        }
    }

    /// The scheduler's id for wire job `wire`.
    fn sched_job(&self, wire: usize) -> Result<usize, FarmError> {
        wire.checked_sub(self.farm.base)
            .filter(|&j| j < self.jobs)
            .ok_or_else(|| FarmError::Protocol(format!("answer for unknown job {wire}")))
    }

    /// Collect one slave reply — a whole frame's answers — and the rank
    /// that sent it. `None` when a supervised poll ran out (or cleared a
    /// truncated reply, whose jobs the deadline requeues).
    fn gather(&self) -> Result<Option<(Vec<Answer>, usize)>, FarmError> {
        let (comm, tag) = (self.farm.comm, self.farm.link.tag);
        let (v, src) = match self.farm.supervisor.map(|s| s.poll) {
            None => {
                let (v, st) = recv_any(comm, tag)?;
                (v, st.src)
            }
            Some(poll) => match comm.recv_obj_timeout(ANY_SOURCE, tag, poll) {
                Ok(Some((v, st))) => (v, st.src),
                Ok(None) => return Ok(None),
                Err(MpiError::Truncated { .. }) => {
                    let _ = comm.discard(ANY_SOURCE, tag);
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            },
        };
        Ok(Some((wire::decode_batch_reply(&v)?, src)))
    }

    /// Execute an action batch in order. A dispatch the scheduler can
    /// take back (supervised only) is reported to it at once and the
    /// recovery actions run *before* the rest of the batch, keeping the
    /// live driver in lock-step with the simulator.
    fn execute(&mut self, actions: Vec<Action>) -> Result<(), FarmError> {
        let farm = self.farm;
        let (comm, rank_of) = (farm.comm, |slave| farm.rank(slave));
        let mark = |kind, job: usize, n| instrument::mark(comm, kind, (farm.base + job) as i64, n);
        let mut work: VecDeque<Action> = actions.into();
        while let Some(a) = work.pop_front() {
            match a {
                Action::Dispatch { job, slave, batch } => {
                    let undelivered = match (self.send)(job, rank_of(slave), batch, &self.outcomes)
                    {
                        Ok(()) => {
                            mark(EventKind::Dispatch, job, batch as u64);
                            continue;
                        }
                        Err(e) if farm.supervisor.is_none() => return Err(e),
                        // The slave is gone: the attempt is reversed and
                        // the slave buried.
                        Err(FarmError::Mpi(MpiError::Poisoned(dead))) if dead == rank_of(slave) => {
                            Event::SendFailed { job, slave }
                        }
                        // The job's bytes could not be prepared: the
                        // attempt counts, like a slave-side failure.
                        Err(FarmError::JobFailed { .. }) => Event::Failure { job, slave },
                        Err(e) => return Err(e),
                    };
                    for r in self.on(undelivered).into_iter().rev() {
                        work.push_front(r);
                    }
                }
                Action::Stop { .. } if farm.resident => {}
                Action::Stop { slave } => {
                    self.stopped[slave] = true;
                    match farm.link.stop(comm, rank_of(slave)) {
                        Ok(()) | Err(MpiError::Poisoned(_)) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                Action::Accept { slave, .. } => {
                    let slave = rank_of(slave);
                    for a in self.pending.drain(..) {
                        if let Answer::Priced {
                            job,
                            price,
                            std_error,
                        } = a
                        {
                            self.per_slave[slave] += 1;
                            self.outcomes.push(JobOutcome {
                                job,
                                slave,
                                price,
                                std_error,
                            });
                        }
                    }
                }
                Action::Expire { job, .. } => mark(EventKind::Deadline, job, 0),
                Action::Requeue { job } => mark(EventKind::Retry, job, 0),
                Action::Bury { slave } => {
                    instrument::mark(comm, EventKind::SlaveDeath, NO_JOB, rank_of(slave) as u64)
                }
                Action::AllSlavesDead | Action::Finish => {}
            }
        }
        Ok(())
    }
}
