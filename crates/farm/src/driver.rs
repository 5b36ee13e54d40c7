//! The farm's one master driver — Fig. 4's `else` branch over the
//! [`sched`] state machine.
//!
//! Every master calls [`drive`]: the flat farm of this crate (plain or
//! supervised) and each batch of a `serve::Session`. It translates wire
//! messages into [`sched::Event`]s, feeds the pure scheduler, and
//! executes the returned [`sched::Action`]s as sends. All scheduling
//! *decisions* (who gets which job next, when a job is presumed lost,
//! when a slave is buried, when the run is finished) live in
//! `crates/sched`. The cluster simulator runs this same [`drive`] over
//! a virtual-time transport that models the slaves (`clustersim`):
//! live and simulated runs are one master loop (`tests/sched_parity.rs`).
//! Supervision is one value ([`Farm::supervisor`]): data the scheduler
//! config already carries, plus what it adds here — the transport's
//! clock ([`Comm::wtime`]), a poll interval and a liveness sweep.
//!
//! [`drive`] also owns shutdown: on every exit path, error included,
//! each slave not known dead has been sent its stop sentinel before the
//! function returns, so no master can leave a slave parked in `recv`.
//! A resident farm's slaves are stopped only on an error.
//!
//! This module is the only place in the `farm` and `serve` crates
//! allowed to receive from `ANY_SOURCE` (a grep gate in
//! `scripts/ci.sh`), at the one gather point of [`drive`]: the master's
//! gather is a driver concern, not a protocol one. It is public for
//! `serve`, which drives its batches through it; nothing is re-exported
//! at the crate root.

use crate::instrument;
use crate::robin_hood::{FarmError, FarmReport, JobOutcome};
use crate::slave::TAG;
use crate::strategy::{prepare_serial_recorded, sload_member, Transmission};
use crate::supervisor::SupervisorConfig;
use crate::wire::{self, Answer, Body, JobFrame};
use minimpi::{Comm, MpiError, ANY_SOURCE};
use obs::{EventKind, NO_JOB};
use sched::{Action, Event, SchedConfig, Scheduler};
use std::collections::VecDeque;
use std::ops::Range;
use std::path::Path;
use std::time::Duration;
use store::{DirStore, ProblemStore};

/// The live side of one scheduler run: where the slaves are and how to
/// talk to them.
pub struct Farm<'a> {
    /// The master's endpoint, rank 0. Scheduler slave `s` is MPI rank
    /// `s`, and every message is on [`TAG`].
    pub comm: &'a Comm,
    /// Wire id of scheduler job 0: a session batch starts at its first
    /// unused id; the flat farm's is 0.
    pub base: usize,
    /// `Some` when each scheduler job is a prebuilt frame of wire jobs:
    /// scheduler job `j` is wire jobs `base + frames[j] .. base +
    /// frames[j + 1]`, so `frames` holds `jobs + 1` ascending offsets
    /// from 0. `None` — the flat farm — makes scheduler job `j` wire job
    /// `base + j`.
    pub frames: Option<&'a [usize]>,
    /// `Some` supervises the run: [`drive`] takes the scheduler's
    /// deadlines and retry budget *and* its own poll interval (the
    /// longest it blocks in one receive before re-checking deadlines and
    /// liveness) from this one value, so the two cannot disagree. `None`
    /// blocks in `recv` exactly as Fig. 4 does — no clock is ever read.
    pub supervisor: Option<&'a SupervisorConfig>,
    /// The slaves outlive this run (a session's batches share one slave
    /// world): the scheduler's `Stop`s are not sent. A failed run still
    /// stops them.
    pub resident: bool,
    /// How a problem travels — and what the report says ran.
    pub strategy: Transmission,
}

impl Farm<'_> {
    /// Send the stop sentinel, the empty message, to `slave`.
    fn stop(&self, slave: usize) -> Result<(), MpiError> {
        self.comm.send(&[], slave as i32, TAG)
    }

    /// Send the stop sentinel to each of `slaves`. Best effort: a rank
    /// that cannot be reached is not parked.
    fn stop_all(&self, slaves: impl Iterator<Item = usize>) {
        for s in slaves {
            let _ = self.stop(s);
        }
    }

    /// The wire jobs of scheduler jobs `job .. job + batch`.
    fn wires(&self, job: usize, batch: usize) -> Range<usize> {
        match self.frames {
            None => self.base + job..self.base + job + batch,
            Some(at) => self.base + at[job]..self.base + at[job + batch],
        }
    }

    /// Send `members` — `(wire id, problem file)` pairs — to rank `slave`
    /// as one job frame, written into `scratch` (recycled across the
    /// run): the flat farm's one sender, plain or supervised. Every file
    /// is read through a [`DirStore`]: a serialized load reads each one
    /// straight into the message through one [`store::FrameReader`] for
    /// the frame; a full load's bytes go
    /// from where they were re-serialized into the message
    /// ([`EventKind::Pack`]), and an NFS member is its file name. A member
    /// whose bytes cannot be prepared fails the dispatch before anything
    /// is on the wire.
    pub(crate) fn send_frame<'p>(
        &self,
        slave: usize,
        members: impl IntoIterator<Item = (usize, &'p Path)>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), FarmError> {
        let (comm, mut head) = (self.comm, None);
        let mut frame = JobFrame::new(std::mem::take(scratch));
        let store = DirStore::new();
        let in_place = self.strategy == Transmission::SerializedLoad;
        let mut reader = in_place.then(|| store.reader());
        for (idx, path) in members {
            head.get_or_insert(idx);
            comm.set_job(Some(idx));
            if let Some(reader) = reader.as_deref_mut() {
                sload_member(comm, reader, &mut frame, idx, path)
                    .map_err(|e| FarmError::job_failed(idx, e))?;
                continue;
            }
            let serial = prepare_serial_recorded(comm, &store, self.strategy, path)
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
        let sent = comm.send(scratch, slave as i32, TAG);
        comm.set_job(None);
        Ok(sent?)
    }
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
/// Under supervision two rules say what a reply means
/// (`docs/FAULTS.md`):
/// * a reply in which no member priced is a failed dispatch (backoff,
///   retry, then [`FarmReport::failed_jobs`]); one in which any member
///   priced answers its scheduler job, and each failed member in it is
///   final ([`FarmReport::failed_members`]);
/// * a reply the run cannot place — one that does not decode, comes
///   from an unknown rank, names wire jobs outside the run or does not
///   answer exactly the frame its first answer names — is dropped, and
///   the deadline re-dispatches what it carried.
///
/// Without supervision each of those ends the run
/// ([`FarmError::JobFailed`], [`FarmError::Protocol`]). A supervised run
/// that every slave died in ends early and still reports: its
/// unfinished jobs are in neither `outcomes` nor `failed_jobs`, and the
/// caller says what that means (`crate::run` returns
/// [`FarmError::AllSlavesDead`]).
///
/// `cfg.supervision` is set here, from [`Farm::supervisor`]; whatever
/// the caller put there is ignored.
pub fn drive(
    farm: &Farm<'_>,
    cfg: SchedConfig,
    send: impl FnMut(usize, usize, usize, &[JobOutcome]) -> Result<(), FarmError>,
) -> Result<FarmReport, FarmError> {
    let cfg = SchedConfig {
        supervision: farm.supervisor.map(SupervisorConfig::supervision),
        ..cfg
    };
    let (jobs, slaves, start) = (cfg.jobs, cfg.slaves, farm.comm.wtime());
    assert!(
        farm.frames.is_none_or(|f| f.len() == jobs + 1 && f[0] == 0),
        "Farm::frames holds jobs + 1 offsets from 0"
    );
    let sched = Scheduler::new(cfg).map_err(|e| {
        farm.stop_all(1..=slaves);
        FarmError::Sched(e)
    })?;
    let mut d = Driver {
        farm,
        sched,
        send,
        jobs,
        slaves,
        epoch: farm.supervisor.map(|_| start),
        outcomes: Vec::with_capacity(farm.wires(0, jobs).len()),
        failed_members: Vec::new(),
        per_slave: vec![0; farm.comm.size()],
        pending: Vec::new(),
        stopped: vec![false; slaves + 1],
    };
    let ran = d.gather_all();
    if ran.is_err() || !farm.resident {
        farm.stop_all((1..=slaves).filter(|&s| !d.stopped[s] && !d.sched.is_dead(s)));
    }
    ran?;
    Ok(FarmReport {
        outcomes: d.outcomes,
        failed_members: d.failed_members,
        elapsed: Duration::from_secs_f64(farm.comm.wtime() - start),
        per_slave: d.per_slave,
        failed_jobs: d.sched.failed_jobs(),
        retries: d.sched.retries() as usize,
        dead_slaves: d.sched.dead_slaves(),
        trace: d.sched.take_trace(),
    })
}

struct Driver<'a, S> {
    farm: &'a Farm<'a>,
    sched: Scheduler,
    send: S,
    jobs: usize,
    slaves: usize,
    /// When the run began ([`Comm::wtime`]); kept only under supervision.
    epoch: Option<f64>,
    /// Priced jobs in acceptance order, `job` in *wire* ids.
    outcomes: Vec<JobOutcome>,
    /// Failed members of answered frames, `(wire id, why)`.
    failed_members: Vec<(usize, String)>,
    /// Jobs completed per MPI rank (index 0, the master, stays 0).
    per_slave: Vec<usize>,
    /// The answers of the message being fed to the scheduler; the
    /// `Accept` it may produce records them. A duplicate answer produces
    /// none and is dropped.
    pending: Vec<Answer>,
    /// Slaves that have been sent their stop sentinel.
    stopped: Vec<bool>,
}

impl<S> Driver<'_, S>
where
    S: FnMut(usize, usize, usize, &[JobOutcome]) -> Result<(), FarmError>,
{
    /// Feed one event — at nanoseconds since the run began on the
    /// transport's clock under supervision, at a constant 0 (and no
    /// clock read) without — and return what the scheduler decides.
    fn on(&mut self, event: Event) -> Vec<Action> {
        let since = self.epoch.map(|e| self.farm.comm.wtime() - e);
        self.sched.on(event, since.map_or(0, |s| (s * 1e9) as u64))
    }

    /// Feed one event and execute what the scheduler decides.
    fn feed(&mut self, event: Event) -> Result<(), FarmError> {
        let actions = self.on(event);
        self.execute(actions)
    }

    /// Prime every slave, then gather and refeed until the scheduler is
    /// done.
    fn gather_all(&mut self) -> Result<(), FarmError> {
        let comm = self.farm.comm;
        // Priming: one SlaveReady per slave, in rank order (Fig. 4).
        for slave in 1..=self.slaves {
            self.feed(Event::SlaveReady { slave })?;
        }
        while !self.sched.is_terminal() {
            if self.farm.supervisor.is_some() {
                // Liveness sweep (notice kills even without trying to
                // send), then the deadline / backoff tick.
                for slave in 1..=self.slaves {
                    if !self.sched.is_dead(slave) && !comm.rank_alive(slave) {
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
            let Some(event) = self.event_of(&answers, src)? else {
                continue;
            };
            self.pending = answers;
            self.feed(event)?;
            self.pending.clear();
        }
        Ok(())
    }

    /// The scheduler event one reply from rank `src` stands for; `None`
    /// drops a supervised reply the run cannot place (see [`drive`]).
    fn event_of(&self, answers: &[Answer], src: usize) -> Result<Option<Event>, FarmError> {
        let slave = Some(src).filter(|s| (1..=self.slaves).contains(s));
        // The first answer names the dispatch: a whole frame answers
        // together.
        let job = answers.first().and_then(|a| self.sched_job(a.job()));
        if self.farm.supervisor.is_some() {
            let (Some(slave), Some(job)) = (slave, job) else {
                return Ok(None);
            };
            if !answers.iter().map(Answer::job).eq(self.farm.wires(job, 1)) {
                return Ok(None);
            }
            let priced = answers.iter().any(|a| matches!(a, Answer::Priced { .. }));
            return Ok(Some(if priced {
                Event::Answer { job, slave }
            } else {
                Event::Failure { job, slave }
            }));
        }
        let slave =
            slave.ok_or_else(|| FarmError::Protocol(format!("answer from unknown rank {src}")))?;
        self.check_reply(answers, slave)?;
        if let Some(Answer::Failed { job, why }) =
            answers.iter().find(|a| matches!(a, Answer::Failed { .. }))
        {
            return Err(FarmError::job_failed(*job, why));
        }
        match (answers.first(), job) {
            (Some(_), Some(job)) => Ok(Some(Event::Answer { job, slave })),
            (Some(head), None) => Err(FarmError::Protocol(format!(
                "answer for unknown job {}",
                head.job()
            ))),
            (None, _) => Err(FarmError::Protocol(format!("empty reply from rank {src}"))),
        }
    }

    /// An unsupervised master takes a reply at its word — the scheduler
    /// marks the whole dispatched range done on it — so the reply must
    /// answer exactly what `slave` was sent: the same jobs, in order.
    fn check_reply(&self, answers: &[Answer], slave: usize) -> Result<(), FarmError> {
        let sent = self.sched.in_flight(slave).unwrap_or(0..0);
        let sent = self.farm.wires(sent.start, sent.len());
        let got = answers.iter().map(|a| Some(a.job())).chain([None]);
        let expected = sent.clone().map(Some).chain([None]);
        match got.zip(expected).find(|(got, expected)| got != expected) {
            None => Ok(()),
            Some((got, _)) => Err(FarmError::Protocol(format!(
                "rank {slave} was sent jobs {sent:?} but its reply {}",
                match got {
                    Some(job) => format!("names job {job} there"),
                    None => format!("stops after {} answers", answers.len()),
                },
            ))),
        }
    }

    /// The scheduler job wire job `wire` belongs to, if it is in the run.
    fn sched_job(&self, wire: usize) -> Option<usize> {
        let at = wire.checked_sub(self.farm.base)?;
        match self.farm.frames {
            None => (at < self.jobs).then_some(at),
            Some(frames) => {
                (at < frames[self.jobs]).then(|| frames.partition_point(|&f| f <= at) - 1)
            }
        }
    }

    /// Collect one slave reply — a whole frame's answers — and the rank
    /// that sent it. `None` when a supervised poll ran out, cleared a
    /// truncated reply or took one that does not decode: the deadline
    /// requeues what it carried.
    fn gather(&self) -> Result<Option<(Vec<Answer>, usize)>, FarmError> {
        let comm = self.farm.comm;
        let Some(poll) = self.farm.supervisor.map(|s| s.poll) else {
            let (reply, st) = comm.recv(ANY_SOURCE, TAG)?;
            return Ok(Some((wire::decode_reply(&reply)?, st.src)));
        };
        match comm.recv_timeout(ANY_SOURCE, TAG, poll) {
            Ok(Some((reply, st))) => Ok(wire::decode_reply(&reply).ok().map(|a| (a, st.src))),
            Ok(None) => Ok(None),
            Err(MpiError::Truncated { .. }) => {
                let _ = comm.discard(ANY_SOURCE, TAG);
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Execute an action batch in order. A dispatch the scheduler can
    /// take back (supervised only) is reported to it at once and the
    /// recovery actions run *before* the rest of the batch.
    fn execute(&mut self, actions: Vec<Action>) -> Result<(), FarmError> {
        let farm = self.farm;
        let comm = farm.comm;
        // A job's marks carry the wire id of its first member.
        let mark = |kind, job, n| instrument::mark(comm, kind, farm.wires(job, 0).start as i64, n);
        let mut work: VecDeque<Action> = actions.into();
        while let Some(a) = work.pop_front() {
            match a {
                Action::Dispatch { job, slave, batch } => {
                    let undelivered = match (self.send)(job, slave, batch, &self.outcomes) {
                        Ok(()) => {
                            mark(
                                EventKind::Dispatch,
                                job,
                                farm.wires(job, batch).len() as u64,
                            );
                            continue;
                        }
                        Err(e) if farm.supervisor.is_none() => return Err(e),
                        // The slave is gone: the attempt is reversed and
                        // the slave buried.
                        Err(FarmError::Mpi(MpiError::Poisoned(dead))) if dead == slave => {
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
                    match farm.stop(slave) {
                        Ok(()) | Err(MpiError::Poisoned(_)) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                Action::Accept { slave, .. } => {
                    for a in self.pending.drain(..) {
                        match a {
                            Answer::Priced {
                                job,
                                price,
                                std_error,
                            } => {
                                self.per_slave[slave] += 1;
                                self.outcomes.push(JobOutcome {
                                    job,
                                    slave,
                                    price,
                                    std_error,
                                });
                            }
                            // Final: the same bytes would fail the same
                            // way on any slave.
                            Answer::Failed { job, why } => self.failed_members.push((job, why)),
                        }
                    }
                }
                Action::Expire { job, .. } => mark(EventKind::Deadline, job, 0),
                Action::Requeue { job } => mark(EventKind::Retry, job, 0),
                Action::Bury { slave } => {
                    instrument::mark(comm, EventKind::SlaveDeath, NO_JOB, slave as u64)
                }
                Action::AllSlavesDead | Action::Finish => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{save_portfolio, toy_portfolio};
    use crate::slave::serve_jobs;
    use crate::wire::{batch_reply_value, decode_frame};

    #[test]
    fn a_supervised_reply_naming_a_job_outside_the_run_is_dropped() {
        let dir = std::env::temp_dir().join("farm_driver_stray");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = save_portfolio(&toy_portfolio(4), &dir).unwrap();
        let sup = SupervisorConfig {
            job_deadline: Duration::from_millis(50),
            poll: Duration::from_millis(2),
            ..SupervisorConfig::default()
        };
        let ran = minimpi::World::run(2, |comm| {
            if comm.rank() == 1 {
                // The first reply answers a job the run never had; then
                // the slave serves honestly.
                let (frame, _) = comm.recv(0, TAG).unwrap();
                let job = decode_frame(&frame).unwrap()[0].0;
                let stray = Answer::Priced {
                    job: job + 1000,
                    price: 666.0,
                    std_error: None,
                };
                comm.send_obj(&batch_reply_value(&[stray]), 0, TAG).unwrap();
                serve_jobs(&comm, Some(&sup));
                return None;
            }
            let farm = Farm {
                comm: &comm,
                base: 0,
                frames: None,
                supervisor: Some(&sup),
                resident: false,
                strategy: Transmission::SerializedLoad,
            };
            let mut scratch = Vec::new();
            Some(drive(&farm, SchedConfig::plain(4, 1), |job, rank, n, _| {
                let members = (job..job + n).map(|j| (j, paths[j].as_path()));
                farm.send_frame(rank, members, &mut scratch)
            }))
        });
        let report = (ran.into_iter().next().flatten())
            .expect("master reports")
            .expect("a stray reply is dropped, not fatal");
        let priced = report.by_job();
        assert_eq!(priced.iter().map(|o| o.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert!(priced.iter().all(|o| o.1 != 666.0), "{priced:?}");
        assert_eq!((report.retries, report.failed_jobs.len()), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
