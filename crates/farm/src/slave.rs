//! The farm's one slave loop — Fig. 4's `if mpi_rank <> 0` branch.
//!
//! Every front-end (flat, supervised, each hierarchy group, each
//! shard) runs [`serve_jobs`] on its compute ranks; what differs
//! between them is data: the [`Link`] to the master being served and,
//! under supervision, the patience that bounds every wait. A job the
//! slave cannot read, decode or price is *answered* — [`Answer::Failed`]
//! — never dropped and never a panic, so the master decides what a
//! failed job means (a retry under supervision, the end of the run
//! otherwise; `docs/FAULTS.md`).

use crate::config::RunCtx;
use crate::instrument;
use crate::robin_hood::FarmError;
use crate::strategy::{recover, recover_member, Transmission};
use crate::supervisor::SupervisorConfig;
use crate::wire::{batch_reply_value, decode_frame, Answer, JobMsg};
use minimpi::{Comm, MpiBuf, MpiError};
use nspval::Value;
use pricing::PremiaProblem;

/// How jobs are framed on a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// Fig. 4: a name message `[path, idx]`, then (loaded strategies) one
    /// packed payload; one answer object back; the stop sentinel is an
    /// empty matrix.
    PerJob,
    /// §5's "send them all together": one [`crate::wire::JobFrame`] of
    /// problems or names, one columnar reply; the stop is an empty message.
    Frame,
}

/// One master ↔ slaves protocol instance, shared by both ends: the
/// master's [`crate::driver::drive`] and its slaves' [`serve_jobs`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    /// Rank of the master the slaves answer to.
    pub(crate) master: usize,
    /// Message tag of every message on the link.
    pub(crate) tag: i32,
    /// Job framing.
    pub(crate) framing: Framing,
}

impl Link {
    /// A per-job (Fig. 4) link to `master`.
    pub(crate) const fn per_job(master: usize, tag: i32) -> Link {
        Link {
            master,
            tag,
            framing: Framing::PerJob,
        }
    }

    /// Master-side: send `rank` the framing's stop sentinel.
    pub(crate) fn stop(&self, comm: &Comm, rank: usize) -> Result<(), MpiError> {
        match self.framing {
            Framing::PerJob => comm.send_obj(&Value::empty_matrix(), rank as i32, self.tag),
            Framing::Frame => comm.send(&[], rank as i32, self.tag),
        }
    }
}

/// What one receive on a per-job link produced.
enum Turn {
    /// The stop sentinel (or, with patience, an idle window of silence).
    Stop,
    /// A mangled frame that names no job: cleared; the master's deadline
    /// recovers whatever it carried.
    Again,
    /// A job whose payload never arrived intact: answered as failed.
    Lost(usize, &'static str),
    /// A job and, for the loaded strategies, its payload.
    Job(JobMsg, Option<Value>),
}

/// Serve jobs from `link.master` until its stop sentinel — the whole body
/// of a compute rank. `patience` is the supervised slave's bounds on its
/// two waits ([`SupervisorConfig::slave_idle_timeout`] and
/// `payload_timeout`); `None` blocks in `recv` exactly as Fig. 4 does.
///
/// Only the *link* can fail here (a poisoned world, a frame the codec
/// cannot read), never a job. A supervised slave then just leaves:
/// deadlines and the liveness sweep recover the work. An unsupervised
/// one has nobody to tell, so it panics: that poisons the world, which
/// wakes every parked peer with an error instead of leaving it blocked
/// on a rank that is gone.
pub(crate) fn serve_jobs(
    comm: &Comm,
    ctx: &RunCtx,
    link: Link,
    strategy: Transmission,
    patience: Option<&SupervisorConfig>,
) {
    let (master, store) = (link.master as i32, ctx.store.as_ref());
    let serve = || -> Result<(), FarmError> {
        loop {
            comm.set_job(None);
            match link.framing {
                Framing::PerJob => {
                    let answer = match recv_job(comm, link, strategy, patience)? {
                        Turn::Stop => return Ok(()),
                        Turn::Again => continue,
                        Turn::Lost(idx, why) => Answer::failed(idx, why),
                        Turn::Job(JobMsg { idx, name }, payload) => {
                            price_one(comm, ctx, idx, || {
                                recover(Some(comm), store, strategy, &name, payload.as_ref())
                            })
                        }
                    };
                    comm.send_obj(&answer.to_value(), master, link.tag)?;
                }
                Framing::Frame => {
                    let (frame, _) = comm.recv(master, link.tag)?;
                    if frame.is_empty() {
                        return Ok(());
                    }
                    // Every member is priced from the frame's own bytes.
                    let price = |(idx, body)| {
                        price_one(comm, ctx, idx, || recover_member(comm, store, body))
                    };
                    let answers: Vec<Answer> =
                        decode_frame(&frame)?.into_iter().map(price).collect();
                    comm.set_job(None);
                    comm.send_obj(&batch_reply_value(&answers), master, link.tag)?;
                }
            }
        }
    };
    match serve() {
        Err(e) if patience.is_none() => {
            panic!(
                "farm slave {}: link to master {master} failed: {e}",
                comm.rank()
            )
        }
        _ => {}
    }
}

/// Recover and price one job. Every local failure — an unreadable file,
/// an undecodable problem, a method that rejects its inputs — becomes
/// the answer.
fn price_one(
    comm: &Comm,
    ctx: &RunCtx,
    idx: usize,
    recover: impl FnOnce() -> Result<PremiaProblem, xdrser::XdrError>,
) -> Answer {
    comm.set_job(Some(idx));
    let priced = recover().map_err(|e| e.to_string()).and_then(|problem| {
        instrument::compute_recorded(comm, ctx, &problem)
            .map_err(|e| format!("compute failed: {e}"))
    });
    match priced {
        Ok(result) => Answer::priced(idx, &result),
        Err(why) => Answer::failed(idx, why),
    }
}

/// Receive one per-job request: the name message and, for the loaded
/// strategies, the packed payload behind it.
fn recv_job(
    comm: &Comm,
    link: Link,
    strategy: Transmission,
    patience: Option<&SupervisorConfig>,
) -> Result<Turn, FarmError> {
    let (master, tag) = (link.master as i32, link.tag);
    let msg = match patience {
        None => comm.recv_obj(master, tag)?.0,
        Some(p) => match comm.recv_obj_timeout(master, tag, p.slave_idle_timeout) {
            Ok(Some((msg, _))) => msg,
            Ok(None) => return Ok(Turn::Stop),
            Err(MpiError::Truncated { .. }) => {
                let _ = comm.discard(master, tag);
                return Ok(Turn::Again);
            }
            Err(e) => return Err(e.into()),
        },
    };
    if msg.is_empty_matrix() {
        return Ok(Turn::Stop);
    }
    let Some(JobMsg { idx, name }) = JobMsg::decode(&msg) else {
        // Under fault injection a payload whose name message was dropped
        // can land here; without it this is a master bug.
        return match patience {
            Some(_) => Ok(Turn::Again),
            None => Err(FarmError::Protocol(format!(
                "undecodable job request: {msg}"
            ))),
        };
    };
    comm.set_job(Some(idx));
    let job = |payload| Turn::Job(JobMsg { idx, name }, payload);
    if strategy == Transmission::Nfs {
        return Ok(job(None));
    }
    let buf = match patience {
        // Fig. 4: probe, size a buffer, receive.
        None => {
            let mut buf = MpiBuf::with_capacity(comm.probe(master, tag)?.count());
            comm.recv_into(&mut buf, master, tag)?;
            buf
        }
        Some(p) => match comm.recv_timeout(master, tag, p.payload_timeout) {
            Ok(Some((bytes, _))) => MpiBuf::from_bytes(bytes),
            Ok(None) => return Ok(Turn::Lost(idx, "payload timeout")),
            Err(MpiError::Truncated { .. }) => {
                let _ = comm.discard(master, tag);
                return Ok(Turn::Lost(idx, "payload truncated"));
            }
            Err(e) => return Err(e.into()),
        },
    };
    Ok(match comm.unpack(&buf) {
        // The payload was lost and the frame consumed in its place is
        // this slave's own stop sentinel.
        Ok(v) if v.is_empty_matrix() => Turn::Stop,
        Ok(v) => job(Some(v)),
        Err(_) => Turn::Lost(idx, "payload undecodable"),
    })
}
