//! The farm's one slave loop — Fig. 4's `if mpi_rank <> 0` branch.
//!
//! Every front-end (flat, supervised, batched, each hierarchy group,
//! each shard) runs [`serve_jobs`] on its compute ranks; what differs
//! between them is data: the [`Link`] to the master being served and,
//! under supervision, the patience that bounds every wait. A job the
//! slave cannot read, decode or price is *answered* — [`Answer::Failed`]
//! — never dropped and never a panic, so the master decides what a
//! failed job means (a retry under supervision, the end of the run
//! otherwise; `docs/FAULTS.md`).

use crate::config::RunCtx;
use crate::instrument;
use crate::robin_hood::FarmError;
use crate::strategy::{recover_problem_recorded, Transmission};
use crate::supervisor::SupervisorConfig;
use crate::wire::{batch_reply_value, decode_batch, Answer, BatchItem, JobMsg};
use minimpi::{Comm, MpiBuf, MpiError, Status};
use nspval::Value;

/// How jobs are framed on a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// Fig. 4: a name message `[path, idx]`, then (loaded strategies) one
    /// packed payload; one answer object back; the stop sentinel is an
    /// empty matrix.
    PerJob,
    /// §5 batching: one packed list of `{idx, name, payload?}` items,
    /// one packed columnar reply; the stop sentinel is an empty message.
    Batch,
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
            Framing::Batch => comm.send(&[], rank as i32, self.tag),
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
    Job(BatchItem),
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
    let master = link.master as i32;
    let serve = || -> Result<(), FarmError> {
        loop {
            comm.set_job(None);
            match link.framing {
                Framing::PerJob => {
                    let answer = match recv_job(comm, link, strategy, patience)? {
                        Turn::Stop => return Ok(()),
                        Turn::Again => continue,
                        Turn::Lost(idx, why) => Answer::failed(idx, why),
                        Turn::Job(job) => price_one(comm, ctx, strategy, &job),
                    };
                    comm.send_obj(&answer.to_value(), master, link.tag)?;
                }
                Framing::Batch => {
                    let Some(jobs) = recv_batch(comm, link)? else {
                        return Ok(());
                    };
                    let price = |job| price_one(comm, ctx, strategy, job);
                    let answers: Vec<Answer> = jobs.iter().map(price).collect();
                    comm.set_job(None);
                    let packed = comm.pack(&batch_reply_value(&answers));
                    comm.send(packed.bytes(), master, link.tag)?;
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
fn price_one(comm: &Comm, ctx: &RunCtx, strategy: Transmission, job: &BatchItem) -> Answer {
    let idx = job.idx;
    comm.set_job(Some(idx));
    let priced = recover_problem_recorded(comm, ctx, strategy, &job.name, job.payload.as_ref())
        .map_err(|e| e.to_string())
        .and_then(|problem| {
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
    let job = |payload| Turn::Job(BatchItem { idx, name, payload });
    if strategy == Transmission::Nfs {
        return Ok(job(None));
    }
    let buf = match patience {
        None => recv_packed(comm, master, tag)?.0,
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

/// Probe → size a buffer → receive: Fig. 4's receive of a packed message.
pub(crate) fn recv_packed(comm: &Comm, src: i32, tag: i32) -> Result<(MpiBuf, Status), MpiError> {
    let st = comm.probe(src, tag)?;
    let mut buf = MpiBuf::with_capacity(st.count());
    comm.recv_into(&mut buf, st.src as i32, tag)?;
    Ok((buf, st))
}

/// Receive one batch request; `None` is the empty stop message.
fn recv_batch(comm: &Comm, link: Link) -> Result<Option<Vec<BatchItem>>, FarmError> {
    let (master, tag) = (link.master as i32, link.tag);
    let st = comm.probe(master, tag)?;
    if st.count() == 0 {
        comm.recv(master, tag)?;
        return Ok(None);
    }
    let (buf, _) = recv_packed(comm, master, tag)?;
    decode_batch(&comm.unpack(&buf)?).map(Some)
}
