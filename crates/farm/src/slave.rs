//! The farm's one slave loop — Fig. 4's `if mpi_rank <> 0` branch.
//!
//! Every master is rank 0 — the flat farm's (plain or supervised) and a
//! `serve::Session`'s front loop — and every other rank runs
//! [`serve_jobs`] (the module is public for the session's resident
//! slaves). Every link speaks one wire, on one tag ([`TAG`]): a
//! [`crate::wire::JobFrame`] in — of serialized problems or of names,
//! one member or many — one columnar reply out ([`encode_reply`]),
//! and the empty message as the stop sentinel. What differs between
//! masters is data: under supervision, the patience that bounds the
//! wait. Every member is priced with the sequential
//! [`PremiaProblem::compute`], so a price depends on the problem alone,
//! never on the master or the rank that computed it. A job the slave
//! cannot read, decode or price is *answered* —
//! [`Answer::Failed`] — never dropped and never a panic (a kernel that
//! panics is caught in [`price_one`]), so the master decides what a
//! failed job means (a retry under supervision, the end of the run
//! otherwise; `docs/FAULTS.md`).

use crate::instrument;
use crate::robin_hood::FarmError;
use crate::strategy::recover_member;
use crate::supervisor::SupervisorConfig;
use crate::wire::{decode_frame, encode_reply, Answer};
use minimpi::{Comm, MpiError};
use obs::EventKind;
use pricing::PremiaProblem;
use std::any::Any;
use std::borrow::Borrow;
use std::panic::{self, AssertUnwindSafe};
use store::DirStore;

/// The message tag of every message between a master and its slaves:
/// the flat farm's and a session's (their worlds never meet).
pub const TAG: i32 = 7;

/// Serve job frames from the master, rank 0, until its stop sentinel —
/// the whole body of a compute rank. A cycle is two `Comm` ops: `recv` the
/// frame, `send` the reply (`docs/FAULTS.md` derives fault indices from
/// that). `patience` is the supervised slave's bound on its one wait
/// ([`SupervisorConfig::slave_idle_timeout`]; `Duration::MAX`, a
/// session's, waits forever): an idle window of silence ends the loop,
/// a fault-truncated frame is discarded (one more op) and an
/// undecodable one skipped — the master's deadline requeues what either
/// carried. `None` blocks in `recv` exactly as Fig. 4 does and reads no
/// clock.
///
/// Only the *link* can fail here (a poisoned world, a frame the codec
/// cannot read), never a job. A supervised slave then leaves, and so
/// does one whose idle window ran out; either way it first marks its
/// own rank dead ([`Comm::leave`]), so the master's liveness sweep buries
/// it and the deadlines move its work elsewhere — or, with every slave
/// gone, the run ends in [`FarmError::AllSlavesDead`] instead of
/// waiting out each deadline. An unsupervised slave has nobody to tell,
/// so it panics: that poisons the world, which wakes every parked peer
/// with an error instead of leaving it blocked on a rank that is gone.
/// The stop sentinel ends either loop without a mark.
pub fn serve_jobs(comm: &Comm, patience: Option<&SupervisorConfig>) {
    let store = DirStore::new();
    // `Ok(true)`: the stop sentinel; `Ok(false)`: the idle window ran out.
    let serve = || -> Result<bool, FarmError> {
        loop {
            let frame = match patience {
                None => comm.recv(0, TAG)?.0,
                Some(p) => match comm.recv_timeout(0, TAG, p.slave_idle_timeout) {
                    Ok(Some((frame, _))) => frame,
                    Ok(None) => return Ok(false),
                    Err(MpiError::Truncated { .. }) => {
                        comm.discard(0, TAG)?;
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                },
            };
            if frame.is_empty() {
                return Ok(true);
            }
            let members = match decode_frame(&frame) {
                Ok(members) => members,
                Err(_) if patience.is_some() => continue,
                Err(e) => return Err(e),
            };
            // Every member is priced from the frame's own bytes.
            let price = |(idx, body)| price_one(comm, idx, || recover_member(comm, &store, body));
            let answers: Vec<Answer> = members.into_iter().map(price).collect();
            comm.set_job(None);
            // The reply is written into the frame just priced and moves
            // back to the master, so a warmed link allocates no message.
            let t0 = instrument::t0(comm);
            let reply = encode_reply(&answers, frame);
            instrument::span(comm, EventKind::Serialize, t0, reply.len() as u64);
            comm.send(reply, 0, TAG)?;
        }
    };
    match serve() {
        Ok(true) => {}
        Err(e) if patience.is_none() => {
            panic!("farm slave {}: link to master failed: {e}", comm.rank())
        }
        Ok(false) | Err(_) => comm.leave(),
    }
}

/// Recover and price one job as wire job `idx`, recording its `Compute`
/// span on the calling rank. Every local failure — an unreadable file,
/// an undecodable problem, a method that rejects its inputs, a kernel
/// that panics — becomes the answer. A slave calls it for every frame
/// member, and a session's front loop for every member of a batch it
/// prices itself, with the problem it already holds.
pub fn price_one<P: Borrow<PremiaProblem>>(
    comm: &Comm,
    idx: usize,
    recover: impl FnOnce() -> Result<P, xdrser::XdrError>,
) -> Answer {
    comm.set_job(Some(idx));
    let priced = recover().map_err(|e| e.to_string()).and_then(|problem| {
        let compute = || instrument::compute_recorded(comm, problem.borrow());
        match panic::catch_unwind(AssertUnwindSafe(compute)) {
            Ok(priced) => priced.map_err(|e| format!("compute failed: {e}")),
            Err(panic) => Err(format!("compute panicked: {}", panic_message(&*panic))),
        }
    });
    match priced {
        Ok(result) => Answer::priced(idx, &result),
        Err(why) => Answer::failed(idx, why),
    }
}

/// The text a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-text payload")
}

#[cfg(test)]
mod tests {
    use super::price_one;
    use crate::config::{run, FarmConfig};
    use crate::portfolio::{save_portfolio, toy_portfolio};
    use crate::robin_hood::FarmError;
    use crate::strategy::Transmission;
    use crate::wire::Answer;
    use minimpi::World;
    use pricing::{OptionSpec, PremiaProblem};
    use std::borrow::Borrow;
    use xdrser::XdrWriter;

    /// A Heston call with a negative strike: refused before any kernel.
    fn refused() -> PremiaProblem {
        let mut p = PremiaProblem::create("Heston1dim", "CallEuro", "CF").unwrap();
        p.option = OptionSpec::Call {
            strike: -1.0,
            maturity: 1.0,
        };
        p
    }

    /// A down-and-out call whose barrier is above its strike: terms the
    /// closed form cannot price, refused before its kernel.
    fn barrier_above_strike() -> PremiaProblem {
        let mut p = PremiaProblem::create("BlackScholes1dim", "CallDownOut", "CF").unwrap();
        p.option = OptionSpec::DownOutCall {
            strike: 90.0,
            barrier: 95.0,
            maturity: 1.0,
        };
        p
    }

    #[test]
    fn a_bad_problem_fails_its_job_and_never_poisons_the_world() {
        for (name, problem, why) in [
            ("heston_cf", refused(), "compute failed: "),
            ("barrier_cf", barrier_above_strike(), "compute failed: "),
        ] {
            let mut jobs = toy_portfolio(4);
            jobs[2].problem = problem;
            let dir = std::env::temp_dir().join(format!("farm_slave_bad_{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            let files = save_portfolio(&jobs, &dir).unwrap();
            let ran = run(&files, &FarmConfig::new(2, Transmission::SerializedLoad));
            std::fs::remove_dir_all(&dir).ok();
            match ran {
                Err(FarmError::JobFailed { job: 2, why: w }) => {
                    assert!(w.starts_with(why), "{name}: {w}")
                }
                other => panic!("{name}: expected job 2 to fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_problem_file_nested_past_the_bound_fails_its_job_under_every_strategy() {
        // 10 000 one-item lists around nothing: an 80 KB file whose
        // value, read recursively, overflowed the reader's stack. After
        // the magic and version, a list is its tag (4) and its count; 7
        // is the absent value.
        let mut w = XdrWriter::new();
        w.put_u32(u32::from_be_bytes(*b"NSPS"));
        w.put_u32(1);
        for _ in 0..10_000 {
            w.put_u32(4);
            w.put_u32(1);
        }
        w.put_u32(7);
        let deep = w.into_bytes();
        for strategy in Transmission::ALL {
            let dir = std::env::temp_dir().join(format!("farm_slave_deep_{strategy:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            let files = save_portfolio(&toy_portfolio(4), &dir).unwrap();
            std::fs::write(&files[1], &deep).unwrap();
            let ran = run(&files, &FarmConfig::new(2, strategy));
            std::fs::remove_dir_all(&dir).ok();
            match ran {
                Err(FarmError::JobFailed { job: 1, why }) => {
                    assert!(why.contains("nested deeper than 128"), "{strategy}: {why}")
                }
                other => panic!("{strategy}: expected job 1 to fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_panic_while_pricing_is_the_jobs_answer() {
        /// A problem that panics when the slave reaches for it.
        struct Panics;
        impl Borrow<PremiaProblem> for Panics {
            fn borrow(&self) -> &PremiaProblem {
                panic!("no problem here")
            }
        }
        let answers = World::run(1, |comm| price_one(&comm, 5, || Ok(Panics)));
        match &answers[0] {
            Answer::Failed { job: 5, why } => assert_eq!(why, "compute panicked: no problem here"),
            other => panic!("expected a failed answer, got {other:?}"),
        }
    }
}
