//! Communicators and point-to-point / collective operations.
//!
//! Since the `transport` crate landed, the mailbox/matching machinery
//! lives behind the [`Transport`] trait: a [`Comm`] is one rank's typed,
//! fault-aware, instrumented view of the backend its world was built on
//! — the in-process channels of [`crate::World`] and
//! [`crate::SpawnedWorld`]. Fault injection and observability stay here,
//! *above* the wire: a `FaultPlan`'s verdicts are mapped onto what the
//! backend can express (drops never sent, truncations sent short,
//! delays carried as frame metadata, kills marked group-wide).
//!
//! A send that finds its receiver parked does not wake it: the wake is
//! owed, and issued at the top of this rank's next operation (a send to
//! the same rank joins it), in [`Comm::leave`], in [`Comm::barrier`] and
//! when the `Comm` is dropped. MPI promises no more — a message is only
//! sure to progress once its sender calls into the library again — and
//! it makes Fig. 4's name + payload hand-off, and every send followed by
//! a receive, cost the receiver one wake-up.

use crate::buf::MpiBuf;
use crate::error::MpiError;
use crate::fault::{Cursor, FaultPlan, SendFault};
use nspval::Value;
use obs::{Event, EventKind, Recorder, NO_JOB};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{Frame, OwedWake, Payload, Transport, TransportError};

/// Delivery status of a matched message (MPI_Status): source rank, tag and
/// payload size in bytes (`MPI_Get_count` / `MPI_Get_elements`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Source rank of the matched message.
    pub src: usize,
    /// Tag of the matched message.
    pub tag: i32,
    len: usize,
}

impl Status {
    /// `MPI_Get_count` / `MPI_Get_elements`: the message size in bytes.
    pub fn count(&self) -> usize {
        self.len
    }
}

fn status_of(frame: &Frame) -> Status {
    Status {
        src: frame.src,
        tag: frame.tag,
        len: frame.full_len,
    }
}

/// Map a transport failure onto the communicator error surface.
fn map_err(e: TransportError) -> MpiError {
    match e {
        TransportError::Dead(rank) => MpiError::Poisoned(rank),
        TransportError::Disconnected => MpiError::Disconnected,
        TransportError::Truncated { needed, capacity } => MpiError::Truncated { needed, capacity },
        TransportError::Io(msg) => MpiError::Transport(msg),
    }
}

/// A communicator handle owned by one rank — the paper's
/// `MPI_COMM_WORLD` / merged `NEWORLD` objects.
///
/// Cloning is not allowed (each rank holds exactly one endpoint); the
/// handle is `Send` so `World` can move it into the rank's thread.
pub struct Comm {
    transport: Arc<dyn Transport>,
    rank: usize,
    /// Fault-injection plan consulted on every operation; `None` (the
    /// [`crate::World::run`] default) short-circuits to the fast path.
    plan: Option<Arc<FaultPlan>>,
    /// This rank's place in `plan` ([`FaultPlan::verdict`]).
    at: Cell<Cursor>,
    /// Optional phase-event sink ([`World::run_instrumented`]); `None`
    /// (the default) makes every instrumentation site a no-op that takes
    /// no timestamps.
    ///
    /// [`World::run_instrumented`]: crate::World::run_instrumented
    recorder: Option<Arc<Recorder>>,
    /// Job-attribution context for recorded events ([`Comm::set_job`]).
    job: Cell<i64>,
    /// The wake the last send owes its receiver, and that receiver's
    /// rank; see the module docs for where it is issued.
    owed: Cell<Option<(usize, OwedWake)>>,
}

impl Comm {
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        plan: Option<Arc<FaultPlan>>,
        recorder: Option<Arc<Recorder>>,
    ) -> Self {
        let rank = transport.rank();
        Comm {
            transport,
            rank,
            plan,
            at: Cell::new(Cursor::default()),
            recorder,
            job: Cell::new(NO_JOB),
            owed: Cell::new(None),
        }
    }

    /// A communicator, faulted by `plan` and with no recorder, over a
    /// transport the caller built: rank `transport.rank()` of its group.
    pub fn over(transport: Arc<dyn Transport>, plan: Option<Arc<FaultPlan>>) -> Self {
        Comm::new(transport, plan, None)
    }

    /// The instant `timeout` from now on the transport's clock — or no
    /// deadline when `Instant` cannot hold it, so a timeout of
    /// `Duration::MAX` waits forever instead of panicking.
    fn deadline_after(&self, timeout: Duration) -> Option<Instant> {
        self.transport.now().checked_add(timeout)
    }

    /// Issue the wake the last send left owed, if any.
    pub(crate) fn settle(&self) {
        if let Some((_, wake)) = self.owed.take() {
            wake.issue();
        }
    }

    // ----- observability ----------------------------------------------------

    /// The event recorder wired in by
    /// [`World::run_instrumented`](crate::World::run_instrumented), if any.
    /// Higher layers (the farm) use this to emit their own phase events
    /// into the same stream.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Set the job id attributed to subsequent recorded events on this
    /// rank (`None` clears it). Cheap — a `Cell` store — and meaningful
    /// only when a recorder is installed.
    pub fn set_job(&self, job: Option<usize>) {
        self.job.set(job.map_or(NO_JOB, |j| j as i64));
    }

    /// The current job-attribution context ([`obs::NO_JOB`] when unset).
    /// Higher layers use this to stamp their own events consistently
    /// with the comm-level ones.
    pub fn current_job(&self) -> i64 {
        self.job.get()
    }

    /// Timestamp helper: `Some(now)` only when recording, so un-recorded
    /// runs never touch the clock.
    #[inline]
    fn obs_start(&self) -> Option<u64> {
        self.recorder.as_ref().map(|r| r.now_ns())
    }

    /// Record a span started by [`Comm::obs_start`]. No-op when the
    /// recorder is absent.
    #[inline]
    fn obs_span(&self, kind: EventKind, start: Option<u64>, bytes: usize) {
        if let (Some(rec), Some(t0)) = (&self.recorder, start) {
            rec.record_span(self.rank, kind, self.job.get(), t0, bytes as u64);
        }
    }

    /// Start one operation: issue the wake the last send left owed —
    /// unless this op is a send (`(dest, len)`) to the same rank, which
    /// joins it, so that receiver wakes once to find both frames — then
    /// count the op against the fault plan: what it does to a send, or
    /// `Err(Poisoned(self.rank))` if this rank is already dead or the plan
    /// kills it at this op boundary; a joined wake is issued then too.
    fn pre_op(&self, send: Option<(usize, usize)>) -> Result<SendFault, MpiError> {
        match self.owed.take() {
            Some((to, wake)) if Some(to) == send.map(|(dest, _)| dest) => {
                self.owed.set(Some((to, wake)))
            }
            Some((_, wake)) => wake.issue(),
            None => {}
        }
        self.count_op(send.map(|(_, len)| len))
            .inspect_err(|_| self.settle())
    }

    /// Count one operation against the fault plan (see [`Comm::pre_op`]).
    fn count_op(&self, send: Option<usize>) -> Result<SendFault, MpiError> {
        if self.transport.is_dead(self.rank) {
            return Err(MpiError::Poisoned(self.rank));
        }
        let Some(plan) = &self.plan else {
            return Ok(SendFault::Deliver);
        };
        let mut at = self.at.get();
        let verdict = plan.verdict(self.rank, &mut at, send);
        self.at.set(at);
        match verdict {
            Some(fault) => Ok(fault),
            None => {
                // Group-wide: peers' sends to us must fail fast.
                self.transport.kill(self.rank);
                // Fault path: a self-observed death is an event too.
                if let Some(rec) = &self.recorder {
                    rec.record(Event {
                        kind: EventKind::SlaveDeath,
                        rank: self.rank as u16,
                        job: self.job.get(),
                        start_ns: rec.now_ns(),
                        dur_ns: 0,
                        bytes: 0,
                    });
                }
                Err(MpiError::Poisoned(self.rank))
            }
        }
    }

    /// `MPI_Comm_rank`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// `MPI_Comm_size`.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// `MPI_Wtime`: seconds since the group was created, on the
    /// transport's clock.
    pub fn wtime(&self) -> f64 {
        let t = &self.transport;
        t.now().saturating_duration_since(t.epoch()).as_secs_f64()
    }

    fn check_dest(&self, rank: i32) -> Result<usize, MpiError> {
        if rank < 0 || rank as usize >= self.size() {
            return Err(MpiError::InvalidRank(rank));
        }
        Ok(rank as usize)
    }

    fn check_tag(tag: i32) -> Result<(), MpiError> {
        if tag < 0 {
            return Err(MpiError::InvalidTag(tag));
        }
        Ok(())
    }

    // ----- point to point ---------------------------------------------------

    /// `MPI_Send`: send raw bytes to `dest` with `tag`. A `Vec<u8>` moves
    /// into the message, its allocation handed to the receiver; a slice or
    /// an array is copied once.
    pub fn send(&self, bytes: impl Into<Vec<u8>>, dest: i32, tag: i32) -> Result<(), MpiError> {
        Self::check_tag(tag)?;
        self.send_internal(Payload::Owned(bytes.into()), dest, tag)
    }

    /// The shared send path. The frame is queued quietly: a parked
    /// receiver's wake is left owed ([`Comm::pre_op`]).
    fn send_internal(&self, mut payload: Payload, dest: i32, tag: i32) -> Result<(), MpiError> {
        let dest = self.check_dest(dest)?;
        let t0 = self.obs_start();
        let full_len = payload.len();
        let mut visible_at = None;
        match self.pre_op(Some((dest, full_len)))? {
            SendFault::Deliver => {}
            SendFault::Drop => {
                // Silently lost in flight: the send itself succeeds
                // (and still cost the sender its time).
                self.obs_span(EventKind::Send, t0, full_len);
                return Ok(());
            }
            SendFault::Delay(by) => visible_at = Some(self.transport.now() + by),
            SendFault::Truncate(keep) => payload.truncate(keep),
        }
        let frame = Frame {
            src: self.rank,
            tag,
            payload,
            full_len,
            visible_at,
        };
        let owed = self.transport.send_quiet(dest, frame).map_err(map_err)?;
        // A wake this send joined goes unissued: `owed` wakes the same
        // receiver, and `None` means it is not parked, so it scans its
        // queue, both frames in it, before it next parks.
        self.owed.set(owed.map(|wake| (dest, wake)));
        self.obs_span(EventKind::Send, t0, full_len);
        Ok(())
    }

    /// Transport wait-loop with error mapping.
    fn match_deadline(
        &self,
        src: i32,
        tag: i32,
        deadline: Option<Instant>,
        consume: bool,
    ) -> Result<Option<Frame>, MpiError> {
        self.transport
            .match_deadline(src, tag, deadline, consume)
            .map_err(map_err)
    }

    /// Blocking `MPI_Probe`: wait until a message matching `(src, tag)` is
    /// pending and return its status without consuming it.
    pub fn probe(&self, src: i32, tag: i32) -> Result<Status, MpiError> {
        let t0 = self.obs_start();
        self.pre_op(None)?;
        let m = self
            .match_deadline(src, tag, None, false)?
            .expect("no deadline, so never None");
        self.obs_span(EventKind::Probe, t0, m.full_len);
        Ok(status_of(&m))
    }

    fn recv_message(&self, src: i32, tag: i32) -> Result<Frame, MpiError> {
        Ok(self
            .match_deadline(src, tag, None, true)?
            .expect("no deadline, so never None"))
    }

    /// Blocking `MPI_Recv` into a pre-sized buffer (the Fig. 4 pattern:
    /// probe → `mpibuf_create` → recv), moving the message's bytes in.
    /// Errors with `Truncated` if the message exceeds the buffer capacity.
    pub fn recv_into(&self, buf: &mut MpiBuf, src: i32, tag: i32) -> Result<Status, MpiError> {
        // Peek first so a too-small buffer does not destroy the message.
        let status = self.probe(src, tag)?;
        if status.len > buf.capacity() {
            return Err(MpiError::Truncated {
                needed: status.len,
                capacity: buf.capacity(),
            });
        }
        let t0 = self.obs_start();
        let msg = self.recv_message(status.src as i32, status.tag)?;
        let status = status_of(&msg);
        self.obs_span(EventKind::Recv, t0, msg.payload.len());
        buf.fill(msg.payload.into_vec());
        Ok(status)
    }

    /// Convenience receive returning an owned byte vector.
    pub fn recv(&self, src: i32, tag: i32) -> Result<(Vec<u8>, Status), MpiError> {
        let t0 = self.obs_start();
        self.pre_op(None)?;
        let msg = self.recv_message(src, tag)?;
        let status = status_of(&msg);
        self.obs_span(EventKind::Recv, t0, msg.payload.len());
        Ok((msg.payload.into_vec(), status))
    }

    /// [`Comm::recv`] with a timeout: `Ok(None)` if nothing matching
    /// arrived within `timeout`.
    pub fn recv_timeout(
        &self,
        src: i32,
        tag: i32,
        timeout: Duration,
    ) -> Result<Option<(Vec<u8>, Status)>, MpiError> {
        let t0 = self.obs_start();
        self.pre_op(None)?;
        Ok(self
            .match_deadline(src, tag, self.deadline_after(timeout), true)?
            .map(|msg| {
                let status = status_of(&msg);
                self.obs_span(EventKind::Recv, t0, msg.payload.len());
                (msg.payload.into_vec(), status)
            }))
    }

    /// Drop the next matching visible message — even a fault-truncated one
    /// that [`Comm::recv`] refuses to consume. Returns whether a message
    /// was removed. This is how a protocol clears a mangled frame and
    /// resynchronises.
    pub fn discard(&self, src: i32, tag: i32) -> Result<bool, MpiError> {
        self.pre_op(None)?;
        self.transport.discard(src, tag).map_err(map_err)
    }

    /// Whether `rank`'s mailbox is still accepting traffic (false once a
    /// fault-plan kill took it down).
    pub fn rank_alive(&self, rank: usize) -> bool {
        rank < self.size() && !self.transport.is_dead(rank)
    }

    /// Leave the group: mark this rank dead group-wide, as a fault-plan
    /// kill does. Peers' sends to it fail fast and [`Comm::rank_alive`]
    /// reads false for it, so a master sweeping liveness sees it gone
    /// instead of waiting out a deadline on a rank that will never
    /// answer. A wake the last send left owed is issued first.
    pub fn leave(&self) {
        self.settle();
        self.transport.kill(self.rank);
    }

    // ----- object layer (MPI_Send_Obj / MPI_Recv_Obj) ----------------------

    /// `MPI_Send_Obj`: serialize any value and send it. "These two
    /// functions use internal serialization and packing to transparently
    /// transmit Nsp Objects" (§3.2).
    pub fn send_obj(&self, v: &Value, dest: i32, tag: i32) -> Result<(), MpiError> {
        Self::check_tag(tag)?;
        let t0 = self.obs_start();
        let bytes = xdrser::serialize_to_bytes(v);
        self.obs_span(EventKind::Serialize, t0, bytes.len());
        self.send_internal(Payload::Owned(bytes), dest, tag)
    }

    /// `MPI_Recv_Obj`: receive and deserialize a value. Per §3.2, when the
    /// transmitted object is itself a `Serial`, the receive "directly
    /// unseals" it — the caller gets the inner value.
    pub fn recv_obj(&self, src: i32, tag: i32) -> Result<(Value, Status), MpiError> {
        let (bytes, status) = self.recv(src, tag)?;
        let v = xdrser::unserialize_bytes(&bytes)?;
        let v = match v {
            Value::Serial(s) => xdrser::unserialize(&s)?,
            other => other,
        };
        Ok((v, status))
    }

    // ----- pack / unpack ----------------------------------------------------

    /// `MPI_Pack`: encode a value into a contiguous buffer suitable for
    /// `send`.
    pub fn pack(&self, v: &Value) -> MpiBuf {
        let t0 = self.obs_start();
        let buf = MpiBuf::from_bytes(xdrser::serialize_to_bytes(v));
        self.obs_span(EventKind::Pack, t0, buf.len());
        buf
    }

    /// `MPI_Unpack`: decode a buffer produced by [`Comm::pack`].
    pub fn unpack(&self, buf: &MpiBuf) -> Result<Value, MpiError> {
        let t0 = self.obs_start();
        let v = xdrser::unserialize_bytes(buf.bytes())?;
        self.obs_span(EventKind::Unpack, t0, buf.len());
        Ok(v)
    }

    // ----- collectives ------------------------------------------------------

    /// `MPI_Barrier` over all ranks of this communicator. A wake the
    /// last send left owed is issued first: the receiver may be the rank
    /// this one waits for.
    pub fn barrier(&self) {
        self.settle();
        self.transport.barrier();
    }
}

impl Drop for Comm {
    /// A rank that ends on a send still wakes its receiver.
    fn drop(&mut self) {
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultEvent, World, ANY_SOURCE, ANY_TAG};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use transport::ChannelGroup;

    impl Comm {
        /// [`Comm::probe`] with a timeout: `Ok(None)` if nothing matching
        /// arrived within `timeout`. This is the supervised farm master's
        /// heartbeat primitive.
        fn probe_timeout(
            &self,
            src: i32,
            tag: i32,
            timeout: Duration,
        ) -> Result<Option<Status>, MpiError> {
            let t0 = self.obs_start();
            self.pre_op(None)?;
            let matched = self.match_deadline(src, tag, self.deadline_after(timeout), false)?;
            if let Some(m) = &matched {
                self.obs_span(EventKind::Probe, t0, m.full_len);
            }
            Ok(matched.map(|m| status_of(&m)))
        }

        /// Non-blocking `MPI_Iprobe`.
        fn iprobe(&self, src: i32, tag: i32) -> Result<Option<Status>, MpiError> {
            self.pre_op(None)?;
            let m = self.transport.try_match(src, tag).map_err(map_err)?;
            Ok(m.map(|m| status_of(&m)))
        }

        /// Administratively kill `rank`: its mailbox is poisoned, pending
        /// messages are discarded, blocked waiters wake with
        /// [`MpiError::Poisoned`], and subsequent sends to it fail fast. This
        /// is the test harness's "pull the network cable" lever; the fault
        /// plan's kill schedule uses the same underlying mechanism.
        fn sever(&self, rank: i32) -> Result<(), MpiError> {
            let rank = self.check_dest(rank)?;
            self.transport.kill(rank);
            Ok(())
        }
    }

    #[test]
    fn rank_and_size() {
        let out = World::run(4, |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn send_recv_bytes() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(b"hello", 1, 3).unwrap();
                Vec::new()
            } else {
                let (bytes, st) = c.recv(0, 3).unwrap();
                assert_eq!(st.src, 0);
                assert_eq!(st.tag, 3);
                assert_eq!(st.count(), 5);
                bytes
            }
        });
        assert_eq!(out[1], b"hello");
    }

    #[test]
    fn recv_any_source_any_tag() {
        let out = World::run(3, |c| {
            if c.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (bytes, st) = c.recv(ANY_SOURCE, ANY_TAG).unwrap();
                    seen.push((st.src, bytes[0]));
                }
                seen.sort();
                seen
            } else {
                c.send([c.rank() as u8], 0, c.rank() as i32).unwrap();
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn tag_selective_recv_out_of_order() {
        // Send tag 1 then tag 2; receiver asks for tag 2 first.
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send([1], 1, 1).unwrap();
                c.send([2], 1, 2).unwrap();
                (0, 0)
            } else {
                let (b2, _) = c.recv(0, 2).unwrap();
                let (b1, _) = c.recv(0, 1).unwrap();
                (b1[0], b2[0])
            }
        });
        assert_eq!(out[1], (1, 2));
    }

    #[test]
    fn probe_then_sized_recv_like_fig4() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send([7; 100], 1, 5).unwrap();
                0
            } else {
                let st = c.probe(ANY_SOURCE, ANY_TAG).unwrap();
                let mut buf = MpiBuf::with_capacity(st.count());
                let st2 = c.recv_into(&mut buf, st.src as i32, st.tag).unwrap();
                assert_eq!(st2.count(), 100);
                buf.len()
            }
        });
        assert_eq!(out[1], 100);
    }

    #[test]
    fn probe_does_not_consume() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send([1, 2, 3], 1, 0).unwrap();
                true
            } else {
                let s1 = c.probe(0, 0).unwrap();
                let s2 = c.probe(0, 0).unwrap();
                assert_eq!(s1, s2);
                let (b, _) = c.recv(0, 0).unwrap();
                b == vec![1, 2, 3]
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn truncated_recv_is_error_and_preserves_message() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send([9; 32], 1, 0).unwrap();
                true
            } else {
                let mut small = MpiBuf::with_capacity(8);
                match c.recv_into(&mut small, 0, 0) {
                    Err(MpiError::Truncated {
                        needed: 32,
                        capacity: 8,
                    }) => {}
                    other => panic!("expected truncation, got {other:?}"),
                }
                // Message still deliverable afterwards.
                let (b, _) = c.recv(0, 0).unwrap();
                b.len() == 32
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn iprobe_nonblocking() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                // Nothing pending yet for us.
                let none = c.iprobe(ANY_SOURCE, ANY_TAG).unwrap();
                c.send([1], 1, 0).unwrap();
                none.is_none()
            } else {
                let (_, _) = c.recv(0, 0).unwrap();
                true
            }
        });
        assert!(out[0] && out[1]);
    }

    #[test]
    fn send_obj_round_trips_values() {
        use nspval::Matrix;
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                let v = Value::list(vec![
                    Value::string("string"),
                    Value::boolean(true),
                    Value::Real(Matrix::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0])),
                ]);
                c.send_obj(&v, 1, 9).unwrap();
                None
            } else {
                let (v, st) = c.recv_obj(0, 9).unwrap();
                assert_eq!(st.src, 0);
                Some(v)
            }
        });
        let v = out[1].as_ref().unwrap();
        let l = v.as_list().unwrap();
        assert_eq!(l.get(0).unwrap().as_str(), Some("string"));
        assert_eq!(l.get(2).unwrap().as_matrix().unwrap().get(1, 0), 3.0);
    }

    #[test]
    fn send_serial_is_unsealed_on_recv_obj() {
        // §3.2: A=sparse-ish value; S=serialize(A); MPI_Send_Obj(S,...);
        // B=MPI_Recv_Obj(...); B.equal[A] is true.
        let out = World::run(2, |c| {
            let a = Value::list(vec![Value::scalar(5.0), Value::string("x")]);
            if c.rank() == 0 {
                let s = xdrser::serialize(&a);
                c.send_obj(&Value::Serial(s), 1, 0).unwrap();
                true
            } else {
                let (b, _) = c.recv_obj(0, 0).unwrap();
                b.equal(&a)
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn pack_send_unpack_like_paper() {
        // P=MPI_Pack(H,MCW); MPI_Send(P,...); probe; mpibuf_create;
        // MPI_Recv; H1=MPI_Unpack(B,MCW).
        let out = World::run(2, |c| {
            let mut h = nspval::Hash::new();
            h.set("A", Value::Bool(nspval::BoolMatrix::row(vec![true, false])));
            h.set(
                "B",
                Value::list(vec![
                    Value::string("foo"),
                    Value::Real(nspval::Matrix::range(1.0, 4.0)),
                ]),
            );
            let hv = Value::Hash(h);
            if c.rank() == 0 {
                let p = c.pack(&hv);
                c.send(p.bytes(), 1, 4).unwrap();
                true
            } else {
                let st = c.probe(-1, -1).unwrap();
                let mut b = MpiBuf::with_capacity(st.count());
                c.recv_into(&mut b, 0, 4).unwrap();
                let h1 = c.unpack(&b).unwrap();
                h1.equal(&hv)
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn invalid_rank_and_tag_rejected() {
        World::run(2, |c| {
            if c.rank() == 0 {
                assert!(matches!(c.send([1], 5, 0), Err(MpiError::InvalidRank(5))));
                assert!(matches!(c.send([1], -2, 0), Err(MpiError::InvalidRank(-2))));
                assert!(matches!(c.send([1], 1, -3), Err(MpiError::InvalidTag(-3))));
            }
        });
    }

    #[test]
    fn barrier_synchronises() {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        COUNTER.store(0, Ordering::SeqCst);
        let out = World::run(4, |c| {
            COUNTER.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must see all 4 increments.
            COUNTER.load(Ordering::SeqCst)
        });
        assert_eq!(out, vec![4, 4, 4, 4]);
    }

    #[test]
    fn barrier_reusable() {
        let out = World::run(3, |c| {
            for _ in 0..5 {
                c.barrier();
            }
            c.rank()
        });
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn wtime_monotone() {
        World::run(1, |c| {
            let a = c.wtime();
            let b = c.wtime();
            assert!(b >= a);
        });
    }

    // ----- negative paths under fault injection ----------------------------

    #[test]
    fn send_to_severed_rank_fails_fast_not_deadlock() {
        let out = World::run(3, |c| {
            if c.rank() == 0 {
                c.barrier(); // wait until rank 2 is severed
                match c.send([1, 2, 3], 2, 0) {
                    Err(MpiError::Poisoned(2)) => true,
                    other => panic!("expected Poisoned(2), got {other:?}"),
                }
            } else if c.rank() == 1 {
                c.sever(2).unwrap();
                c.barrier();
                true
            } else {
                // Rank 2 must not block the others; it just waits out the
                // barrier (the barrier is group state, not mailbox traffic).
                c.barrier();
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn recv_on_dead_mailbox_wakes_blocked_waiter() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                // Block in recv with nothing pending; rank 1 severs us.
                match c.recv(ANY_SOURCE, ANY_TAG) {
                    Err(MpiError::Poisoned(0)) => true,
                    other => panic!("expected Poisoned(0), got {other:?}"),
                }
            } else {
                // Give rank 0 time to block, then pull the cable.
                std::thread::sleep(Duration::from_millis(30));
                c.sever(0).unwrap();
                true
            }
        });
        assert!(out[0] && out[1]);
    }

    #[test]
    fn killed_rank_fails_its_own_ops_and_peer_sends_fail_fast() {
        use std::sync::Arc;
        // Rank 1 dies at its very first MPI call.
        let plan = Arc::new(FaultPlan::new(9).kill_rank_at_op(1, 0));
        let events = Arc::clone(&plan);
        let out = World::run_instrumented(2, Some(plan), None, |c| {
            if c.rank() == 1 {
                match c.recv(0, 0) {
                    Err(MpiError::Poisoned(1)) => true,
                    other => panic!("expected Poisoned(1), got {other:?}"),
                }
            } else {
                // Keep trying until the kill has landed; a send must then
                // fail fast instead of queueing forever.
                loop {
                    match c.send([42], 1, 0) {
                        Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                        Err(MpiError::Poisoned(1)) => return true,
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                }
            }
        });
        assert!(out[0] && out[1]);
        assert!(events
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::Killed { rank: 1, op: 0 })));
    }

    #[test]
    fn injected_truncation_surfaces_error_and_preserves_message() {
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new(1).force_send(0, 0, SendFault::Truncate(4)));
        let out = World::run_instrumented(2, Some(plan), None, |c| {
            if c.rank() == 0 {
                c.send([7u8; 32], 1, 3).unwrap();
                true
            } else {
                // Probe still advertises the full length.
                let st = c.probe(0, 3).unwrap();
                assert_eq!(st.count(), 32);
                // Receive refuses the mangled frame but keeps it queued.
                match c.recv(0, 3) {
                    Err(MpiError::Truncated {
                        needed: 32,
                        capacity: 4,
                    }) => {}
                    other => panic!("expected Truncated, got {other:?}"),
                }
                match c.recv(0, 3) {
                    Err(MpiError::Truncated { .. }) => {}
                    other => panic!("message should still be queued, got {other:?}"),
                }
                // A protocol resynchronises by discarding the frame.
                assert!(c.discard(0, 3).unwrap());
                assert!(!c.discard(0, 3).unwrap());
                true
            }
        });
        assert!(out[0] && out[1]);
    }

    #[test]
    fn injected_delay_defers_visibility() {
        use std::sync::Arc;
        let by = Duration::from_millis(40);
        let plan = Arc::new(FaultPlan::new(2).force_send(0, 0, SendFault::Delay(by)));
        let out = World::run_instrumented(2, Some(plan), None, |c| {
            if c.rank() == 0 {
                c.send([1], 1, 0).unwrap();
                c.barrier();
                Duration::ZERO
            } else {
                c.barrier(); // the message is already in flight
                             // Invisible now...
                assert!(c.iprobe(0, 0).unwrap().is_none());
                let t0 = Instant::now();
                let (_, _) = c.recv(0, 0).unwrap();
                t0.elapsed()
            }
        });
        assert!(out[1] >= Duration::from_millis(20), "woke at {:?}", out[1]);
    }

    #[test]
    fn dropped_message_never_arrives_and_timeout_expires() {
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new(3).force_send(0, 0, SendFault::Drop));
        let out = World::run_instrumented(2, Some(plan), None, |c| {
            if c.rank() == 0 {
                c.send([9; 8], 1, 1).unwrap(); // silently lost
                true
            } else {
                let got = c.recv_timeout(0, 1, Duration::from_millis(50)).unwrap();
                got.is_none()
            }
        });
        assert!(out[0] && out[1]);
    }

    #[test]
    fn recv_timeout_returns_message_when_present() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send([5, 6], 1, 2).unwrap();
                Vec::new()
            } else {
                let (bytes, st) = c
                    .recv_timeout(ANY_SOURCE, 2, Duration::from_secs(5))
                    .unwrap()
                    .expect("message was sent");
                assert_eq!(st.src, 0);
                bytes
            }
        });
        assert_eq!(out[1], vec![5, 6]);
    }

    #[test]
    fn a_timeout_past_the_clock_range_waits_without_a_deadline() {
        // `now + Duration::MAX` overflows `Instant`: the timed receive
        // and probe treat it as "no deadline" and take what comes later.
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(50));
                c.send([5, 6], 1, 1).unwrap();
                c.send_obj(&Value::scalar(3.0), 1, 2).unwrap();
                return None;
            }
            let probed = c.probe_timeout(0, 1, Duration::MAX).unwrap();
            let (bytes, _) = c.recv_timeout(0, 1, Duration::MAX).unwrap().unwrap();
            let (obj, _) = c.recv_timeout(0, 2, Duration::MAX).unwrap().unwrap();
            let v = xdrser::unserialize_bytes(&obj).unwrap();
            Some((probed.map(|st| st.count()), bytes, v.as_scalar()))
        });
        assert_eq!(out[1], Some((Some(2), vec![5, 6], Some(3.0))));
    }

    #[test]
    fn probe_timeout_expires_quietly() {
        World::run(1, |c| {
            let t0 = Instant::now();
            let r = c
                .probe_timeout(ANY_SOURCE, ANY_TAG, Duration::from_millis(30))
                .unwrap();
            assert!(r.is_none());
            assert!(t0.elapsed() >= Duration::from_millis(25));
        });
    }

    #[test]
    fn inert_plan_is_transparent() {
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new(1234));
        assert!(plan.is_inert());
        let events = Arc::clone(&plan);
        let out = World::run_instrumented(2, Some(plan), None, |c| {
            if c.rank() == 0 {
                for i in 0..20u8 {
                    c.send([i], 1, 0).unwrap();
                }
                Vec::new()
            } else {
                (0..20).map(|_| c.recv(0, 0).unwrap().0[0]).collect()
            }
        });
        assert_eq!(out[1], (0..20).collect::<Vec<u8>>());
        assert!(events.events().is_empty());
    }

    // ----- deferred wakes ------------------------------------------------

    /// Run `f` on its own thread and fail if it is still going after
    /// 20 s: a lost wake-up is a hang, and a hang must fail the test, not
    /// the suite.
    fn hang_guard<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = transport::queue::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(Some(v)) => {
                worker.join().expect("the case returned");
                v
            }
            Ok(None) => panic!("{what}: still blocked after 20 s (a lost wake-up)"),
            Err(_) => std::panic::resume_unwind(worker.join().unwrap_err()),
        }
    }

    /// `n` ranks on one channel group, built directly so a test can see
    /// who is parked and count the wake-ups each rank was sent.
    fn group_world(n: usize, plan: Option<Arc<FaultPlan>>) -> (Arc<ChannelGroup>, Vec<Comm>) {
        let group = ChannelGroup::new(n);
        let comms = (0..n)
            .map(|r| Comm::new(Arc::new(group.endpoint(r)), plan.clone(), None))
            .collect();
        (group, comms)
    }

    /// Spin until `rank` is parked in a receive: forces the interleaving
    /// a deferred wake is about, without a sleep.
    fn until_parked(group: &ChannelGroup, rank: usize) {
        while !group.parked(rank) {
            std::thread::yield_now();
        }
    }

    /// Rank 1 parks in `recv(0, 0)`; rank 0 waits for that, sends it one
    /// byte — which leaves the wake owed — and then runs `then`, which
    /// must wake it. Rank 0's `Comm` outlives rank 1, so the drop is not
    /// what wakes it. Returns what rank 1 received and the wake-ups it
    /// was sent.
    fn owed_then(plan: Option<Arc<FaultPlan>>, then: fn(&Comm)) -> (Vec<u8>, usize) {
        let (group, mut comms) = group_world(2, plan);
        let receiver = comms.pop().unwrap();
        let sender = comms.pop().unwrap();
        let receiver = std::thread::spawn(move || receiver.recv(0, 0).unwrap().0);
        until_parked(&group, 1);
        sender.send([42], 1, 0).unwrap();
        assert_eq!(group.notifies(1), 0, "the send left the wake owed");
        then(&sender);
        let got = receiver.join().unwrap();
        drop(sender);
        (got, group.notifies(1))
    }

    #[test]
    fn the_next_op_issues_the_owed_wake() {
        let got = hang_guard("next op", || {
            owed_then(None, |c| {
                let _ = c.recv_timeout(1, 9, Duration::from_millis(1));
            })
        });
        assert_eq!(got, (vec![42], 1));
    }

    #[test]
    fn a_rank_that_ends_on_a_send_still_wakes_its_receiver() {
        let got = hang_guard("last op a send", || {
            let (group, mut comms) = group_world(2, None);
            let receiver = comms.pop().unwrap();
            let sender = comms.pop().unwrap();
            let receiver = std::thread::spawn(move || receiver.recv(0, 0).unwrap().0);
            until_parked(&group, 1);
            // The rank's whole body: one send, then it returns.
            let rank0 = move |c: Comm| c.send([7], 1, 0).unwrap();
            rank0(sender);
            (receiver.join().unwrap(), group.notifies(1))
        });
        assert_eq!(got, (vec![7], 1));
    }

    #[test]
    fn leave_after_a_send_wakes_the_receiver() {
        let got = hang_guard("leave", || owed_then(None, Comm::leave));
        assert_eq!(got, (vec![42], 1));
    }

    #[test]
    fn a_kill_at_the_op_after_a_deferred_send_still_wakes_the_receiver() {
        // Op 0 is the deferred send, op 1 kills rank 0: once as a
        // receive, once as a second send to the same rank, which joins
        // the owed wake before the kill lands.
        let kill = || Some(Arc::new(FaultPlan::new(5).kill_rank_at_op(0, 1)));
        let got = hang_guard("kill at a receive", move || {
            owed_then(kill(), |c| {
                assert!(matches!(c.recv(1, 0), Err(MpiError::Poisoned(0))));
            })
        });
        assert_eq!(got, (vec![42], 1));
        let got = hang_guard("kill at a joined send", move || {
            owed_then(kill(), |c| {
                assert!(matches!(c.send([43], 1, 0), Err(MpiError::Poisoned(0))));
            })
        });
        assert_eq!(got, (vec![42], 1));
    }

    #[test]
    fn a_barrier_after_a_send_wakes_the_receiver() {
        let got = hang_guard("barrier", || {
            let (group, mut comms) = group_world(2, None);
            let receiver = comms.pop().unwrap();
            let sender = comms.pop().unwrap();
            let receiver = std::thread::spawn(move || {
                let (got, _) = receiver.recv(0, 0).unwrap();
                receiver.barrier();
                got
            });
            until_parked(&group, 1);
            sender.send([9], 1, 0).unwrap();
            // The rank it waits for is the one its send left asleep.
            sender.barrier();
            receiver.join().unwrap()
        });
        assert_eq!(got, vec![9]);
    }

    #[test]
    fn fig4_name_and_payload_cost_the_slave_one_wake_per_job() {
        // Fig. 4's hand-off: the master sends a job's name, then its
        // packed object, and then waits for the answer; the slave parks
        // on the name, probes and receives the payload, and answers. With
        // the slave parked at every name, each job must wake it once —
        // the master's receive issues it, with both frames queued.
        const JOBS: usize = 300;
        const TAG: i32 = 7;
        let (slave_wakes, master_wakes) = hang_guard("fig4 hand-off", || {
            let (group, mut comms) = group_world(2, None);
            let slave = comms.pop().unwrap();
            let master = comms.pop().unwrap();
            let slave = std::thread::spawn(move || loop {
                let (name, _) = slave.recv_obj(0, TAG).unwrap();
                if name.as_str() == Some("") {
                    return;
                }
                let st = slave.probe(0, TAG).unwrap();
                let mut buf = MpiBuf::with_capacity(st.count());
                slave.recv_into(&mut buf, 0, TAG).unwrap();
                let job = slave.unpack(&buf).unwrap();
                slave.send_obj(&job, 0, TAG).unwrap();
            });
            for k in 0..JOBS {
                until_parked(&group, 1);
                master.send_obj(&Value::string("pb"), 1, TAG).unwrap();
                let packed = master.pack(&Value::scalar(k as f64));
                master.send(packed.bytes(), 1, TAG).unwrap();
                let (answer, _) = master.recv_obj(1, TAG).unwrap();
                assert_eq!(answer.as_scalar(), Some(k as f64));
            }
            until_parked(&group, 1);
            master.send_obj(&Value::string(""), 1, TAG).unwrap();
            drop(master);
            slave.join().unwrap();
            (group.notifies(1), group.notifies(0))
        });
        assert_eq!(
            slave_wakes,
            JOBS + 1,
            "one wake per job, and one for the stop"
        );
        assert!(
            master_wakes <= JOBS,
            "{master_wakes} wakes for {JOBS} answers"
        );
    }

    #[test]
    fn rank_alive_tracks_kills() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                assert!(c.rank_alive(0) && c.rank_alive(1));
                c.sever(1).unwrap();
                let alive = c.rank_alive(1);
                c.barrier();
                alive
            } else {
                c.barrier();
                true
            }
        });
        assert!(!out[0]);
    }
}
