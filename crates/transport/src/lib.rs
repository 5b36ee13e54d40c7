//! Pluggable point-to-point message transport.
//!
//! The paper's farm ran over a single in-process message world; this crate
//! pulls the wire out from under `minimpi` so the same communicator API can
//! run over different media, the way MatlabMPI ran the same `MPI_Send` /
//! `MPI_Recv` contract over a shared file system. A [`Transport`] is one
//! rank's endpoint in a fixed-size group and promises exactly what the
//! Robin-Hood protocol needs:
//!
//! * **point-to-point** send / matched receive / probe on `(source, tag)`
//!   with `ANY_SOURCE` / `ANY_TAG` wildcards and optional deadlines;
//! * **ordered delivery per pair**: two messages from the same source to
//!   the same destination are matched in send order;
//! * **rank liveness**: a rank can be killed (fault plan or supervisor
//!   lever), after which sends to it fail fast and its own operations
//!   fail, instead of anyone hanging;
//! * **readiness-based timed waits**: a blocked receiver is woken by
//!   message arrival, death, poison or deadline — never by polling — and
//!   a hand-off costs one wake-up: [`Transport::send`] wakes a parked
//!   receiver at once, [`Transport::send_quiet`] hands the sender an
//!   [`OwedWake`] to issue when the frames that belong together are
//!   queued.
//!
//! Three backends ship today, two of them here:
//!
//! * [`ChannelTransport`] — the in-process backend: every rank is a thread,
//!   every mailbox a condvar-guarded deque shared through an `Arc`. This
//!   preserves the historical `minimpi` semantics bit for bit, including
//!   zero-copy [`Payload::Shared`] fan-out.
//! * [`UdsTransport`] — the multi-process backend: ranks are OS processes
//!   connected by a full mesh of Unix-domain sockets exchanging
//!   length-prefixed big-endian (XDR-style) frames. Delivery feeds the
//!   *same* mailbox structure, so matching, wildcards, deadlines and
//!   wakeups behave identically; faults are mapped onto the wire (drops
//!   never sent, truncations sent short with the true advertised length,
//!   delays carried as a header the receiver honours, kills broadcast as
//!   control frames). No `minimpi` world runs on it: it is timed by the
//!   benchmark's `transport.uds_*` layers and held to the channel
//!   backend's behaviour by `tests/transport_conformance.rs`.
//!
//! The third, `clustersim`'s virtual-time world, runs only rank 0: it
//! prices the slaves with the cluster model, answers each job frame at
//! the virtual time the model says and reads that time out through
//! [`Transport::now`], so the live master runs on a simulated cluster.
//!
//! The [`queue`] module hosts the workspace's only raw channel
//! construction; everything else goes through a transport.

#![warn(missing_docs)]

mod channel;
mod error;
mod frame;
mod mailbox;
pub mod queue;
mod uds;

pub use channel::{ChannelGroup, ChannelTransport};
pub use error::TransportError;
pub use frame::{Frame, Payload};
pub use mailbox::OwedWake;
pub use uds::UdsTransport;

use std::time::Instant;

/// Wildcard source for matched receives and probes.
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag for matched receives and probes.
pub const ANY_TAG: i32 = -1;

/// One rank's endpoint in a fixed-size communicator group.
///
/// Implementations must provide ordered delivery per `(source,
/// destination)` pair and wake blocked [`Transport::match_deadline`]
/// callers on message arrival (a [`Transport::send_quiet`] arrival once
/// its [`OwedWake`] is issued), death, poison or deadline expiry.
pub trait Transport: Send + Sync {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks in the group.
    fn size(&self) -> usize;

    /// The instant the group was created (the `MPI_Wtime` origin).
    fn epoch(&self) -> Instant;

    /// The clock every deadline of [`Transport::match_deadline`] is
    /// measured against: the real one (the default), or a simulated
    /// backend's virtual time, so a timed wait ends without waiting.
    fn now(&self) -> Instant {
        Instant::now()
    }

    /// Queue `frame` for delivery to `dest`. Fails fast with
    /// [`TransportError::Dead`] if `dest` is known dead and
    /// [`TransportError::Disconnected`] if the group is torn down.
    fn send(&self, dest: usize, frame: Frame) -> Result<(), TransportError>;

    /// [`Transport::send`] that may leave a parked `dest` asleep:
    /// `Ok(Some(wake))` when `dest` was parked as the frame was queued,
    /// and the caller then owes it that wake; `Ok(None)` when nothing is
    /// owed. A backend with no cheaper way to do this — the default —
    /// sends normally, waking at once.
    fn send_quiet(&self, dest: usize, frame: Frame) -> Result<Option<OwedWake>, TransportError> {
        self.send(dest, frame).map(|()| None)
    }

    /// Wait-loop core shared by probe and receive: block until a message
    /// matching `(src, tag)` (with [`ANY_SOURCE`] / [`ANY_TAG`]
    /// wildcards) is visible in this rank's mailbox, this rank dies, the
    /// group is poisoned, or `deadline` passes. `Ok(None)` means the
    /// deadline expired.
    ///
    /// With `consume == true` the matched frame is removed — unless it
    /// was truncated in flight, in which case
    /// [`TransportError::Truncated`] surfaces and the frame stays queued
    /// so the caller can [`Transport::discard`] it. With `consume ==
    /// false` the returned frame carries the metadata and an empty
    /// payload (a probe).
    fn match_deadline(
        &self,
        src: i32,
        tag: i32,
        deadline: Option<Instant>,
        consume: bool,
    ) -> Result<Option<Frame>, TransportError>;

    /// Non-blocking probe: metadata of the first visible matching frame,
    /// payload left queued.
    fn try_match(&self, src: i32, tag: i32) -> Result<Option<Frame>, TransportError>;

    /// Drop the next visible matching frame — even a truncated one that a
    /// consume refuses. Returns whether a frame was removed.
    fn discard(&self, src: i32, tag: i32) -> Result<bool, TransportError>;

    /// Administratively kill `rank` group-wide: pending messages to it
    /// are discarded, its blocked waits fail, and subsequent sends to it
    /// fail fast. Idempotent.
    fn kill(&self, rank: usize);

    /// Whether `rank` is known dead ([`Transport::kill`]ed).
    fn is_dead(&self, rank: usize) -> bool;

    /// Tear the whole group down: every blocked wait on every rank fails
    /// with [`TransportError::Disconnected`] instead of hanging.
    fn poison(&self);

    /// Block until every rank of the group has arrived. Reusable.
    fn barrier(&self);

    /// Whether a [`Payload::Shared`] send reaches the destination without
    /// copying the bytes (true only for in-process backends). Callers use
    /// this to account copy savings honestly.
    fn shares_memory(&self) -> bool {
        false
    }
}

/// `true` when `msg_src`/`msg_tag` match a `(src, tag)` selector with
/// wildcard support — the single matching rule every backend shares.
pub(crate) fn selector_matches(msg_src: usize, msg_tag: i32, src: i32, tag: i32) -> bool {
    (src == ANY_SOURCE || msg_src == src as usize) && (tag == ANY_TAG || msg_tag == tag)
}
