//! The in-process backend: one mailbox per rank behind an `Arc`,
//! preserving the historical `minimpi` thread-world semantics bit for
//! bit — including the group-state barrier that even severed ranks can
//! pass — and moving each frame's payload to its receiver uncopied.

use crate::error::TransportError;
use crate::frame::Frame;
use crate::mailbox::{Mailbox, OwedWake};
use crate::Transport;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Instant;

struct BarrierState {
    arrived: usize,
    generation: u64,
}

/// Shared state of one in-process communicator group. Create one, then
/// hand each rank its [`ChannelTransport`] endpoint.
pub struct ChannelGroup {
    boxes: Vec<Arc<Mailbox>>,
    barrier: Mutex<BarrierState>,
    barrier_cond: Condvar,
    epoch: Instant,
}

impl ChannelGroup {
    /// A fresh group of `size` ranks.
    pub fn new(size: usize) -> Arc<Self> {
        Arc::new(ChannelGroup {
            boxes: (0..size).map(|r| Arc::new(Mailbox::new(r))).collect(),
            barrier: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            barrier_cond: Condvar::new(),
            epoch: Instant::now(),
        })
    }

    /// Tear the group down: wake every blocked receiver with a poison
    /// flag so nobody deadlocks when a rank panics.
    pub fn poison(&self) {
        for mb in &self.boxes {
            mb.poison();
        }
    }

    /// Whether `rank` is parked in a blocking receive or probe right now
    /// (wake accounting: a test waits on this to force the interleaving
    /// it measures, without a sleep).
    pub fn parked(&self, rank: usize) -> bool {
        self.boxes[rank].parked()
    }

    /// Condvar notifications issued to `rank`'s mailbox so far: the
    /// wake-ups it was sent, counted without a clock.
    pub fn notifies(&self, rank: usize) -> usize {
        self.boxes[rank].notifies()
    }

    /// The endpoint for `rank`.
    pub fn endpoint(self: &Arc<Self>, rank: usize) -> ChannelTransport {
        assert!(rank < self.boxes.len(), "rank out of range");
        ChannelTransport {
            group: Arc::clone(self),
            rank,
        }
    }
}

/// One rank's endpoint in a [`ChannelGroup`].
pub struct ChannelTransport {
    group: Arc<ChannelGroup>,
    rank: usize,
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.group.boxes.len()
    }

    fn epoch(&self) -> Instant {
        self.group.epoch
    }

    fn send(&self, dest: usize, frame: Frame) -> Result<(), TransportError> {
        self.group.boxes[dest].push(frame)
    }

    fn send_quiet(&self, dest: usize, frame: Frame) -> Result<Option<OwedWake>, TransportError> {
        let mailbox = &self.group.boxes[dest];
        Ok(mailbox.push_quiet(frame)?.then(|| OwedWake::new(mailbox)))
    }

    fn match_deadline(
        &self,
        src: i32,
        tag: i32,
        deadline: Option<Instant>,
        consume: bool,
    ) -> Result<Option<Frame>, TransportError> {
        self.group.boxes[self.rank].match_deadline(src, tag, deadline, consume)
    }

    fn try_match(&self, src: i32, tag: i32) -> Result<Option<Frame>, TransportError> {
        self.group.boxes[self.rank].try_match(src, tag)
    }

    fn discard(&self, src: i32, tag: i32) -> Result<bool, TransportError> {
        self.group.boxes[self.rank].discard(src, tag)
    }

    fn kill(&self, rank: usize) {
        self.group.boxes[rank].kill();
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.group.boxes[rank].is_dead()
    }

    fn poison(&self) {
        self.group.poison();
    }

    fn barrier(&self) {
        let size = self.size();
        let mut st = self.group.barrier.lock();
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == size {
            st.arrived = 0;
            st.generation += 1;
            // Released first, so the ranks woken find the mutex free.
            drop(st);
            self.group.barrier_cond.notify_all();
        } else {
            while st.generation == gen {
                self.group.barrier_cond.wait(&mut st);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;
    use std::time::Duration;

    #[test]
    fn send_recv_ordered_per_pair() {
        let group = ChannelGroup::new(2);
        let a = group.endpoint(0);
        let b = group.endpoint(1);
        for i in 0..10u8 {
            a.send(1, Frame::new(0, 3, Payload::Owned(vec![i]))).unwrap();
        }
        for i in 0..10u8 {
            let m = b.match_deadline(0, 3, None, true).unwrap().unwrap();
            assert_eq!(m.payload.as_slice(), &[i]);
        }
    }

    #[test]
    fn deadline_expires_with_none() {
        let group = ChannelGroup::new(1);
        let t = group.endpoint(0);
        let got = t
            .match_deadline(-1, -1, Some(Instant::now() + Duration::from_millis(20)), true)
            .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn kill_fails_sends_fast_and_wakes_owner() {
        let group = ChannelGroup::new(2);
        let a = group.endpoint(0);
        let b = group.endpoint(1);
        a.kill(1);
        assert!(matches!(
            a.send(1, Frame::new(0, 0, Payload::Owned(vec![1]))),
            Err(TransportError::Dead(1))
        ));
        assert!(matches!(
            b.match_deadline(-1, -1, None, true),
            Err(TransportError::Dead(1))
        ));
        assert!(a.is_dead(1) && !a.is_dead(0));
    }

    #[test]
    fn poison_unblocks_receivers() {
        let group = ChannelGroup::new(1);
        let t = group.endpoint(0);
        t.poison();
        assert!(matches!(
            t.match_deadline(-1, -1, None, true),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn truncated_frame_surfaces_error_and_stays_queued() {
        let group = ChannelGroup::new(1);
        let t = group.endpoint(0);
        let mut f = Frame::new(0, 0, Payload::Owned(vec![9; 32]));
        f.payload.truncate(4);
        t.send(0, f).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                t.match_deadline(0, 0, None, true),
                Err(TransportError::Truncated {
                    needed: 32,
                    capacity: 4
                })
            ));
        }
        assert!(t.discard(0, 0).unwrap());
        assert!(!t.discard(0, 0).unwrap());
    }
}
