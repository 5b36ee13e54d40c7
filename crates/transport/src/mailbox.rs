//! The per-rank mailbox every backend delivers into: a condvar-guarded
//! deque supporting `(source, tag)` matching with wildcards, probe
//! without consumption, deadline waits and fault-delayed visibility.
//!
//! Keeping this structure backend-independent is what makes the process
//! backend behave like the historical in-process one: a socket reader
//! thread pushes frames here, and matching / wakeup semantics are shared
//! code rather than a reimplementation.

use crate::error::TransportError;
use crate::frame::Frame;
use crate::selector_matches;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Default)]
struct MailboxState {
    queue: VecDeque<Frame>,
    /// Receivers parked in `cond.wait*` right now; while this is zero a
    /// push notifies nobody (no futex call for a rank busy computing).
    waiters: usize,
}

/// One rank's delivery queue.
pub(crate) struct Mailbox {
    /// The rank this mailbox belongs to, carried in `Dead` errors.
    owner: usize,
    state: Mutex<MailboxState>,
    cond: Condvar,
    /// Set when the group is torn down (a peer panicked); wakes blockers.
    /// Like `dead`, stored only with `state` locked (a receiver that read
    /// it under the lock and then parked cannot miss the wake-up) and
    /// loaded without it: every `Comm` operation polls both flags.
    poisoned: AtomicBool,
    /// Set when this rank is dead (fault-plan kill or an administrative
    /// sever): sends to it and operations by it fail with
    /// [`TransportError::Dead`].
    dead: AtomicBool,
    /// Condvar notifications issued so far (wake accounting; bumped only
    /// on the notify path, which pays a futex call anyway).
    notifies: AtomicUsize,
}

impl MailboxState {
    /// Index of the first visible queued frame matching `(src, tag)`.
    /// `now` caches the clock, which is read only when a matching frame
    /// is fault-delayed: an un-faulted scan never touches it.
    fn find_match(&self, src: i32, tag: i32, now: &mut Option<Instant>) -> Option<usize> {
        self.queue.iter().position(|m| {
            selector_matches(m.src, m.tag, src, tag)
                && m.visible_at
                    .is_none_or(|t| t <= *now.get_or_insert_with(Instant::now))
        })
    }
}

impl Mailbox {
    pub(crate) fn new(owner: usize) -> Self {
        Mailbox {
            owner,
            state: Mutex::new(MailboxState::default()),
            cond: Condvar::new(),
            poisoned: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            notifies: AtomicUsize::new(0),
        }
    }

    /// Release the lock, then notify if a receiver is parked — in that
    /// order, so the woken thread finds the mutex free instead of going
    /// back to sleep on it and needing a second wake-up.
    fn unlock_and_wake(&self, st: MutexGuard<'_, MailboxState>) {
        let parked = st.waiters > 0;
        drop(st);
        if parked {
            self.wake();
        }
    }

    /// Wake every receiver parked on this mailbox. Called without the
    /// lock held.
    pub(crate) fn wake(&self) {
        self.notifies.fetch_add(1, Ordering::Relaxed);
        self.cond.notify_all();
    }

    /// Queue a frame for the owner and wake it if it is parked, failing
    /// fast if the owner is dead or the group is poisoned.
    pub(crate) fn push(&self, frame: Frame) -> Result<(), TransportError> {
        if self.push_quiet(frame)? {
            self.wake();
        }
        Ok(())
    }

    /// [`Mailbox::push`] without the wake-up: `Ok(true)` when the owner
    /// was parked, and then the caller owes it one [`Mailbox::wake`].
    /// `Ok(false)` means the owner is not inside `cond.wait`, so it scans
    /// the queue before it next parks and cannot miss the frame.
    pub(crate) fn push_quiet(&self, frame: Frame) -> Result<bool, TransportError> {
        let mut st = self.state.lock();
        if self.is_dead() {
            return Err(TransportError::Dead(self.owner));
        }
        if self.is_poisoned() {
            return Err(TransportError::Disconnected);
        }
        st.queue.push_back(frame);
        Ok(st.waiters > 0)
    }

    /// Whether the owner is parked in the wait loop right now.
    pub(crate) fn parked(&self) -> bool {
        self.state.lock().waiters > 0
    }

    /// Condvar notifications issued to this mailbox so far.
    pub(crate) fn notifies(&self) -> usize {
        self.notifies.load(Ordering::Relaxed)
    }

    /// Mark the owner dead: pending messages are discarded and every
    /// blocked waiter is woken so it can observe [`TransportError::Dead`]
    /// instead of hanging forever.
    pub(crate) fn kill(&self) {
        let mut st = self.state.lock();
        self.dead.store(true, Ordering::SeqCst);
        st.queue.clear();
        self.unlock_and_wake(st);
    }

    /// Wake every blocked waiter with a poison flag; used when a peer
    /// panics so the rest don't deadlock.
    pub(crate) fn poison(&self) {
        let st = self.state.lock();
        self.poisoned.store(true, Ordering::SeqCst);
        self.unlock_and_wake(st);
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Wait-loop core shared by probe and receive — see
    /// [`crate::Transport::match_deadline`] for the contract.
    pub(crate) fn match_deadline(
        &self,
        src: i32,
        tag: i32,
        deadline: Option<Instant>,
        consume: bool,
    ) -> Result<Option<Frame>, TransportError> {
        let mut st = self.state.lock();
        loop {
            if self.is_dead() {
                return Err(TransportError::Dead(self.owner));
            }
            let mut now = None;
            if let Some(pos) = st.find_match(src, tag, &mut now) {
                let m = &st.queue[pos];
                if !consume {
                    // Probe: clone the metadata, leave the payload queued.
                    return Ok(Some(m.meta()));
                }
                if m.truncated() {
                    return Err(TransportError::Truncated {
                        needed: m.full_len,
                        capacity: m.payload.len(),
                    });
                }
                return Ok(st.queue.remove(pos));
            }
            if self.is_poisoned() {
                return Err(TransportError::Disconnected);
            }
            // Next wake-up: the earliest fault-delayed matching message, or
            // the caller's deadline, whichever comes first.
            let matching = st
                .queue
                .iter()
                .filter(|m| selector_matches(m.src, m.tag, src, tag));
            let wake_at = matching.filter_map(|m| m.visible_at).chain(deadline).min();
            // A delayed frame due by now would have matched above, so a
            // zero wait is the deadline: that scan was the last one.
            let clock = || now.unwrap_or_else(Instant::now);
            let wait = wake_at.map(|t| t.saturating_duration_since(clock()));
            if wait == Some(Duration::ZERO) {
                return Ok(None);
            }
            st.waiters += 1;
            match wait {
                Some(d) => drop(self.cond.wait_for(&mut st, d)),
                None => self.cond.wait(&mut st),
            }
            st.waiters -= 1;
        }
    }

    /// Non-blocking probe: metadata of the first visible matching frame.
    /// Checks poison *before* scanning — an `iprobe` on a torn-down group
    /// reports the teardown even if a frame is queued (historical
    /// `minimpi` semantics).
    pub(crate) fn try_match(&self, src: i32, tag: i32) -> Result<Option<Frame>, TransportError> {
        let st = self.state.lock();
        if self.is_dead() {
            return Err(TransportError::Dead(self.owner));
        }
        if self.is_poisoned() {
            return Err(TransportError::Disconnected);
        }
        let pos = st.find_match(src, tag, &mut None);
        Ok(pos.map(|pos| st.queue[pos].meta()))
    }

    /// Remove the next visible matching frame (even a truncated one).
    pub(crate) fn discard(&self, src: i32, tag: i32) -> Result<bool, TransportError> {
        let mut st = self.state.lock();
        if self.is_dead() {
            return Err(TransportError::Dead(self.owner));
        }
        let pos = st.find_match(src, tag, &mut None);
        Ok(pos.and_then(|pos| st.queue.remove(pos)).is_some())
    }
}

/// The wake-up owed to a receiver that was parked when a
/// [`crate::Transport::send_quiet`] frame reached it. Until it is issued
/// the receiver may sleep with that frame queued, so the sender issues
/// it once the frames that belong together are queued: one wake for
/// all of them. Dropping it unissued is right only when another wake
/// for the same receiver is issued instead, or the receiver is known to
/// be awake.
#[must_use = "a parked receiver sleeps until its wake is issued"]
pub struct OwedWake(Arc<Mailbox>);

impl OwedWake {
    pub(crate) fn new(mailbox: &Arc<Mailbox>) -> Self {
        OwedWake(Arc::clone(mailbox))
    }

    /// Wake the receiver.
    pub fn issue(self) {
        self.0.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;
    use std::thread;

    fn frame(tag: i32, byte: u8) -> Frame {
        Frame::new(0, tag, Payload::Owned(vec![byte]))
    }

    /// Spin until the owner is parked in the wait loop: forces the
    /// interleaving the wake accounting is about, without a sleep.
    fn until_parked(mb: &Mailbox) {
        while !mb.parked() {
            thread::yield_now();
        }
    }

    fn recv(mb: &Mailbox, tag: i32) -> u8 {
        let f = mb.match_deadline(0, tag, None, true).expect("recv");
        f.expect("no deadline, so never None").payload.as_slice()[0]
    }

    #[test]
    fn push_with_nobody_parked_notifies_nobody() {
        let mb = Mailbox::new(0);
        for i in 0..10 {
            mb.push(frame(1, i)).unwrap();
        }
        assert_eq!(mb.notifies(), 0);
        // Nothing was lost for want of a notification.
        assert_eq!((0..10).map(|_| recv(&mb, 1)).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        assert_eq!(mb.notifies(), 0);
    }

    #[test]
    fn ping_pong_notifies_at_most_once_per_message() {
        const N: usize = 2_000;
        let (ping, pong) = (Mailbox::new(0), Mailbox::new(1));
        thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..N {
                    let b = recv(&pong, 2);
                    ping.push(frame(2, b)).unwrap();
                }
            });
            for i in 0..N {
                pong.push(frame(2, i as u8)).unwrap();
                assert_eq!(recv(&ping, 2), i as u8);
            }
        });
        assert!(
            ping.notifies() <= N,
            "{} notifies for {N} messages",
            ping.notifies()
        );
        assert!(
            pong.notifies() <= N,
            "{} notifies for {N} messages",
            pong.notifies()
        );
    }

    #[test]
    fn a_quiet_push_owes_a_parked_owner_one_wake() {
        let mb = Mailbox::new(0);
        assert!(
            !mb.push_quiet(frame(1, 0)).unwrap(),
            "nobody parked, nothing owed"
        );
        assert_eq!(recv(&mb, 1), 0);
        thread::scope(|s| {
            let receiver = s.spawn(|| (recv(&mb, 1), recv(&mb, 1)));
            until_parked(&mb);
            assert!(mb.push_quiet(frame(1, 1)).unwrap(), "the owner was parked");
            let _ = mb.push_quiet(frame(1, 2)).unwrap();
            assert_eq!(mb.notifies(), 0, "a quiet push notifies nobody");
            mb.wake();
            assert_eq!(receiver.join().unwrap(), (1, 2));
        });
        assert_eq!(mb.notifies(), 1);
    }

    #[test]
    fn kill_and_poison_notify_only_a_parked_owner() {
        for kill in [true, false] {
            let mb = Mailbox::new(0);
            let end = |mb: &Mailbox| if kill { mb.kill() } else { mb.poison() };
            mb.push(frame(3, 1)).unwrap(); // queued, never matching
            thread::scope(|s| {
                let receiver = s.spawn(|| mb.match_deadline(0, 9, None, true));
                until_parked(&mb);
                end(&mb);
                let woke = receiver.join().unwrap();
                match (kill, woke) {
                    (true, Err(TransportError::Dead(0))) => {}
                    (false, Err(TransportError::Disconnected)) => {}
                    (_, other) => panic!("kill={kill}: woke with {other:?}"),
                }
            });
            end(&mb); // idempotent, and nobody is parked now
            assert_eq!(mb.notifies(), 1, "kill={kill}");
        }
    }

    #[test]
    fn liveness_flags_are_read_without_the_lock() {
        let mb = Mailbox::new(0);
        mb.kill();
        mb.poison();
        let held = mb.state.lock();
        // Would deadlock if either took the mailbox lock.
        assert!(mb.is_dead() && mb.is_poisoned());
        drop(held);
    }
}
