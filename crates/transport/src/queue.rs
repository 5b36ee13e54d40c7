//! In-process hand-off primitives for service loops: command queues and
//! one-shot replies.
//!
//! This module is the workspace's **only** sanctioned site of raw
//! channel construction: `clippy.toml`'s `disallowed-methods` and
//! `disallowed-types` refuse `std::sync::mpsc` in every other crate.
//! Anything that needs an unbounded MPSC hand-off — e.g. the `serve`
//! session's client-to-master command queue — goes through [`channel`],
//! and anything that hands back exactly one value — e.g. the answer to a
//! session's ticket — through [`oneshot`], so a future backend swap
//! (bounded queues, cross-process queues) is a one-crate change rather
//! than a grep across the workspace.
//!
//! A one-shot is one shared cell, not a queue: building it is one
//! allocation. Its wake rule is the mailbox's (`docs/TRANSPORT.md`,
//! "Wake-up discipline"): the value and the close go in under one lock,
//! and a receiver parked at that moment is notified only after the lock
//! is released — by the [`OneshotWake`] the send returns, when it is
//! dropped. A receiver that was not parked is sent no notification.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Sending half of an unbounded MPSC queue. Clonable; the queue
/// disconnects when every sender is dropped.
pub struct Sender<T>(mpsc::Sender<T>);

/// Receiving half of an unbounded MPSC queue.
pub struct Receiver<T>(mpsc::Receiver<T>);

/// The queue was disconnected: every [`Receiver`] (for sends) or every
/// [`Sender`] (for receives) is gone. For sends the unsent value is
/// returned.
#[derive(Debug, PartialEq, Eq)]
pub struct Disconnected<T>(pub T);

/// Why a non-blocking receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message queued right now; senders still exist.
    Empty,
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

/// A fresh unbounded queue.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender(tx), Receiver(rx))
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue::Sender")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue::Receiver")
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(self.0.clone())
    }
}

impl<T> Sender<T> {
    /// Queue `value`; fails (returning it) once the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), Disconnected<T>> {
        self.0.send(value).map_err(|e| Disconnected(e.0))
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives; fails once every sender is gone
    /// and the queue is drained.
    pub fn recv(&self) -> Result<T, Disconnected<()>> {
        self.0.recv().map_err(|_| Disconnected(()))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.0.try_recv().map_err(|e| match e {
            mpsc::TryRecvError::Empty => TryRecvError::Empty,
            mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
        })
    }

    /// Blocking receive with a timeout: `Ok(None)` when `timeout` passes
    /// with nothing queued, `Err` once every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<T>, Disconnected<()>> {
        match self.0.recv_timeout(timeout) {
            Ok(v) => Ok(Some(v)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(Disconnected(())),
        }
    }
}

/// Sending half of a [`oneshot`]: sends at most one value. Dropping it
/// unsent disconnects the receiver.
pub struct OneshotSender<T>(Option<Arc<Oneshot<T>>>);

/// Receiving half of a [`oneshot`]: receives at most one value.
pub struct OneshotReceiver<T>(Arc<Oneshot<T>>);

/// The wake-up a [`OneshotSender::send`] owes a receiver that was parked
/// when the value went in: issued when this is dropped, never while the
/// cell's lock is held. A sender answering several receivers keeps their
/// wakes until every value is in, then drops them.
#[must_use = "dropping it wakes the receiver at once; keep it to wake later"]
pub struct OneshotWake<T>(Arc<Oneshot<T>>);

/// The cell both halves of a [`oneshot`] share.
struct Oneshot<T> {
    state: Mutex<Shot<T>>,
    ready: Condvar,
    /// Condvar notifications issued so far (wake accounting; bumped only
    /// on the notify path, which pays a futex call anyway).
    notifies: AtomicUsize,
}

struct Shot<T> {
    value: Option<T>,
    /// The sender is gone: it sent, or it was dropped.
    closed: bool,
    /// The receiver is parked on `ready`.
    waiting: bool,
    /// Times the receiver parked on `ready` (wake accounting).
    parks: usize,
}

impl<T> Oneshot<T> {
    fn lock(&self) -> MutexGuard<'_, Shot<T>> {
        // Nothing panics while the lock is held: the state stays whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Close the cell — with `value`, when there is one — in one critical
    /// section, and return the wake a parked receiver is owed, to be
    /// issued once the lock is released (`Mailbox::unlock_and_wake`'s
    /// rule: the woken receiver finds the mutex free). A receiver that is
    /// not parked is owed none: it looks at the cell before it parks.
    fn close(self: Arc<Self>, value: Option<T>) -> Option<OneshotWake<T>> {
        let mut shot = self.lock();
        shot.value = value;
        shot.closed = true;
        let parked = shot.waiting;
        drop(shot);
        // Not `then_some`: building the wake eagerly and dropping it would
        // issue it.
        parked.then(|| OneshotWake(self))
    }
}

/// A fresh one-shot: one value from one sender to one receiver.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let shot = Arc::new(Oneshot {
        state: Mutex::new(Shot {
            value: None,
            closed: false,
            waiting: false,
            parks: 0,
        }),
        ready: Condvar::new(),
        notifies: AtomicUsize::new(0),
    });
    (OneshotSender(Some(shot.clone())), OneshotReceiver(shot))
}

impl<T> fmt::Debug for OneshotSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue::OneshotSender")
    }
}

impl<T> fmt::Debug for OneshotReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue::OneshotReceiver")
    }
}

impl<T> fmt::Debug for OneshotWake<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue::OneshotWake")
    }
}

impl<T> OneshotSender<T> {
    /// Hand over `value` and close the cell, in one critical section;
    /// fails (returning the value) once the receiver is gone. The wake a
    /// parked receiver is owed comes back, `None` when it was not
    /// parked: the wake is issued when dropped.
    pub fn send(mut self, value: T) -> Result<Option<OneshotWake<T>>, Disconnected<T>> {
        let shot = self
            .0
            .take()
            .expect("a sender holds its cell until it sends");
        if Arc::strong_count(&shot) == 1 {
            return Err(Disconnected(value));
        }
        Ok(shot.close(Some(value)))
    }

    /// Whether the receiver is parked waiting for the value right now
    /// (wake accounting: a test waits on this to force the interleaving
    /// it measures, without a sleep).
    pub fn parked(&self) -> bool {
        self.0.as_ref().is_some_and(|shot| shot.lock().waiting)
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        // Unsent: close the cell empty and wake the receiver at once.
        if let Some(shot) = self.0.take() {
            drop(shot.close(None));
        }
    }
}

impl<T> Drop for OneshotWake<T> {
    fn drop(&mut self) {
        self.0.notifies.fetch_add(1, Ordering::Relaxed);
        self.0.ready.notify_one();
    }
}

impl<T> OneshotReceiver<T> {
    /// Block until the value arrives; fails if the sender was dropped
    /// without sending, or once the value was taken.
    pub fn recv(&mut self) -> Result<T, Disconnected<()>> {
        let mut shot = self.0.lock();
        loop {
            if let Some(value) = shot.value.take() {
                shot.waiting = false;
                return Ok(value);
            }
            if shot.closed {
                shot.waiting = false;
                return Err(Disconnected(()));
            }
            shot.waiting = true;
            shot.parks += 1;
            shot = self
                .0
                .ready
                .wait(shot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Times this receiver parked waiting for its value: 0 when the
    /// value was in the cell before [`recv`](Self::recv) looked (wake
    /// accounting, read without a clock).
    pub fn parks(&self) -> usize {
        self.0.lock().parks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = channel();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(
            (0..5).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn try_recv_empty_then_disconnected() {
        let (tx, rx) = channel::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_after_receiver_drop_returns_value() {
        let (tx, rx) = channel::<u8>();
        drop(rx);
        assert_eq!(tx.send(9), Err(Disconnected(9)));
    }

    #[test]
    fn clone_senders_feed_one_receiver() {
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop((tx, tx2));
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort();
        assert_eq!(got, vec![1, 2]);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn recv_timeout_expires_quietly() {
        let (_tx, rx) = channel::<u8>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(None));
    }

    #[test]
    fn oneshot_delivers_a_value_sent_before_the_wait() {
        let (tx, mut rx) = oneshot();
        drop(tx.send(7u32).unwrap());
        assert_eq!(rx.recv(), Ok(7));
        // At most one value: the cell is closed behind it.
        assert_eq!(rx.recv(), Err(Disconnected(())));
    }

    #[test]
    fn oneshot_wakes_a_parked_receiver_once() {
        let (tx, mut rx) = oneshot();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx.send(vec![1, 2, 3]).unwrap());
        });
        assert_eq!(rx.recv(), Ok(vec![1, 2, 3]));
        sender.join().unwrap();
    }

    #[test]
    fn oneshot_sender_dropped_unsent_disconnects() {
        let (tx, mut rx) = oneshot::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(Disconnected(())));
        // And while the receiver is parked.
        let (tx, mut rx) = oneshot::<u8>();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        assert_eq!(rx.recv(), Err(Disconnected(())));
        dropper.join().unwrap();
    }

    #[test]
    fn oneshot_send_after_receiver_drop_returns_value() {
        let (tx, rx) = oneshot::<u8>();
        drop(rx);
        assert!(matches!(tx.send(9), Err(Disconnected(9))));
    }

    /// The cell behind a sender, for wake accounting.
    fn cell<T>(tx: &OneshotSender<T>) -> Arc<Oneshot<T>> {
        Arc::clone(tx.0.as_ref().unwrap())
    }

    #[test]
    fn a_send_to_a_receiver_that_is_not_parked_owes_no_notification() {
        let (tx, mut rx) = oneshot();
        let shot = cell(&tx);
        assert!(!tx.parked());
        assert!(tx.send(5u8).unwrap().is_none(), "nothing owed");
        assert_eq!(shot.notifies.load(Ordering::Relaxed), 0);
        assert_eq!(rx.recv(), Ok(5));
        assert_eq!((rx.parks(), shot.notifies.load(Ordering::Relaxed)), (0, 0));
    }

    #[test]
    fn a_parked_receiver_is_notified_once_after_the_value_is_in_the_cell() {
        let (tx, mut rx) = oneshot();
        let shot = cell(&tx);
        let receiver = std::thread::spawn(move || (rx.recv(), rx.parks()));
        // Forced, not slept into: the receiver is inside its wait.
        while !tx.parked() {
            std::thread::yield_now();
        }
        let wake = tx.send(vec![4u8, 2]).unwrap().expect("a wake owed");
        // The value and the close are in, and the wake is still owed:
        // nothing has been notified yet.
        {
            let state = shot.lock();
            assert!(state.closed && state.value.is_some());
        }
        assert_eq!(shot.notifies.load(Ordering::Relaxed), 0);
        drop(wake);
        assert_eq!(shot.notifies.load(Ordering::Relaxed), 1);
        let (got, parks) = receiver.join().unwrap();
        assert_eq!(got, Ok(vec![4, 2]));
        assert!(parks >= 1, "the receiver was parked");
        assert_eq!(shot.notifies.load(Ordering::Relaxed), 1, "exactly once");
    }

    #[test]
    fn a_sender_dropped_unsent_wakes_a_parked_receiver_once() {
        let (tx, mut rx) = oneshot::<u8>();
        let shot = cell(&tx);
        let receiver = std::thread::spawn(move || rx.recv());
        while !tx.parked() {
            std::thread::yield_now();
        }
        drop(tx);
        assert_eq!(receiver.join().unwrap(), Err(Disconnected(())));
        assert_eq!(shot.notifies.load(Ordering::Relaxed), 1);
    }
}
