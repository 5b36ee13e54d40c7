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
//! allocation, and a send wakes the receiver only when it is parked.

use std::fmt;
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
pub struct OneshotSender<T>(Arc<Oneshot<T>>);

/// Receiving half of a [`oneshot`]: receives at most one value.
pub struct OneshotReceiver<T>(Arc<Oneshot<T>>);

/// The cell both halves of a [`oneshot`] share.
struct Oneshot<T> {
    state: Mutex<Shot<T>>,
    ready: Condvar,
}

struct Shot<T> {
    value: Option<T>,
    /// The sender is gone: it sent, or it was dropped.
    closed: bool,
    /// The receiver is parked on `ready`.
    waiting: bool,
}

impl<T> Oneshot<T> {
    fn lock(&self) -> MutexGuard<'_, Shot<T>> {
        // Nothing panics while the lock is held: the state stays whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fresh one-shot: one value from one sender to one receiver.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let shot = Arc::new(Oneshot {
        state: Mutex::new(Shot {
            value: None,
            closed: false,
            waiting: false,
        }),
        ready: Condvar::new(),
    });
    (OneshotSender(shot.clone()), OneshotReceiver(shot))
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

impl<T> OneshotSender<T> {
    /// Hand over `value`; fails (returning it) once the receiver is gone.
    pub fn send(self, value: T) -> Result<(), Disconnected<T>> {
        if Arc::strong_count(&self.0) == 1 {
            return Err(Disconnected(value));
        }
        self.0.lock().value = Some(value);
        // Dropping `self` closes the cell and wakes the receiver.
        Ok(())
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut shot = self.0.lock();
        shot.closed = true;
        if shot.waiting {
            self.0.ready.notify_one();
        }
    }
}

impl<T> OneshotReceiver<T> {
    /// Block until the value arrives; fails if the sender was dropped
    /// without sending.
    pub fn recv(self) -> Result<T, Disconnected<()>> {
        let mut shot = self.0.lock();
        loop {
            if let Some(value) = shot.value.take() {
                return Ok(value);
            }
            if shot.closed {
                return Err(Disconnected(()));
            }
            shot.waiting = true;
            shot = self
                .0
                .ready
                .wait(shot)
                .unwrap_or_else(PoisonError::into_inner);
        }
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
        assert_eq!((0..5).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
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
        let (tx, rx) = oneshot();
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn oneshot_wakes_a_parked_receiver_once() {
        let (tx, rx) = oneshot();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(vec![1, 2, 3]).unwrap();
        });
        assert_eq!(rx.recv(), Ok(vec![1, 2, 3]));
        sender.join().unwrap();
    }

    #[test]
    fn oneshot_sender_dropped_unsent_disconnects() {
        let (tx, rx) = oneshot::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(Disconnected(())));
        // And while the receiver is parked.
        let (tx, rx) = oneshot::<u8>();
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
        assert_eq!(tx.send(9), Err(Disconnected(9)));
    }
}
