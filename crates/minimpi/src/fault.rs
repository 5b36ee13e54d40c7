//! Deterministic fault injection for the message-passing layer.
//!
//! A [`FaultPlan`] is consulted by every [`crate::Comm`] operation of a
//! world started with [`crate::World::run_instrumented`]. It can
//!
//! * **drop** a message (the MatlabMPI failure mode: file-based messages
//!   lost under NFS),
//! * **delay** a message by a scheduled `Duration` (stragglers, stalled
//!   links),
//! * **truncate** a payload in flight (partial writes), and
//! * **kill** a rank outright: from its kill point on, every MPI call the
//!   rank makes returns [`crate::MpiError::Poisoned`] and its mailbox is
//!   marked dead so peers sending to it fail fast instead of hanging.
//!
//! # Determinism
//!
//! Every decision is a **pure function** of `(seed, rank, operation
//! index)` — no global RNG, no wall clock. Rank *r*'s *k*-th send always
//! receives the same verdict for a given seed, regardless of thread
//! interleaving, so a chaos scenario is a reproducible test rather than a
//! flake. [`FaultPlan::send_schedule`] exposes the decision table
//! directly so tests can assert schedule equality across runs.
//!
//! [`FaultPlan::verdict`] is the one place a decision is taken and
//! logged ([`FaultPlan::events`]); [`crate::Comm`] and a simulated world
//! both call it, each rank on its own [`Cursor`].

use std::sync::Mutex;
use std::time::Duration;

/// Verdict for one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// Deliver normally.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver, but make the message visible to the receiver only after
    /// the given duration.
    Delay(Duration),
    /// Deliver only the first `n` bytes of the payload; the receiver sees
    /// the advertised full length and gets
    /// [`crate::MpiError::Truncated`] on receive.
    Truncate(usize),
}

/// One injected fault, as recorded in the plan's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A message from `rank`'s `send`-indexed operation was dropped.
    Dropped {
        /// Sending rank.
        rank: usize,
        /// Per-rank send index.
        send: u64,
    },
    /// A message was delayed by `by`.
    Delayed {
        /// Sending rank.
        rank: usize,
        /// Per-rank send index.
        send: u64,
        /// Injected delivery delay.
        by: Duration,
    },
    /// A payload was truncated from `full` to `kept` bytes.
    Truncated {
        /// Sending rank.
        rank: usize,
        /// Per-rank send index.
        send: u64,
        /// Bytes actually delivered.
        kept: usize,
        /// Original payload size.
        full: usize,
    },
    /// A rank was killed at its `op`-th MPI call.
    Killed {
        /// The killed rank.
        rank: usize,
        /// Per-rank operation index at which the kill fired.
        op: u64,
    },
}

/// One rank's place in a plan: its operation and send indices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor {
    op: u64,
    send: u64,
}

/// Deterministic, seed-driven fault schedule. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    delay_rate: f64,
    delay_lo: Duration,
    delay_hi: Duration,
    truncate_rate: f64,
    /// `(rank, op)` — the rank dies at its first MPI call with index ≥ `op`.
    kills: Vec<(usize, u64)>,
    /// Explicit per-`(rank, send index)` verdicts, overriding the rates.
    forced: Vec<(usize, u64, SendFault)>,
    events: Mutex<Vec<FaultEvent>>,
}

/// SplitMix64-style avalanche over the decision coordinates.
fn mix(seed: u64, rank: u64, idx: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(rank.wrapping_mul(0xA0761D6478BD642F))
        .wrapping_add(idx.wrapping_mul(0xE7037ED1A0B428DB))
        .wrapping_add(salt.wrapping_mul(0x8EBC6AF09C88C6E3))
        .wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan with the given seed and **no** faults: rates are zero and
    /// no kills are scheduled. Running a farm under an inert plan must be
    /// behaviourally identical to running without one.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay_lo: Duration::ZERO,
            delay_hi: Duration::ZERO,
            truncate_rate: 0.0,
            kills: Vec::new(),
            forced: Vec::new(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Drop each message independently with probability `rate`
    /// (deterministically derived from `(seed, rank, send index)`).
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.drop_rate = rate;
        self
    }

    /// Delay each (non-dropped) message with probability `rate`, by a
    /// deterministic duration in `[lo, hi]`.
    pub fn with_delay_rate(mut self, rate: f64, lo: Duration, hi: Duration) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        assert!(lo <= hi, "delay range inverted");
        self.delay_rate = rate;
        self.delay_lo = lo;
        self.delay_hi = hi;
        self
    }

    /// Truncate each (non-dropped, non-delayed) message with probability
    /// `rate`, keeping a deterministic prefix of the payload.
    pub fn with_truncate_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.truncate_rate = rate;
        self
    }

    /// Kill `rank` at its first MPI call with per-rank operation index
    /// `>= op` (operation indices count every send/recv/probe the rank
    /// performs, starting at 0).
    pub fn kill_rank_at_op(mut self, rank: usize, op: u64) -> Self {
        self.kills.push((rank, op));
        self
    }

    /// Force a specific verdict for `rank`'s `send`-th outgoing message,
    /// overriding the probabilistic rates.
    pub fn force_send(mut self, rank: usize, send: u64, fault: SendFault) -> Self {
        self.forced.push((rank, send, fault));
        self
    }

    /// `true` if this plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.truncate_rate == 0.0
            && self.kills.is_empty()
            && self.forced.is_empty()
    }

    /// Count `rank`'s next operation on `at`, a send of `len` bytes when
    /// `send` is `Some(len)`, and log what the plan injects there: `None`
    /// if the rank dies (no send counted), else the fault a send meets.
    pub fn verdict(&self, rank: usize, at: &mut Cursor, send: Option<usize>) -> Option<SendFault> {
        let op = at.op;
        at.op += 1;
        if self.should_kill(rank, op) {
            self.record(FaultEvent::Killed { rank, op });
            return None;
        }
        let Some(full) = send else {
            return Some(SendFault::Deliver);
        };
        let send = at.send;
        at.send += 1;
        let fault = self.decide_send(rank, send, full);
        match fault {
            SendFault::Deliver => {}
            SendFault::Drop => self.record(FaultEvent::Dropped { rank, send }),
            SendFault::Delay(by) => self.record(FaultEvent::Delayed { rank, send, by }),
            SendFault::Truncate(kept) => self.record(FaultEvent::Truncated {
                rank,
                send,
                kept,
                full,
            }),
        }
        Some(fault)
    }

    /// Pure decision function: the verdict for `rank`'s `send`-th
    /// outgoing message of `payload_len` bytes.
    fn decide_send(&self, rank: usize, send: u64, payload_len: usize) -> SendFault {
        if let Some(&(_, _, fault)) = self
            .forced
            .iter()
            .find(|&&(r, s, _)| r == rank && s == send)
        {
            return match fault {
                SendFault::Truncate(n) => SendFault::Truncate(n.min(payload_len)),
                other => other,
            };
        }
        let r = rank as u64;
        if self.drop_rate > 0.0 && unit(mix(self.seed, r, send, 1)) < self.drop_rate {
            return SendFault::Drop;
        }
        if self.delay_rate > 0.0 && unit(mix(self.seed, r, send, 2)) < self.delay_rate {
            let frac = unit(mix(self.seed, r, send, 3));
            let span = self.delay_hi.saturating_sub(self.delay_lo);
            return SendFault::Delay(self.delay_lo + span.mul_f64(frac));
        }
        if self.truncate_rate > 0.0 && unit(mix(self.seed, r, send, 4)) < self.truncate_rate {
            // Keep a deterministic strict prefix (at least the "header"
            // flavour of a partial write: half the payload, rounded down).
            return SendFault::Truncate(payload_len / 2);
        }
        SendFault::Deliver
    }

    /// Pure decision function: does `rank` die at per-rank operation
    /// index `op`?
    fn should_kill(&self, rank: usize, op: u64) -> bool {
        self.kills.iter().any(|&(r, at)| r == rank && op >= at)
    }

    /// The full send-fault schedule for one rank's first `ops` sends,
    /// assuming `payload_len`-byte messages. Two plans with the same seed
    /// and configuration produce identical schedules — the determinism
    /// guarantee chaos tests assert on.
    pub fn send_schedule(&self, rank: usize, ops: u64, payload_len: usize) -> Vec<SendFault> {
        (0..ops)
            .map(|i| self.decide_send(rank, i, payload_len))
            .collect()
    }

    /// Injections that actually triggered so far, in trigger order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().expect("fault log").clone()
    }

    fn record(&self, ev: FaultEvent) {
        self.events.lock().expect("fault log").push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_faults() {
        let p = FaultPlan::new(42);
        assert!(p.is_inert());
        for rank in 0..4 {
            for op in 0..200 {
                assert_eq!(p.decide_send(rank, op, 100), SendFault::Deliver);
                assert!(!p.should_kill(rank, op));
            }
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            FaultPlan::new(7)
                .with_drop_rate(0.2)
                .with_delay_rate(0.3, Duration::from_millis(1), Duration::from_millis(9))
                .with_truncate_rate(0.1)
        };
        let (a, b) = (mk(), mk());
        for rank in 0..6 {
            assert_eq!(
                a.send_schedule(rank, 500, 64),
                b.send_schedule(rank, 500, 64),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).with_drop_rate(0.5);
        let b = FaultPlan::new(2).with_drop_rate(0.5);
        assert_ne!(a.send_schedule(0, 200, 16), b.send_schedule(0, 200, 16));
    }

    #[test]
    fn rates_are_roughly_respected() {
        let p = FaultPlan::new(11).with_drop_rate(0.25);
        let n = 10_000;
        let drops = p
            .send_schedule(3, n, 32)
            .iter()
            .filter(|f| matches!(f, SendFault::Drop))
            .count();
        let frac = drops as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "drop fraction {frac}");
    }

    #[test]
    fn forced_verdicts_override_rates() {
        let p = FaultPlan::new(3)
            .with_drop_rate(1.0)
            .force_send(1, 4, SendFault::Deliver)
            .force_send(1, 5, SendFault::Truncate(1 << 20));
        assert_eq!(p.decide_send(1, 4, 10), SendFault::Deliver);
        // Truncation clamps to the payload size.
        assert_eq!(p.decide_send(1, 5, 10), SendFault::Truncate(10));
        assert_eq!(p.decide_send(1, 6, 10), SendFault::Drop);
    }

    #[test]
    fn kill_fires_at_and_after_threshold() {
        let p = FaultPlan::new(0).kill_rank_at_op(2, 10);
        assert!(!p.should_kill(2, 9));
        assert!(p.should_kill(2, 10));
        assert!(p.should_kill(2, 11));
        assert!(!p.should_kill(1, 10));
    }

    #[test]
    fn delay_durations_within_range() {
        let p = FaultPlan::new(5).with_delay_rate(
            1.0,
            Duration::from_millis(2),
            Duration::from_millis(8),
        );
        for f in p.send_schedule(0, 200, 8) {
            match f {
                SendFault::Delay(d) => {
                    assert!(d >= Duration::from_millis(2) && d <= Duration::from_millis(8))
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn event_log_records_in_order() {
        let p = FaultPlan::new(0)
            .force_send(1, 0, SendFault::Drop)
            .kill_rank_at_op(2, 1);
        let (mut one, mut two) = (Cursor::default(), Cursor::default());
        assert_eq!(p.verdict(1, &mut one, Some(8)), Some(SendFault::Drop));
        assert_eq!(p.verdict(2, &mut two, None), Some(SendFault::Deliver));
        assert_eq!(p.verdict(2, &mut two, Some(8)), None);
        assert_eq!(
            p.events(),
            vec![
                FaultEvent::Dropped { rank: 1, send: 0 },
                FaultEvent::Killed { rank: 2, op: 1 },
            ]
        );
    }

    #[test]
    fn a_kill_counts_no_send_and_a_fault_still_advances_the_send_index() {
        // Rank 0's op 0 is a receive, op 1 a dropped send (send 0), op 2
        // a truncated one (send 1); rank 1 dies at its op 1, a send.
        let p = FaultPlan::new(4)
            .force_send(0, 0, SendFault::Drop)
            .force_send(0, 1, SendFault::Truncate(100))
            .kill_rank_at_op(1, 1);
        let mut at = Cursor::default();
        assert_eq!(p.verdict(0, &mut at, None), Some(SendFault::Deliver));
        assert_eq!(p.verdict(0, &mut at, Some(10)), Some(SendFault::Drop));
        assert_eq!(
            p.verdict(0, &mut at, Some(10)),
            Some(SendFault::Truncate(10))
        );
        assert_eq!(at, Cursor { op: 3, send: 2 });
        let mut at = Cursor::default();
        p.verdict(1, &mut at, None);
        assert_eq!(p.verdict(1, &mut at, Some(10)), None);
        assert_eq!(at, Cursor { op: 2, send: 0 });
        assert_eq!(
            p.events()[1],
            FaultEvent::Truncated {
                rank: 0,
                send: 1,
                kept: 10,
                full: 10
            }
        );
    }
}
