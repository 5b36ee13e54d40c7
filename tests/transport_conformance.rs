//! Transport conformance suite: every behavioural promise of the
//! [`transport::Transport`] trait, proven against *both* shipped
//! backends through one shared harness:
//!
//! * the in-process [`transport::ChannelTransport`] (threads sharing
//!   condvar-guarded mailboxes), and
//! * the multi-process wire protocol of [`transport::UdsTransport`] —
//!   exercised here as a full Unix-domain-socket mesh inside one
//!   process (the trait makes no distinction between a peer thread and
//!   a peer process).
//!
//! The contract under test: ordered pairwise delivery, readiness-based
//! timed receives (deadline expiry without a hot loop, prompt wake-up
//! on arrival), identical truncation and kill fault surfaces,
//! large-frame (> 64 KiB) roundtrips, and the wake-up discipline
//! (docs/TRANSPORT.md): a notification is skipped only when nobody is
//! parked, so a wake-up is never lost.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use transport::{ChannelGroup, Frame, Payload, Transport, TransportError, UdsTransport};

/// One fully connected group per backend, as trait objects so every
/// scenario runs verbatim against both.
fn backends(size: usize, tag: &str) -> Vec<(&'static str, Vec<Arc<dyn Transport>>)> {
    let group = ChannelGroup::new(size);
    let channel: Vec<Arc<dyn Transport>> = (0..size)
        .map(|r| Arc::new(group.endpoint(r)) as Arc<dyn Transport>)
        .collect();

    let dir = std::env::temp_dir().join(format!("transport_conf_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `connect` blocks until the mesh is complete, so all ranks dial in
    // parallel.
    let handles: Vec<_> = (0..size)
        .map(|r| {
            let dir = dir.clone();
            thread::spawn(move || UdsTransport::connect(&dir, r, size).expect("uds connect"))
        })
        .collect();
    let uds: Vec<Arc<dyn Transport>> = handles
        .into_iter()
        .map(|h| Arc::new(h.join().expect("uds connect thread")) as Arc<dyn Transport>)
        .collect();
    vec![("channel", channel), ("uds", uds)]
}

fn owned(src: usize, tag: i32, bytes: Vec<u8>) -> Frame {
    Frame::new(src, tag, Payload::Owned(bytes))
}

/// Spin (with sleeps) until `cond` holds — kill propagation on the
/// socket backend rides control frames, so it is eventually-consistent
/// where the channel backend is immediate.
fn wait_until(cond: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Run `f` on its own thread and fail if it is still going after `limit`:
/// a lost wake-up is a hang, and a hang must fail the test, not the CI job.
fn watchdog<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let worker = thread::spawn(f);
    let t0 = Instant::now();
    while !worker.is_finished() {
        assert!(t0.elapsed() < limit, "{what}: still blocked after {limit:?}");
        thread::sleep(Duration::from_millis(2));
    }
    worker.join().expect(what)
}

#[test]
fn delivery_is_ordered_per_pair_even_with_two_senders() {
    for (name, t) in backends(3, "ordered") {
        let recv = Arc::clone(&t[0]);
        let senders: Vec<_> = [1usize, 2]
            .into_iter()
            .map(|r| {
                let ep = Arc::clone(&t[r]);
                thread::spawn(move || {
                    for i in 0..100u8 {
                        ep.send(0, owned(r, 7, vec![r as u8, i])).expect("send");
                    }
                })
            })
            .collect();
        // Selective receives per source must see each sender's sequence
        // in send order, however the two streams interleave on the wire.
        for src in [1i32, 2] {
            for i in 0..100u8 {
                let f = recv
                    .match_deadline(src, 7, None, true)
                    .expect("recv")
                    .expect("no deadline set");
                assert_eq!(f.src, src as usize, "{name}: wrong source");
                assert_eq!(
                    f.payload.as_slice(),
                    &[src as u8, i],
                    "{name}: source {src} out of order at {i}"
                );
            }
        }
        for s in senders {
            s.join().unwrap();
        }
    }
}

#[test]
fn timed_receive_expires_and_wakes_on_arrival() {
    for (name, t) in backends(2, "timed") {
        // Expiry: an empty mailbox returns Ok(None) at the deadline.
        let t0 = Instant::now();
        let got = t[0]
            .match_deadline(1, 3, Some(t0 + Duration::from_millis(60)), true)
            .expect("deadline wait");
        assert!(got.is_none(), "{name}: phantom frame");
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(55),
            "{name}: woke {waited:?} before the deadline"
        );

        // Readiness: a frame posted mid-wait wakes the receiver long
        // before a generous deadline — no polling interval to ride out.
        let sender = Arc::clone(&t[1]);
        let poster = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            sender.send(0, owned(1, 3, vec![9])).expect("send");
        });
        let t1 = Instant::now();
        let f = t[0]
            .match_deadline(1, 3, Some(t1 + Duration::from_secs(5)), true)
            .expect("recv")
            .expect("frame must arrive");
        let latency = t1.elapsed();
        assert_eq!(f.payload.as_slice(), &[9]);
        assert!(
            latency < Duration::from_millis(1500),
            "{name}: wake-up took {latency:?} — receiver is polling, not readiness-driven"
        );
        poster.join().unwrap();
    }
}

#[test]
fn truncated_frames_surface_identically_and_can_be_discarded() {
    for (name, t) in backends(2, "trunc") {
        // A frame advertising 64 bytes but carrying 8 (the fault layer's
        // in-flight truncation shape; the socket backend ships it short
        // with the true advertised length).
        let mut f = owned(1, 4, vec![0xab; 64]);
        f.payload.truncate(8);
        assert!(f.truncated());
        t[1].send(0, f).expect("send truncated");
        t[1].send(0, owned(1, 4, vec![1, 2, 3])).expect("send intact");

        // A consuming match refuses the damaged frame but leaves it
        // queued: a probe still sees it first.
        let err = match t[0].match_deadline(1, 4, Some(Instant::now() + Duration::from_secs(5)), true)
        {
            Err(e) => e,
            Ok(Some(f)) => panic!("{name}: consumed a truncated frame: {f:?}"),
            Ok(None) => panic!("{name}: truncated frame never arrived"),
        };
        match err {
            TransportError::Truncated { needed, capacity } => {
                assert_eq!((needed, capacity), (64, 8), "{name}");
            }
            other => panic!("{name}: expected Truncated, got {other}"),
        }
        let probe = t[0].try_match(1, 4).expect("probe").expect("still queued");
        assert_eq!(probe.full_len, 64, "{name}: probe must see the damaged frame");

        // Discard removes it; the intact frame behind it is received.
        assert!(t[0].discard(1, 4).expect("discard"), "{name}");
        let f = t[0]
            .match_deadline(1, 4, Some(Instant::now() + Duration::from_secs(5)), true)
            .expect("recv intact")
            .expect("intact frame present");
        assert_eq!(f.payload.as_slice(), &[1, 2, 3], "{name}");
    }
}

#[test]
fn kill_fails_senders_fast_and_wakes_the_victim() {
    for (name, t) in backends(3, "kill") {
        // The victim blocks in a long timed wait; the kill must wake it
        // with an error, not let it ride out the deadline.
        let victim = Arc::clone(&t[1]);
        let blocked = thread::spawn(move || {
            victim.match_deadline(
                transport::ANY_SOURCE,
                transport::ANY_TAG,
                Some(Instant::now() + Duration::from_secs(30)),
                true,
            )
        });
        thread::sleep(Duration::from_millis(20));
        t[0].kill(1);

        let woke = blocked.join().expect("victim thread");
        assert!(
            woke.is_err(),
            "{name}: killed rank's wait returned {woke:?} instead of failing"
        );
        // Death is observed group-wide (asynchronously on the socket
        // backend), after which sends fail fast.
        for rank in [0usize, 2] {
            let ep = Arc::clone(&t[rank]);
            wait_until(|| ep.is_dead(1), "death visibility");
            match ep.send(1, owned(rank, 5, vec![0])) {
                Err(TransportError::Dead(1)) => {}
                other => panic!("{name}: send to dead rank returned {other:?}"),
            }
        }
        assert!(!t[0].is_dead(0) && !t[0].is_dead(2), "{name}: overkill");
    }
}

#[test]
fn large_frames_roundtrip_bit_for_bit() {
    const LEN: usize = 256 * 1024; // well past any 64 KiB socket buffer
    for (name, t) in backends(2, "large") {
        let pattern: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
        let echo = Arc::clone(&t[1]);
        let bouncer = thread::spawn(move || {
            let f = echo
                .match_deadline(0, 6, Some(Instant::now() + Duration::from_secs(10)), true)
                .expect("echo recv")
                .expect("echo frame");
            assert!(!f.truncated());
            echo.send(0, Frame::new(1, 6, f.payload)).expect("echo send");
        });
        t[0].send(1, owned(0, 6, pattern.clone())).expect("send");
        let back = t[0]
            .match_deadline(1, 6, Some(Instant::now() + Duration::from_secs(10)), true)
            .expect("recv")
            .expect("round trip");
        assert_eq!(back.full_len, LEN, "{name}");
        assert_eq!(back.payload.as_slice(), &pattern[..], "{name}: bytes differ");
        bouncer.join().unwrap();
    }
}

#[test]
fn many_producers_one_wildcard_consumer_never_hangs() {
    // Lost-wake-up stress on the channel backend: three producers send
    // into one mailbox whose owner alternates between parked and busy,
    // so every push races the `waiters > 0` check that decides whether
    // to notify. 100 000 messages, every one received, per-source order
    // kept; a lost wake-up hangs the consumer and trips the watchdog.
    const PER_PRODUCER: [u32; 3] = [33_334, 33_333, 33_333];
    let group = ChannelGroup::new(4);
    let producers: Vec<_> = (1..4usize)
        .map(|r| {
            let ep = group.endpoint(r);
            thread::spawn(move || {
                for i in 0..PER_PRODUCER[r - 1] {
                    ep.send(0, owned(r, 7, i.to_be_bytes().to_vec()))
                        .expect("send");
                }
            })
        })
        .collect();
    let consumer = group.endpoint(0);
    let next = watchdog(Duration::from_secs(120), "wildcard consumer", move || {
        let mut next = [0u32; 4];
        for _ in 0..PER_PRODUCER.iter().sum::<u32>() {
            let f = consumer
                .match_deadline(transport::ANY_SOURCE, transport::ANY_TAG, None, true)
                .expect("recv")
                .expect("no deadline set");
            let seq = u32::from_be_bytes(f.payload.as_slice().try_into().expect("4 bytes"));
            assert_eq!(seq, next[f.src], "source {} out of order", f.src);
            next[f.src] += 1;
        }
        next
    });
    assert_eq!(next[1..], PER_PRODUCER);
    for p in producers {
        p.join().unwrap();
    }
}
