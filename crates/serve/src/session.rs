//! The long-lived pricing session: a resident slave world behind a
//! bounded request queue.
//!
//! One [`Session`] spins up the same `slaves + 1`-rank in-process world
//! as a `farm::run` call — and keeps it. Submitters hand in
//! [`Request`]s (priced portfolios with a priority class) and get back
//! a [`Ticket`]; the front loop
//! (rank 0) drains the queue, coalesces identical problems, serves
//! repeats from the result memo, and drives each batch through the
//! farm's one master driver, `farm::driver::drive` — supervised, so a
//! slave killed mid-request still leaves every admitted ticket answered
//! exactly once. The slaves run the farm's one slave loop,
//! `farm::slave::serve_jobs`, with a patience that never runs out.
//!
//! What travels is a *frame*, not a problem: the batch's unique
//! problems are packed into job frames (`pack_frames`), the scheduler
//! schedules frames, and a slave answers once per frame. Closed-form
//! problems — whose compute is far below one transport round trip —
//! share frames; every iterative method travels alone, so balancing,
//! the per-dispatch deadline and retries see the jobs they were sized
//! for. No rank builds a value tree for a problem, and no problem is
//! serialized until it travels: the submitter keys and sizes each
//! problem from its fields ([`store::ContentFingerprint::of_fields`]),
//! the front loop writes a problem's bytes only into a job frame bound
//! for a slave, and a slave reads its frame and every member's problem in
//! place, borrowed from the message. See "Wire protocol and bundling" in
//! `docs/SERVICE.md`.
//!
//! A batch that packs into a single frame does not travel at all: one
//! frame is priced serially wherever it runs, so the front loop prices
//! it itself, from the problems the callers handed in, through the
//! slaves' own `farm::slave::price_one` ("Who prices a batch" in
//! `docs/SERVICE.md`).
//!
//! The division of labour with admission control: [`Session::submit`]
//! runs on the *caller's* thread and only touches atomics (shed
//! decisions never wait for the farm), while all scheduling, memo and
//! recording state is owned single-threaded by the front loop.

use crate::config::{ServeConfig, ServeError};
use farm::driver::{drive, Farm};
use farm::slave::{price_one, serve_jobs, TAG};
use farm::wire::{Answer, Body, JobFrame, FRAME_HEADER_BYTES, MEMBER_HEADER_BYTES};
use farm::Transmission;
use minimpi::{Comm, World};
use obs::{Event, EventKind, Recorder, NO_JOB};
use pricing::{MethodSpec, PremiaProblem};
use sched::{DispatchPolicy, SchedConfig};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use transport::queue;

/// Budget charged per memo entry value: a price, an optional standard
/// error, and the `Option` discriminant.
const MEMO_VALUE_BYTES: usize = 24;

/// Largest job frame the front loop builds, in encoded bytes: the size
/// up to which the measured channel round trip is nearly flat (perf
/// harness: `transport.channel_rtt_us` 2.1 µs at 64 B,
/// `channel_rtt_64k_us` 4.0–4.5 µs at 64 KiB). A single problem larger
/// than this still travels, alone.
const FRAME_CAP_BYTES: usize = 64 << 10;

// ---------------------------------------------------------------------------
// Public request/response types
// ---------------------------------------------------------------------------

/// A priced portfolio submitted to a [`Session`].
#[derive(Debug, Clone)]
pub struct Request {
    problems: Vec<PremiaProblem>,
    priority: u8,
}

impl Request {
    /// A request at the default priority (class 1 of 3 — "normal").
    pub fn new(problems: Vec<PremiaProblem>) -> Self {
        Request {
            problems,
            priority: 1,
        }
    }

    /// Set the priority class (0 is the most urgent).
    pub fn priority(mut self, class: u8) -> Self {
        self.priority = class;
        self
    }
}

/// One priced problem in a [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct Priced {
    /// Price estimate — bit-identical whether computed fresh or served
    /// from the memo.
    pub price: f64,
    /// Monte-Carlo standard error, when the method reports one.
    pub std_error: Option<f64>,
    /// `true` when the answer came from the result memo or was
    /// coalesced onto another request's compute.
    pub memoised: bool,
}

/// The answer to one admitted request: exactly one per ticket.
#[derive(Debug, Clone)]
pub struct Response {
    /// Per-problem results, in submission order. `Err` carries the
    /// reason (compute failure or an exhausted retry budget).
    pub results: Vec<Result<Priced, String>>,
    /// End-to-end latency, submission to answer.
    pub latency: Duration,
}

impl Response {
    /// `true` when every problem priced successfully.
    pub fn all_priced(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    /// Number of problems answered from the memo / by coalescing.
    pub fn memoised_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, Ok(p) if p.memoised))
            .count()
    }
}

/// The handle returned by [`Session::submit`]: a claim on exactly one
/// [`Response`].
#[derive(Debug)]
pub struct Ticket {
    rx: queue::OneshotReceiver<Response>,
}

impl Ticket {
    /// Block until the response arrives. Errs with
    /// [`ServeError::SessionClosed`] only if the session died without
    /// answering (a front-loop panic or a full-world collapse during
    /// shutdown).
    pub fn wait(mut self) -> Result<Response, ServeError> {
        self.rx.recv().map_err(|_| ServeError::SessionClosed)
    }
}

/// Counters of one session's lifetime, returned by
/// [`Session::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// Requests answered with priced results.
    pub answered: u64,
    /// Requests turned away at admission ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Problems answered without a fresh compute (memo or coalescing).
    pub memo_hits: u64,
    /// Problems priced fresh, by a slave or — for a one-frame batch —
    /// by the front loop.
    pub computed: u64,
    /// Problems left without a price (their own compute failure, an
    /// exhausted retry budget, or dead slaves).
    pub failed: u64,
    /// Re-dispatches the supervised scheduler performed — of whole job
    /// frames that travelled (lost, expired, or orphaned by a slave
    /// death); a problem's own compute failure is final and is not
    /// retried, and a frame kept on the front loop is never retried.
    pub retries: u64,
    /// Slave ranks that died during the session.
    pub dead_slaves: Vec<usize>,
    /// Result-memo traffic counters.
    pub memo: store::MemoStats,
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Shared admission state: per-priority queue occupancy plus the
/// in-flight byte gauge, all atomics so [`Session::submit`] never
/// blocks on the front loop.
struct Admission {
    depth: Vec<AtomicUsize>,
    bytes: AtomicUsize,
    byte_budget: usize,
}

impl Admission {
    fn new(classes: u8, byte_budget: usize) -> Self {
        Admission {
            depth: (0..classes).map(|_| AtomicUsize::new(0)).collect(),
            bytes: AtomicUsize::new(0),
            byte_budget,
        }
    }

    /// Reserve a queue slot of class `priority`, or say exactly why not
    /// — one atomic, taken before the request is sized so a refused
    /// request costs nothing else. Optimistic increment with
    /// rollback: over-admission is impossible because every racer that
    /// observes an overshoot rolls its own reservation back before
    /// erring.
    fn reserve_slot(&self, priority: u8, limit: usize) -> Result<(), ServeError> {
        let d = &self.depth[priority as usize];
        let queued = d.fetch_add(1, Ordering::SeqCst) + 1;
        if queued > limit {
            d.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::Overloaded {
                priority,
                queued: queued - 1,
                depth_limit: limit,
                inflight_bytes: self.bytes.load(Ordering::SeqCst),
                byte_budget: self.byte_budget,
            });
        }
        Ok(())
    }

    /// Reserve `bytes` of budget for a request that already holds its
    /// queue slot; a refusal rolls back both. A request larger than the
    /// whole budget is [`ServeError::TooLarge`], not overloaded: no
    /// amount of waiting would admit it.
    fn reserve_bytes(&self, priority: u8, limit: usize, bytes: usize) -> Result<(), ServeError> {
        if bytes > self.byte_budget {
            self.depth[priority as usize].fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::TooLarge {
                bytes,
                byte_budget: self.byte_budget,
            });
        }
        let inflight = self.bytes.fetch_add(bytes, Ordering::SeqCst) + bytes;
        if inflight > self.byte_budget {
            self.bytes.fetch_sub(bytes, Ordering::SeqCst);
            let queued = self.depth[priority as usize].fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::Overloaded {
                priority,
                queued: queued - 1,
                depth_limit: limit,
                inflight_bytes: inflight - bytes,
                byte_budget: self.byte_budget,
            });
        }
        Ok(())
    }

    /// Return a request's reservation (on answer, expiry, or a failed
    /// enqueue).
    fn release(&self, priority: u8, bytes: usize) {
        self.depth[priority as usize].fetch_sub(1, Ordering::SeqCst);
        self.bytes.fetch_sub(bytes, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Queue messages
// ---------------------------------------------------------------------------

/// An admitted request travelling to the front loop.
struct Submitted {
    id: u64,
    /// The caller's problems, as handed in: what the front loop prices
    /// when the batch never leaves rank 0, and serializes when it does.
    problems: Vec<PremiaProblem>,
    /// Each problem's key, fingerprinted once from its fields on the
    /// submitter's thread; its `fp.len` is the problem's exact
    /// serialized size.
    keys: Vec<store::MemoKey>,
    priority: u8,
    submitted: Instant,
    /// Recorder clock at submission (None when unrecorded) — the start
    /// of the `Enqueue` and `Admit` spans.
    enq_ns: Option<u64>,
    bytes: usize,
    reply: queue::OneshotSender<Response>,
}

enum Msg {
    Request(Box<Submitted>),
    /// A shed happened on a submitter thread; the front loop records it
    /// (the obs ring of rank 0 is single-writer).
    Shed {
        at_ns: Option<u64>,
        problems: u64,
    },
    Shutdown,
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// A long-lived pricing service over a resident in-process world; see
/// the crate docs and `docs/SERVICE.md`.
pub struct Session {
    tx: queue::Sender<Msg>,
    admission: Arc<Admission>,
    recorder: Option<Arc<Recorder>>,
    /// Admission limit per priority class, from
    /// [`ServeConfig::depth_limit`].
    limits: Vec<usize>,
    next_id: AtomicU64,
    handle: Option<JoinHandle<Option<SessionReport>>>,
}

impl Session {
    /// Validate `cfg`, spin up the world, and hold it resident until
    /// [`shutdown`](Session::shutdown) (or drop).
    pub fn start(cfg: ServeConfig) -> Result<Session, ServeError> {
        Self::start_with(cfg, resident_slave)
    }

    /// [`Self::start`] with the body every slave rank runs, so a test can
    /// put a misbehaving slave behind a real front loop.
    fn start_with(cfg: ServeConfig, slave: fn(&Comm, &ServeConfig)) -> Result<Session, ServeError> {
        cfg.validate().map_err(ServeError::Config)?;
        let admission = Arc::new(Admission::new(cfg.priorities, cfg.inflight_bytes));
        let (tx, rx) = queue::channel::<Msg>();
        let recorder = cfg.recorder.clone();
        let limits: Vec<usize> = (0..cfg.priorities).map(|p| cfg.depth_limit(p)).collect();
        let front_admission = admission.clone();
        let handle = std::thread::spawn(move || {
            // The closure is shared across ranks (the world runs scoped
            // threads); rank 0 takes the receiver out of the slot, the
            // slaves never look.
            let rx_slot = Mutex::new(Some(rx));
            let results = World::run_instrumented(
                cfg.slaves + 1,
                cfg.fault_plan.clone(),
                cfg.recorder.clone(),
                |comm| {
                    if comm.rank() == 0 {
                        let rx = rx_slot.lock().unwrap().take().expect("rank 0 runs once");
                        Some(front_loop(&comm, &cfg, &front_admission, rx))
                    } else {
                        slave(&comm, &cfg);
                        None
                    }
                },
            );
            results.into_iter().next().flatten()
        });
        Ok(Session {
            tx,
            admission,
            recorder,
            limits,
            next_id: AtomicU64::new(0),
            handle: Some(handle),
        })
    }

    /// Submit a request. Reserves the queue slot first (an overloaded
    /// session refuses on one atomic, before paying for anything),
    /// fingerprints the problems on the calling thread — which also
    /// gives their exact serialized size, with nothing serialized —
    /// reserves that many bytes, and either returns a [`Ticket`] (the
    /// request *will* be answered exactly once) or refuses with a typed
    /// [`ServeError`].
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        if req.problems.is_empty() {
            return Err(ServeError::EmptyRequest);
        }
        if req.priority as usize >= self.limits.len() {
            return Err(ServeError::InvalidPriority {
                priority: req.priority,
                classes: self.limits.len() as u8,
            });
        }
        let limit = self.limits[req.priority as usize];
        self.admission
            .reserve_slot(req.priority, limit)
            .map_err(|e| self.shed(e, req.problems.len()))?;
        // Every rank prices with the sequential kernel, whose key carries
        // no executor parameters.
        let keys: Vec<store::MemoKey> = req
            .problems
            .iter()
            .map(|problem| store::MemoKey {
                fp: store::ContentFingerprint::of_fields(|f| problem.write_fields(f)),
                chunk: 0,
                lanes: 0,
            })
            .collect();
        let bytes: usize = keys.iter().map(|k| k.fp.len as usize).sum();
        self.admission
            .reserve_bytes(req.priority, limit, bytes)
            .map_err(|e| self.shed(e, keys.len()))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = queue::oneshot();
        let submitted = Submitted {
            id,
            problems: req.problems,
            keys,
            priority: req.priority,
            submitted: Instant::now(),
            enq_ns: self.recorder.as_ref().map(|r| r.now_ns()),
            bytes,
            reply,
        };
        if self.tx.send(Msg::Request(Box::new(submitted))).is_err() {
            self.admission.release(req.priority, bytes);
            return Err(ServeError::SessionClosed);
        }
        Ok(Ticket { rx })
    }

    /// Note a shed — an [`ServeError::Overloaded`] refusal — for the
    /// front loop's recorder and report.
    fn shed(&self, why: ServeError, problems: usize) -> ServeError {
        if matches!(why, ServeError::Overloaded { .. }) {
            let _ = self.tx.send(Msg::Shed {
                at_ns: self.recorder.as_ref().map(|r| r.now_ns()),
                problems: problems as u64,
            });
        }
        why
    }

    /// Stop accepting work, drain the queue, stop the slaves, join the
    /// world, and return the lifetime counters.
    pub fn shutdown(mut self) -> Result<SessionReport, ServeError> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<SessionReport, ServeError> {
        let Some(handle) = self.handle.take() else {
            return Err(ServeError::SessionClosed);
        };
        let _ = self.tx.send(Msg::Shutdown);
        match handle.join() {
            Ok(Some(report)) => Ok(report),
            _ => Err(ServeError::SessionClosed),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.shutdown_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// Front loop (rank 0)
// ---------------------------------------------------------------------------

/// Record an instantaneous mark on this rank, if recording, backdated
/// to `at_ns` (a submitter-side read of the same recorder's clock).
fn mark(comm: &Comm, kind: EventKind, at_ns: Option<u64>, job: i64, bytes: u64) {
    if let Some(rec) = comm.recorder() {
        rec.record(Event {
            kind,
            rank: comm.rank() as u16,
            job,
            start_ns: at_ns.unwrap_or_else(|| rec.now_ns()),
            dur_ns: 0,
            bytes,
        });
    }
}

/// Close a span opened at `start_ns` (a clock read of the same
/// recorder, possibly on a submitter thread).
fn span(comm: &Comm, kind: EventKind, start_ns: Option<u64>, job: i64, bytes: u64) {
    if let (Some(rec), Some(t0)) = (comm.recorder(), start_ns) {
        rec.record_span(comm.rank(), kind, job, t0, bytes);
    }
}

/// What the front loop owns across batches.
struct Front {
    memo: store::ResultCache<(f64, Option<f64>)>,
    /// Next unused wire id: ids are unique across the session, so a
    /// straggler answer from an earlier batch can never be mistaken for
    /// a current problem.
    next_wire: usize,
    report: SessionReport,
    /// The batch being served: its requests, its slots and their
    /// coalescing index. Kept from batch to batch and cleared, never
    /// rebuilt, so that a batch allocates only what it hands out.
    requests: Vec<Open>,
    slots: Vec<Slot>,
    index: store::MemoMap<usize>,
    /// The wakes the batch's answers owe their parked clients, issued
    /// (dropped) once every ticket of the batch is answered — or as the
    /// front loop unwinds, should it panic first.
    wakes: Vec<queue::OneshotWake<Response>>,
}

impl Front {
    fn new(cfg: &ServeConfig) -> Self {
        Front {
            memo: store::ResultCache::new(cfg.memo_bytes),
            next_wire: 0,
            report: SessionReport::default(),
            requests: Vec::new(),
            slots: Vec::new(),
            index: store::MemoMap::default(),
            wakes: Vec::new(),
        }
    }
}

/// A request of the batch being served, and its answers so far.
struct Open {
    sub: Box<Submitted>,
    answers: Answers,
}

/// A response's results, in submission order, written in place as they
/// are known; `filled` of them are.
#[derive(Default)]
struct Answers {
    results: Vec<Result<Priced, String>>,
    filled: usize,
}

impl Answers {
    fn set(&mut self, pi: usize, result: Result<Priced, String>) {
        self.results[pi] = result;
        self.filled += 1;
    }
}

fn front_loop(
    comm: &Comm,
    cfg: &ServeConfig,
    admission: &Admission,
    rx: queue::Receiver<Msg>,
) -> SessionReport {
    let mut front = Front::new(cfg);
    loop {
        // Block for traffic, then drain everything already queued into
        // one batch — the request-coalescing window.
        let first = match rx.recv() {
            Ok(m) => m,
            // Every sender dropped without a Shutdown: treat as one.
            Err(_) => break,
        };
        let mut shutdown = false;
        let mut m = Some(first);
        loop {
            match m {
                Some(Msg::Request(sub)) => front.requests.push(Open {
                    sub,
                    answers: Answers::default(),
                }),
                Some(Msg::Shed { at_ns, problems }) => {
                    mark(comm, EventKind::Shed, at_ns, NO_JOB, problems);
                    front.report.shed += 1;
                }
                Some(Msg::Shutdown) => {
                    shutdown = true;
                    break;
                }
                None => break,
            }
            m = rx.try_recv().ok();
        }
        if !front.requests.is_empty() {
            serve_batch(comm, cfg, admission, &mut front);
            // Every ticket of the batch is answered: now wake the clients
            // parked on them. One woken on one ticket finds the batch's
            // next ones answered and does not park again.
            front.wakes.clear();
        }
        if shutdown {
            break;
        }
    }
    let mut report = front.report;
    // The ranks the transport holds dead are the slaves that died during
    // the session.
    report.dead_slaves = (1..=cfg.slaves).filter(|&s| !comm.rank_alive(s)).collect();
    // Stop the resident slaves with the farm link's sentinel, the empty
    // message. Sends to already-dead ranks fail with Poisoned: goodbye.
    for s in 1..=cfg.slaves {
        let _ = comm.send([], s as i32, TAG);
    }
    report.memo = front.memo.stats();
    report
}

/// One coalescing slot: a unique problem this batch will compute once,
/// fanned out to every subscribed `(request, problem)` position.
struct Slot {
    key: store::MemoKey,
    /// The caller's problem: priced here when the batch stays on rank 0,
    /// serialized for its job frame only when the batch travels.
    problem: PremiaProblem,
    class: u8,
    /// The position that brought the problem in, and those coalesced
    /// onto it after (only a duplicate allocates).
    first: (usize, usize),
    more: Vec<(usize, usize)>,
    outcome: Option<Result<(f64, Option<f64>), String>>,
}

impl Slot {
    /// [`MethodSpec::ClosedForm`]: compute is far below one round trip,
    /// so the problem may share a job frame.
    fn closed_form(&self) -> bool {
        matches!(self.problem.method, MethodSpec::ClosedForm)
    }

    /// The problem's serialized size, known from its fingerprint.
    fn serial_len(&self) -> usize {
        self.key.fp.len as usize
    }
}

fn serve_batch(comm: &Comm, cfg: &ServeConfig, admission: &Admission, front: &mut Front) {
    // Queue residency ends now: close every Enqueue span.
    for Open { sub: s, .. } in &front.requests {
        let id = s.id as i64;
        span(comm, EventKind::Enqueue, s.enq_ns, id, s.bytes as u64);
    }

    // Coalesce: memo first, then within-batch duplicates.
    let Front {
        memo,
        next_wire,
        report,
        requests,
        slots,
        index,
        wakes,
    } = front;
    for (ri, Open { sub: s, answers }) in requests.iter_mut().enumerate() {
        // Placeholders, each overwritten by its answer.
        answers.results = vec![Err(String::new()); s.keys.len()];
        let id = s.id as i64;
        for (pi, (problem, &key)) in s.problems.drain(..).zip(&s.keys).enumerate() {
            if let Some((price, std_error)) = memo.get(&key) {
                mark(comm, EventKind::MemoHit, None, id, 1);
                report.memo_hits += 1;
                answers.set(
                    pi,
                    Ok(Priced {
                        price,
                        std_error,
                        memoised: true,
                    }),
                );
            } else if let Some(&slot) = index.get(&key) {
                // A second subscriber to a problem already in this
                // batch: it shares the compute, so it counts as served
                // without one.
                mark(comm, EventKind::MemoHit, None, id, 1);
                report.memo_hits += 1;
                slots[slot].class = slots[slot].class.min(s.priority);
                slots[slot].more.push((ri, pi));
            } else {
                index.insert(key, slots.len());
                slots.push(Slot {
                    key,
                    problem,
                    class: s.priority,
                    first: (ri, pi),
                    more: Vec::new(),
                    outcome: None,
                });
            }
        }
    }
    index.clear();

    if !slots.is_empty() {
        run_batch(comm, cfg, slots, next_wire, report);
        for slot in slots.drain(..) {
            let outcome = slot.outcome.expect("run_batch answers every slot");
            if let Ok(value) = outcome {
                memo.insert(slot.key, value, MEMO_VALUE_BYTES);
                report.computed += 1;
            } else {
                report.failed += 1;
            }
            let subscribers = std::iter::once(slot.first).chain(slot.more);
            for (order, (ri, pi)) in subscribers.enumerate() {
                requests[ri].answers.set(
                    pi,
                    match &outcome {
                        Ok((price, std_error)) => Ok(Priced {
                            price: *price,
                            std_error: *std_error,
                            memoised: order > 0,
                        }),
                        Err(why) => Err(why.clone()),
                    },
                );
            }
        }
    }

    // Answer every ticket exactly once and return its admission slot;
    // the wakes the answers owe are kept for the caller to issue.
    for Open {
        sub: s,
        answers: Answers { results, filled },
    } in requests.drain(..)
    {
        assert_eq!(filled, results.len(), "every problem answered");
        let id = s.id as i64;
        span(comm, EventKind::Admit, s.enq_ns, id, results.len() as u64);
        report.answered += 1;
        let response = Response {
            results,
            latency: s.submitted.elapsed(),
        };
        if let Ok(Some(wake)) = s.reply.send(response) {
            wakes.push(wake);
        }
        admission.release(s.priority, s.bytes);
    }
}

// ---------------------------------------------------------------------------
// Job frames
// ---------------------------------------------------------------------------

/// One job frame: the unit that travels, and the scheduler's job.
struct Frame {
    class: u8,
    /// Member slots, in wire order.
    members: Vec<usize>,
    /// Encoded size of the frame on the wire.
    bytes: usize,
}

/// Decide which slots travel together, in arrival order (the scheduler's
/// priority policy orders the frames by class, FIFO within).
///
/// The rule reads a property of the problem, never a setting:
/// closed-form problems of one priority class share frames — split
/// evenly over the `slaves` alive, each frame capped at
/// [`FRAME_CAP_BYTES`] — and every iterative problem is a frame of its
/// own.
fn pack_frames(slots: &[Slot], slaves: usize) -> Vec<Frame> {
    let classes = slots
        .iter()
        .map(|s| s.class as usize + 1)
        .max()
        .unwrap_or(0);
    // By class: closed-form members per frame (the even split), and the
    // frame still taking members.
    let mut by_class: Vec<(usize, Option<usize>)> = vec![(0, None); classes];
    for slot in slots.iter().filter(|s| s.closed_form()) {
        by_class[slot.class as usize].0 += 1;
    }
    for (n, _) in &mut by_class {
        *n = n.div_ceil(slaves.max(1));
    }
    let mut frames: Vec<Frame> = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        let (share, open) = &mut by_class[slot.class as usize];
        let cost = MEMBER_HEADER_BYTES + slot.serial_len().next_multiple_of(4);
        if slot.closed_form() {
            if let Some(frame) = open.map(|f| &mut frames[f]) {
                if frame.members.len() < *share && frame.bytes + cost <= FRAME_CAP_BYTES {
                    frame.members.push(i);
                    frame.bytes += cost;
                    continue;
                }
            }
            *open = Some(frames.len());
        }
        // Room for the frame's share up front: a batch allocates per
        // frame, not per member.
        let mut members = Vec::with_capacity(if slot.closed_form() { *share } else { 1 });
        members.push(i);
        frames.push(Frame {
            class: slot.class,
            members,
            bytes: FRAME_HEADER_BYTES + cost,
        });
    }
    frames
}

/// Who prices a batch (`docs/SERVICE.md`, "Who prices a batch"): one
/// frame is serial wherever it runs, so a batch that would travel as a
/// single job frame stays on the front loop — no wire, and no parallelism
/// lost. Two or more frames go to the slaves.
fn stays_on_front(frames: &[Frame]) -> bool {
    frames.len() == 1
}

/// Write the job frames of a batch that travels, wire ids from `base` in
/// frame-major order — the one place a session serializes a problem.
/// Returns the slot behind wire id `base + i`, each frame's wire offset
/// (and the end of the last), and each frame's bytes, which every
/// dispatch of the frame sends as they are.
fn encode_frames(
    slots: &[Slot],
    frames: &[Frame],
    base: usize,
) -> (Vec<usize>, Vec<usize>, Vec<Vec<u8>>) {
    let (mut order, mut offsets) = (Vec::with_capacity(slots.len()), vec![0]);
    let mut wires = Vec::with_capacity(frames.len());
    for frame in frames {
        let mut wire = JobFrame::new(Vec::with_capacity(frame.bytes));
        for &slot in &frame.members {
            let body = Body::Serial {
                compressed: false,
                bytes: &slots[slot].problem.to_xdr_bytes(),
            };
            wire.push(base + order.len(), body);
            order.push(slot);
        }
        offsets.push(order.len());
        wires.push(wire.finish());
    }
    (order, offsets, wires)
}

// ---------------------------------------------------------------------------
// The farm: one driver run per batch, the farm's slave loop on every slave
// ---------------------------------------------------------------------------

/// Price a batch's unique problems and give every slot its outcome:
/// on rank 0 when the batch is one frame ([`stays_on_front`]), else on
/// the resident slaves, as job frames driven by the farm's supervised
/// driver. Wire ids are assigned frame-major, so each frame is one
/// contiguous wire range, and are unique across the session, so a
/// straggler from an earlier batch names ids outside this one.
fn run_batch(
    comm: &Comm,
    cfg: &ServeConfig,
    slots: &mut [Slot],
    next_wire: &mut usize,
    report: &mut SessionReport,
) {
    let alive = (1..=cfg.slaves).filter(|&s| comm.rank_alive(s)).count();
    let frames = pack_frames(slots, alive);
    let base = *next_wire;
    *next_wire += slots.len();
    if stays_on_front(&frames) {
        // Nothing travels, so nothing can be lost: no deadline, no retry,
        // and a slave fault cannot touch these prices.
        for (k, &s) in frames[0].members.iter().enumerate() {
            let answer = price_one(comm, base + k, || Ok(&slots[s].problem));
            slots[s].outcome = Some(match answer {
                Answer::Priced {
                    price, std_error, ..
                } => Ok((price, std_error)),
                Answer::Failed { why, .. } => Err(why),
            });
        }
        comm.set_job(None);
        return;
    }
    let (order, offsets, wires) = encode_frames(slots, &frames, base);

    let farm = Farm {
        comm,
        base,
        frames: Some(&offsets),
        supervisor: Some(&cfg.supervisor),
        resident: true,
        strategy: Transmission::SerializedLoad,
    };
    let sc = SchedConfig::plain(frames.len(), cfg.slaves).policy(DispatchPolicy::Priority {
        class: frames.iter().map(|f| f.class).collect(),
    });
    // Every dispatch of a frame, a retry too, copies its retained bytes.
    let ran = drive(&farm, sc, |frame, _, _, buf| {
        buf.extend_from_slice(&wires[frame]);
        Ok(())
    });

    let slot = |wire: usize| order[wire - base];
    // Unanswered after a clean run: stranded by the death of every slave.
    let why = match ran {
        Ok(ran) => {
            report.retries += ran.retries as u64;
            for o in ran.outcomes {
                slots[slot(o.job)].outcome = Some(Ok((o.price, o.std_error)));
            }
            for (wire, why) in ran.failed_members {
                slots[slot(wire)].outcome = Some(Err(why));
            }
            for frame in ran.failed_jobs {
                for &s in &frames[frame].members {
                    slots[s].outcome = Some(Err("retry budget exhausted".into()));
                }
            }
            "all slaves dead".to_string()
        }
        Err(e) => e.to_string(),
    };
    for s in slots.iter_mut() {
        s.outcome.get_or_insert_with(|| Err(why.clone()));
    }
}

/// The resident slave: the farm's one slave loop, waiting as long as
/// the session lives (`slave_idle_timeout` is `Duration::MAX`).
fn resident_slave(comm: &Comm, cfg: &ServeConfig) {
    serve_jobs(comm, Some(&cfg.supervisor));
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm::wire::{batch_reply_value, decode_frame};
    use nspval::Value;

    /// A vanilla call: closed form, or a cheap tree that travels alone.
    fn vanilla(strike: f64, closed_form: bool) -> PremiaProblem {
        let mut p = PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap();
        p.option = pricing::OptionSpec::Call {
            strike,
            maturity: 1.0,
        };
        if !closed_form {
            p.method = MethodSpec::Tree { steps: 50 };
        }
        p
    }

    /// A slot whose problem is `problem`, keyed the way `submit` keys it.
    fn slot_of(problem: PremiaProblem, class: u8) -> Slot {
        Slot {
            key: store::MemoKey {
                fp: store::ContentFingerprint::of_fields(|f| problem.write_fields(f)),
                chunk: 0,
                lanes: 0,
            },
            problem,
            class,
            first: (0, 0),
            more: Vec::new(),
            outcome: None,
        }
    }

    /// A slot that claims a serialized size of `serial_len`.
    fn slot(serial_len: usize, closed_form: bool, class: u8) -> Slot {
        let mut slot = slot_of(vanilla(100.0, closed_form), class);
        slot.key.fp.len = serial_len as u64;
        slot
    }

    fn members(frames: &[Frame]) -> Vec<Vec<usize>> {
        frames.iter().map(|f| f.members.clone()).collect()
    }

    #[test]
    fn depth_refused_request_reserves_no_bytes() {
        let adm = Admission::new(2, 1000);
        adm.reserve_slot(1, 1).unwrap();
        adm.reserve_bytes(1, 1, 400).unwrap();
        // The class is at its share: refused on the slot alone, before
        // any byte is counted (or any problem sized).
        match adm.reserve_slot(1, 1) {
            Err(ServeError::Overloaded {
                priority: 1,
                queued: 1,
                depth_limit: 1,
                inflight_bytes: 400,
                byte_budget: 1000,
            }) => {}
            other => panic!("expected a depth shed, got {other:?}"),
        }
        assert_eq!(adm.depth[1].load(Ordering::SeqCst), 1);
        assert_eq!(adm.bytes.load(Ordering::SeqCst), 400);
        // Another class is unaffected.
        adm.reserve_slot(0, 1).unwrap();
    }

    #[test]
    fn byte_refused_request_releases_its_slot() {
        let adm = Admission::new(1, 1000);
        adm.reserve_slot(0, 4).unwrap();
        adm.reserve_bytes(0, 4, 700).unwrap();
        adm.reserve_slot(0, 4).unwrap();
        match adm.reserve_bytes(0, 4, 301) {
            Err(ServeError::Overloaded {
                priority: 0,
                queued: 1,
                depth_limit: 4,
                inflight_bytes: 700,
                byte_budget: 1000,
            }) => {}
            other => panic!("expected a byte shed, got {other:?}"),
        }
        assert_eq!(adm.depth[0].load(Ordering::SeqCst), 1, "slot rolled back");
        assert_eq!(adm.bytes.load(Ordering::SeqCst), 700, "bytes rolled back");
        // What fits is still admitted, and release returns both gauges.
        adm.reserve_slot(0, 4).unwrap();
        adm.reserve_bytes(0, 4, 300).unwrap();
        adm.release(0, 300);
        adm.release(0, 700);
        assert_eq!(adm.depth[0].load(Ordering::SeqCst), 0);
        assert_eq!(adm.bytes.load(Ordering::SeqCst), 0);
        // Larger than the whole budget: too large even on an idle
        // session, and the slot is rolled back all the same.
        adm.reserve_slot(0, 4).unwrap();
        match adm.reserve_bytes(0, 4, 1001) {
            Err(ServeError::TooLarge {
                bytes: 1001,
                byte_budget: 1000,
            }) => {}
            other => panic!("expected too large, got {other:?}"),
        }
        assert_eq!(adm.depth[0].load(Ordering::SeqCst), 0);
        assert_eq!(adm.bytes.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn closed_form_slots_split_evenly_and_iterative_slots_travel_alone() {
        let mut slots: Vec<Slot> = (0..10).map(|_| slot(100, true, 1)).collect();
        slots.insert(4, slot(100, false, 1));
        let frames = pack_frames(&slots, 3);
        // ceil(10 / 3) = 4 closed-form members per frame; the iterative
        // slot 4 sits between them in a frame of its own.
        assert_eq!(
            members(&frames),
            [vec![0, 1, 2, 3], vec![4], vec![5, 6, 7, 8], vec![9, 10]]
        );
        // One slave: every closed-form slot in one frame.
        assert_eq!(
            members(&pack_frames(&slots, 1)),
            [vec![0, 1, 2, 3, 5, 6, 7, 8, 9, 10], vec![4]]
        );
        // No slave alive is packed like one (the scheduler aborts the
        // batch anyway).
        assert_eq!(pack_frames(&slots, 0).len(), 2);
    }

    #[test]
    fn frames_never_mix_priority_classes() {
        let slots = [
            slot(40, true, 2),
            slot(40, true, 0),
            slot(40, true, 2),
            slot(40, true, 0),
        ];
        let frames = pack_frames(&slots, 1);
        assert_eq!(members(&frames), [vec![0, 2], vec![1, 3]]);
        assert_eq!(frames[0].class, 2);
        assert_eq!(frames[1].class, 0);
    }

    #[test]
    fn frame_bytes_are_the_encoded_size_and_respect_the_cap() {
        // Sizes that exercise the XDR padding of every residue mod 4.
        let mut slots: Vec<Slot> = (0..400).map(|i| slot(597 + i % 4, true, 0)).collect();
        // One problem larger than the cap still travels, alone.
        slots.push(slot(FRAME_CAP_BYTES + 1, true, 0));
        let frames = pack_frames(&slots, 1);
        assert!(frames.len() > 4, "{} frames", frames.len());
        for frame in &frames {
            let mut wire = JobFrame::new(Vec::new());
            for &s in &frame.members {
                let body = Body::Serial {
                    compressed: false,
                    bytes: &vec![7; slots[s].serial_len()],
                };
                wire.push(s, body);
            }
            assert_eq!(frame.bytes, wire.finish().len());
            assert!(frame.bytes <= FRAME_CAP_BYTES || frame.members.len() == 1);
        }
        let packed: Vec<usize> = frames.iter().flat_map(|f| f.members.clone()).collect();
        assert_eq!(packed, (0..slots.len()).collect::<Vec<_>>());
    }

    #[test]
    fn travelling_frames_carry_each_problems_own_bytes() {
        // Closed-form vanillas of two classes and two trees, with names
        // of every length mod 4, over two slaves: several frames.
        let slots: Vec<Slot> = (0..13)
            .map(|i| {
                let mut p = vanilla(80.0 + i as f64, i % 5 != 2);
                p.asset = "x".repeat(i % 4);
                slot_of(p, (i % 2) as u8)
            })
            .collect();
        let frames = pack_frames(&slots, 2);
        assert!(frames.len() > 2, "{} frames", frames.len());
        let base = 1000;
        let (order, offsets, wires) = encode_frames(&slots, &frames, base);
        assert_eq!(offsets.len(), frames.len() + 1);
        for (f, frame) in frames.iter().enumerate() {
            let mut want = JobFrame::new(Vec::new());
            for (k, &s) in frame.members.iter().enumerate() {
                let p = &slots[s].problem;
                let body = Body::Serial {
                    compressed: false,
                    bytes: &p.to_xdr_bytes(),
                };
                want.push(base + offsets[f] + k, body);
                assert_eq!(order[offsets[f] + k], s);
            }
            assert_eq!(wires[f], want.finish(), "frame {f}");
            assert_eq!(wires[f].len(), frame.bytes, "frame {f} packed by its size");
        }
    }

    #[test]
    fn a_batch_stays_on_the_front_exactly_when_it_packs_into_one_frame() {
        let closed: Vec<Slot> = (0..4).map(|_| slot(100, true, 1)).collect();
        // One slave: one frame, priced inline.
        assert!(stays_on_front(&pack_frames(&closed, 1)));
        // Two slaves: two frames, driven over the slaves.
        assert!(!stays_on_front(&pack_frames(&closed, 2)));
        // A lone iterative problem is one frame too: inline, whatever
        // its method.
        assert!(stays_on_front(&pack_frames(&[slot(100, false, 1)], 1)));
        assert!(stays_on_front(&pack_frames(&[slot(100, false, 1)], 4)));
        // Closed-form problems beside an iterative one make two frames.
        let mixed = [slot(100, true, 1), slot(100, false, 1)];
        assert!(!stays_on_front(&pack_frames(&mixed, 1)));
    }

    /// Answers its first two frames with replies no honest slave sends,
    /// then serves honestly.
    fn rogue_slave(comm: &Comm, cfg: &ServeConfig) {
        for round in 0..2 {
            let (msg, _) = comm.recv(0, TAG).unwrap();
            let members = decode_frame(&msg).expect("a job frame");
            let wrong: Vec<Answer> = members
                .iter()
                .map(|&(wire, _)| Answer::Priced {
                    job: wire,
                    price: 666.0,
                    std_error: None,
                })
                .collect();
            let Value::List(columns) = batch_reply_value(&wrong) else {
                panic!("a reply is a list of columns");
            };
            let mut columns: Vec<Value> = columns.into_iter().collect();
            if round == 0 {
                // A price column one short of the ids.
                columns[1] = Value::Real(nspval::Matrix::row(vec![666.0; members.len() - 1]));
            } else {
                // A failure naming a member the frame does not have.
                columns[4] = Value::list(vec![Value::list(vec![
                    Value::scalar(members.len() as f64),
                    Value::string("no such member"),
                ])]);
            }
            comm.send_obj(&Value::list(columns), 0, TAG).unwrap();
        }
        resident_slave(comm, cfg);
    }

    /// Shutdown sends each resident slave its stop sentinel, finds it
    /// parked and leaves the wake owed; the front's `Comm`, dropped as
    /// the front loop returns, must issue the last one or the join hangs.
    /// Each request carries two iterative problems: two frames, so its
    /// batch travels and every slave has answered and parked again.
    #[test]
    fn shutdown_wakes_every_resident_slave() {
        let shut_down = std::thread::spawn(|| {
            for _ in 0..10 {
                let session = Session::start(ServeConfig::new(3)).unwrap();
                for k in 0..3 {
                    let strike = 90.0 + k as f64;
                    let problems = vec![vanilla(strike, false), vanilla(strike + 20.0, false)];
                    let response = session.submit(Request::new(problems)).unwrap();
                    assert!(response.wait().unwrap().all_priced());
                }
                assert_eq!(session.shutdown().unwrap().computed, 6);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !shut_down.is_finished() {
            assert!(
                Instant::now() < deadline,
                "shutdown hung on a slave never woken"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        shut_down.join().expect("every shutdown returns");
    }

    /// Two requests in one batch, a client parked on the first ticket:
    /// the batch answers both before it wakes anyone, so the client,
    /// woken once, collects the second ticket without parking again. The
    /// interleaving is forced by the parked flag, not slept into.
    #[test]
    fn a_client_woken_on_one_ticket_collects_the_next_without_parking() {
        let cfg = ServeConfig::new(1);
        let admission = Admission::new(cfg.priorities, cfg.inflight_bytes);
        let mut front = Front::new(&cfg);
        let mut receivers = Vec::new();
        let problems = [vanilla(95.0, true), vanilla(105.0, true)];
        for (id, problem) in problems.iter().enumerate() {
            let key = slot_of(problem.clone(), 1).key;
            let bytes = key.fp.len as usize;
            admission.reserve_slot(1, cfg.depth_limit(1)).unwrap();
            admission
                .reserve_bytes(1, cfg.depth_limit(1), bytes)
                .unwrap();
            let (reply, rx) = queue::oneshot();
            let sub = Submitted {
                id: id as u64,
                problems: vec![problem.clone()],
                keys: vec![key],
                priority: 1,
                submitted: Instant::now(),
                enq_ns: None,
                bytes,
                reply,
            };
            front.requests.push(Open {
                sub: Box::new(sub),
                answers: Answers::default(),
            });
            receivers.push(rx);
        }
        let mut second = receivers.pop().unwrap();
        let mut first = receivers.pop().unwrap();
        let client = std::thread::spawn(move || {
            let answers = [first.recv(), second.recv()];
            (answers, first.parks(), second.parks())
        });
        while !front.requests[0].sub.reply.parked() {
            std::thread::yield_now();
        }
        // A one-rank world: no slave alive, so the batch's one frame is
        // priced on the front loop.
        let front = Mutex::new(front);
        World::run(1, |comm| {
            serve_batch(&comm, &cfg, &admission, &mut front.lock().unwrap())
        });
        let mut front = front.into_inner().unwrap();
        // Both tickets answered and their admission returned, and one wake
        // owed — the parked client's, on the first ticket — and not yet
        // issued.
        assert_eq!(admission.depth[1].load(Ordering::SeqCst), 0);
        assert_eq!(admission.bytes.load(Ordering::SeqCst), 0);
        assert_eq!(front.wakes.len(), 1);
        // What the front loop does after the batch.
        front.wakes.clear();
        let (answers, first_parks, second_parks) = client.join().unwrap();
        for (answer, problem) in answers.into_iter().zip(&problems) {
            let want = problem.compute().unwrap().price.to_bits();
            let response = answer.expect("answered");
            assert_eq!(response.results[0].as_ref().unwrap().price.to_bits(), want);
        }
        assert!(first_parks >= 1, "parked on the first ticket");
        assert_eq!(second_parks, 0, "the second ticket was in before the wake");
    }

    #[test]
    fn inconsistent_answer_frames_are_dropped_and_the_deadline_redispatches() {
        // Four vanillas share a frame and the tree travels alone: two
        // frames, so the batch goes over the wire to the rogue.
        let mut problems: Vec<PremiaProblem> =
            (0..4).map(|i| vanilla(90.0 + i as f64, true)).collect();
        problems.push(vanilla(95.0, false));
        let expected: Vec<u64> = problems
            .iter()
            .map(|p| p.compute().unwrap().price.to_bits())
            .collect();
        let cfg = ServeConfig::new(1)
            .job_deadline(Duration::from_millis(50))
            .poll(Duration::from_millis(2));
        let session = Session::start_with(cfg, rogue_slave).unwrap();
        let response = session
            .submit(Request::new(problems))
            .unwrap()
            .wait()
            .unwrap();
        let got: Vec<u64> = response
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().price.to_bits())
            .collect();
        assert_eq!(got, expected, "neither bad reply was believed");
        let report = session.shutdown().unwrap();
        assert_eq!((report.computed, report.failed, report.retries), (5, 0, 2));
    }
}
