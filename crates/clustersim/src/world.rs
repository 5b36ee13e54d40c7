//! The virtual-time world a simulated run is driven over: a third
//! [`Transport`] backend, beside `transport`'s channels and sockets, in
//! which only rank 0 — `farm::driver::drive` — is real. `drive`'s writer
//! charges the master's side of a dispatch ([`World::dispatch`]) and
//! writes a job frame of member ids, which `drive` sends; the world
//! prices what the slave would do with it and queues its answer, a real
//! `farm::wire` batch reply, at the virtual time it lands. A receive
//! takes the earliest answer, or ends at its deadline, and the clock
//! ([`Transport::now`]) jumps there. Every modelled phase is recorded in
//! the live farm's [`EventKind`] schema (rank 0 the master, slave *s*
//! rank `s + 1`), as the live ranks record it: per member under its job,
//! a message's send under its first job, a frame's receive and reply
//! under no job.
//!
//! A fault plan faults the master through its own `Comm`, and each
//! modelled slave's `Comm` operations by the one rule of `docs/FAULTS.md`.

use crate::params::SimConfig;
use crate::resource::Resource;
use crate::sim::{SimCaches, SimJob, SimSpec};
use farm::minimpi::{Cursor, FaultPlan, Frame, Payload, SendFault, Transport, TransportError};
use farm::slave::TAG;
use farm::strategy::Transmission;
use farm::wire::{self, Answer, Body, JobFrame};
use obs::{Event, EventKind, NO_JOB};
use sched::Batch;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What is in flight, `(time, slave, what, a, b)`: an answer on its way
/// to the master or a slave turning to the next member of an NFS frame
/// (jobs `a..b`), a truncated reply (full and kept bytes), or a death. A
/// time is a non-negative `f64`, ordered by its bits; the slave breaks ties.
type Entry = (u64, usize, u8, usize, usize);
const ANSWER: u8 = 0;
const KILL: u8 = 1;
const MEMBER: u8 = 2;
const TRUNCATED: u8 = 3;

/// The job index of an event under no job (a frame's receive and reply,
/// the master's gather): no job has it.
const FRAME: usize = usize::MAX;

/// What a name member adds to its message.
const NAME_BYTES: usize = 64;

/// A reply: a fixed-size record plus a row (id, price, error, mask) per
/// further member.
fn reply_bytes(members: usize) -> usize {
    96 + 25 * (members - 1)
}

/// Rank 0's endpoint in a simulated cluster of `slaves + 1` ranks.
pub(crate) struct World(Mutex<Model>);

/// The performance model of one run and where it stands.
pub(crate) struct Model {
    jobs: Vec<SimJob>,
    strategy: Transmission,
    /// Problems travel as bytes (not NFS names).
    loaded: bool,
    cfg: SimConfig,
    /// Job frames rather than Fig. 4's per-job protocol.
    framed: bool,
    plan: Option<Arc<FaultPlan>>,
    /// Per slave: its place in `plan`, and whether the plan killed it.
    at: Vec<(Cursor, bool)>,
    pub(crate) caches: SimCaches,
    pub(crate) master: Resource,
    nfs: Resource,
    slaves: Vec<Resource>,
    queue: BinaryHeap<Reverse<Entry>>,
    /// Per slave: the jobs of its latest dispatch.
    sent: Vec<Range<usize>>,
    /// Dead ranks, rank 0 the master.
    dead: Vec<bool>,
    /// The instant virtual time 0 stands for, and virtual seconds since.
    epoch: Instant,
    now: f64,
    /// When the master's latest message left, and its bytes.
    departed: (f64, usize),
    /// The last job frame's allocation, which the next reply is written into.
    spare: Vec<u8>,
    /// When the master handled its last answer.
    pub(crate) makespan: f64,
    /// The recorded phases, when someone records.
    pub(crate) events: Option<Vec<Event>>,
}

impl World {
    /// A world for `spec`'s jobs on its config's slaves, carrying `caches`.
    pub(crate) fn new(spec: &SimSpec, caches: SimCaches) -> World {
        let slaves = spec.sched.slaves;
        let mut model = Model {
            jobs: spec.jobs.to_vec(),
            strategy: spec.strategy,
            loaded: spec.strategy != Transmission::Nfs,
            cfg: *spec.cfg,
            framed: spec.sched.batch == Batch::Guided,
            plan: spec.plan.clone(),
            at: vec![(Cursor::default(), false); slaves],
            caches,
            master: Resource::new(),
            nfs: Resource::new(),
            slaves: vec![Resource::new(); slaves],
            queue: BinaryHeap::new(),
            sent: vec![0..0; slaves],
            dead: vec![false; slaves + 1],
            epoch: Instant::now(),
            now: 0.0,
            departed: (0.0, 0),
            spare: Vec::new(),
            makespan: 0.0,
            events: spec.recorder.map(|_| Vec::new()),
        };
        // Every slave starts waiting for its first frame.
        for s in 0..slaves {
            model.op(s, 0.0, None);
        }
        World(Mutex::new(model))
    }

    pub(crate) fn model(&self) -> MutexGuard<'_, Model> {
        self.0.lock().expect("one thread drives the world")
    }

    /// Charge the master for sending scheduler jobs `members` now, and
    /// write the job frame that carries their ids into `buf`.
    pub(crate) fn dispatch(&self, members: Range<usize>, buf: &mut Vec<u8>) {
        self.model().charge_master(members.clone());
        let mut frame = JobFrame::new(std::mem::take(buf));
        members.for_each(|j| frame.push(j, Body::Name("")));
        *buf = frame.finish();
    }
}

impl Model {
    /// Record one modelled phase of job `j` (or [`FRAME`]), in seconds.
    fn emit(&mut self, kind: EventKind, rank: usize, j: usize, start: f64, dur: f64, bytes: usize) {
        let job = self.jobs.get(j).map_or(NO_JOB, |job| job.id as i64);
        if let Some(events) = &mut self.events {
            events.push(Event {
                kind,
                rank: rank as u16,
                job,
                start_ns: (start * 1e9) as u64,
                dur_ns: (dur * 1e9) as u64,
                bytes: bytes as u64,
            });
        }
    }

    /// What job `j` adds to its message and its codec CPU on the master
    /// and on the slave: a loaded payload over the threshold goes
    /// compressed by `compress_ratio` when the model compresses.
    fn member_wire(&self, j: usize) -> (usize, f64, f64) {
        let (store, bytes) = (&self.cfg.store, self.jobs[j].bytes);
        if !self.loaded {
            (NAME_BYTES, 0.0, 0.0)
        } else if store.compress && bytes >= store.compress_threshold {
            let compressed = (bytes as f64 * store.compress_ratio).ceil() as usize;
            let cpu = |per_byte: f64| per_byte * bytes as f64;
            let (zip, unzip) = (cpu(store.compress_cpu), cpu(store.decompress_cpu));
            (compressed.min(bytes), zip, unzip)
        } else {
            (bytes, 0.0, 0.0)
        }
    }

    /// Master side of a dispatch: prepare every member, then send them
    /// as one message (96 bytes around loaded bodies), from now.
    fn charge_master(&mut self, members: Range<usize>) {
        let (cfg, loaded) = (self.cfg, self.loaded);
        let (m, store) = (cfg.master, cfg.store);
        // The fetch+materialise span beyond the name message: a warm
        // client-cache hit (loaded) shrinks the fetch to `hit_fetch`, not
        // full load's materialisation (unserialize + rebuild + serialize).
        let (base_prep, materialise, prep) = match self.strategy {
            Transmission::FullLoad => (
                m.full_load_prep,
                m.full_load_prep - m.sload_prep,
                Some(EventKind::Serialize),
            ),
            Transmission::SerializedLoad => (m.sload_prep, 0.0, Some(EventKind::Sload)),
            Transmission::Nfs => (m.nfs_prep, 0.0, None),
        };
        let (materialise, name_prep) = (materialise.max(0.0), m.nfs_prep.min(base_prep));
        let uncached = base_prep - name_prep;
        let (mut busy, mut wire) = (0.0, if loaded { 96 } else { 0 });
        let mut plan = Vec::with_capacity(members.len());
        for j in members.clone() {
            let hit =
                (store.client_cache && loaded).then(|| !self.caches.client.insert(self.jobs[j].id));
            let fetch = match hit {
                None => uncached,
                Some(true) => materialise + store.hit_fetch,
                Some(false) => materialise + (uncached - materialise).max(0.0),
            };
            let (body, zip, _) = self.member_wire(j);
            busy += name_prep + fetch + zip;
            wire += body;
            plan.push((fetch, hit, zip, body));
        }
        let transfer = cfg.network.transfer_time(wire) + cfg.transport.cost(wire);
        // Prep, compression and NIC occupancy are serial on the master.
        let sent = self.master.acquire(self.now, busy + transfer);
        // Per member its prep (a frame's with its name, a per-job message's
        // name a Serialize of its own), then the NIC as Send, first job.
        let mut t = sent - busy - transfer;
        for (j, (fetch, hit, zip, body)) in members.clone().zip(plan) {
            let bytes = self.jobs[j].bytes;
            let span = fetch + if self.framed { name_prep } else { 0.0 };
            if let Some(kind) = prep {
                self.emit(kind, 0, j, t, span, bytes);
            }
            t += fetch;
            match hit {
                Some(true) => self.emit(EventKind::CacheHit, 0, j, t, 0.0, bytes),
                Some(false) => self.emit(EventKind::CacheMiss, 0, j, t, 0.0, bytes),
                None => {}
            }
            if !self.framed {
                self.emit(EventKind::Serialize, 0, j, t, name_prep, NAME_BYTES);
            }
            t += name_prep;
            if zip > 0.0 {
                self.emit(EventKind::Compress, 0, j, t, zip, bytes - body);
                t += zip;
            }
            if loaded {
                self.emit(EventKind::Pack, 0, j, t, 0.0, bytes);
            }
        }
        self.emit(EventKind::Send, 0, members.start, t, transfer, wire);
        self.departed = (sent, wire);
    }

    /// Slave `s` makes its next `Comm` operation at `t`, a reply of `len`
    /// bytes when `reply` is `Some(len)`: `None` if it dies there, its
    /// rank dead from `t`. With no plan nothing is counted.
    fn op(&mut self, s: usize, t: f64, reply: Option<usize>) -> Option<SendFault> {
        let Some(plan) = &self.plan else {
            return Some(SendFault::Deliver);
        };
        let (at, doomed) = &mut self.at[s];
        let verdict = plan.verdict(s + 1, at, reply);
        if verdict.is_none() {
            *doomed = true;
            self.push(t, s, KILL, 0..0);
        }
        verdict
    }

    /// Slave `s` takes the message that just left, carrying `members`,
    /// and prices them; the reads of an NFS frame's members queue at the
    /// server with other slaves' reads, each taken in time order.
    fn arrive(&mut self, s: usize, members: Range<usize>) {
        let (sent, wire) = self.departed;
        self.sent[s] = members.clone();
        let mut t = self.slaves[s].acquire(sent, 0.0);
        if self.framed {
            self.emit(EventKind::Recv, s + 1, FRAME, t, 0.0, wire);
        } else if self.loaded {
            self.emit(EventKind::Probe, s + 1, members.start, t, 0.0, wire);
            self.emit(EventKind::Recv, s + 1, members.start, t, 0.0, wire);
        }
        if self.framed && !self.loaded {
            return self.push(t, s, MEMBER, members);
        }
        let prep = self.cfg.slave.result_prep;
        for j in members.clone() {
            t = self.price(j, s, t, if j + 1 == members.end { prep } else { 0.0 });
        }
        self.answer(members, s, t);
    }

    fn push(&mut self, t: f64, s: usize, what: u8, members: Range<usize>) {
        let entry = (t.to_bits(), s, what, members.start, members.end);
        self.queue.push(Reverse(entry));
    }

    /// Slave `s`, free at `t`, recovers and prices job `j`, then spends
    /// `tail` (the reply's preparation, behind a last member). Returns
    /// when the slave is free again.
    fn price(&mut self, j: usize, s: usize, mut t: f64, tail: f64) -> f64 {
        let (cfg, job) = (self.cfg, self.jobs[j]);
        let (store, bytes) = (cfg.store, job.bytes);
        if self.loaded {
            let (_, _, unzip) = self.member_wire(j);
            if unzip > 0.0 {
                self.emit(EventKind::Decompress, s + 1, j, t, unzip, bytes);
                t += unzip;
            }
            self.emit(EventKind::Unpack, s + 1, j, t, cfg.slave.unpack, bytes);
            t += cfg.slave.unpack;
        } else if store.client_cache && !self.caches.client.insert(job.id) {
            // A warm client cache: the fetch never leaves the node.
            self.emit(EventKind::NfsRead, s + 1, j, t, store.hit_fetch, bytes);
            t += store.hit_fetch;
            self.emit(EventKind::CacheHit, s + 1, j, t, 0.0, bytes);
        } else {
            let read = if self.caches.nfs.access(job.id) {
                cfg.nfs.warm_read
            } else {
                cfg.nfs.cold_read
            };
            t = self.nfs.acquire(t, read);
            self.emit(EventKind::NfsRead, s + 1, j, t - read, read, bytes);
            if store.client_cache {
                self.emit(EventKind::CacheMiss, s + 1, j, t, 0.0, bytes);
            }
        }
        let free = self.slaves[s].acquire(t, job.compute + tail);
        let start = free - job.compute - tail;
        self.emit(EventKind::Compute, s + 1, j, start, job.compute, 0);
        free
    }

    /// Slave `s` has priced `members`, its reply prepared by `done`, and
    /// sends it as the plan says (unless it dies there), then waits.
    fn answer(&mut self, members: Range<usize>, s: usize, done: f64) {
        // A per-job reply is its job's; a frame's is no one job's.
        let j = if self.framed { FRAME } else { members.start };
        let (cfg, bytes) = (self.cfg, reply_bytes(members.len()));
        let prep = cfg.slave.result_prep;
        self.emit(EventKind::Serialize, s + 1, j, done - prep, prep, bytes);
        let Some(fault) = self.op(s, done, Some(bytes)) else {
            return;
        };
        let wire = cfg.network.transfer_time(bytes) + cfg.transport.cost(bytes);
        self.emit(EventKind::Send, s + 1, j, done, wire, bytes);
        let landed = done + wire;
        match fault {
            SendFault::Deliver => self.push(landed, s, ANSWER, members),
            SendFault::Drop => {}
            SendFault::Delay(by) => self.push(landed + by.as_secs_f64(), s, ANSWER, members),
            SendFault::Truncate(kept) => {
                let entry = (landed.to_bits(), s, TRUNCATED, bytes, kept);
                self.queue.push(Reverse(entry));
            }
        }
        self.op(s, done, None);
    }

    /// Run the slaves up to the next answer the master takes, no later
    /// than `until` (virtual seconds): its reply, or `None` when `until`
    /// comes first; a truncated reply fails the receive once, and is gone
    /// by the time `drive` discards it. With nothing in flight and no
    /// deadline the master would wait forever: that is a disconnection.
    fn next_reply(&mut self, until: Option<f64>) -> Result<Option<Frame>, TransportError> {
        loop {
            let next = self.queue.peek().map(|&Reverse(e)| e);
            let due = next.filter(|e| until.is_none_or(|u| f64::from_bits(e.0) <= u));
            let Some((t, s, what, job, end)) = due else {
                self.now = self.now.max(until.ok_or(TransportError::Disconnected)?);
                return Ok(None);
            };
            self.queue.pop();
            let t = f64::from_bits(t);
            match what {
                MEMBER if job + 1 < end => {
                    let free = self.price(job, s, t, 0.0);
                    self.push(free, s, MEMBER, job + 1..end);
                }
                MEMBER => {
                    let done = self.price(job, s, t, self.cfg.slave.result_prep);
                    self.answer(self.sent[s].clone(), s, done);
                }
                KILL => {
                    self.dead[s + 1] = true;
                    self.emit(EventKind::SlaveDeath, s + 1, FRAME, t, 0.0, 0);
                }
                TRUNCATED => {
                    self.now = self.now.max(t);
                    return Err(TransportError::Truncated {
                        needed: job,
                        capacity: end,
                    });
                }
                _ => {
                    // Under no job, as the live master's ANY_SOURCE receive.
                    let handle = self.cfg.master.result_handle;
                    let handled = self.master.acquire(t, handle);
                    let bytes = reply_bytes(end - job);
                    self.emit(EventKind::Recv, 0, FRAME, handled - handle, handle, bytes);
                    self.makespan = self.makespan.max(handled);
                    self.now = self.now.max(handled);
                    // The simulator prices nothing: each member answers 0.
                    let answers: Vec<Answer> = (job..end)
                        .map(|job| Answer::Priced {
                            job,
                            price: 0.0,
                            std_error: None,
                        })
                        .collect();
                    let reply = wire::encode_reply(&answers, std::mem::take(&mut self.spare));
                    return Ok(Some(Frame::new(s + 1, TAG, Payload::Owned(reply))));
                }
            }
        }
    }
}

impl Transport for World {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        self.model().dead.len()
    }

    fn epoch(&self) -> Instant {
        self.model().epoch
    }

    fn now(&self) -> Instant {
        let model = self.model();
        model.epoch + Duration::from_secs_f64(model.now)
    }

    /// A job frame reaches its slave as [`World::dispatch`] left it and
    /// the master's plan delayed or cut it, unless the slave is doomed; a
    /// stop costs nothing.
    fn send(&self, dest: usize, frame: Frame) -> Result<(), TransportError> {
        let mut model = self.model();
        if model.dead[dest] {
            return Err(TransportError::Dead(dest));
        }
        if model.at[dest - 1].1 {
            return Ok(());
        }
        if let Some(visible) = frame.visible_at {
            let by = visible.saturating_duration_since(model.epoch).as_secs_f64() - model.now;
            model.departed.0 += by.max(0.0);
        }
        if frame.payload.len() < frame.full_len {
            // Discarded (one more op); the deadline requeues what it held.
            let (s, sent) = (dest - 1, model.departed.0);
            let t = model.slaves[s].acquire(sent, 0.0);
            if model.op(s, t, None).is_some() {
                model.op(s, t, None);
            }
        } else if !frame.payload.is_empty() {
            let ids = wire::decode_frame(frame.payload.as_slice())
                .map_err(|e| TransportError::Io(e.to_string()))?;
            model.arrive(dest - 1, ids[0].0..ids[ids.len() - 1].0 + 1);
            model.spare = frame.payload.into_vec();
        }
        Ok(())
    }

    fn match_deadline(
        &self,
        _: i32,
        _: i32,
        deadline: Option<Instant>,
        _: bool,
    ) -> Result<Option<Frame>, TransportError> {
        let mut model = self.model();
        let since = |d: Instant| d.saturating_duration_since(model.epoch).as_secs_f64();
        let until = deadline.map(since);
        model.next_reply(until)
    }

    /// Nothing becomes visible without the clock moving.
    fn try_match(&self, _: i32, _: i32) -> Result<Option<Frame>, TransportError> {
        Ok(None)
    }

    fn discard(&self, _: i32, _: i32) -> Result<bool, TransportError> {
        Ok(false)
    }

    fn kill(&self, rank: usize) {
        self.model().dead[rank] = true;
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.model().dead[rank]
    }

    /// One thread: no one to wake or wait for.
    fn poison(&self) {}

    fn barrier(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm::minimpi::{Comm, MpiError, ANY_SOURCE};
    use sched::SchedConfig;

    #[test]
    fn a_timed_receive_ends_at_the_virtual_deadline_without_a_wall_clock_wait() {
        let cfg = SimConfig::default();
        let spec = SimSpec {
            jobs: &[],
            strategy: Transmission::SerializedLoad,
            cfg: &cfg,
            recorder: None,
            plan: None,
            sched: SchedConfig::plain(0, 1),
        };
        let world = World::new(&spec, SimCaches::new());
        let comm = Comm::over(Arc::new(world), None);
        let wall = Instant::now();
        let hour = Duration::from_secs(3600);
        assert!(comm.recv_timeout(ANY_SOURCE, TAG, hour).unwrap().is_none());
        assert_eq!(comm.wtime(), 3600.0);
        assert!(
            wall.elapsed() < Duration::from_secs(1),
            "{:?}",
            wall.elapsed()
        );
        // Nothing in flight and no deadline: a receive that would wait
        // forever is refused instead.
        assert!(matches!(
            comm.recv_obj(ANY_SOURCE, TAG),
            Err(MpiError::Disconnected)
        ));
    }
}
