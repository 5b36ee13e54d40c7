//! The virtual-time world a simulated flat run is driven over: a third
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

use crate::params::SimConfig;
use crate::resource::Resource;
use crate::sim::{SimCaches, SimFault, SimJob, SimSpec};
use farm::minimpi::{Frame, Payload, Transport, TransportError};
use farm::slave::TAG;
use farm::strategy::Transmission;
use farm::wire::{self, Answer, Body, JobFrame};
use obs::{Event, EventKind, NO_JOB};
use sched::{Batch, SchedConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What is in flight, `(time, slave, what, first member, end)`: an
/// answer on its way to the master, a death it has yet to notice, or a
/// slave turning to the next member of an NFS frame. A time is a
/// non-negative `f64`, ordered by its bits; the slave index breaks ties.
type Entry = (u64, usize, u8, usize, usize);
const ANSWER: u8 = 0;
const DEAD: u8 = 1;
const MEMBER: u8 = 2;

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
    faults: Vec<SimFault>,
    pub(crate) caches: SimCaches,
    pub(crate) master: Resource,
    nfs: Resource,
    slaves: Vec<Resource>,
    queue: BinaryHeap<Reverse<Entry>>,
    /// Per slave: dispatches so far and the jobs of the latest one.
    sent: Vec<(usize, Range<usize>)>,
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
    /// A world for `spec`'s jobs on `sched`'s slaves, carrying `caches`.
    pub(crate) fn new(spec: &SimSpec, sched: &SchedConfig, caches: SimCaches) -> World {
        let slaves = sched.slaves;
        World(Mutex::new(Model {
            jobs: spec.jobs.to_vec(),
            strategy: spec.strategy,
            loaded: spec.strategy != Transmission::Nfs,
            cfg: *spec.cfg,
            framed: sched.batch == Batch::Guided,
            faults: spec.faults.to_vec(),
            caches,
            master: Resource::new(),
            nfs: Resource::new(),
            slaves: vec![Resource::new(); slaves],
            queue: BinaryHeap::new(),
            sent: vec![(0, 0..0); slaves],
            dead: vec![false; slaves + 1],
            epoch: Instant::now(),
            now: 0.0,
            departed: (0.0, 0),
            spare: Vec::new(),
            makespan: 0.0,
            events: spec.recorder.map(|_| Vec::new()),
        }))
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

    /// Slave `s` takes the message that just left, carrying `members`,
    /// and prices them; the reads of an NFS frame's members queue at the
    /// server with other slaves' reads, each taken in time order.
    fn arrive(&mut self, s: usize, members: Range<usize>) {
        let (sent, wire) = self.departed;
        self.sent[s] = (self.sent[s].0 + 1, members.clone());
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
    /// answers — or dies sending the answer, if a fault says so, and the
    /// master notices `detect_delay_s` after the send began.
    fn answer(&mut self, members: Range<usize>, s: usize, done: f64) {
        // A per-job reply is its job's; a frame's is no one job's.
        let j = if self.framed { FRAME } else { members.start };
        let (cfg, bytes) = (self.cfg, reply_bytes(members.len()));
        let prep = cfg.slave.result_prep;
        self.emit(EventKind::Serialize, s + 1, j, done - prep, prep, bytes);
        let wire = cfg.network.transfer_time(bytes) + cfg.transport.cost(bytes);
        self.emit(EventKind::Send, s + 1, j, done, wire, bytes);
        let nth = self.sent[s].0 - 1;
        let fatal = |f: &&SimFault| (f.slave, f.fatal_dispatch) == (s, nth);
        match self.faults.iter().find(fatal) {
            Some(f) => self.push(done + f.detect_delay_s, s, DEAD, members),
            None => self.push(done + wire, s, ANSWER, members),
        }
    }

    /// Run the slaves up to the next answer the master takes, no later
    /// than `until` (virtual seconds): its reply, or `None` when `until`
    /// or a slave's death comes first. With nothing in flight and no
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
                    self.answer(self.sent[s].1.clone(), s, done);
                }
                DEAD => {
                    self.dead[s + 1] = true;
                    self.now = self.now.max(t);
                    return Ok(None);
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

    /// A job frame reaches its slave as [`World::dispatch`] left it; a
    /// stop costs nothing.
    fn send(&self, dest: usize, frame: Frame) -> Result<(), TransportError> {
        let mut model = self.model();
        if model.dead[dest] {
            return Err(TransportError::Dead(dest));
        }
        if !frame.payload.is_empty() {
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
    use std::sync::Arc;

    #[test]
    fn a_timed_receive_ends_at_the_virtual_deadline_without_a_wall_clock_wait() {
        let (cfg, sched) = (SimConfig::default(), SchedConfig::plain(0, 1));
        let spec = SimSpec {
            jobs: &[],
            strategy: Transmission::SerializedLoad,
            cfg: &cfg,
            recorder: None,
            faults: &[],
            topology: crate::sim::Topology::Flat(sched.clone()),
        };
        let world = World::new(&spec, &sched, SimCaches::new());
        let comm = Comm::over(Arc::new(world));
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
