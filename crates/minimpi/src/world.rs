//! Launching rank groups: the static `MPI_COMM_WORLD` style entry point and
//! the dynamic `NSP_spawn` (MPI_Comm_spawn + MPI_Intercomm_merge) path.

use crate::comm::Comm;
use crate::fault::FaultPlan;
use obs::Recorder;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use transport::{ChannelGroup, Transport};

/// Entry points for creating communicator groups.
pub struct World;

impl World {
    /// Run `f` on `size` ranks (threads); rank `i` receives a [`Comm`] with
    /// `rank() == i` and `size() == size`. Blocks until every rank
    /// finishes and returns their results in rank order.
    ///
    /// This is the `mpirun -np size` entry point: Fig. 4's
    /// `MPI_Init(); MPI_COMM_WORLD = mpicomm_create('WORLD')` preamble maps
    /// to simply receiving the `Comm`.
    ///
    /// If any rank panics, the group is poisoned so blocked peers fail
    /// with [`crate::MpiError::Disconnected`] instead of deadlocking, and
    /// the first panic is propagated to the caller.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        F: Fn(Comm) -> T + Send + Sync,
        T: Send,
    {
        Self::run_inner(size, None, None, f)
    }

    /// The fully general entry point: [`World::run`] plus an optional
    /// fault plan and an optional phase-event [`Recorder`]. Every rank's
    /// [`Comm`] carries the recorder handle, so all point-to-point and
    /// pack/unpack traffic is timestamped into the per-rank ring buffers;
    /// with `recorder == None` the instrumentation compiles down to a
    /// `None` check and no clock reads (see `tests/obs_overhead.rs`).
    ///
    /// A rank killed by the plan does not panic: its next operation
    /// returns [`crate::MpiError::Poisoned`] and the closure decides how to
    /// wind down, exactly as a real process would observe a comm failure.
    /// Pass the plan as an `Arc` to keep a handle for
    /// [`FaultPlan::events`] after the world finishes.
    pub fn run_instrumented<T, F>(
        size: usize,
        plan: Option<Arc<FaultPlan>>,
        recorder: Option<Arc<Recorder>>,
        f: F,
    ) -> Vec<T>
    where
        F: Fn(Comm) -> T + Send + Sync,
        T: Send,
    {
        Self::run_inner(size, plan, recorder, f)
    }

    fn run_inner<T, F>(
        size: usize,
        plan: Option<Arc<FaultPlan>>,
        recorder: Option<Arc<Recorder>>,
        f: F,
    ) -> Vec<T>
    where
        F: Fn(Comm) -> T + Send + Sync,
        T: Send,
    {
        assert!(size >= 1, "world needs at least one rank");
        let group = ChannelGroup::new(size);
        let results: Vec<Mutex<Option<T>>> = (0..size).map(|_| Mutex::new(None)).collect();
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        thread::scope(|scope| {
            for rank in 0..size {
                let endpoint: Arc<dyn Transport> = Arc::new(group.endpoint(rank));
                let comm = Comm::new(endpoint, plan.clone(), recorder.clone());
                let f = &f;
                let results = &results;
                let group = &group;
                let panic_slot = &panic_slot;
                scope.spawn(move || {
                    match catch_unwind(AssertUnwindSafe(|| f(comm))) {
                        Ok(v) => {
                            *results[rank].lock().unwrap() = Some(v);
                        }
                        Err(p) => {
                            // Wake everyone blocked on a recv/probe, then
                            // record the panic for the caller.
                            group.poison();
                            let mut slot = panic_slot.lock().unwrap();
                            if slot.is_none() {
                                *slot = Some(p);
                            }
                        }
                    }
                });
            }
        });

        if let Some(p) = panic_slot.into_inner().unwrap() {
            resume_unwind(p);
        }
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("rank produced no result"))
            .collect()
    }
}

/// A dynamically spawned set of child ranks merged with the caller —
/// the result of the paper's `NEWORLD = NSP_spawn(n)` (Fig. 1):
/// `MPI_Comm_spawn` of `n` child interpreters followed by
/// `MPI_Intercomm_merge`, with the parent at rank 0 of the merged
/// communicator and children at ranks 1..=n.
pub struct SpawnedWorld {
    group: Arc<ChannelGroup>,
    comm: Comm,
    handles: Vec<thread::JoinHandle<()>>,
}

impl SpawnedWorld {
    /// Spawn `n_children` ranks executing `child` and merge them with the
    /// caller. The caller keeps working with [`SpawnedWorld::comm`]
    /// (rank 0); children get ranks `1..=n_children`.
    pub fn spawn<F>(n_children: usize, child: F) -> SpawnedWorld
    where
        F: Fn(Comm) + Send + Sync + Clone + 'static,
    {
        assert!(n_children >= 1, "spawn needs at least one child");
        let group = ChannelGroup::new(n_children + 1);
        let mut handles = Vec::with_capacity(n_children);
        for rank in 1..=n_children {
            let endpoint: Arc<dyn Transport> = Arc::new(group.endpoint(rank));
            let comm = Comm::new(endpoint, None, None);
            let child = child.clone();
            handles.push(thread::spawn(move || child(comm)));
        }
        let endpoint: Arc<dyn Transport> = Arc::new(group.endpoint(0));
        SpawnedWorld {
            comm: Comm::new(endpoint, None, None),
            group,
            handles,
        }
    }

    /// The parent's endpoint in the merged communicator (rank 0).
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Wait for all children to terminate. Call after telling them to stop
    /// (e.g. the empty-name message of Fig. 4): the wake the parent's
    /// last send left owed is issued first, so a child parked on that
    /// message finds it.
    pub fn join(mut self) {
        self.comm.settle();
        for h in self.handles.drain(..) {
            if let Err(p) = h.join() {
                resume_unwind(p);
            }
        }
    }
}

impl Drop for SpawnedWorld {
    fn drop(&mut self) {
        // Poison first so children blocked in recv wake up rather than
        // leaking; then reap them.
        if !self.handles.is_empty() {
            self.group.poison();
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ANY_SOURCE;
    use nspval::Value;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = World::run(5, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |c| {
            assert_eq!(c.size(), 1);
            "done"
        });
        assert_eq!(out, vec!["done"]);
    }

    #[test]
    fn panic_in_one_rank_propagates_without_deadlock() {
        let r = std::panic::catch_unwind(|| {
            World::run(2, |c| {
                if c.rank() == 1 {
                    panic!("rank 1 died");
                }
                // Rank 0 blocks forever unless poisoning wakes it.
                let _ = c.recv(ANY_SOURCE, crate::ANY_TAG);
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn run_joins_every_rank_even_when_one_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Every surviving rank must run to completion (threads joined, not
        // detached) before `run` rethrows the panic.
        let finished = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            World::run(4, |c| {
                if c.rank() == 3 {
                    panic!("rank 3 died");
                }
                // Survivors do real work, then block on a recv that only
                // the poison pulse can release.
                let _ = c.recv(ANY_SOURCE, crate::ANY_TAG);
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(r.is_err());
        // thread::scope guarantees joins: all 3 survivors finished.
        assert_eq!(finished.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_with_faults_joins_killed_ranks() {
        use crate::{FaultPlan, MpiError};
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new(17).kill_rank_at_op(0, 0));
        let out = World::run_instrumented(2, Some(plan), None, |c| {
            if c.rank() == 0 {
                matches!(c.recv(1, 0), Err(MpiError::Poisoned(0)))
            } else {
                // Peer finds out via the fast-fail send and still returns.
                loop {
                    match c.send([1], 0, 0) {
                        Err(MpiError::Poisoned(0)) => return true,
                        Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                }
            }
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn run_instrumented_records_comm_events() {
        use obs::{EventKind, Recorder};
        let rec = Arc::new(Recorder::new(2));
        World::run_instrumented(2, None, Some(rec.clone()), |c| {
            if c.rank() == 0 {
                c.set_job(Some(7));
                c.send_obj(&Value::scalar(1.0), 1, 3).unwrap();
            } else {
                let st = c.probe(0, 3).unwrap();
                let (_, _) = c.recv(0, st.tag).unwrap();
            }
        });
        let events = rec.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Serialize));
        assert!(kinds.contains(&EventKind::Send));
        assert!(kinds.contains(&EventKind::Probe));
        assert!(kinds.contains(&EventKind::Recv));
        // Job attribution flows from set_job on the sending rank.
        let send = events
            .iter()
            .find(|e| e.kind == EventKind::Send)
            .expect("send event");
        assert_eq!(send.job, 7);
        assert_eq!(send.rank, 0);
        assert!(send.bytes > 0);
    }

    #[test]
    fn spawned_world_like_fig1() {
        // NEWORLD = NSP_spawn(3); children echo their rank to the master.
        let spawned = SpawnedWorld::spawn(3, |c: crate::Comm| {
            // Child: wait for a ping, reply with rank.
            let (_, st) = c.recv(0, 1).unwrap();
            c.send_obj(&Value::scalar(c.rank() as f64), st.src as i32, 2)
                .unwrap();
        });
        let master = spawned.comm();
        assert_eq!(master.rank(), 0);
        assert_eq!(master.size(), 4);
        for child in 1..=3 {
            master.send([], child, 1).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..3 {
            let (v, _) = master.recv_obj(ANY_SOURCE, 2).unwrap();
            got.push(v.as_scalar().unwrap() as usize);
        }
        got.sort();
        assert_eq!(got, vec![1, 2, 3]);
        spawned.join();
    }

    #[test]
    fn spawned_world_join_right_after_the_stops_wakes_every_child() {
        // Each child parks on its stop; the parent's last send leaves a
        // wake owed, and `join` must issue it before it blocks.
        let (tx, rx) = transport::queue::channel();
        let parent = std::thread::spawn(move || {
            let spawned = SpawnedWorld::spawn(3, |c: crate::Comm| {
                let _ = c.recv(0, 1).unwrap();
            });
            for child in 1..=3 {
                while !spawned.group.parked(child) {
                    std::thread::yield_now();
                }
            }
            for child in 1..=3 {
                spawned.comm().send([], child, 1).unwrap();
            }
            spawned.join();
            let _ = tx.send(());
        });
        let joined = rx.recv_timeout(std::time::Duration::from_secs(20));
        assert_eq!(
            joined.ok(),
            Some(Some(())),
            "join hung on a child never woken"
        );
        parent.join().expect("the parent returned");
    }

    #[test]
    fn spawned_world_drop_does_not_hang() {
        // Children blocked in recv; dropping the SpawnedWorld must poison
        // and reap them without deadlock.
        let spawned = SpawnedWorld::spawn(2, |c: crate::Comm| {
            let _ = c.recv(0, 1); // will fail with Disconnected on drop
        });
        drop(spawned);
    }
}
