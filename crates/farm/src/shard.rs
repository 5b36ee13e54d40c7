//! Sharded peer masters with inter-shard work-stealing.
//!
//! The §5 hierarchy (`crate::hierarchy`) fixes the single master's
//! monitoring bottleneck but keeps one *global* master above the
//! sub-masters, and a sub-master whose chunk drains early goes idle.
//! This module removes both limits: N **peer** masters each own a
//! contiguous portfolio shard (seeded exactly like the hierarchy's
//! chunking) and drive their private slave farms concurrently; when a
//! shard's pool drains, its master **steals** a block of jobs from the
//! back of the richest peer's pool and keeps farming. There is no
//! global master — the shards' reports are concatenated by the caller
//! thread after every master joins.
//!
//! Each master leases jobs from its pool in rounds and drives every
//! round through the same pure [`sched::Scheduler`] the flat farm and
//! the simulator use, so decision-trace parity holds *per shard*: with
//! stealing disabled and one round per shard (`lease == 0`), a shard's
//! trace is byte-identical to `clustersim::simulate_farm_config` on its
//! partition — locked down by `tests/shard_parity.rs`.
//!
//! The slave farms run on either `transport::Transport`
//! backend: in-process channel worlds ([`minimpi::SpawnedWorld`]) or
//! real child processes over Unix-domain sockets
//! ([`minimpi::ProcessWorld`]). The wire — job frames of one keyed by
//! round-local ids, columnar replies, then the empty stop message — is
//! byte-identical on both, and prices are bit-identical at fixed
//! chunk/lanes.

use crate::config::RunCtx;
use crate::driver::{self, Farm};
use crate::robin_hood::{sorted_by_job, FarmError, FarmReport, JobOutcome};
use crate::slave::{self, Link};
use crate::strategy::Transmission;
use minimpi::{Comm, ProcessWorld, SpawnedWorld};
use sched::{SchedConfig, Trace};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every shard world has the same shape: the master is rank 0.
const LINK: Link = Link { master: 0, tag: 11 };

/// Which transport the shard farms run their slaves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channel worlds: slaves are threads
    /// ([`minimpi::SpawnedWorld`]).
    Channel,
    /// Multi-process worlds: slaves are child processes over Unix-domain
    /// sockets ([`minimpi::ProcessWorld`]).
    Process,
}

/// One observed steal: `thief` took `jobs` jobs from `victim`'s pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealEvent {
    /// The shard whose pool drained.
    thief: usize,
    /// The shard that lost jobs.
    victim: usize,
    /// How many jobs moved.
    jobs: usize,
}

/// Configuration of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of peer masters (each with its own slave farm).
    pub shards: usize,
    /// Compute slaves per shard.
    pub slaves_per_shard: usize,
    /// Jobs a master leases from its pool per scheduling round; `0`
    /// leases the whole shard in one round (which also disables
    /// stealing — nothing is ever left to steal).
    pub lease: usize,
    /// Steal from the richest peer when the own pool drains.
    pub steal: bool,
    /// Payload transmission strategy (as in the flat farm).
    pub strategy: Transmission,
    /// Slave transport backend.
    pub backend: TransportKind,
    /// Record per-round decision traces into [`ShardReport::traces`].
    pub record_trace: bool,
    /// [`TransportKind::Process`] from inside a libtest binary: the name
    /// of the `#[test]` bootstrap that calls
    /// [`minimpi::ProcessWorld::child_entry`] with
    /// [`SHARD_SLAVE_ENTRY`] registered. `None` means the binary's
    /// `main` performs the bootstrap.
    pub process_bootstrap: Option<String>,
}

impl ShardConfig {
    /// `shards` masters with `slaves_per_shard` slaves each, on the
    /// channel backend, whole-shard leases, no stealing.
    pub fn new(shards: usize, slaves_per_shard: usize) -> Self {
        ShardConfig {
            shards,
            slaves_per_shard,
            lease: 0,
            steal: false,
            strategy: Transmission::SerializedLoad,
            backend: TransportKind::Channel,
            record_trace: false,
            process_bootstrap: None,
        }
    }

    /// Lease `lease` jobs per round and steal when the pool drains.
    pub fn stealing(mut self, lease: usize) -> Self {
        self.lease = lease;
        self.steal = true;
        self
    }

    /// Select the slave transport backend.
    pub fn backend(mut self, kind: TransportKind) -> Self {
        self.backend = kind;
        self
    }

    /// Record per-round decision traces.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }
}

/// What a sharded run produced.
#[derive(Debug)]
pub struct ShardReport {
    /// Priced jobs (global portfolio indices), concatenated shard by
    /// shard in completion order.
    outcomes: Vec<JobOutcome>,
    /// Jobs computed under each shard's master (including stolen ones).
    per_shard: Vec<usize>,
    /// Every steal, in occurrence order.
    pub steals: Vec<StealEvent>,
    /// Wall-clock of the whole run (all shards).
    elapsed: Duration,
    /// Decision traces per shard, one per scheduling round (empty unless
    /// [`ShardConfig::record_trace`]).
    pub traces: Vec<Vec<Trace>>,
}

impl ShardReport {
    /// Completed job count.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Outcomes sorted by global job index.
    pub fn by_job(&self) -> Vec<(usize, f64, Option<f64>)> {
        sorted_by_job(&self.outcomes)
    }

    /// Fold into the flat farm's report shape (shard structure erased;
    /// `per_slave` is indexed by shard instead of rank).
    pub fn into_farm_report(self) -> FarmReport {
        FarmReport {
            outcomes: self.outcomes,
            elapsed: self.elapsed,
            per_slave: self.per_shard,
            failed_jobs: Vec::new(),
            failed_members: Vec::new(),
            retries: 0,
            dead_slaves: Vec::new(),
            trace: None,
        }
    }
}

/// The entry-point name a process-backed shard slave is registered
/// under — pass `(SHARD_SLAVE_ENTRY, shard_slave_entry)` to
/// [`minimpi::ProcessWorld::child_entry`].
pub const SHARD_SLAVE_ENTRY: &str = "farm_shard_slave";

/// Process-world entry point for a shard compute slave; see
/// [`SHARD_SLAVE_ENTRY`]. Both backends run it verbatim: serve job
/// frames until the stop sentinel. The compute context is the default
/// one — bit-identity across backends needs both sides on the same
/// (single-threaded) compute path.
pub fn shard_slave_entry(comm: Comm) {
    slave::serve_jobs(&comm, &RunCtx::new(None), LINK, None);
}

/// Contiguous shard pools, remainder spread over the first shards —
/// the same chunking the hierarchy's global master uses.
fn seed_pools(jobs: usize, shards: usize) -> Vec<Mutex<VecDeque<usize>>> {
    let base = jobs / shards;
    let rem = jobs % shards;
    let mut begin = 0;
    (0..shards)
        .map(|s| {
            let len = base + usize::from(s < rem);
            let pool: VecDeque<usize> = (begin..begin + len).collect();
            begin += len;
            Mutex::new(pool)
        })
        .collect()
}

/// Lease up to `want` jobs from the *front* of the own pool; on a dry
/// pool (stealing enabled) take them from the *back* of the richest
/// peer's pool instead, so the victim's own front-leases are disturbed
/// as late as possible.
fn lease_round(
    pools: &[Mutex<VecDeque<usize>>],
    shard: usize,
    want: usize,
    steal: bool,
    steals: &Mutex<Vec<StealEvent>>,
) -> Vec<usize> {
    {
        let mut own = pools[shard].lock().expect("pool lock");
        if !own.is_empty() {
            let n = want.min(own.len());
            return own.drain(..n).collect();
        }
    }
    if !steal {
        return Vec::new();
    }
    // Pick the richest victim at this instant; locks are taken one at a
    // time, so a concurrent lease can race us to it — the retry loop in
    // the caller handles a now-empty victim by picking again.
    let victim = (0..pools.len())
        .filter(|&p| p != shard)
        .max_by_key(|&p| pools[p].lock().expect("pool lock").len());
    let Some(victim) = victim else {
        return Vec::new();
    };
    let mut v = pools[victim].lock().expect("pool lock");
    if v.is_empty() {
        return Vec::new();
    }
    let n = want.min(v.len());
    let at = v.len() - n;
    let got: Vec<usize> = v.drain(at..).collect();
    drop(v);
    steals.lock().expect("steal log").push(StealEvent {
        thief: shard,
        victim,
        jobs: got.len(),
    });
    got
}

/// `true` while any pool still holds jobs.
fn any_jobs_left(pools: &[Mutex<VecDeque<usize>>]) -> bool {
    pools
        .iter()
        .any(|p| !p.lock().expect("pool lock").is_empty())
}

/// Run the sharded farm over `files`. See the module docs for the
/// topology; the outcomes carry global portfolio indices.
pub fn run_sharded(files: &[PathBuf], cfg: &ShardConfig) -> Result<ShardReport, FarmError> {
    if cfg.shards == 0 || cfg.slaves_per_shard == 0 {
        return Err(FarmError::NoSlaves);
    }
    if files.is_empty() {
        return Ok(ShardReport {
            outcomes: Vec::new(),
            per_shard: vec![0; cfg.shards],
            steals: Vec::new(),
            elapsed: Duration::ZERO,
            traces: vec![Vec::new(); cfg.shards],
        });
    }
    let start = Instant::now();
    let pools = seed_pools(files.len(), cfg.shards);
    let steals: Mutex<Vec<StealEvent>> = Mutex::new(Vec::new());

    struct ShardOut {
        outcomes: Vec<JobOutcome>,
        traces: Vec<Trace>,
    }

    let results: Vec<Result<ShardOut, FarmError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.shards)
            .map(|shard| {
                let pools = &pools;
                let steals = &steals;
                scope.spawn(move || {
                    let (outcomes, traces) = shard_master(shard, files, cfg, pools, steals)?;
                    Ok(ShardOut { outcomes, traces })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard master panicked"))
            .collect()
    });

    let mut outcomes = Vec::with_capacity(files.len());
    let mut per_shard = Vec::with_capacity(cfg.shards);
    let mut traces = Vec::with_capacity(cfg.shards);
    for r in results {
        let out = r?;
        per_shard.push(out.outcomes.len());
        outcomes.extend(out.outcomes);
        traces.push(out.traces);
    }
    Ok(ShardReport {
        outcomes,
        per_shard,
        steals: steals.into_inner().expect("steal log"),
        elapsed: start.elapsed(),
        traces,
    })
}

/// One peer master: stand up the shard's slave world on the configured
/// backend, farm lease rounds until every pool is dry, stop the slaves.
fn shard_master(
    shard: usize,
    files: &[PathBuf],
    cfg: &ShardConfig,
    pools: &[Mutex<VecDeque<usize>>],
    steals: &Mutex<Vec<StealEvent>>,
) -> Result<(Vec<JobOutcome>, Vec<Trace>), FarmError> {
    match cfg.backend {
        TransportKind::Channel => {
            let spawned = SpawnedWorld::spawn(cfg.slaves_per_shard, shard_slave_entry);
            let out = master_loop(spawned.comm(), shard, files, cfg, pools, steals);
            // A failed job ends its round with every slave sent the stop
            // sentinel (`drive` owns shutdown): they finish what they
            // hold and leave, so the world joins as after a good run.
            // Any other error is a broken world, left to `Drop` to
            // poison and reap.
            if matches!(out, Ok(_) | Err(FarmError::JobFailed { .. })) {
                spawned.join();
            }
            out
        }
        TransportKind::Process => {
            let parent = ProcessWorld::spawn_full(
                cfg.slaves_per_shard,
                SHARD_SLAVE_ENTRY,
                None,
                None,
                cfg.process_bootstrap.as_deref(),
            )?;
            let out = master_loop(parent.comm(), shard, files, cfg, pools, steals)?;
            parent.join()?;
            Ok(out)
        }
    }
}

/// The backend-independent master loop: lease rounds through
/// [`driver::drive`], then stop sentinels.
fn master_loop(
    comm: &Comm,
    shard: usize,
    files: &[PathBuf],
    cfg: &ShardConfig,
    pools: &[Mutex<VecDeque<usize>>],
    steals: &Mutex<Vec<StealEvent>>,
) -> Result<(Vec<JobOutcome>, Vec<Trace>), FarmError> {
    let slaves = cfg.slaves_per_shard;
    let ctx = RunCtx::new(None);
    // Rounds share the slave world: each round's scheduler finishes
    // without stopping it, the sentinels go out after the last one (or
    // from `drive`, the moment a round fails).
    let farm = Farm {
        comm,
        link: LINK,
        base: 0,
        frames: None,
        supervisor: None,
        resident: true,
        ctx: &ctx,
        strategy: cfg.strategy,
    };
    let want = if cfg.lease == 0 {
        files.len().max(1)
    } else {
        cfg.lease
    };

    let mut scratch = Vec::new();
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    loop {
        let round = lease_round(pools, shard, want, cfg.steal, steals);
        if round.is_empty() {
            // A racing steal can empty the victim between our probe and
            // our lock; only a globally dry pool set ends the shard.
            if cfg.steal && any_jobs_left(pools) {
                continue;
            }
            break;
        }
        let sc = SchedConfig {
            record_trace: cfg.record_trace,
            ..SchedConfig::plain(round.len(), slaves)
        };
        // Wire ids are round-local so the scheduler's dense id space
        // covers stolen (non-contiguous) rounds too; outcomes — and a
        // failed job's index — are mapped back to portfolio ids below.
        let run = driver::drive(&farm, sc, |local, rank, batch, _outcomes| {
            let members = (local..local + batch).map(|j| (j, files[round[j]].as_path()));
            farm.send_frame(rank, members, &mut scratch)
        })
        .map_err(|e| match e {
            FarmError::JobFailed { job, why } => FarmError::job_failed(round[job], why),
            e => e,
        })?;
        outcomes.extend(run.outcomes.into_iter().map(|o| JobOutcome {
            job: round[o.job],
            ..o
        }));
        traces.extend(run.trace);
    }

    for rank in 1..=slaves {
        LINK.stop(comm, rank)?;
    }
    Ok((outcomes, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{save_portfolio, toy_portfolio};

    fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, Vec<f64>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("farm_shard_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = toy_portfolio(count);
        let paths = save_portfolio(&jobs, &dir).unwrap();
        let expected: Vec<f64> = jobs
            .iter()
            .map(|j| j.problem.compute().unwrap().price)
            .collect();
        (paths, expected, dir)
    }

    #[test]
    fn pools_seed_contiguously_with_remainder_up_front() {
        let pools = seed_pools(10, 3);
        let as_vecs: Vec<Vec<usize>> = pools
            .iter()
            .map(|p| p.lock().unwrap().iter().copied().collect())
            .collect();
        assert_eq!(as_vecs[0], vec![0, 1, 2, 3]);
        assert_eq!(as_vecs[1], vec![4, 5, 6]);
        assert_eq!(as_vecs[2], vec![7, 8, 9]);
    }

    #[test]
    fn steal_takes_from_the_back_of_the_richest_pool() {
        let pools = seed_pools(9, 3); // 3 each
        pools[0].lock().unwrap().clear();
        pools[2].lock().unwrap().pop_back(); // shard 1 is now richest
        let steals = Mutex::new(Vec::new());
        let got = lease_round(&pools, 0, 2, true, &steals);
        assert_eq!(got, vec![4, 5]); // back of shard 1's [3, 4, 5]
        assert_eq!(
            steals.into_inner().unwrap(),
            vec![StealEvent {
                thief: 0,
                victim: 1,
                jobs: 2
            }]
        );
        assert_eq!(
            pools[1].lock().unwrap().iter().copied().collect::<Vec<_>>(),
            vec![3]
        );
    }

    #[test]
    fn sharded_run_completes_portfolio() {
        let (paths, expected, dir) = setup(18, "complete");
        let report = run_sharded(&paths, &ShardConfig::new(2, 2)).unwrap();
        assert_eq!(report.completed(), 18);
        let mut seen = [false; 18];
        for o in &report.outcomes {
            assert!(!seen[o.job], "job {} priced twice", o.job);
            seen[o.job] = true;
            assert!((o.price - expected[o.job]).abs() < 1e-12);
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(report.per_shard.iter().sum::<usize>(), 18);
        assert!(report.steals.is_empty(), "no stealing requested");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stealing_run_stays_complete_and_exact() {
        let (paths, expected, dir) = setup(24, "steal");
        let cfg = ShardConfig::new(3, 2).stealing(2);
        let report = run_sharded(&paths, &cfg).unwrap();
        assert_eq!(report.completed(), 24);
        for o in &report.outcomes {
            assert!((o.price - expected[o.job]).abs() < 1e-12);
        }
        // Every steal recorded must be internally consistent.
        for s in &report.steals {
            assert_ne!(s.thief, s.victim);
            assert!(s.jobs >= 1 && s.jobs <= 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn whole_shard_lease_gives_one_trace_per_shard() {
        let (paths, _, dir) = setup(8, "trace");
        let cfg = ShardConfig::new(2, 2).record_trace(true);
        let report = run_sharded(&paths, &cfg).unwrap();
        assert_eq!(report.traces.len(), 2);
        assert_eq!(report.traces[0].len(), 1, "one round per shard");
        assert_eq!(report.traces[1].len(), 1);
        assert!(!report.traces[0][0].render().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_degenerate_configs() {
        let empty = run_sharded(&[], &ShardConfig::new(2, 2)).unwrap();
        assert_eq!(empty.completed(), 0);
        assert_eq!(empty.per_shard, vec![0, 0]);
        let (paths, _, dir) = setup(2, "degenerate");
        assert!(run_sharded(&paths, &ShardConfig::new(0, 2)).is_err());
        assert!(run_sharded(&paths, &ShardConfig::new(2, 0)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
