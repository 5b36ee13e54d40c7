//! The sharded tentpole proofs, per shard and per backend:
//!
//! * **decision-trace parity** — with whole-shard leases (`lease == 0`,
//!   nothing to steal) every peer master drives exactly one
//!   [`sched::Scheduler`] round over its contiguous partition. With two
//!   slaves per shard the operating system picks which answers first,
//!   so the claim there is *live ≡ the state machine*: the events the
//!   shard recorded, replayed into a fresh `Scheduler`, reproduce its
//!   trace byte for byte. With one slave per shard the order is forced
//!   and the trace must be **byte-identical** to
//!   `clustersim::simulate` run on that partition. Both on
//!   the in-process channel backend *and* on the multi-process socket
//!   backend;
//! * **price bit-identity across shard counts and backends** — the same
//!   portfolio priced by 1, 2 or 4 shards of threads and by 2 shards of
//!   spawned child processes (work-stealing enabled) must agree with the
//!   serial reference bit for bit.
//!
//! The two-slave workload borrows `tests/sched_parity.rs`'s grain
//! ladder: per-job costs are integer grains of a runtime-calibrated
//! Monte-Carlo unit, so both slaves of a shard stay busy and the trace
//! interleaves their answers.

use riskbench::clustersim::{simulate, SimCaches, SimConfig, SimJob, SimSpec, Topology};
use riskbench::farm::shard::{
    run_sharded, shard_slave_entry, ShardConfig, TransportKind, SHARD_SLAVE_ENTRY,
};
use riskbench::minimpi::ProcessWorld;
use riskbench::prelude::*;
use riskbench::pricing::models::BlackScholes;
use riskbench::sched::{SchedConfig, Scheduler, Trace};
use std::path::PathBuf;
use std::time::Instant;

/// Per-job costs in grains, one ladder per shard. With 2 slaves the
/// completion thresholds are 1, 2, 4, 6, 9, 12, 16, 20 — no two closer
/// than one grain.
const COSTS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const SHARDS: usize = 2;
const SLAVES_PER_SHARD: usize = 2;

/// Target wall-clock per grain of Monte-Carlo compute.
const GRAIN_S: f64 = 0.025;

/// The process-backend children re-execute this test binary pointed at
/// this `#[test]` (libtest offers no other hook into `main`); in a
/// normal test run the spawn environment is absent and this is a no-op.
#[test]
fn process_child_bootstrap() {
    let _ = ProcessWorld::child_entry(&[(SHARD_SLAVE_ENTRY, shard_slave_entry)]);
}

fn mc_problem(paths: usize, seed: u64) -> PremiaProblem {
    PremiaProblem::new(
        ModelSpec::BlackScholes(BlackScholes::new(100.0, 0.2, 0.05, 0.0)),
        OptionSpec::Call {
            strike: 95.0,
            maturity: 1.0,
        },
        MethodSpec::MonteCarlo {
            paths,
            time_steps: 8,
            antithetic: false,
            seed,
        },
    )
}

fn paths_per_grain() -> usize {
    let probe = mc_problem(50_000, 7);
    probe.compute().unwrap(); // warm up (code paths, allocator)
    let t0 = Instant::now();
    probe.compute().unwrap();
    let t = t0.elapsed().as_secs_f64().max(1e-6);
    ((GRAIN_S / t * 50_000.0) as usize).clamp(2_000, 2_000_000)
}

/// `SHARDS` copies of the grain ladder on disk, plus the matched
/// simulator jobs for one shard's partition (both shards are
/// identically shaped, but each gets distinct MC seeds).
fn matched_workload(dir: &std::path::Path, unit: usize) -> (Vec<PathBuf>, Vec<SimJob>) {
    let jobs: Vec<PortfolioJob> = (0..SHARDS * COSTS.len())
        .map(|k| PortfolioJob {
            id: k,
            class: JobClass::LocalVolMc,
            problem: mc_problem(COSTS[k % COSTS.len()] * unit, 100 + k as u64),
        })
        .collect();
    let files = save_portfolio(&jobs, dir).unwrap();
    let sim_jobs: Vec<SimJob> = COSTS
        .iter()
        .enumerate()
        .map(|(k, &c)| SimJob {
            id: k,
            class: JobClass::LocalVolMc,
            bytes: riskbench::xdrser::serialize_to_bytes(&jobs[k].problem.to_value()).len(),
            compute: c as f64,
        })
        .collect();
    (files, sim_jobs)
}

/// One simulated one-slave scheduler round over a shard's partition,
/// under the config a shard's lease round drives live: plain, one job
/// per dispatch.
fn sim_shard_trace(jobs: &[SimJob]) -> Trace {
    let spec = SimSpec {
        jobs,
        strategy: Transmission::SerializedLoad,
        cfg: &SimConfig::default(),
        recorder: None,
        faults: &[],
        topology: Topology::Flat(SchedConfig::plain(jobs.len(), 1).record_trace()),
    };
    let out = simulate(&spec, &mut SimCaches::new()).unwrap();
    assert_eq!(out.per_slave.iter().sum::<usize>(), jobs.len());
    out.trace.expect("record_trace was set")
}

fn live_shard_traces(
    backend: TransportKind,
    files: &[PathBuf],
    slaves_per_shard: usize,
) -> Vec<Trace> {
    let mut cfg = ShardConfig::new(SHARDS, slaves_per_shard)
        .backend(backend)
        .record_trace(true);
    if backend == TransportKind::Process {
        cfg.process_bootstrap = Some("process_child_bootstrap".into());
    }
    let report = run_sharded(files, &cfg).unwrap();
    assert_eq!(report.completed(), files.len());
    assert!(report.steals.is_empty(), "lease 0 leaves nothing to steal");
    assert_eq!(report.traces.len(), SHARDS);
    report
        .traces
        .into_iter()
        .enumerate()
        .map(|(shard, mut traces)| {
            assert_eq!(traces.len(), 1, "shard {shard}: one round, one trace");
            traces.remove(0)
        })
        .collect()
}

fn trace_parity_on(backend: TransportKind, tag: &str) {
    let dir = std::env::temp_dir().join(format!("it_shard_parity_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);

    // Two slaves per shard: whichever order their answers arrived in,
    // the shard's decisions are the scheduler's on those events
    // (`now_ns = 0`: a plain round has no deadlines).
    let (files, _) = matched_workload(&dir, paths_per_grain());
    for (shard, trace) in live_shard_traces(backend, &files, SLAVES_PER_SHARD)
        .iter()
        .enumerate()
    {
        let cfg = SchedConfig::plain(COSTS.len(), SLAVES_PER_SHARD).record_trace();
        let mut sched = Scheduler::new(cfg).unwrap();
        for entry in &trace.entries {
            sched.on(entry.event, 0);
        }
        assert!(
            sched.finished(),
            "{tag} shard {shard}: replay did not finish"
        );
        if let Some(diff) = trace.diff(&sched.take_trace().unwrap()) {
            panic!("{tag} shard {shard} decisions are not the scheduler's: {diff}");
        }
        let live = trace.render();
        assert!(
            live.starts_with("ready(1) -> dispatch(0->1)\nready(2) -> dispatch(1->2)\n"),
            "{tag} shard {shard}: unexpected priming: {live}"
        );
    }

    // One slave per shard forces the answer order (job cost is
    // irrelevant, so the jobs are tiny): the tentpole claim, literally —
    // byte identity with the simulator, per shard.
    let (files, sim_jobs) = matched_workload(&dir, 200);
    let sim = sim_shard_trace(&sim_jobs);
    for (shard, trace) in live_shard_traces(backend, &files, 1).iter().enumerate() {
        if let Some(diff) = trace.diff(&sim) {
            panic!("{tag} shard {shard} diverged from its simulated partition: {diff}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_shard_traces_match_the_simulator_on_the_channel_backend() {
    trace_parity_on(TransportKind::Channel, "channel");
}

#[test]
fn per_shard_traces_match_the_simulator_on_the_process_backend() {
    trace_parity_on(TransportKind::Process, "process");
}

#[test]
fn process_prices_are_bit_identical_to_channel_and_serial() {
    let dir = std::env::temp_dir().join("it_shard_parity_bits");
    let _ = std::fs::remove_dir_all(&dir);
    // Fixed path counts — bit-identity needs determinism, not matched
    // timing. Stealing stays on so non-contiguous rounds are covered.
    let jobs: Vec<PortfolioJob> = (0..12)
        .map(|k| PortfolioJob {
            id: k,
            class: JobClass::LocalVolMc,
            problem: mc_problem(20_000 + 1_000 * (k % 4), 500 + k as u64),
        })
        .collect();
    let files = save_portfolio(&jobs, &dir).unwrap();
    let serial: Vec<u64> = jobs
        .iter()
        .map(|j| j.problem.compute().unwrap().price.to_bits())
        .collect();

    // Four slaves split over 1, 2 or 4 shards on threads, and over 2
    // shards of child processes: every run must equal the serial bits.
    for (shards, backend) in [
        (1, TransportKind::Channel),
        (2, TransportKind::Channel),
        (4, TransportKind::Channel),
        (2, TransportKind::Process),
    ] {
        let mut cfg = ShardConfig::new(shards, 4 / shards)
            .stealing(2)
            .backend(backend);
        if backend == TransportKind::Process {
            cfg.process_bootstrap = Some("process_child_bootstrap".into());
        }
        let report = run_sharded(&files, &cfg).unwrap();
        assert_eq!(report.completed(), files.len());
        let prices: Vec<u64> = report
            .by_job()
            .iter()
            .map(|&(_, p, _)| p.to_bits())
            .collect();
        assert_eq!(
            prices, serial,
            "{shards} shard(s) on {backend:?} diverged from serial"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
