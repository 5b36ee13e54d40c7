//! The PR-5 tentpole proof: the live threaded farm and the discrete-event
//! cluster simulator drive the *same* [`sched::Scheduler`] state machine,
//! so whenever they observe the same event sequence they render
//! **byte-identical** decision traces — fault-free and under a seeded
//! fault plan alike.
//!
//! The trace is timestamp-free (events and actions only), and which of
//! several slaves answers first is the operating system's choice, not
//! ours. So the claim is stated in two halves that are each
//! deterministic:
//!
//! * **live ≡ the state machine**: the events a live multi-slave run
//!   recorded, replayed into a fresh `Scheduler` with the matching
//!   [`SchedConfig`], reproduce the live trace byte for byte ([`replay`])
//!   — the live master took no decision of its own, whatever order the
//!   answers came in;
//! * **live ≡ simulator** where the order is forced: one slave (answers
//!   can only come back in dispatch order) and the staged BSDE chain
//!   (one job per round).
//!
//! The remaining asserts name decisions that hold for every answer order
//! the workload allows (priming prefix, the round barrier, the burial
//! and its single retry), and the workload keeps them far from any race:
//!
//! * per-job compute costs are integer multiples (`COSTS`, in "grains")
//!   of a runtime-calibrated Monte-Carlo unit, and each round's
//!   straggler (job 3: 20 grains against 1–3) is many grains behind the
//!   answers it must come after;
//! * the seeded fault kills slave 4 at its first result send, after it
//!   has computed the 20-grain job — the burial and the requeue of job 3
//!   do not depend on when the master notices. Both worlds take the one
//!   plan: the live farm's `FarmConfig::fault_plan` and the simulator's
//!   `SimSpec::plan` hold the same `Arc`.

use riskbench::clustersim::{simulate, SimCaches, SimConfig, SimJob, SimSpec};
use riskbench::prelude::*;
use riskbench::pricing::models::BlackScholes;
use riskbench::sched::{Action, DispatchPolicy, SchedConfig, Scheduler, Supervision, Trace};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-job compute costs in grains. Slave 4 is primed with the 20-grain
/// straggler (job 3); everyone else climbs a ladder with >= 1-grain gaps
/// between any two competing completion thresholds.
const COSTS: [usize; 16] = [1, 2, 3, 20, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
const SLAVES: usize = 4;

/// Target wall-clock per grain of Monte-Carlo compute.
const GRAIN_S: f64 = 0.025;

/// One grain of Monte-Carlo work, calibrated at runtime: time a probe,
/// then scale the path count so one grain costs ~[`GRAIN_S`] of CPU.
fn paths_per_grain() -> usize {
    let probe = mc_problem(50_000, 7);
    probe.compute().unwrap(); // warm up (code paths, allocator)
    let t0 = Instant::now();
    probe.compute().unwrap();
    let t = t0.elapsed().as_secs_f64().max(1e-6);
    ((GRAIN_S / t * 50_000.0) as usize).clamp(2_000, 2_000_000)
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

/// Matched workload: live problem files whose compute costs are
/// `COSTS[k] * unit` Monte-Carlo paths, and sim jobs whose compute is
/// `COSTS[k]` simulated seconds — same ratios, same decision sequence.
fn matched_workload(dir: &std::path::Path, unit: usize) -> (Vec<PathBuf>, Vec<SimJob>) {
    let jobs: Vec<PortfolioJob> = COSTS
        .iter()
        .enumerate()
        .map(|(k, &c)| PortfolioJob {
            id: k,
            class: JobClass::LocalVolMc,
            problem: mc_problem(c * unit, 100 + k as u64),
        })
        .collect();
    let files = save_portfolio(&jobs, dir).unwrap();
    let sim_jobs: Vec<SimJob> = jobs
        .iter()
        .enumerate()
        .map(|(k, j)| SimJob {
            id: k,
            class: j.class,
            bytes: riskbench::xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: COSTS[k] as f64,
        })
        .collect();
    (files, sim_jobs)
}

/// Fail with where `left` and `right` part ways, not with two
/// multi-kilobyte strings.
fn assert_same(what: &str, left: &Trace, right: &Trace) {
    if let Some(diff) = left.diff(right) {
        panic!("{what}: {diff}");
    }
}

fn sim_trace(jobs: &[SimJob], sched: SchedConfig, plan: Option<Arc<FaultPlan>>) -> Trace {
    let spec = SimSpec {
        jobs,
        strategy: Transmission::SerializedLoad,
        cfg: &SimConfig::default(),
        recorder: None,
        plan,
        sched,
    };
    let out = simulate(&spec, &mut SimCaches::new()).unwrap();
    assert_eq!(out.per_slave.iter().sum::<usize>(), COSTS.len());
    out.trace.expect("record_trace was set")
}

/// The live run's recorded events fed, in order, to a fresh scheduler
/// built from `cfg`: the rendered decisions of the pure state machine on
/// what the live master saw. `now_ns = 0` throughout — these runs have
/// zero backoff and deadlines no answer comes near, so no decision
/// depends on the clock. Also checks every job was accepted exactly once.
fn replay(live: &Trace, cfg: SchedConfig) -> Trace {
    let jobs = cfg.jobs;
    let mut sched = Scheduler::new(cfg.record_trace()).unwrap();
    for entry in &live.entries {
        sched.on(entry.event, 0);
    }
    assert!(sched.finished(), "replayed run did not finish");
    let mut accepted = vec![0usize; jobs];
    // Job -> the first job of a dispatch that carried it.
    let mut head_of = vec![None; jobs];
    for action in live.entries.iter().flat_map(|e| &e.actions) {
        match *action {
            Action::Accept { job, .. } => accepted[job] += 1,
            Action::Dispatch { job, batch, .. } => head_of[job..job + batch].fill(Some(job)),
            _ => {}
        }
    }
    for (job, head) in head_of.iter().enumerate() {
        let head = head.unwrap_or_else(|| panic!("job {job} was never dispatched"));
        assert_eq!(
            accepted[head], 1,
            "job {job}: dispatch {head} accepted once"
        );
    }
    sched.take_trace().expect("record_trace was set")
}

/// Path count that makes the forced-order runs cheap: with one slave the
/// answer order does not depend on how long a job takes.
const TINY_UNIT: usize = 200;

#[test]
fn fault_free_live_and_sim_traces_are_byte_identical() {
    let dir = std::env::temp_dir().join("it_sched_parity_plain");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, _) = matched_workload(&dir, paths_per_grain());

    let live = run(
        &files,
        &FarmConfig::new(SLAVES, Transmission::SerializedLoad).record_trace(true),
    )
    .unwrap();
    assert_eq!(live.completed(), COSTS.len());
    let live = live.trace.expect("record_trace was set");
    let live_trace = live.render();

    // Live ≡ the state machine on the events the live master saw — the
    // framed machine: an unsupervised FIFO run dispatches job frames.
    let framed = |slaves| SchedConfig::farm(COSTS.len(), slaves, DispatchPolicy::Fifo, None, None);
    let replayed = replay(&live, framed(SLAVES));
    assert_same(
        "plain-farm decisions are not the scheduler's",
        &live,
        &replayed,
    );
    // Sanity: the trace starts with the priming round, a guided frame
    // each: ceil(16 / 8) jobs, then ceil(14 / 8).
    assert!(
        live_trace.starts_with("ready(1) -> dispatch(0..2->1)\nready(2) -> dispatch(2..4->2)\n"),
        "unexpected priming: {live_trace}"
    );

    // Live ≡ simulator, literally byte for byte, where the answer order
    // is forced: one slave.
    let (files, sim_jobs) = matched_workload(&dir, TINY_UNIT);
    let live = run(
        &files,
        &FarmConfig::new(1, Transmission::SerializedLoad).record_trace(true),
    )
    .unwrap();
    let live = live.trace.expect("record_trace was set");
    let sim = sim_trace(
        &sim_jobs,
        SchedConfig::farm(sim_jobs.len(), 1, DispatchPolicy::Fifo, None, None).record_trace(),
        None,
    );
    assert_same("one-slave decision traces diverged", &live, &sim);
    // Frames of 8, 4, 2, 1, 1: what both sides agreed on.
    assert!(live.render().starts_with("ready(1) -> dispatch(0..8->1)\n"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn staged_rounds_live_and_sim_traces_are_byte_identical() {
    // The same matched 16-job ladder, now split into four declared
    // rounds of four. The round barrier parks finished slaves until the
    // straggler of each round answers, then refills them all — the live
    // farm's staged decisions must be the staged machine's, byte for
    // byte, and with one slave the staged simulation's too.
    let dir = std::env::temp_dir().join("it_sched_parity_staged");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, _) = matched_workload(&dir, paths_per_grain());
    let rounds: Vec<usize> = (0..COSTS.len()).map(|k| k / SLAVES).collect();

    let live = run(
        &files,
        &FarmConfig::new(SLAVES, Transmission::SerializedLoad)
            .rounds(rounds.clone())
            .record_trace(true),
    )
    .unwrap();
    assert_eq!(live.completed(), COSTS.len());
    let live = live.trace.expect("record_trace was set");
    let live_trace = live.render();

    let replayed = replay(
        &live,
        SchedConfig::plain(COSTS.len(), SLAVES).rounds(rounds.clone()),
    );
    assert_same("staged decisions are not the scheduler's", &live, &replayed);
    // The barrier is visible: job 4 (round 1) is dispatched by the
    // answer of job 3, the 20-grain straggler of round 0 — never by the
    // earlier answers of jobs 0..2.
    assert!(
        live_trace.contains("answer(3,4) -> accept(3,4) dispatch(4->"),
        "round barrier missing from trace: {live_trace}"
    );
    for early in ["accept(0,1) dispatch", "accept(1,2) dispatch"] {
        assert!(
            !live_trace.contains(early),
            "round-blocked job dispatched early: {live_trace}"
        );
    }

    // One slave forces the answer order: live ≡ staged simulator.
    let (files, sim_jobs) = matched_workload(&dir, TINY_UNIT);
    let live = run(
        &files,
        &FarmConfig::new(1, Transmission::SerializedLoad)
            .rounds(rounds.clone())
            .record_trace(true),
    )
    .unwrap();
    let live = live.trace.expect("record_trace was set");
    let sim = sim_trace(
        &sim_jobs,
        SchedConfig::farm(sim_jobs.len(), 1, DispatchPolicy::Fifo, None, Some(rounds))
            .record_trace(),
        None,
    );
    assert_same("one-slave staged traces diverged", &live, &sim);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn staged_bsde_picard_live_and_sim_traces_are_byte_identical() {
    // The dependency-aware workload itself: a 3-round Labart–Lelong
    // Picard iteration, one single-sweep job per round, each round's
    // dispatch patched with the previous round's price. The patching is
    // payload-only, so the live decision trace must still match the
    // staged simulation byte for byte.
    use riskbench::farm::workload::Workload;
    use riskbench::pricing::methods::bsde::{bsde_picard_iterates, BsdeConfig};
    use riskbench::pricing::options::Vanilla;

    let picard_rounds = 3;
    let problem = PremiaProblem::new(
        ModelSpec::BlackScholes(BlackScholes::new(100.0, 0.2, 0.05, 0.0)),
        OptionSpec::Call {
            strike: 100.0,
            maturity: 1.0,
        },
        MethodSpec::Bsde {
            paths: 4_000,
            time_steps: 12,
            rate_spread: 0.05,
            picard_rounds,
            y_prev: 0.0,
            seed: 99,
        },
    );
    let w = Workload::bsde_picard(problem).unwrap();
    assert_eq!(w.round_count(), picard_rounds, ">= 2 dependent rounds");

    let dir = std::env::temp_dir().join("it_sched_parity_bsde");
    let _ = std::fs::remove_dir_all(&dir);
    let live = riskbench::farm::run_workload(
        &w,
        &dir,
        &FarmConfig::new(SLAVES, Transmission::SerializedLoad).record_trace(true),
    )
    .unwrap();
    assert_eq!(live.completed(), picard_rounds);
    let live_trace = live.trace.as_ref().expect("record_trace was set");

    let sim_jobs: Vec<SimJob> = w
        .jobs()
        .iter()
        .map(|j| SimJob {
            id: j.id,
            class: j.class,
            bytes: riskbench::xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: 1.0,
        })
        .collect();
    let rounds = w.rounds().map(|r| r.to_vec());
    let spec = SimSpec {
        jobs: &sim_jobs,
        strategy: Transmission::SerializedLoad,
        cfg: &SimConfig::default(),
        recorder: None,
        plan: None,
        sched: SchedConfig::farm(sim_jobs.len(), SLAVES, DispatchPolicy::Fifo, None, rounds)
            .record_trace(),
    };
    let out = simulate(&spec, &mut SimCaches::new()).unwrap();
    assert_eq!(out.per_slave.iter().sum::<usize>(), picard_rounds);
    let sim = out.trace.expect("record_trace was set");
    assert_same("BSDE staged traces diverged", live_trace, &sim);

    // And the farm's staged answers are the in-process Picard iterates,
    // bit for bit — the data flow crossed the rounds correctly.
    let cfg = BsdeConfig {
        paths: 4_000,
        time_steps: 12,
        rate_spread: 0.05,
        picard_rounds,
        y_prev: 0.0,
        seed: 99,
    };
    let m = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
    let iterates = bsde_picard_iterates(&m, &Vanilla::european_call(100.0, 1.0), &cfg, None);
    let by_job = live.by_job();
    for (r, it) in iterates.iter().enumerate() {
        let (job, got, _) = by_job[r];
        assert_eq!(job, r);
        assert_eq!(got.to_bits(), it.price.to_bits(), "round {r} iterate");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_fault_live_and_sim_traces_are_byte_identical() {
    let dir = std::env::temp_dir().join("it_sched_parity_fault");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, sim_jobs) = matched_workload(&dir, paths_per_grain());

    // A slave's cycle is `recv` frame (op 2k), `send` reply (op 2k + 1),
    // live and simulated alike (docs/FAULTS.md). Slave rank 4 (primed
    // with the 20-grain job 3) dies at op 1 — its first reply, i.e.
    // *after* computing. Generous deadlines and timeouts keep the
    // deadline/idle machinery out of the trace; a zero backoff makes the
    // requeued job eligible at the next answer.
    let sup = SupervisorConfig {
        job_deadline: Duration::from_secs(60),
        max_attempts: 4,
        backoff_base: Duration::ZERO,
        poll: Duration::from_millis(5),
        slave_idle_timeout: Duration::from_secs(60),
    };
    // The scheduler-side twin of `sup`.
    let supervision = Supervision {
        deadline_ns: sup.job_deadline.as_nanos() as u64,
        max_attempts: 4,
        backoff_base_ns: 0,
    };
    let plan = Arc::new(FaultPlan::new(1).kill_rank_at_op(4, 1));
    let live = run(
        &files,
        &FarmConfig::new(SLAVES, Transmission::SerializedLoad)
            .supervisor(sup)
            .fault_plan(Arc::clone(&plan))
            .record_trace(true),
    )
    .unwrap();
    assert_eq!(live.completed(), COSTS.len(), "all jobs recovered");
    assert_eq!(live.dead_slaves, vec![4]);
    assert_eq!(live.retries, 1);
    assert!(live.failed_jobs.is_empty());
    let live = live.trace.expect("record_trace was set");
    let live_trace = live.render();

    // The same plan in virtual time: rank 4 dies at its op 1 there too,
    // and the master's liveness sweep finds it at its next poll.
    let sched = SchedConfig::farm(
        sim_jobs.len(),
        SLAVES,
        DispatchPolicy::Fifo,
        Some(supervision),
        None,
    );
    let sim = sim_trace(&sim_jobs, sched.record_trace(), Some(plan));

    // The burial must appear, verbatim, in both traces...
    for (world, trace) in [("live", &live_trace), ("sim", &sim.render())] {
        assert!(
            trace.contains("dead(4) -> bury(4) requeue(3)\n"),
            "{world} trace lacks the burial: {trace}"
        );
    }
    // ...and the live decisions — burial, requeue and retry included —
    // must be the supervised state machine's, byte for byte.
    let replayed = replay(
        &live,
        SchedConfig::plain(COSTS.len(), SLAVES).supervised(supervision),
    );
    assert_same(
        "supervised decisions are not the scheduler's",
        &live,
        &replayed,
    );
    std::fs::remove_dir_all(&dir).ok();
}
