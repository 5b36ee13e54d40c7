//! Deterministic chaos suite: the supervised Robin-Hood farm run under
//! `minimpi`'s seed-driven fault injection.
//!
//! Every scenario here is *reproducible*: a [`minimpi::FaultPlan`]
//! derives each drop/delay/truncate/kill decision purely from
//! `(seed, rank, operation index)`, so the injected schedule is a
//! function of the seed — not of thread interleaving — and a failing
//! seed replays exactly. The suite proves the tentpole claims:
//!
//! * a slave killed mid-portfolio loses nothing: its in-flight job is
//!   requeued and totals match the fault-free run;
//! * message loss is survived under all three transmission strategies
//!   via deadlines + bounded retries;
//! * total collapse (every slave dead) aborts cleanly with
//!   [`farm::FarmError::AllSlavesDead`] instead of hanging;
//! * arbitrary `(jobs, slaves, seed)` combinations account for every
//!   job exactly once across `outcomes ∪ failed_jobs`;
//! * at the paper's 512 cores, in the simulator's virtual time, one
//!   seeded plan of drops, delays, truncations and kills leaves every
//!   job accepted once or abandoned within its budget, and buries
//!   exactly the slaves it killed.
//!
//! Kill indices are derived, not guessed, and one rule holds on the live
//! channels and in `clustersim`'s world alike: a supervised slave's
//! cycle is `recv` its frame of one (op 2k) and `send` the reply (op
//! 2k + 1), and a truncated frame costs one more op, its `discard`. So
//! `kill_rank_at_op(r, 2k + 1)` has the slave compute its (k + 1)-th job
//! and die sending the answer, and op 2k kills it idle, after k answers,
//! as it waits for the next frame (`docs/FAULTS.md`).

use clustersim::{
    simulate, DispatchPolicy, SchedConfig, SimCaches, SimConfig, SimJob, SimSpec, Supervision,
};
use farm::portfolio::{save_portfolio, toy_portfolio};
use farm::supervisor::SupervisorConfig;
use farm::{run, FarmConfig, FarmError, FarmReport, JobClass, Transmission};
use minimpi::{FaultEvent, FaultPlan, SendFault};
use sched::Action;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::with_watchdog;

/// Plain farm via the unified [`farm::run`] entry point.
fn run_plain_farm(
    files: &[PathBuf],
    slaves: usize,
    strategy: Transmission,
) -> Result<FarmReport, FarmError> {
    run(files, &FarmConfig::new(slaves, strategy))
}

/// Supervised farm (with optional fault plan) via [`farm::run`].
fn run_supervised(
    files: &[PathBuf],
    slaves: usize,
    strategy: Transmission,
    cfg: &SupervisorConfig,
    plan: Option<Arc<FaultPlan>>,
) -> Result<FarmReport, FarmError> {
    let mut fc = FarmConfig::new(slaves, strategy).supervisor(cfg.clone());
    if let Some(plan) = plan {
        fc = fc.fault_plan(plan);
    }
    run(files, &fc)
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A portfolio on disk plus its serially computed reference prices.
fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, Vec<f64>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("farm_chaos_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = toy_portfolio(count);
    let paths = save_portfolio(&jobs, &dir).unwrap();
    let expected: Vec<f64> = jobs
        .iter()
        .map(|j| j.problem.compute().unwrap().price)
        .collect();
    (paths, expected, dir)
}

/// Test-scale supervisor timings: jobs price in microseconds, so short
/// deadlines keep retry turnarounds (and the whole suite) fast.
fn chaos_config() -> SupervisorConfig {
    SupervisorConfig {
        job_deadline: Duration::from_millis(150),
        max_attempts: 5,
        backoff_base: Duration::from_millis(2),
        poll: Duration::from_millis(10),
        slave_idle_timeout: Duration::from_millis(900),
    }
}

/// Every job appears exactly once across `outcomes ∪ failed_jobs`, and
/// every reported price matches the serial reference bit for bit.
fn assert_exactly_once(report: &FarmReport, expected: &[f64]) {
    let mut seen = vec![false; expected.len()];
    for o in &report.outcomes {
        assert!(o.job < expected.len(), "outcome for unknown job {}", o.job);
        assert!(!seen[o.job], "job {} accounted twice", o.job);
        seen[o.job] = true;
        assert_eq!(
            o.price.to_bits(),
            expected[o.job].to_bits(),
            "job {}: farm {} vs serial {}",
            o.job,
            o.price,
            expected[o.job]
        );
    }
    for &j in &report.failed_jobs {
        assert!(j < expected.len(), "failed unknown job {j}");
        assert!(!seen[j], "job {j} both completed and failed");
        seen[j] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "jobs unaccounted for: {:?}",
        seen.iter()
            .enumerate()
            .filter_map(|(j, &s)| (!s).then_some(j))
            .collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// Scenario: slave killed mid-portfolio
// ---------------------------------------------------------------------------

#[test]
fn slave_killed_mid_portfolio_loses_no_jobs() {
    let (report, expected) = with_watchdog(60, || {
        let (paths, expected, dir) = setup(24, "kill_mid");
        // Slave rank 2 dies at op 1 (k = 0): it computes its first job
        // and dies sending the answer. Priming hands every slave its
        // first dispatch, so the kill always fires with that job in
        // flight — however the other slaves race it.
        let plan = Arc::new(FaultPlan::new(0xC0FFEE).kill_rank_at_op(2, 1));
        let report = run_supervised(
            &paths,
            3,
            Transmission::SerializedLoad,
            &chaos_config(),
            Some(plan),
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (report, expected)
    });
    // Nothing lost: the dead slave's in-flight job was requeued and the
    // totals match the fault-free (serial) reference exactly.
    assert_exactly_once(&report, &expected);
    assert!(report.failed_jobs.is_empty(), "{:?}", report.failed_jobs);
    assert_eq!(report.completed(), expected.len());
    // The degradation was observed and recorded.
    assert_eq!(report.dead_slaves, vec![2], "dead slave not detected");
    assert!(report.retries >= 1, "requeue not recorded");
    // The survivors finished everything.
    assert_eq!(report.per_slave.iter().sum::<usize>(), expected.len());
    assert!(report.per_slave[1] > 0 && report.per_slave[3] > 0);
}

#[test]
fn same_seed_reproduces_identical_schedule_and_results() {
    // The headline determinism property. (1) The decision table is a pure
    // function of the seed: two plans built alike agree on every verdict.
    let mk_plan = || {
        FaultPlan::new(0xDEAD_BEEF)
            .with_drop_rate(0.08)
            .with_delay_rate(0.05, Duration::from_millis(1), Duration::from_millis(5))
            .with_truncate_rate(0.04)
            .kill_rank_at_op(3, 40)
    };
    let (a, b) = (mk_plan(), mk_plan());
    for rank in 0..5 {
        for payload in [8usize, 120, 4096] {
            assert_eq!(
                a.send_schedule(rank, 300, payload),
                b.send_schedule(rank, 300, payload),
                "schedule diverged for rank {rank} payload {payload}"
            );
        }
    }

    // (2) Two full chaos runs under the same seed agree on the outcome:
    // same surviving results, same failures, same dead slaves. Rank 3
    // dies at op 1, answering its primed first job: it always dies.
    let run_once = |tag: &str| {
        let (paths, expected, dir) = setup(18, tag);
        let plan = Arc::new(FaultPlan::new(0xDEAD_BEEF).kill_rank_at_op(3, 1));
        let r = run_supervised(
            &paths,
            3,
            Transmission::FullLoad,
            &chaos_config(),
            Some(plan),
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (r, expected)
    };
    let ((r1, expected), (r2, _)) =
        with_watchdog(120, move || (run_once("repro_a"), run_once("repro_b")));
    assert_exactly_once(&r1, &expected);
    assert_exactly_once(&r2, &expected);
    assert_eq!(r1.by_job(), r2.by_job(), "results diverged across replays");
    assert_eq!(r1.dead_slaves, r2.dead_slaves);
    assert_eq!(r1.failed_jobs, r2.failed_jobs);
}

// ---------------------------------------------------------------------------
// Scenario: total collapse
// ---------------------------------------------------------------------------

#[test]
fn all_slaves_dead_fails_cleanly_not_hangs() {
    let err = with_watchdog(30, || {
        let (paths, _expected, dir) = setup(12, "collapse");
        // Both slaves die at op 2 (k = 1, even): each answers its first
        // job, then dies idle waiting for its second frame.
        let plan = Arc::new(
            FaultPlan::new(7)
                .kill_rank_at_op(1, 2)
                .kill_rank_at_op(2, 2),
        );
        let err = run_supervised(
            &paths,
            2,
            Transmission::SerializedLoad,
            &chaos_config(),
            Some(plan),
        )
        .unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        err
    });
    match err {
        FarmError::AllSlavesDead {
            completed,
            remaining,
        } => {
            assert_eq!(completed + remaining, 12, "jobs unaccounted at collapse");
            assert!(remaining > 0, "collapse with nothing remaining");
        }
        other => panic!("expected AllSlavesDead, got {other}"),
    }
}

#[test]
fn slaves_that_idle_out_end_the_run_as_all_slaves_dead() {
    // Every message is lost, so no slave ever sees a frame and each one
    // leaves when its short idle window runs out. A slave that leaves
    // marks its rank dead, so the master's liveness sweep buries both
    // and the run ends as a collapse — long before the first deadline,
    // instead of retrying every job into the void until its budget is
    // spent.
    let sup = SupervisorConfig {
        job_deadline: Duration::from_secs(2),
        max_attempts: 3,
        backoff_base: Duration::from_millis(2),
        poll: Duration::from_millis(10),
        slave_idle_timeout: Duration::from_millis(50),
    };
    let deadline = sup.job_deadline;
    let (ran, took) = with_watchdog(60, move || {
        let (paths, _expected, dir) = setup(6, "idle_out");
        let plan = Arc::new(FaultPlan::new(11).with_drop_rate(1.0));
        let t0 = std::time::Instant::now();
        let ran = run_supervised(&paths, 2, Transmission::SerializedLoad, &sup, Some(plan));
        std::fs::remove_dir_all(&dir).ok();
        (ran, t0.elapsed())
    });
    match ran {
        Err(FarmError::AllSlavesDead {
            completed,
            remaining,
        }) => assert_eq!((completed, remaining), (0, 6)),
        other => panic!("expected AllSlavesDead, got {other:?}"),
    }
    assert!(took < deadline, "waited {took:?} for slaves that left");
}

// ---------------------------------------------------------------------------
// Scenario: message loss + retry, all three transmission strategies
// ---------------------------------------------------------------------------

#[test]
fn dropped_dispatch_is_retried_under_every_strategy() {
    // The master's very first send (job 0's frame) is lost in flight, or
    // arrives mangled: the patient slave must discard the truncated
    // frame and keep serving. Either way the job comes back via deadline
    // + retry.
    for fault in [SendFault::Drop, SendFault::Truncate(3)] {
        for strategy in Transmission::ALL {
            let (report, expected) = with_watchdog(60, move || {
                let (paths, expected, dir) = setup(10, &format!("drop_{fault:?}_{strategy:?}"));
                let plan = Arc::new(FaultPlan::new(11).force_send(0, 0, fault));
                let report =
                    run_supervised(&paths, 2, strategy, &chaos_config(), Some(plan)).unwrap();
                std::fs::remove_dir_all(&dir).ok();
                (report, expected)
            });
            assert_exactly_once(&report, &expected);
            assert!(
                report.failed_jobs.is_empty(),
                "{fault:?}, {strategy:?}: jobs failed {:?}",
                report.failed_jobs
            );
            assert!(
                report.retries >= 1,
                "{fault:?}, {strategy:?}: survived without a recorded retry"
            );
            assert!(
                report.dead_slaves.is_empty(),
                "{fault:?}, {strategy:?}: false burial"
            );
        }
    }
}

#[test]
fn truncated_result_is_retried() {
    let (report, expected) = with_watchdog(60, || {
        let (paths, expected, dir) = setup(8, "trunc_result");
        // Slave 1's first reply (its result for its first job) is
        // truncated in flight: the master must discard the mangled frame
        // and recover the job by deadline.
        let plan = Arc::new(FaultPlan::new(13).force_send(1, 0, SendFault::Truncate(3)));
        let report =
            run_supervised(&paths, 2, Transmission::Nfs, &chaos_config(), Some(plan)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (report, expected)
    });
    assert_exactly_once(&report, &expected);
    assert!(report.failed_jobs.is_empty());
    assert!(report.retries >= 1, "truncation survived without a retry");
}

#[test]
fn delayed_results_are_deduplicated_not_double_counted() {
    let (report, expected) = with_watchdog(60, || {
        let (paths, expected, dir) = setup(8, "dedup");
        // Slave 1's first reply is delayed past the job deadline: the
        // master requeues the job, then the straggler answer arrives and
        // must be dropped as a duplicate (first answer wins).
        let plan = Arc::new(FaultPlan::new(17).force_send(
            1,
            0,
            SendFault::Delay(Duration::from_millis(400)),
        ));
        let report =
            run_supervised(&paths, 2, Transmission::Nfs, &chaos_config(), Some(plan)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (report, expected)
    });
    // Exactly-once accounting is the whole assertion here: the delayed
    // duplicate must not show up as an eleventh outcome.
    assert_exactly_once(&report, &expected);
    assert!(report.retries >= 1);
}

// ---------------------------------------------------------------------------
// Zero-fault equivalence: supervision must be free when nothing fails
// ---------------------------------------------------------------------------

#[test]
fn inert_plan_supervised_farm_matches_unsupervised_exactly() {
    let ((plain, supervised, supervised_none), expected) = with_watchdog(60, || {
        let (paths, expected, dir) = setup(20, "inert_eq");
        let plain = run_plain_farm(&paths, 3, Transmission::SerializedLoad).unwrap();
        let inert = Arc::new(FaultPlan::new(99));
        assert!(inert.is_inert());
        let supervised = run_supervised(
            &paths,
            3,
            Transmission::SerializedLoad,
            &chaos_config(),
            Some(Arc::clone(&inert)),
        )
        .unwrap();
        assert!(inert.events().is_empty(), "inert plan injected something");
        let supervised_none = run_supervised(
            &paths,
            3,
            Transmission::SerializedLoad,
            &chaos_config(),
            None,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        ((plain, supervised, supervised_none), expected)
    });
    assert_exactly_once(&plain, &expected);
    assert_exactly_once(&supervised, &expected);
    // Job-for-job, bit-for-bit identical results.
    assert_eq!(plain.by_job(), supervised.by_job());
    assert_eq!(plain.by_job(), supervised_none.by_job());
    assert!(supervised.failed_jobs.is_empty());
    assert_eq!(supervised.retries, 0, "phantom retries without faults");
    assert!(supervised.dead_slaves.is_empty());
}

// ---------------------------------------------------------------------------
// Property: arbitrary topology × arbitrary fault seed, exactly-once
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_job_accounted_exactly_once_under_arbitrary_faults(
        jobs in 1usize..16,
        slaves in 1usize..5,
        seed in 0u64..1_000_000,
        kill_first_slave in any::<bool>(),
    ) {
        let report = with_watchdog(120, move || {
            let dir = std::env::temp_dir().join(format!(
                "farm_chaos_prop_{jobs}_{slaves}_{seed}_{kill_first_slave}"
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let portfolio = toy_portfolio(jobs);
            let paths = save_portfolio(&portfolio, &dir).unwrap();
            let expected: Vec<f64> = portfolio
                .iter()
                .map(|j| j.problem.compute().unwrap().price)
                .collect();
            let mut plan = FaultPlan::new(seed).with_drop_rate(0.03);
            if kill_first_slave {
                // Op 7 = 2·3 + 1: rank 1 dies sending its fourth reply
                // (dropped frames never reach it, so never count); with
                // fewer than four dispatches it outlives the run.
                plan = plan.kill_rank_at_op(1, 7);
            }
            let strategy = Transmission::ALL[(seed % 3) as usize];
            let out = run_supervised(
                &paths,
                slaves,
                strategy,
                &chaos_config(),
                Some(Arc::new(plan)),
            );
            std::fs::remove_dir_all(&dir).ok();
            (out, expected)
        });
        let (out, expected) = report;
        match out {
            Ok(report) => {
                // Exactly-once partition of the portfolio.
                let mut seen = vec![false; expected.len()];
                for o in &report.outcomes {
                    prop_assert!(o.job < expected.len());
                    prop_assert!(!seen[o.job], "job {} twice", o.job);
                    seen[o.job] = true;
                    prop_assert_eq!(
                        o.price.to_bits(), expected[o.job].to_bits(),
                        "job {} wrong price", o.job
                    );
                }
                for &j in &report.failed_jobs {
                    prop_assert!(!seen[j], "job {j} both done and failed");
                    seen[j] = true;
                }
                prop_assert!(seen.iter().all(|&s| s), "jobs lost");
            }
            // Legitimate only when the topology could actually collapse.
            Err(FarmError::AllSlavesDead { completed, remaining }) => {
                prop_assert!(kill_first_slave && slaves == 1);
                prop_assert_eq!(completed + remaining, jobs);
            }
            Err(other) => prop_assert!(false, "unexpected farm error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario: chaos at the paper's scale, in virtual time
// ---------------------------------------------------------------------------

#[test]
fn chaos_at_512_slaves_in_virtual_time_accounts_for_every_job() {
    // The paper's 256 nodes / 512 cores: 512 supervised slaves and
    // 10 000 jobs, driven by the farm's own `drive` over the simulator's
    // world. One plan drops, delays and truncates messages of every rank
    // at rates, and kills every sixteenth slave at an op spread over its
    // ~40 (idle at an even op, sending at an odd one, at its very first
    // receive for op 0).
    const SEED: u64 = 0x5120_C4A0;
    const SLAVES: usize = 512;
    const JOBS: usize = 10_000;
    const MAX_ATTEMPTS: u32 = 4;
    let mut plan = FaultPlan::new(SEED)
        .with_drop_rate(0.02)
        .with_delay_rate(0.02, Duration::from_millis(1), Duration::from_millis(50))
        .with_truncate_rate(0.01);
    for rank in (1..=SLAVES).step_by(16) {
        plan = plan.kill_rank_at_op(rank, (rank as u64 * 7) % 40);
    }
    let plan = Arc::new(plan);
    let jobs: Vec<SimJob> = (0..JOBS)
        .map(|id| SimJob {
            id,
            class: JobClass::VanillaClosedForm,
            bytes: 600,
            compute: 5e-3 + (id % 11) as f64 * 1e-3,
        })
        .collect();
    let supervision = Supervision {
        deadline_ns: 1_000_000_000,
        max_attempts: MAX_ATTEMPTS,
        backoff_base_ns: 1_000_000,
    };
    let sched = SchedConfig::farm(JOBS, SLAVES, DispatchPolicy::Fifo, Some(supervision), None);
    let spec = SimSpec {
        jobs: &jobs,
        strategy: Transmission::SerializedLoad,
        cfg: &SimConfig::default(),
        recorder: None,
        plan: Some(Arc::clone(&plan)),
        sched: sched.record_trace(),
    };
    let out = simulate(&spec, &mut SimCaches::new())
        .unwrap_or_else(|e| panic!("seed {SEED:#x}: the run failed: {e}"));
    let trace = out.trace.expect("record_trace was set");

    // Per job: accepts, and dispatches net of those the scheduler took
    // back because the slave was already gone (not an attempt).
    let (mut accepted, mut attempts) = (vec![0u32; JOBS], vec![0u32; JOBS]);
    let mut buried = BTreeSet::new();
    for entry in &trace.entries {
        if let sched::Event::SendFailed { job, .. } = entry.event {
            attempts[job] -= 1;
        }
        for action in &entry.actions {
            match *action {
                Action::Accept { job, .. } => accepted[job] += 1,
                Action::Dispatch { job, .. } => attempts[job] += 1,
                Action::Bury { slave } => {
                    buried.insert(slave);
                }
                _ => {}
            }
        }
    }
    for job in 0..JOBS {
        let (n, tries) = (accepted[job], attempts[job]);
        assert!(
            n == 1 || (n == 0 && tries == MAX_ATTEMPTS),
            "seed {SEED:#x}: job {job} accepted {n} times after {tries} attempts"
        );
        assert!(
            tries <= MAX_ATTEMPTS,
            "seed {SEED:#x}: job {job} dispatched {tries} times"
        );
    }
    assert_eq!(
        out.per_slave.iter().sum::<usize>(),
        accepted.iter().sum::<u32>() as usize,
        "seed {SEED:#x}"
    );

    // The buried slaves are exactly the ones the plan killed, and the
    // plan did fault every kind of message it was asked to.
    let events = plan.events();
    let killed: BTreeSet<usize> = (events.iter())
        .filter_map(|e| match *e {
            FaultEvent::Killed { rank, .. } => Some(rank),
            _ => None,
        })
        .collect();
    assert!(
        !killed.is_empty() && killed.len() < SLAVES / 2,
        "seed {SEED:#x}: {} slaves killed",
        killed.len()
    );
    assert_eq!(buried, killed, "seed {SEED:#x}: buried vs killed");
    let saw = |kind: fn(&FaultEvent) -> bool| events.iter().any(kind);
    assert!(
        saw(|e| matches!(e, FaultEvent::Dropped { .. }))
            && saw(|e| matches!(e, FaultEvent::Delayed { .. }))
            && saw(|e| matches!(e, FaultEvent::Truncated { .. })),
        "seed {SEED:#x}: a fault kind never fired"
    );
}
