//! Integration: the long-lived pricing service (`serve::Session`).
//!
//! Three contracts, end to end:
//!
//! * concurrent submitters get **bit-identical** prices to a one-shot
//!   `farm::run` over the same portfolio;
//! * a second identical request is served **from the memo** — zero
//!   fresh `Compute` events on the slaves;
//! * a slave killed mid-request still leaves **every admitted ticket
//!   answered exactly once** (the supervised scheduler re-dispatches),
//!   and a fault-mangled job frame costs one re-dispatch, not the slave;
//! * problems travel in **job frames**: closed-form problems share
//!   frames (evenly over the slaves, never above the 64 KiB cap), every
//!   iterative problem is a frame of its own, and a member's own failure
//!   — a refusal or a kernel panic — is final for that member only;
//! * a batch that packs into **one frame never travels**: the front loop
//!   prices it under the slaves' compute policy, bit-identical to a
//!   slave, so tests of the wire give their batches two frames or more.

use riskbench::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A session config with test-scale supervision timings.
fn quick_config(slaves: usize) -> ServeConfig {
    ServeConfig::new(slaves)
        .job_deadline(Duration::from_millis(500))
        .poll(Duration::from_millis(5))
}

fn toy_problems(count: usize) -> Vec<PremiaProblem> {
    toy_portfolio(count)
        .into_iter()
        .map(|j| j.problem)
        .collect()
}

/// Byte sizes of the job frames the front loop has sent so far (its
/// only sends before the shutdown sentinels), in send order.
fn job_frame_bytes(rec: &Recorder) -> Vec<u64> {
    rec.events()
        .iter()
        .filter(|e| e.kind == EventKind::Send && e.rank == 0)
        .map(|e| e.bytes)
        .collect()
}

// ---------------------------------------------------------------------------
// Bit-identical to the one-shot farm
// ---------------------------------------------------------------------------

#[test]
fn concurrent_submitters_match_one_shot_farm_bit_for_bit() {
    let count = 24;
    let jobs = toy_portfolio(count);

    // Ground truth: the one-shot farm over the same portfolio.
    let dir = std::env::temp_dir().join("it_serve_vs_farm");
    let _ = std::fs::remove_dir_all(&dir);
    let files = save_portfolio(&jobs, &dir).unwrap();
    let farm_report = run(&files, &FarmConfig::new(3, Transmission::SerializedLoad)).unwrap();
    let mut expected = vec![0u64; count];
    for o in &farm_report.outcomes {
        expected[o.job] = o.price.to_bits();
    }
    std::fs::remove_dir_all(&dir).ok();

    // The service: four submitter threads, six problems each.
    let session = Session::start(quick_config(3)).unwrap();
    let problems: Vec<PremiaProblem> = jobs.into_iter().map(|j| j.problem).collect();
    std::thread::scope(|scope| {
        let session = &session;
        let problems = &problems;
        let expected = &expected;
        for t in 0..4 {
            scope.spawn(move || {
                let slice: Vec<PremiaProblem> = problems[t * 6..(t + 1) * 6].to_vec();
                let ticket = session.submit(Request::new(slice)).unwrap();
                let response = ticket.wait().unwrap();
                assert!(response.all_priced(), "{:?}", response.results);
                for (i, r) in response.results.iter().enumerate() {
                    let priced = r.as_ref().unwrap();
                    assert_eq!(
                        priced.price.to_bits(),
                        expected[t * 6 + i],
                        "submitter {t} problem {i} differs from the one-shot farm"
                    );
                }
            });
        }
    });
    let report = session.shutdown().unwrap();
    assert_eq!(report.answered, 4);
    assert_eq!(report.failed, 0);
    // Every problem priced at most once; coalescing may have shaved
    // duplicates if toy portfolios repeat parameters.
    assert!(report.computed as usize <= count);
    assert_eq!(report.computed + report.memo_hits, count as u64);
}

// ---------------------------------------------------------------------------
// Mixed-class requests: the new workload classes flow through the service
// ---------------------------------------------------------------------------

#[test]
fn mixed_class_request_prices_every_workload_class_bit_for_bit() {
    // One representative of every job class — including the extension
    // classes (Bermudan max-call LSM, BSDE Picard, XVA/CVA) — in a
    // single request. The session must price each bit-identically to an
    // in-process compute of the same problem.
    let jobs: Vec<PortfolioJob> = JobClass::ALL
        .iter()
        .map(|&c| representative_problem(c, PortfolioScale::Quick))
        .collect();
    let expected: Vec<u64> = jobs
        .iter()
        .map(|j| j.problem.compute().unwrap().price.to_bits())
        .collect();
    let mix = farm::workload::Workload::batch(jobs.clone()).class_mix();
    assert_eq!(mix.len(), JobClass::ALL.len(), "one of each class: {mix:?}");

    let session = Session::start(quick_config(3).job_deadline(Duration::from_secs(30))).unwrap();
    let problems: Vec<PremiaProblem> = jobs.into_iter().map(|j| j.problem).collect();
    let response = session
        .submit(Request::new(problems))
        .unwrap()
        .wait()
        .unwrap();
    assert!(response.all_priced(), "{:?}", response.results);
    for ((i, r), want) in response.results.iter().enumerate().zip(&expected) {
        assert_eq!(
            r.as_ref().unwrap().price.to_bits(),
            *want,
            "class {:?} priced differently through the service",
            JobClass::ALL[i]
        );
    }
    let report = session.shutdown().unwrap();
    assert_eq!(report.answered, 1);
    assert_eq!(report.failed, 0);
}

// ---------------------------------------------------------------------------
// Memoisation: the second identical request computes nothing
// ---------------------------------------------------------------------------

#[test]
fn identical_request_is_served_from_memo_without_compute() {
    let rec = Arc::new(Recorder::new(4));
    let session = Session::start(quick_config(3).recorder(rec.clone())).unwrap();
    let problems = toy_problems(48);

    let first = session
        .submit(Request::new(problems.clone()))
        .unwrap()
        .wait()
        .unwrap();
    assert!(first.all_priced());
    let computes_after_first = rec
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Compute)
        .count();
    assert_eq!(
        computes_after_first,
        problems.len(),
        "one Compute span per problem of the first wave"
    );
    // 48 closed-form problems over 3 slaves: three frames of sixteen,
    // one per slave.
    assert_eq!(job_frame_bytes(&rec).len(), 3);
    let computing: std::collections::BTreeSet<u16> = rec
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Compute)
        .map(|e| e.rank)
        .collect();
    assert_eq!(
        computing.into_iter().collect::<Vec<_>>(),
        [1, 2, 3],
        "closed-form frames must be split over every slave"
    );

    let second = session
        .submit(Request::new(problems.clone()))
        .unwrap()
        .wait()
        .unwrap();
    assert!(second.all_priced());
    assert_eq!(
        second.memoised_count(),
        problems.len(),
        "every problem of the repeat must come from the memo"
    );
    // Bit-identical to the fresh answers.
    for (a, b) in first.results.iter().zip(&second.results) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        assert_eq!(a.std_error.map(f64::to_bits), b.std_error.map(f64::to_bits));
    }

    let computes_after_second = rec
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Compute)
        .count();
    assert_eq!(
        computes_after_second, computes_after_first,
        "the repeat request must trigger zero fresh Compute events"
    );

    let report = session.shutdown().unwrap();
    assert_eq!(report.answered, 2);
    assert!(report.memo_hits >= problems.len() as u64);
    assert!(report.memo.hits >= problems.len() as u64);
}

// ---------------------------------------------------------------------------
// SLO surface: Enqueue/Admit/MemoHit land in the breakdown
// ---------------------------------------------------------------------------

#[test]
fn breakdown_reports_request_percentiles_and_memo_hits() {
    let rec = Arc::new(Recorder::new(3));
    let session = Session::start(quick_config(2).recorder(rec.clone())).unwrap();
    let problems = toy_problems(5);
    for _ in 0..3 {
        let r = session
            .submit(Request::new(problems.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert!(r.all_priced());
    }
    session.shutdown().unwrap();

    let b = Breakdown::from_events(&rec.events());
    assert_eq!(b.request_count(), 3);
    assert!(b.request_p50_s() > 0.0);
    assert!(b.request_p99_s() >= b.request_p50_s());
    assert!(b.memo_hits() >= 10, "waves 2 and 3 hit the memo");
    assert!(b.memo_hit_rate() > 0.0);
}

// ---------------------------------------------------------------------------
// Backpressure: typed shed, no blocking, nothing left unanswered
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_with_typed_error_and_answers_all_admitted() {
    // One slave, a queue of two, strict priority shares: class 1 may
    // hold one slot, so the second class-1 submission sheds while its
    // predecessor is still queued or in flight.
    let session = Session::start(
        quick_config(1)
            .queue_depth(2)
            .priorities(2)
            .inflight_bytes(1 << 20),
    )
    .unwrap();
    let problems = toy_problems(4);

    let mut tickets = Vec::new();
    let mut sheds = 0usize;
    for _ in 0..12 {
        match session.submit(Request::new(problems.clone()).priority(1)) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded {
                priority,
                depth_limit,
                ..
            }) => {
                assert_eq!(priority, 1);
                assert_eq!(depth_limit, 1);
                sheds += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(!tickets.is_empty(), "some requests must be admitted");

    // Every admitted ticket is answered exactly once.
    for t in tickets {
        let r = t.wait().unwrap();
        assert!(r.all_priced(), "{:?}", r.results);
    }
    let report = session.shutdown().unwrap();
    if sheds > 0 {
        assert!(report.shed > 0, "sheds must surface in the report");
    }

    // Priority 0 keeps the full queue share even when class 1 sheds.
    let session = Session::start(quick_config(1).queue_depth(2).priorities(2)).unwrap();
    let urgent = session
        .submit(Request::new(toy_problems(2)).priority(0))
        .unwrap();
    assert!(urgent.wait().unwrap().all_priced());
    session.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Fault tolerance: a mid-request slave kill loses no ticket
// ---------------------------------------------------------------------------

#[test]
fn slave_killed_mid_request_still_answers_every_ticket_once() {
    // Ground truth prices, computed serially.
    let problems = toy_problems(12);
    let expected: Vec<u64> = problems
        .iter()
        .map(|p| p.compute().unwrap().price.to_bits())
        .collect();

    // Kill slave rank 2 at its first answer send. The resident slave
    // cycle is exactly 2 ops *per frame* (recv frame, send answers), so
    // op 1 is the answer send of its first frame: the frame is already
    // dispatched to the rank when it dies, forcing a re-dispatch, and
    // the slave cannot die idle at a recv that might otherwise be the
    // shutdown sentinel.
    let plan = Arc::new(FaultPlan::new(0xC0FFEE).kill_rank_at_op(2, 1));
    let session = Session::start(
        quick_config(3)
            .fault_plan(plan)
            .job_deadline(Duration::from_millis(150)),
    )
    .unwrap();

    let mut tickets = Vec::new();
    for chunk in problems.chunks(4) {
        tickets.push(session.submit(Request::new(chunk.to_vec())).unwrap());
    }
    let mut responses = Vec::new();
    for t in tickets {
        responses.push(t.wait().unwrap());
    }
    let report = session.shutdown().unwrap();

    // Exactly one response per ticket, every problem priced, all
    // bit-identical to serial despite the death and re-dispatches.
    assert_eq!(responses.len(), 3);
    for (ri, r) in responses.iter().enumerate() {
        assert!(r.all_priced(), "request {ri}: {:?}", r.results);
        for (pi, res) in r.results.iter().enumerate() {
            assert_eq!(
                res.as_ref().unwrap().price.to_bits(),
                expected[ri * 4 + pi],
                "request {ri} problem {pi} differs from serial after the kill"
            );
        }
    }
    assert_eq!(report.answered, 3);
    assert_eq!(report.failed, 0);
    assert!(
        report.dead_slaves.contains(&2),
        "the killed slave must be reported dead: {:?}",
        report.dead_slaves
    );
    assert!(
        report.retries >= 1,
        "the kill must have landed mid-request and forced a re-dispatch"
    );
}

#[test]
fn the_last_slave_dying_mid_request_keeps_the_prices_already_accepted() {
    // Two iterative problems, so two frames, on one slave. Its cycle is
    // 2 ops per frame: op 3 is the answer send of the second frame, so
    // the first frame is priced and accepted before the world runs out
    // of slaves.
    let mc = |seed| {
        let mut p = representative_problem(JobClass::LocalVolMc, PortfolioScale::Quick).problem;
        p.method = MethodSpec::MonteCarlo {
            paths: 2_000,
            time_steps: 10,
            antithetic: true,
            seed,
        };
        p
    };
    let problems = vec![mc(1), mc(2)];
    let first = problems[0].compute().unwrap().price.to_bits();
    let plan = Arc::new(FaultPlan::new(3).kill_rank_at_op(1, 3));
    let session = Session::start(
        quick_config(1)
            .fault_plan(plan)
            .job_deadline(Duration::from_secs(30)),
    )
    .unwrap();
    let response = session
        .submit(Request::new(problems))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        response.results[0].as_ref().map(|p| p.price.to_bits()),
        Ok(first),
        "an accepted price survives the collapse"
    );
    assert_eq!(response.results[1], Err("all slaves dead".to_string()));
    let report = session.shutdown().unwrap();
    assert_eq!((report.computed, report.failed), (1, 1));
    assert_eq!(report.dead_slaves, [1]);
}

#[test]
fn fault_truncated_job_frame_is_discarded_and_the_slave_keeps_serving() {
    let problems = toy_problems(8);
    let expected: Vec<u64> = problems
        .iter()
        .map(|p| p.compute().unwrap().price.to_bits())
        .collect();

    // Two slaves, so each request's four vanillas travel as two frames
    // (one frame would be priced on the front loop and never sent). The
    // front loop's first send — the first request's first job frame —
    // arrives mangled. The slave it reaches must clear it and stay in
    // its loop: the frame deadline re-dispatches, and the second request
    // finds live slaves.
    let plan = Arc::new(FaultPlan::new(7).force_send(0, 0, SendFault::Truncate(10)));
    let session = Session::start(
        quick_config(2)
            .fault_plan(plan)
            .job_deadline(Duration::from_millis(100)),
    )
    .unwrap();
    let mut got = Vec::new();
    for chunk in problems.chunks(4) {
        let response = session
            .submit(Request::new(chunk.to_vec()))
            .unwrap()
            .wait()
            .unwrap();
        assert!(response.all_priced(), "{:?}", response.results);
        got.extend(
            response
                .results
                .iter()
                .map(|r| r.as_ref().unwrap().price.to_bits()),
        );
    }
    assert_eq!(
        got, expected,
        "bit-identical to serial after the re-dispatch"
    );

    let report = session.shutdown().unwrap();
    assert_eq!((report.answered, report.computed, report.failed), (2, 8, 0));
    assert!(
        report.retries >= 1,
        "the mangled frame must be re-dispatched"
    );
    assert!(report.dead_slaves.is_empty(), "{:?}", report.dead_slaves);
}

// ---------------------------------------------------------------------------
// Job frames: what shares a frame, what travels alone, what a failure costs
// ---------------------------------------------------------------------------

#[test]
fn mixed_request_answers_in_order_with_each_iterative_problem_in_its_own_frame() {
    let mc = representative_problem(JobClass::LocalVolMc, PortfolioScale::Quick).problem;
    let lsm = representative_problem(JobClass::AmericanBasketLsm, PortfolioScale::Quick).problem;
    let mut problems = toy_problems(6);
    problems.insert(2, mc);
    problems.insert(5, lsm);
    let expected: Vec<u64> = problems
        .iter()
        .map(|p| p.compute().unwrap().price.to_bits())
        .collect();

    // One slave, so the six vanillas share one frame and the count
    // below is exact.
    let rec = Arc::new(Recorder::new(2));
    let session = Session::start(
        quick_config(1)
            .recorder(rec.clone())
            .job_deadline(Duration::from_secs(30)),
    )
    .unwrap();
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
    assert_eq!(
        got, expected,
        "submission order, bit-identical to compute()"
    );
    assert_eq!(
        job_frame_bytes(&rec).len(),
        3,
        "one shared closed-form frame + one frame per iterative problem"
    );
    let report = session.shutdown().unwrap();
    assert_eq!((report.computed, report.failed, report.retries), (8, 0, 0));
}

#[test]
fn failing_frame_member_fails_alone_and_is_not_retried() {
    // Black–Scholes American put has no closed form: compute() refuses
    // it, on any slave, every time.
    let mut bad = toy_problems(1).remove(0);
    bad.option = OptionSpec::AmericanPut {
        strike: 100.0,
        maturity: 1.0,
    };
    assert!(bad.compute().is_err());
    let mut problems = toy_problems(8);
    problems.insert(3, bad);
    let expected: Vec<Option<u64>> = problems
        .iter()
        .map(|p| p.compute().ok().map(|r| r.price.to_bits()))
        .collect();

    // Two slaves, so the nine travel (one frame would stay on the front
    // loop): frames of five and four, the failing member sharing the
    // first with four others.
    let rec = Arc::new(Recorder::new(3));
    let session = Session::start(quick_config(2).recorder(rec.clone())).unwrap();
    let response = session
        .submit(Request::new(problems))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(job_frame_bytes(&rec).len(), 2, "the nine share two frames");
    let got: Vec<Option<u64>> = response
        .results
        .iter()
        .map(|r| r.as_ref().ok().map(|p| p.price.to_bits()))
        .collect();
    assert_eq!(got, expected, "only the failing member is an Err");
    let why = response.results[3].as_ref().unwrap_err();
    assert!(why.contains("compute failed"), "{why}");

    let report = session.shutdown().unwrap();
    assert_eq!(report.answered, 1, "the ticket is answered exactly once");
    assert_eq!((report.computed, report.failed), (8, 1));
    assert_eq!(report.retries, 0, "a member failure burns no re-dispatch");
}

#[test]
fn thousand_vanilla_request_splits_into_frames_under_the_cap() {
    let problems = toy_problems(1000);
    let expected: Vec<u64> = problems
        .iter()
        .map(|p| p.compute().unwrap().price.to_bits())
        .collect();
    let rec = Arc::new(Recorder::new(2));
    let session = Session::start(quick_config(1).recorder(rec.clone())).unwrap();
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
    assert_eq!(got, expected);

    let frames = job_frame_bytes(&rec);
    assert!(
        frames.len() > 1,
        "one slave, yet the cap must split: {frames:?}"
    );
    assert!(frames.iter().all(|&b| b <= 64 << 10), "{frames:?}");
    // The cap, not a member count, is what split them: every frame but
    // the last is within one problem of full.
    let largest = *frames.iter().max().unwrap();
    assert!(largest > (64 << 10) - 1024, "{frames:?}");
    let report = session.shutdown().unwrap();
    assert_eq!((report.computed, report.retries), (1000, 0));
}

#[test]
fn costly_monte_carlo_problems_never_share_a_frame() {
    let mc = |paths: usize, seed: u64| {
        let mut p = representative_problem(JobClass::LocalVolMc, PortfolioScale::Quick).problem;
        p.method = MethodSpec::MonteCarlo {
            paths,
            time_steps: 10,
            antithetic: true,
            seed,
        };
        p
    };
    let timed = |p: &PremiaProblem| {
        let t0 = std::time::Instant::now();
        p.compute().unwrap();
        t0.elapsed()
    };
    // Size the problems to ~40 ms each on this host and build, then set
    // the dispatch deadline so each costs more than a quarter of it:
    // two of them in one frame would already be at risk, four would
    // certainly expire.
    let probe = timed(&mc(2_000, 0)).max(Duration::from_micros(50));
    let paths = (2_000.0 * 0.040 / probe.as_secs_f64()) as usize;
    let cost = timed(&mc(paths, 0)).max(timed(&mc(paths, 1)));
    let deadline = cost.mul_f64(3.9);

    let rec = Arc::new(Recorder::new(2));
    let session =
        Session::start(quick_config(1).recorder(rec.clone()).job_deadline(deadline)).unwrap();
    let problems: Vec<PremiaProblem> = (0..8).map(|seed| mc(paths, seed)).collect();
    let response = session
        .submit(Request::new(problems))
        .unwrap()
        .wait()
        .unwrap();
    assert!(response.all_priced(), "{:?}", response.results);
    assert_eq!(job_frame_bytes(&rec).len(), 8, "one frame per MC problem");
    let report = session.shutdown().unwrap();
    assert_eq!(report.retries, 0, "no frame may outlive {deadline:?}");
}

// ---------------------------------------------------------------------------
// Who prices a batch: one frame never leaves the front loop
// ---------------------------------------------------------------------------

/// The ranks of the `Compute` spans recorded so far, in record order.
fn compute_ranks(rec: &Recorder) -> Vec<u16> {
    rec.events()
        .iter()
        .filter(|e| e.kind == EventKind::Compute)
        .map(|e| e.rank)
        .collect()
}

#[test]
fn one_frame_batch_is_priced_on_the_front_and_sends_no_job_frame() {
    let problems = toy_problems(16);
    let expected: Vec<u64> = problems
        .iter()
        .map(|p| p.compute().unwrap().price.to_bits())
        .collect();
    // Sixteen vanillas on one slave pack into one frame. The front loop
    // prices it, so the same prices come back when the only slave dies
    // at its first op.
    let kill = Arc::new(FaultPlan::new(28).kill_rank_at_op(1, 0));
    for plan in [None, Some(kill)] {
        let rec = Arc::new(Recorder::new(2));
        let mut cfg = quick_config(1).recorder(rec.clone());
        if let Some(plan) = &plan {
            cfg = cfg.fault_plan(plan.clone());
        }
        let session = Session::start(cfg).unwrap();
        let response = session
            .submit(Request::new(problems.clone()))
            .unwrap()
            .wait()
            .unwrap();
        let got: Vec<u64> = response
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().price.to_bits())
            .collect();
        assert_eq!(got, expected, "bit-identical to compute(), kill {plan:?}");
        assert!(job_frame_bytes(&rec).is_empty(), "no job frame was sent");
        assert_eq!(compute_ranks(&rec), [0; 16], "one Compute per problem");
        let report = session.shutdown().unwrap();
        assert_eq!((report.computed, report.failed, report.retries), (16, 0, 0));
    }
}

#[test]
fn a_price_does_not_depend_on_who_computed_it_under_the_compute_policy() {
    let mc = |seed| {
        let mut p = representative_problem(JobClass::LocalVolMc, PortfolioScale::Quick).problem;
        p.method = MethodSpec::MonteCarlo {
            paths: 2_000,
            time_steps: 10,
            antithetic: true,
            seed,
        };
        p
    };
    // Every rank prices with the sequential kernel.
    let want = mc(1).compute().unwrap().price.to_bits();
    // No memo, so the second price is a fresh compute.
    let rec = Arc::new(Recorder::new(2));
    let session = Session::start(
        quick_config(1)
            .memo_bytes(0)
            .recorder(rec.clone())
            .job_deadline(Duration::from_secs(30)),
    )
    .unwrap();
    let price = |problems| {
        let response = session
            .submit(Request::new(problems))
            .unwrap()
            .wait()
            .unwrap();
        let first = response.results[0].as_ref().unwrap();
        assert!(!first.memoised);
        first.price.to_bits()
    };
    // Alone, the problem is a one-frame batch: rank 0 prices it.
    let alone = price(vec![mc(1)]);
    // Beside a second Monte-Carlo problem it is one of two frames, and
    // the slave prices both.
    let beside = price(vec![mc(1), mc(2)]);
    assert_eq!(compute_ranks(&rec), [0, 1, 1]);
    assert_eq!(job_frame_bytes(&rec).len(), 2);
    assert_eq!(alone, want, "rank 0 prices like the slaves");
    assert_eq!(beside, want, "bit-identical wherever it was priced");
    session.shutdown().unwrap();
}

/// A call with a negative strike under Heston: its closed form refuses it.
fn heston_with_negative_strike() -> PremiaProblem {
    let mut p = PremiaProblem::create("Heston1dim", "CallEuro", "CF").unwrap();
    p.option = OptionSpec::Call {
        strike: -1.0,
        maturity: 1.0,
    };
    p
}

/// A down-and-out call with its barrier above the strike: the closed
/// form cannot price it, so it is refused before its kernel.
fn barrier_above_strike() -> PremiaProblem {
    let mut p = PremiaProblem::create("BlackScholes1dim", "CallDownOut", "CF").unwrap();
    p.option = OptionSpec::DownOutCall {
        strike: 90.0,
        barrier: 110.0,
        maturity: 1.0,
    };
    p
}

/// One request of six vanillas with refused members at 1 and 4, then a
/// request of three more, on a session of `slaves`: each bad member is
/// an `Err` of its own, everything else is priced bit-identical to
/// `compute()`, and the session lives on.
/// Returns the job frames the front loop sent.
fn bad_members_fail_alone(slaves: usize) -> Vec<u64> {
    let mut problems = toy_problems(6);
    problems.insert(1, heston_with_negative_strike());
    problems.insert(4, barrier_above_strike());
    let rec = Arc::new(Recorder::new(slaves + 1));
    let session = Session::start(quick_config(slaves).recorder(rec.clone())).unwrap();
    let response = session
        .submit(Request::new(problems.clone()))
        .unwrap()
        .wait()
        .unwrap();
    for (i, (got, problem)) in response.results.iter().zip(&problems).enumerate() {
        let why = match i {
            1 => "compute failed: invalid parameters",
            4 => "compute failed: invalid parameters: the closed form needs the barrier",
            _ => {
                let want = problem.compute().unwrap().price.to_bits();
                assert_eq!(got.as_ref().map(|p| p.price.to_bits()), Ok(want));
                continue;
            }
        };
        let err = got.as_ref().unwrap_err();
        assert!(err.starts_with(why), "member {i}: {err}");
    }
    // Three vanillas the memo has not seen.
    let next = session
        .submit(Request::new(toy_problems(9).split_off(6)))
        .unwrap()
        .wait()
        .unwrap();
    assert!(next.all_priced(), "{:?}", next.results);
    let frames = job_frame_bytes(&rec);
    let report = session.shutdown().unwrap();
    assert!(report.dead_slaves.is_empty(), "{:?}", report.dead_slaves);
    assert_eq!((report.computed, report.failed, report.retries), (9, 2, 0));
    frames
}

#[test]
fn a_bad_member_of_a_front_priced_batch_fails_alone() {
    // One slave: each request is one frame, priced on rank 0.
    assert!(bad_members_fail_alone(1).is_empty());
}

#[test]
fn a_bad_member_of_a_slave_priced_batch_fails_alone() {
    // Two slaves: each request is two frames. The refused member shares
    // the first with three vanillas, the barrier one the second.
    assert_eq!(bad_members_fail_alone(2).len(), 4);
}

// ---------------------------------------------------------------------------
// API edges
// ---------------------------------------------------------------------------

#[test]
fn empty_and_out_of_range_requests_are_rejected_up_front() {
    let session = Session::start(quick_config(1).inflight_bytes(4096)).unwrap();
    assert!(matches!(
        session.submit(Request::new(Vec::new())),
        Err(ServeError::EmptyRequest)
    ));
    assert!(matches!(
        session.submit(Request::new(toy_problems(1)).priority(9)),
        Err(ServeError::InvalidPriority {
            priority: 9,
            classes: 3
        })
    ));
    // More bytes than the whole budget: no retry could ever admit it.
    let problems = toy_problems(10);
    let bytes = problems.iter().map(|p| p.to_xdr_bytes().len()).sum();
    assert!(matches!(
        session.submit(Request::new(problems)),
        Err(ServeError::TooLarge { bytes: b, byte_budget: 4096 }) if b == bytes
    ));
    let report = session.shutdown().unwrap();
    assert_eq!((report.shed, report.answered), (0, 0), "refused, not shed");
}

#[test]
fn a_request_is_admitted_at_exactly_its_serialized_size() {
    let problems = toy_problems(16);
    let bytes: usize = problems.iter().map(|p| p.to_xdr_bytes().len()).sum();
    // Exactly the whole budget: admitted and answered.
    let session = Session::start(quick_config(1).inflight_bytes(bytes)).unwrap();
    let ticket = session.submit(Request::new(problems.clone())).unwrap();
    assert!(ticket.wait().unwrap().all_priced());
    assert_eq!(session.shutdown().unwrap().answered, 1);
    // One byte less, and the same request can never be admitted.
    let session = Session::start(quick_config(1).inflight_bytes(bytes - 1)).unwrap();
    match session.submit(Request::new(problems)) {
        Err(ServeError::TooLarge {
            bytes: b,
            byte_budget,
        }) => assert_eq!((b, byte_budget), (bytes, bytes - 1)),
        other => panic!("expected too large, got {other:?}"),
    }
    let report = session.shutdown().unwrap();
    assert_eq!((report.shed, report.answered), (0, 0));
}

#[test]
fn invalid_config_collects_every_bad_field() {
    let Err(err) = Session::start(ServeConfig::new(0).queue_depth(0).inflight_bytes(0)) else {
        panic!("invalid config must be rejected");
    };
    match err {
        ServeError::Config(issues) => {
            for field in ["slaves", "queue_depth", "inflight_bytes"] {
                assert!(issues.has(field), "missing {field}: {issues}");
            }
        }
        other => panic!("expected Config error, got {other}"),
    }
}
