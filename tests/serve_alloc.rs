//! The all-miss path of a `serve::Session` allocates per request, never
//! per problem: a closed-loop request of never-seen closed-form problems
//! costs the same number of allocations at 64 problems as at 16, and few
//! of them. Counted, not timed.
//!
//! The front loop allocates on its own thread, so the counting allocator
//! is process-wide, and this binary holds this one test so that nothing
//! else allocates while it counts. What a request allocates: on the
//! submitting thread its prepared problem list, its one-shot reply and
//! the queued message; on the front loop its response's result list,
//! and nothing else: the batch's slots, coalescing index and job frames
//! are kept from batch to batch. The command queue adds one block per
//! 31 messages, amortized.

use riskbench::prelude::*;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// Most allocations an all-miss request may make, whatever its size.
/// It made 7.03 while each batch packed its job frames into new vectors
/// (the class table, the frame list and a member list per frame), and
/// makes 4.03 with them kept.
const CEILING: f64 = 5.0;

/// Requests per counted run.
const REQUESTS: usize = 310;

/// Never-seen closed-form vanillas: each call moves the strikes on.
struct Fresh(u32);

impl Fresh {
    fn request(&mut self, size: usize) -> Vec<PremiaProblem> {
        (0..size)
            .map(|_| {
                self.0 += 1;
                let mut p = PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap();
                p.option = OptionSpec::Call {
                    strike: 50.0 + f64::from(self.0) * 1e-3,
                    maturity: 1.0,
                };
                p
            })
            .collect()
    }
}

/// Submit `requests` requests of `size` fresh problems one at a time,
/// each answered before the next; the allocations and bytes per request
/// the process made meanwhile. The problems are built before counting.
fn closed_loop(session: &Session, fresh: &mut Fresh, size: usize, requests: usize) -> (f64, f64) {
    let batch: Vec<Vec<PremiaProblem>> = (0..requests).map(|_| fresh.request(size)).collect();
    let before = counting_alloc::now();
    for problems in batch {
        let response = session
            .submit(Request::new(problems))
            .unwrap()
            .wait()
            .unwrap();
        assert!(response.all_priced());
        assert_eq!(response.memoised_count(), 0, "every problem is a miss");
    }
    let made = (counting_alloc::now() - before).process;
    let per = |n: u64| n as f64 / requests as f64;
    (per(made.allocations), per(made.bytes))
}

#[test]
fn an_all_miss_request_allocates_per_request_not_per_problem() {
    // One slave: every closed-form batch is one frame, priced by the
    // front loop. The default 1 MiB memo.
    let session = Session::start(ServeConfig::new(1)).unwrap();
    let mut fresh = Fresh(0);
    // Warm-up: fill the memo until it evicts (~11 900 entries), and let
    // the kept batch state reach its size at 64 problems.
    closed_loop(&session, &mut fresh, 16, 800);
    closed_loop(&session, &mut fresh, 64, 50);
    let (small, small_bytes) = closed_loop(&session, &mut fresh, 16, REQUESTS);
    let (large, large_bytes) = closed_loop(&session, &mut fresh, 64, REQUESTS);
    let report = session.shutdown().unwrap();
    assert!(
        report.memo.evictions > 0,
        "the memo was full while counting"
    );
    assert_eq!((report.memo_hits, report.failed), (0, 0));
    let seen = format!(
        "{small:.2} allocations ({small_bytes:.0} B) a request at 16 problems, \
         {large:.2} ({large_bytes:.0} B) at 64"
    );
    // Only the command queue's amortized block may tell them apart.
    assert!(
        (large - small).abs() < 0.1,
        "allocations grow with the request: {seen}"
    );
    assert!(
        small <= CEILING && large <= CEILING,
        "above {CEILING}: {seen}"
    );
    println!("{seen}");
}
