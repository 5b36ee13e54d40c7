//! A farm job allocates its message once: on a warmed link the job
//! frame's buffer and the reply's pass back and forth between master
//! and slave, moved by every send and handed out by every receive, so
//! no message buffer is allocated or copied per job. Counted, not
//! timed.
//!
//! Every rank allocates on its own thread, so the counting allocator is
//! process-wide, and this binary holds this one test so that nothing
//! else allocates while it counts. A run's cost per job is its marginal
//! cost from 1 000 to 3 000 toy jobs on 2 slaves, after one warm-up run:
//! what every run pays once (the world's threads, the report's vectors
//! growing) cancels out.

use riskbench::prelude::*;
use std::path::PathBuf;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// The jobs of the small and the large counted run.
const SMALL: usize = 1_000;
const LARGE: usize = 3_000;

/// Most allocations a supervised serialized-load job may make. Each
/// supervised job is one frame and one reply; with a copy per send it
/// cost 9.
const SUPERVISED_CEILING: f64 = 7.0;

/// Most bytes a plain serialized-load job may allocate: less, by one
/// 436-byte toy problem file, than the 722 it cost when every send
/// copied its message.
const PLAIN_BYTES_CEILING: f64 = 722.0 - 436.0;

/// The allocations and bytes the process made while `cfg` priced
/// `files`, checking every job was priced.
fn counted(files: &[PathBuf], cfg: &FarmConfig) -> (u64, u64) {
    let before = counting_alloc::now();
    let report = run(files, cfg).expect("the farm prices the portfolio");
    let made = (counting_alloc::now() - before).process;
    assert_eq!(report.completed(), files.len());
    (made.allocations, made.bytes)
}

/// Allocations and bytes per job of `cfg`, marginal from [`SMALL`] to
/// [`LARGE`] jobs after one warm-up run.
fn per_job(files: &[PathBuf], cfg: &FarmConfig) -> (f64, f64) {
    counted(&files[..SMALL], cfg);
    let (small, small_bytes) = counted(&files[..SMALL], cfg);
    let (large, large_bytes) = counted(&files[..LARGE], cfg);
    let per = |large: u64, small: u64| (large as f64 - small as f64) / (LARGE - SMALL) as f64;
    (per(large, small), per(large_bytes, small_bytes))
}

#[test]
fn a_farm_job_allocates_no_message_buffer() {
    let dir = std::env::temp_dir().join("riskbench_farm_alloc");
    let _ = std::fs::remove_dir_all(&dir);
    let files = save_portfolio(&toy_portfolio(LARGE), &dir).unwrap();
    let mut seen = Vec::new();
    for strategy in Transmission::ALL {
        for supervised in [false, true] {
            let cfg = FarmConfig::new(2, strategy).supervised(supervised);
            let (allocs, bytes) = per_job(&files, &cfg);
            seen.push((strategy, supervised, allocs, bytes));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let sload = |sup: bool| {
        let found = seen
            .iter()
            .find(|s| s.0 == Transmission::SerializedLoad && s.1 == sup);
        *found.expect("serialized load is measured")
    };
    let (supervised, plain_bytes) = (sload(true).2, sload(false).3);
    let seen = (seen.iter())
        .map(|(s, sup, a, b)| format!("{s} supervised={sup}: {a:.2} allocations ({b:.0} B) a job"))
        .collect::<Vec<_>>()
        .join("\n");
    println!("{seen}");
    assert!(
        supervised <= SUPERVISED_CEILING,
        "a supervised job allocates above {SUPERVISED_CEILING} times:\n{seen}"
    );
    assert!(
        plain_bytes <= PLAIN_BYTES_CEILING,
        "a plain job allocates above {PLAIN_BYTES_CEILING} bytes:\n{seen}"
    );
}
