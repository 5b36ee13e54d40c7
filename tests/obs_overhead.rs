//! Observability must be free: enabling a recorder on a run through the
//! unified [`farm::run`] entry point must not change any numerical
//! result — job for job, price bit for price bit.

use riskbench::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("it_obs_overhead_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = toy_portfolio(count);
    let files = save_portfolio(&jobs, &dir).unwrap();
    (files, dir)
}

/// Sorted `(job, price bits, std_error bits)` view of a report.
fn by_job(r: &FarmReport) -> Vec<(usize, u64, Option<u64>)> {
    r.by_job()
        .into_iter()
        .map(|(j, p, se)| (j, p.to_bits(), se.map(f64::to_bits)))
        .collect()
}

#[test]
fn recorder_on_changes_no_numbers() {
    let (files, dir) = setup(25, "rec_eq");
    let baseline = run(&files, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
    let rec = Arc::new(Recorder::new(3));
    let recorded = run(
        &files,
        &FarmConfig::new(2, Transmission::SerializedLoad).recorder(rec.clone()),
    )
    .unwrap();
    assert_eq!(by_job(&baseline), by_job(&recorded));
    // And the recorder actually saw the run.
    assert!(!rec.events().is_empty());
    assert_eq!(rec.dropped(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lanes_off_is_bit_identical_to_the_pre_lane_default() {
    // Every live rank prices with the sequential kernel: a farm run —
    // with or without a recorder — prices each job bit for bit like the
    // problem's own `compute()`, and records one compute span a job.
    let (files, dir) = setup(20, "lanes_off");
    let sequential: Vec<(usize, u64, Option<u64>)> = toy_portfolio(20)
        .iter()
        .enumerate()
        .map(|(j, job)| {
            let r = job.problem.compute().unwrap();
            (j, r.price.to_bits(), r.std_error.map(f64::to_bits))
        })
        .collect();
    let plain = run(&files, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
    assert_eq!(by_job(&plain), sequential);
    let rec = Arc::new(Recorder::new(3));
    let recorded = run(
        &files,
        &FarmConfig::new(2, Transmission::SerializedLoad).recorder(rec.clone()),
    )
    .unwrap();
    assert_eq!(by_job(&recorded), sequential);
    let computes = rec
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Compute)
        .count();
    assert_eq!(computes, 20, "a live compute is one Compute span a job");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn breakdown_from_recorded_farm_is_consistent() {
    let (files, dir) = setup(30, "breakdown");
    let rec = Arc::new(Recorder::new(4));
    // The clock around the whole call bounds every rank's spans: a
    // slave's first receive begins before the master's drive does, so
    // `report.elapsed` does not.
    let t0 = std::time::Instant::now();
    run(
        &files,
        &FarmConfig::new(3, Transmission::SerializedLoad).recorder(rec.clone()),
    )
    .unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let events = rec.events();
    let bd = Breakdown::from_events(&events);
    // Every phase-seconds figure is finite and non-negative; compute got
    // attributed once per job; total phase time fits in the cpu-seconds
    // budget of the run.
    assert!(bd.total_s().is_finite() && bd.total_s() >= 0.0);
    let compute_events = events
        .iter()
        .filter(|e| e.kind == EventKind::Compute)
        .count();
    assert_eq!(compute_events, 30);
    let budget = wall * 4.0;
    assert!(
        bd.total_s() <= budget * 1.5 + 1e-3,
        "phases {}s vs budget {budget}s",
        bd.total_s()
    );
    std::fs::remove_dir_all(&dir).ok();
}
