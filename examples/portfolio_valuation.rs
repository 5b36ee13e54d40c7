//! The §4.3 scenario: overnight valuation of a realistic bank portfolio.
//!
//! Builds the paper's 7 931-claim portfolio composition (scaled down with
//! a stride so the example finishes in about a minute on a laptop), saves
//! it as a directory of XDR problem files, prices it with the live
//! threaded Robin-Hood farm at several worker counts, and prints the
//! Table-III-style time/speedup rows plus a per-class breakdown.
//!
//! Run with: `cargo run --example portfolio_valuation --release`

use riskbench::clustersim::speedup_ratio;
use riskbench::prelude::*;
use std::collections::HashMap;

fn main() {
    let stride = 100; // ~80 claims, class proportions preserved
    let jobs = realistic_portfolio(PortfolioScale::Quick, stride);
    println!(
        "realistic portfolio: {} claims (stride {} of the full 7931)",
        jobs.len(),
        stride
    );
    let mut by_class: HashMap<JobClass, usize> = HashMap::new();
    for j in &jobs {
        *by_class.entry(j.class).or_default() += 1;
    }
    for class in JobClass::ALL {
        println!(
            "  {:?}: {}",
            class,
            by_class.get(&class).copied().unwrap_or(0)
        );
    }

    let dir = std::env::temp_dir().join("riskbench_portfolio_valuation");
    let _ = std::fs::remove_dir_all(&dir);
    let files = save_portfolio(&jobs, &dir).unwrap();
    println!("saved {} problem files to {}", files.len(), dir.display());

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!("\nlive Robin-Hood farm (serialized load), this machine ({cores} cores):");
    println!("{:>8} {:>12} {:>14}", "CPUs", "Time (s)", "Speedup ratio");
    let mut t2 = None;
    let mut last_report = None;
    for slaves in [1usize, 2, 4, 8] {
        if slaves > cores {
            break;
        }
        let report = run(
            &files,
            &FarmConfig::new(slaves, Transmission::SerializedLoad),
        )
        .unwrap();
        let t = report.elapsed.as_secs_f64();
        let t2v = *t2.get_or_insert(t);
        println!(
            "{:>8} {:>12.3} {:>14.4}",
            slaves + 1,
            t,
            speedup_ratio(t2v, slaves + 1, t)
        );
        last_report = Some(report);
    }

    // Portfolio value = sum of position prices (unit notional each).
    if let Some(report) = last_report {
        let total: f64 = report.outcomes.iter().map(|o| o.price).sum();
        println!(
            "\nportfolio value (sum of {} claim prices): {total:.2}",
            report.completed()
        );
    }

    // §5's first extension on the same workload. The sweep above
    // already "sends them all together" (job frames); a supervised run
    // sends frames of one job, for comparison. Its second, sub-masters,
    // is priced on the simulator (`ablation`).
    println!("\n§5 extensions:");
    let supervised = run(
        &files,
        &FarmConfig::new(4, Transmission::SerializedLoad).supervised(true),
    )
    .unwrap();
    println!(
        "  frames of one (supervised, 4 slaves): {:?}",
        supervised.elapsed
    );
    std::fs::remove_dir_all(&dir).ok();
}
