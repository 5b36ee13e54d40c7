//! Regenerate **Table II** — the toy portfolio of 10 000 closed-form
//! vanillas, comparing the three transmission strategies (full load, NFS,
//! serialized load) over 2..50 CPUs.
//!
//! This is the communication-dominated workload: a single price is
//! "very fast and the time spent in communication is easily highlighted"
//! (§4.2). The NFS sweep shares the server block cache across CPU counts,
//! reproducing the caching bias the paper calls out.

use bench::breakdown::run_breakdown;
use bench::{parse_args, render_three_strategy, Mode, Table, PAPER_TABLE2};
use clustersim::{table2_rows, table2_sim_jobs, SimConfig, TABLE2_CPUS};

fn main() {
    match parse_args(Table::II) {
        Mode::Table { .. } => {}
        // One cluster size instead of the full sweep, phase by phase.
        Mode::Breakdown(opts) => {
            return run_breakdown(
                "Table II breakdown — per-phase cost decomposition by strategy",
                &table2_sim_jobs(opts.jobs.unwrap_or(10_000)),
                &opts,
            )
        }
    }
    let cfg = SimConfig::default();
    let all = table2_rows(&TABLE2_CPUS, &cfg);
    println!(
        "{}",
        render_three_strategy(
            "Table II — toy portfolio (10 000 vanillas), time in seconds by strategy",
            &all,
            &PAPER_TABLE2,
        )
    );
    // Also print the per-strategy speedup ratios (the paper's companion
    // columns).
    for (strategy, rows) in &all {
        println!("\nSpeedup ratios, {strategy}:");
        println!("{:>6} {:>12} {:>12}", "CPUs", "Time", "Ratio");
        for r in rows {
            println!("{:>6} {:>12.4} {:>12.6}", r.cpus, r.time, r.ratio);
        }
    }
}
