//! Regenerate **Table III** — the realistic 7 931-claim portfolio under
//! all three transmission strategies, 2..512 CPUs.
//!
//! The compute-dominated workload: "the computation times needed to price
//! the whole portfolio are fairly the same no matter how the objects are
//! sent" and "with 256 nodes, the speedup ratio is still better than 0.8"
//! (§4.3).

use bench::breakdown::run_breakdown;
use bench::{parse_args, render_three_strategy, Mode, Table, PAPER_TABLE3};
use clustersim::{table3_rows, table3_sim_jobs, SimConfig, TABLE3_CPUS};

fn main() {
    match parse_args(Table::III) {
        Mode::Table { .. } => {}
        // One cluster size instead of the full sweep, phase by phase.
        Mode::Breakdown(opts) => {
            return run_breakdown(
                "Table III breakdown — per-phase cost decomposition by strategy",
                &table3_sim_jobs(),
                &opts,
            )
        }
    }
    let cfg = SimConfig::default();
    let all = table3_rows(&TABLE3_CPUS, &cfg);
    println!(
        "{}",
        render_three_strategy(
            "Table III — realistic portfolio (7 931 claims), time in seconds by strategy",
            &all,
            &PAPER_TABLE3,
        )
    );
    for (strategy, rows) in &all {
        println!("\nSpeedup ratios, {strategy}:");
        println!("{:>6} {:>12} {:>12}", "CPUs", "Time", "Ratio");
        for r in rows {
            println!("{:>6} {:>12.4} {:>12.6}", r.cpus, r.time, r.ratio);
        }
    }
}
