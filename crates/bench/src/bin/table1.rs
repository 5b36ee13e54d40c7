//! Regenerate **Table I** — speedup of the Premia non-regression tests.
//!
//! Default mode replays the Robin-Hood protocol in the calibrated cluster
//! simulator over the paper's CPU counts (2..256). `--live` additionally
//! runs the real threaded farm on this machine's cores with the
//! Quick-scale regression suite, demonstrating genuine parallel speedup
//! end to end.

use bench::breakdown::run_breakdown;
use bench::{parse_args, render_comparison, Mode, Table, PAPER_TABLE1};
use clustersim::{table1_rows, table1_sim_jobs, SimConfig, TABLE1_CPUS};
use farm::portfolio::{regression_portfolio, save_portfolio, PortfolioScale};
use farm::{run, FarmConfig, Transmission};

fn main() {
    let live = match parse_args(Table::I) {
        Mode::Table { live } => live,
        // One cluster size of the regression workload, phase by phase.
        Mode::Breakdown(opts) => {
            return run_breakdown(
                "Table I breakdown — per-phase cost decomposition by strategy",
                &table1_sim_jobs(),
                &opts,
            )
        }
    };
    let cfg = SimConfig::default();
    let rows = table1_rows(&TABLE1_CPUS, &cfg);
    println!(
        "{}",
        render_comparison(
            "Table I — speedup of the non-regression tests (simulated cluster, sload)",
            &rows,
            &PAPER_TABLE1,
        )
    );

    if live {
        println!("\nLive threaded run (Quick-scale suite, this machine):");
        let dir = std::env::temp_dir().join("riskbench_table1_live");
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = regression_portfolio(PortfolioScale::Quick);
        let files = save_portfolio(&jobs, &dir).expect("save portfolio");
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        println!("{:>8} {:>12} {:>14}", "CPUs", "Time (s)", "Speedup ratio");
        let mut t2 = None;
        for slaves in [1usize, 2, 3, 4, 6, 8]
            .iter()
            .filter(|&&s| s < cores.max(2))
        {
            let report = run(
                &files,
                &FarmConfig::new(*slaves, Transmission::SerializedLoad),
            )
            .expect("farm run");
            let t = report.elapsed.as_secs_f64();
            let t2v = *t2.get_or_insert(t);
            println!(
                "{:>8} {:>12.4} {:>14.6}",
                slaves + 1,
                t,
                clustersim::speedup_ratio(t2v, slaves + 1, t)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
