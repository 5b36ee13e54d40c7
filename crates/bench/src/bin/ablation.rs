//! Ablations for the design choices DESIGN.md calls out, covering the
//! paper's §5 "future work" items, each priced by the simulator's own
//! job builders, framing and cost model:
//!
//! 1. **batching** — "gather several pricing problems and send them all
//!    together": Fig. 4's one job a message ([`SchedConfig::plain`])
//!    against the guided job frames `farm::run` ships
//!    ([`SchedConfig::farm`]), on the Table III and Table II workloads;
//! 2. **hierarchy** — sub-masters: the Table II workload over 1..8 groups;
//! 3. **compressed serialization** (§3.2's deferred experiment) — the
//!    measured compression ratio of the problem files, and framed runs
//!    with the model's compressed wire on.

use clustersim::{
    simulate, table2_sim_jobs, table3_sim_jobs, DispatchPolicy, SchedConfig, SimCaches, SimConfig,
    SimJob, SimSpec,
};
use farm::portfolio::{realistic_portfolio, PortfolioScale};
use farm::Transmission;

/// The guided frames `farm::run` ships for a plain FIFO run.
fn frames(jobs: &[SimJob], slaves: usize) -> SchedConfig {
    SchedConfig::farm(jobs.len(), slaves, DispatchPolicy::Fifo, None, None)
}

/// Makespan of one cold run of `jobs` under `sched`.
fn makespan(jobs: &[SimJob], strategy: Transmission, cfg: &SimConfig, sched: SchedConfig) -> f64 {
    let spec = SimSpec {
        jobs,
        strategy,
        cfg,
        recorder: None,
        plan: None,
        sched,
    };
    let out = simulate(&spec, &mut SimCaches::new()).expect("at least one slave");
    out.makespan
}

/// Serialized load, one job a message against frames, per CPU count.
fn batching_ablation(title: &str, jobs: &[SimJob], cpus: &[usize], cfg: &SimConfig) {
    println!("{title}");
    println!(
        "{:>6} | {:>11} {:>11} {:>8}",
        "CPUs", "per job", "frames", "gain"
    );
    let sload = |sched| makespan(jobs, Transmission::SerializedLoad, cfg, sched);
    for &n in cpus {
        let per_job = sload(SchedConfig::plain(jobs.len(), n - 1));
        let framed = sload(frames(jobs, n - 1));
        println!(
            "{n:>6} | {per_job:>11.4} {framed:>11.4} {:>7.2}x",
            per_job / framed
        );
    }
    println!();
}

/// Hierarchical masters: model `g` sub-masters by splitting the job list
/// into `g` chunks farmed independently (each with its own master
/// resource) and taking the slowest group.
fn hierarchy_ablation(jobs: &[SimJob], cfg: &SimConfig) {
    println!("Ablation 2 — sub-master hierarchy (§5), toy portfolio, full load");
    println!(
        "{:>6} | {:>11} {:>11} {:>11} {:>11}",
        "CPUs", "groups=1", "groups=2", "groups=4", "groups=8"
    );
    for cpus in [16usize, 32, 64, 128] {
        let mut line = format!("{cpus:>6} |");
        for groups in [1usize, 2, 4, 8] {
            let slaves_total = cpus - 1 - (groups - 1); // sub-masters cost ranks
            if slaves_total < groups {
                line.push_str(&format!(" {:>11}", "-"));
                continue;
            }
            let per_group = slaves_total / groups;
            let chunk = jobs.len() / groups;
            let mut worst: f64 = 0.0;
            for g in 0..groups {
                let lo = g * chunk;
                let hi = if g + 1 == groups {
                    jobs.len()
                } else {
                    lo + chunk
                };
                let group = &jobs[lo..hi];
                let sched = frames(group, per_group.max(1));
                worst = worst.max(makespan(group, Transmission::FullLoad, cfg, sched));
            }
            line.push_str(&format!(" {worst:>11.4}"));
        }
        println!("{line}");
    }
    println!();
}

fn compression_ablation(jobs: &[SimJob], cfg: &SimConfig) {
    println!("Ablation 3 — compressed serialization (§3.2, deferred in the paper)");
    // Measure the real compression ratio of our problem files.
    let files = realistic_portfolio(PortfolioScale::Quick, 500);
    let mut plain_total = 0usize;
    let mut comp_total = 0usize;
    for j in &files {
        let s = xdrser::serialize(&j.problem.to_value());
        let c = xdrser::compress_serial(&s).expect("compress");
        plain_total += s.len();
        comp_total += c.len();
    }
    println!(
        "problem-file compression: {} -> {} bytes over {} files (ratio {:.2})",
        plain_total,
        comp_total,
        files.len(),
        comp_total as f64 / plain_total as f64
    );
    // Table II serialized load on frames, with the model's compressed
    // wire: the master pays the codec CPU, the wire carries fewer bytes.
    let mut compressed = *cfg;
    compressed.store.compress = true;
    println!(
        "{:>6} | {:>14} {:>17}",
        "CPUs", "plain sload", "compressed sload"
    );
    for cpus in [8usize, 16, 32, 50] {
        let sload = |cfg| {
            makespan(
                jobs,
                Transmission::SerializedLoad,
                cfg,
                frames(jobs, cpus - 1),
            )
        };
        let (tp, tc) = (sload(cfg), sload(&compressed));
        println!("{cpus:>6} | {tp:>14.4} {tc:>17.4}");
    }
    println!(
        "\n(As the paper anticipates, compression matters only when problems embed\nlarge data files; plain benchmark problems are too small for wire savings\nto offset anything.)"
    );
}

fn main() {
    let cfg = SimConfig::default();
    let table2 = table2_sim_jobs(10_000);
    batching_ablation(
        "Ablation 1 — job batching (§5), Table III workload, serialized load",
        &table3_sim_jobs(),
        &[64, 128, 256, 512, 1024],
        &cfg,
    );
    batching_ablation(
        "Ablation 1b — batching on the toy portfolio (communication-bound)",
        &table2,
        &[8, 16, 32, 50],
        &cfg,
    );
    hierarchy_ablation(&table2, &cfg);
    compression_ablation(&table2, &cfg);
}
