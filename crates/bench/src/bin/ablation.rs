//! Ablations for the design choices DESIGN.md calls out, covering the
//! paper's §5 "future work" items:
//!
//! 1. **batching** — "gather several pricing problems and send them all
//!    together": Table III workload at large CPU counts with batch sizes
//!    1/4/16/64;
//! 2. **hierarchy** — sub-masters: same workload with 1..16 groups;
//! 3. **compressed serialization** (§3.2's deferred experiment) — message
//!    sizes and strategy times with LZSS-compressed problem payloads.

use clustersim::{
    simulate, DispatchPolicy, SchedConfig, SimCaches, SimConfig, SimJob, SimSpec, Topology,
};
use farm::portfolio::{realistic_portfolio, toy_portfolio, PortfolioScale};
use farm::{JobClass, Transmission};
use numerics::rng::SplitMix64;

/// Build Table-III-like sim jobs (same normalisation as `table3_rows`).
fn table3_jobs() -> Vec<SimJob> {
    let jobs = realistic_portfolio(PortfolioScale::Quick, 1);
    let mut rng = SplitMix64::new(0xAB1A7E);
    let mut sim: Vec<SimJob> = jobs
        .iter()
        .map(|j| {
            let (lo, hi) = j.class.paper_cost_seconds();
            SimJob {
                id: j.id,
                class: j.class,
                bytes: xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
                compute: rng.uniform(lo, hi),
            }
        })
        .collect();
    let sum: f64 = sim.iter().map(|j| j.compute).sum();
    let scale = 5776.33 / sum;
    for j in sim.iter_mut() {
        j.compute *= scale;
    }
    sim
}

/// Makespan of one cold run of the flat farm `farm::run` drives.
fn makespan(jobs: &[SimJob], slaves: usize, strategy: Transmission, cfg: &SimConfig) -> f64 {
    let sched = SchedConfig::farm(jobs.len(), slaves, DispatchPolicy::Fifo, None, None);
    let spec = SimSpec {
        jobs,
        strategy,
        cfg,
        recorder: None,
        plan: None,
        topology: Topology::Flat(sched),
    };
    let out = simulate(&spec, &mut SimCaches::new()).expect("at least one slave");
    out.makespan
}

/// Simulate batching by dividing the per-job master/communication
/// overhead across the batch (one message carries `batch` problems).
fn simulate_batched(jobs: &[SimJob], slaves: usize, batch: usize, cfg: &SimConfig) -> f64 {
    // Merge consecutive jobs into super-jobs with summed compute and
    // payload but a single message overhead.
    let merged: Vec<SimJob> = jobs
        .chunks(batch)
        .enumerate()
        .map(|(i, chunk)| SimJob {
            id: i,
            class: chunk[0].class,
            bytes: chunk.iter().map(|j| j.bytes).sum(),
            compute: chunk.iter().map(|j| j.compute).sum(),
        })
        .collect();
    makespan(&merged, slaves, Transmission::SerializedLoad, cfg)
}

fn batching_ablation(cfg: &SimConfig) {
    println!("Ablation 1 — job batching (§5), Table III workload, serialized load");
    println!(
        "{:>6} | {:>11} {:>11} {:>11} {:>11}",
        "CPUs", "batch=1", "batch=4", "batch=16", "batch=64"
    );
    let jobs = table3_jobs();
    for cpus in [64usize, 128, 256, 512, 1024] {
        let times: Vec<f64> = [1usize, 4, 16, 64]
            .iter()
            .map(|&b| simulate_batched(&jobs, cpus - 1, b, cfg))
            .collect();
        println!(
            "{:>6} | {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
            cpus, times[0], times[1], times[2], times[3]
        );
    }
    println!();
}

/// Communication-bound batching ablation on the Table II toy portfolio,
/// where the §5 prediction ("send a single large message rather \[than\]
/// several smaller messages") actually bites.
fn batching_toy_ablation(cfg: &SimConfig) {
    println!("Ablation 1b — batching on the toy portfolio (communication-bound)");
    println!(
        "{:>6} | {:>11} {:>11} {:>11} {:>11}",
        "CPUs", "batch=1", "batch=8", "batch=32", "batch=128"
    );
    let toy = toy_portfolio(10_000);
    let mut rng = SplitMix64::new(0xAB1A7F);
    let jobs: Vec<SimJob> = toy
        .iter()
        .map(|j| SimJob {
            id: j.id,
            class: JobClass::VanillaClosedForm,
            bytes: xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: 0.55e-3 * rng.uniform(0.7, 1.3),
        })
        .collect();
    for cpus in [8usize, 16, 32, 50] {
        let times: Vec<f64> = [1usize, 8, 32, 128]
            .iter()
            .map(|&b| simulate_batched(&jobs, cpus - 1, b, cfg))
            .collect();
        println!(
            "{:>6} | {:>11.4} {:>11.4} {:>11.4} {:>11.4}",
            cpus, times[0], times[1], times[2], times[3]
        );
    }
    println!();
}

/// Hierarchical masters: model `g` sub-masters by splitting the job list
/// into `g` chunks farmed independently (each with its own master
/// resource) and taking the slowest group.
fn hierarchy_ablation(cfg: &SimConfig) {
    println!("Ablation 2 — sub-master hierarchy (§5), toy portfolio, full load");
    println!(
        "{:>6} | {:>11} {:>11} {:>11} {:>11}",
        "CPUs", "groups=1", "groups=2", "groups=4", "groups=8"
    );
    let toy = toy_portfolio(10_000);
    let mut rng = SplitMix64::new(0xAB1A80);
    let jobs: Vec<SimJob> = toy
        .iter()
        .map(|j| SimJob {
            id: j.id,
            class: JobClass::VanillaClosedForm,
            bytes: xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: 0.55e-3 * rng.uniform(0.7, 1.3),
        })
        .collect();
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
                let t = makespan(&jobs[lo..hi], per_group.max(1), Transmission::FullLoad, cfg);
                worst = worst.max(t);
            }
            line.push_str(&format!(" {worst:>11.4}"));
        }
        println!("{line}");
    }
    println!();
}

fn compression_ablation(cfg: &SimConfig) {
    println!("Ablation 3 — compressed serialization (§3.2, deferred in the paper)");
    // Measure the real compression ratio of our problem files.
    let jobs = realistic_portfolio(PortfolioScale::Quick, 500);
    let mut plain_total = 0usize;
    let mut comp_total = 0usize;
    for j in &jobs {
        let s = xdrser::serialize(&j.problem.to_value());
        let c = xdrser::compress_serial(&s).expect("compress");
        plain_total += s.len();
        comp_total += c.len();
    }
    let ratio = comp_total as f64 / plain_total as f64;
    println!(
        "problem-file compression: {} -> {} bytes over {} files (ratio {:.2})",
        plain_total,
        comp_total,
        jobs.len(),
        ratio
    );
    // Replay Table II serialized-load with compressed payload sizes: the
    // master pays a (generous) compression CPU cost, the wire carries
    // fewer bytes.
    let toy = toy_portfolio(10_000);
    let mut rng = SplitMix64::new(0xAB1A81);
    let build = |shrink: f64| -> Vec<SimJob> {
        let mut r2 = SplitMix64::new(0xAB1A82);
        toy.iter()
            .map(|j| SimJob {
                id: j.id,
                class: JobClass::VanillaClosedForm,
                bytes: (xdrser::serialize_to_bytes(&j.problem.to_value()).len() as f64 * shrink)
                    as usize,
                compute: 0.55e-3 * r2.uniform(0.7, 1.3),
            })
            .collect()
    };
    let _ = &mut rng;
    let plain_jobs = build(1.0);
    let comp_jobs = build(ratio);
    println!(
        "{:>6} | {:>14} {:>17}",
        "CPUs", "plain sload", "compressed sload"
    );
    for cpus in [8usize, 16, 32, 50] {
        let tp = makespan(&plain_jobs, cpus - 1, Transmission::SerializedLoad, cfg);
        let tc = makespan(&comp_jobs, cpus - 1, Transmission::SerializedLoad, cfg);
        println!("{cpus:>6} | {tp:>14.4} {tc:>17.4}");
    }
    println!(
        "\n(As the paper anticipates, compression matters only when problems embed\nlarge data files; plain benchmark problems are too small for wire savings\nto offset anything.)"
    );
}

fn main() {
    let cfg = SimConfig::default();
    batching_ablation(&cfg);
    batching_toy_ablation(&cfg);
    hierarchy_ablation(&cfg);
    compression_ablation(&cfg);
}
