//! Table generators: the harnesses that regenerate Tables I, II and III.
//!
//! Each generator builds the paper's workload, attaches per-job compute
//! costs (heterogeneous within each §4.3 class, deterministic given the
//! job id), normalises the serial total to the paper's measured
//! 2-CPU time, and sweeps the paper's CPU counts through the replay
//! simulator.

use crate::params::SimConfig;
use crate::sim::{simulate, NfsCache, SimCaches, SimJob, SimSpec};
use farm::portfolio::{
    realistic_portfolio, regression_portfolio, toy_portfolio, PortfolioJob, PortfolioScale,
};
use farm::strategy::Transmission;
use farm::JobClass;
use numerics::rng::SplitMix64;

/// One row of a speedup table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableRow {
    /// "number of CPUs" — master + slaves, as the paper counts.
    pub cpus: usize,
    /// Wall-clock seconds.
    pub time: f64,
    /// Speedup ratio, `T(2) / ((n-1)·T(n))` (verified against the paper's
    /// printed columns).
    pub ratio: f64,
}

/// The paper's speedup-ratio definition: the 2-CPU run (one slave) is the
/// serial baseline.
pub fn speedup_ratio(t2: f64, cpus: usize, tn: f64) -> f64 {
    assert!(cpus >= 2);
    t2 / ((cpus - 1) as f64 * tn)
}

/// Per-class cost ranges for Table I's regression suite. The absolute
/// scale is then normalised to the paper's T(2); the *relative* weights
/// follow the method families (closed form ≈ free, trees/PDE medium,
/// LSM the longest — which caps the asymptotic makespan just as the
/// paper's Table I flattens near its longest test).
fn table1_class_range(class: JobClass) -> (f64, f64) {
    match class {
        JobClass::VanillaClosedForm => (0.002, 0.01),
        JobClass::BarrierPde => (3.0, 9.0),
        JobClass::BasketMc => (8.0, 16.0),
        JobClass::LocalVolMc => (5.0, 12.0),
        JobClass::AmericanPde => (10.0, 20.0),
        JobClass::AmericanBasketLsm => (25.0, 40.0),
        // Extension classes (absent from the paper's regression suite,
        // present in mixed workloads): keep the paper's relative
        // ordering — Bermudan max-call heaviest, one BSDE Picard round
        // above any European MC grain, XVA aggregation mid-weight.
        JobClass::BermudanMaxLsm => (30.0, 50.0),
        JobClass::BsdePicardMc => (18.0, 30.0),
        JobClass::XvaCvaMc => (5.0, 12.0),
    }
}

/// Build `SimJob`s from portfolio jobs: deterministic per-job cost drawn
/// uniformly from the class range, wire size from the real XDR encoding,
/// total serial cost normalised to `serial_total` seconds.
fn build_sim_jobs(
    jobs: &[PortfolioJob],
    range: fn(JobClass) -> (f64, f64),
    serial_total: f64,
    seed: u64,
) -> Vec<SimJob> {
    let mut rng = SplitMix64::new(seed);
    let mut sim: Vec<SimJob> = jobs
        .iter()
        .map(|j| {
            let (lo, hi) = range(j.class);
            SimJob {
                id: j.id,
                class: j.class,
                bytes: xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
                compute: rng.uniform(lo, hi),
            }
        })
        .collect();
    let sum: f64 = sim.iter().map(|j| j.compute).sum();
    let scale = serial_total / sum;
    for j in sim.iter_mut() {
        j.compute *= scale;
    }
    sim
}

/// The paper's Table I CPU counts.
pub const TABLE1_CPUS: [usize; 14] = [2, 4, 6, 8, 10, 16, 32, 64, 96, 128, 160, 192, 224, 256];
/// The paper's Table II CPU counts.
pub const TABLE2_CPUS: [usize; 16] = [2, 4, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40, 45, 50];
/// The paper's Table III CPU counts.
pub const TABLE3_CPUS: [usize; 17] = [
    2, 4, 6, 8, 10, 16, 32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 512,
];

/// Paper-measured 2-CPU totals used for normalisation.
pub const TABLE1_T2: f64 = 838.004;
/// Paper-measured Table III 2-CPU time (seconds).
pub const TABLE3_T2: f64 = 5776.33;
/// §4.2's per-vanilla compute cost implied by the serialized-load 2-CPU
/// point (7.18 s / 10 000 options ≈ 0.55 ms once master costs are
/// subtracted).
pub const TABLE2_VANILLA_COST: f64 = 0.55e-3;

/// The Table I workload as simulator jobs: the regression portfolio
/// replicated twice, per-class costs normalised to the paper's T(2).
pub fn table1_sim_jobs() -> Vec<SimJob> {
    // The paper runs "several sets of these tests … with different
    // parameters"; our regression portfolio (69 problems) is replicated
    // to the same order of magnitude of jobs.
    let base = regression_portfolio(PortfolioScale::Quick);
    let mut jobs = Vec::with_capacity(base.len() * 2);
    for rep in 0..2 {
        for j in &base {
            let mut job = j.clone();
            job.id = rep * base.len() + j.id;
            jobs.push(job);
        }
    }
    build_sim_jobs(&jobs, table1_class_range, TABLE1_T2, 0x7AB1E1)
}

/// Table I: speedup of the Premia non-regression tests, `sload`
/// transmission ("the pricing problems are sent using the sload method").
pub fn table1_rows(cpus: &[usize], cfg: &SimConfig) -> Vec<TableRow> {
    let sim_jobs = table1_sim_jobs();
    sweep(&sim_jobs, cpus, Transmission::SerializedLoad, cfg, false)
}

/// The Table II workload as simulator jobs: `count` closed-form
/// vanillas with ±30 % jitter around the implied per-vanilla cost.
pub fn table2_sim_jobs(count: usize) -> Vec<SimJob> {
    let jobs = toy_portfolio(count);
    let mut rng = SplitMix64::new(0x7AB1E2);
    jobs.iter()
        .map(|j| SimJob {
            id: j.id,
            class: j.class,
            bytes: xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            // ±30 % jitter around the implied per-vanilla cost.
            compute: TABLE2_VANILLA_COST * rng.uniform(0.7, 1.3),
        })
        .collect()
}

/// Table II: the 10 000-vanilla toy portfolio under all three
/// transmission strategies. Returns rows per strategy in
/// [`Transmission::ALL`] order. The NFS sweep shares a server cache
/// across CPU counts, reproducing the §4.2 caching bias the paper calls
/// out ("the comparison with the NFS file system may be highly biased").
pub fn table2_rows(cpus: &[usize], cfg: &SimConfig) -> Vec<(Transmission, Vec<TableRow>)> {
    per_strategy(&table2_sim_jobs(10_000), cpus, cfg)
}

/// The Table III workload as simulator jobs: the realistic portfolio,
/// per-class costs drawn from the §4.3 narrative ranges
/// ([`JobClass::paper_cost_seconds`]: vanilla instantaneous, European
/// MC/PDE medium, American heaviest) and normalised to the paper's T(2).
pub fn table3_sim_jobs() -> Vec<SimJob> {
    let jobs = realistic_portfolio(PortfolioScale::Quick, 1);
    build_sim_jobs(&jobs, |c| c.paper_cost_seconds(), TABLE3_T2, 0x7AB1E3)
}

/// Table III: the 7 931-claim realistic portfolio under all three
/// strategies, up to 512 CPUs.
pub fn table3_rows(cpus: &[usize], cfg: &SimConfig) -> Vec<(Transmission, Vec<TableRow>)> {
    per_strategy(&table3_sim_jobs(), cpus, cfg)
}

/// [`sweep`] each strategy in [`Transmission::ALL`] order, the NFS one
/// through one server cache across CPU counts.
fn per_strategy(
    jobs: &[SimJob],
    cpus: &[usize],
    cfg: &SimConfig,
) -> Vec<(Transmission, Vec<TableRow>)> {
    let rows = |s| (s, sweep(jobs, cpus, s, cfg, s == Transmission::Nfs));
    Transmission::ALL.iter().map(|&s| rows(s)).collect()
}

/// Sweep CPU counts; `shared_cache` keeps the NFS block cache warm across
/// sweep points (the paper's runs did exactly that on the real cluster).
fn sweep(
    jobs: &[SimJob],
    cpus: &[usize],
    strategy: Transmission,
    cfg: &SimConfig,
    shared_cache: bool,
) -> Vec<TableRow> {
    let mut cache = NfsCache::new();
    let mut rows = Vec::with_capacity(cpus.len());
    let mut t2 = None;
    for &n in cpus {
        assert!(n >= 2, "tables start at 2 CPUs");
        if !shared_cache {
            cache = NfsCache::new();
        }
        let mut caches = SimCaches {
            nfs: cache,
            ..SimCaches::new()
        };
        // The paper's tables time Fig. 4's protocol, one job a message
        // (frames are its §5 outlook, and what `farm::run` ships now).
        let spec = SimSpec {
            jobs,
            strategy,
            cfg,
            recorder: None,
            plan: None,
            sched: sched::SchedConfig::plain(jobs.len(), n - 1),
        };
        let out = simulate(&spec, &mut caches).expect("tables start at 2 CPUs");
        cache = caches.nfs;
        let t2v = *t2.get_or_insert(out.makespan);
        rows.push(TableRow {
            cpus: n,
            time: out.makespan,
            ratio: speedup_ratio(t2v, n, out.makespan),
        });
    }
    rows
}

/// Render rows in the paper's two-column format.
pub fn format_table(title: &str, rows: &[TableRow]) -> String {
    let mut s = format!(
        "{title}\n{:>8} {:>12} {:>14}\n",
        "CPUs", "Time", "Speedup ratio"
    );
    for r in rows {
        s.push_str(&format!(
            "{:>8} {:>12.4} {:>14.6}\n",
            r.cpus, r.time, r.ratio
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn ratio_definition_matches_paper_numbers() {
        // Table I row: n=4, T=285.356, ratio 0.9789.
        let r = speedup_ratio(838.004, 4, 285.356);
        assert!((r - 0.9789).abs() < 1e-3, "ratio {r}");
        // Table III serialized: n=4, T=1925.29, ratio 1.00008.
        let r = speedup_ratio(5776.33, 4, 1925.29);
        assert!((r - 1.00008).abs() < 1e-4, "ratio {r}");
    }

    #[test]
    fn table1_shape_near_linear_then_degrading() {
        let rows = table1_rows(&TABLE1_CPUS, &cfg());
        assert_eq!(rows.len(), TABLE1_CPUS.len());
        // T(2) is the normalisation target.
        assert!(
            (rows[0].time - TABLE1_T2).abs() / TABLE1_T2 < 0.2,
            "T(2) = {}",
            rows[0].time
        );
        // Near-linear for n ≤ 16 (paper: ratio ≥ 0.82 up to 16 CPUs).
        for r in rows.iter().take_while(|r| r.cpus <= 16) {
            assert!(r.ratio > 0.75, "cpus {} ratio {}", r.cpus, r.ratio);
        }
        // Clearly degraded at 256 CPUs (paper: 0.105).
        let last = rows.last().unwrap();
        assert!(last.ratio < 0.4, "ratio at 256 = {}", last.ratio);
        // Time floors near the longest single problem, not at zero.
        assert!(last.time > 5.0, "T(256) = {}", last.time);
        // Monotone non-increasing times (within tolerance).
        for w in rows.windows(2) {
            assert!(w[1].time <= w[0].time * 1.05, "time increased: {w:?}");
        }
    }

    #[test]
    fn table2_shape_sload_beats_full_nfs_wins_at_scale() {
        let all = table2_rows(&TABLE2_CPUS, &cfg());
        let get = |s: Transmission| {
            all.iter()
                .find(|(st, _)| *st == s)
                .map(|(_, rows)| rows.clone())
                .unwrap()
        };
        let full = get(Transmission::FullLoad);
        let nfs = get(Transmission::Nfs);
        let sload = get(Transmission::SerializedLoad);
        // §4.2: "the only objective comparison is between the full load
        // and serialized load, the latter is always the faster."
        for (f, s) in full.iter().zip(&sload) {
            assert!(
                s.time <= f.time * 1.02,
                "cpus {}: sload {} !<= full {}",
                f.cpus,
                s.time,
                f.time
            );
        }
        // §4.2: NFS slowest at 2 CPUs (cold cache)...
        assert!(
            nfs[0].time > sload[0].time,
            "NFS(2) {} sload(2) {}",
            nfs[0].time,
            sload[0].time
        );
        // ...but fastest at 50 CPUs (tiny name messages, warm cache).
        let last = TABLE2_CPUS.len() - 1;
        assert!(
            nfs[last].time < sload[last].time,
            "NFS(50) {} !< sload(50) {}",
            nfs[last].time,
            sload[last].time
        );
        // Full load saturates: T(50) barely better than T(8) (paper:
        // 4.19 vs 3.86 — actually worse).
        let t8 = full.iter().find(|r| r.cpus == 8).unwrap().time;
        let t50 = full.iter().find(|r| r.cpus == 50).unwrap().time;
        assert!(t50 > 0.5 * t8, "full load kept scaling: {t8} -> {t50}");
    }

    #[test]
    fn table2_nfs_cache_anomaly_between_2_and_4() {
        // Paper: NFS T(2)=16.4, T(4)=4.91 — super-linear because the
        // first sweep point warmed the cache (ratio 1.11 > 1).
        let all = table2_rows(&TABLE2_CPUS, &cfg());
        let nfs = &all.iter().find(|(s, _)| *s == Transmission::Nfs).unwrap().1;
        assert!(
            nfs[1].ratio > 1.0,
            "no super-linear NFS artefact: ratio(4) = {}",
            nfs[1].ratio
        );
    }

    #[test]
    fn table3_shape_near_linear_to_256() {
        let cpus = [2usize, 4, 16, 64, 128, 256, 512];
        let all = table3_rows(&cpus, &cfg());
        for (strategy, rows) in &all {
            assert!(
                (rows[0].time - TABLE3_T2).abs() / TABLE3_T2 < 0.2,
                "{strategy}: T(2) = {}",
                rows[0].time
            );
            // Paper: "with 256 nodes, the speedup ratio is still better
            // than 0.8".
            let r256 = rows.iter().find(|r| r.cpus == 256).unwrap();
            assert!(r256.ratio > 0.7, "{strategy}: ratio(256) = {}", r256.ratio);
            // And it drops noticeably by 512 (paper: ≈ 0.56-0.57).
            let r512 = rows.iter().find(|r| r.cpus == 512).unwrap();
            assert!(
                r512.ratio < r256.ratio,
                "{strategy}: ratio did not degrade at 512"
            );
        }
        // Strategies are within a few percent of each other (§4.3: "fairly
        // the same no matter how the objects are sent").
        let times: Vec<f64> = all
            .iter()
            .map(|(_, rows)| rows.iter().find(|r| r.cpus == 256).unwrap().time)
            .collect();
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.25, "strategies diverged at 256: {times:?}");
    }

    #[test]
    fn format_table_contains_rows() {
        let rows = vec![TableRow {
            cpus: 2,
            time: 838.004,
            ratio: 1.0,
        }];
        let s = format_table("Table I", &rows);
        assert!(s.contains("Table I"));
        assert!(s.contains("838.0040"));
    }
}
