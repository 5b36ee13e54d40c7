//! The `--breakdown` surface shared by the table binaries.
//!
//! Replays one CPU count of a table's workload through
//! [`clustersim::simulate`] — once per transmission
//! strategy, each against a *cold* NFS cache so the strategies are
//! compared on equal footing — aggregates the recorded event stream into
//! an [`obs::BreakdownReport`], self-checks it (phase seconds within the
//! cpu-seconds budget, no dropped events, and the §4.2 claim that
//! serialized load pays the least problem-acquisition time), and prints
//! both the fixed-width table and the machine-readable JSON form.

use clustersim::{
    simulate, DispatchPolicy, SchedConfig, SimCaches, SimConfig, SimJob, SimSpec, Topology,
};
use farm::Transmission;
use obs::{Breakdown, BreakdownReport, EventKind, Recorder, StrategyBreakdown};

/// Ring capacity per rank. The master is the busiest rank: it records a
/// handful of events per job (prepare, pack, send, result recv), so this
/// comfortably holds the 10 000-job Table II workload without wrapping.
const RING_CAPACITY: usize = 1 << 17;

/// The `--breakdown` options of a table binary (`Mode::parse`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakdownOpts {
    /// `--jobs N`: portfolio size override for workloads that scale
    /// (Table II). `None` keeps the table's paper-sized default.
    pub jobs: Option<usize>,
    /// `--cpus N`: cluster size (master + slaves) for the breakdown run.
    pub cpus: usize,
    /// `--warm`: model a client-side problem cache —
    /// each strategy runs twice against one shared cache state, and the
    /// warm re-run is reported as an extra `"<strategy> (warm)"` row.
    /// The live farm reads every problem from disk; this is a simulated
    /// ablation only.
    pub warm: bool,
    /// `--compress`: model §3.2's compressed serialized buffers on the
    /// wire for loaded payloads. The live farm always sends raw bytes;
    /// this is a simulated ablation only.
    pub compress: bool,
    /// `--order lpt`: model the [`DispatchPolicy::Lpt`] dispatch order (a
    /// simulated mode: the live farm dispatches FIFO) — each strategy
    /// runs twice more on the per-job protocol an LPT run speaks, in
    /// FIFO order and with the queue sorted longest-cost-first, reported
    /// as extra `"<strategy> (fifo, per job)"` and `"<strategy> (lpt)"`
    /// rows and self-checked: wait seconds must not regress against that
    /// FIFO, compute is untouched, and the makespan must not degrade
    /// beyond noise.
    pub order_lpt: bool,
}

impl Default for BreakdownOpts {
    fn default() -> Self {
        BreakdownOpts {
            jobs: None,
            cpus: 8,
            warm: false,
            compress: false,
            order_lpt: false,
        }
    }
}

/// Run the workload once per strategy on `opts.cpus - 1` slaves,
/// recording every phase, and assemble the checked report.
///
/// Each strategy starts from cold [`SimCaches`] — the §4.2 caching bias
/// is deliberately *excluded* here, because the breakdown's job is to
/// expose what each strategy intrinsically pays per problem. With
/// `opts.warm`, each strategy is run a second time against the cache
/// state its cold run left behind, and the re-run lands in the report as
/// `"<strategy> (warm)"`; with `opts.compress`, loaded payloads go over
/// the wire through the modelled LZSS codec.
pub fn breakdown_report(
    title: &str,
    jobs: &[SimJob],
    opts: &BreakdownOpts,
    cfg: &SimConfig,
) -> Result<BreakdownReport, String> {
    if opts.cpus < 2 {
        return Err("breakdown needs at least 2 CPUs".into());
    }
    let slaves = opts.cpus - 1;
    let mut cfg = *cfg;
    if opts.warm {
        cfg.store.client_cache = true;
    }
    if opts.compress {
        cfg.store.compress = true;
    }
    let mut report = BreakdownReport::new(title);
    for strategy in Transmission::ALL {
        // One cache state per strategy: the cold run fills it, the
        // optional warm run reuses it.
        let mut caches = SimCaches::new();
        // What `farm::run` drives for a plain FIFO run: job frames.
        let flat = |policy| SchedConfig::farm(jobs.len(), slaves, policy, None, None);
        let one_run =
            |label: String, cfg: &SimConfig, caches: &mut SimCaches, sched: SchedConfig| {
                let rec = Recorder::with_capacity(slaves + 1, RING_CAPACITY);
                let spec = SimSpec {
                    jobs,
                    strategy,
                    cfg,
                    recorder: Some(&rec),
                    plan: None,
                    topology: Topology::Flat(sched),
                };
                let out = simulate(&spec, caches)
                    .expect("breakdown scheduling options are always self-consistent");
                StrategyBreakdown {
                    strategy: label,
                    cpus: opts.cpus,
                    wall_s: out.makespan,
                    breakdown: Breakdown::from_events(&rec.events()),
                    dropped: rec.dropped(),
                }
            };
        report.runs.push(one_run(
            strategy.label().to_string(),
            &cfg,
            &mut caches,
            flat(DispatchPolicy::Fifo),
        ));
        if opts.warm {
            report.runs.push(one_run(
                format!("{} (warm)", strategy.label()),
                &cfg,
                &mut caches,
                flat(DispatchPolicy::Fifo),
            ));
        }
        if opts.order_lpt {
            // LPT run from cold caches, fed with the jobs' own (here:
            // exact) costs, where a caller would feed estimates such as
            // `JobClass::paper_cost_seconds`. Any order but FIFO goes out
            // one job a message, so its baseline is FIFO on that protocol:
            // the only variable between the two rows is the queue order.
            report.runs.push(one_run(
                format!("{} (fifo, per job)", strategy.label()),
                &cfg,
                &mut SimCaches::new(),
                SchedConfig::plain(jobs.len(), slaves),
            ));
            let lpt = flat(DispatchPolicy::Lpt {
                costs: jobs.iter().map(|j| j.compute).collect(),
            });
            report.runs.push(one_run(
                format!("{} (lpt)", strategy.label()),
                &cfg,
                &mut SimCaches::new(),
                lpt,
            ));
        }
    }
    report.check()?;
    check_sload_prepare_cheapest(&report)?;
    if opts.warm {
        check_warm_cache_effect(&report)?;
    }
    if opts.compress {
        check_compression_effect(&report)?;
    }
    if opts.order_lpt {
        check_lpt_order(&report)?;
    }
    Ok(report)
}

/// The `--order lpt` acceptance check: for every strategy, the LPT run
/// must price the same portfolio (identical compute seconds), its
/// cumulative wait seconds (`Probe + Recv + Unpack`) must not regress
/// against FIFO on the same per-job protocol, and its makespan must not
/// degrade beyond scheduling noise — LPT exists to shave the end-of-run
/// straggler tail, never to add communication.
fn check_lpt_order(report: &BreakdownReport) -> Result<(), String> {
    for strategy in Transmission::ALL {
        let fifo_label = format!("{} (fifo, per job)", strategy.label());
        let fifo = report
            .run(&fifo_label)
            .ok_or_else(|| format!("missing {fifo_label:?} run"))?;
        let lpt_label = format!("{} (lpt)", strategy.label());
        let lpt = report
            .run(&lpt_label)
            .ok_or_else(|| format!("missing {lpt_label:?} run"))?;
        let (f, l) = (&fifo.breakdown, &lpt.breakdown);
        if l.wait_s() > f.wait_s() + 1e-9 {
            return Err(format!(
                "{strategy}: LPT wait {:.9}s regressed above FIFO {:.9}s",
                l.wait_s(),
                f.wait_s()
            ));
        }
        if (l.compute_s() - f.compute_s()).abs() > 1e-9 {
            return Err(format!(
                "{strategy}: LPT changed compute ({:.9}s vs {:.9}s)",
                l.compute_s(),
                f.compute_s()
            ));
        }
        if lpt.wall_s > fifo.wall_s * 1.05 + 1e-9 {
            return Err(format!(
                "{strategy}: LPT makespan {:.6}s degraded FIFO's {:.6}s",
                lpt.wall_s, fifo.wall_s
            ));
        }
    }
    Ok(())
}

/// The warm-store acceptance check: for every strategy, the warm run's
/// prepare seconds must be *strictly* below its cold run's (the cache
/// removed real fetch work), while compute and wait are unchanged within
/// noise (the cache must not touch what the slaves do), and the warm run
/// actually hit the cache.
fn check_warm_cache_effect(report: &BreakdownReport) -> Result<(), String> {
    for strategy in Transmission::ALL {
        let cold = report
            .run(strategy.label())
            .ok_or_else(|| format!("missing {strategy} cold run"))?;
        let warm_label = format!("{} (warm)", strategy.label());
        let warm = report
            .run(&warm_label)
            .ok_or_else(|| format!("missing {warm_label:?} run"))?;
        let (c, w) = (&cold.breakdown, &warm.breakdown);
        if w.prepare_s() >= c.prepare_s() {
            return Err(format!(
                "{strategy}: warm prepare {:.6}s not strictly below cold {:.6}s",
                w.prepare_s(),
                c.prepare_s()
            ));
        }
        if (w.compute_s() - c.compute_s()).abs() > 1e-9 {
            return Err(format!(
                "{strategy}: cache changed compute ({:.9}s vs {:.9}s)",
                w.compute_s(),
                c.compute_s()
            ));
        }
        if (w.wait_s() - c.wait_s()).abs() > 1e-9 {
            return Err(format!(
                "{strategy}: cache changed wait ({:.9}s vs {:.9}s)",
                w.wait_s(),
                c.wait_s()
            ));
        }
        if w.count_of(EventKind::CacheHit) == 0 {
            return Err(format!("{strategy}: warm run recorded no cache hits"));
        }
        if w.cache_hit_rate() <= 0.0 {
            return Err(format!("{strategy}: warm run hit-rate is zero"));
        }
    }
    Ok(())
}

/// The compressed-wire acceptance check: both loaded strategies must
/// have compressed every over-threshold payload (matching decompression
/// on the slaves, net bytes actually saved), and NFS — which ships only
/// names — must be untouched by the codec.
fn check_compression_effect(report: &BreakdownReport) -> Result<(), String> {
    for strategy in [Transmission::FullLoad, Transmission::SerializedLoad] {
        let run = report
            .run(strategy.label())
            .ok_or_else(|| format!("missing {strategy} run"))?;
        let b = &run.breakdown;
        let z = b
            .phase(EventKind::Compress)
            .ok_or_else(|| format!("{strategy}: no compress events recorded"))?;
        if b.count_of(EventKind::Decompress) != z.count {
            return Err(format!(
                "{strategy}: {} compressions but {} decompressions",
                z.count,
                b.count_of(EventKind::Decompress)
            ));
        }
        if z.bytes == 0 {
            return Err(format!("{strategy}: compression saved no bytes"));
        }
    }
    let nfs = report
        .run(Transmission::Nfs.label())
        .ok_or("missing NFS run")?;
    if nfs.breakdown.count_of(EventKind::Compress) != 0 {
        return Err("NFS run has compress events (names are never compressed)".into());
    }
    Ok(())
}

/// The §4.2 acceptance check: serialized load's prepare seconds
/// (`Serialize + Sload + Pack + NfsRead`, wherever they run) must be
/// *strictly* the smallest of the three strategies — the master skips
/// materialisation and the slaves skip NFS.
fn check_sload_prepare_cheapest(report: &BreakdownReport) -> Result<(), String> {
    let prepare = |strategy: Transmission| -> Result<f64, String> {
        report
            .run(strategy.label())
            .map(|r| r.breakdown.prepare_s())
            .ok_or_else(|| format!("missing {strategy} run in breakdown report"))
    };
    let sload = prepare(Transmission::SerializedLoad)?;
    for other in [Transmission::FullLoad, Transmission::Nfs] {
        let o = prepare(other)?;
        if sload >= o {
            return Err(format!(
                "serialized load prepare {sload:.6}s is not strictly below {other} {o:.6}s"
            ));
        }
    }
    Ok(())
}

/// Print a checked report (text table, then one line of JSON) for a
/// table binary; exit with status 2 if a check fails.
pub fn run_breakdown(title: &str, jobs: &[SimJob], opts: &BreakdownOpts) {
    match breakdown_report(title, jobs, opts, &SimConfig::default()) {
        Ok(report) => {
            println!("{}", report.render());
            println!("JSON: {}", report.to_json());
        }
        Err(e) => {
            eprintln!("breakdown check failed: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{Mode, Table};

    /// Table II's `--breakdown` options from `args`.
    fn parse(args: &[&str]) -> Result<BreakdownOpts, String> {
        match Mode::parse(args, Table::II)? {
            Mode::Breakdown(o) => Ok(o),
            other => Err(format!("not a breakdown: {other:?}")),
        }
    }

    #[test]
    fn parse_accepts_flags_and_rejects_junk() {
        assert_eq!(parse(&["--breakdown"]).unwrap(), BreakdownOpts::default());
        let o = parse(&["--breakdown", "--jobs", "500", "--cpus", "4"]).unwrap();
        assert_eq!(o.jobs, Some(500));
        assert_eq!(o.cpus, 4);
        assert!(parse(&["--breakdown", "--frobnicate"]).is_err());
        assert!(parse(&["--breakdown", "--jobs"]).is_err());
        assert!(parse(&["--breakdown", "--jobs", "0"]).is_err());
        assert!(parse(&["--breakdown", "--cpus", "1"]).is_err());
        assert_eq!(
            Mode::parse(Vec::<&str>::new(), Table::II),
            Ok(Mode::Table { live: false })
        );
        assert_eq!(
            Mode::parse(["--live"], Table::I),
            Ok(Mode::Table { live: true })
        );
        // A flag the chosen mode or table does not use is rejected, not
        // accepted and dropped.
        for (args, t) in [
            (&["--breakdown", "--jobs", "500"][..], Table::I),
            (&["--breakdown", "--jobs", "500"], Table::III),
            (&["--breakdown", "--live"], Table::I),
            (&["--calibrate-classes"], Table::II),
            (&["--calibrate-classes", "--measurd"], Table::II),
            (&["--calibrate-classes", "--breakdown"], Table::II),
            (&["--calibrate-classes", "--warm"], Table::II),
            (&["--measured"], Table::II),
            (&["--live"], Table::II),
            (&["--warm"], Table::II),
            (&["--jobs", "500"], Table::II),
        ] {
            assert!(Mode::parse(args, t).is_err(), "{args:?} on {t:?} accepted");
        }
    }

    fn opts(cpus: usize) -> BreakdownOpts {
        BreakdownOpts {
            cpus,
            ..BreakdownOpts::default()
        }
    }

    #[test]
    fn table2_breakdown_passes_all_checks() {
        // A scaled-down Table II workload: the checks inside
        // breakdown_report are the acceptance criteria themselves.
        let jobs = clustersim::table2_sim_jobs(400);
        let report = breakdown_report("test", &jobs, &opts(4), &SimConfig::default()).unwrap();
        assert_eq!(report.runs.len(), 3);
        for run in &report.runs {
            assert_eq!(run.cpus, 4);
            assert!(run.breakdown.compute_s() > 0.0, "{}", run.strategy);
            assert_eq!(run.dropped, 0);
        }
        // Strict ordering of prepare time: sload < full load < cold NFS.
        let p = |s: Transmission| report.run(s.label()).unwrap().breakdown.prepare_s();
        assert!(p(Transmission::SerializedLoad) < p(Transmission::FullLoad));
        assert!(p(Transmission::FullLoad) < p(Transmission::Nfs));
        // All strategies computed the same portfolio: identical compute
        // seconds (the sim charges the measured per-job cost verbatim).
        let c = |s: Transmission| report.run(s.label()).unwrap().breakdown.compute_s();
        let base = c(Transmission::SerializedLoad);
        assert!((c(Transmission::FullLoad) - base).abs() < 1e-9);
        assert!((c(Transmission::Nfs) - base).abs() < 1e-9);
        // Render and JSON both carry the summary columns.
        let text = report.render();
        assert!(text.contains("prepare="));
        let json = report.to_json();
        assert!(json.contains("\"prepare_s\":"));
        assert!(json.contains("\"strategy\":"));
    }

    #[test]
    fn report_fails_when_a_strategy_is_missing() {
        let jobs = clustersim::table2_sim_jobs(50);
        let mut report = breakdown_report("test", &jobs, &opts(2), &SimConfig::default()).unwrap();
        report
            .runs
            .retain(|r| r.strategy != Transmission::SerializedLoad.label());
        assert!(check_sload_prepare_cheapest(&report).is_err());
    }

    #[test]
    fn parse_accepts_warm_and_compress() {
        let o = parse(&["--breakdown", "--warm", "--compress"]).unwrap();
        assert!(o.warm && o.compress);
        let o = parse(&["--breakdown"]).unwrap();
        assert!(!o.warm && !o.compress);
    }

    #[test]
    fn warm_breakdown_adds_checked_warm_rows() {
        let jobs = clustersim::table2_sim_jobs(400);
        let o = BreakdownOpts {
            warm: true,
            ..opts(4)
        };
        let report = breakdown_report("test warm", &jobs, &o, &SimConfig::default()).unwrap();
        // Three cold rows + three warm rows, and the warm check held
        // (breakdown_report would have errored otherwise).
        assert_eq!(report.runs.len(), 6);
        for strategy in Transmission::ALL {
            let cold = report.run(strategy.label()).unwrap();
            let warm = report.run(&format!("{} (warm)", strategy.label())).unwrap();
            assert!(
                warm.breakdown.prepare_s() < cold.breakdown.prepare_s(),
                "{strategy}"
            );
            assert!(warm.breakdown.cache_hit_rate() > 0.99, "{strategy}");
        }
        // The JSON form carries the new store columns.
        let json = report.to_json();
        assert!(json.contains("\"store_s\":"));
        assert!(json.contains("\"cache_hit_rate\":"));
        assert!(json.contains("(warm)"));
    }

    #[test]
    fn compressed_breakdown_passes_codec_checks() {
        let jobs = clustersim::table2_sim_jobs(400);
        let o = BreakdownOpts {
            compress: true,
            ..opts(4)
        };
        let report = breakdown_report("test z", &jobs, &o, &SimConfig::default()).unwrap();
        check_compression_effect(&report).unwrap();
        let sload = report.run(Transmission::SerializedLoad.label()).unwrap();
        assert!(sload.breakdown.store_s() > 0.0, "codec time missing");
        // NFS ships names only — no codec anywhere near it.
        let nfs = report.run(Transmission::Nfs.label()).unwrap();
        assert_eq!(nfs.breakdown.count_of(EventKind::Decompress), 0);
    }

    #[test]
    fn parse_accepts_order_and_rejects_junk_policies() {
        assert!(parse(&["--breakdown", "--order", "lpt"]).unwrap().order_lpt);
        assert!(
            !parse(&["--breakdown", "--order", "fifo"])
                .unwrap()
                .order_lpt
        );
        assert!(!parse(&["--breakdown"]).unwrap().order_lpt);
        assert!(parse(&["--breakdown", "--order"]).is_err());
        assert!(parse(&["--breakdown", "--order", "sjf"]).is_err());
    }

    #[test]
    fn lpt_breakdown_passes_wait_and_makespan_checks() {
        // Uniform Table II vanillas: LPT degenerates to FIFO (stable
        // sort), so wait and makespan agree exactly.
        let jobs = clustersim::table2_sim_jobs(400);
        let o = BreakdownOpts {
            order_lpt: true,
            ..opts(4)
        };
        let report = breakdown_report("test lpt", &jobs, &o, &SimConfig::default()).unwrap();
        assert_eq!(report.runs.len(), 9);
        check_lpt_order(&report).unwrap();
        let json = report.to_json();
        assert!(json.contains("(lpt)"));
    }

    #[test]
    fn lpt_breakdown_beats_fifo_on_a_straggler_tail() {
        // A heterogeneous portfolio with the expensive job *last*: FIFO
        // strands it on one slave at the end of the run; LPT fronts it
        // and the makespan drops, with wait untouched.
        let mut jobs = clustersim::table2_sim_jobs(60);
        let n = jobs.len();
        jobs[n - 1].compute = 1.0;
        let o = BreakdownOpts {
            order_lpt: true,
            ..opts(4)
        };
        let report = breakdown_report("test lpt tail", &jobs, &o, &SimConfig::default()).unwrap();
        check_lpt_order(&report).unwrap();
        for strategy in Transmission::ALL {
            let fifo = format!("{} (fifo, per job)", strategy.label());
            let fifo = report.run(&fifo).unwrap();
            let lpt = report.run(&format!("{} (lpt)", strategy.label())).unwrap();
            assert!(
                lpt.wall_s < fifo.wall_s,
                "{strategy}: lpt {:.4}s vs fifo {:.4}s",
                lpt.wall_s,
                fifo.wall_s
            );
        }
    }

    #[test]
    fn lpt_check_fails_without_lpt_rows() {
        let jobs = clustersim::table2_sim_jobs(50);
        let report = breakdown_report("test", &jobs, &opts(2), &SimConfig::default()).unwrap();
        assert!(check_lpt_order(&report).is_err());
    }

    #[test]
    fn warm_and_compress_compose() {
        let jobs = clustersim::table2_sim_jobs(300);
        let o = BreakdownOpts {
            warm: true,
            compress: true,
            ..opts(4)
        };
        let report = breakdown_report("test wz", &jobs, &o, &SimConfig::default()).unwrap();
        assert_eq!(report.runs.len(), 6);
        check_warm_cache_effect(&report).unwrap();
        check_compression_effect(&report).unwrap();
    }
}
