//! Agreement between the discrete-event simulator and the live threaded
//! farm at small scale: the simulator, fed with *measured* per-class
//! costs, must predict the live farm's wall-clock within a reasonable
//! band, and both must show the same qualitative scaling.

use riskbench::clustersim::{
    simulate, DispatchPolicy, SchedConfig, SimCaches, SimConfig, SimJob, SimSpec,
};
use riskbench::prelude::*;

/// The simulated makespan of the flat farm [`farm::run`] drives, from
/// cold caches, recorded into `recorder` if one is given.
fn sim_farm(
    jobs: &[SimJob],
    slaves: usize,
    strategy: Transmission,
    cfg: &SimConfig,
    recorder: Option<&Recorder>,
) -> f64 {
    let sched = SchedConfig::farm(jobs.len(), slaves, DispatchPolicy::Fifo, None, None);
    let spec = SimSpec {
        jobs,
        strategy,
        cfg,
        recorder,
        plan: None,
        sched,
    };
    simulate(&spec, &mut SimCaches::new()).unwrap().makespan
}

/// Plain farm via the unified [`farm::run`] entry point.
fn run_plain_farm(
    files: &[std::path::PathBuf],
    slaves: usize,
    strategy: Transmission,
) -> Result<FarmReport, FarmError> {
    run(files, &FarmConfig::new(slaves, strategy))
}

/// Build matched live files + sim jobs for a compute-heavy workload.
fn matched_workload(dir: &std::path::Path) -> (Vec<std::path::PathBuf>, Vec<SimJob>) {
    let jobs: Vec<PortfolioJob> = realistic_portfolio(PortfolioScale::Quick, 130)
        .into_iter()
        .filter(|j| {
            matches!(
                j.class,
                JobClass::AmericanPde | JobClass::BarrierPde | JobClass::LocalVolMc
            )
        })
        .collect();
    assert!(jobs.len() >= 15, "{} jobs", jobs.len());
    std::fs::create_dir_all(dir).unwrap();
    let files: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(k, j)| {
            let p = dir.join(format!("pb-{k}.bin"));
            riskbench::xdrser::save(&p, &j.problem.to_value()).unwrap();
            p
        })
        .collect();
    // Measure each job's real compute cost, as the live run is timed.
    let sim_jobs: Vec<SimJob> = jobs
        .iter()
        .enumerate()
        .map(|(k, j)| SimJob {
            id: k,
            class: j.class,
            bytes: riskbench::xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: min_of_k(|| {
                let t0 = std::time::Instant::now();
                j.problem.compute().unwrap();
                t0.elapsed().as_secs_f64()
            }),
        })
        .collect();
    (files, sim_jobs)
}

/// The least of `K` timings: what a run costs when nothing else on the
/// machine takes its CPU. A busy neighbour only ever adds time, so the
/// minimum of a few runs is the unloaded cost, whichever run got it.
fn min_of_k(mut time: impl FnMut() -> f64) -> f64 {
    const K: usize = 3;
    (0..K).map(|_| time()).fold(f64::INFINITY, f64::min)
}

/// One live run of the farm with a recorder, and the simulator fed the
/// costs that same run recorded: each job's compute seconds, and the
/// master's prepare seconds (`Breakdown::prepare_s` over rank 0's events)
/// per job. A busy neighbour slows both sides alike. Returns (live, sim)
/// makespans in seconds.
fn live_and_replayed(
    files: &[std::path::PathBuf],
    sim_jobs: &[SimJob],
    slaves: usize,
) -> (f64, f64) {
    use std::sync::Arc;
    let rec = Arc::new(Recorder::new(slaves + 1));
    let report = run(
        files,
        &FarmConfig::new(slaves, Transmission::SerializedLoad).recorder(rec.clone()),
    )
    .unwrap();
    let events = rec.events();
    let mut jobs = sim_jobs.to_vec();
    for j in &mut jobs {
        j.compute = 0.0;
    }
    for e in events.iter().filter(|e| e.kind == EventKind::Compute) {
        jobs[e.job as usize].compute += e.dur_s();
    }
    let master: Vec<Event> = events.into_iter().filter(|e| e.rank == 0).collect();
    let mut cfg = SimConfig::default();
    cfg.master.sload_prep = Breakdown::from_events(&master).prepare_s() / jobs.len() as f64;
    let sim = sim_farm(&jobs, slaves, Transmission::SerializedLoad, &cfg, None);
    (report.elapsed.as_secs_f64(), sim)
}

#[test]
fn simulator_predicts_live_makespan_within_band() {
    let dir = std::env::temp_dir().join("it_sim_vs_live");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, sim_jobs) = matched_workload(&dir);

    // On a single-core machine two live slaves time-share one CPU, which
    // the simulator (one CPU per slave) cannot model — restrict to one
    // slave there.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let slave_counts: &[usize] = if cores >= 3 { &[1, 2] } else { &[1] };
    for &slaves in slave_counts {
        let (live, sim) = live_and_replayed(&files, &sim_jobs, slaves);
        let ratio = live / sim;
        // The simulator replays the run's own compute and prepare
        // seconds; its other terms (`SimConfig::default()`: wire, result
        // handling) are unfitted. On a 2-vCPU x86-64 host, release and
        // debug runs, alone and beside a busy loop, read live/sim
        // 0.77–1.07. The band keeps a factor of two on either side of
        // 1: tight enough to catch a structural modelling error (a phase
        // missed or counted twice moves the ratio by ×2 or more), loose
        // enough not to test the host's load.
        assert!(
            (0.5..2.0).contains(&ratio),
            "slaves={slaves}: live {live:.3}s vs sim {sim:.3}s (ratio {ratio:.2})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_fault_supervision_is_free() {
    // Regression guard for the supervised master: under a zero-fault
    // plan (and under no plan at all) the supervised farm must produce
    // byte-identical job→(price, std_error) results to the plain
    // Fig. 4 master — supervision may only change behaviour when faults
    // actually occur.
    use riskbench::minimpi::FaultPlan;
    use std::sync::Arc;

    let run_supervised = |files: &[std::path::PathBuf],
                          slaves: usize,
                          strategy: Transmission,
                          cfg: &SupervisorConfig,
                          plan: Option<Arc<FaultPlan>>| {
        let mut fc = FarmConfig::new(slaves, strategy).supervisor(cfg.clone());
        if let Some(plan) = plan {
            fc = fc.fault_plan(plan);
        }
        run(files, &fc)
    };

    let dir = std::env::temp_dir().join("it_zero_fault_supervised");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, _) = matched_workload(&dir);

    let plain = run_plain_farm(&files, 2, Transmission::SerializedLoad).unwrap();
    // Deadlines far above any job here: twice the worst §4.3 class's
    // upper cost (150 s), and an idle patience of four deadlines.
    let cfg = SupervisorConfig {
        job_deadline: std::time::Duration::from_secs(300),
        slave_idle_timeout: std::time::Duration::from_secs(1_200),
        ..SupervisorConfig::default()
    };
    let inert = Arc::new(FaultPlan::new(2024));
    let supervised = run_supervised(
        &files,
        2,
        Transmission::SerializedLoad,
        &cfg,
        Some(Arc::clone(&inert)),
    )
    .unwrap();
    let unplanned = run_supervised(&files, 2, Transmission::SerializedLoad, &cfg, None).unwrap();

    // The inert plan must not have injected anything...
    assert!(inert.events().is_empty());
    // ...and the reports must agree exactly, job for job, bit for bit
    // (completion *order* is scheduling-dependent; the sorted view is
    // the invariant).
    let key = |r: &FarmReport| -> Vec<(usize, u64, Option<u64>)> {
        r.by_job()
            .into_iter()
            .map(|(j, p, se)| (j, p.to_bits(), se.map(f64::to_bits)))
            .collect()
    };
    assert_eq!(key(&plain), key(&supervised));
    assert_eq!(key(&plain), key(&unplanned));
    // No phantom degradation bookkeeping either.
    assert!(supervised.failed_jobs.is_empty());
    assert_eq!(supervised.retries, 0);
    assert!(supervised.dead_slaves.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sim_and_live_emit_identical_per_job_event_kinds() {
    // The tentpole diffability claim: the simulator's event stream uses
    // the *same* per-job phase schema as the live instrumented farm, so
    // one Breakdown aggregator can compare them phase by phase.
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join("it_sim_vs_live_kinds");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = toy_portfolio(10);
    let files = save_portfolio(&jobs, &dir).unwrap();
    let sim_jobs: Vec<SimJob> = jobs
        .iter()
        .enumerate()
        .map(|(k, j)| SimJob {
            id: k,
            class: j.class,
            bytes: riskbench::xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: 1e-4,
        })
        .collect();

    for strategy in Transmission::ALL {
        let live_rec = Arc::new(Recorder::new(3));
        let report = run(
            &files,
            &FarmConfig::new(2, strategy).recorder(live_rec.clone()),
        )
        .unwrap();
        assert_eq!(report.completed(), 10, "{strategy}");

        let sim_rec = Recorder::new(3);
        sim_farm(
            &sim_jobs,
            2,
            strategy,
            &SimConfig::default(),
            Some(&sim_rec),
        );

        let kinds = |events: &[Event], job: i64| -> BTreeSet<EventKind> {
            events
                .iter()
                .filter(|e| e.job == job)
                .map(|e| e.kind)
                // Diagnostic marks (Dispatch, ...) are data-dependent
                // bookkeeping, not phases, which no per-job schema
                // should legislate.
                .filter(|k| !EventKind::DIAGNOSTIC.contains(k))
                .collect()
        };
        let live_events = live_rec.events();
        let sim_events = sim_rec.events();
        for job in 0..10i64 {
            assert_eq!(
                kinds(&live_events, job),
                kinds(&sim_events, job),
                "{strategy} job {job}: live vs sim phase schema diverged"
            );
        }
        // Whole run, every job and `NO_JOB`, diagnostics included: the
        // simulator emits no kind the live farm lacks, so no sim-only
        // phase can hide behind the per-job filter above.
        let all =
            |events: &[Event]| -> BTreeSet<EventKind> { events.iter().map(|e| e.kind).collect() };
        let (live_all, sim_all) = (all(&live_events), all(&sim_events));
        assert!(
            sim_all.is_subset(&live_all),
            "{strategy}: sim-only kinds {:?}",
            sim_all.difference(&live_all).collect::<Vec<_>>()
        );
        assert_eq!(live_rec.dropped(), 0);
        assert_eq!(sim_rec.dropped(), 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulator_and_live_farm_agree_on_scaling_direction() {
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        < 4
    {
        eprintln!("skipping: fewer than 4 cores");
        return;
    }
    let dir = std::env::temp_dir().join("it_sim_vs_live_scaling");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, sim_jobs) = matched_workload(&dir);
    let cfg = SimConfig::default();

    let live1 = run_plain_farm(&files, 1, Transmission::SerializedLoad)
        .unwrap()
        .elapsed
        .as_secs_f64();
    let live3 = run_plain_farm(&files, 3, Transmission::SerializedLoad)
        .unwrap()
        .elapsed
        .as_secs_f64();
    let sim1 = sim_farm(&sim_jobs, 1, Transmission::SerializedLoad, &cfg, None);
    let sim3 = sim_farm(&sim_jobs, 3, Transmission::SerializedLoad, &cfg, None);
    // Both must improve substantially from 1 to 3 slaves.
    assert!(live3 < 0.8 * live1, "live: {live1:.3} -> {live3:.3}");
    assert!(sim3 < 0.8 * sim1, "sim: {sim1:.3} -> {sim3:.3}");
    std::fs::remove_dir_all(&dir).ok();
}
