//! Integration: the full Fig. 4/5 pipeline across crates — portfolio
//! files on disk → master → minimpi transmission (all three strategies) →
//! slave compute → results — checked against serial evaluation.

use riskbench::prelude::*;

mod common;
use common::with_watchdog;

/// Plain farm via the unified [`farm::run`] entry point.
fn run_plain_farm(
    files: &[std::path::PathBuf],
    slaves: usize,
    strategy: Transmission,
) -> Result<FarmReport, FarmError> {
    run(files, &FarmConfig::new(slaves, strategy))
}

fn setup(tag: &str, count: usize) -> (Vec<std::path::PathBuf>, Vec<f64>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("it_farm_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = toy_portfolio(count);
    let files = save_portfolio(&jobs, &dir).unwrap();
    let expected: Vec<f64> = jobs
        .iter()
        .map(|j| j.problem.compute().unwrap().price)
        .collect();
    (files, expected, dir)
}

#[test]
fn all_strategies_price_identically_to_serial() {
    // 300 jobs of every class: however the guided frames fall across
    // 1..=4 slaves, each price is `compute()`'s, bit for bit.
    let dir = std::env::temp_dir().join("it_farm_strategies");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = mixed_portfolio(PortfolioScale::Quick, 25);
    assert_eq!(jobs.len(), 300);
    let files = save_portfolio(&jobs, &dir).unwrap();
    let expected: Vec<u64> = jobs
        .iter()
        .map(|j| j.problem.compute().unwrap().price.to_bits())
        .collect();
    for slaves in 1..=4 {
        for strategy in Transmission::ALL {
            let report = run_plain_farm(&files, slaves, strategy).unwrap();
            assert_eq!(report.completed(), 300, "{strategy}, {slaves} slaves");
            for o in &report.outcomes {
                assert_eq!(
                    o.price.to_bits(),
                    expected[o.job],
                    "{strategy}, {slaves} slaves: job {} differs from serial",
                    o.job
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heterogeneous_portfolio_through_the_farm() {
    // A strided §4.3 portfolio: every method family crosses the wire.
    let dir = std::env::temp_dir().join("it_farm_hetero");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = realistic_portfolio(PortfolioScale::Quick, 300);
    assert!(jobs.len() >= 20, "stride too coarse: {}", jobs.len());
    let files = save_portfolio(&jobs, &dir).unwrap();
    let report = run_plain_farm(&files, 4, Transmission::SerializedLoad).unwrap();
    assert_eq!(report.completed(), jobs.len());
    // Spot-check a few against direct computation.
    for o in report.outcomes.iter().take(5) {
        let direct = jobs[o.job].problem.compute().unwrap().price;
        assert_eq!(o.price.to_bits(), direct.to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn regression_suite_through_the_farm_like_table1() {
    // §4.1: the non-regression tests, parallelised.
    let dir = std::env::temp_dir().join("it_farm_regression");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = regression_portfolio(PortfolioScale::Quick);
    let files = save_portfolio(&jobs, &dir).unwrap();
    let report = run_plain_farm(&files, 4, Transmission::SerializedLoad).unwrap();
    assert_eq!(report.completed(), jobs.len());
    // Every job answered exactly once with a finite price.
    let mut seen = vec![false; jobs.len()];
    for o in &report.outcomes {
        assert!(!seen[o.job]);
        seen[o.job] = true;
        assert!(o.price.is_finite());
    }
    assert!(seen.iter().all(|&s| s));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_farm_sends_frames_and_matches_serial() {
    let (files, expected, dir) = setup("variants", 24);
    // Job frames (what `run` ships by default), traced to show it.
    let framed = FarmConfig::new(3, Transmission::SerializedLoad).record_trace(true);
    let batched = run(&files, &framed).unwrap();
    let trace = batched.trace.as_ref().unwrap().render();
    assert!(
        trace.starts_with("ready(1) -> dispatch(0..4->1)\n"),
        "{trace}"
    );
    assert_eq!(batched.completed(), 24);
    for o in &batched.outcomes {
        assert_eq!(o.price.to_bits(), expected[o.job].to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn farm_scales_on_real_cores() {
    // Wall-clock sanity: with compute-heavy jobs, 4 slaves should beat 1
    // slave clearly (not asserting a precise ratio — CI machines vary).
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        < 4
    {
        eprintln!("skipping: fewer than 4 cores");
        return;
    }
    let dir = std::env::temp_dir().join("it_farm_scaling");
    let _ = std::fs::remove_dir_all(&dir);
    // American PDE problems are the heavy class.
    let jobs: Vec<PortfolioJob> = realistic_portfolio(PortfolioScale::Quick, 40)
        .into_iter()
        .filter(|j| j.class == JobClass::AmericanPde)
        .take(16)
        .collect();
    let files: Vec<_> = {
        std::fs::create_dir_all(&dir).unwrap();
        jobs.iter()
            .map(|j| {
                let p = dir.join(format!("pb-{}.bin", j.id));
                riskbench::xdrser::save(&p, &j.problem.to_value()).unwrap();
                p
            })
            .collect()
    };
    let t1 = run_plain_farm(&files, 1, Transmission::SerializedLoad)
        .unwrap()
        .elapsed;
    let t4 = run_plain_farm(&files, 4, Transmission::SerializedLoad)
        .unwrap()
        .elapsed;
    assert!(
        t4.as_secs_f64() < 0.75 * t1.as_secs_f64(),
        "no speedup: 1 slave {t1:?}, 4 slaves {t4:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn risk_sweep_through_the_farm() {
    // §1 end to end: sweep a small book, farm it, aggregate Greeks.
    use farm::risk::{aggregate_risk, outcomes_to_prices, risk_sweep, BumpSpec};
    let dir = std::env::temp_dir().join("it_farm_risk");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let claims = toy_portfolio(6);
    let bump = BumpSpec::default();
    let sweep = risk_sweep(&claims, &bump);
    let files: Vec<_> = sweep
        .iter()
        .enumerate()
        .map(|(k, j)| {
            let p = dir.join(format!("pb-{k}.bin"));
            riskbench::xdrser::save(&p, &j.problem.to_value()).unwrap();
            p
        })
        .collect();
    let report = run_plain_farm(&files, 3, Transmission::SerializedLoad).unwrap();
    assert_eq!(report.completed(), sweep.len());
    let prices = outcomes_to_prices(sweep.len(), &report.outcomes);
    assert!(prices.iter().all(|p| p.is_finite()));
    let risks = aggregate_risk(&sweep, &prices, &bump, &|_| 100.0);
    assert_eq!(risks.len(), 6);
    // Calls: positive delta in (0,1], positive vega.
    for r in &risks {
        assert!(r.delta > 0.0 && r.delta <= 1.0 + 1e-9, "delta {}", r.delta);
        assert!(r.vega >= 0.0, "vega {}", r.vega);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What a failed job does, defined once for every front-end
/// (`docs/FAULTS.md`): whether its bytes cannot be *prepared* on the
/// master or its slave cannot *read or price* them, an unsupervised run
/// stops its slaves and returns a typed error naming the job; a
/// supervised run retries it, abandons it into `failed_jobs` and prices
/// the rest. Nothing panics, nothing hangs, nothing waits out a timeout.
#[test]
fn a_failed_job_means_the_same_thing_on_every_front_end() {
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    const JOBS: usize = 8;
    const BAD: usize = 3;

    type FrontEnd = fn(&[PathBuf], Transmission) -> Result<FarmReport, FarmError>;
    let front_ends: [(&str, FrontEnd); 2] = [
        // Plain is the framed row: job 3 fails inside the frame 2..4.
        ("plain", |f, s| run(f, &FarmConfig::new(2, s))),
        ("supervised", |f, s| {
            run(f, &FarmConfig::new(2, s).supervised(true))
        }),
    ];
    // `true`: job 3's file is renamed away; `false`: it holds a problem
    // that decodes but has no method (an American put in closed form).
    let cases = [
        ("missing file, NFS (slave-side)", Transmission::Nfs, true),
        (
            "missing file, serialized load (master-side)",
            Transmission::SerializedLoad,
            true,
        ),
        (
            "missing file, full load (master-side)",
            Transmission::FullLoad,
            true,
        ),
        (
            "compute fails (slave-side)",
            Transmission::SerializedLoad,
            false,
        ),
    ];

    for (c, (case, strategy, missing)) in cases.into_iter().enumerate() {
        for (name, front_end) in front_ends {
            let (files, _, dir) = setup(&format!("failed_job_{c}_{}", &name[..4]), JOBS);
            if missing {
                std::fs::rename(&files[BAD], dir.join("gone")).unwrap();
            } else {
                let put = PremiaProblem::create("BlackScholes1dim", "PutAmer", "CF").unwrap();
                assert!(put.compute().is_err());
                riskbench::xdrser::save(&files[BAD], &put.to_value()).unwrap();
            }
            let (out, took) = with_watchdog(10, move || {
                let t = Instant::now();
                let out = front_end(&files, strategy);
                (out, t.elapsed())
            });
            match out {
                Ok(report) if name == "supervised" => {
                    assert_eq!(report.completed(), JOBS - 1, "{name}, {case}");
                    assert_eq!(report.failed_jobs, [BAD], "{name}, {case}");
                    // Four attempts: three retries, then abandoned.
                    assert_eq!(report.retries, 3, "{name}, {case}");
                }
                Err(FarmError::JobFailed { job, why }) if name != "supervised" => {
                    assert_eq!(job, BAD, "{name}, {case}: {why}");
                    assert!(!why.is_empty(), "{name}, {case}");
                }
                other => panic!("{name}, {case}: unexpected {other:?}"),
            }
            assert!(
                took < Duration::from_secs(1),
                "{name}, {case}: took {took:?}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
