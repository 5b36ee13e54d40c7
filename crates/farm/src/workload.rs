//! Typed workloads: classed jobs plus optional staged rounds with
//! cross-round data flow.
//!
//! PRs 1–9 speak one shape — a flat `Vec` of independent problems. The
//! related literature stresses richer ones: Labart–Lelong 2011 price
//! BSDEs by *iterated Picard sweeps*, where sweep `k + 1` consumes sweep
//! `k`'s answer — a farm workload with cross-round dependencies. A
//! [`Workload`] couples the classed job list with that round structure
//! and with the data links between rounds; [`run_workload`] drives it
//! through the live farm:
//!
//! * the round *barrier* is enforced by the pure scheduler
//!   ([`sched::SchedConfig::rounds`]) — so the decision trace of a staged
//!   live run is byte-identical to `clustersim`'s staged simulation,
//!   exactly as for flat workloads;
//! * the round *data flow* is a master-side pre-dispatch patch
//!   (`StagedPatch`): just before a round-dependent job's bytes go on
//!   the wire, its problem file is rewritten with the predecessor's
//!   price. Scheduling decisions never read payloads, so patching cannot
//!   perturb the trace.
//!
//! The staged BSDE run reproduces the in-process iteration *bit for
//! bit*: round `r`'s job runs one sweep from `y_prev` = round `r − 1`'s
//! price, which is precisely `pricing::methods::bsde::bsde_picard`'s
//! loop unrolled across the farm.

use crate::config::{run_with, FarmConfig};
use crate::portfolio::{save_portfolio, JobClass, PortfolioJob};
use crate::robin_hood::{FarmError, FarmReport, JobOutcome};
use pricing::{MethodSpec, PremiaProblem};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A classed job list with optional staged rounds and cross-round links.
#[derive(Debug, Clone)]
pub struct Workload {
    jobs: Vec<PortfolioJob>,
    /// `Some(r)`: `r[job]` is the job's round; `None`: flat batch.
    rounds: Option<Vec<usize>>,
    /// `preds[job] = Some(p)`: job consumes job `p`'s price as its
    /// starting iterate (`p` must sit in an earlier round).
    preds: Vec<Option<usize>>,
}

impl Workload {
    /// A flat batch of independent jobs — the PR 1–9 shape.
    pub fn batch(jobs: Vec<PortfolioJob>) -> Workload {
        let preds = vec![None; jobs.len()];
        Workload {
            jobs,
            rounds: None,
            preds,
        }
    }

    /// A Labart–Lelong Picard iteration as a staged workload: the
    /// problem's `picard_rounds` sweeps become that many single-job
    /// rounds, each running **one** sweep, each round `r > 0` consuming
    /// round `r − 1`'s price as its `y_prev`. The problem's method must
    /// be [`MethodSpec::Bsde`].
    pub fn bsde_picard(problem: PremiaProblem) -> Result<Workload, FarmError> {
        let MethodSpec::Bsde {
            paths,
            time_steps,
            rate_spread,
            picard_rounds,
            y_prev,
            seed,
        } = problem.method
        else {
            return Err(FarmError::Config(exec::ConfigIssues::one(
                "workload",
                format!(
                    "bsde_picard needs a MC_BSDE_LabartLelong method, got {}",
                    problem.method.name()
                ),
            )));
        };
        if picard_rounds < 1 {
            return Err(FarmError::Config(exec::ConfigIssues::one(
                "workload",
                "bsde_picard needs picard_rounds >= 1",
            )));
        }
        let jobs: Vec<PortfolioJob> = (0..picard_rounds)
            .map(|r| {
                let mut p = problem.clone();
                p.method = MethodSpec::Bsde {
                    paths,
                    time_steps,
                    rate_spread,
                    picard_rounds: 1,
                    // Round 0 starts from the declared iterate; later
                    // rounds are patched from the previous round's answer
                    // at dispatch time.
                    y_prev: if r == 0 { y_prev } else { 0.0 },
                    seed,
                };
                PortfolioJob {
                    id: r,
                    class: JobClass::BsdePicardMc,
                    problem: p,
                }
            })
            .collect();
        let preds = (0..picard_rounds)
            .map(|r| r.checked_sub(1))
            .collect();
        Ok(Workload {
            jobs,
            rounds: Some((0..picard_rounds).collect()),
            preds,
        })
    }

    /// The classed jobs, in scheduler order.
    pub fn jobs(&self) -> &[PortfolioJob] {
        &self.jobs
    }

    /// The round of each job, when staged.
    pub fn rounds(&self) -> Option<&[usize]> {
        self.rounds.as_deref()
    }

    /// Number of distinct rounds (1 for a flat batch).
    pub fn round_count(&self) -> usize {
        match &self.rounds {
            None => 1,
            Some(r) => r.iter().map(|&x| x + 1).max().unwrap_or(0),
        }
    }

    /// Job count per class, in [`JobClass::ALL`] order (absent classes
    /// omitted) — the mixed-request accounting `serve` and the benches
    /// report.
    pub fn class_mix(&self) -> BTreeMap<&'static str, usize> {
        let mut mix = BTreeMap::new();
        for j in &self.jobs {
            *mix.entry(class_name(j.class)).or_insert(0) += 1;
        }
        mix
    }
}

/// Class index of each job in [`JobClass::ALL`] order — the `class_of`
/// table [`obs::Breakdown::from_events_by_class`] consumes, so a
/// recorder-instrumented mixed run buckets compute seconds by each job's
/// *real* class rather than a `job % k` heuristic.
pub fn class_indices(jobs: &[PortfolioJob]) -> Vec<u64> {
    jobs.iter()
        .map(|j| {
            JobClass::ALL
                .iter()
                .position(|&c| c == j.class)
                .expect("every JobClass appears in ALL") as u64
        })
        .collect()
}

/// Per-class compute rollup of a recorded run: class name →
/// (compute-event count, compute seconds). Classes with no compute
/// events are omitted.
pub fn per_class_compute(
    events: &[obs::Event],
    jobs: &[PortfolioJob],
) -> BTreeMap<&'static str, (u64, f64)> {
    let b = obs::Breakdown::from_events_by_class(events, &class_indices(jobs));
    b.by_class
        .iter()
        .map(|(&ci, &v)| (class_name(JobClass::ALL[ci as usize]), v))
        .collect()
}

/// Stable display name of a class (the per-class breakdown key).
pub fn class_name(class: JobClass) -> &'static str {
    match class {
        JobClass::VanillaClosedForm => "vanilla_cf",
        JobClass::BarrierPde => "barrier_pde",
        JobClass::BasketMc => "basket_mc",
        JobClass::LocalVolMc => "localvol_mc",
        JobClass::AmericanPde => "american_pde",
        JobClass::AmericanBasketLsm => "american_lsm",
        JobClass::BermudanMaxLsm => "bermudan_max_lsm",
        JobClass::BsdePicardMc => "bsde_picard_mc",
        JobClass::XvaCvaMc => "xva_cva_mc",
    }
}

/// The master-side cross-round data flow of a staged workload: for each
/// job, the predecessor whose price becomes this job's starting iterate,
/// plus the base problems to rewrite. Applied by the plain driver just
/// before a dispatch send.
#[derive(Debug, Clone)]
pub(crate) struct StagedPatch {
    pred: Vec<Option<usize>>,
    problems: Vec<PremiaProblem>,
}

impl StagedPatch {
    /// Rewrite `files[job]` from the answers gathered so far, when the
    /// job declares a predecessor. The round barrier guarantees the
    /// predecessor answered before this dispatch; a miss is a scheduler
    /// bug surfaced loudly.
    pub(crate) fn apply(
        &self,
        job: usize,
        outcomes: &[JobOutcome],
        files: &[PathBuf],
    ) -> Result<(), FarmError> {
        let Some(pred) = self.pred.get(job).copied().flatten() else {
            return Ok(());
        };
        let price = outcomes
            .iter()
            .find(|o| o.job == pred)
            .map(|o| o.price)
            .ok_or_else(|| {
                FarmError::Protocol(format!(
                    "staged job {job} dispatched before predecessor {pred} answered"
                ))
            })?;
        let mut problem = self.problems[job].clone();
        match &mut problem.method {
            MethodSpec::Bsde { y_prev, .. } => *y_prev = price,
            other => {
                return Err(FarmError::Protocol(format!(
                    "job {job} declares a round predecessor but method {} takes no iterate",
                    other.name()
                )))
            }
        }
        xdrser::save(&files[job], &problem.to_value())
            .map_err(|e| FarmError::Io(format!("staged patch of job {job} failed: {e}")))?;
        Ok(())
    }
}

/// Save a workload's jobs into `dir` and run it through the live farm:
/// flat workloads behave exactly like [`crate::run`] over
/// [`save_portfolio`]'s files; staged workloads additionally declare
/// their rounds to the scheduler and patch cross-round answers into the
/// problem files between rounds.
pub fn run_workload(w: &Workload, dir: &Path, cfg: &FarmConfig) -> Result<FarmReport, FarmError> {
    let files = save_portfolio(w.jobs(), dir)
        .map_err(|e| FarmError::Io(format!("saving workload: {e}")))?;
    let mut cfg = cfg.clone();
    let patch = match &w.rounds {
        Some(rounds) => {
            cfg = cfg.rounds(rounds.clone());
            Some(StagedPatch {
                pred: w.preds.clone(),
                problems: w.jobs.iter().map(|j| j.problem.clone()).collect(),
            })
        }
        None => None,
    };
    run_with(&files, &cfg, patch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{mixed_portfolio, PortfolioScale};
    use crate::strategy::Transmission;
    use pricing::models::BlackScholes;
    use pricing::{ModelSpec, OptionSpec};

    impl Workload {
        /// Whether the workload declares staged rounds.
        fn is_staged(&self) -> bool {
            self.rounds.is_some()
        }
    }

    fn bsde_problem(picard_rounds: usize) -> PremiaProblem {
        PremiaProblem::new(
            ModelSpec::BlackScholes(BlackScholes::new(100.0, 0.2, 0.05, 0.0)),
            OptionSpec::Call {
                strike: 100.0,
                maturity: 1.0,
            },
            MethodSpec::Bsde {
                paths: 2_000,
                time_steps: 10,
                rate_spread: 0.05,
                picard_rounds,
                y_prev: 0.0,
                seed: 42,
            },
        )
    }

    #[test]
    fn bsde_picard_builds_one_job_per_round() {
        let w = Workload::bsde_picard(bsde_problem(4)).unwrap();
        assert_eq!(w.jobs().len(), 4);
        assert_eq!(w.rounds(), Some(&[0, 1, 2, 3][..]));
        assert_eq!(w.round_count(), 4);
        assert!(w.is_staged());
        for (r, j) in w.jobs().iter().enumerate() {
            assert_eq!(j.class, JobClass::BsdePicardMc);
            let MethodSpec::Bsde { picard_rounds, .. } = j.problem.method else {
                panic!("not a BSDE job");
            };
            assert_eq!(picard_rounds, 1, "round {r} runs exactly one sweep");
        }
        assert_eq!(w.preds, vec![None, Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn bsde_picard_rejects_other_methods() {
        let mut p = bsde_problem(2);
        p.method = MethodSpec::ClosedForm;
        assert!(matches!(
            Workload::bsde_picard(p),
            Err(FarmError::Config(_))
        ));
    }

    #[test]
    fn batch_workload_is_flat() {
        let w = Workload::batch(mixed_portfolio(PortfolioScale::Quick, 1));
        assert!(!w.is_staged());
        assert_eq!(w.round_count(), 1);
        let mix = w.class_mix();
        assert_eq!(mix["vanilla_cf"], 6);
        assert_eq!(mix["bsde_picard_mc"], 1);
        assert_eq!(mix["bermudan_max_lsm"], 1);
    }

    #[test]
    fn staged_bsde_farm_run_matches_in_process_picard_bit_for_bit() {
        use pricing::methods::bsde::{bsde_picard_iterates, BsdeConfig};
        use pricing::options::Vanilla;

        let rounds = 3;
        let w = Workload::bsde_picard(bsde_problem(rounds)).unwrap();
        let dir = std::env::temp_dir().join("farm_workload_bsde_staged");
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_workload(
            &w,
            &dir,
            &FarmConfig::new(2, Transmission::SerializedLoad).record_trace(true),
        )
        .unwrap();
        assert_eq!(report.completed(), rounds);

        // The in-process Picard loop, sequential — the farm's staged
        // rounds must reproduce every iterate exactly.
        let cfg = BsdeConfig {
            paths: 2_000,
            time_steps: 10,
            rate_spread: 0.05,
            picard_rounds: rounds,
            y_prev: 0.0,
            seed: 42,
        };
        let m = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
        let iterates = bsde_picard_iterates(&m, &Vanilla::european_call(100.0, 1.0), &cfg, None);
        let by_job = report.by_job();
        for (r, it) in iterates.iter().enumerate() {
            let (job, got, _) = by_job[r];
            assert_eq!(job, r);
            assert_eq!(
                got.to_bits(),
                it.price.to_bits(),
                "round {r}: farm {got} vs in-process {}",
                it.price
            );
        }
        // The decision trace exists and shows the round-major dispatch
        // order: one job in flight per round.
        let trace = report.trace.as_ref().expect("trace recorded").render();
        assert!(trace.contains("dispatch(0->1)"), "{trace}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flat_workload_matches_plain_run() {
        let jobs = mixed_portfolio(PortfolioScale::Quick, 1);
        let dir = std::env::temp_dir().join("farm_workload_flat");
        let _ = std::fs::remove_dir_all(&dir);
        let w = Workload::batch(jobs.clone());
        let via_workload = run_workload(
            &w,
            &dir,
            &FarmConfig::new(2, Transmission::SerializedLoad),
        )
        .unwrap();
        let files = save_portfolio(&jobs, &dir).unwrap();
        let plain = crate::config::run(&files, &FarmConfig::new(2, Transmission::SerializedLoad))
            .unwrap();
        let key = |r: &FarmReport| {
            let mut v: Vec<(usize, u64)> = r
                .outcomes
                .iter()
                .map(|o| (o.job, o.price.to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&via_workload), key(&plain));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorded_mixed_run_reports_per_class_compute() {
        use obs::Recorder;
        use std::sync::Arc;

        let jobs = mixed_portfolio(PortfolioScale::Quick, 1);
        let dir = std::env::temp_dir().join("farm_workload_classed_breakdown");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = Arc::new(Recorder::new(3));
        let w = Workload::batch(jobs.clone());
        let report = run_workload(
            &w,
            &dir,
            &FarmConfig::new(2, Transmission::SerializedLoad).recorder(rec.clone()),
        )
        .unwrap();
        assert_eq!(report.completed(), jobs.len());
        let by_class = per_class_compute(&rec.events(), &jobs);
        // Every class present in the mix shows up with its compute time.
        for (name, count) in w.class_mix() {
            let &(events, secs) = by_class
                .get(name)
                .unwrap_or_else(|| panic!("class {name} missing from breakdown"));
            assert_eq!(events as usize, count, "{name}");
            assert!(secs > 0.0, "{name} has zero compute seconds");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lpt_on_heavy_tailed_mix_beats_fifo_in_simulation() {
        // The per-class cost model feeds LPT; on the mixed portfolio's
        // heavy tail the predicted makespan (greedy list scheduling over
        // predicted grains) must strictly beat FIFO's. This is the
        // deterministic model-level check; a live wall-clock version
        // would be a timing claim, which only the `perf` harness makes.
        use crate::calibrate::paper_costs;
        let jobs = mixed_portfolio(PortfolioScale::Quick, 4);
        let model = paper_costs();
        let costs = model.lpt_costs(&jobs);
        let cpus = 4;
        let makespan = |order: &[usize]| -> f64 {
            let mut load = vec![0.0f64; cpus];
            for &j in order {
                let min = (0..cpus)
                    .min_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap())
                    .unwrap();
                load[min] += costs[j];
            }
            load.iter().fold(0.0f64, |a, &b| a.max(b))
        };
        let fifo: Vec<usize> = (0..jobs.len()).collect();
        let mut lpt = fifo.clone();
        lpt.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).unwrap());
        assert!(
            makespan(&lpt) < makespan(&fifo),
            "LPT {} !< FIFO {}",
            makespan(&lpt),
            makespan(&fifo)
        );
    }
}
