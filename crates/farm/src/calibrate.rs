//! Cost calibration: measure what one pricing problem of each §4.3 class
//! actually costs with our kernels, so the cluster simulator can replay
//! the tables with empirically grounded job durations.
//!
//! Two cost sources are exposed:
//!
//! * [`measured_costs`] — wall-clock measurements of this crate's kernels
//!   at a chosen scale, useful for live-vs-simulated agreement tests;
//! * [`paper_costs`] — the §4.3 narrative costs (vanilla ≈ ms, European
//!   MC/PDE 10–30 s, American > 60 s), used to regenerate the tables at
//!   the paper's own magnitudes.

use crate::portfolio::{realistic_portfolio, representative_problem, JobClass, PortfolioScale};
use std::collections::HashMap;
use std::time::Instant;

/// Cost model: per-class compute-time interval `(lo, hi)` in seconds; the
/// simulator draws uniformly from the interval, reproducing the paper's
/// "the time needed to compute a single price varies a lot".
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    costs: HashMap<JobClass, (f64, f64)>,
    /// Serialized size in bytes of one problem file of each class, for
    /// the network/NFS model.
    sizes: HashMap<JobClass, usize>,
}

impl CostModel {
    /// Compute-time interval (seconds) for one problem of the class.
    pub fn cost_range(&self, class: JobClass) -> (f64, f64) {
        self.costs[&class]
    }

    /// Serialized size in bytes of one problem file of the class.
    pub fn message_bytes(&self, class: JobClass) -> usize {
        self.sizes[&class]
    }

    /// The class's point-estimate grain (midpoint of its cost interval) —
    /// the predicted per-job cost LPT dispatch sorts by.
    pub fn grain_seconds(&self, class: JobClass) -> f64 {
        let (lo, hi) = self.costs[&class];
        0.5 * (lo + hi)
    }
}

fn representative_sizes() -> HashMap<JobClass, usize> {
    // Serialize one representative problem of each class and record its
    // file size.
    JobClass::ALL
        .iter()
        .map(|&class| {
            let job = representative_problem(class, PortfolioScale::Quick);
            (
                class,
                xdrser::serialize_to_bytes(&job.problem.to_value()).len(),
            )
        })
        .collect()
}

/// The §4.3 narrative cost model at the paper's magnitudes.
pub fn paper_costs() -> CostModel {
    CostModel {
        costs: JobClass::ALL
            .iter()
            .map(|&c| (c, c.paper_cost_seconds()))
            .collect(),
        sizes: representative_sizes(),
    }
}

/// Measure the real compute time of one problem per class at the given
/// scale (runs `repeats` instances and averages; the interval is
/// mean ± half-spread of the observations, floored at 20 % of the mean).
pub fn measured_costs(scale: PortfolioScale, repeats: usize) -> CostModel {
    assert!(repeats >= 1);
    let jobs = realistic_portfolio(scale, 1);
    let mut costs = HashMap::new();
    for class in JobClass::ALL {
        // §4.3 classes sample the realistic portfolio's own spread of
        // specs; the extension classes (absent from the paper
        // composition) repeat their canonical representative.
        let class_jobs: Vec<_> = jobs.iter().filter(|j| j.class == class).cloned().collect();
        let class_jobs = if class_jobs.is_empty() {
            vec![representative_problem(class, scale)]
        } else {
            class_jobs
        };
        let mut times = Vec::with_capacity(repeats);
        for k in 0..repeats {
            let job = &class_jobs[k * 37 % class_jobs.len()];
            let t0 = Instant::now();
            job.problem.compute().expect("calibration problem computes");
            times.push(t0.elapsed().as_secs_f64());
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let spread = times
            .iter()
            .fold(0.0f64, |acc, &t| acc.max((t - mean).abs()))
            .max(0.2 * mean);
        costs.insert(class, ((mean - spread).max(mean * 0.1), mean + spread));
    }
    CostModel {
        costs,
        sizes: representative_sizes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CostModel {
        /// Scale every cost by `factor` (used to map Quick-scale measurements
        /// onto Full-scale magnitudes).
        pub(crate) fn scaled(&self, factor: f64) -> CostModel {
            CostModel {
                costs: self
                    .costs
                    .iter()
                    .map(|(&k, &(lo, hi))| (k, (lo * factor, hi * factor)))
                    .collect(),
                sizes: self.sizes.clone(),
            }
        }

        /// Per-job predicted costs for a classed portfolio, in job order —
        /// the vector [`sched::DispatchPolicy::Lpt`] consumes. This is the
        /// bridge from the per-class cost model to the scheduler: with a
        /// heavy-tailed class mix LPT front-loads the American/Bermudan/BSDE
        /// grains instead of stranding one on the last dispatch.
        pub(crate) fn lpt_costs(&self, jobs: &[crate::portfolio::PortfolioJob]) -> Vec<f64> {
            jobs.iter().map(|j| self.grain_seconds(j.class)).collect()
        }
    }

    #[test]
    fn paper_costs_cover_all_classes() {
        let m = paper_costs();
        for class in JobClass::ALL {
            let (lo, hi) = m.cost_range(class);
            assert!(lo > 0.0 && hi >= lo, "{class:?}");
            assert!(m.message_bytes(class) > 0);
        }
    }

    #[test]
    fn paper_costs_reflect_heterogeneity() {
        let m = paper_costs();
        assert!(
            m.cost_range(JobClass::AmericanPde).0
                > m.cost_range(JobClass::VanillaClosedForm).1 * 1000.0
        );
    }

    #[test]
    fn measured_costs_positive_and_ordered() {
        let m = measured_costs(PortfolioScale::Quick, 1);
        for class in JobClass::ALL {
            let (lo, hi) = m.cost_range(class);
            assert!(lo > 0.0 && hi >= lo, "{class:?}: ({lo}, {hi})");
        }
        // Even at Quick scale, closed form must be much cheaper than the
        // PDE/MC classes.
        assert!(
            m.cost_range(JobClass::VanillaClosedForm).1 < m.cost_range(JobClass::AmericanPde).1
        );
    }

    #[test]
    fn scaling_multiplies_costs() {
        let m = paper_costs();
        let s = m.scaled(2.0);
        for class in JobClass::ALL {
            assert!((s.cost_range(class).0 - 2.0 * m.cost_range(class).0).abs() < 1e-12);
            assert_eq!(s.message_bytes(class), m.message_bytes(class));
        }
    }

    #[test]
    fn bsde_rounds_dominate_vanilla_mc_grains() {
        // The Labart–Lelong sweep regresses *and* simulates: one Picard
        // round must cost more than any single European Monte-Carlo
        // grain, or the staged rounds would be scheduling noise.
        let m = paper_costs();
        assert!(
            m.cost_range(JobClass::BsdePicardMc).0 > m.cost_range(JobClass::LocalVolMc).1,
            "BSDE round {:?} does not dominate vanilla MC {:?}",
            m.cost_range(JobClass::BsdePicardMc),
            m.cost_range(JobClass::LocalVolMc)
        );
    }

    #[test]
    fn lpt_costs_follow_job_classes() {
        use crate::portfolio::mixed_portfolio;
        let m = paper_costs();
        let jobs = mixed_portfolio(PortfolioScale::Quick, 2);
        let costs = m.lpt_costs(&jobs);
        assert_eq!(costs.len(), jobs.len());
        for (job, &c) in jobs.iter().zip(&costs) {
            assert_eq!(c, m.grain_seconds(job.class));
        }
        // The heavy tail is visible to LPT: the top predicted grain
        // outweighs the entire bottom half of the portfolio.
        let mut sorted = costs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bottom_half: f64 = sorted[..sorted.len() / 2].iter().sum();
        assert!(sorted[sorted.len() - 1] > bottom_half);
    }

    #[test]
    fn message_sizes_are_problem_file_sizes() {
        let m = paper_costs();
        // XDR-encoded problems are small structured records: hundreds of
        // bytes, not kilobytes.
        for class in JobClass::ALL {
            let b = m.message_bytes(class);
            assert!(b > 100 && b < 4096, "{class:?}: {b} bytes");
        }
    }
}
