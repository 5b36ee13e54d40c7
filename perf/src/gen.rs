//! Seeded input generation. Everything a workload feeds the program —
//! job order, Monte-Carlo seeds, request contents, arrival times — is a
//! pure function of the `--seed` argument, drawn from the harness's own
//! generator so a change to the program's RNGs cannot move the inputs.

use farm::portfolio::{
    realistic_portfolio, representative_problem, toy_portfolio, JobClass, PortfolioJob,
    PortfolioScale,
};
use pricing::models::BlackScholes;
use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `0..n` (`n ≥ 1`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// Re-seed a problem's Monte-Carlo stream, if its method has one.
pub fn reseed(problem: &mut PremiaProblem, new_seed: u64) {
    match &mut problem.method {
        MethodSpec::MonteCarlo { seed, .. }
        | MethodSpec::Lsm { seed, .. }
        | MethodSpec::Bsde { seed, .. }
        | MethodSpec::Xva { seed, .. } => *seed = new_seed,
        _ => {}
    }
}

/// Which of the paper's portfolios a farm workload prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Portfolio {
    /// §4.2: `count` closed-form vanillas.
    Toy(usize),
    /// §4.3 composition at Quick scale, every `stride`-th claim.
    Realistic(usize),
}

/// The jobs of one farm workload, in the order the farm sees them:
/// every stochastic method re-seeded as `seed ^ job_id`, the list
/// permuted by `seed`, then renumbered so job `i` is file `i`.
pub fn farm_jobs(portfolio: Portfolio, seed: u64) -> Vec<PortfolioJob> {
    let mut jobs = match portfolio {
        Portfolio::Toy(count) => toy_portfolio(count),
        Portfolio::Realistic(stride) => realistic_portfolio(PortfolioScale::Quick, stride),
    };
    for job in &mut jobs {
        reseed(&mut job.problem, seed ^ job.id as u64);
    }
    shuffle(&mut jobs, &mut Rng::new(seed));
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = i;
    }
    jobs
}

/// Problems per request on both serve workloads.
pub const REQUEST_PROBLEMS: usize = 16;
/// Requests in the open-loop workload's repeated hot set.
pub const HOT_SET: usize = 64;
/// Share of open-loop requests re-drawn from the hot set.
const HOT_SHARE: f64 = 0.30;
/// Share of open-loop requests that carry one Monte-Carlo problem.
const HEAVY_SHARE: f64 = 0.05;

/// How an open-loop request relates to earlier traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Re-draw of hot-set entry `i`: the memo / coalescing read path.
    Hot(usize),
    /// Sixteen never-seen closed-form vanillas.
    Cold,
    /// A cold request plus one local-volatility Monte-Carlo problem.
    Heavy,
}

/// One generated request: when it is due (ns from the start of its
/// pass; 0 for closed-loop traffic) and what it asks.
#[derive(Debug, Clone)]
pub struct GenRequest {
    pub due_ns: u64,
    pub kind: RequestKind,
    pub problems: Vec<PremiaProblem>,
}

/// A never-repeated closed-form vanilla call: strike and maturity are
/// continuous draws, so two of them share serialized bytes with
/// probability ~2⁻⁵³.
fn fresh_vanilla(rng: &mut Rng) -> PremiaProblem {
    PremiaProblem::new(
        ModelSpec::BlackScholes(BlackScholes::new(100.0, 0.2, 0.05, 0.0)),
        OptionSpec::Call {
            strike: rng.uniform(70.0, 130.0),
            maturity: rng.uniform(0.25, 8.0),
        },
        MethodSpec::ClosedForm,
    )
}

fn fresh_request(rng: &mut Rng) -> Vec<PremiaProblem> {
    (0..REQUEST_PROBLEMS).map(|_| fresh_vanilla(rng)).collect()
}

/// The serve workloads' request stream: one generator state carried
/// across passes, so no pass ever repeats another's cold problems.
#[derive(Debug, Clone)]
pub struct ServeTraffic {
    rng: Rng,
    seed: u64,
    heavy_drawn: u64,
    hot: Vec<Vec<PremiaProblem>>,
}

impl ServeTraffic {
    pub fn new(seed: u64) -> ServeTraffic {
        let mut rng = Rng::new(seed);
        let hot = (0..HOT_SET).map(|_| fresh_request(&mut rng)).collect();
        ServeTraffic {
            rng,
            seed,
            heavy_drawn: 0,
            hot,
        }
    }

    /// The hot set, submitted once before timing so its answers are
    /// resident in the memo.
    pub fn hot_set(&self) -> &[Vec<PremiaProblem>] {
        &self.hot
    }

    /// `count` open-loop requests at `rate` per second with exponential
    /// gaps: 30 % hot re-draws, 65 % cold, 5 % heavy.
    pub fn open_pass(&mut self, count: usize, rate: f64) -> Vec<GenRequest> {
        let mut due_s = 0.0;
        (0..count)
            .map(|_| {
                due_s += self.rng.exponential(1.0 / rate);
                let u = self.rng.next_f64();
                let (kind, problems) = if u < HOT_SHARE {
                    let i = self.rng.below(HOT_SET);
                    (RequestKind::Hot(i), self.hot[i].clone())
                } else if u < HOT_SHARE + HEAVY_SHARE {
                    let mut problems = fresh_request(&mut self.rng);
                    let mut heavy =
                        representative_problem(JobClass::LocalVolMc, PortfolioScale::Quick).problem;
                    reseed(&mut heavy, self.seed ^ self.heavy_drawn);
                    self.heavy_drawn += 1;
                    problems.push(heavy);
                    (RequestKind::Heavy, problems)
                } else {
                    (RequestKind::Cold, fresh_request(&mut self.rng))
                };
                GenRequest {
                    due_ns: (due_s * 1e9) as u64,
                    kind,
                    problems,
                }
            })
            .collect()
    }

    /// `count` closed-loop requests: all cold, no schedule.
    pub fn closed_pass(&mut self, count: usize) -> Vec<GenRequest> {
        (0..count)
            .map(|_| GenRequest {
                due_ns: 0,
                kind: RequestKind::Cold,
                problems: fresh_request(&mut self.rng),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(jobs: &[PortfolioJob]) -> Vec<Vec<u8>> {
        jobs.iter()
            .map(|j| xdrser::serialize_to_bytes(&j.problem.to_value()))
            .collect()
    }

    fn mc_seeds(jobs: &[PortfolioJob]) -> Vec<u64> {
        jobs.iter()
            .filter_map(|j| match j.problem.method {
                MethodSpec::MonteCarlo { seed, .. } | MethodSpec::Lsm { seed, .. } => Some(seed),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn farm_jobs_are_a_pure_function_of_the_seed() {
        let a = farm_jobs(Portfolio::Realistic(64), 7);
        let b = farm_jobs(Portfolio::Realistic(64), 7);
        let c = farm_jobs(Portfolio::Realistic(64), 8);
        assert_eq!(
            bytes_of(&a),
            bytes_of(&b),
            "same seed, same file contents and order"
        );
        assert_eq!(mc_seeds(&a), mc_seeds(&b));
        assert_ne!(
            bytes_of(&a),
            bytes_of(&c),
            "another seed permutes and re-seeds"
        );
        assert_ne!(mc_seeds(&a), mc_seeds(&c));
        assert!(!mc_seeds(&a).is_empty());
        assert!(a.iter().enumerate().all(|(i, j)| j.id == i));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<usize> = (0..100).collect();
        shuffle(&mut xs, &mut Rng::new(1));
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
    }

    fn schedule(seed: u64) -> Vec<(u64, RequestKind, Vec<Vec<u8>>)> {
        let mut t = ServeTraffic::new(seed);
        t.open_pass(400, 1000.0)
            .into_iter()
            .map(|r| {
                let bytes = r
                    .problems
                    .iter()
                    .map(|p| xdrser::serialize_to_bytes(&p.to_value()))
                    .collect();
                (r.due_ns, r.kind, bytes)
            })
            .collect()
    }

    #[test]
    fn arrival_schedule_is_a_pure_function_of_the_seed() {
        assert_eq!(schedule(3), schedule(3));
        assert_ne!(schedule(3), schedule(4));
    }

    #[test]
    fn open_pass_has_the_stated_mix_and_rate() {
        let mut t = ServeTraffic::new(11);
        let reqs = t.open_pass(4000, 1000.0);
        let share = |f: fn(&RequestKind) -> bool| {
            reqs.iter().filter(|r| f(&r.kind)).count() as f64 / reqs.len() as f64
        };
        assert!((share(|k| matches!(k, RequestKind::Hot(_))) - 0.30).abs() < 0.03);
        assert!((share(|k| matches!(k, RequestKind::Heavy)) - 0.05).abs() < 0.015);
        assert!(reqs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let span_s = reqs.last().unwrap().due_ns as f64 / 1e9;
        assert!(
            (span_s - 4.0).abs() < 0.3,
            "4 000 requests at 1 000/s span {span_s} s"
        );
        for r in &reqs {
            let want = REQUEST_PROBLEMS + usize::from(r.kind == RequestKind::Heavy);
            assert_eq!(r.problems.len(), want);
        }
    }

    #[test]
    fn passes_never_repeat_cold_problems() {
        let mut t = ServeTraffic::new(5);
        let first = t.closed_pass(50);
        let second = t.closed_pass(50);
        let key = |r: &GenRequest| xdrser::serialize_to_bytes(&r.problems[0].to_value());
        let mut seen: Vec<Vec<u8>> = first.iter().chain(&second).map(key).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 100);
    }
}
