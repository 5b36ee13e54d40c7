//! The six live workloads. Each one stages inputs generated from the
//! seed, then repeats fixed-size *passes* through one public entry point
//! of the program (`farm::run`, a scripted `minimpi::World`, or a
//! resident `serve::Session`), checking every returned price bit for bit
//! against an in-process `PremiaProblem::compute()`.

use crate::gen::{self, GenRequest, Portfolio, RequestKind, ServeTraffic};
use crate::trace::Tracer;
use farm::portfolio::{save_portfolio, PortfolioJob};
use farm::{FarmConfig, Transmission};
use minimpi::World;
use nsplang::{Engine, Interp, NValue};
use obs::Recorder;
use pricing::PremiaProblem;
use serve::{Request, ServeConfig, ServeError, Session, SessionReport};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name and one-line reason of a workload, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the acceptance driver runs it and
    /// holds it to the bounds. The driver's time limit covers 4 + 22 runs
    /// per listed workload, and a run must be long for its medians to be
    /// steady on the shared host, so four are listed — one per group of
    /// layers — and run for 30 s each. The other two run by hand and
    /// under `perf all`: `table2_full` differs from `table2_sload` only
    /// in the master's load/serialize step, and `serve_open`'s request
    /// latency is mostly the VM waking an idle CPU (ten-run spread
    /// 25-49 % whatever is done to it).
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "table2_sload",
        why: "10 000 closed-form jobs, serialized load: per-job store/xdr/minimpi/transport/sched overhead is the whole run; kernel changes must show nothing",
        gated: true,
    },
    WorkloadDef {
        name: "table2_full",
        why: "same portfolio, full load: master loads, materialises and re-serializes every problem, so xdr/nspval read paths are timed beside the write paths",
        gated: false,
    },
    WorkloadDef {
        name: "table3_mix",
        why: "1 985 jobs in the paper's six-class mix: >95 % of wall-clock is pricing/exec/numerics, so it bypasses every comms change and targets kernel changes",
        gated: true,
    },
    WorkloadDef {
        name: "fig4_script",
        why: "the Fig. 4 farm as an nsplang script on every rank (VM engine), 2 000 toy jobs: same wire protocol as table2_sload but nsplang dominates",
        gated: true,
    },
    WorkloadDef {
        name: "serve_open",
        why: "open loop at 1 000 req/s, 30 % hot-set repeats, 5 % carry a Monte-Carlo problem: paced traffic through memo, coalescing and queueing, timed from due time",
        gated: false,
    },
    WorkloadDef {
        name: "serve_closed",
        why: "closed loop, 2 requests outstanding, every request 16 never-seen problems: saturated all-miss traffic, the opposite use of serve from serve_open",
        gated: true,
    },
];

/// Jobs in the §4.2 toy portfolio.
const TABLE2_JOBS: usize = 10_000;
/// Stride over the §4.3 portfolio (7 931 claims → 1 985).
const TABLE3_STRIDE: usize = 4;
/// Toy problems the scripted farm prices per pass.
const FIG4_JOBS: usize = 2_000;
/// Open-loop arrival rate and requests per pass (a 2-second window).
pub const OPEN_RATE: f64 = 1_000.0;
pub const OPEN_REQUESTS: usize = 2_000;
/// Closed-loop requests per pass, and how many the client keeps
/// outstanding: one in service and one queued behind it, so admission
/// and the front loop are never idle.
const CLOSED_REQUESTS: usize = 4_000;
const CLOSED_DEPTH: usize = 2;
/// Per-request latency limit on the serve workloads.
pub const LATENCY_LIMIT_US: f64 = 10_000.0;
/// Recorder ring capacity per rank on traced passes: enough for the
/// ~6 events per problem of a closed-loop pass (64 000 problems), the
/// largest, so nothing is dropped.
const RING_CAPACITY: usize = 1 << 20;

pub const FIG4_SCRIPT: &str = include_str!("../../scripts/fig4_farm.nsp");

/// What one pass did and how long it took.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall-clock around the public call(s) of the pass.
    pub wall_s: f64,
    /// The pass follows a schedule (open loop): its wall-clock is the
    /// schedule's length, not a measure of the program or the host.
    pub paced: bool,
    /// Problems priced (the numerator of `jobs_per_s`).
    pub problems: u64,
    /// Operations attempted and failed: jobs for a farm or script pass,
    /// requests for a serve pass. A wrong price is a failure.
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each request in µs. A farm or script pass is one
    /// request: the caller waits for the whole portfolio.
    pub latencies_us: Vec<f64>,
    /// Program-side events of a traced pass, with the ring overflow count.
    pub events: Option<(Vec<obs::Event>, u64)>,
    /// Offset that maps the events' clock onto the tracer's.
    pub events_offset_ns: u64,
    /// Serve only: seconds the in-process reference of this pass's
    /// never-seen problems took (a farm's reference is computed once).
    pub reference_s: f64,
    /// Farm only: jobs the master re-dispatched.
    pub retries: u64,
    pub serve: Option<ServePass>,
}

/// Serve-only pass detail.
#[derive(Debug, Default)]
pub struct ServePass {
    /// Latency of requests answered with no / every problem memoised.
    pub cold_us: Vec<f64>,
    pub warm_us: Vec<f64>,
    /// Time inside `Session::submit` per request.
    pub submit_us: Vec<f64>,
    /// How late the generator called `submit` (open loop only).
    pub gen_lag_us: Vec<f64>,
    pub shed: u64,
    pub over_limit: u64,
    /// Lifetime counters of a session that was shut down after the pass.
    pub report: Option<SessionReport>,
    pub start_us: f64,
    pub shutdown_us: f64,
}

/// A staged workload.
pub trait Workload {
    /// Price every input in-process, single-threaded, and keep the
    /// answers as the reference. Returns the seconds each problem took.
    fn compute_reference(&mut self) -> Result<Vec<f64>, String>;
    /// One pass. `traced` attaches an `obs::Recorder` to the program.
    fn pass(&mut self, traced: bool, tr: &mut Tracer, pass_id: u64) -> Result<Pass, String>;
    /// Undo a set-up so another can follow: stop the session, or empty
    /// the staged files. The files themselves stay, zero bytes long:
    /// creating ten thousand inodes costs this box's kernel anything
    /// from 0.1 s to 3 s with no disk I/O involved, which is noise no
    /// change to the program could move, so only the first staging of a
    /// run pays it and that one is not timed.
    fn unstage(self: Box<Self>) -> Result<(), String>;
    /// Release threads and files for good.
    fn finish(self: Box<Self>) -> Result<(), String>;
    /// The farm inputs, for the layer replays (none for serve).
    fn farm_inputs(&self) -> Option<(&[PortfolioJob], &[PathBuf], Transmission)>;
    /// A sample of the problems the workload prices, for the replays.
    fn sample_problems(&self) -> Vec<PremiaProblem>;
    /// Open-loop workloads only: one untraced pass of `count` requests
    /// at `rate` per second, for the rate ladder.
    fn pass_at_rate(
        &mut self,
        _rate: f64,
        _count: usize,
        _tr: &mut Tracer,
        _pass_id: u64,
    ) -> Option<Result<Pass, String>> {
        None
    }
}

/// Everything `setup` needs to stage one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub seed: u64,
    pub slaves: usize,
    /// Scratch directory of this run.
    pub workdir: PathBuf,
}

/// One set-up of the named workload from scratch: generate the inputs
/// from the seed and stage them the way the program reads them
/// (`save_portfolio`, or `Session::start`).
pub fn setup(spec: &Spec, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    let dir = spec.workdir.join("portfolio");
    let farm = |portfolio, strategy, tr: &mut Tracer| -> Result<Box<dyn Workload>, String> {
        Ok(Box::new(FarmLive::stage(
            spec, portfolio, strategy, &dir, tr,
        )?))
    };
    match spec.name {
        "table2_sload" => farm(
            Portfolio::Toy(TABLE2_JOBS),
            Transmission::SerializedLoad,
            tr,
        ),
        "table2_full" => farm(Portfolio::Toy(TABLE2_JOBS), Transmission::FullLoad, tr),
        "table3_mix" => farm(
            Portfolio::Realistic(TABLE3_STRIDE),
            Transmission::SerializedLoad,
            tr,
        ),
        "fig4_script" => Ok(Box::new(ScriptLive::stage(spec, &dir, tr)?)),
        "serve_open" => Ok(Box::new(ServeLive::stage(spec, true, tr)?)),
        "serve_closed" => Ok(Box::new(ServeLive::stage(spec, false, tr)?)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn price_bits(p: &PremiaProblem) -> Result<u64, String> {
    p.compute()
        .map(|r| r.price.to_bits())
        .map_err(|e| format!("reference compute of {} failed: {e}", p.label()))
}

/// Reference bits and per-problem seconds of `problems`, in order.
pub fn reference_of<'a>(
    problems: impl Iterator<Item = &'a PremiaProblem>,
) -> Result<(Vec<u64>, Vec<f64>), String> {
    let mut bits = Vec::new();
    let mut secs = Vec::new();
    for p in problems {
        let t0 = Instant::now();
        bits.push(price_bits(p)?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((bits, secs))
}

/// Truncate every file to zero bytes, keeping its inode.
fn empty_files(files: &[PathBuf]) -> Result<(), String> {
    for path in files {
        std::fs::File::create(path).map_err(|e| format!("truncate {path:?}: {e}"))?;
    }
    Ok(())
}

/// Jobs of a farm report that are missing or whose price is not
/// bit-equal to `reference[job]`.
pub fn wrong_prices(report: &farm::FarmReport, reference: &[u64]) -> u64 {
    let mut right = vec![false; reference.len()];
    for o in &report.outcomes {
        if reference.get(o.job) == Some(&o.price.to_bits()) {
            right[o.job] = true;
        }
    }
    right.iter().filter(|ok| !**ok).count() as u64
}

/// Save `jobs` into `dir` under the names the Fig. 4 script reads,
/// `pb-1.bin` … `pb-N.bin`, and return the script pointed at `dir`.
pub fn save_for_script(
    jobs: &[PortfolioJob],
    dir: &Path,
) -> Result<(Vec<PathBuf>, String), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let mut files = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        let path = dir.join(format!("pb-{}.bin", k + 1));
        xdrser::save(&path, &job.problem.to_value()).map_err(|e| format!("save: {e}"))?;
        files.push(path);
    }
    Ok((files, script_over(dir)?))
}

/// The Fig. 4 script reads `portfolio/…` relative to the process's
/// working directory; point it at `dir` instead.
pub fn script_over(dir: &Path) -> Result<String, String> {
    let prefix = format!("{}/", dir.display());
    if prefix.contains('\'') {
        return Err(format!("directory {prefix:?} cannot be quoted in a script"));
    }
    Ok(FIG4_SCRIPT.replace("portfolio/", &prefix))
}

fn fresh_recorder(traced: bool, ranks: usize) -> Option<Arc<Recorder>> {
    traced.then(|| Arc::new(Recorder::with_capacity(ranks, RING_CAPACITY)))
}

/// Drain a recorder into a pass. `tracer_at_birth` / `rec_at_birth` are
/// one simultaneous reading of both clocks.
fn attach_events(pass: &mut Pass, rec: &Recorder, tracer_now_ns: u64) {
    pass.events_offset_ns = tracer_now_ns.saturating_sub(rec.now_ns());
    pass.events = Some((rec.events(), rec.dropped()));
}

// ---------------------------------------------------------------------------
// table2_sload / table2_full / table3_mix: farm::run over saved files
// ---------------------------------------------------------------------------

struct FarmLive {
    jobs: Vec<PortfolioJob>,
    files: Vec<PathBuf>,
    strategy: Transmission,
    slaves: usize,
    reference: Vec<u64>,
    dir: PathBuf,
}

impl FarmLive {
    fn stage(
        spec: &Spec,
        portfolio: Portfolio,
        strategy: Transmission,
        dir: &Path,
        tr: &mut Tracer,
    ) -> Result<FarmLive, String> {
        let jobs = tr.span("gen::farm_jobs", 0, || gen::farm_jobs(portfolio, spec.seed));
        let files = tr
            .span("farm::save_portfolio", 0, || save_portfolio(&jobs, dir))
            .map_err(|e| format!("save_portfolio: {e}"))?;
        tr.count("files_saved", files.len() as u64);
        Ok(FarmLive {
            jobs,
            files,
            strategy,
            slaves: spec.slaves,
            reference: Vec::new(),
            dir: dir.to_path_buf(),
        })
    }
}

impl Workload for FarmLive {
    fn compute_reference(&mut self) -> Result<Vec<f64>, String> {
        let (bits, secs) = reference_of(self.jobs.iter().map(|j| &j.problem))?;
        self.reference = bits;
        Ok(secs)
    }

    fn pass(&mut self, traced: bool, tr: &mut Tracer, pass_id: u64) -> Result<Pass, String> {
        let rec = fresh_recorder(traced, self.slaves + 1);
        let mut cfg = FarmConfig::new(self.slaves, self.strategy);
        if let Some(r) = &rec {
            cfg = cfg.recorder(r.clone());
        }
        let span = tr.begin("farm::run", pass_id);
        let t0 = Instant::now();
        let report = farm::run(&self.files, &cfg);
        let wall_s = t0.elapsed().as_secs_f64();
        tr.end(span);
        let report = report.map_err(|e| format!("farm::run: {e}"))?;

        let n = self.files.len();
        let failed = wrong_prices(&report, &self.reference);
        tr.count("farm_jobs", n as u64);
        let mut pass = Pass {
            wall_s,
            problems: n as u64 - failed,
            attempted: n as u64,
            failed,
            latencies_us: vec![wall_s * 1e6],
            retries: report.retries as u64,
            ..Pass::default()
        };
        if let Some(r) = &rec {
            attach_events(&mut pass, r, tr.now_ns());
        }
        Ok(pass)
    }

    fn unstage(self: Box<Self>) -> Result<(), String> {
        empty_files(&self.files)
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("remove {:?}: {e}", self.dir))
    }

    fn farm_inputs(&self) -> Option<(&[PortfolioJob], &[PathBuf], Transmission)> {
        Some((&self.jobs, &self.files, self.strategy))
    }

    fn sample_problems(&self) -> Vec<PremiaProblem> {
        self.jobs
            .iter()
            .take(256)
            .map(|j| j.problem.clone())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// fig4_script: the Fig. 4 script on every rank of a minimpi world
// ---------------------------------------------------------------------------

struct ScriptLive {
    jobs: Vec<PortfolioJob>,
    files: Vec<PathBuf>,
    script: String,
    slaves: usize,
    /// Reference bits, sorted: the script's result list is in completion
    /// order and carries no job id, so price sets are compared.
    reference_sorted: Vec<u64>,
    dir: PathBuf,
}

impl ScriptLive {
    fn stage(spec: &Spec, dir: &Path, tr: &mut Tracer) -> Result<ScriptLive, String> {
        let jobs = tr.span("gen::farm_jobs", 0, || {
            gen::farm_jobs(Portfolio::Toy(FIG4_JOBS), spec.seed)
        });
        let (files, script) = tr.span("xdrser::save", 0, || save_for_script(&jobs, dir))?;
        Ok(ScriptLive {
            jobs,
            files,
            script,
            slaves: spec.slaves,
            reference_sorted: Vec::new(),
            dir: dir.to_path_buf(),
        })
    }
}

/// Run `script` on every rank of a `slaves + 1` world (VM engine) with
/// `n_jobs` bound, as `mpirun nsp -f fig4_farm.nsp` would.
pub fn run_script_world(
    script: &str,
    n_jobs: usize,
    slaves: usize,
    rec: Option<Arc<Recorder>>,
) -> Result<(), String> {
    let results = World::run_instrumented(slaves + 1, None, rec, |comm| {
        let mut interp = Interp::with_comm(Rc::new(comm));
        interp.set_engine(Engine::Vm);
        interp.set("n_jobs", NValue::scalar(n_jobs as f64));
        interp.run(script).map_err(|e| e.to_string())
    });
    results.into_iter().collect()
}

/// Prices out of the script's saved result list `list(list(slave, price), …)`.
fn script_prices(path: &Path) -> Result<Vec<u64>, String> {
    let v = xdrser::load(path).map_err(|e| format!("load {path:?}: {e}"))?;
    let list = v.as_list().ok_or("pb-res.bin is not a list")?;
    list.iter()
        .map(|entry| {
            entry
                .as_list()
                .and_then(|pair| pair.get(1))
                .and_then(|price| price.as_scalar())
                .map(f64::to_bits)
                .ok_or_else(|| "malformed result entry".to_string())
        })
        .collect()
}

/// Entries of sorted `got` that have no partner in sorted `want`.
fn unmatched(got: &[u64], want: &[u64]) -> u64 {
    let (mut i, mut j, mut matched) = (0, 0, 0u64);
    while i < got.len() && j < want.len() {
        match got[i].cmp(&want[j]) {
            std::cmp::Ordering::Equal => {
                matched += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    want.len() as u64 - matched
}

impl Workload for ScriptLive {
    fn compute_reference(&mut self) -> Result<Vec<f64>, String> {
        let (mut bits, secs) = reference_of(self.jobs.iter().map(|j| &j.problem))?;
        bits.sort_unstable();
        self.reference_sorted = bits;
        Ok(secs)
    }

    fn pass(&mut self, traced: bool, tr: &mut Tracer, pass_id: u64) -> Result<Pass, String> {
        let rec = fresh_recorder(traced, self.slaves + 1);
        let n = self.jobs.len();
        let res_path = self.dir.join("pb-res.bin");
        let _ = std::fs::remove_file(&res_path);
        let span = tr.begin("Interp::run", pass_id);
        let t0 = Instant::now();
        let ran = run_script_world(&self.script, n, self.slaves, rec.clone());
        let wall_s = t0.elapsed().as_secs_f64();
        tr.end(span);
        ran?;

        let mut got = script_prices(&res_path)?;
        got.sort_unstable();
        let failed = unmatched(&got, &self.reference_sorted);
        tr.count("script_jobs", n as u64);
        let mut pass = Pass {
            wall_s,
            problems: n as u64 - failed,
            attempted: n as u64,
            failed,
            latencies_us: vec![wall_s * 1e6],
            ..Pass::default()
        };
        if let Some(r) = &rec {
            attach_events(&mut pass, r, tr.now_ns());
        }
        Ok(pass)
    }

    fn unstage(self: Box<Self>) -> Result<(), String> {
        empty_files(&self.files)
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("remove {:?}: {e}", self.dir))
    }

    fn farm_inputs(&self) -> Option<(&[PortfolioJob], &[PathBuf], Transmission)> {
        Some((&self.jobs, &self.files, Transmission::SerializedLoad))
    }

    fn sample_problems(&self) -> Vec<PremiaProblem> {
        self.jobs
            .iter()
            .take(256)
            .map(|j| j.problem.clone())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// serve_open / serve_closed: one resident serve::Session
// ---------------------------------------------------------------------------

/// One request the open-loop driver fired.
#[derive(Debug)]
pub struct Fired<T> {
    /// How long after its due time `submit` was called.
    pub lag_ns: u64,
    /// Time inside `submit`.
    pub submit_ns: u64,
    pub out: T,
}

/// Sleep most of the way to `deadline`, then spin: a sleeping thread
/// wakes up to ~60 µs late, which at 1 000 req/s would be a visible
/// share of every latency.
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The open-loop scheduler: call `submit(i)` at `t0 + due_ns[i]`,
/// whatever earlier calls did. A `submit` that stalls makes the
/// requests behind it late, and their lateness is part of their
/// latency: every request is timed from the instant it was due.
pub fn drive_open<T>(due_ns: &[u64], mut submit: impl FnMut(usize) -> T) -> Vec<Fired<T>> {
    let t0 = Instant::now();
    due_ns
        .iter()
        .enumerate()
        .map(|(i, &due)| {
            let due_at = t0 + Duration::from_nanos(due);
            wait_until(due_at);
            let called = Instant::now();
            let out = submit(i);
            Fired {
                lag_ns: (called - due_at).as_nanos() as u64,
                submit_ns: called.elapsed().as_nanos() as u64,
                out,
            }
        })
        .collect()
}

struct ServeLive {
    open: bool,
    slaves: usize,
    traffic: ServeTraffic,
    /// The resident session untraced passes share.
    session: Session,
    /// Reference bits of the hot set, by hot index then problem.
    hot_reference: Vec<Vec<u64>>,
}

/// A session with the default configuration — except, under the
/// open-loop generator, a queue deep enough for a whole pass: a stall of
/// the box (they reach 50 ms here) must show as latency of the requests
/// behind it, the way an open loop's queue grows, not as requests shed
/// at the default depth (32 for this priority) and counted as failures
/// of the run.
fn start_session(slaves: usize, open: bool, rec: Option<Arc<Recorder>>) -> Result<Session, String> {
    let mut cfg = ServeConfig::new(slaves);
    if open {
        cfg = cfg.queue_depth(2 * OPEN_REQUESTS);
    }
    if let Some(r) = rec {
        cfg = cfg.recorder(r);
    }
    Session::start(cfg).map_err(|e| format!("Session::start: {e}"))
}

/// Submit the hot set once and wait for it: the world is up, its lazy
/// set-up is done, and (open loop) the repeated answers are in the memo.
/// Part of a serve set-up — `Session::start` alone returns before the
/// world exists and takes 50 µs, too little to time steadily.
fn warm_hot_set(session: &Session, traffic: &ServeTraffic) -> Result<(), String> {
    for problems in traffic.hot_set() {
        session
            .submit(Request::new(problems.clone()))
            .and_then(|t| t.wait())
            .map_err(|e| format!("hot-set warm-up: {e}"))?;
    }
    Ok(())
}

impl ServeLive {
    fn stage(spec: &Spec, open: bool, tr: &mut Tracer) -> Result<ServeLive, String> {
        let traffic = tr.span("gen::ServeTraffic", 0, || ServeTraffic::new(spec.seed));
        let session = tr.span("Session::start", 0, || {
            start_session(spec.slaves, open, None)
        })?;
        tr.span("warm_hot_set", 0, || warm_hot_set(&session, &traffic))?;
        Ok(ServeLive {
            open,
            slaves: spec.slaves,
            traffic,
            session,
            hot_reference: Vec::new(),
        })
    }

    /// Check one response against the in-process reference; `true` when
    /// every price is bit-equal — a memoised answer against the same
    /// fresh compute as a cold one. Adds the reference's compute time to
    /// `reference_s`.
    fn verify(
        &self,
        req: &GenRequest,
        resp: &serve::Response,
        reference_s: &mut f64,
    ) -> Result<bool, String> {
        if resp.results.len() != req.problems.len() {
            return Ok(false);
        }
        let mut ok = true;
        for (k, (p, r)) in req.problems.iter().zip(&resp.results).enumerate() {
            let want = match req.kind {
                RequestKind::Hot(i) => self.hot_reference[i][k],
                _ => {
                    let t0 = Instant::now();
                    let bits = price_bits(p)?;
                    *reference_s += t0.elapsed().as_secs_f64();
                    bits
                }
            };
            ok &= matches!(r, Ok(priced) if priced.price.to_bits() == want);
        }
        Ok(ok)
    }

    fn run_pass(
        &mut self,
        traced: bool,
        rate: f64,
        count: usize,
        tr: &mut Tracer,
        pass_id: u64,
    ) -> Result<Pass, String> {
        let reqs = if self.open {
            self.traffic.open_pass(count, rate)
        } else {
            self.traffic.closed_pass(count)
        };
        let mut built: Vec<Option<Request>> = reqs
            .iter()
            .map(|r| Some(Request::new(r.problems.clone())))
            .collect();

        // A traced pass runs on a session of its own, so it gets a
        // fresh recorder and a shutdown report; untraced passes share
        // the resident one.
        let mut detail = ServePass::default();
        let rec = fresh_recorder(traced, self.slaves + 1);
        let own_session = if traced {
            let span = tr.begin("Session::start", pass_id);
            let t0 = Instant::now();
            let s = start_session(self.slaves, self.open, rec.clone());
            detail.start_us = t0.elapsed().as_secs_f64() * 1e6;
            tr.end(span);
            let s = s?;
            warm_hot_set(&s, &self.traffic)?;
            Some(s)
        } else {
            None
        };
        let session = own_session.as_ref().unwrap_or(&self.session);

        // (request index, µs until `submit` returned counted from the
        // due time or the call, response or shed)
        let mut answered: Vec<(usize, f64, Result<serve::Response, ServeError>)> =
            Vec::with_capacity(reqs.len());
        let pass_span = tr.begin(
            if self.open {
                "open_pass"
            } else {
                "closed_pass"
            },
            pass_id,
        );
        let t0 = Instant::now();
        if self.open {
            let due: Vec<u64> = reqs.iter().map(|r| r.due_ns).collect();
            let fired = drive_open(&due, |i| {
                let req = built[i].take().expect("each request is submitted once");
                session.submit(req)
            });
            let wait_span = tr.begin("Ticket::wait", pass_id);
            for (i, f) in fired.into_iter().enumerate() {
                detail.gen_lag_us.push(f.lag_ns as f64 / 1e3);
                detail.submit_us.push(f.submit_ns as f64 / 1e3);
                let before_service_us = (f.lag_ns + f.submit_ns) as f64 / 1e3;
                answered.push((i, before_service_us, f.out.and_then(|t| t.wait())));
            }
            tr.end(wait_span);
        } else {
            // Closed loop: wait for the oldest outstanding request
            // before submitting the next.
            let mut outstanding: VecDeque<(usize, Instant, serve::Ticket)> = VecDeque::new();
            let settle = |(i, called, ticket): (usize, Instant, serve::Ticket),
                          answered: &mut Vec<_>| {
                let resp = ticket.wait();
                // Client-side latency: submit call to wait return.
                answered.push((i, called.elapsed().as_secs_f64() * 1e6, resp));
            };
            for (i, slot) in built.iter_mut().enumerate() {
                if outstanding.len() == CLOSED_DEPTH {
                    let oldest = outstanding.pop_front().expect("CLOSED_DEPTH ≥ 1");
                    settle(oldest, &mut answered);
                }
                let req = slot.take().expect("each request is submitted once");
                let called = Instant::now();
                match session.submit(req) {
                    Ok(ticket) => {
                        detail.submit_us.push(called.elapsed().as_secs_f64() * 1e6);
                        outstanding.push_back((i, called, ticket));
                    }
                    Err(e) => answered.push((i, 0.0, Err(e))),
                }
            }
            for entry in outstanding.drain(..) {
                settle(entry, &mut answered);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        tr.end(pass_span);
        tr.count("requests", reqs.len() as u64);

        let mut pass = Pass {
            wall_s,
            paced: self.open,
            attempted: reqs.len() as u64,
            ..Pass::default()
        };
        for (i, client_us, outcome) in answered {
            let req = &reqs[i];
            let resp = match outcome {
                Ok(r) => r,
                Err(ServeError::Overloaded { .. }) => {
                    detail.shed += 1;
                    pass.failed += 1;
                    continue;
                }
                Err(e) => return Err(format!("request {i}: {e}")),
            };
            // Open loop: time from the due instant = lateness + submit +
            // the session's own submit-to-answer latency. Closed loop:
            // the client-side reading already spans all of it.
            let latency_us = if self.open {
                client_us + resp.latency.as_secs_f64() * 1e6
            } else {
                client_us
            };
            if !self.verify(req, &resp, &mut pass.reference_s)? {
                pass.failed += 1;
                continue;
            }
            pass.problems += req.problems.len() as u64;
            pass.latencies_us.push(latency_us);
            if latency_us > LATENCY_LIMIT_US {
                detail.over_limit += 1;
            }
            match resp.memoised_count() {
                0 => detail.cold_us.push(latency_us),
                m if m == req.problems.len() => detail.warm_us.push(latency_us),
                _ => {}
            }
        }

        if let Some(s) = own_session {
            let span = tr.begin("Session::shutdown", pass_id);
            let t0 = Instant::now();
            let report = s.shutdown();
            detail.shutdown_us = t0.elapsed().as_secs_f64() * 1e6;
            tr.end(span);
            detail.report = Some(report.map_err(|e| format!("shutdown: {e}"))?);
        }
        if let Some(r) = &rec {
            attach_events(&mut pass, r, tr.now_ns());
        }
        pass.serve = Some(detail);
        Ok(pass)
    }
}

impl Workload for ServeLive {
    fn compute_reference(&mut self) -> Result<Vec<f64>, String> {
        let mut secs = Vec::new();
        self.hot_reference.clear();
        for problems in self.traffic.hot_set() {
            let (bits, s) = reference_of(problems.iter())?;
            self.hot_reference.push(bits);
            secs.extend(s);
        }
        Ok(secs)
    }

    fn pass(&mut self, traced: bool, tr: &mut Tracer, pass_id: u64) -> Result<Pass, String> {
        if self.open {
            self.run_pass(traced, OPEN_RATE, OPEN_REQUESTS, tr, pass_id)
        } else {
            self.run_pass(traced, 0.0, CLOSED_REQUESTS, tr, pass_id)
        }
    }

    fn pass_at_rate(
        &mut self,
        rate: f64,
        count: usize,
        tr: &mut Tracer,
        pass_id: u64,
    ) -> Option<Result<Pass, String>> {
        self.open
            .then(|| self.run_pass(false, rate, count, tr, pass_id))
    }

    fn unstage(self: Box<Self>) -> Result<(), String> {
        self.finish()
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        let report = self.session.shutdown();
        report.map(|_| ()).map_err(|e| format!("shutdown: {e}"))
    }

    fn farm_inputs(&self) -> Option<(&[PortfolioJob], &[PathBuf], Transmission)> {
        None
    }

    fn sample_problems(&self) -> Vec<PremiaProblem> {
        self.traffic
            .hot_set()
            .iter()
            .flatten()
            .take(256)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_due_time_through_a_stall() {
        // Ten requests due 2 ms apart; the sink stalls 30 ms on request
        // 2. The scheduler must not re-base: requests 3.. were due while
        // the sink was stuck, so they fire late and carry that lateness.
        let due: Vec<u64> = (0..10).map(|i| i * 2_000_000).collect();
        let fired = drive_open(&due, |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(30));
            }
            i
        });
        assert_eq!(
            fired.iter().map(|f| f.out).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert!(fired[2].submit_ns >= 30_000_000);
        assert!(
            fired[1].lag_ns < 5_000_000,
            "before the stall the generator is on time"
        );
        // Request 3 was due 2 ms into a 30 ms stall → ≥ 25 ms late;
        // each later one is 2 ms less late as the backlog drains.
        assert!(fired[3].lag_ns >= 25_000_000, "lag {}", fired[3].lag_ns);
        assert!(fired[4].lag_ns >= 23_000_000);
        assert!(fired[4].lag_ns < fired[3].lag_ns);
    }

    #[test]
    fn unmatched_counts_the_multiset_difference() {
        assert_eq!(unmatched(&[1, 2, 2, 5], &[1, 2, 2, 5]), 0);
        assert_eq!(unmatched(&[1, 2, 5], &[1, 2, 2, 5]), 1);
        assert_eq!(unmatched(&[1, 3, 9], &[1, 2, 2, 5]), 3);
        assert_eq!(unmatched(&[], &[7]), 1);
    }

    #[test]
    fn workload_names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
