//! One benchmark run: set-ups, reference, warm-up, timed passes, and the
//! metrics they give. An untraced run yields the end-to-end metrics; a
//! traced run yields the per-layer ones (see `layers`).

use crate::host::{self, Probe};
use crate::json::Json;
use crate::layers;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Pass, Spec, Workload, WORKLOADS};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fresh set-ups per untraced run; `setup_s` is their median. A set-up
/// that takes microseconds (a serve session) is repeated until the
/// set-ups add up to `SETUP_FLOOR_S`, so its median is steady too.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_FLOOR_S: f64 = 0.2;
/// Timed passes are never fewer than this, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Share of what a traced run has left after set-up that goes to
/// workload passes; the rest goes to the layer replays.
const TRACED_PASS_SHARE: f64 = 0.40;
/// The replays get at least this share of `--seconds`, however long the
/// staging and the passes took.
const MIN_REPLAY_SHARE: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch root; the run works in `<workdir>/<workload>-<pid>`.
    pub workdir: PathBuf,
    /// Where a traced run writes its Chrome trace.
    pub trace_out: PathBuf,
    /// CPUs the process could use before it pinned itself to one.
    pub cpus: usize,
}

/// One metric as measured: the table entry it answers and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub def: MetricDef,
    pub s: Summary,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// CPUs of the machine, CPUs the run used (1 when pinned), worker
    /// ranks, timed passes.
    pub cpus: usize,
    pub nproc: usize,
    pub slaves: usize,
    pub passes: usize,
    pub metrics: Vec<Measured>,
    /// Traced runs: count, total and self seconds per harness span name.
    pub spans: Vec<(String, u64, f64, f64)>,
    /// Wall-clock of every untraced timed pass as the clock read it, in
    /// run order, and the host speed each was normalised by.
    pub pass_walls_s: Vec<f64>,
    pub pass_speeds: Vec<f64>,
}

impl RunResult {
    /// The line the acceptance driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let v = Json::obj([
                ("value", Json::Num(m.s.value)),
                ("unit", Json::str(m.def.unit)),
            ]);
            (m.def.name, v)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// One line of a result file: the contract fields plus what
    /// `perf compare` needs (workload, seed, quartiles, counts, sizing).
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let v = Json::obj([
                ("value", Json::Num(m.s.value)),
                ("unit", Json::str(m.def.unit)),
                ("q1", Json::Num(m.s.q1)),
                ("q3", Json::Num(m.s.q3)),
                ("n", Json::Num(m.s.n as f64)),
            ]);
            (m.def.name, v)
        });
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|x| Json::Num(*x)).collect());
        let spans = self
            .spans
            .iter()
            .map(|(name, count, total_s, self_s)| {
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("count", Json::Num(*count as f64)),
                    ("total_s", Json::Num(*total_s)),
                    ("self_s", Json::Num(*self_s)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("cpus", Json::Num(self.cpus as f64)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("slaves", Json::Num(self.slaves as f64)),
            ("passes", Json::Num(self.passes as f64)),
            ("metrics", Json::obj(metrics)),
            ("spans", Json::Arr(spans)),
            ("pass_walls_s", nums(&self.pass_walls_s)),
            ("pass_speeds", nums(&self.pass_speeds)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("missing {k}"))
        };
        let flag = |k: &str| {
            v.get(k)
                .and_then(Json::as_bool)
                .ok_or(format!("missing {k}"))
        };
        // Table order, whatever order the file lists them in.
        let listed = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing metrics")?;
        let known = || END_TO_END.iter().chain(&PER_LAYER);
        if let Some(stray) = listed
            .keys()
            .find(|k| !known().any(|d| d.name == k.as_str()))
        {
            return Err(format!("unknown metric {stray}"));
        }
        let mut metrics = Vec::new();
        for def in known() {
            let Some(m) = listed.get(def.name) else {
                continue;
            };
            let f = |k: &str| {
                m.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{}: missing {k}", def.name))
            };
            metrics.push(Measured {
                def: *def,
                s: Summary {
                    value: f("value")?,
                    q1: f("q1")?,
                    q3: f("q3")?,
                    n: f("n")? as usize,
                },
            });
        }
        let nums = |k: &str| -> Result<Vec<f64>, String> {
            v.get(k)
                .and_then(Json::as_arr)
                .ok_or(format!("missing {k}"))?
                .iter()
                .map(|x| x.as_f64().ok_or(format!("{k}: not a number")))
                .collect()
        };
        let mut spans = Vec::new();
        for sp in v
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("missing spans")?
        {
            let f = |k: &str| {
                sp.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("span: missing {k}"))
            };
            let name = sp
                .get("name")
                .and_then(Json::as_str)
                .ok_or("span: missing name")?;
            spans.push((
                name.to_string(),
                f("count")? as u64,
                f("total_s")?,
                f("self_s")?,
            ));
        }
        Ok(RunResult {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing workload")?
                .to_string(),
            seed: num("seed")? as u64,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            cpus: num("cpus")? as usize,
            nproc: num("nproc")? as usize,
            slaves: num("slaves")? as usize,
            passes: num("passes")? as usize,
            metrics,
            spans,
            pass_walls_s: nums("pass_walls_s")?,
            pass_speeds: nums("pass_speeds")?,
        })
    }

    /// Every metric by name and unit, with quartiles and sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed={} trace={} cpus={} nproc={} slaves={} passes={} attempted={} failed={} correct={}\n",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.cpus,
            self.nproc,
            self.slaves,
            self.passes,
            self.attempted,
            self.failed,
            self.correct
        );
        let mut row = |name: &str, unit: &str, s: &Summary| {
            out.push_str(&format!(
                "  {:<34} {:>16.6} {:<8} q1 {:<14.6} q3 {:<14.6} n {}\n",
                name, s.value, unit, s.q1, s.q3, s.n
            ));
        };
        for m in &self.metrics {
            row(m.def.name, m.def.unit, &m.s);
        }
        if !self.trace {
            // What the clock read, beside the normalised metrics above.
            row(
                "(pass wall-clock, as read)",
                "s",
                &Summary::of(&self.pass_walls_s),
            );
            row("(host speed)", "ratio", &Summary::of(&self.pass_speeds));
        }
        for (name, count, total_s, self_s) in &self.spans {
            out.push_str(&format!(
                "  span {name:<29} {total_s:>16.6} s        self {self_s:<12.6} n {count}\n"
            ));
        }
        out
    }
}

/// The timed untraced passes of a run, with what was read around each:
/// the CPU seconds it took and the host speed while it ran.
#[derive(Default)]
struct Timed {
    passes: Vec<Pass>,
    cpu_s: Vec<f64>,
    speeds: Vec<f64>,
}

/// The end-to-end metrics. Every time is reported at the reference
/// host's speed (see `host`): a set-up or pass that took `t` seconds
/// while the host ran at `speed` counts as `t * speed` seconds.
/// `setups` pairs each set-up's seconds with its host speed.
fn end_to_end(setups: &[(f64, f64)], timed: &Timed) -> Vec<Measured> {
    let setup_s: Vec<f64> = setups.iter().map(|(t, speed)| t * speed).collect();
    let per_pass = |f: fn(&Pass, f64) -> f64| -> Vec<f64> {
        timed
            .passes
            .iter()
            .zip(&timed.speeds)
            .map(|(p, speed)| f(p, *speed))
            .collect()
    };
    // An open-loop pass lasts as long as its schedule, whatever the
    // host's speed.
    fn wall(p: &Pass, speed: f64) -> f64 {
        if p.paced {
            p.wall_s
        } else {
            p.wall_s * speed
        }
    }
    let cpu_s: Vec<f64> = timed
        .cpu_s
        .iter()
        .zip(&timed.speeds)
        .map(|(c, speed)| c * speed)
        .collect();
    END_TO_END
        .iter()
        .map(|def| {
            let s = match def.name {
                "setup_s" => Summary::of(&setup_s),
                "makespan_s" => Summary::of(&per_pass(wall)),
                "jobs_per_s" => {
                    Summary::of(&per_pass(|p, speed| p.problems as f64 / wall(p, speed)))
                }
                "cpu_s" => Summary::mean_of(&cpu_s),
                "peak_rss_mb" => Summary::single(sys::peak_rss_mib()),
                // Each pass's median request latency, then the median
                // over passes. A serve pass holds thousands of requests;
                // a farm or script pass is one request, so there this is
                // the median pass.
                "req_p50_us" => {
                    Summary::of(&per_pass(|p, speed| stats::median(&p.latencies_us) * speed))
                }
                other => unreachable!("no producer for end-to-end metric {other}"),
            };
            Measured { def: *def, s }
        })
        .collect()
}

/// Run passes until `deadline` (the pass in flight is not cut short, so
/// the loop stops once half a typical pass no longer fits), reading the
/// host-speed probe between them. Returns the untraced passes and
/// (traced runs only, alternating with them) the ones that ran under a
/// recorder.
fn timed_passes(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    probe: &Probe,
    deadline: Instant,
    alternate_traced: bool,
) -> Result<(Timed, Vec<Pass>), String> {
    let mut timed = Timed::default();
    let mut traced = Vec::new();
    let mut id = 1u64;
    let mut last = Duration::ZERO;
    let min = if alternate_traced { 2 } else { MIN_PASSES };
    let mut probe_before = probe.read();
    while timed.passes.len() + traced.len() < min || Instant::now() + last / 2 < deadline {
        let is_traced = alternate_traced && id.is_multiple_of(2);
        let c0 = sys::cpu_seconds();
        let p0 = Instant::now();
        let pass = w.pass(is_traced, tr, id)?;
        last = p0.elapsed();
        let cpu_s = sys::cpu_seconds() - c0;
        let probe_after = probe.read();
        if is_traced {
            traced.push(pass);
        } else {
            timed.passes.push(pass);
            timed.cpu_s.push(cpu_s);
            timed.speeds.push(host::speed(probe_before, probe_after));
        }
        probe_before = probe_after;
        id += 1;
    }
    Ok((timed, traced))
}

fn resolve(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|n| *n == name)
        .ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
}

pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let name = resolve(&opts.workload)?;
    let spec = Spec {
        name,
        seed: opts.seed,
        slaves: sys::slaves(),
        workdir: opts.workdir.join(format!("{name}-{}", std::process::id())),
    };
    let mut tr = Tracer::new(opts.trace);
    let out = run_staged(opts, &spec, &mut tr);
    let _ = std::fs::remove_dir_all(&spec.workdir);
    let result = out?;
    if opts.trace {
        tr.write_chrome(&opts.trace_out)
            .map_err(|e| format!("write {:?}: {e}", opts.trace_out))?;
    }
    Ok(result)
}

fn run_staged(opts: &RunOpts, spec: &Spec, tr: &mut Tracer) -> Result<RunResult, String> {
    // `--seconds` covers the whole run — set-ups, reference, warm-up and
    // timed passes — so that a run's length does not depend on how slow
    // the host is while it stages.
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let probe = Probe::new(&spec.workdir)?;

    // Set-ups: an untraced run repeats them to report a steady median; a
    // traced run needs only the staged inputs.
    let mut setups = Vec::new();
    let mut live: Option<Box<dyn Workload>> = None;
    if !opts.trace {
        // Untimed first staging: see `Workload::unstage`.
        live = Some(workloads::setup(spec, &mut Tracer::new(false))?);
    }
    let mut probe_before = probe.read();
    loop {
        if let Some(prev) = live.take() {
            prev.unstage()?;
        }
        let t0 = Instant::now();
        live = Some(workloads::setup(spec, tr)?);
        let took = t0.elapsed().as_secs_f64();
        let probe_after = probe.read();
        setups.push((took, host::speed(probe_before, probe_after)));
        probe_before = probe_after;
        let total: f64 = setups.iter().map(|(t, _)| t).sum();
        let enough =
            setups.len() >= MIN_SETUPS && (total >= SETUP_FLOOR_S || setups.len() >= MAX_SETUPS);
        if opts.trace || enough {
            break;
        }
    }
    let mut w = live.expect("at least one set-up ran");

    let job_secs = tr.span("reference", 0, || w.compute_reference())?;
    // Warm-up, discarded: page cache, workspace pools, lazy set-up.
    let warm = w.pass(false, tr, 0)?;

    let left = deadline.saturating_duration_since(Instant::now());
    let passes_until = if opts.trace {
        Instant::now() + left.mul_f64(TRACED_PASS_SHARE)
    } else {
        deadline
    };
    let (timed, traced) = timed_passes(w.as_mut(), tr, &probe, passes_until, opts.trace)?;

    let all = || std::iter::once(&warm).chain(&timed.passes).chain(&traced);
    let mut attempted: u64 = all().map(|p| p.attempted).sum();
    let mut failed: u64 = all().map(|p| p.failed).sum();

    let metrics = if opts.trace {
        let facts = layers::Facts {
            spec,
            job_secs: &job_secs,
            plain: &timed.passes,
            traced: &traced,
            host_speeds: &timed.speeds,
            budget: deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_secs_f64(opts.seconds * MIN_REPLAY_SHARE)),
        };
        let (metrics, extra) = layers::all(&facts, w.as_mut(), tr)?;
        attempted += extra.attempted;
        failed += extra.failed;
        metrics
    } else {
        end_to_end(&setups, &timed)
    };
    w.finish()?;

    let want = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    if !metrics
        .iter()
        .map(|m| m.def.name)
        .eq(want.iter().map(|d| d.name))
    {
        return Err("internal: produced metrics differ from the metric table".into());
    }
    Ok(RunResult {
        workload: spec.name.to_string(),
        seed: opts.seed,
        trace: opts.trace,
        correct: failed == 0,
        attempted,
        failed,
        cpus: opts.cpus,
        nproc: sys::nproc(),
        slaves: spec.slaves,
        passes: timed.passes.len() + traced.len(),
        metrics,
        spans: tr
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    t.count,
                    t.total_ns as f64 / 1e9,
                    t.self_ns as f64 / 1e9,
                )
            })
            .collect(),
        pass_walls_s: timed.passes.iter().map(|p| p.wall_s).collect(),
        pass_speeds: timed.speeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall_s: f64, problems: u64, latencies_us: Vec<f64>) -> Pass {
        Pass {
            wall_s,
            problems,
            attempted: problems,
            latencies_us,
            ..Pass::default()
        }
    }

    /// Passes at host speed 1 that each took 0.5 CPU seconds.
    fn at_reference_speed(passes: Vec<Pass>) -> Timed {
        Timed {
            cpu_s: vec![0.5; passes.len()],
            speeds: vec![1.0; passes.len()],
            passes,
        }
    }

    fn value(m: &[Measured], name: &str) -> (f64, usize) {
        let s = m.iter().find(|x| x.def.name == name).unwrap().s;
        (s.value, s.n)
    }

    #[test]
    fn request_p50_is_the_median_over_passes_of_per_pass_medians() {
        let farm = (1..=20)
            .map(|i| pass(i as f64, 100, vec![i as f64 * 1e6]))
            .collect();
        let m = end_to_end(&[(0.1, 1.0)], &at_reference_speed(farm));
        assert_eq!(value(&m, "req_p50_us"), (10.5e6, 20));

        let lat = |shift: f64| (1..=1001).map(|i| i as f64 + shift).collect::<Vec<_>>();
        let serve = vec![
            pass(2.0, 1, lat(0.0)),
            pass(2.0, 1, lat(100.0)),
            pass(2.0, 1, lat(10.0)),
        ];
        let m = end_to_end(&[(0.1, 1.0)], &at_reference_speed(serve));
        assert_eq!(value(&m, "req_p50_us"), (511.0, 3));
    }

    #[test]
    fn end_to_end_covers_the_table_in_order() {
        let passes = vec![pass(0.5, 1000, vec![0.5e6]), pass(0.25, 1000, vec![0.25e6])];
        let mut timed = at_reference_speed(passes);
        timed.cpu_s = vec![0.4, 0.6];
        let m = end_to_end(&[(0.1, 1.0), (0.3, 1.0), (0.2, 1.0)], &timed);
        assert!(m
            .iter()
            .map(|x| x.def.name)
            .eq(END_TO_END.iter().map(|d| d.name)));
        assert_eq!(value(&m, "setup_s"), (0.2, 3));
        assert_eq!(value(&m, "makespan_s").0, 0.375);
        assert_eq!(value(&m, "jobs_per_s").0, 3000.0);
        assert_eq!(value(&m, "cpu_s").0, 0.5);
        assert!(value(&m, "peak_rss_mb").0 > 0.0);
    }

    #[test]
    fn times_are_reported_at_the_reference_hosts_speed() {
        // The same work on a host that slowed to half speed for the
        // second pass and the second set-up: every reading doubles, and
        // every reported time stays where it was.
        let timed = Timed {
            passes: vec![pass(0.5, 1000, vec![400.0]), pass(1.0, 1000, vec![800.0])],
            cpu_s: vec![0.4, 0.8],
            speeds: vec![1.0, 0.5],
        };
        let m = end_to_end(&[(0.2, 1.0), (0.4, 0.5)], &timed);
        assert_eq!(value(&m, "setup_s").0, 0.2);
        assert_eq!(value(&m, "makespan_s").0, 0.5);
        assert_eq!(value(&m, "jobs_per_s").0, 2000.0);
        assert_eq!(value(&m, "cpu_s").0, 0.4);
        assert_eq!(value(&m, "req_p50_us").0, 400.0);

        // An open-loop pass lasts as long as its schedule: its window is
        // not rescaled, its latencies are.
        let mut window = pass(2.0, 32_000, vec![800.0]);
        window.paced = true;
        let timed = Timed {
            passes: vec![window],
            cpu_s: vec![0.8],
            speeds: vec![0.5],
        };
        let m = end_to_end(&[(0.2, 1.0)], &timed);
        assert_eq!(value(&m, "makespan_s").0, 2.0);
        assert_eq!(value(&m, "jobs_per_s").0, 16_000.0);
        assert_eq!(value(&m, "req_p50_us").0, 400.0);
    }

    #[test]
    fn result_file_round_trips() {
        let r = RunResult {
            workload: "table2_sload".into(),
            seed: 42,
            trace: false,
            correct: true,
            attempted: 123,
            failed: 0,
            cpus: 2,
            nproc: 1,
            slaves: 1,
            passes: 9,
            metrics: end_to_end(
                &[(0.1, 1.0)],
                &at_reference_speed(vec![pass(0.5, 10, vec![0.5e6])]),
            ),
            spans: vec![("farm::run".into(), 9, 4.5, 4.25)],
            pass_walls_s: vec![0.5, 0.25],
            pass_speeds: vec![1.0, 0.75],
        };
        let line = r.to_json().render();
        assert_eq!(
            RunResult::from_json(&Json::parse(&line).unwrap()).unwrap(),
            r
        );

        let contract = Json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = contract
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = contract
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(
            m.as_obj().unwrap().len(),
            2,
            "a metric is exactly value + unit"
        );
    }
}
