//! `perf` — the repository's live benchmark. See `README.md` beside
//! this crate and `BENCHMARK.json` at the repository root.

mod check;
mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use run::{RunOpts, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  perf --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
      one run of one workload; the last line of stdout is the result
  perf all [--seed N] [--seconds S] [--out FILE]
      every workload, untraced then traced
  perf compare A B
      verdict per (metric, workload) between two result files
  perf check [BENCHMARK.json]
      cross-validate BENCHMARK.json against the harness
options:
  --out FILE        append one JSON line per run to FILE
  --workdir DIR     scratch directory (default perf/.run)
  --trace-out FILE  Chrome trace of a traced run
                    (default perf/results/<workload>.trace.json)";

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    workdir: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: None,
        workdir: PathBuf::from("perf/.run"),
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--workdir" => a.workdir = PathBuf::from(value("--workdir")?),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word => a.positional.push(word.to_string()),
        }
    }
    Ok(a)
}

fn run_one(a: &Args, workload: &str, trace: bool) -> Result<RunResult, String> {
    // Pin the process to one CPU (see `sys::pin_to_one_cpu` for why).
    let cpus = sys::nproc();
    if sys::pin_to_one_cpu().is_none() {
        eprintln!("perf: could not pin to one CPU; timings will be noisier");
    }
    let opts = RunOpts {
        cpus,
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace,
        workdir: a.workdir.clone(),
        trace_out: a
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("perf/results/{workload}.trace.json"))),
    };
    let result = run::run(&opts)?;
    if let Some(path) = &a.out {
        use std::io::Write as _;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {path:?}: {e}"))?;
        writeln!(f, "{}", result.to_json().render()).map_err(|e| format!("write {path:?}: {e}"))?;
    }
    Ok(result)
}

fn main_inner() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&argv)?;
    match (a.positional.first().map(String::as_str), &a.workload) {
        (None, Some(w)) => {
            let r = run_one(&a, w, a.trace)?;
            print!("{}", r.table());
            println!("{}", r.contract_line());
            Ok(r.correct)
        }
        (Some("all"), None) => {
            // One child process per run, so each reports its own peak
            // memory and starts from the same state the driver's runs do.
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut ok = true;
            for w in workloads::WORKLOADS {
                for trace in ["0", "1"] {
                    let mut cmd = std::process::Command::new(&exe);
                    cmd.args(["--workload", w.name, "--trace", trace])
                        .args(["--seed", &a.seed.to_string()])
                        .args(["--seconds", &a.seconds.to_string()])
                        .arg("--workdir")
                        .arg(&a.workdir);
                    if let Some(out) = &a.out {
                        cmd.arg("--out").arg(out);
                    }
                    let status = cmd.status().map_err(|e| format!("spawn {exe:?}: {e}"))?;
                    match status.code() {
                        Some(0) => {}
                        Some(1) => ok = false,
                        _ => return Err(format!("{} --trace {trace} could not run", w.name)),
                    }
                }
            }
            Ok(ok)
        }
        (Some("compare"), None) => {
            let [_, a_path, b_path] = a.positional.as_slice() else {
                return Err(USAGE.to_string());
            };
            let left = compare::load(std::path::Path::new(a_path))?;
            let right = compare::load(std::path::Path::new(b_path))?;
            let (table, pass) = compare::compare(&left, &right);
            print!("{table}");
            Ok(pass)
        }
        (Some("check"), None) => {
            let path = a.positional.get(1).map_or("BENCHMARK.json", String::as_str);
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let problems = check::check(&text);
            for p in &problems {
                println!("{path}: {p}");
            }
            if problems.is_empty() {
                println!(
                    "{path}: agrees with the harness ({} gated workloads, {} end-to-end and {} per-layer metrics)",
                    workloads::WORKLOADS.iter().filter(|w| w.gated).count(),
                    metrics::END_TO_END.len(),
                    metrics::PER_LAYER.len()
                );
            }
            Ok(problems.is_empty())
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}
