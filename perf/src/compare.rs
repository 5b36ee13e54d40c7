//! `perf compare A B`: the guide's rule on two result files. For every
//! (metric, workload) pair: each side's median and quartiles over its
//! runs, the ratio with its base, and a verdict.
//!
//! * `unresolved` — the parent's own inter-quartile spread is wider than
//!   the bound (or unknown: fewer than three parent runs), so a
//!   difference of the bound's size cannot be told from noise;
//! * `worse` / `better` — B's median is worse / better than A's by more
//!   than the bound;
//! * `unchanged` — otherwise.
//!
//! Per-layer metrics have no bound of their own; they are judged at the
//! largest end-to-end bound and never fail the comparison.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, MAX_BOUND};
use crate::run::RunResult;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's values against A's (the parent) at `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.len() < 3 || stats::spread(a) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = B is worse, as a share of the parent's median.
    let worsening = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

pub fn load(path: &Path) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            Json::parse(l)
                .and_then(|v| RunResult::from_json(&v))
                .map_err(|e| format!("{path:?} line {}: {e}", i + 1))
        })
        .collect()
}

type Key = (String, bool, &'static str);

/// Values per (workload, traced, metric), and failed / attempted per workload.
struct Side {
    values: BTreeMap<Key, (MetricDef, Vec<f64>)>,
    failures: BTreeMap<String, (u64, u64)>,
}

fn collect(runs: &[RunResult]) -> Side {
    let mut side = Side {
        values: BTreeMap::new(),
        failures: BTreeMap::new(),
    };
    for r in runs {
        let f = side.failures.entry(r.workload.clone()).or_insert((0, 0));
        f.0 += r.failed;
        f.1 += r.attempted;
        for m in &r.metrics {
            side.values
                .entry((r.workload.clone(), r.trace, m.def.name))
                .or_insert_with(|| (m.def, Vec::new()))
                .1
                .push(m.s.value);
        }
    }
    side
}

/// The comparison table and whether it passes: no `worse` on an
/// end-to-end metric and no workload with a higher failed share.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let (sa, sb) = (collect(a), collect(b));
    let mut out = String::new();
    let mut pass = true;
    out.push_str(&format!(
        "{:<14} {:<32} {:>14} {:>14} {:>9} {:>7} {:>7}  {}\n",
        "workload", "metric [unit]", "A median", "B median", "B/A", "A iqr", "bound", "verdict"
    ));
    for ((workload, traced, name), (def, va)) in &sa.values {
        let Some((_, vb)) = sb.values.get(&(workload.clone(), *traced, name)) else {
            out.push_str(&format!("{workload:<14} {name:<32} missing from B\n"));
            pass = false;
            continue;
        };
        let gated = END_TO_END.iter().any(|e| e.name == *name);
        let bound = def.bound.unwrap_or(MAX_BOUND);
        let v = verdict(va, vb, def.better, bound);
        pass &= !(gated && v == Verdict::Worse);
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let (q1, q3) = stats::quartiles(va);
        out.push_str(&format!(
            "{:<14} {:<32} {:>14.6} {:>14.6} {:>9.4} {:>7.4} {:>7.2}  {}{}\n",
            workload,
            format!("{name} [{}]", def.unit),
            ma,
            mb,
            if ma == 0.0 { f64::NAN } else { mb / ma },
            stats::spread(va),
            bound,
            v.as_str(),
            if gated { "" } else { " (layer, not gated)" },
        ));
        out.push_str(&format!(
            "{:<14} {:<32} A q1 {:.6} q3 {:.6} n {} | B n {}\n",
            "",
            "",
            q1,
            q3,
            va.len(),
            vb.len()
        ));
    }
    for (workload, (fa, na)) in &sa.failures {
        let (fb, nb) = sb.failures.get(workload).copied().unwrap_or((0, 0));
        let share = |f: u64, n: u64| if n == 0 { 0.0 } else { f as f64 / n as f64 };
        let worse = share(fb, nb) > share(*fa, *na);
        pass &= !worse;
        out.push_str(&format!(
            "{workload:<14} failed/attempted: A {fa}/{na}  B {fb}/{nb}  {}\n",
            if worse { "worse" } else { "ok" }
        ));
    }
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Measured;
    use crate::stats::Summary;

    const STEADY: [f64; 5] = [1.00, 1.01, 0.99, 1.02, 0.98];

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let shifted = |k: f64| STEADY.map(|x| x * k);
        assert_eq!(
            verdict(&STEADY, &shifted(1.05), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&STEADY, &shifted(1.20), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&STEADY, &shifted(0.80), Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&STEADY, &shifted(1.20), Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&STEADY, &shifted(0.80), Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn a_noisy_parent_is_unresolved_not_unchanged() {
        let noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.0];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[0.0; 3], &[0.0; 3], Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[0.0; 3], &[1.0; 3], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[1.0, 1.0], &[2.0, 2.0], Better::Lower, 0.10),
            Verdict::Unresolved,
            "two parent runs say nothing about the parent's spread"
        );
    }

    fn run(workload: &str, makespan: f64, failed: u64) -> RunResult {
        let def = *END_TO_END.iter().find(|d| d.name == "makespan_s").unwrap();
        RunResult {
            workload: workload.into(),
            seed: 1,
            trace: false,
            correct: failed == 0,
            attempted: 100,
            failed,
            cpus: 2,
            nproc: 1,
            slaves: 1,
            passes: 7,
            metrics: vec![Measured {
                def,
                s: Summary::single(makespan),
            }],
            spans: Vec::new(),
            pass_walls_s: Vec::new(),
            pass_speeds: Vec::new(),
        }
    }

    #[test]
    fn compare_fails_on_a_worse_gated_metric_or_more_failures() {
        let a: Vec<RunResult> = STEADY.iter().map(|m| run("w", *m, 0)).collect();
        let same = compare(&a, &a);
        assert!(same.1 && same.0.contains("unchanged") && same.0.ends_with("PASS\n"));

        let slow: Vec<RunResult> = STEADY.iter().map(|m| run("w", m * 1.3, 0)).collect();
        let (table, pass) = compare(&a, &slow);
        assert!(!pass && table.contains("worse"), "{table}");
        assert!(compare(&slow, &a).1, "an improvement passes");

        let failing: Vec<RunResult> = STEADY.iter().map(|m| run("w", *m, 1)).collect();
        assert!(!compare(&a, &failing).1, "a higher failed share fails");
        assert!(compare(&failing, &failing).1);

        let other: Vec<RunResult> = STEADY.iter().map(|m| run("x", *m, 0)).collect();
        assert!(!compare(&a, &other).1, "a pair missing from B fails");
    }
}
