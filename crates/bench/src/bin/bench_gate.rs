//! CI perf-regression gate over the committed breakdown artifacts.
//!
//! ```text
//! bench_gate <fresh BENCH_6.json> <committed BENCH_4.json> <committed BENCH_3.json> \
//!            [fresh BENCH_8.json] [fresh BENCH_10.json]
//! ```
//!
//! `BENCH_6.json` is the freshly written `table2 --breakdown --threads 8
//! --lanes 8` report; `BENCH_4.json` / `BENCH_3.json` are the committed
//! baselines from earlier PRs; the optional `BENCH_8.json` is the fresh
//! `shard_smoke` artifact for the sharded peer masters. The gate fails
//! (exit 1) when:
//!
//! - any fresh sequential or `(x8 threads)` compute bucket drifts from
//!   the committed `BENCH_4.json` bucket by more than 1e-9 — the
//!   lanes-off model must stay bit-stable across PRs;
//! - any `(x8 threads, 8 lanes)` compute bucket is **not at least 2x**
//!   below the committed `(x8 threads)` bucket — the headline SIMD-lane
//!   claim;
//! - a lane row's prepare/wire/wait differ from the committed threaded
//!   row's by more than 1e-9 — lane batching must live entirely inside
//!   the compute phase;
//! - the committed `BENCH_3.json` sanity anchors are gone (nonzero
//!   compute, warm rows with a ~perfect cache hit-rate);
//! - the `BENCH_8.json` shard structure is off: prices not bit-identical
//!   across backends, a multi-shard run without steals, a multi-shard
//!   makespan degrading the 1-shard run beyond the allowance, simulated
//!   makespans not monotone in shard count, an incomplete 512-core sim
//!   row, or a socket per-message cost measured at or below the
//!   in-process channel's;
//! - the `BENCH_10.json` heterogeneous-workload smoke is off: a class of
//!   the mixed portfolio missing from the per-class compute breakdown,
//!   class job counts not summing to the portfolio, LPT losing to FIFO
//!   on the simulated makespan, or the staged BSDE run incomplete or
//!   trace-divergent from the staged simulator.
//!
//! The two committed files must never cross-compare per-job: they hold
//! different portfolio sizes (2 000 vs 10 000 jobs), so their drawn
//! per-job costs differ by construction.

use std::process::exit;

/// Transmission strategy labels, as printed by the farm crate.
const STRATEGIES: [&str; 3] = ["full load", "NFS", "serialized load"];
/// Thread/lane counts the CI invocation pins (`scripts/ci.sh`).
const THREADS: usize = 8;
const LANES: usize = 8;
/// Bit-stability tolerance for buckets lanes must not touch.
const EPS: f64 = 1e-9;

/// One run row pulled out of a breakdown report's JSON.
#[derive(Debug)]
struct Run {
    strategy: String,
    prepare_s: f64,
    wire_s: f64,
    wait_s: f64,
    compute_s: f64,
    cache_hit_rate: f64,
}

/// Extract `"key":<number>` from one run object's text. The reports are
/// written by `obs::BreakdownReport::to_json`, whose summary keys always
/// precede the `"phases"` array — the scan stops there so phase entries
/// can never shadow a summary bucket.
fn field(seg: &str, key: &str) -> Result<f64, String> {
    let head = seg.split("\"phases\"").next().unwrap_or(seg);
    let pat = format!("\"{key}\":");
    let at = head
        .find(&pat)
        .ok_or_else(|| format!("missing {key:?} in run object"))?;
    let rest = &head[at + pat.len()..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| format!("unterminated {key:?} value"))?;
    rest[..end]
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("bad {key:?} value {:?}: {e}", &rest[..end]))
}

/// Parse every run object out of a breakdown report's JSON.
fn parse_runs(json: &str) -> Result<Vec<Run>, String> {
    let body = json
        .split("\"runs\":[")
        .nth(1)
        .ok_or("no \"runs\" array in report")?;
    let mut runs = Vec::new();
    for seg in body.split("{\"strategy\":\"").skip(1) {
        let strategy = seg
            .split('"')
            .next()
            .ok_or("unterminated strategy label")?
            .to_string();
        runs.push(Run {
            prepare_s: field(seg, "prepare_s")?,
            wire_s: field(seg, "wire_s")?,
            wait_s: field(seg, "wait_s")?,
            compute_s: field(seg, "compute_s")?,
            cache_hit_rate: field(seg, "cache_hit_rate")?,
            strategy,
        });
    }
    if runs.is_empty() {
        return Err("report has no runs".into());
    }
    Ok(runs)
}

fn run<'a>(runs: &'a [Run], label: &str, file: &str) -> Result<&'a Run, String> {
    runs.iter()
        .find(|r| r.strategy == label)
        .ok_or_else(|| format!("{file}: missing run {label:?}"))
}

/// The whole gate. Returns the human-readable pass summary.
fn gate(fresh: &str, bench4: &str, bench3: &str) -> Result<String, String> {
    let f = parse_runs(fresh)?;
    let b4 = parse_runs(bench4)?;
    let b3 = parse_runs(bench3)?;
    let mut out = String::new();
    for s in STRATEGIES {
        let thr_label = format!("{s} (x{THREADS} threads)");
        let lane_label = format!("{s} (x{THREADS} threads, {LANES} lanes)");
        // Lanes-off buckets must not regress against the committed runs.
        for label in [s, thr_label.as_str()] {
            let fresh = run(&f, label, "BENCH_6")?;
            let pinned = run(&b4, label, "BENCH_4")?;
            let drift = (fresh.compute_s - pinned.compute_s).abs();
            if drift > EPS {
                return Err(format!(
                    "{label}: compute bucket drifted {drift:.3e}s from committed BENCH_4 \
                     ({:.9}s vs {:.9}s)",
                    fresh.compute_s, pinned.compute_s
                ));
            }
        }
        // The headline claim: lanes cut the threaded compute bucket >= 2x.
        let lane = run(&f, &lane_label, "BENCH_6")?;
        let thr = run(&b4, &thr_label, "BENCH_4")?;
        let ratio = thr.compute_s / lane.compute_s;
        if ratio < 2.0 {
            return Err(format!(
                "{s}: lanes cut the committed {:.6}s threaded compute bucket only x{ratio:.2} \
                 (to {:.6}s), need >= 2x",
                thr.compute_s, lane.compute_s
            ));
        }
        // ... without touching anything outside the compute phase.
        for (phase, fresh_v, pinned_v) in [
            ("prepare", lane.prepare_s, thr.prepare_s),
            ("wire", lane.wire_s, thr.wire_s),
            ("wait", lane.wait_s, thr.wait_s),
        ] {
            let drift = (fresh_v - pinned_v).abs();
            if drift > EPS {
                return Err(format!(
                    "{s}: lane row {phase} drifted {drift:.3e}s from the committed threaded \
                     row ({fresh_v:.9}s vs {pinned_v:.9}s)"
                ));
            }
        }
        // BENCH_3 sanity anchors (the warm-cache artifact of PR 3).
        let base3 = run(&b3, s, "BENCH_3")?;
        if base3.compute_s <= 0.0 {
            return Err(format!("BENCH_3 {s}: compute bucket is not positive"));
        }
        let warm3 = run(&b3, &format!("{s} (warm)"), "BENCH_3")?;
        if warm3.cache_hit_rate < 0.99 {
            return Err(format!(
                "BENCH_3 {s} (warm): cache hit-rate {:.3} below 0.99",
                warm3.cache_hit_rate
            ));
        }
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "{s}: lanes x{ratio:.2} over committed threaded bucket, lanes-off stable\n"
            ),
        );
    }
    Ok(out)
}

/// Structural checks over the `shard_smoke` artifact (`BENCH_8.json`).
///
/// Re-validates what the smoke asserted when it wrote the file, so a
/// stale or hand-edited artifact cannot pass: bit-identical prices
/// across the four live configurations (two backends), steals in every
/// multi-shard run, bounded live degradation versus the 1-shard run,
/// monotone simulated makespans, a complete 512-core sim row, and a
/// socket transport measured dearer per message than the channel.
fn gate_shard(json: &str) -> Result<String, String> {
    let g = |key: &str| field(json, key).map_err(|e| format!("BENCH_8: {e}"));
    if g("prices_bit_identical")? != 1.0 {
        return Err("BENCH_8: prices not bit-identical across configurations".into());
    }
    let (s2, s4, sp) = (
        g("live_2_steals")?,
        g("live_4_steals")?,
        g("live_proc_steals")?,
    );
    if s2 < 1.0 || s4 < 1.0 || sp < 1.0 {
        return Err(format!(
            "BENCH_8: a multi-shard run recorded no steals (2x2 {s2}, 4x1 {s4}, process {sp})"
        ));
    }
    let m1 = g("live_1_makespan_s")?;
    if m1 <= 0.0 {
        return Err(format!("BENCH_8: degenerate 1-shard makespan {m1}s"));
    }
    for (label, key) in [("2x2", "live_2_makespan_s"), ("4x1", "live_4_makespan_s")] {
        let m = g(key)?;
        if m > m1 * SHARD_DEGRADE {
            return Err(format!(
                "BENCH_8: {label} makespan {m:.3}s degrades the 1-shard {m1:.3}s \
                 beyond x{SHARD_DEGRADE}"
            ));
        }
    }
    let (sim1, sim2, sim4) = (
        g("sim_1_makespan_s")?,
        g("sim_2_makespan_s")?,
        g("sim_4_makespan_s")?,
    );
    if !(sim2 <= sim1 && sim4 <= sim2) || sim4 <= 0.0 {
        return Err(format!(
            "BENCH_8: sim makespans not monotone in shard count ({sim1} {sim2} {sim4})"
        ));
    }
    let (jobs512, mk512) = (g("sim_512_jobs")?, g("sim_512_makespan_s")?);
    if jobs512 != 4096.0 || mk512 <= 0.0 || g("sim_512_steals")? < 1.0 {
        return Err(format!(
            "BENCH_8: 512-core sim row is off ({jobs512} jobs, makespan {mk512}s)"
        ));
    }
    let (ch, so) = (g("channel_per_message_s")?, g("socket_per_message_s")?);
    if ch <= 0.0 || so <= ch {
        return Err(format!(
            "BENCH_8: socket per-message cost {so:.3e}s not above the channel's {ch:.3e}s"
        ));
    }
    Ok(format!(
        "shard: prices bit-identical, steals in every multi-shard run, \
         sim monotone to {jobs512:.0} jobs at 512 cores\n"
    ))
}

/// Multi-shard live makespan allowance — must match `shard_smoke`'s.
const SHARD_DEGRADE: f64 = 1.35;

/// The six classes `workload_smoke`'s mixed portfolio always contains —
/// keys of the per-class breakdown in `BENCH_10.json`.
const WORKLOAD_CLASSES: [&str; 6] = [
    "vanilla_cf",
    "localvol_mc",
    "xva_cva_mc",
    "bsde_picard_mc",
    "american_lsm",
    "bermudan_max_lsm",
];

/// Structural checks over the `workload_smoke` artifact (`BENCH_10.json`).
///
/// Re-validates the typed-workload claims: every class of the mixed
/// portfolio present in the per-class compute breakdown with positive
/// seconds and a job count summing back to the portfolio size, LPT not
/// losing to FIFO on the simulated makespan (with a self-consistent
/// recorded improvement), and the staged BSDE run — at least two
/// dependent rounds, all completed, live trace byte-identical to the
/// staged simulator's.
fn gate_workload(json: &str) -> Result<String, String> {
    let g = |key: &str| field(json, key).map_err(|e| format!("BENCH_10: {e}"));
    let (jobs, classes) = (g("jobs")?, g("classes")?);
    if classes != WORKLOAD_CLASSES.len() as f64 {
        return Err(format!(
            "BENCH_10: breakdown has {classes} classes, the mixed portfolio holds {}",
            WORKLOAD_CLASSES.len()
        ));
    }
    let mut counted = 0.0;
    for name in WORKLOAD_CLASSES {
        let n = g(&format!("class_{name}_jobs"))?;
        let s = g(&format!("class_{name}_s"))?;
        if n < 1.0 || s <= 0.0 {
            return Err(format!(
                "BENCH_10: class {name} has no recorded compute ({n} jobs, {s}s)"
            ));
        }
        counted += n;
    }
    if counted != jobs {
        return Err(format!(
            "BENCH_10: per-class job counts sum to {counted}, portfolio holds {jobs}"
        ));
    }
    let (fifo, lpt) = (g("fifo_sim_makespan_s")?, g("lpt_sim_makespan_s")?);
    if fifo <= 0.0 || lpt <= 0.0 {
        return Err(format!(
            "BENCH_10: degenerate simulated makespans (FIFO {fifo}s, LPT {lpt}s)"
        ));
    }
    if lpt > fifo {
        return Err(format!(
            "BENCH_10: LPT makespan {lpt:.3}s above FIFO's {fifo:.3}s"
        ));
    }
    let imp = g("lpt_improvement")?;
    if ((fifo - lpt) / fifo - imp).abs() > 0.01 {
        return Err(format!(
            "BENCH_10: recorded improvement {imp:.4} inconsistent with makespans \
             (({fifo} - {lpt}) / {fifo} = {:.4})",
            (fifo - lpt) / fifo
        ));
    }
    if g("staged_trace_identical")? != 1.0 {
        return Err("BENCH_10: staged live and sim traces diverged".into());
    }
    let (rounds, done) = (g("staged_rounds")?, g("staged_completed")?);
    if rounds < 2.0 || done != rounds {
        return Err(format!(
            "BENCH_10: staged run off ({done} of {rounds} dependent rounds)"
        ));
    }
    Ok(format!(
        "workload: {jobs:.0} jobs over {classes:.0} classes, LPT {:.1}% under FIFO, \
         staged BSDE {rounds:.0} rounds trace-identical\n",
        imp * 100.0
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (core, b8, b10) = match args.as_slice() {
        [fresh, b4, b3] => ([fresh, b4, b3], None, None),
        [fresh, b4, b3, b8] => ([fresh, b4, b3], Some(b8), None),
        [fresh, b4, b3, b8, b10] => ([fresh, b4, b3], Some(b8), Some(b10)),
        _ => {
            eprintln!(
                "usage: bench_gate <BENCH_6.json> <BENCH_4.json> <BENCH_3.json> \
                 [BENCH_8.json] [BENCH_10.json]"
            );
            exit(2);
        }
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot read {path}: {e}");
            exit(2);
        })
    };
    let shard = b8.map(|p| gate_shard(&read(p)));
    let workload = b10.map(|p| gate_workload(&read(p)));
    match gate(&read(core[0]), &read(core[1]), &read(core[2])).and_then(|mut summary| {
        if let Some(s) = shard {
            summary.push_str(&s?);
        }
        if let Some(s) = workload {
            summary.push_str(&s?);
        }
        Ok(summary)
    }) {
        Ok(summary) => {
            print!("bench_gate: PASS\n{summary}");
        }
        Err(e) => {
            eprintln!("bench_gate: FAIL: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal report JSON with the given (strategy, prepare, wire,
    /// wait, compute, hit_rate) rows in `obs::BreakdownReport` shape.
    fn report(rows: &[(&str, f64, f64, f64, f64, f64)]) -> String {
        let runs: Vec<String> = rows
            .iter()
            .map(|(s, p, wi, wa, c, h)| {
                format!(
                    "{{\"strategy\":\"{s}\",\"cpus\":4,\"wall_s\":1.0,\"events\":1,\
                     \"dropped\":0,\"prepare_s\":{p},\"wire_s\":{wi},\"wait_s\":{wa},\
                     \"compute_s\":{c},\"store_s\":0.0,\"cache_hit_rate\":{h},\
                     \"parallel_s\":0.0,\"parallelism\":0.0,\"lanes\":0.0,\
                     \"phases\":[{{\"phase\":\"compute\",\"count\":1,\"total_s\":9.9,\
                     \"mean_s\":9.9,\"p50_s\":9.9,\"p90_s\":9.9,\"p99_s\":9.9,\
                     \"max_s\":9.9,\"bytes\":0}}],\"by_class\":[]}}"
                )
            })
            .collect();
        format!("{{\"title\":\"t\",\"runs\":[{}]}}", runs.join(","))
    }

    fn bench4() -> String {
        let mut rows = Vec::new();
        for s in STRATEGIES {
            rows.push((s, 0.8, 0.25, 0.14, 1.0968, 0.0));
        }
        let labels: Vec<String> = STRATEGIES
            .iter()
            .map(|s| format!("{s} (x8 threads)"))
            .collect();
        for l in &labels {
            rows.push((l.as_str(), 0.8, 0.25, 0.14, 0.2251, 0.0));
        }
        report(&rows)
    }

    fn bench3() -> String {
        let mut rows = Vec::new();
        let warm: Vec<String> = STRATEGIES.iter().map(|s| format!("{s} (warm)")).collect();
        for (s, w) in STRATEGIES.iter().zip(&warm) {
            rows.push((*s, 0.8, 0.25, 0.14, 5.5, 0.0));
            rows.push((w.as_str(), 0.1, 0.25, 0.14, 5.5, 1.0));
        }
        report(&rows)
    }

    fn bench6(lane_compute: f64) -> String {
        let mut rows = Vec::new();
        let thr: Vec<String> = STRATEGIES
            .iter()
            .map(|s| format!("{s} (x8 threads)"))
            .collect();
        let lane: Vec<String> = STRATEGIES
            .iter()
            .map(|s| format!("{s} (x8 threads, 8 lanes)"))
            .collect();
        for ((s, t), l) in STRATEGIES.iter().zip(&thr).zip(&lane) {
            rows.push((*s, 0.8, 0.25, 0.14, 1.0968, 0.0));
            rows.push((t.as_str(), 0.8, 0.25, 0.14, 0.2251, 0.0));
            rows.push((l.as_str(), 0.8, 0.25, 0.14, lane_compute, 0.0));
        }
        report(&rows)
    }

    #[test]
    fn parses_summary_buckets_not_phase_entries() {
        let runs = parse_runs(&bench4()).unwrap();
        assert_eq!(runs.len(), 6);
        // total_s 9.9 in the phases array must never leak into a bucket.
        assert_eq!(runs[0].compute_s, 1.0968);
        assert_eq!(runs[0].strategy, "full load");
    }

    #[test]
    fn gate_passes_on_a_2x_lane_win() {
        let summary = gate(&bench6(0.0926), &bench4(), &bench3()).unwrap();
        assert!(summary.contains("x2.43"), "{summary}");
    }

    #[test]
    fn gate_fails_on_a_weak_lane_win() {
        let err = gate(&bench6(0.2), &bench4(), &bench3()).unwrap_err();
        assert!(err.contains("need >= 2x"), "{err}");
    }

    #[test]
    fn gate_fails_on_compute_drift() {
        let mut fresh = bench6(0.0926);
        fresh = fresh.replacen("1.0968", "1.0969", 1);
        let err = gate(&fresh, &bench4(), &bench3()).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
    }

    #[test]
    fn gate_fails_when_lanes_touch_the_wire() {
        let fresh = bench6(0.0926);
        // Bump every lane row's wire bucket.
        let fresh = fresh.replace(
            "8 lanes)\",\"cpus\":4,\"wall_s\":1.0,\"events\":1,\"dropped\":0,\"prepare_s\":0.8,\"wire_s\":0.25",
            "8 lanes)\",\"cpus\":4,\"wall_s\":1.0,\"events\":1,\"dropped\":0,\"prepare_s\":0.8,\"wire_s\":0.26",
        );
        let err = gate(&fresh, &bench4(), &bench3()).unwrap_err();
        assert!(err.contains("wire drifted"), "{err}");
    }

    #[test]
    fn gate_fails_without_warm_anchor() {
        let b3 = bench3().replace("\"cache_hit_rate\":1", "\"cache_hit_rate\":0");
        let err = gate(&bench6(0.0926), &bench4(), &b3).unwrap_err();
        assert!(err.contains("hit-rate"), "{err}");
    }

    /// A healthy `shard_smoke` artifact in BENCH_8 shape.
    fn bench8() -> String {
        "{\"title\":\"Sharded peer masters smoke\",\
         \"jobs\":48,\"heavy_jobs\":12,\"prices_bit_identical\":1,\
         \"live_1_makespan_s\":0.245,\"live_1_steals\":0,\
         \"live_2_makespan_s\":0.257,\"live_2_steals\":9,\
         \"live_4_makespan_s\":0.263,\"live_4_steals\":5,\
         \"live_proc_makespan_s\":0.264,\"live_proc_steals\":9,\
         \"channel_per_message_s\":4.9e-6,\"channel_per_byte_s\":5.8e-11,\
         \"socket_per_message_s\":7.6e-6,\"socket_per_byte_s\":2.1e-10,\
         \"sim_1_makespan_s\":0.136,\"sim_2_makespan_s\":0.075,\"sim_4_makespan_s\":0.045,\
         \"sim_512_makespan_s\":0.057,\"sim_512_jobs\":4096,\"sim_512_steals\":24}"
            .into()
    }

    #[test]
    fn shard_gate_passes_on_a_healthy_artifact() {
        let summary = gate_shard(&bench8()).unwrap();
        assert!(summary.contains("512 cores"), "{summary}");
    }

    #[test]
    fn shard_gate_fails_without_steals() {
        let err = gate_shard(&bench8().replace("\"live_4_steals\":5", "\"live_4_steals\":0"))
            .unwrap_err();
        assert!(err.contains("no steals"), "{err}");
    }

    #[test]
    fn shard_gate_fails_on_a_degraded_multi_shard_makespan() {
        let err = gate_shard(
            &bench8().replace("\"live_2_makespan_s\":0.257", "\"live_2_makespan_s\":0.9"),
        )
        .unwrap_err();
        assert!(err.contains("degrades"), "{err}");
    }

    #[test]
    fn shard_gate_fails_on_non_monotone_sim_makespans() {
        let err = gate_shard(
            &bench8().replace("\"sim_4_makespan_s\":0.045", "\"sim_4_makespan_s\":0.2"),
        )
        .unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn shard_gate_fails_on_an_incomplete_512_core_row() {
        let err =
            gate_shard(&bench8().replace("\"sim_512_jobs\":4096", "\"sim_512_jobs\":4000"))
                .unwrap_err();
        assert!(err.contains("512-core"), "{err}");
    }

    #[test]
    fn shard_gate_fails_when_sockets_measure_cheaper_than_channels() {
        let err = gate_shard(
            &bench8().replace("\"socket_per_message_s\":7.6e-6", "\"socket_per_message_s\":1e-9"),
        )
        .unwrap_err();
        assert!(err.contains("per-message"), "{err}");
    }

    /// A healthy `workload_smoke` artifact in BENCH_10 shape.
    fn bench10() -> String {
        "{\"title\":\"Heterogeneous workload smoke\",\"jobs\":24,\"slaves\":8,\
         \"classes\":6,\"class_american_lsm_jobs\":2,\"class_american_lsm_s\":0.0025,\
         \"class_bermudan_max_lsm_jobs\":2,\"class_bermudan_max_lsm_s\":0.0019,\
         \"class_bsde_picard_mc_jobs\":2,\"class_bsde_picard_mc_s\":0.0145,\
         \"class_localvol_mc_jobs\":4,\"class_localvol_mc_s\":0.0072,\
         \"class_vanilla_cf_jobs\":12,\"class_vanilla_cf_s\":0.0000217,\
         \"class_xva_cva_mc_jobs\":2,\"class_xva_cva_mc_s\":0.0011,\
         \"fifo_sim_makespan_s\":125.015,\"lpt_sim_makespan_s\":105.0,\
         \"lpt_improvement\":0.160101,\"fifo_live_s\":0.02,\"lpt_live_s\":0.019,\
         \"staged_rounds\":3,\"staged_completed\":3,\"staged_trace_identical\":1}"
            .into()
    }

    #[test]
    fn workload_gate_passes_on_a_healthy_artifact() {
        let summary = gate_workload(&bench10()).unwrap();
        assert!(summary.contains("staged BSDE 3 rounds"), "{summary}");
    }

    #[test]
    fn workload_gate_fails_when_a_class_lost_its_compute() {
        let err = gate_workload(
            &bench10().replace("\"class_bsde_picard_mc_s\":0.0145", "\"class_bsde_picard_mc_s\":0"),
        )
        .unwrap_err();
        assert!(err.contains("bsde_picard_mc"), "{err}");
    }

    #[test]
    fn workload_gate_fails_when_class_counts_do_not_sum() {
        let err = gate_workload(
            &bench10().replace("\"class_vanilla_cf_jobs\":12", "\"class_vanilla_cf_jobs\":11"),
        )
        .unwrap_err();
        assert!(err.contains("sum to"), "{err}");
    }

    #[test]
    fn workload_gate_fails_when_lpt_loses_to_fifo() {
        let err = gate_workload(
            &bench10()
                .replace("\"lpt_sim_makespan_s\":105.0", "\"lpt_sim_makespan_s\":130.0")
                .replace("\"lpt_improvement\":0.160101", "\"lpt_improvement\":-0.04"),
        )
        .unwrap_err();
        assert!(err.contains("above FIFO"), "{err}");
    }

    #[test]
    fn workload_gate_fails_on_an_inconsistent_improvement() {
        let err = gate_workload(
            &bench10().replace("\"lpt_improvement\":0.160101", "\"lpt_improvement\":0.5"),
        )
        .unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");
    }

    #[test]
    fn workload_gate_fails_when_staged_traces_diverge() {
        let err = gate_workload(
            &bench10()
                .replace("\"staged_trace_identical\":1", "\"staged_trace_identical\":0"),
        )
        .unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn workload_gate_fails_on_an_incomplete_staged_run() {
        let err = gate_workload(
            &bench10().replace("\"staged_completed\":3", "\"staged_completed\":2"),
        )
        .unwrap_err();
        assert!(err.contains("dependent rounds"), "{err}");
    }

    #[test]
    fn shard_gate_fails_when_price_identity_is_lost() {
        let err = gate_shard(
            &bench8().replace("\"prices_bit_identical\":1", "\"prices_bit_identical\":0"),
        )
        .unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
    }
}
