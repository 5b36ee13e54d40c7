//! The metric tables: every name the harness may print, with its unit
//! and direction. `BENCHMARK.json` repeats them; `perf check` fails when
//! the two disagree, and a run fails when it produces a name that is not
//! here or omits one that is.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports all of them: a farm or script pass is one request
/// (the caller waits for the whole portfolio), and a serve pass has a
/// makespan (first due time to last answer).
///
/// Every time is reported at the speed of a reference host (see `host`):
/// the shared VM this is gated on changes speed by up to 2x in steps
/// that outlast a run. Every bound is still as wide as the acceptance
/// contract allows (0.25): normalised ten-run spreads are 1-6 % on a
/// typical half-hour, and the driver's own measurement of the raw
/// numbers read 25-49 % on a bad one. Request p99 spread 54 % and is a
/// layer metric (`serve.req_p99_us`), not a gated one.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("makespan_s", "s", Better::Lower, 0.25),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("req_p50_us", "us", Better::Lower, 0.25),
];

/// One number per layer boundary, from the traced run. Layers are crates.
pub const PER_LAYER: [MetricDef; 88] = [
    // pricing: kernels, lanes, value conversion
    lo("pricing.serial_s", "s"),
    lo("pricing.vanilla_cf_ns", "ns"),
    lo("pricing.barrier_pde_us", "us"),
    lo("pricing.american_pde_us", "us"),
    lo("pricing.basket_mc_ns_per_path", "ns/path"),
    lo("pricing.localvol_mc_ns_per_path", "ns/path"),
    lo("pricing.american_lsm_ns_per_path", "ns/path"),
    lo("pricing.bermudan_lsm_ns_per_path", "ns/path"),
    lo("pricing.bsde_ns_per_path", "ns/path"),
    lo("pricing.xva_ns_per_path", "ns/path"),
    hi("pricing.lane4_speedup", "ratio"),
    hi("pricing.lane8_speedup", "ratio"),
    lo("pricing.to_value_ns", "ns"),
    lo("pricing.from_value_ns", "ns"),
    // exec: the chunked executor
    hi("exec.thread_efficiency", "ratio"),
    lo("exec.chunk_overhead_ns", "ns"),
    hi("exec.steals", "count"),
    // numerics: samplers
    lo("numerics.gauss_ns", "ns"),
    lo("numerics.sobol_ns", "ns"),
    // xdr / nspval: file and wire codec over the pass's problem files
    lo("xdr.sload_us", "us"),
    lo("xdr.load_us", "us"),
    lo("xdr.save_us", "us"),
    hi("xdr.serialize_mbps", "MB/s"),
    hi("xdr.unserialize_mbps", "MB/s"),
    hi("xdr.compress_mbps", "MB/s"),
    hi("xdr.decompress_mbps", "MB/s"),
    lo("xdr.compress_ratio", "ratio"),
    // transport: latency and bandwidth against message size, both backends
    lo("transport.channel_rtt_us", "us"),
    lo("transport.uds_rtt_us", "us"),
    lo("transport.channel_rtt_64k_us", "us"),
    lo("transport.uds_rtt_64k_us", "us"),
    hi("transport.channel_mbps_1m", "MB/s"),
    hi("transport.uds_mbps_1m", "MB/s"),
    // minimpi: object layer over the transport
    lo("minimpi.obj_rtt_us", "us"),
    lo("minimpi.pack_ns", "ns"),
    lo("minimpi.unpack_ns", "ns"),
    lo("minimpi.probe_recv_us", "us"),
    lo("minimpi.spawn_us", "us"),
    // sched: the pure scheduler
    hi("sched.decisions_per_s", "1/s"),
    hi("sched.lpt_decisions_per_s", "1/s"),
    lo("sched.actions_per_job", "count"),
    // store: problem store tiers and the result memo
    lo("store.dir_fetch_us", "us"),
    lo("store.cache_hit_us", "us"),
    lo("store.cache_miss_us", "us"),
    lo("store.memo_get_ns", "ns"),
    lo("store.memo_insert_ns", "ns"),
    hi("store.fingerprint_mbps", "MB/s"),
    hi("store.hit_rate", "share"),
    // farm: recorder breakdown of the traced passes, and strategy replays
    lo("farm.prepare_s", "s"),
    lo("farm.wire_s", "s"),
    lo("farm.wait_s", "s"),
    lo("farm.compute_s", "s"),
    lo("farm.master_busy_frac", "share"),
    hi("farm.slave_busy_frac", "share"),
    lo("farm.messages", "count"),
    lo("farm.bytes", "count"),
    lo("farm.per_job_us", "us"),
    hi("farm.efficiency", "ratio"),
    lo("farm.prepare_payload_us", "us"),
    lo("farm.recover_problem_us", "us"),
    lo("farm.retries", "count"),
    lo("farm.failed", "count"),
    // serve: the resident session
    lo("serve.req_p99_us", "us"),
    lo("serve.cold_p50_us", "us"),
    lo("serve.warm_p50_us", "us"),
    lo("serve.submit_us", "us"),
    hi("serve.memo_hit_rate", "share"),
    lo("serve.shed", "count"),
    lo("serve.slo_miss_share", "share"),
    lo("serve.gen_lag_p99_us", "us"),
    lo("serve.start_us", "us"),
    lo("serve.shutdown_us", "us"),
    lo("serve.p99_us_at_500", "us"),
    lo("serve.p99_us_at_2000", "us"),
    hi("serve.sustained_rps", "1/s"),
    // nsplang: front end, both engines, builtins
    lo("nsplang.parse_us", "us"),
    lo("nsplang.lower_us", "us"),
    hi("nsplang.vm_ops_per_s", "1/s"),
    hi("nsplang.tree_ops_per_s", "1/s"),
    lo("nsplang.builtin_call_ns", "ns"),
    lo("nsplang.script_per_job_us", "us"),
    // obs: the cost of watching
    lo("obs.record_ns", "ns"),
    lo("obs.dropped", "count"),
    lo("obs.overhead_ratio", "ratio"),
    // clustersim: the simulator scored against this run
    lo("clustersim.sim_makespan_s", "s"),
    lo("clustersim.residual", "ratio"),
    hi("clustersim.events_per_s", "1/s"),
    // host: how fast the machine was while the layer numbers were read
    hi("host.speed", "ratio"),
];

/// Limits `BENCHMARK.json` must stay within.
pub const MAX_WORKLOADS: usize = 8;
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
pub const MAX_BOUND: f64 = 0.25;

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `[A-Za-z0-9_/%.-]{1,16}`
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are used once"
        );
        assert!(END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .all(|m| valid_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= MAX_BOUND)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END.len() <= MAX_END_TO_END && PER_LAYER.len() <= MAX_PER_LAYER);
        // The contract: set-up time is an end-to-end metric, in seconds,
        // lower is better, with the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("farm.per_job_us") && valid_name("9lives") && valid_name("a-b"));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("MB/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }
}
