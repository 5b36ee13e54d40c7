//! `table2 --breakdown` is deterministic simulator output, so its JSON
//! line is pinned byte for byte against the committed golden: the warm
//! store (BENCH_3). A change to the simulator's cost terms or the
//! report's key order fails here; if the change is meant, regenerate the
//! file from the command in the message.

use bench::breakdown::{breakdown_report, BreakdownOpts};
use clustersim::{table2_sim_jobs, SimConfig};

fn assert_golden(file: &str, jobs: usize, flags: &str, opts: BreakdownOpts) {
    let title = "Table II breakdown — per-phase cost decomposition by strategy";
    let report = breakdown_report(title, &table2_sim_jobs(jobs), &opts, &SimConfig::default())
        .expect("the breakdown's own checks hold");
    let json = report.to_json() + "\n";
    let path = format!("{}/tests/goldens/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("golden file is readable");
    if let Some(at) = json.bytes().zip(golden.bytes()).position(|(a, b)| a != b) {
        let near = |s: &str| {
            String::from_utf8_lossy(&s.as_bytes()[at.saturating_sub(40)..(at + 40).min(s.len())])
                .into_owned()
        };
        panic!(
            "{file} differs at byte {at}:\n  now    {:?}\n  golden {:?}\nregenerate with: \
             cargo run -p bench --bin table2 -- --breakdown {flags} | sed -n 's/^JSON: //p' > {path}",
            near(&json),
            near(&golden)
        );
    }
    assert_eq!(
        json.len(),
        golden.len(),
        "{file}: same prefix, different length"
    );
}

#[test]
fn warm_store_breakdown_matches_bench_3() {
    let opts = BreakdownOpts {
        warm: true,
        ..BreakdownOpts::default()
    };
    assert_golden("BENCH_3.json", 10_000, "--warm --jobs 10000 --cpus 8", opts);
}
