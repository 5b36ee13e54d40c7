//! A Fig. 4 job costs the script what its messages cost, not what its
//! values cost: the statuses `MPI_Probe` and `MPI_Recv` return and the
//! scalars the VM reads allocate nothing, and a string passed on is
//! shared, not copied. Counted, not timed.
//!
//! Every rank allocates on its own thread, so the counting allocator is
//! process-wide, and this binary holds this one test so that nothing
//! else allocates while it counts. A job's cost is the marginal cost of
//! `scripts/fig4_farm.nsp` from 1 000 to 3 000 toy jobs on one master
//! and one slave (VM engine), after one warm-up run: what every run pays
//! once (parsing, the world's threads, the result list growing) cancels
//! out.

use minimpi::World;
use nsplang::{Engine, Interp, NValue};
use riskbench::prelude::*;
use std::path::Path;
use std::rc::Rc;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// The jobs of the small and the large counted run.
const SMALL: usize = 1_000;
const LARGE: usize = 3_000;

/// Most allocations a Fig. 4 job may make. With a three-entry hash for
/// every status and a heap cell for every scalar it made 82.
const CEILING: f64 = 30.0;

/// The Fig. 4 script as the paper writes it.
const FIG4: &str = include_str!("../scripts/fig4_farm.nsp");

/// The allocations the process made while the script priced the first
/// `n_jobs` problems under `dir`, checking every job came back.
fn counted(script: &str, dir: &Path, n_jobs: usize) -> u64 {
    let before = counting_alloc::now();
    let ran = World::run(2, |comm| {
        let mut interp = Interp::with_comm(Rc::new(comm));
        interp.set_engine(Engine::Vm);
        interp.set("n_jobs", NValue::scalar(n_jobs as f64));
        interp.run(script).map_err(|e| e.to_string())
    });
    let made = (counting_alloc::now() - before).process;
    for rank in ran {
        rank.expect("the script runs on every rank");
    }
    let res = load(dir.join("pb-res.bin")).expect("the master saved its results");
    assert_eq!(res.as_list().map(|l| l.len()), Some(n_jobs));
    made.allocations
}

#[test]
fn a_fig4_job_allocates_for_its_messages_only() {
    let dir = std::env::temp_dir().join(format!("riskbench_script_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (k, job) in toy_portfolio(LARGE).iter().enumerate() {
        let path = dir.join(format!("pb-{}.bin", k + 1));
        save(&path, &job.problem.to_value()).unwrap();
    }
    let prefix = format!("{}/", dir.display());
    assert!(
        !prefix.contains('\''),
        "{prefix:?} cannot be quoted in a script"
    );
    let script = FIG4.replace("portfolio/", &prefix);
    counted(&script, &dir, SMALL);
    let small = counted(&script, &dir, SMALL);
    let large = counted(&script, &dir, LARGE);
    std::fs::remove_dir_all(&dir).ok();
    let per_job = (large as f64 - small as f64) / (LARGE - SMALL) as f64;
    println!("{per_job:.2} allocations a Fig. 4 job");
    assert!(
        per_job <= CEILING,
        "a Fig. 4 job allocates {per_job:.2} times, above {CEILING}"
    );
}
