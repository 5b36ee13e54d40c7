//! The pricing kernels allocate per job, never per path or per time step:
//! every per-path buffer comes from the pooled `PathWorkspace` or is sized
//! once up front. A kernel run at 1 024 paths must make exactly as many
//! allocations as the same kernel at 256 paths (one chunk either way), and
//! a PDE at 200 time steps as many as at 50. A closed form allocates
//! nothing at all, result included. Allocations are counted by a
//! per-thread counting allocator, so tests running side by side do not
//! see each other's; nothing is timed.

use exec::ExecPolicy;
use pricing::methods::bermudan::lsm_max_call;
use pricing::methods::bond::mc_zcb_price;
use pricing::methods::bsde::{bsde_sweep, BsdeConfig};
use pricing::methods::lsm::{lsm_basket, lsm_heston, lsm_vanilla_bs, LsmConfig};
use pricing::methods::montecarlo::{
    mc_basket, mc_heston, mc_local_vol, mc_vanilla_bs, qmc_basket, qmc_vanilla_bs, McConfig,
};
use pricing::methods::pde::{pde_barrier, pde_vanilla, PdeConfig};
use pricing::methods::xva::{xva_cva, TradeSoA, XvaConfig};
use pricing::models::{BlackScholes, Heston, LocalVol, MultiBlackScholes, Vasicek};
use pricing::options::{Barrier, BasketOption, MaxCall, Vanilla};
use pricing::MethodSpec;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
#[path = "common/registry.rs"]
mod registry;

/// Allocations the calling thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = counting_alloc::now();
    f();
    (counting_alloc::now() - before).thread.allocations
}

/// A kernel priced at a given size: paths, or time steps for a PDE.
type Kernel = Box<dyn Fn(usize)>;

/// Discard a price without letting the optimiser discard its work.
fn keep<T>(price: T) {
    std::hint::black_box(price);
}

/// Paths per run: both inside one default chunk of 1 024.
const PATHS: [usize; 2] = [256, 1_024];

/// Assert that every kernel makes as many allocations at `sizes[1]` as at
/// `sizes[0]`, after one warm-up run at `sizes[0]`.
fn assert_flat(kernels: Vec<(String, Kernel)>, sizes: [usize; 2]) {
    let mut moved = Vec::new();
    for (name, run) in &kernels {
        run(sizes[0]);
        let small = allocations(|| run(sizes[0]));
        let large = allocations(|| run(sizes[1]));
        if small != large {
            moved.push(format!(
                "{name}: {small} allocations at {} against {large} at {}",
                sizes[0], sizes[1]
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "allocations grow with size:\n{}",
        moved.join("\n")
    );
}

/// Lane widths every chunked kernel runs at; one worker, so the chunk
/// bodies run on the counting thread.
const LANES: [usize; 3] = [1, 4, 8];

fn pol(lanes: usize) -> ExecPolicy {
    ExecPolicy::new(1).lanes(lanes)
}

fn mc(paths: usize) -> McConfig {
    McConfig {
        paths,
        time_steps: 8,
        antithetic: true,
        seed: 7,
    }
}

fn lsm(paths: usize) -> LsmConfig {
    LsmConfig {
        paths,
        exercise_dates: 8,
        basis_degree: 2,
        seed: 7,
        ..LsmConfig::default()
    }
}

/// The sequential kernel and its chunked twin at every lane width.
fn with_exec(
    name: &str,
    seq: impl Fn(usize) + 'static,
    exec: impl Fn(usize, &ExecPolicy) + Clone + 'static,
) -> Vec<(String, Kernel)> {
    let mut out: Vec<(String, Kernel)> = vec![(name.to_string(), Box::new(seq))];
    for lanes in LANES {
        let exec = exec.clone();
        let pol = pol(lanes);
        out.push((
            format!("{name} chunked lanes={lanes}"),
            Box::new(move |n| exec(n, &pol)),
        ));
    }
    out
}

#[test]
fn montecarlo_kernels_allocate_per_job_not_per_path() {
    let bs = BlackScholes::new(100.0, 0.2, 0.05, 0.01);
    let call = Vanilla::european_call(100.0, 1.0);
    let basket = MultiBlackScholes::new(40, 100.0, 0.2, 0.3, 0.05, 0.0);
    let bput = BasketOption::european_put(100.0, 1.0);
    let lv = LocalVol::standard(100.0, 0.2, 0.05, 0.0);
    let hes = Heston::standard(100.0, 0.05);
    let mut kernels = Vec::new();
    kernels.extend(with_exec(
        "mc_vanilla_bs",
        move |n| keep(mc_vanilla_bs(&bs, &call, &mc(n), None)),
        move |n, p| keep(mc_vanilla_bs(&bs, &call, &mc(n), Some(p))),
    ));
    kernels.extend(with_exec(
        "mc_basket",
        {
            let (basket, bput) = (basket.clone(), bput);
            move |n| keep(mc_basket(&basket, &bput, &mc(n), None))
        },
        {
            let (basket, bput) = (basket.clone(), bput);
            move |n, p| keep(mc_basket(&basket, &bput, &mc(n), Some(p)))
        },
    ));
    kernels.extend(with_exec(
        "mc_local_vol",
        move |n| keep(mc_local_vol(&lv, &call, &mc(n), None)),
        move |n, p| keep(mc_local_vol(&lv, &call, &mc(n), Some(p))),
    ));
    kernels.extend(with_exec(
        "mc_heston",
        move |n| keep(mc_heston(&hes, &call, &mc(n), None)),
        move |n, p| keep(mc_heston(&hes, &call, &mc(n), Some(p))),
    ));
    kernels.push((
        "qmc_vanilla_bs".into(),
        Box::new(move |n| keep(qmc_vanilla_bs(&bs, &call, n))),
    ));
    kernels.push((
        "qmc_basket".into(),
        Box::new(move |n| keep(qmc_basket(&basket, &bput, n))),
    ));
    assert_flat(kernels, PATHS);
}

#[test]
fn lsm_kernels_allocate_per_job_not_per_path() {
    let bs = BlackScholes::new(100.0, 0.3, 0.05, 0.0);
    let put = Vanilla::american_put(100.0, 1.0);
    // The paper's 7-asset American basket put (§4.3).
    let basket = MultiBlackScholes::new(7, 100.0, 0.2, 0.3, 0.05, 0.0);
    let bput = BasketOption::american_put(100.0, 1.0);
    let hes = Heston::standard(100.0, 0.05);
    let max = MultiBlackScholes::new(3, 100.0, 0.2, 0.3, 0.05, 0.1);
    let call = MaxCall::bermudan(100.0, 1.0);
    let mut kernels = Vec::new();
    kernels.extend(with_exec(
        "lsm_vanilla_bs",
        move |n| keep(lsm_vanilla_bs(&bs, &put, &lsm(n), None)),
        move |n, p| keep(lsm_vanilla_bs(&bs, &put, &lsm(n), Some(p))),
    ));
    kernels.extend(with_exec(
        "lsm_basket",
        {
            let basket = basket.clone();
            move |n| keep(lsm_basket(&basket, &bput, &lsm(n), None))
        },
        move |n, p| keep(lsm_basket(&basket, &bput, &lsm(n), Some(p))),
    ));
    kernels.extend(with_exec(
        "lsm_heston",
        move |n| keep(lsm_heston(&hes, &put, &lsm(n), None)),
        move |n, p| keep(lsm_heston(&hes, &put, &lsm(n), Some(p))),
    ));
    kernels.extend(with_exec(
        "lsm_max_call",
        {
            let max = max.clone();
            move |n| keep(lsm_max_call(&max, &call, &lsm(n), None))
        },
        move |n, p| keep(lsm_max_call(&max, &call, &lsm(n), Some(p))),
    ));
    assert_flat(kernels, PATHS);
}

#[test]
fn bond_bsde_and_xva_kernels_allocate_per_job_not_per_path() {
    let vas = Vasicek::standard();
    let bs = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
    let call = Vanilla::european_call(100.0, 1.0);
    let bsde = |paths| BsdeConfig {
        paths,
        time_steps: 8,
        rate_spread: 0.05,
        picard_rounds: 1,
        y_prev: 5.0,
        seed: 7,
    };
    let xva = |paths| XvaConfig {
        paths,
        time_steps: 8,
        hazard: 0.02,
        lgd: 0.6,
        seed: 7,
    };
    let book = TradeSoA::generate(16, 100.0, 1.0, 7);
    let mut kernels = Vec::new();
    kernels.extend(with_exec(
        "mc_zcb_price",
        move |n| keep(mc_zcb_price(&vas, 2.0, &mc(n), None)),
        move |n, p| keep(mc_zcb_price(&vas, 2.0, &mc(n), Some(p))),
    ));
    kernels.extend(with_exec(
        "bsde_sweep",
        move |n| keep(bsde_sweep(&bs, &call, &bsde(n), None)),
        move |n, p| keep(bsde_sweep(&bs, &call, &bsde(n), Some(p))),
    ));
    kernels.extend(with_exec(
        "xva_cva",
        {
            let book = book.clone();
            move |n| keep(xva_cva(&bs, &book, 1.0, &xva(n), None))
        },
        move |n, p| keep(xva_cva(&bs, &book, 1.0, &xva(n), Some(p))),
    ));
    assert_flat(kernels, PATHS);
}

#[test]
fn pde_time_loop_allocates_nothing_per_step() {
    let bs = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
    let pde = |time_steps| PdeConfig {
        time_steps,
        space_steps: 200,
        ..PdeConfig::default()
    };
    let kernels: Vec<(String, Kernel)> = vec![
        (
            "pde_vanilla european".into(),
            Box::new(move |n| {
                keep(pde_vanilla(
                    &bs,
                    &Vanilla::european_put(100.0, 1.0),
                    &pde(n),
                ))
            }),
        ),
        (
            "pde_vanilla american".into(),
            Box::new(move |n| {
                keep(pde_vanilla(
                    &bs,
                    &Vanilla::american_put(100.0, 1.0),
                    &pde(n),
                ))
            }),
        ),
        (
            "pde_barrier".into(),
            Box::new(move |n| {
                keep(pde_barrier(
                    &bs,
                    &Barrier::down_out_call(100.0, 85.0, 1.0),
                    &pde(n),
                ))
            }),
        ),
    ];
    assert_flat(kernels, [50, 200]);
}

#[test]
fn closed_form_compute_allocates_nothing() {
    let closed: Vec<_> = registry::registry()
        .into_iter()
        .filter(|p| matches!(p.method, MethodSpec::ClosedForm) && p.compute().is_ok())
        .collect();
    assert!(closed.len() >= 7, "{} closed forms", closed.len());
    let allocating: Vec<String> = closed
        .iter()
        .filter_map(|p| {
            let n = allocations(|| keep(p.compute()));
            let pair = format!("{} / {}", p.model.name(), p.option.name());
            (n != 0).then(|| format!("{pair}: {n} allocations"))
        })
        .collect();
    assert!(
        allocating.is_empty(),
        "a closed form allocates:\n{}",
        allocating.join("\n")
    );
}
