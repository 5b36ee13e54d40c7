//! Pinned golden `(price, std_error)` bits for every LSM kernel, on path
//! counts that the chunked executor splits into several uneven blocks.
//!
//! `kernel_goldens.rs` pins the chunked LSM kernels at 2 000 paths under
//! the default chunk of 1 024 (two blocks), and the `table3_mix` jobs
//! price one block each. Here 500 paths run in chunks of 90: five full
//! blocks and a short one, with a lane tail in every block at 4 and 8
//! lanes. The backward induction reads the blocks where they were
//! simulated, so these pins guard the block layout as much as the draws.
//! Every chunked golden holds at 1, 2 and 8 workers.
//!
//! Same re-pin policy as `kernel_goldens.rs`: rewrite a constant only when
//! the sampling scheme changes on purpose. Regenerate with
//!
//! ```text
//! cargo test -q --test lsm_goldens -- --ignored --nocapture regen
//! ```

use exec::ExecPolicy;
use pricing::methods::bermudan::lsm_max_call;
use pricing::methods::lsm::{lsm_basket, lsm_heston, lsm_vanilla_bs, LsmConfig};
use pricing::methods::montecarlo::McResult;
use pricing::models::{BlackScholes, Heston, MultiBlackScholes};
use pricing::options::{BasketOption, MaxCall, Vanilla};

/// Kernel names in table order.
const KERNELS: [&str; 4] = ["lsm_vanilla_bs", "lsm_basket", "lsm_heston", "lsm_max_call"];

/// Paths per price and the chunk that splits them: 500 = 5 × 90 + 50.
const PATHS: usize = 500;
const CHUNK: usize = 90;

fn cfg() -> LsmConfig {
    LsmConfig {
        paths: PATHS,
        exercise_dates: 8,
        basis_degree: 2,
        seed: 3011,
        ..LsmConfig::default()
    }
}

/// Price every kernel, in [`KERNELS`] order: chunked under `pol`, or the
/// whole sample on one stream when `None`.
fn prices(pol: Option<&ExecPolicy>) -> [McResult; 4] {
    let bs = BlackScholes::new(100.0, 0.3, 0.05, 0.0);
    let put = Vanilla::american_put(110.0, 1.0);
    // The paper's 7-asset American basket put (§4.3).
    let basket = MultiBlackScholes::new(7, 100.0, 0.2, 0.3, 0.05, 0.0);
    let bput = BasketOption::american_put(100.0, 1.0);
    let hes = Heston::standard(100.0, 0.05);
    let hput = Vanilla::american_put(100.0, 1.0);
    let max = MultiBlackScholes::new(3, 100.0, 0.2, 0.3, 0.05, 0.1);
    let call = MaxCall::bermudan(100.0, 1.0);
    let cfg = cfg();
    match pol {
        Some(pol) => [
            lsm_vanilla_bs(&bs, &put, &cfg, Some(pol)),
            lsm_basket(&basket, &bput, &cfg, Some(pol)),
            lsm_heston(&hes, &hput, &cfg, Some(pol)),
            lsm_max_call(&max, &call, &cfg, Some(pol)),
        ],
        None => [
            lsm_vanilla_bs(&bs, &put, &cfg, None),
            lsm_basket(&basket, &bput, &cfg, None),
            lsm_heston(&hes, &hput, &cfg, None),
            lsm_max_call(&max, &call, &cfg, None),
        ],
    }
}

fn bits(r: &McResult) -> (u64, u64) {
    (r.price.to_bits(), r.std_error.to_bits())
}

/// Sequential entry points: one block of all 500 paths.
const GOLDEN_SEQUENTIAL: [(u64, u64); 4] = [
    (0x402ea496e54c1491, 0x3fe30ea80a549870), // lsm_vanilla_bs
    (0x400b137678ac16af, 0x3fc801a2f6285534), // lsm_basket
    (0x40175b654c78c2bf, 0x3fd7c1a4ac4bb1b7), // lsm_heston
    (0x402757ac9399b2eb, 0x3fdde331ffe3f132), // lsm_max_call
];

/// Chunked entry points at chunk [`CHUNK`], per lane width.
const GOLDEN_LANES1: [(u64, u64); 4] = [
    (0x402e89dfc6327c65, 0x3fe2331ae24d23f1), // lsm_vanilla_bs
    (0x400a4d9a91ba9e18, 0x3fc940bbdd2370cc), // lsm_basket
    (0x401796cc51ab81d9, 0x3fd5c3f6f99f2a33), // lsm_heston
    (0x4028d2d79e4b8790, 0x3fe07cd142bea75b), // lsm_max_call
];

const GOLDEN_LANES4: [(u64, u64); 4] = [
    (0x402f7ed22d8c8983, 0x3fe3760045f86988), // lsm_vanilla_bs
    (0x400a9aed098bab4d, 0x3fc816186f06b5e3), // lsm_basket
    (0x40169510c0a0850c, 0x3fd77b21f6522670), // lsm_heston
    (0x4028db5890b4e0d5, 0x3fe04d207a46a1bd), // lsm_max_call
];

const GOLDEN_LANES8: [(u64, u64); 4] = [
    (0x402fcec5b10fde55, 0x3fe3c38def5c6a8f), // lsm_vanilla_bs
    (0x400c128301941542, 0x3fc95573a6e3c819), // lsm_basket
    (0x4016934af495d6e0, 0x3fd5b0391f38cc83), // lsm_heston
    (0x40290d1f9e0e3280, 0x3fe1676bf3a6843c), // lsm_max_call
];

fn golden(lanes: usize) -> &'static [(u64, u64); 4] {
    match lanes {
        1 => &GOLDEN_LANES1,
        4 => &GOLDEN_LANES4,
        8 => &GOLDEN_LANES8,
        other => panic!("no golden table for lane width {other}"),
    }
}

fn print_table(title: &str, results: &[McResult; 4]) {
    println!("// {title}");
    for (name, r) in KERNELS.iter().zip(results) {
        let (p, se) = bits(r);
        println!("    (0x{p:016x}, 0x{se:016x}), // {name}");
    }
}

/// One-time regeneration helper (see the re-pin policy above).
#[test]
#[ignore]
fn regen() {
    print_table("sequential", &prices(None));
    for lanes in [1usize, 4, 8] {
        let pol = ExecPolicy::new(1).chunk(CHUNK).lanes(lanes);
        print_table(&format!("lanes = {lanes}"), &prices(Some(&pol)));
    }
}

#[test]
fn sequential_lsm_goldens() {
    for ((name, r), want) in KERNELS.iter().zip(prices(None)).zip(&GOLDEN_SEQUENTIAL) {
        assert_eq!(bits(&r), *want, "{name}: sequential price drifted: {r:?}");
    }
}

#[test]
fn multi_block_lsm_goldens_hold_at_every_worker_count_and_lane_count() {
    assert_eq!(ExecPolicy::new(1).chunk(CHUNK).plan(PATHS).len(), 6);
    for lanes in [1usize, 4, 8] {
        for workers in [1usize, 2, 8] {
            let pol = ExecPolicy::new(workers).chunk(CHUNK).lanes(lanes);
            for ((name, r), want) in KERNELS.iter().zip(prices(Some(&pol))).zip(golden(lanes)) {
                assert_eq!(
                    bits(&r),
                    *want,
                    "{name}: lanes={lanes} workers={workers} drifted: {r:?}"
                );
            }
        }
    }
}
