//! Pinned golden prices for every chunked MC/LSM/Vasicek kernel.
//!
//! Each golden is the exact bit pattern (`f64::to_bits`) of the price a
//! kernel produces for a fixed `(model, option, config, chunk, lanes)`
//! tuple. The worker count is deliberately NOT part of the tuple — the
//! determinism contract says it can never change a bit — so every golden
//! is asserted at 1, 2 and 8 workers.
//!
//! ## Re-pin policy
//!
//! These constants may be rewritten ONLY when a PR intentionally changes
//! the sampling scheme (a different RNG-stream layout, a different draw
//! order), and at most once per such change. The lane goldens below were
//! pinned when the lane-ordered draw scheme was introduced: with
//! `lanes = L > 1` the normals of a chunk are consumed in
//! `(group, step, lane)` order instead of `(path, step)` order, which is
//! a different — equally valid — deterministic sample, so each supported
//! lane count owns its own golden. `lanes = 1` MUST keep matching the
//! pre-lane goldens forever: the scalar path is the pre-PR kernel,
//! byte for byte. A diff to any constant in this file is loud on
//! purpose; regenerate with
//!
//! ```text
//! cargo test -q --test kernel_goldens -- --ignored --nocapture regen
//! ```
//!
//! and justify the re-pin in the PR description.

use exec::ExecPolicy;
use farm::portfolio::{realistic_portfolio, JobClass, PortfolioScale};
use pricing::methods::bond::mc_zcb_price;
use pricing::methods::bsde::{bsde_sweep, BsdeConfig};
use pricing::methods::lsm::{lsm_basket, lsm_heston, lsm_vanilla_bs, LsmConfig};
use pricing::methods::montecarlo::{mc_basket, mc_heston, mc_local_vol, mc_vanilla_bs, McConfig};
use pricing::methods::xva::{xva_cva, TradeSoA, XvaConfig};
use pricing::models::{BlackScholes, Heston, LocalVol, MultiBlackScholes, Vasicek};
use pricing::options::{BasketOption, Vanilla};
use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};

/// Kernel names in table order.
const KERNELS: [&str; 8] = [
    "mc_vanilla_bs",
    "mc_basket",
    "mc_local_vol",
    "mc_heston",
    "mc_zcb_price",
    "lsm_vanilla_bs",
    "lsm_basket",
    "lsm_heston",
];

fn mc_cfg(paths: usize, time_steps: usize) -> McConfig {
    McConfig {
        paths,
        time_steps,
        antithetic: true,
        seed: 42,
    }
}

/// Price every kernel at the given policy, in [`KERNELS`] order.
fn prices(pol: &ExecPolicy) -> [f64; 8] {
    let bs = BlackScholes::new(100.0, 0.2, 0.05, 0.01);
    let call = Vanilla::european_call(100.0, 1.0);
    let mbs = MultiBlackScholes::new(4, 100.0, 0.2, 0.3, 0.05, 0.0);
    let bput = BasketOption::european_put(100.0, 1.0);
    let lv = LocalVol::standard(100.0, 0.2, 0.05, 0.0);
    let hes = Heston::standard(100.0, 0.05);
    let vas = Vasicek::standard();
    let lsm_bs = BlackScholes::new(100.0, 0.3, 0.05, 0.0);
    let aput = Vanilla::american_put(110.0, 1.0);
    let lsm_mbs = MultiBlackScholes::new(3, 100.0, 0.2, 0.3, 0.05, 0.0);
    let abput = BasketOption::american_put(100.0, 1.0);
    let lsm_cfg = LsmConfig {
        paths: 2_000,
        exercise_dates: 10,
        ..LsmConfig::default()
    };
    [
        mc_vanilla_bs(&bs, &call, &mc_cfg(4_000, 1), Some(pol)).price,
        mc_basket(&mbs, &bput, &mc_cfg(2_000, 1), Some(pol)).price,
        mc_local_vol(&lv, &call, &mc_cfg(2_000, 16), Some(pol)).price,
        mc_heston(&hes, &call, &mc_cfg(2_000, 16), Some(pol)).price,
        mc_zcb_price(&vas, 2.0, &mc_cfg(2_000, 16), Some(pol)).price,
        lsm_vanilla_bs(&lsm_bs, &aput, &lsm_cfg, Some(pol)).price,
        lsm_basket(&lsm_mbs, &abput, &lsm_cfg, Some(pol)).price,
        lsm_heston(
            &hes,
            &Vanilla::american_put(100.0, 1.0),
            &lsm_cfg,
            Some(pol),
        )
        .price,
    ]
}

/// Golden bit patterns per lane count, in [`KERNELS`] order.
///
/// `GOLDEN_LANES1` is the pre-lane capture (the scalar kernels, byte for
/// byte). The lane tables were pinned when the lane kernels landed; note
/// the single-step kernels (`mc_vanilla_bs`, `mc_basket`)
/// consume draws in the same order at any lane count, so their lane
/// prices differ from scalar only by `mul_add` fusion — per-sample ulps
/// that happen to round to the same mean at these fixture sizes. The
/// path-dependent kernels consume draws in `(group, step, lane)` order
/// and own genuinely different goldens per lane count.
const GOLDEN_LANES1: [u64; 8] = [
    0x40233dec53a529b8, // mc_vanilla_bs_exec = 9.620943654929633
    0x4009f128eb7b315d, // mc_basket_exec = 3.242753829667136
    0x402694a100accd94, // mc_local_vol_exec = 11.290290852636453
    0x4024fb373666ef58, // mc_heston_exec = 10.490655613007831
    0x3fecf4c4add101f8, // mc_zcb_price_exec = 0.9048789400913497
    0x402eb4937f175afa, // lsm_vanilla_bs_exec = 15.35268780860996
    0x400fd65c54769848, // lsm_basket_exec = 3.9796682928745533
    0x4017a07d07ddda20, // lsm_heston_exec = 5.90672695437982
];

const GOLDEN_LANES4: [u64; 8] = [
    0x40233dec53a529b8, // mc_vanilla_bs_exec = 9.620943654929633
    0x4009f128eb7b315d, // mc_basket_exec = 3.242753829667136
    0x4026b778004aff32, // mc_local_vol_exec = 11.358337411074533
    0x4024af6a7e118443, // mc_heston_exec = 10.34260934795214
    0x3fecf4c7f47c16a9, // mc_zcb_price_exec = 0.9048805022327616
    0x402f79d482faa3d7, // lsm_vanilla_bs_exec = 15.737949460120872
    0x400f8e908573b883, // lsm_basket_exec = 3.9446115899982614
    0x40171440cf472a25, // lsm_heston_exec = 5.769778479307694
];

const GOLDEN_LANES8: [u64; 8] = [
    0x40233dec53a529b8, // mc_vanilla_bs_exec = 9.620943654929633
    0x4009f128eb7b315d, // mc_basket_exec = 3.242753829667136
    0x402666e8ae35edfe, // mc_local_vol_exec = 11.200993961413584
    0x4024770da4efffd3, // mc_heston_exec = 10.232525972649375
    0x3fecf4c187f9b93e, // mc_zcb_price_exec = 0.9048774390956067
    0x402f3e2c215acbbc, // lsm_vanilla_bs_exec = 15.62143043740604
    0x40102ff2ceb3869e, // lsm_basket_exec = 4.046824674327267
    0x401799ae0e0828df, // lsm_heston_exec = 5.90007802891543
];

fn golden(lanes: usize) -> &'static [u64; 8] {
    match lanes {
        1 => &GOLDEN_LANES1,
        4 => &GOLDEN_LANES4,
        8 => &GOLDEN_LANES8,
        other => panic!("no golden table for lane width {other}"),
    }
}

/// One-time regeneration helper (see the re-pin policy above).
#[test]
#[ignore]
fn regen() {
    for lanes in [1usize, 4, 8] {
        let p = prices(&ExecPolicy::new(1).lanes(lanes));
        println!("// lanes = {lanes}");
        for (name, v) in KERNELS.iter().zip(p) {
            println!("    0x{:016x}, // {name} = {v}", v.to_bits());
        }
    }
}

#[test]
fn goldens_hold_at_every_worker_count_and_lane_count() {
    for lanes in [1usize, 4, 8] {
        let want = golden(lanes);
        for w in [1usize, 2, 8] {
            let p = prices(&ExecPolicy::new(w).lanes(lanes));
            for ((name, v), want) in KERNELS.iter().zip(p).zip(want) {
                assert_eq!(
                    v.to_bits(),
                    *want,
                    "{name}: lanes={lanes} workers={w} drifted: got {v} ({:#018x})",
                    v.to_bits()
                );
            }
        }
    }
}

#[test]
fn path_dependent_lane_goldens_are_distinct_per_lane_count() {
    // Kernels whose draw order changes with the lane width (everything
    // past the two single-step samplers) must own distinct goldens.
    for k in 2..8 {
        assert_ne!(
            GOLDEN_LANES1[k], GOLDEN_LANES4[k],
            "{}: lanes=4 golden equals scalar",
            KERNELS[k]
        );
        assert_ne!(
            GOLDEN_LANES1[k], GOLDEN_LANES8[k],
            "{}: lanes=8 golden equals scalar",
            KERNELS[k]
        );
        assert_ne!(
            GOLDEN_LANES4[k], GOLDEN_LANES8[k],
            "{}: lanes=4 and lanes=8 goldens coincide",
            KERNELS[k]
        );
    }
}

// ---------------------------------------------------------------------------
// Sequential `compute()` goldens over the §4.3 mix
// ---------------------------------------------------------------------------

/// The six §4.3 classes of `realistic_portfolio`, in table order.
const MIX_CLASSES: [JobClass; 6] = [
    JobClass::LocalVolMc,
    JobClass::BasketMc,
    JobClass::AmericanPde,
    JobClass::BarrierPde,
    JobClass::AmericanBasketLsm,
    JobClass::VanillaClosedForm,
];

/// One class's pin: the fold over every job of the class plus the raw
/// `(price, std_error)` bits of its first and last job (so a drifted
/// fold can be narrowed to "every job" vs "some job" at a glance).
struct MixGolden {
    fold: u64,
    first: (u64, u64),
    last: (u64, u64),
}

/// Sequential-path goldens: `PremiaProblem::compute()` (single stream
/// seeded with the problem's own seed, no chunking, no lanes) over
/// `realistic_portfolio(Quick, 4)` — the job set of the `table3_mix`
/// benchmark workload. Per class, in job-id order, from `h = 0`:
/// `h = (h * 31 + price.to_bits()) ^ std_error.unwrap_or(0.0).to_bits()`
/// (wrapping). Same re-pin policy as the tables above: `compute()` is
/// bit-identical to every release since the seed, and a kernel
/// restructuring that keeps every floating-point operation per result
/// must not move a bit here. Regenerate with
/// `cargo test -q --test kernel_goldens -- --ignored --nocapture regen_mix`.
const GOLDEN_MIX: [MixGolden; 6] = [
    // LocalVolMc
    MixGolden {
        fold: 0x0b80fea73414f845,
        first: (0x4034d81b9de39422, 0x3f947f8fdcf44cfb),
        last: (0x4034d2e6cc6836ef, 0x3fe1dc12c83f2c2d),
    },
    // BasketMc
    MixGolden {
        fold: 0x383a7ae2ba9bd5fb,
        first: (0x3f9cb0df8e4149d0, 0x3f78c44f74c15bed),
        last: (0x400f2ba8219a3fe2, 0x3fc2e96151f9a385),
    },
    // AmericanPde
    MixGolden {
        fold: 0x8329532644de7714,
        first: (0x3f5fb0e93c375b14, 0x0000000000000000),
        last: (0x403bb57735d0a1fc, 0x0000000000000000),
    },
    // BarrierPde
    MixGolden {
        fold: 0x4bcd18e7d6c31768,
        first: (0x403f28bb57b2f334, 0x0000000000000000),
        last: (0x4033ba125f9364f5, 0x0000000000000000),
    },
    // AmericanBasketLsm
    MixGolden {
        fold: 0x393d04361f3e7f97,
        first: (0x3f9615e29cabcd10, 0x3f838e1816de509a),
        last: (0x40230ceeaca0a274, 0x3fd6b45dbf94454b),
    },
    // VanillaClosedForm
    MixGolden {
        fold: 0x8c4626d0e689d708,
        first: (0x403f2897a8b9db90, 0x0000000000000000),
        last: (0x403d21a76569fff8, 0x0000000000000000),
    },
];

/// Price the mix through the sequential entry point and reduce it to
/// one [`MixGolden`] per class, in [`MIX_CLASSES`] order.
fn mix_goldens() -> Vec<MixGolden> {
    let jobs = realistic_portfolio(PortfolioScale::Quick, 4);
    assert!(jobs.iter().all(|j| MIX_CLASSES.contains(&j.class)));
    let bits: Vec<(JobClass, (u64, u64))> = jobs
        .iter()
        .map(|j| {
            let r = j.problem.compute().expect("mix problem prices");
            let se = r.std_error.unwrap_or(0.0);
            (j.class, (r.price.to_bits(), se.to_bits()))
        })
        .collect();
    MIX_CLASSES
        .iter()
        .map(|&class| {
            let of_class: Vec<(u64, u64)> = bits
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|&(_, b)| b)
                .collect();
            MixGolden {
                fold: of_class
                    .iter()
                    .fold(0u64, |h, &(p, se)| h.wrapping_mul(31).wrapping_add(p) ^ se),
                first: of_class[0],
                last: of_class[of_class.len() - 1],
            }
        })
        .collect()
}

/// One-time regeneration helper for [`GOLDEN_MIX`].
#[test]
#[ignore]
fn regen_mix() {
    for (class, g) in MIX_CLASSES.iter().zip(mix_goldens()) {
        println!("    // {class:?}");
        println!("    MixGolden {{");
        println!("        fold: 0x{:016x},", g.fold);
        println!(
            "        first: (0x{:016x}, 0x{:016x}),",
            g.first.0, g.first.1
        );
        println!("        last: (0x{:016x}, 0x{:016x}),", g.last.0, g.last.1);
        println!("    }},");
    }
}

#[test]
fn sequential_table3_mix_goldens() {
    for ((class, got), want) in MIX_CLASSES.iter().zip(mix_goldens()).zip(&GOLDEN_MIX) {
        assert_eq!(
            got.first, want.first,
            "{class:?}: first job (price, std_error) bits drifted"
        );
        assert_eq!(
            got.last, want.last,
            "{class:?}: last job (price, std_error) bits drifted"
        );
        assert_eq!(
            got.fold, want.fold,
            "{class:?}: sequential compute() fold drifted: got {:#018x}",
            got.fold
        );
    }
}

// ---------------------------------------------------------------------------
// Sampled kernels with no pin above: `compute()` bits, and the chunked
// BSDE sweep and XVA CVA at every lane width
// ---------------------------------------------------------------------------

/// The sequentially priced problems of [`GOLDEN_COMPUTE`], in table order.
fn compute_problems() -> [(&'static str, PremiaProblem); 5] {
    let bs = BlackScholes::new(100.0, 0.2, 0.05, 0.01);
    let mc = |paths, time_steps| MethodSpec::MonteCarlo {
        paths,
        time_steps,
        antithetic: true,
        seed: 42,
    };
    let call = OptionSpec::Call {
        strike: 100.0,
        maturity: 1.0,
    };
    [
        (
            "vanilla BS MC",
            PremiaProblem::new(ModelSpec::BlackScholes(bs), call.clone(), mc(4_000, 1)),
        ),
        (
            "Heston MC",
            PremiaProblem::new(
                ModelSpec::Heston(Heston::standard(100.0, 0.05)),
                call.clone(),
                mc(2_000, 16),
            ),
        ),
        (
            "Vasicek ZCB MC",
            PremiaProblem::new(
                ModelSpec::Vasicek(Vasicek::standard()),
                OptionSpec::ZeroCouponBond { maturity: 2.0 },
                mc(2_000, 16),
            ),
        ),
        (
            "BSDE Picard",
            PremiaProblem::new(
                ModelSpec::BlackScholes(bs),
                call,
                MethodSpec::Bsde {
                    paths: 2_000,
                    time_steps: 12,
                    rate_spread: 0.05,
                    picard_rounds: 3,
                    y_prev: 0.0,
                    seed: 42,
                },
            ),
        ),
        (
            "XVA CVA",
            PremiaProblem::new(
                ModelSpec::BlackScholes(bs),
                OptionSpec::NettingSet {
                    trades: 24,
                    maturity: 1.0,
                },
                MethodSpec::Xva {
                    paths: 2_000,
                    time_steps: 12,
                    hazard: 0.02,
                    lgd: 0.6,
                    seed: 42,
                },
            ),
        ),
    ]
}

/// `(price, std_error)` bits of a sampled result.
fn se_bits(price: f64, std_error: f64) -> (u64, u64) {
    (price.to_bits(), std_error.to_bits())
}

/// `PremiaProblem::compute()` of [`compute_problems`]: the whole sample on
/// the one stream seeded with the problem's seed. Same re-pin policy as
/// the tables above.
const GOLDEN_COMPUTE: [(u64, u64); 5] = [
    (0x40236920d7188ed5, 0x3fbd18ec48baa998), // vanilla BS MC
    (0x4024f2856dc34aac, 0x3fbe4f191b1f8d59), // Heston MC
    (0x3fecf4cb9df2691e, 0x3eb838c10b78eac7), // Vasicek ZCB MC
    (0x4029011bc0447c42, 0x3fd644920848fbcc), // BSDE Picard
    (0x3fe16c15db76b109, 0x3f8b503bbc7ba317), // XVA CVA
];

fn compute_bits() -> Vec<(u64, u64)> {
    compute_problems()
        .iter()
        .map(|(label, p)| {
            let r = p.compute().unwrap_or_else(|e| panic!("{label}: {e}"));
            se_bits(
                r.price,
                r.std_error.expect("a sampled price has a std_error"),
            )
        })
        .collect()
}

/// Kernel names of [`GOLDEN_SWEEPS_LANES1`] and its lane twins.
const SWEEPS: [&str; 2] = ["bsde_sweep", "xva_cva"];

/// One BSDE sweep and one CVA under `pol`, in [`SWEEPS`] order. 2 003
/// paths in the default chunk of 1 024 leave a second, shorter chunk and
/// a lane tail at 4 and 8 lanes.
fn sweep_bits(pol: &ExecPolicy) -> [(u64, u64); 2] {
    let bs = BlackScholes::new(100.0, 0.2, 0.05, 0.01);
    let call = Vanilla::european_call(100.0, 1.0);
    let bsde = BsdeConfig {
        paths: 2_003,
        time_steps: 12,
        rate_spread: 0.05,
        picard_rounds: 1,
        y_prev: 8.0,
        seed: 42,
    };
    let xva = XvaConfig {
        paths: 2_003,
        time_steps: 12,
        hazard: 0.02,
        lgd: 0.6,
        seed: 42,
    };
    let book = TradeSoA::generate(24, bs.spot, 1.0, 42);
    let b = bsde_sweep(&bs, &call, &bsde, Some(pol));
    let x = xva_cva(&bs, &book, 1.0, &xva, Some(pol));
    [se_bits(b.price, b.std_error), se_bits(x.price, x.std_error)]
}

/// Chunked `(price, std_error)` bits per lane width, in [`SWEEPS`] order.
const GOLDEN_SWEEPS_LANES1: [(u64, u64); 2] = [
    (0x4029897189e5e12d, 0x3fd6a73ae6f6aa50), // bsde_sweep
    (0x3fe1d09b860d2a92, 0x3f8b8ab3d3231f36), // xva_cva
];

const GOLDEN_SWEEPS_LANES4: [(u64, u64); 2] = [
    (0x4028ae3b6d6eecdb, 0x3fd600e783bdcece), // bsde_sweep
    (0x3fe1bd24a30464ca, 0x3f8b22393178481d), // xva_cva
];

const GOLDEN_SWEEPS_LANES8: [(u64, u64); 2] = [
    (0x4028d4789ec5e60e, 0x3fd5c1fd7536d9d4), // bsde_sweep
    (0x3fe1f8c45c0ff02e, 0x3f8c1765eaec55ca), // xva_cva
];

fn sweep_golden(lanes: usize) -> &'static [(u64, u64); 2] {
    match lanes {
        1 => &GOLDEN_SWEEPS_LANES1,
        4 => &GOLDEN_SWEEPS_LANES4,
        8 => &GOLDEN_SWEEPS_LANES8,
        other => panic!("no golden table for lane width {other}"),
    }
}

/// One-time regeneration helper for [`GOLDEN_COMPUTE`] and the sweep
/// tables.
#[test]
#[ignore]
fn regen_sampled() {
    println!("// compute()");
    for ((label, _), (p, se)) in compute_problems().iter().zip(compute_bits()) {
        println!("    (0x{p:016x}, 0x{se:016x}), // {label}");
    }
    for lanes in [1usize, 4, 8] {
        println!("// sweeps, lanes = {lanes}");
        for (name, (p, se)) in SWEEPS
            .iter()
            .zip(sweep_bits(&ExecPolicy::new(1).lanes(lanes)))
        {
            println!("    (0x{p:016x}, 0x{se:016x}), // {name}");
        }
    }
}

#[test]
fn sequential_compute_goldens_of_the_other_sampled_kernels() {
    for (((label, _), got), want) in compute_problems()
        .iter()
        .zip(compute_bits())
        .zip(&GOLDEN_COMPUTE)
    {
        assert_eq!(
            got, *want,
            "{label}: compute() (price, std_error) bits drifted"
        );
    }
}

#[test]
fn sweep_goldens_hold_at_every_worker_count_and_lane_count() {
    for lanes in [1usize, 4, 8] {
        for w in [1usize, 2, 8] {
            let got = sweep_bits(&ExecPolicy::new(w).lanes(lanes));
            for ((name, got), want) in SWEEPS.iter().zip(got).zip(sweep_golden(lanes)) {
                assert_eq!(
                    got, *want,
                    "{name}: lanes={lanes} workers={w} (price, std_error) bits drifted"
                );
            }
        }
    }
}
