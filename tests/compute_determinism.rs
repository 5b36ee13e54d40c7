//! Bit-identity battery for the chunked compute executor.
//!
//! The contract under test (see `docs/PARALLEL.md`): for every
//! parallelised kernel, the chunked entry points produce **bit-identical**
//! prices for any worker count, because determinism is carried by the
//! chunk layout (fixed-size chunks, one seeded RNG stream per chunk,
//! reduction in chunk order) and never by the thread schedule. The worker
//! count may change *when* a chunk runs, never *what* it computes.
//!
//! Separately, the default farm configuration (`threads = 1`) must keep
//! using the legacy sequential kernels byte-for-byte — intra-slave
//! parallelism is strictly opt-in.
//!
//! The SIMD lane width joins the chunk size on the *other* side of the
//! contract: `lanes` is part of the sampled result (lane kernels consume
//! each chunk's RNG stream in `(group, step, lane)` order), so a fixed
//! lane count must be bit-identical across worker counts while different
//! lane counts are different (equally valid) estimators. `lanes = 1` is
//! the scalar kernel, byte-for-byte.

use exec::ExecPolicy;
use pricing::methods::lsm::{lsm_vanilla_bs, LsmConfig};
use pricing::methods::montecarlo::{mc_vanilla_bs, McConfig};
use pricing::models::{BlackScholes, Vasicek};
use pricing::options::Vanilla;
use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};
use proptest::prelude::*;

/// Worker counts that must all agree bitwise.
const WORKERS: [usize; 3] = [1, 2, 8];

fn bits(x: f64) -> u64 {
    x.to_bits()
}

// ---------------------------------------------------------------------------
// One test per parallelised kernel family
// ---------------------------------------------------------------------------

#[test]
fn mc_call_bit_identical_across_worker_counts() {
    let m = BlackScholes::new(100.0, 0.25, 0.04, 0.01);
    let opt = Vanilla::european_call(105.0, 1.5);
    for &antithetic in &[false, true] {
        let cfg = McConfig {
            paths: 30_000,
            time_steps: 1,
            antithetic,
            seed: 7,
        };
        let base = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(1)));
        for &w in &WORKERS[1..] {
            let r = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(w)));
            assert_eq!(
                bits(r.price),
                bits(base.price),
                "MC call price drifted at {w} workers (antithetic={antithetic})"
            );
            assert_eq!(
                bits(r.std_error),
                bits(base.std_error),
                "MC call std error drifted at {w} workers"
            );
        }
    }
}

#[test]
fn lsm_american_put_bit_identical_across_worker_counts() {
    let m = BlackScholes::new(100.0, 0.3, 0.05, 0.0);
    let opt = Vanilla::american_put(110.0, 1.0);
    let cfg = LsmConfig {
        paths: 4_000,
        ..LsmConfig::default()
    };
    let base = lsm_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(1)));
    for &w in &WORKERS[1..] {
        let r = lsm_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(w)));
        assert_eq!(
            bits(r.price),
            bits(base.price),
            "LSM put price drifted at {w} workers"
        );
    }
}

#[test]
fn vasicek_bond_bit_identical_across_worker_counts() {
    use pricing::methods::bond::mc_zcb_price;
    let m = Vasicek::new(0.03, 0.8, 0.05, 0.015);
    let cfg = McConfig {
        paths: 8_000,
        time_steps: 32,
        antithetic: false,
        seed: 99,
    };
    let base = mc_zcb_price(&m, 2.0, &cfg, Some(&ExecPolicy::new(1)));
    for &w in &WORKERS[1..] {
        let r = mc_zcb_price(&m, 2.0, &cfg, Some(&ExecPolicy::new(w)));
        assert_eq!(
            bits(r.price),
            bits(base.price),
            "Vasicek ZCB price drifted at {w} workers"
        );
    }
}

#[test]
fn chunk_size_is_part_of_the_contract_thread_count_is_not() {
    // Same chunk ⇒ same bits at any worker count; a different chunk is a
    // different (equally valid) estimator. This is the boundary of the
    // determinism contract, stated as a test so nobody "fixes" it.
    let m = BlackScholes::new(100.0, 0.25, 0.04, 0.01);
    let opt = Vanilla::european_call(105.0, 1.5);
    let cfg = McConfig {
        paths: 30_000,
        time_steps: 1,
        antithetic: false,
        seed: 7,
    };
    let a = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(2).chunk(512)));
    let b = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(8).chunk(512)));
    let c = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(8).chunk(256)));
    assert_eq!(bits(a.price), bits(b.price));
    assert_ne!(
        bits(a.price),
        bits(c.price),
        "different chunk sizes should give different (valid) samples"
    );
    // Both estimates still agree to Monte-Carlo accuracy.
    assert!((a.price - c.price).abs() < 4.0 * (a.std_error + c.std_error));
}

// ---------------------------------------------------------------------------
// SIMD lanes: part of the result contract, like the chunk size
// ---------------------------------------------------------------------------

/// Supported lane widths, all of which must honour the worker-count
/// contract independently.
const LANES: [usize; 3] = [1, 4, 8];

#[test]
fn every_kernel_bit_identical_across_worker_counts_at_each_lane_width() {
    use pricing::methods::bond::mc_zcb_price;
    use pricing::methods::lsm::{lsm_basket, lsm_heston};
    use pricing::methods::montecarlo::{mc_basket, mc_heston, mc_local_vol};
    use pricing::models::{Heston, LocalVol, MultiBlackScholes};
    use pricing::options::BasketOption;

    let bs = BlackScholes::new(100.0, 0.25, 0.04, 0.01);
    let call = Vanilla::european_call(105.0, 1.5);
    let mbs = MultiBlackScholes::new(3, 100.0, 0.2, 0.3, 0.05, 0.0);
    let bput = BasketOption::european_put(100.0, 1.0);
    let lv = LocalVol::standard(100.0, 0.2, 0.05, 0.0);
    let hes = Heston::standard(100.0, 0.05);
    let vas = Vasicek::new(0.03, 0.8, 0.05, 0.015);
    let aput = Vanilla::american_put(110.0, 1.0);
    let abput = BasketOption::american_put(100.0, 1.0);
    let mc = McConfig {
        paths: 3_000,
        time_steps: 8,
        antithetic: true,
        seed: 7,
    };
    let lsm = LsmConfig {
        paths: 2_000,
        exercise_dates: 8,
        ..LsmConfig::default()
    };
    // (name, price-at-policy) for every laned kernel family.
    type PriceFn<'a> = Box<dyn Fn(&ExecPolicy) -> f64 + 'a>;
    let kernels: Vec<(&str, PriceFn)> = vec![
        (
            "mc_vanilla",
            Box::new(|p| mc_vanilla_bs(&bs, &call, &mc, Some(p)).price),
        ),
        (
            "mc_basket",
            Box::new(|p| mc_basket(&mbs, &bput, &mc, Some(p)).price),
        ),
        (
            "mc_local_vol",
            Box::new(|p| mc_local_vol(&lv, &call, &mc, Some(p)).price),
        ),
        (
            "mc_heston",
            Box::new(|p| mc_heston(&hes, &call, &mc, Some(p)).price),
        ),
        (
            "mc_zcb",
            Box::new(|p| mc_zcb_price(&vas, 2.0, &mc, Some(p)).price),
        ),
        (
            "lsm_vanilla",
            Box::new(|p| lsm_vanilla_bs(&bs, &aput, &lsm, Some(p)).price),
        ),
        (
            "lsm_basket",
            Box::new(|p| lsm_basket(&mbs, &abput, &lsm, Some(p)).price),
        ),
        (
            "lsm_heston",
            Box::new(|p| lsm_heston(&hes, &aput, &lsm, Some(p)).price),
        ),
    ];
    for (name, price) in &kernels {
        for lanes in LANES {
            let base = price(&ExecPolicy::new(1).lanes(lanes));
            for &w in &WORKERS[1..] {
                let r = price(&ExecPolicy::new(w).lanes(lanes));
                assert_eq!(
                    bits(r),
                    bits(base),
                    "{name}: price drifted at {w} workers with {lanes} lanes"
                );
            }
        }
    }
}

#[test]
fn lane_width_is_part_of_the_contract_like_the_chunk_size() {
    // A path-dependent kernel consumes draws in lane order, so each lane
    // width is a different (equally valid) estimator — all within
    // Monte-Carlo accuracy of each other.
    use pricing::methods::montecarlo::mc_local_vol;
    use pricing::models::LocalVol;
    let lv = LocalVol::standard(100.0, 0.2, 0.05, 0.0);
    let call = Vanilla::european_call(105.0, 1.5);
    let cfg = McConfig {
        paths: 20_000,
        time_steps: 8,
        antithetic: false,
        seed: 11,
    };
    let s = mc_local_vol(&lv, &call, &cfg, Some(&ExecPolicy::new(4).lanes(1)));
    let l4 = mc_local_vol(&lv, &call, &cfg, Some(&ExecPolicy::new(4).lanes(4)));
    let l8 = mc_local_vol(&lv, &call, &cfg, Some(&ExecPolicy::new(4).lanes(8)));
    assert_ne!(bits(s.price), bits(l4.price));
    assert_ne!(bits(l4.price), bits(l8.price));
    assert!((s.price - l8.price).abs() < 4.0 * (s.std_error + l8.std_error));
}

#[test]
fn lane_tail_handles_path_counts_not_divisible_by_the_width() {
    // Chunks whose length is not a multiple of the lane width finish
    // with a scalar tail on the same chunk stream. Odd path counts must
    // stay worker-count-stable, and a chunk shorter than the lane width
    // (all tail) must still consume its stream in a well-defined order.
    use pricing::methods::montecarlo::mc_heston;
    use pricing::models::Heston;
    let hes = Heston::standard(100.0, 0.05);
    let call = Vanilla::european_call(105.0, 1.5);
    for paths in [1usize, 3, 7, 1_021, 4_099] {
        let cfg = McConfig {
            paths,
            time_steps: 4,
            antithetic: false,
            seed: 5,
        };
        for lanes in LANES[1..].iter().copied() {
            let base = mc_heston(&hes, &call, &cfg, Some(&ExecPolicy::new(1).lanes(lanes)));
            for &w in &WORKERS[1..] {
                let r = mc_heston(&hes, &call, &cfg, Some(&ExecPolicy::new(w).lanes(lanes)));
                assert_eq!(
                    bits(r.price),
                    bits(base.price),
                    "heston: {paths} paths, {lanes} lanes, {w} workers"
                );
            }
        }
    }
    // A chunk of 4 paths under 8 lanes is *all* tail — scalar draws on
    // the chunk stream — so it matches the scalar kernel on the same
    // chunk layout exactly.
    let cfg = McConfig {
        paths: 64,
        time_steps: 4,
        antithetic: false,
        seed: 5,
    };
    let all_tail = mc_heston(
        &hes,
        &call,
        &cfg,
        Some(&ExecPolicy::new(2).chunk(4).lanes(8)),
    );
    let scalar = mc_heston(
        &hes,
        &call,
        &cfg,
        Some(&ExecPolicy::new(2).chunk(4).lanes(1)),
    );
    assert_eq!(bits(all_tail.price), bits(scalar.price));
}

#[test]
fn problem_level_compute_with_matches_across_worker_counts() {
    // The farm-facing entry point: a PremiaProblem routed through
    // compute_with(pol) must satisfy the same contract as the raw kernels.
    let p = PremiaProblem::new(
        ModelSpec::BlackScholes(BlackScholes::new(100.0, 0.2, 0.05, 0.0)),
        OptionSpec::Call {
            strike: 95.0,
            maturity: 2.0,
        },
        MethodSpec::MonteCarlo {
            paths: 20_000,
            time_steps: 16,
            antithetic: true,
            seed: 4242,
        },
    );
    let base = p.compute_with(&ExecPolicy::new(1)).unwrap();
    for &w in &WORKERS[1..] {
        let r = p.compute_with(&ExecPolicy::new(w)).unwrap();
        assert_eq!(bits(r.price), bits(base.price), "{w} workers");
    }
}

// ---------------------------------------------------------------------------
// Property: the contract holds over the seed/path space, not just at
// hand-picked points
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mc_bit_identity_over_seeds(
        seed in 0u64..1_000_000,
        paths in 500usize..6_000,
        strike in 60.0f64..150.0,
    ) {
        let m = BlackScholes::new(100.0, 0.25, 0.04, 0.0);
        let opt = Vanilla::european_call(strike, 1.0);
        let cfg = McConfig { paths, time_steps: 1, antithetic: false, seed };
        let r1 = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(1)));
        let r2 = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(2)));
        let r8 = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(8)));
        prop_assert_eq!(bits(r1.price), bits(r2.price));
        prop_assert_eq!(bits(r1.price), bits(r8.price));
        prop_assert_eq!(bits(r1.std_error), bits(r8.std_error));
    }

    #[test]
    fn lsm_bit_identity_over_seeds(
        seed in 0u64..1_000_000,
        paths in 500usize..3_000,
    ) {
        let m = BlackScholes::new(100.0, 0.3, 0.05, 0.0);
        let opt = Vanilla::american_put(100.0, 1.0);
        let cfg = LsmConfig { paths, seed, ..LsmConfig::default() };
        let r1 = lsm_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(1)));
        let r8 = lsm_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(8)));
        prop_assert_eq!(bits(r1.price), bits(r8.price));
    }

    #[test]
    fn lane_bit_identity_over_seeds_and_ragged_path_counts(
        seed in 0u64..1_000_000,
        paths in 500usize..6_000,
    ) {
        // Arbitrary path counts (almost never lane-aligned): every lane
        // width stays worker-count-stable, and an explicit `lanes(1)` is
        // byte-for-byte the default scalar policy.
        let m = BlackScholes::new(100.0, 0.25, 0.04, 0.0);
        let opt = Vanilla::european_call(105.0, 1.0);
        let cfg = McConfig { paths, time_steps: 1, antithetic: false, seed };
        let plain = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(1)));
        let scalar = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(8).lanes(1)));
        prop_assert_eq!(bits(plain.price), bits(scalar.price));
        prop_assert_eq!(bits(plain.std_error), bits(scalar.std_error));
        for lanes in [4usize, 8] {
            let w1 = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(1).lanes(lanes)));
            let w8 = mc_vanilla_bs(&m, &opt, &cfg, Some(&ExecPolicy::new(8).lanes(lanes)));
            prop_assert_eq!(bits(w1.price), bits(w8.price));
            prop_assert_eq!(bits(w1.std_error), bits(w8.std_error));
        }
    }
}
