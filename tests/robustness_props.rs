//! Property-based robustness tests across the substrates: the interpreter
//! must never panic on arbitrary input, the farm must account for every
//! job under arbitrary topologies, and the pricing kernels must satisfy
//! no-arbitrage monotonicities across their whole parameter domains.

use proptest::prelude::*;

// ---------------------------------------------------------------------------
// nsplang: parser/interpreter never panic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interpreter_never_panics_on_garbage(src in "[ -~\\n]{0,120}") {
        // Arbitrary printable text: must lex/parse/run to Ok or Err,
        // never panic.
        let mut interp = nsplang::Interp::new();
        let _ = interp.run(&src);
    }

    #[test]
    fn interpreter_never_panics_on_plausible_programs(
        name in "[a-z]{1,6}",
        n in 0.0f64..1e6,
        m in 1u32..20,
    ) {
        // A generated identifier can collide with a language keyword
        // (`if`, `for`, ...) or shadow a builtin used by the program
        // below (`list`, `k`); assigning to those is a legitimate parse
        // or runtime error, not the panic this property is hunting.
        prop_assume!(!matches!(
            name.as_str(),
            "if" | "then" | "else" | "elseif" | "end" | "while" | "for"
                | "do" | "break" | "continue" | "return" | "function"
                | "endfunction" | "list" | "k"
        ));
        let src = format!(
            "{name} = {n}\nfor k = 1:{m} do\n {name} = {name} + k\nend\nL = list({name})\nS = serialize(L)\nB = S.unserialize[]\nok = B.equal[L]"
        );
        let mut interp = nsplang::Interp::new();
        let r = interp.run(&src);
        prop_assert!(r.is_ok(), "{r:?}");
        prop_assert_eq!(
            interp.get_bool("ok"),
            Some(true)
        );
    }
}

// ---------------------------------------------------------------------------
// pricing: no-arbitrage properties over the parameter domain
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn bs_call_monotone_in_strike_and_bounded(
        spot in 10.0f64..500.0,
        sigma in 0.01f64..1.5,
        rate in -0.02f64..0.15,
        t in 0.05f64..10.0,
        k1 in 10.0f64..500.0,
        dk in 1.0f64..100.0,
    ) {
        use pricing::methods::closed_form::bs_price;
        use pricing::models::BlackScholes;
        use pricing::options::Vanilla;
        let m = BlackScholes::new(spot, sigma, rate, 0.0);
        let c1 = bs_price(&m, &Vanilla::european_call(k1, t)).price;
        let c2 = bs_price(&m, &Vanilla::european_call(k1 + dk, t)).price;
        // Monotone decreasing in strike; bounded by spot; non-negative.
        prop_assert!(c2 <= c1 + 1e-9);
        prop_assert!(c1 <= spot + 1e-9);
        prop_assert!(c2 >= 0.0);
        // Strike-spread bound: 0 ≤ C(K) − C(K+dK) ≤ dK·e^{-rT}.
        prop_assert!(c1 - c2 <= dk * (-rate * t).exp() + 1e-9);
    }

    #[test]
    fn bs_put_call_parity_everywhere(
        spot in 10.0f64..500.0,
        sigma in 0.01f64..1.5,
        rate in -0.02f64..0.15,
        div in 0.0f64..0.08,
        k in 10.0f64..500.0,
        t in 0.05f64..10.0,
    ) {
        use pricing::methods::closed_form::bs_price;
        use pricing::models::BlackScholes;
        use pricing::options::Vanilla;
        let m = BlackScholes::new(spot, sigma, rate, div);
        let c = bs_price(&m, &Vanilla::european_call(k, t)).price;
        let p = bs_price(&m, &Vanilla::european_put(k, t)).price;
        let forward = spot * (-div * t).exp() - k * (-rate * t).exp();
        prop_assert!((c - p - forward).abs() < 1e-8 * spot.max(k));
    }

    #[test]
    fn barrier_dominated_by_vanilla_everywhere(
        spot in 90.0f64..300.0,
        sigma in 0.05f64..0.9,
        k_frac in 0.5f64..1.5,
        h_frac in 0.3f64..0.99,
        t in 0.1f64..5.0,
    ) {
        use pricing::methods::closed_form::{bs_price, down_out_call_price};
        use pricing::models::BlackScholes;
        use pricing::options::{Barrier, Vanilla};
        let m = BlackScholes::new(spot, sigma, 0.05, 0.0);
        let k = spot * k_frac;
        let h = (spot * h_frac).min(k); // closed form needs H ≤ K, H < S
        let dob = down_out_call_price(&m, &Barrier::down_out_call(k, h, t));
        let vanilla = bs_price(&m, &Vanilla::european_call(k, t)).price;
        prop_assert!(dob >= -1e-12);
        prop_assert!(dob <= vanilla + 1e-9, "dob {dob} vanilla {vanilla}");
    }

    #[test]
    fn vasicek_bond_prices_are_discount_factors(
        r0 in -0.01f64..0.15,
        kappa in 0.05f64..3.0,
        theta in 0.0f64..0.12,
        sigma in 0.001f64..0.03,
        t in 0.1f64..30.0,
    ) {
        use pricing::models::Vasicek;
        let m = Vasicek::new(r0, kappa, theta, sigma);
        let p = m.zcb_price(t);
        prop_assert!(p > 0.0, "P {p}");
        // For non-pathological parameters the bond stays below the
        // zero-rate bound only when rates are positive.
        if r0 > 0.0 && theta > sigma * sigma / (2.0 * kappa * kappa) {
            prop_assert!(p < 1.05, "P {p} with positive rates");
        }
    }
}

// ---------------------------------------------------------------------------
// farm: completeness under arbitrary topology
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn farm_accounts_for_every_job(
        jobs in 1usize..30,
        slaves in 1usize..6,
        strategy_idx in 0usize..3,
    ) {
        use farm::portfolio::{save_portfolio, toy_portfolio};
        use farm::{run, FarmConfig, Transmission};
        let strategy = Transmission::ALL[strategy_idx];
        let dir = std::env::temp_dir().join(format!(
            "prop_farm_{jobs}_{slaves}_{strategy_idx}"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let portfolio = toy_portfolio(jobs);
        let files = save_portfolio(&portfolio, &dir).unwrap();
        let report = run(&files, &FarmConfig::new(slaves, strategy)).unwrap();
        prop_assert_eq!(report.completed(), jobs);
        let mut seen = vec![false; jobs];
        for o in &report.outcomes {
            prop_assert!(!seen[o.job], "job {} twice", o.job);
            seen[o.job] = true;
            prop_assert!(o.slave >= 1 && o.slave <= slaves);
        }
        prop_assert!(seen.iter().all(|&s| s));
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// minimpi: arbitrary message schedules deliver exactly once, in per-pair
// FIFO order
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn message_delivery_is_exactly_once_and_pairwise_fifo(
        payload_sizes in proptest::collection::vec(0usize..200, 1..25),
    ) {
        use minimpi::{World, ANY_SOURCE};
        let n = payload_sizes.len();
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                for (i, &sz) in payload_sizes.iter().enumerate() {
                    let mut msg = vec![0u8; sz + 4];
                    msg[..4].copy_from_slice(&(i as u32).to_be_bytes());
                    comm.send(msg, 1, 5).unwrap();
                }
                Vec::new()
            } else {
                let mut seq = Vec::with_capacity(n);
                for _ in 0..n {
                    let (bytes, st) = comm.recv(ANY_SOURCE, 5).unwrap();
                    assert!(bytes.len() >= 4);
                    seq.push(u32::from_be_bytes([
                        bytes[0], bytes[1], bytes[2], bytes[3],
                    ]));
                    assert_eq!(st.src, 0);
                }
                seq
            }
        });
        // Same-pair same-tag messages arrive in send order.
        let expect: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(&out[1], &expect);
    }
}
