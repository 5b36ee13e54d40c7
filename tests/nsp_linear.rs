//! Growth of nsplang's value-semantics mutators is linear: appending to a
//! list, assigning into a matrix and setting a hash field work in place, so
//! a loop four times as long allocates about four times as much — on both
//! engines. A mutator that copies its container on every call allocates
//! ~16× here. Bytes are counted by the allocator; nothing is timed.

use nsplang::{Engine, Interp, NValue};
use nspval::{Hash, Value};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// A loop of `n` turns over a container of size `n`.
struct Case {
    name: &'static str,
    /// Bindings the host makes before the script runs.
    setup: fn(&mut Interp, usize),
    script: fn(usize) -> String,
}

const CASES: [Case; 4] = [
    Case {
        name: "L.add_last[list(1,k)]",
        setup: |_, _| {},
        script: |n| format!("L = list()\nfor k = 1:{n} do\n  L.add_last[list(1, k)]\nend"),
    },
    Case {
        name: "A(k) = k",
        setup: |_, _| {},
        script: |n| format!("A = 1:{n}\nfor k = 1:{n} do\n  A(k) = k\nend"),
    },
    Case {
        name: "H.f = k on n fields",
        setup: |interp, n| {
            let mut h = Hash::new();
            for i in 0..n {
                h.set(&format!("field{i}"), Value::scalar(i as f64));
            }
            interp.set("H", NValue::V(Value::Hash(h)));
        },
        script: |n| format!("for k = 1:{n} do\n  H.f = k\nend"),
    },
    Case {
        // scripts/fig4_farm.nsp's master part with the MPI calls cut out.
        name: "Fig. 4 master skeleton",
        setup: |_, _| {},
        script: |n| {
            format!(
                "function [sl, result] = receive_res(k)\n  sl = 1\n  result = k * 0.5\nendfunction\n\
                 Lpb = list()\nfor k = 1:{n} do\n  Lpb.add_last['portfolio/pb-' + string(k) + '.bin']\nend\n\
                 res = list()\nsent = 1\nLpb(1:sent) = []\n\
                 for pb = Lpb' do\n  [sl, result] = receive_res(2)\n  res.add_last[list(sl, result)]\nend\n\
                 for k = 1:sent do\n  [sl, result] = receive_res(3)\n  res.add_last[list(sl, result)]\nend"
            )
        },
    },
];

/// Bytes allocated while `case` runs at size `n` on `engine`.
fn bytes_allocated(case: &Case, engine: Engine, n: usize) -> u64 {
    let mut interp = Interp::with_engine(engine);
    (case.setup)(&mut interp, n);
    let src = (case.script)(n);
    let before = counting_alloc::now();
    interp.run(&src).expect("script runs");
    (counting_alloc::now() - before).process.bytes
}

#[test]
fn mutator_loops_allocate_linearly_on_both_engines() {
    const N: usize = 500;
    for case in &CASES {
        for engine in [Engine::Tree, Engine::Vm] {
            let small = bytes_allocated(case, engine, N);
            let large = bytes_allocated(case, engine, 4 * N);
            assert!(
                large as f64 <= 4.5 * small as f64,
                "{} on {engine:?}: {large} bytes at n = {} against {small} at n = {N} (x{:.1}; linear is x4)",
                case.name,
                4 * N,
                large as f64 / small as f64,
            );
        }
    }
}
