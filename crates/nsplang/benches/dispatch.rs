//! Criterion micro-benchmarks of script dispatch: the AST tree-walker
//! versus the register bytecode VM on three microscripts that isolate the
//! interpreter costs the VM attacks — scalar-loop arithmetic (slot-resolved
//! locals, unboxed immediates), list building (in-place `add_last`), and
//! bracket-method calls — plus the lowering pass itself, to show compile
//! cost stays far below one execution.

use criterion::{criterion_group, criterion_main, Criterion};
use nsplang::{lower::lower_program, parse_program, Engine, Interp};
use std::hint::black_box;

/// Pure scalar arithmetic and branches in a `while` loop: the
/// dispatch-bound shape of the Fig. 4 driver's inner work.
const SCALAR_LOOP: &str = "\
s = 0.0\n\
i = 1\n\
while i <= 2000 do\n\
  if s > 100.0 then\n\
    s = s - 100.0\n\
  end\n\
  s = s + i * 0.5\n\
  i = i + 1\n\
end\n";

/// Grow a list and read it back by index — value-semantics `add_last` at
/// the length the gated `fig4_script` workload reaches (2 000 jobs), so a
/// per-append copy of the list shows up as quadratic time here.
const LIST_BUILD: &str = "\
L = list()\n\
for k = 1:2000 do\n\
  L.add_last[k * 2.0]\n\
end\n\
s = 0.0\n\
for k = 1:2000 do\n\
  s = s + L(k)\n\
end\n";

/// User-function call overhead: frames, argument binding, output slots.
const METHOD_CALL: &str = "\
function [r] = f(x, y)\n\
  r = x + y * 2.0\n\
endfunction\n\
s = 0.0\n\
for k = 1:500 do\n\
  s = s + f(k, s)\n\
end\n";

fn run(engine: Engine, src: &str) {
    let mut interp = Interp::with_engine(engine);
    interp.run(black_box(src)).expect("benchmark script runs");
    black_box(interp.get_scalar("s"));
}

fn bench_dispatch(c: &mut Criterion) {
    for (name, src) in [
        ("scalar_loop", SCALAR_LOOP),
        ("list_build", LIST_BUILD),
        ("method_call", METHOD_CALL),
    ] {
        c.bench_function(&format!("tree_{name}"), |b| {
            b.iter(|| run(Engine::Tree, src))
        });
        c.bench_function(&format!("vm_{name}"), |b| b.iter(|| run(Engine::Vm, src)));
    }

    // The compile side of the VM engine: parse once, lower repeatedly.
    let prog = parse_program(SCALAR_LOOP).expect("benchmark script parses");
    c.bench_function("lower_scalar_loop", |b| {
        b.iter(|| black_box(lower_program(black_box(&prog))))
    });
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
