#!/usr/bin/env bash
# Tier-1 gate for this repository (documented in ROADMAP.md).
#
#   1. dependency hygiene: the workspace must resolve entirely from
#      in-repo path crates, and every shim must be one documented in
#      shims/README.md (the build environment has no registry access)
#   2. release build of the whole workspace, then of the benchmark
#      harness under perf/ (a workspace of its own that `cargo test
#      --workspace` never compiles) plus its `check` subcommand
#      (BENCHMARK.json <-> metric tables) and its own unit tests —
#      build, check and test only, no timed run
#   3. observability smoke: `table2 --breakdown` self-checks the §4.2
#      cost decomposition (sload prepare strictly cheapest) and exits
#      nonzero on any violated invariant; the `--warm` store smoke and
#      the `--threads 8` thread-scaling smoke do the same for the PR 3/4
#      knobs and commit BENCH_3.json / BENCH_4.json; the
#      `--threads 8 --lanes 8` SIMD-lane smoke writes BENCH_6.json and
#      bench_gate fails on any compute-bucket regression against the
#      committed artifacts; the `shard_smoke` sharded-masters smoke writes
#      target/ci/BENCH_8.json (bit-identical prices across shard counts and
#      transport backends, steals present, calibrated transport costs,
#      monotone simulated makespans up to 512 cores) and bench_gate
#      re-validates its structure; the `workload_smoke`
#      heterogeneous-workload smoke writes target/ci/BENCH_10.json (per-class compute present for every class of the
#      mixed portfolio, LPT makespan <= FIFO under calibrated costs,
#      staged BSDE live trace byte-identical to the staged simulator)
#      and bench_gate re-validates it; the `--calibrate-classes` smoke
#      prints the per-class grain costs and self-checks the BSDE
#      dominance ordering (the VM's name lookups and allocations per
#      dispatched op and the kernels' allocation-free path loops are
#      counted by tests in step 4: nsplang's vm::tests and
#      tests/alloc_free.rs)
#   4. full test suite (quiet), run once: a red test fails the gate
#   5. clippy over the workspace with warnings denied; clippy.toml
#      (root, crates/transport, crates/pricing) carries the raw-mpsc
#      quarantine and the no-thread-spawn-in-pricing rule
#   6. the work tree is as the run found it: the two live smokes hold
#      wall-clock numbers that differ run to run, so their artifacts go
#      under target/ci/ (the committed BENCH_8.json / BENCH_10.json are
#      samples, not outputs); BENCH_3/4/6.json are deterministic and are
#      rewritten in place, byte for byte unless the compute model changed
#
# Usage: ./scripts/ci.sh [extra cargo-test args]

set -uo pipefail

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# What `git status` said before anything ran (step 6 compares).
tree_before=$(git status --porcelain 2>/dev/null)

echo "==> dependency allowlist (shims/README.md)"
# Every shim directory must be documented in the shims/README.md table.
allow=$(sed -n 's/^| `\([a-z_]*\)`.*/\1/p' shims/README.md)
for d in shims/*/; do
    name=$(basename "$d")
    if ! printf '%s\n' "$allow" | grep -qx "$name"; then
        echo "error: shim '$name' is not documented in shims/README.md"
        exit 1
    fi
done
# No crate in the graph may come from a registry or git source: offline
# builds require every package to be a path dependency inside this repo.
external=$(cargo metadata --format-version 1 2>/dev/null \
    | grep -o '"source":"[^"]*"' | sort -u)
if [ -n "$external" ]; then
    echo "error: non-path dependencies in the workspace graph:"
    echo "$external"
    exit 1
fi

echo "==> scheduler gate: no ANY_SOURCE receives in crates/farm or crates/serve outside the sched driver"
# Every master decision flows through the sched state machine: the farm
# and serve crates receive from ANY_SOURCE only in farm's driver.rs, at
# the one `drive` gather point and `recv_any` — so the token itself,
# however the receive around it is spelled, appears nowhere else.
# Comment lines are ignored.
anysrc=$(grep -rnE '\bANY_SOURCE\b' \
    --include='*.rs' crates/farm crates/serve 2>/dev/null \
    | grep -v -E '^[^:]*:[0-9]+:\s*(//|//!|///)' \
    | grep -v -E '^crates/farm/src/driver\.rs:')
if [ -n "$anysrc" ]; then
    echo "error: ANY_SOURCE receive outside crates/farm/src/driver.rs (route it through driver::drive):"
    echo "$anysrc"
    exit 1
fi

run cargo build --workspace --release || exit 1

# The benchmark harness is a package outside the workspace, built only
# by the BENCHMARK.json command: compile it here so a public-API change
# in a crate it calls (serve, farm, ...) fails tier-1, and let it
# cross-validate BENCHMARK.json against its own metric and workload
# tables. Nothing is timed.
run cargo build --release --offline --manifest-path perf/Cargo.toml || exit 1
run cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- check || exit 1
# The harness's own unit tests: its layer replays drive Transport and Comm
# directly, so a change to that surface must keep them green as well as
# compiling (~13 s; still nothing timed).
run cargo test -q --offline --manifest-path perf/Cargo.toml || exit 1

# Observability smoke on a small portfolio: the breakdown self-checks
# (non-empty report, phase seconds within the cpu-seconds budget, no
# dropped events, serialized-load prepare strictly the cheapest) and
# exits nonzero if any invariant fails.
echo "==> cargo run -p bench --bin table2 --release -q -- --breakdown --jobs 2000 (self-checking; output suppressed)"
cargo run -p bench --bin table2 --release -q -- --breakdown --jobs 2000 >/dev/null || exit 1

# Store smoke: the warm-cache breakdown self-checks that every strategy's
# warm prepare phase is strictly cheaper than its cold run, that the cache
# reports a nonzero hit-rate, and that wait/compute are untouched (the
# checks live in bench::breakdown and fail the process). The JSON line is
# captured as the committed benchmark artifact.
echo "==> cargo run -p bench --bin table2 --release -q -- --breakdown --warm --jobs 10000 --cpus 8 (store smoke -> BENCH_3.json)"
store_out=$(cargo run -p bench --bin table2 --release -q -- --breakdown --warm --jobs 10000 --cpus 8) || exit 1
if ! printf '%s\n' "$store_out" | grep -q 'cache hit-rate'; then
    echo "error: warm breakdown reported no cache hit-rate line"
    exit 1
fi
printf '%s\n' "$store_out" | sed -n 's/^JSON: //p' > BENCH_3.json
if ! grep -q '"cache_hit_rate"' BENCH_3.json; then
    echo "error: BENCH_3.json missing cache_hit_rate column"
    exit 1
fi

# Thread-scaling smoke: the 8-thread breakdown self-checks that the
# compute phase shrinks ~linearly (>= threads/2) while prepare/wire/wait
# are unchanged, and that ComputeChunk diagnostics flow (the checks live
# in bench::breakdown::check_thread_scaling and fail the process). The
# JSON line is the committed PR 4 artifact.
echo "==> cargo run -p bench --bin table2 --release -q -- --breakdown --threads 8 --jobs 2000 --cpus 4 (thread-scaling smoke -> BENCH_4.json)"
thr_out=$(cargo run -p bench --bin table2 --release -q -- --breakdown --threads 8 --jobs 2000 --cpus 4) || exit 1
if ! printf '%s\n' "$thr_out" | grep -q 'intra-slave parallelism'; then
    echo "error: threaded breakdown reported no intra-slave parallelism line"
    exit 1
fi
printf '%s\n' "$thr_out" | sed -n 's/^JSON: //p' > BENCH_4.json
if ! grep -q '"parallelism"' BENCH_4.json; then
    echo "error: BENCH_4.json missing parallelism column"
    exit 1
fi

# SIMD-lane smoke: the 8-thread 8-lane breakdown self-checks that the
# compute phase is at least 2x below the threads-only row while
# prepare/wire/wait are unchanged and LaneBatch marks flow (the checks
# live in bench::breakdown::check_lane_scaling and fail the process).
# The JSON line is the committed PR 6 artifact, and bench_gate compares
# its buckets against the committed BENCH_4.json / BENCH_3.json so any
# compute-model regression fails the gate.
echo "==> cargo run -p bench --bin table2 --release -q -- --breakdown --threads 8 --lanes 8 --jobs 2000 --cpus 4 (lane smoke -> BENCH_6.json)"
lane_out=$(cargo run -p bench --bin table2 --release -q -- --breakdown --threads 8 --lanes 8 --jobs 2000 --cpus 4) || exit 1
if ! printf '%s\n' "$lane_out" | grep -q 'simd lanes x8 alloc-free'; then
    echo "error: lane breakdown reported no 'simd lanes' line"
    exit 1
fi
printf '%s\n' "$lane_out" | sed -n 's/^JSON: //p' > BENCH_6.json
if ! grep -q '"lanes"' BENCH_6.json; then
    echo "error: BENCH_6.json missing lanes column"
    exit 1
fi

# Sharded peer-master smoke: live 1/2/4-shard runs over a heavy-tailed
# portfolio on the channel backend plus a 2-shard run on the
# multi-process socket backend. The bin self-checks bit-identical
# prices across all four configurations, steal events in every
# multi-shard run, a bounded multi-shard makespan, ping-pong-calibrated
# transport costs (socket dearer per message than channel), monotone
# simulated makespans and a complete 512-core simulator row (the checks
# live in shard_smoke and fail the process). The JSON line is the PR 8
# artifact; bench_gate re-validates its structure.
mkdir -p target/ci
echo "==> cargo run -p bench --bin shard_smoke --release -q (sharded masters smoke -> target/ci/BENCH_8.json)"
shard_out=$(cargo run -p bench --bin shard_smoke --release -q) || exit 1
if ! printf '%s\n' "$shard_out" | grep -q 'prices bit-identical'; then
    echo "error: shard smoke reported no price-identity line"
    exit 1
fi
printf '%s\n' "$shard_out" | sed -n 's/^JSON: //p' > target/ci/BENCH_8.json
if ! grep -q '"sim_512_jobs"' target/ci/BENCH_8.json; then
    echo "error: BENCH_8.json missing sim_512_jobs column"
    exit 1
fi
# Heterogeneous-workload smoke: a mixed-class portfolio (vanillas through
# Bermudan-max LSM, BSDE Picard, XVA/CVA) priced live on 8 slaves with a
# recorder attached — every class must surface in the per-class compute
# breakdown; the same portfolio replayed in the simulator under FIFO and
# LPT with paper-calibrated per-class costs (LPT must not lose on
# makespan); and a 3-round staged BSDE Picard workload whose live trace
# must be byte-identical to the staged simulator's (the checks live in
# workload_smoke and fail the process). The JSON line is the PR 10
# artifact; bench_gate re-validates its structure.
echo "==> cargo run -p bench --bin workload_smoke --release -q (heterogeneous workload smoke -> target/ci/BENCH_10.json)"
wl_out=$(cargo run -p bench --bin workload_smoke --release -q) || exit 1
if ! printf '%s\n' "$wl_out" | grep -q 'traces byte-identical'; then
    echo "error: workload smoke reported no trace-identity line"
    exit 1
fi
printf '%s\n' "$wl_out" | sed -n 's/^JSON: //p' > target/ci/BENCH_10.json
if ! grep -q '"staged_trace_identical"' target/ci/BENCH_10.json; then
    echo "error: BENCH_10.json missing staged_trace_identical column"
    exit 1
fi
run cargo run -p bench --bin bench_gate --release -q -- BENCH_6.json BENCH_4.json BENCH_3.json target/ci/BENCH_8.json target/ci/BENCH_10.json || exit 1

# Per-class calibration smoke: the cost table every LPT dispatch consumes,
# plus the self-check that one BSDE Picard round dominates a vanilla
# Monte-Carlo grain (the check lives in bench::calibrate and exits 2 on
# violation).
echo "==> cargo run -p bench --bin table2 --release -q -- --calibrate-classes (per-class grain costs)"
cal_out=$(cargo run -p bench --bin table2 --release -q -- --calibrate-classes) || exit 1
if ! printf '%s\n' "$cal_out" | grep -q 'BSDE Picard round dominates'; then
    echo "error: calibration smoke reported no BSDE-dominance line"
    exit 1
fi

# Dispatch-order smoke: the LPT breakdown self-checks that longest-cost-
# first dispatch leaves per-job wait seconds untouched relative to FIFO
# and never degrades the makespan beyond noise (the checks live in
# bench::breakdown::check_lpt_order and fail the process).
echo "==> cargo run -p bench --bin table2 --release -q -- --breakdown --order lpt --jobs 2000 (LPT dispatch smoke)"
lpt_out=$(cargo run -p bench --bin table2 --release -q -- --breakdown --order lpt --jobs 2000) || exit 1
if ! printf '%s\n' "$lpt_out" | grep -q '(lpt)'; then
    echo "error: LPT breakdown reported no '(lpt)' rows"
    exit 1
fi

run cargo test -q --workspace "$@" || exit 1

# Clippy is not optional: besides the default lints it enforces the
# clippy.toml disallowed-methods / disallowed-types entries.
run cargo clippy --workspace --all-targets -- -D warnings || exit 1

echo "==> work tree: the run changed no tracked file and left no untracked one"
tree_after=$(git status --porcelain 2>/dev/null)
if [ "$tree_after" != "$tree_before" ]; then
    echo "error: the gate changed the work tree (a deterministic BENCH_*.json that moved is to be committed, anything else git-ignored):"
    diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after")
    exit 1
fi

echo "==> tier-1 gate green"
