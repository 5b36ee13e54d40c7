#!/usr/bin/env bash
# Tier-1 gate for this repository (documented in ROADMAP.md).
#
#   1. dependency hygiene: the workspace must resolve entirely from
#      in-repo path crates, and the shim directories must be exactly the
#      ones documented in shims/README.md (the build environment has no
#      registry access)
#   2. formatting: `cargo fmt --all -- --check` over the workspace, then
#      `cargo fmt --manifest-path perf/Cargo.toml -- --check` over the
#      benchmark harness (a workspace of its own that the first misses)
#   3. release build of the whole workspace, then a run, each under a
#      timeout, of the two examples that drive a minimpi world by hand
#      (spawn_slaves ends on stop sends followed by SpawnedWorld::join,
#      the shape a lost wake-up hangs; nsp_script runs Fig. 4 as a
#      script on every rank on the default engine, the VM, which is
#      the engine the fig4_script benchmark times) and of the `ablation`
#      binary (the only producer of the §5 ablation rows), then a build of
#      the benchmark harness under perf/ (a workspace of its own that
#      `cargo test --workspace` never compiles) plus its `check` subcommand
#      (BENCHMARK.json <-> metric tables) and its own unit tests —
#      build, check and test only, no timed run
#   4. full test suite (quiet), run once: a red test fails the gate. The
#      table binaries' self-checks and the committed breakdown goldens
#      (crates/bench/tests/goldens) are tests here, not separate runs
#   5. clippy over the workspace with warnings denied; clippy.toml
#      (root, crates/transport, crates/pricing) carries the raw-mpsc
#      quarantine and the no-thread-spawn-in-pricing rule, and the root
#      Cargo.toml's [workspace.lints] the unreachable_pub lint every
#      crate under crates/ inherits
#   6. rustdoc over the workspace with warnings denied: public docs may
#      not link to a private item (or to nothing)
#   7. the work tree is as the run found it
#
# Usage: ./scripts/ci.sh [extra cargo-test args]

set -uo pipefail

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# What `git status` said before anything ran (step 7 compares).
tree_before=$(git status --porcelain 2>/dev/null)

echo "==> dependency allowlist (shims/README.md)"
# The shim directories and the shims/README.md table must name the same
# set: every directory documented, every documented shim present. The
# list goes to grep as a here-string: piped into `grep -q`, the writer
# can die of SIGPIPE once grep has its match, and pipefail reports that.
allow=$(sed -n 's/^| `\([a-z_]*\)`.*/\1/p' shims/README.md)
for d in shims/*/; do
    name=$(basename "$d")
    if ! grep -qx "$name" <<< "$allow"; then
        echo "error: shim '$name' is not documented in shims/README.md"
        exit 1
    fi
done
for name in $allow; do
    if [ ! -f "shims/$name/Cargo.toml" ]; then
        echo "error: shims/README.md documents shim '$name' but shims/$name/ does not exist"
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
# the one `drive` gather point — so the token itself, however the
# receive around it is spelled, appears nowhere else.
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

# A tree rustfmt would rewrite makes every contributor who formats
# their own edits reformat unrelated code.
run cargo fmt --all -- --check || exit 1
run cargo fmt --manifest-path perf/Cargo.toml -- --check || exit 1

run cargo build --workspace --release || exit 1

# The only examples that use `Comm`: compiled by the build above but
# never run by a test. A hang is a failure, not a stuck job.
for example in spawn_slaves nsp_script; do
    echo "==> example $example (release, 120 s timeout)"
    if ! timeout 120 cargo run --release --offline --quiet --example "$example" >/dev/null; then
        echo "error: example $example failed or hung"
        exit 1
    fi
done
# The §5 ablation rows of EXPERIMENTS.md: no test runs this binary or
# the `expect`s in it.
echo "==> bench ablation (release, 120 s timeout)"
if ! timeout 120 cargo run --release --offline --quiet -p bench --bin ablation >/dev/null; then
    echo "error: ablation failed or hung"
    exit 1
fi

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

run cargo test -q --workspace "$@" || exit 1

# Clippy is not optional: besides the default lints it enforces the
# clippy.toml disallowed-methods / disallowed-types entries.
run cargo clippy --workspace --all-targets -- -D warnings || exit 1

# A public doc that links to a crate-private item renders as a dead
# link; rustdoc reports it, and this makes the report a failure.
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps --offline || exit 1

echo "==> work tree: the run changed no tracked file and left no untracked one"
tree_after=$(git status --porcelain 2>/dev/null)
if [ "$tree_after" != "$tree_before" ]; then
    echo "error: the gate changed the work tree (what building and testing leave behind belongs in .gitignore):"
    diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after")
    exit 1
fi

echo "==> tier-1 gate green"
