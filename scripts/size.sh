#!/usr/bin/env bash
# Size report: the two numbers ROADMAP.md tracks, then each crate's
# non-test lines. Report only, not a gate; scripts/ci.sh does not call it.
#
#   lines  non-test lines under crates/*/src: each .rs file counted up to
#          its first top-level `#[cfg(test)]` line that a line starting
#          with `mod` follows, the whole file if it has none (blank and
#          comment lines count; a `#[cfg(test)]` on a `use`, a helper or
#          anything else that is not a module counts too)
#   pub    declarations in that same part: lines that start, after any
#          indentation, with `pub fn|struct|enum|trait|type|const|static|
#          mod|use` (`pub(crate)` and the like do not count)
#
# Usage: ./scripts/size.sh

set -euo pipefail

cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    function count(line) {
        lines++
        per_crate[crate]++
        if (line ~ /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod|use)[ \t]/) decls++
    }
    FNR == 1 {
        test = 0
        held = ""
        split(FILENAME, path, "/")
        crate = path[2]
        if (!(crate in seen)) {
            seen[crate] = 1
            order[++crates] = crate
        }
    }
    # A top-level `#[cfg(test)]` is held until the next line says what
    # it gates: a `mod` starts the tests, anything else is counted.
    held != "" {
        if ($0 ~ /^mod /) test = 1
        else count(held)
        held = ""
    }
    test { next }
    /^#\[cfg\(test\)\]/ { held = $0; next }
    { count($0) }
    END {
        printf "non-test lines under crates/*/src: %d\n", lines
        printf "pub declarations in them:          %d\n", decls
        for (i = 1; i <= crates; i++) printf "  %-12s %6d\n", order[i], per_crate[order[i]]
    }'
