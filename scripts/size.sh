#!/usr/bin/env bash
# Size report: the two numbers ROADMAP.md tracks, then each crate's
# non-test lines. Report only, not a gate; scripts/ci.sh does not call it.
#
#   lines  non-test lines under crates/*/src: each .rs file counted up to
#          its first top-level `#[cfg(test)]` line, the whole file if it
#          has none (blank and comment lines count)
#   pub    declarations in that same part: lines that start, after any
#          indentation, with `pub fn|struct|enum|trait|type|const|static|
#          mod|use` (`pub(crate)` and the like do not count)
#
# Usage: ./scripts/size.sh

set -euo pipefail

cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 {
        test = 0
        split(FILENAME, path, "/")
        crate = path[2]
        if (!(crate in seen)) {
            seen[crate] = 1
            order[++crates] = crate
        }
    }
    /^#\[cfg\(test\)\]/ { test = 1 }
    !test {
        lines++
        per_crate[crate]++
        if ($0 ~ /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod|use)[ \t]/) decls++
    }
    END {
        printf "non-test lines under crates/*/src: %d\n", lines
        printf "pub declarations in them:          %d\n", decls
        for (i = 1; i <= crates; i++) printf "  %-12s %6d\n", order[i], per_crate[order[i]]
    }'
