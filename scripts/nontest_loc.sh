#!/usr/bin/env bash
# Non-test lines of Rust, by the rule every CHANGES.md entry uses: a
# file's lines before its first `#[cfg(test)]` (the whole file when it
# has none); `tests/`, `benches/` and `target/` directories are not
# counted at all. Comments and blank lines count — the number is for
# comparing a tree with its parent, not for judging either.
#
#   usage: scripts/nontest_loc.sh [PATH…]
#
# PATHs are files or directories relative to the repo root. Without any,
# the whole workspace (crates/ and src/) is counted and one row per crate
# is printed; with PATHs, one row per file as well. Output is a markdown
# table, so CI can append it to the job summary as is.
set -euo pipefail
cd "$(dirname "$0")/.."

per_file=1
if [ $# -eq 0 ]; then
    set -- crates src
    per_file=0
fi

find "$@" -type f -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' | sort |
    while read -r f; do
        awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
    done |
    awk -v per_file="$per_file" '
        {
            crate = $2
            if (!sub(/\/src\/.*/, "", crate)) crate = "."
            if (!(crate in lines)) order[++crates] = crate
            lines[crate] += $1
            files[crate] = files[crate] sprintf("| `%s` | %d |\n", $2, $1)
            total += $1
        }
        END {
            print "| path | non-test lines |"
            print "|---|---:|"
            for (i = 1; i <= crates; i++) {
                if (per_file) printf "%s", files[order[i]]
                printf "| **%s** | **%d** |\n", order[i], lines[order[i]]
            }
            printf "| **total** | **%d** |\n", total
        }'
