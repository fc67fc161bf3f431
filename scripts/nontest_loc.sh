#!/usr/bin/env bash
# Non-test lines of Rust, by the rule every CHANGES.md entry uses: a
# file's lines before its first `#[cfg(test)]` (the whole file when it
# has none); `tests/`, `benches/` and `target/` directories are not
# counted at all. Comments and blank lines count — the number is for
# comparing a tree with its parent, not for judging either. A second
# column counts the `pub fn`s among those same lines (`pub(crate) fn`
# and friends are not public, so they do not count).
#
#   usage: scripts/nontest_loc.sh [--against REV] [PATH…]
#
# PATHs are files or directories relative to the repo root. Without any,
# the whole workspace (crates/ and src/) is counted and one row per crate
# is printed; with PATHs, one row per file as well. With `--against REV`
# the same count is taken on REV's tree (exported to a temp directory)
# and each row reads parent → change (delta). Output is a markdown
# table, so CI can append it to the job summary as is.
set -euo pipefail
cd "$(dirname "$0")/.."

against=
if [ "${1-}" = "--against" ]; then
    against=${2:?--against needs a revision}
    shift 2
fi
per_file=1
if [ $# -eq 0 ]; then
    set -- crates src
    per_file=0
fi

# count ROOT PATH… → "<lines> <pub fns> <path>" per file, paths relative
# to ROOT (a PATH that does not exist in ROOT counts nothing).
count() {
    (
        cd "$1"
        shift
        find "$@" -type f -name '*.rs' \
            -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' 2>/dev/null |
            sort |
            while read -r f; do
                awk -v f="$f" '
                    /#\[cfg\(test\)\]/ { exit }
                    { n++ }
                    /^[ \t]*pub (const |unsafe |async )*fn / { p++ }
                    END { print n + 0, p + 0, f }' "$f"
            done
    )
}

# rows → "<kind> <path> <lines> <pub fns>", kind f(ile) / c(rate) /
# t(otal), in table order.
rows() {
    awk -v per_file="$per_file" '
        {
            crate = $3
            if (!sub(/\/src\/.*/, "", crate)) crate = "."
            if (!(crate in lines)) order[++crates] = crate
            lines[crate] += $1
            pubs[crate] += $2
            files[crate] = files[crate] sprintf("f %s %d %d\n", $3, $1, $2)
            total += $1
            total_pubs += $2
        }
        END {
            for (i = 1; i <= crates; i++) {
                if (per_file) printf "%s", files[order[i]]
                printf "c %s %d %d\n", order[i], lines[order[i]], pubs[order[i]]
            }
            printf "t total %d %d\n", total, total_pubs
        }'
}

if [ -z "$against" ]; then
    count . "$@" | rows | awk '
        BEGIN { print "| path | non-test lines | pub fn |"; print "|---|---:|---:|" }
        $1 == "f" { printf "| `%s` | %d | %d |\n", $2, $3, $4; next }
        { printf "| **%s** | **%d** | **%d** |\n", $2, $3, $4 }'
    exit
fi

parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
git archive "$against" | tar -x -C "$parent"
# Parent rows first, then the change's: a path only in the parent was
# deleted (→ 0), a path only in the change is new (0 →).
{ count "$parent" "$@" | rows | sed 's/^/p /'; count . "$@" | rows | sed 's/^/c /'; } | awk -v rev="$against" '
    $1 == "p" { was[$3] = $4; pwas[$3] = $5; kind[$3] = $2; if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 } next }
    { now[$3] = $4; pnow[$3] = $5; kind[$3] = $2; if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 } }
    END {
        printf "| path | %s | change | delta | pub fn %s | pub fn change | pub fn delta |\n", rev, rev
        printf "|---|---:|---:|---:|---:|---:|---:|\n"
        for (i = 1; i <= n; i++) {
            p = order[i]
            if (kind[p] == "t") continue
            row(p)
        }
        row("total")
    }
    function row(p,    d, pd, name) {
        d = now[p] - was[p]
        pd = pnow[p] - pwas[p]
        if (kind[p] == "f" && d == 0 && pd == 0) return
        name = kind[p] == "f" ? "`" p "`" : "**" p "**"
        printf "| %s | %d | %d | %+d | %d | %d | %+d |\n", name, was[p], now[p], d, pwas[p], pnow[p], pd
    }'
