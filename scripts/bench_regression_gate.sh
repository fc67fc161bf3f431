#!/usr/bin/env bash
# Bench regression gate: every fresh quick-mode BENCH_<name>.json must be
# byte-identical to its committed snapshot in bench/snapshots/. The
# reports run on the virtual clock and are deterministic, so any
# difference — one digit of one metric — is a behaviour change to either
# fix or commit on purpose.
#
#   usage: scripts/bench_regression_gate.sh FRESH_DIR
#
# FRESH_DIR holds the reports `bench_all [NAME…] --out FRESH_DIR` wrote;
# only those are compared, so a job that runs one benchmark gates that
# one. A fresh report without a snapshot fails, as does an empty
# FRESH_DIR. (The full-suite CI job additionally checks that no snapshot
# lacks a fresh report.)
#
# Refresh the snapshots after an intentional change:
#   AURORA_BENCH_QUICK=1 cargo run --release -p aurora-bench -- --out bench/snapshots
set -euo pipefail

fresh_dir=${1:?usage: $0 FRESH_DIR}
snap_dir=$(dirname "$0")/../bench/snapshots

fail=0
compared=0
for fresh in "$fresh_dir"/BENCH_*.json; do
    [ -e "$fresh" ] || break
    name=$(basename "$fresh")
    snap="$snap_dir/$name"
    compared=$((compared + 1))
    if [ ! -f "$snap" ]; then
        echo "GATE FAIL: $name has no committed snapshot in bench/snapshots/" >&2
        fail=1
    elif ! cmp -s "$fresh" "$snap"; then
        # A report is one line of JSON, so "the first differing line" is
        # the text around the first differing byte.
        at=$(cmp "$snap" "$fresh" 2>&1 | sed 's/.*\(byte\|char\) \([0-9]*\).*/\2/' || true)
        from=$((at > 80 ? at - 80 : 1))
        echo "GATE FAIL: $name differs from its snapshot at byte $at:" >&2
        echo "  snapshot: …$(tail -c +"$from" "$snap" | head -c 120)…" >&2
        echo "  fresh:    …$(tail -c +"$from" "$fresh" | head -c 120)…" >&2
        fail=1
    else
        echo "  ok: $name"
    fi
done

if [ "$compared" -eq 0 ]; then
    echo "GATE FAIL: no BENCH_*.json in $fresh_dir — wrong directory?" >&2
    exit 1
fi
if [ "$fail" -ne 0 ]; then
    echo "bench regression gate FAILED ($compared reports compared)" >&2
    exit 1
fi
echo "bench regression gate passed ($compared reports byte-identical)"
