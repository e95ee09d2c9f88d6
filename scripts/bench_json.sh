#!/bin/sh
# bench_json.sh — run the performance-trajectory harness and write the next
# numbered BENCH_<n>.json at the repo root (EXPERIMENTS.md "perf trajectory").
#
# Usage:
#   scripts/bench_json.sh            # full run: real microbench iters + full sweep
#   scripts/bench_json.sh --smoke    # 1-iteration schema smoke into a temp file
#
# Numbering is monotonic: the script scans the repo root for existing
# BENCH_<n>.json files and picks max(n)+1, so each optimisation PR appends
# one file and the series records the repo's perf history.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--smoke" ]; then
    # The report goes to a temporary directory that is removed on any exit,
    # a failed smoke run included.
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
    go run ./cmd/hpebench -bench-json "$dir/BENCH_1.json" -bench-iters 1 -quick
    echo "bench-json smoke OK (schema validated)"
    exit 0
fi

next=1
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n=${f#BENCH_}
    n=${n%.json}
    case $n in
    *[!0-9]* | '') continue ;;
    esac
    if [ "$n" -ge "$next" ]; then
        next=$((n + 1))
    fi
done

out="BENCH_${next}.json"
go run ./cmd/hpebench -bench-json "$out"
