#!/usr/bin/env bash
# bench-compare.sh — judge this tree's benchmark numbers against a base ref.
#
# Extracts BASE with `git archive` into a temp dir and runs PAIRS seed-matched
# runs of `go run ./benchmark -trace 0` (seeds 1..PAIRS, all four workloads,
# run_seconds from each side's own BENCHMARK.json), each side from its own
# checkout, alternating which side goes first so machine drift lands on both.
# Ends with `go run ./benchmark -compare base change`, whose exit status is
# this script's: 1 on a REGRESSED verdict. A run that is not "correct": true
# makes the harness exit 1, which stops the script there.
#
# Usage: scripts/bench-compare.sh BASE [PAIRS]    (make bench-compare BASE=<ref>)
set -euo pipefail
cd "$(dirname "$0")/.."

pairs="${2:-10}"
if [[ $# -lt 1 || $# -gt 2 || ! "$pairs" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: scripts/bench-compare.sh BASE [PAIRS]" >&2
  exit 2
fi
sha=$(git rev-parse --verify "$1^{commit}")

base_src=$(mktemp -d)
trap 'rm -rf "$base_src"' EXIT
git archive "$sha" | tar -x -C "$base_src"
[[ -f "$base_src/BENCHMARK.json" ]] || { echo "$1 ($sha) has no BENCHMARK.json: nothing to compare with" >&2; exit 2; }

# One result set per side; a directory accumulates runs, so start both empty.
out="$PWD/benchmark/out/compare"
rm -rf "$out"
mkdir -p "$out/base" "$out/change"

run_side() { # $1 = base|change, $2 = seed
  local src="$PWD"
  [[ "$1" == base ]] && src="$base_src"
  echo "== seed $2: $1 =="
  (cd "$src" && go run ./benchmark -trace 0 -seed "$2" -out "$out/$1")
}

for seed in $(seq 1 "$pairs"); do
  if (( seed % 2 )); then
    run_side base "$seed"
    run_side change "$seed"
  else
    run_side change "$seed"
    run_side base "$seed"
  fi
done

echo "== -compare: base $1 (${sha:0:12}) -> this tree, $pairs pairs; results in $out =="
go run ./benchmark -compare "$out/base" "$out/change"
