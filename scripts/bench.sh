#!/usr/bin/env bash
# bench.sh — the repository's perf snapshot: runs the parallel-training,
# online-serving, metrics-overhead, tiered-serving,
# durability (checkpoint + WAL-replay), multi-tenant sharded-serving,
# gate-proxied serving, and schema-evolution (catalog-apply + tier-0
# re-warm) benchmarks, times a full fosslint pass over the
# module, and emits a machine-readable BENCH_10.json.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=3x scripts/bench.sh      # more iterations per benchmark
#   CPUS=1,2,4 scripts/bench.sh        # sweep GOMAXPROCS (go test -cpu);
#                                      # each row records its gomaxprocs
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_10.json}"
benchtime="${BENCHTIME:-1x}"
# The parallelism actually benched, not the machine's core count: an explicit
# CPUS sweep, else the ambient GOMAXPROCS cap, else every hardware thread.
cpus="${CPUS:-${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== go test -bench TrainParallel|ServeOnline|ServeWithMetrics|ServeTiered|TierRouter|Checkpoint|WALReplay|ShardedServe|GateProxy|CatalogApply|Tier0RewarmAfterDDL (benchtime=$benchtime cpu=$cpus) =="
go test -run xxx -bench 'BenchmarkTrainParallel|BenchmarkServeOnline|BenchmarkServeWithMetrics|BenchmarkServeTiered|BenchmarkTierRouter|BenchmarkCheckpoint|BenchmarkWALReplay|BenchmarkShardedServe|BenchmarkGateProxy|BenchmarkCatalogApply|BenchmarkTier0RewarmAfterDDL' \
  -benchtime "$benchtime" -cpu "$cpus" . | tee "$tmp"

# Static-analysis wall time: the whole-module fosslint pass is part of every
# CI run, so the snapshot records how much it costs (ci.sh gates it at 10s).
lintbin=$(mktemp -d)
go build -o "$lintbin/fosslint" ./cmd/fosslint
lint_t0=$(date +%s%N)
"$lintbin/fosslint" ./... >/dev/null
lint_t1=$(date +%s%N)
rm -rf "$lintbin"
lint_ms=$(( (lint_t1 - lint_t0) / 1000000 ))
echo "fosslint full-module pass: ${lint_ms}ms"

awk -v arch="$(uname -m)" -v cpus="$cpus" -v benchtime="$benchtime" -v lintms="$lint_ms" '
  /^Benchmark/ {
    name = $1; procs = 1
    if (match(name, /-[0-9]+$/)) {
      procs = substr(name, RSTART + 1)
      name = substr(name, 1, RSTART - 1)
    }
    rows = rows sep sprintf("    {\"name\": \"%s\", \"gomaxprocs\": %s, \"iters\": %s, \"ns_per_op\": %s}",
                            name, procs, $2, $3)
    sep = ",\n"
  }
  END {
    if (rows == "") { print "no benchmark rows parsed" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"schema\": \"foss-bench/1\",\n"
    printf "  \"pr\": 10,\n"
    printf "  \"arch\": \"%s\",\n", arch
    printf "  \"cpus\": %s,\n", (cpus ~ /^[0-9]+$/ ? cpus : "\"" cpus "\"")
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"fosslint_ms\": %s,\n", lintms
    printf "  \"benchmarks\": [\n%s\n  ]\n", rows
    printf "}\n"
  }' "$tmp" > "$out"

echo "wrote $out"
