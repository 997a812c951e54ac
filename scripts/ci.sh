#!/usr/bin/env bash
# ci.sh — the repository's verification pipeline.
#
#   vet, gofmt cleanliness, the fosslint invariant suite (clean tree +
#   every rule proven to fire on its seeded fixture), build, every test once
#   (under the race detector in full mode, plus the alloc tripwires the
#   detector makes skip), the frozen-view and fork race stress, one epoch of the AAM
#   training benchmark, one tier-2 miss of the serving benchmark, the five
#   process-level gates (recovery, drain, metrics, replication, schema
#   evolution), and in full mode the benchmark compared against HEAD~1.
#
# Usage: scripts/ci.sh [--quick]
#   --quick runs the suite without the race detector and skips the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# Whichever gate fails, the scratch dirs and every fossd/fossgate this script
# started are gone on exit: a leaked server would hold its port and break
# every later run, so it is killed before its state is removed.
lint_dir="" exbin="" gate_dir="" gate_pid="" repl_pids=""
cleanup() {
  kill -9 $gate_pid $repl_pids 2>/dev/null || true
  rm -rf "$lint_dir" "$exbin" "$gate_dir"
}
trap cleanup EXIT

echo "== go vet =="
go vet ./...
# the analyzers the repo leans on hardest, named explicitly so a future
# change to vet's default set can never silently drop them
go vet -unreachable -copylocks -atomic ./...

echo "== gofmt cleanliness =="
unformatted=$(gofmt -l .)
[[ -z "$unformatted" ]] || { printf 'FAIL: gofmt-unclean files:\n%s\n' "$unformatted"; exit 1; }

echo "== no deprecated twins in non-test Go =="
if grep -rn 'Deprecated:' --include='*.go' --exclude='*_test.go' internal cmd foss.go; then echo "FAIL: Deprecated: marker in non-test Go (delete the twin and migrate its callers)"; exit 1; fi

echo "== one journaling site in internal/service =="
# Every live transition journals through journal.append; a second
# WAL().Append call is a forked journaling path replay will not know about.
wal_sites=$(grep -n 'WAL().Append(' internal/service/*.go | grep -v '_test\.go:' || true)
[[ $(grep -c . <<<"$wal_sites") -eq 1 ]] || { printf 'FAIL: want exactly one WAL().Append( in non-test internal/service, found:\n%s\n' "$wal_sites"; exit 1; }

echo "== fosslint: repo invariants (clean tree, firing fixtures, self-check) =="
# The static-analysis gate runs before any test gate: it is the cheapest
# whole-module check and its findings usually explain later test failures.
lint_dir=$(mktemp -d)
go build -o "$lint_dir/fosslint" ./cmd/fosslint
# 1) the production tree must be clean, and fast (budget: 10s wall)
lint_t0=$(date +%s)
"$lint_dir/fosslint" ./...
lint_t1=$(date +%s)
lint_secs=$((lint_t1 - lint_t0))
echo "fosslint full-module run: ${lint_secs}s"
[[ "$lint_secs" -le 10 ]] || { echo "FAIL: fosslint took ${lint_secs}s, budget is 10s"; exit 1; }
# 2) every rule must fire on its seeded-violation fixture (exit 1 =
# findings; 0 would mean the rule rotted, 2 would mean the run broke)
for rule in determinism goroutine sentinel fsyncrename ctxfirst statsorder; do
  rc=0
  "$lint_dir/fosslint" -unscoped -rules "$rule" "./internal/lint/testdata/$rule" >/dev/null 2>&1 || rc=$?
  [[ "$rc" -eq 1 ]] || { echo "FAIL: rule $rule exited $rc on its fixture, want 1 (findings)"; exit 1; }
done
# 3) reasonless ignore directives are findings, valid ones suppress
rc=0
"$lint_dir/fosslint" -unscoped "./internal/lint/testdata/ignore" >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 1 ]] || { echo "FAIL: ignore fixture exited $rc, want 1"; exit 1; }
# 4) the linter holds itself to the same invariants
"$lint_dir/fosslint" ./internal/lint || { echo "FAIL: fosslint findings on internal/lint itself"; exit 1; }
rm -rf "$lint_dir"

echo "== go build (library, cmd, and all examples) =="
go build ./...
# the examples are the public-API contract surface: list them explicitly so
# a GOFLAGS/build-cache quirk can never silently skip them (built into a
# throwaway dir — naming main packages makes go build emit executables)
exbin=$(mktemp -d)
go build -o "$exbin/" ./examples/quickstart ./examples/jobtour ./examples/hintsteer ./examples/doctor ./examples/ablation ./examples/fleet
rm -rf "$exbin"

if [[ $quick -eq 1 ]]; then
  echo "== every test, once =="
  go test ./...
else
  echo "== every test, once, under the race detector =="
  go test -race ./...
fi

echo "== frozen views and forks: serving and feedback while a fork trains, judged misses beside Explain, DDL beside a retrain, memoised forwards (-race -count=10) =="
# The one stress the suite above does not give: ten rounds under the detector.
# The live replica scores through its frozen view while another model trains
# (no package-level grad switch and no shared tensor, so it must stay
# silent), and the loop serves and records through a background retrain: the
# feedback lands once in the published fork's buffer, and the demoted
# replica's weights never change.
go test -race -count=10 -run 'TestFrozenViewServesWhileOtherReplicaTrains' ./internal/aam/
go test -race -count=10 -run 'TestServeAndRecordThroughBackgroundRetrain' ./internal/service/
# Batches of misses, each walking in its own arena while its judge goroutine
# scores in another, beside Explain over the same queries.
go test -race -count=10 -run 'TestJudgedMissesBesideExplain' ./internal/core/
# Serves, regressed feedback, a background retrain and two DDL batches at
# once: the published replica lands on the newest catalog generation and
# the only serve error is ErrCatalogStale.
go test -race -count=10 -run 'TestDDLBesideRetrainAndServes' ./internal/core/
# Frozen forwards sharing input-stage rows through per-network scratches, one
# goroutine per network, equal the tracked per-plan Forward bit for bit.
go test -race -count=10 -run 'TestMemoisedForwardsMatchForward' ./internal/learner/

echo "== AAM training kernel: one epoch of -bench AAMTrainEpoch (internal/aam), so it cannot rot =="
go test -run '^$' -bench AAMTrainEpoch -benchtime 1x ./internal/aam

echo "== miss kernel: one tier-2 miss of -bench ServeMiss (internal/core) at each size, so it cannot rot =="
go test -run '^$' -bench ServeMiss -benchtime 1x ./internal/core

if [[ $quick -eq 0 ]]; then
  echo "== alloc tripwires, detector off (they skip themselves under -race) =="
  # TestTier0ServeZeroAllocs, TestHotTurnZeroAllocs, TestServeMissAllocsBounded,
  # TestHistogramObserveZeroAllocs, TestJudgeAllocsBounded,
  # TestFrozenForwardBlocksAllocsPinned, TestFrozenForwardBlocksArenaAllocsPinned: README
  # "Verification" says what each pins. A rename that leaves the pattern
  # matching nothing in one of their packages is a failure, not a pass.
  alloc_out=$(go test -count=1 -run Allocs ./internal/...) || { echo "$alloc_out"; echo "FAIL: alloc tripwire"; exit 1; }
  for pkg in service core metrics aam nn; do
    line=$(grep -E "^ok\s+\S+/internal/$pkg\s" <<<"$alloc_out" || true)
    [[ -n "$line" && "$line" != *"no tests to run"* ]] || { echo "$alloc_out"; echo "FAIL: -run Allocs ran no test in internal/$pkg"; exit 1; }
  done

  echo "== nn kernels: ten seconds of FuzzGemm against the triple loops, bit for bit =="
  go test -run '^$' -fuzz FuzzGemm -fuzztime 10s ./internal/nn

  echo "== checkpoint decoder: ten seconds of FuzzDecodeCheckpoint, no panic, sentinel errors only =="
  go test -run '^$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s ./internal/store

  echo "== wal frames: ten seconds of FuzzOpenWAL, no panic, truncation to a frame boundary, Len = Replay, append after open replays last =="
  go test -run '^$' -fuzz FuzzOpenWAL -fuzztime 10s ./internal/store

  echo "== optimize bodies: ten seconds of FuzzWireQuery, no panic, every accepted query valid with named aliases, same bytes same fingerprint =="
  go test -run '^$' -fuzz FuzzWireQuery -fuzztime 10s ./internal/service

  echo "== plan identities: ten seconds of FuzzHintedPlan, no panic, ErrNoPlan refusals only, every accepted ICP a permutation with n-1 join methods that its plan extracts back to =="
  go test -run '^$' -fuzz FuzzHintedPlan -fuzztime 10s ./internal/optimizer

  echo "== ddl batches: ten seconds of FuzzDDLBatch, no panic, a refused batch moves nothing, an accepted one advances the epoch by its length and validates, the log replays to the same hash =="
  go test -run '^$' -fuzz FuzzDDLBatch -fuzztime 10s ./internal/engine/catalog

  echo "== tenant specs: ten seconds of FuzzParseTenantSpecs, no panic, every accepted fleet preflights or is refused as ErrBadConfig =="
  go test -run '^$' -fuzz FuzzParseTenantSpecs -fuzztime 10s ./cmd/fossd
fi

echo "== durability: fossd checkpoint -> kill -9 -> restart -> serve parity =="
# The process-level recovery gate: a real single-tenant fossd — a fleet of
# one, tenant "default" — serves and checkpoints, is killed with SIGKILL (no
# shutdown path runs), and a second fossd over the same -state-dir must
# warm-start (no retraining) and serve the identical plan for the same query.
gate_dir=$(mktemp -d)
go build -o "$gate_dir/fossd" ./cmd/fossd
gate_addr=127.0.0.1:8497
gate_train="-workload job -scale 0.35 -iters 1 -sim 20 -real 6 -validate 6 -rollouts 1"
wait_up() {
  for _ in $(seq 1 120); do
    curl -sf "http://$gate_addr/v1/stats" >/dev/null 2>&1 && return 0
    sleep 1
  done
  return 1
}
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train -serve-http "$gate_addr" -state-dir "$gate_dir/state" >"$gate_dir/first.log" 2>&1 &
gate_pid=$!
wait_up || { cat "$gate_dir/first.log"; echo "FAIL: first fossd never came up"; exit 1; }
curl -sf "http://$gate_addr/v1/t/default/optimize" -d '{"query_id": "1_1", "execute": true}' >"$gate_dir/plan1.json"
curl -sf -X POST "http://$gate_addr/v1/t/default/checkpoint" >/dev/null
# journal one more execution past the checkpoint: it must survive via the WAL
curl -sf "http://$gate_addr/v1/t/default/optimize" -d '{"query_id": "2_1", "execute": true}' >/dev/null
kill -9 "$gate_pid" 2>/dev/null; wait "$gate_pid" 2>/dev/null || true
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train -serve-http "$gate_addr" -state-dir "$gate_dir/state" >"$gate_dir/second.log" 2>&1 &
gate_pid=$!
wait_up || { cat "$gate_dir/second.log"; echo "FAIL: restarted fossd never came up"; exit 1; }
grep -q "warm restart" "$gate_dir/second.log" || { cat "$gate_dir/second.log"; echo "FAIL: restart retrained instead of recovering"; exit 1; }
curl -sf "http://$gate_addr/v1/t/default/optimize" -d '{"query_id": "1_1"}' >"$gate_dir/plan2.json"
# the aggregate roll-up carries the sole tenant's counters
curl -sf "http://$gate_addr/v1/stats" >"$gate_dir/stats.json"
kill "$gate_pid" 2>/dev/null; wait "$gate_pid" 2>/dev/null || true
gate_pid=""
key1=$(sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p' "$gate_dir/plan1.json")
key2=$(sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p' "$gate_dir/plan2.json")
replayed=$(sed -n 's/.*"Replayed":\([0-9]*\).*/\1/p' "$gate_dir/stats.json")
[[ -n "$key1" && "$key1" == "$key2" ]] || { echo "FAIL: post-restart plan '$key2' != pre-crash plan '$key1'"; exit 1; }
[[ "${replayed:-0}" -ge 1 ]] || { echo "FAIL: post-checkpoint WAL record not replayed (replayed=$replayed)"; exit 1; }
echo "recovery gate OK: plan '$key1' served identically across kill -9 (walReplayed=$replayed)"

echo "== lifecycle: 2-tenant fossd SIGTERM drain -> clean exit -> warm restart =="
# The deploy gate: a sharded fossd serving two tenants under live traffic
# takes a SIGTERM, drains losslessly (every in-flight request completes or is
# cleanly refused, a final checkpoint lands per tenant), exits 0, and a
# successor over the same state dir warm-starts BOTH tenants to bit-identical
# serving.
fleet_addr=127.0.0.1:8498
fleet_flags="-tenants acme,globex -tenant-spec globex=backend:gaussim -serve-http $fleet_addr -state-dir $gate_dir/fleet"
fleet_up() {
  for _ in $(seq 1 180); do
    curl -sf "http://$fleet_addr/v1/tenants" >/dev/null 2>&1 && return 0
    sleep 1
  done
  return 1
}
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train $fleet_flags >"$gate_dir/fleet1.log" 2>&1 &
gate_pid=$!
fleet_up || { cat "$gate_dir/fleet1.log"; echo "FAIL: fleet never came up"; exit 1; }
curl -sf "http://$fleet_addr/v1/t/acme/optimize" -d '{"query_id": "1_1"}' >"$gate_dir/acme1.json"
curl -sf "http://$fleet_addr/v1/t/globex/optimize" -d '{"query_id": "1_1"}' >"$gate_dir/globex1.json"
# Live traffic through the SIGTERM: every body the server answers must be a
# complete response (a plan or a clean refusal), never a torn one.
: >"$gate_dir/traffic.out"
(
  set +e # refused connections after the listener closes are expected, not errors
  while :; do
    curl -sf "http://$fleet_addr/v1/t/acme/optimize" -d '{"query_id": "2_1", "execute": true}' >>"$gate_dir/traffic.out" 2>/dev/null
    echo >>"$gate_dir/traffic.out"
  done
) &
traffic_pid=$!
sleep 1
kill -TERM "$gate_pid"
fleet_rc=0
wait "$gate_pid" || fleet_rc=$?
kill "$traffic_pid" 2>/dev/null || true
wait "$traffic_pid" 2>/dev/null || true
gate_pid=""
[[ "$fleet_rc" -eq 0 ]] || { cat "$gate_dir/fleet1.log"; echo "FAIL: SIGTERM exit code $fleet_rc, want 0"; exit 1; }
grep -q "fleet drained cleanly" "$gate_dir/fleet1.log" || { cat "$gate_dir/fleet1.log"; echo "FAIL: fleet did not drain"; exit 1; }
[[ "$(grep -c 'drained:' "$gate_dir/fleet1.log")" -eq 2 ]] || { cat "$gate_dir/fleet1.log"; echo "FAIL: not every tenant drained"; exit 1; }
for t in acme globex; do
  [[ -f "$gate_dir/fleet/$t/MANIFEST" ]] || { echo "FAIL: tenant $t has no durable checkpoint after drain"; exit 1; }
done
# Zero dropped in-flight requests: every answered body parses as a served
# plan (requests arriving after the listener closed were refused at connect,
# which curl -f reports by writing nothing).
answered=$(grep -c 'icp_key' "$gate_dir/traffic.out" || true)
# A vacuous pass proves nothing: at least one in-flight answer must have
# landed for the zero-torn-responses assertion to mean anything.
[[ "${answered:-0}" -ge 1 ]] || { echo "FAIL: traffic loop landed no answers; the drain was never exercised under load"; exit 1; }
while IFS= read -r line; do
  [[ -z "$line" ]] && continue
  echo "$line" | grep -q 'icp_key' || { echo "FAIL: torn/dropped in-flight response: $line"; exit 1; }
done <"$gate_dir/traffic.out"
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train $fleet_flags >"$gate_dir/fleet2.log" 2>&1 &
gate_pid=$!
fleet_up || { cat "$gate_dir/fleet2.log"; echo "FAIL: restarted fleet never came up"; exit 1; }
[[ "$(grep -c 'warm restart' "$gate_dir/fleet2.log")" -eq 2 ]] || { cat "$gate_dir/fleet2.log"; echo "FAIL: a tenant retrained instead of warm-starting"; exit 1; }
curl -sf "http://$fleet_addr/v1/t/acme/optimize" -d '{"query_id": "1_1"}' >"$gate_dir/acme2.json"
curl -sf "http://$fleet_addr/v1/t/globex/optimize" -d '{"query_id": "1_1"}' >"$gate_dir/globex2.json"
kill -TERM "$gate_pid"; wait "$gate_pid" 2>/dev/null || true
gate_pid=""
for t in acme globex; do
  k1=$(sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p' "$gate_dir/$t"1.json)
  k2=$(sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p' "$gate_dir/$t"2.json)
  [[ -n "$k1" && "$k1" == "$k2" ]] || { echo "FAIL: tenant $t restarted plan '$k2' != pre-drain '$k1'"; exit 1; }
done
echo "drain gate OK: SIGTERM drained 2 tenants cleanly ($answered in-flight answers intact), both warm-restarted bit-identically"

echo "== observability: 2-tenant /metrics scrape — monotonic counters, histogram == served =="
# The scrape gate: live traffic against a 2-tenant fossd, two scrapes of the
# aggregate /metrics page around more traffic. Counters must be monotonic
# across the scrapes and (traffic strictly between scrapes, so the fleet is
# quiescent at each) the summed histogram counts must equal the summed serve
# counter on both pages.
met_addr=127.0.0.1:8499
met_flags="-tenants acme,globex -tenant-spec globex=backend:gaussim -serve-http $met_addr"
met_up() {
  for _ in $(seq 1 180); do
    curl -sf "http://$met_addr/v1/tenants" >/dev/null 2>&1 && return 0
    sleep 1
  done
  return 1
}
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train $met_flags >"$gate_dir/metrics.log" 2>&1 &
gate_pid=$!
met_up || { cat "$gate_dir/metrics.log"; echo "FAIL: metrics-gate fleet never came up"; exit 1; }
met_traffic() { # $1 = requests per tenant
  for _ in $(seq 1 "$1"); do
    for t in acme globex; do
      curl -sf "http://$met_addr/v1/t/$t/optimize" -d '{"query_id": "1_1", "execute": true}' >/dev/null
    done
  done
}
met_sum() { # $1 = page file, $2 = sample-name prefix
  grep "^$2" "$1" | awk '{s += $NF} END {print s + 0}'
}
met_traffic 3
curl -sf "http://$met_addr/metrics" >"$gate_dir/scrape1.txt"
met_traffic 2
curl -sf "http://$met_addr/metrics" >"$gate_dir/scrape2.txt"
kill -TERM "$gate_pid"; wait "$gate_pid" 2>/dev/null || true
gate_pid=""
for page in scrape1 scrape2; do
  grep -q 'tenant="acme"' "$gate_dir/$page.txt" && grep -q 'tenant="globex"' "$gate_dir/$page.txt" \
    || { echo "FAIL: $page is not tenant-labeled"; exit 1; }
  served=$(met_sum "$gate_dir/$page.txt" 'foss_served_total')
  hist=$(met_sum "$gate_dir/$page.txt" 'foss_serve_latency_seconds_count')
  [[ "$served" -ge 1 ]] || { echo "FAIL: $page shows no serves"; exit 1; }
  [[ "$hist" -eq "$served" ]] || { echo "FAIL: $page histogram counts $hist != served $served"; exit 1; }
done
for fam in foss_served_total foss_recorded_total foss_serve_latency_seconds_count; do
  a=$(met_sum "$gate_dir/scrape1.txt" "$fam")
  b=$(met_sum "$gate_dir/scrape2.txt" "$fam")
  [[ "$b" -gt "$a" ]] || { echo "FAIL: $fam not monotonic across traffic ($a -> $b)"; exit 1; }
done
echo "metrics gate OK: tenant-labeled scrape, counters monotonic, histogram counts == served on both pages"

echo "== replication: leader + 2 followers + gate, kill -9 leader mid-traffic, zero dropped reads =="
# The fleet gate: a leader trains and checkpoints; two followers replicate
# over HTTP (/v1/t/{tenant}/repl/*) and must serve the leader's exact plan;
# a fossgate with failover fronts all three. The leader takes a kill -9
# under live gate traffic — every read must keep answering (followers hold
# the last published generation) — and a restarted leader must warm-resume
# from its MANIFEST.
repl_lead=127.0.0.1:8500
repl_f1=127.0.0.1:8501
repl_f2=127.0.0.1:8502
repl_gate=127.0.0.1:8503
repl_pids=""
gate_pid=""
go build -o "$gate_dir/fossgate" ./cmd/fossgate
up() { # $1 = addr
  for _ in $(seq 1 180); do
    curl -sf "http://$1/v1/tenants" >/dev/null 2>&1 && return 0
    sleep 1
  done
  return 1
}
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train -tenants acme -state-dir "$gate_dir/repl" -checkpoint-every 4 -serve-http "$repl_lead" >"$gate_dir/lead1.log" 2>&1 &
lead_pid=$!
repl_pids="$lead_pid"
up "$repl_lead" || { cat "$gate_dir/lead1.log"; echo "FAIL: replication leader never came up"; exit 1; }
for f in "$repl_f1" "$repl_f2"; do
  # shellcheck disable=SC2086
  "$gate_dir/fossd" $gate_train -tenants acme -role follower -leader-addr "http://$repl_lead" -repl-interval 200ms -serve-http "$f" >"$gate_dir/follower-${f##*:}.log" 2>&1 &
  repl_pids="$repl_pids $!"
done
up "$repl_f1" && up "$repl_f2" || { cat "$gate_dir"/follower-*.log; echo "FAIL: a follower never came up"; exit 1; }
"$gate_dir/fossgate" -listen "$repl_gate" -members "$repl_lead,$repl_f1,$repl_f2" -failover >"$gate_dir/gate.log" 2>&1 &
repl_pids="$repl_pids $!"
for _ in $(seq 1 60); do
  curl -sf "http://$repl_gate/v1/gate" >/dev/null 2>&1 && break
  sleep 1
done
# Replication correctness: the leader's plan and both followers' plans for
# the same query must carry the same icp_key (same model generation).
curl -sf "http://$repl_lead/v1/t/acme/optimize" -d '{"query_id": "1_1"}' >"$gate_dir/lead-plan.json"
lead_key=$(sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p' "$gate_dir/lead-plan.json")
[[ -n "$lead_key" ]] || { echo "FAIL: leader served no plan"; exit 1; }
for f in "$repl_f1" "$repl_f2"; do
  grep -q "follower serving" "$gate_dir/follower-${f##*:}.log" || { cat "$gate_dir/follower-${f##*:}.log"; echo "FAIL: $f did not boot as a follower"; exit 1; }
  fk=$(curl -sf "http://$f/v1/t/acme/optimize" -d '{"query_id": "1_1"}' | sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p')
  [[ "$fk" == "$lead_key" ]] || { echo "FAIL: follower $f plan '$fk' != leader plan '$lead_key'"; exit 1; }
done
# Feedback on a follower forwards to the leader instead of 403ing.
sid=$(curl -sf "http://$repl_f1/v1/t/acme/optimize" -d '{"query_id": "2_1"}' | sed -n 's/.*"serve_id":"\([^"]*\)".*/\1/p')
[[ -n "$sid" ]] || { echo "FAIL: follower optimize returned no serve_id"; exit 1; }
fwd=$(curl -s "http://$repl_f1/v1/t/acme/feedback" -d "{\"serve_id\": \"$sid\", \"latency_ms\": 12.5}")
echo "$fwd" | grep -q '"forwarded":true' || { echo "FAIL: follower feedback not forwarded to leader: $fwd"; exit 1; }
# The merged gate scrape sees replication lag per instance.
curl -sf "http://$repl_gate/metrics" >"$gate_dir/gate-metrics.txt"
grep -q 'foss_repl_last_applied_walseq{' "$gate_dir/gate-metrics.txt" || { echo "FAIL: gate scrape missing replication gauges"; exit 1; }
grep -q 'instance="' "$gate_dir/gate-metrics.txt" || { echo "FAIL: gate scrape not instance-labeled"; exit 1; }
# Live reads through the gate across the leader kill: with failover on, a
# request whose owner died must land on a follower — zero failed requests.
: >"$gate_dir/repl-traffic.out"
(
  set +e
  while :; do
    curl -sf "http://$repl_gate/v1/t/acme/optimize" -d '{"query_id": "1_1"}' >>"$gate_dir/repl-traffic.out" || echo -n FAILED >>"$gate_dir/repl-traffic.out"
    echo >>"$gate_dir/repl-traffic.out"
  done
) &
traffic_pid=$!
sleep 1
kill -9 "$lead_pid" 2>/dev/null; wait "$lead_pid" 2>/dev/null || true
sleep 2
pre=$(wc -l <"$gate_dir/repl-traffic.out")
sleep 2
kill "$traffic_pid" 2>/dev/null || true
wait "$traffic_pid" 2>/dev/null || true
post=$(wc -l <"$gate_dir/repl-traffic.out")
[[ "$post" -gt "$pre" ]] || { echo "FAIL: gate traffic stalled after leader kill ($pre -> $post)"; exit 1; }
if grep -q FAILED "$gate_dir/repl-traffic.out"; then echo "FAIL: requests failed through the gate during leader kill"; exit 1; fi
answered=0
while IFS= read -r line; do
  [[ -z "$line" ]] && continue
  echo "$line" | grep -q "\"icp_key\":\"$lead_key\"" || { echo "FAIL: torn or wrong-generation response through gate: $line"; exit 1; }
  answered=$((answered + 1))
done <"$gate_dir/repl-traffic.out"
[[ "$answered" -ge 1 ]] || { echo "FAIL: gate traffic loop landed no answers"; exit 1; }
# A follower answers directly too: the fleet's reads survived leader death.
fk=$(curl -sf "http://$repl_f2/v1/t/acme/optimize" -d '{"query_id": "1_1"}' | sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p')
[[ "$fk" == "$lead_key" ]] || { echo "FAIL: follower lost the generation after leader death ('$fk')"; exit 1; }
# The restarted leader resumes from its own MANIFEST — warm, not retrained.
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train -tenants acme -state-dir "$gate_dir/repl" -checkpoint-every 4 -serve-http "$repl_lead" >"$gate_dir/lead2.log" 2>&1 &
repl_pids="$repl_pids $!"
up "$repl_lead" || { cat "$gate_dir/lead2.log"; echo "FAIL: restarted leader never came up"; exit 1; }
grep -q "warm restart" "$gate_dir/lead2.log" || { cat "$gate_dir/lead2.log"; echo "FAIL: restarted leader retrained instead of resuming"; exit 1; }
lk2=$(curl -sf "http://$repl_lead/v1/t/acme/optimize" -d '{"query_id": "1_1"}' | sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p')
[[ "$lk2" == "$lead_key" ]] || { echo "FAIL: restarted leader plan '$lk2' != pre-crash plan '$lead_key'"; exit 1; }
kill $repl_pids 2>/dev/null || true
wait 2>/dev/null || true
repl_pids=""
echo "replication gate OK: 2 followers served leader's generation '$lead_key', $answered gate reads intact across kill -9, leader warm-resumed"

echo "== schema evolution: live DDL under traffic -> kill -9 -> warm restart at post-DDL epoch =="
# The migration gate: a 2-tenant fossd takes a POST /v1/t/acme/catalog DDL
# batch (drop the index on job's hottest join column, add a side table)
# while curl traffic hammers the same tenant. Serving must never block or
# tear (every answered body is a complete plan), the tenant's catalog epoch
# must bump on /v1/stats while the other tenant's stays at 0, and a kill -9
# plus warm restart must come back at the post-DDL epoch serving the same
# plan — the migration survives the crash without being re-applied.
ddl_addr=127.0.0.1:8504
ddl_flags="-tenants acme,globex -tenant-spec globex=backend:gaussim -serve-http $ddl_addr -state-dir $gate_dir/ddl"
ddl_up() {
  for _ in $(seq 1 180); do
    curl -sf "http://$ddl_addr/v1/tenants" >/dev/null 2>&1 && return 0
    sleep 1
  done
  return 1
}
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train $ddl_flags >"$gate_dir/ddl1.log" 2>&1 &
gate_pid=$!
ddl_up || { cat "$gate_dir/ddl1.log"; echo "FAIL: ddl-gate fleet never came up"; exit 1; }
: >"$gate_dir/ddl-traffic.out"
(
  set +e # the loop outlives the DDL, not the listener: failures are findings
  while :; do
    curl -sf "http://$ddl_addr/v1/t/acme/optimize" -d '{"query_id": "1_1", "execute": true}' >>"$gate_dir/ddl-traffic.out" || echo -n FAILED >>"$gate_dir/ddl-traffic.out"
    echo >>"$gate_dir/ddl-traffic.out"
  done
) &
traffic_pid=$!
sleep 1
ddl_body='{"ddl": [{"kind": "drop-index", "table": "title", "column": "id"}, {"kind": "add-table", "table": "ci_evolved", "columns": [{"name": "id", "indexed": true}]}]}'
curl -sf "http://$ddl_addr/v1/t/acme/catalog" -d "$ddl_body" >"$gate_dir/ddl-resp.json" \
  || { cat "$gate_dir/ddl1.log"; echo "FAIL: catalog DDL refused"; exit 1; }
grep -q '"catalog_epoch":2' "$gate_dir/ddl-resp.json" || { echo "FAIL: DDL response epoch wrong: $(cat "$gate_dir/ddl-resp.json")"; exit 1; }
sleep 1
kill "$traffic_pid" 2>/dev/null || true
wait "$traffic_pid" 2>/dev/null || true
# Zero failed or torn responses across the apply: serving never blocked.
if grep -q FAILED "$gate_dir/ddl-traffic.out"; then echo "FAIL: requests failed during the DDL apply"; exit 1; fi
answered=0
while IFS= read -r line; do
  [[ -z "$line" ]] && continue
  echo "$line" | grep -q 'icp_key' || { echo "FAIL: torn response during DDL apply: $line"; exit 1; }
  answered=$((answered + 1))
done <"$gate_dir/ddl-traffic.out"
[[ "$answered" -ge 1 ]] || { echo "FAIL: ddl traffic loop landed no answers"; exit 1; }
# The epoch landed on the tenant's stats — and only that tenant's.
curl -sf "http://$ddl_addr/v1/t/acme/stats" >"$gate_dir/ddl-stats.json"
grep -q '"CatalogEpoch":2' "$gate_dir/ddl-stats.json" || { echo "FAIL: acme stats missing catalog epoch 2"; exit 1; }
curl -sf "http://$ddl_addr/v1/t/globex/stats" | grep -q '"CatalogEpoch":0' || { echo "FAIL: globex catalog epoch moved"; exit 1; }
curl -sf "http://$ddl_addr/v1/t/acme/catalog" | grep -q '"kind":"drop-index"' || { echo "FAIL: catalog log missing the applied DDL"; exit 1; }
curl -sf "http://$ddl_addr/v1/t/acme/optimize" -d '{"query_id": "1_1"}' >"$gate_dir/ddl-plan1.json"
kill -9 "$gate_pid" 2>/dev/null; wait "$gate_pid" 2>/dev/null || true
# shellcheck disable=SC2086
"$gate_dir/fossd" $gate_train $ddl_flags >"$gate_dir/ddl2.log" 2>&1 &
gate_pid=$!
ddl_up || { cat "$gate_dir/ddl2.log"; echo "FAIL: restarted ddl-gate fleet never came up"; exit 1; }
[[ "$(grep -c 'warm restart' "$gate_dir/ddl2.log")" -eq 2 ]] || { cat "$gate_dir/ddl2.log"; echo "FAIL: a tenant retrained after the DDL crash"; exit 1; }
curl -sf "http://$ddl_addr/v1/t/acme/stats" | grep -q '"CatalogEpoch":2' || { echo "FAIL: restart lost the catalog epoch"; exit 1; }
curl -sf "http://$ddl_addr/v1/t/acme/optimize" -d '{"query_id": "1_1"}' >"$gate_dir/ddl-plan2.json"
kill -TERM "$gate_pid"; wait "$gate_pid" 2>/dev/null || true
gate_pid=""
dk1=$(sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p' "$gate_dir/ddl-plan1.json")
dk2=$(sed -n 's/.*"icp_key":"\([^"]*\)".*/\1/p' "$gate_dir/ddl-plan2.json")
[[ -n "$dk1" && "$dk1" == "$dk2" ]] || { echo "FAIL: post-restart plan '$dk2' != post-DDL plan '$dk1'"; exit 1; }
echo "ddl gate OK: catalog epoch 2 under $answered intact in-flight answers, warm restart resumed the evolved schema"

if [[ $quick -eq 0 ]]; then
  echo "== benchmark: HEAD~1 against this tree, 2 seed pairs, judged by -compare =="
  # bench-compare.sh exits non-zero on a REGRESSED verdict, and aborts on the
  # first run that is not "correct": true (the harness prints a VIOLATION line
  # and exits 1). UNRESOLVED is reported, not failed: two pairs on a shared
  # machine cannot resolve much, ten (make bench-compare) can.
  ncpu=$(nproc 2>/dev/null || echo 1)
  if [[ "$ncpu" -lt 2 ]]; then
    echo "== SKIPPING bench-compare: $ncpu CPU, needs >= 2 (wire_fleet runs its client beside the fleet) =="
  elif ! git rev-parse -q --verify 'HEAD~1^{commit}' >/dev/null 2>&1; then
    echo "== SKIPPING bench-compare: no HEAD~1 to compare with (shallow clone or no git history) =="
  else
    scripts/bench-compare.sh HEAD~1 2 || { echo "FAIL: bench-compare against HEAD~1"; exit 1; }
  fi
fi

echo "CI OK"
