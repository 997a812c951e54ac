GO ?= go

.PHONY: all build test race vet lint ci ci-quick bench bench-compare paper clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-invariant static analysis (see cmd/fosslint and the README's
# "Static analysis" section). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/fosslint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full verification pipeline: vet + lint + build + every test once under the
# race detector + the process-level gates + bench-compare against HEAD~1.
ci:
	scripts/ci.sh

ci-quick:
	scripts/ci.sh --quick

# The repo's one benchmark: four workloads, both passes, every metric
# BENCHMARK.json names (see benchmark/README.md).
bench:
	$(GO) run ./benchmark

# Is this tree slower than BASE? PAIRS (default 10) seed-matched alternating
# runs per side, judged by `benchmark -compare`; exit 1 on REGRESSED.
bench-compare:
	scripts/bench-compare.sh $(BASE) $(PAIRS)

# Every table and figure of the paper at reduced training budgets.
paper:
	$(GO) run ./cmd/fossbench -fast all

clean:
	$(GO) clean ./...
