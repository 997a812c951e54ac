GO ?= go

.PHONY: all build test race vet lint ci ci-quick bench bench-all clean

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

# Full verification pipeline: vet + build + race tests + determinism checks
# (+ the workers=4 speedup measurement on multi-core machines).
ci:
	scripts/ci.sh

ci-quick:
	scripts/ci.sh --quick

# Perf snapshot: parallel-training + online-serving + tiered-serving +
# durability (checkpoint, WAL replay) + sharded
# multi-tenant serving benchmarks plus the fosslint wall-time figure,
# written to BENCH_10.json (see scripts/bench.sh; BENCHTIME=3x make bench
# for longer runs, CPUS=1,2,4 to sweep GOMAXPROCS).
bench:
	scripts/bench.sh

# Every benchmark in the repo, one iteration each (paper tables/figures).
bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x .

clean:
	$(GO) clean ./...
