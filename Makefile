GO ?= go

.PHONY: all build test check server-test fuzz-smoke cover cover-update bench-smoke bench

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the tier-1 gate: vet, the full suite under the race
# detector, the server's concurrency tests, a short native-fuzz burst,
# the coverage ratchet and a one-iteration smoke of the paper-table
# benchmarks. The race run includes TestBenchmarkModule (vet and smoke of
# the benchmark of record, a nested module) and internal/e2e, which
# builds rcserved and realconfig and drives real processes: provenance
# traces, CLI/daemon plan agreement, and the replica and snapshot
# lifecycles.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) server-test
	$(MAKE) fuzz-smoke
	$(MAKE) cover
	$(MAKE) bench-smoke

# fuzz-smoke runs each native fuzz target briefly (go supports one
# -fuzz pattern per invocation). Long sessions: raise -fuzztime.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz '^FuzzChangeJSON$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/netcfg
	$(GO) test -fuzz '^FuzzJournalLine$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/server
	$(GO) test -fuzz '^FuzzTenantPath$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/server
	$(GO) test -fuzz '^FuzzStreamFrame$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/repl
	$(GO) test -fuzz '^FuzzResumeToken$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/repl
	$(GO) test -fuzz '^FuzzIncrementalEqualsBootstrap$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz '^FuzzBatchEqualsOneByOne$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/apkeep
	$(GO) test -fuzz '^FuzzAllowOfEqualsFirstMatch$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/apkeep

# cover measures per-package statement coverage and fails if any package
# listed in coverage.txt dropped below its recorded floor. After
# genuinely improving coverage, re-record with `make cover-update`.
cover:
	./scripts/cover.sh check

cover-update:
	./scripts/cover.sh update

# server-test runs the daemon's test suite under the race detector: the
# single-writer/lock-free-reader snapshot discipline is only proven if
# these pass with -race.
server-test:
	$(GO) test -race -count=1 ./internal/server ./cmd/rcserved

# bench-smoke runs the paper-table benchmarks and the apkeep, bdd, core,
# dd, routing, plan and policy micro-benchmarks once — not for numbers,
# just to prove they still build and complete.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Table2|Table3|SpecMining' -benchtime 1x .
	$(GO) test -run '^$$' -bench '.' -benchtime 1x ./internal/apkeep ./internal/bdd ./internal/core ./internal/dd ./internal/routing ./internal/plan ./internal/policy

# bench reports real numbers for the hot paths and the paper's tables
# (REALCONFIG_BENCH_K=12 for the paper's scale).
bench:
	$(GO) test -run '^$$' -bench '.' -benchtime 2s ./internal/apkeep ./internal/bdd
	$(GO) test -run '^$$' -bench 'Table2|Table3|SpecMining' .
