GO ?= go

.PHONY: all build test check server-test serve-smoke trace-smoke plan-smoke replica-smoke snapshot-smoke load-smoke fuzz-smoke cover cover-update bench-smoke bench

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the tier-1 gate: vet, an explicit daemon build, the full
# suite under the race detector (which also vets and smoke-tests the
# benchmark of record, a nested module, via TestBenchmarkModule), the
# server's concurrency tests, a short native-fuzz burst, the coverage
# ratchet, a one-iteration smoke of the paper-table benchmarks, the
# provenance-trace smoke against the real daemon, the planner's CLI/daemon
# agreement, the replica and snapshot lifecycles, and the p99 SLO gate.
check:
	$(GO) vet ./...
	$(GO) build -o /dev/null ./cmd/rcserved
	$(GO) test -race ./...
	$(MAKE) server-test
	$(MAKE) fuzz-smoke
	$(MAKE) cover
	$(MAKE) bench-smoke
	$(MAKE) trace-smoke
	$(MAKE) plan-smoke
	$(MAKE) replica-smoke
	$(MAKE) snapshot-smoke
	$(MAKE) load-smoke

# fuzz-smoke runs each native fuzz target briefly (go supports one
# -fuzz pattern per invocation). Long sessions: raise -fuzztime.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz '^FuzzChangeJSON$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/netcfg
	$(GO) test -fuzz '^FuzzInvert$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/netcfg
	$(GO) test -fuzz '^FuzzJournalLine$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/server
	$(GO) test -fuzz '^FuzzTenantPath$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/server
	$(GO) test -fuzz '^FuzzStreamFrame$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/repl
	$(GO) test -fuzz '^FuzzResumeToken$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/repl
	$(GO) test -fuzz '^FuzzIncrementalEqualsBootstrap$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/core

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

# serve-smoke boots the real daemon on a random port against the campus
# fixture, applies one change over HTTP, and checks /v1/healthz.
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/rcserved ./cmd/rcserved; \
	$$tmp/rcserved -net testdata/campus -policies testdata/campus/policies.txt \
		-journal $$tmp/journal -addr 127.0.0.1:0 >$$tmp/out 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do grep -q listening $$tmp/out 2>/dev/null && break; sleep 0.1; done; \
	addr=$$(sed -n 's#.*http://\([^ ]*\) .*#\1#p' $$tmp/out); \
	test -n "$$addr" || { echo "serve-smoke: daemon did not start"; cat $$tmp/out; exit 1; }; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d '{"changes":[{"kind":"shutdown_interface","device":"core1","intf":"eth2","shutdown":true}]}' \
		http://$$addr/v1/changes >/dev/null; \
	curl -fsS http://$$addr/v1/healthz; echo; \
	echo "serve-smoke: ok"

# trace-smoke boots the real daemon with provenance tracing, applies one
# change over HTTP, and validates the apply's trace end to end: the ring
# index lists it, the JSON trace carries events, and the Chrome export
# parses as trace-event JSON.
trace-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/rcserved ./cmd/rcserved; \
	$$tmp/rcserved -net testdata/campus -policies testdata/campus/policies.txt \
		-log-format json -addr 127.0.0.1:0 >$$tmp/out 2>$$tmp/log & pid=$$!; \
	for i in $$(seq 1 100); do grep -q listening $$tmp/out 2>/dev/null && break; sleep 0.1; done; \
	addr=$$(sed -n 's#.*http://\([^ ]*\) .*#\1#p' $$tmp/out); \
	test -n "$$addr" || { echo "trace-smoke: daemon did not start"; cat $$tmp/out $$tmp/log; exit 1; }; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d '{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":true}]}' \
		http://$$addr/v1/changes >/dev/null; \
	curl -fsS http://$$addr/v1/applies | grep -q '"label":"apply"' \
		|| { echo "trace-smoke: ring index missing the apply"; exit 1; }; \
	curl -fsS http://$$addr/v1/applies/latest/trace | grep -q '"kind":"policy_recheck"' \
		|| { echo "trace-smoke: trace missing policy_recheck events"; exit 1; }; \
	curl -fsS "http://$$addr/v1/applies/latest/trace?format=chrome" >$$tmp/chrome.json; \
	python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["traceEvents"], "empty traceEvents"' \
		$$tmp/chrome.json 2>/dev/null \
		|| grep -q '"traceEvents":' $$tmp/chrome.json \
		|| { echo "trace-smoke: chrome export invalid"; exit 1; }; \
	grep -q '"req_id"' $$tmp/log || { echo "trace-smoke: logs missing req_id"; cat $$tmp/log; exit 1; }; \
	echo "trace-smoke: ok"

# plan-smoke runs the update planner on the checked-in rollout example
# through both front ends — the CLI and a live daemon's /v1/plan — and
# requires them to agree on the wave ordering, byte for byte.
plan-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/realconfig ./cmd/realconfig; \
	$(GO) build -o $$tmp/rcserved ./cmd/rcserved; \
	$$tmp/realconfig plan -net examples/rollout/net -policies examples/rollout/net/policies.txt \
		-changes examples/rollout/net/batch.json | grep '^waves:' >$$tmp/cli.waves; \
	$$tmp/rcserved -net examples/rollout/net -policies examples/rollout/net/policies.txt \
		-addr 127.0.0.1:0 >$$tmp/out 2>/dev/null & pid=$$!; \
	for i in $$(seq 1 100); do grep -q listening $$tmp/out 2>/dev/null && break; sleep 0.1; done; \
	addr=$$(sed -n 's#.*http://\([^ ]*\) .*#\1#p' $$tmp/out); \
	test -n "$$addr" || { echo "plan-smoke: daemon did not start"; cat $$tmp/out; exit 1; }; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d @examples/rollout/net/batch.json http://$$addr/v1/plan >$$tmp/plan.json; \
	python3 -c 'import json,sys; p=json.load(open(sys.argv[1])); \
		assert p["planned"], "daemon found no plan"; \
		print("waves: " + " ".join("[" + " ".join(str(s["index"]) for s in w) + "]" for w in p["plan"]["waves"]))' \
		$$tmp/plan.json >$$tmp/srv.waves; \
	diff $$tmp/cli.waves $$tmp/srv.waves || { echo "plan-smoke: CLI and daemon disagree"; exit 1; }; \
	cat $$tmp/cli.waves; \
	echo "plan-smoke: ok"

# replica-smoke boots a real leader with a journal, applies a change
# batch, then attaches a real follower over HTTP: the follower must
# catch up to the leader's seq, serve byte-identical verdicts, and
# reject writes with 503 + a Leader hint.
replica-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$lpid $$fpid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/rcserved ./cmd/rcserved; \
	$$tmp/rcserved -net testdata/campus -policies testdata/campus/policies.txt \
		-journal $$tmp/journal -journal-segment-bytes 256 \
		-addr 127.0.0.1:0 >$$tmp/lout 2>&1 & lpid=$$!; \
	for i in $$(seq 1 100); do grep -q listening $$tmp/lout 2>/dev/null && break; sleep 0.1; done; \
	laddr=$$(sed -n 's#^rcserved: listening on http://\([^ ]*\) .*#\1#p' $$tmp/lout); \
	test -n "$$laddr" || { echo "replica-smoke: leader did not start"; cat $$tmp/lout; exit 1; }; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d '{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":true}]}' \
		http://$$laddr/v1/changes >/dev/null; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d '{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":false}]}' \
		http://$$laddr/v1/changes >/dev/null; \
	$$tmp/rcserved -net testdata/campus -policies testdata/campus/policies.txt \
		-follow http://$$laddr -addr 127.0.0.1:0 >$$tmp/fout 2>&1 & fpid=$$!; \
	for i in $$(seq 1 100); do grep -q listening $$tmp/fout 2>/dev/null && break; sleep 0.1; done; \
	faddr=$$(sed -n 's#^rcserved: listening on http://\([^ ]*\) .*#\1#p' $$tmp/fout); \
	test -n "$$faddr" || { echo "replica-smoke: follower did not start"; cat $$tmp/fout; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$$faddr/v1/healthz | grep -q '"replLagSeq":0' && break; sleep 0.1; done; \
	curl -fsS http://$$faddr/v1/healthz | grep -q '"role":"follower"' \
		|| { echo "replica-smoke: follower healthz missing follower role"; exit 1; }; \
	curl -fsS http://$$laddr/v1/verdicts >$$tmp/leader.verdicts; \
	curl -fsS http://$$faddr/v1/verdicts >$$tmp/follower.verdicts; \
	diff $$tmp/leader.verdicts $$tmp/follower.verdicts \
		|| { echo "replica-smoke: leader and follower verdicts differ"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
		-d '{"changes":[]}' http://$$faddr/v1/changes); \
	test "$$code" = 503 || { echo "replica-smoke: follower write got $$code, want 503"; exit 1; }; \
	curl -s -i -X POST -H 'Content-Type: application/json' -d '{"changes":[]}' \
		http://$$faddr/v1/changes | grep -qi '^Leader: http://' \
		|| { echo "replica-smoke: 503 missing Leader hint header"; exit 1; }; \
	echo "replica-smoke: ok (leader $$laddr -> follower $$faddr, verdicts identical)"

# snapshot-smoke drives the snapshot lifecycle end to end on real
# daemons: leader applies a load, captures a snapshot that compacts the
# journal, a cold follower bootstraps from the snapshot (not replay) and
# serves the byte-identical report, gets promoted under a fresh epoch,
# accepts writes — and a replica carrying the promoted epoch is fenced
# off the demoted leader's stream.
snapshot-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$lpid $$fpid $$gpid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/rcserved ./cmd/rcserved; \
	$$tmp/rcserved -net testdata/campus -policies testdata/campus/policies.txt \
		-journal $$tmp/leader.journal -journal-segment-bytes 256 -journal-retain 0 \
		-addr 127.0.0.1:0 >$$tmp/lout 2>&1 & lpid=$$!; \
	for i in $$(seq 1 100); do grep -q listening $$tmp/lout 2>/dev/null && break; sleep 0.1; done; \
	laddr=$$(sed -n 's#^rcserved: listening on http://\([^ ]*\) .*#\1#p' $$tmp/lout); \
	test -n "$$laddr" || { echo "snapshot-smoke: leader did not start"; cat $$tmp/lout; exit 1; }; \
	for s in true false true; do \
		curl -fsS -X POST -H 'Content-Type: application/json' \
			-d '{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":'$$s'}]}' \
			http://$$laddr/v1/changes >/dev/null; done; \
	curl -fsS -X POST http://$$laddr/v1/snapshot >$$tmp/snap.json; \
	python3 -c 'import json,sys; s=json.load(open(sys.argv[1])); \
		assert s["seq"] == 3, s; assert s["segmentsRemoved"] >= 1, "nothing compacted: %s" % s' \
		$$tmp/snap.json || { echo "snapshot-smoke: capture/compaction failed"; cat $$tmp/snap.json; exit 1; }; \
	ls $$tmp/leader.journal.snap.* >/dev/null || { echo "snapshot-smoke: no snapshot file"; exit 1; }; \
	$$tmp/rcserved -net testdata/campus -policies testdata/campus/policies.txt \
		-journal $$tmp/follower.journal -follow http://$$laddr \
		-addr 127.0.0.1:0 >$$tmp/fout 2>&1 & fpid=$$!; \
	for i in $$(seq 1 100); do grep -q listening $$tmp/fout 2>/dev/null && break; sleep 0.1; done; \
	faddr=$$(sed -n 's#^rcserved: listening on http://\([^ ]*\) .*#\1#p' $$tmp/fout); \
	test -n "$$faddr" || { echo "snapshot-smoke: follower did not start"; cat $$tmp/fout; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$$faddr/v1/healthz | grep -q '"replLagSeq":0' && break; sleep 0.1; done; \
	curl -fsS http://$$faddr/v1/healthz | grep -q '"snapshotSeq":3' \
		|| { echo "snapshot-smoke: follower did not bootstrap from the snapshot"; \
			curl -s http://$$faddr/v1/healthz; exit 1; }; \
	canon='import json,sys; d=json.load(open(sys.argv[1])); \
		isinstance(d.get("report"), dict) and d["report"].pop("timing", None); \
		print(json.dumps(d, sort_keys=True))'; \
	curl -fsS http://$$laddr/v1/report >$$tmp/l.report; \
	curl -fsS http://$$faddr/v1/report >$$tmp/f.report; \
	python3 -c "$$canon" $$tmp/l.report >$$tmp/l.canon; \
	python3 -c "$$canon" $$tmp/f.report >$$tmp/f.canon; \
	diff $$tmp/l.canon $$tmp/f.canon || { echo "snapshot-smoke: follower report differs"; exit 1; }; \
	curl -fsS -X POST http://$$faddr/v1/promote | grep -q '"promoted":true' \
		|| { echo "snapshot-smoke: promotion refused"; exit 1; }; \
	mkdir -p $$tmp/fence; cp $$tmp/follower.journal $$tmp/follower.journal.* $$tmp/fence/; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
		-d '{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":false}]}' \
		http://$$faddr/v1/changes); \
	test "$$code" = 200 || { echo "snapshot-smoke: promoted follower write got $$code, want 200"; exit 1; }; \
	curl -fsS http://$$faddr/v1/healthz | grep -q '"role":"leader"' \
		|| { echo "snapshot-smoke: promoted follower still reports follower role"; exit 1; }; \
	$$tmp/rcserved -net testdata/campus -policies testdata/campus/policies.txt \
		-journal $$tmp/fence/follower.journal -follow http://$$laddr \
		-addr 127.0.0.1:0 >$$tmp/gout 2>&1 & gpid=$$!; \
	for i in $$(seq 1 100); do grep -q listening $$tmp/gout 2>/dev/null && break; sleep 0.1; done; \
	gaddr=$$(sed -n 's#^rcserved: listening on http://\([^ ]*\) .*#\1#p' $$tmp/gout); \
	test -n "$$gaddr" || { echo "snapshot-smoke: fence probe did not start"; cat $$tmp/gout; exit 1; }; \
	fenced=0; for i in $$(seq 1 100); do \
		curl -fsS http://$$gaddr/v1/metrics | grep -q '^realconfig_repl_fenced_total [1-9]' \
			&& { fenced=1; break; }; sleep 0.1; done; \
	test "$$fenced" = 1 || { echo "snapshot-smoke: promoted-epoch replica was not fenced off the old leader"; \
		cat $$tmp/gout; exit 1; }; \
	echo "snapshot-smoke: ok (snapshot seq 3, follower bootstrapped + promoted, old leader fenced)"

# load-smoke is the p99 SLO gate: rcload drives a real rcserved with an
# open-loop mixed workload, prints per-op-class p50/p95/p99, checks the
# new request-latency telemetry is live on /v1/metrics, and proves the
# gate trips under -slow-apply injected slowness.
load-smoke:
	./scripts/loadgate.sh

# bench-smoke runs the paper-table benchmarks and the apkeep/bdd
# micro-benchmarks once — not for numbers, just to prove they still
# build and complete.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Table2|Table3|SpecMining' -benchtime 1x .
	$(GO) test -run '^$$' -bench '.' -benchtime 1x ./internal/apkeep ./internal/bdd

# bench reports real numbers for the hot paths and the paper's tables
# (REALCONFIG_BENCH_K=12 for the paper's scale).
bench:
	$(GO) test -run '^$$' -bench '.' -benchtime 2s ./internal/apkeep ./internal/bdd
	$(GO) test -run '^$$' -bench 'Table2|Table3|SpecMining' .
