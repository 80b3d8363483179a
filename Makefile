# Every check is written once, in this file: the workflows under
# .github/workflows only call these targets, and `make check` runs every
# target they call.

GO ?= go

.PHONY: fmt fmtcheck vet build test race bench bench-gates bench-refresh bench-experiments fuzz daemon-smoke daemon-crash-smoke golden chaos lint-docs linkcheck check

fmt:
	gofmt -w .

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# vet also covers perfbench, a nested module that `./...` skips. It is
# vetted rather than built: `go build ./...` there writes a binary.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-gates runs every benchmark suite once and gates each against its
# committed BENCH_*.json: ±25% ns/op, no allocs/op increase, no missing
# benchmark, and each suite's declared metrics as contracts. It leaves the
# fresh reports in bench-fresh/. bench-refresh SUITE=<name> rewrites one
# suite's baseline from one pass, so refreshing one suite on a slow host
# never loosens another. The suites live in one table in cmd/benchjson.
bench-gates:
	$(GO) run ./cmd/benchjson gate

bench-refresh:
	$(GO) run ./cmd/benchjson refresh $(SUITE)

# fuzz runs every fuzz target in the tree for FUZZTIME each. Targets are
# discovered, so a new Fuzz function needs no edit here, and each runs
# under an anchored pattern because one name may prefix another
# (FuzzParseFrequency, FuzzParseFrequencySuffixStability).
FUZZTIME ?= 20s

fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list" >&2; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ { names = names " " $$1 } \
		/^ok/ { n = split(names, a, " "); for (i = 1; i <= n; i++) print $$2 "," a[i]; names = "" }'); \
	[ -n "$$targets" ] || { echo "fuzz: no fuzz targets found" >&2; exit 1; }; \
	for t in $$targets; do \
		pkg=$${t%,*}; name=$${t#*,}; \
		echo "fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run='^$$' -fuzz="^$$name\$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
	done

# daemon-smoke boots a real greengpud, drives it with curl, and enforces
# the byte-identity contract: the daemon's ?format=csv responses must be
# byte-identical to the same specs run through the one-shot
# cmd/experiments CLI. It also scrapes /metrics once, requires the sync
# JSON sweep (the daemon's own writer) to carry the same points array as
# the async job's encoding/json result, and checks that SIGTERM drains
# and exits 0.
#
# Like golden and chaos, it works in its own mktemp -d directory (under
# TMPDIR when set), removed on every exit path. Its daemon binds an
# ephemeral port, read back from the daemon's "listening on" stderr line,
# and the EXIT trap kills a daemon the recipe still runs, so concurrent
# runs on one host never collide and no greengpud outlives a failed run.
DAEMON_SMOKE_SWEEP = workloads=kmeans,hotspot core=all mem=all iters=4
DAEMON_SMOKE_FLEET = nodes=50 seed=7 workloads=kmeans,hotspot iters=4

daemon-smoke:
	d=$$(mktemp -d) || exit 1; pid=""; \
	trap '[ -z "$$pid" ] || { kill -9 $$pid; wait $$pid; } 2>/dev/null; rm -rf "$$d"' EXIT; trap 'exit 1' HUP INT TERM; \
	$(GO) build -o $$d/greengpud ./cmd/greengpud || exit 1; \
	$(GO) build -o $$d/experiments ./cmd/experiments || exit 1; \
	$$d/experiments -sweep '$(DAEMON_SMOKE_SWEEP)' -out $$d > /dev/null 2>&1 || exit 1; \
	$$d/experiments -fleet '$(DAEMON_SMOKE_FLEET)' -out $$d > /dev/null 2>&1 || exit 1; \
	$$d/greengpud -addr 127.0.0.1:0 2> $$d/daemon.log & pid=$$!; \
	base=""; for i in $$(seq 1 100); do \
		url=$$(sed -n 's#^greengpud: listening on ##p' $$d/daemon.log); \
		[ -n "$$url" ] && curl -fsS $$url/healthz > /dev/null 2>&1 && { base=$$url; break; }; \
		sleep 0.1; \
	done; \
	[ -n "$$base" ] || { echo "daemon-smoke: daemon never became healthy" >&2; cat $$d/daemon.log >&2; exit 1; }; \
	fail=""; \
	curl -fsS -X POST "$$base/v1/sweep?format=csv" \
		-d '{"spec":"$(DAEMON_SMOKE_SWEEP)"}' > $$d/daemon_sweep.csv || fail="sweep POST"; \
	diff $$d/sweep_points.csv $$d/daemon_sweep.csv || fail="sweep CSV drift"; \
	curl -fsS -X POST "$$base/v1/fleet?format=csv&table=groups" \
		-d '{"spec":"$(DAEMON_SMOKE_FLEET)"}' > $$d/daemon_fleet_groups.csv || fail="fleet POST"; \
	diff $$d/fleet_1.csv $$d/daemon_fleet_groups.csv || fail="fleet groups CSV drift"; \
	curl -fsS -X POST "$$base/v1/fleet?format=csv&table=summary" \
		-d '{"spec":"$(DAEMON_SMOKE_FLEET)"}' > $$d/daemon_fleet_summary.csv || fail="fleet summary POST"; \
	diff $$d/fleet_2.csv $$d/daemon_fleet_summary.csv || fail="fleet summary CSV drift"; \
	curl -fsS $$base/metrics | grep -q '^greengpu_daemon_sweep_requests_total 1$$' \
		|| fail="metrics scrape"; \
	curl -fsS -X POST $$base/v1/sweep -d '{"spec":"$(DAEMON_SMOKE_SWEEP)"}' \
		| grep -o '"points":\[.*\]' > $$d/sync_points.json || fail="sync JSON sweep"; \
	id=$$(curl -fsS -X POST $$base/v1/sweep \
		-d '{"spec":"$(DAEMON_SMOKE_SWEEP)","async":true}' | sed -n 's/.*"id":"\([0-9]*\)".*/\1/p'); \
	[ -n "$$id" ] || fail="no job id in the async 202"; \
	for i in $$(seq 1 100); do \
		curl -fsS $$base/v1/results/$$id > $$d/job.json || break; \
		grep -q '"status":"running"' $$d/job.json || break; \
		sleep 0.1; \
	done; \
	grep -q '"status":"done"' $$d/job.json || fail="async sweep job not done"; \
	grep -o '"points":\[.*\]' $$d/job.json > $$d/async_points.json \
		|| fail="async job without points"; \
	diff $$d/async_points.json $$d/sync_points.json \
		> /dev/null || fail="sync JSON points drift from the async job's"; \
	kill -TERM $$pid; \
	wait $$pid || fail="nonzero exit on SIGTERM"; pid=""; \
	grep -q 'jobs at exit' $$d/daemon.log || fail="missing drain log"; \
	[ -z "$$fail" ] || { echo "daemon-smoke: $$fail" >&2; cat $$d/daemon.log >&2; exit 1; }

# daemon-crash-smoke SIGKILLs a journaled daemon mid-sweep and enforces
# the crash-recovery contract: the restarted daemon (same -state-dir and
# -cache-dir) must announce the recovery, re-execute the job under its
# original id, and serve ?format=csv bytes identical to the one-shot
# cmd/experiments run of the same spec — deterministic replay, not a
# checkpoint. A final SIGTERM must still drain and exit 0. Directory,
# ports and cleanup work as in daemon-smoke; each daemon's address is
# read from its own log.
DAEMON_CRASH_SPEC = draws=400 mode=holistic workloads=kmeans,hotspot

daemon-crash-smoke:
	d=$$(mktemp -d) || exit 1; pid=""; \
	trap '[ -z "$$pid" ] || { kill -9 $$pid; wait $$pid; } 2>/dev/null; rm -rf "$$d"' EXIT; trap 'exit 1' HUP INT TERM; \
	up() { \
		$$d/greengpud -addr 127.0.0.1:0 -state-dir $$d/state -cache-dir $$d/cache 2> $$d/$$1 & pid=$$!; \
		base=""; for i in $$(seq 1 100); do \
			url=$$(sed -n 's#^greengpud: listening on ##p' $$d/$$1); \
			[ -n "$$url" ] && curl -fsS $$url/healthz > /dev/null 2>&1 && { base=$$url; return 0; }; \
			sleep 0.1; \
		done; \
		echo "daemon-crash-smoke: daemon never became healthy" >&2; cat $$d/$$1 >&2; return 1; \
	}; \
	mkdir -p $$d/state $$d/cache || exit 1; \
	$(GO) build -o $$d/greengpud ./cmd/greengpud || exit 1; \
	$(GO) build -o $$d/experiments ./cmd/experiments || exit 1; \
	$$d/experiments -sweep '$(DAEMON_CRASH_SPEC)' -out $$d > /dev/null 2>&1 || exit 1; \
	up daemon1.log || exit 1; \
	id=$$(curl -fsS -X POST $$base/v1/sweep \
		-d '{"spec":"$(DAEMON_CRASH_SPEC)","async":true}' | sed -n 's/.*"id":"\([0-9]*\)".*/\1/p'); \
	[ -n "$$id" ] || { echo "daemon-crash-smoke: no job id in the 202" >&2; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null; pid=""; \
	up daemon2.log || exit 1; \
	fail=""; \
	grep -q 'recovered 1 pending job(s)' $$d/daemon2.log || fail="missing recovery log"; \
	final=""; for i in $$(seq 1 600); do \
		st=$$(curl -fsS $$base/v1/results/$$id); \
		echo "$$st" | grep -q '"status":"running"' || { final="$$st"; break; }; \
		sleep 0.5; \
	done; \
	echo "$$final" | grep -q '"status":"done"' || fail="recovered job not done: $$final"; \
	echo "$$final" | grep -q '"recovered":true' || fail="recovered job not flagged"; \
	curl -fsS "$$base/v1/results/$$id?format=csv" \
		> $$d/recovered.csv || fail="recovered CSV fetch"; \
	diff $$d/sweep_points.csv $$d/recovered.csv \
		|| fail="recovered CSV drift from uninterrupted run"; \
	curl -fsS $$base/v1/jobs | grep -q '"recovered":true' \
		|| fail="/v1/jobs missing recovered marker"; \
	kill -TERM $$pid; \
	wait $$pid || fail="nonzero exit on SIGTERM"; pid=""; \
	[ -z "$$fail" ] || { echo "daemon-crash-smoke: $$fail" >&2; \
		cat $$d/daemon1.log $$d/daemon2.log >&2; exit 1; }

# bench-experiments times the full experiment suite without a cache, with a
# cold cache, and against the warm cache, recording the wall-clock numbers
# and hit/miss counters in BENCH_experiments.json (see docs/PERF.md).
bench-experiments:
	$(GO) run ./cmd/experiments -bench-cache BENCH_experiments.json -jobs 8

# golden regenerates every experiment under every run-cache mode —
# disabled, in-memory, and disk (cold then warm against the same
# directory), at -jobs 1 and -jobs 8, plus once with telemetry on — and
# requires byte-identical output from each: every CSV equal to the
# committed results/ directory, and stdout equal to the first mode's. It
# is the zero-output-drift gate for perf work and the end-to-end proof
# that neither the run cache nor the worker count is visible in output.
# It works in its own mktemp -d directory (under TMPDIR when set), removed
# on success and on failure, so concurrent runs never collide.
golden:
	d=$$(mktemp -d) || exit 1; trap 'rm -rf "$$d"' EXIT; trap 'exit 1' HUP INT TERM; \
	$(GO) build -o $$d/experiments ./cmd/experiments || exit 1; \
	first=""; for args in \
		"-no-cache -jobs 1" \
		"-no-cache -jobs 8" \
		"-jobs 1" \
		"-jobs 8" \
		"-cache-dir $$d/cache -jobs 8" \
		"-cache-dir $$d/cache -jobs 8" \
		"-jobs 8 -metrics $$d/m.prom -flight-recorder 64 -flight-recorder-out $$d/f.json"; do \
		rm -rf $$d/out; \
		$$d/experiments -run all -out $$d/out $$args > $$d/out.txt 2>/dev/null || exit 1; \
		diff -r results $$d/out || { echo "golden mismatch with: $$args" >&2; exit 1; }; \
		if [ -z "$$first" ]; then first="$$args"; mv $$d/out.txt $$d/first.txt; \
		else diff -u $$d/first.txt $$d/out.txt \
			|| { echo "golden stdout with: $$args differs from: $$first" >&2; exit 1; }; fi; \
	done

# chaos runs the whole experiment suite in chaos mode — every run injected
# with the moderate all-classes fault plan (see docs/ROBUSTNESS.md) — and
# diffs -jobs 1 against -jobs 8. Fault sequences are pure functions of each
# point's plan, so even a suite full of dropped sensors, rejected clock
# writes and stragglers must stay byte-identical at any worker count. The
# committed fault-free CSVs (including results/fault_resilience.csv) are
# covered by `make golden`; this gate covers determinism under injection.
# Its files live in a mktemp -d directory, as in golden.
chaos:
	d=$$(mktemp -d) || exit 1; trap 'rm -rf "$$d"' EXIT; trap 'exit 1' HUP INT TERM; \
	$(GO) build -o $$d/experiments ./cmd/experiments || exit 1; \
	$$d/experiments -run all -faults default -jobs 1 -out $$d/seq > $$d/seq.txt || exit 1; \
	$$d/experiments -run all -faults default -jobs 8 -out $$d/par > $$d/par.txt || exit 1; \
	diff -u $$d/seq.txt $$d/par.txt && diff -r $$d/seq $$d/par

# lint-docs enforces godoc hygiene on every exported identifier (see
# cmd/lintdocs); linkcheck verifies the relative links in the markdown docs
# (see cmd/linkcheck).
lint-docs:
	$(GO) run ./cmd/lintdocs .

linkcheck:
	$(GO) run ./cmd/linkcheck README.md DESIGN.md ROADMAP.md CHANGES.md docs

check: fmtcheck vet build race bench golden chaos daemon-smoke daemon-crash-smoke fuzz bench-gates lint-docs linkcheck
