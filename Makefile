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

vet:
	$(GO) vet ./...

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
# cmd/experiments CLI. It also scrapes /metrics once and checks that
# SIGTERM drains and exits 0.
DAEMON_SMOKE_SWEEP = workloads=kmeans,hotspot core=all mem=all iters=4
DAEMON_SMOKE_FLEET = nodes=50 seed=7 workloads=kmeans,hotspot iters=4
DAEMON_SMOKE_ADDR = 127.0.0.1:7999

daemon-smoke:
	$(GO) build -o /tmp/greengpud-smoke ./cmd/greengpud
	$(GO) build -o /tmp/greengpu-smoke-exp ./cmd/experiments
	rm -rf /tmp/greengpu-smoke && mkdir -p /tmp/greengpu-smoke
	/tmp/greengpu-smoke-exp -sweep '$(DAEMON_SMOKE_SWEEP)' -out /tmp/greengpu-smoke > /dev/null 2>&1
	/tmp/greengpu-smoke-exp -fleet '$(DAEMON_SMOKE_FLEET)' -out /tmp/greengpu-smoke > /dev/null 2>&1
	/tmp/greengpud-smoke -addr $(DAEMON_SMOKE_ADDR) 2> /tmp/greengpu-smoke/daemon.log & \
	pid=$$!; \
	up=""; for i in $$(seq 1 100); do \
		curl -fsS http://$(DAEMON_SMOKE_ADDR)/healthz > /dev/null 2>&1 && { up=1; break; }; \
		sleep 0.1; \
	done; \
	[ -n "$$up" ] || { echo "daemon-smoke: daemon never became healthy" >&2; kill $$pid 2>/dev/null; exit 1; }; \
	fail=""; \
	curl -fsS -X POST 'http://$(DAEMON_SMOKE_ADDR)/v1/sweep?format=csv' \
		-d '{"spec":"$(DAEMON_SMOKE_SWEEP)"}' > /tmp/greengpu-smoke/daemon_sweep.csv || fail="sweep POST"; \
	diff /tmp/greengpu-smoke/sweep_points.csv /tmp/greengpu-smoke/daemon_sweep.csv || fail="sweep CSV drift"; \
	curl -fsS -X POST 'http://$(DAEMON_SMOKE_ADDR)/v1/fleet?format=csv&table=groups' \
		-d '{"spec":"$(DAEMON_SMOKE_FLEET)"}' > /tmp/greengpu-smoke/daemon_fleet_groups.csv || fail="fleet POST"; \
	diff /tmp/greengpu-smoke/fleet_1.csv /tmp/greengpu-smoke/daemon_fleet_groups.csv || fail="fleet groups CSV drift"; \
	curl -fsS -X POST 'http://$(DAEMON_SMOKE_ADDR)/v1/fleet?format=csv&table=summary' \
		-d '{"spec":"$(DAEMON_SMOKE_FLEET)"}' > /tmp/greengpu-smoke/daemon_fleet_summary.csv || fail="fleet summary POST"; \
	diff /tmp/greengpu-smoke/fleet_2.csv /tmp/greengpu-smoke/daemon_fleet_summary.csv || fail="fleet summary CSV drift"; \
	curl -fsS http://$(DAEMON_SMOKE_ADDR)/metrics | grep -q '^greengpu_daemon_sweep_requests_total 1$$' \
		|| fail="metrics scrape"; \
	kill -TERM $$pid; \
	wait $$pid || fail="nonzero exit on SIGTERM"; \
	grep -q 'jobs at exit' /tmp/greengpu-smoke/daemon.log || fail="missing drain log"; \
	[ -z "$$fail" ] || { echo "daemon-smoke: $$fail" >&2; cat /tmp/greengpu-smoke/daemon.log >&2; exit 1; }
	rm -rf /tmp/greengpu-smoke /tmp/greengpud-smoke /tmp/greengpu-smoke-exp

# daemon-crash-smoke SIGKILLs a journaled daemon mid-sweep and enforces
# the crash-recovery contract: the restarted daemon (same -state-dir and
# -cache-dir) must announce the recovery, re-execute the job under its
# original id, and serve ?format=csv bytes identical to the one-shot
# cmd/experiments run of the same spec — deterministic replay, not a
# checkpoint. A final SIGTERM must still drain and exit 0.
DAEMON_CRASH_SPEC = draws=400 mode=holistic workloads=kmeans,hotspot
DAEMON_CRASH_ADDR = 127.0.0.1:7998

daemon-crash-smoke:
	$(GO) build -o /tmp/greengpud-crash ./cmd/greengpud
	$(GO) build -o /tmp/greengpu-crash-exp ./cmd/experiments
	rm -rf /tmp/greengpu-crash && mkdir -p /tmp/greengpu-crash/state /tmp/greengpu-crash/cache
	/tmp/greengpu-crash-exp -sweep '$(DAEMON_CRASH_SPEC)' -out /tmp/greengpu-crash > /dev/null 2>&1
	/tmp/greengpud-crash -addr $(DAEMON_CRASH_ADDR) -state-dir /tmp/greengpu-crash/state \
		-cache-dir /tmp/greengpu-crash/cache 2> /tmp/greengpu-crash/daemon1.log & \
	pid=$$!; \
	up=""; for i in $$(seq 1 100); do \
		curl -fsS http://$(DAEMON_CRASH_ADDR)/healthz > /dev/null 2>&1 && { up=1; break; }; \
		sleep 0.1; \
	done; \
	[ -n "$$up" ] || { echo "daemon-crash-smoke: daemon never became healthy" >&2; kill -9 $$pid 2>/dev/null; exit 1; }; \
	id=$$(curl -fsS -X POST http://$(DAEMON_CRASH_ADDR)/v1/sweep \
		-d '{"spec":"$(DAEMON_CRASH_SPEC)","async":true}' | sed -n 's/.*"id":"\([0-9]*\)".*/\1/p'); \
	[ -n "$$id" ] || { echo "daemon-crash-smoke: no job id in the 202" >&2; kill -9 $$pid 2>/dev/null; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	/tmp/greengpud-crash -addr $(DAEMON_CRASH_ADDR) -state-dir /tmp/greengpu-crash/state \
		-cache-dir /tmp/greengpu-crash/cache 2> /tmp/greengpu-crash/daemon2.log & \
	pid=$$!; \
	up=""; for i in $$(seq 1 100); do \
		curl -fsS http://$(DAEMON_CRASH_ADDR)/healthz > /dev/null 2>&1 && { up=1; break; }; \
		sleep 0.1; \
	done; \
	[ -n "$$up" ] || { echo "daemon-crash-smoke: daemon never restarted" >&2; kill -9 $$pid 2>/dev/null; exit 1; }; \
	fail=""; \
	grep -q 'recovered 1 pending job(s)' /tmp/greengpu-crash/daemon2.log || fail="missing recovery log"; \
	final=""; for i in $$(seq 1 600); do \
		st=$$(curl -fsS http://$(DAEMON_CRASH_ADDR)/v1/results/$$id); \
		echo "$$st" | grep -q '"status":"running"' || { final="$$st"; break; }; \
		sleep 0.5; \
	done; \
	echo "$$final" | grep -q '"status":"done"' || fail="recovered job not done: $$final"; \
	echo "$$final" | grep -q '"recovered":true' || fail="recovered job not flagged"; \
	curl -fsS "http://$(DAEMON_CRASH_ADDR)/v1/results/$$id?format=csv" \
		> /tmp/greengpu-crash/recovered.csv || fail="recovered CSV fetch"; \
	diff /tmp/greengpu-crash/sweep_points.csv /tmp/greengpu-crash/recovered.csv \
		|| fail="recovered CSV drift from uninterrupted run"; \
	curl -fsS http://$(DAEMON_CRASH_ADDR)/v1/jobs | grep -q '"recovered":true' \
		|| fail="/v1/jobs missing recovered marker"; \
	kill -TERM $$pid; \
	wait $$pid || fail="nonzero exit on SIGTERM"; \
	[ -z "$$fail" ] || { echo "daemon-crash-smoke: $$fail" >&2; \
		cat /tmp/greengpu-crash/daemon1.log /tmp/greengpu-crash/daemon2.log >&2; exit 1; }
	rm -rf /tmp/greengpu-crash /tmp/greengpud-crash /tmp/greengpu-crash-exp

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
golden:
	$(GO) build -o /tmp/greengpu-golden-bin ./cmd/experiments
	rm -rf /tmp/greengpu-golden /tmp/greengpu-golden-cache
	first=""; for args in \
		"-no-cache -jobs 1" \
		"-no-cache -jobs 8" \
		"-jobs 1" \
		"-jobs 8" \
		"-cache-dir /tmp/greengpu-golden-cache -jobs 8" \
		"-cache-dir /tmp/greengpu-golden-cache -jobs 8" \
		"-jobs 8 -metrics /tmp/greengpu-golden-m.prom -flight-recorder 64 -flight-recorder-out /tmp/greengpu-golden-f.json"; do \
		rm -rf /tmp/greengpu-golden; \
		/tmp/greengpu-golden-bin -run all -out /tmp/greengpu-golden $$args > /tmp/greengpu-golden-out.txt 2>/dev/null || exit 1; \
		diff -r results /tmp/greengpu-golden || { echo "golden mismatch with: $$args" >&2; exit 1; }; \
		if [ -z "$$first" ]; then first="$$args"; mv /tmp/greengpu-golden-out.txt /tmp/greengpu-golden-first.txt; \
		else diff -u /tmp/greengpu-golden-first.txt /tmp/greengpu-golden-out.txt \
			|| { echo "golden stdout with: $$args differs from: $$first" >&2; exit 1; }; fi; \
	done
	rm -rf /tmp/greengpu-golden /tmp/greengpu-golden-cache /tmp/greengpu-golden-bin \
		/tmp/greengpu-golden-m.prom /tmp/greengpu-golden-f.json \
		/tmp/greengpu-golden-out.txt /tmp/greengpu-golden-first.txt

# chaos runs the whole experiment suite in chaos mode — every run injected
# with the moderate all-classes fault plan (see docs/ROBUSTNESS.md) — and
# diffs -jobs 1 against -jobs 8. Fault sequences are pure functions of each
# point's plan, so even a suite full of dropped sensors, rejected clock
# writes and stragglers must stay byte-identical at any worker count. The
# committed fault-free CSVs (including results/fault_resilience.csv) are
# covered by `make golden`; this gate covers determinism under injection.
chaos:
	$(GO) build -o /tmp/greengpu-chaos ./cmd/experiments
	/tmp/greengpu-chaos -run all -faults default -jobs 1 -out /tmp/greengpu-chaos-seq > /tmp/greengpu-chaos-seq.txt
	/tmp/greengpu-chaos -run all -faults default -jobs 8 -out /tmp/greengpu-chaos-par > /tmp/greengpu-chaos-par.txt
	diff -u /tmp/greengpu-chaos-seq.txt /tmp/greengpu-chaos-par.txt
	diff -r /tmp/greengpu-chaos-seq /tmp/greengpu-chaos-par
	rm -rf /tmp/greengpu-chaos /tmp/greengpu-chaos-seq /tmp/greengpu-chaos-par \
		/tmp/greengpu-chaos-seq.txt /tmp/greengpu-chaos-par.txt

# lint-docs enforces godoc hygiene on every exported identifier (see
# cmd/lintdocs); linkcheck verifies the relative links in the markdown docs
# (see cmd/linkcheck).
lint-docs:
	$(GO) run ./cmd/lintdocs internal cmd examples

linkcheck:
	$(GO) run ./cmd/linkcheck README.md DESIGN.md ROADMAP.md CHANGES.md docs

check: fmtcheck vet build race bench golden chaos daemon-smoke daemon-crash-smoke fuzz bench-gates lint-docs linkcheck
