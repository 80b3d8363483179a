# Local entry points mirroring .github/workflows/ci.yml — `make check`
# runs exactly what CI runs.

GO ?= go

.PHONY: fmt fmtcheck vet build test race bench bench-stable bench-json bench-gate bench-sweep-json bench-sweep-gate bench-fleet-json bench-fleet-gate bench-daemon-json bench-daemon-gate bench-gates bench-experiments daemon-smoke daemon-crash-smoke golden determinism chaos predict-gate lint-docs linkcheck check

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

# bench-stable runs the hot-path micro-benchmarks with a fixed iteration
# count and five repetitions, the shape benchstat wants. Compare two trees
# with:
#
#	make bench-stable > old.txt          # on the baseline commit
#	make bench-stable > new.txt          # on the candidate commit
#	benchstat old.txt new.txt            # (golang.org/x/perf/cmd/benchstat)
#
# -benchtime=100x pins work per iteration so run-to-run variance comes only
# from the machine, and five counts give benchstat a distribution to test.
bench-stable:
	$(GO) test -run='^$$' -bench=. -benchmem -count=5 -benchtime=100x \
		./internal/sim ./internal/dvfs

# bench-json snapshots the hot-path benchmarks as machine-readable JSON.
# CI uploads the file as an artifact; the committed copy is the trajectory
# baseline reviewers diff against (see docs/PERF.md). The five counts are
# collapsed to min ns/op per benchmark by benchjson — the noise-robust
# estimator on shared machines, where interference only ever adds time.
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem -count=5 -benchtime=50000x \
		./internal/sim ./internal/dvfs | $(GO) run ./cmd/benchjson > BENCH_sim.json

# bench-gate is the regression gate CI enforces: a fresh benchmark run must
# stay within ±25% ns/op of the committed BENCH_sim.json and must never
# increase allocs/op (allocation counts are deterministic — any increase is
# a real escape, not noise). Refresh the baseline with `make bench-json`
# when an intentional change shifts the numbers.
bench-gate:
	$(GO) test -run='^$$' -bench=. -benchmem -count=5 -benchtime=50000x \
		./internal/sim ./internal/dvfs | $(GO) run ./cmd/benchjson -compare BENCH_sim.json -tolerance 0.25

# bench-sweep-json snapshots the massive-sweep engine benchmarks — the
# batched ladder² evaluation and its per-point naive baseline — as
# BENCH_sweep.json. The committed copy is the throughput contract; it
# also records BenchmarkSweepBatched's lead over BenchmarkSweepNaive (see
# docs/PERF.md "Sweeps").
bench-sweep-json:
	$(GO) test -run='^$$' -bench=BenchmarkSweep -benchmem -count=5 -benchtime=2000x \
		./internal/sweep | $(GO) run ./cmd/benchjson > BENCH_sweep.json

# bench-sweep-gate is the sweep regression gate CI enforces: a fresh run
# must stay within ±25% ns/op of the committed BENCH_sweep.json and must
# never increase allocs/op. The sweep engine's custom metrics are declared
# contracts, not notes: points/s and the predictor's evalreduction must
# not regress beyond the tolerance, and fullevals (the predicted search's
# full-evaluation budget, deterministic) must not grow. Refresh with
# `make bench-sweep-json` on intentional changes.
bench-sweep-gate:
	$(GO) test -run='^$$' -bench=BenchmarkSweep -benchmem -count=5 -benchtime=2000x \
		./internal/sweep | $(GO) run ./cmd/benchjson -compare BENCH_sweep.json -tolerance 0.25 \
		-gate-metrics 'points/s,evalreduction,fullevals:lower'

# bench-fleet-json snapshots the fleet engine benchmarks — the
# dedup-compressed 10k-node evaluation, its naive per-node baseline, and
# the zero-allocation aggregation loop — as BENCH_fleet.json. The
# committed copy is the throughput contract: BenchmarkFleetDedup's nodes/s
# must be at least 50x BenchmarkFleetNaive's, and its dedupratio is
# deterministic (see docs/PERF.md "Fleet"). The naive baseline runs
# without -benchmem: at ~629k allocs/op its count flickers by ±1 from
# runtime background allocation, which would flake the hard "no allocs/op
# increase" gate; its ns/op and nodes/s stay gated.
FLEET_BENCH = { $(GO) test -run='^$$' -bench='BenchmarkFleet(Dedup|Aggregate)' -benchmem \
		-count=5 -benchtime=200x ./internal/fleet; \
	$(GO) test -run='^$$' -bench=BenchmarkFleetNaive -count=5 -benchtime=20x ./internal/fleet; }

bench-fleet-json:
	$(FLEET_BENCH) | $(GO) run ./cmd/benchjson > BENCH_fleet.json

# bench-fleet-gate is the fleet regression gate CI enforces: a fresh run
# must stay within ±25% ns/op of the committed BENCH_fleet.json, must
# never increase allocs/op, and must hold the declared nodes/s and
# dedupratio contracts. Refresh with `make bench-fleet-json` on
# intentional changes.
bench-fleet-gate:
	$(FLEET_BENCH) | $(GO) run ./cmd/benchjson -compare BENCH_fleet.json -tolerance 0.25 \
		-gate-metrics 'nodes/s,dedupratio'

# bench-daemon-json snapshots the greengpud HTTP load benchmarks — real
# requests over loopback against a warm run cache (see docs/SERVICE.md
# "Capacity planning"). No -benchmem: HTTP handler allocation counts are
# scheduler-dependent and an alloc gate on them would be flaky.
DAEMON_BENCH = $(GO) test -run='^$$' -bench=BenchmarkDaemon -count=5 -benchtime=2000x \
		./internal/daemon

bench-daemon-json:
	$(DAEMON_BENCH) | $(GO) run ./cmd/benchjson > BENCH_daemon.json

# bench-daemon-gate is the daemon load-test gate CI enforces: a fresh run
# must stay within ±25% ns/op of the committed BENCH_daemon.json and must
# hold the declared req/s and points/s throughput contracts — the
# "sustained point-requests per second on a warm cache" headline. Refresh
# with `make bench-daemon-json` on intentional changes.
bench-daemon-gate:
	$(DAEMON_BENCH) | $(GO) run ./cmd/benchjson -compare BENCH_daemon.json -tolerance 0.25 \
		-gate-metrics 'req/s,points/s'

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

# bench-gates runs the sweep and fleet benchmark suites once and checks
# both committed baselines in a single combined benchjson gate — the
# multi-file -compare form. One benchmark pass, one verdict, instead of
# one gate invocation per file.
bench-gates:
	{ $(GO) test -run='^$$' -bench=BenchmarkSweep -benchmem -count=5 -benchtime=2000x ./internal/sweep; \
	  $(FLEET_BENCH); } | \
		$(GO) run ./cmd/benchjson -compare BENCH_sweep.json,BENCH_fleet.json -tolerance 0.25 \
		-gate-metrics 'points/s,evalreduction,nodes/s,dedupratio,fullevals:lower'

# bench-experiments times the full experiment suite without a cache, with a
# cold cache, and against the warm cache, recording the wall-clock numbers
# and hit/miss counters in BENCH_experiments.json (see docs/PERF.md).
bench-experiments:
	$(GO) run ./cmd/experiments -bench-cache BENCH_experiments.json -jobs 8

# golden regenerates every experiment CSV and diffs against the committed
# results/ directory — the zero-output-drift gate for perf work. The run
# cache must be invisible in the output, so the gate regenerates under
# every cache mode: disabled, in-memory, and disk (cold then warm against
# the same directory), at -jobs 1 and -jobs 8.
golden:
	$(GO) build -o /tmp/greengpu-golden-bin ./cmd/experiments
	rm -rf /tmp/greengpu-golden /tmp/greengpu-golden-cache
	for args in \
		"-no-cache -jobs 1" \
		"-no-cache -jobs 8" \
		"-jobs 1" \
		"-jobs 8" \
		"-cache-dir /tmp/greengpu-golden-cache -jobs 8" \
		"-cache-dir /tmp/greengpu-golden-cache -jobs 8" \
		"-jobs 8 -metrics /tmp/greengpu-golden-m.prom -flight-recorder 64 -flight-recorder-out /tmp/greengpu-golden-f.json"; do \
		rm -rf /tmp/greengpu-golden; \
		/tmp/greengpu-golden-bin -run all -out /tmp/greengpu-golden $$args > /dev/null 2>/dev/null || exit 1; \
		diff -r results /tmp/greengpu-golden || { echo "golden mismatch with: $$args" >&2; exit 1; }; \
	done
	rm -rf /tmp/greengpu-golden /tmp/greengpu-golden-cache /tmp/greengpu-golden-bin \
		/tmp/greengpu-golden-m.prom /tmp/greengpu-golden-f.json

# The parallel engine's guarantee, end to end: the experiments binary must
# produce byte-identical output for any -jobs value.
determinism:
	$(GO) build -o /tmp/greengpu-experiments ./cmd/experiments
	/tmp/greengpu-experiments -run table2,sweep -jobs 1 -out /tmp/greengpu-seq > /tmp/greengpu-seq.txt
	/tmp/greengpu-experiments -run table2,sweep -jobs 8 -out /tmp/greengpu-par > /tmp/greengpu-par.txt
	diff -u /tmp/greengpu-seq.txt /tmp/greengpu-par.txt
	diff -r /tmp/greengpu-seq /tmp/greengpu-par
	rm -rf /tmp/greengpu-experiments /tmp/greengpu-seq /tmp/greengpu-par /tmp/greengpu-seq.txt /tmp/greengpu-par.txt

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

# predict-gate regenerates the prediction validation study and checks it
# against CI's accuracy thresholds (see cmd/predictgate): every sweet spot
# within one ladder step of brute force or within 5% measured energy
# regret, and median relative energy prediction error within 5%. The
# regenerated CSV must also match the committed results/ copy, so the gate
# fails when the predictor drifts even inside the thresholds.
predict-gate:
	rm -rf /tmp/greengpu-predict
	$(GO) run ./cmd/experiments -run predict -jobs 8 -out /tmp/greengpu-predict > /dev/null
	diff /tmp/greengpu-predict/predict_validation.csv results/predict_validation.csv
	$(GO) run ./cmd/predictgate /tmp/greengpu-predict/predict_validation.csv
	rm -rf /tmp/greengpu-predict

# lint-docs enforces godoc hygiene on every exported identifier (see
# cmd/lintdocs); linkcheck verifies the relative links in the markdown docs
# (see cmd/linkcheck).
lint-docs:
	$(GO) run ./cmd/lintdocs internal cmd examples

linkcheck:
	$(GO) run ./cmd/linkcheck README.md DESIGN.md ROADMAP.md CHANGES.md docs

check: fmtcheck vet build race bench determinism chaos daemon-smoke daemon-crash-smoke bench-gate bench-sweep-gate bench-fleet-gate bench-daemon-gate predict-gate lint-docs linkcheck
