#!/usr/bin/env bash
# Builds greengpud and the perfbench program from this checkout, then runs
# one benchmark workload and prints its JSON result as the last line of
# standard output. Run it from the repository root:
#
#   bash perfbench/run.sh --workload simulate-warm --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache and trace files live under .bench_build/,
# so a run writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$out/tmp"

cd "$root"
go build -o "$out/greengpud" ./cmd/greengpud
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/greengpud" -trace-dir "$out/traces" "$@"
