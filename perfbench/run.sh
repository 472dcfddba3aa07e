#!/usr/bin/env bash
# Builds cpackd and the perfbench program from this checkout and runs one
# benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cpackd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; cmd/cpackd is not here" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/cpackd" ./cmd/cpackd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --cpackd "$out/cpackd" --out "$out" "$@"
