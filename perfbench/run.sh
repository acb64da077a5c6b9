#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-range --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run create stays under .bench_build in
# the checkout: the Go build cache, temporary files, the binary and the
# span dumps of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of a checkout (no go.mod beside perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/run" "$@"
