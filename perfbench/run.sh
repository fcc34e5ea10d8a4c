#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it, passing every argument
# on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fd4-archive --seed 1 --seconds 30 --trace 0
#
# The build, its Go cache and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f perfbench/main.go ]; then
	echo "perfbench: run from the root of a perfvar checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" "$@"
