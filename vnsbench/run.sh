#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from, then runs it with the given arguments:
#
#   bash vnsbench/run.sh --workload failover --seed 1 --seconds 16 --trace 0
#
# The Go build cache, temporary files and the toolchain's config
# directory live in the same directory, so nothing is written outside
# the checkout. Needs only the Go toolchain; no network.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/vnsbench.bin" .)
exec "$out/vnsbench.bin" "$@"
