#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given flags. Run it from the repository root:
#
#	bash perfbench/run.sh --workload stream-720p --seed 3 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, span
# traces) stays under $CARGO_TARGET_DIR, default .bench_build, in the
# current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out" "$@"
