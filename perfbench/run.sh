#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload kv-write --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and per-run state live under
# .bench_build/perfbench at the checkout root; nothing is written elsewhere.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out" "$@"
