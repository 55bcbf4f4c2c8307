#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, so the Go build cache, the binary, the
# scratch databases and the trace files all stay inside the checkout.
# BENCHMARK.json names this script as the benchmark's command.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters under the
# user configuration directory; they too belong inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd bench && go build -o "$build/sgb-bench" .)
exec "$build/sgb-bench" "$@"
