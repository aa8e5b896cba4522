#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from the checkout's
# own source and runs it with the arguments given. Everything it writes — Go
# build cache, binary, temp dirs, reports — stays inside the checkout.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
build="$bench/../.bench_build"
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its telemetry counters under the user config dir
export GOTOOLCHAIN=local GOPROXY=off
cd "$bench"
go build -o "$build/aigre-bench" . >&2
exec "$build/aigre-bench" "$@"
