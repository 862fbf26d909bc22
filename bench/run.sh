#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it with the arguments given. Everything the build and the run write
# — the compiler's cache, its work directories, the binary, the segstore
# directories of the workloads, the trace files — stays inside the
# checkout, under .bench_build/ and bench/out/.
#
#   bash bench/run.sh --workload ingest-fanout --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1                       every workload, both modes
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

# the toolchain in the image and nothing from the network; the go command's
# own files (module cache, settings, telemetry counters) stay in the
# checkout like everything else
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOENV=off XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# a cached rebuild takes well under a second; building every time means a
# stale binary can never be measured. Exit code 10 is the build's alone
# (see "Exit codes" in e2e/main.go).
(cd "$bench" && go build -o "$build/e2e" ./e2e) || exit 10

exec "$build/e2e" -out "$bench/out" "$@"
