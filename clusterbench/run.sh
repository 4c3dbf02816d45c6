#!/usr/bin/env bash
# Builds the end-to-end cluster benchmark from the sources of the
# checkout it is run from and runs it with the given arguments:
#
#   bash clusterbench/run.sh --workload stencil --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, temp files, the binary, the per-trial datadirs) lives under
# .bench_build/ in that root, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export PPROF_TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$here" && go build -o "$build/clusterbench" .)
exec "$build/clusterbench" -workdir "$build" "$@"
