#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the Go toolchain writes (build cache,
# temporary files, telemetry counters, the binary) stays under
# benchmark/out/, so a run writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out"
mkdir -p "$build/.tmp"
export GOCACHE="$build/.gocache"
export GOTMPDIR="$build/.tmp"
export XDG_CONFIG_HOME="$build/.config"
export GOTOOLCHAIN=local
go -C "$here" build -o "$build/benchmark" . >&2
cd "$here/.."
exec "$build/benchmark" "$@"
