#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build and the run write — Go's build cache, its temporary
# files, the binaries, the daemons' run directories — stays under
# .bench_build in the repository root, so a checkout can be benchmarked
# without touching anything outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# The go command forks a detached telemetry child on its first run of the day
# under a config directory; that child outlives go, even when go fails at
# once. With the mode file saying off it is never started, so no process of
# this script's survives it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
cd "$root"
go build -o "$build/bin/dlc-bench" ./bench
exec "$build/bin/dlc-bench" "$@"
