#!/usr/bin/env bash
# Builds the lalrdbench binary from this checkout and runs it with the
# given arguments.  Run from the repository root:
#
#   bash lalrdbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, frozen stores) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/lalrdbench" && go build -o "$build/lalrdbench" .)
exec "$build/lalrdbench" "$@"
