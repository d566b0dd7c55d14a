#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the current checkout
# and runs it with the arguments given. Everything the build and the run
# write (Go's build cache, its temporary files and telemetry, the binary, the
# engines' data directories) stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/remotedb ]; then
	echo "bench/run.sh: run it from the root of a checkout of the repository" >&2
	exit 3
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

# bench/ is a module of its own (bench/go.mod replaces repro with ..).
go build -C bench -o "$build/bench" .
exec "$build/bench" -data "$build/data" "$@"
