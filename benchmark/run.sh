#!/usr/bin/env bash
# The benchmark's entry point, for the driver and for people:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh run|compare|calibrate ...
#
# run from the root of a checkout. It builds the benchmark (a module of
# its own, benchmark/go.mod, that replaces vsmartjoin with the checkout
# around it) from source into .bench_build/ (a no-op after the first
# time, thanks to the build cache) and runs it. Everything the Go
# toolchain and the benchmark write stays inside the checkout: the build
# cache, the toolchain's temporary files and its per-user directories
# all point below .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
	echo "benchmark: run from the root of a vsmartjoin checkout (no go.mod here: nothing to measure)" >&2
	exit 1
fi

build=$PWD/.bench_build
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export HOME=$build/home
export XDG_CACHE_HOME=$build/home/.cache
export XDG_CONFIG_HOME=$build/home/.config
export GOTOOLCHAIN=local
export GOWORK=off

# With a fresh per-user directory the go command would start a detached
# telemetry child that outlives this script. Mode "off" means it starts
# nothing and counts nothing.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -C benchmark -o "$build/vsmartbench" . >&2

exec "$build/vsmartbench" "$@"
