#!/usr/bin/env bash
# Builds gridmtdbench and gridmtdd from this checkout and runs the
# benchmark with the given arguments, for example
#
#   bash cmd/gridmtdbench/run.sh --workload cold-300 --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The binaries, the Go build cache
# and every temporary file stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gridmtdd ]]; then
	echo "run.sh: run from the root of a gridmtd checkout (go.mod or cmd/gridmtdd is missing)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/bin/" ./cmd/gridmtdbench ./cmd/gridmtdd >&2
exec "$out/bin/gridmtdbench" -gridmtdd "$out/bin/gridmtdd" "$@"
