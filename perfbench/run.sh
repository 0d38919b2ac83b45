#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. The build fails, and so does this script, when the
# repository's Go module is not next to perfbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep every file the go command writes inside the checkout, and never
# reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
