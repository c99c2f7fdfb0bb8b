#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given
# arguments, from the repository root. Build state (Go cache, binary,
# span dumps) stays under .bench_build/ in the repository root.
#
#   bash bench/run.sh --workload fleet-default --seed 1 --seconds 18 --trace 0
#   bash bench/run.sh -repeat 3 -out runs.json
#   bash bench/run.sh compare parent.json change.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The go command's config directory (telemetry counters) moves too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/periguard-bench" .)
cd "$root"
exec "$out/periguard-bench" "$@"
