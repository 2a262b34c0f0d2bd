#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare -base runs/parent -new runs/change
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, binary) stays under .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
cd "${root}"
exec "${out}/perfbench" "$@"
