#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The build, its Go cache and the run's scratch files all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
