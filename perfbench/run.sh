#!/usr/bin/env bash
# Builds the benchmark and paradigmd from this checkout's sources, then
# runs the benchmark with the given arguments from the repository root.
# Everything the build and the runs write stays under .bench_build (or
# $CARGO_TARGET_DIR when set), including the Go build cache.
#
#   bash perfbench/run.sh --workload run-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$out/config"

go build -o "$out/paradigmd" ./cmd/paradigmd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --bin "$out" --work "$out/work" "$@"
