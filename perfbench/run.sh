#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload pipe-forest --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache and temporary files stay
# under .bench_build in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
