#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from the checkout it sits in
# and runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload geo-read --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binary, journal
# directories, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
