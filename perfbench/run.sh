#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it:
#
#   bash perfbench/run.sh --workload cold-small --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, zoo store,
# service state, span files) stays under perfbench/.work, so the
# benchmark reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$here/.work"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" \
	GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOSUMDB=off
go -C "$here" build -o "$work/perfbench" .
exec "$work/perfbench" -work "$work" "$@"
