#!/usr/bin/env bash
# Builds cxlperf from source and runs it with the given arguments, e.g.
#
#   bash bench/cxlperf/run.sh --workload resp-cache --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Binaries, Go's caches and user
# configuration (where its telemetry goes), scratch files and results all
# go to $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go -C bench/cxlperf build -o "$out/cxlperf" . >&2
exec "$out/cxlperf" -build "$out" "$@"
