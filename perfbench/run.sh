#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root; every argument is passed through, for example:
#
#   bash perfbench/run.sh --workload keys-serial --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and the sorts' run files all live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (the masort go.mod is missing)" >&2
	exit 2
fi
work="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$work/gotmp"
work="$(cd "$work" && pwd)"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTMPDIR="$work/gotmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$work/perfbench" .
exec "$work/perfbench" --work "$work" "$@"
