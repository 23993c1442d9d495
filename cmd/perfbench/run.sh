#!/usr/bin/env bash
# Builds the benchmark and the cos-serve daemon from the checkout in the
# current directory (the repository root), then runs the benchmark with
# the given arguments:
#
#   bash cmd/perfbench/run.sh --workload link-bulk --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(
	cd cmd/perfbench
	go build -o "$out/perfbench" .
	go build -o "$out/cos-serve" cos/cmd/cos-serve
) >&2

exec "$out/perfbench" --serve-bin "$out/cos-serve" --work-dir "$out/work" "$@"
