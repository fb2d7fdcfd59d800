#!/usr/bin/env bash
# Builds the end-to-end training benchmark from the checkout it is run in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload dense_disk --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary, the fixtures and the checkpoints all stay
# under .bench_build/ in the checkout; no network access is needed.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C e2ebench build -trimpath -o "$out/bin/e2ebench" .
exec "$out/bin/e2ebench" --dir "$out/e2ebench" "$@"
