#!/usr/bin/env bash
# Builds the chain benchmark from this checkout's source and runs it with
# the given arguments (see main.go for the flags). Every build artefact —
# Go build cache, temp files, the binary — stays under the build directory
# inside the checkout ($CARGO_TARGET_DIR when set, else .bench_build), and
# the toolchain never goes to the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/chainbench/tmp" "$out/chainbench/config"
out="$(cd "$out/chainbench" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly
(cd chainbench && go build -o "$out/chainbench" .)
exec "$out/chainbench" "$@"
