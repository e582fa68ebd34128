#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload commit-open --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build and telemetry caches and the runs' data
# directories stay under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# The go command also writes telemetry under the user's config directory;
# point that into the build directory too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$out/config"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
