#!/usr/bin/env bash
# Builds csbuild, csserve and the benchmark program from the checkout's
# sources, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload distinct --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/csserve ] || [ ! -d cmd/csbuild ]; then
	echo "run.sh: run from the csrank repository root (cmd/csbuild, cmd/csserve not found)" >&2
	exit 1
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOENV=off

# The go command's telemetry sidecar is a detached process (its own
# session) that can outlive the build; turning telemetry off in the
# private config dir keeps the go command from starting it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

# The serving binaries come from the repository's own module; perfbench
# is its own module next to this script (it imports the repository's
# internal packages through a replace directive).
go build -o "$out/bin/" ./cmd/csbuild ./cmd/csserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
