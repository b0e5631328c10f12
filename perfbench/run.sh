#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run it from anywhere inside the checkout:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write, Go's build cache included,
# stays in the build directory: $CARGO_TARGET_DIR when set (relative
# paths are taken from the checkout root), else .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
