#!/usr/bin/env bash
# Builds malgraphctl and the servebench load generator from this source
# tree, then runs the benchmark with the given flags, e.g.
#
#   bash servebench/run.sh --workload all
#   bash servebench/run.sh --workload ingest_burst --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Builds, Go caches, serve state, logs and
# span files all stay under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/malgraphctl" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the root of a malgraph source tree (no go.mod or cmd/malgraphctl in $root)" >&2
	exit 3
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/home" "$out/tmp"

# Keep the Go toolchain's caches and config inside the build directory and
# never let it reach for the network.
gobuild() {
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" \
		GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS= go build "$@"
}
gobuild -o "$out/malgraphctl" ./cmd/malgraphctl
(cd servebench && gobuild -o "$out/servebench" .)

if ! commit="$(git rev-parse HEAD 2>/dev/null)"; then
	commit="tree-$(find . -path ./.bench_build -prune -o -name '*.go' -type f -print | LC_ALL=C sort | xargs cat go.mod | sha256sum | cut -c1-16)"
fi

exec "$out/servebench" --bin "$out/malgraphctl" --work "$out/run" --commit "$commit" "$@"
