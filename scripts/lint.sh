#!/usr/bin/env bash
# lint.sh — MALGRAPH's tier-1 correctness-tooling gate: gofmt, go vet plus the
# repo-specific malgraphlint passes (maprange, nondeterm, epochsafe,
# lockguard — see internal/analyzers). The tree must come up clean: every
# finding is either fixed or waived in the source with a reasoned
# //malgraph:<kind>-ok directive, and an unreasoned or stale waiver is
# itself a finding.
#
# Usage:
#   scripts/lint.sh [packages ...]          # default: ./...
#
# vet runs its full default analyzer suite (copylocks, loopclosure, atomic,
# printf, ...). The x/tools extra passes (nilness, shadow, unusedwrite) do
# not ship with cmd/vet in this toolchain and the build environment is
# offline; when their standalone binaries are on PATH they are run too, so
# the gate tightens automatically on toolchains that have them.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
  pkgs=(./...)
fi

echo "== gofmt"
# Every tracked .go file, testdata included, must be gofmt-clean.
unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists files that need formatting:"
  echo "$unformatted"
  exit 1
fi

echo "== go vet (default analyzer suite)"
go vet "${pkgs[@]}"

for extra in nilness shadow unusedwrite; do
  if command -v "$extra" >/dev/null 2>&1; then
    echo "== go vet -vettool=$extra"
    go vet -vettool="$(command -v "$extra")" "${pkgs[@]}"
  fi
done

echo "== malgraphlint"
# Same build cache as the vet run above (go list -export reuses it), so the
# second pass costs package loading, not a recompile.
go run ./cmd/malgraphlint "${pkgs[@]}"

echo "== waiver-free zone (internal/castore)"
# The content-addressed store is new code with no legacy debt: it must pass
# every malgraphlint analyzer with ZERO //malgraph:<kind>-ok waivers, so its
# lockguard `guarded by mu` annotations are machine-checked facts rather
# than waived claims. Growing a waiver here is a lint failure by design —
# fix the code instead.
if grep -rn 'malgraph:[a-z]*-ok' internal/castore/ 2>/dev/null; then
  echo "internal/castore must stay waiver-free (fix the finding, don't waive it)"
  exit 1
fi

echo "lint clean"
