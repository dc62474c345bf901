#!/usr/bin/env bash
# prodlines.sh — print the production Go line count that ROADMAP.md and
# CHANGES.md quote: every line (blank and comment lines included) of the
# non-test .go files outside servebench/ and any testdata/ directory.
#
# Usage:
#   scripts/prodlines.sh            # one number on stdout
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:servebench/**' ':!:**/testdata/**' |
  xargs -0 cat | wc -l | tr -d ' '
