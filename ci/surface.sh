#!/usr/bin/env bash
# Prints the surface counts that ROADMAP.md and every simplicity change
# report: internal/core non-test and test lines, Config fields, cliflags
# registrations and wire message kinds. Informational; it never fails a build.
#
# Usage: ci/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

core_lines() { awk 'END { print NR }' "$@"; }
mapfile -t src < <(ls internal/core/*.go | grep -v '_test\.go$')
mapfile -t tst < <(ls internal/core/*_test.go)

echo "internal/core non-test lines: $(core_lines "${src[@]}")"
echo "internal/core test lines:     $(core_lines "${tst[@]}")"
echo "Config fields:                $(awk '/^type Config struct/ { on = 1; next }
  on && /^}/ { on = 0 }
  on && /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)*[ \t]+[^ \t]/ { n++ }
  END { print n }' internal/core/config.go)"
echo "cliflags registrations:       $(awk '/fs\.(Int|Int64|Uint64|Float64|Bool|Duration|String|Func|Var)\(/ { n++ }
  END { print n }' internal/cliflags/cliflags.go)"
echo "wire kinds:                   $(awk '/KindHello Kind = 1 \+ iota/ { on = 1; n = 1; next }
  on && /^\)/ { on = 0 }
  on && /^\tKind[A-Za-z]+$/ { n++ }
  END { print n }' internal/wire/wire.go)"
